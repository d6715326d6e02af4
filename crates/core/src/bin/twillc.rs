//! `twillc` — the Twill compiler as a command-line tool.
//!
//! ```console
//! twillc program.c [--partitions N] [--sw-fraction F] [--queue-depth D]
//!        [--queue-depths q0=4,q1=32] [--allow-recursion]
//!        [--run] [--input 1,2,3] [--stats] [--profile] [--compare PATH]
//!        [--fault-rate R] [--fault-seed N] [--watchdog CYCLES] [--resilient]
//!        [--tune] [--tune-seed N] [--tune-rounds N]
//!        [--trace] [--obs-ring-capacity N] [--sample-interval N]
//!        [--hw-counters] [--out DIR]
//! ```
//!
//! `--out DIR` writes the run record: the Verilog, the partitioned IR and
//! every artifact of the observed run under fixed file names (the table
//! is in the `twill::record` module docs). `--out` never starts a
//! simulation by itself; the hybrid runs under `--run`, `--profile`,
//! `--trace`, `--sample-interval` or `--compare`, and a run whose trace
//! ring dropped events exits non-zero.
//!
//! `--run` cross-checks pure SW, pure HW and the hybrid and prints their
//! cycles; `--profile` prints the stall/utilization table and compiler
//! stage timings; `--sample-interval N` prints the per-interval timeline
//! and its phases. `--compare PATH` diffs the hybrid run against a
//! recorded base and prints the ranked cycle-delta attribution: PATH is
//! either a run-record directory (its `profile.json` adds the C line the
//! regression comes from, its `timeline.json` the per-phase attribution)
//! or a `BENCH_baseline.json` file keyed by the program's file stem.
//!
//! `--hw-counters` instruments the emitted Verilog with the synthesizable
//! `twill_perf` register file (DESIGN.md §14). `--tune` runs the
//! profile-guided auto-tuner (DESIGN.md §13), seeded by `--tune-seed`
//! over at most `--tune-rounds` rounds. `--fault-rate` injects seeded
//! faults (`--fault-seed`, default 1), `--watchdog` sets the no-progress
//! window before a hang is diagnosed, and `--resilient` retries a failing
//! hybrid with fresh seeds before degrading to pure software.
//! `TWILL_NO_FAST_FORWARD=1` selects the simulator's naive loop.

use std::path::Path;
use std::process::ExitCode;

use twill::record::{self, Recorded, RunOptions};
use twill::Compiler;

struct Args {
    source: Option<String>,
    partitions: usize,
    sw_fraction: Option<f64>,
    queue_depth: Option<u32>,
    queue_depths: Vec<(usize, u32)>,
    allow_recursion: bool,
    run: bool,
    input: Vec<i32>,
    stats: bool,
    profile: bool,
    compare: Option<String>,
    fault_rate: Option<f64>,
    fault_seed: u64,
    watchdog: Option<u64>,
    resilient: bool,
    tune: bool,
    tune_seed: u64,
    tune_rounds: usize,
    obs: RunOptions,
}

/// Hybrid attempts before `--resilient` degrades to pure software.
const RESILIENT_ATTEMPTS: u32 = 3;

/// Parse `q0=4,q1=32` (the `q` prefix is optional) into per-queue depth
/// overrides. `None` on any malformed entry or a zero depth.
fn parse_queue_depths(list: &str) -> Option<Vec<(usize, u32)>> {
    let mut out = Vec::new();
    for entry in list.split(',').filter(|s| !s.is_empty()) {
        let (id, depth) = entry.split_once('=')?;
        let id = id.trim().strip_prefix('q').unwrap_or(id.trim());
        let depth: u32 = depth.trim().parse().ok()?;
        if depth == 0 {
            return None;
        }
        out.push((id.parse().ok()?, depth));
    }
    Some(out)
}

fn usage() -> ! {
    eprintln!(
        "usage: twillc <program.c> [--partitions N] [--sw-fraction F] \
         [--queue-depth D] [--queue-depths q0=4,q1=32] [--allow-recursion] \
         [--run] [--input a,b,c] [--stats] [--profile] [--compare PATH] \
         [--fault-rate R] [--fault-seed N] [--watchdog CYCLES] [--resilient] \
         [--tune] [--tune-seed N] [--tune-rounds N] {}",
        record::USAGE
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        source: None,
        partitions: 3,
        sw_fraction: None,
        queue_depth: None,
        queue_depths: Vec::new(),
        allow_recursion: false,
        run: false,
        input: Vec::new(),
        stats: false,
        profile: false,
        compare: None,
        fault_rate: None,
        fault_seed: 1,
        watchdog: None,
        resilient: false,
        tune: false,
        tune_seed: 0,
        tune_rounds: 4,
        obs: RunOptions::default(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match args.obs.accept(&a, &mut it) {
            Ok(true) => continue,
            Ok(false) => {}
            Err(e) => {
                eprintln!("twillc: {e}");
                usage()
            }
        }
        match a.as_str() {
            "--partitions" => {
                args.partitions = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage())
            }
            "--sw-fraction" => {
                args.sw_fraction =
                    Some(it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage()))
            }
            "--queue-depth" => {
                args.queue_depth =
                    Some(it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage()))
            }
            "--queue-depths" => {
                let list = it.next().unwrap_or_else(|| usage());
                args.queue_depths = parse_queue_depths(&list).unwrap_or_else(|| usage());
            }
            "--allow-recursion" => args.allow_recursion = true,
            "--run" => args.run = true,
            "--input" => {
                let list = it.next().unwrap_or_else(|| usage());
                args.input = list
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|s| s.trim().parse().unwrap_or_else(|_| usage()))
                    .collect();
            }
            "--stats" => args.stats = true,
            "--profile" => args.profile = true,
            "--compare" => args.compare = Some(it.next().unwrap_or_else(|| usage())),
            "--fault-rate" => {
                args.fault_rate =
                    Some(it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage()))
            }
            "--fault-seed" => {
                args.fault_seed = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage())
            }
            "--watchdog" => {
                args.watchdog =
                    Some(it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage()))
            }
            "--resilient" => args.resilient = true,
            "--tune" => args.tune = true,
            "--tune-seed" => {
                args.tune_seed = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage())
            }
            "--tune-rounds" => {
                args.tune_rounds = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage())
            }
            "--help" | "-h" => usage(),
            other if !other.starts_with('-') && args.source.is_none() => {
                args.source = Some(other.to_string())
            }
            _ => usage(),
        }
    }
    if let Err(e) = args.obs.check() {
        eprintln!("twillc: {e}");
        usage();
    }
    args
}

fn main() -> ExitCode {
    let args = parse_args();
    let Some(path) = args.source.clone() else { usage() };
    let src = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("twillc: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let name =
        Path::new(&path).file_stem().and_then(|s| s.to_str()).unwrap_or("program").to_string();
    let base = match args.compare.as_deref().map(|p| Recorded::load(Path::new(p), &name)) {
        None => None,
        Some(Ok(b)) => Some(b),
        Some(Err(e)) => {
            eprintln!("twillc: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut compiler = Compiler::new()
        .partitions(args.partitions)
        .allow_recursion(args.allow_recursion)
        .hw_counters(args.obs.hw_counters);
    if let Some(f) = args.sw_fraction {
        compiler = compiler.sw_fraction(f);
    }
    if let Some(d) = args.queue_depth {
        compiler = compiler.queue_depth(d);
    }
    if !args.queue_depths.is_empty() {
        compiler = compiler.queue_depths(args.queue_depths.clone());
    }

    let build = match compiler.compile(&name, &src) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("{path}:{e}");
            return ExitCode::FAILURE;
        }
    };

    let s = build.stats();
    println!(
        "compiled {name}: {} partition(s), {} hardware thread(s), {} queue(s), {} semaphore(s)",
        s.partitions, s.hw_threads, s.queues, s.semaphores
    );

    if args.stats {
        let a = build.area();
        println!(
            "area: LegUp {} LUTs | Twill HW threads {} | + runtime {} | + Microblaze {}",
            a.legup.luts, a.twill_hw_threads.luts, a.twill_total.luts, a.twill_plus_microblaze.luts
        );
        println!("instructions per partition: {:?}", s.insts_per_partition);
    }

    let mut tuning = None;
    if args.tune {
        // The tuner gets the main run's watchdog, but never fault
        // injection: it optimizes the healthy machine.
        let mut tune_cfg = build.sim_config();
        if let Some(w) = args.watchdog {
            tune_cfg.watchdog_window = w;
        }
        let topts = twill::TuneOptions {
            seed: args.tune_seed,
            max_rounds: args.tune_rounds,
            bench: name.clone(),
            ..Default::default()
        };
        match twill::tune(&build, &args.input, &tune_cfg, &topts) {
            Ok(o) => {
                print!("{}", o.report.render_text());
                tuning = Some(o.report);
            }
            Err(e) => {
                eprintln!("twillc: tuning baseline run failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let observing = args.run
        || args.profile
        || args.obs.trace
        || args.obs.sample_interval.is_some()
        || base.is_some();
    let mut run = None;
    if observing {
        let mut cfg = twill::SimulationConfig {
            fault: args
                .fault_rate
                .map(|r| twill::FaultPlan::new(args.fault_seed, twill::FaultSpec::uniform(r))),
            ..args.obs.sim_config(&build)
        };
        if let Some(w) = args.watchdog {
            cfg.watchdog_window = w;
        }
        // A recorded base's line profile and timeline are only comparable
        // with the same observation armed on this run.
        if let Some(b) = &base {
            cfg.profile |= b.profile.is_some();
            if let Some(t) = &b.timeline {
                cfg.sample_interval = cfg.sample_interval.or(Some(t.sample_interval));
            }
        }
        let tw = if args.resilient {
            match build.run_resilient(args.input.clone(), &cfg, RESILIENT_ATTEMPTS) {
                Ok(outcome) => {
                    for f in &outcome.failures {
                        eprintln!("twillc: {f}");
                    }
                    println!("resilient run served by {}", outcome.served_by);
                    outcome.report
                }
                Err(e) => {
                    eprintln!("twillc: resilient run failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
        } else {
            match build.simulate_hybrid_with(args.input.clone(), &cfg) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("twillc: hybrid simulation failed: {e}");
                    if let Some(hang) = e.hang_report() {
                        eprintln!("{hang}");
                    }
                    return ExitCode::FAILURE;
                }
            }
        };

        if args.run {
            let sw = build.simulate_pure_sw(args.input.clone());
            let hw = build.simulate_pure_hw(args.input.clone());
            match (sw, hw) {
                (Ok(sw), Ok(hw)) => {
                    if sw.output != tw.output || sw.output != hw.output {
                        if cfg.fault.is_some() {
                            // Expected failure mode under injection: the
                            // cross-configuration check caught it.
                            eprintln!("twillc: injected faults corrupted the output");
                        } else {
                            eprintln!("twillc: CONFIGURATION OUTPUTS DIVERGED (bug!)");
                        }
                        return ExitCode::FAILURE;
                    }
                    println!("output: {:?}", tw.output);
                    println!(
                        "cycles: pure SW {} | pure HW {} ({:.2}x) | Twill {} ({:.2}x vs SW, {:.2}x vs HW)",
                        sw.cycles,
                        hw.cycles,
                        sw.cycles as f64 / hw.cycles as f64,
                        tw.cycles,
                        sw.cycles as f64 / tw.cycles as f64,
                        hw.cycles as f64 / tw.cycles as f64
                    );
                }
                (sw, hw) => {
                    for (name, r) in [("SW", sw.err()), ("HW", hw.err())] {
                        if let Some(e) = r {
                            eprintln!("twillc: {name} simulation failed: {e}");
                        }
                    }
                    return ExitCode::FAILURE;
                }
            }
        }

        if args.profile {
            let c = build.graph().counters();
            let spans = build.graph().spans();
            println!(
                "{}",
                twill_obs::profile_report(
                    &name,
                    &tw.metrics(),
                    Some(twill_obs::StageSection { spans: &spans, runs: c.runs(), hits: c.hits() }),
                )
            );
        }

        if let Some(t) = tw.timeline.as_ref().filter(|_| args.obs.sample_interval.is_some()) {
            print!("{}", twill_obs::timeline_table(t));
            if let Some(pr) = record::phases(&build, &tw) {
                print!("{}", pr.render_text());
            }
        }

        if let Some(b) = &base {
            compare(&build, &tw, b, &name, &path);
        }
        run = Some(tw);
    }

    if let Some(dir) = &args.obs.out {
        match record::write(dir, &args.obs, &build, &src, run.as_ref(), tuning.as_ref()) {
            Ok(files) => println!("run record written to {}: {}", dir.display(), files.join(", ")),
            Err(e) => {
                eprintln!("twillc: cannot write the run record to {}: {e}", dir.display());
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(tw) = run.as_ref().filter(|tw| tw.dropped_events > 0) {
        eprintln!(
            "twillc: WARN: trace truncated: {} event(s) dropped — raise --obs-ring-capacity",
            tw.dropped_events
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Print the diff of run `tw` against `base`: the ranked cycle-delta
/// attribution (with the regressing C line when both runs have a line
/// profile) and, for a sampled base, the per-phase attribution.
fn compare(
    build: &twill::TwillBuild,
    tw: &twill_rt::SimReport,
    base: &Recorded,
    name: &str,
    path: &str,
) {
    let current = tw.source_profile(&build.dswp().module);
    let d = twill_obs::diff(&base.metrics, &tw.metrics());
    let label = format!("{name} hybrid");
    if d.is_zero() {
        println!("compare {label}: identical to baseline ({} cycles)", base.metrics.cycles);
    } else {
        let hint = base
            .profile
            .as_ref()
            .zip(current.as_ref())
            .and_then(|(b, c)| twill_obs::line_regression(b, c));
        let file = Path::new(path).file_name().and_then(|s| s.to_str()).unwrap_or(path);
        print!("{}", d.render_text_with_line_hint(&label, hint.map(|(l, c)| (file, l, c))));
    }

    // Phases tile each run, so the per-phase deltas sum exactly to the
    // total cycle delta.
    let (Some(base_t), Some(t)) = (&base.timeline, &tw.timeline) else { return };
    if base_t.sample_interval != t.sample_interval {
        eprintln!(
            "twillc: WARN: baseline timeline sampled every {} cycles, this run \
             every {} — phase alignment may be coarse",
            base_t.sample_interval, t.sample_interval
        );
    }
    let base_phases = twill_obs::segment(base_t);
    let mut new_phases = twill_obs::segment(t);
    if let Some(sp) = current.as_ref() {
        new_phases.annotate(sp);
    }
    let cycle_delta = tw.cycles as i64 - base_t.total_cycles() as i64;
    let deltas = twill_obs::phase_attribution(&base_phases, &new_phases);
    if cycle_delta == 0 && deltas.iter().all(|d| d.delta == 0) {
        println!("compare timeline: identical phase timing ({} cycles)", tw.cycles);
    } else {
        print!("{}", twill_obs::render_phase_attribution(&deltas, cycle_delta));
    }
}
