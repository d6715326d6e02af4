//! Pipeline-level profiling of CHStone benchmarks' hybrid runs.
//!
//! ```console
//! profile [BENCH] [--scale N] [--trace] [--obs-ring-capacity N]
//!         [--sample-interval N] [--hw-counters] [--out DIR]
//! ```
//!
//! With no benchmark name, profiles all eight. Prints the per-thread
//! stall/utilization table (busy / queue-full / queue-empty / semaphore /
//! memory-bus / module-bus / idle), names the critical pipeline stage,
//! and under `--sample-interval` prints the phase report. `--out DIR`
//! writes each benchmark's run record to `DIR/<bench>/` (file table in
//! the `twill::record` module docs). Observability data loss — a trace
//! ring that dropped events — exits non-zero.

use std::process::ExitCode;

use twill::experiments::benchmark_graph;
use twill::record::{self, RunOptions};
use twill::Compiler;

fn usage() -> ! {
    eprintln!("usage: profile [BENCH] [--scale N] {}", record::USAGE);
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut opts = RunOptions::default();
    let mut bench: Option<String> = None;
    let mut scale: Option<u32> = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match opts.accept(&a, &mut it) {
            Ok(true) => continue,
            Ok(false) => {}
            Err(e) => {
                eprintln!("profile: {e}");
                usage()
            }
        }
        match a.as_str() {
            "--scale" => {
                scale = Some(it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage()))
            }
            "--help" | "-h" => usage(),
            other if !other.starts_with('-') && bench.is_none() => bench = Some(other.to_string()),
            _ => usage(),
        }
    }
    if let Err(e) = opts.check() {
        eprintln!("profile: {e}");
        usage();
    }

    let benches: Vec<chstone::Benchmark> = match &bench {
        Some(name) => {
            vec![chstone::by_name(name).unwrap_or_else(|| {
                eprintln!("profile: unknown benchmark {name:?}");
                std::process::exit(2);
            })]
        }
        None => chstone::all(),
    };

    let mut obs_data_lost = false;
    for b in &benches {
        let graph = benchmark_graph(b);
        let build =
            Compiler::new().partitions(b.partitions).hw_counters(opts.hw_counters).build_on(&graph);
        let input = chstone::input_for(b.name, scale.unwrap_or(b.default_scale));
        let rep =
            build.simulate_hybrid_with(input, &opts.sim_config(&build)).expect("hybrid simulation");
        let c = graph.counters();
        let spans = graph.spans();
        println!(
            "{}",
            twill_obs::profile_report(
                b.name,
                &rep.metrics(),
                Some(twill_obs::StageSection { spans: &spans, runs: c.runs(), hits: c.hits() }),
            )
        );
        if let Some(pr) = record::phases(&build, &rep) {
            print!("{}", pr.render_text());
        }
        if let Some(out) = &opts.out {
            let dir = out.join(b.name);
            match record::write(&dir, &opts, &build, b.source, Some(&rep), None) {
                Ok(files) => {
                    println!("run record written to {}: {}", dir.display(), files.join(", "))
                }
                Err(e) => {
                    eprintln!("profile: cannot write the run record to {}: {e}", dir.display());
                    return ExitCode::FAILURE;
                }
            }
        }
        if rep.dropped_events > 0 {
            obs_data_lost = true;
            eprintln!(
                "profile: WARN: trace truncated for {}: {} event(s) dropped — raise --obs-ring-capacity",
                b.name, rep.dropped_events
            );
        }
    }
    if obs_data_lost {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
