//! The Twill repository benchmark. See README.md in this directory.
//!
//! ```console
//! twill-perfbench --workload compile|simulate|explore --seed N --seconds S --trace 0|1
//! ```
//!
//! Sets the workload up, runs one untimed warm-up pass, then passes of it
//! for `S` seconds, timing further set-ups spread over the run (their
//! median is `setup_s`), checks every output against the reference
//! interpreter and the committed goldens, and prints every metric by name
//! with its unit. The last line of standard output is the JSON result:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the first third of the
//! time runs untraced, the rest traced, and the metrics are the per-layer
//! ones (spans are written to `.bench_out/`).

mod compile;
mod explore;
mod fidelity;
mod inputs;
mod metrics;
mod report;
mod simulate;
mod stats;
mod trace;
mod workload;

#[cfg(test)]
mod selftest;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use stats::{geomean, median, tail};
use trace::Tracer;
use workload::{Checks, Item, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;
/// Where the traced run writes its spans, relative to the working directory.
const OUT_DIR: &str = ".bench_out";
const USAGE: &str =
    "usage: twill-perfbench --workload compile|simulate|explore --seed N --seconds S --trace 0|1";

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 0, seconds: 10.0, trace: false };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !metrics::WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload '{}'", args.workload));
    }
    if !(args.seconds >= 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be a non-negative number".into());
    }
    Ok(args)
}

fn setup(workload: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match workload {
        "compile" => Box::new(compile::Compile::setup(seed)?),
        "simulate" => Box::new(simulate::Simulate::setup(seed)?),
        "explore" => Box::new(explore::Explore::setup(seed)?),
        other => return Err(format!("unknown workload '{other}'")),
    })
}

struct Pass {
    traced: bool,
    items: Vec<Item>,
}

impl Pass {
    fn secs(&self) -> f64 {
        self.items.iter().map(|i| i.secs).sum()
    }
}

/// A finished run: what was checked, each metric as (value, unit), and
/// the traced run's spans as a Perfetto document.
pub struct Outcome {
    pub checks: Checks,
    pub metrics: Vec<(String, f64, &'static str)>,
    pub trace_json: Option<String>,
}

impl Outcome {
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("{}: {{\"value\": {value}, \"unit\": {}}}", quote(name), quote(unit))
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.checks.failed == 0,
            self.checks.attempted,
            self.checks.failed,
            metrics.join(", ")
        )
    }
}

fn quote(s: &str) -> String {
    twill_obs::json::quote(s)
}

/// Peak resident set of this process (VmHWM), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Set the workload up, recording its time and the oracle's interpreter cost.
fn timed_setup(
    args: &Args,
    secs: &mut Vec<f64>,
    interp: &mut Vec<(u64, u64)>,
) -> Result<Box<dyn Workload>, String> {
    let t = Instant::now();
    let w = setup(&args.workload, args.seed)?;
    secs.push(t.elapsed().as_secs_f64());
    interp.push(w.interp());
    Ok(w)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut setup_secs = Vec::new();
    let mut interp = Vec::new();
    let mut wl = timed_setup(args, &mut setup_secs, &mut interp)?;

    let tr = Tracer::new(false);
    let mut checks = Checks::default();
    // One untimed warm-up pass: allocator and page-cache growth are paid
    // once per process, not per pass. Its outputs are still checked.
    wl.pass(0, &tr, &mut checks, &mut Vec::new());
    let mut passes: Vec<Pass> = Vec::new();
    let start = Instant::now();
    let traced_from = args.seconds / 3.0;
    for iter in 1.. {
        let elapsed = start.elapsed().as_secs_f64();
        // The other set-ups are timed at evenly spread points of the run,
        // so their median sees the same host-speed drift as the passes.
        if setup_secs.len() < SETUPS
            && elapsed * SETUPS as f64 >= args.seconds * setup_secs.len() as f64
        {
            timed_setup(args, &mut setup_secs, &mut interp)?;
        }
        let untraced = passes.iter().filter(|p| !p.traced).count();
        let traced = passes.len() - untraced;
        if elapsed >= args.seconds && untraced > 0 && (!args.trace || traced > 0) {
            break;
        }
        let trace_this = args.trace && untraced > 0 && elapsed >= traced_from;
        tr.set_enabled(trace_this);
        let mut items = Vec::new();
        wl.pass(iter, &tr, &mut checks, &mut items);
        if trace_this {
            wl.probe(iter, &tr, &mut checks);
        }
        tr.set_enabled(false);
        passes.push(Pass { traced: trace_this, items });
    }
    let rss = peak_rss_mb();
    while setup_secs.len() < SETUPS {
        timed_setup(args, &mut setup_secs, &mut interp)?;
    }
    wl.finish(&mut checks);

    let plain: Vec<&Pass> = passes.iter().filter(|p| !p.traced).collect();
    let pass_secs: Vec<f64> = plain.iter().map(|p| p.secs()).collect();
    let mut metrics = Vec::new();
    let mut trace_json = None;
    if args.trace {
        let traced: Vec<f64> = passes.iter().filter(|p| p.traced).map(Pass::secs).collect();
        let spans = tr.spans();
        let values = report::per_layer_values(&spans, &tr.counts(), traced.len());
        let interp_ns = median(&interp.iter().map(|i| i.0 as f64).collect::<Vec<_>>());
        let steps = interp[0].1 as f64;
        let extra = BTreeMap::from([
            ("ir.interp_ms".to_string(), interp_ns / 1e6),
            ("ir.interp_msteps_per_s".to_string(), steps * 1e3 / interp_ns),
            ("trace.overhead_ratio".to_string(), median(&traced) / median(&pass_secs)),
            ("failed_ratio".to_string(), checks.failed as f64 / checks.attempted.max(1) as f64),
        ]);
        for spec in metrics::per_layer() {
            let v = values.get(&spec.name).or(extra.get(&spec.name)).copied().unwrap_or(0.0);
            let moves: Vec<String> = spec.moves.iter().map(|(m, w)| format!("{m}@{w}")).collect();
            println!(
                "{:<28} {v:>16.6} {:<10} {:<7} {:<15} -> {}",
                spec.name,
                spec.unit,
                spec.better,
                spec.layer,
                moves.join(" ")
            );
            metrics.push((spec.name, v, spec.unit));
        }
        print_spans(&spans, traced.len());
        println!(
            "{} spans of {} traced passes ({} untraced passes before them)",
            spans.len(),
            traced.len(),
            pass_secs.len()
        );
        trace_json = Some(trace::to_trace_json(&spans));
    } else {
        let fid = fidelity::run(&mut checks)?;
        let mut by_item: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for item in plain.iter().flat_map(|p| &p.items) {
            by_item.entry(&item.name).or_default().push(item.secs * 1e3);
        }
        for (name, ms) in &by_item {
            println!("item {name:<22} {:>12.3} ms (median of {})", median(ms), ms.len());
        }
        let item_ms: Vec<f64> = by_item.values().map(|v| median(v)).collect();
        let (tail_s, pct) = tail(&pass_secs);
        println!(
            "{} passes of `{}` (seed {}); {} items per pass; tail = p{pct:.1}; {SETUPS} set-ups",
            pass_secs.len(),
            args.workload,
            args.seed,
            item_ms.len()
        );
        let values = BTreeMap::from([
            ("setup_s", median(&setup_secs)),
            ("pass_s", median(&pass_secs)),
            ("pass_s_tail", tail_s),
            ("item_geomean_ms", geomean(&item_ms)),
            ("peak_rss_mb", rss),
            ("hybrid_speedup_geomean", fid.hybrid_speedup_geomean),
            ("twill_luts", fid.twill_luts),
            ("tuned_speedup_geomean", fid.tuned_speedup_geomean),
        ]);
        for spec in metrics::END_TO_END {
            let v = values[spec.name];
            println!(
                "{:<28} {v:>16.6} {:<10} {} is better, bound {}",
                spec.name, spec.unit, spec.better, spec.bound
            );
            metrics.push((spec.name.to_string(), v, spec.unit));
        }
    }
    println!("checked {} operations, {} failed", checks.attempted, checks.failed);
    Ok(Outcome { checks, metrics, trace_json })
}

/// Self time per span name, per traced pass.
fn print_spans(spans: &[trace::SpanRec], passes: usize) {
    println!("{:<28} {:>8} {:>12} {:>12}", "span", "calls", "self ms", "total ms");
    for (name, t) in trace::totals_by_name(spans, None) {
        let p = passes.max(1) as f64;
        println!(
            "{name:<28} {:>8.1} {:>12.3} {:>12.3}",
            t.calls as f64 / p,
            t.self_ns as f64 / 1e6 / p,
            t.total_ns as f64 / 1e6 / p
        );
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("twill-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(outcome) => {
            if let Some(spans) = &outcome.trace_json {
                let file = format!("{OUT_DIR}/spans-{}-seed{}.json", args.workload, args.seed);
                let written =
                    std::fs::create_dir_all(OUT_DIR).and_then(|_| std::fs::write(&file, spans));
                if let Err(e) = written {
                    eprintln!("twill-perfbench: cannot write {file}: {e}");
                    return ExitCode::FAILURE;
                }
                println!("spans written to {file}");
            }
            println!("{}", outcome.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("twill-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
