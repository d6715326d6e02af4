//! Per-layer metrics from the traced passes' spans and counters. Every
//! value is per traced pass unless it is a rate or a ratio.

use std::collections::BTreeMap;

use crate::metrics::PASSES;
use crate::stats::geomean;
use crate::trace::{totals_by_name, NameTotal, SpanRec};

/// Compiler stages, as the workloads name their spans.
const COMPILER_STAGES: [&str; 8] =
    ["frontend", "passes", "core.hash", "dswp", "hls.pure", "hls.hybrid", "verilog", "hls.area"];
/// Simulator calls a pass makes (the probes' `rt.plain`/`rt.naive` are not).
const RT_PASS: [&str; 7] =
    ["rt.sw", "rt.hw", "rt.hybrid", "rt.tuned", "rt.sweep", "rt.stall", "rt.observed"];

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Simulated Mcycles per host second.
fn mcps(t: &NameTotal) -> f64 {
    ratio(t.work as f64 * 1e3, t.self_ns as f64)
}

pub fn per_layer_values(
    spans: &[SpanRec],
    counts: &BTreeMap<String, f64>,
    passes: usize,
) -> BTreeMap<String, f64> {
    let p = passes.max(1) as f64;
    let all = totals_by_name(spans, None);
    let get = |name: &str| all.get(name).copied().unwrap_or_default();
    let self_ms = |name: &str| get(name).self_ns as f64 / 1e6 / p;
    let count = |name: &str| counts.get(name).copied().unwrap_or(0.0);
    let mut v = BTreeMap::new();
    let mut put = |k: String, x: f64| {
        v.insert(k, x);
    };

    put("frontend.ms".into(), self_ms("frontend"));
    put("frontend.insts".into(), count("frontend.insts") / p);
    for pass in PASSES {
        put(format!("passes.{pass}.ms"), self_ms(&format!("passes.{pass}")));
        put(format!("passes.{pass}.applied"), count(&format!("passes.{pass}.applied")) / p);
    }
    put("passes.insts_after".into(), count("passes.insts_after") / p);

    for (metric, span) in [
        ("pdg.build_ms", "pdg.build"),
        ("pdg.scc_ms", "pdg.scc"),
        ("pdg.weights_ms", "pdg.weights"),
        ("dswp.ms", "dswp"),
        ("hls.pure.ms", "hls.pure"),
        ("hls.hybrid.ms", "hls.hybrid"),
        ("hls.area_ms", "hls.area"),
        ("verilog.ms", "verilog"),
        ("core.hash_ms", "core.hash"),
        ("rt.sw.host_ms", "rt.sw"),
        ("rt.hw.host_ms", "rt.hw"),
        ("rt.hybrid.host_ms", "rt.hybrid"),
        ("rt.stall.host_ms", "rt.stall"),
        ("obs.metrics_ms", "obs.metrics"),
        ("obs.profile_ms", "obs.profile"),
        ("obs.perfetto_ms", "obs.perfetto"),
        ("obs.timeline_ms", "obs.timeline"),
    ] {
        put(metric.into(), self_ms(span));
    }
    for c in [
        "pdg.nodes",
        "pdg.edges",
        "pdg.sccs",
        "dswp.runs",
        "dswp.queues",
        "dswp.semaphores",
        "dswp.hw_threads",
        "hls.states",
        "verilog.bytes",
        "core.stage_runs",
        "core.stage_hits",
        "obs.dropped_events",
        "tune.trials",
    ] {
        put(c.into(), count(c) / p);
    }
    let (runs, hits) = (count("core.stage_runs"), count("core.stage_hits"));
    put("core.cache_hit_ratio".into(), ratio(hits, runs + hits));

    // The tuner's span includes the stage work it triggers.
    let tune = get("tune");
    put("tune.ms".into(), tune.total_ns as f64 / 1e6 / p);
    put("tune.trials_per_s".into(), ratio(count("tune.trials") * 1e9, tune.total_ns as f64));
    put("tune.accept_ratio".into(), ratio(count("tune.accepted"), count("tune.moves")));

    for mode in ["sw", "hw", "hybrid", "stall"] {
        put(format!("rt.{mode}.mcps"), mcps(&get(&format!("rt.{mode}"))));
    }
    put(
        "rt.ff_naive_ratio".into(),
        ratio(get("rt.stall").self_ns as f64, get("rt.naive").self_ns as f64),
    );
    put(
        "obs.overhead_ratio".into(),
        ratio(get("rt.observed").self_ns as f64, get("rt.plain").self_ns as f64),
    );

    let sim: Vec<NameTotal> = RT_PASS.iter().map(|n| get(n)).collect();
    let (cycles, ns) = sim.iter().fold((0, 0), |(c, n), t| (c + t.work, n + t.self_ns));
    put("rt.sim_cycles".into(), cycles as f64 / p);
    put("sim_mcps".into(), ratio(cycles as f64 * 1e3, ns as f64));

    let mut rates = Vec::new();
    for b in chstone::all() {
        let mine = totals_by_name(spans, Some(b.name));
        let rt_ns: u64 = RT_PASS.iter().filter_map(|n| mine.get(n)).map(|t| t.self_ns).sum();
        put(format!("rt.{}.host_ms", b.name), rt_ns as f64 / 1e6 / p);
        let stage_ns: u64 =
            COMPILER_STAGES.iter().filter_map(|n| mine.get(n)).map(|t| t.total_ns).sum();
        put(format!("compile.{}.ms", b.name), stage_ns as f64 / 1e6 / p);
        rates.extend(RT_PASS.iter().filter_map(|n| mine.get(n)).map(mcps).filter(|r| *r > 0.0));
    }
    put("sim_mcps_geomean".into(), if rates.is_empty() { 0.0 } else { geomean(&rates) });
    v
}
