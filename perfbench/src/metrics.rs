//! The benchmark's metric tables: the end-to-end metrics every untraced
//! run prints, and the per-layer metrics the traced run prints, each with
//! the end-to-end metric and workload it should move. `BENCHMARK.json`
//! must list exactly these; the self-tests hold the two in step.

/// The three workloads, by the names later changes cite.
pub const WORKLOADS: [&str; 3] = ["compile", "simulate", "explore"];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// Reported by every untraced run, on every workload.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd { name: "setup_s", unit: "s", better: "lower", bound: 0.25 },
    EndToEnd { name: "pass_s", unit: "s", better: "lower", bound: 0.25 },
    EndToEnd { name: "pass_s_tail", unit: "s", better: "lower", bound: 0.25 },
    EndToEnd { name: "item_geomean_ms", unit: "ms", better: "lower", bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.10 },
    EndToEnd { name: "hybrid_speedup_geomean", unit: "x", better: "higher", bound: 0.02 },
    EndToEnd { name: "twill_luts", unit: "LUT", better: "lower", bound: 0.02 },
    EndToEnd { name: "tuned_speedup_geomean", unit: "x", better: "higher", bound: 0.02 },
];

/// The pseudo end-to-end target of metrics that bear on correctness, not
/// speed: the result line's `correct`/`failed` fields.
pub const CORRECTNESS: &str = "correct";

pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
    /// The layer (crate) the metric measures.
    pub layer: &'static str,
    /// `(end-to-end metric, workload)` pairs the metric should move.
    pub moves: Vec<(&'static str, &'static str)>,
}

/// The passes `run_standard_pipeline` runs, as per-layer metric names.
pub const PASSES: [&str; 12] = [
    "mem2reg",
    "mergereturn",
    "lowerswitch",
    "inline",
    "dce",
    "simplifycfg",
    "ifconvert",
    "constfold",
    "gvn",
    "loop_simplify",
    "globals2args",
    "deadargelim",
];

/// Reported by every traced run, on every workload; a layer that does not
/// run on a workload reports 0 there.
pub fn per_layer() -> Vec<PerLayer> {
    const LO: &str = "lower";
    const HI: &str = "higher";
    let mut v = Vec::new();
    let mut add = |name: String,
                   unit: &'static str,
                   better: &'static str,
                   layer: &'static str,
                   moves: &[(&'static str, &'static str)]| {
        v.push(PerLayer { name, unit, better, layer, moves: moves.to_vec() });
    };
    let compile = [("pass_s", "compile")];
    let compile_geo = [("item_geomean_ms", "compile")];
    let both = [("pass_s", "compile"), ("pass_s", "explore")];
    let explore = [("pass_s", "explore")];
    let simulate = [("pass_s", "simulate")];
    let setup = [("setup_s", "compile"), ("setup_s", "simulate"), ("setup_s", "explore")];

    add("frontend.ms".into(), "ms", LO, "twill-frontend", &compile_geo);
    add("frontend.insts".into(), "count", LO, "twill-frontend", &compile_geo);
    for p in PASSES {
        add(format!("passes.{p}.ms"), "ms", LO, "twill-passes", &compile);
        add(format!("passes.{p}.applied"), "count", LO, "twill-passes", &compile);
    }
    add("passes.insts_after".into(), "count", LO, "twill-passes", &compile);

    for m in ["pdg.build_ms", "pdg.scc_ms", "pdg.weights_ms"] {
        add(m.into(), "ms", LO, "twill-pdg", &both);
    }
    for m in ["pdg.nodes", "pdg.edges", "pdg.sccs"] {
        add(m.into(), "count", LO, "twill-pdg", &both);
    }

    add("dswp.ms".into(), "ms", LO, "twill-dswp", &both);
    for m in ["dswp.runs", "dswp.queues", "dswp.semaphores", "dswp.hw_threads"] {
        add(m.into(), "count", LO, "twill-dswp", &both);
    }

    add("hls.pure.ms".into(), "ms", LO, "twill-hls", &compile);
    add("hls.hybrid.ms".into(), "ms", LO, "twill-hls", &both);
    add("hls.states".into(), "count", LO, "twill-hls", &compile);
    add("hls.area_ms".into(), "ms", LO, "twill-hls", &compile);
    add("verilog.ms".into(), "ms", LO, "twill-hls", &compile);
    add("verilog.bytes".into(), "bytes", LO, "twill-hls", &compile);

    add("core.hash_ms".into(), "ms", LO, "twill", &both);
    add("core.stage_runs".into(), "count", LO, "twill", &both);
    add("core.stage_hits".into(), "count", HI, "twill", &both);
    add("core.cache_hit_ratio".into(), "ratio", HI, "twill", &both);
    for b in chstone::all() {
        add(format!("compile.{}.ms", b.name), "ms", LO, "twill", &both);
    }

    add("ir.interp_ms".into(), "ms", LO, "twill-ir", &setup);
    add("ir.interp_msteps_per_s".into(), "Msteps/s", HI, "twill-ir", &setup);

    for mode in ["sw", "hw", "hybrid"] {
        add(format!("rt.{mode}.host_ms"), "ms", LO, "twill-rt", &simulate);
        add(format!("rt.{mode}.mcps"), "Mcycles/s", HI, "twill-rt", &simulate);
    }
    for b in chstone::all() {
        add(format!("rt.{}.host_ms", b.name), "ms", LO, "twill-rt", &simulate);
    }
    add("rt.sim_cycles".into(), "count", LO, "twill-rt", &simulate);
    add("sim_mcps".into(), "Mcycles/s", HI, "twill-rt", &simulate);
    add("sim_mcps_geomean".into(), "Mcycles/s", HI, "twill-rt", &simulate);
    add("rt.stall.host_ms".into(), "ms", LO, "twill-rt", &explore);
    add("rt.stall.mcps".into(), "Mcycles/s", HI, "twill-rt", &explore);
    add("rt.ff_naive_ratio".into(), "ratio", LO, "twill-rt", &explore);

    for m in ["obs.metrics_ms", "obs.profile_ms", "obs.perfetto_ms", "obs.timeline_ms"] {
        add(m.into(), "ms", LO, "twill-obs", &explore);
    }
    add("obs.overhead_ratio".into(), "ratio", LO, "twill-obs", &explore);
    add("obs.dropped_events".into(), "count", LO, "twill-obs", &explore);

    add("tune.ms".into(), "ms", LO, "twill::tune", &explore);
    add("tune.trials".into(), "count", LO, "twill::tune", &explore);
    add("tune.trials_per_s".into(), "1/s", HI, "twill::tune", &explore);
    add("tune.accept_ratio".into(), "ratio", HI, "twill::tune", &explore);

    add(
        "trace.overhead_ratio".into(),
        "ratio",
        LO,
        "perfbench",
        &[("pass_s", "compile"), ("pass_s", "simulate"), ("pass_s", "explore")],
    );
    add(
        "failed_ratio".into(),
        "ratio",
        LO,
        "perfbench",
        &[(CORRECTNESS, "compile"), (CORRECTNESS, "simulate"), (CORRECTNESS, "explore")],
    );
    v
}
