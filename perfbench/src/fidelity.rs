//! The model's own answers, checked after every untraced run on every
//! workload: exact numbers from the canonical CHStone inputs (seed 0),
//! independent of `--seed` and of host speed.
//!
//! * Scale-1 cycles of all 24 benchmark×mode runs equal `BENCH_baseline.json`.
//! * Tuned and default cycles equal `BENCH_tuning.json`.
//! * `hybrid_speedup_geomean`: pure-SW / hybrid cycles at the default
//!   scales (Fig 6.2), `twill_luts`: summed Twill-total LUTs (Table 6.2),
//!   `tuned_speedup_geomean`: default / tuned cycles at scale 1.
//!
//! Every simulated output is also compared with the reference interpreter.

use twill::{Compiler, TuneOptions};
use twill_rt::SimConfig;

use crate::inputs::Oracle;
use crate::stats::geomean;
use crate::workload::Checks;

const BASELINE: &str = include_str!("../../BENCH_baseline.json");
const TUNING: &str = include_str!("../../BENCH_tuning.json");

pub struct Fidelity {
    pub hybrid_speedup_geomean: f64,
    pub twill_luts: f64,
    pub tuned_speedup_geomean: f64,
}

pub fn run(checks: &mut Checks) -> Result<Fidelity, String> {
    let baseline = twill_obs::baseline::parse(BASELINE)?;
    let tuning = twill_obs::json::parse(TUNING)?;
    let tuning =
        tuning.get("benches").and_then(|b| b.as_arr()).ok_or("BENCH_tuning: no benches")?;
    let scale1 = Oracle::build(0, |_| 1)?;
    let paper = Oracle::build(0, |b| b.default_scale)?;

    let (mut luts, mut fig62, mut tuned) = (0u64, Vec::new(), Vec::new());
    for (c1, cp) in scale1.cases.iter().zip(&paper.cases) {
        let b = &c1.bench;
        let build = Compiler::new()
            .partitions(b.partitions)
            .compile(b.name, b.source)
            .map_err(|e| format!("{}: {e}", b.name))?;
        let cfg = SimConfig { fast_forward: true, ..build.sim_config() };
        luts += build.area().twill_total.luts as u64;

        for mode in ["sw", "hw", "hybrid"] {
            let rep = match mode {
                "sw" => twill_rt::simulate_pure_sw(build.prepared(), c1.input.clone(), &cfg),
                "hw" => twill_rt::simulate_pure_hw_scheduled(
                    build.prepared(),
                    build.pure_schedule(),
                    c1.input.clone(),
                    &cfg,
                ),
                _ => build.simulate_hybrid_with(c1.input.clone(), &cfg),
            };
            let what = format!("golden {} {mode} scale 1", b.name);
            let golden = baseline
                .entries
                .iter()
                .find(|e| e.bench == b.name && e.mode == mode && e.scale == 1)
                .map(|e| e.metrics.cycles);
            let got = rep.as_ref().map(|r| r.cycles).ok();
            checks.check(got.is_some() && got == golden, || {
                format!("{what}: {got:?} cycles, BENCH_baseline.json has {golden:?}")
            });
            checks.output(&what, &rep.map(|r| r.output), &c1.expected);
        }

        let sw = twill_rt::simulate_pure_sw(build.prepared(), cp.input.clone(), &cfg);
        let hybrid = build.simulate_hybrid_with(cp.input.clone(), &cfg);
        if let (Ok(sw), Ok(hybrid)) = (&sw, &hybrid) {
            fig62.push(sw.cycles as f64 / hybrid.cycles as f64);
        }
        let what = format!("fig 6.2 {}", b.name);
        checks.output(&format!("{what} sw"), &sw.map(|r| r.output), &cp.expected);
        checks.output(&format!("{what} hybrid"), &hybrid.map(|r| r.output), &cp.expected);

        let opts =
            TuneOptions { seed: 0, threads: 2, bench: b.name.to_string(), ..Default::default() };
        let golden =
            tuning.iter().find(|e| e.get("bench").and_then(|n| n.as_str()) == Some(b.name));
        let field = |k: &str| golden.and_then(|e| e.get(k)).and_then(|v| v.as_u64());
        match twill::tune(&build, &c1.input, &cfg, &opts) {
            Ok(o) => {
                let (base, best) = (o.report.baseline_cycles, o.report.tuned_cycles);
                checks.check(
                    Some(base) == field("default_cycles") && Some(best) == field("tuned_cycles"),
                    || {
                        format!(
                            "tuning {}: default/tuned {base}/{best}, BENCH_tuning.json has {:?}/{:?}",
                            b.name,
                            field("default_cycles"),
                            field("tuned_cycles")
                        )
                    },
                );
                tuned.push(base as f64 / best as f64);
            }
            Err(e) => checks.check(false, || format!("tuning {}: {e}", b.name)),
        }
    }
    if fig62.len() != paper.cases.len() || tuned.len() != scale1.cases.len() {
        return Err("a fidelity run failed; see the FAILED lines above".into());
    }
    Ok(Fidelity {
        hybrid_speedup_geomean: geomean(&fig62),
        twill_luts: luts as f64,
        tuned_speedup_geomean: geomean(&tuned),
    })
}
