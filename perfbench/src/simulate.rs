//! `simulate`: set-up compiles all eight programs once; each pass then runs
//! pure SW, pure HW and the hybrid for every program at its default scale
//! (24 simulations) under the paper configuration, fast-forward on and
//! observability off. No compile layer runs inside a pass.

use std::sync::Arc;
use std::time::Instant;

use twill::artifacts::{BuildGraph, DswpArtifact};
use twill::Compiler;
use twill_hls::ModuleSchedule;
use twill_rt::{SimConfig, SimError, SimReport};

use crate::inputs::Oracle;
use crate::trace::Tracer;
use crate::workload::{Checks, Item, Workload};

struct Compiled {
    graph: Arc<BuildGraph>,
    dswp: Arc<DswpArtifact>,
    pure: Arc<ModuleSchedule>,
    hybrid: Arc<ModuleSchedule>,
    cfg: SimConfig,
}

pub struct Simulate {
    pub(crate) oracle: Oracle,
    progs: Vec<Compiled>,
}

impl Simulate {
    pub fn setup(seed: u64) -> Result<Simulate, String> {
        let oracle = Oracle::build(seed, |b| b.default_scale)?;
        let progs = oracle
            .cases
            .iter()
            .map(|case| {
                let b = &case.bench;
                let c = Compiler::new().partitions(b.partitions);
                let graph = Arc::new(BuildGraph::from_source(b.name, b.source, false, c.pipeline));
                graph.ensure_frontend().map_err(|e| format!("{}: {e}", b.name))?;
                let dswp = graph.dswp(&c.dswp);
                let pure = graph.pure_schedule(&c.hls);
                let hybrid = graph.schedule_for(&dswp.result.module, dswp.module_hash, &c.hls);
                let cfg = SimConfig { fast_forward: true, ..c.build_on(&graph).sim_config() };
                Ok(Compiled { graph, dswp, pure, hybrid, cfg })
            })
            .collect::<Result<_, String>>()?;
        Ok(Simulate { oracle, progs })
    }
}

impl Workload for Simulate {
    fn pass(&mut self, iter: usize, tr: &Tracer, checks: &mut Checks, items: &mut Vec<Item>) {
        for (case, p) in self.oracle.cases.iter().zip(&self.progs) {
            let name = case.bench.name;
            let id = format!("simulate/{name}/{iter}");
            let prepared = p.graph.prepared();
            for (mode, span) in [("sw", "rt.sw"), ("hw", "rt.hw"), ("hybrid", "rt.hybrid")] {
                let input = case.input.clone();
                let run = || match mode {
                    "sw" => twill_rt::simulate_pure_sw(prepared, input, &p.cfg),
                    "hw" => twill_rt::simulate_pure_hw_scheduled(prepared, &p.pure, input, &p.cfg),
                    _ => twill_rt::simulate_hybrid_scheduled(
                        &p.dswp.result,
                        &p.hybrid,
                        input,
                        &p.cfg,
                    ),
                };
                let t = Instant::now();
                let rep = tr.span_work(span, &id, run, cycles);
                items
                    .push(Item { name: format!("{name}.{mode}"), secs: t.elapsed().as_secs_f64() });
                let out = rep.map(|r| r.output);
                checks.output(&format!("{name} {mode} (pass {iter})"), &out, &case.expected);
            }
        }
    }

    fn probe(&mut self, _iter: usize, _tr: &Tracer, _checks: &mut Checks) {}

    fn interp(&self) -> (u64, u64) {
        (self.oracle.interp_ns, self.oracle.interp_steps)
    }
}

/// Simulated cycles of a run, for its span.
pub fn cycles(r: &Result<SimReport, SimError>) -> u64 {
    r.as_ref().map_or(0, |r| r.cycles)
}
