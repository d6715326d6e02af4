//! `compile`: each pass cold-compiles all eight CHStone programs from
//! source, each on a fresh `BuildGraph`, into the hybrid and pure-HW
//! Verilog plus the area report. Nothing is simulated.

use std::sync::Arc;
use std::time::Instant;

use twill::artifacts::BuildGraph;
use twill::Compiler;

use crate::inputs::{interpret, Oracle};
use crate::trace::Tracer;
use crate::workload::{fnv, insts, replay_pdg, replay_pipeline, Checks, Item, Workload};

pub struct Compile {
    oracle: Oracle,
    /// Per program: the Verilog + prepared-IR digest of the first pass.
    digests: Vec<Option<u64>>,
    /// Per program: the graph of the latest pass.
    graphs: Vec<Option<Arc<BuildGraph>>>,
}

impl Compile {
    pub fn setup(seed: u64) -> Result<Compile, String> {
        let oracle = Oracle::build(seed, |b| b.default_scale)?;
        let n = oracle.cases.len();
        Ok(Compile { oracle, digests: vec![None; n], graphs: vec![None; n] })
    }
}

impl Workload for Compile {
    fn pass(&mut self, iter: usize, tr: &Tracer, checks: &mut Checks, items: &mut Vec<Item>) {
        for (i, case) in self.oracle.cases.iter().enumerate() {
            let b = &case.bench;
            let id = format!("compile/{}/{iter}", b.name);
            let compiler = Compiler::new().partitions(b.partitions);
            let t = Instant::now();
            let out = tr.span("program", &id, || {
                let graph = Arc::new(BuildGraph::from_source(
                    b.name,
                    b.source,
                    compiler.allow_recursion,
                    compiler.pipeline,
                ));
                tr.span("frontend", &id, || graph.ensure_frontend()).map_err(|e| e.to_string())?;
                tr.span("passes", &id, || {
                    graph.prepared();
                });
                let ir_hash = tr.span("core.hash", &id, || graph.prepared_hash());
                let art = tr.span("dswp", &id, || graph.dswp(&compiler.dswp));
                let (m, h, hls) = (&art.result.module, art.module_hash, &compiler.hls);
                let pure = tr.span("hls.pure", &id, || graph.pure_schedule(hls));
                let hybrid = tr.span("hls.hybrid", &id, || graph.schedule_for(m, h, hls));
                let v_hybrid = tr.span("verilog", &id, || graph.verilog_for(m, h, hls));
                let v_pure =
                    tr.span("verilog", &id, || graph.verilog_for(graph.prepared(), ir_hash, hls));
                let build = compiler.build_on(&graph);
                let area = tr.span("hls.area", &id, || build.area());
                tr.count("hls.states", (pure.total_states() + hybrid.total_states()) as f64);
                tr.count("verilog.bytes", (v_hybrid.len() + v_pure.len()) as f64);
                tr.count("dswp.queues", art.result.stats.queues as f64);
                tr.count("dswp.semaphores", art.result.stats.semaphores as f64);
                tr.count("dswp.hw_threads", art.result.stats.hw_threads as f64);
                let c = graph.counters();
                tr.count("dswp.runs", c.dswp as f64);
                tr.count("core.stage_runs", c.runs() as f64);
                tr.count("core.stage_hits", c.hits() as f64);
                Ok::<_, String>((graph, ir_hash, v_hybrid, v_pure, area.twill_total.luts))
            });
            items.push(Item { name: b.name.to_string(), secs: t.elapsed().as_secs_f64() });
            let what = format!("compile {} (pass {iter})", b.name);
            match out {
                Ok((graph, ir_hash, v_hybrid, v_pure, luts)) => {
                    let digest = fnv(&[
                        &ir_hash.to_le_bytes(),
                        v_hybrid.as_bytes(),
                        v_pure.as_bytes(),
                        &luts.to_le_bytes(),
                    ]);
                    let first = *self.digests[i].get_or_insert(digest);
                    checks.check(digest == first, || {
                        format!(
                            "{what}: Verilog/IR digest {digest:016x} != first pass {first:016x}"
                        )
                    });
                    self.graphs[i] = Some(graph);
                }
                Err(e) => checks.check(false, || format!("{what}: {e}")),
            }
        }
    }

    fn probe(&mut self, iter: usize, tr: &Tracer, checks: &mut Checks) {
        for (case, graph) in self.oracle.cases.iter().zip(&self.graphs) {
            let (b, Some(graph)) = (&case.bench, graph) else { continue };
            let id = format!("compile/{}/{iter}", b.name);
            let compiler = Compiler::new().partitions(b.partitions);
            tr.span("replay", &id, || {
                let raw = tr.span("replay.frontend", &id, || {
                    twill_frontend::compile_with(b.name, b.source, compiler.allow_recursion)
                });
                let Ok(mut m) = raw else {
                    return checks.check(false, || format!("replay {}: frontend failed", b.name));
                };
                tr.count("frontend.insts", insts(&m) as f64);
                replay_pipeline(&mut m, &compiler.pipeline, tr, &id);
                tr.count("passes.insts_after", insts(&m) as f64);
                let same = twill_ir::printer::print_module(&m)
                    == twill_ir::printer::print_module(graph.prepared());
                checks.check(same, || {
                    format!("replay {}: pass-by-pass IR differs from run_standard_pipeline", b.name)
                });
                replay_pdg(&m, &compiler.dswp, tr, &id);
            });
        }
    }

    /// The prepared IR of the last pass must still compute the reference
    /// output: the passes preserved each program's meaning on this seed.
    fn finish(&mut self, checks: &mut Checks) {
        for (case, graph) in self.oracle.cases.iter().zip(&self.graphs) {
            let Some(graph) = graph else { continue };
            let got = interpret(graph.prepared(), &case.input);
            checks.output(&format!("interpret prepared {}", case.bench.name), &got, &case.expected);
        }
    }

    fn interp(&self) -> (u64, u64) {
        (self.oracle.interp_ns, self.oracle.interp_steps)
    }
}
