//! `explore`: the design-space loop at scale 1. Set-up prepares each
//! program's IR; each pass then, per program, seeds a fresh
//! `BuildGraph::from_prepared`, runs the seeded auto-tuner, replays the
//! tuned configuration, sweeps queue latency/depth into the stall-heavy
//! corner, and does one fully observed hybrid run exported to Perfetto, a
//! timeline and phases. The frontend and passes never run in a pass.

use std::sync::Arc;
use std::time::Instant;

use twill::artifacts::BuildGraph;
use twill::{Compiler, TuneOptions};
use twill_ir::Module;
use twill_rt::SimConfig;

use crate::inputs::Oracle;
use crate::simulate::cycles;
use crate::trace::Tracer;
use crate::workload::{replay_pdg, Checks, Item, Workload};

/// Queue (latency, depth) points of the sweep. The last is the
/// stall-heavy corner of the `stall_heavy` criterion bench.
const SWEEP: [(u32, u32); 3] = [(128, 8), (512, 8), (512, 2)];
const STALL_CORNER: (u32, u32) = (512, 2);
/// Event ring of the observed run (the `twillc --trace` default).
const RING: usize = 1 << 20;
/// Timeline sampling interval of the observed run, in cycles.
const SAMPLE_INTERVAL: u64 = 4096;
/// Worker threads the tuner evaluates trials on.
const TUNE_THREADS: usize = 2;

pub struct Explore {
    oracle: Oracle,
    prepared: Vec<Module>,
    seed: u64,
    /// Per program: the graph of the latest pass and its stall-corner
    /// cycles.
    last: Vec<Option<(Arc<BuildGraph>, u64)>>,
}

impl Explore {
    pub fn setup(seed: u64) -> Result<Explore, String> {
        let oracle = Oracle::build(seed, |_| 1)?;
        let prepared = oracle
            .cases
            .iter()
            .map(|case| {
                let b = &case.bench;
                let c = Compiler::new();
                let graph = BuildGraph::from_source(b.name, b.source, false, c.pipeline);
                graph.ensure_frontend().map_err(|e| format!("{}: {e}", b.name))?;
                Ok(graph.prepared().clone())
            })
            .collect::<Result<_, String>>()?;
        let n = oracle.cases.len();
        Ok(Explore { oracle, prepared, seed, last: vec![None; n] })
    }
}

impl Workload for Explore {
    fn pass(&mut self, iter: usize, tr: &Tracer, checks: &mut Checks, items: &mut Vec<Item>) {
        for (i, case) in self.oracle.cases.iter().enumerate() {
            let b = &case.bench;
            let id = format!("explore/{}/{iter}", b.name);
            let what = |step: &str| format!("{} {step} (pass {iter})", b.name);
            let t = Instant::now();
            tr.span("program", &id, || {
                let graph = Arc::new(BuildGraph::from_prepared(b.name, self.prepared[i].clone()));
                let build = Compiler::new().partitions(b.partitions).build_on(&graph);
                tr.span("core.hash", &id, || graph.prepared_hash());
                let cfg = SimConfig { fast_forward: true, ..build.sim_config() };
                let opts = TuneOptions {
                    seed: self.seed,
                    threads: TUNE_THREADS,
                    bench: b.name.to_string(),
                    ..Default::default()
                };
                let tuned = tr.span("tune", &id, || twill::tune(&build, &case.input, &cfg, &opts));
                match tuned {
                    Ok(o) => {
                        let r = &o.report;
                        // Trial 0 is the baseline run, accepted by definition.
                        let moves = &r.trials[1..];
                        tr.count("tune.trials", r.trials.len() as f64);
                        tr.count("tune.moves", moves.len() as f64);
                        tr.count(
                            "tune.accepted",
                            moves.iter().filter(|t| t.accepted).count() as f64,
                        );
                        // Replay the winner from scratch: declared depths and
                        // split as the tuner accepted them.
                        let tb = o.compiler.build_on(&graph);
                        let (tdswp, tsched) = (tb.dswp(), tb.hybrid_schedule());
                        let input = case.input.clone();
                        let rep = tr.span_work(
                            "rt.tuned",
                            &id,
                            || twill_rt::simulate_hybrid_scheduled(tdswp, tsched, input, &o.cfg),
                            cycles,
                        );
                        checks.check(r.tuned_cycles <= r.baseline_cycles, || {
                            format!(
                                "{}: tuned {} > default {}",
                                what("tune"),
                                r.tuned_cycles,
                                r.baseline_cycles
                            )
                        });
                        let replayed = rep.as_ref().map(|rep| rep.cycles).unwrap_or(0);
                        checks.check(replayed == r.tuned_cycles, || {
                            format!(
                                "{}: replay gave {replayed} cycles, tuner reported {}",
                                what("tune"),
                                r.tuned_cycles
                            )
                        });
                        checks.output(
                            &what("tuned replay"),
                            &rep.map(|r| r.output),
                            &case.expected,
                        );
                    }
                    Err(e) => checks.check(false, || format!("{}: {e}", what("tune"))),
                }

                let (dswp, sched) = (build.dswp(), build.hybrid_schedule());
                tr.count("dswp.queues", dswp.stats.queues as f64);
                tr.count("dswp.semaphores", dswp.stats.semaphores as f64);
                tr.count("dswp.hw_threads", dswp.stats.hw_threads as f64);
                let mut stall_cycles = 0;
                for (lat, depth) in SWEEP {
                    let span = if (lat, depth) == STALL_CORNER { "rt.stall" } else { "rt.sweep" };
                    let c =
                        SimConfig { queue_latency: lat, queue_depth: Some(depth), ..cfg.clone() };
                    let rep = tr.span_work(
                        span,
                        &id,
                        || twill_rt::simulate_hybrid_scheduled(dswp, sched, case.input.clone(), &c),
                        cycles,
                    );
                    if span == "rt.stall" {
                        stall_cycles = cycles(&rep);
                    }
                    let step = format!("sweep latency {lat} depth {depth}");
                    checks.output(&what(&step), &rep.map(|r| r.output), &case.expected);
                }

                let observed = SimConfig {
                    profile: true,
                    trace_events: RING,
                    sample_interval: Some(SAMPLE_INTERVAL),
                    ..cfg.clone()
                };
                let rep = tr.span_work(
                    "rt.observed",
                    &id,
                    || {
                        twill_rt::simulate_hybrid_scheduled(
                            dswp,
                            sched,
                            case.input.clone(),
                            &observed,
                        )
                    },
                    cycles,
                );
                match rep {
                    Ok(rep) => {
                        let metrics = tr.span("obs.metrics", &id, || rep.metrics());
                        let profile =
                            tr.span("obs.profile", &id, || rep.source_profile(&dswp.module));
                        let trace = tr.span("obs.perfetto", &id, || {
                            rep.trace_builder().spans(graph.spans()).build()
                        });
                        let timeline = tr.span("obs.timeline", &id, || {
                            rep.timeline.as_ref().map(|t| {
                                let mut phases = twill_obs::segment(t);
                                if let Some(p) = &profile {
                                    phases.annotate(p);
                                }
                                (t.total_cycles(), t.to_json(), phases.to_json())
                            })
                        });
                        tr.count("obs.dropped_events", rep.dropped_events as f64);
                        let consistent = metrics.cycles == rep.cycles
                            && profile.is_some()
                            && !trace.is_empty()
                            && timeline.as_ref().is_some_and(|(c, ..)| *c == rep.cycles);
                        checks.check(consistent, || {
                            format!(
                                "{}: metrics/profile/timeline disagree with the run",
                                what("observed run")
                            )
                        });
                        checks.check(rep.output == case.expected, || {
                            format!(
                                "{}: output differs from the reference interpreter",
                                what("observed run")
                            )
                        });
                    }
                    Err(e) => checks.check(false, || format!("{}: {e}", what("observed run"))),
                }
                tr.adopt(&id, &graph.spans(), |stage| match stage {
                    "dswp" => Some("dswp"),
                    // Every schedule here is of a partitioned module.
                    "hls" => Some("hls.hybrid"),
                    "verilog" => Some("verilog"),
                    _ => None,
                });
                let c = graph.counters();
                tr.count("dswp.runs", c.dswp as f64);
                tr.count("core.stage_runs", c.runs() as f64);
                tr.count("core.stage_hits", c.hits() as f64);
                self.last[i] = Some((graph, stall_cycles));
            });
            items.push(Item { name: b.name.to_string(), secs: t.elapsed().as_secs_f64() });
        }
    }

    /// Per program: the PDG analyses DSWP runs; a plain hybrid run under
    /// the observed run's configuration minus observability (the base of
    /// `obs.overhead_ratio`); and the stall-heavy corner in the naive
    /// tick-every-cycle loop, which must give the fast-forward cycles.
    fn probe(&mut self, iter: usize, tr: &Tracer, checks: &mut Checks) {
        for (i, case) in self.oracle.cases.iter().enumerate() {
            let (b, Some((graph, stall_cycles))) = (&case.bench, &self.last[i]) else { continue };
            let id = format!("explore/{}/{iter}", b.name);
            let compiler = Compiler::new().partitions(b.partitions);
            let build = compiler.build_on(graph);
            let (dswp, sched) = (build.dswp(), build.hybrid_schedule());
            let cfg = SimConfig { fast_forward: true, ..build.sim_config() };
            let (lat, depth) = STALL_CORNER;
            let naive = SimConfig {
                queue_latency: lat,
                queue_depth: Some(depth),
                fast_forward: false,
                ..cfg.clone()
            };
            tr.span("probe", &id, || {
                replay_pdg(&self.prepared[i], &compiler.dswp, tr, &id);
                let sim = |span, c: &SimConfig| {
                    let run =
                        || twill_rt::simulate_hybrid_scheduled(dswp, sched, case.input.clone(), c);
                    tr.span_work(span, &id, run, cycles)
                };
                let plain = sim("rt.plain", &cfg);
                checks.output(
                    &format!("{} plain run", b.name),
                    &plain.map(|r| r.output),
                    &case.expected,
                );
                let naive = sim("rt.naive", &naive).map(|r| r.cycles);
                checks.check(naive.as_ref().is_ok_and(|c| c == stall_cycles), || {
                    format!(
                        "{}: naive loop gave {naive:?} cycles, fast-forward {stall_cycles}",
                        b.name
                    )
                });
            });
        }
    }

    fn interp(&self) -> (u64, u64) {
        (self.oracle.interp_ns, self.oracle.interp_steps)
    }
}
