//! What the three workloads share: the workload interface, the failure
//! ledger, and the layer probes that replay a layer call by call.

use twill_ir::Module;
use twill_passes::PipelineOptions;

use crate::trace::Tracer;

/// Every checked operation and every failure. A failure is printed where
/// it happens and never dropped.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAILED: {}", what());
        }
    }

    /// Check a simulated or interpreted output against the oracle.
    pub fn output<E: std::fmt::Debug>(
        &mut self,
        what: &str,
        got: &Result<Vec<i32>, E>,
        expected: &[i32],
    ) {
        match got {
            Ok(out) => self.check(out == expected, || {
                format!("{what}: output differs from the reference interpreter")
            }),
            Err(e) => self.check(false, || format!("{what}: {e:?}")),
        }
    }
}

/// One timed item of a pass: a program compile, a simulation, or one
/// program's exploration.
pub struct Item {
    pub name: String,
    pub secs: f64,
}

pub trait Workload {
    /// One pass over the suite. Pushes each timed item; the pass time is
    /// their sum, so bookkeeping between items (digests, output checks) is
    /// not charged to the program.
    fn pass(&mut self, iter: usize, tr: &Tracer, checks: &mut Checks, items: &mut Vec<Item>);

    /// Traced runs only, after each traced pass: replays that split a layer
    /// into its parts (not part of the pass time).
    fn probe(&mut self, iter: usize, tr: &Tracer, checks: &mut Checks);

    /// Checks after the last pass.
    fn finish(&mut self, _checks: &mut Checks) {}

    /// Interpreter time and steps of the set-up's oracle.
    fn interp(&self) -> (u64, u64);
}

pub fn insts(m: &Module) -> usize {
    m.funcs.iter().map(|f| f.inst_ids_in_layout().len()).sum()
}

/// Replay `twill_passes::run_standard_pipeline_threads(m, opts, 1)` call by
/// call through the public pass functions, one span per call, counting
/// the calls that changed something.
pub fn replay_pipeline(m: &mut Module, opts: &PipelineOptions, tr: &Tracer, id: &str) {
    use twill_passes::*;
    let each = |m: &mut Module, name: &'static str, pass: fn(&mut twill_ir::Function) -> bool| {
        for f in &mut m.funcs {
            step(tr, id, name, || pass(f));
        }
    };
    each(m, "passes.mem2reg", mem2reg::mem2reg);
    each(m, "passes.mergereturn", mergereturn::mergereturn);
    each(m, "passes.lowerswitch", lowerswitch::lowerswitch);
    step(tr, id, "passes.inline", || inline::inline_module(m, opts.inline) > 0);
    step(tr, id, "passes.dce", || dce::remove_dead_functions(m));
    for f in &mut m.funcs {
        step(tr, id, "passes.simplifycfg", || simplifycfg::simplifycfg(f));
        step(tr, id, "passes.ifconvert", || ifconvert::ifconvert(f));
        step(tr, id, "passes.simplifycfg", || simplifycfg::simplifycfg(f));
        step(tr, id, "passes.constfold", || constfold::constfold(f));
        step(tr, id, "passes.gvn", || gvn::gvn(f));
    }
    step(tr, id, "passes.dce", || dce::dce_module(m));
    each(m, "passes.loop_simplify", loops::loop_simplify);
    step(tr, id, "passes.globals2args", || globals2args::globals_to_args(m) > 0);
    step(tr, id, "passes.deadargelim", || globals2args::dead_arg_elim(m) > 0);
    for f in &mut m.funcs {
        step(tr, id, "passes.constfold", || constfold::constfold(f));
        step(tr, id, "passes.simplifycfg", || simplifycfg::simplifycfg(f));
    }
    step(tr, id, "passes.dce", || dce::dce_module(m));
    for f in &mut m.funcs {
        step(tr, id, "passes.mergereturn", || mergereturn::mergereturn(f));
        step(tr, id, "passes.loop_simplify", || loops::loop_simplify(f));
    }
}

/// One pass call in its span; counts `<span>.applied` when it changed
/// something.
fn step(tr: &Tracer, id: &str, span: &'static str, f: impl FnOnce() -> bool) {
    let changed = tr.span(span, id, f);
    tr.count(&format!("{span}.applied"), changed as u8 as f64);
}

/// Build the PDG, its SCC DAG and node weights for every function of `m`,
/// as DSWP does, one span per analysis.
pub fn replay_pdg(m: &Module, dswp: &twill_dswp::DswpOptions, tr: &Tracer, id: &str) {
    use twill_pdg::{NodeWeights, Pdg, PdgOptions, SccDag};
    let fx = twill_passes::callgraph::function_effects(m);
    let opts = PdgOptions { phi_const_pairs: dswp.phi_const_pairs };
    for f in &m.funcs {
        let pdg = tr.span("pdg.build", id, || Pdg::build(m, f, &fx, &opts));
        let dag = tr.span("pdg.scc", id, || SccDag::new(&pdg));
        tr.span("pdg.weights", id, || NodeWeights::compute_with(f, &pdg, dswp.freq_weights));
        tr.count("pdg.nodes", pdg.len() as f64);
        tr.count("pdg.edges", pdg.all_edges().len() as f64);
        tr.count("pdg.sccs", dag.len() as f64);
    }
}

/// FNV-1a over byte strings: the compile workload's determinism digest.
pub fn fnv(parts: &[&[u8]]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for p in parts {
        for &b in *p {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        h = (h ^ 0xff).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}
