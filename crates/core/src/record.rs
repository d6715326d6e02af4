//! The observed run: one option set, one simulation config and one
//! artifact layout for every driver that observes a hybrid run
//! (`twillc`, `twill-bench profile`).
//!
//! [`RunOptions::accept`] parses the shared observation flags — `--trace`,
//! `--obs-ring-capacity N` (default [`DEFAULT_RING_CAPACITY`] events),
//! `--sample-interval N`, `--hw-counters`, `--out DIR` — and
//! [`RunOptions::sim_config`] turns them into the run's [`SimConfig`].
//! With `--out DIR`, [`write`] writes the *run record*: fixed file names
//! under `DIR`, each present exactly when its condition holds.
//!
//! | File | Written when | Contents |
//! |---|---|---|
//! | `design.v` | always | hardware-thread Verilog (with `twill_perf` under `--hw-counters`) |
//! | `partitioned.ir` | always | the DSWP-partitioned IR; parses back |
//! | `regmap.json` | `--hw-counters` | the `twill_perf` counter register map |
//! | `metrics.json` | the hybrid ran | stall-class / queue metrics ([`SimMetrics`]) |
//! | `metrics.prom` | the hybrid ran | the same metrics in Prometheus text format |
//! | `profile.json` | the hybrid ran | line-granular profile ([`SourceProfile`]) |
//! | `annotated.c` | the hybrid ran | the C source with a per-line cycles/stall gutter, then the top stall sites |
//! | `folded.txt` | the hybrid ran | folded stacks for flamegraph tooling |
//! | `counters.json` | `--hw-counters` and the hybrid ran | word-for-word counter dump |
//! | `trace.json` | `--trace` | Chrome/Perfetto `trace_event` JSON (compiler stages + cycle timeline) |
//! | `timeline.json` | the run was sampled (`--sample-interval N`) | interval-sampled counter timeline ([`Timeline`]) |
//! | `phases.json` | the run was sampled (`--sample-interval N`) | phase segmentation, each phase named by its hottest C line |
//! | `tuning.json` | `--tune` | the tuning report |
//! | `search_trace.json` | `--tune` | the tuner's search as a Perfetto trace |
//!
//! Line attribution is armed whenever a record is written; it and the
//! counter bank are observation-only, so every file of a record equals
//! what a run with only its own observation armed produces. `--out` never
//! starts a simulation by itself: the driver decides whether the hybrid
//! runs, and the record holds what that run produced. [`Recorded::load`]
//! reads a record (or a `BENCH_baseline.json` entry) back as the base of
//! a comparison.

use std::io;
use std::path::{Path, PathBuf};

use twill_obs::json::{self, Json};
use twill_obs::{Baseline, PhaseReport, SimMetrics, SourceProfile, Timeline, TuningReport};
use twill_rt::{SimConfig, SimReport};

use crate::TwillBuild;

/// Event-ring capacity when `--obs-ring-capacity` is not given. The
/// largest default-scale CHStone trace (motion) records about 0.96M
/// events, so 2^22 holds every one of them.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 22;

/// Usage text of the shared flags, for the drivers' usage lines.
pub const USAGE: &str =
    "[--trace] [--obs-ring-capacity N] [--sample-interval N] [--hw-counters] [--out DIR]";

/// The observation knobs shared by every driver of an observed run.
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// Arm the event ring and write `trace.json` (needs [`RunOptions::out`]).
    pub trace: bool,
    /// Event-ring bound when tracing.
    pub ring_capacity: usize,
    /// Snapshot every counter each N cycles (timeline + phases).
    pub sample_interval: Option<u64>,
    /// Instrument the Verilog with `twill_perf` and record its readback.
    pub hw_counters: bool,
    /// Directory of the run record.
    pub out: Option<PathBuf>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            trace: false,
            ring_capacity: DEFAULT_RING_CAPACITY,
            sample_interval: None,
            hw_counters: false,
            out: None,
        }
    }
}

impl RunOptions {
    /// Consume `flag` if it is a shared observation flag, taking its value
    /// from `rest`. `Ok(false)` leaves the flag to the caller; `Err` names
    /// a missing or malformed value.
    pub fn accept(
        &mut self,
        flag: &str,
        rest: &mut impl Iterator<Item = String>,
    ) -> Result<bool, String> {
        fn value<T: std::str::FromStr>(
            flag: &str,
            rest: &mut impl Iterator<Item = String>,
        ) -> Result<T, String> {
            let v = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
            v.parse().map_err(|_| format!("{flag}: bad value {v:?}"))
        }
        match flag {
            "--trace" => self.trace = true,
            "--hw-counters" => self.hw_counters = true,
            "--obs-ring-capacity" => self.ring_capacity = value(flag, rest)?,
            "--sample-interval" => self.sample_interval = Some(value(flag, rest)?),
            "--out" => self.out = Some(value::<PathBuf>(flag, rest)?),
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Cross-flag checks, once the command line is consumed: a trace is
    /// only ever written into a run record.
    pub fn check(&self) -> Result<(), String> {
        if self.trace && self.out.is_none() {
            return Err("--trace writes DIR/trace.json and needs --out DIR".into());
        }
        Ok(())
    }

    /// The simulation config of `build`'s observed hybrid run: the event
    /// ring under `--trace`, line attribution whenever a record is
    /// written, sampling under `--sample-interval`.
    pub fn sim_config(&self, build: &TwillBuild) -> SimConfig {
        SimConfig {
            trace_events: if self.trace { self.ring_capacity } else { 0 },
            profile: self.out.is_some(),
            sample_interval: self.sample_interval,
            ..build.sim_config()
        }
    }
}

/// The phase report of a sampled run; each phase is named by its hottest
/// C line when line attribution was armed.
pub fn phases(build: &TwillBuild, run: &SimReport) -> Option<PhaseReport> {
    let mut pr = twill_obs::segment(run.timeline.as_ref()?);
    if let Some(sp) = run.source_profile(&build.dswp().module) {
        pr.annotate(&sp);
    }
    Some(pr)
}

/// Write the run record of `build` into `dir` (created if missing): the
/// files of the module-level table whose condition holds. `source` is the
/// C program, `run` the observed hybrid run if one ran, `tuning` the
/// tuner's report under `--tune`. Returns the names written, in order.
pub fn write(
    dir: &Path,
    opts: &RunOptions,
    build: &TwillBuild,
    source: &str,
    run: Option<&SimReport>,
    tuning: Option<&TuningReport>,
) -> io::Result<Vec<&'static str>> {
    std::fs::create_dir_all(dir)?;
    let mut written = Vec::new();
    let mut put = |name: &'static str, body: &str| {
        std::fs::write(dir.join(name), body)?;
        written.push(name);
        io::Result::Ok(())
    };
    // The run's files come first: `trace.json` carries the compiler
    // stages run so far, and the run itself never needs the Verilog or
    // the register map.
    if let Some(rep) = run {
        let metrics = rep.metrics();
        put("metrics.json", &metrics.to_json())?;
        put("metrics.prom", &metrics.metrics_text())?;
        if let Some(sp) = rep.source_profile(&build.dswp().module) {
            put("profile.json", &sp.to_json())?;
            put("annotated.c", &format!("{}\n{}", sp.annotate_source(source), sp.report(10)))?;
            put("folded.txt", &sp.folded_stacks())?;
        }
        if opts.hw_counters {
            put("counters.json", &build.counter_bank(rep).dump().to_json())?;
        }
        if opts.trace {
            put("trace.json", &rep.trace_builder().spans(build.graph().spans()).build())?;
        }
        if let (Some(t), Some(pr)) = (&rep.timeline, phases(build, rep)) {
            put("timeline.json", &t.to_json())?;
            put("phases.json", &pr.to_json())?;
        }
    }
    put("design.v", &build.verilog())?;
    put("partitioned.ir", &twill_ir::printer::print_module(&build.dswp().module))?;
    if opts.hw_counters {
        put("regmap.json", &build.regmap_json())?;
    }
    if let Some(r) = tuning {
        put("tuning.json", &r.to_json())?;
        put("search_trace.json", &r.search_trace())?;
    }
    Ok(written)
}

/// The base of a comparison, read back from a run record or a baseline.
pub struct Recorded {
    pub metrics: SimMetrics,
    /// `profile.json`, when the base is a record that has one.
    pub profile: Option<SourceProfile>,
    /// `timeline.json`, when the base is a sampled record.
    pub timeline: Option<Timeline>,
}

impl Recorded {
    /// Load the comparison base at `path`: a run-record directory, or a
    /// `BENCH_baseline.json`-style file whose `<name> hybrid` entry is the
    /// base.
    pub fn load(path: &Path, name: &str) -> Result<Recorded, String> {
        if !path.is_dir() {
            let baseline = Baseline::load(path)?;
            let entry = baseline
                .find(name, "hybrid")
                .ok_or_else(|| format!("no `{name} hybrid` entry in {}", path.display()))?;
            return Ok(Recorded { metrics: entry.metrics.clone(), profile: None, timeline: None });
        }
        fn read<T>(
            dir: &Path,
            file: &str,
            from_json: fn(&Json) -> Result<T, String>,
        ) -> Result<Option<T>, String> {
            let p = dir.join(file);
            match std::fs::read_to_string(&p) {
                Ok(text) => json::parse(&text)
                    .and_then(|doc| from_json(&doc))
                    .map(Some)
                    .map_err(|e| format!("{}: {e}", p.display())),
                Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
                Err(e) => Err(format!("cannot read {}: {e}", p.display())),
            }
        }
        let metrics = read(path, "metrics.json", SimMetrics::from_json)?
            .ok_or_else(|| format!("{} holds no metrics.json", path.display()))?;
        Ok(Recorded {
            metrics,
            profile: read(path, "profile.json", SourceProfile::from_json)?,
            timeline: read(path, "timeline.json", Timeline::from_json)?,
        })
    }
}
