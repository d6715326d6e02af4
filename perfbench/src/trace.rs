//! Benchmark-side spans around every call into a Twill crate.
//!
//! Spans live in memory for the whole run and are written out once, when
//! the run ends. A disabled tracer records nothing and costs one branch per
//! call, so untraced passes measure the plain program. Spans use the
//! `twill_obs::now_ns` clock, the one `BuildGraph` stamps its own stage
//! spans with, so stage spans recorded inside the program (on any thread)
//! can be adopted onto the same timeline.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;

/// One completed call.
#[derive(Clone, Debug)]
pub struct SpanRec {
    /// Layer-qualified name, e.g. `passes.simplifycfg` or `rt.hybrid`.
    pub name: &'static str,
    /// `workload/bench/iteration`: the spans of one program in one pass.
    pub id: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Work the call did (simulated cycles), 0 if none.
    pub work: u64,
    /// Recorded by the program itself (a `BuildGraph` stage, possibly on a
    /// worker thread): kept for the timeline, but not subtracted from its
    /// parent's self time, since such spans may overlap one another.
    pub adopted: bool,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The program part of the id.
    pub fn bench(&self) -> &str {
        self.id.split('/').nth(1).unwrap_or("")
    }
}

pub struct Tracer {
    enabled: Cell<bool>,
    spans: RefCell<Vec<SpanRec>>,
    open: RefCell<Vec<usize>>,
    counts: RefCell<BTreeMap<String, f64>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled: Cell::new(enabled),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            counts: RefCell::new(BTreeMap::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled.get()
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.set(on);
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, id: &str, f: impl FnOnce() -> T) -> T {
        self.span_work(name, id, f, |_| 0)
    }

    /// Run `f` inside a span and record `work(&result)` on it.
    pub fn span_work<T>(
        &self,
        name: &'static str,
        id: &str,
        f: impl FnOnce() -> T,
        work: impl FnOnce(&T) -> u64,
    ) -> T {
        if !self.enabled() {
            return f();
        }
        let idx = self.push(SpanRec {
            name,
            id: id.to_string(),
            start_ns: 0,
            end_ns: 0,
            parent: self.open.borrow().last().copied(),
            work: 0,
            adopted: false,
        });
        self.open.borrow_mut().push(idx);
        let start = twill_obs::now_ns();
        let value = f();
        let end = twill_obs::now_ns();
        self.open.borrow_mut().pop();
        let w = work(&value);
        let mut spans = self.spans.borrow_mut();
        spans[idx].start_ns = start;
        spans[idx].end_ns = end;
        spans[idx].work = w;
        value
    }

    fn push(&self, s: SpanRec) -> usize {
        let mut spans = self.spans.borrow_mut();
        spans.push(s);
        spans.len() - 1
    }

    /// Adopt stage spans a `BuildGraph` recorded, under the innermost open
    /// span. `rename` maps a stage name to a span name (`None` skips it).
    pub fn adopt(
        &self,
        id: &str,
        stages: &[twill_obs::Span],
        rename: impl Fn(&str) -> Option<&'static str>,
    ) {
        if !self.enabled() {
            return;
        }
        let parent = self.open.borrow().last().copied();
        for s in stages {
            if let Some(name) = rename(&s.name) {
                self.push(SpanRec {
                    name,
                    id: id.to_string(),
                    start_ns: s.start_ns,
                    end_ns: s.start_ns + s.dur_ns,
                    parent,
                    work: 0,
                    adopted: true,
                });
            }
        }
    }

    /// Add `v` to the named counter (traced passes only).
    pub fn count(&self, name: &str, v: f64) {
        if self.enabled() {
            *self.counts.borrow_mut().entry(name.to_string()).or_default() += v;
        }
    }

    pub fn spans(&self) -> Vec<SpanRec> {
        self.spans.borrow().clone()
    }

    pub fn counts(&self) -> BTreeMap<String, f64> {
        self.counts.borrow().clone()
    }
}

/// Self time of every span: its duration minus the time its direct,
/// benchmark-recorded children cover (those run on the benchmark's one
/// thread, so they never overlap).
pub fn self_times(spans: &[SpanRec]) -> Vec<u64> {
    let mut child = vec![0u64; spans.len()];
    for s in spans.iter().filter(|s| !s.adopted) {
        if let Some(p) = s.parent {
            child[p] += s.dur_ns();
        }
    }
    spans.iter().zip(&child).map(|(s, c)| s.dur_ns().saturating_sub(*c)).collect()
}

/// Per-name totals over a set of spans.
#[derive(Clone, Copy, Debug, Default)]
pub struct NameTotal {
    pub calls: u64,
    pub self_ns: u64,
    pub total_ns: u64,
    pub work: u64,
}

/// Totals per span name, optionally only for one program.
pub fn totals_by_name(spans: &[SpanRec], bench: Option<&str>) -> BTreeMap<&'static str, NameTotal> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
    for (s, st) in spans.iter().zip(selfs) {
        if bench.is_some_and(|b| s.bench() != b) {
            continue;
        }
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.self_ns += st;
        t.total_ns += s.dur_ns();
        t.work += s.work;
    }
    out
}

/// The spans as a Chrome/Perfetto `trace_event` document: one complete
/// (`X`) event per span, with its id, parent index and work in `args`.
pub fn to_trace_json(spans: &[SpanRec]) -> String {
    let mut out = String::from("{\"traceEvents\": [\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "  {{\"name\": {}, \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \
             \"dur\": {:.3}, \"args\": {{\"span\": {i}, \"id\": {}, \"parent\": {parent}, \
             \"work\": {}}}}}",
            twill_obs::json::quote(s.name),
            if s.adopted { 2 } else { 1 },
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            twill_obs::json::quote(&s.id),
            s.work
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_but_not_adopted_spans() {
        let tr = Tracer::new(true);
        tr.span("outer", "w/b/0", || {
            tr.span("inner", "w/b/0", || std::thread::sleep(std::time::Duration::from_millis(5)));
            let stage = twill_obs::Span { name: "dswp".into(), start_ns: 0, dur_ns: 1_000_000 };
            tr.adopt("w/b/0", &[stage], |n| (n == "dswp").then_some("dswp"));
        });
        let spans = tr.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[2].adopted);
        let selfs = self_times(&spans);
        assert_eq!(selfs[0] + spans[1].dur_ns(), spans[0].dur_ns());
        assert!(spans[1].dur_ns() >= 5_000_000);
        assert_eq!(totals_by_name(&spans, Some("b"))["inner"].calls, 1);
        assert!(totals_by_name(&spans, Some("other")).is_empty());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tr = Tracer::new(false);
        assert_eq!(tr.span("x", "w/b/0", || 7), 7);
        tr.count("n", 1.0);
        assert!(tr.spans().is_empty());
        assert!(tr.counts().is_empty());
    }
}
