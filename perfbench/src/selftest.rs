//! Self-tests of the benchmark. Run them optimized:
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::collections::BTreeSet;

use twill_obs::json::{self, Json};

use crate::metrics::{per_layer, CORRECTNESS, END_TO_END, WORKLOADS};
use crate::trace::Tracer;
use crate::workload::{Checks, Workload};
use crate::{parse_args, run, simulate, Args};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

fn valid_name(n: &str) -> bool {
    !n.is_empty()
        && n.len() <= 64
        && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && n.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
}

fn list<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    doc.get(key).and_then(Json::as_arr).unwrap_or_else(|| panic!("BENCHMARK.json: no {key}"))
}

fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry.get(key).and_then(Json::as_str).unwrap_or_else(|| panic!("entry without {key}"))
}

#[test]
fn metric_names_and_counts() {
    let layer = per_layer();
    assert!(END_TO_END.len() <= 16, "{} end-to-end metrics", END_TO_END.len());
    assert!(layer.len() <= 128, "{} per-layer metrics", layer.len());
    let mut seen = BTreeSet::new();
    for name in END_TO_END.iter().map(|m| m.name).chain(layer.iter().map(|m| m.name.as_str())) {
        assert!(valid_name(name), "bad metric name {name:?}");
        assert!(seen.insert(name), "metric {name} defined twice");
    }
    for m in END_TO_END {
        assert!(m.bound > 0.0 && m.bound <= 0.25, "{}: bound {}", m.name, m.bound);
    }
    let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s");
    assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
}

#[test]
fn every_layer_metric_names_its_end_to_end_metric_and_workload() {
    for m in per_layer() {
        assert!(!m.moves.is_empty(), "{} maps to nothing", m.name);
        for (target, workload) in &m.moves {
            assert!(
                *target == CORRECTNESS || END_TO_END.iter().any(|e| e.name == *target),
                "{} moves unknown metric {target}",
                m.name
            );
            assert!(WORKLOADS.contains(workload), "{} names unknown workload {workload}", m.name);
        }
    }
}

#[test]
fn benchmark_json_lists_exactly_these_workloads_and_metrics() {
    let doc = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let Json::Obj(fields) = &doc else { panic!("BENCHMARK.json is not an object") };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"],
        "top-level keys"
    );
    let workloads: Vec<&str> = list(&doc, "workloads").iter().map(|w| field(w, "name")).collect();
    assert_eq!(workloads, WORKLOADS);

    let e2e = list(&doc, "end_to_end");
    assert_eq!(e2e.len(), END_TO_END.len());
    for (j, m) in e2e.iter().zip(END_TO_END) {
        assert_eq!(field(j, "name"), m.name);
        assert_eq!(field(j, "unit"), m.unit, "{}", m.name);
        assert_eq!(field(j, "better"), m.better, "{}", m.name);
        assert_eq!(j.get("bound").and_then(Json::as_f64), Some(m.bound), "{}", m.name);
    }
    let layer = list(&doc, "per_layer");
    let specs = per_layer();
    assert_eq!(layer.len(), specs.len());
    for (j, m) in layer.iter().zip(&specs) {
        assert_eq!(field(j, "name"), m.name);
        assert_eq!(field(j, "unit"), m.unit, "{}", m.name);
        assert_eq!(field(j, "better"), m.better, "{}", m.name);
    }
}

#[test]
fn every_per_layer_value_has_a_spec() {
    let names: BTreeSet<String> = per_layer().into_iter().map(|m| m.name).collect();
    let values = crate::report::per_layer_values(&[], &Default::default(), 1);
    for k in values.keys() {
        assert!(names.contains(k), "computed metric {k} is not in the table");
    }
}

#[test]
fn arguments_are_checked() {
    let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
    assert!(parse("--workload compile --seed 3 --seconds 1 --trace 1").is_ok());
    assert!(parse("--workload nope --seed 3").is_err());
    assert!(parse("--workload compile --trace 2").is_err());
    assert!(parse("--workload compile --seed").is_err());
}

/// Per-layer metrics that are legitimately 0 on the workloads they map to.
const ZERO_ON_CHSTONE: [&str; 4] =
    ["dswp.semaphores", "passes.deadargelim.applied", "obs.dropped_events", "failed_ratio"];

/// A tiny run of every workload, untraced and traced, fails nothing. The
/// end-to-end metrics are all non-zero, and so is every per-layer metric
/// on the workloads it maps to.
#[test]
fn smoke_runs_fail_nothing() {
    let specs = per_layer();
    for workload in WORKLOADS {
        for trace in [false, true] {
            let args = Args { workload: workload.into(), seed: 0, seconds: 0.0, trace };
            let out = run(&args).unwrap_or_else(|e| panic!("{workload}: {e}"));
            assert!(out.checks.attempted > 0, "{workload}: nothing checked");
            assert_eq!(out.checks.failed, 0, "{workload} (trace {trace}) failed checks");
            for (name, v, _) in &out.metrics {
                assert!(v.is_finite(), "{workload}: {name} = {v}");
                let maps_here = || {
                    let spec = specs.iter().find(|s| s.name == *name).expect("per-layer spec");
                    spec.moves.iter().any(|(_, w)| *w == workload)
                };
                if !trace || (maps_here() && !ZERO_ON_CHSTONE.contains(&name.as_str())) {
                    assert!(*v > 0.0, "{workload} (trace {trace}): {name} is 0");
                }
            }
        }
    }
}

/// The oracle is not vacuous: corrupt one expected output and exactly that
/// program's three simulations fail.
#[test]
fn corrupted_expected_output_is_a_failure() {
    let mut sim = simulate::Simulate::setup(1).expect("set-up");
    sim.oracle.cases[0].expected.push(12345);
    let mut checks = Checks::default();
    sim.pass(0, &Tracer::new(false), &mut checks, &mut Vec::new());
    assert_eq!((checks.attempted, checks.failed), (24, 3));
}
