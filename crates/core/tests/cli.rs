//! End-to-end tests of the `twillc` command-line driver: flag parsing,
//! artifact emission, and the three-way simulation cross-check, all via
//! the real binary.

use std::process::Command;

fn twillc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_twillc"))
}

fn write_temp(name: &str, contents: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("twillc-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let p = dir.join(name);
    std::fs::write(&p, contents).unwrap();
    p
}

const SRC: &str = r#"
int main() {
  int acc = 0;
  for (int i = 0; i < 40; i++) {
    acc += (i * 3) ^ (acc >> 2);
  }
  out(acc);
  return 0;
}
"#;

#[test]
fn compiles_and_reports_stats() {
    let p = write_temp("basic.c", SRC);
    let out = twillc().arg(&p).arg("--stats").output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}\n{}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("compiled basic:"), "{stdout}");
    assert!(stdout.contains("area: LegUp"), "{stdout}");
    assert!(stdout.contains("instructions per partition"), "{stdout}");
}

#[test]
fn run_cross_checks_three_configurations() {
    let p = write_temp("run.c", SRC);
    let out = twillc().arg(&p).arg("--run").arg("--partitions").arg("2").output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}\n{}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("output: ["), "{stdout}");
    assert!(stdout.contains("cycles: pure SW"), "{stdout}");
}

#[test]
fn run_with_input_feeds_the_stream() {
    let p = write_temp(
        "echoish.c",
        "int main() { int a = in(); int b = in(); out(a * 10 + b); return 0; }",
    );
    let out = twillc().arg(&p).arg("--run").arg("--input").arg("7,3").output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}\n{}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("output: [73]"), "{stdout}");
}

#[test]
fn emits_verilog_and_ir_artifacts() {
    let p = write_temp("emit.c", SRC);
    let dir = p.with_file_name("emit-record");
    let out = twillc().arg(&p).arg("--out").arg(&dir).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let vtext = std::fs::read_to_string(dir.join("design.v")).unwrap();
    assert!(vtext.contains("module"), "{vtext}");
    let irtext = std::fs::read_to_string(dir.join("partitioned.ir")).unwrap();
    assert!(irtext.contains("func @"), "{irtext}");
    // The emitted IR round-trips through the parser.
    twill_ir::parser::parse_module(&irtext).unwrap();
}

/// The `Twill N` cycle count `--run` prints.
fn twill_cycles(stdout: &str) -> u64 {
    let rest = stdout.split("| Twill ").nth(1).unwrap_or_else(|| panic!("{stdout}"));
    rest.split_whitespace().next().unwrap().parse().unwrap()
}

#[test]
fn run_record_holds_the_observed_run_and_compares_against_itself() {
    let p = write_temp("record.c", SRC);
    let dir = p.with_file_name("run-record");
    let _ = std::fs::remove_dir_all(&dir);
    let out = twillc()
        .arg(&p)
        .args(["--partitions", "2", "--run", "--profile", "--sample-interval", "4096", "--out"])
        .arg(&dir)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}\n{}", String::from_utf8_lossy(&out.stderr));
    let mut files: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    files.sort();
    assert_eq!(
        files,
        [
            "annotated.c",
            "design.v",
            "folded.txt",
            "metrics.json",
            "metrics.prom",
            "partitioned.ir",
            "phases.json",
            "profile.json",
            "timeline.json"
        ]
    );
    let read = |f: &str| {
        let text = std::fs::read_to_string(dir.join(f)).unwrap();
        twill_obs::json::parse(&text).unwrap()
    };
    let metrics = twill_obs::SimMetrics::from_json(&read("metrics.json")).unwrap();
    assert_eq!(metrics.cycles, twill_cycles(&stdout), "{stdout}");
    twill_obs::SourceProfile::from_json(&read("profile.json")).unwrap();
    let timeline = twill_obs::Timeline::from_json(&read("timeline.json")).unwrap();
    assert_eq!(timeline.total_cycles(), metrics.cycles);

    // The record is a comparison base: the same program diffs to zero,
    // and the timeline it carries arms sampling for the phase diff.
    let out = twillc().arg(&p).args(["--partitions", "2", "--compare"]).arg(&dir).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}\n{}", String::from_utf8_lossy(&out.stderr));
    assert!(
        stdout.contains(&format!(
            "compare record hybrid: identical to baseline ({} cycles)",
            metrics.cycles
        )),
        "{stdout}"
    );
    assert!(
        stdout.contains(&format!(
            "compare timeline: identical phase timing ({} cycles)",
            metrics.cycles
        )),
        "{stdout}"
    );
}

#[test]
fn dropped_trace_events_fail_the_run_but_keep_the_trace() {
    let p = write_temp("tiny_ring.c", SRC);
    let dir = p.with_file_name("tiny-ring-record");
    let _ = std::fs::remove_dir_all(&dir);
    let out = twillc()
        .arg(&p)
        .args(["--trace", "--obs-ring-capacity", "1", "--out"])
        .arg(&dir)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{stderr}");
    assert!(stderr.contains("WARN: trace truncated"), "{stderr}");
    let trace = std::fs::read_to_string(dir.join("trace.json")).unwrap();
    twill_obs::json::parse(&trace).unwrap();

    // A trace is only ever written into a record.
    let out = twillc().arg(&p).arg("--trace").output().unwrap();
    assert_eq!(out.status.code(), Some(2), "{}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn bad_source_fails_with_diagnostic() {
    let p = write_temp("bad.c", "int main( { return 0; }");
    let out = twillc().arg(&p).arg("--run").output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("bad.c"), "diagnostic names the file: {stderr}");
}

#[test]
fn missing_file_fails_cleanly() {
    let out = twillc().arg("/nonexistent/nope.c").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

#[test]
fn recursion_needs_explicit_flag() {
    let rec =
        "int f(int n) { return n < 2 ? 1 : n * f(n - 1); }\nint main() { out(f(5)); return 0; }";
    let p = write_temp("rec.c", rec);
    let denied = twillc().arg(&p).output().unwrap();
    assert!(!denied.status.success());
    let allowed = twillc().arg(&p).arg("--allow-recursion").arg("--run").output().unwrap();
    let stdout = String::from_utf8_lossy(&allowed.stdout);
    assert!(allowed.status.success(), "{stdout}\n{}", String::from_utf8_lossy(&allowed.stderr));
    assert!(stdout.contains("output: [120]"), "{stdout}");
}
