//! Byte-identity golden for the whole compile path. For each CHStone
//! program it pins an FNV-1a digest of the printed prepared IR, the hybrid
//! (post-DSWP) Verilog, the pure-HW Verilog, and every function's
//! `states`/`live_values` in both schedules. Any pass, scheduler or emitter
//! change that alters an output byte fails here. Regenerate after an
//! intentional output change with:
//!
//! ```sh
//! TWILL_UPDATE_GOLDEN=1 cargo test -p chstone --test compile_digest
//! ```

use std::fmt::Write;
use twill_hls::schedule::{schedule_module, ModuleSchedule};

fn fnv(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn sched_facts(s: &ModuleSchedule, out: &mut String) {
    for f in &s.funcs {
        writeln!(out, "{} {} {}", f.func.index(), f.states, f.live_values).unwrap();
    }
}

fn digest_line(b: &chstone::Benchmark) -> String {
    let m = chstone::compile_and_prepare(b);
    let ir = twill_ir::printer::print_module(&m);
    let pure = schedule_module(&m, &Default::default());
    let v_pure = twill_hls::verilog::emit_module(&m, &pure);
    let d = twill_dswp::run_dswp(
        &m,
        &twill_dswp::DswpOptions { num_partitions: b.partitions, ..Default::default() },
    );
    let hybrid = schedule_module(&d.module, &Default::default());
    let v_hybrid = twill_hls::verilog::emit_module(&d.module, &hybrid);
    let mut facts = String::from("pure\n");
    sched_facts(&pure, &mut facts);
    facts.push_str("hybrid\n");
    sched_facts(&hybrid, &mut facts);
    format!(
        "{} ir={:016x} hybrid={:016x} pure={:016x} sched={:016x}\n",
        b.name,
        fnv(ir.as_bytes()),
        fnv(v_hybrid.as_bytes()),
        fnv(v_pure.as_bytes()),
        fnv(facts.as_bytes()),
    )
}

#[test]
fn compile_path_matches_golden_digests() {
    let got: String = chstone::all().iter().map(digest_line).collect();
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/compile_digests.txt");
    if std::env::var_os("TWILL_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &got).unwrap();
    }
    let golden = std::fs::read_to_string(&path)
        .expect("golden file missing; run with TWILL_UPDATE_GOLDEN=1 to create it");
    for (g, w) in got.lines().zip(golden.lines()) {
        assert_eq!(g, w, "compile output drifted from tests/golden/compile_digests.txt");
    }
    assert_eq!(got, golden, "compile output drifted from tests/golden/compile_digests.txt");
}
