//! Runs the paper's Chapter 6 experiments in-process (the data source for
//! EXPERIMENTS.md).
//!
//! ```console
//! all_experiments [SECTION...]
//! ```
//!
//! With no arguments, prints every section in order: `table_6_1`,
//! `table_6_2`, `fig_6_1` .. `fig_6_6`, `blowfish_tuned`. Section names
//! select a subset, printed in that same order.

use twill_bench::sections::SECTIONS;

fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    if let Some(bad) = names.iter().find(|n| SECTIONS.iter().all(|s| s.name != n.as_str())) {
        let all: Vec<&str> = SECTIONS.iter().map(|s| s.name).collect();
        eprintln!("all_experiments: unknown section {bad:?}");
        eprintln!("usage: all_experiments [SECTION...]  (sections: {})", all.join(" "));
        std::process::exit(2);
    }
    for s in SECTIONS.iter().filter(|s| names.is_empty() || names.iter().any(|n| n == s.name)) {
        println!("\n=== {} ===\n", s.title);
        (s.print)();
    }
}
