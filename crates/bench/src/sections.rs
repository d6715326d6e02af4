//! The paper's Chapter 6 tables and figures as printable sections, the
//! output of `all_experiments` (and the data source for EXPERIMENTS.md).

use twill::experiments;
use twill::report::format_table;

/// One section: the name that selects it, the title of its header, and
/// the function that prints it.
pub struct Section {
    pub name: &'static str,
    pub title: &'static str,
    pub print: fn(),
}

/// Every section, in output order.
pub const SECTIONS: [Section; 9] = [
    Section { name: "table_6_1", title: "table_6_1", print: table_6_1 },
    Section { name: "table_6_2", title: "table_6_2", print: table_6_2 },
    Section { name: "fig_6_1", title: "fig_6_1", print: fig_6_1 },
    Section { name: "fig_6_2", title: "fig_6_2", print: fig_6_2 },
    Section { name: "fig_6_3", title: "fig_6_3", print: fig_6_3 },
    Section { name: "fig_6_4", title: "fig_6_4", print: fig_6_4 },
    Section { name: "fig_6_5", title: "fig_6_5", print: fig_6_5 },
    Section { name: "fig_6_6", title: "fig_6_6", print: fig_6_6 },
    Section { name: "blowfish_tuned", title: "blowfish tuned (§6.4)", print: blowfish_tuned },
];

/// Table 6.1: queues, semaphores and hardware threads produced by DSWP
/// for each CHStone benchmark.
pub fn table_6_1() {
    let rows = experiments::table_6_1();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                r.queues.to_string(),
                r.semaphores.to_string(),
                r.hw_threads.to_string(),
                format!("{}q/{}t", r.forced_queues, r.forced_hw_threads),
                format!("{}/{}/{}", r.paper_queues, r.paper_semaphores, r.paper_hw_threads),
            ]
        })
        .collect();
    println!("Table 6.1 — DSWP results (paper column: queues/sems/HW threads)\n");
    print!(
        "{}",
        format_table(
            &["benchmark", "queues", "semaphores", "hw_threads", "forced-split", "paper"],
            &table
        )
    );
}

/// Table 6.2: LUTs for the pure LegUp translation vs the Twill hybrid
/// (HW threads only / + runtime / + Microblaze).
pub fn table_6_2() {
    let rows = experiments::table_6_2();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                r.legup_luts.to_string(),
                r.twill_hw_luts.to_string(),
                r.twill_luts.to_string(),
                r.twill_mb_luts.to_string(),
                format!("{}/{}/{}/{}", r.paper.0, r.paper.1, r.paper.2, r.paper.3),
            ]
        })
        .collect();
    println!("Table 6.2 — FPGA LUTs (paper column: LegUp/TwillHW/Twill/Twill+MB)\n");
    print!(
        "{}",
        format_table(
            &["benchmark", "LegUp", "Twill HWThreads", "Twill", "Twill+Microblaze", "paper"],
            &table
        )
    );
    let n = rows.len() as f64;
    let geo = |f: &dyn Fn(&experiments::Table62Row) -> f64| {
        (rows.iter().map(|r| f(r).ln()).sum::<f64>() / n).exp()
    };
    println!(
        "\nHW-thread area ratio (LegUp / Twill HWThreads), geomean: {:.2}x  (paper: 1.73x)",
        geo(&|r| r.legup_luts as f64 / r.twill_hw_luts as f64)
    );
    println!(
        "Total area ratio (Twill / LegUp), geomean: {:.2}x  (paper: 1.35x increase)",
        geo(&|r| r.twill_luts as f64 / r.legup_luts as f64)
    );
}

/// Fig 6.1: power normalized to the pure-SW (Microblaze) implementation.
pub fn fig_6_1() {
    let rows = experiments::fig_6_1(None);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                format!("{:.0} mW", r.power.pure_sw_mw),
                format!("{:.2}", r.normalized.1),
                format!("{:.2}", r.normalized.2),
            ]
        })
        .collect();
    println!("Fig 6.1 — power normalized to pure SW (= 1.00)\n");
    print!("{}", format_table(&["benchmark", "pure SW", "pure HW (norm)", "Twill (norm)"], &table));
    println!("\npaper shape: pure HW lowest, Twill between HW and SW (PLLs dominate)");
}

/// Fig 6.2: performance speedups normalized to the pure-software
/// implementation.
pub fn fig_6_2() {
    let rows = experiments::fig_6_2(None);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                r.sw_cycles.to_string(),
                format!("{:.2}x", r.hw_speedup),
                format!("{:.2}x", r.twill_speedup),
                format!("{:.2}x", r.twill_vs_hw),
            ]
        })
        .collect();
    println!("Fig 6.2 — speedups normalized to pure SW\n");
    print!(
        "{}",
        format_table(&["benchmark", "SW cycles", "pure HW", "Twill", "Twill vs HW"], &table)
    );
    let (hw, twill, ratio) = experiments::fig_6_2_geomeans(&rows);
    println!("\ngeomeans: pure HW {hw:.2}x, Twill {twill:.2}x, Twill/HW {ratio:.2}x");
    println!("paper:    pure HW ~13.6x, Twill 22.2x, Twill/HW 1.63x (averages)");
}

/// Fig 6.3: MIPS performance vs targeted partition split point (and the
/// queue-count anti-correlation of §6.5).
pub fn fig_6_3() {
    split_sweep("mips");
}

/// Fig 6.4: Blowfish performance vs targeted partition split point.
pub fn fig_6_4() {
    split_sweep("blowfish");
}

fn split_sweep(name: &str) {
    let rows = experiments::fig_6_3_4(name, None);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{}%", r.sw_target_percent),
                r.cycles.to_string(),
                r.queues.to_string(),
                format!("{:.2}x", r.speedup_vs_sw),
            ]
        })
        .collect();
    println!("{name} — performance vs targeted SW split point (2 partitions)\n");
    print!("{}", format_table(&["SW target", "cycles", "queues", "speedup vs SW"], &table));
    println!("\npaper shape: even splits worst; queue count anti-correlates with speed");
}

/// Fig 6.5: Twill speedup normalized to the 2-cycle queue-latency
/// baseline, for queue latencies 2..128.
pub fn fig_6_5() {
    let rows = experiments::fig_6_5(None);
    let headers: Vec<String> = std::iter::once("benchmark".to_string())
        .chain(experiments::LATENCY_POINTS.iter().map(|l| format!("lat {l}")))
        .collect();
    let href: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            std::iter::once(r.name.clone())
                .chain(r.normalized.iter().map(|v| format!("{v:.2}")))
                .collect()
        })
        .collect();
    println!("Fig 6.5 — speedup normalized to 2-cycle queue latency\n");
    print!("{}", format_table(&href, &table));
    let avg128: f64 =
        rows.iter().map(|r| *r.normalized.last().unwrap()).sum::<f64>() / rows.len() as f64;
    println!(
        "\nmean slowdown at latency 128: {:.0}%  (paper: 27% on average)",
        (1.0 - avg128) * 100.0
    );
}

/// Fig 6.6: Twill speedup normalized to 8-deep queues, for queue depths
/// 2..32, plus the device-fit check (the paper's 32-deep JPEG did not
/// fit the Virtex-5).
pub fn fig_6_6() {
    let rows = experiments::fig_6_6(None);
    let headers: Vec<String> = std::iter::once("benchmark".to_string())
        .chain(experiments::SIZE_POINTS.iter().map(|d| format!("depth {d}")))
        .collect();
    let href: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            std::iter::once(r.name.clone())
                .chain(r.normalized.iter().zip(&r.fits_device).map(|(v, fits)| {
                    if *fits {
                        format!("{v:.2}")
                    } else {
                        format!("{v:.2}!")
                    }
                }))
                .collect()
        })
        .collect();
    println!("Fig 6.6 — speedup normalized to 8-deep queues ('!' = exceeds device)\n");
    print!("{}", format_table(&href, &table));
    let avg2: f64 = rows.iter().map(|r| r.normalized[0]).sum::<f64>() / rows.len() as f64;
    println!(
        "\nmean slowdown with 2-deep queues: {:.1}%  (paper: 9.7% going 32 -> 8)",
        (1.0 - avg2) * 100.0
    );
}

/// §6.4: Blowfish under the default vs the modified partitioning
/// heuristic (paper: 1.89x vs pure HW, queues 92 -> 34).
pub fn blowfish_tuned() {
    let t = experiments::blowfish_tuned(None);
    println!(
        "default: {} cycles / {} queues; tuned: {} cycles / {} queues ({:.2}x vs pure HW)",
        t.default_cycles, t.default_queues, t.tuned_cycles, t.tuned_queues, t.tuned_vs_hw
    );
}
