//! `faults` — the deterministic fault-injection campaign driver.
//!
//! ```console
//! faults [--benches a,b,c] [--rates 1e-6,1e-5,1e-4] [--seed N]
//!        [--attempts K] [--scale S] [--watchdog CYCLES] [--json FILE]
//! ```
//!
//! Sweeps per-cycle fault rates across the CHStone suite, injecting queue
//! bit flips, dropped/duplicated messages, transient hardware-thread
//! stalls, and memory upsets, and prints the survival/detection/
//! corruption table. Each cell retries the hybrid with fresh derived
//! seeds and degrades to pure software when every attempt fails.
//!
//! Every hybrid attempt arms the default event ring. Exit status is non-zero when
//! any cell's *served* output is corrupt (corruption that slipped past
//! retry and fallback) or when observability data was lost (dropped trace
//! events or a truncated fault log). Fixed seeds make the `--json`
//! artifact byte-identical across runs, and in both simulator loop modes
//! (`TWILL_NO_FAST_FORWARD=1` selects the naive one).

use std::process::ExitCode;
use twill_bench::campaign::{run_campaign, CampaignOptions};

fn usage() -> ! {
    eprintln!(
        "usage: faults [--benches a,b,c] [--rates r1,r2] [--seed N] \
         [--attempts K] [--scale S] [--watchdog CYCLES] [--json FILE]"
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut opts = CampaignOptions::default();
    let mut benches = chstone::all();
    let mut json_out: Option<String> = None;

    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--benches" => {
                let list = it.next().unwrap_or_else(|| usage());
                benches = list
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|n| chstone::by_name(n.trim()).unwrap_or_else(|| usage()))
                    .collect();
            }
            "--rates" => {
                let list = it.next().unwrap_or_else(|| usage());
                opts.rates = list
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|s| s.trim().parse().unwrap_or_else(|_| usage()))
                    .collect();
            }
            "--seed" => {
                opts.seed = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage())
            }
            "--attempts" => {
                opts.attempts = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage())
            }
            "--scale" => {
                opts.scale = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage())
            }
            "--watchdog" => {
                opts.watchdog = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage())
            }
            "--json" => json_out = Some(it.next().unwrap_or_else(|| usage())),
            _ => usage(),
        }
    }
    eprintln!(
        "fault campaign: {} benchmark(s) x {} rate(s), seed {}, up to {} attempt(s)...",
        benches.len(),
        opts.rates.len(),
        opts.seed,
        opts.attempts
    );
    let campaign = run_campaign(&benches, &opts);
    print!("{}", campaign.table());

    if let Some(f) = &json_out {
        if let Err(e) = std::fs::write(f, campaign.to_json()) {
            eprintln!("faults: cannot write {f}: {e}");
            return ExitCode::FAILURE;
        }
        println!("campaign JSON written to {f}");
    }

    if campaign.undetected_corruption() {
        eprintln!("faults: FAIL: a served output is corrupt");
        return ExitCode::FAILURE;
    }
    if campaign.obs_data_lost() {
        eprintln!("faults: FAIL: observability data was lost");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
