//! Fault-injection campaign: seeded corruption of every artifact the
//! verifier trusts, with fail-stop classification.
//!
//! Every trial flips one byte (or one trapped register / one cache
//! entry / the in-kernel counter) and demands the run either dies
//! with an administrator alert *before* the corrupted call dispatches
//! or behaves bit-identically to the clean run. Any other outcome is
//! silent corruption and fails the campaign (non-zero exit).
//!
//! A second section runs the cross-process classes: one pid of a
//! scheduled fleet is perturbed (shared-cache poisoning, counter skew)
//! and every peer must stay bit-identical — any cross-pid leak fails
//! the campaign.
//!
//! That the oracle detects a verifier that fails open is shown by the
//! `tiers` table: the flow-only tier checks no string contents, and its
//! corrupted authenticated strings must classify as silent.
//!
//! ```text
//! cargo run --release -p asc-bench --bin faults -- \
//!     [--seed N] [--trials N] [--workloads a,b,c] [--json] [--no-cross]
//! ```

use asc_faults::{run_campaign, run_cross_campaign, CampaignConfig, CrossConfig};

fn main() {
    let mut cfg = CampaignConfig::new(0x0A5C_F417, 8);
    let mut json = false;
    let mut cross = true;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => {
                let value = args.next().expect("--seed needs a value");
                cfg.seed = parse_u64(&value);
            }
            "--trials" => {
                let value = args.next().expect("--trials needs a value");
                cfg.trials = value.parse().expect("--trials needs a number");
            }
            "--workloads" => {
                let value = args.next().expect("--workloads needs a list");
                cfg.workloads = value.split(',').map(str::to_string).collect();
            }
            "--json" => json = true,
            "--no-cross" => cross = false,
            other => asc_bench::cli::unknown_arg(
                "faults",
                other,
                "[--seed N] [--trials N] [--workloads a,b,c] [--json] [--no-cross]",
            ),
        }
    }

    let report = run_campaign(&cfg);
    if json {
        asc_bench::print_json(&report.to_value());
    } else {
        println!("{}", report.render());
        if let Some(alert) = report.rows.iter().find_map(|r| r.sample_alert.as_ref()) {
            println!("sample alert: {alert}");
        }
    }

    let mut problems = report.problems();
    if !problems.is_empty() {
        eprintln!("\nCAMPAIGN FAILED:");
        for problem in &problems {
            eprintln!("  {problem}");
        }
    }

    if cross {
        let cross_cfg = CrossConfig {
            workloads: cfg.workloads.clone(),
            ..CrossConfig::new(cfg.seed ^ 0x0C80_5501, cfg.trials)
        };
        let cross_report = run_cross_campaign(&cross_cfg);
        if json {
            asc_bench::print_json(&cross_report.to_value());
        } else {
            println!("{}", cross_report.render());
            if let Some(alert) = cross_report
                .rows
                .iter()
                .find_map(|r| r.sample_alert.as_ref())
            {
                println!("sample cross-pid alert: {alert}");
            }
        }
        let cross_problems = cross_report.problems();
        if !cross_problems.is_empty() {
            eprintln!("\nCROSS-PROCESS CAMPAIGN FAILED:");
            for problem in &cross_problems {
                eprintln!("  {problem}");
            }
            problems.extend(cross_problems);
        }
    }

    if !problems.is_empty() {
        std::process::exit(1);
    }
}

fn parse_u64(text: &str) -> u64 {
    let text = text.trim();
    if let Some(hex) = text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).expect("--seed hex digits parse as u64")
    } else {
        text.parse().expect("--seed decimal digits parse as u64")
    }
}
