//! Continuous fleet-health monitoring dashboard: windowed telemetry on a
//! healthy monitored fleet, quiet-SLO verdicts for the default detector
//! suite, and the fault-campaign detection-latency coverage matrix.
//!
//! The default report is golden-pinned (`crates/bench/golden/health.txt`)
//! and diffed by `crates/bench/tests/golden_tables.rs`. Exits nonzero if the healthy
//! fleet fires any quiet-SLO detector, any fault class goes undetected,
//! or a detection's monitoring lag exceeds the hard bound.
//!
//! ```text
//! cargo run --release -p asc-bench --bin health -- \
//!     [--seed N] [--window CYCLES] [--json]
//! ```

use asc_bench::cli::unknown_arg;
use asc_bench::health::{health_to_value, render_health, run_health, HealthConfig};

const USAGE: &str = "[--seed N] [--window CYCLES] [--json]";

fn main() {
    let mut cfg = HealthConfig::default();
    let mut json = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => {
                let value = args.next().expect("--seed needs a value");
                cfg.seed = parse_u64(&value);
            }
            "--window" => {
                let value = args.next().expect("--window needs a value");
                cfg.window_cycles = value.parse().expect("--window needs a cycle count");
            }
            "--json" => json = true,
            other => unknown_arg("health", other, USAGE),
        }
    }

    let run = run_health(&cfg);
    if json {
        asc_bench::print_json(&health_to_value(&run));
    } else {
        print!("{}", render_health(&run));
    }

    let problems = run.problems();
    if !problems.is_empty() {
        eprintln!("\nHEALTH BENCH FAILED:");
        for problem in &problems {
            eprintln!("  {problem}");
        }
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
