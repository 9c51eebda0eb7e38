//! Multi-process server throughput benchmark: M concurrent processes over
//! the syscall-heavy workloads, time-sliced deterministically, each with
//! its own enforcing kernel and a pid namespace in the shared verify
//! cache. Reports aggregate verified calls per simulated second plus
//! per-pid verify-cycle quantiles.
//!
//! With `--fleet` the harness switches to the fleet-scale scenario:
//! spawn/exit churn, hot/cold workload mix, pid-sharded cache namespaces,
//! the batched trap path, and a per-shard report (see
//! `asc_bench::fleet`). `--procs`/`--seed`/`--slice` apply to both;
//! `--batch` and `--churn` are fleet-only.
//!
//! Both default configurations are fully fixed-seed: their outputs are
//! pinned at `crates/bench/golden/server.txt` and
//! `crates/bench/golden/fleet.txt` and diffed by
//! `crates/bench/tests/golden_tables.rs`.
//!
//! ```text
//! cargo run --release -p asc-bench --bin server -- \
//!     [--fleet] [--procs N] [--seed N] [--slice N] [--round-robin] \
//!     [--batch N] [--churn N] [--json]
//! ```

use asc_bench::fleet::{fleet_to_value, render_fleet, run_fleet, FleetConfig};
use asc_bench::server::{render_server, run_server, server_to_value, ServerConfig, ServerMode};

const SERVER_USAGE: &str =
    "[--fleet] [--procs N] [--seed N] [--slice N] [--batch K] [--churn N] [--round-robin] [--json]";

fn main() {
    let mut config = ServerConfig::default();
    let mut fleet_config = FleetConfig::default();
    let mut fleet = false;
    let mut json = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--fleet" => fleet = true,
            "--procs" => {
                let value = args.next().expect("--procs needs a value");
                config.procs = value.parse().expect("--procs needs a number");
                fleet_config.procs = config.procs;
            }
            "--seed" => {
                let value = args.next().expect("--seed needs a value");
                config.seed = parse_u64(&value);
                fleet_config.seed = config.seed;
            }
            "--slice" => {
                let value = args.next().expect("--slice needs a value");
                config.slice_instrs = value.parse().expect("--slice needs a number");
                fleet_config.slice_instrs = config.slice_instrs;
            }
            "--batch" => {
                let value = args.next().expect("--batch needs a value");
                let depth: usize = value.parse().expect("--batch needs a number");
                fleet_config.batch_depth = (depth > 0).then_some(depth);
            }
            "--churn" => {
                let value = args.next().expect("--churn needs a value");
                fleet_config.churn_spawns = value.parse().expect("--churn needs a number");
            }
            "--round-robin" => config.round_robin = true,
            "--json" => json = true,
            other => asc_bench::cli::unknown_arg("server", other, SERVER_USAGE),
        }
    }

    if fleet {
        let run = run_fleet(&fleet_config, ServerMode::Warm);
        if json {
            asc_bench::print_json(&fleet_to_value(&run));
        } else {
            print!("{}", render_fleet(&run));
        }
    } else {
        let run = run_server(&config, ServerMode::Warm);
        if json {
            asc_bench::print_json(&server_to_value(&run));
        } else {
            print!("{}", render_server(&run));
        }
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
