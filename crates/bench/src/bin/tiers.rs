//! Verification-tier ablation: what the SFIP flow tier costs and what it
//! buys.
//!
//! Cost: the paper's policy workloads (bison, calc, tar) under every
//! [`VerifyTier`] — total simulated cycles, overhead versus the
//! unauthenticated base, verification cycles per call, and AES blocks
//! (the flow tier must run zero).
//!
//! Coverage: the seeded tier × fault-class matrix from `asc-faults`,
//! including one syscall-reorder attack trial per tier. The run exits
//! nonzero if the coverage model is violated (see
//! `asc_faults::TierReport::problems`).
//!
//! Deterministic end to end — `cargo test` diffs the output against
//! `crates/bench/golden/tiers.txt` (`golden_tables.rs`).

use asc_bench::{bench_key, build_and_install};
use asc_faults::{run_tier_matrix, TierMatrixConfig};
use asc_kernel::{Personality, VerifyTier};
use asc_workloads::{measure, measure_tier, program};

const PERSONALITY: Personality = Personality::Linux;

/// Fixed seed/trials so the table is byte-reproducible.
const SEED: u64 = 0x5F1F_CA5E;
const TRIALS: u32 = 3;

fn main() {
    asc_bench::cli::reject_args("tiers");
    println!("Verification-tier ablation: cost x coverage");
    println!();
    println!(
        "{:<10} {:<10} {:>12} {:>8} {:>12} {:>11}",
        "workload", "tier", "cycles", "over%", "verify/call", "aes-blocks"
    );
    for (i, name) in ["bison", "calc", "tar"].iter().enumerate() {
        let spec = program(name).expect("name appears in the asc_workloads program registry");
        let (plain, auth, _) = build_and_install(spec, PERSONALITY, 0x0F60 + i as u16);
        let base = measure(spec, &plain, PERSONALITY, None);
        assert!(base.outcome.is_success());
        println!(
            "{:<10} {:<10} {:>12} {:>8} {:>12} {:>11}",
            name, "none", base.cycles, "-", "-", "-"
        );
        for tier in VerifyTier::ALL {
            let run = measure_tier(spec, &auth, PERSONALITY, bench_key(), tier);
            assert!(
                run.outcome.is_success(),
                "{name} under {} failed: {:?} (alerts: {:?})",
                tier.name(),
                run.outcome,
                run.kernel.alerts()
            );
            let stats = run.kernel.stats();
            let over = (run.cycles as f64 - base.cycles as f64) / base.cycles as f64 * 100.0;
            let per_call = stats.verify_cycles as f64 / stats.verified.max(1) as f64;
            println!(
                "{:<10} {:<10} {:>12} {:>8.2} {:>12.0} {:>11}",
                "",
                tier.name(),
                run.cycles,
                over,
                per_call,
                stats.verify_aes_blocks
            );
        }
    }
    println!();
    let report = run_tier_matrix(&TierMatrixConfig::new(SEED, TRIALS));
    print!("{}", report.render());
    let problems = report.problems();
    if !problems.is_empty() {
        eprintln!("tier coverage model violated:");
        for p in &problems {
            eprintln!("  {p}");
        }
        std::process::exit(1);
    }
    println!();
    println!("coverage model: OK (flow-only catches ordering but misses in-edge");
    println!("forgeries; mac alone misses the reorder attack; mac+flow dominates");
    println!("with zero silent rows)");
}
