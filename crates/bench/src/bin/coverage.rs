//! Installer precision over the hostile-guest corpus, plus the origin
//! (`.ascsites`) enforcement verdict for every guest.
//!
//! The corpus (`asc_workloads::hostile`) collects the adversarial code
//! shapes that B-Side-style evaluations show binary-level syscall
//! identification must be measured on: function-pointer dispatch, deep
//! `__syscall` wrapper indirection, un-disassemblable stubs, data
//! masquerading as text, and a raw misaligned `SYSCALL` gadget. For
//! each guest the table reports the installer's own precision counters
//! (discovered vs rewritten sites, unknown-number sites, regions the
//! lifter could not disassemble, unknown-argument rate, pred-set
//! over-approximation) and then runs the installed guest under every
//! verification tier with its `.ascsites` registry loaded.
//!
//! Expected shape, enforced with a non-zero exit:
//!
//! * verdicts agree across tiers (the origin check precedes tier
//!   dispatch);
//! * every guest whose hidden syscall survives rewriting is killed
//!   with `unrewritten-site` — in particular the raw-gadget guest dies
//!   before its smuggled `write` produces a single byte of output.
//!
//! Deterministic end to end — `cargo test` diffs the output against
//! `crates/bench/golden/coverage.txt` (`golden_tables.rs`).

use asc_bench::bench_key;
use asc_installer::{Installer, InstallerOptions};
use asc_kernel::{Kernel, KernelOptions, Personality, VerifyTier};
use asc_object::Binary;
use asc_vm::{Machine, RunOutcome};
use asc_workloads::hostile::{build_hostile, HOSTILE};

const PERSONALITY: Personality = Personality::Linux;

fn main() {
    asc_bench::cli::reject_args("coverage");
    println!("Installer precision x origin enforcement: hostile-guest corpus");
    println!();
    println!(
        "{:<14} {:>5} {:>5} {:>6} {:>7} {:>6} {:>5} {:>9} {:>9} {:>7} {:>7} {:>5}",
        "guest",
        "disc",
        "rewr",
        "rate%",
        "unk-nr",
        "undis",
        "args",
        "unk-args",
        "unk-arg%",
        "pred-e",
        "pred-s",
        "over"
    );
    let mut guests: Vec<(&str, Binary)> = Vec::new();
    for (i, spec) in HOSTILE.iter().enumerate() {
        let plain = build_hostile(spec).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        let installer = Installer::new(
            bench_key(),
            InstallerOptions::new(PERSONALITY).with_program_id(0x0C00 + i as u16),
        );
        let (auth, report) = installer
            .install(&plain, spec.name)
            .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        let p = &report.precision;
        println!(
            "{:<14} {:>5} {:>5} {:>6.1} {:>7} {:>6} {:>5} {:>9} {:>9.1} {:>7} {:>7} {:>5.1}",
            spec.name,
            p.discovered,
            p.rewritten,
            p.rewrite_rate() * 100.0,
            p.unknown_nr,
            p.undisassembled_regions,
            p.input_args,
            p.unknown_args,
            p.unknown_arg_rate() * 100.0,
            p.pred_entries,
            p.pred_sites,
            p.pred_over_approx(),
        );
        guests.push((spec.name, auth));
    }

    println!();
    println!(
        "{:<14} {:<24} {:<24} {:<24}",
        "guest", "flow-only", "mac", "mac+flow"
    );
    let mut problems: Vec<String> = Vec::new();
    for (name, auth) in &guests {
        let verdicts: Vec<String> = VerifyTier::ALL
            .iter()
            .map(|&tier| verdict(auth, tier))
            .collect();
        println!(
            "{:<14} {:<24} {:<24} {:<24}",
            name, verdicts[0], verdicts[1], verdicts[2]
        );
        if verdicts.iter().any(|v| v != &verdicts[0]) {
            problems.push(format!(
                "{name}: verdicts diverge across tiers ({verdicts:?}) — the \
                 origin check must fire before tier dispatch"
            ));
        }
        if *name == "gadget" && verdicts[0] != "killed:unrewritten-site" {
            problems.push(format!(
                "{name}: raw-gadget guest must die on the origin check, got {}",
                verdicts[0]
            ));
        }
    }

    if !problems.is_empty() {
        eprintln!("coverage model violated:");
        for p in &problems {
            eprintln!("  {p}");
        }
        std::process::exit(1);
    }
    println!();
    println!("origin model: OK (tier-independent verdicts; hidden syscalls die");
    println!("as unrewritten-site before any side effect)");
}

/// Runs one installed guest under `tier` with its `.ascsites` registry
/// loaded and renders how the run ended.
fn verdict(auth: &Binary, tier: VerifyTier) -> String {
    let key = bench_key();
    let mut kernel = Kernel::new(KernelOptions::enforcing(PERSONALITY).with_tier(tier));
    kernel.set_key(key.clone());
    if tier.checks_flow() {
        kernel.set_flow_graph(asc_workloads::flow_graph_of(auth, &key));
    }
    kernel.set_site_registry(asc_workloads::sites_of(auth, &key));
    kernel.set_brk(auth.highest_addr());
    let mut m = Machine::load(auth, kernel).expect("guest fits");
    let outcome = m.run(100_000_000);
    let kernel = m.into_handler();
    match &outcome {
        RunOutcome::Exited(code) => format!("exited({code})"),
        RunOutcome::Killed(_) => match kernel.alerts().last() {
            Some(alert) => format!("killed:{}", alert.reason().code()),
            None => "killed:<no alert>".into(),
        },
        other => format!("{other:?}"),
    }
}
