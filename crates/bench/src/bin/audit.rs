//! The forensic flight-recorder demonstration: black-box recording of a
//! seeded fleet, on-kill bundle capture, and deterministic
//! replay-to-kill.
//!
//! Runs one 8-process fleet with a kernel fault armed on pid 2, with the
//! scheduler's recorder attached. Verifies the four forensic guarantees
//! end to end — recording costs 0 metered cycles (a recorder-off twin is
//! bit-identical), every kill yields a digest-stamped bundle, the bundle
//! replays to the identical kill, and deterministic pid-sampling keeps
//! event accounting exact — and exits nonzero if any guarantee fails.
//!
//! `--json` exports the same data (full bundle included) as JSON.
//! Deterministic end to end — `cargo test` diffs the text output against
//! `crates/bench/golden/audit.txt` (`golden_tables.rs`).

use asc_bench::audit::{audit_to_value, render_audit, run_audit};
use asc_bench::print_json;

fn main() {
    let json = asc_bench::cli::json_flag_only("audit");
    let report = run_audit();
    if json {
        print_json(&audit_to_value(&report));
    } else {
        print!("{}", render_audit(&report));
    }
    let problems = report.problems();
    if !problems.is_empty() {
        eprintln!("forensic loop violated:");
        for p in &problems {
            eprintln!("  {p}");
        }
        std::process::exit(1);
    }
}
