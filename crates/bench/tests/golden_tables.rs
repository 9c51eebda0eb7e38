//! Byte-identity guard for the paper tables: with no trace sink attached
//! (the default for every table binary), the flight recorder must not
//! change a single byte of output relative to the checked-in goldens.
//! Also pins the seeded fault campaign's tables and exit status.
//!
//! Regenerate after an intentional change with:
//!
//! ```sh
//! for t in table1 table2 table3 table4 table6 ablation andrew server tiers audit coverage health; do
//!     cargo run --release -p asc-bench --bin $t > crates/bench/golden/$t.txt
//! done
//! cargo run --release -p asc-bench --bin server -- --fleet > crates/bench/golden/fleet.txt
//! cargo run --release -p asc-bench --bin faults -- --seed 0x0A5CF417 --trials 3 \
//!     > crates/bench/golden/faults.txt
//! ```

use std::process::Command;

fn check(bin: &str, golden: &str) {
    check_args(bin, &[], golden);
}

fn check_args(bin: &str, args: &[&str], golden: &str) {
    let out = Command::new(bin)
        .args(args)
        .output()
        .expect("table binary runs");
    assert!(
        out.status.success(),
        "{golden}: exit {:?}, stderr: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let path = format!("{}/golden/{golden}", env!("CARGO_MANIFEST_DIR"));
    let want = std::fs::read(&path).expect("golden checked in");
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&want),
        "{golden} drifted from its golden — if intentional, regenerate it \
         (see this file's header)"
    );
}

#[test]
fn table1_is_byte_identical() {
    check(env!("CARGO_BIN_EXE_table1"), "table1.txt");
}

#[test]
fn table2_is_byte_identical() {
    check(env!("CARGO_BIN_EXE_table2"), "table2.txt");
}

#[test]
fn table3_is_byte_identical() {
    check(env!("CARGO_BIN_EXE_table3"), "table3.txt");
}

#[test]
fn table4_is_byte_identical() {
    check(env!("CARGO_BIN_EXE_table4"), "table4.txt");
}

#[test]
fn table6_is_byte_identical() {
    check(env!("CARGO_BIN_EXE_table6"), "table6.txt");
}

#[test]
fn ablation_is_byte_identical() {
    check(env!("CARGO_BIN_EXE_ablation"), "ablation.txt");
}

#[test]
#[ignore = "multi-iteration Andrew benchmark takes ~40s; run with --ignored"]
fn andrew_is_byte_identical() {
    check(env!("CARGO_BIN_EXE_andrew"), "andrew.txt");
}

#[test]
fn server_is_byte_identical() {
    check(env!("CARGO_BIN_EXE_server"), "server.txt");
}

#[test]
fn tiers_is_byte_identical() {
    check(env!("CARGO_BIN_EXE_tiers"), "tiers.txt");
}

#[test]
fn coverage_is_byte_identical() {
    check(env!("CARGO_BIN_EXE_coverage"), "coverage.txt");
}

#[test]
fn audit_is_byte_identical() {
    check(env!("CARGO_BIN_EXE_audit"), "audit.txt");
}

#[test]
fn health_is_byte_identical() {
    check(env!("CARGO_BIN_EXE_health"), "health.txt");
}

#[test]
fn fleet_is_byte_identical() {
    check_args(env!("CARGO_BIN_EXE_server"), &["--fleet"], "fleet.txt");
}

/// The seeded fault campaign exits nonzero on any silent corruption or
/// crash, on a false-positive kill from a cache fault, or on an
/// origin-class kill that is not an attributed unrewritten-site
/// fail-stop; its campaign and cross-process tables are pinned.
#[test]
fn fault_campaign_exits_cleanly() {
    check_args(
        env!("CARGO_BIN_EXE_faults"),
        &["--seed", "0x0A5CF417", "--trials", "3"],
        "faults.txt",
    );
}
