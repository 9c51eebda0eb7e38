//! Flight-recorder acceptance tests: the profile's attribution must agree
//! with the kernel's own counters *exactly*, and attaching any sink must
//! not change the cycles a run is charged.

use asc_bench::{build_and_install, profile_workload};
use asc_kernel::{Kernel, KernelOptions, KernelStats, Personality};
use asc_trace::{NullSink, RingSink, TraceSink};
use asc_vm::Machine;
use asc_workloads::{program, RUN_BUDGET};

#[test]
fn profile_totals_match_kernel_stats_exactly() {
    let run = profile_workload("calc");
    let t = run.profile.totals();
    let s = &run.stats;
    assert_eq!(t.calls, s.verified, "one span per verified call");
    assert_eq!(t.warm_calls, s.cache_hits, "warm split mirrors the cache");
    assert_eq!(t.kills, 0, "clean workload");
    assert_eq!(
        t.aes_blocks, s.verify_aes_blocks,
        "per-check AES attribution partitions the measured total"
    );
    assert_eq!(
        t.verify_cycles, s.verify_cycles,
        "per-span cycles sum to the charged total"
    );
    // Stronger than the totals: within every call site, the fixed cost
    // plus the per-check costs reconstruct the charged cycles exactly —
    // the cost model is linear in (AES blocks, bytes) and the meter's
    // snapshots partition both.
    for row in run.profile.rows() {
        let check_cycles: u64 = row.checks.iter().map(|c| c.cycles).sum();
        assert_eq!(
            row.verify_cycles,
            row.fixed_cycles + check_cycles,
            "site {:#x} ({})",
            row.site,
            Personality::Linux.name_of(row.nr)
        );
        let check_blocks: u64 = row.checks.iter().map(|c| c.aes_blocks).sum();
        assert_eq!(row.aes_blocks, check_blocks, "site {:#x}", row.site);
    }
}

/// Boots calc on an enforcing, cache-enabled kernel.
fn calc_machine() -> Machine<Kernel> {
    let spec = program("calc").expect("registered");
    let (_, auth) = build_and_install(spec, Personality::Linux, 9);
    let opts = KernelOptions::enforcing(Personality::Linux).with_verify_cache();
    auth.boot(opts, spec.fs(), spec.stdin).expect("loads")
}

fn run_calc(sink: Option<Box<dyn TraceSink>>) -> (u64, KernelStats) {
    let mut machine = calc_machine();
    if let Some(sink) = sink {
        machine.handler_mut().set_trace_sink(sink);
    }
    let outcome = machine.run(RUN_BUDGET);
    assert!(outcome.is_success(), "{outcome:?}");
    let cycles = machine.cycles();
    (cycles, *machine.handler().stats())
}

#[test]
fn sinks_do_not_perturb_charged_cycles() {
    // The no-perturbation rule: recording observes costs, never incurs
    // them. Any sink (recording, bounded, or disabled) leaves both the
    // total cycle count and every kernel counter untouched.
    let (base_cycles, base_stats) = run_calc(None);
    let (ring_cycles, ring_stats) = run_calc(Some(Box::new(RingSink::new(64))));
    let (null_cycles, null_stats) = run_calc(Some(Box::new(NullSink)));
    assert_eq!(base_cycles, ring_cycles, "RingSink perturbed the run");
    assert_eq!(base_cycles, null_cycles, "NullSink perturbed the run");
    assert_eq!(base_stats.verify_cycles, ring_stats.verify_cycles);
    assert_eq!(base_stats.verify_aes_blocks, ring_stats.verify_aes_blocks);
    assert_eq!(base_stats.kernel_cycles, ring_stats.kernel_cycles);
    assert_eq!(base_stats.verify_cycles, null_stats.verify_cycles);
}

#[test]
fn ring_sink_bounds_kernel_event_stream() {
    let mut machine = calc_machine();
    machine
        .handler_mut()
        .set_trace_sink(Box::new(RingSink::new(32)));
    assert!(machine.run(RUN_BUDGET).is_success());
    let mut kernel = machine.into_handler();
    let ring = kernel
        .take_trace_sink()
        .expect("sink attached")
        .into_any()
        .downcast::<RingSink>()
        .expect("ring sink");
    assert_eq!(ring.len(), 32, "ring holds exactly its capacity");
    assert!(
        ring.dropped_events() > 0,
        "a 94-call workload overflows 32 slots"
    );
    // Timestamps ride the virtual clock: events arrive in nondecreasing
    // cycle order even across the wraparound.
    let stamps: Vec<u64> = ring.events().map(|e| e.at_cycles).collect();
    assert!(stamps.windows(2).all(|w| w[0] <= w[1]), "{stamps:?}");
}

#[test]
fn trace_json_matches_golden() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_trace"))
        .args(["--workload", "calc", "--json"])
        .output()
        .expect("trace binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let path = format!("{}/golden/trace_calc.json", env!("CARGO_MANIFEST_DIR"));
    let want = std::fs::read(&path).expect("golden checked in");
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&want),
        "trace JSON drifted — if intentional, regenerate with \
         `cargo run --release -p asc-bench --bin trace -- --workload calc --json \
         > crates/bench/golden/trace_calc.json`"
    );
}
