//! The metrics reconstruction identities and the no-perturbation rule.
//!
//! With a registry attached, the trap handler's histograms must
//! *reconstruct* the `KernelStats` aggregates exactly:
//!
//! * `Σ_path asc_verify_cycles.sum == KernelStats::verify_cycles`
//! * `Σ_path asc_verify_aes_blocks.sum == KernelStats::verify_aes_blocks`
//! * `Σ_family asc_check_aes_blocks.sum == KernelStats::verify_aes_blocks`
//!   (the `CallMeter` per-check partition is exact)
//! * `Σ_family asc_check_cycles.sum + Σ_path asc_verify_fixed_cycles.sum
//!   == KernelStats::verify_cycles` (the cost model is linear)
//!
//! They hold under every verification tier: flow-only prices the whole
//! call in its `flow-edge` check and charges no fixed term.
//!
//! And attaching the registry must change *nothing* the run can observe:
//! same cycles, same stats, same output — metrics observe costs, they do
//! not incur them.

use asc_crypto::MacKey;
use asc_installer::{Installer, InstallerOptions};
use asc_kernel::{Kernel, KernelOptions, KernelStats, Personality, VerifyTier, VERIFY_PATHS};
use asc_metrics::Snapshot;
use asc_vm::Machine;

const PERSONALITY: Personality = Personality::Linux;

/// Syscall-heavy guest: repeated identical calls (cache-warmable) plus
/// varied one-shot calls, so all of cold/warm and several check families
/// appear in the histograms.
const GUEST: &str = r#"
fn main() {
    var i = 0;
    while (i < 12) {
        getpid();
        write(1, "x", 1);
        i = i + 1;
    }
    let fd = open("/etc/motd", 0, 0);
    close(fd);
    getuid();
    geteuid();
    return 0;
}
"#;

struct Run {
    stats: KernelStats,
    cycles: u64,
    stdout: Vec<u8>,
    snapshot: Option<Snapshot>,
}

fn run(auth: &asc_object::Binary, key: &MacKey, cached: bool, metrics: bool) -> Run {
    run_tier(auth, key, VerifyTier::Mac, cached, metrics)
}

fn run_tier(
    auth: &asc_object::Binary,
    key: &MacKey,
    tier: VerifyTier,
    cached: bool,
    metrics: bool,
) -> Run {
    let opts = KernelOptions::enforcing(PERSONALITY).with_tier(tier);
    let opts = if cached {
        opts.with_verify_cache()
    } else {
        opts
    };
    let mut kernel = Kernel::new(opts);
    kernel.set_key(key.clone());
    kernel.set_brk(auth.highest_addr());
    if tier.checks_flow() {
        kernel.set_flow_graph(asc_workloads::flow_graph_of(auth, key));
    }
    if metrics {
        kernel.attach_metrics();
    }
    let mut machine = Machine::load(auth, kernel).expect("guest binary fits in memory");
    let outcome = machine.run(100_000_000);
    let cycles = machine.cycles();
    let mut kernel = machine.into_handler();
    assert!(
        outcome.is_success(),
        "guest failed: {outcome:?} (alerts: {:?})",
        kernel.alerts()
    );
    Run {
        stats: *kernel.stats(),
        cycles,
        stdout: kernel.stdout().to_vec(),
        snapshot: kernel.take_metrics().map(|m| m.snapshot()),
    }
}

fn build() -> (asc_object::Binary, MacKey) {
    let key = MacKey::from_seed(0x3E7_21C5);
    let plain = asc_workloads::build_source(GUEST, PERSONALITY).expect("guest builds");
    let installer = Installer::new(
        key.clone(),
        InstallerOptions::new(PERSONALITY).with_program_id(9),
    );
    let (auth, _) = installer.install(&plain, "metricsguest").expect("installs");
    (auth, key)
}

fn assert_identities(run: &Run, label: &str) {
    let snap = run.snapshot.as_ref().expect("metrics attached");
    let stats = &run.stats;

    assert_eq!(
        snap.histogram_sum_across_labels("asc_verify_cycles"),
        stats.verify_cycles,
        "{label}: Σ_path verify-cycle histogram sums != KernelStats.verify_cycles"
    );
    assert_eq!(
        snap.histogram_sum_across_labels("asc_verify_aes_blocks"),
        stats.verify_aes_blocks,
        "{label}: Σ_path AES-block histogram sums != KernelStats.verify_aes_blocks"
    );
    assert_eq!(
        snap.histogram_sum_across_labels("asc_check_aes_blocks"),
        stats.verify_aes_blocks,
        "{label}: Σ_family per-check AES blocks != KernelStats.verify_aes_blocks"
    );
    assert_eq!(
        snap.histogram_sum_across_labels("asc_check_cycles")
            + snap.histogram_sum_across_labels("asc_verify_fixed_cycles"),
        stats.verify_cycles,
        "{label}: per-check cycles + fixed cycles != KernelStats.verify_cycles"
    );

    // Per-path counts partition the verified calls.
    let calls: u64 = VERIFY_PATHS
        .iter()
        .filter_map(|p| snap.histogram("asc_verify_cycles", &[("path", p)]))
        .map(|h| h.count())
        .sum();
    assert_eq!(calls, stats.verified, "{label}: path counts != verified");
    let warm = snap
        .histogram("asc_verify_cycles", &[("path", "warm")])
        .map(|h| (h.count(), h.sum()))
        .unwrap_or((0, 0));
    assert_eq!(
        warm.0, stats.cache_hits,
        "{label}: warm count != cache hits"
    );
    assert_eq!(
        warm.1, stats.warm_verify_cycles,
        "{label}: warm cycle sum != warm_verify_cycles"
    );

    // Counters.
    assert_eq!(
        snap.counter("asc_syscalls_total", &[]),
        Some(stats.syscalls),
        "{label}"
    );
    assert_eq!(snap.counter("asc_kills_total", &[]), Some(0), "{label}");
}

#[test]
fn histograms_reconstruct_kernel_stats_exactly() {
    let (auth, key) = build();
    for tier in VerifyTier::ALL {
        for cached in [false, true] {
            let run = run_tier(&auth, &key, tier, cached, true);
            let label = format!("{} {}", tier.name(), if cached { "cached" } else { "cold" });
            assert!(run.stats.verified > 0, "{label}: guest made verified calls");
            if cached && tier.checks_mac() {
                assert!(
                    run.stats.cache_hits > 0,
                    "{label}: repeat calls warm the cache"
                );
            }
            assert_identities(&run, &label);
            let snap = run.snapshot.as_ref().expect("metrics attached");
            let flow_checks = snap
                .histogram("asc_check_cycles", &[("family", "flow-edge")])
                .map_or(0, |h| h.count());
            let expected = if tier.checks_flow() {
                run.stats.verified
            } else {
                0
            };
            assert_eq!(
                flow_checks, expected,
                "{label}: one flow-edge check per call"
            );
            if !tier.checks_mac() {
                assert_eq!(
                    snap.histogram_sum_across_labels("asc_verify_fixed_cycles"),
                    0,
                    "{label}: flow-only charges no fixed term"
                );
                assert_eq!(
                    run.stats.verify_aes_blocks, 0,
                    "{label}: flow-only runs no AES"
                );
            }
        }
    }
}

#[test]
fn cache_outcome_counters_track_paths() {
    let (auth, key) = build();
    let run = run(&auth, &key, true, true);
    let snap = run.snapshot.as_ref().expect("metrics attached");
    assert_eq!(
        snap.counter("asc_cache_outcome_total", &[("outcome", "warm")]),
        Some(run.stats.cache_hits)
    );
    let outcomes: u64 = VERIFY_PATHS
        .iter()
        .filter_map(|p| snap.counter("asc_cache_outcome_total", &[("outcome", p)]))
        .sum();
    assert_eq!(
        outcomes, run.stats.verified,
        "every verified call gets exactly one cache outcome"
    );
    // Without a cache, no outcome is recorded at all.
    let cold = run_without_cache(&auth, &key);
    let outcomes: u64 = VERIFY_PATHS
        .iter()
        .filter_map(|p| cold.counter("asc_cache_outcome_total", &[("outcome", p)]))
        .sum();
    assert_eq!(outcomes, 0, "cache outcomes recorded with the cache off");
}

fn run_without_cache(auth: &asc_object::Binary, key: &MacKey) -> Snapshot {
    run(auth, key, false, true)
        .snapshot
        .expect("metrics attached")
}

#[test]
fn attaching_metrics_perturbs_nothing() {
    let (auth, key) = build();
    for cached in [false, true] {
        let bare = run(&auth, &key, cached, false);
        let metered = run(&auth, &key, cached, true);
        assert_eq!(
            bare.cycles, metered.cycles,
            "cached={cached}: metrics changed charged cycles"
        );
        assert_eq!(
            format!("{:?}", bare.stats),
            format!("{:?}", metered.stats),
            "cached={cached}: metrics changed KernelStats"
        );
        assert_eq!(
            bare.stdout, metered.stdout,
            "cached={cached}: metrics changed program output"
        );
    }
}

#[test]
fn snapshots_merge_across_kernels_like_one_kernel() {
    // Run the guest twice on separate kernels (the Andrew pattern) and
    // merge the snapshots; sums must equal the absorbed KernelStats.
    let (auth, key) = build();
    let a = run(&auth, &key, true, true);
    let b = run(&auth, &key, false, true);
    let mut stats = a.stats;
    stats.absorb(&b.stats);
    let mut merged = a.snapshot.expect("metrics attached");
    merged.merge(&b.snapshot.expect("metrics attached"));
    assert_eq!(
        merged.histogram_sum_across_labels("asc_verify_cycles"),
        stats.verify_cycles
    );
    assert_eq!(
        merged.histogram_sum_across_labels("asc_verify_aes_blocks"),
        stats.verify_aes_blocks
    );
    assert_eq!(
        merged.counter("asc_syscalls_total", &[]),
        Some(stats.syscalls)
    );
}
