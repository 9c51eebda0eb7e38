//! Fleet-health sentinel properties at fleet scale: no-perturbation and
//! telemetry exactness.
//!
//! The sentinel is the continuous-monitoring layer of the fail-stop
//! story, so its contract mirrors the flight recorder's:
//!
//! * **no-perturbation** — observing a fleet (with metrics registries
//!   attached and the sentinel sampling every slice) changes *nothing*
//!   metered: shared clock, interleaving, per-pid cycles, kernel stats,
//!   stdout, states, and counters are bit-identical at
//!   N ∈ {2, 8, 64, 1024} under every verification tier;
//! * **telemetry exactness** — at every fleet size the closed windows
//!   partition the run: per-window deltas sum to the final aggregate
//!   counters and the window spans tile the virtual clock.

use std::sync::OnceLock;

use asc::crypto::MacKey;
use asc::installer::{Installer, InstallerOptions};
use asc::kernel::{Kernel, KernelMetrics, KernelOptions, KernelStats, Personality, VerifyTier};
use asc::object::Binary;
use asc::sched::{Pid, ProcState, SchedConfig, SchedPolicy, Scheduler};
use asc::sentinel::{Sentinel, SentinelConfig};
use asc::vm::Machine;
use asc::workloads::{build, program, Guest, ProgramSpec, RUN_BUDGET};

const PERSONALITY: Personality = Personality::Linux;
const WORKLOADS: [&str; 3] = ["bison", "calc", "tar"];

fn key() -> MacKey {
    MacKey::from_seed(0x5E17_0AC5)
}

struct Built {
    spec: &'static ProgramSpec,
    auth: Binary,
}

static FLEET: OnceLock<Vec<Built>> = OnceLock::new();

fn fleet() -> &'static [Built] {
    FLEET.get_or_init(|| {
        WORKLOADS
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let spec = program(name).expect("workload is registered");
                let plain = build(spec, PERSONALITY).expect("workload builds");
                let installer = Installer::new(
                    key(),
                    InstallerOptions::new(PERSONALITY).with_program_id(0x5E00 + i as u16),
                );
                let (auth, _) = installer.install(&plain, spec.name).expect("installs");
                Built { spec, auth }
            })
            .collect()
    })
}

fn machine_for_tier(
    spec: &ProgramSpec,
    guest: &Guest,
    tier: VerifyTier,
    with_metrics: bool,
) -> Machine<Kernel> {
    let opts = KernelOptions::enforcing(PERSONALITY)
        .with_verify_cache()
        .with_tier(tier);
    let mut machine = guest
        .boot(opts, spec.fs(), spec.stdin)
        .expect("workload fits in guest memory");
    if with_metrics {
        machine
            .handler_mut()
            .set_metrics(Box::new(KernelMetrics::new()));
    }
    machine
}

fn spawn_n_tier(
    n: usize,
    policy: SchedPolicy,
    batch_depth: Option<usize>,
    tier: VerifyTier,
    with_metrics: bool,
) -> Scheduler {
    let fleet = fleet();
    // One guest per binary: each parses its artifacts once, not per spawn.
    let guests: Vec<Guest> = fleet
        .iter()
        .map(|b| Guest::installed(b.auth.clone(), &key()))
        .collect();
    let mut sched = Scheduler::with_shared_cache(SchedConfig {
        policy,
        slice_instrs: 2_000,
        budget_cycles: RUN_BUDGET,
        batch_depth,
    });
    for m in 0..n {
        let built = &fleet[m % fleet.len()];
        let guest = &guests[m % fleet.len()];
        sched.spawn(
            built.spec.name,
            machine_for_tier(built.spec, guest, tier, with_metrics),
        );
    }
    sched
}

/// Everything the sentinel could possibly perturb, captured per run.
#[derive(PartialEq, Debug)]
struct PidWitness {
    state: ProcState,
    cycles: u64,
    stdout: Vec<u8>,
    stats: KernelStats,
    counter: u64,
}

fn witness(sched: &Scheduler) -> (u64, Vec<Pid>, Vec<PidWitness>) {
    (
        sched.clock(),
        sched.interleaving().to_vec(),
        sched
            .processes()
            .iter()
            .map(|p| PidWitness {
                state: p.state().clone(),
                cycles: p.machine().cycles(),
                stdout: p.kernel().stdout().to_vec(),
                stats: p.stats(),
                counter: p.kernel().policy_counter(),
            })
            .collect(),
    )
}

/// **Tentpole**: full observability attachment — metrics registries on
/// every kernel plus a sentinel sampling after every scheduler step — is
/// perturbation-free at every fleet size and under every verification
/// tier: shared clock, interleaving (hence its FNV digest), per-pid
/// cycles, kernel stats, stdout, states, and counters are all
/// bit-identical to a bare run. N = 1024 also exercises the batched trap
/// path under observation.
#[test]
fn sentinel_attachment_is_bit_identical_at_fleet_sizes_and_tiers() {
    for &n in &[2usize, 8, 64, 1024] {
        for (ti, &tier) in VerifyTier::ALL.iter().enumerate() {
            let policy = SchedPolicy::SeededRandom(0x5E17_7000 ^ n as u64 ^ (ti as u64) << 20);
            let batch = if n >= 64 { Some(16) } else { None };

            let mut bare = spawn_n_tier(n, policy, batch, tier, false);
            bare.run();
            let bare_witness = witness(&bare);
            let bare_agg = bare.aggregate_stats();
            drop(bare);

            // Retain every window (the default 256-window tail would
            // drop early windows on the long N=1024 runs, breaking the
            // partition identity below).
            let mut observed = spawn_n_tier(n, policy, batch, tier, true);
            let sentinel = Sentinel::drive(
                &mut observed,
                SentinelConfig::new(250_000).with_max_windows(usize::MAX),
            );
            let observed_witness = witness(&observed);

            let name = tier.name();
            assert_eq!(
                bare_witness.0, observed_witness.0,
                "n={n} {name}: sentinel moved the shared clock"
            );
            assert_eq!(
                bare_witness.1, observed_witness.1,
                "n={n} {name}: sentinel changed the interleaving"
            );
            for (pid0, (a, b)) in bare_witness.2.iter().zip(&observed_witness.2).enumerate() {
                assert_eq!(
                    a,
                    b,
                    "n={n} {name} pid {}: sentinel perturbed the run",
                    pid0 + 1
                );
            }

            // Telemetry exactness at every size and tier: the windows
            // partition the run's aggregate counters and tile the clock.
            let windows = sentinel.windows();
            assert!(!windows.is_empty(), "n={n} {name}: no windows closed");
            let sum =
                |f: fn(&asc::sentinel::WindowSample) -> u64| windows.iter().map(f).sum::<u64>();
            assert_eq!(sum(|w| w.syscalls), bare_agg.syscalls, "n={n} {name}");
            assert_eq!(sum(|w| w.verified), bare_agg.verified, "n={n} {name}");
            assert_eq!(
                sum(|w| w.verify_cycles),
                bare_agg.verify_cycles,
                "n={n} {name}"
            );
            assert_eq!(sum(|w| w.warm_hits), bare_agg.cache_hits, "n={n} {name}");
            let mut cursor = windows[0].start;
            for w in windows {
                assert_eq!(w.start, cursor, "n={n} {name}: window {} gap", w.index);
                cursor = w.end;
            }
            assert_eq!(cursor, observed_witness.0, "n={n} {name}: clock tiling");

            // A clean fleet keeps every count-style detector quiet at
            // every scale and tier: zero alerts, zero cache fallbacks,
            // zero scrubs are hard invariants. (The statistical
            // detectors — warm-hit-floor, verify-drift — are tuned for
            // the default deployment and legitimately read 0% warm
            // ratios under flow-only or fleet-scale cold phases; their
            // quiet-SLO behaviour is pinned by the sentinel crate's own
            // tests and the health golden instead.)
            let hard = [
                "alert-burst",
                "cache-fallback",
                "cache-scrub",
                "probe-contention",
            ];
            let unexpected: Vec<_> = sentinel
                .events()
                .iter()
                .filter(|e| hard.contains(&e.detector.as_str()))
                .collect();
            assert!(
                unexpected.is_empty(),
                "n={n} {name}: clean fleet fired {unexpected:?}"
            );
        }
    }
}
