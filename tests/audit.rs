//! Forensic flight-recorder properties: no-perturbation, exact ring
//! accounting, sampling soundness, and bundle replay determinism.
//!
//! The recorder is the always-on black box of the fail-stop story, so its
//! contract is absolute:
//!
//! * **no-perturbation** — attaching it changes *nothing* metered:
//!   cycles, per-pid kernel stats, stdout, states, and the interleaving
//!   FNV digest are bit-identical at N ∈ {2, 8, 64, 1024} under every
//!   verification tier;
//! * **exact accounting** — every sampled ring satisfies
//!   `retained + dropped == total events emitted`, across scheduler
//!   kills and batch windows, at any capacity;
//! * **sampling soundness** — unsampled pids cost nothing and their span
//!   totals are reconstructed exactly from [`KernelStats`];
//! * **replay determinism** — an on-kill bundle re-runs from its seeds to
//!   the same pid, violation, and kill cycle, bit-identically, and its
//!   JSON serialization is digest-protected against tampering.

use std::sync::OnceLock;

use asc::audit::{replay, AuditFault, Bundle, FaultAction, SoloScenario, TrapFault};
use asc::crypto::MacKey;
use asc::installer::{Installer, InstallerOptions};
use asc::kernel::{Kernel, KernelOptions, KernelStats, Personality, VerifyTier};
use asc::object::Binary;
use asc::sched::{Pid, ProcState, RecorderConfig, SchedConfig, SchedPolicy, Scheduler, SliceEnd};
use asc::trace::EventKind;
use asc::vm::Machine;
use asc::workloads::{build, program, Guest, ProgramSpec, RUN_BUDGET};
use asc_testkit::Rng;

const PERSONALITY: Personality = Personality::Linux;
const WORKLOADS: [&str; 3] = ["bison", "calc", "tar"];

fn key() -> MacKey {
    MacKey::from_seed(0x3117_0AC5)
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
                    InstallerOptions::new(PERSONALITY).with_program_id(0x0AB0 + i as u16),
                );
                let (auth, _) = installer.install(&plain, spec.name).expect("installs");
                Built { spec, auth }
            })
            .collect()
    })
}

fn machine_for_tier(spec: &ProgramSpec, guest: &Guest, tier: VerifyTier) -> Machine<Kernel> {
    let opts = KernelOptions::enforcing(PERSONALITY)
        .with_verify_cache()
        .with_tier(tier);
    guest
        .boot(opts, spec.fs(), spec.stdin)
        .expect("workload fits in guest memory")
}

fn spawn_n_tier(
    n: usize,
    policy: SchedPolicy,
    slice_instrs: u64,
    batch_depth: Option<usize>,
    tier: VerifyTier,
) -> Scheduler {
    let fleet = fleet();
    // One guest per binary: each parses its artifacts once, not per spawn.
    let guests: Vec<Guest> = fleet
        .iter()
        .map(|b| Guest::installed(b.auth.clone(), &key()))
        .collect();
    let mut sched = Scheduler::with_shared_cache(SchedConfig {
        policy,
        slice_instrs,
        budget_cycles: RUN_BUDGET,
        batch_depth,
    });
    for m in 0..n {
        let built = &fleet[m % fleet.len()];
        let guest = &guests[m % fleet.len()];
        sched.spawn(built.spec.name, machine_for_tier(built.spec, guest, tier));
    }
    sched
}

/// Everything the recorder could possibly perturb, captured per run.
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

/// **Tentpole**: attaching the recorder is perturbation-free at every
/// fleet size and under every verification tier — shared clock,
/// interleaving (hence its FNV digest), per-pid cycles, kernel stats,
/// stdout, states, and counters are all bit-identical to a bare run.
/// N = 1024 also exercises the batched trap path under recording.
#[test]
fn recorder_attachment_is_bit_identical_at_fleet_sizes_and_tiers() {
    for &n in &[2usize, 8, 64, 1024] {
        for (ti, &tier) in VerifyTier::ALL.iter().enumerate() {
            let policy = SchedPolicy::SeededRandom(0xF1EE_7000 ^ n as u64 ^ (ti as u64) << 20);
            let batch = if n >= 64 { Some(16) } else { None };

            let mut bare = spawn_n_tier(n, policy, 2_000, batch, tier);
            bare.run();
            let bare_witness = witness(&bare);
            drop(bare);

            let mut recorded = spawn_n_tier(n, policy, 2_000, batch, tier);
            // Sample everything at small N; at fleet scale sample 1/8 so
            // the test also proves *partial* sampling perturbs nothing.
            let config = if n >= 64 {
                RecorderConfig {
                    ring_capacity: 32,
                    sample_num: 1,
                    sample_den: 8,
                    ..RecorderConfig::default()
                }
            } else {
                RecorderConfig::default()
            };
            recorded.attach_recorder(config);
            assert!(recorded.recording());
            recorded.run();
            let recorded_witness = witness(&recorded);
            let audit = recorded.take_audit().expect("recorder was attached");

            let name = tier.name();
            assert_eq!(
                bare_witness.0, recorded_witness.0,
                "n={n} {name}: recorder moved the shared clock"
            );
            assert_eq!(
                bare_witness.1, recorded_witness.1,
                "n={n} {name}: recorder changed the interleaving"
            );
            for (pid0, (a, b)) in bare_witness.2.iter().zip(&recorded_witness.2).enumerate() {
                assert_eq!(
                    a,
                    b,
                    "n={n} {name} pid {}: recorder perturbed the run",
                    pid0 + 1
                );
            }
            // The audit actually captured the fleet: every pid has a
            // record, and sampled pids with syscalls captured events.
            assert_eq!(audit.pids.len(), n, "n={n} {name}: audit covers every pid");
            for pa in &audit.pids {
                if pa.sampled && pa.stats.syscalls > 0 {
                    assert!(
                        !pa.events.is_empty() || pa.dropped > 0,
                        "n={n} {name} pid {}: sampled pid with traps recorded nothing",
                        pa.pid
                    );
                }
            }
        }
    }
}

/// **Satellite**: exact ring accounting under seeded schedules with
/// scheduler kills and batch windows. A giant-capacity twin ring (which
/// provably drops nothing) supplies the ground-truth event total; every
/// bounded ring must satisfy `retained + dropped == total`, and the
/// unsampled-pid reconstruction (`syscalls + verified` span events) must
/// match the twin's observed span events exactly.
#[test]
fn ring_accounting_is_exact_across_kills_and_batch_windows() {
    let mut rng = Rng::new(0x41C0_0071);
    for round in 0..6u64 {
        let n = [3usize, 6, 9][(round % 3) as usize];
        let batch = if round % 2 == 0 { Some(4) } else { None };
        let policy = SchedPolicy::SeededRandom(0xACC7_0000 ^ round);
        let kill_victim = (rng.range_u32(1, n as u32 + 1)) as Pid;
        let kill_after = rng.range_u32(5, 40);

        // Ground truth: capacity large enough to never drop.
        let mut full = spawn_n_tier(n, policy, 2_000, batch, VerifyTier::Mac);
        full.attach_recorder(RecorderConfig {
            ring_capacity: 1 << 20,
            ..RecorderConfig::default()
        });
        for _ in 0..kill_after {
            if full.step().is_none() {
                break;
            }
        }
        if full.process(kill_victim).state().is_runnable() {
            full.kill(kill_victim, "operator kill (accounting test)");
        }
        full.run();
        let full_audit = full.take_audit().expect("recorder attached");

        // Bounded ring over the *identical* schedule and kill sequence.
        let capacity = [4usize, 16, 64][(round % 3) as usize];
        let mut bounded = spawn_n_tier(n, policy, 2_000, batch, VerifyTier::Mac);
        bounded.attach_recorder(RecorderConfig {
            ring_capacity: capacity,
            ..RecorderConfig::default()
        });
        for _ in 0..kill_after {
            if bounded.step().is_none() {
                break;
            }
        }
        if bounded.process(kill_victim).state().is_runnable() {
            bounded.kill(kill_victim, "operator kill (accounting test)");
        }
        bounded.run();
        let bounded_audit = bounded.take_audit().expect("recorder attached");

        for pa in &full_audit.pids {
            assert_eq!(
                pa.dropped, 0,
                "round {round}: the ground-truth ring dropped"
            );
            let total = pa.events.len() as u64;
            let b = bounded_audit.pid(pa.pid).expect("same fleet");
            assert_eq!(
                b.events.len() as u64 + b.dropped,
                total,
                "round {round} pid {} capacity {capacity}: \
                 retained + dropped != total events",
                pa.pid
            );
            assert!(
                b.events.len() <= capacity,
                "round {round} pid {}: ring exceeded its capacity",
                pa.pid
            );
            // Sampling soundness: the span totals reconstructed from
            // KernelStats alone equal the observed span-level events.
            let span_observed = pa
                .events
                .iter()
                .filter(|(_, e)| {
                    matches!(
                        e.kind,
                        EventKind::TrapEnter { .. } | EventKind::TrapExit { .. }
                    )
                })
                .count() as u64;
            assert_eq!(
                pa.span_events(),
                span_observed,
                "round {round} pid {}: KernelStats reconstruction drifted",
                pa.pid
            );
        }
        // The external kill is marked (when the victim was still alive).
        if matches!(bounded.process(kill_victim).state(), ProcState::Killed(_)) {
            assert!(
                bounded_audit.kills.iter().any(|k| k.pid == kill_victim),
                "round {round}: external kill missing from the audit log"
            );
        }
        // Batch windows surface on slice windows when batching was on.
        if batch.is_some() {
            assert!(
                bounded_audit.windows.iter().any(|w| w.batched),
                "round {round}: no slice recorded a batch window"
            );
        }
        assert!(
            bounded_audit
                .windows
                .iter()
                .any(|w| w.end != SliceEnd::Preempted),
            "round {round}: no slice recorded a terminal end"
        );
    }
}

/// **Replay determinism**: a solo kill bundle re-runs from its seeds to
/// the identical pid, violation, and kill cycle; its JSON form
/// round-trips schema- and digest-verified; and a tampered byte is
/// rejected by the digest check.
#[test]
fn solo_bundles_replay_bit_identically_and_reject_tampering() {
    let scenario = SoloScenario {
        workload: "calc".into(),
        personality: PERSONALITY,
        tier: VerifyTier::Mac,
        program_id: 0x0AB1,
        key_seed: 0x3117_0AC5,
        fault: Some(AuditFault::Trap(TrapFault {
            at_trap: 4,
            action: FaultAction::SkewCounter { delta: 2 },
        })),
    };
    let run = scenario.run();
    assert!(
        run.outcome.is_killed(),
        "the armed counter skew must kill: {:?}",
        run.outcome
    );
    let bundle = Bundle::from_solo(scenario, &run).expect("kill yields a bundle");

    // Replay from scratch (rebuild + reinstall + rerun).
    let verdict = replay(&bundle);
    assert!(verdict.matched, "replay diverged: {}", verdict.detail);

    // JSON round-trip preserves the digest and replays identically.
    let json = bundle.to_json();
    let parsed = Bundle::from_json(&json).expect("round-trip verifies");
    assert_eq!(parsed.digest(), bundle.digest());
    let verdict = replay(&parsed);
    assert!(
        verdict.matched,
        "round-tripped replay diverged: {}",
        verdict.detail
    );

    // Tampering with any recorded observable breaks the digest.
    let tampered = json.replacen("\"policy_counter\"", "\"policy_c0unter\"", 1);
    assert_ne!(tampered, json, "tamper target present");
    assert!(
        Bundle::from_json(&tampered).is_err(),
        "a tampered bundle must fail digest verification"
    );
}

/// **Fleet replay**: a kill inside a seeded, batched fleet produces a
/// bundle whose replay re-runs the interleaving to the same kill — same
/// pid, violation, kill cycle, slice index, and interleaving-prefix FNV.
#[test]
fn fleet_bundles_replay_to_the_same_kill() {
    use asc::audit::FleetScenario;
    let scenario = FleetScenario {
        procs: vec!["calc".into(), "tar".into(), "bison".into(), "calc".into()],
        personality: PERSONALITY,
        tier: VerifyTier::Mac,
        key_seed: 0x3117_0AC5,
        program_id_base: 0x0AC0,
        sched_seed: 0xF1E7_0001,
        slice_instrs: 2_000,
        budget_cycles: RUN_BUDGET,
        batch_depth: Some(4),
        fault: Some((
            1,
            TrapFault {
                at_trap: 6,
                action: FaultAction::SkewCounter { delta: 1 },
            },
        )),
    };
    let mut sched = scenario.run(Some(RecorderConfig::default()));
    let audit = sched.take_audit().expect("recorder attached");
    assert!(
        matches!(sched.process(1).state(), ProcState::Killed(_)),
        "the armed fault must kill pid 1: {:?}",
        sched.process(1).state()
    );
    let bundle = Bundle::from_fleet(&scenario, &sched, &audit, 1).expect("kill yields a bundle");
    let verdict = replay(&bundle);
    assert!(verdict.matched, "fleet replay diverged: {}", verdict.detail);

    // Round-trip through JSON and replay again.
    let parsed = Bundle::from_json(&bundle.to_json()).expect("round-trip verifies");
    let verdict = replay(&parsed);
    assert!(
        verdict.matched,
        "round-tripped fleet replay diverged: {}",
        verdict.detail
    );
}
