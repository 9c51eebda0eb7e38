//! Cross-process isolation properties of the multi-process kernel.
//!
//! The scheduler time-slices N machines on the shared virtual cycle
//! clock; each process owns its kernel (policy key, anti-replay counter,
//! alert log, stats) and a pid namespace in the shared verify cache.
//! These tests pin the isolation contract:
//!
//! * **(a) interleaving-independence** — under any seeded interleaving,
//!   every process's stdout, stderr, stats, filesystem digest, and
//!   counter are bit-identical to its solo run;
//! * **(b) kill isolation** — killing pid A mid-schedule leaves pid B's
//!   counter, cache epoch, and policy state untouched;
//! * **(c) replay rejection** — a policy-state cell captured from pid A
//!   is rejected when presented by pid B, even for the same binary;
//! * **determinism** — the same seed reproduces the interleaving, the
//!   aggregate stats, and the rendered server table bit-for-bit, and
//!   different seeds still agree on every per-pid result.

use std::sync::OnceLock;

use asc::crypto::MacKey;
use asc::installer::{Installer, InstallerOptions};
use asc::kernel::{
    FileSystem, Kernel, KernelOptions, KernelStats, Personality, ReasonCode, VerifyTier,
};
use asc::object::Binary;
use asc::sched::{ProcState, Process, SchedConfig, SchedPolicy, Scheduler};
use asc::vm::Machine;
use asc::workloads::{build, program, Guest, ProgramSpec, RUN_BUDGET};

const PERSONALITY: Personality = Personality::Linux;
const WORKLOADS: [&str; 3] = ["bison", "calc", "tar"];

fn key() -> MacKey {
    MacKey::from_seed(0x3117_0AC5)
}

/// Observables of a process's solo (unscheduled) run.
struct Solo {
    exit: u32,
    stdout: Vec<u8>,
    stderr: Vec<u8>,
    stats: KernelStats,
    fs_digest: u64,
    counter: u64,
}

struct Built {
    spec: &'static ProgramSpec,
    auth: Binary,
    solo: Solo,
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
                let solo = solo_run(spec, &Guest::installed(auth.clone(), &key()));
                Built { spec, auth, solo }
            })
            .collect()
    })
}

/// One guest per fleet binary, each parsing its artifacts once. A guest
/// holds a key handle that cannot cross threads, so tests build their
/// own from the shared binaries.
fn guests() -> Vec<Guest> {
    fleet()
        .iter()
        .map(|b| Guest::installed(b.auth.clone(), &key()))
        .collect()
}

fn machine_for(spec: &ProgramSpec, guest: &Guest) -> Machine<Kernel> {
    machine_for_tier(spec, guest, VerifyTier::Mac)
}

/// [`machine_for`] under an explicit verification tier; the flow tiers
/// get the binary's installed digraph.
fn machine_for_tier(spec: &ProgramSpec, guest: &Guest, tier: VerifyTier) -> Machine<Kernel> {
    let opts = KernelOptions::enforcing(PERSONALITY)
        .with_verify_cache()
        .with_tier(tier);
    guest
        .boot(opts, spec.fs(), spec.stdin)
        .expect("workload fits in guest memory")
}

/// Solo observables under an explicit tier (per-tier `stats` differ:
/// the flow tiers charge different verification cycles).
fn solo_tier(spec: &ProgramSpec, guest: &Guest, tier: VerifyTier) -> Solo {
    let mut machine = machine_for_tier(spec, guest, tier);
    let outcome = machine.run(RUN_BUDGET);
    let exit = match outcome {
        asc::vm::RunOutcome::Exited(code) => code,
        other => panic!(
            "{}: solo {} run did not exit: {other:?}",
            spec.name,
            tier.name()
        ),
    };
    let kernel = machine.into_handler();
    Solo {
        exit,
        stdout: kernel.stdout().to_vec(),
        stderr: kernel.stderr().to_vec(),
        stats: *kernel.stats(),
        fs_digest: kernel.fs().digest(),
        counter: kernel.policy_counter(),
    }
}

fn solo_run(spec: &ProgramSpec, guest: &Guest) -> Solo {
    let mut machine = machine_for(spec, guest);
    let outcome = machine.run(RUN_BUDGET);
    let exit = match outcome {
        asc::vm::RunOutcome::Exited(code) => code,
        other => panic!("{}: solo run did not exit: {other:?}", spec.name),
    };
    let kernel = machine.into_handler();
    Solo {
        exit,
        stdout: kernel.stdout().to_vec(),
        stderr: kernel.stderr().to_vec(),
        stats: *kernel.stats(),
        fs_digest: kernel.fs().digest(),
        counter: kernel.policy_counter(),
    }
}

/// Spawns `n` processes cycling over the fleet's workloads under a
/// shared-cache scheduler with the given policy and slice.
fn spawn_n(n: usize, policy: SchedPolicy, slice_instrs: u64) -> Scheduler {
    spawn_n_batched(n, policy, slice_instrs, None)
}

/// [`spawn_n`] with an explicit kernel batch-window depth.
fn spawn_n_batched(
    n: usize,
    policy: SchedPolicy,
    slice_instrs: u64,
    batch_depth: Option<usize>,
) -> Scheduler {
    spawn_n_tier(n, policy, slice_instrs, batch_depth, VerifyTier::Mac)
}

/// [`spawn_n_batched`] with an explicit verification tier.
fn spawn_n_tier(
    n: usize,
    policy: SchedPolicy,
    slice_instrs: u64,
    batch_depth: Option<usize>,
    tier: VerifyTier,
) -> Scheduler {
    let fleet = fleet();
    let guests = guests();
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

fn assert_matches_solo(proc: &Process, solo: &Solo, context: &str) {
    assert_eq!(
        proc.state(),
        &ProcState::Exited(solo.exit),
        "{context}: pid {} ({}) diverged from its solo outcome (alerts: {:?})",
        proc.pid(),
        proc.name(),
        proc.kernel().alerts(),
    );
    let kernel = proc.kernel();
    assert_eq!(kernel.stdout(), &solo.stdout[..], "{context}: stdout");
    assert_eq!(kernel.stderr(), &solo.stderr[..], "{context}: stderr");
    assert_eq!(proc.stats(), solo.stats, "{context}: kernel stats");
    assert_eq!(kernel.fs().digest(), solo.fs_digest, "{context}: fs digest");
    assert_eq!(kernel.policy_counter(), solo.counter, "{context}: counter");
    assert!(kernel.alerts().is_empty(), "{context}: spurious alerts");
}

/// (a) Any interleaving of N processes reproduces each process's solo
/// run byte-for-byte: 24 seeded interleavings per N ∈ {2, 4, 8} (72
/// total), mixing round-robin and seeded-random policies and three
/// preemption granularities.
#[test]
fn any_interleaving_matches_solo_runs() {
    let fleet = fleet();
    for &n in &[2usize, 4, 8] {
        for round in 0..24u64 {
            let slice = [500, 2_000, 10_000][(round % 3) as usize];
            let policy = if round % 6 == 5 {
                SchedPolicy::RoundRobin
            } else {
                SchedPolicy::SeededRandom(0x1507_A7E0 ^ (n as u64) << 32 ^ round)
            };
            let mut sched = spawn_n(n, policy, slice);
            sched.run();
            let context = format!("n={n} round={round} slice={slice} policy={policy:?}");
            for proc in sched.processes() {
                let solo = &fleet[(proc.pid() as usize - 1) % fleet.len()].solo;
                assert_matches_solo(proc, solo, &context);
            }
            // The schedule actually interleaved: every pid got slices.
            for pid in 1..=n as u32 {
                assert!(
                    sched.process(pid).slices() > 1,
                    "{context}: pid {pid} never preempted"
                );
            }
        }
    }
}

/// (b) Killing pid A mid-schedule drops only A's cache namespace and
/// leaves every peer's counter, cache epoch, and policy state exactly
/// where they were; the peers then finish bit-identical to solo.
#[test]
fn external_kill_leaves_peers_untouched() {
    let fleet = fleet();
    for seed in 0..4u64 {
        let mut sched = spawn_n(3, SchedPolicy::SeededRandom(0x0C11_5EED ^ seed), 2_000);
        // Run partway so every process has live verifier state.
        for _ in 0..60 {
            if sched.step().is_none() {
                break;
            }
        }
        let shared = sched
            .shared_cache()
            .expect("shared-cache scheduler")
            .clone();
        let peers: Vec<u32> = [2u32, 3].to_vec();
        let before: Vec<(u64, Option<u64>, KernelStats)> = peers
            .iter()
            .map(|&pid| {
                (
                    sched.process(pid).kernel().policy_counter(),
                    shared.borrow().get(pid).and_then(|c| c.state_epoch()),
                    sched.process(pid).stats(),
                )
            })
            .collect();

        sched.kill(1, "operator kill (seed test)");
        assert!(
            matches!(sched.process(1).state(), ProcState::Killed(_)),
            "pid 1 records the kill"
        );
        assert!(
            shared.borrow().get(1).is_none(),
            "pid 1's cache namespace is dropped on kill"
        );
        for (i, &pid) in peers.iter().enumerate() {
            let (counter, epoch, stats) = &before[i];
            assert_eq!(
                sched.process(pid).kernel().policy_counter(),
                *counter,
                "seed {seed}: pid {pid}'s counter moved on pid 1's kill"
            );
            assert_eq!(
                shared.borrow().get(pid).and_then(|c| c.state_epoch()),
                *epoch,
                "seed {seed}: pid {pid}'s cache epoch moved on pid 1's kill"
            );
            assert_eq!(
                &sched.process(pid).stats(),
                stats,
                "seed {seed}: pid {pid}'s stats moved on pid 1's kill"
            );
        }

        sched.run();
        for &pid in &peers {
            let solo = &fleet[(pid as usize - 1) % fleet.len()].solo;
            assert_matches_solo(
                sched.process(pid),
                solo,
                &format!("seed {seed} after killing pid 1"),
            );
        }
    }
}

/// (c) A policy-state cell captured from pid A is rejected when
/// presented by pid B — same binary, same cell address, but B's
/// in-kernel counter MACs the cell differently, so the replay is a
/// fail-stop `bad-policy-state` kill attributed to B.
#[test]
fn policy_state_replayed_across_pids_is_rejected() {
    let fleet = fleet();
    let guests = guests();
    // Pick a workload whose runs actually carry policy state.
    let (built, guest) = fleet
        .iter()
        .zip(&guests)
        .find(|(b, g)| {
            let mut machine = machine_for(b.spec, g);
            machine.run(RUN_BUDGET);
            machine.into_handler().last_policy_cell().is_some()
        })
        .expect("some workload exercises policy state");

    let mut sched = Scheduler::with_shared_cache(SchedConfig {
        policy: SchedPolicy::RoundRobin,
        slice_instrs: 2_000,
        budget_cycles: RUN_BUDGET,
        batch_depth: None,
    });
    let a = sched.spawn(built.spec.name, machine_for(built.spec, guest));
    let b = sched.spawn(built.spec.name, machine_for(built.spec, guest));

    // Run A alone until it has verified a policy-state call and its
    // counter has pulled ahead of B's (B has not run at all).
    let mut cell = None;
    for _ in 0..2_000 {
        if !sched.process(a).state().is_runnable() {
            break;
        }
        sched.run_slice(a);
        cell = sched.process(a).kernel().last_policy_cell();
        if cell.is_some() && sched.process(a).kernel().policy_counter() > 0 {
            break;
        }
    }
    let cell = cell.expect("pid A verified a policy-state call");
    let c_a = sched.process(a).kernel().policy_counter();
    let c_b = sched.process(b).kernel().policy_counter();
    assert_ne!(
        c_a, c_b,
        "counters must have diverged for the replay to matter"
    );

    // Replay: copy A's live cell bytes over B's cell (same address —
    // identical binaries) through the kernel-level physical path.
    let len = asc::crypto::POLICY_STATE_LEN as u32;
    let bytes = sched
        .process(a)
        .machine()
        .mem()
        .kread(cell, len)
        .expect("A's policy cell is mapped")
        .to_vec();
    sched
        .process_mut(b)
        .machine_mut()
        .mem_mut()
        .kwrite(cell, &bytes)
        .expect("B's policy cell is mapped");

    // B must fail-stop on its next policy-state verification.
    while sched.process(b).state().is_runnable() {
        sched.run_slice(b);
    }
    assert!(
        matches!(sched.process(b).state(), ProcState::Killed(_)),
        "pid B accepted pid A's policy state: {:?}",
        sched.process(b).state()
    );
    let alert = sched
        .process(b)
        .kernel()
        .alerts()
        .last()
        .expect("fail-stop kill carries an alert")
        .clone();
    assert_eq!(alert.reason(), ReasonCode::BadPolicyState, "{alert}");
    assert_eq!(alert.pid, b, "the kill is attributed to the replaying pid");
}

/// Everything the batch path could perturb, captured per pid plus the
/// schedule itself.
#[derive(PartialEq, Debug)]
struct PidWitness {
    state: ProcState,
    stdout: Vec<u8>,
    stderr: Vec<u8>,
    stats: KernelStats,
    fs_digest: u64,
    counter: u64,
}

struct RunWitness {
    interleaving: Vec<u32>,
    per_pid: Vec<PidWitness>,
}

fn witness(sched: &Scheduler) -> RunWitness {
    RunWitness {
        interleaving: sched.interleaving().to_vec(),
        per_pid: sched
            .processes()
            .iter()
            .map(|p| PidWitness {
                state: p.state().clone(),
                stdout: p.kernel().stdout().to_vec(),
                stderr: p.kernel().stderr().to_vec(),
                stats: p.stats(),
                fs_digest: p.kernel().fs().digest(),
                counter: p.kernel().policy_counter(),
            })
            .collect(),
    }
}

/// The batched trap path is bit-reproducible: for N ∈ {2, 8, 64, 1024},
/// running the same seeded schedule with and without a kernel batch
/// window yields the identical interleaving (hence identical FNV digest),
/// per-pid kernel stats (including `verify_cycles` / `verify_aes_blocks`),
/// stdout/stderr, filesystem digests, and anti-replay counters — only
/// shared-cache probe traffic may differ, and it must shrink.
#[test]
fn batched_verification_is_bit_identical_at_fleet_sizes() {
    for &n in &[2usize, 8, 64, 1024] {
        let policy = SchedPolicy::SeededRandom(0xF1EE_7000 ^ n as u64);
        let mut unbatched_sched = spawn_n_batched(n, policy, 2_000, None);
        unbatched_sched.run();
        let unbatched_probes = unbatched_sched
            .shared_cache()
            .expect("shared-cache scheduler")
            .borrow()
            .probes();
        let unbatched = witness(&unbatched_sched);
        drop(unbatched_sched);

        let mut batched_sched = spawn_n_batched(n, policy, 2_000, Some(16));
        batched_sched.run();
        let batch = batched_sched.batch_stats();
        let batched_probes = batched_sched
            .shared_cache()
            .expect("shared-cache scheduler")
            .borrow()
            .probes();
        let batched = witness(&batched_sched);

        assert_eq!(
            unbatched.interleaving, batched.interleaving,
            "n={n}: batching changed the schedule"
        );
        assert_eq!(
            unbatched.per_pid.len(),
            batched.per_pid.len(),
            "n={n}: process count"
        );
        for (pid0, (a, b)) in unbatched.per_pid.iter().zip(&batched.per_pid).enumerate() {
            let pid = pid0 + 1;
            assert_eq!(a.state, b.state, "n={n} pid {pid}: state");
            assert_eq!(a.stdout, b.stdout, "n={n} pid {pid}: stdout");
            assert_eq!(a.stderr, b.stderr, "n={n} pid {pid}: stderr");
            assert_eq!(a.stats, b.stats, "n={n} pid {pid}: kernel stats");
            assert_eq!(a.fs_digest, b.fs_digest, "n={n} pid {pid}: fs digest");
            assert_eq!(a.counter, b.counter, "n={n} pid {pid}: counter");
        }
        assert_eq!(
            batch.submitted, batch.drained,
            "n={n}: every submitted call drained"
        );
        assert!(batch.windows > 0, "n={n}: batch windows actually opened");
        assert_eq!(batch.max_depth, 1, "n={n}: synchronous guests");
        assert!(
            batched_probes < unbatched_probes,
            "n={n}: batching must reduce shared-cache probes \
             ({batched_probes} vs {unbatched_probes})"
        );
    }
}

/// Shard-boundary isolation at the scheduler level: killing a pid drops
/// only its namespace, leaving both a *same-shard* neighbour and a
/// *cross-shard* peer bit-untouched — under batched slices, so the
/// surviving pids also witness batch/unbatched equivalence (their solo
/// baselines ran unbatched).
#[test]
fn same_shard_and_cross_shard_pids_survive_a_kill() {
    use asc::core::pid_shard;
    let fleet = fleet();
    // Find the first pid pair that collides in the default 64-shard
    // family, plus a pid in some other shard.
    let shards = asc::core::SharedVerifyCache::new().shard_count();
    let (a, b) = (1u32..)
        .flat_map(|hi| (1..hi).map(move |lo| (lo, hi)))
        .find(|&(lo, hi)| pid_shard(lo, shards) == pid_shard(hi, shards))
        .expect("some pid pair collides");
    let n = b as usize;
    let c = (1..=n as u32)
        .find(|&pid| pid_shard(pid, shards) != pid_shard(a, shards))
        .expect("some pid lands in another shard");

    let mut sched = spawn_n_batched(n, SchedPolicy::SeededRandom(0x5AAD_B0DD), 2_000, Some(8));
    for _ in 0..20 * n {
        if sched.step().is_none() {
            break;
        }
    }
    let shared = sched
        .shared_cache()
        .expect("shared-cache scheduler")
        .clone();
    let before: Vec<(u64, Option<u64>, KernelStats)> = [b, c]
        .iter()
        .map(|&pid| {
            (
                sched.process(pid).kernel().policy_counter(),
                shared
                    .borrow()
                    .get(pid)
                    .and_then(|cache| cache.state_epoch()),
                sched.process(pid).stats(),
            )
        })
        .collect();

    if sched.process(a).state().is_runnable() {
        sched.kill(a, "operator kill (shard-boundary test)");
    } else {
        // Already exited: still exercise the namespace drop.
        shared.borrow_mut().drop_pid(a);
    }
    assert!(
        shared.borrow().get(a).is_none(),
        "pid {a}'s namespace is gone"
    );
    for (i, &pid) in [b, c].iter().enumerate() {
        let kind = if i == 0 { "same-shard" } else { "cross-shard" };
        let (counter, epoch, stats) = &before[i];
        assert_eq!(
            sched.process(pid).kernel().policy_counter(),
            *counter,
            "{kind} pid {pid}: counter moved on pid {a}'s kill"
        );
        assert_eq!(
            shared
                .borrow()
                .get(pid)
                .and_then(|cache| cache.state_epoch()),
            *epoch,
            "{kind} pid {pid}: cache epoch moved on pid {a}'s kill"
        );
        assert_eq!(
            &sched.process(pid).stats(),
            stats,
            "{kind} pid {pid}: stats moved on pid {a}'s kill"
        );
    }

    sched.run();
    for &pid in &[b, c] {
        if pid == a {
            continue;
        }
        let solo = &fleet[(pid as usize - 1) % fleet.len()].solo;
        assert_matches_solo(
            sched.process(pid),
            solo,
            &format!("after killing same-shard neighbour {a}"),
        );
    }
}

/// The fleet harness (churn + hot/cold mix + per-shard report) is
/// deterministic, and batching leaves every result except probe traffic
/// untouched there too.
#[test]
fn fleet_churn_is_deterministic_and_batch_invariant() {
    use asc_bench::fleet::{render_fleet, run_fleet, FleetConfig};
    use asc_bench::server::ServerMode;
    let config = FleetConfig {
        procs: 8,
        seed: 0xF1EE_75ED,
        slice_instrs: 2_000,
        batch_depth: Some(8),
        churn_spawns: 4,
    };
    let first = run_fleet(&config, ServerMode::Warm);
    let second = run_fleet(&config, ServerMode::Warm);
    assert_eq!(
        render_fleet(&first),
        render_fleet(&second),
        "same seed must reproduce the whole fleet report"
    );
    assert_eq!(first.spawned, 12, "churn spawned every replacement");

    let unbatched = run_fleet(
        &FleetConfig {
            batch_depth: None,
            ..config
        },
        ServerMode::Warm,
    );
    assert_eq!(first.interleaving_fnv, unbatched.interleaving_fnv);
    assert_eq!(first.aggregate, unbatched.aggregate);
    assert_eq!(first.rows.len(), unbatched.rows.len());
    for (x, y) in first.rows.iter().zip(&unbatched.rows) {
        assert_eq!(x.shard, y.shard);
        assert_eq!(x.verified, y.verified, "shard {}: verified", x.shard);
        assert_eq!(x.cache_hits, y.cache_hits, "shard {}: warm hits", x.shard);
        assert_eq!(
            (x.p50, x.p90, x.p99),
            (y.p50, y.p90, y.p99),
            "shard {}: quantiles",
            x.shard
        );
    }
    assert!(
        first.shared_probes < unbatched.shared_probes,
        "batching must reduce probes ({} vs {})",
        first.shared_probes,
        unbatched.shared_probes
    );
}

/// Same seed ⇒ bit-identical interleaving, aggregate stats, and rendered
/// server table; different seeds ⇒ different interleavings but identical
/// per-pid results.
#[test]
fn scheduler_is_deterministic_and_order_independent() {
    use asc_bench::server::{render_server, run_server, ServerConfig, ServerMode};
    let config = ServerConfig {
        procs: 4,
        seed: 0x0D15_EA5E,
        slice_instrs: 2_000,
        round_robin: false,
    };
    let first = run_server(&config, ServerMode::Warm);
    let second = run_server(&config, ServerMode::Warm);
    assert_eq!(
        first.interleaving_fnv, second.interleaving_fnv,
        "same seed must reproduce the interleaving"
    );
    assert_eq!(first.aggregate, second.aggregate);
    assert_eq!(render_server(&first), render_server(&second));

    let other = run_server(
        &ServerConfig {
            seed: config.seed + 1,
            ..config
        },
        ServerMode::Warm,
    );
    assert_ne!(
        first.interleaving_fnv, other.interleaving_fnv,
        "a different seed should pick a different interleaving"
    );
    assert_eq!(
        first.aggregate, other.aggregate,
        "aggregate stats are order-independent"
    );
    assert_eq!(first.rows.len(), other.rows.len());
    for (x, y) in first.rows.iter().zip(&other.rows) {
        assert_eq!(x.pid, y.pid);
        assert_eq!(x.workload, y.workload);
        assert_eq!(x.cycles, y.cycles, "pid {}: cycles", x.pid);
        assert_eq!(x.syscalls, y.syscalls, "pid {}: syscalls", x.pid);
        assert_eq!(x.verified, y.verified, "pid {}: verified", x.pid);
        assert_eq!(x.cache_hits, y.cache_hits, "pid {}: cache hits", x.pid);
        assert_eq!(
            (x.p50, x.p90, x.p99),
            (y.p50, y.p90, y.p99),
            "pid {}: quantiles",
            x.pid
        );
    }
}

/// Flow-tier state (`last_syscall`) is per-pid: each process's kernel
/// tracks its own transition chain, so three interleaved workloads show
/// *different* last-syscall values mid-schedule (a shared chain would
/// force them equal — and would kill on every context switch, since one
/// pid's `execve` followed by a peer's `read` is rarely a digraph edge).
/// Killing a pid leaves every peer's flow state exactly where it was,
/// and the survivors still finish bit-identical to their solo runs.
#[test]
fn flow_state_is_per_pid_and_kills_do_not_leak() {
    let fleet = fleet();
    for (ti, &tier) in VerifyTier::ALL
        .iter()
        .enumerate()
        .filter(|(_, t)| t.checks_flow())
    {
        let solos: Vec<Solo> = fleet
            .iter()
            .zip(&guests())
            .map(|(b, g)| solo_tier(b.spec, g, tier))
            .collect();
        let mut sched = spawn_n_tier(
            3,
            SchedPolicy::SeededRandom(0xF10A_57A7 ^ ti as u64),
            2_000,
            None,
            tier,
        );
        // Run partway, sampling every pid's flow state after each slice.
        let mut saw_divergence = false;
        let mut saw_state = false;
        for _ in 0..60 {
            if sched.step().is_none() {
                break;
            }
            let last: Vec<Option<u16>> = (1..=3u32)
                .map(|pid| sched.process(pid).kernel().last_syscall())
                .collect();
            saw_state |= last.iter().any(Option::is_some);
            saw_divergence |= last
                .iter()
                .any(|l| l.is_some() && last.iter().any(|m| m.is_some() && m != l));
        }
        assert!(saw_state, "{}: no pid ever dispatched a call", tier.name());
        assert!(
            saw_divergence,
            "{}: three different workloads never disagreed on last_syscall — \
             the flow chain looks shared, not per-pid",
            tier.name()
        );

        // Killing pid 1 must not move any peer's flow state.
        let before: Vec<Option<u16>> = [2u32, 3]
            .iter()
            .map(|&pid| sched.process(pid).kernel().last_syscall())
            .collect();
        sched.kill(1, "operator kill (flow-state test)");
        for (i, &pid) in [2u32, 3].iter().enumerate() {
            assert_eq!(
                sched.process(pid).kernel().last_syscall(),
                before[i],
                "{}: pid {pid}'s flow state moved on pid 1's kill",
                tier.name()
            );
        }

        sched.run();
        for &pid in &[2u32, 3] {
            let solo = &solos[(pid as usize - 1) % fleet.len()];
            assert_matches_solo(
                sched.process(pid),
                solo,
                &format!("{} after killing pid 1", tier.name()),
            );
        }
    }
}

/// Batch windows are tier-transparent: under *every* tier, running the
/// same seeded schedule with and without a batch window yields the
/// identical interleaving, per-pid states, stdout/stderr, kernel stats
/// (including flow-check and MAC cycles), filesystem digests, and
/// counters. The MAC tiers must actually open windows and shrink
/// shared-cache probe traffic; `flow-only` runs no MAC work, so it
/// opens none and probes nothing either way.
#[test]
fn batched_windows_are_bit_identical_under_every_tier() {
    for (ti, &tier) in VerifyTier::ALL.iter().enumerate() {
        let n = 8;
        let policy = SchedPolicy::SeededRandom(0xBA7C_47E0 ^ ti as u64);
        let mut unbatched_sched = spawn_n_tier(n, policy, 2_000, None, tier);
        unbatched_sched.run();
        let unbatched_probes = unbatched_sched
            .shared_cache()
            .expect("shared-cache scheduler")
            .borrow()
            .probes();
        let unbatched = witness(&unbatched_sched);
        drop(unbatched_sched);

        let mut batched_sched = spawn_n_tier(n, policy, 2_000, Some(16), tier);
        batched_sched.run();
        let batch = batched_sched.batch_stats();
        let batched_probes = batched_sched
            .shared_cache()
            .expect("shared-cache scheduler")
            .borrow()
            .probes();
        let batched = witness(&batched_sched);

        let name = tier.name();
        assert_eq!(
            unbatched.interleaving, batched.interleaving,
            "{name}: batching changed the schedule"
        );
        for (pid0, (a, b)) in unbatched.per_pid.iter().zip(&batched.per_pid).enumerate() {
            let pid = pid0 + 1;
            assert_eq!(a, b, "{name} pid {pid}: batched run diverged");
        }
        assert_eq!(
            batch.submitted, batch.drained,
            "{name}: every submitted call drained"
        );
        if tier.checks_mac() {
            assert!(batch.windows > 0, "{name}: batch windows actually opened");
            assert!(
                batched_probes < unbatched_probes,
                "{name}: batching must reduce shared-cache probes \
                 ({batched_probes} vs {unbatched_probes})"
            );
        } else {
            assert_eq!(batch.windows, 0, "{name}: no MAC work, no windows");
            assert_eq!(
                (batched_probes, unbatched_probes),
                (0, 0),
                "{name}: the flow tier never probes the shared cache"
            );
        }
    }
}

/// Origin kills are pid-local: a fleet of benign workloads plus one
/// hostile raw-`SYSCALL`-gadget guest (installed with its `.ascsites`
/// registry) loses exactly the gadget pid — killed with an attributed
/// `unrewritten-site` alert before its smuggled `write` produces a
/// byte — while every peer finishes bit-identical to its solo run, at
/// N ∈ {2, 8, 64}.
#[test]
fn gadget_pid_dies_alone_with_an_attributed_origin_kill() {
    let fleet = fleet();
    let spec = asc::workloads::hostile::hostile("gadget").expect("gadget in the corpus");
    let plain = asc::workloads::hostile::build_hostile(spec).expect("gadget assembles");
    let installer = Installer::new(
        key(),
        InstallerOptions::new(PERSONALITY).with_program_id(0x0AB7),
    );
    let (auth, _) = installer
        .install(&plain, spec.name)
        .expect("gadget installs");
    let gadget_guest = Guest::installed(auth, &key());

    for &n in &[2usize, 8, 64] {
        let mut sched = spawn_n(n, SchedPolicy::SeededRandom(0x0619_0AD6 ^ n as u64), 2_000);
        let opts = KernelOptions::enforcing(PERSONALITY).with_verify_cache();
        let gadget = sched.spawn(
            spec.name,
            gadget_guest
                .boot(opts, FileSystem::new(), &[])
                .expect("gadget fits"),
        );
        sched.run();

        let proc = sched.process(gadget);
        assert!(
            matches!(proc.state(), ProcState::Killed(_)),
            "n={n}: gadget pid survived: {:?}",
            proc.state()
        );
        let alert = proc
            .kernel()
            .alerts()
            .last()
            .expect("origin kill carries an alert");
        assert_eq!(alert.reason(), ReasonCode::UnrewrittenSite, "{alert}");
        assert_eq!(
            alert.pid, gadget,
            "the kill is attributed to the gadget pid"
        );
        assert!(
            proc.kernel().stdout().is_empty(),
            "n={n}: the smuggled write escaped: {:?}",
            String::from_utf8_lossy(proc.kernel().stdout())
        );
        assert!(
            proc.kernel().trace().is_empty(),
            "n={n}: a gadget call was dispatched"
        );

        for proc in sched.processes() {
            if proc.pid() == gadget {
                continue;
            }
            let solo = &fleet[(proc.pid() as usize - 1) % fleet.len()].solo;
            assert_matches_solo(proc, solo, &format!("n={n} with a gadget peer"));
        }
    }
}
