//! The armed handler and the kernel's one fault hook. With nothing
//! armed, [`ArmedKernel`] is bit-identical to the bare [`Kernel`], solo
//! and as a fleet; a fault armed at trap `k` fires on trap `k`, and one
//! armed past the last trap never fires.

use asc_audit::{
    run_solo, scenario_options, ArmedKernel, AuditFault, FaultAction, SoloRun, SoloScenario,
    TrapFault,
};
use asc_kernel::{Kernel, Personality, VerifyTier};
use asc_sched::{KernelHandler, ProcState, SchedConfig, SchedPolicy, Scheduler};
use asc_vm::{Machine, RunOutcome};
use asc_workloads::{Guest, ProgramSpec, RUN_BUDGET};

const PERSONALITY: Personality = Personality::Linux;
const KEY_SEED: u64 = 0xA4ED_0001;

fn scenario(workload: &str, program_id: u16) -> SoloScenario {
    SoloScenario {
        workload: workload.into(),
        personality: PERSONALITY,
        tier: VerifyTier::Mac,
        program_id,
        key_seed: KEY_SEED,
        fault: None,
    }
}

fn boot(spec: &ProgramSpec, guest: &Guest) -> Machine<Kernel> {
    let opts = scenario_options(PERSONALITY, VerifyTier::Mac);
    guest.boot(opts, spec.fs(), spec.stdin).expect("fits")
}

/// Every observable of a solo run but the span log, which only
/// `run_solo`'s ring records.
fn observables(run: &SoloRun) -> impl PartialEq + std::fmt::Debug {
    (
        (run.outcome.clone(), run.cycles, run.instret),
        (run.stdout.clone(), run.stderr.clone(), run.trace.clone()),
        (run.alerts.clone(), run.fs_digest, run.stats, run.cache),
        run.policy_counter,
    )
}

fn run_to_end<H: KernelHandler>(mut machine: Machine<H>) -> SoloRun {
    let outcome = machine.run(RUN_BUDGET);
    SoloRun::capture(outcome, &machine)
}

#[test]
fn an_unarmed_handler_runs_solo_exactly_as_the_bare_kernel() {
    for workload in ["calc", "tar", "bison"] {
        let (spec, guest) = scenario(workload, 0x0A10).prepare();
        let bare = run_to_end(boot(spec, &guest));
        assert!(bare.outcome.is_success(), "{workload}: {:?}", bare.outcome);
        let armed = run_to_end(boot(spec, &guest).map_handler(|k| ArmedKernel::new(k, None)));
        assert_eq!(observables(&armed), observables(&bare), "{workload}");
    }
}

/// Spawns eight processes over three workloads under one seed.
fn fleet<H: KernelHandler>(wrap: impl Fn(Kernel) -> H) -> Scheduler<H> {
    let built: Vec<_> = ["calc", "tar", "bison"]
        .iter()
        .zip(0x0A20..)
        .map(|(w, id)| scenario(w, id).prepare())
        .collect();
    let mut sched = Scheduler::with_shared_cache(SchedConfig {
        policy: SchedPolicy::SeededRandom(0xA4ED_F1EE),
        slice_instrs: 2_000,
        budget_cycles: RUN_BUDGET,
        batch_depth: Some(4),
    });
    for i in 0..8 {
        let (spec, guest) = &built[i % built.len()];
        sched.spawn(spec.name, boot(spec, guest).map_handler(&wrap));
    }
    sched.run();
    sched
}

#[test]
fn an_unarmed_fleet_runs_exactly_as_the_bare_fleet() {
    let bare = fleet(|k| k);
    let armed = fleet(|k| ArmedKernel::new(k, None));
    assert_eq!(armed.clock(), bare.clock());
    assert_eq!(armed.interleaving(), bare.interleaving());
    for (a, b) in armed.processes().iter().zip(bare.processes()) {
        assert_eq!(b.state(), &ProcState::Exited(0), "pid {}", b.pid());
        assert_eq!(a.state(), b.state(), "pid {}", a.pid());
        assert_eq!(a.machine().cycles(), b.machine().cycles());
        assert_eq!(a.machine().instret(), b.machine().instret());
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.stdout(), b.stdout());
        assert_eq!(a.kernel().trace(), b.kernel().trace());
        assert_eq!(a.kernel().cache_stats(), b.kernel().cache_stats());
        assert_eq!(a.kernel().policy_counter(), b.kernel().policy_counter());
    }
}

fn skew_at(at_trap: u64) -> AuditFault {
    AuditFault::Trap(TrapFault {
        at_trap,
        action: FaultAction::SkewCounter { delta: 1 },
    })
}

#[test]
fn a_counter_skew_armed_at_trap_k_kills_on_trap_k() {
    let scenario = scenario("calc", 0x0A30);
    let (spec, guest) = scenario.prepare();
    let opts = || scenario.options();
    let clean = run_solo(spec, &guest, opts(), None);
    let traps = clean.stats.syscalls;
    assert!(traps >= 4, "calc traps {traps} times");
    for k in [1, 2, traps / 2, traps] {
        let run = run_solo(spec, &guest, opts(), Some(&skew_at(k)));
        assert!(run.outcome.is_killed(), "k = {k}: {:?}", run.outcome);
        assert_eq!(run.stats.syscalls, k, "k = {k}");
        assert_eq!(run.trace.len() as u64, k - 1, "k = {k}");
        assert_eq!(run.trace[..], clean.trace[..k as usize - 1]);
    }
    let late = run_solo(spec, &guest, opts(), Some(&skew_at(traps + 1)));
    assert_eq!(observables(&late), observables(&clean));
    assert_eq!(late.outcome, RunOutcome::Exited(0));
}
