//! `FleetScenario::spawn` boots only the guests its own `prepare` makes.
//! One prepared set spawns any scenario that differs in policy, tier,
//! batching or fault; guests installed under another key seed,
//! personality or program id base, or missing a workload, are refused
//! with a panic, so every spawned fleet is the one its fields describe.

use std::panic::{catch_unwind, AssertUnwindSafe};

use asc_audit::{FaultAction, FleetScenario, TrapFault};
use asc_kernel::{Personality, VerifyTier};
use asc_sched::{ProcState, SchedPolicy};
use asc_workloads::RUN_BUDGET;

fn scenario() -> FleetScenario {
    FleetScenario {
        procs: vec!["calc".into(), "tar".into(), "calc".into()],
        personality: Personality::Linux,
        tier: VerifyTier::Mac,
        key_seed: 0xF1EE_6E57,
        program_id_base: 0x0E00,
        policy: SchedPolicy::RoundRobin,
        slice_instrs: 2_000,
        budget_cycles: RUN_BUDGET,
        batch_depth: None,
        fault: None,
    }
}

#[test]
fn spawn_takes_only_the_guests_of_its_own_install() {
    let base = scenario();
    let guests = base.prepare();
    let names: Vec<_> = guests.guests().iter().map(|(spec, _)| spec.name).collect();
    assert_eq!(names, ["calc", "tar"], "one guest per distinct workload");
    let ids: Vec<_> = guests
        .guests()
        .iter()
        .map(|(_, guest)| guest.binary().program_id())
        .collect();
    assert_eq!(ids, [0x0E00, 0x0E01], "ids in order of first appearance");

    let variant = FleetScenario {
        tier: VerifyTier::MacPlusFlow,
        policy: SchedPolicy::SeededRandom(5),
        batch_depth: Some(4),
        fault: Some((
            2,
            TrapFault {
                at_trap: 3,
                action: FaultAction::SkewCounter { delta: 1 },
            },
        )),
        ..base.clone()
    };
    let mut sched = variant.spawn(&guests);
    sched.run();
    assert!(matches!(sched.process(2).state(), ProcState::Killed(_)));
    assert_eq!(sched.process(1).state(), &ProcState::Exited(0));

    let refused = [
        (
            FleetScenario {
                key_seed: base.key_seed + 1,
                ..base.clone()
            },
            "key seed",
        ),
        (
            FleetScenario {
                personality: Personality::OpenBsd,
                ..base.clone()
            },
            "openbsd",
        ),
        (
            FleetScenario {
                program_id_base: base.program_id_base + 1,
                ..base.clone()
            },
            "program id",
        ),
        (
            FleetScenario {
                procs: vec!["tar".into(), "calc".into()],
                ..base.clone()
            },
            "program id",
        ),
        (
            FleetScenario {
                procs: vec!["calc".into(), "bison".into()],
                ..base.clone()
            },
            "no guest",
        ),
    ];
    for (other, want) in refused {
        let panic = catch_unwind(AssertUnwindSafe(|| other.spawn(&guests)))
            .expect_err("spawn must refuse another scenario's guests");
        let message = panic.downcast_ref::<String>().expect("a formatted panic");
        assert!(message.contains(want), "{want}: {message}");
    }
}
