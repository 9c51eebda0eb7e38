//! `Bundle::from_json` rejects what `replay` cannot run. The bundle
//! digest is an unkeyed FNV, so anyone who edits a bundle can seal it
//! again with `to_json`; each case below does exactly that and requires
//! the decoder to refuse the result with an error, where replay would
//! panic (an unknown workload, a pid outside the fleet, program ids past
//! `u16::MAX`) or never return (a zero slice quantum).

use asc_audit::{
    Bundle, FaultAction, FleetScenario, KillRecord, Scenario, SoloScenario, TrapFault,
};
use asc_core::json::Value;
use asc_kernel::{Personality, VerifyTier};

fn kill(pid: u32) -> KillRecord {
    KillRecord {
        pid,
        site: 0x1000,
        nr: 4,
        syscall: "write".into(),
        reason: "call-mac".into(),
        alert: "ALERT".into(),
        kill_cycles: 10,
        syscalls: 1,
        policy_counter: 1,
        sched_clock: None,
        slice_index: None,
        interleaving_fnv: None,
    }
}

fn solo() -> SoloScenario {
    SoloScenario {
        workload: "calc".into(),
        personality: Personality::Linux,
        tier: VerifyTier::Mac,
        program_id: 7,
        key_seed: 1,
        fault: None,
    }
}

fn fleet() -> FleetScenario {
    FleetScenario {
        procs: vec!["calc".into(), "bison".into(), "calc".into()],
        personality: Personality::Linux,
        tier: VerifyTier::Mac,
        key_seed: 1,
        program_id_base: 40,
        sched_seed: 2,
        slice_instrs: 1000,
        budget_cycles: 1 << 30,
        batch_depth: None,
        fault: Some((
            2,
            TrapFault {
                at_trap: 3,
                action: FaultAction::XorReg { index: 0, mask: 1 },
            },
        )),
    }
}

/// Seals the bundle the way anyone can, then parses it back.
fn reparse(scenario: Scenario, kill: KillRecord) -> Result<Bundle, String> {
    let bundle = Bundle {
        scenario,
        kill,
        victim: Value::Null,
        schedule: None,
    };
    Bundle::from_json(&bundle.to_json())
}

#[test]
fn resealed_solo_bundles_that_replay_cannot_run_are_rejected() {
    assert!(reparse(Scenario::Solo(solo()), kill(1)).is_ok());
    let unknown = SoloScenario {
        workload: "no-such-workload".into(),
        ..solo()
    };
    let err = reparse(Scenario::Solo(unknown), kill(1)).unwrap_err();
    assert!(err.contains("unknown workload"), "{err}");
}

#[test]
fn resealed_fleet_bundles_that_replay_cannot_run_are_rejected() {
    assert!(reparse(Scenario::Fleet(fleet()), kill(3)).is_ok());
    let last_id = FleetScenario {
        program_id_base: u16::MAX - 1,
        ..fleet()
    };
    assert!(reparse(Scenario::Fleet(last_id), kill(1)).is_ok());
    let fault_at = |pid| FleetScenario {
        fault: fleet().fault.map(|(_, tf)| (pid, tf)),
        ..fleet()
    };
    let cases = [
        (
            FleetScenario {
                slice_instrs: 0,
                ..fleet()
            },
            1,
            "slice_instrs",
        ),
        (fault_at(0), 1, "fault pid 0"),
        (fault_at(4), 1, "fault pid 4"),
        (fleet(), 0, "kill pid 0"),
        (fleet(), 4, "kill pid 4"),
        (
            FleetScenario {
                procs: vec!["calc".into(), "no-such-workload".into()],
                ..fleet()
            },
            1,
            "unknown workload",
        ),
        (
            FleetScenario {
                program_id_base: u16::MAX,
                ..fleet()
            },
            1,
            "program ids",
        ),
    ];
    for (scenario, pid, want) in cases {
        let err = reparse(Scenario::Fleet(scenario), kill(pid)).unwrap_err();
        assert!(err.contains(want), "{want}: {err}");
    }
}
