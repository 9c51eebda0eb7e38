//! `Bundle::from_json` rejects what `replay` cannot run. The bundle
//! digest is an unkeyed FNV, so anyone who edits a bundle can seal it
//! again with `to_json`; each case below does exactly that and requires
//! the decoder to refuse the result with an error, where replay would
//! panic (an unknown workload, a pid outside the fleet, program ids past
//! `u16::MAX`) or never return (a zero slice quantum). An integer past
//! its field's type is refused by name rather than wrapped, and a seeded
//! byte sweep over two captured bundles ends every decode in `Ok` or
//! `Err`.

use asc_audit::{
    fnv64_bytes, AuditFault, Bundle, FaultAction, FleetScenario, KillRecord, Scenario,
    SoloScenario, TrapFault,
};
use asc_core::json::Value;
use asc_kernel::{Personality, VerifyTier};
use asc_sched::{RecorderConfig, SchedPolicy};
use asc_testkit::{check, Rng};
use asc_workloads::RUN_BUDGET;

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
        policy: SchedPolicy::SeededRandom(2),
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

fn bundle(scenario: Scenario, kill: KillRecord) -> Bundle {
    Bundle {
        scenario,
        kill,
        victim: Value::Null,
        schedule: None,
    }
}

/// Seals the bundle the way anyone can, then parses it back.
fn reparse(scenario: Scenario, kill: KillRecord) -> Result<Bundle, String> {
    Bundle::from_json(&bundle(scenario, kill).to_json())
}

/// The bundle's JSON with the field at `path` set to `value`, sealed
/// again under a digest of the edited body.
fn reseal(bundle: &Bundle, path: &[&str], value: Value) -> String {
    fn set(node: &mut Value, path: &[&str], value: Value) {
        let Value::Object(fields) = node else {
            panic!("{path:?} crosses a non-object")
        };
        let (_, slot) = fields
            .iter_mut()
            .find(|(key, _)| key == path[0])
            .unwrap_or_else(|| panic!("no field {:?}", path[0]));
        match path {
            [_] => *slot = value,
            _ => set(slot, &path[1..], value),
        }
    }
    let Value::Object(mut fields) = bundle.to_value() else {
        unreachable!("a bundle is an object")
    };
    fields.retain(|(key, _)| key != "digest");
    let mut body = Value::Object(fields);
    set(&mut body, path, value);
    let digest = fnv64_bytes(body.to_pretty().as_bytes());
    let Value::Object(mut fields) = body else {
        unreachable!("still an object")
    };
    fields.push(("digest".into(), Value::Str(format!("{digest:#018x}"))));
    Value::Object(fields).to_pretty()
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

#[test]
fn resealed_integers_past_their_type_are_refused_by_name() {
    let solo_with = |fault| {
        let scenario = SoloScenario {
            fault: Some(fault),
            ..solo()
        };
        bundle(Scenario::Solo(scenario), kill(1))
    };
    let trap = |action| solo_with(AuditFault::Trap(TrapFault { at_trap: 1, action }));
    let mem = solo_with(AuditFault::Mem {
        at_instret: 1,
        addr: 0x1000,
        mask: 1,
    });
    let xor = trap(FaultAction::XorReg { index: 0, mask: 1 });
    let cache = trap(FaultAction::CorruptCache {
        selector: 0,
        mask: 1,
    });
    let skew = trap(FaultAction::SkewCounter { delta: 1 });
    let fleet = bundle(Scenario::Fleet(fleet()), kill(3));
    for sealed in [&mem, &xor, &cache, &skew, &fleet] {
        let pid = Value::Num(f64::from(sealed.kill.pid));
        assert!(Bundle::from_json(&reseal(sealed, &["kill", "pid"], pid)).is_ok());
    }
    // Each field set to 2^bits, one past the largest value its type holds.
    let cases: [(&Bundle, &[&str], u32); 12] = [
        (&mem, &["scenario", "program_id"], 16),
        (&mem, &["scenario", "fault", "addr"], 32),
        (&mem, &["scenario", "fault", "mask"], 8),
        (&xor, &["scenario", "fault", "action", "index"], 8),
        (&xor, &["scenario", "fault", "action", "mask"], 32),
        (&cache, &["scenario", "fault", "action", "mask"], 8),
        (&skew, &["scenario", "fault", "action", "delta"], 63),
        (&mem, &["kill", "pid"], 32),
        (&mem, &["kill", "site"], 32),
        (&mem, &["kill", "nr"], 16),
        (&fleet, &["scenario", "program_id_base"], 16),
        (&fleet, &["scenario", "fault", "pid"], 32),
    ];
    for (sealed, path, bits) in cases {
        let past = Value::Num((1u64 << bits) as f64);
        let err = Bundle::from_json(&reseal(sealed, path, past)).unwrap_err();
        let key = path[path.len() - 1];
        assert!(err.contains(&format!("field {key:?}")), "{path:?}: {err}");
    }
}

/// One seeded byte-level mutation of `bytes`: a bit flip, a truncation,
/// a digit or punctuation byte spliced over another, or a run of
/// inserted digits.
fn mutate(rng: &mut Rng, bytes: &mut Vec<u8>) {
    let at = rng.range_usize(0, bytes.len());
    match rng.range_u32(0, 5) {
        0 => bytes[at] ^= 1 << rng.range_u32(0, 8),
        1 => bytes.truncate(at),
        2 => bytes[at] = b'0' + rng.range_u32(0, 10) as u8,
        3 => bytes[at] = *rng.pick(b"{}[]:,\"-.0x "),
        _ => {
            let run: Vec<u8> = (0..rng.range_usize(1, 24))
                .map(|_| b'0' + rng.range_u32(0, 10) as u8)
                .collect();
            bytes.splice(at..at, run);
        }
    }
}

/// 20,000 seeded mutations, half over a captured solo bundle and half
/// over a captured round-robin fleet bundle (`"sched_seed": null`). The
/// fields are decoded before the digest is checked, so the mutations
/// reach every field decoder; each decode must return rather than panic,
/// and one that returns `Ok` must be the captured bundle itself (an
/// upper-case hex digit, say).
#[test]
fn mutated_captured_bundles_decode_to_ok_or_err() {
    let solo = SoloScenario {
        fault: Some(AuditFault::Trap(TrapFault {
            at_trap: 4,
            action: FaultAction::SkewCounter { delta: 2 },
        })),
        ..solo()
    };
    let run = solo.run();
    let solo = Bundle::from_solo(solo, &run).expect("the skew kills");
    let fleet = FleetScenario {
        procs: vec!["calc".into(), "tar".into()],
        policy: SchedPolicy::RoundRobin,
        budget_cycles: RUN_BUDGET,
        batch_depth: Some(4),
        fault: Some((
            1,
            TrapFault {
                at_trap: 6,
                action: FaultAction::SkewCounter { delta: 1 },
            },
        )),
        ..fleet()
    };
    let mut sched = fleet.run(Some(RecorderConfig::default()));
    let audit = sched.take_audit().expect("recorder attached");
    let fleet = Bundle::from_fleet(&fleet, &sched, &audit, 1).expect("the skew kills pid 1");

    for (seed, captured) in [(0x5EED_0001, &solo), (0x5EED_0002, &fleet)] {
        let json = captured.to_json();
        assert!(Bundle::from_json(&json).is_ok());
        let mut accepted = 0;
        check(seed, 10_000, |rng| {
            let mut bytes = json.clone().into_bytes();
            for _ in 0..rng.range_u32(1, 4) {
                if !bytes.is_empty() {
                    mutate(rng, &mut bytes);
                }
            }
            if let Ok(decoded) = Bundle::from_json(&String::from_utf8_lossy(&bytes)) {
                assert_eq!(decoded.to_json(), json);
                accepted += 1;
            }
        });
        assert!(accepted < 10_000, "the mutations changed nothing");
    }
}
