//! Forensic audit bundles: on-kill capture and deterministic
//! replay-to-kill.
//!
//! The paper's fail-stop response (§3.4) kills a process the moment a
//! verification check fails. This crate turns that one-line alert into a
//! complete forensic artifact:
//!
//! * a [`Bundle`] serializes *everything* an operator needs about a kill —
//!   the victim's last spans with per-check AES-block partitions, the
//!   structured alert and reason code, policy-counter state, cache-shard
//!   stats, ring drop accounting, and (for fleets) the scheduler seed and
//!   the interleaving window around the kill — as `asc_core::json`, with
//!   an FNV-64 digest over the rendered bytes;
//! * [`replay`] re-runs the bundle's [`Scenario`] from its seeds and
//!   asserts the same pid dies with the same violation at the same cycle,
//!   bit-identically — every production alert becomes a reproducible test
//!   case.
//!
//! The trap-time fault types live here too: [`TrapFault`], its
//! [`FaultAction`], and [`ArmedKernel`], the handler that wraps a
//! `Kernel` with one armed fault and fires it through the kernel's one
//! fault seam, the verify-stage hook of `Kernel::trap_with`. Every run a
//! bundle records or replays with a trap fault runs on that handler.
//!
//! Replay soundness rests on the workspace's determinism discipline: a
//! scenario is a pure function of its seeds (build → install → key →
//! fault → schedule), so the only way a replay can diverge is if the
//! bundle lied or the system is nondeterministic. The fault campaign
//! (`asc-faults`) replays every kill it induces and classifies any
//! divergence as `IRREPRODUCIBLE` — asserted zero.

mod armed;
mod bundle;
mod scenario;

pub use armed::{ArmedKernel, FaultAction, TrapFault};
pub use bundle::{replay_solo_in, Bundle, KillRecord, ReplayVerdict, BUNDLE_SCHEMA};
pub use scenario::{
    flip_byte, run_solo, scenario_options, AuditFault, FleetScenario, Scenario, SoloRun,
    SoloScenario, BUNDLE_SPAN_CAPACITY,
};

use asc_core::json::Value;
use asc_sched::Pid;

/// FNV-1a over a byte string (the bundle digest primitive).
pub fn fnv64_bytes(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in bytes {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// FNV-1a over a pid sequence, each pid contributing its four
/// little-endian bytes: the interleaving digest bundles record and the
/// scheduler benchmarks print.
pub fn fnv64_pids(pids: &[Pid]) -> u64 {
    let mut bytes = Vec::with_capacity(pids.len() * 4);
    for pid in pids {
        bytes.extend_from_slice(&pid.to_le_bytes());
    }
    fnv64_bytes(&bytes)
}

/// Renders a `u64` as the workspace's canonical zero-padded hex string
/// (JSON numbers only cover integers below 2^53 exactly).
pub(crate) fn hex64(x: u64) -> Value {
    Value::Str(format!("{x:#018x}"))
}

/// Parses a [`hex64`]-rendered value (also accepts plain JSON numbers).
pub(crate) fn parse_u64(value: &Value) -> Result<u64, String> {
    if let Some(n) = value.as_u64() {
        return Ok(n);
    }
    let text = value.as_str().ok_or("expected a number or hex string")?;
    let hex = text
        .strip_prefix("0x")
        .ok_or_else(|| format!("expected 0x-prefixed hex, got {text:?}"))?;
    u64::from_str_radix(hex, 16).map_err(|e| format!("bad hex {text:?}: {e}"))
}

pub(crate) fn num(x: u64) -> Value {
    Value::Num(x as f64)
}

pub(crate) fn field<'a>(value: &'a Value, key: &str) -> Result<&'a Value, String> {
    value
        .get(key)
        .ok_or_else(|| format!("missing field {key:?}"))
}

pub(crate) fn str_field(value: &Value, key: &str) -> Result<String, String> {
    Ok(field(value, key)?
        .as_str()
        .ok_or_else(|| format!("field {key:?} is not a string"))?
        .to_string())
}

pub(crate) fn u64_field(value: &Value, key: &str) -> Result<u64, String> {
    parse_u64(field(value, key)?).map_err(|e| format!("field {key:?}: {e}"))
}

/// Serializes one trace event for a bundle's span log. `at` is the event's
/// stamp on the scheduler's shared clock (equal to the machine-local stamp
/// for solo runs); the machine-local stamp rides along as `local`.
pub fn event_to_value(at: u64, event: &asc_trace::Event) -> Value {
    use asc_trace::{CheckKind, EventKind, Severity};
    let severity = match event.severity {
        Severity::Info => "info",
        Severity::Warn => "warn",
        Severity::Alert => "alert",
    };
    let mut fields = vec![
        ("at".into(), num(at)),
        ("local".into(), num(event.at_cycles)),
        (
            "span".into(),
            Value::Object(vec![
                ("pid".into(), num(u64::from(event.span.pid()))),
                ("local".into(), num(event.span.local())),
            ]),
        ),
        ("severity".into(), Value::Str(severity.into())),
    ];
    match &event.kind {
        EventKind::TrapEnter { site, nr } => {
            fields.push(("kind".into(), Value::Str("trap-enter".into())));
            fields.push(("site".into(), num(u64::from(*site))));
            fields.push(("nr".into(), num(u64::from(*nr))));
        }
        EventKind::Check { record, cycles } => {
            fields.push(("kind".into(), Value::Str("check".into())));
            fields.push(("check".into(), Value::Str(record.kind.name().into())));
            let arg = match record.kind {
                CheckKind::AuthString { arg }
                | CheckKind::Pattern { arg }
                | CheckKind::Capability { arg } => Some(arg),
                _ => None,
            };
            if let Some(arg) = arg {
                fields.push(("arg".into(), num(arg as u64)));
            }
            fields.push(("passed".into(), Value::Bool(record.passed)));
            fields.push(("aes_blocks".into(), num(record.aes_blocks)));
            fields.push(("bytes".into(), num(record.bytes)));
            fields.push(("cache".into(), Value::Str(record.cache.name().into())));
            fields.push(("cycles".into(), num(*cycles)));
        }
        EventKind::TrapExit {
            verified: _,
            cache_hit,
            verify_cycles,
            fixed_cycles,
        } => {
            fields.push(("kind".into(), Value::Str("trap-exit".into())));
            fields.push(("cache_hit".into(), Value::Bool(*cache_hit)));
            fields.push(("verify_cycles".into(), num(*verify_cycles)));
            fields.push(("fixed_cycles".into(), num(*fixed_cycles)));
        }
        EventKind::Kill { site, nr, reason } => {
            fields.push(("kind".into(), Value::Str("kill".into())));
            fields.push(("site".into(), num(u64::from(*site))));
            fields.push(("nr".into(), num(u64::from(*nr))));
            fields.push(("reason".into(), Value::Str(reason.code().into())));
        }
        EventKind::InstallerPass { pass, .. } => {
            fields.push(("kind".into(), Value::Str("installer-pass".into())));
            fields.push(("pass".into(), Value::Str(pass.clone())));
        }
    }
    Value::Object(fields)
}

/// Replays a bundle from scratch: rebuilds the scenario from its seeds
/// (build → install → schedule) and re-runs it to the kill, comparing
/// pid, violation, and kill cycle bit-identically.
pub fn replay(bundle: &Bundle) -> ReplayVerdict {
    match &bundle.scenario {
        Scenario::Solo(solo) => {
            let (spec, guest) = solo.prepare();
            bundle::replay_solo_in(bundle, spec, &guest)
        }
        Scenario::Fleet(fleet) => bundle::replay_fleet(bundle, fleet),
    }
}
