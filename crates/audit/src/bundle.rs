//! The forensic bundle: serialization, digesting, and replay verdicts.

use asc_core::json::Value;
use asc_core::{pid_shard, CacheStats};
use asc_kernel::KernelStats;
use asc_sched::{AuditLog, KernelHandler, Pid, Scheduler};
use asc_workloads::{Guest, ProgramSpec};

use crate::scenario::{FleetScenario, Scenario, SoloRun};
use crate::{
    event_to_value, field, fnv64_bytes, fnv64_pids, hex64, int_field, num, run_solo, str_field,
    u64_field, BUNDLE_SPAN_CAPACITY,
};

/// Bundle schema identifier (bumped on incompatible layout changes).
pub const BUNDLE_SCHEMA: &str = "asc-audit-bundle/v1";

/// Shard count used for the victim's cache-shard attribution (matches the
/// fleet benchmark's `FLEET_SHARDS`).
const AUDIT_SHARDS: usize = 64;

/// The kill a bundle reproduces, with every comparison target replay
/// checks bit-identically.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KillRecord {
    /// The killed pid.
    pub pid: u32,
    /// Call-site address of the killing trap.
    pub site: u32,
    /// Trapped syscall number.
    pub nr: u16,
    /// The personality's name for that syscall.
    pub syscall: String,
    /// Structured reason code (kebab-case).
    pub reason: String,
    /// The full alert rendering (covers pid, violation, site, syscall).
    pub alert: String,
    /// The victim's machine-cycle clock at the kill.
    pub kill_cycles: u64,
    /// Traps the victim had taken, including the killing one.
    pub syscalls: u64,
    /// The victim's in-kernel anti-replay counter at the kill.
    pub policy_counter: u64,
    /// Fleet only: the scheduler's shared clock at the end of the killing
    /// slice.
    pub sched_clock: Option<u64>,
    /// Fleet only: global slice index of the killing slice.
    pub slice_index: Option<u64>,
    /// Fleet only: FNV-64 of the interleaving through the killing slice.
    pub interleaving_fnv: Option<u64>,
}

impl KillRecord {
    fn to_value(&self) -> Value {
        let opt = |v: Option<u64>| v.map(num).unwrap_or(Value::Null);
        Value::Object(vec![
            ("pid".into(), num(u64::from(self.pid))),
            ("site".into(), num(u64::from(self.site))),
            ("nr".into(), num(u64::from(self.nr))),
            ("syscall".into(), Value::Str(self.syscall.clone())),
            ("reason".into(), Value::Str(self.reason.clone())),
            ("alert".into(), Value::Str(self.alert.clone())),
            ("kill_cycles".into(), num(self.kill_cycles)),
            ("syscalls".into(), num(self.syscalls)),
            ("policy_counter".into(), num(self.policy_counter)),
            ("sched_clock".into(), opt(self.sched_clock)),
            ("slice_index".into(), opt(self.slice_index)),
            (
                "interleaving_fnv".into(),
                self.interleaving_fnv.map(hex64).unwrap_or(Value::Null),
            ),
        ])
    }

    fn from_value(value: &Value) -> Result<KillRecord, String> {
        let opt = |key: &str| -> Result<Option<u64>, String> {
            match field(value, key)? {
                Value::Null => Ok(None),
                v => Ok(Some(crate::parse_u64(v)?)),
            }
        };
        Ok(KillRecord {
            pid: int_field(value, "pid")?,
            site: int_field(value, "site")?,
            nr: int_field(value, "nr")?,
            syscall: str_field(value, "syscall")?,
            reason: str_field(value, "reason")?,
            alert: str_field(value, "alert")?,
            kill_cycles: u64_field(value, "kill_cycles")?,
            syscalls: u64_field(value, "syscalls")?,
            policy_counter: u64_field(value, "policy_counter")?,
            sched_clock: opt("sched_clock")?,
            slice_index: opt("slice_index")?,
            interleaving_fnv: opt("interleaving_fnv")?,
        })
    }
}

fn stats_to_value(s: &KernelStats) -> Value {
    Value::Object(vec![
        ("syscalls".into(), num(s.syscalls)),
        ("verified".into(), num(s.verified)),
        ("verify_aes_blocks".into(), num(s.verify_aes_blocks)),
        ("verify_cycles".into(), num(s.verify_cycles)),
        ("kernel_cycles".into(), num(s.kernel_cycles)),
        ("cache_hits".into(), num(s.cache_hits)),
        ("warm_aes_blocks".into(), num(s.warm_aes_blocks)),
        ("warm_verify_cycles".into(), num(s.warm_verify_cycles)),
        ("cache_fallbacks".into(), num(s.cache_fallbacks)),
        ("cache_scrubs".into(), num(s.cache_scrubs)),
    ])
}

fn cache_to_value(c: &CacheStats) -> Value {
    Value::Object(vec![
        ("hits".into(), num(c.hits)),
        ("misses".into(), num(c.misses)),
        ("blob_hits".into(), num(c.blob_hits)),
        ("state_hits".into(), num(c.state_hits)),
        ("evictions".into(), num(c.evictions)),
        ("stale_misses".into(), num(c.stale_misses)),
        ("scrubs".into(), num(c.scrubs)),
    ])
}

/// One forensic bundle: a [`Scenario`] (how to reproduce the run), a
/// [`KillRecord`] (what replay must match), the victim's forensic payload
/// (last spans, counters, cache-shard stats, ring accounting), and — for
/// fleets — the scheduling context around the kill.
#[derive(Clone, Debug)]
pub struct Bundle {
    /// The scenario replay re-runs.
    pub scenario: Scenario,
    /// The kill and its bit-exact comparison targets.
    pub kill: KillRecord,
    /// The victim's forensic payload (opaque JSON; carried verbatim
    /// through parse → serialize round trips).
    pub victim: Value,
    /// Fleet scheduling context around the kill, if any.
    pub schedule: Option<Value>,
}

impl Bundle {
    /// Captures a bundle from a solo run that died. Returns `None` if the
    /// run was not a kill or carries no alert (both campaign anomalies in
    /// their own right).
    pub fn from_solo(scenario: crate::SoloScenario, run: &SoloRun) -> Option<Bundle> {
        if !run.outcome.is_killed() {
            return None;
        }
        let alert = run.alerts.last()?;
        let kill = KillRecord {
            pid: alert.pid,
            site: alert.site,
            nr: alert.nr,
            syscall: alert.name.clone(),
            reason: alert.reason().code().into(),
            alert: alert.to_string(),
            kill_cycles: run.cycles,
            syscalls: run.stats.syscalls,
            policy_counter: run.policy_counter,
            sched_clock: None,
            slice_index: None,
            interleaving_fnv: None,
        };
        let victim = Value::Object(vec![
            ("stats".into(), stats_to_value(&run.stats)),
            ("cache".into(), cache_to_value(&run.cache)),
            (
                "cache_shard".into(),
                num(pid_shard(alert.pid, AUDIT_SHARDS) as u64),
            ),
            (
                "spans".into(),
                Value::Array(
                    run.spans
                        .iter()
                        .map(|e| event_to_value(e.at_cycles, e))
                        .collect(),
                ),
            ),
            (
                "ring".into(),
                Value::Object(vec![
                    ("capacity".into(), num(BUNDLE_SPAN_CAPACITY as u64)),
                    ("retained".into(), num(run.spans.len() as u64)),
                    ("dropped".into(), num(run.ring_dropped)),
                ]),
            ),
        ]);
        Some(Bundle {
            scenario: Scenario::Solo(scenario),
            kill,
            victim,
            schedule: None,
        })
    }

    /// Captures a bundle for `victim` from a finished fleet run with an
    /// attached recorder's harvested [`AuditLog`]. Returns `None` if the
    /// victim was not verifier-killed or the audit log has no kill mark
    /// for it.
    pub fn from_fleet<H: KernelHandler>(
        scenario: &FleetScenario,
        sched: &Scheduler<H>,
        audit: &AuditLog,
        victim: Pid,
    ) -> Option<Bundle> {
        let proc = sched.process(victim);
        let alert = proc.kernel().alerts().last()?;
        let mark = audit.kills.iter().find(|k| k.pid == victim)?;
        let slice_index = mark.slice_index?;
        let prefix = &sched.interleaving()[..=slice_index as usize];
        let kill = KillRecord {
            pid: alert.pid,
            site: alert.site,
            nr: alert.nr,
            syscall: alert.name.clone(),
            reason: alert.reason().code().into(),
            alert: alert.to_string(),
            kill_cycles: proc.machine().cycles(),
            syscalls: proc.stats().syscalls,
            policy_counter: proc.kernel().policy_counter(),
            sched_clock: Some(mark.clock),
            slice_index: Some(slice_index),
            interleaving_fnv: Some(fnv64_pids(prefix)),
        };
        let pid_audit = audit.pid(victim)?;
        let victim_value = Value::Object(vec![
            ("stats".into(), stats_to_value(&pid_audit.stats)),
            ("cache".into(), cache_to_value(&proc.kernel().cache_stats())),
            (
                "cache_shard".into(),
                num(pid_shard(victim, AUDIT_SHARDS) as u64),
            ),
            (
                "spans".into(),
                Value::Array(
                    pid_audit
                        .events
                        .iter()
                        .map(|(at, e)| event_to_value(*at, e))
                        .collect(),
                ),
            ),
            (
                "ring".into(),
                Value::Object(vec![
                    ("capacity".into(), num(audit.config.ring_capacity as u64)),
                    ("retained".into(), num(pid_audit.events.len() as u64)),
                    ("dropped".into(), num(pid_audit.dropped)),
                ]),
            ),
            ("sampled".into(), Value::Bool(pid_audit.sampled)),
        ]);
        // The interleaving window around the kill: up to 8 slices either
        // side, so an operator sees who ran just before and after.
        let lo = (slice_index as usize).saturating_sub(8);
        let hi = ((slice_index as usize) + 9).min(sched.interleaving().len());
        let window: Vec<Value> = sched.interleaving()[lo..hi]
            .iter()
            .map(|p| num(u64::from(*p)))
            .collect();
        let dropped_total: u64 = audit.pids.iter().map(|p| p.dropped).sum();
        let schedule = Value::Object(vec![
            ("sched_seed".into(), scenario.sched_seed()),
            ("slice_instrs".into(), num(scenario.slice_instrs)),
            (
                "batch_depth".into(),
                scenario
                    .batch_depth
                    .map(|d| num(d as u64))
                    .unwrap_or(Value::Null),
            ),
            ("procs".into(), num(scenario.procs.len() as u64)),
            ("window_start".into(), num(lo as u64)),
            ("window".into(), Value::Array(window)),
            (
                "sampled_pids".into(),
                num(audit.pids.iter().filter(|p| p.sampled).count() as u64),
            ),
            ("ring_dropped_total".into(), num(dropped_total)),
        ]);
        Some(Bundle {
            scenario: Scenario::Fleet(scenario.clone()),
            kill,
            victim: victim_value,
            schedule: Some(schedule),
        })
    }

    fn body_value(&self) -> Value {
        Value::Object(vec![
            ("schema".into(), Value::Str(BUNDLE_SCHEMA.into())),
            ("scenario".into(), self.scenario.to_value()),
            ("kill".into(), self.kill.to_value()),
            ("victim".into(), self.victim.clone()),
            (
                "schedule".into(),
                self.schedule.clone().unwrap_or(Value::Null),
            ),
        ])
    }

    /// FNV-64 over the rendered bundle body (everything but the digest
    /// field itself).
    pub fn digest(&self) -> u64 {
        fnv64_bytes(self.body_value().to_pretty().as_bytes())
    }

    /// Serializes the bundle, digest included.
    pub fn to_value(&self) -> Value {
        let digest = self.digest();
        let Value::Object(mut fields) = self.body_value() else {
            unreachable!("body is an object")
        };
        fields.push(("digest".into(), hex64(digest)));
        Value::Object(fields)
    }

    /// The bundle as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        self.to_value().to_pretty()
    }

    /// Parses a bundle serialized by [`Bundle::to_value`], verifying the
    /// schema tag and the digest. The digest is unkeyed, so the scenario
    /// is checked too: an unknown workload, a zero slice quantum, a fault
    /// or kill pid outside the fleet, or program ids past `u16::MAX` are
    /// errors here rather than a panic or an endless loop in [`crate::replay`].
    pub fn from_value(value: &Value) -> Result<Bundle, String> {
        let schema = str_field(value, "schema")?;
        if schema != BUNDLE_SCHEMA {
            return Err(format!("unknown bundle schema {schema:?}"));
        }
        let bundle = Bundle {
            scenario: Scenario::from_value(field(value, "scenario")?)?,
            kill: KillRecord::from_value(field(value, "kill")?)?,
            victim: field(value, "victim")?.clone(),
            schedule: match field(value, "schedule")? {
                Value::Null => None,
                v => Some(v.clone()),
            },
        };
        if let Scenario::Fleet(fleet) = &bundle.scenario {
            fleet.check_pid("kill", bundle.kill.pid)?;
        }
        let recorded = u64_field(value, "digest")?;
        let recomputed = bundle.digest();
        if recorded != recomputed {
            return Err(format!(
                "bundle digest mismatch: recorded {recorded:#018x}, recomputed {recomputed:#018x}"
            ));
        }
        Ok(bundle)
    }

    /// Parses a bundle from JSON text (schema + digest verified).
    pub fn from_json(text: &str) -> Result<Bundle, String> {
        Bundle::from_value(&Value::parse(text)?)
    }
}

/// The outcome of a replay: either every comparison target matched
/// bit-identically, or the first divergence found.
#[derive(Clone, Debug)]
pub struct ReplayVerdict {
    /// Whether the replay reproduced the kill exactly.
    pub matched: bool,
    /// Human-readable detail: the reproduced kill on a match, the first
    /// divergence otherwise.
    pub detail: String,
}

impl ReplayVerdict {
    fn matched(kill: &KillRecord) -> ReplayVerdict {
        ReplayVerdict {
            matched: true,
            detail: format!(
                "pid {} died with {} at cycle {} (bit-identical)",
                kill.pid, kill.reason, kill.kill_cycles
            ),
        }
    }

    fn diverged(detail: String) -> ReplayVerdict {
        ReplayVerdict {
            matched: false,
            detail,
        }
    }
}

macro_rules! expect_eq {
    ($what:expr, $got:expr, $want:expr) => {
        if $got != $want {
            return ReplayVerdict::diverged(format!(
                "{} diverged: replay {:?}, bundle {:?}",
                $what, $got, $want
            ));
        }
    };
}

/// Replays a solo bundle against an already-built guest of its workload
/// (the fault campaign holds one guest per workload and replays many
/// kills against it). The tier and the fault come from the bundle's
/// scenario. [`crate::replay`] prepares the guest from
/// the scenario seeds and lands here.
pub fn replay_solo_in(bundle: &Bundle, spec: &ProgramSpec, guest: &Guest) -> ReplayVerdict {
    let Scenario::Solo(solo) = &bundle.scenario else {
        return ReplayVerdict::diverged("bundle scenario is not solo".into());
    };
    let run = run_solo(spec, guest, solo.options(), solo.fault.as_ref());
    if !run.outcome.is_killed() {
        return ReplayVerdict::diverged(format!("replay did not kill: outcome {:?}", run.outcome));
    }
    let Some(alert) = run.alerts.last() else {
        return ReplayVerdict::diverged("replay killed without an alert".into());
    };
    let kill = &bundle.kill;
    expect_eq!("alert", alert.to_string(), kill.alert);
    expect_eq!("reason", alert.reason().code(), kill.reason.as_str());
    expect_eq!("kill cycle", run.cycles, kill.kill_cycles);
    expect_eq!("trap count", run.stats.syscalls, kill.syscalls);
    expect_eq!("policy counter", run.policy_counter, kill.policy_counter);
    ReplayVerdict::matched(kill)
}

/// Replays a fleet bundle: rebuilds the fleet from seeds, re-runs the
/// seeded interleaving until the victim dies, and compares the kill,
/// the victim's machine clock, the shared scheduler clock, and the
/// interleaving prefix digest bit-identically.
pub(crate) fn replay_fleet(bundle: &Bundle, scenario: &FleetScenario) -> ReplayVerdict {
    let kill = &bundle.kill;
    let sched = scenario.run_to_kill(kill.pid);
    let proc = sched.process(kill.pid);
    if !matches!(proc.state(), asc_sched::ProcState::Killed(_)) {
        return ReplayVerdict::diverged(format!(
            "replay did not kill pid {}: state {:?}",
            kill.pid,
            proc.state()
        ));
    }
    let Some(alert) = proc.kernel().alerts().last() else {
        return ReplayVerdict::diverged("replay killed without an alert".into());
    };
    expect_eq!("alert", alert.to_string(), kill.alert);
    expect_eq!("reason", alert.reason().code(), kill.reason.as_str());
    expect_eq!("kill cycle", proc.machine().cycles(), kill.kill_cycles);
    expect_eq!("trap count", proc.stats().syscalls, kill.syscalls);
    expect_eq!(
        "policy counter",
        proc.kernel().policy_counter(),
        kill.policy_counter
    );
    if let Some(want) = kill.sched_clock {
        expect_eq!("scheduler clock", sched.clock(), want);
    }
    if let Some(want) = kill.slice_index {
        expect_eq!(
            "kill slice index",
            sched.interleaving().len() as u64 - 1,
            want
        );
    }
    if let Some(want) = kill.interleaving_fnv {
        expect_eq!(
            "interleaving digest",
            fnv64_pids(sched.interleaving()),
            want
        );
    }
    ReplayVerdict::matched(kill)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hostile_nesting_is_an_error_not_a_stack_overflow() {
        for doc in ["[".repeat(100_000), r#"{"a":"#.repeat(100_000)] {
            let err = Bundle::from_json(&doc).unwrap_err();
            assert!(err.contains("nesting deeper than"), "{err}");
        }
    }
}
