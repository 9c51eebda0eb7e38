//! Cross-process fault classes: perturb **one** process of a scheduled
//! multi-process run and demand that (a) the target degrades or dies
//! exactly as the single-process oracle requires and (b) every *peer*
//! process remains bit-identical to the clean run — stdout, stderr,
//! syscall trace, alerts, filesystem digest, counters, everything.
//!
//! Two classes extend the single-process campaign:
//!
//! * [`CrossFaultClass::CachePoisonAcrossPids`] — corrupt a verified-call
//!   cache entry inside one pid's namespace of the [`asc_core::SharedVerifyCache`]
//!   mid-schedule. The cache is an untrusted accelerator, so the target
//!   must degrade gracefully (cold fallback, never a kill) and no other
//!   pid may observe anything at all.
//! * [`CrossFaultClass::CounterSkewOnePid`] — skew the in-kernel
//!   anti-replay counter of one pid of many. The target must fail-stop
//!   with an alert attributed to *its own* pid; its peers must finish
//!   untouched.
//!
//! Classification reuses the single-process oracle ([`classify`]) per
//! pid: for peers, anything other than *benign* (bit-identical) is an
//! isolation leak and reported as a problem.

use std::collections::BTreeMap;

use asc_audit::{ArmedKernel, FaultAction, FleetScenario, SoloRun, TrapFault};
use asc_kernel::{Alert, ReasonCode, VerifyTier};
use asc_sched::{Pid, ProcState, SchedPolicy, Scheduler};
use asc_testkit::Rng;
use asc_vm::RunOutcome;
use asc_workloads::RUN_BUDGET;

use crate::campaign::{classify, count_kill, render_kills, Outcome, CAMPAIGN_KEY_SEED};
use crate::PERSONALITY;

/// A fault class that targets one process of a scheduled set.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CrossFaultClass {
    /// Corrupt a cache entry in one pid's namespace of the shared
    /// verified-call cache, mid-schedule.
    CachePoisonAcrossPids,
    /// Skew the anti-replay counter of one pid's kernel before one of
    /// its traps.
    CounterSkewOnePid,
}

impl CrossFaultClass {
    /// Every cross-process class, in reporting order.
    pub const ALL: [CrossFaultClass; 2] = [
        CrossFaultClass::CachePoisonAcrossPids,
        CrossFaultClass::CounterSkewOnePid,
    ];

    /// Short name used in the report table.
    pub fn name(self) -> &'static str {
        match self {
            CrossFaultClass::CachePoisonAcrossPids => "xpid-cache-poison",
            CrossFaultClass::CounterSkewOnePid => "xpid-counter-skew",
        }
    }
}

/// Cross-process campaign parameters. Identical configs reproduce
/// identical reports.
#[derive(Clone, Debug)]
pub struct CrossConfig {
    /// Master seed (drives interleavings and fault placement).
    pub seed: u64,
    /// Trials per class.
    pub trials: u32,
    /// Concurrent processes, cycling over `workloads`.
    pub procs: usize,
    /// Workload names (must be registered in `asc-workloads`).
    pub workloads: Vec<String>,
}

impl CrossConfig {
    /// Default cross-process campaign over the paper's policy workloads.
    pub fn new(seed: u64, trials: u32) -> CrossConfig {
        CrossConfig {
            seed,
            trials,
            procs: 4,
            workloads: vec!["bison".into(), "calc".into(), "tar".into()],
        }
    }
}

/// Aggregated trials for one cross-process class.
#[derive(Clone, Debug)]
pub struct CrossRow {
    /// Fault class.
    pub class: CrossFaultClass,
    /// Trials run.
    pub trials: u32,
    /// Trials where the fault demonstrably landed (a cache entry was
    /// actually corrupted, or the armed trap fired before exit).
    pub landed: u32,
    /// Target-pid outcomes classified killed-with-alert.
    pub target_killed: u32,
    /// Target-pid outcomes classified benign (bit-identical).
    pub target_benign: u32,
    /// Peer-pid comparisons that came back bit-identical.
    pub peers_clean: u32,
    /// Peer-pid comparisons that diverged — isolation leaks, asserted
    /// zero by [`CrossReport::problems`].
    pub peer_leaks: u32,
    /// Silent corruptions on the target pid (asserted zero).
    pub silent: u32,
    /// VM crashes on any pid (asserted zero).
    pub crashed: u32,
    /// Graceful cold fallbacks observed on the target pid.
    pub cache_fallbacks: u64,
    /// One representative alert from a killed target.
    pub sample_alert: Option<Alert>,
    /// Kill counts by structured reason code, in first-seen order.
    pub kill_reasons: Vec<(ReasonCode, u32)>,
    /// Details of every silent, crashed, or leaked trial.
    pub anomalies: Vec<String>,
}

impl CrossRow {
    fn new(class: CrossFaultClass) -> CrossRow {
        CrossRow {
            class,
            trials: 0,
            landed: 0,
            target_killed: 0,
            target_benign: 0,
            peers_clean: 0,
            peer_leaks: 0,
            silent: 0,
            crashed: 0,
            cache_fallbacks: 0,
            sample_alert: None,
            kill_reasons: Vec::new(),
            anomalies: Vec::new(),
        }
    }
}

/// The cross-process campaign's findings.
#[derive(Clone, Debug)]
pub struct CrossReport {
    /// Master seed the campaign ran under.
    pub seed: u64,
    /// Trials per class.
    pub trials: u32,
    /// Concurrent processes per trial.
    pub procs: usize,
    /// One row per class.
    pub rows: Vec<CrossRow>,
}

impl CrossReport {
    /// Everything wrong with the outcome; empty means the fail-stop
    /// contract held *and* no fault leaked across a pid boundary.
    pub fn problems(&self) -> Vec<String> {
        let mut problems = Vec::new();
        for row in &self.rows {
            let tag = row.class.name();
            for detail in &row.anomalies {
                problems.push(format!("{tag}: {detail}"));
            }
            if row.landed == 0 {
                problems.push(format!("{tag}: no trial actually landed a fault"));
            }
            match row.class {
                CrossFaultClass::CachePoisonAcrossPids => {
                    if row.target_killed > 0 {
                        problems.push(format!(
                            "{tag}: {} false-positive kill(s) — shared-cache \
                             corruption must degrade gracefully",
                            row.target_killed
                        ));
                    }
                }
                CrossFaultClass::CounterSkewOnePid => {
                    if row.target_killed == 0 {
                        problems.push(format!("{tag}: counter skew was never detected"));
                    }
                }
            }
        }
        problems
    }

    /// Renders the cross-process report as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = format!(
            "Cross-process campaign  seed={:#x}  trials/class={}  procs={}\n\n",
            self.seed, self.trials, self.procs
        );
        out.push_str(&format!(
            "{:<18} {:>6} {:>6} {:>7} {:>7} {:>11} {:>6} {:>8} {:>8}\n",
            "class",
            "trials",
            "landed",
            "killed",
            "benign",
            "peers-clean",
            "LEAKS",
            "SILENT",
            "crashed"
        ));
        for row in &self.rows {
            out.push_str(&format!(
                "{:<18} {:>6} {:>6} {:>7} {:>7} {:>11} {:>6} {:>8} {:>8}\n",
                row.class.name(),
                row.trials,
                row.landed,
                row.target_killed,
                row.target_benign,
                row.peers_clean,
                row.peer_leaks,
                row.silent,
                row.crashed,
            ));
            render_kills(&mut out, &row.kill_reasons);
        }
        out
    }

    /// Converts the report to a JSON value for `--json` mode.
    pub fn to_value(&self) -> asc_core::json::Value {
        use asc_core::json::Value;
        let rows = self
            .rows
            .iter()
            .map(|row| {
                Value::Object(vec![
                    ("class".into(), Value::Str(row.class.name().into())),
                    ("trials".into(), Value::Num(f64::from(row.trials))),
                    ("landed".into(), Value::Num(f64::from(row.landed))),
                    (
                        "target_killed".into(),
                        Value::Num(f64::from(row.target_killed)),
                    ),
                    (
                        "target_benign".into(),
                        Value::Num(f64::from(row.target_benign)),
                    ),
                    ("peers_clean".into(), Value::Num(f64::from(row.peers_clean))),
                    ("peer_leaks".into(), Value::Num(f64::from(row.peer_leaks))),
                    ("silent".into(), Value::Num(f64::from(row.silent))),
                    ("crashed".into(), Value::Num(f64::from(row.crashed))),
                ])
            })
            .collect();
        Value::Object(vec![
            ("seed".into(), Value::Num(self.seed as f64)),
            (
                "trials_per_class".into(),
                Value::Num(f64::from(self.trials)),
            ),
            ("procs".into(), Value::Num(self.procs as f64)),
            ("rows".into(), Value::Array(rows)),
        ])
    }
}

/// The campaign's fleet under one interleaving seed: `cfg.procs`
/// processes cycling over the workloads, installed under the campaign key
/// from program id 0x0FB0.
fn fleet(cfg: &CrossConfig, interleave_seed: u64) -> FleetScenario {
    FleetScenario {
        procs: (0..cfg.procs)
            .map(|m| cfg.workloads[m % cfg.workloads.len()].clone())
            .collect(),
        personality: PERSONALITY,
        tier: VerifyTier::Mac,
        key_seed: CAMPAIGN_KEY_SEED,
        program_id_base: 0x0FB0,
        policy: SchedPolicy::SeededRandom(interleave_seed),
        slice_instrs: 10_000,
        budget_cycles: RUN_BUDGET,
        batch_depth: None,
        fault: None,
    }
}

/// Snapshots one scheduled process into the single-process oracle's
/// [`SoloRun`], with no span log: fleet processes here carry no ring.
/// [`ProcState::Faulted`] collapses to [`RunOutcome::CycleLimit`] — any
/// VM-level death classifies as *crashed*, which is all the oracle needs
/// from that variant.
fn record(sched: &Scheduler<ArmedKernel>, pid: Pid) -> SoloRun {
    let proc = sched.process(pid);
    let outcome = match proc.state() {
        ProcState::Exited(code) => RunOutcome::Exited(*code),
        ProcState::Killed(msg) => RunOutcome::Killed(msg.clone()),
        ProcState::Faulted(_) | ProcState::Runnable => RunOutcome::CycleLimit,
    };
    SoloRun::capture(outcome, proc.machine())
}

/// Per-pid records of a completed clean run, plus its slice count
/// (used to place mid-schedule injections).
struct CleanRun {
    records: BTreeMap<Pid, SoloRun>,
    slices: u64,
}

fn clean_run(mut sched: Scheduler<ArmedKernel>) -> CleanRun {
    sched.run();
    let mut records = BTreeMap::new();
    for proc in sched.processes() {
        assert!(
            matches!(proc.state(), ProcState::Exited(_)),
            "clean run: pid {} ({}) did not exit: {:?} (alerts: {:?})",
            proc.pid(),
            proc.name(),
            proc.state(),
            proc.kernel().alerts(),
        );
        records.insert(proc.pid(), record(&sched, proc.pid()));
    }
    CleanRun {
        records,
        slices: sched.interleaving().len() as u64,
    }
}

/// Runs the cross-process campaign: for each class and trial, perturb
/// exactly one pid of a scheduled fleet and classify every pid against
/// the clean multi-process baseline.
///
/// # Panics
///
/// Panics if a workload is unregistered, fails to build or install, or
/// if the clean scheduled run does not exit everywhere — harness
/// preconditions, not campaign findings.
pub fn run_cross_campaign(cfg: &CrossConfig) -> CrossReport {
    assert!(cfg.procs >= 2, "cross-process faults need at least 2 procs");
    let guests = fleet(cfg, 0).prepare();
    let clean = clean_run(fleet(cfg, cfg.seed ^ 0xC1EA_4C1E).spawn(&guests));

    let mut rows = Vec::new();
    for (ci, class) in CrossFaultClass::ALL.iter().copied().enumerate() {
        let mut row = CrossRow::new(class);
        for trial in 0..cfg.trials {
            let mut rng = Rng::new(cfg.seed ^ ((ci as u64 + 1) << 40) ^ (u64::from(trial) + 1));
            let interleave_seed = rng.next_u64();
            let target = rng.range_u32(1, cfg.procs as u32 + 1);
            let mut sched = fleet(cfg, interleave_seed).spawn(&guests);
            let mut landed = false;

            match class {
                CrossFaultClass::CachePoisonAcrossPids => {
                    // Inject once, mid-schedule: after a seeded number of
                    // slices, flip one byte of one entry in the target
                    // pid's namespace of the shared cache. Stepping the
                    // scheduler manually keeps the injection point inside
                    // the interleaving, where a namespace bug would show.
                    let lo = clean.slices / 4;
                    let inject_at = rng.range_u64(lo, (clean.slices * 3 / 4).max(lo + 1));
                    let selector = rng.next_u64();
                    let mask = rng.range_u32(1, 256) as u8;
                    let mut slices = 0u64;
                    loop {
                        if slices == inject_at {
                            let shared = sched
                                .shared_cache()
                                .expect("cross-pid scheduler owns the shared cache")
                                .clone();
                            landed = shared
                                .borrow_mut()
                                .corrupt_pid_entry_for_fault(target, selector, mask)
                                .is_some();
                        }
                        if sched.step().is_none() {
                            break;
                        }
                        slices += 1;
                    }
                }
                CrossFaultClass::CounterSkewOnePid => {
                    // Arm the single-process campaign's EpochCounter fault,
                    // but on exactly one kernel of the fleet.
                    let clean_target = &clean.records[&target];
                    let at_trap = rng.range_u64(1, clean_target.stats.syscalls + 1);
                    let magnitude = rng.range_u64(1, 9) as i64;
                    let delta = if rng.chance(1, 2) {
                        -magnitude
                    } else {
                        magnitude
                    };
                    sched
                        .process_mut(target)
                        .machine_mut()
                        .handler_mut()
                        .arm(TrapFault {
                            at_trap,
                            action: FaultAction::SkewCounter { delta },
                        });
                    landed = true;
                    sched.run();
                }
            }

            row.trials += 1;
            if landed {
                row.landed += 1;
            }
            for pid in 1..=cfg.procs as Pid {
                let run = record(&sched, pid);
                let (outcome, detail) = classify(&clean.records[&pid], &run);
                if pid == target {
                    row.cache_fallbacks += run.stats.cache_fallbacks;
                    match outcome {
                        Outcome::Killed => {
                            row.target_killed += 1;
                            if let Some(alert) = run.alerts.last() {
                                if alert.pid != target {
                                    row.anomalies.push(format!(
                                        "trial {trial}: kill alert attributed to pid {} \
                                         but the fault targeted pid {target}",
                                        alert.pid
                                    ));
                                }
                                count_kill(&mut row.kill_reasons, alert.reason());
                                if row.sample_alert.is_none() {
                                    row.sample_alert = Some(alert.clone());
                                }
                            }
                        }
                        Outcome::Benign => row.target_benign += 1,
                        Outcome::Crashed => {
                            row.crashed += 1;
                            row.anomalies
                                .push(format!("trial {trial}: target pid {pid} crashed: {detail}"));
                        }
                        Outcome::SilentCorruption => {
                            row.silent += 1;
                            row.anomalies.push(format!(
                                "trial {trial}: SILENT corruption on target pid {pid}: {detail}"
                            ));
                        }
                    }
                } else {
                    // A peer must be bit-identical to the clean run; any
                    // other classification is a cross-pid leak.
                    match outcome {
                        Outcome::Benign => row.peers_clean += 1,
                        Outcome::Crashed => {
                            row.crashed += 1;
                            row.peer_leaks += 1;
                            row.anomalies.push(format!(
                                "trial {trial}: peer pid {pid} crashed \
                                 (fault targeted pid {target}): {detail}"
                            ));
                        }
                        other => {
                            row.peer_leaks += 1;
                            row.anomalies.push(format!(
                                "trial {trial}: fault on pid {target} leaked to \
                                 peer pid {pid}: {other:?} {detail}"
                            ));
                        }
                    }
                }
            }
        }
        rows.push(row);
    }
    CrossReport {
        seed: cfg.seed,
        trials: cfg.trials,
        procs: cfg.procs,
        rows,
    }
}
