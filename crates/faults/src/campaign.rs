//! The seeded fault-injection campaign and its classification oracle.
//!
//! Every trial perturbs exactly one trusted artifact of one workload
//! run — a byte flip in memory at a seeded instruction index, or a
//! kernel-side fault armed for a specific trap — and compares the
//! perturbed run against the clean record. The oracle demands one of
//! two outcomes: *killed-with-alert* (fail-stop before the corrupted
//! call dispatched, no prior divergence) or *benign* (bit-identical
//! observable behaviour). Anything else is **silent corruption**, the
//! failure the paper's design promises cannot happen.

use asc_audit::{
    replay_solo_in, run_solo, AuditFault, Bundle, FaultAction, SoloRun, SoloScenario, TrapFault,
};
use asc_kernel::{Alert, ReasonCode, VerifyTier};
use asc_testkit::Rng;
use asc_vm::RunOutcome;

use crate::inventory::{scan, Inventory};
use crate::PERSONALITY;

/// Seed of [`crate::campaign_key`], recorded in forensic bundles so replay can
/// rebuild the identical installation.
pub(crate) const CAMPAIGN_KEY_SEED: u64 = 0xFA17_1A7E;

/// A verifier-trusted artifact class the campaign corrupts.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultClass {
    /// Flip a byte of a 16-byte call-MAC slot in `.asc`.
    CallMac,
    /// Flip a byte of an authenticated string's contents.
    AuthString,
    /// Flip a byte of a predecessor-set blob's contents.
    PredecessorSet,
    /// Flip a byte of the `lastBlock ‖ lbMAC` policy-state cell.
    PolicyState,
    /// Flip a byte of a rewritten `movi` immediate field in `.text`.
    RewrittenText,
    /// XOR one register of the kernel's trapped-register copy.
    TrapRegister,
    /// Skew the in-kernel memory-checker counter before a trap.
    EpochCounter,
    /// Flip a byte inside a verified-call cache entry.
    CachePoison,
    /// Stamp the cached policy-state entry with a future epoch.
    CacheEpochSkew,
    /// Plant a raw `syscall` at a non-prologue text instruction: the
    /// trap then originates from a pc the installer never rewrote, so
    /// only the `.ascsites` origin check can refuse it.
    GadgetJump,
    /// Plant a raw `syscall` *inside* a rewritten prologue (one of its
    /// `movi` loads): the trap fires adjacent to — but not at — the
    /// registered site pc, probing that the registry is exact.
    StubSmuggle,
}

impl FaultClass {
    /// The pre-origin artifact classes, in reporting order. Kept stable
    /// because the golden-pinned tier-matrix and detection-latency
    /// tables enumerate exactly this list; the origin classes ride in
    /// [`FaultClass::ALL_EXTENDED`].
    pub const ALL: [FaultClass; 9] = [
        FaultClass::CallMac,
        FaultClass::AuthString,
        FaultClass::PredecessorSet,
        FaultClass::PolicyState,
        FaultClass::RewrittenText,
        FaultClass::TrapRegister,
        FaultClass::EpochCounter,
        FaultClass::CachePoison,
        FaultClass::CacheEpochSkew,
    ];

    /// Every class including the syscall-origin ones ([`GadgetJump`],
    /// [`StubSmuggle`]), in reporting order. The main campaign runs
    /// this list.
    ///
    /// [`GadgetJump`]: FaultClass::GadgetJump
    /// [`StubSmuggle`]: FaultClass::StubSmuggle
    pub const ALL_EXTENDED: [FaultClass; 11] = [
        FaultClass::CallMac,
        FaultClass::AuthString,
        FaultClass::PredecessorSet,
        FaultClass::PolicyState,
        FaultClass::RewrittenText,
        FaultClass::TrapRegister,
        FaultClass::EpochCounter,
        FaultClass::CachePoison,
        FaultClass::CacheEpochSkew,
        FaultClass::GadgetJump,
        FaultClass::StubSmuggle,
    ];

    /// Kebab-case name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            FaultClass::CallMac => "call-mac",
            FaultClass::AuthString => "auth-string",
            FaultClass::PredecessorSet => "pred-set",
            FaultClass::PolicyState => "policy-state",
            FaultClass::RewrittenText => "rewritten-text",
            FaultClass::TrapRegister => "trap-register",
            FaultClass::EpochCounter => "epoch-counter",
            FaultClass::CachePoison => "cache-poison",
            FaultClass::CacheEpochSkew => "cache-epoch-skew",
            FaultClass::GadgetJump => "gadget-jump",
            FaultClass::StubSmuggle => "stub-smuggle",
        }
    }

    /// Classes whose fault *is* a syscall trap from an unregistered pc.
    /// Every kill they provoke must carry `unrewritten-site` — the
    /// origin check fires before the MAC path under every tier — and
    /// must land before the smuggled call has any side effect.
    pub fn origin_violation(self) -> bool {
        matches!(self, FaultClass::GadgetJump | FaultClass::StubSmuggle)
    }

    /// Classes that corrupt only the kernel's *cache* copies. The
    /// hardened kernel must degrade gracefully to cold re-verification
    /// on these, so a kill (a false positive against authentic memory)
    /// is itself a campaign failure.
    pub fn cache_degradation(self) -> bool {
        matches!(self, FaultClass::CachePoison | FaultClass::CacheEpochSkew)
    }
}

/// Classification of one perturbed run against the clean record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Fail-stop: an alert was logged, nothing diverged before the
    /// kill, and the killed call never dispatched.
    Killed,
    /// Identical observable behaviour — the corrupted artifact was
    /// never consumed after the flip, or the kernel degraded
    /// gracefully around a poisoned cache entry.
    Benign,
    /// The run diverged observably without an alert: a verifier
    /// bypass. Always a campaign failure.
    SilentCorruption,
    /// VM-level crash (memory fault, bad instruction, cycle limit).
    /// Tracked separately and asserted zero: the fault planner only
    /// mutates data the guest itself never executes or loads.
    Crashed,
}

/// The scenario of a clean campaign run of `name`: installed under
/// [`crate::campaign_key`] with `program_id`, enforcing under the MAC
/// tier. [`SoloScenario::prepare`] builds its guest, and
/// [`asc_audit::run_solo`] runs it with or without a fault.
pub(crate) fn campaign_scenario(name: &str, program_id: u16) -> SoloScenario {
    SoloScenario {
        workload: name.to_string(),
        personality: PERSONALITY,
        tier: VerifyTier::Mac,
        program_id,
        key_seed: CAMPAIGN_KEY_SEED,
        fault: None,
    }
}

/// Classifies a perturbed run against the clean record.
///
/// The fail-stop contract is checked structurally, not just by the
/// outcome variant: a kill must carry an alert, must not have diverged
/// before the kill (stdout and trace are prefixes of the clean run's),
/// and the killed call must never have dispatched — the trap counter
/// exceeding the dispatched-trace length by exactly one proves the
/// kill happened before any side effect of the offending call.
pub fn classify(clean: &SoloRun, run: &SoloRun) -> (Outcome, String) {
    match &run.outcome {
        RunOutcome::Killed(msg) => {
            let Some(alert) = run.alerts.last() else {
                return (Outcome::SilentCorruption, "killed without an alert".into());
            };
            // The kill must be attributable: the outcome's message and the
            // structured alert record must describe the same event.
            if *msg != alert.to_string() {
                return (
                    Outcome::SilentCorruption,
                    format!(
                        "kill message does not match the recorded alert: \
                         {msg:?} vs {alert}"
                    ),
                );
            }
            if run.stats.syscalls != run.trace.len() as u64 + 1 {
                return (
                    Outcome::SilentCorruption,
                    format!(
                        "killed call dispatched: {} trapped vs {} dispatched",
                        run.stats.syscalls,
                        run.trace.len()
                    ),
                );
            }
            if !clean.stdout.starts_with(&run.stdout) {
                return (
                    Outcome::SilentCorruption,
                    "stdout diverged before the kill".into(),
                );
            }
            if run.trace.len() > clean.trace.len()
                || run.trace[..] != clean.trace[..run.trace.len()]
            {
                return (
                    Outcome::SilentCorruption,
                    "syscall trace diverged before the kill".into(),
                );
            }
            (Outcome::Killed, alert.reason().code().to_string())
        }
        RunOutcome::Fault(_) | RunOutcome::BadInstruction { .. } | RunOutcome::CycleLimit => {
            (Outcome::Crashed, format!("{:?}", run.outcome))
        }
        outcome => {
            if *outcome != clean.outcome {
                return (
                    Outcome::SilentCorruption,
                    format!("exit changed: {:?} vs clean {:?}", outcome, clean.outcome),
                );
            }
            if run.stdout != clean.stdout {
                return (Outcome::SilentCorruption, "stdout diverged".into());
            }
            if run.stderr != clean.stderr {
                return (Outcome::SilentCorruption, "stderr diverged".into());
            }
            if run.trace != clean.trace {
                return (Outcome::SilentCorruption, "syscall trace diverged".into());
            }
            if run.fs_digest != clean.fs_digest {
                return (
                    Outcome::SilentCorruption,
                    "filesystem state diverged".into(),
                );
            }
            (Outcome::Benign, String::new())
        }
    }
}

fn nonzero_byte(rng: &mut Rng) -> u8 {
    rng.range_u32(1, 256) as u8
}

fn nonzero_u32(rng: &mut Rng) -> u32 {
    loop {
        let mask = rng.next_u32();
        if mask != 0 {
            return mask;
        }
    }
}

/// Draws one fault of `class` from the inventory; `None` when the
/// binary has no artifact of that kind.
pub(crate) fn plan_fault(
    class: FaultClass,
    inv: &Inventory,
    clean: &SoloRun,
    rng: &mut Rng,
) -> Option<AuditFault> {
    // Half the trials corrupt the artifact before the first instruction
    // retires (so its first consumption sees the flip); the rest pick a
    // uniform mid-run injection point.
    let mem = |rng: &mut Rng, addr: u32, mask: u8| AuditFault::Mem {
        at_instret: if rng.chance(1, 2) {
            0
        } else {
            rng.range_u64(0, clean.instret + 1)
        },
        addr,
        mask,
    };
    match class {
        FaultClass::CallMac => {
            if inv.mac_slots.is_empty() {
                return None;
            }
            let slot = *rng.pick(&inv.mac_slots);
            let addr = slot + rng.range_u32(0, 16);
            let mask = nonzero_byte(rng);
            Some(mem(rng, addr, mask))
        }
        FaultClass::AuthString => {
            if inv.string_blobs.is_empty() {
                return None;
            }
            let blob = *rng.pick(&inv.string_blobs);
            let addr = blob.contents_addr + rng.range_u32(0, blob.len);
            let mask = nonzero_byte(rng);
            Some(mem(rng, addr, mask))
        }
        FaultClass::PredecessorSet => {
            if inv.pred_blobs.is_empty() {
                return None;
            }
            let blob = *rng.pick(&inv.pred_blobs);
            let addr = blob.contents_addr + rng.range_u32(0, blob.len);
            let mask = nonzero_byte(rng);
            Some(mem(rng, addr, mask))
        }
        FaultClass::PolicyState => {
            let cell = inv.state_cell?;
            let addr = cell + rng.range_u32(0, asc_crypto::POLICY_STATE_LEN as u32);
            let mask = nonzero_byte(rng);
            Some(mem(rng, addr, mask))
        }
        FaultClass::RewrittenText => {
            if inv.imm_fields.is_empty() {
                return None;
            }
            let field = *rng.pick(&inv.imm_fields);
            let addr = field + rng.range_u32(0, 4);
            let mask = nonzero_byte(rng);
            Some(mem(rng, addr, mask))
        }
        FaultClass::TrapRegister => {
            const TARGETS: [u8; 13] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12];
            let index = *rng.pick(&TARGETS);
            let mask = nonzero_u32(rng);
            Some(AuditFault::Trap(TrapFault {
                at_trap: rng.range_u64(1, clean.stats.syscalls + 1),
                action: FaultAction::XorReg { index, mask },
            }))
        }
        FaultClass::EpochCounter => {
            let magnitude = rng.range_u64(1, 9) as i64;
            let delta = if rng.chance(1, 2) {
                -magnitude
            } else {
                magnitude
            };
            Some(AuditFault::Trap(TrapFault {
                at_trap: rng.range_u64(1, clean.stats.syscalls + 1),
                action: FaultAction::SkewCounter { delta },
            }))
        }
        FaultClass::CachePoison => {
            let selector = rng.next_u64();
            let mask = nonzero_byte(rng);
            Some(AuditFault::Trap(TrapFault {
                at_trap: rng.range_u64(1, clean.stats.syscalls + 1),
                action: FaultAction::CorruptCache { selector, mask },
            }))
        }
        FaultClass::CacheEpochSkew => Some(AuditFault::Trap(TrapFault {
            at_trap: rng.range_u64(1, clean.stats.syscalls + 1),
            action: FaultAction::SkewCacheEpoch {
                delta: rng.range_u64(1, 9),
            },
        })),
        FaultClass::GadgetJump => {
            if inv.gadget_targets.is_empty() {
                return None;
            }
            let (addr, opcode) = *rng.pick(&inv.gadget_targets);
            // XOR the opcode byte into a raw `syscall`; if execution
            // reaches it the trap comes from an unregistered pc.
            let mask = opcode ^ asc_isa::Opcode::Syscall as u8;
            Some(mem(rng, addr, mask))
        }
        FaultClass::StubSmuggle => {
            if inv.prologue_movis.is_empty() {
                return None;
            }
            let addr = *rng.pick(&inv.prologue_movis);
            let mask = asc_isa::Opcode::Movi as u8 ^ asc_isa::Opcode::Syscall as u8;
            Some(mem(rng, addr, mask))
        }
    }
}

/// Campaign parameters. Identical configs reproduce identical reports.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Master seed.
    pub seed: u64,
    /// Trials per (workload, class) pair.
    pub trials: u32,
    /// Workload names (must be registered in `asc-workloads`).
    pub workloads: Vec<String>,
}

impl CampaignConfig {
    /// Default campaign over the paper's policy workloads.
    pub fn new(seed: u64, trials: u32) -> CampaignConfig {
        CampaignConfig {
            seed,
            trials,
            workloads: vec!["bison".into(), "calc".into(), "tar".into()],
        }
    }
}

/// Aggregated trials for one (workload, class) pair.
#[derive(Clone, Debug)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Fault class.
    pub class: FaultClass,
    /// Trials classified killed-with-alert.
    pub killed: u32,
    /// Trials classified benign.
    pub benign: u32,
    /// Trials that crashed the VM (asserted zero by `problems`).
    pub crashed: u32,
    /// Trials classified silent corruption (asserted zero).
    pub silent: u32,
    /// Killed trials whose forensic bundle failed deterministic replay
    /// (same pid, violation, and kill cycle) — asserted zero: a kill the
    /// bundle cannot reproduce is a forensics failure even though the
    /// fail-stop contract held.
    pub irreproducible: u32,
    /// One representative alert from a killed trial.
    pub sample_alert: Option<Alert>,
    /// Kill counts by structured reason code, in first-seen order.
    pub kill_reasons: Vec<(ReasonCode, u32)>,
    /// Details of every silent or crashed trial.
    pub anomalies: Vec<String>,
    /// Graceful cold fallbacks observed across the row's trials.
    pub cache_fallbacks: u64,
    /// Future-epoch scrubs observed across the row's trials.
    pub cache_scrubs: u64,
    /// Set when the class was inapplicable to this binary.
    pub note: Option<String>,
}

impl Row {
    fn new(workload: String, class: FaultClass) -> Row {
        Row {
            workload,
            class,
            killed: 0,
            benign: 0,
            crashed: 0,
            silent: 0,
            irreproducible: 0,
            sample_alert: None,
            kill_reasons: Vec::new(),
            anomalies: Vec::new(),
            cache_fallbacks: 0,
            cache_scrubs: 0,
            note: None,
        }
    }

    fn trials(&self) -> u32 {
        self.killed + self.benign + self.crashed + self.silent
    }
}

/// The full campaign result.
#[derive(Clone, Debug)]
pub struct Report {
    /// Master seed the campaign ran under.
    pub seed: u64,
    /// Trials per row.
    pub trials: u32,
    /// One row per (workload, class) pair.
    pub rows: Vec<Row>,
}

impl Report {
    /// Total silent corruptions across all rows.
    pub fn total_silent(&self) -> u32 {
        self.rows.iter().map(|r| r.silent).sum()
    }

    /// Total kills across all rows.
    pub fn total_killed(&self) -> u32 {
        self.rows.iter().map(|r| r.killed).sum()
    }

    /// Total crashes across all rows.
    pub fn total_crashed(&self) -> u32 {
        self.rows.iter().map(|r| r.crashed).sum()
    }

    /// Total replay-divergent kill bundles across all rows.
    pub fn total_irreproducible(&self) -> u32 {
        self.rows.iter().map(|r| r.irreproducible).sum()
    }

    /// Everything wrong with the campaign outcome; empty means the
    /// fail-stop contract held everywhere. Checks: zero silent
    /// corruption, zero VM crashes, zero replay-divergent kill bundles
    /// (`IRREPRODUCIBLE`), no false-positive kills on cache-degradation
    /// classes, and at least one kill overall (the oracle was actually
    /// exercised).
    pub fn problems(&self) -> Vec<String> {
        let mut problems = Vec::new();
        for row in &self.rows {
            let tag = format!("{}/{}", row.workload, row.class.name());
            for detail in &row.anomalies {
                problems.push(format!("{tag}: {detail}"));
            }
            if row.class.cache_degradation() && row.killed > 0 {
                problems.push(format!(
                    "{tag}: {} false-positive kill(s) — cache corruption must \
                     degrade gracefully, not reject authentic calls",
                    row.killed
                ));
            }
            if row.class.origin_violation() {
                for (reason, n) in &row.kill_reasons {
                    if *reason != ReasonCode::UnrewrittenSite {
                        problems.push(format!(
                            "{tag}: {n} kill(s) with {} — a trap from an \
                             unregistered pc must die on the origin check, \
                             before any other verification",
                            reason.code()
                        ));
                    }
                }
            }
        }
        if self.total_killed() == 0 {
            problems.push("campaign never observed a fail-stop kill".into());
        }
        problems
    }

    /// Renders the report as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = format!(
            "Fault-injection campaign  seed={:#x}  trials/row={}\n\n",
            self.seed, self.trials
        );
        out.push_str(&format!(
            "{:<10} {:<17} {:>7} {:>7} {:>8} {:>8} {:>8} {:>9}\n",
            "workload", "class", "killed", "benign", "crashed", "SILENT", "IRREPRO", "degraded"
        ));
        for row in &self.rows {
            out.push_str(&format!(
                "{:<10} {:<17} {:>7} {:>7} {:>8} {:>8} {:>8} {:>9}\n",
                row.workload,
                row.class.name(),
                row.killed,
                row.benign,
                row.crashed,
                row.silent,
                row.irreproducible,
                row.cache_fallbacks + row.cache_scrubs,
            ));
            render_kills(&mut out, &row.kill_reasons);
            if let Some(note) = &row.note {
                out.push_str(&format!("           ({note})\n"));
            }
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
                    ("workload".into(), Value::Str(row.workload.clone())),
                    ("class".into(), Value::Str(row.class.name().into())),
                    ("trials".into(), Value::Num(f64::from(row.trials()))),
                    ("killed".into(), Value::Num(f64::from(row.killed))),
                    ("benign".into(), Value::Num(f64::from(row.benign))),
                    ("crashed".into(), Value::Num(f64::from(row.crashed))),
                    ("silent".into(), Value::Num(f64::from(row.silent))),
                    (
                        "irreproducible".into(),
                        Value::Num(f64::from(row.irreproducible)),
                    ),
                    (
                        "degraded".into(),
                        Value::Num((row.cache_fallbacks + row.cache_scrubs) as f64),
                    ),
                    (
                        "kill_reasons".into(),
                        Value::Object(
                            row.kill_reasons
                                .iter()
                                .map(|(r, n)| (r.code().to_string(), Value::Num(f64::from(*n))))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        Value::Object(vec![
            ("seed".into(), Value::Num(self.seed as f64)),
            ("trials_per_row".into(), Value::Num(f64::from(self.trials))),
            ("rows".into(), Value::Array(rows)),
            (
                "total_silent".into(),
                Value::Num(f64::from(self.total_silent())),
            ),
            (
                "total_irreproducible".into(),
                Value::Num(f64::from(self.total_irreproducible())),
            ),
        ])
    }
}

/// Builds, installs, and fault-injects every configured workload.
///
/// # Panics
///
/// Panics if a workload is unregistered, fails to build or install,
/// or if its *clean* enforcing run does not succeed — those are
/// harness preconditions, not campaign findings.
pub fn run_campaign(cfg: &CampaignConfig) -> Report {
    let mut rows = Vec::new();
    for (wi, name) in cfg.workloads.iter().enumerate() {
        let scenario = campaign_scenario(name, 0x0FA0 + wi as u16);
        let (spec, guest) = scenario.prepare();
        let inv = scan(guest.binary());
        assert!(inv.sites > 0, "{name}: no authenticated sites found");
        let clean = run_solo(spec, &guest, scenario.options(), None);
        assert!(
            clean.outcome.is_success(),
            "{name}: clean enforcing run failed: {:?} (alerts: {:?})",
            clean.outcome,
            clean.alerts
        );
        for (ci, class) in FaultClass::ALL_EXTENDED.iter().copied().enumerate() {
            let mut row = Row::new(name.clone(), class);
            for trial in 0..cfg.trials {
                let mut rng = Rng::new(
                    cfg.seed
                        ^ ((wi as u64 + 1) << 48)
                        ^ ((ci as u64 + 1) << 40)
                        ^ (u64::from(trial) + 1),
                );
                let Some(fault) = plan_fault(class, &inv, &clean, &mut rng) else {
                    row.note = Some("no artifacts of this class in the binary".into());
                    break;
                };
                let run = run_solo(spec, &guest, scenario.options(), Some(&fault));
                row.cache_fallbacks += run.stats.cache_fallbacks;
                row.cache_scrubs += run.stats.cache_scrubs;
                let (outcome, detail) = classify(&clean, &run);
                match outcome {
                    Outcome::Killed => {
                        row.killed += 1;
                        if let Some(alert) = run.alerts.last() {
                            count_kill(&mut row.kill_reasons, alert.reason());
                            if row.sample_alert.is_none() {
                                row.sample_alert = Some(alert.clone());
                            }
                        }
                        // Every kill must yield a forensic bundle whose
                        // in-process replay reproduces the identical
                        // kill. A divergence is a determinism bug, not a
                        // verifier bug — reported as its own row class.
                        let scenario = SoloScenario {
                            fault: Some(fault),
                            ..scenario.clone()
                        };
                        match Bundle::from_solo(scenario, &run) {
                            Some(bundle) => {
                                let verdict = replay_solo_in(&bundle, spec, &guest);
                                if !verdict.matched {
                                    row.irreproducible += 1;
                                    row.anomalies.push(format!(
                                        "trial {trial}: IRREPRODUCIBLE: {}",
                                        verdict.detail
                                    ));
                                }
                            }
                            None => {
                                row.irreproducible += 1;
                                row.anomalies.push(format!(
                                    "trial {trial}: IRREPRODUCIBLE: kill produced no bundle"
                                ));
                            }
                        }
                    }
                    Outcome::Benign => row.benign += 1,
                    Outcome::Crashed => {
                        row.crashed += 1;
                        row.anomalies
                            .push(format!("trial {trial}: crashed: {detail}"));
                    }
                    Outcome::SilentCorruption => {
                        row.silent += 1;
                        row.anomalies
                            .push(format!("trial {trial}: SILENT-CORRUPTION: {detail}"));
                    }
                }
            }
            rows.push(row);
        }
    }
    Report {
        seed: cfg.seed,
        trials: cfg.trials,
        rows,
    }
}

/// Counts one kill under its reason code, in first-seen order.
pub(crate) fn count_kill(kill_reasons: &mut Vec<(ReasonCode, u32)>, reason: ReasonCode) {
    match kill_reasons.iter_mut().find(|(r, _)| *r == reason) {
        Some((_, n)) => *n += 1,
        None => kill_reasons.push((reason, 1)),
    }
}

/// Appends a report row's `kills:` line; a row without kills has none.
pub(crate) fn render_kills(out: &mut String, kill_reasons: &[(ReasonCode, u32)]) {
    if kill_reasons.is_empty() {
        return;
    }
    let reasons: Vec<String> = kill_reasons
        .iter()
        .map(|(r, n)| format!("{} x{n}", r.code()))
        .collect();
    out.push_str(&format!("           kills: {}\n", reasons.join(", ")));
}
