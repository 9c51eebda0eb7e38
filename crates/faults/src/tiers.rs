//! The tier × fault-class coverage matrix: what each verification tier
//! actually catches.
//!
//! The SFIP flow tier (`VerifyTier::FlowOnly`) checks only syscall
//! *transitions* against the installed digraph — a fraction of the MAC
//! tier's cost. This module quantifies the coverage side of that trade:
//! it replays the seeded fault campaign of [`crate::campaign`] under
//! every tier, plus one *reorder* trial per tier driven by the
//! [`asc_attacks`] syscall-reordering attack (two individually legal
//! calls executed in an order the digraph forbids).
//!
//! Expected shape, asserted by [`TierReport::problems`]:
//!
//! * `mac` and `mac+flow` keep the campaign's fail-stop contract on
//!   every artifact class (zero silent corruption, zero crashes, no
//!   false-positive kills on cache-degradation classes);
//! * `flow-only` catches the transition-order attack but *misses*
//!   in-edge forgeries (a corrupted authenticated string dispatches
//!   silently — it never kills, because nothing checks contents);
//! * `mac` alone *misses* the reorder attack (every per-call check
//!   passes at the jumped-to site);
//! * `mac+flow` dominates: at least as many kills as either tier on
//!   every class, and zero silent corruption everywhere.

use asc_attacks::{AttackLab, AttackOutcome};
use asc_audit::scenario_options;
use asc_kernel::{Personality, ReasonCode, VerifyTier};
use asc_testkit::Rng;
use asc_workloads::{Guest, ProgramSpec};

use crate::campaign::{
    campaign_scenario, classify, plan_fault, run_planned, FaultClass, Outcome, RunRecord,
};
use crate::campaign_key;
use crate::inventory::{scan, Inventory};

/// Name of the synthetic reorder row (not a [`FaultClass`]: it is a
/// guest-level attack, not an artifact flip).
pub const FLOW_REORDER: &str = "flow-reorder";

/// Matrix parameters. Identical configs reproduce identical reports.
#[derive(Clone, Debug)]
pub struct TierMatrixConfig {
    /// Master seed (shared with the fault planner, so every tier sees
    /// the *same* planned faults).
    pub seed: u64,
    /// Trials per (workload, class) pair per tier.
    pub trials: u32,
    /// Workload names (must be registered in `asc-workloads`).
    pub workloads: Vec<String>,
    /// OS personality for builds and kernels.
    pub personality: Personality,
    /// Fault classes to replay. Defaults to the pre-origin
    /// [`FaultClass::ALL`] list the golden-pinned bench table
    /// enumerates; use [`TierMatrixConfig::with_all_classes`] to add
    /// the syscall-origin classes.
    pub classes: Vec<FaultClass>,
}

impl TierMatrixConfig {
    /// Default matrix over the paper's policy workloads.
    pub fn new(seed: u64, trials: u32) -> TierMatrixConfig {
        TierMatrixConfig {
            seed,
            trials,
            workloads: vec!["bison".into(), "calc".into(), "tar".into()],
            personality: Personality::Linux,
            classes: FaultClass::ALL.to_vec(),
        }
    }

    /// Extends the matrix to [`FaultClass::ALL_EXTENDED`], including
    /// the gadget-jump and stub-smuggle origin classes.
    pub fn with_all_classes(mut self) -> TierMatrixConfig {
        self.classes = FaultClass::ALL_EXTENDED.to_vec();
        self
    }
}

/// Aggregated trials for one (tier, class) pair across all workloads.
#[derive(Clone, Debug)]
pub struct TierRow {
    /// Verification tier the trials ran under.
    pub tier: VerifyTier,
    /// Fault-class name (a [`FaultClass::name`] or [`FLOW_REORDER`]).
    pub class: &'static str,
    /// Trials classified killed-with-alert.
    pub killed: u32,
    /// Trials classified benign.
    pub benign: u32,
    /// Trials that crashed the VM.
    pub crashed: u32,
    /// Trials classified silent corruption.
    pub silent: u32,
    /// Kill counts by structured reason code, in first-seen order.
    pub kill_reasons: Vec<(ReasonCode, u32)>,
    /// Details of unexpected trials (used by [`TierReport::problems`]).
    pub anomalies: Vec<String>,
}

impl TierRow {
    fn new(tier: VerifyTier, class: &'static str) -> TierRow {
        TierRow {
            tier,
            class,
            killed: 0,
            benign: 0,
            crashed: 0,
            silent: 0,
            kill_reasons: Vec::new(),
            anomalies: Vec::new(),
        }
    }

    fn tally(&mut self, outcome: Outcome, detail: &str, run: &RunRecord, trial_tag: &str) {
        match outcome {
            Outcome::Killed => {
                self.killed += 1;
                if let Some(alert) = run.alerts.last() {
                    let reason = alert.reason();
                    match self.kill_reasons.iter_mut().find(|(r, _)| *r == reason) {
                        Some((_, n)) => *n += 1,
                        None => self.kill_reasons.push((reason, 1)),
                    }
                }
            }
            Outcome::Benign => self.benign += 1,
            Outcome::Crashed => {
                self.crashed += 1;
                self.anomalies
                    .push(format!("{trial_tag}: crashed: {detail}"));
            }
            Outcome::SilentCorruption => {
                self.silent += 1;
                self.anomalies
                    .push(format!("{trial_tag}: silent: {detail}"));
            }
        }
    }
}

/// The full tier-coverage result.
#[derive(Clone, Debug)]
pub struct TierReport {
    /// Master seed the matrix ran under.
    pub seed: u64,
    /// Trials per (workload, class) pair.
    pub trials: u32,
    /// One row per (tier, class) pair, tiers outermost.
    pub rows: Vec<TierRow>,
}

/// One prepared workload: installed guest, artifact inventory, and a
/// per-tier clean record.
struct Prepared {
    spec: &'static ProgramSpec,
    guest: Guest,
    inv: Inventory,
    cleans: Vec<RunRecord>,
}

impl TierReport {
    fn row(&self, tier: VerifyTier, class: &str) -> Option<&TierRow> {
        self.rows
            .iter()
            .find(|r| r.tier == tier && r.class == class)
    }

    /// Everything wrong with the matrix outcome; empty means every tier
    /// behaved exactly as the coverage model predicts (see the module
    /// docs for the expected shape).
    pub fn problems(&self) -> Vec<String> {
        let mut problems = Vec::new();
        for row in &self.rows {
            let tag = format!("{}/{}", row.tier.name(), row.class);
            let mac_grade = row.tier.checks_mac();
            // The MAC tiers keep the full fail-stop contract; crashes
            // are harness failures under every tier.
            if row.crashed > 0 || (mac_grade && row.silent > 0 && row.class != FLOW_REORDER) {
                for detail in &row.anomalies {
                    problems.push(format!("{tag}: {detail}"));
                }
            }
            if mac_grade
                && row.class != FLOW_REORDER
                && FaultClass::ALL
                    .iter()
                    .any(|c| c.name() == row.class && c.cache_degradation())
                && row.killed > 0
            {
                problems.push(format!(
                    "{tag}: {} false-positive kill(s) on a cache-degradation class",
                    row.killed
                ));
            }
            // The origin classes are tier-independent: the `.ascsites`
            // check fires before tier dispatch, so even flow-only must
            // catch every smuggled trap, always as unrewritten-site.
            if FaultClass::ALL_EXTENDED
                .iter()
                .any(|c| c.name() == row.class && c.origin_violation())
            {
                if row.silent > 0 {
                    problems.push(format!(
                        "{tag}: {} silent trial(s) — an unregistered-pc trap \
                         dispatched under {}",
                        row.silent,
                        row.tier.name()
                    ));
                }
                for (reason, n) in &row.kill_reasons {
                    if *reason != ReasonCode::UnrewrittenSite {
                        problems.push(format!(
                            "{tag}: {n} kill(s) with {} — origin faults must die \
                             on the origin check, before tier dispatch",
                            reason.code()
                        ));
                    }
                }
            }
        }
        // mac+flow dominates: zero silent anywhere (including the
        // reorder row) and at least as many kills as either other tier
        // on every class.
        for row in &self.rows {
            if row.tier != VerifyTier::MacPlusFlow {
                continue;
            }
            if row.silent > 0 {
                problems.push(format!(
                    "mac+flow/{}: {} silent trial(s) — the combined tier must dominate",
                    row.class, row.silent
                ));
            }
            for other in [VerifyTier::FlowOnly, VerifyTier::Mac] {
                if let Some(o) = self.row(other, row.class) {
                    if row.killed < o.killed {
                        problems.push(format!(
                            "mac+flow/{}: {} kills vs {} under {} — coverage regressed",
                            row.class,
                            row.killed,
                            o.killed,
                            other.name()
                        ));
                    }
                }
            }
        }
        // flow-only must miss in-edge forgeries: corrupted string
        // contents dispatch (silently) because nothing checks them.
        if let Some(row) = self.row(VerifyTier::FlowOnly, "auth-string") {
            if row.killed > 0 {
                problems.push(format!(
                    "flow-only/auth-string: {} kill(s) — the flow tier has no \
                     contents check, so these are false positives",
                    row.killed
                ));
            }
            if row.silent == 0 {
                problems.push(
                    "flow-only/auth-string: no silent trials — the coverage gap \
                     the ablation exists to show never appeared"
                        .into(),
                );
            }
        }
        // The reorder attack: missed by mac, killed by both flow tiers.
        match self.row(VerifyTier::Mac, FLOW_REORDER) {
            Some(row) if row.silent == 1 && row.killed == 0 => {}
            row => problems.push(format!(
                "mac/{FLOW_REORDER}: expected exactly one silent (missed) trial, got {row:?}"
            )),
        }
        for tier in [VerifyTier::FlowOnly, VerifyTier::MacPlusFlow] {
            match self.row(tier, FLOW_REORDER) {
                Some(row)
                    if row.killed == 1
                        && row.silent == 0
                        && row.kill_reasons == [(ReasonCode::BadFlowEdge, 1)] => {}
                row => problems.push(format!(
                    "{}/{FLOW_REORDER}: expected one bad-flow-edge kill, got {row:?}",
                    tier.name()
                )),
            }
        }
        problems
    }

    /// Renders the matrix as an aligned text table, tiers outermost.
    pub fn render(&self) -> String {
        let mut out = format!(
            "Tier x fault-class coverage  seed={:#x}  trials/(workload,class)={}\n\n",
            self.seed, self.trials
        );
        out.push_str(&format!(
            "{:<10} {:<17} {:>7} {:>7} {:>8} {:>8}\n",
            "tier", "class", "killed", "benign", "crashed", "SILENT"
        ));
        let mut last_tier: Option<VerifyTier> = None;
        for row in &self.rows {
            let tier_label = if last_tier == Some(row.tier) {
                ""
            } else {
                last_tier = Some(row.tier);
                row.tier.name()
            };
            out.push_str(&format!(
                "{:<10} {:<17} {:>7} {:>7} {:>8} {:>8}\n",
                tier_label, row.class, row.killed, row.benign, row.crashed, row.silent
            ));
            if !row.kill_reasons.is_empty() {
                let reasons: Vec<String> = row
                    .kill_reasons
                    .iter()
                    .map(|(r, n)| format!("{} x{n}", r.code()))
                    .collect();
                out.push_str(&format!("           kills: {}\n", reasons.join(", ")));
            }
        }
        out.push('\n');
        for tier in VerifyTier::ALL {
            let (mut caught, mut missed) = (0u32, 0u32);
            for row in self.rows.iter().filter(|r| r.tier == tier) {
                if row.silent > 0 {
                    missed += 1;
                } else if row.killed > 0 {
                    caught += 1;
                }
            }
            out.push_str(&format!(
                "{:<10} classes caught={caught} missed={missed}\n",
                tier.name()
            ));
        }
        out
    }
}

/// Runs the fault campaign under every verification tier plus one
/// reorder-attack trial per tier.
///
/// Every tier replays the *same* planned faults: the planner is seeded
/// identically per (workload, class, trial), and the guest-visible
/// observables of the clean runs are asserted identical across tiers
/// (verification changes only kernel-side cycles, never execution), so
/// differences in a row are attributable to the tier alone.
///
/// # Panics
///
/// Panics on harness precondition failures: unknown workloads, build
/// or install errors, a failing clean run under any tier, or clean
/// runs that disagree across tiers.
pub fn run_tier_matrix(cfg: &TierMatrixConfig) -> TierReport {
    let tier_options = |tier| scenario_options(cfg.personality, tier, false);
    let mut prepared = Vec::new();
    for (wi, name) in cfg.workloads.iter().enumerate() {
        let (spec, guest) = campaign_scenario(name, cfg.personality, 0x0F10 + wi as u16).prepare();
        let inv = scan(guest.binary());
        let cleans: Vec<RunRecord> = VerifyTier::ALL
            .iter()
            .map(|&tier| {
                let clean = run_planned(spec, &guest, tier_options(tier), None);
                assert!(
                    clean.outcome.is_success(),
                    "{name}: clean {} run failed: {:?} (alerts: {:?})",
                    tier.name(),
                    clean.outcome,
                    clean.alerts
                );
                clean
            })
            .collect();
        for clean in &cleans[1..] {
            assert_eq!(
                (clean.instret, clean.syscalls, &clean.stdout),
                (cleans[0].instret, cleans[0].syscalls, &cleans[0].stdout),
                "{name}: clean runs diverge across tiers"
            );
        }
        prepared.push(Prepared {
            spec,
            guest,
            inv,
            cleans,
        });
    }
    let lab = AttackLab::new(campaign_key());
    let mut rows = Vec::new();
    for (ti, &tier) in VerifyTier::ALL.iter().enumerate() {
        for (ci, class) in cfg.classes.iter().copied().enumerate() {
            let mut row = TierRow::new(tier, class.name());
            for (wi, prep) in prepared.iter().enumerate() {
                let clean = &prep.cleans[ti];
                for trial in 0..cfg.trials {
                    // Seeded exactly like the single-tier campaign — and
                    // identically for every tier, so the planned faults
                    // match across tiers.
                    let mut rng = Rng::new(
                        cfg.seed
                            ^ ((wi as u64 + 1) << 48)
                            ^ ((ci as u64 + 1) << 40)
                            ^ (u64::from(trial) + 1),
                    );
                    let Some(fault) = plan_fault(class, &prep.inv, &prep.cleans[0], &mut rng)
                    else {
                        break;
                    };
                    let run = run_planned(prep.spec, &prep.guest, tier_options(tier), Some(fault));
                    let (outcome, detail) = classify(clean, &run);
                    let tag = format!("{}/{} trial {trial}", prep.spec.name, class.name());
                    row.tally(outcome, &detail, &run, &tag);
                }
            }
            rows.push(row);
        }
        // The reorder attack is deterministic: one trial per tier.
        let mut row = TierRow::new(tier, FLOW_REORDER);
        let (outcome, kernel) = lab.reorder_attack_traced(tier);
        match outcome {
            AttackOutcome::Succeeded(_) => row.silent += 1,
            AttackOutcome::Blocked(alert) => {
                row.killed += 1;
                row.kill_reasons.push((alert.reason(), 1));
                if !kernel.exec_requests().is_empty() {
                    row.anomalies
                        .push("reorder: killed but the forged execve dispatched".into());
                }
            }
            AttackOutcome::Failed(msg) => {
                row.crashed += 1;
                row.anomalies.push(format!("reorder: {msg}"));
            }
        }
        rows.push(row);
    }
    TierReport {
        seed: cfg.seed,
        trials: cfg.trials,
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_matrix_matches_the_coverage_model() {
        let report = run_tier_matrix(&TierMatrixConfig::new(0x5F1F_CA5E, 2));
        assert_eq!(
            report.problems(),
            Vec::<String>::new(),
            "\n{}",
            report.render()
        );
        // The cheap tier is not free coverage: it must actually miss
        // *something* the MAC tier catches.
        let flow_silent: u32 = report
            .rows
            .iter()
            .filter(|r| r.tier == VerifyTier::FlowOnly)
            .map(|r| r.silent)
            .sum();
        assert!(flow_silent > 0, "\n{}", report.render());
        // And identical seeds reproduce the identical report.
        let again = run_tier_matrix(&TierMatrixConfig::new(0x5F1F_CA5E, 2));
        assert_eq!(report.render(), again.render());
    }

    /// The origin classes are tier-independent: a matrix over just
    /// gadget-jump and stub-smuggle must show every tier — including
    /// flow-only, which runs no MAC at all — killing every smuggled
    /// trap with `unrewritten-site` and nothing else.
    #[test]
    fn origin_classes_caught_under_every_tier() {
        let cfg = TierMatrixConfig {
            classes: vec![FaultClass::GadgetJump, FaultClass::StubSmuggle],
            ..TierMatrixConfig::new(0x0619_1234, 4)
        };
        let report = run_tier_matrix(&cfg);
        assert_eq!(
            report.problems(),
            Vec::<String>::new(),
            "\n{}",
            report.render()
        );
        for tier in VerifyTier::ALL {
            for class in [FaultClass::GadgetJump, FaultClass::StubSmuggle] {
                let row = report.row(tier, class.name()).expect("row present");
                assert!(
                    row.killed > 0,
                    "{}/{}: no kills\n{}",
                    tier.name(),
                    class.name(),
                    report.render()
                );
                assert_eq!(row.silent, 0, "{}/{}", tier.name(), class.name());
                assert_eq!(row.crashed, 0, "{}/{}", tier.name(), class.name());
                assert_eq!(
                    row.kill_reasons,
                    [(ReasonCode::UnrewrittenSite, row.killed)],
                    "{}/{}",
                    tier.name(),
                    class.name()
                );
            }
        }
        // The same planned fault kills at the same trap under every
        // tier (the check precedes tier dispatch), so the three tiers'
        // rows are identical.
        for class in [FaultClass::GadgetJump, FaultClass::StubSmuggle] {
            let rows: Vec<_> = VerifyTier::ALL
                .iter()
                .map(|&t| report.row(t, class.name()).expect("row"))
                .collect();
            for row in &rows[1..] {
                assert_eq!((row.killed, row.benign), (rows[0].killed, rows[0].benign));
            }
        }
    }

    /// The acceptance lattice the tier design promises, as a seeded
    /// property over arbitrary planned faults:
    ///
    /// 1. *Soundness*: any run `mac` accepts, `flow-only` accepts — the
    ///    digraph is the nr-coarsening of the pred-set relation, so a
    ///    run that passes every pred-set check walks only digraph edges.
    /// 2. *Exact intersection*: `mac+flow` accepts a run iff both
    ///    component tiers accept it, and when it kills, it kills at the
    ///    earliest trap either component would have killed at.
    /// 3. Tiers never perturb the guest: every accepting tier observes
    ///    the identical execution.
    #[test]
    fn tier_acceptance_forms_the_soundness_lattice() {
        use asc_vm::RunOutcome;

        const PERSONALITY: Personality = Personality::Linux;
        const SEED: u64 = 0xACC3_97ED;

        // Prepare each workload once; the seeded cases only re-run.
        let mut prepared = Vec::new();
        for (wi, name) in ["bison", "calc", "tar"].iter().enumerate() {
            let (spec, guest) = campaign_scenario(name, PERSONALITY, 0x0F20 + wi as u16).prepare();
            let inv = scan(guest.binary());
            let clean = run_planned(
                spec,
                &guest,
                scenario_options(PERSONALITY, VerifyTier::Mac, false),
                None,
            );
            assert!(clean.outcome.is_success(), "{name}: clean run failed");
            prepared.push((spec, guest, inv, clean));
        }

        let accept = |r: &RunRecord| !matches!(r.outcome, RunOutcome::Killed(_));
        let kill_trap = |r: &RunRecord| match r.outcome {
            RunOutcome::Killed(_) => r.syscalls,
            _ => u64::MAX,
        };

        for (spec, guest, inv, clean) in &prepared {
            asc_testkit::check(SEED, 32, |rng| {
                // An arbitrary planned fault — or, one case in eight, no
                // fault at all (the all-accept corner of the lattice).
                let mut fault = None;
                if !rng.chance(1, 8) {
                    for _ in 0..8 {
                        let class = *rng.pick(&FaultClass::ALL_EXTENDED);
                        if let Some(f) = plan_fault(class, inv, clean, rng) {
                            fault = Some(f);
                            break;
                        }
                    }
                }
                // The *same* fault replayed under every tier; tier order
                // follows `VerifyTier::ALL` = [FlowOnly, Mac, MacPlusFlow].
                let runs: Vec<RunRecord> = VerifyTier::ALL
                    .iter()
                    .map(|&tier| {
                        let opts = scenario_options(PERSONALITY, tier, false);
                        run_planned(spec, guest, opts, fault)
                    })
                    .collect();
                let (flow_run, mac_run, both_run) = (&runs[0], &runs[1], &runs[2]);
                let tag = format!("{} fault {fault:?}", spec.name);
                // 1. Mac-accepted ⊆ flow-accepted.
                if accept(mac_run) {
                    assert!(
                        accept(flow_run),
                        "{tag}: mac accepted but flow-only killed: {:?}",
                        flow_run.outcome
                    );
                }
                // 2a. mac+flow accepts exactly the intersection.
                assert_eq!(
                    accept(both_run),
                    accept(mac_run) && accept(flow_run),
                    "{tag}: mac+flow broke the intersection: {:?} vs mac {:?} / flow {:?}",
                    both_run.outcome,
                    mac_run.outcome,
                    flow_run.outcome
                );
                // 2b. ...and kills at the earliest component kill point.
                if !accept(both_run) {
                    assert_eq!(
                        both_run.syscalls,
                        kill_trap(mac_run).min(kill_trap(flow_run)),
                        "{tag}: mac+flow killed at the wrong trap"
                    );
                }
                // 3. Accepting tiers observed the identical execution.
                let accepted: Vec<&RunRecord> = runs.iter().filter(|r| accept(r)).collect();
                for run in accepted.iter().skip(1) {
                    assert_eq!(
                        (run.instret, run.syscalls, &run.stdout),
                        (
                            accepted[0].instret,
                            accepted[0].syscalls,
                            &accepted[0].stdout
                        ),
                        "{tag}: accepting tiers diverged"
                    );
                }
            });
        }
    }
}
