//! Detection-latency campaign: the classic intrusion-detection metric
//! the paper never measures — virtual-clock cycles from fault injection
//! to the first operator-visible health signal.
//!
//! For every [`FaultClass`] the campaign builds a small monitored fleet
//! (victim plus background processes on a shared verify cache), draws a
//! seeded fault from the victim's artifact [`Inventory`] exactly like
//! the main campaign, injects it mid-run at a recorded *arming clock*,
//! and keeps an [`asc_sentinel::Sentinel`] observing on slice
//! boundaries. Three clocks bracket each detection:
//!
//! * **armed** — the fault enters the system (byte flipped, armed trap
//!   reached);
//! * **effect** — the first kernel-visible consequence (an alert
//!   raised, a cache fallback or scrub counted). For memory flips the
//!   armed→effect gap is the *workload's* consumption delay — honest
//!   to record, impossible to bound (a string corrupted at startup may
//!   not be read until output time);
//! * **detected** — the firing cycle of the first
//!   [`asc_sentinel::HealthEvent`] at or after the effect.
//!
//! The report records the full cycles-to-detection (armed→detected)
//! per class and enforces the hard bound on the **monitoring lag**
//! (effect→detected) — the part the sentinel's window geometry
//! actually promises. Trials whose draw is benign (the flipped byte is
//! never consumed, the poisoned entry never probed) are redrawn with
//! fresh seeds; an effect that produces *no* event is a monitoring
//! hole and fails immediately. [`LatencyReport::problems`] turns every
//! gap into a CI failure.
//!
//! The monitored fleet is observed, never steered: the sentinel reads
//! the scheduler through shared references only, so the latencies are
//! measurements of the *monitoring* layer, not artifacts of it.

use asc_audit::{
    flip_byte, run_solo, scenario_options, AuditFault, FleetGuests, FleetScenario, SoloRun,
};
use asc_core::json::Value;
use asc_kernel::VerifyTier;
use asc_sched::{Pid, SchedPolicy};
use asc_sentinel::{Detector, Sentinel, SentinelConfig};
use asc_testkit::Rng;
use asc_workloads::RUN_BUDGET;

use crate::campaign::{plan_fault, CAMPAIGN_KEY_SEED};
use crate::inventory::{scan, Inventory};
use crate::{FaultClass, PERSONALITY};

/// Workloads the monitored fleet cycles through (the victim is drawn
/// from this list too — the first workload whose inventory has
/// artifacts of the class under test).
const FLEET_WORKLOADS: [&str; 3] = ["bison", "calc", "tar"];

/// Latency-campaign parameters. Identical configs reproduce identical
/// reports.
#[derive(Clone, Debug)]
pub struct LatencyConfig {
    /// Master seed.
    pub seed: u64,
    /// Sentinel window length on the shared virtual clock.
    pub window_cycles: u64,
    /// Hard monitoring-lag bound, in windows: a detection later than
    /// `bound_windows × window_cycles` after the fault's first
    /// kernel-visible effect is a campaign failure.
    pub bound_windows: u64,
    /// Seeded draws per class before giving up (every undetectable
    /// class is a campaign failure).
    pub max_trials: u32,
    /// Fault classes to measure. Defaults to the pre-origin
    /// [`FaultClass::ALL`] list the golden-pinned health table
    /// enumerates; [`LatencyConfig::with_classes`] narrows or extends
    /// it (e.g. to the origin classes).
    pub classes: Vec<FaultClass>,
}

impl LatencyConfig {
    /// Defaults used by the health bench: 50k-cycle windows, a
    /// 2-window hard lag bound, 16 draws per class.
    pub fn new(seed: u64) -> LatencyConfig {
        LatencyConfig {
            seed,
            window_cycles: 50_000,
            bound_windows: 2,
            max_trials: 16,
            classes: FaultClass::ALL.to_vec(),
        }
    }

    /// Replaces the measured class list.
    pub fn with_classes(mut self, classes: &[FaultClass]) -> LatencyConfig {
        self.classes = classes.to_vec();
        self
    }

    /// The hard bound in cycles.
    pub fn bound_cycles(&self) -> u64 {
        self.bound_windows * self.window_cycles
    }
}

/// One fault class's measured detection.
#[derive(Clone, Debug)]
pub struct LatencyRow {
    /// The corrupted artifact class.
    pub class: FaultClass,
    /// Workload the fault was drawn against (the victim).
    pub victim: String,
    /// Seeded draws consumed, including benign ones.
    pub trials: u32,
    /// Virtual clock when the fault entered the system (the byte
    /// flipped, the armed trap reached).
    pub armed_clock: u64,
    /// Virtual clock of the first kernel-visible effect (alert raised,
    /// degradation counter bumped).
    pub effect_clock: u64,
    /// Name of the detector that fired first.
    pub detector: String,
    /// Firing cycle of that first health event.
    pub detected_clock: u64,
    /// Full cycles-to-detection, `detected_clock − armed_clock`
    /// (includes the workload's artifact-consumption delay).
    pub latency: u64,
    /// Monitoring lag, `detected_clock − effect_clock` — what the hard
    /// bound is enforced against.
    pub lag: u64,
    /// Whether the lag met the hard bound.
    pub within_bound: bool,
}

/// The coverage matrix: one row per fault class, plus the geometry the
/// latencies were measured under.
#[derive(Clone, Debug)]
pub struct LatencyReport {
    /// Master seed the campaign ran under.
    pub seed: u64,
    /// Sentinel window length.
    pub window_cycles: u64,
    /// Hard monitoring-lag bound in cycles.
    pub bound_cycles: u64,
    /// Detected classes, in the config's class order.
    pub rows: Vec<LatencyRow>,
    /// Classes never detected within the trial budget (or whose effect
    /// produced no event — a monitoring hole).
    pub undetected: Vec<(FaultClass, String)>,
}

impl LatencyReport {
    /// Everything that fails the campaign: an undetected non-benign
    /// class, or a detection beyond the hard bound.
    pub fn problems(&self) -> Vec<String> {
        let mut problems = Vec::new();
        for (class, detail) in &self.undetected {
            problems.push(format!("{}: never detected ({detail})", class.name()));
        }
        for row in &self.rows {
            if !row.within_bound {
                problems.push(format!(
                    "{}: monitoring lag {} exceeds bound {}",
                    row.class.name(),
                    row.lag,
                    self.bound_cycles
                ));
            }
        }
        problems
    }

    /// Fixed-width coverage-matrix table (golden-pinned by the health
    /// bench).
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<16} {:>6} {:<6} {:>9} {:>9} {:<14} {:>9} {:>9} {:>7} {:>5}",
            "fault class",
            "trials",
            "victim",
            "armed",
            "effect",
            "detector",
            "detected",
            "latency",
            "lag",
            "bound"
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{:<16} {:>6} {:<6} {:>9} {:>9} {:<14} {:>9} {:>9} {:>7} {:>5}",
                row.class.name(),
                row.trials,
                row.victim,
                row.armed_clock,
                row.effect_clock,
                row.detector,
                row.detected_clock,
                row.latency,
                row.lag,
                if row.within_bound { "ok" } else { "MISS" },
            );
        }
        out
    }

    /// Renders as an [`asc_core::json`] object.
    pub fn to_value(&self) -> Value {
        Value::Object(vec![
            ("seed".to_string(), Value::Num(self.seed as f64)),
            (
                "window_cycles".to_string(),
                Value::Num(self.window_cycles as f64),
            ),
            (
                "bound_cycles".to_string(),
                Value::Num(self.bound_cycles as f64),
            ),
            (
                "rows".to_string(),
                Value::Array(
                    self.rows
                        .iter()
                        .map(|r| {
                            Value::Object(vec![
                                ("class".to_string(), Value::Str(r.class.name().to_string())),
                                ("victim".to_string(), Value::Str(r.victim.clone())),
                                ("trials".to_string(), Value::Num(r.trials as f64)),
                                ("armed_clock".to_string(), Value::Num(r.armed_clock as f64)),
                                (
                                    "effect_clock".to_string(),
                                    Value::Num(r.effect_clock as f64),
                                ),
                                ("detector".to_string(), Value::Str(r.detector.clone())),
                                (
                                    "detected_clock".to_string(),
                                    Value::Num(r.detected_clock as f64),
                                ),
                                ("latency".to_string(), Value::Num(r.latency as f64)),
                                ("lag".to_string(), Value::Num(r.lag as f64)),
                                ("within_bound".to_string(), Value::Bool(r.within_bound)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "undetected".to_string(),
                Value::Array(
                    self.undetected
                        .iter()
                        .map(|(c, d)| {
                            Value::Object(vec![
                                ("class".to_string(), Value::Str(c.name().to_string())),
                                ("detail".to_string(), Value::Str(d.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// The monitored fleet: the victim workload first (pid 1), then one of
/// each other workload as background traffic, installed under the
/// campaign key from program id 0x1A7E.
fn fleet(victim: &str, policy_seed: u64) -> FleetScenario {
    let background = FLEET_WORKLOADS.iter().filter(|w| **w != victim);
    FleetScenario {
        procs: std::iter::once(&victim)
            .chain(background)
            .map(|w| w.to_string())
            .collect(),
        personality: PERSONALITY,
        tier: VerifyTier::Mac,
        key_seed: CAMPAIGN_KEY_SEED,
        program_id_base: 0x1A7E,
        policy: SchedPolicy::SeededRandom(policy_seed),
        slice_instrs: 2_000,
        budget_cycles: RUN_BUDGET,
        batch_depth: None,
        fault: None,
    }
}

/// One victim's fleet, prepared once for all its trials, and the
/// inventory and clean solo run of the guest it boots as the victim,
/// which every fault is planned on.
struct VictimFleet {
    guests: FleetGuests,
    inv: Inventory,
    clean: SoloRun,
}

fn victim_fleet(victim: &str) -> VictimFleet {
    let guests = fleet(victim, 0).prepare();
    let (spec, guest) = &guests.guests()[0];
    let inv = scan(guest.binary());
    let opts = scenario_options(PERSONALITY, VerifyTier::Mac);
    let clean = run_solo(spec, guest, opts, None);
    assert!(
        clean.outcome.is_success(),
        "{victim}: clean enforcing run failed"
    );
    VictimFleet { guests, inv, clean }
}

/// Outcome of one monitored trial.
enum Trial {
    /// Fault had a kernel-visible effect and a health event followed.
    Detected {
        armed_clock: u64,
        effect_clock: u64,
        detector: String,
        detected_clock: u64,
    },
    /// Fault never produced a kernel-visible effect (dead byte, missed
    /// cache entry): redraw.
    Benign,
    /// Fault had a kernel-visible effect but *no* health event followed
    /// — a monitoring hole; fails the campaign immediately.
    Missed { effect_clock: u64 },
}

fn run_trial(
    scenario: FleetScenario,
    guests: &FleetGuests,
    fault: AuditFault,
    cfg: &LatencyConfig,
) -> Trial {
    const VICTIM: Pid = 1;
    let trap = match fault {
        AuditFault::Trap(tf) => Some((VICTIM, tf)),
        AuditFault::Mem { .. } => None,
    };
    let mut sched = FleetScenario {
        fault: trap,
        ..scenario
    }
    .spawn(guests);
    let mut armed_clock: Option<u64> = None;
    let mut sentinel = Sentinel::attach(
        &sched,
        SentinelConfig::new(cfg.window_cycles).with_detectors(Detector::signal_suite()),
    );
    let mut effect_clock: Option<u64> = None;
    while sched.step().is_some() {
        if armed_clock.is_none() {
            let landed = match fault {
                AuditFault::Mem {
                    at_instret,
                    addr,
                    mask,
                } => {
                    let victim = sched.process_mut(VICTIM).machine_mut();
                    victim.instret() >= at_instret && flip_byte(victim.mem_mut(), addr, mask)
                }
                AuditFault::Trap(tf) => sched.process(VICTIM).stats().syscalls >= tf.at_trap,
            };
            if landed {
                armed_clock = Some(sched.clock());
            }
        }
        // A clean enforcing fleet raises no alerts and degrades nothing,
        // so the first alert / fallback / scrub anywhere is the fault's
        // first kernel-visible effect.
        if effect_clock.is_none() && armed_clock.is_some() {
            let agg = sched.aggregate_stats();
            let alerted = sched
                .processes()
                .iter()
                .any(|p| !p.kernel().alerts().is_empty());
            if alerted || agg.cache_fallbacks > 0 || agg.cache_scrubs > 0 {
                effect_clock = Some(sched.clock());
            }
        }
        sentinel.observe(&sched);
    }
    sentinel.finish(&sched);
    let (Some(armed), Some(effect)) = (armed_clock, effect_clock) else {
        return Trial::Benign;
    };
    match sentinel.first_event_at_or_after(effect) {
        Some(event) => Trial::Detected {
            armed_clock: armed,
            effect_clock: effect,
            detector: event.detector.clone(),
            detected_clock: event.fired_clock,
        },
        None => Trial::Missed {
            effect_clock: effect,
        },
    }
}

/// Runs the full detection-latency campaign: one detected row per fault
/// class (or an `undetected` entry after the trial budget).
pub fn run_latency_campaign(cfg: &LatencyConfig) -> LatencyReport {
    // Each victim's fleet is prepared the first time a class looks at it.
    let mut fleets: Vec<Option<VictimFleet>> = FLEET_WORKLOADS.iter().map(|_| None).collect();
    let bound_cycles = cfg.bound_cycles();
    let mut rows = Vec::new();
    let mut undetected = Vec::new();
    for (ci, class) in cfg.classes.iter().copied().enumerate() {
        // The victim is the first workload whose binary has artifacts of
        // this class (trap classes need no artifacts, so index 0 works).
        let victim_index = (0..FLEET_WORKLOADS.len())
            .find(|&i| {
                let victim = fleets[i].get_or_insert_with(|| victim_fleet(FLEET_WORKLOADS[i]));
                let mut probe = Rng::new(cfg.seed ^ 0x9E37_79B9);
                plan_fault(class, &victim.inv, &victim.clean, &mut probe).is_some()
            })
            .unwrap_or(0);
        let name = FLEET_WORKLOADS[victim_index];
        let victim = fleets[victim_index]
            .as_ref()
            .expect("prepared while choosing");
        let mut detected = None;
        let mut trials = 0;
        for trial in 0..cfg.max_trials {
            trials = trial + 1;
            let mut rng = Rng::new(cfg.seed ^ ((ci as u64 + 1) << 40) ^ (u64::from(trial) + 1));
            let Some(fault) = plan_fault(class, &victim.inv, &victim.clean, &mut rng) else {
                break;
            };
            let policy_seed = cfg.seed ^ ((ci as u64 + 1) << 20) ^ u64::from(trial);
            match run_trial(fleet(name, policy_seed), &victim.guests, fault, cfg) {
                Trial::Detected {
                    armed_clock,
                    effect_clock,
                    detector,
                    detected_clock,
                } => {
                    let lag = detected_clock - effect_clock;
                    detected = Some(LatencyRow {
                        class,
                        victim: name.to_string(),
                        trials,
                        armed_clock,
                        effect_clock,
                        detector,
                        detected_clock,
                        latency: detected_clock - armed_clock,
                        lag,
                        within_bound: lag <= bound_cycles,
                    });
                    break;
                }
                Trial::Benign => {}
                Trial::Missed { effect_clock } => {
                    undetected.push((
                        class,
                        format!(
                            "trial {trial}: kernel-visible effect at {effect_clock} produced no health event"
                        ),
                    ));
                    break;
                }
            }
        }
        if let Some(row) = detected {
            rows.push(row);
        } else if !undetected.iter().any(|(c, _)| *c == class) {
            undetected.push((
                class,
                format!("{trials} seeded draws, none produced a kernel-visible effect"),
            ));
        }
    }
    LatencyReport {
        seed: cfg.seed,
        window_cycles: cfg.window_cycles,
        bound_cycles,
        rows,
        undetected,
    }
}
