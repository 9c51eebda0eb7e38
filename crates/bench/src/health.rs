//! The fleet-health dashboard behind `asc-bench --bin health`.
//!
//! Two sections, both pure functions of the seed:
//!
//! 1. **Healthy-fleet dashboard** — a monitored fleet (every kernel at
//!    the strongest tier, metrics registries attached, shared verify
//!    cache, batched trap path) driven to completion with an
//!    [`asc_sentinel::Sentinel`] sampling on slice boundaries. The
//!    per-window table shows every derived series the detectors watch,
//!    and the SLO section proves the whole default suite stayed quiet.
//! 2. **Detection-latency matrix** — the
//!    [`asc_faults::run_latency_campaign`] coverage matrix: every fault
//!    class detected, with armed/effect/detected clocks and the
//!    monitoring-lag bound enforced.
//!
//! The sentinel observes through shared references only, so attaching it
//! cannot perturb the run (`tests/sentinel.rs` proves bit-identity); the
//! default report is golden-pinned (`crates/bench/golden/health.txt`)
//! and diffed by `crates/bench/tests/golden_tables.rs`. The binary exits nonzero if
//! the healthy fleet fires any quiet-SLO detector or the latency
//! campaign reports a problem.

use asc_audit::FleetScenario;
use asc_core::json::Value;
use asc_faults::{run_latency_campaign, LatencyConfig, LatencyReport};
use asc_kernel::{KernelMetrics, Personality, VerifyTier};
use asc_sched::{Pid, SchedPolicy};
use asc_sentinel::{HealthReport, Sentinel, SentinelConfig, Series, WindowSample};
use asc_workloads::RUN_BUDGET;

use crate::BENCH_KEY_SEED;

/// Workloads the monitored dashboard fleet runs (two kernels each).
const HEALTH_WORKLOADS: [&str; 3] = ["bison", "calc", "tar"];

/// Health-bench parameters.
#[derive(Clone, Copy, Debug)]
pub struct HealthConfig {
    /// Interleaving / campaign seed.
    pub seed: u64,
    /// Sentinel window length on the shared virtual clock.
    pub window_cycles: u64,
}

impl Default for HealthConfig {
    fn default() -> HealthConfig {
        HealthConfig {
            seed: 0x5E17_BEA7,
            window_cycles: 200_000,
        }
    }
}

/// One full health-bench run: the monitored fleet's windows and report,
/// plus the detection-latency matrix.
pub struct HealthRun {
    /// The configuration used.
    pub config: HealthConfig,
    /// Final shared virtual clock of the dashboard fleet.
    pub clock: u64,
    /// Retained telemetry windows, in order.
    pub windows: Vec<WindowSample>,
    /// Detector events and SLO verdicts over those windows.
    pub report: HealthReport,
    /// The fault-campaign detection-latency coverage matrix.
    pub latency: LatencyReport,
}

impl HealthRun {
    /// Everything that fails the bench: a fired quiet-SLO detector on
    /// the healthy fleet, or any latency-campaign problem.
    pub fn problems(&self) -> Vec<String> {
        let mut problems = Vec::new();
        for v in &self.report.verdicts {
            if !v.pass {
                problems.push(format!(
                    "healthy fleet fired quiet-SLO detector `{}` {} time(s)",
                    v.detector, v.fired
                ));
            }
        }
        problems.extend(self.latency.problems());
        problems
    }
}

/// Runs the monitored fleet and the latency campaign. Fully
/// deterministic for a given config.
pub fn run_health(config: &HealthConfig) -> HealthRun {
    // Two kernels of each workload at the strongest tier, batched.
    let mut sched = FleetScenario {
        procs: HEALTH_WORKLOADS
            .repeat(2)
            .iter()
            .map(|w| w.to_string())
            .collect(),
        personality: Personality::Linux,
        tier: VerifyTier::MacPlusFlow,
        key_seed: BENCH_KEY_SEED,
        program_id_base: 0x4EA0,
        policy: SchedPolicy::SeededRandom(config.seed),
        slice_instrs: 2_000,
        budget_cycles: RUN_BUDGET,
        batch_depth: Some(8),
        fault: None,
    }
    .build();
    for pid in 1..=sched.processes().len() as Pid {
        let kernel = sched.process_mut(pid).kernel_mut();
        kernel.set_metrics(Box::new(KernelMetrics::new()));
    }
    let sentinel = Sentinel::drive(&mut sched, SentinelConfig::new(config.window_cycles));
    let report = sentinel.report();
    let latency = run_latency_campaign(&LatencyConfig::new(config.seed));
    HealthRun {
        config: *config,
        clock: sched.clock(),
        windows: sentinel.windows().to_vec(),
        report,
        latency,
    }
}

fn ratio_cell(value: Option<f64>) -> String {
    match value {
        Some(v) => format!("{v:.3}"),
        None => "-".to_string(),
    }
}

/// Renders the human dashboard (the golden-pinned output of
/// `--bin health`).
pub fn render_health(run: &HealthRun) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let cfg = &run.config;
    let _ = writeln!(
        out,
        "Fleet health dashboard — {} monitored kernels, seed {:#x}, {}-cycle windows",
        HEALTH_WORKLOADS.len() * 2,
        cfg.seed,
        cfg.window_cycles,
    );
    let _ = writeln!(
        out,
        "{:>6} {:>9} {:>9} {:>8} {:>8} {:>6} {:>8} {:>7} {:>7} {:>9} {:>6} {:>6}",
        "window",
        "start",
        "end",
        "syscalls",
        "verified",
        "warm",
        "vc/call",
        "p99-vc",
        "probes",
        "batchfil",
        "alerts",
        "live",
    );
    for w in &run.windows {
        let _ = writeln!(
            out,
            "{:>6} {:>9} {:>9} {:>8} {:>8} {:>6} {:>8} {:>7} {:>7} {:>9} {:>6} {:>6}",
            w.index,
            w.start,
            w.end,
            w.syscalls,
            w.verified,
            ratio_cell(Series::WarmHitRatio.value(w)),
            ratio_cell(Series::VerifyCyclesPerCall.value(w)),
            w.verify_p99.map(|p| p.to_string()).unwrap_or("-".into()),
            w.probes,
            ratio_cell(Series::BatchFill.value(w)),
            w.alerts_total,
            w.live,
        );
    }
    let _ = writeln!(
        out,
        "fleet: {} windows over {} cycles, {} health events",
        run.report.windows_total,
        run.clock,
        run.report.events.len(),
    );
    let _ = writeln!(
        out,
        "\nSLO verdicts (quiet-SLO detectors on the healthy fleet):"
    );
    for v in &run.report.verdicts {
        let _ = writeln!(
            out,
            "  {:<18} fired {:>3}  {}",
            v.detector,
            v.fired,
            if v.pass { "pass" } else { "FAIL" },
        );
    }
    let _ = writeln!(
        out,
        "\nDetection latency — seeded fault campaign, {}-cycle windows, lag bound {} cycles:",
        run.latency.window_cycles, run.latency.bound_cycles,
    );
    let _ = write!(out, "{}", run.latency.render());
    out
}

/// Converts a health run to a JSON value for the `--json` report mode.
pub fn health_to_value(run: &HealthRun) -> Value {
    Value::Object(vec![
        ("seed".into(), Value::Num(run.config.seed as f64)),
        (
            "window_cycles".into(),
            Value::Num(run.config.window_cycles as f64),
        ),
        ("clock_cycles".into(), Value::Num(run.clock as f64)),
        (
            "windows".into(),
            Value::Array(run.windows.iter().map(WindowSample::to_value).collect()),
        ),
        ("report".into(), run.report.to_value()),
        ("latency".into(), run.latency.to_value()),
    ])
}
