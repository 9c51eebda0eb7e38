//! The perf-trajectory harness behind `asc-bench --bin perf`.
//!
//! Sweeps every registered performance workload (the SPEC analogues from
//! Table 5/6 plus the Andrew-style multiprogram benchmark) three ways —
//! unauthenticated base, enforcing cold (paper-faithful), enforcing warm
//! (MAC cache) — with a [`asc_metrics`] registry attached to the kernel, and
//! reduces each run to a schema-versioned report (`BENCH_4.json`): cycle
//! totals, overhead percentages, and per-histogram quantile summaries.
//!
//! [`compare`] is the regression gate: given a baseline report (checked in
//! at `crates/bench/golden/perf_baseline.json`) and a current one, it
//! returns every tracked total or quantile that *regressed* beyond its
//! per-metric tolerance. Improvements never fail the gate. Everything the
//! gate compares comes off the virtual cycle clock, so a regression is a
//! real cost-model or code change, never machine noise; the only wall-clock
//! metrics in the stack (`asc_installer_pass_us`) are deliberately absent
//! from this report.

use std::collections::HashMap;

use asc_core::json::Value;
use asc_kernel::{FileSystem, KernelOptions, Personality};
use asc_metrics::{MetricValue, Snapshot};
use asc_workloads::tools::{iteration_plan, setup_corpus, tool_source, TOOLS};
use asc_workloads::{Guest, ProgramSpec};

use crate::{bench_key, build_and_install, install, sim_seconds};

/// Report schema name (`BENCH_4.json` carries it so future readers can
/// reject reports they do not understand).
pub const SCHEMA: &str = "asc-perf-trajectory";

/// Report schema version. Bump when fields change meaning.
pub const SCHEMA_VERSION: u64 = 1;

/// Default output file name.
pub const REPORT_FILE: &str = "BENCH_4.json";

const PERSONALITY: Personality = Personality::Linux;

/// Relative tolerance for cycle totals (deterministic, so anything beyond
/// rounding is a real change; 1% absorbs intentional micro-tuning).
pub const TOTAL_TOLERANCE: f64 = 0.01;

/// Relative tolerance for histogram quantiles (log-linear buckets carry
/// ≤6.25% representation error; 10% leaves headroom above that).
pub const QUANTILE_TOLERANCE: f64 = 0.10;

/// One histogram's quantile summary, keyed by run mode and rendered metric
/// (e.g. `cold:asc_verify_cycles{path="cold"}`).
#[derive(Clone, Debug, PartialEq)]
pub struct MetricSummary {
    /// `mode:name{labels}` identifier.
    pub metric: String,
    /// Exact number of observations.
    pub count: u64,
    /// Exact sum of observations.
    pub sum: u64,
    /// Median (bucket upper bound).
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Exact maximum.
    pub max: u64,
}

impl MetricSummary {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("metric".into(), Value::Str(self.metric.clone())),
            ("count".into(), Value::Num(self.count as f64)),
            ("sum".into(), Value::Num(self.sum as f64)),
            ("p50".into(), Value::Num(self.p50 as f64)),
            ("p90".into(), Value::Num(self.p90 as f64)),
            ("p99".into(), Value::Num(self.p99 as f64)),
            ("max".into(), Value::Num(self.max as f64)),
        ])
    }
}

/// One workload's full measurement.
#[derive(Clone, Debug)]
pub struct WorkloadPerf {
    /// Workload name (`andrew` for the multiprogram benchmark).
    pub name: String,
    /// Cycles of the unauthenticated run.
    pub base_cycles: u64,
    /// Cycles of the enforcing run without the verify cache.
    pub cold_cycles: u64,
    /// Cycles of the enforcing run with the verify cache.
    pub warm_cycles: u64,
    /// Cold overhead over base, percent.
    pub cold_overhead_pct: f64,
    /// Warm overhead over base, percent.
    pub warm_overhead_pct: f64,
    /// System calls in the base run.
    pub syscalls: u64,
    /// Histogram quantile summaries from the cold and warm runs.
    pub metrics: Vec<MetricSummary>,
}

impl WorkloadPerf {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("name".into(), Value::Str(self.name.clone())),
            ("base_cycles".into(), Value::Num(self.base_cycles as f64)),
            ("cold_cycles".into(), Value::Num(self.cold_cycles as f64)),
            ("warm_cycles".into(), Value::Num(self.warm_cycles as f64)),
            (
                "cold_overhead_pct".into(),
                Value::Num(self.cold_overhead_pct),
            ),
            (
                "warm_overhead_pct".into(),
                Value::Num(self.warm_overhead_pct),
            ),
            ("syscalls".into(), Value::Num(self.syscalls as f64)),
            (
                "metrics".into(),
                Value::Array(self.metrics.iter().map(MetricSummary::to_value).collect()),
            ),
        ])
    }
}

/// The whole sweep.
#[derive(Clone, Debug)]
pub struct PerfReport {
    /// `git rev-parse HEAD` at sweep time (`unknown` outside a checkout).
    /// Metadata only — [`compare`] never reads it.
    pub git_commit: String,
    /// Whether the worktree had uncommitted changes.
    pub git_dirty: bool,
    /// Per-workload measurements.
    pub workloads: Vec<WorkloadPerf>,
}

impl PerfReport {
    /// Serialises with the schema header. Round-trips through
    /// [`asc_core::json::Value::parse`] exactly (integers only, no floats
    /// that lose precision — overheads are the one exception and re-parse
    /// to the same `f64`).
    pub fn to_value(&self) -> Value {
        Value::Object(vec![
            ("schema".into(), Value::Str(SCHEMA.into())),
            ("schema_version".into(), Value::Num(SCHEMA_VERSION as f64)),
            ("clock_hz".into(), Value::Num(crate::CLOCK_HZ)),
            ("git_commit".into(), Value::Str(self.git_commit.clone())),
            ("git_dirty".into(), Value::Bool(self.git_dirty)),
            (
                "workloads".into(),
                Value::Array(self.workloads.iter().map(WorkloadPerf::to_value).collect()),
            ),
        ])
    }
}

/// Reads git metadata for the report header; never fails (falls back to
/// `unknown`/clean when git or the repo is unavailable).
pub fn git_metadata() -> (String, bool) {
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let dirty = std::process::Command::new("git")
        .args(["status", "--porcelain"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| !o.stdout.is_empty())
        .unwrap_or(false);
    (commit, dirty)
}

/// Reduces a snapshot to quantile summaries, one per non-empty histogram,
/// prefixed with the run mode so cold and warm distributions never merge.
pub fn summarize_snapshot(mode: &str, snap: &Snapshot) -> Vec<MetricSummary> {
    snap.entries()
        .filter_map(|(key, value)| match value {
            MetricValue::Histogram(h) if h.count() > 0 => Some(MetricSummary {
                metric: format!("{mode}:{}", key.render()),
                count: h.count(),
                sum: h.sum(),
                p50: h.quantile(0.50),
                p90: h.quantile(0.90),
                p99: h.quantile(0.99),
                max: h.max(),
            }),
            _ => None,
        })
        .collect()
}

fn overhead_pct(base: u64, with: u64) -> f64 {
    (with as f64 - base as f64) / base as f64 * 100.0
}

/// Enforcing run of one registered workload with metrics attached.
fn metered_run(spec: &ProgramSpec, auth: &Guest, cached: bool) -> (u64, Snapshot) {
    let opts = KernelOptions {
        verify_cache: cached,
        ..KernelOptions::enforcing(PERSONALITY)
    };
    let mut machine = auth
        .boot(opts, spec.fs(), spec.stdin)
        .expect("workload binary fits in guest memory");
    machine.handler_mut().attach_metrics();
    let outcome = machine.run(asc_workloads::RUN_BUDGET);
    let cycles = machine.cycles();
    let mut kernel = machine.into_handler();
    assert!(
        outcome.is_success(),
        "{} failed: {outcome:?} (alerts: {:?}, stderr: {:?})",
        spec.name,
        kernel.alerts(),
        String::from_utf8_lossy(kernel.stderr()),
    );
    let snapshot = kernel
        .take_metrics()
        .expect("metrics were attached before the run")
        .snapshot();
    (cycles, snapshot)
}

/// Measures one registered workload base/cold/warm.
pub fn measure_workload(spec: &ProgramSpec, program_id: u16) -> WorkloadPerf {
    let (plain, auth) = build_and_install(spec, PERSONALITY, program_id);
    let base = plain.run(spec, KernelOptions::plain(PERSONALITY));
    assert!(
        base.outcome.is_success(),
        "{} base run failed: {:?}",
        spec.name,
        base.outcome
    );
    let (cold_cycles, cold_snap) = metered_run(spec, &auth, false);
    let (warm_cycles, warm_snap) = metered_run(spec, &auth, true);

    let mut metrics = summarize_snapshot("cold", &cold_snap);
    metrics.extend(summarize_snapshot("warm", &warm_snap));
    WorkloadPerf {
        name: spec.name.to_string(),
        base_cycles: base.cycles,
        cold_cycles,
        warm_cycles,
        cold_overhead_pct: overhead_pct(base.cycles, cold_cycles),
        warm_overhead_pct: overhead_pct(base.cycles, warm_cycles),
        syscalls: base.kernel.stats().syscalls,
        metrics,
    }
}

/// One Andrew iteration under `opts`, with a merged metrics snapshot
/// across the per-tool kernels. Returns (cycles, syscalls, metrics, fs).
pub fn andrew_iteration(
    tools: &HashMap<&'static str, Guest>,
    mut fs: FileSystem,
    opts: &KernelOptions,
) -> (u64, u64, Snapshot, FileSystem) {
    let mut cycles = 0u64;
    let mut syscalls = 0u64;
    let mut merged = Snapshot::default();
    for step in iteration_plan() {
        let mut machine = tools[step.tool]
            .boot(opts.clone(), fs, step.stdin.as_bytes())
            .expect("tool binary fits in guest memory");
        machine.handler_mut().attach_metrics();
        let outcome = machine.run(10_000_000_000);
        let step_cycles = machine.cycles();
        let mut kernel = machine.into_handler();
        assert!(
            outcome.is_success(),
            "step `{}` failed: {outcome:?} (alerts: {:?}, stderr: {:?})",
            step.tool,
            kernel.alerts(),
            String::from_utf8_lossy(kernel.stderr()),
        );
        cycles += step_cycles;
        syscalls += kernel.stats().syscalls;
        merged.merge(
            &kernel
                .take_metrics()
                .expect("metrics were attached before the run")
                .snapshot(),
        );
        fs = kernel.into_fs();
    }
    (cycles, syscalls, merged, fs)
}

/// The Andrew tools, plain or installed under [`bench_key`].
pub fn andrew_tools(authenticated: bool) -> HashMap<&'static str, Guest> {
    TOOLS
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let src = tool_source(t.name).expect("tool name appears in the Andrew tool registry");
            let plain = asc_workloads::build_source(&src, PERSONALITY)
                .expect("registered tool source compiles and links");
            let guest = if authenticated {
                let auth = install(&plain, t.name, PERSONALITY, 200 + i as u16);
                Guest::installed(auth, &bench_key())
            } else {
                Guest::plain(plain)
            };
            (t.name, guest)
        })
        .collect()
}

/// Measures the Andrew-style multiprogram benchmark base/cold/warm.
pub fn measure_andrew() -> WorkloadPerf {
    let plain_tools = andrew_tools(false);
    let auth_tools = andrew_tools(true);

    let fresh = || {
        let mut fs = FileSystem::new();
        setup_corpus(&mut fs);
        fs
    };
    let cold = KernelOptions::enforcing(PERSONALITY);
    let (base_cycles, syscalls, _, _) =
        andrew_iteration(&plain_tools, fresh(), &KernelOptions::plain(PERSONALITY));
    let (cold_cycles, _, cold_snap, _) = andrew_iteration(&auth_tools, fresh(), &cold);
    let (warm_cycles, _, warm_snap, _) =
        andrew_iteration(&auth_tools, fresh(), &cold.with_verify_cache());

    let mut metrics = summarize_snapshot("cold", &cold_snap);
    metrics.extend(summarize_snapshot("warm", &warm_snap));
    WorkloadPerf {
        name: "andrew".to_string(),
        base_cycles,
        cold_cycles,
        warm_cycles,
        cold_overhead_pct: overhead_pct(base_cycles, cold_cycles),
        warm_overhead_pct: overhead_pct(base_cycles, warm_cycles),
        syscalls,
        metrics,
    }
}

/// Measures the multi-process server workload base/cold/warm with the
/// default fixed-seed configuration (`asc-bench --bin server`'s scenario).
/// Every histogram summary carries a `pid` label, so the trajectory gate
/// covers per-pid distributions, not just the single-process ones.
pub fn measure_server() -> WorkloadPerf {
    use crate::server::{run_server, ServerConfig, ServerMode};
    let config = ServerConfig::default();
    let base = run_server(&config, ServerMode::Base);
    let cold = run_server(&config, ServerMode::Cold);
    let warm = run_server(&config, ServerMode::Warm);

    let mut metrics = summarize_snapshot("cold", &cold.merged_metrics);
    metrics.extend(summarize_snapshot("warm", &warm.merged_metrics));
    // Per-pid entries carry a `pid` label, so the table's all-process
    // lookup key would miss; add the cross-pid aggregate under the same
    // key the single-process workloads use.
    let across = cold
        .merged_metrics
        .histogram_across_labels("asc_verify_cycles");
    if across.count() > 0 {
        metrics.push(MetricSummary {
            metric: "cold:asc_verify_cycles{path=\"cold\"}".into(),
            count: across.count(),
            sum: across.sum(),
            p50: across.quantile(0.50),
            p90: across.quantile(0.90),
            p99: across.quantile(0.99),
            max: across.max(),
        });
    }
    WorkloadPerf {
        name: "server".to_string(),
        base_cycles: base.clock,
        cold_cycles: cold.clock,
        warm_cycles: warm.clock,
        cold_overhead_pct: overhead_pct(base.clock, cold.clock),
        warm_overhead_pct: overhead_pct(base.clock, warm.clock),
        syscalls: base.aggregate.syscalls,
        metrics,
    }
}

/// Measures the fleet-scale scenario (`--bin server --fleet`): base/cold/
/// warm at the default N=64 churn configuration, plus the scaling check —
/// aggregate verified calls per fleet-second at N=1024 must stay within
/// 0.8× of linear extrapolation from the per-pid rate at N=8. The floor is
/// a hard assertion here (the gate's `regressed` only fires on increases,
/// and a *better* ratio must never fail); what the trajectory gates is the
/// inverse `fleet_slowdown_vs_linear_millis`, where an increase is a real
/// scaling regression.
pub fn measure_fleet() -> WorkloadPerf {
    use crate::fleet::{run_fleet, FleetConfig};
    use crate::server::ServerMode;
    let config = FleetConfig::default();
    let base = run_fleet(&config, ServerMode::Base);
    let cold = run_fleet(&config, ServerMode::Cold);
    let warm = run_fleet(&config, ServerMode::Warm);

    let mut metrics = Vec::new();
    // Cross-shard aggregate distributions (the per-shard breakdown stays
    // in the fleet report itself; the trajectory tracks the fleet-wide
    // shape so the baseline file stays reviewable).
    for (mode, run) in [("cold", &cold), ("warm", &warm)] {
        for name in ["asc_verify_cycles", "asc_verify_aes_blocks"] {
            let h = run.merged_metrics.histogram_across_labels(name);
            if h.count() > 0 {
                metrics.push(MetricSummary {
                    metric: format!("{mode}:{name}{{fleet=\"all-shards\"}}"),
                    count: h.count(),
                    sum: h.sum(),
                    p50: h.quantile(0.50),
                    p90: h.quantile(0.90),
                    p99: h.quantile(0.99),
                    max: h.max(),
                });
            }
        }
    }
    // Measured amortisation: shared-cache probes per verified call, in
    // thousandths. Unbatched this is 1000; the batch path must keep it
    // well under — a rise past tolerance fails the gate.
    let probes_milli = (warm.probes_per_verified() * 1000.0).round() as u64;
    metrics.push(MetricSummary {
        metric: "warm:fleet_shared_probes_per_verified_millis".into(),
        count: warm.aggregate.verified,
        sum: warm.shared_probes,
        p50: probes_milli,
        p90: probes_milli,
        p99: probes_milli,
        max: probes_milli,
    });

    // Scaling: near-linear aggregate throughput in fleet size.
    let scale_small = run_fleet(
        &FleetConfig {
            procs: 8,
            churn_spawns: 0,
            ..config
        },
        ServerMode::Warm,
    );
    let scale_large = run_fleet(
        &FleetConfig {
            procs: 1024,
            churn_spawns: 0,
            ..config
        },
        ServerMode::Warm,
    );
    let per_pid_small = scale_small.verified_per_fleet_second() / scale_small.spawned as f64;
    let linear = per_pid_small * scale_large.spawned as f64;
    let ratio = scale_large.verified_per_fleet_second() / linear;
    assert!(
        ratio >= 0.8,
        "fleet throughput fell below near-linear scaling: N={} achieves {:.1} verified \
         calls/fleet-sec, {:.2}x of the {:.1} linear extrapolation from N={} (floor 0.8x)",
        scale_large.spawned,
        scale_large.verified_per_fleet_second(),
        ratio,
        linear,
        scale_small.spawned,
    );
    let slowdown_milli = (1000.0 / ratio).round() as u64;
    metrics.push(MetricSummary {
        metric: "warm:fleet_slowdown_vs_linear_millis".into(),
        count: scale_large.spawned,
        sum: slowdown_milli,
        p50: slowdown_milli,
        p90: slowdown_milli,
        p99: slowdown_milli,
        max: slowdown_milli,
    });

    WorkloadPerf {
        name: "fleet".to_string(),
        base_cycles: base.clock,
        cold_cycles: cold.clock,
        warm_cycles: warm.clock,
        cold_overhead_pct: overhead_pct(base.clock, cold.clock),
        warm_overhead_pct: overhead_pct(base.clock, warm.clock),
        syscalls: base.aggregate.syscalls,
        metrics,
    }
}

/// Measures the verification-tier ablation: the paper's policy workloads
/// (bison, calc, tar) in aggregate under every [`asc_kernel::VerifyTier`].
/// The report slots map tiers, not cache temperature: `base` is the
/// unauthenticated run, `cold` the full MAC tier, `warm` the SFIP
/// flow-only tier; `mac+flow` and the per-tier verification costs land in
/// the metrics list so the trajectory gates all three tiers.
///
/// Hard floor, asserted here rather than gated (the gate only fires on
/// increases, and a *cheaper* flow check must never fail): flow-only
/// verification must cost under 25% of the MAC tier per call — the
/// whole point of the cheap tier — and must run zero AES blocks.
pub fn measure_tiers() -> WorkloadPerf {
    use asc_kernel::VerifyTier;
    const WORKLOADS: [&str; 3] = ["bison", "calc", "tar"];
    let mut base_cycles = 0u64;
    let mut syscalls = 0u64;
    // Indexed by position in `VerifyTier::ALL` (flow-only, mac, mac+flow).
    let mut cycles = [0u64; 3];
    let mut verify_cycles = [0u64; 3];
    let mut verified = [0u64; 3];
    let mut aes_blocks = [0u64; 3];
    for (i, name) in WORKLOADS.iter().enumerate() {
        let spec = asc_workloads::program(name).expect("tier workload registered");
        let (plain, auth) = build_and_install(spec, PERSONALITY, 0x0F50 + i as u16);
        let base = plain.run(spec, KernelOptions::plain(PERSONALITY));
        assert!(
            base.outcome.is_success(),
            "{name} base run failed: {:?}",
            base.outcome
        );
        base_cycles += base.cycles;
        syscalls += base.kernel.stats().syscalls;
        for (ti, &tier) in VerifyTier::ALL.iter().enumerate() {
            let run = auth.run(spec, KernelOptions::enforcing(PERSONALITY).with_tier(tier));
            assert!(
                run.outcome.is_success(),
                "{name} {} run failed: {:?} (alerts: {:?})",
                tier.name(),
                run.outcome,
                run.kernel.alerts()
            );
            let stats = run.kernel.stats();
            cycles[ti] += run.cycles;
            verify_cycles[ti] += stats.verify_cycles;
            verified[ti] += stats.verified;
            aes_blocks[ti] += stats.verify_aes_blocks;
        }
    }

    let slot = |tier: VerifyTier| {
        VerifyTier::ALL
            .iter()
            .position(|&t| t == tier)
            .expect("tier listed in ALL")
    };
    let (flow, mac, both) = (
        slot(VerifyTier::FlowOnly),
        slot(VerifyTier::Mac),
        slot(VerifyTier::MacPlusFlow),
    );
    let per_call = |ti: usize| verify_cycles[ti] as f64 / verified[ti].max(1) as f64;
    assert!(
        per_call(flow) < 0.25 * per_call(mac),
        "flow-only verification is not cheap enough: {:.0} cycles/call vs {:.0} \
         under mac (floor: <25%)",
        per_call(flow),
        per_call(mac),
    );
    assert_eq!(
        aes_blocks[flow], 0,
        "the flow-only tier must never touch AES"
    );
    assert!(
        verify_cycles[both] > verify_cycles[mac],
        "mac+flow must charge for the extra edge check"
    );

    let mut metrics = Vec::new();
    for (ti, &tier) in VerifyTier::ALL.iter().enumerate() {
        let millis = (per_call(ti) * 1000.0).round() as u64;
        metrics.push(MetricSummary {
            metric: format!(
                "tiers:verify_cycles_per_call_millis{{tier=\"{}\"}}",
                tier.name()
            ),
            count: verified[ti],
            sum: verify_cycles[ti],
            p50: millis,
            p90: millis,
            p99: millis,
            max: millis,
        });
        metrics.push(MetricSummary {
            metric: format!("tiers:total_cycles{{tier=\"{}\"}}", tier.name()),
            count: 1,
            sum: cycles[ti],
            p50: cycles[ti],
            p90: cycles[ti],
            p99: cycles[ti],
            max: cycles[ti],
        });
    }
    WorkloadPerf {
        name: "tiers".to_string(),
        base_cycles,
        cold_cycles: cycles[mac],
        warm_cycles: cycles[flow],
        cold_overhead_pct: overhead_pct(base_cycles, cycles[mac]),
        warm_overhead_pct: overhead_pct(base_cycles, cycles[flow]),
        syscalls,
        metrics,
    }
}

/// Runs the full sweep. `progress` is called with each workload name before
/// it runs (the bin prints these so a long sweep shows life).
pub fn sweep(mut progress: impl FnMut(&str)) -> PerfReport {
    let mut workloads = Vec::new();
    for (i, spec) in asc_workloads::programs()
        .iter()
        .filter(|p| p.perf_experiment)
        .enumerate()
    {
        progress(spec.name);
        workloads.push(measure_workload(spec, 100 + i as u16));
    }
    progress("andrew");
    workloads.push(measure_andrew());
    progress("server");
    workloads.push(measure_server());
    progress("fleet");
    workloads.push(measure_fleet());
    progress("tiers");
    workloads.push(measure_tiers());
    let (git_commit, git_dirty) = git_metadata();
    PerfReport {
        git_commit,
        git_dirty,
        workloads,
    }
}

/// Renders the human table: per-workload totals plus the cold verify-cycle
/// quantiles (the distribution the paper's averages hide).
pub fn render_table(report: &PerfReport) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Perf trajectory — base vs enforcing cold/warm (simulated seconds @100MHz)"
    );
    let _ = writeln!(
        out,
        "{:<10} {:>10} {:>10} {:>7} {:>10} {:>7} {:>9} {:>8} {:>8} {:>8}",
        "Workload",
        "Base(s)",
        "Cold(s)",
        "Cold%",
        "Warm(s)",
        "Warm%",
        "Syscalls",
        "p50",
        "p99",
        "max"
    );
    for w in &report.workloads {
        let cold_verify = w
            .metrics
            .iter()
            .find(|m| m.metric == "cold:asc_verify_cycles{path=\"cold\"}");
        let (p50, p99, max) = cold_verify.map_or((0, 0, 0), |m| (m.p50, m.p99, m.max));
        let _ = writeln!(
            out,
            "{:<10} {:>10.4} {:>10.4} {:>7.2} {:>10.4} {:>7.2} {:>9} {:>8} {:>8} {:>8}",
            w.name,
            sim_seconds(w.base_cycles),
            sim_seconds(w.cold_cycles),
            w.cold_overhead_pct,
            sim_seconds(w.warm_cycles),
            w.warm_overhead_pct,
            w.syscalls,
            p50,
            p99,
            max,
        );
    }
    let _ = writeln!(
        out,
        "(p50/p99/max are cold per-call verify cycles; full distributions in {REPORT_FILE})"
    );
    out
}

fn num(value: &Value, key: &str) -> Option<f64> {
    match value.get(key) {
        Some(Value::Num(n)) => Some(*n),
        _ => None,
    }
}

fn regressed(baseline: f64, current: f64, tolerance: f64) -> bool {
    current > baseline * (1.0 + tolerance) + 0.5
}

/// Compares two reports (as parsed JSON) and returns every regression:
/// a tracked total or quantile in `current` above its `baseline` value by
/// more than the per-metric tolerance. Missing workloads or metrics are
/// regressions (coverage loss); new ones are not. Git metadata is ignored.
///
/// # Errors
///
/// Returns a message when either document does not carry the expected
/// schema (wrong `schema`/`schema_version` or missing fields).
pub fn compare(baseline: &Value, current: &Value) -> Result<Vec<String>, String> {
    for (label, doc) in [("baseline", baseline), ("current", current)] {
        match doc.get("schema").and_then(Value::as_str) {
            Some(SCHEMA) => {}
            other => return Err(format!("{label}: unexpected schema {other:?}")),
        }
        match doc.get("schema_version").and_then(Value::as_u64) {
            Some(SCHEMA_VERSION) => {}
            other => return Err(format!("{label}: unexpected schema_version {other:?}")),
        }
    }
    let base_workloads = baseline
        .get("workloads")
        .and_then(Value::as_array)
        .ok_or("baseline: missing workloads array")?;
    let cur_workloads = current
        .get("workloads")
        .and_then(Value::as_array)
        .ok_or("current: missing workloads array")?;

    let mut regressions = Vec::new();
    for bw in base_workloads {
        let name = bw
            .get("name")
            .and_then(Value::as_str)
            .ok_or("baseline: workload without a name")?;
        let Some(cw) = cur_workloads
            .iter()
            .find(|w| w.get("name").and_then(Value::as_str) == Some(name))
        else {
            regressions.push(format!("{name}: workload missing from current report"));
            continue;
        };
        for total in ["base_cycles", "cold_cycles", "warm_cycles"] {
            let (Some(b), Some(c)) = (num(bw, total), num(cw, total)) else {
                regressions.push(format!("{name}: {total} missing"));
                continue;
            };
            if regressed(b, c, TOTAL_TOLERANCE) {
                regressions.push(format!(
                    "{name}: {total} regressed {b:.0} -> {c:.0} (+{:.2}%, tolerance {:.1}%)",
                    (c - b) / b * 100.0,
                    TOTAL_TOLERANCE * 100.0
                ));
            }
        }
        let empty = Vec::new();
        let base_metrics = bw
            .get("metrics")
            .and_then(Value::as_array)
            .unwrap_or(&empty);
        let cur_metrics = cw
            .get("metrics")
            .and_then(Value::as_array)
            .unwrap_or(&empty);
        for bm in base_metrics {
            let metric = bm
                .get("metric")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("baseline: {name}: metric without a name"))?;
            let Some(cm) = cur_metrics
                .iter()
                .find(|m| m.get("metric").and_then(Value::as_str) == Some(metric))
            else {
                regressions.push(format!("{name}: {metric} missing from current report"));
                continue;
            };
            for q in ["sum", "p50", "p90", "p99", "max"] {
                let (Some(b), Some(c)) = (num(bm, q), num(cm, q)) else {
                    regressions.push(format!("{name}: {metric}.{q} missing"));
                    continue;
                };
                if regressed(b, c, QUANTILE_TOLERANCE) {
                    regressions.push(format!(
                        "{name}: {metric}.{q} regressed {b:.0} -> {c:.0} (+{:.2}%, tolerance {:.1}%)",
                        (c - b) / b * 100.0,
                        QUANTILE_TOLERANCE * 100.0
                    ));
                }
            }
        }
    }
    Ok(regressions)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_report() -> PerfReport {
        PerfReport {
            git_commit: "unknown".into(),
            git_dirty: false,
            workloads: vec![WorkloadPerf {
                name: "toy".into(),
                base_cycles: 1_000_000,
                cold_cycles: 1_020_000,
                warm_cycles: 1_010_000,
                cold_overhead_pct: 2.0,
                warm_overhead_pct: 1.0,
                syscalls: 42,
                metrics: vec![MetricSummary {
                    metric: "cold:asc_verify_cycles{path=\"cold\"}".into(),
                    count: 42,
                    sum: 20_000,
                    p50: 450,
                    p90: 520,
                    p99: 600,
                    max: 640,
                }],
            }],
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let value = tiny_report().to_value();
        let text = value.to_pretty();
        let parsed = Value::parse(&text).expect("report re-parses");
        assert_eq!(parsed, value);
    }

    #[test]
    fn identical_reports_pass_the_gate() {
        let v = tiny_report().to_value();
        assert_eq!(
            compare(&v, &v).expect("schemas match"),
            Vec::<String>::new()
        );
    }

    #[test]
    fn injected_slowdown_fails_the_gate() {
        let baseline = tiny_report().to_value();
        let mut slow = tiny_report();
        slow.workloads[0].cold_cycles = (slow.workloads[0].cold_cycles as f64 * 1.25) as u64;
        slow.workloads[0].metrics[0].p99 = (slow.workloads[0].metrics[0].p99 as f64 * 1.25) as u64;
        let regressions = compare(&baseline, &slow.to_value()).expect("schemas match");
        assert_eq!(regressions.len(), 2, "{regressions:?}");
        assert!(regressions[0].contains("cold_cycles"), "{regressions:?}");
        assert!(regressions[1].contains("p99"), "{regressions:?}");
    }

    #[test]
    fn improvements_never_fail_the_gate() {
        let baseline = tiny_report().to_value();
        let mut fast = tiny_report();
        fast.workloads[0].cold_cycles /= 2;
        fast.workloads[0].metrics[0].p99 /= 2;
        assert_eq!(
            compare(&baseline, &fast.to_value()).expect("schemas match"),
            Vec::<String>::new()
        );
    }

    #[test]
    fn missing_workload_or_metric_is_a_regression() {
        let baseline = tiny_report().to_value();
        let mut gutted = tiny_report();
        gutted.workloads[0].metrics.clear();
        let regressions = compare(&baseline, &gutted.to_value()).expect("schemas match");
        assert_eq!(regressions.len(), 1, "{regressions:?}");
        assert!(regressions[0].contains("missing"), "{regressions:?}");

        let mut empty = tiny_report();
        empty.workloads.clear();
        let regressions = compare(&baseline, &empty.to_value()).expect("schemas match");
        assert!(
            regressions[0].contains("workload missing"),
            "{regressions:?}"
        );
    }

    #[test]
    fn small_jitter_within_tolerance_passes() {
        let baseline = tiny_report().to_value();
        let mut near = tiny_report();
        near.workloads[0].cold_cycles += 5_000; // +0.49% < 1%
        near.workloads[0].metrics[0].p99 += 30; // +5% < 10%
        assert_eq!(
            compare(&baseline, &near.to_value()).expect("schemas match"),
            Vec::<String>::new()
        );
    }

    #[test]
    fn wrong_schema_is_an_error_not_a_pass() {
        let good = tiny_report().to_value();
        let bad = Value::Object(vec![
            ("schema".into(), Value::Str("something-else".into())),
            ("schema_version".into(), Value::Num(1.0)),
            ("workloads".into(), Value::Array(vec![])),
        ]);
        assert!(compare(&bad, &good).is_err());
        assert!(compare(&good, &bad).is_err());
    }
}
