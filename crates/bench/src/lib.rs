//! Shared harness code for the table-regeneration binaries.

pub mod audit;
pub mod cli;
pub mod fleet;
pub mod health;
pub mod perf;
pub mod server;

use asc_core::json::Value;
use asc_crypto::MacKey;
use asc_installer::{Installer, InstallerOptions};
use asc_kernel::{FileSystem, KernelOptions, KernelStats, Personality};
use asc_object::Binary;
use asc_trace::{CheckKind, Profile, ProfileTotals, SiteProfile, CHECK_FAMILIES};
use asc_workloads::tools::{iteration_plan, setup_corpus};
use asc_workloads::{program, Guest, ProgramSpec, RunReport};

/// The fixed experiment key (the security administrator's secret).
pub fn bench_key() -> MacKey {
    MacKey::from_seed(0x0DD5_EED5)
}

/// Simulated clock for converting cycles to "seconds" in reports (100 MHz
/// keeps the magnitudes readable; only ratios matter).
pub const CLOCK_HZ: f64 = 100_000_000.0;

/// Installs `plain` under [`bench_key`] with the given program id.
pub(crate) fn install(
    plain: &Binary,
    name: &str,
    personality: Personality,
    program_id: u16,
) -> Binary {
    Installer::new(
        bench_key(),
        InstallerOptions::new(personality).with_program_id(program_id),
    )
    .install(plain, name)
    .unwrap_or_else(|e| panic!("{name}: {e}"))
    .0
}

/// Builds and installs one registered program, returning the plain and
/// the installed guest.
pub fn build_and_install(
    spec: &ProgramSpec,
    personality: Personality,
    program_id: u16,
) -> (Guest, Guest) {
    let plain =
        asc_workloads::build(spec, personality).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
    let auth = install(&plain, spec.name, personality, program_id);
    (Guest::plain(plain), Guest::installed(auth, &bench_key()))
}

/// One row of the Table 6 experiment.
#[derive(Clone, Debug)]
pub struct PerfRow {
    /// Program name.
    pub name: String,
    /// Table 5 classification.
    pub kind: String,
    /// Cycles of the unauthenticated run.
    pub base_cycles: u64,
    /// Cycles of the authenticated run.
    pub auth_cycles: u64,
    /// Percentage overhead.
    pub overhead_pct: f64,
    /// System calls made.
    pub syscalls: u64,
    /// Paper's reported overhead (for the comparison column).
    pub paper_pct: f64,
}

impl PerfRow {
    /// Converts to a JSON value for the `--json` report mode.
    pub fn to_value(&self) -> Value {
        Value::Object(vec![
            ("name".into(), Value::Str(self.name.clone())),
            ("kind".into(), Value::Str(self.kind.clone())),
            ("base_cycles".into(), Value::Num(self.base_cycles as f64)),
            ("auth_cycles".into(), Value::Num(self.auth_cycles as f64)),
            ("overhead_pct".into(), Value::Num(self.overhead_pct)),
            ("syscalls".into(), Value::Num(self.syscalls as f64)),
            ("paper_pct".into(), Value::Num(self.paper_pct)),
        ])
    }
}

/// Paper Table 6 overhead percentages; `None` for programs the paper did
/// not measure (callers decide how to render the gap — the table binaries
/// print `NaN` via [`f64::NAN`]).
pub fn paper_overhead(name: &str) -> Option<f64> {
    match name {
        "gzip-spec" => Some(1.41),
        "crafty" => Some(1.40),
        "mcf" => Some(0.73),
        "vpr" => Some(1.16),
        "twolf" => Some(1.70),
        "gcc" => Some(1.39),
        "vortex" => Some(0.84),
        "pyramid" => Some(7.92),
        "gzip" => Some(1.06),
        _ => None,
    }
}

/// Runs the original-vs-authenticated measurement for one program.
pub fn measure_program(name: &str, program_id: u16) -> PerfRow {
    let spec = program(name).expect("name appears in the asc_workloads program registry");
    let personality = Personality::Linux;
    let (plain, auth) = build_and_install(spec, personality, program_id);
    let base = expect_ok(spec, plain.run(spec, KernelOptions::plain(personality)));
    let with = expect_ok(spec, auth.run(spec, KernelOptions::enforcing(personality)));
    let overhead_pct = (with.cycles as f64 - base.cycles as f64) / base.cycles as f64 * 100.0;
    PerfRow {
        name: name.to_string(),
        kind: format!("{:?}", spec.kind),
        base_cycles: base.cycles,
        auth_cycles: with.cycles,
        overhead_pct,
        syscalls: base.kernel.stats().syscalls,
        paper_pct: paper_overhead(name).unwrap_or(f64::NAN),
    }
}

fn expect_ok(spec: &ProgramSpec, report: RunReport) -> RunReport {
    assert!(
        report.outcome.is_success(),
        "{} failed: {:?} (alerts: {:?}, stderr: {:?})",
        spec.name,
        report.outcome,
        report.kernel.alerts(),
        String::from_utf8_lossy(report.kernel.stderr()),
    );
    report
}

/// Formats cycles as simulated seconds.
pub fn sim_seconds(cycles: u64) -> f64 {
    cycles as f64 / CLOCK_HZ
}

/// Prints a JSON value in the shared pretty format — the single `--json`
/// output path for every reporting binary.
pub fn print_json(value: &Value) {
    println!("{}", value.to_pretty());
}

/// A profiled enforcing run: the flight-recorder [`Profile`] plus the
/// kernel's own counters, so reports can cross-check the two.
pub struct ProfiledRun {
    /// Workload label for report headers.
    pub workload: String,
    /// Per-call-site aggregation from the attached trace sink.
    pub profile: Profile,
    /// The kernel's aggregate counters for the same run(s).
    pub stats: KernelStats,
    /// Events the sink discarded under memory pressure
    /// ([`asc_trace::TraceSink::dropped`]). The unbounded [`Profile`]
    /// sink never drops, so this is 0 here and nonzero only for bounded
    /// ring sinks — surfaced so every report states its own completeness.
    pub ring_dropped: u64,
}

/// Runs one registered workload under an enforcing, cache-enabled kernel
/// with a [`Profile`] sink attached. The installer's pass spans land in the
/// same profile, so the report covers install-time coverage too.
pub fn profile_workload(name: &str) -> ProfiledRun {
    let spec = program(name).expect("name appears in the asc_workloads program registry");
    let personality = Personality::Linux;
    let plain =
        asc_workloads::build(spec, personality).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
    let installer = Installer::new(
        bench_key(),
        InstallerOptions::new(personality).with_program_id(1),
    );
    let mut profile = Profile::new();
    profile.set_context(spec.name);
    let (auth, _) = installer
        .install_traced(&plain, spec.name, &mut profile)
        .unwrap_or_else(|e| panic!("{}: {e}", spec.name));

    let mut machine = Guest::installed(auth, &bench_key())
        .boot(
            KernelOptions::enforcing(personality).with_verify_cache(),
            spec.fs(),
            spec.stdin,
        )
        .expect("workload binary fits in guest memory");
    machine.handler_mut().set_trace_sink(Box::new(profile));
    let outcome = machine.run(asc_workloads::RUN_BUDGET);
    let mut kernel = machine.into_handler();
    assert!(
        outcome.is_success(),
        "{} failed: {outcome:?} (alerts: {:?}, stderr: {:?})",
        spec.name,
        kernel.alerts(),
        String::from_utf8_lossy(kernel.stderr()),
    );
    let stats = *kernel.stats();
    let sink = kernel
        .take_trace_sink()
        .expect("the trace sink attached before the run is still present");
    let ring_dropped = sink.dropped();
    let profile = sink
        .into_any()
        .downcast::<Profile>()
        .expect("the attached sink was the Profile installed above");
    ProfiledRun {
        workload: name.to_string(),
        profile: *profile,
        stats,
        ring_dropped,
    }
}

/// Profiles one iteration of the Andrew-style multiprogram benchmark: every
/// tool step runs on its own enforcing, cache-enabled kernel, with a single
/// [`Profile`] threaded through them (context = tool name, so same-address
/// call sites of different tools do not merge).
pub fn profile_andrew() -> ProfiledRun {
    let personality = Personality::Linux;
    let tools = perf::andrew_tools(true);
    let mut fs = FileSystem::new();
    setup_corpus(&mut fs);
    let mut profile = Box::new(Profile::new());
    let mut stats = KernelStats::default();
    let mut ring_dropped = 0u64;
    for step in iteration_plan() {
        let mut machine = tools[step.tool]
            .boot(
                KernelOptions::enforcing(personality).with_verify_cache(),
                fs,
                step.stdin.as_bytes(),
            )
            .expect("tool binary fits in guest memory");
        profile.set_context(step.tool);
        machine.handler_mut().set_trace_sink(profile);
        let outcome = machine.run(10_000_000_000);
        let mut kernel = machine.into_handler();
        assert!(
            outcome.is_success(),
            "step `{}` failed: {outcome:?} (alerts: {:?}, stderr: {:?})",
            step.tool,
            kernel.alerts(),
            String::from_utf8_lossy(kernel.stderr()),
        );
        stats.absorb(kernel.stats());
        let sink = kernel
            .take_trace_sink()
            .expect("the trace sink attached before the run is still present");
        ring_dropped += sink.dropped();
        profile = sink
            .into_any()
            .downcast::<Profile>()
            .expect("the attached sink was the Profile installed above");
        fs = kernel.into_fs();
    }
    ProfiledRun {
        workload: "andrew".to_string(),
        profile: *profile,
        stats,
        ring_dropped,
    }
}

/// Renders a profiled run as the per-call-site text table.
pub fn render_profile(run: &ProfiledRun) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Verifier flight recorder — per-call-site profile ({})",
        run.workload
    );
    let _ = writeln!(
        out,
        "{:<10} {:>10}  {:<12} {:>7} {:>6} {:>6} {:>12} {:>12} {:>9}",
        "context",
        "site",
        "syscall",
        "calls",
        "warm",
        "kills",
        "verify-cyc",
        "fixed-cyc",
        "aes-blk"
    );
    for row in run.profile.rows() {
        let _ = writeln!(
            out,
            "{:<10} {:>#10x}  {:<12} {:>7} {:>6} {:>6} {:>12} {:>12} {:>9}",
            row.context,
            row.site,
            Personality::Linux.name_of(row.nr),
            row.calls,
            row.warm_calls,
            row.kills,
            row.verify_cycles,
            row.fixed_cycles,
            row.aes_blocks,
        );
        for family in 0..CHECK_FAMILIES {
            let agg = &row.checks[family];
            if agg.count == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "           | {:<12} {:>5} checks ({} failed)  {:>7} aes-blk  {:>10} cyc  {:>8} B  cache {}h/{}f/{}s",
                CheckKind::family_name(family),
                agg.count,
                agg.failed,
                agg.aes_blocks,
                agg.cycles,
                agg.bytes,
                agg.hits,
                agg.fallbacks,
                agg.scrubs,
            );
        }
    }
    let t = run.profile.totals();
    let _ = writeln!(
        out,
        "totals: {} calls ({} warm, {} cold), {} kills, {} verify cycles ({} fixed), {} aes blocks, {} bytes checked",
        t.calls,
        t.warm_calls,
        t.calls - t.warm_calls,
        t.kills,
        t.verify_cycles,
        t.fixed_cycles,
        t.aes_blocks,
        t.bytes,
    );
    let s = &run.stats;
    let _ = writeln!(
        out,
        "kernel:  {} verified ({} cache hits, {} fallbacks, {} scrubs), {} verify cycles, {} aes blocks",
        s.verified, s.cache_hits, s.cache_fallbacks, s.cache_scrubs, s.verify_cycles, s.verify_aes_blocks,
    );
    let _ = writeln!(
        out,
        "ring:    {} events dropped by the trace sink",
        run.ring_dropped,
    );
    if !run.profile.passes().is_empty() {
        let _ = writeln!(out, "installer passes:");
        for (pass, counters) in run.profile.passes() {
            let rendered: Vec<String> = counters.iter().map(|(k, v)| format!("{k}={v}")).collect();
            let _ = writeln!(out, "  {:<16} {}", pass, rendered.join(" "));
        }
    }
    out
}

fn site_to_value(row: &SiteProfile) -> Value {
    let mut checks = Vec::new();
    for family in 0..CHECK_FAMILIES {
        let agg = &row.checks[family];
        if agg.count == 0 {
            continue;
        }
        checks.push((
            CheckKind::family_name(family).to_string(),
            Value::Object(vec![
                ("count".into(), Value::Num(agg.count as f64)),
                ("failed".into(), Value::Num(agg.failed as f64)),
                ("aes_blocks".into(), Value::Num(agg.aes_blocks as f64)),
                ("cycles".into(), Value::Num(agg.cycles as f64)),
                ("bytes".into(), Value::Num(agg.bytes as f64)),
                ("hits".into(), Value::Num(agg.hits as f64)),
                ("fallbacks".into(), Value::Num(agg.fallbacks as f64)),
                ("scrubs".into(), Value::Num(agg.scrubs as f64)),
            ]),
        ));
    }
    Value::Object(vec![
        ("context".into(), Value::Str(row.context.clone())),
        ("site".into(), Value::Num(row.site as f64)),
        ("nr".into(), Value::Num(row.nr as f64)),
        (
            "syscall".into(),
            Value::Str(Personality::Linux.name_of(row.nr).to_string()),
        ),
        ("calls".into(), Value::Num(row.calls as f64)),
        ("warm_calls".into(), Value::Num(row.warm_calls as f64)),
        ("kills".into(), Value::Num(row.kills as f64)),
        ("verify_cycles".into(), Value::Num(row.verify_cycles as f64)),
        ("fixed_cycles".into(), Value::Num(row.fixed_cycles as f64)),
        ("aes_blocks".into(), Value::Num(row.aes_blocks as f64)),
        ("checks".into(), Value::Object(checks)),
    ])
}

fn totals_to_value(t: &ProfileTotals) -> Value {
    Value::Object(vec![
        ("calls".into(), Value::Num(t.calls as f64)),
        ("warm_calls".into(), Value::Num(t.warm_calls as f64)),
        ("kills".into(), Value::Num(t.kills as f64)),
        ("verify_cycles".into(), Value::Num(t.verify_cycles as f64)),
        ("fixed_cycles".into(), Value::Num(t.fixed_cycles as f64)),
        ("aes_blocks".into(), Value::Num(t.aes_blocks as f64)),
        ("bytes".into(), Value::Num(t.bytes as f64)),
    ])
}

/// Converts a profiled run to a JSON value for the `--json` report mode.
pub fn profile_to_value(run: &ProfiledRun) -> Value {
    let sites: Vec<Value> = run.profile.rows().map(site_to_value).collect();
    let passes: Vec<Value> = run
        .profile
        .passes()
        .iter()
        .map(|(pass, counters)| {
            Value::Object(vec![
                ("pass".into(), Value::Str(pass.clone())),
                (
                    "counters".into(),
                    Value::Object(
                        counters
                            .iter()
                            .map(|(k, v)| (k.clone(), Value::Num(*v as f64)))
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    let s = &run.stats;
    Value::Object(vec![
        ("workload".into(), Value::Str(run.workload.clone())),
        ("totals".into(), totals_to_value(&run.profile.totals())),
        (
            "kernel_stats".into(),
            Value::Object(vec![
                ("syscalls".into(), Value::Num(s.syscalls as f64)),
                ("verified".into(), Value::Num(s.verified as f64)),
                ("cache_hits".into(), Value::Num(s.cache_hits as f64)),
                (
                    "cache_fallbacks".into(),
                    Value::Num(s.cache_fallbacks as f64),
                ),
                ("cache_scrubs".into(), Value::Num(s.cache_scrubs as f64)),
                ("verify_cycles".into(), Value::Num(s.verify_cycles as f64)),
                (
                    "verify_aes_blocks".into(),
                    Value::Num(s.verify_aes_blocks as f64),
                ),
                (
                    "warm_verify_cycles".into(),
                    Value::Num(s.warm_verify_cycles as f64),
                ),
                (
                    "warm_aes_blocks".into(),
                    Value::Num(s.warm_aes_blocks as f64),
                ),
            ]),
        ),
        ("ring_dropped".into(), Value::Num(run.ring_dropped as f64)),
        ("sites".into(), Value::Array(sites)),
        ("passes".into(), Value::Array(passes)),
    ])
}
