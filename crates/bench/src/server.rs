//! The multi-process "server" throughput benchmark behind
//! `asc-bench --bin server`.
//!
//! The ROADMAP's north-star scenario is a server juggling many untrusted
//! processes. This harness builds it: M concurrent processes cycling over
//! the syscall-heavy policy workloads, time-sliced by the deterministic
//! [`Scheduler`] (seeded-random interleaving by default), each with its own
//! enforcing kernel, per-pid metrics registry
//! ([`KernelMetrics::for_pid`]), and a pid namespace inside one shared
//! [`asc_core::SharedVerifyCache`]. The report gives aggregate verified
//! calls per simulated second plus per-pid verify-cycle quantiles, and
//! feeds the `perf` trajectory (`BENCH_4.json`) via
//! [`crate::perf::measure_server`].
//!
//! Everything is a pure function of the seed: the table is golden-pinned
//! (`crates/bench/golden/server.txt`) and a fixed-seed run is diffed in CI.

use asc_core::json::Value;
use asc_crypto::MacKey;
use asc_kernel::{KernelMetrics, KernelOptions, KernelStats, Personality};
use asc_metrics::Snapshot;
use asc_sched::{Pid, ProcState, SchedConfig, SchedPolicy, Scheduler};
use asc_workloads::{program, Guest, ProgramSpec};

use crate::{bench_key, sim_seconds};

/// Default interleaving seed for the golden table.
pub const DEFAULT_SEED: u64 = 0x5EB5_EED1;

/// The syscall-heavy workloads the server processes cycle over (the
/// paper's policy workloads minus `screen`, whose interactive loop
/// dominates cycles without adding syscall pressure).
pub const SERVER_WORKLOADS: [&str; 3] = ["bison", "calc", "tar"];

/// Which kernel configuration the processes run under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServerMode {
    /// Unauthenticated binaries, plain kernels (throughput baseline).
    Base,
    /// Enforcing kernels, no verify cache (paper-faithful cost).
    Cold,
    /// Enforcing kernels with the shared pid-aware verify cache — the
    /// actual server scenario, and what the `server` bin reports.
    Warm,
}

impl ServerMode {
    /// Lowercase label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            ServerMode::Base => "base",
            ServerMode::Cold => "cold",
            ServerMode::Warm => "warm",
        }
    }

    /// The kernel options every process runs under in this mode.
    pub(crate) fn options(self) -> KernelOptions {
        let enforcing = KernelOptions::enforcing(Personality::Linux);
        match self {
            ServerMode::Base => KernelOptions::plain(Personality::Linux),
            ServerMode::Cold => enforcing,
            ServerMode::Warm => enforcing.with_verify_cache(),
        }
    }
}

/// Server benchmark parameters.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Number of concurrent processes (cycling over [`SERVER_WORKLOADS`]).
    pub procs: usize,
    /// Interleaving seed (ignored under round-robin).
    pub seed: u64,
    /// Retired-instruction quantum per slice.
    pub slice_instrs: u64,
    /// Use round-robin instead of seeded-random interleaving.
    pub round_robin: bool,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            procs: 4,
            seed: DEFAULT_SEED,
            slice_instrs: 10_000,
            round_robin: false,
        }
    }
}

/// One process's results.
#[derive(Clone, Debug)]
pub struct ServerRow {
    /// Process id (spawn order).
    pub pid: Pid,
    /// Workload the process ran.
    pub workload: String,
    /// Cycles the process consumed.
    pub cycles: u64,
    /// System calls trapped.
    pub syscalls: u64,
    /// Calls that went through ASC verification.
    pub verified: u64,
    /// Verifications served warm from this pid's cache namespace.
    pub cache_hits: u64,
    /// Per-call verify-cycle quantiles from this pid's own metrics
    /// registry (all paths merged; 0 in base mode).
    pub p50: u64,
    /// 90th percentile of per-call verify cycles.
    pub p90: u64,
    /// 99th percentile of per-call verify cycles.
    pub p99: u64,
}

/// One full multi-process run.
#[derive(Clone, Debug)]
pub struct ServerRun {
    /// Mode the processes ran under.
    pub mode: ServerMode,
    /// The configuration used.
    pub config: ServerConfig,
    /// Per-pid results, in pid order.
    pub rows: Vec<ServerRow>,
    /// Kernel stats summed over all processes.
    pub aggregate: KernelStats,
    /// Shared virtual clock: total cycles across all slices.
    pub clock: u64,
    /// Total slices scheduled.
    pub slices: u64,
    /// FNV-1a digest of the pid interleaving (determinism witness: same
    /// seed ⇒ same digest).
    pub interleaving_fnv: u64,
    /// Per-pid metrics snapshots merged into one (every entry carries a
    /// `pid` label, so nothing collides).
    pub merged_metrics: Snapshot,
}

impl ServerRun {
    /// Aggregate verified calls per simulated second on the shared clock.
    pub fn verified_per_sim_second(&self) -> f64 {
        let secs = sim_seconds(self.clock);
        if secs > 0.0 {
            self.aggregate.verified as f64 / secs
        } else {
            0.0
        }
    }
}

pub(crate) fn fnv64(pids: &[Pid]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for pid in pids {
        for byte in pid.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

pub(crate) fn server_specs() -> Vec<&'static ProgramSpec> {
    SERVER_WORKLOADS
        .iter()
        .map(|name| program(name).expect("server workload appears in the program registry"))
        .collect()
}

/// Builds the server workloads, installed under `key` unless `mode` is
/// the plain baseline.
pub(crate) fn server_guests(specs: &[&ProgramSpec], mode: ServerMode, key: &MacKey) -> Vec<Guest> {
    specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let plain = asc_workloads::build(spec, Personality::Linux)
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            if mode == ServerMode::Base {
                Guest::plain(plain)
            } else {
                let auth = crate::install(&plain, spec.name, Personality::Linux, 40 + i as u16);
                Guest::installed(auth, key)
            }
        })
        .collect()
}

/// Runs M concurrent processes under the scheduler and collects per-pid
/// and aggregate results. Fully deterministic for a given config.
pub fn run_server(config: &ServerConfig, mode: ServerMode) -> ServerRun {
    assert!(config.procs >= 1, "at least one process");
    let specs = server_specs();
    let guests = server_guests(&specs, mode, &bench_key());

    let policy = if config.round_robin {
        SchedPolicy::RoundRobin
    } else {
        SchedPolicy::SeededRandom(config.seed)
    };
    let sched_config = SchedConfig {
        policy,
        slice_instrs: config.slice_instrs,
        budget_cycles: asc_workloads::RUN_BUDGET,
        batch_depth: None,
    };
    let mut sched = if mode == ServerMode::Warm {
        Scheduler::with_shared_cache(sched_config)
    } else {
        Scheduler::new(sched_config)
    };

    for m in 0..config.procs {
        let i = m % specs.len();
        let spec = specs[i];
        let machine = guests[i]
            .boot(mode.options(), spec.fs(), spec.stdin)
            .expect("workload binary fits in guest memory");
        let pid = sched.spawn(spec.name, machine);
        // Per-pid registry: every metric carries a pid label, so the
        // merged snapshot keeps the processes' distributions apart.
        sched
            .process_mut(pid)
            .kernel_mut()
            .set_metrics(Box::new(KernelMetrics::for_pid(pid)));
    }

    sched.run();

    let mut rows = Vec::new();
    let mut merged = Snapshot::default();
    for proc in sched.processes() {
        assert!(
            matches!(proc.state(), ProcState::Exited(_)),
            "pid {} ({}) did not exit cleanly: {:?} (alerts: {:?})",
            proc.pid(),
            proc.name(),
            proc.state(),
            proc.kernel().alerts(),
        );
        let stats = proc.stats();
        let snap = proc
            .kernel()
            .metrics()
            .expect("metrics were attached at spawn")
            .snapshot();
        let verify = snap.histogram_across_labels("asc_verify_cycles");
        rows.push(ServerRow {
            pid: proc.pid(),
            workload: proc.name().to_string(),
            cycles: proc.machine().cycles(),
            syscalls: stats.syscalls,
            verified: stats.verified,
            cache_hits: stats.cache_hits,
            p50: verify.quantile(0.50),
            p90: verify.quantile(0.90),
            p99: verify.quantile(0.99),
        });
        merged.merge(&snap);
    }
    ServerRun {
        mode,
        config: *config,
        rows,
        aggregate: sched.aggregate_stats(),
        clock: sched.clock(),
        slices: sched.interleaving().len() as u64,
        interleaving_fnv: fnv64(sched.interleaving()),
        merged_metrics: merged,
    }
}

/// Renders the human throughput table (the golden-pinned output of the
/// `server` bin).
pub fn render_server(run: &ServerRun) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let cfg = &run.config;
    let policy = if cfg.round_robin {
        "round-robin".to_string()
    } else {
        format!("seeded-random (seed {:#x})", cfg.seed)
    };
    let _ = writeln!(
        out,
        "Multi-process server throughput — {} processes, {} kernels, {} interleaving, slice {} instrs",
        cfg.procs,
        run.mode.label(),
        policy,
        cfg.slice_instrs,
    );
    let _ = writeln!(
        out,
        "{:>4} {:<10} {:>10} {:>9} {:>9} {:>9} {:>8} {:>8} {:>8}",
        "pid", "workload", "sim-s", "syscalls", "verified", "warm", "p50-vc", "p90-vc", "p99-vc"
    );
    for row in &run.rows {
        let _ = writeln!(
            out,
            "{:>4} {:<10} {:>10.4} {:>9} {:>9} {:>9} {:>8} {:>8} {:>8}",
            row.pid,
            row.workload,
            sim_seconds(row.cycles),
            row.syscalls,
            row.verified,
            row.cache_hits,
            row.p50,
            row.p90,
            row.p99,
        );
    }
    let _ = writeln!(
        out,
        "aggregate: {} verified calls in {:.4} sim-seconds -> {:.1} verified calls/sim-sec",
        run.aggregate.verified,
        sim_seconds(run.clock),
        run.verified_per_sim_second(),
    );
    let _ = writeln!(
        out,
        "schedule: {} slices, interleaving fnv64 {:#018x}",
        run.slices, run.interleaving_fnv,
    );
    out
}

/// Converts a run to a JSON value for the `--json` report mode.
pub fn server_to_value(run: &ServerRun) -> Value {
    let rows: Vec<Value> = run
        .rows
        .iter()
        .map(|r| {
            Value::Object(vec![
                ("pid".into(), Value::Num(r.pid as f64)),
                ("workload".into(), Value::Str(r.workload.clone())),
                ("cycles".into(), Value::Num(r.cycles as f64)),
                ("syscalls".into(), Value::Num(r.syscalls as f64)),
                ("verified".into(), Value::Num(r.verified as f64)),
                ("cache_hits".into(), Value::Num(r.cache_hits as f64)),
                ("p50_verify_cycles".into(), Value::Num(r.p50 as f64)),
                ("p90_verify_cycles".into(), Value::Num(r.p90 as f64)),
                ("p99_verify_cycles".into(), Value::Num(r.p99 as f64)),
            ])
        })
        .collect();
    Value::Object(vec![
        ("mode".into(), Value::Str(run.mode.label().into())),
        ("procs".into(), Value::Num(run.config.procs as f64)),
        ("seed".into(), Value::Num(run.config.seed as f64)),
        (
            "slice_instrs".into(),
            Value::Num(run.config.slice_instrs as f64),
        ),
        ("round_robin".into(), Value::Bool(run.config.round_robin)),
        ("clock_cycles".into(), Value::Num(run.clock as f64)),
        ("slices".into(), Value::Num(run.slices as f64)),
        // The determinism witness must survive JSON round-trips exactly;
        // Value::Num would squeeze the u64 through an f64 and silently
        // collide digests above 2^53. Emit the same zero-padded hex string
        // the human table prints.
        (
            "interleaving_fnv".into(),
            Value::Str(format!("{:#018x}", run.interleaving_fnv)),
        ),
        (
            "verified_total".into(),
            Value::Num(run.aggregate.verified as f64),
        ),
        (
            "verified_per_sim_second".into(),
            Value::Num(run.verified_per_sim_second()),
        ),
        ("processes".into(), Value::Array(rows)),
    ])
}
