//! The fleet-scale benchmark behind `asc-bench --bin server --fleet`.
//!
//! Where the `server` harness shows the paper's scenario at table scale
//! (a handful of processes), this one stresses the *fleet* regime:
//! N=1000+ processes with spawn/exit churn, a hot/cold workload mix, and
//! the two amortisation layers this repo adds for that regime —
//! pid-sharded verify-cache namespaces ([`asc_core::pid_shard`]) and the
//! kernel's batched trap path (`SchedConfig::batch_depth`). The report is
//! per-*shard* rather than per-pid (cardinality stays bounded as N
//! grows), and the amortisation claims are measured, not modeled:
//!
//! * shared-structure traffic via the cache family's shard probe
//!   counters ([`asc_core::SharedVerifyCache::probes`]),
//! * batch-window behaviour via [`asc_kernel::BatchStats`],
//! * AES key-schedule reuse via the fleet-wide `block_ops` meter on one
//!   [`asc_crypto::MacKey::shared_schedule`] family (every kernel holds a
//!   handle; fresh per-kernel keys would each burn a subkey derivation).
//!
//! Fleet throughput is reported on a *parallel* clock: the fleet's
//! simulated wall time is the maximum per-process cycle count (processes
//! on real hardware run on their own cores; the scheduler's serial
//! interleaving is a verification artifact, not a cost). Per-call work is
//! O(1) in fleet size, so aggregate verified-calls per fleet-second must
//! scale near-linearly in N — `measure_fleet` in the perf trajectory
//! asserts exactly that.
//!
//! Everything is a pure function of the seed; the default configuration's
//! table is golden-pinned (`crates/bench/golden/fleet.txt`) and diffed by
//! `crates/bench/tests/golden_tables.rs`.

use std::collections::BTreeMap;

use asc_core::json::Value;
use asc_core::pid_shard;
use asc_kernel::{BatchStats, KernelMetrics, KernelStats};
use asc_metrics::{Histogram, MetricValue, Snapshot};
use asc_sched::{Pid, ProcState, SchedConfig, SchedPolicy, Scheduler};
use asc_workloads::{Guest, ProgramSpec};

use crate::server::{fnv64, server_guests, server_specs, ServerMode, DEFAULT_SEED};
use crate::{bench_key, sim_seconds};

/// Shard count the fleet's cache family and metric labels use (the
/// [`asc_core::SharedVerifyCache::new`] default).
pub const FLEET_SHARDS: usize = 64;

/// Fleet benchmark parameters.
#[derive(Clone, Copy, Debug)]
pub struct FleetConfig {
    /// Initial number of concurrent processes.
    pub procs: usize,
    /// Interleaving seed.
    pub seed: u64,
    /// Retired-instruction quantum per slice.
    pub slice_instrs: u64,
    /// Kernel batch-window depth (`None` runs the unbatched trap path).
    pub batch_depth: Option<usize>,
    /// Churn: extra processes spawned, one per observed exit, until this
    /// many replacements have joined the fleet.
    pub churn_spawns: usize,
}

impl Default for FleetConfig {
    fn default() -> FleetConfig {
        FleetConfig {
            procs: 64,
            seed: DEFAULT_SEED,
            slice_instrs: 10_000,
            batch_depth: Some(16),
            churn_spawns: 16,
        }
    }
}

/// One cache shard's aggregated results.
#[derive(Clone, Debug)]
pub struct FleetShardRow {
    /// Shard index ([`asc_core::pid_shard`] of each member pid).
    pub shard: usize,
    /// Processes whose pid hashed into this shard.
    pub procs: u64,
    /// Maximum per-process cycles in the shard (parallel-clock view).
    pub max_cycles: u64,
    /// System calls trapped across the shard's processes.
    pub syscalls: u64,
    /// Calls that went through ASC verification.
    pub verified: u64,
    /// Verifications served warm from the members' cache namespaces.
    pub cache_hits: u64,
    /// Shared-structure probes charged to this shard.
    pub probes: u64,
    /// Per-call verify-cycle quantiles from the shard-labeled registry
    /// (all paths merged; 0 in base mode).
    pub p50: u64,
    /// 90th percentile of per-call verify cycles.
    pub p90: u64,
    /// 99th percentile of per-call verify cycles.
    pub p99: u64,
}

/// One full fleet run.
#[derive(Clone, Debug)]
pub struct FleetRun {
    /// Mode the processes ran under.
    pub mode: ServerMode,
    /// The configuration used.
    pub config: FleetConfig,
    /// Per-shard results, occupied shards only, in shard order.
    pub rows: Vec<FleetShardRow>,
    /// Kernel stats summed over all processes.
    pub aggregate: KernelStats,
    /// Batch-path counters summed over all kernels.
    pub batch: BatchStats,
    /// Shared virtual clock: total cycles across all slices (serial view).
    pub clock: u64,
    /// Maximum per-process cycle count (parallel-clock fleet wall time).
    pub max_proc_cycles: u64,
    /// Total slices scheduled.
    pub slices: u64,
    /// FNV-1a digest of the pid interleaving (determinism witness).
    pub interleaving_fnv: u64,
    /// Processes spawned in total (initial + churn replacements).
    pub spawned: u64,
    /// Shared-cache probes across every shard (0 outside warm mode).
    pub shared_probes: u64,
    /// AES block operations through the fleet's one shared key schedule
    /// (0 in base mode, which installs no key).
    pub aes_block_ops: u64,
    /// Subkey-derivation block operations avoided by handing kernels
    /// [`asc_crypto::MacKey::shared_schedule`] handles instead of fresh keys: one per
    /// spawn beyond the first.
    pub key_setups_saved: u64,
    /// Per-shard metrics snapshots merged into one (every entry carries a
    /// `shard` label, so cardinality is bounded by [`FLEET_SHARDS`]).
    pub merged_metrics: Snapshot,
}

impl FleetRun {
    /// Fleet wall time in simulated seconds on the parallel clock.
    pub fn fleet_sim_seconds(&self) -> f64 {
        sim_seconds(self.max_proc_cycles)
    }

    /// Aggregate verified calls per simulated second of fleet wall time.
    pub fn verified_per_fleet_second(&self) -> f64 {
        let secs = self.fleet_sim_seconds();
        if secs > 0.0 {
            self.aggregate.verified as f64 / secs
        } else {
            0.0
        }
    }

    /// Shared-cache probes per verified call (the amortisation the batch
    /// path buys; meaningful in warm mode only).
    pub fn probes_per_verified(&self) -> f64 {
        if self.aggregate.verified > 0 {
            self.shared_probes as f64 / self.aggregate.verified as f64
        } else {
            0.0
        }
    }
}

/// Hot pids (roughly a quarter of the fleet, picked by the same pid hash
/// the cache shards use) run the long syscall-heavy workload; cold pids
/// alternate between the two short ones.
fn workload_index(pid: Pid, specs: &[&ProgramSpec]) -> usize {
    let calc = specs
        .iter()
        .position(|s| s.name == "calc")
        .expect("calc is a server workload");
    if pid_shard(pid, 4) == 0 {
        calc
    } else {
        // The two non-calc workloads, alternating by pid.
        let others: Vec<usize> = (0..specs.len()).filter(|&i| i != calc).collect();
        others[pid as usize % others.len()]
    }
}

fn spawn_fleet_proc(
    sched: &mut Scheduler,
    specs: &[&ProgramSpec],
    guests: &[Guest],
    mode: ServerMode,
) -> Pid {
    // Pids are assigned in spawn order; predict the next one to pick the
    // workload before the kernel exists.
    let pid = (sched.processes().len() + 1) as Pid;
    let i = workload_index(pid, specs);
    let spec = specs[i];
    // An installed guest hands each kernel a handle to the fleet's one
    // expanded schedule: no per-spawn subkey derivation, and every kernel
    // meters into one counter.
    let machine = guests[i]
        .boot(mode.options(), spec.fs(), spec.stdin)
        .expect("workload binary fits in guest memory");
    let spawned = sched.spawn(spec.name, machine);
    debug_assert_eq!(spawned, pid);
    sched
        .process_mut(spawned)
        .kernel_mut()
        .set_metrics(Box::new(KernelMetrics::for_shard(pid_shard(
            spawned,
            FLEET_SHARDS,
        ))));
    spawned
}

/// Merges `asc_verify_cycles` across paths for one shard label.
fn shard_verify_histogram(snap: &Snapshot, shard: usize) -> Histogram {
    let shard = shard.to_string();
    let mut merged = Histogram::new();
    for (key, value) in snap.entries() {
        if key.name == "asc_verify_cycles" && key.label("shard") == Some(shard.as_str()) {
            if let MetricValue::Histogram(h) = value {
                merged.merge(h);
            }
        }
    }
    merged
}

/// Runs the fleet under churn and collects per-shard and aggregate
/// results. Fully deterministic for a given config.
pub fn run_fleet(config: &FleetConfig, mode: ServerMode) -> FleetRun {
    assert!(config.procs >= 1, "at least one process");
    let specs = server_specs();
    let fleet_key = bench_key();
    // The guests parse their artifacts on the fleet's meter, so they are
    // built before it is read at rest.
    let guests = server_guests(&specs, mode, &fleet_key);
    let key_ops_at_rest = fleet_key.block_ops();

    let sched_config = SchedConfig {
        policy: SchedPolicy::SeededRandom(config.seed),
        slice_instrs: config.slice_instrs,
        budget_cycles: asc_workloads::RUN_BUDGET,
        batch_depth: config.batch_depth,
    };
    let mut sched = if mode == ServerMode::Warm {
        Scheduler::with_shared_cache(sched_config)
    } else {
        Scheduler::new(sched_config)
    };

    for _ in 0..config.procs {
        spawn_fleet_proc(&mut sched, &specs, &guests, mode);
    }

    // Churn driver: every observed exit spawns one replacement until the
    // churn budget is used up, so the fleet shrinks only at the end.
    let mut churn_left = config.churn_spawns;
    while let Some(pid) = sched.step() {
        if churn_left > 0 && !sched.process(pid).state().is_runnable() {
            spawn_fleet_proc(&mut sched, &specs, &guests, mode);
            churn_left -= 1;
        }
    }

    let mut merged = Snapshot::default();
    let mut shards: BTreeMap<usize, FleetShardRow> = BTreeMap::new();
    let mut max_proc_cycles = 0u64;
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
        let cycles = proc.machine().cycles();
        max_proc_cycles = max_proc_cycles.max(cycles);
        let shard = pid_shard(proc.pid(), FLEET_SHARDS);
        let row = shards.entry(shard).or_insert_with(|| FleetShardRow {
            shard,
            procs: 0,
            max_cycles: 0,
            syscalls: 0,
            verified: 0,
            cache_hits: 0,
            probes: 0,
            p50: 0,
            p90: 0,
            p99: 0,
        });
        row.procs += 1;
        row.max_cycles = row.max_cycles.max(cycles);
        row.syscalls += stats.syscalls;
        row.verified += stats.verified;
        row.cache_hits += stats.cache_hits;
        merged.absorb_registry(
            proc.kernel()
                .metrics()
                .expect("metrics were attached at spawn")
                .registry(),
        );
    }

    let mut shared_probes = 0u64;
    if let Some(shared) = sched.shared_cache() {
        let shared = shared.borrow();
        shared_probes = shared.probes();
        for row in shards.values_mut() {
            row.probes = shared.shard_probes(row.shard);
        }
    }
    for row in shards.values_mut() {
        let verify = shard_verify_histogram(&merged, row.shard);
        row.p50 = verify.quantile(0.50);
        row.p90 = verify.quantile(0.90);
        row.p99 = verify.quantile(0.99);
    }

    let spawned = sched.processes().len() as u64;
    let aes_block_ops = if mode == ServerMode::Base {
        0
    } else {
        fleet_key.block_ops() - key_ops_at_rest
    };
    FleetRun {
        mode,
        config: *config,
        rows: shards.into_values().collect(),
        aggregate: sched.aggregate_stats(),
        batch: sched.batch_stats(),
        clock: sched.clock(),
        max_proc_cycles,
        slices: sched.interleaving().len() as u64,
        interleaving_fnv: fnv64(sched.interleaving()),
        spawned,
        shared_probes,
        aes_block_ops,
        key_setups_saved: if mode == ServerMode::Base {
            0
        } else {
            spawned.saturating_sub(1)
        },
        merged_metrics: merged,
    }
}

/// Renders the human per-shard table (the golden-pinned output of
/// `--bin server --fleet`).
pub fn render_fleet(run: &FleetRun) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let cfg = &run.config;
    let batch = match cfg.batch_depth {
        Some(k) => format!("batch depth {k}"),
        None => "unbatched".to_string(),
    };
    let _ = writeln!(
        out,
        "Fleet verification throughput — {} procs (+{} churn), {} kernels, seed {:#x}, slice {} instrs, {}",
        cfg.procs, cfg.churn_spawns, run.mode.label(), cfg.seed, cfg.slice_instrs, batch,
    );
    let _ = writeln!(
        out,
        "{:>5} {:>5} {:>10} {:>9} {:>9} {:>9} {:>7} {:>8} {:>8} {:>8}",
        "shard",
        "procs",
        "max-sim-s",
        "syscalls",
        "verified",
        "warm",
        "probes",
        "p50-vc",
        "p90-vc",
        "p99-vc"
    );
    for row in &run.rows {
        let _ = writeln!(
            out,
            "{:>5} {:>5} {:>10.4} {:>9} {:>9} {:>9} {:>7} {:>8} {:>8} {:>8}",
            row.shard,
            row.procs,
            sim_seconds(row.max_cycles),
            row.syscalls,
            row.verified,
            row.cache_hits,
            row.probes,
            row.p50,
            row.p90,
            row.p99,
        );
    }
    let _ = writeln!(
        out,
        "fleet: {} processes over {} shards, {} verified calls in {:.4} fleet sim-seconds -> {:.1} verified calls/fleet-sec",
        run.spawned,
        run.rows.len(),
        run.aggregate.verified,
        run.fleet_sim_seconds(),
        run.verified_per_fleet_second(),
    );
    let _ = writeln!(
        out,
        "shared cache: {} probes ({:.4} per verified call)",
        run.shared_probes,
        run.probes_per_verified(),
    );
    let _ = writeln!(
        out,
        "batch: {} opened / {} closed, {} detached windows, {} submitted, {} drained ({:.2} fill), ring depth {}",
        run.batch.opened,
        run.batch.closed,
        run.batch.windows,
        run.batch.submitted,
        run.batch.drained,
        run.batch.fill_ratio(),
        run.batch.max_depth,
    );
    let _ = writeln!(
        out,
        "crypto: {} AES block ops through one shared schedule, {} key setups saved",
        run.aes_block_ops, run.key_setups_saved,
    );
    let _ = writeln!(
        out,
        "schedule: {} slices, interleaving fnv64 {:#018x}",
        run.slices, run.interleaving_fnv,
    );
    out
}

/// Converts a fleet run to a JSON value for the `--json` report mode.
pub fn fleet_to_value(run: &FleetRun) -> Value {
    let rows: Vec<Value> = run
        .rows
        .iter()
        .map(|r| {
            Value::Object(vec![
                ("shard".into(), Value::Num(r.shard as f64)),
                ("procs".into(), Value::Num(r.procs as f64)),
                ("max_cycles".into(), Value::Num(r.max_cycles as f64)),
                ("syscalls".into(), Value::Num(r.syscalls as f64)),
                ("verified".into(), Value::Num(r.verified as f64)),
                ("cache_hits".into(), Value::Num(r.cache_hits as f64)),
                ("probes".into(), Value::Num(r.probes as f64)),
                ("p50_verify_cycles".into(), Value::Num(r.p50 as f64)),
                ("p90_verify_cycles".into(), Value::Num(r.p90 as f64)),
                ("p99_verify_cycles".into(), Value::Num(r.p99 as f64)),
            ])
        })
        .collect();
    Value::Object(vec![
        ("mode".into(), Value::Str(run.mode.label().into())),
        ("procs".into(), Value::Num(run.config.procs as f64)),
        (
            "churn_spawns".into(),
            Value::Num(run.config.churn_spawns as f64),
        ),
        ("seed".into(), Value::Num(run.config.seed as f64)),
        (
            "slice_instrs".into(),
            Value::Num(run.config.slice_instrs as f64),
        ),
        (
            "batch_depth".into(),
            match run.config.batch_depth {
                Some(k) => Value::Num(k as f64),
                None => Value::Null,
            },
        ),
        ("spawned".into(), Value::Num(run.spawned as f64)),
        ("clock_cycles".into(), Value::Num(run.clock as f64)),
        (
            "max_proc_cycles".into(),
            Value::Num(run.max_proc_cycles as f64),
        ),
        ("slices".into(), Value::Num(run.slices as f64)),
        // Same zero-padded hex encoding as the server report: the
        // determinism witness must survive JSON round-trips above 2^53.
        (
            "interleaving_fnv".into(),
            Value::Str(format!("{:#018x}", run.interleaving_fnv)),
        ),
        (
            "verified_total".into(),
            Value::Num(run.aggregate.verified as f64),
        ),
        (
            "verified_per_fleet_second".into(),
            Value::Num(run.verified_per_fleet_second()),
        ),
        ("shared_probes".into(), Value::Num(run.shared_probes as f64)),
        ("batch_opened".into(), Value::Num(run.batch.opened as f64)),
        ("batch_closed".into(), Value::Num(run.batch.closed as f64)),
        ("batch_windows".into(), Value::Num(run.batch.windows as f64)),
        ("batch_fill".into(), Value::Num(run.batch.fill_ratio())),
        (
            "batch_submitted".into(),
            Value::Num(run.batch.submitted as f64),
        ),
        ("batch_drained".into(), Value::Num(run.batch.drained as f64)),
        (
            "batch_max_depth".into(),
            Value::Num(run.batch.max_depth as f64),
        ),
        ("aes_block_ops".into(), Value::Num(run.aes_block_ops as f64)),
        (
            "key_setups_saved".into(),
            Value::Num(run.key_setups_saved as f64),
        ),
        ("shards".into(), Value::Array(rows)),
    ])
}
