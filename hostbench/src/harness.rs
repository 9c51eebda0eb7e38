//! Set-up, job runners, the correctness oracle, and the host-clock probes.
//!
//! Everything here calls the crates' public functions only. Host time is
//! measured from this side of those calls: around `Machine::load`,
//! `Machine::run` and `Scheduler::step`, and around every trap through
//! [`Timed`], a `SyscallHandler` that delegates to the real `Kernel`.

use std::any::Any;
use std::time::Instant;

use asc_core::CacheStats;
use asc_crypto::MacKey;
use asc_installer::{Installer, InstallerOptions};
use asc_kernel::{
    FileSystem, FlowGraph, Kernel, KernelOptions, Personality, SiteRegistry, VerifyTier,
};
use asc_object::Binary;
use asc_sched::{ProcState, SchedConfig, SchedPolicy, Scheduler};
use asc_testkit::Rng;
use asc_trace::{Event, EventKind, TraceSink};
use asc_vm::{Machine, RunOutcome, SyscallHandler, TrapContext, TrapOutcome};

const PERSONALITY: Personality = Personality::Linux;

/// How the enforcing runs verify.
#[derive(Clone, Copy)]
pub struct Enforce {
    /// Verification tier.
    pub tier: VerifyTier,
    /// Whether the verified-call cache is on.
    pub cache: bool,
}

/// One program to build: source, inputs, and the installer's program id.
pub struct Source {
    /// Program name.
    pub name: String,
    /// Guest-language source.
    pub source: String,
    /// Fixture file system the program starts with.
    pub fs: FileSystem,
    /// Standard input.
    pub stdin: Vec<u8>,
    /// Installer program id.
    pub program_id: u16,
}

/// What the unauthenticated reference run of a program produced.
pub struct Reference {
    stdout: Vec<u8>,
    fs_digest: u64,
    /// Virtual cycles of the reference run.
    pub cycles: u64,
}

/// A built, installed program plus its reference run.
pub struct Program {
    /// Program name.
    pub name: String,
    auth: Binary,
    fs: FileSystem,
    stdin: Vec<u8>,
    flow: Option<FlowGraph>,
    sites: Option<SiteRegistry>,
    /// The reference run.
    pub reference: Reference,
}

/// Per-trap host times collected by [`Timed`].
#[derive(Default)]
pub struct TrapTimes {
    /// Duration of every trap, in ns.
    pub ns: Vec<u64>,
    /// Sum of `ns`.
    pub total_ns: u64,
}

impl TrapTimes {
    fn absorb(&mut self, other: TrapTimes) {
        self.ns.extend(other.ns);
        self.total_ns += other.total_ns;
    }

    /// Mean trap time in ns (0 without traps).
    pub fn mean_ns(&self) -> f64 {
        if self.ns.is_empty() {
            0.0
        } else {
            self.total_ns as f64 / self.ns.len() as f64
        }
    }
}

/// The handler a solo job runs under: the bare `Kernel` (untraced) or the
/// kernel behind [`Timed`] (traced).
pub trait Probe: SyscallHandler + Sized {
    /// Wraps a configured kernel.
    fn wrap(kernel: Kernel) -> Self;
    /// Unwraps the kernel and whatever trap times were collected.
    fn into_parts(self) -> (Kernel, TrapTimes);
}

impl Probe for Kernel {
    fn wrap(kernel: Kernel) -> Self {
        kernel
    }

    fn into_parts(self) -> (Kernel, TrapTimes) {
        (self, TrapTimes::default())
    }
}

/// A `SyscallHandler` that times every trap and delegates it to the kernel.
pub struct Timed {
    kernel: Kernel,
    times: TrapTimes,
}

impl SyscallHandler for Timed {
    fn syscall(&mut self, ctx: &mut TrapContext<'_>) -> TrapOutcome {
        let start = Instant::now();
        let outcome = self.kernel.syscall(ctx);
        let ns = start.elapsed().as_nanos() as u64;
        self.times.ns.push(ns);
        self.times.total_ns += ns;
        outcome
    }
}

impl Probe for Timed {
    fn wrap(kernel: Kernel) -> Self {
        Timed {
            kernel,
            times: TrapTimes::default(),
        }
    }

    fn into_parts(self) -> (Kernel, TrapTimes) {
        (self.kernel, self.times)
    }
}

/// The work a phase did, as the crates count it. A traced and an untraced
/// phase over the same jobs must agree on every field.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Work {
    /// Virtual cycles of the enforcing jobs.
    pub cycles: u64,
    /// Virtual cycles of the same jobs' reference runs.
    pub ref_cycles: u64,
    /// Guest instructions retired.
    pub instret: u64,
    /// Traps taken.
    pub syscalls: u64,
    /// Authenticated calls verified.
    pub verified: u64,
    /// Virtual verification cycles.
    pub verify_cycles: u64,
    /// AES blocks the verifier ran.
    pub aes_blocks: u64,
    /// Verified-call cache counters.
    pub cache: CacheStats,
    /// Shared-cache probes (fleet only).
    pub probes: u64,
}

impl Work {
    fn add_job(&mut self, kernel: &Kernel, cycles: u64, instret: u64, ref_cycles: u64) {
        let s = kernel.stats();
        self.cycles += cycles;
        self.ref_cycles += ref_cycles;
        self.instret += instret;
        self.syscalls += s.syscalls;
        self.verified += s.verified;
        self.verify_cycles += s.verify_cycles;
        self.aes_blocks += s.verify_aes_blocks;
    }
}

fn add_cache(total: &mut CacheStats, c: &CacheStats) {
    total.hits += c.hits;
    total.misses += c.misses;
    total.blob_hits += c.blob_hits;
    total.state_hits += c.state_hits;
    total.evictions += c.evictions;
    total.stale_misses += c.stale_misses;
    total.scrubs += c.scrubs;
}

/// One measured phase: a fixed list of enforcing jobs, run to exit.
#[derive(Default)]
pub struct Phase {
    /// The phase's host time cut into segments that do the same work in
    /// every repetition of a run (one per solo job, one per
    /// [`FLEET_SEGMENT_STEPS`] fleet steps), in ns.
    pub segment_ns: Vec<u64>,
    /// Guest processes run.
    pub jobs: u64,
    /// Processes that failed the oracle.
    pub failed: u64,
    /// Work counters.
    pub work: Work,
    /// Host time of every `Machine::load`, in ns.
    pub load_ns: Vec<u64>,
    /// Host time inside `Machine::run` (solo jobs), in ns.
    pub run_ns: u64,
    /// Trap times (traced solo jobs only).
    pub traps: TrapTimes,
    /// Host time of every `Scheduler::step` (traced fleet only), in ns.
    pub slice_ns: Vec<u64>,
    /// Batch-window fill ratio (fleet only).
    pub batch_fill: f64,
}

/// Set-up results: the programs plus what building them cost.
pub struct Setup {
    /// Built and installed programs with their reference runs.
    pub programs: Vec<Program>,
    /// Host time compiling and linking, in ns.
    pub build_ns: u64,
    /// Host time in `Installer::install`, in ns.
    pub install_ns: u64,
    /// Sites rewritten, summed over programs.
    pub sites: u64,
    /// Sites the installer discovered, summed over programs.
    pub discovered: u64,
    /// Trap times of the reference runs (when traced).
    pub ref_traps: TrapTimes,
    /// FNV-1a over every installed binary (determinism witness).
    pub binary_fnv: u64,
    /// Set-up time per program (build, install, reference run), in ns.
    pub segment_ns: Vec<u64>,
}

/// FNV-1a, 64-bit, continuing from `hash`.
pub fn fnv(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// FNV-1a offset basis.
pub const FNV_START: u64 = 0xcbf2_9ce4_8422_2325;

/// Digest of everything in `binary` that reaches the guest: entry point,
/// program id, flags and every section, plus the symbol table in sorted
/// order (the toolchain emits symbols in hash-map order, which varies
/// between processes without changing a single loaded byte).
fn binary_digest(hash: u64, binary: &Binary) -> u64 {
    let mut hash = fnv(hash, &binary.entry().to_le_bytes());
    hash = fnv(hash, &binary.program_id().to_le_bytes());
    hash = fnv(hash, &[u8::from(binary.is_authenticated())]);
    for s in binary.sections() {
        hash = fnv(hash, s.name.as_bytes());
        hash = fnv(hash, &s.addr.to_le_bytes());
        hash = fnv(hash, &s.mem_size.to_le_bytes());
        hash = fnv(hash, &[s.flags.bits()]);
        hash = fnv(hash, &s.data);
    }
    let mut symbols: Vec<(&str, u32)> = binary
        .symbols()
        .iter()
        .map(|s| (s.name.as_str(), s.addr))
        .collect();
    symbols.sort_unstable();
    for (name, addr) in symbols {
        hash = fnv(hash, name.as_bytes());
        hash = fnv(hash, &addr.to_le_bytes());
    }
    hash
}

struct SoloRun {
    outcome: RunOutcome,
    kernel: Kernel,
    cycles: u64,
    instret: u64,
    load_ns: u64,
    run_ns: u64,
    traps: TrapTimes,
}

fn run_solo<P: Probe>(binary: &Binary, kernel: Kernel) -> SoloRun {
    let start = Instant::now();
    let mut machine = Machine::load(binary, P::wrap(kernel)).expect("guest fits in memory");
    let loaded = Instant::now();
    let outcome = machine.run(asc_workloads::RUN_BUDGET);
    let run_ns = loaded.elapsed().as_nanos() as u64;
    let cycles = machine.cycles();
    let instret = machine.instret();
    let (kernel, traps) = machine.into_handler().into_parts();
    SoloRun {
        outcome,
        kernel,
        cycles,
        instret,
        load_ns: (loaded - start).as_nanos() as u64,
        run_ns,
        traps,
    }
}

/// Builds, installs and reference-runs every source. With `traced`, the
/// reference runs go through [`Timed`] so enforcing trap times have a
/// baseline.
pub fn setup(sources: Vec<Source>, key: &MacKey, enforce: Enforce, traced: bool) -> Setup {
    let mut out = Setup {
        programs: Vec::with_capacity(sources.len()),
        build_ns: 0,
        install_ns: 0,
        sites: 0,
        discovered: 0,
        ref_traps: TrapTimes::default(),
        binary_fnv: FNV_START,
        segment_ns: Vec::new(),
    };
    for src in sources {
        let start = Instant::now();
        let plain = asc_workloads::build_source(&src.source, PERSONALITY)
            .unwrap_or_else(|e| panic!("{}: {e}", src.name));
        let built = Instant::now();
        let installer = Installer::new(
            key.shared_schedule(),
            InstallerOptions::new(PERSONALITY).with_program_id(src.program_id),
        );
        let (auth, report) = installer
            .install(&plain, &src.name)
            .unwrap_or_else(|e| panic!("{}: {e}", src.name));
        out.build_ns += (built - start).as_nanos() as u64;
        out.install_ns += built.elapsed().as_nanos() as u64;
        out.sites += report.precision.rewritten as u64;
        out.discovered += report.precision.discovered as u64;
        out.binary_fnv = binary_digest(out.binary_fnv, &auth);

        let flow = enforce
            .tier
            .checks_flow()
            .then(|| asc_workloads::flow_graph_of(&auth, key));
        let sites = asc_workloads::site_registry_for(&auth, key);

        let mut kernel = Kernel::with_fs(KernelOptions::plain(PERSONALITY), src.fs.clone());
        kernel.set_stdin(src.stdin.clone());
        kernel.set_brk(plain.highest_addr());
        let run = if traced {
            run_solo::<Timed>(&plain, kernel)
        } else {
            run_solo::<Kernel>(&plain, kernel)
        };
        assert_eq!(
            run.outcome,
            RunOutcome::Exited(0),
            "{}: reference run failed (stderr: {:?})",
            src.name,
            String::from_utf8_lossy(run.kernel.stderr())
        );
        out.ref_traps.absorb(run.traps);
        out.programs.push(Program {
            name: src.name,
            auth,
            fs: src.fs,
            stdin: src.stdin,
            flow,
            sites,
            reference: Reference {
                stdout: run.kernel.stdout().to_vec(),
                fs_digest: run.kernel.fs().digest(),
                cycles: run.cycles,
            },
        });
        out.segment_ns.push(start.elapsed().as_nanos() as u64);
    }
    out
}

fn enforcing_kernel(program: &Program, key: &MacKey, enforce: Enforce) -> Kernel {
    let mut opts = KernelOptions::enforcing(PERSONALITY).with_tier(enforce.tier);
    if enforce.cache {
        opts = opts.with_verify_cache();
    }
    let mut kernel = Kernel::with_fs(opts, program.fs.clone());
    kernel.set_stdin(program.stdin.clone());
    if let Some(flow) = &program.flow {
        kernel.set_flow_graph(flow.clone());
    }
    if let Some(sites) = &program.sites {
        kernel.set_site_registry(sites.clone());
    }
    kernel.set_key(key.shared_schedule());
    kernel.set_brk(program.auth.highest_addr());
    kernel
}

/// The correctness oracle: an enforcing process must exit 0 with no alert,
/// and match its reference run on stdout and file-system digest.
fn passes(state_ok: bool, kernel: &Kernel, reference: &Reference) -> bool {
    state_ok
        && kernel.alerts().is_empty()
        && kernel.stdout() == reference.stdout.as_slice()
        && kernel.fs().digest() == reference.fs_digest
}

/// Runs `jobs` (indices into `programs`) one after another, each to exit.
pub fn solo_phase<P: Probe>(
    programs: &[Program],
    jobs: &[usize],
    key: &MacKey,
    enforce: Enforce,
) -> Phase {
    let mut phase = Phase::default();
    let mut runs = Vec::with_capacity(jobs.len());
    for &j in jobs {
        let start = Instant::now();
        let program = &programs[j];
        let kernel = enforcing_kernel(program, key, enforce);
        runs.push(run_solo::<P>(&program.auth, kernel));
        phase.segment_ns.push(start.elapsed().as_nanos() as u64);
    }
    for (&j, run) in jobs.iter().zip(runs) {
        let reference = &programs[j].reference;
        phase.jobs += 1;
        let ok = passes(run.outcome == RunOutcome::Exited(0), &run.kernel, reference);
        phase.failed += u64::from(!ok);
        phase
            .work
            .add_job(&run.kernel, run.cycles, run.instret, reference.cycles);
        add_cache(&mut phase.work.cache, &run.kernel.cache_stats());
        phase.load_ns.push(run.load_ns);
        phase.run_ns += run.run_ns;
        phase.traps.absorb(run.traps);
    }
    phase
}

/// Scheduler steps per timed fleet segment.
pub const FLEET_SEGMENT_STEPS: u64 = 256;

/// Fleet shape: concurrent processes and the scheduler's slice and batch
/// settings.
pub struct Fleet {
    /// Processes alive at once.
    pub procs: usize,
    /// Retired-instruction quantum per slice.
    pub slice_instrs: u64,
    /// Batch-window depth.
    pub batch_depth: usize,
}

/// Runs one fleet process per entry of `assignment` (an index into
/// `programs`) under one scheduler with the shared verify cache: `procs`
/// start at once, and every exit spawns the next until all have run.
/// `traced` times every `Scheduler::step`.
pub fn fleet_phase(
    programs: &[Program],
    assignment: &[usize],
    fleet: &Fleet,
    seed: u64,
    key: &MacKey,
    enforce: Enforce,
    traced: bool,
) -> Phase {
    let mut phase = Phase::default();
    let mut sched = Scheduler::with_shared_cache(SchedConfig {
        policy: SchedPolicy::SeededRandom(seed),
        slice_instrs: fleet.slice_instrs,
        budget_cycles: asc_workloads::RUN_BUDGET,
        batch_depth: Some(fleet.batch_depth),
    });
    let spawn = |sched: &mut Scheduler, phase: &mut Phase| {
        let program = &programs[assignment[sched.processes().len()]];
        let kernel = enforcing_kernel(program, key, enforce);
        let start = Instant::now();
        let machine = Machine::load(&program.auth, kernel).expect("guest fits in memory");
        phase.load_ns.push(start.elapsed().as_nanos() as u64);
        sched.spawn(&program.name, machine);
    };

    let mut segment_start = Instant::now();
    for _ in 0..fleet.procs.min(assignment.len()) {
        spawn(&mut sched, &mut phase);
    }
    for steps in 1.. {
        let step_start = traced.then(Instant::now);
        let Some(pid) = sched.step() else { break };
        if let Some(t) = step_start {
            phase.slice_ns.push(t.elapsed().as_nanos() as u64);
        }
        if sched.processes().len() < assignment.len() && !sched.process(pid).state().is_runnable() {
            spawn(&mut sched, &mut phase);
        }
        if steps % FLEET_SEGMENT_STEPS == 0 {
            let now = Instant::now();
            phase
                .segment_ns
                .push((now - segment_start).as_nanos() as u64);
            segment_start = now;
        }
    }
    phase
        .segment_ns
        .push(segment_start.elapsed().as_nanos() as u64);

    for (proc, &j) in sched.processes().iter().zip(assignment) {
        let reference = &programs[j].reference;
        phase.jobs += 1;
        let ok = passes(
            *proc.state() == ProcState::Exited(0),
            proc.kernel(),
            reference,
        );
        phase.failed += u64::from(!ok);
        let machine = proc.machine();
        phase.work.add_job(
            proc.kernel(),
            machine.cycles(),
            machine.instret(),
            reference.cycles,
        );
    }
    let shared = sched
        .shared_cache()
        .expect("fleet owns a shared cache")
        .borrow();
    phase.work.cache = shared.stats();
    phase.work.probes = shared.probes();
    phase.batch_fill = sched.batch_stats().fill_ratio();
    phase
}

/// Collects the AES block count of every check that ran AES.
#[derive(Default)]
struct BlockMix(Vec<u64>);

impl TraceSink for BlockMix {
    fn record(&mut self, event: Event) {
        if let EventKind::Check { record, .. } = event.kind {
            if record.aes_blocks > 0 {
                self.0.push(record.aes_blocks);
            }
        }
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// Host ns per AES block: replays one CMAC of `16·b` bytes for every check
/// that ran `b` blocks in one enforcing run of each program, through the
/// public `MacKey::mac`, and divides by the key's `block_ops` delta.
pub fn ns_per_block(programs: &[Program], key: &MacKey, enforce: Enforce) -> f64 {
    const MAX_CHECKS: usize = 4096;
    const MIN_NS: u128 = 20_000_000;
    let mut mix = Vec::new();
    for program in programs {
        let mut kernel = enforcing_kernel(program, key, enforce);
        kernel.set_trace_sink(Box::new(BlockMix::default()));
        let mut run = run_solo::<Kernel>(&program.auth, kernel);
        let sink = run
            .kernel
            .take_trace_sink()
            .expect("sink attached")
            .into_any()
            .downcast::<BlockMix>()
            .expect("sink is a BlockMix");
        mix.extend(sink.0);
    }
    mix.truncate(MAX_CHECKS);
    let Some(&max) = mix.iter().max() else {
        return 0.0;
    };
    let len = 16 * max as usize;
    let msg = Rng::new(0xB10C).bytes(len, len + 1);
    let meter = key.shared_schedule();
    let before = meter.block_ops();
    let start = Instant::now();
    while start.elapsed().as_nanos() < MIN_NS {
        for &blocks in &mix {
            std::hint::black_box(meter.mac(std::hint::black_box(&msg[..16 * blocks as usize])));
        }
    }
    let ns = start.elapsed().as_nanos() as f64;
    ns / (meter.block_ops() - before) as f64
}

/// Peak resident set of this process, in MiB (from `/proc/self/status`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
