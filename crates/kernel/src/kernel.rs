//! The simulated kernel: process state, the software trap handler, and the
//! authenticated-system-call checking glue.
//!
//! The paper's kernel modification is ~250 lines inside the trap handler;
//! the analogue here is the enforced path of [`Kernel::handle_trap`], in
//! three stages. The *verify* stage runs the origin check, the SFIP flow
//! pre-filter and the three checks of §3.4 (delegated to
//! `asc_core::verify_call`) and returns one [`TrapRecord`]. Then the call
//! is either dispatched or, on any [`Violation`], killed fail-stop with an
//! administrator alert. The *account* stage folds the record into
//! [`KernelStats`], the metrics registry and the trace sink.

use std::cell::RefCell;
use std::rc::Rc;

use asc_core::{
    verify_call, AuthCallRegs, CacheStats, FlowGraph, SharedVerifyCache, SiteRegistry, UserMemory,
    VerifyCache, VerifyOutcome, Violation, FLOW_START,
};
use asc_crypto::{CapabilitySet, MacKey, MemoryChecker};
use asc_isa::Reg;
use asc_trace::{CacheDecision, CallMeter, CheckKind, CheckRecord, SpanId, TraceSink};
use asc_vm::{MemFault, Memory, SyscallHandler, TrapContext, TrapOutcome};

use crate::abi::{spec, Personality, SyscallId};
use crate::alert::Alert;
use crate::batch::{BatchSession, BatchStats, PidCache};
use crate::calls::{EMFILE, OPEN_MAX};
use crate::cost::CostModel;
use crate::fs::FileSystem;
use crate::metrics::KernelMetrics;
use crate::record::TrapRecord;

/// What an open file descriptor refers to.
#[derive(Clone, Debug)]
pub enum FdKind {
    /// Process standard input (kernel-held byte buffer).
    Stdin,
    /// Process standard output (captured).
    Stdout,
    /// Process standard error (captured).
    Stderr,
    /// A regular file.
    File(crate::fs::InodeId),
    /// A directory opened for reading entries.
    Dir(crate::fs::InodeId),
    /// The console device.
    Console,
    /// The bit bucket.
    Null,
    /// A loopback socket (index into the kernel's socket buffers).
    Socket(usize),
    /// Read end of a pipe.
    PipeRead(usize),
    /// Write end of a pipe.
    PipeWrite(usize),
}

/// One open-file-table entry.
#[derive(Clone, Debug)]
pub struct OpenFile {
    /// What the descriptor refers to.
    pub kind: FdKind,
    /// Read/write position (files and dirs).
    pub pos: u64,
    /// Open flags.
    pub flags: u32,
}

/// One recorded system call (used by training monitors and statistics).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEntry {
    /// The *effective* syscall (after `__syscall` indirection resolution —
    /// this is what a Systrace-style monitor observes).
    pub id: SyscallId,
    /// Raw syscall number as trapped.
    pub raw_nr: u16,
    /// Call-site address.
    pub site: u32,
}

/// Aggregate counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Total system calls trapped.
    pub syscalls: u64,
    /// Calls that went through ASC verification.
    pub verified: u64,
    /// Total AES blocks spent on verification (measured, cold + warm).
    pub verify_aes_blocks: u64,
    /// Total verification cycles charged (cold + warm).
    pub verify_cycles: u64,
    /// Total kernel cycles charged (trap + handler + verification).
    pub kernel_cycles: u64,
    /// Verifications served by the verified-call cache (warm path).
    pub cache_hits: u64,
    /// AES blocks spent on warm verifications (subset of
    /// `verify_aes_blocks`; cold blocks are the difference).
    pub warm_aes_blocks: u64,
    /// Verification cycles charged on warm verifications (subset of
    /// `verify_cycles`).
    pub warm_verify_cycles: u64,
    /// Checks that found a cache entry which existed but no longer
    /// matched (stale or poisoned), summed over each call's checks and
    /// counted on calls that are then killed too: each such check
    /// degraded gracefully to the full cold CMAC path instead of trusting
    /// the entry.
    pub cache_fallbacks: u64,
    /// Poisoned cache state entries scrubbed because they claimed an
    /// impossible (future) counter epoch (killed calls included).
    pub cache_scrubs: u64,
}

impl KernelStats {
    /// Verifications that ran the full (cold) path.
    pub fn cold_verified(&self) -> u64 {
        self.verified - self.cache_hits
    }

    /// Average verification cycles per cold call (0 when none ran).
    pub fn cold_verify_cycles_per_call(&self) -> u64 {
        (self.verify_cycles - self.warm_verify_cycles)
            .checked_div(self.cold_verified())
            .unwrap_or(0)
    }

    /// Average verification cycles per warm call (0 when none ran).
    pub fn warm_verify_cycles_per_call(&self) -> u64 {
        self.warm_verify_cycles
            .checked_div(self.cache_hits)
            .unwrap_or(0)
    }

    /// Adds another kernel's counters into this one (multi-program
    /// harnesses run tools on separate kernels and report one total).
    pub fn absorb(&mut self, other: &KernelStats) {
        self.syscalls += other.syscalls;
        self.verified += other.verified;
        self.verify_aes_blocks += other.verify_aes_blocks;
        self.verify_cycles += other.verify_cycles;
        self.kernel_cycles += other.kernel_cycles;
        self.cache_hits += other.cache_hits;
        self.warm_aes_blocks += other.warm_aes_blocks;
        self.warm_verify_cycles += other.warm_verify_cycles;
        self.cache_fallbacks += other.cache_fallbacks;
        self.cache_scrubs += other.cache_scrubs;
    }

    /// Folds one enforced trap's record. Cache fallbacks and scrubs count
    /// on every trap; the rest only on verified calls.
    pub(crate) fn record(&mut self, rec: &TrapRecord) {
        self.cache_fallbacks += rec.fallbacks;
        self.cache_scrubs += rec.scrubs;
        if rec.violation.is_some() {
            return;
        }
        self.verified += 1;
        self.verify_aes_blocks += rec.aes_blocks;
        self.verify_cycles += rec.vc;
        if rec.cache_hit {
            self.cache_hits += 1;
            self.warm_aes_blocks += rec.aes_blocks;
            self.warm_verify_cycles += rec.vc;
        }
        // The warm counters partition the totals; a violation here means
        // warm work was double counted somewhere. Fallbacks are counted
        // per check and on killed calls too, so one verified call can add
        // both a hit and a fallback: only the hits are bounded by
        // `verified`.
        debug_assert!(
            self.warm_aes_blocks <= self.verify_aes_blocks,
            "warm AES blocks exceed total"
        );
        debug_assert!(
            self.warm_verify_cycles <= self.verify_cycles,
            "warm verify cycles exceed total"
        );
        debug_assert!(
            self.cache_hits <= self.verified,
            "more cache hits than verified calls"
        );
    }
}

/// Which verification tier an enforcing kernel runs (see DESIGN.md §15).
///
/// The tiers trade coverage for per-call cost. [`VerifyTier::Mac`] is the
/// paper's scheme: per-call AES-CMAC verification of the encoded call.
/// [`VerifyTier::FlowOnly`] is the SFIP-style cheap tier: only the
/// syscall-transition digraph membership test (`(last nr, this nr)` must be
/// an edge of the installed [`FlowGraph`]), two orders of magnitude cheaper
/// but blind to in-edge forgeries. [`VerifyTier::MacPlusFlow`] runs the
/// flow test as a pre-filter and then the full MAC suite, accepting exactly
/// the intersection of the other two tiers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum VerifyTier {
    /// Only the syscall-transition digraph membership test.
    FlowOnly,
    /// Per-call MAC verification (the paper's scheme; the default).
    #[default]
    Mac,
    /// Flow test first, then the full MAC suite.
    MacPlusFlow,
}

impl VerifyTier {
    /// All tiers, in ascending-coverage order (benchmarks iterate this).
    pub const ALL: [VerifyTier; 3] = [
        VerifyTier::FlowOnly,
        VerifyTier::Mac,
        VerifyTier::MacPlusFlow,
    ];

    /// Short stable name (table rows, CLI flags).
    pub fn name(&self) -> &'static str {
        match self {
            VerifyTier::FlowOnly => "flow-only",
            VerifyTier::Mac => "mac",
            VerifyTier::MacPlusFlow => "mac+flow",
        }
    }

    /// Whether this tier runs the flow-digraph membership test.
    pub fn checks_flow(&self) -> bool {
        !matches!(self, VerifyTier::Mac)
    }

    /// Whether this tier runs the per-call MAC verification suite.
    pub fn checks_mac(&self) -> bool {
        !matches!(self, VerifyTier::FlowOnly)
    }
}

/// Kernel construction options.
#[derive(Clone, Debug)]
pub struct KernelOptions {
    /// OS personality (syscall numbering and quirks).
    pub personality: Personality,
    /// Enforce authenticated system calls (the binary must have been
    /// processed by the installer; every call is verified and
    /// unauthenticated calls kill the process).
    pub enforce: bool,
    /// §5.3 capability tracking: verify capability-bit arguments against
    /// the active-descriptor set and maintain it on open/close.
    pub capability_tracking: bool,
    /// Enable the verified-call cache (the warm fast path): repeated
    /// identical calls skip AES recomputation and are charged only for the
    /// cryptographic work actually performed. Off by default so the
    /// performance tables reproduce the paper's (cache-less) prototype;
    /// the fast-path numbers are reported separately.
    pub verify_cache: bool,
    /// Which verification tier enforced calls run (see [`VerifyTier`]).
    /// [`VerifyTier::Mac`] — the default — is byte-identical to the
    /// historical behaviour; the flow tiers additionally require a
    /// [`FlowGraph`] installed via [`Kernel::set_flow_graph`].
    pub verify_tier: VerifyTier,
}

impl KernelOptions {
    /// Options for running unmodified binaries (the baseline).
    pub fn plain(personality: Personality) -> KernelOptions {
        KernelOptions {
            personality,
            enforce: false,
            capability_tracking: false,
            verify_cache: false,
            verify_tier: VerifyTier::Mac,
        }
    }

    /// Options for running installer-produced authenticated binaries.
    pub fn enforcing(personality: Personality) -> KernelOptions {
        KernelOptions {
            enforce: true,
            ..KernelOptions::plain(personality)
        }
    }

    /// Turns on the verified-call cache (see
    /// [`KernelOptions::verify_cache`]).
    pub fn with_verify_cache(self) -> KernelOptions {
        KernelOptions {
            verify_cache: true,
            ..self
        }
    }

    /// Selects the verification tier (see [`KernelOptions::verify_tier`]).
    pub fn with_tier(self, tier: VerifyTier) -> KernelOptions {
        KernelOptions {
            verify_tier: tier,
            ..self
        }
    }
}

/// A kernel-side fault the campaign can arm: when trap number `at_trap`
/// (1-based, counted over all trapped system calls) arrives, `action` is
/// applied once, before verification.
#[derive(Clone, Copy, Debug)]
pub struct TrapFault {
    /// Which trap fires the fault (compared against `KernelStats::syscalls`
    /// after it is incremented for the arriving trap).
    pub at_trap: u64,
    /// What to corrupt.
    pub action: FaultAction,
}

/// The kernel-side state a [`TrapFault`] corrupts. These model faults in
/// what the *kernel* trusts beyond raw user memory: the trapped register
/// values it reads, its anti-replay counter, and its verified-call cache.
#[derive(Clone, Copy, Debug)]
pub enum FaultAction {
    /// XOR `mask` into the verifier's copy of the register selected by
    /// `index` (the [`AuthCallRegs`] field order: 0 = syscall number,
    /// 1–6 = arguments, 7 = descriptor, 8 = block id, 9 = predecessor-set
    /// pointer, 10 = state pointer, 11 = MAC pointer, 12 = hint pointer).
    /// Only the copy handed to the verifier is corrupted — the machine's
    /// real register file is untouched, so a *benign* outcome stays
    /// possible when the verifier provably ignores the register.
    XorReg {
        /// Register index (0–12) as listed above.
        index: u8,
        /// XOR mask (forced to 1 if zero).
        mask: u32,
    },
    /// Skew the memory checker's anti-replay counter by `delta`.
    SkewCounter {
        /// Signed counter shift.
        delta: i64,
    },
    /// Corrupt one byte of one verified-call cache entry
    /// (`VerifyCache::corrupt_entry_for_fault`).
    CorruptCache {
        /// Deterministic entry/byte selector.
        selector: u64,
        /// XOR mask (forced to 1 if zero).
        mask: u8,
    },
    /// Shift the cached state entry's epoch into the future
    /// (`VerifyCache::skew_state_epoch_for_fault`), which the next check
    /// must scrub.
    SkewCacheEpoch {
        /// Epoch shift (forced to at least 1).
        delta: u64,
    },
}

impl FaultAction {
    /// Corrupts the verifier's register copy, the anti-replay counter, or
    /// this pid's cache wherever it currently lives.
    fn apply(
        self,
        regs: &mut AuthCallRegs,
        checker: &mut MemoryChecker,
        cache: &mut PidCache,
        pid: u32,
    ) {
        match self {
            FaultAction::XorReg { index, mask } => {
                let mask = if mask == 0 { 1 } else { mask };
                match index {
                    0 => regs.nr ^= mask,
                    1..=6 => regs.args[index as usize - 1] ^= mask,
                    7 => regs.pol_des ^= mask,
                    8 => regs.block_id ^= mask,
                    9 => regs.pred_set_ptr ^= mask,
                    10 => regs.lb_ptr ^= mask,
                    11 => regs.call_mac_ptr ^= mask,
                    _ => regs.hint_ptr ^= mask,
                }
            }
            FaultAction::SkewCounter { delta } => checker.skew_counter_for_fault(delta),
            FaultAction::CorruptCache { selector, mask } => {
                cache.with(pid, |c| c.corrupt_entry_for_fault(selector, mask));
            }
            FaultAction::SkewCacheEpoch { delta } => {
                cache.with(pid, |c| c.skew_state_epoch_for_fault(delta));
            }
        }
    }
}

/// The simulated kernel for one process.
pub struct Kernel {
    pub(crate) opts: KernelOptions,
    pub(crate) cost: CostModel,
    key: Option<MacKey>,
    pub(crate) fs: FileSystem,
    pub(crate) cwd: String,
    pub(crate) fds: Vec<Option<OpenFile>>,
    pub(crate) brk: u32,
    pub(crate) mmap_cursor: u32,
    checker: MemoryChecker,
    /// This pid's verified-call cache: private, or a namespace in a
    /// scheduler-shared family (see [`Kernel::share_cache`]).
    cache: PidCache,
    /// Process id, 1-based. Single-process harnesses keep the default 1
    /// (the historical alert rendering); a scheduler assigns real pids.
    pid: u32,
    /// The policy-state cell address (`R10`) of the most recent
    /// *successful* control-flow verification; isolation tests use it to
    /// replay one process's cell against another.
    last_policy_cell: Option<u32>,
    /// The installed syscall-transition digraph (required by the flow
    /// tiers; parsed and MAC-verified from `.ascflow` at load time, so the
    /// per-trap check is a pure set probe).
    flow: Option<FlowGraph>,
    /// The installed rewritten-site registry (parsed and MAC-verified
    /// from `.ascsites` at load time). When present, a trap whose pc is
    /// outside the set fail-stops before the flow and MAC paths under
    /// every tier — `SYSCALL` is a privilege of rewritten sites. `None`
    /// keeps the historical behaviour for registry-free harnesses.
    sites: Option<SiteRegistry>,
    /// The raw number of this process's most recent *dispatched* syscall —
    /// the flow check's `from` node. `None` (= [`FLOW_START`]) until the
    /// first call dispatches. Lives on the kernel, and there is one kernel
    /// per process, so flow state is per-pid by construction: one
    /// process's transitions can never satisfy (or poison) another's.
    last_syscall: Option<u16>,
    caps: CapabilitySet,
    pub(crate) stdin: Vec<u8>,
    pub(crate) stdin_pos: usize,
    pub(crate) stdout: Vec<u8>,
    pub(crate) stderr: Vec<u8>,
    pub(crate) console: Vec<u8>,
    pub(crate) sockets: Vec<std::collections::VecDeque<u8>>,
    pub(crate) pipes: Vec<std::collections::VecDeque<u8>>,
    pub(crate) time_us: u64,
    pub(crate) umask: u32,
    pub(crate) hostname: String,
    pub(crate) exec_requests: Vec<String>,
    trace: Vec<TraceEntry>,
    log: Vec<Alert>,
    stats: KernelStats,
    fault: Option<TrapFault>,
    /// Flight-recorder sink. `None` (the default) means telemetry is off
    /// and the trap handler builds no events at all.
    trace_sink: Option<Box<dyn TraceSink>>,
    /// Metrics registry. `None` (the default) means no distributions are
    /// recorded; recording never feeds back into charged cycles.
    metrics: Option<Box<KernelMetrics>>,
    /// Next span id to allocate (one span per enforced trap).
    next_span: u64,
    /// Open batch window, `None` outside one. See [`crate::batch`].
    window: Option<BatchSession>,
    /// Lifetime counters for the batched path (never part of
    /// [`KernelStats`]).
    batch_stats: BatchStats,
    /// Bytes moved by the last I/O-style call (input to the cost model).
    pub(crate) last_io_bytes: u64,
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel")
            .field("personality", &self.opts.personality)
            .field("enforce", &self.opts.enforce)
            .field("syscalls", &self.stats.syscalls)
            .finish()
    }
}

impl Kernel {
    /// A kernel with a fresh default filesystem.
    pub fn new(opts: KernelOptions) -> Kernel {
        Kernel::with_fs(opts, FileSystem::new())
    }

    /// A kernel reusing an existing filesystem (multi-program benchmarks
    /// run tools sequentially over one tree).
    pub fn with_fs(opts: KernelOptions, fs: FileSystem) -> Kernel {
        let fds = vec![
            Some(OpenFile {
                kind: FdKind::Stdin,
                pos: 0,
                flags: 0,
            }),
            Some(OpenFile {
                kind: FdKind::Stdout,
                pos: 0,
                flags: 1,
            }),
            Some(OpenFile {
                kind: FdKind::Stderr,
                pos: 0,
                flags: 1,
            }),
        ];
        Kernel {
            opts,
            cost: CostModel::default(),
            key: None,
            fs,
            cwd: "/".to_string(),
            fds,
            brk: 0,
            mmap_cursor: 0x60_0000,
            checker: MemoryChecker::new(),
            cache: PidCache::Private(VerifyCache::new()),
            pid: 1,
            last_policy_cell: None,
            flow: None,
            sites: None,
            last_syscall: None,
            caps: [0u32, 1, 2].into_iter().collect(),
            stdin: Vec::new(),
            stdin_pos: 0,
            stdout: Vec::new(),
            stderr: Vec::new(),
            console: Vec::new(),
            sockets: Vec::new(),
            pipes: Vec::new(),
            time_us: 1_119_900_000_000_000, // mid-2005, in µs
            umask: 0o022,
            hostname: "svm32".to_string(),
            exec_requests: Vec::new(),
            trace: Vec::new(),
            log: Vec::new(),
            stats: KernelStats::default(),
            fault: None,
            trace_sink: None,
            metrics: None,
            next_span: 0,
            window: None,
            batch_stats: BatchStats::default(),
            last_io_bytes: 0,
        }
    }

    /// Installs the verification key (the kernel side of the shared secret;
    /// required when `enforce` is on). Every cached verification was
    /// performed under the previous key, so this pid's verified-call cache
    /// is dropped wholesale, wherever it lives.
    pub fn set_key(&mut self, key: MacKey) {
        self.key = Some(key);
        self.cache.with(self.pid, VerifyCache::clear);
    }

    /// Behaviour counters of the verified-call cache (all zero when the
    /// cache is disabled). With a shared cache attached, these are the
    /// counters of this pid's namespace — wherever it currently lives
    /// (detached into an open batch window or resident in the family).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats(self.pid)
    }

    /// Opens a batch window of capacity `k`: until
    /// [`Kernel::close_batch_window`], enforced calls verify against a
    /// cache namespace detached from the shared family once per window
    /// instead of probed per call. A scheduler brackets each slice with
    /// open/close; re-opening an already-open window first reattaches its
    /// namespace. Per-pid outputs are bit-identical with or without a
    /// window (see the `batch` module docs).
    pub fn open_batch_window(&mut self, k: usize) {
        self.cache.reattach(self.pid);
        self.window = Some(BatchSession::new(k));
        self.batch_stats.opened += 1;
    }

    /// Closes the batch window, reattaching the detached namespace (if
    /// any) to the shared family. Idempotent; a no-op when no window is
    /// open.
    pub fn close_batch_window(&mut self) {
        self.cache.reattach(self.pid);
        if self.window.take().is_some() {
            self.batch_stats.closed += 1;
        }
    }

    /// Lifetime counters of the batched verification path.
    pub fn batch_stats(&self) -> BatchStats {
        self.batch_stats
    }

    /// Assigns this kernel's process id (1-based; the default is 1, which
    /// preserves the historical single-process alert rendering and span
    /// ids). A scheduler calls this once per spawned process, before the
    /// process runs.
    pub fn set_pid(&mut self, pid: u32) {
        debug_assert!(pid >= 1, "pids are 1-based");
        self.pid = pid;
    }

    /// This kernel's process id.
    pub fn pid(&self) -> u32 {
        self.pid
    }

    /// Attaches a scheduler-owned pid-keyed cache family. The trap handler
    /// then uses this kernel's pid namespace inside it instead of the
    /// private per-kernel cache, which is discarded (still gated on
    /// [`KernelOptions::verify_cache`]). Call after [`Kernel::set_pid`],
    /// before the process runs.
    pub fn share_cache(&mut self, shared: Rc<RefCell<SharedVerifyCache>>) {
        self.cache = PidCache::Shared {
            family: shared,
            detached: None,
        };
    }

    /// The in-kernel anti-replay counter (the per-process nonce the
    /// policy-state MAC is keyed by). Isolation tests compare counters
    /// across processes; nothing outside the kernel may change it.
    pub fn policy_counter(&self) -> u64 {
        self.checker.counter()
    }

    /// The policy-state cell address of the most recent successful
    /// control-flow verification, if any (see the field docs).
    pub fn last_policy_cell(&self) -> Option<u32> {
        self.last_policy_cell
    }

    /// Installs the syscall-transition digraph the flow tiers check
    /// against (open it from the binary's `.ascflow` section with
    /// [`FlowGraph::open`], which verifies its MAC). Required when
    /// [`KernelOptions::verify_tier`] checks flow; ignored under
    /// [`VerifyTier::Mac`].
    pub fn set_flow_graph(&mut self, flow: FlowGraph) {
        self.flow = Some(flow);
    }

    /// Installs the rewritten-site registry the origin check enforces
    /// (open it from the binary's `.ascsites` section with
    /// [`SiteRegistry::open`], which verifies its MAC). Once set, any
    /// trap from a pc outside the set is a fail-stop
    /// [`Violation::UnrewrittenSite`] kill under every tier, before the
    /// flow and MAC paths run.
    pub fn set_site_registry(&mut self, sites: SiteRegistry) {
        self.sites = Some(sites);
    }

    /// The raw number of this process's most recent dispatched syscall
    /// (`None` until the first call dispatches) — the flow check's `from`
    /// node. Isolation tests assert this never leaks across pids.
    pub fn last_syscall(&self) -> Option<u16> {
        self.last_syscall
    }

    /// Arms one kernel-side fault for the fault-injection campaign; it
    /// fires on trap number `fault.at_trap` and is then disarmed. Only one
    /// fault can be armed at a time (campaigns inject exactly one per run).
    pub fn arm_fault(&mut self, fault: TrapFault) {
        self.fault = Some(fault);
    }

    /// Provides the process's standard input.
    pub fn set_stdin(&mut self, bytes: impl Into<Vec<u8>>) {
        self.stdin = bytes.into();
        self.stdin_pos = 0;
    }

    /// Sets the initial program break (done by the loader from the
    /// binary's highest address). Rounded up to a page boundary so heap
    /// pages never share protection with the last loaded section.
    pub fn set_brk(&mut self, brk: u32) {
        self.brk = brk.div_ceil(0x1000) * 0x1000;
    }

    /// Captured standard output.
    pub fn stdout(&self) -> &[u8] {
        &self.stdout
    }

    /// Captured standard error.
    pub fn stderr(&self) -> &[u8] {
        &self.stderr
    }

    /// Captured console device output.
    pub fn console(&self) -> &[u8] {
        &self.console
    }

    /// The filesystem.
    pub fn fs(&self) -> &FileSystem {
        &self.fs
    }

    /// Mutable filesystem access (test fixtures, benchmark setup).
    pub fn fs_mut(&mut self) -> &mut FileSystem {
        &mut self.fs
    }

    /// Consumes the kernel, returning its filesystem (to thread through a
    /// multi-program benchmark).
    pub fn into_fs(self) -> FileSystem {
        self.fs
    }

    /// The recorded syscall trace.
    pub fn trace(&self) -> &[TraceEntry] {
        &self.trace
    }

    /// Administrator alerts (policy violations), newest last. Each alert
    /// carries the call site, syscall, and structured [`Violation`];
    /// render with `Display` for the classic log line.
    pub fn alerts(&self) -> &[Alert] {
        &self.log
    }

    /// Attaches a flight-recorder sink. The trap handler emits one span
    /// per enforced call (enter, per-check records, exit or kill) into it.
    /// With no sink attached — the default — no events are built and no
    /// cycles change: telemetry never perturbs the paper tables.
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.trace_sink = Some(sink);
    }

    /// Detaches and returns the flight-recorder sink, if any (use
    /// [`asc_trace::TraceSink::into_any`] to recover the concrete type).
    pub fn take_trace_sink(&mut self) -> Option<Box<dyn TraceSink>> {
        self.trace_sink.take()
    }

    /// Attaches a fresh metrics registry (off by default). The trap
    /// handler then records per-call histograms of verification cycles,
    /// AES blocks, and bytes touched — labeled by cache path and check
    /// family — plus syscall/kill/cache-outcome counters. Recording never
    /// changes charged cycles or `KernelStats` (the no-perturbation rule).
    pub fn attach_metrics(&mut self) {
        self.metrics = Some(Box::new(KernelMetrics::new()));
    }

    /// Installs an existing metrics registry: a multi-kernel benchmark
    /// threads one registry through every kernel so the final distributions
    /// cover the whole run.
    pub fn set_metrics(&mut self, metrics: Box<KernelMetrics>) {
        self.metrics = Some(metrics);
    }

    /// Detaches and returns the metrics registry, if one was attached.
    pub fn take_metrics(&mut self) -> Option<Box<KernelMetrics>> {
        self.metrics.take()
    }

    /// The attached metrics registry, if any.
    pub fn metrics(&self) -> Option<&KernelMetrics> {
        self.metrics.as_deref()
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> &KernelStats {
        &self.stats
    }

    /// `execve` calls that were *permitted* (the simulator records rather
    /// than chain-loads).
    pub fn exec_requests(&self) -> &[String] {
        &self.exec_requests
    }

    /// Current working directory.
    pub fn cwd(&self) -> &str {
        &self.cwd
    }

    /// The OS personality this kernel speaks.
    pub fn personality(&self) -> Personality {
        self.opts.personality
    }

    /// The lowest free descriptor, or `EMFILE` once [`OPEN_MAX`] are open.
    pub(crate) fn free_fd(&self) -> Result<u32, u32> {
        match self.fds.iter().position(Option::is_none) {
            Some(fd) => Ok(fd as u32),
            None if self.fds.len() < OPEN_MAX => Ok(self.fds.len() as u32),
            None => Err(EMFILE),
        }
    }

    /// Opens `file` at `fd`, a descriptor [`Kernel::free_fd`] returned.
    pub(crate) fn install_fd(&mut self, fd: u32, file: OpenFile) -> u32 {
        match self.fds.get_mut(fd as usize) {
            Some(slot) => *slot = Some(file),
            None => self.fds.push(Some(file)),
        }
        fd
    }

    /// Opens `file` at the lowest free descriptor, or returns `EMFILE`.
    pub(crate) fn alloc_fd(&mut self, file: OpenFile) -> Result<u32, u32> {
        let fd = self.free_fd()?;
        Ok(self.install_fd(fd, file))
    }

    pub(crate) fn fd(&mut self, fd: u32) -> Option<&mut OpenFile> {
        self.fds.get_mut(fd as usize).and_then(|s| s.as_mut())
    }

    fn handle_trap(&mut self, ctx: &mut TrapContext<'_>) -> TrapOutcome {
        self.stats.syscalls += 1;
        if let Some(m) = self.metrics.as_mut() {
            m.count_syscall();
        }
        let mut charged = self.cost.trap_base;

        // --- The paper's kernel modification: verify before dispatch. ---
        if self.opts.enforce {
            let rec = match self.verify(ctx) {
                Ok(rec) => rec,
                Err(misconfigured) => return TrapOutcome::Kill(misconfigured.into()),
            };
            charged += rec.vc;
            self.account(&rec, ctx.cycles());
            if let Some(violation) = rec.violation {
                return self.kill(ctx, charged, violation);
            }
        }

        // --- Resolve the call, including OpenBSD __syscall indirection. ---
        let raw_nr = ctx.reg(Reg::R0) as u16;
        let mut args = [
            ctx.reg(Reg::R1),
            ctx.reg(Reg::R2),
            ctx.reg(Reg::R3),
            ctx.reg(Reg::R4),
            ctx.reg(Reg::R5),
            ctx.reg(Reg::R6),
        ];
        let mut id = match self.opts.personality.id(raw_nr) {
            Some(id) => id,
            None => {
                // Unknown syscall number: ENOSYS for plain kernels. (An
                // enforcing kernel never reaches here with a forged number
                // — the MAC check fails first.)
                ctx.set_reg(Reg::R0, (-38i32) as u32);
                ctx.charge(charged);
                self.stats.kernel_cycles += charged;
                return TrapOutcome::Continue;
            }
        };
        if id == SyscallId::IndirectSyscall {
            let inner_nr = args[0] as u16;
            args = [args[1], args[2], args[3], args[4], args[5], 0];
            id = match self.opts.personality.id(inner_nr) {
                Some(inner) if inner != SyscallId::IndirectSyscall => inner,
                _ => {
                    ctx.set_reg(Reg::R0, (-38i32) as u32);
                    ctx.charge(charged);
                    self.stats.kernel_cycles += charged;
                    return TrapOutcome::Continue;
                }
            };
        }
        self.trace.push(TraceEntry {
            id,
            raw_nr,
            site: ctx.pc,
        });

        // --- Dispatch. ---
        let outcome = self.dispatch(id, args, ctx);

        charged += self.cost.handler_cost(id, self.last_io_bytes);
        ctx.charge(charged);
        self.stats.kernel_cycles += charged;

        // --- Capability maintenance (§5.3). ---
        if self.opts.capability_tracking {
            let ret = ctx.reg(Reg::R0);
            if spec(id).returns_fd && (ret as i32) >= 0 {
                self.caps.insert(ret);
            }
            if spec(id).closes_fd && ctx.reg(Reg::R0) == 0 {
                self.caps.remove(args[0]);
            }
        }
        self.sync_ring_gauge();
        outcome
    }

    /// The verify stage: the origin check, the SFIP flow pre-filter and
    /// the MAC suite, in that order, on the trapped call. Builds the trap's
    /// one record; `Err` is a misconfigured kernel, killed without an
    /// alert.
    fn verify(&mut self, ctx: &mut TrapContext<'_>) -> Result<TrapRecord, &'static str> {
        let tier = self.opts.verify_tier;
        let cached = self.opts.verify_cache && tier.checks_mac();
        // The first enforced cached call of a batch window detaches this
        // pid's shared namespace (one probe); the window's later calls
        // verify against it without touching the shared family.
        if cached && self.window.is_some() && self.cache.detach(self.pid) {
            self.batch_stats.windows += 1;
        }
        // Borrow the long-lived key: its AES round keys and CMAC subkeys
        // were expanded once at `set_key` time and are reused for every
        // trap (re-deriving the schedule per call would dwarf the
        // short-message MAC itself). A fleet goes one step further and
        // shares one expanded schedule across every kernel
        // (`MacKey::shared_schedule`).
        let Some(key) = self.key.as_ref() else {
            return Err("kernel misconfigured: enforcing without a key");
        };
        let mut regs = trapped_regs(ctx);
        if let Some(fault) = self.fault.take_if(|f| f.at_trap == self.stats.syscalls) {
            fault
                .action
                .apply(&mut regs, &mut self.checker, &mut self.cache, self.pid);
        }
        if self.window.is_some() {
            self.batch_stats.pass_through();
        }
        // Check records are kept only for an observer that reads them; a
        // disabled meter allocates nothing (the no-perturbation rule).
        let observed =
            self.metrics.is_some() || self.trace_sink.as_ref().is_some_and(|s| s.enabled());
        let mut meter = if observed {
            CallMeter::recording()
        } else {
            CallMeter::disabled()
        };
        let mut rec = TrapRecord {
            pid: self.pid,
            site: ctx.pc,
            nr: ctx.reg(Reg::R0) as u16,
            tier,
            cache_on: self.opts.verify_cache,
            ..TrapRecord::default()
        };
        let result = 'suite: {
            // --- Origin privilege: the trap pc must be a rewritten site. ---
            // Checked on the *trusted* trap pc (not the verifier's register
            // copy — the pc comes from the trap itself and cannot be
            // forged) before the flow and MAC paths, under every tier: a
            // raw `SYSCALL` gadget outside the installed `.ascsites`
            // registry has no policy to verify, so the only sound response
            // is an immediate fail-stop — zero side effects, zero AES
            // work. Silent on the pass path (a pure set probe charged no
            // cycles), so registry-free harnesses and existing traces are
            // byte-identical.
            if self.sites.as_ref().is_some_and(|s| !s.contains(ctx.pc)) {
                break 'suite Err(Violation::UnrewrittenSite { pc: ctx.pc });
            }
            // --- The SFIP flow tier: digraph membership pre-filter. ---
            // Checked on the verifier's copy of the registers (so armed
            // faults hit it like every other check) and *before* the MAC
            // suite and dispatch: a bad edge fail-stops with zero side
            // effects and zero AES work.
            if tier.checks_flow() {
                let Some(flow) = self.flow.as_ref() else {
                    return Err("kernel misconfigured: flow tier without a digraph");
                };
                let from = self.last_syscall.unwrap_or(FLOW_START);
                let to = regs.nr as u16;
                let passed = flow.contains((from, to));
                meter.record(CheckRecord {
                    kind: CheckKind::FlowEdge,
                    passed,
                    aes_blocks: 0,
                    bytes: 0,
                    cache: CacheDecision::Disabled,
                });
                if !passed {
                    break 'suite Err(Violation::BadFlowEdge { from, to });
                }
            }
            // Flow-only skips the MAC suite entirely: the digraph probe
            // above *is* the verification, and the outcome carries zero
            // AES blocks, zero bytes, and no cache participation.
            let result = if tier.checks_mac() {
                let mut mem = VmUserMemory(ctx.mem);
                let caps = &self.caps;
                let mut cap_check = |fd: u32| caps.contains(fd);
                let cap_check = self
                    .opts
                    .capability_tracking
                    .then_some(&mut cap_check as &mut dyn FnMut(u32) -> bool);
                let (checker, meter) = (&mut self.checker, &mut meter);
                let verify = |cache: Option<&mut VerifyCache>| {
                    verify_call(key, checker, cache, &mut mem, &regs, cap_check, meter)
                };
                if cached {
                    // The fallback/scrub deltas come from the very cache
                    // the verifier consulted.
                    self.cache.with(self.pid, |cache| {
                        let before = cache.stats();
                        let result = verify(Some(&mut *cache));
                        let after = cache.stats();
                        rec.fallbacks = after.stale_misses - before.stale_misses;
                        rec.scrubs = after.scrubs - before.scrubs;
                        result
                    })
                } else {
                    verify(None)
                }
            } else {
                Ok(VerifyOutcome::default())
            };
            // Roll the batch window once its capacity worth of calls has
            // verified: the namespace reattaches and the next call opens a
            // fresh window. Pure bookkeeping — no per-pid output depends
            // on where the window boundaries fall.
            if let Some(window) = self.window.as_mut() {
                window.drained_in_window += 1;
                if window.drained_in_window >= window.capacity {
                    window.drained_in_window = 0;
                    self.cache.reattach(self.pid);
                }
            }
            result
        };
        match result {
            Ok(outcome) => {
                // Advance the flow state: this (verified) call is the next
                // call's predecessor. Tracked under every tier so
                // switching tiers never changes what the state means.
                self.last_syscall = Some(regs.nr as u16);
                if tier.checks_mac() && regs.lb_ptr != 0 {
                    self.last_policy_cell = Some(regs.lb_ptr);
                }
                rec.pass(&outcome, self.cost);
            }
            Err(violation) => rec.violation = Some(violation),
        }
        rec.checks = meter.checks;
        Ok(rec)
    }

    /// The account stage: [`KernelStats`], the metrics registry and the
    /// trace sink each fold the trap's record. Nothing flows back into
    /// the record, so attaching an observer changes no charged cycle.
    fn account(&mut self, rec: &TrapRecord, at_cycles: u64) {
        self.stats.record(rec);
        if let Some(m) = self.metrics.as_mut() {
            m.record(rec);
        }
        if let Some(sink) = self.trace_sink.as_mut().filter(|s| s.enabled()) {
            // The span carries the pid dimension in its high bits; for the
            // default pid 1 this is the identity encoding, so
            // single-process trace output is byte-identical.
            let span = SpanId::for_pid(rec.pid, self.next_span);
            self.next_span += 1;
            rec.events(span, at_cycles).for_each(|e| sink.record(e));
        }
    }

    /// Mirrors the trace ring's drop counter into the metrics gauge when
    /// both a sink and a registry are attached. Read-only on the sink and
    /// off the charged path, so attaching metrics never perturbs traced
    /// cycle streams.
    fn sync_ring_gauge(&mut self) {
        if let (Some(sink), Some(m)) = (self.trace_sink.as_ref(), self.metrics.as_mut()) {
            m.set_ring_dropped(sink.dropped());
        }
    }

    fn kill(
        &mut self,
        ctx: &mut TrapContext<'_>,
        charged: u64,
        violation: Violation,
    ) -> TrapOutcome {
        let nr = ctx.reg(Reg::R0) as u16;
        let alert = Alert {
            pid: self.pid,
            site: ctx.pc,
            nr,
            name: self.opts.personality.name_of(nr).to_string(),
            violation,
        };
        // Fail-stop: this process is dead, so its shared-cache namespace
        // dies with it.
        self.cache.drop_pid(self.pid);
        let msg = alert.to_string();
        self.log.push(alert);
        self.sync_ring_gauge();
        ctx.charge(charged);
        self.stats.kernel_cycles += charged;
        TrapOutcome::Kill(msg)
    }
}

/// The authenticated-call registers as trapped (the verifier's copy).
fn trapped_regs(ctx: &TrapContext<'_>) -> AuthCallRegs {
    AuthCallRegs {
        nr: ctx.reg(Reg::R0),
        call_site: ctx.pc,
        args: [
            ctx.reg(Reg::R1),
            ctx.reg(Reg::R2),
            ctx.reg(Reg::R3),
            ctx.reg(Reg::R4),
            ctx.reg(Reg::R5),
            ctx.reg(Reg::R6),
        ],
        pol_des: ctx.reg(Reg::R7),
        block_id: ctx.reg(Reg::R8),
        pred_set_ptr: ctx.reg(Reg::R9),
        lb_ptr: ctx.reg(Reg::R10),
        call_mac_ptr: ctx.reg(Reg::R11),
        hint_ptr: ctx.reg(Reg::R12),
    }
}

impl SyscallHandler for Kernel {
    fn syscall(&mut self, ctx: &mut TrapContext<'_>) -> TrapOutcome {
        self.handle_trap(ctx)
    }
}

/// Adapter exposing VM memory to `asc-core`'s verifier through kernel-mode
/// accessors (the kernel may read/write any mapped page).
struct VmUserMemory<'a>(&'a mut Memory);

fn fault(addr: u32) -> Violation {
    Violation::MemoryFault { addr }
}

fn fault_of(f: MemFault) -> Violation {
    match f {
        MemFault::OutOfRange { addr }
        | MemFault::NoRead { addr }
        | MemFault::NoWrite { addr }
        | MemFault::NoExec { addr } => fault(addr),
    }
}

impl UserMemory for VmUserMemory<'_> {
    fn read_u32(&self, addr: u32) -> Result<u32, Violation> {
        self.0.kread_u32(addr).map_err(fault_of)
    }
    fn read_bytes(&self, addr: u32, len: u32) -> Result<&[u8], Violation> {
        self.0.kread(addr, len).map_err(fault_of)
    }
    fn write_bytes(&mut self, addr: u32, bytes: &[u8]) -> Result<(), Violation> {
        self.0.kwrite(addr, bytes).map_err(fault_of)
    }
    fn read_cstr(&self, addr: u32, max: u32) -> Result<&[u8], Violation> {
        self.0.kread_cstr(addr, max).map_err(fault_of)
    }
}
