//! Deterministic multi-process scheduling over simulated kernels.
//!
//! The paper's verifier is per-process: the policy-state MAC is keyed by a
//! per-process counter, and the kernel maps pid → installed policy. This
//! crate supplies the missing substrate for exercising that machinery
//! under interleaving: a [`Scheduler`] owns N [`Machine`]s (each with its
//! own [`Kernel`] — policy key, anti-replay counter, alert log, stats) and
//! time-slices them on the shared virtual cycle clock with
//! [`Machine::run_until_instret`] preemption.
//!
//! Two properties make the scheduler useful as a test substrate rather
//! than just a harness:
//!
//! * **Reproducibility** — the interleaving is a pure function of the
//!   [`SchedPolicy`] (round-robin, or seeded-random drawn from the
//!   workspace's splitmix64 [`asc_testkit::Rng`]) and the processes'
//!   deterministic execution. Same seed ⇒ bit-identical interleaving,
//!   per-pid output, and aggregate stats.
//! * **Isolation by construction** — nothing verifier-trusted is shared
//!   mutably between processes except the optional
//!   [`SharedVerifyCache`], which is pid-namespaced; each process's
//!   counter, policy-state cell, cache epoch, alerts, and stats live in
//!   its own kernel. The cross-process property tests
//!   (`tests/multiproc.rs`) assert that any interleaving reproduces each
//!   process's solo run byte-for-byte.

use std::cell::RefCell;
use std::rc::Rc;

use asc_core::SharedVerifyCache;
use asc_kernel::{BatchStats, Kernel, KernelStats};
use asc_testkit::Rng;
use asc_trace::RingSink;
use asc_vm::{Machine, RunOutcome, StepOutcome};

pub mod recorder;

use recorder::{map_ring_events, Recorder};
pub use recorder::{
    AuditLog, KillMark, PidAudit, RecorderConfig, SliceEnd, SliceWindow, TimelineEntry,
};

/// Process identifier, 1-based (pid 1 is the historical single-process
/// default; the scheduler assigns 1, 2, 3, … in spawn order).
pub type Pid = u32;

/// How the scheduler picks the next runnable process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedPolicy {
    /// Cycle through runnable pids in spawn order.
    RoundRobin,
    /// Pick uniformly among runnable pids from a seeded splitmix64 stream.
    /// The same seed always yields the same interleaving.
    SeededRandom(u64),
}

/// Scheduler construction parameters.
#[derive(Clone, Copy, Debug)]
pub struct SchedConfig {
    /// Interleaving policy.
    pub policy: SchedPolicy,
    /// Retired-instruction quantum per slice (preemption granularity).
    pub slice_instrs: u64,
    /// Per-process cycle budget; a process exceeding it is marked
    /// [`ProcState::Faulted`] rather than looping forever.
    pub budget_cycles: u64,
    /// When `Some(k)`, every slice runs inside a kernel batch window of
    /// depth `k`: the pid's cache namespace is detached from the shared
    /// family for up to `k` enforced calls at a time (see `asc_kernel`'s
    /// batch module). Per-pid
    /// outputs are bit-identical with batching on or off; only shared
    /// probe traffic changes.
    pub batch_depth: Option<usize>,
}

impl Default for SchedConfig {
    fn default() -> SchedConfig {
        SchedConfig {
            policy: SchedPolicy::RoundRobin,
            slice_instrs: 10_000,
            budget_cycles: 3_000_000_000,
            batch_depth: None,
        }
    }
}

/// Why a process is no longer runnable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProcState {
    /// Eligible for further slices.
    Runnable,
    /// Exited normally (or executed `halt`) with this code.
    Exited(u32),
    /// Fail-stop killed — by the kernel's verifier (carrying the alert
    /// rendering) or externally via [`Scheduler::kill`].
    Killed(String),
    /// Died to a VM-level condition (memory fault, bad instruction, cycle
    /// budget); carries a debug rendering of the outcome.
    Faulted(String),
}

impl ProcState {
    /// Whether the process may receive further slices.
    pub fn is_runnable(&self) -> bool {
        matches!(self, ProcState::Runnable)
    }
}

/// One scheduled process: a machine (whose handler is its private
/// [`Kernel`]) plus scheduling state.
pub struct Process {
    pid: Pid,
    name: String,
    machine: Machine<Kernel>,
    state: ProcState,
    slices: u64,
}

impl Process {
    /// The process id.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// The name given at spawn (usually the workload name).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Current scheduling state.
    pub fn state(&self) -> &ProcState {
        &self.state
    }

    /// Number of slices this process has received.
    pub fn slices(&self) -> u64 {
        self.slices
    }

    /// The underlying machine.
    pub fn machine(&self) -> &Machine<Kernel> {
        &self.machine
    }

    /// Mutable machine access (isolation tests corrupt memory mid-run the
    /// same way the fault campaigns do).
    pub fn machine_mut(&mut self) -> &mut Machine<Kernel> {
        &mut self.machine
    }

    /// The process's kernel.
    pub fn kernel(&self) -> &Kernel {
        self.machine.handler()
    }

    /// Mutable kernel access (arming faults, attaching metrics).
    pub fn kernel_mut(&mut self) -> &mut Kernel {
        self.machine.handler_mut()
    }

    /// Captured standard output.
    pub fn stdout(&self) -> &[u8] {
        self.kernel().stdout()
    }

    /// This process's kernel statistics.
    pub fn stats(&self) -> KernelStats {
        *self.kernel().stats()
    }
}

/// A deterministic scheduler over N processes.
///
/// Spawn machines with [`Scheduler::spawn`], then either [`Scheduler::run`]
/// to completion or drive slices manually with [`Scheduler::step`] /
/// [`Scheduler::run_slice`] (the campaign and isolation tests inject
/// faults between slices this way).
pub struct Scheduler {
    config: SchedConfig,
    procs: Vec<Process>,
    shared_cache: Option<Rc<RefCell<SharedVerifyCache>>>,
    rng: Option<Rng>,
    cursor: usize,
    clock: u64,
    interleaving: Vec<Pid>,
    recorder: Option<Recorder>,
}

impl Scheduler {
    /// A scheduler whose processes keep private per-kernel verify caches.
    pub fn new(config: SchedConfig) -> Scheduler {
        Scheduler {
            rng: match config.policy {
                SchedPolicy::SeededRandom(seed) => Some(Rng::new(seed)),
                SchedPolicy::RoundRobin => None,
            },
            config,
            procs: Vec::new(),
            shared_cache: None,
            cursor: 0,
            clock: 0,
            interleaving: Vec::new(),
            recorder: None,
        }
    }

    /// A scheduler owning a pid-namespaced [`SharedVerifyCache`]; every
    /// spawned kernel gets a handle and operates only on its own pid's
    /// namespace (still gated on the kernel's `verify_cache` option).
    pub fn with_shared_cache(config: SchedConfig) -> Scheduler {
        let mut sched = Scheduler::new(config);
        sched.shared_cache = Some(Rc::new(RefCell::new(SharedVerifyCache::new())));
        sched
    }

    /// The shared cache family, if this scheduler owns one.
    pub fn shared_cache(&self) -> Option<&Rc<RefCell<SharedVerifyCache>>> {
        self.shared_cache.as_ref()
    }

    /// Adds a process; returns its pid (assigned 1, 2, 3, … in spawn
    /// order). Sets the kernel's pid and, when this scheduler owns a
    /// shared cache, hands the kernel its handle.
    pub fn spawn(&mut self, name: &str, mut machine: Machine<Kernel>) -> Pid {
        let pid = (self.procs.len() + 1) as Pid;
        machine.handler_mut().set_pid(pid);
        if let Some(shared) = self.shared_cache.as_ref() {
            machine.handler_mut().share_cache(Rc::clone(shared));
        }
        if let Some(rec) = self.recorder.as_mut() {
            if rec.config.samples(pid) {
                rec.sampled.push(pid);
                machine
                    .handler_mut()
                    .set_trace_sink(Box::new(RingSink::new(rec.config.ring_capacity)));
            } else {
                rec.unsampled.push(pid);
            }
        }
        self.procs.push(Process {
            pid,
            name: name.to_string(),
            machine,
            state: ProcState::Runnable,
            slices: 0,
        });
        pid
    }

    /// Runs one slice of `pid` (which must be runnable): up to
    /// `slice_instrs` retired instructions, bounded by the remaining cycle
    /// budget. Advances the shared clock by the cycles consumed and
    /// records the slice in the interleaving.
    pub fn run_slice(&mut self, pid: Pid) -> &ProcState {
        let idx = pid
            .checked_sub(1)
            .map(|i| i as usize)
            .filter(|&i| i < self.procs.len())
            .unwrap_or_else(|| panic!("no such pid {pid}"));
        let proc = &mut self.procs[idx];
        assert!(
            proc.state.is_runnable(),
            "pid {pid} is not runnable: {:?}",
            proc.state
        );
        let slice_index = self.interleaving.len() as u64;
        self.interleaving.push(pid);
        proc.slices += 1;
        let before = proc.machine.cycles();
        let clock_start = self.clock;
        let stats_before = *proc.kernel().stats();
        let target = proc.machine.instret() + self.config.slice_instrs;
        let remaining = self.config.budget_cycles.saturating_sub(before).max(1);
        if let Some(depth) = self.config.batch_depth {
            proc.machine.handler_mut().open_batch_window(depth);
        }
        let outcome = proc.machine.run_until_instret(target, remaining);
        if self.config.batch_depth.is_some() {
            // Close regardless of outcome: a killed/faulted process must
            // not leave its namespace detached from the shared family.
            proc.machine.handler_mut().close_batch_window();
        }
        self.clock += proc.machine.cycles() - before;
        match outcome {
            StepOutcome::Running => {}
            StepOutcome::Done(RunOutcome::Exited(code)) => proc.state = ProcState::Exited(code),
            StepOutcome::Done(RunOutcome::Halted) => proc.state = ProcState::Exited(0),
            StepOutcome::Done(RunOutcome::Killed(reason)) => {
                // The kernel already dropped its shared-cache namespace in
                // its fail-stop path; the scheduler only records the state.
                proc.state = ProcState::Killed(reason);
            }
            StepOutcome::Done(other) => proc.state = ProcState::Faulted(format!("{other:?}")),
        }
        if self.recorder.is_some() {
            // Snapshot first: the recorder observes scheduling state the
            // slice already produced, it never feeds back into it.
            let proc = &self.procs[idx];
            let stats_after = *proc.kernel().stats();
            let end = match proc.state() {
                ProcState::Runnable => SliceEnd::Preempted,
                ProcState::Exited(code) => SliceEnd::Exited(*code),
                ProcState::Killed(reason) => SliceEnd::Killed(reason.clone()),
                ProcState::Faulted(detail) => SliceEnd::Faulted(detail.clone()),
            };
            let window = SliceWindow {
                pid,
                index: slice_index,
                clock_start,
                clock_end: self.clock,
                machine_start: before,
                machine_end: proc.machine().cycles(),
                batched: self.config.batch_depth.is_some(),
                fallback_delta: stats_after.cache_fallbacks - stats_before.cache_fallbacks,
                scrub_delta: stats_after.cache_scrubs - stats_before.cache_scrubs,
                end: end.clone(),
            };
            let clock = self.clock;
            let Some(rec) = self.recorder.as_mut() else {
                unreachable!("recorder presence checked above");
            };
            if let SliceEnd::Killed(reason) = &end {
                rec.kills.push(KillMark {
                    pid,
                    clock,
                    slice_index: Some(slice_index),
                    reason: reason.clone(),
                });
            }
            rec.windows.push(window);
        }
        &self.procs[idx].state
    }

    /// Picks the next runnable process per the policy and runs one slice.
    /// Returns the pid that ran, or `None` when no process is runnable.
    pub fn step(&mut self) -> Option<Pid> {
        let runnable: Vec<usize> = (0..self.procs.len())
            .filter(|&i| self.procs[i].state.is_runnable())
            .collect();
        if runnable.is_empty() {
            return None;
        }
        let idx = match self.rng.as_mut() {
            Some(rng) => runnable[rng.range_usize(0, runnable.len())],
            None => {
                // Round-robin: first runnable index at or after the cursor.
                let n = self.procs.len();
                let idx = (0..n)
                    .map(|off| (self.cursor + off) % n)
                    .find(|&i| self.procs[i].state.is_runnable())
                    .expect("runnable set is non-empty");
                self.cursor = (idx + 1) % n;
                idx
            }
        };
        let pid = self.procs[idx].pid;
        self.run_slice(pid);
        Some(pid)
    }

    /// Runs slices until no process is runnable.
    pub fn run(&mut self) {
        while self.step().is_some() {}
    }

    /// Externally kills `pid` (mid-slice from the other processes'
    /// perspective): marks it [`ProcState::Killed`] and drops its
    /// namespace from the shared cache, if any. Every other process's
    /// counter, cache epoch, and policy state are untouched — the
    /// isolation property tests assert exactly this.
    pub fn kill(&mut self, pid: Pid, reason: &str) {
        let idx = (pid - 1) as usize;
        assert!(idx < self.procs.len(), "no such pid {pid}");
        self.procs[idx].state = ProcState::Killed(reason.to_string());
        if let Some(shared) = self.shared_cache.as_ref() {
            shared.borrow_mut().drop_pid(pid);
        }
        let clock = self.clock;
        if let Some(rec) = self.recorder.as_mut() {
            rec.kills.push(KillMark {
                pid,
                clock,
                slice_index: None,
                reason: reason.to_string(),
            });
        }
    }

    /// Attaches the flight recorder. Already-spawned and future processes
    /// are sampled per [`RecorderConfig::samples`]; sampled kernels get a
    /// bounded [`RingSink`] each. Attaching is perturbation-free: charged
    /// cycles, stats, outputs, and the interleaving are bit-identical with
    /// or without the recorder (asserted by `tests/audit.rs`).
    ///
    /// # Panics
    ///
    /// Panics if a recorder is already attached.
    pub fn attach_recorder(&mut self, config: RecorderConfig) {
        assert!(self.recorder.is_none(), "recorder already attached");
        let mut rec = Recorder {
            config,
            ..Recorder::default()
        };
        for proc in &mut self.procs {
            if config.samples(proc.pid) {
                rec.sampled.push(proc.pid);
                proc.kernel_mut()
                    .set_trace_sink(Box::new(RingSink::new(config.ring_capacity)));
            } else {
                rec.unsampled.push(proc.pid);
            }
        }
        self.recorder = Some(rec);
    }

    /// Whether a recorder is attached.
    pub fn recording(&self) -> bool {
        self.recorder.is_some()
    }

    /// Detaches the recorder and harvests the audit log: drains every
    /// sampled pid's ring, maps its events onto the shared virtual clock
    /// via the recorded slice windows, and packages the slice windows,
    /// kill marks, and per-pid stats (the exact reconstruction source for
    /// unsampled pids). Returns `None` if no recorder was attached.
    pub fn take_audit(&mut self) -> Option<AuditLog> {
        let rec = self.recorder.take()?;
        let mut pids = Vec::with_capacity(self.procs.len());
        for proc in &mut self.procs {
            let pid = proc.pid;
            let sampled = rec.sampled.contains(&pid);
            let (events, dropped) = if sampled {
                let ring = proc
                    .kernel_mut()
                    .take_trace_sink()
                    .expect("sampled pid owns a ring")
                    .into_any()
                    .downcast::<RingSink>()
                    .expect("recorder sinks are RingSinks");
                map_ring_events(pid, &ring, &rec.windows)
            } else {
                (Vec::new(), 0)
            };
            pids.push(PidAudit {
                pid,
                sampled,
                events,
                dropped,
                stats: proc.stats(),
            });
        }
        Some(AuditLog {
            config: rec.config,
            windows: rec.windows,
            kills: rec.kills,
            pids,
        })
    }

    /// The shared virtual clock: total cycles consumed across all slices.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// The recorded interleaving: one pid per slice, in execution order.
    pub fn interleaving(&self) -> &[Pid] {
        &self.interleaving
    }

    /// All processes, in spawn (pid) order.
    pub fn processes(&self) -> &[Process] {
        &self.procs
    }

    /// The process with the given pid.
    pub fn process(&self, pid: Pid) -> &Process {
        &self.procs[(pid - 1) as usize]
    }

    /// Mutable access to the process with the given pid.
    pub fn process_mut(&mut self, pid: Pid) -> &mut Process {
        &mut self.procs[(pid - 1) as usize]
    }

    /// Kernel statistics summed over every process, in pid order.
    pub fn aggregate_stats(&self) -> KernelStats {
        let mut total = KernelStats::default();
        for proc in &self.procs {
            total.absorb(proc.kernel().stats());
        }
        total
    }

    /// Batch-path counters summed over every kernel (all zero unless
    /// [`SchedConfig::batch_depth`] is set).
    pub fn batch_stats(&self) -> BatchStats {
        let mut total = BatchStats::default();
        for proc in &self.procs {
            total.absorb(&proc.kernel().batch_stats());
        }
        total
    }
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("policy", &self.config.policy)
            .field("procs", &self.procs.len())
            .field("clock", &self.clock)
            .finish()
    }
}
