//! The scheduler-owned flight recorder: per-pid bounded [`RingSink`]s
//! merged with scheduling events into one cycle-ordered audit timeline.
//!
//! The recorder is the *black box* of the fail-stop story. It is
//! **always-on capable and perturbation-free by construction**: attaching
//! it installs bounded [`RingSink`]s in the sampled kernels (the kernel's
//! no-perturbation rule guarantees identical charged cycles and stats with
//! or without a sink) and snapshots scheduling state the scheduler already
//! tracks. Nothing the recorder does feeds back into the metered system —
//! the property tests in `tests/audit.rs` prove cycles, per-pid stats,
//! stdout, and the interleaving FNV digest are bit-identical with the
//! recorder attached at N ∈ {2, 8, 64, 1024} under every verify tier.
//!
//! # Sampling soundness
//!
//! At fleet scale (N = 1024) recording every pid costs N rings. The
//! recorder instead samples pids *deterministically*: pid `p` is sampled
//! iff `mix64(p ^ seed)` falls under a rational threshold
//! (`sample_num / sample_den` of the 2^64 space, via the same widening
//! multiply used by [`asc_core::pid_shard`]). Determinism means a replay
//! with the same seed samples the same pids; exactness is preserved
//! because:
//!
//! * every sampled ring counts its overwrites ([`RingSink`]'s
//!   `retained + dropped == recorded` invariant), and
//! * for *unsampled* pids the span totals are reconstructed exactly from
//!   [`KernelStats`]: every trap emits exactly one `TrapEnter`, every
//!   successful verification one `TrapExit`, and every fail-stop one
//!   `Kill` — so `syscalls`, `verified`, and the alert count recover the
//!   span-level event totals without any ring having existed.
//!
//! # Cycle ordering
//!
//! Kernel events carry the *machine-local* cycle clock; the scheduler
//! interleaves machines on a shared virtual clock. The recorder logs one
//! [`SliceWindow`] per slice — `[machine_start, machine_end]` mapped to
//! `[clock_start, clock_end]` — so harvesting translates every ring event
//! to global time: `global = clock_start + (local - machine_start)`. The
//! per-slice batch-window open/close and cache fallback/scrub deltas ride
//! the same windows, giving one merged, causally-ordered timeline.

use asc_core::mix64;
use asc_kernel::KernelStats;
use asc_trace::{Event, RingSink};

use crate::Pid;

/// Recorder parameters. Identical configs on identical schedules produce
/// identical audit logs.
#[derive(Clone, Copy, Debug)]
pub struct RecorderConfig {
    /// Ring capacity (events retained per sampled pid).
    pub ring_capacity: usize,
    /// Seed for the deterministic pid-sampling draw.
    pub sample_seed: u64,
    /// Sampling numerator: pid `p` is sampled iff the widening multiply
    /// of `mix64(p ^ sample_seed)` by `sample_den` lands below
    /// `sample_num`. `(1, 1)` samples every pid.
    pub sample_num: u32,
    /// Sampling denominator (must be nonzero, `>= sample_num`).
    pub sample_den: u32,
}

impl Default for RecorderConfig {
    fn default() -> RecorderConfig {
        RecorderConfig {
            ring_capacity: 64,
            sample_seed: 0xB1AC_B0C5,
            sample_num: 1,
            sample_den: 1,
        }
    }
}

impl RecorderConfig {
    /// Whether this config samples `pid`. Pure function of
    /// `(pid, sample_seed, sample_num, sample_den)` — replaying with the
    /// same config samples the same pids.
    pub fn samples(&self, pid: Pid) -> bool {
        debug_assert!(self.sample_den > 0, "sample_den must be nonzero");
        let draw = mix64(u64::from(pid) ^ self.sample_seed);
        let bucket = ((u128::from(draw) * u128::from(self.sample_den)) >> 64) as u32;
        bucket < self.sample_num
    }
}

/// How a slice ended, from the scheduler's perspective.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SliceEnd {
    /// The quantum expired; the process stays runnable.
    Preempted,
    /// The process exited with this code.
    Exited(u32),
    /// The kernel fail-stop killed the process (alert rendering).
    Killed(String),
    /// A VM-level fault ended the process.
    Faulted(String),
}

/// One scheduled slice: the bridge between a pid's machine-local cycle
/// clock and the scheduler's shared virtual clock.
#[derive(Clone, Debug)]
pub struct SliceWindow {
    /// The pid that ran.
    pub pid: Pid,
    /// Global slice index (position in the interleaving).
    pub index: u64,
    /// Shared virtual clock when the slice started.
    pub clock_start: u64,
    /// Shared virtual clock when the slice ended.
    pub clock_end: u64,
    /// The pid's machine cycle counter at slice start.
    pub machine_start: u64,
    /// The pid's machine cycle counter at slice end.
    pub machine_end: u64,
    /// Whether the slice ran inside a kernel batch window.
    pub batched: bool,
    /// Cache fallbacks (stale entries degraded cold) during this slice.
    pub fallback_delta: u64,
    /// Cache scrubs (future-epoch entries purged) during this slice.
    pub scrub_delta: u64,
    /// How the slice ended.
    pub end: SliceEnd,
}

/// A kill mark on the shared clock (verifier fail-stop or external
/// [`crate::Scheduler::kill`]).
#[derive(Clone, Debug)]
pub struct KillMark {
    /// The pid that died.
    pub pid: Pid,
    /// Shared virtual clock at the kill.
    pub clock: u64,
    /// Global slice index of the killing slice (`None` for external kills
    /// between slices).
    pub slice_index: Option<u64>,
    /// The kill reason (alert rendering for verifier kills).
    pub reason: String,
}

/// The recorder state the scheduler owns while running.
#[derive(Debug, Default)]
pub(crate) struct Recorder {
    pub(crate) config: RecorderConfig,
    pub(crate) sampled: Vec<Pid>,
    pub(crate) unsampled: Vec<Pid>,
    pub(crate) windows: Vec<SliceWindow>,
    pub(crate) kills: Vec<KillMark>,
}

/// Everything recorded about one pid after harvest.
#[derive(Clone, Debug)]
pub struct PidAudit {
    /// The pid.
    pub pid: Pid,
    /// Whether the pid was sampled (owned a ring).
    pub sampled: bool,
    /// Retained ring events translated to the shared clock, oldest first:
    /// `(global_cycles, event)`. Empty for unsampled pids.
    pub events: Vec<(u64, Event)>,
    /// Events the ring discarded (exact; 0 for unsampled pids).
    pub dropped: u64,
    /// The pid's kernel counters — for unsampled pids this is the *exact*
    /// reconstruction source: `syscalls` spans entered, `verified` spans
    /// completed, the difference (minus kills) never emitted an exit.
    pub stats: KernelStats,
}

impl PidAudit {
    /// Span-level event total for this pid, reconstructed from
    /// [`KernelStats`] alone (valid for sampled and unsampled pids alike):
    /// one `TrapEnter` per trap plus one `TrapExit` per verified call.
    /// Kill events add the pid's alert count on top (tracked by the
    /// scheduler's kill marks, not per-pid stats).
    pub fn span_events(&self) -> u64 {
        self.stats.syscalls + self.stats.verified
    }
}

/// The harvested audit log: every timeline ingredient, cycle-ordered.
#[derive(Clone, Debug)]
pub struct AuditLog {
    /// The recorder's configuration.
    pub config: RecorderConfig,
    /// Every slice window, in execution order.
    pub windows: Vec<SliceWindow>,
    /// Every kill, in occurrence order.
    pub kills: Vec<KillMark>,
    /// Per-pid audit records, in pid order.
    pub pids: Vec<PidAudit>,
}

/// One entry of the merged audit timeline.
#[derive(Clone, Debug)]
pub enum TimelineEntry {
    /// A slice began (`pid`, batch-window opened iff `batched`).
    SliceStart {
        /// The pid receiving the slice.
        pid: Pid,
        /// Global slice index.
        index: u64,
        /// Whether a kernel batch window opened with the slice.
        batched: bool,
    },
    /// A kernel trace event from a sampled pid's ring.
    Kernel {
        /// The pid whose kernel emitted the event.
        pid: Pid,
        /// The event, with machine-local `at_cycles` preserved inside.
        event: Event,
    },
    /// A slice ended; nonzero cache deltas surface degradation here.
    SliceEnd {
        /// The pid whose slice ended.
        pid: Pid,
        /// Global slice index.
        index: u64,
        /// Cache fallbacks during the slice.
        fallbacks: u64,
        /// Cache scrubs during the slice.
        scrubs: u64,
        /// How the slice ended.
        end: SliceEnd,
    },
    /// A process died.
    Kill {
        /// The pid that died.
        pid: Pid,
        /// The kill reason.
        reason: String,
    },
}

impl AuditLog {
    /// The merged, cycle-ordered timeline: slice boundaries (which carry
    /// the batch-window open/close and per-slice cache fallback/scrub
    /// deltas), sampled kernel events mapped onto the shared clock, and
    /// kill marks. Entries are `(global_cycles, entry)`, sorted by cycle
    /// with a deterministic tiebreak (slice order, then event order).
    pub fn timeline(&self) -> Vec<(u64, TimelineEntry)> {
        let mut entries: Vec<(u64, u64, u32, TimelineEntry)> = Vec::new();
        for w in &self.windows {
            entries.push((
                w.clock_start,
                w.index,
                0,
                TimelineEntry::SliceStart {
                    pid: w.pid,
                    index: w.index,
                    batched: w.batched,
                },
            ));
            entries.push((
                w.clock_end,
                w.index,
                2,
                TimelineEntry::SliceEnd {
                    pid: w.pid,
                    index: w.index,
                    fallbacks: w.fallback_delta,
                    scrubs: w.scrub_delta,
                    end: w.end.clone(),
                },
            ));
        }
        for pa in &self.pids {
            for (global, event) in &pa.events {
                // Order kernel events inside the slice they belong to.
                let index = self
                    .windows
                    .iter()
                    .find(|w| w.pid == pa.pid && *global >= w.clock_start && *global <= w.clock_end)
                    .map(|w| w.index)
                    .unwrap_or(u64::MAX);
                entries.push((
                    *global,
                    index,
                    1,
                    TimelineEntry::Kernel {
                        pid: pa.pid,
                        event: event.clone(),
                    },
                ));
            }
        }
        for k in &self.kills {
            entries.push((
                k.clock,
                k.slice_index.unwrap_or(u64::MAX),
                3,
                TimelineEntry::Kill {
                    pid: k.pid,
                    reason: k.reason.clone(),
                },
            ));
        }
        entries.sort_by_key(|e| (e.0, e.1, e.2));
        entries.into_iter().map(|(at, _, _, e)| (at, e)).collect()
    }

    /// The audit record for `pid`, if the pid exists.
    pub fn pid(&self, pid: Pid) -> Option<&PidAudit> {
        self.pids.iter().find(|p| p.pid == pid)
    }
}

/// Translates a drained ring into shared-clock events using the pid's
/// slice windows. Events are mapped through the window covering their
/// machine-local cycle stamp; the stamp inside the returned [`Event`] is
/// left machine-local (bundles keep both clocks).
pub(crate) fn map_ring_events(
    pid: Pid,
    ring: &RingSink,
    windows: &[SliceWindow],
) -> (Vec<(u64, Event)>, u64) {
    let pid_windows: Vec<&SliceWindow> = windows.iter().filter(|w| w.pid == pid).collect();
    let mut out = Vec::with_capacity(ring.len());
    for event in ring.events() {
        let local = event.at_cycles;
        // Machine cycles grow monotonically across a pid's slices, so the
        // covering window is the last one whose start is <= the stamp
        // (kill events may be charged exactly at the window end).
        let window = pid_windows
            .iter()
            .rev()
            .find(|w| local >= w.machine_start)
            .or(pid_windows.first());
        let global = match window {
            Some(w) => w.clock_start + (local.min(w.machine_end) - w.machine_start),
            None => local,
        };
        out.push((global, event.clone()));
    }
    (out, ring.dropped_events())
}
