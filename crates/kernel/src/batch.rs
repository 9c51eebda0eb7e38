//! Batch windows: amortizing shared-verifier setup across a scheduler
//! slice, and [`PidCache`], the one place that decides which verified-call
//! cache a pid uses.
//!
//! A fleet-scale scheduler drives thousands of kernels against one
//! pid-sharded [`asc_core::SharedVerifyCache`]. Unbatched, every enforced
//! trap probes the shared family once to resolve the calling pid's cache
//! namespace. The batch path instead opens a **batch window** around a
//! scheduler slice ([`crate::Kernel::open_batch_window`] /
//! [`crate::Kernel::close_batch_window`]): at the first enforced call of
//! the window the pid's namespace is *detached* from the family (one
//! probe), up to `K` calls verify against the local namespace with zero
//! shared-structure traffic, and the namespace is *reattached* on window
//! close (one probe). Setup cost per call falls from `O(1 probe/call)` to
//! `O(2 probes/K calls)` — measured by the family's shard probe counters,
//! not modeled. The fixed AES state is amortized the same way one level
//! down: the kernel's installed [`asc_crypto::MacKey`] holds the expanded
//! key schedule for the life of the process, and a fleet shares one
//! schedule across every kernel via [`asc_crypto::MacKey::shared_schedule`]
//! (measured via `block_ops`).
//!
//! # Soundness: batching cannot reorder or skip checks
//!
//! A window changes only *where* the pid's namespace lives, never what a
//! trap does. Each enforced trap runs the kernel's verify stage on its own
//! registers, within that trap, in program order — the guest is
//! synchronous, so no call can be queued behind another or observe
//! another's result early, and [`BatchStats`] counts every such call as
//! submitted and drained at depth 1. The verify stage runs the complete
//! per-call check suite (call MAC, blobs, policy state, capability check)
//! against the *same* [`asc_core::VerifyCache`] state machine it would hit
//! unbatched: detach/attach moves the namespace, never its contents, so
//! hits, epochs, scrubs, per-pid statistics, and the accept set are
//! bit-identical to the unbatched path by construction.

use std::cell::RefCell;
use std::rc::Rc;

use asc_core::{CacheStats, SharedVerifyCache, VerifyCache};

/// Counters for the batched verification path. Kernel-level observability
/// only: these never feed `KernelStats`, charged cycles, or metrics, so
/// per-pid outputs stay bit-identical with batching on or off.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Windows opened by the scheduler's slice bracketing
    /// ([`crate::Kernel::open_batch_window`] calls).
    pub opened: u64,
    /// Windows closed ([`crate::Kernel::close_batch_window`] calls that
    /// found a window open).
    pub closed: u64,
    /// Batch windows that detached a cache namespace (a window with no
    /// enforced cached call opens nothing and costs nothing).
    pub windows: u64,
    /// Enforced calls submitted inside a window.
    pub submitted: u64,
    /// Submitted calls drained through the verifier (each within the
    /// trap that submitted it).
    pub drained: u64,
    /// High-water count of submitted, not-yet-drained calls (1 while
    /// guests are synchronous).
    pub max_depth: u64,
}

impl BatchStats {
    /// Folds another kernel's counters into this one (fleet aggregation).
    pub fn absorb(&mut self, other: &BatchStats) {
        self.opened += other.opened;
        self.closed += other.closed;
        self.windows += other.windows;
        self.submitted += other.submitted;
        self.drained += other.drained;
        self.max_depth = self.max_depth.max(other.max_depth);
    }

    /// Drained calls per namespace-detaching window — how full the
    /// windows ran, the number the `O(2 probes/K calls)` amortisation
    /// claim rides on. 0.0 before any window detached.
    pub fn fill_ratio(&self) -> f64 {
        if self.windows > 0 {
            self.drained as f64 / self.windows as f64
        } else {
            0.0
        }
    }

    /// Counts one enforced call inside a window: submitted and drained in
    /// its own trap.
    pub(crate) fn pass_through(&mut self) {
        self.submitted += 1;
        self.drained += 1;
        self.max_depth = self.max_depth.max(1);
    }
}

/// One open batch window.
#[derive(Debug)]
pub(crate) struct BatchSession {
    /// Window capacity `K`: after `K` verified calls the window rolls
    /// (namespace reattached, next call opens a fresh window).
    pub(crate) capacity: usize,
    /// Calls verified in the current window (rolls the window at
    /// `capacity`).
    pub(crate) drained_in_window: usize,
}

impl BatchSession {
    pub(crate) fn new(capacity: usize) -> BatchSession {
        BatchSession {
            capacity: capacity.max(1),
            drained_in_window: 0,
        }
    }
}

/// Where a pid's verified-call cache lives: the kernel's private cache,
/// or the pid's namespace in a scheduler-shared family — resident there,
/// or detached while an open batch window holds it.
#[derive(Debug)]
pub(crate) enum PidCache {
    /// The per-kernel cache (no shared family attached).
    Private(VerifyCache),
    /// A namespace in a scheduler-owned, pid-keyed family, so concurrent
    /// processes can never serve (or invalidate) each other's entries.
    Shared {
        /// The family.
        family: Rc<RefCell<SharedVerifyCache>>,
        /// The pid's namespace while a batch window holds it detached.
        detached: Option<VerifyCache>,
    },
}

impl PidCache {
    /// Runs `f` on the cache `pid` uses now: the detached namespace, else
    /// its namespace in the shared family (created on first use, one
    /// counted probe), else the private cache.
    pub(crate) fn with<R>(&mut self, pid: u32, f: impl FnOnce(&mut VerifyCache) -> R) -> R {
        match self {
            PidCache::Private(cache)
            | PidCache::Shared {
                detached: Some(cache),
                ..
            } => f(cache),
            PidCache::Shared { family, .. } => f(family.borrow_mut().pid_cache(pid)),
        }
    }

    /// The behaviour counters of the cache [`PidCache::with`] would pick.
    /// A read: it never probes the family or creates a namespace, so a
    /// killed pid's counters read as zero.
    pub(crate) fn stats(&self, pid: u32) -> CacheStats {
        match self {
            PidCache::Private(cache)
            | PidCache::Shared {
                detached: Some(cache),
                ..
            } => cache.stats(),
            PidCache::Shared { family, .. } => family.borrow().pid_stats(pid),
        }
    }

    /// Detaches the pid's shared namespace for a batch window (one
    /// probe). False when there is nothing to detach: no family, or the
    /// namespace is already out.
    pub(crate) fn detach(&mut self, pid: u32) -> bool {
        match self {
            PidCache::Shared { family, detached } if detached.is_none() => {
                *detached = Some(family.borrow_mut().detach_pid(pid));
                true
            }
            _ => false,
        }
    }

    /// Returns a detached namespace to the family (one probe); a no-op
    /// when none is out.
    pub(crate) fn reattach(&mut self, pid: u32) {
        if let PidCache::Shared { family, detached } = self {
            if let Some(ns) = detached.take() {
                family.borrow_mut().attach_pid(pid, ns);
            }
        }
    }

    /// Fail-stop: drops the pid's shared namespace — and *only* its
    /// namespace; every other pid's entries survive. A detached namespace
    /// dies with the window instead of being reattached. The private
    /// cache is kept, so its counters stay readable after the kill.
    pub(crate) fn drop_pid(&mut self, pid: u32) {
        if let PidCache::Shared { family, detached } = self {
            *detached = None;
            family.borrow_mut().drop_pid(pid);
        }
    }
}
