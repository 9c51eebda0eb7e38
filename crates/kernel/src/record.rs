//! The trap record: what one enforced trap established, built once by the
//! kernel's verify stage and then folded, unchanged, by every observer —
//! [`crate::KernelStats`], the metrics registry and the trace sink. Since
//! all three read the same facts, they cannot disagree: the metrics sums
//! equal the stats, and each span's check cycles plus its fixed term
//! equal its verify cycles, by construction.

use asc_core::{VerifyOutcome, Violation};
use asc_trace::{CheckRecord, Event, EventKind, Severity, SpanId};

use crate::cost::CostModel;
use crate::kernel::VerifyTier;
use crate::metrics::{PATH_COLD, PATH_FALLBACK, PATH_SCRUB, PATH_WARM};

/// The facts of one enforced trap.
#[derive(Debug, Default)]
pub(crate) struct TrapRecord {
    /// The trapping process.
    pub(crate) pid: u32,
    /// Call-site address (the trapping pc).
    pub(crate) site: u32,
    /// The trapped syscall number — the machine register, not the
    /// verifier's copy an armed fault may have corrupted.
    pub(crate) nr: u16,
    /// The tier that verified the call.
    pub(crate) tier: VerifyTier,
    /// Whether the verified-call cache is configured (it takes part only
    /// under the MAC tiers, but every verified call then gets an outcome).
    pub(crate) cache_on: bool,
    /// Whether the call MAC was served by the cache (the warm path).
    pub(crate) cache_hit: bool,
    /// The checks that ran, in order. Empty unless a trace sink or metrics
    /// registry is attached (the meter records nothing otherwise).
    pub(crate) checks: Vec<CheckRecord>,
    /// AES blocks a verified call spent.
    pub(crate) aes_blocks: u64,
    /// User-space bytes a verified call read and compared.
    pub(crate) bytes: u64,
    /// Charged verification cycles (0 for a killed call).
    pub(crate) vc: u64,
    /// The fixed term of `vc`: a MAC-suite cost, so 0 under flow-only.
    pub(crate) fixed: u64,
    /// The cost model that priced `vc`; `None` for a killed call, which
    /// is charged nothing.
    pub(crate) pricing: Option<CostModel>,
    /// Stale or poisoned cache entries the call's checks found and fell
    /// back from — counted on killed calls too.
    pub(crate) fallbacks: u64,
    /// Future-epoch cache state entries the call scrubbed.
    pub(crate) scrubs: u64,
    /// The verdict: the violation the process is killed for, `None` when
    /// the call verified.
    pub(crate) violation: Option<Violation>,
}

impl TrapRecord {
    /// Records a passed verification, charged under `cost`: the flow
    /// probe under the flow tiers plus the metered MAC cost under the MAC
    /// tiers, so mac+flow is priced as exactly mac plus the probe.
    pub(crate) fn pass(&mut self, outcome: &VerifyOutcome, cost: CostModel) {
        self.cache_hit = outcome.cache_hit;
        self.aes_blocks = outcome.aes_blocks;
        self.bytes = outcome.bytes_checked;
        self.pricing = Some(cost);
        if self.tier.checks_flow() {
            self.vc += cost.flow_check;
        }
        if self.tier.checks_mac() {
            self.fixed = cost.verify_fixed_for(outcome.cache_hit);
            self.vc += cost.verify_cost_for(outcome);
        }
    }

    /// How the verified-call cache took part, as a `PATH_*` index.
    pub(crate) fn path(&self) -> usize {
        if self.cache_hit {
            PATH_WARM
        } else if self.fallbacks > 0 {
            PATH_FALLBACK
        } else if self.scrubs > 0 {
            PATH_SCRUB
        } else {
            PATH_COLD
        }
    }

    /// Cycles charged for one of this call's checks. The cost model is
    /// linear, so these plus `fixed` sum to `vc` exactly.
    pub(crate) fn check_cycles(&self, check: &CheckRecord) -> u64 {
        self.pricing.map_or(0, |cost| cost.check_cost_of(check))
    }

    /// The trace fold: the trap's span, from `TrapEnter` through one
    /// `Check` per check (`Warn` for the one that failed) to `TrapExit`
    /// or `Kill`.
    pub(crate) fn events(&self, span: SpanId, at_cycles: u64) -> impl Iterator<Item = Event> + '_ {
        let event = move |severity, kind| Event {
            span,
            at_cycles,
            severity,
            kind,
        };
        let (site, nr) = (self.site, self.nr);
        let checks = self.checks.iter().map(move |check| {
            let severity = if check.passed {
                Severity::Info
            } else {
                Severity::Warn
            };
            let cycles = self.check_cycles(check);
            event(
                severity,
                EventKind::Check {
                    record: *check,
                    cycles,
                },
            )
        });
        let close = match &self.violation {
            None => event(
                Severity::Info,
                EventKind::TrapExit {
                    verified: true,
                    cache_hit: self.cache_hit,
                    verify_cycles: self.vc,
                    fixed_cycles: self.fixed,
                },
            ),
            Some(violation) => event(
                Severity::Alert,
                EventKind::Kill {
                    site,
                    nr,
                    reason: violation.reason_code(),
                },
            ),
        };
        std::iter::once(event(Severity::Info, EventKind::TrapEnter { site, nr }))
            .chain(checks)
            .chain(std::iter::once(close))
    }
}
