//! Deterministic, seeded fault injection against the ASC verifier.
//!
//! The trust argument of authenticated system calls is that every
//! artifact the kernel's verifier consumes — rewritten instruction
//! bytes, call-MAC slots, authenticated-string blobs, predecessor
//! sets, the `lastBlock ‖ lbMAC` policy-state cell, trapped register
//! values, the in-kernel counter, and (with the warm path enabled)
//! verified-call cache entries — is either authentic or provokes a
//! fail-stop kill *before* the corrupted call dispatches. This crate
//! turns that argument into an executable experiment:
//!
//! * [`inventory`] enumerates the trusted artifacts of an installed
//!   binary by disassembling its rewritten call prologues;
//! * [`campaign`] flips bytes in those artifacts at seeded-random
//!   points of a run and classifies every perturbed execution as
//!   *killed-with-alert*, *benign*, or **silent corruption** (always
//!   a failure), with VM-level crashes tracked separately.
//!
//! * [`crosspid`] scales the experiment to a scheduled multi-process
//!   fleet: perturb exactly one pid (shared-cache poisoning, counter
//!   skew) and demand that no effect crosses a pid boundary.
//!
//! * [`tiers`] replays the campaign under every [`asc_kernel::VerifyTier`]
//!   (plus the `asc-attacks` syscall-reorder attack) into a tier ×
//!   fault-class coverage matrix: the cheap flow tier catches
//!   transition-order attacks but misses in-edge forgeries, and the
//!   combined tier dominates both.
//!
//! * [`latency`] measures how long a monitored fleet takes to *notice*
//!   each fault class: one seeded fault per class against an
//!   `asc-sentinel`-observed fleet, recording armed / effect /
//!   detected clocks and bounding the monitoring lag.
//!
//! Every campaign plans [`asc_audit::AuditFault`]s, runs them through
//! [`asc_audit::run_solo`] or a scheduled fleet of
//! [`asc_audit::ArmedKernel`]s, and classifies the resulting
//! [`asc_audit::SoloRun`]s against a clean one. A trap fault is armed on
//! the handler that wraps the kernel, never on the kernel itself, which
//! holds no fault state. The oracle is not vacuous: the flow-only tier
//! checks no string contents, so the tier matrix must show its corrupted
//! authenticated strings dispatching silently where the MAC tier kills
//! them
//! ([`TierReport::problems`]).

pub mod campaign;
pub mod crosspid;
pub mod inventory;
pub mod latency;
pub mod tiers;

pub use campaign::{classify, run_campaign, CampaignConfig, FaultClass, Outcome, Report, Row};
pub use crosspid::{run_cross_campaign, CrossConfig, CrossFaultClass, CrossReport, CrossRow};
pub use inventory::{scan, Blob, Inventory};
pub use latency::{run_latency_campaign, LatencyConfig, LatencyReport, LatencyRow};
pub use tiers::{run_tier_matrix, TierMatrixConfig, TierReport, TierRow, FLOW_REORDER};

use asc_crypto::MacKey;
use asc_kernel::Personality;

/// The OS personality every campaign builds and boots its guests under.
pub(crate) const PERSONALITY: Personality = Personality::Linux;

/// The fixed campaign key (the simulated security administrator's
/// secret; independent of the benchmark key so campaigns cannot be
/// confused with table regeneration).
pub fn campaign_key() -> MacKey {
    MacKey::from_seed(campaign::CAMPAIGN_KEY_SEED)
}
