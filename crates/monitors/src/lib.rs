//! Baseline system call monitors for comparison with authenticated system
//! calls.
//!
//! * [`SystracePolicy`] + [`train`] — a Systrace-style policy produced by
//!   *training* (observing sample runs), with the `fsread`/`fswrite`
//!   wildcard aliases the published Project Hairy Eyeball policies use.
//!   Training by nature misses cold paths, which is what Tables 1–2
//!   measure against the installer's static-analysis policies.
//! * [`UserSpaceMonitor`] — enforcement through a user-space policy
//!   daemon: every syscall costs an extra pair of context switches
//!   (the §2.3 cost argument, quantified by the ablation bench).
//! * [`InKernelMonitor`] — enforcement through an in-kernel policy table:
//!   cheaper per call, but the kernel must store policies and map each
//!   call to the right one (the complexity ASC avoids).
//!
//! # Example
//!
//! ```
//! use asc_monitors::{train, SystracePolicy};
//!
//! let policy = train("demo", [vec!["open".to_string(), "read".to_string()]]);
//! assert!(policy.permits("read"));
//! assert!(!policy.permits("execve"));
//! // the fsread/fswrite aliases cover untrained path-based calls:
//! assert!(policy.permits("readlink"));
//! assert!(policy.permits("unlink"));
//! ```

use std::collections::BTreeSet;

use asc_isa::Reg;
use asc_kernel::{Kernel, Personality};
use asc_vm::{SyscallHandler, TrapContext, TrapOutcome};

/// Wildcard aliases used by Systrace policies.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Alias {
    /// Read-related filesystem calls.
    FsRead,
    /// Write-related filesystem calls.
    FsWrite,
}

impl Alias {
    /// Name as printed in policies.
    pub fn name(self) -> &'static str {
        match self {
            Alias::FsRead => "fsread",
            Alias::FsWrite => "fswrite",
        }
    }
}

/// Calls covered by `fsread`: path-based read-side filesystem calls (the
/// wildcard matches filename arguments, so fd-based calls like `read` and
/// `readv` still need their own entries).
pub const FSREAD_FAMILY: &[&str] = &["stat", "lstat", "access", "readlink", "statfs"];

/// Calls covered by `fswrite`: path-based write-side filesystem calls.
pub const FSWRITE_FAMILY: &[&str] = &[
    "creat", "mkdir", "rmdir", "unlink", "rename", "truncate", "chmod", "utime", "link", "symlink",
    "mknod", "lchown",
];

/// A Systrace-style policy: explicitly permitted syscalls plus aliases.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SystracePolicy {
    /// Program name.
    pub program: String,
    /// Explicitly permitted syscall names (as observed in training).
    pub entries: BTreeSet<String>,
    /// Wildcard aliases added by the conventional hand edit.
    pub aliases: BTreeSet<Alias>,
}

impl SystracePolicy {
    /// Whether the policy permits `name`.
    pub fn permits(&self, name: &str) -> bool {
        if self.entries.contains(name) {
            return true;
        }
        (self.aliases.contains(&Alias::FsRead) && FSREAD_FAMILY.contains(&name))
            || (self.aliases.contains(&Alias::FsWrite) && FSWRITE_FAMILY.contains(&name))
    }

    /// Number of policy entries — what Table 1 counts for Systrace
    /// policies (observed syscalls plus alias lines).
    pub fn entry_count(&self) -> usize {
        self.entries.len() + self.aliases.len()
    }

    /// The full set of syscall names the policy effectively permits
    /// (aliases expanded) — used for the Table 2 per-call comparison.
    pub fn permitted(&self) -> BTreeSet<String> {
        let mut out = self.entries.clone();
        if self.aliases.contains(&Alias::FsRead) {
            out.extend(FSREAD_FAMILY.iter().map(|s| s.to_string()));
        }
        if self.aliases.contains(&Alias::FsWrite) {
            out.extend(FSWRITE_FAMILY.iter().map(|s| s.to_string()));
        }
        out
    }

    /// Why a permitted-but-untrained call is allowed ("fsread"/"fswrite"),
    /// for table annotations.
    pub fn permit_reason(&self, name: &str) -> Option<&'static str> {
        if self.entries.contains(name) {
            return Some("trained");
        }
        if self.aliases.contains(&Alias::FsRead) && FSREAD_FAMILY.contains(&name) {
            return Some("fsread");
        }
        if self.aliases.contains(&Alias::FsWrite) && FSWRITE_FAMILY.contains(&name) {
            return Some("fswrite");
        }
        None
    }
}

/// Produces a Systrace-style policy from training runs: the union of
/// observed syscall names, plus the conventional `fsread`/`fswrite`
/// aliases when any member of the family was observed (the hand edit the
/// published policies apply).
pub fn train<I, T>(program: &str, runs: I) -> SystracePolicy
where
    I: IntoIterator<Item = T>,
    T: IntoIterator<Item = String>,
{
    let mut entries = BTreeSet::new();
    for run in runs {
        entries.extend(run);
    }
    let mut aliases = BTreeSet::new();
    if entries
        .iter()
        .any(|e| FSREAD_FAMILY.contains(&e.as_str()) || e == "open")
    {
        aliases.insert(Alias::FsRead);
    }
    // Hand-editors add fswrite for any program observed creating or
    // writing files — including creation through open(O_CREAT).
    if entries
        .iter()
        .any(|e| FSWRITE_FAMILY.contains(&e.as_str()) || e == "open" || e == "creat")
    {
        aliases.insert(Alias::FsWrite);
    }
    SystracePolicy {
        program: program.to_string(),
        entries,
        aliases,
    }
}

/// Extracts the observed syscall-name sequence from a kernel's trace.
pub fn trace_names(kernel: &Kernel) -> Vec<String> {
    kernel
        .trace()
        .iter()
        .map(|t| asc_kernel::spec(t.id).name.to_string())
        .collect()
}

/// Which baseline enforcement architecture a [`MonitoredKernel`] models.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MonitorKind {
    /// User-space policy daemon: pays context switches per call.
    UserSpace,
    /// In-kernel policy table: pays a table lookup per call.
    InKernel,
}

/// A kernel wrapped with a Systrace-style monitor: checks the policy
/// before delegating, charging the architecture's per-call cost.
pub struct MonitoredKernel {
    kernel: Kernel,
    policy: SystracePolicy,
    kind: MonitorKind,
    personality: Personality,
    violations: Vec<String>,
    monitor_cycles: u64,
}

/// User-space monitor constructor.
pub struct UserSpaceMonitor;

impl UserSpaceMonitor {
    /// Wraps `kernel` with a user-space daemon monitor.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(kernel: Kernel, policy: SystracePolicy) -> MonitoredKernel {
        MonitoredKernel::new(kernel, policy, MonitorKind::UserSpace)
    }
}

/// In-kernel monitor constructor.
pub struct InKernelMonitor;

impl InKernelMonitor {
    /// Wraps `kernel` with an in-kernel table monitor.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(kernel: Kernel, policy: SystracePolicy) -> MonitoredKernel {
        MonitoredKernel::new(kernel, policy, MonitorKind::InKernel)
    }
}

impl MonitoredKernel {
    fn new(kernel: Kernel, policy: SystracePolicy, kind: MonitorKind) -> MonitoredKernel {
        let personality = kernel.personality();
        MonitoredKernel {
            kernel,
            policy,
            kind,
            personality,
            violations: Vec::new(),
            monitor_cycles: 0,
        }
    }

    /// The wrapped kernel.
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// Recorded policy violations.
    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    /// Cycles attributable to the monitor itself.
    pub fn monitor_cycles(&self) -> u64 {
        self.monitor_cycles
    }
}

impl MonitoredKernel {
    /// Overrides the personality used for syscall-name lookups.
    pub fn set_personality(&mut self, personality: Personality) {
        self.personality = personality;
    }
}

impl SyscallHandler for MonitoredKernel {
    fn syscall(&mut self, ctx: &mut TrapContext<'_>) -> TrapOutcome {
        let cost = match self.kind {
            MonitorKind::UserSpace => asc_kernel::CostModel::default().context_switch,
            MonitorKind::InKernel => asc_kernel::CostModel::default().table_lookup,
        };
        ctx.charge(cost);
        self.monitor_cycles += cost;
        let nr = ctx.reg(Reg::R0) as u16;
        // Resolve __syscall indirection the way Systrace sees it.
        let name = match self.personality.id(nr) {
            Some(asc_kernel::SyscallId::IndirectSyscall) => {
                self.personality.name_of(ctx.reg(Reg::R1) as u16)
            }
            Some(id) => asc_kernel::spec(id).name,
            None => "unknown",
        };
        if !self.policy.permits(name) {
            let msg = format!("systrace: `{name}` denied for {}", self.policy.program);
            self.violations.push(msg.clone());
            return TrapOutcome::Kill(msg);
        }
        self.kernel.syscall(ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn training_produces_aliases() {
        let policy = train(
            "p",
            [vec![
                "read".to_string(),
                "open".to_string(),
                "write".to_string(),
            ]],
        );
        assert_eq!(policy.entries.len(), 3);
        // "open" alone justifies both aliases (creation + reading).
        assert_eq!(policy.aliases.len(), 2);
        assert_eq!(policy.entry_count(), 5);
        assert!(policy.permits("open"));
        // Alias over-permission: never-trained family members allowed.
        assert!(policy.permits("unlink"));
        assert!(policy.permits("readlink"));
        assert_eq!(policy.permit_reason("unlink"), Some("fswrite"));
        assert_eq!(policy.permit_reason("readlink"), Some("fsread"));
        assert_eq!(policy.permit_reason("open"), Some("trained"));
        // Non-family calls stay denied.
        assert!(!policy.permits("socket"));
        assert_eq!(policy.permit_reason("socket"), None);
    }

    #[test]
    fn training_without_fs_ops_has_no_aliases() {
        let policy = train("p", [vec!["getpid".to_string()]]);
        assert!(policy.aliases.is_empty());
        assert!(!policy.permits("read"));
    }

    #[test]
    fn multiple_runs_union() {
        let policy = train(
            "p",
            [vec!["getpid".to_string()], vec!["gettimeofday".to_string()]],
        );
        assert!(policy.permits("getpid"));
        assert!(policy.permits("gettimeofday"));
        assert_eq!(policy.entry_count(), 2);
    }

    #[test]
    fn permitted_expansion() {
        let policy = train("p", [vec!["stat".to_string()]]);
        let permitted = policy.permitted();
        assert!(
            permitted.contains("access"),
            "fsread expands path-based reads"
        );
        assert!(
            !permitted.contains("mkdir"),
            "no write observed -> no fswrite"
        );
        // fd-based calls are never covered by aliases.
        assert!(!permitted.contains("read"));
        assert!(!permitted.contains("writev"));
    }
}
