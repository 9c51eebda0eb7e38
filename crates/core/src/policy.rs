//! Logical system call policies (§2.1, §3.1).

use std::collections::{BTreeMap, BTreeSet};

use crate::descriptor::PolicyDescriptor;

/// Maximum number of system call arguments a policy can constrain
/// (registers `R1..=R6`).
pub const MAX_ARGS: usize = 6;

/// The constraint a policy places on one argument.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ArgPolicy {
    /// Unconstrained: any value is allowed.
    Any,
    /// Must equal this constant (a number, flag, or known file descriptor).
    Immediate(u32),
    /// Must equal this constant, which is an *address* into the binary
    /// (e.g. a pointer to a non-string object). The installer remaps it
    /// when rewriting moves sections; the kernel treats it exactly like
    /// [`ArgPolicy::Immediate`].
    ImmediateAddr(u32),
    /// Must be a pointer to exactly this string literal, protected at
    /// runtime by an authenticated string.
    StringLit(Vec<u8>),
    /// Must be a string matching this pattern (§5.1), e.g. `/tmp/*`.
    /// The pattern itself is protected by an authenticated string; the
    /// application supplies a proof hint that the kernel verifies linearly.
    Pattern(String),
    /// Must be a file descriptor previously returned by a syscall and not
    /// yet closed (§5.3 capability tracking).
    Capability,
}

impl ArgPolicy {
    /// Whether this argument contributes to the policy descriptor.
    pub fn is_constrained(&self) -> bool {
        !matches!(self, ArgPolicy::Any)
    }
}

/// The policy of one system call site — the unit the installer derives and
/// the kernel enforces.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SyscallPolicy {
    /// System call number (the value of `R0` at the trap).
    pub syscall_nr: u16,
    /// Address of the `syscall` instruction.
    pub call_site: u32,
    /// Basic block id containing the call. With the Frankenstein
    /// countermeasure enabled this includes the program id in the high bits.
    pub block_id: u32,
    /// Per-argument constraints.
    pub args: Vec<ArgPolicy>,
    /// Basic blocks whose system calls may immediately precede this one
    /// (`None` = control flow unconstrained). Block id 0 denotes program
    /// start.
    pub predecessors: Option<BTreeSet<u32>>,
    /// Whether the return value is a new capability (`open`, `socket`...).
    pub returns_capability: bool,
    /// Whether argument 0 revokes a capability (`close`).
    pub revokes_capability: bool,
}

impl SyscallPolicy {
    /// A policy constraining only number, call site and block id.
    pub fn new(syscall_nr: u16, call_site: u32, block_id: u32) -> SyscallPolicy {
        SyscallPolicy {
            syscall_nr,
            call_site,
            block_id,
            args: vec![ArgPolicy::Any; MAX_ARGS],
            predecessors: None,
            returns_capability: false,
            revokes_capability: false,
        }
    }

    /// Sets the constraint for argument `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= MAX_ARGS`.
    #[must_use]
    pub fn with_arg(mut self, i: usize, policy: ArgPolicy) -> SyscallPolicy {
        assert!(i < MAX_ARGS, "argument index {i} out of range");
        self.args[i] = policy;
        self
    }

    /// Sets the predecessor set.
    #[must_use]
    pub fn with_predecessors(mut self, preds: impl IntoIterator<Item = u32>) -> SyscallPolicy {
        self.predecessors = Some(preds.into_iter().collect());
        self
    }

    /// Marks the return value as a new capability.
    #[must_use]
    pub fn with_returns_capability(mut self) -> SyscallPolicy {
        self.returns_capability = true;
        self
    }

    /// Marks argument 0 as revoking a capability.
    #[must_use]
    pub fn with_revokes_capability(mut self) -> SyscallPolicy {
        self.revokes_capability = true;
        self
    }

    /// Derives the policy descriptor for this policy. The call site is
    /// always constrained in this prototype (mirroring §4.2: "the system
    /// call site and call number are always protected by the MAC").
    pub fn descriptor(&self) -> PolicyDescriptor {
        let mut d = PolicyDescriptor::new().with_call_site();
        for (i, arg) in self.args.iter().enumerate() {
            d = match arg {
                ArgPolicy::Any => d,
                ArgPolicy::Immediate(_) | ArgPolicy::ImmediateAddr(_) => d.with_immediate_arg(i),
                ArgPolicy::StringLit(_) => d.with_string_arg(i),
                ArgPolicy::Pattern(_) => d.with_pattern_arg(i),
                ArgPolicy::Capability => d.with_capability_arg(i),
            };
        }
        if self.predecessors.is_some() {
            d = d.with_control_flow();
        }
        if self.returns_capability {
            d = d.with_returns_capability();
        }
        if self.revokes_capability {
            d = d.with_revokes_capability();
        }
        d
    }
}

/// The overall policy of a program: one [`SyscallPolicy`] per call site,
/// plus program-level metadata. This is what the installer's *policy
/// generation* phase produces and what the Table 1–3 experiments inspect.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProgramPolicy {
    /// Program name (for reports).
    pub program: String,
    /// OS personality the policy was generated for ("linux" / "openbsd").
    pub personality: String,
    /// Policies keyed by call site address.
    pub policies: BTreeMap<u32, SyscallPolicy>,
    /// Call sites the analysis could not disassemble (reported to the
    /// administrator, like PLTO's warning for OpenBSD `close`).
    pub undisassembled_regions: usize,
    /// Names of syscalls the analysis knows exist in unreachable/
    /// undisassembled code, for diagnostics.
    pub warnings: Vec<String>,
}

impl ProgramPolicy {
    /// A fresh, empty program policy.
    pub fn new(program: impl Into<String>, personality: impl Into<String>) -> ProgramPolicy {
        ProgramPolicy {
            program: program.into(),
            personality: personality.into(),
            ..ProgramPolicy::default()
        }
    }

    /// Adds a per-site policy.
    pub fn insert(&mut self, policy: SyscallPolicy) {
        self.policies.insert(policy.call_site, policy);
    }

    /// The set of distinct syscall numbers the policy permits — the number
    /// Table 1 counts.
    pub fn distinct_syscalls(&self) -> BTreeSet<u16> {
        self.policies.values().map(|p| p.syscall_nr).collect()
    }

    /// Number of call sites (Table 3's `sites` column).
    pub fn sites(&self) -> usize {
        self.policies.len()
    }

    /// Iterates over policies in call-site order.
    pub fn iter(&self) -> impl Iterator<Item = &SyscallPolicy> {
        self.policies.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn descriptor_derivation() {
        let p = SyscallPolicy::new(5, 0x1000, 3)
            .with_arg(0, ArgPolicy::StringLit(b"/etc/motd".to_vec()))
            .with_arg(1, ArgPolicy::Immediate(0))
            .with_arg(2, ArgPolicy::Pattern("/tmp/*".into()))
            .with_predecessors([1u32, 2])
            .with_returns_capability();
        let d = p.descriptor();
        assert!(d.call_site_constrained());
        assert!(d.arg_is_string(0));
        assert!(d.arg_is_immediate(1));
        assert!(d.arg_is_pattern(2));
        assert!(d.control_flow_constrained());
        assert!(d.returns_capability());
        assert!(d.validate().is_ok());
    }

    #[test]
    fn predecessors_are_sorted_and_deduplicated() {
        let p = SyscallPolicy::new(1, 0, 9).with_predecessors([3u32, 1, 2, 3]);
        let preds: Vec<u32> = p.predecessors.expect("set").into_iter().collect();
        assert_eq!(preds, [1, 2, 3]);
    }

    #[test]
    fn empty_predecessors_vs_none() {
        let none = SyscallPolicy::new(1, 0, 9);
        assert!(none.predecessors.is_none());
        assert!(!none.descriptor().control_flow_constrained());
        let empty = SyscallPolicy::new(1, 0, 9).with_predecessors(std::iter::empty::<u32>());
        assert!(empty.descriptor().control_flow_constrained());
    }

    #[test]
    fn program_policy_counts() {
        let mut pp = ProgramPolicy::new("bison", "linux");
        pp.insert(SyscallPolicy::new(4, 0x1000, 1));
        pp.insert(SyscallPolicy::new(4, 0x1100, 2));
        pp.insert(SyscallPolicy::new(5, 0x1200, 3));
        assert_eq!(pp.sites(), 3);
        assert_eq!(pp.distinct_syscalls().len(), 2);
    }

    #[test]
    fn json_roundtrip() {
        let p = SyscallPolicy::new(5, 0x1000, 3)
            .with_arg(0, ArgPolicy::StringLit(b"/x".to_vec()))
            .with_predecessors([1u32]);
        let json = p.to_json();
        let back = SyscallPolicy::from_json(&json).unwrap();
        assert_eq!(back, p);
    }
}
