//! The 32-bit policy descriptor (§3.2).
//!
//! The descriptor tells the kernel *which* properties of a system call its
//! policy constrains, so that one verification routine can handle every
//! policy variation. Bit layout (documented deviation: the paper does not
//! publish its exact layout, only that the descriptor is a 32-bit integer
//! with per-property bits):
//!
//! | bits | meaning |
//! |---|---|
//! | 0–5   | argument *i* constrained to an immediate value |
//! | 6–11  | argument *i* constrained to a string literal (authenticated string) |
//! | 12–17 | argument *i* constrained to match a pattern (§5.1) |
//! | 18–23 | argument *i* is a tracked capability (file descriptor, §5.3) |
//! | 24    | call site constrained |
//! | 25    | control-flow (predecessor set) constrained |
//! | 26    | return value is a new capability (e.g. `open`) |
//! | 27    | argument 0 revokes a capability (e.g. `close`) |

use crate::policy::MAX_ARGS;

/// The policy descriptor: a compact encoding of which properties the policy
/// constrains. Included in the authenticated call (register `R7`) and bound
/// by the call MAC, so an attacker cannot relax a policy by flipping bits.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct PolicyDescriptor(pub u32);

const IMM_SHIFT: u32 = 0;
const STR_SHIFT: u32 = 6;
const PAT_SHIFT: u32 = 12;
const CAP_SHIFT: u32 = 18;
const CALL_SITE_BIT: u32 = 1 << 24;
const CONTROL_FLOW_BIT: u32 = 1 << 25;
const RETURNS_CAP_BIT: u32 = 1 << 26;
const REVOKES_CAP_BIT: u32 = 1 << 27;

fn arg_bit(shift: u32, i: usize) -> u32 {
    assert!(i < MAX_ARGS, "argument index {i} out of range");
    1 << (shift + i as u32)
}

impl PolicyDescriptor {
    /// The empty descriptor: nothing constrained beyond authentication
    /// itself.
    pub fn new() -> PolicyDescriptor {
        PolicyDescriptor(0)
    }

    /// Raw 32-bit value (what travels in register `R7`).
    pub fn bits(self) -> u32 {
        self.0
    }

    /// Reconstructs from the raw register value.
    pub fn from_bits(bits: u32) -> PolicyDescriptor {
        PolicyDescriptor(bits)
    }

    /// Whether argument `i` is constrained to an immediate.
    pub fn arg_is_immediate(self, i: usize) -> bool {
        self.0 & arg_bit(IMM_SHIFT, i) != 0
    }

    /// Whether argument `i` is constrained to a string literal.
    pub fn arg_is_string(self, i: usize) -> bool {
        self.0 & arg_bit(STR_SHIFT, i) != 0
    }

    /// Whether argument `i` must match a pattern.
    pub fn arg_is_pattern(self, i: usize) -> bool {
        self.0 & arg_bit(PAT_SHIFT, i) != 0
    }

    /// Whether argument `i` is a tracked capability.
    pub fn arg_is_capability(self, i: usize) -> bool {
        self.0 & arg_bit(CAP_SHIFT, i) != 0
    }

    /// Whether the call site is constrained.
    pub fn call_site_constrained(self) -> bool {
        self.0 & CALL_SITE_BIT != 0
    }

    /// Whether the predecessor-set control-flow policy applies.
    pub fn control_flow_constrained(self) -> bool {
        self.0 & CONTROL_FLOW_BIT != 0
    }

    /// Whether the return value becomes a new capability.
    pub fn returns_capability(self) -> bool {
        self.0 & RETURNS_CAP_BIT != 0
    }

    /// Whether argument 0 revokes a capability.
    pub fn revokes_capability(self) -> bool {
        self.0 & REVOKES_CAP_BIT != 0
    }

    /// Sets the immediate bit for argument `i`.
    #[must_use]
    pub fn with_immediate_arg(self, i: usize) -> PolicyDescriptor {
        PolicyDescriptor(self.0 | arg_bit(IMM_SHIFT, i))
    }

    /// Sets the string bit for argument `i`.
    #[must_use]
    pub fn with_string_arg(self, i: usize) -> PolicyDescriptor {
        PolicyDescriptor(self.0 | arg_bit(STR_SHIFT, i))
    }

    /// Sets the pattern bit for argument `i`.
    #[must_use]
    pub fn with_pattern_arg(self, i: usize) -> PolicyDescriptor {
        PolicyDescriptor(self.0 | arg_bit(PAT_SHIFT, i))
    }

    /// Sets the capability bit for argument `i`.
    #[must_use]
    pub fn with_capability_arg(self, i: usize) -> PolicyDescriptor {
        PolicyDescriptor(self.0 | arg_bit(CAP_SHIFT, i))
    }

    /// Sets the call-site bit.
    #[must_use]
    pub fn with_call_site(self) -> PolicyDescriptor {
        PolicyDescriptor(self.0 | CALL_SITE_BIT)
    }

    /// Sets the control-flow bit.
    #[must_use]
    pub fn with_control_flow(self) -> PolicyDescriptor {
        PolicyDescriptor(self.0 | CONTROL_FLOW_BIT)
    }

    /// Sets the returns-capability bit.
    #[must_use]
    pub fn with_returns_capability(self) -> PolicyDescriptor {
        PolicyDescriptor(self.0 | RETURNS_CAP_BIT)
    }

    /// Sets the revokes-capability bit.
    #[must_use]
    pub fn with_revokes_capability(self) -> PolicyDescriptor {
        PolicyDescriptor(self.0 | REVOKES_CAP_BIT)
    }

    /// Checks internal consistency: each argument may carry at most one
    /// constraint kind.
    pub fn validate(self) -> Result<(), String> {
        for i in 0..MAX_ARGS {
            let kinds = [
                self.arg_is_immediate(i),
                self.arg_is_string(i),
                self.arg_is_pattern(i),
                self.arg_is_capability(i),
            ]
            .iter()
            .filter(|&&b| b)
            .count();
            if kinds > 1 {
                return Err(format!(
                    "argument {i} has {kinds} conflicting constraint kinds"
                ));
            }
        }
        Ok(())
    }
}

impl std::fmt::Display for PolicyDescriptor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:#010x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_bits() {
        let d = PolicyDescriptor::new()
            .with_call_site()
            .with_control_flow()
            .with_immediate_arg(1)
            .with_string_arg(0)
            .with_pattern_arg(2)
            .with_capability_arg(3)
            .with_returns_capability();
        let d2 = PolicyDescriptor::from_bits(d.bits());
        assert!(d2.call_site_constrained());
        assert!(d2.control_flow_constrained());
        assert!(d2.arg_is_immediate(1));
        assert!(!d2.arg_is_immediate(0));
        assert!(d2.arg_is_string(0));
        assert!(d2.arg_is_pattern(2));
        assert!(d2.arg_is_capability(3));
        assert!(d2.returns_capability());
        assert!(!d2.revokes_capability());
        assert!(d2.validate().is_ok());
    }

    #[test]
    fn conflicting_kinds_rejected() {
        let d = PolicyDescriptor::new()
            .with_immediate_arg(0)
            .with_string_arg(0);
        assert!(d.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn arg_index_bounds() {
        let _ = PolicyDescriptor::new().with_immediate_arg(6);
    }

    #[test]
    fn empty_descriptor() {
        let d = PolicyDescriptor::new();
        assert_eq!(d.bits(), 0);
        assert!(!d.call_site_constrained());
        assert!(d.validate().is_ok());
        assert_eq!(d.to_string(), "0x00000000");
    }
}
