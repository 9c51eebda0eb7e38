//! The encoded policy / encoded call byte string (§3.3, §3.4).
//!
//! The installer builds this encoding from the *policy* (the "encoded
//! policy") and MACs it; the kernel rebuilds it from the *runtime state of
//! the call* (the "encoded call") and compares MACs. The two agree exactly
//! when the call complies with its policy, so a single construction serves
//! both sides — which is the property that lets the kernel stay tiny.
//!
//! Layout (concatenation, little-endian):
//!
//! ```text
//! syscall_nr     u16
//! descriptor     u32
//! call_site      u32
//! block_id       u32
//! per constrained argument, ascending index:
//!   Immediate    -> value   u32
//!   AuthString   -> addr u32 ‖ len u32 ‖ stringMAC 16 bytes
//!   Pattern      -> addr u32 ‖ len u32 ‖ patternMAC 16 bytes
//!   Capability   -> (nothing: the value is dynamic; the descriptor bit,
//!                    which *is* covered, forces the kernel-side check)
//! pred_set tuple (if control flow constrained):
//!                   addr u32 ‖ len u32 ‖ psMAC 16 bytes
//! lb_ptr         u32 (if control flow constrained)
//! ```
//!
//! Note the paper's subtlety, preserved here: for an authenticated string
//! the tuple `{address, length, stringMAC}` is covered by the call MAC, so
//! the attacker can neither retarget the pointer at a different AS nor
//! tamper with the length/MAC fields that precede the contents in memory.

use std::ops::Deref;

use asc_crypto::{Mac, MacKey, MAC_LEN};

use crate::descriptor::PolicyDescriptor;
use crate::policy::MAX_ARGS;

/// Bytes of one `addr ‖ len ‖ mac` tuple.
const TUPLE_LEN: usize = 4 + 4 + MAC_LEN;

/// Longest encoding: the 14-byte header, six string or pattern tuples, the
/// predecessor-set tuple and `lb_ptr` (186 bytes).
pub const MAX_ENCODING_LEN: usize = 14 + MAX_ARGS * TUPLE_LEN + TUPLE_LEN + 4;

/// How one constrained argument appears in the encoding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EncodedArg {
    /// A constant value.
    Immediate(u32),
    /// The `{addr, len, mac}` tuple of an authenticated string literal.
    AuthString {
        /// Address of the string contents.
        addr: u32,
        /// Length of the contents.
        len: u32,
        /// MAC over the contents.
        mac: Mac,
    },
    /// The `{addr, len, mac}` tuple of an authenticated *pattern* (§5.1).
    Pattern {
        /// Address of the pattern text.
        addr: u32,
        /// Length of the pattern text.
        len: u32,
        /// MAC over the pattern text.
        mac: Mac,
    },
    /// A tracked capability: contributes no bytes.
    Capability,
}

/// Everything that goes into the encoded policy / encoded call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EncodedCall {
    /// System call number.
    pub syscall_nr: u16,
    /// The policy descriptor.
    pub descriptor: PolicyDescriptor,
    /// Call-site address.
    pub call_site: u32,
    /// Basic block id of the call.
    pub block_id: u32,
    /// Constrained arguments by position: `args[i]` is argument `i`, `None`
    /// when it is unconstrained.
    pub args: [Option<EncodedArg>; MAX_ARGS],
    /// Predecessor-set AS tuple, present iff control flow is constrained.
    pub pred_set: Option<(u32, u32, Mac)>,
    /// Address of the policy-state cell, present iff control flow is
    /// constrained.
    pub lb_ptr: Option<u32>,
}

/// The canonical byte string of one [`EncodedCall`], built in place: at
/// most [`MAX_ENCODING_LEN`] bytes, so it needs no heap. Bytes past `len`
/// stay zero, so the derived comparison compares encodings.
#[derive(Debug, PartialEq, Eq)]
pub struct Encoding {
    bytes: [u8; MAX_ENCODING_LEN],
    len: usize,
}

impl Encoding {
    fn push(&mut self, data: &[u8]) {
        self.bytes[self.len..self.len + data.len()].copy_from_slice(data);
        self.len += data.len();
    }

    fn push_tuple(&mut self, addr: u32, len: u32, mac: &Mac) {
        self.push(&addr.to_le_bytes());
        self.push(&len.to_le_bytes());
        self.push(mac);
    }
}

impl Deref for Encoding {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.bytes[..self.len]
    }
}

/// Serialises an [`EncodedCall`] to the canonical byte string.
pub fn encode_call(call: &EncodedCall) -> Encoding {
    let mut out = Encoding {
        bytes: [0; MAX_ENCODING_LEN],
        len: 0,
    };
    out.push(&call.syscall_nr.to_le_bytes());
    out.push(&call.descriptor.bits().to_le_bytes());
    out.push(&call.call_site.to_le_bytes());
    out.push(&call.block_id.to_le_bytes());
    for arg in call.args.iter().flatten() {
        match arg {
            EncodedArg::Immediate(v) => out.push(&v.to_le_bytes()),
            EncodedArg::AuthString { addr, len, mac } | EncodedArg::Pattern { addr, len, mac } => {
                out.push_tuple(*addr, *len, mac);
            }
            EncodedArg::Capability => {}
        }
    }
    if let Some((addr, len, mac)) = &call.pred_set {
        out.push_tuple(*addr, *len, mac);
    }
    if let Some(lb_ptr) = call.lb_ptr {
        out.push(&lb_ptr.to_le_bytes());
    }
    out
}

impl EncodedCall {
    /// Computes the call MAC over the canonical encoding.
    pub fn mac(&self, key: &MacKey) -> Mac {
        key.mac(&encode_call(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EncodedCall {
        EncodedCall {
            syscall_nr: 0x5c,
            descriptor: PolicyDescriptor::from_bits(0x0300_0002),
            call_site: 0x806c57b,
            block_id: 1234,
            args: [
                None,
                Some(EncodedArg::Immediate(2)),
                Some(EncodedArg::AuthString {
                    addr: 0x81adcde,
                    len: 0x12,
                    mac: [0xAB; 16],
                }),
                None,
                None,
                None,
            ],
            pred_set: Some((0x81ae000, 12, [0xCD; 16])),
            lb_ptr: Some(0x810c4ab),
        }
    }

    #[test]
    fn deterministic_and_structured() {
        let c = sample();
        let bytes = encode_call(&c);
        assert_eq!(encode_call(&c), bytes);
        // nr(2) + des(4) + site(4) + block(4) + imm(4) + as(24) + ps(24) +
        // lb(4), as the heap-built encoder this one replaced produced them:
        // every installed call MAC depends on these bytes.
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            "5c00020000037bc50608d204000002000000dedc1a0812000000\
             abababababababababababababababab00e01a080c000000\
             cdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdabc41008"
        );
    }

    #[test]
    fn maximal_call_fills_the_buffer_exactly() {
        // Six string or pattern tuples, the predecessor set and `lb_ptr`.
        let mut c = sample();
        let (addr, len, mac) = (0x9000, 7, [0xEE; 16]);
        c.args = [Some(EncodedArg::Pattern { addr, len, mac }); MAX_ARGS];
        c.args[1] = Some(EncodedArg::AuthString { addr, len, mac });
        let bytes = encode_call(&c);
        assert_eq!((bytes.len(), MAX_ENCODING_LEN), (186, 186));
        assert_eq!(&bytes[182..], &0x810c4abu32.to_le_bytes());
    }

    #[test]
    fn every_field_affects_the_mac() {
        let key = MacKey::from_seed(3);
        let base = sample().mac(&key);
        let variants: Vec<EncodedCall> = vec![
            {
                let mut c = sample();
                c.syscall_nr = 0x5d;
                c
            },
            {
                let mut c = sample();
                c.call_site += 8;
                c
            },
            {
                let mut c = sample();
                c.block_id += 1;
                c
            },
            {
                let mut c = sample();
                c.descriptor = PolicyDescriptor::from_bits(0);
                c
            },
            {
                let mut c = sample();
                c.args[1] = Some(EncodedArg::Immediate(3));
                c
            },
            {
                let mut c = sample();
                c.args[2] = Some(EncodedArg::AuthString {
                    addr: 0x9000000,
                    len: 0x12,
                    mac: [0xAB; 16],
                });
                c
            },
            {
                let mut c = sample();
                c.pred_set = Some((0x81ae000, 12, [0xCE; 16]));
                c
            },
            {
                let mut c = sample();
                c.lb_ptr = Some(0x810c4ac);
                c
            },
            {
                let mut c = sample();
                c.pred_set = None;
                c.lb_ptr = None;
                c
            },
        ];
        for (i, v) in variants.iter().enumerate() {
            assert_ne!(v.mac(&key), base, "variant {i} should change the MAC");
        }
    }

    #[test]
    fn capability_args_add_no_bytes() {
        let mut c = sample();
        let before = encode_call(&c).len();
        c.args[3] = Some(EncodedArg::Capability);
        assert_eq!(encode_call(&c).len(), before);
        // ... but the descriptor bit for them WOULD change the MAC.
    }

    #[test]
    fn mac_depends_on_key() {
        let c = sample();
        assert_ne!(c.mac(&MacKey::from_seed(1)), c.mac(&MacKey::from_seed(2)));
    }
}
