//! The installation key shared by the trusted installer and the kernel.

use crate::cmac::{Cmac, Mac};

/// The 128-bit key used for every MAC in the system.
///
/// The paper's threat model assumes this key is provided to the installer by
/// the security administrator and is otherwise accessible only to the kernel;
/// applications never see it. In the simulator, holding a `MacKey` *is* the
/// privilege: code paths modelling the untrusted application are written so
/// they never receive one.
#[derive(Clone)]
pub struct MacKey {
    cmac: Cmac,
}

impl std::fmt::Debug for MacKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("MacKey(<redacted>)")
    }
}

impl MacKey {
    /// Creates a key from raw bytes.
    pub fn new(key: [u8; 16]) -> Self {
        MacKey {
            cmac: Cmac::new(&key),
        }
    }

    /// Derives a key deterministically from a seed, for tests and examples.
    pub fn from_seed(seed: u64) -> Self {
        let mut key = [0u8; 16];
        key[..8].copy_from_slice(&seed.to_le_bytes());
        key[8..].copy_from_slice(&seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).to_le_bytes());
        MacKey::new(key)
    }

    /// Computes the CMAC of `msg` under this key.
    pub fn mac(&self, msg: &[u8]) -> Mac {
        self.cmac.mac(msg)
    }

    /// Verifies `tag` over `msg`.
    pub fn verify(&self, msg: &[u8], tag: &Mac) -> bool {
        self.cmac.verify(msg, tag)
    }

    /// AES block operations performed through this key so far. The kernel
    /// snapshots this around a verification to charge cycles for the
    /// cryptographic work actually done. See [`crate::Aes128::block_ops`].
    pub fn block_ops(&self) -> u64 {
        self.cmac.block_ops()
    }

    /// A second handle to the same installation key, reusing the expanded
    /// AES schedule and CMAC subkeys and metering into the shared
    /// `block_ops` counter.
    ///
    /// A fleet installs one key into every kernel; handing each kernel a
    /// shared-schedule handle instead of re-deriving from seed saves one
    /// subkey-derivation block operation (plus a key expansion) per spawn
    /// — measurable by comparing [`MacKey::block_ops`] of a fresh key
    /// (1 at rest) against a handle (0 new operations) — and gives the
    /// harness one fleet-wide AES meter.
    pub fn shared_schedule(&self) -> MacKey {
        MacKey {
            cmac: self.cmac.shared_schedule(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_is_deterministic() {
        let a = MacKey::from_seed(42).mac(b"x");
        let b = MacKey::from_seed(42).mac(b"x");
        let c = MacKey::from_seed(43).mac(b"x");
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn debug_redacts() {
        assert_eq!(format!("{:?}", MacKey::from_seed(1)), "MacKey(<redacted>)");
    }

    #[test]
    fn cmac_debug_redacts_its_subkeys() {
        // RFC 4493's key, whose K1 and K2 the RFC lists.
        let cmac = Cmac::new(&0x2b7e_1516_28ae_d2a6_abf7_1588_09cf_4f3c_u128.to_be_bytes());
        let text = format!("{cmac:?}");
        let k1: [u32; 4] = [0xfbee_d618, 0x3571_3366, 0x7c85_e08f, 0x7236_a8de];
        let k2: [u32; 4] = [0xf7dd_ac30, 0x6ae2_66cc, 0xf90b_c11e, 0xe46d_513b];
        for word in k1.into_iter().chain(k2) {
            for form in [word.to_string(), format!("{word:x}")] {
                assert!(!text.contains(&form), "subkey word {form} in {text}");
            }
        }
        assert!(text.contains("<redacted>"), "{text}");
    }

    #[test]
    fn shared_schedule_skips_derivation_and_shares_meter() {
        let master = MacKey::from_seed(42);
        assert_eq!(master.block_ops(), 1, "fresh key burns one derivation op");
        let handle = master.shared_schedule();
        assert_eq!(
            master.block_ops(),
            1,
            "handle construction performs no AES work"
        );
        let tag = handle.mac(b"fleet");
        assert_eq!(
            tag,
            MacKey::from_seed(42).mac(b"fleet"),
            "same key material"
        );
        assert_eq!(
            master.block_ops(),
            handle.block_ops(),
            "handles meter into one fleet-wide counter"
        );
        assert!(master.block_ops() > 1);
    }
}
