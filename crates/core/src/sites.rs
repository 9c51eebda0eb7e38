//! The authenticated rewritten-site set behind syscall-origin privilege.
//!
//! The per-call MAC authenticates every call the installer *rewrote* —
//! but it says nothing about a trap the installer never saw. An attacker
//! who jumps to a raw `SYSCALL` gadget (a stray opcode in data, an
//! un-disassemblable stub, injected code on a pre-NX stack) traps from a
//! pc with no policy at all, and the verifier's only leverage is that
//! the attacker cannot *forge* one. Origin privilege closes the gap from
//! the other side: the installer records the exact set of pcs it
//! rewrote, and the kernel fail-stops any trap whose pc is outside the
//! set — *before* attempting MAC verification, under every tier.
//! `SYSCALL` becomes a privilege of rewritten sites, not a right of
//! arbitrary code.
//!
//! The registry is the `u32` instance of [`SortedSet`]. Its sealed form
//! (a sorted pc list with a trailing CMAC keyed by the administrator key
//! — exactly the `.ascflow` scheme) is embedded in the installed
//! artifact's `.ascsites` section, so a tampered or widened registry is
//! rejected at load time. The attacker cannot register a gadget: doing so
//! requires producing a fresh MAC over the extended list, which requires
//! the key.

use asc_crypto::SortedSet;

/// The rewritten-site registry: the set of pcs of `SYSCALL` instructions
/// the installer authenticated. A trap from any other pc is a kill.
pub type SiteRegistry = SortedSet<u32>;

#[cfg(test)]
mod tests {
    use super::*;
    use asc_crypto::MacKey;

    #[test]
    fn parse_sorts_and_deduplicates_an_authentic_list() {
        // Bytes `seal` never writes, under a valid MAC: unsorted, with a
        // duplicate.
        let key = MacKey::from_seed(0x517E);
        let mut bytes = 3u32.to_le_bytes().to_vec();
        for pc in [0x30u32, 0x10, 0x30] {
            bytes.extend_from_slice(&pc.to_le_bytes());
        }
        let mac = key.mac(&bytes);
        bytes.extend_from_slice(&mac);
        let r = SiteRegistry::open(&bytes, &key).expect("authentic");
        assert_eq!(r.iter().collect::<Vec<_>>(), vec![0x10, 0x30]);
        assert_eq!(r, [0x10, 0x30].into_iter().collect());
        assert!(r.contains(0x30) && !r.contains(0x20));
    }
}
