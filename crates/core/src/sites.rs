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
//! The serialized set is embedded in the installed artifact's
//! `.ascsites` section as a sorted pc list with a trailing CMAC keyed by
//! the administrator key — exactly the `.ascflow` scheme — so a tampered
//! or widened registry is rejected at load time. The attacker cannot
//! register a gadget: doing so requires producing a fresh MAC over the
//! extended list, which requires the key.

use asc_crypto::{MacKey, MAC_LEN};

/// Why serialized site-registry bytes were rejected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SitesParseError {
    /// The byte string was shorter than its header + pcs + MAC claim.
    Truncated,
    /// The trailing MAC did not verify against the pc bytes.
    BadMac,
}

impl std::fmt::Display for SitesParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SitesParseError::Truncated => write!(f, "site registry bytes truncated"),
            SitesParseError::BadMac => write!(f, "site registry MAC mismatch"),
        }
    }
}

impl std::error::Error for SitesParseError {}

/// The rewritten-site registry: the set of pcs of `SYSCALL` instructions
/// the installer authenticated. A trap from any other pc is a kill.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SiteRegistry {
    /// Sorted and deduplicated, so every trap's probe is one binary search.
    pcs: Vec<u32>,
}

impl SiteRegistry {
    /// An empty registry (every trap is a violation).
    pub fn new() -> SiteRegistry {
        SiteRegistry::default()
    }

    /// Registers the `SYSCALL` instruction at `pc`.
    pub fn insert(&mut self, pc: u32) {
        if let Err(at) = self.pcs.binary_search(&pc) {
            self.pcs.insert(at, pc);
        }
    }

    /// Whether a trap from `pc` is privileged.
    pub fn contains(&self, pc: u32) -> bool {
        self.pcs.binary_search(&pc).is_ok()
    }

    /// Number of registered sites.
    pub fn len(&self) -> usize {
        self.pcs.len()
    }

    /// Whether the registry has no sites.
    pub fn is_empty(&self) -> bool {
        self.pcs.is_empty()
    }

    /// The registered pcs in sorted order.
    pub fn pcs(&self) -> impl Iterator<Item = u32> + '_ {
        self.pcs.iter().copied()
    }

    /// The canonical pc bytes: `count: u32 LE` then each pc as `u32 LE`
    /// in sorted order.
    fn pc_bytes(&self) -> Vec<u8> {
        let mut bytes = Vec::with_capacity(4 + 4 * self.pcs.len());
        bytes.extend_from_slice(&(self.pcs.len() as u32).to_le_bytes());
        for pc in &self.pcs {
            bytes.extend_from_slice(&pc.to_le_bytes());
        }
        bytes
    }

    /// Serializes the registry: canonical pc bytes followed by a 16-byte
    /// MAC over them under `key`.
    pub fn to_bytes(&self, key: &MacKey) -> Vec<u8> {
        let mut bytes = self.pc_bytes();
        let mac = key.mac(&bytes);
        bytes.extend_from_slice(&mac);
        bytes
    }

    /// Parses and authenticates serialized bytes produced by
    /// [`SiteRegistry::to_bytes`]. Trailing padding after the MAC is
    /// ignored, so the bytes may come straight from a loaded section.
    pub fn parse(bytes: &[u8], key: &MacKey) -> Result<SiteRegistry, SitesParseError> {
        if bytes.len() < 4 {
            return Err(SitesParseError::Truncated);
        }
        let count = u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
        let pcs_end = 4 + 4 * count;
        let mac_end = pcs_end + MAC_LEN;
        if bytes.len() < mac_end {
            return Err(SitesParseError::Truncated);
        }
        let mut mac = [0u8; MAC_LEN];
        mac.copy_from_slice(&bytes[pcs_end..mac_end]);
        if !key.verify(&bytes[..pcs_end], &mac) {
            return Err(SitesParseError::BadMac);
        }
        Ok(bytes[4..pcs_end]
            .chunks_exact(4)
            .map(|pc| u32::from_le_bytes([pc[0], pc[1], pc[2], pc[3]]))
            .collect())
    }
}

impl FromIterator<u32> for SiteRegistry {
    /// Collects, then sorts once: O(n log n) for any order or duplicates.
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> SiteRegistry {
        let mut pcs: Vec<u32> = iter.into_iter().collect();
        pcs.sort_unstable();
        pcs.dedup();
        SiteRegistry { pcs }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SiteRegistry {
        let mut r = SiteRegistry::new();
        r.insert(0x1000);
        r.insert(0x1048);
        r.insert(0x2f30);
        r
    }

    #[test]
    fn membership() {
        let r = sample();
        assert!(r.contains(0x1000));
        assert!(r.contains(0x2f30));
        assert!(!r.contains(0x1004), "unregistered pc rejected");
        assert_eq!(r.len(), 3);
        assert!(!r.is_empty());
    }

    #[test]
    fn round_trips_under_the_right_key() {
        let key = MacKey::from_seed(0x517E);
        let r = sample();
        let bytes = r.to_bytes(&key);
        assert_eq!(bytes.len(), 4 + 4 * r.len() + MAC_LEN);
        let parsed = SiteRegistry::parse(&bytes, &key).expect("authentic bytes parse");
        assert_eq!(parsed, r);
        // Trailing padding (section alignment) is tolerated.
        let mut padded = bytes.clone();
        padded.extend_from_slice(&[0u8; 32]);
        assert_eq!(SiteRegistry::parse(&padded, &key).expect("padded"), r);
    }

    #[test]
    fn tampered_or_miskeyed_bytes_rejected() {
        let key = MacKey::from_seed(0x517E);
        let r = sample();
        let bytes = r.to_bytes(&key);
        let wrong = MacKey::from_seed(0x517F);
        assert_eq!(
            SiteRegistry::parse(&bytes, &wrong),
            Err(SitesParseError::BadMac)
        );
        // Flip one pc byte: the widened registry must not authenticate —
        // an attacker cannot smuggle a gadget pc into the set.
        let mut forged = bytes.clone();
        forged[5] ^= 1;
        assert_eq!(
            SiteRegistry::parse(&forged, &key),
            Err(SitesParseError::BadMac)
        );
        assert_eq!(
            SiteRegistry::parse(&bytes[..7], &key),
            Err(SitesParseError::Truncated)
        );
    }

    #[test]
    fn empty_registry_serializes() {
        let key = MacKey::from_seed(1);
        let r = SiteRegistry::new();
        let parsed = SiteRegistry::parse(&r.to_bytes(&key), &key).expect("empty parses");
        assert!(parsed.is_empty());
        assert!(!parsed.contains(0));
    }

    #[test]
    fn parse_sorts_and_deduplicates_an_authentic_list() {
        // Bytes `to_bytes` never writes, under a valid MAC: unsorted, with
        // a duplicate.
        let key = MacKey::from_seed(0x517E);
        let mut bytes = 3u32.to_le_bytes().to_vec();
        for pc in [0x30u32, 0x10, 0x30] {
            bytes.extend_from_slice(&pc.to_le_bytes());
        }
        let mac = key.mac(&bytes);
        bytes.extend_from_slice(&mac);
        let r = SiteRegistry::parse(&bytes, &key).expect("authentic");
        assert_eq!(r.pcs().collect::<Vec<_>>(), vec![0x10, 0x30]);
        assert_eq!(r, [0x10, 0x30].into_iter().collect());
        assert!(r.contains(0x30) && !r.contains(0x20));
    }

    #[test]
    fn collects_from_iterator() {
        let r: SiteRegistry = [0x30u32, 0x10, 0x20, 0x10].into_iter().collect();
        assert_eq!(r.len(), 3, "duplicates collapse");
        assert_eq!(r.pcs().collect::<Vec<_>>(), vec![0x10, 0x20, 0x30]);
    }
}
