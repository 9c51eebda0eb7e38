//! The one sorted set behind the capability set (§5.3), the SFIP flow
//! digraph and the syscall-origin site registry.
//!
//! A [`SortedSet`] holds fixed-width entries sorted and deduplicated, so
//! every membership probe (one per trap for the digraph and the
//! registry) is one binary search. Each entry type declares its width and
//! little-endian encoding through [`Entry`]. The canonical bytes are
//! `count: u32 LE` followed by every entry in sorted order: [`AuthDict`]
//! MACs them together with its counter, and [`SortedSet::seal`] appends a
//! MAC over them for the installer's `.ascflow` and `.ascsites` sections.
//!
//! [`AuthDict`]: crate::AuthDict

use crate::cmac::{Mac, MAC_LEN};
use crate::key::MacKey;

/// An entry of a [`SortedSet`]: ordered, and encoded in `WIDTH`
/// little-endian bytes.
pub trait Entry: Copy + Ord {
    /// Bytes per encoded entry.
    const WIDTH: usize;
    /// Appends the entry's encoding.
    fn put(self, out: &mut Vec<u8>);
    /// Decodes one entry from exactly `WIDTH` bytes.
    fn get(bytes: &[u8]) -> Self;
}

/// A pc or a file descriptor: `u32 LE`.
impl Entry for u32 {
    const WIDTH: usize = 4;
    fn put(self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn get(b: &[u8]) -> u32 {
        u32::from_le_bytes([b[0], b[1], b[2], b[3]])
    }
}

/// A `(from, to)` edge: `from: u16 LE ‖ to: u16 LE`.
impl Entry for (u16, u16) {
    const WIDTH: usize = 4;
    fn put(self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.0.to_le_bytes());
        out.extend_from_slice(&self.1.to_le_bytes());
    }
    fn get(b: &[u8]) -> (u16, u16) {
        (
            u16::from_le_bytes([b[0], b[1]]),
            u16::from_le_bytes([b[2], b[3]]),
        )
    }
}

/// Why sealed set bytes were rejected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SealError {
    /// Shorter than the count word, the entries it claims, and the MAC.
    Truncated,
    /// The trailing MAC did not verify against the entry bytes.
    BadMac,
}

impl std::fmt::Display for SealError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SealError::Truncated => write!(f, "sealed set truncated"),
            SealError::BadMac => write!(f, "sealed set MAC mismatch"),
        }
    }
}

impl std::error::Error for SealError {}

/// A sorted, deduplicated set of [`Entry`] values.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SortedSet<T> {
    /// Sorted and deduplicated, so every probe is one binary search.
    entries: Vec<T>,
}

impl<T: Entry> SortedSet<T> {
    /// An empty set.
    pub fn new() -> Self {
        SortedSet {
            entries: Vec::new(),
        }
    }

    /// Whether `entry` is present.
    pub fn contains(&self, entry: T) -> bool {
        self.entries.binary_search(&entry).is_ok()
    }

    /// Inserts `entry`; returns `false` if it was already present.
    pub fn insert(&mut self, entry: T) -> bool {
        match self.entries.binary_search(&entry) {
            Ok(_) => false,
            Err(at) => {
                self.entries.insert(at, entry);
                true
            }
        }
    }

    /// Removes `entry`; returns `false` if it was absent.
    pub fn remove(&mut self, entry: T) -> bool {
        match self.entries.binary_search(&entry) {
            Ok(at) => {
                self.entries.remove(at);
                true
            }
            Err(_) => false,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the set has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entries in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
        self.entries.iter().copied()
    }

    /// The canonical bytes: `count: u32 LE`, then each entry in sorted
    /// order.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + T::WIDTH * self.entries.len());
        out.extend_from_slice(&(self.entries.len() as u32).to_le_bytes());
        for entry in &self.entries {
            entry.put(&mut out);
        }
        out
    }

    /// The sealed form: the canonical bytes, then a MAC over them under
    /// `key`.
    pub fn seal(&self, key: &MacKey) -> Vec<u8> {
        let mut bytes = self.to_bytes();
        let mac = key.mac(&bytes);
        bytes.extend_from_slice(&mac);
        bytes
    }

    /// Opens bytes sealed by [`SortedSet::seal`]. Padding after the MAC is
    /// ignored, so the bytes may come straight from a loaded section; an
    /// authentic list that is unsorted or holds duplicates is sorted and
    /// deduplicated.
    ///
    /// # Errors
    ///
    /// [`SealError::Truncated`] when the bytes end before the MAC the
    /// count word implies, [`SealError::BadMac`] when that MAC does not
    /// verify under `key`.
    pub fn open(bytes: &[u8], key: &MacKey) -> Result<Self, SealError> {
        let count = bytes.get(..4).ok_or(SealError::Truncated)?;
        let count = u32::from_le_bytes(count.try_into().expect("four count bytes"));
        let body_end = usize::try_from(count)
            .ok()
            .and_then(|n| n.checked_mul(T::WIDTH)?.checked_add(4))
            .ok_or(SealError::Truncated)?;
        let mac: &Mac = body_end
            .checked_add(MAC_LEN)
            .and_then(|mac_end| bytes.get(body_end..mac_end))
            .ok_or(SealError::Truncated)?
            .try_into()
            .expect("MAC_LEN bytes");
        let body = &bytes[..body_end];
        if !key.verify(body, mac) {
            return Err(SealError::BadMac);
        }
        Ok(body[4..].chunks_exact(T::WIDTH).map(T::get).collect())
    }
}

impl<T: Entry> FromIterator<T> for SortedSet<T> {
    /// Collects, then sorts once: O(n log n) for any order or duplicates.
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut entries: Vec<T> = iter.into_iter().collect();
        entries.sort_unstable();
        entries.dedup();
        SortedSet { entries }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_operations() {
        let mut s = SortedSet::<u32>::new();
        assert!(s.is_empty());
        assert!(s.insert(4));
        assert!(s.insert(3));
        assert!(!s.insert(4));
        assert_eq!(s.len(), 2);
        assert!(s.contains(3));
        assert!(!s.contains(5));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 4]);
        assert!(s.remove(3));
        assert!(!s.remove(3));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn collecting_equals_inserting() {
        let collected: SortedSet<(u16, u16)> = [(4, 1), (3, 4), (4, 1)].into_iter().collect();
        let mut inserted = SortedSet::new();
        for edge in [(4, 1), (3, 4), (4, 1)] {
            inserted.insert(edge);
        }
        assert_eq!(collected, inserted);
        assert_eq!(collected.iter().collect::<Vec<_>>(), vec![(3, 4), (4, 1)]);
    }

    #[test]
    fn canonical_bytes_are_count_then_entries() {
        let s: SortedSet<u32> = [9, 1].into_iter().collect();
        let mut want = 2u32.to_le_bytes().to_vec();
        want.extend_from_slice(&1u32.to_le_bytes());
        want.extend_from_slice(&9u32.to_le_bytes());
        assert_eq!(s.to_bytes(), want);
        let g: SortedSet<(u16, u16)> = [(0x0102, 0x0304)].into_iter().collect();
        assert_eq!(g.to_bytes(), [1, 0, 0, 0, 2, 1, 4, 3]);
    }
}
