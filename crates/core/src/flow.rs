//! The global syscall-transition digraph behind the SFIP verification
//! tier.
//!
//! The installer projects its per-site predecessor sets (basic-block
//! granularity) down to syscall-number granularity: for every site `s`
//! with number `nr_s` and predecessor blocks `P_s`, the digraph gains an
//! edge `(nr_t, nr_s)` for every site `t` whose block is in `P_s`, plus
//! `(FLOW_START, nr_s)` when block 0 (program start) is in `P_s`. The
//! projection is a *conservative coarsening* of the same control-flow
//! analysis that produces the MAC tier's predecessor sets, so any
//! transition the full policy-state check accepts is an edge of the
//! digraph — `FlowOnly` never kills a run that `Mac` accepts.
//!
//! The serialized graph is embedded in the installed artifact's
//! `.ascflow` section as an edge list with a trailing MAC keyed by the
//! administrator key, so a tampered digraph is rejected at load time
//! rather than silently widening (or narrowing) the policy.

use asc_crypto::{MacKey, MAC_LEN};

/// Sentinel syscall number for "program start" (no call verified yet).
/// `0xFFFF` is far outside both personalities' syscall tables, so it can
/// never collide with a real trapped number.
pub const FLOW_START: u16 = 0xFFFF;

/// Why serialized flow-graph bytes were rejected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlowParseError {
    /// The byte string was shorter than its header + edges + MAC claim.
    Truncated,
    /// The trailing MAC did not verify against the edge bytes.
    BadMac,
}

impl std::fmt::Display for FlowParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlowParseError::Truncated => write!(f, "flow graph bytes truncated"),
            FlowParseError::BadMac => write!(f, "flow graph MAC mismatch"),
        }
    }
}

impl std::error::Error for FlowParseError {}

/// The syscall-transition digraph: a set of `(from, to)` edges over raw
/// syscall numbers, with [`FLOW_START`] as the start-of-program node.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FlowGraph {
    /// Sorted and deduplicated, so every trap's probe is one binary search.
    edges: Vec<(u16, u16)>,
}

impl FlowGraph {
    /// An empty digraph (accepts nothing).
    pub fn new() -> FlowGraph {
        FlowGraph::default()
    }

    /// Adds the edge `from -> to`.
    pub fn insert(&mut self, from: u16, to: u16) {
        if let Err(at) = self.edges.binary_search(&(from, to)) {
            self.edges.insert(at, (from, to));
        }
    }

    /// Whether `from -> to` is a legal transition.
    pub fn contains(&self, from: u16, to: u16) -> bool {
        self.edges.binary_search(&(from, to)).is_ok()
    }

    /// Number of edges.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether the digraph has no edges.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// The edges in sorted order.
    pub fn edges(&self) -> impl Iterator<Item = (u16, u16)> + '_ {
        self.edges.iter().copied()
    }

    /// The canonical edge bytes: `count: u32 LE` then, per edge in sorted
    /// order, `from: u16 LE ‖ to: u16 LE`.
    fn edge_bytes(&self) -> Vec<u8> {
        let mut bytes = Vec::with_capacity(4 + 4 * self.edges.len());
        bytes.extend_from_slice(&(self.edges.len() as u32).to_le_bytes());
        for (from, to) in &self.edges {
            bytes.extend_from_slice(&from.to_le_bytes());
            bytes.extend_from_slice(&to.to_le_bytes());
        }
        bytes
    }

    /// Serializes the digraph: canonical edge bytes followed by a 16-byte
    /// MAC over them under `key`.
    pub fn to_bytes(&self, key: &MacKey) -> Vec<u8> {
        let mut bytes = self.edge_bytes();
        let mac = key.mac(&bytes);
        bytes.extend_from_slice(&mac);
        bytes
    }

    /// Parses and authenticates serialized bytes produced by
    /// [`FlowGraph::to_bytes`]. Trailing padding after the MAC is
    /// ignored, so the bytes may come straight from a loaded section.
    pub fn parse(bytes: &[u8], key: &MacKey) -> Result<FlowGraph, FlowParseError> {
        if bytes.len() < 4 {
            return Err(FlowParseError::Truncated);
        }
        let count = u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
        let edges_end = 4 + 4 * count;
        let mac_end = edges_end + MAC_LEN;
        if bytes.len() < mac_end {
            return Err(FlowParseError::Truncated);
        }
        let mut mac = [0u8; MAC_LEN];
        mac.copy_from_slice(&bytes[edges_end..mac_end]);
        if !key.verify(&bytes[..edges_end], &mac) {
            return Err(FlowParseError::BadMac);
        }
        // Collected, then sorted once: O(n log n) for any order or duplicates.
        let mut edges: Vec<(u16, u16)> = bytes[4..edges_end]
            .chunks_exact(4)
            .map(|e| {
                (
                    u16::from_le_bytes([e[0], e[1]]),
                    u16::from_le_bytes([e[2], e[3]]),
                )
            })
            .collect();
        edges.sort_unstable();
        edges.dedup();
        Ok(FlowGraph { edges })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FlowGraph {
        let mut g = FlowGraph::new();
        g.insert(FLOW_START, 3);
        g.insert(3, 4);
        g.insert(4, 4);
        g.insert(4, 1);
        g
    }

    #[test]
    fn membership() {
        let g = sample();
        assert!(g.contains(FLOW_START, 3));
        assert!(g.contains(4, 4));
        assert!(!g.contains(3, 1), "absent edge rejected");
        assert!(!g.contains(FLOW_START, 4));
        assert_eq!(g.len(), 4);
    }

    #[test]
    fn round_trips_under_the_right_key() {
        let key = MacKey::from_seed(0xF10);
        let g = sample();
        let bytes = g.to_bytes(&key);
        assert_eq!(bytes.len(), 4 + 4 * g.len() + MAC_LEN);
        let parsed = FlowGraph::parse(&bytes, &key).expect("authentic bytes parse");
        assert_eq!(parsed, g);
        // Trailing padding (section alignment) is tolerated.
        let mut padded = bytes.clone();
        padded.extend_from_slice(&[0u8; 32]);
        assert_eq!(FlowGraph::parse(&padded, &key).expect("padded"), g);
    }

    #[test]
    fn tampered_or_miskeyed_bytes_rejected() {
        let key = MacKey::from_seed(0xF10);
        let g = sample();
        let bytes = g.to_bytes(&key);
        let wrong = MacKey::from_seed(0xF11);
        assert_eq!(
            FlowGraph::parse(&bytes, &wrong),
            Err(FlowParseError::BadMac)
        );
        // Flip one edge byte: the widened graph must not authenticate.
        let mut forged = bytes.clone();
        forged[5] ^= 1;
        assert_eq!(FlowGraph::parse(&forged, &key), Err(FlowParseError::BadMac));
        assert_eq!(
            FlowGraph::parse(&bytes[..7], &key),
            Err(FlowParseError::Truncated)
        );
    }

    #[test]
    fn parse_sorts_and_deduplicates_an_authentic_list() {
        // Bytes `to_bytes` never writes, under a valid MAC: unsorted, with
        // a duplicate.
        let key = MacKey::from_seed(0xF10);
        let mut bytes = 3u32.to_le_bytes().to_vec();
        for (from, to) in [(4u16, 1u16), (3, 4), (4, 1)] {
            bytes.extend_from_slice(&from.to_le_bytes());
            bytes.extend_from_slice(&to.to_le_bytes());
        }
        let mac = key.mac(&bytes);
        bytes.extend_from_slice(&mac);
        let g = FlowGraph::parse(&bytes, &key).expect("authentic");
        assert_eq!(g.edges().collect::<Vec<_>>(), vec![(3, 4), (4, 1)]);
        assert!(g.contains(4, 1) && !g.contains(1, 4));
        let mut inserted = FlowGraph::new();
        inserted.insert(4, 1);
        inserted.insert(3, 4);
        inserted.insert(4, 1);
        assert_eq!(g, inserted);
    }

    #[test]
    fn empty_graph_serializes() {
        let key = MacKey::from_seed(1);
        let g = FlowGraph::new();
        let parsed = FlowGraph::parse(&g.to_bytes(&key), &key).expect("empty parses");
        assert!(parsed.is_empty());
        assert!(!parsed.contains(FLOW_START, 0));
    }
}
