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
//! The digraph is the `(u16, u16)` instance of [`SortedSet`]. Its sealed
//! form (edge list plus a trailing MAC keyed by the administrator key) is
//! embedded in the installed artifact's `.ascflow` section, so a tampered
//! digraph is rejected at load time rather than silently widening (or
//! narrowing) the policy.

use asc_crypto::SortedSet;

/// Sentinel syscall number for "program start" (no call verified yet).
/// `0xFFFF` is far outside both personalities' syscall tables, so it can
/// never collide with a real trapped number.
pub const FLOW_START: u16 = 0xFFFF;

/// The syscall-transition digraph: a set of `(from, to)` edges over raw
/// syscall numbers, with [`FLOW_START`] as the start-of-program node.
/// Each edge encodes as `from: u16 LE ‖ to: u16 LE`.
pub type FlowGraph = SortedSet<(u16, u16)>;

#[cfg(test)]
mod tests {
    use super::*;
    use asc_crypto::MacKey;

    #[test]
    fn parse_sorts_and_deduplicates_an_authentic_list() {
        // Bytes `seal` never writes, under a valid MAC: unsorted, with a
        // duplicate.
        let key = MacKey::from_seed(0xF10);
        let mut bytes = 3u32.to_le_bytes().to_vec();
        for (from, to) in [(4u16, 1u16), (3, 4), (4, 1)] {
            bytes.extend_from_slice(&from.to_le_bytes());
            bytes.extend_from_slice(&to.to_le_bytes());
        }
        let mac = key.mac(&bytes);
        bytes.extend_from_slice(&mac);
        let g = FlowGraph::open(&bytes, &key).expect("authentic");
        assert_eq!(g.iter().collect::<Vec<_>>(), vec![(3, 4), (4, 1)]);
        assert!(g.contains((4, 1)) && !g.contains((1, 4)));
        let mut inserted = FlowGraph::new();
        inserted.insert((4, 1));
        inserted.insert((3, 4));
        inserted.insert((4, 1));
        assert_eq!(g, inserted);
    }
}
