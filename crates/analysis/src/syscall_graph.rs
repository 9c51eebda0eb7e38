//! The system call graph: which calls can immediately precede which.
//!
//! The paper computes this by projecting the program's call graph onto its
//! system calls (§3.3). The equivalent dataflow formulation used here:
//! propagate, over the interprocedural CFG, the set of "most recent system
//! call blocks" reaching each block; a block ending in a syscall resets
//! the set to itself. Block id 0 denotes program start, so a syscall whose
//! predecessor set contains 0 may legally be the program's first call.

use std::collections::{BTreeMap, BTreeSet};

use asc_core::{FlowGraph, FLOW_START};
use asc_isa::Opcode;

use crate::cfg::{BlockId, Cfg};
use crate::ir::{IrItem, Unit};

/// For every block that ends with a system call, the set of blocks whose
/// system calls may immediately precede it (0 = program start).
pub fn predecessor_sets(unit: &Unit, cfg: &Cfg) -> BTreeMap<BlockId, BTreeSet<BlockId>> {
    let nblocks = cfg.blocks().len();
    let ends_in_syscall = |bid: BlockId| -> bool {
        let block = cfg.block(bid).expect("valid block");
        matches!(
            &unit.items[block.last()],
            IrItem::Instr(i) if i.instr.op == Opcode::Syscall
        )
    };

    let mut inn: Vec<BTreeSet<BlockId>> = vec![BTreeSet::new(); nblocks + 1];
    let mut out: Vec<BTreeSet<BlockId>> = vec![BTreeSet::new(); nblocks + 1];
    if nblocks > 0 {
        inn[1].insert(0); // program start reaches the entry block
    }
    let mut worklist: Vec<BlockId> = (1..=nblocks as BlockId).collect();
    while let Some(bid) = worklist.pop() {
        let new_out: BTreeSet<BlockId> = if ends_in_syscall(bid) {
            [bid].into_iter().collect()
        } else {
            inn[bid as usize].clone()
        };
        if new_out != out[bid as usize] {
            out[bid as usize] = new_out.clone();
            // Call-summary edges are excluded: they would bypass callee
            // syscalls, adding spurious (though conservative) predecessors;
            // the call/return edge pair models the same flow precisely.
            for (kind, succ) in cfg.succ_edges(bid) {
                if kind == crate::cfg::EdgeKind::CallSummary {
                    continue;
                }
                let before = inn[succ as usize].len();
                inn[succ as usize].extend(new_out.iter().copied());
                if inn[succ as usize].len() != before && !worklist.contains(&succ) {
                    worklist.push(succ);
                }
            }
        }
    }

    (1..=nblocks as BlockId)
        .filter(|&b| ends_in_syscall(b))
        .map(|b| (b, inn[b as usize].clone()))
        .collect()
}

/// Projects per-site predecessor sets down to the global syscall-transition
/// digraph (the SFIP tier's policy). Each element of `sites` is one call
/// site: `(syscall number, its block, its predecessor blocks)`.
///
/// For every site `s`, every predecessor block `p` of `s` contributes the
/// edge `(nr of p's site, nr of s)`; block 0 contributes
/// `(FLOW_START, nr of s)`. Because this is exactly the block-level
/// predecessor relation with block ids replaced by (coarser) syscall
/// numbers, any transition the policy-state check accepts maps to an edge
/// of the digraph: the flow tier is sound relative to the MAC tier, and
/// strictly coarser — distinct sites trapping the same number merge into
/// one node, which is the tier's deliberate precision loss.
pub fn flow_digraph(sites: &[(u16, BlockId, BTreeSet<BlockId>)]) -> FlowGraph {
    let mut nrs_of_block: BTreeMap<BlockId, BTreeSet<u16>> = BTreeMap::new();
    for (nr, block, _) in sites {
        nrs_of_block.entry(*block).or_default().insert(*nr);
    }
    let mut edges = Vec::new();
    for (nr, _, preds) in sites {
        for p in preds {
            if *p == 0 {
                edges.push((FLOW_START, *nr));
            } else if let Some(from_nrs) = nrs_of_block.get(p) {
                edges.extend(from_nrs.iter().map(|&from| (from, *nr)));
            }
        }
    }
    edges.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use asc_asm::assemble;

    fn preds_of(src: &str) -> (Unit, Cfg, BTreeMap<BlockId, BTreeSet<BlockId>>) {
        let unit = Unit::lift(&assemble(src).unwrap()).unwrap();
        let cfg = Cfg::build(&unit);
        let preds = predecessor_sets(&unit, &cfg);
        (unit, cfg, preds)
    }

    fn set(ids: &[BlockId]) -> BTreeSet<BlockId> {
        ids.iter().copied().collect()
    }

    #[test]
    fn sequential_calls_chain() {
        let (_, _, preds) = preds_of(
            "
            .text
        main:
            movi r0, 5
            syscall        ; block 1
            movi r0, 3
            syscall        ; block 2
            movi r0, 1
            syscall        ; block 3
            halt
        ",
        );
        assert_eq!(preds[&1], set(&[0]), "first call follows program start");
        assert_eq!(preds[&2], set(&[1]));
        assert_eq!(preds[&3], set(&[2]));
    }

    #[test]
    fn branch_merges_predecessors() {
        let (_, _, preds) = preds_of(
            "
            .text
        main:
            beq r1, r2, right
            movi r0, 5
            syscall          ; block 2 (left open)
            jmp done
        right:
            movi r0, 6
            syscall          ; block 4 (right close)
        done:
            movi r0, 1
            syscall          ; block 5 (exit)
            halt
        ",
        );
        // exit's predecessors are both branches' calls.
        let exit_block = *preds.keys().max().unwrap();
        assert_eq!(preds[&exit_block], set(&[2, 4]));
        // Each branch call itself follows program start.
        assert_eq!(preds[&2], set(&[0]));
        assert_eq!(preds[&4], set(&[0]));
    }

    #[test]
    fn loop_allows_self_precedence() {
        let (_, _, preds) = preds_of(
            "
            .text
        main:
        loop:
            movi r0, 3
            syscall          ; read in a loop
            movi r2, 0
            bne r0, r2, loop
            movi r0, 1
            syscall
            halt
        ",
        );
        let read_block = *preds.keys().min().unwrap();
        assert!(
            preds[&read_block].contains(&read_block),
            "read may follow itself: {preds:?}"
        );
        assert!(preds[&read_block].contains(&0), "or be first");
    }

    #[test]
    fn calls_through_functions_are_tracked() {
        let (_, _, preds) = preds_of(
            "
            .text
        main:
            call do_open     ; block 1
            call do_read     ; block 2
            movi r0, 1
            syscall          ; block 3 (exit)
            halt
        do_open:
            movi r0, 5
            syscall          ; open block
            ret
        do_read:
            movi r0, 3
            syscall          ; read block
            ret
        ",
        );
        // Identify blocks by searching: exactly 3 syscall blocks.
        assert_eq!(preds.len(), 3);
        let mut iter = preds.iter();
        let (&exit_b, exit_preds) = iter.next().unwrap(); // lowest block id = exit (block 3)
        let (&open_b, open_preds) = iter.next().unwrap();
        let (&read_b, read_preds) = iter.next().unwrap();
        assert!(exit_b < open_b && open_b < read_b);
        assert_eq!(open_preds, &set(&[0]), "open is first");
        assert_eq!(read_preds, &set(&[open_b]), "read follows open");
        assert_eq!(exit_preds, &set(&[read_b]), "exit follows read");
    }

    #[test]
    fn shared_stub_context_insensitivity_is_conservative() {
        // One getpid stub called from two places around a write: the
        // context-insensitive analysis allows write to follow either
        // getpid, and getpid to follow getpid (spurious but conservative:
        // unneeded permissions, never false alarms).
        let (_, _, preds) = preds_of(
            "
            .text
        main:
            call getpid      ; 1
            movi r0, 4
            syscall          ; 2: write
            call getpid      ; 3
            halt
        getpid:
            movi r0, 20
            syscall          ; stub block
            ret
        ",
        );
        let stub_block = *preds.keys().max().unwrap();
        let write_block = 2;
        assert!(preds[&write_block].contains(&stub_block));
        assert!(preds[&stub_block].contains(&0));
        assert!(preds[&stub_block].contains(&write_block));
    }

    #[test]
    fn flow_digraph_projects_chains_and_loops() {
        // Chain: start -> 5 -> 3 -> 1.
        let g = flow_digraph(&[(5, 1, set(&[0])), (3, 2, set(&[1])), (1, 3, set(&[2]))]);
        assert!(g.contains((asc_core::FLOW_START, 5)));
        assert!(g.contains((5, 3)));
        assert!(g.contains((3, 1)));
        assert!(!g.contains((5, 1)), "skipping a call is not an edge");
        assert_eq!(g.len(), 3);

        // Loop: a read that may follow itself, then exit.
        let g = flow_digraph(&[(3, 1, set(&[0, 1])), (1, 2, set(&[1]))]);
        assert!(g.contains((3, 3)), "loop produces a self-edge");
        assert!(g.contains((asc_core::FLOW_START, 3)));
        assert!(g.contains((3, 1)));

        // Branch merge: either branch's call may precede exit.
        let g = flow_digraph(&[(5, 2, set(&[0])), (6, 4, set(&[0])), (1, 5, set(&[2, 4]))]);
        assert!(g.contains((5, 1)) && g.contains((6, 1)));
        assert!(!g.contains((5, 6)), "branches do not chain into each other");
    }

    #[test]
    fn flow_digraph_is_coarser_than_pred_sets() {
        // Two sites trap the same number 4 from different blocks; the
        // digraph merges them, so a transition only one block allows is an
        // edge for both — the documented precision loss of the flow tier.
        let g = flow_digraph(&[(4, 1, set(&[0])), (4, 3, set(&[1])), (9, 4, set(&[3]))]);
        assert!(g.contains((4, 4)), "site-to-site chain becomes a self-edge");
        assert!(
            g.contains((4, 9)),
            "edge granted to every site sharing nr 4, not just block 3"
        );
        // A predecessor block with no site contributes nothing.
        let g = flow_digraph(&[(7, 2, set(&[9]))]);
        assert!(g.is_empty());
    }

    #[test]
    fn unreachable_syscall_has_empty_predecessors() {
        let (_, _, preds) = preds_of(
            "
            .text
        main:
            movi r0, 1
            syscall          ; block 1
            halt
        dead:
            movi r0, 11
            syscall          ; block 3, unreachable
            halt
        ",
        );
        let dead_block = *preds.keys().max().unwrap();
        assert!(preds[&dead_block].is_empty());
    }
}
