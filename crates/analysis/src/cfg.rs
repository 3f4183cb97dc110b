//! Control-flow graph reconstruction.
//!
//! [`Cfg::build`] carves the basic blocks of a recursive-descent
//! [`Disassembly`] (the disassembler itself keeps no blocks) and
//! materialises *every* edge the dataflow analysis must traverse, each
//! tagged with an [`EdgeKind`]:
//!
//! * `Call` instructions get an edge **into** the callee (the abstract
//!   state flows into the function body, preserving argument
//!   registers) *and* a fall-through edge to the return site, which
//!   the interpreter treats as a havoc point (the callee may clobber
//!   everything).
//! * Indirect jumps and calls get edges to every declared
//!   branch-table target — with CFI enforced those are the only
//!   possible destinations.
//!
//! [`Cfg::reverse_postorder`] orders the blocks the entry reaches. An
//! edge whose source does not come before its target in that order is
//! *retreating*; every cycle has one, so the interpreter widens there.

use deflection_isa::{Disassembly, Inst};
use std::collections::{BTreeMap, BTreeSet};

/// Why an edge exists between two blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// Straight-line flow into the next block (no terminator).
    Fall,
    /// Unconditional direct jump.
    Jump,
    /// Conditional branch, condition true.
    BranchTaken,
    /// Conditional branch, condition false (fall-through).
    BranchFall,
    /// Direct or indirect call: flow into the callee entry.
    CallTo,
    /// Return site of a call: flow resumes here after the callee.
    CallFall,
    /// Indirect jump to a declared branch-table target.
    Indirect,
}

/// A directed edge to another block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Index of the successor block.
    pub to: usize,
    /// Edge classification.
    pub kind: EdgeKind,
}

/// A basic block: a maximal straight-line instruction run.
#[derive(Debug, Clone)]
pub struct Block {
    /// Byte offset of the first instruction.
    pub start: usize,
    /// Byte offset one past the last instruction.
    pub end: usize,
    /// Instructions with their byte offsets, in address order.
    pub insts: Vec<(usize, Inst)>,
    /// Outgoing edges.
    pub edges: Vec<Edge>,
}

/// A control-flow graph over basic blocks.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// Basic blocks in address order.
    pub blocks: Vec<Block>,
    /// Index of the block containing the program entry point.
    pub entry: usize,
    starts: BTreeMap<usize, usize>,
}

impl Cfg {
    /// Builds the graph from a disassembly.
    ///
    /// # Panics
    ///
    /// Panics if the disassembly is internally inconsistent (a branch
    /// target that is not an instruction start); `disassemble` never
    /// produces such a value.
    #[must_use]
    pub fn build(d: &Disassembly) -> Cfg {
        // Leaders: block boundaries. The disassembler's own leader set is
        // about decode roots; we additionally split after calls and
        // conditional branches so that every edge lands on a block start.
        let mut leaders: BTreeSet<usize> = BTreeSet::new();
        leaders.insert(d.entry);
        leaders.extend(d.indirect_targets.iter().copied());
        for &(off, inst, len) in d.insts() {
            let next = off + len;
            if let Some(rel) = inst.direct_rel() {
                leaders.insert(rel_target(next, rel));
            }
            if inst.direct_rel().is_some() || inst.is_terminator() || inst.is_indirect_branch() {
                leaders.insert(next);
            }
        }

        // Carve blocks.
        let mut blocks: Vec<Block> = Vec::new();
        let mut starts: BTreeMap<usize, usize> = BTreeMap::new();
        let mut current: Option<Block> = None;
        let mut prev_end = None;
        for &(off, inst, len) in d.insts() {
            // A gap in decoded offsets (between functions the descent
            // reached via different roots) also breaks a block.
            let contiguous = prev_end == Some(off);
            if leaders.contains(&off) || !contiguous {
                if let Some(b) = current.take() {
                    starts.insert(b.start, blocks.len());
                    blocks.push(b);
                }
                current =
                    Some(Block { start: off, end: off, insts: Vec::new(), edges: Vec::new() });
            }
            let b = current.as_mut().expect("block opened at first instruction");
            b.insts.push((off, inst));
            b.end = off + len;
            prev_end = Some(off + len);
        }
        if let Some(b) = current.take() {
            starts.insert(b.start, blocks.len());
            blocks.push(b);
        }

        // Wire edges.
        let indirect: Vec<usize> = d.indirect_targets.clone();
        let block_of =
            |off: usize| -> usize { *starts.get(&off).expect("edge target must be a block start") };
        for b in &mut blocks {
            let (end, last) = (b.end, b.insts.last().expect("blocks are non-empty").1);
            let mut edges = Vec::new();
            match last {
                Inst::Jmp { rel } => {
                    edges.push(Edge { to: block_of(rel_target(end, rel)), kind: EdgeKind::Jump });
                }
                Inst::Jcc { rel, .. } => {
                    edges.push(Edge {
                        to: block_of(rel_target(end, rel)),
                        kind: EdgeKind::BranchTaken,
                    });
                    edges.push(Edge { to: block_of(end), kind: EdgeKind::BranchFall });
                }
                Inst::Call { rel } => {
                    edges.push(Edge { to: block_of(rel_target(end, rel)), kind: EdgeKind::CallTo });
                    edges.push(Edge { to: block_of(end), kind: EdgeKind::CallFall });
                }
                Inst::CallInd { .. } => {
                    for &t in &indirect {
                        edges.push(Edge { to: block_of(t), kind: EdgeKind::CallTo });
                    }
                    edges.push(Edge { to: block_of(end), kind: EdgeKind::CallFall });
                }
                Inst::JmpInd { .. } => {
                    for &t in &indirect {
                        edges.push(Edge { to: block_of(t), kind: EdgeKind::Indirect });
                    }
                }
                Inst::Ret | Inst::Halt | Inst::Abort { .. } => {}
                _ => {
                    // Block ended because the next offset is a leader.
                    if starts.contains_key(&end) {
                        edges.push(Edge { to: block_of(end), kind: EdgeKind::Fall });
                    }
                }
            }
            b.edges = edges;
        }

        let entry = block_of(d.entry);
        Cfg { blocks, entry, starts }
    }

    /// Index of the block whose byte range contains `offset`.
    #[must_use]
    pub fn block_containing(&self, offset: usize) -> Option<usize> {
        let (_, &idx) = self.starts.range(..=offset).next_back()?;
        let b = &self.blocks[idx];
        (offset >= b.start && offset < b.end).then_some(idx)
    }

    /// Reverse postorder over blocks reachable from the entry.
    #[must_use]
    pub fn reverse_postorder(&self) -> Vec<usize> {
        let n = self.blocks.len();
        let mut seen = vec![false; n];
        let mut post = Vec::with_capacity(n);
        // Iterative DFS carrying an edge cursor per open node.
        let mut stack: Vec<(usize, usize)> = vec![(self.entry, 0)];
        seen[self.entry] = true;
        while let Some(&mut (node, ref mut cursor)) = stack.last_mut() {
            if let Some(e) = self.blocks[node].edges.get(*cursor) {
                *cursor += 1;
                if !seen[e.to] {
                    seen[e.to] = true;
                    stack.push((e.to, 0));
                }
            } else {
                post.push(node);
                stack.pop();
            }
        }
        post.reverse();
        post
    }
}

fn rel_target(next: usize, rel: i32) -> usize {
    (next as i64 + i64::from(rel)) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Cfg {
        /// Builds a graph directly from hand-assembled blocks (block
        /// `start`/`end`/`insts` need only be consistent with the edges
        /// the caller wires).
        fn from_blocks(blocks: Vec<Block>, entry: usize) -> Cfg {
            assert!(entry < blocks.len(), "entry block out of range");
            let mut starts = BTreeMap::new();
            for (i, b) in blocks.iter().enumerate() {
                let clash = starts.insert(b.start, i);
                assert!(clash.is_none(), "duplicate block start {:#x}", b.start);
            }
            Cfg { blocks, entry, starts }
        }
    }

    /// A diamond with a loop on one arm:
    ///
    /// ```text
    ///        0
    ///       / \
    ///      1   2
    ///      |\  |
    ///      | 3 |      (3 -> 1 back edge)
    ///       \|/
    ///        4
    /// ```
    fn diamond_with_loop() -> Cfg {
        let edge = |to, kind| Edge { to, kind };
        let mk = |start: usize, edges: Vec<Edge>| Block {
            start,
            end: start + 1,
            insts: vec![(start, Inst::Nop)],
            edges,
        };
        Cfg::from_blocks(
            vec![
                mk(0, vec![edge(1, EdgeKind::BranchTaken), edge(2, EdgeKind::BranchFall)]),
                mk(1, vec![edge(3, EdgeKind::BranchTaken), edge(4, EdgeKind::BranchFall)]),
                mk(2, vec![edge(4, EdgeKind::Jump)]),
                mk(3, vec![edge(1, EdgeKind::Jump)]),
                mk(4, vec![]),
            ],
            0,
        )
    }

    /// Positions in reverse postorder, `usize::MAX` for blocks the entry
    /// cannot reach, and the edges whose source does not come before
    /// their target: the edges the interpreter widens on.
    fn retreating(cfg: &Cfg) -> (Vec<usize>, Vec<(usize, usize)>) {
        let mut pos = vec![usize::MAX; cfg.blocks.len()];
        for (i, b) in cfg.reverse_postorder().into_iter().enumerate() {
            pos[b] = i;
        }
        let edges =
            cfg.blocks.iter().enumerate().flat_map(|(a, b)| b.edges.iter().map(move |e| (a, e.to)));
        let back = edges.filter(|&(a, to)| pos[a] >= pos[to]).collect();
        (pos, back)
    }

    #[test]
    fn retreating_edges_cut_every_cycle() {
        // The loop's latch 3 -> 1 is the only retreating edge of the
        // diamond; both arms and the join come after the fork.
        let (pos, back) = retreating(&diamond_with_loop());
        assert_eq!(pos[0], 0);
        assert_eq!(back, vec![(3, 1)]);

        // A nest: self loop on 2 inside the outer loop 1..3, plus an
        // unreachable block 5 in a cycle with itself via 6.
        let edge = |to, kind| Edge { to, kind };
        let mk = |start: usize, edges: Vec<Edge>| Block {
            start,
            end: start + 1,
            insts: vec![(start, Inst::Nop)],
            edges,
        };
        let cfg = Cfg::from_blocks(
            vec![
                mk(0, vec![edge(1, EdgeKind::Fall)]),
                mk(1, vec![edge(2, EdgeKind::Fall)]),
                mk(2, vec![edge(2, EdgeKind::BranchTaken), edge(3, EdgeKind::BranchFall)]),
                mk(3, vec![edge(1, EdgeKind::BranchTaken), edge(4, EdgeKind::BranchFall)]),
                mk(4, vec![]),
                mk(5, vec![edge(6, EdgeKind::Jump)]),
                mk(6, vec![edge(5, EdgeKind::Jump)]),
            ],
            0,
        );
        let (pos, back) = retreating(&cfg);
        assert_eq!(&pos[..5], &[0, 1, 2, 3, 4]);
        assert_eq!((pos[5], pos[6]), (usize::MAX, usize::MAX));
        assert_eq!(back, vec![(2, 2), (3, 1), (5, 6), (6, 5)]);
    }
}
