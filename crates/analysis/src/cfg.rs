//! Control-flow graph reconstruction and dominators.
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
//! Dominators are computed with the iterative Cooper–Harvey–Kennedy
//! algorithm over reverse postorder; the interpreter uses them to
//! recognise loop heads (back edges target a dominator) and apply
//! widening there.

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
            match inst {
                Inst::Jmp { rel } => {
                    leaders.insert(rel_target(next, rel));
                    leaders.insert(next);
                }
                Inst::Jcc { rel, .. } => {
                    leaders.insert(rel_target(next, rel));
                    leaders.insert(next);
                }
                Inst::Call { rel } => {
                    leaders.insert(rel_target(next, rel));
                    leaders.insert(next);
                }
                Inst::CallInd { .. } => {
                    leaders.insert(next);
                }
                Inst::JmpInd { .. } | Inst::Ret | Inst::Halt | Inst::Abort { .. } => {
                    leaders.insert(next);
                }
                _ => {}
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

    /// Predecessor lists, indexed like `blocks`.
    #[must_use]
    pub fn predecessors(&self) -> Vec<Vec<usize>> {
        let mut preds = vec![Vec::new(); self.blocks.len()];
        for (i, b) in self.blocks.iter().enumerate() {
            for e in &b.edges {
                preds[e.to].push(i);
            }
        }
        preds
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

    /// Immediate dominators (Cooper–Harvey–Kennedy). `idom[entry] ==
    /// Some(entry)`; blocks unreachable from the entry get `None`.
    #[must_use]
    pub fn dominators(&self) -> Vec<Option<usize>> {
        let n = self.blocks.len();
        let rpo = self.reverse_postorder();
        let mut order = vec![usize::MAX; n];
        for (i, &b) in rpo.iter().enumerate() {
            order[b] = i;
        }
        let preds = self.predecessors();
        let mut idom: Vec<Option<usize>> = vec![None; n];
        idom[self.entry] = Some(self.entry);

        let intersect = |idom: &[Option<usize>], mut a: usize, mut b: usize| -> usize {
            while a != b {
                while order[a] > order[b] {
                    a = idom[a].expect("processed block has an idom");
                }
                while order[b] > order[a] {
                    b = idom[b].expect("processed block has an idom");
                }
            }
            a
        };

        let mut changed = true;
        while changed {
            changed = false;
            for &b in &rpo {
                if b == self.entry {
                    continue;
                }
                let mut new_idom: Option<usize> = None;
                for &p in &preds[b] {
                    if idom[p].is_none() {
                        continue;
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(&idom, cur, p),
                    });
                }
                if new_idom.is_some() && idom[b] != new_idom {
                    idom[b] = new_idom;
                    changed = true;
                }
            }
        }
        idom
    }

    /// Whether block `a` dominates block `b` under the given idom tree.
    #[must_use]
    pub fn dominates(idom: &[Option<usize>], a: usize, b: usize) -> bool {
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            match idom[cur] {
                Some(parent) if parent != cur => cur = parent,
                _ => return false,
            }
        }
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

    #[test]
    fn dominators_of_diamond_with_loop() {
        let cfg = diamond_with_loop();
        let idom = cfg.dominators();
        assert_eq!(idom[0], Some(0));
        assert_eq!(idom[1], Some(0));
        assert_eq!(idom[2], Some(0));
        assert_eq!(idom[3], Some(1), "loop body is dominated by the loop head");
        assert_eq!(idom[4], Some(0), "join point joins both arms, so idom is the fork");
        assert!(Cfg::dominates(&idom, 0, 4));
        assert!(Cfg::dominates(&idom, 1, 3));
        assert!(!Cfg::dominates(&idom, 1, 4));
        assert!(!Cfg::dominates(&idom, 2, 4));
    }

    #[test]
    fn unreachable_blocks_have_no_idom() {
        let edge = |to, kind| Edge { to, kind };
        let mk = |start: usize, edges: Vec<Edge>| Block {
            start,
            end: start + 1,
            insts: vec![(start, Inst::Nop)],
            edges,
        };
        let cfg = Cfg::from_blocks(
            vec![mk(0, vec![edge(1, EdgeKind::Jump)]), mk(1, vec![]), mk(2, vec![])],
            0,
        );
        let idom = cfg.dominators();
        assert_eq!(idom[1], Some(0));
        assert_eq!(idom[2], None);
        assert!(!Cfg::dominates(&idom, 0, 2));
    }

    #[test]
    fn back_edge_detection_via_dominance() {
        let cfg = diamond_with_loop();
        let idom = cfg.dominators();
        // 3 -> 1 is a back edge (1 dominates 3); 1 -> 4 is not.
        assert!(Cfg::dominates(&idom, 1, 3));
        assert!(!Cfg::dominates(&idom, 4, 1));
    }

    #[test]
    fn nested_loop_dominators() {
        // 0 -> 1 -> 2 -> 1 (inner), 2 -> 3 -> 1? no: classic nest:
        // 0 -> 1; 1 -> 2; 2 -> 2 (self loop); 2 -> 3; 3 -> 1 (outer); 3 -> 4.
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
            ],
            0,
        );
        let idom = cfg.dominators();
        assert_eq!(idom[1], Some(0));
        assert_eq!(idom[2], Some(1));
        assert_eq!(idom[3], Some(2));
        assert_eq!(idom[4], Some(3));
        // Both loop heads are recognised as dominating their back-edge sources.
        assert!(Cfg::dominates(&idom, 2, 2));
        assert!(Cfg::dominates(&idom, 1, 3));
    }
}
