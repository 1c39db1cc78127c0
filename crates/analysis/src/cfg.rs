//! Control-flow graph construction over [`Kernel`] instruction vectors.
//!
//! Branch targets in the ISA are resolved instruction indices, so block
//! leaders are exactly: instruction 0, every branch target, and every
//! instruction following a control-flow instruction. Terminator
//! semantics: `s_branch` has one successor (its target),
//! `s_cbranch_scc0/1` two (target and fall-through), `s_endpgm` none,
//! and a block cut short by a following leader falls through.

use rtad_miaow::isa::{Instr, Kernel};

/// A basic block: the half-open instruction range `[start, end)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BasicBlock {
    /// Index of the first instruction.
    pub start: usize,
    /// One past the last instruction.
    pub end: usize,
    /// Successor block indices.
    pub successors: Vec<usize>,
    /// Predecessor block indices.
    pub predecessors: Vec<usize>,
}

impl BasicBlock {
    /// The instruction indices of this block.
    pub fn range(&self) -> std::ops::Range<usize> {
        self.start..self.end
    }

    /// The terminator's instruction index (the last one in the block).
    pub fn terminator(&self) -> usize {
        self.end - 1
    }
}

/// The control-flow graph of one kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cfg {
    blocks: Vec<BasicBlock>,
}

impl Cfg {
    /// Builds the CFG. Kernels are non-empty by construction
    /// ([`Kernel::new`] requires a final `s_endpgm`), so the entry block
    /// always exists.
    pub fn build(kernel: &Kernel) -> Self {
        let code = &kernel.code;
        let n = code.len();

        // Leaders: entry, branch targets, fall-throughs of control flow.
        let mut leader = vec![false; n];
        leader[0] = true;
        for (i, instr) in code.iter().enumerate() {
            match instr {
                Instr::SBranch { target }
                | Instr::SCbranchScc1 { target }
                | Instr::SCbranchScc0 { target } => {
                    leader[*target] = true;
                    if i + 1 < n {
                        leader[i + 1] = true;
                    }
                }
                Instr::SEndpgm if i + 1 < n => leader[i + 1] = true,
                _ => {}
            }
        }

        // Cut blocks at leaders.
        let starts: Vec<usize> = (0..n).filter(|&i| leader[i]).collect();
        let mut blocks: Vec<BasicBlock> = starts
            .iter()
            .enumerate()
            .map(|(b, &start)| BasicBlock {
                start,
                end: starts.get(b + 1).copied().unwrap_or(n),
                successors: Vec::new(),
                predecessors: Vec::new(),
            })
            .collect();

        let mut block_of_instr = vec![0usize; n];
        for (b, block) in blocks.iter().enumerate() {
            for i in block.range() {
                block_of_instr[i] = b;
            }
        }

        // Successor edges from each terminator.
        for block in &mut blocks {
            let term = block.terminator();
            let succs: Vec<usize> = match &code[term] {
                Instr::SBranch { target } => vec![block_of_instr[*target]],
                Instr::SCbranchScc1 { target } | Instr::SCbranchScc0 { target } => {
                    let mut s = vec![block_of_instr[*target]];
                    // The final instruction is s_endpgm (asserted by
                    // Kernel::new), so a conditional branch always has
                    // an in-range fall-through.
                    let fall = block_of_instr[term + 1];
                    if !s.contains(&fall) {
                        s.push(fall);
                    }
                    s
                }
                Instr::SEndpgm => Vec::new(),
                _ => vec![block_of_instr[term + 1]],
            };
            block.successors = succs;
        }

        // Predecessors by inversion.
        for b in 0..blocks.len() {
            for s in blocks[b].successors.clone() {
                blocks[s].predecessors.push(b);
            }
        }

        Cfg { blocks }
    }

    /// The basic blocks, in program order.
    pub fn blocks(&self) -> &[BasicBlock] {
        &self.blocks
    }

    /// Blocks reachable from the entry (forward DFS).
    pub fn reachable(&self) -> Vec<bool> {
        let mut seen = vec![false; self.blocks.len()];
        let mut stack = vec![0usize];
        while let Some(b) = stack.pop() {
            if std::mem::replace(&mut seen[b], true) {
                continue;
            }
            stack.extend(self.blocks[b].successors.iter().copied());
        }
        seen
    }

    /// Blocks from which some `s_endpgm` is reachable (backward DFS
    /// from every exit block). A reachable block outside this set can
    /// only spin until the watchdog.
    pub fn can_exit(&self, code: &[Instr]) -> Vec<bool> {
        let mut seen = vec![false; self.blocks.len()];
        let mut stack: Vec<usize> = self
            .blocks
            .iter()
            .enumerate()
            .filter(|(_, b)| matches!(code[b.terminator()], Instr::SEndpgm))
            .map(|(i, _)| i)
            .collect();
        while let Some(b) = stack.pop() {
            if std::mem::replace(&mut seen[b], true) {
                continue;
            }
            stack.extend(self.blocks[b].predecessors.iter().copied());
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtad_miaow::asm::assemble;

    #[test]
    fn straight_line_is_one_block() {
        let k = assemble("v_mov_b32 v1, 1.0\nv_add_f32 v1, v1, v1\ns_endpgm").unwrap();
        let cfg = Cfg::build(&k);
        assert_eq!(cfg.blocks().len(), 1);
        assert_eq!(cfg.blocks()[0].range(), 0..3);
        assert!(cfg.blocks()[0].successors.is_empty());
    }

    #[test]
    fn loop_has_back_edge() {
        let k = assemble(
            "s_mov_b32 s10, 0\n\
             top:\n\
             s_add_i32 s10, s10, 1\n\
             s_cmp_lt_i32 s10, 8\n\
             s_cbranch_scc1 top\n\
             s_endpgm",
        )
        .unwrap();
        let cfg = Cfg::build(&k);
        // entry [0,1), loop [1,4), exit [4,5)
        assert_eq!(cfg.blocks().len(), 3);
        let body = &cfg.blocks()[1];
        assert!(body.successors.contains(&1), "back edge");
        assert!(body.successors.contains(&2), "fall-through");
        assert_eq!(body.predecessors.len(), 2, "entry + itself");
        assert!(cfg.reachable().iter().all(|&r| r));
        assert!(cfg.can_exit(&k.code).iter().all(|&e| e));
    }

    #[test]
    fn code_after_unconditional_branch_is_unreachable() {
        let k = assemble("s_branch end\nv_mov_b32 v1, 2.0\nend:\ns_endpgm").unwrap();
        let cfg = Cfg::build(&k);
        assert_eq!(cfg.blocks().len(), 3);
        let reach = cfg.reachable();
        assert!(reach[0] && reach[2]);
        assert!(!reach[1], "skipped block must be unreachable");
    }

    #[test]
    fn self_loop_cannot_exit() {
        let k = assemble("spin:\ns_branch spin\ns_endpgm").unwrap();
        let cfg = Cfg::build(&k);
        let exit = cfg.can_exit(&k.code);
        // Blocks in program order: the spin [0,1), then the endpgm [1,2).
        assert!(!exit[0], "spin block has no path out");
        let reach = cfg.reachable();
        assert!(!reach[1], "endpgm is dead code here");
    }
}
