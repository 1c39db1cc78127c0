//! Static per-wave cycle-bound analysis.
//!
//! Proves a worst-case simulated-cycle bound for one wavefront of a
//! kernel, or reports `Unbounded` with the offending branch. The bound
//! is a verifier finding; the engine keeps its fixed watchdog budget.
//! DESIGN.md §14 gives the soundness argument.
//!
//! # Algorithm
//!
//! Scalar control flow is wave-uniform by ISA construction (branches
//! read SCC, which only scalar compares write), so a path-insensitive
//! analysis over the CFG bounds every lane simultaneously:
//!
//! 1. **SGPR must-constant propagation** — a forward fixpoint over the
//!    CFG with the lattice `Option<i32>` per scalar register (`None` =
//!    unknown). Transfers cover the scalar ALU (`s_mov`/`s_add`/
//!    `s_sub`/`s_mul`/`s_lshl`/`s_and`) with known operands; scalar
//!    loads and `v_readlane_b32` clobber to unknown. Dispatch zeroes
//!    all SGPRs before copying launch arguments, so with known launch
//!    arguments every entry register is a constant; without them all
//!    registers start unknown (the argument count is not part of the
//!    kernel).
//! 2. **Loop-bound inference** — every retreating CFG edge (target
//!    block starts at or before the source block) must be a self-loop
//!    matching the compiler's counted-loop idiom:
//!    `s_add_i32 ivar, ivar, step` (single def, positive immediate
//!    step, before the compare) … `s_cmp_lt_i32 ivar, bound` …
//!    `s_cbranch_scc1 <block start>`, with `bound` a must-constant at
//!    the compare and `ivar` a must-constant on entry from outside the
//!    loop. The trip count is `ceil((bound - init) / step)`, at least 1
//!    (the body executes once before the test). Any other retreating
//!    edge — or a matched loop whose bound or init cannot be proven —
//!    yields [`CycleBound::Unbounded`].
//! 3. **Longest path** — with all self-loops collapsed to a single node
//!    weighted `trip_count × block cost`, every remaining edge strictly
//!    increases the program counter, so the graph is a DAG in program
//!    order; the bound is the longest-path cost over reachable blocks
//!    (a superset of paths reaching `s_endpgm`, hence sound for every
//!    terminating *and* faulting execution — a fault only ever cuts a
//!    path short).
//!
//! Trip counts and path sums are accumulated in `u128` and clamped to
//! `u64::MAX` on return, so arithmetic never wraps below the bound.

use rtad_miaow::exec::CostModel;
use rtad_miaow::isa::{Instr, Kernel, SSrc, Sreg, SGPR_COUNT};

use crate::cfg::Cfg;

/// Result of the static cycle-bound analysis for one kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CycleBound {
    /// Every wavefront of the kernel retires (or faults) within this
    /// many simulated cycles, excluding dispatch overhead.
    Bounded(u64),
    /// No finite bound could be proven; `pc` is the branch terminating
    /// the offending back edge.
    Unbounded {
        /// Instruction index of the unprovable back edge's branch.
        pc: usize,
    },
}

impl CycleBound {
    /// The proven bound, if one exists.
    #[must_use]
    pub fn as_bounded(&self) -> Option<u64> {
        match *self {
            CycleBound::Bounded(c) => Some(c),
            CycleBound::Unbounded { .. } => None,
        }
    }
}

impl std::fmt::Display for CycleBound {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            CycleBound::Bounded(c) => write!(f, "bounded: {c} cycles/wave"),
            CycleBound::Unbounded { pc } => write!(f, "unbounded (back edge at pc {pc})"),
        }
    }
}

/// Per-register must-constant state: `None` means "not provably one
/// value on every execution reaching this point".
type ConstState = Vec<Option<i32>>;

fn eval_ssrc(state: &ConstState, src: SSrc) -> Option<i32> {
    match src {
        SSrc::Imm(i) => Some(i),
        SSrc::Reg(r) => state[usize::from(r.0)],
    }
}

/// Applies one instruction's effect on scalar registers. Semantics
/// mirror the interpreter's scalar ALU exactly (wrapping two's
/// complement, shift amounts masked to 5 bits).
fn transfer(state: &mut ConstState, instr: &Instr) {
    let binop = |state: &ConstState, a: SSrc, b: SSrc, f: fn(i32, i32) -> i32| {
        Some(f(eval_ssrc(state, a)?, eval_ssrc(state, b)?))
    };
    match *instr {
        Instr::SMovB32 { dst, src } => {
            state[usize::from(dst.0)] = eval_ssrc(state, src);
        }
        Instr::SAddI32 { dst, a, b } => {
            state[usize::from(dst.0)] = binop(state, a, b, i32::wrapping_add);
        }
        Instr::SSubI32 { dst, a, b } => {
            state[usize::from(dst.0)] = binop(state, a, b, i32::wrapping_sub);
        }
        Instr::SMulI32 { dst, a, b } => {
            state[usize::from(dst.0)] = binop(state, a, b, i32::wrapping_mul);
        }
        Instr::SLshlB32 { dst, a, shift } => {
            state[usize::from(dst.0)] = binop(state, a, shift, |x, s| {
                ((x as u32) << (s as u32 & 31)) as i32
            });
        }
        Instr::SAndB32 { dst, a, b } => {
            state[usize::from(dst.0)] = binop(state, a, b, |x, y| x & y);
        }
        Instr::SLoadDword { dst, .. } | Instr::VReadlaneB32 { dst, .. } => {
            state[usize::from(dst.0)] = None;
        }
        _ => {}
    }
}

/// Joins `from` into `into`; returns true if `into` changed.
fn join_into(into: &mut ConstState, from: &ConstState) -> bool {
    let mut changed = false;
    for (cur, new) in into.iter_mut().zip(from) {
        if cur.is_some() && cur != new {
            *cur = None;
            changed = true;
        }
    }
    changed
}

/// Forward must-constant fixpoint; returns the block-entry state for
/// every block (`None` = unreachable).
fn const_fixpoint(cfg: &Cfg, code: &[Instr], entry: ConstState) -> Vec<Option<ConstState>> {
    let blocks = cfg.blocks();
    let mut ins: Vec<Option<ConstState>> = vec![None; blocks.len()];
    let entry_block = cfg.block_of(0);
    ins[entry_block] = Some(entry);
    let mut work = vec![entry_block];
    while let Some(b) = work.pop() {
        let mut st = ins[b].clone().expect("worklist blocks have a state");
        for pc in blocks[b].range() {
            transfer(&mut st, &code[pc]);
        }
        for &s in &blocks[b].successors {
            let changed = match &mut ins[s] {
                Some(cur) => join_into(cur, &st),
                slot @ None => {
                    *slot = Some(st.clone());
                    true
                }
            };
            if changed {
                work.push(s);
            }
        }
    }
    ins
}

/// The out-state of a block, from its in-state.
fn block_out(
    cfg: &Cfg,
    code: &[Instr],
    ins: &[Option<ConstState>],
    b: usize,
) -> Option<ConstState> {
    let mut st = ins[b].clone()?;
    for pc in cfg.blocks()[b].range() {
        transfer(&mut st, &code[pc]);
    }
    Some(st)
}

fn writes_sgpr(instr: &Instr, reg: Sreg) -> bool {
    match *instr {
        Instr::SMovB32 { dst, .. }
        | Instr::SAddI32 { dst, .. }
        | Instr::SSubI32 { dst, .. }
        | Instr::SMulI32 { dst, .. }
        | Instr::SLshlB32 { dst, .. }
        | Instr::SAndB32 { dst, .. }
        | Instr::SLoadDword { dst, .. }
        | Instr::VReadlaneB32 { dst, .. } => dst == reg,
        _ => false,
    }
}

/// Matches the counted-loop idiom on self-loop block `bi` and returns
/// its trip count, or `None` if the loop cannot be bounded.
fn self_loop_trips(
    cfg: &Cfg,
    code: &[Instr],
    ins: &[Option<ConstState>],
    bi: usize,
) -> Option<u128> {
    let b = &cfg.blocks()[bi];
    let term = b.terminator();
    let Instr::SCbranchScc1 { target } = code[term] else {
        return None;
    };
    if target != b.start || term == b.start {
        return None;
    }
    let Instr::SCmpLtI32 {
        a: SSrc::Reg(ivar),
        b: bound_src,
    } = code[term - 1]
    else {
        return None;
    };

    // Exactly one def of the induction variable inside the loop body, a
    // positive-immediate add positioned before the compare (so the
    // compared value after n bodies is init + n*step).
    let mut step: Option<i64> = None;
    for (pc, instr) in code.iter().enumerate().take(term).skip(b.start) {
        if !writes_sgpr(instr, ivar) {
            continue;
        }
        if step.is_some() || pc >= term - 1 {
            return None;
        }
        match *instr {
            Instr::SAddI32 { a, b: addend, .. } => {
                let s = match (a, addend) {
                    (SSrc::Reg(r), SSrc::Imm(i)) | (SSrc::Imm(i), SSrc::Reg(r)) if r == ivar => i,
                    _ => return None,
                };
                if s <= 0 {
                    return None;
                }
                step = Some(i64::from(s));
            }
            _ => return None,
        }
    }
    let step = step?;

    // Loop-invariant bound at the compare: the fixpoint in-state
    // already joins the back edge, so anything iteration-varying is
    // unknown there; propagating to the compare is a sound
    // must-constant for every iteration's test.
    let mut st = ins[bi].clone()?;
    for instr in &code[b.start..term - 1] {
        transfer(&mut st, instr);
    }
    let bound = i64::from(eval_ssrc(&st, bound_src)?);

    // Initial value: joined over every predecessor outside the loop.
    // (A self-loop on the entry block stays unproven: its fixpoint
    // in-state already mixes in the back edge.)
    let mut init: Option<Option<i64>> = None;
    for &p in &b.predecessors {
        if p == bi {
            continue;
        }
        let Some(out) = block_out(cfg, code, ins, p) else {
            continue; // unreachable predecessor contributes no executions
        };
        let v = out[usize::from(ivar.0)].map(i64::from);
        init = Some(match init {
            None => v,
            Some(prev) if prev == v => prev,
            Some(_) => None,
        });
    }
    let init = init.flatten()?;

    if bound <= init {
        return Some(1); // the body still executes once before the test
    }
    let span = bound - init;
    Some(u128::try_from((span + step - 1) / step).ok()?.max(1))
}

/// Computes the static per-wave cycle bound of `kernel` under `cost`.
///
/// `known_args` seeds the constant propagation with the exact launch
/// arguments (remaining SGPRs are architecturally zero at dispatch);
/// pass `None` for a launch-independent bound, which leaves every
/// entry SGPR unknown. Bounds proven with `None` therefore hold for
/// *every* launch of the kernel.
#[must_use]
pub fn cycle_bound(kernel: &Kernel, cost: &CostModel, known_args: Option<&[u32]>) -> CycleBound {
    let code = &kernel.code;
    let cfg = Cfg::build(kernel);
    let blocks = cfg.blocks();

    let entry: ConstState = match known_args {
        Some(args) => {
            let mut st = vec![Some(0); SGPR_COUNT];
            for (slot, &a) in st.iter_mut().zip(args) {
                *slot = Some(a as i32);
            }
            st
        }
        None => vec![None; SGPR_COUNT],
    };
    let ins = const_fixpoint(&cfg, code, entry);

    // Every retreating edge must be a provable self-loop; collapse each
    // to a trip-count multiplier.
    let mut trips: Vec<u128> = vec![1; blocks.len()];
    for (bi, b) in blocks.iter().enumerate() {
        if ins[bi].is_none() {
            continue; // unreachable
        }
        for &s in &b.successors {
            if blocks[s].start > b.start {
                continue; // forward edge
            }
            if s != bi {
                return CycleBound::Unbounded { pc: b.terminator() };
            }
            match self_loop_trips(&cfg, code, &ins, bi) {
                Some(t) => trips[bi] = t,
                None => return CycleBound::Unbounded { pc: b.terminator() },
            }
        }
    }

    // All remaining edges strictly increase the start pc, so blocks in
    // index order are already topologically sorted: longest path.
    let mut dist: Vec<u128> = vec![0; blocks.len()];
    let mut best: u128 = 0;
    for (bi, b) in blocks.iter().enumerate() {
        if ins[bi].is_none() {
            continue;
        }
        let body: u128 = b.range().map(|pc| u128::from(cost.cost(&code[pc]))).sum();
        let from_preds = b
            .predecessors
            .iter()
            .filter(|&&p| p != bi && ins[p].is_some())
            .map(|&p| dist[p])
            .max()
            .unwrap_or(0);
        dist[bi] = from_preds + body * trips[bi];
        best = best.max(dist[bi]);
    }
    CycleBound::Bounded(u64::try_from(best).unwrap_or(u64::MAX))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtad_miaow::asm::assemble;

    fn bound_of(src: &str) -> CycleBound {
        cycle_bound(&assemble(src).unwrap(), &CostModel::default(), None)
    }

    #[test]
    fn straight_line_bound_is_exact_instruction_cost_sum() {
        let k = assemble(
            "v_mov_b32 v1, 1.0\n\
             v_exp_f32 v2, v1\n\
             s_endpgm",
        )
        .unwrap();
        let cost = CostModel::default();
        let want: u64 = k.code.iter().map(|i| cost.cost(i)).sum();
        assert_eq!(cycle_bound(&k, &cost, None), CycleBound::Bounded(want));
    }

    #[test]
    fn counted_loop_multiplies_body_cost_by_trip_count() {
        let src = "s_mov_b32 s10, 0\n\
                   top:\n\
                   v_add_f32 v1, 1.0, v1\n\
                   s_add_i32 s10, s10, 1\n\
                   s_cmp_lt_i32 s10, 7\n\
                   s_cbranch_scc1 top\n\
                   s_endpgm";
        let k = assemble(src).unwrap();
        let cost = CostModel::default();
        // entry s_mov (1) + 7 * (valu 2 + s_add 1 + s_cmp 1 + branch 1) + endpgm 1
        let want = 1 + 7 * (2 + 1 + 1 + 1) + 1;
        assert_eq!(cycle_bound(&k, &cost, None), CycleBound::Bounded(want));
    }

    #[test]
    fn bound_from_launch_args_needs_the_args() {
        let src = "s_mov_b32 s10, 0\n\
                   top:\n\
                   s_add_i32 s10, s10, 1\n\
                   s_cmp_lt_i32 s10, s2\n\
                   s_cbranch_scc1 top\n\
                   s_endpgm";
        let k = assemble(src).unwrap();
        let cost = CostModel::default();
        assert_eq!(
            cycle_bound(&k, &cost, None),
            CycleBound::Unbounded { pc: 3 }
        );
        assert_eq!(
            cycle_bound(&k, &cost, Some(&[0, 0, 3])),
            CycleBound::Bounded(1 + 3 * 3 + 1)
        );
    }

    #[test]
    fn unconditional_spin_loop_is_unbounded() {
        assert!(matches!(
            bound_of("top:\ns_branch top\ns_endpgm"),
            CycleBound::Unbounded { pc: 0 }
        ));
    }

    #[test]
    fn loop_counter_clobbered_by_load_is_unbounded() {
        let src = "s_mov_b32 s10, 0\n\
                   top:\n\
                   s_load_dword s10, s0, 0\n\
                   s_add_i32 s10, s10, 1\n\
                   s_cmp_lt_i32 s10, 7\n\
                   s_cbranch_scc1 top\n\
                   s_endpgm";
        assert!(matches!(bound_of(src), CycleBound::Unbounded { .. }));
    }

    #[test]
    fn do_while_with_exhausted_bound_runs_once() {
        let src = "s_mov_b32 s10, 9\n\
                   top:\n\
                   s_add_i32 s10, s10, 1\n\
                   s_cmp_lt_i32 s10, 3\n\
                   s_cbranch_scc1 top\n\
                   s_endpgm";
        let k = assemble(src).unwrap();
        let cost = CostModel::default();
        assert_eq!(cycle_bound(&k, &cost, None), CycleBound::Bounded(1 + 3 + 1));
    }

    #[test]
    fn two_sequential_loops_and_a_diamond_compose() {
        let src = "s_mov_b32 s10, 0\n\
                   xloop:\n\
                   s_add_i32 s10, s10, 1\n\
                   s_cmp_lt_i32 s10, 4\n\
                   s_cbranch_scc1 xloop\n\
                   s_cmp_eq_i32 s10, 4\n\
                   s_cbranch_scc1 skip\n\
                   v_mov_b32 v1, 2.0\n\
                   skip:\n\
                   s_mov_b32 s10, 0\n\
                   yloop:\n\
                   s_add_i32 s10, s10, 1\n\
                   s_cmp_lt_i32 s10, 5\n\
                   s_cbranch_scc1 yloop\n\
                   s_endpgm";
        let k = assemble(src).unwrap();
        let cost = CostModel::default();
        // 1 + 4*3 + 2 (diamond test) + 2 (v_mov, longest arm) + 1 (s_mov)
        // + 5*3 + 1 (endpgm)
        assert_eq!(
            cycle_bound(&k, &cost, None),
            CycleBound::Bounded(1 + 12 + 2 + 2 + 1 + 15 + 1)
        );
    }
}
