//! Predecoded (dispatch-optimized) kernel form and its per-engine cache.
//!
//! The interpreter's original hot loop re-derived everything about an
//! instruction on every execution: `Feature::of_instr` allocated a
//! `Vec<Feature>` per executed instruction, the cost model re-matched
//! the full `Instr` enum, and trimmed-feature traps re-queried a
//! `BTreeSet` per feature. For the per-event LSTM/ELM launches of
//! `rtad-ml` — thousands of executed instructions per inference event —
//! that walk dominated host wall-clock.
//!
//! Lowering happens once per kernel instead: every instruction becomes a
//! [`PreInstr`] carrying its precomputed cycle cost, its coverage
//! features as a single [`Feature::bit`] mask, and — when the engine is
//! trimmed — the trap verdict (which feature faults, and which features
//! of the same instruction were already recorded when the serial path
//! trapped, so error-path coverage stays bit-identical). Branch targets
//! are already resolved instruction indices in [`Instr`]; the lowered
//! form keeps them and the executor dispatches on the copied `Instr`
//! without any per-step feature or cost derivation.
//!
//! The [`Engine`](crate::engine::Engine) caches lowered kernels by
//! [`Kernel::fingerprint`] — the same content fingerprint
//! `rtad-analysis`'s `VerifiedEngine` keys its static verdicts with —
//! so repeated launches of the same kernel (the steady state of every
//! detection run) skip lowering entirely.

use std::collections::HashMap;
use std::sync::Arc;

use crate::coverage::{CoverageSet, Feature};
use crate::exec::CostModel;
use crate::isa::{Instr, Kernel, SSrc, VSrc, SGPR_COUNT, WAVEFRONT_LANES};

/// The five always-exercised core datapath features, as a mask. The
/// engine records these once per *launch* (they are per-run facts, not
/// per-wave facts — every launch fetches, issues and touches both
/// register files).
pub(crate) const CORE_FEATURE_MASK: u64 = Feature::Fetch.bit()
    | Feature::IssueLogic.bit()
    | Feature::WavefrontCtl.bit()
    | Feature::SgprFile.bit()
    | Feature::VgprFile.bit();

/// A trimmed-feature trap precomputed at lowering time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PreTrap {
    /// The first feature of the instruction outside the retained set
    /// (iteration order of [`Feature::of_instr`], matching the serial
    /// reference).
    pub feature: Feature,
    /// Features of the same instruction listed *before* the trapping
    /// one: the serial path records them before faulting, so the
    /// predecoded error path must too.
    pub prior_mask: u64,
}

/// One lowered instruction: the architectural op plus everything the
/// dispatch loop would otherwise re-derive per execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PreInstr {
    /// The architectural instruction (branch targets are resolved
    /// instruction indices already).
    pub instr: Instr,
    /// Precomputed cycle cost under the engine's [`CostModel`].
    pub cost: u64,
    /// Coverage features as a [`Feature::bit`] mask.
    pub mask: u64,
    /// `Some` iff executing this instruction traps on the engine's
    /// trimmed configuration.
    pub trap: Option<PreTrap>,
}

/// A pre-resolved vector operand of a tier-2 lane op: the lowering has
/// already classified the `VSrc` so the lane loop never re-matches it
/// per lane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum POp {
    /// Per-lane vector register.
    V(u8),
    /// Broadcast scalar register (read at execution time — scalar ops
    /// earlier in the block may have written it).
    S(u8),
    /// Broadcast immediate bit pattern.
    K(u32),
}

/// A pre-resolved scalar operand.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum PS {
    /// Scalar register.
    S(u8),
    /// Immediate bit pattern.
    K(u32),
}

/// The operation of one fused lane op — a lane-local VALU instruction
/// that reads and writes only per-lane vector state (plus uniform
/// scalar/immediate broadcasts and, for `Cndmask`, the `vcc` produced
/// before the group). Runs of these execute as tight 16-wide loops over
/// contiguous register-file rows with no per-instruction dispatch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum LaneKind {
    /// `v_mov_b32`.
    Mov,
    /// `v_add_f32`.
    AddF,
    /// `v_sub_f32`.
    SubF,
    /// `v_mul_f32`.
    MulF,
    /// `v_mac_f32` (`dst += a * b`).
    MacF,
    /// `v_max_f32`.
    MaxF,
    /// `v_min_f32`.
    MinF,
    /// `v_exp_f32`.
    ExpF,
    /// `v_rcp_f32`.
    RcpF,
    /// `v_log_f32`.
    LogF,
    /// `v_add_i32`.
    AddI,
    /// `v_mul_i32`.
    MulI,
    /// `v_and_b32`.
    And,
    /// `v_lshl_b32` (`b` is the shift amount).
    Lshl,
    /// `v_cvt_f32_i32`.
    CvtF32I32,
    /// `v_cvt_i32_f32`.
    CvtI32F32,
    /// `v_cndmask_b32` (reads `vcc`).
    Cndmask,
}

/// One fused lane op: kind + pre-resolved operands. `b` is unused by
/// unary kinds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct LaneOp {
    pub kind: LaneKind,
    pub dst: u8,
    pub a: POp,
    pub b: POp,
}

/// One tier-2 macro-op. A superblock is a sequence of these; `rel`
/// fields are the op's instruction offset within the block, so faulting
/// macro-ops report the exact architectural `pc` (`block.start + rel`)
/// and the executor can reconstruct the interpreter's per-instruction
/// bookkeeping prefix on the error path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum MacroOp {
    /// `n` fused lane-local vector ops starting at
    /// [`SuperTrace::lane_ops`]`[start]`, executed as lane loops.
    Lanes { start: u32, n: u32 },
    /// `s_mov_b32`.
    SMov { dst: u8, src: PS },
    /// `s_add_i32`.
    SAddI { dst: u8, a: PS, b: PS },
    /// `s_sub_i32`.
    SSubI { dst: u8, a: PS, b: PS },
    /// `s_mul_i32`.
    SMulI { dst: u8, a: PS, b: PS },
    /// `s_and_b32`.
    SAndB { dst: u8, a: PS, b: PS },
    /// `s_lshl_b32`.
    SLshl { dst: u8, a: PS, shift: PS },
    /// `s_cmp_lt_i32`.
    SCmpLt { a: PS, b: PS },
    /// `s_cmp_eq_i32`.
    SCmpEq { a: PS, b: PS },
    /// `s_barrier` / `s_waitcnt`: cycle cost only, no architectural
    /// effect in this single-wavefront-per-workgroup model.
    SNop,
    /// `s_load_dword` (can fault: `rel` locates the instruction).
    SLoad {
        dst: u8,
        base: u8,
        offset: u32,
        rel: u32,
    },
    /// `s_and_exec_vcc`.
    AndExecVcc,
    /// `s_mov_exec_all`.
    MovExecAll,
    /// `v_cmp_gt_f32` (writes `vcc`, so never inside a `Lanes` group).
    VCmpGt { a: POp, b: u8 },
    /// `v_cmp_lt_f32`.
    VCmpLt { a: POp, b: u8 },
    /// `v_readlane_b32` (writes an SGPR).
    Readlane { dst: u8, src: u8, lane: u8 },
    /// `v_writelane_b32` (ignores `exec`).
    Writelane { dst: u8, src: PS, lane: u8 },
    /// `buffer_load_dword`.
    BufLoad {
        dst: u8,
        vaddr: u8,
        sbase: u8,
        rel: u32,
    },
    /// `buffer_store_dword`.
    BufStore {
        src: u8,
        vaddr: u8,
        sbase: u8,
        rel: u32,
    },
    /// `ds_read_b32`.
    LdsRead { dst: u8, addr: u8, rel: u32 },
    /// `ds_write_b32`.
    LdsWrite { addr: u8, src: u8, rel: u32 },
}

/// One straight-line superblock: `len` consecutive instructions starting
/// at `start`, none of which is control flow or a trimmed-feature trap
/// site. Cost and coverage are pre-totalled so the executor books the
/// whole block in O(1) on the success path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Superblock {
    /// Instruction index of the block's first instruction.
    pub start: u32,
    /// Number of source instructions covered.
    pub len: u32,
    /// Total cycle cost of the block.
    pub cost: u64,
    /// OR of every covered instruction's feature mask.
    pub mask: u64,
    /// First macro-op in [`SuperTrace::ops`].
    pub op_start: u32,
    /// Macro-op count.
    pub op_len: u32,
}

/// The tier-2 lowering of a kernel: superblocks over a flat macro-op /
/// lane-op pool, plus a dense `pc -> block` lookup. Blocks are built at
/// every leader (entry, branch target, post-control-flow fall-through)
/// and extend maximally — through later leaders — until the next control
/// flow or trap site, so overlapping tails are duplicated rather than
/// split (a superblock, not a basic-block, formation).
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct SuperTrace {
    pub blocks: Vec<Superblock>,
    pub ops: Vec<MacroOp>,
    pub lane_ops: Vec<LaneOp>,
    /// `pc -> block index + 1`; `0` = no block starts at `pc`.
    pub block_at: Vec<u32>,
    /// Per-block fused dot-step lowering (parallel to `blocks`):
    /// `Some` iff the block matches the counted MAC-loop body shape,
    /// letting tier 3 execute runs of the block as one tight loop.
    pub dot_loops: Vec<Option<DotLoop>>,
    /// `Lanes` groups that fused ≥ 2 source instructions.
    pub fused_groups: u32,
    /// Lane ops inside those multi-op groups.
    pub fused_lane_ops: u32,
}

/// The memory source of a [`DotLoop`]'s uniform (broadcast) load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum DotUniformSrc {
    /// `ds_read_b32` from LDS.
    Lds,
    /// `buffer_load_dword` relative to `sgpr[sbase]`.
    Buf { sbase: u8 },
}

/// The fused lowering of one counted MAC-loop body — the dominant
/// block shape in the model kernels' dot-product inner loops:
///
/// ```text
/// [s_add_i32  s_pre, a, b]                    (optional)
/// v_mov_b32   v_addr, s_u                     (broadcast scalar addr)
/// ds_read/buffer_load v_w, v_addr[, sbase]    (uniform weight load)
/// v_add_i32   v_gather, s_off, v_base         (per-lane addresses)
/// ds_read_b32 v_x, v_gather                   (strided activation load)
/// v_mac_f32   v_acc, v_w, v_x                 (16-lane FMA)
/// s_add_i32   … ; s_add_i32 …                 (offset/counter bumps)
/// s_cmp_lt_i32 …                              (loop condition)
/// ```
///
/// Tier 3 executes a *run* of consecutive schedule steps on such a
/// block as one monomorphic loop with no per-op dispatch, no `Result`
/// plumbing on the hot path and no per-op uniformity scans. Every
/// architectural update (register writes, wrapping-i32 arithmetic,
/// `scc`, lane order of reads, fault addresses/pcs and partial-write
/// prefixes) mirrors `run_block` exactly, so the fusion is
/// bit-identical — it removes interpreter overhead, not work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct DotLoop {
    /// Leading `s_add_i32 dst, a, b`, if the body has one.
    pub pre: Option<(u8, PS, PS)>,
    /// `v_mov_b32 dst, s_u`: broadcast of the uniform address.
    pub mov: (u8, u8),
    /// Uniform load: destination vreg, address vreg (== `mov.0`),
    /// source, instruction offset in the block (fault pc).
    pub uload: (u8, u8, DotUniformSrc, u32),
    /// `v_add_i32 dst, a, b` forming the gather addresses (operands in
    /// source order; exactly one scalar and one vreg).
    pub oadd: (u8, POp, POp),
    /// Strided `ds_read_b32`: destination vreg, instruction offset.
    pub sread: (u8, u32),
    /// `v_mac_f32 acc, a, b` (both operands vregs).
    pub mac: (u8, u8, u8),
    /// The two trailing `s_add_i32`s (offset bump, counter bump).
    pub post: [(u8, PS, PS); 2],
    /// `s_cmp_lt_i32 a, b`.
    pub cmp: (PS, PS),
}

impl DotLoop {
    /// Matches one superblock's macro-op sequence against the counted
    /// MAC-loop body shape. Purely structural: the executor mirrors
    /// each matched op's exact semantics, so no dataflow between the
    /// ops needs to be assumed here.
    fn try_match(ops: &[MacroOp], lane_ops: &[LaneOp]) -> Option<DotLoop> {
        let lane1 = |op: &MacroOp| -> Option<LaneOp> {
            match *op {
                MacroOp::Lanes { start, n: 1 } => Some(lane_ops[start as usize]),
                _ => None,
            }
        };
        let mut it = ops.iter();
        let mut op = it.next()?;
        let pre = match *op {
            MacroOp::SAddI { dst, a, b } => {
                op = it.next()?;
                Some((dst, a, b))
            }
            _ => None,
        };
        let mov = match lane1(op)? {
            LaneOp {
                kind: LaneKind::Mov,
                dst,
                a: POp::S(s),
                ..
            } => (dst, s),
            _ => return None,
        };
        let uload = match *it.next()? {
            MacroOp::LdsRead { dst, addr, rel } if addr == mov.0 => {
                (dst, addr, DotUniformSrc::Lds, rel)
            }
            MacroOp::BufLoad {
                dst,
                vaddr,
                sbase,
                rel,
            } if vaddr == mov.0 => (dst, vaddr, DotUniformSrc::Buf { sbase }, rel),
            _ => return None,
        };
        let oadd = match lane1(it.next()?)? {
            LaneOp {
                kind: LaneKind::AddI,
                dst,
                a,
                b,
            } if matches!((a, b), (POp::S(_), POp::V(_)) | (POp::V(_), POp::S(_))) => (dst, a, b),
            _ => return None,
        };
        let sread = match *it.next()? {
            MacroOp::LdsRead { dst, addr, rel } if addr == oadd.0 => (dst, rel),
            _ => return None,
        };
        let mac = match lane1(it.next()?)? {
            LaneOp {
                kind: LaneKind::MacF,
                dst,
                a: POp::V(a),
                b: POp::V(b),
            } => (dst, a, b),
            _ => return None,
        };
        let post0 = match *it.next()? {
            MacroOp::SAddI { dst, a, b } => (dst, a, b),
            _ => return None,
        };
        let post1 = match *it.next()? {
            MacroOp::SAddI { dst, a, b } => (dst, a, b),
            _ => return None,
        };
        let cmp = match *it.next()? {
            MacroOp::SCmpLt { a, b } => (a, b),
            _ => return None,
        };
        it.next().is_none().then_some(DotLoop {
            pre,
            mov,
            uload,
            oadd,
            sread,
            mac,
            post: [post0, post1],
            cmp,
        })
    }
}

fn pop(v: &VSrc) -> POp {
    match v {
        VSrc::Vreg(r) => POp::V(r.0),
        VSrc::Sreg(r) => POp::S(r.0),
        VSrc::ImmF(x) => POp::K(x.to_bits()),
        VSrc::ImmB(b) => POp::K(*b),
    }
}

fn ps(s: &SSrc) -> PS {
    match s {
        SSrc::Reg(r) => PS::S(r.0),
        SSrc::Imm(i) => PS::K(*i as u32),
    }
}

/// The lane-local fusion set: lowers `instr` to a [`LaneOp`] iff it
/// reads and writes only per-lane vector state (never `sgpr`, `vcc`,
/// `scc` or `exec`), which is what makes consecutive runs fusable into
/// one group under a fixed `exec`.
fn lane_lower(instr: &Instr) -> Option<LaneOp> {
    let op = |kind, dst: &crate::isa::Vreg, a, b| LaneOp {
        kind,
        dst: dst.0,
        a,
        b,
    };
    Some(match instr {
        Instr::VMovB32 { dst, src } => op(LaneKind::Mov, dst, pop(src), POp::K(0)),
        Instr::VAddF32 { dst, a, b } => op(LaneKind::AddF, dst, pop(a), POp::V(b.0)),
        Instr::VSubF32 { dst, a, b } => op(LaneKind::SubF, dst, pop(a), POp::V(b.0)),
        Instr::VMulF32 { dst, a, b } => op(LaneKind::MulF, dst, pop(a), POp::V(b.0)),
        Instr::VMacF32 { dst, a, b } => op(LaneKind::MacF, dst, pop(a), POp::V(b.0)),
        Instr::VMaxF32 { dst, a, b } => op(LaneKind::MaxF, dst, pop(a), POp::V(b.0)),
        Instr::VMinF32 { dst, a, b } => op(LaneKind::MinF, dst, pop(a), POp::V(b.0)),
        Instr::VExpF32 { dst, src } => op(LaneKind::ExpF, dst, pop(src), POp::K(0)),
        Instr::VRcpF32 { dst, src } => op(LaneKind::RcpF, dst, pop(src), POp::K(0)),
        Instr::VLogF32 { dst, src } => op(LaneKind::LogF, dst, pop(src), POp::K(0)),
        Instr::VAddI32 { dst, a, b } => op(LaneKind::AddI, dst, pop(a), POp::V(b.0)),
        Instr::VMulI32 { dst, a, b } => op(LaneKind::MulI, dst, pop(a), POp::V(b.0)),
        Instr::VAndB32 { dst, a, b } => op(LaneKind::And, dst, pop(a), POp::V(b.0)),
        Instr::VLshlB32 { dst, a, shift } => op(LaneKind::Lshl, dst, pop(a), pop(shift)),
        Instr::VCvtF32I32 { dst, src } => op(LaneKind::CvtF32I32, dst, pop(src), POp::K(0)),
        Instr::VCvtI32F32 { dst, src } => op(LaneKind::CvtI32F32, dst, pop(src), POp::K(0)),
        Instr::VCndmaskB32 { dst, a, b } => op(LaneKind::Cndmask, dst, pop(a), POp::V(b.0)),
        _ => return None,
    })
}

/// Lowers a non-fusable straight-line instruction to its macro-op.
fn macro_lower(instr: &Instr, rel: u32) -> MacroOp {
    match instr {
        Instr::SMovB32 { dst, src } => MacroOp::SMov {
            dst: dst.0,
            src: ps(src),
        },
        Instr::SAddI32 { dst, a, b } => MacroOp::SAddI {
            dst: dst.0,
            a: ps(a),
            b: ps(b),
        },
        Instr::SSubI32 { dst, a, b } => MacroOp::SSubI {
            dst: dst.0,
            a: ps(a),
            b: ps(b),
        },
        Instr::SMulI32 { dst, a, b } => MacroOp::SMulI {
            dst: dst.0,
            a: ps(a),
            b: ps(b),
        },
        Instr::SAndB32 { dst, a, b } => MacroOp::SAndB {
            dst: dst.0,
            a: ps(a),
            b: ps(b),
        },
        Instr::SLshlB32 { dst, a, shift } => MacroOp::SLshl {
            dst: dst.0,
            a: ps(a),
            shift: ps(shift),
        },
        Instr::SCmpLtI32 { a, b } => MacroOp::SCmpLt { a: ps(a), b: ps(b) },
        Instr::SCmpEqI32 { a, b } => MacroOp::SCmpEq { a: ps(a), b: ps(b) },
        Instr::SBarrier | Instr::SWaitcnt => MacroOp::SNop,
        Instr::SLoadDword { dst, base, offset } => MacroOp::SLoad {
            dst: dst.0,
            base: base.0,
            offset: *offset,
            rel,
        },
        Instr::SAndExecVcc => MacroOp::AndExecVcc,
        Instr::SMovExecAll => MacroOp::MovExecAll,
        Instr::VCmpGtF32 { a, b } => MacroOp::VCmpGt { a: pop(a), b: b.0 },
        Instr::VCmpLtF32 { a, b } => MacroOp::VCmpLt { a: pop(a), b: b.0 },
        Instr::VReadlaneB32 { dst, src, lane } => MacroOp::Readlane {
            dst: dst.0,
            src: src.0,
            lane: *lane,
        },
        Instr::VWritelaneB32 { dst, src, lane } => MacroOp::Writelane {
            dst: dst.0,
            src: ps(src),
            lane: *lane,
        },
        Instr::BufferLoadDword { dst, vaddr, sbase } => MacroOp::BufLoad {
            dst: dst.0,
            vaddr: vaddr.0,
            sbase: sbase.0,
            rel,
        },
        Instr::BufferStoreDword { src, vaddr, sbase } => MacroOp::BufStore {
            src: src.0,
            vaddr: vaddr.0,
            sbase: sbase.0,
            rel,
        },
        Instr::DsReadB32 { dst, addr } => MacroOp::LdsRead {
            dst: dst.0,
            addr: addr.0,
            rel,
        },
        Instr::DsWriteB32 { addr, src } => MacroOp::LdsWrite {
            addr: addr.0,
            src: src.0,
            rel,
        },
        // Control flow and fusable ops never reach macro_lower.
        _ => unreachable!("not a straight-line macro-op: {instr:?}"),
    }
}

impl SuperTrace {
    /// Builds the tier-2 trace over an already tier-1-lowered kernel.
    fn build(code: &[PreInstr]) -> Self {
        let n = code.len();
        let mut leader = vec![false; n];
        if n > 0 {
            leader[0] = true;
        }
        for (i, p) in code.iter().enumerate() {
            match p.instr {
                Instr::SBranch { target }
                | Instr::SCbranchScc1 { target }
                | Instr::SCbranchScc0 { target } => {
                    leader[target] = true;
                    if i + 1 < n {
                        leader[i + 1] = true;
                    }
                }
                Instr::SEndpgm if i + 1 < n => leader[i + 1] = true,
                _ => {}
            }
        }

        let mut trace = SuperTrace {
            block_at: vec![0u32; n],
            ..SuperTrace::default()
        };
        for (start, &is_leader) in leader.iter().enumerate() {
            if !is_leader {
                continue;
            }
            let op_start = trace.ops.len() as u32;
            let (mut cost, mut mask) = (0u64, 0u64);
            let mut group: Option<u32> = None;
            let mut end = start;
            while end < n && !code[end].instr.is_control_flow() && code[end].trap.is_none() {
                let p = &code[end];
                if let Some(lop) = lane_lower(&p.instr) {
                    group = group.or(Some(trace.lane_ops.len() as u32));
                    trace.lane_ops.push(lop);
                } else {
                    trace.close_group(&mut group);
                    trace.ops.push(macro_lower(&p.instr, (end - start) as u32));
                }
                cost += p.cost;
                mask |= p.mask;
                end += 1;
            }
            trace.close_group(&mut group);
            if end == start {
                continue; // leader sits directly on control flow / a trap
            }
            trace.block_at[start] = trace.blocks.len() as u32 + 1;
            trace.blocks.push(Superblock {
                start: start as u32,
                len: (end - start) as u32,
                cost,
                mask,
                op_start,
                op_len: trace.ops.len() as u32 - op_start,
            });
        }
        trace.dot_loops = trace
            .blocks
            .iter()
            .map(|b| {
                let ops = &trace.ops[b.op_start as usize..(b.op_start + b.op_len) as usize];
                DotLoop::try_match(ops, &trace.lane_ops)
            })
            .collect();
        trace
    }

    /// Terminates an open `Lanes` group, recording fusion telemetry.
    fn close_group(&mut self, group: &mut Option<u32>) {
        if let Some(gstart) = group.take() {
            let count = self.lane_ops.len() as u32 - gstart;
            if count >= 2 {
                self.fused_groups += 1;
                self.fused_lane_ops += count;
            }
            self.ops.push(MacroOp::Lanes {
                start: gstart,
                n: count,
            });
        }
    }
}

/// Wave indices the tier-3 lowering computes closed-form schedules for.
/// Shipped model kernels launch at most `hidden/16 = 2` (ELM) or 4
/// (LSTM gates) waves; 8 leaves headroom without bloating small
/// kernels' lowerings. Launches with higher wave indices fall back to
/// tier 2 per wave — a precondition miss, never an error.
pub(crate) const TIER3_WAVE_SCHEDULES: usize = 8;

/// Instruction cap per tier-3 schedule walk: a branch structure whose
/// statically-resolved trip count exceeds this is left to tier 2 (the
/// walk must terminate even for kernels that statically never halt).
const TIER3_MAX_STEPS: u64 = 1 << 20;

/// One entry of a tier-3 wave schedule: a superblock to execute, plus
/// the cumulative bookkeeping *before* it (cycles, instructions,
/// coverage — including every single-stepped branch the tier-2 loop
/// would have interleaved), so a memory fault inside the block can
/// reconstruct the interpreter's exact per-instruction prefix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ScheduleStep {
    /// Index into [`SuperTrace::blocks`].
    pub block: u32,
    /// Cycles booked before this block starts.
    pub pre_cycles: u64,
    /// Instructions booked before this block starts.
    pub pre_instructions: u64,
    /// Coverage mask accumulated before this block starts.
    pub pre_mask: u64,
}

/// The tier-3 closed form of one wave: the exact superblock sequence
/// the tier-2 loop would execute for this wave index, with all control
/// flow resolved at lowering time, plus the pre-totalled bookkeeping of
/// a fault-free run. Executing the schedule is bit-identical to tier 2:
/// the same blocks run in the same order against the same state; only
/// the per-iteration block lookup, branch dispatch and incremental
/// bookkeeping disappear.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct WaveSchedule {
    pub steps: Vec<ScheduleStep>,
    /// Total cycles of a fault-free run (blocks + branches + endpgm).
    pub cycles: u64,
    /// Total instructions of a fault-free run.
    pub instructions: u64,
    /// Total coverage mask of a fault-free run.
    pub mask: u64,
}

/// Per-wave-index tier-3 schedules (`None` = this wave's control flow
/// could not be resolved statically and executes on tier 2).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Tier3Plan {
    waves: Vec<Option<WaveSchedule>>,
}

impl Tier3Plan {
    /// The schedule for `wave_index`, if one was lowered.
    pub fn schedule(&self, wave_index: usize) -> Option<&WaveSchedule> {
        self.waves.get(wave_index).and_then(Option::as_ref)
    }

    /// Number of wave indices with a lowered schedule.
    pub fn scheduled_waves(&self) -> usize {
        self.waves.iter().flatten().count()
    }

    /// Builds schedules for wave indices `0..TIER3_WAVE_SCHEDULES`.
    /// Returns `None` when no wave resolves (or the kernel has trap
    /// sites — trapping kernels always take the single-step path that
    /// reports them).
    fn build(code: &[PreInstr], trace: &SuperTrace) -> Option<Tier3Plan> {
        if code.is_empty() || code.iter().any(|p| p.trap.is_some()) {
            return None;
        }
        let waves: Vec<Option<WaveSchedule>> = (0..TIER3_WAVE_SCHEDULES)
            .map(|w| Tier3Plan::build_wave(code, trace, w))
            .collect();
        waves
            .iter()
            .any(Option::is_some)
            .then_some(Tier3Plan { waves })
    }

    /// Statically replays the tier-2 dispatch loop for one wave index
    /// under a constant lattice: block effects are applied to the
    /// lattice, branches are followed only when their `scc` is a known
    /// constant, `s_endpgm` finishes the schedule. Any unresolved
    /// branch, stray non-control-flow single step or blown step cap
    /// abandons the wave (tier 2 handles it).
    fn build_wave(code: &[PreInstr], trace: &SuperTrace, wave: usize) -> Option<WaveSchedule> {
        let mut sim = ConstSim::new();
        let mut sched = WaveSchedule::default();
        let mut pc = 0usize;
        loop {
            if sched.instructions > TIER3_MAX_STEPS {
                return None;
            }
            let bi = *trace.block_at.get(pc)?;
            if bi != 0 {
                let b = &trace.blocks[bi as usize - 1];
                sim.apply_block(trace, b, wave);
                sched.steps.push(ScheduleStep {
                    block: bi - 1,
                    pre_cycles: sched.cycles,
                    pre_instructions: sched.instructions,
                    pre_mask: sched.mask,
                });
                sched.cycles += b.cost;
                sched.instructions += u64::from(b.len);
                sched.mask |= b.mask;
                pc = (b.start + b.len) as usize;
                continue;
            }
            let pre = &code[pc];
            sched.cycles += pre.cost;
            sched.instructions += 1;
            sched.mask |= pre.mask;
            match pre.instr {
                Instr::SEndpgm => return Some(sched),
                Instr::SBranch { target } => pc = target,
                Instr::SCbranchScc1 { target } => {
                    pc = if sim.scc? { target } else { pc + 1 };
                }
                Instr::SCbranchScc0 { target } => {
                    pc = if !sim.scc? { target } else { pc + 1 };
                }
                // A non-control-flow instruction outside every block
                // (an unreachable-leader artifact): leave it to tier 2.
                _ => return None,
            }
        }
    }
}

/// The tier-3 constant lattice: SGPR values known at lowering time,
/// the `scc` flag when its inputs were known, and whether `v0` still
/// holds the hardware-preinitialized lane-id vector (the one vector
/// value that *is* statically known per wave index — `v_readlane_b32`
/// from a pristine `v0` yields `wave*16 + lane`). Kernel arguments are
/// unknown; anything derived from them stays unknown, which is what
/// keeps the lattice sound: a branch is only followed when its
/// condition provably matches every possible execution of this wave.
struct ConstSim {
    sgpr: [Option<u32>; SGPR_COUNT],
    scc: Option<bool>,
    v0_pristine: bool,
}

impl ConstSim {
    fn new() -> Self {
        ConstSim {
            sgpr: [None; SGPR_COUNT],
            scc: None,
            v0_pristine: true,
        }
    }

    fn val(&self, p: PS) -> Option<u32> {
        match p {
            PS::S(r) => self.sgpr[usize::from(r)],
            PS::K(k) => Some(k),
        }
    }

    fn bin(&self, a: PS, b: PS, f: impl Fn(u32, u32) -> u32) -> Option<u32> {
        Some(f(self.val(a)?, self.val(b)?))
    }

    /// Applies one superblock's architectural effects to the lattice.
    /// Mirrors `run_block`'s arithmetic exactly (wrapping i32 ops, the
    /// `& 31` shift mask, `lane % 16` cross-lane indexing); ops whose
    /// result depends on launch state (memory, unknown registers) drop
    /// their destination to unknown.
    fn apply_block(&mut self, trace: &SuperTrace, b: &Superblock, wave: usize) {
        let ops = &trace.ops[b.op_start as usize..(b.op_start + b.op_len) as usize];
        for op in ops {
            match *op {
                MacroOp::Lanes { start, n } => {
                    for lop in &trace.lane_ops[start as usize..(start + n) as usize] {
                        if lop.dst == 0 {
                            self.v0_pristine = false;
                        }
                    }
                }
                MacroOp::SMov { dst, src } => self.sgpr[usize::from(dst)] = self.val(src),
                MacroOp::SAddI { dst, a, b } => {
                    self.sgpr[usize::from(dst)] =
                        self.bin(a, b, |x, y| (x as i32).wrapping_add(y as i32) as u32);
                }
                MacroOp::SSubI { dst, a, b } => {
                    self.sgpr[usize::from(dst)] =
                        self.bin(a, b, |x, y| (x as i32).wrapping_sub(y as i32) as u32);
                }
                MacroOp::SMulI { dst, a, b } => {
                    self.sgpr[usize::from(dst)] =
                        self.bin(a, b, |x, y| (x as i32).wrapping_mul(y as i32) as u32);
                }
                MacroOp::SAndB { dst, a, b } => {
                    self.sgpr[usize::from(dst)] = self.bin(a, b, |x, y| x & y);
                }
                MacroOp::SLshl { dst, a, shift } => {
                    self.sgpr[usize::from(dst)] = self.bin(a, shift, |x, s| x << (s & 31));
                }
                MacroOp::SCmpLt { a, b } => {
                    self.scc = self
                        .bin(a, b, |x, y| u32::from((x as i32) < (y as i32)))
                        .map(|v| v != 0);
                }
                MacroOp::SCmpEq { a, b } => {
                    self.scc = self.bin(a, b, |x, y| u32::from(x == y)).map(|v| v != 0);
                }
                MacroOp::SNop | MacroOp::AndExecVcc | MacroOp::MovExecAll => {}
                MacroOp::SLoad { dst, .. } => self.sgpr[usize::from(dst)] = None,
                MacroOp::VCmpGt { .. } | MacroOp::VCmpLt { .. } => {}
                MacroOp::Readlane { dst, src, lane } => {
                    self.sgpr[usize::from(dst)] = if src == 0 && self.v0_pristine {
                        Some((wave * WAVEFRONT_LANES + usize::from(lane) % WAVEFRONT_LANES) as u32)
                    } else {
                        None
                    };
                }
                MacroOp::Writelane { dst, .. }
                | MacroOp::BufLoad { dst, .. }
                | MacroOp::LdsRead { dst, .. } => {
                    if dst == 0 {
                        self.v0_pristine = false;
                    }
                }
                MacroOp::BufStore { .. } | MacroOp::LdsWrite { .. } => {}
            }
        }
    }
}

/// A kernel lowered for one engine configuration (cost model + retained
/// feature set).
#[derive(Debug, Clone, PartialEq)]
pub struct PredecodedKernel {
    name: String,
    fingerprint: u64,
    pub(crate) code: Vec<PreInstr>,
    static_mask: u64,
    /// The tier-2 superblock trace, present iff the kernel was lowered
    /// with [`PredecodedKernel::lower_traced`].
    pub(crate) trace: Option<SuperTrace>,
    /// Tier-3 closed-form schedules, present iff the traced lowering
    /// resolved at least one wave's control flow statically.
    pub(crate) tier3: Option<Tier3Plan>,
}

impl PredecodedKernel {
    /// Lowers `kernel` for an engine with the given cost model and
    /// (optional) retained-feature set.
    pub fn lower(kernel: &Kernel, cost: &CostModel, retained: Option<&CoverageSet>) -> Self {
        let retained_mask = retained.map(CoverageSet::mask);
        let mut static_mask = 0u64;
        let code = kernel
            .code
            .iter()
            .map(|instr| {
                let features = Feature::of_instr(instr);
                let mut mask = 0u64;
                let mut trap = None;
                for f in &features {
                    if trap.is_none() {
                        if let Some(rm) = retained_mask {
                            if rm & f.bit() == 0 {
                                trap = Some(PreTrap {
                                    feature: *f,
                                    prior_mask: mask,
                                });
                            }
                        }
                    }
                    mask |= f.bit();
                }
                static_mask |= mask;
                PreInstr {
                    instr: *instr,
                    cost: cost.cost(instr),
                    mask,
                    trap,
                }
            })
            .collect();
        PredecodedKernel {
            name: kernel.name.clone(),
            fingerprint: kernel.fingerprint(),
            code,
            static_mask,
            trace: None,
            tier3: None,
        }
    }

    /// Lowers `kernel` through all tiers: tier-1 [`PreInstr`]s, the
    /// tier-2 [`SuperTrace`] the superblock executor dispatches on, and
    /// tier-3 closed-form wave schedules where control flow resolves
    /// statically.
    pub fn lower_traced(kernel: &Kernel, cost: &CostModel, retained: Option<&CoverageSet>) -> Self {
        let mut pk = PredecodedKernel::lower(kernel, cost, retained);
        let trace = SuperTrace::build(&pk.code);
        pk.tier3 = Tier3Plan::build(&pk.code, &trace);
        pk.trace = Some(trace);
        pk
    }

    /// The source kernel's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The source kernel's [`Kernel::fingerprint`] (the cache key).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// Whether the kernel is empty.
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }

    /// Union of every instruction's feature mask (static coverage upper
    /// bound; the core features are not included).
    pub fn static_mask(&self) -> u64 {
        self.static_mask
    }

    /// Whether any instruction traps on the configuration this kernel
    /// was lowered for.
    pub fn traps(&self) -> bool {
        self.code.iter().any(|p| p.trap.is_some())
    }

    /// Whether a tier-2 superblock trace was built.
    pub fn has_trace(&self) -> bool {
        self.trace.is_some()
    }

    /// Number of tier-2 superblocks (0 without a trace).
    pub fn superblocks(&self) -> usize {
        self.trace.as_ref().map_or(0, |t| t.blocks.len())
    }

    /// Number of tier-2 macro-ops across all superblocks (0 without a
    /// trace).
    pub fn macro_ops(&self) -> usize {
        self.trace.as_ref().map_or(0, |t| t.ops.len())
    }

    /// Number of lane-local vector ops fused into multi-op macro groups
    /// (0 without a trace).
    pub fn fused_lane_ops(&self) -> usize {
        self.trace.as_ref().map_or(0, |t| t.fused_lane_ops as usize)
    }

    /// The tier-3 closed-form schedule for `wave_index`, if the traced
    /// lowering resolved this wave's control flow statically.
    pub(crate) fn tier3_schedule(&self, wave_index: usize) -> Option<&WaveSchedule> {
        self.tier3.as_ref().and_then(|p| p.schedule(wave_index))
    }

    /// Number of wave indices with a tier-3 closed-form schedule.
    pub fn tier3_waves(&self) -> usize {
        self.tier3.as_ref().map_or(0, Tier3Plan::scheduled_waves)
    }

    /// Whether any wave index has a tier-3 schedule.
    pub fn has_tier3(&self) -> bool {
        self.tier3_waves() > 0
    }
}

/// Per-kernel hit/miss telemetry of one [`PredecodeCache`] entry, keyed
/// by name + fingerprint so a report can show *which* kernel
/// misses (and which carry tier-3 schedules) rather than one global
/// hit-rate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelCacheStats {
    /// Source kernel name.
    pub name: String,
    /// [`Kernel::fingerprint`] of the cached lowering.
    pub fingerprint: u64,
    /// Lookups of this kernel served from the cache.
    pub hits: u64,
    /// Lookups of this kernel that had to lower it.
    pub misses: u64,
    /// Wave indices with a tier-3 closed-form schedule.
    pub tier3_waves: usize,
}

/// Hit/miss/size counters of a [`PredecodeCache`], surfaced through
/// [`Engine::predecode_stats`](crate::Engine::predecode_stats) and the
/// benchmark telemetry so cache effectiveness is visible across PRs.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PredecodeStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to lower the kernel.
    pub misses: u64,
    /// Distinct kernels currently cached.
    pub kernels: usize,
    /// Cached kernels carrying a tier-2 superblock trace.
    pub traced_kernels: usize,
    /// Total superblocks across traced kernels.
    pub superblocks: u64,
    /// Lane-local vector ops fused into multi-op macro groups across
    /// traced kernels.
    pub fused_lane_ops: u64,
    /// Cached kernels with at least one tier-3 wave schedule.
    pub tier3_kernels: usize,
    /// Total tier-3 wave schedules across cached kernels.
    pub tier3_waves: u64,
    /// Cached fused launch streams.
    pub streams: usize,
    /// Per-kernel hit/miss breakdown, sorted by kernel name (then
    /// fingerprint, for same-named variants under different trims).
    pub per_kernel: Vec<KernelCacheStats>,
}

impl PredecodeStats {
    /// Hit fraction over all lookups (0 when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One cached lowering plus its private hit/miss counters.
#[derive(Debug, Clone)]
struct CacheEntry {
    pk: Arc<PredecodedKernel>,
    hits: u64,
    misses: u64,
}

/// A fused launch stream: the lowered kernels of a fixed multi-kernel
/// sequence (e.g. the LSTM gate/combine pair), resolved once and
/// relaunched as one unit so the steady state pays a single cache
/// lookup — not one fingerprint + hash probe per stage — and no
/// per-launch front-end re-setup between stages.
#[derive(Debug, Clone)]
pub struct PredecodedStream {
    /// `(lowered kernel, wave count)` per stage, in launch order.
    pub(crate) stages: Vec<(Arc<PredecodedKernel>, usize)>,
}

impl PredecodedStream {
    /// Number of stages.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// Whether the stream has no stages.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }
}

/// A cache of lowered kernels keyed by `(fingerprint, trim mask)` — the
/// trim mask being the retained-feature set the lowering baked its trap
/// verdicts against (`None` = untrimmed). Within one engine the retained
/// set is fixed, but the compound key makes the cache sound to share and
/// lets the hit-rate telemetry cover both lowering tiers uniformly.
/// `Arc` because the partitioned batch launcher shares the lowered
/// kernel across CU worker threads. Fused streams are cached separately
/// by the stage fingerprint/wave sequence; their lookups are accounted
/// as one hit or miss *per stage* so totals stay comparable with
/// per-launch counting.
#[derive(Debug, Clone, Default)]
pub(crate) struct PredecodeCache {
    kernels: HashMap<(u64, Option<u64>), CacheEntry>,
    streams: HashMap<StreamKey, Arc<PredecodedStream>>,
    hits: u64,
    misses: u64,
}

/// Fused-stream cache key: the per-stage `(kernel fingerprint, wave
/// count)` sequence plus the trim-plan fingerprint.
type StreamKey = (Vec<(u64, usize)>, Option<u64>);

impl PredecodeCache {
    /// Returns the cached lowering of `kernel`, lowering on first use.
    /// `tier2` additionally builds the superblock trace on a miss.
    pub fn get_or_lower(
        &mut self,
        kernel: &Kernel,
        cost: &CostModel,
        retained: Option<&CoverageSet>,
        tier2: bool,
    ) -> Arc<PredecodedKernel> {
        let key = (kernel.fingerprint(), retained.map(CoverageSet::mask));
        if let Some(e) = self.kernels.get_mut(&key) {
            self.hits += 1;
            e.hits += 1;
            return Arc::clone(&e.pk);
        }
        self.misses += 1;
        let pk = Arc::new(if tier2 {
            PredecodedKernel::lower_traced(kernel, cost, retained)
        } else {
            PredecodedKernel::lower(kernel, cost, retained)
        });
        self.kernels.insert(
            key,
            CacheEntry {
                pk: Arc::clone(&pk),
                hits: 0,
                misses: 1,
            },
        );
        pk
    }

    /// Returns the cached fused stream for a fixed `(kernel, waves)`
    /// sequence, resolving each stage through [`Self::get_or_lower`] on
    /// first use. A stream hit books one cache hit per stage.
    pub fn get_or_stream(
        &mut self,
        stages: &[(&Kernel, usize)],
        cost: &CostModel,
        retained: Option<&CoverageSet>,
        tier2: bool,
    ) -> Arc<PredecodedStream> {
        let trim = retained.map(CoverageSet::mask);
        let key = (
            stages
                .iter()
                .map(|(k, w)| (k.fingerprint(), *w))
                .collect::<Vec<_>>(),
            trim,
        );
        if let Some(s) = self.streams.get(&key).cloned() {
            self.hits += stages.len() as u64;
            for (pk, _) in &s.stages {
                if let Some(e) = self.kernels.get_mut(&(pk.fingerprint(), trim)) {
                    e.hits += 1;
                }
            }
            return s;
        }
        let built = stages
            .iter()
            .map(|(k, w)| (self.get_or_lower(k, cost, retained, tier2), *w))
            .collect();
        let s = Arc::new(PredecodedStream { stages: built });
        self.streams.insert(key, Arc::clone(&s));
        s
    }

    /// Number of cached kernels.
    pub fn len(&self) -> usize {
        self.kernels.len()
    }

    /// Hit/miss/size counters, including tier-2 trace and tier-3
    /// schedule totals plus the per-kernel breakdown.
    pub fn stats(&self) -> PredecodeStats {
        let mut s = PredecodeStats {
            hits: self.hits,
            misses: self.misses,
            kernels: self.kernels.len(),
            streams: self.streams.len(),
            ..PredecodeStats::default()
        };
        for e in self.kernels.values() {
            let k = &e.pk;
            if k.has_trace() {
                s.traced_kernels += 1;
                s.superblocks += k.superblocks() as u64;
                s.fused_lane_ops += k.fused_lane_ops() as u64;
            }
            if k.has_tier3() {
                s.tier3_kernels += 1;
                s.tier3_waves += k.tier3_waves() as u64;
            }
            s.per_kernel.push(KernelCacheStats {
                name: k.name().to_string(),
                fingerprint: k.fingerprint(),
                hits: e.hits,
                misses: e.misses,
                tier3_waves: k.tier3_waves(),
            });
        }
        s.per_kernel
            .sort_by(|a, b| a.name.cmp(&b.name).then(a.fingerprint.cmp(&b.fingerprint)));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    fn kernel() -> Kernel {
        assemble(
            r#"
            v_lshl_b32 v1, v0, 2
            v_exp_f32 v2, 1.0
            buffer_store_dword v2, v1, s0
            s_endpgm
        "#,
        )
        .expect("assembles")
    }

    #[test]
    fn lowering_precomputes_cost_and_masks() {
        let k = kernel();
        let cost = CostModel::miaow();
        let pk = PredecodedKernel::lower(&k, &cost, None);
        assert_eq!(pk.len(), k.code.len());
        assert_eq!(pk.fingerprint(), k.fingerprint());
        for (pre, instr) in pk.code.iter().zip(&k.code) {
            assert_eq!(pre.cost, cost.cost(instr));
            let mut expect = 0u64;
            for f in Feature::of_instr(instr) {
                expect |= f.bit();
            }
            assert_eq!(pre.mask, expect);
            assert!(pre.trap.is_none(), "untrimmed engines never trap");
        }
        assert!(pk.static_mask() & Feature::ValuExp.bit() != 0);
        assert!(!pk.traps());
    }

    #[test]
    fn lowering_marks_traps_with_serial_prior_mask() {
        let k = kernel();
        // Retain everything except the transcendental decoder arm: the
        // v_exp instruction must trap on DecValuTrans with no priors
        // recorded (it is of_instr's first feature for that op).
        let retained: CoverageSet = Feature::all()
            .into_iter()
            .filter(|f| *f != Feature::DecValuTrans)
            .collect();
        let pk = PredecodedKernel::lower(&k, &CostModel::miaow(), Some(&retained));
        assert!(pk.traps());
        let trap = pk.code[1].trap.expect("v_exp traps");
        assert_eq!(trap.feature, Feature::DecValuTrans);
        assert_eq!(trap.prior_mask, 0);

        // Retain the decoder arm but not the exp unit: the prior mask
        // now holds the already-recorded decoder feature.
        let retained: CoverageSet = Feature::all()
            .into_iter()
            .filter(|f| *f != Feature::ValuExp)
            .collect();
        let pk = PredecodedKernel::lower(&k, &CostModel::miaow(), Some(&retained));
        let trap = pk.code[1].trap.expect("v_exp traps");
        assert_eq!(trap.feature, Feature::ValuExp);
        assert_eq!(trap.prior_mask, Feature::DecValuTrans.bit());
    }

    #[test]
    fn mac_loop_blocks_match_dot_loop_lowering() {
        // The LSTM-gates inner-loop shapes: a uniform LDS weight load
        // (xloop, with the leading scalar add) and a uniform buffer
        // activation load (hloop), each followed by a strided LDS
        // gather and a MAC. The backedge block of each loop must get a
        // fused DotLoop lowering — if a kernel change silently breaks
        // the match, tier 3 falls back to per-op dispatch and the
        // serving throughput regresses without failing any test.
        let k = assemble(
            r#"
            v_mul_i32 v4, 64, v0
            v_mov_b32 v3, 0.0
            s_mov_b32 s10, 0
            s_mov_b32 s11, 0
        xloop:
            s_add_i32 s12, s0, s11
            v_mov_b32 v6, s12
            ds_read_b32 v7, v6
            v_add_i32 v8, s11, v4
            ds_read_b32 v9, v8
            v_mac_f32 v3, v7, v9
            s_add_i32 s11, s11, 4
            s_add_i32 s10, s10, 1
            s_cmp_lt_i32 s10, 16
            s_cbranch_scc1 xloop
            s_mov_b32 s10, 0
            s_mov_b32 s11, 0
        hloop:
            v_mov_b32 v6, s11
            buffer_load_dword v7, v6, s1
            v_add_i32 v8, s11, v4
            ds_read_b32 v9, v8
            v_mac_f32 v3, v7, v9
            s_add_i32 s11, s11, 4
            s_add_i32 s10, s10, 1
            s_cmp_lt_i32 s10, 16
            s_cbranch_scc1 hloop
            v_lshl_b32 v10, v0, 2
            buffer_store_dword v3, v10, s2
            s_endpgm
        "#,
        )
        .expect("assembles");
        let pk = PredecodedKernel::lower_traced(&k, &CostModel::miaow(), None);
        let trace = pk.trace.as_ref().expect("superblocks form");
        assert_eq!(trace.dot_loops.len(), trace.blocks.len());

        let fused: Vec<&DotLoop> = trace.dot_loops.iter().flatten().collect();
        assert_eq!(
            fused.len(),
            2,
            "both backedge blocks lower to fused MAC loops"
        );
        assert_eq!(
            fused[0].uload.2,
            DotUniformSrc::Lds,
            "xloop's uniform load reads LDS"
        );
        assert!(fused[0].pre.is_some(), "xloop has the leading scalar add");
        assert_eq!(
            fused[1].uload.2,
            DotUniformSrc::Buf { sbase: 1 },
            "hloop's uniform load reads the buffer via s1"
        );
        assert!(fused[1].pre.is_none());
    }

    #[test]
    fn cache_lowers_once_per_fingerprint() {
        let k = kernel();
        let mut cache = PredecodeCache::default();
        let a = cache.get_or_lower(&k, &CostModel::miaow(), None, false);
        let b = cache.get_or_lower(&k, &CostModel::miaow(), None, false);
        assert_eq!(cache.len(), 1);
        assert!(Arc::ptr_eq(&a, &b), "second lookup reuses the lowering");

        let other = assemble("v_mov_b32 v1, 1.0\ns_endpgm").unwrap();
        cache.get_or_lower(&other, &CostModel::miaow(), None, false);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn cache_counts_hits_and_misses() {
        let k = kernel();
        let mut cache = PredecodeCache::default();
        assert_eq!(cache.stats(), PredecodeStats::default());
        cache.get_or_lower(&k, &CostModel::miaow(), None, false);
        cache.get_or_lower(&k, &CostModel::miaow(), None, false);
        cache.get_or_lower(&k, &CostModel::miaow(), None, false);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.kernels), (2, 1, 1));
        assert!((s.hit_rate() - 2.0 / 3.0).abs() < 1e-12);

        let other = assemble("v_mov_b32 v1, 1.0\ns_endpgm").unwrap();
        cache.get_or_lower(&other, &CostModel::miaow(), None, false);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.kernels), (2, 2, 2));
    }

    /// A loop kernel: the body (pcs 1-4) is re-entered from the
    /// back-edge, so pc 1 is a leader besides pc 0.
    fn loop_kernel() -> Kernel {
        assemble(
            r#"
            s_mov_b32 s1, 0
            loop:
            v_mul_f32 v1, 2.0, v0
            v_add_f32 v2, 1.0, v1
            s_add_i32 s1, s1, 1
            s_cmp_lt_i32 s1, 4
            s_cbranch_scc1 loop
            s_endpgm
        "#,
        )
        .expect("assembles")
    }

    #[test]
    fn traced_lowering_builds_superblocks_at_branch_boundaries() {
        let k = loop_kernel();
        let cost = CostModel::miaow();
        let pk = PredecodedKernel::lower_traced(&k, &cost, None);
        let trace = pk.trace.as_ref().expect("tier-2 lowering builds a trace");

        // Leaders: pc 0 (entry, runs through the loop body) and pc 1
        // (branch target). Control flow (pcs 5, 6) is never inside a
        // block, and no block is formed at pc 6 (s_endpgm is a leader
        // position but sits directly on control flow).
        assert_eq!(pk.superblocks(), 2);
        let b0 = &trace.blocks[trace.block_at[0] as usize - 1];
        let b1 = &trace.blocks[trace.block_at[1] as usize - 1];
        assert_eq!((b0.start, b0.len), (0, 5));
        assert_eq!((b1.start, b1.len), (1, 4));
        assert_eq!(trace.block_at[5], 0, "s_cmp tail is inside blocks only");
        assert_eq!(trace.block_at[6], 0, "s_endpgm never starts a block");

        // Block cost/mask equal the tier-1 per-instruction sums.
        for b in [b0, b1] {
            let span = &pk.code[b.start as usize..(b.start + b.len) as usize];
            assert_eq!(b.cost, span.iter().map(|p| p.cost).sum::<u64>());
            assert_eq!(b.mask, span.iter().fold(0, |m, p| m | p.mask));
        }

        // The two lane-local VALU ops (v_mul + v_add) fuse into one
        // macro group in each block that contains them.
        assert!(pk.fused_lane_ops() >= 2);
        assert!(trace.fused_groups >= 1);
    }

    #[test]
    fn trap_sites_split_blocks() {
        // Trim away the transcendental: the v_exp trap site must not be
        // inside any superblock, so the tier-2 path always reaches it
        // through the single-step fallback that reports the trap.
        let k = kernel();
        let retained: CoverageSet = Feature::all()
            .into_iter()
            .filter(|f| *f != Feature::ValuExp)
            .collect();
        let pk = PredecodedKernel::lower_traced(&k, &CostModel::miaow(), Some(&retained));
        let trace = pk.trace.as_ref().expect("trace");
        assert!(pk.traps());
        let bi = trace.block_at[0];
        assert_ne!(bi, 0);
        let b = &trace.blocks[bi as usize - 1];
        assert_eq!(
            (b.start, b.len),
            (0, 1),
            "block stops before the pc-1 trap site"
        );
        assert_eq!(trace.block_at[1], 0, "the trap site itself has no block");
    }

    #[test]
    fn cache_stats_cover_tier2_traces() {
        let mut cache = PredecodeCache::default();
        cache.get_or_lower(&loop_kernel(), &CostModel::miaow(), None, true);
        cache.get_or_lower(&kernel(), &CostModel::miaow(), None, false);
        let s = cache.stats();
        assert_eq!(s.kernels, 2);
        assert_eq!(s.traced_kernels, 1);
        assert_eq!(s.superblocks, 2);
        assert!(s.fused_lane_ops >= 2);
    }

    #[test]
    fn tier3_resolves_constant_loop() {
        // The loop kernel's trip count comes entirely from immediates:
        // every wave resolves to the same 4-iteration schedule.
        let pk = PredecodedKernel::lower_traced(&loop_kernel(), &CostModel::miaow(), None);
        assert_eq!(pk.tier3_waves(), TIER3_WAVE_SCHEDULES);
        let sched = pk.tier3_schedule(0).expect("wave 0 resolves");
        // Blocks: entry (pcs 0-4) then 3 re-entries of the body (pcs
        // 1-4); 4 branches + s_endpgm single-stepped in between.
        assert_eq!(sched.steps.len(), 4);
        assert_eq!(sched.instructions, 5 + 3 * 4 + 4 + 1);
        let branch_cost = pk.code[5].cost; // s_cbranch
        let end_cost = pk.code[6].cost; // s_endpgm
        let trace = pk.trace.as_ref().unwrap();
        let block_cycles: u64 = sched
            .steps
            .iter()
            .map(|st| trace.blocks[st.block as usize].cost)
            .sum();
        assert_eq!(sched.cycles, block_cycles + 4 * branch_cost + end_cost);
        // Prefix bookkeeping is cumulative and starts at zero.
        assert_eq!(sched.steps[0].pre_cycles, 0);
        assert_eq!(sched.steps[0].pre_instructions, 0);
        assert!(sched.steps[1].pre_instructions > sched.steps[0].pre_instructions);
    }

    /// A kernel whose branch depends on the wave index via
    /// `v_readlane_b32` from pristine `v0` — the lstm_gates selection
    /// idiom. Waves 0/1 diverge: lane 0 of wave 0 holds 0, of wave 1
    /// holds 16.
    fn readlane_branch_kernel() -> Kernel {
        assemble(
            r#"
            v_readlane_b32 s1, v0, 0
            s_cmp_eq_i32 s1, 16
            s_cbranch_scc1 other
            v_mov_b32 v1, 1.0
            s_endpgm
            other:
            v_mov_b32 v1, 2.0
            s_endpgm
        "#,
        )
        .expect("assembles")
    }

    #[test]
    fn tier3_resolves_wave_dependent_readlane_branch() {
        let pk =
            PredecodedKernel::lower_traced(&readlane_branch_kernel(), &CostModel::miaow(), None);
        assert_eq!(pk.tier3_waves(), TIER3_WAVE_SCHEDULES);
        let trace = pk.trace.as_ref().unwrap();
        let w0 = pk.tier3_schedule(0).expect("wave 0");
        let w1 = pk.tier3_schedule(1).expect("wave 1");
        // Wave 0 falls through (blocks at pc 0 and pc 3); wave 1 takes
        // the branch to pc 5.
        let last0 = trace.blocks[w0.steps.last().unwrap().block as usize].start;
        let last1 = trace.blocks[w1.steps.last().unwrap().block as usize].start;
        assert_eq!(last0, 3);
        assert_eq!(last1, 5);
        assert_ne!(w0.mask, 0);
    }

    #[test]
    fn tier3_bails_on_argument_dependent_branch() {
        // Loop bound comes from memory (s_load_dword): scc is unknown,
        // so no wave resolves and the kernel carries no tier-3 plan.
        let k = assemble(
            r#"
            s_load_dword s2, s0, 0
            s_mov_b32 s1, 0
            loop:
            s_add_i32 s1, s1, 1
            s_cmp_lt_i32 s1, s2
            s_cbranch_scc1 loop
            s_endpgm
        "#,
        )
        .expect("assembles");
        let pk = PredecodedKernel::lower_traced(&k, &CostModel::miaow(), None);
        assert!(!pk.has_tier3());
        assert_eq!(pk.tier3_schedule(0), None);
    }

    #[test]
    fn tier3_skips_trapping_kernels() {
        let retained: CoverageSet = Feature::all()
            .into_iter()
            .filter(|f| *f != Feature::ValuExp)
            .collect();
        let pk = PredecodedKernel::lower_traced(&kernel(), &CostModel::miaow(), Some(&retained));
        assert!(pk.traps());
        assert!(!pk.has_tier3());
    }

    #[test]
    fn tier3_clobbered_v0_blocks_readlane_constants() {
        // v0 is overwritten before the readlane: lane values are no
        // longer the hardware pre-init, so the branch must not resolve.
        let k = assemble(
            r#"
            v_mov_b32 v0, 0
            v_readlane_b32 s1, v0, 0
            s_cmp_eq_i32 s1, 0
            s_cbranch_scc1 done
            v_mov_b32 v1, 1.0
            done:
            s_endpgm
        "#,
        )
        .expect("assembles");
        let pk = PredecodedKernel::lower_traced(&k, &CostModel::miaow(), None);
        assert!(!pk.has_tier3());
    }

    #[test]
    fn stream_lookup_counts_per_stage_hits() {
        let a = loop_kernel();
        let b = kernel();
        let mut cache = PredecodeCache::default();
        let s1 = cache.get_or_stream(&[(&a, 2), (&b, 1)], &CostModel::miaow(), None, true);
        // First stream lookup lowers both stages: 2 misses, no hits.
        let st = cache.stats();
        assert_eq!((st.hits, st.misses, st.streams), (0, 2, 1));
        let s2 = cache.get_or_stream(&[(&a, 2), (&b, 1)], &CostModel::miaow(), None, true);
        assert!(Arc::ptr_eq(&s1, &s2), "second lookup reuses the stream");
        // A stream hit books one hit per stage, globally and per kernel.
        let st = cache.stats();
        assert_eq!((st.hits, st.misses, st.streams), (2, 2, 1));
        for pk in &st.per_kernel {
            assert_eq!((pk.hits, pk.misses), (1, 1), "{}", pk.name);
        }
        // A different wave split is a different stream.
        cache.get_or_stream(&[(&a, 4), (&b, 1)], &CostModel::miaow(), None, true);
        assert_eq!(cache.stats().streams, 2);
    }

    #[test]
    fn per_kernel_stats_are_sorted_and_complete() {
        let mut cache = PredecodeCache::default();
        cache.get_or_lower(&loop_kernel(), &CostModel::miaow(), None, true);
        cache.get_or_lower(&loop_kernel(), &CostModel::miaow(), None, true);
        cache.get_or_lower(&kernel(), &CostModel::miaow(), None, false);
        let s = cache.stats();
        assert_eq!(s.per_kernel.len(), 2);
        let names: Vec<&str> = s.per_kernel.iter().map(|k| k.name.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
        let total_hits: u64 = s.per_kernel.iter().map(|k| k.hits).sum();
        let total_misses: u64 = s.per_kernel.iter().map(|k| k.misses).sum();
        assert_eq!((total_hits, total_misses), (s.hits, s.misses));
        assert_eq!(s.tier3_kernels, 1, "only the traced kernel has tier-3");
    }
}
