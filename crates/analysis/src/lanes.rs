//! Static lane-interference analysis.
//!
//! Proves that the lanes of a wavefront never write conflicting memory
//! within any single store instruction, yielding a
//! [`LaneDisjointness`] certificate: reordering the lanes of any store
//! is observation-equivalent iff no two lanes of one store write
//! overlapping bytes with different values. The certificate is a
//! verifier finding (the engine runs lanes in order regardless).
//! DESIGN.md §14 gives the full argument; the debug-only write-log race
//! checker in `rtad-miaow` cross-validates the certificate
//! dynamically.
//!
//! # Abstract domain
//!
//! Each VGPR is tracked as an affine function of the lane id:
//! `value ≡ base + stride·lane (mod 2³²)`, where `base` is one of
//!
//! * `Const(c)` — the same known constant in every wave,
//! * `ThreadBase` — 16·wave (v0 is pre-initialised to the global
//!   thread id, `16·wave + lane`; the base is wave-uniform and a
//!   multiple of 16),
//! * `Uniform` — some unknown but wave-uniform value (all scalar
//!   operands are uniform by construction).
//!
//! Anything else is `Unknown`. Transfers cover the vector ALU the
//! compiler emits for addressing (`v_add_i32`/`v_mul_i32`/
//! `v_lshl_b32`/`v_and_b32`/`v_mov_b32`) plus the conservative cases:
//! loads, `v_cndmask_b32`, `v_writelane_b32` and float results are
//! lane-arbitrary (`Unknown`) unless every input is uniform. Writes
//! under a possibly-partial EXEC mask only keep their value when old
//! and new agree on an exact (fully-concrete) affine value, because
//! inactive lanes retain old contents.
//!
//! # Store classification
//!
//! A reachable `buffer_store_dword`/`ds_write_b32` is interference-free
//! when its per-lane address is affine with `4 ≤ |stride| ≤ 2²⁷`
//! (distinct lanes then write 4-byte regions at least 4 bytes apart,
//! even mod 2³²), or when both address and stored value are uniform
//! (every active lane writes the same bytes to the same place — a
//! broadcast, unobservable under reordering). The first store failing
//! both tests is reported as `MayInterfere`.

use rtad_miaow::isa::{Instr, Kernel, VSrc, Vreg, VGPR_COUNT};

use crate::cfg::Cfg;

/// The lane-interference certificate for one kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneDisjointness {
    /// No store instruction can make two lanes of a wave write
    /// conflicting bytes: the lanes of every store commute.
    Disjoint,
    /// The store at `pc` could not be proven interference-free.
    MayInterfere {
        /// Instruction index of the first unproven store.
        pc: usize,
    },
}

impl LaneDisjointness {
    /// True when the certificate proves lanes non-interfering.
    #[must_use]
    pub fn is_disjoint(&self) -> bool {
        matches!(self, LaneDisjointness::Disjoint)
    }
}

impl std::fmt::Display for LaneDisjointness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            LaneDisjointness::Disjoint => write!(f, "lane-disjoint"),
            LaneDisjointness::MayInterfere { pc } => {
                write!(f, "may-interfere (store at pc {pc})")
            }
        }
    }
}

/// Wave-uniform component of an affine value.
#[allow(clippy::enum_variant_names)] // `ThreadBase` names the v0 seed, not the enum
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Base {
    /// A known constant, identical in every wave.
    Const(i64),
    /// 16·wave — v0's per-wave base; uniform and ≡ 0 (mod 16).
    ThreadBase,
    /// Unknown but wave-uniform.
    Uniform,
}

/// Abstract per-VGPR value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Val {
    /// `value ≡ base + stride·lane (mod 2³²)`.
    Affine {
        stride: i64,
        base: Base,
    },
    Unknown,
}

const UNIFORM: Val = Val::Affine {
    stride: 0,
    base: Base::Uniform,
};

impl Val {
    fn konst(c: i64) -> Val {
        Val::Affine {
            stride: 0,
            base: Base::Const(c),
        }
    }

    fn uniform(self) -> bool {
        matches!(self, Val::Affine { stride: 0, .. })
    }

    /// Fully concrete per-lane value (given the wave index): safe to
    /// keep across a partially-masked write that recomputes it.
    fn exact(self) -> bool {
        matches!(
            self,
            Val::Affine {
                base: Base::Const(_) | Base::ThreadBase,
                ..
            }
        )
    }
}

fn join_base(a: Base, b: Base) -> Base {
    if a == b {
        a
    } else {
        Base::Uniform
    }
}

fn join_val(a: Val, b: Val) -> Val {
    match (a, b) {
        (
            Val::Affine {
                stride: sa,
                base: ba,
            },
            Val::Affine {
                stride: sb,
                base: bb,
            },
        ) if sa == sb => Val::Affine {
            stride: sa,
            base: join_base(ba, bb),
        },
        _ if a == b => a,
        _ => Val::Unknown,
    }
}

fn add(a: Val, b: Val) -> Val {
    let (
        Val::Affine {
            stride: sa,
            base: ba,
        },
        Val::Affine {
            stride: sb,
            base: bb,
        },
    ) = (a, b)
    else {
        return Val::Unknown;
    };
    let Some(stride) = sa.checked_add(sb) else {
        return Val::Unknown;
    };
    let base = match (ba, bb) {
        (Base::Const(x), Base::Const(y)) => x.checked_add(y).map_or(Base::Uniform, Base::Const),
        _ => Base::Uniform,
    };
    Val::Affine { stride, base }
}

fn scale(v: Val, k: i64) -> Val {
    let Val::Affine { stride, base } = v else {
        return Val::Unknown;
    };
    let Some(stride) = stride.checked_mul(k) else {
        return Val::Unknown;
    };
    let base = match base {
        Base::Const(c) => c.checked_mul(k).map_or(Base::Uniform, Base::Const),
        _ => Base::Uniform,
    };
    Val::Affine { stride, base }
}

fn mul(a: Val, b: Val) -> Val {
    match (a, b) {
        (
            Val::Affine {
                stride: 0,
                base: Base::Const(k),
            },
            other,
        )
        | (
            other,
            Val::Affine {
                stride: 0,
                base: Base::Const(k),
            },
        ) => scale(other, k),
        _ if a.uniform() && b.uniform() => UNIFORM,
        _ => Val::Unknown,
    }
}

fn shl(a: Val, shift: Val) -> Val {
    match shift {
        Val::Affine {
            stride: 0,
            base: Base::Const(k),
        } => scale(a, 1i64 << (k as u32 & 31)),
        _ if a.uniform() && shift.uniform() => UNIFORM,
        _ => Val::Unknown,
    }
}

fn and(a: Val, b: Val) -> Val {
    let masked = |mask: i64, v: Val| -> Val {
        // The two idioms the compiler emits on v0 (base ≡ 0 mod 16,
        // stride 1): `& 15` extracts the lane id, `& !15` extracts the
        // uniform wave base.
        if let Val::Affine { stride: 1, base } = v {
            let aligned = match base {
                Base::ThreadBase => true,
                Base::Const(c) => c % 16 == 0,
                Base::Uniform => false,
            };
            if aligned && mask == 15 {
                return Val::Affine {
                    stride: 1,
                    base: Base::Const(0),
                };
            }
            if aligned && mask as u32 == 0xFFFF_FFF0 {
                return Val::Affine { stride: 0, base };
            }
        }
        Val::Unknown
    };
    match (a, b) {
        (
            Val::Affine {
                stride: 0,
                base: Base::Const(x),
            },
            Val::Affine {
                stride: 0,
                base: Base::Const(y),
            },
        ) => Val::konst(x & y),
        _ if a.uniform() && b.uniform() => UNIFORM,
        (
            Val::Affine {
                stride: 0,
                base: Base::Const(m),
            },
            v,
        )
        | (
            v,
            Val::Affine {
                stride: 0,
                base: Base::Const(m),
            },
        ) => masked(m, v),
        _ => Val::Unknown,
    }
}

/// Per-block-entry abstract state.
#[derive(Clone, PartialEq, Eq)]
struct LaneState {
    vgpr: Vec<Val>,
    /// True only when EXEC provably covers all lanes.
    exec_full: bool,
}

impl LaneState {
    fn entry() -> Self {
        let mut vgpr = vec![Val::konst(0); VGPR_COUNT];
        // v0 is pre-initialised to the global thread id 16·wave + lane.
        vgpr[0] = Val::Affine {
            stride: 1,
            base: Base::ThreadBase,
        };
        LaneState {
            vgpr,
            exec_full: true,
        }
    }

    fn read(&self, r: Vreg) -> Val {
        self.vgpr[usize::from(r.0)]
    }

    fn vsrc(&self, s: VSrc) -> Val {
        match s {
            VSrc::Vreg(r) => self.read(r),
            VSrc::Sreg(_) => UNIFORM,
            VSrc::ImmF(x) => Val::konst(i64::from(x.to_bits())),
            VSrc::ImmB(b) => Val::konst(i64::from(b)),
        }
    }

    /// Writes `v` to `dst` respecting the EXEC mask: under a possibly
    /// partial mask, inactive lanes keep their old value, so the
    /// result is only known when old and new are the same exact value.
    fn write(&mut self, dst: Vreg, v: Val) {
        let slot = &mut self.vgpr[usize::from(dst.0)];
        *slot = if self.exec_full || (*slot == v && v.exact()) {
            v
        } else {
            Val::Unknown
        };
    }

    fn join_from(&mut self, other: &LaneState) -> bool {
        let mut changed = false;
        for (cur, new) in self.vgpr.iter_mut().zip(&other.vgpr) {
            let j = join_val(*cur, *new);
            if *cur != j {
                *cur = j;
                changed = true;
            }
        }
        if self.exec_full && !other.exec_full {
            self.exec_full = false;
            changed = true;
        }
        changed
    }
}

/// Applies one instruction. Only vector-register effects and the EXEC
/// mask matter here; scalar state is handled by `bounds`.
fn transfer(st: &mut LaneState, instr: &Instr) {
    match *instr {
        Instr::SAndExecVcc => st.exec_full = false,
        Instr::SMovExecAll => st.exec_full = true,
        Instr::VMovB32 { dst, src } => st.write(dst, st.vsrc(src)),
        Instr::VAddI32 { dst, a, b } => st.write(dst, add(st.vsrc(a), st.read(b))),
        Instr::VMulI32 { dst, a, b } => st.write(dst, mul(st.vsrc(a), st.read(b))),
        Instr::VAndB32 { dst, a, b } => st.write(dst, and(st.vsrc(a), st.read(b))),
        Instr::VLshlB32 { dst, a, shift } => st.write(dst, shl(st.vsrc(a), st.vsrc(shift))),
        Instr::VAddF32 { dst, a, b }
        | Instr::VSubF32 { dst, a, b }
        | Instr::VMulF32 { dst, a, b }
        | Instr::VMaxF32 { dst, a, b }
        | Instr::VMinF32 { dst, a, b } => {
            let v = if st.vsrc(a).uniform() && st.read(b).uniform() {
                UNIFORM
            } else {
                Val::Unknown
            };
            st.write(dst, v);
        }
        Instr::VMacF32 { dst, a, b } => {
            let v = if st.vsrc(a).uniform() && st.read(b).uniform() && st.read(dst).uniform() {
                UNIFORM
            } else {
                Val::Unknown
            };
            st.write(dst, v);
        }
        Instr::VExpF32 { dst, src }
        | Instr::VRcpF32 { dst, src }
        | Instr::VLogF32 { dst, src }
        | Instr::VCvtF32I32 { dst, src }
        | Instr::VCvtI32F32 { dst, src } => {
            let v = if st.vsrc(src).uniform() {
                UNIFORM
            } else {
                Val::Unknown
            };
            st.write(dst, v);
        }
        // Per-lane select and loads are lane-arbitrary; a writelane
        // perturbs a single lane regardless of EXEC.
        Instr::VCndmaskB32 { dst, .. }
        | Instr::BufferLoadDword { dst, .. }
        | Instr::DsReadB32 { dst, .. } => st.write(dst, Val::Unknown),
        Instr::VWritelaneB32 { dst, .. } => st.vgpr[usize::from(dst.0)] = Val::Unknown,
        _ => {}
    }
}

/// True when a store with per-lane address `addr` and stored value
/// `value` cannot make two lanes write conflicting bytes.
fn store_is_safe(addr: Val, value: Val) -> bool {
    match addr {
        // Lane-private: 4-byte writes at least 4 bytes apart for any
        // two distinct lanes (|stride·Δlane| ≤ 15·2²⁷ < 2³¹ keeps the
        // separation valid even mod 2³²).
        Val::Affine { stride, .. } if stride.abs() >= 4 && stride.abs() <= 1 << 27 => true,
        // Broadcast: every active lane writes the same bytes to the
        // same address; ordering is unobservable.
        Val::Affine { stride: 0, .. } => value.uniform(),
        _ => false,
    }
}

/// Computes the lane-interference certificate for `kernel`.
///
/// The certificate is per-instruction and within-wave: `Disjoint`
/// means no single store can make two lanes of the same wavefront
/// write overlapping bytes with differing values (waves themselves
/// execute serially per compute unit).
#[must_use]
pub fn lane_disjointness(kernel: &Kernel) -> LaneDisjointness {
    let code = &kernel.code;
    let cfg = Cfg::build(kernel);
    let blocks = cfg.blocks();

    // Forward fixpoint over reachable blocks.
    let mut ins: Vec<Option<LaneState>> = vec![None; blocks.len()];
    let entry_block = cfg.block_of(0);
    ins[entry_block] = Some(LaneState::entry());
    let mut work = vec![entry_block];
    while let Some(b) = work.pop() {
        let mut st = ins[b].clone().expect("worklist blocks have a state");
        for pc in blocks[b].range() {
            transfer(&mut st, &code[pc]);
        }
        for &s in &blocks[b].successors {
            let changed = match &mut ins[s] {
                Some(cur) => cur.join_from(&st),
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

    // Classify every reachable store, in program order.
    for (bi, b) in blocks.iter().enumerate() {
        let Some(state) = &ins[bi] else { continue };
        let mut st = state.clone();
        for pc in b.range() {
            let safe = match code[pc] {
                Instr::BufferStoreDword { src, vaddr, .. } => {
                    store_is_safe(st.read(vaddr), st.read(src))
                }
                Instr::DsWriteB32 { addr, src } => store_is_safe(st.read(addr), st.read(src)),
                _ => true,
            };
            if !safe {
                return LaneDisjointness::MayInterfere { pc };
            }
            transfer(&mut st, &code[pc]);
        }
    }
    LaneDisjointness::Disjoint
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtad_miaow::asm::assemble;

    fn cert(src: &str) -> LaneDisjointness {
        lane_disjointness(&assemble(src).unwrap())
    }

    #[test]
    fn lane_indexed_store_is_disjoint() {
        let got = cert(
            "v_lshl_b32 v4, v0, 2\n\
             buffer_load_dword v2, v4, s0\n\
             v_mac_f32 v3, 2.0, v2\n\
             buffer_store_dword v3, v4, s2\n\
             s_endpgm",
        );
        assert_eq!(got, LaneDisjointness::Disjoint);
    }

    #[test]
    fn uniform_address_with_per_lane_value_interferes() {
        let got = cert(
            "v_mov_b32 v1, 0.0\n\
             v_cvt_f32_i32 v2, v0\n\
             buffer_store_dword v2, v1, s0\n\
             s_endpgm",
        );
        assert_eq!(got, LaneDisjointness::MayInterfere { pc: 2 });
    }

    #[test]
    fn uniform_broadcast_store_is_disjoint() {
        let got = cert(
            "v_mov_b32 v1, 0.0\n\
             v_mov_b32 v2, 3.5\n\
             buffer_store_dword v2, v1, s0\n\
             s_endpgm",
        );
        assert_eq!(got, LaneDisjointness::Disjoint);
    }

    #[test]
    fn lane_masking_idioms_refine_to_lane_and_wave_base() {
        // v1 = (v0 & 15) << 2: lane-private LDS slots.
        // v2 = (v0 & ~15) << 2: uniform — storing a per-lane value
        // through it must be flagged.
        let got = cert(
            "v_and_b32 v1, 15, v0\n\
             v_lshl_b32 v1, v1, 2\n\
             ds_write_b32 v1, v0\n\
             s_endpgm",
        );
        assert_eq!(got, LaneDisjointness::Disjoint);

        let got = cert(
            "v_and_b32 v2, 4294967280, v0\n\
             v_lshl_b32 v2, v2, 2\n\
             v_cvt_f32_i32 v3, v0\n\
             buffer_store_dword v3, v2, s0\n\
             s_endpgm",
        );
        assert_eq!(got, LaneDisjointness::MayInterfere { pc: 3 });
    }

    #[test]
    fn address_loaded_from_memory_is_not_provable() {
        let got = cert(
            "v_lshl_b32 v4, v0, 2\n\
             buffer_load_dword v5, v4, s0\n\
             buffer_store_dword v0, v5, s1\n\
             s_endpgm",
        );
        assert_eq!(got, LaneDisjointness::MayInterfere { pc: 2 });
    }

    #[test]
    fn store_inside_divergent_region_keeps_its_affine_address() {
        let got = cert(
            "v_lshl_b32 v4, v0, 2\n\
             v_cmp_gt_f32 1.0, v2\n\
             s_and_exec_vcc\n\
             buffer_store_dword v2, v4, s0\n\
             s_mov_exec_all\n\
             s_endpgm",
        );
        assert_eq!(got, LaneDisjointness::Disjoint);
    }

    #[test]
    fn address_written_under_partial_exec_is_not_provable() {
        let got = cert(
            "v_lshl_b32 v4, v0, 2\n\
             v_cmp_gt_f32 1.0, v2\n\
             s_and_exec_vcc\n\
             v_mov_b32 v4, 0.0\n\
             s_mov_exec_all\n\
             buffer_store_dword v2, v4, s0\n\
             s_endpgm",
        );
        assert_eq!(got, LaneDisjointness::MayInterfere { pc: 5 });
    }

    #[test]
    fn small_stride_store_interferes() {
        // stride 2 < 4 bytes: adjacent lanes overlap.
        let got = cert(
            "v_lshl_b32 v4, v0, 1\n\
             buffer_store_dword v0, v4, s0\n\
             s_endpgm",
        );
        assert_eq!(got, LaneDisjointness::MayInterfere { pc: 1 });
    }
}
