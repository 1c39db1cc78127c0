//! Def-before-use dataflow: a forward *must-defined* analysis over the
//! CFG.
//!
//! The lattice element is the set of registers (SGPRs, VGPRs, SCC, VCC,
//! EXEC) guaranteed written on **every** path from entry; block inputs
//! meet by intersection over predecessors. The entry state holds the
//! dispatch-provided user-data SGPRs (`s0..s{n-1}` from
//! `Dispatch::sgpr_init`), `v0` (hardware pre-initializes it with the
//! global thread id) and EXEC (launched full). An instruction reading a
//! register outside the must-defined set on some path reads whatever
//! the register file last held — a silent wrong-answer bug the runtime
//! cannot trap, which is why it is an
//! [`Severity::Error`](crate::report::Severity::Error) here.
//!
//! Read-modify-write special cases: `v_mac_f32` reads its destination
//! (`dst += a*b`), and `v_writelane_b32` reads it too (all other lanes
//! pass through).

use rtad_miaow::isa::{Instr, SSrc, VSrc};

use crate::cfg::Cfg;
use crate::report::Reg;

/// A set of defined registers, as bitmasks (the register files are 64
/// entries each).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegSet {
    sgpr: u64,
    vgpr: u64,
    scc: bool,
    vcc: bool,
    exec: bool,
}

impl RegSet {
    /// The empty set.
    pub fn empty() -> Self {
        RegSet {
            sgpr: 0,
            vgpr: 0,
            scc: false,
            vcc: false,
            exec: false,
        }
    }

    /// The universal set (the must-analysis top element).
    pub fn all() -> Self {
        RegSet {
            sgpr: u64::MAX,
            vgpr: u64::MAX,
            scc: true,
            vcc: true,
            exec: true,
        }
    }

    /// The launch-entry state: `n_args` user-data SGPRs, `v0`, EXEC.
    pub fn at_entry(n_args: usize) -> Self {
        let n = n_args.min(64) as u32;
        RegSet {
            sgpr: if n >= 64 { u64::MAX } else { (1u64 << n) - 1 },
            vgpr: 1, // v0 = global thread id
            scc: false,
            vcc: false,
            exec: true,
        }
    }

    /// Inserts one register.
    pub fn insert(&mut self, r: Reg) {
        match r {
            Reg::S(i) => self.sgpr |= 1u64 << (i % 64),
            Reg::V(i) => self.vgpr |= 1u64 << (i % 64),
            Reg::Scc => self.scc = true,
            Reg::Vcc => self.vcc = true,
            Reg::Exec => self.exec = true,
        }
    }

    /// Whether `r` is in the set.
    pub fn contains(&self, r: Reg) -> bool {
        match r {
            Reg::S(i) => self.sgpr & (1u64 << (i % 64)) != 0,
            Reg::V(i) => self.vgpr & (1u64 << (i % 64)) != 0,
            Reg::Scc => self.scc,
            Reg::Vcc => self.vcc,
            Reg::Exec => self.exec,
        }
    }

    /// The meet: intersection (must-defined on every path).
    pub fn intersect(&self, other: &RegSet) -> RegSet {
        RegSet {
            sgpr: self.sgpr & other.sgpr,
            vgpr: self.vgpr & other.vgpr,
            scc: self.scc && other.scc,
            vcc: self.vcc && other.vcc,
            exec: self.exec && other.exec,
        }
    }
}

fn use_ssrc(uses: &mut Vec<Reg>, s: &SSrc) {
    if let SSrc::Reg(r) = s {
        uses.push(Reg::S(r.0));
    }
}

fn use_vsrc(uses: &mut Vec<Reg>, v: &VSrc) {
    match v {
        VSrc::Vreg(r) => uses.push(Reg::V(r.0)),
        VSrc::Sreg(r) => uses.push(Reg::S(r.0)),
        VSrc::ImmF(_) | VSrc::ImmB(_) => {}
    }
}

/// The registers an instruction reads and writes, in that order.
/// Read-modify-write destinations appear in both lists.
pub fn uses_defs(instr: &Instr) -> (Vec<Reg>, Vec<Reg>) {
    let mut uses = Vec::new();
    let mut defs = Vec::new();
    match instr {
        Instr::SMovB32 { dst, src } => {
            use_ssrc(&mut uses, src);
            defs.push(Reg::S(dst.0));
        }
        Instr::SAddI32 { dst, a, b }
        | Instr::SSubI32 { dst, a, b }
        | Instr::SMulI32 { dst, a, b }
        | Instr::SAndB32 { dst, a, b } => {
            use_ssrc(&mut uses, a);
            use_ssrc(&mut uses, b);
            defs.push(Reg::S(dst.0));
        }
        Instr::SLshlB32 { dst, a, shift } => {
            use_ssrc(&mut uses, a);
            use_ssrc(&mut uses, shift);
            defs.push(Reg::S(dst.0));
        }
        Instr::SCmpLtI32 { a, b } | Instr::SCmpEqI32 { a, b } => {
            use_ssrc(&mut uses, a);
            use_ssrc(&mut uses, b);
            defs.push(Reg::Scc);
        }
        Instr::SBranch { .. } | Instr::SBarrier | Instr::SWaitcnt | Instr::SEndpgm => {}
        Instr::SCbranchScc1 { .. } | Instr::SCbranchScc0 { .. } => uses.push(Reg::Scc),
        Instr::SLoadDword { dst, base, .. } => {
            uses.push(Reg::S(base.0));
            defs.push(Reg::S(dst.0));
        }
        Instr::SAndExecVcc => {
            uses.push(Reg::Vcc);
            uses.push(Reg::Exec);
            defs.push(Reg::Exec);
        }
        Instr::SMovExecAll => defs.push(Reg::Exec),
        Instr::VMovB32 { dst, src }
        | Instr::VExpF32 { dst, src }
        | Instr::VRcpF32 { dst, src }
        | Instr::VLogF32 { dst, src }
        | Instr::VCvtF32I32 { dst, src }
        | Instr::VCvtI32F32 { dst, src } => {
            use_vsrc(&mut uses, src);
            defs.push(Reg::V(dst.0));
        }
        Instr::VAddF32 { dst, a, b }
        | Instr::VSubF32 { dst, a, b }
        | Instr::VMulF32 { dst, a, b }
        | Instr::VMaxF32 { dst, a, b }
        | Instr::VMinF32 { dst, a, b }
        | Instr::VAddI32 { dst, a, b }
        | Instr::VMulI32 { dst, a, b }
        | Instr::VAndB32 { dst, a, b } => {
            use_vsrc(&mut uses, a);
            uses.push(Reg::V(b.0));
            defs.push(Reg::V(dst.0));
        }
        Instr::VMacF32 { dst, a, b } => {
            // dst += a * b: the destination is an accumulator input.
            use_vsrc(&mut uses, a);
            uses.push(Reg::V(b.0));
            uses.push(Reg::V(dst.0));
            defs.push(Reg::V(dst.0));
        }
        Instr::VLshlB32 { dst, a, shift } => {
            use_vsrc(&mut uses, a);
            use_vsrc(&mut uses, shift);
            defs.push(Reg::V(dst.0));
        }
        Instr::VCmpGtF32 { a, b } | Instr::VCmpLtF32 { a, b } => {
            use_vsrc(&mut uses, a);
            uses.push(Reg::V(b.0));
            defs.push(Reg::Vcc);
        }
        Instr::VCndmaskB32 { dst, a, b } => {
            use_vsrc(&mut uses, a);
            uses.push(Reg::V(b.0));
            uses.push(Reg::Vcc);
            defs.push(Reg::V(dst.0));
        }
        Instr::VReadlaneB32 { dst, src, .. } => {
            uses.push(Reg::V(src.0));
            defs.push(Reg::S(dst.0));
        }
        Instr::VWritelaneB32 { dst, src, .. } => {
            // Writes one lane; the other 15 pass through the old value.
            use_ssrc(&mut uses, src);
            uses.push(Reg::V(dst.0));
            defs.push(Reg::V(dst.0));
        }
        Instr::BufferLoadDword { dst, vaddr, sbase } => {
            uses.push(Reg::V(vaddr.0));
            uses.push(Reg::S(sbase.0));
            defs.push(Reg::V(dst.0));
        }
        Instr::BufferStoreDword { src, vaddr, sbase } => {
            uses.push(Reg::V(src.0));
            uses.push(Reg::V(vaddr.0));
            uses.push(Reg::S(sbase.0));
        }
        Instr::DsReadB32 { dst, addr } => {
            uses.push(Reg::V(addr.0));
            defs.push(Reg::V(dst.0));
        }
        Instr::DsWriteB32 { addr, src } => {
            uses.push(Reg::V(addr.0));
            uses.push(Reg::V(src.0));
        }
    }
    (uses, defs)
}

/// One use of a register no path from entry has defined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UndefUse {
    /// The reading instruction's index.
    pub pc: usize,
    /// The register read.
    pub register: Reg,
}

/// Runs the must-defined fixpoint and returns every reachable read of a
/// possibly-undefined register, in program order.
pub fn undefined_uses(cfg: &Cfg, code: &[Instr], entry: RegSet) -> Vec<UndefUse> {
    let n_blocks = cfg.blocks().len();
    let reachable = cfg.reachable();

    let transfer = |mut state: RegSet, range: std::ops::Range<usize>| -> RegSet {
        for pc in range {
            let (_, defs) = uses_defs(&code[pc]);
            for d in defs {
                state.insert(d);
            }
        }
        state
    };

    // Fixpoint: OUT starts at top (universal) so intersections only
    // shrink toward the greatest fixpoint.
    let mut out: Vec<RegSet> = vec![RegSet::all(); n_blocks];
    out[0] = transfer(entry, cfg.blocks()[0].range());
    let mut changed = true;
    while changed {
        changed = false;
        for b in 0..n_blocks {
            if !reachable[b] {
                continue;
            }
            let input = if b == 0 {
                entry
            } else {
                cfg.blocks()[b]
                    .predecessors
                    .iter()
                    .filter(|&&p| reachable[p])
                    .fold(RegSet::all(), |acc, &p| acc.intersect(&out[p]))
            };
            let new_out = transfer(input, cfg.blocks()[b].range());
            if new_out != out[b] {
                out[b] = new_out;
                changed = true;
            }
        }
    }

    // Reporting pass: walk each reachable block from its fixpoint input.
    let mut findings = Vec::new();
    for (b, block) in cfg.blocks().iter().enumerate() {
        if !reachable[b] {
            continue;
        }
        let mut state = if b == 0 {
            entry
        } else {
            block
                .predecessors
                .iter()
                .filter(|&&p| reachable[p])
                .fold(RegSet::all(), |acc, &p| acc.intersect(&out[p]))
        };
        for pc in block.range() {
            let (uses, defs) = uses_defs(&code[pc]);
            // An instruction may read the same register through several
            // operands (`v_add_f32 v2, v1, v1`); report it once.
            let mut reported: Vec<Reg> = Vec::new();
            for u in uses {
                if !state.contains(u) && !reported.contains(&u) {
                    reported.push(u);
                    findings.push(UndefUse { pc, register: u });
                }
            }
            for d in defs {
                state.insert(d);
            }
        }
    }
    findings.sort_by_key(|f| f.pc);
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtad_miaow::asm::assemble;

    fn undef(src: &str, n_args: usize) -> Vec<UndefUse> {
        let k = assemble(src).unwrap();
        let cfg = Cfg::build(&k);
        undefined_uses(&cfg, &k.code, RegSet::at_entry(n_args))
    }

    #[test]
    fn entry_state_has_args_v0_and_exec() {
        let e = RegSet::at_entry(2);
        assert!(e.contains(Reg::S(0)) && e.contains(Reg::S(1)));
        assert!(!e.contains(Reg::S(2)));
        assert!(e.contains(Reg::V(0)));
        assert!(!e.contains(Reg::V(1)));
        assert!(e.contains(Reg::Exec));
        assert!(!e.contains(Reg::Scc) && !e.contains(Reg::Vcc));
    }

    #[test]
    fn straight_line_defs_flow_forward() {
        let clean = undef("v_mov_b32 v1, 2.0\nv_add_f32 v2, v1, v1\ns_endpgm", 0);
        assert!(clean.is_empty(), "{clean:?}");
    }

    #[test]
    fn reading_unwritten_vgpr_is_flagged() {
        // v1 is read through both source operands but reported once.
        let bad = undef("v_add_f32 v2, v1, v1\ns_endpgm", 0);
        assert_eq!(bad.len(), 1, "one finding per register: {bad:?}");
        assert_eq!(bad[0].register, Reg::V(1));
        assert_eq!(bad[0].pc, 0);
    }

    #[test]
    fn dispatch_args_are_defined_but_only_that_many() {
        // s0, s1 provided; s2 is not.
        let clean = undef("v_mov_b32 v1, s1\ns_endpgm", 2);
        assert!(clean.is_empty(), "{clean:?}");
        let bad = undef("v_mov_b32 v1, s2\ns_endpgm", 2);
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].register, Reg::S(2));
    }

    #[test]
    fn scc_must_be_set_before_conditional_branch() {
        let bad = undef("s_cbranch_scc1 end\nend:\ns_endpgm", 0);
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].register, Reg::Scc);
        let clean = undef("s_cmp_lt_i32 s0, 4\ns_cbranch_scc1 end\nend:\ns_endpgm", 1);
        assert!(clean.is_empty(), "{clean:?}");
    }

    #[test]
    fn vcc_consumers_need_a_vector_compare_first() {
        let bad = undef("v_cndmask_b32 v1, 0.0, v0\ns_endpgm", 0);
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].register, Reg::Vcc);
        let clean = undef(
            "v_cmp_gt_f32 2.0, v0\nv_cndmask_b32 v1, 0.0, v0\ns_endpgm",
            0,
        );
        assert!(clean.is_empty(), "{clean:?}");
    }

    #[test]
    fn mac_reads_its_accumulator() {
        let bad = undef("v_mac_f32 v3, 2.0, v0\ns_endpgm", 0);
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert_eq!(bad[0].register, Reg::V(3));
        let clean = undef("v_mov_b32 v3, 0.0\nv_mac_f32 v3, 2.0, v0\ns_endpgm", 0);
        assert!(clean.is_empty(), "{clean:?}");
    }

    #[test]
    fn must_analysis_meets_over_both_branch_arms() {
        // v1 is written on only one arm: the join's read is flagged.
        let one_arm = undef(
            "s_cmp_lt_i32 s0, 4\n\
             s_cbranch_scc1 join\n\
             v_mov_b32 v1, 1.0\n\
             join:\n\
             v_add_f32 v2, v1, v1\n\
             s_endpgm",
            1,
        );
        assert!(
            one_arm.iter().any(|u| u.register == Reg::V(1)),
            "{one_arm:?}"
        );
        // Written on both arms: clean.
        let both_arms = undef(
            "s_cmp_lt_i32 s0, 4\n\
             s_cbranch_scc1 other\n\
             v_mov_b32 v1, 1.0\n\
             s_branch join\n\
             other:\n\
             v_mov_b32 v1, 2.0\n\
             join:\n\
             v_add_f32 v2, v1, v1\n\
             s_endpgm",
            1,
        );
        assert!(both_arms.is_empty(), "{both_arms:?}");
    }

    #[test]
    fn loop_carried_defs_reach_the_backedge() {
        // s10 defined before the loop; the increment reads it each trip.
        let clean = undef(
            "s_mov_b32 s10, 0\n\
             top:\n\
             s_add_i32 s10, s10, 1\n\
             s_cmp_lt_i32 s10, 8\n\
             s_cbranch_scc1 top\n\
             s_endpgm",
            0,
        );
        assert!(clean.is_empty(), "{clean:?}");
    }
}
