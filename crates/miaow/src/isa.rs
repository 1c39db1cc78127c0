//! The Southern-Islands-subset instruction set.
//!
//! MIAOW implements a subset of AMD's Southern Islands (GCN1) ISA; this
//! model keeps the slice of it that dense ML inference exercises —
//! scalar control flow, vector f32 arithmetic (including the
//! transcendentals SI provides natively, `V_EXP_F32`/`V_RCP_F32`/
//! `V_LOG_F32`), cross-lane reads for reductions, LDS and buffer memory
//! — at the *instruction* level rather than the binary-encoding level
//! (DESIGN.md records this substitution; nothing in the paper's
//! evaluation depends on binary encodings).
//!
//! Wavefronts are [`WAVEFRONT_LANES`] = 16 lanes wide (MIAOW's SIMD
//! width; real SI wavefronts are 64 lanes executed 16 at a time over 4
//! cycles — modelling the 16-lane SIMD directly keeps per-instruction
//! costs honest while staying fast to simulate).

use std::fmt;

use serde::{Deserialize, Serialize};

/// Lanes per wavefront (the SIMD width of one MIAOW compute unit).
pub const WAVEFRONT_LANES: usize = 16;

/// Number of scalar registers per wavefront.
pub const SGPR_COUNT: usize = 64;

/// Number of vector registers per wavefront.
pub const VGPR_COUNT: usize = 64;

/// LDS (local data share) bytes per compute unit.
pub const LDS_BYTES: usize = 32 * 1024;

/// A scalar general-purpose register index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Sreg(pub u8);

impl fmt::Display for Sreg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// A vector general-purpose register index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Vreg(pub u8);

impl fmt::Display for Vreg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A scalar operand: register or 32-bit immediate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SSrc {
    /// Scalar register.
    Reg(Sreg),
    /// Integer immediate.
    Imm(i32),
}

impl fmt::Display for SSrc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SSrc::Reg(r) => write!(f, "{r}"),
            SSrc::Imm(i) => write!(f, "{i}"),
        }
    }
}

/// A vector operand: vector register, scalar register (broadcast) or
/// float immediate (broadcast).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum VSrc {
    /// Per-lane vector register.
    Vreg(Vreg),
    /// Broadcast scalar register (bit pattern reinterpreted as needed).
    Sreg(Sreg),
    /// Broadcast float immediate.
    ImmF(f32),
    /// Broadcast raw-bits immediate (integer operands, shift amounts).
    ImmB(u32),
}

impl fmt::Display for VSrc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VSrc::Vreg(r) => write!(f, "{r}"),
            VSrc::Sreg(r) => write!(f, "{r}"),
            VSrc::ImmF(x) => write!(f, "{x}"),
            VSrc::ImmB(b) => write!(f, "{b}"),
        }
    }
}

/// One instruction of the modelled ISA.
///
/// Branch targets are resolved instruction indices (the assembler turns
/// labels into indices).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum Instr {
    // --- Scalar ALU ---
    SMovB32 {
        dst: Sreg,
        src: SSrc,
    },
    SAddI32 {
        dst: Sreg,
        a: SSrc,
        b: SSrc,
    },
    SSubI32 {
        dst: Sreg,
        a: SSrc,
        b: SSrc,
    },
    SMulI32 {
        dst: Sreg,
        a: SSrc,
        b: SSrc,
    },
    SLshlB32 {
        dst: Sreg,
        a: SSrc,
        shift: SSrc,
    },
    SAndB32 {
        dst: Sreg,
        a: SSrc,
        b: SSrc,
    },
    /// SCC = (a < b), signed.
    SCmpLtI32 {
        a: SSrc,
        b: SSrc,
    },
    /// SCC = (a == b).
    SCmpEqI32 {
        a: SSrc,
        b: SSrc,
    },
    // --- Scalar control flow ---
    SBranch {
        target: usize,
    },
    SCbranchScc1 {
        target: usize,
    },
    SCbranchScc0 {
        target: usize,
    },
    SBarrier,
    SWaitcnt,
    SEndpgm,
    // --- Scalar memory ---
    SLoadDword {
        dst: Sreg,
        base: Sreg,
        offset: u32,
    },
    // --- EXEC mask manipulation ---
    /// EXEC &= VCC (enter a divergent region).
    SAndExecVcc,
    /// EXEC = all lanes (leave a divergent region).
    SMovExecAll,
    // --- Vector ALU: f32 ---
    VMovB32 {
        dst: Vreg,
        src: VSrc,
    },
    VAddF32 {
        dst: Vreg,
        a: VSrc,
        b: Vreg,
    },
    VSubF32 {
        dst: Vreg,
        a: VSrc,
        b: Vreg,
    },
    VMulF32 {
        dst: Vreg,
        a: VSrc,
        b: Vreg,
    },
    /// dst += a * b (the MAC that carries all matvec work).
    VMacF32 {
        dst: Vreg,
        a: VSrc,
        b: Vreg,
    },
    VMaxF32 {
        dst: Vreg,
        a: VSrc,
        b: Vreg,
    },
    VMinF32 {
        dst: Vreg,
        a: VSrc,
        b: Vreg,
    },
    // --- Vector ALU: transcendental ---
    /// dst = e^src (SI's V_EXP_F32 is base-2; we model base-e and note
    /// the deviation — kernels are written against this semantics).
    VExpF32 {
        dst: Vreg,
        src: VSrc,
    },
    /// dst = 1 / src.
    VRcpF32 {
        dst: Vreg,
        src: VSrc,
    },
    /// dst = ln(src).
    VLogF32 {
        dst: Vreg,
        src: VSrc,
    },
    // --- Vector ALU: integer / conversion ---
    VAddI32 {
        dst: Vreg,
        a: VSrc,
        b: Vreg,
    },
    VMulI32 {
        dst: Vreg,
        a: VSrc,
        b: Vreg,
    },
    /// Bitwise AND (lane-index extraction, address masking).
    VAndB32 {
        dst: Vreg,
        a: VSrc,
        b: Vreg,
    },
    VLshlB32 {
        dst: Vreg,
        a: VSrc,
        shift: VSrc,
    },
    VCvtF32I32 {
        dst: Vreg,
        src: VSrc,
    },
    VCvtI32F32 {
        dst: Vreg,
        src: VSrc,
    },
    // --- Vector compare / select ---
    /// `VCC[lane] = a > b`.
    VCmpGtF32 {
        a: VSrc,
        b: Vreg,
    },
    /// `VCC[lane] = a < b`.
    VCmpLtF32 {
        a: VSrc,
        b: Vreg,
    },
    /// `dst[lane] = VCC[lane] ? b : a`.
    VCndmaskB32 {
        dst: Vreg,
        a: VSrc,
        b: Vreg,
    },
    // --- Cross-lane ---
    VReadlaneB32 {
        dst: Sreg,
        src: Vreg,
        lane: u8,
    },
    VWritelaneB32 {
        dst: Vreg,
        src: SSrc,
        lane: u8,
    },
    // --- Vector memory ---
    /// `dst = mem[s[sbase] + v[vaddr]]` (byte address, dword access).
    BufferLoadDword {
        dst: Vreg,
        vaddr: Vreg,
        sbase: Sreg,
    },
    /// `mem[s[sbase] + v[vaddr]] = src`.
    BufferStoreDword {
        src: Vreg,
        vaddr: Vreg,
        sbase: Sreg,
    },
    /// `dst = lds[v[addr]]`.
    DsReadB32 {
        dst: Vreg,
        addr: Vreg,
    },
    /// `lds[v[addr]] = src`.
    DsWriteB32 {
        addr: Vreg,
        src: Vreg,
    },
}

impl Instr {
    /// Whether this instruction can end or redirect the program.
    pub fn is_control_flow(&self) -> bool {
        matches!(
            self,
            Instr::SBranch { .. }
                | Instr::SCbranchScc1 { .. }
                | Instr::SCbranchScc0 { .. }
                | Instr::SEndpgm
        )
    }

    /// The mnemonic, as the assembler spells it.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            Instr::SMovB32 { .. } => "s_mov_b32",
            Instr::SAddI32 { .. } => "s_add_i32",
            Instr::SSubI32 { .. } => "s_sub_i32",
            Instr::SMulI32 { .. } => "s_mul_i32",
            Instr::SLshlB32 { .. } => "s_lshl_b32",
            Instr::SAndB32 { .. } => "s_and_b32",
            Instr::SCmpLtI32 { .. } => "s_cmp_lt_i32",
            Instr::SCmpEqI32 { .. } => "s_cmp_eq_i32",
            Instr::SBranch { .. } => "s_branch",
            Instr::SCbranchScc1 { .. } => "s_cbranch_scc1",
            Instr::SCbranchScc0 { .. } => "s_cbranch_scc0",
            Instr::SBarrier => "s_barrier",
            Instr::SWaitcnt => "s_waitcnt",
            Instr::SEndpgm => "s_endpgm",
            Instr::SLoadDword { .. } => "s_load_dword",
            Instr::SAndExecVcc => "s_and_exec_vcc",
            Instr::SMovExecAll => "s_mov_exec_all",
            Instr::VMovB32 { .. } => "v_mov_b32",
            Instr::VAddF32 { .. } => "v_add_f32",
            Instr::VSubF32 { .. } => "v_sub_f32",
            Instr::VMulF32 { .. } => "v_mul_f32",
            Instr::VMacF32 { .. } => "v_mac_f32",
            Instr::VMaxF32 { .. } => "v_max_f32",
            Instr::VMinF32 { .. } => "v_min_f32",
            Instr::VExpF32 { .. } => "v_exp_f32",
            Instr::VRcpF32 { .. } => "v_rcp_f32",
            Instr::VLogF32 { .. } => "v_log_f32",
            Instr::VAddI32 { .. } => "v_add_i32",
            Instr::VMulI32 { .. } => "v_mul_i32",
            Instr::VAndB32 { .. } => "v_and_b32",
            Instr::VLshlB32 { .. } => "v_lshl_b32",
            Instr::VCvtF32I32 { .. } => "v_cvt_f32_i32",
            Instr::VCvtI32F32 { .. } => "v_cvt_i32_f32",
            Instr::VCmpGtF32 { .. } => "v_cmp_gt_f32",
            Instr::VCmpLtF32 { .. } => "v_cmp_lt_f32",
            Instr::VCndmaskB32 { .. } => "v_cndmask_b32",
            Instr::VReadlaneB32 { .. } => "v_readlane_b32",
            Instr::VWritelaneB32 { .. } => "v_writelane_b32",
            Instr::BufferLoadDword { .. } => "buffer_load_dword",
            Instr::BufferStoreDword { .. } => "buffer_store_dword",
            Instr::DsReadB32 { .. } => "ds_read_b32",
            Instr::DsWriteB32 { .. } => "ds_write_b32",
        }
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// An assembled kernel: a straight-line instruction vector with resolved
/// branch targets plus resource metadata.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Kernel {
    /// Kernel name (for coverage reports).
    pub name: String,
    /// The instructions.
    pub code: Vec<Instr>,
    /// Highest SGPR index used + 1.
    pub sgprs_used: usize,
    /// Highest VGPR index used + 1.
    pub vgprs_used: usize,
    /// Memoized [`Kernel::fingerprint`]; computing it formats the whole
    /// disassembly, far too expensive for the per-launch cache probe.
    #[serde(skip)]
    fp: std::sync::OnceLock<u64>,
}

impl PartialEq for Kernel {
    fn eq(&self, other: &Self) -> bool {
        // The memoized fingerprint is derived state, not identity.
        self.name == other.name
            && self.code == other.code
            && self.sgprs_used == other.sgprs_used
            && self.vgprs_used == other.vgprs_used
    }
}

impl fmt::Display for Kernel {
    /// Disassembles the kernel to text the assembler accepts:
    /// `assemble_named(k.name, &k.to_string())` reproduces the kernel.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Branch targets become labels.
        let mut is_target = vec![false; self.code.len()];
        for instr in &self.code {
            match instr {
                Instr::SBranch { target }
                | Instr::SCbranchScc1 { target }
                | Instr::SCbranchScc0 { target } => is_target[*target] = true,
                _ => {}
            }
        }
        writeln!(
            f,
            "; kernel {} ({} instructions)",
            self.name,
            self.code.len()
        )?;
        for (i, instr) in self.code.iter().enumerate() {
            if is_target[i] {
                writeln!(f, "L{i}:")?;
            }
            writeln!(f, "    {}", disasm_line(instr))?;
        }
        Ok(())
    }
}

fn fmt_f32(x: f32) -> String {
    // Emit in a form the assembler parses back as a float, exactly.
    if x == x.trunc() && x.abs() < 1e15 {
        format!("{x:.1}")
    } else {
        let s = format!("{x}");
        if s.contains('.') || s.contains('e') || s.contains("inf") || s.contains("NaN") {
            s
        } else {
            format!("{s}.0")
        }
    }
}

fn fmt_vsrc(v: &VSrc) -> String {
    match v {
        VSrc::Vreg(r) => format!("{r}"),
        VSrc::Sreg(r) => format!("{r}"),
        VSrc::ImmF(x) => fmt_f32(*x),
        VSrc::ImmB(b) => format!("{b}"),
    }
}

fn disasm_line(instr: &Instr) -> String {
    let m = instr.mnemonic();
    match instr {
        Instr::SMovB32 { dst, src } => format!("{m} {dst}, {src}"),
        Instr::SAddI32 { dst, a, b }
        | Instr::SSubI32 { dst, a, b }
        | Instr::SMulI32 { dst, a, b }
        | Instr::SAndB32 { dst, a, b } => format!("{m} {dst}, {a}, {b}"),
        Instr::SLshlB32 { dst, a, shift } => format!("{m} {dst}, {a}, {shift}"),
        Instr::SCmpLtI32 { a, b } | Instr::SCmpEqI32 { a, b } => format!("{m} {a}, {b}"),
        Instr::SBranch { target }
        | Instr::SCbranchScc1 { target }
        | Instr::SCbranchScc0 { target } => format!("{m} L{target}"),
        Instr::SBarrier
        | Instr::SWaitcnt
        | Instr::SEndpgm
        | Instr::SAndExecVcc
        | Instr::SMovExecAll => m.to_string(),
        Instr::SLoadDword { dst, base, offset } => format!("{m} {dst}, {base}, {offset}"),
        Instr::VMovB32 { dst, src }
        | Instr::VExpF32 { dst, src }
        | Instr::VRcpF32 { dst, src }
        | Instr::VLogF32 { dst, src }
        | Instr::VCvtF32I32 { dst, src }
        | Instr::VCvtI32F32 { dst, src } => format!("{m} {dst}, {}", fmt_vsrc(src)),
        Instr::VAddF32 { dst, a, b }
        | Instr::VSubF32 { dst, a, b }
        | Instr::VMulF32 { dst, a, b }
        | Instr::VMacF32 { dst, a, b }
        | Instr::VMaxF32 { dst, a, b }
        | Instr::VMinF32 { dst, a, b }
        | Instr::VAddI32 { dst, a, b }
        | Instr::VMulI32 { dst, a, b }
        | Instr::VAndB32 { dst, a, b }
        | Instr::VCndmaskB32 { dst, a, b } => format!("{m} {dst}, {}, {b}", fmt_vsrc(a)),
        Instr::VLshlB32 { dst, a, shift } => {
            format!("{m} {dst}, {}, {}", fmt_vsrc(a), fmt_vsrc(shift))
        }
        Instr::VCmpGtF32 { a, b } | Instr::VCmpLtF32 { a, b } => {
            format!("{m} {}, {b}", fmt_vsrc(a))
        }
        Instr::VReadlaneB32 { dst, src, lane } => format!("{m} {dst}, {src}, {lane}"),
        Instr::VWritelaneB32 { dst, src, lane } => format!("{m} {dst}, {src}, {lane}"),
        Instr::BufferLoadDword { dst, vaddr, sbase } => format!("{m} {dst}, {vaddr}, {sbase}"),
        Instr::BufferStoreDword { src, vaddr, sbase } => format!("{m} {src}, {vaddr}, {sbase}"),
        Instr::DsReadB32 { dst, addr } => format!("{m} {dst}, {addr}"),
        Instr::DsWriteB32 { addr, src } => format!("{m} {addr}, {src}"),
    }
}

impl Kernel {
    /// Builds a kernel from raw instructions, computing register usage.
    ///
    /// # Panics
    ///
    /// Panics if any branch target is out of range, a register index
    /// exceeds the file size, or the kernel does not end in `s_endpgm`.
    pub fn new(name: impl Into<String>, code: Vec<Instr>) -> Self {
        assert!(
            matches!(code.last(), Some(Instr::SEndpgm)),
            "kernel must end with s_endpgm"
        );
        let mut sgprs_used = 0usize;
        let mut vgprs_used = 0usize;
        // Walk operands: conservative max over everything mentioned.
        for (i, instr) in code.iter().enumerate() {
            match instr {
                Instr::SBranch { target }
                | Instr::SCbranchScc1 { target }
                | Instr::SCbranchScc0 { target } => {
                    assert!(
                        *target < code.len(),
                        "branch at {i} targets {target}, out of range"
                    );
                }
                _ => {}
            }
            for s in instr_sregs(instr) {
                sgprs_used = sgprs_used.max(s.0 as usize + 1);
            }
            for s in instr_ssrcs(instr) {
                if let SSrc::Reg(r) = s {
                    sgprs_used = sgprs_used.max(r.0 as usize + 1);
                }
            }
            for v in instr_vregs(instr) {
                vgprs_used = vgprs_used.max(v.0 as usize + 1);
            }
        }
        assert!(
            sgprs_used <= SGPR_COUNT,
            "kernel uses {sgprs_used} SGPRs, file has {SGPR_COUNT}"
        );
        assert!(
            vgprs_used <= VGPR_COUNT,
            "kernel uses {vgprs_used} VGPRs, file has {VGPR_COUNT}"
        );
        Kernel {
            name: name.into(),
            code,
            sgprs_used,
            vgprs_used,
            fp: std::sync::OnceLock::new(),
        }
    }

    /// A stable content fingerprint (FNV-1a over the name and the
    /// disassembly text), usable as a cache key for per-kernel analysis
    /// verdicts. Two kernels with the same name and instructions hash
    /// equal across runs and processes. Memoized: the disassembly is
    /// only formatted on the first call.
    pub fn fingerprint(&self) -> u64 {
        *self.fp.get_or_init(|| {
            let mut h: u64 = 0xCBF2_9CE4_8422_2325;
            let mut eat = |bytes: &[u8]| {
                for &b in bytes {
                    h ^= u64::from(b);
                    h = h.wrapping_mul(0x0000_0100_0000_01B3);
                }
            };
            eat(self.name.as_bytes());
            eat(&[0]); // separator: name/code boundary must be unambiguous
            eat(self.to_string().as_bytes());
            h
        })
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// Whether the kernel is empty (never true for a valid kernel).
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }
}

/// All scalar destination/base registers an instruction names directly.
fn instr_sregs(i: &Instr) -> Vec<Sreg> {
    match i {
        Instr::SMovB32 { dst, .. }
        | Instr::SAddI32 { dst, .. }
        | Instr::SSubI32 { dst, .. }
        | Instr::SMulI32 { dst, .. }
        | Instr::SLshlB32 { dst, .. }
        | Instr::SAndB32 { dst, .. } => vec![*dst],
        Instr::SLoadDword { dst, base, .. } => vec![*dst, *base],
        Instr::VReadlaneB32 { dst, .. } => vec![*dst],
        Instr::BufferLoadDword { sbase, .. } | Instr::BufferStoreDword { sbase, .. } => {
            vec![*sbase]
        }
        _ => Vec::new(),
    }
}

/// All scalar-source operands an instruction carries.
fn instr_ssrcs(i: &Instr) -> Vec<SSrc> {
    let from_v = |v: &VSrc| match v {
        VSrc::Sreg(r) => vec![SSrc::Reg(*r)],
        _ => vec![],
    };
    match i {
        Instr::SMovB32 { src, .. } => vec![*src],
        Instr::SAddI32 { a, b, .. }
        | Instr::SSubI32 { a, b, .. }
        | Instr::SMulI32 { a, b, .. }
        | Instr::SAndB32 { a, b, .. }
        | Instr::SCmpLtI32 { a, b }
        | Instr::SCmpEqI32 { a, b } => vec![*a, *b],
        Instr::SLshlB32 { a, shift, .. } => vec![*a, *shift],
        Instr::VWritelaneB32 { src, .. } => vec![*src],
        Instr::VMovB32 { src, .. }
        | Instr::VExpF32 { src, .. }
        | Instr::VRcpF32 { src, .. }
        | Instr::VLogF32 { src, .. }
        | Instr::VCvtF32I32 { src, .. }
        | Instr::VCvtI32F32 { src, .. } => from_v(src),
        Instr::VAddF32 { a, .. }
        | Instr::VSubF32 { a, .. }
        | Instr::VMulF32 { a, .. }
        | Instr::VMacF32 { a, .. }
        | Instr::VMaxF32 { a, .. }
        | Instr::VMinF32 { a, .. }
        | Instr::VAddI32 { a, .. }
        | Instr::VMulI32 { a, .. }
        | Instr::VAndB32 { a, .. }
        | Instr::VCmpGtF32 { a, .. }
        | Instr::VCmpLtF32 { a, .. }
        | Instr::VCndmaskB32 { a, .. } => from_v(a),
        Instr::VLshlB32 { a, shift, .. } => {
            let mut v = from_v(a);
            v.extend(from_v(shift));
            v
        }
        _ => Vec::new(),
    }
}

/// All vector registers an instruction names.
fn instr_vregs(i: &Instr) -> Vec<Vreg> {
    let from_v = |v: &VSrc| match v {
        VSrc::Vreg(r) => vec![*r],
        _ => vec![],
    };
    match i {
        Instr::VMovB32 { dst, src }
        | Instr::VExpF32 { dst, src }
        | Instr::VRcpF32 { dst, src }
        | Instr::VLogF32 { dst, src }
        | Instr::VCvtF32I32 { dst, src }
        | Instr::VCvtI32F32 { dst, src } => {
            let mut v = vec![*dst];
            v.extend(from_v(src));
            v
        }
        Instr::VAddF32 { dst, a, b }
        | Instr::VSubF32 { dst, a, b }
        | Instr::VMulF32 { dst, a, b }
        | Instr::VMacF32 { dst, a, b }
        | Instr::VMaxF32 { dst, a, b }
        | Instr::VMinF32 { dst, a, b }
        | Instr::VAddI32 { dst, a, b }
        | Instr::VMulI32 { dst, a, b }
        | Instr::VAndB32 { dst, a, b }
        | Instr::VCndmaskB32 { dst, a, b } => {
            let mut v = vec![*dst, *b];
            v.extend(from_v(a));
            v
        }
        Instr::VLshlB32 { dst, a, shift } => {
            let mut v = vec![*dst];
            v.extend(from_v(a));
            v.extend(from_v(shift));
            v
        }
        Instr::VCmpGtF32 { a, b } | Instr::VCmpLtF32 { a, b } => {
            let mut v = vec![*b];
            v.extend(from_v(a));
            v
        }
        Instr::VReadlaneB32 { src, .. } => vec![*src],
        Instr::VWritelaneB32 { dst, .. } => vec![*dst],
        Instr::BufferLoadDword { dst, vaddr, .. } => vec![*dst, *vaddr],
        Instr::BufferStoreDword { src, vaddr, .. } => vec![*src, *vaddr],
        Instr::DsReadB32 { dst, addr } => vec![*dst, *addr],
        Instr::DsWriteB32 { addr, src } => vec![*addr, *src],
        _ => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_tracks_register_usage() {
        let k = Kernel::new(
            "t",
            vec![
                Instr::SMovB32 {
                    dst: Sreg(5),
                    src: SSrc::Imm(1),
                },
                Instr::VMovB32 {
                    dst: Vreg(9),
                    src: VSrc::Sreg(Sreg(5)),
                },
                Instr::SEndpgm,
            ],
        );
        assert_eq!(k.sgprs_used, 6);
        assert_eq!(k.vgprs_used, 10);
        assert_eq!(k.len(), 3);
    }

    #[test]
    #[should_panic(expected = "must end with s_endpgm")]
    fn kernel_without_endpgm_rejected() {
        Kernel::new(
            "t",
            vec![Instr::SMovB32 {
                dst: Sreg(0),
                src: SSrc::Imm(0),
            }],
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_branch_rejected() {
        Kernel::new("t", vec![Instr::SBranch { target: 9 }, Instr::SEndpgm]);
    }

    #[test]
    fn control_flow_classification() {
        assert!(Instr::SEndpgm.is_control_flow());
        assert!(Instr::SBranch { target: 0 }.is_control_flow());
        assert!(!Instr::SBarrier.is_control_flow());
        assert!(!Instr::VMovB32 {
            dst: Vreg(0),
            src: VSrc::ImmF(0.0)
        }
        .is_control_flow());
    }

    #[test]
    fn mnemonics_are_lower_snake() {
        let i = Instr::VMacF32 {
            dst: Vreg(0),
            a: VSrc::ImmF(1.0),
            b: Vreg(1),
        };
        assert_eq!(i.mnemonic(), "v_mac_f32");
        assert_eq!(format!("{i}"), "v_mac_f32");
    }
}

#[cfg(test)]
mod disasm_tests {
    use crate::asm::{assemble, assemble_named};

    #[test]
    fn disassembly_reassembles_identically() {
        let src = r#"
            s_mov_b32 s10, 0
        loop:
            v_mov_b32 v6, s10
            ds_read_b32 v7, v6
            v_mac_f32 v3, v7, v7
            v_min_f32 v3, 20.0, v3
            v_max_f32 v3, -20.0, v3
            s_add_i32 s10, s10, 4
            s_cmp_lt_i32 s10, 64
            s_cbranch_scc1 loop
            v_lshl_b32 v10, v0, 2
            buffer_store_dword v3, v10, s1
            s_endpgm
        "#;
        let k = assemble(src).unwrap();
        let text = k.to_string();
        let k2 = assemble_named(&k.name, &text).unwrap();
        assert_eq!(k, k2, "round-trip differs:\n{text}");
    }

    #[test]
    fn disassembly_labels_branch_targets() {
        let k = assemble("s_branch end\nv_mov_b32 v1, 1.5\nend:\ns_endpgm").unwrap();
        let text = k.to_string();
        assert!(text.contains("L2:"), "{text}");
        assert!(text.contains("s_branch L2"), "{text}");
    }

    #[test]
    fn float_immediates_survive_roundtrip() {
        let k = assemble("v_mov_b32 v1, 0.30000001\nv_mov_b32 v2, -2.0\ns_endpgm").unwrap();
        let k2 = assemble(&k.to_string()).unwrap();
        assert_eq!(k.code, k2.code);
    }
}
