//! The GPU-inspired ML processing engine: MIAOW and ML-MIAOW models.
//!
//! RTAD's second challenge — *promptly compute inference on delivered
//! branch data* — is met with a programmable engine derived from the
//! open-source MIAOW GPGPU (Balasubramanian et al., TACO 2015), an RTL
//! implementation of a subset of AMD's Southern Islands ISA. The paper
//! trims MIAOW into **ML-MIAOW** by (Fig. 4):
//!
//! 1. running the target ML kernels in simulation with HDL code coverage,
//! 2. merging per-kernel coverage,
//! 3. deleting uncovered logic, and
//! 4. re-verifying that the trimmed engine computes identical results.
//!
//! This crate reproduces that flow over a micro-architectural simulator
//! instead of RTL:
//!
//! * [`isa`] — a Southern-Islands-subset instruction set sufficient for
//!   dense ML inference (scalar control, vector f32 arithmetic including
//!   transcendentals, LDS and buffer memory).
//! * [`asm`] — a small assembler so kernels are written as readable text.
//! * [`exec`] — the compute-unit functional + cycle model (wavefronts,
//!   SIMD lanes, register files, LDS, EXEC masking).
//! * [`coverage`] — feature-level coverage instrumentation: every
//!   datapath feature a kernel exercises is recorded, the analogue of
//!   HDL line coverage.
//! * [`trim`] — the trimming pass: merged coverage → retained feature
//!   set; executing trimmed-out logic traps, and
//!   [`trim::verify_trim`] replays kernels to prove
//!   output equivalence (step 4 of Fig. 4).
//! * [`area`] — the per-feature area model calibrated to Table I/II:
//!   MIAOW 287,903 LUT+FF, MIAOW2.0 −42%, ML-MIAOW −82%.
//! * [`engine`] — the multi-CU engine: MIAOW (1 CU fits the ZC706) vs
//!   ML-MIAOW (5 CUs in the same area), with dispatch overheads.
//! * [`predecode`] — the host-performance layer: kernels are lowered
//!   once into a flat dispatch-optimized form (precomputed costs,
//!   coverage masks, trap verdicts) cached by kernel fingerprint (see
//!   DESIGN.md §10).
//!
//! # Examples
//!
//! Assemble and run a saxpy-like kernel:
//!
//! ```
//! use rtad_miaow::asm::assemble;
//! use rtad_miaow::exec::{ComputeUnit, Dispatch};
//! use rtad_miaow::coverage::CoverageSet;
//! use rtad_miaow::isa::WAVEFRONT_LANES;
//! use rtad_miaow::GpuMemory;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let kernel = assemble(r#"
//!     v_lshl_b32  v4, v0, 2             ; byte offset = lane * 4
//!     v_mov_b32   v1, 2.0
//!     buffer_load_dword v2, v4, s0      ; x[lane]
//!     v_mac_f32   v3, v1, v2            ; acc += 2*x
//!     buffer_store_dword v3, v4, s2     ; y[lane]
//!     s_endpgm
//! "#)?;
//!
//! let mut mem = GpuMemory::new(4096);
//! for lane in 0..WAVEFRONT_LANES {
//!     mem.write_f32(lane * 4, lane as f32);
//! }
//! let mut cu = ComputeUnit::new();
//! let mut cov = CoverageSet::new();
//! // s0 = input base 0, s2 = output base 1024.
//! let stats = cu.run(&kernel, &Dispatch::single_wave(&[0, 0, 1024]), &mut mem, &mut cov)?;
//! assert!(stats.cycles > 0);
//! assert_eq!(mem.read_f32(1024 + 12), 6.0); // y[3] = 2*3
//! # Ok(())
//! # }
//! ```

pub mod area;
pub mod asm;
pub mod coverage;
pub mod engine;
pub mod exec;
pub mod isa;
pub mod memory;
pub mod predecode;
pub mod trim;

pub use area::{variant_area, EngineVariant};
pub use asm::{assemble, AssembleError};
pub use coverage::{CoverageSet, Feature};
pub use engine::{Engine, EngineConfig, LaunchStats, TierCensus};
pub use exec::{ComputeUnit, Dispatch, ExecError, RunStats};
pub use isa::{Instr, Kernel, WAVEFRONT_LANES};
pub use memory::GpuMemory;
pub use predecode::{KernelCacheStats, PredecodeStats, PredecodedKernel, PredecodedStream};
pub use trim::{verify_trim, TrimPlan, TrimReport, TrimWorkload};
