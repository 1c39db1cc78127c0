//! The trimming pass: Fig. 4's four-step flow over the feature model.
//!
//! 1. Run each target ML kernel with coverage on ([`ComputeUnit::run`]
//!    records exercised features).
//! 2. Merge coverage ([`CoverageSet::merge`]).
//! 3. Build a [`TrimPlan`]: retained = merged coverage (+ the
//!    untrimmable core); everything else is deleted.
//! 4. [`verify_trim`]: re-run every kernel on the trimmed configuration
//!    and compare all observable outputs against the full engine.
//!
//! [`TrimPlan::block_level`] reproduces the MIAOW2.0 comparison point:
//! trimming restricted to decoder/ALU blocks.

use std::error::Error;
use std::fmt;

use rtad_sim::AreaEstimate;

use crate::area::{area_of_retained, full_area, miaow2_retained};
use crate::coverage::{CoverageSet, Feature};
use crate::exec::{ComputeUnit, Dispatch, ExecError};
use crate::isa::Kernel;
use crate::memory::GpuMemory;

/// A retained-feature plan produced by the trimming flow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrimPlan {
    retained: CoverageSet,
}

impl TrimPlan {
    /// Line-level trim (ML-MIAOW): retain exactly the merged coverage
    /// plus the core datapath.
    pub fn from_coverage(merged: &CoverageSet) -> Self {
        let mut retained = merged.clone();
        for f in Feature::all() {
            if f.is_core() {
                retained.record(f);
            }
        }
        TrimPlan { retained }
    }

    /// Block-level trim (MIAOW2.0): unused features removed only inside
    /// the decoder and ALU blocks.
    pub fn block_level(merged: &CoverageSet) -> Self {
        TrimPlan {
            retained: miaow2_retained(merged),
        }
    }

    /// The retained features.
    pub fn retained(&self) -> &CoverageSet {
        &self.retained
    }

    /// The features this plan deletes.
    pub fn trimmed_features(&self) -> Vec<Feature> {
        Feature::all()
            .into_iter()
            .filter(|f| !self.retained.contains(*f))
            .collect()
    }

    /// Per-CU area of the trimmed engine.
    pub fn area(&self) -> AreaEstimate {
        area_of_retained(&self.retained)
    }

    /// Builds a compute unit implementing only this plan's features.
    pub fn build_cu(&self) -> ComputeUnit {
        ComputeUnit::trimmed(self.retained.clone())
    }

    /// Summary of the plan against the full engine.
    pub fn report(&self) -> TrimReport {
        let before = full_area();
        let after = self.area();
        TrimReport {
            features_retained: Feature::all()
                .into_iter()
                .filter(|f| self.retained.contains(*f))
                .count(),
            features_trimmed: self.trimmed_features().len(),
            area_before: before,
            area_after: after,
            reduction: after.reduction_vs(&before),
        }
    }
}

/// Summary statistics of a trim.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrimReport {
    /// Features kept.
    pub features_retained: usize,
    /// Features deleted.
    pub features_trimmed: usize,
    /// Full-engine per-CU area.
    pub area_before: AreaEstimate,
    /// Trimmed per-CU area.
    pub area_after: AreaEstimate,
    /// Fractional LUT+FF reduction (Table II's percentage).
    pub reduction: f64,
}

impl fmt::Display for TrimReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} features kept, {} trimmed; {} -> {} LUT+FF (-{:.0}%)",
            self.features_retained,
            self.features_trimmed,
            self.area_before.lut_ff_sum(),
            self.area_after.lut_ff_sum(),
            self.reduction * 100.0
        )
    }
}

/// One verification workload: a kernel plus its launch state.
#[derive(Debug, Clone)]
pub struct TrimWorkload {
    /// The kernel to run.
    pub kernel: Kernel,
    /// Its dispatch.
    pub dispatch: Dispatch,
    /// Initial device memory contents.
    pub memory: GpuMemory,
    /// LDS staging: `(byte address, values)` pairs written before launch.
    pub lds_staging: Vec<(usize, Vec<f32>)>,
}

/// Errors from [`verify_trim`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum VerifyError {
    /// A workload failed on the full engine (the workload itself is bad).
    Reference {
        /// Kernel name.
        kernel: String,
        /// The underlying error.
        cause: ExecError,
    },
    /// A workload trapped or failed on the trimmed engine — the plan
    /// removed logic the kernels need.
    Trimmed {
        /// Kernel name.
        kernel: String,
        /// The underlying error.
        cause: ExecError,
    },
    /// Outputs differ between full and trimmed engines.
    OutputMismatch {
        /// Kernel name.
        kernel: String,
        /// First differing dword address.
        addr: usize,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::Reference { kernel, cause } => {
                write!(f, "workload `{kernel}` fails on the full engine: {cause}")
            }
            VerifyError::Trimmed { kernel, cause } => {
                write!(
                    f,
                    "workload `{kernel}` fails on the trimmed engine: {cause}"
                )
            }
            VerifyError::OutputMismatch { kernel, addr } => write!(
                f,
                "workload `{kernel}` produced different memory at {addr:#x} on the trimmed engine"
            ),
        }
    }
}

impl Error for VerifyError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            VerifyError::Reference { cause, .. } | VerifyError::Trimmed { cause, .. } => {
                Some(cause)
            }
            VerifyError::OutputMismatch { .. } => None,
        }
    }
}

/// Fig. 4 step 4: proves the trimmed configuration computes exactly what
/// the full engine computes on every workload.
///
/// # Errors
///
/// Returns [`VerifyError`] if any workload fails on either engine or
/// produces different final memory.
pub fn verify_trim(plan: &TrimPlan, workloads: &[TrimWorkload]) -> Result<TrimReport, VerifyError> {
    for w in workloads {
        let run = |cu: &mut ComputeUnit| -> Result<GpuMemory, ExecError> {
            for (addr, values) in &w.lds_staging {
                cu.write_lds_f32_slice(*addr, values);
            }
            let mut mem = w.memory.clone();
            let mut cov = CoverageSet::new();
            cu.run(&w.kernel, &w.dispatch, &mut mem, &mut cov)?;
            Ok(mem)
        };

        let mut full = ComputeUnit::new();
        let reference = run(&mut full).map_err(|cause| VerifyError::Reference {
            kernel: w.kernel.name.clone(),
            cause,
        })?;

        let mut trimmed = plan.build_cu();
        let candidate = run(&mut trimmed).map_err(|cause| VerifyError::Trimmed {
            kernel: w.kernel.name.clone(),
            cause,
        })?;

        if reference != candidate {
            // Locate the first differing dword for the report.
            let addr = (0..reference.size())
                .step_by(4)
                .find(|&a| reference.read_u32(a) != candidate.read_u32(a))
                .unwrap_or(0);
            return Err(VerifyError::OutputMismatch {
                kernel: w.kernel.name.clone(),
                addr,
            });
        }
    }
    Ok(plan.report())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble_named;

    fn saxpy_workload() -> TrimWorkload {
        let kernel = assemble_named(
            "saxpy",
            r#"
            v_lshl_b32  v1, v0, 2
            buffer_load_dword v2, v1, s0
            v_mov_b32   v3, 0.0
            v_mac_f32   v3, 2.5, v2
            buffer_store_dword v3, v1, s1
            s_endpgm
        "#,
        )
        .expect("assembles");
        let mut memory = GpuMemory::new(1024);
        for i in 0..16 {
            memory.write_f32(i * 4, i as f32);
        }
        TrimWorkload {
            kernel,
            dispatch: Dispatch::single_wave(&[0, 256]),
            memory,
            lds_staging: Vec::new(),
        }
    }

    fn coverage_of(w: &TrimWorkload) -> CoverageSet {
        let mut cu = ComputeUnit::new();
        let mut mem = w.memory.clone();
        let mut cov = CoverageSet::new();
        cu.run(&w.kernel, &w.dispatch, &mut mem, &mut cov)
            .expect("reference run");
        cov
    }

    #[test]
    fn trim_then_verify_roundtrips() {
        let w = saxpy_workload();
        let cov = coverage_of(&w);
        let plan = TrimPlan::from_coverage(&cov);
        let report = verify_trim(&plan, &[w]).expect("verification passes");
        assert!(report.reduction > 0.5);
        assert!(report.features_trimmed > 0);
    }

    #[test]
    fn undertrimmed_plan_fails_verification_with_trap() {
        let w = saxpy_workload();
        // Retain almost nothing: the kernel must trap.
        let plan = TrimPlan::from_coverage(&CoverageSet::new());
        let err = verify_trim(&plan, &[w]).unwrap_err();
        assert!(matches!(err, VerifyError::Trimmed { .. }));
    }

    #[test]
    fn block_level_plan_keeps_more_area() {
        let w = saxpy_workload();
        let cov = coverage_of(&w);
        let line = TrimPlan::from_coverage(&cov);
        let block = TrimPlan::block_level(&cov);
        assert!(block.area().lut_ff_sum() > line.area().lut_ff_sum());
        // Both still verify.
        verify_trim(&line, std::slice::from_ref(&w)).expect("line-level verifies");
        verify_trim(&block, &[w]).expect("block-level verifies");
    }

    #[test]
    fn report_displays_reduction() {
        let plan = TrimPlan::from_coverage(&CoverageSet::new());
        let s = format!("{}", plan.report());
        assert!(s.contains("trimmed"));
        assert!(s.contains('%'));
    }

    #[test]
    fn trimmed_features_partition_the_universe() {
        let cov = coverage_of(&saxpy_workload());
        let plan = TrimPlan::from_coverage(&cov);
        let kept = plan.report().features_retained;
        let cut = plan.trimmed_features().len();
        assert_eq!(kept + cut, Feature::all().len());
    }
}
