//! The verifier: analysis passes combined into per-kernel verdicts, and
//! an [`Engine`] wrapper that proves kernels compatible before launch.
//!
//! The runtime's trimmed-feature trap ([`ExecError::TrimmedFeature`])
//! fires mid-execution, after the kernel may already have written device
//! memory. [`VerifiedEngine`] moves that failure to load time: the
//! static feature closure of every reachable instruction is checked
//! against the engine's retained set, so an incompatible kernel is
//! rejected with a full [`KernelReport`] before a single instruction
//! runs. Verdicts are cached by [`Kernel::fingerprint`], so re-launching
//! a hot kernel (the common case: recurrent LSTM steps) costs one hash.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use rtad_miaow::coverage::{CoverageSet, Feature};
use rtad_miaow::isa::Kernel;
use rtad_miaow::{Engine, ExecError, GpuMemory, LaunchStats, TrimPlan};

use crate::cfg::Cfg;
use crate::dataflow::{undefined_uses, RegSet};
use crate::features::static_features;
use crate::report::{Finding, FindingKind, KernelReport, Severity};

/// Statically analyzes one kernel launched with `n_args` user-data
/// SGPRs: CFG construction, def-before-use dataflow, reachability and
/// exit-path checks, and the static feature closure.
pub fn analyze(kernel: &Kernel, n_args: usize) -> KernelReport {
    let cfg = Cfg::build(kernel);
    let code = &kernel.code;
    let mut findings = Vec::new();

    // Def-before-use over every path from entry.
    for u in undefined_uses(&cfg, code, RegSet::at_entry(n_args)) {
        findings.push(Finding {
            severity: Severity::Error,
            kind: FindingKind::UseBeforeDef,
            pc: Some(u.pc),
            register: Some(u.register),
            feature: None,
            message: format!(
                "`{}` reads {} but no path from entry writes it",
                code[u.pc].mnemonic(),
                u.register
            ),
        });
    }

    // Unreachable blocks (dead code) and reachable blocks that cannot
    // reach s_endpgm (watchdog-bound spins).
    let reachable = cfg.reachable();
    let can_exit = cfg.can_exit(code);
    for (b, block) in cfg.blocks().iter().enumerate() {
        if !reachable[b] {
            findings.push(Finding {
                severity: Severity::Warning,
                kind: FindingKind::UnreachableCode,
                pc: Some(block.start),
                register: None,
                feature: None,
                message: format!(
                    "block at pc {}..{} is unreachable from entry",
                    block.start, block.end
                ),
            });
        } else if !can_exit[b] {
            findings.push(Finding {
                severity: Severity::Warning,
                kind: FindingKind::NoPathToEndpgm,
                pc: Some(block.start),
                register: None,
                feature: None,
                message: format!(
                    "no path from block at pc {} reaches s_endpgm; \
                     execution through it spins until the watchdog",
                    block.start
                ),
            });
        }
    }

    findings.sort_by_key(|f| (f.pc, std::cmp::Reverse(f.severity)));
    KernelReport {
        kernel: kernel.name.clone(),
        fingerprint: kernel.fingerprint(),
        blocks: cfg.blocks().len(),
        static_features: static_features(&cfg, code),
        findings,
    }
}

/// Proves a kernel compatible with a retained-feature set: every
/// reachable instruction whose features the set lacks yields an
/// error-severity [`FindingKind::TrimIncompatible`] finding naming the
/// feature, program counter and mnemonic. Empty iff no launch of the
/// kernel on an engine trimmed to `retained` can hit
/// [`ExecError::TrimmedFeature`].
pub fn trim_findings(kernel: &Kernel, retained: &CoverageSet) -> Vec<Finding> {
    let cfg = Cfg::build(kernel);
    let reachable = cfg.reachable();
    let mut findings = Vec::new();
    for (b, block) in cfg.blocks().iter().enumerate() {
        if !reachable[b] {
            continue;
        }
        for pc in block.range() {
            let instr = &kernel.code[pc];
            for feature in Feature::of_instr(instr) {
                if !retained.contains(feature) {
                    findings.push(Finding {
                        severity: Severity::Error,
                        kind: FindingKind::TrimIncompatible,
                        pc: Some(pc),
                        register: None,
                        feature: Some(feature),
                        message: format!(
                            "`{}` needs trimmed feature {feature}; it would trap at runtime",
                            instr.mnemonic()
                        ),
                    });
                }
            }
        }
    }
    findings.sort_by_key(|f| f.pc);
    findings
}

/// Convenience: [`analyze`] plus [`trim_findings`] against a plan.
pub fn analyze_against_plan(kernel: &Kernel, n_args: usize, plan: &TrimPlan) -> KernelReport {
    let mut report = analyze(kernel, n_args);
    report
        .findings
        .extend(trim_findings(kernel, plan.retained()));
    report
}

/// A kernel that passed static analysis (no error findings) at
/// construction. The rtad-ml device plans wrap every compiled kernel in
/// one, so malformed codegen fails at compile time, not mid-inference.
#[derive(Debug, Clone)]
pub struct VerifiedKernel {
    kernel: Kernel,
    report: KernelReport,
}

impl VerifiedKernel {
    /// Verifies `kernel` as launched with `n_args` user-data SGPRs.
    ///
    /// # Errors
    ///
    /// Returns the report if analysis produced any error finding.
    pub fn new(kernel: Kernel, n_args: usize) -> Result<Self, Box<KernelReport>> {
        let report = analyze(&kernel, n_args);
        if report.is_clean() {
            Ok(VerifiedKernel { kernel, report })
        } else {
            Err(Box::new(report))
        }
    }

    /// The verified kernel.
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// The analysis report (warnings possible, never errors).
    pub fn report(&self) -> &KernelReport {
        &self.report
    }

    /// The static feature closure.
    pub fn static_features(&self) -> &CoverageSet {
        &self.report.static_features
    }

    /// Unwraps back into the kernel.
    pub fn into_kernel(self) -> Kernel {
        self.kernel
    }
}

/// Why a verified launch did not run.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum LaunchError {
    /// Static analysis rejected the kernel before execution; device
    /// memory is untouched.
    Rejected(Box<KernelReport>),
    /// The kernel passed verification but execution still failed
    /// (bad address, watchdog).
    Exec(ExecError),
}

impl fmt::Display for LaunchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LaunchError::Rejected(report) => {
                write!(f, "kernel rejected by static verification:\n{report}")
            }
            LaunchError::Exec(e) => write!(f, "execution failed: {e}"),
        }
    }
}

impl Error for LaunchError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            LaunchError::Rejected(_) => None,
            LaunchError::Exec(e) => Some(e),
        }
    }
}

impl From<ExecError> for LaunchError {
    fn from(e: ExecError) -> Self {
        LaunchError::Exec(e)
    }
}

/// An [`Engine`] that statically verifies every kernel before launching
/// it, caching per-kernel verdicts by fingerprint, argument count and
/// the engine's current trim plan (so re-trimming the engine can never
/// reuse a stale compatibility verdict).
#[derive(Debug, Clone)]
pub struct VerifiedEngine {
    engine: Engine,
    verdicts: HashMap<(u64, usize, Option<u64>), KernelReport>,
}

impl VerifiedEngine {
    /// Wraps an engine.
    pub fn new(engine: Engine) -> Self {
        VerifiedEngine {
            engine,
            verdicts: HashMap::new(),
        }
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Mutable access to the wrapped engine (LDS staging etc.).
    pub fn engine_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }

    /// Number of cached verdicts.
    pub fn cached_verdicts(&self) -> usize {
        self.verdicts.len()
    }

    /// The cached (or freshly computed) report for `kernel` as launched
    /// with `n_args` user-data SGPRs, including trim-compatibility
    /// findings against this engine's retained set.
    pub fn verify(&mut self, kernel: &Kernel, n_args: usize) -> &KernelReport {
        let key = (
            kernel.fingerprint(),
            n_args,
            self.engine.retained().map(CoverageSet::mask),
        );
        if !self.verdicts.contains_key(&key) {
            let mut report = analyze(kernel, n_args);
            if let Some(retained) = self.engine.retained() {
                report.findings.extend(trim_findings(kernel, retained));
            }
            if report.is_clean() {
                // A clean verdict means this kernel is about to run;
                // lower it into the engine's predecode cache now (both
                // caches key on the same content fingerprint) so the
                // first launch pays no lowering cost.
                self.engine.predecode(kernel);
            }
            self.verdicts.insert(key, report);
        }
        &self.verdicts[&key]
    }

    /// Launches `kernel` after proving it clean and trim-compatible.
    ///
    /// # Errors
    ///
    /// [`LaunchError::Rejected`] (before any execution, `mem` untouched)
    /// if verification finds errors; [`LaunchError::Exec`] if the launch
    /// itself fails.
    pub fn launch(
        &mut self,
        kernel: &Kernel,
        waves: usize,
        args: &[u32],
        mem: &mut GpuMemory,
    ) -> Result<LaunchStats, LaunchError> {
        let report = self.verify(kernel, args.len());
        if !report.is_clean() {
            return Err(LaunchError::Rejected(Box::new(report.clone())));
        }
        Ok(self.engine.launch(kernel, waves, args, mem)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtad_miaow::asm::assemble;
    use rtad_miaow::EngineConfig;

    #[test]
    fn clean_kernel_verifies() {
        let k = assemble("v_mov_b32 v1, 2.0\nv_mul_f32 v2, v1, v1\ns_endpgm").unwrap();
        let vk = VerifiedKernel::new(k, 0).expect("clean");
        assert!(vk.report().is_clean());
        assert!(vk.static_features().contains(Feature::ValuMulF32));
    }

    #[test]
    fn use_before_def_rejects_at_construction() {
        let k = assemble("v_add_f32 v2, v1, v1\ns_endpgm").unwrap();
        let report = VerifiedKernel::new(k, 0).unwrap_err();
        let err = report.errors().next().expect("one error");
        assert_eq!(err.kind, FindingKind::UseBeforeDef);
        assert_eq!(err.pc, Some(0));
        assert!(err.message.contains("v_add_f32"), "{}", err.message);
        assert!(err.message.contains("v1"), "{}", err.message);
    }

    #[test]
    fn dead_code_and_spin_loops_are_warnings_not_errors() {
        let dead = assemble("s_branch end\nv_mov_b32 v1, 1.0\nend:\ns_endpgm").unwrap();
        let report = analyze(&dead, 0);
        assert!(report.is_clean());
        assert!(report
            .warnings()
            .any(|f| f.kind == FindingKind::UnreachableCode));

        let spin = assemble("spin:\ns_branch spin\ns_endpgm").unwrap();
        let report = analyze(&spin, 0);
        assert!(report.is_clean());
        assert!(report
            .warnings()
            .any(|f| f.kind == FindingKind::NoPathToEndpgm));
    }

    #[test]
    fn trim_findings_name_feature_pc_and_mnemonic() {
        let k = assemble("v_mov_b32 v1, 1.0\nv_exp_f32 v2, v1\ns_endpgm").unwrap();
        // A plan covering only what the first instruction needs.
        let retained: CoverageSet = Feature::of_instr(&k.code[0])
            .into_iter()
            .chain(Feature::of_instr(&k.code[2]))
            .collect();
        let findings = trim_findings(&k, &retained);
        assert!(!findings.is_empty());
        let f = &findings[0];
        assert_eq!(f.kind, FindingKind::TrimIncompatible);
        assert_eq!(f.pc, Some(1));
        assert!(
            f.feature == Some(Feature::DecValuTrans) || f.feature == Some(Feature::ValuExp),
            "{f:?}"
        );
        assert!(f.message.contains("v_exp_f32"), "{}", f.message);
    }

    #[test]
    fn trim_findings_ignore_unreachable_instructions() {
        let k = assemble("s_branch end\nv_exp_f32 v1, 1.0\nend:\ns_endpgm").unwrap();
        // Retain everything except the transcendental path: still clean,
        // because the v_exp_f32 can never execute.
        let retained: CoverageSet = Feature::all()
            .into_iter()
            .filter(|f| *f != Feature::ValuExp && *f != Feature::DecValuTrans)
            .collect();
        assert!(trim_findings(&k, &retained).is_empty());
    }

    #[test]
    fn verified_engine_rejects_before_touching_memory() {
        // Full coverage for a store kernel, then trim; the exp kernel
        // would trap mid-run on the raw engine but is rejected up front
        // by the verified one.
        let store = assemble(
            "v_lshl_b32 v1, v0, 2\nv_cvt_f32_i32 v2, v0\nbuffer_store_dword v2, v1, s0\ns_endpgm",
        )
        .unwrap();
        let mut profiler = Engine::new(EngineConfig::miaow());
        let mut mem = GpuMemory::new(1024);
        profiler.launch(&store, 1, &[0], &mut mem).unwrap();
        let plan = TrimPlan::from_coverage(profiler.observed_coverage());

        let mut engine = VerifiedEngine::new(Engine::new(EngineConfig::ml_miaow(&plan)));
        let mut mem2 = GpuMemory::new(1024);
        engine
            .launch(&store, 1, &[0], &mut mem2)
            .expect("compatible");

        let exp = assemble(
            "v_lshl_b32 v1, v0, 2\nv_cvt_f32_i32 v2, v0\nbuffer_store_dword v2, v1, s0\n\
             v_exp_f32 v3, v2\nbuffer_store_dword v3, v1, s0\ns_endpgm",
        )
        .unwrap();
        let before = mem2.clone();
        let err = engine.launch(&exp, 1, &[0], &mut mem2).unwrap_err();
        let LaunchError::Rejected(report) = err else {
            panic!("expected static rejection, got {err:?}");
        };
        assert!(report.errors().any(
            |f| f.kind == FindingKind::TrimIncompatible && f.feature == Some(Feature::ValuExp)
        ));
        assert_eq!(mem2, before, "rejection must precede any execution");
    }

    #[test]
    fn verdicts_are_cached_by_fingerprint_and_arg_count() {
        let k = assemble("v_mov_b32 v1, 1.0\ns_endpgm").unwrap();
        let mut engine = VerifiedEngine::new(Engine::new(EngineConfig::miaow()));
        let mut mem = GpuMemory::new(64);
        engine.launch(&k, 1, &[], &mut mem).unwrap();
        assert_eq!(engine.cached_verdicts(), 1);
        engine.launch(&k, 2, &[], &mut mem).unwrap();
        assert_eq!(engine.cached_verdicts(), 1, "same kernel, same verdict");
        engine.launch(&k, 1, &[7], &mut mem).unwrap();
        assert_eq!(engine.cached_verdicts(), 2, "arg count is part of the key");
        // Verification pre-warmed the engine's predecode cache under the
        // same fingerprint, once (arg count is not part of *that* key).
        assert_eq!(engine.engine().predecoded_kernels(), 1);
    }

    #[test]
    fn retrimming_the_engine_invalidates_cached_verdicts() {
        // Verify an exp-using kernel clean on a fully-covered engine,
        // then retrim to a plan lacking the transcendental path: the
        // fresh verdict must surface the incompatibility instead of
        // reusing the stale clean report.
        let exp = assemble("v_mov_b32 v1, 1.0\nv_exp_f32 v2, v1\ns_endpgm").unwrap();
        let all: CoverageSet = Feature::all().into_iter().collect();
        let lacking: CoverageSet = Feature::all()
            .into_iter()
            .filter(|f| *f != Feature::ValuExp && *f != Feature::DecValuTrans)
            .collect();
        let plan_lacking = TrimPlan::from_coverage(&lacking);

        let mut engine = VerifiedEngine::new(Engine::new(EngineConfig::ml_miaow(
            &TrimPlan::from_coverage(&all),
        )));
        assert!(engine.verify(&exp, 0).is_clean());

        engine.engine_mut().retrim(Some(&plan_lacking));
        let report = engine.verify(&exp, 0);
        assert!(
            report
                .errors()
                .any(|f| f.kind == FindingKind::TrimIncompatible),
            "stale clean verdict survived the retrim"
        );
        assert_eq!(engine.cached_verdicts(), 2, "trim plan is part of the key");
    }

    #[test]
    fn untrimmed_engine_skips_trim_checks_but_keeps_dataflow() {
        let bad = assemble("v_add_f32 v2, v1, v1\ns_endpgm").unwrap();
        let mut engine = VerifiedEngine::new(Engine::new(EngineConfig::miaow()));
        let mut mem = GpuMemory::new(64);
        let err = engine.launch(&bad, 1, &[], &mut mem).unwrap_err();
        assert!(matches!(err, LaunchError::Rejected(_)));
    }
}
