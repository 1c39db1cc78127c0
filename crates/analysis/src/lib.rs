//! Static kernel verifier for the ML-MIAOW engine.
//!
//! The runtime already traps a kernel that touches a trimmed feature
//! ([`rtad_miaow::ExecError::TrimmedFeature`]) — but only mid-execution,
//! at the offending instruction, possibly after device memory has been
//! written. This crate moves that class of failure (and two more the
//! runtime cannot catch at all) to **load time**, by analyzing the
//! instruction vector of a [`rtad_miaow::isa::Kernel`] without running
//! it:
//!
//! 1. [`cfg`](mod@cfg) — basic-block control-flow graph construction; branch
//!    targets are resolved instruction indices, so leaders and edges are
//!    exact, not heuristic.
//! 2. [`dataflow`] — a must-defined def-before-use analysis over the
//!    CFG, seeded with the dispatch-provided user-data SGPRs, `v0` and
//!    EXEC. Reads of never-written registers are silent wrong-answer
//!    bugs at runtime; here they are error findings.
//! 3. [`features`] — the static feature closure: every
//!    [`rtad_miaow::Feature`] any reachable instruction can exercise,
//!    plus the always-on core. A provable superset of the
//!    [`rtad_miaow::CoverageSet`] any execution records.
//! 4. [`verify`] — the passes combined into a [`KernelReport`], the
//!    trim-compatibility proof ([`trim_findings`]), and the
//!    [`VerifiedKernel`] / [`VerifiedEngine`] wrappers that gate the ML
//!    device plans and engine launches on a clean verdict, with verdicts
//!    cached by (kernel fingerprint, argument count, trim plan).
//!
//! The verifier proves only what gates a load: well-formed dataflow and
//! trim compatibility. A kernel's run time is bounded by the engine's
//! fixed per-wave watchdog, not by a static proof.

pub mod cfg;
pub mod dataflow;
pub mod features;
pub mod report;
pub mod verify;

pub use cfg::{BasicBlock, Cfg};
pub use dataflow::{undefined_uses, RegSet, UndefUse};
pub use features::static_features;
pub use report::{Finding, FindingKind, KernelReport, Reg, Severity};
pub use verify::{
    analyze, analyze_against_plan, trim_findings, LaunchError, VerifiedEngine, VerifiedKernel,
};
