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
//! 4. [`bounds`] — the static cycle-bound analysis: loop-bound
//!    inference over the CFG (SGPR must-constant propagation plus
//!    induction-variable matching on back edges) proving a worst-case
//!    per-wave cycle count, or an `Unbounded` finding.
//! 5. [`lanes`] — the lane-interference analysis: affine lane-indexed
//!    address analysis over memory ops proving each lane writes only
//!    lane-private (or broadcast) regions: the
//!    [`LaneDisjointness`] certificate, cross-validated in debug builds
//!    by the engine's write-log race checker.
//! 6. [`verify`] — the passes combined into a [`KernelReport`], the
//!    trim-compatibility proof ([`trim_findings`]), and the
//!    [`VerifiedKernel`] / [`VerifiedEngine`] wrappers that gate the ML
//!    device plans and engine launches on a clean verdict, with verdicts
//!    cached by (kernel fingerprint, argument count, trim plan).
//!
//! The cycle bound and the lane certificate are verifier findings: they
//! document a kernel's worst case and its lane independence, and a
//! kernel that loses either gets a warning. The engine does not consume
//! them; it runs every wave on its interpreter under a fixed watchdog.

pub mod bounds;
pub mod cfg;
pub mod dataflow;
pub mod features;
pub mod lanes;
pub mod report;
pub mod verify;

pub use bounds::{cycle_bound, CycleBound};
pub use cfg::{BasicBlock, Cfg};
pub use dataflow::{undefined_uses, RegSet, UndefUse};
pub use features::static_features;
pub use lanes::{lane_disjointness, LaneDisjointness};
pub use report::{Finding, FindingKind, KernelReport, Reg, Severity};
pub use verify::{
    analyze, analyze_against_plan, trim_findings, LaunchError, VerifiedEngine, VerifiedKernel,
};
