//! Diagnostic types: per-instruction findings and the per-kernel report.

use std::fmt;

use rtad_miaow::coverage::{CoverageSet, Feature};

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but cannot trap or mis-compute at runtime (dead code,
    /// statically non-terminating paths the watchdog would bound).
    Warning,
    /// Would trap or read undefined state if the instruction executes.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => f.write_str("warning"),
            Severity::Error => f.write_str("error"),
        }
    }
}

/// A register (or architectural status bit) a finding refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Reg {
    /// Scalar general-purpose register.
    S(u8),
    /// Vector general-purpose register.
    V(u8),
    /// The scalar condition code.
    Scc,
    /// The vector condition code.
    Vcc,
    /// The execution mask.
    Exec,
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Reg::S(i) => write!(f, "s{i}"),
            Reg::V(i) => write!(f, "v{i}"),
            Reg::Scc => f.write_str("scc"),
            Reg::Vcc => f.write_str("vcc"),
            Reg::Exec => f.write_str("exec"),
        }
    }
}

/// What kind of defect a finding reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum FindingKind {
    /// An instruction reads a register no path from entry has written.
    UseBeforeDef,
    /// A basic block no path from entry reaches.
    UnreachableCode,
    /// A reachable block from which no path reaches `s_endpgm` — every
    /// execution through it spins until the watchdog.
    NoPathToEndpgm,
    /// A reachable instruction needs a feature the trim plan deleted —
    /// it would trap with `ExecError::TrimmedFeature` at runtime.
    TrimIncompatible,
}

impl fmt::Display for FindingKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FindingKind::UseBeforeDef => f.write_str("use-before-def"),
            FindingKind::UnreachableCode => f.write_str("unreachable-code"),
            FindingKind::NoPathToEndpgm => f.write_str("no-path-to-endpgm"),
            FindingKind::TrimIncompatible => f.write_str("trim-incompatible"),
        }
    }
}

/// One diagnostic, anchored to an instruction where applicable.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// How bad it is.
    pub severity: Severity,
    /// What kind of defect it is.
    pub kind: FindingKind,
    /// Program counter (instruction index) the finding anchors to.
    pub pc: Option<usize>,
    /// The register involved, for dataflow findings.
    pub register: Option<Reg>,
    /// The missing feature, for trim findings.
    pub feature: Option<Feature>,
    /// Human-readable description (includes the mnemonic).
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}]", self.severity, self.kind)?;
        if let Some(pc) = self.pc {
            write!(f, " at pc {pc}")?;
        }
        write!(f, ": {}", self.message)
    }
}

/// The result of statically analyzing one kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelReport {
    /// The analyzed kernel's name.
    pub kernel: String,
    /// The analyzed kernel's fingerprint (cache key).
    pub fingerprint: u64,
    /// Number of basic blocks in the CFG.
    pub blocks: usize,
    /// The static feature set: every feature any reachable instruction
    /// can exercise, plus the always-on core. A superset of what any
    /// actual execution records.
    pub static_features: CoverageSet,
    /// The findings, in program order.
    pub findings: Vec<Finding>,
}

impl KernelReport {
    /// The error-severity findings.
    pub fn errors(&self) -> impl Iterator<Item = &Finding> {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Error)
    }

    /// The warning-severity findings.
    pub fn warnings(&self) -> impl Iterator<Item = &Finding> {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Warning)
    }

    /// Whether the kernel passed with no errors (warnings allowed).
    pub fn is_clean(&self) -> bool {
        self.errors().next().is_none()
    }
}

impl fmt::Display for KernelReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "kernel `{}`: {} blocks, {} static features, {} findings",
            self.kernel,
            self.blocks,
            self.static_features.len(),
            self.findings.len()
        )?;
        for finding in &self.findings {
            writeln!(f, "  {finding}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registers_display_like_the_assembler() {
        assert_eq!(Reg::S(3).to_string(), "s3");
        assert_eq!(Reg::V(17).to_string(), "v17");
        assert_eq!(Reg::Scc.to_string(), "scc");
        assert_eq!(Reg::Vcc.to_string(), "vcc");
        assert_eq!(Reg::Exec.to_string(), "exec");
    }

    #[test]
    fn severity_orders_error_above_warning() {
        assert!(Severity::Error > Severity::Warning);
    }

    #[test]
    fn report_partitions_by_severity() {
        let mk = |severity, kind| Finding {
            severity,
            kind,
            pc: Some(0),
            register: None,
            feature: None,
            message: "m".into(),
        };
        let report = KernelReport {
            kernel: "k".into(),
            fingerprint: 1,
            blocks: 1,
            static_features: CoverageSet::new(),
            findings: vec![
                mk(Severity::Warning, FindingKind::UnreachableCode),
                mk(Severity::Error, FindingKind::UseBeforeDef),
            ],
        };
        assert_eq!(report.errors().count(), 1);
        assert_eq!(report.warnings().count(), 1);
        assert!(!report.is_clean());
        let text = report.to_string();
        assert!(text.contains("use-before-def"), "{text}");
    }
}
