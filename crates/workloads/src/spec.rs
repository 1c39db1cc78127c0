//! The twelve SPEC CINT2006 benchmarks as branch-behaviour profiles.
//!
//! Parameters are calibrated from published CINT2006 characterizations
//! (branch MPKI / branch mix studies and the SPEC documentation) to the
//! granularity the RTAD experiments are sensitive to. Absolute fidelity
//! to SPEC is *not* claimed — DESIGN.md records this substitution — but
//! the ordering that drives the paper's figures is preserved:
//! `471.omnetpp` and `483.xalancbmk` are the indirect-heavy branch-
//! pressure cases, `456.hmmer`/`462.libquantum` are loop-dominated with
//! sparse branching, and syscalls are rare everywhere relative to
//! branches (which is why the ELM detection latency in Fig. 8 is flat
//! across benchmarks while the LSTM latency varies).

use std::fmt;

use serde::{Deserialize, Serialize};

/// One of the twelve SPEC CINT2006 integer benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum Benchmark {
    Perlbench,
    Bzip2,
    Gcc,
    Mcf,
    Gobmk,
    Hmmer,
    Sjeng,
    Libquantum,
    H264ref,
    Omnetpp,
    Astar,
    Xalancbmk,
}

impl Benchmark {
    /// All twelve, in SPEC numbering order (the order of Figs. 6 and 8).
    pub const ALL: [Benchmark; 12] = [
        Benchmark::Perlbench,
        Benchmark::Bzip2,
        Benchmark::Gcc,
        Benchmark::Mcf,
        Benchmark::Gobmk,
        Benchmark::Hmmer,
        Benchmark::Sjeng,
        Benchmark::Libquantum,
        Benchmark::H264ref,
        Benchmark::Omnetpp,
        Benchmark::Astar,
        Benchmark::Xalancbmk,
    ];

    /// The SPEC suite identifier, e.g. `"471.omnetpp"`.
    pub fn spec_name(self) -> &'static str {
        match self {
            Benchmark::Perlbench => "400.perlbench",
            Benchmark::Bzip2 => "401.bzip2",
            Benchmark::Gcc => "403.gcc",
            Benchmark::Mcf => "429.mcf",
            Benchmark::Gobmk => "445.gobmk",
            Benchmark::Hmmer => "456.hmmer",
            Benchmark::Sjeng => "458.sjeng",
            Benchmark::Libquantum => "462.libquantum",
            Benchmark::H264ref => "464.h264ref",
            Benchmark::Omnetpp => "471.omnetpp",
            Benchmark::Astar => "473.astar",
            Benchmark::Xalancbmk => "483.xalancbmk",
        }
    }

    /// This benchmark's branch-behaviour profile.
    pub fn profile(self) -> BenchProfile {
        // branch_density: taken branches per instruction.
        // indirect_ratio / call_ratio / return_ratio: fraction of taken
        //   branches (remainder is direct jumps). Calls and returns are
        //   kept equal so stacks balance.
        // syscall_interval: mean taken branches between syscalls.
        // functions / blocks_per_function: CFG size => address working set.
        // locality: probability mass on the hottest successor of a block
        //   (high locality => predictable, compressible control flow).
        // ipc: instructions per cycle on the A9-like host.
        match self {
            Benchmark::Perlbench => BenchProfile {
                bench: self,
                branch_density: 0.145,
                indirect_ratio: 0.09,
                call_ratio: 0.12,
                syscall_interval: 5_500.0,
                functions: 160,
                blocks_per_function: 14,
                locality: 0.72,
                ipc: 1.10,
            },
            Benchmark::Bzip2 => BenchProfile {
                bench: self,
                branch_density: 0.120,
                indirect_ratio: 0.015,
                call_ratio: 0.05,
                syscall_interval: 14_000.0,
                functions: 40,
                blocks_per_function: 12,
                locality: 0.82,
                ipc: 1.25,
            },
            Benchmark::Gcc => BenchProfile {
                bench: self,
                branch_density: 0.150,
                indirect_ratio: 0.06,
                call_ratio: 0.11,
                syscall_interval: 7_000.0,
                functions: 240,
                blocks_per_function: 16,
                locality: 0.66,
                ipc: 0.95,
            },
            Benchmark::Mcf => BenchProfile {
                bench: self,
                branch_density: 0.135,
                indirect_ratio: 0.01,
                call_ratio: 0.04,
                syscall_interval: 16_000.0,
                functions: 24,
                blocks_per_function: 10,
                locality: 0.78,
                ipc: 0.35,
            },
            Benchmark::Gobmk => BenchProfile {
                bench: self,
                branch_density: 0.140,
                indirect_ratio: 0.03,
                call_ratio: 0.13,
                syscall_interval: 9_000.0,
                functions: 200,
                blocks_per_function: 12,
                locality: 0.58,
                ipc: 0.90,
            },
            Benchmark::Hmmer => BenchProfile {
                bench: self,
                branch_density: 0.060,
                indirect_ratio: 0.01,
                call_ratio: 0.03,
                syscall_interval: 18_000.0,
                functions: 32,
                blocks_per_function: 10,
                locality: 0.88,
                ipc: 1.40,
            },
            Benchmark::Sjeng => BenchProfile {
                bench: self,
                branch_density: 0.148,
                indirect_ratio: 0.04,
                call_ratio: 0.12,
                syscall_interval: 10_000.0,
                functions: 110,
                blocks_per_function: 12,
                locality: 0.60,
                ipc: 1.00,
            },
            Benchmark::Libquantum => BenchProfile {
                bench: self,
                branch_density: 0.070,
                indirect_ratio: 0.005,
                call_ratio: 0.02,
                syscall_interval: 20_000.0,
                functions: 16,
                blocks_per_function: 8,
                locality: 0.92,
                ipc: 1.30,
            },
            Benchmark::H264ref => BenchProfile {
                bench: self,
                branch_density: 0.095,
                indirect_ratio: 0.03,
                call_ratio: 0.08,
                syscall_interval: 12_000.0,
                functions: 120,
                blocks_per_function: 14,
                locality: 0.80,
                ipc: 1.20,
            },
            Benchmark::Omnetpp => BenchProfile {
                bench: self,
                // The paper's branch-pressure worst case: discrete-event
                // simulation with pervasive virtual dispatch.
                branch_density: 0.175,
                indirect_ratio: 0.13,
                call_ratio: 0.14,
                syscall_interval: 8_000.0,
                functions: 220,
                blocks_per_function: 10,
                locality: 0.55,
                ipc: 0.75,
            },
            Benchmark::Astar => BenchProfile {
                bench: self,
                branch_density: 0.125,
                indirect_ratio: 0.02,
                call_ratio: 0.06,
                syscall_interval: 15_000.0,
                functions: 48,
                blocks_per_function: 10,
                locality: 0.76,
                ipc: 0.85,
            },
            Benchmark::Xalancbmk => BenchProfile {
                bench: self,
                branch_density: 0.160,
                indirect_ratio: 0.11,
                call_ratio: 0.14,
                syscall_interval: 6_500.0,
                functions: 260,
                blocks_per_function: 12,
                locality: 0.62,
                ipc: 0.80,
            },
        }
    }
}

impl fmt::Display for Benchmark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.spec_name())
    }
}

/// Branch-behaviour parameters of one benchmark model.
///
/// See [`Benchmark::profile`] for the field semantics and calibration
/// rationale.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BenchProfile {
    /// Which benchmark this profiles.
    pub bench: Benchmark,
    /// Taken branches per executed instruction.
    pub branch_density: f64,
    /// Fraction of taken branches that are register-indirect.
    pub indirect_ratio: f64,
    /// Fraction of taken branches that are calls (matched by returns).
    pub call_ratio: f64,
    /// Mean taken branches between system calls.
    pub syscall_interval: f64,
    /// Number of functions in the synthetic CFG.
    pub functions: usize,
    /// Basic blocks per function.
    pub blocks_per_function: usize,
    /// Probability mass on a block's hottest successor, in `(0, 1)`.
    pub locality: f64,
    /// Instructions per cycle of the host model.
    pub ipc: f64,
}

impl BenchProfile {
    /// Mean host-CPU cycles between consecutive taken branches:
    /// `1 / (branch_density * ipc)`.
    pub fn mean_cycles_per_branch(&self) -> f64 {
        1.0 / (self.branch_density * self.ipc)
    }

    /// Checks internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if ratios fall outside `[0, 1]`, their sum exceeds 1, or
    /// any structural parameter is zero.
    pub fn validate(&self) {
        for (name, v) in [
            ("branch_density", self.branch_density),
            ("indirect_ratio", self.indirect_ratio),
            ("call_ratio", self.call_ratio),
            ("locality", self.locality),
        ] {
            assert!((0.0..=1.0).contains(&v), "{name} out of range: {v}");
        }
        // call_ratio counted twice: calls and the matching returns.
        assert!(
            self.indirect_ratio + 2.0 * self.call_ratio < 1.0,
            "branch mix exceeds 1"
        );
        assert!(self.syscall_interval > 1.0, "syscall interval too small");
        assert!(self.functions > 0 && self.blocks_per_function > 1);
        assert!(self.ipc > 0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_profiles_are_consistent() {
        for b in Benchmark::ALL {
            b.profile().validate();
        }
    }

    #[test]
    fn omnetpp_is_the_branch_pressure_worst_case() {
        let omnetpp = Benchmark::Omnetpp.profile();
        for b in Benchmark::ALL {
            if b != Benchmark::Omnetpp {
                assert!(
                    omnetpp.branch_density >= b.profile().branch_density,
                    "{b} out-pressures omnetpp"
                );
            }
        }
    }

    #[test]
    fn loop_benchmarks_branch_sparsely() {
        assert!(Benchmark::Hmmer.profile().branch_density < 0.1);
        assert!(Benchmark::Libquantum.profile().branch_density < 0.1);
    }

    #[test]
    fn syscalls_are_rare_relative_to_branches() {
        for b in Benchmark::ALL {
            assert!(b.profile().syscall_interval > 1_000.0, "{b}");
        }
    }

    #[test]
    fn mean_cycles_per_branch_is_sane() {
        // omnetpp at IPC 0.75, density 0.175: ~7.6 cycles per branch.
        let m = Benchmark::Omnetpp.profile().mean_cycles_per_branch();
        assert!((7.0..9.0).contains(&m), "{m}");
        // hmmer branches much more rarely.
        assert!(Benchmark::Hmmer.profile().mean_cycles_per_branch() > 10.0);
    }

    #[test]
    fn spec_names_match_numbering() {
        assert_eq!(Benchmark::Perlbench.spec_name(), "400.perlbench");
        assert_eq!(Benchmark::Xalancbmk.spec_name(), "483.xalancbmk");
        assert_eq!(format!("{}", Benchmark::Omnetpp), "471.omnetpp");
    }

    #[test]
    fn twelve_benchmarks() {
        assert_eq!(Benchmark::ALL.len(), 12);
    }
}
