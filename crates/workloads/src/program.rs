//! Synthetic program models: seeded control-flow graphs.
//!
//! A [`ProgramModel`] is a statically laid out set of functions and basic
//! blocks in a 32-bit address space, plus per-block successor structure
//! (hot/cold direct successors, indirect-jump target sets, call-site
//! callee sets). Random walks over the graph ([`crate::TraceGenerator`])
//! produce branch traces whose statistics follow the benchmark's
//! [`BenchProfile`].

use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use serde::{Deserialize, Serialize};

use rtad_trace::{BranchRecord, VirtAddr};

use crate::generator::TraceGenerator;
use crate::spec::{BenchProfile, Benchmark};

/// Index of a basic block within a [`ProgramModel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct BlockId(pub usize);

/// Base of the synthetic text segment.
pub(crate) const TEXT_BASE: u32 = 0x0001_0000;
/// Base of the synthetic kernel entry region (syscall targets).
pub(crate) const KERNEL_BASE: u32 = 0xC000_0000;
/// Number of distinct kernel entry points (syscall classes we model).
pub(crate) const KERNEL_ENTRIES: usize = 16;

/// One basic block of the synthetic CFG.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct Block {
    /// Entry address of the block.
    pub addr: VirtAddr,
    /// Address of the terminating branch instruction.
    pub branch_addr: VirtAddr,
    /// Owning function index.
    pub func: usize,
    /// Hottest direct successor (taken with the profile's locality).
    pub succ_hot: BlockId,
    /// Alternative direct successor.
    pub succ_cold: BlockId,
    /// Candidate targets of an indirect jump from this block.
    pub indirect_targets: Vec<BlockId>,
    /// Candidate callee functions of a call from this block.
    pub call_targets: Vec<usize>,
    /// Whether reaching this block returns from the function.
    pub is_exit: bool,
}

/// One function of the synthetic CFG.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct Function {
    /// Entry block.
    pub entry: BlockId,
    /// Blocks `[first, first + count)` belong to this function.
    pub first_block: usize,
    /// Number of blocks.
    pub block_count: usize,
}

/// A seeded synthetic program: CFG + address layout.
///
/// Two models built with the same `(benchmark, seed)` are identical, so
/// training traces, test traces and the IGM's address lookup tables all
/// agree on the address universe.
///
/// # Examples
///
/// ```
/// use rtad_workloads::{Benchmark, ProgramModel};
///
/// let m = ProgramModel::build(Benchmark::Bzip2, 7);
/// let trace = m.generate(1_000, 0);
/// // Every target the walk produces is a known-legitimate address.
/// let legit = m.legitimate_targets();
/// assert!(trace.iter().all(|r| legit.contains(&r.target)));
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProgramModel {
    profile: BenchProfile,
    seed: u64,
    pub(crate) blocks: Vec<Block>,
    pub(crate) functions: Vec<Function>,
    pub(crate) kernel_entries: Vec<VirtAddr>,
}

impl ProgramModel {
    /// Builds the deterministic CFG for `bench` from `seed`.
    pub fn build(bench: Benchmark, seed: u64) -> Self {
        Self::from_profile(bench.profile(), seed)
    }

    /// Builds a CFG from an explicit profile (ablation studies tweak
    /// profiles directly).
    pub fn from_profile(profile: BenchProfile, seed: u64) -> Self {
        profile.validate();
        let mut rng = ChaCha12Rng::seed_from_u64(seed ^ 0x5245_4144_5241_4421);

        let mut blocks = Vec::new();
        let mut functions = Vec::with_capacity(profile.functions);
        let mut addr = TEXT_BASE;

        for f in 0..profile.functions {
            let first = blocks.len();
            let count = profile.blocks_per_function;
            for b in 0..count {
                // Block body: 3..=12 instructions of 4 bytes, then the branch.
                let body_instrs = rng.gen_range(3..=12u32);
                let entry = VirtAddr::new(addr);
                let branch_addr = VirtAddr::new(addr + body_instrs * 4);
                addr += (body_instrs + 1) * 4;
                blocks.push(Block {
                    addr: entry,
                    branch_addr,
                    func: f,
                    // Successors patched after all blocks exist.
                    succ_hot: BlockId(0),
                    succ_cold: BlockId(0),
                    indirect_targets: Vec::new(),
                    call_targets: Vec::new(),
                    is_exit: b == count - 1,
                });
            }
            functions.push(Function {
                entry: BlockId(first),
                first_block: first,
                block_count: count,
            });
            // Gap between functions.
            addr += rng.gen_range(4..=64u32) * 4;
        }

        // Patch successor structure.
        let n_funcs = functions.len();
        for (f, func) in functions.iter().enumerate() {
            let first = func.first_block;
            let count = func.block_count;
            for i in 0..count {
                let id = first + i;
                // Hot successor: usually the next block (loop-free spine);
                // sometimes a back edge (loop).
                let hot = if i + 1 < count {
                    if rng.gen_bool(0.25) && i > 0 {
                        first + rng.gen_range(0..=i) // back edge
                    } else {
                        id + 1
                    }
                } else {
                    first // exit block's formal successor (unused: it returns)
                };
                let cold = first + rng.gen_range(0..count);
                blocks[id].succ_hot = BlockId(hot);
                blocks[id].succ_cold = BlockId(cold);

                // Indirect targets: 2..=6 blocks of this function (a
                // switch/dispatch table).
                let n_ind = rng.gen_range(2..=6usize).min(count);
                let mut choices: Vec<usize> = (first..first + count).collect();
                choices.shuffle(&mut rng);
                blocks[id].indirect_targets =
                    choices[..n_ind].iter().map(|&b| BlockId(b)).collect();

                // Call targets: 1..=3 other functions.
                let n_call = rng.gen_range(1..=3usize);
                let mut callees = Vec::with_capacity(n_call);
                for _ in 0..n_call {
                    let mut g = rng.gen_range(0..n_funcs);
                    if g == f {
                        g = (g + 1) % n_funcs;
                    }
                    callees.push(g);
                }
                blocks[id].call_targets = callees;
            }
        }

        let kernel_entries = (0..KERNEL_ENTRIES)
            .map(|i| VirtAddr::new(KERNEL_BASE + (i as u32) * 0x100))
            .collect();

        ProgramModel {
            profile,
            seed,
            blocks,
            functions,
            kernel_entries,
        }
    }

    /// The benchmark profile this model realizes.
    pub fn profile(&self) -> &BenchProfile {
        self.profile_ref()
    }

    fn profile_ref(&self) -> &BenchProfile {
        &self.profile
    }

    /// The build seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of basic blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Entry address of a block.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn block_addr(&self, id: BlockId) -> VirtAddr {
        self.blocks[id.0].addr
    }

    /// Every address a *normal* run can branch to: all block entries,
    /// all function entries, and the kernel syscall entries. This is the
    /// universe from which the IGM Address Mapper tables are built and
    /// from which the attack injector samples "legitimate" targets.
    pub fn legitimate_targets(&self) -> std::collections::BTreeSet<VirtAddr> {
        let mut set: std::collections::BTreeSet<VirtAddr> =
            self.blocks.iter().map(|b| b.addr).collect();
        set.extend(self.kernel_entries.iter().copied());
        set
    }

    /// The kernel entry addresses (targets of `SVC`): the ELM model's
    /// feature alphabet.
    pub fn syscall_entries(&self) -> &[VirtAddr] {
        &self.kernel_entries
    }

    /// Entry addresses of all functions: the feature alphabet of
    /// function-call-level models (the paper's SW_FUNC baseline scope).
    pub fn function_entries(&self) -> Vec<VirtAddr> {
        self.functions
            .iter()
            .map(|f| self.blocks[f.entry.0].addr)
            .collect()
    }

    /// Every *instruction* address of the text segment, in layout order.
    /// Branch targets are a small subset of these; the rest — mid-block
    /// addresses — are the raw material of ROP/JOP gadget chains, which
    /// jump into instruction streams at offsets normal control flow
    /// never targets.
    pub fn instruction_addresses(&self) -> Vec<VirtAddr> {
        let mut out = Vec::new();
        for b in &self.blocks {
            let mut a = b.addr.raw();
            while a <= b.branch_addr.raw() {
                out.push(VirtAddr::new(a));
                a += 4;
            }
        }
        out
    }

    /// The mid-block instruction addresses: executed code locations that
    /// are never branch targets in normal control flow.
    pub fn gadget_addresses(&self) -> Vec<VirtAddr> {
        let entries: std::collections::BTreeSet<VirtAddr> =
            self.blocks.iter().map(|b| b.addr).collect();
        self.instruction_addresses()
            .into_iter()
            .filter(|a| !entries.contains(a))
            .collect()
    }

    /// Generates a normal run of `len` taken branches. `run_seed`
    /// selects the walk (same model, different inputs → different runs),
    /// mirroring SPEC's multiple reference inputs.
    pub fn generate(&self, len: usize, run_seed: u64) -> Vec<BranchRecord> {
        TraceGenerator::new(self, run_seed).take_records(len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_is_deterministic() {
        let a = ProgramModel::build(Benchmark::Gcc, 3);
        let b = ProgramModel::build(Benchmark::Gcc, 3);
        assert_eq!(a.block_count(), b.block_count());
        assert_eq!(a.generate(500, 9), b.generate(500, 9));
    }

    #[test]
    fn different_seeds_differ() {
        let a = ProgramModel::build(Benchmark::Gcc, 3);
        let b = ProgramModel::build(Benchmark::Gcc, 4);
        assert_ne!(a.generate(500, 9), b.generate(500, 9));
    }

    #[test]
    fn cfg_size_matches_profile() {
        let m = ProgramModel::build(Benchmark::Mcf, 0);
        let p = Benchmark::Mcf.profile();
        assert_eq!(m.block_count(), p.functions * p.blocks_per_function);
        assert_eq!(m.function_entries().len(), p.functions);
    }

    #[test]
    fn block_addresses_are_aligned_and_increasing() {
        let m = ProgramModel::build(Benchmark::Astar, 1);
        let mut last = 0u32;
        for b in &m.blocks {
            assert_eq!(b.addr.raw() % 4, 0);
            assert!(b.addr.raw() >= TEXT_BASE);
            assert!(b.addr.raw() > last || last == 0);
            assert!(b.branch_addr.raw() > b.addr.raw());
            last = b.addr.raw();
        }
    }

    #[test]
    fn successors_stay_within_program() {
        let m = ProgramModel::build(Benchmark::Xalancbmk, 5);
        let n = m.block_count();
        for b in &m.blocks {
            assert!(b.succ_hot.0 < n);
            assert!(b.succ_cold.0 < n);
            assert!(!b.indirect_targets.is_empty());
            assert!(b.indirect_targets.iter().all(|t| t.0 < n));
            assert!(!b.call_targets.is_empty());
            assert!(b.call_targets.iter().all(|&f| f < m.functions.len()));
            // Calls never target the containing function (no direct recursion
            // in the model; keeps stacks shallow).
            assert!(b.call_targets.iter().all(|&f| f != b.func));
        }
    }

    #[test]
    fn legitimate_targets_cover_kernel() {
        let m = ProgramModel::build(Benchmark::Perlbench, 2);
        let legit = m.legitimate_targets();
        for k in m.syscall_entries() {
            assert!(legit.contains(k));
        }
        assert_eq!(m.syscall_entries().len(), KERNEL_ENTRIES);
    }
}
