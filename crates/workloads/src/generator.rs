//! Random walks over a [`ProgramModel`]: branch trace generation.
//!
//! The walk visits basic blocks; at each block's terminating branch it
//! samples the branch class from the profile's mix (call / return /
//! indirect / direct, with syscalls interleaved at the profile's
//! interval) and advances the cycle counter by an exponentially
//! distributed gap around the profile's mean cycles-per-branch. The
//! result is an open-ended iterator of [`BranchRecord`]s.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;

use rtad_trace::{BranchKind, BranchRecord, VirtAddr};

use crate::program::{BlockId, ProgramModel};

/// Maximum modelled call-stack depth; calls beyond it degrade to direct
/// jumps (real programs under SPEC never get close, this is a model
/// safety bound).
const MAX_CALL_DEPTH: usize = 128;

/// An infinite branch-trace generator over a program model.
///
/// # Examples
///
/// ```
/// use rtad_workloads::{Benchmark, ProgramModel, TraceGenerator};
///
/// let model = ProgramModel::build(Benchmark::Sjeng, 11);
/// let mut gen = TraceGenerator::new(&model, 0);
/// let first_thousand = gen.take_records(1_000);
/// assert_eq!(first_thousand.len(), 1_000);
/// // Cycles strictly increase: each branch retires later than the last.
/// assert!(first_thousand.windows(2).all(|w| w[0].cycle < w[1].cycle));
/// ```
#[derive(Debug, Clone)]
pub struct TraceGenerator<'a> {
    model: &'a ProgramModel,
    rng: ChaCha12Rng,
    current: BlockId,
    /// Return-to blocks of pending calls.
    call_stack: Vec<BlockId>,
    cycle: u64,
    /// Branches until the next syscall fires.
    until_syscall: u64,
    /// Pending return block after a syscall (exception return).
    pending_eret: Option<BlockId>,
    context_id: u32,
}

impl<'a> TraceGenerator<'a> {
    /// Starts a walk at the first function's entry.
    pub fn new(model: &'a ProgramModel, run_seed: u64) -> Self {
        let mut rng =
            ChaCha12Rng::seed_from_u64(run_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ model.seed());
        let until_syscall = Self::sample_interval(&mut rng, model.profile().syscall_interval);
        TraceGenerator {
            model,
            current: model.functions[0].entry,
            rng,
            call_stack: Vec::new(),
            cycle: 0,
            until_syscall,
            pending_eret: None,
            context_id: 1,
        }
    }

    /// The process context the walk reports (constant per run; the SoC
    /// layer interleaves contexts when modelling multiprogramming).
    pub fn context_id(&self) -> u32 {
        self.context_id
    }

    /// Collects the next `n` branch records.
    pub fn take_records(&mut self, n: usize) -> Vec<BranchRecord> {
        (0..n).map(|_| self.step()).collect()
    }

    /// Produces the next branch record.
    pub fn step(&mut self) -> BranchRecord {
        let profile = *self.model.profile();
        self.advance_cycle(profile.mean_cycles_per_branch());

        // Pending exception return takes priority: the kernel hands
        // control back before anything else happens.
        if let Some(resume) = self.pending_eret.take() {
            let rec = self.record(
                self.model.syscall_entries()[0].offset(0x40),
                self.model.block_addr(resume),
                BranchKind::ExceptionReturn,
            );
            self.current = resume;
            return rec;
        }

        let block = &self.model.blocks[self.current.0];
        let src = block.branch_addr;

        // Syscall interleave. Which syscall fires depends on *where* the
        // program is: each function has a small affinity set of syscall
        // classes (I/O-heavy code calls read/write, allocators call brk,
        // ...), so normal syscall mixes are phase-structured — the
        // statistical regularity the ELM model learns.
        if self.until_syscall == 0 {
            self.until_syscall = Self::sample_interval(&mut self.rng, profile.syscall_interval);
            // Normal programs exercise a small syscall working set (the
            // first six classes here: read/write/brk/...); the remaining
            // entries (mprotect/execve/ptrace/...) are what attack
            // payloads reach for.
            let n = self.model.syscall_entries().len().min(6);
            let f = block.func;
            let affinity = [(f * 5 + 1) % n, (f * 11 + 7) % n, (f * 3) % n];
            let idx = affinity[self.rng.gen_range(0..affinity.len())];
            let target = self.model.syscall_entries()[idx];
            self.pending_eret = Some(block.succ_hot);
            return self.record(src, target, BranchKind::Syscall);
        }
        self.until_syscall -= 1;

        // Returns fire stochastically at the same rate as calls (so the
        // stack does an unbiased random walk and the mix stays balanced),
        // and are forced at exit blocks so functions terminate.
        let roll: f64 = self.rng.gen();
        let wants_return =
            (profile.call_ratio..2.0 * profile.call_ratio).contains(&roll) || block.is_exit;
        if wants_return {
            if let Some(resume) = self.call_stack.pop() {
                let rec = self.record(src, self.model.block_addr(resume), BranchKind::Return);
                self.current = resume;
                return rec;
            }
        }

        if roll < profile.call_ratio && self.call_stack.len() < MAX_CALL_DEPTH {
            // Call: pick a callee from this block's static candidate set.
            let callee = block.call_targets[self.rng.gen_range(0..block.call_targets.len())];
            let entry = self.model.functions[callee].entry;
            self.call_stack.push(block.succ_hot);
            let rec = self.record(src, self.model.block_addr(entry), BranchKind::Call);
            self.current = entry;
            rec
        } else if roll < 2.0 * profile.call_ratio + profile.indirect_ratio {
            // Indirect jump through this block's dispatch table.
            let t = block.indirect_targets[self.rng.gen_range(0..block.indirect_targets.len())];
            let rec = self.record(src, self.model.block_addr(t), BranchKind::IndirectJump);
            self.current = t;
            rec
        } else {
            // Direct branch: hot successor with the profile's locality.
            let t = if self.rng.gen_bool(profile.locality) {
                block.succ_hot
            } else {
                block.succ_cold
            };
            let rec = self.record(src, self.model.block_addr(t), BranchKind::DirectJump);
            self.current = t;
            rec
        }
    }

    fn record(&self, source: VirtAddr, target: VirtAddr, kind: BranchKind) -> BranchRecord {
        BranchRecord {
            source,
            target,
            kind,
            mode: rtad_trace::IsetMode::Arm,
            cycle: self.cycle,
            context_id: self.context_id,
        }
    }

    fn advance_cycle(&mut self, mean_gap: f64) {
        // Exponential inter-branch gap, floored at 1 cycle.
        let u: f64 = self.rng.gen_range(1e-9..1.0);
        let gap = (-u.ln() * mean_gap).round().max(1.0);
        self.cycle += gap as u64;
    }

    fn sample_interval(rng: &mut ChaCha12Rng, mean: f64) -> u64 {
        let u: f64 = rng.gen_range(1e-9..1.0);
        ((-u.ln() * mean).round() as u64).max(1)
    }
}

impl Iterator for TraceGenerator<'_> {
    type Item = BranchRecord;

    fn next(&mut self) -> Option<BranchRecord> {
        Some(self.step())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Benchmark;
    use std::collections::BTreeMap;

    fn kind_fractions(records: &[BranchRecord]) -> BTreeMap<&'static str, f64> {
        let mut counts: BTreeMap<&'static str, f64> = BTreeMap::new();
        for r in records {
            let k = match r.kind {
                BranchKind::DirectJump => "direct",
                BranchKind::Call => "call",
                BranchKind::Return => "return",
                BranchKind::IndirectJump => "indirect",
                BranchKind::Syscall => "syscall",
                BranchKind::ExceptionReturn => "eret",
            };
            *counts.entry(k).or_default() += 1.0;
        }
        let n = records.len() as f64;
        for v in counts.values_mut() {
            *v /= n;
        }
        counts
    }

    #[test]
    fn walk_is_deterministic_per_seed() {
        let m = ProgramModel::build(Benchmark::Gobmk, 7);
        let a = TraceGenerator::new(&m, 5).take_records(2_000);
        let b = TraceGenerator::new(&m, 5).take_records(2_000);
        assert_eq!(a, b);
        let c = TraceGenerator::new(&m, 6).take_records(2_000);
        assert_ne!(a, c);
    }

    #[test]
    fn branch_mix_tracks_profile() {
        let m = ProgramModel::build(Benchmark::Perlbench, 1);
        let recs = TraceGenerator::new(&m, 0).take_records(200_000);
        let f = kind_fractions(&recs);
        let p = m.profile();
        // Calls within 30% relative of the configured ratio.
        let call = f.get("call").copied().unwrap_or(0.0);
        assert!(
            (call - p.call_ratio).abs() / p.call_ratio < 0.3,
            "call fraction {call} vs profile {}",
            p.call_ratio
        );
        // Calls and returns roughly balance.
        let ret = f.get("return").copied().unwrap_or(0.0);
        assert!((call - ret).abs() < 0.02, "call {call} vs return {ret}");
        // Indirects in the right ballpark.
        let ind = f.get("indirect").copied().unwrap_or(0.0);
        assert!(
            (ind - p.indirect_ratio).abs() / p.indirect_ratio < 0.4,
            "indirect {ind} vs {}",
            p.indirect_ratio
        );
    }

    #[test]
    fn syscalls_pair_with_exception_returns() {
        let m = ProgramModel::build(Benchmark::Gcc, 2);
        let recs = TraceGenerator::new(&m, 3).take_records(100_000);
        let syscalls = recs
            .iter()
            .filter(|r| r.kind == BranchKind::Syscall)
            .count();
        let erets = recs
            .iter()
            .filter(|r| r.kind == BranchKind::ExceptionReturn)
            .count();
        assert!(syscalls > 0, "expected some syscalls in 100k branches");
        assert!((syscalls as i64 - erets as i64).abs() <= 1);
        // Every syscall targets a kernel entry.
        let kernel: std::collections::BTreeSet<_> = m.syscall_entries().iter().copied().collect();
        for r in recs.iter().filter(|r| r.kind == BranchKind::Syscall) {
            assert!(kernel.contains(&r.target));
        }
    }

    #[test]
    fn mean_cycle_gap_tracks_profile() {
        let m = ProgramModel::build(Benchmark::Hmmer, 4);
        let recs = TraceGenerator::new(&m, 1).take_records(50_000);
        let total = recs.last().unwrap().cycle - recs[0].cycle;
        let mean = total as f64 / (recs.len() - 1) as f64;
        let expect = m.profile().mean_cycles_per_branch();
        assert!(
            (mean - expect).abs() / expect < 0.15,
            "mean gap {mean} vs profile {expect}"
        );
    }

    #[test]
    fn all_targets_are_legitimate() {
        let m = ProgramModel::build(Benchmark::Omnetpp, 9);
        let legit = m.legitimate_targets();
        for r in TraceGenerator::new(&m, 2).take_records(20_000) {
            assert!(
                legit.contains(&r.target),
                "illegitimate target {}",
                r.target
            );
        }
    }

    #[test]
    fn iterator_interface_streams() {
        let m = ProgramModel::build(Benchmark::Astar, 0);
        let gen = TraceGenerator::new(&m, 0);
        let v: Vec<_> = gen.take(10).collect();
        assert_eq!(v.len(), 10);
    }

    #[test]
    fn omnetpp_outpressures_hmmer() {
        // Branch arrival rate ordering drives Fig. 8's LSTM variance.
        let fast = ProgramModel::build(Benchmark::Omnetpp, 0);
        let slow = ProgramModel::build(Benchmark::Hmmer, 0);
        let f = TraceGenerator::new(&fast, 0).take_records(20_000);
        let s = TraceGenerator::new(&slow, 0).take_records(20_000);
        let span_f = f.last().unwrap().cycle;
        let span_s = s.last().unwrap().cycle;
        // Profile means: omnetpp ~7.6 cycles/branch, hmmer ~11.9 — a
        // ~1.56x gap; require at least 1.3x to allow sampling noise.
        assert!(
            span_f * 13 < span_s * 10,
            "omnetpp span {span_f} should be well under hmmer span {span_s}"
        );
    }
}
