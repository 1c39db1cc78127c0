//! The multi-CU engine: MIAOW (1 CU) vs ML-MIAOW (5 CUs).
//!
//! Per-CU micro-architecture is identical across variants ("ML-MIAOW and
//! MIAOW both have virtually the same core circuits"); what differs is
//! the CU count that fits the FPGA and whether trimmed features trap.
//! A launch distributes wavefronts round-robin over the CUs; the
//! launch's latency is the slowest CU's serialized work plus a fixed
//! dispatch overhead per launch — which is why Fig. 8's speedup from 5
//! CUs is ~2.75×, not 5×: short recurrent kernels (LSTM steps) pay the
//! dispatch overhead every step and don't always have 5 CUs worth of
//! wavefronts.
//!
//! Host-side execution runs every wave on the calling thread, one
//! launch after another, on the per-instruction interpreter
//! ([`ComputeUnit`]) over cached predecoded kernels (DESIGN.md §10,
//! §13). Simulated cycles, memory, coverage and faults are the same on
//! every engine; only the CU count and the retained features differ.

use std::sync::Arc;

use rtad_sim::{AreaEstimate, ClockDomain, Picos};

use crate::area::{area_of_retained, full_area, EngineVariant};
use crate::coverage::CoverageSet;
use crate::exec::{ComputeUnit, CostModel, ExecError};
use crate::isa::Kernel;
use crate::memory::GpuMemory;
use crate::predecode::{PredecodeCache, PredecodedKernel, PredecodedStream, CORE_FEATURE_MASK};
use crate::trim::TrimPlan;

/// Watchdog budget for a single wavefront (simulated cycles).
const MAX_CYCLES_PER_WAVE: u64 = 10_000_000;

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Number of compute units.
    pub cus: usize,
    /// Retained features (`None` = untrimmed).
    pub retained: Option<CoverageSet>,
    /// Per-instruction cost model.
    pub cost: CostModel,
    /// Fixed cycles per launch (command processor + wave setup).
    pub dispatch_overhead: u64,
    /// The engine clock (50 MHz on the prototype).
    pub clock: ClockDomain,
}

impl EngineConfig {
    /// The original MIAOW prototype configuration: one full CU, used as
    /// the coverage profiler.
    pub fn miaow() -> Self {
        EngineConfig {
            cus: 1,
            retained: None,
            cost: CostModel::miaow(),
            dispatch_overhead: 32,
            clock: ClockDomain::rtad_miaow(),
        }
    }

    /// The ML-MIAOW prototype configuration: five CUs trimmed to `plan`.
    pub fn ml_miaow(plan: &TrimPlan) -> Self {
        EngineConfig {
            cus: EngineVariant::MlMiaow.prototype_cus(),
            retained: Some(plan.retained().clone()),
            cost: CostModel::miaow(),
            dispatch_overhead: 32,
            clock: ClockDomain::rtad_miaow(),
        }
    }
}

/// Statistics of one kernel launch across the engine.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LaunchStats {
    /// Engine cycles from dispatch to last CU done.
    pub cycles: u64,
    /// Total instructions executed (all CUs).
    pub instructions: u64,
    /// Wavefronts run.
    pub waves: usize,
    /// Per-CU busy cycles.
    pub cu_cycles: Vec<u64>,
}

impl LaunchStats {
    /// The launch latency in wall-clock time at `clock`.
    pub fn latency(&self, clock: &ClockDomain) -> Picos {
        clock.cycles_to_picos(self.cycles)
    }
}

/// Wave counts accumulated across every launch of an [`Engine`]. A
/// wave is counted at dispatch, so faulted waves are included.
///
/// Every wave runs on the per-instruction interpreter and counts in
/// `tier1`. `tier2` and `tier3` are always 0, since there is no other
/// tier; they stay only because the frozen benchmark in `perfbench/`
/// reports them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TierCensus {
    /// Waves run (all on the per-instruction interpreter).
    pub tier1: u64,
    /// Always 0.
    pub tier2: u64,
    /// Always 0.
    pub tier3: u64,
}

impl TierCensus {
    /// Total waves dispatched.
    pub fn total(&self) -> u64 {
        self.tier1 + self.tier2 + self.tier3
    }
}

/// A multi-CU engine instance.
///
/// # Examples
///
/// ```
/// use rtad_miaow::asm::assemble;
/// use rtad_miaow::{Engine, EngineConfig, GpuMemory};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let kernel = assemble("v_mov_b32 v1, 1.0\ns_endpgm")?;
/// let mut engine = Engine::new(EngineConfig::miaow());
/// let mut mem = GpuMemory::new(64);
/// let stats = engine.launch(&kernel, 4, &[], &mut mem)?;
/// assert_eq!(stats.waves, 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Engine {
    config: EngineConfig,
    cus: Vec<ComputeUnit>,
    observed: CoverageSet,
    /// Bit-mask shadow of `observed`: feature recording is on the
    /// per-wave hot path, and the steady state records the same few
    /// bits over and over — the mask check turns that into one AND per
    /// wave instead of a `BTreeSet` walk.
    observed_mask: u64,
    cache: PredecodeCache,
    /// Wave counts across every launch so far.
    census: TierCensus,
}

impl Engine {
    /// Builds an engine.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero CUs.
    pub fn new(config: EngineConfig) -> Self {
        assert!(config.cus > 0, "engine needs at least one compute unit");
        let make = || match &config.retained {
            Some(r) => ComputeUnit::trimmed(r.clone()).with_cost_model(config.cost),
            None => ComputeUnit::new().with_cost_model(config.cost),
        };
        let cus = (0..config.cus).map(|_| make()).collect();
        Engine {
            config,
            cus,
            observed: CoverageSet::new(),
            observed_mask: 0,
            cache: PredecodeCache::default(),
            census: TierCensus::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Number of CUs.
    pub fn cu_count(&self) -> usize {
        self.cus.len()
    }

    /// Coverage accumulated over every launch so far (Fig. 4 step 1
    /// output when this engine is the full MIAOW used for profiling).
    pub fn observed_coverage(&self) -> &CoverageSet {
        &self.observed
    }

    /// The retained-feature set of a trimmed engine (`None` = full
    /// engine, nothing trapped). Static verifiers check kernels against
    /// this before launch.
    pub fn retained(&self) -> Option<&CoverageSet> {
        self.config.retained.as_ref()
    }

    /// Wave counts across every launch so far (see [`TierCensus`]).
    pub fn tier_census(&self) -> TierCensus {
        self.census
    }

    /// Resets the wave counts (bench passes measure deltas).
    pub fn reset_tier_census(&mut self) {
        self.census = TierCensus::default();
    }

    /// Re-trims the engine in place to a new plan (`None` = untrimmed),
    /// preserving staged LDS contents. Predecoded lowerings are keyed
    /// by trim mask, so stale trap verdicts cannot be reused — but any
    /// verdict cache layered above (e.g. `VerifiedEngine`) must key by
    /// trim plan too.
    pub fn retrim(&mut self, plan: Option<&TrimPlan>) {
        let retained = plan.map(|p| p.retained().clone());
        for cu in &mut self.cus {
            cu.set_retained(retained.clone());
        }
        self.config.retained = retained;
    }

    /// Total engine area (per-CU area × CU count).
    pub fn area(&self) -> AreaEstimate {
        let per_cu = match &self.config.retained {
            Some(r) => area_of_retained(r),
            None => full_area(),
        };
        per_cu.scaled(self.cus.len() as u64)
    }

    /// Stages model data into every CU's LDS (weights are replicated so
    /// any CU can run any wavefront).
    ///
    /// # Panics
    ///
    /// Panics if the region exceeds the LDS.
    pub fn stage_lds(&mut self, addr: usize, values: &[f32]) {
        for cu in &mut self.cus {
            cu.write_lds_f32_slice(addr, values);
        }
    }

    /// Merges a coverage mask into the engine's observed set, skipping
    /// the `BTreeSet` walk when every bit has been seen before (the
    /// steady state of a serving engine).
    fn observe(&mut self, mask: u64) {
        if mask & !self.observed_mask != 0 {
            self.observed_mask |= mask;
            self.observed.record_mask(mask);
        }
    }

    /// Lowers `kernel` into its predecoded form for this engine's cost
    /// model and retained set, caching by
    /// ([`Kernel::fingerprint`], trim mask). Drivers can call this
    /// ahead of time (e.g. while loading model weights) so the first
    /// real launch is already a cache hit.
    pub fn predecode(&mut self, kernel: &Kernel) -> Arc<PredecodedKernel> {
        self.cache
            .get_or_lower(kernel, &self.config.cost, self.config.retained.as_ref())
    }

    /// Number of distinct kernels lowered into the predecode cache.
    pub fn predecoded_kernels(&self) -> usize {
        self.cache.len()
    }

    /// Predecode-cache hit/miss/size counters.
    pub fn predecode_stats(&self) -> crate::predecode::PredecodeStats {
        self.cache.stats()
    }

    /// Launches `waves` wavefronts of `kernel` with scalar arguments
    /// `args`, distributing them round-robin over the CUs.
    ///
    /// The five always-exercised core datapath features are recorded
    /// once per launch here (not once per wave — they are launch-level
    /// facts).
    ///
    /// # Errors
    ///
    /// Returns the first [`ExecError`] any CU hits (trimmed-feature
    /// traps, bad addresses, watchdog), "first" meaning the lowest
    /// global wave index.
    pub fn launch(
        &mut self,
        kernel: &Kernel,
        waves: usize,
        args: &[u32],
        mem: &mut GpuMemory,
    ) -> Result<LaunchStats, ExecError> {
        let pk = self.predecode(kernel);
        self.launch_pre(&pk, waves, args, mem)
    }

    /// Resolves a fixed multi-kernel launch sequence into a cached
    /// [`PredecodedStream`] (see
    /// [`PredecodeCache`](crate::predecode::PredecodeStats) telemetry:
    /// a stream hit is accounted as one cache hit per stage).
    pub fn predecode_stream(&mut self, stages: &[(&Kernel, usize)]) -> Arc<PredecodedStream> {
        self.cache
            .get_or_stream(stages, &self.config.cost, self.config.retained.as_ref())
    }

    /// Launches a fused stream of kernels back to back against the same
    /// memory and arguments — the kernel sequences the model drivers
    /// issue every event (e.g. the LSTM gate/combine pair). One
    /// stream-cache lookup covers the whole sequence; per-stage stats
    /// are returned in launch order and are bit-identical to issuing
    /// the stages through separate [`Engine::launch`] calls.
    ///
    /// # Errors
    ///
    /// Returns the first failing stage's [`ExecError`]; earlier stages'
    /// effects are applied (exactly like separate launches).
    pub fn launch_stream(
        &mut self,
        stages: &[(&Kernel, usize)],
        args: &[u32],
        mem: &mut GpuMemory,
    ) -> Result<Vec<LaunchStats>, ExecError> {
        let stream = self.predecode_stream(stages);
        let mut out = Vec::with_capacity(stream.len());
        for (pk, waves) in &stream.stages {
            out.push(self.launch_pre(pk, *waves, args, mem)?);
        }
        Ok(out)
    }

    /// Launches a fused kernel stream for a whole batch of jobs — same
    /// stages, per-job scalar arguments and device memory. One
    /// stream-cache lookup covers the entire batch; each job then runs
    /// its whole stream back to back on the calling thread. Per job,
    /// the returned stats are one [`LaunchStats`] per stage,
    /// bit-identical to issuing per-job [`Engine::launch_stream`] (or
    /// per-stage [`Engine::launch`]) calls.
    ///
    /// # Errors
    ///
    /// Returns the first failing job's [`ExecError`] (lowest job index,
    /// earliest stage), exactly like issuing the jobs' launches in
    /// sequence: every earlier job has run its whole stream, the
    /// failing job keeps the effects of its completed stages and of the
    /// faulting wave's pre-fault lane stores, and later jobs' memories
    /// are untouched. Coverage and the wave census likewise count
    /// exactly the waves that ran.
    pub fn launch_stream_batch<'m, I>(
        &mut self,
        stages: &[(&Kernel, usize)],
        jobs: I,
    ) -> Result<Vec<Vec<LaunchStats>>, ExecError>
    where
        I: IntoIterator<Item = (&'m [u32], &'m mut GpuMemory)>,
    {
        let stream = self.predecode_stream(stages);
        jobs.into_iter()
            .map(|(args, mem)| {
                stream
                    .stages
                    .iter()
                    .map(|(pk, waves)| self.launch_pre(pk, *waves, args, mem))
                    .collect()
            })
            .collect()
    }

    /// The common post-predecode launch path: records launch-level
    /// coverage and runs the waves serially on the calling thread.
    fn launch_pre(
        &mut self,
        pk: &PredecodedKernel,
        waves: usize,
        args: &[u32],
        mem: &mut GpuMemory,
    ) -> Result<LaunchStats, ExecError> {
        if waves > 0 {
            self.observe(CORE_FEATURE_MASK);
        }
        let n_cus = self.cus.len();
        let mut cu_cycles = vec![0u64; n_cus];
        let mut stats = LaunchStats::default();

        // Each wave keeps its global index (v0 = wave*16 + lane) no
        // matter which CU runs it, so output placement is unchanged by
        // the CU count.
        for wave in 0..waves {
            let cu_idx = wave % n_cus;
            self.census.tier1 += 1;
            let out = self.cus[cu_idx].run_wave_pre(pk, args, wave, MAX_CYCLES_PER_WAVE, mem);
            self.observe(out.covmask);
            if let Some(e) = out.error {
                return Err(e);
            }
            cu_cycles[cu_idx] += out.stats.cycles;
            stats.instructions += out.stats.instructions;
            stats.waves += 1;
        }

        stats.cycles = self.config.dispatch_overhead + cu_cycles.iter().copied().max().unwrap_or(0);
        stats.cu_cycles = cu_cycles;
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use crate::trim::TrimPlan;

    fn store_kernel() -> Kernel {
        assemble(
            r#"
            v_lshl_b32 v1, v0, 2
            v_cvt_f32_i32 v2, v0
            buffer_store_dword v2, v1, s0
            s_endpgm
        "#,
        )
        .expect("assembles")
    }

    #[test]
    fn multi_cu_launch_is_faster_but_equal_output() {
        let kernel = store_kernel();
        let waves = 10;

        let mut one = Engine::new(EngineConfig::miaow());
        let mut mem1 = GpuMemory::new(waves * 16 * 4);
        let s1 = one.launch(&kernel, waves, &[0], &mut mem1).unwrap();

        let mut five_cfg = EngineConfig::miaow();
        five_cfg.cus = 5;
        let mut five = Engine::new(five_cfg);
        let mut mem5 = GpuMemory::new(waves * 16 * 4);
        let s5 = five.launch(&kernel, waves, &[0], &mut mem5).unwrap();

        assert_eq!(mem1, mem5);
        assert!(s5.cycles < s1.cycles);
        // 10 waves over 5 CUs: 2 waves each => ~5x on the busy part.
        let busy1 = s1.cycles - one.config().dispatch_overhead;
        let busy5 = s5.cycles - five.config().dispatch_overhead;
        assert_eq!(busy1, busy5 * 5);
    }

    #[test]
    fn engine_accumulates_coverage() {
        let mut e = Engine::new(EngineConfig::miaow());
        let mut mem = GpuMemory::new(1024);
        e.launch(&store_kernel(), 1, &[0], &mut mem).unwrap();
        assert!(e
            .observed_coverage()
            .contains(crate::coverage::Feature::BufferStore));
    }

    #[test]
    fn ml_miaow_engine_runs_covered_kernels_and_traps_on_others() {
        // Profile with the full engine.
        let mut profiler = Engine::new(EngineConfig::miaow());
        let mut mem = GpuMemory::new(1024);
        profiler.launch(&store_kernel(), 1, &[0], &mut mem).unwrap();
        let plan = TrimPlan::from_coverage(profiler.observed_coverage());

        let mut ml = Engine::new(EngineConfig::ml_miaow(&plan));
        assert_eq!(ml.cu_count(), 5);
        let mut mem2 = GpuMemory::new(1024);
        ml.launch(&store_kernel(), 1, &[0], &mut mem2).unwrap();

        // A kernel using an untrimmed-away transcendental traps.
        let exp = assemble("v_exp_f32 v1, 1.0\ns_endpgm").unwrap();
        let err = ml.launch(&exp, 1, &[], &mut mem2).unwrap_err();
        assert!(matches!(err, ExecError::TrimmedFeature { .. }));
    }

    #[test]
    fn area_scales_with_cu_count() {
        let one = Engine::new(EngineConfig::miaow());
        let mut cfg = EngineConfig::miaow();
        cfg.cus = 3;
        let three = Engine::new(cfg);
        assert_eq!(three.area().luts, one.area().luts * 3);
    }

    #[test]
    fn lds_staging_reaches_all_cus() {
        let kernel = assemble(
            r#"
            v_lshl_b32 v1, v0, 2
            ds_read_b32 v2, v1
            buffer_store_dword v2, v1, s0
            s_endpgm
        "#,
        )
        .unwrap();
        let mut cfg = EngineConfig::miaow();
        cfg.cus = 2;
        let mut e = Engine::new(cfg);
        let data: Vec<f32> = (0..32).map(|i| i as f32 * 1.5).collect();
        e.stage_lds(0, &data);
        let mut mem = GpuMemory::new(2 * 16 * 4);
        e.launch(&kernel, 2, &[0], &mut mem).unwrap();
        // Wave 1 ran on CU 1 and read the same staged weights.
        assert_eq!(mem.read_f32(20 * 4), 30.0);
    }

    #[test]
    #[should_panic(expected = "at least one compute unit")]
    fn zero_cus_rejected() {
        let mut cfg = EngineConfig::miaow();
        cfg.cus = 0;
        let _ = Engine::new(cfg);
    }

    #[test]
    fn predecode_cache_hits_across_launches() {
        let mut e = Engine::new(EngineConfig::miaow());
        let k = store_kernel();
        assert_eq!(e.predecoded_kernels(), 0);
        let pk = e.predecode(&k);
        assert_eq!(pk.fingerprint(), k.fingerprint());
        let mut mem = GpuMemory::new(1024);
        e.launch(&k, 1, &[0], &mut mem).unwrap();
        e.launch(&k, 1, &[0], &mut mem).unwrap();
        assert_eq!(e.predecoded_kernels(), 1, "launches reuse the lowering");
    }

    /// One-stage batch jobs for `launch_stream_batch`: `args[j]` with
    /// `mems[j]`.
    fn batch_jobs<'m>(
        args: &'m [Vec<u32>],
        mems: &'m mut [GpuMemory],
    ) -> Vec<(&'m [u32], &'m mut GpuMemory)> {
        args.iter()
            .zip(mems.iter_mut())
            .map(|(a, m)| (a.as_slice(), m))
            .collect()
    }

    #[test]
    fn launch_batch_matches_individual_launches() {
        let kernel = store_kernel();
        let waves = 3;
        let args: Vec<Vec<u32>> = (0..4).map(|_| vec![0u32]).collect();

        // Reference: one launch per job on a fresh engine.
        let mut re = Engine::new(EngineConfig::miaow());
        let mut ref_mems: Vec<GpuMemory> = args
            .iter()
            .map(|_| GpuMemory::new(waves * 16 * 4))
            .collect();
        let mut ref_stats = Vec::new();
        for mem in &mut ref_mems {
            ref_stats.push(vec![re.launch(&kernel, waves, &[0], mem).unwrap()]);
        }

        let mut be = Engine::new(EngineConfig::miaow());
        let mut mems: Vec<GpuMemory> = args
            .iter()
            .map(|_| GpuMemory::new(waves * 16 * 4))
            .collect();
        let batch_stats = be
            .launch_stream_batch(&[(&kernel, waves)], batch_jobs(&args, &mut mems))
            .unwrap();

        assert_eq!(batch_stats, ref_stats);
        assert_eq!(mems, ref_mems);
        assert_eq!(re.observed_coverage(), be.observed_coverage());
        assert_eq!(re.tier_census(), be.tier_census());
        // The whole batch cost one cache lookup, not one per job.
        let rs = re.predecode_stats();
        let bs = be.predecode_stats();
        assert_eq!((rs.hits, rs.misses), (args.len() as u64 - 1, 1));
        assert_eq!((bs.hits, bs.misses, bs.streams), (0, 1, 1));
    }

    #[test]
    fn stream_batch_fault_leaves_later_jobs_untouched() {
        // Job 2 of 6 gets an out-of-range store base. The batch fails
        // with job 2's BadAddress exactly as issuing the launches in
        // sequence would: jobs 0-1 fully applied, jobs 3-5 never run.
        let kernel = store_kernel();
        let waves = 2;
        let mem_size = waves * 16 * 4;
        let args: Vec<Vec<u32>> = (0..6)
            .map(|j| vec![if j == 2 { mem_size as u32 } else { 0u32 }])
            .collect();
        let mut cfg = EngineConfig::miaow();
        cfg.cus = 5;

        // Reference: the same launches one at a time, up to the fault.
        let mut re = Engine::new(cfg.clone());
        let mut ref_mems: Vec<GpuMemory> = args.iter().map(|_| GpuMemory::new(mem_size)).collect();
        let ref_err = ref_mems
            .iter_mut()
            .zip(&args)
            .find_map(|(mem, a)| re.launch(&kernel, waves, a, mem).err())
            .expect("job 2 faults");

        let mut be = Engine::new(cfg);
        let mut mems: Vec<GpuMemory> = args.iter().map(|_| GpuMemory::new(mem_size)).collect();
        let err = be
            .launch_stream_batch(&[(&kernel, waves)], batch_jobs(&args, &mut mems))
            .unwrap_err();

        assert!(matches!(err, ExecError::BadAddress { .. }));
        assert_eq!(err, ref_err, "job 2's fault");
        assert_eq!(
            mems[..3],
            ref_mems[..3],
            "jobs 0-1 applied, job 2 as faulted"
        );
        for mem in &mems[3..] {
            assert_eq!(*mem, GpuMemory::new(mem_size), "later jobs untouched");
        }
        assert_eq!(be.observed_coverage(), re.observed_coverage());
        assert_eq!(be.tier_census(), re.tier_census());
    }

    #[test]
    fn retrim_preserves_staged_lds() {
        let kernel = assemble(
            r#"
            v_lshl_b32 v1, v0, 2
            ds_read_b32 v2, v1
            buffer_store_dword v2, v1, s0
            s_endpgm
        "#,
        )
        .unwrap();
        let mut cfg = EngineConfig::miaow();
        cfg.cus = 2;
        let mut e = Engine::new(cfg);
        let data: Vec<f32> = (0..32).map(|i| i as f32 * 1.5).collect();
        e.stage_lds(0, &data);
        let mut mem = GpuMemory::new(2 * 16 * 4);
        e.launch(&kernel, 2, &[0], &mut mem).unwrap();
        let plan = TrimPlan::from_coverage(e.observed_coverage());

        // Re-trim the same engine in place: staged weights must survive
        // and the retained set must now gate features.
        e.retrim(Some(&plan));
        assert!(e.retained().is_some());
        let mut mem2 = GpuMemory::new(2 * 16 * 4);
        e.launch(&kernel, 2, &[0], &mut mem2).unwrap();
        assert_eq!(mem2.read_f32(20 * 4), 30.0, "LDS contents survived");

        let exp = assemble("v_exp_f32 v1, 1.0\ns_endpgm").unwrap();
        let err = e.launch(&exp, 1, &[], &mut mem2).unwrap_err();
        assert!(matches!(err, ExecError::TrimmedFeature { .. }));

        // And back to untrimmed: the exp kernel runs again.
        e.retrim(None);
        assert!(e.retained().is_none());
        e.launch(&exp, 1, &[], &mut mem2).unwrap();
    }

    #[test]
    fn launch_stream_matches_separate_launches() {
        let k1 = store_kernel();
        let k2 = assemble("v_mov_b32 v1, 1.0\ns_endpgm").unwrap();
        let waves = 3;

        let mut re = Engine::new(EngineConfig::miaow());
        let mut ref_mem = GpuMemory::new(waves * 16 * 4);
        let s1 = re.launch(&k1, waves, &[0], &mut ref_mem).unwrap();
        let s2 = re.launch(&k2, 1, &[0], &mut ref_mem).unwrap();

        let mut se = Engine::new(EngineConfig::miaow());
        let mut mem = GpuMemory::new(waves * 16 * 4);
        let ss = se
            .launch_stream(&[(&k1, waves), (&k2, 1)], &[0], &mut mem)
            .unwrap();
        assert_eq!(ss, vec![s1, s2], "per-stage stats match separate launches");
        assert_eq!(mem, ref_mem);
        assert_eq!(re.observed_coverage(), se.observed_coverage());

        // Steady state: relaunching the stream costs one cache hit per
        // stage (comparable with per-launch accounting).
        se.launch_stream(&[(&k1, waves), (&k2, 1)], &[0], &mut mem)
            .unwrap();
        let st = se.predecode_stats();
        assert_eq!((st.hits, st.misses, st.streams), (2, 2, 1));
    }

    #[test]
    fn tier_census_counts_every_dispatched_wave() {
        let kernel = store_kernel();
        let mut mem = GpuMemory::new(2 * 16 * 4);
        let only_tier1 = |waves| TierCensus {
            tier1: waves,
            tier2: 0,
            tier3: 0,
        };

        let mut prof = Engine::new(EngineConfig::miaow());
        prof.launch(&kernel, 2, &[0], &mut mem).unwrap();
        assert_eq!(prof.tier_census(), only_tier1(2));

        // The trimmed serving engine interprets too, and a faulted wave
        // is counted: wave 0 stores out of range and stops the launch.
        let plan = TrimPlan::from_coverage(prof.observed_coverage());
        let mut ml = Engine::new(EngineConfig::ml_miaow(&plan));
        ml.launch(&kernel, 2, &[0], &mut mem).unwrap();
        let bad_base = mem.size() as u32;
        ml.launch(&kernel, 2, &[bad_base], &mut mem).unwrap_err();
        assert_eq!(ml.tier_census(), only_tier1(3));
        ml.reset_tier_census();
        assert_eq!(ml.tier_census().total(), 0);
    }

    #[test]
    fn engine_exposes_predecode_stats() {
        let mut e = Engine::new(EngineConfig::miaow());
        let k = store_kernel();
        let mut mem = GpuMemory::new(1024);
        e.launch(&k, 1, &[0], &mut mem).unwrap();
        e.launch(&k, 1, &[0], &mut mem).unwrap();
        let s = e.predecode_stats();
        assert_eq!((s.hits, s.misses, s.kernels), (1, 1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }
}
