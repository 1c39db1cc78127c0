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
//! Host-side execution has two orthogonal accelerations (DESIGN.md §13):
//! tier-2 **superblock traces** (fused macro-ops over straight-line
//! regions, selected by [`EngineConfig::superblocks`]) and the
//! **work-partitioned batch launcher** ([`Engine::launch_batch`]), which
//! assigns whole jobs — not interleaved wavefronts — to CU worker
//! threads so the hot path has no cross-CU write-log merge. Both are
//! bit-identical to the serial tier-1 reference in every simulated
//! quantity.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use std::thread;

use rtad_sim::{AreaEstimate, ClockDomain, Picos};

use crate::area::{area_of_retained, full_area, EngineVariant};
use crate::coverage::{CoverageSet, Feature};
use crate::exec::{ComputeUnit, CostModel, ExecError};
use crate::isa::Kernel;
use crate::memory::{GpuMemory, UndoMemory};
use crate::predecode::{PredecodeCache, PredecodedKernel, PredecodedStream, CORE_FEATURE_MASK};
use crate::trim::TrimPlan;

/// Default watchdog budget for a single wavefront (simulated cycles),
/// used whenever no proven per-kernel bound has been attested.
const MAX_CYCLES_PER_WAVE: u64 = 10_000_000;

/// A statically proven per-kernel resource certificate, attested into
/// the engine by a verifier (rtad-analysis' `VerifiedEngine`, or the
/// soc load paths).
///
/// The attester asserts that `max_wave_cycles` is an upper bound on the
/// simulated cycles of *any* wavefront of the kernel under this
/// engine's cost model, and that `lane_disjoint` certifies no store
/// instruction can make two lanes of a wave write conflicting bytes.
/// The engine trusts these claims: the bound becomes the watchdog
/// budget (and, when it fits under the default budget, lets the tier-2
/// fast path skip per-instruction watchdog checks — bit-identically,
/// since a true bound means the watchdog can never fire), and
/// disjointness gates lane-chunked execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelAttestation {
    /// Proven worst-case simulated cycles for one wavefront (excluding
    /// dispatch overhead).
    pub max_wave_cycles: u64,
    /// Lanes proven to write only lane-private (or identical-broadcast)
    /// regions within every store instruction.
    pub lane_disjoint: bool,
}

/// Default minimum estimated batch work (jobs × waves × static
/// instruction count) before the partitioned parallel batch path
/// engages when [`EngineConfig::parallel_min_work`] is left at its
/// default.
///
/// Spawning one scoped thread per CU costs tens to hundreds of
/// microseconds per launch (25–180 µs measured on the bench host),
/// while a single batched job runs in single-digit microseconds; a
/// batch must carry enough work per worker to buy that back. The
/// crossover measured on the bench host (the `engine_scaling` sweep,
/// recorded in EXPERIMENTS.md's serving trend table; method in
/// DESIGN.md §13)
/// shows forced CU partitioning *losing* to the in-thread serial loop
/// everywhere below ≈2×10⁵ work units per launch and only reaching
/// break-even around 2–2.5×10⁵ (1024-stream LSTM batches). The default
/// therefore engages the partitioned path only past 4×10⁵ units —
/// roughly 2× the measured break-even — which keeps every serving-size
/// batch (64 jobs × ≤4 waves × ≤80 static instructions ≈ 2×10⁴) on the
/// serial path. Single-core hosts never engage it regardless (the
/// [`host_threads`] gate).
pub const DEFAULT_PARALLEL_MIN_WORK: u64 = 400_000;

/// The parallel-launch work threshold for a host with `threads`
/// schedulable threads. This is the runtime-aware replacement for
/// pinning [`DEFAULT_PARALLEL_MIN_WORK`] everywhere: the measured
/// single-core value stays the 1-thread table entry, and wider hosts
/// step the bar down toward the measured break-even (≈2–2.5×10⁵ work
/// units), since each extra worker amortizes the fixed spawn cost over
/// more recovered parallelism. The table stays deliberately coarse —
/// the crossover moves by small factors, not orders of magnitude — and
/// never drops below the break-even itself, so a mispredicted host
/// still cannot land the serial-faster regime on the parallel path.
pub fn parallel_min_work_for_threads(threads: usize) -> u64 {
    match threads {
        // Single-core (and the degenerate 0 report): the measured
        // single-core value (EXPERIMENTS.md, serving trend table); the
        // host_threads gate keeps the partitioned path off anyway.
        0 | 1 => DEFAULT_PARALLEL_MIN_WORK,
        // Few cores: spawn cost is recovered slower; stay well above
        // break-even.
        2 | 3 => 300_000,
        // Wide hosts: engage near the measured break-even.
        _ => 200_000,
    }
}

/// The auto parallel-launch threshold for *this* host:
/// [`parallel_min_work_for_threads`] applied to
/// `available_parallelism()` (cached). [`EngineConfig::miaow`] and
/// [`EngineConfig::ml_miaow`] seed `parallel_min_work` from this.
pub fn default_parallel_min_work() -> u64 {
    parallel_min_work_for_threads(host_threads())
}

/// Host threads available to the process (cached; the launch-mode
/// decision consults it so a single-core host never pays thread-spawn
/// overhead that cannot be recovered).
fn host_threads() -> usize {
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get))
}

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
    /// Allow [`Engine::launch_batch`] to partition a batch's jobs over
    /// one host thread per CU. Purely a host-side execution strategy:
    /// device memory, coverage, scores and every simulated-cycle count
    /// are bit-identical to the serial reference path (`false`), which
    /// remains available as the oracle the determinism property test
    /// compares against. See DESIGN.md §13.
    pub parallel: bool,
    /// Minimum estimated batch work — `jobs × waves × static
    /// instruction count` — below which a `parallel: true` engine
    /// auto-falls back to the serial batch path (small batches lose
    /// more to thread spawning than job-level parallelism recovers; see
    /// [`DEFAULT_PARALLEL_MIN_WORK`] and the host-aware
    /// [`parallel_min_work_for_threads`] table the presets seed this
    /// from). `0` disables the fallback and
    /// forces the partitioned path whenever its safety gates allow —
    /// the knob the determinism tests use to exercise it. When the
    /// threshold is active, a single-threaded host also falls back to
    /// serial. The resolved choice of every launch is recorded in
    /// [`LaunchStats::mode`].
    pub parallel_min_work: u64,
    /// Enable tier-2 lowering: kernels are split into straight-line
    /// superblocks of fused macro-ops executed by contiguous lane loops
    /// ([`PredecodedKernel::superblocks`]). Bit-identical to the tier-1
    /// interpreter; only host throughput differs. Effective only when
    /// [`EngineConfig::observe_coverage`] is off.
    pub superblocks: bool,
    /// Run every wave on the tier-1 per-instruction interpreter even if
    /// `superblocks` is set. Profiling engines (Fig. 4 step 1) keep
    /// this on so coverage observation retains per-instruction
    /// granularity; the trimmed serving engine leaves it off and takes
    /// the superblock fast path. Coverage masks are recorded either
    /// way — this knob only selects the execution tier.
    pub observe_coverage: bool,
}

impl EngineConfig {
    /// The original MIAOW prototype configuration: one full CU, used as
    /// the coverage profiler (tier-1 interpretation).
    pub fn miaow() -> Self {
        EngineConfig {
            cus: 1,
            retained: None,
            cost: CostModel::miaow(),
            dispatch_overhead: 32,
            clock: ClockDomain::rtad_miaow(),
            parallel: false,
            parallel_min_work: default_parallel_min_work(),
            superblocks: true,
            observe_coverage: true,
        }
    }

    /// The ML-MIAOW prototype configuration: five CUs trimmed to `plan`,
    /// superblock execution, partitioned batch parallelism.
    pub fn ml_miaow(plan: &TrimPlan) -> Self {
        EngineConfig {
            cus: EngineVariant::MlMiaow.prototype_cus(),
            retained: Some(plan.retained().clone()),
            cost: CostModel::miaow(),
            dispatch_overhead: 32,
            clock: ClockDomain::rtad_miaow(),
            parallel: true,
            parallel_min_work: default_parallel_min_work(),
            superblocks: true,
            observe_coverage: false,
        }
    }
}

/// Which host execution path a launch resolved to (host telemetry only
/// — both paths are bit-identical in every simulated quantity).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LaunchMode {
    /// Waves ran one after another on the calling thread.
    #[default]
    Serial,
    /// The batch's jobs ran partitioned over one worker thread per CU.
    Parallel,
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
    /// The host path the launch resolved to (see
    /// [`EngineConfig::parallel_min_work`]). Not a simulated quantity:
    /// compare [`LaunchStats::work`] when checking serial/parallel
    /// equivalence.
    pub mode: LaunchMode,
}

impl LaunchStats {
    /// The launch latency in wall-clock time at `clock`.
    pub fn latency(&self, clock: &ClockDomain) -> Picos {
        clock.cycles_to_picos(self.cycles)
    }

    /// The simulated-work view — every field except the host-side
    /// [`LaunchStats::mode`]. Serial and parallel launches of the same
    /// kernel are bit-identical under this view.
    pub fn work(&self) -> (u64, u64, usize, &[u64]) {
        (self.cycles, self.instructions, self.waves, &self.cu_cycles)
    }
}

/// Per-execution-tier wave counts, accumulated across every launch of
/// an [`Engine`] (host telemetry: which tier actually ran each wave).
/// A wave is counted at dispatch, so faulted waves are included.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TierCensus {
    /// Waves run on the tier-1 per-instruction interpreter.
    pub tier1: u64,
    /// Waves run on the tier-2 superblock trace executor.
    pub tier2: u64,
    /// Waves run on a tier-3 closed-form schedule.
    pub tier3: u64,
}

impl TierCensus {
    /// Total waves dispatched.
    pub fn total(&self) -> u64 {
        self.tier1 + self.tier2 + self.tier3
    }

    fn merge(&mut self, other: TierCensus) {
        self.tier1 += other.tier1;
        self.tier2 += other.tier2;
        self.tier3 += other.tier3;
    }
}

/// One partitioned-batch job's outcome, carried back across the worker
/// join: its stats/coverage on success, its undo log for rollback if an
/// earlier job faulted, and the job's memory handle (moved through the
/// worker) so the rollback can be applied.
struct JobResult<'m> {
    idx: usize,
    stats: LaunchStats,
    covmask: u64,
    census: TierCensus,
    undo: Vec<(u32, u32)>,
    error: Option<ExecError>,
    mem: &'m mut GpuMemory,
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
    /// Proven resource certificates, keyed by kernel fingerprint.
    attested: HashMap<u64, KernelAttestation>,
    /// Per-tier wave counts across every launch so far.
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
            attested: HashMap::new(),
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

    /// Installs a proven resource certificate for the kernel with
    /// `fingerprint`. See [`KernelAttestation`] for the contract the
    /// attester must uphold; attestations depend only on the kernel
    /// content and cost model, so they survive [`Engine::retrim`].
    pub fn attest(&mut self, fingerprint: u64, attestation: KernelAttestation) {
        self.attested.insert(fingerprint, attestation);
    }

    /// The attested resource certificate for `fingerprint`, if any.
    pub fn attestation(&self, fingerprint: u64) -> Option<KernelAttestation> {
        self.attested.get(&fingerprint).copied()
    }

    /// Revokes the attested certificate for `fingerprint`, returning it
    /// if one was installed. Subsequent launches of that kernel fall
    /// back down the tier ladder: the default watchdog budget returns,
    /// tier-3 schedules and chunked lane execution stop being taken.
    pub fn deattest(&mut self, fingerprint: u64) -> Option<KernelAttestation> {
        self.attested.remove(&fingerprint)
    }

    /// Per-tier wave counts across every launch so far (which execution
    /// tier actually ran each dispatched wave).
    pub fn tier_census(&self) -> TierCensus {
        self.census
    }

    /// Resets the per-tier wave counts (bench passes measure deltas).
    pub fn reset_tier_census(&mut self) {
        self.census = TierCensus::default();
    }

    /// Whether `kernel` is certified safe for lane-chunked execution
    /// (the soundness gate the vectorized-lane roadmap item needs):
    /// true only when an attested certificate proves its lanes
    /// non-interfering.
    pub fn lane_chunkable(&self, kernel: &Kernel) -> bool {
        self.attestation(kernel.fingerprint())
            .is_some_and(|a| a.lane_disjoint)
    }

    /// The watchdog budget for one wave of the kernel with
    /// `fingerprint`, and whether it is a *proven* bound. A proven
    /// bound within the default budget replaces it and lets execution
    /// skip watchdog comparisons entirely (they can never fire below a
    /// true bound); an attested bound *above* the default keeps the
    /// default so behavior stays identical to an unattested engine.
    fn wave_budget(&self, fingerprint: u64) -> (u64, bool) {
        match self.attested.get(&fingerprint) {
            Some(a) if a.max_wave_cycles <= MAX_CYCLES_PER_WAVE => (a.max_wave_cycles, true),
            _ => (MAX_CYCLES_PER_WAVE, false),
        }
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

    /// Enables or disables per-CU write-race logging (debug builds
    /// only): every store instruction's active-lane writes are checked
    /// for cross-lane overlap, cross-validating static
    /// lane-disjointness certificates during test runs.
    #[cfg(debug_assertions)]
    pub fn set_race_logging(&mut self, on: bool) {
        for cu in &mut self.cus {
            cu.set_race_logging(on);
        }
    }

    /// Drains the write races every CU observed since the last call
    /// (debug builds only).
    #[cfg(debug_assertions)]
    pub fn take_races(&mut self) -> Vec<crate::exec::LaneRace> {
        self.cus
            .iter_mut()
            .flat_map(ComputeUnit::take_races)
            .collect()
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

    /// Whether launches on this engine execute tier-2 superblock traces
    /// (see [`EngineConfig::superblocks`] /
    /// [`EngineConfig::observe_coverage`]).
    pub fn uses_superblocks(&self) -> bool {
        self.config.superblocks && !self.config.observe_coverage
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
    /// model, retained set and lowering tier, caching by
    /// ([`Kernel::fingerprint`], trim mask). Drivers can call this
    /// ahead of time (e.g. while loading model weights) so the first
    /// real launch is already a cache hit.
    pub fn predecode(&mut self, kernel: &Kernel) -> Arc<PredecodedKernel> {
        self.cache.get_or_lower(
            kernel,
            &self.config.cost,
            self.config.retained.as_ref(),
            self.uses_superblocks(),
        )
    }

    /// Number of distinct kernels lowered into the predecode cache.
    pub fn predecoded_kernels(&self) -> usize {
        self.cache.len()
    }

    /// Predecode-cache hit/miss/size counters.
    pub fn predecode_stats(&self) -> crate::predecode::PredecodeStats {
        self.cache.stats()
    }

    /// Resolves the host execution path for a batch of `jobs` jobs of
    /// `waves` waves each (see [`EngineConfig::parallel_min_work`]).
    ///
    /// Safety gates force serial regardless of the threshold:
    /// single-CU engines, single-job batches, kernels with trimmed-trap
    /// sites (they fault on job 0 immediately — partitioning wastes the
    /// other workers), and kernels that write LDS (per-CU LDS replicas
    /// must stay identical, which whole-job partitioning cannot
    /// guarantee; the serial round-robin path can — see
    /// `run_lds_loader`).
    fn batch_mode(&self, pk: &PredecodedKernel, waves: usize, jobs: usize) -> LaunchMode {
        if !self.config.parallel
            || self.cus.len() < 2
            || jobs < 2
            || waves == 0
            || pk.traps()
            || pk.static_mask() & Feature::LdsWrite.bit() != 0
        {
            return LaunchMode::Serial;
        }
        if self.config.parallel_min_work == 0 {
            return LaunchMode::Parallel;
        }
        let estimated = jobs as u64 * waves as u64 * pk.len() as u64;
        if estimated >= self.config.parallel_min_work && host_threads() > 1 {
            LaunchMode::Parallel
        } else {
            LaunchMode::Serial
        }
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

    /// Launches `waves` wavefronts of a batch of jobs — same kernel,
    /// same wave count, per-job scalar arguments and device memory —
    /// amortizing the dispatch front-end (one predecode-cache lookup
    /// for the whole batch) and, when [`Engine::batch_mode`] resolves
    /// to [`LaunchMode::Parallel`], partitioning whole jobs over one
    /// worker thread per CU. Each worker runs its jobs directly against
    /// their memories — no write-log merge on the hot path; an undo log
    /// per job handles the rare fault rollback.
    ///
    /// Every job's stats, memory image and coverage contribution are
    /// identical to issuing the launches one [`Engine::launch`] at a
    /// time — only host-side cache traffic and threading differ (and
    /// [`LaunchStats::mode`]; compare [`LaunchStats::work`]).
    ///
    /// # Errors
    ///
    /// Returns the first failing job's [`ExecError`] (lowest job
    /// index); earlier jobs' effects are applied, later jobs are rolled
    /// back or never run (exactly like issuing the launches in
    /// sequence).
    pub fn launch_batch<'m, I>(
        &mut self,
        kernel: &Kernel,
        waves: usize,
        jobs: I,
    ) -> Result<Vec<LaunchStats>, ExecError>
    where
        I: IntoIterator<Item = (&'m [u32], &'m mut GpuMemory)>,
    {
        let pk = self.predecode(kernel);
        let mut jobs: Vec<(&[u32], &mut GpuMemory)> = jobs.into_iter().collect();
        match self.batch_mode(&pk, waves, jobs.len()) {
            LaunchMode::Serial => {
                let mut out = Vec::with_capacity(jobs.len());
                for (args, mem) in jobs {
                    out.push(self.launch_pre(&pk, waves, args, mem)?);
                }
                Ok(out)
            }
            LaunchMode::Parallel => self.launch_batch_partitioned(&pk, waves, &mut jobs),
        }
    }

    /// Resolves a fixed multi-kernel launch sequence into a cached
    /// [`PredecodedStream`] (see
    /// [`PredecodeCache`](crate::predecode::PredecodeStats) telemetry:
    /// a stream hit is accounted as one cache hit per stage).
    pub fn predecode_stream(&mut self, stages: &[(&Kernel, usize)]) -> Arc<PredecodedStream> {
        self.cache.get_or_stream(
            stages,
            &self.config.cost,
            self.config.retained.as_ref(),
            self.uses_superblocks(),
        )
    }

    /// Launches a fused stream of kernels back to back against the same
    /// memory and arguments — the macro-op streams the recurrent model
    /// drivers issue every event (e.g. the LSTM gate/combine pair). One
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
    /// stream-cache lookup covers the entire batch. Per job, the
    /// returned stats are one [`LaunchStats`] per stage, bit-identical
    /// to issuing per-job [`Engine::launch_stream`] (or per-stage
    /// [`Engine::launch`]) calls.
    ///
    /// Dispatch picks the cheaper of two equivalent schedules: when any
    /// stage clears [`Engine::batch_mode`]'s parallel policy, stages
    /// run in lockstep (each stage batched over all jobs, partitioned
    /// over worker threads where eligible); otherwise each job runs its
    /// whole stream back to back on the calling thread — zero per-event
    /// cache traffic and the best memory locality.
    ///
    /// # Errors
    ///
    /// Returns the first failing job's [`ExecError`] (lowest job index,
    /// earliest stage). Like [`Engine::launch_batch`], a failed batch
    /// is not failure-atomic: earlier jobs may have completed more
    /// stages than later ones, so callers should discard the batch's
    /// memories on error.
    pub fn launch_stream_batch<'m, I>(
        &mut self,
        stages: &[(&Kernel, usize)],
        jobs: I,
    ) -> Result<Vec<Vec<LaunchStats>>, ExecError>
    where
        I: IntoIterator<Item = (&'m [u32], &'m mut GpuMemory)>,
    {
        let stream = self.predecode_stream(stages);
        let mut jobs: Vec<(&[u32], &mut GpuMemory)> = jobs.into_iter().collect();
        let lockstep = stream.stages.iter().any(|(pk, waves)| {
            matches!(
                self.batch_mode(pk, *waves, jobs.len()),
                LaunchMode::Parallel
            )
        });
        if !lockstep {
            return jobs
                .into_iter()
                .map(|(args, mem)| {
                    stream
                        .stages
                        .iter()
                        .map(|(pk, waves)| self.launch_pre(pk, *waves, args, mem))
                        .collect()
                })
                .collect();
        }
        let mut per_job: Vec<Vec<LaunchStats>> = jobs
            .iter()
            .map(|_| Vec::with_capacity(stream.len()))
            .collect();
        for (pk, waves) in &stream.stages {
            let mut stage_jobs: Vec<(&[u32], &mut GpuMemory)> =
                jobs.iter_mut().map(|(a, m)| (*a, &mut **m)).collect();
            let stats = match self.batch_mode(pk, *waves, stage_jobs.len()) {
                LaunchMode::Serial => {
                    let mut out = Vec::with_capacity(stage_jobs.len());
                    for (args, mem) in stage_jobs {
                        out.push(self.launch_pre(pk, *waves, args, mem)?);
                    }
                    out
                }
                LaunchMode::Parallel => {
                    self.launch_batch_partitioned(pk, *waves, &mut stage_jobs)?
                }
            };
            for (pj, s) in per_job.iter_mut().zip(stats) {
                pj.push(s);
            }
        }
        Ok(per_job)
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
        let tier2 = self.uses_superblocks();
        let (max_cycles, proven) = self.wave_budget(pk.fingerprint());
        let chunked = self
            .attested
            .get(&pk.fingerprint())
            .is_some_and(|a| a.lane_disjoint);
        let n_cus = self.cus.len();
        let mut cu_cycles = vec![0u64; n_cus];
        let mut stats = LaunchStats {
            mode: LaunchMode::Serial,
            ..LaunchStats::default()
        };

        // Each wave keeps its global index (v0 = wave*16 + lane) no
        // matter which CU runs it, so output placement is unchanged by
        // the CU count. Tier ladder per wave: tier-3 closed form (tier-2
        // engine + proven cycle bound + a schedule for this wave index),
        // else tier-2 superblocks, else the tier-1 interpreter — any
        // precondition miss just falls one rung down.
        for wave in 0..waves {
            let cu_idx = wave % n_cus;
            let sched = if tier2 && proven {
                pk.tier3_schedule(wave)
            } else {
                None
            };
            if !tier2 {
                self.census.tier1 += 1;
            } else if sched.is_some() {
                self.census.tier3 += 1;
            } else {
                self.census.tier2 += 1;
            }
            let cu = &mut self.cus[cu_idx];
            let out = match sched {
                Some(sc) => cu.run_wave_tier3(pk, sc, args, wave, chunked, mem),
                None if tier2 => {
                    if proven {
                        cu.run_wave_super_proven(pk, args, wave, max_cycles, chunked, mem)
                    } else {
                        cu.run_wave_super(pk, args, wave, max_cycles, chunked, mem)
                    }
                }
                None => cu.run_wave_pre(pk, args, wave, max_cycles, mem),
            };
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

    /// The partitioned parallel batch path: jobs are bucketed
    /// round-robin over `min(cus, jobs)` worker threads, and each
    /// worker runs its whole jobs — all waves, in order — directly
    /// against each job's memory through an [`UndoMemory`] wrapper.
    /// There is no cross-worker memory traffic at all (distinct jobs
    /// own distinct memories by `&mut` exclusivity); the undo logs
    /// exist only so that when job *f* faults, every job with a higher
    /// index can be rolled back to its pre-launch image, reproducing
    /// the serial batch's "later jobs do not run" semantics. Per-CU
    /// cycle attribution inside each job is computed arithmetically
    /// (`wave % cus`, as the serial path would), so [`LaunchStats`] are
    /// bit-identical regardless of which worker physically ran the job.
    fn launch_batch_partitioned(
        &mut self,
        pk: &PredecodedKernel,
        waves: usize,
        jobs: &mut Vec<(&[u32], &mut GpuMemory)>,
    ) -> Result<Vec<LaunchStats>, ExecError> {
        let n_cus = self.cus.len();
        let n_jobs = jobs.len();
        let workers = n_cus.min(n_jobs);
        let tier2 = self.uses_superblocks();
        let dispatch_overhead = self.config.dispatch_overhead;
        let (max_cycles, proven) = self.wave_budget(pk.fingerprint());
        let chunked = self
            .attested
            .get(&pk.fingerprint())
            .is_some_and(|a| a.lane_disjoint);

        // Balanced partitioning: each job (in index order) goes to the
        // least-loaded worker, ties to the lowest index, weighted by the
        // proven per-wave cycle bound when one is attested (static
        // instruction count otherwise). A batch is one kernel at one
        // wave count, so every job currently weighs the same and the
        // assignment degenerates to the former round-robin — keeping
        // bucket composition (and hence fault semantics) bit-identical —
        // while heterogeneous future batches balance by proven cost.
        let per_wave_weight = self
            .attested
            .get(&pk.fingerprint())
            .map_or(pk.len() as u64, |a| a.max_wave_cycles)
            .max(1);
        let job_weight = u128::from(per_wave_weight) * waves as u128;
        let mut load = vec![0u128; workers];
        let mut buckets: Vec<Vec<(usize, &[u32], &mut GpuMemory)>> =
            (0..workers).map(|_| Vec::new()).collect();
        for (idx, (args, mem)) in jobs.drain(..).enumerate() {
            let w = (0..workers)
                .min_by_key(|&w| load[w])
                .expect("at least one worker");
            load[w] += job_weight;
            buckets[w].push((idx, args, mem));
        }

        let mut slots: Vec<Option<JobResult<'_>>> = (0..n_jobs).map(|_| None).collect();
        let worker_yields: Vec<Vec<JobResult<'_>>> = thread::scope(|s| {
            let handles: Vec<_> = self
                .cus
                .iter_mut()
                .take(workers)
                .zip(buckets)
                .map(|(cu, bucket)| {
                    s.spawn(move || {
                        let mut results = Vec::with_capacity(bucket.len());
                        for (idx, args, mem) in bucket {
                            let mut undo_mem = UndoMemory::new(&mut *mem);
                            let mut cu_cycles = vec![0u64; n_cus];
                            let mut stats = LaunchStats {
                                mode: LaunchMode::Parallel,
                                ..LaunchStats::default()
                            };
                            let mut covmask = 0u64;
                            let mut census = TierCensus::default();
                            let mut error = None;
                            for wave in 0..waves {
                                let sched = if tier2 && proven {
                                    pk.tier3_schedule(wave)
                                } else {
                                    None
                                };
                                if !tier2 {
                                    census.tier1 += 1;
                                } else if sched.is_some() {
                                    census.tier3 += 1;
                                } else {
                                    census.tier2 += 1;
                                }
                                let out = match sched {
                                    Some(sc) => cu.run_wave_tier3(
                                        pk,
                                        sc,
                                        args,
                                        wave,
                                        chunked,
                                        &mut undo_mem,
                                    ),
                                    None if tier2 => {
                                        if proven {
                                            cu.run_wave_super_proven(
                                                pk,
                                                args,
                                                wave,
                                                max_cycles,
                                                chunked,
                                                &mut undo_mem,
                                            )
                                        } else {
                                            cu.run_wave_super(
                                                pk,
                                                args,
                                                wave,
                                                max_cycles,
                                                chunked,
                                                &mut undo_mem,
                                            )
                                        }
                                    }
                                    None => {
                                        cu.run_wave_pre(pk, args, wave, max_cycles, &mut undo_mem)
                                    }
                                };
                                covmask |= out.covmask;
                                if let Some(e) = out.error {
                                    error = Some(e);
                                    break;
                                }
                                cu_cycles[wave % n_cus] += out.stats.cycles;
                                stats.instructions += out.stats.instructions;
                                stats.waves += 1;
                            }
                            stats.cycles =
                                dispatch_overhead + cu_cycles.iter().copied().max().unwrap_or(0);
                            stats.cu_cycles = cu_cycles;
                            let undo = undo_mem.into_undo_log();
                            let faulted = error.is_some();
                            results.push(JobResult {
                                idx,
                                stats,
                                covmask,
                                census,
                                undo,
                                error,
                                mem,
                            });
                            if faulted {
                                // Later jobs in this bucket would not
                                // have run serially either.
                                break;
                            }
                        }
                        results
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("batch worker panicked"))
                .collect()
        });

        for r in worker_yields.into_iter().flatten() {
            let idx = r.idx;
            slots[idx] = Some(r);
        }

        let first_fault = slots
            .iter()
            .position(|s| s.as_ref().is_some_and(|r| r.error.is_some()));

        match first_fault {
            None => {
                // All jobs ran and succeeded: merge coverage and return
                // stats in job order.
                self.observe(CORE_FEATURE_MASK);
                let mut out = Vec::with_capacity(n_jobs);
                for slot in slots {
                    let r = slot.expect("every job ran in the no-fault case");
                    self.observe(r.covmask);
                    self.census.merge(r.census);
                    out.push(r.stats);
                }
                Ok(out)
            }
            Some(f) => {
                // Serial semantics: jobs 0..f fully applied, job f's
                // partial effects (including the faulting wave's lane
                // stores) applied, jobs after f never happened.
                let mut first_err = None;
                for slot in slots {
                    let Some(r) = slot else { continue };
                    if r.idx <= f {
                        self.observe(CORE_FEATURE_MASK);
                        self.observe(r.covmask);
                        self.census.merge(r.census);
                        if r.idx == f {
                            first_err = r.error;
                        }
                    } else {
                        UndoMemory::rollback(r.mem, &r.undo);
                    }
                }
                Err(first_err.expect("job f faulted"))
            }
        }
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
        assert!(ml.uses_superblocks(), "serving engine takes tier 2");
        let mut mem2 = GpuMemory::new(1024);
        ml.launch(&store_kernel(), 1, &[0], &mut mem2).unwrap();

        // A kernel using an untrimmed-away transcendental traps.
        let exp = assemble("v_exp_f32 v1, 1.0\ns_endpgm").unwrap();
        let err = ml.launch(&exp, 1, &[], &mut mem2).unwrap_err();
        assert!(matches!(err, ExecError::TrimmedFeature { .. }));
    }

    #[test]
    fn superblock_launch_matches_interpreter_bit_for_bit() {
        let kernel = store_kernel();
        let waves = 9;

        let mut t1_cfg = EngineConfig::miaow();
        t1_cfg.cus = 3;
        assert!(t1_cfg.observe_coverage, "profiler interprets");
        let mut t2_cfg = t1_cfg.clone();
        t2_cfg.observe_coverage = false;

        let mut t1 = Engine::new(t1_cfg);
        let mut t2 = Engine::new(t2_cfg);
        assert!(!t1.uses_superblocks());
        assert!(t2.uses_superblocks());
        let mut m1 = GpuMemory::new(waves * 16 * 4);
        let mut m2 = GpuMemory::new(waves * 16 * 4);
        let s1 = t1.launch(&kernel, waves, &[0], &mut m1).unwrap();
        let s2 = t2.launch(&kernel, waves, &[0], &mut m2).unwrap();

        assert_eq!(m1, m2);
        assert_eq!(s1, s2, "stats including cycle accounting");
        assert_eq!(t1.observed_coverage(), t2.observed_coverage());
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

    type BatchSide = (Result<Vec<LaunchStats>, ExecError>, Vec<GpuMemory>, Engine);

    /// Runs the same batch on a serial-reference engine and a
    /// forced-parallel engine; returns ((serial stats, serial mems),
    /// (parallel stats, parallel mems), engines) for comparison.
    fn run_batch_both_ways(
        kernel: &Kernel,
        waves: usize,
        per_job_args: &[Vec<u32>],
        mem_size: usize,
    ) -> (BatchSide, BatchSide) {
        let mut serial_cfg = EngineConfig::miaow();
        serial_cfg.cus = 5;
        serial_cfg.observe_coverage = false;
        let mut parallel_cfg = serial_cfg.clone();
        parallel_cfg.parallel = true;
        parallel_cfg.parallel_min_work = 0; // force the partitioned path

        let mut se = Engine::new(serial_cfg);
        let mut pe = Engine::new(parallel_cfg);
        let mut smems: Vec<GpuMemory> = per_job_args
            .iter()
            .map(|_| GpuMemory::new(mem_size))
            .collect();
        let mut pmems: Vec<GpuMemory> = per_job_args
            .iter()
            .map(|_| GpuMemory::new(mem_size))
            .collect();

        let sjobs: Vec<(&[u32], &mut GpuMemory)> = per_job_args
            .iter()
            .zip(smems.iter_mut())
            .map(|(a, m)| (a.as_slice(), m))
            .collect();
        let pjobs: Vec<(&[u32], &mut GpuMemory)> = per_job_args
            .iter()
            .zip(pmems.iter_mut())
            .map(|(a, m)| (a.as_slice(), m))
            .collect();

        let ss = se.launch_batch(kernel, waves, sjobs);
        let ps = pe.launch_batch(kernel, waves, pjobs);
        ((ss, smems, se), (ps, pmems, pe))
    }

    #[test]
    fn partitioned_batch_matches_serial_bit_for_bit() {
        let kernel = store_kernel();
        let waves = 3;
        let args: Vec<Vec<u32>> = (0..7).map(|_| vec![0u32]).collect(); // 7 jobs, not a multiple of 5 CUs

        let ((ss, smems, se), (ps, pmems, pe)) =
            run_batch_both_ways(&kernel, waves, &args, waves * 16 * 4);
        let ss = ss.unwrap();
        let ps = ps.unwrap();

        assert_eq!(smems, pmems);
        assert!(ss.iter().all(|s| s.mode == LaunchMode::Serial));
        assert!(ps.iter().all(|s| s.mode == LaunchMode::Parallel));
        assert_eq!(ss.len(), ps.len());
        for (a, b) in ss.iter().zip(&ps) {
            assert_eq!(
                a.work(),
                b.work(),
                "cycles, instructions, waves and per-CU busy cycles"
            );
        }
        assert_eq!(se.observed_coverage(), pe.observed_coverage());
    }

    #[test]
    fn partitioned_batch_fault_rolls_back_later_jobs() {
        // Job 2 of 6 gets an out-of-range store base: the batch must
        // fail with job 2's BadAddress, jobs 0-1 fully applied, job 2's
        // pre-fault lane stores applied, jobs 3-5 restored to their
        // pre-launch (zeroed) images — exactly like the serial batch.
        let kernel = store_kernel();
        let waves = 2;
        let mem_size = waves * 16 * 4;
        let args: Vec<Vec<u32>> = (0..6)
            .map(|j| vec![if j == 2 { mem_size as u32 } else { 0u32 }])
            .collect();

        let ((ss, smems, se), (ps, pmems, pe)) =
            run_batch_both_ways(&kernel, waves, &args, mem_size);
        let serr = ss.unwrap_err();
        let perr = ps.unwrap_err();

        assert_eq!(serr, perr);
        assert!(matches!(serr, ExecError::BadAddress { .. }));
        assert_eq!(smems, pmems, "prefix applied, suffix rolled back");
        // Later jobs really are untouched, not merely equal-but-dirty.
        assert_eq!(pmems[4], GpuMemory::new(mem_size));
        assert_eq!(se.observed_coverage(), pe.observed_coverage());
    }

    #[test]
    fn auto_mode_falls_back_to_serial_for_small_batches() {
        // 2 jobs × 3 waves × 4 instructions = 24 work units, far below
        // any table entry of the threshold policy: a parallel-enabled
        // engine must choose the serial batch path (the BENCH_pr2/pr4
        // regression case).
        let kernel = store_kernel();
        let mut cfg = EngineConfig::miaow();
        cfg.cus = 5;
        cfg.parallel = true;
        assert_eq!(cfg.parallel_min_work, default_parallel_min_work());
        assert_eq!(
            parallel_min_work_for_threads(1),
            DEFAULT_PARALLEL_MIN_WORK,
            "the measured single-core value stays the 1-thread table entry"
        );
        assert!(
            (2..=64).all(|t| {
                let bar = parallel_min_work_for_threads(t);
                (200_000..=DEFAULT_PARALLEL_MIN_WORK).contains(&bar)
            }),
            "wider hosts step toward break-even but never below it"
        );
        let mut e = Engine::new(cfg);
        let mut mems: Vec<GpuMemory> = (0..2).map(|_| GpuMemory::new(3 * 16 * 4)).collect();
        let args = [0u32];
        let jobs: Vec<(&[u32], &mut GpuMemory)> = mems.iter_mut().map(|m| (&args[..], m)).collect();
        let stats = e.launch_batch(&kernel, 3, jobs).unwrap();
        assert!(stats.iter().all(|s| s.mode == LaunchMode::Serial));
    }

    #[test]
    fn auto_mode_engages_parallel_above_threshold_on_multicore() {
        let kernel = store_kernel();
        let mut cfg = EngineConfig::miaow();
        cfg.cus = 5;
        cfg.parallel = true;
        cfg.parallel_min_work = 8; // 4 jobs × 3 waves × 4 instrs = 48 ≥ 8
        let mut e = Engine::new(cfg);
        let mut mems: Vec<GpuMemory> = (0..4).map(|_| GpuMemory::new(3 * 16 * 4)).collect();
        let args = [0u32];
        let jobs: Vec<(&[u32], &mut GpuMemory)> = mems.iter_mut().map(|m| (&args[..], m)).collect();
        let stats = e.launch_batch(&kernel, 3, jobs).unwrap();
        // On a single-threaded host the threshold still resolves to
        // serial — the whole point of the auto fallback.
        let expect = if super::host_threads() > 1 {
            LaunchMode::Parallel
        } else {
            LaunchMode::Serial
        };
        assert!(stats.iter().all(|s| s.mode == expect));
    }

    #[test]
    fn lds_write_kernels_stay_on_the_serial_batch_path() {
        // ds_write mutates per-CU LDS replicas; whole-job partitioning
        // would leave replicas inconsistent, so the gate must force
        // serial even when parallelism is forced by threshold 0.
        let kernel = assemble(
            r#"
            v_lshl_b32 v1, v0, 2
            v_cvt_f32_i32 v2, v0
            ds_write_b32 v1, v2
            s_endpgm
        "#,
        )
        .unwrap();
        let mut cfg = EngineConfig::miaow();
        cfg.cus = 5;
        cfg.parallel = true;
        cfg.parallel_min_work = 0;
        let mut e = Engine::new(cfg);
        let mut mems: Vec<GpuMemory> = (0..4).map(|_| GpuMemory::new(1024)).collect();
        let args: [u32; 0] = [];
        let jobs: Vec<(&[u32], &mut GpuMemory)> = mems.iter_mut().map(|m| (&args[..], m)).collect();
        let stats = e.launch_batch(&kernel, 2, jobs).unwrap();
        assert!(stats.iter().all(|s| s.mode == LaunchMode::Serial));
    }

    #[test]
    fn launch_batch_matches_individual_launches() {
        let kernel = store_kernel();
        let waves = 3;
        let jobs = 4;

        // Reference: one launch per job on a fresh engine.
        let mut re = Engine::new(EngineConfig::miaow());
        let mut ref_mems: Vec<GpuMemory> =
            (0..jobs).map(|_| GpuMemory::new(waves * 16 * 4)).collect();
        let mut ref_stats = Vec::new();
        for mem in &mut ref_mems {
            ref_stats.push(re.launch(&kernel, waves, &[0], mem).unwrap());
        }

        let mut be = Engine::new(EngineConfig::miaow());
        let mut mems: Vec<GpuMemory> = (0..jobs).map(|_| GpuMemory::new(waves * 16 * 4)).collect();
        let args = [0u32];
        let batch_jobs: Vec<(&[u32], &mut GpuMemory)> =
            mems.iter_mut().map(|m| (&args[..], m)).collect();
        let batch_stats = be.launch_batch(&kernel, waves, batch_jobs).unwrap();

        assert_eq!(batch_stats, ref_stats);
        assert_eq!(mems, ref_mems);
        assert_eq!(re.observed_coverage(), be.observed_coverage());
        // The whole batch cost one cache lookup, not one per job.
        let rs = re.predecode_stats();
        let bs = be.predecode_stats();
        assert_eq!((rs.hits, rs.misses), (jobs as u64 - 1, 1));
        assert_eq!((bs.hits, bs.misses), (0, 1));
    }

    #[test]
    fn attested_budget_launches_are_bit_identical() {
        // A tier-2 engine running on a proven (derived) watchdog budget
        // must match an unattested engine in memory, stats and
        // coverage — the proven fast path only skips comparisons that
        // could never fire.
        let kernel = store_kernel();
        let waves = 9;
        let mut cfg = EngineConfig::miaow();
        cfg.cus = 3;
        cfg.observe_coverage = false; // tier-2 fast path
        let mut plain = Engine::new(cfg.clone());
        let mut attested = Engine::new(cfg);
        attested.attest(
            kernel.fingerprint(),
            KernelAttestation {
                max_wave_cycles: 1_000, // a true bound for this kernel
                lane_disjoint: true,
            },
        );
        assert!(attested.lane_chunkable(&kernel));
        assert!(!plain.lane_chunkable(&kernel));

        let mut m1 = GpuMemory::new(waves * 16 * 4);
        let mut m2 = GpuMemory::new(waves * 16 * 4);
        let s1 = plain.launch(&kernel, waves, &[0], &mut m1).unwrap();
        let s2 = attested.launch(&kernel, waves, &[0], &mut m2).unwrap();
        assert_eq!(m1, m2);
        assert_eq!(s1, s2);
        assert_eq!(plain.observed_coverage(), attested.observed_coverage());
    }

    #[test]
    fn attested_batch_launches_are_bit_identical() {
        let kernel = store_kernel();
        let waves = 3;
        let args: Vec<Vec<u32>> = (0..7).map(|_| vec![0u32]).collect();
        let ((ss, smems, _), _) = run_batch_both_ways(&kernel, waves, &args, waves * 16 * 4);
        let ss = ss.unwrap();

        // Same forced-parallel batch, with an attested budget.
        let mut cfg = EngineConfig::miaow();
        cfg.cus = 5;
        cfg.observe_coverage = false;
        cfg.parallel = true;
        cfg.parallel_min_work = 0;
        let mut e = Engine::new(cfg);
        e.attest(
            kernel.fingerprint(),
            KernelAttestation {
                max_wave_cycles: 1_000,
                lane_disjoint: true,
            },
        );
        let mut mems: Vec<GpuMemory> = args
            .iter()
            .map(|_| GpuMemory::new(waves * 16 * 4))
            .collect();
        let jobs: Vec<(&[u32], &mut GpuMemory)> = args
            .iter()
            .zip(mems.iter_mut())
            .map(|(a, m)| (a.as_slice(), m))
            .collect();
        let ps = e.launch_batch(&kernel, waves, jobs).unwrap();

        assert_eq!(smems, mems);
        assert_eq!(ss.len(), ps.len());
        for (a, b) in ss.iter().zip(&ps) {
            assert_eq!(a.work(), b.work());
        }
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
    fn tier_census_tracks_dispatch_and_deattest_falls_back() {
        let kernel = store_kernel();
        let mut mem = GpuMemory::new(2 * 16 * 4);

        // Coverage-observing profiler: every wave on tier 1.
        let mut prof = Engine::new(EngineConfig::miaow());
        prof.launch(&kernel, 2, &[0], &mut mem).unwrap();
        assert_eq!(
            prof.tier_census(),
            TierCensus {
                tier1: 2,
                tier2: 0,
                tier3: 0
            }
        );

        // Tier-2 serving engine without a certificate.
        let mut cfg = EngineConfig::miaow();
        cfg.observe_coverage = false;
        let mut t2 = Engine::new(cfg.clone());
        t2.launch(&kernel, 2, &[0], &mut mem).unwrap();
        assert_eq!(
            t2.tier_census(),
            TierCensus {
                tier1: 0,
                tier2: 2,
                tier3: 0
            }
        );

        // Attested proven bound: straight-line kernel goes tier-3.
        let mut t3 = Engine::new(cfg);
        t3.attest(
            kernel.fingerprint(),
            KernelAttestation {
                max_wave_cycles: 1_000,
                lane_disjoint: true,
            },
        );
        t3.launch(&kernel, 2, &[0], &mut mem).unwrap();
        assert_eq!(
            t3.tier_census(),
            TierCensus {
                tier1: 0,
                tier2: 0,
                tier3: 2
            }
        );

        // Revoking the certificate drops subsequent launches back to
        // tier 2 — the fallback ladder, observable through the census.
        assert!(t3.deattest(kernel.fingerprint()).is_some());
        t3.launch(&kernel, 2, &[0], &mut mem).unwrap();
        assert_eq!(
            t3.tier_census(),
            TierCensus {
                tier1: 0,
                tier2: 2,
                tier3: 2
            }
        );
        t3.reset_tier_census();
        assert_eq!(t3.tier_census().total(), 0);
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
