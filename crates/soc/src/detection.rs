//! Fig. 8: end-to-end anomaly detection latency.
//!
//! One [`DetectionRun`] is the whole paper loop for a benchmark:
//!
//! 1. **Collect training data** — RTAD "can help to collect data for
//!    training models by running the target application in advance and
//!    extracting the branch traces" (§III-C): a profiling run derives
//!    the IGM address table (syscall table for the ELM, branch
//!    watchlist for the LSTM) and the training event streams.
//! 2. **Train** — the host trains the model on normal events only, and
//!    calibrates the detection threshold on held-out normal data.
//! 3. **Deploy** — the model is compiled to MIAOW kernels, coverage is
//!    profiled, the trim plan built, per-event cycles measured on the
//!    engine variant under test, and the threshold loaded into the
//!    device's compare stage.
//! 4. **Attack** — an attack burst is spliced into a fresh run; the
//!    trace goes through the *full hardware pipeline* (PTM FIFO → TPIU
//!    → IGM → MCM → engine); detection latency is the time from the
//!    first anomalous branch's retirement to the MCM's interrupt.
//!
//! The engine comparison (MIAOW's single CU vs ML-MIAOW's five) enters
//! through the measured per-event cycles; scores come from the host
//! model, which `rtad-ml`'s kernel tests prove equivalent to the device.

use serde::{Deserialize, Serialize};

use rtad_igm::{Igm, IgmConfig, TimedVector, VectorFormat, VectorPayload};
use rtad_mcm::{Mcm, McmConfig};
use rtad_ml::{
    calibrate_threshold, Elm, ElmConfig, ElmDevice, Lstm, LstmConfig, LstmDevice, SequenceModel,
    ThresholdPolicy, VectorModel,
};
use rtad_sim::Picos;
use rtad_trace::{BranchRecord, PtmConfig, StreamEncoder};
use rtad_workloads::{AttackInjector, AttackSpec, Benchmark, ProgramModel};

use crate::backend::{
    measure_elm_cycles, measure_lstm_cycles, profile_trim_plan, EngineKind, HybridBackend,
    PayloadScorer, SequenceBackendModel, VectorBackendModel,
};
use crate::watchlist::{build_lstm_table, syscall_table, WatchlistSpec};

/// Which ML model runs on the MLPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ModelKind {
    /// Extreme Learning Machine over syscall histograms.
    Elm,
    /// LSTM over watchlisted branch tokens.
    Lstm,
}

impl std::fmt::Display for ModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelKind::Elm => write!(f, "ELM"),
            ModelKind::Lstm => write!(f, "LSTM"),
        }
    }
}

/// Parameters of one detection experiment.
#[derive(Debug, Clone)]
pub struct DetectionConfig {
    /// The workload.
    pub bench: Benchmark,
    /// The model.
    pub model: ModelKind,
    /// The engine variant.
    pub engine: EngineKind,
    /// Branches in the profiling/training run.
    pub train_branches: usize,
    /// Branches before the attack in the test run.
    pub pre_attack_branches: usize,
    /// Branches after the attack burst.
    pub post_attack_branches: usize,
    /// Attack burst length.
    pub attack_burst: usize,
    /// Master seed.
    pub seed: u64,
    /// Threshold calibration policy.
    pub policy: ThresholdPolicy,
    /// EMA smoothing factor applied to scores before the threshold
    /// compare (both at calibration and at run time); 1.0 disables.
    pub smoothing_alpha: f64,
    /// Burst detector: flag after `burst_k` above-threshold events
    /// arrive within `burst_window` of each other.
    pub burst_k: usize,
    /// See [`DetectionConfig::burst_k`].
    pub burst_window: Picos,
    /// Hard-threshold margin over the validation *maximum*: one event
    /// scoring above `hard_margin * max(validation)` flags immediately.
    /// 0 disables the hard path.
    pub hard_margin: f64,
}

impl DetectionConfig {
    /// The Fig. 8 defaults for one (benchmark, model, engine) cell.
    pub fn fig8(bench: Benchmark, model: ModelKind, engine: EngineKind) -> Self {
        DetectionConfig {
            bench,
            model,
            engine,
            train_branches: 1_200_000,
            pre_attack_branches: 30_000,
            post_attack_branches: 8_000,
            attack_burst: 256,
            seed: 0xF18,
            policy: ThresholdPolicy::Quantile {
                quantile: 0.95,
                margin: 1.1,
            },
            smoothing_alpha: 1.0,
            burst_k: 2,
            burst_window: Picos::from_micros(25),
            hard_margin: 1.6,
        }
    }
}

/// The outcome of one detection experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DetectionOutcome {
    /// Whether the attack was detected at all.
    pub detected: bool,
    /// Retirement-to-interrupt latency of the detection.
    pub latency: Option<Picos>,
    /// Inference events processed in the whole run.
    pub events: usize,
    /// Events lost to MCM FIFO overflow (the paper's omnetpp symptom).
    pub mcm_overflow: u64,
    /// Per-event engine cycles on the configured variant.
    pub cycles_per_event: u64,
    /// Whether any interrupt fired before the attack (false positive).
    pub false_positive: bool,
    /// The calibrated threshold.
    pub threshold: f64,
}

/// One fully-prepared experiment, reusable across engine variants.
pub struct DetectionRun {
    config: DetectionConfig,
    igm_config: IgmConfig,
    scorer: ScorerKind,
    threshold: f64,
    hard_threshold: f64,
    cycles_per_event: u64,
    attack_trace: Vec<BranchRecord>,
    attack_cycle: u64,
}

#[derive(Clone)]
enum ScorerKind {
    Elm(Elm),
    Lstm(Lstm),
}

/// The engine-independent part of a detection experiment: profiling,
/// training, threshold calibration, device compilation, trim planning
/// and attack-trace synthesis. Everything here is a function of
/// `(bench, model, seed, ...)` only — the engine variant enters solely
/// through the per-event cycle measurement, so one preparation serves
/// every engine column of the Fig. 8 matrix via
/// [`PreparedDetection::run_for`]. This is what makes the batched sweep
/// runner fast: preparation (dominated by host training) happens once
/// per (benchmark, model) instead of once per matrix cell, with
/// bit-identical outcomes because every step is seed-deterministic.
pub struct PreparedDetection {
    config: DetectionConfig,
    igm_config: IgmConfig,
    scorer: ScorerKind,
    threshold: f64,
    hard_threshold: f64,
    elm_dev: ElmDevice,
    lstm_dev: LstmDevice,
    plan: rtad_miaow::TrimPlan,
    attack_trace: Vec<BranchRecord>,
    attack_cycle: u64,
}

impl PreparedDetection {
    /// Runs every engine-independent preparation step (train, calibrate,
    /// compile, trim-plan, synthesize the attacked trace). `config.engine`
    /// is recorded but does not influence anything computed here.
    ///
    /// # Panics
    ///
    /// Panics if the training run yields too few events to train on
    /// (raise `train_branches`).
    pub fn prepare(config: DetectionConfig) -> Self {
        let model = ProgramModel::build(config.bench, config.seed);
        // The ELM needs hundreds of *syscall* events, which are 10^3-10^4
        // branches apart; size its runs by the benchmark's interval.
        let (train_len, validate_len) = match config.model {
            ModelKind::Elm => {
                let per_event = model.profile().syscall_interval;
                (
                    ((per_event * 240.0) as usize).max(config.train_branches),
                    ((per_event * 80.0) as usize).max(config.train_branches / 4),
                )
            }
            // Watchlist hits are ~0.05% of branches; the LSTM needs a
            // few hundred tokens, i.e. ~10^6 profiled branches.
            ModelKind::Lstm => (config.train_branches, config.train_branches / 4),
        };
        let profile_run = model.generate(train_len, config.seed ^ 1);
        let validate_run = model.generate(validate_len, config.seed ^ 2);

        // IGM table + host training per model kind.
        let (igm_config, scorer, (threshold, hard_threshold)) = match config.model {
            ModelKind::Elm => {
                let table = syscall_table(&model);
                let igm_config = IgmConfig::histogram(&table, 16);
                let train = functional_vectors(&igm_config, &profile_run);
                let train: Vec<Vec<f32>> = train
                    .into_iter()
                    .filter_map(|p| p.as_dense().map(<[f32]>::to_vec))
                    .collect();
                assert!(
                    train.len() >= 32,
                    "only {} syscall events in the training run; raise train_branches",
                    train.len()
                );
                let elm = Elm::train(&ElmConfig::rtad(), &train, config.seed ^ 3);

                let val = functional_vectors(&igm_config, &validate_run);
                let scores: Vec<f64> = val
                    .iter()
                    .filter_map(|p| p.as_dense().map(|v| elm.score(v)))
                    .collect();
                assert!(!scores.is_empty(), "validation produced no events");
                let smoothed = smooth(&scores, config.smoothing_alpha);
                let threshold = calibrate_threshold(&smoothed, config.policy);
                let hard = hard_threshold(&smoothed, config.hard_margin);
                (igm_config, ScorerKind::Elm(elm), (threshold, hard))
            }
            ModelKind::Lstm => {
                let table = build_lstm_table(&model, &profile_run, WatchlistSpec::rtad());
                let igm_config = IgmConfig::token_stream_table(table.entries.clone());
                let tokens: Vec<u32> = functional_vectors(&igm_config, &profile_run)
                    .into_iter()
                    .filter_map(|p| p.as_token())
                    .collect();
                assert!(
                    tokens.len() >= 64,
                    "only {} watchlist events in the training run; raise train_branches",
                    tokens.len()
                );
                // Watchlist corpora are thin (a fraction of a percent of
                // the branches); scale epochs so unseen-token logits get
                // pushed down regardless of corpus length.
                let mut lstm_cfg = LstmConfig::rtad();
                lstm_cfg.vocab = table.vocab;
                lstm_cfg.epochs = (60_000 / tokens.len().max(1)).clamp(4, 80);
                if tokens.len() < 2_000 {
                    lstm_cfg.lr = 1.5e-2;
                }
                let lstm = Lstm::train(&lstm_cfg, &tokens, config.seed ^ 3);

                let mut val_model = lstm.clone();
                val_model.reset();
                let scores: Vec<f64> = functional_vectors(&igm_config, &validate_run)
                    .into_iter()
                    .filter_map(|p| p.as_token())
                    .map(|t| val_model.score_next(t))
                    .collect();
                assert!(!scores.is_empty(), "validation produced no events");
                let smoothed = smooth(&scores, config.smoothing_alpha);
                let threshold = calibrate_threshold(&smoothed, config.policy);
                let hard = hard_threshold(&smoothed, config.hard_margin);
                (igm_config, ScorerKind::Lstm(lstm), (threshold, hard))
            }
        };

        // Device compilation + trim plan. The trim plan merges both
        // deployed models' coverage ("we consider simultaneous trimming
        // for multiple applications", §II). Per-event cycles are
        // engine-dependent and measured in [`PreparedDetection::run_for`].
        let aux_elm = {
            // A representative ELM for the merged-coverage profile
            // when the run under test is the LSTM (and vice versa).
            let data: Vec<Vec<f32>> = (0..40)
                .map(|i| {
                    let mut v = vec![0.0; 16];
                    v[i % 4] = 1.0;
                    v
                })
                .collect();
            Elm::train(&ElmConfig::rtad(), &data, 7)
        };
        let aux_lstm = {
            let corpus: Vec<u32> = (0..300).map(|i| (i % 16) as u32).collect();
            let mut c = LstmConfig::rtad();
            c.epochs = 1;
            Lstm::train(&c, &corpus, 7)
        };
        let (elm_dev, lstm_dev) = match &scorer {
            ScorerKind::Elm(elm) => (ElmDevice::compile(elm), LstmDevice::compile(&aux_lstm)),
            ScorerKind::Lstm(lstm) => (ElmDevice::compile(&aux_elm), LstmDevice::compile(lstm)),
        };
        let plan = profile_trim_plan(&elm_dev, &lstm_dev);

        // The attacked test trace.
        let normal = model.generate(
            config.pre_attack_branches + config.post_attack_branches,
            config.seed ^ 4,
        );
        let injector = AttackInjector::new(&model, config.seed ^ 5);
        let attacked = injector.inject(
            &normal,
            AttackSpec {
                position: config.pre_attack_branches,
                burst_len: config.attack_burst,
                ..AttackSpec::default()
            },
        );

        PreparedDetection {
            config,
            igm_config,
            scorer,
            threshold,
            hard_threshold,
            elm_dev,
            lstm_dev,
            plan,
            attack_cycle: attacked.attack_cycle,
            attack_trace: attacked.records,
        }
    }

    /// Specializes this preparation to one engine variant by measuring
    /// the per-event cycle cost on it — the only engine-dependent step.
    /// Calling this for each [`EngineKind`] yields exactly the runs
    /// `DetectionRun::prepare` would have produced cell by cell.
    pub fn run_for(&self, engine: EngineKind) -> DetectionRun {
        let engine_config = engine.engine_config(&self.plan);
        let cycles_per_event = match self.config.model {
            ModelKind::Elm => measure_elm_cycles(&self.elm_dev, engine_config),
            ModelKind::Lstm => measure_lstm_cycles(&self.lstm_dev, engine_config),
        };
        DetectionRun {
            config: DetectionConfig {
                engine,
                ..self.config.clone()
            },
            igm_config: self.igm_config.clone(),
            scorer: self.scorer.clone(),
            threshold: self.threshold,
            hard_threshold: self.hard_threshold,
            cycles_per_event,
            attack_trace: self.attack_trace.clone(),
            attack_cycle: self.attack_cycle,
        }
    }
}

impl DetectionRun {
    /// Prepares the experiment: trains, calibrates, compiles, measures.
    /// Equivalent to `PreparedDetection::prepare(config).run_for(engine)`;
    /// sweeps over several engines should use [`PreparedDetection`]
    /// directly and share the preparation.
    ///
    /// # Panics
    ///
    /// Panics if the training run yields too few events to train on
    /// (raise `train_branches`).
    pub fn prepare(config: DetectionConfig) -> Self {
        let engine = config.engine;
        PreparedDetection::prepare(config).run_for(engine)
    }

    /// The calibrated threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Raw (unsmoothed) host-model scores of every event in the attacked
    /// trace, with the event's branch cycle — diagnostic support for
    /// threshold calibration studies.
    pub fn event_scores(&self) -> Vec<(u64, f64)> {
        let mapper = rtad_igm::AddressMapper::from_entries(self.igm_config.table.iter().copied());
        let mut encoder =
            rtad_igm::VectorEncoder::new(self.igm_config.format, mapper.vocab_size().max(1));
        let mut scorer: Box<dyn FnMut(&VectorPayload) -> f64> = match &self.scorer {
            ScorerKind::Elm(elm) => {
                let elm = elm.clone();
                Box::new(move |p| elm.score(p.as_dense().expect("dense")))
            }
            ScorerKind::Lstm(lstm) => {
                let mut m = lstm.clone();
                m.reset();
                Box::new(move |p| m.score_next(p.as_token().expect("token")))
            }
        };
        self.attack_trace
            .iter()
            .filter_map(|r| {
                mapper.map(r.target).map(|token| {
                    let payload = encoder.encode(token);
                    (r.cycle, scorer(&payload))
                })
            })
            .collect()
    }

    /// The cycle of the first anomalous branch.
    pub fn attack_cycle(&self) -> u64 {
        self.attack_cycle
    }

    /// Per-event engine cycles on the configured variant.
    pub fn cycles_per_event(&self) -> u64 {
        self.cycles_per_event
    }

    /// Exports this prepared experiment as a serving-plane spec:
    /// the same IGM table/format, the same trained model, the same
    /// calibrated thresholds and smoothing, and the same measured
    /// per-event cycles. The timed burst window does not transfer to
    /// the untimed streaming path, so the caller chooses the
    /// event-count window (`burst_window_events`) that replaces it.
    pub fn serve_spec(&self, burst_window_events: u64) -> crate::serve::ServeSpec {
        use crate::serve::{ServeModel, ServeSpec, VerdictPolicy};
        ServeSpec {
            igm: self.igm_config.clone(),
            model: match &self.scorer {
                ScorerKind::Elm(elm) => ServeModel::Elm(elm.clone()),
                ScorerKind::Lstm(lstm) => ServeModel::Lstm(lstm.clone()),
            },
            policy: VerdictPolicy {
                threshold: self.threshold,
                hard_threshold: self.hard_threshold,
                alpha: self.config.smoothing_alpha,
                burst_k: self.config.burst_k,
                burst_window_events,
            },
            cycles_per_event: self.cycles_per_event,
        }
    }

    /// Runs the attacked trace through the full hardware pipeline and
    /// measures detection.
    pub fn execute(&self) -> DetectionOutcome {
        let ptm = PtmConfig::rtad();
        let cpu = ptm.cpu_clock.clone();
        let attack_time = cpu.cycles_to_picos(self.attack_cycle);

        // PTM/TPIU hardware path.
        let mut encoder = StreamEncoder::new(ptm);
        let trace = encoder.encode_run(&self.attack_trace);

        // IGM.
        let mut igm = Igm::new(self.igm_config.clone());
        let vectors: Vec<TimedVector> = igm.process_trace(&trace).vectors;

        // MCM + engine backend.
        let run = match &self.scorer {
            ScorerKind::Elm(elm) => {
                let backend = HybridBackend::new(
                    VectorBackendModel(elm.clone()),
                    self.threshold,
                    self.cycles_per_event,
                )
                .with_smoothing(self.config.smoothing_alpha)
                .with_burst_detector(self.config.burst_k, self.config.burst_window)
                .with_hard_threshold(self.hard_threshold);
                Mcm::new(McmConfig::rtad(), backend).run(&vectors)
            }
            ScorerKind::Lstm(lstm) => {
                let mut m = lstm.clone();
                m.reset();
                let mut backend = HybridBackend::new(
                    SequenceBackendModel(m),
                    self.threshold,
                    self.cycles_per_event,
                )
                .with_smoothing(self.config.smoothing_alpha)
                .with_burst_detector(self.config.burst_k, self.config.burst_window)
                .with_hard_threshold(self.hard_threshold);
                backend.scorer_mut().reset();
                Mcm::new(McmConfig::rtad(), backend).run(&vectors)
            }
        };

        let false_positive = run.interrupts.iter().any(|&t| t < attack_time);
        let detection = run.interrupts.iter().find(|&&t| t >= attack_time).copied();

        DetectionOutcome {
            detected: detection.is_some(),
            latency: detection.map(|t| t.saturating_sub(attack_time)),
            events: run.events.len(),
            mcm_overflow: run.fifo.dropped,
            cycles_per_event: self.cycles_per_event,
            false_positive,
            threshold: self.threshold,
        }
    }
}

/// The hard (single-event) threshold: a margin over the validation
/// maximum; disabled when the margin is zero.
fn hard_threshold(validation: &[f64], margin: f64) -> f64 {
    if margin <= 0.0 {
        return f64::INFINITY;
    }
    validation.iter().copied().fold(0.0f64, f64::max) * margin
}

/// Applies the experiment's EMA to a score sequence (threshold
/// calibration must see the same statistic the runtime compares).
fn smooth(scores: &[f64], alpha: f64) -> Vec<f64> {
    let mut ema = None;
    scores
        .iter()
        .map(|&s| {
            let v = match ema {
                None => s,
                Some(p) => alpha * s + (1.0 - alpha) * p,
            };
            ema = Some(v);
            v
        })
        .collect()
}

/// Functional (untimed) IGM equivalent: mapper + encoder over raw
/// records — used to build training/validation event streams without
/// paying for PTM encoding of multi-hundred-thousand-branch runs. The
/// timed path is exercised by [`DetectionRun::execute`] and proven
/// equivalent by the `igm` crate's tests.
pub fn functional_vectors(config: &IgmConfig, records: &[BranchRecord]) -> Vec<VectorPayload> {
    use rtad_igm::{AddressMapper, VectorEncoder};
    let mapper = AddressMapper::from_entries(config.table.iter().copied());
    let mut encoder = VectorEncoder::new(config.format, mapper.vocab_size().max(1));
    records
        .iter()
        .filter_map(|r| mapper.map(r.target).map(|token| encoder.encode(token)))
        .collect()
}

/// Returns true when `format` produces dense payloads.
pub fn is_dense(format: VectorFormat) -> bool {
    matches!(format, VectorFormat::WindowHistogram { .. })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config(model: ModelKind, engine: EngineKind) -> DetectionConfig {
        DetectionConfig {
            train_branches: 900_000,
            pre_attack_branches: 8_000,
            post_attack_branches: 4_000,
            attack_burst: 256,
            ..DetectionConfig::fig8(Benchmark::Gcc, model, engine)
        }
    }

    #[test]
    fn lstm_detects_attack_on_ml_miaow() {
        let run = DetectionRun::prepare(quick_config(ModelKind::Lstm, EngineKind::MlMiaow));
        let out = run.execute();
        assert!(out.detected, "attack not detected: {out:?}");
        let latency = out.latency.expect("latency present when detected");
        // Fig. 8 magnitudes: tens of microseconds, not ms.
        assert!(
            latency < Picos::from_micros(500),
            "latency {latency} out of range"
        );
    }

    #[test]
    fn elm_detects_attack_on_ml_miaow() {
        let run = DetectionRun::prepare(quick_config(ModelKind::Elm, EngineKind::MlMiaow));
        let out = run.execute();
        assert!(out.detected, "attack not detected: {out:?}");
    }

    #[test]
    fn ml_miaow_uses_fewer_cycles_than_miaow() {
        // One shared preparation serves both engine columns (the sweep
        // runner's fast path): only the measured cycles may differ.
        let prep = PreparedDetection::prepare(quick_config(ModelKind::Lstm, EngineKind::Miaow));
        let miaow = prep.run_for(EngineKind::Miaow);
        let ml = prep.run_for(EngineKind::MlMiaow);
        assert!(ml.cycles_per_event() < miaow.cycles_per_event());
        assert_eq!(miaow.threshold(), ml.threshold());
        assert_eq!(miaow.attack_cycle(), ml.attack_cycle());
    }

    #[test]
    fn no_false_positive_on_quiet_prefix() {
        let run = DetectionRun::prepare(quick_config(ModelKind::Lstm, EngineKind::MlMiaow));
        let out = run.execute();
        assert!(!out.false_positive, "pre-attack interrupt: {out:?}");
    }
}

#[cfg(test)]
mod matrix_tests {
    use super::*;
    use crate::backend::EngineKind;

    /// The remaining cell of the model x engine matrix (ELM on the
    /// original MIAOW), completing coverage of all four combinations.
    #[test]
    fn elm_detects_on_original_miaow_too() {
        let config = DetectionConfig {
            train_branches: 400_000,
            pre_attack_branches: 8_000,
            post_attack_branches: 4_000,
            attack_burst: 256,
            // Bzip2 syscalls are sparse: this short pre-attack run yields
            // a single event whose half-filled histogram window scores
            // orders of magnitude above steady state (a cold-start
            // artifact, mirrored by validation's own first window). The
            // hard threshold would compare two single draws from that
            // heavy cold-start tail; disable it so the cell asserts what
            // it is about — burst detection on the attack, no
            // steady-state false positive.
            hard_margin: 0.0,
            ..DetectionConfig::fig8(Benchmark::Bzip2, ModelKind::Elm, EngineKind::Miaow)
        };
        let run = DetectionRun::prepare(config);
        let out = run.execute();
        assert!(out.detected, "{out:?}");
        assert!(!out.false_positive, "{out:?}");
        // The slow engine still detects, just later than ML-MIAOW would.
        assert!(out.cycles_per_event > 0);
    }
}
