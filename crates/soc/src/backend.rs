//! [`InferenceEngine`] backends: how the MCM's WAIT_DONE state gets its
//! answers.
//!
//! Two implementations:
//!
//! * [`DeviceBackend`] — the real thing: every event executes the
//!   model's kernels on a (possibly trimmed, multi-CU) MIAOW engine and
//!   both the score and the cycle count come from the simulator.
//! * [`HybridBackend`] — for long experiment sweeps: scores come from
//!   the host reference model (proven equivalent to the device by the
//!   `rtad-ml` kernel tests) while cycle counts are *measured once* on
//!   the real engine and reused. Valid because the generated kernels
//!   are data-independent: every event executes the same instruction
//!   count, so one measurement is exact for all.

use rtad_analysis::{trim_findings, Finding};
use rtad_igm::VectorPayload;
use rtad_mcm::{InferenceEngine, InferenceResult};
use rtad_miaow::{CoverageSet, Engine, EngineConfig, GpuMemory, TrimPlan};
use rtad_ml::{DeviceModel, ElmDevice, LstmDevice, SequenceModel, VectorModel};
use rtad_sim::{ClockDomain, Picos};

/// Which engine variant serves inference (the Fig. 8 comparison axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// The original open-source MIAOW: one full CU.
    Miaow,
    /// The trimmed ML-MIAOW: five CUs in the same area.
    MlMiaow,
}

impl EngineKind {
    /// Builds the engine configuration; ML-MIAOW needs the trim plan.
    pub fn engine_config(self, plan: &TrimPlan) -> EngineConfig {
        match self {
            EngineKind::Miaow => EngineConfig::miaow(),
            EngineKind::MlMiaow => EngineConfig::ml_miaow(plan),
        }
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineKind::Miaow => write!(f, "MIAOW"),
            EngineKind::MlMiaow => write!(f, "ML-MIAOW"),
        }
    }
}

/// Profiles both device models on a full MIAOW and returns the merged
/// coverage (Fig. 4 steps 1–2) as a trim plan.
pub fn profile_trim_plan(elm: &ElmDevice, lstm: &LstmDevice) -> TrimPlan {
    let mut profiler = Engine::new(EngineConfig::miaow());
    let mut mem = elm.load(&mut profiler);
    elm.infer(&mut profiler, &mut mem, &[0.05; 16])
        .expect("ELM profiles on the full engine");
    let mut mem = lstm.load(&mut profiler);
    lstm.reset(&mut mem);
    lstm.step(&mut profiler, &mut mem, 0)
        .expect("LSTM profiles on the full engine");
    let mut merged = CoverageSet::new();
    merged.merge(profiler.observed_coverage());
    TrimPlan::from_coverage(&merged)
}

/// Measures the (data-independent) per-event cycle cost of the ELM on an
/// engine variant.
pub fn measure_elm_cycles(dev: &ElmDevice, config: EngineConfig) -> u64 {
    let mut engine = Engine::new(config);
    let mut mem = dev.load(&mut engine);
    dev.infer(&mut engine, &mut mem, &[0.05; 16])
        .expect("measurement inference runs")
        .cycles
}

/// Measures the (data-independent) per-event cycle cost of one LSTM
/// step on an engine variant.
pub fn measure_lstm_cycles(dev: &LstmDevice, config: EngineConfig) -> u64 {
    let mut engine = Engine::new(config);
    let mut mem = dev.load(&mut engine);
    dev.reset(&mut mem);
    dev.step(&mut engine, &mut mem, 0)
        .expect("measurement step runs")
        .cycles
}

/// Adapts a payload to a host model's scoring interface.
pub trait PayloadScorer {
    /// Scores one event payload.
    fn score_payload(&mut self, payload: &VectorPayload) -> f64;
    /// Resets any recurrent state.
    fn reset(&mut self);
}

/// [`PayloadScorer`] over a token-stream model (the LSTM).
#[derive(Debug, Clone)]
pub struct SequenceBackendModel<M>(pub M);

impl<M: SequenceModel> PayloadScorer for SequenceBackendModel<M> {
    fn score_payload(&mut self, payload: &VectorPayload) -> f64 {
        match payload {
            VectorPayload::Token(t) => self.0.score_next(*t),
            VectorPayload::Dense(_) => {
                panic!("sequence model received a dense payload; check the IGM format")
            }
        }
    }
    fn reset(&mut self) {
        self.0.reset();
    }
}

/// [`PayloadScorer`] over a dense-vector model (ELM, MLP).
#[derive(Debug, Clone)]
pub struct VectorBackendModel<M>(pub M);

impl<M: VectorModel> PayloadScorer for VectorBackendModel<M> {
    fn score_payload(&mut self, payload: &VectorPayload) -> f64 {
        match payload {
            VectorPayload::Dense(v) => self.0.score(v),
            VectorPayload::Token(_) => {
                panic!("vector model received a token payload; check the IGM format")
            }
        }
    }
    fn reset(&mut self) {}
}

/// Host-functional, device-timed backend.
#[derive(Debug, Clone)]
pub struct HybridBackend<S> {
    scorer: S,
    threshold: f64,
    cycles_per_event: u64,
    clock: ClockDomain,
    /// EMA smoothing factor in (0, 1]; 1 = raw per-event scores.
    alpha: f64,
    ema: Option<f64>,
    /// Burst detector: flag when at least `burst_k` above-threshold
    /// events arrived within `burst_window` of each other. `k = 1` is a
    /// plain per-event compare.
    burst_k: usize,
    burst_window: Picos,
    /// Hard threshold: a single score above it flags immediately
    /// (`+inf` = disabled). Sits well above anything normal validation
    /// ever produced.
    hard_threshold: f64,
    /// Arrival times of recent above-threshold events.
    recent_hits: std::collections::VecDeque<Picos>,
}

impl<S: PayloadScorer> HybridBackend<S> {
    /// Creates a hybrid backend.
    ///
    /// `cycles_per_event` should come from [`measure_elm_cycles`] /
    /// [`measure_lstm_cycles`] on the engine variant under test.
    pub fn new(scorer: S, threshold: f64, cycles_per_event: u64) -> Self {
        HybridBackend {
            scorer,
            threshold,
            cycles_per_event,
            clock: ClockDomain::rtad_miaow(),
            alpha: 1.0,
            ema: None,
            burst_k: 1,
            burst_window: Picos::ZERO,
            hard_threshold: f64::INFINITY,
            recent_hits: std::collections::VecDeque::new(),
        }
    }

    /// Sets the hard threshold: one score above it flags on its own,
    /// without waiting for a burst. Calibrate it above the normal
    /// validation maximum (canary-class events clear it; nothing normal
    /// does).
    pub fn with_hard_threshold(mut self, hard: f64) -> Self {
        self.hard_threshold = hard;
        self
    }

    /// Requires `k` above-threshold events within `window` of arrival
    /// time before the flag fires — the interrupt manager's hysteresis
    /// counter. An isolated rare-but-normal event (a cold branch in an
    /// unseen context) looks exactly like one attack event; a gadget
    /// chain produces a *burst* of them within microseconds, which is
    /// what this separates.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn with_burst_detector(mut self, k: usize, window: Picos) -> Self {
        assert!(k >= 1, "burst detector needs k >= 1");
        self.burst_k = k;
        self.burst_window = window;
        self
    }

    /// Smooths scores with an exponential moving average before the
    /// threshold compare (the interrupt-manager-side filtering that
    /// keeps isolated rare-but-normal events from firing).
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `(0, 1]`.
    pub fn with_smoothing(mut self, alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        self.alpha = alpha;
        self
    }

    /// The scorer (e.g. to reset between traces).
    pub fn scorer_mut(&mut self) -> &mut S {
        &mut self.scorer
    }

    /// The detection threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }
}

impl<S: PayloadScorer> InferenceEngine for HybridBackend<S> {
    fn infer_event(&mut self, payload: &VectorPayload, at: Picos) -> InferenceResult {
        let score = self.scorer.score_payload(payload);
        let smoothed = match self.ema {
            None => score,
            Some(prev) => self.alpha * score + (1.0 - self.alpha) * prev,
        };
        self.ema = Some(smoothed);
        if smoothed > self.threshold {
            self.recent_hits.push_back(at);
        }
        while let Some(&front) = self.recent_hits.front() {
            if at.saturating_sub(front) > self.burst_window && self.burst_k > 1 {
                self.recent_hits.pop_front();
            } else {
                break;
            }
        }
        InferenceResult {
            score: smoothed,
            flagged: self.recent_hits.len() >= self.burst_k || smoothed > self.hard_threshold,
            engine_cycles: self.cycles_per_event,
        }
    }

    fn engine_clock(&self) -> ClockDomain {
        self.clock.clone()
    }
}

/// Fully device-executed backend.
pub enum DeviceBackend {
    /// LSTM steps on the engine.
    Lstm {
        /// The compiled device model.
        device: LstmDevice,
        /// The engine instance.
        engine: Engine,
        /// Persistent device memory (holds h/c state).
        memory: GpuMemory,
    },
    /// ELM inferences on the engine.
    Elm {
        /// The compiled device model.
        device: ElmDevice,
        /// The engine instance.
        engine: Engine,
        /// Device memory.
        memory: GpuMemory,
    },
}

/// The findings a device model's kernels raise against a retained
/// feature set (empty when the engine is untrimmed).
fn device_findings(device: &impl DeviceModel, retained: Option<&CoverageSet>) -> Vec<Finding> {
    match retained {
        None => Vec::new(),
        Some(retained) => device
            .kernels()
            .iter()
            .flat_map(|k| trim_findings(k, retained))
            .collect(),
    }
}

/// The trim-incompatibility findings `device`'s kernels raise on
/// `engine` (the proof [`DeviceBackend::try_lstm`] and
/// [`DeviceBackend::try_elm`] run at load). Kept only because the
/// repository benchmark (`perfbench/`) calls it; the engine is not
/// modified.
pub fn attest_model_kernels(device: &impl DeviceModel, engine: &mut Engine) -> Vec<Finding> {
    device_findings(device, engine.retained())
}

impl DeviceBackend {
    /// Builds an LSTM device backend, statically proving the model's
    /// kernels run trap-free on the engine variant *before* the engine
    /// is built or loaded — an incompatible trim plan is rejected here,
    /// at load time, not by a mid-stream [`rtad_miaow::ExecError`] trap.
    ///
    /// # Errors
    ///
    /// Returns the trim-incompatibility findings, each naming the
    /// missing feature, program counter and mnemonic.
    pub fn try_lstm(device: LstmDevice, config: EngineConfig) -> Result<Self, Vec<Finding>> {
        let findings = device_findings(&device, config.retained.as_ref());
        if !findings.is_empty() {
            return Err(findings);
        }
        let mut engine = Engine::new(config);
        let memory = device.load(&mut engine);
        Ok(DeviceBackend::Lstm {
            device,
            engine,
            memory,
        })
    }

    /// Builds an ELM device backend with the same load-time proof as
    /// [`DeviceBackend::try_lstm`].
    ///
    /// # Errors
    ///
    /// Returns the trim-incompatibility findings.
    pub fn try_elm(device: ElmDevice, config: EngineConfig) -> Result<Self, Vec<Finding>> {
        let findings = device_findings(&device, config.retained.as_ref());
        if !findings.is_empty() {
            return Err(findings);
        }
        let mut engine = Engine::new(config);
        let memory = device.load(&mut engine);
        Ok(DeviceBackend::Elm {
            device,
            engine,
            memory,
        })
    }

    /// Builds an LSTM device backend on an engine variant.
    ///
    /// # Panics
    ///
    /// Panics if the model's kernels are incompatible with the engine's
    /// trim plan; use [`DeviceBackend::try_lstm`] to handle that case.
    pub fn lstm(device: LstmDevice, config: EngineConfig) -> Self {
        DeviceBackend::try_lstm(device, config)
            .unwrap_or_else(|findings| panic!("LSTM kernels rejected: {findings:?}"))
    }

    /// Builds an ELM device backend on an engine variant.
    ///
    /// # Panics
    ///
    /// Panics if the model's kernels are incompatible with the engine's
    /// trim plan; use [`DeviceBackend::try_elm`] to handle that case.
    pub fn elm(device: ElmDevice, config: EngineConfig) -> Self {
        DeviceBackend::try_elm(device, config)
            .unwrap_or_else(|findings| panic!("ELM kernels rejected: {findings:?}"))
    }

    /// Resets recurrent state (LSTM) for a fresh trace.
    pub fn reset(&mut self) {
        if let DeviceBackend::Lstm { device, memory, .. } = self {
            device.reset(memory);
        }
    }
}

impl InferenceEngine for DeviceBackend {
    fn infer_event(&mut self, payload: &VectorPayload, _at: Picos) -> InferenceResult {
        match self {
            DeviceBackend::Lstm {
                device,
                engine,
                memory,
            } => {
                let token = payload
                    .as_token()
                    .expect("LSTM device backend needs token payloads");
                let r = device
                    .step(engine, memory, token)
                    .expect("device step runs (trim plan covers the kernels)");
                InferenceResult {
                    score: r.score,
                    flagged: r.flagged,
                    engine_cycles: r.cycles,
                }
            }
            DeviceBackend::Elm {
                device,
                engine,
                memory,
            } => {
                let x = payload
                    .as_dense()
                    .expect("ELM device backend needs dense payloads");
                let r = device
                    .infer(engine, memory, x)
                    .expect("device inference runs (trim plan covers the kernels)");
                InferenceResult {
                    score: r.score,
                    flagged: r.flagged,
                    engine_cycles: r.cycles,
                }
            }
        }
    }

    fn engine_clock(&self) -> ClockDomain {
        ClockDomain::rtad_miaow()
    }

    fn warmup(&mut self) {
        // Predecode every kernel into the engine's cache before the
        // stream starts: the first event pays no lowering cost. (Loads
        // already pre-warm; this covers engines handed a fresh model.)
        match self {
            DeviceBackend::Lstm { device, engine, .. } => {
                for k in device.kernels() {
                    engine.predecode(k);
                }
            }
            DeviceBackend::Elm { device, engine, .. } => {
                for k in device.kernels() {
                    engine.predecode(k);
                }
            }
        }
    }

    fn preflight(&self) -> Result<(), String> {
        let (findings, model) = match self {
            DeviceBackend::Lstm { device, engine, .. } => {
                (device_findings(device, engine.retained()), "LSTM")
            }
            DeviceBackend::Elm { device, engine, .. } => {
                (device_findings(device, engine.retained()), "ELM")
            }
        };
        if findings.is_empty() {
            Ok(())
        } else {
            let lines: Vec<String> = findings.iter().map(ToString::to_string).collect();
            Err(format!(
                "{model} device kernels incompatible with the engine trim plan:\n{}",
                lines.join("\n")
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtad_analysis::FindingKind;
    use rtad_ml::{Elm, ElmConfig, Lstm, LstmConfig};

    fn trained_pair() -> (ElmDevice, LstmDevice) {
        let normal: Vec<Vec<f32>> = (0..50)
            .map(|i| {
                let mut v = vec![0.0; 16];
                v[i % 4] = 1.0;
                v
            })
            .collect();
        let elm = Elm::train(&ElmConfig::rtad(), &normal, 1);
        let corpus: Vec<u32> = (0..300).map(|i| (i % 8) as u32).collect();
        let mut cfg = LstmConfig::rtad();
        cfg.epochs = 1;
        let lstm = Lstm::train(&cfg, &corpus, 1);
        (ElmDevice::compile(&elm), LstmDevice::compile(&lstm))
    }

    #[test]
    fn ml_miaow_cycles_are_lower_for_both_models() {
        let (elm, lstm) = trained_pair();
        let plan = profile_trim_plan(&elm, &lstm);

        let elm_full = measure_elm_cycles(&elm, EngineKind::Miaow.engine_config(&plan));
        let elm_ml = measure_elm_cycles(&elm, EngineKind::MlMiaow.engine_config(&plan));
        let lstm_full = measure_lstm_cycles(&lstm, EngineKind::Miaow.engine_config(&plan));
        let lstm_ml = measure_lstm_cycles(&lstm, EngineKind::MlMiaow.engine_config(&plan));

        // The per-event cycle counts behind Fig. 8, pinned exactly: the
        // engine's host execution may change, these may not.
        assert_eq!(
            (elm_full, elm_ml, lstm_full, lstm_ml),
            (975, 604, 4803, 1443)
        );
        assert!(elm_ml < elm_full, "ELM: {elm_ml} !< {elm_full}");
        assert!(lstm_ml < lstm_full, "LSTM: {lstm_ml} !< {lstm_full}");
        // Fig. 8's mean speedup is 2.75x; require >= 1.5x combined.
        let speedup = (elm_full + lstm_full) as f64 / (elm_ml + lstm_ml) as f64;
        assert!(speedup > 1.5, "combined speedup {speedup}");
        // LSTM events cost more than ELM events on the same engine
        // (Fig. 8: 53.16us vs 13.83us on MIAOW).
        assert!(lstm_full > elm_full);
    }

    #[test]
    fn hybrid_backend_flags_above_threshold() {
        struct Fixed(f64);
        impl PayloadScorer for Fixed {
            fn score_payload(&mut self, _p: &VectorPayload) -> f64 {
                self.0
            }
            fn reset(&mut self) {}
        }
        let mut b = HybridBackend::new(Fixed(2.0), 1.0, 100);
        let r = b.infer_event(&VectorPayload::Token(0), Picos::ZERO);
        assert!(r.flagged);
        assert_eq!(r.engine_cycles, 100);
        let mut b = HybridBackend::new(Fixed(0.5), 1.0, 100);
        assert!(!b.infer_event(&VectorPayload::Token(0), Picos::ZERO).flagged);
    }

    #[test]
    fn device_backend_runs_events() {
        let (elm, lstm) = trained_pair();
        let plan = profile_trim_plan(&elm, &lstm);
        let mut be = DeviceBackend::lstm(lstm, EngineKind::MlMiaow.engine_config(&plan));
        be.reset();
        let r = be.infer_event(&VectorPayload::Token(2), Picos::ZERO);
        assert!(r.engine_cycles > 0);
        assert!(r.score.is_finite());

        let mut be = DeviceBackend::elm(elm, EngineKind::MlMiaow.engine_config(&plan));
        let r = be.infer_event(&VectorPayload::Dense(vec![0.1; 16]), Picos::ZERO);
        assert!(r.engine_cycles > 0);
    }

    #[test]
    fn attest_model_kernels_reports_trim_findings() {
        let (elm, lstm) = trained_pair();
        let plan = profile_trim_plan(&elm, &lstm);
        let mut engine = Engine::new(EngineKind::MlMiaow.engine_config(&plan));
        assert!(attest_model_kernels(&elm, &mut engine).is_empty());
        assert!(attest_model_kernels(&lstm, &mut engine).is_empty());

        // A core-only plan deletes features both models need.
        let empty = TrimPlan::from_coverage(&CoverageSet::new());
        let mut engine = Engine::new(EngineConfig::ml_miaow(&empty));
        for findings in [
            attest_model_kernels(&elm, &mut engine),
            attest_model_kernels(&lstm, &mut engine),
        ] {
            assert!(!findings.is_empty());
            assert!(findings
                .iter()
                .all(|f| f.kind == FindingKind::TrimIncompatible));
        }
    }

    #[test]
    fn incompatible_trim_plan_is_rejected_at_load_time() {
        let (elm, lstm) = trained_pair();
        // A core-only plan deletes everything the kernels need.
        let empty = TrimPlan::from_coverage(&CoverageSet::new());
        let findings = DeviceBackend::try_lstm(lstm, EngineConfig::ml_miaow(&empty))
            .err()
            .expect("core-only plan must be refused");
        assert!(!findings.is_empty());
        assert!(findings
            .iter()
            .all(|f| f.feature.is_some() && f.pc.is_some()));

        let findings = DeviceBackend::try_elm(elm, EngineConfig::ml_miaow(&empty))
            .err()
            .expect("core-only plan must be refused");
        assert!(!findings.is_empty());
    }

    #[test]
    fn preflight_passes_for_a_profiled_plan() {
        let (elm, lstm) = trained_pair();
        let plan = profile_trim_plan(&elm, &lstm);
        let be = DeviceBackend::try_lstm(lstm, EngineKind::MlMiaow.engine_config(&plan))
            .expect("profiled plan covers the kernels");
        assert_eq!(be.preflight(), Ok(()));
        let be = DeviceBackend::try_elm(elm, EngineKind::MlMiaow.engine_config(&plan))
            .expect("profiled plan covers the kernels");
        assert_eq!(be.preflight(), Ok(()));
    }

    #[test]
    fn hybrid_and_device_scores_agree() {
        let (_, lstm_dev) = trained_pair();
        let corpus: Vec<u32> = (0..300).map(|i| (i % 8) as u32).collect();
        let mut cfg = LstmConfig::rtad();
        cfg.epochs = 1;
        let mut host = Lstm::train(&cfg, &corpus, 1);
        host.reset();

        let plan = profile_trim_plan(&trained_pair().0, &lstm_dev);
        let mut dev = DeviceBackend::lstm(lstm_dev, EngineKind::Miaow.engine_config(&plan));
        dev.reset();
        let mut hyb = HybridBackend::new(SequenceBackendModel(host), f64::INFINITY, 1);

        for t in [0u32, 1, 2, 3, 0, 5] {
            let p = VectorPayload::Token(t);
            let a = dev.infer_event(&p, Picos::ZERO).score;
            let b = hyb.infer_event(&p, Picos::ZERO).score;
            assert!((a - b).abs() < 5e-3, "token {t}: device {a} vs host {b}");
        }
    }
}
