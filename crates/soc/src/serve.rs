//! The serving plane's shared core: the deployed-model spec, the
//! per-stream verdict state machine, the serial oracle, and the one
//! batch former the serving plane owns.
//!
//! A deployment of RTAD watches many victim cores at once: every core's
//! TPIU emits its own trace byte stream, and the serving host decodes,
//! scores and judges all of them. The [`sparse`] plane schedules ingest
//! by readiness on one thread and hands decoded windows to a
//! `BatchFormer`, which owns everything after decode:
//!
//! ```text
//!   decoded windows ──▶ [queue] ──take_batch──▶ InferCtx::score ──▶ VerdictState::observe
//!   (any stream order)   per-stream FIFO   ≤ B windows, arena kernels   per-stream outcome
//! ```
//!
//! * **Batch formation** gathers up to `max_batch` queued windows
//!   *across* streams in arrival order. Under the LSTM it takes at most
//!   one window per stream per batch (lockstep), so every recurrent
//!   lane advances by exactly one timestep per call.
//! * **Scoring** runs one batch through `rtad-ml`'s arena kernels
//!   (`Elm::score_batch_arena`, `Lstm::score_next_batch_arena`).
//! * **Verdicts** keep each stream's smoothing / burst / hard-threshold
//!   state and fold every smoothed score into a fixed-size
//!   [`SparseOutcome`], so per-stream memory stays flat at any stream
//!   lifetime.
//!
//! **Bit-identity contract.** Batching is a host-side throughput
//! optimization only. `rtad-ml`'s batch kernels are bit-identical to the
//! scalar path (its property tests pin this), per-stream window order is
//! preserved end to end, and verdict state is per-stream — so the
//! former's scores and flags equal [`serial_reference`]'s for *any*
//! batch composition a plane happens to produce, and the equivalence
//! tests assert exact equality via [`StreamOutcome::summary`].
//!
//! **Cycle-accounting contract.** Simulated device cycles are
//! per-window and unchanged by batching: every window costs
//! [`ServeSpec::cycles_per_event`] engine cycles exactly as in the
//! single-stream path. Cross-stream batching amortizes *host* dispatch,
//! not modeled silicon; no paper number moves.
//!
//! [`sparse`]: crate::sparse

use std::collections::VecDeque;
use std::mem::size_of;

use rtad_igm::{IgmConfig, StreamingIgm, VectorPayload};
use rtad_ml::{BatchArena, Elm, Lstm, LstmLane, SequenceModel, VectorModel};
use rtad_trace::{BranchRecord, PtmConfig, StreamEncoder};

use crate::sweep::parallel_map;

/// The model served by the plane (cloned host models; scores are
/// device-equivalent by `rtad-ml`'s kernel tests).
#[derive(Debug, Clone)]
pub enum ServeModel {
    /// Dense-window ELM.
    Elm(Elm),
    /// Token-stream LSTM (one recurrent lane per stream).
    Lstm(Lstm),
}

/// Per-stream verdict policy: the [`HybridBackend`] compare chain with
/// the burst window expressed in *events* instead of arrival picoseconds
/// (the streaming path carries no simulated timestamps).
///
/// [`HybridBackend`]: crate::backend::HybridBackend
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VerdictPolicy {
    /// The calibrated detection threshold on the smoothed score.
    pub threshold: f64,
    /// One smoothed score above this flags immediately (`+inf` off).
    pub hard_threshold: f64,
    /// EMA smoothing factor in (0, 1]; 1 = raw scores.
    pub alpha: f64,
    /// Flag once `burst_k` above-threshold events lie within
    /// `burst_window_events` of each other. The window only applies
    /// for `k > 1`: with `k = 1` the verdict latches — the first
    /// above-threshold window flags it and every later window stays
    /// flagged — and `k = 0` flags every window.
    pub burst_k: usize,
    /// See [`VerdictPolicy::burst_k`].
    pub burst_window_events: u64,
}

impl VerdictPolicy {
    /// Raw scores against `threshold` with `burst_k = 1`: no smoothing,
    /// no hard path, and a verdict that latches after the first
    /// above-threshold window (see [`VerdictPolicy::burst_k`]).
    pub fn simple(threshold: f64) -> Self {
        VerdictPolicy {
            threshold,
            hard_threshold: f64::INFINITY,
            alpha: 1.0,
            burst_k: 1,
            burst_window_events: 0,
        }
    }
}

/// Everything the serving plane needs for one deployed model:
/// exported from a prepared detection experiment by
/// [`DetectionRun::serve_spec`](crate::DetectionRun::serve_spec) or
/// assembled directly for benches.
#[derive(Debug, Clone)]
pub struct ServeSpec {
    /// IGM configuration (address table, vector format, P2S depth).
    pub igm: IgmConfig,
    /// The deployed model.
    pub model: ServeModel,
    /// The per-stream verdict policy.
    pub policy: VerdictPolicy,
    /// Simulated engine cycles per window on the deployed engine
    /// variant — constant per window regardless of batching.
    pub cycles_per_event: u64,
}

/// What [`serial_reference`] produced for one stream: the full score
/// and flag sequences.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StreamOutcome {
    /// Windows scored.
    pub windows: u64,
    /// Smoothed scores, in window order.
    pub scores: Vec<f64>,
    /// Window indices (0-based) at which the verdict flagged.
    pub flags: Vec<u64>,
    /// Simulated engine cycles: `windows * cycles_per_event` (the
    /// cycle-accounting contract — batching never changes this).
    pub device_cycles: u64,
}

impl StreamOutcome {
    /// The fixed-size form the serving plane records: the oracle
    /// comparison is `assert_eq!(plane.outcome(s), &reference[s].summary())`.
    pub fn summary(&self) -> SparseOutcome {
        SparseOutcome {
            windows: self.windows,
            device_cycles: self.device_cycles,
            flags: self.flags.len() as u64,
            last_flag: self.flags.last().copied(),
            last_score: self.scores.last().copied().unwrap_or(0.0),
            score_hash: score_hash(&self.scores),
        }
    }
}

/// FNV-1a seed for [`score_hash`] / [`fold_score_hash`].
pub const SCORE_HASH_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds one smoothed score into a running FNV-1a hash over the score
/// bit patterns, in window order. Two score sequences collide exactly
/// when FNV collides — bit-identity checks hash the serial reference's
/// scores with the same fold and compare.
pub fn fold_score_hash(hash: u64, smoothed: f64) -> u64 {
    let mut h = hash;
    for b in smoothed.to_bits().to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Hashes a full score sequence (see [`fold_score_hash`]).
pub fn score_hash(scores: &[f64]) -> u64 {
    scores
        .iter()
        .fold(SCORE_HASH_SEED, |h, &s| fold_score_hash(h, s))
}

/// Fixed-size per-stream outcome of the serving plane. Unlike
/// [`StreamOutcome`] it does **not** keep the score vector — per-stream
/// memory must stay flat over any stream lifetime — so scores are
/// witnessed by a running order-sensitive hash instead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SparseOutcome {
    /// Windows scored.
    pub windows: u64,
    /// Simulated engine cycles (`windows * cycles_per_event`).
    pub device_cycles: u64,
    /// Number of flagged windows.
    pub flags: u64,
    /// Window index of the most recent flag.
    pub last_flag: Option<u64>,
    /// The most recent smoothed score.
    pub last_score: f64,
    /// Running FNV-1a hash of every smoothed score's bit pattern, in
    /// window order (seeded with [`SCORE_HASH_SEED`]).
    pub score_hash: u64,
}

impl Default for SparseOutcome {
    fn default() -> Self {
        SparseOutcome {
            windows: 0,
            device_cycles: 0,
            flags: 0,
            last_flag: None,
            last_score: 0.0,
            score_hash: SCORE_HASH_SEED,
        }
    }
}

/// One stream's verdict state: the [`HybridBackend`] chain keyed by
/// window index instead of arrival time. Public so baselines run the
/// *same* state machine rather than a re-implementation.
///
/// The burst-hit deque holds at most `burst_k + 1` window indices:
/// `observe` drops hits older than the burst window and then keeps only
/// the newest `burst_k`. Because `seq` strictly increases, the newest
/// `burst_k` hits decide every flag exactly as the full history would,
/// so per-stream memory stays flat and the steady state never
/// allocates.
///
/// [`HybridBackend`]: crate::backend::HybridBackend
#[derive(Debug, Clone, Default)]
pub struct VerdictState {
    ema: Option<f64>,
    recent_hits: VecDeque<u64>,
}

impl VerdictState {
    /// A fresh per-stream state.
    pub fn new() -> Self {
        VerdictState::default()
    }

    /// Resident bytes of this verdict state (struct plus burst-hit
    /// ring), for the serving plane's memory-per-stream accounting.
    pub fn resident_bytes(&self) -> usize {
        size_of::<Self>() + self.recent_hits.capacity() * size_of::<u64>()
    }

    /// Feeds the window-`seq` raw score through smoothing, the burst
    /// window and the hard threshold; returns `(smoothed, flagged)`.
    /// `seq` must strictly increase across calls.
    pub fn observe(&mut self, p: &VerdictPolicy, seq: u64, score: f64) -> (f64, bool) {
        let smoothed = match self.ema {
            None => score,
            Some(prev) => p.alpha * score + (1.0 - p.alpha) * prev,
        };
        self.ema = Some(smoothed);
        if smoothed > p.threshold {
            self.recent_hits.push_back(seq);
        }
        while let Some(&front) = self.recent_hits.front() {
            if seq - front > p.burst_window_events && p.burst_k > 1 {
                self.recent_hits.pop_front();
            } else {
                break;
            }
        }
        while self.recent_hits.len() > p.burst_k {
            self.recent_hits.pop_front();
        }
        let flagged = self.recent_hits.len() >= p.burst_k || smoothed > p.hard_threshold;
        (smoothed, flagged)
    }
}

/// Scoring state of one batch former: the reusable [`BatchArena`] plus
/// the per-stream LSTM lane pool and the index/token/score scratch that
/// feeds the arena kernels. After the first batch of the steady shape,
/// scoring a batch allocates nothing.
struct InferCtx {
    /// Lockstep mode: at most one window per stream per batch (LSTM).
    lockstep: bool,
    arena: BatchArena,
    /// One recurrent lane per stream (LSTM only).
    lanes: Vec<LstmLane>,
    /// Lane index per batch slot.
    idx: Vec<usize>,
    /// Token per batch slot.
    tokens: Vec<u32>,
    /// Scores of the last batch, slot-aligned.
    scores: Vec<f64>,
}

impl InferCtx {
    fn new(spec: &ServeSpec) -> Self {
        InferCtx {
            lockstep: matches!(spec.model, ServeModel::Lstm(_)),
            arena: BatchArena::new(),
            lanes: Vec::new(),
            idx: Vec::new(),
            tokens: Vec::new(),
            scores: Vec::new(),
        }
    }

    /// Registers one more stream (a fresh recurrent lane under the
    /// LSTM; a no-op for the stateless ELM). Lane indices follow
    /// registration order, matching the plane's stream ids.
    fn add_stream(&mut self, spec: &ServeSpec) {
        if let ServeModel::Lstm(lstm) = &spec.model {
            self.lanes.push(lstm.lane());
        }
    }

    /// Scores `batch` into `self.scores` (slot-aligned) through the
    /// arena kernels — bit-identical to the scalar path per window.
    fn score(&mut self, spec: &ServeSpec, batch: &[(usize, VectorPayload)]) {
        match &spec.model {
            ServeModel::Elm(elm) => {
                self.arena.begin(elm.input_dim());
                for (_, p) in batch {
                    self.arena
                        .push_row(p.as_dense().expect("ELM serving needs dense windows"));
                }
                elm.score_batch_arena(&mut self.arena, &mut self.scores);
            }
            ServeModel::Lstm(lstm) => {
                self.idx.clear();
                self.tokens.clear();
                for (stream, p) in batch {
                    self.idx.push(*stream);
                    self.tokens
                        .push(p.as_token().expect("LSTM serving needs token windows"));
                }
                lstm.score_next_batch_arena(
                    &mut self.lanes,
                    &self.idx,
                    &self.tokens,
                    &mut self.arena,
                    &mut self.scores,
                );
            }
        }
    }
}

/// The one batch former of the serving plane: queues decoded windows,
/// forms cross-stream batches, scores them, runs per-stream verdicts
/// and records each stream's [`SparseOutcome`]. The sparse plane owns
/// one on its polling thread. Registration allocates every per-stream
/// slot; the steady state allocates nothing.
pub(crate) struct BatchFormer {
    spec: ServeSpec,
    max_batch: usize,
    ctx: InferCtx,
    verdicts: Vec<VerdictState>,
    outcomes: Vec<SparseOutcome>,
    /// Windows waiting for a batch, in arrival order.
    queue: VecDeque<(usize, VectorPayload)>,
    batch: Vec<(usize, VectorPayload)>,
    /// Lockstep scratch: whether a stream already has a window in the
    /// batch being formed.
    in_batch: Vec<bool>,
    windows: u64,
    batches: u64,
    max_batch_seen: usize,
}

impl BatchFormer {
    /// A former serving `spec` with batches of at most `max_batch`
    /// windows (at least one) and no streams registered.
    pub(crate) fn new(spec: ServeSpec, max_batch: usize) -> Self {
        let max_batch = max_batch.max(1);
        BatchFormer {
            ctx: InferCtx::new(&spec),
            spec,
            max_batch,
            verdicts: Vec::new(),
            outcomes: Vec::new(),
            queue: VecDeque::new(),
            batch: Vec::with_capacity(max_batch),
            in_batch: Vec::new(),
            windows: 0,
            batches: 0,
            max_batch_seen: 0,
        }
    }

    /// The served spec.
    pub(crate) fn spec(&self) -> &ServeSpec {
        &self.spec
    }

    /// Registers the next stream id: verdict state, outcome slot and
    /// model lane.
    pub(crate) fn register(&mut self) {
        self.verdicts.push(VerdictState::new());
        self.outcomes.push(SparseOutcome::default());
        self.in_batch.push(false);
        self.ctx.add_stream(&self.spec);
    }

    /// Queues one decoded window of `stream` (windows of one stream
    /// must arrive in decode order).
    pub(crate) fn push(&mut self, stream: usize, payload: VectorPayload) {
        self.queue.push_back((stream, payload));
    }

    /// Under the ELM, scores batches while a full one is queued, so at
    /// most `max_batch - 1` windows (and their dense buffers) wait in
    /// the queue afterwards. Does nothing under the LSTM: a lockstep
    /// batch waits for the round end, where it can mix every ready
    /// stream.
    pub(crate) fn score_full(&mut self, mut recycle: impl FnMut(Vec<f32>)) {
        if !self.ctx.lockstep {
            while self.queue.len() >= self.max_batch {
                self.score_next(&mut recycle);
            }
        }
    }

    /// Scores the next batch: forms it from the queue, scores it,
    /// updates each window's verdict and outcome, then hands every
    /// scored dense buffer to `recycle` for reuse by the next decode.
    /// Returns the windows scored, `0` when the queue was empty.
    pub(crate) fn score_next(&mut self, mut recycle: impl FnMut(Vec<f32>)) -> usize {
        if self.queue.is_empty() {
            return 0;
        }
        self.take_batch();
        self.ctx.score(&self.spec, &self.batch);
        let n = self.batch.len();
        self.windows += n as u64;
        self.batches += 1;
        self.max_batch_seen = self.max_batch_seen.max(n);
        let policy = &self.spec.policy;
        for ((stream, _), &score) in self.batch.iter().zip(&self.ctx.scores) {
            let out = &mut self.outcomes[*stream];
            let seq = out.windows;
            let (smoothed, flagged) = self.verdicts[*stream].observe(policy, seq, score);
            out.windows += 1;
            out.device_cycles += self.spec.cycles_per_event;
            out.last_score = smoothed;
            out.score_hash = fold_score_hash(out.score_hash, smoothed);
            if flagged {
                out.flags += 1;
                out.last_flag = Some(seq);
            }
        }
        for (stream, payload) in self.batch.drain(..) {
            // Clear only this batch's lockstep marks: O(batch), not
            // O(registered streams).
            self.in_batch[stream] = false;
            if let VectorPayload::Dense(buf) = payload {
                recycle(buf);
            }
        }
        n
    }

    /// Pops the next batch into `self.batch` (cleared first): up to
    /// `max_batch` windows in arrival order; in lockstep mode at most
    /// one window per stream. Skipped windows rotate to the back of the
    /// queue in scan order, which preserves every stream's relative
    /// window order without rebuilding the queue — the whole call is
    /// allocation-free once the scratch buffers are warm. Every
    /// `in_batch` mark is clear on entry: `score_next` clears the marks
    /// of the batch it scored.
    fn take_batch(&mut self) {
        debug_assert!(
            self.in_batch.iter().all(|&b| !b),
            "a scored batch left a lockstep mark set"
        );
        self.batch.clear();
        if self.ctx.lockstep {
            // Examine each queued window exactly once; rejects rotate to
            // the back, so after `len` pops the queue holds exactly the
            // rejects in their original relative order.
            for _ in 0..self.queue.len() {
                let (stream, payload) = self
                    .queue
                    .pop_front()
                    .expect("queue length fixed this pass");
                if self.batch.len() < self.max_batch && !self.in_batch[stream] {
                    self.in_batch[stream] = true;
                    self.batch.push((stream, payload));
                } else {
                    self.queue.push_back((stream, payload));
                }
            }
        } else {
            while self.batch.len() < self.max_batch {
                match self.queue.pop_front() {
                    Some(window) => self.batch.push(window),
                    None => break,
                }
            }
        }
    }

    /// The outcome of `stream` so far.
    pub(crate) fn outcome(&self, stream: usize) -> &SparseOutcome {
        &self.outcomes[stream]
    }

    /// All outcomes, indexed by stream id.
    pub(crate) fn outcomes(&self) -> &[SparseOutcome] {
        &self.outcomes
    }

    /// `(windows, batches, largest batch)` scored so far.
    pub(crate) fn tally(&self) -> (u64, u64, usize) {
        (self.windows, self.batches, self.max_batch_seen)
    }

    /// Resident bytes the former keeps for `stream`: verdict state,
    /// model lane, outcome slot and its `in_batch` bookkeeping slot.
    pub(crate) fn stream_resident_bytes(&self, stream: usize) -> usize {
        self.verdicts[stream].resident_bytes()
            + self
                .ctx
                .lanes
                .get(stream)
                .map_or(0, LstmLane::resident_bytes)
            + size_of::<SparseOutcome>()
            + size_of::<bool>()
    }

    /// Resident bytes of the reusable cross-stream scratch (window
    /// queue and batch buffer).
    pub(crate) fn scratch_bytes(&self) -> usize {
        (self.queue.capacity() + self.batch.capacity()) * size_of::<(usize, VectorPayload)>()
    }
}

/// The per-window serial reference: each stream decoded and scored on
/// its own with the scalar model path (`Elm::score` / `Lstm::score_next`
/// through a fresh clone), then run through the same verdict state
/// machine. This is the oracle the serving plane must match bit for
/// bit.
pub fn serial_reference(spec: &ServeSpec, streams: &[Vec<u8>]) -> Vec<StreamOutcome> {
    streams
        .iter()
        .map(|bytes| {
            let mut igm = StreamingIgm::new(&spec.igm);
            let mut windows = Vec::new();
            igm.push_bytes(bytes, &mut windows);
            igm.finish(&mut windows);

            let mut scorer: Box<dyn FnMut(&VectorPayload) -> f64> = match &spec.model {
                ServeModel::Elm(elm) => {
                    let elm = elm.clone();
                    Box::new(move |p| elm.score(p.as_dense().expect("dense window")))
                }
                ServeModel::Lstm(lstm) => {
                    let mut m = lstm.clone();
                    m.reset();
                    Box::new(move |p| m.score_next(p.as_token().expect("token window")))
                }
            };

            let mut out = StreamOutcome::default();
            let mut state = VerdictState::default();
            for w in &windows {
                let seq = out.windows;
                let (smoothed, flagged) = state.observe(&spec.policy, seq, scorer(&w.payload));
                out.scores.push(smoothed);
                if flagged {
                    out.flags.push(seq);
                }
                out.windows += 1;
            }
            out.device_cycles = out.windows * spec.cycles_per_event;
            out
        })
        .collect()
}

/// Encodes one PTM/TPIU byte stream per branch run — the sweep-wired
/// front door for benches and tests that start from raw branch records.
/// Encoding is per-stream independent, so it fans out over the batched
/// sweep runner; output order matches input order.
pub fn encode_streams(runs: &[Vec<BranchRecord>], threads: usize) -> Vec<Vec<u8>> {
    parallel_map(runs, threads, |_, run| {
        let trace = StreamEncoder::new(PtmConfig::rtad()).encode_run(run);
        trace.bytes.iter().map(|tb| tb.byte).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rtad_ml::{ElmConfig, LstmConfig};
    use rtad_trace::{BranchKind, VirtAddr};

    fn targets(n: u32) -> Vec<VirtAddr> {
        (0..n).map(|k| VirtAddr::new(0x4000 + k * 0x40)).collect()
    }

    fn runs(n_streams: usize, lens: &[usize], n_targets: u32) -> Vec<Vec<BranchRecord>> {
        let tgts = targets(n_targets);
        (0..n_streams)
            .map(|s| {
                (0..lens[s % lens.len()])
                    .map(|i| {
                        BranchRecord::new(
                            VirtAddr::new(0x1000 + (i as u32) * 4),
                            tgts[(i * (s + 2) + s) % tgts.len()],
                            BranchKind::IndirectJump,
                            (i as u64) * 25,
                        )
                    })
                    .collect()
            })
            .collect()
    }

    fn elm_spec() -> ServeSpec {
        let tgts = targets(8);
        let normal: Vec<Vec<f32>> = (0..100)
            .map(|i| {
                let mut v = vec![0.0; 8];
                v[i % 4] = 0.7;
                v[(i + 2) % 4] = 0.3;
                v
            })
            .collect();
        ServeSpec {
            igm: IgmConfig::histogram(&tgts, 8),
            model: ServeModel::Elm(Elm::train(&ElmConfig::tiny(8), &normal, 3)),
            policy: VerdictPolicy {
                threshold: 0.05,
                hard_threshold: 5.0,
                alpha: 0.4,
                burst_k: 2,
                burst_window_events: 6,
            },
            cycles_per_event: 1234,
        }
    }

    fn lstm_spec() -> ServeSpec {
        let tgts = targets(6);
        let corpus: Vec<u32> = (0..400).map(|i| (i % 6) as u32).collect();
        ServeSpec {
            igm: IgmConfig::token_stream(&tgts),
            model: ServeModel::Lstm(Lstm::train(&LstmConfig::tiny(6), &corpus, 9)),
            policy: VerdictPolicy::simple(2.5),
            cycles_per_event: 777,
        }
    }

    /// Decodes every stream whole, queues all windows in round-robin
    /// stream order, and scores them through one former with batches of
    /// at most `max_batch`. Returns the outcomes and the batch count.
    fn serve(spec: &ServeSpec, streams: &[Vec<u8>], max_batch: usize) -> (Vec<SparseOutcome>, u64) {
        let decoded: Vec<Vec<VectorPayload>> = streams
            .iter()
            .map(|bytes| {
                let mut igm = StreamingIgm::new(&spec.igm);
                let mut out = Vec::new();
                igm.push_bytes(bytes, &mut out);
                igm.finish(&mut out);
                out.into_iter().map(|v| v.payload).collect()
            })
            .collect();
        let mut former = BatchFormer::new(spec.clone(), max_batch);
        for _ in streams {
            former.register();
        }
        let mut iters: Vec<_> = decoded.into_iter().map(Vec::into_iter).collect();
        loop {
            let mut any = false;
            for (s, it) in iters.iter_mut().enumerate() {
                if let Some(p) = it.next() {
                    former.push(s, p);
                    any = true;
                }
            }
            if !any {
                break;
            }
        }
        while former.score_next(|_| {}) > 0 {}
        assert!(former.queue.is_empty());
        (former.outcomes().to_vec(), former.tally().1)
    }

    fn assert_former_matches_reference(spec: &ServeSpec, lens: &[usize], max_batch: usize) {
        let streams = encode_streams(&runs(lens.len(), lens, 6), 1);
        let reference: Vec<SparseOutcome> = serial_reference(spec, &streams)
            .iter()
            .map(StreamOutcome::summary)
            .collect();
        assert_eq!(serve(spec, &streams, max_batch).0, reference);
    }

    #[test]
    fn elm_batch_former_matches_reference() {
        assert_former_matches_reference(&elm_spec(), &[200, 150, 90, 200], 32);
    }

    #[test]
    fn lstm_batch_former_matches_reference_over_ragged_streams() {
        assert_former_matches_reference(&lstm_spec(), &[120, 0, 33, 250, 75], 4);
    }

    #[test]
    fn batch_bound_only_changes_batch_count() {
        for spec in [elm_spec(), lstm_spec()] {
            let streams = encode_streams(&runs(3, &[80, 50, 64], 6), 1);
            let (wide, wide_batches) = serve(&spec, &streams, 32);
            let (narrow, narrow_batches) = serve(&spec, &streams, 1);
            assert_eq!(wide, narrow);
            let windows: u64 = narrow.iter().map(|o| o.windows).sum();
            assert_eq!(
                narrow_batches, windows,
                "max_batch 1 scores one window per batch"
            );
            assert!(wide_batches < narrow_batches);
        }
    }

    #[test]
    fn empty_former_scores_nothing() {
        let mut former = BatchFormer::new(elm_spec(), 8);
        former.register();
        assert_eq!(former.score_next(|_| panic!("nothing to recycle")), 0);
        assert_eq!(former.tally(), (0, 0, 0));
        assert_eq!(*former.outcome(0), SparseOutcome::default());
    }

    #[test]
    fn cycle_accounting_is_per_window() {
        let spec = elm_spec();
        let streams = encode_streams(&runs(2, &[100, 40], 6), 1);
        for o in serve(&spec, &streams, 8).0 {
            assert!(o.windows > 0);
            assert_eq!(o.device_cycles, o.windows * spec.cycles_per_event);
        }
        for o in serial_reference(&spec, &streams) {
            assert_eq!(o.device_cycles, o.windows * spec.cycles_per_event);
        }
    }

    #[test]
    fn verdict_state_mirrors_hybrid_backend_chain() {
        let policy = VerdictPolicy {
            threshold: 1.0,
            hard_threshold: 10.0,
            alpha: 1.0,
            burst_k: 2,
            burst_window_events: 3,
        };
        let mut st = VerdictState::default();
        // One hit: no flag (burst needs two within the window).
        assert!(!st.observe(&policy, 0, 2.0).1);
        // Second hit 5 events later: the first fell out of the window.
        assert!(!st.observe(&policy, 5, 2.0).1);
        // Third hit within the window of the second: flags.
        assert!(st.observe(&policy, 7, 2.0).1);
        // A hard-threshold score flags on its own.
        let mut st = VerdictState::default();
        assert!(st.observe(&policy, 0, 11.0).1);
    }

    #[test]
    fn simple_policy_latches_with_bounded_memory() {
        let policy = VerdictPolicy::simple(0.5);
        let mut st = VerdictState::new();
        assert!(!st.observe(&policy, 0, 0.1).1, "below threshold");
        for seq in 1..=10_000u64 {
            assert!(st.observe(&policy, seq, 1.0).1, "above threshold");
        }
        assert!(st.observe(&policy, 10_001, 0.1).1, "k = 1 latches");
        // Room for a handful of hits, however many windows were seen.
        let bound = size_of::<VerdictState>() + size_of::<[u64; 8]>();
        assert!(
            st.resident_bytes() <= bound,
            "verdict state grew to {} B over 10k hits (bound {bound} B)",
            st.resident_bytes()
        );
    }

    /// The verdict chain before the hit deque was capped: identical
    /// except that nothing trims it to `burst_k`.
    struct UncappedVerdict {
        ema: Option<f64>,
        recent_hits: VecDeque<u64>,
    }

    impl UncappedVerdict {
        fn observe(&mut self, p: &VerdictPolicy, seq: u64, score: f64) -> (f64, bool) {
            let smoothed = match self.ema {
                None => score,
                Some(prev) => p.alpha * score + (1.0 - p.alpha) * prev,
            };
            self.ema = Some(smoothed);
            if smoothed > p.threshold {
                self.recent_hits.push_back(seq);
            }
            while let Some(&front) = self.recent_hits.front() {
                if seq - front > p.burst_window_events && p.burst_k > 1 {
                    self.recent_hits.pop_front();
                } else {
                    break;
                }
            }
            let flagged = self.recent_hits.len() >= p.burst_k || smoothed > p.hard_threshold;
            (smoothed, flagged)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Capping the hit deque changes no smoothed score and no flag
        /// for any policy and any strictly increasing window sequence.
        #[test]
        fn capped_verdict_equals_uncapped(
            threshold in 0.0f64..1.0,
            hard_threshold in 0.5f64..2.0,
            alpha in 0.05f64..=1.0,
            burst_k in 0usize..5,
            burst_window_events in 0u64..12,
            steps in proptest::collection::vec((0.0f64..1.5, 1u64..4), 1..200),
        ) {
            let policy = VerdictPolicy { threshold, hard_threshold, alpha, burst_k, burst_window_events };
            let mut capped = VerdictState::new();
            let mut uncapped = UncappedVerdict { ema: None, recent_hits: VecDeque::new() };
            let mut seq = 0u64;
            for (score, gap) in steps {
                let (a, fa) = capped.observe(&policy, seq, score);
                let (b, fb) = uncapped.observe(&policy, seq, score);
                prop_assert_eq!(a.to_bits(), b.to_bits(), "smoothed score at {}", seq);
                prop_assert_eq!(fa, fb, "flag at {}", seq);
                prop_assert!(capped.recent_hits.len() <= burst_k);
                seq += gap;
            }
        }
    }

    #[test]
    fn encode_streams_is_parallel_map_stable() {
        let rs = runs(5, &[60, 30], 6);
        assert_eq!(encode_streams(&rs, 1), encode_streams(&rs, 4));
    }
}
