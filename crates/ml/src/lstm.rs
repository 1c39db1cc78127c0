//! The LSTM next-branch model (general-branch features).
//!
//! After Yi et al., "Mimicry resilient program behavior modeling with
//! LSTM based branch models" (the paper's [8]): an embedding → LSTM cell
//! → softmax-over-vocabulary network trained to predict the *next*
//! branch token of normal execution. At inference the anomaly score of
//! an observed branch is its negative log likelihood under the model;
//! a gadget-chain attack strings together branches the model considers
//! wildly improbable in context.
//!
//! Training is truncated back-propagation through time with Adam,
//! implemented directly (no autograd — gradients are hand-derived for
//! the standard LSTM equations with gate order `i, f, g, o`).
//!
//! The inference path computes its nonlinearities exactly as the MIAOW
//! kernels do (`σ(x) = 1/(1+e^{-x})`, `tanh(x) = 2σ(2x)−1`, logits
//! clipped to ±20 before the softmax) so host and device agree to f32
//! rounding.

use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;
use serde::{Deserialize, Serialize};

use crate::elm::sigmoid;
use crate::linalg::Matrix;
use crate::SequenceModel;

/// Logit clip applied before the softmax on both host and device (keeps
/// the device's un-shifted exp numerically safe).
pub const LOGIT_CLIP: f32 = 20.0;

/// `tanh` computed the way the device computes it.
pub(crate) fn dev_tanh(x: f32) -> f32 {
    2.0 * sigmoid(2.0 * x) - 1.0
}

/// Hyperparameters of an [`Lstm`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LstmConfig {
    /// Vocabulary size (branch tokens from the IGM address mapper).
    pub vocab: usize,
    /// Embedding width.
    pub embed: usize,
    /// Hidden width.
    pub hidden: usize,
    /// Truncated-BPTT chunk length.
    pub bptt: usize,
    /// Training epochs over the corpus.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Gradient clip (per-element).
    pub grad_clip: f32,
}

impl LstmConfig {
    /// The RTAD deployment shape: 64-token vocabulary (the address
    /// mapper passes the hottest branch targets), 16-wide embedding and
    /// hidden state — sized so one step fits a few MIAOW wavefronts.
    pub fn rtad() -> Self {
        LstmConfig {
            vocab: 64,
            embed: 16,
            hidden: 16,
            bptt: 32,
            epochs: 4,
            lr: 5e-3,
            grad_clip: 1.0,
        }
    }

    /// A tiny configuration for fast tests.
    pub fn tiny(vocab: usize) -> Self {
        LstmConfig {
            vocab,
            embed: 8,
            hidden: 8,
            bptt: 16,
            epochs: 6,
            lr: 1e-2,
            grad_clip: 1.0,
        }
    }
}

/// Adam state for one parameter tensor.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct Adam {
    m: Vec<f32>,
    v: Vec<f32>,
    t: u64,
}

impl Adam {
    fn new(len: usize) -> Self {
        Adam {
            m: vec![0.0; len],
            v: vec![0.0; len],
            t: 0,
        }
    }

    fn step(&mut self, params: &mut [f32], grads: &[f32], lr: f32) {
        const B1: f32 = 0.9;
        const B2: f32 = 0.999;
        const EPS: f32 = 1e-8;
        self.t += 1;
        let b1c = 1.0 - B1.powi(self.t as i32);
        let b2c = 1.0 - B2.powi(self.t as i32);
        for ((p, g), (m, v)) in params
            .iter_mut()
            .zip(grads)
            .zip(self.m.iter_mut().zip(self.v.iter_mut()))
        {
            *m = B1 * *m + (1.0 - B1) * g;
            *v = B2 * *v + (1.0 - B2) * g * g;
            let mhat = *m / b1c;
            let vhat = *v / b2c;
            *p -= lr * mhat / (vhat.sqrt() + EPS);
        }
    }
}

/// A trained LSTM branch model.
///
/// See the [crate documentation](crate) for a train-and-score example.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Lstm {
    config: LstmConfig,
    /// Embedding, `vocab × embed`.
    embedding: Matrix,
    /// Input weights, `4*hidden × embed` (gate order i,f,g,o).
    w: Matrix,
    /// Recurrent weights, `4*hidden × hidden`.
    u: Matrix,
    /// Gate biases, `4*hidden`.
    b: Box<[f32]>,
    /// Output weights, `vocab × hidden`.
    w_out: Matrix,
    /// Output biases, `vocab`.
    b_out: Box<[f32]>,
    /// Input projection per token, `vocab × 4*hidden`: row `t` is
    /// `w · embedding[t]`, computed with [`Matrix::matvec`] so a batch
    /// step can gather it instead of multiplying. Derived from `w` and
    /// `embedding`; rebuilt whenever they change. Boxed, like the
    /// fixed-length biases, so the model stays small enough to sit
    /// unboxed in serving-model enums beside the ELM.
    wx_table: Box<Matrix>,
    // --- inference state ---
    #[serde(skip)]
    state: CellState,
}

/// Recurrent state plus the standing next-token prediction.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct CellState {
    h: Vec<f32>,
    c: Vec<f32>,
    /// softmax prediction from the current state.
    probs: Vec<f32>,
}

/// One forward step's intermediate values (cached for BPTT).
#[derive(Debug, Clone)]
struct StepCache {
    token: usize,
    x: Vec<f32>,
    h_prev: Vec<f32>,
    c_prev: Vec<f32>,
    i: Vec<f32>,
    f: Vec<f32>,
    g: Vec<f32>,
    o: Vec<f32>,
    c: Vec<f32>,
    h: Vec<f32>,
}

impl Lstm {
    /// Initializes parameters from `seed` without training (useful for
    /// equivalence tests and as the training starting point).
    pub fn init(config: &LstmConfig, seed: u64) -> Self {
        assert!(config.vocab > 1, "vocabulary must have at least 2 tokens");
        let mut rng = ChaCha12Rng::seed_from_u64(seed ^ 0x4C53_544D);
        let scale = 1.0 / (config.hidden as f32).sqrt();
        let mut embedding = Matrix::zeros(config.vocab, config.embed);
        embedding.randomize(&mut rng, 0.5);
        let mut w = Matrix::zeros(4 * config.hidden, config.embed);
        w.randomize(&mut rng, scale);
        let mut u = Matrix::zeros(4 * config.hidden, config.hidden);
        u.randomize(&mut rng, scale);
        let mut b = vec![0.0; 4 * config.hidden];
        // Forget-gate bias starts at 1 (the classic trick).
        for fb in b[config.hidden..2 * config.hidden].iter_mut() {
            *fb = 1.0;
        }
        let mut w_out = Matrix::zeros(config.vocab, config.hidden);
        w_out.randomize(&mut rng, scale);
        let b_out = vec![0.0; config.vocab].into_boxed_slice();
        let wx_table = project_embeddings(&w, &embedding);

        let mut lstm = Lstm {
            config: *config,
            embedding,
            w,
            u,
            b: b.into_boxed_slice(),
            w_out,
            b_out,
            wx_table,
            state: CellState::default(),
        };
        lstm.reset();
        lstm
    }

    /// Trains on a normal token stream with truncated BPTT + Adam.
    ///
    /// # Panics
    ///
    /// Panics if the corpus has fewer than two tokens or any token is
    /// outside the vocabulary.
    pub fn train(config: &LstmConfig, corpus: &[u32], seed: u64) -> Self {
        assert!(corpus.len() >= 2, "LSTM training needs at least 2 tokens");
        for &t in corpus {
            assert!(
                (t as usize) < config.vocab,
                "token {t} outside vocabulary {}",
                config.vocab
            );
        }
        let mut lstm = Lstm::init(config, seed);
        let h = config.hidden;

        let mut a_emb = Adam::new(config.vocab * config.embed);
        let mut a_w = Adam::new(4 * h * config.embed);
        let mut a_u = Adam::new(4 * h * h);
        let mut a_b = Adam::new(4 * h);
        let mut a_wo = Adam::new(config.vocab * h);
        let mut a_bo = Adam::new(config.vocab);

        for _epoch in 0..config.epochs {
            let mut h_state = vec![0.0f32; h];
            let mut c_state = vec![0.0f32; h];
            let mut pos = 0usize;
            while pos + 1 < corpus.len() {
                let end = (pos + config.bptt).min(corpus.len() - 1);
                // Forward over the chunk, caching intermediates.
                let mut caches = Vec::with_capacity(end - pos);
                let mut d_logits_all = Vec::with_capacity(end - pos);
                for t in pos..end {
                    let cache = lstm.forward_step(corpus[t] as usize, &h_state, &c_state);
                    h_state = cache.h.clone();
                    c_state = cache.c.clone();
                    // Prediction loss against the next token.
                    let logits = lstm.logits(&cache.h);
                    let probs = softmax(&logits);
                    let mut d = probs;
                    d[corpus[t + 1] as usize] -= 1.0;
                    d_logits_all.push(d);
                    caches.push(cache);
                }
                lstm.backward_chunk(
                    &caches,
                    &d_logits_all,
                    (
                        &mut a_emb, &mut a_w, &mut a_u, &mut a_b, &mut a_wo, &mut a_bo,
                    ),
                );
                pos = end;
            }
        }
        lstm.wx_table = project_embeddings(&lstm.w, &lstm.embedding);
        lstm.reset();
        lstm
    }

    /// The configuration.
    pub fn config(&self) -> &LstmConfig {
        &self.config
    }

    /// The embedding matrix (`vocab × embed`), for device lowering.
    pub fn embedding(&self) -> &Matrix {
        &self.embedding
    }

    /// Gate input weights (`4*hidden × embed`, order i,f,g,o).
    pub fn w(&self) -> &Matrix {
        &self.w
    }

    /// Gate recurrent weights (`4*hidden × hidden`).
    pub fn u(&self) -> &Matrix {
        &self.u
    }

    /// Gate biases (`4*hidden`).
    pub fn b(&self) -> &[f32] {
        &self.b
    }

    /// Output weights (`vocab × hidden`).
    pub fn w_out(&self) -> &Matrix {
        &self.w_out
    }

    /// Output biases (`vocab`).
    pub fn b_out(&self) -> &[f32] {
        &self.b_out
    }

    /// The input projection table (`vocab × 4*hidden`): row `t` equals
    /// `w().matvec(embedding().row(t))` bit for bit.
    pub(crate) fn wx_table(&self) -> &Matrix {
        &self.wx_table
    }

    /// Current hidden state (for device-equivalence tests).
    pub fn hidden_state(&self) -> (&[f32], &[f32]) {
        (&self.state.h, &self.state.c)
    }

    /// The standing next-token probability distribution.
    pub fn prediction(&self) -> &[f32] {
        &self.state.probs
    }

    /// Advances the recurrent state by one observed token and refreshes
    /// the standing prediction. Exposed so the device path can drive the
    /// same state machine.
    pub fn advance(&mut self, token: u32) {
        let cache = self.forward_step(token as usize, &self.state.h.clone(), &self.state.c.clone());
        self.state.h = cache.h;
        self.state.c = cache.c;
        let logits = self.logits(&self.state.h);
        self.state.probs = softmax_clipped(&logits);
    }

    fn forward_step(&self, token: usize, h_prev: &[f32], c_prev: &[f32]) -> StepCache {
        assert!(token < self.config.vocab, "token outside vocabulary");
        let hd = self.config.hidden;
        let x: Vec<f32> = self.embedding.row(token).to_vec();
        // z = W x + U h + b
        let wx = self.w.matvec(&x);
        let uh = self.u.matvec(h_prev);
        let z: Vec<f32> = wx
            .iter()
            .zip(&uh)
            .zip(&self.b)
            .map(|((a, b2), bias)| a + b2 + bias)
            .collect();
        let i: Vec<f32> = z[..hd].iter().map(|&v| sigmoid(v)).collect();
        let f: Vec<f32> = z[hd..2 * hd].iter().map(|&v| sigmoid(v)).collect();
        let g: Vec<f32> = z[2 * hd..3 * hd].iter().map(|&v| dev_tanh(v)).collect();
        let o: Vec<f32> = z[3 * hd..].iter().map(|&v| sigmoid(v)).collect();
        let c: Vec<f32> = (0..hd).map(|k| f[k] * c_prev[k] + i[k] * g[k]).collect();
        let h: Vec<f32> = (0..hd).map(|k| o[k] * dev_tanh(c[k])).collect();
        StepCache {
            token,
            x,
            h_prev: h_prev.to_vec(),
            c_prev: c_prev.to_vec(),
            i,
            f,
            g,
            o,
            c,
            h,
        }
    }

    /// Output logits for a hidden state.
    pub fn logits(&self, h: &[f32]) -> Vec<f32> {
        self.w_out
            .matvec(h)
            .into_iter()
            .zip(&self.b_out)
            .map(|(v, b)| v + b)
            .collect()
    }

    #[allow(clippy::type_complexity)]
    fn backward_chunk(
        &mut self,
        caches: &[StepCache],
        d_logits: &[Vec<f32>],
        opt: (
            &mut Adam,
            &mut Adam,
            &mut Adam,
            &mut Adam,
            &mut Adam,
            &mut Adam,
        ),
    ) {
        let (a_emb, a_w, a_u, a_b, a_wo, a_bo) = opt;
        let hd = self.config.hidden;
        let ed = self.config.embed;
        let vd = self.config.vocab;
        let n = caches.len() as f32;

        let mut g_emb = vec![0.0f32; vd * ed];
        let mut g_w = vec![0.0f32; 4 * hd * ed];
        let mut g_u = vec![0.0f32; 4 * hd * hd];
        let mut g_b = vec![0.0f32; 4 * hd];
        let mut g_wo = vec![0.0f32; vd * hd];
        let mut g_bo = vec![0.0f32; vd];

        let mut dh_next = vec![0.0f32; hd];
        let mut dc_next = vec![0.0f32; hd];

        for (cache, dlog) in caches.iter().zip(d_logits).rev() {
            // Output layer.
            for v in 0..vd {
                let dl = dlog[v] / n;
                g_bo[v] += dl;
                for k in 0..hd {
                    g_wo[v * hd + k] += dl * cache.h[k];
                }
            }
            let mut dh = dh_next.clone();
            for (k, dhk) in dh.iter_mut().enumerate() {
                let mut acc = 0.0f32;
                for (v, &dl) in dlog.iter().enumerate() {
                    acc += self.w_out[(v, k)] * dl / n;
                }
                *dhk += acc;
            }

            // Cell backward.
            let mut dc = dc_next.clone();
            let mut dz = vec![0.0f32; 4 * hd];
            for k in 0..hd {
                let tc = dev_tanh(cache.c[k]);
                let do_ = dh[k] * tc;
                dc[k] += dh[k] * cache.o[k] * (1.0 - tc * tc);
                let di = dc[k] * cache.g[k];
                let df = dc[k] * cache.c_prev[k];
                let dg = dc[k] * cache.i[k];
                dz[k] = di * cache.i[k] * (1.0 - cache.i[k]);
                dz[hd + k] = df * cache.f[k] * (1.0 - cache.f[k]);
                dz[2 * hd + k] = dg * (1.0 - cache.g[k] * cache.g[k]);
                dz[3 * hd + k] = do_ * cache.o[k] * (1.0 - cache.o[k]);
            }

            for (r, dzr) in dz.iter().enumerate() {
                g_b[r] += dzr;
                for (col, xv) in cache.x.iter().enumerate() {
                    g_w[r * ed + col] += dzr * xv;
                }
                for (col, hv) in cache.h_prev.iter().enumerate() {
                    g_u[r * hd + col] += dzr * hv;
                }
            }

            // dx -> embedding gradient.
            for col in 0..ed {
                let mut acc = 0.0f32;
                for (r, dzr) in dz.iter().enumerate() {
                    acc += self.w[(r, col)] * dzr;
                }
                g_emb[cache.token * ed + col] += acc;
            }

            // Propagate to the previous step.
            for k in 0..hd {
                let mut acc = 0.0f32;
                for (r, dzr) in dz.iter().enumerate() {
                    acc += self.u[(r, k)] * dzr;
                }
                dh_next[k] = acc;
                dc_next[k] = dc[k] * cache.f[k];
            }
        }

        let clip = self.config.grad_clip;
        for g in [
            &mut g_emb, &mut g_w, &mut g_u, &mut g_b, &mut g_wo, &mut g_bo,
        ] {
            for v in g.iter_mut() {
                *v = v.clamp(-clip, clip);
            }
        }

        let lr = self.config.lr;
        a_emb.step(flat_mut(&mut self.embedding), &g_emb, lr);
        a_w.step(flat_mut(&mut self.w), &g_w, lr);
        a_u.step(flat_mut(&mut self.u), &g_u, lr);
        a_b.step(&mut self.b, &g_b, lr);
        a_wo.step(flat_mut(&mut self.w_out), &g_wo, lr);
        a_bo.step(&mut self.b_out, &g_bo, lr);
    }
}

/// The per-token input projection table: row `t` is
/// `w.matvec(embedding.row(t))`, the `W·x` term of a step on token `t`.
fn project_embeddings(w: &Matrix, embedding: &Matrix) -> Box<Matrix> {
    let data = (0..embedding.rows())
        .flat_map(|t| w.matvec(embedding.row(t)))
        .collect();
    Box::new(Matrix::from_vec(embedding.rows(), w.rows(), data))
}

/// Mutable flat view of a matrix's storage (training-internal).
fn flat_mut(m: &mut Matrix) -> &mut [f32] {
    // Matrix doesn't expose mutable flat access publicly; reconstruct
    // through indices would be slow, so linalg grants the crate access.
    m.as_mut_slice()
}

impl SequenceModel for Lstm {
    fn reset(&mut self) {
        let hd = self.config.hidden;
        self.state.h = vec![0.0; hd];
        self.state.c = vec![0.0; hd];
        let logits = self.logits(&self.state.h);
        self.state.probs = softmax_clipped(&logits);
    }

    fn score_next(&mut self, token: u32) -> f64 {
        assert!(
            (token as usize) < self.config.vocab,
            "token outside vocabulary"
        );
        let p = self.state.probs[token as usize].max(1e-12);
        let score = -f64::from(p.ln());
        self.advance(token);
        score
    }

    fn vocab(&self) -> usize {
        self.config.vocab
    }
}

/// Plain softmax (training path).
fn softmax(logits: &[f32]) -> Vec<f32> {
    let m = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let exps: Vec<f32> = logits.iter().map(|&v| (v - m).exp()).collect();
    let s: f32 = exps.iter().sum();
    exps.into_iter().map(|e| e / s).collect()
}

/// Device-matching softmax: clip to ±[`LOGIT_CLIP`], exponentiate
/// without max-shifting (safe after the clip), normalize.
pub(crate) fn softmax_clipped(logits: &[f32]) -> Vec<f32> {
    let mut out = logits.to_vec();
    softmax_clipped_in_place(&mut out);
    out
}

/// [`softmax_clipped`] over a buffer that holds the logits and
/// receives the probabilities. Same operations in the same order, so
/// results are bit-identical; batch inference writes a lane's logits
/// straight into its prediction and normalizes them here.
pub(crate) fn softmax_clipped_in_place(v: &mut [f32]) {
    for e in v.iter_mut() {
        *e = e.clamp(-LOGIT_CLIP, LOGIT_CLIP).exp();
    }
    let s: f32 = v.iter().sum();
    for e in v.iter_mut() {
        *e /= s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cyclic_corpus(vocab: u32, len: usize) -> Vec<u32> {
        (0..len).map(|i| (i as u32) % vocab).collect()
    }

    #[test]
    fn training_reduces_perplexity_on_pattern() {
        let corpus = cyclic_corpus(6, 600);
        let cfg = LstmConfig::tiny(6);
        let mut untrained = Lstm::init(&cfg, 9);
        let mut trained = Lstm::train(&cfg, &corpus, 9);
        let eval = |m: &mut Lstm| -> f64 {
            m.reset();
            corpus
                .iter()
                .take(100)
                .map(|&t| m.score_next(t))
                .sum::<f64>()
                / 100.0
        };
        let before = eval(&mut untrained);
        let after = eval(&mut trained);
        assert!(
            after < before * 0.5,
            "mean NLL before {before}, after {after}"
        );
    }

    #[test]
    fn out_of_pattern_token_is_surprising() {
        let corpus = cyclic_corpus(6, 900);
        let mut lstm = Lstm::train(&LstmConfig::tiny(6), &corpus, 3);
        lstm.reset();
        // Warm into the cycle.
        for &t in corpus.iter().take(30) {
            lstm.score_next(t);
        }
        // Next in pattern: 30 % 6 == 0.
        let expected = lstm.prediction()[0];
        let wrong = lstm.prediction()[3]; // 3 never follows 5
        assert!(
            expected > wrong * 3.0,
            "p(expected)={expected} p(wrong)={wrong}"
        );
    }

    #[test]
    fn reset_restores_initial_prediction() {
        let corpus = cyclic_corpus(4, 200);
        let mut lstm = Lstm::train(&LstmConfig::tiny(4), &corpus, 1);
        lstm.reset();
        let p0 = lstm.prediction().to_vec();
        lstm.score_next(1);
        lstm.score_next(2);
        lstm.reset();
        assert_eq!(lstm.prediction(), &p0[..]);
    }

    #[test]
    fn training_is_deterministic() {
        let corpus = cyclic_corpus(5, 300);
        let cfg = LstmConfig::tiny(5);
        let mut a = Lstm::train(&cfg, &corpus, 2);
        let mut b = Lstm::train(&cfg, &corpus, 2);
        a.reset();
        b.reset();
        for t in [0u32, 1, 2, 3, 4, 0, 1] {
            assert_eq!(a.score_next(t), b.score_next(t));
        }
    }

    #[test]
    fn probs_sum_to_one() {
        let lstm = Lstm::init(&LstmConfig::tiny(7), 0);
        let s: f32 = lstm.prediction().iter().sum();
        assert!((s - 1.0).abs() < 1e-5);
        assert_eq!(lstm.prediction().len(), 7);
    }

    #[test]
    #[should_panic(expected = "outside vocabulary")]
    fn oov_token_panics() {
        let mut lstm = Lstm::init(&LstmConfig::tiny(4), 0);
        lstm.score_next(4);
    }

    #[test]
    #[should_panic(expected = "at least 2 tokens")]
    fn short_corpus_panics() {
        Lstm::train(&LstmConfig::tiny(4), &[0], 0);
    }

    /// Every row of the input projection table equals the scalar
    /// step's `W·x` for that token, bit for bit, after `init`, after
    /// `train` (which moves `w` and the embedding), and on a clone.
    #[test]
    fn wx_table_rows_match_matvec() {
        let check = |lstm: &Lstm| {
            let table = lstm.wx_table();
            assert_eq!(table.rows(), lstm.config().vocab);
            assert_eq!(table.cols(), 4 * lstm.config().hidden);
            for t in 0..lstm.config().vocab {
                let wx = lstm.w().matvec(lstm.embedding().row(t));
                let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(table.row(t)), bits(&wx), "token {t}");
            }
        };
        let cfg = LstmConfig::rtad();
        let init = Lstm::init(&cfg, 5);
        check(&init);
        let trained = Lstm::train(&cfg, &cyclic_corpus(64, 300), 5);
        assert_ne!(
            trained.w(),
            init.w(),
            "training must move the input weights"
        );
        check(&trained);
        check(&trained.clone());
    }

    #[test]
    fn dev_tanh_matches_std_tanh() {
        for x in [-3.0f32, -1.0, -0.1, 0.0, 0.1, 1.0, 3.0] {
            assert!((dev_tanh(x) - x.tanh()).abs() < 1e-5, "x={x}");
        }
    }

    #[test]
    fn clipped_softmax_handles_extreme_logits() {
        let p = softmax_clipped(&[1e9, -1e9, 0.0]);
        assert!(p.iter().all(|v| v.is_finite()));
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        assert!(p[0] > p[2] && p[2] > p[1]);
    }
}
