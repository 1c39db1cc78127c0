//! The LSTM next-branch model (general-branch features).
//!
//! After Yi et al., "Mimicry resilient program behavior modeling with
//! LSTM based branch models" (the paper's \[8\]): an embedding → LSTM cell
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
    /// `w · embedding[t]` (one row-order `f64` dot per output, rounded
    /// once), so a step gathers it instead of multiplying. Derived from `w`
    /// and `embedding`; rebuilt whenever they change. Boxed, like the
    /// fixed-length biases and the transposes, so the model stays small
    /// enough to sit unboxed in serving-model enums beside the ELM.
    wx_table: Box<Matrix>,
    /// `uᵀ` (`hidden × 4*hidden`): `U·h` of a single-vector step runs
    /// through [`Matrix::matvec_t_into`], one gate row per lane.
    /// Derived from `u` where `wx_table` is.
    u_t: Box<Matrix>,
    /// `w_outᵀ` (`hidden × vocab`), for the logits. Derived from
    /// `w_out` where `wx_table` is.
    w_out_t: Box<Matrix>,
    // --- inference state ---
    #[serde(skip)]
    state: CellState,
}

/// Recurrent state plus the standing next-token prediction, and the
/// `U·h` buffer a step writes before it updates `h` in place.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct CellState {
    h: Vec<f32>,
    c: Vec<f32>,
    /// softmax prediction from the current state.
    probs: Vec<f32>,
    /// `U·h_prev` of the step in flight, `4*hidden`.
    uh: Vec<f32>,
}

/// One hidden unit after a step: its gates and its new cell and hidden
/// values.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CellUnit {
    pub(crate) i: f32,
    pub(crate) f: f32,
    pub(crate) g: f32,
    pub(crate) o: f32,
    pub(crate) c: f32,
    pub(crate) h: f32,
}

/// The elementwise stage of an LSTM step for hidden unit `j`, shared by
/// the scalar step, training and the lockstep lane kernel so the three
/// cannot drift: the pre-activations `z(r) = (Wx[r] + Uh[r]) + b[r]` of
/// the unit's four gate rows, the gates (gate order i,f,g,o),
/// `c = f·c_prev + i·g` and `h = o·tanh(c)`, each in the device's
/// nonlinearities and in this order.
pub(crate) fn cell_unit(
    wx: &[f32],
    uh: impl Fn(usize) -> f32,
    b: &[f32],
    j: usize,
    c_prev: f32,
) -> CellUnit {
    let hd = b.len() / 4;
    let z = |r: usize| wx[r] + uh(r) + b[r];
    let i = sigmoid(z(j));
    let f = sigmoid(z(hd + j));
    let g = dev_tanh(z(2 * hd + j));
    let o = sigmoid(z(3 * hd + j));
    let c = f * c_prev + i * g;
    CellUnit {
        i,
        f,
        g,
        o,
        c,
        h: o * dev_tanh(c),
    }
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
            u_t: Box::new(u.transpose()),
            w_out_t: Box::new(w_out.transpose()),
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
    /// Each chunk runs forward through the single-vector step, writing
    /// every step's activations to a tape, then backward through the
    /// tape, then one Adam step per tensor. The tape, the gradients and
    /// the optimizer state are allocated once per call, so training
    /// allocates the same on any corpus length.
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
        let mut tr = Trainer::new(&lstm);
        for _epoch in 0..config.epochs {
            tr.tape.reset_state();
            let mut pos = 0usize;
            while pos + 1 < corpus.len() {
                let end = (pos + config.bptt).min(corpus.len() - 1);
                tr.forward_chunk(&lstm, &corpus[pos..=end]);
                tr.backward_chunk(&mut lstm, &corpus[pos..end]);
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
    /// `w() · embedding().row(t)` bit for bit.
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
    ///
    /// `W·x` is the token's row of the input projection table; `U·h`
    /// and the logits run through the stored transposes; the gates,
    /// the state update and the clipped softmax run in place. Nothing
    /// is allocated once [`SequenceModel::reset`] has sized the state.
    pub fn advance(&mut self, token: u32) {
        let token = token as usize;
        assert!(token < self.config.vocab, "token outside vocabulary");
        let st = &mut self.state;
        self.u_t.matvec_t_into(&st.h, &mut st.uh);
        let wx = self.wx_table.row(token);
        for (j, (h, c)) in st.h.iter_mut().zip(st.c.iter_mut()).enumerate() {
            let unit = cell_unit(wx, |r| st.uh[r], &self.b, j, *c);
            *c = unit.c;
            *h = unit.h;
        }
        self.refresh_prediction();
    }

    /// The standing prediction from the current hidden state: logits
    /// written straight into the prediction, biased, then the clipped
    /// softmax in place.
    fn refresh_prediction(&mut self) {
        let st = &mut self.state;
        self.w_out_t.matvec_t_into(&st.h, &mut st.probs);
        for (p, bo) in st.probs.iter_mut().zip(&self.b_out) {
            *p += bo;
        }
        softmax_clipped_in_place(&mut st.probs);
    }

    /// Output logits for a hidden state.
    pub fn logits(&self, h: &[f32]) -> Vec<f32> {
        let mut out = self.w_out_t.matvec_t(h);
        for (v, b) in out.iter_mut().zip(&self.b_out) {
            *v += b;
        }
        out
    }
}

/// The activations of one BPTT chunk, written by the forward pass and
/// read back by the backward pass. Rows are steps; the state tapes
/// carry one extra leading row, the state the chunk started from, so
/// row `t` is step `t`'s previous state and row `t + 1` its new one.
/// Sized for `bptt` steps once and reused by every chunk.
#[derive(Debug)]
struct Tape {
    hidden: usize,
    vocab: usize,
    /// Hidden states, `(bptt + 1) × hidden`.
    h: Vec<f32>,
    /// Cell states, `(bptt + 1) × hidden`.
    c: Vec<f32>,
    /// Gates per step, `bptt × 4*hidden` (i, f, g, o blocks).
    gates: Vec<f32>,
    /// Loss gradient w.r.t. the logits per step, `bptt × vocab`
    /// (`softmax − onehot(next)`).
    d_logits: Vec<f32>,
    /// `W·x` and `U·h` of the step in flight, `4*hidden` each.
    wx: Vec<f32>,
    uh: Vec<f32>,
    /// Steps recorded in the current chunk.
    steps: usize,
}

impl Tape {
    fn new(config: &LstmConfig) -> Self {
        let (hd, bptt) = (config.hidden, config.bptt);
        Tape {
            hidden: hd,
            vocab: config.vocab,
            h: vec![0.0; (bptt + 1) * hd],
            c: vec![0.0; (bptt + 1) * hd],
            gates: vec![0.0; bptt * 4 * hd],
            d_logits: vec![0.0; bptt * config.vocab],
            wx: vec![0.0; 4 * hd],
            uh: vec![0.0; 4 * hd],
            steps: 0,
        }
    }

    /// Zero state before the first chunk of an epoch.
    fn reset_state(&mut self) {
        self.h[..self.hidden].fill(0.0);
        self.c[..self.hidden].fill(0.0);
        self.steps = 0;
    }

    /// Carries the last chunk's final state into row 0.
    fn carry_state(&mut self) {
        let (hd, end) = (self.hidden, self.steps * self.hidden);
        self.h.copy_within(end..end + hd, 0);
        self.c.copy_within(end..end + hd, 0);
        self.steps = 0;
    }

    fn row(v: &[f32], width: usize, t: usize) -> &[f32] {
        &v[t * width..(t + 1) * width]
    }
}

/// Everything `Lstm::train` keeps across chunks: the tape, the
/// gradient and backward scratch buffers, the transpose of `w` for the
/// forward `W·x`, and Adam state per tensor (embedding, `w`, `u`, `b`,
/// `w_out`, `b_out`).
struct Trainer {
    tape: Tape,
    w_t: Matrix,
    g_emb: Vec<f32>,
    g_w: Vec<f32>,
    g_u: Vec<f32>,
    g_b: Vec<f32>,
    g_wo: Vec<f32>,
    g_bo: Vec<f32>,
    dh: Vec<f32>,
    dc: Vec<f32>,
    dz: Vec<f32>,
    dh_next: Vec<f32>,
    dc_next: Vec<f32>,
    /// Per-output `f32` sums of the `dh` / `dx` / `dh_next` reductions.
    acc_h: Vec<f32>,
    acc_x: Vec<f32>,
    adam: [Adam; 6],
}

impl Trainer {
    fn new(lstm: &Lstm) -> Self {
        let cfg = &lstm.config;
        let (hd, ed, vd) = (cfg.hidden, cfg.embed, cfg.vocab);
        Trainer {
            tape: Tape::new(cfg),
            w_t: lstm.w.transpose(),
            g_emb: vec![0.0; vd * ed],
            g_w: vec![0.0; 4 * hd * ed],
            g_u: vec![0.0; 4 * hd * hd],
            g_b: vec![0.0; 4 * hd],
            g_wo: vec![0.0; vd * hd],
            g_bo: vec![0.0; vd],
            dh: vec![0.0; hd],
            dc: vec![0.0; hd],
            dz: vec![0.0; 4 * hd],
            dh_next: vec![0.0; hd],
            dc_next: vec![0.0; hd],
            acc_h: vec![0.0; hd],
            acc_x: vec![0.0; ed],
            adam: [
                Adam::new(vd * ed),
                Adam::new(4 * hd * ed),
                Adam::new(4 * hd * hd),
                Adam::new(4 * hd),
                Adam::new(vd * hd),
                Adam::new(vd),
            ],
        }
    }

    /// Runs the chunk's steps forward from the tape's row-0 state:
    /// `tokens` holds each step's input and, one further, the last
    /// step's prediction target. Records every step's gates and state
    /// and the loss gradient w.r.t. its logits.
    fn forward_chunk(&mut self, lstm: &Lstm, tokens: &[u32]) {
        let tape = &mut self.tape;
        if tape.steps > 0 {
            tape.carry_state();
        }
        let (hd, vd) = (tape.hidden, tape.vocab);
        for (t, pair) in tokens.windows(2).enumerate() {
            let (token, next) = (pair[0] as usize, pair[1] as usize);
            let (h_prev, h_new) = tape.h[t * hd..(t + 2) * hd].split_at_mut(hd);
            let (c_prev, c_new) = tape.c[t * hd..(t + 2) * hd].split_at_mut(hd);
            // z = W x + U h + b
            self.w_t
                .matvec_t_into(lstm.embedding.row(token), &mut tape.wx);
            lstm.u_t.matvec_t_into(h_prev, &mut tape.uh);
            let gates = &mut tape.gates[t * 4 * hd..(t + 1) * 4 * hd];
            for j in 0..hd {
                let unit = cell_unit(&tape.wx, |r| tape.uh[r], &lstm.b, j, c_prev[j]);
                gates[j] = unit.i;
                gates[hd + j] = unit.f;
                gates[2 * hd + j] = unit.g;
                gates[3 * hd + j] = unit.o;
                c_new[j] = unit.c;
                h_new[j] = unit.h;
            }
            // Prediction loss against the next token.
            let d = &mut tape.d_logits[t * vd..(t + 1) * vd];
            lstm.w_out_t.matvec_t_into(h_new, d);
            for (v, b) in d.iter_mut().zip(&lstm.b_out) {
                *v += b;
            }
            softmax_in_place(d);
            d[next] -= 1.0;
        }
        tape.steps = tokens.len() - 1;
    }

    /// Back-propagates the recorded chunk (`tokens` are the steps'
    /// inputs), clips the gradients, takes one Adam step per tensor and
    /// refreshes the transposes the next forward pass reads.
    fn backward_chunk(&mut self, lstm: &mut Lstm, tokens: &[u32]) {
        let cfg = lstm.config;
        let (hd, ed, vd) = (cfg.hidden, cfg.embed, cfg.vocab);
        let tape = &self.tape;
        debug_assert_eq!(tokens.len(), tape.steps);
        let n = tape.steps as f32;

        for g in [
            &mut self.g_emb,
            &mut self.g_w,
            &mut self.g_u,
            &mut self.g_b,
            &mut self.g_wo,
            &mut self.g_bo,
            &mut self.dh_next,
            &mut self.dc_next,
        ] {
            g.fill(0.0);
        }

        for (t, &token) in tokens.iter().enumerate().rev() {
            let h = Tape::row(&tape.h, hd, t + 1);
            let h_prev = Tape::row(&tape.h, hd, t);
            let c = Tape::row(&tape.c, hd, t + 1);
            let c_prev = Tape::row(&tape.c, hd, t);
            let gates = Tape::row(&tape.gates, 4 * hd, t);
            let (i, rest) = gates.split_at(hd);
            let (f, rest) = rest.split_at(hd);
            let (g, o) = rest.split_at(hd);
            let dlog = Tape::row(&tape.d_logits, vd, t);
            let x = lstm.embedding.row(token as usize);

            // Output layer.
            for (((gbo, gwo), &dlv), wrow) in self
                .g_bo
                .iter_mut()
                .zip(self.g_wo.chunks_exact_mut(hd))
                .zip(dlog)
                .zip(lstm.w_out.as_slice().chunks_exact(hd))
            {
                let dl = dlv / n;
                *gbo += dl;
                for (gw, &hk) in gwo.iter_mut().zip(h) {
                    *gw += dl * hk;
                }
                // dh[k] gathers w_out[v][k]·dlog[v]/n over v in order;
                // the hidden units advance side by side.
                for (a, &w) in self.acc_h.iter_mut().zip(wrow) {
                    *a += w * dlv / n;
                }
            }
            for ((dh, a), dn) in self.dh.iter_mut().zip(&mut self.acc_h).zip(&self.dh_next) {
                *dh = dn + *a;
                *a = 0.0;
            }
            self.dc.copy_from_slice(&self.dc_next);

            // Cell backward.
            for k in 0..hd {
                let dh = self.dh[k];
                let tc = dev_tanh(c[k]);
                let do_ = dh * tc;
                self.dc[k] += dh * o[k] * (1.0 - tc * tc);
                let dc = self.dc[k];
                let di = dc * g[k];
                let df = dc * c_prev[k];
                let dg = dc * i[k];
                self.dz[k] = di * i[k] * (1.0 - i[k]);
                self.dz[hd + k] = df * f[k] * (1.0 - f[k]);
                self.dz[2 * hd + k] = dg * (1.0 - g[k] * g[k]);
                self.dz[3 * hd + k] = do_ * o[k] * (1.0 - o[k]);
            }

            // Gate-weight gradients, and the reductions through W and
            // U: dx[col] and dh_next[k] each sum over the gate rows in
            // order, with the outputs side by side.
            for ((((&dzr, gb), (gw, gu)), wrow), urow) in self
                .dz
                .iter()
                .zip(&mut self.g_b)
                .zip(
                    self.g_w
                        .chunks_exact_mut(ed)
                        .zip(self.g_u.chunks_exact_mut(hd)),
                )
                .zip(lstm.w.as_slice().chunks_exact(ed))
                .zip(lstm.u.as_slice().chunks_exact(hd))
            {
                *gb += dzr;
                for (gwv, &xv) in gw.iter_mut().zip(x) {
                    *gwv += dzr * xv;
                }
                for (guv, &hv) in gu.iter_mut().zip(h_prev) {
                    *guv += dzr * hv;
                }
                for (a, &w) in self.acc_x.iter_mut().zip(wrow) {
                    *a += w * dzr;
                }
                for (a, &u) in self.acc_h.iter_mut().zip(urow) {
                    *a += u * dzr;
                }
            }

            // dx -> embedding gradient.
            let ge = &mut self.g_emb[token as usize * ed..(token as usize + 1) * ed];
            for (gev, a) in ge.iter_mut().zip(&mut self.acc_x) {
                *gev += *a;
                *a = 0.0;
            }

            // Propagate to the previous step.
            self.dh_next.copy_from_slice(&self.acc_h);
            self.acc_h.fill(0.0);
            for ((dn, &dc), &fk) in self.dc_next.iter_mut().zip(&self.dc).zip(f) {
                *dn = dc * fk;
            }
        }

        let clip = cfg.grad_clip;
        let grads = [
            &mut self.g_emb,
            &mut self.g_w,
            &mut self.g_u,
            &mut self.g_b,
            &mut self.g_wo,
            &mut self.g_bo,
        ];
        for g in grads {
            for v in g.iter_mut() {
                *v = v.clamp(-clip, clip);
            }
        }

        let lr = cfg.lr;
        let [a_emb, a_w, a_u, a_b, a_wo, a_bo] = &mut self.adam;
        a_emb.step(lstm.embedding.as_mut_slice(), &self.g_emb, lr);
        a_w.step(lstm.w.as_mut_slice(), &self.g_w, lr);
        a_u.step(lstm.u.as_mut_slice(), &self.g_u, lr);
        a_b.step(&mut lstm.b, &self.g_b, lr);
        a_wo.step(lstm.w_out.as_mut_slice(), &self.g_wo, lr);
        a_bo.step(&mut lstm.b_out, &self.g_bo, lr);

        // The weights move only here: refresh what the next chunk reads.
        lstm.w.transpose_into(&mut self.w_t);
        lstm.u.transpose_into(&mut lstm.u_t);
        lstm.w_out.transpose_into(&mut lstm.w_out_t);
    }
}

/// The per-token input projection table: row `t` is
/// `w · embedding.row(t)`, the `W·x` term of a step on token `t`,
/// computed through `wᵀ` (one gate row per lane).
fn project_embeddings(w: &Matrix, embedding: &Matrix) -> Box<Matrix> {
    let w_t = w.transpose();
    let mut table = Matrix::zeros(embedding.rows(), w.rows());
    for (t, row) in table.as_mut_slice().chunks_exact_mut(w.rows()).enumerate() {
        w_t.matvec_t_into(embedding.row(t), row);
    }
    Box::new(table)
}

impl SequenceModel for Lstm {
    fn reset(&mut self) {
        let hd = self.config.hidden;
        let st = &mut self.state;
        for (v, len) in [
            (&mut st.h, hd),
            (&mut st.c, hd),
            (&mut st.probs, self.config.vocab),
            (&mut st.uh, 4 * hd),
        ] {
            v.clear();
            v.resize(len, 0.0);
        }
        self.refresh_prediction();
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

/// Plain max-shifted softmax in place (training path).
fn softmax_in_place(v: &mut [f32]) {
    let m = v.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    for e in v.iter_mut() {
        *e = (*e - m).exp();
    }
    let s: f32 = v.iter().sum();
    for e in v.iter_mut() {
        *e /= s;
    }
}

/// Device-matching softmax over a buffer that holds the logits and
/// receives the probabilities: clip to ±[`LOGIT_CLIP`], exponentiate
/// without max-shifting (safe after the clip), normalize. Scalar and
/// batch inference both write a prediction's logits straight into it
/// and normalize them here.
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
                // Row-order reference: one `f64` dot per gate row.
                let x = lstm.embedding().row(t);
                let w = lstm.w();
                let wx: Vec<f32> = (0..w.rows())
                    .map(|i| {
                        let dot = w.row(i).iter().zip(x);
                        dot.fold(0f64, |acc, (&a, &b)| acc + f64::from(a) * f64::from(b)) as f32
                    })
                    .collect();
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
        let mut p = [1e9, -1e9, 0.0];
        softmax_clipped_in_place(&mut p);
        assert!(p.iter().all(|v| v.is_finite()));
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        assert!(p[0] > p[2] && p[2] > p[1]);
    }
}
