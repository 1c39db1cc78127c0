//! Cross-stream batched inference for the serving pipeline.
//!
//! A detection host multiplexing many victim streams scores one window
//! per stream per tick. Scoring each window with its own single-vector
//! step pays per-call dispatch and streams every weight matrix B
//! times. The batch kernels instead lay the B
//! ready windows out **one stream per lane**, as the paper's engine lays
//! inputs across the SIMD lanes of a wavefront: the operand of each
//! layer is a lane-major `k × B` buffer (element `j` of every stream's
//! vector in one contiguous row), and one [`Matrix::matmul_lanes`] per
//! layer computes all B products with the lanes along the vectorised
//! axis.
//!
//! **Bit-identity contract.** Every batched score equals the scalar
//! path's score bit for bit. `matmul_lanes` computes each output with
//! exactly [`Matrix::matvec_t_into`]'s semantics on the transpose (one
//! `f64` dot per element, accumulated in index order and rounded to
//! `f32` once); the LSTM's input-projection table holds those products
//! computed once per token; and every elementwise stage (bias add, gate nonlinearities,
//! cell update, clipped softmax, squared-error reduction) reuses the
//! scalar path's operations in the scalar path's order. The property
//! tests in `tests/batch_equivalence.rs` pin this across random batch
//! shapes; `rtad-soc`'s pipeline relies on it so batching can never
//! change a verdict.
//!
//! The LSTM side steps **in lockstep**: one [`LstmLane`] per stream
//! holds that stream's recurrent state, and one `score_next_batch` call
//! advances every lane by one token (the same timestep). Lanes are
//! independent — a stream ending mid-batch simply stops contributing a
//! lane; the others are unaffected.
//!
//! [`Matrix::matvec_t_into`]: crate::Matrix::matvec_t_into
//! [`Matrix::matmul_lanes`]: crate::Matrix::matmul_lanes

use std::iter::repeat_n;

use crate::elm::{sigmoid, Elm};
use crate::lstm::{cell_unit, softmax_clipped_in_place, Lstm};

// A serving pipeline may move to its own thread (one per traced CPU)
// together with its batch arena and per-stream LSTM lanes. Both are
// plain owned buffers, so `Send` holds structurally; the assertions
// keep it that way.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<BatchArena>();
    assert_send::<LstmLane>();
};

/// Reusable scratch for batched inference: the stacked input rows plus
/// every intermediate buffer the batch kernels need. One arena lives
/// per inference worker; after the first batch warms its buffers up to
/// the largest batch shape, scoring allocates nothing.
///
/// For ELM, callers stack windows with [`BatchArena::begin`] +
/// [`BatchArena::push_row`] and hand the arena to
/// [`Elm::score_batch_arena`]. For the LSTM,
/// [`Lstm::score_next_batch_arena`] fills the stacks itself. The same
/// arena can serve both models (the buffers are shape-agnostic).
#[derive(Debug, Default)]
pub struct BatchArena {
    /// Stacked input rows, row-major (`rows × cols`), as pushed.
    x: Vec<f32>,
    cols: usize,
    rows: usize,
    /// Lane-major operand (`k × B`): the ELM's transposed inputs, the
    /// LSTM's hidden states.
    lanes: Vec<f32>,
    /// First product, lane-major (ELM hidden layer / LSTM `U·h`).
    p1: Vec<f32>,
    /// Second product, lane-major (ELM reconstruction / LSTM logits).
    p2: Vec<f32>,
}

impl BatchArena {
    /// An empty arena; buffers grow to the steady batch shape on first
    /// use and are reused from then on.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a new input batch of `cols`-wide rows, discarding any
    /// previously stacked rows (the buffer is kept).
    pub fn begin(&mut self, cols: usize) {
        assert!(cols > 0, "arena rows need at least one column");
        self.x.clear();
        self.rows = 0;
        self.cols = cols;
    }

    /// Appends one input row to the current batch.
    ///
    /// # Panics
    ///
    /// Panics if `row` is not `cols` wide.
    pub fn push_row(&mut self, row: &[f32]) {
        assert_eq!(row.len(), self.cols, "batch row {} width", self.rows);
        self.x.extend_from_slice(row);
        self.rows += 1;
    }

    /// Rows currently stacked.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Width of the current batch's rows.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Stacked row `i` (a bit-exact copy of what was pushed).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn row(&self, i: usize) -> &[f32] {
        assert!(i < self.rows, "row {i} out of range");
        &self.x[i * self.cols..(i + 1) * self.cols]
    }
}

impl Elm {
    /// Scores a batch of feature vectors in one pass: row `b` of the
    /// result equals `self.score(xs[b])` bit for bit.
    ///
    /// Thin allocating wrapper over [`Elm::score_batch_arena`]; hot
    /// paths hold an arena and call the core directly.
    ///
    /// # Panics
    ///
    /// Panics if any vector's width differs from the input dimension.
    pub fn score_batch(&self, xs: &[&[f32]]) -> Vec<f64> {
        if xs.is_empty() {
            return Vec::new();
        }
        let input_dim = self.config().input_dim;
        let mut arena = BatchArena::new();
        arena.begin(input_dim);
        for (b, x) in xs.iter().enumerate() {
            assert_eq!(x.len(), input_dim, "batch row {b} width");
            arena.push_row(x);
        }
        let mut out = Vec::with_capacity(xs.len());
        self.score_batch_arena(&mut arena, &mut out);
        out
    }

    /// Scores the rows stacked in `arena` into `out` (cleared first),
    /// bit-identical to the ELM's
    /// [`VectorModel::score`](crate::VectorModel::score) per row. The
    /// allocation-free core: with a warmed arena and pre-sized `out`, a
    /// batch no larger than the largest seen so far never touches the
    /// heap.
    ///
    /// # Panics
    ///
    /// Panics if the arena's rows are not `input_dim` wide.
    pub fn score_batch_arena(&self, arena: &mut BatchArena, out: &mut Vec<f64>) {
        out.clear();
        let b = arena.rows;
        if b == 0 {
            return;
        }
        let input_dim = self.config().input_dim;
        assert_eq!(arena.cols, input_dim, "arena row width");
        let hidden = self.config().hidden;
        // Transpose the pushed rows so each window owns one lane.
        arena.lanes.resize(input_dim * b, 0.0);
        for (slot, row) in arena.x.chunks_exact(input_dim).enumerate() {
            for (j, &v) in row.iter().enumerate() {
                arena.lanes[j * b + slot] = v;
            }
        }
        arena.p1.resize(hidden * b, 0.0);
        self.w_in().matmul_lanes(&arena.lanes, b, &mut arena.p1);
        // Hidden unit i is row i: its bias applies to all b lanes.
        let biases = self.b_in().iter().flat_map(|bias| repeat_n(bias, b));
        for (v, bias) in arena.p1.iter_mut().zip(biases) {
            *v = sigmoid(*v + bias);
        }
        arena.p2.resize(input_dim * b, 0.0);
        self.w_out().matmul_lanes(&arena.p1, b, &mut arena.p2);
        out.reserve(b);
        for (slot, xrow) in arena.x.chunks_exact(input_dim).enumerate() {
            let rec = arena.p2[slot..].iter().step_by(b);
            out.push(
                rec.zip(xrow)
                    .map(|(r, v)| {
                        let d = f64::from(r - v);
                        d * d
                    })
                    .sum(),
            );
        }
    }
}

/// One stream's recurrent LSTM state for lockstep batch stepping: the
/// per-stream half of what [`Lstm`] keeps internally for the scalar
/// path (hidden and cell vectors plus the standing next-token
/// prediction), held in one allocation.
/// `Default` is an *empty placeholder* lane (zero-width state) used to
/// move lanes in and out of slots without allocating; it must be
/// replaced by a real lane (from [`Lstm::lane`]) before stepping.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LstmLane {
    /// `h | c | probs`: hidden and cell state (`hidden` wide each),
    /// then the standing prediction (`vocab` wide).
    state: Vec<f32>,
    hidden: usize,
}

impl LstmLane {
    /// A fresh lane: the state [`crate::SequenceModel::reset`] gives the
    /// scalar path (zero hidden/cell state, prediction from the zero
    /// state).
    pub fn new(lstm: &Lstm) -> Self {
        let hd = lstm.config().hidden;
        let mut state = vec![0.0; 2 * hd + lstm.config().vocab];
        // The prediction from the zero state, computed in place:
        // `Lstm::logits` of `h = 0`, then the clipped softmax.
        let (hc, probs) = state.split_at_mut(2 * hd);
        lstm.w_out().matmul_lanes(&hc[..hd], 1, probs);
        for (p, bo) in probs.iter_mut().zip(lstm.b_out()) {
            *p += bo;
        }
        softmax_clipped_in_place(probs);
        LstmLane { state, hidden: hd }
    }

    /// The standing next-token probability distribution (matches
    /// [`Lstm::prediction`] of a scalar model with the same history).
    pub fn prediction(&self) -> &[f32] {
        &self.state[2 * self.hidden..]
    }

    /// The hidden and cell state (for equivalence tests).
    pub fn state(&self) -> (&[f32], &[f32]) {
        self.state[..2 * self.hidden].split_at(self.hidden)
    }

    /// Hidden state, cell state and prediction, mutably.
    fn parts_mut(&mut self) -> (&mut [f32], &mut [f32], &mut [f32]) {
        let (h, rest) = self.state.split_at_mut(self.hidden);
        let (c, probs) = rest.split_at_mut(self.hidden);
        (h, c, probs)
    }

    /// Resident bytes of this lane (struct plus owned state buffer) —
    /// the per-stream recurrent-model cost in the sparse serving
    /// report's memory-per-stream accounting.
    pub fn resident_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.state.capacity() * std::mem::size_of::<f32>()
    }
}

impl Lstm {
    /// A fresh per-stream lane for [`Lstm::score_next_batch`].
    pub fn lane(&self) -> LstmLane {
        LstmLane::new(self)
    }

    /// Advances every lane by one token in lockstep and returns each
    /// lane's anomaly score, bit-identical to calling
    /// [`crate::SequenceModel::score_next`] on a scalar model carrying
    /// the same history.
    ///
    /// Each lane's `W·x` is a row of the model's per-token input
    /// projection table; `U·h` and the output logits for all `B` lanes
    /// run as single [`Matrix::matmul_lanes`] calls over the lane-major
    /// hidden states; the elementwise stages replicate the scalar step
    /// per lane.
    ///
    /// [`Matrix::matmul_lanes`]: crate::Matrix::matmul_lanes
    ///
    /// # Panics
    ///
    /// Panics if `lanes` and `tokens` disagree in length, or any token
    /// is outside the vocabulary.
    pub fn score_next_batch(&self, lanes: &mut [&mut LstmLane], tokens: &[u32]) -> Vec<f64> {
        assert_eq!(lanes.len(), tokens.len(), "one token per lane");
        let mut owned: Vec<LstmLane> = lanes.iter_mut().map(|l| std::mem::take(&mut **l)).collect();
        let idx: Vec<usize> = (0..owned.len()).collect();
        let mut arena = BatchArena::new();
        let mut out = Vec::with_capacity(tokens.len());
        self.score_next_batch_arena(&mut owned, &idx, tokens, &mut arena, &mut out);
        for (slot, lane) in lanes.iter_mut().zip(owned) {
            **slot = lane;
        }
        out
    }

    /// The allocation-free core of [`Lstm::score_next_batch`]: advances
    /// `lanes[idx[b]]` by `tokens[b]` for every batch slot `b` and
    /// pushes the per-slot scores into `out` (cleared first).
    ///
    /// Lanes are addressed by index into a caller-owned pool so no
    /// per-batch `Vec<&mut LstmLane>` is needed; with a warmed `arena`
    /// and pre-sized `out`, a batch no larger than the largest seen so
    /// far never touches the heap. Scores and lane states are
    /// bit-identical to the allocating wrapper (and hence to the scalar
    /// path).
    ///
    /// # Panics
    ///
    /// Panics if `idx` and `tokens` disagree in length, any index is
    /// out of range, or any token is outside the vocabulary.
    pub fn score_next_batch_arena(
        &self,
        lanes: &mut [LstmLane],
        idx: &[usize],
        tokens: &[u32],
        arena: &mut BatchArena,
        out: &mut Vec<f64>,
    ) {
        assert_eq!(idx.len(), tokens.len(), "one token per lane");
        out.clear();
        if idx.is_empty() {
            return;
        }
        let vocab = self.config().vocab;
        let hd = self.config().hidden;
        for &t in tokens {
            assert!((t as usize) < vocab, "token outside vocabulary");
        }

        // Scores come from each lane's standing prediction, before the
        // state advances — exactly score_next's order.
        out.reserve(idx.len());
        for (&li, &t) in idx.iter().zip(tokens) {
            let p = lanes[li].prediction()[t as usize].max(1e-12);
            out.push(-f64::from(p.ln()));
        }

        // Hprev, lane-major (hidden × B), then U·h for every lane in
        // one product (4·hidden × B).
        let b = idx.len();
        arena.lanes.resize(hd * b, 0.0);
        for (slot, &li) in idx.iter().enumerate() {
            for (j, &v) in lanes[li].state().0.iter().enumerate() {
                arena.lanes[j * b + slot] = v;
            }
        }
        arena.p1.resize(4 * hd * b, 0.0);
        self.u().matmul_lanes(&arena.lanes, b, &mut arena.p1);

        // The scalar step's elementwise stage per lane (`cell_unit`),
        // with Wx gathered from the table and Uh read from the lane's
        // column. Each new hidden state also lands in its lane of the
        // stack for the logits.
        let table = self.wx_table();
        let bias = self.b();
        let uh = &arena.p1;
        for (slot, (&li, &t)) in idx.iter().zip(tokens).enumerate() {
            let wx = table.row(t as usize);
            let (h, c, _) = lanes[li].parts_mut();
            for (j, (h, c)) in h.iter_mut().zip(c.iter_mut()).enumerate() {
                let unit = cell_unit(wx, |r| uh[r * b + slot], bias, j, *c);
                *c = unit.c;
                *h = unit.h;
                arena.lanes[j * b + slot] = *h;
            }
        }

        // Refresh every lane's prediction: one product for all logits
        // (vocab × B), biased straight into each lane's prediction.
        arena.p2.resize(vocab * b, 0.0);
        self.w_out().matmul_lanes(&arena.lanes, b, &mut arena.p2);
        for (slot, &li) in idx.iter().enumerate() {
            let (_, _, probs) = lanes[li].parts_mut();
            for (v, (p, bo)) in probs.iter_mut().zip(self.b_out()).enumerate() {
                *p = arena.p2[v * b + slot] + bo;
            }
            softmax_clipped_in_place(probs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ElmConfig, LstmConfig, SequenceModel, VectorModel};

    fn trained_elm(dim: usize) -> Elm {
        let normal: Vec<Vec<f32>> = (0..120)
            .map(|i| {
                let mut v = vec![0.0; dim];
                v[i % 3] = 0.6;
                v[(i + 1) % 3] = 0.4;
                v
            })
            .collect();
        Elm::train(&ElmConfig::tiny(dim), &normal, 5)
    }

    #[test]
    fn elm_batch_matches_scalar_bitwise() {
        let elm = trained_elm(8);
        let inputs: Vec<Vec<f32>> = (0..7)
            .map(|i| (0..8).map(|j| ((i * 8 + j) as f32).sin()).collect())
            .collect();
        let rows: Vec<&[f32]> = inputs.iter().map(Vec::as_slice).collect();
        let batched = elm.score_batch(&rows);
        for (x, s) in inputs.iter().zip(&batched) {
            assert_eq!(elm.score(x), *s, "batched ELM score must be bit-identical");
        }
    }

    #[test]
    fn elm_empty_batch_is_empty() {
        let elm = trained_elm(8);
        assert!(elm.score_batch(&[]).is_empty());
    }

    #[test]
    fn lstm_lockstep_matches_scalar_bitwise() {
        let corpus: Vec<u32> = (0..400).map(|i| (i % 6) as u32).collect();
        let lstm = Lstm::train(&LstmConfig::tiny(6), &corpus, 7);

        // Three streams with different histories, stepped in lockstep.
        let streams: [Vec<u32>; 3] = [
            (0..20).map(|i| (i % 6) as u32).collect(),
            (0..20).map(|i| ((i * 5 + 1) % 6) as u32).collect(),
            (0..20).map(|i| ((i * 2 + 3) % 6) as u32).collect(),
        ];

        let mut lanes: Vec<LstmLane> = (0..3).map(|_| lstm.lane()).collect();
        let mut batched_scores = vec![Vec::new(); 3];
        for step in 0..20 {
            let tokens: Vec<u32> = streams.iter().map(|s| s[step]).collect();
            let mut refs: Vec<&mut LstmLane> = lanes.iter_mut().collect();
            let scores = lstm.score_next_batch(&mut refs, &tokens);
            for (out, s) in batched_scores.iter_mut().zip(scores) {
                out.push(s);
            }
        }

        for (stream, batched) in streams.iter().zip(&batched_scores) {
            let mut scalar = lstm.clone();
            scalar.reset();
            for (&t, &b) in stream.iter().zip(batched) {
                assert_eq!(
                    scalar.score_next(t),
                    b,
                    "lockstep LSTM score must be bit-identical"
                );
            }
        }
    }

    #[test]
    fn lane_matches_reset_state() {
        let lstm = Lstm::init(&LstmConfig::tiny(5), 3);
        let lane = lstm.lane();
        assert_eq!(lane.prediction(), lstm.prediction());
        let (h, c) = lane.state();
        assert!(h.iter().all(|&v| v == 0.0));
        assert!(c.iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "one token per lane")]
    fn mismatched_lanes_and_tokens_panic() {
        let lstm = Lstm::init(&LstmConfig::tiny(4), 0);
        let mut lane = lstm.lane();
        let mut refs = vec![&mut lane];
        let _ = lstm.score_next_batch(&mut refs, &[0, 1]);
    }
}
