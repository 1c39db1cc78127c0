//! ML models for anomalous branch behavior inference.
//!
//! The paper deploys two models on RTAD (§IV-C), both trained on normal
//! SPEC CINT2006 branch behaviour only:
//!
//! * **ELM** (after Creech & Hu \[2\]) — an Extreme Learning Machine over
//!   *system-call* features: a fixed random hidden layer and a
//!   closed-form (ridge regression) output layer. We realize it as an
//!   ELM **autoencoder**: it reconstructs the syscall-histogram input,
//!   and the reconstruction error is the anomaly score — trainable from
//!   normal data alone. [`Elm`].
//! * **LSTM** (after Yi et al. \[8\]) — a recurrent next-branch model over
//!   *general branches*: embedding → LSTM cell → softmax over the branch
//!   vocabulary; the anomaly score of a branch is its negative log
//!   likelihood. Trained with truncated BPTT + Adam. [`Lstm`].
//!
//! [`kernels`] lowers ELM and LSTM inference onto the
//! [MIAOW engine](rtad_miaow): generated assembly, an LDS weight image
//! and a launch plan — the device path whose cycle counts drive Fig. 8
//! and whose coverage drives the Table II trimming.
//!
//! # Examples
//!
//! Train an LSTM on a token sequence and score a held-out stream:
//!
//! ```
//! use rtad_ml::{Lstm, LstmConfig, SequenceModel};
//!
//! let train: Vec<u32> = (0..500).map(|i| (i % 8) as u32).collect();
//! let mut lstm = Lstm::train(&LstmConfig::tiny(8), &train, 42);
//! lstm.reset();
//! // A continuation of the learned pattern scores low surprise...
//! let mut expected = 0.0;
//! for i in 0..8u32 {
//!     expected += lstm.score_next(i % 8);
//! }
//! // ...whereas a token that never follows in training scores high.
//! lstm.reset();
//! for i in 0..4u32 {
//!     lstm.score_next(i);
//! }
//! let surprise = lstm.score_next(0); // 0 never follows 3
//! assert!(surprise > expected / 8.0);
//! ```

pub mod batch;
pub mod elm;
pub mod kernels;
pub mod linalg;
pub mod lstm;
pub mod score;

pub use batch::{BatchArena, LstmLane};
pub use elm::{Elm, ElmConfig};
pub use kernels::{DeviceInference, DeviceModel, DevicePlan, ElmDevice, LstmDevice};
pub use linalg::Matrix;
pub use lstm::{Lstm, LstmConfig};
pub use score::{calibrate_threshold, Detection, ThresholdPolicy};

/// A model scoring a token stream, one event at a time (the LSTM).
///
/// `score_next` returns the *surprise* of seeing `token` given the
/// history — higher means more anomalous. Implementations carry the
/// recurrent state; call [`SequenceModel::reset`] between traces.
pub trait SequenceModel {
    /// Clears recurrent state for a fresh trace.
    fn reset(&mut self);
    /// Scores the next token and advances the state.
    fn score_next(&mut self, token: u32) -> f64;
    /// The vocabulary size this model expects.
    fn vocab(&self) -> usize;
}

/// A model scoring a dense feature vector (the ELM autoencoder).
pub trait VectorModel {
    /// Anomaly score of one input vector — higher means more anomalous.
    fn score(&self, x: &[f32]) -> f64;
    /// The input dimensionality.
    fn input_dim(&self) -> usize;
}
