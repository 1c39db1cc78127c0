//! The Extreme Learning Machine (syscall-feature model).
//!
//! After Creech & Hu ("A semantic approach to host-based intrusion
//! detection systems using contiguous and discontiguous system call
//! patterns", the paper's \[2\]): a single-hidden-layer network whose
//! input weights are *random and fixed* and whose output weights are
//! solved in closed form — "more lightweight than a traditional MLP
//! while providing similar accuracy".
//!
//! We train it as an **autoencoder** over syscall-window histograms
//! (the IGM's `WindowHistogram` vectors): given only normal data, the
//! output layer is the ridge solution reconstructing the input from the
//! random hidden features; anomalous syscall mixes reconstruct poorly
//! and the squared reconstruction error is the anomaly score.

use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;
use serde::{Deserialize, Serialize};

use crate::linalg::Matrix;
use crate::VectorModel;

/// Hyperparameters of an [`Elm`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ElmConfig {
    /// Input dimensionality (the syscall-histogram width).
    pub input_dim: usize,
    /// Hidden-layer width.
    pub hidden: usize,
    /// Ridge regularization for the output solve.
    pub lambda: f32,
}

impl ElmConfig {
    /// The RTAD deployment shape: 16 syscall classes, 32 hidden units —
    /// sized so one inference fits a handful of MIAOW wavefronts.
    pub fn rtad() -> Self {
        ElmConfig {
            input_dim: 16,
            hidden: 32,
            lambda: 1e-3,
        }
    }

    /// A tiny shape for fast tests.
    pub fn tiny(input_dim: usize) -> Self {
        ElmConfig {
            input_dim,
            hidden: 16,
            lambda: 1e-3,
        }
    }
}

/// A trained ELM autoencoder.
///
/// # Examples
///
/// ```
/// use rtad_ml::{Elm, ElmConfig, VectorModel};
///
/// // Normal data concentrates on the first two features.
/// let normal: Vec<Vec<f32>> = (0..200)
///     .map(|i| {
///         let mut v = vec![0.0; 8];
///         v[i % 2] = 0.7;
///         v[(i % 2) + 1] = 0.3;
///         v
///     })
///     .collect();
/// let elm = Elm::train(&ElmConfig::tiny(8), &normal, 7);
///
/// let familiar = elm.score(&normal[0]);
/// let mut weird = vec![0.0; 8];
/// weird[7] = 1.0; // a syscall mix never seen in training
/// assert!(elm.score(&weird) > familiar * 4.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Elm {
    config: ElmConfig,
    /// Random fixed input weights, `hidden × input_dim`.
    w_in: Matrix,
    /// Random fixed hidden biases.
    b_in: Vec<f32>,
    /// Solved output weights, stored transposed as
    /// `input_dim × hidden` so reconstruction is one matvec.
    w_out: Matrix,
}

impl Elm {
    /// Trains on normal feature vectors: samples the random hidden
    /// layer from `seed`, then solves the output layer in closed form.
    ///
    /// # Panics
    ///
    /// Panics if `normal` is empty or any vector has the wrong width.
    pub fn train(config: &ElmConfig, normal: &[Vec<f32>], seed: u64) -> Self {
        assert!(!normal.is_empty(), "ELM training needs data");
        let mut rng = ChaCha12Rng::seed_from_u64(seed ^ 0x454C_4D21);
        let mut w_in = Matrix::zeros(config.hidden, config.input_dim);
        w_in.randomize(&mut rng, 1.0);
        let mut b_in = Matrix::zeros(1, config.hidden);
        b_in.randomize(&mut rng, 0.5);
        let b_in: Vec<f32> = b_in.as_slice().to_vec();

        // H: n × hidden, X: n × input_dim.
        let n = normal.len();
        let mut h = Matrix::zeros(n, config.hidden);
        let mut x = Matrix::zeros(n, config.input_dim);
        for (r, v) in normal.iter().enumerate() {
            assert_eq!(v.len(), config.input_dim, "training vector {r} width");
            let hidden = hidden_features(&w_in, &b_in, v);
            for (j, hv) in hidden.iter().enumerate() {
                h[(r, j)] = *hv;
            }
            for (j, xv) in v.iter().enumerate() {
                x[(r, j)] = *xv;
            }
        }
        let w_out = Matrix::ridge_solve(&h, &x, config.lambda);

        Elm {
            config: *config,
            w_in,
            b_in,
            w_out: w_out.transpose(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &ElmConfig {
        &self.config
    }

    /// The fixed input weights (`hidden × input_dim`), for device
    /// lowering.
    pub fn w_in(&self) -> &Matrix {
        &self.w_in
    }

    /// The fixed hidden biases.
    pub fn b_in(&self) -> &[f32] {
        &self.b_in
    }

    /// The solved output weights (`input_dim × hidden` as stored), for
    /// device lowering.
    pub fn w_out(&self) -> &Matrix {
        &self.w_out
    }

    /// The hidden activations for one input (the device kernel's first
    /// stage; exposed for equivalence testing).
    pub fn hidden(&self, x: &[f32]) -> Vec<f32> {
        hidden_features(&self.w_in, &self.b_in, x)
    }

    /// The reconstruction of one input.
    pub fn reconstruct(&self, x: &[f32]) -> Vec<f32> {
        let h = self.hidden(x);
        // w_out is stored input_dim × hidden.
        self.w_out.matvec(&h)
    }
}

impl VectorModel for Elm {
    fn score(&self, x: &[f32]) -> f64 {
        assert_eq!(x.len(), self.config.input_dim, "input width");
        let rec = self.reconstruct(x);
        rec.iter()
            .zip(x)
            .map(|(r, v)| {
                let d = f64::from(r - v);
                d * d
            })
            .sum()
    }

    fn input_dim(&self) -> usize {
        self.config.input_dim
    }
}

/// sigmoid(W·x + b), shared by host and the device-lowering layout.
fn hidden_features(w: &Matrix, b: &[f32], x: &[f32]) -> Vec<f32> {
    w.matvec(x)
        .into_iter()
        .zip(b)
        .map(|(a, bias)| sigmoid(a + bias))
        .collect()
}

/// The logistic function, written exactly as the device computes it
/// (1 / (1 + e^(−x))) so host and kernel agree bit-for-bit-ish.
pub(crate) fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn normal_data(dim: usize, n: usize) -> Vec<Vec<f32>> {
        (0..n)
            .map(|i| {
                let mut v = vec![0.0; dim];
                v[i % 3] = 0.5;
                v[(i + 1) % 3] = 0.5;
                v
            })
            .collect()
    }

    #[test]
    fn training_is_deterministic_in_seed() {
        let data = normal_data(8, 100);
        let a = Elm::train(&ElmConfig::tiny(8), &data, 3);
        let b = Elm::train(&ElmConfig::tiny(8), &data, 3);
        assert_eq!(a, b);
        let c = Elm::train(&ElmConfig::tiny(8), &data, 4);
        assert_ne!(a, c);
    }

    #[test]
    fn normal_reconstructs_well() {
        let data = normal_data(8, 200);
        let elm = Elm::train(&ElmConfig::tiny(8), &data, 1);
        for v in data.iter().take(10) {
            assert!(elm.score(v) < 1e-3, "score {}", elm.score(v));
        }
    }

    #[test]
    fn anomalies_score_higher_than_normal() {
        let data = normal_data(8, 200);
        let elm = Elm::train(&ElmConfig::tiny(8), &data, 1);
        let normal_max = data.iter().map(|v| elm.score(v)).fold(0.0f64, f64::max);
        let mut anomaly = vec![0.0; 8];
        anomaly[6] = 0.5;
        anomaly[7] = 0.5;
        assert!(elm.score(&anomaly) > normal_max * 2.0);
    }

    #[test]
    fn hidden_dim_matches_config() {
        let data = normal_data(8, 50);
        let elm = Elm::train(&ElmConfig::tiny(8), &data, 0);
        assert_eq!(elm.hidden(&data[0]).len(), 16);
        assert_eq!(elm.reconstruct(&data[0]).len(), 8);
        assert_eq!(elm.input_dim(), 8);
    }

    #[test]
    #[should_panic(expected = "needs data")]
    fn empty_training_set_panics() {
        Elm::train(&ElmConfig::tiny(4), &[], 0);
    }

    #[test]
    #[should_panic(expected = "width")]
    fn wrong_width_vector_panics() {
        let data = normal_data(8, 50);
        let elm = Elm::train(&ElmConfig::tiny(8), &data, 0);
        elm.score(&[0.0; 4]);
    }

    #[test]
    fn sigmoid_is_bounded_and_monotone() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-6);
        assert!(sigmoid(10.0) > 0.999);
        assert!(sigmoid(-10.0) < 0.001);
        assert!(sigmoid(1.0) > sigmoid(0.5));
    }
}
