//! Property tests for the ML crate: model invariants over arbitrary
//! inputs and seeds.

use proptest::prelude::*;

use rtad_ml::{Elm, ElmConfig, Lstm, LstmConfig, Matrix, SequenceModel, VectorModel};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The LSTM's standing prediction is a probability distribution for
    /// any seed and any token history.
    #[test]
    fn lstm_prediction_is_a_distribution(
        seed in any::<u64>(),
        history in proptest::collection::vec(0u32..12, 0..40),
    ) {
        let mut lstm = Lstm::init(&LstmConfig::tiny(12), seed);
        lstm.reset();
        for &t in &history {
            let s = lstm.score_next(t);
            prop_assert!(s.is_finite() && s >= 0.0, "score {s}");
        }
        let p = lstm.prediction();
        prop_assert_eq!(p.len(), 12);
        prop_assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v)));
        let sum: f32 = p.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4, "sum {sum}");
    }

    /// ELM scores are non-negative and finite for any input in the
    /// histogram simplex.
    #[test]
    fn elm_scores_are_finite_nonnegative(
        seed in any::<u64>(),
        raw in proptest::collection::vec(0.0f32..1.0, 8),
    ) {
        let data: Vec<Vec<f32>> = (0..40)
            .map(|i| {
                let mut v = vec![0.0; 8];
                v[i % 4] = 1.0;
                v
            })
            .collect();
        let elm = Elm::train(&ElmConfig::tiny(8), &data, seed);
        let total: f32 = raw.iter().sum();
        let x: Vec<f32> = if total > 0.0 {
            raw.iter().map(|v| v / total).collect()
        } else {
            vec![0.0; 8]
        };
        let s = elm.score(&x);
        prop_assert!(s.is_finite() && s >= 0.0, "score {s}");
    }

    /// Ridge regression really minimizes: its residual never exceeds the
    /// residual of the zero solution or of small random perturbations.
    #[test]
    fn ridge_solution_beats_perturbations(
        entries in proptest::collection::vec(-2.0f32..2.0, 24),
        target in proptest::collection::vec(-2.0f32..2.0, 8),
        noise in proptest::collection::vec(-0.1f32..0.1, 3),
    ) {
        let a = Matrix::from_vec(8, 3, entries);
        let b = Matrix::from_vec(8, 1, target);
        let lambda = 0.05f32;
        let x = Matrix::ridge_solve(&a, &b, lambda);

        let objective = |x: &Matrix| -> f64 {
            let pred = a.matmul(x);
            let mut o = 0f64;
            for i in 0..8 {
                let d = f64::from(pred[(i, 0)] - b[(i, 0)]);
                o += d * d;
            }
            for j in 0..3 {
                o += f64::from(lambda) * f64::from(x[(j, 0)]) * f64::from(x[(j, 0)]);
            }
            o
        };

        let obj_solution = objective(&x);
        let zero = Matrix::zeros(3, 1);
        prop_assert!(obj_solution <= objective(&zero) + 1e-4);
        let mut perturbed = x.clone();
        for (j, n) in noise.iter().enumerate() {
            perturbed[(j, 0)] += n;
        }
        prop_assert!(obj_solution <= objective(&perturbed) + 1e-4);
    }

    /// Matrix transpose is an involution and matvec agrees with matmul
    /// against a column vector.
    #[test]
    fn matrix_laws(
        entries in proptest::collection::vec(-3.0f32..3.0, 12),
        x in proptest::collection::vec(-3.0f32..3.0, 4),
    ) {
        let a = Matrix::from_vec(3, 4, entries);
        prop_assert_eq!(a.transpose().transpose(), a.clone());
        let col = Matrix::from_vec(4, 1, x.clone());
        let via_mm = a.matmul(&col);
        let via_mv = a.matvec(&x);
        for i in 0..3 {
            prop_assert!((via_mm[(i, 0)] - via_mv[i]).abs() < 1e-4);
        }
    }
}
