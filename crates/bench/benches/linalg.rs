//! Criterion microbenchmarks of the `rtad-ml` linear-algebra hot loops
//! (matvec / matvec_t / matmul, and the lane-major batch product
//! matmul_lanes) at the shapes the deployed models use: the ELM's
//! 16→64 hidden layer and the LSTM's gate matrices. These are the
//! host-side training/inference kernels; the simulated engine path is
//! benched separately in `engine.rs`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use rtad_ml::Matrix;

/// A deterministic dense matrix (no RNG dependency in the bench body).
fn dense(rows: usize, cols: usize, salt: u64) -> Matrix {
    let data: Vec<f32> = (0..rows * cols)
        .map(|i| {
            let x = (i as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(salt);
            ((x >> 40) as f32 / 16_777_216.0) - 0.5
        })
        .collect();
    Matrix::from_vec(rows, cols, data)
}

fn dense_vec(n: usize, salt: u64) -> Vec<f32> {
    (0..n)
        .map(|i| {
            let x = (i as u64)
                .wrapping_mul(0xD134_2543_DE82_EF95)
                .wrapping_add(salt);
            ((x >> 40) as f32 / 16_777_216.0) - 0.5
        })
        .collect()
}

fn bench_matvec(c: &mut Criterion) {
    let mut group = c.benchmark_group("linalg_matvec");
    // (rows, cols): ELM hidden layer, LSTM gate block, a square case.
    for &(rows, cols) in &[(64usize, 16usize), (64, 32), (96, 96)] {
        let m = dense(rows, cols, 1);
        let x = dense_vec(cols, 2);
        let xt = dense_vec(rows, 3);
        group.bench_with_input(
            BenchmarkId::new("matvec", format!("{rows}x{cols}")),
            &m,
            |b, m| b.iter(|| m.matvec(&x)),
        );
        group.bench_with_input(
            BenchmarkId::new("matvec_t", format!("{rows}x{cols}")),
            &m,
            |b, m| b.iter(|| m.matvec_t(&xt)),
        );
    }
    group.finish();
}

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("linalg_matmul");
    for &n in &[16usize, 48, 96] {
        let a = dense(n, n, 4);
        let b_m = dense(n, n, 5);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| a.matmul(&b_m));
        });
    }
    // The sparse-skip path: half the lhs entries are exactly zero.
    let mut sparse = dense(64, 64, 6);
    for (i, v) in sparse.as_mut_slice().iter_mut().enumerate() {
        if i % 2 == 0 {
            *v = 0.0;
        }
    }
    let rhs = dense(64, 64, 7);
    group.bench_function("64_half_zero_lhs", |b| b.iter(|| sparse.matmul(&rhs)));
    group.finish();
}

/// The batched-inference product at serving batch sizes: one lane
/// (remainder path only), one full 8-lane block, the `dense_lstm`
/// benchmark's mean batch (five blocks plus four remainder lanes), and
/// a full 64-stream batch. Shapes are the deployed models' layers; the
/// reported time covers the whole batch.
fn bench_matmul_lanes(c: &mut Criterion) {
    let mut group = c.benchmark_group("linalg_matmul_lanes");
    // (rows, cols): ELM hidden layer (32×16), LSTM gates / logits (64×16).
    for &(rows, cols) in &[(32usize, 16usize), (64, 16)] {
        let w = dense(rows, cols, 8);
        for &lanes in &[1usize, 8, 44, 64] {
            let x = dense_vec(cols * lanes, 9);
            let mut out = vec![0.0f32; rows * lanes];
            group.bench_function(BenchmarkId::new(format!("{rows}x{cols}"), lanes), |b| {
                b.iter(|| w.matmul_lanes(&x, lanes, &mut out));
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_matvec, bench_matmul, bench_matmul_lanes);
criterion_main!(benches);
