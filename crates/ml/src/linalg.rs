//! Minimal dense linear algebra for the ML models.
//!
//! Row-major `f32` matrices with the handful of operations the models
//! need: products (among them the lane-major batch product
//! [`Matrix::matmul_lanes`] and its single-vector counterpart
//! [`Matrix::matvec_t_into`]), transpose, and a ridge-regularized
//! least-squares solver (the ELM's closed-form training step).
//! Accumulations run in `f64` for stability; storage stays `f32` to
//! match what the device kernels compute.

use std::fmt;
use std::ops::{Index, IndexMut};

use serde::{Deserialize, Serialize};

/// A row-major dense matrix of `f32`.
///
/// # Examples
///
/// ```
/// use rtad_ml::Matrix;
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let x = vec![1.0, 1.0];
/// // `aᵀ · x`; `a.transpose().matvec_t(&x)` is `a · x`.
/// assert_eq!(a.matvec_t(&x), vec![4.0, 6.0]);
/// assert_eq!(a.transpose().matvec_t(&x), vec![3.0, 7.0]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

/// Lanes per block in [`Matrix::matmul_lanes`]: eight `f64`
/// accumulators, one per lane, fill four SSE2 registers and give four
/// independent add chains.
const LANE_BLOCK: usize = 8;

/// Output columns per block in [`Matrix::matvec_t_into`]: sixteen `f64`
/// accumulators, eight SSE2 registers, eight independent add chains.
const COL_BLOCK: usize = 16;

impl Matrix {
    /// A `rows × cols` zero matrix.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds from row slices.
    ///
    /// # Panics
    ///
    /// Panics on empty input or ragged rows.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        assert!(!rows.is_empty(), "matrix needs at least one row");
        let cols = rows[0].len();
        assert!(cols > 0, "matrix needs at least one column");
        let mut m = Matrix::zeros(rows.len(), cols);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r.len(), cols, "ragged row {i}");
            m.data[i * cols..(i + 1) * cols].copy_from_slice(r);
        }
        m
    }

    /// Builds from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length mismatch");
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        Matrix { rows, cols, data }
    }

    /// The identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The flat row-major data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat row-major data (in-place updates by optimizers).
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn row(&self, i: usize) -> &[f32] {
        assert!(i < self.rows, "row {i} out of range");
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// `selfᵀ * x` (saves materializing the transpose in hot paths).
    /// Allocating wrapper over [`Matrix::matvec_t_into`].
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != rows`.
    pub fn matvec_t(&self, x: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0; self.cols];
        self.matvec_t_into(x, &mut out);
        out
    }

    /// `selfᵀ * x` into a caller-owned buffer of exactly `cols`
    /// elements: the single-vector product with **one output per
    /// lane**.
    ///
    /// Output `j` is one `f64` sum from `+0.0` over the rows in order,
    /// `x[0]·self[0][j] + x[1]·self[1][j] + …`, rounded to `f32` once —
    /// the [`Matrix::matmul_lanes`] contract. So for `t = m.transpose()`,
    /// `t.matvec_t_into(x, out)` is `m · x`, each output one row-order
    /// `f64` dot rounded once.
    /// Storing a weight matrix transposed and multiplying through this
    /// kernel lets the independent outputs advance side by side: blocks
    /// of `COL_BLOCK` columns keep their accumulators in vector
    /// registers while each row contributes one contiguous slice,
    /// instead of one latency-bound add chain per output row.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != rows` or `out.len() != cols`.
    pub fn matvec_t_into(&self, x: &[f32], out: &mut [f32]) {
        assert_eq!(x.len(), self.rows, "matvec_t dimension mismatch");
        assert_eq!(out.len(), self.cols, "matvec_t output length");
        let full = self.cols - self.cols % COL_BLOCK;
        for (c0, oblock) in (0..full)
            .step_by(COL_BLOCK)
            .zip(out.chunks_exact_mut(COL_BLOCK))
        {
            let mut acc = [0f64; COL_BLOCK];
            for (&xv, row) in x.iter().zip(self.data.chunks_exact(self.cols)) {
                let xi = f64::from(xv);
                let ws: &[f32; COL_BLOCK] = row[c0..c0 + COL_BLOCK]
                    .try_into()
                    .expect("block inside the row");
                for (a, &w) in acc.iter_mut().zip(ws) {
                    *a += xi * f64::from(w);
                }
            }
            for (o, a) in oblock.iter_mut().zip(acc) {
                *o = a as f32;
            }
        }
        let tail = &mut out[full..];
        if !tail.is_empty() {
            let mut acc = [0f64; COL_BLOCK];
            let acc = &mut acc[..tail.len()];
            for (&xv, row) in x.iter().zip(self.data.chunks_exact(self.cols)) {
                let xi = f64::from(xv);
                for (a, &w) in acc.iter_mut().zip(&row[full..]) {
                    *a += xi * f64::from(w);
                }
            }
            for (o, &a) in tail.iter_mut().zip(acc.iter()) {
                *o = a as f32;
            }
        }
    }

    /// Matrix product `self · X` for a **lane-major** operand: `x` is
    /// `cols × lanes` row-major, so column `b` is lane `b`'s input
    /// vector and each row holds one input element for every lane. The
    /// `rows × lanes` result goes to `out`, lane-major as well.
    ///
    /// This is the batched-inference primitive, with one stream per
    /// lane as in a wavefront. Every output element is one `f64` dot
    /// product accumulated in column order and rounded to `f32` once.
    /// Each `f32 × f32` product is exact in `f64`, so column `b` of the
    /// result equals `self.transpose().matvec_t(column b of x)` bit for
    /// bit, whatever the lane count. (Plain [`Matrix::matmul`] rounds to `f32` after
    /// every accumulation step — different semantics, kept for the
    /// training path that was tuned against it.)
    ///
    /// Full blocks of eight lanes (`LANE_BLOCK`) advance together along
    /// the contiguous axis, which LLVM vectorises on the baseline SSE2
    /// target. The remaining `lanes % LANE_BLOCK` lanes run one at a
    /// time, four output rows per pass, so a small batch still has four
    /// independent accumulator chains instead of one latency-bound one.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero, `x.len() != cols * lanes`, or
    /// `out.len() != rows * lanes`.
    pub fn matmul_lanes(&self, x: &[f32], lanes: usize, out: &mut [f32]) {
        assert!(lanes > 0, "matmul_lanes needs at least one lane");
        assert_eq!(x.len(), self.cols * lanes, "matmul_lanes operand shape");
        assert_eq!(out.len(), self.rows * lanes, "matmul_lanes output shape");
        let k = self.cols;
        let full = lanes - lanes % LANE_BLOCK;
        for (wrow, orow) in self.data.chunks_exact(k).zip(out.chunks_exact_mut(lanes)) {
            for b0 in (0..full).step_by(LANE_BLOCK) {
                let mut acc = [0f64; LANE_BLOCK];
                for (&w, xrow) in wrow.iter().zip(x.chunks_exact(lanes)) {
                    let w = f64::from(w);
                    let xs: &[f32; LANE_BLOCK] = xrow[b0..b0 + LANE_BLOCK]
                        .try_into()
                        .expect("block inside the row");
                    for (a, &v) in acc.iter_mut().zip(xs) {
                        *a += w * f64::from(v);
                    }
                }
                for (o, a) in orow[b0..b0 + LANE_BLOCK].iter_mut().zip(acc) {
                    *o = a as f32;
                }
            }
        }
        for b in full..lanes {
            let mut wgroups = self.data.chunks_exact(4 * k);
            let mut row = 0;
            for wg in wgroups.by_ref() {
                let (w0, rest) = wg.split_at(k);
                let (w1, rest) = rest.split_at(k);
                let (w2, w3) = rest.split_at(k);
                let (mut s0, mut s1, mut s2, mut s3) = (0f64, 0f64, 0f64, 0f64);
                for ((((xrow, a0), a1), a2), a3) in
                    x.chunks_exact(lanes).zip(w0).zip(w1).zip(w2).zip(w3)
                {
                    let xv = f64::from(xrow[b]);
                    s0 += f64::from(*a0) * xv;
                    s1 += f64::from(*a1) * xv;
                    s2 += f64::from(*a2) * xv;
                    s3 += f64::from(*a3) * xv;
                }
                out[row * lanes + b] = s0 as f32;
                out[(row + 1) * lanes + b] = s1 as f32;
                out[(row + 2) * lanes + b] = s2 as f32;
                out[(row + 3) * lanes + b] = s3 as f32;
                row += 4;
            }
            for wrow in wgroups.remainder().chunks_exact(k) {
                let mut acc = 0f64;
                for (a, xrow) in wrow.iter().zip(x.chunks_exact(lanes)) {
                    acc += f64::from(*a) * f64::from(xrow[b]);
                }
                out[row * lanes + b] = acc as f32;
                row += 1;
            }
        }
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Panics
    ///
    /// Panics if inner dimensions disagree.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "matmul dimension mismatch");
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        // ikj order with the inner loop over zipped row slices: the same
        // accumulation order (and the same per-step f32 rounding) as the
        // indexed original, without a bounds check per element.
        for (arow, orow) in self
            .data
            .chunks_exact(self.cols)
            .zip(out.data.chunks_exact_mut(rhs.cols))
        {
            for (&aik, brow) in arow.iter().zip(rhs.data.chunks_exact(rhs.cols)) {
                let a = f64::from(aik);
                if a == 0.0 {
                    continue;
                }
                for (o, &b) in orow.iter_mut().zip(brow) {
                    *o = (f64::from(*o) + a * f64::from(b)) as f32;
                }
            }
        }
        out
    }

    /// The transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        self.transpose_into(&mut out);
        out
    }

    /// The transpose into an existing `cols × rows` matrix, so a
    /// derived transpose can be refreshed without allocating.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not `cols × rows`.
    pub fn transpose_into(&self, out: &mut Matrix) {
        assert!(
            out.rows == self.cols && out.cols == self.rows,
            "transpose_into shape"
        );
        for (i, row) in self.data.chunks_exact(self.cols).enumerate() {
            for (o, &v) in out.data[i..].iter_mut().step_by(self.rows).zip(row) {
                *o = v;
            }
        }
    }

    /// Solves the ridge-regularized least-squares problem
    /// `min ‖A·X − B‖² + λ‖X‖²` via the normal equations
    /// `(AᵀA + λI) X = AᵀB` with Gauss–Jordan elimination in `f64`.
    ///
    /// This is the ELM's entire training step.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch, non-positive `lambda` when the
    /// normal matrix is singular, or a singular system.
    pub fn ridge_solve(a: &Matrix, b: &Matrix, lambda: f32) -> Matrix {
        assert_eq!(a.rows, b.rows, "ridge_solve: A and B row mismatch");
        let n = a.cols;
        // M = AᵀA + λI (n×n), R = AᵀB (n×b.cols), in f64.
        let mut m = vec![0f64; n * n];
        for r in 0..a.rows {
            let row = a.row(r);
            for i in 0..n {
                let ai = f64::from(row[i]);
                if ai == 0.0 {
                    continue;
                }
                for j in 0..n {
                    m[i * n + j] += ai * f64::from(row[j]);
                }
            }
        }
        for i in 0..n {
            m[i * n + i] += f64::from(lambda);
        }
        let bc = b.cols;
        let mut r = vec![0f64; n * bc];
        for row_i in 0..a.rows {
            let arow = a.row(row_i);
            let brow = b.row(row_i);
            for i in 0..n {
                let ai = f64::from(arow[i]);
                if ai == 0.0 {
                    continue;
                }
                for j in 0..bc {
                    r[i * bc + j] += ai * f64::from(brow[j]);
                }
            }
        }

        // Gauss–Jordan with partial pivoting on [M | R].
        for col in 0..n {
            let pivot = (col..n)
                .max_by(|&x, &y| {
                    m[x * n + col]
                        .abs()
                        .partial_cmp(&m[y * n + col].abs())
                        .expect("no NaNs in normal matrix")
                })
                .expect("non-empty pivot range");
            assert!(
                m[pivot * n + col].abs() > 1e-12,
                "singular system in ridge_solve (increase lambda)"
            );
            if pivot != col {
                for j in 0..n {
                    m.swap(col * n + j, pivot * n + j);
                }
                for j in 0..bc {
                    r.swap(col * bc + j, pivot * bc + j);
                }
            }
            let d = m[col * n + col];
            for j in 0..n {
                m[col * n + j] /= d;
            }
            for j in 0..bc {
                r[col * bc + j] /= d;
            }
            for row_i in 0..n {
                if row_i == col {
                    continue;
                }
                let f = m[row_i * n + col];
                if f == 0.0 {
                    continue;
                }
                for j in 0..n {
                    m[row_i * n + j] -= f * m[col * n + j];
                }
                for j in 0..bc {
                    r[row_i * bc + j] -= f * r[col * bc + j];
                }
            }
        }
        Matrix::from_vec(n, bc, r.into_iter().map(|v| v as f32).collect())
    }

    /// Fills with samples from `U(-scale, scale)` using the given RNG.
    pub fn randomize<R: rand::Rng>(&mut self, rng: &mut R, scale: f32) {
        for v in &mut self.data {
            *v = rng.gen_range(-scale..scale);
        }
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;
    fn index(&self, (i, j): (usize, usize)) -> &f32 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of range"
        );
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f32 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of range"
        );
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{}:", self.rows, self.cols)?;
        for i in 0..self.rows.min(8) {
            write!(f, "  [")?;
            for j in 0..self.cols.min(8) {
                write!(f, " {:9.4}", self[(i, j)])?;
            }
            writeln!(f, "{}]", if self.cols > 8 { " ..." } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  ...")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The unblocked row-order reference `m · x`: output `i` is one
    /// `f64` dot of row `i` with `x` in index order, rounded to `f32`
    /// once. The product kernels are checked against it.
    fn matvec(m: &Matrix, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), m.cols(), "reference dimension mismatch");
        (0..m.rows())
            .map(|i| {
                let mut acc = 0f64;
                for (j, &xv) in x.iter().enumerate() {
                    acc += f64::from(m[(i, j)]) * f64::from(xv);
                }
                acc as f32
            })
            .collect()
    }

    #[test]
    fn matvec_and_transpose_agree() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let x = vec![1.0, 0.0, -1.0];
        assert_eq!(matvec(&a, &x), vec![-2.0, -2.0]);
        assert_eq!(a.transpose().matvec_t(&x), vec![-2.0, -2.0]);
        let y = vec![1.0, 1.0];
        assert_eq!(a.matvec_t(&y), matvec(&a.transpose(), &y));
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.matmul(&Matrix::identity(2)), a);
        assert_eq!(Matrix::identity(2).matmul(&a), a);
    }

    #[test]
    fn ridge_solve_recovers_exact_solution() {
        // Overdetermined consistent system: X should recover W.
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0], &[2.0, -1.0]]);
        let w = Matrix::from_rows(&[&[3.0], &[-2.0]]);
        let b = a.matmul(&w);
        let x = Matrix::ridge_solve(&a, &b, 1e-6);
        assert!((x[(0, 0)] - 3.0).abs() < 1e-3);
        assert!((x[(1, 0)] - (-2.0)).abs() < 1e-3);
    }

    #[test]
    fn ridge_solve_handles_rank_deficiency_with_lambda() {
        // Two identical columns: singular without regularization.
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[2.0, 2.0], &[3.0, 3.0]]);
        let b = Matrix::from_rows(&[&[2.0], &[4.0], &[6.0]]);
        let x = Matrix::ridge_solve(&a, &b, 0.1);
        // Symmetric solution: both weights ≈ 1.
        assert!((x[(0, 0)] - x[(1, 0)]).abs() < 1e-4);
        let pred = a.matmul(&x);
        assert!((pred[(0, 0)] - 2.0).abs() < 0.1);
    }

    #[test]
    #[should_panic(expected = "singular system")]
    fn ridge_solve_rejects_singular_without_lambda() {
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[2.0, 2.0]]);
        let b = Matrix::from_rows(&[&[1.0], &[2.0]]);
        let _ = Matrix::ridge_solve(&a, &b, 0.0);
    }

    #[test]
    #[should_panic(expected = "matvec_t dimension mismatch")]
    fn matvec_checks_dims() {
        Matrix::identity(2).matvec_t(&[1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_rejected() {
        Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]);
    }

    #[test]
    fn randomize_fills_in_range() {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(1);
        let mut m = Matrix::zeros(8, 8);
        m.randomize(&mut rng, 0.5);
        assert!(m.as_slice().iter().all(|v| v.abs() < 0.5));
        assert!(m.as_slice().iter().any(|v| *v != 0.0));
    }

    #[test]
    fn display_is_nonempty() {
        let s = format!("{}", Matrix::identity(3));
        assert!(s.contains("Matrix 3x3"));
    }

    /// The iterator-based hot loops must be bit-identical to the
    /// straightforward indexed formulation they replaced (same
    /// accumulation order, same f32 rounding points).
    #[test]
    fn hot_loops_match_indexed_reference() {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(7);
        let mut a = Matrix::zeros(13, 9);
        a.randomize(&mut rng, 2.0);
        let mut b = Matrix::zeros(9, 11);
        b.randomize(&mut rng, 2.0);
        // Sprinkle zeros so matmul's skip branch is exercised.
        a[(0, 0)] = 0.0;
        a[(5, 3)] = 0.0;
        let x: Vec<f32> = (0..9).map(|i| i as f32 * 0.3 - 1.0).collect();
        let y: Vec<f32> = (0..13).map(|i| i as f32 * 0.2 - 1.3).collect();

        assert_eq!(a.transpose().matvec_t(&x), matvec(&a, &x));

        let mut mvt_ref = vec![0f64; a.cols()];
        for i in 0..a.rows() {
            for (j, o) in mvt_ref.iter_mut().enumerate() {
                *o += f64::from(y[i]) * f64::from(a[(i, j)]);
            }
        }
        let mvt_ref: Vec<f32> = mvt_ref.into_iter().map(|v| v as f32).collect();
        assert_eq!(a.matvec_t(&y), mvt_ref);

        let mut mm_ref = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for k in 0..a.cols() {
                let av = f64::from(a[(i, k)]);
                if av == 0.0 {
                    continue;
                }
                for j in 0..b.cols() {
                    mm_ref[(i, j)] = (f64::from(mm_ref[(i, j)]) + av * f64::from(b[(k, j)])) as f32;
                }
            }
        }
        assert_eq!(a.matmul(&b), mm_ref);
    }

    /// Lane `b` of a lane-major operand (column `b` of a `k × lanes`
    /// row-major buffer).
    fn lane(x: &[f32], lanes: usize, b: usize) -> Vec<f32> {
        x.chunks_exact(lanes).map(|row| row[b]).collect()
    }

    /// Column `b` of `matmul_lanes` must equal the row-order reference
    /// on lane `b` bit for bit — the contract batched inference relies
    /// on.
    #[test]
    fn matmul_lanes_columns_match_matvec() {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(11);
        let mut w = Matrix::zeros(5, 9);
        w.randomize(&mut rng, 3.0);
        let mut xs = Matrix::zeros(9, 19);
        xs.randomize(&mut rng, 3.0);
        let mut out = vec![0.0; 5 * 19];
        w.matmul_lanes(xs.as_slice(), 19, &mut out);
        for b in 0..19 {
            assert_eq!(
                lane(&out, 19, b),
                matvec(&w, &lane(xs.as_slice(), 19, b)),
                "lane {b}"
            );
        }
    }

    /// `matmul_lanes` must be bit-identical to the unblocked reference
    /// (one `f64` dot per element, rounded once) at odd and even row
    /// counts, at every lane count from one lane to past eight full
    /// lane blocks, and on signed zeros and subnormals.
    #[test]
    fn matmul_lanes_matches_unblocked_reference() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(23);
        let specials = [0.0f32, -0.0, f32::MIN_POSITIVE / 4.0, -1e-40, 1e-45];
        for &(n, k) in &[(1, 1), (4, 3), (7, 9), (16, 16), (33, 20), (64, 16)] {
            for lanes in 1..=70 {
                let mut w = Matrix::zeros(n, k);
                w.randomize(&mut rng, 3.0);
                let mut x = vec![0.0f32; k * lanes];
                for v in &mut x {
                    *v = if rng.gen_range(0..4) == 0 {
                        specials[rng.gen_range(0..specials.len())]
                    } else {
                        rng.gen_range(-3.0..3.0)
                    };
                }
                // Signed zeros and subnormals on the weight side too.
                w[(0, 0)] = -0.0;
                w[(n - 1, k - 1)] = 1e-44;
                let mut reference = vec![0.0f32; n * lanes];
                for i in 0..n {
                    for b in 0..lanes {
                        let mut acc = 0f64;
                        for kk in 0..k {
                            acc += f64::from(w[(i, kk)]) * f64::from(x[kk * lanes + b]);
                        }
                        reference[i * lanes + b] = acc as f32;
                    }
                }
                let mut out = vec![f32::NAN; n * lanes]; // dirty: every slot is written
                w.matmul_lanes(&x, lanes, &mut out);
                let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&out),
                    bits(&reference),
                    "shape ({n},{k}) × {lanes} lanes"
                );
            }
        }
    }

    /// `matvec_t_into` must be bit-identical to the unblocked reference
    /// (one `f64` sum per output over the rows in order, rounded once)
    /// at odd and even shapes on both sides of the column block, and on
    /// signed zeros and subnormals; and `m.transpose()` through it must
    /// equal the row-order reference on `m` — the identity the stored
    /// transposes rely on.
    #[test]
    fn matvec_t_into_matches_unblocked_reference() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(31);
        let specials = [0.0f32, -0.0, f32::MIN_POSITIVE / 4.0, -1e-40, 1e-45];
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        for &(n, k) in &[
            (1, 1),
            (3, 4),
            (7, 9),
            (16, 15),
            (16, 16),
            (9, 17),
            (16, 32),
            (20, 33),
            (16, 64),
            (64, 16),
            (5, 70),
        ] {
            let mut m = Matrix::zeros(n, k);
            m.randomize(&mut rng, 3.0);
            m[(0, 0)] = -0.0;
            m[(n - 1, k - 1)] = 1e-44;
            let mut x = vec![0.0f32; n];
            for v in &mut x {
                *v = if rng.gen_range(0..3) == 0 {
                    specials[rng.gen_range(0..specials.len())]
                } else {
                    rng.gen_range(-3.0..3.0)
                };
            }
            let reference: Vec<f32> = (0..k)
                .map(|j| {
                    let mut acc = 0f64;
                    for (i, &xv) in x.iter().enumerate() {
                        acc += f64::from(xv) * f64::from(m[(i, j)]);
                    }
                    acc as f32
                })
                .collect();
            let mut out = vec![f32::NAN; k]; // dirty: every slot is written
            m.matvec_t_into(&x, &mut out);
            assert_eq!(bits(&out), bits(&reference), "shape ({n},{k})");
            assert_eq!(bits(&m.matvec_t(&x)), bits(&reference), "shape ({n},{k})");
            // All-signed-zero input: every sum starts from +0.0.
            let zeros = vec![-0.0f32; n];
            m.matvec_t_into(&zeros, &mut out);
            assert!(out.iter().all(|v| v.to_bits() == 0), "shape ({n},{k})");

            let t = m.transpose();
            let mut via_t = vec![f32::NAN; k];
            t.transpose().matvec_t_into(&x, &mut via_t);
            assert_eq!(bits(&via_t), bits(&reference), "shape ({n},{k})");
            let y: Vec<f32> = (0..k).map(|j| x[j % n] * 0.5 - 0.25).collect();
            let mut rows = vec![f32::NAN; n];
            t.matvec_t_into(&y, &mut rows);
            assert_eq!(bits(&rows), bits(&matvec(&m, &y)), "shape ({n},{k})");
        }
    }

    #[test]
    #[should_panic(expected = "matvec_t output length")]
    fn matvec_t_into_checks_output_length() {
        let mut out = vec![0.0; 3];
        Matrix::identity(2).matvec_t_into(&[1.0, 2.0], &mut out);
    }

    #[test]
    #[should_panic(expected = "matmul_lanes operand shape")]
    fn matmul_lanes_checks_shapes() {
        let mut out = vec![0.0; 4];
        Matrix::identity(2).matmul_lanes(&[1.0, 2.0, 3.0], 2, &mut out);
    }
}
