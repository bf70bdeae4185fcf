//! Small dense dynamically-sized matrices and the LDLᵀ factorization.
//!
//! Rigid body dynamics needs an `n×n` joint-space mass matrix (`n` = number
//! of joints, at most a few dozen for the robots in the paper) and its
//! inverse. An LDLᵀ factorization is used instead of Cholesky because it
//! needs no square roots — important for running the same code path in
//! fixed-point arithmetic.

use crate::Scalar;
use core::fmt;
use core::ops::{Index, IndexMut};

/// Error returned when a factorization or solve fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FactorizeError {
    /// A pivot was zero or non-positive where positive-definiteness was
    /// required (matrix is singular or not positive definite).
    NotPositiveDefinite {
        /// Index of the offending pivot.
        pivot: usize,
    },
    /// Dimension mismatch between operands.
    DimensionMismatch,
}

impl fmt::Display for FactorizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NotPositiveDefinite { pivot } => {
                write!(f, "matrix is not positive definite (pivot {pivot})")
            }
            Self::DimensionMismatch => write!(f, "operand dimensions do not match"),
        }
    }
}

impl std::error::Error for FactorizeError {}

/// A dense row-major matrix with run-time dimensions.
///
/// # Examples
///
/// ```
/// use robo_spatial::MatN;
///
/// let mut m = MatN::<f64>::identity(3);
/// m[(0, 2)] = 5.0;
/// let y = m.mul_vec(&[1.0, 2.0, 3.0]);
/// assert_eq!(y, vec![16.0, 2.0, 3.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MatN<S> {
    rows: usize,
    cols: usize,
    data: Vec<S>,
}

impl<S: Scalar> MatN<S> {
    /// A `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![S::zero(); rows * cols],
        }
    }

    /// The `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut out = Self::zeros(n, n);
        for i in 0..n {
            out[(i, i)] = S::one();
        }
        out
    }

    /// Builds a matrix from a row-major slice.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_row_major(rows: usize, cols: usize, data: &[S]) -> Self {
        assert_eq!(data.len(), rows * cols, "row-major data length mismatch");
        Self {
            rows,
            cols,
            data: data.to_vec(),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// A borrowed view of the underlying row-major data.
    pub fn as_slice(&self) -> &[S] {
        &self.data
    }

    /// A mutable view of the underlying row-major data.
    pub fn as_mut_slice(&mut self) -> &mut [S] {
        &mut self.data
    }

    /// Converts between scalar types through `f64`.
    pub fn cast<T: Scalar>(&self) -> MatN<T> {
        MatN {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|x| T::from_f64(x.to_f64())).collect(),
        }
    }

    /// Matrix–vector product.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    pub fn mul_vec(&self, v: &[S]) -> Vec<S> {
        assert_eq!(v.len(), self.cols, "mul_vec dimension mismatch");
        let mut out = vec![S::zero(); self.rows];
        for i in 0..self.rows {
            let mut acc = S::zero();
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            for (a, b) in row.iter().zip(v.iter()) {
                acc += *a * *b;
            }
            out[i] = acc;
        }
        out
    }

    /// Matrix–vector product written into `out`, which is resized as
    /// needed. Steady-state reuse of the same `out` performs no heap
    /// allocation. Produces bit-identical results to [`MatN::mul_vec`].
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    pub fn mul_vec_into(&self, v: &[S], out: &mut Vec<S>) {
        assert_eq!(v.len(), self.cols, "mul_vec dimension mismatch");
        out.clear();
        out.resize(self.rows, S::zero());
        for i in 0..self.rows {
            let mut acc = S::zero();
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            for (a, b) in row.iter().zip(v.iter()) {
                acc += *a * *b;
            }
            out[i] = acc;
        }
    }

    /// Reshapes to `rows × cols` and sets every entry to zero, reusing the
    /// existing storage when its capacity allows.
    pub fn resize_zeroed(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, S::zero());
    }

    /// Matrix–matrix product.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions do not match.
    pub fn mul_mat(&self, rhs: &MatN<S>) -> MatN<S> {
        assert_eq!(self.cols, rhs.rows, "mul_mat dimension mismatch");
        let mut out = MatN::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == S::zero() {
                    continue;
                }
                for j in 0..rhs.cols {
                    out[(i, j)] += a * rhs[(k, j)];
                }
            }
        }
        out
    }

    /// Computes `out = (−self) · rhs` without materializing the negated
    /// matrix, writing into `out` (resized as needed).
    ///
    /// The loop order, accumulation order, and the skip of zero entries all
    /// replicate [`MatN::mul_mat`] applied to an explicitly negated copy of
    /// `self`, so the result is bit-identical to that two-step form.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions do not match.
    pub fn neg_mul_mat_into(&self, rhs: &MatN<S>, out: &mut MatN<S>) {
        assert_eq!(self.cols, rhs.rows, "mul_mat dimension mismatch");
        out.resize_zeroed(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = -self[(i, k)];
                if a == S::zero() {
                    continue;
                }
                for j in 0..rhs.cols {
                    out[(i, j)] += a * rhs[(k, j)];
                }
            }
        }
    }

    /// The transpose.
    pub fn transpose(&self) -> MatN<S> {
        let mut out = MatN::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// Maximum absolute difference from `other`, as `f64`.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn max_abs_diff(&self, other: &MatN<S>) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (a.to_f64() - b.to_f64()).abs())
            .fold(0.0, f64::max)
    }

    /// Largest absolute entry, as `f64`.
    pub fn max_abs(&self) -> f64 {
        self.data
            .iter()
            .map(|a| a.abs().to_f64())
            .fold(0.0, f64::max)
    }

    /// Whether the matrix is symmetric to within `tol` (in `f64`).
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                if (self[(i, j)].to_f64() - self[(j, i)].to_f64()).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Computes the LDLᵀ factorization of a symmetric positive-definite
    /// matrix.
    ///
    /// # Errors
    ///
    /// Returns [`FactorizeError::NotPositiveDefinite`] if a pivot is not
    /// strictly positive, and [`FactorizeError::DimensionMismatch`] if the
    /// matrix is not square.
    pub fn ldlt(&self) -> Result<Ldlt<S>, FactorizeError> {
        if self.rows != self.cols {
            return Err(FactorizeError::DimensionMismatch);
        }
        let n = self.rows;
        let mut l = MatN::identity(n);
        let mut d = vec![S::zero(); n];
        for j in 0..n {
            // d_j = A_jj − Σ_{k<j} L_jk² d_k
            let mut dj = self[(j, j)];
            for k in 0..j {
                dj -= l[(j, k)] * l[(j, k)] * d[k];
            }
            if dj.to_f64() <= 0.0 {
                return Err(FactorizeError::NotPositiveDefinite { pivot: j });
            }
            d[j] = dj;
            for i in (j + 1)..n {
                let mut v = self[(i, j)];
                for k in 0..j {
                    v -= l[(i, k)] * l[(j, k)] * d[k];
                }
                l[(i, j)] = v / dj;
            }
        }
        Ok(Ldlt { l, d })
    }

    /// Inverts a symmetric positive-definite matrix via LDLᵀ.
    ///
    /// # Errors
    ///
    /// See [`MatN::ldlt`].
    pub fn inverse_spd(&self) -> Result<MatN<S>, FactorizeError> {
        let f = self.ldlt()?;
        let n = self.rows;
        let mut out = MatN::zeros(n, n);
        let mut e = vec![S::zero(); n];
        for j in 0..n {
            e.iter_mut().for_each(|x| *x = S::zero());
            e[j] = S::one();
            let col = f.solve(&e)?;
            for i in 0..n {
                out[(i, j)] = col[i];
            }
        }
        Ok(out)
    }
}

/// The LDLᵀ factorization of a symmetric positive-definite matrix, produced
/// by [`MatN::ldlt`].
#[derive(Debug, Clone)]
pub struct Ldlt<S> {
    l: MatN<S>,
    d: Vec<S>,
}

impl<S: Scalar> Ldlt<S> {
    /// Solves `A x = b` given the factorization of `A`.
    ///
    /// # Errors
    ///
    /// Returns [`FactorizeError::DimensionMismatch`] if `b.len()` differs
    /// from the factored dimension.
    pub fn solve(&self, b: &[S]) -> Result<Vec<S>, FactorizeError> {
        let mut y = b.to_vec();
        self.solve_in_place(&mut y)?;
        Ok(y)
    }

    /// Solves `A x = b` in place: on entry `b` holds the right-hand side,
    /// on successful return it holds the solution. No heap allocation.
    ///
    /// # Errors
    ///
    /// Returns [`FactorizeError::DimensionMismatch`] if `b.len()` differs
    /// from the factored dimension (in which case `b` is untouched).
    pub fn solve_in_place(&self, b: &mut [S]) -> Result<(), FactorizeError> {
        let n = self.d.len();
        if b.len() != n {
            return Err(FactorizeError::DimensionMismatch);
        }
        // Forward substitution: L y = b.
        for i in 0..n {
            for k in 0..i {
                let lik = self.l[(i, k)];
                b[i] -= lik * b[k];
            }
        }
        // Diagonal: D z = y.
        for i in 0..n {
            b[i] /= self.d[i];
        }
        // Back substitution: Lᵀ x = z.
        for i in (0..n).rev() {
            for k in (i + 1)..n {
                let lki = self.l[(k, i)];
                b[i] -= lki * b[k];
            }
        }
        Ok(())
    }

    /// The unit lower-triangular factor `L`.
    pub fn l(&self) -> &MatN<S> {
        &self.l
    }

    /// The diagonal factor `D`.
    pub fn d(&self) -> &[S] {
        &self.d
    }
}

impl<S: Scalar> Index<(usize, usize)> for MatN<S> {
    type Output = S;

    fn index(&self, (i, j): (usize, usize)) -> &S {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl<S: Scalar> IndexMut<(usize, usize)> for MatN<S> {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut S {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd(n: usize, seed: u64) -> MatN<f64> {
        // A A^T + n·I is symmetric positive definite.
        let mut state = seed;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        let mut a = MatN::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                a[(i, j)] = next();
            }
        }
        let mut m = a.mul_mat(&a.transpose());
        for i in 0..n {
            m[(i, i)] += n as f64;
        }
        m
    }

    #[test]
    fn mul_vec_basics() {
        let m = MatN::from_row_major(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m.mul_vec(&[1.0, 1.0, 1.0]), vec![6.0, 15.0]);
    }

    #[test]
    fn ldlt_reconstructs() {
        let m = spd(6, 3);
        let f = m.ldlt().unwrap();
        // L D Lᵀ = M.
        let n = m.rows();
        let mut d = MatN::zeros(n, n);
        for i in 0..n {
            d[(i, i)] = f.d()[i];
        }
        let rebuilt = f.l().mul_mat(&d).mul_mat(&f.l().transpose());
        assert!(rebuilt.max_abs_diff(&m) < 1e-10);
    }

    #[test]
    fn solve_matches_direct() {
        let m = spd(7, 11);
        let b: Vec<f64> = (0..7).map(|i| (i as f64) - 3.0).collect();
        let x = m.ldlt().unwrap().solve(&b).unwrap();
        let back = m.mul_vec(&x);
        for (bi, yi) in b.iter().zip(back.iter()) {
            assert!((bi - yi).abs() < 1e-10);
        }
    }

    #[test]
    fn inverse_spd_round_trip() {
        let m = spd(5, 17);
        let inv = m.inverse_spd().unwrap();
        let eye = m.mul_mat(&inv);
        assert!(eye.max_abs_diff(&MatN::identity(5)) < 1e-10);
    }

    #[test]
    fn non_spd_rejected() {
        let mut m = MatN::<f64>::identity(3);
        m[(2, 2)] = -1.0;
        assert_eq!(
            m.ldlt().unwrap_err(),
            FactorizeError::NotPositiveDefinite { pivot: 2 }
        );
    }

    #[test]
    fn non_square_rejected() {
        let m = MatN::<f64>::zeros(2, 3);
        assert_eq!(m.ldlt().unwrap_err(), FactorizeError::DimensionMismatch);
    }

    #[test]
    fn symmetry_check() {
        let m = spd(4, 23);
        assert!(m.is_symmetric(1e-12));
        let mut asym = m.clone();
        asym[(0, 1)] += 1.0;
        assert!(!asym.is_symmetric(1e-12));
    }

    #[test]
    fn transpose_shape() {
        let m = MatN::<f64>::zeros(2, 5);
        let t = m.transpose();
        assert_eq!((t.rows(), t.cols()), (5, 2));
    }

    #[test]
    fn mul_vec_into_matches_allocating() {
        let m = spd(6, 29);
        let v: Vec<f64> = (0..6).map(|i| 0.7 * i as f64 - 2.0).collect();
        let mut out = Vec::new();
        for _ in 0..3 {
            m.mul_vec_into(&v, &mut out);
            assert_eq!(out, m.mul_vec(&v));
        }
        // Reused buffer of the wrong size is corrected.
        let mut wrong = vec![9.0; 11];
        m.mul_vec_into(&v, &mut wrong);
        assert_eq!(wrong, m.mul_vec(&v));
    }

    #[test]
    fn neg_mul_mat_into_matches_negated_mul_mat() {
        let a = spd(5, 31);
        let b = spd(5, 37);
        let mut negated = a.clone();
        for i in 0..5 {
            for j in 0..5 {
                negated[(i, j)] = -negated[(i, j)];
            }
        }
        let expected = negated.mul_mat(&b);
        let mut out = MatN::zeros(1, 1);
        for _ in 0..2 {
            a.neg_mul_mat_into(&b, &mut out);
            assert_eq!(out, expected);
        }
    }

    #[test]
    fn solve_in_place_matches_solve() {
        let m = spd(7, 41);
        let f = m.ldlt().unwrap();
        let b: Vec<f64> = (0..7).map(|i| (i as f64) * 0.3 - 1.0).collect();
        let mut x = b.clone();
        f.solve_in_place(&mut x).unwrap();
        assert_eq!(x, f.solve(&b).unwrap());
        let mut short = vec![0.0; 3];
        assert_eq!(
            f.solve_in_place(&mut short).unwrap_err(),
            FactorizeError::DimensionMismatch
        );
    }

    #[test]
    fn resize_zeroed_clears_and_reshapes() {
        let mut m = spd(4, 43);
        m.resize_zeroed(2, 6);
        assert_eq!((m.rows(), m.cols()), (2, 6));
        assert_eq!(m.max_abs(), 0.0);
    }
}
