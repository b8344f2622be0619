//! Stack-allocated dense matrices with const-generic dimensions.
//!
//! These are the linear-algebra workhorses of the 15-state error-state EKF in
//! `imufit-estimator`. They are deliberately simple: row-major `[[f64; C]; R]`
//! storage, no allocation, and only the operations the filter needs (products,
//! transposes, symmetrization, Cholesky factorization for tests and for
//! multi-dimensional updates).

use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub, SubAssign};

use crate::vec3::Vec3;

/// A dense `R x C` matrix of `f64` stored row-major on the stack.
///
/// # Example
///
/// ```
/// use imufit_math::SMatrix;
///
/// let a = SMatrix::<2, 3>::from_rows([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]);
/// let b = a.transpose();
/// let p = a * b; // 2x2
/// assert_eq!(p[(0, 0)], 14.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SMatrix<const R: usize, const C: usize> {
    data: [[f64; C]; R],
}

/// A column vector with `N` elements.
pub type SVector<const N: usize> = SMatrix<N, 1>;

impl<const R: usize, const C: usize> Default for SMatrix<R, C> {
    fn default() -> Self {
        Self::zeros()
    }
}

impl<const R: usize, const C: usize> SMatrix<R, C> {
    /// The all-zeros matrix.
    pub const fn zeros() -> Self {
        SMatrix {
            data: [[0.0; C]; R],
        }
    }

    /// Builds a matrix from rows.
    pub const fn from_rows(rows: [[f64; C]; R]) -> Self {
        SMatrix { data: rows }
    }

    /// Builds a matrix by evaluating `f(row, col)` for every element.
    pub fn from_fn(mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Self::zeros();
        for r in 0..R {
            for c in 0..C {
                m.data[r][c] = f(r, c);
            }
        }
        m
    }

    /// Number of rows.
    pub const fn nrows(&self) -> usize {
        R
    }

    /// Number of columns.
    pub const fn ncols(&self) -> usize {
        C
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> SMatrix<C, R> {
        SMatrix::<C, R>::from_fn(|r, c| self.data[c][r])
    }

    /// Multiplies every element by `s`.
    pub fn scale(&self, s: f64) -> Self {
        Self::from_fn(|r, c| self.data[r][c] * s)
    }

    /// Copies `block` into this matrix with its top-left corner at
    /// `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the block does not fit.
    pub fn set_block<const BR: usize, const BC: usize>(
        &mut self,
        row: usize,
        col: usize,
        block: &SMatrix<BR, BC>,
    ) {
        assert!(row + BR <= R && col + BC <= C, "block out of range");
        for r in 0..BR {
            for c in 0..BC {
                self.data[row + r][col + c] = block.data[r][c];
            }
        }
    }

    /// Extracts the `BR x BC` block whose top-left corner is at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the block does not fit.
    pub fn block<const BR: usize, const BC: usize>(
        &self,
        row: usize,
        col: usize,
    ) -> SMatrix<BR, BC> {
        assert!(row + BR <= R && col + BC <= C, "block out of range");
        SMatrix::<BR, BC>::from_fn(|r, c| self.data[row + r][col + c])
    }

    /// The row-major storage, borrowed, for kernels that walk rows directly.
    pub fn rows(&self) -> &[[f64; C]; R] {
        &self.data
    }

    /// The row-major storage, mutably borrowed, for in-place kernels.
    pub fn rows_mut(&mut self) -> &mut [[f64; C]; R] {
        &mut self.data
    }

    /// True if every element is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().flatten().all(|v| v.is_finite())
    }

    /// Largest absolute element.
    pub fn max_abs(&self) -> f64 {
        self.data
            .iter()
            .flatten()
            .fold(0.0_f64, |acc, v| acc.max(v.abs()))
    }
}

impl<const N: usize> SMatrix<N, N> {
    /// The identity matrix.
    pub fn identity() -> Self {
        Self::from_fn(|r, c| if r == c { 1.0 } else { 0.0 })
    }

    /// A diagonal matrix with the given diagonal entries.
    pub fn from_diagonal(diag: [f64; N]) -> Self {
        Self::from_fn(|r, c| if r == c { diag[r] } else { 0.0 })
    }

    /// Returns `(self + self^T) / 2`, forcing exact symmetry. Used to keep
    /// EKF covariances symmetric in the face of floating-point drift.
    pub fn symmetrize(&self) -> Self {
        Self::from_fn(|r, c| 0.5 * (self.data[r][c] + self.data[c][r]))
    }

    /// Sum of diagonal elements.
    pub fn trace(&self) -> f64 {
        (0..N).map(|i| self.data[i][i]).sum()
    }

    /// The diagonal as an array.
    pub fn diagonal(&self) -> [f64; N] {
        let mut d = [0.0; N];
        for (i, di) in d.iter_mut().enumerate() {
            *di = self.data[i][i];
        }
        d
    }

    /// Cholesky factorization `self = L * L^T` for a symmetric
    /// positive-definite matrix. Returns the lower-triangular factor `L`, or
    /// `None` if the matrix is not positive definite.
    pub fn cholesky(&self) -> Option<Self> {
        let mut l = Self::zeros();
        for i in 0..N {
            for j in 0..=i {
                let mut sum = self.data[i][j];
                for k in 0..j {
                    sum -= l.data[i][k] * l.data[j][k];
                }
                if i == j {
                    if sum <= 0.0 || !sum.is_finite() {
                        return None;
                    }
                    l.data[i][j] = sum.sqrt();
                } else {
                    l.data[i][j] = sum / l.data[j][j];
                }
            }
        }
        Some(l)
    }

    /// Solves `self * x = b` via Cholesky factorization. Returns `None` if
    /// the matrix is not symmetric positive definite.
    #[allow(clippy::needless_range_loop)] // triangular index math reads clearer indexed
    pub fn solve(&self, b: &SVector<N>) -> Option<SVector<N>> {
        let l = self.cholesky()?;
        // Forward substitution: L y = b.
        let mut y = [0.0; N];
        for i in 0..N {
            let mut sum = b.data[i][0];
            for k in 0..i {
                sum -= l.data[i][k] * y[k];
            }
            y[i] = sum / l.data[i][i];
        }
        // Back substitution: L^T x = y.
        let mut x = [0.0; N];
        for i in (0..N).rev() {
            let mut sum = y[i];
            for k in (i + 1)..N {
                sum -= l.data[k][i] * x[k];
            }
            x[i] = sum / l.data[i][i];
        }
        Some(SVector::from_column(x))
    }
}

impl<const N: usize> SVector<N> {
    /// Builds a column vector from an array.
    pub fn from_column(col: [f64; N]) -> Self {
        Self::from_fn(|r, _| col[r])
    }

    /// The elements as an array.
    pub fn to_column(&self) -> [f64; N] {
        let mut out = [0.0; N];
        for (i, oi) in out.iter_mut().enumerate() {
            *oi = self.data[i][0];
        }
        out
    }

    /// Element access (shorthand for `self[(i, 0)]`).
    pub fn at(&self, i: usize) -> f64 {
        self.data[i][0]
    }

    /// Mutable element access.
    pub fn at_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.data[i][0]
    }

    /// Dot product between two vectors.
    pub fn dot(&self, rhs: &Self) -> f64 {
        (0..N).map(|i| self.data[i][0] * rhs.data[i][0]).sum()
    }

    /// Euclidean norm.
    pub fn norm(&self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Reads three consecutive elements into a [`Vec3`].
    ///
    /// # Panics
    ///
    /// Panics if `start + 3 > N`.
    pub fn segment3(&self, start: usize) -> Vec3 {
        assert!(start + 3 <= N, "segment out of range");
        Vec3::new(
            self.data[start][0],
            self.data[start + 1][0],
            self.data[start + 2][0],
        )
    }

    /// Writes a [`Vec3`] into three consecutive elements.
    ///
    /// # Panics
    ///
    /// Panics if `start + 3 > N`.
    pub fn set_segment3(&mut self, start: usize, v: Vec3) {
        assert!(start + 3 <= N, "segment out of range");
        self.data[start][0] = v.x;
        self.data[start + 1][0] = v.y;
        self.data[start + 2][0] = v.z;
    }
}

impl<const R: usize, const C: usize> Index<(usize, usize)> for SMatrix<R, C> {
    type Output = f64;
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        &self.data[r][c]
    }
}

impl<const R: usize, const C: usize> IndexMut<(usize, usize)> for SMatrix<R, C> {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        &mut self.data[r][c]
    }
}

impl<const R: usize, const C: usize> Add for SMatrix<R, C> {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Self::from_fn(|r, c| self.data[r][c] + rhs.data[r][c])
    }
}

impl<const R: usize, const C: usize> AddAssign for SMatrix<R, C> {
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl<const R: usize, const C: usize> Sub for SMatrix<R, C> {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        Self::from_fn(|r, c| self.data[r][c] - rhs.data[r][c])
    }
}

impl<const R: usize, const C: usize> SubAssign for SMatrix<R, C> {
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}

impl<const R: usize, const C: usize> Neg for SMatrix<R, C> {
    type Output = Self;
    fn neg(self) -> Self {
        self.scale(-1.0)
    }
}

impl<const R: usize, const K: usize, const C: usize> Mul<SMatrix<K, C>> for SMatrix<R, K> {
    type Output = SMatrix<R, C>;
    fn mul(self, rhs: SMatrix<K, C>) -> SMatrix<R, C> {
        let mut out = SMatrix::<R, C>::zeros();
        for r in 0..R {
            for k in 0..K {
                let a = self.data[r][k];
                if a == 0.0 {
                    continue;
                }
                for c in 0..C {
                    out.data[r][c] += a * rhs.data[k][c];
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_multiplication() {
        let i = SMatrix::<4, 4>::identity();
        let m = SMatrix::<4, 4>::from_fn(|r, c| (r * 4 + c) as f64);
        assert_eq!(i * m, m);
        assert_eq!(m * i, m);
    }

    #[test]
    fn rectangular_product_dimensions() {
        let a = SMatrix::<2, 3>::from_rows([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]);
        let b = SMatrix::<3, 2>::from_rows([[7.0, 8.0], [9.0, 10.0], [11.0, 12.0]]);
        let p = a * b;
        assert_eq!(
            p,
            SMatrix::<2, 2>::from_rows([[58.0, 64.0], [139.0, 154.0]])
        );
    }

    #[test]
    fn transpose_round_trip() {
        let a = SMatrix::<3, 5>::from_fn(|r, c| (r * 10 + c) as f64);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose()[(4, 2)], a[(2, 4)]);
    }

    #[test]
    fn blocks() {
        let mut m = SMatrix::<4, 4>::zeros();
        let b = SMatrix::<2, 2>::from_rows([[1.0, 2.0], [3.0, 4.0]]);
        m.set_block(1, 2, &b);
        assert_eq!(m[(1, 2)], 1.0);
        assert_eq!(m[(2, 3)], 4.0);
        assert_eq!(m.block::<2, 2>(1, 2), b);
    }

    #[test]
    #[should_panic(expected = "block out of range")]
    fn block_out_of_range_panics() {
        let m = SMatrix::<3, 3>::zeros();
        let _ = m.block::<2, 2>(2, 2);
    }

    #[test]
    fn symmetrize_forces_symmetry() {
        let m = SMatrix::<3, 3>::from_rows([[1.0, 2.0, 3.0], [0.0, 5.0, 6.0], [1.0, 0.0, 9.0]]);
        let s = m.symmetrize();
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(s[(r, c)], s[(c, r)]);
            }
        }
        assert_eq!(s.trace(), m.trace());
    }

    #[test]
    fn cholesky_of_spd() {
        // A = L0 * L0^T with a known L0.
        let l0 = SMatrix::<3, 3>::from_rows([[2.0, 0.0, 0.0], [1.0, 3.0, 0.0], [0.5, -1.0, 1.5]]);
        let a = l0 * l0.transpose();
        let l = a.cholesky().expect("SPD");
        let diff = (l * l.transpose()) - a;
        assert!(diff.max_abs() < 1e-12);
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let m = SMatrix::<2, 2>::from_rows([[1.0, 2.0], [2.0, 1.0]]); // eigenvalues 3, -1
        assert!(m.cholesky().is_none());
    }

    #[test]
    fn solve_linear_system() {
        let a = SMatrix::<3, 3>::from_rows([[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]]);
        let x_true = SVector::from_column([1.0, -2.0, 3.0]);
        let b = a * x_true;
        let x = a.solve(&b).expect("solvable");
        assert!((x - x_true).max_abs() < 1e-12);
    }

    #[test]
    fn vector_helpers() {
        let mut v = SVector::<6>::zeros();
        v.set_segment3(3, Vec3::new(1.0, 2.0, 3.0));
        assert_eq!(v.segment3(3), Vec3::new(1.0, 2.0, 3.0));
        assert_eq!(v.at(4), 2.0);
        *v.at_mut(0) = 5.0;
        assert_eq!(v.to_column()[0], 5.0);
        assert!((v.norm() - (25.0_f64 + 1.0 + 4.0 + 9.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn finiteness_and_max_abs() {
        let mut m = SMatrix::<2, 2>::identity();
        assert!(m.is_finite());
        assert_eq!(m.max_abs(), 1.0);
        m[(0, 1)] = f64::NAN;
        assert!(!m.is_finite());
    }

    #[test]
    fn row_views_alias_the_storage() {
        let mut m = SMatrix::<2, 3>::from_rows([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]);
        assert_eq!(m.rows()[1], [4.0, 5.0, 6.0]);
        m.rows_mut()[0][2] = 9.0;
        assert_eq!(m[(0, 2)], 9.0);
    }

    #[test]
    fn diagonal_constructor() {
        let d = SMatrix::<3, 3>::from_diagonal([1.0, 2.0, 3.0]);
        assert_eq!(d.diagonal(), [1.0, 2.0, 3.0]);
        assert_eq!(d.trace(), 6.0);
        assert_eq!(d[(0, 1)], 0.0);
    }
}
