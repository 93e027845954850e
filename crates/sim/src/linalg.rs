//! Dense linear algebra: the [`Scalar`] field trait and one partial-pivot
//! LU over real and complex matrices.
//!
//! Analog cells are 10–100 devices (§3.1 of the tutorial), so the MNA
//! systems the flow solves are small; dense LU with partial pivoting is both
//! simpler and faster than sparse machinery at this scale. [`Matrix`] is
//! generic over [`Scalar`], so one elimination loop serves real DC and
//! complex AC/noise solves alike.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub};

/// A complex number, used by AC analysis, AWE and symbolic evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Zero.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// One.
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };
    /// The imaginary unit.
    pub const I: Complex = Complex { re: 0.0, im: 1.0 };

    /// Creates a complex number from rectangular parts.
    pub fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// A purely real value.
    pub fn real(re: f64) -> Self {
        Complex { re, im: 0.0 }
    }

    /// Magnitude `|z|`.
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared magnitude, cheaper than [`Complex::abs`] when comparing.
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Phase angle in radians.
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Complex conjugate.
    pub fn conj(self) -> Self {
        Complex {
            re: self.re,
            im: -self.im,
        }
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when inverting an exact zero.
    pub fn inv(self) -> Self {
        let d = self.norm_sqr();
        debug_assert!(d > 0.0, "inverting zero complex number");
        Complex {
            re: self.re / d,
            im: -self.im / d,
        }
    }

    /// Principal square root.
    pub fn sqrt(self) -> Self {
        let r = self.abs();
        let re = ((r + self.re) / 2.0).max(0.0).sqrt();
        let im = ((r - self.re) / 2.0).max(0.0).sqrt();
        Complex {
            re,
            im: if self.im < 0.0 { -im } else { im },
        }
    }

    /// True when either part is NaN or infinite.
    pub fn is_bad(self) -> bool {
        !(self.re.is_finite() && self.im.is_finite())
    }
}

impl fmt::Display for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

impl From<f64> for Complex {
    fn from(re: f64) -> Self {
        Complex::real(re)
    }
}

impl Add for Complex {
    type Output = Complex;
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for Complex {
    fn add_assign(&mut self, rhs: Complex) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Complex {
    type Output = Complex;
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex {
    type Output = Complex;
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Mul<f64> for Complex {
    type Output = Complex;
    fn mul(self, rhs: f64) -> Complex {
        Complex::new(self.re * rhs, self.im * rhs)
    }
}

impl Div for Complex {
    type Output = Complex;
    // Division as multiplication by the reciprocal is the standard complex
    // formulation, not a typo.
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn div(self, rhs: Complex) -> Complex {
        self * rhs.inv()
    }
}

impl Neg for Complex {
    type Output = Complex;
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

/// Field element the dense and sparse LUs are generic over: `f64` for
/// DC/transient, [`Complex`] for AC/noise.
pub trait Scalar: Copy + PartialEq + std::fmt::Debug + Send + Sync + 'static {
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// Magnitude used for sparse threshold-pivot comparisons.
    fn mag(self) -> f64;
    /// Cheapest monotone stand-in for the magnitude, which the dense
    /// partial-pivot search ranks rows by: `|x|` for reals, `|z|²` for
    /// complex values.
    fn pivot_key(self) -> f64;
    /// True when the value is finite in every component.
    fn finite(self) -> bool;
    /// `self + rhs`.
    fn add(self, rhs: Self) -> Self;
    /// `self − rhs`.
    fn sub(self, rhs: Self) -> Self;
    /// `self · rhs`.
    fn mul(self, rhs: Self) -> Self;
    /// `self / rhs`.
    fn div(self, rhs: Self) -> Self;
    /// Componentwise scaling by a real factor. The CSC kernel only calls
    /// this with exact powers of two (equilibration), where it is exact.
    fn scale(self, f: f64) -> Self;
    /// True when both values have the same bits in every component and
    /// none is NaN: the factor-reuse key of the CSC kernel, under which
    /// `+0` and `-0` differ and a NaN never matches.
    fn same_bits(self, other: Self) -> bool;
}

impl Scalar for f64 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    fn mag(self) -> f64 {
        self.abs()
    }
    fn pivot_key(self) -> f64 {
        self.abs()
    }
    fn finite(self) -> bool {
        self.is_finite()
    }
    fn add(self, rhs: Self) -> Self {
        self + rhs
    }
    fn sub(self, rhs: Self) -> Self {
        self - rhs
    }
    fn mul(self, rhs: Self) -> Self {
        self * rhs
    }
    fn div(self, rhs: Self) -> Self {
        self / rhs
    }
    fn scale(self, f: f64) -> Self {
        self * f
    }
    fn same_bits(self, other: Self) -> bool {
        self.to_bits() == other.to_bits() && !self.is_nan()
    }
}

impl Scalar for Complex {
    const ZERO: Self = Complex::ZERO;
    const ONE: Self = Complex::ONE;
    fn mag(self) -> f64 {
        self.abs()
    }
    fn pivot_key(self) -> f64 {
        self.norm_sqr()
    }
    fn finite(self) -> bool {
        !self.is_bad()
    }
    fn add(self, rhs: Self) -> Self {
        self + rhs
    }
    fn sub(self, rhs: Self) -> Self {
        self - rhs
    }
    fn mul(self, rhs: Self) -> Self {
        self * rhs
    }
    fn div(self, rhs: Self) -> Self {
        self * rhs.inv()
    }
    fn scale(self, f: f64) -> Self {
        Complex {
            re: self.re * f,
            im: self.im * f,
        }
    }
    fn same_bits(self, other: Self) -> bool {
        self.re.same_bits(other.re) && self.im.same_bits(other.im)
    }
}

/// Dense row-major matrix over a [`Scalar`]: real (`Matrix`) for DC and
/// the linearized network, [`Complex`] for AC, noise and AWE residues.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix<T = f64> {
    n_rows: usize,
    n_cols: usize,
    data: Vec<T>,
}

impl<T: Scalar> Matrix<T> {
    /// Zero matrix of the given shape.
    pub fn zeros(n_rows: usize, n_cols: usize) -> Self {
        Matrix {
            n_rows,
            n_cols,
            data: vec![T::ZERO; n_rows * n_cols],
        }
    }

    /// Identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = T::ONE;
        }
        m
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// In-place LU factorization with partial pivoting, kept for many
    /// right-hand sides.
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrix`] when a pivot underflows.
    pub fn lu(mut self) -> Result<Lu<T>, SingularMatrix> {
        let mut perm: Vec<usize> = (0..self.n_rows).collect();
        let mut sign = 1.0;
        self.eliminate(&mut [], |k, p| {
            perm.swap(k, p);
            sign = -sign;
        })?;
        Ok(Lu {
            lu: self,
            perm,
            sign,
        })
    }

    /// Solves `A x = b` once, consuming the matrix: the right-hand side
    /// rides through the elimination, so no permutation is kept. A
    /// wrapper over [`Matrix::solve_in_place`].
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrix`] when a pivot underflows.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` does not match the dimension.
    pub fn solve(mut self, b: &[T]) -> Result<Vec<T>, SingularMatrix> {
        let mut x = b.to_vec();
        self.solve_in_place(&mut x)?;
        Ok(x)
    }

    /// Solves `A x = b` in place: `x` holds `b` on entry and the solution
    /// on success. The matrix is overwritten by its factors, so a caller
    /// that solves one system after another in the same storage zeroes
    /// it ([`Matrix::fill_zero`]) and stamps it again in between.
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrix`] when a pivot underflows; `x` and the
    /// matrix then hold partial elimination results.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` does not match the dimension.
    pub fn solve_in_place(&mut self, x: &mut [T]) -> Result<(), SingularMatrix> {
        assert_eq!(x.len(), self.n_rows, "dimension mismatch");
        self.eliminate(x, |_, _| {})?;
        self.back_substitute(x);
        Ok(())
    }

    /// Sets every entry to zero, keeping the storage.
    pub fn fill_zero(&mut self) {
        self.data.fill(T::ZERO);
    }

    /// The one elimination loop behind [`Matrix::lu`] and
    /// [`Matrix::solve_in_place`]: partial pivoting on [`Scalar::pivot_key`],
    /// leaving the unit-lower multipliers below the diagonal and `U` on and
    /// above it. Row exchanges and row updates are replayed on `rhs` when
    /// it is non-empty; `swapped(k, p)` hears every exchange.
    fn eliminate(
        &mut self,
        rhs: &mut [T],
        mut swapped: impl FnMut(usize, usize),
    ) -> Result<(), SingularMatrix> {
        assert_eq!(self.n_rows, self.n_cols, "LU needs a square matrix");
        let n = self.n_rows;
        for k in 0..n {
            let mut p = k;
            let mut pmax = self[(k, k)].pivot_key();
            for i in k + 1..n {
                let v = self[(i, k)].pivot_key();
                if v > pmax {
                    pmax = v;
                    p = i;
                }
            }
            if pmax < 1e-300 || !pmax.is_finite() {
                return Err(SingularMatrix { pivot: k });
            }
            if p != k {
                let (upper, lower) = self.data.split_at_mut(p * n);
                upper[k * n..(k + 1) * n].swap_with_slice(&mut lower[..n]);
                if !rhs.is_empty() {
                    rhs.swap(k, p);
                }
                swapped(k, p);
            }
            let (upper, lower) = self.data.split_at_mut((k + 1) * n);
            let row_k = &upper[k * n..];
            let pivot = row_k[k];
            for (i, row_i) in (k + 1..n).zip(lower.chunks_exact_mut(n)) {
                let f = row_i[k].div(pivot);
                row_i[k] = f;
                for (a, &v) in row_i[k + 1..].iter_mut().zip(&row_k[k + 1..]) {
                    *a = a.sub(f.mul(v));
                }
                if !rhs.is_empty() {
                    rhs[i] = rhs[i].sub(f.mul(rhs[k]));
                }
            }
        }
        Ok(())
    }

    /// Back substitution against the upper factor left by
    /// [`Matrix::eliminate`].
    fn back_substitute(&self, x: &mut [T]) {
        let n = self.n_rows;
        for i in (0..n).rev() {
            let row = &self.data[i * n..(i + 1) * n];
            let mut s = x[i];
            for (&u, &xj) in row[i + 1..].iter().zip(&x[i + 1..]) {
                s = s.sub(u.mul(xj));
            }
            x[i] = s.div(row[i]);
        }
    }
}

impl Matrix {
    /// Matrix-vector product.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != n_cols`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n_cols, "dimension mismatch");
        let mut y = vec![0.0; self.n_rows];
        for (i, yi) in y.iter_mut().enumerate() {
            let row = &self.data[i * self.n_cols..(i + 1) * self.n_cols];
            *yi = row.iter().zip(x).map(|(a, b)| a * b).sum();
        }
        y
    }
}

impl<T> std::ops::Index<(usize, usize)> for Matrix<T> {
    type Output = T;
    fn index(&self, (i, j): (usize, usize)) -> &T {
        &self.data[i * self.n_cols + j]
    }
}

impl<T> std::ops::IndexMut<(usize, usize)> for Matrix<T> {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut T {
        &mut self.data[i * self.n_cols + j]
    }
}

/// Error returned when LU factorization meets a (numerically) singular matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SingularMatrix {
    /// Pivot column at which elimination failed.
    pub pivot: usize,
}

impl fmt::Display for SingularMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "matrix is singular at pivot {}", self.pivot)
    }
}

impl std::error::Error for SingularMatrix {}

/// LU factorization of a dense matrix, reusable for many right-hand sides.
#[derive(Debug, Clone)]
pub struct Lu<T = f64> {
    lu: Matrix<T>,
    perm: Vec<usize>,
    sign: f64,
}

impl<T: Scalar> Lu<T> {
    /// Solves `A x = b`.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` does not match the matrix dimension.
    pub fn solve(&self, b: &[T]) -> Vec<T> {
        let n = self.lu.n_rows;
        assert_eq!(b.len(), n, "dimension mismatch");
        let mut x: Vec<T> = self.perm.iter().map(|&p| b[p]).collect();
        // Forward substitution (L has unit diagonal).
        for i in 1..n {
            let row = &self.lu.data[i * n..i * n + i];
            let mut s = x[i];
            for (&l, &xj) in row.iter().zip(&x[..i]) {
                s = s.sub(l.mul(xj));
            }
            x[i] = s;
        }
        self.lu.back_substitute(&mut x);
        x
    }

    /// Determinant of the original matrix.
    pub fn det(&self) -> T {
        (0..self.lu.n_rows).fold(T::ONE.scale(self.sign), |d, i| d.mul(self.lu[(i, i)]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complex_arithmetic() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(3.0, -1.0);
        assert_eq!(a + b, Complex::new(4.0, 1.0));
        assert_eq!(a * b, Complex::new(5.0, 5.0));
        let q = a / b;
        let back = q * b;
        assert!((back - a).abs() < 1e-12);
        assert!((Complex::I * Complex::I + Complex::ONE).abs() < 1e-15);
    }

    #[test]
    fn complex_sqrt_squares_back() {
        for z in [
            Complex::new(4.0, 0.0),
            Complex::new(-4.0, 0.0),
            Complex::new(3.0, 4.0),
            Complex::new(-3.0, -4.0),
        ] {
            let r = z.sqrt();
            assert!((r * r - z).abs() < 1e-12, "sqrt({z}) = {r}");
        }
    }

    #[test]
    fn lu_solves_small_system() {
        let mut a = Matrix::zeros(3, 3);
        let vals = [[2.0, 1.0, 1.0], [4.0, -6.0, 0.0], [-2.0, 7.0, 2.0]];
        for i in 0..3 {
            for j in 0..3 {
                a[(i, j)] = vals[i][j];
            }
        }
        let lu = a.clone().lu().unwrap();
        let b = [5.0, -2.0, 9.0];
        let x = lu.solve(&b);
        let back = a.mul_vec(&x);
        for (u, v) in back.iter().zip(b.iter()) {
            assert!((u - v).abs() < 1e-12);
        }
    }

    #[test]
    fn lu_determinant() {
        let mut a = Matrix::zeros(2, 2);
        a[(0, 0)] = 1.0;
        a[(0, 1)] = 2.0;
        a[(1, 0)] = 3.0;
        a[(1, 1)] = 4.0;
        assert!((a.lu().unwrap().det() + 2.0).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_reports_error() {
        let a: Matrix = Matrix::zeros(2, 2);
        assert!(a.lu().is_err());
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        let mut a = Matrix::zeros(2, 2);
        a[(0, 1)] = 1.0;
        a[(1, 0)] = 1.0;
        let x = a.lu().unwrap().solve(&[3.0, 7.0]);
        assert!((x[0] - 7.0).abs() < 1e-12 && (x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn complex_solve_round_trips() {
        let n = 4;
        let mut a = Matrix::zeros(n, n);
        // Diagonally dominant complex matrix.
        for i in 0..n {
            for j in 0..n {
                a[(i, j)] = Complex::new((i + j) as f64 * 0.1, (i as f64 - j as f64) * 0.2);
            }
            a[(i, i)] = Complex::new(5.0 + i as f64, 1.0);
        }
        let b: Vec<Complex> = (0..n).map(|i| Complex::new(i as f64, 1.0)).collect();
        let x = a.clone().solve(&b).unwrap();
        // Verify A·x = b.
        for i in 0..n {
            let mut s = Complex::ZERO;
            for j in 0..n {
                s += a[(i, j)] * x[j];
            }
            assert!((s - b[i]).abs() < 1e-10);
        }
    }

    /// An `n × n` matrix filled from `entry(i, j)`.
    fn pivoting_system<T: Scalar>(n: usize, entry: impl Fn(usize, usize) -> T) -> Matrix<T> {
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                a[(i, j)] = entry(i, j);
            }
        }
        a
    }

    /// Neither matrix is diagonally dominant, so elimination exchanges
    /// rows (three times each): both entry points have permutations to get
    /// right, and must agree to the last bit.
    #[test]
    fn one_shot_solve_matches_kept_factors_bitwise() {
        let n = 7;
        let real = pivoting_system(n, |i, j| {
            ((i * 7 + j * 3) % 11) as f64 - 4.5 + (i == j) as u8 as f64
        });
        let b: Vec<f64> = (0..n).map(|i| i as f64 * 0.75 - 2.0).collect();
        let kept = real.clone().lu().unwrap().solve(&b);
        let once = real.solve(&b).unwrap();
        assert_eq!(
            kept.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            once.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );

        let cplx = pivoting_system(n, |i, j| {
            Complex::new(
                ((i * 5 + j) % 9) as f64 - 3.0,
                ((i + 2 * j) % 7) as f64 * 0.3,
            )
        });
        let bc: Vec<Complex> = (0..n).map(|i| Complex::new(1.0, i as f64)).collect();
        let kept = cplx.clone().lu().unwrap().solve(&bc);
        let once = cplx.solve(&bc).unwrap();
        let bits = |x: &[Complex]| -> Vec<(u64, u64)> {
            x.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
        };
        assert_eq!(bits(&kept), bits(&once));
    }

    #[test]
    fn identity_solve_is_identity() {
        let x = Matrix::identity(3).lu().unwrap().solve(&[1.0, 2.0, 3.0]);
        assert_eq!(x, vec![1.0, 2.0, 3.0]);
    }
}
