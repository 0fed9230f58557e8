//! General-dimension in-place transposition for **coprime** shapes — the
//! extension that removes the paper's own §7.4 limitation ("when the
//! algorithm cannot choose a good tile size (e.g., prime-number
//! dimensions), the throughput would be degraded"). The paper's footnote 6
//! points at the contemporaneous decomposition of Catanzaro, Keller &
//! Garland (PPoPP 2014 \[25\]); this module implements an independently
//! derived two-phase decomposition for the `gcd(M, N) = 1` case, which is
//! exactly the case the staged algorithm cannot tile (for `gcd > 1` the
//! `(c, c)` tile always exists).
//!
//! ## The decomposition
//!
//! For a row-major `M × N` matrix with `gcd(M, N) = 1`:
//!
//! 1. **Row scramble** — within each row `r`, the element in column `q`
//!    moves to column `(q·M + r) mod N`. Rows are independent; the map is
//!    bijective because `gcd(M, N) = 1`.
//! 2. **Column shuffle** — within each column `c`, the element needed at
//!    (final) row `J` currently sits at row `(J·N + c) mod M` (gather
//!    form). Columns are independent.
//!
//! Afterwards the buffer is exactly the row-major `N × M` transpose:
//! phase 1 placed the element from `(r, q)` at column `(q·M + r) mod N`,
//! phase 2 moved it to row `(q·M + r) div N`, i.e. linear offset
//! `q·M + r`. ∎
//!
//! ## The `c = 1` slice of C2R
//!
//! At `c = gcd(M, N) = 1` the C2R decomposition ([`crate::c2r`]) skips its
//! rotate, and its row and column shuffles are exactly these two phases
//! (`reduces_to_coprime_formulas_when_c_is_1` pins that). So this module
//! keeps no pass of its own: [`transpose_matrix_coprime`] and
//! [`transpose_coprime_seq`] check that the shape is coprime and run the
//! C2R host passes — walkers with no per-element division, column
//! blocks one cache line wide, bounded scratch, never a second matrix.
//! [`phase1_src_col`], [`phase2_src_row`] and [`minv_for`] stay as the
//! per-element reference the tests hold those passes to.

//! ```
//! use ipt_core::{Matrix, transpose_matrix_coprime};
//! let a = Matrix::iota(127, 61); // both prime — untileable by either dimension
//! let t = transpose_matrix_coprime(a.clone());
//! assert_eq!(t, a.transposed());
//! ```

use crate::c2r::transpose_c2r;
use crate::matrix::Matrix;
use crate::numtheory::{gcd, mod_inverse};

/// Phase-1 gather: the element that ends in column `q_out` of row `r`
/// comes from column `(q_out − r)·M⁻¹ mod N`.
#[inline]
#[must_use]
pub fn phase1_src_col(r: usize, q_out: usize, m_rows: usize, n_cols: usize, minv: usize) -> usize {
    debug_assert!(r < m_rows && q_out < n_cols);
    let _ = m_rows;
    let diff = (q_out + n_cols - r % n_cols) % n_cols;
    (diff * minv) % n_cols
}

/// Phase-2 gather: the element that ends in (final) row `j_out` of column
/// `c` comes from row `(j_out·N + c) mod M`.
#[inline]
#[must_use]
pub fn phase2_src_row(j_out: usize, c: usize, m_rows: usize, n_cols: usize) -> usize {
    debug_assert!(c < n_cols);
    (j_out * n_cols + c) % m_rows
}

/// The modular inverse `M⁻¹ mod N` both phases need.
///
/// # Panics
/// Panics if `gcd(M, N) != 1`.
#[must_use]
pub fn minv_for(m_rows: usize, n_cols: usize) -> usize {
    mod_inverse(m_rows as u64 % n_cols.max(1) as u64, n_cols as u64)
        .expect("coprime dimensions required") as usize
}

/// Is this shape handled by the coprime decomposition?
#[must_use]
pub fn is_coprime_shape(m_rows: usize, n_cols: usize) -> bool {
    m_rows > 1 && n_cols > 1 && gcd(m_rows as u64, n_cols as u64) == 1
}

/// In-place transposition of a row-major `M × N` buffer with coprime
/// dimensions on the caller's rayon pool: the C2R row and column
/// shuffles, which at `c = 1` are exactly the two phases above.
///
/// # Panics
/// Panics if the dimensions share a factor or `data.len()` is not
/// `m_rows·n_cols` (checked, so an overflowing shape panics too).
fn transpose_coprime<T: Copy + Send + Sync>(data: &mut [T], m_rows: usize, n_cols: usize) {
    assert!(is_coprime_shape(m_rows, n_cols), "dimensions must be coprime and > 1");
    transpose_c2r(data, m_rows, n_cols);
}

/// [`transpose_matrix_coprime`] over a bare row-major `M × N` buffer, on
/// a 1-wide pool: inline on the caller.
///
/// # Panics
/// Panics if the dimensions share a factor or `data.len()` is not
/// `m_rows·n_cols` (checked, so an overflowing shape panics too).
// `benchmark/` imports this name; it goes when the benchmark next changes.
pub fn transpose_coprime_seq<T: Copy + Send + Sync>(data: &mut [T], m_rows: usize, n_cols: usize) {
    crate::on_pool(1, || transpose_coprime(data, m_rows, n_cols));
}

/// Transpose a coprime-shaped [`Matrix`] in place on the caller's rayon
/// pool: rows in parallel, then column blocks in parallel (see
/// [`crate::c2r`]).
///
/// # Panics
/// Panics if the dimensions share a factor or one of them is 1.
#[must_use]
pub fn transpose_matrix_coprime<T: Copy + Send + Sync>(matrix: Matrix<T>) -> Matrix<T> {
    let (m, n) = (matrix.rows(), matrix.cols());
    let mut matrix = matrix;
    transpose_coprime(matrix.as_mut_slice(), m, n);
    matrix.assume_transposed_shape()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_formulas_invert_each_other() {
        for &(m, n) in &[(5usize, 3usize), (8, 9), (127, 64), (31, 45)] {
            let minv = minv_for(m, n);
            for r in 0..m {
                for q in 0..n {
                    let q1 = (q * m + r) % n; // scatter form of phase 1
                    assert_eq!(phase1_src_col(r, q1, m, n, minv), q, "{m}x{n} r={r} q={q}");
                }
            }
        }
    }

    #[test]
    fn seq_transposes_coprime_shapes() {
        for &(m, n) in &[(5usize, 3usize), (3, 5), (2, 9), (9, 2), (127, 64), (61, 45), (997, 8)] {
            let mat = Matrix::iota(m, n);
            let mut data = mat.as_slice().to_vec();
            transpose_coprime_seq(&mut data, m, n);
            assert_eq!(data, mat.transposed().into_vec(), "{m}x{n}");
        }
    }

    #[test]
    fn par_matches_seq() {
        for &(m, n) in &[(61usize, 45usize), (128, 127), (45, 61), (253, 16)] {
            let mat = Matrix::pattern_f32(m, n);
            let mut a = mat.as_slice().to_vec();
            transpose_coprime_seq(&mut a, m, n);
            let b = crate::on_pool(2, || transpose_matrix_coprime(mat.clone()));
            assert_eq!(a, b.into_vec(), "{m}x{n}");
            assert_eq!(a, mat.transposed().into_vec(), "{m}x{n}");
        }
    }

    #[test]
    fn prime_times_prime_works() {
        // The paper's worst case: both dimensions prime.
        let (m, n) = (127usize, 61usize);
        let mat = Matrix::iota(m, n);
        let got = transpose_matrix_coprime(mat.clone());
        assert_eq!(got, mat.transposed());
    }

    #[test]
    fn shape_guard() {
        assert!(is_coprime_shape(127, 61));
        assert!(!is_coprime_shape(6, 4));
        assert!(!is_coprime_shape(1, 7), "1×n is trivial, not handled here");
    }

    #[test]
    #[should_panic(expected = "coprime")]
    fn non_coprime_rejected() {
        let mut data = vec![0u32; 24];
        transpose_coprime_seq(&mut data, 6, 4);
    }

    #[test]
    #[should_panic(expected = "does not hold a 3x")]
    fn seq_rejects_a_shape_whose_size_overflows() {
        // Coprime, and `3 · (usize::MAX / 3 + 2)` wraps to 5.
        transpose_coprime_seq(&mut [0u8; 5], 3, usize::MAX / 3 + 2);
    }

    #[test]
    fn double_transpose_roundtrip() {
        let (m, n) = (45usize, 61usize);
        let mat = Matrix::pattern_f32(m, n);
        let t = transpose_matrix_coprime(mat.clone());
        let back = transpose_matrix_coprime(t);
        assert_eq!(back, mat);
    }
}
