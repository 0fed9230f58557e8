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
//! Both phases work on one row / one column at a time, so the scratch
//! requirement is `max(M, N)` elements per worker — the same
//! "on-chip-sized, bounded" standard the paper's kernels meet — never a
//! second matrix.

//! ```
//! use ipt_core::{Matrix, transpose_matrix_coprime};
//! let a = Matrix::iota(127, 61); // both prime — untileable by either dimension
//! let t = transpose_matrix_coprime(a.clone());
//! assert_eq!(t, a.transposed());
//! ```

use crate::elementary::parallel::SharedSlice;
use crate::matrix::Matrix;
use crate::numtheory::{gcd, mod_inverse};
use rayon::prelude::*;

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

fn phase1_row<T: Copy>(row: &mut [T], r: usize, m_rows: usize, minv: usize, tmp: &mut Vec<T>) {
    let n = row.len();
    tmp.clear();
    tmp.extend_from_slice(row);
    for (q_out, slot) in row.iter_mut().enumerate() {
        *slot = tmp[phase1_src_col(r, q_out, m_rows, n, minv)];
    }
}

/// Phase 2 on column `c` of the `M × N` buffer behind `data`.
///
/// # Safety
/// `data` holds `m_rows·n_cols` elements, `c < n_cols`, and no other
/// thread accesses column `c` during the call.
unsafe fn phase2_col<T: Copy>(
    data: &SharedSlice<'_, T>,
    c: usize,
    m_rows: usize,
    n_cols: usize,
    tmp: &mut Vec<T>,
) {
    tmp.clear();
    // SAFETY: `r·N + c < M·N` for `r < M`, and it lies in column `c`,
    // which the caller owns.
    tmp.extend((0..m_rows).map(|r| unsafe { data.get(r * n_cols + c) }));
    for j_out in 0..m_rows {
        let v = tmp[phase2_src_row(j_out, c, m_rows, n_cols)];
        // SAFETY: as above, with `j_out < M`.
        unsafe { data.set(j_out * n_cols + c, v) };
    }
}

/// Sequential in-place transposition of a row-major `M × N` buffer with
/// coprime dimensions. Scratch: one row plus one column.
///
/// # Panics
/// Panics if `data.len() != m_rows·n_cols` or the dimensions share a
/// factor.
pub fn transpose_coprime_seq<T: Copy>(data: &mut [T], m_rows: usize, n_cols: usize) {
    assert_eq!(data.len(), m_rows * n_cols);
    assert!(is_coprime_shape(m_rows, n_cols), "dimensions must be coprime and > 1");
    let minv = minv_for(m_rows, n_cols);
    let mut tmp = Vec::with_capacity(m_rows.max(n_cols));
    for (r, row) in data.chunks_exact_mut(n_cols).enumerate() {
        phase1_row(row, r, m_rows, minv, &mut tmp);
    }
    let data = SharedSlice::new(data);
    for c in 0..n_cols {
        // SAFETY: the length is asserted above, `c < N`, and this thread
        // holds the only borrow of the buffer.
        unsafe { phase2_col(&data, c, m_rows, n_cols, &mut tmp) };
    }
}

/// Rayon-parallel variant: rows in parallel, then columns in parallel
/// (each worker keeps its own row/column scratch).
///
/// # Panics
/// As [`transpose_coprime_seq`].
pub fn transpose_coprime_par<T: Copy + Send + Sync>(
    data: &mut [T],
    m_rows: usize,
    n_cols: usize,
) {
    assert_eq!(data.len(), m_rows * n_cols);
    assert!(is_coprime_shape(m_rows, n_cols), "dimensions must be coprime and > 1");
    let minv = minv_for(m_rows, n_cols);
    data.par_chunks_exact_mut(n_cols).enumerate().for_each_init(
        || Vec::with_capacity(n_cols),
        |tmp, (r, row)| phase1_row(row, r, m_rows, minv, tmp),
    );
    let data = SharedSlice::new(data);
    (0..n_cols).into_par_iter().for_each_init(
        || Vec::with_capacity(m_rows),
        // SAFETY: the length is asserted above, `c < N`, and each column
        // (the stride-N offsets ≡ c mod N) goes to exactly one task.
        |tmp, c| unsafe { phase2_col(&data, c, m_rows, n_cols, tmp) },
    );
}

/// Convenience wrapper over [`Matrix`].
///
/// # Panics
/// As [`transpose_coprime_seq`].
#[must_use]
pub fn transpose_matrix_coprime<T: Copy + Send + Sync>(matrix: Matrix<T>) -> Matrix<T> {
    let (m, n) = (matrix.rows(), matrix.cols());
    let mut matrix = matrix;
    transpose_coprime_par(matrix.as_mut_slice(), m, n);
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
            let mut b = mat.as_slice().to_vec();
            transpose_coprime_par(&mut b, m, n);
            assert_eq!(a, b, "{m}x{n}");
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
    fn double_transpose_roundtrip() {
        let (m, n) = (45usize, 61usize);
        let mat = Matrix::pattern_f32(m, n);
        let t = transpose_matrix_coprime(mat.clone());
        let back = transpose_matrix_coprime(t);
        assert_eq!(back, mat);
    }
}
