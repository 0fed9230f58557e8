//! The C2R/R2C decomposition of Catanzaro, Keller & Garland (PPoPP 2014)
//! — the general-shape rival to the staged algorithm, and the fix for the
//! paper's own §7.4 limitation. Where [`crate::coprime`] covers only
//! `gcd(M, N) = 1`, this decomposition is **total**: any row-major `M × N`
//! matrix transposes in place as three independent line permutations
//!
//! 1. **column rotate** — within column `q`, rotate down by `⌊q/b⌋`
//!    (identity when `c = 1`, so the pass is skipped there),
//! 2. **row shuffle** — within each row, a modular gather permutation,
//! 3. **column shuffle** — within each column, a modular gather
//!    permutation,
//!
//! where `c = gcd(M, N)`, `a = M/c`, `b = N/c`. Every line permutes
//! independently of every other line of its pass, so there are no
//! per-element claim flags, no atomics, and perfect load balance; the
//! scratch requirement is one line (`max(M, N)` elements) per worker —
//! never a second matrix.
//!
//! ## Derivation (gather forms)
//!
//! Element `(r, q)` of the `M × N` source must end at linear offset
//! `t = q·M + r` of the `N × M` result. Phase 1 scatters
//! `(r, q) → ((r + ⌊q/b⌋) mod M, q)`. Writing `q = x·b + y` with
//! `x ∈ [0, c)`, `y ∈ [0, b)`, the phase-2 gather for output `(i, j)`
//! solves `(q·M + r) mod N = j` with `r = (i − x) mod M`: reducing mod
//! `c` gives `x = (i − j) mod c`, then `r` follows, and
//! `y = (((j − r) mod N)/c · a⁻¹) mod b` (the difference is always
//! divisible by `c`). Phase 3 gathers output row `J` of column `j` from
//! row `(t mod M + ⌊(t div M)/b⌋) mod M` with `t = J·N + j`. For
//! `c = 1` these collapse exactly to the two coprime-phase formulas of
//! [`crate::coprime`] — the coprime module is the `c = 1` slice of this
//! one.
//!
//! ```
//! use ipt_core::{Matrix, transpose_matrix_c2r};
//! let a = Matrix::iota(7919, 104); // prime rows — untileable
//! let t = transpose_matrix_c2r(a.clone());
//! assert_eq!(t, a.transposed());
//! ```

use crate::elementary::parallel::SharedSlice;
use crate::matrix::Matrix;
use crate::numtheory::{gcd, mod_inverse};
use rayon::prelude::*;

/// The shape-derived constants all three passes share. Cheap to build
/// (one gcd + one extended Euclid) and `Copy`, so kernels embed it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct C2rGeometry {
    /// Matrix rows (M).
    pub m: usize,
    /// Matrix cols (N).
    pub n: usize,
    /// `gcd(M, N)`.
    pub c: usize,
    /// `M / c`.
    pub a: usize,
    /// `N / c`.
    pub b: usize,
    /// `a⁻¹ mod b` (`0` when `b = 1`).
    pub a_inv: usize,
}

impl C2rGeometry {
    /// Derive the decomposition constants for an `M × N` matrix. Total for
    /// every `M, N ≥ 1`; the modular inverse always exists because
    /// `gcd(a, b) = 1` by construction.
    ///
    /// # Panics
    /// Panics on a zero dimension (the planner maps those to identity).
    #[must_use]
    pub fn new(m_rows: usize, n_cols: usize) -> Self {
        assert!(m_rows > 0 && n_cols > 0, "degenerate shape {m_rows}x{n_cols}");
        let c = gcd(m_rows as u64, n_cols as u64) as usize;
        let (a, b) = (m_rows / c, n_cols / c);
        let a_inv = mod_inverse(a as u64 % b.max(1) as u64, b as u64)
            .expect("a and b are coprime by construction") as usize;
        Self { m: m_rows, n: n_cols, c, a, b, a_inv }
    }

    /// Does phase 1 do anything? The rotation amount `⌊q/b⌋` is zero for
    /// every column exactly when `c = 1` (then `b = N > q`).
    #[must_use]
    pub fn needs_rotate(&self) -> bool {
        self.c > 1 && self.m > 1
    }

    /// Phase-1 gather: the element that ends at row `i` of column `q` comes
    /// from row `(i − ⌊q/b⌋) mod M` (the scatter is a downward rotate by
    /// `⌊q/b⌋`).
    #[inline]
    #[must_use]
    pub fn rotate_src_row(&self, i: usize, q: usize) -> usize {
        debug_assert!(i < self.m && q < self.n);
        let shift = (q / self.b) % self.m;
        (i + self.m - shift) % self.m
    }

    /// Phase-2 gather: the element that ends at column `j` of row `i` came
    /// (post-rotate) from column `x·b + y` — see the module derivation.
    /// All intermediates are `u128`-checked: the widest product,
    /// `z · a_inv`, is bounded by `b² ≤ N²`, which can overflow narrower
    /// arithmetic on pathological shapes.
    #[inline]
    #[must_use]
    pub fn row_shuffle_src_col(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < self.m && j < self.n);
        let (m, n, c, b) = (self.m, self.n, self.c, self.b);
        let x = (i % c + c - j % c) % c;
        let r = (i + m - x) % m;
        let diff = (j + n - r % n) % n;
        debug_assert_eq!(diff % c, 0, "j ≡ r (mod c) by construction");
        let z = diff / c;
        let y = ((z as u128 * self.a_inv as u128) % b.max(1) as u128) as usize;
        x * b + y
    }

    /// Phase-3 gather: the element that ends at row `J` of column `j`
    /// (linear offset `t = J·N + j`) sits at row
    /// `(t mod M + ⌊(t div M)/b⌋) mod M` of the same column.
    #[inline]
    #[must_use]
    pub fn col_shuffle_src_row(&self, j_out: usize, col: usize) -> usize {
        debug_assert!(j_out < self.m && col < self.n);
        let t = j_out as u128 * self.n as u128 + col as u128;
        let r = (t % self.m as u128) as usize;
        let q = (t / self.m as u128) as usize;
        (r + (q / self.b) % self.m) % self.m
    }
}

/// Stage column `col` of the `M × N` buffer behind `data` into `tmp`,
/// then overwrite it through the gather `src`: `col[k] = tmp[src(k)]`.
///
/// # Safety
/// `data` holds `M·N` elements, `col < N`, and no other thread accesses
/// column `col` during the call.
unsafe fn apply_col_pass<T: Copy>(
    data: &SharedSlice<'_, T>,
    geom: &C2rGeometry,
    col: usize,
    tmp: &mut Vec<T>,
    src: impl Fn(usize) -> usize,
) {
    let (m, n) = (geom.m, geom.n);
    tmp.clear();
    // SAFETY: `r·N + col < M·N` for `r < M`, and it lies in column `col`,
    // which the caller owns.
    tmp.extend((0..m).map(|r| unsafe { data.get(r * n + col) }));
    for k in 0..m {
        let v = tmp[src(k)];
        // SAFETY: as above, with `k < M`.
        unsafe { data.set(k * n + col, v) };
    }
}

/// Stage row `i` into `tmp`, then overwrite it through the phase-2 gather.
fn apply_row_pass<T: Copy>(row: &mut [T], geom: &C2rGeometry, i: usize, tmp: &mut Vec<T>) {
    tmp.clear();
    tmp.extend_from_slice(row);
    for (j, slot) in row.iter_mut().enumerate() {
        *slot = tmp[geom.row_shuffle_src_col(i, j)];
    }
}

/// Sequential in-place C2R transposition of a row-major `M × N` buffer.
/// Total: any `M, N ≥ 1`. Scratch: one line (`max(M, N)` elements).
///
/// # Panics
/// Panics if `data.len() != m_rows·n_cols` or a dimension is zero.
pub fn transpose_c2r_seq<T: Copy>(data: &mut [T], m_rows: usize, n_cols: usize) {
    assert_eq!(data.len(), m_rows * n_cols);
    let geom = C2rGeometry::new(m_rows, n_cols);
    let mut tmp = Vec::with_capacity(m_rows.max(n_cols));
    if geom.needs_rotate() {
        let data = SharedSlice::new(data);
        for q in 0..n_cols {
            let src = |i| geom.rotate_src_row(i, q);
            // SAFETY: the length is asserted above, `q < N`, and this
            // thread holds the only borrow of the buffer.
            unsafe { apply_col_pass(&data, &geom, q, &mut tmp, src) };
        }
    }
    for (i, row) in data.chunks_exact_mut(n_cols).enumerate() {
        apply_row_pass(row, &geom, i, &mut tmp);
    }
    let data = SharedSlice::new(data);
    for col in 0..n_cols {
        let src = |j_out| geom.col_shuffle_src_row(j_out, col);
        // SAFETY: as for the rotate pass.
        unsafe { apply_col_pass(&data, &geom, col, &mut tmp, src) };
    }
}

/// Rayon-parallel C2R: columns in parallel, rows in parallel, columns in
/// parallel — each worker keeps one line of scratch.
///
/// # Panics
/// As [`transpose_c2r_seq`].
pub fn transpose_c2r_par<T: Copy + Send + Sync>(data: &mut [T], m_rows: usize, n_cols: usize) {
    assert_eq!(data.len(), m_rows * n_cols);
    let geom = C2rGeometry::new(m_rows, n_cols);
    let col_pass = |data: &mut [T], src_for: &(dyn Fn(usize, usize) -> usize + Sync)| {
        let data = SharedSlice::new(data);
        (0..n_cols).into_par_iter().for_each_init(
            || Vec::with_capacity(m_rows),
            // SAFETY: the length is asserted above, `col < N`, and each
            // column (the stride-N offsets ≡ col mod N) goes to one task.
            |tmp, col| unsafe { apply_col_pass(&data, &geom, col, tmp, |k| src_for(k, col)) },
        );
    };
    if geom.needs_rotate() {
        col_pass(data, &|i, q| geom.rotate_src_row(i, q));
    }
    data.par_chunks_exact_mut(n_cols).enumerate().for_each_init(
        || Vec::with_capacity(n_cols),
        |tmp, (i, row)| apply_row_pass(row, &geom, i, tmp),
    );
    col_pass(data, &|j_out, col| geom.col_shuffle_src_row(j_out, col));
}

/// Stage column `col` (elements of `ew` words each) into `tmp`, then
/// overwrite it through the gather `src` — the wide-element twin of
/// [`apply_col_pass`].
///
/// # Safety
/// `data` holds `M·N·ew` words, `col < N`, and no other thread accesses
/// column `col` during the call.
unsafe fn apply_col_pass_elems(
    data: &SharedSlice<'_, u32>,
    geom: &C2rGeometry,
    col: usize,
    ew: usize,
    tmp: &mut Vec<u32>,
    src: impl Fn(usize) -> usize,
) {
    let (m, n) = (geom.m, geom.n);
    tmp.clear();
    for r in 0..m {
        // SAFETY: element `r·N + col < M·N` lies in column `col`, which the
        // caller owns.
        unsafe { data.push_super(r * n + col, ew, tmp) };
    }
    for k in 0..m {
        let s = src(k) * ew;
        // SAFETY: as above, with `k < M`; `tmp` holds `M·ew` words.
        unsafe { data.write_super(k * n + col, ew, &tmp[s..s + ew]) };
    }
}

/// Stage row `i` (elements of `ew` words each) into `tmp`, then overwrite
/// it through the phase-2 gather.
fn apply_row_pass_elems(
    row: &mut [u32],
    geom: &C2rGeometry,
    i: usize,
    ew: usize,
    tmp: &mut Vec<u32>,
) {
    tmp.clear();
    tmp.extend_from_slice(row);
    for j in 0..geom.n {
        let s = geom.row_shuffle_src_col(i, j) * ew;
        row[j * ew..j * ew + ew].copy_from_slice(&tmp[s..s + ew]);
    }
}

/// Sequential C2R over `elem_words`-word elements stored as flat `u32`
/// words — the host reference the recovery chain compares wide-element
/// (`f64`-class) payloads against. `elem_words = 1` is exactly
/// [`transpose_c2r_seq`].
///
/// # Panics
/// Panics if `elem_words` is zero or `data.len()` is not
/// `m_rows·n_cols·elem_words`.
pub fn transpose_c2r_seq_elems(
    data: &mut [u32],
    m_rows: usize,
    n_cols: usize,
    elem_words: usize,
) {
    assert!(elem_words >= 1, "elements must be at least one word wide");
    assert_eq!(data.len(), m_rows * n_cols * elem_words);
    let geom = C2rGeometry::new(m_rows, n_cols);
    let ew = elem_words;
    let mut tmp = Vec::with_capacity(m_rows.max(n_cols) * ew);
    if geom.needs_rotate() {
        let data = SharedSlice::new(data);
        for q in 0..n_cols {
            let src = |i| geom.rotate_src_row(i, q);
            // SAFETY: the length is asserted above, `q < N`, and this
            // thread holds the only borrow of the buffer.
            unsafe { apply_col_pass_elems(&data, &geom, q, ew, &mut tmp, src) };
        }
    }
    for (i, row) in data.chunks_exact_mut(n_cols * ew).enumerate() {
        apply_row_pass_elems(row, &geom, i, ew, &mut tmp);
    }
    let data = SharedSlice::new(data);
    for col in 0..n_cols {
        let src = |j_out| geom.col_shuffle_src_row(j_out, col);
        // SAFETY: as for the rotate pass.
        unsafe { apply_col_pass_elems(&data, &geom, col, ew, &mut tmp, src) };
    }
}

/// Rayon-parallel twin of [`transpose_c2r_seq_elems`]: columns in
/// parallel, rows in parallel, columns in parallel, each worker holding
/// one line of scratch.
///
/// # Panics
/// As [`transpose_c2r_seq_elems`].
pub fn transpose_c2r_par_elems(
    data: &mut [u32],
    m_rows: usize,
    n_cols: usize,
    elem_words: usize,
) {
    assert!(elem_words >= 1, "elements must be at least one word wide");
    assert_eq!(data.len(), m_rows * n_cols * elem_words);
    let ew = elem_words;
    let geom = C2rGeometry::new(m_rows, n_cols);
    let col_pass = |data: &mut [u32], src_for: &(dyn Fn(usize, usize) -> usize + Sync)| {
        let data = SharedSlice::new(data);
        (0..n_cols).into_par_iter().for_each_init(
            || Vec::with_capacity(m_rows * ew),
            // SAFETY: the length is asserted above, `col < N`, and each
            // column (elements ≡ col mod N) goes to exactly one task.
            |tmp, col| unsafe {
                apply_col_pass_elems(&data, &geom, col, ew, tmp, |k| src_for(k, col));
            },
        );
    };
    if geom.needs_rotate() {
        col_pass(data, &|i, q| geom.rotate_src_row(i, q));
    }
    data.par_chunks_exact_mut(n_cols * ew).enumerate().for_each_init(
        || Vec::with_capacity(n_cols * ew),
        |tmp, (i, row)| apply_row_pass_elems(row, &geom, i, ew, tmp),
    );
    col_pass(data, &|j_out, col| geom.col_shuffle_src_row(j_out, col));
}

/// Convenience wrapper over [`Matrix`].
///
/// # Panics
/// As [`transpose_c2r_seq`] (zero dimensions only).
#[must_use]
pub fn transpose_matrix_c2r<T: Copy + Send + Sync>(matrix: Matrix<T>) -> Matrix<T> {
    let (m, n) = (matrix.rows(), matrix.cols());
    let mut matrix = matrix;
    transpose_c2r_par(matrix.as_mut_slice(), m, n);
    matrix.assume_transposed_shape()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coprime::{minv_for, phase1_src_col, phase2_src_row};

    /// c = 1, c > 1, degenerate, square, prime — the planner's whole range.
    const SHAPES: &[(usize, usize)] = &[
        (1, 1),
        (1, 7),
        (7, 1),
        (2, 8),
        (8, 2),
        (4, 6),
        (6, 4),
        (5, 3),
        (9, 9),
        (12, 18),
        (16, 16),
        (30, 42),
        (61, 45),
        (97, 101),
        (122, 183),
        (127, 61),
    ];

    #[test]
    fn geometry_basics() {
        let g = C2rGeometry::new(4, 6);
        assert_eq!((g.c, g.a, g.b), (2, 2, 3));
        assert_eq!(g.a_inv, 2, "2·2 = 4 ≡ 1 (mod 3)");
        assert!(g.needs_rotate());
        assert!(!C2rGeometry::new(5, 3).needs_rotate(), "c = 1 rotate is identity");
        assert!(!C2rGeometry::new(1, 6).needs_rotate(), "single row");
    }

    #[test]
    fn reduces_to_coprime_formulas_when_c_is_1() {
        for &(m, n) in &[(5usize, 3usize), (127, 61), (8, 9), (31, 45)] {
            let g = C2rGeometry::new(m, n);
            assert_eq!(g.c, 1);
            let minv = minv_for(m, n);
            for i in 0..m {
                for j in 0..n {
                    assert_eq!(
                        g.row_shuffle_src_col(i, j),
                        phase1_src_col(i, j, m, n, minv),
                        "{m}x{n} i={i} j={j}"
                    );
                }
            }
            for col in 0..n {
                for j_out in 0..m {
                    assert_eq!(
                        g.col_shuffle_src_row(j_out, col),
                        phase2_src_row(j_out, col, m, n),
                        "{m}x{n} J={j_out} col={col}"
                    );
                }
            }
        }
    }

    #[test]
    fn every_pass_is_a_per_line_bijection() {
        for &(m, n) in SHAPES {
            let g = C2rGeometry::new(m, n);
            for q in 0..n {
                let mut seen = vec![false; m];
                for i in 0..m {
                    let s = g.rotate_src_row(i, q);
                    assert!(!seen[s], "rotate {m}x{n} col {q} repeats row {s}");
                    seen[s] = true;
                }
            }
            for i in 0..m {
                let mut seen = vec![false; n];
                for j in 0..n {
                    let s = g.row_shuffle_src_col(i, j);
                    assert!(!seen[s], "row-shuffle {m}x{n} row {i} repeats col {s}");
                    seen[s] = true;
                }
            }
            for col in 0..n {
                let mut seen = vec![false; m];
                for j_out in 0..m {
                    let s = g.col_shuffle_src_row(j_out, col);
                    assert!(!seen[s], "col-shuffle {m}x{n} col {col} repeats row {s}");
                    seen[s] = true;
                }
            }
        }
    }

    #[test]
    fn seq_transposes_every_shape() {
        for &(m, n) in SHAPES {
            let mat = Matrix::iota(m, n);
            let mut data = mat.as_slice().to_vec();
            transpose_c2r_seq(&mut data, m, n);
            assert_eq!(data, mat.transposed().into_vec(), "{m}x{n}");
        }
    }

    #[test]
    fn par_matches_seq() {
        for &(m, n) in SHAPES {
            let mat = Matrix::pattern_f32(m, n);
            let mut a = mat.as_slice().to_vec();
            transpose_c2r_seq(&mut a, m, n);
            let mut b = mat.as_slice().to_vec();
            transpose_c2r_par(&mut b, m, n);
            assert_eq!(a, b, "{m}x{n}");
        }
    }

    #[test]
    fn paper_class_prime_rows() {
        // 7919 is the 1000th prime — the class the issue names; the column
        // count stays modest so the test runs in milliseconds.
        let (m, n) = (7919usize, 104usize);
        let mat = Matrix::iota(m, n);
        let got = transpose_matrix_c2r(mat.clone());
        assert_eq!(got, mat.transposed());
    }

    #[test]
    fn double_transpose_roundtrip() {
        for &(m, n) in &[(45usize, 61usize), (12, 18), (6, 4)] {
            let mat = Matrix::pattern_f32(m, n);
            let t = transpose_matrix_c2r(mat.clone());
            let back = transpose_matrix_c2r(t);
            assert_eq!(back, mat, "{m}x{n}");
        }
    }

    #[test]
    fn elems_paths_match_the_packed_wide_reference() {
        // 2-word elements through the flat-u32 helpers must agree with the
        // generic-T path over packed u64 elements, on every shape class.
        for &(m, n) in SHAPES {
            let packed: Vec<u64> =
                (0..m * n).map(|k| (k as u64) << 32 | (k as u64 ^ 0x5a5a)).collect();
            let mut want_packed = packed.clone();
            transpose_c2r_seq(&mut want_packed, m, n);
            let want: Vec<u32> = want_packed
                .iter()
                .flat_map(|v| [*v as u32, (*v >> 32) as u32])
                .collect();
            let flat: Vec<u32> =
                packed.iter().flat_map(|v| [*v as u32, (*v >> 32) as u32]).collect();
            let mut seq = flat.clone();
            transpose_c2r_seq_elems(&mut seq, m, n, 2);
            assert_eq!(seq, want, "seq {m}x{n}");
            let mut par = flat.clone();
            transpose_c2r_par_elems(&mut par, m, n, 2);
            assert_eq!(par, want, "par {m}x{n}");
            // Width 1 collapses to the word path.
            let mat = Matrix::iota(m, n);
            let mut one = mat.as_slice().to_vec();
            transpose_c2r_seq_elems(&mut one, m, n, 1);
            assert_eq!(one, mat.transposed().into_vec(), "ew=1 {m}x{n}");
        }
    }

    #[test]
    fn wide_elements_transpose_too() {
        // T is generic: a u64 payload models 2-word elements.
        let (m, n) = (24usize, 36usize);
        let src: Vec<u64> = (0..m * n).map(|k| (k as u64) << 32 | 0xabcd).collect();
        let mut data = src.clone();
        transpose_c2r_seq(&mut data, m, n);
        let mut want = vec![0u64; m * n];
        for r in 0..m {
            for q in 0..n {
                want[q * m + r] = src[r * n + q];
            }
        }
        assert_eq!(data, want);
    }
}
