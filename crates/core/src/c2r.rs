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
//! per-element claim flags, no atomics, and perfect load balance.
//!
//! ## Host passes
//!
//! The per-element gathers on [`C2rGeometry`] are the reference that the
//! device kernels and the tests pin; the host passes never evaluate them
//! per element. Each row, and each block of columns, instead gets a
//! *walker* built once from the geometry: construction does every `/`,
//! `%` and `u128` step, and the walk then names the source of each
//! output element with adds and conditional subtracts only.
//!
//! * The row shuffle gathers one row at a time through a row walker.
//! * The rotate and the column shuffle work on blocks of `W` adjacent
//!   columns, `W = 64 B ÷ size_of::<T>()` (16 for `f32`). A block is
//!   staged row by row, one cache line per row. Its walker then names,
//!   output row by output row, the staged row each column gathers from,
//!   and the block is written back one line per row. A one-column pass
//!   would use 4 bytes of each 64-byte line it touches.
//! * The scratch is one row, or one `M·W` block per worker. `W` narrows
//!   on tall shapes to keep a block under 2 MiB, or one column when a
//!   column alone is larger — never a second matrix.
//!
//! [`transpose_c2r`] checks the buffer length against `M·N` without
//! overflow before any pass offsets a pointer, then runs each pass's rows
//! or blocks on the caller's rayon pool.
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
//! one, and its entry points run these passes.
//!
//! ```
//! use ipt_core::{Matrix, transpose_matrix_c2r};
//! let a = Matrix::iota(7919, 104); // prime rows — untileable
//! let t = transpose_matrix_c2r(a.clone());
//! assert_eq!(t, a.transposed());
//! ```

use crate::check::checked_words;
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

/// Phase 2 along row `i`: yields [`C2rGeometry::row_shuffle_src_col`] for
/// output column 0, 1, 2, …. Built once per row, with every `/`, `%` and
/// `u128` step at construction; a step only adds and conditionally
/// subtracts. The source column is `x·b + y`. From one output column to
/// the next, `x` falls by one mod `c`, so `r = (i − x) mod M` rises by
/// one — or, when `x` wraps to `c − 1`, falls by `c − 1` while
/// `z = ((j − r) mod N)/c` rises by one and `y = z·a⁻¹ mod b` by `a⁻¹`.
/// `r` crossing `M` moves `z` by `±a`, that is `y` by `±1`.
#[derive(Debug)]
struct RowWalk {
    /// `x·b`.
    xb: usize,
    /// `(i − x) mod M`.
    r: usize,
    /// `y < b`.
    y: usize,
    m: usize,
    b: usize,
    /// `c − 1`.
    c1: usize,
    /// `(c − 1)·b`.
    c1b: usize,
    a_inv: usize,
}

impl RowWalk {
    fn new(geom: &C2rGeometry, i: usize) -> Self {
        let (m, b, c) = (geom.m, geom.b, geom.c);
        let s = geom.row_shuffle_src_col(i, 0);
        // At column 0, x = i mod c ≤ i, so r = i − x needs no wrap.
        let x = s / b;
        Self { xb: x * b, r: i - x, y: s % b, m, b, c1: c - 1, c1b: (c - 1) * b, a_inv: geom.a_inv }
    }

    #[inline]
    fn next_src(&mut self) -> usize {
        let s = self.xb + self.y;
        if self.xb > 0 {
            self.xb -= self.b;
            self.r += 1;
            if self.r == self.m {
                self.r = 0;
                self.y += 1;
                if self.y == self.b {
                    self.y = 0;
                }
            }
        } else {
            self.xb = self.c1b;
            if self.r >= self.c1 {
                self.r -= self.c1;
            } else {
                self.r += self.m - self.c1;
                self.y = if self.y == 0 { self.b - 1 } else { self.y - 1 };
            }
            self.y += self.a_inv;
            if self.y >= self.b {
                self.y -= self.b;
            }
        }
        s
    }
}

/// A gather walk over a block of adjacent columns `q0, q0 + 1, …`: each
/// call fills `src[d]` with the row that the next output row of column
/// `q0 + d` comes from. Built once per block, with the divisions at
/// construction; a row only adds and conditionally subtracts.
trait BlockWalk {
    fn new(geom: &C2rGeometry, q0: usize) -> Self;

    /// Sources of the next output row; `src.len() ≤ N − q0`.
    fn next_row(&mut self, src: &mut [usize]);
}

/// Phase 1 over a block: [`C2rGeometry::rotate_src_row`]. Column `q`
/// rotates by `⌊q/b⌋ mod M`, so along an output row the source row holds
/// for runs of `b` columns and falls by one (mod `M`) where a run starts;
/// from one output row to the next, every source rises by one.
#[derive(Debug)]
struct RotateBlock {
    /// Source row of column `q0` for the next output row.
    src0: usize,
    /// `d` of the first column past `q0` that starts a run.
    first_run: usize,
    m: usize,
    b: usize,
}

impl BlockWalk for RotateBlock {
    fn new(geom: &C2rGeometry, q0: usize) -> Self {
        let (m, b) = (geom.m, geom.b);
        Self { src0: geom.rotate_src_row(0, q0), first_run: b - q0 % b, m, b }
    }

    #[inline]
    fn next_row(&mut self, src: &mut [usize]) {
        let (mut s, mut run) = (self.src0, self.first_run);
        for (d, slot) in src.iter_mut().enumerate() {
            if d == run {
                s = if s == 0 { self.m - 1 } else { s - 1 };
                run += self.b;
            }
            *slot = s;
        }
        self.src0 += 1;
        if self.src0 == self.m {
            self.src0 = 0;
        }
    }
}

/// Phase 3 over a block: [`C2rGeometry::col_shuffle_src_row`], which is
/// `(t mod M + ⌊t/L⌋) mod M` with `t = J·N + q` and `L = M·b = a·N`,
/// since `⌊⌊t/M⌋/b⌋ = ⌊t/L⌋`. As `q < N`, `⌊t/L⌋ = ⌊J/a⌋`: it stays
/// below `c ≤ M` and is the same for every column of an output row, so
/// along the row the source rises by one per column (mod `M`). Each
/// output row adds `N` to `t`.
#[derive(Debug)]
struct ColBlock {
    /// `t mod M` at column `q0` of the next output row.
    t_m: usize,
    /// `⌊J/a⌋`.
    k: usize,
    /// Output rows left until `k` next rises.
    rows_to_k: usize,
    m: usize,
    /// `N mod M`.
    n_m: usize,
    a: usize,
}

impl BlockWalk for ColBlock {
    fn new(geom: &C2rGeometry, q0: usize) -> Self {
        let (m, a) = (geom.m, geom.a);
        Self { t_m: q0 % m, k: 0, rows_to_k: a, m, n_m: geom.n % m, a }
    }

    #[inline]
    fn next_row(&mut self, src: &mut [usize]) {
        let m = self.m;
        let mut s = self.t_m + self.k;
        if s >= m {
            s -= m;
        }
        for slot in src {
            *slot = s;
            s += 1;
            if s == m {
                s = 0;
            }
        }
        self.t_m += self.n_m;
        if self.t_m >= m {
            self.t_m -= m;
        }
        self.rows_to_k -= 1;
        if self.rows_to_k == 0 {
            self.rows_to_k = self.a;
            self.k += 1;
        }
    }
}

/// The cache line the column passes fill per row of a block.
const LINE_BYTES: usize = 64;

/// Columns per block: one cache line of `T`s, narrowed so the `M·W`
/// scratch stays under [`crate::SCRATCH_BYTES`] or one column, whichever
/// is larger, and never wider than the matrix.
fn block_width<T>(m_rows: usize, n_cols: usize) -> usize {
    let size = std::mem::size_of::<T>().max(1);
    let line = (LINE_BYTES / size).max(1);
    let cap = (crate::SCRATCH_BYTES / size / m_rows).max(1);
    line.min(cap).min(n_cols)
}

/// One host pass of the decomposition.
#[derive(Debug, Clone, Copy)]
enum Pass {
    Rotate,
    RowShuffle,
    ColShuffle,
}

/// A host C2R transposition checked against its buffer: the geometry and
/// the block width of the column passes. The passes' units — rows, or
/// blocks of `w` adjacent columns — are disjoint, so they run in any
/// order on any thread.
#[derive(Debug)]
struct HostPlan {
    geom: C2rGeometry,
    /// Buffer length, `M·N`.
    len: usize,
    /// Columns per block, `1 ≤ w ≤ min(N, LINE_BYTES)`.
    w: usize,
}

impl HostPlan {
    /// # Panics
    /// Panics if `len` is not `m_rows·n_cols` (products past `u64` never
    /// match) or a dimension is zero.
    fn new<T>(len: usize, m_rows: usize, n_cols: usize) -> Self {
        assert!(
            checked_words(m_rows, n_cols) == Some(len as u64),
            "a buffer of {len} elements does not hold a {m_rows}x{n_cols} matrix"
        );
        let geom = C2rGeometry::new(m_rows, n_cols);
        Self { geom, len, w: block_width::<T>(m_rows, n_cols) }
    }

    /// The passes to run, in order (`c = 1` skips the rotate).
    fn passes(&self) -> impl Iterator<Item = Pass> {
        let rotate = self.geom.needs_rotate().then_some(Pass::Rotate);
        rotate.into_iter().chain([Pass::RowShuffle, Pass::ColShuffle])
    }

    fn units(&self, pass: Pass) -> usize {
        match pass {
            Pass::RowShuffle => self.geom.m,
            Pass::Rotate | Pass::ColShuffle => self.geom.n.div_ceil(self.w),
        }
    }

    /// Run `pass` over `data` on the caller's rayon pool, one task per
    /// unit, each worker keeping one scratch buffer.
    ///
    /// # Panics
    /// Panics if `data` is not the buffer length the plan was built for.
    fn run<T: Copy + Send + Sync>(&self, data: &mut [T], pass: Pass) {
        assert_eq!(data.len(), self.len, "buffer does not match the plan");
        let data = SharedSlice::new(data);
        (0..self.units(pass)).into_par_iter().for_each_init(Vec::new, |tmp, unit| {
            // SAFETY: the buffer holds `M·N` elements (asserted above), and
            // each unit — a row or a column block, disjoint from every
            // other unit of the pass — goes to exactly one task.
            unsafe { self.run_unit(&data, pass, unit, tmp) }
        });
    }

    /// Permute row `unit` or column block `unit` of `pass`.
    ///
    /// # Safety
    /// `data` holds `M·N` elements, `unit < self.units(pass)`, and no other
    /// thread accesses the unit's elements during the call.
    unsafe fn run_unit<T: Copy>(
        &self,
        data: &SharedSlice<'_, T>,
        pass: Pass,
        unit: usize,
        tmp: &mut Vec<T>,
    ) {
        let n = self.geom.n;
        match pass {
            Pass::RowShuffle => {
                let mut walk = RowWalk::new(&self.geom, unit);
                // SAFETY: row `unit < M` is `unit·N .. unit·N + N ≤ M·N`,
                // and the caller owns it.
                unsafe {
                    data.with_range(unit * n, n, |row| {
                        tmp.clear();
                        tmp.extend_from_slice(row);
                        for slot in row {
                            *slot = tmp[walk.next_src()];
                        }
                    });
                }
            }
            // SAFETY (both arms): the block's columns lie below `N` and
            // the caller owns them.
            Pass::Rotate => unsafe { self.gather_block::<T, RotateBlock>(data, unit, tmp) },
            Pass::ColShuffle => unsafe { self.gather_block::<T, ColBlock>(data, unit, tmp) },
        }
    }

    /// Gather block `unit`: stage its columns row by row (one line-wide
    /// run per row), then rewrite each output row from the staged rows
    /// that `K` names.
    ///
    /// # Safety
    /// `data` holds `M·N` elements, `unit < N.div_ceil(w)`, and no other
    /// thread accesses the block's columns during the call.
    unsafe fn gather_block<T: Copy, K: BlockWalk>(
        &self,
        data: &SharedSlice<'_, T>,
        unit: usize,
        tmp: &mut Vec<T>,
    ) {
        let (m, n) = (self.geom.m, self.geom.n);
        let q0 = unit * self.w;
        let w = self.w.min(n - q0);
        tmp.clear();
        for r in 0..m {
            // SAFETY: `q0 + w ≤ N`, so the run `r·N + q0 .. + w` lies in
            // row `r < M` and in the caller's columns.
            unsafe { data.with_range(r * n + q0, w, |run| tmp.extend_from_slice(run)) };
        }
        let mut walk = K::new(&self.geom, q0);
        let mut src = [0; LINE_BYTES];
        let src = &mut src[..w];
        for k in 0..m {
            walk.next_row(src);
            // SAFETY: as above, for row `k < M`.
            unsafe {
                data.with_range(k * n + q0, w, |run| {
                    for (d, (slot, &s)) in run.iter_mut().zip(src.iter()).enumerate() {
                        *slot = tmp[s * w + d];
                    }
                });
            }
        }
    }
}

/// In-place C2R transposition of a row-major `M × N` buffer on the
/// caller's rayon pool: every pass runs its rows or column blocks in
/// parallel. Total: any `M, N ≥ 1`. Scratch: one row, or one block of
/// `M·W` elements, per worker (see the module docs).
///
/// # Panics
/// Panics if `data.len()` is not `m_rows·n_cols` (checked, so an
/// overflowing shape panics too) or a dimension is zero.
pub fn transpose_c2r<T: Copy + Send + Sync>(data: &mut [T], m_rows: usize, n_cols: usize) {
    let plan = HostPlan::new::<T>(data.len(), m_rows, n_cols);
    for pass in plan.passes() {
        plan.run(data, pass);
    }
}

/// Convenience wrapper over [`Matrix`].
///
/// # Panics
/// As [`transpose_c2r`] (zero dimensions only).
#[must_use]
pub fn transpose_matrix_c2r<T: Copy + Send + Sync>(matrix: Matrix<T>) -> Matrix<T> {
    let (m, n) = (matrix.rows(), matrix.cols());
    let mut matrix = matrix;
    transpose_c2r(matrix.as_mut_slice(), m, n);
    matrix.assume_transposed_shape()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coprime::{minv_for, phase1_src_col, phase2_src_row};
    use proptest::prelude::*;

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
            crate::on_pool(1, || transpose_c2r(&mut data, m, n));
            assert_eq!(data, mat.transposed().into_vec(), "{m}x{n}");
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
    fn two_word_elements_match_the_packed_reference() {
        // `[u32; 2]` elements run through the same generic functions as
        // words: on every shape class they must land where packed `u64`
        // elements and the naive transpose put them.
        for &(m, n) in SHAPES {
            let packed: Vec<u64> =
                (0..m * n).map(|k| (k as u64) << 32 | (k as u64 ^ 0x5a5a)).collect();
            let mut want = vec![0u64; m * n];
            for r in 0..m {
                for q in 0..n {
                    want[q * m + r] = packed[r * n + q];
                }
            }
            let mut got = packed.clone();
            crate::on_pool(1, || transpose_c2r(&mut got, m, n));
            assert_eq!(got, want, "u64 {m}x{n}");
            let split = |v: &[u64]| -> Vec<[u32; 2]> {
                v.iter().map(|&x| [x as u32, (x >> 32) as u32]).collect()
            };
            for threads in [1, 2] {
                let mut pairs = split(&packed);
                crate::on_pool(threads, || transpose_c2r(&mut pairs, m, n));
                assert_eq!(pairs, split(&want), "{m}x{n} on {threads} threads");
            }
        }
    }

    /// `3 · (usize::MAX / 3 + 2)` wraps to 5: an unchecked length test
    /// would let a 5-element buffer through and the passes would write far
    /// past its end.
    const WRAPPING: (usize, usize) = (3, usize::MAX / 3 + 2);

    #[test]
    #[should_panic(expected = "does not hold a 3x")]
    fn rejects_a_shape_whose_size_overflows() {
        transpose_c2r(&mut [0u8; 5], WRAPPING.0, WRAPPING.1);
    }

    #[test]
    fn tall_shapes_narrow_the_block() {
        assert_eq!(block_width::<f32>(100, 1000), 16, "one 64-byte line");
        assert_eq!(block_width::<f32>(100, 5), 5, "never wider than the matrix");
        assert_eq!(block_width::<u8>(100, 1000), 64);
        assert_eq!(block_width::<[u8; 100]>(100, 1000), 1);
        assert_eq!(block_width::<f32>(40_009, 1000), 13, "2 MiB / (40009 · 4 B)");
        assert_eq!(block_width::<f32>(1 << 20, 1000), 1, "one column is over the cap");
        // The capped width, with a tail block: 17 = 13 + 4 columns.
        let (m, n) = (40_009, 17);
        let plan = HostPlan::new::<f32>(m * n, m, n);
        assert_eq!(plan.w, 13);
        let one = HostPlan { w: 1, ..HostPlan::new::<f32>(m * n, m, n) };
        let mat = Matrix::pattern_f32(m, n);
        let (mut a, mut b) = (mat.as_slice().to_vec(), mat.as_slice().to_vec());
        for pass in plan.passes() {
            plan.run(&mut a, pass);
            one.run(&mut b, pass);
            assert!(a == b, "{pass:?} {m}x{n}: 13-column blocks differ from one column");
        }
        assert!(a == mat.transposed().into_vec(), "{m}x{n}");
    }

    /// Shapes up to 160×160 with the class each is forced into:
    /// 0 → `c = 1`, 1 → `c > 1`, 2 → `a = 1` (`M | N`), 3 → `b = 1`
    /// (`N | M`).
    fn classed_shapes() -> impl Strategy<Value = (usize, usize, usize)> {
        (0usize..4, 1usize..=160, 1usize..=160).prop_map(|(class, x, y)| {
            let (m, n) = match class {
                0 => {
                    let g = gcd(x as u64, y as u64) as usize;
                    (x / g, y / g)
                }
                1 => {
                    let g = 2 + x % 11;
                    (g * (1 + x % (160 / g)), g * (1 + y % (160 / g)))
                }
                2 => {
                    let m = 1 + x % 40;
                    (m, m * (1 + y % (160 / m)))
                }
                _ => {
                    let n = 1 + y % 40;
                    (n * (1 + x % (160 / n)), n)
                }
            };
            (m, n, class)
        })
    }

    /// The sources `K` names over blocks of `w` columns, as `[row][col]`.
    fn block_walked<K: BlockWalk>(g: &C2rGeometry, w: usize) -> Vec<Vec<usize>> {
        let mut out = vec![Vec::with_capacity(g.n); g.m];
        for q0 in (0..g.n).step_by(w) {
            let mut walk = K::new(g, q0);
            let mut src = vec![0; w.min(g.n - q0)];
            for row in &mut out {
                walk.next_row(&mut src);
                row.extend_from_slice(&src);
            }
        }
        out
    }

    /// `f(row, col)` over the whole `M × N` grid.
    fn grid(g: &C2rGeometry, f: impl Fn(usize, usize) -> usize) -> Vec<Vec<usize>> {
        (0..g.m).map(|i| (0..g.n).map(|q| f(i, q)).collect()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn walkers_yield_the_geometry_formulas((m, n, class) in classed_shapes()) {
            let g = C2rGeometry::new(m, n);
            let forced = [g.c == 1, g.c > 1, g.a == 1, g.b == 1][class];
            prop_assert!(forced, "{}x{} is not of class {}", m, n, class);
            let rows: Vec<Vec<usize>> = (0..m)
                .map(|i| {
                    let mut walk = RowWalk::new(&g, i);
                    (0..n).map(|_| walk.next_src()).collect()
                })
                .collect();
            prop_assert!(rows == grid(&g, |i, j| g.row_shuffle_src_col(i, j)), "row shuffle {}x{}", m, n);
            let rotate = grid(&g, |i, q| g.rotate_src_row(i, q));
            let cols = grid(&g, |j, q| g.col_shuffle_src_row(j, q));
            for w in [1, 3, 16, block_width::<f32>(m, n)] {
                prop_assert!(block_walked::<RotateBlock>(&g, w) == rotate, "rotate {}x{} w={}", m, n, w);
                prop_assert!(block_walked::<ColBlock>(&g, w) == cols, "col shuffle {}x{} w={}", m, n, w);
            }
        }

        #[test]
        fn block_passes_match_one_column_passes(
            (m, n, _) in classed_shapes(),
            w in prop::sample::select(vec![3usize, 16]),
        ) {
            let one = HostPlan { w: 1, ..HostPlan::new::<u32>(m * n, m, n) };
            let wide = HostPlan { w: w.min(n), ..HostPlan::new::<u32>(m * n, m, n) };
            let mat = Matrix::iota(m, n);
            let (mut a, mut b) = (mat.as_slice().to_vec(), mat.as_slice().to_vec());
            for pass in one.passes() {
                one.run(&mut a, pass);
                wide.run(&mut b, pass);
                prop_assert_eq!(&a, &b, "{:?} {}x{} w={}", pass, m, n, w);
            }
            prop_assert_eq!(a, mat.transposed().into_vec(), "{}x{}", m, n);
        }

        #[test]
        fn par_matches_seq_on_two_threads((m, n, _) in classed_shapes()) {
            let mat = Matrix::pattern_f32(m, n);
            let mut seq = mat.as_slice().to_vec();
            crate::on_pool(1, || transpose_c2r(&mut seq, m, n));
            let mut par = mat.as_slice().to_vec();
            crate::on_pool(2, || transpose_c2r(&mut par, m, n));
            prop_assert!(seq == par, "{}x{}: 2 threads differ from 1", m, n);
            prop_assert!(seq == mat.transposed().into_vec(), "{}x{}", m, n);
        }
    }
}
