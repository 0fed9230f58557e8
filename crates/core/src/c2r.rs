//! The C2R/R2C decomposition of Catanzaro, Keller & Garland (PPoPP 2014)
//! — the general-shape rival to the staged algorithm, and the fix for the
//! paper's own §7.4 limitation ("when the algorithm cannot choose a good
//! tile size (e.g., prime-number dimensions), the throughput would be
//! degraded"; its footnote 6 points at this decomposition). It is
//! **total**: any row-major `M × N` matrix transposes in place as three
//! independent line permutations
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
//! *walker* built once from the geometry (or, at `c = 1`, the rows share
//! one table): construction does every `/`, `%` and `u128` step, and the
//! pass then names the source of each output element with adds,
//! conditional subtracts and loads only.
//!
//! * The row shuffle gathers one row at a time. At `c = 1`, row `i`
//!   gathers column `(y₀(i) + j·a⁻¹) mod N`, so one table of `j·a⁻¹ mod N`,
//!   built once per pass and shared read-only, serves every row: the row
//!   is copied rotated by `y₀(i)` and gathered back through the table,
//!   with no chain from one element to the next. For `c > 1` (and `N`
//!   past `u32`) each row walks a row walker instead.
//! * The rotate and the column shuffle work on blocks of `W` adjacent
//!   columns, `W = 256 B ÷ size_of::<T>()` (64 for `f32`). A block is
//!   staged row by row, four cache lines per row, and written back one
//!   `W`-wide run per row. A one-column pass would use 4 bytes of each
//!   64-byte line it touches.
//! * The rotate writes its output rows in order: each gathers from a
//!   window of staged rows that slides by one per row.
//! * The column shuffle writes its output rows in *source order*. Output
//!   row `J`, column `q` gathers staged row `(s(J) + q) mod M`, where
//!   `s` is a bijection on rows, so the pass writes row `J(s)` for
//!   `s = 0, 1, …` from the diagonal of staged rows `(s + q0 + d) mod M`.
//!   Consecutive rows read overlapping diagonals, a window of `W` staged
//!   rows that stays in L1, and the block streams through once. In
//!   output order, each row would gather one element from each of `W`
//!   staged rows scattered over the block.
//! * The scratch is one row, or one `M·W` block per worker, plus the
//!   shared `N`-entry table at `c = 1`. `W` narrows on tall shapes to
//!   keep a block under 8 MiB, or one column when a column alone is
//!   larger — never a second matrix.
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
//! row `(t mod M + ⌊(t div M)/b⌋) mod M` with `t = J·N + j`.
//!
//! At `c = 1` — exactly the shapes the staged algorithm cannot tile, since
//! for `c > 1` the `(c, c)` tile always exists — the rotate is the
//! identity and the two shuffles collapse to a two-phase decomposition:
//!
//! 1. **row scramble** — within row `r`, the element in column `q` moves
//!    to column `(q·M + r) mod N`, a bijection because `gcd(M, N) = 1`;
//!    in gather form, column `j` reads column `(j − r)·M⁻¹ mod N`;
//! 2. **column shuffle** — within column `q`, the element needed at final
//!    row `J` sits at row `(J·N + q) mod M`.
//!
//! Phase 1 placed the element from `(r, q)` at column `(q·M + r) mod N`,
//! and phase 2 moves it to row `(q·M + r) div N`: linear offset `q·M + r`
//! of the `N × M` result. ∎ The tests pin the general gathers to these
//! two formulas at `c = 1`.
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

/// Phase 1 over a block of adjacent columns `q0, q0 + 1, …`:
/// [`C2rGeometry::rotate_src_row`]. Column `q` rotates by `⌊q/b⌋ mod M`,
/// so along an output row the source row holds for runs of `b` columns
/// and falls by one (mod `M`) where a run starts; from one output row to
/// the next, every source rises by one. Built once per block; a row only
/// adds and conditionally subtracts.
#[derive(Debug)]
struct RotateBlock {
    /// Source row of column `q0` for the next output row.
    src0: usize,
    /// `d` of the first column past `q0` that starts a run.
    first_run: usize,
    m: usize,
    b: usize,
}

impl RotateBlock {
    fn new(geom: &C2rGeometry, q0: usize) -> Self {
        let (m, b) = (geom.m, geom.b);
        Self { src0: geom.rotate_src_row(0, q0), first_run: b - q0 % b, m, b }
    }

    /// Fill `src[d]` with the row that the next output row of column
    /// `q0 + d` comes from; `src.len() ≤ N − q0`.
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

/// Phase 3 in source order. [`C2rGeometry::col_shuffle_src_row`] is
/// `(t mod M + ⌊t/L⌋) mod M` with `t = J·N + q` and `L = M·b = a·N`,
/// since `⌊⌊t/M⌋/b⌋ = ⌊t/L⌋`. As `q < N`, `⌊t/L⌋ = ⌊J/a⌋`, so output row
/// `J` of column `q` gathers row `(s(J) + q) mod M`, where
/// `s(J) = (J·N mod M + ⌊J/a⌋) mod M` is the source of column 0. Writing
/// `J = k·a + j` with `k < c`, `j < a` gives `s = c·(j·b mod a) + k`, a
/// bijection on rows, whose inverse this walks for `s = 0, 1, 2, …`:
/// `J(s) = (s mod c)·a + ((s div c)·b⁻¹ mod a)`. From one `s` to the
/// next, `J` rises by `a`, or, where `s mod c` wraps to 0, restarts at a
/// `j` that has risen by `b⁻¹` mod `a`.
#[derive(Debug)]
struct SourceOrder {
    /// `J` for the next `s`.
    j_out: usize,
    /// `(s div c)·b⁻¹ mod a`, the `j` of the next `s`.
    j: usize,
    /// `c − s mod c`, the steps left until `s mod c` wraps.
    left: usize,
    a: usize,
    c: usize,
    /// `b⁻¹ mod a` (`0` when `a = 1`).
    b_inv: usize,
}

impl SourceOrder {
    fn new(geom: &C2rGeometry) -> Self {
        let (a, c) = (geom.a, geom.c);
        let b_inv = mod_inverse(geom.b as u64 % a as u64, a as u64)
            .expect("a and b are coprime by construction") as usize;
        Self { j_out: 0, j: 0, left: c, a, c, b_inv }
    }

    /// The output row whose column `q` gathers staged row `(s + q) mod M`,
    /// for the next `s`.
    #[inline]
    fn next_row(&mut self) -> usize {
        let j_out = self.j_out;
        self.left -= 1;
        if self.left > 0 {
            self.j_out += self.a;
        } else {
            self.left = self.c;
            self.j += self.b_inv;
            if self.j >= self.a {
                self.j -= self.a;
            }
            self.j_out = self.j;
        }
        j_out
    }
}

/// Fill `run[d]` with column `d` of row `(r + d) mod M` of the staged
/// `M × w` block `tmp`: a diagonal with stride `w + 1` that restarts at
/// row 0 each time it passes row `M − 1` (once per `M` columns).
#[inline]
fn read_diagonal<T: Copy>(tmp: &[T], w: usize, mut r: usize, run: &mut [T]) {
    let m = tmp.len() / w;
    let mut d = 0;
    while d < run.len() {
        let len = (m - r).min(run.len() - d);
        let diagonal = tmp[r * w + d..].iter().step_by(w + 1);
        for (slot, &x) in run[d..d + len].iter_mut().zip(diagonal) {
            *slot = x;
        }
        d += len;
        r = 0;
    }
}

/// The bytes of each row that a column block spans: four cache lines.
const BLOCK_BYTES: usize = 256;

/// A worker's bound on a staged column block. The column shuffle streams
/// through its block in source order, so the block need not fit in L2.
const BLOCK_SCRATCH_BYTES: usize = 8 << 20;

/// Columns per block: [`BLOCK_BYTES`] of `T`s, narrowed so the `M·W`
/// scratch stays under [`BLOCK_SCRATCH_BYTES`] or one column, whichever
/// is larger, and never wider than the matrix.
fn block_width<T>(m_rows: usize, n_cols: usize) -> usize {
    let size = std::mem::size_of::<T>().max(1);
    let line = (BLOCK_BYTES / size).max(1);
    let cap = (BLOCK_SCRATCH_BYTES / size / m_rows).max(1);
    line.min(cap).min(n_cols)
}

/// At `c = 1`, row `i` gathers column `(y₀(i) + j·a⁻¹) mod N`, with
/// `y₀(i) = row_shuffle_src_col(i, 0)`: one table of `j·a⁻¹ mod N` serves
/// every row, once the row is rotated by `y₀(i)`. `None` for `c > 1`, and
/// for `N` past `u32`, where rows walk a [`RowWalk`] instead.
fn row_table(geom: &C2rGeometry) -> Option<Vec<u32>> {
    if geom.c > 1 || u32::try_from(geom.n).is_err() {
        return None;
    }
    let (n, a_inv) = (geom.n, geom.a_inv);
    let mut y = 0;
    let table = (0..n)
        .map(|_| {
            let entry = y as u32;
            y += a_inv;
            if y >= n {
                y -= n;
            }
            entry
        })
        .collect();
    Some(table)
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
    /// Columns per block, `1 ≤ w ≤ min(N, BLOCK_BYTES)`.
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
    /// unit, each worker keeping one scratch buffer. The row shuffle's
    /// table, if any, is built once and shared read-only.
    ///
    /// # Panics
    /// Panics if `data` is not the buffer length the plan was built for.
    fn run<T: Copy + Send + Sync>(&self, data: &mut [T], pass: Pass) {
        assert_eq!(data.len(), self.len, "buffer does not match the plan");
        let table = match pass {
            Pass::RowShuffle => row_table(&self.geom),
            Pass::Rotate | Pass::ColShuffle => None,
        };
        let data = SharedSlice::new(data);
        (0..self.units(pass)).into_par_iter().for_each_init(Vec::new, |tmp, unit| {
            // SAFETY: the buffer holds `M·N` elements (asserted above), and
            // each unit — a row or a column block, disjoint from every
            // other unit of the pass — goes to exactly one task.
            unsafe {
                match pass {
                    Pass::RowShuffle => self.shuffle_row(&data, unit, table.as_deref(), tmp),
                    Pass::Rotate => self.rotate_block(&data, unit, tmp),
                    Pass::ColShuffle => self.shuffle_block(&data, unit, tmp),
                }
            }
        });
    }

    /// Gather row `i`: through `table` at `c = 1` (see [`row_table`]),
    /// else through a [`RowWalk`].
    ///
    /// # Safety
    /// `data` holds `M·N` elements, `i < M`, and no other thread accesses
    /// row `i` during the call.
    unsafe fn shuffle_row<T: Copy>(
        &self,
        data: &SharedSlice<'_, T>,
        i: usize,
        table: Option<&[u32]>,
        tmp: &mut Vec<T>,
    ) {
        let n = self.geom.n;
        // SAFETY: row `i < M` is `i·N .. i·N + N ≤ M·N`, and the caller
        // owns it.
        unsafe {
            data.with_range(i * n, n, |row| {
                tmp.clear();
                if let Some(table) = table {
                    let y0 = self.geom.row_shuffle_src_col(i, 0);
                    tmp.extend_from_slice(&row[y0..]);
                    tmp.extend_from_slice(&row[..y0]);
                    // Every entry is below `N`, so the clamp changes no
                    // index; it lets the compiler drop the bounds check,
                    // which cost this loop a third of its time.
                    let (rotated, last) = (&tmp[..n], n - 1);
                    for (slot, &k) in row.iter_mut().zip(table) {
                        *slot = rotated[(k as usize).min(last)];
                    }
                } else {
                    tmp.extend_from_slice(row);
                    let mut walk = RowWalk::new(&self.geom, i);
                    for slot in row {
                        *slot = tmp[walk.next_src()];
                    }
                }
            });
        }
    }

    /// Stage block `unit` in `tmp` row by row (one `w`-wide run per row)
    /// and return its first column and width.
    ///
    /// # Safety
    /// `data` holds `M·N` elements, `unit < N.div_ceil(w)`, and no other
    /// thread accesses the block's columns during the call.
    unsafe fn stage_block<T: Copy>(
        &self,
        data: &SharedSlice<'_, T>,
        unit: usize,
        tmp: &mut Vec<T>,
    ) -> (usize, usize) {
        let (m, n) = (self.geom.m, self.geom.n);
        let q0 = unit * self.w;
        let w = self.w.min(n - q0);
        tmp.clear();
        for r in 0..m {
            // SAFETY: `q0 + w ≤ N`, so the run `r·N + q0 .. + w` lies in
            // row `r < M` and in the caller's columns.
            unsafe { data.with_range(r * n + q0, w, |run| tmp.extend_from_slice(run)) };
        }
        (q0, w)
    }

    /// Rotate block `unit`: stage it, then rewrite each output row from
    /// the staged rows that a [`RotateBlock`] names.
    ///
    /// # Safety
    /// As [`HostPlan::stage_block`].
    unsafe fn rotate_block<T: Copy>(
        &self,
        data: &SharedSlice<'_, T>,
        unit: usize,
        tmp: &mut Vec<T>,
    ) {
        let (m, n) = (self.geom.m, self.geom.n);
        // SAFETY: the caller's contract is `stage_block`'s.
        let (q0, w) = unsafe { self.stage_block(data, unit, tmp) };
        let mut walk = RotateBlock::new(&self.geom, q0);
        let mut src = [0; BLOCK_BYTES];
        let src = &mut src[..w];
        for k in 0..m {
            walk.next_row(src);
            // SAFETY: as in `stage_block`, for row `k < M`.
            unsafe {
                data.with_range(k * n + q0, w, |run| {
                    for (d, (slot, &s)) in run.iter_mut().zip(src.iter()).enumerate() {
                        *slot = tmp[s * w + d];
                    }
                });
            }
        }
    }

    /// Column-shuffle block `unit` in source order: stage it, then for
    /// `s = 0, 1, …` write output row `J(s)` (a [`SourceOrder`]) from the
    /// diagonal of staged rows `s + q0 + d`. Consecutive `s` read
    /// overlapping diagonals, a window of `w` staged rows that slides by
    /// one.
    ///
    /// # Safety
    /// As [`HostPlan::stage_block`].
    unsafe fn shuffle_block<T: Copy>(
        &self,
        data: &SharedSlice<'_, T>,
        unit: usize,
        tmp: &mut Vec<T>,
    ) {
        let (m, n) = (self.geom.m, self.geom.n);
        // SAFETY: the caller's contract is `stage_block`'s.
        let (q0, w) = unsafe { self.stage_block(data, unit, tmp) };
        let mut walk = SourceOrder::new(&self.geom);
        // `(s + q0) mod M`, the staged row of column `q0`.
        let mut r = q0 % m;
        for _ in 0..m {
            let k = walk.next_row();
            // SAFETY: as in `stage_block`, for row `k < M`.
            unsafe { data.with_range(k * n + q0, w, |run| read_diagonal(tmp, w, r, run)) };
            r += 1;
            if r == m {
                r = 0;
            }
        }
    }
}

/// In-place C2R transposition of a row-major `M × N` buffer on the
/// caller's rayon pool: every pass runs its rows or column blocks in
/// parallel. Total: any `M, N ≥ 1`. Scratch: one row, or one block of
/// `M·W` elements, per worker, and at `c = 1` one `N`-entry table that
/// the workers share (see the module docs).
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

/// [`transpose_c2r`] on a 1-wide pool: inline on the caller.
///
/// # Panics
/// As [`transpose_c2r`].
// Kept only because `benchmark/` imports it; it goes when the benchmark next changes.
pub fn transpose_coprime_seq<T: Copy + Send + Sync>(data: &mut [T], m_rows: usize, n_cols: usize) {
    crate::on_pool(1, || transpose_c2r(data, m_rows, n_cols));
}

/// [`transpose_matrix_c2r`] under the name of the coprime route.
///
/// # Panics
/// As [`transpose_c2r`] (zero dimensions only).
// Kept only because `benchmark/` imports it; it goes when the benchmark next changes.
#[must_use]
pub fn transpose_matrix_coprime<T: Copy + Send + Sync>(matrix: Matrix<T>) -> Matrix<T> {
    transpose_matrix_c2r(matrix)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The `c = 1` row scramble in gather form (module docs): column
    /// `q_out` of row `r` reads column `(q_out − r)·M⁻¹ mod N`.
    fn phase1_src_col(r: usize, q_out: usize, n_cols: usize, minv: usize) -> usize {
        let diff = (q_out + n_cols - r % n_cols) % n_cols;
        (diff * minv) % n_cols
    }

    /// The `c = 1` column shuffle in gather form: final row `j_out` of
    /// column `c` reads row `(j_out·N + c) mod M`.
    fn phase2_src_row(j_out: usize, c: usize, m_rows: usize, n_cols: usize) -> usize {
        (j_out * n_cols + c) % m_rows
    }

    /// `M⁻¹ mod N` for a coprime shape.
    fn minv_for(m_rows: usize, n_cols: usize) -> usize {
        mod_inverse(m_rows as u64 % n_cols as u64, n_cols as u64).expect("coprime shape") as usize
    }

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
        (2, 9),
        (9, 2),
        (9, 9),
        (12, 18),
        (16, 16),
        (30, 42),
        (61, 45),
        (97, 101),
        (122, 183),
        (127, 61),
        (997, 8),
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
                        phase1_src_col(i, j, n, minv),
                        "{m}x{n} i={i} j={j}"
                    );
                    // The gather inverts the scatter `q ↦ (q·M + i) mod N`.
                    assert_eq!(phase1_src_col(i, (j * m + i) % n, n, minv), j, "{m}x{n}");
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
            transpose_coprime_seq(&mut data, m, n);
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
            let t = transpose_matrix_coprime(mat.clone());
            assert_eq!(t, mat.transposed(), "{m}x{n}");
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
        assert_eq!(block_width::<f32>(100, 1000), 64, "256 bytes");
        assert_eq!(block_width::<f32>(100, 5), 5, "never wider than the matrix");
        assert_eq!(block_width::<u8>(100, 1000), 256);
        assert_eq!(block_width::<[u8; 100]>(100, 1000), 2);
        assert_eq!(block_width::<f32>(40_009, 1000), 52, "8 MiB / (40009 · 4 B)");
        assert_eq!(block_width::<f32>(1 << 22, 1000), 1, "one column is over the cap");
        // The capped width, with a tail block: 61 = 52 + 9 columns.
        let (m, n) = (40_009, 61);
        let plan = HostPlan::new::<f32>(m * n, m, n);
        assert_eq!(plan.w, 52);
        let one = HostPlan { w: 1, ..HostPlan::new::<f32>(m * n, m, n) };
        let mat = Matrix::pattern_f32(m, n);
        let (mut a, mut b) = (mat.as_slice().to_vec(), mat.as_slice().to_vec());
        for pass in plan.passes() {
            plan.run(&mut a, pass);
            one.run(&mut b, pass);
            assert!(a == b, "{pass:?} {m}x{n}: 52-column blocks differ from one column");
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

    /// The sources a [`RotateBlock`] names over blocks of `w` columns, as
    /// `[row][col]`.
    fn block_walked(g: &C2rGeometry, w: usize) -> Vec<Vec<usize>> {
        let mut out = vec![Vec::with_capacity(g.n); g.m];
        for q0 in (0..g.n).step_by(w) {
            let mut walk = RotateBlock::new(g, q0);
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
            let want = grid(&g, |i, j| g.row_shuffle_src_col(i, j));
            prop_assert!(rows == want, "row shuffle {}x{}", m, n);
            match row_table(&g) {
                Some(table) => {
                    prop_assert!(g.c == 1, "{}x{}: a table at c = {}", m, n, g.c);
                    let y0 = |i| g.row_shuffle_src_col(i, 0);
                    let rotated = grid(&g, |i, j| (y0(i) + table[j] as usize) % n);
                    prop_assert!(rotated == want, "row table {}x{}", m, n);
                }
                None => prop_assert!(g.c > 1, "{}x{}: no table at c = 1", m, n),
            }
            let rotate = grid(&g, |i, q| g.rotate_src_row(i, q));
            for w in [1, 3, 16, 64, block_width::<f32>(m, n)] {
                prop_assert!(block_walked(&g, w) == rotate, "rotate {}x{} w={}", m, n, w);
            }
            let mut walk = SourceOrder::new(&g);
            let mut seen = vec![false; m];
            for s in 0..m {
                let j_out = walk.next_row();
                prop_assert!(!seen[j_out], "{}x{}: source order repeats row {}", m, n, j_out);
                seen[j_out] = true;
                for q in 0..n {
                    let src = g.col_shuffle_src_row(j_out, q);
                    prop_assert_eq!(src, (s + q) % m, "{}x{} s={} q={}", m, n, s, q);
                }
            }
        }

        #[test]
        fn block_passes_match_one_column_passes(
            (m, n, _) in classed_shapes(),
            w in prop::sample::select(vec![3usize, 16, 64]),
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
