//! Elementary tiled transpositions — the building blocks of staged full
//! transposition (§4 of the paper).
//!
//! Every elementary transposition the paper uses (`010!`, `100!`, `0100!`,
//! `0010!`, `1000!`) is an instance of one unified operation: view the array
//! as `instances × rows × cols × super_size` and, **independently within each
//! instance**, permute the `rows × cols` grid of contiguous super-elements to
//! `cols × rows` order. Concretely:
//!
//! | paper op | instances | rows | cols | super | view transform |
//! |----------|-----------|------|------|-------|----------------|
//! | `010!`   | A         | m    | n    | 1     | `A×m×n → A×n×m` |
//! | `100!`   | 1         | N    | M′   | m     | `N×M′×m → M′×N×m` |
//! | `0100!`  | M′        | m    | N′   | n     | `M′×m×N′×n → M′×N′×m×n` |
//! | `0010!`  | M′·N′     | m    | n    | 1     | `…×m×n → …×n×m` |
//! | `1000!`  | 1         | M′   | N′   | m·n   | `M′×N′×(mn) → N′×M′×(mn)` |
//!
//! The data movement inside one instance depends on its size. An instance
//! of up to 2 MiB is copied into a worker's scratch tile and written back
//! in transposed order, contiguous on the output side: the paper's BS
//! kernel, with the scratch tile as on-chip memory. A larger instance is
//! cycle-followed over the permutation `k ↦ k·rows mod (rows·cols − 1)`
//! acting on super-element indices ([`TransposePerm`]). This module
//! provides a sequential in-place engine over any bijective index map, an
//! out-of-place reference, and the instanced wrapper, which runs on the
//! caller's rayon pool; [`parallel`] adds the cycle-parallel engine.

use rayon::prelude::*;

use crate::perm::cycle::TransposePerm;

pub mod parallel;

/// A bijective map on super-element indices `0..len`, the abstract interface
/// of the in-place shifting engine.
///
/// Implementors must guarantee `dest` is a bijection and `src` its inverse.
pub trait IndexPerm: Sync {
    /// Number of super-elements the permutation acts on.
    fn len(&self) -> usize;
    /// Where the super-element currently at `k` must move to.
    fn dest(&self, k: usize) -> usize;
    /// Which super-element moves into position `k` (inverse of `dest`).
    fn src(&self, k: usize) -> usize;

    /// True if the map has no elements (default: `len() == 0`).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl IndexPerm for TransposePerm {
    fn len(&self) -> usize {
        TransposePerm::len(self)
    }
    fn dest(&self, k: usize) -> usize {
        TransposePerm::dest(self, k)
    }
    fn src(&self, k: usize) -> usize {
        TransposePerm::src(self, k)
    }
}

/// Shift super-elements of `super_size` contiguous `T`s within `data`
/// according to `perm`, in place, following cycles sequentially.
///
/// Berman-style bookkeeping: one visited bit per super-element (O(len)
/// time) plus a single temporary super-element. For the zero-workspace
/// flavour (leaders recomputed by walking — Windley 1959, and the reason
/// sequential in-place transposition like `mkl_simatcopy` is so slow) see
/// [`cycle_shift_seq_minimal`].
///
/// # Panics
/// Panics if `data.len() != perm.len() * super_size`.
pub fn cycle_shift_seq<T: Copy>(data: &mut [T], perm: &impl IndexPerm, super_size: usize) {
    let mut visited = vec![false; perm.len()];
    cycle_shift_seq_with(data, perm, super_size, &mut visited);
}

/// [`cycle_shift_seq`] with a caller-provided visited bitmap, so repeated
/// shifts over same-shaped chunks reuse one allocation. The bitmap is
/// cleared on entry.
///
/// # Panics
/// As [`cycle_shift_seq`]; additionally if `visited.len() != perm.len()`.
fn cycle_shift_seq_with<T: Copy>(
    data: &mut [T],
    perm: &impl IndexPerm,
    super_size: usize,
    visited: &mut Vec<bool>,
) {
    assert!(super_size > 0, "super_size must be positive");
    assert_eq!(data.len(), perm.len() * super_size, "data/permutation size mismatch");
    assert_eq!(visited.len(), perm.len(), "visited bitmap size mismatch");
    visited.fill(false);
    let n = perm.len();
    let mut tmp: Vec<T> = Vec::with_capacity(super_size);
    for leader in 0..n {
        if visited[leader] {
            continue;
        }
        visited[leader] = true;
        if perm.dest(leader) == leader {
            continue; // fixed point
        }
        shift_one_cycle(data, perm, super_size, leader, &mut tmp, Some(visited));
    }
}

/// [`cycle_shift_seq`] with zero workspace beyond one super-element:
/// leaders are recomputed by walking each cycle (worst-case superlinear —
/// this is why purely sequential in-place transposition is slow).
///
/// # Panics
/// Panics if `data.len() != perm.len() * super_size`.
pub fn cycle_shift_seq_minimal<T: Copy>(data: &mut [T], perm: &impl IndexPerm, super_size: usize) {
    assert!(super_size > 0, "super_size must be positive");
    assert_eq!(data.len(), perm.len() * super_size, "data/permutation size mismatch");
    let n = perm.len();
    let mut tmp: Vec<T> = Vec::with_capacity(super_size);
    for leader in 0..n {
        if perm.dest(leader) == leader {
            continue; // fixed point
        }
        // Leader test: walk the cycle, bail if any member is smaller.
        let mut cur = perm.dest(leader);
        let mut is_leader = true;
        while cur != leader {
            if cur < leader {
                is_leader = false;
                break;
            }
            cur = perm.dest(cur);
        }
        if !is_leader {
            continue;
        }
        shift_one_cycle(data, perm, super_size, leader, &mut tmp, None);
    }
}

/// Shift the cycle through `leader`: `data'[x] = data[src(x)]`, walked
/// backwards from the leader so a single temp super-element suffices.
/// Marks members in `visited` when provided.
fn shift_one_cycle<T: Copy>(
    data: &mut [T],
    perm: &impl IndexPerm,
    super_size: usize,
    leader: usize,
    tmp: &mut Vec<T>,
    mut visited: Option<&mut Vec<bool>>,
) {
    if super_size == 1 {
        // Scalar fast path: range-based copies cost more than the move.
        let saved = data[leader];
        let mut cur = leader;
        let mut prev = perm.src(cur);
        while prev != leader {
            if let Some(v) = visited.as_deref_mut() {
                v[prev] = true;
            }
            data[cur] = data[prev];
            cur = prev;
            prev = perm.src(cur);
        }
        data[cur] = saved;
        return;
    }
    tmp.clear();
    tmp.extend_from_slice(&data[leader * super_size..(leader + 1) * super_size]);
    let mut cur = leader;
    let mut prev = perm.src(cur);
    while prev != leader {
        if let Some(v) = visited.as_deref_mut() {
            v[prev] = true;
        }
        data.copy_within(prev * super_size..(prev + 1) * super_size, cur * super_size);
        cur = prev;
        prev = perm.src(cur);
    }
    data[cur * super_size..(cur + 1) * super_size].copy_from_slice(tmp);
}

/// Out-of-place reference for the same operation: `dst[dest(k)] = src_data[k]`.
///
/// # Panics
/// Panics on size mismatches.
pub fn cycle_shift_oop<T: Copy>(
    src_data: &[T],
    dst: &mut [T],
    perm: &impl IndexPerm,
    super_size: usize,
) {
    assert!(super_size > 0);
    assert_eq!(src_data.len(), perm.len() * super_size);
    assert_eq!(dst.len(), src_data.len());
    for k in 0..perm.len() {
        let d = perm.dest(k);
        dst[d * super_size..(d + 1) * super_size]
            .copy_from_slice(&src_data[k * super_size..(k + 1) * super_size]);
    }
}

/// The unified elementary tiled transposition: `instances` independent
/// in-place transpositions of `rows × cols` grids of super-elements of
/// `super_size` scalars each, over contiguous chunks of the array.
///
/// ```
/// use ipt_core::InstancedTranspose;
/// // 100!: view 4×3 super-elements of 2 words, transpose in place.
/// let op = InstancedTranspose::new(1, 4, 3, 2);
/// let mut data: Vec<u32> = (0..24).collect();
/// op.apply(&mut data);
/// assert_eq!(&data[0..6], &[0, 1, 6, 7, 12, 13]); // first output row
/// op.inverse().apply(&mut data);
/// assert_eq!(data, (0..24).collect::<Vec<_>>());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InstancedTranspose {
    /// Number of independent contiguous instances.
    pub instances: usize,
    /// Rows of each instance's super-element grid (source orientation).
    pub rows: usize,
    /// Columns of each instance's super-element grid (source orientation).
    pub cols: usize,
    /// Scalars per super-element (contiguous, moved as a unit).
    pub super_size: usize,
}

impl InstancedTranspose {
    /// Construct, validating all dimensions are positive.
    #[must_use]
    pub fn new(instances: usize, rows: usize, cols: usize, super_size: usize) -> Self {
        assert!(
            instances > 0 && rows > 0 && cols > 0 && super_size > 0,
            "degenerate InstancedTranspose {instances}x{rows}x{cols}x{super_size}"
        );
        Self { instances, rows, cols, super_size }
    }

    /// Scalars per instance chunk.
    #[inline]
    #[must_use]
    pub fn instance_len(&self) -> usize {
        self.rows * self.cols * self.super_size
    }

    /// Total scalars the operation acts on.
    #[inline]
    #[must_use]
    pub fn total_len(&self) -> usize {
        self.instances * self.instance_len()
    }

    /// The per-instance permutation on super-element indices.
    #[inline]
    #[must_use]
    pub fn perm(&self) -> TransposePerm {
        TransposePerm::new(self.rows, self.cols)
    }

    /// Global scalar-index map of the whole operation (for verification and
    /// stage-plan composition): where the scalar at offset `k` moves to.
    #[must_use]
    pub fn dest_scalar(&self, k: usize) -> usize {
        debug_assert!(k < self.total_len());
        let il = self.instance_len();
        let (inst, within) = (k / il, k % il);
        let (se, s) = (within / self.super_size, within % self.super_size);
        let d = self.perm().dest(se);
        inst * il + d * self.super_size + s
    }

    /// Execute in place on the caller's rayon pool: instances in
    /// parallel, each worker reusing one scratch tile or one visited
    /// bitmap (see the module docs for which); a 1-wide pool runs them one
    /// after the other on the caller. On a wider pool, a single instance
    /// of super-elements over the scratch budget runs cycle-parallel
    /// ([`parallel::cycle_shift_par`]). Any other single instance runs on
    /// the caller: one that fits the scratch is one tile copy, and for a
    /// large one of scalars the cycle-parallel shift's up-front leader
    /// pass costs about as much as the whole sequential shift.
    ///
    /// # Panics
    /// Panics if `data.len() != self.total_len()`.
    pub fn apply<T: Copy + Send + Sync>(&self, data: &mut [T]) {
        assert_eq!(data.len(), self.total_len(), "data length mismatch");
        if self.instances == 1
            && self.super_size > 1
            && !self.fits_scratch::<T>()
            && rayon::current_num_threads() > 1
        {
            parallel::cycle_shift_par(data, &self.perm(), self.super_size);
        } else {
            data.par_chunks_exact_mut(self.instance_len()).for_each_init(
                || (Vec::new(), Vec::new()),
                |(tile, visited), chunk| self.transpose_instance(chunk, tile, visited),
            );
        }
    }

    /// True when one instance of `T`s fits a worker's scratch budget
    /// ([`crate::SCRATCH_BYTES`]) and so is staged through a tile.
    fn fits_scratch<T>(&self) -> bool {
        self.instance_len() <= crate::SCRATCH_BYTES / std::mem::size_of::<T>().max(1)
    }

    /// Transpose one instance, `chunk`, in place. One that fits the
    /// scratch budget is copied into `tile` and gathered back column by
    /// column, so the writes run contiguous; a larger one is
    /// cycle-followed with the `visited` bitmap. Both buffers grow on
    /// first use and are reused across the caller's instances.
    fn transpose_instance<T: Copy>(&self, chunk: &mut [T], tile: &mut Vec<T>, visited: &mut Vec<bool>) {
        let (rows, cols, s) = (self.rows, self.cols, self.super_size);
        if !self.fits_scratch::<T>() {
            visited.resize(rows * cols, false);
            cycle_shift_seq_with(chunk, &self.perm(), s, visited);
            return;
        }
        tile.clear();
        tile.extend_from_slice(chunk);
        // Output row `c` is source column `c`: super-elements `c`,
        // `c + cols`, `c + 2·cols`, … of the tile.
        if s == 1 {
            for (c, out) in chunk.chunks_exact_mut(rows).enumerate() {
                for (x, row) in out.iter_mut().zip(tile.chunks_exact(cols)) {
                    *x = row[c];
                }
            }
        } else {
            for (c, out) in chunk.chunks_exact_mut(rows * s).enumerate() {
                for (x, row) in out.chunks_exact_mut(s).zip(tile.chunks_exact(cols * s)) {
                    x.copy_from_slice(&row[c * s..(c + 1) * s]);
                }
            }
        }
    }

    /// Execute out of place into `dst` (reference semantics).
    pub fn apply_oop<T: Copy>(&self, src: &[T], dst: &mut [T]) {
        assert_eq!(src.len(), self.total_len());
        assert_eq!(dst.len(), self.total_len());
        let perm = self.perm();
        let il = self.instance_len();
        for (s, d) in src.chunks_exact(il).zip(dst.chunks_exact_mut(il)) {
            cycle_shift_oop(s, d, &perm, self.super_size);
        }
    }

    /// The inverse operation (undoes this transposition).
    #[must_use]
    pub fn inverse(&self) -> Self {
        Self { instances: self.instances, rows: self.cols, cols: self.rows, super_size: self.super_size }
    }
}

/// The fused stage-2+3 operation of the 4-stage algorithm
/// (Karlsson/Gustavson fusion): in a `rows_outer × cols_outer` grid of
/// `rows_inner × cols_inner` tiles, simultaneously transpose the grid *and*
/// each tile: `(a, b, c, d) ↦ (b, a, d, c)` on the 4-D view.
///
/// Unlike [`InstancedTranspose`] the moved unit is a scalar, and the index
/// map is not a plain 2-D transposition, so it implements [`IndexPerm`]
/// directly and is executed by the generic engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FusedTileTranspose {
    /// Outer grid rows (M′).
    pub rows_outer: usize,
    /// Outer grid cols (N′).
    pub cols_outer: usize,
    /// Tile rows (m).
    pub rows_inner: usize,
    /// Tile cols (n).
    pub cols_inner: usize,
}

impl FusedTileTranspose {
    /// Construct, validating dimensions.
    #[must_use]
    pub fn new(rows_outer: usize, cols_outer: usize, rows_inner: usize, cols_inner: usize) -> Self {
        assert!(rows_outer > 0 && cols_outer > 0 && rows_inner > 0 && cols_inner > 0);
        Self { rows_outer, cols_outer, rows_inner, cols_inner }
    }

    #[inline]
    fn decompose(&self, k: usize) -> (usize, usize, usize, usize) {
        let tile = self.rows_inner * self.cols_inner;
        let (outer, within) = (k / tile, k % tile);
        let (a, b) = (outer / self.cols_outer, outer % self.cols_outer);
        let (c, d) = (within / self.cols_inner, within % self.cols_inner);
        (a, b, c, d)
    }

    /// Execute in place on the caller. The pool goes unused: the
    /// cycle-parallel shift loses to the sequential one at 2 threads.
    pub fn apply<T: Copy>(&self, data: &mut [T]) {
        cycle_shift_seq(data, self, 1);
    }
}

impl IndexPerm for FusedTileTranspose {
    fn len(&self) -> usize {
        self.rows_outer * self.cols_outer * self.rows_inner * self.cols_inner
    }

    fn dest(&self, k: usize) -> usize {
        let (a, b, c, d) = self.decompose(k);
        // (a,b,c,d) → (b,a,d,c) over shape (cols_outer, rows_outer,
        // cols_inner, rows_inner) in the destination.
        ((b * self.rows_outer + a) * self.cols_inner + d) * self.rows_inner + c
    }

    fn src(&self, k: usize) -> usize {
        // Destination shape is (cols_outer, rows_outer, cols_inner,
        // rows_inner); invert the map.
        let tile = self.rows_inner * self.cols_inner;
        let (outer, within) = (k / tile, k % tile);
        let (b, a) = (outer / self.rows_outer, outer % self.rows_outer);
        let (d, c) = (within / self.rows_inner, within % self.rows_inner);
        ((a * self.cols_outer + b) * self.rows_inner + c) * self.cols_inner + d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use proptest::prelude::*;

    #[test]
    fn cycle_shift_seq_matches_oop() {
        for &(rows, cols, s) in &[(5, 3, 1), (3, 5, 2), (4, 4, 3), (7, 2, 4), (1, 6, 2), (6, 1, 5)] {
            let perm = TransposePerm::new(rows, cols);
            let data: Vec<u32> = (0..(rows * cols * s) as u32).collect();
            let mut inplace = data.clone();
            cycle_shift_seq(&mut inplace, &perm, s);
            let mut oop = vec![0u32; data.len()];
            cycle_shift_oop(&data, &mut oop, &perm, s);
            assert_eq!(inplace, oop, "{rows}x{cols} super={s}");
        }
    }

    #[test]
    fn instanced_is_transpose_per_instance() {
        let op = InstancedTranspose::new(3, 4, 5, 2);
        let mut data: Vec<u32> = (0..op.total_len() as u32).collect();
        let orig = data.clone();
        op.apply(&mut data);
        // Verify against the 4-D definition: out[inst][c][r][s] = in[inst][r][c][s]
        let il = op.instance_len();
        for inst in 0..3 {
            for r in 0..4 {
                for c in 0..5 {
                    for s in 0..2 {
                        let src = inst * il + (r * 5 + c) * 2 + s;
                        let dst = inst * il + (c * 4 + r) * 2 + s;
                        assert_eq!(data[dst], orig[src], "inst={inst} r={r} c={c} s={s}");
                    }
                }
            }
        }
    }

    #[test]
    fn instanced_010_is_matrix_transpose() {
        // instances=1, super=1 must equal plain matrix transposition.
        let m = Matrix::iota(7, 4);
        let op = InstancedTranspose::new(1, 7, 4, 1);
        let mut data = m.as_slice().to_vec();
        op.apply(&mut data);
        assert_eq!(data, m.transposed().into_vec());
    }

    #[test]
    fn dest_scalar_matches_oop() {
        let op = InstancedTranspose::new(2, 3, 4, 2);
        let data: Vec<u32> = (0..op.total_len() as u32).collect();
        let mut oop = vec![0u32; data.len()];
        op.apply_oop(&data, &mut oop);
        for k in 0..data.len() {
            assert_eq!(oop[op.dest_scalar(k)], data[k]);
        }
    }

    #[test]
    fn inverse_roundtrip() {
        let op = InstancedTranspose::new(2, 5, 3, 2);
        let mut data: Vec<u32> = (0..op.total_len() as u32).collect();
        let orig = data.clone();
        op.apply(&mut data);
        assert_ne!(data, orig);
        op.inverse().apply(&mut data);
        assert_eq!(data, orig);
    }

    #[test]
    fn fused_matches_two_step() {
        // Fusion must equal 0010! followed by 1000!.
        let (mp, np, m, n) = (3, 4, 2, 5);
        let fused = FusedTileTranspose::new(mp, np, m, n);
        let mut a: Vec<u32> = (0..fused.len() as u32).collect();
        let mut b = a.clone();
        fused.apply(&mut a);
        InstancedTranspose::new(mp * np, m, n, 1).apply(&mut b); // 0010!
        InstancedTranspose::new(1, mp, np, m * n).apply(&mut b); // 1000!
        assert_eq!(a, b);
    }

    #[test]
    fn fused_src_inverts_dest() {
        let fused = FusedTileTranspose::new(3, 4, 2, 5);
        for k in 0..fused.len() {
            assert_eq!(fused.src(fused.dest(k)), k);
            assert_eq!(fused.dest(fused.src(k)), k);
        }
    }

    /// Whether `apply` on a 1-wide and on a 2-wide pool each agree with
    /// the per-element reference `apply_oop` on `orig`.
    fn both_widths_agree<T: Copy + Send + Sync + PartialEq>(
        op: &InstancedTranspose,
        orig: &[T],
    ) -> (bool, bool) {
        let mut want = orig.to_vec();
        op.apply_oop(orig, &mut want);
        let on = |threads| {
            let mut got = orig.to_vec();
            crate::on_pool(threads, || op.apply(&mut got));
            got == want
        };
        (on(1), on(2))
    }

    #[test]
    fn instanced_par_matches_seq_multi_instance() {
        for &(i, r, c, s) in &[(4, 5, 3, 2), (16, 8, 8, 1), (3, 2, 9, 4), (1, 12, 7, 2), (1, 12, 7, 1)] {
            let op = InstancedTranspose::new(i, r, c, s);
            let orig: Vec<u32> = (0..op.total_len() as u32).collect();
            assert_eq!(both_widths_agree(&op, &orig), (true, true), "{i}x{r}x{c}x{s}");
        }
    }

    /// `(instances, rows, cols, super_size, class)` for `elem_bytes`-byte
    /// elements: a small grid (class 0), or an instance just under or at
    /// the scratch budget (class 1, staged through the tile) or just over
    /// it (class 2, cycle-followed).
    fn instanced_shapes(elem_bytes: usize) -> impl Strategy<Value = (usize, usize, usize, usize, usize)> {
        let cap = crate::SCRATCH_BYTES / elem_bytes;
        (1usize..4, 1usize..5, 0usize..3, 1usize..24, 1usize..1024).prop_flat_map(
            move |(i, s, class, small, big)| {
                let lim = cap / (big * s);
                let (rows, cols) = match class {
                    0 => (small, 1..24),
                    1 => (big, (lim - lim / 8).max(1)..lim + 1),
                    _ => (big, lim + 1..lim + lim / 8 + 2),
                };
                (Just(i), Just(rows), cols, Just(s), Just(class))
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn both_strategies_match_the_reference_for_words((i, r, c, s, class) in instanced_shapes(4)) {
            let op = InstancedTranspose::new(i, r, c, s);
            prop_assert_eq!(op.fits_scratch::<u32>(), class < 2, "{:?}", op);
            let orig: Vec<u32> = (0..op.total_len() as u32).collect();
            prop_assert_eq!(both_widths_agree(&op, &orig), (true, true), "{:?}", op);
        }

        #[test]
        fn both_strategies_match_the_reference_for_pairs((i, r, c, s, class) in instanced_shapes(8)) {
            let op = InstancedTranspose::new(i, r, c, s);
            prop_assert_eq!(op.fits_scratch::<[u32; 2]>(), class < 2, "{:?}", op);
            let orig: Vec<[u32; 2]> = (0..op.total_len() as u32).map(|k| [k, !k]).collect();
            prop_assert_eq!(both_widths_agree(&op, &orig), (true, true), "{:?}", op);
        }
    }

    #[test]
    fn f32_instances_at_the_scratch_cap() {
        // 1024×512 f32 is exactly 2 MiB: staged through the tile. One
        // more column and the instance is cycle-followed.
        for (cols, staged) in [(512, true), (513, false)] {
            let op = InstancedTranspose::new(2, 1024, cols, 1);
            assert_eq!(op.fits_scratch::<f32>(), staged, "1024x{cols}");
            let orig: Vec<f32> = (0..op.total_len()).map(|k| k as f32).collect();
            assert_eq!(both_widths_agree(&op, &orig), (true, true), "1024x{cols}");
        }
    }

    #[test]
    #[should_panic(expected = "data length mismatch")]
    fn wrong_length_panics() {
        let op = InstancedTranspose::new(1, 3, 3, 1);
        let mut data = vec![0u32; 8];
        op.apply(&mut data);
    }
}
