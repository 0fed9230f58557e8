//! Gustavson/Karlsson/Kågström-style parallel in-place transposition for
//! multicore CPUs (TOMS 2012; the paper's main CPU comparator, 2.85 GB/s
//! on a 6-core Xeon).
//!
//! The 4-stage blocked algorithm (`0100! → 0010! → 1000! → 0100!`) with
//! their parallelisation strategy:
//!
//! * multi-instance stages parallelise over instances;
//! * the single-instance `1000!` stage parallelises over cycles with
//!   **greedy longest-first assignment** to threads and **a-priori
//!   splitting of long cycles** — each split segment jumps to its start in
//!   `O(log t)` via `dest_pow` (`succ^t(k) = k·Mᵗ mod (MN−1)`), shifts
//!   backwards, and a barrier-separated boundary pass stitches segments.

use ipt_core::elementary::parallel::find_cycle_leaders;
use ipt_core::elementary::IndexPerm;
use ipt_core::stages::{StageOp, StagePlan, TileConfig};
use ipt_core::tiles::TileHeuristic;
use ipt_core::{Matrix, TransposePerm};
use rayon::prelude::*;

/// One shifting task: a contiguous run of cycle positions.
///
/// Sources are cycle indices `[start_idx, end_idx)` (along the cycle from
/// its leader); the task writes destinations `(start_idx, end_idx]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// Cycle leader (any fixed representative of the cycle).
    pub leader: usize,
    /// First source index along the cycle (inclusive).
    pub start_idx: u64,
    /// Last source index along the cycle (exclusive).
    pub end_idx: u64,
}

impl Segment {
    /// Number of moves this segment performs.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.end_idx - self.start_idx
    }

    /// True for an empty segment (never produced by the planner).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Partition the cycles of `perm` into at most `threads` balanced buckets:
/// greedy longest-processing-time assignment, with any cycle longer than
/// `total/threads` split into segments first (the GKK strategy).
#[must_use]
pub fn plan_segments(perm: &TransposePerm, threads: usize) -> Vec<Vec<Segment>> {
    let threads = threads.max(1);
    let leaders = find_cycle_leaders(perm);
    let total: u64 = leaders.iter().map(|&(_, len)| len as u64).sum();
    if total == 0 {
        return vec![Vec::new(); threads];
    }
    let ideal = total.div_ceil(threads as u64).max(1);

    // Split long cycles a priori.
    let mut segments: Vec<Segment> = Vec::new();
    for (leader, len) in leaders {
        let len = len as u64;
        if len <= ideal {
            segments.push(Segment { leader, start_idx: 0, end_idx: len });
        } else {
            let parts = len.div_ceil(ideal);
            let per = len.div_ceil(parts);
            let mut b = 0;
            while b < len {
                let e = (b + per).min(len);
                segments.push(Segment { leader, start_idx: b, end_idx: e });
                b = e;
            }
        }
    }

    // Greedy LPT bin packing.
    segments.sort_unstable_by_key(|s| std::cmp::Reverse(s.len()));
    let mut buckets: Vec<(u64, Vec<Segment>)> = vec![(0, Vec::new()); threads];
    for seg in segments {
        let (load, bucket) = buckets.iter_mut().min_by_key(|(load, _)| *load).expect("non-empty");
        *load += seg.len();
        bucket.push(seg);
    }
    buckets.into_iter().map(|(_, v)| v).collect()
}

/// Unsafe shared-slice handle for disjoint segment shifting.
struct Shared<T> {
    ptr: *mut T,
    len: usize,
}
// SAFETY: `ptr` and `len` describe the buffer `shift_segmented` borrows
// mutably for as long as the handle lives (it never escapes that call), so
// sending the handle moves only the right to move those `T`s: `T: Send`.
unsafe impl<T: Send> Send for Shared<T> {}
// SAFETY: threads sharing `&Shared` read and write `T`s at `ptr` only
// through `at`, and within each phase the segments touch pairwise disjoint
// super-elements, so each `T` is handed between threads rather than
// shared: `T: Send` suffices. `len` is only read.
unsafe impl<T: Send> Sync for Shared<T> {}

impl<T> Shared<T> {
    /// Raw pointer to word `w`. A method (rather than direct field access)
    /// so closures capture `&Shared<T>` — which is `Sync` — instead of the
    /// bare `*mut T` field.
    ///
    /// # Safety
    /// `w` must be in bounds; the caller guarantees disjoint access.
    unsafe fn at(&self, w: usize) -> *mut T {
        debug_assert!(w < self.len);
        unsafe { self.ptr.add(w) }
    }
}

/// Execute a planned segment shift over super-elements of `s` scalars.
///
/// Two phases with a barrier between them (rayon joins provide it):
/// 1. each segment saves its first source super-element (the boundary the
///    previous segment will overwrite),
/// 2. each segment shifts backwards and finally writes the saved boundary.
pub fn shift_segmented<T: Copy + Send + Sync>(
    data: &mut [T],
    perm: &TransposePerm,
    s: usize,
    buckets: &[Vec<Segment>],
) {
    assert_eq!(data.len(), IndexPerm::len(perm) * s);
    let shared = Shared { ptr: data.as_mut_ptr(), len: data.len() };

    // Phase 1: save boundary values.
    let saved: Vec<Vec<(Segment, Vec<T>)>> = buckets
        .par_iter()
        .map(|segs| {
            segs.iter()
                .map(|&seg| {
                    let k = perm.dest_pow(seg.leader, seg.start_idx);
                    let mut buf = Vec::with_capacity(s);
                    // SAFETY: phase 1 only reads.
                    unsafe {
                        buf.extend_from_slice(std::slice::from_raw_parts(shared.at(k * s), s));
                    }
                    (seg, buf)
                })
                .collect()
        })
        .collect();

    // Phase 2: backwards shifts; segments write disjoint destination sets.
    saved.par_iter().for_each(|segs| {
        for (seg, boundary) in segs {
            let perm = *perm;
            // Walk backwards from k_{end} to k_{start+1} using the inverse.
            let mut cur = perm.dest_pow(seg.leader, seg.end_idx);
            let mut idx = seg.end_idx;
            while idx > seg.start_idx + 1 {
                let prev = perm.src(cur);
                // SAFETY: destination indices (start, end] are unique across
                // all segments (cycles are disjoint; segment index ranges
                // partition each cycle); sources read here lie strictly
                // inside this segment's own range.
                unsafe {
                    std::ptr::copy_nonoverlapping(shared.at(prev * s), shared.at(cur * s), s);
                }
                cur = prev;
                idx -= 1;
            }
            // Final destination k_{start+1} receives the saved boundary.
            // SAFETY: as above; `cur` is now k_{start+1}.
            unsafe {
                std::ptr::copy_nonoverlapping(boundary.as_ptr(), shared.at(cur * s), s);
            }
        }
    });
}

/// GKK-parallel execution of one elementary stage.
fn run_stage<T: Copy + Send + Sync>(op: &StageOp, data: &mut [T], threads: usize) {
    match op {
        StageOp::Instanced(op) => {
            if op.instances > 1 {
                // Instance-level parallelism.
                op.apply(data);
            } else {
                // Cycle-level parallelism with splitting.
                let perm = op.perm();
                let buckets = plan_segments(&perm, threads);
                shift_segmented(data, &perm, op.super_size, &buckets);
            }
        }
        StageOp::Fused(f) => f.apply(data),
    }
}

/// The CPU tile heuristic: stage-2 tiles sized for cache (≈64 KB), smaller
/// preferred range than the GPU's. It stays the GKK comparator's own
/// tiling, not ipt-core's host instance ([`TileHeuristic::host`]): Table
/// 3's CPU rows time the comparator as it tiles, so a change to the host
/// planner does not move them.
#[must_use]
pub fn cpu_tile_heuristic() -> TileHeuristic {
    TileHeuristic { shared_capacity_words: 16 * 1024, preferred_lo: 16, preferred_hi: 128 }
}

/// Full GKK in-place transposition: 4-stage plan, all stages parallel,
/// long cycles split across `threads`.
#[must_use]
pub fn transpose_in_place_gkk<T: Copy + Send + Sync>(matrix: Matrix<T>, threads: usize) -> Matrix<T> {
    let (rows, cols) = (matrix.rows(), matrix.cols());
    let mut matrix = matrix;
    let plan = match cpu_tile_heuristic().select(rows, cols) {
        Some(tile) => StagePlan::four_stage(rows, cols, tile)
            .expect("heuristic tile divides the matrix"),
        None => StagePlan::single_stage(rows, cols),
    };
    for stage in &plan.stages {
        run_stage(&stage.op, matrix.as_mut_slice(), threads);
    }
    matrix.assume_transposed_shape()
}

/// GKK-style parallel out-of-place transposition (their OOP comparator in
/// Table 3): the MKL-like per-thread blocked copy,
/// [`crate::mkl_like::transpose_oop_par`], with its 64-element
/// [`crate::mkl_like::BLOCK`].
#[must_use]
pub fn transpose_oop_gkk<T: Copy + Send + Sync + Default>(matrix: &Matrix<T>) -> Matrix<T> {
    crate::mkl_like::transpose_oop_par(matrix)
}

/// Explicit-tile variant for experiments.
#[must_use]
pub fn transpose_in_place_gkk_with_tile<T: Copy + Send + Sync>(
    matrix: Matrix<T>,
    tile: TileConfig,
    threads: usize,
) -> Matrix<T> {
    let (rows, cols) = (matrix.rows(), matrix.cols());
    let mut matrix = matrix;
    let plan = StagePlan::four_stage(rows, cols, tile).expect("tile must divide the matrix");
    for stage in &plan.stages {
        run_stage(&stage.op, matrix.as_mut_slice(), threads);
    }
    matrix.assume_transposed_shape()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segments_cover_all_cycles_exactly_once() {
        for &(r, c) in &[(5, 3), (64, 48), (61, 7), (16, 16)] {
            let perm = TransposePerm::new(r, c);
            for threads in [1, 2, 4, 7] {
                let buckets = plan_segments(&perm, threads);
                assert_eq!(buckets.len(), threads.max(1));
                let mut covered: std::collections::HashMap<usize, Vec<(u64, u64)>> =
                    std::collections::HashMap::new();
                for seg in buckets.iter().flatten() {
                    covered.entry(seg.leader).or_default().push((seg.start_idx, seg.end_idx));
                }
                let leaders = find_cycle_leaders(&perm);
                assert_eq!(covered.len(), leaders.len(), "{r}x{c} t={threads}");
                for (leader, len) in leaders {
                    let mut ranges = covered.remove(&leader).unwrap();
                    ranges.sort_unstable();
                    let mut expect = 0u64;
                    for (b, e) in ranges {
                        assert_eq!(b, expect, "contiguous");
                        assert!(e > b);
                        expect = e;
                    }
                    assert_eq!(expect, len as u64, "full coverage");
                }
            }
        }
    }

    #[test]
    fn segment_loads_are_balanced() {
        // 720×180 has a dominant cycle; splitting must equalise loads.
        let perm = TransposePerm::new(720, 180);
        let buckets = plan_segments(&perm, 6);
        let loads: Vec<u64> =
            buckets.iter().map(|b| b.iter().map(Segment::len).sum()).collect();
        let max = *loads.iter().max().unwrap();
        let min = *loads.iter().min().unwrap();
        assert!(max <= min * 2 + 1, "loads {loads:?}");
    }

    #[test]
    fn segmented_shift_matches_reference() {
        for &(r, c, s) in &[(5, 3, 1), (16, 48, 2), (61, 7, 3), (720, 180, 1), (48, 16, 4)] {
            let perm = TransposePerm::new(r, c);
            let orig: Vec<u32> = (0..(r * c * s) as u32).collect();
            let mut expect = vec![0u32; orig.len()];
            ipt_core::elementary::cycle_shift_oop(&orig, &mut expect, &perm, s);
            for threads in [1, 3, 8] {
                let buckets = plan_segments(&perm, threads);
                let mut got = orig.clone();
                shift_segmented(&mut got, &perm, s, &buckets);
                assert_eq!(got, expect, "{r}x{c} s={s} t={threads}");
            }
        }
    }

    #[test]
    fn gkk_full_transposition_correct() {
        for &(r, c) in &[(6, 15), (64, 48), (720, 180), (100, 100), (37, 41)] {
            let m = Matrix::iota(r, c);
            let want = m.transposed();
            for threads in [1, 4] {
                assert_eq!(
                    transpose_in_place_gkk(m.clone(), threads),
                    want,
                    "{r}x{c} t={threads}"
                );
            }
        }
    }

    #[test]
    fn gkk_with_explicit_tile() {
        let m = Matrix::pattern_f32(96, 72);
        let got = transpose_in_place_gkk_with_tile(m.clone(), TileConfig::new(16, 12), 4);
        assert_eq!(got, m.transposed());
    }

    #[test]
    fn gkk_oop_correct() {
        let m = Matrix::iota(123, 77);
        assert_eq!(transpose_oop_gkk(&m), m.transposed());
    }
}
