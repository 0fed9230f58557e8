//! Multi-threaded execution of elementary transpositions on the host CPU.
//!
//! Two orthogonal sources of parallelism (mirroring §4 of the paper):
//!
//! 1. **Instances** — the `instances` chunks of an [`InstancedTranspose`] are
//!    independent; they parallelise perfectly (`par_chunks_exact_mut`).
//!    Each worker keeps its own buffers across instances: a scratch tile
//!    for instances of up to 2 MiB, staged through it as the paper's BS
//!    kernel stages a tile through on-chip memory, and a visited bitmap
//!    for larger ones, which are cycle-followed.
//! 2. **Cycles** — within a single instance, disjoint cycles never overlap.
//!    This is the P-IPT strategy: one task per cycle. It suffers the load
//!    imbalance the paper describes (one cycle is often several times longer
//!    than all others); rayon's work stealing mitigates but cannot remove a
//!    single dominant cycle. The Gustavson/Karlsson a-priori cycle *splitting*
//!    that fixes this lives in `ipt-baselines::gkk`.

use std::marker::PhantomData;

use rayon::prelude::*;

use super::{IndexPerm, InstancedTranspose};

/// Enumerate cycle leaders (minimum offset of each cycle) and cycle lengths
/// in a single O(len) pass using a visited bitmap (Berman-style bookkeeping,
/// one bit per element).
///
/// Fixed points are excluded — they need no movement.
#[must_use]
pub fn find_cycle_leaders(perm: &impl IndexPerm) -> Vec<(usize, usize)> {
    let n = perm.len();
    let mut visited = vec![false; n];
    let mut out = Vec::new();
    for k in 0..n {
        if visited[k] {
            continue;
        }
        visited[k] = true;
        let mut cur = perm.dest(k);
        if cur == k {
            continue; // fixed point
        }
        let mut len = 1usize;
        while cur != k {
            visited[cur] = true;
            cur = perm.dest(cur);
            len += 1;
        }
        out.push((k, len));
    }
    out
}

/// Shared handle to a mutably borrowed buffer, so several threads can
/// move elements of index sets that are pairwise disjoint — the cycles of
/// a permutation, the columns of a matrix — without any of them holding a
/// `&mut` to the whole buffer (two live `&mut` to one buffer are undefined
/// behaviour even when the indices they touch differ). Every access is
/// `unsafe`: the caller guarantees it is in bounds and that no other
/// thread touches the same index during the handle's life.
pub(crate) struct SharedSlice<'a, T> {
    ptr: *mut T,
    len: usize,
    _borrow: PhantomData<&'a mut [T]>,
}

// SAFETY: `ptr` and `len` describe the buffer that `_borrow` keeps
// mutably borrowed for the handle's whole life, so nothing else can reach
// it; sending the handle moves only the right to move those `T`s, which
// `T: Send` permits.
unsafe impl<T: Send> Send for SharedSlice<'_, T> {}
// SAFETY: through `&SharedSlice`, several threads read and write `T`s at
// `ptr`; every accessor is `unsafe` and requires that no two threads touch
// one index concurrently, so each `T` is handed between threads, never
// shared, and `T: Send` suffices. `len` is never written after `new`.
unsafe impl<T: Send> Sync for SharedSlice<'_, T> {}

impl<'a, T: Copy> SharedSlice<'a, T> {
    pub(crate) fn new(data: &'a mut [T]) -> Self {
        Self { ptr: data.as_mut_ptr(), len: data.len(), _borrow: PhantomData }
    }

    /// Run `f` on the `n` elements from `start` on, as a slice of their
    /// own.
    ///
    /// # Safety
    /// `start + n <= len`, and no other thread accesses those elements
    /// during the call.
    pub(crate) unsafe fn with_range<R>(
        &self,
        start: usize,
        n: usize,
        f: impl FnOnce(&mut [T]) -> R,
    ) -> R {
        debug_assert!(start <= self.len && n <= self.len - start);
        f(unsafe { std::slice::from_raw_parts_mut(self.ptr.add(start), n) })
    }

    /// Copy super-element `from` over super-element `to`.
    ///
    /// # Safety
    /// Both `s`-element ranges are in bounds and no other thread accesses
    /// them concurrently.
    unsafe fn copy_super(&self, from: usize, to: usize, s: usize) {
        debug_assert!(from * s + s <= self.len && to * s + s <= self.len);
        unsafe { std::ptr::copy_nonoverlapping(self.ptr.add(from * s), self.ptr.add(to * s), s) };
    }

    /// Append super-element `k` (`s` elements) to `buf`.
    ///
    /// # Safety
    /// As [`SharedSlice::copy_super`], for the range of `k`.
    pub(crate) unsafe fn push_super(&self, k: usize, s: usize, buf: &mut Vec<T>) {
        debug_assert!(k * s + s <= self.len);
        unsafe { buf.extend_from_slice(std::slice::from_raw_parts(self.ptr.add(k * s), s)) };
    }

    /// Overwrite super-element `k` with `src[..s]`.
    ///
    /// # Safety
    /// As [`SharedSlice::copy_super`], for the range of `k`; `src.len() >= s`.
    pub(crate) unsafe fn write_super(&self, k: usize, s: usize, src: &[T]) {
        debug_assert!(k * s + s <= self.len && src.len() >= s);
        unsafe { std::ptr::copy_nonoverlapping(src.as_ptr(), self.ptr.add(k * s), s) };
    }
}

/// Shift one cycle (identified by any member `leader`) backwards with a
/// single temporary super-element.
///
/// # Safety
/// `data` holds `perm.len()·super_size` elements, and no other thread
/// touches the cycle through `leader` during the call.
unsafe fn shift_cycle<T: Copy>(
    data: &SharedSlice<'_, T>,
    perm: &impl IndexPerm,
    leader: usize,
    super_size: usize,
) {
    let mut tmp = Vec::with_capacity(super_size);
    // SAFETY: every cycle member is < perm.len(), so its super-element is
    // in bounds, and the caller owns the whole cycle.
    unsafe {
        data.push_super(leader, super_size, &mut tmp);
        let mut cur = leader;
        let mut prev = perm.src(cur);
        while prev != leader {
            data.copy_super(prev, cur, super_size);
            cur = prev;
            prev = perm.src(cur);
        }
        data.write_super(cur, super_size, &tmp);
    }
}

/// Cycle-parallel in-place shift: one rayon task per cycle (P-IPT).
///
/// # Panics
/// Panics if `data.len() != perm.len() * super_size`.
pub fn cycle_shift_par<T: Copy + Send + Sync>(
    data: &mut [T],
    perm: &impl IndexPerm,
    super_size: usize,
) {
    assert!(super_size > 0);
    assert_eq!(data.len(), perm.len() * super_size, "data/permutation size mismatch");
    let leaders = find_cycle_leaders(perm);
    let shared = SharedSlice::new(data);
    // Longest cycles first so the dominant cycle starts immediately and the
    // small ones fill in around it (greedy longest-processing-time order).
    let mut leaders = leaders;
    leaders.sort_unstable_by_key(|&(_, len)| std::cmp::Reverse(len));
    leaders.par_iter().for_each(|&(leader, _len)| {
        // SAFETY: the length is asserted above, and cycles are pairwise
        // disjoint index sets, each shifted by exactly one task.
        unsafe { shift_cycle(&shared, perm, leader, super_size) };
    });
}

impl InstancedTranspose {
    /// Execute in place with rayon: instances in parallel, each worker
    /// reusing one scratch tile (instances of up to 2 MiB) or one visited
    /// bitmap (larger ones, cycle-followed). A single instance of
    /// super-elements over 2 MiB falls back to cycle-level parallelism.
    /// Any other single instance runs sequentially: one that fits the
    /// scratch is one tile copy, and for a large one of scalars the
    /// up-front leader pass of [`cycle_shift_par`] costs about as much as
    /// the whole sequential shift, so the parallel shift loses at 2
    /// threads.
    ///
    /// # Panics
    /// Panics if `data.len() != self.total_len()`.
    pub fn apply_par<T: Copy + Send + Sync>(&self, data: &mut [T]) {
        assert_eq!(data.len(), self.total_len(), "data length mismatch");
        if self.instances > 1 {
            data.par_chunks_exact_mut(self.instance_len()).for_each_init(
                || (Vec::new(), Vec::new()),
                |(tile, visited), chunk| self.transpose_instance(chunk, tile, visited),
            );
        } else if self.super_size > 1 && !self.fits_scratch::<T>() {
            cycle_shift_par(data, &self.perm(), self.super_size);
        } else {
            self.apply_seq(data);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elementary::cycle_shift_seq;
    use crate::perm::cycle::TransposePerm;

    #[test]
    fn leaders_match_transpose_perm_leaders() {
        for &(r, c) in &[(5, 3), (7, 4), (6, 6), (2, 9), (1, 5)] {
            let p = TransposePerm::new(r, c);
            let fast: Vec<(usize, usize)> = find_cycle_leaders(&p);
            let slow: Vec<(usize, usize)> = p
                .leaders()
                .into_iter()
                .filter(|&(_, len)| len > 1)
                .map(|(k, len)| (k, len as usize))
                .collect();
            assert_eq!(fast, slow, "{r}x{c}");
        }
    }

    #[test]
    fn par_shift_matches_seq() {
        for &(r, c, s) in &[(5, 3, 1), (3, 5, 2), (16, 48, 1), (48, 16, 4), (61, 7, 3)] {
            let p = TransposePerm::new(r, c);
            let orig: Vec<u32> = (0..(r * c * s) as u32).collect();
            let mut seq = orig.clone();
            cycle_shift_seq(&mut seq, &p, s);
            let mut par = orig.clone();
            cycle_shift_par(&mut par, &p, s);
            assert_eq!(seq, par, "{r}x{c} super={s}");
        }
    }

    #[test]
    fn instanced_par_matches_seq_multi_instance() {
        for &(i, r, c, s) in &[(4, 5, 3, 2), (16, 8, 8, 1), (3, 2, 9, 4), (1, 12, 7, 2), (1, 12, 7, 1)] {
            let op = InstancedTranspose::new(i, r, c, s);
            let orig: Vec<u32> = (0..op.total_len() as u32).collect();
            let mut seq = orig.clone();
            op.apply_seq(&mut seq);
            let mut par = orig.clone();
            op.apply_par(&mut par);
            assert_eq!(seq, par, "{i}x{r}x{c}x{s}");
        }
    }

    #[test]
    fn par_shift_large_stress() {
        // A larger matrix with a long dominant cycle exercises the
        // work-stealing path under real thread contention.
        let p = TransposePerm::new(720, 180);
        let orig: Vec<u32> = (0..p.len() as u32).collect();
        let mut par = orig.clone();
        cycle_shift_par(&mut par, &p, 1);
        let mut expect = vec![0u32; orig.len()];
        super::super::cycle_shift_oop(&orig, &mut expect, &p, 1);
        assert_eq!(par, expect);
    }
}
