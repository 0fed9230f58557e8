//! Seeded inputs and the output checks.
//!
//! Every matrix element is a pure function of `(seed, stream, offset)`, so
//! an output is checked against the generator itself: no second copy of
//! the input is kept. A transposed `rows × cols` matrix holds source
//! element `k` at `TransposePerm::dest(k)`.

use ipt_core::TransposePerm;

/// SplitMix64's output function.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One input stream: element `k` is word `k` of a SplitMix64 sequence
/// keyed by the run seed and a stream id (one id per operation).
#[derive(Debug, Clone, Copy)]
pub struct Stream(u64);

impl Stream {
    /// Stream `id` of run `seed`.
    pub fn new(seed: u64, id: u64) -> Self {
        Self(mix(
            seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ mix(id.wrapping_add(1))
        ))
    }

    /// Word `k`.
    #[inline]
    pub fn word(self, k: usize) -> u32 {
        (mix(self
            .0
            .wrapping_add((k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
            >> 32) as u32
    }

    /// Element `k` as a finite `f32` (exponent kept below all-ones, so no
    /// NaN or infinity); compared by bits.
    #[inline]
    pub fn f32(self, k: usize) -> f32 {
        f32::from_bits(self.word(k) & 0x7F7F_FFFF)
    }

    /// The first `n` words.
    pub fn words(self, n: usize) -> Vec<u32> {
        (0..n).map(|k| self.word(k)).collect()
    }
}

/// Host threads the benchmark's own fill and check loops use: the
/// machine's available parallelism, never more.
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Fill `out[k] = f(k)` on [`host_threads`] threads.
pub fn fill<T: Send>(out: &mut [T], f: impl Fn(usize) -> T + Sync) {
    let per = out.len().div_ceil(host_threads()).max(1);
    std::thread::scope(|s| {
        for (c, chunk) in out.chunks_mut(per).enumerate() {
            let f = &f;
            s.spawn(move || {
                for (i, slot) in chunk.iter_mut().enumerate() {
                    *slot = f(c * per + i);
                }
            });
        }
    });
}

/// Count elements of `out` — the transpose of a `rows × cols` matrix whose
/// source element `k` is `want(k)` — that are not where
/// `TransposePerm::dest` sends them. Runs on [`host_threads`] threads.
pub fn transposed_mismatches<T: PartialEq + Sync>(
    rows: usize,
    cols: usize,
    out: &[T],
    want: impl Fn(usize) -> T + Sync,
) -> usize {
    if out.len() != rows * cols {
        return out.len().max(rows * cols);
    }
    if rows * cols <= 1 {
        return usize::from(rows * cols == 1 && out[0] != want(0));
    }
    let perm = TransposePerm::new(rows, cols);
    let per = cols.div_ceil(host_threads()).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..cols)
            .step_by(per)
            .map(|j0| {
                let want = &want;
                s.spawn(move || {
                    let mut bad = 0usize;
                    for j in j0..(j0 + per).min(cols) {
                        // dest(i·cols + j) = dest(j) + i for every source
                        // row i: output row j is contiguous.
                        let base = perm.dest(j);
                        let row = &out[base..base + rows];
                        bad += (0..rows).filter(|&i| row[i] != want(i * cols + j)).count();
                    }
                    bad
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("check thread panicked"))
            .sum()
    })
}

/// The serving mix: `(rows, cols, elem_bytes)`. A copy of the reduced
/// `repro serve` mix, kept here so a change to the experiment harness
/// cannot silently change the benchmark. It spans staged shapes (two sizes
/// and an f64 variant), squares (composite and prime-sided), vectors in
/// both orientations (identity short-circuit) and coprime shapes (C2R).
pub const SERVE_MIX: [(usize, usize, usize); 9] = [
    (72, 60, 4),
    (96, 72, 4),
    (60, 60, 4),
    (47, 47, 4),
    (1, 512, 4),
    (512, 1, 4),
    (127, 61, 4),
    (251, 13, 4),
    (72, 60, 8),
];

/// Shapes of the first `n` serve requests: the mix in a fixed LCG order,
/// the same for every seed so that the simulated-clock metrics of the
/// serving workload do not depend on the seed (the seed drives payloads).
pub fn serve_shapes(n: usize) -> Vec<(usize, usize, usize)> {
    let mut state: u64 = 0xC0FF_EE11_D00D_F00D;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            SERVE_MIX[(state >> 33) as usize % SERVE_MIX.len()]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_seeded_and_distinct() {
        let a = Stream::new(1, 0).words(64);
        assert_eq!(a, Stream::new(1, 0).words(64));
        assert_ne!(a, Stream::new(2, 0).words(64));
        assert_ne!(a, Stream::new(1, 1).words(64));
        assert!((0..1000).all(|k| Stream::new(3, 4).f32(k).is_finite()));
    }

    #[test]
    fn check_follows_transpose_perm() {
        for (rows, cols) in [(5, 3), (1, 7), (7, 1), (12, 8), (1, 1)] {
            let src = Stream::new(9, 0);
            let perm = TransposePerm::new(rows, cols);
            let mut out = vec![0u32; rows * cols];
            for k in 0..rows * cols {
                out[perm.dest(k)] = src.word(k);
            }
            assert_eq!(transposed_mismatches(rows, cols, &out, |k| src.word(k)), 0);
            if rows * cols > 1 {
                out.swap(0, 1);
                assert_eq!(transposed_mismatches(rows, cols, &out, |k| src.word(k)), 2);
            }
        }
    }

    #[test]
    fn fill_matches_sequential() {
        let s = Stream::new(5, 5);
        let mut v = vec![0u32; 1001];
        fill(&mut v, |k| s.word(k));
        assert_eq!(v, s.words(1001));
    }
}
