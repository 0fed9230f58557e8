//! # ipt-core — in-place transposition of rectangular matrices
//!
//! Host-side implementation of the algorithms from *"In-Place Transposition
//! of Rectangular Matrices on Accelerators"* (Sung, Gómez-Luna,
//! González-Linares, Guil, Hwu — PPoPP 2014):
//!
//! * the transposition permutation `k ↦ k·M mod (MN−1)` and its cycle
//!   structure ([`perm::cycle`]),
//! * factorial-number naming of staged dimension swaps ([`perm::factorial`]),
//! * the unified elementary tiled transposition covering `010!`, `100!`,
//!   `0100!`, `0010!`, `1000!` ([`elementary`]),
//! * 3-stage / 4-stage / fused / single-stage full plans ([`stages`]),
//! * automatic tile selection with the §7.4 pruning heuristic, and a
//!   byte-sized instance of it that tiles the host's plans ([`tiles`]),
//! * AoS/SoA/ASTA layout marshaling ([`layout`]).
//!
//! The GPU-simulated execution of the same plans lives in the `ipt-gpu`
//! crate; CPU baselines (Gustavson/Karlsson, MKL-like) in `ipt-baselines`.
//!
//! Each host operation has one entry point, which runs on the caller's
//! rayon pool: the innermost `ThreadPool::install`, else
//! `RAYON_NUM_THREADS` threads. A 1-wide pool runs it inline on the
//! caller, so sequential execution is that pool, not a second function.
//!
//! ## Quick start
//!
//! ```
//! use ipt_core::{full::{transpose_in_place, Algorithm}, matrix::Matrix};
//!
//! let a = Matrix::iota(60, 48);
//! let expect = a.transposed();
//! let t = transpose_in_place(a.clone(), Algorithm::ThreeStage);
//! assert_eq!(t, expect);
//! // The same call on one thread: a 1-wide pool runs it inline.
//! let one = rayon::ThreadPoolBuilder::new().num_threads(1).build().unwrap();
//! assert_eq!(one.install(|| transpose_in_place(a, Algorithm::ThreeStage)), expect);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod c2r;
pub mod check;
pub mod coprime;
pub mod elementary;
pub mod full;
pub mod scheme;
pub mod layout;
pub mod matrix;
pub mod numtheory;
pub mod outofcore;
pub mod perm;
pub mod stages;
pub mod tiles;

/// A host worker's scratch budget for one instance of an elementary
/// transposition ([`elementary`]): larger instances are cycle-followed.
/// The C2R column blocks have a bound of their own ([`c2r`]).
pub(crate) const SCRATCH_BYTES: usize = 2 << 20;

/// Run `op` on a rayon pool `threads` wide: every parallel call inside it
/// uses that width, and a 1-wide pool runs them inline on the caller.
pub(crate) fn on_pool<R: Send>(threads: usize, op: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("a pool of a given width builds")
        .install(op)
}

pub use elementary::{InstancedTranspose, IndexPerm};
pub use full::{transpose_in_place, transpose_in_place_any, Algorithm};
pub use matrix::Matrix;
pub use perm::cycle::TransposePerm;
pub use scheme::{decide_scheme, FallbackReason, PlanDecision, Scheme};
pub use stages::{StagePlan, TileConfig};
pub use tiles::TileHeuristic;
pub use coprime::{transpose_coprime_seq, transpose_matrix_coprime};
pub use c2r::{transpose_c2r, transpose_matrix_c2r, C2rGeometry};
