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
//! * automatic tile selection with the §7.4 pruning heuristic ([`tiles`]),
//! * AoS/SoA/ASTA layout marshaling ([`layout`]).
//!
//! The GPU-simulated execution of the same plans lives in the `ipt-gpu`
//! crate; CPU baselines (Gustavson/Karlsson, MKL-like) in `ipt-baselines`.
//!
//! ## Quick start
//!
//! ```
//! use ipt_core::{full::{transpose_in_place_par, Algorithm}, matrix::Matrix};
//!
//! let a = Matrix::iota(60, 48);
//! let expect = a.transposed();
//! let t = transpose_in_place_par(a, Algorithm::ThreeStage);
//! assert_eq!(t, expect);
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

/// A host worker's scratch budget, the most one worker stages at a time:
/// a C2R column block ([`c2r`]) or one instance of an elementary
/// transposition ([`elementary`]). Work over it falls back to narrower
/// blocks or to cycle following.
pub(crate) const SCRATCH_BYTES: usize = 2 << 20;

pub use elementary::{InstancedTranspose, IndexPerm};
pub use full::{transpose_in_place_any, transpose_in_place_par, transpose_in_place_seq, Algorithm};
pub use matrix::Matrix;
pub use perm::cycle::TransposePerm;
pub use scheme::{decide_scheme, FallbackReason, PlanDecision, Scheme};
pub use stages::{StagePlan, TileConfig};
pub use tiles::TileHeuristic;
pub use coprime::{transpose_coprime_par, transpose_coprime_seq, transpose_matrix_coprime};
pub use c2r::{transpose_c2r_par, transpose_c2r_seq, transpose_matrix_c2r, C2rGeometry};
