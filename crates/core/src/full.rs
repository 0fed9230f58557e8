//! End-to-end in-place transposition drivers: pick an algorithm and a tile,
//! build the plan, execute.
//!
//! This is the host-side (pure CPU) entry point. The GPU-simulated execution
//! of the same plans lives in the `ipt-gpu` crate.

use crate::coprime;
use crate::matrix::Matrix;
use crate::numtheory::gcd;
use crate::scheme::{decide_scheme, transpose_square_in_place, Scheme, GCD_TILE_MAX_LEN};
use crate::stages::{PlanError, StagePlan, TileConfig};
use crate::tiles::TileHeuristic;

/// Which staged algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// One whole-matrix cycle-following pass (locality-poor baseline).
    SingleStage,
    /// The paper's 3-stage algorithm: `100! → 0010! → 0100!`.
    ThreeStage,
    /// Gustavson/Karlsson 4-stage: `0100! → 0010! → 1000! → 0100!`.
    FourStage,
    /// 4-stage with stages 2–3 fused.
    FourStageFused,
}

impl Algorithm {
    /// All algorithm variants (for sweeps).
    pub const ALL: [Algorithm; 4] =
        [Self::SingleStage, Self::ThreeStage, Self::FourStage, Self::FourStageFused];

    /// Short display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::SingleStage => "single-stage",
            Self::ThreeStage => "3-stage",
            Self::FourStage => "4-stage",
            Self::FourStageFused => "4-stage-fused",
        }
    }

    /// Build the plan for this algorithm.
    ///
    /// # Errors
    /// Propagates tile divisibility failures (never fails for
    /// [`Algorithm::SingleStage`]).
    pub fn plan(self, rows: usize, cols: usize, tile: TileConfig) -> Result<StagePlan, PlanError> {
        match self {
            Self::SingleStage => Ok(StagePlan::single_stage(rows, cols)),
            Self::ThreeStage => StagePlan::three_stage(rows, cols, tile),
            Self::FourStage => StagePlan::four_stage(rows, cols, tile),
            Self::FourStageFused => StagePlan::four_stage_fused(rows, cols, tile),
        }
    }
}

/// Plan an in-place transposition with automatic tile selection via
/// [`decide_scheme`]: use the requested algorithm when the shape supports a
/// tiled staged plan, otherwise degrade deterministically to the
/// single-stage pass (the typed reason lives on the
/// [`crate::scheme::PlanDecision`] for callers that want it). Never panics.
#[must_use]
pub fn plan_auto(rows: usize, cols: usize, algo: Algorithm, heuristic: &TileHeuristic) -> StagePlan {
    if algo == Algorithm::SingleStage {
        return StagePlan::single_stage(rows, cols);
    }
    let decision = decide_scheme(rows, cols, heuristic);
    match (decision.scheme, decision.tile) {
        (Scheme::Staged | Scheme::GcdTiled | Scheme::SquareTiled, Some(tile)) => algo
            .plan(rows, cols, tile)
            .unwrap_or_else(|_| StagePlan::single_stage(rows, cols)),
        _ => StagePlan::single_stage(rows, cols),
    }
}

/// Transpose `matrix` in place (same backing storage) on the caller's
/// rayon pool and return it with the flipped shape. Degenerate shapes
/// (`1 × n`, `m × 1`) and squares short-circuit instead of running a
/// staged plan.
#[must_use]
pub fn transpose_in_place<T: Copy + Send + Sync>(matrix: Matrix<T>, algo: Algorithm) -> Matrix<T> {
    let (rows, cols) = (matrix.rows(), matrix.cols());
    let mut matrix = matrix;
    match decide_scheme(rows, cols, &TileHeuristic::default()).scheme {
        // Row/column vectors (and empties): the storage is already the
        // transpose — only the shape flips.
        Scheme::Identity => {}
        Scheme::SquareTiled => transpose_square_in_place(matrix.as_mut_slice(), rows),
        _ => {
            let plan = plan_auto(rows, cols, algo, &TileHeuristic::default());
            plan.execute(matrix.as_mut_slice());
        }
    }
    matrix.assume_transposed_shape()
}

/// How [`transpose_in_place_any`] decided to transpose a shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnyRoute {
    /// A staged plan with a heuristic tile.
    Staged,
    /// The coprime two-phase decomposition (`gcd(M, N) = 1`).
    Coprime,
    /// A staged plan with the always-available `(c, c)` gcd tile.
    GcdTile,
    /// Trivial shapes (`min(M, N) = 1`) or awkward leftovers: the
    /// single-stage pass.
    SingleStage,
}

/// Decide the route for a shape (exposed so callers and tests can see the
/// dispatch without running it).
#[must_use]
pub fn route_for(rows: usize, cols: usize, heuristic: &TileHeuristic) -> AnyRoute {
    if rows <= 1 || cols <= 1 {
        return AnyRoute::SingleStage;
    }
    // A tile below ~16 elements degenerates the staged algorithm into
    // near-scalar shifting; prefer the dedicated routes then.
    if heuristic.select(rows, cols).is_some_and(|t| t.tile_len() >= 16) {
        return AnyRoute::Staged;
    }
    let c = gcd(rows as u64, cols as u64) as usize;
    if c == 1 {
        return AnyRoute::Coprime;
    }
    // The (c, c) tile always divides both dimensions; PTTWAC-010 handles
    // stage 2 even when c² exceeds the BS capacity, up to the local-memory
    // flag limit (~393k bits). Beyond that, give up on tiling.
    if c * c <= GCD_TILE_MAX_LEN {
        AnyRoute::GcdTile
    } else {
        AnyRoute::SingleStage
    }
}

/// Transpose **any** rectangular matrix in place — no divisibility
/// requirements. Removes the §7.4 prime-dimension limitation:
///
/// * a heuristic tile exists → the 3-stage algorithm,
/// * coprime dimensions → the two-phase decomposition
///   ([`crate::coprime`], after Catanzaro et al. \[25\]), run by the C2R
///   host passes at `c = 1` ([`crate::c2r`]: division-free walkers,
///   column blocks one cache line wide, rows and blocks on the rayon
///   pool),
/// * otherwise `c = gcd(M, N) > 1` → the 3-stage algorithm with the
///   always-legal `(c, c)` tile,
/// * degenerate/awkward leftovers → the single-stage pass.
#[must_use]
pub fn transpose_in_place_any<T: Copy + Send + Sync>(matrix: Matrix<T>) -> Matrix<T> {
    let (rows, cols) = (matrix.rows(), matrix.cols());
    let heuristic = TileHeuristic::default();
    match route_for(rows, cols, &heuristic) {
        AnyRoute::Staged => transpose_in_place(matrix, Algorithm::ThreeStage),
        AnyRoute::Coprime => coprime::transpose_matrix_coprime(matrix),
        AnyRoute::GcdTile => {
            let c = gcd(rows as u64, cols as u64) as usize;
            let plan = StagePlan::three_stage(rows, cols, TileConfig::new(c, c))
                .expect("gcd tile always divides");
            let mut matrix = matrix;
            plan.execute(matrix.as_mut_slice());
            matrix.assume_transposed_shape()
        }
        AnyRoute::SingleStage => {
            let mut matrix = matrix;
            StagePlan::single_stage(rows, cols).execute(matrix.as_mut_slice());
            matrix.assume_transposed_shape()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_transpose_all_algorithms() {
        for &(r, c) in &[(6, 15), (15, 6), (64, 48), (60, 60), (100, 36)] {
            let mat = Matrix::iota(r, c);
            let want = mat.transposed();
            for algo in Algorithm::ALL {
                for threads in [1, 2] {
                    let got = crate::on_pool(threads, || transpose_in_place(mat.clone(), algo));
                    assert_eq!(got, want, "{} {r}x{c} on {threads} threads", algo.name());
                }
            }
        }
    }

    #[test]
    fn prime_dims_fall_back_to_single_stage() {
        let plan = plan_auto(7919, 13, Algorithm::ThreeStage, &TileHeuristic::default());
        // 13 has no divisor in range and 7919 is prime → fallback.
        // (13 divides itself, 7919 prime: select() may still find something
        // feasible like (7919, 13)? 7919·13 tile too big → None → fallback.)
        assert_eq!(plan.name, "single-stage");
        // It still transposes correctly (small prime case to keep test fast):
        let mat = Matrix::iota(31, 13);
        let got = transpose_in_place(mat.clone(), Algorithm::ThreeStage);
        assert_eq!(got, mat.transposed());
    }

    #[test]
    fn algorithm_names() {
        assert_eq!(Algorithm::ThreeStage.name(), "3-stage");
        assert_eq!(Algorithm::ALL.len(), 4);
    }

    #[test]
    fn any_route_dispatch() {
        let h = TileHeuristic::default();
        assert_eq!(route_for(720, 180, &h), AnyRoute::Staged);
        assert_eq!(route_for(7919, 4099, &h), AnyRoute::Coprime); // both prime
        assert_eq!(route_for(1, 999, &h), AnyRoute::SingleStage);
        // 2·1009 × 2·997: no heuristic tile band, gcd 2 → GcdTile.
        let narrow = TileHeuristic { shared_capacity_words: 3600, preferred_lo: 50, preferred_hi: 100 };
        assert_eq!(route_for(2 * 1009, 2 * 997, &narrow), AnyRoute::GcdTile);
    }

    #[test]
    fn any_transposes_every_shape_class() {
        for &(r, c) in &[
            (720, 180),   // staged
            (127, 61),    // coprime (prime × prime)
            (2 * 53, 2 * 59), // gcd tile
            (1, 17),      // trivial
            (97, 128),    // coprime (prime × power of two)
        ] {
            let m = Matrix::iota(r, c);
            assert_eq!(transpose_in_place_any(m.clone()), m.transposed(), "{r}x{c}");
        }
    }

    #[test]
    fn degenerate_shapes_short_circuit_and_round_trip() {
        for &(r, c) in &[(1, 1), (1, 257), (509, 1), (1, 7919)] {
            let m = Matrix::iota(r, c);
            for algo in Algorithm::ALL {
                let got = crate::on_pool(1, || transpose_in_place(m.clone(), algo));
                assert_eq!(got, m.transposed(), "{} {r}x{c}", algo.name());
                assert_eq!((got.rows(), got.cols()), (c, r));
                let back = crate::on_pool(2, || transpose_in_place(got, algo));
                assert_eq!(back, m, "round trip {r}x{c}");
            }
        }
    }

    #[test]
    fn square_shapes_short_circuit_and_round_trip() {
        // 61 prime (no feasible square tile), 60 richly composite.
        for n in [2usize, 31, 60, 61] {
            let m = Matrix::iota(n, n);
            let got = crate::on_pool(2, || transpose_in_place(m.clone(), Algorithm::ThreeStage));
            assert_eq!(got, m.transposed(), "{n}x{n}");
            let back = crate::on_pool(1, || transpose_in_place(got, Algorithm::ThreeStage));
            assert_eq!(back, m, "{n}x{n} back");
        }
    }

    #[test]
    fn shapes_flip() {
        let got = transpose_in_place(Matrix::iota(6, 15), Algorithm::ThreeStage);
        assert_eq!((got.rows(), got.cols()), (15, 6));
    }
}
