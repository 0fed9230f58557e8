//! End-to-end in-place transposition drivers: pick an algorithm and a tile,
//! build the plan, execute.
//!
//! This is the host-side (pure CPU) entry point. The GPU-simulated execution
//! of the same plans lives in the `ipt-gpu` crate. The host tiles its staged
//! plans with its own instance of the tile heuristic,
//! [`TileHeuristic::host`], sized in bytes of the element type; where that
//! finds no tile, with the device's §7.4 tile ([`host_plan`]). Routing
//! ([`route_for`]) and [`plan_auto`] take the heuristic they are given.

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

/// `algo`'s plan with `tile`, or the single-stage pass when there is no
/// tile or it does not divide the shape.
fn plan_or_single(
    rows: usize,
    cols: usize,
    algo: Algorithm,
    tile: Option<TileConfig>,
) -> StagePlan {
    tile.and_then(|t| algo.plan(rows, cols, t).ok())
        .unwrap_or_else(|| StagePlan::single_stage(rows, cols))
}

/// Plan an in-place transposition with automatic tile selection via
/// [`decide_scheme`]: use the requested algorithm when the shape supports a
/// tiled staged plan, otherwise degrade deterministically to the
/// single-stage pass (the typed reason lives on the
/// [`crate::scheme::PlanDecision`] for callers that want it). Never panics.
#[must_use]
pub fn plan_auto(rows: usize, cols: usize, algo: Algorithm, heuristic: &TileHeuristic) -> StagePlan {
    plan_or_single(rows, cols, algo, decide_scheme(rows, cols, heuristic).tile)
}

/// The staged plan [`transpose_in_place`] runs on a `rows × cols` matrix
/// of `T`s, or `None` for the shapes it short-circuits: row and column
/// vectors, and squares.
///
/// One [`decide_scheme`] call with [`TileHeuristic::host`] picks the tile.
/// Where the host instance finds none (only for elements over 72 bytes),
/// the tile is the device's §7.4 one ([`TileHeuristic::default`]), so no
/// shape gets a worse plan than that tile gives it; failing both, the
/// `(c, c)` gcd tile, and failing that, the single-stage pass.
#[must_use]
pub fn host_plan<T>(rows: usize, cols: usize, algo: Algorithm) -> Option<StagePlan> {
    let decision = decide_scheme(rows, cols, &TileHeuristic::host::<T>());
    let tile = match decision.scheme {
        Scheme::Identity | Scheme::SquareTiled => return None,
        Scheme::Staged => decision.tile,
        Scheme::GcdTiled | Scheme::C2R => TileHeuristic::default()
            .select(rows, cols)
            .or(decision.tile),
    };
    Some(plan_or_single(rows, cols, algo, tile))
}

/// Transpose `matrix` in place (same backing storage) on the caller's
/// rayon pool and return it with the flipped shape, through
/// [`host_plan`]'s plan. Degenerate shapes (`1 × n`, `m × 1`) and squares
/// short-circuit instead of running a staged plan.
#[must_use]
pub fn transpose_in_place<T: Copy + Send + Sync>(matrix: Matrix<T>, algo: Algorithm) -> Matrix<T> {
    let (rows, cols) = (matrix.rows(), matrix.cols());
    let mut matrix = matrix;
    match host_plan::<T>(rows, cols, algo) {
        Some(plan) => plan.execute(matrix.as_mut_slice()),
        None if rows == cols => transpose_square_in_place(matrix.as_mut_slice(), rows),
        // Row/column vectors: the storage is already the transpose — only
        // the shape flips.
        None => {}
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
/// requirements. Removes the §7.4 prime-dimension limitation. The route
/// is [`route_for`] under the device's §7.4 heuristic:
///
/// * a heuristic tile exists → the 3-stage algorithm through
///   [`transpose_in_place`], on the host's own tile ([`host_plan`]),
/// * coprime dimensions → the two-phase decomposition
///   ([`crate::coprime`], after Catanzaro et al. \[25\]), run by the C2R
///   host passes at `c = 1` ([`crate::c2r`]: rows gathered through one
///   shared index table, 256-byte column blocks written back in source
///   order, rows and blocks on the rayon pool),
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
    use crate::tiles::{HOST_SIDE_MAX_BYTES, HOST_SIDE_MIN_BYTES, HOST_TILE_MAX_BYTES};
    use proptest::prelude::*;

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

    /// A distinct 100-byte element for index `k`, marked at both ends so
    /// that a copy cut short shows.
    fn wide(k: usize) -> [u8; 100] {
        let mut e = [0u8; 100];
        e[..8].copy_from_slice(&(k as u64).to_le_bytes());
        e[99] = k as u8;
        e
    }

    /// A shape `2^a·3^b·5^c·7^d × 2^e·3^f·5^g·7^h`, or (one draw in three)
    /// two distinct primes near the device tile's edge. The only tile is
    /// then the whole matrix, which the device's 3600 words hold and a
    /// 100-byte element's host cap of 2621 elements may not (53×59 does
    /// not), so [`host_plan`] takes the device tile.
    fn shapes() -> impl Strategy<Value = (usize, usize)> {
        let rich = || {
            (0u32..8, 0u32..3, 0u32..3, 0u32..2).prop_map(|(a, b, c, d)| {
                2usize.pow(a) * 3usize.pow(b) * 5usize.pow(c) * 7usize.pow(d)
            })
        };
        let primes = [47usize, 53, 59, 61, 67, 71];
        (0usize..3, rich(), rich(), 0usize..6, 1usize..6).prop_map(move |(class, r, c, p, q)| {
            if class == 0 {
                (primes[p], primes[(p + q) % 6])
            } else {
                (r, c)
            }
        })
    }

    /// [`host_plan`]'s tile divides the shape, keeps to the host instance's
    /// byte bounds, exists whenever the device heuristic has a tile, and
    /// its plan transposes on 1- and 2-wide pools.
    fn host_plan_holds<T>(
        rows: usize,
        cols: usize,
        elem: fn(usize) -> T,
    ) -> Result<(), TestCaseError>
    where
        T: Copy + Send + Sync + PartialEq + std::fmt::Debug,
    {
        let size = std::mem::size_of::<T>();
        let fits = |u: &TileConfig| u.tile_len() * size <= HOST_TILE_MAX_BYTES;
        let in_band = |x: usize| (HOST_SIDE_MIN_BYTES..=HOST_SIDE_MAX_BYTES).contains(&(x * size));
        let device = TileHeuristic::default().select(rows, cols);
        let Some(plan) = host_plan::<T>(rows, cols, Algorithm::ThreeStage) else {
            let msg = format!("{rows}x{cols} has no staged plan");
            return Err(TestCaseError::Fail(msg));
        };
        let t = plan.tile;
        prop_assert!(t.factors_of(rows, cols).is_ok(), "{t:?} on {rows}x{cols}");
        match TileHeuristic::host::<T>().select(rows, cols) {
            Some(h) => {
                prop_assert_eq!(t, h);
                prop_assert!(fits(&t), "{t:?} of {size} B");
                let band = crate::tiles::all_tiles(rows, cols)
                    .iter()
                    .any(|u| in_band(u.m) && in_band(u.n) && fits(u));
                if band {
                    prop_assert!(in_band(t.m) && in_band(t.n), "{t:?} of {size} B");
                }
            }
            None => {
                prop_assert!(size > 72 || device.is_none(), "{rows}x{cols} of {size} B");
                if let Some(d) = device {
                    prop_assert_eq!(t, d);
                }
            }
        }
        if device.is_some() {
            prop_assert_eq!(plan.name, "3-stage");
        }
        let m = Matrix::from_fn(rows, cols, |i, j| elem(i * cols + j));
        let want = m.transposed();
        for threads in [1, 2] {
            let got = crate::on_pool(threads, || {
                transpose_in_place(m.clone(), Algorithm::ThreeStage)
            });
            prop_assert!(got == want, "{rows}x{cols} of {size} B, {threads} threads");
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn host_plan_tiles_for_every_element_size(
            (rows, cols) in shapes(),
            size in prop::sample::select(vec![1usize, 4, 8, 12, 100]),
        ) {
            prop_assume!(rows > 1 && cols > 1 && rows != cols);
            prop_assume!(rows * cols * size <= 4 << 20);
            match size {
                // One byte holds 256 values: hash the index so that no
                // regular misplacement lands on an equal value.
                1 => host_plan_holds(rows, cols, |k| (k.wrapping_mul(0x9E37_79B9) >> 24) as u8)?,
                4 => host_plan_holds(rows, cols, |k| k as u32)?,
                8 => host_plan_holds(rows, cols, |k| k as f64)?,
                12 => host_plan_holds(rows, cols, |k| [k as u32, !(k as u32), 7])?,
                _ => host_plan_holds(rows, cols, wide)?,
            }
        }
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
