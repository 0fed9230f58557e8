//! Stage plans: full transposition as a sequence of elementary
//! transpositions (§4.1 and §4.2 of the paper).
//!
//! Given `M = M′·m` and `N = N′·n`, the matrix is viewed as the 4-D array
//! `M′ × m × N′ × n` and a plan is a sequence of adjacent-dimension swaps
//! (named by their factorial codes) whose composition is the full
//! transposition `N′ × n × M′ × m`.
//!
//! * **4-stage (Gustavson/Karlsson)**: `0100! → 0010! → 1000! → 0100!`
//! * **4-stage fused**: `0100! → fused(0010!+1000!) → 0100!`
//! * **3-stage (the paper's contribution)**: `100! → 0010! → 0100!`
//! * **single-stage**: one whole-matrix cycle-following pass (baseline)
//!
//! Each plan is *data-free*: it records the [`StageOp`]s and their factorial
//! codes; execution (sequential/parallel/GPU) is layered on top.

use crate::elementary::{FusedTileTranspose, InstancedTranspose};
use crate::perm::cycle::TransposePerm;
use crate::perm::factorial::FactorialCode;

/// The tiling `(m, n)` of an `M × N` matrix: `M = M′·m`, `N = N′·n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TileConfig {
    /// Tile height (divides M).
    pub m: usize,
    /// Tile width (divides N).
    pub n: usize,
}

impl TileConfig {
    /// Construct a tile configuration.
    #[must_use]
    pub fn new(m: usize, n: usize) -> Self {
        assert!(m > 0 && n > 0);
        Self { m, n }
    }

    /// Words (scalars) in one `m × n` tile.
    #[must_use]
    pub fn tile_len(&self) -> usize {
        self.m * self.n
    }

    /// Validate against matrix dimensions; returns `(M′, N′)`.
    ///
    /// # Errors
    /// Returns a description of the violated divisibility constraint.
    pub fn factors_of(&self, rows: usize, cols: usize) -> Result<(usize, usize), PlanError> {
        if !rows.is_multiple_of(self.m) {
            return Err(PlanError::TileDoesNotDivide { dim: 'M', size: rows, tile: self.m });
        }
        if !cols.is_multiple_of(self.n) {
            return Err(PlanError::TileDoesNotDivide { dim: 'N', size: cols, tile: self.n });
        }
        Ok((rows / self.m, cols / self.n))
    }
}

/// Why a stage plan could not be built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// The tile dimension does not divide the matrix dimension.
    TileDoesNotDivide {
        /// Which matrix dimension (`'M'` or `'N'`).
        dim: char,
        /// The matrix dimension value.
        size: usize,
        /// The offending tile size.
        tile: usize,
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::TileDoesNotDivide { dim, size, tile } => {
                write!(f, "tile size {tile} does not divide {dim} = {size}")
            }
        }
    }
}

impl std::error::Error for PlanError {}

/// One elementary operation of a stage plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StageOp {
    /// A unified instanced tiled transposition.
    Instanced(InstancedTranspose),
    /// The fused 0010!+1000! composite of the 4-stage algorithm.
    Fused(FusedTileTranspose),
}

impl StageOp {
    /// Total scalars this op acts on.
    #[must_use]
    pub fn total_len(&self) -> usize {
        match self {
            StageOp::Instanced(op) => op.total_len(),
            StageOp::Fused(op) => {
                use crate::elementary::IndexPerm;
                op.len()
            }
        }
    }

    /// Global scalar destination map (for plan verification).
    #[must_use]
    pub fn dest_scalar(&self, k: usize) -> usize {
        match self {
            StageOp::Instanced(op) => op.dest_scalar(k),
            StageOp::Fused(op) => {
                use crate::elementary::IndexPerm;
                op.dest(k)
            }
        }
    }

    /// Execute sequentially in place.
    pub fn apply_seq<T: Copy>(&self, data: &mut [T]) {
        match self {
            StageOp::Instanced(op) => op.apply_seq(data),
            StageOp::Fused(op) => op.apply_seq(data),
        }
    }

    /// Execute with rayon in place. The fused op runs sequentially: its
    /// cycle-parallel shift loses to the sequential one at 2 threads.
    pub fn apply_par<T: Copy + Send + Sync>(&self, data: &mut [T]) {
        match self {
            StageOp::Instanced(op) => op.apply_par(data),
            StageOp::Fused(op) => op.apply_seq(data),
        }
    }
}

/// One stage: the elementary op plus its factorial-code name and a
/// human-readable shape annotation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stage {
    /// Factorial code of the dimension swap this stage performs.
    pub code: FactorialCode,
    /// The operation.
    pub op: StageOp,
    /// `"M′×m×N′×n → M′×N′×m×n"`-style annotation for logs and docs.
    pub describe: String,
}

/// A complete plan: metadata plus the ordered stages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StagePlan {
    /// Source matrix rows (M).
    pub rows: usize,
    /// Source matrix cols (N).
    pub cols: usize,
    /// The tiling used (meaningless for the single-stage plan, where it is
    /// recorded as `(M, N)`).
    pub tile: TileConfig,
    /// Plan family name (`"3-stage"`, `"4-stage"`, …).
    pub name: &'static str,
    /// Ordered elementary stages.
    pub stages: Vec<Stage>,
}

impl StagePlan {
    /// The paper's 3-stage plan (§4.2): `100! → 0010! → 0100!`.
    ///
    /// # Errors
    /// Fails if `tile.m ∤ rows` or `tile.n ∤ cols`.
    pub fn three_stage(rows: usize, cols: usize, tile: TileConfig) -> Result<Self, PlanError> {
        let (mp, np) = tile.factors_of(rows, cols)?;
        let (m, n) = (tile.m, tile.n);
        let stages = vec![
            Stage {
                code: FactorialCode::parse("100"),
                op: StageOp::Instanced(InstancedTranspose::new(1, rows, np, n)),
                describe: format!("M×N′×n → N′×M×n  ({rows}×{np}×{n}, super={n})"),
            },
            Stage {
                code: FactorialCode::parse("0010"),
                op: StageOp::Instanced(InstancedTranspose::new(np * mp, m, n, 1)),
                describe: format!("N′×M′×m×n → N′×M′×n×m  ({np}·{mp} tiles of {m}×{n})"),
            },
            Stage {
                code: FactorialCode::parse("0100"),
                op: StageOp::Instanced(InstancedTranspose::new(np, mp, n, m)),
                describe: format!("N′×M′×n×m → N′×n×M′×m  ({np} inst of {mp}×{n}, super={m})"),
            },
        ];
        Ok(Self { rows, cols, tile, name: "3-stage", stages })
    }

    /// The Gustavson/Karlsson 4-stage plan (§4.1, Figure 2):
    /// `0100! → 0010! → 1000! → 0100!`.
    ///
    /// # Errors
    /// Fails if `tile.m ∤ rows` or `tile.n ∤ cols`.
    pub fn four_stage(rows: usize, cols: usize, tile: TileConfig) -> Result<Self, PlanError> {
        let (mp, np) = tile.factors_of(rows, cols)?;
        let (m, n) = (tile.m, tile.n);
        let stages = vec![
            Stage {
                code: FactorialCode::parse("0100"),
                op: StageOp::Instanced(InstancedTranspose::new(mp, m, np, n)),
                describe: format!("M′×m×N′×n → M′×N′×m×n  ({mp} inst of {m}×{np}, super={n})"),
            },
            Stage {
                code: FactorialCode::parse("0010"),
                op: StageOp::Instanced(InstancedTranspose::new(mp * np, m, n, 1)),
                describe: format!("M′×N′×m×n → M′×N′×n×m  ({mp}·{np} tiles of {m}×{n})"),
            },
            Stage {
                code: FactorialCode::parse("1000"),
                op: StageOp::Instanced(InstancedTranspose::new(1, mp, np, m * n)),
                describe: format!("M′×N′×n×m → N′×M′×n×m  ({mp}×{np}, super={})", m * n),
            },
            Stage {
                code: FactorialCode::parse("0100"),
                op: StageOp::Instanced(InstancedTranspose::new(np, mp, n, m)),
                describe: format!("N′×M′×n×m → N′×n×M′×m  ({np} inst of {mp}×{n}, super={m})"),
            },
        ];
        Ok(Self { rows, cols, tile, name: "4-stage", stages })
    }

    /// The 4-stage plan with stages 2–3 fused (Karlsson/Gustavson fusion,
    /// noted in §7.3): `0100! → fused → 0100!`.
    ///
    /// # Errors
    /// Fails if `tile.m ∤ rows` or `tile.n ∤ cols`.
    pub fn four_stage_fused(rows: usize, cols: usize, tile: TileConfig) -> Result<Self, PlanError> {
        let (mp, np) = tile.factors_of(rows, cols)?;
        let (m, n) = (tile.m, tile.n);
        let stages = vec![
            Stage {
                code: FactorialCode::parse("0100"),
                op: StageOp::Instanced(InstancedTranspose::new(mp, m, np, n)),
                describe: format!("M′×m×N′×n → M′×N′×m×n  ({mp} inst of {m}×{np}, super={n})"),
            },
            Stage {
                // Composition of 0010! then 1000!.
                code: FactorialCode::parse("0010").then(&FactorialCode::parse("1000")),
                op: StageOp::Fused(FusedTileTranspose::new(mp, np, m, n)),
                describe: format!("M′×N′×m×n → N′×M′×n×m  (fused, {mp}×{np} tiles of {m}×{n})"),
            },
            Stage {
                code: FactorialCode::parse("0100"),
                op: StageOp::Instanced(InstancedTranspose::new(np, mp, n, m)),
                describe: format!("N′×M′×n×m → N′×n×M′×m  ({np} inst of {mp}×{n}, super={m})"),
            },
        ];
        Ok(Self { rows, cols, tile, name: "4-stage-fused", stages })
    }

    /// Single whole-matrix cycle-following pass (the locality-poor baseline
    /// of §4.1; also the fallback when no usable tiling exists, e.g. prime
    /// dimensions).
    #[must_use]
    pub fn single_stage(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            tile: TileConfig::new(rows, cols),
            name: "single-stage",
            stages: vec![Stage {
                code: FactorialCode::parse("10"),
                op: StageOp::Instanced(InstancedTranspose::new(1, rows, cols, 1)),
                describe: format!("M×N → N×M  (one pass, {rows}×{cols})"),
            }],
        }
    }

    /// Total scalars in the matrix.
    #[must_use]
    pub fn total_len(&self) -> usize {
        self.rows * self.cols
    }

    /// Execute all stages sequentially in place.
    ///
    /// # Panics
    /// Panics if `data.len() != rows*cols`.
    pub fn execute_seq<T: Copy>(&self, data: &mut [T]) {
        assert_eq!(data.len(), self.total_len(), "matrix size mismatch");
        for stage in &self.stages {
            stage.op.apply_seq(data);
        }
    }

    /// Execute all stages with rayon in place.
    ///
    /// # Panics
    /// Panics if `data.len() != rows*cols`.
    pub fn execute_par<T: Copy + Send + Sync>(&self, data: &mut [T]) {
        assert_eq!(data.len(), self.total_len(), "matrix size mismatch");
        for stage in &self.stages {
            stage.op.apply_par(data);
        }
    }

    /// Compose the per-stage scalar index maps into the plan's end-to-end
    /// permutation table: `table[k]` = final offset of the scalar initially
    /// at `k`. Must equal [`TransposePerm::to_table`] — the key correctness
    /// property of any plan. O(len · stages); for tests and verification.
    #[must_use]
    pub fn composed_table(&self) -> Vec<usize> {
        let n = self.total_len();
        (0..n)
            .map(|k0| self.stages.iter().fold(k0, |k, s| s.op.dest_scalar(k)))
            .collect()
    }

    /// Verify the plan against the definitional transposition permutation.
    #[must_use]
    pub fn verify(&self) -> bool {
        let want = TransposePerm::new(self.rows, self.cols);
        self.composed_table()
            .iter()
            .enumerate()
            .all(|(k, &d)| d == want.dest(k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;

    const SHAPES: &[(usize, usize, usize, usize)] = &[
        // (M, N, m, n)
        (6, 6, 2, 3),
        (6, 15, 3, 5),
        (15, 6, 5, 3),
        (8, 12, 4, 4),
        (12, 8, 2, 2),
        (20, 9, 5, 3),
        (9, 20, 3, 4),
        (4, 4, 4, 4),   // tile == matrix
        (4, 4, 1, 1),   // degenerate tiles
        (30, 42, 6, 7),
    ];

    fn plans(m_rows: usize, n_cols: usize, tm: usize, tn: usize) -> Vec<StagePlan> {
        let tile = TileConfig::new(tm, tn);
        vec![
            StagePlan::three_stage(m_rows, n_cols, tile).unwrap(),
            StagePlan::four_stage(m_rows, n_cols, tile).unwrap(),
            StagePlan::four_stage_fused(m_rows, n_cols, tile).unwrap(),
            StagePlan::single_stage(m_rows, n_cols),
        ]
    }

    #[test]
    fn all_plans_compose_to_full_transposition() {
        for &(mm, nn, tm, tn) in SHAPES {
            for plan in plans(mm, nn, tm, tn) {
                assert!(plan.verify(), "{} on {mm}x{nn} tile ({tm},{tn})", plan.name);
            }
        }
    }

    #[test]
    fn all_plans_execute_to_transposed_data() {
        for &(mm, nn, tm, tn) in SHAPES {
            let mat = Matrix::iota(mm, nn);
            let want = mat.transposed().into_vec();
            for plan in plans(mm, nn, tm, tn) {
                let mut seq = mat.as_slice().to_vec();
                plan.execute_seq(&mut seq);
                assert_eq!(seq, want, "{} seq on {mm}x{nn} tile ({tm},{tn})", plan.name);
                let mut par = mat.as_slice().to_vec();
                plan.execute_par(&mut par);
                assert_eq!(par, want, "{} par on {mm}x{nn} tile ({tm},{tn})", plan.name);
            }
        }
    }

    #[test]
    fn stage_counts() {
        let tile = TileConfig::new(2, 3);
        assert_eq!(StagePlan::three_stage(6, 6, tile).unwrap().stages.len(), 3);
        assert_eq!(StagePlan::four_stage(6, 6, tile).unwrap().stages.len(), 4);
        assert_eq!(StagePlan::four_stage_fused(6, 6, tile).unwrap().stages.len(), 3);
        assert_eq!(StagePlan::single_stage(6, 6).stages.len(), 1);
    }

    #[test]
    fn invalid_tile_rejected() {
        let err = StagePlan::three_stage(6, 6, TileConfig::new(4, 3)).unwrap_err();
        assert_eq!(err, PlanError::TileDoesNotDivide { dim: 'M', size: 6, tile: 4 });
        let err = StagePlan::four_stage(6, 7, TileConfig::new(2, 3)).unwrap_err();
        assert_eq!(err, PlanError::TileDoesNotDivide { dim: 'N', size: 7, tile: 3 });
        assert_eq!(err.to_string(), "tile size 3 does not divide N = 7");
    }

    #[test]
    fn factorial_codes_match_paper() {
        let tile = TileConfig::new(2, 3);
        let p3 = StagePlan::three_stage(6, 6, tile).unwrap();
        let codes: Vec<String> = p3.stages.iter().map(|s| s.code.to_string()).collect();
        assert_eq!(codes, vec!["100!", "0010!", "0100!"]);
        let p4 = StagePlan::four_stage(6, 6, tile).unwrap();
        let codes: Vec<String> = p4.stages.iter().map(|s| s.code.to_string()).collect();
        assert_eq!(codes, vec!["0100!", "0010!", "1000!", "0100!"]);
    }

    #[test]
    fn fused_equals_unfused() {
        let tile = TileConfig::new(3, 5);
        let mat = Matrix::iota(6, 15);
        let mut a = mat.as_slice().to_vec();
        let mut b = a.clone();
        StagePlan::four_stage(6, 15, tile).unwrap().execute_seq(&mut a);
        StagePlan::four_stage_fused(6, 15, tile).unwrap().execute_seq(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn float_payload() {
        let mat = Matrix::pattern_f32(20, 9);
        let want = mat.transposed().into_vec();
        let plan = StagePlan::three_stage(20, 9, TileConfig::new(5, 3)).unwrap();
        let mut data = mat.as_slice().to_vec();
        plan.execute_seq(&mut data);
        assert_eq!(data, want);
    }
}
