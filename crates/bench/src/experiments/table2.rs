//! **Table 2** — full in-place transposition throughput: the 3-stage
//! algorithm vs the Gustavson/Karlsson 4-stage (with and without stage 2–3
//! fusion) on the Tesla K20; plus the §4.1 single-stage data point.
//!
//! Paper: 3-stage 17.3–20.7 GB/s; 4-stage 6.9–7.2 GB/s (fused 7.4–7.8);
//! single-stage ≈ 1.5 GB/s; 4-stage needs *small* tiles (its 1000! stage
//! stages m·n-word super-elements on chip) while the 3-stage algorithm
//! tolerates the large tiles that make `100!` fast — that difference, not
//! stage count, is the headline.

use crate::workloads::{matrix_bytes, table2_sizes, Scale};
use gpu_sim::{DeviceSpec, Sim};
use ipt_core::stages::StagePlan;
use ipt_core::{Matrix, TileConfig, TileHeuristic};
use ipt_gpu::opts::GpuOptions;
use ipt_gpu::pipeline::{plan_flag_words, transpose_on_device};
use ipt_obs::NoopRecorder;
use serde::Serialize;

/// One matrix-size row.
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// Matrix rows.
    pub rows: usize,
    /// Matrix cols.
    pub cols: usize,
    /// 3-stage throughput (GB/s).
    pub three_stage_gbps: f64,
    /// 3-stage tile used.
    pub tile3: (usize, usize),
    /// 4-stage throughput (GB/s).
    pub four_stage_gbps: f64,
    /// 4-stage + fusion throughput (GB/s).
    pub four_stage_fused_gbps: f64,
    /// 4-stage tile used.
    pub tile4: (usize, usize),
    /// Single-stage throughput (GB/s), if measured.
    pub single_stage_gbps: Option<f64>,
}

fn run_plan_gbps(dev: &DeviceSpec, rows: usize, cols: usize, plan: &StagePlan) -> f64 {
    let opts = GpuOptions::tuned_for(dev);
    let mut sim = Sim::new(dev.clone(), rows * cols + plan_flag_words(plan) + 64);
    let mut data = Matrix::iota(rows, cols).into_vec();
    let stats = transpose_on_device(&mut sim, &mut data, rows, cols, plan, &opts, &NoopRecorder)
        .expect("feasible plan");
    stats.throughput_gbps(matrix_bytes(rows, cols))
}

/// The 3-stage tile heuristic (paper §7.4 ranges).
#[must_use]
pub fn tile3_for(rows: usize, cols: usize, scale: Scale) -> TileConfig {
    let h = match scale {
        Scale::Full => TileHeuristic::default(),
        Scale::Reduced => {
            TileHeuristic { shared_capacity_words: 3600, preferred_lo: 30, preferred_hi: 90 }
        }
    };
    h.select(rows, cols).expect("table-2 sizes always tile")
}

/// The 4-stage tile heuristic: its 1000! stage stages whole m·n tiles in
/// local memory per SIMD unit, so small tiles are mandatory (the paper's
/// best 4-stage tile for 7200×1800 is (20, 16)).
#[must_use]
pub fn tile4_for(rows: usize, cols: usize) -> TileConfig {
    TileHeuristic { shared_capacity_words: 512, preferred_lo: 8, preferred_hi: 24 }
        .select(rows, cols)
        .expect("table-2 sizes always tile")
}

/// Run the experiment.
#[must_use]
pub fn run(dev: &DeviceSpec, scale: Scale, with_single_stage: bool) -> Vec<Row> {
    table2_sizes(scale)
        .into_iter()
        .map(|(rows, cols)| {
            let t3 = tile3_for(rows, cols, scale);
            let t4 = tile4_for(rows, cols);
            let p3 = StagePlan::three_stage(rows, cols, t3).expect("tile divides");
            let p4 = StagePlan::four_stage(rows, cols, t4).expect("tile divides");
            let p4f = StagePlan::four_stage_fused(rows, cols, t4).expect("tile divides");
            let single = with_single_stage
                .then(|| run_plan_gbps(dev, rows, cols, &StagePlan::single_stage(rows, cols)));
            Row {
                rows,
                cols,
                three_stage_gbps: run_plan_gbps(dev, rows, cols, &p3),
                tile3: (t3.m, t3.n),
                four_stage_gbps: run_plan_gbps(dev, rows, cols, &p4),
                four_stage_fused_gbps: run_plan_gbps(dev, rows, cols, &p4f),
                tile4: (t4.m, t4.n),
                single_stage_gbps: single,
            }
        })
        .collect()
}

/// Paper's Table 2 values for side-by-side display (K20, full scale).
pub const PAPER: [(usize, usize, f64, f64, f64); 6] = [
    (7200, 1800, 20.59, 7.11, 7.67),
    (5100, 2500, 18.49, 6.87, 7.38),
    (4000, 3200, 20.73, 7.23, 7.79),
    (3300, 3900, 18.80, 7.23, 7.79),
    (2500, 5100, 17.29, 6.86, 7.37),
    (1800, 7200, 18.70, 7.07, 7.60),
];

/// Render the text report.
#[must_use]
pub fn render(rows: &[Row]) -> String {
    let table: Vec<Vec<String>> = rows
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let (pr3, pr4, pr4f) = PAPER
                .get(i)
                .map_or((0.0, 0.0, 0.0), |&(_, _, a, b, c)| (a, b, c));
            vec![
                format!("{}x{}", r.rows, r.cols),
                format!("{:.2}", r.three_stage_gbps),
                format!("{pr3:.2}"),
                format!("{:.2}", r.four_stage_gbps),
                format!("{pr4:.2}"),
                format!("{:.2}", r.four_stage_fused_gbps),
                format!("{pr4f:.2}"),
                r.single_stage_gbps.map_or("-".into(), |v| format!("{v:.2}")),
                format!("({},{})", r.tile3.0, r.tile3.1),
                format!("({},{})", r.tile4.0, r.tile4.1),
            ]
        })
        .collect();
    let mut out = super::text_table(
        "Table 2: 3-stage vs 4-stage (GB/s on Tesla K20)",
        &[
            "matrix", "3stg", "paper", "4stg", "paper", "4stg+f", "paper", "1stg", "tile3",
            "tile4",
        ],
        &table,
    );
    let avg3 = rows.iter().map(|r| r.three_stage_gbps).sum::<f64>() / rows.len() as f64;
    let avg4 = rows.iter().map(|r| r.four_stage_gbps).sum::<f64>() / rows.len() as f64;
    out.push_str(&format!(
        "\n3-stage/4-stage speedup: x{:.2}  [paper: ~3x]\n",
        avg3 / avg4
    ));
    out
}
