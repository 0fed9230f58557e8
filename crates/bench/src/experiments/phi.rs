//! **§7.7** — the OpenCL kernels on a non-GPU accelerator: Intel Xeon Phi.
//!
//! Paper: 4-stage 2.81 GB/s, 3-stage 5.02 GB/s (1.8×) averaged over the
//! Table-2 sizes; local memory is emulated in GDDR (no scratchpad), which
//! both lowers absolute throughput and makes the kernels "not strictly
//! in-place".

use crate::workloads::{matrix_bytes, table2_sizes, Scale};
use gpu_sim::{DeviceSpec, Sim};
use ipt_core::stages::StagePlan;
use ipt_core::Matrix;
use ipt_gpu::opts::GpuOptions;
use ipt_gpu::pipeline::{plan_flag_words, transpose_on_device};
use ipt_obs::NoopRecorder;
use serde::Serialize;

/// The experiment's aggregate result.
#[derive(Debug, Clone, Serialize)]
pub struct Report {
    /// Mean 3-stage throughput (GB/s).
    pub three_stage_gbps: f64,
    /// Mean 4-stage throughput (GB/s).
    pub four_stage_gbps: f64,
    /// Ratio (paper: 1.8×).
    pub ratio: f64,
    /// Per-size values (rows, cols, 3-stage, 4-stage).
    pub per_size: Vec<(usize, usize, f64, f64)>,
}

/// Run the Xeon Phi comparison.
#[must_use]
pub fn run(scale: Scale) -> Report {
    let dev = DeviceSpec::xeon_phi();
    let opts = GpuOptions::tuned_for(&dev);
    let mut per_size = Vec::new();
    for (r, c) in table2_sizes(scale) {
        let t3 = super::table2::tile3_for(r, c, scale);
        let t4 = super::table2::tile4_for(r, c);
        let run_one = |plan: &StagePlan| -> f64 {
            let mut sim = Sim::new(dev.clone(), r * c + plan_flag_words(plan) + 64);
            let mut data = Matrix::iota(r, c).into_vec();
            let stats = transpose_on_device(&mut sim, &mut data, r, c, plan, &opts, &NoopRecorder)
                .expect("feasible on phi");
            stats.throughput_gbps(matrix_bytes(r, c))
        };
        let g3 = run_one(&StagePlan::three_stage(r, c, t3).expect("tile divides"));
        let g4 = run_one(&StagePlan::four_stage(r, c, t4).expect("tile divides"));
        per_size.push((r, c, g3, g4));
    }
    let mean3 = per_size.iter().map(|x| x.2).sum::<f64>() / per_size.len() as f64;
    let mean4 = per_size.iter().map(|x| x.3).sum::<f64>() / per_size.len() as f64;
    Report { three_stage_gbps: mean3, four_stage_gbps: mean4, ratio: mean3 / mean4, per_size }
}

/// Render the text report.
#[must_use]
pub fn render(rep: &Report) -> String {
    let rows: Vec<Vec<String>> = rep
        .per_size
        .iter()
        .map(|&(r, c, g3, g4)| {
            vec![format!("{r}x{c}"), format!("{g3:.2}"), format!("{g4:.2}")]
        })
        .collect();
    let mut out = super::text_table(
        "S7.7: Xeon Phi (local memory emulated in DRAM)",
        &["matrix", "3-stage GB/s", "4-stage GB/s"],
        &rows,
    );
    out.push_str(&format!(
        "\naverages: 3-stage {:.2} GB/s, 4-stage {:.2} GB/s → x{:.2}  [paper: 5.02 vs 2.81, x1.8]\n",
        rep.three_stage_gbps, rep.four_stage_gbps, rep.ratio
    ));
    out
}
