//! **Ablation study** — which simulator mechanism drives which paper
//! result (the design choices DESIGN.md §2 calls out).
//!
//! Each ablation disables one modelled mechanism of the K20 preset and
//! re-measures three anchors:
//!
//! * the **Fig. 6** anchor: spreading speedup of PTTWAC 010! (driven by
//!   the atomic position-conflict serialisation),
//! * the **§7.3** anchor: `100!` throughput ratio tile-64 / tile-8
//!   (driven by latency amortisation over super-element size),
//! * the **Table 2** anchor: 3-stage / 4-stage speedup (driven by the
//!   tile-size effects end-to-end).
//!
//! A mechanism matters for a result exactly when its ablation moves that
//! anchor toward 1.0.

use crate::common::{run_010, run_100};
use crate::workloads::Scale;
use gpu_sim::DeviceSpec;
use ipt_core::stages::StagePlan;
use ipt_core::Matrix;
use ipt_gpu::opts::{FlagLayout, GpuOptions, Variant100};
use ipt_gpu::pipeline::{plan_flag_words, transpose_on_device};
use ipt_obs::NoopRecorder;
use serde::Serialize;

/// One ablated configuration's anchors.
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// Which mechanism was knocked out.
    pub ablation: String,
    /// Fig. 6 anchor: packed-time / spread8-time.
    pub spreading_speedup: f64,
    /// §7.3 anchor: tile-64 GB/s / tile-8 GB/s.
    pub tile_dominance: f64,
    /// Table 2 anchor: 3-stage GB/s / 4-stage GB/s.
    pub staged_speedup: f64,
}

/// The ablations: name + device mutation.
#[must_use]
pub fn variants() -> Vec<(&'static str, DeviceSpec)> {
    let base = DeviceSpec::tesla_k20();
    let mut no_atomic_port = base.clone();
    no_atomic_port.lat_atomic_rmw = 1.0;
    let mut no_mlp = base.clone();
    no_mlp.mlp_transactions = 1.0;
    let mut no_bw_gate = base.clone();
    no_bw_gate.bw_saturation_occupancy = 1e-9;
    let mut no_ecc = base.clone();
    no_ecc.dram_efficiency = 1.0;
    let mut coarse_txn = base.clone();
    coarse_txn.transaction_bytes = 128;
    let mut free_local = base.clone();
    free_local.lat_local = 0.0;
    free_local.lat_local_atomic = 0.0;
    vec![
        ("baseline (full model)", base),
        ("no atomic port serialisation (lat_atomic_rmw=1)", no_atomic_port),
        ("no memory-level parallelism (mlp=1)", no_mlp),
        ("no occupancy-gated bandwidth", no_bw_gate),
        ("no DRAM ECC derate", no_ecc),
        ("128-byte transactions (pre-Kepler coalescing)", coarse_txn),
        ("free local memory", free_local),
    ]
}

fn anchors(dev: &DeviceSpec) -> (f64, f64, f64) {
    // Fig. 6 anchor: the n=64 power-of-two-chase input.
    let (packed, _) = run_010(dev, 128, 16, 64, 256, FlagLayout::Packed);
    let (spread, _) = run_010(dev, 128, 16, 64, 256, FlagLayout::SpreadPadded { factor: 8 });
    let spreading = packed.time_s / spread.time_s;

    // §7.3 anchor.
    let wg = GpuOptions::tuned_for(dev).wg_size_100;
    let (t8, b8) = run_100(dev, 64, 50, 8, Variant100::Auto, wg);
    let (t64, b64) = run_100(dev, 64, 50, 64, Variant100::Auto, wg);
    let dominance = t64.throughput_gbps(b64) / t8.throughput_gbps(b8);

    // Table 2 anchor (reduced size).
    let (rows, cols) = (1440usize, 360usize);
    let opts = GpuOptions::tuned_for(dev);
    let run_plan_time = |plan: &StagePlan| {
        let mut sim = gpu_sim::Sim::new(dev.clone(), rows * cols + plan_flag_words(plan) + 64);
        let mut data = Matrix::iota(rows, cols).into_vec();
        transpose_on_device(&mut sim, &mut data, rows, cols, plan, &opts, &NoopRecorder)
            .expect("plan runs")
            .time_s()
    };
    let t3 = run_plan_time(
        &StagePlan::three_stage(rows, cols, super::table2::tile3_for(rows, cols, Scale::Reduced))
            .expect("tile divides"),
    );
    let t4 = run_plan_time(
        &StagePlan::four_stage(rows, cols, super::table2::tile4_for(rows, cols))
            .expect("tile divides"),
    );
    (spreading, dominance, t4 / t3)
}

/// Run every ablation.
#[must_use]
pub fn run() -> Vec<Row> {
    variants()
        .into_iter()
        .map(|(name, dev)| {
            let (spreading_speedup, tile_dominance, staged_speedup) = anchors(&dev);
            Row { ablation: name.to_string(), spreading_speedup, tile_dominance, staged_speedup }
        })
        .collect()
}

/// Render the text report.
#[must_use]
pub fn render(rows: &[Row]) -> String {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.ablation.clone(),
                format!("x{:.2}", r.spreading_speedup),
                format!("x{:.2}", r.tile_dominance),
                format!("x{:.2}", r.staged_speedup),
            ]
        })
        .collect();
    let mut out = super::text_table(
        "Ablation: which cost-model mechanism drives which result (K20 anchors)",
        &["ablation", "Fig6 spread", "S7.3 tile 64/8", "Table2 3s/4s"],
        &table,
    );
    out.push_str(
        "\nreading: an anchor collapsing toward x1.0 under an ablation means that\n\
         mechanism is what produces the corresponding paper result in this model.\n",
    );
    out
}
