//! **Figure 8** — tile sizes vs performance: the throughput surface over
//! all legal `(m, n)` tiles for a 4:1 matrix, on the K20 and the HD 7750.
//!
//! Paper: the best combinations (≥ 80 % of the exhaustive optimum) cluster
//! along `m·n < 3600` words with `m, n ≈ 50..100`; the simple heuristic
//! recovers ≥ 80 % of the best throughput on all three GPUs.

use crate::workloads::{table2_sizes, Scale};
use gpu_sim::DeviceSpec;
use ipt_core::TileHeuristic;
use ipt_gpu::autotune::{exhaustive_search, TilePoint, TuneLog};
use ipt_gpu::opts::GpuOptions;
use ipt_obs::NoopRecorder;
use serde::Serialize;

/// One scatter point.
#[derive(Debug, Clone, Serialize)]
pub struct Point {
    /// Device name.
    pub device: String,
    /// Tile height.
    pub m: usize,
    /// Tile width.
    pub n: usize,
    /// Throughput (GB/s).
    pub gbps: f64,
    /// Within the §7.4 pruned candidate region?
    pub in_pruned_region: bool,
}

/// Scatter + the heuristic-recovery headline per device.
#[derive(Debug, Clone, Serialize)]
pub struct Report {
    /// All measured points.
    pub points: Vec<Point>,
    /// Per device: (name, exhaustive best, pruned-region best, ratio).
    pub recovery: Vec<(String, f64, f64, f64)>,
    /// Per device: the §7.4 search accounting (considered / measured /
    /// rejected / pruned, and the chosen tile).
    pub tune: Vec<(String, TuneLog)>,
}

fn heuristic(scale: Scale) -> TileHeuristic {
    match scale {
        Scale::Full => TileHeuristic::default(),
        // The 1/5-scaled matrix has its good tiles in a lower band.
        Scale::Reduced => {
            TileHeuristic { shared_capacity_words: 3600, preferred_lo: 30, preferred_hi: 100 }
        }
    }
}

/// Run the scatter on both Figure-8 devices for the 4:1 matrix.
#[must_use]
pub fn run(scale: Scale) -> Report {
    let (rows, cols) = table2_sizes(scale)[0];
    let h = heuristic(scale);
    let mut points = Vec::new();
    let mut recovery = Vec::new();
    let mut tune = Vec::new();
    for dev in [DeviceSpec::tesla_k20(), DeviceSpec::hd7750()] {
        let opts = GpuOptions::tuned_for(&dev);
        let max_dim = match scale {
            Scale::Full => 256,
            Scale::Reduced => 200,
        };
        let (pts, log): (Vec<TilePoint>, TuneLog) =
            exhaustive_search(&dev, rows, cols, max_dim, &opts, &NoopRecorder);
        tune.push((dev.name.to_string(), log));
        let best = pts.first().map_or(0.0, |p| p.gbps);
        let pruned_best = pts
            .iter()
            .filter(|p| {
                h.feasible(p.tile)
                    && (h.preferred_lo..=h.preferred_hi).contains(&p.tile.m)
                    && (h.preferred_lo..=h.preferred_hi).contains(&p.tile.n)
            })
            .map(|p| p.gbps)
            .fold(0.0, f64::max);
        recovery.push((
            dev.name.to_string(),
            best,
            pruned_best,
            if best > 0.0 { pruned_best / best } else { 0.0 },
        ));
        for p in pts {
            points.push(Point {
                device: dev.name.to_string(),
                m: p.tile.m,
                n: p.tile.n,
                gbps: p.gbps,
                in_pruned_region: h.feasible(p.tile)
                    && (h.preferred_lo..=h.preferred_hi).contains(&p.tile.m)
                    && (h.preferred_lo..=h.preferred_hi).contains(&p.tile.n),
            });
        }
    }
    Report { points, recovery, tune }
}

/// Render the text report: top tiles per device + recovery headline.
#[must_use]
pub fn render(report: &Report) -> String {
    let mut out = String::new();
    let mut devices: Vec<String> = report.points.iter().map(|p| p.device.clone()).collect();
    devices.sort();
    devices.dedup();
    for d in &devices {
        let mut pts: Vec<&Point> = report.points.iter().filter(|p| &p.device == d).collect();
        pts.sort_by(|a, b| b.gbps.total_cmp(&a.gbps));
        let rows: Vec<Vec<String>> = pts
            .iter()
            .take(12)
            .map(|p| {
                vec![
                    p.m.to_string(),
                    p.n.to_string(),
                    (p.m * p.n).to_string(),
                    format!("{:.2}", p.gbps),
                    if p.in_pruned_region { "yes" } else { "no" }.to_string(),
                ]
            })
            .collect();
        out.push_str(&super::text_table(
            &format!("Figure 8: best tiles on {d} (top 12 of {})", pts.len()),
            &["m", "n", "m*n", "GB/s", "pruned-region"],
            &rows,
        ));
        out.push('\n');
    }
    for (d, best, pruned, ratio) in &report.recovery {
        out.push_str(&format!(
            "{d}: exhaustive best {best:.2} GB/s, pruned-region best {pruned:.2} GB/s → {:.0}% recovered [paper: >=80%]\n",
            ratio * 100.0
        ));
    }
    for (d, log) in &report.tune {
        let chosen = log
            .chosen
            .map_or_else(|| "none".to_string(), |c| format!("{}x{} @ {:.2} GB/s", c.m, c.n, c.gbps));
        out.push_str(&format!(
            "{d}: search considered {} tiles ({} measured, {} infeasible, {} pruned out), chose {chosen}\n",
            log.considered, log.measured, log.rejected_infeasible, log.pruned_out
        ));
    }
    out
}
