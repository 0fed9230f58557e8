//! **§7.6** — overlapping stages 2–3 with the D2H transfer: asynchronous
//! execution with Q command queues.
//!
//! Paper: async beats sync by 9 % on average / 24 % max over all tested
//! configurations; the best Q is typically under 8 (queue-creation
//! overhead); best-configuration effective throughput rises from 2.87 to
//! 3.43 GB/s (+19 %) — >20 % over GKK on the CPU.

use crate::workloads::{async_sizes, Scale};
use gpu_sim::DeviceSpec;
use ipt_core::stages::StagePlan;
use ipt_gpu::host::{run_host_async, run_host_sync};
use ipt_gpu::opts::GpuOptions;
use ipt_gpu::recover::RecoveryPolicy;
use ipt_obs::NoopRecorder;
use serde::Serialize;

/// One (size, Q) measurement.
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// Matrix shape.
    pub rows: usize,
    /// Matrix shape.
    pub cols: usize,
    /// Command queues (1 = synchronous).
    pub q: usize,
    /// Effective throughput from the CPU's perspective (GB/s).
    pub effective_gbps: f64,
    /// Total time (s).
    pub total_s: f64,
}

/// Aggregates matching the paper's §7.6 claims.
#[derive(Debug, Clone, Serialize)]
pub struct Summary {
    /// Mean async-over-sync improvement across sizes and Q > 1.
    pub avg_improvement: f64,
    /// Max improvement.
    pub max_improvement: f64,
    /// Best Q per size.
    pub best_q: Vec<(usize, usize, usize)>,
    /// Mean best-Q effective throughput (GB/s).
    pub best_effective_gbps: f64,
    /// Mean sync effective throughput (GB/s).
    pub sync_effective_gbps: f64,
}

/// Q values exercised.
pub const QS: [usize; 6] = [1, 2, 4, 8, 12, 16];

/// Run the experiment.
#[must_use]
pub fn run(dev: &DeviceSpec, scale: Scale) -> (Vec<Row>, Summary) {
    let opts = GpuOptions::tuned_for(dev);
    let mut rows = Vec::new();
    let policy = RecoveryPolicy::default();
    for (r, c) in async_sizes(scale) {
        let tile = super::table2::tile3_for(r, c, Scale::Full);
        let plan = StagePlan::three_stage(r, c, tile).expect("tile divides");
        for q in QS {
            // Q = 1 is the synchronous scheme.
            let (rep, report) = if q == 1 {
                run_host_sync(dev, r, c, &plan, &opts, &policy, None, &NoopRecorder)
            } else {
                run_host_async(dev, r, c, &plan, &opts, q, &policy, None, &NoopRecorder)
            }
            .expect("host run");
            assert!(report.clean(), "{r}x{c} q={q} left the primary path: {report:?}");
            rows.push(Row {
                rows: r,
                cols: c,
                q,
                effective_gbps: rep.effective_gbps,
                total_s: rep.total_s,
            });
        }
    }
    let summary = summarise(&rows);
    (rows, summary)
}

/// Compute the paper-style aggregates.
#[must_use]
pub fn summarise(rows: &[Row]) -> Summary {
    let mut improvements = Vec::new();
    let mut best_q = Vec::new();
    let mut best_eff = Vec::new();
    let mut sync_eff = Vec::new();
    let mut sizes: Vec<(usize, usize)> = rows.iter().map(|r| (r.rows, r.cols)).collect();
    sizes.sort_unstable();
    sizes.dedup();
    for (r, c) in sizes {
        let group: Vec<&Row> = rows.iter().filter(|x| x.rows == r && x.cols == c).collect();
        let sync = group.iter().find(|x| x.q == 1).expect("sync row");
        sync_eff.push(sync.effective_gbps);
        let best = group
            .iter()
            .max_by(|a, b| a.effective_gbps.total_cmp(&b.effective_gbps))
            .expect("non-empty");
        best_q.push((r, c, best.q));
        best_eff.push(best.effective_gbps);
        for x in group.iter().filter(|x| x.q > 1) {
            improvements.push(x.effective_gbps / sync.effective_gbps - 1.0);
        }
    }
    let mean = |v: &[f64]| if v.is_empty() { 0.0 } else { v.iter().sum::<f64>() / v.len() as f64 };
    Summary {
        avg_improvement: mean(&improvements),
        max_improvement: improvements.iter().copied().fold(0.0, f64::max),
        best_q,
        best_effective_gbps: mean(&best_eff),
        sync_effective_gbps: mean(&sync_eff),
    }
}

/// Render the text report.
#[must_use]
pub fn render(rows: &[Row], s: &Summary) -> String {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{}x{}", r.rows, r.cols),
                r.q.to_string(),
                format!("{:.3}", r.effective_gbps),
                format!("{:.2}", r.total_s * 1e3),
            ]
        })
        .collect();
    let mut out = super::text_table(
        "S7.6: asynchronous execution (Q command queues)",
        &["matrix", "Q", "eff GB/s", "total ms"],
        &table,
    );
    out.push_str(&format!(
        "\nasync improvement: avg {:+.1}% / max {:+.1}%   [paper: +9% avg / +24% max]\n\
         best-Q effective: {:.2} GB/s vs sync {:.2} GB/s ({:+.1}%)  [paper: 3.43 vs 2.87, +19%]\n\
         best Q per size: {:?}  [paper: typically < 8]\n",
        s.avg_improvement * 100.0,
        s.max_improvement * 100.0,
        s.best_effective_gbps,
        s.sync_effective_gbps,
        (s.best_effective_gbps / s.sync_effective_gbps - 1.0) * 100.0,
        s.best_q.iter().map(|&(_, _, q)| q).collect::<Vec<_>>(),
    ));
    out
}
