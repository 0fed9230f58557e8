//! **§7.1 sweep** — optimised PTTWAC (spread + padded flags) vs the
//! original packed-flag PTTWAC across tile shapes, on all three GPUs, plus
//! the P-IPT comparison.
//!
//! Paper result (avg, min/max speedup): 1.85 (1.36/3.49) on GTX 580,
//! 1.79 (1.30/5.29) on K20, 1.90 (1.15/3.34) on Cape Verde; optimised
//! PTTWAC defeats P-IPT everywhere.

use crate::common::run_010;
use crate::workloads::{fill_instances, Scale};
use gpu_sim::{DeviceSpec, Sim};
use ipt_core::InstancedTranspose;
use ipt_gpu::opts::FlagLayout;
use ipt_gpu::pipt::PiptKernel;
use ipt_obs::NoopRecorder;
use serde::Serialize;

/// One device's aggregated sweep result.
#[derive(Debug, Clone, Serialize)]
pub struct DeviceSummary {
    /// Device name.
    pub device: String,
    /// Mean speedup of optimised over original PTTWAC.
    pub avg_speedup: f64,
    /// Minimum speedup observed.
    pub min_speedup: f64,
    /// Maximum speedup observed.
    pub max_speedup: f64,
    /// Number of (m, n) points measured.
    pub points: usize,
    /// Fraction of points where optimised PTTWAC also beats P-IPT.
    pub beats_pipt_fraction: f64,
}

/// Paper sweep: n ∈ 16..256, m ∈ 16..64; strides keep the run tractable.
#[must_use]
pub fn grid(scale: Scale) -> (Vec<usize>, Vec<usize>) {
    match scale {
        Scale::Full => ((16..=64).step_by(4).collect(), (16..=256).step_by(16).collect()),
        Scale::Reduced => ((16..=64).step_by(16).collect(), (16..=256).step_by(48).collect()),
    }
}

/// Pick the spreading factor the tuned kernel would use: the largest
/// factor in 2..=16 whose flag array still leaves room for at least four
/// resident work-groups (so spreading never *costs* occupancy — the
/// paper's practical guidance, footnote 3).
fn choose_factor(dev: &DeviceSpec, m: usize, n: usize) -> usize {
    for f in [16usize, 8, 4, 2] {
        let words = FlagLayout::SpreadPadded { factor: f }.words_needed(m * n);
        if words * 4 * 4 <= dev.local_mem_per_sm {
            return f;
        }
    }
    2
}

fn run_pipt_time(dev: &DeviceSpec, instances: usize, m: usize, n: usize) -> f64 {
    let op = InstancedTranspose::new(instances, m, n, 1);
    let table = PiptKernel::leader_table(instances, m, n);
    let mut sim = Sim::new(dev.clone(), op.total_len() + table.len() + 8);
    let data = sim.alloc(op.total_len());
    let leaders = sim.alloc(table.len().max(2));
    let v: Vec<u32> = (0..op.total_len() as u32).collect();
    sim.upload_u32(data, &v);
    sim.upload_u32(leaders, &table);
    let k = PiptKernel {
        data,
        leaders,
        num_leaders: table.len() / 2,
        instances,
        rows: m,
        cols: n,
        super_size: 1,
        wg_size: 128,
    };
    let stats = sim.launch(&k, &NoopRecorder, 0.0).expect("P-IPT launch");
    let mut want = v;
    op.apply(&mut want);
    assert_eq!(sim.download_u32(data), want, "P-IPT incorrect");
    stats.time_s
}

/// Run the sweep on one device.
#[must_use]
pub fn run_device(dev: &DeviceSpec, scale: Scale) -> DeviceSummary {
    let (ms, ns) = grid(scale);
    let mut speedups = Vec::new();
    let mut beats_pipt = 0usize;
    let mut pipt_points = 0usize;
    for (i, &m) in ms.iter().enumerate() {
        for (j, &n) in ns.iter().enumerate() {
            let instances = fill_instances(m, n, scale);
            let packed = FlagLayout::Packed;
            if packed.words_needed(m * n) * 4 > dev.local_mem_per_wg {
                continue;
            }
            let (orig, _bytes) = run_010(dev, instances, m, n, 256, packed);
            let opt_layout = FlagLayout::SpreadPadded { factor: choose_factor(dev, m, n) };
            if opt_layout.words_needed(m * n) * 4 > dev.local_mem_per_wg {
                continue;
            }
            let (opt, _) = run_010(dev, instances, m, n, 256, opt_layout);
            speedups.push(orig.time_s / opt.time_s);
            // P-IPT on a diagonal subset (it is slow to simulate).
            if i == j {
                pipt_points += 1;
                let t_pipt = run_pipt_time(dev, instances.min(256), m, n);
                let (opt_small, _) =
                    run_010(dev, instances.min(256), m, n, 256, opt_layout);
                if opt_small.time_s < t_pipt {
                    beats_pipt += 1;
                }
            }
        }
    }
    let avg = speedups.iter().sum::<f64>() / speedups.len().max(1) as f64;
    DeviceSummary {
        device: dev.name.to_string(),
        avg_speedup: avg,
        min_speedup: speedups.iter().copied().fold(f64::INFINITY, f64::min),
        max_speedup: speedups.iter().copied().fold(0.0, f64::max),
        points: speedups.len(),
        beats_pipt_fraction: if pipt_points == 0 {
            0.0
        } else {
            beats_pipt as f64 / pipt_points as f64
        },
    }
}

/// Run on the paper's three GPUs.
#[must_use]
pub fn run(scale: Scale) -> Vec<DeviceSummary> {
    [DeviceSpec::gtx580(), DeviceSpec::tesla_k20(), DeviceSpec::hd7750()]
        .iter()
        .map(|d| run_device(d, scale))
        .collect()
}

/// Render the text report.
#[must_use]
pub fn render(rows: &[DeviceSummary]) -> String {
    let paper = [("GeForce GTX 580", 1.85), ("Tesla K20", 1.79), ("Radeon HD 7750", 1.90)];
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let p = paper
                .iter()
                .find(|(n, _)| *n == r.device)
                .map_or(String::from("-"), |(_, v)| format!("{v:.2}"));
            vec![
                r.device.clone(),
                format!("{:.2}", r.avg_speedup),
                format!("{:.2}", r.min_speedup),
                format!("{:.2}", r.max_speedup),
                p,
                r.points.to_string(),
                format!("{:.0}%", r.beats_pipt_fraction * 100.0),
            ]
        })
        .collect();
    super::text_table(
        "S7.1: optimised vs original PTTWAC 010! (speedup)",
        &["device", "avg", "min", "max", "paper-avg", "points", "beats P-IPT"],
        &table,
    )
}
