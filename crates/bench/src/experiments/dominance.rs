//! **Scheme dominance sweep** — the C2R/R2C decomposition (Catanzaro,
//! Keller & Garland) against every rival scheme, per shape.
//!
//! The paper's §7.4 limitation is the prime-shape slow path: when no good
//! tile exists the staged algorithm degrades to the single-stage pass. This
//! experiment is the gate that the C2R scheme removed that slow path:
//!
//! * per sweep shape it measures the C2R device pipeline against the
//!   planner's staged plan (where a tile exists) and the single-stage
//!   `100!` fallback, all correctness-asserted;
//! * it records the planner's decision over the sweep grid **plus
//!   paper-class prime shapes** (the 7919×104729 family, far too large to
//!   simulate);
//! * `passed` requires C2R to win **every** gcd = 1 shape.
//!
//! `repro dominance` exits 1 when the gate fails; the committed
//! `bench_out/dominance.json` baseline additionally gates throughput drift
//! under `repro --check`.

use crate::workloads::Scale;
use gpu_sim::{DeviceSpec, Sim};
use ipt_core::stages::StagePlan;
use ipt_core::{decide_scheme, Matrix, Scheme, TileHeuristic};
use ipt_gpu::opts::GpuOptions;
use ipt_gpu::pipeline::{plan_flag_words, transpose_on_device};
use ipt_gpu::{c2r_scratch_words, transpose_c2r_on_device};
use serde::Serialize;
use std::collections::BTreeMap;

/// One sweep shape: every rival measured on the simulated device.
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// Matrix rows.
    pub rows: usize,
    /// Matrix cols.
    pub cols: usize,
    /// gcd(rows, cols) — 1 on the prime/near-prime shapes.
    pub gcd: usize,
    /// What `decide_scheme` picks for this shape.
    pub planner: String,
    /// C2R decomposition (GB/s) — total over every shape.
    pub c2r_gbps: f64,
    /// The planner's staged plan (GB/s); `None` when no tile exists.
    pub staged_gbps: Option<f64>,
    /// Single-stage `100!` fallback (GB/s) — the paper's own prime-shape
    /// answer.
    pub single_gbps: Option<f64>,
    /// Fastest scheme on this shape.
    pub winner: String,
}

/// One planner probe: shapes too large to simulate still get a decision.
#[derive(Debug, Clone, Serialize)]
pub struct Probe {
    /// Matrix rows.
    pub rows: usize,
    /// Matrix cols.
    pub cols: usize,
    /// The decided scheme's name.
    pub scheme: String,
}

/// Sweep verdict: the dominance gate.
#[derive(Debug, Clone, Serialize)]
pub struct Summary {
    /// Shapes measured.
    pub shapes: usize,
    /// Measured shapes with gcd = 1.
    pub gcd1_shapes: usize,
    /// gcd = 1 shapes where C2R won.
    pub c2r_wins: usize,
    /// Planner probes (sweep grid + paper-class prime shapes).
    pub probes: usize,
    /// The gate: C2R won every gcd = 1 shape.
    pub passed: bool,
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 { a } else { gcd(b, a % b) }
}

/// The measured sweep grid: prime / near-prime shapes (the slow path under
/// test), one composite shape where the staged family is at its best, and
/// one long-line prime shape that forces the C2R scratch path.
#[must_use]
pub fn shapes(scale: Scale) -> Vec<(usize, usize)> {
    let mut v = vec![(1009, 251), (509, 521), (761, 128), (480, 360), (61, 13001)];
    if scale == Scale::Full {
        v.extend([(997, 512), (251, 1013), (720, 480)]);
    }
    v
}

/// Planner-only probes: the paper-class prime shapes (7919×104729 is
/// ~830 M words — nothing to simulate, but the *decision* must already be
/// right) plus smaller prime-shape variants.
#[must_use]
pub fn probe_shapes(scale: Scale) -> Vec<(usize, usize)> {
    let mut v = shapes(scale);
    v.extend([(7919, 104_729), (104_729, 7919), (7919, 512), (104_729, 3)]);
    v
}

/// Measure the C2R device pipeline, correctness-asserted.
fn measure_c2r(dev: &DeviceSpec, r: usize, c: usize) -> f64 {
    let wg = 256.min(dev.max_threads_per_wg);
    let scratch = c2r_scratch_words(dev, r, c, wg);
    let mut sim = Sim::new(dev.clone(), r * c + scratch + 8);
    let buf = sim.alloc(r * c);
    let mat = Matrix::iota(r, c);
    sim.upload_u32(buf, mat.as_slice());
    let stats = transpose_c2r_on_device(&mut sim, buf, r, c, wg).expect("c2r launch");
    assert_eq!(sim.download_u32(buf), mat.transposed().into_vec(), "device c2r incorrect");
    stats.throughput_gbps((r * c * 4) as f64)
}

/// Measure a staged plan (3-stage where the planner has a tile, otherwise
/// `None`); `transpose_on_device` verifies the permutation internally.
fn measure_plan(dev: &DeviceSpec, r: usize, c: usize, plan: &StagePlan) -> Option<f64> {
    let opts = GpuOptions::tuned_for(dev);
    let mut sim = Sim::new(dev.clone(), r * c + plan_flag_words(plan) + 64);
    let mut data = Matrix::iota(r, c).into_vec();
    let stats = transpose_on_device(&mut sim, &mut data, r, c, plan, &opts).ok()?;
    Some(stats.throughput_gbps((r * c * 4) as f64))
}

/// Run the sweep and the planner probes.
#[must_use]
pub fn run(dev: &DeviceSpec, scale: Scale) -> (Vec<Row>, Vec<Probe>, Summary) {
    let heuristic = TileHeuristic::default();
    let rows: Vec<Row> = shapes(scale)
        .into_iter()
        .map(|(r, c)| {
            let decision = decide_scheme(r, c, &heuristic);
            let c2r_gbps = measure_c2r(dev, r, c);
            let staged_gbps = match decision.scheme {
                Scheme::Staged | Scheme::GcdTiled | Scheme::SquareTiled => decision
                    .staged_plan(r, c)
                    .and_then(|plan| measure_plan(dev, r, c, &plan)),
                _ => None,
            };
            let single_gbps = measure_plan(dev, r, c, &StagePlan::single_stage(r, c));
            let mut candidates = vec![("c2r", c2r_gbps)];
            candidates.extend(staged_gbps.map(|g| ("staged", g)));
            candidates.extend(single_gbps.map(|g| ("single-stage", g)));
            let winner = candidates
                .iter()
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .map(|&(n, _)| n.to_string())
                .unwrap_or_default();
            Row {
                rows: r,
                cols: c,
                gcd: gcd(r, c),
                planner: decision.scheme.name().to_string(),
                c2r_gbps,
                staged_gbps,
                single_gbps,
                winner,
            }
        })
        .collect();

    let probes: Vec<Probe> = probe_shapes(scale)
        .into_iter()
        .map(|(r, c)| Probe {
            rows: r,
            cols: c,
            scheme: decide_scheme(r, c, &heuristic).scheme.name().to_string(),
        })
        .collect();

    let gcd1: Vec<&Row> = rows.iter().filter(|r| r.gcd == 1).collect();
    let c2r_wins = gcd1.iter().filter(|r| r.winner == "c2r").count();
    let summary = Summary {
        shapes: rows.len(),
        gcd1_shapes: gcd1.len(),
        c2r_wins,
        probes: probes.len(),
        passed: !gcd1.is_empty() && c2r_wins == gcd1.len(),
    };
    (rows, probes, summary)
}

fn opt(g: Option<f64>) -> String {
    g.map_or_else(|| "—".to_string(), |g| format!("{g:.2}"))
}

/// Render the text report.
#[must_use]
pub fn render(rows: &[Row], probes: &[Probe], summary: &Summary) -> String {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{}x{}", r.rows, r.cols),
                r.gcd.to_string(),
                r.planner.clone(),
                format!("{:.2}", r.c2r_gbps),
                opt(r.staged_gbps),
                opt(r.single_gbps),
                r.winner.clone(),
            ]
        })
        .collect();
    let mut out = super::text_table(
        "Dominance: C2R decomposition vs rival schemes per shape (— = not launchable)",
        &["matrix", "gcd", "planner", "C2R", "staged", "1-stage", "winner"],
        &table,
    );
    let mut decided: BTreeMap<&str, usize> = BTreeMap::new();
    for p in probes {
        *decided.entry(p.scheme.as_str()).or_default() += 1;
    }
    let decided: Vec<String> = decided.iter().map(|(s, n)| format!("{n} {s}")).collect();
    out.push_str(&format!(
        "\nC2R won {}/{} gcd=1 shapes\nplanner probes ({} shapes incl. 7919x104729-class): {}\n",
        summary.c2r_wins,
        summary.gcd1_shapes,
        summary.probes,
        decided.join(", "),
    ));
    out.push_str(&format!(
        "gate: {}  [C2R must win every gcd=1 shape]\n",
        if summary.passed { "PASS" } else { "FAIL" },
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_grid_covers_the_paper_class_shape() {
        for scale in [Scale::Reduced, Scale::Full] {
            let probes = probe_shapes(scale);
            assert!(probes.contains(&(7919, 104_729)));
            let d = decide_scheme(7919, 104_729, &TileHeuristic::default());
            assert_eq!(d.scheme, Scheme::C2R);
        }
    }

    #[test]
    fn sweep_has_both_gcd1_and_scratch_shapes() {
        let s = shapes(Scale::Reduced);
        assert!(s.iter().any(|&(r, c)| gcd(r, c) == 1));
        assert!(s.iter().any(|&(r, c)| gcd(r, c) > 1));
        // The long-line shape must overflow the K20 scratchpad, so the
        // sweep exercises the C2R global-scratch path.
        assert!(s.iter().any(|&(_, c)| c > 12_288));
    }
}
