//! Quickstart: in-place transposition of a rectangular matrix, on the host
//! and on the simulated accelerator.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use ipt::core::{
    transpose_in_place, Algorithm, Matrix, StagePlan, TileHeuristic, TransposePerm,
};
use ipt::gpu::{plan_flag_words, transpose_on_device, GpuOptions};
use ipt::obs::NoopRecorder;
use ipt::sim::{DeviceSpec, Sim};

fn main() {
    let (rows, cols) = (720, 180);

    // --- the mathematics -------------------------------------------------
    let perm = TransposePerm::new(rows, cols);
    let stats = perm.stats();
    println!("transposing a {rows}x{cols} matrix in place:");
    println!(
        "  permutation k -> k*{rows} mod {}: {} cycles, longest {}, {} fixed points",
        perm.modulus(),
        stats.count,
        stats.max_len,
        stats.fixed_points
    );

    // --- host-side (rayon) ------------------------------------------------
    let a = Matrix::pattern_f32(rows, cols);
    let expect = a.transposed();
    let t0 = std::time::Instant::now();
    let t = transpose_in_place(a.clone(), Algorithm::ThreeStage);
    let host_s = t0.elapsed().as_secs_f64();
    assert_eq!(t, expect);
    println!(
        "  host 3-stage (in place, same buffer): {:.2} ms = {:.2} GB/s",
        host_s * 1e3,
        2.0 * (rows * cols * 4) as f64 / host_s / 1e9
    );

    // --- simulated Tesla K20 ----------------------------------------------
    let tile = TileHeuristic::default()
        .select(rows, cols)
        .expect("divisor-rich dimensions always tile");
    println!("  tile chosen by the paper's heuristic: ({}, {})", tile.m, tile.n);
    let plan = StagePlan::three_stage(rows, cols, tile).unwrap();
    for stage in &plan.stages {
        println!("    stage {}: {}", stage.code, stage.describe);
    }
    let dev = DeviceSpec::tesla_k20();
    let opts = GpuOptions::tuned_for(&dev);
    let mut sim = Sim::new(dev, rows * cols + plan_flag_words(&plan) + 64);
    let mut data = Matrix::iota(rows, cols).into_vec();
    let stats =
        transpose_on_device(&mut sim, &mut data, rows, cols, &plan, &opts, &NoopRecorder).unwrap();
    println!(
        "  simulated Tesla K20: {:.3} ms = {:.2} GB/s over {} stages",
        stats.time_s() * 1e3,
        stats.throughput_gbps((rows * cols * 4) as f64),
        stats.stages.len()
    );
    for s in &stats.stages {
        println!(
            "    {:45} {:8.1} us  ({} bound, occupancy {:.0}%)",
            s.name,
            s.time_s * 1e6,
            s.bounds.limiting(),
            s.occupancy.occupancy * 100.0
        );
    }
}
