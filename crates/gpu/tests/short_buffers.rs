//! A buffer too short for the work is a typed error, never an overrun.
//!
//! `Buffer::addr` checks bounds only with `debug_assert!`, so in release
//! builds a kernel handed a short buffer would write into whatever was
//! allocated next. The stage runner and the C2R driver therefore compare
//! the words a stage or shape needs with the buffers they were given
//! before anything launches. Each case runs in debug and release builds:
//! the call returns `LaunchError::Infeasible` naming the words needed and
//! held, and a guard buffer allocated right after the short one is
//! untouched.

use gpu_sim::{Buffer, DeviceSpec, LaunchError, Sim};
use ipt_core::stages::{StagePlan, TileConfig};
use ipt_core::Matrix;
use ipt_gpu::c2r::transpose_c2r_on_device;
use ipt_gpu::opts::GpuOptions;
use ipt_gpu::pipeline::{plan_flag_words, run_plan, transpose_on_device};
use ipt_obs::NoopRecorder;

const GUARD: usize = 8192;

/// A K20 with room for every buffer below.
fn sim() -> Sim {
    Sim::new(DeviceSpec::tesla_k20(), 1 << 16)
}

/// Allocate the next `GUARD` words and fill them with a known pattern.
fn fill_guard(sim: &mut Sim) -> (Buffer, Vec<u32>) {
    let guard = sim.alloc(GUARD);
    let pattern: Vec<u32> = (0..GUARD as u32).map(|x| x.wrapping_mul(0x9e37_79b9) | 1).collect();
    sim.upload_u32(guard, &pattern);
    (guard, pattern)
}

/// The error must be `Infeasible` and name both word counts.
fn assert_short(res: Result<gpu_sim::PipelineStats, LaunchError>, need: usize, held: usize) {
    match res {
        Err(LaunchError::Infeasible { why }) => {
            assert!(why.contains(&format!("{need} ")), "need {need} not named: {why}");
            assert!(why.contains(&format!("holds {held}")), "held {held} not named: {why}");
        }
        other => panic!("expected Infeasible, got {other:?}"),
    }
}

fn plan_72x60() -> StagePlan {
    StagePlan::three_stage(72, 60, TileConfig::new(12, 10)).unwrap()
}

#[test]
fn run_plan_refuses_a_short_data_buffer() {
    let mut sim = sim();
    let plan = plan_72x60();
    let data = sim.alloc(72 * 60 / 2);
    sim.upload_u32(data, &(0..2160).collect::<Vec<_>>());
    let (guard, pattern) = fill_guard(&mut sim);
    let flags = sim.alloc(plan_flag_words(&plan).max(1));
    let opts = GpuOptions::tuned_for(sim.device());
    assert_short(run_plan(&sim, data, flags, &plan, &opts, &NoopRecorder), 4320, 2160);
    assert_eq!(sim.download_u32(guard), pattern, "guard after data overwritten");
}

#[test]
fn run_plan_refuses_a_short_flag_buffer() {
    let opts = GpuOptions::tuned_for(&DeviceSpec::tesla_k20());
    let fused = StagePlan::four_stage_fused(72, 60, TileConfig::new(12, 10)).unwrap();
    // The 3-stage plan's `100!` stage and the fused plan's moving stage both
    // claim through global flags.
    for plan in [plan_72x60(), fused] {
        let need = plan_flag_words(&plan);
        assert!(need > 1, "{}: the plan must need more than one flag word", plan.name);
        let mut sim = sim();
        let data = sim.alloc(72 * 60);
        sim.upload_u32(data, Matrix::iota(72, 60).as_slice());
        let flags = sim.alloc(1);
        let (guard, pattern) = fill_guard(&mut sim);
        let res = run_plan(&sim, data, flags, &plan, &opts, &NoopRecorder);
        match res {
            Err(LaunchError::Infeasible { why }) => {
                assert!(why.contains("claim-flag") && why.contains("holds 1"), "{why}");
            }
            other => panic!("{}: expected Infeasible, got {other:?}", plan.name),
        }
        assert_eq!(sim.download_u32(guard), pattern, "{}: guard after flags", plan.name);
    }
}

#[test]
fn c2r_refuses_a_short_data_buffer() {
    let mut sim = sim();
    let data = sim.alloc(3050);
    sim.upload_u32(data, &(0..3050).collect::<Vec<_>>());
    let (guard, pattern) = fill_guard(&mut sim);
    assert_short(transpose_c2r_on_device(&mut sim, data, 101, 61, 256), 6161, 3050);
    assert_eq!(sim.download_u32(guard), pattern, "guard after data overwritten");
}

#[test]
fn transpose_on_device_refuses_a_plan_for_another_shape() {
    // Same element count, transposed shape: the buffers fit, but the plan
    // computes another permutation.
    let plan = StagePlan::three_stage(60, 72, TileConfig::new(10, 12)).unwrap();
    let mut sim = sim();
    let free = sim.free_words();
    let opts = GpuOptions::tuned_for(sim.device());
    let mut data = Matrix::iota(72, 60).into_vec();
    match transpose_on_device(&mut sim, &mut data, 72, 60, &plan, &opts, &NoopRecorder) {
        Err(LaunchError::Infeasible { why }) => {
            assert!(why.contains("60×72") && why.contains("72×60"), "{why}");
        }
        other => panic!("expected Infeasible, got {other:?}"),
    }
    assert_eq!(data, Matrix::iota(72, 60).into_vec(), "host data untouched");
    assert_eq!(sim.free_words(), free, "nothing allocated, so nothing written");
}
