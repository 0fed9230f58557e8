//! Tests for the *limitations* the paper calls out — the implementation
//! must exhibit them, not paper over them.

use gpu_sim::{DeviceSpec, Sim};
use ipt_core::stages::StagePlan;
use ipt_core::{Matrix, TileConfig, TileHeuristic};
use ipt_gpu::opts::{GpuOptions, Variant100};
use ipt_gpu::pipeline::{plan_flag_words, transpose_on_device};
use ipt_gpu::pttwac100::Pttwac100;
use ipt_obs::NoopRecorder;

/// §5.2 limitation 4: Sung's work-group-per-super-element kernel cannot run
/// when m exceeds the device's work-group limit (256 on AMD).
#[test]
fn sung_variant_infeasible_for_large_m_on_amd() {
    let dev = DeviceSpec::hd7750();
    let total = 4 * 3 * 300;
    let mut sim = Sim::new(dev, total + 64);
    let data = sim.alloc(total);
    let flags = sim.alloc(1);
    let k = Pttwac100 {
        data,
        flags,
        instances: 1,
        rows: 4,
        cols: 3,
        super_size: 300, // m = 300 > 256
        variant: Variant100::SungWorkGroup,
        wg_size: 0,
        fuse_tile: None,
        backoff: None,
    };
    let res = sim.launch(&k, &NoopRecorder, 0.0);
    assert!(res.is_err(), "m=300 work-groups must not launch on AMD");
    // The warp-based variant handles the same m fine (§5.2.1 flexibility).
    let k = Pttwac100 { variant: Variant100::WarpLocalTile, wg_size: 256, ..k };
    sim.zero(flags);
    // flags needs 1 word for 12 super-elements → already allocated.
    let stats = sim.launch(&k, &NoopRecorder, 0.0).expect("warp variant is flexible");
    assert!(stats.time_s > 0.0);
}

/// §7.4: prime dimensions defeat the tiling and fall back to the
/// single-stage pass — correct but slow.
#[test]
fn prime_dimensions_fall_back_and_still_verify() {
    let (r, c) = (127, 61); // both prime
    assert!(TileHeuristic::default().select(r, c).is_none());
    let plan = ipt_core::full::plan_auto(r, c, ipt_core::Algorithm::ThreeStage, &TileHeuristic::default());
    assert_eq!(plan.name, "single-stage");
    let dev = DeviceSpec::tesla_k20();
    let opts = GpuOptions::tuned_for(&dev);
    let mut sim = Sim::new(dev, r * c + plan_flag_words(&plan) + 64);
    let mut data = Matrix::iota(r, c).into_vec();
    // Verifies internally.
    let _ = transpose_on_device(&mut sim, &mut data, r, c, &plan, &opts, &NoopRecorder).unwrap();
}

/// §4.1: the single-stage pass is several times slower than the staged
/// algorithm on the same matrix (paper: 1.5 vs ~7–20 GB/s).
#[test]
fn single_stage_gap_matches_paper_shape() {
    let (r, c) = (720, 180);
    let dev = DeviceSpec::tesla_k20();
    let opts = GpuOptions::tuned_for(&dev);
    let bytes = (r * c * 4) as f64;
    let run = |plan: &StagePlan| {
        let mut sim = Sim::new(dev.clone(), r * c + plan_flag_words(plan) + 64);
        let mut data = Matrix::iota(r, c).into_vec();
        let stats =
            transpose_on_device(&mut sim, &mut data, r, c, plan, &opts, &NoopRecorder).unwrap();
        stats.throughput_gbps(bytes)
    };
    let staged = run(&StagePlan::three_stage(r, c, TileConfig::new(60, 60)).unwrap());
    let single = run(&StagePlan::single_stage(r, c));
    assert!(
        staged > 4.0 * single,
        "staged {staged:.1} GB/s should be several times single-stage {single:.1} GB/s"
    );
}

/// Device out-of-memory is a real failure: the simulator refuses to
/// allocate past its capacity (this is the constraint that motivates
/// in-place transposition — an OOP transpose of the same matrix would not
/// fit).
#[test]
#[should_panic(expected = "device OOM")]
fn oop_does_not_fit_where_in_place_does() {
    let (r, c) = (360, 180);
    let plan = StagePlan::three_stage(r, c, TileConfig::new(60, 60)).unwrap();
    // Memory sized for in-place + flags only.
    let mut sim = Sim::new(DeviceSpec::tesla_k20(), r * c + plan_flag_words(&plan) + 64);
    let _src = sim.alloc(r * c);
    let _flags = sim.alloc(plan_flag_words(&plan).max(1));
    // An out-of-place transpose would need a second matrix-sized buffer:
    let _dst = sim.alloc(r * c); // ← panics: device OOM
}

/// The coordination-bit overhead stays under 0.1 % for heuristic tiles
/// (Table 3's "≈0 %" GPU overhead row).
#[test]
fn coordination_overhead_below_paper_bound() {
    for &(r, c) in &[(1440usize, 360usize), (720, 180), (1020, 500)] {
        let tile = TileHeuristic::default()
            .select(r, c)
            .or_else(|| {
                TileHeuristic { preferred_lo: 30, preferred_hi: 90, ..Default::default() }
                    .select(r, c)
            })
            .unwrap();
        let plan = StagePlan::three_stage(r, c, tile).unwrap();
        let overhead = plan_flag_words(&plan) as f64 / (r * c) as f64;
        assert!(overhead < 0.001, "{r}x{c}: {:.3}%", overhead * 100.0);
    }
}
