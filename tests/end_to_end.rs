//! Workspace-level integration tests: every execution path — the host
//! entry points on one and on two threads, CPU baselines, and the
//! simulated device — must produce exactly the reference transposition on
//! the same shapes.

use ipt::baselines::{
    transpose_in_place_gkk, transpose_in_place_pipt, transpose_in_place_seq, transpose_oop_par,
};
use ipt::core::full::host_plan;
use ipt::core::{transpose_in_place, Algorithm, Matrix, StagePlan, TileConfig, TileHeuristic};
use ipt::gpu::{
    plan_flag_words, run_host_async, run_host_sync, transpose_on_device, GpuOptions,
    RecoveryPolicy,
};
use ipt::obs::NoopRecorder;
use ipt::sim::{DeviceSpec, Sim};

/// Run `op` on a rayon pool `threads` wide (1 runs it inline).
fn on_pool<R: Send>(threads: usize, op: impl FnOnce() -> R + Send) -> R {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("shim pools build");
    pool.install(op)
}

/// `algo`'s plan on [`host_plan`]'s tile, run in place on the caller's
/// pool. The vectors and squares that `host_plan` leaves out go through
/// `transpose_in_place`.
fn host_algo<T: Copy + Send + Sync>(m: Matrix<T>, algo: Algorithm) -> Matrix<T> {
    let (r, c) = (m.rows(), m.cols());
    let Some(tile) = host_plan::<T>(r, c).map(|p| p.tile) else {
        return transpose_in_place(m);
    };
    let plan = algo.plan(r, c, tile).expect("the host tile divides the shape");
    let mut m = m;
    plan.execute(m.as_mut_slice());
    m.assume_transposed_shape()
}

const SHAPES: &[(usize, usize)] = &[
    (5, 3),
    (3, 5),
    (64, 48),
    (48, 64),
    (100, 100),
    (37, 41), // both prime → single-stage fallback
    (1, 17),
    (17, 1),
    (720, 180),
    (96, 250),
];

#[test]
fn every_host_path_matches_reference() {
    for &(r, c) in SHAPES {
        let m = Matrix::iota(r, c);
        let want = m.transposed();
        for threads in [1, 2] {
            let got = on_pool(threads, || transpose_in_place(m.clone()));
            assert_eq!(got, want, "{r}x{c} on {threads} threads");
            for algo in Algorithm::ALL {
                let got = on_pool(threads, || host_algo(m.clone(), algo));
                assert_eq!(got, want, "{} {r}x{c} on {threads} threads", algo.name());
            }
        }
        assert_eq!(transpose_in_place_gkk(m.clone(), 4), want, "gkk {r}x{c}");
        assert_eq!(transpose_in_place_pipt(m.clone()), want, "pipt {r}x{c}");
        assert_eq!(transpose_oop_par(&m), want, "oop {r}x{c}");
        if r * c < 20_000 {
            assert_eq!(transpose_in_place_seq(m.clone()), want, "seq {r}x{c}");
        }
    }
}

#[test]
fn device_paths_match_reference_on_all_devices() {
    let (r, c) = (72, 60);
    let plan = StagePlan::three_stage(r, c, TileConfig::new(12, 10)).unwrap();
    for dev in [
        DeviceSpec::tesla_k20(),
        DeviceSpec::gtx580(),
        DeviceSpec::hd7750(),
        DeviceSpec::xeon_phi(),
    ] {
        let opts = GpuOptions::tuned_for(&dev);
        let name = dev.name;
        let mut sim = Sim::new(dev, r * c + plan_flag_words(&plan) + 64);
        let mut data = Matrix::iota(r, c).into_vec();
        // transpose_on_device panics internally on mismatch.
        let stats = transpose_on_device(&mut sim, &mut data, r, c, &plan, &opts, &NoopRecorder)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(stats.time_s() > 0.0, "{name}");
    }
}

#[test]
fn staged_plan_through_100_is_engine_independent() {
    use ipt::sim::EngineMode;
    // Stage 1 (`100!`) and stage 3 (`0100!`: 12800-word instances, more
    // than a K20 work-group's local memory) both launch the claims-
    // coordinated `100!` kernel, so the parallel engine records their claim
    // outcomes serially and replays them on the pool; stage 2 runs BS.
    let (r, c) = (512, 50);
    let plan = StagePlan::three_stage(r, c, TileConfig::new(16, 25)).unwrap();
    let dev = DeviceSpec::tesla_k20();
    let opts = GpuOptions::tuned_for(&dev);
    let run = |engine| {
        let mut sim = Sim::new(dev.clone(), r * c + plan_flag_words(&plan) + 64);
        sim.set_engine_mode(engine);
        let mut data = Matrix::iota(r, c).into_vec();
        let stats =
            transpose_on_device(&mut sim, &mut data, r, c, &plan, &opts, &NoopRecorder).unwrap();
        (data, stats)
    };
    let (serial_data, serial) = run(EngineMode::Serial);
    let (par_data, par) = on_pool(2, || run(EngineMode::Parallel));
    let kernels: Vec<&str> = serial.stages.iter().map(|s| s.name.as_str()).collect();
    assert!(
        kernels[0].starts_with("PTTWAC100") && kernels[2].starts_with("PTTWAC100"),
        "{kernels:?}"
    );
    assert_eq!(serial_data, par_data);
    assert_eq!(serial.stages, par.stages);
    assert_eq!(serial.overhead_s.to_bits(), par.overhead_s.to_bits());
}

#[test]
fn host_offload_sync_and_async_agree() {
    let (r, c) = (720, 180);
    let dev = DeviceSpec::tesla_k20();
    let opts = GpuOptions::tuned_for(&dev);
    let tile = TileHeuristic::default().select(r, c).unwrap();
    let plan = StagePlan::three_stage(r, c, tile).unwrap();
    // Both runs verify functional correctness internally.
    let policy = RecoveryPolicy::default();
    let (sync, report) =
        run_host_sync(&dev, r, c, &plan, &opts, &policy, None, &NoopRecorder).unwrap();
    assert!(report.clean(), "{report:?}");
    for q in [1usize, 2, 4, 8] {
        let (asy, report) =
            run_host_async(&dev, r, c, &plan, &opts, q, &policy, None, &NoopRecorder).unwrap();
        assert!(report.clean(), "q={q}: {report:?}");
        assert!(asy.total_s > 0.0);
        // Async can win or lose depending on Q, but must stay in the same
        // ballpark (no runaway scheduling bug).
        assert!(asy.total_s < 3.0 * sync.total_s, "q={q}");
    }
}

#[test]
fn double_transposition_is_identity_everywhere() {
    for &(r, c) in &[(60, 48), (48, 60), (90, 36)] {
        let m = Matrix::pattern_f32(r, c);
        let t = transpose_in_place(m.clone());
        let back = host_algo(t, Algorithm::FourStage);
        assert_eq!(back, m, "{r}x{c}");
    }
}

#[test]
fn in_place_means_no_matrix_sized_allocation_on_device() {
    // The device-side footprint is the matrix plus coordination bits —
    // under 0.1 % overhead for paper-shaped tiles (§7.4 discussion).
    let (r, c) = (720, 180);
    let tile = TileHeuristic::default().select(r, c).unwrap();
    let plan = StagePlan::three_stage(r, c, tile).unwrap();
    let flag_words = plan_flag_words(&plan);
    let overhead = flag_words as f64 / (r * c) as f64;
    assert!(
        overhead < 0.001,
        "coordination bits {flag_words} words = {:.4}% of the matrix",
        overhead * 100.0
    );
    // And the simulator itself enforces capacity: matrix + flags + slack
    // fits, matrix × 2 is not required.
    let dev = DeviceSpec::tesla_k20();
    let opts = GpuOptions::tuned_for(&dev);
    let mut sim = Sim::new(dev, r * c + flag_words + 64);
    let mut data = Matrix::iota(r, c).into_vec();
    let _ = transpose_on_device(&mut sim, &mut data, r, c, &plan, &opts, &NoopRecorder).unwrap();
    assert!(sim.free_words() < r * c, "no second matrix-sized buffer existed");
}

#[test]
fn any_shape_api_handles_awkward_dimensions() {
    // Every route of `transpose_in_place_any`, on one and two workers, with
    // every element distinct (indices below 2^24 are exact in f32).
    use ipt::core::full::{route_for, AnyRoute};
    use ipt::core::transpose_in_place_any;
    fn check<T: Copy + Send + Sync + PartialEq + std::fmt::Debug>(m: &Matrix<T>) {
        let want = m.transposed();
        for threads in [1, 2] {
            let got = on_pool(threads, || transpose_in_place_any(m.clone()));
            assert!(got == want, "{}x{} on {threads} threads", m.rows(), m.cols());
        }
    }
    let routed = [
        (998, 1497, AnyRoute::GcdTile),      // gcd 499
        (1042, 1563, AnyRoute::SingleStage), // gcd 521: a 521² tile is too large
        (1009, 997, AnyRoute::Coprime),
        (720, 480, AnyRoute::Staged),
    ];
    for (r, c, route) in routed {
        assert_eq!(route_for(r, c, &TileHeuristic::default()), route, "{r}x{c}");
    }
    // Vectors and prime squares go to `transpose_in_place` before routing.
    let handed_over = [(1, 4099), (4099, 1), (61, 61), (509, 509)];
    for (r, c) in handed_over.into_iter().chain(routed.map(|(r, c, _)| (r, c))) {
        check(&Matrix::from_fn(r, c, |i, j| (i * c + j) as f32));
        check(&Matrix::from_fn(r, c, |i, j| (i * c + j) as f64));
    }
}

#[test]
fn any_shape_api_on_two_threads_matches_its_seq_paths() {
    use ipt::core::full::{route_for, AnyRoute};
    use ipt::core::{transpose_coprime_seq, transpose_in_place_any};
    for (r, c, route) in [(720, 480, AnyRoute::Staged), (1009, 997, AnyRoute::Coprime)] {
        assert_eq!(route_for(r, c, &TileHeuristic::default()), route, "{r}x{c}");
        let m = Matrix::pattern_f32(r, c);
        // One and two threads run the same functions, so each must also
        // match the plain out-of-place transposition.
        let independent = m.transposed();
        let got = on_pool(2, || transpose_in_place_any(m.clone()));
        let want = match route {
            AnyRoute::Staged => on_pool(1, || transpose_in_place(m)).into_vec(),
            _ => {
                let mut data = m.into_vec();
                transpose_coprime_seq(&mut data, r, c);
                data
            }
        };
        assert_eq!(want, independent.as_slice(), "{r}x{c} {route:?} seq");
        assert_eq!(got, independent, "{r}x{c} {route:?} par");
    }
}

#[test]
fn three_stage_plan_on_both_sides_of_the_scratch_cap_on_one_and_two_threads() {
    // 1200×600 f32 with 50×60 tiles: 100! is one 2.88 MB instance of
    // 60-word super-elements, over the 2 MiB scratch cap, so it is
    // cycle-followed: with the visited bitmap on one thread, one task per
    // cycle on two. 0010!'s 12 KB tiles and 0100!'s 288 KB instances are
    // staged through the per-worker scratch tile.
    let (r, c) = (1200, 600);
    let plan = StagePlan::three_stage(r, c, TileConfig::new(50, 60)).unwrap();
    let m = Matrix::pattern_f32(r, c);
    let want = m.transposed();
    for threads in [1, 2] {
        let mut data = m.as_slice().to_vec();
        on_pool(threads, || plan.execute(&mut data));
        assert_eq!(Matrix::from_vec(c, r, data), want, "{threads} threads");
    }
}

#[test]
fn host_plan_for_the_staged_benchmark_shape_is_sized_for_the_host() {
    use ipt::core::stages::StageOp;
    use ipt::core::tiles::{HOST_SIDE_MIN_BYTES, HOST_TILE_MAX_BYTES};
    // The `staged` benchmark's 20000×16000 f32 (1.28 GB), planned without
    // allocating it.
    let (r, c) = (20_000, 16_000);
    let device = TileHeuristic::default().select(r, c).unwrap();
    assert_eq!(device, TileConfig::new(50, 64));
    let plan = host_plan::<f32>(r, c).unwrap();
    let t = plan.tile;
    assert_ne!(t, device);
    assert!(t.factors_of(r, c).is_ok(), "{t:?}");
    let codes: Vec<String> = plan.stages.iter().map(|s| s.code.to_string()).collect();
    assert_eq!(codes, ["100!", "0010!", "0100!"]);
    let ops: Vec<_> = plan
        .stages
        .iter()
        .map(|s| match &s.op {
            StageOp::Instanced(op) => *op,
            StageOp::Fused(_) => panic!("the 3-stage plan has no fused stage"),
        })
        .collect();
    let bytes = |elems: usize| elems * std::mem::size_of::<f32>();
    assert!(bytes(ops[0].super_size) >= HOST_SIDE_MIN_BYTES, "100! {:?}", ops[0]);
    assert!(bytes(ops[2].super_size) >= HOST_SIDE_MIN_BYTES, "0100! {:?}", ops[2]);
    assert!(bytes(ops[1].instance_len()) <= HOST_TILE_MAX_BYTES, "0010! {:?}", ops[1]);
}

#[test]
fn host_tiled_plans_match_the_reference_on_one_and_two_threads() {
    use ipt::core::transpose_in_place_any;
    // 1200×800 (~1M elements): the device tile is 60×50, the host's is
    // 400×160 for f32 and 200×160 for f64.
    let (r, c) = (1200, 800);
    let tile = |plan: Option<StagePlan>| plan.map(|p| p.tile);
    assert_eq!(TileHeuristic::default().select(r, c), Some(TileConfig::new(60, 50)));
    let f32_tile = tile(host_plan::<f32>(r, c));
    assert_eq!(f32_tile, Some(TileConfig::new(400, 160)));
    let f64_tile = tile(host_plan::<f64>(r, c));
    assert_eq!(f64_tile, Some(TileConfig::new(200, 160)));
    fn check<T: Copy + Send + Sync + PartialEq + std::fmt::Debug>(m: &Matrix<T>) {
        let want = m.transposed();
        for threads in [1, 2] {
            let got = on_pool(threads, || transpose_in_place(m.clone()));
            assert!(got == want, "3-stage on {threads} threads");
            for algo in Algorithm::ALL {
                let got = on_pool(threads, || host_algo(m.clone(), algo));
                assert!(got == want, "{} on {threads} threads", algo.name());
            }
            let got = on_pool(threads, || transpose_in_place_any(m.clone()));
            assert!(got == want, "any on {threads} threads");
        }
    }
    // Every value distinct: indices below 2^24 are exact in f32.
    check(&Matrix::from_fn(r, c, |i, j| (i * c + j) as f32));
    check(&Matrix::from_fn(r, c, |i, j| (i * c + j) as f64));
}

#[test]
fn host_c2r_column_blocks_on_two_threads_match_the_reference() {
    // f32 blocks are 64 columns (256 B) wide. 1009×997 routes to the
    // coprime path: its rows gather through the shared index table, and
    // 997 = 15·64 + 37 leaves a tail block. 600×450 (c = 150) runs the
    // rotate pass and walks its rows. 40009 rows cap a block at 52
    // columns (8 MiB of scratch), so 61 columns are cut to 52 + 9. With
    // 37 rows, fewer than a block's 64 columns, every diagonal that the
    // column shuffle reads wraps past the last row.
    use ipt::core::{transpose_in_place_any, transpose_matrix_c2r};
    let m = Matrix::pattern_f32(1009, 997);
    let want = m.transposed();
    assert_eq!(on_pool(2, || transpose_in_place_any(m)), want, "1009x997");
    for (r, c) in [(600, 450), (40_009, 61), (37, 1000)] {
        let m = Matrix::pattern_f32(r, c);
        let want = m.transposed();
        assert_eq!(on_pool(2, || transpose_matrix_c2r(m)), want, "{r}x{c}");
    }
}

#[test]
fn f64_device_path_matches_f32_semantics() {
    // f64 elements travel through the recovery chain as (low, high) word
    // pairs; the tuned in-place plan delivers them bit-exact.
    use ipt::gpu::{scale_plan_words, transpose_with_recovery, RecoveryPolicy};
    let (r, c) = (48, 90);
    let plan = StagePlan::three_stage(r, c, TileConfig::new(8, 9)).unwrap();
    let dev = DeviceSpec::tesla_k20();
    let opts = GpuOptions::tuned_for(&dev);
    let scaled = scale_plan_words(&plan, 2);
    let mut sim = Sim::new(dev, 2 * r * c + plan_flag_words(&scaled) + 64);
    let src: Vec<f64> = (0..r * c).map(|k| (k as f64).sin()).collect();
    let mut data: Vec<u32> = src
        .iter()
        .flat_map(|v| {
            let b = v.to_bits();
            [b as u32, (b >> 32) as u32]
        })
        .collect();
    let policy = RecoveryPolicy::default();
    let (stats, report) =
        transpose_with_recovery(&mut sim, &mut data, r, c, 2, &plan, &opts, &policy).unwrap();
    assert!(report.clean(), "{report:?}");
    assert!(stats.time_s() > 0.0);
    for (k, v) in src.iter().enumerate() {
        let d = (k % c) * r + k / c;
        let got = u64::from(data[2 * d]) | (u64::from(data[2 * d + 1]) << 32);
        assert_eq!(got, v.to_bits(), "element {k}");
    }
}

#[test]
fn injected_abort_is_recovered_by_the_chain() {
    // A kernel abort mid-plan: the chain restores the stage's snapshot and
    // retries it once, on the primary rung, and the data comes out exact.
    use ipt::gpu::{transpose_with_recovery, RecoveryPath, RecoveryPolicy};
    use ipt::sim::{FaultKind, FaultPlan};
    let (r, c) = (72, 60);
    let plan = StagePlan::three_stage(r, c, TileConfig::new(12, 10)).unwrap();
    let dev = DeviceSpec::tesla_k20();
    let opts = GpuOptions::tuned_for(&dev);
    let mut sim = Sim::new(dev, 2 * r * c + plan_flag_words(&plan).max(1) + 64);
    sim.set_fault_plan(FaultPlan::exact(7, FaultKind::AbortKernel, 5, 0));
    let mut data = Matrix::iota(r, c).into_vec();
    let policy = RecoveryPolicy::default();
    let (stats, report) =
        transpose_with_recovery(&mut sim, &mut data, r, c, 1, &plan, &opts, &policy).unwrap();
    assert_eq!(data, Matrix::iota(r, c).transposed().into_vec());
    assert_eq!(report.path, RecoveryPath::Primary);
    assert_eq!(report.stage_retries, 1, "{report:?}");
    assert_eq!(report.faults.len(), 1);
    assert_eq!(report.faults[0].kind, FaultKind::AbortKernel);
    assert!(report.penalty_s > 0.0);
    assert_eq!(stats.stages.len(), 3, "the failed attempt is rolled back");
}

#[test]
fn host_reference_and_exact_verify_follow_equation_1() {
    // `host_transpose_elems` is the oracle of the stream, serve and
    // recovery tests and `verify_exact_elems` checks every device result,
    // so both are tied here to the definitional permutation itself. The
    // shapes give the host walk one partial strip, exact strips of 64
    // rows, and full strips followed by a partial one.
    use ipt::core::TransposePerm;
    use ipt::gpu::recover::{host_transpose_elems, verify_exact_elems};

    // What the definitional loop names: the first source element, in
    // row-major order, whose words are not at its destination.
    fn first_wrong(src: &[u32], got: &[u32], perm: &TransposePerm, w: usize) -> Option<String> {
        (0..perm.len()).find_map(|k| {
            let d = perm.dest(k);
            let (want, found) = (&src[k * w..(k + 1) * w], &got[d * w..(d + 1) * w]);
            (want != found).then(|| {
                format!(
                    "source element {k} should land at {d} with words {want:?}, found {found:?}"
                )
            })
        })
    }

    for (rows, cols) in [(1, 97), (97, 1), (2, 3), (63, 65), (64, 64), (65, 129), (481, 719)] {
        let perm = TransposePerm::new(rows, cols);
        let n = rows * cols;
        for w in 1..=3 {
            let case = format!("{rows}x{cols} of {w} words");
            // Distinct, non-zero words: an unwritten or misplaced word shows.
            let src: Vec<u32> = (1..=(n * w) as u32).map(|x| x.wrapping_mul(0x9e37_79b1)).collect();
            let mut want = vec![0u32; n * w];
            for k in 0..n {
                let d = perm.dest(k);
                want[d * w..(d + 1) * w].copy_from_slice(&src[k * w..(k + 1) * w]);
            }
            assert!(host_transpose_elems(&src, rows, cols, w) == want, "{case}");
            if let Err(e) = verify_exact_elems(&src, &want, rows, cols, w) {
                panic!("{case}: {e}");
            }

            // Each corruption of the right output, by the output element it
            // hits: the last word flipped at the first and last elements
            // and on both sides of the first strip boundary (source rows
            // 63 and 64), two elements swapped, and one element's first two
            // words swapped.
            let flip = |e: usize| {
                let mut v = want.clone();
                v[e * w + w - 1] ^= 1;
                v
            };
            let mut bad = vec![("first element", flip(0)), ("last element", flip(n - 1))];
            for (what, i) in [("strip end", 63), ("strip start", 64)] {
                if i < rows {
                    bad.push((what, flip(perm.dest(i * cols + cols / 2))));
                }
            }
            let mut swapped = want.clone();
            for t in 0..w {
                swapped.swap(n / 3 * w + t, 2 * n / 3 * w + t);
            }
            bad.push(("swapped pair", swapped));
            if w >= 2 {
                let mut torn = want.clone();
                torn.swap(n / 2 * w, n / 2 * w + 1);
                bad.push(("torn element", torn));
            }
            for (what, got) in bad {
                let Err(e) = verify_exact_elems(&src, &got, rows, cols, w) else {
                    panic!("{case}: {what} passed verification");
                };
                assert_eq!(Some(e.detail), first_wrong(&src, &got, &perm, w), "{case}: {what}");
            }
        }
    }
}

#[test]
fn multi_gpu_blocks_agree_with_single_device() {
    use ipt::gpu::{run_multi_gpu, LinkTopology};
    let dev = DeviceSpec::tesla_k20();
    let opts = GpuOptions::tuned_for(&dev);
    // run_multi_gpu verifies reassembly internally for every D.
    for d in [1usize, 2, 3, 6] {
        let rep = run_multi_gpu(&dev, d, 720, 180, &opts, LinkTopology::Shared).unwrap();
        assert_eq!(rep.kernel_s_per_device.len(), d);
    }
}

#[test]
fn repro_experiment_smoke() {
    // The tile-size experiment end-to-end: monotone throughput in tile size
    // (the §7.3 shape) via the public harness API.
    use ipt_bench::experiments::tilesize;
    use ipt_bench::workloads::Scale;
    let rows = tilesize::run(&DeviceSpec::tesla_k20(), Scale::Reduced);
    assert_eq!(rows.len(), 4);
    for w in rows.windows(2) {
        assert!(w[1].gbps > w[0].gbps, "§7.3 monotonicity");
    }
}

#[test]
fn dominance_gate_smoke() {
    // The C2R dominance sweep end-to-end: the prime-shape gate must hold
    // (C2R beats the staged plan and the single-stage pass on every
    // gcd = 1 shape), and the planner sends the 7919×104729 paper-class
    // shape to C2R.
    use ipt_bench::experiments::dominance;
    use ipt_bench::workloads::Scale;
    let (rows, probes, summary) = dominance::run(&DeviceSpec::tesla_k20(), Scale::Reduced);
    assert!(!rows.is_empty());
    assert!(summary.gcd1_shapes > 0);
    assert_eq!(summary.c2r_wins, summary.gcd1_shapes);
    let paper_class = probes.iter().find(|p| p.rows == 7919 && p.cols == 104_729);
    assert_eq!(paper_class.map(|p| p.scheme.as_str()), Some("c2r"));
    assert!(summary.passed, "dominance gate failed: {summary:?}");
}

#[test]
fn outofcore_resumes_after_engine_crash() {
    // Whichever engine dies 40% into the stream, the run resumes from the
    // journal's first uncommitted chunk: the output is exact, every chunk
    // commits, and no chunk is transferred twice.
    use ipt::gpu::recover::host_transpose_elems;
    use ipt::gpu::stream::{stream_transpose_rec, StreamChaos, StreamConfig};
    let dev = DeviceSpec::tesla_k20();
    let (rows, cols) = (96, 40);
    let data: Vec<u32> = (0..(rows * cols) as u32).collect();
    let cfg = StreamConfig::new(&dev, (rows * cols / 4) as u64);
    for engine in 0..3 {
        let chaos = StreamChaos::EngineCrashAt { engine, frac: 0.4 };
        let (out, rep) =
            stream_transpose_rec(&dev, &data, rows, cols, 1, &cfg, &chaos, &NoopRecorder).unwrap();
        assert!(rep.num_chunks >= 4, "engine {engine}: {} chunks", rep.num_chunks);
        assert_eq!(out, host_transpose_elems(&data, rows, cols, 1), "engine {engine}");
        assert_eq!(rep.crash_resumes, 1, "engine {engine}");
        assert!(rep.journal.all_committed(), "engine {engine}");
        assert!(rep.journal.chunks.iter().all(|c| c.attempts == 1), "engine {engine}");
    }
}

#[test]
fn fleet_crash_restart() {
    // The shard owning the first shape dies mid-round: its admitted but
    // unserved requests fail over to the survivors, and it rejoins warm
    // from its own snapshot. The fleet must serve the same ids with the
    // same bits as a fleet that never crashed.
    use ipt::gpu::fleet::{Fleet, FleetConfig};
    use ipt::gpu::serve::{PriorityClass, ServeRequest};
    use ipt::gpu::TransposeError;
    use ipt::obs::{Counter, TraceRecorder};
    use std::collections::BTreeMap;

    const N: u64 = 48;
    const ROUND: u64 = 8;
    const CRASH_AT: u64 = 21; // mid-round: the victim holds admitted work
    const RESTART_AT: u64 = 30;
    // Staged, prime (C2R), identity and two-word shapes.
    const SHAPES: [(usize, usize, usize); 4] = [(24, 20, 4), (13, 11, 4), (1, 64, 4), (24, 20, 8)];

    fn request(id: u64) -> ServeRequest {
        let (rows, cols, elem_bytes) = SHAPES[id as usize % SHAPES.len()];
        let words = rows * cols * elem_bytes / 4;
        ServeRequest {
            id,
            rows,
            cols,
            elem_bytes,
            priority: [PriorityClass::Interactive, PriorityClass::Batch][id as usize % 2],
            data: (0..words as u32).map(|x| x.wrapping_mul(2_654_435_761) ^ id as u32).collect(),
        }
    }

    fn drain(fleet: &mut Fleet, out: &mut BTreeMap<u64, Vec<u32>>, rec: &TraceRecorder) {
        for (_, round) in fleet.process_rounds(rec).expect("fleet round").rounds {
            for res in round.results {
                assert!(out.insert(res.id, res.data).is_none(), "id {} served twice", res.id);
            }
        }
    }

    fn submit(
        fleet: &mut Fleet,
        req: ServeRequest,
        out: &mut BTreeMap<u64, Vec<u32>>,
        rec: &TraceRecorder,
    ) {
        if let Err(TransposeError::Backpressure { .. }) = fleet.submit(req.clone(), rec) {
            drain(fleet, out, rec);
            fleet.submit(req, rec).expect("accepted after a drain");
        }
    }

    fn run(crash: bool, rec: &TraceRecorder) -> (BTreeMap<u64, Vec<u32>>, usize) {
        let dev = DeviceSpec::tesla_k20();
        let mut fleet = Fleet::new(dev.clone(), FleetConfig::new(&dev));
        let (r, c, e) = SHAPES[0];
        let victim = fleet.preferred_shard(r, c, e);
        let (mut out, mut snapshot, mut restored) = (BTreeMap::new(), None, 0);
        for id in 0..N {
            if crash && id == CRASH_AT {
                let (snap, orphans) = fleet.crash_shard(victim, rec);
                assert!(!orphans.is_empty(), "the victim must hold admitted requests");
                for orphan in orphans {
                    submit(&mut fleet, orphan, &mut out, rec);
                }
                snapshot = Some(snap);
            }
            if crash && id == RESTART_AT {
                let snap = snapshot.as_deref().expect("crashed first");
                restored = fleet.restart_shard(victim, snap, rec).expect("own snapshot restores");
            }
            submit(&mut fleet, request(id), &mut out, rec);
            if (id + 1) % ROUND == 0 {
                drain(&mut fleet, &mut out, rec);
            }
        }
        while fleet.backlog() > 0 {
            drain(&mut fleet, &mut out, rec);
        }
        (out, restored)
    }

    let (smooth_rec, crash_rec) = (TraceRecorder::counters_only(), TraceRecorder::counters_only());
    let (smooth, _) = run(false, &smooth_rec);
    let (crashed, restored) = run(true, &crash_rec);
    assert_eq!(smooth.len(), N as usize, "every id served once");
    assert_eq!(crashed, smooth, "same ids, bit-identical payloads");
    assert!(restored > 0, "the victim rejoined with a warm plan cache");
    assert_eq!(crash_rec.counter("serve", Counter::SnapshotRestores), 1);
    assert!(crash_rec.counter("fleet", Counter::ShardFailovers) >= 1, "orphans failed over");
    assert_eq!(smooth_rec.counter("fleet", Counter::ShardFailovers), 0);
}
