//! Property-based invariants over the whole stack (proptest).
//!
//! These are the structural guarantees of DESIGN.md §6: permutation
//! algebra, plan composition, in-place correctness of every execution
//! engine, and layout round-trips — over *arbitrary* shapes, not the
//! hand-picked ones in unit tests.

use ipt::core::elementary::parallel::{cycle_shift_par, find_cycle_leaders};
use ipt::core::elementary::{cycle_shift_oop, cycle_shift_seq, cycle_shift_seq_minimal};
use ipt::core::layout::StructArray;
use ipt::core::{
    transpose_in_place, InstancedTranspose, Matrix, StagePlan, TileConfig, TransposePerm,
};
use proptest::prelude::*;

/// A dimension with enough divisors to tile (product of small factors).
fn composite_dim() -> impl Strategy<Value = usize> {
    (1usize..=6, 1usize..=4, 1usize..=3)
        .prop_map(|(a, b, c)| 2usize.pow(a as u32 % 4 + 1) * 3usize.pow(b as u32 % 3) * c)
        .prop_filter("bounded", |&d| (4..=400).contains(&d))
}

/// A (rows, cols, tile) triple where the tile divides the matrix.
fn shape_and_tile() -> impl Strategy<Value = (usize, usize, usize, usize)> {
    (composite_dim(), composite_dim()).prop_flat_map(|(r, c)| {
        let rdivs: Vec<usize> = (1..=r).filter(|d| r % d == 0).collect();
        let cdivs: Vec<usize> = (1..=c).filter(|d| c % d == 0).collect();
        (Just(r), Just(c), proptest::sample::select(rdivs), proptest::sample::select(cdivs))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dest_is_a_bijection_and_src_its_inverse(r in 1usize..60, c in 1usize..60) {
        let p = TransposePerm::new(r, c);
        let mut seen = vec![false; p.len()];
        for k in 0..p.len() {
            let d = p.dest(k);
            prop_assert!(!seen[d]);
            seen[d] = true;
            prop_assert_eq!(p.src(d), k);
        }
    }

    #[test]
    fn cycle_count_matches_enumeration(r in 1usize..40, c in 1usize..40) {
        let p = TransposePerm::new(r, c);
        let enumerated = find_cycle_leaders(&p).len() as u64 + p.stats().fixed_points;
        prop_assert_eq!(p.cycle_count(), enumerated);
    }

    #[test]
    fn cycle_lengths_partition_the_domain(r in 2usize..40, c in 2usize..40) {
        let p = TransposePerm::new(r, c);
        let moved: usize = find_cycle_leaders(&p).iter().map(|&(_, l)| l).sum();
        prop_assert_eq!(moved as u64 + p.stats().fixed_points, (r * c) as u64);
        // Cate–Twigg: every cycle length divides the longest.
        let max = p.max_cycle_len() as usize;
        for (_, len) in find_cycle_leaders(&p) {
            prop_assert_eq!(max % len, 0);
        }
    }

    #[test]
    fn every_shift_engine_agrees_with_oop(
        (r, c) in (1usize..48, 1usize..48),
        s in 1usize..4,
    ) {
        let p = TransposePerm::new(r, c);
        let orig: Vec<u32> = (0..(r * c * s) as u32).collect();
        let mut want = vec![0u32; orig.len()];
        cycle_shift_oop(&orig, &mut want, &p, s);

        let mut a = orig.clone();
        cycle_shift_seq(&mut a, &p, s);
        prop_assert_eq!(&a, &want);

        let mut b = orig.clone();
        cycle_shift_seq_minimal(&mut b, &p, s);
        prop_assert_eq!(&b, &want);

        let mut d = orig.clone();
        cycle_shift_par(&mut d, &p, s);
        prop_assert_eq!(&d, &want);
    }

    #[test]
    fn all_plans_compose_and_execute((r, c, m, n) in shape_and_tile()) {
        let tile = TileConfig::new(m, n);
        let mat = Matrix::iota(r, c);
        let want = mat.transposed().into_vec();
        for plan in [
            StagePlan::three_stage(r, c, tile).unwrap(),
            StagePlan::four_stage(r, c, tile).unwrap(),
            StagePlan::four_stage_fused(r, c, tile).unwrap(),
        ] {
            prop_assert!(plan.verify(), "{} composition", plan.name);
            let mut data = mat.as_slice().to_vec();
            plan.execute(&mut data);
            prop_assert_eq!(&data, &want);
        }
    }

    #[test]
    fn transpose_is_involutive(r in 1usize..80, c in 1usize..80) {
        let m = Matrix::pattern_f32(r, c);
        let t = transpose_in_place(m.clone());
        let back = transpose_in_place(t);
        prop_assert_eq!(back, m);
    }

    #[test]
    fn instanced_inverse_roundtrip(
        i in 1usize..5, r in 1usize..12, c in 1usize..12, s in 1usize..4,
    ) {
        let op = InstancedTranspose::new(i, r, c, s);
        let orig: Vec<u32> = (0..op.total_len() as u32).collect();
        let mut data = orig.clone();
        op.apply(&mut data);
        op.inverse().apply(&mut data);
        prop_assert_eq!(data, orig);
    }

    #[test]
    fn layout_roundtrips(records_base in 1usize..40, fields in 1usize..12, t in 1usize..8) {
        let records = records_base * t; // t must divide records
        let sa = StructArray::new(records, fields);
        let orig: Vec<u32> = (0..sa.len() as u32).collect();
        // AoS -> ASTA -> SoA -> (inverse chain) -> AoS
        let mut data = orig.clone();
        sa.aos_to_asta(t).apply(&mut data);
        sa.asta_to_soa(t).apply(&mut data);
        sa.soa_to_asta(t).apply(&mut data);
        sa.asta_to_aos(t).apply(&mut data);
        prop_assert_eq!(data, orig);
    }

    #[test]
    fn gkk_segments_agree_with_reference(
        (r, c) in (2usize..64, 2usize..64),
        threads in 1usize..9,
        s in 1usize..3,
    ) {
        let p = TransposePerm::new(r, c);
        let orig: Vec<u32> = (0..(r * c * s) as u32).collect();
        let mut want = vec![0u32; orig.len()];
        cycle_shift_oop(&orig, &mut want, &p, s);
        let buckets = ipt::baselines::plan_segments(&p, threads);
        let mut got = orig.clone();
        ipt::baselines::shift_segmented(&mut got, &p, s, &buckets);
        prop_assert_eq!(got, want);
    }
}

proptest! {
    // Device runs are slower; fewer cases.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn simulated_device_matches_reference((r, c, m, n) in shape_and_tile()) {
        use ipt::gpu::{plan_flag_words, transpose_on_device, GpuOptions};
        use ipt::obs::NoopRecorder;
        use ipt::sim::{DeviceSpec, Sim};
        let plan = StagePlan::three_stage(r, c, TileConfig::new(m, n)).unwrap();
        let dev = DeviceSpec::tesla_k20();
        let opts = GpuOptions::tuned_for(&dev);
        let mut sim = Sim::new(dev, r * c + plan_flag_words(&plan).max(1) + 64);
        let mut data = Matrix::iota(r, c).into_vec();
        // Internally asserts the result equals the reference permutation.
        let stats =
            transpose_on_device(&mut sim, &mut data, r, c, &plan, &opts, &NoopRecorder).unwrap();
        prop_assert!(stats.time_s() >= 0.0);
    }
}
