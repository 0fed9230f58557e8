//! Property-based verification of every simulated kernel against the
//! reference permutation, over arbitrary shapes — the "no hand-picked
//! dimensions" guarantee for the device path.

use gpu_sim::{DeviceSpec, Sim};
use ipt_core::{InstancedTranspose, Matrix};
use ipt_gpu::bs::BsKernel;
use ipt_gpu::opts::{FlagLayout, GpuOptions, Variant100};
use ipt_gpu::pipeline::{plan_flag_words, transpose_on_device};
use ipt_gpu::pttwac010::Pttwac010;
use ipt_gpu::pttwac100::Pttwac100;
use ipt_core::stages::{StagePlan, TileConfig};
use proptest::prelude::*;

fn expected(op: &InstancedTranspose) -> Vec<u32> {
    let mut want: Vec<u32> = (0..op.total_len() as u32).collect();
    op.apply_seq(&mut want);
    want
}

/// Host C2R on `data`: the (sequential, parallel) results.
fn host_c2r<T: Copy + Send + Sync>(data: Vec<T>, rows: usize, cols: usize) -> (Vec<T>, Vec<T>) {
    let mut seq = data.clone();
    ipt_core::transpose_c2r_seq(&mut seq, rows, cols);
    let mut par = data;
    ipt_core::transpose_c2r_par(&mut par, rows, cols);
    (seq, par)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn bs_any_shape(
        inst in 1usize..6, rows in 1usize..24, cols in 1usize..24,
        s in 1usize..3, wg in prop::sample::select(vec![32usize, 64, 96, 256]),
    ) {
        prop_assume!(rows * cols * s <= 2048);
        let op = InstancedTranspose::new(inst, rows, cols, s);
        let mut sim = Sim::new(DeviceSpec::tesla_k20(), op.total_len() + 8);
        let buf = sim.alloc(op.total_len());
        sim.upload_u32(buf, &(0..op.total_len() as u32).collect::<Vec<_>>());
        let k = BsKernel { data: buf, instances: inst, rows, cols, super_size: s, wg_size: wg };
        sim.launch(&k).unwrap();
        prop_assert_eq!(sim.download_u32(buf), expected(&op));
    }

    #[test]
    fn pttwac010_any_shape_and_layout(
        inst in 1usize..5, rows in 2usize..32, cols in 2usize..64,
        factor in prop::sample::select(vec![1usize, 4, 8, 16, 32]),
        padded in any::<bool>(),
    ) {
        let op = InstancedTranspose::new(inst, rows, cols, 1);
        let flags = FlagLayout::for_factor(factor, padded);
        prop_assume!(flags.words_needed(rows * cols) * 4 <= 48 * 1024);
        let mut sim = Sim::new(DeviceSpec::tesla_k20(), op.total_len() + 8);
        let buf = sim.alloc(op.total_len());
        sim.upload_u32(buf, &(0..op.total_len() as u32).collect::<Vec<_>>());
        let k = Pttwac010 { data: buf, instances: inst, rows, cols, wg_size: 128, flags, backoff: None };
        sim.launch(&k).unwrap();
        prop_assert_eq!(sim.download_u32(buf), expected(&op));
    }

    #[test]
    fn pttwac100_any_shape_and_variant(
        inst in 1usize..4, rows in 2usize..16, cols in 2usize..16,
        s in 1usize..80,
        variant in prop::sample::select(vec![
            Variant100::SungWorkGroup,
            Variant100::WarpLocalTile,
            Variant100::Auto,
        ]),
    ) {
        let op = InstancedTranspose::new(inst, rows, cols, s);
        prop_assume!(op.total_len() <= 40_000);
        let dev = DeviceSpec::tesla_k20();
        // Sung's variant launches wg_size = s work-groups.
        prop_assume!(variant != Variant100::SungWorkGroup || s <= dev.max_threads_per_wg);
        let flag_words = Pttwac100::flag_words(inst * rows * cols);
        let mut sim = Sim::new(dev.clone(), op.total_len() + flag_words + 8);
        let data = sim.alloc(op.total_len());
        let flags = sim.alloc(flag_words);
        sim.upload_u32(data, &(0..op.total_len() as u32).collect::<Vec<_>>());
        sim.zero(flags);
        let k = Pttwac100 {
            data, flags, instances: inst, rows, cols, super_size: s,
            variant: variant.resolve(s, dev.simd_width), wg_size: 256, fuse_tile: None,
            backoff: None,
        };
        sim.launch(&k).unwrap();
        prop_assert_eq!(sim.download_u32(data), expected(&op));
    }

    #[test]
    fn full_pipeline_any_tiled_shape(
        mp in 1usize..5, np in 1usize..5, m in 1usize..10, n in 1usize..10,
    ) {
        let (rows, cols) = (mp * m, np * n);
        let plan3 = StagePlan::three_stage(rows, cols, TileConfig::new(m, n)).unwrap();
        let plan4 = StagePlan::four_stage_fused(rows, cols, TileConfig::new(m, n)).unwrap();
        let dev = DeviceSpec::tesla_k20();
        let opts = GpuOptions::tuned_for(&dev);
        for plan in [plan3, plan4] {
            let mut sim = Sim::new(dev.clone(), rows * cols + plan_flag_words(&plan) + 64);
            let mut data = Matrix::iota(rows, cols).into_vec();
            // Verifies internally against the reference permutation.
            transpose_on_device(&mut sim, &mut data, rows, cols, &plan, &opts).unwrap();
        }
    }

    /// The C2R device pipeline needs no coprimality assumption: it is
    /// total over every shape, and bit-identical to the host sequential
    /// reference.
    #[test]
    fn c2r_device_any_shape(
        rows in 1usize..80, cols in 1usize..80,
        wg in prop::sample::select(vec![64usize, 128, 256]),
    ) {
        let dev = DeviceSpec::tesla_k20();
        let scratch = ipt_gpu::c2r_scratch_words(&dev, rows, cols, wg);
        let mut sim = Sim::new(dev, rows * cols + scratch + 8);
        let buf = sim.alloc(rows * cols);
        let m = Matrix::iota(rows, cols);
        sim.upload_u32(buf, m.as_slice());
        ipt_gpu::transpose_c2r_on_device(&mut sim, buf, rows, cols, wg).unwrap();
        // Host sequential reference on the same payload.
        let mut host = m.as_slice().to_vec();
        ipt_core::transpose_c2r_seq(&mut host, rows, cols);
        prop_assert_eq!(&host, &m.transposed().into_vec(), "host reference");
        prop_assert_eq!(sim.download_u32(buf), host, "device ≡ host");
    }

    /// Host parallel ≡ host sequential ≡ naive reference for C2R across
    /// arbitrary shapes and 1–2-word elements, both through the generic
    /// functions (`u32` and `[u32; 2]` elements).
    #[test]
    fn c2r_host_paths_agree_for_wide_elements(
        rows in 1usize..48, cols in 1usize..48, elem_words in 1usize..3,
    ) {
        let n = rows * cols * elem_words;
        let payload: Vec<u32> = (0..n as u32).map(|x| x.wrapping_mul(2_654_435_761)).collect();
        let mut want = vec![0u32; n];
        for r in 0..rows {
            for c in 0..cols {
                for w in 0..elem_words {
                    want[(c * rows + r) * elem_words + w] =
                        payload[(r * cols + c) * elem_words + w];
                }
            }
        }
        let (seq, par) = if elem_words == 1 {
            host_c2r(payload, rows, cols)
        } else {
            let pairs: Vec<[u32; 2]> = payload.chunks_exact(2).map(|p| [p[0], p[1]]).collect();
            let (seq, par) = host_c2r(pairs, rows, cols);
            (seq.concat(), par.concat())
        };
        prop_assert_eq!(&seq, &want, "sequential");
        prop_assert_eq!(&par, &want, "parallel ≡ reference");
    }

    /// The scheme-level recovery chain on a C2R decision is exact for both
    /// element widths: word elements run the device kernels, wide elements
    /// the verified host path.
    #[test]
    fn c2r_recovery_chain_any_shape_and_width(
        rows in 1usize..40, cols in 1usize..40, elem_words in 1usize..3,
    ) {
        use ipt_core::{FallbackReason, PlanDecision, Scheme};
        let d = PlanDecision {
            scheme: Scheme::C2R,
            reason: FallbackReason::NoFeasibleTile { rows, cols },
            tile: None,
        };
        let n = rows * cols * elem_words;
        let dev = DeviceSpec::tesla_k20();
        let mut sim = Sim::new(dev.clone(), 2 * n + 64);
        let opts = GpuOptions::tuned_for(&dev);
        let mut data: Vec<u32> = (0..n as u32).collect();
        let original = data.clone();
        let (_, report) = ipt_gpu::recover::transpose_scheme_with_recovery(
            &mut sim, &mut data, rows, cols, elem_words, &d, &opts,
            &ipt_gpu::RecoveryPolicy::default(),
        ).unwrap();
        prop_assert_eq!(
            &data,
            &ipt_gpu::host_transpose_elems(&original, rows, cols, elem_words)
        );
        if elem_words == 1 {
            prop_assert_eq!(report.path, ipt_gpu::RecoveryPath::Primary);
        } else {
            prop_assert_eq!(report.path, ipt_gpu::RecoveryPath::HostSequential);
        }
    }
}
