//! Property: for random shapes and seeds, the seeded PCT scheduler and
//! the historic round-robin schedule produce *identical* transposed
//! matrices across the BS, `010!` and `100!` kernels — randomized
//! preemption perturbs the execution path, never the result.

use gpu_sim::{DeviceSpec, SchedPolicy, Sim};
use ipt_core::InstancedTranspose;
use ipt_gpu::bs::BsKernel;
use ipt_gpu::opts::{FlagLayout, Variant100};
use ipt_gpu::pttwac010::Pttwac010;
use ipt_gpu::pttwac100::Pttwac100;
use ipt_obs::NoopRecorder;
use proptest::prelude::*;

/// Which kernel family the equivalence run drives.
#[derive(Debug, Clone, Copy)]
enum Fam {
    Bs,
    P010,
    P100,
}

/// One verified execution of `fam` on `rows × cols` under `policy`.
/// Returns the transposed matrix.
fn run_under(fam: Fam, rows: usize, cols: usize, policy: SchedPolicy) -> Vec<u32> {
    let super_size = if matches!(fam, Fam::P100) { 2 } else { 1 };
    let op = InstancedTranspose::new(1, rows, cols, super_size);
    let flag_words = Pttwac100::flag_words(rows * cols);
    let mut sim = Sim::new(DeviceSpec::tesla_k20(), op.total_len() + flag_words + 8);
    sim.set_sched_policy(policy);
    let data = sim.alloc(op.total_len());
    sim.upload_u32(data, &(0..op.total_len() as u32).collect::<Vec<_>>());
    match fam {
        Fam::Bs => {
            let k = BsKernel { data, instances: 1, rows, cols, super_size, wg_size: 64 };
            sim.launch(&k, &NoopRecorder, 0.0).expect("bs launch");
        }
        Fam::P010 => {
            let k = Pttwac010 {
                data,
                instances: 1,
                rows,
                cols,
                wg_size: 64,
                flags: FlagLayout::Packed,
                backoff: None,
            };
            sim.launch(&k, &NoopRecorder, 0.0).expect("010 launch");
        }
        Fam::P100 => {
            let flags = sim.alloc(flag_words);
            sim.zero(flags);
            let k = Pttwac100 {
                data,
                flags,
                instances: 1,
                rows,
                cols,
                super_size,
                variant: Variant100::WarpLocalTile,
                wg_size: 256,
                fuse_tile: None,
                backoff: None,
            };
            sim.launch(&k, &NoopRecorder, 0.0).expect("100 launch");
        }
    }
    sim.download_u32(data)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn pct_and_round_robin_agree_on_every_kernel(
        rows in 2usize..20,
        cols in 2usize..20,
        seed in 0u64..1_000_000_000_000,
    ) {
        for fam in [Fam::Bs, Fam::P010, Fam::P100] {
            let rr = run_under(fam, rows, cols, SchedPolicy::RoundRobin);
            let pct = run_under(fam, rows, cols, SchedPolicy::Pct { seed, depth: 3 });
            prop_assert_eq!(
                &rr, &pct,
                "{:?} {}x{} diverged under pct(seed={})", fam, rows, cols, seed
            );
            // Both must also be the *correct* transposition, not merely
            // identically wrong.
            let s = if matches!(fam, Fam::P100) { 2 } else { 1 };
            let op = InstancedTranspose::new(1, rows, cols, s);
            let mut want: Vec<u32> = (0..op.total_len() as u32).collect();
            op.apply(&mut want);
            prop_assert_eq!(&rr, &want, "{:?} {}x{} incorrect", fam, rows, cols);
        }
    }
}
