//! Property: any oversized matrix round-trips bit-exactly through the
//! out-of-core streaming executor, with every journal chunk committed —
//! fault-free and under a single injected transfer fault alike.

use gpu_sim::{DeviceSpec, FaultKind, FaultPlan};
use ipt_gpu::recover::host_transpose_elems;
use ipt_gpu::stream::{stream_transpose_rec, StreamChaos, StreamConfig};
use ipt_obs::NoopRecorder;
use proptest::prelude::*;

fn payload(rows: usize, cols: usize, elem_words: usize, salt: u32) -> Vec<u32> {
    (0..(rows * cols * elem_words) as u32)
        .map(|x| x.wrapping_mul(2_654_435_761).wrapping_add(salt))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random shapes, element widths and budgets (all forcing multiple
    /// chunks), with one seeded transfer fault injected mid-stream: the
    /// result must be bit-identical to the host reference and the journal
    /// fully committed. `chaos_off` interleaves fault-free runs through
    /// the same shapes as a control.
    #[test]
    fn oversized_round_trips_under_single_transfer_fault(
        rows in 12usize..=40,
        cols in 8usize..=32,
        elem_words in 1usize..=2,
        budget_div in 3u64..=6,
        seed in 0u64..100_000,
        h2d in any::<bool>(),
        trigger in 0u64..8,
        chaos_off in any::<bool>(),
    ) {
        let dev = DeviceSpec::tesla_k20();
        let total = (rows * cols * elem_words) as u64;
        // Keep at least one full row per buffer so planning succeeds.
        let budget = (total / budget_div).max(2 * (cols * elem_words) as u64);
        let cfg = StreamConfig::new(&dev, budget);
        let data = payload(rows, cols, elem_words, seed as u32);
        let chaos = if chaos_off {
            StreamChaos::None
        } else {
            let kind = if h2d { FaultKind::FailH2D } else { FaultKind::FailD2H };
            StreamChaos::TransferOnce(FaultPlan::exact(seed, kind, trigger, seed))
        };
        let (out, rep) =
            stream_transpose_rec(&dev, &data, rows, cols, elem_words, &cfg, &chaos, &NoopRecorder)
                .expect("streaming with at most one transfer fault must succeed");
        prop_assert_eq!(&out, &host_transpose_elems(&data, rows, cols, elem_words));
        prop_assert!(rep.journal.all_committed(), "journal must be fully durable");
        if chaos_off {
            prop_assert_eq!(rep.transfer_faults, 0);
            prop_assert_eq!(rep.chunk_retries, 0);
        } else {
            // A single fault is absorbed by one chunk retry; it must never
            // walk the ladder past the overlapped rung.
            prop_assert!(rep.transfer_faults <= 1);
            prop_assert_eq!(rep.degradations, 0, "one fault must not degrade");
        }
    }
}
