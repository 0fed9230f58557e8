//! Property: under any single injected fault, the recovering pipeline
//! either returns a verified-correct transposition or a typed
//! [`TransposeError`] — never a panic, never silent corruption.

use gpu_sim::{DeviceSpec, FaultKind, FaultPlan, Sim};
use ipt_core::stages::{StagePlan, TileConfig};
use ipt_core::Matrix;
use ipt_gpu::opts::GpuOptions;
use ipt_gpu::pipeline::plan_flag_words;
use ipt_gpu::recover::{transpose_with_recovery, RecoveryPolicy};
use proptest::prelude::*;

/// One recovering device-side run of the 3-stage pipeline on `rows×cols`
/// with `fault` armed. Returns whether it succeeded; on success the result
/// was verified element-exact against the reference (silent corruption
/// would surface here as a test failure).
fn run_recovering(
    rows: usize,
    cols: usize,
    tile: TileConfig,
    fault: FaultPlan,
    policy: &RecoveryPolicy,
) -> Result<(), String> {
    let plan = StagePlan::three_stage(rows, cols, tile).expect("tile divides");
    // 2× data room keeps the out-of-place fallback reachable.
    let mut sim = Sim::new(
        DeviceSpec::tesla_k20(),
        2 * rows * cols + plan_flag_words(&plan).max(1) + 64,
    );
    sim.set_fault_plan(fault);
    let opts = GpuOptions::tuned_for(sim.device());
    let mut data = Matrix::iota(rows, cols).into_vec();
    let want = Matrix::iota(rows, cols).transposed().into_vec();
    match transpose_with_recovery(&mut sim, &mut data, rows, cols, 1, &plan, &opts, policy) {
        Ok((_, report)) => {
            // The recovery layer claims verified output; check it really is.
            if data != want {
                return Err(format!(
                    "silent corruption: recovery reported success via {:?} but the \
                     result is wrong (faults: {:?})",
                    report.path, report.faults
                ));
            }
            Ok(())
        }
        // A typed error is an acceptable outcome; a panic is not (it would
        // abort the test).
        Err(e) => Err(format!("typed: {e}")),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random seeded faults (kind, trigger and payload all derived from
    /// the seed) against the default policy: with the fallback chain
    /// enabled, every single-fault run must come back verified-correct.
    #[test]
    fn any_seeded_fault_recovers(seed in 0u64..1_000_000_000) {
        let outcome = run_recovering(
            72,
            60,
            TileConfig::new(12, 10),
            FaultPlan::from_seed(seed),
            &RecoveryPolicy::default(),
        );
        // Default policy ends in the host-sequential path, which cannot
        // fail — so the outcome must be verified success.
        prop_assert!(outcome.is_ok(), "seed {seed}: {}", outcome.unwrap_err());
    }

    /// Exhaustive fault kinds at targeted trigger points, including a
    /// strict no-fallback policy: success must be verified, failure must
    /// be a typed error. Either way: no panic, no silent corruption.
    #[test]
    fn exact_fault_is_contained(
        kind_idx in 0usize..FaultKind::ALL.len(),
        trigger in 0u64..96,
        payload in 0u64..1_000_000,
        fallback in any::<bool>(),
    ) {
        let policy = RecoveryPolicy {
            max_stage_retries: 1,
            retry_backoff_s: 1e-4,
            allow_fallback: fallback,
            seed: 0,
        };
        let fault = FaultPlan::exact(1, FaultKind::ALL[kind_idx], trigger, payload);
        let outcome = run_recovering(48, 90, TileConfig::new(8, 9), fault, &policy);
        if let Err(msg) = &outcome {
            // Anything other than a typed TransposeError is a bug.
            prop_assert!(
                msg.starts_with("typed: "),
                "kind {kind_idx} trigger {trigger}: {msg}"
            );
            // Without fallback a typed error is legitimate; with the full
            // chain the host-sequential tail must have rescued the run.
            prop_assert!(
                !fallback,
                "fallback chain failed to rescue kind {kind_idx} trigger {trigger}: {msg}"
            );
        }
    }
}
