//! Schedule exploration and chaos campaigns against the claim protocols:
//! bounded exhaustive interleaving of small tiles, a planted TOCTOU bug
//! the explorer must catch, a pinned adversarial schedule exercising the
//! `100!` claim-conflict path, and a seeded 200-run chaos campaign that
//! the recovery fallback chain must survive — including watchdog-induced
//! [`TransposeError::Stalled`] trips.
//!
//! [`TransposeError::Stalled`]: ipt_gpu::recover::TransposeError::Stalled

use gpu_sim::sched::{mix64, ExploreConfig, TraceScheduler, Watchdog};
use gpu_sim::{ChaosConfig, ChaosPlan, DeviceSpec, SchedPolicy, Sim};
use ipt_core::stages::{StagePlan, TileConfig};
use ipt_core::Matrix;
use ipt_gpu::opts::{ClaimBackoff, GpuOptions};
use ipt_gpu::pipeline::plan_flag_words;
use ipt_gpu::recover::{transpose_with_recovery, RecoveryPolicy};
use ipt_gpu::{explore_case, run_race_case, tiny_device, RaceTarget};

/// Acceptance case: bounded exhaustive exploration of a 4×6 tile with a
/// preemption budget of 3 — every explored interleaving of the `010!`
/// claim protocol must produce the correct transposition.
#[test]
fn exhaustive_010_small_tile_passes() {
    let cfg = ExploreConfig { preemption_budget: 3, max_schedules: 700, max_failures: 4 };
    let out = explore_case(&tiny_device(), RaceTarget::P010, 4, 6, 8, &cfg);
    assert!(
        out.all_passed(),
        "explorer found {} failing schedules, first: {:?}",
        out.failures.len(),
        out.failures.first()
    );
    assert!(out.explored > 50, "only {} schedules explored — space too small", out.explored);
}

/// Same acceptance case for the `100!` global-flag protocol.
#[test]
fn exhaustive_100_small_tile_passes() {
    let cfg = ExploreConfig { preemption_budget: 3, max_schedules: 700, max_failures: 4 };
    let out = explore_case(&tiny_device(), RaceTarget::P100, 4, 6, 4, &cfg);
    assert!(
        out.all_passed(),
        "explorer found {} failing schedules, first: {:?}",
        out.failures.len(),
        out.failures.first()
    );
    assert!(out.explored > 50, "only {} schedules explored — space too small", out.explored);
}

/// The planted bug: a flag-update variant whose claim is split across two
/// scheduling slices. The explorer must find an interleaving that lands in
/// the TOCTOU window and corrupts the result — and minimize it.
#[test]
fn explorer_catches_broken_flag_update() {
    let cfg = ExploreConfig { preemption_budget: 3, max_schedules: 2000, max_failures: 2 };
    let out = explore_case(&tiny_device(), RaceTarget::Broken010, 3, 2, 8, &cfg);
    assert!(
        !out.all_passed(),
        "the split-claim TOCTOU bug must be caught ({} schedules explored)",
        out.explored
    );
    let f = &out.failures[0];
    assert!(f.detail.contains("corrupt") || f.detail.contains("launch failed"), "{}", f.detail);
    assert!(!f.trace.is_empty(), "the default serial schedule passes; a deviation is required");
    assert!(f.preemptions <= 3, "minimized schedule used {} preemptions", f.preemptions);
}

/// Pinned adversarial schedule: a hand-built preemption trace that forces
/// the resident `100!` chain drivers to interleave at every round, driving
/// them into flag-claim conflicts. The run must stay correct end to end
/// and must actually exercise the claim-conflict path (retries observed).
#[test]
fn pinned_adversarial_schedule_exercises_100_claim_conflicts() {
    // Rotate among the (up to 3) resident warps each round: warp A claims
    // a chain, warp B immediately probes the same cycle, and so on.
    let trace: Vec<usize> = (0..2048).map(|i| i % 3).collect();
    let mut ts = TraceScheduler::new(&trace);
    let stats = run_race_case(&tiny_device(), RaceTarget::P100, 4, 6, 4, &mut ts)
        .expect("adversarial interleaving must still transpose correctly");
    assert!(
        stats.claim_retries >= 1,
        "the pinned trace was supposed to provoke claim conflicts (got {})",
        stats.claim_retries
    );
}

/// The same pinned schedule replayed twice is bit-identical — the
/// foundation every failure artifact in CI relies on.
#[test]
fn pinned_schedule_replays_deterministically() {
    let trace: Vec<usize> = (0..512).map(|i| i % 3).collect();
    let run = || {
        let mut ts = TraceScheduler::new(&trace);
        let stats = run_race_case(&tiny_device(), RaceTarget::P100, 4, 6, 4, &mut ts)
            .expect("pinned schedule");
        (stats.claim_retries, stats.time_s.to_bits(), ts.into_decisions().len())
    };
    assert_eq!(run(), run());
}

/// Acceptance case: a seeded 200-run chaos campaign against the recovering
/// pipeline. Every run arms a sustained [`ChaosPlan`], PCT scheduling, a
/// claim backoff, and a watchdog — every 4th run a deliberately strangling
/// one, so the primary path dies with [`Stalled`] and the fallback chain
/// must rescue it. All 200 runs must come back verified-correct, and at
/// least one must have recovered from a watchdog stall.
///
/// [`Stalled`]: ipt_gpu::recover::TransposeError::Stalled
#[test]
fn chaos_campaign_200_runs_all_recover() {
    let (rows, cols) = (36, 30);
    let tile = TileConfig::new(6, 5);
    let plan = StagePlan::three_stage(rows, cols, tile).expect("tile divides");
    let campaign_seed = 0xC0FF_EE77_u64;

    let mut stalled_recovered = 0usize;
    let mut faults_fired = 0usize;
    let mut fallbacks = 0usize;
    for i in 0..200u64 {
        let seed = mix64(campaign_seed, i);
        let mut sim = Sim::new(
            DeviceSpec::tesla_k20(),
            2 * rows * cols + plan_flag_words(&plan).max(1) + 64,
        );
        sim.set_chaos_plan(ChaosPlan::new(seed, ChaosConfig::mild()));
        sim.set_sched_policy(SchedPolicy::Pct { seed, depth: 3 });
        // Every 4th run the watchdog budget is far below what any stage
        // needs: the primary path (and the device-side fallbacks) stall,
        // and only the host-sequential tail can finish the job.
        sim.set_watchdog(Some(if i % 4 == 0 {
            Watchdog::new(6, 500_000)
        } else {
            Watchdog::new(50_000, 5_000_000)
        }));
        let opts = GpuOptions::tuned_for(sim.device()).with_backoff(ClaimBackoff::mild(seed));
        let policy = RecoveryPolicy {
            max_stage_retries: 1,
            retry_backoff_s: 1e-4,
            allow_fallback: true,
            seed,
        };
        let mut data = Matrix::iota(rows, cols).into_vec();
        let want = Matrix::iota(rows, cols).transposed().into_vec();
        let (_, report) =
            transpose_with_recovery(&mut sim, &mut data, rows, cols, 1, &plan, &opts, &policy)
                .unwrap_or_else(|e| panic!("campaign run {i} (seed {seed}) died: {e}"));
        assert_eq!(data, want, "campaign run {i} (seed {seed}) silently corrupted the result");
        if report.primary_error.as_deref().is_some_and(|e| e.contains("stalled")) {
            stalled_recovered += 1;
        }
        if report.primary_error.is_some() {
            fallbacks += 1;
        }
        faults_fired += usize::from(!report.faults.is_empty());
    }
    assert!(
        stalled_recovered >= 1,
        "no watchdog-induced stall was recovered across the campaign \
         ({fallbacks} fallbacks, {faults_fired} runs with faults)"
    );
    assert!(
        faults_fired >= 1,
        "the chaos campaign never injected a fault — rates or plumbing broken"
    );
}
