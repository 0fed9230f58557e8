//! # ipt-gpu — the paper's GPU kernels on the `gpu-sim` substrate
//!
//! Every kernel from *"In-Place Transposition of Rectangular Matrices on
//! Accelerators"* (PPoPP 2014), functionally executing and verified:
//!
//! * [`bs`] — the Barrier-Sync on-chip tile transposition (Figure 1),
//! * [`pttwac010`] — `010!` cycle following with local-memory flags and the
//!   §5.1 spreading/padding optimisations,
//! * [`pttwac100`] — `100!`-family super-element shifting with global
//!   coordination bits, in Sung/work-group, warp/local-tile and
//!   warp/register-tile variants (§5.2), plus the fused stage of the
//!   4-stage(+fusion) algorithm,
//! * [`c2r`] — the C2R decomposition's line passes (column rotate, row
//!   shuffle, column shuffle), the device scheme for prime shapes,
//! * [`pipt`] — the cycle-per-thread P-IPT comparator,
//! * [`oop`] — the out-of-place tiled baseline (Ruetsch/Micikevicius),
//! * [`opts`] — kernel options: flag layouts, `100!` variants, claim
//!   backoff, per-device tuned and conservative settings,
//! * [`pipeline`] — plan execution with per-stage kernel selection,
//! * [`recover`] — typed errors and the verified recovery chain (per-stage
//!   validation, conservative options, out-of-place, host),
//! * [`explore`] — schedule-exploration race harnesses for the claim
//!   protocols (bounded exhaustive + seeded PCT sweeps),
//! * [`host`] — the §6 virtual in-place transposition (synchronous and
//!   asynchronous with Q command queues), recovering by construction,
//! * [`autotune`] — §7.4 exhaustive / pruned tile search,
//! * [`multi`] — the multi-GPU scheme of the paper's future-work section,
//! * [`serve`] — a batched, plan-cached serving layer over all of the
//!   above (deadline-ordered bounded admission, same-shape coalescing,
//!   multi-device sharding, graceful degradation, warm-start snapshots,
//!   recovery-chain execution),
//! * [`fleet`] — a sharded serving fleet with shape-affinity routing,
//!   failover, and crash/warm-restart support,
//! * [`stream`] — out-of-core streaming of matrices larger than device
//!   memory, with a crash-consistent chunk journal.
//!
//! Every device entry point takes its [`ipt_obs::Recorder`] as an argument;
//! pass [`ipt_obs::NoopRecorder`] to record nothing at zero cost.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod autotune;
pub mod bs;
pub mod c2r;
pub mod explore;
pub mod fleet;
pub mod host;
pub mod multi;
pub mod oop;
pub mod opts;
pub mod pipeline;
pub mod pipt;
pub mod pttwac010;
pub mod pttwac100;
pub mod recover;
pub mod serve;
pub mod stream;

pub use autotune::{
    choose_c2r_wg, choose_tile, exhaustive_search, measure_tile, pruned_search, TileChoice,
    TilePoint, TuneLog,
};
pub use bs::BsKernel;
pub use c2r::{c2r_scratch_words, pass_layout, transpose_c2r_on_device, C2rLinePass, C2rPassKind};
pub use explore::{
    explore_case, pct_sweep, run_race_case, tiny_device, BrokenPttwac010, RaceTarget,
    SweepFailure, SweepOutcome,
};
pub use host::{run_host_async, run_host_oop, run_host_sync, HostReport};
pub use multi::{run_multi_gpu, LinkTopology, MultiReport};
pub use oop::OopTranspose;
pub use opts::{ClaimBackoff, FlagLayout, GpuOptions, Variant100};
pub use pipeline::{
    plan_flag_words, run_plan, run_stage, run_stage_rec, scale_plan_words, select_kernel,
    transpose_on_device, StageKernel, MAX_CYCLE_SCAN,
};
pub use recover::{
    host_transpose_elems, multiset_checksum, transpose_scheme_with_recovery,
    transpose_with_recovery, verify_exact, verify_exact_elems, RecoveryPath, RecoveryPolicy,
    RecoveryReport, TransposeError, VerifyError,
};
pub use fleet::{Fleet, FleetConfig, FleetRound};
pub use serve::{
    build_plan, CachedPlan, DegradeLevel, PlanCache, PlanKey, PreparedRound, PriorityClass,
    RoundReport, ServeConfig, ServeRequest, ServedResult, Server, SnapshotError,
    SNAPSHOT_VERSION,
};
pub use stream::{
    stream_transpose_rec, ChunkJournal, ChunkRecord, ChunkState, StreamChaos, StreamConfig,
    StreamPath, StreamReport,
};
pub use pipt::PiptKernel;
pub use pttwac010::Pttwac010;
pub use pttwac100::Pttwac100;
