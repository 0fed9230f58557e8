//! Batched, plan-cached transposition serving layer.
//!
//! A long-lived [`Server`] accepts a stream of transpose requests
//! ([`ServeRequest`]), memoizes planning + autotuning work in a
//! [`PlanCache`] keyed by `(rows, cols, elem_bytes, device, scheme)`, and
//! coalesces same-shape requests into batched launches (at most 8
//! requests each) sharded across the
//! multi-device DES machinery of [`crate::multi`]. Several servers compose
//! into the sharded fleet of [`crate::fleet`].
//!
//! ## Admission: bounded, deadline-ordered
//!
//! Every request carries a [`PriorityClass`]; at submit time the class's
//! SLO budget becomes an absolute deadline on the server's simulated clock,
//! and rounds drain the backlog in earliest-deadline-first (EDF) order
//! rather than FIFO. Admission stays bounded: past `queue_capacity` pending
//! requests, [`Server::submit`] refuses with
//! [`TransposeError::Backpressure`], whose `retry_after_s` hint is an EWMA
//! of observed per-request service time scaled by the backlog depth.
//!
//! ## Graceful degradation
//!
//! When a round drains a backlog past the configured overload fractions,
//! the latest-deadline requests degrade instead of failing: first to the
//! conservative kernel options of the recovery chain's
//! `ConservativeOptions` rung ([`DegradeLevel::Conservative`], counted as
//! `plans_degraded`), then to a host-computed result that never launches on
//! a device ([`DegradeLevel::HostShed`], counted as `requests_shed`).
//! Degradation changes service quality, never correctness: every path
//! returns the exact transposition.
//!
//! ## Warm-start persistence
//!
//! [`Server::snapshot_json`] serializes the plan cache as a versioned
//! snapshot ([`SNAPSHOT_VERSION`]); [`Server::restore_snapshot`] rebuilds
//! the cached decisions on a fresh server (counted as `snapshot_restores`).
//! Corrupt, stale-version, or wrong-device snapshots are rejected with a
//! typed [`SnapshotError`] and the server starts cold — a bad snapshot can
//! never poison serving. Restored plans are bit-identical to freshly built
//! ones because planning is deterministic and the snapshot stores the
//! *decision* (scheme, reason, tile), not the search.
//!
//! ## Timing-only replay for soak scale
//!
//! Simulated kernel timing depends on the plan and shape, never on element
//! values, so a million-request soak does not need a million full warp-level
//! simulations. With [`ServeConfig::profile_replay`] on, the first execution
//! of each `(plan key, degrade level)` records a service profile; repeats
//! reuse the profiled timing for the DES batch composition and compute the
//! payload on the host, while every `full_exec_every`-th repeat still runs
//! the full verified device path as a bit-exactness sample.
//!
//! Every full-path request still flows through the verified recovery chain
//! ([`crate::recover::transpose_scheme_with_recovery`]) — the cache
//! memoizes *plans*, never results — and the whole layer is traced through
//! [`ipt_obs`].

use crate::autotune::{choose_c2r_wg, choose_tile, TuneLog};
use crate::multi::LinkTopology;
use crate::opts::GpuOptions;
use crate::pipeline::plan_flag_words;
use crate::recover::{
    host_transpose_elems, transpose_scheme_with_recovery_rec, RecoveryPath, RecoveryPolicy,
    RecoveryReport, TransposeError,
};
use gpu_sim::sched::mix64;
use gpu_sim::{simulate, Cmd, DeviceSpec, EngineMode, Sim, Timeline};
use ipt_core::stages::{StagePlan, TileConfig};
use ipt_core::tiles::TileHeuristic;
use ipt_core::{decide_scheme, FallbackReason, PlanDecision, Scheme};
use ipt_obs::{Counter, Level, Recorder, SpanCtx};
use serde::Serialize;
use std::collections::HashMap;
use std::sync::Arc;

/// Salt mixed into every request trace id, so trace ids cannot collide
/// with raw request ids in log output.
const TRACE_SALT: u64 = 0x7261_6365_5f69_6474; // "race_idt"

/// Span id of a request's root span within its trace.
pub const ROOT_SPAN: u64 = 1;
/// Span id of the fleet routing span (rendezvous pick + failover).
pub const ROUTE_SPAN: u64 = 2;
/// Span id of the admission-queue wait span.
pub const QUEUE_SPAN: u64 = 3;
/// Span id of the execution span (device batch or host shed).
pub const EXEC_SPAN: u64 = 4;

/// Most same-shape requests coalesced into one batched launch.
const MAX_BATCH: usize = 8;

/// Deterministic trace id for a request id: a SplitMix64 hash, so ids are
/// well-spread in hex output yet reproducible across runs and engines.
#[must_use]
pub fn trace_id(req_id: u64) -> u64 {
    mix64(req_id, TRACE_SALT)
}

/// Plan-cache key: everything a cached plan depends on. Two requests with
/// equal keys are guaranteed to plan identically (planning is
/// deterministic), so sharing the cached plan cannot change results.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// Matrix rows.
    pub rows: usize,
    /// Matrix cols.
    pub cols: usize,
    /// Element width in bytes (4 or 8).
    pub elem_bytes: usize,
    /// Simulated device name the tune ran on.
    pub device: &'static str,
    /// Scheme the planner selected (part of the key so a heuristic change
    /// that re-routes a shape can never alias a stale entry).
    pub scheme: Scheme,
}

/// One memoized planning outcome: the scheme decision, the autotune log
/// that produced the tile (when the scheme is tiled), and the staged plan
/// ready to execute.
#[derive(Debug, Clone)]
pub struct CachedPlan {
    /// The (possibly tuned) scheme decision.
    pub decision: PlanDecision,
    /// What the autotune search did — `TuneLog::default()` for schemes
    /// that need no tuning (identity) and for snapshot-restored
    /// plans (the snapshot archives the decision, not the search).
    pub tune: TuneLog,
    /// The executable plan, `None` for identity / c2r schemes.
    pub plan: Option<StagePlan>,
    /// Tuned work-group size — `Some` only for [`Scheme::C2R`] plans,
    /// where the wg sweep replaces the tile search; execution overrides
    /// [`GpuOptions::wg_size`] with it.
    pub wg_size: Option<usize>,
}

/// Memoization of [`CachedPlan`]s with hit/miss accounting, owned and
/// driven by one [`Server`].
#[derive(Debug, Default)]
pub struct PlanCache {
    map: HashMap<PlanKey, Arc<CachedPlan>>,
    misses: u64,
    hits: u64,
}

impl PlanCache {
    /// Fresh empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Look up `key`, building and inserting via `build` on a miss.
    /// Returns the plan and whether this was a hit.
    pub fn get_or_build(
        &mut self,
        key: &PlanKey,
        build: impl FnOnce() -> CachedPlan,
    ) -> (Arc<CachedPlan>, bool) {
        if let Some(hit) = self.map.get(key) {
            self.hits += 1;
            return (Arc::clone(hit), true);
        }
        self.misses += 1;
        let built = Arc::new(build());
        self.map.insert(key.clone(), Arc::clone(&built));
        (built, false)
    }

    /// Insert a prebuilt plan (snapshot restore). Counts as neither hit nor
    /// miss: the work happened in a previous process lifetime.
    pub fn insert(&mut self, key: PlanKey, plan: CachedPlan) {
        self.map.insert(key, Arc::new(plan));
    }

    /// All cached entries, unordered.
    #[must_use]
    pub fn entries(&self) -> Vec<(PlanKey, Arc<CachedPlan>)> {
        self.map.iter().map(|(k, v)| (k.clone(), Arc::clone(v))).collect()
    }

    /// Distinct cached keys.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cache hits so far.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses (= plans built) so far.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit rate in `[0, 1]` (0 when nothing was looked up).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let (h, m) = (self.hits() as f64, self.misses() as f64);
        if h + m == 0.0 { 0.0 } else { h / (h + m) }
    }
}

/// Build the plan for one key: scheme decision, then — for the staged
/// scheme — the §7.4 pruned autotune search (the expensive part the cache
/// amortizes). Deterministic and total: every shape gets a plan decision,
/// prime shapes route to the C2R or gcd-tile fallbacks instead of panicking.
#[must_use]
pub fn build_plan<R: Recorder>(
    dev: &DeviceSpec,
    rows: usize,
    cols: usize,
    heuristic: &TileHeuristic,
    opts: &GpuOptions,
    rec: &R,
) -> CachedPlan {
    let mut decision = decide_scheme(rows, cols, heuristic);
    let mut tune = TuneLog::default();
    let mut wg_size = None;
    if decision.scheme == Scheme::Staged {
        let (tile, log) = choose_tile(dev, rows, cols, heuristic, opts, rec);
        tune = log;
        if tile.is_some() {
            decision.tile = tile;
        }
    } else if decision.scheme == Scheme::C2R {
        // C2R has no tile to tune; its knob is the work-group size.
        let (wg, log) = choose_c2r_wg(dev, rows, cols, rec);
        tune = log;
        wg_size = Some(wg);
    }
    let plan = decision.staged_plan(rows, cols);
    CachedPlan { decision, tune, plan, wg_size }
}

/// Per-request service class. The class's SLO budget becomes an absolute
/// deadline at submit time; rounds drain earliest-deadline-first, and under
/// overload the latest deadlines degrade first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PriorityClass {
    /// Latency-sensitive traffic: tightest deadline, degraded last.
    Interactive,
    /// Normal traffic — the default class.
    Batch,
    /// Deadline-tolerant backfill: first to degrade or shed.
    Background,
}

impl PriorityClass {
    /// SLO budget, simulated seconds from admission to completion. Added to
    /// the server clock at submit time to form the EDF deadline.
    #[must_use]
    pub fn deadline_budget_s(self) -> f64 {
        match self {
            PriorityClass::Interactive => 1e-3,
            PriorityClass::Batch => 1e-2,
            PriorityClass::Background => 1e-1,
        }
    }

    /// Stable display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            PriorityClass::Interactive => "interactive",
            PriorityClass::Batch => "batch",
            PriorityClass::Background => "background",
        }
    }

    /// Dense index (0..3) for per-class telemetry arrays.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            PriorityClass::Interactive => 0,
            PriorityClass::Batch => 1,
            PriorityClass::Background => 2,
        }
    }

    /// Latency-histogram scope for this class.
    #[must_use]
    pub fn scope(self) -> &'static str {
        match self {
            PriorityClass::Interactive => "class:interactive",
            PriorityClass::Batch => "class:batch",
            PriorityClass::Background => "class:background",
        }
    }
}

/// How much service quality one request gave up under overload. Ordered:
/// later variants are deeper degradation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DegradeLevel {
    /// Full service: the tuned plan with tuned kernel options.
    Tuned,
    /// The same plan under [`GpuOptions::baseline_for`] — the recovery
    /// chain's conservative rung, taken pre-emptively under overload.
    Conservative,
    /// Served on the host without a device launch: correct, but sheds all
    /// device throughput for this request.
    HostShed,
}

impl DegradeLevel {
    /// Stable display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            DegradeLevel::Tuned => "tuned",
            DegradeLevel::Conservative => "conservative",
            DegradeLevel::HostShed => "host-shed",
        }
    }
}

/// One transposition request.
#[derive(Debug, Clone)]
pub struct ServeRequest {
    /// Caller-chosen request id, echoed in the result.
    pub id: u64,
    /// Matrix rows.
    pub rows: usize,
    /// Matrix cols.
    pub cols: usize,
    /// Element width in bytes: 4 (f32/u32) or 8 (f64 as two words).
    pub elem_bytes: usize,
    /// Service class (EDF deadline and degradation order).
    pub priority: PriorityClass,
    /// Row-major payload, packed as 32-bit words
    /// (`rows * cols * elem_bytes / 4` of them).
    pub data: Vec<u32>,
}

/// One served result.
#[derive(Debug, Clone)]
pub struct ServedResult {
    /// Echo of [`ServeRequest::id`].
    pub id: u64,
    /// Transposed payload (same packing as the request).
    pub data: Vec<u32>,
    /// Scheme the plan used.
    pub scheme: Scheme,
    /// Whether planning was served from cache.
    pub cache_hit: bool,
    /// Device index the batch ran on (0 for host-shed requests, which
    /// never launch).
    pub device: usize,
    /// Echo of [`ServeRequest::priority`].
    pub priority: PriorityClass,
    /// Service quality this request actually received.
    pub degrade: DegradeLevel,
    /// Recovery report from the execution chain.
    pub recovery: RecoveryReport,
    /// Simulated seconds this request's batch waited for its engines.
    pub queue_wait_s: f64,
    /// Simulated device-side seconds this request's kernels took
    /// (0 for the identity short-circuit and host-shed requests).
    pub service_s: f64,
    /// Execution provenance: `"serial"` / `"parallel"` for full simulated
    /// runs, `"profiled"` for timing-replay, `"host"` for shed requests.
    pub engine: &'static str,
}

/// Serving-layer configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Admission bound: pending requests past this refuse with
    /// [`TransposeError::Backpressure`].
    pub queue_capacity: usize,
    /// Simulated device count the batches shard across.
    pub devices: usize,
    /// PCIe topology of the device set.
    pub link: LinkTopology,
    /// Tile heuristic driving scheme decisions and the pruned search.
    pub heuristic: TileHeuristic,
    /// Kernel options (claim protocol, work-group sizes).
    pub opts: GpuOptions,
    /// Recovery policy every request executes under.
    pub policy: RecoveryPolicy,
    /// `false` disables memoization: every request replans (and re-tunes)
    /// from scratch — the honest per-request baseline `repro serve`
    /// compares against.
    pub cache_plans: bool,
    /// Backlog fraction of `queue_capacity` past which drained requests
    /// (latest deadlines first) run with conservative options. `1.0`
    /// disables the rung (single-server default; the fleet enables it).
    pub degrade_at: f64,
    /// Backlog fraction past which drained requests are shed to the host
    /// path. `1.0` disables the rung. Must be ≥ `degrade_at`.
    pub shed_at: f64,
    /// Memoize per-`(plan key, degrade level)` service profiles and replay
    /// timing for repeats (host-computed payload, DES time from the
    /// profile). Off by default: every request runs the full device path.
    pub profile_replay: bool,
    /// With `profile_replay`: run the full verified device path anyway on
    /// every N-th profile-eligible request, as a continuous bit-exactness
    /// sample. `0` never resamples.
    pub full_exec_every: usize,
}

impl ServeConfig {
    /// Sensible defaults for `dev`: 64-deep admission queue, two devices
    /// behind a shared link, caching on, degradation rungs and profile
    /// replay off.
    #[must_use]
    pub fn new(dev: &DeviceSpec) -> Self {
        Self {
            queue_capacity: 64,
            devices: 2,
            link: LinkTopology::Shared,
            heuristic: TileHeuristic { preferred_lo: 10, ..TileHeuristic::default() },
            opts: GpuOptions::tuned_for(dev),
            policy: RecoveryPolicy::default(),
            cache_plans: true,
            degrade_at: 1.0,
            shed_at: 1.0,
            profile_replay: false,
            full_exec_every: 0,
        }
    }
}

/// Summary of one [`Server::process_round`] call.
#[derive(Debug, Clone)]
pub struct RoundReport {
    /// Results, shed requests first, then completion order (batch DES
    /// order).
    pub results: Vec<ServedResult>,
    /// Batched launches this round (identity and shed requests never
    /// launch).
    pub batches: usize,
    /// Mean requests per launched batch (0.0 when nothing launched).
    pub mean_occupancy: f64,
    /// Simulated end-to-end seconds of the round's DES timeline.
    pub sim_total_s: f64,
    /// DES timeline of the round's launches.
    pub timeline: Timeline,
}

/// A drained, executed round awaiting its DES timing: the half-open state
/// between [`Server::prepare_round`] and [`Server::finish_round`], timed
/// by [`Server::simulate_round`]. The fleet uses the split to simulate
/// every shard's round before it finishes any; single servers use
/// [`Server::process_round`].
pub struct PreparedRound {
    results: Vec<ServedResult>,
    /// Absolute admission time of each result, parallel to `results` —
    /// the root of each request's trace span starts here.
    result_arrivals_s: Vec<f64>,
    /// DES command queues, one per launched batch.
    queues: Vec<Vec<Cmd>>,
    /// Per-queue arrival times (seconds relative to the round start).
    arrivals: Vec<f64>,
    /// (DES queue index, result indices) per launched batch.
    launched: Vec<(usize, Vec<usize>)>,
    batched_requests: u64,
}

/// Plan-cache snapshot format version. Bump on breaking layout changes;
/// [`Server::restore_snapshot`] refuses other versions. v2 added the
/// `c2r` scheme and its per-entry `wg_size` — v1 snapshots predate the
/// scheme and are refused as stale rather than restored into plans that
/// would silently miss the tuned launch configuration.
pub const SNAPSHOT_VERSION: u64 = 2;

/// Why a snapshot was rejected. A rejected snapshot is discarded and the
/// server stays cold — never poisoned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The payload is not a well-formed snapshot (bad JSON, missing or
    /// out-of-range fields, unknown scheme/reason names).
    Malformed {
        /// What failed to parse.
        what: String,
    },
    /// The snapshot's format version is not [`SNAPSHOT_VERSION`].
    StaleVersion {
        /// The version found, `None` when absent.
        found: Option<u64>,
    },
    /// The snapshot was taken on a different simulated device; its tuned
    /// plans do not transfer.
    DeviceMismatch {
        /// Device named by the snapshot.
        found: String,
        /// Device this server simulates.
        want: String,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Malformed { what } => write!(f, "malformed snapshot: {what}"),
            SnapshotError::StaleVersion { found } => write!(
                f,
                "snapshot version {found:?} is not the supported {SNAPSHOT_VERSION}"
            ),
            SnapshotError::DeviceMismatch { found, want } => {
                write!(f, "snapshot was taken on {found:?}, this server simulates {want:?}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// One archived plan-cache entry. The snapshot stores the planning
/// *decision* — scheme, reason discriminant, tile — not the autotune
/// search; planning is deterministic, so the decision alone reproduces
/// bit-identical serving.
#[derive(Debug, Clone, Serialize)]
struct SnapshotEntry {
    rows: usize,
    cols: usize,
    elem_bytes: usize,
    scheme: &'static str,
    reason: &'static str,
    tile_m: Option<usize>,
    tile_n: Option<usize>,
    wg_size: Option<usize>,
}

#[derive(Debug, Clone, Serialize)]
struct Snapshot {
    snapshot_version: u64,
    device: String,
    entries: Vec<SnapshotEntry>,
}

fn reason_name(reason: &FallbackReason) -> &'static str {
    match reason {
        FallbackReason::Preferred => "preferred",
        FallbackReason::TrivialMatrix => "trivial-matrix",
        FallbackReason::DegenerateRow => "degenerate-row",
        FallbackReason::DegenerateCol => "degenerate-col",
        FallbackReason::SquareShape => "square-shape",
        FallbackReason::NoFeasibleTile { .. } => "no-feasible-tile",
    }
}

fn reason_by_name(name: &str, rows: usize, cols: usize) -> Option<FallbackReason> {
    match name {
        "preferred" => Some(FallbackReason::Preferred),
        "trivial-matrix" => Some(FallbackReason::TrivialMatrix),
        "degenerate-row" => Some(FallbackReason::DegenerateRow),
        "degenerate-col" => Some(FallbackReason::DegenerateCol),
        "square-shape" => Some(FallbackReason::SquareShape),
        "no-feasible-tile" => Some(FallbackReason::NoFeasibleTile { rows, cols }),
        _ => None,
    }
}

/// One admitted, not yet drained request.
struct Pending {
    req: ServeRequest,
    arrival_s: f64,
    deadline_s: f64,
}

/// The batched, plan-cached transposition service.
///
/// Single-threaded driver over its own [`PlanCache`]; requests are
/// admitted with [`Server::submit`] (bounded, EDF-ordered) and executed in
/// rounds with [`Server::process_round`], which batches same-shape requests
/// and shards the batches round-robin across the configured simulated
/// devices.
pub struct Server {
    dev: DeviceSpec,
    cfg: ServeConfig,
    cache: PlanCache,
    pending: Vec<Pending>,
    clock_s: f64,
    next_device: usize,
    /// EWMA of simulated service seconds per drained request, feeding the
    /// backpressure `retry_after_s` hint. 0 until the first round.
    ewma_service_s: f64,
    /// Memoized simulated kernel seconds per `(plan key, degrade level)`.
    profiles: HashMap<(PlanKey, DegradeLevel), f64>,
    replays_since_full: usize,
    full_execs: u64,
    profiled_replays: u64,
}

impl Server {
    /// New server over `devices` simulated copies of `dev`.
    #[must_use]
    pub fn new(dev: DeviceSpec, cfg: ServeConfig) -> Self {
        Self {
            dev,
            cfg,
            cache: PlanCache::new(),
            pending: Vec::new(),
            clock_s: 0.0,
            next_device: 0,
            ewma_service_s: 0.0,
            profiles: HashMap::new(),
            replays_since_full: 0,
            full_execs: 0,
            profiled_replays: 0,
        }
    }

    /// The plan cache (hit/miss inspection).
    #[must_use]
    pub fn cache(&self) -> &PlanCache {
        &self.cache
    }

    /// The serving configuration.
    #[must_use]
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// The simulated device this server runs on.
    #[must_use]
    pub fn device(&self) -> &DeviceSpec {
        &self.dev
    }

    /// Server clock: simulated seconds of service so far.
    #[must_use]
    pub fn clock_s(&self) -> f64 {
        self.clock_s
    }

    /// Pending (admitted, not yet processed) request count.
    #[must_use]
    pub fn backlog(&self) -> usize {
        self.pending.len()
    }

    /// DES engine count of this server's device group.
    #[must_use]
    pub fn num_engines(&self) -> usize {
        self.cfg.link.num_engines(self.cfg.devices)
    }

    /// Full verified device executions so far (profile replay diagnostics).
    #[must_use]
    pub fn full_execs(&self) -> u64 {
        self.full_execs
    }

    /// Timing-replayed requests so far (profile replay diagnostics).
    #[must_use]
    pub fn profiled_replays(&self) -> u64 {
        self.profiled_replays
    }

    /// Remove and return every pending request (crash handover: the fleet
    /// resubmits them to surviving shards).
    pub fn drain_pending(&mut self) -> Vec<ServeRequest> {
        self.pending.drain(..).map(|p| p.req).collect()
    }

    /// Admit one request, stamping its EDF deadline from the priority
    /// class's SLO budget.
    ///
    /// # Errors
    ///
    /// [`TransposeError::Backpressure`] when the admission queue is full —
    /// the caller should `process_round` (or drop load) and retry after
    /// the hinted delay. [`TransposeError::InvalidConfig`] for unsupported
    /// element widths or a payload that disagrees with the declared shape.
    pub fn submit<R: Recorder>(
        &mut self,
        req: ServeRequest,
        rec: &R,
    ) -> Result<(), TransposeError> {
        if self.pending.len() >= self.cfg.queue_capacity {
            rec.add("serve", Counter::AdmissionRejections, 1);
            return Err(TransposeError::Backpressure {
                capacity: self.cfg.queue_capacity,
                retry_after_s: self.retry_after_s(),
            });
        }
        if req.elem_bytes != 4 && req.elem_bytes != 8 {
            return Err(TransposeError::InvalidConfig {
                what: format!("unsupported elem_bytes {} (want 4 or 8)", req.elem_bytes),
            });
        }
        let words = ipt_core::check::checked_bytes(req.rows, req.cols, req.elem_bytes)
            .map(|b| b / 4)
            .and_then(|w| usize::try_from(w).ok())
            .ok_or_else(|| TransposeError::InvalidConfig {
                what: format!("{}x{} overflows the address space", req.rows, req.cols),
            })?;
        if req.data.len() != words {
            return Err(TransposeError::InvalidConfig {
                what: format!(
                    "payload is {} words, shape {}x{} elem {} needs {words}",
                    req.data.len(),
                    req.rows,
                    req.cols,
                    req.elem_bytes
                ),
            });
        }
        let deadline_s = self.clock_s + req.priority.deadline_budget_s();
        self.pending.push(Pending { req, arrival_s: self.clock_s, deadline_s });
        Ok(())
    }

    /// The backpressure retry hint: EWMA per-request service time scaled by
    /// the backlog depth, floored at the queue-creation overhead so the
    /// hint is positive even before the first round calibrates the EWMA.
    fn retry_after_s(&self) -> f64 {
        let per_req = if self.ewma_service_s > 0.0 {
            self.ewma_service_s
        } else {
            self.dev.queue_create_overhead_s.max(1e-6)
        };
        per_req * self.pending.len().max(1) as f64
    }

    /// Serialize the plan cache as a versioned warm-start snapshot.
    /// Entries are sorted, so equal caches produce byte-identical
    /// snapshots.
    #[must_use]
    pub fn snapshot_json(&self) -> String {
        let mut entries: Vec<SnapshotEntry> = self
            .cache
            .entries()
            .into_iter()
            .map(|(key, plan)| SnapshotEntry {
                rows: key.rows,
                cols: key.cols,
                elem_bytes: key.elem_bytes,
                scheme: key.scheme.name(),
                reason: reason_name(&plan.decision.reason),
                tile_m: plan.decision.tile.map(|t| t.m),
                tile_n: plan.decision.tile.map(|t| t.n),
                wg_size: plan.wg_size,
            })
            .collect();
        entries.sort_by(|a, b| {
            (a.rows, a.cols, a.elem_bytes, a.scheme).cmp(&(b.rows, b.cols, b.elem_bytes, b.scheme))
        });
        let snap = Snapshot {
            snapshot_version: SNAPSHOT_VERSION,
            device: self.dev.name.to_string(),
            entries,
        };
        serde_json::to_string_pretty(&snap).expect("snapshot serialization is infallible")
    }

    /// Restore a warm-start snapshot into the plan cache, returning the
    /// number of entries restored and counting one `snapshot_restores`.
    /// All-or-nothing: a rejected snapshot restores nothing.
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] when the payload is corrupt, has a different
    /// format version, or was taken on a different simulated device. The
    /// cache is untouched on error — the server simply starts cold.
    pub fn restore_snapshot<R: Recorder>(
        &mut self,
        json: &str,
        rec: &R,
    ) -> Result<usize, SnapshotError> {
        let malformed = |what: &str| SnapshotError::Malformed { what: what.to_string() };
        let value = serde_json::from_str(json)
            .map_err(|e| SnapshotError::Malformed { what: format!("{e:?}") })?;
        let version = value.get("snapshot_version").and_then(serde::Value::as_u64);
        if version != Some(SNAPSHOT_VERSION) {
            return Err(SnapshotError::StaleVersion { found: version });
        }
        let device = value
            .get("device")
            .and_then(serde::Value::as_str)
            .ok_or_else(|| malformed("missing device"))?;
        if device != self.dev.name {
            return Err(SnapshotError::DeviceMismatch {
                found: device.to_string(),
                want: self.dev.name.to_string(),
            });
        }
        let entries = value
            .get("entries")
            .and_then(serde::Value::as_array)
            .ok_or_else(|| malformed("missing entries array"))?;

        // Parse and validate everything before touching the cache.
        let mut restored: Vec<(PlanKey, CachedPlan)> = Vec::with_capacity(entries.len());
        for (i, e) in entries.iter().enumerate() {
            let field = |name: &str| {
                e.get(name)
                    .and_then(serde::Value::as_u64)
                    .and_then(|v| usize::try_from(v).ok())
                    .ok_or_else(|| malformed(&format!("entry {i}: bad {name}")))
            };
            let rows = field("rows")?;
            let cols = field("cols")?;
            let elem_bytes = field("elem_bytes")?;
            if rows == 0 || cols == 0 || !(elem_bytes == 4 || elem_bytes == 8) {
                return Err(malformed(&format!(
                    "entry {i}: out-of-range shape {rows}x{cols} elem {elem_bytes}"
                )));
            }
            let scheme = e
                .get("scheme")
                .and_then(serde::Value::as_str)
                .and_then(Scheme::by_name)
                .ok_or_else(|| malformed(&format!("entry {i}: unknown scheme")))?;
            let reason = e
                .get("reason")
                .and_then(serde::Value::as_str)
                .and_then(|r| reason_by_name(r, rows, cols))
                .ok_or_else(|| malformed(&format!("entry {i}: unknown reason")))?;
            let tile_m = e.get("tile_m").and_then(serde::Value::as_u64);
            let tile_n = e.get("tile_n").and_then(serde::Value::as_u64);
            let tile = match (tile_m, tile_n) {
                (Some(m), Some(n)) if m > 0 && n > 0 => {
                    Some(TileConfig::new(m as usize, n as usize))
                }
                (None, None) => None,
                _ => return Err(malformed(&format!("entry {i}: inconsistent tile"))),
            };
            let wg_size = e
                .get("wg_size")
                .and_then(serde::Value::as_u64)
                .and_then(|v| usize::try_from(v).ok());
            if wg_size == Some(0) {
                return Err(malformed(&format!("entry {i}: zero wg_size")));
            }
            let decision = PlanDecision { scheme, reason, tile };
            let plan = decision.staged_plan(rows, cols);
            let key = PlanKey { rows, cols, elem_bytes, device: self.dev.name, scheme };
            restored.push((key, CachedPlan { decision, tune: TuneLog::default(), plan, wg_size }));
        }
        let n = restored.len();
        for (key, plan) in restored {
            self.cache.insert(key, plan);
        }
        rec.add("serve", Counter::SnapshotRestores, 1);
        rec.event(self.clock_s * 1e6, "snapshot_restore", &format!("{n} plans restored"));
        Ok(n)
    }

    /// Drain the backlog in EDF order, apply the degradation ladder, batch
    /// same-shape requests, shard batches across devices, and execute every
    /// request — returning the prepared round for external DES timing (the
    /// fleet path). Most callers want [`Server::process_round`].
    ///
    /// # Errors
    ///
    /// Only unrecoverable per-request failures propagate (e.g. an invalid
    /// plan the recovery chain rejects); recoverable faults are absorbed
    /// and reported per result.
    #[allow(clippy::too_many_lines)]
    pub fn prepare_round<R: Recorder>(
        &mut self,
        rec: &R,
    ) -> Result<PreparedRound, TransposeError> {
        let round_start = self.clock_s;
        let mut drained: Vec<Pending> = self.pending.drain(..).collect();
        // EDF: earliest deadline first; ties by arrival, then id, so the
        // order is total and deterministic.
        drained.sort_by(|a, b| {
            a.deadline_s
                .partial_cmp(&b.deadline_s)
                .expect("deadlines are finite")
                .then(
                    a.arrival_s
                        .partial_cmp(&b.arrival_s)
                        .expect("arrivals are finite"),
                )
                .then(a.req.id.cmp(&b.req.id))
        });

        // Degradation ladder: positions past the overload fractions (of
        // the admission capacity) degrade, latest deadlines first.
        let cap = self.cfg.queue_capacity as f64;
        let degrade_start = (self.cfg.degrade_at * cap).ceil() as usize;
        let shed_start = (self.cfg.shed_at * cap).ceil() as usize;

        let mut results: Vec<ServedResult> = Vec::new();
        let mut result_arrivals_s: Vec<f64> = Vec::new();
        // Coalesce same-shape requests, preserving EDF order within a
        // shape class. Shed requests never enter a batch.
        type Group = (PlanKey, Vec<(ServeRequest, f64, DegradeLevel)>);
        let mut groups: Vec<Group> = Vec::new();
        for (pos, p) in drained.into_iter().enumerate() {
            let level = if pos >= shed_start {
                DegradeLevel::HostShed
            } else if pos >= degrade_start {
                DegradeLevel::Conservative
            } else {
                DegradeLevel::Tuned
            };
            if level == DegradeLevel::HostShed {
                rec.add("serve", Counter::RequestsShed, 1);
                rec.event(
                    round_start * 1e6,
                    "request_shed",
                    &format!("req {} ({}x{}) shed to host", p.req.id, p.req.rows, p.req.cols),
                );
                results.push(self.host_shed(&p.req));
                result_arrivals_s.push(p.arrival_s);
                continue;
            }
            if level == DegradeLevel::Conservative {
                rec.add("serve", Counter::PlansDegraded, 1);
                rec.event(
                    round_start * 1e6,
                    "plan_degraded",
                    &format!("req {} degraded to conservative options", p.req.id),
                );
            }
            let decision = decide_scheme(p.req.rows, p.req.cols, &self.cfg.heuristic);
            let key = PlanKey {
                rows: p.req.rows,
                cols: p.req.cols,
                elem_bytes: p.req.elem_bytes,
                device: self.dev.name,
                scheme: decision.scheme,
            };
            match groups.iter_mut().find(|(k, _)| *k == key) {
                Some((_, v)) => v.push((p.req, p.arrival_s, level)),
                None => groups.push((key, vec![(p.req, p.arrival_s, level)])),
            }
        }

        // One DES queue per launched batch: [H2D, compute, D2H].
        let mut queues: Vec<Vec<Cmd>> = Vec::new();
        let mut arrivals: Vec<f64> = Vec::new();
        let mut launched: Vec<(usize, Vec<usize>)> = Vec::new();
        let mut batched_requests = 0u64;

        for (key, members) in groups {
            // With caching on, one lookup serves the whole group; the
            // baseline mode replans per request — that is exactly the
            // per-request autotuning cost the cache exists to amortize.
            let group_plan =
                if self.cfg.cache_plans { Some(self.lookup_plan(&key, rec)) } else { None };
            for batch in members.chunks(MAX_BATCH) {
                let device = self.next_device;
                self.next_device = (self.next_device + 1) % self.cfg.devices;
                let mut kernel_s = 0.0;
                let mut batch_bytes = 0.0;
                let mut idxs = Vec::with_capacity(batch.len());
                let mut arrival = f64::INFINITY;
                for (req, at, level) in batch {
                    arrival = arrival.min(at - round_start);
                    let (plan, hit) = match &group_plan {
                        Some((p, h)) => (Arc::clone(p), *h),
                        None => self.lookup_plan(&key, rec),
                    };
                    // Execution-layer spans (kernel launches, recovery
                    // retries) tag themselves as children of this
                    // request's exec span via the ambient ctx stack.
                    let ctx = SpanCtx {
                        trace_id: trace_id(req.id),
                        span_id: EXEC_SPAN,
                        parent_span_id: ROOT_SPAN,
                    };
                    let (res, service_s) = self
                        .serve_one(req, &key, &plan, hit, device, *level, round_start, ctx, rec)?;
                    kernel_s += service_s;
                    batch_bytes +=
                        ipt_core::check::bytes_f64(req.rows, req.cols, req.elem_bytes);
                    idxs.push(results.len());
                    results.push(res);
                    result_arrivals_s.push(*at);
                }
                if key.scheme == Scheme::Identity {
                    // Identity requests complete in-memory; no launch.
                    continue;
                }
                let q = queues.len();
                let (h2d_e, d2h_e) = self.cfg.link.link_engines(self.cfg.devices, device);
                let xfer = self.dev.pcie.transfer_time(batch_bytes);
                queues.push(vec![
                    Cmd::on(h2d_e, xfer, format!("H2D batch {q}")),
                    Cmd::on(device, kernel_s, format!("{} batch {q}", key.scheme.name())),
                    Cmd::on(d2h_e, xfer, format!("D2H batch {q}")),
                ]);
                arrivals.push(arrival.max(0.0));
                launched.push((q, idxs));
                batched_requests += batch.len() as u64;
            }
        }

        Ok(PreparedRound {
            results,
            result_arrivals_s,
            queues,
            arrivals,
            launched,
            batched_requests,
        })
    }

    /// Simulate a prepared round's launches on this server's engines, each
    /// batch's queue starting no earlier than its arrival. A round that
    /// launched nothing (empty, identity-only or fully shed) has an empty
    /// timeline.
    ///
    /// # Errors
    /// A malformed DES schedule, as [`TransposeError::Transfer`].
    pub fn simulate_round(&self, prepared: &PreparedRound) -> Result<Timeline, TransposeError> {
        if prepared.queues.is_empty() {
            return Ok(Timeline { spans: Vec::new(), total_s: 0.0, setup_s: 0.0 });
        }
        let setup_s = self.dev.queue_create_overhead_s;
        Ok(simulate(self.num_engines(), setup_s, &prepared.queues, &prepared.arrivals, None, None)?)
    }

    /// Apply a simulated timeline to a prepared round: back-fill queue
    /// waits, advance the server clock, emit counters and spans. The
    /// timeline must come from [`Server::simulate_round`] on `prepared`.
    pub fn finish_round<R: Recorder>(
        &mut self,
        prepared: PreparedRound,
        timeline: Timeline,
        rec: &R,
    ) -> RoundReport {
        let PreparedRound {
            mut results,
            result_arrivals_s,
            arrivals,
            launched,
            batched_requests,
            ..
        } = prepared;
        let mut total_wait_us = 0.0;
        for (q, idxs) in &launched {
            let start = timeline.queue_start_s(*q).unwrap_or(arrivals[*q]);
            let wait = (start - arrivals[*q]).max(0.0);
            total_wait_us += wait * 1e6 * idxs.len() as f64;
            for &i in idxs {
                results[i].queue_wait_s = wait;
            }
        }
        self.clock_s += timeline.total_s;

        // Per-request telemetry: latency histograms for every result
        // (they self-gate on the recorder's aggregate switch, so the
        // bounded counters-only mode still collects quantiles), plus —
        // when streams are on — the causal span tree: root "request"
        // covering admission→completion, a queue child, and an exec
        // child the kernel-launch spans hang off.
        {
            for (i, res) in results.iter().enumerate() {
                let tid = trace_id(res.id);
                let arrival_us = result_arrivals_s[i] * 1e6;
                let wait_us = res.queue_wait_s * 1e6;
                let service_us = res.service_s * 1e6;
                let e2e_us = wait_us + service_us;
                let scope = res.priority.scope();
                rec.latency(scope, "queue_wait_us", wait_us, Some(tid));
                rec.latency(scope, "service_us", service_us, Some(tid));
                rec.latency(scope, "e2e_us", e2e_us, Some(tid));
                if !rec.enabled() {
                    continue;
                }
                let root = SpanCtx { trace_id: tid, span_id: ROOT_SPAN, parent_span_id: 0 };
                let track = Level::Request.base_track() + res.priority.index() as u32;
                rec.span_ctx(
                    root,
                    Level::Request,
                    "request",
                    arrival_us,
                    e2e_us,
                    track,
                    &[
                        ("id", res.id as f64),
                        ("wait_us", wait_us),
                        ("cache_hit", f64::from(res.cache_hit)),
                    ],
                );
                rec.span_ctx(
                    root.child(QUEUE_SPAN),
                    Level::Request,
                    "queue",
                    arrival_us,
                    wait_us,
                    track,
                    &[],
                );
                rec.span_ctx(
                    root.child(EXEC_SPAN),
                    Level::Kernel,
                    if res.degrade == DegradeLevel::HostShed { "host-shed" } else { "exec" },
                    arrival_us + wait_us,
                    service_us,
                    Level::Kernel.base_track() + res.device as u32,
                    &[("device", res.device as f64)],
                );
                if !res.recovery.clean() {
                    res.recovery.record(rec, arrival_us + e2e_us, tid);
                }
            }
        }

        // Calibrate the backpressure hint from observed service time.
        if !results.is_empty() && timeline.total_s > 0.0 {
            let per_req = timeline.total_s / results.len() as f64;
            self.ewma_service_s = if self.ewma_service_s > 0.0 {
                0.8 * self.ewma_service_s + 0.2 * per_req
            } else {
                per_req
            };
        }

        let batches = launched.len();
        rec.add("serve", Counter::BatchesLaunched, batches as u64);
        rec.add("serve", Counter::BatchedRequests, batched_requests);
        rec.add("serve", Counter::QueueWaitUs, total_wait_us as u64);
        let mean_occupancy =
            if batches == 0 { 0.0 } else { batched_requests as f64 / batches as f64 };
        if rec.enabled() {
            rec.gauge("serve", "batch_occupancy", mean_occupancy);
        }
        RoundReport {
            results,
            batches,
            mean_occupancy,
            sim_total_s: timeline.total_s,
            timeline,
        }
    }

    /// Drain the backlog, simulate the round's launches, and return the
    /// completed round: [`Server::prepare_round`] + DES +
    /// [`Server::finish_round`] in one call.
    ///
    /// # Errors
    ///
    /// See [`Server::prepare_round`]; additionally a malformed DES schedule
    /// propagates as [`TransposeError::Transfer`].
    pub fn process_round<R: Recorder>(
        &mut self,
        rec: &R,
    ) -> Result<RoundReport, TransposeError> {
        let prepared = self.prepare_round(rec)?;
        let timeline = self.simulate_round(&prepared)?;
        Ok(self.finish_round(prepared, timeline, rec))
    }

    /// Plan lookup honoring `cache_plans`; records hit/miss counters.
    fn lookup_plan<R: Recorder>(&mut self, key: &PlanKey, rec: &R) -> (Arc<CachedPlan>, bool) {
        let build = || {
            build_plan(&self.dev, key.rows, key.cols, &self.cfg.heuristic, &self.cfg.opts, rec)
        };
        let (plan, hit) = if self.cfg.cache_plans {
            self.cache.get_or_build(key, build)
        } else {
            // Baseline mode: replan every time, keeping miss accounting.
            self.cache.misses += 1;
            (Arc::new(build()), false)
        };
        rec.add(
            "serve",
            if hit { Counter::PlanCacheHits } else { Counter::PlanCacheMisses },
            1,
        );
        (plan, hit)
    }

    /// Serve one request at `level`: full device execution, or — with
    /// profile replay on and a recorded profile — a timing-replay with a
    /// periodic full-execution bit-exactness sample. Returns the result
    /// and the device-side service seconds it contributes to its batch.
    #[allow(clippy::too_many_arguments)]
    fn serve_one<R: Recorder>(
        &mut self,
        req: &ServeRequest,
        key: &PlanKey,
        plan: &CachedPlan,
        cache_hit: bool,
        device: usize,
        level: DegradeLevel,
        t0_s: f64,
        ctx: SpanCtx,
        rec: &R,
    ) -> Result<(ServedResult, f64), TransposeError> {
        if self.cfg.profile_replay {
            let pkey = (key.clone(), level);
            if let Some(service_s) = self.profiles.get(&pkey).copied() {
                let resample = self.cfg.full_exec_every > 0
                    && self.replays_since_full + 1 >= self.cfg.full_exec_every;
                if !resample {
                    self.replays_since_full += 1;
                    self.profiled_replays += 1;
                    let res = self.replay(req, plan, cache_hit, device, level, service_s);
                    return Ok((res, service_s));
                }
            }
            let (res, stats) = self.execute(req, plan, cache_hit, device, level, t0_s, ctx, rec)?;
            let service_s = stats.as_ref().map_or(0.0, gpu_sim::PipelineStats::time_s);
            self.profiles.insert(pkey, service_s);
            self.replays_since_full = 0;
            self.full_execs += 1;
            return Ok((res, service_s));
        }
        let (res, stats) = self.execute(req, plan, cache_hit, device, level, t0_s, ctx, rec)?;
        self.full_execs += 1;
        let service_s = stats.as_ref().map_or(0.0, gpu_sim::PipelineStats::time_s);
        Ok((res, service_s))
    }

    /// Execute one request through the recovery chain on a fresh simulator
    /// for `device`. Returns the result and the device-side stats (`None`
    /// for identity short-circuits).
    #[allow(clippy::too_many_arguments)]
    fn execute<R: Recorder>(
        &self,
        req: &ServeRequest,
        plan: &CachedPlan,
        cache_hit: bool,
        device: usize,
        level: DegradeLevel,
        t0_s: f64,
        ctx: SpanCtx,
        rec: &R,
    ) -> Result<(ServedResult, Option<gpu_sim::PipelineStats>), TransposeError> {
        let elem_words = req.elem_bytes / 4;
        let flag_words = plan.plan.as_ref().map_or(0, plan_flag_words);
        // C2R long-line shapes stage through global scratch; budget for it
        // so the device path is not spuriously OOMed into the host tail.
        let scratch_words = if plan.decision.scheme == Scheme::C2R && elem_words == 1 {
            let wg = plan.wg_size.unwrap_or(self.cfg.opts.wg_size);
            crate::c2r::c2r_scratch_words(&self.dev, req.rows, req.cols, wg)
        } else {
            0
        };
        // 2× data for the out-of-place recovery fallback, plus flag slack.
        let capacity = 2 * req.data.len() + elem_words * flag_words + scratch_words + 256;
        let mut sim = Sim::new(self.dev.clone(), capacity);
        // Cache-hit batches re-execute a plan that already ran once, so the
        // wall-clock win of the pooled engine is pure profit. WG-local and
        // cross-WG-claims kernels (the whole 100! family) genuinely ride
        // the pool, bit-identically to serial; only generic cross-WG
        // launches (and custom scheduler/fault/watchdog runs) pin serial.
        if cache_hit {
            sim.set_engine_mode(EngineMode::parallel_auto());
        }
        let engine = sim.engine_mode().label();
        // Conservative degradation pre-empts the recovery chain's own
        // second rung: same plan, baseline options.
        let conservative;
        let opts = if level == DegradeLevel::Conservative {
            conservative = GpuOptions::baseline_for(&self.dev);
            &conservative
        } else {
            &self.cfg.opts
        };
        // A tuned C2R work-group size overrides the session default (but
        // not a conservative-degrade baseline, which deliberately resets
        // every knob).
        let tuned;
        let opts = match plan.wg_size {
            Some(wg) if level != DegradeLevel::Conservative => {
                tuned = GpuOptions { wg_size: wg, ..*opts };
                &tuned
            }
            _ => opts,
        };
        let mut data = req.data.clone();
        // Kernel-launch spans emitted inside the recovery chain tag
        // themselves as children of this request's exec span.
        rec.push_ctx(ctx);
        let run = transpose_scheme_with_recovery_rec(
            &mut sim,
            &mut data,
            req.rows,
            req.cols,
            elem_words,
            &plan.decision,
            opts,
            &self.cfg.policy,
            rec,
            t0_s,
        );
        rec.pop_ctx();
        let (stats, recovery) = run?;
        let stats =
            if plan.decision.scheme == Scheme::Identity { None } else { Some(stats) };
        Ok((
            ServedResult {
                id: req.id,
                data,
                scheme: plan.decision.scheme,
                cache_hit,
                device,
                priority: req.priority,
                degrade: level,
                recovery,
                queue_wait_s: 0.0,
                service_s: stats.as_ref().map_or(0.0, gpu_sim::PipelineStats::time_s),
                engine,
            },
            stats,
        ))
    }

    /// Timing-replay of a profiled request: host-computed payload, the
    /// profiled service seconds for DES composition. The periodic full
    /// executions assert this path stays bit-identical to the device path.
    fn replay(
        &self,
        req: &ServeRequest,
        plan: &CachedPlan,
        cache_hit: bool,
        device: usize,
        level: DegradeLevel,
        service_s: f64,
    ) -> ServedResult {
        ServedResult {
            id: req.id,
            data: host_transpose_elems(&req.data, req.rows, req.cols, req.elem_bytes / 4),
            scheme: plan.decision.scheme,
            cache_hit,
            device,
            priority: req.priority,
            degrade: level,
            recovery: RecoveryReport::new(RecoveryPath::Primary),
            queue_wait_s: 0.0,
            service_s,
            engine: "profiled",
        }
    }

    /// Shed one request to the host path: exact result, no device launch,
    /// no queue wait — the degradation ladder's last rung before
    /// rejection.
    fn host_shed(&self, req: &ServeRequest) -> ServedResult {
        let decision = decide_scheme(req.rows, req.cols, &self.cfg.heuristic);
        ServedResult {
            id: req.id,
            data: host_transpose_elems(&req.data, req.rows, req.cols, req.elem_bytes / 4),
            scheme: decision.scheme,
            cache_hit: false,
            device: 0,
            priority: req.priority,
            degrade: DegradeLevel::HostShed,
            recovery: RecoveryReport::new(RecoveryPath::HostSequential),
            queue_wait_s: 0.0,
            service_s: 0.0,
            engine: "host",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recover::host_transpose_elems;
    use ipt_obs::{NoopRecorder, TraceRecorder};

    fn req(id: u64, rows: usize, cols: usize, elem_bytes: usize) -> ServeRequest {
        req_prio(id, rows, cols, elem_bytes, PriorityClass::Batch)
    }

    fn req_prio(
        id: u64,
        rows: usize,
        cols: usize,
        elem_bytes: usize,
        priority: PriorityClass,
    ) -> ServeRequest {
        let words = rows * cols * (elem_bytes / 4);
        let data: Vec<u32> = (0..words as u32).map(|x| x.wrapping_mul(2654435761)).collect();
        ServeRequest { id, rows, cols, elem_bytes, priority, data }
    }

    fn check_round_trip(r: &ServedResult, original: &ServeRequest) {
        if original.rows <= 1 || original.cols <= 1 {
            assert_eq!(r.data, original.data, "identity must not move storage");
            return;
        }
        let want = host_transpose_elems(
            &original.data,
            original.rows,
            original.cols,
            original.elem_bytes / 4,
        );
        assert_eq!(r.data, want, "request {} ({}x{})", r.id, original.rows, original.cols);
    }

    #[test]
    fn mixed_shapes_round_trip_through_one_round() {
        let dev = DeviceSpec::tesla_k20();
        let cfg = ServeConfig::new(&dev);
        let mut srv = Server::new(dev, cfg);
        let rec = TraceRecorder::new();
        // Staged, square, identity, c2r (127×61 is coprime), wide-element
        // staged.
        let reqs = vec![
            req(0, 72, 60, 4),
            req(1, 60, 60, 4),
            req(2, 1, 512, 4),
            req(3, 127, 61, 4),
            req(4, 72, 60, 8),
            req(5, 72, 60, 4),
        ];
        for r in &reqs {
            srv.submit(r.clone(), &rec).unwrap();
        }
        let round = srv.process_round(&rec).unwrap();
        assert_eq!(round.results.len(), reqs.len());
        for res in &round.results {
            let original = reqs.iter().find(|r| r.id == res.id).unwrap();
            check_round_trip(res, original);
            assert_eq!(res.degrade, DegradeLevel::Tuned, "no overload, no degradation");
        }
        // Two same-shape 72x60x4 requests coalesced into one batch.
        let staged: Vec<_> = round
            .results
            .iter()
            .filter(|r| {
                let o = reqs.iter().find(|q| q.id == r.id).unwrap();
                (o.rows, o.cols, o.elem_bytes) == (72, 60, 4)
            })
            .collect();
        assert_eq!(staged.len(), 2);
        assert_eq!(staged[0].device, staged[1].device, "same batch, same device");
        // Identity ran without a launch: batches < shape classes.
        assert!(round.batches >= 3 && round.mean_occupancy >= 1.0);
        assert!(round.sim_total_s > 0.0);
        assert!(srv.clock_s() > 0.0);
        // Tracing: spans for launched requests, hit/miss counters add up.
        let hits = rec.counter("serve", Counter::PlanCacheHits);
        let misses = rec.counter("serve", Counter::PlanCacheMisses);
        assert_eq!(hits + misses, 5, "one lookup per shape class");
        assert_eq!(misses, 5, "first round is all cold");
    }

    #[test]
    fn cache_hits_on_repeat_rounds_and_plans_are_reused() {
        let dev = DeviceSpec::tesla_k20();
        let cfg = ServeConfig::new(&dev);
        let mut srv = Server::new(dev, cfg);
        let rec = NoopRecorder;
        for round in 0..3 {
            for i in 0..4u64 {
                srv.submit(req(round * 10 + i, 72, 60, 4), &rec).unwrap();
            }
            let out = srv.process_round(&rec).unwrap();
            assert!(out.results.iter().all(|r| (r.cache_hit) == (round > 0)));
        }
        assert_eq!(srv.cache().misses(), 1);
        assert_eq!(srv.cache().hits(), 2);
        assert!(srv.cache().hit_rate() > 0.6);
    }

    #[test]
    fn admission_is_bounded_with_typed_backpressure() {
        let dev = DeviceSpec::tesla_k20();
        let mut cfg = ServeConfig::new(&dev);
        cfg.queue_capacity = 3;
        let mut srv = Server::new(dev, cfg);
        let rec = TraceRecorder::new();
        for i in 0..3 {
            srv.submit(req(i, 60, 60, 4), &rec).unwrap();
        }
        let err = srv.submit(req(99, 60, 60, 4), &rec).unwrap_err();
        match err {
            TransposeError::Backpressure { capacity, retry_after_s } => {
                assert_eq!(capacity, 3);
                assert!(retry_after_s > 0.0, "hint must be positive pre-calibration");
            }
            other => panic!("want Backpressure, got {other}"),
        }
        assert_eq!(rec.counter("serve", Counter::AdmissionRejections), 1);
        // Draining frees capacity — and calibrates the EWMA, so the next
        // rejection's hint reflects measured service time.
        srv.process_round(&rec).unwrap();
        for i in 0..3 {
            srv.submit(req(100 + i, 60, 60, 4), &rec).unwrap();
        }
        match srv.submit(req(199, 60, 60, 4), &rec).unwrap_err() {
            TransposeError::Backpressure { retry_after_s, .. } => {
                assert!(retry_after_s > 0.0, "calibrated hint must stay positive");
            }
            other => panic!("want Backpressure, got {other}"),
        }
    }

    #[test]
    fn malformed_requests_are_refused_with_typed_errors() {
        let dev = DeviceSpec::tesla_k20();
        let mut srv = Server::new(dev.clone(), ServeConfig::new(&dev));
        let rec = NoopRecorder;
        let mut bad = req(0, 60, 60, 4);
        bad.elem_bytes = 3;
        assert!(matches!(
            srv.submit(bad, &rec).unwrap_err(),
            TransposeError::InvalidConfig { .. }
        ));
        let mut short = req(1, 60, 60, 4);
        short.data.pop();
        assert!(matches!(
            srv.submit(short, &rec).unwrap_err(),
            TransposeError::InvalidConfig { .. }
        ));
        assert_eq!(srv.backlog(), 0);
    }

    #[test]
    fn batches_shard_across_devices_and_split_at_max_batch() {
        let dev = DeviceSpec::tesla_k20();
        let mut srv = Server::new(dev.clone(), ServeConfig::new(&dev));
        let rec = NoopRecorder;
        for i in 0..17 {
            srv.submit(req(i, 60, 60, 4), &rec).unwrap();
        }
        let round = srv.process_round(&rec).unwrap();
        // Batches of 8, 8 and 1, dealt round-robin to the two devices.
        assert_eq!(round.batches, 3, "17 same-shape requests at MAX_BATCH = 8");
        let on = |d| round.results.iter().filter(|r| r.device == d).count();
        assert_eq!((on(0), on(1)), (9, 8), "round-robin must use both devices");
        assert!((round.mean_occupancy - 17.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn cached_plan_equals_fresh_plan_and_results_are_bit_identical() {
        // Plan-cache determinism: the cached plan is the plan a fresh
        // pruned search would produce, and outputs are bit-identical.
        let dev = DeviceSpec::tesla_k20();
        let cfg = ServeConfig::new(&dev);
        let rec = NoopRecorder;
        let fresh = build_plan(&dev, 72, 60, &cfg.heuristic, &cfg.opts, &rec);

        let mut srv = Server::new(dev.clone(), cfg.clone());
        let r = req(7, 72, 60, 4);
        srv.submit(r.clone(), &rec).unwrap();
        let first = srv.process_round(&rec).unwrap().results.remove(0);
        srv.submit(r.clone(), &rec).unwrap();
        let second = srv.process_round(&rec).unwrap().results.remove(0);

        assert!(!first.cache_hit && second.cache_hit);
        assert_eq!(first.data, second.data, "cached plan must not change results");
        let key = PlanKey {
            rows: 72,
            cols: 60,
            elem_bytes: 4,
            device: dev.name,
            scheme: Scheme::Staged,
        };
        let entries = srv.cache().entries();
        let (_, cached) = entries.iter().find(|(k, _)| *k == key).expect("the shape is cached");
        assert_eq!(cached.decision, fresh.decision, "cached ≡ fresh pruned_search plan");
    }

    #[test]
    fn edf_admission_orders_by_deadline_not_arrival() {
        let dev = DeviceSpec::tesla_k20();
        let mut srv = Server::new(dev.clone(), ServeConfig::new(&dev));
        let rec = NoopRecorder;
        // FIFO would serve 0, 1, 2; EDF must serve the interactive request
        // first and the background one last.
        srv.submit(req_prio(0, 60, 60, 4, PriorityClass::Background), &rec).unwrap();
        srv.submit(req_prio(1, 60, 60, 4, PriorityClass::Batch), &rec).unwrap();
        srv.submit(req_prio(2, 60, 60, 4, PriorityClass::Interactive), &rec).unwrap();
        let round = srv.process_round(&rec).unwrap();
        let order: Vec<u64> = round.results.iter().map(|r| r.id).collect();
        assert_eq!(order, vec![2, 1, 0], "EDF order, not submission order");
        // Same class ties fall back to id order (deterministic total order).
        srv.submit(req(11, 60, 60, 4), &rec).unwrap();
        srv.submit(req(10, 60, 60, 4), &rec).unwrap();
        let round = srv.process_round(&rec).unwrap();
        let order: Vec<u64> = round.results.iter().map(|r| r.id).collect();
        assert_eq!(order, vec![10, 11]);
    }

    #[test]
    fn overload_degrades_then_sheds_before_rejecting() {
        let dev = DeviceSpec::tesla_k20();
        let mut cfg = ServeConfig::new(&dev);
        cfg.queue_capacity = 8;
        cfg.degrade_at = 0.5; // positions 4..6 degrade
        cfg.shed_at = 0.75; // positions 6..8 shed
        let mut srv = Server::new(dev, cfg);
        let rec = TraceRecorder::new();
        let reqs: Vec<ServeRequest> = (0..8)
            .map(|i| {
                // Interactive head, background tail, so the ladder's order
                // is also the priority order.
                let prio = if i < 4 {
                    PriorityClass::Interactive
                } else if i < 6 {
                    PriorityClass::Batch
                } else {
                    PriorityClass::Background
                };
                req_prio(i, 60, 60, 4, prio)
            })
            .collect();
        for r in &reqs {
            srv.submit(r.clone(), &rec).unwrap();
        }
        let round = srv.process_round(&rec).unwrap();
        assert_eq!(round.results.len(), 8, "degradation must not drop requests");
        let mut tuned = 0;
        let mut conservative = 0;
        let mut shed = 0;
        for res in &round.results {
            let original = reqs.iter().find(|r| r.id == res.id).unwrap();
            check_round_trip(res, original);
            match res.degrade {
                DegradeLevel::Tuned => tuned += 1,
                DegradeLevel::Conservative => conservative += 1,
                DegradeLevel::HostShed => {
                    shed += 1;
                    assert_eq!(res.engine, "host");
                    assert_eq!(res.recovery.path, RecoveryPath::HostSequential);
                    assert_eq!(res.priority, PriorityClass::Background, "shed latest deadlines");
                    assert_eq!(res.service_s, 0.0, "shed requests never launch");
                }
            }
        }
        assert_eq!((tuned, conservative, shed), (4, 2, 2));
        assert_eq!(rec.counter("serve", Counter::PlansDegraded), 2);
        assert_eq!(rec.counter("serve", Counter::RequestsShed), 2);
    }

    #[test]
    fn snapshot_round_trip_restores_warm_cache() {
        let dev = DeviceSpec::tesla_k20();
        let cfg = ServeConfig::new(&dev);
        let rec = TraceRecorder::new();
        // Warm a server over four scheme families.
        let mut warm = Server::new(dev.clone(), cfg.clone());
        let shapes = [(72usize, 60usize), (60, 60), (127, 61), (1, 64)];
        for (i, (r, c)) in shapes.iter().enumerate() {
            warm.submit(req(i as u64, *r, *c, 4), &rec).unwrap();
        }
        warm.process_round(&rec).unwrap();
        let snapshot = warm.snapshot_json();
        assert_eq!(warm.snapshot_json(), snapshot, "snapshot is deterministic");

        // Restore into a fresh server: all lookups hit, results match a
        // cold server bit for bit.
        let mut restored = Server::new(dev.clone(), cfg.clone());
        let n = restored.restore_snapshot(&snapshot, &rec).unwrap();
        assert_eq!(n, shapes.len());
        assert_eq!(restored.cache().len(), shapes.len());
        assert_eq!(rec.counter("serve", Counter::SnapshotRestores), 1);

        let mut cold = Server::new(dev, cfg);
        for (i, (r, c)) in shapes.iter().enumerate() {
            restored.submit(req(100 + i as u64, *r, *c, 4), &rec).unwrap();
            cold.submit(req(100 + i as u64, *r, *c, 4), &rec).unwrap();
        }
        // The prime shape restores as a c2r plan with its tuned wg intact.
        let c2r: Vec<_> = restored
            .cache()
            .entries()
            .into_iter()
            .filter(|(k, _)| k.scheme == Scheme::C2R)
            .collect();
        assert_eq!(c2r.len(), 1, "127×61 must cache as c2r");
        assert!(c2r[0].1.wg_size.is_some(), "tuned wg size survives the snapshot");

        let warm_round = restored.process_round(&rec).unwrap();
        let cold_round = cold.process_round(&rec).unwrap();
        assert!(
            warm_round.results.iter().all(|r| r.cache_hit),
            "every restored shape must hit on first sight"
        );
        for (w, c) in warm_round.results.iter().zip(&cold_round.results) {
            assert_eq!(w.id, c.id);
            assert_eq!(w.data, c.data, "restored plans serve bit-identically");
            assert_eq!(w.scheme, c.scheme);
        }
    }

    #[test]
    fn pre_c2r_snapshot_is_stale_not_misrestored() {
        // A v1 snapshot predates the c2r scheme (and the per-entry wg
        // size). Even when every entry parses cleanly, it must be refused
        // as StaleVersion — never deserialized into plans that silently
        // miss the tuned launch configuration.
        let dev = DeviceSpec::tesla_k20();
        let rec = TraceRecorder::new();
        let mut srv = Server::new(dev.clone(), ServeConfig::new(&dev));
        let v1 = format!(
            "{{\"snapshot_version\": 1, \"device\": \"{}\", \"entries\": \
             [{{\"rows\": 127, \"cols\": 61, \"elem_bytes\": 4, \"scheme\": \"coprime\", \
             \"reason\": \"no-feasible-tile\", \"tile_m\": null, \"tile_n\": null}}]}}",
            dev.name
        );
        assert!(matches!(
            srv.restore_snapshot(&v1, &rec).unwrap_err(),
            SnapshotError::StaleVersion { found: Some(1) }
        ));
        assert_eq!(srv.cache().len(), 0, "stale snapshots restore nothing");
    }

    #[test]
    fn corrupt_and_stale_snapshots_are_discarded() {
        let dev = DeviceSpec::tesla_k20();
        let rec = TraceRecorder::new();
        let mut srv = Server::new(dev.clone(), ServeConfig::new(&dev));
        // Corrupt JSON.
        assert!(matches!(
            srv.restore_snapshot("{not json", &rec).unwrap_err(),
            SnapshotError::Malformed { .. }
        ));
        // Stale version.
        let stale = format!(
            "{{\"snapshot_version\": {}, \"device\": \"{}\", \"entries\": []}}",
            SNAPSHOT_VERSION + 1,
            dev.name
        );
        assert!(matches!(
            srv.restore_snapshot(&stale, &rec).unwrap_err(),
            SnapshotError::StaleVersion { found: Some(v) } if v == SNAPSHOT_VERSION + 1
        ));
        // Wrong device.
        let other = Server::new(DeviceSpec::gtx580(), ServeConfig::new(&DeviceSpec::gtx580()));
        let foreign = other.snapshot_json();
        assert!(matches!(
            srv.restore_snapshot(&foreign, &rec).unwrap_err(),
            SnapshotError::DeviceMismatch { .. }
        ));
        // Malformed entry (unknown or retired scheme) — all-or-nothing,
        // nothing kept. The retired device schemes are refused rather than
        // misrestored as some other plan.
        for scheme in ["alien", "coprime", "single-stage"] {
            let bad_entry = format!(
                "{{\"snapshot_version\": {SNAPSHOT_VERSION}, \"device\": \"{}\", \"entries\": \
                 [{{\"rows\": 4, \"cols\": 4, \"elem_bytes\": 4, \"scheme\": \"{scheme}\", \
                 \"reason\": \"preferred\", \"tile_m\": null, \"tile_n\": null}}]}}",
                dev.name
            );
            assert!(
                matches!(
                    srv.restore_snapshot(&bad_entry, &rec).unwrap_err(),
                    SnapshotError::Malformed { .. }
                ),
                "{scheme}"
            );
        }
        assert_eq!(srv.cache().len(), 0, "rejected snapshots restore nothing");
        assert_eq!(
            rec.counter("serve", Counter::SnapshotRestores),
            0,
            "failed restores are not counted"
        );
        // The cold server still serves.
        srv.submit(req(0, 60, 60, 4), &rec).unwrap();
        assert_eq!(srv.process_round(&rec).unwrap().results.len(), 1);
    }

    #[test]
    fn profile_replay_is_timing_identical_and_bit_exact() {
        let dev = DeviceSpec::tesla_k20();
        let mut replay_cfg = ServeConfig::new(&dev);
        replay_cfg.profile_replay = true;
        replay_cfg.full_exec_every = 3;
        let mut fast = Server::new(dev.clone(), replay_cfg);
        let mut slow = Server::new(dev.clone(), ServeConfig::new(&dev));
        let rec = NoopRecorder;
        // Same stream through both servers, round by round: identical DES
        // timing and identical bits, with the fast server replaying most
        // repeats.
        for round in 0..4u64 {
            for i in 0..4u64 {
                let r = req(round * 10 + i, 72, 60, 4);
                fast.submit(r.clone(), &rec).unwrap();
                slow.submit(r, &rec).unwrap();
            }
            let f = fast.process_round(&rec).unwrap();
            let s = slow.process_round(&rec).unwrap();
            assert!(
                (f.sim_total_s - s.sim_total_s).abs() < 1e-12,
                "round {round}: replayed timing {} != full timing {}",
                f.sim_total_s,
                s.sim_total_s
            );
            for (a, b) in f.results.iter().zip(&s.results) {
                assert_eq!(a.id, b.id);
                assert_eq!(a.data, b.data, "replay must be bit-identical");
                assert!(
                    (a.service_s - b.service_s).abs() < 1e-15,
                    "profiled service time must equal measured"
                );
            }
        }
        assert!(fast.profiled_replays() > 0, "repeats must replay");
        assert!(
            fast.full_execs() > fast.profiled_replays() / 3,
            "every third eligible repeat re-runs the device path \
             (full {} replays {})",
            fast.full_execs(),
            fast.profiled_replays()
        );
        assert!(slow.profiled_replays() == 0 && slow.full_execs() == 16);
    }
}
