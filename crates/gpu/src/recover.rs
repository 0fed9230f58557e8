//! Typed errors and verified recovery for the transposition pipeline.
//!
//! In-place transposition is uniquely fragile: the matrix is its own
//! scratch space, so a fault that strikes mid-cycle (a lost coordination
//! bit, an aborted kernel, a corrupted local-memory word) leaves the array
//! in a state that is neither the input nor the output. This module turns
//! that fragility into a contract:
//!
//! * every failure surfaces as a [`TransposeError`] — never a panic,
//! * every successful return is **verified element-exact** against the
//!   definitional permutation,
//! * recovery is one chain of [`RecoveryPath`] rungs, each tried from the
//!   restored input only when every rung above it failed:
//!   1. **primary** — the paper's in-place kernels: a stage plan with
//!      per-stage snapshot + multiset-checksum validation and bounded
//!      retry, or the C2R passes (one attempt),
//!   2. **conservative options** — a stage plan re-run with
//!      [`GpuOptions::baseline_for`],
//!   3. **out-of-place** — the out-of-place kernel, for one-word elements
//!      when the device has room for a second copy,
//!   4. **host sequential** — a host transposition, which cannot fail.
//!
//! [`transpose_with_recovery`] runs the chain under an explicit stage
//! plan, [`transpose_scheme_with_recovery`] under a planner decision.
//!
//! The per-stage checksum is a *multiset* invariant (wrapping sum + xor of
//! all words): any transposition stage is a permutation, so the multiset
//! of values must be preserved. A dropped or duplicated cycle move
//! overwrites or clones a value and breaks the invariant; a pure
//! misplacement preserves it and is caught by the final exact verify
//! instead. Checksums are cheap relative to a stage (one linear scan) —
//! the price of trusting an unreliable device.

use crate::opts::GpuOptions;
use crate::pipeline::{plan_flag_words, run_stage_rec};
use gpu_sim::{
    Buffer, FaultRecord, LaunchError, PipelineStats, QueueError, Sim,
};
use ipt_obs::{NoopRecorder, Recorder};
use ipt_core::stages::{PlanError, StagePlan};
use ipt_core::TransposePerm;

/// A verification failure: the device's data does not match what the
/// stage (or the full transposition) should have produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// The stage being validated, or `None` for the final whole-matrix
    /// check.
    pub stage: Option<String>,
    /// Human-readable mismatch description.
    pub detail: String,
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.stage {
            Some(s) => write!(f, "verification failed after stage `{s}`: {}", self.detail),
            None => write!(f, "final verification failed: {}", self.detail),
        }
    }
}

/// Everything that can go wrong across the transposition pipeline, from
/// planning through device execution, transfers and verification.
#[derive(Debug)]
pub enum TransposeError {
    /// A caller-supplied configuration is unusable (zero queues, size
    /// mismatch, wrong plan family, indivisible device count, …).
    InvalidConfig {
        /// What is wrong with the configuration.
        what: String,
    },
    /// The device cannot hold the working set.
    DeviceOom {
        /// Words requested.
        need: usize,
        /// Words available.
        free: usize,
    },
    /// A kernel launch failed (infeasible geometry, or an injected abort).
    Launch(LaunchError),
    /// A liveness watchdog tripped: the kernel stopped making progress
    /// (claim-loop livelock, deadlock, or a lost wakeup) and was killed
    /// instead of spinning forever. Device memory may be mid-transposition;
    /// recovery restores a snapshot before retrying.
    Stalled {
        /// Kernel display name.
        kernel: String,
        /// The lane (global warp index: `wg × warps_per_wg + warp`) that
        /// exceeded its progress budget, or the busiest one on a total-
        /// budget trip.
        lane: usize,
        /// Steps executed when the watchdog fired.
        steps: u64,
    },
    /// Plan construction failed (tile does not divide the matrix).
    Plan(PlanError),
    /// A command-queue transfer failed.
    Transfer(QueueError),
    /// Data validation failed (per-stage checksum or final exact check).
    Verify(VerifyError),
    /// Retries and fallbacks were exhausted without a verified result.
    RecoveryExhausted {
        /// Recovery attempts spent.
        attempts: usize,
        /// The last error observed.
        last: Box<TransposeError>,
    },
    /// The serving layer's bounded admission queue is full: the request was
    /// refused, not silently dropped — the caller should drain and resubmit
    /// no sooner than the hinted delay.
    Backpressure {
        /// Configured queue capacity that was hit.
        capacity: usize,
        /// Typed retry hint: simulated seconds until the server expects to
        /// have drained enough backlog to admit this request (an EWMA of
        /// observed per-request service time times the backlog depth).
        retry_after_s: f64,
    },
    /// The out-of-core chunk journal refused an illegal state transition —
    /// most importantly a second commit of an already-committed chunk,
    /// which would silently duplicate a transfer into the output. The
    /// journal makes that a loud, typed failure instead.
    Journal {
        /// Chunk index the transition was attempted on.
        chunk: usize,
        /// What was illegal about it.
        what: String,
    },
}

impl std::fmt::Display for TransposeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransposeError::InvalidConfig { what } => write!(f, "invalid configuration: {what}"),
            TransposeError::DeviceOom { need, free } => {
                write!(f, "device OOM: need {need} words, {free} free")
            }
            TransposeError::Launch(e) => write!(f, "launch failed: {e}"),
            TransposeError::Stalled { kernel, lane, steps } => write!(
                f,
                "kernel `{kernel}` stalled: lane {lane} exceeded its progress budget \
                 after {steps} steps"
            ),
            TransposeError::Plan(e) => write!(f, "planning failed: {e}"),
            TransposeError::Transfer(e) => write!(f, "transfer failed: {e}"),
            TransposeError::Verify(e) => write!(f, "{e}"),
            TransposeError::RecoveryExhausted { attempts, last } => {
                write!(f, "recovery exhausted after {attempts} attempts; last error: {last}")
            }
            TransposeError::Backpressure { capacity, retry_after_s } => {
                write!(
                    f,
                    "admission queue full ({capacity} requests): backpressure, retry \
                     after {:.1} us",
                    retry_after_s * 1e6
                )
            }
            TransposeError::Journal { chunk, what } => {
                write!(f, "chunk journal violation at chunk {chunk}: {what}")
            }
        }
    }
}

impl std::error::Error for TransposeError {}

impl From<LaunchError> for TransposeError {
    fn from(e: LaunchError) -> Self {
        match e {
            LaunchError::Stalled { kernel, lane, steps } => {
                TransposeError::Stalled { kernel, lane, steps }
            }
            e => TransposeError::Launch(e),
        }
    }
}

impl From<PlanError> for TransposeError {
    fn from(e: PlanError) -> Self {
        TransposeError::Plan(e)
    }
}

impl From<QueueError> for TransposeError {
    fn from(e: QueueError) -> Self {
        TransposeError::Transfer(e)
    }
}

impl From<VerifyError> for TransposeError {
    fn from(e: VerifyError) -> Self {
        TransposeError::Verify(e)
    }
}

/// Knobs for the recovery machinery.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryPolicy {
    /// Retries per stage (and per whole-scheme attempt in the coarse
    /// asynchronous recovery) before escalating.
    pub max_stage_retries: usize,
    /// Base backoff charged per retry, doubled each attempt (seconds on
    /// the simulated timeline — models driver reset + resubmission).
    pub retry_backoff_s: f64,
    /// Allow degrading through the fallback chain when retries fail. When
    /// `false`, the first unrecovered error is returned as-is.
    pub allow_fallback: bool,
    /// Campaign seed for retry-backoff jitter. `0` (the default) keeps the
    /// historic pure-exponential backoff; any other value adds a
    /// deterministic jitter factor derived from `(seed, attempt)` so a
    /// whole chaos campaign's retry timing is reproducible from one
    /// top-level seed.
    pub seed: u64,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        Self { max_stage_retries: 2, retry_backoff_s: 1e-4, allow_fallback: true, seed: 0 }
    }
}

impl RecoveryPolicy {
    /// `self` with the retry-jitter seed set (builder style).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Backoff charged for retry number `attempt` (0-based): exponential,
    /// times a seeded jitter factor in `[1, 2)` when a seed is set.
    #[must_use]
    pub fn backoff_s(&self, attempt: usize) -> f64 {
        let base = self.retry_backoff_s * (1u64 << attempt.min(20)) as f64;
        if self.seed == 0 {
            return base;
        }
        let h = gpu_sim::sched::mix64(self.seed, attempt as u64);
        base * (1.0 + (h >> 11) as f64 / (1u64 << 53) as f64)
    }
}

/// Which execution path ultimately produced the verified result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryPath {
    /// The requested pipeline with the requested options.
    Primary,
    /// The requested pipeline re-run with [`GpuOptions::baseline_for`]
    /// (packed flags, Sung work-group 100!) — slower, fewer moving parts.
    ConservativeOptions,
    /// The out-of-place device kernel (needs 2× device memory).
    OutOfPlace,
    /// A sequential transposition on the host — the path of last resort,
    /// which cannot fail.
    HostSequential,
}

impl std::fmt::Display for RecoveryPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            RecoveryPath::Primary => "primary",
            RecoveryPath::ConservativeOptions => "conservative-options",
            RecoveryPath::OutOfPlace => "out-of-place",
            RecoveryPath::HostSequential => "host-sequential",
        };
        f.write_str(s)
    }
}

/// What the recovery machinery did to produce a verified result.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// The path that produced the verified result.
    pub path: RecoveryPath,
    /// Stage-granular retries spent (snapshot restore + re-execution).
    pub stage_retries: usize,
    /// Transfer resubmissions in the command-queue timeline.
    pub transfer_retries: usize,
    /// Whole-scheme retries (the asynchronous host scheme recovers at
    /// this coarser granularity).
    pub scheme_retries: usize,
    /// Injected faults that fired, in order.
    pub faults: Vec<FaultRecord>,
    /// Extra simulated seconds charged to recovery (failed-attempt kernel
    /// time + backoff).
    pub penalty_s: f64,
    /// Why the primary path was abandoned, when it was.
    pub primary_error: Option<String>,
}

impl RecoveryReport {
    /// An empty report for `path` (no retries, no faults).
    #[must_use]
    pub fn new(path: RecoveryPath) -> Self {
        Self {
            path,
            stage_retries: 0,
            transfer_retries: 0,
            scheme_retries: 0,
            faults: Vec::new(),
            penalty_s: 0.0,
            primary_error: None,
        }
    }

    /// Did execution deviate from the fault-free happy path at all?
    #[must_use]
    pub fn clean(&self) -> bool {
        self.path == RecoveryPath::Primary
            && self.stage_retries == 0
            && self.transfer_retries == 0
            && self.scheme_retries == 0
            && self.faults.is_empty()
    }

    /// Emit this report into a [`Recorder`]: retry counters under the
    /// `recovery` scope, the penalty as a gauge, and one instant event per
    /// injected fault that fired (plus one when the primary was abandoned).
    /// `ts_us` places the events on the recorder's global clock. Every
    /// event detail is prefixed with the request's `trace_id`, so recovery
    /// incidents in a serving trace join back to the request that suffered
    /// them.
    pub fn record<R: Recorder>(&self, rec: &R, ts_us: f64, trace_id: u64) {
        if !rec.enabled() {
            return;
        }
        use ipt_obs::Counter;
        rec.add("recovery", Counter::FaultsInjected, self.faults.len() as u64);
        rec.add("recovery", Counter::StageRetries, self.stage_retries as u64);
        rec.add("recovery", Counter::TransferRetries, self.transfer_retries as u64);
        rec.add("recovery", Counter::SchemeRetries, self.scheme_retries as u64);
        rec.gauge("recovery", "penalty_s", self.penalty_s);
        for f in &self.faults {
            rec.event(
                ts_us,
                "fault",
                &format!("trace {trace_id:016x}: {:?} at {}: {}", f.kind, f.site, f.detail),
            );
        }
        if let Some(e) = &self.primary_error {
            rec.event(
                ts_us,
                "primary_path_abandoned",
                &format!("trace {trace_id:016x}: {e}"),
            );
        }
    }
}

/// Order-independent multiset checksum: wrapping sum + xor of all words.
/// Invariant under any permutation (every transposition stage is one);
/// broken by overwrites, duplications and corruptions of values.
#[must_use]
pub fn multiset_checksum(words: &[u32]) -> (u64, u64) {
    let mut sum = 0u64;
    let mut xor = 0u64;
    for &w in words {
        sum = sum.wrapping_add(u64::from(w).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        xor ^= u64::from(w) ^ 0xa076_1d64_78bd_642f_u64.rotate_left(w % 63);
    }
    (sum, xor)
}

/// Exact element check of `result` against the transposition of `src`.
///
/// # Errors
/// [`VerifyError`] naming the first mismatching source offset in
/// row-major order.
pub fn verify_exact(
    src: &[u32],
    result: &[u32],
    rows: usize,
    cols: usize,
) -> Result<(), VerifyError> {
    verify_exact_elems(src, result, rows, cols, 1)
}

/// [`verify_exact`] for super-elements of `elem_words` 32-bit words each
/// (e.g. 2 for `f64`): the permutation acts on element indices, each
/// element's words travel together. The comparison runs along the same
/// strip walk as [`host_transpose_elems`]; only a failed one rescans in
/// source order, to name the first wrong element.
///
/// # Errors
/// [`VerifyError`] naming the first mismatching element, or the sizes
/// when `src` and `result` are not both `rows × cols` elements (`rows`,
/// `cols` ≥ 1) of `elem_words` ≥ 1 words.
pub fn verify_exact_elems(
    src: &[u32],
    result: &[u32],
    rows: usize,
    cols: usize,
    elem_words: usize,
) -> Result<(), VerifyError> {
    let words = rows.checked_mul(cols).and_then(|n| n.checked_mul(elem_words));
    let Some(perm) = TransposePerm::try_new(rows, cols)
        .filter(|_| elem_words > 0 && words == Some(src.len()) && result.len() == src.len())
    else {
        return Err(VerifyError {
            stage: None,
            detail: format!(
                "{} source and {} result words are not {rows}×{cols} elements of \
                 {elem_words} words",
                src.len(),
                result.len()
            ),
        });
    };
    let same = match elem_words {
        1 => runs_match(src, result, rows, cols, 1),
        2 => runs_match(src, result, rows, cols, 2),
        w => runs_match(src, result, rows, cols, w),
    };
    if same {
        return Ok(());
    }
    // The walk does not visit elements in source order: name the first
    // wrong one in that order by Equation (1) itself.
    let detail = src
        .chunks_exact(elem_words)
        .enumerate()
        .find_map(|(k, chunk)| {
            let d = perm.dest(k);
            let got = &result[d * elem_words..(d + 1) * elem_words];
            (got != chunk).then(|| {
                format!(
                    "source element {k} should land at {d} with words {chunk:?}, found {got:?}"
                )
            })
        })
        .unwrap_or_else(|| "the strip walk and Equation (1) disagree".to_string());
    Err(VerifyError { stage: None, detail })
}

/// Host transposition of super-elements of `elem_words` words each, out
/// of place: one serial walk over strips of 64 source rows, column by
/// column, with fixed-width element moves for 1- and 2-word elements and
/// a slice copy for wider ones. It is the recovery chain's last rung,
/// stream's `HostChunk` rung, and serve's host shed and profiled replay.
/// A vector (`rows` or `cols` ≤ 1) comes back unchanged, since its
/// transpose is its own storage.
///
/// # Panics
/// If `src` is not `rows × cols` elements of `elem_words` ≥ 1 words.
#[must_use]
pub fn host_transpose_elems(
    src: &[u32],
    rows: usize,
    cols: usize,
    elem_words: usize,
) -> Vec<u32> {
    let words = rows.checked_mul(cols).and_then(|n| n.checked_mul(elem_words));
    assert!(
        elem_words > 0 && words == Some(src.len()),
        "{} words are not {rows}×{cols} elements of {elem_words} words",
        src.len()
    );
    let mut out = vec![0u32; src.len()];
    match elem_words {
        1 => copy_runs(src, &mut out, rows, cols, 1),
        2 => copy_runs(src, &mut out, rows, cols, 2),
        w => copy_runs(src, &mut out, rows, cols, w),
    }
    out
}

/// Source rows per strip of the host walk. A strip's column touches at
/// most 64 source lines, which stay in L1 while the walk reads the
/// strip's columns out one after another, and each output row receives a
/// contiguous run of 64 elements (256 bytes of `u32`). On the 2880×720
/// stream matrix, strips of 64 rows outran column strips, 2-D tiles and a
/// plain column gather (EXPERIMENTS.md, "host reference without a
/// modulo").
const STRIP_ROWS: usize = 64;

/// The runs of the host walk over a row-major `rows × cols` matrix, strip
/// by strip and column by column: `(to, from, n)` says that output
/// elements `to .. to + n` receive source elements `from`, `from + cols`,
/// … (`n` of them). Source `(i, j)` lands at `j·rows + i`, which is
/// Equation (1) with the modulus folded away:
/// `(i·cols + j)·rows ≡ j·rows + i (mod rows·cols − 1)`.
fn strip_runs(rows: usize, cols: usize) -> impl Iterator<Item = (usize, usize, usize)> {
    (0..rows).step_by(STRIP_ROWS).flat_map(move |r0| {
        let n = STRIP_ROWS.min(rows - r0);
        (0..cols).map(move |j| (j * rows + r0, r0 * cols + j, n))
    })
}

/// Copy `src` into `out` along [`strip_runs`], `w` words per element.
/// Always inlined, so a call with a constant `w` moves fixed-width
/// elements instead of calling `memcpy` per element.
#[inline(always)]
fn copy_runs(src: &[u32], out: &mut [u32], rows: usize, cols: usize, w: usize) {
    let stride = cols * w;
    for (to, from, n) in strip_runs(rows, cols) {
        let run = &src[from * w..];
        for (e, dst) in out[to * w..(to + n) * w].chunks_exact_mut(w).enumerate() {
            let at = e * stride;
            dst.copy_from_slice(&run[at..at + w]);
        }
    }
}

/// Whether `result` is the transposition of `src`, compared along
/// [`strip_runs`] word by word (a slice `==` per element calls `memcmp`).
/// Always inlined, like [`copy_runs`].
#[inline(always)]
fn runs_match(src: &[u32], result: &[u32], rows: usize, cols: usize, w: usize) -> bool {
    let stride = cols * w;
    for (to, from, n) in strip_runs(rows, cols) {
        let run = &src[from * w..];
        let same = result[to * w..(to + n) * w].chunks_exact(w).enumerate().all(|(e, got)| {
            let at = e * stride;
            got.iter().zip(&run[at..at + w]).all(|(a, b)| a == b)
        });
        if !same {
            return false;
        }
    }
    true
}

/// What a successful validated plan run spent on recovery.
#[derive(Debug, Clone, Copy, Default)]
struct StageRetryInfo {
    /// Retries spent across all stages.
    stage_retries: usize,
    /// Simulated seconds charged to failed attempts and backoff.
    penalty_s: f64,
}

/// Execute `plan` stage by stage with snapshot/validate/retry recovery.
///
/// Before each stage the data buffer is snapshotted to the host and its
/// multiset checksum recorded; after the stage the checksum must be
/// unchanged (a stage is a permutation). On a checksum break or an
/// injected kernel abort the snapshot is restored and the stage retried
/// (bounded by [`RecoveryPolicy::max_stage_retries`], with exponential
/// backoff charged to the penalty). Deterministic launch failures
/// (infeasible geometry) are returned immediately — re-running cannot
/// change them.
///
/// Successful stage attempts emit kernel-launch and stage spans on `rec`,
/// on the cumulative DES clock starting at `t0_s` (via [`run_stage_rec`]),
/// so a serving-layer trace context pushed around the chain captures
/// genuine device-level child spans.
#[allow(clippy::too_many_arguments)]
fn run_plan_validated<R: Recorder>(
    sim: &Sim,
    data: Buffer,
    flags: Buffer,
    plan: &StagePlan,
    opts: &GpuOptions,
    policy: &RecoveryPolicy,
    rec: &R,
    t0_s: f64,
) -> Result<(PipelineStats, StageRetryInfo), TransposeError> {
    let mut out = PipelineStats::default();
    let mut info = StageRetryInfo::default();
    for stage in &plan.stages {
        let snapshot = sim.download_u32(data);
        let want = multiset_checksum(&snapshot);
        let mut attempt = 0usize;
        loop {
            let stages_before = out.stages.len();
            let overhead_before = out.overhead_s;
            let start_s = t0_s + out.time_s();
            let failure: TransposeError =
                match run_stage_rec(sim, data, flags, stage, opts, &mut out, rec, start_s) {
                Ok(()) => {
                    let after = sim.download_u32(data);
                    if multiset_checksum(&after) == want {
                        break; // stage verified; next stage
                    }
                    TransposeError::Verify(VerifyError {
                        stage: Some(stage.describe.clone()),
                        detail: "multiset checksum changed across a permutation stage \
                                 (value overwritten, duplicated or corrupted)"
                            .into(),
                    })
                }
                Err(e @ (LaunchError::Aborted { .. } | LaunchError::Stalled { .. })) => e.into(),
                // Deterministic launch failures: no retry can change them.
                Err(e) => return Err(e.into()),
            };
            // Roll back: drop the failed attempt's stats (charging its
            // time as penalty) and restore the pre-stage snapshot.
            info.penalty_s += out.stages[stages_before..].iter().map(|s| s.time_s).sum::<f64>()
                + (out.overhead_s - overhead_before);
            out.stages.truncate(stages_before);
            out.overhead_s = overhead_before;
            sim.upload_u32(data, &snapshot);
            if attempt >= policy.max_stage_retries {
                return Err(TransposeError::RecoveryExhausted {
                    attempts: attempt + 1,
                    last: Box::new(failure),
                });
            }
            info.penalty_s += policy.backoff_s(attempt);
            info.stage_retries += 1;
            attempt += 1;
        }
    }
    Ok((out, info))
}

/// The in-place attempt at the head of the recovery chain. It decides
/// which rungs follow it.
#[derive(Clone, Copy)]
enum InPlace<'p> {
    /// An element-granular stage plan: validated per stage with retries,
    /// then re-run with conservative options.
    Staged(&'p StagePlan),
    /// The C2R passes: one span-silent attempt, no stage retry, no
    /// conservative re-run.
    C2R,
}

/// The chain's input checks: `elem_words` ≥ 1, a word count that fits the
/// address space, and a payload of exactly that many words.
fn check_input(
    host_data: &[u32],
    rows: usize,
    cols: usize,
    elem_words: usize,
) -> Result<(), TransposeError> {
    let what = if elem_words == 0 {
        "elem_words must be ≥ 1".to_string()
    } else {
        match ipt_core::check::checked_bytes(rows, cols, elem_words)
            .and_then(|w| usize::try_from(w).ok())
        {
            None => format!("{rows}×{cols}×{elem_words} words overflows the address space"),
            Some(words) if words != host_data.len() => format!(
                "host data has {} words but the matrix needs {words} ({rows}×{cols} elements \
                 of {elem_words} words)",
                host_data.len(),
            ),
            Some(_) => return Ok(()),
        }
    };
    Err(TransposeError::InvalidConfig { what })
}

/// Walk the rungs Primary → ConservativeOptions → OutOfPlace →
/// HostSequential below `head`, on input that passed [`check_input`].
/// Each rung after the primary starts from the restored input and runs
/// only when every rung above it failed.
#[allow(clippy::too_many_arguments)]
fn run_chain<R: Recorder>(
    sim: &mut Sim,
    host_data: &mut Vec<u32>,
    rows: usize,
    cols: usize,
    elem_words: usize,
    head: InPlace<'_>,
    opts: &GpuOptions,
    policy: &RecoveryPolicy,
    rec: &R,
    t0_s: f64,
) -> Result<(PipelineStats, RecoveryReport), TransposeError> {
    use RecoveryPath::{ConservativeOptions, HostSequential, OutOfPlace, Primary};
    let words = host_data.len();
    let alloc = |sim: &mut Sim, need: usize| {
        sim.try_alloc(need).ok_or(TransposeError::DeviceOom { need, free: sim.free_words() })
    };
    let mut primary_error = None;
    // The device rungs share one data buffer; a stage plan, scaled to
    // whole elements, adds its claim flags.
    let scaled;
    let (data, staged) = match head {
        InPlace::Staged(plan) => {
            let plan = if elem_words == 1 {
                plan
            } else {
                scaled = crate::pipeline::scale_plan_words(plan, elem_words);
                &scaled
            };
            let data = alloc(sim, words)?;
            let flags = alloc(sim, plan_flag_words(plan).max(1))?;
            (Some(data), Some((plan, flags)))
        }
        InPlace::C2R if elem_words == 1 => (Some(alloc(sim, words)?), None),
        // The C2R kernels move single words: wide elements have no device
        // rung, so nothing is allocated.
        InPlace::C2R => {
            if !policy.allow_fallback {
                return Err(TransposeError::InvalidConfig {
                    what: format!(
                        "c2r device kernels are word-granular; {elem_words}-word elements \
                         need the host fallback, which the policy disallows"
                    ),
                });
            }
            primary_error = Some(
                "c2r device kernels are word-granular; wide elements served by the host path"
                    .to_string(),
            );
            (None, None)
        }
    };
    let original = host_data.clone();
    let verified = |sim: &Sim, buf: Buffer| -> Result<Vec<u32>, TransposeError> {
        let result = sim.download_u32(buf);
        verify_exact_elems(&original, &result, rows, cols, elem_words)?;
        Ok(result)
    };

    let (path, stats, info, result) = 'walk: {
        if let Some(data) = data {
            sim.upload_u32(data, &original);
            for rung in [Primary, ConservativeOptions, OutOfPlace] {
                let attempt = match (rung, staged) {
                    (Primary | ConservativeOptions, Some((plan, flags))) => {
                        let conservative;
                        let opts = if rung == Primary {
                            opts
                        } else {
                            // A fresh, simpler execution: the retry budget
                            // resets.
                            sim.upload_u32(data, &original);
                            conservative = GpuOptions::baseline_for(sim.device());
                            &conservative
                        };
                        run_plan_validated(sim, data, flags, plan, opts, policy, rec, t0_s)
                            .and_then(|(stats, info)| Ok((stats, info, verified(sim, data)?)))
                    }
                    (Primary, None) => {
                        crate::c2r::transpose_c2r_on_device(sim, data, rows, cols, opts.wg_size)
                            .map_err(TransposeError::from)
                            .and_then(|stats| {
                                Ok((stats, StageRetryInfo::default(), verified(sim, data)?))
                            })
                    }
                    // The kernel moves single words and needs room for a
                    // second copy; no room just means keep degrading.
                    (OutOfPlace, _) if elem_words == 1 => {
                        sim.upload_u32(data, &original);
                        alloc(sim, words).and_then(|dst| {
                            let oop = crate::oop::OopTranspose { src: data, dst, rows, cols };
                            let stages = vec![sim.launch(&oop, &NoopRecorder, 0.0)?];
                            let result = verified(sim, dst)?;
                            sim.upload_u32(data, &result);
                            let stats = PipelineStats { stages, overhead_s: 0.0 };
                            Ok((stats, StageRetryInfo::default(), result))
                        })
                    }
                    _ => continue,
                };
                match attempt {
                    Ok((stats, info, result)) => break 'walk (rung, stats, info, result),
                    Err(e) if rung == Primary => {
                        if !policy.allow_fallback {
                            return Err(e);
                        }
                        primary_error = Some(e.to_string());
                    }
                    Err(_) => {}
                }
            }
        }
        // The host rung cannot fail.
        let result = host_transpose_elems(&original, rows, cols, elem_words);
        if let Some(data) = data {
            sim.upload_u32(data, &result);
        }
        (HostSequential, PipelineStats::default(), StageRetryInfo::default(), result)
    };
    *host_data = result;
    let report = RecoveryReport {
        stage_retries: info.stage_retries,
        penalty_s: info.penalty_s,
        faults: sim.fault_records(),
        primary_error,
        ..RecoveryReport::new(path)
    };
    Ok((stats, report))
}

/// Full in-place transposition under an explicit stage plan, verified
/// element-exact, with the whole recovery chain behind it: the plan with
/// `opts`, the plan with [`GpuOptions::baseline_for`], the out-of-place
/// kernel, the host.
///
/// Elements are `elem_words` 32-bit words each (1 for `f32`/`u32`, 2 for
/// `f64`). `plan` is element-granular and is scaled with
/// [`crate::pipeline::scale_plan_words`] before execution; validation and
/// verification act on whole elements. The out-of-place kernel moves
/// single words, so for `elem_words > 1` the chain skips from conservative
/// options to the host.
///
/// On success `host_data` holds the (verified) transposed matrix and the
/// report says which path delivered it; the device data buffer holds the
/// same verified result on every path.
///
/// # Errors
/// [`TransposeError`] when fallback is disallowed or the configuration is
/// unusable. With fallback enabled the function only fails on config
/// errors — the host-sequential tail cannot fail.
#[allow(clippy::too_many_arguments)]
pub fn transpose_with_recovery(
    sim: &mut Sim,
    host_data: &mut Vec<u32>,
    rows: usize,
    cols: usize,
    elem_words: usize,
    plan: &StagePlan,
    opts: &GpuOptions,
    policy: &RecoveryPolicy,
) -> Result<(PipelineStats, RecoveryReport), TransposeError> {
    check_input(host_data, rows, cols, elem_words)?;
    if plan.rows != rows || plan.cols != cols {
        return Err(TransposeError::InvalidConfig {
            what: format!(
                "plan `{}` was built for {}×{}, not {rows}×{cols}",
                plan.name, plan.rows, plan.cols
            ),
        });
    }
    let head = InPlace::Staged(plan);
    run_chain(sim, host_data, rows, cols, elem_words, head, opts, policy, &NoopRecorder, 0.0)
}

/// Execute a typed [`PlanDecision`](ipt_core::PlanDecision) with the full
/// recovery contract — the single entry point the serving layer uses, so
/// **every** scheme (including the degenerate and prime-shape
/// short-circuits) flows through verified recovery:
///
/// * [`Scheme::Identity`](ipt_core::Scheme): row/column vectors are their
///   own transpose in memory — the data is returned unchanged with a clean
///   report (nothing to verify, nothing can fail),
/// * [`Scheme::C2R`](ipt_core::Scheme): the C2R device passes with an
///   element-exact check; on failure the chain degrades to the
///   out-of-place kernel and then the host path,
/// * every staged scheme (`staged`, `gcd-tiled`, `square-tiled`): the
///   chain of [`transpose_with_recovery`] on the decision's plan.
///
/// `elem_words` is the element size in 32-bit words (1 for `f32`/`u32`,
/// 2 for `f64`). C2R device kernels are word-granular, so wide elements on
/// a C2R shape go straight to the (verified) host path.
///
/// # Errors
/// [`TransposeError`] on configuration errors, or any pipeline error when
/// `policy.allow_fallback` is off.
// `benchmark/` imports this name; it folds into the `_rec` form when the benchmark next changes.
#[allow(clippy::too_many_arguments)]
pub fn transpose_scheme_with_recovery(
    sim: &mut Sim,
    host_data: &mut Vec<u32>,
    rows: usize,
    cols: usize,
    elem_words: usize,
    decision: &ipt_core::PlanDecision,
    opts: &GpuOptions,
    policy: &RecoveryPolicy,
) -> Result<(PipelineStats, RecoveryReport), TransposeError> {
    transpose_scheme_with_recovery_rec(
        sim,
        host_data,
        rows,
        cols,
        elem_words,
        decision,
        opts,
        policy,
        &NoopRecorder,
        0.0,
    )
}

/// [`transpose_scheme_with_recovery`] instrumented with a [`Recorder`]:
/// staged-family schemes thread the recorder through validated recovery,
/// so kernel-launch spans land inside any ambient trace context the
/// serving layer pushed (C2R/identity short-circuits stay
/// span-silent; their outcome is still visible in the returned report).
/// With [`NoopRecorder`] this is exactly
/// [`transpose_scheme_with_recovery`].
///
/// # Errors
/// Same contract as [`transpose_scheme_with_recovery`].
// Kept beside the plain name `benchmark/` imports; the two fold when the benchmark next changes.
#[allow(clippy::too_many_arguments)]
pub fn transpose_scheme_with_recovery_rec<R: Recorder>(
    sim: &mut Sim,
    host_data: &mut Vec<u32>,
    rows: usize,
    cols: usize,
    elem_words: usize,
    decision: &ipt_core::PlanDecision,
    opts: &GpuOptions,
    policy: &RecoveryPolicy,
    rec: &R,
    t0_s: f64,
) -> Result<(PipelineStats, RecoveryReport), TransposeError> {
    use ipt_core::Scheme;
    check_input(host_data, rows, cols, elem_words)?;
    let plan;
    let head = match decision.scheme {
        // Degenerate short-circuit: a 1×n or m×1 matrix transposes to
        // itself in linear storage. No device work, no failure modes.
        Scheme::Identity => {
            return Ok((PipelineStats::default(), RecoveryReport::new(RecoveryPath::Primary)));
        }
        Scheme::C2R => InPlace::C2R,
        // Square-tiled, heuristic staged and gcd-tiled all execute as
        // (possibly degenerate) stage plans.
        Scheme::SquareTiled | Scheme::Staged | Scheme::GcdTiled => {
            plan = decision
                .staged_plan(rows, cols)
                .expect("staged-family schemes always yield a plan");
            InPlace::Staged(&plan)
        }
    };
    run_chain(sim, host_data, rows, cols, elem_words, head, opts, policy, rec, t0_s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{ChaosConfig, ChaosPlan, DeviceSpec, FaultKind, FaultPlan};
    use ipt_core::stages::TileConfig;
    use ipt_core::Matrix;

    fn plan_72x60() -> StagePlan {
        StagePlan::three_stage(72, 60, TileConfig::new(12, 10)).unwrap()
    }

    /// The 72×60 3-stage plan through the chain on a K20 of `capacity`
    /// words (default: data + flags + 64), with `fault` armed. A success
    /// must deliver the exact transpose.
    fn run_72x60(
        capacity: Option<usize>,
        fault: Option<FaultPlan>,
        policy: RecoveryPolicy,
    ) -> Result<(PipelineStats, RecoveryReport), TransposeError> {
        let plan = plan_72x60();
        let capacity = capacity.unwrap_or(72 * 60 + plan_flag_words(&plan).max(1) + 64);
        let mut sim = Sim::new(DeviceSpec::tesla_k20(), capacity);
        if let Some(f) = fault {
            sim.set_fault_plan(f);
        }
        let opts = GpuOptions::tuned_for(sim.device());
        let mut data = Matrix::iota(72, 60).into_vec();
        let out = transpose_with_recovery(&mut sim, &mut data, 72, 60, 1, &plan, &opts, &policy);
        if out.is_ok() {
            assert_eq!(data, Matrix::iota(72, 60).transposed().into_vec());
        }
        out
    }

    fn no_retries(allow_fallback: bool) -> RecoveryPolicy {
        RecoveryPolicy { max_stage_retries: 0, allow_fallback, ..RecoveryPolicy::default() }
    }

    #[test]
    fn clean_run_takes_primary_path() {
        let (stats, report) = run_72x60(None, None, RecoveryPolicy::default()).unwrap();
        assert!(report.clean(), "{report:?}");
        assert_eq!(stats.stages.len(), 3);
    }

    #[test]
    fn size_mismatch_is_invalid_config() {
        let plan = plan_72x60();
        let mut sim = Sim::new(DeviceSpec::tesla_k20(), 2 * 72 * 60);
        let opts = GpuOptions::tuned_for(sim.device());
        let policy = RecoveryPolicy::default();
        let mut data = vec![0u32; 10];
        let err = transpose_with_recovery(&mut sim, &mut data, 72, 60, 1, &plan, &opts, &policy)
            .unwrap_err();
        assert!(matches!(err, TransposeError::InvalidConfig { .. }), "{err}");
    }

    #[test]
    fn wrong_plan_shape_is_invalid_config() {
        let plan = plan_72x60();
        let mut sim = Sim::new(DeviceSpec::tesla_k20(), 48 * 90 + 4096);
        let opts = GpuOptions::tuned_for(sim.device());
        let policy = RecoveryPolicy::default();
        let mut data = Matrix::iota(48, 90).into_vec();
        let err = transpose_with_recovery(&mut sim, &mut data, 48, 90, 1, &plan, &opts, &policy)
            .unwrap_err();
        assert!(matches!(err, TransposeError::InvalidConfig { .. }), "{err}");
    }

    #[test]
    fn oom_is_typed() {
        let err = run_72x60(Some(16), None, RecoveryPolicy::default()).unwrap_err();
        assert!(matches!(err, TransposeError::DeviceOom { .. }), "{err}");
    }

    #[test]
    fn kernel_abort_recovers_by_stage_retry() {
        // Abort the kernel early: the stage snapshot is restored and the
        // stage retried; the fault is single-shot so the retry is clean.
        let fault = FaultPlan::exact(7, FaultKind::AbortKernel, 5, 0);
        let (_, report) = run_72x60(None, Some(fault), RecoveryPolicy::default()).unwrap();
        assert_eq!(report.path, RecoveryPath::Primary);
        assert!(report.stage_retries >= 1, "{report:?}");
        assert!(report.penalty_s > 0.0);
        assert_eq!(report.faults.len(), 1);
        assert_eq!(report.faults[0].kind, FaultKind::AbortKernel);
    }

    #[test]
    fn dropped_global_atomic_recovers() {
        let fault = FaultPlan::exact(11, FaultKind::DropGlobalAtomic, 3, 0);
        let (_, report) = run_72x60(None, Some(fault), RecoveryPolicy::default()).unwrap();
        // A dropped claim corrupts data (caught by checksum → stage retry)
        // or goes unnoticed if the double-claim happened to be benign.
        assert!(report.faults.len() <= 1);
    }

    #[test]
    fn no_fallback_policy_surfaces_the_error() {
        // Keep aborting: trigger 1 fires almost immediately; with retries
        // at 0 the primary path dies and fallback is disallowed.
        let fault = FaultPlan::exact(3, FaultKind::AbortKernel, 1, 0);
        let err = run_72x60(None, Some(fault), no_retries(false)).unwrap_err();
        assert!(matches!(err, TransposeError::RecoveryExhausted { .. }), "{err}");
    }

    #[test]
    fn exhausted_retries_fall_back_and_still_verify() {
        // Zero retries: the abort exhausts the primary path instantly, but
        // the fault is consumed, so the conservative re-run succeeds.
        let fault = FaultPlan::exact(3, FaultKind::AbortKernel, 1, 0);
        let (_, report) = run_72x60(None, Some(fault), no_retries(true)).unwrap();
        assert_eq!(report.path, RecoveryPath::ConservativeOptions);
        assert!(report.primary_error.is_some());
    }

    #[test]
    fn device_failures_land_on_out_of_place_or_host() {
        // Every in-place device attempt aborts at its first warp step (one
        // fault per attempt, no stage retries), then the fault budget is
        // spent: the out-of-place kernel runs clean when a second copy
        // fits, and the host takes over when it does not.
        let dev = DeviceSpec::tesla_k20();
        let opts = GpuOptions::tuned_for(&dev);
        let plan = plan_72x60();
        let c2r = decide(127, 61);
        assert_eq!(c2r.scheme, ipt_core::Scheme::C2R);
        let c2r_scratch = crate::c2r::c2r_scratch_words(&dev, 127, 61, opts.wg_size);
        // (head, rows, cols, device attempts to kill, words held besides the data)
        let cases = [
            (InPlace::Staged(&plan), 72, 60, 2, plan_flag_words(&plan).max(1)),
            (InPlace::C2R, 127, 61, 1, c2r_scratch),
        ];
        for (head, rows, cols, kills, held) in cases {
            for room in [true, false] {
                let run = |allow_fallback: bool| {
                    let second_copy = if room { rows * cols } else { 0 };
                    let mut sim = Sim::new(dev.clone(), rows * cols + held + second_copy + 64);
                    // No transfer faults; every warp step aborts, up to `kills`.
                    let chaos =
                        ChaosConfig { abort_rate: 1.0, ..ChaosConfig::transfers(0.0, 0.0, kills) };
                    sim.set_chaos_plan(ChaosPlan::new(5, chaos));
                    let policy = no_retries(allow_fallback);
                    let mut data = Matrix::iota(rows, cols).into_vec();
                    let out = match head {
                        InPlace::Staged(plan) => transpose_with_recovery(
                            &mut sim, &mut data, rows, cols, 1, plan, &opts, &policy,
                        ),
                        InPlace::C2R => transpose_scheme_with_recovery(
                            &mut sim, &mut data, rows, cols, 1, &c2r, &opts, &policy,
                        ),
                    };
                    out.map(|(stats, report)| (stats, report, data))
                };
                let case = format!("{rows}x{cols} room={room}");
                let (stats, report, data) = run(true).unwrap();
                assert_eq!(data, Matrix::iota(rows, cols).transposed().into_vec(), "{case}");
                let (want_path, want_stages) = if room {
                    (RecoveryPath::OutOfPlace, 1)
                } else {
                    (RecoveryPath::HostSequential, 0)
                };
                assert_eq!(report.path, want_path, "{case}");
                assert_eq!(stats.stages.len(), want_stages, "{case}");
                assert_eq!(report.faults.len(), kills, "{case}");
                assert_eq!((report.stage_retries, report.penalty_s), (0, 0.0), "{case}");
                let primary_error = report.primary_error.expect("primary error recorded");
                // Without fallback the primary's own error comes back.
                let err = run(false).unwrap_err();
                assert_eq!(err.to_string(), primary_error, "{case}");
            }
        }
    }

    #[test]
    fn multiset_checksum_properties() {
        let a = [1u32, 2, 3, 4, 5];
        let b = [5u32, 4, 3, 2, 1]; // permutation → equal
        let c = [1u32, 2, 3, 4, 4]; // overwrite → different
        assert_eq!(multiset_checksum(&a), multiset_checksum(&b));
        assert_ne!(multiset_checksum(&a), multiset_checksum(&c));
        // A swap of two values is invisible to the multiset (by design —
        // that is the final exact check's job).
        let d = [2u32, 1, 3, 4, 5];
        assert_eq!(multiset_checksum(&a), multiset_checksum(&d));
    }

    #[test]
    fn seeded_backoff_is_jittered_and_reproducible() {
        let p0 = RecoveryPolicy::default();
        let p1 = RecoveryPolicy::default().with_seed(42);
        let p2 = RecoveryPolicy::default().with_seed(42);
        let p3 = RecoveryPolicy::default().with_seed(43);
        // Seed 0: historic pure exponential.
        assert_eq!(p0.backoff_s(0), 1e-4);
        assert_eq!(p0.backoff_s(3), 8e-4);
        for attempt in 0..8 {
            let base = p0.backoff_s(attempt);
            let j = p1.backoff_s(attempt);
            assert!(j >= base && j < 2.0 * base, "attempt {attempt}: {j} vs base {base}");
            assert_eq!(j, p2.backoff_s(attempt), "same seed must reproduce");
        }
        assert_ne!(p1.backoff_s(1), p3.backoff_s(1), "different seeds should differ");
    }

    #[test]
    fn host_transpose_is_exact() {
        let src = Matrix::iota(7, 13).into_vec();
        let out = host_transpose_elems(&src, 7, 13, 1);
        assert_eq!(out, Matrix::iota(7, 13).transposed().into_vec());
        verify_exact(&src, &out, 7, 13).unwrap();
    }

    #[test]
    fn verify_rejects_malformed_input_without_panicking() {
        let src = Matrix::iota(7, 13).into_vec();
        let out = host_transpose_elems(&src, 7, 13, 1);
        // A correct transposition truncated by one element, on either side.
        assert!(verify_exact(&src, &out[..out.len() - 1], 7, 13).is_err());
        assert!(verify_exact(&src[..src.len() - 1], &out, 7, 13).is_err());
        // Zero-word elements, and a degenerate shape.
        assert!(verify_exact_elems(&src, &out, 7, 13, 0).is_err());
        assert!(verify_exact(&[], &[], 0, 13).is_err());
        verify_exact(&src, &out, 7, 13).unwrap();
    }

    #[test]
    fn elems_host_transpose_moves_whole_elements() {
        // 3×5 of 2-word elements: words [2k, 2k+1] must travel together.
        let src: Vec<u32> = (0..30).collect();
        let out = host_transpose_elems(&src, 3, 5, 2);
        let perm = TransposePerm::new(3, 5);
        for k in 0..15 {
            let d = perm.dest(k);
            assert_eq!(out[2 * d], src[2 * k]);
            assert_eq!(out[2 * d + 1], src[2 * k + 1]);
        }
        verify_exact_elems(&src, &out, 3, 5, 2).unwrap();
        // A torn element (words swapped) must fail element verification.
        let mut torn = out.clone();
        torn.swap(0, 1);
        assert!(verify_exact_elems(&src, &torn, 3, 5, 2).is_err());
    }

    fn decide(rows: usize, cols: usize) -> ipt_core::PlanDecision {
        ipt_core::decide_scheme(rows, cols, &ipt_core::TileHeuristic::default())
    }

    /// `d` through the chain on a K20 of `capacity` words, for counting
    /// data in `elem_words`-word elements; the result must be exact.
    fn run_scheme(
        d: &ipt_core::PlanDecision,
        rows: usize,
        cols: usize,
        elem_words: usize,
        capacity: usize,
    ) -> (PipelineStats, RecoveryReport) {
        let mut sim = Sim::new(DeviceSpec::tesla_k20(), capacity);
        let opts = GpuOptions::tuned_for(sim.device());
        let policy = RecoveryPolicy::default();
        let src: Vec<u32> = (0..(rows * cols * elem_words) as u32).collect();
        let mut data = src.clone();
        let out = transpose_scheme_with_recovery(
            &mut sim, &mut data, rows, cols, elem_words, d, &opts, &policy,
        )
        .unwrap();
        assert_eq!(data, host_transpose_elems(&src, rows, cols, elem_words));
        out
    }

    #[test]
    fn scheme_recovery_identity_short_circuits() {
        let d = decide(1, 513);
        assert_eq!(d.scheme, ipt_core::Scheme::Identity);
        // A deliberately tiny device: the identity path must not need it.
        // A 1×n matrix transposes to itself in storage.
        let (stats, report) = run_scheme(&d, 1, 513, 1, 4);
        assert!(report.clean(), "{report:?}");
        assert!(stats.stages.is_empty(), "no kernels ran");
    }

    #[test]
    fn scheme_recovery_c2r_runs_on_device() {
        // The planner routes prime shapes to the C2R decomposition now.
        let (r, c) = (127, 61);
        let d = decide(r, c);
        assert_eq!(d.scheme, ipt_core::Scheme::C2R);
        let (stats, report) = run_scheme(&d, r, c, 1, 2 * r * c + 64);
        assert_eq!(report.path, RecoveryPath::Primary);
        assert_eq!(stats.stages.len(), 2, "gcd = 1: row shuffle + column shuffle");
    }

    #[test]
    fn scheme_recovery_c2r_handles_nontrivial_gcd_on_device() {
        // 122×183 has gcd 61, so the rotate pass is live: three stages.
        let (r, c) = (122, 183);
        let d = ipt_core::PlanDecision {
            scheme: ipt_core::Scheme::C2R,
            reason: ipt_core::FallbackReason::NoFeasibleTile { rows: r, cols: c },
            tile: None,
        };
        let (stats, report) = run_scheme(&d, r, c, 1, 2 * r * c + 64);
        assert_eq!(report.path, RecoveryPath::Primary);
        assert_eq!(stats.stages.len(), 3, "gcd > 1: rotate + row shuffle + column shuffle");
    }

    #[test]
    fn scheme_recovery_c2r_wide_elements_use_verified_host_path() {
        let (r, c) = (127, 61);
        let (_, report) = run_scheme(&decide(r, c), r, c, 2, 2 * 2 * r * c + 64);
        assert_eq!(report.path, RecoveryPath::HostSequential);
        assert!(report.primary_error.is_some(), "fallback is recorded, never silent");
    }

    #[test]
    fn scheme_recovery_prime_square_degrades_to_single_stage_plan() {
        // 61 is prime and 61² exceeds the tile budget → square-tiled scheme
        // with no tile, executed as a verified single-stage plan.
        let d = decide(61, 61);
        assert_eq!(d.scheme, ipt_core::Scheme::SquareTiled);
        assert_eq!(d.tile, None);
        let (_, report) = run_scheme(&d, 61, 61, 1, 4 * 61 * 61 + 16_384);
        assert!(report.clean(), "{report:?}");
    }

    #[test]
    fn wide_element_staged_recovery_verifies() {
        let plan = plan_72x60();
        let mut sim = Sim::new(DeviceSpec::tesla_k20(), 4 * 72 * 60 + 32_768);
        let opts = GpuOptions::tuned_for(sim.device());
        let policy = RecoveryPolicy::default();
        let mut data: Vec<u32> = (0..2 * 72 * 60).map(|x| (x * 7 + 3) as u32).collect();
        let original = data.clone();
        let (_, report) =
            transpose_with_recovery(&mut sim, &mut data, 72, 60, 2, &plan, &opts, &policy)
                .unwrap();
        assert_eq!(data, host_transpose_elems(&original, 72, 60, 2));
        assert!(report.clean(), "{report:?}");
    }
}
