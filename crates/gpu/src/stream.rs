//! Out-of-core streaming transposition with checkpointed chunk recovery.
//!
//! The paper's schemes assume the whole matrix is resident in device global
//! memory. This module lifts that assumption: a matrix exceeding the
//! device-memory budget is cut into row-band ASTA panels by
//! [`ipt_core::outofcore::plan_chunks`] and pipelined
//! H2D → transpose kernels → D2H across the Tesla K20's two copy engines
//! (the §6 DES machinery in [`gpu_sim::queue`]), double-buffered so chunk
//! `i+1` uploads while chunk `i` computes and chunk `i−1` downloads.
//!
//! The pipeline is **crash-consistent**: a [`ChunkJournal`] tracks every
//! chunk through `Pending → Staged → Transposed → Committed` with a
//! permutation-invariant multiset checksum per chunk. Any transient H2D/D2H
//! fault, kernel abort, or mid-stream engine crash is recovered by
//!
//! 1. capped-exponential retry with seeded jitter (the PR 1
//!    [`RecoveryPolicy`] backoff),
//! 2. chunk-granular rollback to the last `Committed` boundary (a chunk
//!    redoes its own upload/kernel/download; committed chunks are never
//!    re-transferred),
//! 3. a degradation ladder `Overlapped → SingleEngine → HostChunk` whose
//!    last rung transposes the chunk on the host — the PR 1
//!    sequential-host guarantee, which cannot fail.
//!
//! Never a torn matrix (the output is only assembled from committed
//! chunks), never a silent re-commit (a second `commit` of the same chunk
//! is a typed [`TransposeError::Journal`] error).
//!
//! The performance contract follows the FPGA transposition roofline
//! (SNIPPETS.md snippet 3): with full overlap, throughput is bounded by the
//! busiest engine — `roofline_s = max(Σ H2D, Σ D2H, Σ kernel)` — and the
//! `repro outofcore` experiment gates achieved throughput at ≥ 70% of that
//! bound.

use crate::host::record_transfer_fault;
use crate::opts::GpuOptions;
use crate::recover::{
    host_transpose_elems, multiset_checksum, transpose_scheme_with_recovery_rec, RecoveryPolicy,
    TransposeError,
};
use gpu_sim::fault::{FaultKind, FaultPlan, FaultSource};
use gpu_sim::queue::{simulate_device, Cmd, EngineCrash, QueueError, Timeline};
use gpu_sim::{ChaosPlan, DeviceSpec, Sim};
use ipt_core::check;
use ipt_core::outofcore::{plan_chunks, ChunkPlan};
use ipt_core::{decide_scheme, TileHeuristic};
use ipt_obs::{Counter, Level, Recorder};
use serde::Serialize;

/// Modelled host-fallback bandwidth for the ladder's last rung, GB/s.
/// Deliberately far below any device path: landing on `HostChunk` must be
/// visible in the throughput numbers, not hidden.
const HOST_FALLBACK_GBPS: f64 = 1.0;

/// Configuration of one streaming run. Each chunk runs the device's
/// §7.4 scheme decision ([`TileHeuristic::default`]) under
/// [`GpuOptions::tuned_for`] the device, and retries, backs off and falls
/// back under [`RecoveryPolicy::default`].
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Usable device global memory, in u32 words. The planner splits this
    /// across two ping-pong chunk buffers.
    pub budget_words: u64,
}

impl StreamConfig {
    /// A run with `budget_words` of device memory.
    // `_dev` is kept only because `benchmark/` passes it; it goes when the
    // benchmark next changes.
    #[must_use]
    pub fn new(_dev: &DeviceSpec, budget_words: u64) -> Self {
        Self { budget_words }
    }
}

/// Lifecycle of one chunk in the journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum ChunkState {
    /// Not yet uploaded (or rolled back after a fault).
    Pending,
    /// H2D transfer completed; chunk resident on the device.
    Staged,
    /// Kernel pipeline completed and checksum-verified on the device.
    Transposed,
    /// D2H transfer completed and scattered into the output — durable.
    Committed,
}

/// One chunk's journal entry.
#[derive(Debug, Clone, Serialize)]
pub struct ChunkRecord {
    /// Chunk index in plan order.
    pub index: usize,
    /// First row of the band.
    pub row0: usize,
    /// Rows in the band.
    pub rows: usize,
    /// Current lifecycle state.
    pub state: ChunkState,
    /// Multiset checksum of the band's words (permutation-invariant, so it
    /// holds across the transpose).
    pub checksum: (u64, u64),
    /// Upload/kernel/download attempts spent on this chunk (1 = clean).
    pub attempts: usize,
    /// Ladder rung that finally committed the chunk.
    pub path: StreamPath,
}

/// The degradation ladder, in order. Global and monotonic: once a rung is
/// abandoned the stream never climbs back within a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub enum StreamPath {
    /// Double-buffered across both copy engines (the contract path).
    Overlapped,
    /// Serialized on one queue: no overlap, same transfers.
    SingleEngine,
    /// Chunk transposed on the host — no device transfers at all. The PR 1
    /// sequential-host guarantee: cannot fail.
    HostChunk,
}

impl std::fmt::Display for StreamPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            StreamPath::Overlapped => "overlapped",
            StreamPath::SingleEngine => "single-engine",
            StreamPath::HostChunk => "host-chunk",
        })
    }
}

/// Crash-consistency journal: per-chunk state machine with enforced
/// transitions. Illegal transitions — above all a second commit of a
/// committed chunk, which would duplicate a transfer into the output —
/// are typed [`TransposeError::Journal`] errors, never silent.
#[derive(Debug, Clone, Serialize)]
pub struct ChunkJournal {
    /// Entries, one per chunk, in plan order.
    pub chunks: Vec<ChunkRecord>,
}

impl ChunkJournal {
    /// Fresh journal for a plan: every chunk `Pending`.
    #[must_use]
    pub fn new(plan: &ChunkPlan) -> Self {
        let chunks = (0..plan.num_chunks)
            .map(|i| {
                let (row0, rows) = plan.chunk_range(i);
                ChunkRecord {
                    index: i,
                    row0,
                    rows,
                    state: ChunkState::Pending,
                    checksum: (0, 0),
                    attempts: 0,
                    path: StreamPath::Overlapped,
                }
            })
            .collect();
        Self { chunks }
    }

    fn transition(
        &mut self,
        i: usize,
        from: ChunkState,
        to: ChunkState,
    ) -> Result<(), TransposeError> {
        let cur = self.chunks[i].state;
        if cur != from {
            return Err(TransposeError::Journal {
                chunk: i,
                what: format!("cannot move {cur:?} → {to:?} (requires {from:?})"),
            });
        }
        self.chunks[i].state = to;
        Ok(())
    }

    /// `Pending → Staged`: the band's H2D completed. Records the band
    /// checksum and charges one attempt.
    ///
    /// # Errors
    /// [`TransposeError::Journal`] unless the chunk is `Pending`.
    pub fn stage(&mut self, i: usize, checksum: (u64, u64)) -> Result<(), TransposeError> {
        self.transition(i, ChunkState::Pending, ChunkState::Staged)?;
        self.chunks[i].checksum = checksum;
        self.chunks[i].attempts += 1;
        Ok(())
    }

    /// `Staged → Transposed`: kernels done, device-side checksum matches.
    ///
    /// # Errors
    /// [`TransposeError::Journal`] unless the chunk is `Staged`.
    pub fn transposed(&mut self, i: usize) -> Result<(), TransposeError> {
        self.transition(i, ChunkState::Staged, ChunkState::Transposed)
    }

    /// `Transposed → Committed`: D2H completed, band scattered into the
    /// output. Committing a committed chunk is the one transition the
    /// journal exists to forbid.
    ///
    /// # Errors
    /// [`TransposeError::Journal`] unless the chunk is `Transposed`.
    pub fn commit(&mut self, i: usize, path: StreamPath) -> Result<(), TransposeError> {
        if self.chunks[i].state == ChunkState::Committed {
            return Err(TransposeError::Journal {
                chunk: i,
                what: "already committed: refusing duplicate commit".into(),
            });
        }
        self.transition(i, ChunkState::Transposed, ChunkState::Committed)?;
        self.chunks[i].path = path;
        Ok(())
    }

    /// Roll an in-flight chunk back to `Pending` (fault recovery). A
    /// committed chunk cannot be rolled back — it is durable.
    ///
    /// # Errors
    /// [`TransposeError::Journal`] when the chunk is `Committed`.
    pub fn rollback(&mut self, i: usize) -> Result<(), TransposeError> {
        if self.chunks[i].state == ChunkState::Committed {
            return Err(TransposeError::Journal {
                chunk: i,
                what: "committed chunks are durable: refusing rollback".into(),
            });
        }
        self.chunks[i].state = ChunkState::Pending;
        Ok(())
    }

    /// Index of the first chunk not yet committed — the resume point after
    /// a crash. `None` when everything is durable.
    #[must_use]
    pub fn first_uncommitted(&self) -> Option<usize> {
        self.chunks.iter().position(|c| c.state != ChunkState::Committed)
    }

    /// All chunks durable?
    #[must_use]
    pub fn all_committed(&self) -> bool {
        self.first_uncommitted().is_none()
    }

    /// Serialize the journal (crash-recovery artifact for the campaign).
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_else(|_| "{}".into())
    }
}

/// Fault campaign modes for one streaming run.
#[derive(Debug)]
pub enum StreamChaos {
    /// Fault-free reference run.
    None,
    /// A single-shot transfer fault (seeded [`FaultPlan`] with a
    /// `FailH2D`/`FailD2H` kind).
    TransferOnce(FaultPlan),
    /// Sustained per-queue transfer chaos (seeded [`ChaosPlan`], normally
    /// built with [`gpu_sim::fault::ChaosConfig::transfers`]).
    TransferChaos(ChaosPlan),
    /// Abort the kernel pipeline of one chunk (recovered in place by the
    /// PR 1 stage-retry chain).
    KernelAbort {
        /// Target chunk index.
        chunk: usize,
        /// Seed for the abort trigger point.
        seed: u64,
    },
    /// Kill one engine at `frac` of committed progress: chunks committed
    /// before the crash stay durable, the stream resumes from the journal's
    /// first uncommitted chunk in a fresh session.
    EngineCrashAt {
        /// Engine that dies (0 = H2D copy, 1 = D2H copy, 2 = compute).
        engine: usize,
        /// Progress fraction in `[0, 1)` at which it dies.
        frac: f64,
    },
}

/// Everything a streaming run reports.
#[derive(Debug, Clone, Serialize)]
pub struct StreamReport {
    /// Final (lowest) ladder rung any chunk needed.
    pub path: StreamPath,
    /// Chunks in the plan.
    pub num_chunks: usize,
    /// Rows per band.
    pub chunk_rows: usize,
    /// End-to-end simulated seconds (DES makespan + retry penalties +
    /// crash-resume session costs).
    pub total_s: f64,
    /// Bandwidth-bound roofline seconds: `max(Σ H2D, Σ D2H, Σ kernel)`.
    pub roofline_s: f64,
    /// Paper-convention achieved throughput, GB/s (`2·bytes / total_s`).
    pub effective_gbps: f64,
    /// Roofline throughput, GB/s.
    pub roofline_gbps: f64,
    /// `roofline_s / total_s` — 1.0 means perfect overlap, the
    /// `repro outofcore` gate demands ≥ 0.70 fault-free.
    pub overlap_efficiency: f64,
    /// Chunk-granular redo count (transfer faults + kernel aborts).
    pub chunk_retries: usize,
    /// Transient transfer faults observed (and retried).
    pub transfer_faults: usize,
    /// Kernel-pipeline faults recovered inside a chunk.
    pub kernel_faults: usize,
    /// Mid-stream crash resume sessions.
    pub crash_resumes: usize,
    /// Degradation-ladder steps taken.
    pub degradations: usize,
    /// Simulated seconds charged to backoff + wasted transfers.
    pub penalty_s: f64,
    /// The full per-chunk journal (campaign artifact).
    pub journal: ChunkJournal,
}

/// Transpose a `rows × cols` matrix of `elem_words`-word elements that does
/// not fit in `cfg.budget_words` of device memory, streaming row-band
/// chunks through the device. Returns the transposed matrix (assembled
/// exclusively from committed chunks) and the run report.
///
/// # Errors
/// Typed configuration/planning errors up front; [`TransposeError`] when
/// even the ladder's host rung cannot produce a verified result (which it
/// always can — so in practice only configuration errors and journal
/// violations escape).
// `benchmark/` imports this name, so the `_rec` suffix stays until the benchmark next changes.
#[allow(clippy::too_many_arguments)]
#[allow(clippy::too_many_lines)]
pub fn stream_transpose_rec<R: Recorder>(
    dev: &DeviceSpec,
    data: &[u32],
    rows: usize,
    cols: usize,
    elem_words: usize,
    cfg: &StreamConfig,
    chaos: &StreamChaos,
    rec: &R,
) -> Result<(Vec<u32>, StreamReport), TransposeError> {
    let total_words = check::checked_words(rows, cols)
        .and_then(|w| w.checked_mul(elem_words as u64))
        .ok_or_else(|| TransposeError::InvalidConfig {
            what: format!("{rows}x{cols}x{elem_words} overflows u64 words"),
        })?;
    if data.len() as u64 != total_words {
        return Err(TransposeError::InvalidConfig {
            what: format!("data has {} words, shape needs {total_words}", data.len()),
        });
    }
    let plan = plan_chunks(rows, cols, elem_words, cfg.budget_words, 2)
        .map_err(|e| TransposeError::InvalidConfig { what: e.to_string() })?;
    let mut journal = ChunkJournal::new(&plan);
    let mut out = vec![0u32; data.len()];
    let row_words = cols * elem_words;
    let total_bytes = check::bytes_f64(rows, cols, 4 * elem_words);

    let fault: Option<&dyn FaultSource> = match chaos {
        StreamChaos::TransferOnce(p) => Some(p),
        StreamChaos::TransferChaos(p) => Some(p),
        _ => None,
    };
    if let Some(f) = fault {
        f.set_context("stream");
    }

    let mut path = StreamPath::Overlapped;
    let mut st = Tally::default();
    let mut kernel_s = vec![0.0f64; plan.num_chunks];

    // Mid-stream crash: everything before the boundary chunk commits in
    // session 1, the engine dies, and session 2 resumes from the journal.
    let crash_boundary = match chaos {
        StreamChaos::EngineCrashAt { frac, .. } => {
            let k = ((plan.num_chunks as f64) * frac.clamp(0.0, 0.99)) as usize;
            Some(k.min(plan.num_chunks.saturating_sub(1)))
        }
        _ => None,
    };

    process_chunks(
        dev,
        data,
        &mut out,
        &plan,
        chaos,
        fault,
        rec,
        &mut journal,
        &mut path,
        &mut st,
        &mut kernel_s,
        0,
        crash_boundary.unwrap_or(plan.num_chunks),
        row_words,
        rows,
        elem_words,
    )?;

    let mut total_s;
    if let (Some(boundary), StreamChaos::EngineCrashAt { engine, .. }) = (crash_boundary, chaos) {
        // Session 1 ends when its last committed D2H completes; the engine
        // dies at that instant. Validate the DES event against the full
        // planned schedule (unprocessed chunks estimated at the mean kernel
        // time seen so far) — the crash must actually preempt it.
        let pre_tl = simulate_stream(dev, &plan, &kernel_s, path, 0, boundary)?;
        let at_s = pre_tl.total_s;
        let mean_k = if boundary == 0 {
            1e-4
        } else {
            kernel_s[..boundary].iter().sum::<f64>() / boundary as f64
        };
        let mut est = kernel_s.clone();
        for k in est.iter_mut().skip(boundary) {
            *k = mean_k;
        }
        let full_queues = stream_queues(dev, &plan, &est, path, 0, plan.num_chunks);
        let crash = EngineCrash { engine: *engine, at_s };
        match simulate_device(dev, &full_queues, None, Some(crash)) {
            Err(QueueError::EngineCrash { .. }) => {}
            Ok(_) => {
                // Degenerate schedule (e.g. crash boundary at the very end):
                // nothing left for the crash to preempt. Still a resume.
            }
            Err(e) => return Err(e.into()),
        }
        st.crash_resumes += 1;
        rec.add("stream", Counter::StreamCrashResumes, 1);
        if rec.enabled() {
            rec.event(
                at_s * 1e6,
                "engine_crash",
                &format!(
                    "engine {engine} died at {:.3} ms; resuming from chunk {}",
                    at_s * 1e3,
                    journal.first_uncommitted().map_or(plan.num_chunks, |i| i)
                ),
            );
        }
        // Session 2: resume from the first uncommitted chunk. Committed
        // chunks are never re-transferred — the resume queues only carry
        // the remainder.
        let resume_from = journal.first_uncommitted().unwrap_or(plan.num_chunks);
        process_chunks(
            dev,
            data,
            &mut out,
            &plan,
            chaos,
            fault,
            rec,
            &mut journal,
            &mut path,
            &mut st,
            &mut kernel_s,
            resume_from,
            plan.num_chunks,
            row_words,
            rows,
            elem_words,
        )?;
        let resume_tl =
            simulate_stream(dev, &plan, &kernel_s, path, resume_from, plan.num_chunks)?;
        total_s = at_s + resume_tl.total_s; // fresh session pays setup again
        resume_tl.record(rec, at_s, &["H2D", "D2H", "GPU"]);
    } else {
        let tl = simulate_stream(dev, &plan, &kernel_s, path, 0, plan.num_chunks)?;
        total_s = tl.total_s;
        tl.record(rec, 0.0, &["H2D", "D2H", "GPU"]);
    }
    total_s += st.penalty_s;

    if !journal.all_committed() {
        return Err(TransposeError::Journal {
            chunk: journal.first_uncommitted().unwrap_or(0),
            what: "stream finished with uncommitted chunks".into(),
        });
    }

    // Snippet-3 roofline: with full overlap the busiest engine bounds the
    // pipeline — per-direction transfer sums vs total kernel time.
    let dir_s: f64 = (0..plan.num_chunks)
        .map(|i| dev.pcie.transfer_time(4.0 * plan.chunk_words(i) as f64))
        .sum();
    let kern_s: f64 = kernel_s.iter().sum();
    let roofline_s = dir_s.max(kern_s).max(f64::MIN_POSITIVE);
    let effective_gbps = 2.0 * total_bytes / total_s / 1e9;
    let roofline_gbps = 2.0 * total_bytes / roofline_s / 1e9;
    let overlap_efficiency = roofline_s / total_s;

    rec.gauge("stream", "achieved_gbps", effective_gbps);
    rec.gauge("stream", "roofline_gbps", roofline_gbps);
    rec.gauge("stream", "overlap_efficiency", overlap_efficiency);
    rec.gauge("stream", "bytes_in_flight", 2.0 * 4.0 * plan.chunk_words(0) as f64);
    if rec.enabled() {
        rec.span(
            Level::Algorithm,
            "stream-transpose",
            0.0,
            total_s * 1e6,
            Level::Algorithm.base_track(),
            &[
                ("chunks", plan.num_chunks as f64),
                ("gbps", effective_gbps),
                ("efficiency", overlap_efficiency),
            ],
        );
    }

    let report = StreamReport {
        path,
        num_chunks: plan.num_chunks,
        chunk_rows: plan.chunk_rows,
        total_s,
        roofline_s,
        effective_gbps,
        roofline_gbps,
        overlap_efficiency,
        chunk_retries: st.chunk_retries,
        transfer_faults: st.transfer_faults,
        kernel_faults: st.kernel_faults,
        crash_resumes: st.crash_resumes,
        degradations: st.degradations,
        penalty_s: st.penalty_s,
        journal,
    };
    Ok((out, report))
}

/// Mutable run counters threaded through the chunk loop.
#[derive(Debug, Default)]
struct Tally {
    chunk_retries: usize,
    transfer_faults: usize,
    kernel_faults: usize,
    crash_resumes: usize,
    degradations: usize,
    penalty_s: f64,
}

/// Process chunks `[from, to)`: upload (fault-checked), transpose
/// (recovering), checksum, download (fault-checked), scatter, commit.
/// Transfer faults retry with backoff; exhausted retries step down the
/// ladder. The `HostChunk` rung performs no transfers and cannot fail.
#[allow(clippy::too_many_arguments)]
// `i` indexes the plan, the input bands and `kernel_s` alike; an
// enumerate over one of them would obscure that.
#[allow(clippy::needless_range_loop)]
fn process_chunks<R: Recorder>(
    dev: &DeviceSpec,
    data: &[u32],
    out: &mut [u32],
    plan: &ChunkPlan,
    chaos: &StreamChaos,
    fault: Option<&dyn FaultSource>,
    rec: &R,
    journal: &mut ChunkJournal,
    path: &mut StreamPath,
    st: &mut Tally,
    kernel_s: &mut [f64],
    from: usize,
    to: usize,
    row_words: usize,
    rows: usize,
    elem_words: usize,
) -> Result<(), TransposeError> {
    let policy = RecoveryPolicy::default();
    let mut h2d_seq = 0usize;
    let mut d2h_seq = 0usize;
    for i in from..to {
        let (r0, nrows) = plan.chunk_range(i);
        let band = &data[r0 * row_words..(r0 + nrows) * row_words];
        let chunk_bytes = 4.0 * band.len() as f64;
        let mut attempt = 0usize;
        loop {
            let queue = match *path {
                StreamPath::Overlapped => i % 2,
                _ => 0,
            };
            match run_chunk_once(
                dev, band, plan, chaos, fault, rec, journal, *path, i, nrows, queue, elem_words,
                &mut h2d_seq, &mut d2h_seq,
            ) {
                Ok((chunk_out, k_s, kernel_faults)) => {
                    st.kernel_faults += kernel_faults;
                    kernel_s[i] = k_s;
                    scatter(out, &chunk_out, r0, nrows, rows, plan.cols, elem_words);
                    journal.commit(i, *path)?;
                    rec.add("stream", Counter::StreamChunksCommitted, 1);
                    break;
                }
                Err(e @ TransposeError::Transfer(_)) => {
                    if let TransposeError::Transfer(qe) = &e {
                        record_transfer_fault(rec, "stream", qe);
                    }
                    st.transfer_faults += 1;
                    journal.rollback(i)?;
                    // Retry with capped-exponential seeded backoff; the
                    // wasted wire time of the failed transfer is charged too.
                    st.penalty_s +=
                        policy.backoff_s(attempt) + dev.pcie.transfer_time(chunk_bytes);
                    if attempt < policy.max_stage_retries {
                        attempt += 1;
                        st.chunk_retries += 1;
                        rec.add("stream", Counter::StreamChunkRetries, 1);
                        continue;
                    }
                    // Retry budget spent on this rung: step down the ladder.
                    let next = match *path {
                        StreamPath::Overlapped => StreamPath::SingleEngine,
                        StreamPath::SingleEngine => StreamPath::HostChunk,
                        StreamPath::HostChunk => {
                            // Unreachable: the host rung never sees transfers.
                            return Err(e);
                        }
                    };
                    if !policy.allow_fallback {
                        return Err(e);
                    }
                    *path = next;
                    st.degradations += 1;
                    rec.add("stream", Counter::StreamDegradations, 1);
                    if rec.enabled() {
                        rec.event(0.0, "stream_degrade", &format!("chunk {i} → {next}"));
                    }
                    attempt = 0;
                }
                Err(e) => return Err(e),
            }
        }
    }
    Ok(())
}

/// One attempt at one chunk on one ladder rung. Returns the transposed
/// band, its kernel seconds, and how many kernel faults were recovered.
#[allow(clippy::too_many_arguments)]
fn run_chunk_once<R: Recorder>(
    dev: &DeviceSpec,
    band: &[u32],
    plan: &ChunkPlan,
    chaos: &StreamChaos,
    fault: Option<&dyn FaultSource>,
    rec: &R,
    journal: &mut ChunkJournal,
    path: StreamPath,
    i: usize,
    nrows: usize,
    queue: usize,
    elem_words: usize,
    h2d_seq: &mut usize,
    d2h_seq: &mut usize,
) -> Result<(Vec<u32>, f64, usize), TransposeError> {
    let pre_sum = multiset_checksum(band);
    if path == StreamPath::HostChunk {
        // Host rung: no transfers, no device — cannot fail.
        journal.stage(i, pre_sum)?;
        let out = host_transpose_elems(band, nrows, plan.cols, elem_words);
        journal.transposed(i)?;
        let k_s = 2.0 * 4.0 * band.len() as f64 / (HOST_FALLBACK_GBPS * 1e9);
        return Ok((out, k_s, 0));
    }

    // H2D: consult the fault source the same way the DES does.
    if let Some(f) = fault {
        let seq = *h2d_seq;
        *h2d_seq += 1;
        if f.on_transfer(true, queue, seq) {
            return Err(QueueError::TransferFault {
                queue,
                index: seq,
                h2d: true,
                label: format!("H2D chunk {i}").into(),
            }
            .into());
        }
    }
    journal.stage(i, pre_sum)?;

    // Device transpose of the band through the PR 1 recovery chain. The
    // sim's capacity is the plan's per-buffer budget paired with scratch —
    // 2× the band for the out-of-place fallback plus flag headroom.
    let mut chunk = band.to_vec();
    let mut sim = Sim::new(dev.clone(), 2 * chunk.len() + chunk.len() / 4 + 4096);
    if let StreamChaos::KernelAbort { chunk: target, seed } = chaos {
        if *target == i && journal.chunks[i].attempts == 1 {
            sim.set_fault_plan(FaultPlan::exact(*seed, FaultKind::AbortKernel, seed % 64, *seed));
        }
    }
    let decision = decide_scheme(nrows, plan.cols, &TileHeuristic::default());
    let (stats, rep) = transpose_scheme_with_recovery_rec(
        &mut sim,
        &mut chunk,
        nrows,
        plan.cols,
        elem_words,
        &decision,
        &GpuOptions::tuned_for(dev),
        &RecoveryPolicy::default(),
        rec,
        0.0,
    )?;
    let kernel_faults = rep.faults.len();
    if multiset_checksum(&chunk) != pre_sum {
        return Err(TransposeError::Journal {
            chunk: i,
            what: "post-kernel multiset checksum mismatch".into(),
        });
    }
    journal.transposed(i)?;

    // D2H: same consultation contract.
    if let Some(f) = fault {
        let seq = *d2h_seq;
        *d2h_seq += 1;
        let dq = if path == StreamPath::Overlapped { queue } else { 0 };
        if f.on_transfer(false, dq, seq) {
            return Err(QueueError::TransferFault {
                queue: dq,
                index: seq,
                h2d: false,
                label: format!("D2H chunk {i}").into(),
            }
            .into());
        }
    }
    Ok((chunk, stats.time_s() + rep.penalty_s, kernel_faults))
}

/// Scatter a transposed band (`cols × nrows`) into the output at column
/// offset `r0`. Bands never overlap in the destination.
fn scatter(
    out: &mut [u32],
    chunk: &[u32],
    r0: usize,
    nrows: usize,
    rows: usize,
    cols: usize,
    elem_words: usize,
) {
    for c in 0..cols {
        let src = &chunk[c * nrows * elem_words..(c + 1) * nrows * elem_words];
        let dst0 = (c * rows + r0) * elem_words;
        out[dst0..dst0 + src.len()].copy_from_slice(src);
    }
}

/// Build the DES queues for chunks `[from, to)` on the given rung:
/// `Overlapped` ping-pongs chunks across two queues (both copy engines
/// live), `SingleEngine`/`HostChunk` serialize on one.
fn stream_queues(
    dev: &DeviceSpec,
    plan: &ChunkPlan,
    kernel_s: &[f64],
    path: StreamPath,
    from: usize,
    to: usize,
) -> Vec<Vec<Cmd>> {
    let nq = if path == StreamPath::Overlapped { 2 } else { 1 };
    let mut queues: Vec<Vec<Cmd>> = vec![Vec::new(); nq];
    for i in from..to {
        let bytes = 4.0 * plan.chunk_words(i) as f64;
        queues[(i - from) % nq].extend([
            Cmd::h2d(dev, bytes),
            Cmd::kernel(kernel_s[i], format!("chunk {i}")),
            Cmd::d2h(dev, bytes),
        ]);
    }
    queues
}

/// Simulate the stream's DES timeline for chunks `[from, to)`.
fn simulate_stream(
    dev: &DeviceSpec,
    plan: &ChunkPlan,
    kernel_s: &[f64],
    path: StreamPath,
    from: usize,
    to: usize,
) -> Result<Timeline, TransposeError> {
    let queues = stream_queues(dev, plan, kernel_s, path, from, to);
    Ok(simulate_device(dev, &queues, None, None)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::fault::ChaosConfig;
    use ipt_obs::NoopRecorder;

    const ROWS: usize = 96;
    const COLS: usize = 40;

    fn iota(rows: usize, cols: usize, elem_words: usize) -> Vec<u32> {
        (0..rows * cols * elem_words).map(|x| x as u32).collect()
    }

    fn reference(data: &[u32], rows: usize, cols: usize, elem_words: usize) -> Vec<u32> {
        host_transpose_elems(data, rows, cols, elem_words)
    }

    fn small_cfg(dev: &DeviceSpec, rows: usize, cols: usize, div: u64) -> StreamConfig {
        let total = (rows * cols) as u64;
        StreamConfig::new(dev, (total / div).max(2 * cols as u64))
    }

    #[test]
    fn fault_free_stream_round_trips() {
        let dev = DeviceSpec::tesla_k20();
        let data = iota(ROWS, COLS, 1);
        let cfg = small_cfg(&dev, ROWS, COLS, 3);
        let none = StreamChaos::None;
        let (out, rep) =
            stream_transpose_rec(&dev, &data, ROWS, COLS, 1, &cfg, &none, &NoopRecorder).unwrap();
        assert_eq!(out, reference(&data, ROWS, COLS, 1));
        assert!(rep.num_chunks > 1, "must actually stream");
        assert_eq!(rep.path, StreamPath::Overlapped);
        assert_eq!(rep.chunk_retries, 0);
        assert!(rep.journal.all_committed());
        assert!(rep.overlap_efficiency > 0.0 && rep.overlap_efficiency <= 1.0 + 1e-9);
        assert!(rep.effective_gbps > 0.0);
    }

    #[test]
    fn single_transfer_fault_recovers_bit_exact() {
        let dev = DeviceSpec::tesla_k20();
        let data = iota(ROWS, COLS, 1);
        let cfg = small_cfg(&dev, ROWS, COLS, 3);
        for (kind, trig) in
            [(FaultKind::FailH2D, 1), (FaultKind::FailD2H, 0), (FaultKind::FailH2D, 3)]
        {
            let chaos =
                StreamChaos::TransferOnce(FaultPlan::exact(11, kind, trig, 0));
            let (out, rep) =
                stream_transpose_rec(&dev, &data, ROWS, COLS, 1, &cfg, &chaos, &NoopRecorder)
                    .unwrap();
            assert_eq!(out, reference(&data, ROWS, COLS, 1), "{kind:?}@{trig}");
            assert_eq!(rep.transfer_faults, 1);
            assert_eq!(rep.chunk_retries, 1);
            assert_eq!(rep.path, StreamPath::Overlapped, "one fault must not degrade");
            assert!(rep.penalty_s > 0.0, "retry must cost simulated time");
            assert!(rep.journal.all_committed());
        }
    }

    #[test]
    fn sustained_chaos_degrades_but_never_tears() {
        let dev = DeviceSpec::tesla_k20();
        let data = iota(ROWS, COLS, 1);
        let cfg = small_cfg(&dev, ROWS, COLS, 3);
        // Every transfer faults: the ladder must walk to the host rung and
        // still produce the exact result.
        let chaos = StreamChaos::TransferChaos(ChaosPlan::new(
            3,
            ChaosConfig::transfers(1.0, 1.0, usize::MAX),
        ));
        let (out, rep) =
            stream_transpose_rec(&dev, &data, ROWS, COLS, 1, &cfg, &chaos, &NoopRecorder)
                .unwrap();
        assert_eq!(out, reference(&data, ROWS, COLS, 1));
        assert_eq!(rep.path, StreamPath::HostChunk);
        assert_eq!(rep.degradations, 2, "both ladder steps taken");
        assert!(rep.transfer_faults > 0);
        assert!(rep.journal.all_committed());
        assert!(
            rep.journal.chunks.iter().any(|c| c.path == StreamPath::HostChunk),
            "host rung must have committed chunks"
        );
    }

    #[test]
    fn kernel_abort_recovered_within_chunk() {
        let dev = DeviceSpec::tesla_k20();
        let data = iota(ROWS, COLS, 1);
        let cfg = small_cfg(&dev, ROWS, COLS, 3);
        let chaos = StreamChaos::KernelAbort { chunk: 1, seed: 5 };
        let (out, rep) =
            stream_transpose_rec(&dev, &data, ROWS, COLS, 1, &cfg, &chaos, &NoopRecorder)
                .unwrap();
        assert_eq!(out, reference(&data, ROWS, COLS, 1));
        assert!(rep.kernel_faults > 0, "the abort must actually fire");
        assert_eq!(rep.path, StreamPath::Overlapped, "recovered in place");
        assert!(rep.journal.all_committed());
    }

    #[test]
    fn engine_crash_resumes_from_journal() {
        let dev = DeviceSpec::tesla_k20();
        let data = iota(ROWS, COLS, 1);
        let cfg = small_cfg(&dev, ROWS, COLS, 4);
        let chaos = StreamChaos::EngineCrashAt { engine: 1, frac: 0.4 };
        let (out, rep) =
            stream_transpose_rec(&dev, &data, ROWS, COLS, 1, &cfg, &chaos, &NoopRecorder)
                .unwrap();
        assert_eq!(out, reference(&data, ROWS, COLS, 1));
        assert_eq!(rep.crash_resumes, 1);
        assert!(rep.journal.all_committed());
        // Every chunk committed exactly once (attempts charged once, no
        // duplicate transfers of durable chunks).
        assert!(rep.journal.chunks.iter().all(|c| c.attempts == 1));
    }

    #[test]
    fn journal_refuses_duplicate_commit_and_rollback_of_committed() {
        let plan = plan_chunks(16, 4, 1, 16, 2).unwrap();
        let mut j = ChunkJournal::new(&plan);
        j.stage(0, (1, 2)).unwrap();
        j.transposed(0).unwrap();
        j.commit(0, StreamPath::Overlapped).unwrap();
        let err = j.commit(0, StreamPath::Overlapped).unwrap_err();
        assert!(matches!(err, TransposeError::Journal { chunk: 0, .. }), "{err}");
        assert!(format!("{err}").contains("duplicate"));
        assert!(j.rollback(0).is_err(), "committed chunks are durable");
        // And out-of-order transitions are refused too.
        assert!(j.transposed(1).is_err(), "cannot transpose an unstaged chunk");
        assert!(j.commit(1, StreamPath::Overlapped).is_err());
    }

    #[test]
    fn elem_words_two_streams_f64_elements() {
        let dev = DeviceSpec::tesla_k20();
        let data = iota(60, 24, 2);
        let cfg = small_cfg(&dev, 60, 24 * 2, 3);
        let (out, rep) =
            stream_transpose_rec(&dev, &data, 60, 24, 2, &cfg, &StreamChaos::None, &NoopRecorder)
                .unwrap();
        assert_eq!(out, reference(&data, 60, 24, 2));
        assert!(rep.num_chunks > 1);
        assert!(rep.journal.all_committed());
    }

    #[test]
    fn size_mismatch_is_typed() {
        let dev = DeviceSpec::tesla_k20();
        let cfg = StreamConfig::new(&dev, 1024);
        let none = StreamChaos::None;
        let err = stream_transpose_rec(&dev, &[0u32; 7], 4, 4, 1, &cfg, &none, &NoopRecorder)
            .unwrap_err();
        assert!(matches!(err, TransposeError::InvalidConfig { .. }));
    }
}
