//! Using the device's full in-place transposition from the host (§6):
//! "virtual in-place transposition" — the matrix is shipped over PCIe,
//! transposed in place on the accelerator, and shipped back to the same
//! host location.
//!
//! * **Synchronous** (Figure 4): `H2D → stage1 → stage2 → stage3 → D2H` on
//!   one command queue.
//! * **Asynchronous** (Figure 5 (b)): stage 1 cannot be split (its cycles
//!   span the whole array), but stages 2 and 3 operate on independent
//!   instances. They are split into `Q` chunks along the leading `N′`
//!   dimension, each chunk's `stage2 → stage3 → D2H` enqueued on its own
//!   command queue, so chunk kernels overlap other chunks' D2H transfers.
//!
//! Both schemes verify their result and recover from faults (see
//! [`crate::recover`]); with no fault armed they stay on the primary path.

use crate::opts::GpuOptions;
use crate::pipeline::{plan_flag_words, run_stage};
use crate::recover::{
    transpose_with_recovery, verify_exact, RecoveryPath, RecoveryPolicy, RecoveryReport,
    TransposeError,
};
use gpu_sim::{
    simulate_device, Buffer, Cmd, DeviceSpec, FaultPlan, KernelStats, LaunchError,
    PipelineStats, QueueError, Sim, Timeline,
};
use ipt_core::stages::{Stage, StageOp, StagePlan};
use ipt_core::{InstancedTranspose, Matrix};
use ipt_obs::{NoopRecorder, Recorder};

/// Result of a host-side (virtual in-place) transposition.
#[derive(Debug, Clone)]
pub struct HostReport {
    /// The DES timeline (PCIe + kernels on engines).
    pub timeline: Timeline,
    /// End-to-end seconds (= `timeline.total_s`).
    pub total_s: f64,
    /// Paper-convention effective throughput from the CPU's perspective:
    /// `2 × matrix_bytes / total_s`.
    pub effective_gbps: f64,
    /// The device-side kernel stats that produced the kernel durations.
    pub kernels: PipelineStats,
    /// Number of command queues used.
    pub queues: usize,
}

impl HostReport {
    fn new(timeline: Timeline, bytes: f64, kernels: PipelineStats, queues: usize) -> Self {
        Self {
            total_s: timeline.total_s,
            effective_gbps: 2.0 * bytes / timeline.total_s / 1e9,
            timeline,
            kernels,
            queues,
        }
    }

    /// Emit this report into a [`Recorder`]: the DES timeline (one span per
    /// queue command, one display track per engine, busy-fraction gauges),
    /// every device-side kernel's counters, and end-to-end gauges.
    pub fn record<R: Recorder>(&self, rec: &R) {
        if !rec.enabled() {
            return;
        }
        self.timeline.record(rec, 0.0, &["copy H2D", "copy D2H", "compute"]);
        for st in &self.kernels.stages {
            st.record_counters(rec);
        }
        rec.gauge("host", "effective_gbps", self.effective_gbps);
        rec.gauge("host", "total_s", self.total_s);
        #[allow(clippy::cast_precision_loss)]
        rec.gauge("host", "queues", self.queues as f64);
    }
}

fn matrix_bytes(rows: usize, cols: usize) -> f64 {
    ipt_core::check::bytes_f64(rows, cols, 4)
}

/// The synchronous scheme's one queue: `[H2D, kernels…, flag memsets,
/// recovery penalty, D2H]`, the last two only when nonzero.
fn sync_queue(dev: &DeviceSpec, bytes: f64, kernels: &PipelineStats, penalty_s: f64) -> Vec<Cmd> {
    let mut q = vec![Cmd::h2d(dev, bytes)];
    q.extend(kernels.stages.iter().map(|st| Cmd::kernel(st.time_s, st.name.as_str())));
    if kernels.overhead_s > 0.0 {
        q.push(Cmd::kernel(kernels.overhead_s, "flag memsets"));
    }
    if penalty_s > 0.0 {
        q.push(Cmd::kernel(penalty_s, "recovery penalty"));
    }
    q.push(Cmd::d2h(dev, bytes));
    q
}

/// Synchronous scheme (Figure 4): one queue carrying the full H2D, every
/// stage and the full D2H.
///
/// The device side runs through [`transpose_with_recovery`] (per-stage
/// validation, fallback chain) on a fresh simulator with `fault` armed —
/// the test harness's injection point — and the PCIe timeline resubmits
/// failed transfers. `rec` gets every transfer fault and the final
/// report (see [`HostReport::record`]).
///
/// # Errors
/// Only configuration errors when fallback is allowed; any
/// [`TransposeError`] otherwise. Never panics.
#[allow(clippy::too_many_arguments)]
pub fn run_host_sync<R: Recorder>(
    dev: &DeviceSpec,
    rows: usize,
    cols: usize,
    plan: &StagePlan,
    opts: &GpuOptions,
    policy: &RecoveryPolicy,
    fault: Option<FaultPlan>,
    rec: &R,
) -> Result<(HostReport, RecoveryReport), TransposeError> {
    // 2× data room keeps the out-of-place fallback reachable.
    let mut sim =
        Sim::new(dev.clone(), 2 * rows * cols + plan_flag_words(plan).max(1) + 64);
    if let Some(f) = fault {
        sim.set_fault_plan(f);
    }
    let mut data = Matrix::iota(rows, cols).into_vec();
    let (stats, mut report) =
        transpose_with_recovery(&mut sim, &mut data, rows, cols, 1, plan, opts, policy)?;

    let bytes = matrix_bytes(rows, cols);
    let q = sync_queue(dev, bytes, &stats, report.penalty_s);
    let timeline = simulate_with_transfer_retry(dev, &[q], &sim, policy, &mut report, rec)?;
    report.faults = sim.fault_records();
    let rep = HostReport::new(timeline, bytes, stats, 1);
    rep.record(rec);
    Ok((rep, report))
}

/// Split an instanced stage into at most `q` nonempty chunks along its
/// leading instances: `(first_instance, count)` per chunk, the last chunk
/// taking the remainder.
fn chunk_ranges(total_instances: usize, q: usize) -> Vec<(usize, usize)> {
    let per = total_instances.div_ceil(q);
    (0..q)
        .map(|c| {
            let lo = (c * per).min(total_instances);
            let hi = ((c + 1) * per).min(total_instances);
            (lo, hi - lo)
        })
        .filter(|&(_, n)| n > 0)
        .collect()
}

/// Asynchronous scheme with `q` command queues (Figure 5 (b), §7.6). Only
/// valid for the 3-stage plan (`100! → 0010! → 0100!`): stages 2 and 3
/// are chunked along `N′` and overlapped with the D2H transfer.
///
/// The chunked scheme interleaves kernels and transfers too tightly for
/// per-stage snapshots, so recovery is whole-scheme: retry the full
/// asynchronous execution on a fresh simulator with `fault` armed
/// (injected faults are single-shot, so a retry runs clean), and when the
/// retry budget is spent, degrade to [`run_host_sync`] — whose own chain
/// bottoms out at the host-sequential path and cannot fail. `rec` gets the
/// final report (see [`HostReport::record`]).
///
/// # Errors
/// [`TransposeError::InvalidConfig`] immediately for `q == 0` or a
/// non-3-stage plan (retrying cannot fix them); otherwise only what
/// [`run_host_sync`] can return. Never panics.
#[allow(clippy::too_many_arguments)]
pub fn run_host_async<R: Recorder>(
    dev: &DeviceSpec,
    rows: usize,
    cols: usize,
    plan: &StagePlan,
    opts: &GpuOptions,
    q: usize,
    policy: &RecoveryPolicy,
    fault: Option<FaultPlan>,
    rec: &R,
) -> Result<(HostReport, RecoveryReport), TransposeError> {
    // Configuration problems fail fast: retrying cannot fix them.
    if q == 0 {
        return Err(TransposeError::InvalidConfig {
            what: "asynchronous scheme needs at least one command queue (q >= 1)".into(),
        });
    }
    if plan.name != "3-stage" {
        return Err(TransposeError::InvalidConfig {
            what: format!("asynchronous scheme requires the 3-stage plan, got `{}`", plan.name),
        });
    }
    let mut ops = Vec::with_capacity(plan.stages.len());
    for s in &plan.stages {
        let StageOp::Instanced(op) = &s.op else {
            return Err(TransposeError::InvalidConfig {
                what: "3-stage plan unexpectedly contains a fused stage".into(),
            });
        };
        ops.push(*op);
    }

    let mut report = RecoveryReport::new(RecoveryPath::Primary);
    let mut fault = fault;
    let mut last_err: Option<TransposeError> = None;
    for attempt in 0..=policy.max_stage_retries {
        let mut sim = Sim::new(dev.clone(), rows * cols + plan_flag_words(plan) + 64);
        if let Some(f) = fault.take() {
            sim.set_fault_plan(f);
        }
        let data = sim.alloc(rows * cols);
        let flags = sim.alloc(plan_flag_words(plan).max(1));
        let res = run_host_async_body(&sim, data, flags, dev, rows, cols, plan, &ops, opts, q);
        fault = sim.take_fault_plan();
        if let Some(f) = &fault {
            report.faults = f.records();
        }
        match res {
            Ok(rep) => {
                report.scheme_retries = attempt;
                report.primary_error = last_err.map(|e| e.to_string());
                rep.record(rec);
                return Ok((rep, report));
            }
            Err(e) => {
                report.penalty_s += policy.backoff_s(attempt);
                last_err = Some(e);
            }
        }
    }
    // Degrade: the synchronous scheme finishes the job.
    report.primary_error = last_err.map(|e| e.to_string());
    let async_attempts = policy.max_stage_retries + 1;
    let (rep, mut merged) = run_host_sync(dev, rows, cols, plan, opts, policy, fault, rec)?;
    merged.scheme_retries += async_attempts;
    merged.penalty_s += report.penalty_s;
    // The fault plan (and its record log) was carried into the sync run,
    // so its report already holds the full firing history.
    if merged.faults.is_empty() {
        merged.faults = report.faults;
    }
    if merged.primary_error.is_none() {
        merged.primary_error = report.primary_error;
    }
    Ok((rep, merged))
}

/// One attempt at the asynchronous scheme on `sim`, whose `data` and
/// `flags` buffers hold the matrix and the plan's claim flags.
#[allow(clippy::too_many_arguments)]
fn run_host_async_body(
    sim: &Sim,
    data: Buffer,
    flags: Buffer,
    dev: &DeviceSpec,
    rows: usize,
    cols: usize,
    plan: &StagePlan,
    ops: &[InstancedTranspose],
    opts: &GpuOptions,
    q: usize,
) -> Result<HostReport, TransposeError> {
    let tile = plan.tile;
    let (mp, np) = (rows / tile.m, cols / tile.n);
    let bytes = matrix_bytes(rows, cols);

    // Device-side functional execution, chunked exactly as scheduled.
    let host = Matrix::iota(rows, cols).into_vec();
    sim.upload_u32(data, &host);

    let mut kernels = PipelineStats::default();

    // Stage 1 (100!): unsplittable.
    run_stage(sim, data, flags, &plan.stages[0], opts, &mut kernels)?;
    let stage1_time = kernels.time_s();

    // Stages 2 and 3, chunked along N′.
    let chunks = chunk_ranges(np, q);
    let mut chunk_cmds: Vec<Vec<Cmd>> = Vec::new();
    // Queue 0 carries H2D + stage1 first.
    let mut q0 = vec![Cmd::h2d(dev, bytes), Cmd::kernel(stage1_time, "stage1 100!")];

    let inst2_per_np = mp; // stage-2 instances per N′ slot
    let words_per_np = mp * tile.m * tile.n; // words per N′ slot
    for (ci, &(lo, n_np)) in chunks.iter().enumerate() {
        let off = lo * words_per_np;
        let len = n_np * words_per_np;
        let sub = data.slice(off, len);
        // Chunked stage 2 (0010!): instances = n_np · mp tiles.
        let op2 = InstancedTranspose::new(n_np * inst2_per_np, ops[1].rows, ops[1].cols, 1);
        let st2 = run_chunk(sim, sub, flags, &plan.stages[1], op2, opts)?;
        // Chunked stage 3 (0100!): instances = n_np.
        let op3 = InstancedTranspose::new(n_np, ops[2].rows, ops[2].cols, ops[2].super_size);
        let st3 = run_chunk(sim, sub, flags, &plan.stages[2], op3, opts)?;

        let d2h_bytes = len as f64 * 4.0;
        let cmds = vec![
            // Stage 1 is queue 0, index 1.
            Cmd::kernel(st2.time_s, format!("stage2 chunk {ci}")).after(0, 1),
            Cmd::kernel(st3.time_s, format!("stage3 chunk {ci}")),
            Cmd::d2h(dev, d2h_bytes),
        ];
        kernels.stages.push(st2);
        kernels.stages.push(st3);
        if ci == 0 {
            // Chunk 0 rides queue 0 (after stage1).
            q0.extend(cmds);
        } else {
            chunk_cmds.push(cmds);
        }
    }

    let mut queues = vec![q0];
    queues.extend(chunk_cmds);
    // The application creates Q queues before knowing how many chunks the
    // tiling yields; surplus queues still cost their creation overhead.
    while queues.len() < q {
        queues.push(Vec::new());
    }
    let timeline = simulate_device(dev, &queues, sim.fault_source(), None)?;

    // Verify the chunked execution.
    let result = sim.download_u32(data);
    verify_exact(&host, &result, rows, cols)?;

    Ok(HostReport::new(timeline, bytes, kernels, queues.len()))
}

/// Run `op`, one chunk of `stage`, over `sub`, folding the stage's flag
/// memset into the kernel's time.
fn run_chunk(
    sim: &Sim,
    sub: Buffer,
    flags: Buffer,
    stage: &Stage,
    op: InstancedTranspose,
    opts: &GpuOptions,
) -> Result<KernelStats, LaunchError> {
    let chunk = Stage { op: StageOp::Instanced(op), ..stage.clone() };
    let mut out = PipelineStats::default();
    run_stage(sim, sub, flags, &chunk, opts, &mut out)?;
    let mut stats = out.stages.remove(0);
    stats.time_s += out.overhead_s;
    Ok(stats)
}

/// Out-of-place transposition from the host (Table 3's "GPU out-of-place +
/// data transfers" row): H2D, OOP kernel, D2H. Needs 2× device memory.
///
/// # Errors
/// Propagates infeasible kernel launches.
pub fn run_host_oop(
    dev: &DeviceSpec,
    rows: usize,
    cols: usize,
) -> Result<HostReport, LaunchError> {
    let mut sim = Sim::new(dev.clone(), 2 * rows * cols + 8);
    let src = sim.alloc(rows * cols);
    let dst = sim.alloc(rows * cols);
    let host = Matrix::iota(rows, cols);
    sim.upload_u32(src, host.as_slice());
    let k = crate::oop::OopTranspose { src, dst, rows, cols };
    let stats = sim.launch(&k, &NoopRecorder, 0.0)?;
    assert_eq!(
        sim.download_u32(dst),
        host.transposed().into_vec(),
        "OOP kernel incorrect"
    );
    let kernels = PipelineStats { stages: vec![stats], overhead_s: 0.0 };
    let bytes = matrix_bytes(rows, cols);
    let timeline = simulate_device(dev, &[sync_queue(dev, bytes, &kernels, 0.0)], None, None)
        .expect("a fault-free one-queue schedule always completes");
    Ok(HostReport::new(timeline, bytes, kernels, 1))
}

/// Run the DES timeline, resubmitting on injected transfer failures
/// (bounded by the policy's retry budget, each resubmission charging
/// backoff into the report).
fn simulate_with_transfer_retry<R: Recorder>(
    dev: &DeviceSpec,
    queues: &[Vec<Cmd>],
    sim: &Sim,
    policy: &RecoveryPolicy,
    report: &mut RecoveryReport,
    rec: &R,
) -> Result<Timeline, TransposeError> {
    let mut attempt = 0usize;
    loop {
        match simulate_device(dev, queues, sim.fault_source(), None) {
            Ok(tl) => return Ok(tl),
            Err(e @ QueueError::TransferFault { .. }) => {
                record_transfer_fault(rec, "host", &e);
                if attempt >= policy.max_stage_retries {
                    return Err(TransposeError::RecoveryExhausted {
                        attempts: attempt + 1,
                        last: Box::new(TransposeError::Transfer(e)),
                    });
                }
                report.transfer_retries += 1;
                report.penalty_s += policy.backoff_s(attempt);
                attempt += 1;
            }
            Err(e) => return Err(e.into()),
        }
    }
}

/// Route one observed transient transfer fault through the recorder: a
/// typed event carrying the DES error's message plus the
/// `TransferFaultsInjected` counter under `scope`.
pub(crate) fn record_transfer_fault<R: Recorder>(rec: &R, scope: &str, err: &QueueError) {
    rec.add(scope, ipt_obs::Counter::TransferFaultsInjected, 1);
    if rec.enabled() {
        rec.event(0.0, "transfer_fault", &err.to_string());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipt_core::TileHeuristic;

    // Large enough that PCIe transfers dwarf queue-creation overhead (the
    // paper's regime: 51.8 MB matrices, ≈15 ms per transfer direction).
    const ROWS: usize = 2880;
    const COLS: usize = 720;

    fn plan() -> StagePlan {
        let tile = TileHeuristic { shared_capacity_words: 3600, preferred_lo: 30, preferred_hi: 90 }
            .select(ROWS, COLS)
            .unwrap();
        StagePlan::three_stage(ROWS, COLS, tile).unwrap()
    }

    /// The fault-free synchronous scheme on a K20 (`q == 0`) or the
    /// asynchronous one with `q` queues; both must stay on the primary path.
    fn host_run(q: usize) -> HostReport {
        let dev = DeviceSpec::tesla_k20();
        let opts = GpuOptions::tuned_for(&dev);
        let policy = RecoveryPolicy::default();
        let (rep, report) = if q == 0 {
            run_host_sync(&dev, ROWS, COLS, &plan(), &opts, &policy, None, &NoopRecorder)
        } else {
            run_host_async(&dev, ROWS, COLS, &plan(), &opts, q, &policy, None, &NoopRecorder)
        }
        .unwrap();
        assert!(report.clean(), "q={q}: {report:?}");
        rep
    }

    #[test]
    fn sync_scheme_runs_and_verifies() {
        let rep = host_run(0);
        assert!(rep.total_s > 0.0);
        assert!(rep.effective_gbps > 0.0);
        // Transfers dominate for this size: effective < device-side.
        let dev_gbps = rep.kernels.throughput_gbps(matrix_bytes(ROWS, COLS));
        assert!(rep.effective_gbps < dev_gbps);
    }

    #[test]
    fn async_beats_sync_for_moderate_q() {
        let sync = host_run(0);
        let asy = host_run(4);
        assert!(
            asy.total_s < sync.total_s,
            "async {} vs sync {}",
            asy.total_s,
            sync.total_s
        );
    }

    #[test]
    fn excessive_queues_degrade() {
        let q4 = host_run(4);
        let q64 = host_run(64);
        assert!(q64.total_s > q4.total_s, "q64 {} vs q4 {}", q64.total_s, q4.total_s);
    }

    #[test]
    fn oop_from_host_close_to_inplace_from_host() {
        // Table 3: 3.57 vs 3.43 GB/s — transfers dominate both.
        let oop = run_host_oop(&DeviceSpec::tesla_k20(), ROWS, COLS).unwrap();
        let ip = host_run(0);
        let ratio = oop.effective_gbps / ip.effective_gbps;
        assert!((0.8..1.6).contains(&ratio), "ratio {ratio}");
    }
}
