//! Staged full in-place transposition on the simulated device: plan →
//! kernel selection → execution → stats.
//!
//! Kernel selection per stage follows the paper:
//!
//! * an instanced stage whose whole tile fits local memory → **BS**
//!   (Figure 1; the preferred stage-2 kernel, §7.4),
//! * scalar stage (super = 1) with flags fitting local memory →
//!   **PTTWAC 010!** (§5.1, with the configured flag layout),
//! * anything with super-elements (100!, 0100!, 1000!) or too big for local
//!   flags → **PTTWAC 100!** (§5.2, with the configured variant),
//! * the fused stage of the 4-stage(+fusion) plan → PTTWAC 100! with
//!   in-flight tile transposition plus a BS pass over outer fixed tiles.

use crate::bs::BsKernel;
use crate::opts::{GpuOptions, Variant100};
use crate::pttwac010::Pttwac010;
use crate::pttwac100::Pttwac100;
use gpu_sim::{Buffer, KernelStats, LaunchError, PipelineStats, Sim};
use ipt_core::stages::{Stage, StageOp, StagePlan};
use ipt_core::{InstancedTranspose, TransposePerm};
use ipt_obs::{Level, NoopRecorder, Recorder};

/// Largest permutation (`rows × cols`) whose cycle structure is enumerated
/// into the trace's cycle-length histogram; bigger stages skip the scan
/// (it is `O(rows × cols)` analysis work, not kernel work).
pub const MAX_CYCLE_SCAN: usize = 1 << 20;

/// Which kernel the selector chose for a stage (exposed for tests and the
/// experiment harness).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageKernel {
    /// Barrier-sync on-chip transposition.
    Bs,
    /// PTTWAC with local-memory flags.
    Pttwac010,
    /// PTTWAC with global coordination bits.
    Pttwac100,
}

/// Decide the kernel for an instanced stage on this device.
#[must_use]
pub fn select_kernel(sim: &Sim, op: &InstancedTranspose, opts: &GpuOptions) -> StageKernel {
    let dev = sim.device();
    let tile_words = op.instance_len();
    if tile_words <= dev.local_words_per_wg() && op.instances > 1 {
        return StageKernel::Bs;
    }
    if op.super_size == 1 {
        let flag_words = opts.flags.words_needed(op.rows * op.cols);
        if flag_words <= dev.local_words_per_wg() && op.instances > 1 {
            return StageKernel::Pttwac010;
        }
    }
    StageKernel::Pttwac100
}

/// Flag words needed by the whole plan: the maximum over the stages that
/// route to the global-coordination-bit kernel (`100!` family). Scalar
/// multi-instance stages (`0010!`) use BS or local-memory flags and need
/// none — this is why the paper's global overhead is one bit per
/// *super-element* (< 0.1 % for §7.4 tiles), not per element.
#[must_use]
pub fn plan_flag_words(plan: &StagePlan) -> usize {
    // Conservative local-flag capacity: the smallest modelled local memory
    // (32 KB) at the most wasteful layout (spreading 32 + padding) holds
    // ≈ 7900 flags. Scalar tiles beyond this may fall back to global flags
    // even with instances > 1.
    const MAX_LOCAL_FLAGS: usize = 7900;
    plan.stages
        .iter()
        .map(|s| match &s.op {
            StageOp::Instanced(op) => {
                let supers = op.rows * op.cols;
                let uses_global_flags =
                    op.super_size > 1 || op.instances == 1 || supers > MAX_LOCAL_FLAGS;
                if uses_global_flags {
                    Pttwac100::flag_words(op.instances * supers)
                } else {
                    0
                }
            }
            StageOp::Fused(f) => Pttwac100::flag_words(f.rows_outer * f.cols_outer),
        })
        .max()
        .unwrap_or(0)
}

/// Execute `plan` in place over `data` on the simulator; `flags` must have
/// at least [`plan_flag_words`] words.
///
/// Returns per-stage kernel stats; `overhead_s` accounts the flag-buffer
/// memsets (the paper's ≈0.1 % coordination-bit overhead). `rec` gets an
/// algorithm-level span covering the whole plan, one stage-level span per
/// stage (both on the cumulative DES clock), kernel spans and counters
/// from the engine, and each instanced stage's permutation cycle-length
/// histogram (stages over [`MAX_CYCLE_SCAN`] elements skip the scan).
///
/// # Errors
/// Propagates infeasible launches, including a `data` or `flags` buffer
/// too short for a stage (see [`run_stage`]).
pub fn run_plan<R: Recorder>(
    sim: &Sim,
    data: Buffer,
    flags: Buffer,
    plan: &StagePlan,
    opts: &GpuOptions,
    rec: &R,
) -> Result<PipelineStats, LaunchError> {
    let mut out = PipelineStats::default();
    for stage in &plan.stages {
        let before_s = out.time_s();
        run_stage_rec(sim, data, flags, stage, opts, &mut out, rec, before_s)?;
        if rec.enabled() {
            let code = stage.code.to_string();
            rec.span(
                Level::Stage,
                &code,
                before_s * 1e6,
                (out.time_s() - before_s) * 1e6,
                Level::Stage.base_track(),
                &[("total_len", stage.op.total_len() as f64)],
            );
            record_stage_cycles(rec, &format!("stage:{code}"), stage);
        }
    }
    if rec.enabled() {
        rec.span(
            Level::Algorithm,
            plan.name,
            0.0,
            out.time_s() * 1e6,
            Level::Algorithm.base_track(),
            &[("rows", plan.rows as f64), ("cols", plan.cols as f64)],
        );
    }
    Ok(out)
}

/// Record the cycle-length histogram of an instanced stage's permutation
/// (the parallelism/imbalance structure of §4): every cycle of the
/// `rows × cols` transposition, weighted by the instance count.
fn record_stage_cycles<R: Recorder>(rec: &R, scope: &str, stage: &Stage) {
    let StageOp::Instanced(op) = &stage.op else {
        return;
    };
    let supers = op.rows * op.cols;
    if supers <= 1 || supers > MAX_CYCLE_SCAN {
        return;
    }
    let perm = TransposePerm::new(op.rows, op.cols);
    for (_, len) in perm.leaders() {
        #[allow(clippy::cast_possible_truncation)]
        rec.cycles(scope, len as usize, op.instances as u64);
    }
}

/// Execute one stage of a plan, appending its kernel stats (one entry, or
/// two for a fused stage's moving + fixed-tile passes) to `out`. This is
/// the granularity at which the recovery layer snapshots and validates
/// device state between stages.
///
/// # Errors
/// [`LaunchError::Infeasible`] when `data` holds fewer words than the
/// stage moves or `flags` fewer than its `100!`-family kernel's claim
/// bits (checked before anything launches); otherwise propagates
/// infeasible launches (and injected kernel aborts).
// `benchmark/` imports both `run_stage` and `run_stage_rec`; they fold when it next changes.
pub fn run_stage(
    sim: &Sim,
    data: Buffer,
    flags: Buffer,
    stage: &Stage,
    opts: &GpuOptions,
    out: &mut PipelineStats,
) -> Result<(), LaunchError> {
    run_stage_rec(sim, data, flags, stage, opts, out, &NoopRecorder, 0.0)
}

/// [`run_stage`] instrumented with a [`Recorder`]; `t0_s` is the stage's
/// start on the cumulative DES clock.
///
/// # Errors
/// Same as [`run_stage`].
// `benchmark/` imports both `run_stage` and `run_stage_rec`; they fold when it next changes.
#[allow(clippy::too_many_arguments)]
pub fn run_stage_rec<R: Recorder>(
    sim: &Sim,
    data: Buffer,
    flags: Buffer,
    stage: &Stage,
    opts: &GpuOptions,
    out: &mut PipelineStats,
    rec: &R,
    t0_s: f64,
) -> Result<(), LaunchError> {
    let short = |what: &str, need: usize, held: usize| LaunchError::Infeasible {
        why: format!("stage `{}` needs {need} {what} words; the buffer holds {held}", stage.code),
    };
    if data.len < stage.op.total_len() {
        return Err(short("data", stage.op.total_len(), data.len));
    }
    let flag_words = stage_flag_words(sim, &stage.op, opts);
    if flags.len < flag_words {
        return Err(short("claim-flag", flag_words, flags.len));
    }
    match &stage.op {
        StageOp::Instanced(op) => {
            let stats = run_instanced(sim, data, flags, op, opts, &mut out.overhead_s, rec, t0_s)?;
            out.stages.push(stats);
        }
        StageOp::Fused(f) => {
            // Moving stage: m·n-word super-elements over the (M′,N′)
            // grid, transposed in flight.
            sim.zero(flags);
            let ms = memset_time(sim, flag_words);
            out.overhead_s += ms;
            let ss = f.rows_inner * f.cols_inner;
            let k = Pttwac100 {
                data,
                flags,
                instances: 1,
                rows: f.rows_outer,
                cols: f.cols_outer,
                super_size: ss,
                variant: moving_variant(sim, opts, ss),
                wg_size: opts.wg_size_100,
                fuse_tile: Some((f.rows_inner, f.cols_inner)),
                backoff: opts.backoff,
            };
            let moving = sim.launch(&k, rec, t0_s + ms)?;
            let after_moving_s = t0_s + ms + moving.time_s;
            out.stages.push(moving);
            // Outer fixed tiles still need internal transposition.
            if let Some(stats) = run_fused_fixed_tiles(sim, data, f, opts, rec, after_moving_s)? {
                out.stages.push(stats);
            }
        }
    }
    Ok(())
}

/// Claim-flag words a stage's kernel needs: the `100!`-family kernel's
/// global coordination bits, none for BS, `010!` and identity stages.
fn stage_flag_words(sim: &Sim, op: &StageOp, opts: &GpuOptions) -> usize {
    match op {
        StageOp::Instanced(op)
            if !is_identity(op) && select_kernel(sim, op, opts) == StageKernel::Pttwac100 =>
        {
            Pttwac100::flag_words(op.instances * op.rows * op.cols)
        }
        StageOp::Instanced(_) => 0,
        StageOp::Fused(f) => Pttwac100::flag_words(f.rows_outer * f.cols_outer),
    }
}

/// A degenerate (1×1, r×1 or 1×c) transposition is the identity on linear
/// storage and moves nothing.
fn is_identity(op: &InstancedTranspose) -> bool {
    op.rows * op.cols <= 1 || op.rows == 1 || op.cols == 1
}

/// Time to clear `words` of flag storage (bandwidth-bound memset).
fn memset_time(sim: &Sim, words: usize) -> f64 {
    words as f64 * 4.0 / (sim.device().peak_gbps * 1e9)
}

fn moving_variant(sim: &Sim, opts: &GpuOptions, super_size: usize) -> Variant100 {
    opts.variant100.resolve(super_size, sim.device().simd_width)
}

/// Launch the kernel [`select_kernel`] picks for `op`; the caller has
/// checked the buffer sizes.
#[allow(clippy::too_many_arguments)]
fn run_instanced<R: Recorder>(
    sim: &Sim,
    data: Buffer,
    flags: Buffer,
    op: &InstancedTranspose,
    opts: &GpuOptions,
    overhead_s: &mut f64,
    rec: &R,
    t0_s: f64,
) -> Result<KernelStats, LaunchError> {
    if is_identity(op) {
        return Ok(noop_stats(op));
    }
    match select_kernel(sim, op, opts) {
        StageKernel::Bs => sim.launch(
            &BsKernel {
                data,
                instances: op.instances,
                rows: op.rows,
                cols: op.cols,
                super_size: op.super_size,
                wg_size: opts.wg_size,
            },
            rec,
            t0_s,
        ),
        StageKernel::Pttwac010 => sim.launch(
            &Pttwac010 {
                data,
                instances: op.instances,
                rows: op.rows,
                cols: op.cols,
                wg_size: opts.wg_size,
                flags: opts.flags,
                backoff: opts.backoff,
            },
            rec,
            t0_s,
        ),
        StageKernel::Pttwac100 => {
            sim.zero(flags);
            let ms = memset_time(sim, Pttwac100::flag_words(op.instances * op.rows * op.cols));
            *overhead_s += ms;
            sim.launch(
                &Pttwac100 {
                    data,
                    flags,
                    instances: op.instances,
                    rows: op.rows,
                    cols: op.cols,
                    super_size: op.super_size,
                    variant: moving_variant(sim, opts, op.super_size),
                    wg_size: opts.wg_size_100,
                    fuse_tile: None,
                    backoff: opts.backoff,
                },
                rec,
                t0_s + ms,
            )
        }
    }
}

/// Zero-cost stats entry for stages that are the identity on linear
/// storage.
fn noop_stats(op: &InstancedTranspose) -> KernelStats {
    KernelStats {
        name: format!("noop {}x{}x{}x{}", op.instances, op.rows, op.cols, op.super_size),
        num_wgs: 0,
        wg_size: 0,
        occupancy: gpu_sim::Occupancy {
            wgs_per_sm: 0,
            warps_per_sm: 0,
            occupancy: 0.0,
            limiter: gpu_sim::Limiter::WgSlots,
        },
        time_s: 0.0,
        bounds: gpu_sim::TimeBounds {
            bandwidth_s: 0.0,
            latency_s: 0.0,
            serial_s: 0.0,
            local_port_s: 0.0,
        },
        dram_bytes: 0.0,
        useful_bytes: 0.0,
        gld_transactions: 0,
        gst_transactions: 0,
        local_accesses: 0,
        local_atomics: 0,
        global_atomics: 0,
        position_conflicts: 0,
        lock_conflicts: 0,
        bank_conflicts: 0,
        claim_retries: 0,
        barriers: 0,
        warp_steps: 0,
        total_chain_cycles: 0.0,
        max_chain_cycles: 0.0,
    }
}

/// Transpose the outer fixed tiles of a fused stage with a BS pass over
/// just those tiles. Returns `None` when the tiles fit nothing (no fixed
/// tiles beyond trivial cases are exercised — there are always at least 2).
fn run_fused_fixed_tiles<R: Recorder>(
    sim: &Sim,
    data: Buffer,
    f: &ipt_core::elementary::FusedTileTranspose,
    opts: &GpuOptions,
    rec: &R,
    t0_s: f64,
) -> Result<Option<KernelStats>, LaunchError> {
    let perm = TransposePerm::new(f.rows_outer, f.cols_outer);
    let tile = f.rows_inner * f.cols_inner;
    if tile <= 1 || f.rows_inner == 1 || f.cols_inner == 1 {
        return Ok(None);
    }
    // Fixed outer tiles are contiguous tile-sized regions; run one BS
    // work-group per fixed tile via a sub-buffer each. For simplicity and
    // because there are only gcd(M′N′−1, M′−1)+1 ≈ a handful of them, launch
    // one BS kernel per fixed tile and merge the stats.
    let mut merged: Option<KernelStats> = None;
    let mut t_cursor = t0_s;
    for t in 0..f.rows_outer * f.cols_outer {
        if perm.dest(t) != t {
            continue;
        }
        let sub = data.slice(t * tile, tile);
        let stats = sim.launch(
            &BsKernel {
                data: sub,
                instances: 1,
                rows: f.rows_inner,
                cols: f.cols_inner,
                super_size: 1,
                wg_size: opts.wg_size.min(tile.next_multiple_of(32)),
            },
            rec,
            t_cursor,
        )?;
        t_cursor += stats.time_s;
        merged = Some(match merged {
            None => stats,
            Some(mut acc) => {
                acc.time_s += stats.time_s;
                acc.dram_bytes += stats.dram_bytes;
                acc.useful_bytes += stats.useful_bytes;
                acc.name = "BS fixed-tiles".into();
                acc
            }
        });
    }
    Ok(merged)
}

/// Convenience: upload, run, download, and *verify* a full in-place
/// transposition of `data` (row-major `rows × cols`) on a fresh simulator.
/// `rec` gets everything [`run_plan`] emits plus the host↔device traffic
/// meters.
///
/// # Errors
/// [`LaunchError::Infeasible`] when `plan` was built for another shape;
/// otherwise propagates infeasible launches.
///
/// # Panics
/// Panics if the simulated kernels produce an incorrect transposition —
/// functional correctness is non-negotiable in this workspace.
pub fn transpose_on_device<R: Recorder>(
    sim: &mut Sim,
    host_data: &mut Vec<u32>,
    rows: usize,
    cols: usize,
    plan: &StagePlan,
    opts: &GpuOptions,
    rec: &R,
) -> Result<PipelineStats, LaunchError> {
    if (plan.rows, plan.cols) != (rows, cols) {
        return Err(LaunchError::Infeasible {
            why: format!(
                "plan `{}` was built for {}×{}, not {rows}×{cols}",
                plan.name, plan.rows, plan.cols
            ),
        });
    }
    assert_eq!(host_data.len(), rows * cols);
    let data = sim.alloc(rows * cols);
    let flags = sim.alloc(plan_flag_words(plan).max(1));
    sim.upload_u32(data, host_data);
    let stats = run_plan(sim, data, flags, plan, opts, rec)?;
    let result = sim.download_u32(data);
    sim.record_traffic(rec, "sim");
    if let Err(e) = crate::recover::verify_exact(host_data, &result, rows, cols) {
        panic!("device transposition incorrect (plan {}): {e}", plan.name);
    }
    *host_data = result;
    Ok(stats)
}

/// Scale a plan's elementary operations for elements of `elem_words` 32-bit
/// words (e.g. 2 for `f64`): every moved unit grows by the element size.
/// Fused stages are replaced by their unfused pair (the fused kernel's
/// in-flight tile transposition is word-granular).
#[must_use]
pub fn scale_plan_words(plan: &StagePlan, elem_words: usize) -> StagePlan {
    assert!(elem_words >= 1);
    if elem_words == 1 {
        return plan.clone();
    }
    let mut out = plan.clone();
    let mut stages = Vec::with_capacity(plan.stages.len() + 1);
    for stage in &plan.stages {
        match &stage.op {
            StageOp::Instanced(op) => {
                let mut st = stage.clone();
                st.op = StageOp::Instanced(InstancedTranspose::new(
                    op.instances,
                    op.rows,
                    op.cols,
                    op.super_size * elem_words,
                ));
                stages.push(st);
            }
            StageOp::Fused(f) => {
                // Unfuse: 0010! (tiles of rows_inner × cols_inner elements)
                // then 1000! over the outer grid.
                let mut a = stage.clone();
                a.op = StageOp::Instanced(InstancedTranspose::new(
                    f.rows_outer * f.cols_outer,
                    f.rows_inner,
                    f.cols_inner,
                    elem_words,
                ));
                stages.push(a);
                let mut b = stage.clone();
                b.op = StageOp::Instanced(InstancedTranspose::new(
                    1,
                    f.rows_outer,
                    f.cols_outer,
                    f.rows_inner * f.cols_inner * elem_words,
                ));
                stages.push(b);
            }
        }
    }
    out.stages = stages;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceSpec;
    use ipt_core::stages::TileConfig;
    use ipt_core::Matrix;

    fn run_full(
        dev: DeviceSpec,
        rows: usize,
        cols: usize,
        plan: &StagePlan,
        opts: &GpuOptions,
    ) -> PipelineStats {
        let mut sim = Sim::new(dev, rows * cols + plan_flag_words(plan) + 64);
        let mut data = Matrix::iota(rows, cols).into_vec();
        transpose_on_device(&mut sim, &mut data, rows, cols, plan, opts, &NoopRecorder)
            .expect("launch")
        // transpose_on_device panics on functional mismatch.
    }

    #[test]
    fn three_stage_transposes_on_all_devices() {
        let (rows, cols) = (72, 60);
        let plan = StagePlan::three_stage(rows, cols, TileConfig::new(12, 10)).unwrap();
        for dev in [
            DeviceSpec::tesla_k20(),
            DeviceSpec::gtx580(),
            DeviceSpec::hd7750(),
            DeviceSpec::xeon_phi(),
        ] {
            let opts = GpuOptions::tuned_for(&dev);
            let stats = run_full(dev, rows, cols, &plan, &opts);
            assert_eq!(stats.stages.len(), 3);
            assert!(stats.time_s() > 0.0);
        }
    }

    #[test]
    fn all_plans_verify_functionally() {
        let (rows, cols) = (48, 90);
        let tile = TileConfig::new(8, 9);
        let dev = DeviceSpec::tesla_k20();
        let opts = GpuOptions::tuned_for(&dev);
        for plan in [
            StagePlan::three_stage(rows, cols, tile).unwrap(),
            StagePlan::four_stage(rows, cols, tile).unwrap(),
            StagePlan::four_stage_fused(rows, cols, tile).unwrap(),
            StagePlan::single_stage(rows, cols),
        ] {
            let _ = run_full(DeviceSpec::tesla_k20(), rows, cols, &plan, &opts);
        }
    }

    /// Transpose `src` through the recovery chain as `f64` bits packed in
    /// (low, high) word pairs, asserting the tuned in-place plan delivered
    /// it: the chain verified it bit-exact on the primary path, with no
    /// retry or fallback.
    fn transpose_f64(
        sim: &mut Sim,
        src: &[f64],
        rows: usize,
        cols: usize,
        plan: &StagePlan,
        opts: &GpuOptions,
    ) -> PipelineStats {
        let mut words: Vec<u32> = src
            .iter()
            .flat_map(|v| {
                let b = v.to_bits();
                [b as u32, (b >> 32) as u32]
            })
            .collect();
        let policy = crate::recover::RecoveryPolicy::default();
        let (stats, report) = crate::recover::transpose_with_recovery(
            sim, &mut words, rows, cols, 2, plan, opts, &policy,
        )
        .expect("f64 transposition");
        assert!(report.clean(), "{}: {report:?}", plan.name);
        stats
    }

    #[test]
    fn f64_three_and_four_stage_verify() {
        let (rows, cols) = (72, 60);
        let dev = DeviceSpec::tesla_k20();
        let opts = GpuOptions::tuned_for(&dev);
        let tile = TileConfig::new(12, 10);
        for plan in [
            StagePlan::three_stage(rows, cols, tile).unwrap(),
            StagePlan::four_stage(rows, cols, tile).unwrap(),
            StagePlan::four_stage_fused(rows, cols, tile).unwrap(), // unfused under f64
            StagePlan::single_stage(rows, cols),
        ] {
            let scaled = scale_plan_words(&plan, 2);
            let mut sim =
                Sim::new(dev.clone(), 2 * rows * cols + plan_flag_words(&scaled) + 64);
            let data: Vec<f64> = (0..rows * cols).map(|k| k as f64 * 1.5 - 7.25).collect();
            let stats = transpose_f64(&mut sim, &data, rows, cols, &plan, &opts);
            assert!(stats.time_s() > 0.0, "{}", plan.name);
        }
    }

    #[test]
    fn f64_moves_double_the_bytes_at_similar_bandwidth() {
        let (rows, cols) = (360, 180);
        let dev = DeviceSpec::tesla_k20();
        let opts = GpuOptions::tuned_for(&dev);
        let plan = StagePlan::three_stage(rows, cols, TileConfig::new(60, 60)).unwrap();
        let mut sim = Sim::new(dev.clone(), rows * cols + plan_flag_words(&plan) + 64);
        let mut d32 = Matrix::iota(rows, cols).into_vec();
        let s32 =
            transpose_on_device(&mut sim, &mut d32, rows, cols, &plan, &opts, &NoopRecorder)
                .unwrap();
        let scaled = scale_plan_words(&plan, 2);
        let mut sim = Sim::new(dev, 2 * rows * cols + plan_flag_words(&scaled) + 64);
        let d64: Vec<f64> = (0..rows * cols).map(|k| k as f64).collect();
        let s64 = transpose_f64(&mut sim, &d64, rows, cols, &plan, &opts);
        // Same payload GB/s regime: f64 time within ~3x of 2x-the-f32 time.
        let ratio = s64.time_s() / (2.0 * s32.time_s());
        assert!((0.3..3.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn kernel_selection_logic() {
        let dev = DeviceSpec::tesla_k20();
        let sim = Sim::new(dev, 64);
        let opts = GpuOptions::tuned_for(sim.device());
        // Small tiles in many instances → BS.
        assert_eq!(
            select_kernel(&sim, &InstancedTranspose::new(100, 16, 16, 1), &opts),
            StageKernel::Bs
        );
        // Large scalar tile, flags fit → PTTWAC 010.
        assert_eq!(
            select_kernel(&sim, &InstancedTranspose::new(8, 64, 500, 1), &opts),
            StageKernel::Pttwac010
        );
        // Super-elements → PTTWAC 100.
        assert_eq!(
            select_kernel(&sim, &InstancedTranspose::new(1, 100, 50, 64), &opts),
            StageKernel::Pttwac100
        );
        // Whole-matrix scalar (single instance) → PTTWAC 100 (global flags).
        assert_eq!(
            select_kernel(&sim, &InstancedTranspose::new(1, 7200, 1800, 1), &opts),
            StageKernel::Pttwac100
        );
    }

    #[test]
    fn three_stage_beats_four_stage_at_good_tiles() {
        // The Table-2 headline on a reduced-size matrix: 720×180 with the
        // paper's preferred tile shapes.
        let (rows, cols) = (720, 180);
        let dev = DeviceSpec::tesla_k20();
        let opts = GpuOptions::tuned_for(&dev);
        let t3 = StagePlan::three_stage(rows, cols, TileConfig::new(48, 36)).unwrap();
        let t4 = StagePlan::four_stage(rows, cols, TileConfig::new(16, 12)).unwrap();
        let s3 = run_full(dev.clone(), rows, cols, &t3, &opts);
        let s4 = run_full(dev, rows, cols, &t4, &opts);
        assert!(
            s3.time_s() < s4.time_s(),
            "3-stage {} vs 4-stage {}",
            s3.time_s(),
            s4.time_s()
        );
    }

    #[test]
    fn single_stage_is_much_slower_than_staged() {
        let (rows, cols) = (360, 180);
        let dev = DeviceSpec::tesla_k20();
        let opts = GpuOptions::tuned_for(&dev);
        let staged = StagePlan::three_stage(rows, cols, TileConfig::new(60, 60)).unwrap();
        let single = StagePlan::single_stage(rows, cols);
        let s = run_full(dev.clone(), rows, cols, &staged, &opts);
        let one = run_full(dev, rows, cols, &single, &opts);
        assert!(
            one.time_s() > 2.0 * s.time_s(),
            "single {} vs staged {}",
            one.time_s(),
            s.time_s()
        );
    }
}
