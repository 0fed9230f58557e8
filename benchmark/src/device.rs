//! Device and host operations shared by the `staged` and `prime`
//! workloads: one-call simulated transpositions, host transpositions, the
//! per-kernel layer metrics and the serial-versus-parallel engine replay.

use crate::inputs::{self, Stream};
use crate::Run;
use gpu_sim::{DeviceSpec, EngineMode, KernelStats, PipelineStats, Sim};
use ipt_core::Scheme;
use ipt_gpu::opts::GpuOptions;
use ipt_gpu::pipeline::plan_flag_words;
use ipt_gpu::recover::{
    transpose_scheme_with_recovery, RecoveryPath, RecoveryReport, TransposeError,
};
use ipt_gpu::serve::{CachedPlan, ServeConfig};

/// The simulated device every workload runs on.
pub fn k20() -> DeviceSpec {
    DeviceSpec::tesla_k20()
}

/// One planned device shape.
pub struct Shape {
    /// Rows.
    pub rows: usize,
    /// Columns.
    pub cols: usize,
    /// The plan `build_plan` produced during set-up.
    pub plan: CachedPlan,
}

impl Shape {
    /// Payload words.
    pub fn words(&self) -> usize {
        self.rows * self.cols
    }

    /// Matrix bytes (f32/u32 elements).
    pub fn bytes(&self) -> f64 {
        ipt_core::check::bytes_f64(self.rows, self.cols, 4)
    }

    /// Kernel options the plan executes with (see [`plan_opts`]).
    pub fn opts(&self, cfg: &ServeConfig) -> GpuOptions {
        plan_opts(&self.plan, cfg)
    }

    /// C2R global-scratch words of the plan (see [`scratch_words`]).
    pub fn scratch_words(&self, dev: &DeviceSpec, cfg: &ServeConfig) -> usize {
        scratch_words(dev, &self.plan, self.rows, self.cols, 1, &self.opts(cfg))
    }

    /// A simulator for one transposition (see [`request_sim`]).
    pub fn sim(&self, dev: &DeviceSpec, opts: &GpuOptions, mode: EngineMode) -> Sim {
        request_sim(dev, &self.plan, (self.rows, self.cols, 1), opts, mode)
    }

    /// One transposition through the one-call public entry point, on a
    /// fresh simulator (created inside the call, as a user pays for it).
    pub fn transpose(
        &self,
        dev: &DeviceSpec,
        cfg: &ServeConfig,
        data: &mut Vec<u32>,
        mode: EngineMode,
    ) -> Result<(PipelineStats, RecoveryReport), TransposeError> {
        let opts = self.opts(cfg);
        let mut sim = self.sim(dev, &opts, mode);
        transpose_scheme_with_recovery(
            &mut sim,
            data,
            self.rows,
            self.cols,
            1,
            &self.plan.decision,
            &opts,
            &cfg.policy,
        )
    }
}

/// Kernel options a cached plan executes with: the session options, with
/// a tuned C2R work-group size applied, as the serving layer applies it.
pub fn plan_opts(plan: &CachedPlan, cfg: &ServeConfig) -> GpuOptions {
    GpuOptions {
        wg_size: plan.wg_size.unwrap_or(cfg.opts.wg_size),
        ..cfg.opts
    }
}

/// Global-scratch words the serving layer budgets for one request of a
/// `rows × cols` matrix of `elem_words`-word elements: the lines of a
/// single-word C2R plan too long for local memory stage through it; 0
/// otherwise.
pub fn scratch_words(
    dev: &DeviceSpec,
    plan: &CachedPlan,
    rows: usize,
    cols: usize,
    elem_words: usize,
    opts: &GpuOptions,
) -> usize {
    if plan.decision.scheme == Scheme::C2R && elem_words == 1 {
        ipt_gpu::c2r_scratch_words(dev, rows, cols, opts.wg_size)
    } else {
        0
    }
}

/// A simulator sized the way the serving layer sizes one request of a
/// `(rows, cols, elem_words)` matrix: twice the data (room for the
/// out-of-place fallback), the plan's flag words per element word, C2R
/// scratch, and slack.
pub fn request_sim(
    dev: &DeviceSpec,
    plan: &CachedPlan,
    (rows, cols, elem_words): (usize, usize, usize),
    opts: &GpuOptions,
    mode: EngineMode,
) -> Sim {
    let flags = plan.plan.as_ref().map_or(0, plan_flag_words);
    let scratch = scratch_words(dev, plan, rows, cols, elem_words, opts);
    let mut sim = Sim::new(
        dev.clone(),
        2 * rows * cols * elem_words + elem_words * flags + scratch + 256,
    );
    sim.set_engine_mode(mode);
    sim
}

/// Results of the timed device operations on one shape.
#[derive(Default)]
pub struct DeviceTally {
    /// Milliseconds per operation, steal taken out.
    pub wall_ms: Vec<f64>,
    /// Stats of the first successful operation (all are identical: the
    /// simulated clock does not depend on element values).
    pub stats: Option<PipelineStats>,
    /// Operations whose result came from a fallback path.
    pub non_primary: u64,
}

/// One timed device transposition of `shape` with input stream `stream`
/// inside the span `span`, checked against the generator.
pub fn device_op(
    ctx: &mut Run,
    dev: &DeviceSpec,
    cfg: &ServeConfig,
    shape: &Shape,
    stream: u64,
    span: &'static str,
    tally: &mut DeviceTally,
) {
    let src = Stream::new(ctx.seed, stream);
    let mut data = src.words(shape.words());
    let (res, ms) = ctx.tracer.op(span, || {
        shape.transpose(dev, cfg, &mut data, EngineMode::parallel_auto())
    });
    match res {
        Ok((stats, report)) => {
            let bad = inputs::transposed_mismatches(shape.rows, shape.cols, &data, |k| src.word(k));
            ctx.outcome(bad == 0, || {
                format!(
                    "device {}x{}: {bad} misplaced elements",
                    shape.rows, shape.cols
                )
            });
            tally.wall_ms.push(ms);
            tally.non_primary += u64::from(report.path != RecoveryPath::Primary);
            tally.stats.get_or_insert(stats);
        }
        Err(e) => ctx.outcome(false, || {
            format!("device {}x{}: {e}", shape.rows, shape.cols)
        }),
    }
}

/// One timed host transposition of a `rows × cols` f32 matrix held in
/// `buf` (reused across operations), regenerated from `stream` before and
/// checked against it after. `op` transposes in place inside the span
/// `name`. Returns its milliseconds with steal taken out.
pub fn host_op(
    ctx: &mut Run,
    buf: &mut Vec<f32>,
    rows: usize,
    cols: usize,
    stream: u64,
    name: &'static str,
    op: impl FnOnce(&mut Vec<f32>, &crate::trace::Tracer),
) -> f64 {
    let src = Stream::new(ctx.seed, stream);
    buf.resize(rows * cols, 0.0);
    inputs::fill(buf, |k| src.f32(k));
    let tracer = &ctx.tracer;
    let ((), ms) = tracer.op(name, || op(buf, tracer));
    let bad = inputs::transposed_mismatches(rows, cols, buf, |k| src.f32(k));
    ctx.outcome(bad == 0, || {
        format!("host {name} {rows}x{cols}: {bad} misplaced elements")
    });
    ms
}

/// Apply a whole-matrix transposition to the reusable buffer.
pub fn on_matrix(
    buf: &mut Vec<f32>,
    rows: usize,
    cols: usize,
    f: impl FnOnce(ipt_core::Matrix<f32>) -> ipt_core::Matrix<f32>,
) {
    let m = ipt_core::Matrix::from_vec(rows, cols, std::mem::take(buf));
    *buf = f(m).into_vec();
}

/// Host throughput, paper convention: read and write every byte once.
pub fn gbps(bytes: f64, ms: f64) -> f64 {
    2.0 * bytes / (ms / 1e3) / 1e9
}

/// Bit-exact equality of two pipeline reports (`PipelineStats` has no
/// `PartialEq`; its kernel reports do).
pub fn same_stats(a: &PipelineStats, b: &PipelineStats) -> bool {
    a.stages == b.stages && a.overhead_s.to_bits() == b.overhead_s.to_bits()
}

/// The seven per-kernel layer values of one launch over a matrix of
/// `bytes`, in [`KERNEL_SUFFIXES`] order. The roofline fraction is achieved
/// GB/s over `peak_gbps × dram_efficiency`.
pub fn kernel_values(dev: &DeviceSpec, k: &KernelStats, bytes: f64) -> [f64; 7] {
    // A stage that is the identity on linear storage launches nothing.
    let roofline = if k.time_s > 0.0 {
        k.throughput_gbps(bytes) / (dev.peak_gbps * dev.dram_efficiency)
    } else {
        0.0
    };
    [
        k.time_s * 1e6,
        roofline,
        k.dram_bytes / 1e6,
        k.coalescing_efficiency(),
        k.claim_retries as f64,
        (k.position_conflicts + k.lock_conflicts + k.bank_conflicts) as f64,
        k.warp_steps as f64,
    ]
}

/// Metric-name suffixes of [`kernel_values`].
pub const KERNEL_SUFFIXES: [&str; 7] = [
    "sim_us",
    "sim_roofline_frac",
    "sim_dram_mb",
    "coalescing",
    "claim_retries",
    "conflicts",
    "warp_steps",
];

/// Autotune layer metrics of one set-up: total wall, candidates measured,
/// wall per candidate, and the chosen candidate's simulated GB/s
/// (geometric mean over shapes).
pub fn record_autotune(ctx: &mut Run, shapes: &[&Shape], setup_ms: f64) {
    let candidates: usize = shapes.iter().map(|s| s.plan.tune.considered).sum();
    ctx.layers.exact("autotune.wall_s", setup_ms / 1e3);
    ctx.layers.exact("autotune.candidates", candidates as f64);
    ctx.layers.exact(
        "autotune.ms_per_candidate",
        setup_ms / candidates.max(1) as f64,
    );
    let chosen: Vec<f64> = shapes
        .iter()
        .map(|s| s.plan.tune.chosen.map_or(0.0, |c| c.gbps))
        .collect();
    ctx.layers
        .exact("autotune.chosen_gbps", crate::stats::geomean(&chosen));
}

/// Layer metrics of the decomposed device paths: simulator transfers and
/// recovery checks (checksum time per op), plus the tracing overhead of
/// each `(traced span, untraced span)` pair of op spans.
pub fn sim_layers(ctx: &mut Run, ops: usize, op_spans: &[(&str, &str)]) {
    for (metric, span) in [
        ("sim.alloc_upload_ms", "sim.alloc_upload"),
        ("sim.download_ms", "sim.download"),
        ("recover.verify_ms", "recover.verify"),
    ] {
        let ms = ctx.tracer.durations_ms(span);
        if !ms.is_empty() {
            ctx.layers.samples(metric, &ms);
        }
    }
    let checksum: f64 = ctx.tracer.durations_ms("recover.checksum").iter().sum();
    ctx.layers
        .exact("recover.checksum_ms", checksum / ops.max(1) as f64);
    ctx.trace_overhead(op_spans);
}

/// Record the per-kernel layer metrics of kernel `key` (e.g. `s1_100`):
/// the geometric mean over shapes of each value.
pub fn record_kernel(ctx: &mut Run, key: &str, per_shape: &[[f64; 7]]) {
    for (i, suffix) in KERNEL_SUFFIXES.iter().enumerate() {
        let name = crate::metrics::def(&format!("kernel.{key}.{suffix}"))
            .expect("kernel metric in the table")
            .name;
        let vals: Vec<f64> = per_shape.iter().map(|v| v[i]).collect();
        ctx.layers.exact(name, crate::stats::geomean(&vals));
    }
}
