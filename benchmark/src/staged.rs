//! `staged` — the paper's case: the 3-stage `100! → 0010! → 0100!` plan on
//! divisor-rich shapes.
//!
//! Set-up builds the autotuned plan for the device shape under the serving
//! heuristic (the tile search measures every surviving candidate). The
//! measurement is one host `transpose_in_place_any` on a matrix far larger
//! than the last-level cache, then device transpositions through
//! `transpose_scheme_with_recovery` on the parallel engine serve uses for
//! cache hits. Stage 1 (`100!`) is the cross-work-group claims kernel, so
//! changes to the exec engine, autotune, the recovery checksums and host
//! parallelism show here first.

use crate::device::{self, k20, DeviceTally, Shape};
use crate::inputs::Stream;
use crate::stats::Stat;
use crate::Run;
use gpu_sim::{DeviceSpec, EngineMode, PipelineStats};
use ipt_core::full::{plan_auto, route_for, Algorithm, AnyRoute};
use ipt_core::{Scheme, StagePlan, TileHeuristic};
use ipt_gpu::opts::GpuOptions;
use ipt_gpu::pipeline::{plan_flag_words, run_stage, run_stage_rec};
use ipt_gpu::recover::{multiset_checksum, verify_exact};
use ipt_gpu::serve::{build_plan, ServeConfig};
use ipt_obs::NoopRecorder;

/// Sizes and repetition counts.
pub struct Config {
    /// Device matrix.
    pub device: (usize, usize),
    /// Host matrix (f32).
    pub host: (usize, usize),
    /// Device transpositions at least (more while the window is open).
    pub device_ops: usize,
    /// Decomposed device transpositions in the traced re-run.
    pub traced_ops: usize,
    /// Set-up repetitions (the median is reported).
    pub setups: usize,
}

impl Config {
    /// The benchmark sizes: 800×640 on the device; 20000×16000 f32
    /// (1.28 GB, over four times the 300 MiB L3 of the machine the
    /// benchmark was defined on) on the host.
    pub fn full() -> Self {
        Self {
            device: (800, 640),
            host: (20_000, 16_000),
            device_ops: 15,
            traced_ops: 5,
            setups: 3,
        }
    }

    /// Test sizes.
    #[cfg(test)]
    pub fn tiny() -> Self {
        Self {
            device: (192, 144),
            host: (360, 240),
            device_ops: 2,
            traced_ops: 1,
            setups: 1,
        }
    }
}

/// Stage keys, in plan order.
pub const STAGES: [&str; 3] = ["s1_100", "s2_0010", "s3_0100"];
const KERNEL_SPANS: [&str; 3] = ["kernel.s1_100", "kernel.s2_0010", "kernel.s3_0100"];
const HOST_STAGE_SPANS: [&str; 3] = ["stages.s1_100", "stages.s2_0010", "stages.s3_0100"];
const SERIAL_SPANS: [&str; 3] = [
    "exec.serial.s1_100",
    "exec.serial.s2_0010",
    "exec.serial.s3_0100",
];
const PARALLEL_SPANS: [&str; 3] = [
    "exec.parallel.s1_100",
    "exec.parallel.s2_0010",
    "exec.parallel.s3_0100",
];

/// Run the workload.
pub fn run(ctx: &mut Run, cfg: &Config) {
    let dev = k20();
    let serve = ServeConfig::new(&dev);
    let (rows, cols) = cfg.device;
    let (hr, hc) = cfg.host;
    ctx.working_set(rows, cols, 4);
    ctx.working_set(hr, hc, 4);
    ctx.guard(
        route_for(hr, hc, &TileHeuristic::default()) == AnyRoute::Staged,
        || format!("host shape {hr}x{hc} must route to the staged plan"),
    );

    // Set-up: the plan build, which measures every candidate tile on the
    // simulator.
    let mut setup_s = Vec::with_capacity(cfg.setups);
    let mut plan = None;
    for rep in 0..cfg.setups.max(1) {
        let (built, ms) = ctx.tracer.op("autotune", || {
            if ctx.traced && rep == 0 {
                build_plan(&dev, rows, cols, &serve.heuristic, &serve.opts, &ctx.des)
            } else {
                build_plan(
                    &dev,
                    rows,
                    cols,
                    &serve.heuristic,
                    &serve.opts,
                    &NoopRecorder,
                )
            }
        });
        setup_s.push(ms / 1e3);
        plan = Some(built);
    }
    let plan = plan.expect("at least one set-up");
    ctx.guard(
        plan.decision.scheme == Scheme::Staged && plan.plan.is_some(),
        || {
            format!(
                "{rows}x{cols} must plan as staged, got {:?}",
                plan.decision.scheme
            )
        },
    );
    let shape = Shape { rows, cols, plan };
    ctx.e2e.samples("setup_s", &setup_s);
    device::record_autotune(ctx, &[&shape], Stat::of(&setup_s).value * 1e3);

    let mut host_buf: Vec<f32> = Vec::new();
    let mut host_ms = Vec::new();
    let mut tally = DeviceTally::default();
    let mut stream = 0u64;
    let mut next = || {
        stream += 1;
        stream
    };
    // One host transposition (it lasts seconds, long enough to be steady
    // on its own), then device transpositions until the window closes.
    ctx.start_window();
    host_ms.push(device::host_op(
        ctx,
        &mut host_buf,
        hr,
        hc,
        next(),
        "full",
        |buf, _| {
            device::on_matrix(buf, hr, hc, ipt_core::transpose_in_place_any);
        },
    ));
    for op in 0.. {
        if op >= cfg.device_ops && ctx.expired() {
            break;
        }
        device::device_op(ctx, &dev, &serve, &shape, next(), "device_op", &mut tally);
    }

    let host_bytes = ipt_core::check::bytes_f64(hr, hc, 4);
    let gbps: Vec<f64> = host_ms
        .iter()
        .map(|&ms| device::gbps(host_bytes, ms))
        .collect();
    ctx.e2e.samples("host_gbps", &gbps);
    let raw = ctx.tracer.durations_ms("full");
    if !raw.is_empty() {
        ctx.layers.samples("full.host_ms", &raw);
    }
    if let Some(stats) = &tally.stats {
        ctx.e2e
            .exact("sim_gbps", stats.throughput_gbps(shape.bytes()));
        let vals: Vec<[f64; 7]> = stats
            .stages
            .iter()
            .map(|k| device::kernel_values(&dev, k, shape.bytes()))
            .collect();
        for (key, v) in STAGES.iter().zip(&vals) {
            device::record_kernel(ctx, key, &[*v]);
        }
    }
    if !tally.wall_ms.is_empty() {
        ctx.e2e.samples("sim_wall_ms", &tally.wall_ms);
    }
    ctx.layers
        .exact("recover.non_primary", tally.non_primary as f64);
    ctx.thread_layers();

    if ctx.traced {
        traced_device(ctx, &dev, &serve, &shape, cfg.traced_ops, &mut next);
        traced_host(ctx, &mut host_buf, hr, hc, &mut next);
    }
}

/// What one decomposed device transposition produced.
struct Decomposed {
    result: Vec<u32>,
    stats: PipelineStats,
    /// The device image before each stage.
    snapshots: Vec<Vec<u32>>,
}

/// The one-call device path taken apart through the layers' public
/// functions: upload; per stage download + checksum, `run_stage_rec`,
/// download + checksum; download; `verify_exact`.
fn decomposed(
    ctx: &Run,
    dev: &DeviceSpec,
    shape: &Shape,
    plan: &StagePlan,
    opts: &GpuOptions,
    original: &[u32],
) -> Result<Decomposed, String> {
    let tr = &ctx.tracer;
    let (alloc, _) = tr.span("sim.alloc_upload", || {
        let mut sim = shape.sim(dev, opts, EngineMode::parallel_auto());
        let data = sim.try_alloc(shape.words())?;
        let flags = sim.try_alloc(plan_flag_words(plan).max(1))?;
        sim.upload_u32(data, original);
        Some((sim, data, flags))
    });
    let (sim, data, flags) = alloc.ok_or("device memory too small")?;
    let mut out = PipelineStats::default();
    let mut snapshots = Vec::with_capacity(plan.stages.len());
    for (stage, span) in plan.stages.iter().zip(KERNEL_SPANS) {
        let ((snap, want), _) = tr.span("recover.checksum", || {
            let snap = sim.download_u32(data);
            let sum = multiset_checksum(&snap);
            (snap, sum)
        });
        let t0 = out.time_s();
        tr.span(span, || {
            run_stage_rec(&sim, data, flags, stage, opts, &mut out, &ctx.des, t0)
        })
        .0
        .map_err(|e| e.to_string())?;
        let (after, _) = tr.span("recover.checksum", || {
            multiset_checksum(&sim.download_u32(data))
        });
        if after != want {
            return Err(format!(
                "stage {} changed the multiset checksum",
                stage.code
            ));
        }
        snapshots.push(snap);
    }
    let (result, _) = tr.span("sim.download", || sim.download_u32(data));
    tr.span("recover.verify", || {
        verify_exact(original, &result, shape.rows, shape.cols)
    })
    .0
    .map_err(|e| e.to_string())?;
    Ok(Decomposed {
        result,
        stats: out,
        snapshots,
    })
}

fn traced_device(
    ctx: &mut Run,
    dev: &DeviceSpec,
    serve: &ServeConfig,
    shape: &Shape,
    ops: usize,
    next: &mut impl FnMut() -> u64,
) {
    let plan = shape.plan.plan.as_ref().expect("guarded at set-up");
    ctx.guard(plan.stages.len() == 3, || {
        format!("{} has {} stages", plan.name, plan.stages.len())
    });
    let opts = shape.opts(serve);
    let decide_us: Vec<f64> = (0..101)
        .map(|_| {
            let t = std::time::Instant::now();
            std::hint::black_box(ipt_core::decide_scheme(
                shape.rows,
                shape.cols,
                &serve.heuristic,
            ));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    ctx.layers.samples("scheme.decide_us", &decide_us);

    let mut gains: [Vec<f64>; 3] = Default::default();
    for op in 0..ops {
        let src = Stream::new(ctx.seed, next());
        let original = src.words(shape.words());
        let (res, _) = ctx.tracer.span("device_op.decomposed", || {
            decomposed(ctx, dev, shape, plan, &opts, &original)
        });
        let Decomposed {
            result,
            stats,
            snapshots,
        } = match res {
            Ok(r) => r,
            Err(e) => {
                ctx.outcome(false, || {
                    format!("decomposed {}x{}: {e}", shape.rows, shape.cols)
                });
                continue;
            }
        };
        let bad =
            crate::inputs::transposed_mismatches(shape.rows, shape.cols, &result, |k| src.word(k));
        ctx.outcome(bad == 0, || {
            format!("decomposed staged: {bad} misplaced elements")
        });
        if op == 0 {
            let mut one_call = original.clone();
            let same = shape
                .transpose(dev, serve, &mut one_call, EngineMode::parallel_auto())
                .is_ok_and(|(s, _)| device::same_stats(&s, &stats) && one_call == result);
            ctx.guard(same, || {
                "decomposed staged path differs from the one-call path".into()
            });
        }
        // Serial over parallel engine wall, each stage replayed from the
        // device image the decomposed run started it from.
        for (i, (stage, snap)) in plan.stages.iter().zip(&snapshots).enumerate() {
            let replay = |mode: EngineMode, span: &'static str| {
                let mut sim = shape.sim(dev, &opts, mode);
                let data = sim.alloc(shape.words());
                let flags = sim.alloc(plan_flag_words(plan).max(1));
                sim.upload_u32(data, snap);
                let mut out = PipelineStats::default();
                let (res, ms) = ctx.tracer.span(span, || {
                    run_stage(&sim, data, flags, stage, &opts, &mut out)
                });
                (res.is_ok(), ms, sim.download_u32(data), out)
            };
            let (ok_s, serial_ms, mem_s, out_s) = replay(EngineMode::Serial, SERIAL_SPANS[i]);
            let (ok_p, par_ms, mem_p, out_p) =
                replay(EngineMode::parallel_auto(), PARALLEL_SPANS[i]);
            ctx.guard(
                ok_s && ok_p && mem_s == mem_p && device::same_stats(&out_s, &out_p),
                || {
                    format!(
                        "stage {} differs between the serial and parallel engines",
                        STAGES[i]
                    )
                },
            );
            gains[i].push(serial_ms / par_ms);
        }
    }
    for (i, key) in STAGES.iter().enumerate() {
        let span_ms = ctx.tracer.durations_ms(KERNEL_SPANS[i]);
        if !span_ms.is_empty() {
            let name = crate::metrics::def(&format!("kernel.{key}.wall_ms"))
                .expect("in table")
                .name;
            ctx.layers.samples(name, &span_ms);
        }
        if !gains[i].is_empty() {
            let name = crate::metrics::def(&format!("exec.parallel_gain_x.{key}"))
                .expect("in table")
                .name;
            ctx.layers.samples(name, &gains[i]);
        }
    }
    device::sim_layers(ctx, ops, &[("device_op.decomposed", "device_op")]);
}

fn traced_host(
    ctx: &mut Run,
    buf: &mut Vec<f32>,
    hr: usize,
    hc: usize,
    next: &mut impl FnMut() -> u64,
) {
    let (plan, _) = ctx.tracer.span("stages.plan", || {
        plan_auto(hr, hc, Algorithm::ThreeStage, &TileHeuristic::default())
    });
    ctx.guard(plan.stages.len() == 3, || {
        format!("host plan {} is not the 3-stage plan", plan.name)
    });
    device::host_op(ctx, buf, hr, hc, next(), "stages.par", |buf, tr| {
        for (stage, span) in plan.stages.iter().zip(HOST_STAGE_SPANS) {
            tr.span(span, || stage.op.apply_par(buf));
        }
    });
    device::host_op(ctx, buf, hr, hc, next(), "stages.seq", |buf, _| {
        for stage in &plan.stages {
            stage.op.apply_seq(buf);
        }
    });
    for (i, span) in HOST_STAGE_SPANS.iter().enumerate() {
        let name = crate::metrics::def(&format!("stages.host_ms.{}", STAGES[i]))
            .expect("in table")
            .name;
        ctx.layers.samples(name, &ctx.tracer.durations_ms(span));
    }
    let (par_ms, seq_ms) = (
        ctx.tracer.durations_ms("stages.par")[0],
        ctx.tracer.durations_ms("stages.seq")[0],
    );
    ctx.layers.exact("stages.host_seq_ms", seq_ms);
    ctx.layers.exact("rayon.scaling_x", seq_ms / par_ms);
}
