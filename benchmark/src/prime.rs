//! `prime` — shapes the planner cannot tile.
//!
//! Both device shapes are coprime and route to C2R; the second has columns
//! too long for local memory and stages them through global scratch (this
//! is asserted at set-up). The
//! host shape routes `transpose_in_place_any` to the coprime decomposition.
//! C2R kernels are work-group-local — no claims, no per-stage checksums —
//! so a change aimed at `100!` or the staged recovery path should leave
//! this workload flat, while retiring the coprime host path shows only
//! here.

use crate::device::{self, k20, DeviceTally, Shape};
use crate::inputs::{self, Stream};
use crate::stats::Stat;
use crate::Run;
use gpu_sim::{DeviceSpec, EngineMode, PipelineStats};
use ipt_core::full::{route_for, AnyRoute};
use ipt_core::{Scheme, TileHeuristic};
use ipt_gpu::opts::GpuOptions;
use ipt_gpu::recover::verify_exact;
use ipt_gpu::serve::{build_plan, ServeConfig};
use ipt_gpu::transpose_c2r_on_device;
use ipt_obs::NoopRecorder;

/// Sizes and repetition counts.
pub struct Config {
    /// Device shapes (both coprime).
    pub device: [(usize, usize); 2],
    /// Host shape (f32), coprime.
    pub host: (usize, usize),
    /// Device transpositions of each shape at least (more while the
    /// window is open).
    pub device_ops: usize,
    /// Decomposed device transpositions of each shape when traced.
    pub traced_ops: usize,
    /// Set-up repetitions (the median is reported).
    pub setups: usize,
}

impl Config {
    /// The benchmark sizes: 1009×997 and 13001×61 on the device (13001
    /// words is past the 12288-word local memory of a K20 work-group);
    /// 17389×18097 f32 (1200 MiB) on the host.
    pub fn full() -> Self {
        Self {
            device: [(1009, 997), (13_001, 61)],
            host: (17_389, 18_097),
            device_ops: 15,
            traced_ops: 3,
            setups: 3,
        }
    }

    /// Test sizes.
    #[cfg(test)]
    pub fn tiny() -> Self {
        Self {
            device: [(127, 61), (12_301, 3)],
            host: (127, 61),
            device_ops: 2,
            traced_ops: 1,
            setups: 1,
        }
    }
}

const OP_SPANS: [&str; 2] = ["device_op.a", "device_op.b"];
const DECOMPOSED_SPANS: [&str; 2] = ["device_op.decomposed.a", "device_op.decomposed.b"];

/// Run the workload.
pub fn run(ctx: &mut Run, cfg: &Config) {
    let dev = k20();
    let serve = ServeConfig::new(&dev);
    let (hr, hc) = cfg.host;
    ctx.working_set(hr, hc, 4);
    ctx.guard(
        route_for(hr, hc, &TileHeuristic::default()) == AnyRoute::Coprime,
        || format!("host shape {hr}x{hc} must route to the coprime decomposition"),
    );

    let mut setup_s = Vec::with_capacity(cfg.setups);
    let mut shapes: Vec<Shape> = Vec::new();
    for rep in 0..cfg.setups.max(1) {
        let build = |&(rows, cols): &(usize, usize)| {
            let plan = if ctx.traced && rep == 0 {
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
            };
            Shape { rows, cols, plan }
        };
        let (built, ms) = ctx
            .tracer
            .op("autotune", || cfg.device.iter().map(build).collect());
        setup_s.push(ms / 1e3);
        shapes = built;
    }
    for s in &shapes {
        ctx.guard(
            s.plan.decision.scheme == Scheme::C2R && s.plan.wg_size.is_some(),
            || {
                format!(
                    "{}x{} must plan as c2r, got {:?}",
                    s.rows, s.cols, s.plan.decision.scheme
                )
            },
        );
        ctx.working_set(s.rows, s.cols, 4);
        ctx.note(
            &format!("c2r_scratch_words.{}x{}", s.rows, s.cols),
            serde::Value::UInt(s.scratch_words(&dev, &serve) as u64),
        );
    }
    ctx.guard(shapes[1].scratch_words(&dev, &serve) > 0, || {
        format!(
            "{}x{} must stage its lines through global scratch",
            shapes[1].rows, shapes[1].cols
        )
    });
    ctx.e2e.samples("setup_s", &setup_s);
    let setup_ms = Stat::of(&setup_s).value * 1e3;
    device::record_autotune(ctx, &shapes.iter().collect::<Vec<_>>(), setup_ms);

    let mut host_buf: Vec<f32> = Vec::new();
    let mut host_ms = Vec::new();
    let mut tallies: [DeviceTally; 2] = Default::default();
    let mut stream = 0u64;
    let mut next = || {
        stream += 1;
        stream
    };
    // One host transposition (it lasts seconds, long enough to be steady
    // on its own), then device transpositions of both shapes in turn until
    // the window closes.
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
    for round in 0.. {
        if round >= cfg.device_ops && ctx.expired() {
            break;
        }
        for (i, shape) in shapes.iter().enumerate() {
            device::device_op(
                ctx,
                &dev,
                &serve,
                shape,
                next(),
                OP_SPANS[i],
                &mut tallies[i],
            );
        }
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
    if tallies.iter().all(|t| t.stats.is_some()) {
        let sim: Vec<f64> = shapes
            .iter()
            .zip(&tallies)
            .map(|(s, t)| {
                t.stats
                    .as_ref()
                    .expect("checked")
                    .throughput_gbps(s.bytes())
            })
            .collect();
        ctx.e2e.exact("sim_gbps", crate::stats::geomean(&sim));
        let walls: Vec<Stat> = tallies.iter().map(|t| Stat::of(&t.wall_ms)).collect();
        ctx.e2e.set("sim_wall_ms", Stat::geomean(&walls));
        for (key, prefix) in [("c2r_rows", "c2r-rows"), ("c2r_cols", "c2r-cols")] {
            let per_shape: Vec<[f64; 7]> = shapes
                .iter()
                .zip(&tallies)
                .filter_map(|(s, t)| {
                    let k = t
                        .stats
                        .as_ref()?
                        .stages
                        .iter()
                        .find(|k| k.name.starts_with(prefix))?;
                    Some(device::kernel_values(&dev, k, s.bytes()))
                })
                .collect();
            if per_shape.len() == shapes.len() {
                device::record_kernel(ctx, key, &per_shape);
            }
        }
    }
    let non_primary: u64 = tallies.iter().map(|t| t.non_primary).sum();
    ctx.layers.exact("recover.non_primary", non_primary as f64);
    ctx.thread_layers();

    if ctx.traced {
        traced_device(ctx, &dev, &serve, &shapes, cfg.traced_ops, &mut next);
        traced_host(ctx, &mut host_buf, hr, hc, &mut next);
    }
}

/// The C2R device path taken apart: upload, the pass pipeline, download,
/// `verify_exact`. The pass reports are replayed into the DES recorder,
/// since the C2R entry point records no spans itself.
fn decomposed(
    ctx: &Run,
    dev: &DeviceSpec,
    shape: &Shape,
    opts: &GpuOptions,
    original: &[u32],
) -> Result<(Vec<u32>, PipelineStats), String> {
    let tr = &ctx.tracer;
    let (alloc, _) = tr.span("sim.alloc_upload", || {
        let mut sim = shape.sim(dev, opts, EngineMode::parallel_auto());
        let data = sim.try_alloc(shape.words())?;
        sim.upload_u32(data, original);
        Some((sim, data))
    });
    let (mut sim, data) = alloc.ok_or("device memory too small")?;
    let (stats, _) = tr.span("c2r.device", || {
        transpose_c2r_on_device(&mut sim, data, shape.rows, shape.cols, opts.wg_size)
    });
    let stats = stats.map_err(|e| e.to_string())?;
    let mut t0 = 0.0;
    for k in &stats.stages {
        k.record(&ctx.des, t0);
        t0 += k.time_s;
    }
    let (result, _) = tr.span("sim.download", || sim.download_u32(data));
    tr.span("recover.verify", || {
        verify_exact(original, &result, shape.rows, shape.cols)
    })
    .0
    .map_err(|e| e.to_string())?;
    Ok((result, stats))
}

fn traced_device(
    ctx: &mut Run,
    dev: &DeviceSpec,
    serve: &ServeConfig,
    shapes: &[Shape],
    ops: usize,
    next: &mut impl FnMut() -> u64,
) {
    let mut decide = Vec::new();
    let mut gains = Vec::new();
    for (i, shape) in shapes.iter().enumerate() {
        let us: Vec<f64> = (0..101)
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
        decide.push(Stat::of(&us));
        let opts = shape.opts(serve);
        let mut shape_gains = Vec::new();
        for op in 0..ops {
            let src = Stream::new(ctx.seed, next());
            let original = src.words(shape.words());
            let (res, _) = ctx.tracer.span(DECOMPOSED_SPANS[i], || {
                decomposed(ctx, dev, shape, &opts, &original)
            });
            let (result, stats) = match res {
                Ok(r) => r,
                Err(e) => {
                    ctx.outcome(false, || {
                        format!("decomposed c2r {}x{}: {e}", shape.rows, shape.cols)
                    });
                    continue;
                }
            };
            let bad =
                inputs::transposed_mismatches(shape.rows, shape.cols, &result, |k| src.word(k));
            ctx.outcome(bad == 0, || {
                format!("decomposed c2r: {bad} misplaced elements")
            });
            if op == 0 {
                let mut one_call = original.clone();
                let same = shape
                    .transpose(dev, serve, &mut one_call, EngineMode::parallel_auto())
                    .is_ok_and(|(s, _)| device::same_stats(&s, &stats) && one_call == result);
                ctx.guard(same, || {
                    "decomposed c2r path differs from the one-call path".into()
                });
            }
            let replay = |mode: EngineMode, span: &'static str| {
                let mut sim = shape.sim(dev, &opts, mode);
                let data = sim.alloc(shape.words());
                sim.upload_u32(data, &original);
                let (res, ms) = ctx.tracer.span(span, || {
                    transpose_c2r_on_device(&mut sim, data, shape.rows, shape.cols, opts.wg_size)
                });
                (res.ok(), ms, sim.download_u32(data))
            };
            let (s_stats, serial_ms, s_mem) = replay(EngineMode::Serial, "exec.serial.c2r");
            let (p_stats, par_ms, p_mem) = replay(EngineMode::parallel_auto(), "exec.parallel.c2r");
            let same =
                matches!((&s_stats, &p_stats), (Some(a), Some(b)) if device::same_stats(a, b));
            ctx.guard(same && s_mem == p_mem, || {
                format!(
                    "c2r {}x{} differs between the serial and parallel engines",
                    shape.rows, shape.cols
                )
            });
            shape_gains.push(serial_ms / par_ms);
        }
        if !shape_gains.is_empty() {
            gains.push(Stat::of(&shape_gains));
        }
    }
    ctx.layers.set("scheme.decide_us", Stat::geomean(&decide));
    if gains.len() == shapes.len() {
        ctx.layers
            .set("exec.parallel_gain_x.c2r", Stat::geomean(&gains));
    }
    let device_ms = ctx.tracer.durations_ms("c2r.device");
    if !device_ms.is_empty() {
        ctx.layers.samples("c2r.device_ms", &device_ms);
    }
    let pairs: Vec<(&str, &str)> = DECOMPOSED_SPANS.into_iter().zip(OP_SPANS).collect();
    device::sim_layers(ctx, ops * shapes.len(), &pairs);
}

fn traced_host(
    ctx: &mut Run,
    buf: &mut Vec<f32>,
    hr: usize,
    hc: usize,
    next: &mut impl FnMut() -> u64,
) {
    device::host_op(ctx, buf, hr, hc, next(), "coprime.par", |buf, _| {
        device::on_matrix(buf, hr, hc, ipt_core::transpose_matrix_coprime);
    });
    device::host_op(ctx, buf, hr, hc, next(), "coprime.seq", |buf, _| {
        ipt_core::transpose_coprime_seq(buf, hr, hc);
    });
    device::host_op(ctx, buf, hr, hc, next(), "c2r.host", |buf, _| {
        device::on_matrix(buf, hr, hc, ipt_core::transpose_matrix_c2r);
    });
    let raw = |span: &str| ctx.tracer.durations_ms(span)[0];
    let (par, seq, c2r) = (raw("coprime.par"), raw("coprime.seq"), raw("c2r.host"));
    ctx.layers.exact("coprime.host_ms", par);
    ctx.layers.exact("coprime.host_seq_ms", seq);
    ctx.layers.exact("c2r.host_ms", c2r);
    ctx.layers.exact("rayon.scaling_x", seq / par);
}
