//! `outofcore` — a matrix three times larger than the device memory budget,
//! streamed through the device in row-band chunks.
//!
//! Each cycle runs fault-free streams and streams under sustained transfer
//! chaos. Only this workload reaches the copy-engine DES, the chunk journal
//! and the `StreamPath` ladder. Its host metric times
//! `host_transpose_elems`, the function the ladder's `HostChunk` rung runs.

use crate::device::{self, k20};
use crate::inputs::{self, Stream};
use crate::Run;
use gpu_sim::fault::{ChaosConfig, ChaosPlan};
use ipt_core::outofcore::plan_chunks;
use ipt_gpu::recover::host_transpose_elems;
use ipt_gpu::stream::{stream_transpose_rec, StreamChaos, StreamConfig, StreamPath, StreamReport};
use ipt_obs::{NoopRecorder, Recorder};

/// Sizes and repetition counts.
pub struct Config {
    /// Matrix shape (u32 elements).
    pub shape: (usize, usize),
    /// Chunks the `words / 3` budget must give.
    pub chunks: usize,
    /// Fault-free streams per cycle: the wall of one stream varies by about
    /// a fifth, so the median needs a dozen samples to repeat between runs.
    pub fault_free_runs: usize,
    /// Streams under transfer chaos per cycle.
    pub chaos_runs: usize,
    /// Set-up repetitions (the median is reported).
    pub setups: usize,
    /// Traced fault-free streams.
    pub traced_runs: usize,
}

impl Config {
    /// The benchmark sizes: 2880×720 over a budget of a third of its words.
    pub fn full() -> Self {
        Self {
            shape: (2880, 720),
            chunks: 6,
            fault_free_runs: 12,
            chaos_runs: 6,
            setups: 3,
            traced_runs: 3,
        }
    }

    /// Test sizes.
    #[cfg(test)]
    pub fn tiny() -> Self {
        Self {
            shape: (288, 72),
            chunks: 6,
            fault_free_runs: 2,
            chaos_runs: 2,
            setups: 1,
            traced_runs: 1,
        }
    }
}

/// Host-rung transpositions per host sample: a sample lasts long enough
/// (about 100 ms) to take steal out of.
const HOST_REPS: usize = 4;
/// Host samples per fault-free stream. The host rung's time varies by
/// about a fifth between samples, so the median needs tens of them to
/// repeat between runs.
const HOST_SAMPLES: usize = 2;

/// One checked stream of input `stream` under `chaos`; returns the report
/// and milliseconds (steal taken out) on success, inside the span `span`.
#[allow(clippy::too_many_arguments)]
fn stream_op<R: Recorder>(
    ctx: &mut Run,
    cfg: &StreamConfig,
    (rows, cols): (usize, usize),
    stream: u64,
    chaos: &StreamChaos,
    span: &'static str,
    rec: &R,
) -> Option<(StreamReport, f64)> {
    let src = Stream::new(ctx.seed, stream);
    let data = src.words(rows * cols);
    let dev = k20();
    let (res, ms) = ctx.tracer.op(span, || {
        stream_transpose_rec(&dev, &data, rows, cols, 1, cfg, chaos, rec)
    });
    match res {
        Ok((out, report)) => {
            let bad = inputs::transposed_mismatches(rows, cols, &out, |k| src.word(k));
            ctx.outcome(bad == 0 && report.journal.all_committed(), || {
                format!("stream {rows}x{cols}: {bad} misplaced elements")
            });
            Some((report, ms))
        }
        Err(e) => {
            ctx.outcome(false, || format!("stream {rows}x{cols}: {e}"));
            None
        }
    }
}

/// Run the workload.
pub fn run(ctx: &mut Run, cfg: &Config) {
    let dev = k20();
    let (rows, cols) = cfg.shape;
    ctx.working_set(rows, cols, 4);
    let budget = (rows * cols) as u64 / 3;
    ctx.note("stream_budget_words", serde::Value::UInt(budget));

    // Set-up: configuration, chunk plan, and one warm-up stream.
    let mut setup_s = Vec::new();
    let mut scfg = None;
    for rep in 0..cfg.setups.max(1) {
        let sw = crate::sys::Stopwatch::start();
        let c = StreamConfig::new(&dev, budget);
        let plan = plan_chunks(rows, cols, 1, budget, 2);
        ctx.guard(
            plan.as_ref().is_ok_and(|p| p.num_chunks == cfg.chunks),
            || {
                format!(
                    "{rows}x{cols} over {budget} words must plan {} chunks: {plan:?}",
                    cfg.chunks
                )
            },
        );
        stream_op(
            ctx,
            &c,
            cfg.shape,
            u64::MAX - rep as u64,
            &StreamChaos::None,
            "stream.warmup",
            &NoopRecorder,
        );
        setup_s.push(sw.ms() / 1e3);
        scfg = Some(c);
    }
    let scfg = scfg.expect("at least one set-up");
    ctx.e2e.samples("setup_s", &setup_s);

    let mut ff: Vec<(StreamReport, f64)> = Vec::new();
    let mut chaos: Vec<StreamReport> = Vec::new();
    let mut host_gbps = Vec::new();
    let bytes = ipt_core::check::bytes_f64(rows, cols, 4);
    let mut stream = 0u64;
    ctx.start_window();
    'cycles: for cycle in 0.. {
        for _ in 0..cfg.fault_free_runs {
            if cycle > 0 && ctx.expired() {
                break 'cycles;
            }
            stream += 1;
            if let Some(r) = stream_op(
                ctx,
                &scfg,
                cfg.shape,
                stream,
                &StreamChaos::None,
                "stream.op",
                &NoopRecorder,
            ) {
                ff.push(r);
            }
            // The ladder's host rung on the same input.
            let src = Stream::new(ctx.seed, stream);
            let data = src.words(rows * cols);
            for _ in 0..HOST_SAMPLES {
                let (out, ms) = ctx.tracer.op("stream.host", || {
                    let mut out = Vec::new();
                    for _ in 0..HOST_REPS {
                        out = host_transpose_elems(std::hint::black_box(&data), rows, cols, 1);
                    }
                    out
                });
                let bad = inputs::transposed_mismatches(rows, cols, &out, |k| src.word(k));
                ctx.outcome(bad == 0, || {
                    format!("host_transpose_elems {rows}x{cols}: {bad} misplaced")
                });
                host_gbps.push(device::gbps(bytes, ms / HOST_REPS as f64));
            }
        }
        for i in 0..cfg.chaos_runs {
            if cycle > 0 && ctx.expired() {
                break 'cycles;
            }
            stream += 1;
            let plan = ChaosPlan::new(
                ctx.seed.wrapping_add(i as u64),
                ChaosConfig::transfers(0.25, 0.25, usize::MAX),
            );
            let c = StreamChaos::TransferChaos(plan);
            let op = stream_op(
                ctx,
                &scfg,
                cfg.shape,
                stream,
                &c,
                "stream.op.chaos",
                &NoopRecorder,
            );
            // The chaos plans repeat every cycle; the first cycle's reports
            // are the deterministic ones.
            if let (Some((r, _)), 0) = (op, cycle) {
                chaos.push(r);
            }
        }
    }

    ctx.e2e.samples("host_gbps", &host_gbps);
    let ff_ms: Vec<f64> = ff.iter().map(|(_, ms)| *ms).collect();
    if let Some((r, _)) = ff.first() {
        ctx.e2e.exact("sim_gbps", r.effective_gbps);
        ctx.e2e.samples("sim_wall_ms", &ff_ms);
        ctx.layers.exact("stream.chunks", r.num_chunks as f64);
        ctx.layers.exact("stream.roofline_gbps", r.roofline_gbps);
        ctx.layers
            .exact("stream.overlap_efficiency", r.overlap_efficiency);
    }
    if !chaos.is_empty() {
        let chunks: usize = chaos.iter().map(|r| r.journal.chunks.len()).sum();
        let degraded: usize = chaos
            .iter()
            .map(|r| {
                r.journal
                    .chunks
                    .iter()
                    .filter(|c| c.path != StreamPath::Overlapped)
                    .count()
            })
            .sum();
        let l = &mut ctx.layers;
        l.exact(
            "stream.chunk_retries",
            chaos.iter().map(|r| r.chunk_retries as f64).sum(),
        );
        l.exact(
            "stream.degradations",
            chaos.iter().map(|r| r.degradations as f64).sum(),
        );
        l.exact(
            "stream.penalty_us",
            chaos.iter().map(|r| r.penalty_s * 1e6).sum(),
        );
        l.exact(
            "stream.degraded_frac",
            degraded as f64 / chunks.max(1) as f64,
        );
    }
    for (metric, span) in [
        ("stream.wall_ms.fault_free", "stream.op"),
        ("stream.wall_ms.chaos", "stream.op.chaos"),
    ] {
        let raw = ctx.tracer.durations_ms(span);
        if !raw.is_empty() {
            ctx.layers.samples(metric, &raw);
        }
    }
    ctx.thread_layers();

    if ctx.traced {
        let des = std::mem::take(&mut ctx.des);
        for _ in 0..cfg.traced_runs {
            stream += 1;
            stream_op(
                ctx,
                &scfg,
                cfg.shape,
                stream,
                &StreamChaos::None,
                "stream.op.traced",
                &des,
            );
        }
        ctx.des = des;
        ctx.trace_overhead(&[("stream.op.traced", "stream.op")]);
    }
}
