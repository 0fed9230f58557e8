//! `serve` — the sharded fleet in steady state.
//!
//! One closed-loop client submits the serving mix in rounds of 96 requests
//! (every 8th round doubled, the overload that drives the Conservative and
//! HostShed rungs), split 30/60/10 interactive/batch/background, and
//! processes each round before sending the next. On backpressure it drains
//! a round and retries once. Per-request fixed costs dominate here, not
//! kernel time: `Sim::new`, admission, plan lookup, the degradation ladder
//! and the DES. It is the only workload that reaches the serve and fleet
//! layers.

use crate::device::k20;
use crate::inputs::{self, Stream};
use crate::stats::{self, Stat};
use crate::Run;
use gpu_sim::{DeviceSpec, EngineMode};
use ipt_gpu::fleet::{Fleet, FleetConfig};
use ipt_gpu::recover::{host_transpose_elems, transpose_scheme_with_recovery, RecoveryPath};
use ipt_gpu::serve::{DegradeLevel, PriorityClass, ServeRequest, ServedResult};
use ipt_gpu::TransposeError;
use ipt_obs::{NoopRecorder, Recorder};

/// Sizes and repetition counts.
pub struct Config {
    /// Requests per pass over the fixed request sequence.
    pub pass_requests: usize,
    /// Requests of the traced pass.
    pub traced_requests: usize,
    /// Set-up repetitions (the median is reported).
    pub setups: usize,
    /// Serial/parallel replays per mix shape when traced.
    pub gain_reps: usize,
}

impl Config {
    /// The benchmark sizes.
    pub fn full() -> Self {
        Self {
            pass_requests: 2400,
            traced_requests: 480,
            setups: 3,
            gain_reps: 3,
        }
    }

    /// Test sizes.
    #[cfg(test)]
    pub fn tiny() -> Self {
        Self {
            pass_requests: 2 * ROUND,
            traced_requests: ROUND,
            setups: 1,
            gain_reps: 1,
        }
    }
}

/// Requests per round.
pub const ROUND: usize = 96;
/// Every this-many-th round is doubled.
const BURST_EVERY: usize = 8;
/// Request ids of pass `p` start at `p * PASS_STRIDE`.
const PASS_STRIDE: u64 = 1 << 32;
/// Ids of the set-up warm-up requests.
const WARMUP_ID: u64 = u64::MAX / 2;

/// Priority class of request index `i`: 30% interactive, 60% batch, 10%
/// background, interleaved.
fn class_of(i: u64) -> PriorityClass {
    match i % 10 {
        6..=8 => PriorityClass::Interactive,
        9 => PriorityClass::Background,
        _ => PriorityClass::Batch,
    }
}

fn request(seed: u64, id: u64, (rows, cols, elem_bytes): (usize, usize, usize)) -> ServeRequest {
    let words = rows * cols * elem_bytes / 4;
    ServeRequest {
        id,
        rows,
        cols,
        elem_bytes,
        priority: class_of(id % PASS_STRIDE),
        data: Stream::new(seed, id).words(words),
    }
}

/// Deterministic tallies of one pass.
#[derive(Default)]
struct Pass {
    results: Vec<ServedResult>,
    /// Wall ms per request, one sample per round.
    round_ms_per_req: Vec<f64>,
    /// Host-clock GB/s served (2 × payload bytes over wall), one sample
    /// per round.
    round_gbps: Vec<f64>,
    wall_ms: f64,
    makespan_s: f64,
    launched_bytes: f64,
    batches: f64,
    batch_requests: f64,
    backpressure: u64,
    rejected: u64,
}

impl Pass {
    /// Take in one fleet round; returns the requests and payload bytes it
    /// completed.
    fn absorb(&mut self, round: ipt_gpu::fleet::FleetRound) -> (usize, usize) {
        self.makespan_s += round.makespan_s;
        let (mut n, mut bytes) = (0, 0);
        for (_, r) in round.rounds {
            self.batches += r.batches as f64;
            self.batch_requests += r.mean_occupancy * r.batches as f64;
            n += r.results.len();
            bytes += r.results.iter().map(|x| 4 * x.data.len()).sum::<usize>();
            self.results.extend(r.results);
        }
        (n, bytes)
    }
}

/// Set up a fleet: construct it with defaults, then serve one warm-up
/// request per mix shape so every plan is built and cached. Returns the
/// fleet and the warm-up results.
fn setup<R: Recorder>(ctx: &mut Run, dev: &DeviceSpec, rec: &R) -> (Fleet, Vec<ServedResult>) {
    let mut fleet = Fleet::new(dev.clone(), FleetConfig::new(dev));
    let mut warm = Pass::default();
    for (i, &shape) in inputs::SERVE_MIX.iter().enumerate() {
        if let Err(e) = fleet.submit(request(ctx.seed, WARMUP_ID + i as u64, shape), rec) {
            ctx.outcome(false, || format!("warm-up submit: {e}"));
        }
    }
    while fleet.backlog() > 0 {
        match fleet.process_rounds(rec) {
            Ok(round) => {
                warm.absorb(round);
            }
            Err(e) => {
                ctx.outcome(false, || format!("warm-up round: {e}"));
                break;
            }
        }
    }
    (fleet, warm.results)
}

/// Check the warm-up results of a set-up (outside its timing).
fn check_warmup(ctx: &mut Run, results: &[ServedResult]) {
    for r in results {
        let shape = inputs::SERVE_MIX[(r.id - WARMUP_ID) as usize];
        let src = request(ctx.seed, r.id, shape).data;
        let want = host_transpose_elems(&src, shape.0, shape.1, shape.2 / 4);
        ctx.outcome(r.data == want, || format!("warm-up request {} wrong", r.id));
    }
}

/// Serve requests `0..n` of pass `p` in rounds. With `stop_at_deadline`
/// the pass ends early once the measurement window closes. With `traced`
/// each submit and round is a host span and `rec` records DES spans.
#[allow(clippy::too_many_arguments)]
fn pass<R: Recorder>(
    ctx: &mut Run,
    fleet: &mut Fleet,
    shapes: &[(usize, usize, usize)],
    p: u64,
    stop_at_deadline: bool,
    traced: bool,
    rec: &R,
) -> Pass {
    let mut out = Pass::default();
    let (round_span, submit_span, process_span) = if traced {
        ("serve.round.traced", "fleet.submit", "fleet.process_rounds")
    } else {
        ("serve.round", "serve.submit", "serve.process_rounds")
    };
    let mut i = 0usize;
    let mut round_idx = 0usize;
    loop {
        if stop_at_deadline && ctx.expired() {
            // Stop sending; drain what was admitted.
            i = shapes.len();
        }
        if i >= shapes.len() && fleet.backlog() == 0 {
            break;
        }
        let burst = (round_idx + 1).is_multiple_of(BURST_EVERY);
        let size = if burst { 2 * ROUND } else { ROUND };
        let ids: Vec<u64> = (i..(i + size).min(shapes.len()))
            .map(|k| p * PASS_STRIDE + k as u64)
            .collect();
        let reqs: Vec<ServeRequest> = ids
            .iter()
            .map(|&id| request(ctx.seed, id, shapes[(id % PASS_STRIDE) as usize]))
            .collect();
        i += reqs.len();
        round_idx += 1;
        let tr = &ctx.tracer;
        let mut failures: Vec<String> = Vec::new();
        let ((served, bp, rejected), ms) = tr.op(round_span, || {
            let (mut served, mut bp, mut rejected) = ((0usize, 0usize), 0u64, 0u64);
            let mut add = |(n, bytes): (usize, usize)| {
                served.0 += n;
                served.1 += bytes;
            };
            for req in reqs {
                let id = req.id;
                let shape = (req.rows, req.cols, req.elem_bytes);
                match tr.span(submit_span, || fleet.submit(req, rec)).0 {
                    Ok(_) => {}
                    Err(TransposeError::Backpressure { .. }) => {
                        bp += 1;
                        match tr.span(process_span, || fleet.process_rounds(rec)).0 {
                            Ok(round) => add(out.absorb(round)),
                            Err(e) => failures.push(format!("round: {e}")),
                        }
                        let again = request(ctx.seed, id, shape);
                        if let Err(e) = tr.span(submit_span, || fleet.submit(again, rec)).0 {
                            rejected += 1;
                            failures.push(format!("request {id} refused twice: {e}"));
                        }
                    }
                    Err(e) => {
                        rejected += 1;
                        failures.push(format!("request {id}: {e}"));
                    }
                }
            }
            match tr.span(process_span, || fleet.process_rounds(rec)).0 {
                Ok(round) => add(out.absorb(round)),
                Err(e) => failures.push(format!("round: {e}")),
            }
            (served, bp, rejected)
        });
        for f in failures {
            ctx.outcome(false, || f);
        }
        out.backpressure += bp;
        out.rejected += rejected;
        out.wall_ms += ms;
        let (n, bytes) = served;
        if n > 0 {
            out.round_ms_per_req.push(ms / n as f64);
            out.round_gbps.push(crate::device::gbps(bytes as f64, ms));
        }
    }
    for r in &out.results {
        if r.service_s > 0.0 {
            let s = shapes[(r.id % PASS_STRIDE) as usize];
            out.launched_bytes += ipt_core::check::bytes_f64(s.0, s.1, s.2);
        }
    }
    out
}

/// Check every result of a pass against `host_transpose_elems` of its
/// regenerated payload, after the timed section.
fn check(ctx: &mut Run, shapes: &[(usize, usize, usize)], results: &[ServedResult]) {
    for r in results {
        let shape @ (rows, cols, elem_bytes) = shapes[(r.id % PASS_STRIDE) as usize];
        let want = host_transpose_elems(
            &request(ctx.seed, r.id, shape).data,
            rows,
            cols,
            elem_bytes / 4,
        );
        ctx.outcome(r.data == want, || {
            format!("request {} ({rows}x{cols}x{elem_bytes}) wrong", r.id)
        });
    }
}

/// Run the workload.
pub fn run(ctx: &mut Run, cfg: &Config) {
    let dev = k20();
    for &(r, c, e) in &inputs::SERVE_MIX {
        ctx.working_set(r, c, e);
    }
    let shapes = inputs::serve_shapes(cfg.pass_requests);
    let mut setup_s = Vec::new();
    let mut fleet = None;
    for _ in 0..cfg.setups.max(1) {
        let sw = crate::sys::Stopwatch::start();
        let (f, warm) = setup(ctx, &dev, &NoopRecorder);
        setup_s.push(sw.ms() / 1e3);
        check_warmup(ctx, &warm);
        fleet = Some(f);
    }
    let mut fleet = fleet.expect("at least one set-up");
    ctx.e2e.samples("setup_s", &setup_s);

    ctx.start_window();
    let execs_before = full_execs(&fleet);
    let first = pass(ctx, &mut fleet, &shapes, 0, false, false, &NoopRecorder);
    let execs = full_execs(&fleet) - execs_before;
    first_pass_layers(ctx, &first, execs, fleet.aggregate_hit_rate());
    if first.makespan_s > 0.0 {
        ctx.e2e.exact(
            "sim_gbps",
            2.0 * first.launched_bytes / first.makespan_s / 1e9,
        );
    }
    check(ctx, &shapes, &first.results);
    let (mut wall_ms, mut served) = (first.wall_ms, first.results.len());
    // Later passes each hold at most one pass of results, so peak memory
    // does not depend on how many passes fit in the window.
    let first_rounds = first.round_ms_per_req;
    let mut round_ms = first_rounds.clone();
    let mut round_gbps = first.round_gbps;
    drop(first.results);
    for p in 1.. {
        if ctx.expired() {
            break;
        }
        let more = pass(ctx, &mut fleet, &shapes, p, true, false, &NoopRecorder);
        check(ctx, &shapes, &more.results);
        wall_ms += more.wall_ms;
        served += more.results.len();
        round_ms.extend(&more.round_ms_per_req);
        round_gbps.extend(&more.round_gbps);
    }

    if !round_ms.is_empty() {
        ctx.e2e.samples("host_gbps", &round_gbps);
        ctx.e2e.samples("sim_wall_ms", &round_ms);
    }
    ctx.layers
        .exact("serve.req_per_s", served as f64 / (wall_ms / 1e3));
    ctx.thread_layers();

    if ctx.traced {
        traced(ctx, &dev, cfg, &shapes, &fleet, &first_rounds);
    }
}

fn full_execs(fleet: &Fleet) -> u64 {
    (0..fleet.num_shards())
        .map(|s| fleet.shard(s).full_execs())
        .sum()
}

/// Simulated-clock layer metrics of the first pass (deterministic).
fn first_pass_layers(ctx: &mut Run, first: &Pass, full_execs: u64, hit_rate: f64) {
    let n = first.results.len().max(1) as f64;
    let sorted = |f: &dyn Fn(&ServedResult) -> f64| {
        let mut v: Vec<f64> = first.results.iter().map(f).collect();
        v.sort_by(f64::total_cmp);
        v
    };
    let latency = sorted(&|r| (r.queue_wait_s + r.service_s) * 1e6);
    let waits = sorted(&|r| r.queue_wait_s * 1e6);
    let service = sorted(&|r| r.service_s * 1e6);
    let count =
        |f: &dyn Fn(&ServedResult) -> bool| first.results.iter().filter(|r| f(r)).count() as f64;
    let conservative = count(&|r| r.degrade == DegradeLevel::Conservative);
    let shed = count(&|r| r.degrade == DegradeLevel::HostShed);
    let non_primary = count(&|r| r.recovery.path != RecoveryPath::Primary);
    let degraded =
        count(&|r| r.degrade != DegradeLevel::Tuned || r.recovery.path != RecoveryPath::Primary);
    let l = &mut ctx.layers;
    l.exact(
        "serve.sim_latency_us_p50",
        stats::nearest_rank(&latency, 0.50),
    );
    l.exact(
        "serve.sim_latency_us_p99",
        stats::nearest_rank(&latency, 0.99),
    );
    l.exact("serve.queue_wait_us_p99", stats::nearest_rank(&waits, 0.99));
    l.exact("serve.service_us_p50", stats::nearest_rank(&service, 0.50));
    l.exact("serve.conservative", conservative);
    l.exact("serve.host_shed", shed);
    l.exact("serve.degraded_frac", degraded / n);
    l.exact("recover.non_primary", non_primary);
    l.exact("serve.backpressure_retries", first.backpressure as f64);
    l.exact("serve.full_execs", full_execs as f64);
    l.exact("serve.cache_hit_rate", hit_rate);
    l.exact(
        "serve.batch_occupancy",
        if first.batches > 0.0 {
            first.batch_requests / first.batches
        } else {
            0.0
        },
    );
}

fn traced(
    ctx: &mut Run,
    dev: &DeviceSpec,
    cfg: &Config,
    shapes: &[(usize, usize, usize)],
    fleet: &Fleet,
    first_rounds: &[f64],
) {
    // A fresh fleet replays the start of the first pass with every submit
    // and round spanned and the DES recorder on.
    let des = std::mem::take(&mut ctx.des);
    let (mut traced_fleet, warm) = setup(ctx, dev, &des);
    check_warmup(ctx, &warm);
    let before = full_execs(&traced_fleet);
    let prefix = &shapes[..cfg.traced_requests.min(shapes.len())];
    let pass = pass(ctx, &mut traced_fleet, prefix, 0, false, true, &des);
    let execs = full_execs(&traced_fleet) - before;
    ctx.des = des;
    check(ctx, shapes, &pass.results);

    let submit_us: Vec<f64> = ctx
        .tracer
        .durations_ms("fleet.submit")
        .iter()
        .map(|ms| ms * 1e3)
        .collect();
    let process_ms = ctx.tracer.durations_ms("fleet.process_rounds");
    if !submit_us.is_empty() && !process_ms.is_empty() {
        ctx.layers.samples("fleet.submit_us_p50", &submit_us);
        ctx.layers.samples("fleet.round_ms_p50", &process_ms);
        let total: f64 = process_ms.iter().sum();
        ctx.layers
            .exact("serve.ms_per_full_exec", total / execs.max(1) as f64);
    }
    let rounds = pass.round_ms_per_req.len().min(first_rounds.len());
    if rounds > 0 {
        let t = Stat::of(&pass.round_ms_per_req[..rounds]).value;
        let u = Stat::of(&first_rounds[..rounds]).value;
        ctx.layers
            .exact("trace.overhead_pct", 100.0 * (t / u - 1.0));
    }
    parallel_gain(ctx, dev, cfg, fleet);
}

/// Serial over parallel engine wall of the device work serve does for one
/// cache-hit request of each mix shape, from identical inputs, with the
/// plans the fleet cached.
fn parallel_gain(ctx: &mut Run, dev: &DeviceSpec, cfg: &Config, fleet: &Fleet) {
    let serve = FleetConfig::new(dev).serve;
    let (mut serial_ms, mut parallel_ms) = (0.0, 0.0);
    for &(rows, cols, elem_bytes) in &inputs::SERVE_MIX {
        let plan = (0..fleet.num_shards())
            .flat_map(|s| fleet.shard(s).cache().entries())
            .find(|(k, _)| (k.rows, k.cols, k.elem_bytes) == (rows, cols, elem_bytes))
            .map(|(_, p)| p);
        let Some(plan) = plan else {
            ctx.outcome(false, || {
                format!("no cached plan for {rows}x{cols}x{elem_bytes}")
            });
            continue;
        };
        if plan.decision.scheme == ipt_core::Scheme::Identity {
            continue;
        }
        let elem_words = elem_bytes / 4;
        let opts = crate::device::plan_opts(&plan, &serve);
        for rep in 0..cfg.gain_reps {
            let input =
                Stream::new(ctx.seed, WARMUP_ID - 1 - rep as u64).words(rows * cols * elem_words);
            let run = |mode: EngineMode, span: &'static str| {
                let mut sim =
                    crate::device::request_sim(dev, &plan, (rows, cols, elem_words), &opts, mode);
                let mut data = input.clone();
                let (res, ms) = ctx.tracer.span(span, || {
                    transpose_scheme_with_recovery(
                        &mut sim,
                        &mut data,
                        rows,
                        cols,
                        elem_words,
                        &plan.decision,
                        &opts,
                        &serve.policy,
                    )
                });
                (res.ok().map(|(s, _)| s), ms, data)
            };
            let (s_stats, s_ms, s_data) = run(EngineMode::Serial, "exec.serial.serve");
            let (p_stats, p_ms, p_data) = run(EngineMode::parallel_auto(), "exec.parallel.serve");
            let same = matches!((&s_stats, &p_stats), (Some(a), Some(b)) if crate::device::same_stats(a, b));
            ctx.guard(same && s_data == p_data, || {
                format!("serve {rows}x{cols}x{elem_bytes} differs between the serial and parallel engines")
            });
            serial_ms += s_ms;
            parallel_ms += p_ms;
        }
    }
    if parallel_ms > 0.0 {
        ctx.layers
            .exact("exec.parallel_gain_x.serve", serial_ms / parallel_ms);
    }
}
