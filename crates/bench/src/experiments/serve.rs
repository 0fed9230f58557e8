//! **Extension** — the batched, plan-cached serving layer end to end.
//!
//! Drives `ipt_gpu::serve` with a deterministic mixed stream of 1000
//! transpose requests spanning every planning scheme (staged, square,
//! prime-square, identity, c2r, wide-element), processed in bounded
//! admission rounds across two simulated devices. Reports per-shape-class
//! deterministic throughput (DES time — checkable by `repro --check`) plus
//! the serving economics: plan-cache hit rate, batch occupancy, queue
//! wait, and the wall-clock amortization factor against the per-request
//! autotuning baseline (`cache_plans = false`, measured on a prefix
//! subsample so one run stays tractable).
//!
//! Wall-clock quantities (`throughput_rps`, `amortization_x`) are host
//! timings and deliberately avoid the `gbps`/`speedup` metric naming, so
//! the regression checker never compares non-deterministic numbers.

use crate::workloads::{serve_mix, Scale};
use gpu_sim::DeviceSpec;
use ipt_core::check::bytes_f64;
use ipt_gpu::serve::{PriorityClass, ServeConfig, ServeRequest, Server};
use ipt_gpu::TransposeError;
use ipt_obs::TraceRecorder;
use serde::Serialize;

/// Requests in the full stream.
pub const STREAM_LEN: usize = 1000;
/// Requests admitted per round (under the admission bound).
pub const ROUND_SIZE: usize = 50;
/// Prefix of the stream replayed through the no-cache baseline server.
pub const BASELINE_SAMPLE: usize = 40;

/// One shape-class row of the report.
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// `rows x cols` of the class.
    pub shape: String,
    /// Element width in bytes.
    pub elem_bytes: usize,
    /// Scheme the planner routed the class to.
    pub scheme: &'static str,
    /// Requests of this class in the stream.
    pub requests: usize,
    /// Of those, how many were served from a cached plan.
    pub cache_hits: usize,
    /// Deterministic device-side throughput (GB/s, paper convention;
    /// 0 for the identity short-circuit which never launches).
    pub gbps: f64,
    /// Mean simulated queue wait, microseconds.
    pub mean_wait_us: f64,
}

/// Stream-level summary.
#[derive(Debug, Clone, Serialize)]
pub struct Summary {
    /// Total requests served.
    pub requests: usize,
    /// Distinct shape classes in the stream.
    pub classes: usize,
    /// Admission rounds processed.
    pub rounds: usize,
    /// Fraction of requests whose plan came from the cache.
    pub hit_rate: f64,
    /// Mean requests per launched batch.
    pub mean_occupancy: f64,
    /// Simulated end-to-end service seconds of the whole stream.
    pub sim_total_s: f64,
    /// Deterministic aggregate throughput over the simulated timeline
    /// (GB/s, paper convention, non-identity traffic).
    pub effective_gbps: f64,
    /// Requests that flowed through a non-primary recovery path.
    pub recovered: usize,
    /// Wall-clock requests/second of the cached server (host timing —
    /// not a checked metric).
    pub throughput_rps: f64,
    /// Requests replayed through the per-request-autotune baseline.
    pub baseline_requests: usize,
    /// Wall-clock seconds per request, cached vs baseline (host timing).
    pub cached_s_per_req: f64,
    /// Baseline wall-clock seconds per request (host timing).
    pub baseline_s_per_req: f64,
    /// Amortization factor: baseline wall per request over cached wall
    /// per request (host timing — not a checked metric).
    pub amortization_x: f64,
}

/// Deterministic request stream: `n` requests over the scale's shape mix,
/// class-picked by a fixed LCG, payloads derived from the request id.
#[must_use]
pub fn request_stream(scale: Scale, n: usize) -> Vec<ServeRequest> {
    let mix = serve_mix(scale);
    let mut state: u64 = 0xC0FF_EE11_D00D_F00D;
    (0..n as u64)
        .map(|id| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let (rows, cols, elem_bytes) = mix[(state >> 33) as usize % mix.len()];
            let words = rows * cols * (elem_bytes / 4);
            let data = (0..words as u32)
                .map(|x| x.wrapping_mul(2_654_435_761).wrapping_add(id as u32))
                .collect();
            ServeRequest { id, rows, cols, elem_bytes, priority: PriorityClass::Batch, data }
        })
        .collect()
}

/// Drive `stream` through one server in rounds, collecting results.
/// Backpressure is part of the protocol: a refused submit drains a round
/// and retries.
fn drive(
    srv: &mut Server,
    stream: &[ServeRequest],
    round_size: usize,
    rec: &TraceRecorder,
) -> (Vec<ipt_gpu::serve::ServedResult>, usize, f64, f64, f64) {
    let mut results = Vec::with_capacity(stream.len());
    let mut rounds = 0usize;
    let mut occupancy_sum = 0.0;
    let mut batches = 0usize;
    let mut sim_total = 0.0;
    let mut in_round = 0usize;
    for req in stream {
        loop {
            match srv.submit(req.clone(), rec) {
                Ok(()) => break,
                Err(TransposeError::Backpressure { .. }) => {
                    let r = srv.process_round(rec).expect("round");
                    rounds += 1;
                    occupancy_sum += r.mean_occupancy * r.batches as f64;
                    batches += r.batches;
                    sim_total += r.sim_total_s;
                    results.extend(r.results);
                    in_round = 0;
                }
                Err(e) => panic!("stream request refused: {e}"),
            }
        }
        in_round += 1;
        if in_round >= round_size {
            let r = srv.process_round(rec).expect("round");
            rounds += 1;
            occupancy_sum += r.mean_occupancy * r.batches as f64;
            batches += r.batches;
            sim_total += r.sim_total_s;
            results.extend(r.results);
            in_round = 0;
        }
    }
    if srv.backlog() > 0 {
        let r = srv.process_round(rec).expect("final round");
        rounds += 1;
        occupancy_sum += r.mean_occupancy * r.batches as f64;
        batches += r.batches;
        sim_total += r.sim_total_s;
        results.extend(r.results);
    }
    let mean_occ = if batches == 0 { 0.0 } else { occupancy_sum / batches as f64 };
    (results, rounds, mean_occ, sim_total, batches as f64)
}

/// Run the serving-layer experiment.
#[must_use]
pub fn run(dev: &DeviceSpec, scale: Scale) -> (Vec<Row>, Summary) {
    run_sized(dev, scale, STREAM_LEN, ROUND_SIZE, BASELINE_SAMPLE)
}

/// [`run`] with explicit stream sizing (tests use a shorter stream).
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn run_sized(
    dev: &DeviceSpec,
    scale: Scale,
    stream_len: usize,
    round_size: usize,
    baseline_sample: usize,
) -> (Vec<Row>, Summary) {
    let stream = request_stream(scale, stream_len);
    let rec = TraceRecorder::new();

    // Cached server over the full stream (wall-clocked).
    let mut srv = Server::new(dev.clone(), ServeConfig::new(dev));
    let t0 = std::time::Instant::now();
    let (results, rounds, mean_occupancy, sim_total_s, _) =
        drive(&mut srv, &stream, round_size, &rec);
    let cached_wall_s = t0.elapsed().as_secs_f64();
    assert_eq!(results.len(), stream.len(), "every admitted request must complete");

    // Per-request-autotune baseline on a deterministic prefix subsample.
    let mut base_cfg = ServeConfig::new(dev);
    base_cfg.cache_plans = false;
    let mut base_srv = Server::new(dev.clone(), base_cfg);
    let base_n = baseline_sample.min(stream.len());
    let t0 = std::time::Instant::now();
    let _ = drive(&mut base_srv, &stream[..base_n], round_size, &TraceRecorder::new());
    let baseline_wall_s = t0.elapsed().as_secs_f64();

    // Aggregate per shape class, preserving first-appearance order.
    let mut rows: Vec<Row> = Vec::new();
    let mut service_s: Vec<f64> = Vec::new();
    let mut bytes: Vec<f64> = Vec::new();
    let mut waits: Vec<f64> = Vec::new();
    let mut recovered = 0usize;
    for res in &results {
        let req = &stream[res.id as usize];
        let shape = format!("{}x{}", req.rows, req.cols);
        let idx = match rows
            .iter()
            .position(|r| r.shape == shape && r.elem_bytes == req.elem_bytes)
        {
            Some(i) => i,
            None => {
                rows.push(Row {
                    shape,
                    elem_bytes: req.elem_bytes,
                    scheme: res.scheme.name(),
                    requests: 0,
                    cache_hits: 0,
                    gbps: 0.0,
                    mean_wait_us: 0.0,
                });
                service_s.push(0.0);
                bytes.push(0.0);
                waits.push(0.0);
                rows.len() - 1
            }
        };
        rows[idx].requests += 1;
        rows[idx].cache_hits += usize::from(res.cache_hit);
        service_s[idx] += res.service_s;
        bytes[idx] += bytes_f64(req.rows, req.cols, req.elem_bytes);
        waits[idx] += res.queue_wait_s * 1e6;
        recovered += usize::from(!res.recovery.clean());
    }
    for (i, row) in rows.iter_mut().enumerate() {
        row.gbps = if service_s[i] > 0.0 { 2.0 * bytes[i] / service_s[i] / 1e9 } else { 0.0 };
        row.mean_wait_us = waits[i] / row.requests.max(1) as f64;
    }

    let hits: usize = rows.iter().map(|r| r.cache_hits).sum();
    let launched_bytes: f64 = (0..rows.len())
        .filter(|&i| service_s[i] > 0.0)
        .map(|i| bytes[i])
        .sum();
    let cached_s_per_req = cached_wall_s / results.len() as f64;
    let baseline_s_per_req = baseline_wall_s / base_n.max(1) as f64;
    let summary = Summary {
        requests: results.len(),
        classes: rows.len(),
        rounds,
        hit_rate: hits as f64 / results.len() as f64,
        mean_occupancy,
        sim_total_s,
        effective_gbps: if sim_total_s > 0.0 {
            2.0 * launched_bytes / sim_total_s / 1e9
        } else {
            0.0
        },
        recovered,
        throughput_rps: if cached_wall_s > 0.0 {
            results.len() as f64 / cached_wall_s
        } else {
            0.0
        },
        baseline_requests: base_n,
        cached_s_per_req,
        baseline_s_per_req,
        amortization_x: if cached_s_per_req > 0.0 {
            baseline_s_per_req / cached_s_per_req
        } else {
            0.0
        },
    };
    (rows, summary)
}

/// Render the text report.
#[must_use]
pub fn render(rows: &[Row], summary: &Summary) -> String {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.shape.clone(),
                format!("{}B", r.elem_bytes),
                r.scheme.to_string(),
                format!("{}", r.requests),
                format!("{}", r.cache_hits),
                format!("{:.2}", r.gbps),
                format!("{:.1}", r.mean_wait_us),
            ]
        })
        .collect();
    let mut out = super::text_table(
        "Extension: batched plan-cached serving (mixed request stream)",
        &["shape", "elem", "scheme", "reqs", "hits", "GB/s", "wait us"],
        &table,
    );
    out.push_str(&format!(
        "\n{} requests over {} shape classes in {} rounds: plan-cache hit rate {:.1}%, \
         mean batch occupancy {:.2}\n\
         simulated service {:.2} ms end-to-end ({:.2} GB/s effective), {} recovered requests\n\
         wall clock: {:.0} req/s cached; per-request autotune baseline ({} reqs) \
         is {:.1}x slower per request\n",
        summary.requests,
        summary.classes,
        summary.rounds,
        summary.hit_rate * 100.0,
        summary.mean_occupancy,
        summary.sim_total_s * 1e3,
        summary.effective_gbps,
        summary.recovered,
        summary.throughput_rps,
        summary.baseline_requests,
        summary.amortization_x,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipt_gpu::host_transpose_elems;

    #[test]
    fn stream_is_deterministic_and_mixed() {
        let a = request_stream(Scale::Reduced, 64);
        let b = request_stream(Scale::Reduced, 64);
        assert_eq!(a.len(), 64);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!((x.rows, x.cols, x.elem_bytes), (y.rows, y.cols, y.elem_bytes));
            assert_eq!(x.data, y.data);
        }
        let classes: std::collections::HashSet<(usize, usize, usize)> =
            a.iter().map(|r| (r.rows, r.cols, r.elem_bytes)).collect();
        assert!(classes.len() >= 6, "64 draws must cover most of the mix");
    }

    #[test]
    fn acceptance_amortization_and_hit_rate() {
        // The ISSUE acceptance criteria on a shortened stream: ≥5x wall
        // amortization over per-request autotuning and ≥90% plan-cache
        // hit rate. 300 requests in rounds of 25 gives 12 rounds, so only
        // the cold first appearances miss.
        let dev = DeviceSpec::tesla_k20();
        let (rows, summary) = run_sized(&dev, Scale::Reduced, 300, 25, 20);
        assert_eq!(summary.requests, 300);
        assert!(
            summary.hit_rate >= 0.90,
            "hit rate {:.3} must be >= 0.90",
            summary.hit_rate
        );
        assert!(
            summary.amortization_x >= 5.0,
            "plan caching must amortize >= 5x over per-request autotune, got {:.1}x",
            summary.amortization_x
        );
        assert!(summary.mean_occupancy > 1.0, "same-shape requests must batch");
        assert!(summary.effective_gbps > 0.0 && summary.sim_total_s > 0.0);
        // Every scheme class appears and carries sane accounting.
        let schemes: std::collections::HashSet<&str> =
            rows.iter().map(|r| r.scheme).collect();
        // Prime shapes route to the C2R decomposition now, not coprime
        // cycle-following.
        for s in ["staged", "square-tiled", "identity", "c2r"] {
            assert!(schemes.contains(s), "mix must exercise {s}: {schemes:?}");
        }
        for r in &rows {
            assert!(r.cache_hits <= r.requests);
        }
    }

    #[test]
    fn served_results_round_trip_against_host_reference() {
        let dev = DeviceSpec::tesla_k20();
        let stream = request_stream(Scale::Reduced, 40);
        let mut srv = Server::new(dev.clone(), ServeConfig::new(&dev));
        let rec = TraceRecorder::new();
        let (results, ..) = drive(&mut srv, &stream, 10, &rec);
        assert_eq!(results.len(), 40);
        for res in &results {
            let req = &stream[res.id as usize];
            if req.rows <= 1 || req.cols <= 1 {
                assert_eq!(res.data, req.data, "identity moves nothing");
            } else {
                let want =
                    host_transpose_elems(&req.data, req.rows, req.cols, req.elem_bytes / 4);
                assert_eq!(res.data, want, "request {} ({}x{})", res.id, req.rows, req.cols);
            }
        }
    }
}
