//! Property: results do not depend on the recorder.
//!
//! Every device entry point takes its recorder as an argument. Under
//! [`NoopRecorder`], a full [`TraceRecorder`] and a counters-only one, each
//! must return bit-identical data, stats and timelines (every `f64`
//! compared through `f64::to_bits`), tuning logs and reports. Recording
//! observes a run; it never steers one.

use gpu_sim::{DeviceSpec, FaultPlan, KernelStats, PipelineStats, Sim, Timeline};
use ipt_core::stages::{StagePlan, TileConfig};
use ipt_core::{Matrix, TileHeuristic};
use ipt_gpu::autotune::{pruned_search, TilePoint, TuneLog};
use ipt_gpu::host::{run_host_async, run_host_sync, HostReport};
use ipt_gpu::opts::GpuOptions;
use ipt_gpu::pipeline::{plan_flag_words, run_plan, transpose_on_device};
use ipt_gpu::recover::{RecoveryPolicy, RecoveryReport, TransposeError};
use ipt_gpu::stream::{stream_transpose_rec, StreamChaos, StreamConfig, StreamReport};
use ipt_obs::{NoopRecorder, TraceRecorder};
use proptest::prelude::*;

/// Evaluate `$body` with `$rec` bound to each of the three recorders and
/// require one fingerprint; the full recorder must have seen the run.
macro_rules! same_under_every_recorder {
    ($rec:ident => $body:expr) => {{
        let noop = {
            let $rec = &NoopRecorder;
            $body
        };
        let full = TraceRecorder::new();
        let traced = {
            let $rec = &full;
            $body
        };
        let counted = {
            let $rec = &TraceRecorder::counters_only();
            $body
        };
        prop_assert!(!full.is_empty(), "the full recorder must see the run");
        prop_assert_eq!(&noop, &traced);
        prop_assert_eq!(&noop, &counted);
    }};
}

/// A run's fingerprint: every float as bits, plus the `Debug` rendering of
/// everything (integers, names, paths, errors).
#[derive(Debug, PartialEq)]
struct Print {
    floats: Vec<u64>,
    debug: String,
}

fn print(floats: &[f64], debug: &impl std::fmt::Debug) -> Print {
    Print { floats: floats.iter().map(|v| v.to_bits()).collect(), debug: format!("{debug:?}") }
}

fn kernel_floats(k: &KernelStats) -> [f64; 10] {
    let b = &k.bounds;
    [
        k.time_s,
        b.bandwidth_s,
        b.latency_s,
        b.serial_s,
        b.local_port_s,
        k.dram_bytes,
        k.useful_bytes,
        k.total_chain_cycles,
        k.max_chain_cycles,
        k.occupancy.occupancy,
    ]
}

fn pipeline_floats(p: &PipelineStats) -> Vec<f64> {
    let mut out = vec![p.overhead_s];
    out.extend(p.stages.iter().flat_map(kernel_floats));
    out
}

fn timeline_floats(t: &Timeline) -> Vec<f64> {
    let mut out = vec![t.total_s, t.setup_s];
    out.extend(t.spans.iter().flat_map(|s| [s.start_s, s.end_s]));
    out
}

fn host_print(res: &Result<(HostReport, RecoveryReport), TransposeError>) -> Print {
    let floats = match res {
        Ok((host, report)) => {
            let mut f = vec![host.total_s, host.effective_gbps, report.penalty_s];
            f.extend(timeline_floats(&host.timeline));
            f.extend(pipeline_floats(&host.kernels));
            f
        }
        Err(_) => Vec::new(),
    };
    print(&floats, res)
}

fn tune_print(points: &[TilePoint], log: &TuneLog) -> Print {
    let mut floats: Vec<f64> = points.iter().map(|p| p.gbps).collect();
    floats.extend(log.chosen.map(|c| c.gbps));
    print(&floats, &(points, log))
}

fn stream_print(res: &Result<(Vec<u32>, StreamReport), TransposeError>) -> Print {
    let floats = match res {
        Ok((_, r)) => vec![
            r.total_s,
            r.roofline_s,
            r.effective_gbps,
            r.roofline_gbps,
            r.overlap_efficiency,
            r.penalty_s,
        ],
        Err(_) => Vec::new(),
    };
    print(&floats, res)
}

/// A dimension in 2..=48 with a few small divisors.
fn dim() -> impl Strategy<Value = usize> {
    (1usize..=3, 0usize..=1, 1usize..=2).prop_map(|(a, b, c)| (1 << a) * 3usize.pow(b as u32) * c)
}

/// `(rows, cols, m, n)` with the tile dividing the matrix, plus a seed.
fn case() -> impl Strategy<Value = (usize, usize, usize, usize, u64)> {
    (dim(), dim(), any::<u32>()).prop_flat_map(|(r, c, seed)| {
        let rdivs: Vec<usize> = (1..=r).filter(|d| r % d == 0).collect();
        let cdivs: Vec<usize> = (1..=c).filter(|d| c % d == 0).collect();
        (
            Just(r),
            Just(c),
            proptest::sample::select(rdivs),
            proptest::sample::select(cdivs),
            Just(u64::from(seed)),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn device_entry_points_ignore_the_recorder((r, c, m, n, seed) in case()) {
        let dev = DeviceSpec::tesla_k20();
        let opts = GpuOptions::tuned_for(&dev);
        let plan = StagePlan::three_stage(r, c, TileConfig::new(m, n)).unwrap();
        let policy = RecoveryPolicy::default().with_seed(seed);

        same_under_every_recorder!(rec => {
            let mut sim = Sim::new(dev.clone(), r * c + plan_flag_words(&plan).max(1) + 64);
            let mut data = Matrix::iota(r, c).into_vec();
            let stats = transpose_on_device(&mut sim, &mut data, r, c, &plan, &opts, rec);
            let floats = stats.as_ref().map(pipeline_floats).unwrap_or_default();
            (print(&floats, &stats), data)
        });

        // The fused 4-stage plan reaches `run_stage`'s fused branch.
        let fused = StagePlan::four_stage_fused(r, c, TileConfig::new(m, n)).unwrap();
        same_under_every_recorder!(rec => {
            let mut sim = Sim::new(dev.clone(), r * c + plan_flag_words(&fused).max(1) + 64);
            let data = sim.alloc(r * c);
            let flags = sim.alloc(plan_flag_words(&fused).max(1));
            sim.upload_u32(data, Matrix::iota(r, c).as_slice());
            let stats = run_plan(&sim, data, flags, &fused, &opts, rec);
            let floats = stats.as_ref().map(pipeline_floats).unwrap_or_default();
            (print(&floats, &stats), sim.download_u32(data))
        });

        // A seeded fault exercises the recovery chain and its report.
        same_under_every_recorder!(rec => {
            let fault = Some(FaultPlan::from_seed(seed));
            host_print(&run_host_sync(&dev, r, c, &plan, &opts, &policy, fault, rec))
        });
        let q = 1 + (seed % 4) as usize;
        same_under_every_recorder!(rec => {
            let fault = Some(FaultPlan::from_seed(seed.rotate_left(17)));
            host_print(&run_host_async(&dev, r, c, &plan, &opts, q, &policy, fault, rec))
        });

        let heuristic =
            TileHeuristic { shared_capacity_words: 256, preferred_lo: 2, preferred_hi: 12 };
        same_under_every_recorder!(rec => {
            let (points, log) = pruned_search(&dev, r, c, &heuristic, &opts, rec);
            tune_print(&points, &log)
        });

        let data: Vec<u32> = (0..(r * c) as u32).map(|x| x ^ seed as u32).collect();
        let cfg = StreamConfig::new(&dev, ((r * c) as u64 / 3).max(2 * c as u64));
        same_under_every_recorder!(rec => {
            let chaos = StreamChaos::KernelAbort { chunk: 0, seed };
            stream_print(&stream_transpose_rec(&dev, &data, r, c, 1, &cfg, &chaos, rec))
        });
    }
}
