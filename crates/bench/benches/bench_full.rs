//! Criterion benchmarks of the full staged pipelines on the simulator
//! (Table-2 regeneration lives in `repro table2`; this tracks simulator
//! cost and prints the simulated GB/s per algorithm).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gpu_sim::{DeviceSpec, Sim};
use ipt_bench::experiments::table2::{tile3_for, tile4_for};
use ipt_bench::workloads::Scale;
use ipt_core::stages::StagePlan;
use ipt_core::Matrix;
use ipt_gpu::opts::GpuOptions;
use ipt_gpu::pipeline::{plan_flag_words, transpose_on_device};
use ipt_obs::NoopRecorder;
use std::hint::black_box;

fn run_once(dev: &DeviceSpec, r: usize, c: usize, plan: &StagePlan) -> f64 {
    let opts = GpuOptions::tuned_for(dev);
    let mut sim = Sim::new(dev.clone(), r * c + plan_flag_words(plan) + 64);
    let mut data = Matrix::iota(r, c).into_vec();
    let stats = transpose_on_device(&mut sim, &mut data, r, c, plan, &opts, &NoopRecorder)
        .expect("plan runs");
    stats.throughput_gbps((r * c * 4) as f64)
}

fn bench_pipelines(c: &mut Criterion) {
    let dev = DeviceSpec::tesla_k20();
    let (r, cl) = (1440usize, 360usize);
    let mut g = c.benchmark_group("sim-full-transpose");
    g.sample_size(10);
    let t3 = tile3_for(r, cl, Scale::Reduced);
    let t4 = tile4_for(r, cl);
    for (name, plan) in [
        ("3-stage", StagePlan::three_stage(r, cl, t3).unwrap()),
        ("4-stage", StagePlan::four_stage(r, cl, t4).unwrap()),
        ("4-stage-fused", StagePlan::four_stage_fused(r, cl, t4).unwrap()),
    ] {
        println!("sim: {name}: {:.2} GB/s on {}", run_once(&dev, r, cl, &plan), dev.name);
        g.bench_function(BenchmarkId::new("k20-1440x360", name), |b| {
            b.iter(|| black_box(run_once(&dev, r, cl, &plan)));
        });
    }
    g.finish();
}

criterion_group!(benches, bench_pipelines);
criterion_main!(benches);
