//! **Engineering** — wall-clock of the simulation engine itself: the
//! pooled parallel engine vs the serial round-robin engine, on both
//! work-group-local kernels (BS, `010!`, the C2R passes) and the
//! cross-WG-claims `100!` family (all three variants) plus the full 3-stage
//! pipeline.
//!
//! Every workload is launched with both engines from identical initial
//! state; the experiment *asserts* the two runs are bit-identical (memory
//! image and full [`KernelStats`] report — the proptest invariant,
//! re-checked on the benchmark shapes) and reports host wall time for
//! each. The simulated `gbps` column is deterministic and gates with the
//! tight tolerance; the `wall_*` columns are host timings on the wide
//! wall-clock channel (see `ipt_obs::extract_wall_metrics`) and are only
//! compared between runs with identical engine/thread provenance.
//!
//! Wall-clock quantities deliberately avoid the `gbps`/`speedup` metric
//! naming — the `wall_` prefix routes them to the wide-tolerance channel.

use crate::workloads::Scale;
use gpu_sim::{DeviceSpec, EngineMode, KernelStats, PipelineStats, Sim};
use ipt_core::{InstancedTranspose, StagePlan, TileConfig};
use ipt_gpu::bs::BsKernel;
use ipt_gpu::opts::{FlagLayout, GpuOptions, Variant100};
use ipt_gpu::pipeline::{plan_flag_words, run_plan};
use ipt_gpu::pttwac010::Pttwac010;
use ipt_gpu::pttwac100::Pttwac100;
use ipt_gpu::{c2r_scratch_words, transpose_c2r_on_device};
use ipt_obs::NoopRecorder;
use serde::Serialize;

/// Timed launches per (workload, engine); the minimum wall time is
/// reported (robust to scheduler jitter).
pub const REPEATS: usize = 3;

/// One workload row of the report.
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// Workload label.
    pub workload: String,
    /// Work-groups in the launch (the parallelism the engine can exploit).
    pub num_wgs: usize,
    /// Deterministic simulated throughput (GB/s, paper convention) —
    /// identical for both engines by construction, checked tight.
    pub gbps: f64,
    /// Host milliseconds of the serial engine (min over repeats).
    pub wall_serial_ms: f64,
    /// Host milliseconds of the parallel engine (min over repeats).
    pub wall_parallel_ms: f64,
    /// Host wall gain: serial over parallel (>1 means parallel wins).
    pub wall_gain_x: f64,
}

/// Run-level summary.
#[derive(Debug, Clone, Serialize)]
pub struct Summary {
    /// Worker threads the parallel engine used.
    pub threads: usize,
    /// Logical cores of the host the run measured.
    pub host_cores: usize,
    /// Timed launches per (workload, engine).
    pub repeats: usize,
    /// Total serial host milliseconds across workloads.
    pub wall_serial_ms: f64,
    /// Total parallel host milliseconds across workloads.
    pub wall_parallel_ms: f64,
    /// Aggregate host wall gain: total serial over total parallel.
    pub wall_gain_x: f64,
    /// Host wall gain of the 3-stage pipeline workload alone (0.0 when
    /// the workload set carries no staged row — e.g. unit tests).
    pub wall_gain_staged_x: f64,
    /// Every workload's parallel run was bit-identical to serial
    /// (memory + stats); the run aborts otherwise, so this is always
    /// `true` in an archived report — kept explicit for honesty.
    pub bit_identical: bool,
}

/// A boxed launcher: builds its kernel against a fresh sim and launches.
type Launch = Box<dyn Fn(&mut Sim) -> KernelStats>;

/// One benchmark workload: a name, the payload initializer, and the
/// launcher (runs against a freshly initialized sim every repeat).
/// Fields stay private so every workload keeps the
/// fresh-sim-per-repeat contract.
pub struct Workload {
    name: String,
    /// Payload words — the buffer the identity assertion compares.
    words: usize,
    /// Extra capacity beyond the payload (e.g. global flag words) that
    /// the launcher allocates but the comparison ignores.
    extra_words: usize,
    launch: Launch,
}

fn bs_workload(instances: usize, rows: usize, cols: usize) -> Workload {
    let op = InstancedTranspose::new(instances, rows, cols, 1);
    let words = op.total_len();
    Workload {
        name: format!("BS {instances}x{rows}x{cols}"),
        words,
        extra_words: 0,
        launch: Box::new(move |sim| {
            let data = sim.alloc(words);
            sim.upload_u32(data, &(0..words as u32).collect::<Vec<_>>());
            let k = BsKernel { data, instances, rows, cols, super_size: 1, wg_size: 256 };
            sim.launch(&k, &NoopRecorder, 0.0).expect("bs launch")
        }),
    }
}

fn p010_workload(instances: usize, rows: usize, cols: usize) -> Workload {
    let op = InstancedTranspose::new(instances, rows, cols, 1);
    let words = op.total_len();
    Workload {
        name: format!("010! {instances}x{rows}x{cols}"),
        words,
        extra_words: 0,
        launch: Box::new(move |sim| {
            let data = sim.alloc(words);
            sim.upload_u32(data, &(0..words as u32).collect::<Vec<_>>());
            let k = Pttwac010 {
                data,
                instances,
                rows,
                cols,
                wg_size: 256,
                flags: FlagLayout::SpreadPadded { factor: 8 },
                backoff: None,
            };
            sim.launch(&k, &NoopRecorder, 0.0).expect("010 launch")
        }),
    }
}

/// The C2R device pipeline (two or three work-group-local line passes),
/// with any global scratch it needs on `dev` as extra capacity.
fn c2r_workload(dev: &DeviceSpec, rows: usize, cols: usize) -> Workload {
    let words = rows * cols;
    let name = format!("c2r {rows}x{cols}");
    Workload {
        name: name.clone(),
        words,
        extra_words: c2r_scratch_words(dev, rows, cols, 128),
        launch: Box::new(move |sim| {
            let data = sim.alloc(words);
            sim.upload_u32(data, &(0..words as u32).collect::<Vec<_>>());
            let pipe = transpose_c2r_on_device(sim, data, rows, cols, 128).expect("c2r launch");
            fold(&name, &pipe)
        }),
    }
}

/// A `100!` workload — the cross-WG-claims kernel that rides the
/// parallel engine via the record-then-replay scheme (one row per variant).
fn p100_workload(
    instances: usize,
    rows: usize,
    cols: usize,
    super_size: usize,
    variant: Variant100,
) -> Workload {
    let op = InstancedTranspose::new(instances, rows, cols, super_size);
    let words = op.total_len();
    let flag_words = Pttwac100::flag_words(instances * rows * cols);
    let label = match variant {
        Variant100::SungWorkGroup => "sung",
        Variant100::WarpLocalTile => "local",
        Variant100::WarpRegTile => "reg",
        Variant100::Auto => "auto",
    };
    Workload {
        name: format!("100! {label} {instances}x{rows}x{cols}s{super_size}"),
        words,
        extra_words: flag_words,
        launch: Box::new(move |sim| {
            let data = sim.alloc(words);
            sim.upload_u32(data, &(0..words as u32).collect::<Vec<_>>());
            let flags = sim.alloc(flag_words);
            sim.upload_u32(flags, &vec![0u32; flag_words]);
            let k = Pttwac100 {
                data,
                flags,
                instances,
                rows,
                cols,
                super_size,
                variant,
                wg_size: 256,
                fuse_tile: None,
                backoff: None,
            };
            sim.launch(&k, &NoopRecorder, 0.0).expect("100 launch")
        }),
    }
}

/// The paper's full 3-stage pipeline (`100! → 0010! → 0100!`) as one
/// workload: stages 1 and 3 are cross-WG-claims kernels, stage 2 is
/// work-group-local, so the whole plan exercises both parallel paths.
/// Per-stage stats are folded into one report for the identity check.
fn staged_workload(rows: usize, cols: usize) -> Workload {
    let tile = TileConfig::new(48, 36);
    let plan = StagePlan::three_stage(rows, cols, tile).expect("tile divides staged shape");
    let words = rows * cols;
    let flag_words = plan_flag_words(&plan);
    Workload {
        name: format!("3-stage {rows}x{cols}"),
        words,
        extra_words: flag_words,
        launch: Box::new(move |sim| {
            let data = sim.alloc(words);
            sim.upload_u32(data, &(0..words as u32).collect::<Vec<_>>());
            let flags = sim.alloc(flag_words);
            sim.upload_u32(flags, &vec![0u32; flag_words]);
            let opts = GpuOptions::tuned_for(sim.device());
            let pipe = run_plan(sim, data, flags, &plan, &opts, &NoopRecorder)
                .expect("staged plan launches");
            fold(&format!("3-stage {rows}x{cols}"), &pipe)
        }),
    }
}

/// Fold a pipeline's per-stage reports into one (sums of time and
/// counters, max of the longest chain); the memory image is what the
/// identity assertion compares.
fn fold(name: &str, pipe: &PipelineStats) -> KernelStats {
    let mut folded = pipe.stages[0].clone();
    folded.name = name.to_string();
    for s in &pipe.stages[1..] {
        // Widest stage describes the launch shape (a degenerate stage may
        // have been skipped with zero work-groups).
        folded.num_wgs = folded.num_wgs.max(s.num_wgs);
        folded.wg_size = folded.wg_size.max(s.wg_size);
        folded.time_s += s.time_s;
        folded.dram_bytes += s.dram_bytes;
        folded.useful_bytes += s.useful_bytes;
        folded.gld_transactions += s.gld_transactions;
        folded.gst_transactions += s.gst_transactions;
        folded.local_accesses += s.local_accesses;
        folded.local_atomics += s.local_atomics;
        folded.global_atomics += s.global_atomics;
        folded.position_conflicts += s.position_conflicts;
        folded.lock_conflicts += s.lock_conflicts;
        folded.bank_conflicts += s.bank_conflicts;
        folded.claim_retries += s.claim_retries;
        folded.barriers += s.barriers;
        folded.warp_steps += s.warp_steps;
        folded.total_chain_cycles += s.total_chain_cycles;
        folded.max_chain_cycles = folded.max_chain_cycles.max(s.max_chain_cycles);
    }
    folded
}

fn workloads(dev: &DeviceSpec, scale: Scale) -> Vec<Workload> {
    match scale {
        Scale::Full => vec![
            bs_workload(2048, 32, 32),
            p010_workload(1024, 32, 32),
            c2r_workload(dev, 997, 1024),
            p100_workload(1, 128, 96, 64, Variant100::SungWorkGroup),
            p100_workload(1, 128, 96, 64, Variant100::WarpLocalTile),
            p100_workload(1, 128, 96, 64, Variant100::WarpRegTile),
            staged_workload(1440, 360),
        ],
        Scale::Reduced => vec![
            bs_workload(512, 32, 32),
            p010_workload(256, 32, 32),
            c2r_workload(dev, 251, 256),
            p100_workload(1, 64, 48, 32, Variant100::SungWorkGroup),
            p100_workload(1, 64, 48, 32, Variant100::WarpLocalTile),
            p100_workload(1, 64, 48, 32, Variant100::WarpRegTile),
            staged_workload(720, 180),
        ],
    }
}

/// Launch `w` under `engine`, `repeats` times from identical initial
/// state. Returns the (deterministic) stats and memory of the last run
/// and the minimum wall seconds of the launch itself.
fn time_engine(
    dev: &DeviceSpec,
    w: &Workload,
    engine: EngineMode,
    repeats: usize,
) -> (KernelStats, Vec<u32>, f64) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..repeats.max(1) {
        let mut sim = Sim::new(dev.clone(), w.words + w.extra_words + 64);
        sim.set_engine_mode(engine);
        let t0 = std::time::Instant::now();
        let stats = (w.launch)(&mut sim);
        best = best.min(t0.elapsed().as_secs_f64());
        let buf_all = gpu_sim::Buffer { base: 0, len: w.words };
        last = Some((stats, sim.download_u32(buf_all)));
    }
    let (stats, mem) = last.expect("at least one repeat");
    (stats, mem, best)
}

/// Run the engine wall-clock experiment.
#[must_use]
pub fn run(dev: &DeviceSpec, scale: Scale) -> (Vec<Row>, Summary) {
    run_sized(dev, &workloads(dev, scale), REPEATS)
}

/// [`run`] over explicit workloads (tests use tiny ones).
///
/// # Panics
/// Panics if any workload's parallel run is not bit-identical to its
/// serial run — an engine that diverges must never produce an archive.
#[must_use]
pub fn run_sized(dev: &DeviceSpec, workloads: &[Workload], repeats: usize) -> (Vec<Row>, Summary) {
    let parallel = EngineMode::parallel_auto();
    let threads = parallel.resolved_threads();
    let mut rows = Vec::with_capacity(workloads.len());
    let (mut total_serial, mut total_parallel) = (0.0f64, 0.0f64);
    for w in workloads {
        let (s_stats, s_mem, s_wall) = time_engine(dev, w, EngineMode::Serial, repeats);
        let (p_stats, p_mem, p_wall) = time_engine(dev, w, parallel, repeats);
        assert_eq!(s_mem, p_mem, "{}: engines diverged on memory", w.name);
        assert_eq!(s_stats, p_stats, "{}: engines diverged on stats", w.name);
        total_serial += s_wall;
        total_parallel += p_wall;
        let bytes = w.words as f64 * 4.0;
        rows.push(Row {
            workload: w.name.clone(),
            num_wgs: s_stats.num_wgs,
            gbps: 2.0 * bytes / s_stats.time_s / 1e9,
            wall_serial_ms: s_wall * 1e3,
            wall_parallel_ms: p_wall * 1e3,
            wall_gain_x: if p_wall > 0.0 { s_wall / p_wall } else { 0.0 },
        });
    }
    let summary = Summary {
        threads,
        host_cores: std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
        repeats: repeats.max(1),
        wall_serial_ms: total_serial * 1e3,
        wall_parallel_ms: total_parallel * 1e3,
        wall_gain_x: if total_parallel > 0.0 { total_serial / total_parallel } else { 0.0 },
        wall_gain_staged_x: rows
            .iter()
            .find(|r| r.workload.starts_with("3-stage"))
            .map_or(0.0, |r| r.wall_gain_x),
        bit_identical: true,
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
                r.workload.clone(),
                format!("{}", r.num_wgs),
                format!("{:.2}", r.gbps),
                format!("{:.2}", r.wall_serial_ms),
                format!("{:.2}", r.wall_parallel_ms),
                format!("{:.2}x", r.wall_gain_x),
            ]
        })
        .collect();
    let mut out = super::text_table(
        "Engineering: parallel vs serial simulation engine (host wall clock)",
        &["workload", "wgs", "sim GB/s", "serial ms", "parallel ms", "gain"],
        &table,
    );
    out.push_str(&format!(
        "\n{} worker threads on {} host cores (best of {} runs): \
         {:.1} ms serial vs {:.1} ms parallel = {:.2}x wall gain \
         ({:.2}x on the 3-stage pipeline); results bit-identical: {}\n",
        summary.threads,
        summary.host_cores,
        summary.repeats,
        summary.wall_serial_ms,
        summary.wall_parallel_ms,
        summary.wall_gain_x,
        summary.wall_gain_staged_x,
        summary.bit_identical,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engines_agree_and_report_is_sane() {
        // Tiny workloads: this asserts bit-identity inside run_sized and
        // sanity of the report plumbing, not speedup (the test host may
        // have one core).
        let dev = DeviceSpec::tesla_k20();
        let tiny = vec![
            bs_workload(8, 8, 8),
            p010_workload(4, 6, 5),
            c2r_workload(&dev, 9, 8),
            p100_workload(1, 6, 4, 3, Variant100::SungWorkGroup),
            p100_workload(1, 6, 4, 3, Variant100::WarpLocalTile),
            p100_workload(1, 6, 4, 4, Variant100::WarpRegTile),
            staged_workload(96, 72),
        ];
        let (rows, summary) = run_sized(&dev, &tiny, 1);
        assert_eq!(rows.len(), 7);
        for r in &rows {
            assert!(r.gbps > 0.0, "{}: simulated throughput must be positive", r.workload);
            assert!(r.wall_serial_ms > 0.0 && r.wall_parallel_ms > 0.0);
            assert!(r.num_wgs > 0, "{}: zero work-groups", r.workload);
        }
        assert!(summary.bit_identical);
        assert!(summary.threads >= 1);
        assert!(summary.wall_gain_x > 0.0);
        assert!(
            summary.wall_gain_staged_x > 0.0,
            "the staged row must feed the staged summary gain"
        );
        let text = render(&rows, &summary);
        assert!(text.contains("bit-identical: true"), "{text}");
        assert!(text.contains("3-stage pipeline"), "{text}");
    }

    #[test]
    fn wall_metrics_live_on_the_wall_channel_only() {
        // The wall-clock columns must reach the checker through the
        // `wall_` channel and never through the tight gbps/speedup one.
        let dev = DeviceSpec::tesla_k20();
        let (rows, summary) = run_sized(&dev, &[bs_workload(4, 8, 8)], 1);
        let v = (&rows, &summary).to_value();
        let sim_paths: Vec<String> =
            ipt_obs::extract_metrics(&v).into_iter().map(|m| m.path).collect();
        assert_eq!(sim_paths, vec!["0/0/gbps"], "only the simulated column is tight-gated");
        let wall_paths: Vec<String> =
            ipt_obs::extract_wall_metrics(&v).into_iter().map(|m| m.path).collect();
        assert!(
            wall_paths.contains(&"1/wall_gain_x".to_string()),
            "summary wall gain must be wall-gated: {wall_paths:?}"
        );
        assert!(
            wall_paths.contains(&"1/wall_gain_staged_x".to_string()),
            "staged wall gain must be wall-gated too: {wall_paths:?}"
        );
    }
}
