//! Acceptance tests for the observability layer: a traced 3-stage run
//! yields a valid, hierarchical Chrome trace; the §5.1 conflict counters
//! really move the way the paper says; a disabled recorder emits nothing.

use gpu_sim::{DeviceSpec, Sim};
use ipt_core::stages::{StagePlan, TileConfig};
use ipt_core::Matrix;
use ipt_gpu::opts::{FlagLayout, GpuOptions};
use ipt_gpu::pipeline::{plan_flag_words, transpose_on_device};
use ipt_obs::{chrome_trace_json, prometheus_text, Counter, Level, TraceRecorder};

const ROWS: usize = 288;
const COLS: usize = 120;

fn three_stage() -> StagePlan {
    StagePlan::three_stage(ROWS, COLS, TileConfig::new(24, 24)).unwrap()
}

fn traced_run(rec: &TraceRecorder) {
    let dev = DeviceSpec::tesla_k20();
    let plan = three_stage();
    let opts = GpuOptions::tuned_for(&dev);
    let mut sim = Sim::new(dev, ROWS * COLS + plan_flag_words(&plan) + 64);
    let mut data = Matrix::iota(ROWS, COLS).into_vec();
    transpose_on_device(&mut sim, &mut data, ROWS, COLS, &plan, &opts, rec).unwrap();
    assert_eq!(data, Matrix::iota(ROWS, COLS).transposed().into_vec());
}

#[test]
fn traced_three_stage_run_produces_nested_chrome_trace() {
    let rec = TraceRecorder::new();
    traced_run(&rec);

    // The span hierarchy: one algorithm span covering three stage spans,
    // each stage span covering at least one kernel span, with warp spans
    // below the kernels.
    let spans = rec.spans();
    let algos: Vec<_> = spans.iter().filter(|s| s.level == Level::Algorithm).collect();
    let stages: Vec<_> = spans.iter().filter(|s| s.level == Level::Stage).collect();
    let kernels: Vec<_> = spans.iter().filter(|s| s.level == Level::Kernel).collect();
    let warps: Vec<_> = spans.iter().filter(|s| s.level == Level::Warp).collect();
    assert_eq!(algos.len(), 1, "one algorithm span");
    assert_eq!(stages.len(), 3, "3-stage plan → three stage spans");
    assert_eq!(
        stages.iter().map(|s| s.name.as_ref()).collect::<Vec<_>>(),
        vec!["100!", "0010!", "0100!"],
        "stage spans carry the factorial codes in execution order"
    );
    assert!(kernels.len() >= 3, "at least one kernel launch per stage");
    assert!(!warps.is_empty(), "sampled warp spans present");

    // DES timestamps: the algorithm span contains every stage span; stages
    // are disjoint and ordered; every kernel sits inside some stage.
    let algo = algos[0];
    assert!(algo.dur_us > 0.0);
    let eps = 1e-6;
    for (i, st) in stages.iter().enumerate() {
        assert!(st.start_us >= algo.start_us - eps, "stage {i} starts inside the algorithm");
        assert!(
            st.start_us + st.dur_us <= algo.start_us + algo.dur_us + eps,
            "stage {i} ends inside the algorithm"
        );
        if i > 0 {
            let prev = stages[i - 1];
            assert!(
                st.start_us >= prev.start_us + prev.dur_us - eps,
                "stage {i} starts after stage {} ends",
                i - 1
            );
        }
    }
    for k in &kernels {
        assert!(
            stages.iter().any(|st| k.start_us >= st.start_us - eps
                && k.start_us + k.dur_us <= st.start_us + st.dur_us + eps),
            "kernel `{}` [{}, {}] lies inside some stage",
            k.name,
            k.start_us,
            k.start_us + k.dur_us
        );
    }

    // The Chrome export is valid JSON with the right envelope.
    let json = chrome_trace_json(&rec);
    let v = serde_json::from_str(&json).expect("chrome trace must parse");
    let events = v.get("traceEvents").and_then(|e| e.as_array()).expect("traceEvents array");
    let complete = events
        .iter()
        .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
        .count();
    assert_eq!(complete, spans.len(), "one complete event per span");
    let metadata = events
        .iter()
        .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("M"))
        .count();
    assert!(metadata >= 4, "thread-name metadata for algorithm/stage/kernel/warp tracks");
    for e in events.iter().filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X")) {
        assert!(e.get("ts").and_then(serde::Value::as_f64).is_some(), "X event has ts");
        assert!(e.get("dur").and_then(serde::Value::as_f64).is_some(), "X event has dur");
    }

    // The Prometheus export mentions the core §5.1 counters.
    let prom = prometheus_text(&rec);
    assert!(prom.contains("ipt_dram_bytes_total"), "{prom}");
    assert!(prom.contains("ipt_cycle_length_bucket"), "cycle histogram exported");
}

/// Run PTTWAC-010 on 16 instances of a 16×4096 tile — 1M elements whose
/// pure power-of-two strides (m·n = 2¹⁶) are the §5.1.2 pathology: packed
/// flags hammer the same banks and alias the 1024 local-memory locks —
/// under one flag layout, counting conflicts through the recorder.
fn conflicts_with(flags: FlagLayout) -> TraceRecorder {
    let (instances, rows, cols) = (16usize, 16usize, 4096usize);
    let rec = TraceRecorder::new();
    let op = ipt_core::InstancedTranspose::new(instances, rows, cols, 1);
    let mut sim = Sim::new(DeviceSpec::tesla_k20(), op.total_len() + 8);
    let buf = sim.alloc(op.total_len());
    let data: Vec<u32> = (0..op.total_len() as u32).collect();
    sim.upload_u32(buf, &data);
    let k = ipt_gpu::Pttwac010 { data: buf, instances, rows, cols, wg_size: 256, flags, backoff: None };
    sim.launch(&k, &rec, 0.0).expect("feasible");
    let mut want = data;
    op.apply(&mut want);
    assert_eq!(sim.download_u32(buf), want, "{flags:?} must still transpose correctly");
    rec
}

#[test]
fn spreading_and_padding_strictly_reduce_conflicts_in_recorder() {
    let packed = conflicts_with(FlagLayout::Packed);
    let tuned = conflicts_with(FlagLayout::SpreadPadded { factor: 2 });

    // Spreading (Eq. 3) breaks up the same-word pile-ups (position
    // conflicts); padding (§5.1.2) rotates the surviving accesses across
    // banks and locks. On the power-of-two matrix, the combination must
    // strictly reduce every §5.1 conflict class vs unspread/unpadded.
    let pos = |r: &TraceRecorder| r.total(Counter::PositionConflicts);
    let lock = |r: &TraceRecorder| r.total(Counter::LockConflicts);
    let bank = |r: &TraceRecorder| r.total(Counter::BankConflicts);
    assert!(pos(&packed) > 0, "packed layout must suffer position conflicts");
    assert!(lock(&packed) > 0, "packed layout must suffer lock conflicts");
    assert!(bank(&packed) > 0, "packed layout must suffer bank conflicts");
    assert!(
        pos(&tuned) < pos(&packed),
        "position conflicts: tuned {} vs packed {}",
        pos(&tuned),
        pos(&packed)
    );
    assert!(
        lock(&tuned) < lock(&packed),
        "lock conflicts: tuned {} vs packed {}",
        lock(&tuned),
        lock(&packed)
    );
    assert!(
        bank(&tuned) < bank(&packed),
        "bank conflicts: tuned {} vs packed {}",
        bank(&tuned),
        bank(&packed)
    );
    // The recorder agrees with itself: per-scope counters sum to totals.
    let per_scope: u64 = packed
        .counters()
        .iter()
        .filter(|(_, c, _)| *c == Counter::PositionConflicts)
        .map(|(_, _, v)| v)
        .sum();
    assert_eq!(per_scope, pos(&packed));
}

#[test]
fn disabled_recorder_emits_nothing() {
    // A counters-only recorder reports `enabled() == false`, so every
    // device path takes its fast exit: the monomorphized-noop guarantee,
    // observable.
    let rec = TraceRecorder::counters_only();
    traced_run(&rec);
    assert!(rec.is_empty(), "a disabled recorder must collect no spans/counters/events");
}

#[test]
fn traffic_and_claim_counters_are_exercised() {
    let rec = TraceRecorder::new();
    traced_run(&rec);
    let bytes = (ROWS * COLS * 4) as u64;
    assert_eq!(rec.counter("sim", Counter::H2dBytes), bytes, "one upload of the matrix");
    assert!(rec.counter("sim", Counter::D2hBytes) >= bytes, "download counted");
    assert!(rec.counter("sim", Counter::MemsetBytes) > 0, "flag memsets counted");
    assert!(rec.total(Counter::WarpSteps) > 0);
    // The cycle-length histogram covers the instanced stages.
    assert!(!rec.cycle_histogram().is_empty());
}

