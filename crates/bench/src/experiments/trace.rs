//! `trace` — one fully traced 3-stage transposition (`100! → 0010! →
//! 0100!`), exported as a Chrome trace (open in `chrome://tracing` or
//! Perfetto) and Prometheus text exposition.
//!
//! This is the observability showcase rather than a measurement: it runs
//! the same pipeline the other experiments time, but with the
//! [`TraceRecorder`] attached, and hands back the raw exports plus a small
//! text digest of what was captured.

use gpu_sim::{DeviceSpec, Sim};
use ipt_core::stages::{StagePlan, TileConfig};
use ipt_core::Matrix;
use ipt_gpu::opts::GpuOptions;
use ipt_gpu::pipeline::{plan_flag_words, transpose_on_device};
use ipt_obs::{chrome_trace_json, prometheus_text, Counter, Level, TraceRecorder};

use crate::workloads::Scale;

/// Everything a traced run produces.
#[derive(Debug, Clone)]
pub struct Report {
    /// Matrix shape traced.
    pub rows: usize,
    /// Matrix shape traced.
    pub cols: usize,
    /// Chrome trace-event JSON.
    pub chrome_json: String,
    /// Prometheus text exposition.
    pub prometheus: String,
    /// Stage span names in execution order (the factorial codes).
    pub stages: Vec<String>,
    /// Span counts per level: (algorithm, stage, kernel, warp).
    pub span_counts: (usize, usize, usize, usize),
    /// Headline counters: (dram bytes, position, lock, bank conflicts).
    pub headline: (u64, u64, u64, u64),
}

/// Run the traced 3-stage pipeline on `dev` at the given scale.
///
/// # Panics
///
/// Panics if the pipeline rejects the (known-good) plan or produces a wrong
/// transposition — a trace of a broken run would be worse than no trace.
#[must_use]
pub fn run(dev: &DeviceSpec, scale: Scale) -> Report {
    let (rows, cols) = match scale {
        Scale::Full => (1440, 600),
        Scale::Reduced => (288, 120),
    };
    let plan = StagePlan::three_stage(rows, cols, TileConfig::new(24, 24))
        .expect("24x24 tiles divide both trace shapes");
    let opts = GpuOptions::tuned_for(dev);
    let rec = TraceRecorder::new();
    let mut sim = Sim::new(dev.clone(), rows * cols + plan_flag_words(&plan) + 64);
    let mut data = Matrix::iota(rows, cols).into_vec();
    transpose_on_device(&mut sim, &mut data, rows, cols, &plan, &opts, &rec)
        .expect("trace plan launches");
    assert_eq!(
        data,
        Matrix::iota(rows, cols).transposed().into_vec(),
        "traced run must still transpose correctly"
    );

    let spans = rec.spans();
    let count = |l: Level| spans.iter().filter(|s| s.level == l).count();
    let stages = spans
        .iter()
        .filter(|s| s.level == Level::Stage)
        .map(|s| s.name.to_string())
        .collect();
    Report {
        rows,
        cols,
        chrome_json: chrome_trace_json(&rec),
        prometheus: prometheus_text(&rec),
        stages,
        span_counts: (
            count(Level::Algorithm),
            count(Level::Stage),
            count(Level::Kernel),
            count(Level::Warp),
        ),
        headline: (
            rec.total(Counter::DramBytes),
            rec.total(Counter::PositionConflicts),
            rec.total(Counter::LockConflicts),
            rec.total(Counter::BankConflicts),
        ),
    }
}

/// Render the text digest.
#[must_use]
pub fn render(r: &Report) -> String {
    let (a, s, k, w) = r.span_counts;
    let (dram, pos, lock, bank) = r.headline;
    format!(
        "== trace: {}x{} three-stage run ==\n\
         stages: {}\n\
         spans: {a} algorithm, {s} stage, {k} kernel, {w} warp (sampled)\n\
         dram bytes {dram}, conflicts: position {pos}, lock {lock}, bank {bank}\n\
         chrome trace {} bytes, prometheus exposition {} bytes\n",
        r.rows,
        r.cols,
        r.stages.join(" -> "),
        r.chrome_json.len(),
        r.prometheus.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_run_digest_names_all_three_stages() {
        let r = run(&DeviceSpec::tesla_k20(), Scale::Reduced);
        assert_eq!(r.stages, vec!["100!", "0010!", "0100!"]);
        assert_eq!(r.span_counts.0, 1);
        assert_eq!(r.span_counts.1, 3);
        assert!(r.span_counts.2 >= 3);
        assert!(serde_json::from_str(&r.chrome_json).is_ok(), "export parses");
        let text = render(&r);
        assert!(text.contains("100! -> 0010! -> 0100!"), "{text}");
    }
}
