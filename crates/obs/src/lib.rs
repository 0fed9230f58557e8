//! # ipt-obs — observability for the transposition pipeline
//!
//! The paper's argument (§5–§7) rests on *measured* phenomena: lock,
//! position and bank conflicts in `010!`, super-element throughput in
//! `100!`, tile-size pruning driven by observed cost. This crate makes every
//! one of those measurements a first-class, exportable artifact:
//!
//! * [`Recorder`] — the instrumentation trait the whole stack is generic
//!   over. Hierarchical spans (algorithm → stage → kernel launch → warp
//!   step → DES queue), typed [`Counter`]s, gauges, cycle-length
//!   histograms, and instantaneous events (faults, retries, autotune
//!   decisions).
//! * [`NoopRecorder`] — the zero-cost way to record nothing. Every entry
//!   point takes its recorder as an argument; passed `NoopRecorder`, its
//!   hot loops compile to exactly the pre-observability code.
//! * [`TraceRecorder`] — the in-memory collector behind the exporters.
//! * [`chrome`] — Chrome trace-event JSON (open in `chrome://tracing` or
//!   [Perfetto](https://ui.perfetto.dev)); DES timestamps in microseconds.
//! * [`prom`] — Prometheus text exposition of counters/gauges/histograms.
//! * [`report`] — the versioned [`report::BenchReport`] schema replacing
//!   ad-hoc `bench_out/*.json`, plus the tolerance-based regression
//!   comparison behind `repro --check`.
//! * [`histo`] / [`window`] / [`alert`] / [`telemetry`] — fleet-wide
//!   request telemetry: mergeable log2 latency histograms with
//!   OpenMetrics exemplars, DES-time SLO windows, and multi-window
//!   burn-rate alerting with causal [`SpanCtx`] trace propagation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod alert;
pub mod chrome;
pub mod histo;
pub mod prom;
pub mod recorder;
pub mod report;
pub mod telemetry;
pub mod window;

pub use alert::{Alert, BurnRule, RuleState};
pub use chrome::chrome_trace_json;
pub use histo::{Exemplar, LogHisto};
pub use prom::prometheus_text;
pub use recorder::{
    Counter, EventRec, Level, NoopRecorder, Recorder, SpanCtx, SpanRec, TraceRecorder,
};
pub use telemetry::{ClassSeries, SloClass, Telemetry, TelemetryConfig};
pub use window::{Window, WindowRing};
pub use report::{
    compare_metrics, compare_slo_metrics, current_git_rev, extract_metrics,
    extract_slo_metrics, extract_wall_metrics, BenchReport, Metric, Provenance, Regression,
    SCHEMA_VERSION,
};
