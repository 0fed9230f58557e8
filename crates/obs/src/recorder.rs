//! The [`Recorder`] trait, its zero-cost [`NoopRecorder`], and the
//! collecting [`TraceRecorder`].
//!
//! ## Design
//!
//! The simulator computes durations *after* an activity completes (the
//! four-bound time model needs the whole launch), so spans are recorded as
//! **completed intervals** with explicit start/duration in simulated
//! microseconds rather than via begin/end calls. Orchestrators (the
//! pipeline, the DES queue scheduler) thread a cumulative time base through
//! the layers, which keeps every timestamp on the single DES clock.
//!
//! Hot paths are generic over `R: Recorder` and gate argument marshalling on
//! [`Recorder::enabled`]; with [`NoopRecorder`] (`enabled() == false`,
//! empty inline bodies) the instrumentation monomorphizes to nothing.

use crate::histo::LogHisto;
use serde::Serialize;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Hierarchy level of a span (also the Chrome-trace category).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub enum Level {
    /// A whole staged algorithm (e.g. one 3-stage plan execution).
    Algorithm,
    /// One stage of a plan (one elementary transposition).
    Stage,
    /// One kernel launch on the simulated device.
    Kernel,
    /// One warp scheduling slice (sampled; see `DroppedWarpSpans`).
    Warp,
    /// One DES command-queue span (transfer or kernel on an engine).
    Queue,
    /// One serving-layer request phase (admission, routing, queueing,
    /// execution) — the spine of a request trace.
    Request,
}

impl Level {
    /// Category string for exporters.
    #[must_use]
    pub fn cat(self) -> &'static str {
        match self {
            Level::Algorithm => "algorithm",
            Level::Stage => "stage",
            Level::Kernel => "kernel",
            Level::Warp => "warp",
            Level::Queue => "queue",
            Level::Request => "request",
        }
    }

    /// Default display track (Chrome `tid`) for this level; warp and queue
    /// spans add their own offsets on top.
    #[must_use]
    pub fn base_track(self) -> u32 {
        match self {
            Level::Algorithm => 0,
            Level::Stage => 1,
            Level::Kernel => 2,
            Level::Warp => 8,
            Level::Request => 40,
            Level::Queue => 100,
        }
    }
}

/// Causal trace context, Dapper-style: one request is one `trace_id`;
/// each phase of its journey (admission, route, queue, exec) is a span
/// with a `span_id` whose `parent_span_id` links back toward the root.
/// `0` means "none" — the root span has `parent_span_id == 0`, and
/// deep device-level spans that inherit a context from the recorder's
/// ambient stack carry `span_id == 0` (they are leaves: nothing links
/// below them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct SpanCtx {
    /// The request's trace id (stable across shards, failover, retries).
    pub trace_id: u64,
    /// This span's id within the trace (0 for anonymous leaf spans).
    pub span_id: u64,
    /// Parent span id (0 for the trace root).
    pub parent_span_id: u64,
}

impl SpanCtx {
    /// The root context of trace `trace_id` with span id `span_id`.
    #[must_use]
    pub fn root(trace_id: u64, span_id: u64) -> Self {
        Self { trace_id, span_id, parent_span_id: 0 }
    }

    /// A child context of `self` with span id `span_id`.
    #[must_use]
    pub fn child(&self, span_id: u64) -> Self {
        Self { trace_id: self.trace_id, span_id, parent_span_id: self.span_id }
    }
}

/// Typed counters — the closed set of quantities the paper's analysis uses.
/// A closed enum (vs. free-form strings) keeps hot-path increments
/// allocation-free and makes exporter names stable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub enum Counter {
    /// Intra-warp same-word atomic collisions (§5.1.1).
    PositionConflicts,
    /// Same-lock different-word local-atomic collisions (§5.1.2).
    LockConflicts,
    /// Same-bank different-word collisions (§5.1.2).
    BankConflicts,
    /// Failed flag claims (a lane lost a cycle to another owner and had to
    /// fetch a new start) — the PTTWAC claim-protocol retry count.
    ClaimRetries,
    /// Local atomic operations, lane granularity.
    LocalAtomics,
    /// Global atomic operations, lane granularity.
    GlobalAtomics,
    /// DRAM bytes moved by kernels (whole transactions).
    DramBytes,
    /// Bytes the kernels asked for (4 × active lanes).
    UsefulBytes,
    /// Global load transactions.
    GldTransactions,
    /// Global store transactions.
    GstTransactions,
    /// Work-group barriers executed.
    Barriers,
    /// Warp scheduling slices executed.
    WarpSteps,
    /// Host→device bytes (uploads).
    H2dBytes,
    /// Device→host bytes (downloads).
    D2hBytes,
    /// Device-side memset bytes (flag clears).
    MemsetBytes,
    /// Injected faults that fired.
    FaultsInjected,
    /// Stage-granular recovery retries.
    StageRetries,
    /// DES transfer resubmissions.
    TransferRetries,
    /// Whole-scheme recovery retries.
    SchemeRetries,
    /// Autotune candidate tiles considered (measured or pruned).
    AutotuneConsidered,
    /// Autotune candidates rejected as infeasible by measurement.
    AutotuneRejectedInfeasible,
    /// Autotune candidates pruned before measurement (§7.4 heuristic).
    AutotunePruned,
    /// Warp spans dropped by the per-launch sampling cap (no silent caps:
    /// truncation is itself counted).
    DroppedWarpSpans,
    /// Serving-layer plan-cache hits (autotune skipped).
    PlanCacheHits,
    /// Serving-layer plan-cache misses (full plan + autotune ran).
    PlanCacheMisses,
    /// Batched launches issued by the serving layer.
    BatchesLaunched,
    /// Requests coalesced into batches (Σ batch occupancy).
    BatchedRequests,
    /// Simulated queue-wait, microseconds, summed over served requests.
    QueueWaitUs,
    /// Requests refused at admission because the bounded queue was full.
    AdmissionRejections,
    /// Requests shed to the host path under overload (served correct but
    /// never launched on a device).
    RequestsShed,
    /// Requests degraded from the tuned plan to conservative options under
    /// overload (the graceful-degradation ladder's first rung).
    PlansDegraded,
    /// Plan-cache snapshots successfully restored on warm restart.
    SnapshotRestores,
    /// Requests re-routed because their affinity shard was unhealthy.
    ShardFailovers,
    /// Requests that missed their objective (shed, or served past their
    /// priority class's deadline budget) — the SLO "bad" count.
    SloViolations,
    /// Burn-rate alerts fired by the telemetry engine (rising edges only).
    AlertsRaised,
    /// Transient transfer faults injected by a fault source and observed by
    /// a retrying consumer (the DES resubmission paths).
    TransferFaultsInjected,
    /// Out-of-core streaming chunks durably committed (journal reached
    /// `Committed`).
    StreamChunksCommitted,
    /// Out-of-core chunk-granular retries (transfer or kernel redo of one
    /// chunk after a fault).
    StreamChunkRetries,
    /// Out-of-core resumes after a mid-stream engine crash (journal replay
    /// from the last committed chunk).
    StreamCrashResumes,
    /// Out-of-core degradation-ladder steps taken (overlapped → serialized
    /// → host-chunk).
    StreamDegradations,
}

impl Counter {
    /// Stable exporter name (Prometheus metric stem).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Counter::PositionConflicts => "position_conflicts",
            Counter::LockConflicts => "lock_conflicts",
            Counter::BankConflicts => "bank_conflicts",
            Counter::ClaimRetries => "claim_retries",
            Counter::LocalAtomics => "local_atomics",
            Counter::GlobalAtomics => "global_atomics",
            Counter::DramBytes => "dram_bytes",
            Counter::UsefulBytes => "useful_bytes",
            Counter::GldTransactions => "gld_transactions",
            Counter::GstTransactions => "gst_transactions",
            Counter::Barriers => "barriers",
            Counter::WarpSteps => "warp_steps",
            Counter::H2dBytes => "h2d_bytes",
            Counter::D2hBytes => "d2h_bytes",
            Counter::MemsetBytes => "memset_bytes",
            Counter::FaultsInjected => "faults_injected",
            Counter::StageRetries => "stage_retries",
            Counter::TransferRetries => "transfer_retries",
            Counter::SchemeRetries => "scheme_retries",
            Counter::AutotuneConsidered => "autotune_considered",
            Counter::AutotuneRejectedInfeasible => "autotune_rejected_infeasible",
            Counter::AutotunePruned => "autotune_pruned",
            Counter::DroppedWarpSpans => "dropped_warp_spans",
            Counter::PlanCacheHits => "plan_cache_hits",
            Counter::PlanCacheMisses => "plan_cache_misses",
            Counter::BatchesLaunched => "batches_launched",
            Counter::BatchedRequests => "batched_requests",
            Counter::QueueWaitUs => "queue_wait_us",
            Counter::AdmissionRejections => "admission_rejections",
            Counter::RequestsShed => "requests_shed",
            Counter::PlansDegraded => "plans_degraded",
            Counter::SnapshotRestores => "snapshot_restores",
            Counter::ShardFailovers => "shard_failovers",
            Counter::SloViolations => "slo_violations",
            Counter::AlertsRaised => "alerts_raised",
            Counter::TransferFaultsInjected => "transfer_faults_injected",
            Counter::StreamChunksCommitted => "stream_chunks_committed",
            Counter::StreamChunkRetries => "stream_chunk_retries",
            Counter::StreamCrashResumes => "stream_crash_resumes",
            Counter::StreamDegradations => "stream_degradations",
        }
    }

    /// One-line Prometheus `# HELP` text for this counter.
    #[must_use]
    pub fn help(self) -> &'static str {
        match self {
            Counter::PositionConflicts => "intra-warp same-word atomic collisions",
            Counter::LockConflicts => "same-lock different-word local-atomic collisions",
            Counter::BankConflicts => "same-bank different-word collisions",
            Counter::ClaimRetries => "failed PTTWAC flag claims (lost cycles refetched)",
            Counter::LocalAtomics => "local atomic operations, lane granularity",
            Counter::GlobalAtomics => "global atomic operations, lane granularity",
            Counter::DramBytes => "DRAM bytes moved by kernels (whole transactions)",
            Counter::UsefulBytes => "bytes the kernels asked for (4 x active lanes)",
            Counter::GldTransactions => "global load transactions",
            Counter::GstTransactions => "global store transactions",
            Counter::Barriers => "work-group barriers executed",
            Counter::WarpSteps => "warp scheduling slices executed",
            Counter::H2dBytes => "host-to-device bytes (uploads)",
            Counter::D2hBytes => "device-to-host bytes (downloads)",
            Counter::MemsetBytes => "device-side memset bytes (flag clears)",
            Counter::FaultsInjected => "injected faults that fired",
            Counter::StageRetries => "stage-granular recovery retries",
            Counter::TransferRetries => "DES transfer resubmissions",
            Counter::SchemeRetries => "whole-scheme recovery retries",
            Counter::AutotuneConsidered => "autotune candidate tiles considered",
            Counter::AutotuneRejectedInfeasible => {
                "autotune candidates rejected as infeasible by measurement"
            }
            Counter::AutotunePruned => "autotune candidates pruned before measurement",
            Counter::DroppedWarpSpans => "warp spans dropped by the per-launch sampling cap",
            Counter::PlanCacheHits => "serving-layer plan-cache hits (autotune skipped)",
            Counter::PlanCacheMisses => "serving-layer plan-cache misses (full autotune ran)",
            Counter::BatchesLaunched => "batched launches issued by the serving layer",
            Counter::BatchedRequests => "requests coalesced into batches (sum of occupancy)",
            Counter::QueueWaitUs => "simulated queue-wait microseconds summed over requests",
            Counter::AdmissionRejections => "requests refused at admission (bounded queue full)",
            Counter::RequestsShed => "requests shed to the host path under overload",
            Counter::PlansDegraded => "requests degraded to conservative options under overload",
            Counter::SnapshotRestores => "plan-cache snapshots restored on warm restart",
            Counter::ShardFailovers => "requests re-routed off an unhealthy affinity shard",
            Counter::SloViolations => "requests that missed their SLO (shed or over deadline)",
            Counter::AlertsRaised => "burn-rate alerts fired (rising edges only)",
            Counter::TransferFaultsInjected => {
                "transient transfer faults injected and observed by a retrying consumer"
            }
            Counter::StreamChunksCommitted => "out-of-core streaming chunks durably committed",
            Counter::StreamChunkRetries => "out-of-core chunk-granular retries after faults",
            Counter::StreamCrashResumes => "out-of-core resumes after a mid-stream engine crash",
            Counter::StreamDegradations => "out-of-core degradation-ladder steps taken",
        }
    }
}

/// One completed span.
#[derive(Debug, Clone, Serialize)]
pub struct SpanRec {
    /// Hierarchy level.
    pub level: Level,
    /// Display name. Borrowed for the static names of the request-trace
    /// hot path, owned for dynamic names (warp/kernel labels).
    pub name: std::borrow::Cow<'static, str>,
    /// Start, simulated microseconds on the DES clock.
    pub start_us: f64,
    /// Duration, microseconds.
    pub dur_us: f64,
    /// Display track (Chrome `tid`).
    pub track: u32,
    /// Numeric annotations (occupancy, GB/s, …). Keys are static: the
    /// recording hot path stores them without per-span allocation.
    pub args: Vec<(&'static str, f64)>,
    /// Causal trace context, when this span belongs to a request trace.
    pub ctx: Option<SpanCtx>,
}

/// One instantaneous event (fault fired, retry, autotune decision…).
#[derive(Debug, Clone, Serialize)]
pub struct EventRec {
    /// Timestamp, simulated microseconds (0 when the producer has no
    /// timeline, e.g. post-hoc recovery reports).
    pub ts_us: f64,
    /// Event name (static: stored without allocation).
    pub name: &'static str,
    /// Free-form detail.
    pub detail: String,
}

/// The instrumentation sink the stack is generic over.
pub trait Recorder {
    /// False for disabled recorders: hot paths may skip building arguments.
    fn enabled(&self) -> bool;

    /// Record one completed span.
    fn span(
        &self,
        level: Level,
        name: &str,
        start_us: f64,
        dur_us: f64,
        track: u32,
        args: &[(&'static str, f64)],
    );

    /// Record one completed span carrying an explicit causal trace
    /// context. The default forwards to [`Recorder::span`] (context
    /// dropped), so context-unaware recorders keep working unchanged.
    /// Names are static so the per-request hot path records without
    /// allocating.
    #[allow(clippy::too_many_arguments)]
    fn span_ctx(
        &self,
        _ctx: SpanCtx,
        level: Level,
        name: &'static str,
        start_us: f64,
        dur_us: f64,
        track: u32,
        args: &[(&'static str, f64)],
    ) {
        self.span(level, name, start_us, dur_us, track, args);
    }

    /// Push an ambient trace context: until the matching
    /// [`Recorder::pop_ctx`], plain [`Recorder::span`] emissions from
    /// deeper layers (stages, kernels, warps) are tagged as anonymous
    /// children of this context — how kernel-launch spans join a request
    /// trace without threading ids through every signature. Default: no-op.
    fn push_ctx(&self, _ctx: SpanCtx) {}

    /// Pop the ambient trace context pushed by [`Recorder::push_ctx`].
    /// Default: no-op.
    fn pop_ctx(&self) {}

    /// Record one latency observation (microseconds) into the mergeable
    /// log2 histogram keyed by `(scope, name)`, optionally tagged with the
    /// originating trace id as the bucket's exemplar. Bounded aggregate:
    /// collected even by `counters_only` recorders. Default: no-op.
    fn latency(&self, _scope: &str, _name: &'static str, _value_us: f64, _trace_id: Option<u64>) {}

    /// Add `delta` to the typed counter `counter` under `scope` (a kernel
    /// or stage name).
    fn add(&self, scope: &str, counter: Counter, delta: u64);

    /// Record a point-in-time value (occupancy, queue busy fraction, …).
    fn gauge(&self, scope: &str, name: &'static str, value: f64);

    /// Add `count` cycles of length `len` to `scope`'s permutation
    /// cycle-length histogram.
    fn cycles(&self, scope: &str, len: usize, count: u64);

    /// Record an instantaneous event.
    fn event(&self, ts_us: f64, name: &'static str, detail: &str);
}

/// The zero-cost disabled recorder: every method is an empty `#[inline]`
/// body, so instrumented hot paths monomorphize to the uninstrumented code.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }
    #[inline(always)]
    fn span(&self, _: Level, _: &str, _: f64, _: f64, _: u32, _: &[(&'static str, f64)]) {}
    #[inline(always)]
    fn add(&self, _: &str, _: Counter, _: u64) {}
    #[inline(always)]
    fn gauge(&self, _: &str, _: &'static str, _: f64) {}
    #[inline(always)]
    fn cycles(&self, _: &str, _: usize, _: u64) {}
    #[inline(always)]
    fn event(&self, _: f64, _: &'static str, _: &str) {}
}

#[derive(Default)]
struct TraceData {
    spans: Vec<SpanRec>,
    counters: BTreeMap<(String, Counter), u64>,
    gauges: BTreeMap<(String, &'static str), f64>,
    cycle_hist: BTreeMap<(String, usize), u64>,
    events: Vec<EventRec>,
    latency: BTreeMap<(String, &'static str), LogHisto>,
    ctx_stack: Vec<SpanCtx>,
}

/// The collecting recorder behind the exporters. Interior-mutable
/// (`Mutex`) so it can be shared by reference through the launch plumbing;
/// contention is irrelevant at trace volumes. Counters, gauges and
/// histograms always aggregate; [`NoopRecorder`] is the way to record
/// nothing.
pub struct TraceRecorder {
    inner: Mutex<TraceData>,
    /// Collect spans and events (the unbounded streams).
    streams_on: bool,
}

impl Default for TraceRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceRecorder {
    /// An enabled recorder.
    #[must_use]
    pub fn new() -> Self {
        Self { inner: Mutex::default(), streams_on: true }
    }

    /// A bounded recorder for long soaks: counters, gauges, and histograms
    /// aggregate normally, but the unbounded streams (spans, events) are
    /// dropped — memory stays O(distinct scopes) over millions of
    /// requests. `enabled()` is false, so hot paths also skip span
    /// argument marshalling.
    #[must_use]
    pub fn counters_only() -> Self {
        Self { inner: Mutex::default(), streams_on: false }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, TraceData> {
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Snapshot of all recorded spans.
    #[must_use]
    pub fn spans(&self) -> Vec<SpanRec> {
        self.lock().spans.clone()
    }

    /// Snapshot of all recorded events.
    #[must_use]
    pub fn events(&self) -> Vec<EventRec> {
        self.lock().events.clone()
    }

    /// Value of one counter under one scope (0 when never touched).
    #[must_use]
    pub fn counter(&self, scope: &str, counter: Counter) -> u64 {
        self.lock().counters.get(&(scope.to_string(), counter)).copied().unwrap_or(0)
    }

    /// Sum of one counter over all scopes.
    #[must_use]
    pub fn total(&self, counter: Counter) -> u64 {
        self.lock()
            .counters
            .iter()
            .filter(|((_, c), _)| *c == counter)
            .map(|(_, v)| v)
            .sum()
    }

    /// All `(scope, counter, value)` triples, sorted.
    #[must_use]
    pub fn counters(&self) -> Vec<(String, Counter, u64)> {
        self.lock()
            .counters
            .iter()
            .map(|((s, c), v)| (s.clone(), *c, *v))
            .collect()
    }

    /// All `(scope, gauge-name, value)` triples, sorted.
    #[must_use]
    pub fn gauges(&self) -> Vec<(String, &'static str, f64)> {
        self.lock()
            .gauges
            .iter()
            .map(|((s, n), v)| (s.clone(), *n, *v))
            .collect()
    }

    /// Cycle-length histogram: `(scope, length, count)` triples, sorted.
    #[must_use]
    pub fn cycle_histogram(&self) -> Vec<(String, usize, u64)> {
        self.lock()
            .cycle_hist
            .iter()
            .map(|((s, l), v)| (s.clone(), *l, *v))
            .collect()
    }

    /// Snapshot of one latency histogram (`None` when never observed).
    #[must_use]
    pub fn latency_histogram(&self, scope: &str, name: &str) -> Option<LogHisto> {
        self.lock()
            .latency
            .iter()
            .find(|((s, n), _)| s == scope && *n == name)
            .map(|(_, h)| h.clone())
    }

    /// All latency histograms as `(scope, name, histogram)` triples,
    /// sorted by key.
    #[must_use]
    pub fn latency_histograms(&self) -> Vec<(String, &'static str, LogHisto)> {
        self.lock()
            .latency
            .iter()
            .map(|((s, n), h)| (s.clone(), *n, h.clone()))
            .collect()
    }

    /// All spans belonging to trace `trace_id`, in recording order.
    #[must_use]
    pub fn trace_spans(&self, trace_id: u64) -> Vec<SpanRec> {
        self.lock()
            .spans
            .iter()
            .filter(|s| s.ctx.is_some_and(|c| c.trace_id == trace_id))
            .cloned()
            .collect()
    }

    /// Distinct trace ids present in the span stream, ascending.
    #[must_use]
    pub fn trace_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> =
            self.lock().spans.iter().filter_map(|s| s.ctx.map(|c| c.trace_id)).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// True when nothing at all was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        let d = self.lock();
        d.spans.is_empty()
            && d.counters.is_empty()
            && d.gauges.is_empty()
            && d.cycle_hist.is_empty()
            && d.events.is_empty()
            && d.latency.is_empty()
    }
}

impl Recorder for TraceRecorder {
    fn enabled(&self) -> bool {
        self.streams_on
    }

    fn span(
        &self,
        level: Level,
        name: &str,
        start_us: f64,
        dur_us: f64,
        track: u32,
        args: &[(&'static str, f64)],
    ) {
        if !self.streams_on {
            return;
        }
        let mut d = self.lock();
        // Deep spans recorded inside a push_ctx window become anonymous
        // leaf children of the ambient context.
        let ctx = d.ctx_stack.last().map(|top| top.child(0));
        d.spans.push(SpanRec {
            level,
            name: std::borrow::Cow::Owned(name.to_string()),
            start_us,
            dur_us,
            track,
            args: args.to_vec(),
            ctx,
        });
    }

    #[allow(clippy::too_many_arguments)]
    fn span_ctx(
        &self,
        ctx: SpanCtx,
        level: Level,
        name: &'static str,
        start_us: f64,
        dur_us: f64,
        track: u32,
        args: &[(&'static str, f64)],
    ) {
        if !self.streams_on {
            return;
        }
        self.lock().spans.push(SpanRec {
            level,
            name: std::borrow::Cow::Borrowed(name),
            start_us,
            dur_us,
            track,
            args: args.to_vec(),
            ctx: Some(ctx),
        });
    }

    fn push_ctx(&self, ctx: SpanCtx) {
        if !self.streams_on {
            return;
        }
        self.lock().ctx_stack.push(ctx);
    }

    fn pop_ctx(&self) {
        if !self.streams_on {
            return;
        }
        self.lock().ctx_stack.pop();
    }

    fn latency(&self, scope: &str, name: &'static str, value_us: f64, trace_id: Option<u64>) {
        self.lock()
            .latency
            .entry((scope.to_string(), name))
            .or_default()
            .observe(value_us, trace_id);
    }

    fn add(&self, scope: &str, counter: Counter, delta: u64) {
        if delta == 0 {
            return;
        }
        *self.lock().counters.entry((scope.to_string(), counter)).or_insert(0) += delta;
    }

    fn gauge(&self, scope: &str, name: &'static str, value: f64) {
        self.lock().gauges.insert((scope.to_string(), name), value);
    }

    fn cycles(&self, scope: &str, len: usize, count: u64) {
        if count == 0 {
            return;
        }
        *self.lock().cycle_hist.entry((scope.to_string(), len)).or_insert(0) += count;
    }

    fn event(&self, ts_us: f64, name: &'static str, detail: &str) {
        if !self.streams_on {
            return;
        }
        self.lock().events.push(EventRec { ts_us, name, detail: detail.to_string() });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_is_disabled() {
        let r = NoopRecorder;
        assert!(!r.enabled());
        // Calls are accepted and do nothing (compile-time no-ops).
        r.span(Level::Kernel, "k", 0.0, 1.0, 2, &[("x", 1.0)]);
        r.add("k", Counter::PositionConflicts, 3);
        r.gauge("k", "occupancy", 0.5);
        r.cycles("k", 4, 2);
        r.event(0.0, "fault", "detail");
    }

    #[test]
    fn trace_recorder_collects() {
        let r = TraceRecorder::new();
        assert!(r.enabled() && r.is_empty());
        r.span(Level::Stage, "100!", 0.0, 10.0, 1, &[("gbps", 42.0)]);
        r.add("k", Counter::LockConflicts, 5);
        r.add("k", Counter::LockConflicts, 2);
        r.gauge("k", "occupancy", 0.75);
        r.cycles("k", 3, 7);
        r.event(1.5, "fault", "drop");
        assert_eq!(r.spans().len(), 1);
        assert_eq!(r.counter("k", Counter::LockConflicts), 7);
        assert_eq!(r.total(Counter::LockConflicts), 7);
        assert_eq!(r.gauges(), vec![("k".to_string(), "occupancy", 0.75)]);
        assert_eq!(r.cycle_histogram(), vec![("k".to_string(), 3, 7)]);
        assert_eq!(r.events().len(), 1);
        assert!(!r.is_empty());
    }

    #[test]
    fn counters_only_drops_streams_keeps_aggregates() {
        let r = TraceRecorder::counters_only();
        assert!(!r.enabled(), "hot paths must skip span marshalling");
        r.span(Level::Warp, "w", 0.0, 1.0, 9, &[]);
        r.event(0.0, "e", "d");
        r.add("soak", Counter::RequestsShed, 4);
        r.gauge("soak", "occupancy", 0.5);
        r.cycles("soak", 2, 3);
        assert!(r.spans().is_empty() && r.events().is_empty(), "streams dropped");
        assert_eq!(r.counter("soak", Counter::RequestsShed), 4);
        assert_eq!(r.gauges().len(), 1);
        assert_eq!(r.cycle_histogram(), vec![("soak".to_string(), 2, 3)]);
    }

    #[test]
    fn ctx_stack_tags_plain_spans_as_leaf_children() {
        let r = TraceRecorder::new();
        let root = SpanCtx::root(0xABCD, 1);
        r.span_ctx(root, Level::Request, "request", 0.0, 10.0, 40, &[("id", 3.0)]);
        let exec = root.child(4);
        r.span_ctx(exec, Level::Kernel, "exec", 2.0, 8.0, 2, &[]);
        r.push_ctx(exec);
        // A deep layer that knows nothing about traces...
        r.span(Level::Warp, "warp 0", 3.0, 1.0, 9, &[]);
        r.pop_ctx();
        // ...and one recorded outside the window stays untagged.
        r.span(Level::Warp, "warp 1", 5.0, 1.0, 9, &[]);

        let trace = r.trace_spans(0xABCD);
        assert_eq!(trace.len(), 3);
        assert_eq!(trace[0].ctx, Some(root));
        assert_eq!(trace[1].ctx, Some(exec));
        let leaf = trace[2].ctx.expect("leaf tagged");
        assert_eq!(leaf.trace_id, 0xABCD);
        assert_eq!(leaf.span_id, 0);
        assert_eq!(leaf.parent_span_id, 4);
        assert_eq!(r.trace_ids(), vec![0xABCD]);
        assert!(r.spans().iter().any(|s| s.ctx.is_none()));
        // Every span in the trace is reachable from the root via parents.
        let ids: Vec<u64> = trace.iter().map(|s| s.ctx.unwrap().span_id).collect();
        for s in &trace {
            let p = s.ctx.unwrap().parent_span_id;
            assert!(p == 0 || ids.contains(&p), "orphan span {}", s.name);
        }
    }

    #[test]
    fn latency_histograms_aggregate_with_exemplars() {
        let r = TraceRecorder::new();
        r.latency("class:batch", "queue_wait_us", 100.0, Some(0x1));
        r.latency("class:batch", "queue_wait_us", 120.0, Some(0x2));
        r.latency("shard:0", "queue_wait_us", 7.0, None);
        let h = r.latency_histogram("class:batch", "queue_wait_us").expect("histo");
        assert_eq!(h.count(), 2);
        assert!((h.mean_us() - 110.0).abs() < 1e-12);
        assert_eq!(h.p99_us(), 128.0);
        // 100 and 120 share bucket 7 (64..128): last exemplar wins.
        assert_eq!(h.exemplar(7).expect("exemplar").trace_id, 0x2);
        assert_eq!(r.latency_histograms().len(), 2);
        assert!(r.latency_histogram("class:batch", "nope").is_none());
    }

    #[test]
    fn counters_only_stays_bounded_over_a_100k_stream() {
        // Satellite: the soak recorder's memory proxy must stay flat no
        // matter how many spans/events the serving layer would emit.
        let r = TraceRecorder::counters_only();
        for i in 0..100_000u64 {
            r.span(Level::Request, "request", i as f64, 1.0, 40, &[("id", i as f64)]);
            r.span_ctx(SpanCtx::root(i, 1), Level::Request, "request", i as f64, 1.0, 40, &[]);
            r.event(i as f64, "request_shed", "overload");
            r.push_ctx(SpanCtx::root(i, 1));
            r.pop_ctx();
            r.add("soak", Counter::BatchedRequests, 1);
            r.latency("class:batch", "e2e_us", (i % 1024) as f64, Some(i));
            if i % 25_000 == 0 {
                assert_eq!(r.spans().len(), 0, "span stream must stay empty");
                assert_eq!(r.events().len(), 0, "event stream must stay empty");
            }
        }
        assert_eq!(r.spans().len(), 0);
        assert_eq!(r.events().len(), 0);
        assert_eq!(r.counter("soak", Counter::BatchedRequests), 100_000);
        let h = r.latency_histogram("class:batch", "e2e_us").expect("histo");
        assert_eq!(h.count(), 100_000);
        assert_eq!(h.buckets().len(), crate::histo::NUM_BUCKETS);
    }
}
