//! Command queues, copy/compute engines, and the discrete-event timeline
//! (§6 of the paper).
//!
//! OpenCL command queues (CUDA streams) are in-order sequences of commands;
//! commands from *different* queues may overlap when they use different
//! hardware engines. One greedy loop, [`simulate`], schedules every
//! timeline in the workspace over an arbitrary engine set;
//! [`simulate_device`] supplies one device's engines:
//!
//! * one **compute** engine (kernels serialise among themselves),
//! * one or two **copy** engines (`DeviceSpec::copy_engines`): with two,
//!   H2D and D2H transfers ride separate engines and can overlap each other
//!   as well as compute — the Tesla K20 configuration the paper exploits.
//!
//! Creating `Q` queues costs `Q × queue_create_overhead_s` up front, which
//! is why throughput degrades for large `Q` (§7.6).

use crate::device::DeviceSpec;
use crate::fault::FaultSource;
use serde::Serialize;
use std::sync::Arc;

/// One queued command: `duration_s` of work on `engine`, optionally waiting
/// on another queue's command (an OpenCL event) besides its own queue's
/// order.
///
/// Labels are `Arc<str>`: the DES hot loop stamps every scheduled [`Span`]
/// with its command's label, and serving streams replay thousands of cached
/// command lists — a reference-count bump per span instead of a heap copy.
#[derive(Debug, Clone)]
pub struct Cmd {
    /// Engine id; on a device 0 = H2D copy, 1 = D2H copy, 2 = compute.
    pub engine: usize,
    /// Duration, seconds.
    pub duration_s: f64,
    /// Label for the timeline (shared, cheap to clone per span).
    pub label: Arc<str>,
    /// Cross-queue event wait: `(queue, index)` of the prerequisite.
    pub wait: Option<(usize, usize)>,
    /// `Some(true)` for an H2D copy, `Some(false)` for a D2H copy: the
    /// commands a [`FaultSource`] may fail. `None` for everything else.
    pub transfer: Option<bool>,
}

impl Cmd {
    /// Host-to-device copy of `bytes` on `dev`'s H2D copy engine.
    #[must_use]
    pub fn h2d(dev: &DeviceSpec, bytes: f64) -> Self {
        Self::copy(dev, bytes, true)
    }

    /// Device-to-host copy of `bytes`: its own copy engine when `dev` has
    /// two, else the H2D engine.
    #[must_use]
    pub fn d2h(dev: &DeviceSpec, bytes: f64) -> Self {
        Self::copy(dev, bytes, false)
    }

    fn copy(dev: &DeviceSpec, bytes: f64, h2d: bool) -> Self {
        let (engine, dir) =
            if h2d { (0, "H2D") } else { (usize::from(dev.copy_engines >= 2), "D2H") };
        Self {
            engine,
            duration_s: dev.pcie.transfer_time(bytes),
            label: format!("{dir} {:.1} MB", bytes / 1e6).into(),
            wait: None,
            transfer: Some(h2d),
        }
    }

    /// Kernel execution of known simulated duration on the compute engine.
    #[must_use]
    pub fn kernel(time_s: f64, name: impl Into<Arc<str>>) -> Self {
        Self::on(2, time_s, name)
    }

    /// `duration_s` of work on an explicit engine — for multi-device
    /// layouts (per-device compute plus shared or private PCIe links).
    #[must_use]
    pub fn on(engine: usize, duration_s: f64, label: impl Into<Arc<str>>) -> Self {
        Self { engine, duration_s, label: label.into(), wait: None, transfer: None }
    }

    /// This command, waiting on event `(queue, index)`.
    #[must_use]
    pub fn after(mut self, queue: usize, index: usize) -> Self {
        self.wait = Some((queue, index));
        self
    }
}

/// One scheduled span on the timeline.
#[derive(Debug, Clone, Serialize)]
pub struct Span {
    /// Queue the command came from.
    pub queue: usize,
    /// Index within that queue.
    pub index: usize,
    /// Engine it ran on (0 = H2D copy, 1 = D2H copy, 2 = compute).
    pub engine: usize,
    /// Start time, seconds.
    pub start_s: f64,
    /// End time, seconds.
    pub end_s: f64,
    /// Human-readable label (shared with the originating command).
    pub label: Arc<str>,
}

/// The simulated execution timeline.
#[derive(Debug, Clone, Serialize)]
pub struct Timeline {
    /// All spans in schedule order.
    pub spans: Vec<Span>,
    /// Makespan including queue-creation overhead.
    pub total_s: f64,
    /// The up-front queue-creation overhead included in `total_s`.
    pub setup_s: f64,
}

impl Timeline {
    /// Busy time of one engine (for overlap diagnostics).
    #[must_use]
    pub fn engine_busy(&self, engine: usize) -> f64 {
        self.spans.iter().filter(|s| s.engine == engine).map(|s| s.end_s - s.start_s).sum()
    }

    /// Start time of queue `q`'s first span, or `None` when the queue issued
    /// no commands. `start − arrival` is a request's queue wait under
    /// [`simulate`] with arrivals.
    #[must_use]
    pub fn queue_start_s(&self, q: usize) -> Option<f64> {
        self.spans
            .iter()
            .filter(|s| s.queue == q)
            .map(|s| s.start_s)
            .min_by(|a, b| a.partial_cmp(b).expect("span times are finite"))
    }

    /// Replay the timeline onto a recorder: one queue-level span per
    /// scheduled command (shifted by `t0_s` onto the cumulative DES clock,
    /// one display track per engine) plus a per-engine busy-fraction gauge.
    /// `engine_names` label the gauges (missing names fall back to `e<N>`).
    pub fn record<R: ipt_obs::Recorder>(&self, rec: &R, t0_s: f64, engine_names: &[&str]) {
        if !rec.enabled() || self.spans.is_empty() {
            return;
        }
        use ipt_obs::Level;
        for s in &self.spans {
            rec.span(
                Level::Queue,
                &s.label,
                (t0_s + s.start_s) * 1e6,
                (s.end_s - s.start_s) * 1e6,
                Level::Queue.base_track() + s.engine as u32,
                &[("queue", s.queue as f64), ("index", s.index as f64)],
            );
        }
        let engines = self.spans.iter().map(|s| s.engine).max().unwrap_or(0) + 1;
        let active_s = (self.total_s - self.setup_s).max(f64::MIN_POSITIVE);
        for e in 0..engines {
            let fallback = format!("e{e}");
            let name = engine_names.get(e).copied().unwrap_or(&fallback);
            rec.gauge(
                &format!("queue:{name}"),
                "engine_busy_fraction",
                self.engine_busy(e) / active_s,
            );
        }
    }

    /// Render the timeline as an ASCII Gantt chart, one lane per engine,
    /// `width` character columns covering `[0, total_s]`. `engine_names`
    /// label the lanes (missing names fall back to `e<N>`).
    #[must_use]
    pub fn gantt(&self, width: usize, engine_names: &[&str]) -> String {
        let width = width.max(10);
        if self.total_s <= 0.0 || self.spans.is_empty() {
            return String::from("(empty timeline)\n");
        }
        let engines = self.spans.iter().map(|s| s.engine).max().unwrap_or(0) + 1;
        let name_w = engine_names
            .iter()
            .map(|n| n.len())
            .chain(std::iter::once(4))
            .max()
            .unwrap_or(4);
        let scale = width as f64 / self.total_s;
        let mut out = String::new();
        for e in 0..engines {
            let name = engine_names.get(e).copied().unwrap_or("");
            let label = if name.is_empty() { format!("e{e}") } else { name.to_string() };
            let mut lane = vec![b'.'; width];
            for (si, s) in self.spans.iter().enumerate().filter(|(_, s)| s.engine == e) {
                let a = ((s.start_s * scale) as usize).min(width - 1);
                let b = (((s.end_s * scale).ceil()) as usize).clamp(a + 1, width);
                let ch = b"0123456789abcdefghijklmnopqrstuvwxyz"
                    [self.spans[si].queue % 36];
                lane[a..b].fill(ch);
            }
            out.push_str(&format!(
                "{label:>name_w$} |{}|\n",
                String::from_utf8_lossy(&lane)
            ));
        }
        out.push_str(&format!(
            "{:>name_w$}  0{:>w$.2} ms (digits = queue ids)\n",
            "",
            self.total_s * 1e3,
            w = width - 1
        ));
        out
    }
}

/// Why the DES could not complete a schedule.
#[derive(Debug, Clone, PartialEq)]
pub enum QueueError {
    /// A command's event dependency points at a nonexistent command.
    BadDependency {
        /// Queue of the malformed command.
        queue: usize,
        /// Index of the malformed command within its queue.
        index: usize,
    },
    /// The dependency graph has a cycle: no head command is schedulable.
    Deadlock,
    /// An injected transient transfer fault killed a copy command. The
    /// schedule up to the failure is discarded; retrying the whole schedule
    /// succeeds for a single-shot plan (a sustained chaos campaign may fire
    /// again, so callers bound their retries).
    TransferFault {
        /// Queue of the failed transfer.
        queue: usize,
        /// Index of the failed transfer within its queue.
        index: usize,
        /// True for host-to-device, false for device-to-host.
        h2d: bool,
        /// Timeline label of the failed command.
        label: Arc<str>,
    },
    /// An engine died mid-schedule: the first command that would still be
    /// running on (or start after) the crash instant cannot complete, and
    /// neither can anything behind it. Spans that finished strictly before
    /// the crash are trustworthy — out-of-core streaming uses that boundary
    /// to decide which chunks were durably committed before the crash.
    EngineCrash {
        /// The engine that died (0 = H2D copy, 1 = D2H copy, 2 = compute).
        engine: usize,
        /// Simulated crash instant, seconds.
        at_s: f64,
    },
}

impl std::fmt::Display for QueueError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueueError::BadDependency { queue, index } => {
                write!(f, "command ({queue}, {index}) waits on a nonexistent command")
            }
            QueueError::Deadlock => write!(f, "dependency deadlock in queue schedule"),
            QueueError::TransferFault { queue, index, h2d, label } => write!(
                f,
                "transient {} failure at command ({queue}, {index}): {label}",
                if *h2d { "H2D" } else { "D2H" }
            ),
            QueueError::EngineCrash { engine, at_s } => {
                write!(f, "engine {engine} crashed at t={:.6}s", at_s)
            }
        }
    }
}

impl std::error::Error for QueueError {}

/// A scheduled mid-stream engine death for [`simulate`]: `engine` stops
/// executing at `at_s` (seconds on the DES clock, including setup). Any
/// command on that engine whose completion would land after `at_s` fails
/// the schedule with [`QueueError::EngineCrash`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineCrash {
    /// The engine that dies (0 = H2D copy, 1 = D2H copy, 2 = compute).
    pub engine: usize,
    /// Crash instant on the DES clock, seconds.
    pub at_s: f64,
}

/// Greedy in-order list scheduling of `queues` over `engines` engines.
///
/// Semantics: command `i` of queue `q` becomes *ready* when command `i−1`
/// of the same queue finished and its event wait (if any) completed; each
/// engine runs one command at a time; among ready head commands the
/// earliest start wins, ties going to the lowest queue id (submission
/// order, as a GPU runtime dispatches its queues FIFO). Queue `q` may not
/// start before `arrivals[q]` (missing entries mean "available at
/// `setup_s`"): this is how serving models admission — the gap between a
/// request's arrival and its first span is its queue wait.
///
/// Two optional hooks:
/// * `fault` is consulted for each picked H2D/D2H transfer; when it fires,
///   the transfer errors out instead of completing and the caller decides
///   how to retry (re-simulating a single-shot plan succeeds; a chaos
///   campaign keeps drawing, so callers bound their retries).
/// * `crash` kills an engine: the moment the DES would complete a command
///   on it past the crash instant, the schedule errors out. Everything
///   scheduled up to that point finished strictly before the crash and may
///   be treated as durable by a journaling caller (out-of-core streaming
///   resumes from its last committed chunk).
///
/// # Errors
/// [`QueueError::BadDependency`] for an out-of-range wait target or engine
/// id; [`QueueError::Deadlock`] when no queue can make progress;
/// [`QueueError::TransferFault`] when the fault source fires;
/// [`QueueError::EngineCrash`] when the crash preempts a command.
pub fn simulate(
    engines: usize,
    setup_s: f64,
    queues: &[Vec<Cmd>],
    arrivals: &[f64],
    fault: Option<&dyn FaultSource>,
    crash: Option<EngineCrash>,
) -> Result<Timeline, QueueError> {
    let mut engine_free = vec![setup_s; engines];
    let mut queue_ready: Vec<f64> = (0..queues.len())
        .map(|q| setup_s.max(arrivals.get(q).copied().unwrap_or(setup_s)))
        .collect();
    let mut next_idx: Vec<usize> = vec![0; queues.len()];
    let mut end_time: Vec<Vec<Option<f64>>> =
        queues.iter().map(|q| vec![None; q.len()]).collect();
    let mut spans = Vec::new();
    let total_cmds: usize = queues.iter().map(Vec::len).sum();

    for _ in 0..total_cmds {
        let mut best: Option<(f64, usize)> = None; // (start_time, queue)
        for (q, cmds) in queues.iter().enumerate() {
            let i = next_idx[q];
            if i >= cmds.len() {
                continue;
            }
            if cmds[i].engine >= engines {
                return Err(QueueError::BadDependency { queue: q, index: i });
            }
            let dep_end = match cmds[i].wait {
                None => setup_s,
                Some((dq, di)) => {
                    if dq >= queues.len() || di >= queues[dq].len() {
                        return Err(QueueError::BadDependency { queue: q, index: i });
                    }
                    match end_time[dq][di] {
                        Some(t) => t,
                        None => continue, // prerequisite not yet scheduled
                    }
                }
            };
            let start = queue_ready[q].max(engine_free[cmds[i].engine]).max(dep_end);
            // Earliest start wins; tie → lowest queue id (submission order).
            if best.is_none_or(|(bs, bq)| start < bs || (start == bs && q < bq)) {
                best = Some((start, q));
            }
        }
        let (start, q) = best.ok_or(QueueError::Deadlock)?;
        let i = next_idx[q];
        let cmd = &queues[q][i];
        if let (Some(f), Some(h2d)) = (fault, cmd.transfer) {
            if f.on_transfer(h2d, q, i) {
                return Err(QueueError::TransferFault {
                    queue: q,
                    index: i,
                    h2d,
                    label: cmd.label.clone(),
                });
            }
        }
        let end = start + cmd.duration_s;
        if let Some(c) = crash {
            if cmd.engine == c.engine && end > c.at_s {
                return Err(QueueError::EngineCrash { engine: c.engine, at_s: c.at_s });
            }
        }
        spans.push(Span {
            queue: q,
            index: i,
            engine: cmd.engine,
            start_s: start,
            end_s: end,
            label: cmd.label.clone(),
        });
        engine_free[cmd.engine] = end;
        queue_ready[q] = end;
        end_time[q][i] = Some(end);
        next_idx[q] += 1;
    }

    let total_s = spans.iter().map(|s| s.end_s).fold(setup_s, f64::max);
    Ok(Timeline { spans, total_s, setup_s })
}

/// [`simulate`] on one device: its three engines (0 = H2D copy, 1 = D2H
/// copy, 2 = compute, as [`Cmd::h2d`], [`Cmd::d2h`] and [`Cmd::kernel`]
/// target them) after `queues.len() × queue_create_overhead_s` of up-front
/// queue creation.
///
/// # Errors
/// As [`simulate`].
pub fn simulate_device(
    dev: &DeviceSpec,
    queues: &[Vec<Cmd>],
    fault: Option<&dyn FaultSource>,
    crash: Option<EngineCrash>,
) -> Result<Timeline, QueueError> {
    let setup_s = dev.queue_create_overhead_s * queues.len() as f64;
    simulate(3, setup_s, queues, &[], fault, crash)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceSpec;

    fn run(dev: &DeviceSpec, queues: &[Vec<Cmd>]) -> Timeline {
        simulate_device(dev, queues, None, None).unwrap()
    }

    fn kernel(t: f64) -> Cmd {
        Cmd::kernel(t, "k")
    }

    #[test]
    fn single_queue_serialises() {
        let dev = DeviceSpec::tesla_k20();
        let mb = 10.0 * 1e6;
        let tl = run(&dev, &[vec![Cmd::h2d(&dev, mb), kernel(0.004), Cmd::d2h(&dev, mb)]]);
        let t_copy = dev.pcie.transfer_time(mb);
        let expect = dev.queue_create_overhead_s + t_copy + 0.004 + t_copy;
        assert!((tl.total_s - expect).abs() < 1e-9, "{} vs {expect}", tl.total_s);
        assert_eq!(&*tl.spans[0].label, "H2D 10.0 MB");
    }

    #[test]
    fn two_queues_overlap_compute_and_copy() {
        let dev = DeviceSpec::tesla_k20();
        // Queue 0: long kernel; queue 1: D2H copy — different engines, so
        // they overlap and the makespan is max, not sum.
        let t_copy = dev.pcie.transfer_time(50e6);
        let tl = run(&dev, &[vec![kernel(0.02)], vec![Cmd::d2h(&dev, 50e6)]]);
        let expect = tl.setup_s + 0.02f64.max(t_copy);
        assert!((tl.total_s - expect).abs() < 1e-9);
    }

    #[test]
    fn same_engine_commands_serialise_across_queues() {
        let dev = DeviceSpec::tesla_k20();
        let tl = run(&dev, &[vec![kernel(0.01)], vec![kernel(0.01)]]);
        assert!((tl.total_s - (tl.setup_s + 0.02)).abs() < 1e-9);
    }

    #[test]
    fn h2d_d2h_overlap_only_with_two_copy_engines() {
        for (dev, copies) in [(DeviceSpec::tesla_k20(), 1.0), (DeviceSpec::gtx580(), 2.0)] {
            let tl = run(&dev, &[vec![Cmd::h2d(&dev, 50e6)], vec![Cmd::d2h(&dev, 50e6)]]);
            let t = dev.pcie.transfer_time(50e6);
            assert!((tl.total_s - (tl.setup_s + copies * t)).abs() < 1e-9, "{}", dev.name);
        }
    }

    #[test]
    fn queue_creation_overhead_scales() {
        let dev = DeviceSpec::tesla_k20();
        let one = run(&dev, &[vec![kernel(0.001)]]);
        let many = run(&dev, &(0..16).map(|_| vec![kernel(0.001)]).collect::<Vec<_>>());
        assert!(many.setup_s > one.setup_s * 10.0);
    }

    #[test]
    fn in_order_within_queue() {
        let dev = DeviceSpec::tesla_k20();
        let tl = run(&dev, &[vec![kernel(0.01), Cmd::d2h(&dev, 1e6)]]);
        // D2H must start after the kernel even though engines differ.
        assert!(tl.spans[1].start_s >= tl.spans[0].end_s - 1e-12);
    }

    #[test]
    fn gantt_renders_lanes() {
        let dev = DeviceSpec::tesla_k20();
        let tl = run(&dev, &[vec![Cmd::h2d(&dev, 10e6), kernel(0.004), Cmd::d2h(&dev, 10e6)]]);
        let g = tl.gantt(40, &["H2D", "D2H", "GPU"]);
        assert_eq!(g.lines().count(), 4, "3 engine lanes + axis");
        assert!(g.contains("H2D |"));
        assert!(g.contains('0'), "queue id marks spans");
    }

    #[test]
    fn generic_engines_overlap_serialise_and_honour_dependencies() {
        let q = |e: usize| vec![Cmd::on(e, 1.0, "x")];
        let total =
            |queues: &[Vec<Cmd>]| simulate(2, 0.0, queues, &[], None, None).unwrap().total_s;
        assert_eq!(total(&[q(0), q(1)]), 1.0, "distinct engines overlap");
        assert_eq!(total(&[q(0), q(0)]), 2.0, "same engine serialises");
        let dep = [q(0), vec![Cmd::on(1, 1.0, "b").after(0, 0)]];
        assert_eq!(total(&dep), 2.0, "b waits for a despite a free engine");
        // A bad engine id is a typed error, not a panic.
        let err = simulate(1, 0.0, &[q(9)], &[], None, None).unwrap_err();
        assert_eq!(err, QueueError::BadDependency { queue: 0, index: 0 });
    }

    #[test]
    fn arrivals_delay_queues_and_expose_waits() {
        let q = |e: usize| vec![Cmd::on(e, 1.0, "x")];
        let at = |n, queues: &[Vec<Cmd>], arrivals: &[f64]| {
            simulate(n, 0.0, queues, arrivals, None, None).unwrap()
        };
        // Same engine, second queue arrives at t=0.25: it still waits for
        // the engine (start 1.0), so its queue wait is 0.75.
        let tl = at(1, &[q(0), q(0)], &[0.0, 0.25]);
        assert_eq!(tl.total_s, 2.0);
        assert_eq!(tl.queue_start_s(1), Some(1.0));
        // Distinct engines, late arrival dominates: starts exactly on arrival.
        let tl = at(2, &[q(0), q(1)], &[0.0, 0.5]);
        assert_eq!(tl.queue_start_s(1), Some(0.5));
        assert_eq!(tl.total_s, 1.5);
        // An empty queue has no first span.
        assert_eq!(tl.queue_start_s(7), None);
    }

    #[test]
    fn pipelined_chunks_beat_sync() {
        // The §7.6 shape: splitting kernel+D2H into Q chunks over Q queues
        // shortens the makespan vs one queue, until overhead wins.
        let dev = DeviceSpec::tesla_k20();
        let (total_kernel, total_bytes, q) = (0.004, 51.8e6, 4);
        let sync = run(&dev, &[vec![kernel(total_kernel), Cmd::d2h(&dev, total_bytes)]]);
        let chunks: Vec<Vec<Cmd>> = (0..q)
            .map(|_| vec![kernel(total_kernel / q as f64), Cmd::d2h(&dev, total_bytes / q as f64)])
            .collect();
        let asy = run(&dev, &chunks);
        assert!(asy.total_s < sync.total_s, "async {} < sync {}", asy.total_s, sync.total_s);
    }

    #[test]
    fn engine_crash_preempts_inflight_command() {
        let dev = DeviceSpec::tesla_k20();
        let queues = [vec![Cmd::h2d(&dev, 10e6), kernel(0.004), Cmd::d2h(&dev, 10e6)]];
        let crashed =
            |engine, at_s| simulate_device(&dev, &queues, None, Some(EngineCrash { engine, at_s }));
        let healthy = run(&dev, &queues);
        // Crash the D2H engine just before the final copy completes.
        let at_s = healthy.total_s - 1e-6;
        assert_eq!(crashed(1, at_s).unwrap_err(), QueueError::EngineCrash { engine: 1, at_s });
        // A crash after the makespan never fires.
        assert_eq!(crashed(1, healthy.total_s + 1.0).unwrap().spans.len(), 3);
        // A crash on an unused engine never fires either.
        let crash = Some(EngineCrash { engine: 1, at_s: 0.0 });
        assert!(simulate_device(&dev, &[vec![kernel(0.01)]], None, crash).is_ok());
    }
}
