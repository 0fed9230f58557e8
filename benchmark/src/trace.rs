//! Host-wall spans recorded around the calls the benchmark makes into each
//! layer, the flat per-layer table derived from them, and the Chrome trace
//! that puts them beside the simulated-clock (DES) spans of
//! [`ipt_obs::TraceRecorder`].

use crate::stats::Stat;
use serde::Value;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One completed host span.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_us: f64,
    dur_us: f64,
    parent: Option<usize>,
    depth: usize,
}

/// Records nested host-wall spans when enabled; when disabled it only
/// times the closure, so untraced runs pay one `Instant` pair per call.
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    /// A tracer; `enabled` decides whether spans are kept.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            t0: Instant::now(),
            spans: RefCell::default(),
            open: RefCell::default(),
        }
    }

    /// Run `f` inside span `name`; returns its result and wall milliseconds.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        if !self.enabled {
            let t = Instant::now();
            let out = f();
            return (out, t.elapsed().as_secs_f64() * 1e3);
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            let open = self.open.borrow();
            spans.push(Span {
                name,
                start_us: 0.0,
                dur_us: 0.0,
                parent: open.last().copied(),
                depth: open.len(),
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let t = Instant::now();
        let out = f();
        let dur = t.elapsed();
        self.open.borrow_mut().pop();
        let mut spans = self.spans.borrow_mut();
        spans[idx].start_us = t.duration_since(self.t0).as_secs_f64() * 1e6;
        spans[idx].dur_us = dur.as_secs_f64() * 1e6;
        (out, dur.as_secs_f64() * 1e3)
    }

    /// Run `f` as one measured operation: a span like [`Tracer::span`]
    /// (which records the raw wall time), returning milliseconds with the
    /// hypervisor's steal taken out ([`crate::sys::Stopwatch`]).
    pub fn op<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let sw = crate::sys::Stopwatch::start();
        let (out, _) = self.span(name, f);
        (out, sw.ms())
    }

    /// Durations (ms) of every span named `name`, in recording order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_us / 1e3)
            .collect()
    }

    /// The flat per-layer table: one row per span name with total and self
    /// milliseconds (self = total minus the time its child spans cover),
    /// count and duration quartiles.
    pub fn layers(&self) -> Value {
        let spans = self.spans.borrow();
        let mut child_us = vec![0.0f64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_us[p] += s.dur_us;
            }
        }
        let mut by_name: BTreeMap<&str, (Vec<f64>, f64)> = BTreeMap::new();
        for (s, child) in spans.iter().zip(&child_us) {
            let e = by_name.entry(s.name).or_default();
            e.0.push(s.dur_us / 1e3);
            e.1 += (s.dur_us - child) / 1e3;
        }
        Value::Arr(
            by_name
                .into_iter()
                .map(|(name, (durs, self_ms))| {
                    let st = Stat::of(&durs);
                    Value::Obj(vec![
                        ("layer".into(), Value::Str(name.into())),
                        ("total_ms".into(), Value::Float(durs.iter().sum())),
                        ("self_ms".into(), Value::Float(self_ms)),
                        ("n".into(), Value::UInt(st.n as u64)),
                        ("median_ms".into(), Value::Float(st.value)),
                        ("p25_ms".into(), Value::Float(st.p25)),
                        ("p75_ms".into(), Value::Float(st.p75)),
                    ])
                })
                .collect(),
        )
    }

    /// Chrome trace-event JSON with two process tracks: pid 1 holds these
    /// host-wall spans (one thread row per nesting depth), pid 2 the DES
    /// spans of `des` as [`ipt_obs::chrome_trace_json`] renders them (all
    /// on its pid 0, moved to pid 2 here).
    pub fn chrome_json(&self, des: &ipt_obs::TraceRecorder) -> String {
        let meta = |pid: u64, name: &str| {
            Value::Obj(vec![
                ("name".into(), Value::Str("process_name".into())),
                ("ph".into(), Value::Str("M".into())),
                ("pid".into(), Value::UInt(pid)),
                (
                    "args".into(),
                    Value::Obj(vec![("name".into(), Value::Str(name.into()))]),
                ),
            ])
        };
        let mut host = vec![
            meta(1, "host wall clock (benchmark spans)"),
            meta(2, "simulated device clock (DES spans)"),
        ];
        for s in self.spans.borrow().iter() {
            host.push(Value::Obj(vec![
                ("name".into(), Value::Str(s.name.into())),
                ("cat".into(), Value::Str("host".into())),
                ("ph".into(), Value::Str("X".into())),
                ("ts".into(), Value::Float(s.start_us)),
                ("dur".into(), Value::Float(s.dur_us)),
                ("pid".into(), Value::UInt(1)),
                ("tid".into(), Value::UInt(s.depth as u64)),
            ]));
        }
        let host: Vec<String> = host
            .iter()
            .map(|v| serde_json::to_string(v).expect("infallible shim serializer"))
            .collect();
        // Splice the host events into the front of the exporter's
        // `traceEvents` array (a textual splice: re-parsing a large trace
        // is far slower than writing it).
        let des_json = ipt_obs::chrome_trace_json(des).replace("\"pid\": 0", "\"pid\": 2");
        let open = des_json
            .find('[')
            .expect("the DES exporter writes a traceEvents array")
            + 1;
        let des_empty = des_json[open..].trim_start().starts_with(']');
        let sep = if des_empty { "" } else { "," };
        format!(
            "{}{}{sep}{}",
            &des_json[..open],
            host.join(","),
            &des_json[open..]
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipt_obs::{Level, Recorder, TraceRecorder};

    #[test]
    fn self_time_excludes_children_and_trace_has_two_clocks() {
        let t = Tracer::new(true);
        let ((), outer) = t.span("op", || {
            t.span("child", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        assert!(outer >= 2.0);
        let layers = t.layers();
        let rows = layers.as_array().unwrap();
        let op = rows
            .iter()
            .find(|r| r.get("layer").unwrap().as_str() == Some("op"))
            .unwrap();
        let total = op.get("total_ms").unwrap().as_f64().unwrap();
        let self_ms = op.get("self_ms").unwrap().as_f64().unwrap();
        assert!(self_ms < total && self_ms >= 0.0, "{self_ms} vs {total}");

        let des = TraceRecorder::new();
        des.span(
            Level::Kernel,
            "k",
            0.0,
            5.0,
            Level::Kernel.base_track(),
            &[],
        );
        let v = serde_json::from_str(&t.chrome_json(&des)).unwrap();
        let evs = v.get("traceEvents").unwrap().as_array().unwrap();
        let pid_of = |name: &str| {
            evs.iter()
                .find(|e| e.get("name").and_then(Value::as_str) == Some(name))
                .and_then(|e| e.get("pid")?.as_u64())
        };
        assert_eq!(pid_of("child"), Some(1));
        assert_eq!(pid_of("k"), Some(2));
        assert!(serde_json::from_str(&t.chrome_json(&TraceRecorder::new())).is_ok());
    }

    #[test]
    fn disabled_tracer_keeps_nothing_but_still_times() {
        let t = Tracer::new(false);
        let (x, ms) = t.span("op", || 7);
        assert_eq!(x, 7);
        assert!(ms >= 0.0);
        assert!(t.durations_ms("op").is_empty());
    }
}
