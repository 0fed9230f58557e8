//! `benchmark` — the repository benchmark: four workloads measured on both
//! clocks (simulated device time and host wall time), with a traced mode
//! that breaks each workload down layer by layer.
//!
//! ```text
//! benchmark run --workload staged|prime|serve|outofcore --seed N
//!               [--seconds S] [--trace 0|1] [--out DIR]
//! benchmark compare DIR_A DIR_B
//! ```
//!
//! `run` prints every end-to-end metric by name and unit and, as its last
//! line, one JSON object `{"correct", "attempted", "failed", "metrics"}`
//! (end-to-end metrics with `--trace 0`, per-layer metrics with
//! `--trace 1`). It writes `DIR/W.sN.json` (untraced) or `DIR/W.layers.json`
//! plus `DIR/W.trace.json` (traced), and exits 1 on any wrong output. `DIR`
//! defaults to `results/` beside the executable, inside Cargo's target
//! directory. See README.md in the package for the workloads and metrics.

mod compare;
mod device;
mod inputs;
mod metrics;
mod outofcore;
mod prime;
mod serve;
mod staged;
mod stats;
mod sys;
mod trace;

use metrics::{Metrics, END_TO_END};
use serde::Value;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["staged", "prime", "serve", "outofcore"];

/// Default measurement length, seconds (`run_seconds` of `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 10.0;

/// Everything one run accumulates.
pub struct Run {
    /// Input seed.
    pub seed: u64,
    /// End of the measurement window (`--seconds` after measuring starts).
    deadline: Instant,
    window: Duration,
    /// Traced mode: after the untraced measurement, re-run through the
    /// layers' public functions and fill the per-layer metrics.
    pub traced: bool,
    /// Host-wall spans (kept only when traced).
    pub tracer: trace::Tracer,
    /// Simulated-clock spans from the `_rec` entry points.
    pub des: ipt_obs::TraceRecorder,
    /// End-to-end metrics.
    pub e2e: Metrics,
    /// Per-layer metrics.
    pub layers: Metrics,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    /// Provenance entries the workload adds (working-set sizes, routes).
    extra: Vec<(String, Value)>,
}

impl Run {
    /// A run of `seconds` measurement seconds.
    pub fn new(seed: u64, seconds: f64, traced: bool) -> Self {
        let window = Duration::from_secs_f64(seconds.max(0.0));
        Self {
            seed,
            deadline: Instant::now() + window,
            window,
            traced,
            tracer: trace::Tracer::new(traced),
            des: ipt_obs::TraceRecorder::new(),
            e2e: Metrics::default(),
            layers: Metrics::default(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            extra: Vec::new(),
        }
    }

    /// Start the measurement window now (after set-up).
    pub fn start_window(&mut self) {
        self.deadline = Instant::now() + self.window;
    }

    /// Has the measurement window closed?
    pub fn expired(&self) -> bool {
        Instant::now() >= self.deadline
    }

    /// Count one attempted operation; `ok == false` counts it as failed
    /// with the message `what()`.
    pub fn outcome(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 16 {
                self.failures.push(what());
            }
        }
    }

    /// A guard on the workload definition or on an equivalence the traced
    /// run relies on: on failure the run aborts (panics, exit code 101),
    /// since its numbers would describe a different computation.
    pub fn guard(&self, ok: bool, what: impl FnOnce() -> String) {
        assert!(ok, "benchmark guard failed: {}", what());
    }

    /// Record a provenance entry.
    pub fn note(&mut self, key: &str, value: Value) {
        self.extra.push((key.to_string(), value));
    }

    /// Record the bytes of one matrix shape the workload transposes.
    pub fn working_set(&mut self, rows: usize, cols: usize, elem_bytes: usize) {
        let bytes = ipt_core::check::checked_bytes(rows, cols, elem_bytes).unwrap_or(u64::MAX);
        self.note(
            &format!("working_set_bytes.{rows}x{cols}x{elem_bytes}"),
            Value::UInt(bytes),
        );
    }

    /// Thread counts every workload reports: the rayon pool and the
    /// parallel simulation engine.
    pub fn thread_layers(&mut self) {
        self.layers
            .exact("rayon.threads", rayon::current_num_threads() as f64);
        self.layers.exact(
            "exec.threads",
            gpu_sim::EngineMode::parallel_auto().resolved_threads() as f64,
        );
    }

    /// `trace.overhead_pct`: traced over untraced median op wall, as a
    /// geometric mean over `(traced span, untraced span)` pairs.
    pub fn trace_overhead(&mut self, op_spans: &[(&str, &str)]) {
        let ratios: Option<Vec<f64>> = op_spans
            .iter()
            .map(|(t, u)| {
                let (t, u) = (self.tracer.durations_ms(t), self.tracer.durations_ms(u));
                (!t.is_empty() && !u.is_empty())
                    .then(|| stats::Stat::of(&t).value / stats::Stat::of(&u).value)
            })
            .collect();
        if let Some(r) = ratios {
            self.layers
                .exact("trace.overhead_pct", 100.0 * (stats::geomean(&r) - 1.0));
        }
    }
}

/// Run workload `name` into `ctx`.
pub fn run_workload(name: &str, ctx: &mut Run) {
    match name {
        "staged" => staged::run(ctx, &staged::Config::full()),
        "prime" => prime::run(ctx, &prime::Config::full()),
        "serve" => serve::run(ctx, &serve::Config::full()),
        "outofcore" => outofcore::run(ctx, &outofcore::Config::full()),
        other => unreachable!("workload {other} was validated by the CLI"),
    }
}

fn stat_value(unit: &str, s: stats::Stat) -> Value {
    Value::Obj(vec![
        ("value".into(), Value::Float(s.value)),
        ("unit".into(), Value::Str(unit.into())),
        ("n".into(), Value::UInt(s.n as u64)),
        ("p25".into(), Value::Float(s.p25)),
        ("p75".into(), Value::Float(s.p75)),
    ])
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: PathBuf,
}

/// `results/` beside the executable: inside the build's target directory,
/// which version control already ignores.
fn default_out() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.join("results")))
        .unwrap_or_else(|| PathBuf::from("results"))
}

fn parse_run(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        traced: false,
        out: default_out(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?.clone(),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&a.seconds) {
                    return Err("--seconds must be within 0..=3600".into());
                }
            }
            "--trace" => {
                a.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--traced" => a.traced = true,
            "--out" => a.out = PathBuf::from(value()?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(a)
}

fn run_cmd(args: &Args) -> Result<bool, String> {
    let steal0 = sys::cpu_jiffies();
    let mut ctx = Run::new(args.seed, args.seconds, args.traced);
    run_workload(&args.workload, &mut ctx);
    ctx.e2e.exact("peak_rss_mb", sys::peak_rss_mb());
    let steal = sys::steal_pct(steal0, sys::cpu_jiffies());
    let correct = ctx.failed == 0;

    println!(
        "workload {} seed {} ({} s window, steal {steal:.1}%)",
        args.workload, args.seed, args.seconds
    );
    for (d, s) in ctx.e2e.resolve(END_TO_END.iter()) {
        println!(
            "  {:<14} {:>14.6} {:<5} (n={} p25={:.6} p75={:.6})",
            d.name, s.value, d.unit, s.n, s.p25, s.p75
        );
    }
    for f in &ctx.failures {
        println!("  FAILED: {f}");
    }

    let (defs, file_metrics): (Vec<_>, Metrics) = if args.traced {
        (
            metrics::per_layer().collect(),
            std::mem::take(&mut ctx.layers),
        )
    } else {
        (END_TO_END.iter().collect(), std::mem::take(&mut ctx.e2e))
    };
    let resolved: Vec<_> = file_metrics.resolve(defs.into_iter()).collect();
    let provenance = sys::provenance(
        &args.workload,
        args.seed,
        args.seconds,
        steal,
        std::mem::take(&mut ctx.extra),
    );
    let outcome = |metrics: Value| {
        Value::Obj(vec![
            ("correct".into(), Value::Bool(correct)),
            ("attempted".into(), Value::UInt(ctx.attempted)),
            ("failed".into(), Value::UInt(ctx.failed)),
            ("metrics".into(), metrics),
        ])
    };
    let full: Vec<(String, Value)> = resolved
        .iter()
        .map(|(d, s)| (d.name.to_string(), stat_value(d.unit, *s)))
        .collect();
    let mut file = outcome(Value::Obj(full));
    if let Value::Obj(entries) = &mut file {
        entries.insert(0, ("provenance".into(), provenance));
        if args.traced {
            entries.push(("layers".into(), ctx.tracer.layers()));
        }
    }
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let write = |name: String, text: String| {
        let path = args.out.join(name);
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let pretty = serde_json::to_string_pretty(&file).expect("infallible shim serializer");
    if args.traced {
        write(format!("{}.layers.json", args.workload), pretty)?;
        write(
            format!("{}.trace.json", args.workload),
            ctx.tracer.chrome_json(&ctx.des),
        )?;
    } else {
        write(format!("{}.s{}.json", args.workload, args.seed), pretty)?;
    }

    let brief: Vec<(String, Value)> = resolved
        .iter()
        .map(|(d, s)| {
            let v = Value::Obj(vec![
                ("value".into(), Value::Float(s.value)),
                ("unit".into(), Value::Str(d.unit.into())),
            ]);
            (d.name.to_string(), v)
        })
        .collect();
    println!(
        "{}",
        serde_json::to_string(&outcome(Value::Obj(brief))).expect("infallible")
    );
    Ok(correct)
}

const USAGE: &str = "usage:\n  benchmark run --workload staged|prime|serve|outofcore --seed N \
                     [--seconds S] [--trace 0|1] [--out DIR]\n  benchmark compare DIR_A DIR_B";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => parse_run(&args[1..]).and_then(|a| run_cmd(&a)),
        Some("compare") if args.len() == 3 => compare::run(&args[1], &args[2]),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests;
