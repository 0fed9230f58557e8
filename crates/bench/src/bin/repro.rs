//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro <experiment> [--full] [--device NAME] [--json DIR] [--single-stage]
//!       [--check] [--baseline DIR] [--tolerance T] [--inject-slowdown PCT]
//!
//! experiments:
//!   fig6          Figure 6  (spreading & padding, 010!)
//!   sweep010      §7.1      (optimised vs original PTTWAC, 3 GPUs)
//!   sweep100      §7.2      (warp-based vs Sung 100!, 3 GPUs)
//!   fig7          Figure 7  (100! throughput heat map)
//!   table2        Table 2   (3-stage vs 4-stage ± fusion)
//!   tilesize      §7.3      (throughput vs tile size)
//!   dominance     scheme gate (C2R decomposition vs staged / single-stage
//!                 per shape, plus planner probes over 7919×104729-class
//!                 prime shapes — exits 1 if C2R loses any gcd = 1 shape)
//!   fig8          Figure 8  (tile scatter + pruning heuristic)
//!   table3        Table 3 / Figure 9 (CPU vs GPU assessment)
//!   async         §7.6      (Q command queues)
//!   phi           §7.7      (Xeon Phi)
//!   multigpu      extension (multi-GPU scaling, paper §8 future work)
//!   ablation      cost-model ablations (which mechanism drives which result)
//!   serve         extension (batched, plan-cached serving layer: mixed
//!                 1k-request stream, cache hit rate, amortization vs
//!                 per-request autotuning)
//!   soak          robustness gate (sharded serving fleet under a 100k-
//!                 request mixed soak — 1M with `--full`: priority classes,
//!                 bursts, one injected shard crash + warm restart from a
//!                 plan-cache snapshot; exits 1 on any correctness failure
//!                 or a cold cache)
//!   outofcore     robustness + performance gate (out-of-core streaming
//!                 transpose: fault-free overlap efficiency ≥ 70% of the
//!                 bandwidth roofline, plus a 240-run seeded mid-stream
//!                 fault campaign — transfer chaos, kernel aborts, engine
//!                 crash at 40% progress — exits 1 on any data loss or a
//!                 missed efficiency floor; archives the crash-run chunk
//!                 journal next to the JSON)
//!   simperf       engineering (parallel vs serial simulation engine:
//!                 host wall clock per workload — WG-local kernels, the
//!                 three `100!` variants, and the 3-stage pipeline —
//!                 asserted bit-identical; `--min-wall-gain X` fails the
//!                 run below X× aggregate gain, `--min-staged-wall-gain X`
//!                 below X× on the 3-stage pipeline row;
//!                 pin RAYON_NUM_THREADS for reproducible thread counts)
//!   telemetry     observability gate (the 100k soak twice: counters-only
//!                 vs full tracing; aggregates must be bit-identical and
//!                 the streams' wall overhead must stay under
//!                 `--max-overhead-pct`, default 5 — exits 1 otherwise)
//!   trace         observability showcase (traced 3-stage run → Chrome trace
//!                 + Prometheus exposition; written next to the JSON archive)
//!   races         schedule-exploration campaign: seeded PCT sweep
//!                 (`--schedules N --seed S`) + bounded exhaustive pass +
//!                 planted-bug catch; exits 1 on any failing schedule
//!   all           everything above except `races`, `simperf` and
//!                 `telemetry`
//! ```
//!
//! Default scale is 1/5-reduced matrices (minutes); `--full` uses the
//! paper's exact sizes (tens of minutes). `--json DIR` archives each
//! experiment as a versioned `BenchReport` envelope (schema version, git
//! revision, device config, seed, scale) next to the text output.
//!
//! `--check` is the regression harness: after running, each experiment's
//! fresh report is compared against the committed baseline in `--baseline
//! DIR` (default `bench_out`); any throughput metric more than
//! `--tolerance` (default 0.10) below baseline fails the process with exit
//! code 1. `--inject-slowdown PCT` artificially slows the fresh metrics —
//! the self-test proving the harness can fail.

use ipt_bench::check::{
    check_report, make_report_engine, make_report_scheme, CheckOutcome, DEFAULT_TOLERANCE,
    DEFAULT_WALL_TOLERANCE,
};
use ipt_bench::experiments as ex;
use ipt_bench::workloads::{device_by_name, Scale};
use ipt_obs::BenchReport;
use serde::Serialize;
use std::io::Write;

struct Args {
    experiment: String,
    scale: Scale,
    device: gpu_sim::DeviceSpec,
    json_dir: Option<String>,
    single_stage: bool,
    include_slow: bool,
    check: bool,
    baseline_dir: String,
    tolerance: f64,
    inject_slowdown_pct: f64,
    schedules: usize,
    seed: u64,
    min_wall_gain: f64,
    min_staged_wall_gain: f64,
    max_overhead_pct: f64,
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut experiment = String::from("all");
    let mut full = false;
    let mut device = gpu_sim::DeviceSpec::tesla_k20();
    let mut json_dir = None;
    let mut single_stage = false;
    let mut include_slow = false;
    let mut check = false;
    let mut baseline_dir = String::from("bench_out");
    let mut tolerance = DEFAULT_TOLERANCE;
    let mut inject_slowdown_pct = 0.0;
    let mut schedules = 64usize;
    let mut seed = 0xA11CE_u64;
    let mut min_wall_gain = 0.0f64;
    let mut min_staged_wall_gain = 0.0f64;
    let mut max_overhead_pct = ex::telemetry::DEFAULT_MAX_OVERHEAD_PCT;
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--help" | "-h" => {
                eprintln!(
                    "usage: repro <experiment> [--full] [--device k20|gtx580|amd|phi] \
                     [--json DIR] [--single-stage] [--slow]\n\
                     \x20      [--check] [--baseline DIR] [--tolerance T] \
                     [--inject-slowdown PCT] [--schedules N] [--seed S] \
                     [--min-wall-gain X] [--min-staged-wall-gain X] \
                     [--max-overhead-pct P]\n\
                     experiments: fig6 sweep010 sweep100 fig7 table2 tilesize dominance \
                     fig8 table3 async phi multigpu ablation serve soak outofcore \
                     simperf telemetry trace races all"
                );
                std::process::exit(0);
            }
            "--full" => full = true,
            "--single-stage" => single_stage = true,
            "--slow" => include_slow = true,
            "--check" => check = true,
            "--baseline" => {
                i += 1;
                baseline_dir.clone_from(&argv[i]);
            }
            "--tolerance" => {
                i += 1;
                tolerance = argv[i].parse().unwrap_or_else(|_| {
                    eprintln!("--tolerance wants a number, got {:?}", argv[i]);
                    std::process::exit(2);
                });
            }
            "--inject-slowdown" => {
                i += 1;
                inject_slowdown_pct = argv[i].parse().unwrap_or_else(|_| {
                    eprintln!("--inject-slowdown wants a percentage, got {:?}", argv[i]);
                    std::process::exit(2);
                });
            }
            "--schedules" => {
                i += 1;
                schedules = argv[i].parse().unwrap_or_else(|_| {
                    eprintln!("--schedules wants a count, got {:?}", argv[i]);
                    std::process::exit(2);
                });
            }
            "--seed" => {
                i += 1;
                seed = argv[i].parse().unwrap_or_else(|_| {
                    eprintln!("--seed wants a u64, got {:?}", argv[i]);
                    std::process::exit(2);
                });
            }
            "--min-wall-gain" => {
                i += 1;
                min_wall_gain = argv[i].parse().unwrap_or_else(|_| {
                    eprintln!("--min-wall-gain wants a factor, got {:?}", argv[i]);
                    std::process::exit(2);
                });
            }
            "--min-staged-wall-gain" => {
                i += 1;
                min_staged_wall_gain = argv[i].parse().unwrap_or_else(|_| {
                    eprintln!("--min-staged-wall-gain wants a factor, got {:?}", argv[i]);
                    std::process::exit(2);
                });
            }
            "--max-overhead-pct" => {
                i += 1;
                max_overhead_pct = argv[i].parse().unwrap_or_else(|_| {
                    eprintln!("--max-overhead-pct wants a percentage, got {:?}", argv[i]);
                    std::process::exit(2);
                });
            }
            "--device" => {
                i += 1;
                device = device_by_name(&argv[i]).unwrap_or_else(|| {
                    eprintln!("unknown device {:?} (k20|gtx580|amd|phi)", argv[i]);
                    std::process::exit(2);
                });
            }
            "--json" => {
                i += 1;
                json_dir = Some(argv[i].clone());
            }
            flag if flag.starts_with('-') => {
                eprintln!("unknown flag {flag}");
                std::process::exit(2);
            }
            name => experiment = name.to_string(),
        }
        i += 1;
    }
    Args {
        experiment,
        scale: Scale::from_flag(full),
        device,
        json_dir,
        single_stage,
        include_slow,
        check,
        baseline_dir,
        tolerance,
        inject_slowdown_pct,
        schedules,
        seed,
        min_wall_gain,
        min_staged_wall_gain,
        max_overhead_pct,
    }
}

fn write_file(dir: &str, name: &str, body: &str) {
    std::fs::create_dir_all(dir).expect("create output dir");
    let path = format!("{dir}/{name}");
    let mut f = std::fs::File::create(&path).expect("create output file");
    f.write_all(body.as_bytes()).expect("write output file");
    eprintln!("[archived {path}]");
}

/// Collects each experiment's versioned report: archives it when `--json`
/// was given, and keeps it for the `--check` comparison.
struct Sink {
    json_dir: Option<String>,
    device: gpu_sim::DeviceSpec,
    scale: &'static str,
    keep: bool,
    reports: Vec<BenchReport>,
}

impl Sink {
    fn emit<T: Serialize>(&mut self, name: &str, rows: &T) {
        self.emit_scheme(name, "heuristic", rows);
    }

    fn emit_scheme<T: Serialize>(&mut self, name: &str, scheme: &str, rows: &T) {
        let report = make_report_scheme(name, &self.device, self.scale, scheme, rows);
        self.archive(name, report);
    }

    fn emit_engine<T: Serialize>(
        &mut self,
        name: &str,
        engine: &str,
        threads: usize,
        rows: &T,
    ) {
        let report = make_report_engine(
            name,
            &self.device,
            self.scale,
            "heuristic",
            engine,
            threads,
            rows,
        );
        self.archive(name, report);
    }

    fn archive(&mut self, name: &str, report: BenchReport) {
        if let Some(dir) = &self.json_dir {
            let body = serde_json::to_string_pretty(&report).expect("serialise report");
            write_file(dir, &format!("{name}.json"), &body);
        }
        if self.keep {
            self.reports.push(report);
        }
    }
}

fn run_check(args: &Args, reports: &[BenchReport]) -> bool {
    let mut failed = false;
    for fresh in reports {
        let path = format!("{}/{}.json", args.baseline_dir, fresh.experiment);
        let baseline = match std::fs::read_to_string(&path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("[check] {}: no baseline at {path} ({e})", fresh.experiment);
                failed = true;
                continue;
            }
        };
        match check_report(&baseline, fresh, args.tolerance, args.inject_slowdown_pct) {
            Err(e) => {
                eprintln!("[check] {e}");
                failed = true;
            }
            Ok(CheckOutcome {
                experiment,
                metrics_compared,
                wall_compared,
                slo_compared,
                regressions,
            }) => {
                let mut wall = if wall_compared > 0 {
                    format!(
                        " + {wall_compared} wall-clock within {:.0}%",
                        DEFAULT_WALL_TOLERANCE * 100.0
                    )
                } else {
                    String::new()
                };
                if slo_compared > 0 {
                    wall.push_str(&format!(" + {slo_compared} SLO (lower-is-better)"));
                }
                if regressions.is_empty() {
                    eprintln!(
                        "[check] {experiment}: OK ({metrics_compared} metrics within {:.0}%{wall})",
                        args.tolerance * 100.0
                    );
                } else {
                    failed = true;
                    let total = metrics_compared + wall_compared + slo_compared;
                    eprintln!(
                        "[check] {experiment}: {} of {total} compared metrics regressed:",
                        regressions.len()
                    );
                    for r in &regressions {
                        eprintln!("[check]   {r}");
                    }
                }
            }
        }
    }
    failed
}

#[allow(clippy::too_many_lines)]
fn main() {
    let args = parse_args();
    let known = [
        "fig6", "sweep010", "sweep100", "fig7", "table2", "tilesize", "dominance", "fig8",
        "table3", "async", "phi", "multigpu", "ablation", "serve", "soak",
        "outofcore", "simperf", "telemetry", "trace", "races", "all",
    ];
    if !known.contains(&args.experiment.as_str()) {
        eprintln!("unknown experiment {:?}; one of {known:?}", args.experiment);
        std::process::exit(2);
    }
    let run = |name: &str| args.experiment == name || args.experiment == "all";
    let t0 = std::time::Instant::now();
    let mut sink = Sink {
        json_dir: args.json_dir.clone(),
        device: args.device.clone(),
        scale: match args.scale {
            Scale::Full => "full",
            Scale::Reduced => "reduced",
        },
        keep: args.check,
        reports: Vec::new(),
    };

    if run("fig6") {
        let (rows, summary) = ex::fig6::run(&args.device, args.scale);
        println!("{}", ex::fig6::render(&rows, &summary));
        sink.emit("fig6", &(&rows, &summary));
    }
    if run("sweep010") {
        let rows = ex::sweep010::run(args.scale);
        println!("{}", ex::sweep010::render(&rows));
        sink.emit("sweep010", &rows);
    }
    if run("sweep100") {
        let rows = ex::sweep100::run(args.scale);
        println!("{}", ex::sweep100::render(&rows));
        sink.emit("sweep100", &rows);
    }
    if run("fig7") {
        let cells = ex::fig7::run(args.scale);
        println!("{}", ex::fig7::render(&cells));
        sink.emit("fig7", &cells);
    }
    if run("table2") {
        let rows = ex::table2::run(&args.device, args.scale, args.single_stage);
        println!("{}", ex::table2::render(&rows));
        sink.emit("table2", &rows);
    }
    if run("tilesize") {
        let rows = ex::tilesize::run(&args.device, args.scale);
        println!("{}", ex::tilesize::render_for(&rows, args.device.name));
        sink.emit("tilesize", &rows);
    }
    let mut dominance_failed = false;
    if run("dominance") {
        let (rows, probes, summary) = ex::dominance::run(&args.device, args.scale);
        println!("{}", ex::dominance::render(&rows, &probes, &summary));
        sink.emit("dominance", &(&rows, &probes, &summary));
        if !summary.passed {
            eprintln!(
                "[dominance] FAIL: C2R won {}/{} gcd=1 shapes",
                summary.c2r_wins, summary.gcd1_shapes
            );
            dominance_failed = true;
        }
    }
    if run("fig8") {
        let report = ex::fig8::run(args.scale);
        println!("{}", ex::fig8::render(&report));
        sink.emit("fig8", &report);
    }
    if run("table3") {
        let (rows, details) = ex::table3::run(&args.device, args.scale, args.include_slow);
        println!("{}", ex::table3::render(&rows, &details));
        sink.emit("table3", &(&rows, &details));
    }
    if run("async") {
        let (rows, summary) = ex::asyncq::run(&args.device, args.scale);
        println!("{}", ex::asyncq::render(&rows, &summary));
        sink.emit("async", &(&rows, &summary));
    }
    if run("ablation") {
        let rows = ex::ablation::run();
        println!("{}", ex::ablation::render(&rows));
        sink.emit("ablation", &rows);
    }
    if run("multigpu") {
        let (r, c) = ipt_bench::workloads::async_sizes(args.scale)[0];
        let rows = ex::multigpu::run(&args.device, r, c);
        println!("{}", ex::multigpu::render(&rows));
        sink.emit("multigpu", &rows);
    }
    if run("phi") {
        let report = ex::phi::run(args.scale);
        println!("{}", ex::phi::render(&report));
        sink.emit("phi", &report);
    }
    if run("serve") {
        let (rows, summary) = ex::serve::run(&args.device, args.scale);
        println!("{}", ex::serve::render(&rows, &summary));
        sink.emit_scheme("serve", "plan-cache", &(&rows, &summary));
    }
    let mut soak_failed = false;
    if run("soak") {
        let (rows, summary) = ex::soak::run(&args.device, args.scale);
        println!("{}", ex::soak::render(&rows, &summary));
        sink.emit_scheme("soak", "plan-cache", &(&rows, &summary));
        if !summary.passed {
            eprintln!(
                "[soak] FAIL: {} correctness failures, hit rate {:.3} (floor 0.90)",
                summary.correctness_failures, summary.hit_rate
            );
            soak_failed = true;
        }
    }
    let mut outofcore_failed = false;
    if run("outofcore") {
        let (rows, summary, journal_json) = ex::outofcore::run(&args.device, args.scale);
        println!("{}", ex::outofcore::render(&rows, &summary));
        sink.emit_scheme("outofcore", "stream", &(&rows, &summary));
        if let Some(dir) = &args.json_dir {
            // The crash-run chunk journal is the campaign's recovery
            // artifact: it shows which chunks were durable at the crash
            // and where the resume picked up.
            write_file(dir, "outofcore_journal.json", &journal_json);
        }
        if !summary.passed {
            eprintln!(
                "[outofcore] FAIL: efficiency {:.3} (floor {:.2}), {} mismatches, \
                 {} uncommitted, {} errors",
                summary.overlap_efficiency,
                summary.efficiency_floor,
                summary.slo_mismatches,
                summary.slo_uncommitted,
                summary.slo_errors
            );
            outofcore_failed = true;
        }
    }
    // `simperf` is deliberately not part of `all`: its headline numbers
    // are host wall-clock (machine-specific), so it gates in its own CI
    // job with a pinned thread count rather than riding the deterministic
    // baseline sweep.
    let mut wall_gain_failed = false;
    if args.experiment == "simperf" {
        let (rows, summary) = ex::simperf::run(&args.device, args.scale);
        println!("{}", ex::simperf::render(&rows, &summary));
        sink.emit_engine("simperf", "parallel", summary.threads, &(&rows, &summary));
        if args.min_wall_gain > 0.0 && summary.wall_gain_x < args.min_wall_gain {
            eprintln!(
                "[simperf] FAIL: wall gain {:.2}x below required {:.2}x \
                 ({} threads on {} cores)",
                summary.wall_gain_x, args.min_wall_gain, summary.threads, summary.host_cores
            );
            wall_gain_failed = true;
        }
        if args.min_staged_wall_gain > 0.0
            && summary.wall_gain_staged_x < args.min_staged_wall_gain
        {
            eprintln!(
                "[simperf] FAIL: 3-stage pipeline wall gain {:.2}x below required {:.2}x \
                 ({} threads on {} cores)",
                summary.wall_gain_staged_x,
                args.min_staged_wall_gain,
                summary.threads,
                summary.host_cores
            );
            wall_gain_failed = true;
        }
    }
    // `telemetry` is deliberately not part of `all`: its overhead gate is
    // host wall-clock (machine-specific), so it runs in its own CI job;
    // the deterministic soak aggregates it re-derives still archive and
    // gate against the committed baseline under `--check`.
    let mut telemetry_failed = false;
    if args.experiment == "telemetry" {
        let (rows, summary) = ex::telemetry::run(&args.device, args.scale, args.max_overhead_pct);
        println!("{}", ex::telemetry::render(&rows, &summary));
        sink.emit_scheme("telemetry", "plan-cache", &(&rows, &summary));
        if !summary.passed {
            eprintln!(
                "[telemetry] FAIL: aggregates match: {}, overhead {:+.2}% (ceiling {:.1}%), \
                 false positives {}",
                summary.aggregates_match, summary.overhead_pct, summary.max_overhead_pct,
                summary.slo_false_positive_alerts
            );
            telemetry_failed = true;
        }
    }
    // `races` is deliberately not part of `all`: it is a correctness
    // campaign with its own pass/fail verdict and (in CI) a much larger
    // schedule count, not a throughput measurement.
    let mut races_failed = false;
    if args.experiment == "races" {
        let report = ex::races::run(args.seed, args.schedules);
        println!("{}", ex::races::render(&report));
        if let Some(dir) = &args.json_dir {
            let body = serde_json::to_string_pretty(&report).expect("serialise races report");
            write_file(dir, "races.json", &body);
        }
        races_failed = !report.passed();
    }
    if run("trace") {
        // The trace is an artifact pair, not a BenchReport: it bypasses the
        // sink and the regression check.
        let report = ex::trace::run(&args.device, args.scale);
        println!("{}", ex::trace::render(&report));
        if let Some(dir) = &args.json_dir {
            write_file(dir, "trace.json", &report.chrome_json);
            write_file(dir, "metrics.prom", &report.prometheus);
        }
    }

    let failed = args.check && run_check(&args, &sink.reports);
    eprintln!("[repro done in {:.1}s]", t0.elapsed().as_secs_f64());
    if failed
        || races_failed
        || wall_gain_failed
        || soak_failed
        || outofcore_failed
        || telemetry_failed
        || dominance_failed
    {
        std::process::exit(1);
    }
}
