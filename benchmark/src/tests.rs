//! End-to-end tests of the benchmark at tiny sizes, plus the checks that
//! tie it to `BENCHMARK.json`.

use crate::metrics::{self, Def, END_TO_END};
use crate::{outofcore, prime, serve, staged, Run, WORKLOADS};
use serde::Value;
use std::collections::BTreeMap;

/// Run one workload at test size with a zero-second window (one cycle).
fn tiny(workload: &str, seed: u64, traced: bool) -> Run {
    let mut ctx = Run::new(seed, 0.0, traced);
    match workload {
        "staged" => staged::run(&mut ctx, &staged::Config::tiny()),
        "prime" => prime::run(&mut ctx, &prime::Config::tiny()),
        "serve" => serve::run(&mut ctx, &serve::Config::tiny()),
        "outofcore" => outofcore::run(&mut ctx, &outofcore::Config::tiny()),
        other => panic!("unknown workload {other}"),
    }
    ctx
}

/// Every deterministic metric a run produced, as exact bit patterns.
fn deterministic(ctx: &Run) -> BTreeMap<&'static str, u64> {
    END_TO_END
        .iter()
        .chain(metrics::per_layer())
        .filter(|d| d.deterministic)
        .filter_map(|d| {
            let s = ctx.e2e.get(d.name).or_else(|| ctx.layers.get(d.name))?;
            Some((d.name, s.value.to_bits()))
        })
        .collect()
}

#[test]
fn every_workload_runs_end_to_end_traced() {
    for w in WORKLOADS {
        let ctx = tiny(w, 7, true);
        assert!(ctx.attempted > 0, "{w}: nothing attempted");
        assert_eq!(ctx.failed, 0, "{w}: {:?}", ctx.failures);
        for d in END_TO_END.iter().filter(|d| d.name != "peak_rss_mb") {
            let s = ctx
                .e2e
                .get(d.name)
                .unwrap_or_else(|| panic!("{w}: {} missing", d.name));
            assert!(s.value > 0.0, "{w}: {} = {}", d.name, s.value);
        }
        let layer = |name: &str| ctx.layers.get(name).map_or(0.0, |s| s.value);
        assert!(
            ctx.layers.get("trace.overhead_pct").is_some(),
            "{w}: no trace overhead"
        );
        let owned: &[&str] = match w {
            "staged" => &[
                "kernel.s1_100.sim_us",
                "kernel.s2_0010.wall_ms",
                "exec.parallel_gain_x.s3_0100",
                "stages.host_ms.s1_100",
                "stages.host_seq_ms",
                "recover.checksum_ms",
                "autotune.candidates",
                "scheme.decide_us",
            ],
            "prime" => &[
                "kernel.c2r_rows.sim_us",
                "kernel.c2r_cols.warp_steps",
                "exec.parallel_gain_x.c2r",
                "coprime.host_ms",
                "coprime.host_seq_ms",
                "c2r.host_ms",
                "c2r.device_ms",
            ],
            "serve" => &[
                "serve.sim_latency_us_p99",
                "serve.full_execs",
                "serve.cache_hit_rate",
                "fleet.submit_us_p50",
                "fleet.round_ms_p50",
                "exec.parallel_gain_x.serve",
                "serve.req_per_s",
            ],
            _ => &[
                "stream.chunks",
                "stream.overlap_efficiency",
                "stream.wall_ms.chaos",
            ],
        };
        for name in owned {
            assert!(layer(name) > 0.0, "{w}: {name} = {}", layer(name));
        }
    }
}

#[test]
fn deterministic_metrics_repeat_across_runs() {
    for w in WORKLOADS {
        let (a, b) = (
            deterministic(&tiny(w, 3, false)),
            deterministic(&tiny(w, 3, false)),
        );
        assert!(!a.is_empty(), "{w}: no deterministic metrics");
        assert_eq!(a, b, "{w}");
    }
}

/// Child half of the thread-count test: prints the deterministic metrics
/// of every workload when `BENCHMARK_PROBE` is set; a no-op otherwise.
#[test]
fn deterministic_probe() {
    if std::env::var_os("BENCHMARK_PROBE").is_none() {
        return;
    }
    let all: BTreeMap<&str, BTreeMap<&str, u64>> = WORKLOADS
        .iter()
        .map(|&w| (w, deterministic(&tiny(w, 5, false))))
        .collect();
    println!("PROBE {all:?}");
}

#[test]
fn deterministic_metrics_do_not_depend_on_engine_threads() {
    // The engine reads RAYON_NUM_THREADS once per process, so each thread
    // count runs in its own child process (this test binary, filtered to
    // the probe).
    let exe = std::env::current_exe().expect("test binary path");
    let probe = |threads: &str| {
        let out = std::process::Command::new(&exe)
            .args([
                "tests::deterministic_probe",
                "--exact",
                "--nocapture",
                "--test-threads=1",
            ])
            .env("BENCHMARK_PROBE", "1")
            .env("RAYON_NUM_THREADS", threads)
            .output()
            .expect("spawn probe");
        assert!(
            out.status.success(),
            "probe failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .find_map(|l| l.split_once("PROBE ").map(|(_, m)| m.to_string()))
            .expect("probe output")
    };
    assert_eq!(probe("1"), probe("2"));
}

fn benchmark_json() -> Value {
    serde_json::from_str(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
}

fn listed(v: &Value, key: &str) -> Vec<Vec<(String, String)>> {
    v.get(key)
        .and_then(Value::as_array)
        .expect(key)
        .iter()
        .map(|m| {
            m.as_object()
                .expect("metric object")
                .iter()
                .map(|(k, x)| {
                    (
                        k.clone(),
                        x.as_str()
                            .map_or_else(|| format!("{:?}", x.as_f64()), str::to_string),
                    )
                })
                .collect()
        })
        .collect()
}

fn expected(defs: &[&Def]) -> Vec<Vec<(String, String)>> {
    defs.iter()
        .map(|d| {
            let mut m = vec![
                ("name".to_string(), d.name.to_string()),
                ("unit".to_string(), d.unit.to_string()),
                ("better".to_string(), d.better.name().to_string()),
            ];
            if let Some(b) = d.bound {
                m.push(("bound".to_string(), format!("{:?}", Some(b))));
            }
            m
        })
        .collect()
}

#[test]
fn metric_names_match_benchmark_json() {
    let v = benchmark_json();
    assert_eq!(
        listed(&v, "end_to_end"),
        expected(&END_TO_END.iter().collect::<Vec<_>>())
    );
    assert_eq!(
        listed(&v, "per_layer"),
        expected(&metrics::per_layer().collect::<Vec<_>>())
    );
    let names: Vec<&str> = v
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("workload name")
        })
        .collect();
    assert_eq!(names, WORKLOADS);
    let paths = v.get("paths").and_then(Value::as_array).expect("paths");
    assert_eq!(paths.len(), 1);
    assert_eq!(paths[0].as_str(), Some("benchmark"));
}

#[test]
fn benchmark_imports_nothing_from_the_harness_crate() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let forbidden = concat!("ipt_", "bench::");
    let mut checked = 0;
    for entry in std::fs::read_dir(&dir).expect("read sources") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "rs") {
            let text = std::fs::read_to_string(&path).expect("read source");
            assert!(
                !text.contains(forbidden),
                "{} imports the harness crate",
                path.display()
            );
            checked += 1;
        }
    }
    assert!(
        checked >= 10,
        "found only {checked} sources in {}",
        dir.display()
    );
}
