//! The regression harness behind `repro --check`.
//!
//! A check compares a freshly measured [`BenchReport`] against the committed
//! baseline JSON for the same experiment. Only the `rows` subtree is
//! compared — provenance carries device constants such as `peak_gbps` that
//! are configuration, not measurement. The simulator is deterministic, so a
//! clean tree reproduces the baseline exactly; the tolerance exists for the
//! day the cost model legitimately moves and for real-hardware backends.

use ipt_obs::{
    compare_metrics, compare_slo_metrics, current_git_rev, extract_metrics, extract_slo_metrics,
    extract_wall_metrics, BenchReport, Metric, Provenance, Regression, SCHEMA_VERSION,
};
use serde::{Serialize, Value};

/// Default relative tolerance for `repro --check` (10 %).
pub const DEFAULT_TOLERANCE: f64 = 0.10;

/// Relative tolerance for host wall-clock (`wall_*`) metrics (60 %).
///
/// Wall time measures the real machine the harness ran on, not the
/// simulated device, so shared CI runners can jitter by tens of percent;
/// the gate only exists to catch the parallel engine collapsing back to
/// serial speed, which loses far more than this.
pub const DEFAULT_WALL_TOLERANCE: f64 = 0.60;

/// Wrap experiment rows in the versioned envelope with this run's
/// provenance (direct heuristic planning).
pub fn make_report(
    experiment: &str,
    device: &gpu_sim::DeviceSpec,
    scale: &str,
    rows: &impl Serialize,
) -> BenchReport {
    make_report_scheme(experiment, device, scale, "heuristic", rows)
}

/// [`make_report`] with explicit planning-scheme provenance (e.g.
/// `"plan-cache"` for the serving layer, or a short-circuit scheme name).
pub fn make_report_scheme(
    experiment: &str,
    device: &gpu_sim::DeviceSpec,
    scale: &str,
    scheme: &str,
    rows: &impl Serialize,
) -> BenchReport {
    make_report_engine(experiment, device, scale, scheme, "serial", 1, rows)
}

/// [`make_report_scheme`] with explicit simulation-engine provenance, for
/// experiments that measure host wall-clock (`wall_*`) numbers: those are
/// only comparable between runs of the same engine and thread count.
pub fn make_report_engine(
    experiment: &str,
    device: &gpu_sim::DeviceSpec,
    scale: &str,
    scheme: &str,
    engine: &str,
    sim_threads: usize,
    rows: &impl Serialize,
) -> BenchReport {
    BenchReport::new(
        experiment,
        Provenance {
            git_rev: current_git_rev(),
            device: device.to_value(),
            seed: 0,
            scale: scale.to_string(),
            schedule: "round-robin".to_string(),
            scheme: scheme.to_string(),
            engine: engine.to_string(),
            sim_threads: sim_threads as u64,
        },
        rows,
    )
}

/// The result of checking one experiment.
#[derive(Debug, Clone)]
pub struct CheckOutcome {
    /// Experiment name.
    pub experiment: String,
    /// How many baseline metrics were compared.
    pub metrics_compared: usize,
    /// How many host wall-clock (`wall_*`) metrics were compared (0 when
    /// the baseline has none, or its engine/thread provenance differs).
    pub wall_compared: usize,
    /// How many lower-is-better SLO (`slo_*`) metrics were compared (0
    /// when the baseline has none).
    pub slo_compared: usize,
    /// Every metric that regressed past the tolerance.
    pub regressions: Vec<Regression>,
}

impl CheckOutcome {
    /// Did the experiment pass?
    #[must_use]
    pub fn passed(&self) -> bool {
        self.regressions.is_empty()
    }
}

/// Compare a fresh report against the committed baseline JSON.
///
/// `inject_slowdown_pct` scales every fresh throughput metric down by that
/// percentage before comparing — the self-test hook proving the harness
/// actually fails when performance drops (a harness that cannot fail
/// verifies nothing).
///
/// # Errors
///
/// Returns a description when the baseline is unparsable, unversioned, has
/// a mismatched schema version, names a different experiment, or was
/// generated on different simulated hardware.
pub fn check_report(
    baseline_json: &str,
    fresh: &BenchReport,
    tolerance: f64,
    inject_slowdown_pct: f64,
) -> Result<CheckOutcome, String> {
    let baseline = serde_json::from_str(baseline_json)
        .map_err(|e| format!("baseline for {:?} is not valid JSON: {e:?}", fresh.experiment))?;
    let version = baseline.get("schema_version").and_then(Value::as_u64);
    if version != Some(SCHEMA_VERSION) {
        return Err(format!(
            "baseline for {:?} has schema_version {version:?}, expected {SCHEMA_VERSION}; \
             regenerate with `repro all --json bench_out`",
            fresh.experiment
        ));
    }
    let name = baseline.get("experiment").and_then(Value::as_str);
    if name != Some(&fresh.experiment) {
        return Err(format!(
            "baseline names experiment {name:?}, fresh run is {:?}",
            fresh.experiment
        ));
    }
    let base_dev = baseline
        .get("provenance")
        .and_then(|p| p.get("device"))
        .and_then(|d| d.get("name"))
        .and_then(Value::as_str);
    let fresh_dev = fresh.provenance.device.get("name").and_then(Value::as_str);
    if base_dev != fresh_dev {
        return Err(format!(
            "baseline for {:?} was generated on {base_dev:?}, this run simulates {fresh_dev:?}",
            fresh.experiment
        ));
    }

    let base_rows = baseline
        .get("rows")
        .ok_or_else(|| format!("baseline for {:?} has no rows", fresh.experiment))?;
    let base_metrics = extract_metrics(base_rows);
    let mut fresh_metrics = extract_metrics(&fresh.rows);
    if inject_slowdown_pct != 0.0 {
        let factor = 1.0 - inject_slowdown_pct / 100.0;
        for m in &mut fresh_metrics {
            m.value *= factor;
        }
    }
    let mut regressions = compare_metrics(&base_metrics, &fresh_metrics, tolerance);

    // Host wall-clock metrics gate separately, with the wide
    // [`DEFAULT_WALL_TOLERANCE`], and only when the baseline was produced
    // by the same engine with the same thread count — a 1-core laptop
    // baseline must never fail (or vacuously pass) a 4-core CI run.
    let base_prov = baseline.get("provenance");
    let wall_comparable = base_prov
        .and_then(|p| p.get("engine"))
        .and_then(Value::as_str)
        .is_some_and(|e| e == fresh.provenance.engine)
        && base_prov
            .and_then(|p| p.get("sim_threads"))
            .and_then(Value::as_u64)
            .is_some_and(|t| t == fresh.provenance.sim_threads);
    // Wall times (`wall_*_ms`) are lower-is-better, like `slo_*`; wall
    // gains and rates (`wall_gain_x`, `wall_gbps`) are higher-is-better.
    let base_wall = if wall_comparable { extract_wall_metrics(base_rows) } else { Vec::new() };
    if !base_wall.is_empty() {
        let is_time = |m: &Metric| m.path.ends_with("_ms");
        let mut fresh_wall = extract_wall_metrics(&fresh.rows);
        if inject_slowdown_pct != 0.0 {
            let factor = 1.0 - inject_slowdown_pct / 100.0;
            for m in &mut fresh_wall {
                if is_time(m) {
                    m.value /= factor;
                } else {
                    m.value *= factor;
                }
            }
        }
        let (base_times, base_rates): (Vec<Metric>, Vec<Metric>) =
            base_wall.iter().cloned().partition(is_time);
        regressions.extend(compare_metrics(&base_rates, &fresh_wall, DEFAULT_WALL_TOLERANCE));
        regressions.extend(compare_slo_metrics(&base_times, &fresh_wall, DEFAULT_WALL_TOLERANCE));
    }

    // SLO metrics (`slo_*`: queue-wait percentiles, shed/reject rates)
    // gate in the opposite direction — lower is better, a *rise* past the
    // tolerance regresses. The slowdown self-test hook accordingly scales
    // them up.
    let base_slo = extract_slo_metrics(base_rows);
    if !base_slo.is_empty() {
        let mut fresh_slo = extract_slo_metrics(&fresh.rows);
        if inject_slowdown_pct != 0.0 {
            let factor = 1.0 / (1.0 - inject_slowdown_pct / 100.0);
            for m in &mut fresh_slo {
                m.value *= factor;
            }
        }
        regressions.extend(compare_slo_metrics(&base_slo, &fresh_slo, tolerance));
    }

    Ok(CheckOutcome {
        experiment: fresh.experiment.clone(),
        metrics_compared: base_metrics.len(),
        wall_compared: base_wall.len(),
        slo_compared: base_slo.len(),
        regressions,
    })
}

/// Extracted fresh metrics of a report's rows (diagnostics / tests).
#[must_use]
pub fn report_metrics(report: &BenchReport) -> Vec<Metric> {
    extract_metrics(&report.rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceSpec;
    use serde::Serialize;

    #[derive(Serialize)]
    struct Row {
        input: String,
        gbps: f64,
    }

    fn fresh() -> BenchReport {
        let rows = vec![
            Row { input: "1440x600".into(), gbps: 41.5 },
            Row { input: "2400x360".into(), gbps: 38.2 },
        ];
        make_report("table2", &DeviceSpec::tesla_k20(), "reduced", &rows)
    }

    #[test]
    fn clean_self_comparison_passes() {
        let rep = fresh();
        let baseline = serde_json::to_string_pretty(&rep).unwrap();
        let out = check_report(&baseline, &rep, DEFAULT_TOLERANCE, 0.0).unwrap();
        assert_eq!(out.metrics_compared, 2);
        assert!(out.passed(), "identical reports must not regress: {:?}", out.regressions);
    }

    #[test]
    fn synthetic_twenty_percent_slowdown_fails() {
        let rep = fresh();
        let baseline = serde_json::to_string_pretty(&rep).unwrap();
        let out = check_report(&baseline, &rep, DEFAULT_TOLERANCE, 20.0).unwrap();
        assert!(!out.passed(), "a 20% slowdown must trip a 10% tolerance");
        assert_eq!(out.regressions.len(), 2, "every throughput metric slowed down");
        for r in &out.regressions {
            assert!((r.change - (-0.2)).abs() < 1e-9, "{r}");
        }
    }

    #[test]
    fn unversioned_baseline_is_rejected() {
        let err = check_report("[{\"gbps\": 10.0}]", &fresh(), DEFAULT_TOLERANCE, 0.0)
            .unwrap_err();
        assert!(err.contains("schema_version"), "{err}");
    }

    #[test]
    fn device_mismatch_is_rejected() {
        let rep = fresh();
        let baseline = serde_json::to_string_pretty(&rep).unwrap();
        let other = make_report("table2", &DeviceSpec::hd7750(), "reduced", &Vec::<Row>::new());
        let err = check_report(&baseline, &other, DEFAULT_TOLERANCE, 0.0).unwrap_err();
        assert!(err.contains("simulates"), "{err}");
    }

    #[test]
    fn experiment_mismatch_is_rejected() {
        let rep = fresh();
        let baseline = serde_json::to_string_pretty(&rep).unwrap();
        let other = make_report("fig6", &DeviceSpec::tesla_k20(), "reduced", &Vec::<Row>::new());
        let err = check_report(&baseline, &other, DEFAULT_TOLERANCE, 0.0).unwrap_err();
        assert!(err.contains("experiment"), "{err}");
    }

    #[derive(Serialize)]
    struct WallRow {
        gbps: f64,
        wall_gain_x: f64,
        wall_parallel_ms: f64,
    }

    fn wall_report(gain: f64, parallel_ms: f64, engine: &str, threads: usize) -> BenchReport {
        let rows = vec![WallRow { gbps: 40.0, wall_gain_x: gain, wall_parallel_ms: parallel_ms }];
        make_report_engine(
            "simperf",
            &DeviceSpec::tesla_k20(),
            "reduced",
            "heuristic",
            engine,
            threads,
            &rows,
        )
    }

    #[test]
    fn wall_metrics_gate_with_wide_tolerance() {
        let base = wall_report(3.0, 100.0, "parallel", 4);
        let baseline = serde_json::to_string_pretty(&base).unwrap();
        let check = |gain, ms| {
            check_report(&baseline, &wall_report(gain, ms, "parallel", 4), DEFAULT_TOLERANCE, 0.0)
                .unwrap()
        };
        // Same engine + threads: wall metrics are compared.
        let out = check(3.0, 100.0);
        assert_eq!(out.wall_compared, 2);
        assert!(out.passed());
        // A 30% wall slowdown sits inside the 60% wall tolerance, in both
        // directions: a gain that fell, a time that rose.
        let out = check(2.1, 130.0);
        assert!(out.passed(), "{:?}", out.regressions);
        // Getting faster never fails: a higher gain, a lower time.
        let out = check(6.0, 40.0);
        assert!(out.passed(), "{:?}", out.regressions);
        // Collapsing to serial speed (-70% gain) trips the gate.
        let out = check(0.9, 100.0);
        assert!(!out.passed());
        assert_eq!(out.regressions[0].path, "0/wall_gain_x");
        // So does a wall time that rose past the tolerance.
        let out = check(3.0, 170.0);
        assert!(!out.passed());
        assert_eq!(out.regressions[0].path, "0/wall_parallel_ms");
        // The slowdown self-test moves both kinds the wrong way.
        let out = check_report(&baseline, &base, DEFAULT_TOLERANCE, 70.0).unwrap();
        assert_eq!(out.regressions.len(), 3, "gbps, wall_gain_x and wall_parallel_ms");
    }

    #[test]
    fn wall_metrics_skip_on_engine_or_thread_mismatch() {
        let base = wall_report(3.0, 100.0, "parallel", 4);
        let baseline = serde_json::to_string_pretty(&base).unwrap();
        for fresh in [wall_report(0.5, 900.0, "serial", 4), wall_report(0.5, 900.0, "parallel", 1)] {
            let out = check_report(&baseline, &fresh, DEFAULT_TOLERANCE, 0.0).unwrap();
            assert_eq!(out.wall_compared, 0, "provenance mismatch must skip wall gate");
            assert!(out.passed(), "{:?}", out.regressions);
        }
    }

    #[derive(Serialize)]
    struct SloRow {
        gbps: f64,
        slo_p99_wait_us: f64,
        slo_shed_rate: f64,
    }

    fn slo_report(p99: f64, shed: f64) -> BenchReport {
        let rows = vec![SloRow { gbps: 40.0, slo_p99_wait_us: p99, slo_shed_rate: shed }];
        make_report("soak", &DeviceSpec::tesla_k20(), "reduced", &rows)
    }

    #[test]
    fn slo_metrics_gate_lower_is_better() {
        let baseline = serde_json::to_string_pretty(&slo_report(120.0, 0.02)).unwrap();
        // Identical and improved latency both pass.
        let out = check_report(&baseline, &slo_report(120.0, 0.02), DEFAULT_TOLERANCE, 0.0)
            .unwrap();
        assert_eq!(out.slo_compared, 2);
        assert!(out.passed(), "{:?}", out.regressions);
        let out = check_report(&baseline, &slo_report(80.0, 0.0), DEFAULT_TOLERANCE, 0.0)
            .unwrap();
        assert!(out.passed(), "lower SLO values must pass: {:?}", out.regressions);
        // A 20% latency rise trips the 10% tolerance.
        let out = check_report(&baseline, &slo_report(144.0, 0.02), DEFAULT_TOLERANCE, 0.0)
            .unwrap();
        assert!(!out.passed(), "p99 rise must regress");
        assert!(out.regressions[0].path.ends_with("slo_p99_wait_us"));
        // The slowdown self-test hook inflates SLO values, so the harness
        // can prove it fails on a degraded fleet.
        let out = check_report(&baseline, &slo_report(120.0, 0.02), DEFAULT_TOLERANCE, 20.0)
            .unwrap();
        assert!(!out.passed(), "injected 20% degradation must fail the SLO gate");
    }

    #[test]
    fn provenance_device_constants_are_not_metrics() {
        // DeviceSpec carries `peak_gbps`/`bandwidth_gbps`; they must not be
        // compared as measurements.
        let rep = fresh();
        let paths: Vec<String> = report_metrics(&rep).into_iter().map(|m| m.path).collect();
        assert_eq!(paths, vec!["0/gbps", "1/gbps"]);
    }
}
