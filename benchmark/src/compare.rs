//! `benchmark compare DIR_A DIR_B`: compare two sets of untraced runs.
//!
//! For every workload and end-to-end metric it prints each side's median
//! and quartiles over its runs and a verdict:
//!
//! * `unresolved` — either side's quartile spread (as a share of its
//!   median) is wider than the metric's bound, and B does not beat A on
//!   every run;
//! * `worse` — B's median is worse than A's by more than the bound;
//! * `better` — B's median beats A's by more than A's own spread and B wins
//!   at least nine in ten runs paired by seed (ties count for neither), or
//!   every B run beats every A run;
//! * `within-bound` — otherwise.
//!
//! Deterministic metrics are judged the same way, and must also be
//! bit-equal across the runs of each side: runs of one commit that
//! disagree on the simulated clock make the comparison meaningless. Exits 1
//! when any metric is `worse` or a deterministic metric differs within a
//! side.

use crate::metrics::{Better, Def, END_TO_END};
use crate::stats::Stat;
use serde::Value;
use std::collections::BTreeMap;

/// `workload → [(seed, metric → value)]` from the `W.sN.json` files of a
/// results directory.
type RunSet = BTreeMap<String, Vec<(u64, BTreeMap<String, f64>)>>;

fn load(dir: &str) -> Result<RunSet, String> {
    let mut out = RunSet::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{dir}: {e}"))?;
    for entry in entries {
        let path = entry.map_err(|e| format!("{dir}: {e}"))?.path();
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        let is_run =
            name.ends_with(".json") && name.split('.').nth(1).is_some_and(|s| s.starts_with('s'));
        if !is_run {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let v = serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let prov = v
            .get("provenance")
            .ok_or_else(|| format!("{}: no provenance", path.display()))?;
        let workload = prov
            .get("workload")
            .and_then(Value::as_str)
            .unwrap_or_default()
            .to_string();
        let seed = prov.get("seed").and_then(Value::as_u64).unwrap_or_default();
        let metrics = v
            .get("metrics")
            .and_then(Value::as_object)
            .map(|m| {
                m.iter()
                    .filter_map(|(k, s)| Some((k.clone(), s.get("value")?.as_f64()?)))
                    .collect()
            })
            .unwrap_or_default();
        out.entry(workload).or_default().push((seed, metrics));
    }
    Ok(out)
}

/// Quartile spread as a share of the median.
fn spread(s: &Stat) -> f64 {
    if s.value == 0.0 {
        0.0
    } else {
        ((s.p75 - s.p25) / s.value).abs()
    }
}

/// Is `b` better than `a` for this metric?
fn beats(d: &Def, b: f64, a: f64) -> bool {
    match d.better {
        Better::Higher => b > a,
        Better::Lower => b < a,
    }
}

/// The verdict for one metric given both sides' values and the seed pairs.
fn verdict(d: &Def, a: &[f64], b: &[f64], pairs: &[(f64, f64)]) -> String {
    let (sa, sb) = (Stat::of(a), Stat::of(b));
    let bound = d.bound.unwrap_or(0.0);
    let worse_share = match d.better {
        Better::Higher => (sa.value - sb.value) / sa.value,
        Better::Lower => (sb.value - sa.value) / sa.value,
    };
    let all_better = b.iter().all(|&x| a.iter().all(|&y| beats(d, x, y)));
    let wide = spread(&sa).max(spread(&sb));
    if wide > bound && !all_better {
        return format!(
            "unresolved (spread {:.1}% > bound {:.1}%)",
            100.0 * wide,
            100.0 * bound
        );
    }
    if worse_share > bound {
        return "worse".into();
    }
    let wins = pairs.iter().filter(|(x, y)| beats(d, *y, *x)).count();
    let paired_win = !pairs.is_empty() && wins * 10 >= pairs.len() * 9;
    if all_better || (-worse_share > spread(&sa) && paired_win) {
        return "better".into();
    }
    "within-bound".into()
}

/// Compare the run sets in `dir_a` (the base) and `dir_b`.
pub fn run(dir_a: &str, dir_b: &str) -> Result<bool, String> {
    let (a, b) = (load(dir_a)?, load(dir_b)?);
    let mut ok = true;
    println!(
        "{:<10} {:<12} {:>40} {:>40} {:>8}  verdict",
        "workload", "metric", "A median [p25, p75] (n)", "B median [p25, p75] (n)", "change"
    );
    for workload in crate::WORKLOADS {
        let (Some(ra), Some(rb)) = (a.get(workload), b.get(workload)) else {
            continue;
        };
        for d in END_TO_END {
            let values = |runs: &Vec<(u64, BTreeMap<String, f64>)>| -> Vec<(u64, f64)> {
                runs.iter()
                    .filter_map(|(seed, m)| Some((*seed, *m.get(d.name)?)))
                    .collect()
            };
            let (va, vb) = (values(ra), values(rb));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let xa: Vec<f64> = va.iter().map(|p| p.1).collect();
            let xb: Vec<f64> = vb.iter().map(|p| p.1).collect();
            let pairs: Vec<(f64, f64)> = va
                .iter()
                .filter_map(|&(seed, x)| vb.iter().find(|p| p.0 == seed).map(|p| (x, p.1)))
                .collect();
            let mut v = verdict(d, &xa, &xb, &pairs);
            if d.deterministic {
                let repeats = |xs: &[f64]| xs.iter().all(|x| x.to_bits() == xs[0].to_bits());
                let equal = repeats(&xa) && repeats(&xb);
                v = if equal {
                    format!("{v}, bit-equal within each side")
                } else {
                    format!("{v}, NOT bit-equal within a side")
                };
                ok &= equal;
            }
            ok &= !v.starts_with("worse");
            let (sa, sb) = (Stat::of(&xa), Stat::of(&xb));
            let cell = |s: &Stat| format!("{:.5} [{:.5}, {:.5}] ({})", s.value, s.p25, s.p75, s.n);
            println!(
                "{:<10} {:<12} {:>40} {:>40} {:>+7.2}%  {v}",
                workload,
                d.name,
                cell(&sa),
                cell(&sb),
                100.0 * (sb.value / sa.value - 1.0)
            );
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(name: &str) -> &'static Def {
        crate::metrics::def(name).expect("metric")
    }

    #[test]
    fn verdicts_follow_bounds_and_spread() {
        let d = def("sim_wall_ms"); // lower is better, bound 20%
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let same = [100.2, 100.8, 99.2, 100.1, 99.9];
        assert_eq!(verdict(d, &a, &same, &[]), "within-bound");
        let slow = [130.0, 131.0, 129.0, 130.5, 129.5];
        assert_eq!(verdict(d, &a, &slow, &[]), "worse");
        let fast = [70.0, 71.0, 69.0, 70.5, 69.5];
        assert_eq!(verdict(d, &a, &fast, &[]), "better");
        let noisy = [60.0, 100.0, 140.0, 80.0, 120.0];
        assert!(verdict(d, &a, &noisy, &[]).starts_with("unresolved"));
        let g = def("host_gbps"); // higher is better
        assert_eq!(verdict(g, &a, &slow, &[]), "better");
    }

    #[test]
    fn deterministic_metrics_are_judged_by_direction_and_bound() {
        let d = def("sim_gbps"); // higher is better, bound 1%
        let a = [4.5; 10];
        let pairs = |b: f64| -> Vec<(f64, f64)> { a.iter().map(|&x| (x, b)).collect() };
        assert_eq!(verdict(d, &a, &[4.5; 10], &pairs(4.5)), "within-bound");
        assert_eq!(verdict(d, &a, &[4.6; 10], &pairs(4.6)), "better");
        assert_eq!(verdict(d, &a, &[4.48; 10], &pairs(4.48)), "within-bound");
        assert_eq!(verdict(d, &a, &[4.4; 10], &pairs(4.4)), "worse");
    }
}
