//! Host facts recorded with every result: what machine, how many threads,
//! how noisy the run was, and how much memory it peaked at.

use serde::Value;

/// `(busy, steal)` jiffies from the aggregate `cpu` line of `/proc/stat`;
/// `None` where the file is unavailable.
pub fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let f: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|x| x.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal ...
    let (idle, steal) = (f.get(3)? + f.get(4).unwrap_or(&0), *f.get(7)?);
    Some((f.iter().take(8).sum::<u64>() - idle, steal))
}

/// Wall time with the hypervisor's steal taken out: what an interval would
/// have taken on an uncontended machine. On a shared host steal comes and
/// goes by the minute (0.2% to 59% of busy time between consecutive runs on
/// the machine the benchmark was defined on) and dominates run-to-run
/// spread. Taking it out lets runs on a contended host compare with runs on
/// a quiet one.
///
/// The correction scales wall time by the share of busy CPU time that was
/// not stolen over the interval: a single-threaded interval loses exactly
/// what was stolen from its CPU, an interval that keeps every CPU busy
/// loses the average. Steal is counted in 10 ms jiffies, so intervals should
/// last tens of milliseconds or more.
pub struct Stopwatch {
    start: std::time::Instant,
    jiffies: Option<(u64, u64)>,
}

impl Stopwatch {
    /// Start timing.
    pub fn start() -> Self {
        Self {
            jiffies: cpu_jiffies(),
            start: std::time::Instant::now(),
        }
    }

    /// Wall milliseconds since start, with steal taken out.
    pub fn ms(&self) -> f64 {
        let wall = self.start.elapsed().as_secs_f64() * 1e3;
        // Capped against jiffy rounding on a short interval.
        let stolen = (steal_pct(self.jiffies, cpu_jiffies()) / 100.0).min(0.9);
        wall * (1.0 - stolen)
    }
}

/// Steal time as a percentage of busy time between two readings: the
/// share of CPU the hypervisor took from this machine while it had work.
pub fn steal_pct(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((b0, s0)), Some((b1, s1))) if b1 > b0 => {
            100.0 * s1.saturating_sub(s0) as f64 / (b1 - b0) as f64
        }
        _ => 0.0,
    }
}

/// Peak resident set (`VmHWM`) in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib * 1024.0 / 1e6)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Size in bytes of cache `index` of CPU 0 (sysfs `index2` is L2, `index3`
/// is L3 on x86), 0 where unknown.
fn cache_bytes(index: u32) -> u64 {
    let path = format!("/sys/devices/system/cpu/cpu0/cache/index{index}/size");
    let Ok(text) = std::fs::read_to_string(path) else {
        return 0;
    };
    let t = text.trim();
    let (num, mult) = match t.chars().last() {
        Some('K') => (&t[..t.len() - 1], 1024),
        Some('M') => (&t[..t.len() - 1], 1024 * 1024),
        _ => (t, 1),
    };
    num.parse::<u64>().map_or(0, |n| n * mult)
}

/// Provenance of one run. `extra` carries the workload's working-set sizes
/// and anything else the workload wants on record.
pub fn provenance(
    workload: &str,
    seed: u64,
    seconds: f64,
    steal: f64,
    extra: Vec<(String, Value)>,
) -> Value {
    let env = |k: &str| std::env::var(k).map_or(Value::Null, Value::Str);
    let mut entries = vec![
        ("workload".to_string(), Value::Str(workload.into())),
        ("seed".into(), Value::UInt(seed)),
        ("seconds".into(), Value::Float(seconds)),
        ("git_rev".into(), Value::Str(ipt_obs::current_git_rev())),
        ("cpu_model".into(), Value::Str(cpu_model())),
        (
            "nproc".into(),
            Value::UInt(crate::inputs::host_threads() as u64),
        ),
        (
            "engine_threads".into(),
            Value::UInt(gpu_sim::EngineMode::parallel_auto().resolved_threads() as u64),
        ),
        (
            "rayon_threads".into(),
            Value::UInt(rayon::current_num_threads() as u64),
        ),
        ("RAYON_NUM_THREADS".into(), env("RAYON_NUM_THREADS")),
        ("l2_bytes".into(), Value::UInt(cache_bytes(2))),
        ("l3_bytes".into(), Value::UInt(cache_bytes(3))),
        ("steal_pct".into(), Value::Float(steal)),
    ];
    entries.extend(extra);
    Value::Obj(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_share_of_busy_time() {
        assert_eq!(steal_pct(Some((100, 10)), Some((300, 60))), 25.0);
        assert_eq!(steal_pct(None, Some((1, 1))), 0.0);
        assert_eq!(steal_pct(Some((5, 0)), Some((5, 0))), 0.0);
    }
}
