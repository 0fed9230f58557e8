//! The metric table — the single source of every metric's name, unit,
//! direction and regression bound. `BENCHMARK.json` at the repository root
//! must list exactly these (a test checks it).

use crate::stats::Stat;
use std::collections::BTreeMap;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better (throughputs, ratios of useful work).
    Higher,
    /// Smaller values are better (times, counts of waste).
    Lower,
}

impl Better {
    /// The `better` field of `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric definition.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    /// Stable name.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// End-to-end metrics only: the share of the parent's median by which
    /// the metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
    /// Simulated-clock metrics repeat bit for bit for a given seed; wall
    /// metrics do not.
    pub deterministic: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64, det: bool) -> Def {
    Def {
        name,
        unit,
        better,
        bound: Some(bound),
        deterministic: det,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        name,
        unit,
        better,
        bound: None,
        deterministic: false,
    }
}

/// A per-layer metric read off the simulated clock or a count.
const fn det(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        name,
        unit,
        better,
        bound: None,
        deterministic: true,
    }
}

use Better::{Higher as H, Lower as L};

/// End-to-end metrics: every workload reports every one of them. The wall
/// bounds rest on the spreads that ten-seed sets of one commit showed on a
/// shared 2-vCPU host; README.md ("Noise") gives them.
pub const END_TO_END: &[Def] = &[
    e2e("host_gbps", "GB/s", H, 0.20, false),
    e2e("sim_gbps", "GB/s", H, 0.01, true),
    e2e("sim_wall_ms", "ms", L, 0.20, false),
    e2e("setup_s", "s", L, 0.25, false),
    e2e("peak_rss_mb", "MB", L, 0.10, false),
];

/// Per-kernel layer metrics of the three stages of the paper's plan and
/// the two C2R passes of a coprime shape.
macro_rules! kernel_layers {
    ($($k:literal),*) => {[$(
        det(concat!("kernel.", $k, ".sim_us"), "us", L),
        det(concat!("kernel.", $k, ".sim_roofline_frac"), "fraction", H),
        det(concat!("kernel.", $k, ".sim_dram_mb"), "MB", L),
        det(concat!("kernel.", $k, ".coalescing"), "fraction", H),
        det(concat!("kernel.", $k, ".claim_retries"), "count", L),
        det(concat!("kernel.", $k, ".conflicts"), "count", L),
        det(concat!("kernel.", $k, ".warp_steps"), "count", L),
    )*]};
}

const KERNEL_LAYERS: [Def; 35] =
    kernel_layers!("s1_100", "s2_0010", "s3_0100", "c2r_rows", "c2r_cols");

const OTHER_LAYERS: [Def; 55] = [
    layer("scheme.decide_us", "us", L),
    layer("autotune.wall_s", "s", L),
    det("autotune.candidates", "count", L),
    layer("autotune.ms_per_candidate", "ms", L),
    det("autotune.chosen_gbps", "GB/s", H),
    layer("full.host_ms", "ms", L),
    layer("stages.host_ms.s1_100", "ms", L),
    layer("stages.host_ms.s2_0010", "ms", L),
    layer("stages.host_ms.s3_0100", "ms", L),
    layer("stages.host_seq_ms", "ms", L),
    layer("coprime.host_ms", "ms", L),
    layer("coprime.host_seq_ms", "ms", L),
    layer("c2r.host_ms", "ms", L),
    layer("rayon.scaling_x", "x", H),
    layer("rayon.threads", "count", H),
    layer("sim.alloc_upload_ms", "ms", L),
    layer("sim.download_ms", "ms", L),
    layer("kernel.s1_100.wall_ms", "ms", L),
    layer("kernel.s2_0010.wall_ms", "ms", L),
    layer("kernel.s3_0100.wall_ms", "ms", L),
    layer("c2r.device_ms", "ms", L),
    layer("exec.parallel_gain_x.s1_100", "x", H),
    layer("exec.parallel_gain_x.s2_0010", "x", H),
    layer("exec.parallel_gain_x.s3_0100", "x", H),
    layer("exec.parallel_gain_x.c2r", "x", H),
    layer("exec.parallel_gain_x.serve", "x", H),
    layer("exec.threads", "count", H),
    layer("recover.checksum_ms", "ms", L),
    layer("recover.verify_ms", "ms", L),
    det("recover.non_primary", "count", L),
    layer("fleet.submit_us_p50", "us", L),
    layer("fleet.round_ms_p50", "ms", L),
    det("serve.full_execs", "count", L),
    layer("serve.ms_per_full_exec", "ms", L),
    det("serve.cache_hit_rate", "fraction", H),
    det("serve.batch_occupancy", "requests", H),
    det("serve.queue_wait_us_p99", "us", L),
    det("serve.service_us_p50", "us", L),
    det("serve.backpressure_retries", "count", L),
    det("serve.conservative", "count", L),
    det("serve.host_shed", "count", L),
    layer("serve.req_per_s", "req/s", H),
    det("serve.sim_latency_us_p50", "us", L),
    det("serve.sim_latency_us_p99", "us", L),
    det("serve.degraded_frac", "fraction", L),
    layer("stream.wall_ms.fault_free", "ms", L),
    layer("stream.wall_ms.chaos", "ms", L),
    det("stream.chunks", "count", L),
    det("stream.roofline_gbps", "GB/s", H),
    det("stream.chunk_retries", "count", L),
    det("stream.degradations", "count", L),
    det("stream.penalty_us", "us", L),
    det("stream.overlap_efficiency", "ratio", H),
    det("stream.degraded_frac", "fraction", L),
    layer("trace.overhead_pct", "%", L),
];

/// Per-layer metrics, in `BENCHMARK.json` order. A workload that never
/// reaches a layer reports 0 for it.
pub fn per_layer() -> impl Iterator<Item = &'static Def> {
    OTHER_LAYERS.iter().chain(KERNEL_LAYERS.iter())
}

/// Look up a definition by name.
pub fn def(name: &str) -> Option<&'static Def> {
    END_TO_END
        .iter()
        .chain(per_layer())
        .find(|d| d.name == name)
}

/// Metric values collected by one run, keyed by name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, Stat>);

impl Metrics {
    /// Record `name`.
    ///
    /// # Panics
    /// When `name` is not in the table, or the value is not finite — both
    /// are bugs that would otherwise print an unusable result.
    pub fn set(&mut self, name: &'static str, stat: Stat) {
        assert!(def(name).is_some(), "unknown metric {name}");
        assert!(
            stat.value.is_finite() && stat.p25.is_finite() && stat.p75.is_finite(),
            "{name}: non-finite {stat:?}"
        );
        self.0.insert(name, stat);
    }

    /// Record a deterministic value or single reading.
    pub fn exact(&mut self, name: &'static str, value: f64) {
        self.set(name, Stat::exact(value));
    }

    /// Record the median and quartiles of `samples`.
    pub fn samples(&mut self, name: &'static str, samples: &[f64]) {
        self.set(name, Stat::of(samples));
    }

    /// The recorded stat.
    pub fn get(&self, name: &str) -> Option<Stat> {
        self.0.get(name).copied()
    }

    /// Every definition of `defs` with its recorded stat; unrecorded
    /// metrics read 0 (the workload never reached the layer).
    pub fn resolve<'a>(
        &'a self,
        defs: impl Iterator<Item = &'static Def> + 'a,
    ) -> impl Iterator<Item = (&'static Def, Stat)> + 'a {
        defs.map(|d| {
            (
                d,
                self.get(d.name).unwrap_or(Stat {
                    value: 0.0,
                    n: 0,
                    p25: 0.0,
                    p75: 0.0,
                }),
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_well_formed() {
        let all: Vec<&Def> = END_TO_END.iter().chain(per_layer()).collect();
        let names: BTreeSet<&str> = all.iter().map(|d| d.name).collect();
        assert_eq!(names.len(), all.len(), "duplicate metric name");
        assert!(all.len() <= 16 + 128);
        for d in all {
            assert!(d.name.len() <= 64 && d.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d.unit.len() <= 16);
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END
            .iter()
            .all(|d| d.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        let setup = END_TO_END
            .iter()
            .find(|d| d.name == "setup_s")
            .expect("setup_s");
        assert!(
            END_TO_END.iter().all(|d| d.bound <= setup.bound),
            "setup_s has the largest bound"
        );
    }
}
