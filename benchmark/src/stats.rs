//! Order statistics of wall samples.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method) so that numbers computed here and numbers
//! computed from the printed results by a script agree.

/// A metric value with its sample count and quartiles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stat {
    /// The median of the samples, or the exact value of a deterministic
    /// metric.
    pub value: f64,
    /// Number of samples behind `value`.
    pub n: usize,
    /// First quartile.
    pub p25: f64,
    /// Third quartile.
    pub p75: f64,
}

impl Stat {
    /// A deterministic (or single-sample) value.
    pub fn exact(value: f64) -> Self {
        Self {
            value,
            n: 1,
            p25: value,
            p75: value,
        }
    }

    /// Median and quartiles of `samples`.
    ///
    /// # Panics
    /// On an empty sample set or a NaN sample: both are bugs in the caller.
    pub fn of(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "a metric needs at least one sample");
        let mut d = samples.to_vec();
        d.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
        if d.len() == 1 {
            return Self::exact(d[0]);
        }
        let [p25, _, p75] = quartiles(&d);
        Self {
            value: median(&d),
            n: d.len(),
            p25,
            p75,
        }
    }

    /// Geometric mean of per-shape stats: values and quartiles are each
    /// combined geometrically, sample counts add up.
    pub fn geomean(parts: &[Stat]) -> Self {
        let g = |f: fn(&Stat) -> f64| geomean(&parts.iter().map(f).collect::<Vec<_>>());
        Self {
            value: g(|s| s.value),
            n: parts.iter().map(|s| s.n).sum(),
            p25: g(|s| s.p25),
            p75: g(|s| s.p75),
        }
    }
}

/// Median of sorted data.
pub fn median(sorted: &[f64]) -> f64 {
    let m = sorted.len();
    if m % 2 == 1 {
        sorted[m / 2]
    } else {
        (sorted[m / 2 - 1] + sorted[m / 2]) / 2.0
    }
}

/// The three cut points of `statistics.quantiles(sorted, n=4)`.
/// `sorted` needs at least two elements.
pub fn quartiles(sorted: &[f64]) -> [f64; 3] {
    let ld = sorted.len() as i64;
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1i64..) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m - j * 4) as f64;
        let (lo, hi) = (sorted[(j - 1) as usize], sorted[j as usize]);
        *slot = (lo * (4.0 - delta) + hi * delta) / 4.0;
    }
    out
}

/// Geometric mean; 0 when any part is 0 (a layer one shape never reaches).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() || xs.iter().any(|&x| x <= 0.0) {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// `q`-quantile by nearest rank (deterministic tail percentiles of
/// simulated latencies, where interpolation would invent values).
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let d: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&d), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Stat::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.p25, s.value, s.p75, s.n), (1.0, 2.0, 3.0, 3));
    }

    #[test]
    fn geomean_and_ranks() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[2.0, 0.0]), 0.0);
        let d: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&d, 0.99), 99.0);
        assert_eq!(nearest_rank(&d, 0.5), 50.0);
    }
}
