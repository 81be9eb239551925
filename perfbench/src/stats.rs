//! Order statistics over latency samples, and the metric list a run
//! reports.

use std::time::Duration;

/// Consecutive parts a measured window's latencies are cut into; see
/// [`Samples::put_end_to_end`].
const PARTS: usize = 9;

/// Latency samples in nanoseconds (a sample saturates at about 4.3 s).
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<u32>);

impl Samples {
    /// An empty sample set with room for `n` samples.
    pub fn with_capacity(n: usize) -> Self {
        Samples(Vec::with_capacity(n))
    }

    /// Records one duration.
    pub fn push(&mut self, d: Duration) {
        self.0.push(u32::try_from(d.as_nanos()).unwrap_or(u32::MAX));
    }

    /// Drops every sample, keeping the room.
    pub fn clear(&mut self) {
        self.0.clear();
    }

    /// Appends every sample of `other`.
    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// The mean in microseconds; 0 when empty.
    pub fn mean_us(&self) -> f64 {
        let sum: f64 = self.0.iter().map(|&ns| f64::from(ns)).sum();
        ratio(sum, self.0.len() as f64) / 1e3
    }

    /// The `q`-quantile (nearest rank) in microseconds; 0 when empty.
    pub fn quantile_us(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut v = self.0.clone();
        v.sort_unstable();
        let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
        v[rank - 1] as f64 / 1e3
    }

    /// The end-to-end throughput and latency metrics of a measured window
    /// whose operations took these samples, in completion order, and which
    /// lasted `elapsed` seconds: operations per second over the whole
    /// window, and for each percentile the median over [`PARTS`]
    /// consecutive parts of equal count of each part's own percentile, so
    /// a stall of the host confined to a part or two barely moves it. The
    /// sample count printed is the whole window's.
    pub fn put_end_to_end(&self, m: &mut Metrics, elapsed: f64) {
        let n = self.len();
        let parts: Vec<Samples> = self
            .0
            .chunks(n.div_ceil(PARTS).max(1))
            .map(|c| Samples(c.to_vec()))
            .collect();
        let per = |q: f64| median(&parts.iter().map(|s| s.quantile_us(q)).collect::<Vec<_>>());
        m.put("ops_per_s", ratio(n as f64, elapsed), "1/s");
        m.put_n("latency_p50_us", per(0.5), "us", n);
        m.put_n("latency_p99_us", per(0.99), "us", n);
    }
}

/// The median of `values` (mean of the middle pair for even counts); 0
/// when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count behind a percentile, printed next to it.
    pub samples: Option<usize>,
}

/// The metrics of one run, in report order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
            samples: None,
        });
    }

    pub fn put_n(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
            samples: Some(samples),
        });
    }
}
