//! Monotonic counters and log-scaled histograms, snapshotable to JSON.
//!
//! The registry is deliberately simple: counters are `u64` adds,
//! histograms bucket by `⌊log₂ v⌋ + 1` (bucket 0 holds zeros), which is
//! the right resolution for the heavy-tailed quantities the experiments
//! care about — per-link load, latencies, per-round message counts.
//! Metrics are built directly by their producers; the traffic views of a
//! recorded event stream come from `cc-lens`'s `CommLedger` fold, and the
//! phase views from `cc-profile`.

use crate::json::Json;
use std::collections::BTreeMap;

/// Number of histogram buckets: zeros + one per possible `⌊log₂ v⌋`.
const BUCKETS: usize = 65;

/// A histogram over `u64` values with logarithmic buckets.
#[derive(Clone, Debug)]
pub struct LogHistogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bucket index for a value: 0 for zero, else `⌊log₂ v⌋ + 1`.
    fn bucket(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            (64 - v.leading_zeros()) as usize
        }
    }

    /// Lower bound of bucket `i` (inclusive).
    fn bucket_lo(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            1u64 << (i - 1)
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, v: u64) {
        self.observe_n(v, 1);
    }

    /// Records `times` observations of `v` at once: the same histogram
    /// as `times` calls of [`observe`](LogHistogram::observe) (the sum
    /// saturates either way). `times == 0` records nothing.
    pub fn observe_n(&mut self, v: u64, times: u64) {
        if times == 0 {
            return;
        }
        self.buckets[Self::bucket(v)] += times;
        self.count += times;
        self.sum = self.sum.saturating_add(v.saturating_mul(times));
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether nothing has been observed.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Folds `other` into this histogram, exactly: bucket counts and the
    /// observation count add, the sum saturates (as in
    /// [`LogHistogram::observe`]), and min/max combine. Merging a ring of
    /// per-slot histograms therefore reproduces, bit for bit, the
    /// histogram that observing the same values into one instance would
    /// have built — the property the windowed-rollup consistency tests in
    /// `cc-obs` pin.
    pub fn merge(&mut self, other: &LogHistogram) {
        if other.count == 0 {
            return;
        }
        for (b, ob) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += ob;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Resets to the empty histogram without touching the (fixed-size)
    /// bucket storage — the cheap way to recycle a ring slot.
    pub fn reset(&mut self) {
        *self = LogHistogram::default();
    }

    /// An immutable snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count,
            sum: self.sum,
            min: if self.count == 0 { 0 } else { self.min },
            max: self.max,
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter(|&(_, &c)| c > 0)
                .map(|(i, &c)| (Self::bucket_lo(i), c))
                .collect(),
        }
    }
}

/// A serializable histogram snapshot: non-empty buckets as
/// `(lower_bound, count)` pairs plus summary statistics.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Observation count.
    pub count: u64,
    /// Observation sum (saturating).
    pub sum: u64,
    /// Minimum observation (0 when empty).
    pub min: u64,
    /// Maximum observation.
    pub max: u64,
    /// `(bucket lower bound, count)` for every non-empty bucket,
    /// ascending.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimated `q`-quantile (`0.0 ..= 1.0`) from the log-scaled digest.
    ///
    /// Walks the cumulative bucket counts to the bucket containing the
    /// quantile rank and interpolates linearly within the bucket's
    /// `[lo, 2·lo)` range, clamped to the observed `min`/`max` — so the
    /// estimate is within one power of two of the true value, which is
    /// the resolution the digest retains by design. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // The extremes are recorded exactly; don't let within-bucket
        // interpolation blur them.
        if q == 0.0 {
            return self.min;
        }
        if q == 1.0 {
            return self.max;
        }
        // Rank of the target observation, 1-based.
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for &(lo, c) in &self.buckets {
            if seen + c >= rank {
                // Interpolate within [lo, hi): hi is 2·lo (or lo+1 for
                // the zero bucket), never past the recorded max.
                let hi = if lo == 0 { 1 } else { lo.saturating_mul(2) };
                let frac = (rank - seen) as f64 / c as f64;
                let est = lo as f64 + frac * (hi.saturating_sub(lo)) as f64;
                return (est as u64).clamp(self.min, self.max);
            }
            seen += c;
        }
        self.max
    }

    /// JSON object form.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("count", Json::UInt(self.count)),
            ("sum", Json::UInt(self.sum)),
            ("min", Json::UInt(self.min)),
            ("max", Json::UInt(self.max)),
            (
                "buckets",
                Json::Arr(
                    self.buckets
                        .iter()
                        .map(|&(lo, c)| Json::Arr(vec![Json::UInt(lo), Json::UInt(c)]))
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses the object form.
    ///
    /// # Errors
    ///
    /// Names the missing/ill-typed field.
    pub fn from_json(v: &Json) -> Result<HistogramSnapshot, String> {
        let field = |name: &str| {
            v.get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("histogram: missing u64 field `{name}`"))
        };
        let buckets = v
            .get("buckets")
            .and_then(Json::as_arr)
            .ok_or("histogram: missing `buckets` array")?
            .iter()
            .map(|pair| {
                let p = pair.as_arr().filter(|p| p.len() == 2);
                match p {
                    Some(p) => match (p[0].as_u64(), p[1].as_u64()) {
                        (Some(lo), Some(c)) => Ok((lo, c)),
                        _ => Err("histogram: non-integer bucket".to_string()),
                    },
                    None => Err("histogram: malformed bucket pair".to_string()),
                }
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(HistogramSnapshot {
            count: field("count")?,
            sum: field("sum")?,
            min: field("min")?,
            max: field("max")?,
            buckets,
        })
    }
}

/// A named collection of counters and histograms.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, LogHistogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `v` to the named monotonic counter (created at 0).
    pub fn counter_add(&mut self, name: &str, v: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += v;
    }

    /// Records an observation into the named histogram (created empty).
    pub fn observe(&mut self, name: &str, v: u64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .observe(v);
    }

    /// Current value of a counter.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// An immutable, serializable snapshot of everything.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.iter().map(|(k, &v)| (k.clone(), v)).collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, h)| (k.clone(), h.snapshot()))
                .collect(),
        }
    }
}

/// A serializable registry snapshot.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Histogram snapshots, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// JSON object form.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            (
                "counters",
                Json::Obj(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::UInt(*v)))
                        .collect(),
                ),
            ),
            (
                "histograms",
                Json::Obj(
                    self.histograms
                        .iter()
                        .map(|(k, h)| (k.clone(), h.to_json()))
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses the object form.
    ///
    /// # Errors
    ///
    /// Names the offending field.
    pub fn from_json(v: &Json) -> Result<MetricsSnapshot, String> {
        let counters = match v.get("counters") {
            Some(Json::Obj(pairs)) => pairs
                .iter()
                .map(|(k, v)| {
                    v.as_u64()
                        .map(|u| (k.clone(), u))
                        .ok_or_else(|| format!("metrics: counter `{k}` is not a u64"))
                })
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("metrics: missing `counters` object".into()),
        };
        let histograms = match v.get("histograms") {
            Some(Json::Obj(pairs)) => pairs
                .iter()
                .map(|(k, v)| HistogramSnapshot::from_json(v).map(|h| (k.clone(), h)))
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("metrics: missing `histograms` object".into()),
        };
        Ok(MetricsSnapshot {
            counters,
            histograms,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_log_scaled() {
        let mut h = LogHistogram::new();
        for v in [0, 1, 2, 3, 4, 1024, u64::MAX] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 7);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, u64::MAX);
        // 0 → bucket 0; 1 → [1,2); 2,3 → [2,4); 4 → [4,8); 1024 → [1024,..);
        // u64::MAX → top bucket.
        let lows: Vec<u64> = s.buckets.iter().map(|&(lo, _)| lo).collect();
        assert_eq!(lows, vec![0, 1, 2, 4, 1024, 1 << 63]);
        let counts: Vec<u64> = s.buckets.iter().map(|&(_, c)| c).collect();
        assert_eq!(counts, vec![1, 1, 2, 1, 1, 1]);
    }

    #[test]
    fn observe_n_is_n_observations() {
        let (mut one_by_one, mut at_once) = (LogHistogram::new(), LogHistogram::new());
        for (v, times) in [(5, 3), (0, 2), (u64::MAX / 2, 3), (u64::MAX, 0)] {
            for _ in 0..times {
                one_by_one.observe(v);
            }
            at_once.observe_n(v, times);
        }
        assert_eq!(at_once.snapshot(), one_by_one.snapshot());
        assert_eq!(at_once.snapshot().sum, u64::MAX, "the sum saturates");
        assert_eq!(
            at_once.snapshot().max,
            u64::MAX / 2,
            "a zero-count value is unseen"
        );
    }

    #[test]
    fn quantiles_track_the_log_digest_resolution() {
        let mut h = LogHistogram::new();
        // 100 observations at 100ns, 10 at ~10µs, 1 at ~1ms.
        for _ in 0..100 {
            h.observe(100);
        }
        for _ in 0..10 {
            h.observe(10_000);
        }
        h.observe(1_000_000);
        let s = h.snapshot();
        let p50 = s.quantile(0.50);
        assert!((64..256).contains(&p50), "p50 within one bucket: {p50}");
        let p99 = s.quantile(0.99);
        assert!(
            (8_192..32_768).contains(&p99),
            "p99 in the 10µs bucket: {p99}"
        );
        assert_eq!(s.quantile(1.0), s.max);
        assert_eq!(s.quantile(0.0), s.min);
        assert_eq!(HistogramSnapshot::default().quantile(0.5), 0);
    }

    #[test]
    fn quantile_of_uniform_point_mass_is_that_point() {
        let mut h = LogHistogram::new();
        for _ in 0..7 {
            h.observe(0);
        }
        let s = h.snapshot();
        assert_eq!(s.quantile(0.5), 0, "zero-duration spans aggregate as 0");
        assert_eq!(s.quantile(0.99), 0);
    }

    /// The quantile estimator's boundary behaviour, pinned case by case:
    /// an empty digest answers 0 for every `q`, `q = 0` is the recorded
    /// minimum, `q = 1` the recorded maximum, out-of-range `q` clamps,
    /// and a single observation answers itself at every rank.
    #[test]
    fn quantile_edge_cases() {
        let empty = LogHistogram::new().snapshot();
        for q in [0.0, 0.5, 1.0, -3.0, 7.0] {
            assert_eq!(empty.quantile(q), 0, "empty digest answers 0 at q={q}");
        }

        let mut h = LogHistogram::new();
        for v in [3, 90, 700] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.quantile(0.0), 3, "q=0 is the recorded min");
        assert_eq!(s.quantile(1.0), 700, "q=1 is the recorded max");
        assert_eq!(s.quantile(-0.5), s.quantile(0.0), "q clamps below 0");
        assert_eq!(s.quantile(2.0), s.quantile(1.0), "q clamps above 1");

        let mut single = LogHistogram::new();
        single.observe(41);
        let s = single.snapshot();
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(s.quantile(q), 41, "a lone observation is every quantile");
        }
    }

    #[test]
    fn empty_snapshot_json_round_trip() {
        let empty = LogHistogram::new().snapshot();
        let parsed = HistogramSnapshot::from_json(&empty.to_json()).unwrap();
        assert_eq!(parsed, empty);
        assert_eq!(parsed.count, 0);
        assert!(parsed.buckets.is_empty());
        assert_eq!(parsed.quantile(0.5), 0);
    }

    #[test]
    fn merge_equals_observing_the_union() {
        let values_a = [0u64, 1, 7, 129, 1 << 40];
        let values_b = [2u64, 7, u64::MAX, 0];
        let mut direct = LogHistogram::new();
        for v in values_a.iter().chain(values_b.iter()) {
            direct.observe(*v);
        }
        let (mut a, mut b) = (LogHistogram::new(), LogHistogram::new());
        values_a.iter().for_each(|&v| a.observe(v));
        values_b.iter().for_each(|&v| b.observe(v));
        a.merge(&b);
        assert_eq!(a.snapshot(), direct.snapshot(), "merge must be exact");
        // Merging an empty histogram is the identity, both ways.
        a.merge(&LogHistogram::new());
        assert_eq!(a.snapshot(), direct.snapshot());
        let mut empty = LogHistogram::new();
        empty.merge(&direct);
        assert_eq!(empty.snapshot(), direct.snapshot());
        assert!(!empty.is_empty());
        empty.reset();
        assert!(empty.is_empty());
        assert_eq!(empty.snapshot(), LogHistogram::new().snapshot());
    }

    #[test]
    fn empty_histogram_snapshot() {
        let s = LogHistogram::new().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.min, 0);
        assert_eq!(s.mean(), 0.0);
        assert!(s.buckets.is_empty());
    }

    #[test]
    fn registry_counters_and_round_trip() {
        let mut reg = MetricsRegistry::new();
        reg.counter_add("messages", 10);
        reg.counter_add("messages", 5);
        reg.observe("link_words", 7);
        reg.observe("link_words", 9);
        assert_eq!(reg.counter("messages"), 15);
        assert_eq!(reg.counter("absent"), 0);
        let snap = reg.snapshot();
        assert_eq!(snap.histograms[0].1.count, 2);
        let parsed = MetricsSnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(parsed, snap);
    }
}
