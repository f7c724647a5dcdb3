//! Sliding-window counters and ring-buffered histogram digests.
//!
//! A window is a ring of fixed-width time slots. Each slot carries the
//! absolute slot index it was last written in, so reads need no mutation:
//! a slot contributes to the window iff its stamp lies within the last
//! `slots` slot indices of the reading time. Writes lazily recycle a slot
//! the first time its stamp goes stale. Everything is integer arithmetic
//! on nanosecond readings from an injectable [`Clock`](crate::Clock) —
//! no background threads, no interior mutability, fully deterministic.
//!
//! Alongside every ring the structures keep an exact *cumulative* twin
//! (a plain counter / [`LogHistogram`]). Because windowed buckets are
//! built by the same `observe` arithmetic and merged with the exact
//! [`LogHistogram::merge`], a window spanning the whole run reproduces
//! the cumulative snapshot bit for bit — the rollup-consistency property
//! the tests at the bottom of this module (and the serve integration
//! tests) enforce.

use cc_trace::{HistogramSnapshot, Json, LogHistogram, MetricsRegistry, MetricsSnapshot};
use std::collections::BTreeMap;

/// The shape of one sliding window: `slots` ring slots of `slot_nanos`
/// each, covering `slot_nanos * slots` of history.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WindowSpec {
    /// Width of one ring slot, nanoseconds.
    pub slot_nanos: u64,
    /// Number of ring slots.
    pub slots: usize,
}

impl WindowSpec {
    /// A window of `slots` slots, `slot_nanos` wide each.
    ///
    /// # Panics
    ///
    /// Panics on a zero slot width or slot count.
    pub const fn new(slot_nanos: u64, slots: usize) -> WindowSpec {
        assert!(slot_nanos > 0 && slots > 0, "window slots must be nonzero");
        WindowSpec { slot_nanos, slots }
    }

    /// Total history the window covers, nanoseconds.
    pub fn span_nanos(&self) -> u64 {
        self.slot_nanos * self.slots as u64
    }

    /// Human label: the covered span in seconds (`"1s"`, `"10s"`, …) or
    /// milliseconds below one second.
    pub fn label(&self) -> String {
        let span = self.span_nanos();
        if span >= 1_000_000_000 && span.is_multiple_of(1_000_000_000) {
            format!("{}s", span / 1_000_000_000)
        } else {
            format!("{}ms", span / 1_000_000)
        }
    }

    /// The standard dashboard windows: 1 s (10 × 100 ms), 10 s (10 × 1 s),
    /// and 60 s (12 × 5 s).
    pub fn standard() -> Vec<WindowSpec> {
        vec![
            WindowSpec::new(100_000_000, 10),
            WindowSpec::new(1_000_000_000, 10),
            WindowSpec::new(5_000_000_000, 12),
        ]
    }

    fn slot_of(&self, now_nanos: u64) -> u64 {
        now_nanos / self.slot_nanos
    }

    /// Whether a slot stamped `stamp` is still live at `now`.
    fn live(&self, stamp: u64, now_slot: u64) -> bool {
        stamp + self.slots as u64 > now_slot && stamp <= now_slot
    }
}

/// A sliding-window counter: windowed sum plus an exact cumulative total.
#[derive(Clone, Debug)]
pub struct CounterWindow {
    spec: WindowSpec,
    /// `(absolute slot index, value)` per ring slot.
    ring: Vec<(u64, u64)>,
    total: u64,
}

impl CounterWindow {
    /// An empty counter over `spec`.
    pub fn new(spec: WindowSpec) -> CounterWindow {
        CounterWindow {
            spec,
            ring: vec![(0, 0); spec.slots],
            total: 0,
        }
    }

    /// Adds `v` at time `now_nanos`.
    pub fn add(&mut self, now_nanos: u64, v: u64) {
        let slot = self.spec.slot_of(now_nanos);
        let cell = &mut self.ring[(slot % self.spec.slots as u64) as usize];
        if cell.0 != slot {
            *cell = (slot, 0);
        }
        cell.1 += v;
        self.total += v;
    }

    /// Sum over the window ending at `now_nanos`.
    pub fn sum(&self, now_nanos: u64) -> u64 {
        let now_slot = self.spec.slot_of(now_nanos);
        self.ring
            .iter()
            .filter(|&&(stamp, v)| v > 0 && self.spec.live(stamp, now_slot))
            .map(|&(_, v)| v)
            .sum()
    }

    /// Cumulative total since construction.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Windowed events per second at `now_nanos`. The denominator is the
    /// full window span, so rates are comparable across reads (a window
    /// that is only half-full reads as half the rate, which is the honest
    /// answer for "what happened over the last N seconds").
    pub fn rate_per_sec(&self, now_nanos: u64) -> f64 {
        self.sum(now_nanos) as f64 * 1e9 / self.spec.span_nanos() as f64
    }
}

/// A sliding-window histogram: ring-buffered [`LogHistogram`] slot
/// digests plus an exact cumulative twin.
#[derive(Clone, Debug)]
pub struct HistogramWindow {
    spec: WindowSpec,
    ring: Vec<(u64, LogHistogram)>,
    cumulative: LogHistogram,
}

impl HistogramWindow {
    /// An empty histogram window over `spec`.
    pub fn new(spec: WindowSpec) -> HistogramWindow {
        HistogramWindow {
            spec,
            ring: (0..spec.slots).map(|_| (0, LogHistogram::new())).collect(),
            cumulative: LogHistogram::new(),
        }
    }

    /// Records an observation at time `now_nanos`.
    pub fn observe(&mut self, now_nanos: u64, v: u64) {
        let slot = self.spec.slot_of(now_nanos);
        let cell = &mut self.ring[(slot % self.spec.slots as u64) as usize];
        if cell.0 != slot {
            cell.0 = slot;
            cell.1.reset();
        }
        cell.1.observe(v);
        self.cumulative.observe(v);
    }

    /// The digest of the window ending at `now_nanos`, merged exactly
    /// from the live ring slots.
    pub fn merged(&self, now_nanos: u64) -> HistogramSnapshot {
        let now_slot = self.spec.slot_of(now_nanos);
        let mut out = LogHistogram::new();
        for (stamp, h) in &self.ring {
            if !h.is_empty() && self.spec.live(*stamp, now_slot) {
                out.merge(h);
            }
        }
        out.snapshot()
    }

    /// The cumulative (whole-run) digest.
    pub fn cumulative(&self) -> HistogramSnapshot {
        self.cumulative.snapshot()
    }
}

/// A named registry of windowed counters and histograms over a common
/// set of windows, backed by a cumulative [`MetricsRegistry`] fed from
/// the same calls — one event stream, two resolutions, no drift.
pub struct WindowedRegistry {
    windows: Vec<WindowSpec>,
    counters: BTreeMap<String, Vec<CounterWindow>>,
    histograms: BTreeMap<String, Vec<HistogramWindow>>,
    cumulative: MetricsRegistry,
}

impl WindowedRegistry {
    /// A registry over `windows` (use [`WindowSpec::standard`] for the
    /// dashboard set).
    ///
    /// # Panics
    ///
    /// Panics when `windows` is empty.
    pub fn new(windows: Vec<WindowSpec>) -> WindowedRegistry {
        assert!(!windows.is_empty(), "a windowed registry needs windows");
        WindowedRegistry {
            windows,
            counters: BTreeMap::new(),
            histograms: BTreeMap::new(),
            cumulative: MetricsRegistry::new(),
        }
    }

    /// The registry's window shapes.
    pub fn windows(&self) -> &[WindowSpec] {
        &self.windows
    }

    /// Adds `v` to the named counter in every window and the cumulative
    /// registry.
    pub fn counter_add(&mut self, name: &str, now_nanos: u64, v: u64) {
        let windows = &self.windows;
        self.counters
            .entry(name.to_string())
            .or_insert_with(|| windows.iter().map(|&w| CounterWindow::new(w)).collect())
            .iter_mut()
            .for_each(|c| c.add(now_nanos, v));
        self.cumulative.counter_add(name, v);
    }

    /// Records an observation into the named histogram in every window
    /// and the cumulative registry.
    pub fn observe(&mut self, name: &str, now_nanos: u64, v: u64) {
        let windows = &self.windows;
        self.histograms
            .entry(name.to_string())
            .or_insert_with(|| windows.iter().map(|&w| HistogramWindow::new(w)).collect())
            .iter_mut()
            .for_each(|h| h.observe(now_nanos, v));
        self.cumulative.observe(name, v);
    }

    /// The named counter's whole-run total.
    pub fn counter(&self, name: &str) -> u64 {
        self.cumulative.counter(name)
    }

    /// The cumulative (whole-run) snapshot — same shape as any other
    /// [`MetricsSnapshot`], so it plugs into artifacts and exposition
    /// unchanged.
    pub fn cumulative_snapshot(&self) -> MetricsSnapshot {
        self.cumulative.snapshot()
    }

    /// A point-in-time windowed snapshot at `now_nanos`.
    pub fn snapshot(&self, now_nanos: u64) -> WindowedSnapshot {
        let windows = self
            .windows
            .iter()
            .enumerate()
            .map(|(i, spec)| WindowSnapshot {
                label: spec.label(),
                span_nanos: spec.span_nanos(),
                counters: self
                    .counters
                    .iter()
                    .map(|(name, per_window)| (name.clone(), per_window[i].sum(now_nanos)))
                    .collect(),
                histograms: self
                    .histograms
                    .iter()
                    .map(|(name, per_window)| (name.clone(), per_window[i].merged(now_nanos)))
                    .collect(),
            })
            .collect();
        WindowedSnapshot {
            at_nanos: now_nanos,
            windows,
        }
    }
}

/// One window's worth of a [`WindowedSnapshot`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WindowSnapshot {
    /// Window label (`"1s"`, `"10s"`, `"60s"`).
    pub label: String,
    /// Window span, nanoseconds.
    pub span_nanos: u64,
    /// Windowed counter sums, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Windowed histogram digests, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl WindowSnapshot {
    /// The named counter's windowed sum (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    }

    /// The named counter as a per-second rate over the full window span.
    pub fn rate_per_sec(&self, name: &str) -> f64 {
        if self.span_nanos == 0 {
            0.0
        } else {
            self.counter(name) as f64 * 1e9 / self.span_nanos as f64
        }
    }

    /// The named histogram's windowed digest, when present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, h)| h)
    }
}

/// A point-in-time snapshot of every window of a [`WindowedRegistry`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WindowedSnapshot {
    /// The clock reading the snapshot was taken at.
    pub at_nanos: u64,
    /// One entry per window, in registry order (shortest first by
    /// convention).
    pub windows: Vec<WindowSnapshot>,
}

impl WindowedSnapshot {
    /// The window with the given label.
    pub fn window(&self, label: &str) -> Option<&WindowSnapshot> {
        self.windows.iter().find(|w| w.label == label)
    }

    /// JSON object form.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("at_nanos", Json::UInt(self.at_nanos)),
            (
                "windows",
                Json::Arr(
                    self.windows
                        .iter()
                        .map(|w| {
                            Json::obj(vec![
                                ("label", Json::Str(w.label.clone())),
                                ("span_nanos", Json::UInt(w.span_nanos)),
                                (
                                    "counters",
                                    Json::Obj(
                                        w.counters
                                            .iter()
                                            .map(|(k, v)| (k.clone(), Json::UInt(*v)))
                                            .collect(),
                                    ),
                                ),
                                (
                                    "histograms",
                                    Json::Obj(
                                        w.histograms
                                            .iter()
                                            .map(|(k, h)| (k.clone(), h.to_json()))
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses the object form.
    ///
    /// # Errors
    ///
    /// Names the missing or ill-typed field.
    pub fn from_json(v: &Json) -> Result<WindowedSnapshot, String> {
        let windows = v
            .get("windows")
            .and_then(Json::as_arr)
            .ok_or("windowed snapshot: missing `windows` array")?
            .iter()
            .map(|w| {
                let counters = match w.get("counters") {
                    Some(Json::Obj(pairs)) => pairs
                        .iter()
                        .map(|(k, v)| {
                            v.as_u64()
                                .map(|u| (k.clone(), u))
                                .ok_or_else(|| format!("window: counter `{k}` is not a u64"))
                        })
                        .collect::<Result<Vec<_>, _>>()?,
                    _ => return Err("window: missing `counters` object".to_string()),
                };
                let histograms = match w.get("histograms") {
                    Some(Json::Obj(pairs)) => pairs
                        .iter()
                        .map(|(k, v)| HistogramSnapshot::from_json(v).map(|h| (k.clone(), h)))
                        .collect::<Result<Vec<_>, _>>()?,
                    _ => return Err("window: missing `histograms` object".to_string()),
                };
                Ok(WindowSnapshot {
                    label: w
                        .get("label")
                        .and_then(Json::as_str)
                        .ok_or("window: missing `label`")?
                        .to_string(),
                    span_nanos: w
                        .get("span_nanos")
                        .and_then(Json::as_u64)
                        .ok_or("window: missing `span_nanos`")?,
                    counters,
                    histograms,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(WindowedSnapshot {
            at_nanos: v
                .get("at_nanos")
                .and_then(Json::as_u64)
                .ok_or("windowed snapshot: missing `at_nanos`")?,
            windows,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const S: u64 = 1_000_000_000;

    #[test]
    fn counter_window_expires_old_slots() {
        let mut c = CounterWindow::new(WindowSpec::new(S, 10));
        c.add(0, 5);
        c.add(S, 3);
        assert_eq!(c.sum(S), 8, "both slots inside the 10 s window");
        assert_eq!(c.sum(9 * S), 8, "slot 0 still live at t=9s");
        assert_eq!(c.sum(10 * S), 3, "slot 0 expired at t=10s");
        assert_eq!(c.sum(11 * S), 0, "everything expired");
        assert_eq!(c.total(), 8, "cumulative total never expires");
        // Writing far in the future recycles stale slots.
        c.add(100 * S, 1);
        assert_eq!(c.sum(100 * S), 1);
        assert_eq!(c.total(), 9);
    }

    #[test]
    fn rate_uses_the_full_window_span() {
        let mut c = CounterWindow::new(WindowSpec::new(S, 10));
        for t in 0..10 {
            c.add(t * S, 2);
        }
        let r = c.rate_per_sec(9 * S);
        assert!((r - 2.0).abs() < 1e-9, "20 events over 10 s = 2/s, got {r}");
    }

    #[test]
    fn histogram_window_quantiles_are_deterministic_and_roll() {
        let spec = WindowSpec::new(S, 10);
        let mut h = HistogramWindow::new(spec);
        // 100 fast observations early, 10 slow ones late.
        for i in 0..100 {
            h.observe(i % 5 * S / 10, 100);
        }
        for i in 0..10 {
            h.observe(8 * S + i, 1_000_000);
        }
        let full = h.merged(9 * S);
        assert_eq!(full.count, 110);
        // After the early slots expire, only the slow tail remains.
        let late = h.merged(14 * S);
        assert_eq!(late.count, 10);
        assert_eq!(late.quantile(0.5), late.quantile(0.99));
        assert!(late.quantile(0.5) >= 524_288, "only ~1ms samples remain");
        // Determinism: the same reads answer the same digests.
        assert_eq!(h.merged(14 * S), h.merged(14 * S));
        assert_eq!(h.merged(9 * S), full);
    }

    /// The rollup-consistency property the serving layer leans on: a
    /// window covering the whole run merges to exactly the cumulative
    /// digest, and windowed counter sums equal cumulative counters.
    #[test]
    fn full_span_window_equals_cumulative() {
        let mut reg = WindowedRegistry::new(vec![
            WindowSpec::new(S, 3),        // rolls over during the run
            WindowSpec::new(100 * S, 10), // 1000 s span covers the whole run
        ]);
        let mut t = 0;
        for i in 0..500u64 {
            t += 37_000_000 * (i % 7 + 1); // irregular spacing, many slots
            reg.counter_add("jobs", t, 1);
            reg.observe("latency", t, i * i % 10_000);
        }
        let cumulative = reg.cumulative_snapshot();
        let snap = reg.snapshot(t);
        let wide = snap.window("1000s").unwrap();
        assert_eq!(wide.counter("jobs"), 500);
        assert_eq!(
            wide.counter("jobs"),
            cumulative
                .counters
                .iter()
                .find(|(k, _)| k == "jobs")
                .unwrap()
                .1
        );
        let cum_hist = &cumulative
            .histograms
            .iter()
            .find(|(k, _)| k == "latency")
            .unwrap()
            .1;
        assert_eq!(
            wide.histogram("latency").unwrap(),
            cum_hist,
            "full-span window must reproduce the cumulative digest exactly"
        );
        // The narrow window saw strictly fewer events.
        let narrow = snap.window("3s").unwrap();
        assert!(narrow.counter("jobs") < 500);
        assert!(narrow.histogram("latency").unwrap().count < 500);
    }

    #[test]
    fn windowed_snapshot_round_trips_through_json() {
        let mut reg = WindowedRegistry::new(WindowSpec::standard());
        reg.counter_add("serve.jobs_completed", 5 * S, 3);
        reg.observe("serve.job_wall_nanos", 5 * S, 123_456);
        let snap = reg.snapshot(6 * S);
        let parsed = WindowedSnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(parsed, snap);
        assert_eq!(parsed.windows.len(), 3);
        assert_eq!(
            parsed
                .window("10s")
                .unwrap()
                .counter("serve.jobs_completed"),
            3
        );
        assert!(WindowedSnapshot::from_json(&Json::Null).is_err());
    }

    #[test]
    fn labels_cover_the_standard_windows() {
        let labels: Vec<String> = WindowSpec::standard().iter().map(|w| w.label()).collect();
        assert_eq!(labels, vec!["1s", "10s", "60s"]);
        assert_eq!(WindowSpec::new(500_000_000, 1).label(), "500ms");
    }
}
