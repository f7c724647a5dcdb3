//! SLO alert rules evaluated over windowed metrics.
//!
//! An [`AlertEngine`] holds a fixed rule set and the set of rules
//! currently firing. Each [`AlertEngine::evaluate`] call is a pure
//! function of the windowed snapshot, the admission scalars, and the
//! previous firing set: it returns only the *transitions* (newly firing,
//! newly resolved) as structured [`AlertEvent`]s, so a steady burn emits
//! one event, not one per poll. Driven by a
//! [`ManualClock`](crate::ManualClock) the whole life cycle is
//! deterministic.

use crate::window::WindowedSnapshot;
use cc_trace::Json;
use std::collections::BTreeSet;

/// What an SLO rule watches. Thresholds scaled by 1000 ("milli") stay
/// in integer arithmetic: 950 ≙ 95.0 %.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SloKind {
    /// Fires when the windowed `q`-quantile of `histogram` exceeds
    /// `threshold_nanos` (given at least one sample).
    LatencyBurn {
        /// Histogram metric name (internal dotted form).
        histogram: String,
        /// Quantile × 1000 (950 ≙ p95).
        q_milli: u64,
        /// Latency ceiling, nanoseconds.
        threshold_nanos: u64,
    },
    /// Fires when queue depth reaches `frac_milli`/1000 of capacity.
    QueueSaturation {
        /// Saturation fraction × 1000 (800 ≙ 80 %).
        frac_milli: u64,
    },
    /// Fires when the windowed hit rate over the named counters falls
    /// below `min_milli`/1000, given at least `min_samples` lookups.
    HitRateFloor {
        /// Counters that count as hits.
        hits: Vec<String>,
        /// Counter that counts misses.
        misses: String,
        /// Hit-rate floor × 1000.
        min_milli: u64,
        /// Minimum lookups before the rule can fire.
        min_samples: u64,
    },
}

/// A named SLO rule bound to one window.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SloRule {
    /// Stable rule name (`"latency-burn-p95"`).
    pub name: String,
    /// Window label the rule evaluates over (`"10s"`).
    pub window: String,
    /// The condition.
    pub kind: SloKind,
}

/// A firing-set transition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AlertState {
    /// The rule's condition just became true.
    Firing,
    /// The rule's condition just became false again.
    Resolved,
}

impl AlertState {
    /// Stable lowercase tag.
    pub fn tag(&self) -> &'static str {
        match self {
            AlertState::Firing => "firing",
            AlertState::Resolved => "resolved",
        }
    }
}

/// One structured alert transition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AlertEvent {
    /// The rule that transitioned.
    pub rule: String,
    /// The new state.
    pub state: AlertState,
    /// Clock reading of the evaluation.
    pub at_nanos: u64,
    /// The observed value that decided the transition (quantile nanos,
    /// queue depth, or hit-rate milli — rule-dependent units).
    pub observed: u64,
    /// The rule's threshold in the same units.
    pub threshold: u64,
}

impl AlertEvent {
    /// JSON object form, tagged for log streams.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("kind", Json::Str("slo-alert".to_string())),
            ("rule", Json::Str(self.rule.clone())),
            ("state", Json::Str(self.state.tag().to_string())),
            ("at_nanos", Json::UInt(self.at_nanos)),
            ("observed", Json::UInt(self.observed)),
            ("threshold", Json::UInt(self.threshold)),
        ])
    }
}

/// The rule evaluator: rules plus the currently firing set.
pub struct AlertEngine {
    rules: Vec<SloRule>,
    firing: BTreeSet<String>,
}

impl AlertEngine {
    /// An engine over `rules`, nothing firing.
    pub fn new(rules: Vec<SloRule>) -> AlertEngine {
        AlertEngine {
            rules,
            firing: BTreeSet::new(),
        }
    }

    /// The configured rules.
    pub fn rules(&self) -> &[SloRule] {
        &self.rules
    }

    /// Names of rules currently firing, sorted.
    pub fn firing(&self) -> Vec<String> {
        self.firing.iter().cloned().collect()
    }

    /// Evaluates every rule against `snap` and the admission scalars,
    /// returning the transitions (in rule order).
    pub fn evaluate(
        &mut self,
        now_nanos: u64,
        snap: &WindowedSnapshot,
        queue_depth: usize,
        queue_capacity: usize,
    ) -> Vec<AlertEvent> {
        let mut events = Vec::new();
        for rule in &self.rules {
            let decided = decide(rule, snap, queue_depth, queue_capacity);
            let Some((active, observed, threshold)) = decided else {
                continue; // window absent or not enough samples: hold state
            };
            let was = self.firing.contains(&rule.name);
            if active != was {
                if active {
                    self.firing.insert(rule.name.clone());
                } else {
                    self.firing.remove(&rule.name);
                }
                events.push(AlertEvent {
                    rule: rule.name.clone(),
                    state: if active {
                        AlertState::Firing
                    } else {
                        AlertState::Resolved
                    },
                    at_nanos: now_nanos,
                    observed,
                    threshold,
                });
            }
        }
        events
    }
}

/// `(condition holds, observed, threshold)`, or `None` when the rule
/// cannot be decided from this snapshot.
fn decide(
    rule: &SloRule,
    snap: &WindowedSnapshot,
    queue_depth: usize,
    queue_capacity: usize,
) -> Option<(bool, u64, u64)> {
    match &rule.kind {
        SloKind::LatencyBurn {
            histogram,
            q_milli,
            threshold_nanos,
        } => {
            let w = snap.window(&rule.window)?;
            let h = w.histogram(histogram)?;
            if h.count == 0 {
                // An idle service is not burning latency.
                return Some((false, 0, *threshold_nanos));
            }
            let observed = h.quantile(*q_milli as f64 / 1000.0);
            Some((observed > *threshold_nanos, observed, *threshold_nanos))
        }
        SloKind::QueueSaturation { frac_milli } => {
            if queue_capacity == 0 {
                return None;
            }
            let active = (queue_depth as u64) * 1000 >= frac_milli * queue_capacity as u64;
            Some((
                active,
                queue_depth as u64,
                frac_milli * queue_capacity as u64 / 1000,
            ))
        }
        SloKind::HitRateFloor {
            hits,
            misses,
            min_milli,
            min_samples,
        } => {
            let w = snap.window(&rule.window)?;
            let hit: u64 = hits.iter().map(|n| w.counter(n)).sum();
            let lookups = hit + w.counter(misses);
            if lookups < *min_samples {
                return Some((false, 0, *min_milli));
            }
            let rate_milli = hit * 1000 / lookups;
            Some((rate_milli < *min_milli, rate_milli, *min_milli))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use crate::window::{WindowSpec, WindowedRegistry};

    const S: u64 = 1_000_000_000;

    fn rules() -> Vec<SloRule> {
        vec![
            SloRule {
                name: "latency-burn-p95".into(),
                window: "10s".into(),
                kind: SloKind::LatencyBurn {
                    histogram: "serve.job_wall_nanos".into(),
                    q_milli: 950,
                    threshold_nanos: 1_000_000,
                },
            },
            SloRule {
                name: "queue-saturation".into(),
                window: "1s".into(),
                kind: SloKind::QueueSaturation { frac_milli: 800 },
            },
            SloRule {
                name: "hit-rate-floor".into(),
                window: "60s".into(),
                kind: SloKind::HitRateFloor {
                    hits: vec!["serve.cache_hits".into(), "serve.coalesced_hits".into()],
                    misses: "serve.cache_misses".into(),
                    min_milli: 250,
                    min_samples: 4,
                },
            },
        ]
    }

    #[test]
    fn latency_burn_fires_and_resolves_deterministically() {
        let mut reg = WindowedRegistry::new(WindowSpec::standard());
        let mut engine = AlertEngine::new(rules());
        // Fast traffic: nothing fires.
        for i in 0..20 {
            reg.observe("serve.job_wall_nanos", i * S / 10, 50_000);
        }
        let events = engine.evaluate(2 * S, &reg.snapshot(2 * S), 0, 16);
        assert!(events.is_empty());
        // A slow burst pushes p95 over 1 ms → one firing transition.
        for i in 0..40 {
            reg.observe("serve.job_wall_nanos", 3 * S + i, 50_000_000);
        }
        let snap = reg.snapshot(4 * S);
        let events = engine.evaluate(4 * S, &snap, 0, 16);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].rule, "latency-burn-p95");
        assert_eq!(events[0].state, AlertState::Firing);
        assert!(events[0].observed > 1_000_000);
        assert_eq!(engine.firing(), vec!["latency-burn-p95".to_string()]);
        // Steady state: no repeat event while still burning.
        assert!(engine
            .evaluate(5 * S, &reg.snapshot(5 * S), 0, 16)
            .is_empty());
        // The burst ages out of the 10 s window → resolved.
        let later = reg.snapshot(30 * S);
        let events = engine.evaluate(30 * S, &later, 0, 16);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].state, AlertState::Resolved);
        assert!(engine.firing().is_empty());
        let j = events[0].to_json();
        assert_eq!(j.get("kind").and_then(Json::as_str), Some("slo-alert"));
        assert_eq!(j.get("state").and_then(Json::as_str), Some("resolved"));
    }

    #[test]
    fn queue_saturation_tracks_the_admission_scalars() {
        let reg = WindowedRegistry::new(WindowSpec::standard());
        let mut engine = AlertEngine::new(rules());
        let snap = reg.snapshot(S);
        // 13/16 = 812 milli ≥ 800 → fires.
        let events = engine.evaluate(S, &snap, 13, 16);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].rule, "queue-saturation");
        assert_eq!(events[0].observed, 13);
        // Draining back below the threshold resolves it.
        let events = engine.evaluate(2 * S, &snap, 2, 16);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].state, AlertState::Resolved);
        // Zero capacity is undecidable, never fires.
        assert!(engine.evaluate(3 * S, &snap, 5, 0).is_empty());
    }

    #[test]
    fn flapping_around_the_threshold_emits_transitions_only() {
        // A queue oscillating across the saturation threshold — one
        // poll over, one poll under, repeatedly, with polls exactly AT
        // the threshold mixed in (`>=`, so 800 milli of 10 slots = a
        // depth of 8 fires). Every evaluation is clocked by a
        // ManualClock; the engine must emit exactly one event per
        // *transition* and none for a repeated verdict, and the event
        // timestamps must be the clock readings of the flips.
        let clock = ManualClock::new(0);
        let reg = WindowedRegistry::new(WindowSpec::standard());
        let mut engine = AlertEngine::new(rules());
        let depths = [8usize, 2, 8, 8, 7, 8, 3, 3];
        let mut log = Vec::new();
        for depth in depths {
            let now = clock.advance(S);
            let snap = reg.snapshot(now);
            for ev in engine.evaluate(now, &snap, depth, 10) {
                log.push((ev.at_nanos, ev.state, ev.observed));
            }
        }
        // 8 fires, 2 resolves, 8 fires, 8 holds (no event), 7 resolves
        // (below the 800-milli line), 8 fires, 3 resolves, 3 holds.
        assert_eq!(
            log,
            vec![
                (S, AlertState::Firing, 8),
                (2 * S, AlertState::Resolved, 2),
                (3 * S, AlertState::Firing, 8),
                (5 * S, AlertState::Resolved, 7),
                (6 * S, AlertState::Firing, 8),
                (7 * S, AlertState::Resolved, 3),
            ]
        );
        assert!(engine.firing().is_empty());
    }

    #[test]
    fn hit_rate_floor_needs_samples_then_fires() {
        let mut reg = WindowedRegistry::new(WindowSpec::standard());
        let mut engine = AlertEngine::new(rules());
        // Two misses: below min_samples, holds quiet.
        reg.counter_add("serve.cache_misses", S, 2);
        assert!(engine.evaluate(S, &reg.snapshot(S), 0, 16).is_empty());
        // Six more misses, one hit: 1/9 = 111 milli < 250 → fires.
        reg.counter_add("serve.cache_misses", 2 * S, 6);
        reg.counter_add("serve.cache_hits", 2 * S, 1);
        let events = engine.evaluate(2 * S, &reg.snapshot(2 * S), 0, 16);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].rule, "hit-rate-floor");
        assert_eq!(events[0].observed, 111);
        // A hit wave lifts the rate above the floor → resolves.
        reg.counter_add("serve.cache_hits", 3 * S, 20);
        reg.counter_add("serve.coalesced_hits", 3 * S, 10);
        let events = engine.evaluate(3 * S, &reg.snapshot(3 * S), 0, 16);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].state, AlertState::Resolved);
    }
}
