//! Serializable summaries of a [`crate::CommLedger`] fold.
//!
//! [`CommReport`] is the per-run summary (one traced workload: a grid
//! cell, a serve job, a trace file); [`CommAggregate`] merges many
//! ledgers exactly (histogram merge is bit-exact, see
//! [`cc_trace::LogHistogram::merge`]) for the serving layer's live
//! `{"op":"links"}` view.

use crate::ledger::CommLedger;
use cc_model::MachineStats;
use cc_trace::{Json, LogHistogram, MetricsRegistry, MetricsSnapshot};

/// Traffic attributed to one phase scope.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PhaseComm {
    /// Messages sent while the scope was innermost.
    pub messages: u64,
    /// Words sent while the scope was innermost.
    pub words: u64,
}

/// The serializable summary of one communication fold.
///
/// All utilization figures are in thousandths of the effective per-link
/// budget (`1000` = a link at exactly its budget); `headroom_milli` is
/// `1000 − peak_util_milli`, the "distance to the cliff" the grid's
/// degradation table reports.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CommReport {
    /// Clique size.
    pub n: u64,
    /// Configured per-link budget in words (pre-squeeze).
    pub budget_words: u64,
    /// Link mode key (`uni` / `bc`).
    pub link_mode: String,
    /// Machine count under the spec's mapping.
    pub machines: u64,
    /// Executed rounds.
    pub rounds: u64,
    /// Rounds skipped via fast-forward (silent by construction).
    pub fast_forward_rounds: u64,
    /// Total messages.
    pub messages: u64,
    /// Total words (per-message floor of 1, exactly as metered).
    pub words: u64,
    /// Distinct directed links that carried traffic.
    pub active_links: u64,
    /// Number of (round, active link) observations.
    pub link_rounds: u64,
    /// Words on the busiest (round, link) observation.
    pub peak_link_words: u64,
    /// Utilization of the most utilized (round, link) observation.
    pub peak_util_milli: u64,
    /// Round of that peak observation.
    pub peak_round: u64,
    /// Sender of that peak observation.
    pub peak_src: u32,
    /// Receiver of that peak observation.
    pub peak_dst: u32,
    /// Median per-(round, link) utilization.
    pub p50_util_milli: u64,
    /// 95th-percentile per-(round, link) utilization.
    pub p95_util_milli: u64,
    /// 99th-percentile per-(round, link) utilization.
    pub p99_util_milli: u64,
    /// Mean per-(round, link) utilization.
    pub mean_util_milli: u64,
    /// `1000 − peak_util_milli`.
    pub headroom_milli: u64,
    /// Words sent in full-fanout equal-words send-sets.
    pub broadcast_words: u64,
    /// All other words.
    pub unicast_words: u64,
    /// Observations exceeding the effective budget (0 for live streams).
    pub over_budget: u64,
    /// Per-phase attribution, sorted by scope name.
    pub phases: Vec<(String, PhaseComm)>,
    /// Machine-level accounting under the spec's mapping.
    pub machine: MachineStats,
    /// Worst ordered machine pair vs the mean remote pair, in
    /// thousandths (1000 = balanced, 0 = no remote traffic).
    pub pair_skew_milli: u64,
}

impl CommReport {
    /// JSON object form (key `"utilization"` in grid cells).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("n", Json::UInt(self.n)),
            ("budget_words", Json::UInt(self.budget_words)),
            ("link_mode", Json::Str(self.link_mode.clone())),
            ("machines", Json::UInt(self.machines)),
            ("rounds", Json::UInt(self.rounds)),
            ("fast_forward_rounds", Json::UInt(self.fast_forward_rounds)),
            ("messages", Json::UInt(self.messages)),
            ("words", Json::UInt(self.words)),
            ("active_links", Json::UInt(self.active_links)),
            ("link_rounds", Json::UInt(self.link_rounds)),
            ("peak_link_words", Json::UInt(self.peak_link_words)),
            ("peak_util_milli", Json::UInt(self.peak_util_milli)),
            ("peak_round", Json::UInt(self.peak_round)),
            ("peak_src", Json::UInt(u64::from(self.peak_src))),
            ("peak_dst", Json::UInt(u64::from(self.peak_dst))),
            ("p50_util_milli", Json::UInt(self.p50_util_milli)),
            ("p95_util_milli", Json::UInt(self.p95_util_milli)),
            ("p99_util_milli", Json::UInt(self.p99_util_milli)),
            ("mean_util_milli", Json::UInt(self.mean_util_milli)),
            ("headroom_milli", Json::UInt(self.headroom_milli)),
            ("broadcast_words", Json::UInt(self.broadcast_words)),
            ("unicast_words", Json::UInt(self.unicast_words)),
            ("over_budget", Json::UInt(self.over_budget)),
            (
                "phases",
                Json::Obj(
                    self.phases
                        .iter()
                        .map(|(name, p)| {
                            (
                                name.clone(),
                                Json::obj(vec![
                                    ("messages", Json::UInt(p.messages)),
                                    ("words", Json::UInt(p.words)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
            (
                "machine",
                Json::obj(vec![
                    ("logical_rounds", Json::UInt(self.machine.logical_rounds)),
                    ("machine_rounds", Json::UInt(self.machine.machine_rounds)),
                    ("local_words", Json::UInt(self.machine.local_words)),
                    ("remote_words", Json::UInt(self.machine.remote_words)),
                    ("max_pair_words", Json::UInt(self.machine.max_pair_words)),
                ]),
            ),
            ("pair_skew_milli", Json::UInt(self.pair_skew_milli)),
        ])
    }

    /// Internal-consistency problems (empty = clean): utilization within
    /// budget, headroom complementary to the peak, mix summing to the
    /// total, machine words conserving the total.
    pub fn validate(&self) -> Vec<String> {
        let mut problems = Vec::new();
        if self.peak_util_milli > 1000 {
            problems.push(format!(
                "peak utilization {}‰ exceeds the budget",
                self.peak_util_milli
            ));
        }
        if self.over_budget > 0 {
            problems.push(format!(
                "{} (round, link) observations exceeded the effective budget",
                self.over_budget
            ));
        }
        if self.headroom_milli != 1000u64.saturating_sub(self.peak_util_milli) {
            problems.push("headroom is not complementary to the peak utilization".into());
        }
        if self.broadcast_words + self.unicast_words != self.words {
            problems.push("broadcast/unicast mix does not sum to the word total".into());
        }
        if self.machine.local_words + self.machine.remote_words != self.words {
            problems.push("machine local/remote split does not sum to the word total".into());
        }
        let phase_words: u64 = self.phases.iter().map(|(_, p)| p.words).sum();
        if phase_words != self.words {
            problems.push("phase attribution does not sum to the word total".into());
        }
        problems
    }
}

/// Exact merge of many per-job folds, for the serving layer's live
/// aggregate view.
#[derive(Clone, Debug, Default)]
pub struct CommAggregate {
    /// Jobs absorbed.
    pub jobs: u64,
    /// Summed executed rounds.
    pub rounds: u64,
    /// Summed messages.
    pub messages: u64,
    /// Summed words.
    pub words: u64,
    /// Summed (round, active link) observations.
    pub link_rounds: u64,
    /// Max over jobs of the peak (round, link) word count.
    pub peak_link_words: u64,
    /// Max over jobs of the peak utilization.
    pub peak_util_milli: u64,
    /// Summed broadcast-classified words.
    pub broadcast_words: u64,
    /// Summed unicast-classified words.
    pub unicast_words: u64,
    /// Merged per-(round, link) utilization histogram.
    pub util: LogHistogram,
}

impl CommAggregate {
    /// An empty aggregate.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one finished job's ledger into the aggregate, exactly.
    pub fn absorb(&mut self, ledger: &CommLedger) {
        let report = ledger.report();
        self.jobs += 1;
        self.rounds += report.rounds;
        self.messages += report.messages;
        self.words += report.words;
        self.link_rounds += report.link_rounds;
        self.peak_link_words = self.peak_link_words.max(report.peak_link_words);
        self.peak_util_milli = self.peak_util_milli.max(report.peak_util_milli);
        self.broadcast_words += report.broadcast_words;
        self.unicast_words += report.unicast_words;
        self.util.merge(ledger.util_histogram());
    }

    /// JSON object form (the `{"op":"links"}` payload).
    pub fn to_json(&self) -> Json {
        let util = self.util.snapshot();
        Json::obj(vec![
            ("jobs", Json::UInt(self.jobs)),
            ("rounds", Json::UInt(self.rounds)),
            ("messages", Json::UInt(self.messages)),
            ("words", Json::UInt(self.words)),
            ("link_rounds", Json::UInt(self.link_rounds)),
            ("peak_link_words", Json::UInt(self.peak_link_words)),
            ("peak_util_milli", Json::UInt(self.peak_util_milli)),
            ("headroom_milli", {
                Json::UInt(1000u64.saturating_sub(self.peak_util_milli))
            }),
            ("p50_util_milli", Json::UInt(util.quantile(0.50))),
            ("p95_util_milli", Json::UInt(util.quantile(0.95))),
            ("p99_util_milli", Json::UInt(util.quantile(0.99))),
            ("mean_util_milli", Json::UInt(util.mean() as u64)),
            ("broadcast_words", Json::UInt(self.broadcast_words)),
            ("unicast_words", Json::UInt(self.unicast_words)),
        ])
    }
}

/// The comm fold as a named metrics snapshot, for embedding in a
/// [`cc_trace::RunArtifact`]'s `metrics` vector: counters prefixed
/// `comm.`, plus the per-(round, link) utilization and word histograms.
pub fn comm_metrics(ledger: &CommLedger) -> MetricsSnapshot {
    let report = ledger.report();
    let mut reg = MetricsRegistry::new();
    reg.counter_add("comm.rounds", report.rounds);
    reg.counter_add("comm.messages", report.messages);
    reg.counter_add("comm.words", report.words);
    reg.counter_add("comm.active_links", report.active_links);
    reg.counter_add("comm.link_rounds", report.link_rounds);
    reg.counter_add("comm.peak_link_words", report.peak_link_words);
    reg.counter_add("comm.peak_util_milli", report.peak_util_milli);
    reg.counter_add("comm.headroom_milli", report.headroom_milli);
    reg.counter_add("comm.broadcast_words", report.broadcast_words);
    reg.counter_add("comm.unicast_words", report.unicast_words);
    reg.counter_add("comm.machine_rounds", report.machine.machine_rounds);
    reg.counter_add("comm.local_words", report.machine.local_words);
    reg.counter_add("comm.remote_words", report.machine.remote_words);
    reg.counter_add("comm.pair_skew_milli", report.pair_skew_milli);
    let mut snap = reg.snapshot();
    snap.histograms.push((
        "comm.link_util_milli".to_string(),
        ledger.util_histogram().snapshot(),
    ));
    snap.histograms.push((
        "comm.link_round_words".to_string(),
        ledger.link_round_histogram().snapshot(),
    ));
    snap.histograms.sort_by(|a, b| a.0.cmp(&b.0));
    snap
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_model::ModelSpec;
    use cc_trace::Event;

    fn sample_ledger() -> CommLedger {
        let spec = ModelSpec::clique().with_bandwidth(4).kmachine(2);
        let events = vec![
            Event::ScopeEnter {
                name: "route:scatter".into(),
                round: 0,
            },
            Event::RoundStart { round: 0 },
            Event::MessageBatch {
                round: 0,
                src: 0,
                dst: 2,
                count: 1,
                words: 3,
            },
            Event::MessageBatch {
                round: 0,
                src: 1,
                dst: 0,
                count: 2,
                words: 2,
            },
            Event::RoundEnd {
                round: 0,
                messages: 3,
                words: 5,
            },
            Event::ScopeExit {
                name: "route:scatter".into(),
                delta: cc_trace::CostSnapshot::default(),
            },
        ];
        CommLedger::fold(4, &spec, &events).unwrap()
    }

    #[test]
    fn report_validates_and_emits_its_nested_sections() {
        let report = sample_ledger().report();
        assert!(report.validate().is_empty(), "{:?}", report.validate());
        let json = report.to_json();
        assert_eq!(json.get("words").and_then(Json::as_u64), Some(report.words));
        assert!(matches!(json.get("phases"), Some(Json::Obj(p)) if p.len() == report.phases.len()));
        assert_eq!(
            json.get("machine")
                .and_then(|m| m.get("machine_rounds"))
                .and_then(Json::as_u64),
            Some(report.machine.machine_rounds)
        );
    }

    #[test]
    fn report_validate_flags_inconsistencies() {
        let mut report = sample_ledger().report();
        report.peak_util_milli = 1200;
        report.over_budget = 3;
        let problems = report.validate();
        assert!(problems.iter().any(|p| p.contains("exceeds the budget")));
        assert!(problems.iter().any(|p| p.contains("effective budget")));
    }

    #[test]
    fn aggregate_merges_jobs_exactly() {
        let ledger = sample_ledger();
        let mut agg = CommAggregate::new();
        agg.absorb(&ledger);
        agg.absorb(&ledger);
        assert_eq!(agg.jobs, 2);
        assert_eq!(agg.words, 2 * ledger.words());
        assert_eq!(agg.util.count(), 2 * ledger.util_histogram().count());
        let j = agg.to_json();
        assert_eq!(j.get("jobs").and_then(Json::as_u64), Some(2));
        assert_eq!(
            j.get("peak_util_milli").and_then(Json::as_u64),
            Some(ledger.report().peak_util_milli)
        );
    }

    #[test]
    fn comm_metrics_snapshot_carries_counters_and_histograms() {
        let ledger = sample_ledger();
        let snap = comm_metrics(&ledger);
        let counter = |name: &str| {
            snap.counters
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| *v)
                .unwrap()
        };
        assert_eq!(counter("comm.words"), ledger.words());
        assert_eq!(counter("comm.rounds"), ledger.rounds().len() as u64);
        assert_eq!(
            counter("comm.pair_skew_milli"),
            ledger.report().pair_skew_milli
        );
        let hist = snap
            .histograms
            .iter()
            .find(|(k, _)| k == "comm.link_util_milli")
            .map(|(_, h)| h.clone())
            .unwrap();
        assert_eq!(hist, ledger.util_histogram().snapshot());
        // The snapshot survives the artifact JSON round trip.
        let parsed = MetricsSnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(parsed, snap);
    }
}
