//! The [`CommLedger`]: one fold over the model event stream.
//!
//! The ledger is a pure consumer of [`cc_trace::Event`] — it adds no
//! second bookkeeping path to the engines. Every quantity it reports is
//! derived from the same `MessageBatch`/`RoundStart`/`RoundEnd`/`Fault`
//! stream the engines already emit, and the machine-level numbers come
//! from folding each batch through a [`cc_model::MachineLedger`] — the
//! only k-machine price in the workspace.
//!
//! Event contract (identical across `CliqueNet` and both runtime
//! backends, see their emission sites): per executed round, `RoundStart`
//! → optional `Fault { kind: Squeeze, info: effective budget }` →
//! `NodeCrash`* → `MessageBatch`* (pre-fault sends, `(src, dst)`-sorted,
//! words already floored at 1 per message exactly as `SendRules` meters
//! them) → delivery-fault records → `RoundEnd`. `FastForward` advances
//! the round counter without traffic. Scope events bracket rounds.

use crate::report::{CommReport, PhaseComm};
use cc_model::{MachineLedger, MachineStats, ModelError, ModelSpec};
use cc_trace::{Event, FaultKind, LogHistogram};
use std::collections::BTreeMap;

/// Scope label charged for traffic outside any phase scope.
pub const UNSCOPED: &str = "(unscoped)";

/// One executed round's communication, resolved at fold time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoundComm {
    /// Round number as traced.
    pub round: u64,
    /// Messages sent this round.
    pub messages: u64,
    /// Words sent this round (per-message floor of 1, as metered).
    pub words: u64,
    /// Directed links that carried traffic this round.
    pub links: u64,
    /// Words on the busiest link this round.
    pub peak_link_words: u64,
    /// Effective per-link budget this round (squeeze-aware).
    pub budget_words: u64,
    /// Machine rounds this logical round cost under the spec's mapping.
    pub machine_rounds: u64,
}

impl RoundComm {
    /// Peak link utilization this round, in thousandths of the budget.
    pub fn peak_util_milli(&self) -> u64 {
        self.peak_link_words * 1000 / self.budget_words.max(1)
    }
}

/// Cumulative traffic over one directed link.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LinkTotal {
    /// Sender.
    pub src: u32,
    /// Receiver.
    pub dst: u32,
    /// Total words across all rounds.
    pub words: u64,
    /// Words in the link's busiest round.
    pub peak_round_words: u64,
    /// The round that peak occurred in.
    pub peak_round: u64,
}

/// Folds model events into round-resolved communication accounting:
/// per-link and per-node word counts, utilization vs the spec's budget,
/// broadcast/unicast mix, per-phase attribution, and machine-pair skew
/// under the spec's mapping.
#[derive(Clone, Debug)]
pub struct CommLedger {
    n: usize,
    spec: ModelSpec,
    machine: MachineLedger,
    // --- open-round state ---
    current_round: u64,
    round_budget: u64,
    round_links: BTreeMap<(u32, u32), u64>,
    round_messages: u64,
    round_words: u64,
    phase_stack: Vec<String>,
    // --- cumulative ---
    rounds: Vec<RoundComm>,
    fast_forward_rounds: u64,
    messages: u64,
    words: u64,
    node_sent: Vec<u64>,
    node_recv: Vec<u64>,
    link_totals: BTreeMap<(u32, u32), LinkTotal>,
    pair_words: Vec<u64>,
    phases: BTreeMap<String, PhaseComm>,
    util: LogHistogram,
    link_round_words: LogHistogram,
    broadcast_words: u64,
    unicast_words: u64,
    peak_link_words: u64,
    peak_util_milli: u64,
    peak_obs_words: u64,
    peak_round: u64,
    peak_src: u32,
    peak_dst: u32,
    over_budget: u64,
}

impl CommLedger {
    /// An empty ledger for an `n`-node run under `spec`.
    ///
    /// # Errors
    ///
    /// Propagates [`ModelSpec::validate_for`] (via the embedded
    /// [`MachineLedger`]).
    pub fn new(n: usize, spec: &ModelSpec) -> Result<Self, ModelError> {
        let machine = MachineLedger::new(n, spec)?;
        let k = spec.machines(n);
        Ok(CommLedger {
            n,
            spec: *spec,
            machine,
            current_round: 0,
            round_budget: spec.bandwidth_words_per_link,
            round_links: BTreeMap::new(),
            round_messages: 0,
            round_words: 0,
            phase_stack: Vec::new(),
            rounds: Vec::new(),
            fast_forward_rounds: 0,
            messages: 0,
            words: 0,
            node_sent: vec![0; n],
            node_recv: vec![0; n],
            link_totals: BTreeMap::new(),
            pair_words: vec![0; k * k],
            phases: BTreeMap::new(),
            util: LogHistogram::new(),
            link_round_words: LogHistogram::new(),
            broadcast_words: 0,
            unicast_words: 0,
            peak_link_words: 0,
            peak_util_milli: 0,
            peak_obs_words: 0,
            peak_round: 0,
            peak_src: 0,
            peak_dst: 0,
            over_budget: 0,
        })
    }

    /// Builds a ledger by folding a recorded event stream.
    ///
    /// # Errors
    ///
    /// Propagates [`CommLedger::new`].
    pub fn fold(n: usize, spec: &ModelSpec, events: &[Event]) -> Result<Self, ModelError> {
        let mut ledger = CommLedger::new(n, spec)?;
        ledger.record_all(events);
        Ok(ledger)
    }

    /// Folds a batch of events in stream order.
    pub fn record_all(&mut self, events: &[Event]) {
        for ev in events {
            self.record(ev);
        }
    }

    /// Folds one event.
    pub fn record(&mut self, ev: &Event) {
        match ev {
            Event::RoundStart { round } => {
                self.current_round = *round;
                self.round_budget = self.spec.bandwidth_words_per_link;
            }
            Event::Fault {
                kind: FaultKind::Squeeze,
                info,
                ..
            } => {
                // The engines stamp `info` with the effective (already
                // floored and capped) budget for the round being opened.
                self.round_budget = self.round_budget.min((*info).max(1));
            }
            Event::MessageBatch {
                round,
                src,
                dst,
                count,
                words,
            } => self.record_batch(*round, *src, *dst, u64::from(*count), *words),
            Event::RoundEnd { round, .. } => self.close_round(*round),
            Event::FastForward { rounds, .. } => self.fast_forward_rounds += *rounds,
            _ => {}
        }
        // Scope events are matched separately so a scope wrapping a
        // squeeze fault round still attributes correctly.
        match ev {
            Event::ScopeEnter { name, .. } => self.phase_stack.push(name.clone()),
            Event::ScopeExit { name, .. }
                if self.phase_stack.last().map(String::as_str) == Some(name.as_str()) =>
            {
                self.phase_stack.pop();
            }
            _ => {}
        }
    }

    fn record_batch(&mut self, round: u64, src: u32, dst: u32, count: u64, words: u64) {
        self.current_round = round;
        self.round_messages += count;
        self.round_words += words;
        self.messages += count;
        self.words += words;
        *self.round_links.entry((src, dst)).or_insert(0) += words;
        if let Some(s) = self.node_sent.get_mut(src as usize) {
            *s += words;
        }
        if let Some(r) = self.node_recv.get_mut(dst as usize) {
            *r += words;
        }
        // Machine accounting: each batch is one pair charge.
        self.machine.record(src as usize, dst as usize, words);
        let k = self.spec.machines(self.n);
        let (ms, md) = (
            self.spec.machine_of(self.n, src as usize),
            self.spec.machine_of(self.n, dst as usize),
        );
        if ms != md {
            self.pair_words[ms * k + md] += words;
        }
        let phase = self
            .phase_stack
            .last()
            .map_or(UNSCOPED, String::as_str)
            .to_string();
        let p = self.phases.entry(phase).or_default();
        p.messages += count;
        p.words += words;
    }

    fn close_round(&mut self, round: u64) {
        let budget = self.round_budget.max(1);
        // Broadcast heuristic: a sender that reaches all n−1 peers with
        // identical per-link words this round is counted as broadcasting
        // (exact under broadcast-only send rules, a structural heuristic
        // under unicast).
        let mut src_fanout: BTreeMap<u32, (u64, u64, u64, bool)> = BTreeMap::new();
        let mut peak_words = 0u64;
        for (&(src, dst), &words) in &self.round_links {
            self.link_round_words.observe(words);
            let util = words * 1000 / budget;
            self.util.observe(util);
            if words > budget {
                self.over_budget += 1;
            }
            if words > peak_words {
                peak_words = words;
            }
            self.peak_link_words = self.peak_link_words.max(words);
            // The reported peak location is the most *utilized*
            // (round, link) observation — words break ties, and the
            // earliest such observation wins (deterministic fold).
            if util > self.peak_util_milli
                || (util == self.peak_util_milli && words > self.peak_obs_words)
            {
                self.peak_util_milli = util;
                self.peak_obs_words = words;
                self.peak_round = round;
                self.peak_src = src;
                self.peak_dst = dst;
            }
            let e = self
                .link_totals
                .entry((src, dst))
                .or_insert_with(|| LinkTotal {
                    src,
                    dst,
                    words: 0,
                    peak_round_words: 0,
                    peak_round: 0,
                });
            e.words += words;
            if words > e.peak_round_words {
                e.peak_round_words = words;
                e.peak_round = round;
            }
            let f = src_fanout.entry(src).or_insert((0, 0, 0, true));
            f.0 += 1;
            f.1 += words;
            if f.0 == 1 {
                f.2 = words;
            } else if f.2 != words {
                f.3 = false;
            }
        }
        let full = (self.n as u64).saturating_sub(1);
        for (_, (fanout, total, _, uniform)) in src_fanout {
            if fanout == full && full > 0 && uniform {
                self.broadcast_words += total;
            } else {
                self.unicast_words += total;
            }
        }
        let before = self.machine.stats().machine_rounds;
        let machine_rounds = self.machine.end_round();
        debug_assert_eq!(self.machine.stats().machine_rounds, before + machine_rounds);
        self.rounds.push(RoundComm {
            round,
            messages: self.round_messages,
            words: self.round_words,
            links: self.round_links.len() as u64,
            peak_link_words: peak_words,
            budget_words: budget,
            machine_rounds,
        });
        self.round_links.clear();
        self.round_messages = 0;
        self.round_words = 0;
        self.round_budget = self.spec.bandwidth_words_per_link;
    }

    /// Clique size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The spec this ledger prices against.
    pub fn spec(&self) -> &ModelSpec {
        &self.spec
    }

    /// Executed rounds, in stream order.
    pub fn rounds(&self) -> &[RoundComm] {
        &self.rounds
    }

    /// Rounds skipped via fast-forward (no traffic by construction).
    pub fn fast_forward_rounds(&self) -> u64 {
        self.fast_forward_rounds
    }

    /// Total messages folded.
    pub fn messages(&self) -> u64 {
        self.messages
    }

    /// Total words folded (per-message floor of 1, as metered).
    pub fn words(&self) -> u64 {
        self.words
    }

    /// Cumulative words sent per node.
    pub fn node_sent(&self) -> &[u64] {
        &self.node_sent
    }

    /// Cumulative words received per node.
    pub fn node_recv(&self) -> &[u64] {
        &self.node_recv
    }

    /// Per-(round, active link) observations exceeding the effective
    /// budget — always 0 for a stream recorded from a live engine, whose
    /// `SendRules` refuse such sends (the zero-drift tests pin this).
    pub fn over_budget(&self) -> u64 {
        self.over_budget
    }

    /// Machine-level accounting under the spec's mapping: the
    /// [`MachineLedger`] fed every batch of the stream.
    pub fn machine_stats(&self) -> MachineStats {
        self.machine.stats()
    }

    /// The per-(round, active link) utilization histogram (‰ of budget).
    pub fn util_histogram(&self) -> &LogHistogram {
        &self.util
    }

    /// The per-(round, active link) word-count histogram.
    pub fn link_round_histogram(&self) -> &LogHistogram {
        &self.link_round_words
    }

    /// Cumulative ordered machine-pair remote words (`k × k`,
    /// row-major, diagonal zero).
    pub fn pair_words(&self) -> &[u64] {
        &self.pair_words
    }

    /// The `k` busiest links by cumulative words, descending (ties by
    /// `(src, dst)`).
    pub fn top_links(&self, k: usize) -> Vec<LinkTotal> {
        let mut all: Vec<LinkTotal> = self.link_totals.values().cloned().collect();
        all.sort_by(|a, b| {
            b.words
                .cmp(&a.words)
                .then((a.src, a.dst).cmp(&(b.src, b.dst)))
        });
        all.truncate(k);
        all
    }

    /// Number of distinct links that ever carried traffic.
    pub fn active_links(&self) -> u64 {
        self.link_totals.len() as u64
    }

    /// Summarizes the fold into a serializable [`CommReport`].
    pub fn report(&self) -> CommReport {
        let util = self.util.snapshot();
        let k = self.spec.machines(self.n) as u64;
        let remote: u64 = self.pair_words.iter().sum();
        let max_pair = self.pair_words.iter().copied().max().unwrap_or(0);
        // Cumulative pair skew: worst ordered pair vs the mean over all
        // k(k−1) ordered remote pairs, in thousandths (1000 = perfectly
        // balanced; 0 = no remote traffic at all).
        let pairs = k * k.saturating_sub(1);
        let pair_skew_milli = if remote == 0 || pairs == 0 {
            0
        } else {
            max_pair * 1000 * pairs / remote
        };
        CommReport {
            n: self.n as u64,
            budget_words: self.spec.bandwidth_words_per_link,
            link_mode: self.spec.link_mode.key().to_string(),
            machines: k,
            rounds: self.rounds.len() as u64,
            fast_forward_rounds: self.fast_forward_rounds,
            messages: self.messages,
            words: self.words,
            active_links: self.active_links(),
            link_rounds: util.count,
            peak_link_words: self.peak_link_words,
            peak_util_milli: self.peak_util_milli,
            peak_round: self.peak_round,
            peak_src: self.peak_src,
            peak_dst: self.peak_dst,
            p50_util_milli: util.quantile(0.50),
            p95_util_milli: util.quantile(0.95),
            p99_util_milli: util.quantile(0.99),
            mean_util_milli: util.mean() as u64,
            headroom_milli: 1000u64.saturating_sub(self.peak_util_milli),
            broadcast_words: self.broadcast_words,
            unicast_words: self.unicast_words,
            over_budget: self.over_budget,
            phases: self
                .phases
                .iter()
                .map(|(name, p)| (name.clone(), p.clone()))
                .collect(),
            machine: self.machine.stats(),
            pair_skew_milli,
        }
    }
}

/// Smallest clique size consistent with a recorded stream: one past the
/// highest node ID seen (floor 2, the smallest valid clique).
pub fn infer_n(events: &[Event]) -> usize {
    let mut hi = 0u32;
    for ev in events {
        match ev {
            Event::MessageBatch { src, dst, .. } => hi = hi.max(*src).max(*dst),
            Event::NodeCrash { node, .. } => hi = hi.max(*node),
            Event::NodeCompute { node, .. } => hi = hi.max(*node),
            _ => {}
        }
    }
    (hi as usize + 1).max(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(round: u64, src: u32, dst: u32, count: u32, words: u64) -> Event {
        Event::MessageBatch {
            round,
            src,
            dst,
            count,
            words,
        }
    }

    fn round_end(round: u64, messages: u64, words: u64) -> Event {
        Event::RoundEnd {
            round,
            messages,
            words,
        }
    }

    #[test]
    fn folds_rounds_links_and_totals() {
        let spec = ModelSpec::clique().with_bandwidth(4);
        let events = vec![
            Event::RoundStart { round: 0 },
            batch(0, 0, 1, 2, 3),
            batch(0, 2, 1, 1, 4),
            round_end(0, 3, 7),
            Event::RoundStart { round: 1 },
            batch(1, 1, 0, 1, 1),
            round_end(1, 1, 1),
        ];
        let lg = CommLedger::fold(4, &spec, &events).unwrap();
        assert_eq!(lg.messages(), 4);
        assert_eq!(lg.words(), 8);
        assert_eq!(lg.rounds().len(), 2);
        assert_eq!(lg.rounds()[0].links, 2);
        assert_eq!(lg.rounds()[0].peak_link_words, 4);
        assert_eq!(lg.rounds()[0].peak_util_milli(), 1000);
        assert_eq!(lg.rounds()[1].peak_link_words, 1);
        assert_eq!(lg.node_sent(), &[3, 1, 4, 0]);
        assert_eq!(lg.node_recv(), &[1, 7, 0, 0]);
        assert_eq!(lg.active_links(), 3);
        assert_eq!(lg.over_budget(), 0);
        let r = lg.report();
        assert_eq!(r.peak_link_words, 4);
        assert_eq!(r.peak_util_milli, 1000);
        assert_eq!(r.headroom_milli, 0);
        assert_eq!((r.peak_src, r.peak_dst, r.peak_round), (2, 1, 0));
        assert_eq!(r.link_rounds, 3);
    }

    #[test]
    fn squeeze_fault_shrinks_the_round_budget() {
        let spec = ModelSpec::clique().with_bandwidth(8);
        let events = vec![
            Event::RoundStart { round: 0 },
            Event::Fault {
                round: 0,
                kind: FaultKind::Squeeze,
                src: 0,
                dst: 0,
                index: 0,
                info: 2,
            },
            batch(0, 0, 1, 1, 2),
            round_end(0, 1, 2),
            Event::RoundStart { round: 1 },
            batch(1, 0, 1, 1, 2),
            round_end(1, 1, 2),
        ];
        let lg = CommLedger::fold(2, &spec, &events).unwrap();
        assert_eq!(lg.rounds()[0].budget_words, 2, "squeezed round");
        assert_eq!(lg.rounds()[1].budget_words, 8, "budget restored");
        assert_eq!(lg.rounds()[0].peak_util_milli(), 1000);
        assert_eq!(lg.rounds()[1].peak_util_milli(), 250);
        assert_eq!(lg.over_budget(), 0);
    }

    #[test]
    fn broadcast_fanout_is_classified_as_broadcast() {
        let spec = ModelSpec::clique();
        let events = vec![
            Event::RoundStart { round: 0 },
            // Node 0 reaches all three peers with equal words: broadcast.
            batch(0, 0, 1, 1, 2),
            batch(0, 0, 2, 1, 2),
            batch(0, 0, 3, 1, 2),
            // Node 1 sends to a single peer: unicast.
            batch(0, 1, 2, 1, 5),
            round_end(0, 4, 11),
        ];
        let lg = CommLedger::fold(4, &spec, &events).unwrap();
        let r = lg.report();
        assert_eq!(r.broadcast_words, 6);
        assert_eq!(r.unicast_words, 5);
    }

    #[test]
    fn phase_scopes_attribute_words_to_the_innermost_scope() {
        let spec = ModelSpec::clique();
        let events = vec![
            Event::ScopeEnter {
                name: "outer".into(),
                round: 0,
            },
            Event::RoundStart { round: 0 },
            batch(0, 0, 1, 1, 1),
            round_end(0, 1, 1),
            Event::ScopeEnter {
                name: "inner".into(),
                round: 1,
            },
            Event::RoundStart { round: 1 },
            batch(1, 0, 1, 1, 2),
            round_end(1, 1, 2),
            Event::ScopeExit {
                name: "inner".into(),
                delta: cc_trace::CostSnapshot::default(),
            },
            Event::ScopeExit {
                name: "outer".into(),
                delta: cc_trace::CostSnapshot::default(),
            },
            Event::RoundStart { round: 2 },
            batch(2, 1, 0, 1, 4),
            round_end(2, 1, 4),
        ];
        let lg = CommLedger::fold(2, &spec, &events).unwrap();
        let r = lg.report();
        let by_name: BTreeMap<&str, u64> = r
            .phases
            .iter()
            .map(|(name, p)| (name.as_str(), p.words))
            .collect();
        assert_eq!(by_name["outer"], 1);
        assert_eq!(by_name["inner"], 2);
        assert_eq!(by_name[UNSCOPED], 4);
    }

    #[test]
    fn kmachine_pair_words_split_by_mapping() {
        // n=4 on k=2: nodes {0,1} on machine 0, {2,3} on machine 1.
        let spec = ModelSpec::clique().kmachine(2);
        let events = vec![
            Event::RoundStart { round: 0 },
            batch(0, 0, 1, 1, 3), // local
            batch(0, 0, 2, 1, 5), // machine 0 → 1
            batch(0, 3, 1, 1, 7), // machine 1 → 0
            round_end(0, 3, 15),
        ];
        let lg = CommLedger::fold(4, &spec, &events).unwrap();
        assert_eq!(lg.pair_words(), &[0, 5, 7, 0]);
        let s = lg.machine_stats();
        assert_eq!(s.local_words, 3);
        assert_eq!(s.remote_words, 12);
        let r = lg.report();
        // max pair 7, mean over 2 ordered pairs 6 → skew 7000/6 = 1166‰.
        assert_eq!(r.pair_skew_milli, 7 * 1000 * 2 / 12);
    }

    #[test]
    fn fast_forward_counts_rounds_without_traffic() {
        let spec = ModelSpec::clique();
        let events = vec![
            Event::RoundStart { round: 0 },
            batch(0, 0, 1, 1, 1),
            round_end(0, 1, 1),
            Event::FastForward {
                from_round: 1,
                rounds: 100,
            },
        ];
        let lg = CommLedger::fold(2, &spec, &events).unwrap();
        assert_eq!(lg.rounds().len(), 1);
        assert_eq!(lg.fast_forward_rounds(), 100);
        let r = lg.report();
        assert_eq!(r.rounds, 1);
        assert_eq!(r.fast_forward_rounds, 100);
    }

    #[test]
    fn top_links_order_and_truncation() {
        let spec = ModelSpec::clique();
        let events = vec![
            Event::RoundStart { round: 0 },
            batch(0, 0, 1, 1, 2),
            batch(0, 1, 2, 1, 8),
            batch(0, 2, 0, 1, 2),
            round_end(0, 3, 12),
        ];
        let lg = CommLedger::fold(3, &spec, &events).unwrap();
        let top = lg.top_links(2);
        assert_eq!(top.len(), 2);
        assert_eq!((top[0].src, top[0].dst, top[0].words), (1, 2, 8));
        assert_eq!((top[1].src, top[1].dst), (0, 1), "tie broken by (src, dst)");
    }

    #[test]
    fn infer_n_floors_at_two() {
        assert_eq!(infer_n(&[]), 2);
        let events = vec![batch(0, 0, 6, 1, 1)];
        assert_eq!(infer_n(&events), 7);
    }
}
