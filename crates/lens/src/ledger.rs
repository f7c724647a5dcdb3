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
use cc_model::{MachineLedger, MachineStats, ModelError, ModelSpec, PairRows};
use cc_trace::{Event, FaultKind, LogHistogram};
use std::collections::HashMap;

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

/// One link's running totals (a [`LinkTotal`] without its key).
#[derive(Clone, Copy, Debug, Default)]
struct LinkStat {
    words: u64,
    peak_round_words: u64,
    peak_round: u64,
}

/// Folds model events into round-resolved communication accounting:
/// per-link and per-node word counts, utilization vs the spec's budget,
/// broadcast/unicast mix, per-phase attribution, and machine-pair skew
/// under the spec's mapping.
///
/// Per batch the fold does no tree lookup and no allocation beyond
/// amortized `Vec` growth: the batch is appended to the open round's
/// link list and charged to an interned phase. At the round's close its
/// sorted links fold into one [`PairRows`] row per sender. Storage grows
/// with the links that carried traffic, never with `n²`.
#[derive(Clone, Debug)]
pub struct CommLedger {
    n: usize,
    spec: ModelSpec,
    machine: MachineLedger,
    // --- open-round state ---
    round_budget: u64,
    /// The open round's `(src, dst, words)` batches in arrival order.
    round_links: Vec<(u32, u32, u64)>,
    /// The last closed round's links: `(src, dst)`-sorted, one per link.
    closed_links: Vec<(u32, u32, u64)>,
    round_messages: u64,
    round_words: u64,
    /// Open scopes, innermost last, as indices into `phases`.
    phase_stack: Vec<usize>,
    // --- cumulative ---
    rounds: Vec<RoundComm>,
    fast_forward_rounds: u64,
    messages: u64,
    words: u64,
    node_sent: Vec<u64>,
    node_recv: Vec<u64>,
    /// Cumulative traffic per link that ever carried any.
    link_totals: PairRows<LinkStat>,
    /// Interned scope names: index into `phases` by name.
    phase_ids: HashMap<String, usize>,
    /// Per interned scope: its name and, once it carried a batch, its
    /// traffic. Index 0 is [`UNSCOPED`].
    phases: Vec<(String, Option<PhaseComm>)>,
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
    faults: u64,
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
        Ok(CommLedger {
            n,
            spec: *spec,
            machine,
            round_budget: spec.bandwidth_words_per_link,
            round_links: Vec::new(),
            closed_links: Vec::new(),
            round_messages: 0,
            round_words: 0,
            phase_stack: Vec::new(),
            rounds: Vec::new(),
            fast_forward_rounds: 0,
            messages: 0,
            words: 0,
            node_sent: vec![0; n],
            node_recv: vec![0; n],
            link_totals: PairRows::new(n),
            phase_ids: HashMap::from([(UNSCOPED.to_string(), 0)]),
            phases: vec![(UNSCOPED.to_string(), None)],
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
            faults: 0,
        })
    }

    /// Builds a ledger by folding a recorded event stream.
    ///
    /// # Errors
    ///
    /// Propagates [`CommLedger::new`] and [`CommLedger::record`].
    pub fn fold(n: usize, spec: &ModelSpec, events: &[Event]) -> Result<Self, ModelError> {
        let mut ledger = CommLedger::new(n, spec)?;
        for ev in events {
            ledger.record(ev)?;
        }
        Ok(ledger)
    }

    /// Folds one event.
    ///
    /// # Errors
    ///
    /// [`ModelError::NodeOutOfRange`] for a batch naming a node outside
    /// the `n`-clique; the batch is not counted.
    pub fn record(&mut self, ev: &Event) -> Result<(), ModelError> {
        match ev {
            Event::RoundStart { .. } => {
                self.round_budget = self.spec.bandwidth_words_per_link;
            }
            Event::Fault { kind, info, .. } => {
                self.faults += 1;
                if *kind == FaultKind::Squeeze {
                    // The engines stamp `info` with the effective (already
                    // floored and capped) budget for the round being opened.
                    self.round_budget = self.round_budget.min((*info).max(1));
                }
            }
            Event::NodeCrash { .. } => self.faults += 1,
            Event::MessageBatch {
                src,
                dst,
                count,
                words,
                ..
            } => self.record_batch(*src, *dst, u64::from(*count), *words)?,
            Event::RoundEnd { round, .. } => self.close_round(*round),
            Event::FastForward { rounds, .. } => self.fast_forward_rounds += *rounds,
            // Phases are interned here, once per scope, so a batch
            // charges its phase by index.
            Event::ScopeEnter { name, .. } => {
                let id = match self.phase_ids.get(name.as_str()) {
                    Some(&id) => id,
                    None => {
                        let id = self.phases.len();
                        self.phase_ids.insert(name.clone(), id);
                        self.phases.push((name.clone(), None));
                        id
                    }
                };
                self.phase_stack.push(id);
            }
            Event::ScopeExit { name, .. }
                if self
                    .phase_stack
                    .last()
                    .is_some_and(|&id| self.phases[id].0 == *name) =>
            {
                self.phase_stack.pop();
            }
            _ => {}
        }
        Ok(())
    }

    fn record_batch(
        &mut self,
        src: u32,
        dst: u32,
        count: u64,
        words: u64,
    ) -> Result<(), ModelError> {
        // Machine accounting first: it refuses out-of-clique nodes before
        // anything is counted. Each batch is one pair charge.
        self.machine.record(src as usize, dst as usize, words)?;
        self.round_messages += count;
        self.round_words += words;
        self.messages += count;
        self.words += words;
        self.round_links.push((src, dst, words));
        self.node_sent[src as usize] += words;
        self.node_recv[dst as usize] += words;
        let phase = self.phase_stack.last().copied().unwrap_or(0);
        let p = self.phases[phase].1.get_or_insert_with(PhaseComm::default);
        p.messages += count;
        p.words += words;
        Ok(())
    }

    fn close_round(&mut self, round: u64) {
        let budget = self.round_budget.max(1);
        let mut links = std::mem::take(&mut self.round_links);
        // The engines emit one batch per link, `(src, dst)`-sorted, so
        // this check is the whole cost for them; an out-of-order or
        // repeated link (a hand-built file) is sorted and merged.
        if !links.is_sorted_by(|a, b| (a.0, a.1) < (b.0, b.1)) {
            links.sort_unstable_by_key(|&(src, dst, _)| (src, dst));
            links.dedup_by(|later, kept| {
                let same = (later.0, later.1) == (kept.0, kept.1);
                if same {
                    kept.2 += later.2;
                }
                same
            });
        }
        // Broadcast heuristic: a sender that reaches all n−1 peers with
        // identical per-link words this round is counted as broadcasting
        // (exact under broadcast-only send rules, a structural heuristic
        // under unicast). Sorted links group by sender.
        let full = (self.n as u64).saturating_sub(1);
        let mut peak_words = 0u64;
        for fanout in links.chunk_by(|a, b| a.0 == b.0) {
            let mut total = 0u64;
            for &(src, dst, words) in fanout {
                total += words;
                self.link_round_words.observe(words);
                let util = words * 1000 / budget;
                self.util.observe(util);
                if words > budget {
                    self.over_budget += 1;
                }
                peak_words = peak_words.max(words);
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
            }
            self.link_totals.fold_run(
                fanout[0].0,
                fanout.iter().map(|&(_, dst, words)| (dst, words)),
                |link, words| {
                    link.words += words;
                    if words > link.peak_round_words {
                        link.peak_round_words = words;
                        link.peak_round = round;
                    }
                },
            );
            let uniform = fanout.iter().all(|&(_, _, words)| words == fanout[0].2);
            if fanout.len() as u64 == full && full > 0 && uniform {
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
            links: links.len() as u64,
            peak_link_words: peak_words,
            budget_words: budget,
            machine_rounds,
        });
        // The closed round's links stay readable until the next close;
        // both buffers are reused.
        self.round_links = std::mem::replace(&mut self.closed_links, links);
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

    /// The most recently closed round's `((src, dst), words)` link loads,
    /// in `(src, dst)` order (empty before the first `RoundEnd`).
    pub fn closed_round_links(&self) -> impl Iterator<Item = ((u32, u32), u64)> + '_ {
        self.closed_links
            .iter()
            .map(|&(src, dst, words)| ((src, dst), words))
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

    /// Injected faults seen: every `Fault` event (squeezes included) and
    /// every `NodeCrash`.
    pub fn faults(&self) -> u64 {
        self.faults
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

    /// The `k` busiest links by cumulative words, descending (ties by
    /// `(src, dst)`).
    pub fn top_links(&self, k: usize) -> Vec<LinkTotal> {
        let mut all: Vec<LinkTotal> = self
            .link_totals
            .iter()
            .map(|(src, dst, link)| LinkTotal {
                src,
                dst,
                words: link.words,
                peak_round_words: link.peak_round_words,
                peak_round: link.peak_round,
            })
            .collect();
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
        let remote = self.machine.stats().remote_words;
        let max_pair = self.machine.max_pair_total();
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
            phases: self.phase_report(),
            machine: self.machine.stats(),
            pair_skew_milli,
        }
    }

    /// Phases that carried at least one batch, sorted by name (names are
    /// interned, so the order is total).
    fn phase_report(&self) -> Vec<(String, PhaseComm)> {
        let mut phases: Vec<(String, PhaseComm)> = self
            .phases
            .iter()
            .filter_map(|(name, p)| Some((name.clone(), p.clone()?)))
            .collect();
        phases.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        phases
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
    use std::collections::BTreeMap;

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
    fn a_batch_outside_the_clique_is_refused() {
        let events = vec![
            Event::RoundStart { round: 0 },
            batch(0, 0, 6, 1, 1),
            round_end(0, 1, 1),
        ];
        let err = CommLedger::fold(4, &ModelSpec::clique(), &events).unwrap_err();
        assert_eq!(err, ModelError::NodeOutOfRange { node: 6, n: 4 });
        assert!(err.to_string().contains("node 6"), "{err}");
    }

    #[test]
    fn infer_n_floors_at_two() {
        assert_eq!(infer_n(&[]), 2);
        let events = vec![batch(0, 0, 6, 1, 1)];
        assert_eq!(infer_n(&events), 7);
    }
}
