//! The [`CommLedger`]: one fold over the model event stream.
//!
//! The ledger is a pure consumer of [`cc_trace::Event`] — it adds no
//! second bookkeeping path to the engines. Every quantity it reports is
//! derived from the same `MessageBatch`/`RoundStart`/`RoundEnd`/`Fault`
//! stream the engines already emit, and the machine-level numbers come
//! from pricing each closed round's link table through a
//! [`cc_model::MachineLedger`] — the only k-machine price in the
//! workspace.
//!
//! Event contract (identical across `CliqueNet` and both runtime
//! backends, see their emission sites): per executed round, `RoundStart`
//! → optional `Fault { kind: Squeeze, info: effective budget }` →
//! `NodeCrash`* → `MessageBatch`* (pre-fault sends, `(src, dst)`-sorted,
//! one per link, words already floored at 1 per message exactly as
//! `SendRules` meters them) → delivery-fault records → `RoundEnd`.
//! `FastForward` advances the round counter without traffic. Scope
//! events bracket rounds.
//!
//! The fold is per round. A round's batches only append rows to its link
//! table, whether they arrive one [`Event::MessageBatch`] at a time
//! ([`CommLedger::record`], the path of a recorded stream) or as the
//! engine's whole row slice ([`CommLedger::record_batches`], the path of
//! a live run through [`LedgerTracer`](crate::LedgerTracer)). Every
//! per-link quantity — totals, per-node words, both histograms, the
//! peak, the broadcast mix, cumulative link totals and the machine price
//! — is computed in one walk over the sorted table at `RoundEnd`. A
//! round's traffic therefore counts once its `RoundEnd` is folded; rows
//! of a round that never closes are never counted.

use crate::report::{CommReport, PhaseComm};
use cc_model::{MachineLedger, MachineStats, ModelError, ModelSpec, PairRows};
use cc_trace::{Event, FaultKind, LogHistogram};
use std::collections::HashMap;

/// Scope label charged for traffic outside any phase scope.
pub const UNSCOPED: &str = "(unscoped)";

/// Per-link word counts below this are tallied per round before they
/// reach the histograms (a link rarely carries more than its budget of 8
/// words); larger ones are observed directly.
const TALLIED: usize = 64;

/// One link's traffic in one round, as the engines hand it to a tracer:
/// `(src, dst, count, words)`.
pub type LinkRow = (u32, u32, u32, u64);

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
/// Per batch the fold does a range check and one append: no tree lookup,
/// no allocation beyond amortized `Vec` growth. At the round's close its
/// sorted links are walked once (see the module docs). Storage grows
/// with the links that carried traffic, never with `n²`.
#[derive(Clone, Debug)]
pub struct CommLedger {
    n: usize,
    spec: ModelSpec,
    machine: MachineLedger,
    // --- open-round state ---
    round_budget: u64,
    /// The open round's rows in arrival order.
    round_links: Vec<LinkRow>,
    /// How many of `round_links` a scope change mid-round already
    /// charged to a phase (0 for every engine stream: scopes bracket
    /// rounds).
    charged: usize,
    /// The last closed round's links: `(src, dst)`-sorted, one per link.
    closed_links: Vec<LinkRow>,
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
            charged: 0,
            closed_links: Vec::new(),
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
            } => {
                self.check_row((*src, *dst))?;
                self.round_links.push((*src, *dst, *count, *words));
            }
            Event::RoundEnd { round, .. } => self.close_round(*round),
            Event::FastForward { rounds, .. } => self.fast_forward_rounds += *rounds,
            // Phases are interned here, once per scope, so a round
            // charges its phase by index.
            Event::ScopeEnter { name, .. } => {
                self.charge_open_rows();
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
                self.charge_open_rows();
                self.phase_stack.pop();
            }
            _ => {}
        }
        Ok(())
    }

    /// Folds one round's batches at once: the rows
    /// [`Tracer::record_batches`](cc_trace::Tracer::record_batches)
    /// receives, the same fold as one [`Event::MessageBatch`] per row.
    ///
    /// # Errors
    ///
    /// [`ModelError::NodeOutOfRange`] for the first row naming a node
    /// outside the `n`-clique; the rows before it are kept, it and the
    /// rows after it are not.
    pub fn record_batches(&mut self, rows: &[LinkRow]) -> Result<(), ModelError> {
        let n = self.n as u32;
        let valid = rows
            .iter()
            .position(|&(src, dst, _, _)| src >= n || dst >= n)
            .unwrap_or(rows.len());
        self.round_links.extend_from_slice(&rows[..valid]);
        match rows.get(valid) {
            Some(&(src, dst, _, _)) => self.check_row((src, dst)),
            None => Ok(()),
        }
    }

    /// Refuses a link with an endpoint outside the clique.
    fn check_row(&self, (src, dst): (u32, u32)) -> Result<(), ModelError> {
        match [src, dst].into_iter().find(|&v| v as usize >= self.n) {
            Some(node) => Err(ModelError::NodeOutOfRange {
                node: node as usize,
                n: self.n,
            }),
            None => Ok(()),
        }
    }

    /// Charges `messages` and `words` to the innermost open phase.
    fn charge_phase(&mut self, messages: u64, words: u64) {
        let phase = self.phase_stack.last().copied().unwrap_or(0);
        let p = self.phases[phase].1.get_or_insert_with(PhaseComm::default);
        p.messages += messages;
        p.words += words;
    }

    /// Charges the open round's rows not yet charged to the innermost
    /// phase, before a scope change mid-round moves it. Engine streams
    /// never change scope mid-round, so this is a no-op for them.
    fn charge_open_rows(&mut self) {
        let fresh = &self.round_links[self.charged..];
        if fresh.is_empty() {
            return;
        }
        let messages = fresh.iter().map(|row| u64::from(row.2)).sum();
        let words = fresh.iter().map(|row| row.3).sum();
        self.charged = self.round_links.len();
        self.charge_phase(messages, words);
    }

    fn close_round(&mut self, round: u64) {
        // Rows already charged to a phase mid-round stay with it; the
        // rest go to the phase open at the close, from the walk's totals
        // when nothing was charged early.
        let whole_round_uncharged = self.charged == 0 && !self.round_links.is_empty();
        if !whole_round_uncharged {
            self.charge_open_rows();
        }
        self.charged = 0;
        let budget = self.round_budget.max(1);
        let mut links = std::mem::take(&mut self.round_links);
        // The engines emit one row per link, `(src, dst)`-sorted, so this
        // check is the whole cost for them; an out-of-order or repeated
        // link (a hand-built file) is sorted and merged.
        if !links.is_sorted_by(|a, b| (a.0, a.1) < (b.0, b.1)) {
            links.sort_unstable_by_key(|&(src, dst, _, _)| (src, dst));
            links.dedup_by(|later, kept| {
                let same = (later.0, later.1) == (kept.0, kept.1);
                if same {
                    kept.2 += later.2;
                    kept.3 += later.3;
                }
                same
            });
        }
        // Broadcast heuristic: a sender that reaches all n−1 peers with
        // identical per-link words this round is counted as broadcasting
        // (exact under broadcast-only send rules, a structural heuristic
        // under unicast). Sorted links group by sender.
        let full = (self.n as u64).saturating_sub(1);
        let (mut round_messages, mut round_words) = (0u64, 0u64);
        // The round's first busiest link: utilization rises with words,
        // so it is also the round's most utilized one.
        let (mut peak_words, mut peak_link) = (0u64, (0u32, 0u32));
        // Per-link word counts below `TALLIED`, counted by value (and a
        // bit mask of the values present): each distinct value feeds
        // both histograms once, after the walk.
        let (mut tally, mut tallied) = ([0u64; TALLIED], 0u64);
        let mut over_budget = 0;
        let node_recv = &mut self.node_recv[..];
        for fanout in links.chunk_by(|a, b| a.0 == b.0) {
            let src = fanout[0].0;
            let (mut total, mut uniform) = (0u64, true);
            for &(_, dst, count, words) in fanout {
                round_messages += u64::from(count);
                total += words;
                uniform &= words == fanout[0].3;
                node_recv[dst as usize] += words;
                over_budget += u64::from(words > budget);
                if words > peak_words {
                    peak_words = words;
                    peak_link = (src, dst);
                }
                match tally.get_mut(words as usize) {
                    Some(seen) => {
                        *seen += 1;
                        tallied |= 1 << words;
                    }
                    None => {
                        self.link_round_words.observe(words);
                        self.util.observe(words * 1000 / budget);
                    }
                }
            }
            round_words += total;
            self.node_sent[src as usize] += total;
            self.link_totals.fold_run(
                src,
                fanout.iter().map(|&(_, dst, _, words)| (dst, words)),
                |link, words| {
                    link.words += words;
                    if words > link.peak_round_words {
                        link.peak_round_words = words;
                        link.peak_round = round;
                    }
                },
            );
            if fanout.len() as u64 == full && full > 0 && uniform {
                self.broadcast_words += total;
            } else {
                self.unicast_words += total;
            }
        }
        while tallied != 0 {
            let words = tallied.trailing_zeros();
            tallied &= tallied - 1;
            let seen = tally[words as usize];
            let words = u64::from(words);
            self.link_round_words.observe_n(words, seen);
            self.util.observe_n(words * 1000 / budget, seen);
        }
        self.over_budget += over_budget;
        // The reported peak location is the most *utilized* (round, link)
        // observation — words break ties, and the earliest such
        // observation wins (deterministic fold).
        let peak_util = peak_words * 1000 / budget;
        if !links.is_empty()
            && (peak_util > self.peak_util_milli
                || (peak_util == self.peak_util_milli && peak_words > self.peak_obs_words))
        {
            self.peak_util_milli = peak_util;
            self.peak_obs_words = peak_words;
            self.peak_round = round;
            (self.peak_src, self.peak_dst) = peak_link;
        }
        self.peak_link_words = self.peak_link_words.max(peak_words);
        self.messages += round_messages;
        self.words += round_words;
        if whole_round_uncharged {
            self.charge_phase(round_messages, round_words);
        }
        let machine_rounds = self
            .machine
            .price_round(links.iter().map(|&(src, dst, _, words)| (src, dst, words)));
        self.rounds.push(RoundComm {
            round,
            messages: round_messages,
            words: round_words,
            links: links.len() as u64,
            peak_link_words: peak_words,
            budget_words: budget,
            machine_rounds,
        });
        // The closed round's links stay readable until the next close;
        // both buffers are reused.
        self.round_links = std::mem::replace(&mut self.closed_links, links);
        self.round_links.clear();
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
            .map(|&(src, dst, _, words)| ((src, dst), words))
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
    /// [`MachineLedger`] that priced every closed round's link table.
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
        // Under the one-to-one mapping the pairs are the links.
        let max_pair = self.machine.max_pair_total().unwrap_or_else(|| {
            self.link_totals
                .iter()
                .filter(|&(src, dst, _)| src != dst)
                .map(|(_, _, link)| link.words)
                .max()
                .unwrap_or(0)
        });
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
                delta: cc_trace::Cost::default(),
            },
            Event::ScopeExit {
                name: "outer".into(),
                delta: cc_trace::Cost::default(),
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
    fn a_round_of_rows_folds_like_its_batch_events() {
        let spec = ModelSpec::clique().with_bandwidth(4).kmachine(2);
        let rows = [(0, 1, 2, 3), (0, 2, 1, 4), (2, 1, 1, 1), (3, 0, 1, 2)];
        let mut events = vec![Event::RoundStart { round: 0 }];
        events.extend(
            rows.iter()
                .map(|&(src, dst, count, words)| batch(0, src, dst, count, words)),
        );
        events.push(round_end(0, 5, 10));
        let by_event = CommLedger::fold(4, &spec, &events).unwrap();
        let mut by_rows = CommLedger::new(4, &spec).unwrap();
        by_rows.record(&Event::RoundStart { round: 0 }).unwrap();
        by_rows.record_batches(&rows).unwrap();
        by_rows.record(&round_end(0, 5, 10)).unwrap();
        assert_eq!(by_rows.report(), by_event.report());
        assert_eq!(by_rows.rounds(), by_event.rounds());
        assert_eq!(by_rows.top_links(9), by_event.top_links(9));
        assert_eq!(by_rows.machine_stats(), by_event.machine_stats());
    }

    #[test]
    fn a_round_counts_at_its_close() {
        let spec = ModelSpec::clique();
        let mut lg = CommLedger::new(3, &spec).unwrap();
        lg.record(&Event::RoundStart { round: 0 }).unwrap();
        lg.record(&batch(0, 0, 1, 1, 2)).unwrap();
        assert_eq!((lg.messages(), lg.words(), lg.rounds().len()), (0, 0, 0));
        assert_eq!(lg.node_sent(), &[0, 0, 0]);
        lg.record(&round_end(0, 1, 2)).unwrap();
        assert_eq!((lg.messages(), lg.words(), lg.rounds().len()), (1, 2, 1));
        assert_eq!(lg.node_sent(), &[2, 0, 0]);
    }

    #[test]
    fn a_scope_change_mid_round_splits_the_round_between_phases() {
        // Engine streams open and close scopes between rounds; a
        // hand-built one may not, and each batch still goes to the scope
        // that was innermost when it arrived.
        let spec = ModelSpec::clique();
        let events = vec![
            Event::RoundStart { round: 0 },
            batch(0, 0, 1, 1, 1),
            Event::ScopeEnter {
                name: "late".into(),
                round: 0,
            },
            batch(0, 1, 0, 2, 5),
            round_end(0, 3, 6),
            Event::ScopeExit {
                name: "late".into(),
                delta: cc_trace::Cost::default(),
            },
        ];
        let lg = CommLedger::fold(2, &spec, &events).unwrap();
        let phases = lg.report().phases;
        assert_eq!(
            phases,
            [
                (
                    "(unscoped)".to_string(),
                    PhaseComm {
                        messages: 1,
                        words: 1
                    }
                ),
                (
                    "late".to_string(),
                    PhaseComm {
                        messages: 2,
                        words: 5
                    }
                ),
            ]
        );
    }

    #[test]
    fn one_to_one_pair_skew_reads_the_link_totals() {
        // n = 3, one-to-one: 6 ordered pairs. Link 0→1 carries 2 + 4
        // words over two rounds, 2→0 carries 5 in one: the worst pair
        // holds 6 of 11 remote words, 6 × 1000 × 6 / 11 = 3272‰.
        let spec = ModelSpec::clique();
        let events = vec![
            Event::RoundStart { round: 0 },
            batch(0, 0, 1, 1, 2),
            batch(0, 2, 0, 1, 5),
            round_end(0, 2, 7),
            Event::RoundStart { round: 1 },
            batch(1, 0, 1, 1, 4),
            round_end(1, 1, 4),
        ];
        let lg = CommLedger::fold(3, &spec, &events).unwrap();
        assert_eq!(lg.report().pair_skew_milli, 3272);
        assert_eq!(lg.machine_stats().max_pair_words, 5);
    }

    #[test]
    fn infer_n_floors_at_two() {
        assert_eq!(infer_n(&[]), 2);
        let events = vec![batch(0, 0, 6, 1, 1)];
        assert_eq!(infer_n(&events), 7);
    }
}
