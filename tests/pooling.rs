//! Buffer pooling is invisible: the pooled delivery path (recycled inbox
//! buffers, reused staging, flat batch accumulation, clone-free
//! broadcast) must produce byte-identical inboxes and cost
//! against a straightforward pre-pool reference — on the direct
//! simulator and on both runtime backends.
//!
//! The reference below *is* the old algorithm: fresh nested vectors each
//! round, filled in sender-ID order, metered message by message. If
//! pooling ever leaks a stale envelope, reorders an inbox, or miscounts a
//! word, these properties catch it. The simulator meters each sender
//! once, after its last message, on a plain, a traced and a faulted
//! delivery path; the same traffic runs down each of them, and once more
//! with a sender that breaks its budget mid-round.

use congested_clique::net::{CliqueNet, FaultPlan, NetConfig, NetError};
use congested_clique::runtime::{Ctx, Program, Runtime};
use congested_clique::trace::{Event, RecordingTracer};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Rounds of traffic each case drives (delivery adds one more round).
const ROUNDS: u64 = 6;

/// The deterministic traffic pattern: what `node` sends in `round`.
///
/// Destinations are drawn *unsorted* and with repeats, so the
/// by-construction inbox ordering actually gets exercised; payload sizes
/// vary from empty (1-word floor) to 3 words, well under the budget.
fn traffic(seed: u64, n: usize, round: u64, node: usize) -> Vec<(usize, Vec<u64>)> {
    let mut rng = ChaCha8Rng::seed_from_u64(
        seed ^ (round.wrapping_mul(0x9E37_79B9_7F4A_7C15)) ^ (node as u64).wrapping_shl(17),
    );
    let k = rng.gen_range(0..4usize);
    (0..k)
        .map(|_| {
            let dst = (node + rng.gen_range(1..n)) % n;
            let words = rng.gen_range(0..4usize);
            let payload = (0..words).map(|_| rng.gen::<u64>()).collect();
            (dst, payload)
        })
        .collect()
}

/// `(src, payload)` pairs per node per round — the delivered view a run
/// must reproduce exactly.
type RoundInboxes = Vec<Vec<(usize, Vec<u64>)>>;

/// What a run must reproduce exactly.
#[derive(Debug, PartialEq, Eq)]
struct Expected {
    /// `inboxes[round][node]` = the `(src, payload)` list delivered to
    /// `node` at the start of `round` (round 0 is empty).
    inboxes: Vec<RoundInboxes>,
    messages: u64,
    words: u64,
    bits: u64,
    rounds: u64,
}

/// The pre-pool reference: fresh nested vectors per round, filled in
/// sender-ID order, metered in send order.
fn reference(seed: u64, n: usize, word_bits: u64) -> Expected {
    let mut inboxes: Vec<RoundInboxes> = vec![vec![Vec::new(); n]];
    let (mut messages, mut words) = (0u64, 0u64);
    for round in 0..ROUNDS {
        let mut next: Vec<Vec<(usize, Vec<u64>)>> = (0..n).map(|_| Vec::new()).collect();
        for src in 0..n {
            for (dst, payload) in traffic(seed, n, round, src) {
                messages += 1;
                words += (payload.len() as u64).max(1);
                next[dst].push((src, payload));
            }
        }
        inboxes.push(next);
    }
    Expected {
        inboxes,
        messages,
        words,
        bits: words * word_bits,
        rounds: ROUNDS + 1,
    }
}

/// One `MessageBatch` event's fields: `(round, src, dst, count, words)`.
type Batch = (u64, u32, u32, u32, u64);

/// The per-link batches the reference traffic implies, sorted — what a
/// traced run must emit as `MessageBatch` events.
fn reference_batches(seed: u64, n: usize) -> Vec<Batch> {
    let mut batches = std::collections::BTreeMap::new();
    for round in 0..ROUNDS {
        for src in 0..n {
            for (dst, payload) in traffic(seed, n, round, src) {
                let slot = batches
                    .entry((round, src as u32, dst as u32))
                    .or_insert((0u32, 0u64));
                slot.0 += 1;
                slot.1 += (payload.len() as u64).max(1);
            }
        }
    }
    batches
        .into_iter()
        .map(|((round, src, dst), (count, words))| (round, src, dst, count, words))
        .collect()
}

/// Which of the net's delivery paths a run takes.
#[derive(Clone, Copy, Debug)]
enum Path {
    /// No tracer, no injector.
    Plain,
    /// A [`RecordingTracer`]: batches are folded per message.
    Traced,
    /// A traced run under an empty [`FaultPlan`], which always decides
    /// `Deliver`: every sender goes through the fault path.
    Faulted,
}

/// A fresh net on the given delivery path, with the tracer it records
/// into (`None` on the plain path).
fn net_on(path: Path, seed: u64, n: usize) -> (CliqueNet<Vec<u64>>, Option<RecordingTracer>) {
    let cfg = NetConfig::kt1(n).with_seed(seed).with_link_words(16);
    let mut nt: CliqueNet<Vec<u64>> = CliqueNet::new(cfg);
    if let Path::Plain = path {
        return (nt, None);
    }
    let rec = RecordingTracer::new();
    nt.set_tracer(Box::new(rec.clone()));
    if let Path::Faulted = path {
        nt.set_fault_injector(Box::new(FaultPlan::new(0)));
    }
    (nt, Some(rec))
}

/// The `MessageBatch` events of a recorded run.
fn batches_of(rec: &RecordingTracer) -> Vec<Batch> {
    rec.events()
        .into_iter()
        .filter_map(|e| match e {
            Event::MessageBatch {
                round,
                src,
                dst,
                count,
                words,
            } => Some((round, src, dst, count, words)),
            _ => None,
        })
        .collect()
}

/// Drives the traffic pattern through the direct simulator, recording
/// every delivered inbox, and returns the batches a tracer saw.
fn run_cliquenet(path: Path, seed: u64, n: usize) -> (Expected, Option<Vec<Batch>>) {
    let (mut nt, rec) = net_on(path, seed, n);
    let mut inboxes = Vec::new();
    for round in 0..=ROUNDS {
        let mut seen: Vec<Vec<(usize, Vec<u64>)>> = (0..n).map(|_| Vec::new()).collect();
        nt.step(|node, inbox, out| {
            seen[node] = inbox.iter().map(|e| (e.src, e.msg.clone())).collect();
            if round < ROUNDS {
                for (dst, payload) in traffic(seed, n, round, node) {
                    out.send(dst, payload).unwrap();
                }
            }
        })
        .unwrap();
        inboxes.push(seen);
    }
    let c = nt.cost();
    let run = Expected {
        inboxes,
        messages: c.messages,
        words: c.words,
        bits: c.bits,
        rounds: c.rounds,
    };
    (run, rec.as_ref().map(batches_of))
}

/// Runs the traffic for `round` full rounds, then a round in which
/// `offender` sends its traffic and then one message wider than its
/// link. Returns the error, the cost at that point, what the next round
/// delivers, and how many nodes the round after that runs.
fn run_budget_break(
    path: Path,
    seed: u64,
    n: usize,
    round: u64,
    offender: usize,
) -> (NetError, (u64, u64, u64, u64), RoundInboxes, usize) {
    let (mut nt, _rec) = net_on(path, seed, n);
    for r in 0..round {
        nt.step(|node, _, out| {
            for (dst, payload) in traffic(seed, n, r, node) {
                out.send(dst, payload).unwrap();
            }
        })
        .unwrap();
    }
    let err = nt
        .step(|node, _, out| {
            assert!(node <= offender, "no node runs past the offender");
            for (dst, payload) in traffic(seed, n, round, node) {
                out.send(dst, payload).unwrap();
            }
            if node == offender {
                let _ = out.send((node + 1) % n, vec![0; 17]);
            }
        })
        .unwrap_err();
    let c = nt.cost();
    let mut seen: RoundInboxes = (0..n).map(|_| Vec::new()).collect();
    nt.step(|node, inbox, _| {
        seen[node] = inbox.iter().map(|e| (e.src, e.msg.clone())).collect();
    })
    .unwrap();
    let mut ran = 0;
    nt.step(|_, _, _| ran += 1).unwrap();
    (err, (c.rounds, c.messages, c.words, c.bits), seen, ran)
}

/// One node of the runtime version: replays the same traffic and records
/// what it receives each round.
struct TrafficNode {
    seed: u64,
    n: usize,
    received: Vec<(u64, usize, Vec<u64>)>,
}

impl Program for TrafficNode {
    type Msg = Vec<u64>;

    fn start(&mut self, ctx: &mut Ctx<'_, '_, Vec<u64>>) {
        for (dst, payload) in traffic(self.seed, self.n, 0, ctx.me()) {
            ctx.send(dst, payload).unwrap();
        }
    }

    fn round(
        &mut self,
        ctx: &mut Ctx<'_, '_, Vec<u64>>,
        inbox: &[congested_clique::net::Envelope<Vec<u64>>],
    ) -> bool {
        let round = ctx.round();
        for env in inbox {
            self.received.push((round, env.src, env.msg.clone()));
        }
        if round < ROUNDS {
            for (dst, payload) in traffic(self.seed, self.n, round, ctx.me()) {
                ctx.send(dst, payload).unwrap();
            }
        }
        round >= ROUNDS
    }
}

/// Drives the traffic pattern through a [`Runtime`] backend.
fn run_backend(seed: u64, n: usize, parallel: bool) -> Expected {
    let cfg = NetConfig::kt1(n).with_seed(seed).with_link_words(16);
    let programs: Vec<TrafficNode> = (0..n)
        .map(|_| TrafficNode {
            seed,
            n,
            received: Vec::new(),
        })
        .collect();
    let (finished, cost) = if parallel {
        let mut rt = Runtime::parallel_with_threads(cfg, 4);
        let f = rt.run(programs, ROUNDS + 4).unwrap();
        (f, rt.cost())
    } else {
        let mut rt = Runtime::serial(cfg);
        let f = rt.run(programs, ROUNDS + 4).unwrap();
        (f, rt.cost())
    };
    // Rebuild the per-round inbox view from each node's receive log.
    let mut inboxes: Vec<RoundInboxes> = (0..=ROUNDS)
        .map(|_| (0..n).map(|_| Vec::new()).collect())
        .collect();
    for (node, prog) in finished.iter().enumerate() {
        for (round, src, payload) in &prog.received {
            inboxes[*round as usize][node].push((*src, payload.clone()));
        }
    }
    Expected {
        inboxes,
        messages: cost.messages,
        words: cost.words,
        bits: cost.bits,
        rounds: cost.rounds,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The direct simulator's pooled path reproduces the pre-pool
    /// reference byte for byte, untraced, traced, and under an injector
    /// that delivers everything; the traced runs emit the reference's
    /// per-link batches.
    #[test]
    fn cliquenet_pooling_is_invisible(seed in any::<u64>(), n in 3usize..12) {
        let word_bits = NetConfig::kt1(n).word_bits();
        let (plain, none) = run_cliquenet(Path::Plain, seed, n);
        prop_assert_eq!(plain, reference(seed, n, word_bits));
        prop_assert!(none.is_none());
        for path in [Path::Traced, Path::Faulted] {
            let (run, batches) = run_cliquenet(path, seed, n);
            prop_assert_eq!(run, reference(seed, n, word_bits), "{:?}", path);
            prop_assert_eq!(batches, Some(reference_batches(seed, n)), "{:?}", path);
        }
    }

    /// A sender that breaks its budget aborts the round on every delivery
    /// path: the cost holds every earlier round plus the senders below
    /// the offender, the offender's own sends are neither metered nor
    /// delivered, and the net steps on afterwards with every node.
    #[test]
    fn a_budget_break_meters_and_delivers_only_the_senders_below(
        seed in any::<u64>(),
        n in 3usize..12,
        round in 0u64..ROUNDS,
        pick in any::<usize>(),
    ) {
        let offender = pick % n;
        let word_bits = NetConfig::kt1(n).word_bits();
        let mut next: RoundInboxes = (0..n).map(|_| Vec::new()).collect();
        let (mut messages, mut words) = (0u64, 0u64);
        for r in 0..=round {
            let senders = if r == round { offender } else { n };
            for src in 0..senders {
                for (dst, payload) in traffic(seed, n, r, src) {
                    messages += 1;
                    words += (payload.len() as u64).max(1);
                    if r == round {
                        next[dst].push((src, payload));
                    }
                }
            }
        }
        for path in [Path::Plain, Path::Traced, Path::Faulted] {
            let (err, cost, seen, ran) = run_budget_break(path, seed, n, round, offender);
            let is_too_large = matches!(err, NetError::MessageTooLarge { src, .. } if src == offender);
            prop_assert!(is_too_large, "{:?}: {:?}", path, err);
            prop_assert_eq!(cost, (round, messages, words, words * word_bits), "{:?}", path);
            prop_assert_eq!(&seen, &next, "{:?}", path);
            prop_assert_eq!(ran, n, "{:?}", path);
        }
    }

    /// Both runtime backends, driven through the pooled driver loop,
    /// reproduce the same reference — and therefore each other.
    #[test]
    fn runtime_pooling_is_invisible(seed in any::<u64>(), n in 3usize..12) {
        let word_bits = NetConfig::kt1(n).word_bits();
        let expected = reference(seed, n, word_bits);
        prop_assert_eq!(run_backend(seed, n, false), expected);
        let expected = reference(seed, n, word_bits);
        prop_assert_eq!(run_backend(seed, n, true), expected);
    }
}
