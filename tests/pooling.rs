//! Buffer pooling is invisible: the pooled delivery path (recycled inbox
//! buffers, reused staging, flat batch accumulation, clone-free
//! broadcast) must produce byte-identical inboxes, transcript, and cost
//! against a straightforward pre-pool reference — on the direct
//! simulator and on both runtime backends.
//!
//! The reference below *is* the old algorithm: fresh nested vectors each
//! round, filled in sender-ID order. If pooling ever leaks a stale
//! envelope, reorders an inbox, or miscounts a word, these properties
//! catch it.

use congested_clique::net::{CliqueNet, NetConfig};
use congested_clique::runtime::{Ctx, Program, Runtime};
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
    transcript: Vec<(u64, u32, u32)>,
    messages: u64,
    words: u64,
    bits: u64,
    rounds: u64,
}

/// The pre-pool reference: fresh nested vectors per round, filled in
/// sender-ID order, metered in send order.
fn reference(seed: u64, n: usize, word_bits: u64) -> Expected {
    let mut inboxes: Vec<RoundInboxes> = vec![vec![Vec::new(); n]];
    let mut transcript = Vec::new();
    let (mut messages, mut words) = (0u64, 0u64);
    for round in 0..ROUNDS {
        let mut next: Vec<Vec<(usize, Vec<u64>)>> = (0..n).map(|_| Vec::new()).collect();
        for src in 0..n {
            for (dst, payload) in traffic(seed, n, round, src) {
                messages += 1;
                words += (payload.len() as u64).max(1);
                transcript.push((round, src as u32, dst as u32));
                next[dst].push((src, payload));
            }
        }
        inboxes.push(next);
    }
    Expected {
        inboxes,
        transcript,
        messages,
        words,
        bits: words * word_bits,
        rounds: ROUNDS + 1,
    }
}

/// Drives the traffic pattern through the direct simulator, recording
/// every delivered inbox.
fn run_cliquenet(seed: u64, n: usize) -> Expected {
    let cfg = NetConfig::kt1(n)
        .with_seed(seed)
        .with_link_words(16)
        .with_transcript();
    let mut nt: CliqueNet<Vec<u64>> = CliqueNet::new(cfg);
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
    Expected {
        inboxes,
        transcript: nt.transcript().to_vec(),
        messages: c.messages,
        words: c.words,
        bits: c.bits,
        rounds: c.rounds,
    }
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
    let cfg = NetConfig::kt1(n)
        .with_seed(seed)
        .with_link_words(16)
        .with_transcript();
    let programs: Vec<TrafficNode> = (0..n)
        .map(|_| TrafficNode {
            seed,
            n,
            received: Vec::new(),
        })
        .collect();
    let (finished, cost, transcript) = if parallel {
        let mut rt = Runtime::parallel_with_threads(cfg, 4);
        let f = rt.run(programs, ROUNDS + 4).unwrap();
        (f, rt.cost(), rt.transcript().to_vec())
    } else {
        let mut rt = Runtime::serial(cfg);
        let f = rt.run(programs, ROUNDS + 4).unwrap();
        (f, rt.cost(), rt.transcript().to_vec())
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
        transcript,
        messages: cost.messages,
        words: cost.words,
        bits: cost.bits,
        rounds: cost.rounds,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The direct simulator's pooled path reproduces the pre-pool
    /// reference byte for byte.
    #[test]
    fn cliquenet_pooling_is_invisible(seed in any::<u64>(), n in 3usize..12) {
        let word_bits = NetConfig::kt1(n).word_bits();
        prop_assert_eq!(run_cliquenet(seed, n), reference(seed, n, word_bits));
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
