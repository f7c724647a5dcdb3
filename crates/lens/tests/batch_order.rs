//! The fold is a function of each round's *multiset* of link loads, not
//! of the order or granularity the batches arrive in.
//!
//! The engines emit one `(src, dst)`-sorted batch per link, which the
//! ledger takes as is; any other shape (a hand-built file) goes through
//! its sort-and-merge path. Both must give the same answer, down to the
//! peak tie-breaks and histogram feeds.

use cc_lens::CommLedger;
use cc_model::ModelSpec;
use cc_trace::{CostSnapshot, Event, FaultKind};
use proptest::prelude::*;

/// SplitMix64: the stream generator's only source of randomness.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

/// One round's traffic, canonical: `(src, dst)`-sorted, one per link,
/// as `(src, dst, count, words)`.
type Batches = Vec<(u32, u32, u32, u64)>;

/// A random run, per round: the events before `RoundStart` (nested
/// scopes opened and closed, the odd fast-forward), an optional squeeze,
/// and the batches.
type Run = Vec<(Vec<Event>, Option<u64>, Batches)>;

fn random_run(n: usize, rounds: usize, bw: u64, rng: &mut Mix) -> Run {
    let names = ["alpha", "beta", "gamma"];
    let mut open: Vec<&str> = Vec::new();
    let mut out = Vec::new();
    for r in 0..rounds as u64 {
        let mut before = Vec::new();
        if !open.is_empty() && rng.below(3) == 0 {
            before.push(Event::ScopeExit {
                name: open.pop().unwrap().into(),
                delta: CostSnapshot::default(),
            });
        }
        if rng.below(3) == 0 {
            let name = names[rng.below(3) as usize];
            open.push(name);
            before.push(Event::ScopeEnter {
                name: name.into(),
                round: r,
            });
        }
        if rng.below(5) == 0 {
            before.push(Event::FastForward {
                from_round: r,
                rounds: 1 + rng.below(9),
            });
        }
        let squeeze = (rng.below(4) == 0).then(|| 1 + rng.below(bw));
        let mut batches = Vec::new();
        for src in 0..n as u32 {
            for dst in 0..n as u32 {
                if src != dst && rng.below(3) == 0 {
                    let count = 1 + rng.below(3) as u32;
                    let words = u64::from(count) + rng.below(2 * bw);
                    batches.push((src, dst, count, words));
                }
            }
        }
        // Now and then a full uniform fan-out, so the broadcast
        // classification sees both outcomes.
        if rng.below(3) == 0 {
            let src = rng.below(n as u64) as u32;
            batches.retain(|b| b.0 != src);
            batches.extend((0..n as u32).filter(|&d| d != src).map(|d| (src, d, 1, 2)));
            batches.sort_unstable_by_key(|b| (b.0, b.1));
        }
        out.push((before, squeeze, batches));
    }
    out
}

/// The event stream with each round's batches passed through `shape`.
fn stream(run: &Run, mut shape: impl FnMut(&Batches) -> Batches) -> Vec<Event> {
    let mut events = Vec::new();
    for (r, (before, squeeze, batches)) in run.iter().enumerate() {
        let round = r as u64;
        events.extend(before.iter().cloned());
        events.push(Event::RoundStart { round });
        if let Some(info) = squeeze {
            events.push(Event::Fault {
                round,
                kind: FaultKind::Squeeze,
                src: 0,
                dst: 0,
                index: 0,
                info: *info,
            });
        }
        let (mut messages, mut words) = (0, 0);
        for (src, dst, count, w) in shape(batches) {
            messages += u64::from(count);
            words += w;
            events.push(Event::MessageBatch {
                round,
                src,
                dst,
                count,
                words: w,
            });
        }
        events.push(Event::RoundEnd {
            round,
            messages,
            words,
        });
    }
    events
}

fn assert_same_fold(a: &CommLedger, b: &CommLedger, what: &str) {
    assert_eq!(a.report(), b.report(), "{what}: report");
    assert_eq!(a.rounds(), b.rounds(), "{what}: rounds");
    assert_eq!(a.node_sent(), b.node_sent(), "{what}: node_sent");
    assert_eq!(a.node_recv(), b.node_recv(), "{what}: node_recv");
    assert_eq!(
        a.top_links(usize::MAX),
        b.top_links(usize::MAX),
        "{what}: top_links"
    );
    assert!(
        a.closed_round_links().eq(b.closed_round_links()),
        "{what}: closed round links"
    );
    assert_eq!(
        a.util_histogram().snapshot(),
        b.util_histogram().snapshot(),
        "{what}: utilization histogram"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Shuffling each round's batches, or splitting a batch into two on
    /// the same link, leaves every view of the fold unchanged.
    #[test]
    fn batch_order_and_granularity_never_change_the_fold(
        n in 2usize..9,
        rounds in 1usize..7,
        bw_shift in 1u32..4,
        k_pick in 0usize..3,
        seed in any::<u64>(),
    ) {
        let bw = 1u64 << bw_shift;
        let k = [n, 2, 1][k_pick].min(n);
        let spec = ModelSpec::clique().with_bandwidth(bw).kmachine(k);
        let mut rng = Mix(seed);
        let run = random_run(n, rounds, bw, &mut rng);
        let canonical = CommLedger::fold(n, &spec, &stream(&run, Clone::clone)).unwrap();

        let shuffled = stream(&run, |batches| {
            let mut b = batches.clone();
            for i in (1..b.len()).rev() {
                b.swap(i, rng.below(i as u64 + 1) as usize);
            }
            b
        });
        let shuffled = CommLedger::fold(n, &spec, &shuffled).unwrap();
        assert_same_fold(&canonical, &shuffled, "shuffled");

        let split = stream(&run, |batches| {
            let mut b = batches.clone();
            if let Some(i) = (!b.is_empty()).then(|| rng.below(b.len() as u64) as usize) {
                let (src, dst, count, words) = b[i];
                if count >= 2 {
                    let first_words = 1 + rng.below(words - 1);
                    b[i] = (src, dst, 1, first_words);
                    b.insert(i + 1, (src, dst, count - 1, words - first_words));
                }
            }
            b
        });
        let split = CommLedger::fold(n, &spec, &split).unwrap();
        assert_same_fold(&canonical, &split, "split");
        prop_assert_eq!(canonical.messages(), split.messages());
    }
}
