//! Extension experiments beyond the paper's explicit claims:
//! E12 — low-message connectivity (the message half of the paper's
//! concluding open question, via the Theorem 13 machinery on unit
//! weights); E13 — the sketch shape ablation DESIGN.md calls out
//! (failure rate vs. size across parameter choices).

use crate::table::{f, Table};
use cc_core::{gc, kt1_gc, Kt1MstConfig};
use cc_graph::generators;
use cc_net::NetConfig;
use cc_route::Net;
use cc_sketch::{BatchScratch, Sample, SketchParams, SketchSpace};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// E12 — GC with `O(n polylog n)` messages vs the `Θ(n²)` Theorem 4 run.
pub fn e12_low_message_gc(quick: bool) -> Table {
    let ns: &[usize] = if quick {
        &[32, 64]
    } else {
        &[32, 64, 128, 256]
    };
    let mut t = Table::new(
        "E12",
        "Open question (Sec. 5), message half: GC via Thm 13 machinery — n polylog messages vs Thm 4's n^2",
        &[
            "n",
            "lowmsg_messages",
            "n log^5 n",
            "lowmsg_rounds",
            "thm4_messages",
            "thm4_rounds",
        ],
    );
    for &n in ns {
        let mut rng = ChaCha8Rng::seed_from_u64(31 + n as u64);
        let g = generators::random_connected_graph(n, 3.0 / n as f64, &mut rng);
        let mut net = Net::new(NetConfig::kt1(n).with_seed(n as u64));
        let low = kt1_gc(&mut net, &g, &Kt1MstConfig::default()).expect("kt1 gc");
        assert!(low.connected);
        let fast = gc::run(&g, &NetConfig::kt1(n).with_seed(n as u64)).expect("gc");
        assert_eq!(low.labels, fast.output.labels);
        let lg = (n as f64).log2();
        t.push_row(vec![
            n.to_string(),
            low.cost.messages.to_string(),
            f(n as f64 * lg.powi(5)),
            low.cost.rounds.to_string(),
            fast.cost.messages.to_string(),
            fast.cost.rounds.to_string(),
        ]);
    }
    t
}

/// E13 — sketch shape ablation: failure rate and size for full, compact,
/// and starved parameter shapes (support 64, `N = 2^16`).
pub fn e13_sketch_ablation(quick: bool) -> Table {
    let universe = 1u64 << 16;
    let trials: u64 = if quick { 150 } else { 400 };
    let shapes: Vec<(&str, SketchParams)> = vec![
        ("paper-default", SketchParams::for_universe(universe)),
        ("compact", SketchParams::compact_for_universe(universe)),
        (
            "rows=1",
            SketchParams {
                rows: 1,
                ..SketchParams::for_universe(universe)
            },
        ),
        (
            "buckets=2",
            SketchParams {
                buckets: 2,
                ..SketchParams::for_universe(universe)
            },
        ),
        (
            "starved",
            SketchParams {
                levels: 4,
                rows: 1,
                buckets: 2,
                k: 2,
            },
        ),
    ];
    let mut t = Table::new(
        "E13",
        "Ablation: l0 failure rate vs sketch size across parameter shapes (wrong answers: impossible by contract)",
        &["shape", "words", "bits", "fail_rate", "wrong_answers"],
    );
    let mut items = Vec::new();
    let mut scratch = BatchScratch::default();
    for (name, params) in shapes {
        let mut rng = ChaCha8Rng::seed_from_u64(41);
        let mut fails = 0u64;
        let mut wrong = 0u64;
        for seed in 0..trials {
            let space = SketchSpace::new(universe, params, 5000 + seed);
            let mut sk = space.zero_sketch();
            let mut support = std::collections::BTreeSet::new();
            items.clear();
            for _ in 0..64 {
                let i = rng.gen_range(0..universe);
                if support.insert(i) {
                    items.push((i, 1));
                }
            }
            space.insert_batch_with(&mut sk, &items, &mut scratch);
            match space.sample(&sk) {
                Sample::Item(i, _) => {
                    if !support.contains(&i) {
                        wrong += 1;
                    }
                }
                Sample::Zero => wrong += 1,
                Sample::Fail => fails += 1,
            }
        }
        t.push_row(vec![
            name.to_string(),
            params.words().to_string(),
            params.bits().to_string(),
            f(fails as f64 / trials as f64),
            wrong.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e12_message_budget() {
        let t = e12_low_message_gc(true);
        let msgs = t.column_f64("lowmsg_messages");
        let bound = t.column_f64("n log^5 n");
        for (m, b) in msgs.iter().zip(&bound) {
            assert!(m <= b);
        }
    }

    #[test]
    fn e13_no_wrong_answers_anywhere() {
        let t = e13_sketch_ablation(true);
        for row in &t.rows {
            assert_eq!(row[4], "0", "shape {} produced wrong answers", row[0]);
        }
        // Size monotonicity: compact < default.
        let words = t.column_f64("words");
        assert!(words[1] < words[0]);
    }
}

/// E6c — fooling probability of budget-limited KT0 protocols: for a link
/// budget `B`, draw random `B`-link profiles and measure how often the
/// adversary finds an untouched square (= the protocol is provably fooled
/// on a connected input it must call disconnected, or vice versa).
pub fn e6c_fooling_probability(quick: bool) -> crate::table::Table {
    use cc_lb::{edge_disjoint_squares, find_untouched_square, hard_instance};
    let (n, m) = (24usize, 96usize);
    let inst = hard_instance(n, m);
    let squares = edge_disjoint_squares(&inst);
    let all_links: Vec<(usize, usize)> = (0..n)
        .flat_map(|a| ((a + 1)..n).map(move |b| (a, b)))
        .collect();
    let trials: usize = if quick { 100 } else { 400 };
    let mut t = crate::table::Table::new(
        "E6c",
        "Thm 9 mechanics: fraction of random B-link profiles that the square adversary fools (n=24, m=96)",
        &["B (links used)", "squares", "fooled_fraction"],
    );
    let mut rng = ChaCha8Rng::seed_from_u64(77);
    let budgets = [
        squares.len() / 2,
        squares.len(),
        2 * squares.len(),
        all_links.len() / 2,
        all_links.len() - squares.len() / 2,
        all_links.len(),
    ];
    for &b in &budgets {
        let mut fooled = 0usize;
        for _ in 0..trials {
            use rand::seq::SliceRandom;
            let mut links = all_links.clone();
            links.shuffle(&mut rng);
            let used: std::collections::HashSet<(usize, usize)> =
                links.into_iter().take(b).collect();
            if find_untouched_square(&squares, &used).is_some() {
                fooled += 1;
            }
        }
        t.push_row(vec![
            b.to_string(),
            squares.len().to_string(),
            f(fooled as f64 / trials as f64),
        ]);
    }
    t
}

#[cfg(test)]
mod fooling_tests {
    #[test]
    fn e6c_pigeonhole_extremes() {
        let t = super::e6c_fooling_probability(true);
        let fractions = t.column_f64("fooled_fraction");
        // Below the square count: always fooled (pigeonhole).
        assert_eq!(fractions[0], 1.0, "B < squares must always be fooled");
        assert_eq!(
            *fractions.last().unwrap(),
            0.0,
            "using every link defeats the adversary"
        );
        // Monotone non-increasing in the budget.
        for w in fractions.windows(2) {
            assert!(w[0] >= w[1] - 1e-9, "{fractions:?}");
        }
    }
}
