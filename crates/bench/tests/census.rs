//! The single-fault census: every single message fault of a clean run,
//! tried one at a time.
//!
//! For each message `(round, src, dst, index)` a clean run sends, the
//! census reruns the entry through [`guard::run`] with that one message
//! dropped, duplicated, deferred 1 or 4 rounds, or corrupted at one of
//! eleven bit positions spanning four words. Every run must end correct,
//! in a typed error other than `round-cap`, or rejected by the entry's
//! check (`wrong-answer`): never a silent wrong answer, never a panic,
//! never the round cap. Each run executes twice and must give the same
//! verdict and detail, so a fault replays to the same outcome.
//!
//! `gc-sketch` and `exact-mst` run at n = 4, 5, 6 in the default suite;
//! `CC_STRESS=1` adds `kt1-mst` at n = 4 (about 9 000 runs, seconds in
//! release):
//!
//! ```text
//! cargo test -p cc-bench --test census -- --nocapture
//! CC_STRESS=1 cargo test --release -p cc-bench --test census
//! ```

use cc_bench::guard::{self, Verdict};
use cc_core::catalog::Entry;
use cc_graph::generators;
use cc_net::{FaultDecision, FaultInjector, NetConfig};
use cc_route::Net;
use cc_trace::{Event, RecordingTracer};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Net seed of every census run.
const NET_SEED: u64 = 3;

/// Corrupted bit positions: low and high bits of the first three words,
/// and the top bit of the fourth.
const BITS: [u64; 11] = [0, 2, 31, 63, 64, 66, 127, 128, 130, 191, 255];

/// The one message `(round, src, dst, index)` a census run faults.
type Key = (u64, usize, usize, u32);

/// Applies `decision` to the message at `key` and delivers every other.
struct SingleFault {
    key: Key,
    decision: FaultDecision,
}

impl FaultInjector for SingleFault {
    fn decision(&self, round: u64, src: usize, dst: usize, index: u32) -> FaultDecision {
        if (round, src, dst, index) == self.key {
            self.decision
        } else {
            FaultDecision::Deliver
        }
    }
}

/// The 15 decisions tried on every message.
fn decisions() -> Vec<FaultDecision> {
    let mut all = vec![
        FaultDecision::Drop,
        FaultDecision::Duplicate,
        FaultDecision::Defer { rounds: 1 },
        FaultDecision::Defer { rounds: 4 },
    ];
    all.extend(BITS.map(|bit| FaultDecision::Corrupt { bit }));
    all
}

/// Every message key of a clean run of `entry`, in send order.
fn message_keys(n: usize, entry: Entry) -> Vec<Key> {
    let rec = RecordingTracer::new();
    let mut net = Net::new(NetConfig::kt1(n).with_seed(NET_SEED));
    net.set_tracer(Box::new(rec.clone()));
    entry.run(&mut net).expect("the clean run succeeds");
    rec.events()
        .into_iter()
        .filter_map(|e| match e {
            Event::MessageBatch {
                round,
                src,
                dst,
                count,
                ..
            } => Some((0..count).map(move |i| (round, src as usize, dst as usize, i))),
            _ => None,
        })
        .flatten()
        .collect()
}

/// Outcome counts of one census row.
#[derive(Default)]
struct Tally {
    runs: usize,
    ok: usize,
    typed: usize,
    rejected: usize,
}

/// Runs every single fault of `entry` at clique size `n` twice, tallies
/// the verdicts, and returns them with every failure found.
fn census(n: usize, entry: Entry) -> (Tally, Vec<String>) {
    let mut tally = Tally::default();
    let mut failures = Vec::new();
    for key in message_keys(n, entry) {
        for decision in decisions() {
            let run = || {
                let fault = SingleFault { key, decision };
                let cfg = NetConfig::kt1(n).with_seed(NET_SEED);
                guard::run(cfg, Some(Box::new(fault)), entry)
            };
            let (first, second) = (run(), run());
            let at = format!("{} n={n} {key:?} {decision:?}", entry.id());
            if first.ledger.faults() == 0 {
                failures.push(format!("{at}: no fault fired"));
            }
            if first.verdict != second.verdict {
                failures.push(format!(
                    "{at}: replay differs: {:?} then {:?}",
                    first.verdict, second.verdict
                ));
            }
            tally.runs += 1;
            match &first.verdict {
                Verdict::Ok => tally.ok += 1,
                Verdict::DetectedError {
                    kind: "wrong-answer",
                    ..
                } => tally.rejected += 1,
                Verdict::SilentWrong { .. }
                | Verdict::ModelReject {
                    kind: "round-cap", ..
                } => failures.push(format!("{at}: {:?}", first.verdict)),
                Verdict::ModelReject { .. } | Verdict::DetectedError { .. } => tally.typed += 1,
            }
        }
    }
    (tally, failures)
}

/// Runs the census of every `(n, entry)` row, prints its table, and
/// fails listing the first ten failures found.
fn run_census(rows: &[(usize, Entry)]) {
    let mut failures = Vec::new();
    let mut table = String::from(
        "| n | entry | runs | ok | typed error | check-rejected |\n|---|---|---|---|---|---|\n",
    );
    for &(n, entry) in rows {
        let (t, found) = census(n, entry);
        table += &format!(
            "| {n} | `{}` | {} | {} | {} | {} |\n",
            entry.id(),
            t.runs,
            t.ok,
            t.typed,
            t.rejected
        );
        assert!(t.runs > 0, "{} n={n}: no message to fault", entry.id());
        failures.extend(found);
    }
    print!("{table}");
    assert!(
        failures.is_empty(),
        "{} census failures, the first: {:#?}",
        failures.len(),
        &failures[..failures.len().min(10)]
    );
}

#[test]
fn every_single_fault_of_gc_and_exact_mst_is_an_answer_or_a_typed_refusal() {
    let graphs: Vec<_> = (4..=6)
        .map(|n| {
            let mut rng = ChaCha8Rng::seed_from_u64(n as u64);
            let g = generators::random_connected_graph(n, 0.5, &mut rng);
            let wg = generators::random_connected_wgraph(n, 0.5, 100, &mut rng);
            (n, g, wg)
        })
        .collect();
    let mut rows = Vec::new();
    for (n, g, wg) in &graphs {
        rows.push((*n, Entry::GcSketch(g)));
        rows.push((*n, Entry::ExactMst(wg)));
    }
    run_census(&rows);
}

#[test]
fn every_single_fault_of_kt1_mst_under_cc_stress() {
    if std::env::var("CC_STRESS").ok().as_deref().map(str::trim) != Some("1") {
        eprintln!("skipping the kt1-mst census (set CC_STRESS=1)");
        return;
    }
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    let wg = generators::random_connected_wgraph(4, 0.5, 100, &mut rng);
    run_census(&[(4, Entry::Kt1Mst(&wg))]);
}
