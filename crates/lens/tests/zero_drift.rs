//! Zero-drift contract: a [`CommLedger`] folded from a recorded event
//! stream is bit-identical to the live accounting of the engine that
//! produced it — on both runtime backends, clean or under chaos.
//!
//! The observatory is a *view*, not a second measurement: if these
//! folds ever disagree with `Cost`, every utilization column the grid,
//! serve, and cc-top surfaces would be a lie. Under a k-machine mapping
//! the fold is also the only machine price there is, so the k-machine
//! model's pricing invariants are asserted on it here.

use cc_chaos::{FaultPlan, LinkSelector, RoundRange};
use cc_lens::CommLedger;
use cc_model::{MachineStats, ModelSpec};
use cc_net::{Cost, Envelope, NetConfig};
use cc_runtime::{Ctx, Program, Runtime};
use cc_trace::{Event, RecordingTracer};

/// A two-successor pulse: each node sends `[me, beat]` (two words) to
/// its next two ring neighbors for `beats` rounds and xor-folds
/// whatever arrives. Nothing is interpreted, so dropped, duplicated,
/// corrupted, deferred, squeezed, or crash-truncated traffic only
/// changes the digest — never panics the program.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Pulse {
    beats: u64,
    beat: u64,
    digest: u64,
}

impl Pulse {
    fn new(beats: u64) -> Self {
        Pulse {
            beats,
            beat: 0,
            digest: 0,
        }
    }

    fn emit(&mut self, ctx: &mut Ctx<'_, '_, Vec<u64>>) {
        if self.beat >= self.beats {
            return;
        }
        let me = ctx.me();
        for hop in [1, 2] {
            // Sends may be refused under a squeezed budget; the pulse
            // shrugs and keeps beating (the refusal is the test's
            // subject, not a failure).
            let _ = ctx.send((me + hop) % ctx.n(), vec![me as u64, self.beat]);
        }
        self.beat += 1;
    }
}

impl Program for Pulse {
    type Msg = Vec<u64>;

    fn start(&mut self, ctx: &mut Ctx<'_, '_, Vec<u64>>) {
        self.emit(ctx);
    }

    fn round(&mut self, ctx: &mut Ctx<'_, '_, Vec<u64>>, inbox: &[Envelope<Vec<u64>>]) -> bool {
        for env in inbox {
            self.digest = self
                .digest
                .rotate_left(9)
                .wrapping_add(env.src as u64)
                .wrapping_add(env.msg.iter().fold(0, |a, &w| a.rotate_left(3) ^ w));
        }
        self.emit(ctx);
        self.beat >= self.beats
    }
}

fn pulses(n: usize, beats: u64) -> Vec<Pulse> {
    (0..n).map(|_| Pulse::new(beats)).collect()
}

/// The fold must agree with the live counters exactly: total messages,
/// total words, executed rounds, and word conservation across nodes.
fn assert_fold_matches_cost(engine: &str, lens: &CommLedger, cost: &Cost) {
    assert_eq!(lens.messages(), cost.messages, "{engine}: messages drift");
    assert_eq!(lens.words(), cost.words, "{engine}: words drift");
    assert_eq!(
        lens.rounds().len() as u64 + lens.fast_forward_rounds(),
        cost.rounds,
        "{engine}: rounds drift"
    );
    assert_eq!(lens.over_budget(), 0, "{engine}: metered send over budget");
    let sent: u64 = lens.node_sent().iter().sum();
    let recv: u64 = lens.node_recv().iter().sum();
    assert_eq!(sent, cost.words, "{engine}: per-node send attribution");
    assert_eq!(recv, cost.words, "{engine}: per-node recv attribution");
}

/// Runs the pulse under `plan` on both backends; returns per-backend
/// `(events, cost)` for the caller to fold and compare.
fn run_both_ways(n: usize, beats: u64, plan: &FaultPlan) -> Vec<(&'static str, Vec<Event>, Cost)> {
    let cfg = NetConfig::kt1(n);
    let mut out = Vec::new();

    let rec = RecordingTracer::new();
    let mut rt = Runtime::serial(cfg.clone());
    rt.set_tracer(Box::new(rec.clone()));
    if !plan.is_empty() {
        rt.set_fault_injector(Box::new(plan.injector()));
    }
    rt.run(pulses(n, beats), 64).unwrap();
    out.push(("serial backend", rec.model_events(), rt.cost()));

    let rec = RecordingTracer::new();
    let mut rt = Runtime::parallel_with_threads(cfg, 4);
    rt.set_tracer(Box::new(rec.clone()));
    if !plan.is_empty() {
        rt.set_fault_injector(Box::new(plan.injector()));
    }
    rt.run(pulses(n, beats), 64).unwrap();
    out.push(("parallel backend", rec.model_events(), rt.cost()));

    out
}

#[test]
fn clean_runs_fold_bit_identical_on_both_backends() {
    let n = 8;
    let spec = ModelSpec::clique();
    let runs = run_both_ways(n, 4, &FaultPlan::new(0));
    let reference = CommLedger::fold(n, &spec, &runs[0].1).unwrap();
    assert!(reference.messages() > 0);
    for (engine, events, cost) in &runs {
        let lens = CommLedger::fold(n, &spec, events).unwrap();
        assert_fold_matches_cost(engine, &lens, cost);
        // The backends agree with each other too, so one report serves
        // for both streams.
        assert_eq!(lens.report(), reference.report(), "{engine}: report drift");
    }
}

#[test]
fn chaos_replay_folds_bit_identical_on_every_engine() {
    // All six fault kinds at once: drops and crashes remove traffic,
    // duplicates add it, defers move it, squeezes shrink the budget the
    // fold must honor round-by-round. The ledger sees only what was
    // actually metered, so it must still match the live cost exactly.
    let n = 8;
    let plan = FaultPlan::new(0x1E25)
        .drop_messages(RoundRange::all(), LinkSelector::All, 0.2)
        .duplicate_messages(RoundRange::all(), LinkSelector::All, 0.2)
        .corrupt_messages(RoundRange::all(), LinkSelector::All, 0.2)
        .defer_messages(RoundRange::all(), LinkSelector::All, 0.2, 2)
        .crash(5, 2)
        .squeeze(RoundRange::between(1, 2), 2);
    let spec = ModelSpec::clique();
    for (engine, events, cost) in &run_both_ways(n, 4, &plan) {
        let lens = CommLedger::fold(n, &spec, events).unwrap();
        assert_fold_matches_cost(engine, &lens, cost);
    }
}

/// Runs the pulse on the serial engine under `spec` (and `plan`, unless
/// it is empty) and prices it by folding the trace.
fn fold_pulse(n: usize, beats: u64, spec: &ModelSpec, plan: &FaultPlan) -> (CommLedger, Cost) {
    let rec = RecordingTracer::new();
    let mut rt = Runtime::serial(NetConfig::kt1(n).with_model(spec));
    rt.set_tracer(Box::new(rec.clone()));
    if !plan.is_empty() {
        rt.set_fault_injector(Box::new(plan.injector()));
    }
    rt.run(pulses(n, beats), 64).unwrap();
    let lens = CommLedger::fold(n, spec, &rec.model_events()).unwrap();
    (lens, rt.cost())
}

#[test]
fn kmachine_pricing_invariants_hold_on_the_fold() {
    let n = 8;
    let chaos = FaultPlan::new(7)
        .drop_messages(RoundRange::all(), LinkSelector::From(2), 0.5)
        .crash(1, 2)
        .squeeze(RoundRange::starting_at(3), 3);
    for (label, plan) in [("clean", FaultPlan::new(0)), ("chaos", chaos)] {
        let stats: Vec<MachineStats> = (1..=n)
            .map(|k| {
                let spec = ModelSpec::clique().kmachine(k);
                let (lens, cost) = fold_pulse(n, 5, &spec, &plan);
                assert_fold_matches_cost(&format!("{label} k={k}"), &lens, &cost);
                let s = lens.machine_stats();
                assert_eq!(s.logical_rounds, cost.rounds, "{label} k={k}");
                assert!(s.machine_rounds >= s.logical_rounds, "{label} k={k}");
                s
            })
            .collect();
        let (single, full) = (stats[0], stats[n - 1]);
        // k = n: every logical link is its own machine pair, already
        // capped at the bandwidth by send admission.
        assert_eq!(full.machine_rounds, full.logical_rounds, "{label} k=n");
        assert_eq!(full.local_words, 0, "{label}: no co-located nodes at k = n");
        // k = 1: everything is co-located.
        assert_eq!(
            single.remote_words, 0,
            "{label}: nothing is remote at k = 1"
        );
        assert_eq!(single.machine_rounds, single.logical_rounds, "{label} k=1");
        for (i, s) in stats.iter().enumerate() {
            let k = i + 1;
            assert_eq!(
                s.local_words + s.remote_words,
                single.local_words,
                "{label} k={k}: total traffic is mapping-invariant"
            );
            if 1 < k && k < n {
                assert!(
                    s.local_words > 0 && s.remote_words > 0,
                    "{label} k={k}: an intermediate mapping splits traffic"
                );
            }
        }
    }
}

mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Random workload shapes, bandwidths, fault mixes, and machine
        /// counts: the fold never drifts from the live cost, and its
        /// machine price conserves every metered word.
        #[test]
        fn folds_never_drift_from_live_accounting(
            n in 4usize..10,
            beats in 1u64..6,
            bw_shift in 1u32..4,       // bandwidth ∈ {2, 4, 8}
            seed in any::<u64>(),
            p_drop in 0u32..11,
            p_dup in 0u32..11,
            squeeze_to in 2u64..4, // never below the 2-word pulse payload
            squeeze_from in 0u64..4,
            k_pick in 0usize..3,
        ) {
            let bw = 1u64 << bw_shift;
            let k = [1, 2, n][k_pick].min(n);
            let spec = ModelSpec::clique().with_bandwidth(bw).kmachine(k);
            let plan = FaultPlan::new(seed)
                .drop_messages(RoundRange::all(), LinkSelector::All, f64::from(p_drop) / 20.0)
                .duplicate_messages(RoundRange::all(), LinkSelector::All, f64::from(p_dup) / 20.0)
                .squeeze(RoundRange::starting_at(squeeze_from), squeeze_to);

            let (lens, cost) = fold_pulse(n, beats, &spec, &plan);
            assert_fold_matches_cost("proptest", &lens, &cost);
            let machine = lens.machine_stats();
            prop_assert_eq!(machine.logical_rounds, cost.rounds);
            prop_assert_eq!(machine.local_words + machine.remote_words, cost.words);
            // Utilization never exceeds the (possibly squeezed) budget.
            let report = lens.report();
            prop_assert!(report.peak_util_milli <= 1000);
            prop_assert_eq!(report.headroom_milli, 1000 - report.peak_util_milli);
        }
    }
}
