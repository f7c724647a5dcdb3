//! Cross-backend fault replay: one [`FaultPlan`] must produce identical
//! model-event streams, identical cost totals, and identical final
//! program states on the serial and the parallel runtime backend.
//!
//! This is the chaos extension of `cc-runtime`'s equivalence suite: the
//! fault layer interposes on both backends' rounds, so the determinism
//! contract — same plan + seed ⇒ same faults — is only worth anything if
//! the backends agree byte-for-byte *including* the injected fault and
//! crash events.

use cc_chaos::{FaultPlan, LinkSelector, RoundRange};
use cc_net::{Envelope, Mapping, ModelSpec, NetConfig};
use cc_runtime::{Ctx, Program, Runtime};
use cc_trace::{Event, RecordingTracer};

/// A fault-tolerant gossip: each node sends `[counter, me]` to its two
/// ring successors for a fixed number of rounds and folds whatever
/// arrives — whatever its content — into a running digest. No message is
/// interpreted, so drops, duplicates, corruption, deferral, crashes, and
/// squeezes can never panic it; they only change the digest.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Gossip {
    to_send: u64,
    sent: u64,
    received: u64,
    acc: u64,
}

impl Gossip {
    fn new(rounds: u64) -> Self {
        Gossip {
            to_send: rounds,
            sent: 0,
            received: 0,
            acc: 0,
        }
    }

    fn absorb(&mut self, inbox: &[Envelope<Vec<u64>>]) {
        for env in inbox {
            self.received += 1;
            self.acc = self
                .acc
                .rotate_left(7)
                .wrapping_add((env.src as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            for &w in &env.msg {
                self.acc = self.acc.rotate_left(11) ^ w;
            }
        }
    }

    fn gossip(&mut self, ctx: &mut Ctx<'_, '_, Vec<u64>>) {
        if self.to_send == 0 {
            return;
        }
        let me = ctx.me();
        for hop in [1, 2] {
            let _ = ctx.send((me + hop) % ctx.n(), vec![self.sent, me as u64]);
        }
        self.sent += 1;
        self.to_send -= 1;
    }
}

impl Program for Gossip {
    type Msg = Vec<u64>;

    fn start(&mut self, ctx: &mut Ctx<'_, '_, Vec<u64>>) {
        self.gossip(ctx);
    }

    fn round(&mut self, ctx: &mut Ctx<'_, '_, Vec<u64>>, inbox: &[Envelope<Vec<u64>>]) -> bool {
        self.absorb(inbox);
        self.gossip(ctx);
        self.to_send == 0
    }
}

fn programs(n: usize, rounds: u64) -> Vec<Gossip> {
    (0..n).map(|_| Gossip::new(rounds)).collect()
}

/// `(sent, received, acc)` per node — Gossip's full observable output.
fn outputs(programs: &[Gossip]) -> Vec<(u64, u64, u64)> {
    programs
        .iter()
        .map(|p| (p.sent, p.received, p.acc))
        .collect()
}

/// Runs the plan on both backends; returns per-backend
/// `(outputs, cost, model events)` and asserts nothing itself.
#[allow(clippy::type_complexity)]
fn run_both_ways(
    n: usize,
    send_rounds: u64,
    max_rounds: u64,
    plan: &FaultPlan,
) -> Vec<(Vec<(u64, u64, u64)>, cc_net::Cost, Vec<Event>)> {
    let cfg = NetConfig::kt1(n);
    let mut results = Vec::new();

    let rec = RecordingTracer::new();
    let mut rt = Runtime::serial(cfg.clone());
    rt.set_tracer(Box::new(rec.clone()));
    rt.set_fault_injector(Box::new(plan.injector()));
    let states = rt.run(programs(n, send_rounds), max_rounds).unwrap();
    results.push((outputs(&states), rt.cost(), rec.model_events()));

    let rec = RecordingTracer::new();
    let mut rt = Runtime::parallel_with_threads(cfg, 4);
    rt.set_tracer(Box::new(rec.clone()));
    rt.set_fault_injector(Box::new(plan.injector()));
    let states = rt.run(programs(n, send_rounds), max_rounds).unwrap();
    results.push((outputs(&states), rt.cost(), rec.model_events()));

    results
}

fn assert_backends_identical(plan: &FaultPlan, n: usize, send_rounds: u64) -> Vec<Event> {
    let runs = run_both_ways(n, send_rounds, 64, plan);
    let (ref_out, ref_cost, ref_events) = &runs[0];
    assert!(!ref_events.is_empty());
    let (out, cost, events) = &runs[1];
    assert_eq!(out, ref_out, "parallel backend: final states diverged");
    assert_eq!(cost, ref_cost, "parallel backend: cost diverged");
    assert_eq!(
        events, ref_events,
        "parallel backend: model-event streams diverged"
    );
    ref_events.clone()
}

/// The headline test: a plan exercising *all six* fault kinds replays
/// identically on both backends, and each kind demonstrably occurred.
#[test]
fn all_fault_kinds_replay_identically_on_both_backends() {
    let n = 8;
    let plan = FaultPlan::new(0xC1A0)
        .drop_messages(RoundRange::all(), LinkSelector::All, 0.2)
        .duplicate_messages(RoundRange::all(), LinkSelector::All, 0.2)
        .corrupt_messages(RoundRange::all(), LinkSelector::All, 0.2)
        .defer_messages(RoundRange::all(), LinkSelector::All, 0.2, 2)
        .crash(5, 2)
        .squeeze(RoundRange::between(1, 2), 2);
    let events = assert_backends_identical(&plan, n, 4);

    let mut kinds: Vec<&str> = events
        .iter()
        .filter_map(|e| match e {
            Event::Fault { kind, .. } => Some(kind.as_str()),
            Event::NodeCrash { .. } => Some("crash"),
            _ => None,
        })
        .collect();
    kinds.sort_unstable();
    kinds.dedup();
    for want in ["corrupt", "crash", "defer", "drop", "duplicate", "squeeze"] {
        assert!(
            kinds.contains(&want),
            "plan never produced a {want} fault (saw {kinds:?}) — pick a different seed"
        );
    }
}

#[test]
fn targeted_rules_replay_identically() {
    // Scoped selectors and windows (the asymmetric case: link-level and
    // node-level scoping must key the decision streams identically
    // everywhere).
    let plan = FaultPlan::new(77)
        .drop_messages(RoundRange::between(1, 3), LinkSelector::From(2), 1.0)
        .duplicate_messages(RoundRange::all(), LinkSelector::To(0), 0.5)
        .corrupt_messages(RoundRange::only(2), LinkSelector::Link(3, 4), 1.0);
    assert_backends_identical(&plan, 6, 5);
}

#[test]
fn a_noop_plan_is_observationally_invisible() {
    // An attached injector that never fires must not perturb the model
    // stream, the cost, or the outputs relative to no injector at all.
    let n = 6;
    let cfg = NetConfig::kt1(n);

    let rec_clean = RecordingTracer::new();
    let mut rt = Runtime::serial(cfg);
    rt.set_tracer(Box::new(rec_clean.clone()));
    let clean = rt.run(programs(n, 3), 64).unwrap();
    let clean_cost = rt.cost();

    let noop = FaultPlan::new(123);
    assert!(noop.is_empty());
    let runs = run_both_ways(n, 3, 64, &noop);
    for (name, (out, cost, events)) in ["serial backend", "parallel backend"].iter().zip(&runs) {
        assert_eq!(out, &outputs(&clean), "{name}: noop plan changed outputs");
        assert_eq!(cost, &clean_cost, "{name}: noop plan changed cost");
        assert_eq!(
            events,
            &rec_clean.model_events(),
            "{name}: noop plan changed the model stream"
        );
    }
}

#[test]
fn crashed_nodes_freeze_identically() {
    let plan = FaultPlan::new(9).crash(1, 1).crash(4, 3);
    let runs = run_both_ways(6, 4, 64, &plan);
    // Node 1 crashed before its first `round` call: it sent only its
    // start-round messages and received nothing.
    let (out, _, events) = &runs[0];
    assert_eq!(out[1].0, 1, "crashed node's send counter frozen");
    assert_eq!(out[1].1, 0, "crashed node received nothing");
    let crashes: Vec<(u64, u32)> = events
        .iter()
        .filter_map(|e| match e {
            Event::NodeCrash { round, node } => Some((*round, *node)),
            _ => None,
        })
        .collect();
    assert_eq!(crashes, vec![(1, 1), (3, 4)]);
    assert_backends_identical(&plan, 6, 4);
}

/// A k-machine mapping under chaos: fault decisions are keyed by the
/// *logical* `(seed, rule, round, src, dst, index)` coordinates, so the
/// same plan must replay byte-identically regardless of how the logical
/// nodes are mapped onto machines. This serializes the model-event
/// streams (the robustness record an E17-style experiment persists) and
/// compares the bytes, not just the in-memory events.
#[test]
fn mayhem_replays_byte_identically_on_any_machine_mapping() {
    let n = 8;
    let send_rounds = 4;
    let plan = FaultPlan::new(0xC1A0)
        .drop_messages(RoundRange::all(), LinkSelector::All, 0.2)
        .duplicate_messages(RoundRange::all(), LinkSelector::All, 0.2)
        .corrupt_messages(RoundRange::all(), LinkSelector::All, 0.2)
        .defer_messages(RoundRange::all(), LinkSelector::All, 0.2, 2)
        .crash(5, 2)
        .squeeze(RoundRange::between(1, 2), 2);

    let record = |events: &[Event]| -> String {
        events
            .iter()
            .map(|e| e.to_json().emit())
            .collect::<Vec<_>>()
            .join("\n")
    };

    let cfg = NetConfig::kt1(n);
    let rec = RecordingTracer::new();
    let mut serial = Runtime::serial(cfg.clone());
    serial.set_tracer(Box::new(rec.clone()));
    serial.set_fault_injector(Box::new(plan.injector()));
    let states = serial.run(programs(n, send_rounds), 64).unwrap();
    let ref_out = outputs(&states);
    let ref_record = record(&rec.model_events());
    assert!(!ref_record.is_empty());

    for k in [1, 4, n] {
        let rec = RecordingTracer::new();
        let spec = ModelSpec {
            mapping: Mapping::KMachine(k),
            ..cfg.model()
        };
        let mut rt = Runtime::serial(cfg.clone().with_model(&spec));
        rt.set_tracer(Box::new(rec.clone()));
        rt.set_fault_injector(Box::new(plan.injector()));
        let states = rt.run(programs(n, send_rounds), 64).unwrap();
        let out = outputs(&states);
        assert_eq!(out, ref_out, "k={k}: outputs diverged under faults");
        assert_eq!(rt.cost(), serial.cost(), "k={k}: cost diverged");
        assert_eq!(
            record(&rec.model_events()),
            ref_record,
            "k={k}: serialized robustness record diverged"
        );
    }
}

mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Random plans replay identically on both backends.
        #[test]
        fn random_plans_replay_identically(
            seed in any::<u64>(),
            p_drop in 0u32..11,
            p_dup in 0u32..11,
            p_corrupt in 0u32..11,
            p_defer in 0u32..11,
            defer_by in 1u64..4,
            crash_node in 0usize..6,
            crash_round in 0u64..5,
            cap in 2u64..9,
        ) {
            let plan = FaultPlan::new(seed)
                .drop_messages(RoundRange::all(), LinkSelector::All, f64::from(p_drop) / 20.0)
                .duplicate_messages(RoundRange::all(), LinkSelector::All, f64::from(p_dup) / 20.0)
                .corrupt_messages(RoundRange::all(), LinkSelector::All, f64::from(p_corrupt) / 20.0)
                .defer_messages(RoundRange::all(), LinkSelector::All, f64::from(p_defer) / 20.0, defer_by)
                .crash(crash_node, crash_round)
                .squeeze(RoundRange::between(1, 3), cap);
            let runs = run_both_ways(6, 4, 64, &plan);
            let (ref_out, ref_cost, ref_events) = &runs[0];
            let (out, cost, events) = &runs[1];
            prop_assert_eq!(out, ref_out);
            prop_assert_eq!(cost, ref_cost);
            prop_assert_eq!(events, ref_events);
        }
    }
}
