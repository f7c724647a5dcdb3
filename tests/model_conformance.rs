//! Conformance tests for the model itself: the Section 1.2 rules as
//! observable simulator behavior. These are the guarantees every
//! algorithm crate builds on, tested end-to-end through the public API.

use congested_clique::net::{CliqueNet, Knowledge, NetConfig, NetError, Wire, DEFAULT_LINK_WORDS};
use congested_clique::route::{self, Net};

#[test]
fn synchrony_messages_arrive_exactly_one_round_later() {
    let mut net: CliqueNet<u64> = CliqueNet::new(NetConfig::kt1(4));
    // Round 1: 0 → 1. Round 2: 1 must see it and relays 1 → 2.
    // Round 3: 2 sees the relay; nobody saw anything early.
    let mut seen_at = vec![None::<u64>; 4];
    net.step(|node, inbox, out| {
        assert!(inbox.is_empty(), "round 1 inboxes must be empty");
        if node == 0 {
            out.send(1, 42).unwrap();
        }
    })
    .unwrap();
    net.step(|node, inbox, out| {
        if !inbox.is_empty() {
            seen_at[node] = Some(2);
            assert_eq!(node, 1);
            out.send(2, inbox[0].msg).unwrap();
        }
    })
    .unwrap();
    net.step(|node, inbox, _| {
        if !inbox.is_empty() {
            seen_at[node] = Some(3);
            assert_eq!(node, 2);
            assert_eq!(inbox[0].msg, 42);
        }
    })
    .unwrap();
    assert_eq!(seen_at, vec![None, Some(2), Some(3), None]);
}

#[test]
fn bandwidth_is_per_ordered_link() {
    // A full budget from 0 → 1 does not consume 1 → 0 or 0 → 2.
    let mut net: CliqueNet<u64> = CliqueNet::new(NetConfig::kt1(3).with_link_words(1));
    net.step(|node, _, out| match node {
        0 => {
            out.send(1, 1).unwrap();
            out.send(2, 2).unwrap();
        }
        1 => out.send(0, 3).unwrap(),
        _ => {}
    })
    .unwrap();
    assert_eq!(net.cost().messages, 3);
}

#[test]
fn word_bits_track_clique_size() {
    // The same one-word message costs more bits on a bigger clique.
    let run = |n: usize| {
        let mut net: CliqueNet<u64> = CliqueNet::new(NetConfig::kt1(n));
        net.step(|node, _, out| {
            if node == 0 {
                out.send(1, 9).unwrap();
            }
        })
        .unwrap();
        net.cost().bits
    };
    assert_eq!(run(4), 2);
    assert_eq!(run(1024), 10);
}

#[test]
fn kt0_and_kt1_differ_only_in_port_knowledge() {
    let kt0: CliqueNet<u64> = CliqueNet::new(NetConfig::kt0(6).with_seed(1));
    let kt1: CliqueNet<u64> = CliqueNet::new(NetConfig::kt1(6).with_seed(1));
    assert_eq!(kt0.config().knowledge, Knowledge::Kt0);
    assert!(kt0.ports().is_some() && kt1.ports().is_none());
    // The hidden permutation is seed-deterministic and a true permutation.
    let pm = kt0.ports().unwrap();
    for u in 0..6 {
        let mut ids: Vec<usize> = (0..5).map(|p| pm.neighbor_at(u, p)).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..6).filter(|&v| v != u).collect::<Vec<_>>());
    }
}

// The workspace convention: edges are 3 words, routing adds 2 header
// words + 1 fragment word; DEFAULT_LINK_WORDS must fit that.
const _: () = assert!(DEFAULT_LINK_WORDS >= 6);

#[test]
fn default_budget_fits_an_edge_message_with_headroom() {
    let payload: Vec<u64> = vec![1, 2, 3];
    assert_eq!(payload.words(), 3);
}

#[test]
fn collectives_compose_on_one_network() {
    // Several collectives back to back on the same net: costs accumulate,
    // outputs stay correct.
    let n = 8;
    let mut net = Net::new(NetConfig::kt1(n).with_seed(2));
    let vals: Vec<u64> = (0..n as u64).map(|i| i * i).collect();
    let shared = route::all_to_all_share(&mut net, &vals).unwrap();
    assert_eq!(shared, vals);
    let after_share = net.cost();
    let data = route::broadcast_large(&mut net, 3, (0..50).collect()).unwrap();
    assert_eq!(data.len(), 50);
    assert!(net.cost().rounds > after_share.rounds);
    let seed1 = route::shared_seed(&mut net).unwrap();
    let seed2 = route::shared_seed(&mut net).unwrap();
    assert_ne!(seed1, seed2, "fresh designated draws each invocation");
}

#[test]
fn broadcast_model_is_strictly_weaker() {
    // The same protocol body: legal in unicast, rejected in broadcast.
    let body = |net: &mut CliqueNet<u64>| {
        net.step(|node, _, out| {
            if node == 0 {
                let _ = out.send(1, 7);
            }
        })
    };
    let mut uni: CliqueNet<u64> = CliqueNet::new(NetConfig::kt1(3));
    body(&mut uni).unwrap();
    let mut bc: CliqueNet<u64> = CliqueNet::new(NetConfig::kt1(3).broadcast_only());
    assert!(matches!(
        body(&mut bc).unwrap_err(),
        NetError::UnicastInBroadcastModel {
            round: 0,
            src: 0,
            dst: 1
        }
    ));
}

#[test]
fn fast_forward_preserves_message_counters() {
    let mut net: CliqueNet<u64> = CliqueNet::new(NetConfig::kt1(3));
    net.step(|node, _, out| {
        if node == 0 {
            out.send(1, 1).unwrap();
        }
    })
    .unwrap();
    net.step(|_, _, _| {}).unwrap();
    let before = net.cost();
    net.fast_forward(1 << 40).unwrap();
    let after = net.cost();
    assert_eq!(after.messages, before.messages);
    assert_eq!(after.words, before.words);
    assert_eq!(after.rounds, before.rounds + (1 << 40));
}

#[test]
fn round_cap_propagates_through_algorithms() {
    use congested_clique::core::{gc, CoreError};
    use congested_clique::graph::generators;
    // A cap far below what GC needs must surface as a CoreError::Net.
    let g = generators::path(24);
    let cfg = NetConfig::kt1(24).with_seed(1).with_round_cap(3);
    let err = gc::run(&g, &cfg).unwrap_err();
    assert!(matches!(
        err,
        CoreError::Net(NetError::RoundCapExceeded { cap: 3 })
    ));
}

#[test]
fn deterministic_everything_across_identical_configs() {
    use congested_clique::core::gc;
    use congested_clique::graph::generators;
    use congested_clique::trace::RecordingTracer;
    let g = generators::cycle(20);
    let cfg = NetConfig::kt1(20).with_seed(77);
    let run = |cfg: &NetConfig| {
        let mut net = Net::new(cfg.clone());
        let rec = RecordingTracer::new();
        net.set_tracer(Box::new(rec.clone()));
        let out = gc::run_on(&mut net, &g, &Default::default()).unwrap();
        (out, net.cost(), rec.model_events())
    };
    let a = run(&cfg);
    let b = run(&cfg);
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1);
    // Each round's message batches are `(src, dst)`-sorted, so two runs'
    // model event streams match exactly.
    assert!(!a.2.is_empty());
    assert_eq!(a.2, b.2, "model event streams are identical");
}
