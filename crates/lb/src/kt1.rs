//! The Section 4 KT1 lower-bound family (Theorem 10, Corollaries 11–12,
//! Figure 1).
//!
//! On `n = 2i + 2` nodes `{u₀, …, u_i, v₀, …, v_i}`, the forest `G_{i,0}`
//! (Figure 1) has edges `(u₀,v₀)`, `(v₀,u_k)` and `(u_k,v_k)` for
//! `k = 1, …, i`. `G_{i,j}` removes the spoke `(u_j, v_j)` (disconnected);
//! `G_{i,i+1}` removes all spokes (`i + 1` components).
//!
//! The proof partitions the nodes into `P_{i,j} = {u_j, v_j}` vs. the
//! rest and argues every partition must be *crossed* by a message on
//! `G_{i,0}` or on `G_{i,i+1}` — since one message crosses at most two
//! partitions (the sets `{u_j, v_j}` are pairwise disjoint), that is
//! `Ω(n)` messages. This module builds the family, counts crossings in
//! recorded runs' message batches, and runs a natural deterministic
//! `GC(u₀,v₀)` protocol whose crossing profile the experiments audit.

use cc_graph::{connectivity, Graph};
use cc_net::{NetConfig, NetError};
use cc_route::{Net, Packet};
use cc_trace::{Event, RecordingTracer};
use std::collections::HashSet;

/// Node index of `u_k` in the `G_{i,·}` layout.
pub fn u(_i: usize, k: usize) -> usize {
    k
}

/// Node index of `v_k` in the `G_{i,·}` layout.
pub fn v(i: usize, k: usize) -> usize {
    i + 1 + k
}

/// Builds `G_{i,j}` for `0 ≤ j ≤ i + 1` (Figure 1 is `j = 0`).
///
/// # Panics
///
/// Panics if `i < 1` or `j > i + 1`.
pub fn g_ij(i: usize, j: usize) -> Graph {
    assert!(i >= 1, "need at least one spoke pair");
    assert!(j <= i + 1, "j ranges over 0..=i+1");
    let n = 2 * i + 2;
    let mut g = Graph::new(n);
    g.add_edge(u(i, 0), v(i, 0));
    for k in 1..=i {
        g.add_edge(v(i, 0), u(i, k));
        let keep_spoke = match j {
            0 => true,
            jj if jj == i + 1 => false,
            jj => jj != k,
        };
        if keep_spoke {
            g.add_edge(u(i, k), v(i, k));
        }
    }
    g
}

/// The partition class `P_{i,j}^{(1)} = {u_j, v_j}` for `j = 1, …, i`.
pub fn partition_pair(i: usize, j: usize) -> (usize, usize) {
    assert!((1..=i).contains(&j), "partitions are indexed 1..=i");
    (u(i, j), v(i, j))
}

/// Which partitions a recorded run crosses: `j` is crossed iff some
/// `MessageBatch` in `events` runs between `{u_j, v_j}` and the
/// complement.
pub fn crossed_partitions(i: usize, events: &[Event]) -> HashSet<usize> {
    let mut crossed = HashSet::new();
    for (s, d) in crate::message_links(events) {
        for j in 1..=i {
            let (a, b) = partition_pair(i, j);
            let s_in = s == a || s == b;
            let d_in = d == a || d == b;
            if s_in != d_in {
                crossed.insert(j);
            }
        }
    }
    crossed
}

/// Output of one protocol run on a `G_{i,j}` instance.
#[derive(Clone, Debug)]
pub struct Gc2Run {
    /// The protocol's answer ("is the graph connected?"), which the last
    /// round delivers from `u₀` to `v₀` per the `GC(x, y)` definition.
    pub connected: bool,
    /// Messages sent.
    pub messages: u64,
    /// Rounds used.
    pub rounds: u64,
    /// The run's model events (the run always records them).
    pub events: Vec<Event>,
}

/// A natural deterministic KT1 protocol for `GC(u₀, v₀)`: every node
/// reports its incident edge list to `u₀` over its direct link (pipelined
/// under the link budget), `u₀` reconstructs the graph, decides, and sends
/// the one-bit answer to `v₀` in the final round.
///
/// This is the kind of concrete algorithm Theorem 10's bound applies to;
/// the experiments check its crossing profile against the theorem.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn run_report_protocol(g: &Graph, seed: u64) -> Result<Gc2Run, NetError> {
    let n = g.n();
    let cfg = NetConfig::kt1(n).with_seed(seed);
    let mut net: Net = Net::new(cfg);
    let rec = RecordingTracer::new();
    net.set_tracer(Box::new(rec.clone()));
    let u0 = 0usize;
    let v0 = g.n() / 2; // v_0 in the G_{i,·} layout (n = 2i + 2)
    let link_words = net.config().link_words as usize;

    // Each node queues its neighbor list (one word per neighbor; nodes
    // with no neighbors send an explicit empty marker so u₀ can terminate).
    let mut queues: Vec<Vec<Packet>> = (0..n)
        .map(|x| {
            if x == u0 {
                return Vec::new();
            }
            let neigh = g.neighbors(x);
            if neigh.is_empty() {
                vec![Packet::one(u64::MAX)]
            } else {
                neigh.iter().map(|&y| Packet::one(y as u64)).collect()
            }
        })
        .collect();
    let mut edges: Vec<(usize, usize)> = Vec::new();
    while queues.iter().any(|q| !q.is_empty()) || net.has_pending() {
        net.step(|node, inbox, out| {
            if node == u0 {
                for env in inbox {
                    if env.msg[0] != u64::MAX {
                        edges.push((env.src, env.msg[0] as usize));
                    }
                }
                return;
            }
            let mut used = 0usize;
            while let Some(front) = queues[node].first() {
                if used + front.len() > link_words {
                    break;
                }
                used += front.len();
                let msg = queues[node].remove(0);
                let _ = out.send(u0, msg);
            }
        })?;
    }
    // u₀ reconstructs (its own incidences it knows locally) and decides.
    let mut reconstructed = Graph::new(n);
    for &y in g.neighbors(u0) {
        reconstructed.add_edge(u0, y as usize);
    }
    for (x, y) in edges {
        reconstructed.add_edge(x, y);
    }
    let connected = connectivity::is_connected(&reconstructed);
    // Final round: u₀ → v₀ with the answer (the GC(x, y) requirement).
    net.step(|node, _inbox, out| {
        if node == u0 {
            let _ = out.send(v0, Packet::one(u64::from(connected)));
        }
    })?;
    net.step(|_node, _inbox, _out| {})?;
    Ok(Gc2Run {
        connected,
        messages: net.cost().messages,
        rounds: net.cost().rounds,
        events: rec.model_events(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_component_counts() {
        let i = 6;
        assert_eq!(connectivity::component_count(&g_ij(i, 0)), 1);
        for j in 1..=i {
            assert_eq!(connectivity::component_count(&g_ij(i, j)), 2, "j={j}");
        }
        assert_eq!(connectivity::component_count(&g_ij(i, i + 1)), i + 1);
    }

    #[test]
    fn figure1_shape() {
        // G_{i,0}: v0 has degree i + 1 (u0 and the i spokes' u_k);
        // u0 has degree 1; each u_k (k ≥ 1) degree 2; each v_k degree 1.
        let i = 5;
        let g = g_ij(i, 0);
        assert_eq!(g.n(), 2 * i + 2);
        assert_eq!(g.m(), 2 * i + 1);
        assert_eq!(g.degree(v(i, 0)), i + 1);
        assert_eq!(g.degree(u(i, 0)), 1);
        for k in 1..=i {
            assert_eq!(g.degree(u(i, k)), 2);
            assert_eq!(g.degree(v(i, k)), 1);
        }
    }

    #[test]
    fn deleting_spoke_j_disconnects_exactly_uj_vj_pair_side() {
        let i = 4;
        for j in 1..=i {
            let g = g_ij(i, j);
            let labels = connectivity::component_labels(&g);
            // v_j is separated; everything else is with u0.
            assert_eq!(labels[v(i, j)], v(i, j));
            assert_eq!(labels[u(i, j)], labels[u(i, 0)]);
        }
    }

    #[test]
    fn partitions_are_pairwise_disjoint() {
        let i = 7;
        let mut seen = HashSet::new();
        for j in 1..=i {
            let (a, b) = partition_pair(i, j);
            assert!(seen.insert(a));
            assert!(seen.insert(b));
        }
    }

    #[test]
    fn crossing_counter() {
        let i = 3;
        let batch = |src: usize, dst: usize| {
            vec![Event::MessageBatch {
                round: 1,
                src: src as u32,
                dst: dst as u32,
                count: 1,
                words: 1,
            }]
        };
        // Message u1 → v0 crosses partition 1 only.
        assert_eq!(
            crossed_partitions(i, &batch(u(i, 1), v(i, 0))),
            HashSet::from([1])
        );
        // Message u2 → v2 stays inside partition 2: crosses nothing.
        assert!(crossed_partitions(i, &batch(u(i, 2), v(i, 2))).is_empty());
        // Message u1 → v3 crosses partitions 1 and 3 (two at most!).
        assert_eq!(
            crossed_partitions(i, &batch(u(i, 1), v(i, 3))),
            HashSet::from([1, 3])
        );
    }

    #[test]
    fn report_protocol_is_correct_on_the_family() {
        let i = 5;
        for j in 0..=(i + 1) {
            let g = g_ij(i, j);
            let run = run_report_protocol(&g, 1).unwrap();
            assert_eq!(run.connected, connectivity::is_connected(&g), "j={j}");
        }
    }

    #[test]
    fn theorem10_crossing_structure_holds_for_the_protocol() {
        // Every partition must be crossed on G_{i,0} or G_{i,i+1}; one
        // message crosses ≤ 2 partitions, so messages ≥ i/2 across the two
        // runs — the Ω(n) bound, checked concretely.
        let i = 8;
        let r0 = run_report_protocol(&g_ij(i, 0), 2).unwrap();
        let r1 = run_report_protocol(&g_ij(i, i + 1), 2).unwrap();
        let crossed: HashSet<usize> = crossed_partitions(i, &r0.events)
            .union(&crossed_partitions(i, &r1.events))
            .copied()
            .collect();
        assert_eq!(crossed.len(), i, "all partitions crossed");
        assert!(
            r0.messages + r1.messages >= (i as u64) / 2,
            "message count below the theorem's bound"
        );
    }

    #[test]
    #[should_panic(expected = "j ranges")]
    fn out_of_range_j_rejected() {
        g_ij(3, 5);
    }
}
