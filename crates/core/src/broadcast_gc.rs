//! Connectivity in the *broadcast* Congested Clique.
//!
//! Footnote 1 of the paper distinguishes the standard unicast model (a
//! node may send a different message along each link — the model of all
//! its algorithms) from the weaker *broadcast* variant, where a node must
//! send the *same* `O(log n)`-bit message on every link. The sketch
//! pipeline is unicast through and through (routing, gathers, per-leader
//! candidate messages), so it does not port; what does work is classic
//! label propagation:
//!
//! * every node maintains the minimum ID heard so far within its input
//!   component, and broadcasts it whenever it improves;
//! * labels stabilize after at most `diameter` improving rounds per
//!   component; two extra quiet rounds certify global stabilization
//!   (every node sees everyone's final label via the broadcasts — the
//!   clique is complete, so "quiet" is globally visible);
//! * the graph is connected iff all final labels agree;
//! * each node records the neighbour whose broadcast gave it its final
//!   label: those links form a spanning forest of its component (the
//!   neighbour held the label a round earlier, so following them reaches
//!   the component's minimum without a cycle).
//!
//! `O(n · diameter)` messages, `O(diameter)` rounds — a useful baseline
//! showing what the broadcast model costs relative to Theorem 4, and a
//! second, structurally different connectivity algorithm to cross-check
//! the first.

use crate::error::CoreError;
use crate::gc::GcOutput;
use cc_graph::{Edge, Graph, UnionFind};
use cc_route::{Net, Packet};

/// Runs label-propagation GC; valid in both model variants, but uses only
/// broadcasts, so it also runs under
/// [`NetConfig::broadcast_only`](cc_net::NetConfig::broadcast_only). Its
/// cost is `O(n · diameter)` messages in `O(diameter)` rounds.
///
/// # Errors
///
/// Propagates simulator errors.
///
/// # Panics
///
/// Panics if `g.n() != net.n()`.
pub fn broadcast_gc(net: &mut Net, g: &Graph) -> Result<GcOutput, CoreError> {
    let n = net.n();
    assert_eq!(g.n(), n, "graph must span the clique");
    let mut label: Vec<usize> = (0..n).collect();
    // The neighbour whose broadcast gave each node its current label.
    let mut parent: Vec<Option<usize>> = vec![None; n];
    let mut announce: Vec<bool> = vec![true; n]; // everyone announces once
    let mut quiet_rounds = 0usize;
    // Everyone hears every broadcast (complete network), so each node can
    // detect the globally quiet round; two quiet rounds end the protocol
    // (one for the last improvements to land, one to observe silence).
    while quiet_rounds < 2 {
        let mut any = false;
        net.step(|node, inbox, out| {
            // Adopt improvements heard from *input-graph* neighbors only
            // (broadcasts reach everyone; the input topology decides which
            // are meaningful).
            for env in inbox {
                if g.has_edge(node, env.src) {
                    let heard = env.msg[0] as usize;
                    if heard < label[node] {
                        label[node] = heard;
                        parent[node] = Some(env.src);
                        announce[node] = true;
                    }
                }
            }
            if announce[node] {
                announce[node] = false;
                let _ = out.broadcast(Packet::one(label[node] as u64));
            }
        })?;
        // The driver sees whether the round carried any broadcast; nodes
        // see the same thing (their inboxes next round).
        if net.has_pending() {
            any = true;
        }
        quiet_rounds = if any { 0 } else { quiet_rounds + 1 };
    }
    // Final all-to-all of labels (1 broadcast each) so everyone can decide
    // connectivity; count components from the (replicated) label vector.
    let final_labels = label.clone();
    net.step(|node, _inbox, out| {
        let _ = out.broadcast(Packet::one(final_labels[node] as u64));
    })?;
    net.step(|_node, _inbox, _out| {})?;

    let mut uf = UnionFind::new(n);
    for (v, &l) in label.iter().enumerate() {
        uf.union(v, l);
    }
    let component_count = uf.set_count();
    let spanning_forest = parent
        .iter()
        .enumerate()
        .filter_map(|(v, p)| p.map(|u| Edge::new(v, u)))
        .collect();
    Ok(GcOutput {
        connected: component_count == 1,
        component_count,
        labels: label,
        spanning_forest,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::validate_gc;
    use cc_graph::{connectivity, generators, stats};
    use cc_net::{Cost, NetConfig};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// A broadcast-only run, checked by [`validate_gc`], and its cost.
    fn run(g: &Graph, seed: u64) -> (GcOutput, Cost) {
        let mut net = Net::new(NetConfig::kt1(g.n()).with_seed(seed).broadcast_only());
        let out = broadcast_gc(&mut net, g).unwrap();
        validate_gc(g, &out).unwrap();
        (out, net.cost())
    }

    #[test]
    fn matches_reference_on_varied_inputs() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let cases = vec![
            generators::path(20),
            generators::cycle(15),
            generators::with_k_components(24, 3, 0.3, &mut rng),
            generators::gnp(22, 0.1, &mut rng),
            Graph::new(8),
            generators::star(12),
        ];
        for (i, g) in cases.into_iter().enumerate() {
            let (r, _) = run(&g, i as u64);
            assert_eq!(r.connected, connectivity::is_connected(&g), "case {i}");
            assert_eq!(r.labels, connectivity::component_labels(&g), "case {i}");
        }
    }

    #[test]
    fn rounds_track_the_diameter() {
        let g = generators::path(40);
        let (r, cost) = run(&g, 3);
        assert!(r.connected);
        let d = stats::diameter(&g).unwrap() as u64;
        assert!(cost.rounds >= d, "cannot beat the diameter");
        assert!(
            cost.rounds <= d + 8,
            "rounds {} ≫ diameter {d}",
            cost.rounds
        );
    }

    #[test]
    fn runs_under_broadcast_enforcement() {
        // The broadcast_only flag would error on any unicast send; a clean
        // pass is the proof the algorithm is broadcast-model-valid.
        let g = generators::cycle(12);
        let mut net = Net::new(NetConfig::kt1(12).broadcast_only());
        let r = broadcast_gc(&mut net, &g).unwrap();
        assert!(r.connected);
        validate_gc(&g, &r).unwrap();
    }

    #[test]
    fn agrees_with_theorem4_gc() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        for trial in 0..4u64 {
            let g = generators::gnp(18, 0.12, &mut rng);
            let (a, _) = run(&g, trial);
            let b = crate::gc::run(&g, &NetConfig::kt1(18).with_seed(trial)).unwrap();
            assert_eq!(a.connected, b.output.connected);
            assert_eq!(a.labels, b.output.labels);
        }
    }

    #[test]
    fn low_diameter_beats_theorem4_high_diameter_loses() {
        // A star stabilizes in O(1) rounds — fewer than the Lotker
        // preprocessing; a long path pays its diameter.
        let (_, star) = run(&generators::star(32), 5);
        let (_, path) = run(&generators::path(32), 6);
        assert!(star.rounds < 12);
        assert!(path.rounds > star.rounds);
    }
}
