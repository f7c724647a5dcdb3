//! BUILDCOMPONENTGRAPH (Section 2.2 / 2.3 of the paper).
//!
//! Given a component labeling of the nodes (every node knows every node's
//! component leader), one communication round makes every component leader
//! know its neighboring components in the *component graph*:
//!
//! * **Unweighted** (GC, Algorithm 1 step 4): each node `u` examines its
//!   incident edges and, per neighboring component, sends one witness edge
//!   to that component's leader.
//! * **Weighted** (EXACT-MST step 2): each node `u` sends, per neighboring
//!   component `C'`, its *minimum-weight* edge into `C'`; leaders reduce to
//!   the per-pair minimum and exchange rows so both endpoints' leaders know
//!   the weight (and witness) of every incident component-graph edge.

use crate::error::CoreError;
use cc_graph::{Graph, WEdge, WGraph};
use cc_lotker::{read_edge, read_pair};
use cc_net::Defect;
use cc_route::{read_inbox, Net, Packet};
use std::collections::{BTreeSet, HashMap};

/// The component graph, as established knowledge at component leaders.
///
/// The struct is replicated driver-side state; the simulator metered the
/// communication that established it (see the module docs).
#[derive(Clone, Debug)]
pub struct ComponentGraph {
    /// Sorted component leaders (component = minimum member ID).
    pub leaders: Vec<usize>,
    /// Leader of every node's component.
    pub label_of: Vec<usize>,
    /// Neighbors of each leader in the component graph.
    pub adj: HashMap<usize, BTreeSet<usize>>,
    /// Witness / minimum real edge per component pair, keyed by the
    /// canonical (smaller leader, larger leader) pair. For the unweighted
    /// build this is *a* witness; for the weighted build it is the
    /// minimum-weight edge between the two components.
    pub min_edge: HashMap<(usize, usize), WEdge>,
}

impl ComponentGraph {
    /// Number of components.
    pub fn component_count(&self) -> usize {
        self.leaders.len()
    }

    /// Leaders that have at least one neighboring component (the
    /// non-isolated vertices Phase 2 sketches). Isolated leaders head
    /// *finished* trees in the paper's terminology.
    pub fn unfinished_leaders(&self) -> Vec<usize> {
        self.leaders
            .iter()
            .copied()
            .filter(|l| self.adj.get(l).is_some_and(|s| !s.is_empty()))
            .collect()
    }

    /// The component-graph edges as canonical leader pairs.
    pub fn edges(&self) -> Vec<(usize, usize)> {
        let mut out: Vec<(usize, usize)> = self.min_edge.keys().copied().collect();
        out.sort_unstable();
        out
    }
}

/// Unweighted BUILDCOMPONENTGRAPH. One send round: each node notifies the
/// leaders of neighboring components with a witness edge.
///
/// # Errors
///
/// Propagates simulator errors. A received witness that is not two
/// nodes `[u, v]` with `v` in the receiving leader's component and `u`
/// in the sender's (another component) is
/// [`NetError::Malformed`](cc_net::NetError::Malformed).
///
/// # Panics
///
/// Panics if sizes disagree or `label_of` is not a min-member labeling.
pub fn build_component_graph(
    net: &mut Net,
    g: &Graph,
    label_of: &[usize],
) -> Result<ComponentGraph, CoreError> {
    let n = net.n();
    assert_eq!(g.n(), n, "graph must span the clique");
    assert_eq!(label_of.len(), n);
    for (v, &l) in label_of.iter().enumerate() {
        assert!(
            l <= v && label_of[l] == l,
            "labels must be component minima"
        );
    }

    // Per node: one witness edge per neighboring component.
    let per_node: Vec<HashMap<usize, (usize, usize)>> = (0..n)
        .map(|u| {
            let mut m = HashMap::new();
            for &v in g.neighbors(u) {
                let v = v as usize;
                if label_of[v] != label_of[u] {
                    m.entry(label_of[v]).or_insert((u, v));
                }
            }
            m
        })
        .collect();

    let mut adj: HashMap<usize, BTreeSet<usize>> = HashMap::new();
    let mut min_edge: HashMap<(usize, usize), WEdge> = HashMap::new();
    let mut leaders: Vec<usize> = label_of.to_vec();
    leaders.sort_unstable();
    leaders.dedup();
    for &l in &leaders {
        adj.entry(l).or_default();
    }

    net.step(|node, _inbox, out| {
        for (&leader, &(u, v)) in &per_node[node] {
            let _ = out.send(leader, Packet::of(&[u as u64, v as u64]));
        }
    })?;
    read_inbox(
        net,
        |node, src, msg| {
            let &[u, v] = msg else {
                return Err(Defect::Length {
                    found: msg.len(),
                    expected: 2,
                });
            };
            // The receiving leader `node` leads v's component; the
            // sender's component is u's, and another one.
            let (u, v) = read_pair(u, v, n)?;
            let sender = label_of[src];
            if label_of[v] == node && label_of[u] == sender && sender != node {
                Ok((u, v))
            } else {
                Err(Defect::Fragments {
                    u: u.min(v),
                    v: u.max(v),
                })
            }
        },
        |node, (u, v)| {
            let other = label_of[u];
            adj.entry(node).or_default().insert(other);
            adj.entry(other).or_default().insert(node);
            let key = (node.min(other), node.max(other));
            min_edge.entry(key).or_insert_with(|| WEdge::new(u, v, 1));
        },
    )?;

    Ok(ComponentGraph {
        leaders,
        label_of: label_of.to_vec(),
        adj,
        min_edge,
    })
}

/// Weighted BUILDCOMPONENTGRAPH: like the unweighted version, but nodes
/// send their minimum-weight edge per neighboring component, leaders reduce
/// per pair, and a leader-exchange round makes both sides of every
/// component-graph edge know its weight (+ witness).
///
/// # Errors
///
/// Propagates simulator errors. A received edge that is not `[w, u, v]`
/// with one endpoint in the receiving leader's component and the other
/// in the sender's (another component) is
/// [`NetError::Malformed`](cc_net::NetError::Malformed).
///
/// # Panics
///
/// Panics if sizes disagree or `label_of` is not a min-member labeling.
pub fn build_weighted_component_graph(
    net: &mut Net,
    g: &WGraph,
    label_of: &[usize],
) -> Result<ComponentGraph, CoreError> {
    let n = net.n();
    assert_eq!(g.n(), n, "graph must span the clique");
    assert_eq!(label_of.len(), n);
    for (v, &l) in label_of.iter().enumerate() {
        assert!(
            l <= v && label_of[l] == l,
            "labels must be component minima"
        );
    }

    // Per node: min-weight edge per neighboring component.
    let per_node: Vec<HashMap<usize, WEdge>> = (0..n)
        .map(|u| {
            let mut m: HashMap<usize, WEdge> = HashMap::new();
            for &(v, w) in g.neighbors(u) {
                let v = v as usize;
                if label_of[v] == label_of[u] {
                    continue;
                }
                let e = WEdge::new(u, v, w);
                m.entry(label_of[v])
                    .and_modify(|b| {
                        if e.weight() < b.weight() {
                            *b = e;
                        }
                    })
                    .or_insert(e);
            }
            m
        })
        .collect();

    let mut leaders: Vec<usize> = label_of.to_vec();
    leaders.sort_unstable();
    leaders.dedup();

    // Round 1: nodes → leaders of the far component.
    let mut received: Vec<Vec<WEdge>> = vec![Vec::new(); n];
    net.step(|node, _inbox, out| {
        for (&leader, e) in &per_node[node] {
            let _ = out.send(leader, Packet::of(&[e.w, e.u as u64, e.v as u64]));
        }
    })?;
    read_inbox(
        net,
        |node, src, msg| {
            let e = read_edge(msg, n)?;
            let (u, v) = e.endpoints();
            let sender = label_of[src];
            let joins =
                |here: usize, there: usize| label_of[here] == node && label_of[there] == sender;
            if sender != node && (joins(u, v) || joins(v, u)) {
                Ok(e)
            } else {
                Err(Defect::Fragments { u, v })
            }
        },
        |node, e| received[node].push(e),
    )?;

    // Leaders reduce per source component.
    let mut reduced: Vec<Vec<(usize, WEdge)>> = vec![Vec::new(); n]; // (src leader, min edge)
    for &l in &leaders {
        let mut per_src: HashMap<usize, WEdge> = HashMap::new();
        for e in &received[l] {
            let (u, v) = e.endpoints();
            let src = if label_of[u] == l {
                label_of[v]
            } else {
                label_of[u]
            };
            per_src
                .entry(src)
                .and_modify(|b| {
                    if e.weight() < b.weight() {
                        *b = *e;
                    }
                })
                .or_insert(*e);
        }
        reduced[l] = per_src.into_iter().collect();
        reduced[l].sort_by_key(|&(src, _)| src);
    }

    // Round 2: leader exchange so both sides know each pair's minimum.
    let mut adj: HashMap<usize, BTreeSet<usize>> = HashMap::new();
    for &l in &leaders {
        adj.entry(l).or_default();
    }
    let mut min_edge: HashMap<(usize, usize), WEdge> = HashMap::new();
    // The reducing leader already knows its rows.
    for &l in &leaders {
        for &(src, e) in &reduced[l] {
            let key = (l.min(src), l.max(src));
            let cur = min_edge.entry(key).or_insert(e);
            if e.weight() < cur.weight() {
                *cur = e;
            }
            adj.entry(l).or_default().insert(src);
            adj.entry(src).or_default().insert(l);
        }
    }
    net.step(|node, _inbox, out| {
        for (src, e) in &reduced[node] {
            let _ = out.send(*src, Packet::of(&[e.w, e.u as u64, e.v as u64]));
        }
    })?;
    net.step(|_node, _inbox, _out| {})?;

    Ok(ComponentGraph {
        leaders,
        label_of: label_of.to_vec(),
        adj,
        min_edge,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graph::{connectivity, generators};
    use cc_net::NetConfig;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn net(n: usize) -> Net {
        Net::new(NetConfig::kt1(n).with_seed(5))
    }

    #[test]
    fn unweighted_three_components() {
        // Components {0,1}, {2,3}, {4} with edges {1,2} between the first
        // two; {4} isolated.
        let mut g = Graph::new(5);
        g.add_edge(0, 1);
        g.add_edge(2, 3);
        g.add_edge(1, 2);
        let labels = vec![0, 0, 0, 0, 4];
        // {1,2} merges the first two components — use the real labeling.
        let labels_real = connectivity::component_labels(&g);
        assert_eq!(labels_real, vec![0, 0, 0, 0, 4]);
        let mut nt = net(5);
        let cg = build_component_graph(&mut nt, &g, &labels_real).unwrap();
        assert_eq!(cg.leaders, vec![0, 4]);
        assert!(
            cg.unfinished_leaders().is_empty(),
            "no inter-component edges"
        );
        let _ = labels;
    }

    #[test]
    fn unweighted_witnesses_are_real_cut_edges() {
        // Components {0,1} and {2,3} joined by {1,2} and {0,3}.
        let mut g = Graph::new(4);
        g.add_edge(0, 1);
        g.add_edge(2, 3);
        g.add_edge(1, 2);
        g.add_edge(0, 3);
        let labels = vec![0, 0, 2, 2];
        let mut nt = net(4);
        let cg = build_component_graph(&mut nt, &g, &labels).unwrap();
        assert_eq!(cg.leaders, vec![0, 2]);
        assert_eq!(cg.unfinished_leaders(), vec![0, 2]);
        let w = cg.min_edge[&(0, 2)];
        let (u, v) = w.endpoints();
        assert!(g.has_edge(u, v));
        assert_ne!(labels[u], labels[v]);
    }

    #[test]
    fn unweighted_costs_one_send_round() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let g = generators::with_k_components(20, 4, 0.4, &mut rng);
        let labels = connectivity::component_labels(&g);
        let mut nt = net(20);
        let _ = build_component_graph(&mut nt, &g, &labels).unwrap();
        assert_eq!(nt.cost().rounds, 2, "send + deliver");
    }

    #[test]
    fn weighted_minimum_edges_per_pair() {
        // Components {0,1}, {2,3}; cross edges {1,2}#7 and {0,3}#4.
        let mut g = WGraph::new(4);
        g.add_edge(0, 1, 1);
        g.add_edge(2, 3, 1);
        g.add_edge(1, 2, 7);
        g.add_edge(0, 3, 4);
        let labels = vec![0, 0, 2, 2];
        let mut nt = net(4);
        let cg = build_weighted_component_graph(&mut nt, &g, &labels).unwrap();
        assert_eq!(cg.min_edge[&(0, 2)], WEdge::new(0, 3, 4));
    }

    #[test]
    fn weighted_matches_brute_force_on_random_inputs() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        for trial in 0..5 {
            let base = generators::with_k_components(24, 5, 0.5, &mut rng);
            let g = generators::with_random_weights(&base, 100, &mut rng);
            // Merge pairs of components artificially by adding bridges.
            let labels = connectivity::component_labels(&base);
            let mut nt = Net::new(NetConfig::kt1(24).with_seed(trial));
            let cg = build_weighted_component_graph(&mut nt, &g, &labels).unwrap();
            // Brute force: min edge per component pair.
            let mut brute: HashMap<(usize, usize), WEdge> = HashMap::new();
            for e in g.edges() {
                let (u, v) = e.endpoints();
                let (a, b) = (labels[u], labels[v]);
                if a == b {
                    continue;
                }
                let key = (a.min(b), a.max(b));
                let cur = brute.entry(key).or_insert(e);
                if e.weight() < cur.weight() {
                    *cur = e;
                }
            }
            assert_eq!(cg.min_edge, brute, "trial={trial}");
        }
    }

    #[test]
    fn singleton_components_everywhere() {
        // Edgeless graph: every node its own (finished) component.
        let g = Graph::new(6);
        let labels: Vec<usize> = (0..6).collect();
        let mut nt = net(6);
        let cg = build_component_graph(&mut nt, &g, &labels).unwrap();
        assert_eq!(cg.component_count(), 6);
        assert!(cg.unfinished_leaders().is_empty());
        assert!(cg.edges().is_empty());
    }

    #[test]
    #[should_panic(expected = "component minima")]
    fn rejects_non_minimum_labels() {
        let g = Graph::new(3);
        let mut nt = net(3);
        let _ = build_component_graph(&mut nt, &g, &[1, 1, 2]);
    }
}
