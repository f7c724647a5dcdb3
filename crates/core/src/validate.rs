//! Output validation: the *acceptor* side of the robustness harness.
//!
//! Under fault injection, an algorithm may return garbage without
//! erroring. These validators decide — from the input graph and the
//! claimed output alone — whether an output is acceptable. The
//! robustness taxonomy (`cc-bench`'s `guard`) then distinguishes a
//! *detected* failure (the validator rejects) from a *silent wrong
//! answer* (the validator accepts but a reference disagrees).
//!
//! [`validate_gc`] is **complete** for graph connectivity: the checks
//! (labels split no edge, the forest is an acyclic subgraph, the forest
//! partition equals the label partition, labels are canonical minima)
//! together force `labels == component_labels(g)`, so a silent wrong
//! answer is structurally impossible for GC with validation on.
//! [`validate_mst`] is structural only — edges exist, form a forest,
//! and span every component — so *minimality* still needs the
//! differential check against a sequential reference (Kruskal);
//! [`validate_mst_minimal`] bundles both.

use crate::gc::GcOutput;
use cc_graph::connectivity::component_count;
use cc_graph::{Graph, WEdge, WGraph};

/// Plain union-find for the validators (path halving, union by root).
struct Dsu(Vec<usize>);

impl Dsu {
    fn new(n: usize) -> Self {
        Dsu((0..n).collect())
    }

    fn find(&mut self, mut v: usize) -> usize {
        while self.0[v] != v {
            self.0[v] = self.0[self.0[v]];
            v = self.0[v];
        }
        v
    }

    /// Joins the sets of `a` and `b`; `false` iff already joined.
    fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        self.0[ra.max(rb)] = ra.min(rb);
        true
    }
}

/// Accepts a [`GcOutput`] iff it is *the* connectivity answer for `g`.
///
/// The checks are jointly complete: any accepted output has
/// `labels == cc_graph::connectivity::component_labels(g)`, the correct
/// component count and connectivity verdict, and a maximal spanning
/// forest of `g`.
///
/// # Errors
///
/// Returns a human-readable description of the first violated check.
pub fn validate_gc(g: &Graph, out: &GcOutput) -> Result<(), String> {
    let n = g.n();
    if out.labels.len() != n {
        return Err(format!(
            "label vector has {} entries for {} nodes",
            out.labels.len(),
            n
        ));
    }

    // 1. The forest is an acyclic subgraph of g.
    let mut forest = Dsu::new(n);
    for e in &out.spanning_forest {
        let (u, v) = (e.u as usize, e.v as usize);
        if u >= n || v >= n {
            return Err(format!("forest edge {u}-{v} out of range"));
        }
        if !g.has_edge(u, v) {
            return Err(format!("forest edge {u}-{v} is not an edge of the graph"));
        }
        if !forest.union(u, v) {
            return Err(format!("forest edge {u}-{v} closes a cycle"));
        }
    }

    // 2. No graph edge crosses label classes (labels are a union of
    //    components), and …
    for e in g.edges() {
        let (u, v) = (e.u as usize, e.v as usize);
        if out.labels[u] != out.labels[v] {
            return Err(format!(
                "edge {u}-{v} crosses label classes {} and {}",
                out.labels[u], out.labels[v]
            ));
        }
    }

    // 3. … the forest partition equals the label partition. Together with
    //    (1) and (2) this pins both to the true component partition:
    //    forest ⊆ g refines g's components, components refine the label
    //    classes by (2), and the two ends coincide.
    for v in 0..n {
        let root = forest.find(v);
        if out.labels[v] != out.labels[root] {
            return Err(format!(
                "node {v} (label {}) and its forest root {root} (label {}) disagree",
                out.labels[v], out.labels[root]
            ));
        }
        if forest.find(out.labels[v]) != root {
            return Err(format!(
                "node {v}'s label {} names a different forest component",
                out.labels[v]
            ));
        }
    }

    // 4. Labels are canonical: each class is labeled by its minimum
    //    member. (labels[v] ≤ v with labels[l] == l forces the minimum.)
    for v in 0..n {
        let l = out.labels[v];
        if l > v || out.labels[l] != l {
            return Err(format!(
                "label {l} of node {v} is not the minimum member of its class"
            ));
        }
    }

    // 5. The summary fields agree with the labels.
    let mut distinct: Vec<usize> = out.labels.clone();
    distinct.sort_unstable();
    distinct.dedup();
    if out.component_count != distinct.len() {
        return Err(format!(
            "component_count {} but {} distinct labels",
            out.component_count,
            distinct.len()
        ));
    }
    if out.connected != (distinct.len() == 1) {
        return Err(format!(
            "connected={} contradicts {} components",
            out.connected,
            distinct.len()
        ));
    }
    Ok(())
}

/// Accepts a claimed minimum spanning forest of `g` *structurally*:
/// every edge exists in `g` with the claimed weight, the edges form a
/// forest, and the forest spans every component of `g`.
///
/// Minimality is **not** checked — pair with a sequential reference
/// (e.g. [`cc_graph::mst::kruskal`]) or use [`validate_mst_minimal`].
///
/// # Errors
///
/// Returns a human-readable description of the first violated check.
pub fn validate_mst(g: &WGraph, edges: &[WEdge]) -> Result<(), String> {
    let n = g.n();
    let mut forest = Dsu::new(n);
    for e in edges {
        let (u, v) = (e.u as usize, e.v as usize);
        if u >= n || v >= n {
            return Err(format!("forest edge {u}-{v} out of range"));
        }
        match g.weight_of(u, v) {
            None => {
                return Err(format!("forest edge {u}-{v} is not an edge of the graph"));
            }
            Some(w) if w != e.w => {
                return Err(format!(
                    "forest edge {u}-{v} claims weight {} but the graph says {w}",
                    e.w
                ));
            }
            Some(_) => {}
        }
        if !forest.union(u, v) {
            return Err(format!("forest edge {u}-{v} closes a cycle"));
        }
    }
    // An acyclic subgraph with k edges has n - k components; spanning
    // means that matches the graph's own component count.
    let forest_components = n - edges.len();
    let want = component_count(&g.as_unweighted());
    if forest_components != want {
        return Err(format!(
            "forest has {forest_components} components but the graph has {want}"
        ));
    }
    Ok(())
}

/// [`validate_mst`] plus minimality: the total weight must equal the
/// sequential reference ([`cc_graph::mst::kruskal`]) — any minimum
/// spanning forest shares it.
///
/// # Errors
///
/// Returns a human-readable description of the first violated check.
pub fn validate_mst_minimal(g: &WGraph, edges: &[WEdge]) -> Result<(), String> {
    validate_mst(g, edges)?;
    let claimed = WGraph::total_weight(edges);
    let reference = WGraph::total_weight(&cc_graph::mst::kruskal(g));
    if claimed != reference {
        return Err(format!(
            "forest weight {claimed} differs from the minimum {reference}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graph::connectivity::component_labels;
    use cc_graph::generators;
    use cc_graph::Edge;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn honest_gc(g: &Graph) -> GcOutput {
        let labels = component_labels(g);
        let forest: Vec<Edge> = cc_graph::connectivity::spanning_forest(g)
            .into_iter()
            .map(|(u, v)| Edge::new(u, v))
            .collect();
        let mut distinct = labels.clone();
        distinct.sort_unstable();
        distinct.dedup();
        GcOutput {
            connected: distinct.len() == 1,
            component_count: distinct.len(),
            labels,
            spanning_forest: forest,
        }
    }

    #[test]
    fn honest_outputs_are_accepted() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for p in [0.02, 0.1, 0.5] {
            let g = generators::gnp(40, p, &mut rng);
            let out = honest_gc(&g);
            validate_gc(&g, &out).expect("honest GC output rejected");
        }
    }

    #[test]
    fn every_single_field_lie_is_caught() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let g = generators::gnp(20, 0.08, &mut rng);
        let honest = honest_gc(&g);
        assert!(honest.component_count > 1, "want a disconnected instance");

        let mut lie = honest.clone();
        lie.connected = !lie.connected;
        assert!(validate_gc(&g, &lie).is_err(), "connectivity flip accepted");

        let mut lie = honest.clone();
        lie.component_count += 1;
        assert!(validate_gc(&g, &lie).is_err(), "count lie accepted");

        // Merging two real components under one label: caught because
        // the forest partition no longer matches the labels.
        let mut lie = honest.clone();
        let a = honest.labels[0];
        let other = *honest.labels.iter().find(|&&l| l != a).unwrap();
        for l in &mut lie.labels {
            if *l == other {
                *l = a;
            }
        }
        lie.component_count -= 1;
        assert!(validate_gc(&g, &lie).is_err(), "merged components accepted");

        // Splitting one component in two: some graph edge must cross.
        let mut lie = honest.clone();
        let split = (0..g.n()).find(|&v| honest.labels[v] != v).unwrap();
        lie.labels[split] = split;
        assert!(validate_gc(&g, &lie).is_err(), "split component accepted");

        // A forest edge not in the graph.
        let mut lie = honest.clone();
        let (mut u, mut v) = (0, 1);
        'outer: for a in 0..g.n() {
            for b in (a + 1)..g.n() {
                if !g.has_edge(a, b) {
                    (u, v) = (a, b);
                    break 'outer;
                }
            }
        }
        assert!(!g.has_edge(u, v));
        lie.spanning_forest.push(Edge::new(u, v));
        assert!(
            validate_gc(&g, &lie).is_err(),
            "phantom forest edge accepted"
        );

        // A non-maximal forest (drop one edge): partitions disagree.
        let mut lie = honest.clone();
        if !lie.spanning_forest.is_empty() {
            lie.spanning_forest.remove(0);
            assert!(
                validate_gc(&g, &lie).is_err(),
                "non-spanning forest accepted"
            );
        }

        // Non-canonical labels: relabel a class by a non-minimum member.
        let mut lie = honest.clone();
        let class = honest.labels[g.edges()[0].u as usize];
        let bigger = (0..g.n())
            .find(|&v| honest.labels[v] == class && v != class)
            .unwrap();
        for l in &mut lie.labels {
            if *l == class {
                *l = bigger;
            }
        }
        assert!(
            validate_gc(&g, &lie).is_err(),
            "non-canonical labels accepted"
        );
    }

    #[test]
    fn accepted_gc_outputs_equal_the_reference() {
        // The completeness claim, tested directly: anything accepted has
        // exactly the reference labels.
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let g = generators::gnp(30, 0.07, &mut rng);
        let out = honest_gc(&g);
        validate_gc(&g, &out).unwrap();
        assert_eq!(out.labels, component_labels(&g));
    }

    #[test]
    fn structural_mst_checks_catch_malformed_forests() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let g = generators::gnp_weighted(24, 0.2, 1000, &mut rng);
        let mst = cc_graph::mst::kruskal(&g);
        validate_mst(&g, &mst).expect("honest MST rejected");
        validate_mst_minimal(&g, &mst).expect("honest MST not minimal?");

        // A cycle.
        let mut bad = mst.clone();
        if let Some(e) = g
            .edges()
            .iter()
            .find(|e| !mst.iter().any(|m| (m.u, m.v) == (e.u, e.v)))
        {
            bad.push(*e);
            assert!(validate_mst(&g, &bad).is_err(), "cycle accepted");
        }

        // A dropped edge (no longer spanning).
        let mut bad = mst.clone();
        bad.pop();
        assert!(validate_mst(&g, &bad).is_err(), "non-spanning accepted");

        // A forged weight.
        let mut bad = mst.clone();
        bad[0].w = bad[0].w.wrapping_add(1);
        assert!(validate_mst(&g, &bad).is_err(), "forged weight accepted");

        // A phantom edge.
        let mut bad = mst;
        bad[0] = WEdge::new(0, 1, 1);
        if g.weight_of(0, 1) != Some(1) {
            assert!(validate_mst(&g, &bad).is_err(), "phantom edge accepted");
        }
    }

    #[test]
    fn minimality_is_only_caught_by_the_differential_check() {
        // Swap an MST edge for a heavier non-tree edge on the same cycle:
        // still a spanning forest (structurally fine) but not minimal.
        let mut g = WGraph::new(4);
        g.add_edge(0, 1, 1);
        g.add_edge(1, 2, 1);
        g.add_edge(2, 3, 1);
        g.add_edge(0, 3, 100);
        let heavy = vec![
            WEdge::new(0, 1, 1),
            WEdge::new(1, 2, 1),
            WEdge::new(0, 3, 100),
        ];
        validate_mst(&g, &heavy).expect("structurally sound forest rejected");
        assert!(
            validate_mst_minimal(&g, &heavy).is_err(),
            "non-minimal forest accepted as minimal"
        );
    }
}
