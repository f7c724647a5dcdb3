//! Graph statistics used by the experiment harness and examples:
//! density and eccentricity-style measures via BFS.

use crate::graph::Graph;
use std::collections::VecDeque;

/// Edge density `m / C(n,2)` (0 for `n < 2`).
pub fn density(g: &Graph) -> f64 {
    if g.n() < 2 {
        return 0.0;
    }
    g.m() as f64 / crate::edge::num_pairs(g.n()) as f64
}

/// Eccentricity of `v` within its component (max BFS distance).
pub fn eccentricity(g: &Graph, v: usize) -> usize {
    let mut dist = vec![usize::MAX; g.n()];
    let mut queue = VecDeque::new();
    dist[v] = 0;
    queue.push_back(v);
    let mut far = 0;
    while let Some(u) = queue.pop_front() {
        for &w in g.neighbors(u) {
            let w = w as usize;
            if dist[w] == usize::MAX {
                dist[w] = dist[u] + 1;
                far = far.max(dist[w]);
                queue.push_back(w);
            }
        }
    }
    far
}

/// Diameter of a connected graph (`None` if disconnected or empty).
pub fn diameter(g: &Graph) -> Option<usize> {
    if g.n() == 0 || !crate::connectivity::is_connected(g) {
        return None;
    }
    Some((0..g.n()).map(|v| eccentricity(g, v)).max().unwrap())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn density_extremes() {
        assert_eq!(density(&generators::complete(6)), 1.0);
        assert_eq!(density(&crate::Graph::new(6)), 0.0);
        assert_eq!(density(&crate::Graph::new(1)), 0.0);
    }

    #[test]
    fn path_diameter() {
        assert_eq!(diameter(&generators::path(10)), Some(9));
        assert_eq!(diameter(&generators::cycle(10)), Some(5));
        assert_eq!(diameter(&crate::Graph::new(3)), None, "disconnected");
        assert_eq!(eccentricity(&generators::path(10), 0), 9);
        assert_eq!(eccentricity(&generators::path(10), 5), 5);
    }

    #[test]
    fn new_generators_are_sane() {
        use crate::connectivity;
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);

        let grid = generators::grid(4, 5);
        assert_eq!(grid.n(), 20);
        assert_eq!(grid.m(), 4 * 4 + 3 * 5);
        assert_eq!(diameter(&grid), Some(3 + 4));

        let bb = generators::barbell(4, 2);
        assert!(connectivity::is_connected(&bb));
        assert_eq!(connectivity::bridges(&bb).len(), 2);

        let cat = generators::caterpillar(5, 3);
        assert!(connectivity::is_connected(&cat));
        assert_eq!(cat.n(), 20);
        assert_eq!(cat.m(), 19);

        let sw = generators::small_world(30, 2, 0.2, &mut rng);
        assert!(sw.m() > 0);
        assert!(sw.m() > sw.n(), "mean degree above 2");

        let reg = generators::near_regular(20, 4, &mut rng);
        assert!((0..reg.n()).all(|v| reg.degree(v) <= 4));
    }
}
