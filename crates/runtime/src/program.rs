//! Reference programs.
//!
//! The paper's big algorithms in `cc-core` use the closure API of
//! [`cc_net::CliqueNet::step`] (they are driver-orchestrated by nature:
//! coordinator steps, collectives, phase barriers). The
//! [`Program`](crate::Program) API is the right shape for *reactive*
//! protocols — flooding, echo, token passing — and for tests that want
//! the type system to enforce locality. [`examples::FloodEcho`] is the
//! reference user: a spanning-tree flood/echo from a root, a classic
//! whose message pattern (one message per edge per direction,
//! `O(diameter)` rounds) is easy to assert.

/// Reference programs.
pub mod examples {
    use crate::backend::{Ctx, Program};
    use cc_net::Envelope;

    /// Flood/echo spanning tree from a root over a *subgraph* of the
    /// clique (the input graph): the root floods, nodes adopt the first
    /// sender as parent and forward, leaves echo back, and the echo
    /// converges on the root, which then knows the size of its component.
    #[derive(Clone, Debug)]
    pub struct FloodEcho {
        /// Neighbors in the input graph.
        pub neighbors: Vec<usize>,
        /// Whether this node is the root.
        pub root: bool,
        /// Parent in the flood tree (set on first receipt).
        pub parent: Option<usize>,
        /// Children yet to echo.
        awaiting: Vec<usize>,
        /// Subtree size accumulated from echoes (incl. self).
        pub subtree: u64,
        started: bool,
        terminated: bool,
        echoed: bool,
    }

    /// Message words: `FLOOD` or `ECHO(count)`.
    const FLOOD: u64 = 0;
    const ECHO: u64 = 1;

    impl FloodEcho {
        /// A node with the given input-graph neighbors.
        pub fn new(neighbors: Vec<usize>, root: bool) -> Self {
            FloodEcho {
                neighbors,
                root,
                parent: None,
                awaiting: Vec::new(),
                subtree: 1,
                started: false,
                terminated: false,
                echoed: false,
            }
        }

        fn begin_flood(&mut self, ctx: &mut Ctx<'_, '_, Vec<u64>>) {
            self.started = true;
            self.awaiting = self
                .neighbors
                .iter()
                .copied()
                .filter(|&v| Some(v) != self.parent)
                .collect();
            for &v in &self.awaiting {
                let _ = ctx.send(v, vec![FLOOD]);
            }
            if self.awaiting.is_empty() {
                self.terminated = true;
            }
        }

        /// Whether this node ended up in the root's flood tree.
        pub fn reached(&self) -> bool {
            self.root || self.parent.is_some()
        }
    }

    impl Program for FloodEcho {
        type Msg = Vec<u64>;

        fn start(&mut self, ctx: &mut Ctx<'_, '_, Vec<u64>>) {
            if self.root {
                self.begin_flood(ctx);
            }
        }

        fn round(&mut self, ctx: &mut Ctx<'_, '_, Vec<u64>>, inbox: &[Envelope<Vec<u64>>]) -> bool {
            for env in inbox {
                match env.msg[0] {
                    FLOOD => {
                        if self.root || self.parent.is_some() {
                            // Already in the tree: immediately echo 0 so the
                            // sender does not wait for us.
                            let _ = ctx.send(env.src, vec![ECHO, 0]);
                        } else {
                            self.parent = Some(env.src);
                            self.begin_flood(ctx);
                        }
                    }
                    ECHO => {
                        self.awaiting.retain(|&v| v != env.src);
                        self.subtree += env.msg[1];
                        if self.started && self.awaiting.is_empty() {
                            self.terminated = true;
                        }
                    }
                    _ => unreachable!("unknown message tag"),
                }
            }
            if self.terminated {
                if let Some(p) = self.parent {
                    if !self.echoed {
                        // Send the echo exactly once.
                        self.echoed = true;
                        let _ = ctx.send(p, vec![ECHO, self.subtree]);
                    }
                }
                return true;
            }
            // Nodes never reached terminate trivially once the flood has
            // settled; they report done when they have nothing pending.
            !self.started && self.parent.is_none() && !self.root
        }
    }
}

#[cfg(test)]
mod tests {
    use super::examples::FloodEcho;
    use crate::{Ctx, Program, Runtime};
    use cc_net::{Envelope, NetConfig, NetError};

    fn programs_for(g: &[Vec<usize>], root: usize) -> Vec<FloodEcho> {
        g.iter()
            .enumerate()
            .map(|(v, nb)| FloodEcho::new(nb.clone(), v == root))
            .collect()
    }

    fn adjacency(n: usize, edges: &[(usize, usize)]) -> Vec<Vec<usize>> {
        let mut adj = vec![Vec::new(); n];
        for &(a, b) in edges {
            adj[a].push(b);
            adj[b].push(a);
        }
        adj
    }

    #[test]
    fn flood_echo_counts_component_size() {
        // Path 0-1-2-3 plus isolated node 4.
        let adj = adjacency(5, &[(0, 1), (1, 2), (2, 3)]);
        let mut rt = Runtime::serial(NetConfig::kt1(5));
        let programs = rt.run(programs_for(&adj, 0), 100).unwrap();
        assert_eq!(programs[0].subtree, 4, "root counts its component");
        assert!(programs[1].reached() && programs[3].reached());
        assert!(!programs[4].reached(), "isolated node untouched");
    }

    #[test]
    fn flood_echo_on_a_cycle_uses_one_message_per_direction_per_edge() {
        let n = 8;
        let edges: Vec<(usize, usize)> = (0..n).map(|v| (v, (v + 1) % n)).collect();
        let adj = adjacency(n, &edges);
        let mut rt = Runtime::serial(NetConfig::kt1(n));
        let programs = rt.run(programs_for(&adj, 3), 100).unwrap();
        assert_eq!(programs[3].subtree, n as u64);
        // Flood + echo: at most 2 messages per edge direction.
        assert!(rt.cost().messages <= 4 * edges.len() as u64);
        // Rounds ~ diameter, far below n rounds for a ring of 8.
        assert!(rt.cost().rounds <= 3 + n as u64);
    }

    #[test]
    fn nontermination_is_caught_by_the_cap() {
        #[derive(Debug)]
        struct Chatter;
        impl Program for Chatter {
            type Msg = Vec<u64>;
            fn start(&mut self, ctx: &mut Ctx<'_, '_, Vec<u64>>) {
                let _ = ctx.send((ctx.me() + 1) % ctx.n(), vec![0]);
            }
            fn round(&mut self, ctx: &mut Ctx<'_, '_, Vec<u64>>, _: &[Envelope<Vec<u64>>]) -> bool {
                let _ = ctx.send((ctx.me() + 1) % ctx.n(), vec![0]);
                false // never done
            }
        }
        let mut rt = Runtime::serial(NetConfig::kt1(4));
        let err = rt
            .run(vec![Chatter, Chatter, Chatter, Chatter], 20)
            .unwrap_err();
        assert_eq!(err, NetError::RoundCapExceeded { cap: 20 });
        assert_eq!(rt.cost().rounds, 20, "the failed run's rounds are kept");
    }

    #[test]
    fn two_node_edge() {
        let adj = adjacency(2, &[(0, 1)]);
        let mut rt = Runtime::serial(NetConfig::kt1(2));
        let programs = rt.run(programs_for(&adj, 1), 50).unwrap();
        assert_eq!(programs[1].subtree, 2);
    }
}
