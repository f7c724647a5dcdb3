//! The algorithm catalog: the paper's three default-parameter algorithms,
//! each run on a caller-built [`Net`] and checked by the oracles of
//! [`crate::validate`]. The model grid, the fault matrix, the `cc-serve`
//! daemon and the `perf` record all go through it.
//!
//! An [`Entry`] carries its input in its variant, so a wrong
//! algorithm/input pairing cannot be built.

use crate::broadcast_gc::broadcast_gc;
use crate::error::CoreError;
use crate::exact_mst::{exact_mst, ExactMstConfig, ExactMstRun};
use crate::gc::{self, GcConfig, GcOutput};
use crate::kt1_mst::{kt1_mst, Kt1MstConfig, Kt1MstRun};
use crate::validate::{validate_gc, validate_mst_minimal};
use cc_graph::{Graph, WGraph};
use cc_route::Net;

/// One catalog algorithm together with its input.
#[derive(Clone, Copy, Debug)]
pub enum Entry<'g> {
    /// Theorem 4 sketch connectivity, checked by [`validate_gc`]; on a
    /// broadcast-only net, where no unicast algorithm runs, footnote 1's
    /// label propagation ([`broadcast_gc`]).
    GcSketch(&'g Graph),
    /// Theorem 7 EXACT-MST, checked by [`validate_mst_minimal`].
    ExactMst(&'g WGraph),
    /// Theorem 13 low-message MST (KT1 nets only): it must converge,
    /// then pass [`validate_mst_minimal`].
    Kt1Mst(&'g WGraph),
}

/// What an [`Entry`] returns, one variant per entry.
#[derive(Clone, Debug)]
pub enum Answer {
    /// From [`Entry::GcSketch`].
    Gc(GcOutput),
    /// From [`Entry::ExactMst`].
    ExactMst(ExactMstRun),
    /// From [`Entry::Kt1Mst`].
    Kt1Mst(Kt1MstRun),
}

impl Entry<'_> {
    /// Stable id: `gc-sketch`, `exact-mst` or `kt1-mst`.
    pub fn id(&self) -> &'static str {
        match self {
            Entry::GcSketch(_) => "gc-sketch",
            Entry::ExactMst(_) => "exact-mst",
            Entry::Kt1Mst(_) => "kt1-mst",
        }
    }

    /// Runs the algorithm at its default config on `net`.
    ///
    /// # Errors
    ///
    /// The algorithm's own [`CoreError`].
    ///
    /// # Panics
    ///
    /// Panics if the input does not span `net`'s clique.
    pub fn run(&self, net: &mut Net) -> Result<Answer, CoreError> {
        Ok(match *self {
            Entry::GcSketch(g) if net.config().broadcast_only => Answer::Gc(broadcast_gc(net, g)?),
            Entry::GcSketch(g) => Answer::Gc(gc::run_on(net, g, &GcConfig::default())?),
            Entry::ExactMst(g) => Answer::ExactMst(exact_mst(net, g, &ExactMstConfig::default())?),
            Entry::Kt1Mst(g) => Answer::Kt1Mst(kt1_mst(net, g, &Kt1MstConfig::default())?),
        })
    }

    /// Accepts `answer` iff it is correct for this entry's input.
    ///
    /// # Errors
    ///
    /// The oracle's description of the first violated check.
    pub fn check(&self, answer: &Answer) -> Result<(), String> {
        match (*self, answer) {
            (Entry::GcSketch(g), Answer::Gc(out)) => validate_gc(g, out),
            (Entry::ExactMst(g), Answer::ExactMst(run)) => validate_mst_minimal(g, &run.mst),
            (Entry::Kt1Mst(g), Answer::Kt1Mst(run)) => {
                if run.complete {
                    validate_mst_minimal(g, &run.mst)
                } else {
                    Err("run did not converge within the phase cap".into())
                }
            }
            _ => Err(format!("{} cannot check another entry's answer", self.id())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::validate_mst;
    use cc_graph::generators;
    use cc_net::NetConfig;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// Runs `entry` on a fresh KT1 net and asserts its honest answer
    /// passes the check (so each negative control below starts from an
    /// accepted answer).
    fn honest(entry: Entry, n: usize) -> Answer {
        let mut net = Net::new(NetConfig::kt1(n).with_seed(7));
        let answer = entry.run(&mut net).expect("clean run");
        entry.check(&answer).expect("honest answer rejected");
        answer
    }

    #[test]
    fn gc_check_rejects_a_dropped_forest_edge() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let g = generators::random_connected_graph(16, 0.2, &mut rng);
        let entry = Entry::GcSketch(&g);
        let Answer::Gc(mut out) = honest(entry, 16) else {
            panic!("gc-sketch returned another entry's answer");
        };
        out.spanning_forest
            .pop()
            .expect("connected: forest is non-empty");
        assert!(entry.check(&Answer::Gc(out)).is_err());
    }

    #[test]
    fn exact_mst_check_rejects_a_heavier_swap() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let g = generators::complete_wgraph(12, &mut rng);
        let entry = Entry::ExactMst(&g);
        let Answer::ExactMst(run) = honest(entry, 12) else {
            panic!("exact-mst returned another entry's answer");
        };
        // Swap one tree edge for a heavier non-tree edge that keeps the
        // forest spanning: only minimality can catch it.
        let mut swapped = None;
        'search: for e in g.edges().iter().filter(|e| !run.mst.contains(e)) {
            for i in 0..run.mst.len() {
                let mut mst = run.mst.clone();
                mst[i] = *e;
                if e.w > run.mst[i].w && validate_mst(&g, &mst).is_ok() {
                    swapped = Some(mst);
                    break 'search;
                }
            }
        }
        let swapped = swapped.expect("a complete graph has a heavier spanning swap");
        let lie = Answer::ExactMst(ExactMstRun {
            mst: swapped,
            ..run
        });
        assert!(entry.check(&lie).is_err());
    }

    #[test]
    fn kt1_mst_check_rejects_an_unconverged_run() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let g = generators::random_connected_wgraph(16, 0.25, 1_000, &mut rng);
        let entry = Entry::Kt1Mst(&g);
        let Answer::Kt1Mst(mut run) = honest(entry, 16) else {
            panic!("kt1-mst returned another entry's answer");
        };
        run.complete = false;
        assert!(entry.check(&Answer::Kt1Mst(run)).is_err());
    }

    /// Defers one message: link `src → dst`'s first send of `round`.
    struct DeferOne {
        round: u64,
        src: usize,
        dst: usize,
        rounds: u64,
    }

    impl cc_net::FaultInjector for DeferOne {
        fn decision(
            &self,
            round: u64,
            src: usize,
            dst: usize,
            index: u32,
        ) -> cc_net::FaultDecision {
            if (round, src, dst, index) == (self.round, self.src, self.dst, 0) {
                cc_net::FaultDecision::Defer {
                    rounds: self.rounds,
                }
            } else {
                cc_net::FaultDecision::Deliver
            }
        }
    }

    #[test]
    fn a_deferred_witness_edge_is_a_malformed_message() {
        // Round 10's message 0 → 1 is a component-graph witness edge;
        // deferred four rounds, leader 1 reads it in a later receive.
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let g = generators::random_connected_graph(4, 0.5, &mut rng);
        let mut net = Net::new(NetConfig::kt1(4).with_seed(3));
        net.set_fault_injector(Box::new(DeferOne {
            round: 10,
            src: 0,
            dst: 1,
            rounds: 4,
        }));
        let err = Entry::GcSketch(&g)
            .run(&mut net)
            .expect_err("a deferred witness edge cannot be read as sent");
        assert!(
            matches!(err, CoreError::Net(cc_net::NetError::Malformed(_))),
            "{err}"
        );
    }
}
