//! Folding an event stream into a hierarchical phase-tree profile.
//!
//! The fold walks the stream once, maintaining the open-scope stack the
//! emitting engine had, and attributes every quantity to the *innermost*
//! open scope at emission time (the engine's own attribution). Totals are
//! then rolled up bottom-up, giving each phase a self/total split for
//! wall time and compute.
//!
//! Robustness contract (test-enforced): zero-duration and unreported
//! spans aggregate as 0 — they are never dropped and never panic — and
//! unbalanced scope streams (an exit without an enter, enters left open
//! at end of stream) degrade gracefully, surfaced via
//! [`Profile::unbalanced_scopes`] rather than by corrupting the tree.

use cc_trace::metrics::{HistogramSnapshot, LogHistogram};
use cc_trace::{CostSnapshot, Event};
use std::fmt::Write as _;

/// One phase (scope) of the tree. Same-named scopes entered at the same
/// tree position merge: `calls` counts the enters, `cost` sums the exit
/// deltas.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PhaseNode {
    /// Scope name (e.g. `phase1`, `route:all-to-all`).
    pub name: String,
    /// Times this scope was entered at this position.
    pub calls: u64,
    /// Metered cost summed over the scope's exit deltas. Scope deltas
    /// nest in `cc-net`, so this already *includes* children.
    pub cost: CostSnapshot,
    /// Wall-clock nanoseconds ([`Event::RoundWall`]) attributed to this
    /// scope alone — rounds executed while it was the innermost open
    /// scope.
    pub self_wall_nanos: u64,
    /// Compute nanoseconds ([`Event::NodeCompute`] +
    /// [`Event::WorkerSpan`]) attributed to this scope alone.
    pub self_compute_nanos: u64,
    /// Executed rounds attributed to this scope alone.
    pub self_rounds: u64,
    /// Child phases, in first-appearance order.
    pub children: Vec<PhaseNode>,
}

impl PhaseNode {
    /// Wall nanoseconds including every descendant.
    pub fn total_wall_nanos(&self) -> u64 {
        self.self_wall_nanos
            + self
                .children
                .iter()
                .map(PhaseNode::total_wall_nanos)
                .sum::<u64>()
    }

    /// Compute nanoseconds including every descendant.
    pub fn total_compute_nanos(&self) -> u64 {
        self.self_compute_nanos
            + self
                .children
                .iter()
                .map(PhaseNode::total_compute_nanos)
                .sum::<u64>()
    }

    /// Metered cost *excluding* children (saturating: nested scope deltas
    /// double-count by design, so a child can meter more than its parent
    /// saw — the floor is 0, never a panic).
    pub fn self_cost(&self) -> CostSnapshot {
        let mut c = self.cost;
        for ch in &self.children {
            c.rounds = c.rounds.saturating_sub(ch.cost.rounds);
            c.messages = c.messages.saturating_sub(ch.cost.messages);
            c.words = c.words.saturating_sub(ch.cost.words);
            c.bits = c.bits.saturating_sub(ch.cost.bits);
        }
        c
    }

    fn model_phase(&self) -> ModelPhase {
        ModelPhase {
            name: self.name.clone(),
            calls: self.calls,
            cost: self.cost,
            children: self.children.iter().map(PhaseNode::model_phase).collect(),
        }
    }
}

/// The model half of a phase: everything except wall-clock. Identical for
/// the same run on every engine.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ModelPhase {
    /// Scope name.
    pub name: String,
    /// Enter count.
    pub calls: u64,
    /// Summed exit deltas.
    pub cost: CostSnapshot,
    /// Child phases.
    pub children: Vec<ModelPhase>,
}

/// The model half of a profile (see [`Profile::model_view`]): a pure
/// function of the model events, so two engines running the same protocol
/// and seed produce *equal* model views — the profiling analogue of the
/// model-event equivalence the determinism suites enforce.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ModelProfile {
    /// The phase tree, timing stripped.
    pub phases: Vec<ModelPhase>,
    /// Executed rounds ([`Event::RoundStart`] count).
    pub rounds: u64,
    /// Rounds skipped by fast-forward jumps.
    pub fast_forward_rounds: u64,
    /// Total messages.
    pub messages: u64,
    /// Total words.
    pub words: u64,
    /// Scope-stream anomalies observed (0 for well-formed streams).
    pub unbalanced_scopes: u64,
}

/// A run's aggregated performance profile.
#[derive(Clone, Debug, Default)]
pub struct Profile {
    /// Top-level phases, in first-appearance order.
    pub roots: Vec<PhaseNode>,
    /// Executed rounds ([`Event::RoundStart`] count).
    pub rounds: u64,
    /// Rounds skipped by fast-forward jumps.
    pub fast_forward_rounds: u64,
    /// Total messages (summed round-end deltas).
    pub messages: u64,
    /// Total words.
    pub words: u64,
    /// Total whole-round wall time (0 when the run carried no timing
    /// events — an untimed run profiles as all-zero wall, by contract).
    pub total_wall_nanos: u64,
    /// Total node-program compute (`NodeCompute` + `WorkerSpan`).
    pub total_compute_nanos: u64,
    /// Wall/compute/rounds observed outside any scope.
    pub unscoped_wall_nanos: u64,
    /// Compute observed outside any scope.
    pub unscoped_compute_nanos: u64,
    /// Per-node compute distribution digest.
    pub node_compute: HistogramSnapshot,
    /// Per-worker span distribution digest.
    pub worker_spans: HistogramSnapshot,
    /// Whole-round wall distribution digest.
    pub round_wall: HistogramSnapshot,
    /// Scope-stream anomalies observed (exits without a matching enter
    /// plus enters left open at end of stream).
    pub unbalanced_scopes: u64,
}

impl Profile {
    /// Folds an event stream into a profile. Never panics: malformed
    /// streams degrade (see the module docs).
    pub fn from_events(events: &[Event]) -> Profile {
        let mut p = Profile::default();
        let mut node_compute = LogHistogram::new();
        let mut worker_spans = LogHistogram::new();
        let mut round_wall = LogHistogram::new();
        // The open-scope stack as a path of child indices from the root
        // list; an arena would be overkill for trees this small.
        let mut forest: Vec<PhaseNode> = Vec::new();
        let mut path: Vec<usize> = Vec::new();

        fn node_at<'a>(forest: &'a mut [PhaseNode], path: &[usize]) -> &'a mut PhaseNode {
            let (first, rest) = path.split_first().expect("non-empty path");
            let mut node = &mut forest[*first];
            for &i in rest {
                node = &mut node.children[i];
            }
            node
        }

        for ev in events {
            match ev {
                Event::ScopeEnter { name, .. } => {
                    let siblings: &mut Vec<PhaseNode> = if path.is_empty() {
                        &mut forest
                    } else {
                        &mut node_at(&mut forest, &path).children
                    };
                    let idx = match siblings.iter().position(|c| c.name == *name) {
                        Some(i) => i,
                        None => {
                            siblings.push(PhaseNode {
                                name: name.clone(),
                                ..PhaseNode::default()
                            });
                            siblings.len() - 1
                        }
                    };
                    siblings[idx].calls += 1;
                    path.push(idx);
                }
                Event::ScopeExit { delta, .. } => {
                    if path.is_empty() {
                        // Exit without an enter: the stream started
                        // mid-scope or is corrupt. Count it, keep going.
                        p.unbalanced_scopes += 1;
                    } else {
                        let node = node_at(&mut forest, &path);
                        node.cost.rounds += delta.rounds;
                        node.cost.messages += delta.messages;
                        node.cost.words += delta.words;
                        node.cost.bits += delta.bits;
                        path.pop();
                    }
                }
                Event::RoundStart { .. } => {
                    p.rounds += 1;
                    if path.is_empty() {
                        // Unscoped round; tracked in the profile totals.
                    } else {
                        node_at(&mut forest, &path).self_rounds += 1;
                    }
                }
                Event::RoundEnd {
                    messages, words, ..
                } => {
                    p.messages += messages;
                    p.words += words;
                }
                Event::FastForward { rounds, .. } => p.fast_forward_rounds += rounds,
                Event::NodeCompute { nanos, .. } => {
                    node_compute.observe(*nanos);
                    p.total_compute_nanos += nanos;
                    if path.is_empty() {
                        p.unscoped_compute_nanos += nanos;
                    } else {
                        node_at(&mut forest, &path).self_compute_nanos += nanos;
                    }
                }
                Event::WorkerSpan { nanos, .. } => {
                    worker_spans.observe(*nanos);
                    p.total_compute_nanos += nanos;
                    if path.is_empty() {
                        p.unscoped_compute_nanos += nanos;
                    } else {
                        node_at(&mut forest, &path).self_compute_nanos += nanos;
                    }
                }
                Event::RoundWall { nanos, .. } => {
                    round_wall.observe(*nanos);
                    p.total_wall_nanos += nanos;
                    if path.is_empty() {
                        p.unscoped_wall_nanos += nanos;
                    } else {
                        node_at(&mut forest, &path).self_wall_nanos += nanos;
                    }
                }
                Event::MessageBatch { .. } | Event::Fault { .. } | Event::NodeCrash { .. } => {}
            }
        }
        // Scopes left open: anomalies, but their accumulated self-values
        // are real and stay in the tree.
        p.unbalanced_scopes += path.len() as u64;
        p.roots = forest;
        p.node_compute = node_compute.snapshot();
        p.worker_spans = worker_spans.snapshot();
        p.round_wall = round_wall.snapshot();
        p
    }

    /// Simulator overhead: whole-round wall time not spent in node
    /// programs (routing, metering, fault injection, event emission).
    pub fn overhead_nanos(&self) -> u64 {
        self.total_wall_nanos
            .saturating_sub(self.total_compute_nanos)
    }

    /// The model half of the profile — equal across engines for the same
    /// run (see [`ModelProfile`]).
    pub fn model_view(&self) -> ModelProfile {
        ModelProfile {
            phases: self.roots.iter().map(PhaseNode::model_phase).collect(),
            rounds: self.rounds,
            fast_forward_rounds: self.fast_forward_rounds,
            messages: self.messages,
            words: self.words,
            unbalanced_scopes: self.unbalanced_scopes,
        }
    }

    /// The compute digest with observations, whichever kind the engine
    /// reported (per-node spans from `CliqueNet`, per-worker spans from
    /// the runtime backends).
    pub fn compute_digest(&self) -> &HistogramSnapshot {
        if self.node_compute.count > 0 {
            &self.node_compute
        } else {
            &self.worker_spans
        }
    }
}

fn fmt_ms(nanos: u64) -> String {
    format!("{:.3}", nanos as f64 / 1e6)
}

fn render_node(out: &mut String, node: &PhaseNode, depth: usize) {
    let indent = "  ".repeat(depth);
    let label = format!("{indent}{}", node.name);
    let _ = writeln!(
        out,
        "{label:<34} {calls:>5} {rounds:>8} {msgs:>12} {total:>10} {own:>10} {compute:>10}",
        calls = node.calls,
        rounds = node.cost.rounds,
        msgs = node.cost.messages,
        total = fmt_ms(node.total_wall_nanos()),
        own = fmt_ms(node.self_wall_nanos),
        compute = fmt_ms(node.total_compute_nanos()),
    );
    for child in &node.children {
        render_node(out, child, depth + 1);
    }
}

/// Renders a profile as an aligned text tree, one row per phase, plus a
/// totals footer with the self/total wall split, overhead, and compute
/// quantiles.
pub fn profile_table(p: &Profile) -> String {
    let mut out = String::from(
        "phase                              calls   rounds     messages   total_ms     self_ms compute_ms\n",
    );
    out.push_str(
        "--------------------------------------------------------------------------------------------------\n",
    );
    for root in &p.roots {
        render_node(&mut out, root, 0);
    }
    let _ = writeln!(
        out,
        "\nrounds {} (+{} fast-forwarded)  messages {}  words {}",
        p.rounds, p.fast_forward_rounds, p.messages, p.words
    );
    let _ = writeln!(
        out,
        "wall {} ms  compute {} ms  overhead {} ms  unscoped {} ms",
        fmt_ms(p.total_wall_nanos),
        fmt_ms(p.total_compute_nanos),
        fmt_ms(p.overhead_nanos()),
        fmt_ms(p.unscoped_wall_nanos),
    );
    let d = p.compute_digest();
    if d.count > 0 {
        let _ = writeln!(
            out,
            "compute spans: {} observations, p50 {} ns, p95 {} ns, p99 {} ns, max {} ns",
            d.count,
            d.quantile(0.50),
            d.quantile(0.95),
            d.quantile(0.99),
            d.max,
        );
    }
    if p.unbalanced_scopes > 0 {
        let _ = writeln!(out, "WARNING: {} unbalanced scope(s)", p.unbalanced_scopes);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cost(rounds: u64, messages: u64) -> CostSnapshot {
        CostSnapshot {
            rounds,
            messages,
            words: messages,
            bits: messages * 6,
        }
    }

    /// outer { inner, inner } outer — with timing on every round.
    fn nested_stream() -> Vec<Event> {
        vec![
            Event::ScopeEnter {
                name: "outer".into(),
                round: 0,
            },
            Event::RoundStart { round: 0 },
            Event::NodeCompute {
                round: 0,
                node: 0,
                nanos: 100,
            },
            Event::RoundWall {
                round: 0,
                nanos: 150,
            },
            Event::RoundEnd {
                round: 0,
                messages: 2,
                words: 2,
            },
            Event::ScopeEnter {
                name: "inner".into(),
                round: 1,
            },
            Event::RoundStart { round: 1 },
            Event::NodeCompute {
                round: 1,
                node: 0,
                nanos: 40,
            },
            Event::RoundWall {
                round: 1,
                nanos: 60,
            },
            Event::RoundEnd {
                round: 1,
                messages: 1,
                words: 1,
            },
            Event::ScopeExit {
                name: "inner".into(),
                delta: cost(1, 1),
            },
            Event::ScopeEnter {
                name: "inner".into(),
                round: 2,
            },
            Event::ScopeExit {
                name: "inner".into(),
                delta: cost(0, 0),
            },
            Event::ScopeExit {
                name: "outer".into(),
                delta: cost(2, 3),
            },
        ]
    }

    #[test]
    fn nested_scopes_build_a_tree_with_self_total_split() {
        let p = Profile::from_events(&nested_stream());
        assert_eq!(p.unbalanced_scopes, 0);
        assert_eq!(p.roots.len(), 1);
        let outer = &p.roots[0];
        assert_eq!(outer.name, "outer");
        assert_eq!(outer.calls, 1);
        assert_eq!(outer.cost, cost(2, 3));
        assert_eq!(outer.children.len(), 1, "same-named siblings merge");
        let inner = &outer.children[0];
        assert_eq!(inner.calls, 2);
        assert_eq!(inner.cost, cost(1, 1));
        // Wall: outer self 150, inner self 60; totals roll up.
        assert_eq!(outer.self_wall_nanos, 150);
        assert_eq!(inner.self_wall_nanos, 60);
        assert_eq!(outer.total_wall_nanos(), 210);
        assert_eq!(outer.self_compute_nanos, 100);
        assert_eq!(outer.total_compute_nanos(), 140);
        // Self cost subtracts the child's delta.
        assert_eq!(outer.self_cost(), cost(1, 2));
        assert_eq!(p.total_wall_nanos, 210);
        assert_eq!(p.total_compute_nanos, 140);
        assert_eq!(p.overhead_nanos(), 70);
        assert_eq!(p.rounds, 2);
        assert_eq!(p.messages, 3);
    }

    #[test]
    fn zero_and_unreported_durations_aggregate_as_zero() {
        // A compute span of 0 ns and a round with no timing events at
        // all: both must land in the profile as 0, not vanish or panic.
        let events = vec![
            Event::ScopeEnter {
                name: "p".into(),
                round: 0,
            },
            Event::RoundStart { round: 0 },
            Event::NodeCompute {
                round: 0,
                node: 0,
                nanos: 0,
            },
            Event::RoundWall { round: 0, nanos: 0 },
            Event::RoundEnd {
                round: 0,
                messages: 0,
                words: 0,
            },
            // Round 1 carries no timing events (an untimed tracer).
            Event::RoundStart { round: 1 },
            Event::RoundEnd {
                round: 1,
                messages: 1,
                words: 1,
            },
            Event::ScopeExit {
                name: "p".into(),
                delta: cost(2, 1),
            },
        ];
        let p = Profile::from_events(&events);
        assert_eq!(p.rounds, 2);
        assert_eq!(p.total_wall_nanos, 0);
        assert_eq!(p.total_compute_nanos, 0);
        // The zero-duration span was *observed*, not dropped.
        assert_eq!(p.node_compute.count, 1);
        assert_eq!(p.node_compute.max, 0);
        assert_eq!(p.node_compute.quantile(0.99), 0);
        assert_eq!(p.round_wall.count, 1);
        let table = profile_table(&p);
        assert!(table.contains("p"), "phase renders:\n{table}");
    }

    #[test]
    fn unbalanced_streams_degrade_gracefully() {
        // Exit with no enter, then an enter never closed.
        let events = vec![
            Event::ScopeExit {
                name: "ghost".into(),
                delta: cost(1, 1),
            },
            Event::ScopeEnter {
                name: "open".into(),
                round: 0,
            },
            Event::RoundStart { round: 0 },
            Event::RoundWall {
                round: 0,
                nanos: 10,
            },
            Event::RoundEnd {
                round: 0,
                messages: 0,
                words: 0,
            },
        ];
        let p = Profile::from_events(&events);
        assert_eq!(p.unbalanced_scopes, 2);
        assert_eq!(p.roots.len(), 1);
        assert_eq!(p.roots[0].name, "open");
        assert_eq!(p.roots[0].self_wall_nanos, 10, "accrued timing survives");
        assert!(profile_table(&p).contains("WARNING"));
    }

    #[test]
    fn unscoped_events_accumulate_at_profile_level() {
        let events = vec![
            Event::RoundStart { round: 0 },
            Event::NodeCompute {
                round: 0,
                node: 0,
                nanos: 5,
            },
            Event::RoundWall { round: 0, nanos: 9 },
            Event::RoundEnd {
                round: 0,
                messages: 0,
                words: 0,
            },
        ];
        let p = Profile::from_events(&events);
        assert!(p.roots.is_empty());
        assert_eq!(p.unscoped_wall_nanos, 9);
        assert_eq!(p.unscoped_compute_nanos, 5);
        assert_eq!(p.total_wall_nanos, 9);
    }

    #[test]
    fn model_view_strips_timing_and_compares_equal_across_timings() {
        let mut a = nested_stream();
        // Same model stream, different wall-clock: double every nano.
        let b: Vec<Event> = a
            .iter()
            .map(|ev| match ev {
                Event::NodeCompute { round, node, nanos } => Event::NodeCompute {
                    round: *round,
                    node: *node,
                    nanos: nanos * 2,
                },
                Event::RoundWall { round, nanos } => Event::RoundWall {
                    round: *round,
                    nanos: nanos * 2,
                },
                other => other.clone(),
            })
            .collect();
        let pa = Profile::from_events(&a);
        let pb = Profile::from_events(&b);
        assert_eq!(pa.model_view(), pb.model_view());
        assert_ne!(pa.total_wall_nanos, pb.total_wall_nanos);
        // And a genuinely different model stream is *not* equal.
        a.push(Event::ScopeEnter {
            name: "extra".into(),
            round: 9,
        });
        a.push(Event::ScopeExit {
            name: "extra".into(),
            delta: cost(0, 0),
        });
        assert_ne!(Profile::from_events(&a).model_view(), pb.model_view());
    }
}
