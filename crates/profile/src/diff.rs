//! Trace diffing: align two runs' model-event streams, pinpoint the
//! first divergence, and tabulate per-phase cost/wall-time deltas.
//!
//! This is the missing debugging tool for backend-equivalence and
//! chaos-replay failures: when two engines (or two replays of one fault
//! plan) disagree, the interesting fact is never *that* they disagree but
//! *where first* — the round, link, and event kind at which the streams
//! fork. Everything after the fork is cascade.
//!
//! Only **model** events are aligned ([`Event::is_model`]): wall-clock
//! timing legitimately differs run to run, so it is reported as a delta
//! table, never as a divergence.

use crate::profile::Profile;
use cc_trace::{Cost, Event};
use std::fmt::Write as _;

/// The first point where two model-event streams disagree.
#[derive(Clone, Debug, PartialEq)]
pub struct Divergence {
    /// Index into the *model-filtered* streams.
    pub index: usize,
    /// The event stream A has there (`None`: A ended early).
    pub a: Option<Event>,
    /// The event stream B has there (`None`: B ended early).
    pub b: Option<Event>,
}

impl Divergence {
    /// The round the diverging event(s) sit in, when either side carries
    /// one.
    pub fn round(&self) -> Option<u64> {
        self.a
            .as_ref()
            .and_then(event_round)
            .or_else(|| self.b.as_ref().and_then(event_round))
    }
}

/// One phase's cost/wall comparison between the two runs. `None` on a
/// side means the phase never ran there.
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseDelta {
    /// Phase (scope) name; nested phases are flattened by summing
    /// same-named scopes across the tree (see `flat_phase_totals`).
    pub name: String,
    /// Run A's summed cost for the phase.
    pub cost_a: Option<Cost>,
    /// Run B's summed cost.
    pub cost_b: Option<Cost>,
    /// Run A's total wall nanoseconds attributed to the phase.
    pub wall_a: u64,
    /// Run B's total wall nanoseconds.
    pub wall_b: u64,
}

/// The full diff of two runs.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceDiff {
    /// First model-event divergence; `None` when the model streams are
    /// identical.
    pub first_divergence: Option<Divergence>,
    /// Model-event counts of the two streams.
    pub model_len: (usize, usize),
    /// Per-phase deltas, in run-A first-appearance order (run-B-only
    /// phases appended).
    pub phases: Vec<PhaseDelta>,
    /// Total wall time of each run (0 for untimed runs).
    pub wall_nanos: (u64, u64),
    /// Total compute time of each run.
    pub compute_nanos: (u64, u64),
}

impl TraceDiff {
    /// Whether the two runs' model behaviour is identical.
    pub fn model_identical(&self) -> bool {
        self.first_divergence.is_none()
    }
}

fn event_round(ev: &Event) -> Option<u64> {
    match ev {
        Event::RoundStart { round }
        | Event::RoundEnd { round, .. }
        | Event::ScopeEnter { round, .. }
        | Event::MessageBatch { round, .. }
        | Event::Fault { round, .. }
        | Event::NodeCrash { round, .. }
        | Event::NodeCompute { round, .. }
        | Event::WorkerSpan { round, .. }
        | Event::RoundWall { round, .. } => Some(*round),
        Event::FastForward { from_round, .. } => Some(*from_round),
        Event::ScopeExit { .. } => None,
    }
}

/// One-line human description of an event (the diff's vocabulary).
pub fn describe_event(ev: &Event) -> String {
    match ev {
        Event::RoundStart { round } => format!("round_start r{round}"),
        Event::RoundEnd {
            round,
            messages,
            words,
        } => format!("round_end r{round} ({messages} msgs, {words} words)"),
        Event::ScopeEnter { name, round } => format!("scope_enter `{name}` r{round}"),
        Event::ScopeExit { name, delta } => format!(
            "scope_exit `{name}` ({} rounds, {} msgs)",
            delta.rounds, delta.messages
        ),
        Event::MessageBatch {
            round,
            src,
            dst,
            count,
            words,
        } => format!("message_batch r{round} {src}->{dst} ({count} msgs, {words} words)"),
        Event::FastForward { from_round, rounds } => {
            format!("fast_forward r{from_round} (+{rounds})")
        }
        Event::Fault {
            round,
            kind,
            src,
            dst,
            index,
            ..
        } => format!("fault:{} r{round} {src}->{dst} idx {index}", kind.as_str()),
        Event::NodeCrash { round, node } => format!("node_crash r{round} node {node}"),
        Event::NodeCompute { round, node, nanos } => {
            format!("node_compute r{round} node {node} ({nanos} ns)")
        }
        Event::WorkerSpan {
            round,
            worker,
            nanos,
            ..
        } => format!("worker_span r{round} worker {worker} ({nanos} ns)"),
        Event::RoundWall { round, nanos } => format!("round_wall r{round} ({nanos} ns)"),
    }
}

fn flat_phase_totals(p: &Profile) -> Vec<(String, Cost, u64)> {
    // The one flattening of the phase tree: same-named scopes summed
    // across the whole tree, first-appearance (pre-order) order.
    fn walk(
        nodes: &[crate::profile::PhaseNode],
        order: &mut Vec<String>,
        acc: &mut Vec<(String, Cost, u64)>,
    ) {
        for n in nodes {
            match acc.iter_mut().find(|(name, _, _)| *name == n.name) {
                Some((_, cost, wall)) => {
                    *cost += n.cost;
                    *wall += n.total_wall_nanos();
                }
                None => {
                    order.push(n.name.clone());
                    acc.push((n.name.clone(), n.cost, n.total_wall_nanos()));
                }
            }
            walk(&n.children, order, acc);
        }
    }
    let mut order = Vec::new();
    let mut acc = Vec::new();
    walk(&p.roots, &mut order, &mut acc);
    acc
}

/// Diffs two event streams (see the module docs).
pub fn diff_events(a: &[Event], b: &[Event]) -> TraceDiff {
    let ma: Vec<&Event> = a.iter().filter(|e| e.is_model()).collect();
    let mb: Vec<&Event> = b.iter().filter(|e| e.is_model()).collect();
    let mut first_divergence = None;
    for i in 0..ma.len().max(mb.len()) {
        let ea = ma.get(i).copied();
        let eb = mb.get(i).copied();
        if ea != eb {
            first_divergence = Some(Divergence {
                index: i,
                a: ea.cloned(),
                b: eb.cloned(),
            });
            break;
        }
    }

    let pa = Profile::from_events(a);
    let pb = Profile::from_events(b);
    let ta = flat_phase_totals(&pa);
    let tb = flat_phase_totals(&pb);
    let mut phases: Vec<PhaseDelta> = ta
        .iter()
        .map(|(name, cost, wall)| {
            let other = tb.iter().find(|(n, _, _)| n == name);
            PhaseDelta {
                name: name.clone(),
                cost_a: Some(*cost),
                cost_b: other.map(|(_, c, _)| *c),
                wall_a: *wall,
                wall_b: other.map(|(_, _, w)| *w).unwrap_or(0),
            }
        })
        .collect();
    for (name, cost, wall) in &tb {
        if !ta.iter().any(|(n, _, _)| n == name) {
            phases.push(PhaseDelta {
                name: name.clone(),
                cost_a: None,
                cost_b: Some(*cost),
                wall_a: 0,
                wall_b: *wall,
            });
        }
    }

    TraceDiff {
        first_divergence,
        model_len: (ma.len(), mb.len()),
        phases,
        wall_nanos: (pa.total_wall_nanos, pb.total_wall_nanos),
        compute_nanos: (pa.total_compute_nanos, pb.total_compute_nanos),
    }
}

/// Renders a diff as text: the divergence verdict first, then the
/// per-phase cost/wall delta table.
pub fn render_diff(d: &TraceDiff, label_a: &str, label_b: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "model events: {} in {label_a}, {} in {label_b}",
        d.model_len.0, d.model_len.1
    );
    match &d.first_divergence {
        None => {
            let _ = writeln!(out, "model streams are IDENTICAL");
        }
        Some(div) => {
            let _ = writeln!(
                out,
                "FIRST DIVERGENCE at model event #{}{}:",
                div.index,
                div.round()
                    .map(|r| format!(" (round {r})"))
                    .unwrap_or_default()
            );
            let side = |ev: &Option<Event>| {
                ev.as_ref()
                    .map(describe_event)
                    .unwrap_or_else(|| "<stream ended>".to_string())
            };
            let _ = writeln!(out, "  {label_a}: {}", side(&div.a));
            let _ = writeln!(out, "  {label_b}: {}", side(&div.b));
        }
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "phase                            rounds_a rounds_b   msgs_a   msgs_b   wall_a_ms   wall_b_ms"
    );
    let _ = writeln!(
        out,
        "----------------------------------------------------------------------------------------------"
    );
    let opt = |c: &Option<Cost>, f: fn(&Cost) -> u64| {
        c.as_ref().map(|c| f(c).to_string()).unwrap_or("-".into())
    };
    for ph in &d.phases {
        let _ = writeln!(
            out,
            "{name:<32} {ra:>8} {rb:>8} {ma:>8} {mb:>8} {wa:>11.3} {wb:>11.3}",
            name = ph.name,
            ra = opt(&ph.cost_a, |c| c.rounds),
            rb = opt(&ph.cost_b, |c| c.rounds),
            ma = opt(&ph.cost_a, |c| c.messages),
            mb = opt(&ph.cost_b, |c| c.messages),
            wa = ph.wall_a as f64 / 1e6,
            wb = ph.wall_b as f64 / 1e6,
        );
    }
    let _ = writeln!(
        out,
        "\nwall total: {:.3} ms vs {:.3} ms   compute: {:.3} ms vs {:.3} ms",
        d.wall_nanos.0 as f64 / 1e6,
        d.wall_nanos.1 as f64 / 1e6,
        d.compute_nanos.0 as f64 / 1e6,
        d.compute_nanos.1 as f64 / 1e6,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(dst: u32, compute: u64) -> Vec<Event> {
        vec![
            Event::ScopeEnter {
                name: "p".into(),
                round: 0,
            },
            Event::RoundStart { round: 0 },
            Event::MessageBatch {
                round: 0,
                src: 0,
                dst,
                count: 1,
                words: 2,
            },
            Event::NodeCompute {
                round: 0,
                node: 0,
                nanos: compute,
            },
            Event::RoundWall {
                round: 0,
                nanos: compute + 5,
            },
            Event::RoundEnd {
                round: 0,
                messages: 1,
                words: 2,
            },
            Event::ScopeExit {
                name: "p".into(),
                delta: Cost {
                    rounds: 1,
                    messages: 1,
                    words: 2,
                    bits: 12,
                },
            },
        ]
    }

    #[test]
    fn identical_model_streams_with_different_timing_do_not_diverge() {
        let d = diff_events(&stream(1, 100), &stream(1, 9_999));
        assert!(d.model_identical());
        assert_eq!(d.model_len, (5, 5));
        assert_ne!(d.wall_nanos.0, d.wall_nanos.1, "timing still reported");
        assert!(render_diff(&d, "a", "b").contains("IDENTICAL"));
    }

    #[test]
    fn first_divergence_pinpoints_round_and_link() {
        let d = diff_events(&stream(1, 100), &stream(2, 100));
        let div = d.first_divergence.as_ref().expect("must diverge");
        assert_eq!(div.index, 2, "the message batch is the first fork");
        assert_eq!(div.round(), Some(0));
        match (&div.a, &div.b) {
            (
                Some(Event::MessageBatch { dst: da, .. }),
                Some(Event::MessageBatch { dst: db, .. }),
            ) => {
                assert_eq!((*da, *db), (1, 2));
            }
            other => panic!("wrong divergence: {other:?}"),
        }
        let text = render_diff(&d, "runA", "runB");
        assert!(text.contains("FIRST DIVERGENCE at model event #2 (round 0)"));
        assert!(text.contains("0->1") && text.contains("0->2"), "{text}");
    }

    #[test]
    fn truncated_stream_diverges_at_the_end() {
        let a = stream(1, 100);
        let mut b = a.clone();
        b.truncate(4); // cut before RoundEnd (keeps only 3 model events)
        let d = diff_events(&a, &b);
        let div = d.first_divergence.clone().unwrap();
        assert_eq!(div.index, 3);
        assert!(div.b.is_none(), "B ended early");
        assert!(render_diff(&d, "a", "b").contains("<stream ended>"));
    }

    #[test]
    fn phase_deltas_cover_both_sides() {
        let a = stream(1, 100);
        let mut b = stream(1, 100);
        b.push(Event::ScopeEnter {
            name: "extra".into(),
            round: 1,
        });
        b.push(Event::ScopeExit {
            name: "extra".into(),
            delta: Cost::default(),
        });
        let d = diff_events(&a, &b);
        assert_eq!(d.phases.len(), 2);
        assert_eq!(d.phases[1].name, "extra");
        assert!(d.phases[1].cost_a.is_none());
        assert!(d.phases[1].cost_b.is_some());
        assert!(render_diff(&d, "a", "b").contains("extra"));
    }
}
