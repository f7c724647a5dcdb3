//! Exporters: JSONL and Chrome trace-event JSON (Perfetto-loadable).
//! Text views of a trace live with their folds: `cc-profile`'s phase
//! table and `cc-lens`'s links report.
//!
//! The Chrome export maps *model time* (rounds) onto the trace clock at 1
//! round = 1 ms on process 0 — scopes become nested `B`/`E` duration
//! events, fast-forward jumps become instants — and *wall-clock* compute
//! spans onto process 1, one track per node (or worker), with each node's
//! spans laid end to end. Load the file at <https://ui.perfetto.dev> or
//! `chrome://tracing`.

use crate::event::Event;
use crate::json::Json;
use std::collections::BTreeMap;

/// Renders events as JSONL (one compact object per line).
pub fn to_jsonl(events: &[Event]) -> String {
    let mut out = String::new();
    for ev in events {
        out.push_str(&ev.to_json().emit());
        out.push('\n');
    }
    out
}

/// Parses a JSONL document back into generic JSON values (schema
/// validation for emitted traces).
///
/// # Errors
///
/// Reports the first malformed line (1-based index).
pub fn parse_jsonl(text: &str) -> Result<Vec<Json>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| Json::parse(l).map_err(|e| format!("line {}: {e}", i + 1)))
        .collect()
}

/// Microseconds per model round on the Chrome trace clock.
const ROUND_US: u64 = 1_000;

/// Renders events as a Chrome trace-event JSON array.
pub fn to_chrome_trace(events: &[Event]) -> String {
    let mut out: Vec<Json> = Vec::new();
    let entry = |name: &str, ph: &str, pid: u64, tid: u64, ts: u64, dur: Option<u64>| {
        let mut fields = vec![
            ("name", Json::Str(name.to_string())),
            ("ph", Json::Str(ph.to_string())),
            ("pid", Json::UInt(pid)),
            ("tid", Json::UInt(tid)),
            ("ts", Json::UInt(ts)),
        ];
        if let Some(d) = dur {
            fields.push(("dur", Json::UInt(d)));
        }
        Json::obj(fields)
    };
    // Wall-clock spans are laid end to end per track.
    let mut node_clock: BTreeMap<u64, u64> = BTreeMap::new();
    let mut worker_clock: BTreeMap<u64, u64> = BTreeMap::new();
    // Scope enters wait for their matching exit to learn the duration.
    let mut open_scopes: Vec<(String, u64)> = Vec::new();
    for ev in events {
        match ev {
            Event::ScopeEnter { name, round } => {
                open_scopes.push((name.clone(), *round));
                out.push(entry(name, "B", 0, 0, round * ROUND_US, None));
            }
            Event::ScopeExit { name, delta } => {
                let start = open_scopes.pop().map(|(_, r)| r).unwrap_or(0);
                let _ = name;
                let end = start + delta.rounds;
                out.push(entry("", "E", 0, 0, end * ROUND_US, None));
            }
            Event::FastForward { from_round, rounds } => {
                out.push(entry(
                    &format!("fast-forward {rounds} rounds"),
                    "i",
                    0,
                    0,
                    from_round * ROUND_US,
                    None,
                ));
            }
            Event::NodeCompute { round, node, nanos } => {
                let tid = *node as u64;
                let ts = *node_clock.entry(tid).or_insert(0);
                let dur = (nanos / 1_000).max(1);
                out.push(entry(
                    &format!("node {node} round {round}"),
                    "X",
                    1,
                    tid,
                    ts,
                    Some(dur),
                ));
                node_clock.insert(tid, ts + dur);
            }
            Event::WorkerSpan {
                round,
                worker,
                node_lo,
                node_hi,
                nanos,
            } => {
                let tid = *worker as u64;
                let ts = *worker_clock.entry(tid).or_insert(0);
                let dur = (nanos / 1_000).max(1);
                out.push(entry(
                    &format!("worker {worker} nodes {node_lo}..{node_hi} round {round}"),
                    "X",
                    2,
                    tid,
                    ts,
                    Some(dur),
                ));
                worker_clock.insert(tid, ts + dur);
            }
            Event::Fault {
                round,
                kind,
                src,
                dst,
                ..
            } => {
                out.push(entry(
                    &format!("fault:{} {src}->{dst}", kind.as_str()),
                    "i",
                    0,
                    0,
                    round * ROUND_US,
                    None,
                ));
            }
            Event::NodeCrash { round, node } => {
                out.push(entry(
                    &format!("crash node {node}"),
                    "i",
                    0,
                    0,
                    round * ROUND_US,
                    None,
                ));
            }
            // Round-wall spans would shadow the per-node tracks; the
            // profile view (`cc-profile`) is where overhead attribution
            // lives.
            Event::RoundStart { .. }
            | Event::RoundEnd { .. }
            | Event::MessageBatch { .. }
            | Event::RoundWall { .. } => {}
        }
    }
    Json::Arr(out).emit()
}

/// Parses a JSONL document back into typed [`Event`]s — the inverse of
/// [`to_jsonl`], used to reload saved traces for diffing and profiling.
///
/// # Errors
///
/// Reports the first malformed line (1-based index).
pub fn events_from_jsonl(text: &str) -> Result<Vec<Event>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| {
            Json::parse(l)
                .and_then(|v| Event::from_json(&v))
                .map_err(|e| format!("line {}: {e}", i + 1))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::CostSnapshot;

    fn sample() -> Vec<Event> {
        vec![
            Event::ScopeEnter {
                name: "phase1".into(),
                round: 0,
            },
            Event::RoundStart { round: 0 },
            Event::MessageBatch {
                round: 0,
                src: 0,
                dst: 1,
                count: 2,
                words: 4,
            },
            Event::NodeCompute {
                round: 0,
                node: 0,
                nanos: 2_000_000,
            },
            Event::RoundEnd {
                round: 0,
                messages: 2,
                words: 4,
            },
            Event::ScopeExit {
                name: "phase1".into(),
                delta: CostSnapshot {
                    rounds: 1,
                    messages: 2,
                    words: 4,
                    bits: 24,
                },
            },
            Event::FastForward {
                from_round: 1,
                rounds: 50,
            },
        ]
    }

    #[test]
    fn jsonl_round_trips() {
        let text = to_jsonl(&sample());
        let parsed = parse_jsonl(&text).unwrap();
        assert_eq!(parsed.len(), sample().len());
        assert_eq!(parsed[1].get("ev").unwrap().as_str(), Some("round_start"));
        assert!(parse_jsonl("{bad").is_err());
    }

    #[test]
    fn typed_events_round_trip_through_jsonl() {
        let events = sample();
        let text = to_jsonl(&events);
        let parsed = events_from_jsonl(&text).unwrap();
        assert_eq!(parsed, events);
        assert!(events_from_jsonl("{\"ev\":\"mystery\"}").is_err());
    }

    #[test]
    fn chrome_trace_is_valid_json_with_balanced_scopes() {
        let text = to_chrome_trace(&sample());
        let v = Json::parse(&text).unwrap();
        let arr = v.as_arr().unwrap();
        let phases: Vec<&str> = arr
            .iter()
            .map(|e| e.get("ph").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(
            phases.iter().filter(|&&p| p == "B").count(),
            phases.iter().filter(|&&p| p == "E").count()
        );
        assert!(phases.contains(&"X") && phases.contains(&"i"));
    }
}
