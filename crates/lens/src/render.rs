//! ASCII renderings: the round×link heatmap and the links report.
//!
//! Both are views of one [`CommLedger`] fold. The heatmap feeds the
//! events through the ledger itself (it needs the round count up front
//! to bucket rows, so it takes the events rather than a finished ledger)
//! and reads each round's squeeze-aware budget and link loads as the
//! ledger closes it. Intensity is peak utilization within the bucket, on
//! a ten-level ramp from `' '` (idle) to `'@'` (a link at exactly its
//! budget).

use crate::ledger::{CommLedger, LinkTotal};
use crate::report::CommReport;
use cc_model::{ModelError, ModelSpec};
use cc_trace::Event;
use std::fmt::Write as _;

/// Intensity ramp: index 0 is idle, index 9 is a link at full budget.
const LEVELS: &[u8; 10] = b" .:-=+*#%@";

fn level(util_milli: u64) -> char {
    if util_milli == 0 {
        return LEVELS[0] as char;
    }
    let idx = 1 + (util_milli * 9 / 1001).min(8) as usize;
    LEVELS[idx] as char
}

/// Renders a round×link utilization heatmap: rows bucket executed
/// rounds (in stream order), columns bucket directed links (by
/// `src·n + dst`), and each cell shows the *peak* per-(round, link)
/// utilization inside its bucket.
///
/// # Errors
///
/// Propagates [`CommLedger::new`] and [`CommLedger::record`].
pub fn render_heatmap(
    n: usize,
    spec: &ModelSpec,
    events: &[Event],
    max_rows: usize,
    max_cols: usize,
) -> Result<String, ModelError> {
    let mut ledger = CommLedger::new(n, spec)?;
    let total_rounds = events
        .iter()
        .filter(|e| matches!(e, Event::RoundEnd { .. }))
        .count();
    if total_rounds == 0 {
        return Ok("heatmap: no executed rounds in the trace\n".to_string());
    }
    let rows = max_rows.clamp(1, total_rounds);
    let links = n * n;
    let cols = max_cols.clamp(1, links);
    let mut grid = vec![vec![0u64; cols]; rows];
    for ev in events {
        ledger.record(ev)?;
        if !matches!(ev, Event::RoundEnd { .. }) {
            continue;
        }
        let row = (ledger.rounds().len() - 1) * rows / total_rounds;
        let budget = ledger
            .rounds()
            .last()
            .expect("RoundEnd closes a round")
            .budget_words;
        for ((src, dst), words) in ledger.closed_round_links() {
            let col = (src as usize * n + dst as usize) * cols / links;
            let cell = &mut grid[row][col];
            *cell = (*cell).max(words * 1000 / budget);
        }
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "round×link heatmap: {total_rounds} rounds × {} directed links, budget {} words/link",
        n * n.saturating_sub(1),
        spec.bandwidth_words_per_link,
    );
    let _ = writeln!(
        out,
        "rows bucket rounds, cols bucket links by src·n+dst; cell = peak utilization (' '=idle, '@'=at budget)",
    );
    for (row, cells) in grid.iter().enumerate() {
        // The round range this row covers under `idx*rows/total`.
        let lo = (row * total_rounds).div_ceil(rows);
        let hi = ((row + 1) * total_rounds).div_ceil(rows).max(lo + 1) - 1;
        let label = if lo == hi {
            format!("r{lo:<9}")
        } else {
            format!("r{lo}-{hi}")
        };
        let body: String = cells.iter().map(|&u| level(u)).collect();
        let _ = writeln!(out, "{label:>10} |{body}|");
    }
    Ok(out)
}

/// Renders the links report: fold summary, per-phase attribution, and
/// the top-congested-links table.
pub fn render_links_report(report: &CommReport, top: &[LinkTotal]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "communication report: n={} budget={} words/link mode={} machines={}",
        report.n, report.budget_words, report.link_mode, report.machines
    );
    let _ = writeln!(
        out,
        "  rounds {} (+{} fast-forwarded)  messages {}  words {}",
        report.rounds, report.fast_forward_rounds, report.messages, report.words
    );
    let _ = writeln!(
        out,
        "  links: {} active, {} (round,link) observations",
        report.active_links, report.link_rounds
    );
    let _ = writeln!(
        out,
        "  utilization ‰: peak {} (r{} {}→{})  p50 {}  p95 {}  p99 {}  mean {}  headroom {}",
        report.peak_util_milli,
        report.peak_round,
        report.peak_src,
        report.peak_dst,
        report.p50_util_milli,
        report.p95_util_milli,
        report.p99_util_milli,
        report.mean_util_milli,
        report.headroom_milli
    );
    let _ = writeln!(
        out,
        "  mix: {} broadcast words, {} unicast words",
        report.broadcast_words, report.unicast_words
    );
    let _ = writeln!(
        out,
        "  machine: {} logical → {} machine rounds, local {} / remote {} words, worst pair {} words/round, skew {}‰",
        report.machine.logical_rounds,
        report.machine.machine_rounds,
        report.machine.local_words,
        report.machine.remote_words,
        report.machine.max_pair_words,
        report.pair_skew_milli
    );
    if !report.phases.is_empty() {
        let _ = writeln!(out, "\n{:<28} {:>12} {:>12}", "phase", "words", "messages");
        for (name, p) in &report.phases {
            let _ = writeln!(out, "{:<28} {:>12} {:>12}", name, p.words, p.messages);
        }
    }
    if !top.is_empty() {
        let _ = writeln!(
            out,
            "\ntop congested links (by cumulative words; peak utilization vs the configured budget)"
        );
        let _ = writeln!(
            out,
            "{:>6} {:>6} {:>12} {:>10} {:>12} {:>8}",
            "src", "dst", "words", "peak-round", "peak-words", "util‰"
        );
        for link in top {
            let _ = writeln!(
                out,
                "{:>6} {:>6} {:>12} {:>10} {:>12} {:>8}",
                link.src,
                link.dst,
                link.words,
                link.peak_round,
                link.peak_round_words,
                link.peak_round_words * 1000 / report.budget_words.max(1)
            );
        }
    }
    out
}

/// Folds `events` and renders the links report with the `top_k` busiest
/// links, in one call.
///
/// # Errors
///
/// Propagates [`CommLedger::fold`].
pub fn links_report(
    n: usize,
    spec: &ModelSpec,
    events: &[Event],
    top_k: usize,
) -> Result<String, ModelError> {
    let ledger = CommLedger::fold(n, spec, events)?;
    Ok(render_links_report(
        &ledger.report(),
        &ledger.top_links(top_k),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<Event> {
        let mut events = Vec::new();
        for round in 0..4u64 {
            events.push(Event::RoundStart { round });
            events.push(Event::MessageBatch {
                round,
                src: 0,
                dst: 1,
                count: 1,
                words: 1 + round, // ramps 1..4 of a budget of 4
            });
            events.push(Event::RoundEnd {
                round,
                messages: 1,
                words: 1 + round,
            });
        }
        events
    }

    #[test]
    fn heatmap_has_one_row_per_round_bucket() {
        let spec = ModelSpec::clique().with_bandwidth(4);
        let map = render_heatmap(3, &spec, &sample_events(), 2, 16).unwrap();
        let rows: Vec<&str> = map.lines().filter(|l| l.contains('|')).collect();
        assert_eq!(rows.len(), 2, "4 rounds bucketed into 2 rows:\n{map}");
        assert!(map.contains("4 rounds"), "{map}");
        // The last bucket holds the at-budget round → full intensity.
        assert!(rows[1].contains('@'), "at-budget cell renders '@': {map}");
    }

    #[test]
    fn heatmap_of_an_empty_trace_says_so() {
        let spec = ModelSpec::clique();
        let map = render_heatmap(4, &spec, &[], 8, 8).unwrap();
        assert!(map.contains("no executed rounds"));
    }

    #[test]
    fn heatmap_honours_a_squeezed_round() {
        // 2 words on 0→1 in both rounds: round 0 is squeezed to a budget
        // of 2 (at budget), round 1 runs at the configured 8 (a quarter).
        let batch = |round| Event::MessageBatch {
            round,
            src: 0,
            dst: 1,
            count: 1,
            words: 2,
        };
        let end = |round| Event::RoundEnd {
            round,
            messages: 1,
            words: 2,
        };
        let events = vec![
            Event::RoundStart { round: 0 },
            Event::Fault {
                round: 0,
                kind: cc_trace::FaultKind::Squeeze,
                src: 0,
                dst: 0,
                index: 0,
                info: 2,
            },
            batch(0),
            end(0),
            Event::RoundStart { round: 1 },
            batch(1),
            end(1),
        ];
        let spec = ModelSpec::clique().with_bandwidth(8);
        let map = render_heatmap(2, &spec, &events, 2, 4).unwrap();
        let rows: Vec<&str> = map.lines().filter(|l| l.contains('|')).collect();
        assert_eq!(rows.len(), 2, "{map}");
        assert!(rows[0].contains('@'), "squeezed round is at budget:\n{map}");
        assert!(rows[1].contains(level(250)), "round 1 at 250‰:\n{map}");
        assert!(!rows[1].contains('@'), "{map}");
    }

    #[test]
    fn heatmap_refuses_a_node_outside_the_clique() {
        let events = [
            Event::RoundStart { round: 0 },
            Event::MessageBatch {
                round: 0,
                src: 0,
                dst: 6,
                count: 1,
                words: 1,
            },
            Event::RoundEnd {
                round: 0,
                messages: 1,
                words: 1,
            },
        ];
        assert_eq!(
            render_heatmap(4, &ModelSpec::clique(), &events, 4, 4),
            Err(ModelError::NodeOutOfRange { node: 6, n: 4 })
        );
    }

    #[test]
    fn intensity_ramp_covers_idle_to_full() {
        assert_eq!(level(0), ' ');
        assert_eq!(level(1), '.');
        assert_eq!(level(1000), '@');
        assert_eq!(level(5000), '@', "corrupted streams clamp");
    }

    #[test]
    fn links_report_renders_summary_and_table() {
        let spec = ModelSpec::clique().with_bandwidth(4);
        let text = links_report(3, &spec, &sample_events(), 4).unwrap();
        assert!(
            text.contains("communication report: n=3 budget=4"),
            "{text}"
        );
        assert!(text.contains("top congested links"), "{text}");
        assert!(text.contains("(unscoped)"), "{text}");
        // The 0→1 link peaked at 4 words in round 3 = 1000‰.
        assert!(text.contains("1000"), "{text}");
    }
}
