//! Bridges the experiment harness to `cc-trace`'s versioned
//! [`RunArtifact`].
//!
//! The binaries (`tables`, `verify_claims`) build an artifact and render
//! their plain-text output *from it*, so `docs/experiment_tables.txt`,
//! `docs/claims_checklist.txt`, and the `--emit-json` document can never
//! drift apart; `trace_report` re-renders the same text from a saved
//! artifact.

use crate::claims::ClaimResult;
use crate::guard::{self, Verdict};
use crate::table::Table;
use cc_core::catalog::Entry;
use cc_graph::generators;
use cc_lens::comm_metrics;
use cc_net::{Cost, NetConfig};
use cc_route::Net;
use cc_trace::{ClaimRecord, CostSnapshot, ExperimentRecord, PhaseBreakdown, RunArtifact};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// [`Table`] → artifact record. IDs are stored verbatim (display form,
/// e.g. `E6b`): the artifact is the source the text docs are re-rendered
/// from, so it must not normalise away presentation.
pub fn experiment_record(t: &Table) -> ExperimentRecord {
    ExperimentRecord {
        id: t.id.clone(),
        caption: t.caption.clone(),
        headers: t.headers.clone(),
        rows: t.rows.clone(),
    }
}

/// Artifact record → renderable [`Table`].
pub fn record_to_table(r: &ExperimentRecord) -> Table {
    Table {
        id: r.id.clone(),
        caption: r.caption.clone(),
        headers: r.headers.clone(),
        rows: r.rows.clone(),
    }
}

/// [`ClaimResult`] → artifact record.
pub fn claim_record(c: &ClaimResult) -> ClaimRecord {
    ClaimRecord {
        claim: c.claim.clone(),
        check: c.check.clone(),
        pass: c.pass,
    }
}

/// Aggregates completed scopes by name (first-appearance order), keeping
/// only `keep` — the algorithm's *top-level* phases. Scopes nest (the
/// collectives add `route:*` under every algorithm phase), so summing
/// everything would double-count; the curated top-level set partitions the
/// metered traffic instead.
pub fn phases_from_scopes(scopes: &[(String, Cost)], keep: &[&str]) -> Vec<(String, CostSnapshot)> {
    let mut out: Vec<(String, CostSnapshot)> = Vec::new();
    for (name, cost) in scopes {
        if !keep.contains(&name.as_str()) {
            continue;
        }
        let snap = cost.snapshot();
        if let Some((_, acc)) = out.iter_mut().find(|(n, _)| n == name) {
            acc.rounds += snap.rounds;
            acc.messages += snap.messages;
            acc.words += snap.words;
            acc.bits += snap.bits;
        } else {
            out.push((name.clone(), snap));
        }
    }
    out
}

/// GC's top-level phase scopes.
pub const GC_PHASES: &[&str] = &["kt0-bootstrap", "phase1", "phase2", "output-broadcast"];
/// EXACT-MST's top-level phase scopes.
pub const EXACT_MST_PHASES: &[&str] = &[
    "kt0-bootstrap",
    "exact-mst:lotker",
    "exact-mst:component-graph",
    "exact-mst:sq-mst-sample",
    "exact-mst:sq-mst-light",
];
/// KT1-MST's top-level phase scopes.
pub const KT1_MST_PHASES: &[&str] = &[
    "kt1-mst:mwoe-search",
    "kt1-mst:merge-report",
    "kt1-mst:relabel",
    "kt1-mst:output",
];

/// Runs the three headline algorithms (GC, EXACT-MST, KT1-MST) at small
/// scale through [`cc_core::catalog`] and captures per-phase cost
/// breakdowns from their scope counters.
///
/// # Panics
///
/// Panics if any of the runs fails or its answer fails its check (fixed
/// seeds; a failure is a bug).
pub fn headline_breakdowns(quick: bool) -> Vec<PhaseBreakdown> {
    let (n_gc, n_mst) = if quick { (64, 32) } else { (128, 64) };
    let rng = ChaCha8Rng::seed_from_u64;
    let g_gc = generators::random_connected_graph(n_gc, 0.1, &mut rng(1));
    let g_mst = generators::random_connected_wgraph(n_mst, 0.3, 10_000, &mut rng(2));
    let sparse = 4.0 / n_mst as f64;
    let g_kt1 = generators::random_connected_wgraph(n_mst, sparse, 10_000, &mut rng(3));
    [
        ("gc", Entry::GcSketch(&g_gc), n_gc, 9, GC_PHASES),
        (
            "exact-mst",
            Entry::ExactMst(&g_mst),
            n_mst,
            5,
            EXACT_MST_PHASES,
        ),
        ("kt1-mst", Entry::Kt1Mst(&g_kt1), n_mst, 7, KT1_MST_PHASES),
    ]
    .into_iter()
    .map(|(algo, entry, n, seed, phases)| {
        let mut net = Net::new(NetConfig::kt1(n).with_seed(seed));
        let answer = entry
            .run(&mut net)
            .unwrap_or_else(|e| panic!("{algo}: {e}"));
        entry
            .check(&answer)
            .unwrap_or_else(|why| panic!("{algo}: {why}"));
        PhaseBreakdown {
            algo: algo.into(),
            n: n as u64,
            total: net.cost().snapshot(),
            phases: phases_from_scopes(net.counters().scopes(), phases),
        }
    })
    .collect()
}

/// Runs GC once as a [`guard::run`] and returns its `comm.*` snapshot
/// (the artifact's `metrics` section): the cc-lens fold under the spec
/// `NetConfig::kt1` admits sends under.
///
/// # Panics
///
/// Panics unless the run is [`Verdict::Ok`] (fixed seeds; anything else
/// is a bug).
pub fn traced_gc_metrics(quick: bool) -> (String, cc_trace::MetricsSnapshot) {
    let n = if quick { 64 } else { 128 };
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    let g = generators::random_connected_graph(n, 0.1, &mut rng);
    let run = guard::run(NetConfig::kt1(n).with_seed(9), None, Entry::GcSketch(&g));
    assert_eq!(run.verdict, Verdict::Ok, "gc-n{n}");
    (format!("gc-n{n}"), comm_metrics(&run.ledger))
}

/// Assembles the full artifact: tables, claims, headline breakdowns, and
/// one traced-metrics snapshot.
pub fn build_artifact(
    generator: &str,
    quick: bool,
    tables: &[Table],
    claims: &[ClaimResult],
) -> RunArtifact {
    let mut artifact = RunArtifact::new(generator)
        .with_meta("mode", if quick { "quick" } else { "full" })
        .with_meta("schema", "cc-trace RunArtifact v2");
    artifact.experiments = tables.iter().map(experiment_record).collect();
    artifact.claims = claims.iter().map(claim_record).collect();
    artifact.breakdowns = headline_breakdowns(quick);
    artifact.metrics.push(traced_gc_metrics(quick));
    artifact
}

/// Renders the experiment tables exactly as `tables` prints them (the
/// `docs/experiment_tables.txt` format: each table followed by one blank
/// line).
pub fn render_tables_txt(artifact: &RunArtifact) -> String {
    let mut out = String::new();
    for rec in &artifact.experiments {
        out.push_str(&record_to_table(rec).to_string());
        out.push('\n');
    }
    out
}

/// Renders the claim checklist exactly as `verify_claims` prints it (the
/// `docs/claims_checklist.txt` format).
pub fn render_checklist_txt(artifact: &RunArtifact) -> String {
    let mode = artifact
        .meta
        .iter()
        .find(|(k, _)| k == "mode")
        .map(|(_, v)| v.as_str())
        .unwrap_or("quick");
    let mut out = format!("reproduction checklist ({mode} sweeps):\n\n");
    let mut failed = 0usize;
    for c in &artifact.claims {
        let mark = if c.pass { "PASS" } else { "FAIL" };
        out.push_str(&format!("[{mark}] {:<28} {}\n", c.claim, c.check));
        if !c.pass {
            failed += 1;
        }
    }
    out.push_str(&format!(
        "\n{}/{} claims hold\n",
        artifact.claims.len() - failed,
        artifact.claims.len()
    ));
    out
}

/// Renders the whp seed-sweep section as a [`Table`] (used by
/// `trace_report`; the `chaos` binary prints the richer E17b table with
/// its paper-budget control column instead).
pub fn whp_table(points: &[cc_trace::WhpPoint]) -> Table {
    let mut t = Table::new(
        "whp-sweep",
        "sketch-GC empirical failure rate across independent seeds",
        &["n", "trials", "failures", "rate"],
    );
    for p in points {
        t.push_row(vec![
            p.n.to_string(),
            p.trials.to_string(),
            p.failures.to_string(),
            format!("{:.2}", p.rate()),
        ]);
    }
    t
}

/// Renders one phase breakdown as a [`Table`] (used by `trace_report`).
pub fn breakdown_table(b: &PhaseBreakdown) -> Table {
    let mut t = Table::new(
        &format!("{} (n={})", b.algo, b.n),
        "per-phase cost breakdown (top-level scopes)",
        &["phase", "rounds", "messages", "words", "bits"],
    );
    for (name, c) in &b.phases {
        t.push_row(vec![
            name.clone(),
            c.rounds.to_string(),
            c.messages.to_string(),
            c.words.to_string(),
            c.bits.to_string(),
        ]);
    }
    t.push_row(vec![
        "TOTAL".into(),
        b.total.rounds.to_string(),
        b.total.messages.to_string(),
        b.total.words.to_string(),
        b.total.bits.to_string(),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_round_trips_through_record() {
        let mut t = Table::new("E6b", "demo", &["n", "rounds"]);
        t.push_row(vec!["8".into(), "12".into()]);
        let rec = experiment_record(&t);
        assert_eq!(rec.id, "E6b", "IDs must round-trip verbatim");
        let back = record_to_table(&rec);
        assert_eq!(back.id, "E6b");
        assert_eq!(back.rows, t.rows);
    }

    #[test]
    fn phases_filter_and_aggregate() {
        let scopes = vec![
            (
                "phase1".to_string(),
                Cost {
                    rounds: 3,
                    messages: 10,
                    words: 20,
                    bits: 200,
                },
            ),
            (
                "route:route".to_string(),
                Cost {
                    rounds: 2,
                    messages: 8,
                    words: 16,
                    bits: 160,
                },
            ),
            (
                "phase1".to_string(),
                Cost {
                    rounds: 1,
                    messages: 2,
                    words: 4,
                    bits: 40,
                },
            ),
        ];
        let phases = phases_from_scopes(&scopes, &["phase1"]);
        assert_eq!(phases.len(), 1);
        assert_eq!(phases[0].0, "phase1");
        assert_eq!(phases[0].1.rounds, 4);
        assert_eq!(phases[0].1.messages, 12);
    }

    #[test]
    fn headline_breakdowns_cover_the_three_algorithms_and_validate() {
        let breakdowns = headline_breakdowns(true);
        let algos: Vec<&str> = breakdowns.iter().map(|b| b.algo.as_str()).collect();
        assert_eq!(algos, vec!["gc", "exact-mst", "kt1-mst"]);
        for b in &breakdowns {
            assert!(!b.phases.is_empty(), "{}: no phases captured", b.algo);
            let phase_msgs: u64 = b.phases.iter().map(|(_, c)| c.messages).sum();
            assert!(
                phase_msgs <= b.total.messages,
                "{}: top-level phases over-count the total",
                b.algo
            );
        }
        let mut artifact = RunArtifact::new("test");
        artifact.breakdowns = breakdowns;
        artifact.validate().unwrap();
    }

    #[test]
    fn rendered_checklist_matches_binary_format() {
        let mut artifact = RunArtifact::new("test").with_meta("mode", "quick");
        artifact.claims.push(ClaimRecord {
            claim: "Thm 4 (E1)".into(),
            check: "demo".into(),
            pass: true,
        });
        let text = render_checklist_txt(&artifact);
        assert!(text.starts_with("reproduction checklist (quick sweeps):\n\n"));
        assert!(text.contains("[PASS] Thm 4 (E1)"));
        assert!(text.ends_with("1/1 claims hold\n"));
    }
}
