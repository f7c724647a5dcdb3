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
use cc_net::NetConfig;
use cc_profile::Profile;
use cc_route::Net;
use cc_trace::{ClaimRecord, ExperimentRecord, PhaseBreakdown, RecordingTracer, RunArtifact};
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

/// Runs the three headline algorithms (GC, EXACT-MST, KT1-MST) at small
/// scale through [`cc_core::catalog`] and captures per-phase cost
/// breakdowns from their event streams: the top-level phases of
/// [`Profile::from_events`], same-named scopes merged in first-appearance
/// order. Scopes nest (the collectives add `route:*` under every
/// algorithm phase), so only the roots partition the metered traffic.
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
        ("gc", Entry::GcSketch(&g_gc), n_gc, 9),
        ("exact-mst", Entry::ExactMst(&g_mst), n_mst, 5),
        ("kt1-mst", Entry::Kt1Mst(&g_kt1), n_mst, 7),
    ]
    .into_iter()
    .map(|(algo, entry, n, seed)| {
        let mut net = Net::new(NetConfig::kt1(n).with_seed(seed));
        let rec = RecordingTracer::new();
        net.set_tracer(Box::new(rec.clone()));
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
            phases: Profile::from_events(&rec.take_events())
                .roots
                .into_iter()
                .map(|phase| (phase.name, phase.cost))
                .collect(),
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
    use cc_trace::CostSnapshot;

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
    fn headline_breakdowns_cover_the_three_algorithms_and_validate() {
        let breakdowns = headline_breakdowns(true);
        let algos: Vec<&str> = breakdowns.iter().map(|b| b.algo.as_str()).collect();
        assert_eq!(algos, vec!["gc", "exact-mst", "kt1-mst"]);
        for b in &breakdowns {
            assert!(!b.phases.is_empty(), "{}: no phases captured", b.algo);
            // The top-level phases partition the run: a renamed scope or an
            // unscoped collective shows up here as a gap.
            let sum = |f: fn(&CostSnapshot) -> u64| b.phases.iter().map(|(_, c)| f(c)).sum::<u64>();
            assert_eq!(sum(|c| c.rounds), b.total.rounds, "{}: rounds", b.algo);
            assert_eq!(
                sum(|c| c.messages),
                b.total.messages,
                "{}: messages",
                b.algo
            );
            assert_eq!(sum(|c| c.words), b.total.words, "{}: words", b.algo);
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
