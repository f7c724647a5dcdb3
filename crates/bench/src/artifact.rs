//! Bridges the experiment harness to `cc-trace`'s versioned
//! [`RunArtifact`].
//!
//! The binaries (`tables`, `verify_claims`) store the very tables they
//! print — a [`Table`] *is* an artifact record — plus the headline phase
//! breakdowns and one traced-metrics snapshot, so
//! `docs/experiment_tables.txt`, `docs/claims_checklist.txt` and the
//! `--emit-json` document hold the same values; `trace_report` prints
//! every table of a saved artifact.

use crate::guard::{self, Verdict};
use crate::table::Table;
use cc_core::catalog::Entry;
use cc_graph::generators;
use cc_lens::comm_metrics;
use cc_net::NetConfig;
use cc_profile::Profile;
use cc_route::Net;
use cc_trace::{RecordingTracer, RunArtifact};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Runs the three headline algorithms (GC, EXACT-MST, KT1-MST) at small
/// scale through [`cc_core::catalog`] and tabulates the per-phase cost
/// breakdown of each from its event stream: one row per top-level phase
/// of [`Profile::from_events`] (same-named scopes merged, in
/// first-appearance order), then the run's `TOTAL`. Scopes nest (the
/// collectives add `route:*` under every algorithm phase), so only the
/// roots partition the metered traffic.
///
/// # Panics
///
/// Panics if any of the runs fails or its answer fails its check (fixed
/// seeds; a failure is a bug).
pub fn headline_breakdowns(quick: bool) -> Vec<Table> {
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
        let mut t = Table::new(
            &format!("{algo} (n={n})"),
            "per-phase cost breakdown (top-level scopes)",
            &["phase", "rounds", "messages", "words", "bits"],
        );
        let roots = Profile::from_events(&rec.take_events()).roots;
        let phases = roots.into_iter().map(|phase| (phase.name, phase.cost));
        for (name, c) in phases.chain([("TOTAL".to_string(), net.cost())]) {
            t.push_row(vec![
                name,
                c.rounds.to_string(),
                c.messages.to_string(),
                c.words.to_string(),
                c.bits.to_string(),
            ]);
        }
        t
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

/// Assembles the full artifact: `tables`, then the headline breakdowns,
/// and one traced-metrics snapshot.
pub fn build_artifact(generator: &str, quick: bool, tables: &[Table]) -> RunArtifact {
    let mut artifact =
        RunArtifact::new(generator).with_meta("mode", if quick { "quick" } else { "full" });
    artifact.experiments = tables.to_vec();
    artifact.experiments.extend(headline_breakdowns(quick));
    artifact.metrics.push(traced_gc_metrics(quick));
    artifact
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headline_breakdowns_cover_the_three_algorithms_and_validate() {
        let breakdowns = headline_breakdowns(true);
        let ids: Vec<&str> = breakdowns.iter().map(|b| b.id.as_str()).collect();
        assert_eq!(ids, ["gc (n=64)", "exact-mst (n=32)", "kt1-mst (n=32)"]);
        for b in &breakdowns {
            let last = b.rows.last().map(|r| r[0].as_str());
            assert_eq!(last, Some("TOTAL"), "{}", b.id);
            assert!(b.rows.len() > 1, "{}: no phases captured", b.id);
            // The top-level phases partition the run: a renamed scope or an
            // unscoped collective shows up here as a gap.
            for column in ["rounds", "messages", "words"] {
                let mut cells = b.column_f64(column);
                let total = cells.pop().expect("a TOTAL row");
                assert_eq!(cells.iter().sum::<f64>(), total, "{}: {column}", b.id);
            }
        }
        let mut artifact = RunArtifact::new("test");
        artifact.experiments = breakdowns;
        artifact.validate().unwrap();
    }
}
