//! The model grid: every algorithm × every model cell, with typed
//! degradation.
//!
//! A *cell* is one [`ModelSpec`] — a bandwidth budget × a link mode
//! (unicast or broadcast-only) × a node-to-machine mapping. The grid
//! runner executes the reproduction's three flagship workloads
//! (`gc-sketch`, `exact-mst`, `rt-conn`) in every cell. `gc-sketch` and
//! `exact-mst` are [`guard::run`]s of their [`cc_core::catalog`] entries:
//! checked and compared with the sequential reference. In a
//! broadcast-only cell the `gc-sketch` entry runs label propagation
//! (the paper's footnote-1 algorithm), whose own spanning forest faces
//! the entry's check. `rt-conn` is judged against sequential component
//! labels by [`Verdict::returned`]. Each cell renders its [`Verdict`] as
//! exactly one of three statuses:
//!
//! * **ok** — the run completed, its check accepted the answer, and the
//!   answer equals the sequential reference.
//! * **model-reject** — the simulator refused the run with a typed
//!   [`NetError`](cc_net::NetError) naming the round and link where the
//!   algorithm first stepped outside the cell's model (e.g. `exact-mst`
//!   unicasting in a broadcast-only cell, or a 3-word weighted edge in a
//!   2-word cell).
//! * **failed** — everything a weaker model must never cause: a rejected
//!   answer (`wrong-answer`), an exhausted Monte Carlo sampler
//!   (`sketch-exhausted`, a detected failure the paper bounds by
//!   `1/n^{Ω(1)}`), a message its protocol cannot have sent
//!   (`malformed-message`: a lost or duplicated fragment, a corrupted
//!   word), or an accepted answer that disagrees with the reference
//!   (`silent-wrong`).
//!   The `grid` binary exits 1 on any failed cell. A panic is a bug, not
//!   a status: it ends the sweep, and the binary exits 101.
//!
//! A cell can degrade a workload by refusing it or slowing it, but never
//! by letting it return a silently wrong answer.
//!
//! Machine-level accounting (the k-machine axis) is one fold: every
//! workload runs under a [`LedgerTracer`], whose `CommLedger` prices each
//! round's link table through a [`cc_model::MachineLedger`] under the
//! cell's mapping as the round closes — the same fold that yields the
//! utilization section.
//!
//! Results are emitted as a schema-versioned [`GridArtifact`] (written
//! by `grid --out`; nothing reads it back) and rendered to the E22 and
//! E23 markdown tables, whose committed copies (`docs/grid_e22.md`,
//! `docs/grid_e23.md`) CI diffs against a fresh sweep. Per-cell wall
//! time stays in the grid artifact only.

use crate::guard::{self, Run, Verdict};
use cc_core::catalog::Entry;
use cc_core::{run_connectivity, RtGcOutput};
use cc_graph::{connectivity, generators, Graph};
use cc_lens::{CommReport, LedgerTracer};
use cc_model::{LinkMode, MachineStats, Mapping, ModelSpec};
use cc_net::NetConfig;
use cc_runtime::Runtime;
use cc_trace::Json;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

/// Version stamp of the grid artifact format. v2 added the per-cell
/// `utilization` section (the cc-lens communication fold).
pub const GRID_SCHEMA_VERSION: u64 = 2;

/// The three workloads every cell runs.
pub const GRID_ALGORITHMS: [&str; 3] = ["gc-sketch", "exact-mst", "rt-conn"];

/// One grid sweep: which cells to visit on an `n`-node input.
#[derive(Clone, Debug)]
pub struct GridConfig {
    /// Clique size.
    pub n: usize,
    /// Base seed for graphs and simulator randomness.
    pub seed: u64,
    /// Bandwidth axis (words per link per round).
    pub bandwidths: Vec<u64>,
    /// Mapping axis (machine counts; `n` recovers the clique).
    pub machine_counts: Vec<usize>,
}

impl GridConfig {
    /// The full E22 sweep: 3 bandwidths × 2 link modes × 3 mappings
    /// (18 cells).
    ///
    /// # Panics
    ///
    /// Panics if `n < 8`.
    pub fn full(n: usize) -> Self {
        assert!(n >= 8, "the full grid's k = 4 mapping needs n >= 8");
        GridConfig {
            n,
            seed: 0xE22,
            bandwidths: vec![2, 4, 8],
            machine_counts: vec![1, 4, n],
        }
    }

    /// Every cell of the sweep, in deterministic (bandwidth, mode,
    /// machines) order.
    pub fn cells(&self) -> Vec<ModelSpec> {
        let mut specs = Vec::new();
        for &bw in &self.bandwidths {
            for mode in [LinkMode::Unicast, LinkMode::BroadcastOnly] {
                for &k in &self.machine_counts {
                    let spec = ModelSpec::new(bw, mode, Mapping::KMachine(k))
                        .unwrap_or_else(|e| panic!("grid cell invalid: {e}"));
                    spec.validate_for(self.n)
                        .unwrap_or_else(|e| panic!("grid cell invalid for n={}: {e}", self.n));
                    specs.push(spec);
                }
            }
        }
        specs
    }
}

/// One (cell, algorithm) measurement.
#[derive(Clone, Debug)]
pub struct CellResult {
    /// The model cell.
    pub spec: ModelSpec,
    /// Workload ID (one of [`GRID_ALGORITHMS`]).
    pub algorithm: String,
    /// How the run ended; its status, kind and detail are the JSON's
    /// `status`, `error`, `detail` and `validated` keys.
    pub verdict: Verdict,
    /// Logical rounds metered (partial up to the rejection point for
    /// non-ok runs — still deterministic under the fixed seed).
    pub rounds: u64,
    /// Messages metered.
    pub messages: u64,
    /// Words metered.
    pub words: u64,
    /// Machine-level accounting under the cell's mapping.
    pub machine: MachineStats,
    /// The cc-lens communication fold: round-resolved utilization vs
    /// the cell's budget, headroom, mix, phases, pair skew.
    pub utilization: CommReport,
    /// Wall-clock nanoseconds of the run.
    pub nanos: u64,
}

impl CellResult {
    /// Folds one guarded run into its cell.
    pub fn new(spec: ModelSpec, algorithm: &str, run: Run) -> Self {
        CellResult {
            spec,
            algorithm: algorithm.to_string(),
            verdict: run.verdict,
            rounds: run.cost.rounds,
            messages: run.cost.messages,
            words: run.cost.words,
            machine: run.ledger.machine_stats(),
            utilization: run.ledger.report(),
            nanos: run.nanos,
        }
    }

    /// The `bw{B}-{uni|bc}-k{K}` cell key.
    pub fn cell_key(&self) -> String {
        self.spec.cell_key()
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("cell", Json::Str(self.cell_key())),
            ("bandwidth", Json::UInt(self.spec.bandwidth_words_per_link)),
            (
                "link_mode",
                Json::Str(self.spec.link_mode.key().to_string()),
            ),
            (
                "machines",
                match self.spec.mapping {
                    Mapping::OneToOne => Json::Null,
                    Mapping::KMachine(k) => Json::UInt(k as u64),
                },
            ),
            ("algorithm", Json::Str(self.algorithm.clone())),
            ("status", Json::Str(self.verdict.status().to_string())),
            (
                "error",
                self.verdict
                    .kind()
                    .map_or(Json::Null, |k| Json::Str(k.to_string())),
            ),
            (
                "detail",
                self.verdict
                    .detail()
                    .map_or(Json::Null, |d| Json::Str(d.to_string())),
            ),
            ("validated", Json::Bool(self.verdict == Verdict::Ok)),
            ("rounds", Json::UInt(self.rounds)),
            ("messages", Json::UInt(self.messages)),
            ("words", Json::UInt(self.words)),
            ("machine_rounds", Json::UInt(self.machine.machine_rounds)),
            ("local_words", Json::UInt(self.machine.local_words)),
            ("remote_words", Json::UInt(self.machine.remote_words)),
            ("max_pair_words", Json::UInt(self.machine.max_pair_words)),
            ("logical_rounds", Json::UInt(self.machine.logical_rounds)),
            ("utilization", self.utilization.to_json()),
            ("nanos", Json::UInt(self.nanos)),
        ])
    }
}

/// The artifact one grid sweep emits, stamped [`GRID_SCHEMA_VERSION`]
/// and generator `cc-bench grid` in its JSON form.
#[derive(Clone, Debug)]
pub struct GridArtifact {
    /// Unix timestamp (seconds) of the run; 0 when unavailable.
    pub created_unix: u64,
    /// Clique size every cell ran at.
    pub n: u64,
    /// Base seed of the sweep.
    pub seed: u64,
    /// One entry per (cell, algorithm).
    pub cells: Vec<CellResult>,
}

impl GridArtifact {
    /// A fresh artifact stamped with the current time.
    pub fn new(n: usize, seed: u64) -> Self {
        let created_unix = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        GridArtifact {
            created_unix,
            n: n as u64,
            seed,
            cells: Vec::new(),
        }
    }

    /// JSON form.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema_version", Json::UInt(GRID_SCHEMA_VERSION)),
            ("generator", Json::Str("cc-bench grid".to_string())),
            ("created_unix", Json::UInt(self.created_unix)),
            ("n", Json::UInt(self.n)),
            ("seed", Json::UInt(self.seed)),
            (
                "cells",
                Json::Arr(self.cells.iter().map(CellResult::to_json).collect()),
            ),
        ])
    }

    /// Pretty-printed JSON document (trailing newline included).
    pub fn to_json_string(&self) -> String {
        let mut s = self.to_json().emit_pretty();
        s.push('\n');
        s
    }

    /// Structural invariants every grid document must satisfy.
    ///
    /// # Errors
    ///
    /// Returns every violated invariant.
    pub fn validate(&self) -> Result<(), Vec<String>> {
        let mut problems = Vec::new();
        if self.cells.is_empty() {
            problems.push("no cells".into());
        }
        let mut keys: Vec<(String, String)> = self
            .cells
            .iter()
            .map(|c| (c.cell_key(), c.algorithm.clone()))
            .collect();
        let before = keys.len();
        keys.sort();
        keys.dedup();
        if keys.len() != before {
            problems.push("duplicate (cell, algorithm) entries".into());
        }
        for c in &self.cells {
            let tag = format!("{}/{}", c.cell_key(), c.algorithm);
            if !GRID_ALGORITHMS.contains(&c.algorithm.as_str()) {
                problems.push(format!("{tag}: unknown algorithm"));
            }
            if c.spec.validate_for(self.n as usize).is_err() {
                problems.push(format!("{tag}: spec invalid for n={}", self.n));
            }
            if c.verdict == Verdict::Ok && c.machine.machine_rounds < c.rounds {
                problems.push(format!(
                    "{tag}: machine rounds {} < logical rounds {}",
                    c.machine.machine_rounds, c.rounds
                ));
            }
            // The utilization section is pinned to the cell's own
            // accounting (zero drift between the lens fold and the live
            // counters).
            let u = &c.utilization;
            for p in u.validate() {
                problems.push(format!("{tag}: utilization: {p}"));
            }
            if u.machine != c.machine {
                problems.push(format!(
                    "{tag}: utilization machine stats drift from the cell's"
                ));
            }
            if c.verdict == Verdict::Ok {
                if u.words != c.words {
                    problems.push(format!(
                        "{tag}: utilization words {} != metered words {}",
                        u.words, c.words
                    ));
                }
                if u.rounds + u.fast_forward_rounds != c.rounds {
                    problems.push(format!(
                        "{tag}: utilization rounds {} (+{} ff) != metered rounds {}",
                        u.rounds, u.fast_forward_rounds, c.rounds
                    ));
                }
            }
        }
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems)
        }
    }

    /// Failed cells — the outcomes the grid binary refuses to exit 0
    /// over.
    pub fn failed(&self) -> Vec<&CellResult> {
        self.cells
            .iter()
            .filter(|c| c.verdict.status() == "failed")
            .collect()
    }
}

/// Renders the E22 degradation table (GitHub-flavored markdown).
pub fn render_markdown(artifact: &GridArtifact) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Grid sweep at n = {}, seed {} ({} cells × {} algorithms).\n\n",
        artifact.n,
        artifact.seed,
        artifact
            .cells
            .iter()
            .map(CellResult::cell_key)
            .collect::<std::collections::BTreeSet<_>>()
            .len(),
        GRID_ALGORITHMS.len(),
    ));
    out.push_str(
        "| cell | algorithm | status | rounds | machine rounds | messages | words | remote words | local words | peak util ‰ | headroom ‰ | error |\n",
    );
    out.push_str("|---|---|---|---:|---:|---:|---:|---:|---:|---:|---:|---|\n");
    for c in &artifact.cells {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} |\n",
            c.cell_key(),
            c.algorithm,
            if c.verdict == Verdict::Ok {
                "ok ✓"
            } else {
                c.verdict.status()
            },
            c.rounds,
            c.machine.machine_rounds,
            c.messages,
            c.words,
            c.machine.remote_words,
            c.machine.local_words,
            c.utilization.peak_util_milli,
            c.utilization.headroom_milli,
            c.verdict.kind().unwrap_or("—"),
        ));
    }
    out
}

/// Renders the E23 utilization-profile table (GitHub-flavored
/// markdown): per (cell, algorithm), how the per-link budget is
/// actually spent — peak and quantile utilization, headroom, the
/// broadcast/unicast mix, and machine-pair skew.
pub fn render_utilization_markdown(artifact: &GridArtifact) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Utilization profiles at n = {}, seed {} (per-(round, link) words vs the cell's budget, in ‰).\n\n",
        artifact.n, artifact.seed,
    ));
    out.push_str(
        "| cell | algorithm | status | peak ‰ | p50 ‰ | p95 ‰ | p99 ‰ | mean ‰ | headroom ‰ | broadcast words | unicast words | pair skew ‰ |\n",
    );
    out.push_str("|---|---|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|\n");
    for c in &artifact.cells {
        let u = &c.utilization;
        out.push_str(&format!(
            "| `{}` | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} |\n",
            c.cell_key(),
            c.algorithm,
            c.verdict.status(),
            u.peak_util_milli,
            u.p50_util_milli,
            u.p95_util_milli,
            u.p99_util_milli,
            u.mean_util_milli,
            u.headroom_milli,
            u.broadcast_words,
            u.unicast_words,
            u.pair_skew_milli,
        ));
    }
    out
}

/// `rt-conn` on the serial `cc-runtime` backend, judged against the
/// sequential component labels.
fn rt_run(n: usize, seed: u64, g: &Graph, spec: &ModelSpec) -> Run {
    let adj = g.adjacency_lists();
    let truth = connectivity::component_labels(g);
    let cfg = NetConfig::kt1(n)
        .with_seed(seed)
        .with_round_cap(guard::ROUND_CAP)
        .with_model(spec);
    let mut rt = Runtime::serial(cfg);
    let fold = LedgerTracer::new(n, spec).expect("grid cells are pre-validated");
    rt.set_tracer(Box::new(fold.clone()));
    let t0 = Instant::now();
    let result = run_connectivity(&mut rt, &adj, None, guard::ROUND_CAP);
    let nanos = t0.elapsed().as_nanos() as u64;
    let cost = rt.cost();
    drop(rt);
    let check = |out: &RtGcOutput| {
        if out.labels == truth {
            Ok(())
        } else {
            Err(format!(
                "labels disagree with sequential components ({} vs {} classes)",
                out.component_count,
                truth
                    .iter()
                    .collect::<std::collections::BTreeSet<_>>()
                    .len()
            ))
        }
    };
    Run {
        verdict: Verdict::returned(result, check, |_| true),
        cost,
        ledger: fold
            .finish()
            .expect("an engine's batches stay inside its clique"),
        nanos,
    }
}

/// Runs the full sweep: every cell × every algorithm on fixed seeded
/// inputs (a sparse connected graph for the connectivity workloads, a
/// complete weighted clique for MST).
pub fn run_grid(cfg: &GridConfig) -> GridArtifact {
    let n = cfg.n;
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let g = generators::random_connected_graph(n, (3.0 / n as f64).min(0.5), &mut rng);
    let mut wrng = ChaCha8Rng::seed_from_u64(cfg.seed ^ 0xABCD);
    let wg = generators::complete_wgraph(n, &mut wrng);
    let (gc, mst) = (Entry::GcSketch(&g), Entry::ExactMst(&wg));

    let mut artifact = GridArtifact::new(n, cfg.seed);
    for spec in cfg.cells() {
        let net_cfg = NetConfig::from_model(n, &spec)
            .expect("grid cells are pre-validated")
            .with_seed(cfg.seed);
        let gc_run = guard::run(net_cfg.clone(), None, gc);
        artifact.cells.push(CellResult::new(spec, gc.id(), gc_run));
        // EXACT-MST is a unicast protocol: in broadcast-only cells its
        // first point-to-point send is the typed rejection the grid
        // documents (there is no broadcast-only MST in the paper).
        let mst_run = guard::run(net_cfg, None, mst);
        artifact
            .cells
            .push(CellResult::new(spec, mst.id(), mst_run));
        let rt = rt_run(n, cfg.seed, &g, &spec);
        artifact.cells.push(CellResult::new(spec, "rt-conn", rt));
    }
    artifact
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_core::catalog::Answer;
    use cc_lens::CommLedger;
    use cc_route::Net;
    use cc_trace::RecordingTracer;

    fn small_grid() -> GridArtifact {
        // n = 12 keeps every workload fast in debug builds while leaving
        // room for the k = 4 intermediate mapping.
        let cfg = GridConfig {
            n: 12,
            seed: 0xE22,
            bandwidths: vec![2, 8],
            machine_counts: vec![1, 4, 12],
        };
        run_grid(&cfg)
    }

    #[test]
    fn sweep_covers_every_cell_with_no_silent_wrong_answers() {
        let art = small_grid();
        assert_eq!(art.cells.len(), 2 * 2 * 3 * 3, "cells × algorithms");
        art.validate().expect("artifact validates");
        assert!(art.failed().is_empty(), "{:?}", art.failed());

        // Broadcast-only GC must be ok and validated in every bc cell
        // (label propagation is broadcast-native, one word per message).
        for c in art
            .cells
            .iter()
            .filter(|c| c.algorithm == "gc-sketch" && !c.spec.allows_unicast())
        {
            assert_eq!(c.verdict, Verdict::Ok, "{}", c.cell_key());
        }
        // EXACT-MST must be *typed-rejected* in every bc cell: the model
        // names the round and link of the first illegal unicast.
        for c in art
            .cells
            .iter()
            .filter(|c| c.algorithm == "exact-mst" && !c.spec.allows_unicast())
        {
            assert_eq!(c.verdict.status(), "model-reject", "{}", c.cell_key());
            assert_eq!(c.verdict.kind(), Some("unicast-in-broadcast"));
            assert!(
                c.verdict.detail().unwrap_or("").contains("round"),
                "rejection names the round: {:?}",
                c.verdict
            );
        }
        // At full bandwidth in the unicast model everything succeeds.
        for c in art
            .cells
            .iter()
            .filter(|c| c.spec.bandwidth_words_per_link == 8 && c.spec.allows_unicast())
        {
            assert_eq!(c.verdict, Verdict::Ok, "{}/{}", c.cell_key(), c.algorithm);
        }
        // The mapping never changes the logical outcome: group by
        // (bandwidth, mode, algorithm) and check status + logical cost
        // agree across k.
        use std::collections::BTreeMap;
        let mut groups: BTreeMap<(u64, &str, &str), Vec<&CellResult>> = BTreeMap::new();
        for c in &art.cells {
            groups
                .entry((
                    c.spec.bandwidth_words_per_link,
                    c.spec.link_mode.key(),
                    c.algorithm.as_str(),
                ))
                .or_default()
                .push(c);
        }
        for (key, cells) in groups {
            let first = cells[0];
            for c in &cells[1..] {
                assert_eq!(c.verdict.status(), first.verdict.status(), "{key:?}");
                assert_eq!(
                    (c.rounds, c.messages, c.words),
                    (first.rounds, first.messages, first.words),
                    "{key:?}: logical cost must be mapping-invariant"
                );
            }
        }
    }

    #[test]
    fn utilization_sections_are_present_consistent_and_within_budget() {
        let art = small_grid();
        for c in &art.cells {
            let u = &c.utilization;
            assert!(
                u.validate().is_empty(),
                "{}: {:?}",
                c.cell_key(),
                u.validate()
            );
            assert_eq!(u.machine, c.machine, "{}/{}", c.cell_key(), c.algorithm);
            assert!(u.peak_util_milli <= 1000);
            assert_eq!(u.headroom_milli, 1000 - u.peak_util_milli);
            if c.verdict == Verdict::Ok {
                assert_eq!(u.words, c.words, "{}/{}", c.cell_key(), c.algorithm);
                assert_eq!(u.rounds + u.fast_forward_rounds, c.rounds);
            }
        }
        // The lens is not vacuous: every validated run actually touched
        // links, and at least one of them saturated a link (the paper's
        // algorithms all pack full words somewhere).
        let ok_peaks: Vec<u64> = art
            .cells
            .iter()
            .filter(|c| c.verdict == Verdict::Ok)
            .map(|c| c.utilization.peak_util_milli)
            .collect();
        assert!(!ok_peaks.is_empty());
        assert!(ok_peaks.iter().all(|&p| p > 0), "ok runs carry traffic");
        assert!(
            ok_peaks.contains(&1000),
            "some run saturates a link: {ok_peaks:?}"
        );
    }

    #[test]
    fn a_rejected_answer_is_a_failed_cell_in_the_artifact() {
        // A run whose answer the check rejects ends as a `failed` cell
        // of kind `wrong-answer`, still metered, and the artifact keeps
        // it: `validate` accepts it and `failed` counts it.
        let n = 12;
        let spec = ModelSpec::clique().with_bandwidth(8).kmachine(4);
        let mut rng = ChaCha8Rng::seed_from_u64(0xE22);
        let g = generators::random_connected_graph(n, 0.3, &mut rng);
        let cfg = NetConfig::from_model(n, &spec).unwrap().with_seed(0xE22);
        let entry = Entry::GcSketch(&g);
        let mut answer = entry.run(&mut Net::new(cfg.clone())).expect("gc");
        if let Answer::Gc(out) = &mut answer {
            out.labels.pop();
        }
        let run = Run {
            verdict: Verdict::returned(Ok(answer), |a| entry.check(a), |_| true),
            ..guard::run(cfg, None, entry)
        };
        let cell = CellResult::new(spec, "gc-sketch", run);
        assert_eq!(cell.verdict.status(), "failed");
        assert_eq!(cell.verdict.kind(), Some("wrong-answer"));
        assert_eq!(
            cell.verdict.detail(),
            Some("label vector has 11 entries for 12 nodes")
        );
        assert!(cell.rounds > 0, "the run is metered");
        let mut art = GridArtifact::new(n, 0xE22);
        art.cells.push(cell);
        art.validate().expect("a failed cell is a valid cell");
        assert_eq!(art.failed().len(), 1);
        let json = art.to_json_string();
        assert!(json.contains("\"status\": \"failed\""), "{json}");
        assert!(json.contains("\"error\": \"wrong-answer\""), "{json}");
    }

    #[test]
    fn net_cell_fold_matches_the_metered_cost_exactly() {
        // Zero drift on the CliqueNet path: the lens fold of a traced gc
        // run reproduces the engine's own counters bit for bit.
        let n = 12;
        let spec = ModelSpec::clique().with_bandwidth(8).kmachine(4);
        let mut rng = ChaCha8Rng::seed_from_u64(0xE22);
        let g = generators::random_connected_graph(n, 0.3, &mut rng);
        let cfg = NetConfig::from_model(n, &spec).unwrap().with_seed(0xE22);
        let rec = RecordingTracer::new();
        let mut net = Net::new(cfg);
        net.set_tracer(Box::new(rec.clone()));
        Entry::GcSketch(&g).run(&mut net).expect("gc");
        let cost = net.cost();
        let lens = CommLedger::fold(n, &spec, &rec.model_events()).unwrap();
        assert_eq!(lens.words(), cost.words);
        assert_eq!(lens.messages(), cost.messages);
        assert_eq!(
            lens.rounds().len() as u64 + lens.fast_forward_rounds(),
            cost.rounds
        );
        assert_eq!(
            lens.over_budget(),
            0,
            "SendRules admission implies budget respect"
        );
        let report = lens.report();
        assert!(report.validate().is_empty(), "{:?}", report.validate());
        assert!(report.peak_util_milli <= 1000);
        // The gc phases are attributed: at least one named scope carries
        // traffic (gc runs under route:* / gc:* scopes).
        assert!(
            report
                .phases
                .iter()
                .any(|(name, p)| name != cc_lens::UNSCOPED && p.words > 0),
            "phases: {:?}",
            report.phases
        );
    }

    #[test]
    fn markdown_names_every_cell_and_outcome() {
        let art = small_grid();
        let md = render_markdown(&art);
        assert!(md.contains("| cell | algorithm |"));
        for c in &art.cells {
            assert!(md.contains(&c.cell_key()), "missing {}", c.cell_key());
        }
        assert!(md.contains("unicast-in-broadcast"));
        assert!(md.contains("ok ✓"));
    }

    #[test]
    fn full_config_has_the_documented_shape() {
        assert_eq!(GridConfig::full(32).cells().len(), 18);
        // Cell keys are unique within a sweep.
        let keys: std::collections::BTreeSet<String> = GridConfig::full(32)
            .cells()
            .iter()
            .map(ModelSpec::cell_key)
            .collect();
        assert_eq!(keys.len(), 18);
    }
}
