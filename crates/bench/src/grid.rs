//! The model grid: every algorithm × every model cell, with typed
//! degradation.
//!
//! A *cell* is one [`ModelSpec`] — a bandwidth budget × a link mode
//! (unicast or broadcast-only) × a node-to-machine mapping. The grid
//! runner executes the reproduction's three flagship workloads
//! (`gc-sketch`, `exact-mst`, `rt-conn`) in every cell and records, per
//! cell, exactly one of three *typed* outcomes:
//!
//! * **ok** — the run completed *and its answer was validated* against
//!   an independent checker. `gc-sketch` (unicast cells) and `exact-mst`
//!   run and check through [`cc_core::catalog`]; the two special cases
//!   outside it are broadcast-only `gc-sketch` (label propagation,
//!   checked by [`cc_core::validate_gc`]) and `rt-conn` (checked against
//!   sequential component labels).
//! * **model-reject** — the simulator refused the run with a typed
//!   [`NetError`](cc_net::NetError) naming the round and link where the
//!   algorithm first stepped outside the cell's model (e.g. `exact-mst`
//!   unicasting in a broadcast-only cell, or a 3-word weighted edge in a
//!   2-word cell).
//! * **failed** — the run completed but the answer did not validate
//!   (a *wrong answer* — the one outcome the harness treats as fatal),
//!   or the Monte Carlo sampler was exhausted (`sketch-exhausted`, a
//!   detected failure the paper bounds by `1/n^{Ω(1)}`). The `grid`
//!   binary exits 1 on any failed cell.
//!
//! There is deliberately no fourth category: a cell can degrade a
//! workload by refusing it or slowing it, but never by letting it return
//! a silently wrong answer.
//!
//! Machine-level accounting (the k-machine axis) is one fold: every
//! workload runs under a [`LedgerTracer`], whose `CommLedger` prices each
//! [`cc_trace::Event::MessageBatch`] through a [`cc_model::MachineLedger`]
//! under the cell's mapping as it is emitted — the same fold that yields
//! the utilization section.
//!
//! Results are emitted as a schema-versioned [`GridArtifact`] and
//! rendered to the E22 and E23 markdown tables, whose committed copies
//! (`docs/grid_e22.md`, `docs/grid_e23.md`) CI diffs against a fresh
//! sweep. Per-cell wall time stays in the grid artifact only.

use cc_core::catalog::Entry;
use cc_core::{broadcast_gc, run_connectivity, validate_gc, CoreError, GcOutput};
use cc_graph::{connectivity, generators, Edge, Graph};
use cc_lens::{CommReport, LedgerTracer};
use cc_model::{LinkMode, MachineStats, Mapping, ModelSpec};
use cc_net::{Cost, NetConfig};
use cc_route::Net;
use cc_runtime::Runtime;
use cc_trace::Json;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

/// Version stamp of the grid artifact format. v2 added the per-cell
/// `utilization` section (the cc-lens communication fold); v1 documents
/// are not read.
pub const GRID_SCHEMA_VERSION: u64 = 2;

/// Round watchdog for every grid run — a cell that slows an algorithm
/// past this is reported as a typed `round-cap` rejection, not a hang.
pub const GRID_ROUND_CAP: u64 = 100_000;

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

/// Outcome category of one (cell, algorithm) run. See the module docs
/// for the exact semantics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CellStatus {
    /// Completed and validated.
    Ok,
    /// Refused by the model with a typed error.
    ModelReject,
    /// Wrong answer or detected Monte Carlo failure — fatal.
    Failed,
}

impl CellStatus {
    /// Stable string tag.
    pub fn key(self) -> &'static str {
        match self {
            CellStatus::Ok => "ok",
            CellStatus::ModelReject => "model-reject",
            CellStatus::Failed => "failed",
        }
    }

    fn from_key(key: &str) -> Result<Self, String> {
        match key {
            "ok" => Ok(CellStatus::Ok),
            "model-reject" => Ok(CellStatus::ModelReject),
            "failed" => Ok(CellStatus::Failed),
            other => Err(format!("unknown cell status {other:?}")),
        }
    }
}

/// One (cell, algorithm) measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct CellResult {
    /// The model cell.
    pub spec: ModelSpec,
    /// Workload ID (one of [`GRID_ALGORITHMS`]).
    pub algorithm: String,
    /// Outcome category.
    pub status: CellStatus,
    /// Machine-readable error kind (`unicast-in-broadcast`,
    /// `message-too-large`, `wrong-answer`, …) for non-ok outcomes.
    pub error: Option<String>,
    /// Human-readable detail (the full error display).
    pub detail: Option<String>,
    /// Whether the answer was checked and correct (implies `Ok`).
    pub validated: bool,
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
            ("status", Json::Str(self.status.key().to_string())),
            (
                "error",
                match &self.error {
                    Some(e) => Json::Str(e.clone()),
                    None => Json::Null,
                },
            ),
            (
                "detail",
                match &self.detail {
                    Some(d) => Json::Str(d.clone()),
                    None => Json::Null,
                },
            ),
            ("validated", Json::Bool(self.validated)),
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

    fn from_json(j: &Json) -> Result<Self, String> {
        let u = |key: &str| {
            j.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("cell missing numeric field {key:?}"))
        };
        let s = |key: &str| {
            j.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("cell missing string field {key:?}"))
        };
        let opt_s = |key: &str| j.get(key).and_then(Json::as_str).map(str::to_string);
        let mapping = match j.get("machines").and_then(Json::as_u64) {
            Some(k) => Mapping::KMachine(k as usize),
            None => Mapping::OneToOne,
        };
        let link_mode = match s("link_mode")?.as_str() {
            "uni" => LinkMode::Unicast,
            "bc" => LinkMode::BroadcastOnly,
            other => return Err(format!("unknown link mode {other:?}")),
        };
        let spec =
            ModelSpec::new(u("bandwidth")?, link_mode, mapping).map_err(|e| e.to_string())?;
        Ok(CellResult {
            spec,
            algorithm: s("algorithm")?,
            status: CellStatus::from_key(&s("status")?)?,
            error: opt_s("error"),
            detail: opt_s("detail"),
            validated: j
                .get("validated")
                .and_then(Json::as_bool)
                .ok_or("cell missing validated")?,
            rounds: u("rounds")?,
            messages: u("messages")?,
            words: u("words")?,
            machine: MachineStats {
                logical_rounds: u("logical_rounds")?,
                machine_rounds: u("machine_rounds")?,
                local_words: u("local_words")?,
                remote_words: u("remote_words")?,
                max_pair_words: u("max_pair_words")?,
            },
            utilization: CommReport::from_json(
                j.get("utilization").ok_or("cell missing utilization")?,
            )?,
            nanos: u("nanos")?,
        })
    }
}

/// The schema-versioned artifact one grid sweep emits.
#[derive(Clone, Debug, PartialEq)]
pub struct GridArtifact {
    /// [`GRID_SCHEMA_VERSION`] on emit.
    pub schema_version: u64,
    /// What produced the document.
    pub generator: String,
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
    /// A fresh artifact stamped with the current schema version and time.
    pub fn new(n: usize, seed: u64) -> Self {
        let created_unix = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        GridArtifact {
            schema_version: GRID_SCHEMA_VERSION,
            generator: "cc-bench grid".to_string(),
            created_unix,
            n: n as u64,
            seed,
            cells: Vec::new(),
        }
    }

    /// JSON form.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema_version", Json::UInt(self.schema_version)),
            ("generator", Json::Str(self.generator.clone())),
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

    /// Parses and structurally checks a document.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed field; rejects every
    /// schema version but [`GRID_SCHEMA_VERSION`].
    pub fn from_json_str(text: &str) -> Result<Self, String> {
        let j = Json::parse(text)?;
        let u = |key: &str| {
            j.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("artifact missing numeric field {key:?}"))
        };
        let schema_version = u("schema_version")?;
        if schema_version != GRID_SCHEMA_VERSION {
            return Err(format!(
                "grid artifact: schema_version {schema_version} not supported (expected {GRID_SCHEMA_VERSION})"
            ));
        }
        let cells = j
            .get("cells")
            .and_then(Json::as_arr)
            .ok_or("artifact missing cells array")?
            .iter()
            .map(CellResult::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(GridArtifact {
            schema_version,
            generator: j
                .get("generator")
                .and_then(Json::as_str)
                .ok_or("artifact missing generator")?
                .to_string(),
            created_unix: u("created_unix")?,
            n: u("n")?,
            seed: u("seed")?,
            cells,
        })
    }

    /// Structural invariants every grid document must satisfy.
    ///
    /// # Errors
    ///
    /// Returns every violated invariant.
    pub fn validate(&self) -> Result<(), Vec<String>> {
        let mut problems = Vec::new();
        if self.schema_version != GRID_SCHEMA_VERSION {
            problems.push(format!(
                "schema_version {} != supported {GRID_SCHEMA_VERSION}",
                self.schema_version
            ));
        }
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
            match c.status {
                CellStatus::Ok => {
                    if !c.validated {
                        problems.push(format!("{tag}: ok but not validated"));
                    }
                    if c.error.is_some() {
                        problems.push(format!("{tag}: ok with an error kind"));
                    }
                    if c.machine.machine_rounds < c.rounds {
                        problems.push(format!(
                            "{tag}: machine rounds {} < logical rounds {}",
                            c.machine.machine_rounds, c.rounds
                        ));
                    }
                }
                CellStatus::ModelReject | CellStatus::Failed => {
                    if c.validated {
                        problems.push(format!("{tag}: non-ok but validated"));
                    }
                    if c.error.is_none() {
                        problems.push(format!("{tag}: non-ok without an error kind"));
                    }
                }
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
            if c.status == CellStatus::Ok {
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

    /// Failed cells (a wrong answer or an exhausted sketch) — the
    /// outcomes the grid binary refuses to exit 0 over.
    pub fn failed(&self) -> Vec<&CellResult> {
        self.cells
            .iter()
            .filter(|c| c.status == CellStatus::Failed)
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
            if c.status == CellStatus::Ok {
                "ok ✓".to_string()
            } else {
                c.status.key().to_string()
            },
            c.rounds,
            c.machine.machine_rounds,
            c.messages,
            c.words,
            c.machine.remote_words,
            c.machine.local_words,
            c.utilization.peak_util_milli,
            c.utilization.headroom_milli,
            c.error.as_deref().unwrap_or("—"),
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
            c.status.key(),
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

/// Folds one run (its engine already dropped) into its cell: a checked
/// answer is `ok`, a rejected one `failed` with kind `wrong-answer`, and
/// a [`CoreError`] a typed `model-reject` (or `failed` `sketch-exhausted`).
fn classify(
    spec: &ModelSpec,
    algorithm: &str,
    outcome: Result<Result<(), String>, CoreError>,
    cost: Cost,
    fold: LedgerTracer,
    nanos: u64,
) -> CellResult {
    let lens = fold
        .finish()
        .expect("an engine's batches stay inside its clique");
    let (status, error, detail) = match outcome {
        Ok(Ok(())) => (CellStatus::Ok, None, None),
        Ok(Err(why)) => (CellStatus::Failed, Some("wrong-answer"), Some(why)),
        Err(e) => {
            let (status, kind) = match &e {
                CoreError::Net(net) => (CellStatus::ModelReject, net.kind()),
                CoreError::SketchExhausted { .. } => (CellStatus::Failed, "sketch-exhausted"),
            };
            (status, Some(kind), Some(e.to_string()))
        }
    };
    CellResult {
        spec: *spec,
        algorithm: algorithm.to_string(),
        status,
        error: error.map(str::to_string),
        detail,
        validated: status == CellStatus::Ok,
        rounds: cost.rounds,
        messages: cost.messages,
        words: cost.words,
        machine: lens.machine_stats(),
        utilization: lens.report(),
        nanos,
    }
}

/// Runs one `CliqueNet`-based workload in one cell and classifies what
/// `run` returns: its run error, or its answer's check verdict.
fn net_cell<F>(n: usize, seed: u64, spec: &ModelSpec, algorithm: &str, run: F) -> CellResult
where
    F: FnOnce(&mut Net) -> Result<Result<(), String>, CoreError>,
{
    let cfg = NetConfig::from_model(n, spec)
        .expect("grid cells are pre-validated")
        .with_seed(seed)
        .with_round_cap(GRID_ROUND_CAP);
    let fold = LedgerTracer::new(n, spec).expect("grid cells are pre-validated");
    let mut net = Net::new(cfg);
    net.set_tracer(Box::new(fold.clone()));
    let t0 = Instant::now();
    let outcome = run(&mut net);
    let nanos = t0.elapsed().as_nanos() as u64;
    let cost = net.cost();
    drop(net);
    classify(spec, algorithm, outcome, cost, fold, nanos)
}

/// One catalog entry in one cell.
fn catalog_cell(n: usize, seed: u64, spec: &ModelSpec, entry: Entry) -> CellResult {
    net_cell(n, seed, spec, entry.id(), |net| {
        let answer = entry.run(net)?;
        Ok(entry.check(&answer))
    })
}

/// `gc-sketch` in one cell. Broadcast-only cells run the
/// label-propagation GC (the paper's footnote-1 algorithm) instead of
/// the catalog entry; its label output is completed with an
/// independently built spanning forest ([`connectivity::spanning_forest`])
/// so `validate_gc` pins the labels to the true components.
fn gc_cell(n: usize, seed: u64, g: &Graph, spec: &ModelSpec) -> CellResult {
    if spec.allows_unicast() {
        return catalog_cell(n, seed, spec, Entry::GcSketch(g));
    }
    net_cell(n, seed, spec, "gc-sketch", |net| {
        let run = broadcast_gc(net, g)?;
        let out = GcOutput {
            connected: run.connected,
            component_count: run.component_count,
            labels: run.labels,
            spanning_forest: connectivity::spanning_forest(g)
                .into_iter()
                .map(|(u, v)| Edge::new(u, v))
                .collect(),
        };
        Ok(validate_gc(g, &out))
    })
}

fn rt_cell(n: usize, seed: u64, g: &Graph, spec: &ModelSpec) -> CellResult {
    let adj = g.adjacency_lists();
    let truth = connectivity::component_labels(g);
    let cfg = NetConfig::kt1(n)
        .with_seed(seed)
        .with_round_cap(GRID_ROUND_CAP)
        .with_model(spec);
    let mut rt = Runtime::serial(cfg);
    let fold = LedgerTracer::new(n, spec).expect("grid cells are pre-validated");
    rt.set_tracer(Box::new(fold.clone()));
    let t0 = Instant::now();
    let result = run_connectivity(&mut rt, &adj, None, GRID_ROUND_CAP);
    let nanos = t0.elapsed().as_nanos() as u64;
    let cost = rt.cost();
    drop(rt);
    let outcome = result.map(|out| {
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
    });
    classify(spec, "rt-conn", outcome, cost, fold, nanos)
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

    let mut artifact = GridArtifact::new(n, cfg.seed);
    for spec in cfg.cells() {
        artifact.cells.push(gc_cell(n, cfg.seed, &g, &spec));
        // EXACT-MST is a unicast protocol: in broadcast-only cells its
        // first point-to-point send is the typed rejection the grid
        // documents (there is no broadcast-only MST in the paper).
        artifact
            .cells
            .push(catalog_cell(n, cfg.seed, &spec, Entry::ExactMst(&wg)));
        artifact.cells.push(rt_cell(n, cfg.seed, &g, &spec));
    }
    artifact
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_lens::CommLedger;
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
            assert_eq!(c.status, CellStatus::Ok, "{}: {:?}", c.cell_key(), c.error);
            assert!(c.validated);
        }
        // EXACT-MST must be *typed-rejected* in every bc cell: the model
        // names the round and link of the first illegal unicast.
        for c in art
            .cells
            .iter()
            .filter(|c| c.algorithm == "exact-mst" && !c.spec.allows_unicast())
        {
            assert_eq!(c.status, CellStatus::ModelReject, "{}", c.cell_key());
            assert_eq!(c.error.as_deref(), Some("unicast-in-broadcast"));
            assert!(
                c.detail.as_deref().unwrap_or("").contains("round"),
                "rejection names the round: {:?}",
                c.detail
            );
        }
        // At full bandwidth in the unicast model everything succeeds.
        for c in art
            .cells
            .iter()
            .filter(|c| c.spec.bandwidth_words_per_link == 8 && c.spec.allows_unicast())
        {
            assert_eq!(c.status, CellStatus::Ok, "{}/{}", c.cell_key(), c.algorithm);
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
                assert_eq!(c.status, first.status, "{key:?}");
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
            if c.status == CellStatus::Ok {
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
            .filter(|c| c.status == CellStatus::Ok)
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
    fn v1_documents_are_rejected_with_a_schema_error() {
        let mut art = small_grid();
        art.schema_version = 1;
        let err = GridArtifact::from_json_str(&art.to_json_string()).unwrap_err();
        assert!(err.contains("schema_version 1 not supported"), "{err}");
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
    fn artifact_round_trips_through_json() {
        let art = small_grid();
        let text = art.to_json_string();
        let back = GridArtifact::from_json_str(&text).expect("parse");
        assert_eq!(back, art);
        back.validate().expect("parsed artifact validates");
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
