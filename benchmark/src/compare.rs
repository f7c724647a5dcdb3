//! `compare A B`: two result files, or two directories of them, metric
//! by metric and workload by workload. This is what the A/A criterion
//! runs, and what a later change runs against its parent.

use crate::result::RunFile;
use crate::spec::{self, Better, Bound, Metric};
use crate::stats;
use std::path::Path;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The run-to-run spread is wider than the bound, and the sets
    /// overlap: no verdict either way.
    Unresolved,
    /// A per-layer metric: reported, never gated.
    Info,
}

impl Verdict {
    fn tag(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Info => "-",
        }
    }
}

/// Every result file under `path`: the file itself, or each `*.json` of
/// a directory that parses as one.
pub fn load_set(path: &Path) -> Result<Vec<RunFile>, String> {
    if !path.is_dir() {
        return Ok(vec![RunFile::read(path)?]);
    }
    let mut files: Vec<_> = std::fs::read_dir(path)
        .map_err(|e| format!("{}: {e}", path.display()))?
        .filter_map(|entry| Some(entry.ok()?.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    let set: Vec<RunFile> = files.iter().filter_map(|p| RunFile::read(p).ok()).collect();
    if set.is_empty() {
        return Err(format!("{}: no result files", path.display()));
    }
    Ok(set)
}

/// The values one metric took on one workload across a set of runs.
fn values(set: &[RunFile], workload: &str, metric: &str) -> Vec<f64> {
    set.iter()
        .flat_map(|f| &f.workloads)
        .filter(|w| w.name == workload)
        .filter_map(|w| w.metrics.get(metric).copied())
        .collect()
}

/// How much worse `new` is than `base`, as a share of `base`.
fn worse_by(better: Better, base: f64, new: f64) -> f64 {
    let change = (new - base) / base.abs().max(f64::MIN_POSITIVE);
    match better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

pub fn verdict(metric: &Metric, base: &[f64], new: &[f64]) -> Verdict {
    let pass = |ok: bool| if ok { Verdict::Ok } else { Verdict::Regressed };
    match metric.bound {
        Bound::None => Verdict::Info,
        Bound::Exact => pass(base.iter().chain(new).all(|&v| v == base[0])),
        Bound::Zero => pass(new.iter().all(|&v| v == 0.0)),
        Bound::Share(bound) => {
            if stats::spread(base) > bound || stats::spread(new) > bound {
                let all_better = new
                    .iter()
                    .all(|&n| base.iter().all(|&b| worse_by(metric.better, b, n) < 0.0));
                return if all_better {
                    Verdict::Ok
                } else {
                    Verdict::Unresolved
                };
            }
            pass(worse_by(metric.better, stats::median(base), stats::median(new)) <= bound)
        }
    }
}

/// Prints one row per (metric, workload) and returns whether any row
/// regressed.
pub fn compare(base: &[RunFile], new: &[RunFile]) -> bool {
    println!(
        "{:<14} {:<30} {:>14} {:>14} {:>9} {:>11}  verdict",
        "workload", "metric", "base median", "new median", "new/base", "bound"
    );
    let mut regressed = false;
    for w in &base[0].workloads {
        for name in w.metrics.keys() {
            let Some(metric) = spec::metric(name) else {
                continue;
            };
            let (a, b) = (values(base, &w.name, name), values(new, &w.name, name));
            if a.is_empty() || b.is_empty() {
                continue;
            }
            let v = verdict(metric, &a, &b);
            regressed |= v == Verdict::Regressed;
            let (ma, mb) = (stats::median(&a), stats::median(&b));
            let ratio = if ma == 0.0 {
                "-".to_string()
            } else {
                format!("{:.4}", mb / ma)
            };
            println!(
                "{:<14} {:<30} {:>14.4} {:>14.4} {:>9} {:>11}  {}",
                w.name,
                name,
                ma,
                mb,
                ratio,
                metric.bound.describe(),
                v.tag()
            );
        }
    }
    regressed
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str) -> &'static Metric {
        spec::metric(name).unwrap()
    }

    /// Three steady runs around `centre`.
    fn around(centre: f64) -> [f64; 3] {
        [centre, centre * 1.01, centre * 0.99]
    }

    #[test]
    fn bounded_metrics_regress_only_past_their_bound() {
        let p50 = metric("op_p50_ms"); // lower is better
        let Bound::Share(bound) = p50.bound else {
            panic!("op_p50_ms carries a relative bound");
        };
        let (inside, outside) = (100.0 * (1.0 + bound - 0.02), 100.0 * (1.0 + bound + 0.02));
        assert_eq!(verdict(p50, &around(100.0), &around(inside)), Verdict::Ok);
        assert_eq!(
            verdict(p50, &around(100.0), &around(outside)),
            Verdict::Regressed
        );
        assert_eq!(verdict(p50, &around(100.0), &around(50.0)), Verdict::Ok);
        let rate = metric("ops_per_s"); // higher is better, same bound
        assert_eq!(
            verdict(rate, &around(100.0), &around(200.0 - outside)),
            Verdict::Regressed
        );
        assert_eq!(verdict(rate, &around(100.0), &around(outside)), Verdict::Ok);
        // A single run per side has no spread to speak of.
        assert_eq!(verdict(p50, &[100.0], &[inside]), Verdict::Ok);
        assert_eq!(verdict(p50, &[100.0], &[outside]), Verdict::Regressed);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_wins() {
        let p50 = metric("op_p50_ms");
        let noisy = [100.0, 160.0, 40.0];
        assert_eq!(verdict(p50, &noisy, &around(100.0)), Verdict::Unresolved);
        assert_eq!(verdict(p50, &noisy, &around(30.0)), Verdict::Ok);
    }

    #[test]
    fn counts_must_repeat_and_failures_must_be_zero() {
        let sim = metric("sim_messages_per_op");
        assert_eq!(verdict(sim, &[7.0, 7.0], &[7.0]), Verdict::Ok);
        assert_eq!(verdict(sim, &[7.0, 7.0], &[7.0, 7.5]), Verdict::Regressed);
        assert_eq!(
            verdict(metric("sketch.fingerprint"), &[1.0], &[2.0]),
            Verdict::Regressed
        );
        let fails = metric("fail_share");
        assert_eq!(verdict(fails, &[0.0], &[0.0]), Verdict::Ok);
        assert_eq!(verdict(fails, &[0.0], &[0.01]), Verdict::Regressed);
        assert_eq!(
            verdict(metric("route.a2a_ms"), &[1.0], &[9.0]),
            Verdict::Info
        );
    }
}
