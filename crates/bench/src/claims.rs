//! Machine-checked claims: every paper claim EXPERIMENTS.md reports gets a
//! programmatic verdict from the (quick-sweep) experiment tables, so
//! `verify-claims` can print a one-screen PASS/FAIL checklist and CI can
//! gate on it. The verdicts are stored as one [`claims_table`], and the
//! checklist is rendered from that table.

use crate::experiments;
use crate::table::Table;

/// A checked claim.
#[derive(Clone, Debug)]
pub struct ClaimResult {
    /// Paper reference ("Thm 4", "Lemma 6", …).
    pub claim: String,
    /// What was checked, in one sentence.
    pub check: String,
    /// Did it hold?
    pub pass: bool,
}

fn claim(claim: &str, check: &str, pass: bool) -> ClaimResult {
    ClaimResult {
        claim: claim.to_string(),
        check: check.to_string(),
        pass,
    }
}

/// The verdicts as the artifact's `claims` table: claim, check, and
/// `PASS` or `FAIL`.
pub fn claims_table(results: &[ClaimResult]) -> Table {
    let mut t = Table::new(
        "claims",
        "machine-checked paper claims",
        &["claim", "check", "verdict"],
    );
    for c in results {
        let verdict = if c.pass { "PASS" } else { "FAIL" };
        t.push_row(vec![c.claim.clone(), c.check.clone(), verdict.into()]);
    }
    t
}

/// Renders a [`claims_table`] as the checklist `verify_claims` prints
/// (the `docs/claims_checklist.txt` format).
pub fn render_checklist_txt(quick: bool, claims: &Table) -> String {
    let mode = if quick { "quick" } else { "full" };
    let mut out = format!("reproduction checklist ({mode} sweeps):\n\n");
    for row in &claims.rows {
        out.push_str(&format!("[{}] {:<28} {}\n", row[2], row[0], row[1]));
    }
    let held = claims.rows.iter().filter(|row| row[2] == "PASS").count();
    out.push_str(&format!("\n{held}/{} claims hold\n", claims.rows.len()));
    out
}

/// Runs the quick experiment suite and evaluates every claim.
pub fn verify_all(quick: bool) -> Vec<ClaimResult> {
    verify_all_with_tables(quick).0
}

/// Like [`verify_all`], but also returns the experiment tables the
/// verdicts were computed from — the `--emit-json` artifact records both,
/// so the checklist and the tables in one artifact are always from the
/// same runs.
pub fn verify_all_with_tables(quick: bool) -> (Vec<ClaimResult>, Vec<Table>) {
    let mut out = Vec::new();
    let mut tables: Vec<Table> = Vec::new();

    // Theorem 4 / E1: sub-logarithmic round growth.
    let e1: Table = experiments::time::e1_gc_rounds(quick);
    let rounds = e1.column_f64("gc_rounds");
    let growth_ok = rounds.windows(2).all(|w| w[1] <= w[0] * 1.6 + 4.0);
    out.push(claim(
        "Thm 4 (E1)",
        "GC rounds grow ≪ log n (each doubling of n adds at most a phase)",
        growth_ok,
    ));
    tables.push(e1);

    // Theorem 7 / E2: both MST paths agree; defaults stay flat-ish.
    let e2 = experiments::time::e2_mst_rounds(quick);
    let d = e2.column_f64("rounds_default");
    out.push(claim(
        "Thm 7 (E2)",
        "EXACT-MST default rounds stay near-flat over the n sweep",
        d.last().unwrap() <= &(d.first().unwrap() * 2.0),
    ));
    tables.push(e2);

    // Theorem 1 / E3: sampler success ≥ 95% everywhere.
    let e3 = experiments::sketching::e3_sketch(quick);
    out.push(claim(
        "Thm 1 (E3)",
        "ℓ0 sampler success rate ≥ 0.95 on planted cuts at every n",
        e3.column_f64("success_rate").iter().all(|&r| r >= 0.95),
    ));
    tables.push(e3);

    // Lemma 3 / E4: counts decay with phases; paper default collapses.
    let e4 = experiments::sketching::e4_reduce_components(quick);
    let decays = e4.rows.iter().all(|row| {
        let k0: f64 = row[1].parse().unwrap();
        let k1: f64 = row[2].parse().unwrap();
        let kp: f64 = row[4].parse().unwrap();
        k1 <= k0 && kp <= k1
    });
    out.push(claim(
        "Lemma 3 (E4)",
        "unfinished components decay doubly-exponentially in the phase count",
        decays,
    ));
    tables.push(e4);

    // Lemma 6 / E5: light/bound ratio ≤ 3 (w.h.p. slack).
    let e5 = experiments::sketching::e5_kkt(quick);
    out.push(claim(
        "Lemma 6 (E5)",
        "F-light count stays within 3× of the n/p bound",
        e5.column_f64("light/bound").iter().all(|&r| r <= 3.0),
    ));
    tables.push(e5);

    // Theorems 8–9 / E6: squares ≥ m/6 and the star profile is fooled.
    let e6 = experiments::messages::e6_kt0(quick);
    let e6_ok = e6.rows.iter().all(|row| {
        let squares: f64 = row[2].parse().unwrap();
        let bound: f64 = row[3].parse().unwrap();
        squares >= bound && row[4] == "true"
    });
    out.push(claim(
        "Thms 8–9 (E6)",
        "Ω(m) edge-disjoint squares exist and sub-quadratic profiles are fooled",
        e6_ok,
    ));
    tables.push(e6);

    // Theorem 10 / E7: every partition crossed.
    let e7 = experiments::messages::e7_kt1_family(quick);
    out.push(claim(
        "Thm 10 (E7)",
        "a correct GC(u0,v0) protocol crosses all i partitions across G_{i,0} / G_{i,i+1}",
        e7.rows.iter().all(|row| row[4] == row[5]),
    ));
    tables.push(e7);

    // Theorem 13 / E8: messages ≤ n·log⁵n.
    let e8 = experiments::messages::e8_kt1_mst(quick);
    let msgs = e8.column_f64("kt1_messages");
    let bounds = e8.column_f64("n log^5 n");
    out.push(claim(
        "Thm 13 (E8)",
        "KT1 MST messages stay below n·log⁵n (constant < 1)",
        msgs.iter().zip(&bounds).all(|(m, b)| m <= b),
    ));
    tables.push(e8);

    // Thms 4/7 furthermore / E9: monotone round collapse with bandwidth.
    let e9 = experiments::time::e9_bandwidth_ablation(quick);
    let p2 = e9.column_f64("gc_phase2_rounds");
    out.push(claim(
        "Thms 4/7 furthermore (E9)",
        "GC sketch-phase rounds collapse ≥ 10× from log n to log⁵ n bandwidth",
        p2.first().unwrap() >= &(p2.last().unwrap() * 10.0),
    ));
    tables.push(e9);

    // Section 4 / E11: exactly 2(n−1) messages, rounds > 2^n.
    let e11 = experiments::messages::e11_time_encoding(quick);
    let e11_ok = e11.rows.iter().all(|row| {
        row[1] == row[2] && row[3].parse::<f64>().unwrap() > row[4].parse::<f64>().unwrap()
    });
    out.push(claim(
        "Sec. 4 time encoding (E11)",
        "2(n−1) messages exactly; rounds exceed 2^n",
        e11_ok,
    ));
    tables.push(e11);

    // Figure 1 / F1: component progression 1 / 2 / i+1.
    let f1 = experiments::extensions::f1_figure1(quick);
    let rows = &f1.rows;
    let f1_ok = rows.first().is_some_and(|r| r[4] == "1")
        && rows[1..rows.len() - 1].iter().all(|r| r[4] == "2")
        && rows
            .last()
            .is_some_and(|r| r[4] == (rows.len() - 1).to_string());
    out.push(claim(
        "Figure 1 (F1)",
        "G_{i,j} components are 1 / 2 / i+1 as j sweeps 0..=i+1",
        f1_ok,
    ));
    tables.push(f1);

    (out, tables)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checklist_renders_from_the_claims_table() {
        let table = claims_table(&[
            claim("Thm 4 (E1)", "demo", true),
            claim("Thm 7 (E2)", "other", false),
        ]);
        assert_eq!(table.headers, ["claim", "check", "verdict"]);
        assert_eq!(
            render_checklist_txt(true, &table),
            "reproduction checklist (quick sweeps):\n\n\
             [PASS] Thm 4 (E1)                   demo\n\
             [FAIL] Thm 7 (E2)                   other\n\
             \n1/2 claims hold\n"
        );
        assert!(render_checklist_txt(false, &table)
            .starts_with("reproduction checklist (full sweeps):"));
    }

    #[test]
    fn all_claims_pass_quick() {
        let results = verify_all(true);
        assert!(results.len() >= 10);
        for r in &results {
            assert!(r.pass, "claim failed: {} — {}", r.claim, r.check);
        }
    }
}
