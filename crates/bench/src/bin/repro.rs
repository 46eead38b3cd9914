//! Regenerates every table and figure of the paper's evaluation (§6).
//!
//! ```text
//! repro table1|fig5|fig6|table2|fig7|fig8|fig9|fig10|table3|all [--scale small|medium|paper]
//! ```
//!
//! Prints the same rows/series the paper reports, side by side with the
//! paper's published numbers where available. Absolute values differ (our
//! substrate is a simulator over a synthetic corpus; see DESIGN.md §3) —
//! the shape is what must hold.

use scrutinizer_core::sim::topk::run_topk;
use scrutinizer_core::SystemConfig;
use scrutinizer_corpus::distributions::{percentiles, TABLE1_POINTS};
use scrutinizer_corpus::{ClaimKind, Corpus, CorpusConfig};
use scrutinizer_data::hash::FxHashMap;
use scrutinizer_engine::experiments::report::{run_report_simulation, ReportSimulation};
use scrutinizer_engine::experiments::user_study::{run_user_study, StudyConfig};
use std::env;

fn corpus_config(scale: &str) -> CorpusConfig {
    match scale {
        "small" => CorpusConfig::small(),
        "medium" => CorpusConfig {
            n_claims: 400,
            n_sentences: 2000,
            n_relations: 300,
            n_keys: 200,
            n_attributes: 60,
            n_formulas: 100,
            n_sections: 16,
            ..CorpusConfig::paper_scale()
        },
        _ => CorpusConfig::paper_scale(),
    }
}

fn main() {
    let args: Vec<String> = env::args().skip(1).collect();
    let what = args.first().map(String::as_str).unwrap_or("all");
    let scale = args
        .iter()
        .position(|a| a == "--scale")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or(if matches!(what, "table2" | "fig7" | "fig8" | "fig9") {
            "medium"
        } else {
            "paper"
        })
        .to_string();

    match what {
        "table1" => table1(&scale),
        "fig5" => fig5(&scale),
        "fig6" => fig6(&scale),
        "table2" => {
            let sim = simulate(&scale);
            table2(&sim);
        }
        "fig7" => {
            let sim = simulate(&scale);
            fig7(&sim);
        }
        "fig8" => {
            let sim = simulate(&scale);
            fig8(&sim);
        }
        "fig9" => {
            let sim = simulate(&scale);
            fig9(&sim);
        }
        "fig10" => fig10(&scale),
        "table3" => table3(),
        "all" => {
            table1(&scale);
            fig5(&scale);
            fig6(&scale);
            let sim = simulate(if scale == "paper" { "paper" } else { "medium" });
            table2(&sim);
            fig7(&sim);
            fig8(&sim);
            fig9(&sim);
            fig10(&scale);
            table3();
        }
        other => {
            eprintln!("unknown target `{other}`");
            eprintln!("usage: repro table1|fig5|fig6|table2|fig7|fig8|fig9|fig10|table3|all [--scale small|medium|paper]");
            std::process::exit(2);
        }
    }
}

fn header(title: &str) {
    println!("\n==================================================================");
    println!("{title}");
    println!("==================================================================");
}

/// Table 1: percentiles of property value frequencies.
fn table1(scale: &str) {
    header(&format!(
        "Table 1 — Percentiles of property value frequencies ({scale} scale)"
    ));
    let corpus = Corpus::generate(corpus_config(scale));
    let mut rel: FxHashMap<&str, usize> = FxHashMap::default();
    let mut key: FxHashMap<&str, usize> = FxHashMap::default();
    let mut attr: FxHashMap<&str, usize> = FxHashMap::default();
    let mut form: FxHashMap<&str, usize> = FxHashMap::default();
    for c in &corpus.claims {
        *rel.entry(c.relation.as_str()).or_default() += 1;
        *key.entry(c.key.as_str()).or_default() += 1;
        for a in &c.attributes {
            *attr.entry(a.as_str()).or_default() += 1;
        }
        *form.entry(c.formula_text.as_str()).or_default() += 1;
    }
    println!(
        "corpus: {} claims ({} explicit), {} relations, {} keys, {} attributes, {} formulas",
        corpus.claims.len(),
        corpus
            .claims
            .iter()
            .filter(|c| c.kind == ClaimKind::Explicit)
            .count(),
        corpus.catalog.len(),
        corpus.catalog.all_keys().len(),
        corpus.catalog.all_attributes().len(),
        corpus.formulas.len()
    );
    println!(
        "\n{:<14}{:>6}{:>6}{:>6}{:>8}{:>8}",
        "Percentiles", "10%", "25%", "50%", "95%", "99%"
    );
    let paper: [(&str, [usize; 5]); 4] = [
        ("Relation", [2, 4, 10, 199, 532]),
        ("Primary Key", [2, 2, 4, 39, 107]),
        ("Attribute", [1, 2, 7, 127, 1400]),
        ("Formula", [1, 1, 1, 8, 55]),
    ];
    let maps: [&FxHashMap<&str, usize>; 4] = [&rel, &key, &attr, &form];
    let mut checks = Vec::with_capacity(paper.len());
    for ((name, published), map) in paper.iter().zip(maps) {
        let freqs: Vec<usize> = map.values().copied().collect();
        let p = percentiles(&freqs, &TABLE1_POINTS);
        // TABLE1_POINTS are 10/25/50/95/99: compare the median and the tail
        checks.push((
            *name,
            compare_percentile(p[2], published[2]),
            compare_percentile(p[3], published[3]),
        ));
        println!(
            "{:<14}{:>6}{:>6}{:>6}{:>8}{:>8}   (measured, {} distinct values)",
            name,
            p[0],
            p[1],
            p[2],
            p[3],
            p[4],
            map.len()
        );
        println!(
            "{:<14}{:>6}{:>6}{:>6}{:>8}{:>8}   (paper)",
            "", published[0], published[1], published[2], published[3], published[4]
        );
    }
    println!("\nshape check: measured p50 and p95 against the paper's, within {TABLE1_FACTOR}×");
    let mut matching = 0;
    for (name, (p50_ok, p50), (p95_ok, p95)) in &checks {
        let verdict = if *p50_ok && *p95_ok {
            matching += 1;
            "within"
        } else {
            "off"
        };
        println!("{name:<14}p50 {p50}; p95 {p95}   → {verdict}");
    }
    println!(
        "{matching} of {} properties within {TABLE1_FACTOR}× of the paper at both p50 and p95.",
        checks.len()
    );
}

/// Factor within which a measured Table 1 percentile counts as matching
/// the published one.
const TABLE1_FACTOR: f64 = 2.0;

/// Compares a measured percentile with the published one: whether it is
/// within [`TABLE1_FACTOR`] either way, and a line saying so or saying by
/// how much it is off.
fn compare_percentile(measured: usize, published: usize) -> (bool, String) {
    let ratio = measured as f64 / published as f64;
    let off = ratio.max(1.0 / ratio);
    if off <= TABLE1_FACTOR {
        (true, format!("{measured} vs {published} (within)"))
    } else {
        let side = if ratio < 1.0 { "low" } else { "high" };
        (
            false,
            format!("{measured} vs {published} ({off:.1}× too {side})"),
        )
    }
}

fn study_corpus(scale: &str) -> Corpus {
    // user study: 25% injected errors (§6.1)
    let mut cfg = corpus_config(scale);
    cfg.error_rate = 0.25;
    if cfg.n_claims < 200 {
        cfg.n_claims = 200;
    }
    Corpus::generate(cfg)
}

/// Figure 5: claims verified in 20 minutes per checker.
fn fig5(scale: &str) {
    header("Figure 5 — Claims verified in 20 minutes per checker");
    let corpus = study_corpus(scale);
    let study = run_user_study(&corpus, SystemConfig::default(), StudyConfig::default());
    println!(
        "{:<6}{:>9}{:>11}{:>9}{:>8}",
        "", "Correct", "Incorrect", "Skipped", "Total"
    );
    let mut manual_total = 0.0;
    let mut system_total = 0.0;
    for c in &study.checkers {
        let total = c.correct + c.incorrect;
        println!(
            "{:<6}{:>9}{:>11}{:>9}{:>8}",
            c.name, c.correct, c.incorrect, c.skipped, total
        );
        if c.name.starts_with('M') {
            manual_total += total as f64 / 3.0;
        } else {
            system_total += total as f64 / 4.0;
        }
    }
    println!("\nmean claims / 20 min — Manual: {manual_total:.1}   System: {system_total:.1}");
    println!(
        "paper:                 Manual: 7      System: 23  (speedup ≈ 3.3×; ours {:.1}×)",
        system_total / manual_total.max(1e-9)
    );
}

/// Figure 6: verification time vs claim complexity.
fn fig6(scale: &str) {
    header("Figure 6 — Mean verification time (s) by claim complexity");
    let corpus = study_corpus(scale);
    let study = run_user_study(&corpus, SystemConfig::default(), StudyConfig::default());
    println!(
        "{:>11} | {:>16} | {:>16}",
        "complexity", "Manual mean±std", "System mean±std"
    );
    println!("{}", "-".repeat(52));
    let mut all: Vec<usize> = study
        .manual_by_complexity
        .iter()
        .map(|(c, ..)| *c)
        .chain(study.system_by_complexity.iter().map(|(c, ..)| *c))
        .collect();
    all.sort_unstable();
    all.dedup();
    for c in all {
        let m = study.manual_by_complexity.iter().find(|(k, ..)| *k == c);
        let s = study.system_by_complexity.iter().find(|(k, ..)| *k == c);
        let fmt = |x: Option<&(usize, f64, f64, usize)>| match x {
            Some((_, mean, std, _)) => format!("{mean:7.1} ± {std:5.1}"),
            None => "      —       ".to_string(),
        };
        println!("{c:>11} | {:>16} | {:>16}", fmt(m), fmt(s));
    }
    println!("\npaper shape: System under half of Manual at equal complexity; System at");
    println!("complexity 11 cheaper than Manual at 6.");
}

fn simulate(scale: &str) -> ReportSimulation {
    eprintln!("[simulating {scale}-scale report verification: Manual, Sequential, Scrutinizer…]");
    let corpus = Corpus::generate(corpus_config(scale));
    run_report_simulation(&corpus, SystemConfig::default())
}

/// Table 2: summary of simulation results.
fn table2(sim: &ReportSimulation) {
    header("Table 2 — Summary of simulation results");
    println!(
        "{:<16}{:>10}{:>12}{:>14}{:>14}{:>12}",
        "", "Weeks", "% Savings", "Avg Accuracy", "Max Accuracy", "Comp (min)"
    );
    for (i, run) in sim.runs.iter().enumerate() {
        println!(
            "{:<16}{:>10.2}{:>11.0}%{:>13.0}%{:>13.0}%{:>12.1}",
            run.name,
            run.weeks,
            100.0 * sim.savings_vs_manual(i),
            100.0 * run.avg_accuracy,
            100.0 * run.max_accuracy,
            run.computation_minutes
        );
    }
    println!("\npaper:           Weeks   %Sav   AvgAcc  MaxAcc  Comp");
    println!("  Manual          4.1      -       -       -      -");
    println!("  Sequential      2.1     49%     40%     46%    14");
    println!("  Scrutinizer     1.7     59%     47%     53%    28");
}

/// Figure 7: accumulated verification time.
fn fig7(sim: &ReportSimulation) {
    header("Figure 7 — Accumulated verification time (weeks) over verified claims");
    println!(
        "{:>9} | {:>9} | {:>11} | {:>12}",
        "#claims", "Manual", "Sequential", "Scrutinizer"
    );
    println!("{}", "-".repeat(50));
    let n = sim.runs[0].time_trace.len();
    let steps = 10usize.max(n / 10);
    let mut i = steps - 1;
    while i < n {
        let row: Vec<f64> = sim
            .runs
            .iter()
            .map(|r| {
                sim.calendar
                    .weeks(*r.time_trace.get(i).unwrap_or(&f64::NAN))
            })
            .collect();
        println!(
            "{:>9} | {:>9.2} | {:>11.2} | {:>12.2}",
            i + 1,
            row[0],
            row[1],
            row[2]
        );
        i += steps;
    }
    println!("\npaper shape: all three grow ~linearly; Scrutinizer flattest, Manual steepest,");
    println!("Scrutinizer and Sequential near-equivalent at the start, diverging later.");
}

/// Figure 8: average classifier accuracy evolution.
fn fig8(sim: &ReportSimulation) {
    header("Figure 8 — Average classifier accuracy over verified claims");
    println!(
        "{:>9} | {:>11} | {:>11}",
        "#claims", "Scrutinizer", "Sequential"
    );
    println!("{}", "-".repeat(38));
    let scrut = &sim.runs[2].accuracy_trace;
    let seq = &sim.runs[1].accuracy_trace;
    for (i, (n, acc)) in scrut.iter().enumerate() {
        let avg = acc.iter().sum::<f64>() / 4.0;
        let seq_avg = seq
            .get(i)
            .map(|(_, a)| a.iter().sum::<f64>() / 4.0)
            .unwrap_or(f64::NAN);
        println!(
            "{n:>9} | {:>10.1}% | {:>10.1}%",
            100.0 * avg,
            100.0 * seq_avg
        );
    }
    println!("\npaper shape: Scrutinizer dominates over most of the period (upfront");
    println!("uncertainty sampling), may dip at the very start and the very end.");
}

/// Figure 9: per-classifier accuracy evolution (Scrutinizer ordering).
fn fig9(sim: &ReportSimulation) {
    header("Figure 9 — Per-classifier accuracy over verified claims (Scrutinizer)");
    println!(
        "{:>9} | {:>9} | {:>9} | {:>9} | {:>9}",
        "#claims", "Relation", "RowIndex", "Attrib", "Formula"
    );
    println!("{}", "-".repeat(58));
    for (n, acc) in &sim.runs[2].accuracy_trace {
        println!(
            "{n:>9} | {:>8.1}% | {:>8.1}% | {:>8.1}% | {:>8.1}%",
            100.0 * acc[0],
            100.0 * acc[1],
            100.0 * acc[2],
            100.0 * acc[3]
        );
    }
    println!("\npaper shape: attributes easiest, row index hardest (largest label space,");
    println!("similar row structure across subsets); all rise then plateau/dip at the end.");
}

/// Figure 10: top-k accuracy per classifier.
fn fig10(scale: &str) {
    header(&format!(
        "Figure 10 — Top-k accuracy per classifier ({scale} scale)"
    ));
    let corpus = Corpus::generate(corpus_config(scale));
    let ks = [1usize, 5, 10, 15];
    let result = run_topk(&corpus, SystemConfig::default(), &ks, 99);
    println!(
        "{:>4} | {:>8} | {:>9} | {:>9} | {:>8} | {:>8}",
        "k", "Average", "Attribute", "Relations", "RowIdx", "Formula"
    );
    println!("{}", "-".repeat(62));
    for (i, k) in result.ks.iter().enumerate() {
        let row = result.per_classifier[i];
        println!(
            "{k:>4} | {:>7.1}% | {:>8.1}% | {:>8.1}% | {:>7.1}% | {:>7.1}%",
            100.0 * result.average[i],
            100.0 * row[2],
            100.0 * row[0],
            100.0 * row[1],
            100.0 * row[3]
        );
    }
    println!("\npaper shape: monotone in k, most of the potential reached by k = 10;");
    println!("attribute classifier strongest, row index weakest at k = 1.");
}

/// Table 3: qualitative system comparison (static properties).
fn table3() {
    header("Table 3 — Properties of the systems (qualitative, reprinted)");
    let rows = [
        ("Task", "check", "check", "check", "search"),
        ("", "n claims", "1 claim", "1 claim", "1 claim"),
        ("Claims", "general", "explicit", "explicit", "explicit"),
        (
            "Query",
            "SPA + 100s ops",
            "SPA + 9 ops",
            "SPA + 6 ops",
            "SP",
        ),
        ("User", "crowd", "single", "single", "single"),
        ("Dataset", "corpus", "single", "single", "corpus"),
    ];
    println!(
        "{:<10}{:>16}{:>16}{:>12}{:>14}",
        "", "Scrutinizer", "AggChecker[18]", "BriQ[16]", "StatSearch[4]"
    );
    for (label, a, b, c, d) in rows {
        println!("{label:<10}{a:>16}{b:>16}{c:>12}{d:>14}");
    }
    println!("\n(this row set is definitional — nothing to measure; our implementation");
    println!("realizes the Scrutinizer column: general claims, crowd, corpus, learned ops)");
}

#[cfg(test)]
mod tests {
    use super::compare_percentile;

    #[test]
    fn percentiles_within_the_factor_match_either_way() {
        assert!(compare_percentile(10, 10).0);
        assert!(compare_percentile(5, 10).0);
        assert!(compare_percentile(20, 10).0);
        assert_eq!(
            compare_percentile(1, 10),
            (false, "1 vs 10 (10.0× too low)".into())
        );
        assert_eq!(
            compare_percentile(41, 4),
            (false, "41 vs 4 (10.2× too high)".into())
        );
    }
}
