//! Cold-start active learning: watch the classifiers improve as the crowd
//! verifies batches (the dynamics behind Figures 8 and 9).
//!
//! ```text
//! cargo run --release --example active_learning
//! ```
//!
//! Compares ILP claim ordering (uncertainty-driven) against document order
//! on the same corpus and prints both learning curves side by side.

use scrutinizer::core::{OrderingStrategy, SystemConfig};
use scrutinizer::corpus::{Corpus, CorpusConfig};
use scrutinizer::crowd::{Panel, WorkerConfig};
use scrutinizer::engine::experiments::report::run_report;

fn learning_curve(corpus: &Corpus, strategy: OrderingStrategy) -> Vec<(usize, f64)> {
    let mut panel = Panel::new(3, WorkerConfig::default(), 7);
    let report = run_report(corpus, SystemConfig::default(), &mut panel, strategy);
    report
        .accuracy_trace
        .iter()
        .map(|(n, accs)| (*n, accs.iter().sum::<f64>() / 4.0))
        .collect()
}

fn main() {
    let mut config = CorpusConfig::small();
    config.n_claims = 150;
    let corpus = Corpus::generate(config);
    println!(
        "cold start on {} claims — no initial training data\n",
        corpus.claims.len()
    );

    let ordered = learning_curve(&corpus, OrderingStrategy::Ilp);
    let sequential = learning_curve(&corpus, OrderingStrategy::Sequential);

    println!(
        "{:>10} | {:>12} | {:>12}",
        "#verified", "Scrutinizer", "Sequential"
    );
    println!("{}", "-".repeat(42));
    for (i, (n, acc)) in ordered.iter().enumerate() {
        let seq = sequential.get(i).map(|(_, a)| *a).unwrap_or(f64::NAN);
        println!(
            "{n:>10} | {acc:>11.1}% | {seq:>11.1}%",
            acc = 100.0 * acc,
            seq = 100.0 * seq
        );
    }

    let best_ordered = ordered.iter().map(|(_, a)| *a).fold(0.0, f64::max);
    let best_seq = sequential.iter().map(|(_, a)| *a).fold(0.0, f64::max);
    println!(
        "\npeak average accuracy — Scrutinizer: {:.1}%, Sequential: {:.1}%",
        100.0 * best_ordered,
        100.0 * best_seq
    );
    println!("(the paper's Figure 8 shows the same dominance pattern over most of the run)");
}
