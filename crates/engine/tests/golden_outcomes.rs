//! Golden outcomes of Algorithm 1 on the engine, pinned bit for bit on
//! the small corpus: the report run (`run_report`, three checkers) under
//! Sequential, Greedy and Ilp with its time and accuracy traces,
//! the simulated user study at its test config, a frozen pretrained
//! engine's `verify_batch` over every claim, and the engine's first
//! `submit_report` batch for claims 0..40 under Sequential, Greedy and
//! Ilp (the production default).
//! Crowd seconds are kept as raw `f64` bits, so a changed RNG draw order
//! or summation order shows up here.
//!
//! After an intended behaviour change, regenerate the fixture with
//! `BLESS_GOLDEN=1 cargo test -p scrutinizer-engine --test golden_outcomes`
//! and review the diff.

use std::fmt::Write as _;
use std::sync::Arc;

use scrutinizer_core::report::{ClaimOutcome, Verdict};
use scrutinizer_core::{OrderingStrategy, SystemConfig};
use scrutinizer_corpus::{Corpus, CorpusConfig};
use scrutinizer_crowd::{Panel, WorkerConfig};
use scrutinizer_engine::engine::{Engine, EngineOptions};
use scrutinizer_engine::experiments::report::run_report;
use scrutinizer_engine::experiments::user_study::{run_user_study, StudyConfig};

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/algorithm1_outcomes.txt"
);

fn outcome_line(out: &mut String, o: &ClaimOutcome) {
    let variant = match o.verdict {
        Verdict::Correct { .. } => "correct",
        Verdict::Incorrect { .. } => "incorrect",
        Verdict::Skipped => "skipped",
    };
    let bits = o.crowd_seconds.to_bits();
    let matches = o.verdict_matches_truth;
    writeln!(out, "{} {variant} {matches} {bits:016x}", o.claim_id).unwrap();
}

fn report_run(out: &mut String, strategy: OrderingStrategy) {
    writeln!(out, "# run_report, {strategy:?}, Panel::new(3, default, 5)").unwrap();
    let corpus = Corpus::generate(CorpusConfig::small());
    let mut panel = Panel::new(3, WorkerConfig::default(), 5);
    let report = run_report(&corpus, SystemConfig::test(), &mut panel, strategy);
    report.outcomes.iter().for_each(|o| outcome_line(out, o));
    writeln!(out, "total {:016x}", report.total_crowd_seconds.to_bits()).unwrap();
    for seconds in &report.time_trace {
        writeln!(out, "time {:016x}", seconds.to_bits()).unwrap();
    }
    for (verified, accuracies) in &report.accuracy_trace {
        write!(out, "accuracy {verified}").unwrap();
        for a in accuracies {
            write!(out, " {:016x}", a.to_bits()).unwrap();
        }
        out.push('\n');
    }
}

fn user_study(out: &mut String) {
    out.push_str("# run_user_study, 400 claims, error rate 0.25, default study\n");
    let mut config = CorpusConfig::small();
    config.n_claims = 400;
    config.error_rate = 0.25;
    let study = run_user_study(
        &Corpus::generate(config),
        SystemConfig::test(),
        StudyConfig::default(),
    );
    for c in &study.checkers {
        let (name, correct, incorrect, skipped) = (&c.name, c.correct, c.incorrect, c.skipped);
        writeln!(
            out,
            "{name} correct={correct} incorrect={incorrect} skipped={skipped}"
        )
        .unwrap();
        for (complexity, seconds) in &c.times {
            writeln!(out, "  {complexity} {:016x}", seconds.to_bits()).unwrap();
        }
    }
}

fn frozen_engine(ordering: OrderingStrategy) -> Arc<Engine> {
    let options = EngineOptions {
        retrain_interval: None,
        ordering,
    };
    let corpus = Corpus::generate(CorpusConfig::small());
    let engine = Engine::new(corpus, SystemConfig::test(), options);
    engine.pretrain(None);
    engine
}

fn first_batch(out: &mut String, engine: &Engine, label: &str) {
    writeln!(out, "# first submit_report batch, claims 0..40, {label}").unwrap();
    let session = engine.open_session("golden");
    let claims: Vec<usize> = (0..40).collect();
    for q in engine.submit_report(session, &claims).unwrap() {
        write!(out, "{} {:016x}", q.claim_id, q.expected_cost.to_bits()).unwrap();
        for screen in &q.screens {
            write!(out, " {}:{}", screen.kind.name(), screen.options.join("|")).unwrap();
        }
        out.push('\n');
    }
    engine.close_session(session).unwrap();
}

#[test]
fn algorithm1_outcomes_match_the_golden_fixture() {
    let mut actual = String::new();
    for strategy in [
        OrderingStrategy::Sequential,
        OrderingStrategy::Greedy,
        OrderingStrategy::Ilp,
    ] {
        report_run(&mut actual, strategy);
    }
    user_study(&mut actual);
    let engine = frozen_engine(OrderingStrategy::Sequential);
    first_batch(&mut actual, &engine, "Sequential");
    first_batch(
        &mut actual,
        &frozen_engine(OrderingStrategy::Greedy),
        "Greedy",
    );
    first_batch(&mut actual, &frozen_engine(OrderingStrategy::Ilp), "Ilp");
    actual.push_str("# frozen engine verify_batch, every claim, default worker\n");
    let ids: Vec<usize> = (0..engine.corpus().claims.len()).collect();
    let outcomes = engine.verify_batch(&ids, WorkerConfig::default()).unwrap();
    outcomes.iter().for_each(|o| outcome_line(&mut actual, o));

    if std::env::var_os("BLESS_GOLDEN").is_some() {
        std::fs::write(FIXTURE, &actual).expect("fixture is writable");
        return;
    }
    let expected = std::fs::read_to_string(FIXTURE).expect("golden fixture exists");
    for (line, (want, got)) in expected.lines().zip(actual.lines()).enumerate() {
        assert_eq!(want, got, "fixture line {} differs", line + 1);
    }
    assert_eq!(expected.lines().count(), actual.lines().count());
}
