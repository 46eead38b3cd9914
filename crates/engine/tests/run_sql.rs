//! The raw-SQL boundary: spellings of one statement that differ only in
//! whitespace, keyword case or a trailing `;` evaluate to one value, and
//! a bad statement fails, says why, and does not poison later ones.

use scrutinizer_core::SystemConfig;
use scrutinizer_corpus::{Corpus, CorpusConfig};
use scrutinizer_engine::engine::{Engine, EngineOptions};

#[test]
fn statement_spellings_evaluate_alike() {
    let corpus = Corpus::generate(CorpusConfig::small());
    // grab a real cell so the query evaluates
    let claim = &corpus.claims[0];
    let lookup = &claim.lookups[0];
    let spellings = [
        format!(
            "SELECT a.{} FROM {} a WHERE a.Index = '{}'",
            lookup.attribute, lookup.relation, lookup.key
        ),
        format!(
            "select   a.{}  from {} a  where a.Index = '{}' ;",
            lookup.attribute, lookup.relation, lookup.key
        ),
        format!(
            "SELECT a.{} FROM {} a WHERE a.Index = '{}';",
            lookup.attribute, lookup.relation, lookup.key
        ),
    ];
    let unknown = format!(
        "SELECT a.{} FROM NoSuchRelation a WHERE a.Index = '{}'",
        lookup.attribute, lookup.key
    );
    let engine = Engine::new(
        corpus,
        SystemConfig::test(),
        EngineOptions {
            retrain_interval: None,
            ..EngineOptions::default()
        },
    );
    let mut values = Vec::new();
    for sql in &spellings {
        values.push(engine.run_sql(sql).expect("valid statement evaluates"));
    }
    assert!(values.windows(2).all(|w| w[0] == w[1]));
    assert_eq!(engine.stats().sql_executed.get(), 3);

    // a failure never poisons a later statement
    assert!(engine.run_sql("SELECT nope").is_err());
    assert!(engine.run_sql("SELECT nope ;").is_err());
    assert_eq!(engine.run_sql(&spellings[0]).unwrap(), values[0]);

    // and it says why: the query error travels with the statement
    let message = engine.run_sql(&unknown).unwrap_err().to_string();
    assert!(
        message.contains("unknown table `NoSuchRelation`"),
        "sql error lost its reason: {message}"
    );
}
