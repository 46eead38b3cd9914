//! Differential property tests for Algorithm 2: the prepared-skeleton
//! implementation must produce exactly the candidates of the
//! string-resolving baseline, over random catalogs and random contexts;
//! the final screen it builds from assignments must show exactly the rows
//! `FinalScreen::new` picks from the baseline's full SQL candidates — and
//! its candidate loop must never parse SQL.

use proptest::prelude::*;
use scrutinizer_core::screens::FinalScreen;
use scrutinizer_core::{
    generate_queries, generate_queries_unprepared, generate_survivors, SystemConfig,
};
use scrutinizer_data::{Catalog, TableBuilder};
use scrutinizer_formula::{parse_formula, Formula};
use scrutinizer_query::FunctionRegistry;

const KEYS: [&str; 3] = ["PGElecDemand", "CapAddTotal_Wind", "Sparse"];
const ATTRS: [&str; 3] = ["2000", "2017", "Total"];

/// The formula pool: arithmetic, growth (attribute variables), functions,
/// comparisons, an unknown function (dead skeleton that still consumes
/// budget), and an arity mismatch.
const FORMULAS: [&str; 8] = [
    "a / b",
    "a - b",
    "POWER(a / b, 1 / (A1 - A2)) - 1",
    "a + A1",
    "SUM(a, b) / 2",
    "a > 1",
    "NOPE(a)",
    "POWER(a)",
];

type TableSpec = Vec<(bool, Vec<Option<f64>>)>;

fn table_strategy() -> impl Strategy<Value = TableSpec> {
    prop::collection::vec(
        (
            prop_oneof![2 => Just(true), 1 => Just(false)],
            prop::collection::vec(
                prop_oneof![
                    1 => Just(None),
                    1 => Just(Some(0.0)),
                    4 => (1..40i32).prop_map(|n| Some(n as f64)),
                ],
                3..=3,
            ),
        ),
        3..=3,
    )
}

fn build_catalog(specs: &[(&str, &TableSpec)]) -> Catalog {
    let mut catalog = Catalog::new();
    for (name, spec) in specs {
        let mut builder = TableBuilder::new(name, "Index", &ATTRS);
        for (key, (present, cells)) in KEYS.iter().zip(spec.iter()) {
            if *present {
                builder = builder.row_opt(key, cells).expect("row fits schema");
            }
        }
        catalog.add(builder.build()).expect("unique table names");
    }
    catalog
}

fn subset(pool: &[&str]) -> impl Strategy<Value = Vec<String>> {
    let pool: Vec<String> = pool.iter().map(|s| s.to_string()).collect();
    prop::collection::vec(0..pool.len(), 1..=pool.len()).prop_map(move |indexes| {
        let mut out: Vec<String> = indexes.iter().map(|&i| pool[i].clone()).collect();
        out.dedup();
        out
    })
}

fn formula_set() -> impl Strategy<Value = Vec<(String, Formula)>> {
    prop::collection::vec(0..FORMULAS.len(), 1..=3).prop_map(|indexes| {
        indexes
            .iter()
            .map(|&i| {
                let text = FORMULAS[i].to_string();
                let formula = parse_formula(&text).expect("pool formulas parse");
                (text, formula)
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn prepared_candidates_match_string_path(
        t1 in table_strategy(),
        t2 in table_strategy(),
        relations in subset(&["GED", "GED_EU", "Missing"]),
        keys in subset(&["PGElecDemand", "CapAddTotal_Wind", "Sparse", "Nope"]),
        attributes in subset(&["2000", "2017", "Total", "1999"]),
        formulas in formula_set(),
        parameter in prop_oneof![
            Just(None),
            Just(Some(0.03)),
            Just(Some(2.0)),
            Just(Some(9.0)),
        ],
    ) {
        let catalog = build_catalog(&[("GED", &t1), ("GED_EU", &t2)]);
        let registry = FunctionRegistry::standard();
        let mut config = SystemConfig::test();
        config.max_assignments = 400; // keep the cross products quick
        let prepared = generate_queries(
            &catalog, &registry, &relations, &keys, &attributes, &formulas, parameter, &config,
        );
        let legacy = generate_queries_unprepared(
            &catalog, &registry, &relations, &keys, &attributes, &formulas, parameter, &config,
        );
        prop_assert_eq!(prepared.len(), legacy.len());
        for (a, b) in prepared.iter().zip(&legacy) {
            prop_assert_eq!(&a.stmt, &b.stmt);
            prop_assert_eq!(&a.formula_text, &b.formula_text);
            prop_assert_eq!(&a.lookups, &b.lookups);
            prop_assert_eq!(
                a.value.to_bits(),
                b.value.to_bits(),
                "values must be bit-identical: {} vs {}",
                a.value,
                b.value
            );
            prop_assert_eq!(a.matches_parameter, b.matches_parameter);
        }
    }
}

/// Classifier probabilities over the formula pool: ties, and formulas the
/// classifier does not list (probability 0).
fn formula_probabilities() -> impl Strategy<Value = Vec<(String, f32)>> {
    prop::collection::vec(
        prop_oneof![
            1 => Just(None),
            2 => prop_oneof![Just(0.5f32), Just(0.25), Just(0.1), Just(0.0)].prop_map(Some),
        ],
        FORMULAS.len()..=FORMULAS.len(),
    )
    .prop_map(|probabilities| {
        FORMULAS
            .iter()
            .zip(probabilities)
            .filter_map(|(text, p)| p.map(|p| (text.to_string(), p)))
            .collect()
    })
}

/// The screen path (survivors kept as assignments, only the shown rows
/// instantiated) against `FinalScreen::new` over the string path's
/// candidates: same rows in the same order, same SQL text, formula,
/// bindings, value bits, match flag and probability bits.
#[allow(clippy::too_many_arguments)] // Algorithm 2's inputs and the screen's
fn assert_screen_parity(
    catalog: &Catalog,
    relations: &[String],
    keys: &[String],
    attributes: &[String],
    formulas: &[(String, Formula)],
    parameter: Option<f64>,
    probabilities: &[(String, f32)],
    config: &SystemConfig,
) {
    let registry = FunctionRegistry::standard();
    let screen = generate_survivors(
        catalog, &registry, relations, keys, attributes, formulas, parameter, config,
    )
    .final_screen(probabilities, config.final_options);
    let oracle = FinalScreen::new(
        generate_queries_unprepared(
            catalog, &registry, relations, keys, attributes, formulas, parameter, config,
        ),
        probabilities,
        config.final_options,
    );
    let case = format!(
        "parameter {parameter:?}, budget {}, {} options",
        config.max_assignments, config.final_options
    );
    assert_eq!(screen.candidates.len(), oracle.candidates.len(), "{case}");
    for (a, b) in screen.candidates.iter().zip(&oracle.candidates) {
        assert_eq!(a.stmt.to_string(), b.stmt.to_string(), "{case}");
        assert_eq!(a.stmt, b.stmt, "{case}");
        assert_eq!(a.formula_text, b.formula_text, "{case}");
        assert_eq!(a.lookups, b.lookups, "{case}");
        assert_eq!(a.value.to_bits(), b.value.to_bits(), "{case}");
        assert_eq!(a.matches_parameter, b.matches_parameter, "{case}");
    }
    let bits = |p: &[f32]| p.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&screen.probabilities),
        bits(&oracle.probabilities),
        "{case}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn final_screen_matches_string_path_screen(
        t1 in table_strategy(),
        t2 in table_strategy(),
        relations in subset(&["GED", "GED_EU", "Missing"]),
        keys in subset(&["PGElecDemand", "CapAddTotal_Wind", "Sparse", "Nope"]),
        attributes in subset(&["2000", "2017", "Total", "1999"]),
        formulas in formula_set(),
        parameter in prop_oneof![
            2 => Just(None),
            1 => Just(Some(0.03)),
            1 => Just(Some(2.0)),
            1 => Just(Some(9.0)),
        ],
        probabilities in formula_probabilities(),
        final_options in 1usize..=5,
        max_assignments in prop_oneof![1 => 1usize..40, 1 => Just(400usize)],
    ) {
        let catalog = build_catalog(&[("GED", &t1), ("GED_EU", &t2)]);
        let mut config = SystemConfig::test();
        config.final_options = final_options;
        config.max_assignments = max_assignments;
        assert_screen_parity(
            &catalog, &relations, &keys, &attributes, &formulas, parameter, &probabilities,
            &config,
        );
    }
}

/// Every budget from 1 assignment up to past the whole enumeration, so the
/// budget runs out inside each formula, over a context with the
/// non-numeric `Total` attribute, the dead `NOPE(a)` and `POWER(a)`
/// skeletons and both claim kinds.
#[test]
fn final_screen_matches_string_path_at_every_budget() {
    let full = vec![(true, vec![Some(4.0), Some(36.0), Some(1.0)]); 3];
    let sparse = vec![(true, vec![Some(2.0), None, Some(0.0)]); 3];
    let catalog = build_catalog(&[("GED", &full), ("GED_EU", &sparse)]);
    let strs = |items: &[&str]| -> Vec<String> { items.iter().map(|s| s.to_string()).collect() };
    let formulas: Vec<(String, Formula)> = [
        "NOPE(a)",
        "a + A1",
        "POWER(a)",
        "POWER(a / b, 1 / (A1 - A2)) - 1",
        "a / b",
    ]
    .iter()
    .map(|t| (t.to_string(), parse_formula(t).unwrap()))
    .collect();
    let probabilities: Vec<(String, f32)> = vec![
        ("a / b".into(), 0.4),
        ("a + A1".into(), 0.4),
        ("POWER(a / b, 1 / (A1 - A2)) - 1".into(), 0.2),
    ];
    let (relations, keys) = (strs(&["GED", "GED_EU"]), strs(&["PGElecDemand", "Sparse"]));
    let attributes = strs(&["2000", "Total", "2017"]);
    // 10 numeric values: 10 + 10 + 10 + 100 + 100 assignments
    for parameter in [None, Some(9.0), Some(0.5), Some(-7.0)] {
        for max_assignments in 1..=240 {
            let mut config = SystemConfig::test();
            config.max_assignments = max_assignments;
            assert_screen_parity(
                &catalog,
                &relations,
                &keys,
                &attributes,
                &formulas,
                parameter,
                &probabilities,
                &config,
            );
        }
    }
}

/// The acceptance gate: Algorithm 2's candidate loop performs **zero** SQL
/// parses — candidates share prepared skeletons and swap bound row ids, so
/// query text exists only for the survivors' display statements.
///
/// Nothing else in this integration binary parses SQL, so the process-wide
/// counter is an exact measure of the calls below.
#[test]
fn candidate_loop_performs_zero_sql_parses() {
    let mut catalog = Catalog::new();
    catalog
        .add(
            TableBuilder::new("GED", "Index", &["2016", "2017"])
                .row("PGElecDemand", &[21_566.0, 22_209.0])
                .unwrap()
                .row("CapAddTotal_Wind", &[5.8, 52.2])
                .unwrap()
                .build(),
        )
        .unwrap();
    let registry = FunctionRegistry::standard();
    let formulas: Vec<(String, Formula)> = ["POWER(a / b, 1 / (A1 - A2)) - 1", "a / b", "a - b"]
        .iter()
        .map(|t| (t.to_string(), parse_formula(t).unwrap()))
        .collect();
    let strs = |items: &[&str]| -> Vec<String> { items.iter().map(|s| s.to_string()).collect() };

    let before = scrutinizer_query::parse_count();
    let out = generate_queries(
        &catalog,
        &registry,
        &strs(&["GED"]),
        &strs(&["PGElecDemand", "CapAddTotal_Wind"]),
        &strs(&["2016", "2017"]),
        &formulas,
        Some(0.03),
        &SystemConfig::test(),
    );
    assert!(!out.is_empty(), "the growth query must be found");
    assert_eq!(
        scrutinizer_query::parse_count(),
        before,
        "Algorithm 2 must not parse SQL in its candidate loop"
    );
}
