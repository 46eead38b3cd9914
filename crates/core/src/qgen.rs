//! Query generation — Algorithm 2.
//!
//! Input: validated/predicted relations `R`, keys `K`, attributes `A`,
//! ranked formulas `F`, and the explicit parameter `p` when present. The
//! algorithm collects all data values for `R × K × A` (line 7), tries
//! assignments of those values to each formula's variables (lines 9–20),
//! keeps assignments matching `p` for explicit claims (or a bounded set
//! of evaluating alternatives otherwise), and rewrites the survivors into
//! SQL (lines 23–29). The brute force stays fast thanks to the pruning
//! power of the validated context — exactly the paper's observation.
//!
//! ## Prepared skeletons
//!
//! The inner loop runs up to `max_assignments` assignments per claim, so
//! everything name-shaped is resolved **once** before enumeration:
//!
//! * every `(relation, key, attribute)` triple becomes a `ResolvedCell`
//!   — the cell's `f64`, materialized once from the catalog's cached
//!   numeric views;
//! * every formula is compiled once into a flat postfix program whose
//!   function calls hold resolved `fn` pointers — the shared *prepared
//!   skeleton* all of the formula's assignments instantiate;
//! * an assignment is then just a vector of indices into the resolved
//!   values: evaluating it swaps bound row ids, touching no strings,
//!   printing no SQL and parsing nothing (a test pins the SQL parse count
//!   of this loop at zero).
//!
//! Every assignment is evaluated directly, in the library and the serving
//! engine alike: a compiled program is ~10 postfix instructions over
//! `f64`s, cheaper than a shared result cache's hash, lock and LRU
//! relink.
//!
//! ## Only the work the final screen shows
//!
//! [`generate_survivors`] is the one enumeration loop, and two rules keep
//! it to work whose result is shown; both leave every screen bit for bit
//! unchanged:
//!
//! * **A general claim stops when its answer is settled.** Without a
//!   parameter nothing can match, so once the alternatives hold
//!   `final_options * 4` candidates no later assignment changes the
//!   result. The loop stops there instead of running on to the
//!   `max_assignments` budget, which remains the only stop for explicit
//!   claims.
//! * **Survivors stay assignments until the final screen picks its
//!   rows.** Each match or alternative is recorded as its formula, its
//!   value indices, its value and its match flag, and ranked as SQL
//!   candidates would be. [`Survivors::final_screen`] then orders them the
//!   way `FinalScreen::new` does and instantiates [`SelectStmt`]s only
//!   for the `final_options` rows shown, which is what the serving
//!   engine's `suggest` calls; [`generate_queries`] instantiates them all.
//!   Deferring is exact: `instantiate` fails only on a missing binding or
//!   an `A<i>` label that does not parse as `f64`, and the compiled
//!   program already rejects both, so an assignment that evaluated always
//!   instantiates.
//!
//! The pre-refactor string-resolving implementation survives as
//! [`generate_queries_unprepared`], the differential-testing and
//! benchmarking baseline.

use crate::config::SystemConfig;
use crate::screens::{formula_probability, pick_shown, FinalScreen};
use scrutinizer_data::value::approx_eq_f64;
use scrutinizer_data::Catalog;
use scrutinizer_formula::{eval_formula, instantiate, Formula, Lookup};
use scrutinizer_query::eval::apply_binop;
use scrutinizer_query::functions::FnImpl;
use scrutinizer_query::{BinOp, FunctionRegistry, SelectStmt, UnaryOp};

/// One generated candidate query.
#[derive(Debug, Clone)]
pub struct QueryCandidate {
    /// The executable, human-readable statement.
    pub stmt: SelectStmt,
    /// The formula it instantiates (class label).
    pub formula_text: String,
    /// The variable bindings.
    pub lookups: Vec<Lookup>,
    /// The value the query evaluates to.
    pub value: f64,
    /// Whether the value matches the explicit parameter (within tolerance).
    pub matches_parameter: bool,
}

/// A context cell resolved once before enumeration: the textual lookup it
/// came from and its materialized value.
#[derive(Debug, Clone)]
struct ResolvedCell {
    lookup: Lookup,
    value: f64,
    /// The attribute label parsed as a number (`A1`-style variables), or
    /// `None` for non-numeric labels like `Total`.
    attr_value: Option<f64>,
}

/// One instruction of a compiled formula (postfix order).
#[derive(Debug, Clone)]
enum FInstr {
    Const(f64),
    /// Push the value bound to value variable `i`.
    Var(u16),
    /// Push the numeric attribute label bound to value variable `i`
    /// (skips the assignment when the label is not numeric).
    AttrVar(u16),
    Neg,
    Bin(BinOp),
    Call {
        imp: FnImpl,
        argc: u16,
    },
}

/// A formula compiled against a function registry — the prepared skeleton
/// shared by every assignment of that formula.
///
/// This VM deliberately parallels `scrutinizer_query::prepared`'s rather
/// than sharing it: its leaves are assignment-indexed cells (`Var` /
/// `AttrVar`) instead of `(alias, column)` loads, and *every* failure
/// skips (Algorithm 2 swallows even unknown functions), where the query
/// VM must surface hard errors. Both reuse `apply_binop`/`FnImpl` for the
/// arithmetic itself, and the differential property tests pin each
/// against the string-path semantics.
#[derive(Debug, Clone)]
struct FormulaProgram {
    instrs: Vec<FInstr>,
    /// Unknown function or arity mismatch at compile time: the string path
    /// fails every assignment of such a formula, so the program evaluates
    /// to `None` without running (budget is still consumed per assignment).
    dead: bool,
}

impl FormulaProgram {
    fn compile(formula: &Formula, registry: &FunctionRegistry) -> FormulaProgram {
        let mut program = FormulaProgram {
            instrs: Vec::new(),
            dead: false,
        };
        program.push(formula, registry);
        program
    }

    fn push(&mut self, formula: &Formula, registry: &FunctionRegistry) {
        match formula {
            Formula::Const(n) => self.instrs.push(FInstr::Const(*n)),
            Formula::Var(i) => self.instrs.push(FInstr::Var(*i as u16)),
            Formula::AttrVar(i) => self.instrs.push(FInstr::AttrVar(*i as u16)),
            Formula::Unary {
                op: UnaryOp::Neg,
                expr,
            } => {
                self.push(expr, registry);
                self.instrs.push(FInstr::Neg);
            }
            Formula::Binary { op, left, right } => {
                self.push(left, registry);
                self.push(right, registry);
                self.instrs.push(FInstr::Bin(*op));
            }
            Formula::Func { name, args } => {
                for arg in args {
                    self.push(arg, registry);
                }
                match registry.get(name) {
                    Some(function) if function.arity.accepts(args.len()) => {
                        self.instrs.push(FInstr::Call {
                            imp: function.imp,
                            argc: args.len() as u16,
                        });
                    }
                    _ => self.dead = true,
                }
            }
        }
    }

    /// Evaluates one assignment (`assignment[i]` is the index into
    /// `values` bound to value variable `i`). `None` mirrors every failure
    /// the string path swallows: missing/non-numeric data, arithmetic
    /// errors, NaN-producing calls, and a non-finite final value.
    fn eval(
        &self,
        values: &[ResolvedCell],
        assignment: &[usize],
        stack: &mut Vec<f64>,
    ) -> Option<f64> {
        if self.dead {
            return None;
        }
        stack.clear();
        for instr in &self.instrs {
            match instr {
                FInstr::Const(n) => stack.push(*n),
                FInstr::Var(i) => stack.push(values[assignment[*i as usize]].value),
                FInstr::AttrVar(i) => {
                    stack.push(values[assignment[*i as usize]].attr_value?);
                }
                FInstr::Neg => {
                    let v = stack.pop().expect("compiled formula is balanced");
                    stack.push(-v);
                }
                FInstr::Bin(op) => {
                    let r = stack.pop().expect("compiled formula is balanced");
                    let l = stack.pop().expect("compiled formula is balanced");
                    stack.push(apply_binop(*op, l, r).ok()?);
                }
                FInstr::Call { imp, argc } => {
                    let split = stack.len() - *argc as usize;
                    let value = imp(&stack[split..]).ok().filter(|v| !v.is_nan())?;
                    stack.truncate(split);
                    stack.push(value);
                }
            }
        }
        stack.pop().filter(|v| v.is_finite())
    }
}

/// Resolves the `R × K × A` context (Algorithm 2 lines 5–8) to numeric
/// cell values, in the same deterministic nesting order as the string
/// path.
fn resolve_context(
    catalog: &Catalog,
    relations: &[String],
    keys: &[String],
    attributes: &[String],
) -> Vec<ResolvedCell> {
    let mut values = Vec::new();
    for relation in relations {
        let Some(table_id) = catalog.resolve(relation) else {
            continue;
        };
        let table = catalog.table(table_id);
        for key in keys {
            let Some(row) = table.key_row(key) else {
                continue;
            };
            for attribute in attributes {
                let Some(col) = table.schema().column_index(attribute) else {
                    continue;
                };
                let Some(value) = table.numeric_view(col).get(row as usize) else {
                    continue;
                };
                values.push(ResolvedCell {
                    lookup: Lookup::new(relation.clone(), key.clone(), attribute.clone()),
                    value,
                    attr_value: attribute.parse().ok(),
                });
            }
        }
    }
    values
}

/// A matched or alternative candidate kept as its assignment until the
/// final screen picks it: `bindings[start..start + len]` are the indices
/// into the resolved values bound to the formula's value variables.
#[derive(Debug)]
struct Survivor {
    formula: usize,
    start: usize,
    len: usize,
    value: f64,
    matches: bool,
}

/// Algorithm 2's survivors in rank order (lines 23–29), still as
/// assignments: no SQL exists for them until [`Survivors::into_candidates`]
/// or [`Survivors::final_screen`] instantiates the ones it returns.
#[derive(Debug)]
pub struct Survivors<'f> {
    formulas: &'f [(String, Formula)],
    values: Vec<ResolvedCell>,
    bindings: Vec<usize>,
    ranked: Vec<Survivor>,
    evaluated: usize,
}

impl Survivors<'_> {
    /// Assignments the loop evaluated before it stopped.
    pub fn evaluated(&self) -> usize {
        self.evaluated
    }

    /// Every survivor as a full candidate query, in rank order.
    pub fn into_candidates(self) -> Vec<QueryCandidate> {
        self.ranked.iter().map(|s| self.candidate(s)).collect()
    }

    /// The final screen over the survivors: exactly
    /// `FinalScreen::new(self.into_candidates(), formula_probabilities,
    /// budget)`, but only the `budget` rows shown are instantiated.
    pub fn final_screen(
        mut self,
        formula_probabilities: &[(String, f32)],
        budget: usize,
    ) -> FinalScreen {
        let probability: Vec<f32> = self
            .formulas
            .iter()
            .map(|(text, _)| formula_probability(formula_probabilities, text))
            .collect();
        let (shown, probabilities) = pick_shown(
            std::mem::take(&mut self.ranked),
            |s| s.matches,
            |s| probability[s.formula],
            budget,
        );
        FinalScreen {
            candidates: shown.iter().map(|s| self.candidate(s)).collect(),
            probabilities,
        }
    }

    fn candidate(&self, survivor: &Survivor) -> QueryCandidate {
        let (text, formula) = &self.formulas[survivor.formula];
        let lookups: Vec<Lookup> = self.bindings[survivor.start..survivor.start + survivor.len]
            .iter()
            .map(|&i| self.values[i].lookup.clone())
            .collect();
        // `instantiate` fails only on a missing binding or an `A<i>`
        // label that does not parse as `f64`. The assignment binds every
        // variable the formula has, and `FormulaProgram::eval` returned
        // `None` for a label whose `str::parse::<f64>` fails, so an
        // evaluated assignment always instantiates.
        let stmt = instantiate(formula, &lookups).expect("an evaluated assignment instantiates");
        QueryCandidate {
            stmt,
            formula_text: text.clone(),
            lookups,
            value: survivor.value,
            matches_parameter: survivor.matches,
        }
    }
}

/// Runs Algorithm 2 and keeps its ranked survivors as assignments.
///
/// `formulas` are `(text, formula)` in rank order; `parameter` is the
/// explicit claim parameter in *formula scale* (e.g. `0.03` for a growth of
/// 3 %). The survivors are the matching candidates if any exist, otherwise
/// the first `final_options * 4` evaluating candidates (line 27's `QA`),
/// ranked by closeness to the parameter when explicit. Enumeration stops
/// when the budget of `max_assignments` runs out, or, for a general claim
/// (`parameter` is `None`, so nothing can match), as soon as the
/// alternatives are full: no later assignment could change the result.
#[allow(clippy::too_many_arguments)] // Algorithm 2's inputs, verbatim
pub fn generate_survivors<'f>(
    catalog: &Catalog,
    registry: &FunctionRegistry,
    relations: &[String],
    keys: &[String],
    attributes: &[String],
    formulas: &'f [(String, Formula)],
    parameter: Option<f64>,
    config: &SystemConfig,
) -> Survivors<'f> {
    // lines 5-8: collect and resolve the available data values V = R × K × A
    let values = resolve_context(catalog, relations, keys, attributes);
    let mut bindings: Vec<usize> = Vec::new();
    let mut matched: Vec<Survivor> = Vec::new();
    let mut alternatives: Vec<Survivor> = Vec::new();
    let cap = config.final_options * 4;
    let mut budget = config.max_assignments;
    let mut stack: Vec<f64> = Vec::new();

    if !values.is_empty() {
        'formulas: for (index, (_, formula)) in formulas.iter().enumerate() {
            let n = formula.value_var_count(); // line 11: GetVars(f)
            if n == 0 {
                continue;
            }
            // the prepared skeleton every assignment of this formula shares
            let program = FormulaProgram::compile(formula, registry);
            // line 12-13: iterate assignments (permutations with repetition)
            let mut assignment = vec![0usize; n];
            'assignments: loop {
                if budget == 0 || (parameter.is_none() && alternatives.len() >= cap) {
                    break 'formulas;
                }
                budget -= 1;
                if let Some(value) = program.eval(&values, &assignment, &mut stack) {
                    let matches = parameter
                        .map(|p| approx_eq_f64(value, p, config.tolerance))
                        .unwrap_or(false);
                    // line 15-16, then line 17-18 (bounded: we only ever
                    // show a handful)
                    let list = if matches {
                        Some(&mut matched)
                    } else if matched.is_empty() && alternatives.len() < cap {
                        Some(&mut alternatives)
                    } else {
                        None
                    };
                    if let Some(list) = list {
                        list.push(Survivor {
                            formula: index,
                            start: bindings.len(),
                            len: n,
                            value,
                            matches,
                        });
                        bindings.extend_from_slice(&assignment);
                    }
                }
                // odometer over value indices
                let mut d = n;
                loop {
                    if d == 0 {
                        break 'assignments;
                    }
                    d -= 1;
                    assignment[d] += 1;
                    if assignment[d] < values.len() {
                        break;
                    }
                    assignment[d] = 0;
                }
            }
        }
    }

    Survivors {
        formulas,
        values,
        bindings,
        ranked: rank(matched, alternatives, parameter, |s| s.value),
        evaluated: config.max_assignments - budget,
    }
}

/// Runs Algorithm 2 and instantiates every survivor of
/// [`generate_survivors`] as SQL (lines 23–29) — matching candidates if
/// any exist, otherwise the evaluating alternatives ranked by closeness
/// to the parameter. These are the alternatives shown to checkers, and
/// the closest one backs the suggested correction of Example 4.
#[allow(clippy::too_many_arguments)] // Algorithm 2's inputs, verbatim
pub fn generate_queries(
    catalog: &Catalog,
    registry: &FunctionRegistry,
    relations: &[String],
    keys: &[String],
    attributes: &[String],
    formulas: &[(String, Formula)],
    parameter: Option<f64>,
    config: &SystemConfig,
) -> Vec<QueryCandidate> {
    generate_survivors(
        catalog, registry, relations, keys, attributes, formulas, parameter, config,
    )
    .into_candidates()
}

/// The pre-refactor Algorithm 2: per-assignment `Vec<Lookup>` clones and
/// string-resolving [`eval_formula`] calls.
///
/// Kept as the behavioral baseline: the property tests assert
/// [`generate_queries`] produces identical candidates, and
/// `crates/bench/benches/prepared.rs` measures the speedup.
#[allow(clippy::too_many_arguments)]
pub fn generate_queries_unprepared(
    catalog: &Catalog,
    registry: &FunctionRegistry,
    relations: &[String],
    keys: &[String],
    attributes: &[String],
    formulas: &[(String, Formula)],
    parameter: Option<f64>,
    config: &SystemConfig,
) -> Vec<QueryCandidate> {
    // line 5-8: collect the available data values V = R × K × A
    let mut values: Vec<Lookup> = Vec::new();
    for relation in relations {
        let Ok(table) = catalog.get(relation) else {
            continue;
        };
        for key in keys {
            if !table.contains_key(key) {
                continue;
            }
            for attribute in attributes {
                if let Ok(v) = table.get(key, attribute) {
                    if v.is_numeric() {
                        values.push(Lookup::new(
                            relation.clone(),
                            key.clone(),
                            attribute.clone(),
                        ));
                    }
                }
            }
        }
    }
    if values.is_empty() {
        return Vec::new();
    }

    let mut matched: Vec<QueryCandidate> = Vec::new();
    let mut alternatives: Vec<QueryCandidate> = Vec::new();
    let mut budget = config.max_assignments;

    for (text, formula) in formulas {
        let n = formula.value_var_count(); // line 11: GetVars(f)
        if n == 0 {
            continue;
        }
        // line 12-13: iterate assignments (permutations with repetition)
        let mut index = vec![0usize; n];
        'assignments: loop {
            if budget == 0 {
                break;
            }
            budget -= 1;
            let lookups: Vec<Lookup> = index.iter().map(|&i| values[i].clone()).collect();
            let value = eval_formula(catalog, registry, formula, &lookups)
                .ok()
                .filter(|v| v.is_finite());
            if let Some(value) = value {
                let matches = parameter
                    .map(|p| approx_eq_f64(value, p, config.tolerance))
                    .unwrap_or(false);
                if matches {
                    // line 15-16
                    if let Ok(stmt) = instantiate(formula, &lookups) {
                        matched.push(QueryCandidate {
                            stmt,
                            formula_text: text.clone(),
                            lookups,
                            value,
                            matches_parameter: true,
                        });
                    }
                } else if matched.is_empty() && alternatives.len() < config.final_options * 4 {
                    // line 17-18 (bounded: we only ever show a handful)
                    if let Ok(stmt) = instantiate(formula, &lookups) {
                        alternatives.push(QueryCandidate {
                            stmt,
                            formula_text: text.clone(),
                            lookups,
                            value,
                            matches_parameter: false,
                        });
                    }
                }
            }
            // odometer over value indices
            let mut d = n;
            loop {
                if d == 0 {
                    break 'assignments;
                }
                d -= 1;
                index[d] += 1;
                if index[d] < values.len() {
                    break;
                }
                index[d] = 0;
            }
        }
        if budget == 0 {
            break;
        }
    }

    rank(matched, alternatives, parameter, |c| c.value)
}

/// Lines 23-29: matching queries win; otherwise the alternatives, ranked
/// by closeness (of each one's `value`) to the parameter when explicit.
fn rank<T>(
    matched: Vec<T>,
    mut alternatives: Vec<T>,
    parameter: Option<f64>,
    value: impl Fn(&T) -> f64,
) -> Vec<T> {
    if !matched.is_empty() {
        matched
    } else {
        if let Some(p) = parameter {
            alternatives.sort_by(|a, b| {
                let da = relative_distance(value(a), p);
                let db = relative_distance(value(b), p);
                da.total_cmp(&db)
            });
        }
        alternatives
    }
}

fn relative_distance(value: f64, parameter: f64) -> f64 {
    (value - parameter).abs() / parameter.abs().max(1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scrutinizer_data::TableBuilder;
    use scrutinizer_formula::parse_formula;

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.add(
            TableBuilder::new("GED", "Index", &["2000", "2016", "2017"])
                .row("PGElecDemand", &[15_000.0, 21_566.0, 22_209.0])
                .unwrap()
                .row("CapAddTotal_Wind", &[5.8, 30.0, 52.2])
                .unwrap()
                .build(),
        )
        .unwrap();
        cat
    }

    fn formulas(texts: &[&str]) -> Vec<(String, Formula)> {
        texts
            .iter()
            .map(|t| (t.to_string(), parse_formula(t).unwrap()))
            .collect()
    }

    fn strs(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn example_10_finds_the_growth_query() {
        // context: GED / PGElecDemand / {2016, 2017}; formulas ranked with
        // the growth formula first; parameter 3% → one matching binding
        let cat = catalog();
        let registry = FunctionRegistry::standard();
        let out = generate_queries(
            &cat,
            &registry,
            &strs(&["GED"]),
            &strs(&["PGElecDemand"]),
            &strs(&["2016", "2017"]),
            &formulas(&["POWER(a / b, 1 / (A1 - A2)) - 1", "a + b > 0"]),
            Some(0.03),
            &SystemConfig::test(),
        );
        assert!(!out.is_empty());
        assert!(out.iter().all(|c| c.matches_parameter));
        let best = &out[0];
        assert!((best.value - 0.0298).abs() < 1e-3);
        assert!(best.stmt.to_string().contains("POWER"));
        // both (2017, 2016) and its algebraic mirror (2016, 2017) verify the
        // claim; the binding must use exactly those two attributes
        let mut attrs: Vec<&str> = best.lookups.iter().map(|l| l.attribute.as_str()).collect();
        attrs.sort_unstable();
        assert_eq!(attrs, vec!["2016", "2017"]);
    }

    #[test]
    fn false_claim_yields_alternatives_with_closest_first() {
        // Example 4: claim says 2.5% but the data says 3% — no match, and
        // the closest alternative carries the correct value
        let cat = catalog();
        let registry = FunctionRegistry::standard();
        let out = generate_queries(
            &cat,
            &registry,
            &strs(&["GED"]),
            &strs(&["PGElecDemand"]),
            &strs(&["2016", "2017"]),
            &formulas(&["POWER(a / b, 1 / (A1 - A2)) - 1"]),
            Some(0.025),
            &SystemConfig::test(),
        );
        assert!(!out.is_empty());
        assert!(out.iter().all(|c| !c.matches_parameter));
        assert!(
            (out[0].value - 0.0298).abs() < 1e-3,
            "closest alternative suggests the 3% correction, got {}",
            out[0].value
        );
    }

    #[test]
    fn ninefold_ratio_query() {
        let cat = catalog();
        let registry = FunctionRegistry::standard();
        let out = generate_queries(
            &cat,
            &registry,
            &strs(&["GED"]),
            &strs(&["CapAddTotal_Wind"]),
            &strs(&["2000", "2017"]),
            &formulas(&["a / b"]),
            Some(9.0),
            &SystemConfig::test(),
        );
        assert!(!out.is_empty());
        assert!((out[0].value - 9.0).abs() < 0.05);
    }

    #[test]
    fn general_claims_return_all_evaluating_bindings() {
        let cat = catalog();
        let registry = FunctionRegistry::standard();
        let out = generate_queries(
            &cat,
            &registry,
            &strs(&["GED"]),
            &strs(&["CapAddTotal_Wind"]),
            &strs(&["2000", "2017"]),
            &formulas(&["a / b > 1"]),
            None,
            &SystemConfig::test(),
        );
        assert!(!out.is_empty());
        assert!(out.iter().all(|c| !c.matches_parameter));
    }

    #[test]
    fn empty_context_produces_nothing() {
        let cat = catalog();
        let registry = FunctionRegistry::standard();
        let out = generate_queries(
            &cat,
            &registry,
            &strs(&["Missing"]),
            &strs(&["PGElecDemand"]),
            &strs(&["2017"]),
            &formulas(&["a"]),
            Some(1.0),
            &SystemConfig::test(),
        );
        assert!(out.is_empty());
    }

    #[test]
    fn assignment_budget_is_respected() {
        let cat = catalog();
        let registry = FunctionRegistry::standard();
        let mut config = SystemConfig::test();
        config.max_assignments = 3; // absurdly small
        let out = generate_queries(
            &cat,
            &registry,
            &strs(&["GED"]),
            &strs(&["PGElecDemand", "CapAddTotal_Wind"]),
            &strs(&["2000", "2016", "2017"]),
            &formulas(&["a / b"]),
            Some(1.0),
            &config,
        );
        // must terminate quickly; result may be incomplete but bounded
        assert!(out.len() <= 12);
    }

    #[test]
    fn cross_relation_bindings_work() {
        let mut cat = catalog();
        cat.add(
            TableBuilder::new("GED_EU", "Index", &["2017"])
                .row("PGElecDemand", &[3_350.0])
                .unwrap()
                .build(),
        )
        .unwrap();
        let registry = FunctionRegistry::standard();
        let out = generate_queries(
            &cat,
            &registry,
            &strs(&["GED", "GED_EU"]),
            &strs(&["PGElecDemand"]),
            &strs(&["2017"]),
            &formulas(&["a / b"]),
            Some(22_209.0 / 3_350.0),
            &SystemConfig::test(),
        );
        assert!(out.iter().any(|c| {
            c.matches_parameter
                && c.lookups[0].relation == "GED"
                && c.lookups[1].relation == "GED_EU"
        }));
    }

    #[test]
    fn general_claims_stop_once_the_alternatives_are_full() {
        // 2 keys × 3 attributes = 6 values, so `a + b + c` has 216
        // assignments and every one evaluates
        let cat = catalog();
        let registry = FunctionRegistry::standard();
        let config = SystemConfig::test();
        let cap = config.final_options * 4;
        let formulas = formulas(&["a + b + c", "a - b"]);
        let run = |parameter| {
            generate_survivors(
                &cat,
                &registry,
                &strs(&["GED"]),
                &strs(&["PGElecDemand", "CapAddTotal_Wind"]),
                &strs(&["2000", "2016", "2017"]),
                &formulas,
                parameter,
                &config,
            )
        };
        let general = run(None);
        assert_eq!(general.ranked.len(), cap);
        assert_eq!(
            general.evaluated(),
            cap,
            "a general claim's answer is settled by its first {cap} alternatives"
        );
        // an explicit claim that matches nothing must try every assignment
        let explicit = run(Some(-1.0));
        assert_eq!(explicit.ranked.len(), cap);
        assert_eq!(explicit.evaluated(), 216 + 36);
    }

    #[test]
    fn prepared_matches_unprepared_on_mixed_contexts() {
        let mut cat = catalog();
        cat.add(
            TableBuilder::new("Mixed", "Index", &["2017", "Total"])
                .row_opt("PGElecDemand", &[Some(7.0), None])
                .unwrap()
                .build(),
        )
        .unwrap();
        let registry = FunctionRegistry::standard();
        let config = SystemConfig::test();
        for (formulas, parameter) in [
            (formulas(&["a / b", "a - b"]), Some(1.5)),
            (formulas(&["POWER(a / b, 1 / (A1 - A2)) - 1"]), Some(0.03)),
            (formulas(&["NOPE(a)", "a / b"]), Some(9.0)), // dead formula consumes budget
            (formulas(&["a + A1"]), None),
        ] {
            let prepared = generate_queries(
                &cat,
                &registry,
                &strs(&["GED", "Mixed", "Missing"]),
                &strs(&["PGElecDemand", "CapAddTotal_Wind", "Nope"]),
                &strs(&["2000", "2016", "2017", "Total", "1999"]),
                &formulas,
                parameter,
                &config,
            );
            let legacy = generate_queries_unprepared(
                &cat,
                &registry,
                &strs(&["GED", "Mixed", "Missing"]),
                &strs(&["PGElecDemand", "CapAddTotal_Wind", "Nope"]),
                &strs(&["2000", "2016", "2017", "Total", "1999"]),
                &formulas,
                parameter,
                &config,
            );
            assert_eq!(prepared.len(), legacy.len());
            for (a, b) in prepared.iter().zip(&legacy) {
                assert_eq!(a.stmt, b.stmt);
                assert_eq!(a.lookups, b.lookups);
                assert_eq!(a.value, b.value);
                assert_eq!(a.matches_parameter, b.matches_parameter);
            }
        }
    }
}
