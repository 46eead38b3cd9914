//! Claim ordering: batch selection across the document (§5.2).
//!
//! Picks the next batch of claims to verify, trading off expected
//! verification cost (including section skim costs, Definition 8) against
//! training utility (Definition 7). The selection ILP (Definition 9) is
//! solved with `scrutinizer-ilp`'s serial, hint-seeded branch & bound; a
//! utility-density greedy serves as the fallback when the solver fails
//! and as an ablation baseline.
//!
//! [`select_batch`] is the one entry point. A batch is a pure function of
//! the claim choices, the document, the strategy, the budget and the
//! config. The returned [`BatchSelection`] carries the claim ids, the
//! achieved utility, the method that produced the batch, the solver's
//! search counters and — when the ILP could not answer — the [`IlpError`]
//! that forced the greedy fallback, so callers can log it instead of
//! losing it.

use crate::config::SystemConfig;
use scrutinizer_corpus::Document;
use scrutinizer_ilp::{solve_ilp, BranchConfig, IlpError, Model, Sense, SolveStats};

/// Node budget of the planning solver. The incumbent is seeded with the
/// greedy solution before the search starts, so every explored node
/// strictly *improves* on greedy — a dozen nodes recoup most
/// of the ILP's advantage at a fraction of the baseline's 40 nodes.
const PLANNING_NODE_LIMIT: usize = 12;

/// Node budget of [`select_batch_serial_baseline`], the seed's.
const BASELINE_NODE_LIMIT: usize = 40;

/// Relative optimality gap of the planning solver. Batch selection needs
/// "the right claims", not the last decimal of the utility sum; a 1 % gap
/// prunes the symmetric-optima plateaus Definition-9 instances produce.
const PLANNING_GAP: f64 = 0.01;

/// How the next batch is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderingStrategy {
    /// Document order — the "Sequential" baseline of §6.2.
    Sequential,
    /// The ILP of Definition 9.
    Ilp,
    /// Greedy utility-per-cost (ablation / fallback).
    Greedy,
}

/// Per-claim input to batch selection.
#[derive(Debug, Clone)]
pub struct ClaimChoice {
    /// Claim id.
    pub id: usize,
    /// Section the claim lives in.
    pub section: usize,
    /// Expected verification cost `v(c)` (seconds).
    pub cost: f64,
    /// Training utility `u(c)`.
    pub utility: f64,
}

/// What actually produced a batch (the requested strategy may degrade).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchMethod {
    /// Document order.
    Sequential,
    /// The ILP solved to (gap-)optimality.
    IlpOptimal,
    /// The ILP hit its node budget; the batch is its best incumbent.
    IlpIncumbent,
    /// The ILP failed; the greedy heuristic answered instead. The failure
    /// is recorded in [`BatchSelection::fallback`].
    GreedyFallback,
    /// The ILP solved its candidate window, but the full-pool greedy found
    /// a better batch outside that window (possible when high-read-cost
    /// sections push value below the utility-density cut); the greedy
    /// batch is returned. This post-hoc max makes [`OrderingStrategy::Ilp`]
    /// never worse than [`OrderingStrategy::Greedy`] *by construction*,
    /// whatever the window or the node budget did.
    GreedyOverWindow,
    /// Greedy was the requested strategy.
    Greedy,
}

/// The outcome of one batch selection.
#[derive(Debug, Clone)]
pub struct BatchSelection {
    /// Selected claim ids.
    pub batch: Vec<usize>,
    /// Total training utility of the batch (Definition 9's objective).
    pub utility: f64,
    /// What produced the batch.
    pub method: BatchMethod,
    /// The solver error behind a [`BatchMethod::GreedyFallback`] — returned
    /// instead of silently dropped so the engine can log it.
    pub fallback: Option<IlpError>,
    /// Search counters when the ILP returned a batch.
    pub solver: Option<SolveStats>,
}

impl BatchSelection {
    fn with_utility(mut self, choices: &[ClaimChoice]) -> Self {
        self.utility = batch_utility(&self.batch, choices);
        self
    }
}

/// The candidate order of the ILP's window: utility-per-cost density
/// descending, ties broken by claim id.
fn density_cmp(a: &ClaimChoice, b: &ClaimChoice) -> std::cmp::Ordering {
    let da = a.utility / a.cost.max(1e-9);
    let db = b.utility / b.cost.max(1e-9);
    db.total_cmp(&da).then(a.id.cmp(&b.id))
}

/// Total utility of a batch under the given per-claim choices.
pub fn batch_utility(batch: &[usize], choices: &[ClaimChoice]) -> f64 {
    batch
        .iter()
        .map(|&id| {
            choices
                .iter()
                .find(|c| c.id == id)
                .map_or(0.0, |c| c.utility)
        })
        .sum()
}

/// Selects the next batch of claims.
///
/// `budget_seconds` is `t_m` of Definition 9; the batch size is bounded by
/// `[1, config.batch_size]`.
///
/// ```
/// use scrutinizer_core::ordering::{select_batch, ClaimChoice, OrderingStrategy};
/// use scrutinizer_core::SystemConfig;
/// use scrutinizer_corpus::{Document, Section};
///
/// let document = Document {
///     sections: vec![Section {
///         id: 0,
///         title: "Outlook".into(),
///         sentence_count: 10,
///         claim_ids: vec![0, 1],
///     }],
///     total_sentences: 10,
/// };
/// let choices = vec![
///     ClaimChoice { id: 0, section: 0, cost: 40.0, utility: 2.0 },
///     ClaimChoice { id: 1, section: 0, cost: 45.0, utility: 5.0 },
/// ];
/// let config = SystemConfig::test();
/// let selection = select_batch(
///     &choices,
///     &document,
///     OrderingStrategy::Ilp,
///     1_000.0,
///     &config,
/// );
/// assert!(selection.batch.contains(&1), "the high-utility claim is selected");
/// ```
pub fn select_batch(
    choices: &[ClaimChoice],
    document: &Document,
    strategy: OrderingStrategy,
    budget_seconds: f64,
    config: &SystemConfig,
) -> BatchSelection {
    if choices.is_empty() {
        return BatchSelection {
            batch: Vec::new(),
            utility: 0.0,
            method: match strategy {
                OrderingStrategy::Sequential => BatchMethod::Sequential,
                OrderingStrategy::Ilp => BatchMethod::IlpOptimal,
                OrderingStrategy::Greedy => BatchMethod::Greedy,
            },
            fallback: None,
            solver: None,
        };
    }
    match strategy {
        OrderingStrategy::Sequential => {
            let mut ordered: Vec<&ClaimChoice> = choices.iter().collect();
            ordered.sort_by_key(|c| (c.section, c.id));
            BatchSelection {
                batch: ordered
                    .iter()
                    .take(config.batch_size)
                    .map(|c| c.id)
                    .collect(),
                utility: 0.0,
                method: BatchMethod::Sequential,
                fallback: None,
                solver: None,
            }
            .with_utility(choices)
        }
        OrderingStrategy::Greedy => BatchSelection {
            batch: greedy_fill(choices, document, budget_seconds, config),
            utility: 0.0,
            method: BatchMethod::Greedy,
            fallback: None,
            solver: None,
        }
        .with_utility(choices),
        OrderingStrategy::Ilp => {
            let greedy = greedy_fill(choices, document, budget_seconds, config);
            match ilp_batch(choices, document, budget_seconds, config) {
                Ok((batch, method, solver)) => {
                    let selection = BatchSelection {
                        batch,
                        utility: 0.0,
                        method,
                        fallback: None,
                        solver,
                    }
                    .with_utility(choices);
                    // the solver only sees the candidate window and its
                    // greedy seed may be discarded when budget-infeasible —
                    // max against the full-pool greedy so Ilp dominates
                    // Greedy unconditionally
                    let greedy_utility = batch_utility(&greedy, choices);
                    if greedy_utility > selection.utility + 1e-12 {
                        BatchSelection {
                            batch: greedy,
                            utility: greedy_utility,
                            method: BatchMethod::GreedyOverWindow,
                            ..selection
                        }
                    } else {
                        selection
                    }
                }
                Err(error) => BatchSelection {
                    batch: greedy,
                    utility: 0.0,
                    method: BatchMethod::GreedyFallback,
                    fallback: Some(error),
                    solver: None,
                }
                .with_utility(choices),
            }
        }
    }
}

/// The benchmark baseline and ablation: the planning solver run cold — no
/// greedy hint, a 40-node budget, the default gap — with
/// greedy on failure. It keeps the seed's budget and fallback but is no
/// longer the seed's code verbatim: it runs the one branch & bound,
/// rounding-heuristic incumbent included.
pub fn select_batch_serial_baseline(
    choices: &[ClaimChoice],
    document: &Document,
    budget_seconds: f64,
    config: &SystemConfig,
) -> Vec<usize> {
    if choices.is_empty() {
        return Vec::new();
    }
    serial_ilp_batch(choices, document, budget_seconds, config)
        .unwrap_or_else(|| greedy_fill(choices, document, budget_seconds, config))
}

/// Greedy utility-per-marginal-cost selection. The marginal cost of a
/// claim includes the section skim the first time its section is touched.
fn greedy_fill(
    choices: &[ClaimChoice],
    document: &Document,
    budget_seconds: f64,
    config: &SystemConfig,
) -> Vec<usize> {
    let mut remaining: Vec<&ClaimChoice> = choices.iter().collect();
    let mut touched_sections: Vec<usize> = Vec::new();
    let mut batch = Vec::new();
    let mut spent = 0.0;
    while batch.len() < config.batch_size && !remaining.is_empty() {
        let mut best: Option<(usize, f64, f64)> = None; // (idx, density, marginal)
        for (i, c) in remaining.iter().enumerate() {
            let read = if touched_sections.contains(&c.section) {
                0.0
            } else {
                section_read_cost(document, c.section, config)
            };
            let marginal = c.cost + read;
            let density = (c.utility + 1e-9) / marginal.max(1e-9);
            if best.is_none() || density > best.expect("set").1 {
                best = Some((i, density, marginal));
            }
        }
        let Some((i, _, marginal)) = best else { break };
        if spent + marginal > budget_seconds && !batch.is_empty() {
            break;
        }
        let chosen = remaining.remove(i);
        spent += marginal;
        if !touched_sections.contains(&chosen.section) {
            touched_sections.push(chosen.section);
        }
        batch.push(chosen.id);
    }
    batch
}

/// The candidate window plus the Definition-9 model built over it.
struct WindowModel<'a> {
    window: Vec<&'a ClaimChoice>,
    model: Model,
    claim_vars: Vec<scrutinizer_ilp::VarId>,
    sections: Vec<usize>,
    section_vars: Vec<scrutinizer_ilp::VarId>,
}

/// Builds the ILP of Definition 9: binary `cs_i` per claim, binary `sr_j`
/// per section, `sr_j ≥ cs_i` coverage constraints, the budget
/// `Σ cs·v + Σ sr·r ≤ t_m`, cardinality `1 ≤ Σ cs ≤ b_u`, objective
/// `max Σ u·cs` (the paper minimizes `−Σ u·cs`).
///
/// To keep the instance at the size Theorem 8 promises even with thousands
/// of unverified claims, selection runs over the `ordering_window` claims
/// with the highest utility density.
fn build_window_model<'a>(
    choices: &'a [ClaimChoice],
    document: &Document,
    budget_seconds: f64,
    config: &SystemConfig,
) -> Option<WindowModel<'a>> {
    // candidate window
    let mut window: Vec<&ClaimChoice> = choices.iter().collect();
    window.sort_by(|a, b| density_cmp(a, b));
    window.truncate(config.ordering_window);

    let mut model = Model::maximize();
    let claim_vars: Vec<_> = window
        .iter()
        .map(|c| model.add_binary(format!("cs{}", c.id), c.utility))
        .collect();
    // one sr per touched section
    let mut sections: Vec<usize> = window.iter().map(|c| c.section).collect();
    sections.sort_unstable();
    sections.dedup();
    let section_vars: Vec<_> = sections
        .iter()
        .map(|s| model.add_binary(format!("sr{s}"), 0.0))
        .collect();

    // coverage: sr_j − cs_i ≥ 0 for claim i in section j
    for (c, &cv) in window.iter().zip(&claim_vars) {
        let j = sections.binary_search(&c.section).expect("section present");
        model
            .add_constraint(vec![(section_vars[j], 1.0), (cv, -1.0)], Sense::Ge, 0.0)
            .ok()?;
    }
    // budget
    let mut budget_terms: Vec<_> = window
        .iter()
        .zip(&claim_vars)
        .map(|(c, &v)| (v, c.cost))
        .collect();
    for (&s, &sv) in sections.iter().zip(&section_vars) {
        budget_terms.push((sv, section_read_cost(document, s, config)));
    }
    model
        .add_constraint(budget_terms, Sense::Le, budget_seconds)
        .ok()?;
    // cardinality
    let cardinality: Vec<_> = claim_vars.iter().map(|&v| (v, 1.0)).collect();
    model
        .add_constraint(cardinality.clone(), Sense::Le, config.batch_size as f64)
        .ok()?;
    model.add_constraint(cardinality, Sense::Ge, 1.0).ok()?;

    Some(WindowModel {
        window,
        model,
        claim_vars,
        sections,
        section_vars,
    })
}

/// Maps a batch of claim ids onto the window model's variable vector
/// (claim vars plus the section vars they force on).
fn hint_values(wm: &WindowModel<'_>, batch: &[usize]) -> Vec<f64> {
    let mut values = vec![0.0; wm.model.num_variables()];
    for (c, v) in wm.window.iter().zip(&wm.claim_vars) {
        if batch.contains(&c.id) {
            values[v.index()] = 1.0;
            let j = wm
                .sections
                .binary_search(&c.section)
                .expect("section present");
            values[wm.section_vars[j].index()] = 1.0;
        }
    }
    values
}

/// Solves Definition 9 with the branch & bound. The greedy
/// heuristic's answer over the window seeds the incumbent, so the ILP can
/// only match or beat it. Errors bubble up so the caller records the
/// fallback reason.
fn ilp_batch(
    choices: &[ClaimChoice],
    document: &Document,
    budget_seconds: f64,
    config: &SystemConfig,
) -> Result<(Vec<usize>, BatchMethod, Option<SolveStats>), IlpError> {
    let wm = build_window_model(choices, document, budget_seconds, config)
        .ok_or(IlpError::Infeasible)?;

    let window_choices: Vec<ClaimChoice> = wm.window.iter().map(|&c| c.clone()).collect();
    let greedy_seed = greedy_fill(&window_choices, document, budget_seconds, config);
    let greedy_hint = hint_values(&wm, &greedy_seed);

    let planning = BranchConfig {
        node_limit: PLANNING_NODE_LIMIT,
        gap: PLANNING_GAP,
        ..Default::default()
    };
    let solve = solve_ilp(&wm.model, planning, &[&greedy_hint])?;
    let method = if solve.stats.node_limit_hit {
        BatchMethod::IlpIncumbent
    } else {
        BatchMethod::IlpOptimal
    };
    let batch: Vec<usize> = wm
        .window
        .iter()
        .zip(&wm.claim_vars)
        .filter(|(_, &v)| solve.solution.is_set(v))
        .map(|(c, _)| c.id)
        .collect();
    if batch.is_empty() {
        return Err(IlpError::Infeasible);
    }
    Ok((batch, method, Some(solve.stats)))
}

/// The baseline's solve: no hints, 40-node budget, default gap, incumbent
/// accepted on exhaustion, `None` on any failure.
fn serial_ilp_batch(
    choices: &[ClaimChoice],
    document: &Document,
    budget_seconds: f64,
    config: &SystemConfig,
) -> Option<Vec<usize>> {
    let wm = build_window_model(choices, document, budget_seconds, config)?;
    let cold = BranchConfig {
        node_limit: BASELINE_NODE_LIMIT,
        ..Default::default()
    };
    let solution = solve_ilp(&wm.model, cold, &[]).ok()?.solution;
    let batch: Vec<usize> = wm
        .window
        .iter()
        .zip(&wm.claim_vars)
        .filter(|(_, &v)| solution.is_set(v))
        .map(|(c, _)| c.id)
        .collect();
    if batch.is_empty() {
        None
    } else {
        Some(batch)
    }
}

fn section_read_cost(document: &Document, section: usize, config: &SystemConfig) -> f64 {
    document
        .sections
        .get(section)
        .map(|s| s.read_cost(config.read_seconds_per_sentence))
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scrutinizer_corpus::{Corpus, CorpusConfig};

    fn setup() -> (Document, Vec<ClaimChoice>, SystemConfig) {
        let corpus = Corpus::generate(CorpusConfig::small());
        let choices: Vec<ClaimChoice> = corpus
            .claims
            .iter()
            .map(|c| ClaimChoice {
                id: c.id,
                section: c.section,
                cost: 40.0 + (c.id % 7) as f64 * 10.0,
                utility: 1.0 + (c.id % 5) as f64,
            })
            .collect();
        (corpus.document, choices, SystemConfig::test())
    }

    #[test]
    fn sequential_takes_document_order() {
        let (document, choices, config) = setup();
        let batch = select_batch(
            &choices,
            &document,
            OrderingStrategy::Sequential,
            1e9,
            &config,
        )
        .batch;
        assert_eq!(batch.len(), config.batch_size);
        assert_eq!(batch[0], 0);
        assert!(batch.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn ilp_respects_budget_and_cardinality() {
        let (document, choices, config) = setup();
        let budget = 600.0;
        let batch = select_batch(&choices, &document, OrderingStrategy::Ilp, budget, &config).batch;
        assert!(!batch.is_empty());
        assert!(batch.len() <= config.batch_size);
        // recompute total cost incl. section reads
        let mut sections: Vec<usize> = Vec::new();
        let mut total = 0.0;
        for &id in &batch {
            let c = choices.iter().find(|c| c.id == id).unwrap();
            total += c.cost;
            if !sections.contains(&c.section) {
                sections.push(c.section);
                total += document.sections[c.section].read_cost(config.read_seconds_per_sentence);
            }
        }
        assert!(
            total <= budget + 1e-6,
            "budget violated: {total} > {budget}"
        );
    }

    #[test]
    fn ilp_beats_or_matches_greedy_utility() {
        let (document, choices, config) = setup();
        let budget = 900.0;
        let ilp = select_batch(&choices, &document, OrderingStrategy::Ilp, budget, &config);
        let greedy = select_batch(
            &choices,
            &document,
            OrderingStrategy::Greedy,
            budget,
            &config,
        );
        assert!(
            ilp.utility >= greedy.utility - 1e-6,
            "ILP {} vs greedy {}",
            ilp.utility,
            greedy.utility
        );
        assert!(
            matches!(
                ilp.method,
                BatchMethod::IlpOptimal | BatchMethod::IlpIncumbent | BatchMethod::GreedyOverWindow
            ),
            "{:?}",
            ilp.method
        );
        assert!(ilp.fallback.is_none());
        let solver = ilp.solver.expect("the ILP solver ran");
        assert!(solver.lp_solves >= 1);
    }

    #[test]
    fn planning_solve_matches_serial_baseline_objective() {
        // the greedy-seeded production solve against the cold baseline solve
        let (document, choices, config) = setup();
        for budget in [500.0, 900.0, 2000.0] {
            let seeded = select_batch(&choices, &document, OrderingStrategy::Ilp, budget, &config);
            let serial = select_batch_serial_baseline(&choices, &document, budget, &config);
            let serial_utility = batch_utility(&serial, &choices);
            // the planning solver legitimately trades up to PLANNING_GAP of
            // objective for early termination, so the guarantee is
            // gap-relative, not exact
            assert!(
                seeded.utility >= serial_utility * (1.0 - PLANNING_GAP) - 1e-6,
                "budget {budget}: seeded {} < serial {} beyond the gap",
                seeded.utility,
                serial_utility
            );
        }
    }

    #[test]
    fn greedy_clusters_sections() {
        // with tight budgets greedy should reuse sections it already paid for
        let (document, choices, config) = setup();
        let batch = select_batch(
            &choices,
            &document,
            OrderingStrategy::Greedy,
            500.0,
            &config,
        )
        .batch;
        assert!(!batch.is_empty());
        let mut sections: Vec<usize> = batch
            .iter()
            .map(|&id| choices.iter().find(|c| c.id == id).unwrap().section)
            .collect();
        sections.sort_unstable();
        sections.dedup();
        assert!(sections.len() <= batch.len(), "section reuse expected");
    }

    #[test]
    fn empty_input_yields_empty_batch() {
        let (document, _, config) = setup();
        assert!(
            select_batch(&[], &document, OrderingStrategy::Ilp, 100.0, &config)
                .batch
                .is_empty()
        );
    }

    #[test]
    fn infeasible_ilp_reports_fallback_reason() {
        // a budget below every claim's cost makes Definition 9 infeasible
        // (cardinality demands ≥ 1 claim); greedy still answers, and the
        // reason is returned instead of dropped
        let (document, choices, config) = setup();
        let selection = select_batch(&choices, &document, OrderingStrategy::Ilp, 1.0, &config);
        assert_eq!(selection.method, BatchMethod::GreedyFallback);
        assert!(matches!(selection.fallback, Some(IlpError::Infeasible)));
        assert!(
            !selection.batch.is_empty(),
            "greedy admits the first claim even over budget"
        );
    }
}
