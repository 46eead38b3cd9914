//! Prepared-plan benchmarks: what the prepare-once/execute-many refactor
//! buys over the string path.
//!
//! * `suggestion_sweep/*` runs Algorithm 2 over the contexts of the same
//!   12 corpus claims — `string_path` is the pre-refactor implementation
//!   (per-assignment `Vec<Lookup>` clones + name-resolving evaluation,
//!   kept as [`generate_queries_unprepared`]), `prepared_path` the
//!   compiled-skeleton loop. Neither uses a result cache, so the ratio is
//!   the pure plan-layer speedup; the acceptance target is ≥ 2×.
//! * `execute_repeat/*` isolates the query executor: one statement run
//!   512 times, re-resolved from scratch each run vs. prepared once.
//! * `suggest_screen/*` times what `suggest` does between a claim's
//!   context and the rows its final screen shows, for general and explicit
//!   claims at small and paper scale: `string_path` is
//!   [`generate_queries_unprepared`] followed by `FinalScreen::new` over
//!   every candidate, `screen_path` the engine's path, which stops a
//!   general claim once its alternatives are full and instantiates SQL
//!   only for the rows shown. `all_rows` runs the same loop but
//!   instantiates every survivor before `FinalScreen::new` picks, so its
//!   ratio to `screen_path` is what instantiating only the shown rows
//!   saves. Screen parity is asserted on every context before timing, in
//!   `--quick` mode too; the ratios are printed, not gated.
//!
//! * `catalog_footprint` runs first, before anything is timed: it builds
//!   the paper-scale catalog under the [`CountingAllocator`] and asserts
//!   that it keeps at most 16 live heap bytes per attribute cell and 3
//!   live heap blocks per row, in `--quick` mode too.
//!
//! The `--quick` smoke mode (also triggered by `cargo test`'s `--test`
//! flag, and used by CI) runs every routine once just to prove the bench
//! still drives the APIs.

use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use scrutinizer_bench::{live_blocks, live_bytes, CountingAllocator};
use scrutinizer_core::screens::FinalScreen;
use scrutinizer_core::{
    generate_queries, generate_queries_unprepared, generate_survivors, Survivors, SystemConfig,
    Verifier,
};
use scrutinizer_corpus::{tables, ClaimKind, ClaimRecord, Corpus, CorpusConfig};
use scrutinizer_formula::{parse_formula, Formula};
use scrutinizer_query::{parse, FunctionRegistry, PreparedQuery};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Live heap bytes the paper-scale catalog may keep per attribute cell: a
/// float cell's 8-byte word and kind byte, plus its share of the keys, the
/// key index and the per-table vectors.
const MAX_BYTES_PER_CELL: f64 = 16.0;

/// Live heap blocks the paper-scale catalog may keep per row: the key and
/// its index entry, plus a share of the per-table vectors.
const MAX_BLOCKS_PER_ROW: f64 = 3.0;

/// Builds the paper-scale catalog and asserts its heap footprint floor.
fn catalog_footprint(_: &mut Criterion) {
    let (bytes_before, blocks_before) = (live_bytes(), live_blocks());
    let start = Instant::now();
    let catalog = tables::generate_catalog(&CorpusConfig::paper_scale());
    let build = start.elapsed();
    let bytes = live_bytes().wrapping_sub(bytes_before);
    let blocks = live_blocks().wrapping_sub(blocks_before);
    let rows: usize = catalog.tables().map(|t| t.row_count()).sum();
    let cells: usize = catalog.tables().map(|t| t.cell_count()).sum();
    let per_cell = bytes as f64 / cells as f64;
    let per_row = blocks as f64 / rows as f64;
    println!(
        "catalog_footprint paper scale: {} tables, {rows} rows, {cells} attribute cells; \
         live heap {:.1} MB = {per_cell:.1} B per cell (floor {MAX_BYTES_PER_CELL}), \
         {blocks} blocks = {per_row:.2} per row (floor {MAX_BLOCKS_PER_ROW}); built in {:.1} ms",
        catalog.len(),
        bytes as f64 / 1e6,
        build.as_secs_f64() * 1e3
    );
    assert!(
        per_cell <= MAX_BYTES_PER_CELL,
        "the catalog keeps {per_cell:.1} B per attribute cell, above the {MAX_BYTES_PER_CELL} B floor"
    );
    assert!(
        per_row <= MAX_BLOCKS_PER_ROW,
        "the catalog keeps {per_row:.2} heap blocks per row, above the {MAX_BLOCKS_PER_ROW} floor"
    );
}

/// One claim's Algorithm 2 input, resolved from the corpus ground truth
/// the way the engine's suggestion path resolves validated contexts.
struct SweepContext {
    relations: Vec<String>,
    keys: Vec<String>,
    attributes: Vec<String>,
    formulas: Vec<(String, Formula)>,
    parameter: Option<f64>,
}

fn contexts(corpus: &Corpus, count: usize) -> Vec<SweepContext> {
    // a shared rank list of common formula shapes, claim's own first
    let shared = [
        "POWER(a / b, 1 / (A1 - A2)) - 1",
        "a / b",
        "(a - b) / b",
        "a - b",
    ];
    // classifier-style padding pools: the engine pads unvalidated
    // properties with top candidates, so Algorithm 2 sees several
    // relations/keys/attributes per claim — the hundreds-of-assignments
    // regime the paper describes
    let relation_pool: Vec<String> = corpus.catalog.table_names().map(str::to_string).collect();
    let key_pool = corpus.catalog.all_keys();
    let attribute_pool = corpus.catalog.all_attributes();
    let pad = |seed: &[String], pool: &[String], target: usize| -> Vec<String> {
        let mut out: Vec<String> = seed.to_vec();
        for candidate in pool {
            if out.len() >= target {
                break;
            }
            if !out.contains(candidate) {
                out.push(candidate.clone());
            }
        }
        out
    };
    corpus
        .claims
        .iter()
        .take(count)
        .map(|claim: &ClaimRecord| {
            let mut texts = vec![claim.formula_text.clone()];
            texts.extend(shared.iter().map(|s| s.to_string()));
            texts.dedup();
            let formulas = texts
                .into_iter()
                .filter_map(|t| parse_formula(&t).ok().map(|f| (t, f)))
                .collect();
            SweepContext {
                relations: pad(std::slice::from_ref(&claim.relation), &relation_pool, 3),
                keys: pad(std::slice::from_ref(&claim.key), &key_pool, 4),
                attributes: pad(&claim.attributes, &attribute_pool, 4),
                formulas,
                parameter: claim.stated_value,
            }
        })
        .collect()
}

fn sweep_string(
    corpus: &Corpus,
    registry: &FunctionRegistry,
    contexts: &[SweepContext],
    config: &SystemConfig,
) -> usize {
    contexts
        .iter()
        .map(|ctx| {
            generate_queries_unprepared(
                &corpus.catalog,
                registry,
                &ctx.relations,
                &ctx.keys,
                &ctx.attributes,
                &ctx.formulas,
                ctx.parameter,
                config,
            )
            .len()
        })
        .sum()
}

fn sweep_prepared(
    corpus: &Corpus,
    registry: &FunctionRegistry,
    contexts: &[SweepContext],
    config: &SystemConfig,
) -> usize {
    contexts
        .iter()
        .map(|ctx| {
            generate_queries(
                &corpus.catalog,
                registry,
                &ctx.relations,
                &ctx.keys,
                &ctx.attributes,
                &ctx.formulas,
                ctx.parameter,
                config,
            )
            .len()
        })
        .sum()
}

fn bench_suggestion_sweep(c: &mut Criterion) {
    let corpus = Corpus::generate(CorpusConfig::small());
    let registry = FunctionRegistry::standard();
    let config = SystemConfig::test();
    let contexts = contexts(&corpus, 12);
    // both paths must agree before we time them
    assert_eq!(
        sweep_string(&corpus, &registry, &contexts, &config),
        sweep_prepared(&corpus, &registry, &contexts, &config),
        "string and prepared sweeps must produce the same candidates"
    );

    let mut group = c.benchmark_group("suggestion_sweep");
    group.sample_size(20);
    group.bench_function("string_path", |b| {
        b.iter(|| sweep_string(&corpus, &registry, &contexts, &config))
    });
    group.bench_function("prepared_path", |b| {
        b.iter(|| sweep_prepared(&corpus, &registry, &contexts, &config))
    });
    group.finish();

    // headline ratio for the acceptance gate (criterion's per-line output
    // does not compare groups)
    let timed = |f: &dyn Fn() -> usize| {
        let rounds = 10;
        let start = Instant::now();
        for _ in 0..rounds {
            black_box(f());
        }
        start.elapsed().as_secs_f64() / rounds as f64
    };
    let string_path = timed(&|| sweep_string(&corpus, &registry, &contexts, &config));
    let prepared = timed(&|| sweep_prepared(&corpus, &registry, &contexts, &config));
    println!(
        "suggestion_sweep: string {:.3} ms vs prepared {:.3} ms → {:.2}x",
        string_path * 1e3,
        prepared * 1e3,
        string_path / prepared
    );
}

fn bench_execute_repeat(c: &mut Criterion) {
    let corpus = Corpus::generate(CorpusConfig::small());
    let registry = FunctionRegistry::standard();
    // a representative two-alias check against real corpus tables
    let claim = corpus
        .claims
        .iter()
        .find(|c| c.lookups.len() >= 2)
        .expect("small corpus has a two-lookup claim");
    let sql = format!(
        "SELECT a.{} / b.{} FROM {} a, {} b WHERE a.Index = '{}' AND b.Index = '{}'",
        claim.lookups[0].attribute,
        claim.lookups[1].attribute,
        claim.lookups[0].relation,
        claim.lookups[1].relation,
        claim.lookups[0].key,
        claim.lookups[1].key,
    );
    let stmt = parse(&sql).expect("generated SQL parses");
    let mut group = c.benchmark_group("execute_repeat");
    group.sample_size(20);
    group.bench_function("unprepared_512", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for _ in 0..512 {
                hits += scrutinizer_query::exec::execute_with_unprepared(
                    &corpus.catalog,
                    &stmt,
                    &registry,
                )
                .map(|r| r.len())
                .unwrap_or(0);
            }
            hits
        })
    });
    group.bench_function("prepare_once_512", |b| {
        b.iter(|| {
            let plan = PreparedQuery::prepare(&corpus.catalog, &stmt, &registry).expect("prepares");
            let mut hits = 0usize;
            for _ in 0..512 {
                hits += plan
                    .execute_all(&corpus.catalog)
                    .map(|r| r.len())
                    .unwrap_or(0);
            }
            hits
        })
    });
    group.finish();
}

fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick" || a == "--test")
}

/// One claim's final-screen input, shaped the way `QueryContext::new`
/// shapes the engine's: the ground-truth relation and key plus three more
/// each and the claim's attributes plus four more (the padding an
/// unanswered screen gets), fifteen formulas (`final_options * 3`) with
/// the claim's own first, and a probability-descending classifier
/// distribution over them.
struct ScreenContext {
    sweep: SweepContext,
    probabilities: Vec<(String, f32)>,
}

fn screen_contexts(corpus: &Corpus, kind: ClaimKind, count: usize) -> Vec<ScreenContext> {
    let relation_pool: Vec<String> = corpus.catalog.table_names().map(str::to_string).collect();
    let key_pool = corpus.catalog.all_keys();
    let attribute_pool = corpus.catalog.all_attributes();
    let mut formula_pool: Vec<&str> = Vec::new();
    for claim in &corpus.claims {
        if !formula_pool.contains(&claim.formula_text.as_str()) {
            formula_pool.push(&claim.formula_text);
        }
    }
    let pad = |seed: &[String], pool: &[String], extra: usize| -> Vec<String> {
        let mut out: Vec<String> = seed.to_vec();
        for candidate in pool.iter().filter(|c| !seed.contains(c)).take(extra) {
            out.push(candidate.clone());
        }
        out
    };
    corpus
        .claims
        .iter()
        .filter(|claim| claim.kind == kind)
        .take(count)
        .map(|claim| {
            let mut texts = vec![claim.formula_text.as_str()];
            texts.extend(
                formula_pool
                    .iter()
                    .filter(|t| **t != claim.formula_text)
                    .take(14),
            );
            let formulas: Vec<(String, Formula)> = texts
                .iter()
                .filter_map(|t| parse_formula(t).ok().map(|f| (t.to_string(), f)))
                .collect();
            let probabilities = formulas
                .iter()
                .enumerate()
                .map(|(rank, (text, _))| (text.clone(), 1.0 / (rank + 2) as f32))
                .collect();
            ScreenContext {
                sweep: SweepContext {
                    relations: pad(std::slice::from_ref(&claim.relation), &relation_pool, 3),
                    keys: pad(std::slice::from_ref(&claim.key), &key_pool, 3),
                    attributes: pad(&claim.attributes, &attribute_pool, 4),
                    formulas,
                    // the engine's Definition 2 parameter, in formula scale
                    parameter: match kind {
                        ClaimKind::Explicit => Verifier::extract_parameter(&claim.claim_text),
                        ClaimKind::General => None,
                    },
                },
                probabilities,
            }
        })
        .collect()
}

fn screen_string(
    corpus: &Corpus,
    registry: &FunctionRegistry,
    ctx: &ScreenContext,
    config: &SystemConfig,
) -> FinalScreen {
    let s = &ctx.sweep;
    FinalScreen::new(
        generate_queries_unprepared(
            &corpus.catalog,
            registry,
            &s.relations,
            &s.keys,
            &s.attributes,
            &s.formulas,
            s.parameter,
            config,
        ),
        &ctx.probabilities,
        config.final_options,
    )
}

fn survivors<'c>(
    corpus: &Corpus,
    registry: &FunctionRegistry,
    ctx: &'c ScreenContext,
    config: &SystemConfig,
) -> Survivors<'c> {
    let s = &ctx.sweep;
    generate_survivors(
        &corpus.catalog,
        registry,
        &s.relations,
        &s.keys,
        &s.attributes,
        &s.formulas,
        s.parameter,
        config,
    )
}

fn screen_survivors(
    corpus: &Corpus,
    registry: &FunctionRegistry,
    ctx: &ScreenContext,
    config: &SystemConfig,
) -> FinalScreen {
    survivors(corpus, registry, ctx, config).final_screen(&ctx.probabilities, config.final_options)
}

fn screen_all_rows(
    corpus: &Corpus,
    registry: &FunctionRegistry,
    ctx: &ScreenContext,
    config: &SystemConfig,
) -> FinalScreen {
    let s = &ctx.sweep;
    FinalScreen::new(
        generate_queries(
            &corpus.catalog,
            registry,
            &s.relations,
            &s.keys,
            &s.attributes,
            &s.formulas,
            s.parameter,
            config,
        ),
        &ctx.probabilities,
        config.final_options,
    )
}

fn bench_suggest_screen(c: &mut Criterion) {
    let registry = FunctionRegistry::standard();
    // the serving engine's configuration: 5 rows, 50 000 assignments
    let config = SystemConfig::default();
    let mut group = c.benchmark_group("suggest_screen");
    group.sample_size(10);
    let mut ratios = Vec::new();
    for (scale, corpus_config) in [
        ("small", CorpusConfig::small()),
        ("paper", CorpusConfig::paper_scale()),
    ] {
        let corpus = Corpus::generate(corpus_config);
        for (kind_name, kind) in [
            ("general", ClaimKind::General),
            ("explicit", ClaimKind::Explicit),
        ] {
            let contexts = screen_contexts(&corpus, kind, 12);
            assert!(
                !contexts.is_empty(),
                "{scale} corpus has {kind_name} claims"
            );
            // the screen path must show exactly the string path's rows
            for ctx in &contexts {
                let expected = screen_string(&corpus, &registry, ctx, &config);
                for screen in [
                    screen_survivors(&corpus, &registry, ctx, &config),
                    screen_all_rows(&corpus, &registry, ctx, &config),
                ] {
                    assert_eq!(screen.candidates.len(), expected.candidates.len());
                    for (a, b) in screen.candidates.iter().zip(&expected.candidates) {
                        assert_eq!(a.stmt.to_string(), b.stmt.to_string());
                        assert_eq!(a.formula_text, b.formula_text);
                        assert_eq!(a.value.to_bits(), b.value.to_bits());
                        assert_eq!(a.matches_parameter, b.matches_parameter);
                    }
                    let bits = |p: &[f32]| p.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&screen.probabilities), bits(&expected.probabilities));
                }
            }
            let sweep = |path: fn(
                &Corpus,
                &FunctionRegistry,
                &ScreenContext,
                &SystemConfig,
            ) -> FinalScreen| {
                let (corpus, registry, contexts, config) = (&corpus, &registry, &contexts, &config);
                move || -> usize {
                    contexts
                        .iter()
                        .map(|ctx| path(corpus, registry, ctx, config).candidates.len())
                        .sum()
                }
            };
            let paths: [(&str, _); 3] = [
                ("string_path", sweep(screen_string)),
                ("all_rows", sweep(screen_all_rows)),
                ("screen_path", sweep(screen_survivors)),
            ];
            for (name, path) in &paths {
                group.bench_function(format!("{scale}_{kind_name}/{name}"), |b| b.iter(path));
            }
            let rounds = if quick_mode() { 1 } else { 10 };
            let per_claim = |f: &dyn Fn() -> usize| {
                let start = Instant::now();
                for _ in 0..rounds {
                    black_box(f());
                }
                start.elapsed().as_secs_f64() / (rounds * contexts.len()) as f64
            };
            let [string_s, all_rows_s, screen_s] = paths.map(|(_, path)| per_claim(&path));
            let evaluated: usize = contexts
                .iter()
                .map(|ctx| survivors(&corpus, &registry, ctx, &config).evaluated())
                .sum();
            ratios.push(format!(
                "suggest_screen {scale} {kind_name} ({} claims; the loop evaluates {} \
                 assignments per claim), per claim: string + FinalScreen::new {:.1} us, \
                 all rows {:.1} us, screen path {:.1} us → {:.2}x string, {:.2}x all rows",
                contexts.len(),
                evaluated / contexts.len(),
                string_s * 1e6,
                all_rows_s * 1e6,
                screen_s * 1e6,
                string_s / screen_s,
                all_rows_s / screen_s
            ));
        }
    }
    group.finish();
    for line in ratios {
        println!("{line}");
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = catalog_footprint, bench_suggestion_sweep, bench_execute_repeat, bench_suggest_screen
}
criterion_main!(benches);
