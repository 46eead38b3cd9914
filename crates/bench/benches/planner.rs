//! Batch-selection planner benchmarks: what the greedy hint, the node
//! budget and the gap buy over the unseeded baseline, swept from 100 to
//! 10 000 unverified claims.
//!
//! * `planner_cold/*` — one cold batch selection per call:
//!   `cold_baseline` is [`select_batch_serial_baseline`] (the one branch &
//!   bound run with no hints and the seed's 40-node budget, greedy on
//!   failure — the seed's budget and fallback, no longer its code),
//!   `seeded` the production path (greedy-seeded incumbent, 12-node
//!   budget, 1 % gap), `greedy` the heuristic floor. Both ILP paths solve
//!   every node's LP cold. Acceptance target: ≥ 3× at 10 000 claims with
//!   equal or better objective.
//!
//! Objective parity (ILP ≥ greedy, ILP ≥ 0.99 × the cold baseline) is
//! asserted before anything is timed. The `--quick` smoke mode (used by CI) runs every routine once
//! just to prove the bench still drives the APIs — and still runs the
//! parity asserts.

use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use scrutinizer_core::ordering::{
    batch_utility, select_batch, select_batch_serial_baseline, ClaimChoice,
};
use scrutinizer_core::policy::batch_budget;
use scrutinizer_core::{OrderingStrategy, SystemConfig};
use scrutinizer_corpus::{Document, Section};

/// Deterministic pseudo-randomness; the bench must not depend on `rand`.
fn lcg(state: &mut u64) -> f64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    ((*state >> 33) as f64) / ((1u64 << 31) as f64)
}

/// A synthetic document + per-claim planning input at the given scale,
/// shaped like the engine's: costs from the expected-cost model's range,
/// utilities from the retrained classifiers' range.
fn instance(n_claims: usize, n_sections: usize, seed: u64) -> (Document, Vec<ClaimChoice>) {
    let mut state = seed;
    let sections: Vec<Section> = (0..n_sections)
        .map(|id| Section {
            id,
            title: format!("Section {id}"),
            sentence_count: 40 + (lcg(&mut state) * 210.0) as usize,
            claim_ids: Vec::new(),
        })
        .collect();
    let mut document = Document {
        sections,
        total_sentences: 0,
    };
    document.total_sentences = document.sections.iter().map(|s| s.sentence_count).sum();
    let choices: Vec<ClaimChoice> = (0..n_claims)
        .map(|id| {
            let section = (lcg(&mut state) * n_sections as f64) as usize % n_sections;
            document.sections[section].claim_ids.push(id);
            ClaimChoice {
                id,
                section,
                cost: 30.0 + lcg(&mut state) * 90.0,
                utility: 0.5 + lcg(&mut state) * 5.5,
            }
        })
        .collect();
    (document, choices)
}

fn bench_planner(c: &mut Criterion) {
    let config = SystemConfig::default();
    let mut cold_group = c.benchmark_group("planner_cold");
    cold_group.sample_size(10);
    let mut summaries: Vec<(usize, f64, f64, f64, f64)> = Vec::new();

    for n in [100usize, 1_000, 10_000] {
        let (document, choices) = instance(n, 8 + n / 250, 41 * n as u64 + 1);
        let budget = batch_budget(&choices, &config);

        // ---- objective parity, asserted before anything is timed --------
        let ilp = select_batch(&choices, &document, OrderingStrategy::Ilp, budget, &config);
        let greedy = select_batch(
            &choices,
            &document,
            OrderingStrategy::Greedy,
            budget,
            &config,
        );
        let serial = select_batch_serial_baseline(&choices, &document, budget, &config);
        let serial_utility = batch_utility(&serial, &choices);
        // Ilp dominates Greedy unconditionally (the selection takes a
        // post-hoc max against the full-pool greedy), so this is exact
        assert!(
            ilp.utility >= greedy.utility - 1e-9,
            "{n} claims: ILP {} must match or beat greedy {}",
            ilp.utility,
            greedy.utility
        );
        // vs the cold baseline the guarantee is gap-relative: the
        // planning solver trades up to its 1 % optimality gap for early
        // termination (on the shipped instances it wins outright — the
        // printed summary shows the margin)
        assert!(
            ilp.utility >= serial_utility * 0.99 - 1e-9,
            "{n} claims: ILP {} below the cold baseline {} beyond the gap",
            ilp.utility,
            serial_utility
        );

        // ---- criterion timings ------------------------------------------
        cold_group.bench_with_input(BenchmarkId::new("cold_baseline", n), &n, |b, _| {
            b.iter(|| {
                black_box(select_batch_serial_baseline(
                    black_box(&choices),
                    &document,
                    budget,
                    &config,
                ))
            })
        });
        cold_group.bench_with_input(BenchmarkId::new("seeded", n), &n, |b, _| {
            b.iter(|| {
                black_box(select_batch(
                    black_box(&choices),
                    &document,
                    OrderingStrategy::Ilp,
                    budget,
                    &config,
                ))
            })
        });
        cold_group.bench_with_input(BenchmarkId::new("greedy", n), &n, |b, _| {
            b.iter(|| {
                black_box(select_batch(
                    black_box(&choices),
                    &document,
                    OrderingStrategy::Greedy,
                    budget,
                    &config,
                ))
            })
        });

        // ---- headline ratios (criterion lines do not compare) -----------
        let rounds = 3;
        let timed = |f: &mut dyn FnMut()| {
            let start = Instant::now();
            for _ in 0..rounds {
                f();
            }
            start.elapsed().as_secs_f64() / rounds as f64
        };
        let serial_s = timed(&mut || {
            black_box(select_batch_serial_baseline(
                &choices, &document, budget, &config,
            ));
        });
        let seeded_s = timed(&mut || {
            black_box(select_batch(
                &choices,
                &document,
                OrderingStrategy::Ilp,
                budget,
                &config,
            ));
        });
        summaries.push((n, serial_s, seeded_s, ilp.utility, serial_utility));
    }
    cold_group.finish();

    println!("planner: cold baseline vs seeded solve");
    for (n, serial_s, seeded_s, ilp_u, serial_u) in &summaries {
        println!(
            "  {n:>6} claims: baseline {:>8.2} ms | seeded {:>8.2} ms ({:.2}x) | \
             objective {:.1} vs baseline {:.1}",
            serial_s * 1e3,
            seeded_s * 1e3,
            serial_s / seeded_s,
            ilp_u,
            serial_u,
        );
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = bench_planner
}
criterion_main!(benches);
