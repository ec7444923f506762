//! Criterion micro-benchmarks for the optimizer (paper §6): preprocessing,
//! the greedy baseline, short cost-based searches on benchmark circuits, and
//! the production engine against the reference oracle on QFT-8
//! (DESIGN.md §2.3).

use criterion::{criterion_group, criterion_main, Criterion};
use quartz_bench::{build_ecc_set, GateSetKind};
use quartz_circuits::{approximate_qft, suite};
use quartz_opt::{greedy_optimize, preprocess_nam, reference, Optimizer, SearchConfig};
use std::time::Duration;

fn bench_preprocessing(c: &mut Criterion) {
    let mut group = c.benchmark_group("preprocess");
    group.sample_size(10);
    for name in ["tof_3", "mod5_4", "rc_adder_6"] {
        let circuit = suite::build_clifford_t(name).unwrap();
        group.bench_function(name, |b| {
            b.iter(|| std::hint::black_box(preprocess_nam(&circuit).gate_count()))
        });
    }
    group.finish();
}

fn bench_greedy_baseline(c: &mut Criterion) {
    let circuit = suite::build_clifford_t("tof_5").unwrap();
    c.bench_function("greedy_baseline_tof_5", |b| {
        b.iter(|| std::hint::black_box(greedy_optimize(&circuit).0.gate_count()))
    });
}

fn bench_search_iterations(c: &mut Criterion) {
    let (ecc_set, _) = build_ecc_set(GateSetKind::Nam, 3, 2);
    let optimizer = Optimizer::from_ecc_set(
        &ecc_set,
        SearchConfig {
            timeout: Duration::from_secs(30),
            max_iterations: 5,
            ..SearchConfig::default()
        },
    );
    let circuit = preprocess_nam(&suite::build_clifford_t("tof_3").unwrap());
    let mut group = c.benchmark_group("search");
    group.sample_size(10);
    group.bench_function("tof_3_five_iterations", |b| {
        b.iter(|| std::hint::black_box(optimizer.optimize(&circuit).best_cost))
    });
    group.finish();
}

/// The production engine vs the reference oracle (Algorithm 2 written out
/// literally: linear scan, per-dequeue context rebuilds and full
/// re-matching, every candidate materialized and hashed from scratch) on
/// QFT-8. Outcomes are asserted identical; the printed counters show what
/// the index, the match cache, and the hash preview save.
fn bench_qft8_versus_oracle(c: &mut Criterion) {
    let (ecc_set, _) = build_ecc_set(GateSetKind::Nam, 2, 2);
    let qft = approximate_qft(8);
    let optimizer = Optimizer::from_ecc_set(
        &ecc_set,
        SearchConfig {
            timeout: Duration::from_secs(120),
            max_iterations: 8,
            ..SearchConfig::default()
        },
    );
    let oracle = || reference::optimize(optimizer.transformations(), optimizer.config(), &qft);

    let prod = optimizer.optimize(&qft);
    let naive = oracle();
    println!(
        "qft_8: production {} full passes (+{} skipped, {} scoped micro-runs, \
         {:.1}% cache hit rate), {} of {} duplicates fast-rejected, {} confirm \
         mismatches; oracle {} full passes; best cost {} vs {}",
        prod.match_attempts,
        prod.match_skips,
        prod.scoped_rematches,
        100.0 * prod.cache_hit_rate(),
        prod.fp_fast_rejects,
        prod.dedup_hits,
        prod.fp_confirm_mismatches,
        naive.match_attempts,
        prod.best_cost,
        naive.best_cost,
    );
    assert_eq!(
        (
            &prod.best_circuit,
            prod.iterations,
            prod.circuits_seen,
            prod.dedup_hits
        ),
        (
            &naive.best_circuit,
            naive.iterations,
            naive.circuits_seen,
            naive.dedup_hits
        ),
        "production and oracle outcomes must be bit-identical"
    );
    assert!(prod.match_attempts * 2 <= naive.match_attempts);
    assert_eq!(prod.fp_confirm_mismatches, 0);

    let mut group = c.benchmark_group("search_qft_8");
    group.sample_size(10);
    group.bench_function("production", |b| {
        b.iter(|| std::hint::black_box(optimizer.optimize(&qft).best_cost))
    });
    group.bench_function("reference_oracle", |b| {
        b.iter(|| std::hint::black_box(oracle().best_cost))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_preprocessing,
    bench_greedy_baseline,
    bench_search_iterations,
    bench_qft8_versus_oracle
);
criterion_main!(benches);
