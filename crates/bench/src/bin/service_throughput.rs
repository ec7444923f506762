//! Batch-service throughput driver: optimizes the NAM benchmark suite as
//! one batch through the `OptimizationService` and reports circuits/sec at
//! 1 worker thread vs. all available cores — plus the **startup cost** of
//! the two ways a service can come up:
//!
//! * *generate*: run RepGen + pruning + transformation extraction + index
//!   construction at startup (the historical path);
//! * *load*: read the committed `libraries/<set>_n<N>_q<Q>.qtzl` artifact —
//!   ECC payload and prebuilt index — through the `LibraryCache`
//!   (DESIGN.md §7).
//!
//! The search legs run the one production engine over the generated index
//! and assert its release gates: outcomes and effort bit-identical across
//! thread counts, a nonzero match-cache hit rate (DESIGN.md §8), at least
//! half of all duplicates rejected by the structural-hash preview before
//! materialization with a zero confirm-mismatch canary, and a nonzero
//! deferral count (DESIGN.md §9, §13). With `--with-oracle` the reference
//! oracle (`quartz_opt::reference`, Algorithm 2 written out literally)
//! re-runs the suite and every per-circuit outcome must equal the
//! production engine's — it costs many times the production wall-clock, so
//! the PR-gating `--quick` CI job omits it and the scheduled job passes the
//! flag.
//!
//! Results are also written to `BENCH_search.json` (see
//! `quartz_bench::report`) so CI archives one machine-readable perf
//! artifact per run and the trajectory is diffable across commits. The
//! search suites keep their historical `throughput/t<threads>/generated/
//! cached` and `profile/cached` keys so the committed baseline stays
//! comparable. With `--profile`, the single-thread run additionally records
//! a per-phase timing breakdown (match/delta/γ-precheck/preview/
//! canonicalize/fingerprint/dedup). Two micro-probes follow: seen-set probe
//! cost per hasher, and convexity-check cost of the windowed walk against
//! the dependency closure over the suite's root structural matches (with
//! identical verdicts asserted).
//!
//! Usage: `cargo run --release -p quartz-bench --bin service_throughput
//! [-- --quick | --scale full] [--timeout <secs>] [--n <n>] [--q <q>]
//! [--threads <t>] [--profile] [--with-oracle]`

use quartz_bench::report::{BenchReport, BENCH_SEARCH_FILE};
use quartz_bench::{build_ecc_set, library_artifact_path, GateSetKind, Scale};
use quartz_ir::{Circuit, DependencyClosure, NodeId};
use quartz_opt::{
    reference, LibraryCache, LoadedLibrary, MatchContext, OptimizationService, Optimizer,
    SearchConfig, SearchResult,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The engine-independent fields of a [`SearchResult`] — the search
/// *outcome*, identical across thread counts and between the production
/// engine and the reference oracle (the improvement trace is kept as its
/// cost sequence, timestamps stripped).
#[derive(Debug, PartialEq)]
struct OutcomeSummary {
    best_circuit: Circuit,
    best_cost: usize,
    initial_cost: usize,
    iterations: usize,
    circuits_seen: usize,
    dedup_hits: usize,
    trace_costs: Vec<usize>,
}

impl OutcomeSummary {
    fn of(result: &SearchResult) -> Self {
        OutcomeSummary {
            best_circuit: result.best_circuit.clone(),
            best_cost: result.best_cost,
            initial_cost: result.initial_cost,
            iterations: result.iterations,
            circuits_seen: result.circuits_seen,
            dedup_hits: result.dedup_hits,
            trace_costs: result.improvement_trace.iter().map(|&(_, c)| c).collect(),
        }
    }
}

/// The production engine's effort counters — identical across thread
/// counts (the search is deterministic), so a difference is a bug.
fn effort(result: &SearchResult) -> [usize; 13] {
    [
        result.match_attempts,
        result.match_skips,
        result.ctx_rebuilds,
        result.ctx_derives,
        result.matches_cached,
        result.matches_recomputed,
        result.cache_invalidate_nodes,
        result.scoped_rematches,
        result.fp_fast_rejects,
        result.fp_confirm_mismatches,
        result.materializations_deferred,
        result.dequeue_materializations,
        result.dedup_hits,
    ]
}

fn sum(results: &[SearchResult], field: impl Fn(&SearchResult) -> usize) -> usize {
    results.iter().map(field).sum()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let kind = GateSetKind::Nam;
    // `--quick` is the explicit spelling of the default scale (what the CI
    // bench-smoke job passes); Scale::from_args handles the rest.
    let scale = Scale::from_args(kind, &args);
    let profile_enabled = args.iter().any(|a| a == "--profile");
    let with_oracle = args.iter().any(|a| a == "--with-oracle");
    let max_threads = args
        .iter()
        .position(|a| a == "--threads")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        });
    let mut report = BenchReport::new("service_throughput");

    // -- Startup: generate-at-startup vs. load-a-committed-artifact --------
    let generate_start = Instant::now();
    let (ecc_set, _) = build_ecc_set(kind, scale.ecc_n, scale.ecc_q);
    let generated = Optimizer::from_ecc_set(&ecc_set, SearchConfig::default()).shared_index();
    let generate_startup = generate_start.elapsed();
    report
        .suite("startup")
        .metric("generate_secs", generate_startup.as_secs_f64());

    let artifact = library_artifact_path(kind, scale.ecc_n, scale.ecc_q);
    let loaded: Option<Arc<LoadedLibrary>> = match LibraryCache::new().get_or_load(&artifact) {
        Ok(library) => Some(library),
        Err(e) => {
            println!(
                "note: no loadable artifact for this scale ({e}); startup comparison skipped\n"
            );
            None
        }
    };

    println!("== Service startup: generate vs load ==");
    println!("{:>10} {:>12}   Detail", "Path", "Startup");
    println!(
        "{:>10} {:>12.2?}   RepGen + prune + extract + index build (n={}, q={})",
        "generate", generate_startup, scale.ecc_n, scale.ecc_q
    );
    if let Some(library) = &loaded {
        let load_startup = library.load_time();
        println!(
            "{:>10} {:>12.2?}   {} ({} transformations, index {})",
            "load",
            load_startup,
            library.path().display(),
            library.shared_index().len(),
            if library.index_was_prebuilt() {
                "prebuilt"
            } else {
                "rebuilt"
            }
        );
        let speedup = generate_startup.as_secs_f64() / load_startup.as_secs_f64().max(1e-9);
        println!(
            "{:>10} {:>11.1}x   faster startup from the artifact",
            "", speedup
        );
        report
            .suite("startup")
            .metric("load_secs", load_startup.as_secs_f64())
            .metric("load_speedup", speedup);
        assert!(
            load_startup.saturating_mul(10) <= generate_startup,
            "artifact load ({load_startup:?}) should be at least 10x faster than \
             generate-at-startup ({generate_startup:?})"
        );
        assert_eq!(
            library.shared_index().len(),
            generated.len(),
            "the committed artifact is stale: its index disagrees with the generator \
             (run `quartz-lib generate` to refresh it)"
        );
    }
    println!();

    let batch: Vec<Circuit> = scale
        .suite
        .iter()
        .map(|(_, clifford_t)| kind.preprocess(clifford_t))
        .collect();
    println!(
        "== Batch service throughput ({} scale: {} circuits, ECC n={}, q={}, \
         {} iterations/circuit) ==",
        scale.label,
        batch.len(),
        scale.ecc_n,
        scale.ecc_q,
        scale.max_iterations
    );

    let config = |threads: usize| -> SearchConfig {
        // The iteration budget must be the binding constraint: runs cut off
        // by the wall clock are legitimately thread-count-dependent, which
        // would void the bit-identicality assertion below. Leave the timeout
        // an order of magnitude above the per-circuit budgets.
        SearchConfig {
            timeout: scale.search_timeout.saturating_mul(10 * batch.len() as u32),
            max_iterations: scale.max_iterations,
            num_threads: threads,
            profile: profile_enabled,
            ..SearchConfig::default()
        }
    };

    let thread_counts: Vec<usize> = if max_threads > 1 {
        vec![1, max_threads]
    } else {
        vec![1]
    };
    println!(
        "{:>8} {:>12} {:>14} {:>10} {:>10} {:>8} {:>10}",
        "Threads", "Elapsed", "Circuits/sec", "Attempts", "HitRate", "Gates", "Speedup"
    );
    let mut baseline: Option<(f64, Vec<SearchResult>)> = None;
    for &threads in &thread_counts {
        let service = OptimizationService::new(Optimizer::with_index(
            Arc::clone(&generated),
            config(threads),
        ));
        let start = Instant::now();
        let results = service.optimize_batch(&batch);
        let secs = start.elapsed().as_secs_f64();
        let total: usize = results.iter().map(|r| r.best_cost).sum();
        let attempts = sum(&results, |r| r.match_attempts);
        let cached_total = sum(&results, |r| r.matches_cached);
        let recomputed_total = sum(&results, |r| r.matches_recomputed);
        let hit_rate = if cached_total + recomputed_total == 0 {
            0.0
        } else {
            cached_total as f64 / (cached_total + recomputed_total) as f64
        };
        match &baseline {
            None => {
                if profile_enabled {
                    let mut profile = quartz_opt::SearchProfile::default();
                    for r in &results {
                        profile.accumulate(&r.profile);
                    }
                    let suite = report.suite("profile/cached");
                    for (phase, phase_secs) in profile.phases() {
                        suite.metric(&format!("{phase}_secs"), phase_secs);
                    }
                    suite.metric("total_secs", profile.total().as_secs_f64());
                }
            }
            // Outcomes and effort are a pure function of the inputs, so
            // every thread count must reproduce the single-thread run.
            Some((_, expected)) => {
                for (i, (a, b)) in expected.iter().zip(&results).enumerate() {
                    assert_eq!(
                        (OutcomeSummary::of(a), effort(a)),
                        (OutcomeSummary::of(b), effort(b)),
                        "circuit {i}: {threads} threads diverged from the single-thread run"
                    );
                }
            }
        }
        let baseline_secs = baseline.as_ref().map_or(secs, |(s, _)| *s);
        println!(
            "{:>8} {:>12.2?} {:>14.2} {:>10} {:>9.1}% {:>8} {:>9.2}x",
            threads,
            Duration::from_secs_f64(secs),
            batch.len() as f64 / secs,
            attempts,
            100.0 * hit_rate,
            total,
            baseline_secs / secs
        );
        report
            .suite(&format!("throughput/t{threads}/generated/cached"))
            .metric("threads", threads as f64)
            .metric("wall_secs", secs)
            .metric("circuits_per_sec", batch.len() as f64 / secs)
            .metric("match_attempts", attempts as f64)
            .metric(
                "scoped_rematches",
                sum(&results, |r| r.scoped_rematches) as f64,
            )
            .metric("matches_cached", cached_total as f64)
            .metric("matches_recomputed", recomputed_total as f64)
            .metric("cache_hit_rate", hit_rate)
            .metric("dedup_hits", sum(&results, |r| r.dedup_hits) as f64)
            .metric(
                "fp_fast_rejects",
                sum(&results, |r| r.fp_fast_rejects) as f64,
            )
            .metric(
                "fp_confirm_mismatches",
                sum(&results, |r| r.fp_confirm_mismatches) as f64,
            )
            .metric(
                "materializations_deferred",
                sum(&results, |r| r.materializations_deferred) as f64,
            )
            .metric(
                "dequeue_materializations",
                sum(&results, |r| r.dequeue_materializations) as f64,
            )
            .metric("total_best_cost", total as f64);
        if baseline.is_none() {
            baseline = Some((secs, results));
        }
    }
    let (production_secs, production) = baseline.expect("the single-thread run ran");

    // Release gates: the match cache serves most match sites, the
    // structural-hash preview rejects at least half of the duplicates before
    // materialization with a zero confirm-mismatch canary, and first-sight
    // candidates are enqueued circuit-less — only dequeued ones materialize.
    let cached_total = sum(&production, |r| r.matches_cached);
    assert!(cached_total > 0, "cache hit rate must be nonzero");
    let dedup_hits = sum(&production, |r| r.dedup_hits);
    let fast_rejects = sum(&production, |r| r.fp_fast_rejects);
    let mismatches = sum(&production, |r| r.fp_confirm_mismatches);
    let deferred = sum(&production, |r| r.materializations_deferred);
    let dequeued = sum(&production, |r| r.dequeue_materializations);
    assert_eq!(
        mismatches, 0,
        "a structural-hash preview disagreed with its materialized confirmation"
    );
    assert!(
        fast_rejects * 2 >= dedup_hits,
        "the preview must reject at least half of all duplicates before \
         materialization: {fast_rejects} of {dedup_hits}"
    );
    assert!(deferred > 0, "candidates must be enqueued circuit-less");
    assert!(
        dequeued <= deferred,
        "deferral can only materialize a subset of what it enqueued: \
         {dequeued} dequeued vs {deferred} deferred"
    );
    report
        .suite("fp_acceptance")
        .metric("dedup_hits", dedup_hits as f64)
        .metric("fp_fast_rejects", fast_rejects as f64)
        .metric("fp_confirm_mismatches", mismatches as f64)
        .metric("materializations_deferred", deferred as f64)
        .metric("dequeue_materializations", dequeued as f64);
    println!(
        "\nStructural-hash dedup: {fast_rejects} of {dedup_hits} duplicates rejected \
         before materialization, 0 confirm mismatches; deferred {deferred} \
         admissions, materialized {dequeued} at dequeue"
    );

    // The reference oracle re-runs the suite from scratch — no index, cache,
    // derivation, preview, or deferral — and must reproduce every
    // per-circuit outcome of the production engine.
    if with_oracle {
        let optimizer = Optimizer::with_index(Arc::clone(&generated), config(1));
        let start = Instant::now();
        let oracle: Vec<SearchResult> = batch
            .iter()
            .map(|c| reference::optimize(optimizer.transformations(), optimizer.config(), c))
            .collect();
        let secs = start.elapsed().as_secs_f64();
        for (i, (prod, naive)) in production.iter().zip(&oracle).enumerate() {
            assert_eq!(
                OutcomeSummary::of(prod),
                OutcomeSummary::of(naive),
                "circuit {i}: the production engine diverged from the reference oracle"
            );
        }
        let oracle_attempts = sum(&oracle, |r| r.match_attempts);
        report
            .suite("oracle")
            .metric("wall_secs", secs)
            .metric("match_attempts", oracle_attempts as f64)
            .metric(
                "total_best_cost",
                oracle.iter().map(|r| r.best_cost).sum::<usize>() as f64,
            )
            .metric("wall_time_ratio_1thread", secs / production_secs.max(1e-9));
        println!(
            "Reference oracle: identical outcomes on all {} circuits in {:.2?} \
             ({:.1}x the production engine at 1 thread), {oracle_attempts} full \
             match passes vs {}",
            batch.len(),
            Duration::from_secs_f64(secs),
            secs / production_secs.max(1e-9),
            sum(&production, |r| r.match_attempts),
        );
    }

    // -- Seen-set probe cost: FxHash vs pass-through identity hashing ------
    // The seen-set keys are already finalized 64-bit hashes, so the set can
    // skip rehashing entirely (`IdentityHashSet`). Measure the probe cost of
    // both hashers over the same pre-mixed keys (half hits, half misses).
    {
        const KEYS: usize = 1 << 16;
        const PROBES: usize = 1 << 20;
        // splitmix64-style sequence: statistically mixed, deterministic.
        let key = |i: u64| -> u64 {
            let mut z = (i.wrapping_add(1)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut fx: quartz_ir::FxHashSet<u64> = Default::default();
        let mut identity = quartz_ir::IdentityHashSet::default();
        for i in 0..KEYS as u64 {
            fx.insert(key(i));
            identity.insert(key(i));
        }
        let bench = |name: &str, hits: &dyn Fn(u64) -> bool| -> f64 {
            let start = Instant::now();
            let mut found = 0usize;
            for p in 0..PROBES as u64 {
                // Even probes hit (key in range), odd probes miss.
                let i = if p % 2 == 0 {
                    p % KEYS as u64
                } else {
                    KEYS as u64 + p
                };
                if std::hint::black_box(hits(key(i))) {
                    found += 1;
                }
            }
            assert_eq!(found, PROBES / 2, "{name}: probe mix must be half hits");
            start.elapsed().as_secs_f64() / PROBES as f64
        };
        let fx_secs = bench("fx", &|k| fx.contains(&k));
        let id_secs = bench("identity", &|k| identity.contains(&k));
        println!(
            "\nSeen-set probe cost ({KEYS} keys, {PROBES} probes): \
             fx {:.1} ns, identity {:.1} ns ({:.2}x)",
            fx_secs * 1e9,
            id_secs * 1e9,
            fx_secs / id_secs.max(1e-12),
        );
        report
            .suite("seen_probe")
            .metric("fx_probe_secs", fx_secs)
            .metric("identity_probe_secs", id_secs)
            .metric("identity_speedup", fx_secs / id_secs.max(1e-12));
    }

    // -- Convexity check cost: windowed walk vs dependency closure ---------
    // The engine re-validates every cached match's convexity once per
    // expansion against a per-expansion dependency closure (DESIGN.md
    // §8.4). Time that against the per-region windowed walk over the same
    // regions — every root structural match of the suite — with the
    // closure build charged to the closure, and require identical verdicts.
    {
        let (mut regions, mut convex) = (0usize, 0usize);
        let (mut walk_secs, mut closure_secs) = (0.0f64, 0.0f64);
        for circuit in &batch {
            let ctx = MatchContext::new(circuit);
            let matches: Vec<Vec<NodeId>> = generated
                .candidates_for(ctx.dag().gate_histogram())
                .into_iter()
                .flat_map(|id| ctx.find_matches_structural(&generated.transformations()[id].target))
                .map(|m| m.instruction_map)
                .collect();
            let start = Instant::now();
            let walk: Vec<bool> = matches
                .iter()
                .map(|region| std::hint::black_box(ctx.dag().is_convex(region)))
                .collect();
            walk_secs += start.elapsed().as_secs_f64();
            let start = Instant::now();
            let closure = DependencyClosure::new(ctx.dag());
            let fast: Vec<bool> = matches
                .iter()
                .map(|region| std::hint::black_box(closure.is_convex(region)))
                .collect();
            closure_secs += start.elapsed().as_secs_f64();
            assert_eq!(
                walk, fast,
                "the dependency closure disagreed with the windowed walk on a convexity verdict"
            );
            regions += matches.len();
            convex += walk.iter().filter(|&&c| c).count();
        }
        println!(
            "\nConvexity checks ({regions} root structural matches, {convex} convex): \
             windowed walk {:.2?}, closure {:.2?} ({:.1}x), identical verdicts",
            Duration::from_secs_f64(walk_secs),
            Duration::from_secs_f64(closure_secs),
            walk_secs / closure_secs.max(1e-12),
        );
        report
            .suite("convexity_probe")
            .metric("regions_checked", regions as f64)
            .metric("convex_regions", convex as f64)
            .metric("walk_secs", walk_secs)
            .metric("closure_secs", closure_secs)
            .metric("closure_speedup", walk_secs / closure_secs.max(1e-12));
    }

    // Verifier query timings (paper §4): the same representative identities
    // `benches/verifier.rs` measures, recorded so the committed perf
    // artifact carries verification cost next to search cost. Keys are
    // timing-shaped (`_secs` / `_per_sec`), which `bench_diff` skips.
    println!("\n== Verifier query cost (paper §4) ==");
    let verifier_suite = report.suite("verifier");
    for (name, a, b) in quartz_bench::verifier_bench_pairs() {
        const QUERIES: u32 = 20;
        let start = Instant::now();
        for _ in 0..QUERIES {
            let mut verifier = quartz_verify::Verifier::default();
            assert!(
                std::hint::black_box(verifier.check(&a, &b).expect("bench pair must verify")),
                "{name}: bench pair must be equivalent"
            );
        }
        let secs = start.elapsed().as_secs_f64() / f64::from(QUERIES);
        println!("{name:>28} {:>12.3?}/query", Duration::from_secs_f64(secs));
        verifier_suite
            .metric(&format!("{name}_secs"), secs)
            .metric(&format!("{name}_per_sec"), 1.0 / secs.max(1e-12));
    }

    match report.write(BENCH_SEARCH_FILE) {
        Ok(()) => println!("Wrote {BENCH_SEARCH_FILE} ({} suites)", report.len()),
        Err(e) => println!("warning: could not write {BENCH_SEARCH_FILE}: {e}"),
    }
}
