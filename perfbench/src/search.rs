//! `search_quick` and `search_large`: preprocess and optimize a fixed set
//! of Clifford+T circuits with the best-first search at a fixed iteration
//! budget, one search thread, batch 1, against the committed libraries.

use crate::check::EquivalenceChecker;
use crate::trace::{SpanId, Tracer};
use crate::{median, sanitize, Outcome, Pass, Rng, Run, SetupSamples, SETUP_SAMPLES};
use quartz_bench::GateSetKind;
use quartz_circuits::suite::{build_clifford_t, quick_suite};
use quartz_ir::Circuit;
use quartz_opt::{
    preprocess_nam, preprocess_rigetti, LibraryCache, Optimizer, SearchConfig, SearchResult,
};
use quartz_serve::artifact_for;
use std::time::{Duration, Instant};

/// Which circuit set to optimize.
#[derive(Debug, Clone, Copy)]
pub enum Set {
    /// The eight quick-suite circuits on NAM at budget 40.
    Quick,
    /// The gf2^4..gf2^6 multipliers on NAM and two Rigetti translations,
    /// each for a few iterations. gf2^7 (21 qubits) is left out: checking
    /// its output by state-vector simulation takes ~50 s per run.
    Large,
}

const QUICK_BUDGET: usize = 40;
const LADDER_BUDGET: usize = 4;
const RIGETTI_BUDGET: usize = 3;

/// The search stops on its budget long before this.
const UNREACHABLE_TIMEOUT: Duration = Duration::from_secs(3600);

/// Highest total best cost accepted per pass: the total the search reaches
/// at these budgets. Any increase is a quality regression.
const QUICK_BEST_COST_LIMIT: usize = 844;
const LARGE_BEST_COST_LIMIT: usize = 1791;

struct Job {
    key: String,
    kind: GateSetKind,
    input: Circuit,
    budget: usize,
}

/// One searched circuit; times in seconds at the reference speed.
struct Done {
    preprocess_s: f64,
    optimize_s: f64,
    /// The factor that scaled the measured times (`Timing::scale`).
    scale: f64,
    result: SearchResult,
}

fn jobs(set: Set) -> Vec<Job> {
    let job = |name: &str, input: Circuit, kind, budget| Job {
        key: sanitize(name),
        kind,
        input,
        budget,
    };
    match set {
        Set::Quick => quick_suite()
            .into_iter()
            .map(|(name, input)| job(name, input, GateSetKind::Nam, QUICK_BUDGET))
            .collect(),
        Set::Large => {
            let ladder = ["gf2^4_mult", "gf2^5_mult", "gf2^6_mult"]
                .map(|name| (name, GateSetKind::Nam, LADDER_BUDGET));
            let rigetti =
                ["tof_5", "barenco_tof_3"].map(|name| (name, GateSetKind::Rigetti, RIGETTI_BUDGET));
            ladder
                .into_iter()
                .chain(rigetti)
                .map(|(name, kind, budget)| {
                    let input = build_clifford_t(name).expect("suite circuit");
                    job(name, input, kind, budget)
                })
                .collect()
        }
    }
}

fn preprocess(kind: GateSetKind, circuit: &Circuit) -> Circuit {
    match kind {
        GateSetKind::Rigetti => preprocess_rigetti(circuit),
        _ => preprocess_nam(circuit),
    }
}

/// Runs one search workload.
pub fn run(run: &Run, set: Set) -> Result<Outcome, String> {
    let mut jobs = jobs(set);
    Rng::new(run.seed).shuffle(&mut jobs);
    let tracer = &run.tracer;
    let root = tracer.begin("workload", &format!("{set:?}"), SpanId::NONE);

    let mut kinds: Vec<GateSetKind> = jobs.iter().map(|j| j.kind).collect();
    kinds.sort_by_key(|k| k.name());
    kinds.dedup();
    let open = |tracer: &Tracer| {
        tracer.span("library_open", "", root, |_| {
            let cache = LibraryCache::new();
            kinds
                .iter()
                .map(|&kind| cache.get_or_load(artifact_for(kind)).map(|lib| (kind, lib)))
                .collect::<Result<Vec<_>, _>>()
        })
    };
    let mut setup = SetupSamples::default();
    let libraries = setup
        .time(&run.speed, || open(tracer))
        .map_err(|e| format!("opening the committed libraries: {e}"))?;
    let index_for = |kind: GateSetKind| {
        let (_, library) = libraries
            .iter()
            .find(|(k, _)| *k == kind)
            .expect("opened above");
        library.shared_index()
    };

    let resample = |tracer: &Tracer| {
        for _ in 0..SETUP_SAMPLES {
            drop(setup.time(&run.speed, || open(tracer)));
        }
    };
    let measured = run.passes(resample, |tracer| {
        let pass = tracer.begin("pass", "", root);
        let mut done = Vec::with_capacity(jobs.len());
        for job in &jobs {
            let config = SearchConfig {
                timeout: UNREACHABLE_TIMEOUT,
                max_iterations: job.budget,
                batch_size: 1,
                num_threads: 1,
                profile: tracer.enabled(),
                ..SearchConfig::default()
            };
            let optimizer = Optimizer::with_index(index_for(job.kind), config);
            let ((preprocess_s, optimize_s, result), timing) = run.speed.time(|| {
                tracer.span("circuit", &job.key, pass, |span| {
                    let start = Instant::now();
                    let pre = tracer.span("preprocess", &job.key, span, |_| {
                        preprocess(job.kind, &job.input)
                    });
                    let preprocess_s = start.elapsed().as_secs_f64();
                    let start = Instant::now();
                    let result =
                        tracer.span("optimize", &job.key, span, |_| optimizer.optimize(&pre));
                    (preprocess_s, start.elapsed().as_secs_f64(), result)
                })
            });
            done.push(Done {
                preprocess_s: preprocess_s * timing.scale,
                optimize_s: optimize_s * timing.scale,
                scale: timing.scale,
                result,
            });
        }
        tracer.end(pass);
        done
    });
    tracer.end(root);
    let peak_rss_mb = run.peak_rss_mb();
    let (untraced, passes) = &measured;

    let setup_s = setup.median();
    let mut outcome = Outcome::new(setup_s, peak_rss_mb);
    let mut checker = EquivalenceChecker::new(run.seed);
    let limit = match set {
        Set::Quick => QUICK_BEST_COST_LIMIT,
        Set::Large => LARGE_BEST_COST_LIMIT,
    };
    for done in untraced.iter().chain(passes.iter()).map(|p| &p.out) {
        let mut total_best_cost = 0;
        for (job, d) in jobs.iter().zip(done) {
            outcome.attempted += 1;
            total_best_cost += d.result.best_cost;
            let r = &d.result;
            if r.iterations != job.budget {
                outcome.fail(format!(
                    "{}: search stopped after {} of {} iterations",
                    job.key, r.iterations, job.budget
                ));
            } else if r.fp_confirm_mismatches != 0 {
                outcome.fail(format!(
                    "{}: {} fp_confirm_mismatches",
                    job.key, r.fp_confirm_mismatches
                ));
            } else if let Err(why) = checker.check(&job.key, &job.input, &r.best_circuit) {
                outcome.fail(why);
            }
        }
        if total_best_cost > limit {
            outcome
                .problems
                .push(format!("total best cost {total_best_cost} exceeds {limit}"));
        }
    }
    println!(
        "  total best cost per pass: {}",
        passes[0]
            .out
            .iter()
            .map(|d| d.result.best_cost)
            .sum::<usize>()
    );

    if run.trace {
        layers(&mut outcome, &jobs, passes, setup_s);
        outcome.trace_overhead(&measured);
    } else {
        // The sum of each circuit's median time over the passes.
        let sum_of_medians = |f: &dyn Fn(&Done) -> f64| -> f64 {
            (0..jobs.len())
                .map(|j| median(&passes.iter().map(|p| f(&p.out[j])).collect::<Vec<_>>()))
                .sum()
        };
        outcome.wall_s = sum_of_medians(&|d| d.preprocess_s + d.optimize_s);
        outcome.raw_wall_s = sum_of_medians(&|d| (d.preprocess_s + d.optimize_s) / d.scale);
        outcome.passes = passes.len();
    }
    Ok(outcome)
}

/// The per-layer metrics of a traced run: times are medians over the
/// traced passes, counts (identical in every pass) come from the first.
fn layers(outcome: &mut Outcome, jobs: &[Job], passes: &[Pass<Vec<Done>>], open_s: f64) {
    let per_pass = |f: &dyn Fn(&Done) -> f64| -> f64 {
        let sums: Vec<f64> = passes.iter().map(|p| p.out.iter().map(f).sum()).collect();
        median(&sums)
    };
    outcome.layer("opt.library_open_s", open_s, "s");
    outcome.layer("opt.preprocess_s", per_pass(&|d| d.preprocess_s), "s");
    let optimize_s = per_pass(&|d| d.optimize_s);
    outcome.layer("opt.optimize_s", optimize_s, "s");
    for (i, job) in jobs.iter().enumerate() {
        let times: Vec<f64> = passes.iter().map(|p| p.out[i].optimize_s).collect();
        outcome.layer(format!("opt.optimize_s.{}", job.key), median(&times), "s");
    }
    let mut phase_sum = 0.0;
    for (i, (phase, _)) in quartz_opt::SearchProfile::default()
        .phases()
        .iter()
        .enumerate()
    {
        let secs = per_pass(&|d| d.result.profile.phases()[i].1 * d.scale);
        phase_sum += secs;
        outcome.layer(format!("opt.phase.{phase}_s"), secs, "s");
    }
    outcome.layer("opt.phase.unattributed_s", optimize_s - phase_sum, "s");

    let first = &passes[0].out;
    let count = |f: fn(&SearchResult) -> usize| first.iter().map(|d| f(&d.result)).sum::<usize>();
    type Counter = fn(&SearchResult) -> usize;
    let counts: [(&str, Counter); 15] = [
        ("iterations", |r| r.iterations),
        ("circuits_seen", |r| r.circuits_seen),
        ("match_attempts", |r| r.match_attempts),
        ("match_skips", |r| r.match_skips),
        ("ctx_derives", |r| r.ctx_derives),
        ("ctx_rebuilds", |r| r.ctx_rebuilds),
        ("matches_cached", |r| r.matches_cached),
        ("matches_recomputed", |r| r.matches_recomputed),
        ("cache_invalidate_nodes", |r| r.cache_invalidate_nodes),
        ("scoped_rematches", |r| r.scoped_rematches),
        ("dedup_hits", |r| r.dedup_hits),
        ("fp_fast_rejects", |r| r.fp_fast_rejects),
        ("materializations_deferred", |r| r.materializations_deferred),
        ("dequeue_materializations", |r| r.dequeue_materializations),
        ("fp_confirm_mismatches", |r| r.fp_confirm_mismatches),
    ];
    for (name, f) in counts {
        outcome.layer(format!("opt.{name}"), count(f) as f64, "count");
    }
    let ratio = |num: usize, base: usize| {
        if base == 0 {
            0.0
        } else {
            num as f64 / base as f64
        }
    };
    let (cached, recomputed) = (count(|r| r.matches_cached), count(|r| r.matches_recomputed));
    let (seen, dedup) = (count(|r| r.circuits_seen), count(|r| r.dedup_hits));
    let (attempts, skips) = (count(|r| r.match_attempts), count(|r| r.match_skips));
    outcome.layer(
        "opt.cache_hit_rate",
        ratio(cached, cached + recomputed),
        "ratio",
    );
    outcome.layer("opt.candidate_yield", ratio(seen, seen + dedup), "ratio");
    outcome.layer(
        "opt.dispatch_skip_rate",
        ratio(skips, attempts + skips),
        "ratio",
    );
    println!(
        "  cache_hit_rate base {} | candidate_yield base {} | dispatch_skip_rate base {}",
        cached + recomputed,
        seen + dedup,
        attempts + skips
    );
    outcome.layer(
        "opt.total_best_cost",
        count(|r| r.best_cost) as f64,
        "gates",
    );
}
