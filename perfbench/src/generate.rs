//! `generate_libraries`: regenerate the committed NAM and Rigetti
//! libraries anew — RepGen with verification, pruning, packing with the
//! prebuilt index, and a full audit without the verified-cache — and
//! require each to be byte-identical to its committed `libraries/*.qtzl`.
//!
//! The IBM library (four parameters) is left out. Its regeneration is one
//! 15 s call into `Generator::run`, and on a shared host the same call
//! took 15.0 s to 23.6 s within four minutes. A calibration kernel timed
//! only before and after so long a call does not follow the drift inside
//! it (scaled times spread further than raw ones), while the ~0.1 s
//! NAM + Rigetti pass is timed hundreds of times a run.

use crate::trace::{SpanId, Tracer};
use crate::{median, Outcome, Rng, Run, SetupSamples, SETUP_SAMPLES};
use quartz_bench::GateSetKind;
use quartz_gen::{prune, AuditConfig, Auditor, GenConfig, GenStats, Generator, Library};
use quartz_serve::artifact_for;
use std::time::Instant;

/// The regenerated committed libraries: gate set and (n, q, m).
const LIBRARIES: [(GateSetKind, usize, usize, usize); 2] =
    [(GateSetKind::Nam, 3, 2, 2), (GateSetKind::Rigetti, 2, 2, 2)];

const STAGES: [&str; 5] = ["repgen", "verify", "prune", "pack", "audit"];

/// One regenerated library.
struct Built {
    /// Seconds per stage, in `STAGES` order (`verify` is inside `repgen`),
    /// scaled to the reference speed by the pass's factor once the pass
    /// has ended.
    stage_s: [f64; 5],
    stats: GenStats,
    /// Whether the packed bytes equal the committed file's. Compared in
    /// the pass (a few microseconds) so that a run holds no pass's bytes:
    /// the pass count varies, and the peak memory must not with it.
    identical: bool,
    classes: usize,
    transformations: usize,
    audit_errors: usize,
}

/// Runs the generation workload.
pub fn run(run: &Run) -> Result<Outcome, String> {
    let tracer = &run.tracer;
    let root = tracer.begin("workload", "generate_libraries", SpanId::NONE);
    let mut libraries = LIBRARIES.to_vec();
    Rng::new(run.seed).shuffle(&mut libraries);
    let name = |kind: GateSetKind| kind.name().to_ascii_lowercase();

    // Set-up: read and decode the committed artifacts the output is
    // compared against.
    let load = |tracer: &Tracer| {
        tracer.span("reference_load", "", root, |_| {
            libraries
                .iter()
                .map(|&(kind, ..)| {
                    let path = artifact_for(kind);
                    let bytes =
                        std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
                    Library::from_bytes(&bytes).map_err(|e| format!("{}: {e}", path.display()))?;
                    Ok(bytes)
                })
                .collect::<Result<Vec<Vec<u8>>, String>>()
        })
    };
    let mut setup = SetupSamples::default();
    let references = setup.time(&run.speed, || load(tracer))?;

    let auditor = Auditor::new(AuditConfig {
        threads: 1,
        ..AuditConfig::default()
    });
    let resample = |tracer: &Tracer| {
        for _ in 0..SETUP_SAMPLES {
            drop(setup.time(&run.speed, || load(tracer)));
        }
    };
    let mut measured = run.passes(resample, |tracer| {
        let pass = tracer.begin("pass", "", root);
        let mut built = Vec::with_capacity(libraries.len());
        for (&(kind, n, q, m), reference) in libraries.iter().zip(&references) {
            let label = name(kind);
            built.push(tracer.span("library", &label, pass, |span| {
                let gate_set = kind.gate_set();
                let start = Instant::now();
                let (raw, stats) = tracer.span("repgen", &label, span, |_| {
                    Generator::new(gate_set.clone(), GenConfig::standard(n, q, m)).run()
                });
                let repgen_s = start.elapsed().as_secs_f64();
                let t = Instant::now();
                let (pruned, _) = tracer.span("prune", &label, span, |_| prune(&raw));
                let prune_s = t.elapsed().as_secs_f64();
                let (classes, transformations) = (pruned.len(), pruned.num_transformations());
                let t = Instant::now();
                let (library, bytes) = tracer.span("pack", &label, span, |_| {
                    let library = Library::new(gate_set.name(), pruned, true);
                    let bytes = library.to_bytes();
                    (library, bytes)
                });
                let pack_s = t.elapsed().as_secs_f64();
                let t = Instant::now();
                let report = tracer.span("audit", &label, span, |_| {
                    auditor.audit_set(
                        library.ecc_set(),
                        &library.header().gate_set,
                        library.index(),
                        None,
                    )
                });
                let audit_s = t.elapsed().as_secs_f64();
                Built {
                    stage_s: [
                        repgen_s,
                        stats.verification_time.as_secs_f64(),
                        prune_s,
                        pack_s,
                        audit_s,
                    ],
                    stats,
                    identical: bytes == *reference,
                    classes,
                    transformations,
                    audit_errors: report.errors(),
                }
            }));
        }
        tracer.end(pass);
        built
    });
    tracer.end(root);
    let peak_rss_mb = run.peak_rss_mb();
    let (untraced, passes) = &mut measured;
    for pass in untraced.iter_mut().chain(passes.iter_mut()) {
        for built in &mut pass.out {
            built.stage_s.iter_mut().for_each(|s| *s *= pass.scale);
        }
    }
    let (untraced, passes) = &measured;

    let mut outcome = Outcome::new(setup.median(), peak_rss_mb);
    for built in untraced.iter().chain(passes.iter()).map(|p| &p.out) {
        for (b, &(kind, ..)) in built.iter().zip(&libraries) {
            outcome.attempted += 1;
            if !b.identical {
                outcome.fail(format!(
                    "{}: regenerated library differs from the committed one",
                    name(kind)
                ));
            } else if b.audit_errors != 0 {
                outcome.fail(format!(
                    "{}: audit found {} errors",
                    name(kind),
                    b.audit_errors
                ));
            }
        }
    }

    if run.trace {
        let per_pass = |f: &dyn Fn(&Built) -> f64| {
            median(
                &passes
                    .iter()
                    .map(|p| p.out.iter().map(f).sum())
                    .collect::<Vec<f64>>(),
            )
        };
        for (i, stage) in STAGES.iter().enumerate() {
            outcome.layer(format!("gen.{stage}_s"), per_pass(&|b| b.stage_s[i]), "s");
            for (j, &(kind, ..)) in libraries.iter().enumerate() {
                let times: Vec<f64> = passes.iter().map(|p| p.out[j].stage_s[i]).collect();
                outcome.layer(format!("gen.{stage}_s.{}", name(kind)), median(&times), "s");
            }
        }
        let first = &passes[0].out;
        let count = |f: fn(&Built) -> usize| first.iter().map(f).sum::<usize>() as f64;
        outcome.layer(
            "gen.circuits_considered",
            count(|b| b.stats.circuits_considered),
            "count",
        );
        outcome.layer(
            "gen.representatives",
            count(|b| b.stats.num_representatives),
            "count",
        );
        outcome.layer("gen.transformations", count(|b| b.transformations), "count");
        outcome.layer("gen.classes", count(|b| b.classes), "count");
        outcome.trace_overhead(&measured);
    } else {
        let pass_s: Vec<f64> = passes.iter().map(|p| p.secs).collect();
        outcome.wall_s = median(&pass_s);
        outcome.raw_wall_s = median(&passes.iter().map(|p| p.secs / p.scale).collect::<Vec<_>>());
        outcome.passes = passes.len();
    }
    Ok(outcome)
}
