//! `serve_mixed`: `quartz-serve` in process over loopback, driven by a
//! closed loop of at most `nproc` (and at most two) client threads, each
//! with one request outstanding. A pass sends a fixed mix in a seeded
//! order: quick-suite circuits on `nam`, `ibm` and `rigetti` for a few
//! iterations (interactive) and two NAM requests with budgets of 20 and
//! 40 (batch). Each request is submit → blocking `/v1/stream` until
//! terminal → result.

use crate::check::EquivalenceChecker;
use crate::trace::{SpanId, Tracer};
use crate::{median, percentile, sanitize, Outcome, Rng, Run, SetupSamples, SETUP_SAMPLES};
use quartz_circuits::suite::build_clifford_t;
use quartz_ir::qasm::{parse_qasm, to_qasm};
use quartz_ir::Circuit;
use quartz_opt::{LibraryCache, RequestState, SearchConfig};
use quartz_serve::{
    artifact_for, kind_for, Client, ClientError, Daemon, DaemonConfig, ResultResponse, Server,
    SubmitRequest,
};
use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::{Duration, Instant};

const INTERACTIVE_BUDGET: usize = 3;
/// Interactive circuits per gate set. IBM and Rigetti leave out the
/// circuits whose few iterations take seconds there (a 3-iteration
/// Rigetti `rc_adder_6` takes ~19 s), which would turn every pass into one
/// long request.
const INTERACTIVE: [(&str, &[&str]); 3] = [
    (
        "nam",
        &[
            "barenco_tof_3",
            "csla_mux_3",
            "mod5_4",
            "mod_mult_55",
            "rc_adder_6",
            "tof_3",
            "tof_5",
            "vbe_adder_3",
        ],
    ),
    (
        "ibm",
        &[
            "barenco_tof_3",
            "csla_mux_3",
            "mod5_4",
            "tof_3",
            "tof_5",
            "vbe_adder_3",
        ],
    ),
    ("rigetti", &["tof_3"]),
];
const BATCH: [(&str, usize); 2] = [("tof_5", 40), ("barenco_tof_3", 20)];
const GATE_SETS: [&str; 3] = ["nam", "ibm", "rigetti"];

/// Direct opens of the three libraries timed for `opt.library_open_s`.
const LIBRARY_OPEN_REPS: usize = 9;

/// Highest total best cost accepted per pass of the mix.
const BEST_COST_LIMIT: usize = 1663;

struct Request {
    key: String,
    input: Circuit,
    submit: SubmitRequest,
    batch: bool,
}

/// What one request observed; times in milliseconds, scaled to the
/// reference speed by the pass's factor once the pass has ended.
struct Record {
    request: usize,
    latency_ms: f64,
    submit_ms: f64,
    wait_ms: f64,
    result_ms: f64,
    /// The pass's factor, for the server-reported `elapsed_ms`.
    scale: f64,
    answer: Result<ResultResponse, ClientError>,
}

impl Record {
    fn scale(&mut self, factor: f64) {
        self.scale = factor;
        for ms in [
            &mut self.latency_ms,
            &mut self.submit_ms,
            &mut self.wait_ms,
            &mut self.result_ms,
        ] {
            *ms *= factor;
        }
    }
}

fn mix() -> Vec<Request> {
    let request = |name: &str, gate_set: &str, budget: usize, batch: bool| {
        let input = build_clifford_t(name).expect("suite circuit");
        let mut submit = SubmitRequest::new(to_qasm(&input));
        submit.gate_set = gate_set.to_string();
        submit.budget = Some(budget);
        Request {
            key: format!("{gate_set}.{}.b{budget}", sanitize(name)),
            input,
            submit,
            batch,
        }
    };
    let mut mix: Vec<Request> = INTERACTIVE
        .iter()
        .flat_map(|&(gate_set, names)| names.iter().map(move |name| (gate_set, name)))
        .map(|(gate_set, name)| request(name, gate_set, INTERACTIVE_BUDGET, false))
        .collect();
    mix.extend(
        BATCH
            .iter()
            .map(|&(name, budget)| request(name, "nam", budget, true)),
    );
    mix
}

/// Boots a daemon, maps every gate set's library with one tiny request
/// each (submitted in process, so no connection threads are timed), and
/// binds the server — the daemon's state before traffic arrives.
fn boot(tracer: &Tracer, parent: SpanId) -> Result<Server, String> {
    tracer.span("boot", "", parent, |_| {
        let config = DaemonConfig {
            search: SearchConfig {
                timeout: Duration::from_secs(86_400),
                batch_size: 1,
                num_threads: 1,
                ..SearchConfig::default()
            },
            ..DaemonConfig::default()
        };
        let daemon = Daemon::new(config).map_err(|e| format!("daemon boot: {e}"))?;
        for gate_set in GATE_SETS {
            let mut warm = SubmitRequest::new("OPENQASM 2.0;\nqreg q[1];\nh q[0];\nh q[0];\n");
            warm.gate_set = gate_set.to_string();
            warm.budget = Some(1);
            let id = daemon
                .submit(&warm)
                .map_err(|e| format!("warm-up submit: {e}"))?;
            daemon.wait_terminal(id);
        }
        Server::bind("127.0.0.1:0", daemon).map_err(|e| format!("bind: {e}"))
    })
}

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// One request, submit to result, on `client`.
fn send(
    client: &Client,
    tracer: &Tracer,
    parent: SpanId,
    index: usize,
    request: &Request,
) -> Record {
    let span = tracer.begin("request", &request.key, parent);
    let start = Instant::now();
    let mut record = Record {
        request: index,
        latency_ms: 0.0,
        submit_ms: 0.0,
        wait_ms: 0.0,
        result_ms: 0.0,
        scale: 1.0,
        answer: Err(ClientError::Io(std::io::Error::other("not sent"))),
    };
    record.answer = (|| {
        let t = Instant::now();
        let id = tracer.span("submit", &request.key, span, |_| {
            client.submit(&request.submit)
        })?;
        record.submit_ms = ms(t);
        let t = Instant::now();
        tracer.span("stream", &request.key, span, |_| client.stream(id))?;
        record.wait_ms = ms(t);
        let t = Instant::now();
        let answer = tracer.span("result", &request.key, span, |_| client.result(id))?;
        record.result_ms = ms(t);
        Ok(answer)
    })();
    record.latency_ms = ms(start);
    tracer.end(span);
    record
}

/// Runs the serve workload.
pub fn run(run: &Run) -> Result<Outcome, String> {
    let tracer = &run.tracer;
    let root = tracer.begin("workload", "serve_mixed", SpanId::NONE);
    let mix = mix();
    let clients = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));

    let mut setup = SetupSamples::default();
    let server = setup.time(&run.speed, || boot(tracer, root))?;
    let client = Client::new(server.addr());

    let mut rng = Rng::new(run.seed);
    let mut boot_errors = Vec::new();
    // Set-up samples: more daemons booted and stopped between passes.
    let resample = |tracer: &Tracer| {
        for _ in 0..SETUP_SAMPLES {
            if let Err(e) = setup.time(&run.speed, || boot(tracer, root)) {
                boot_errors.push(e);
            }
        }
    };
    let mut measured = run.passes(resample, |tracer| {
        let pass = tracer.begin("pass", "", root);
        let mut order: Vec<usize> = (0..mix.len()).collect();
        rng.shuffle(&mut order);
        let queue = Mutex::new(VecDeque::from(order));
        let records = Mutex::new(Vec::with_capacity(mix.len()));
        std::thread::scope(|scope| {
            for _ in 0..clients {
                scope.spawn(|| loop {
                    let Some(index) = queue.lock().expect("queue poisoned").pop_front() else {
                        break;
                    };
                    let record = send(&client, tracer, pass, index, &mix[index]);
                    records.lock().expect("records poisoned").push(record);
                });
            }
        });
        tracer.end(pass);
        records.into_inner().expect("records poisoned")
    });
    tracer.end(root);
    let peak_rss_mb = run.peak_rss_mb();
    let (untraced, passes) = &mut measured;
    for pass in untraced.iter_mut().chain(passes.iter_mut()) {
        for record in &mut pass.out {
            record.scale(pass.scale);
        }
    }
    let (untraced, passes) = &measured;
    drop(server);

    let mut outcome = Outcome::new(setup.median(), peak_rss_mb);
    outcome.problems = boot_errors;
    let mut checker = EquivalenceChecker::new(run.seed);
    for records in untraced.iter().chain(passes.iter()).map(|p| &p.out) {
        let mut total_best_cost = 0;
        for record in records {
            outcome.attempted += 1;
            let request = &mix[record.request];
            if let Err(why) = check(&mut checker, request, &record.answer) {
                outcome.fail(why);
            }
            if let Ok(answer) = &record.answer {
                total_best_cost += answer.outcome.best_cost;
            }
        }
        if total_best_cost > BEST_COST_LIMIT {
            outcome.problems.push(format!(
                "total best cost {total_best_cost} exceeds {BEST_COST_LIMIT}"
            ));
        }
    }
    let pass_cost: usize = passes[0]
        .out
        .iter()
        .filter_map(|r| r.answer.as_ref().ok())
        .map(|a| a.outcome.best_cost)
        .sum();
    println!("  total best cost per pass: {pass_cost}; {clients} client connections");

    if run.trace {
        let all: Vec<&Record> = passes.iter().flat_map(|p| &p.out).collect();
        let answered: Vec<(&Record, &ResultResponse)> = all
            .iter()
            .filter_map(|r| r.answer.as_ref().ok().map(|a| (*r, a)))
            .collect();
        let p50 = |f: &dyn Fn(&(&Record, &ResultResponse)) -> f64| {
            median(&answered.iter().map(f).collect::<Vec<_>>())
        };
        let class_p50 = |batch: bool| p50_of(&answered, |(r, _)| mix[r.request].batch == batch);
        let rejected = all
            .iter()
            .filter(|r| matches!(&r.answer, Err(ClientError::Server { status: 429, .. })))
            .count();
        let traced_s: Vec<f64> = passes.iter().map(|p| p.secs).collect();
        let mut open = SetupSamples::default();
        for _ in 0..LIBRARY_OPEN_REPS {
            open.time(&run.speed, || {
                tracer.span("library_open", "", SpanId::NONE, |_| {
                    let cache = LibraryCache::new();
                    for gate_set in GATE_SETS {
                        let kind = kind_for(gate_set).expect("known gate set");
                        cache
                            .get_or_load(artifact_for(kind))
                            .expect("opened at boot");
                    }
                })
            });
        }
        let open_s = open.median();
        outcome.layer("opt.library_open_s", open_s, "s");
        outcome.layer("serve.submit_ms", p50(&|(r, _)| r.submit_ms), "ms");
        outcome.layer("serve.result_ms", p50(&|(r, _)| r.result_ms), "ms");
        outcome.layer("serve.wait_ms", p50(&|(r, _)| r.wait_ms), "ms");
        outcome.layer(
            "serve.search_ms",
            p50(&|(r, a)| a.elapsed_ms as f64 * r.scale),
            "ms",
        );
        outcome.layer(
            "serve.queueing_ms",
            p50(&|(r, a)| r.wait_ms - a.elapsed_ms as f64 * r.scale),
            "ms",
        );
        let latencies: Vec<f64> = answered.iter().map(|(r, _)| r.latency_ms).collect();
        outcome.layer("serve.latency_p50_ms", median(&latencies), "ms");
        outcome.layer("serve.latency_p90_ms", percentile(&latencies, 90.0), "ms");
        println!(
            "  latency over {} requests, {} beyond p90",
            latencies.len(),
            latencies.len() - (0.9 * latencies.len() as f64).ceil() as usize
        );
        outcome.layer("serve.interactive_p50_ms", class_p50(false), "ms");
        outcome.layer("serve.batch_p50_ms", class_p50(true), "ms");
        outcome.layer("serve.requests", all.len() as f64, "count");
        outcome.layer("serve.rejected", rejected as f64, "count");
        outcome.layer(
            "serve.errors",
            (all.len() - answered.len() - rejected) as f64,
            "count",
        );
        outcome.layer("serve.connections", clients as f64, "count");
        outcome.layer(
            "serve.requests_per_s",
            answered.len() as f64 / traced_s.iter().sum::<f64>(),
            "1/s",
        );
        outcome.layer("serve.total_best_cost", pass_cost as f64, "gates");
        outcome.trace_overhead(&measured);
    } else {
        let pass_s: Vec<f64> = passes.iter().map(|p| p.secs).collect();
        outcome.wall_s = median(&pass_s);
        outcome.raw_wall_s = median(&passes.iter().map(|p| p.secs / p.scale).collect::<Vec<_>>());
        outcome.passes = passes.len();
        // Failed requests are counted in `failed` (which makes the run
        // incorrect) and left out of the latency samples.
        let all: Vec<f64> = passes
            .iter()
            .flat_map(|p| &p.out)
            .filter(|r| r.answer.is_ok())
            .map(|r| r.latency_ms)
            .collect();
        println!(
            "  requests_per_s {:.3} | over all {} requests: p50 {:.1} ms, p90 {:.1} ms, p99 {:.1} ms",
            all.len() as f64 / pass_s.iter().sum::<f64>(),
            all.len(),
            median(&all),
            percentile(&all, 90.0),
            percentile(&all, 99.0)
        );
    }
    Ok(outcome)
}

fn p50_of(
    answered: &[(&Record, &ResultResponse)],
    keep: impl Fn(&(&Record, &ResultResponse)) -> bool,
) -> f64 {
    let values: Vec<f64> = answered
        .iter()
        .filter(|x| keep(x))
        .map(|(r, _)| r.latency_ms)
        .collect();
    median(&values)
}

/// A served answer is correct when the request finished on its budget with
/// a zero canary and its QASM is equivalent to the Clifford+T input.
fn check(
    checker: &mut EquivalenceChecker,
    request: &Request,
    answer: &Result<ResultResponse, ClientError>,
) -> Result<(), String> {
    let key = &request.key;
    let answer = answer.as_ref().map_err(|e| format!("{key}: {e}"))?;
    let budget = request.submit.budget.expect("every request has a budget");
    let outcome = &answer.outcome;
    if answer.state != RequestState::Done || outcome.iterations != budget {
        return Err(format!(
            "{key}: finished {} after {} of {budget} iterations",
            answer.state.name(),
            outcome.iterations
        ));
    }
    if outcome.fp_confirm_mismatches != 0 {
        return Err(format!(
            "{key}: {} fp_confirm_mismatches",
            outcome.fp_confirm_mismatches
        ));
    }
    let circuit = parse_qasm(&outcome.best_qasm)
        .map_err(|e| format!("{key}: best_qasm line {}: {}", e.line, e.message))?;
    checker.check(key, &request.input, &circuit)
}
