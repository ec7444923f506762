//! The repository's benchmark: one workload per run, timed from outside
//! the layers it calls, with every output checked independently.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload search_quick --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Run from the repository root: the workload names, metric names and
//! units are read from `BENCHMARK.json` there, and the run fails unless it
//! prints exactly the metrics declared for its mode. `--trace 0` prints
//! the end-to-end metrics, measured with spans and engine profiling off;
//! `--trace 1` makes a separate traced run, prints the per-layer metrics
//! and writes its spans to `perfbench/traces/`. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//!
//! Every reported time is scaled to a reference machine speed by a
//! calibration kernel timed around each operation (see `calibrate`); the
//! raw times are printed beside them.

mod calibrate;
mod check;
mod generate;
mod search;
mod serve;
mod trace;

use calibrate::Speed;
use quartz_serve::json::{self, Json};
use std::cell::Cell;
use std::time::{Duration, Instant};
use trace::Tracer;

/// What one workload run measured.
pub struct Outcome {
    /// Median set-up time, seconds at the reference speed.
    pub setup_s: f64,
    /// Wall time of one pass over the workload's fixed job set, seconds at
    /// the reference speed: the median pass, or for workloads of unequal
    /// jobs the sum of each job's median time.
    pub wall_s: f64,
    /// `wall_s` from the raw times.
    pub raw_wall_s: f64,
    /// Untraced passes run.
    pub passes: usize,
    /// Peak resident memory over set-up and the first `MIN_PASSES`
    /// passes (`Run::peak_rss_mb`).
    pub peak_rss_mb: f64,
    /// Jobs attempted (circuits, requests, libraries) over all passes.
    pub attempted: usize,
    /// Jobs whose output failed its check.
    pub failed: usize,
    /// Why the run is incorrect, if it is.
    pub problems: Vec<String>,
    /// Per-layer metrics (traced runs only): name, value, unit.
    pub layers: Vec<Metric>,
}

impl Outcome {
    /// An outcome with nothing attempted yet.
    pub fn new(setup_s: f64, peak_rss_mb: f64) -> Outcome {
        Outcome {
            setup_s,
            wall_s: 0.0,
            raw_wall_s: 0.0,
            passes: 0,
            peak_rss_mb,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            layers: Vec::new(),
        }
    }

    /// Records the tracing overhead: median traced pass over the untraced
    /// pass of a traced run.
    pub fn trace_overhead<T>(&mut self, (untraced, passes): &Passes<T>) {
        let traced = median(&passes.iter().map(|p| p.secs).collect::<Vec<_>>());
        let ratio = untraced.as_ref().map_or(0.0, |u| traced / u.secs);
        self.layer("trace.overhead", ratio, "ratio");
    }

    /// Records a failed job.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.problems.push(why);
    }

    /// Adds a per-layer metric.
    pub fn layer(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.layers.push((name.into(), value, unit));
    }
}

/// One timed pass.
pub struct Pass<T> {
    /// Wall time, seconds at the reference speed.
    pub secs: f64,
    /// The factor that scaled it (`Timing::scale`).
    pub scale: f64,
    /// What the pass returned.
    pub out: T,
}

/// The untraced pass of a traced run, and the measured passes.
pub type Passes<T> = (Option<Pass<T>>, Vec<Pass<T>>);

/// A measured metric: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// Settings every workload receives.
pub struct Run {
    /// The workload seed: same seed, same inputs.
    pub seed: u64,
    /// How long the passes may take together.
    pub budget: Duration,
    /// Spans and engine profiling on.
    pub trace: bool,
    /// The span recorder (a no-op unless `trace`).
    pub tracer: Tracer,
    /// A disabled recorder, for untraced passes of a traced run.
    pub untraced: Tracer,
    /// Times every measured operation against the calibration kernel.
    pub speed: Speed,
    /// `Speed::peak_rss_mb` read after the `MIN_PASSES`-th measured pass.
    peak_mb: Cell<f64>,
}

impl Run {
    /// Runs `pass` until another pass would overrun the budget, at least
    /// `MIN_PASSES` times, returning each pass's scaled wall time and
    /// result. `pass` records
    /// its spans on the tracer it is given, and profiles the engine when
    /// that tracer is enabled. In a traced run one untraced pass comes
    /// first, so the tracing overhead is measured in the same process; it
    /// is returned separately. `between` runs, untimed, before the first
    /// pass, before any pass that starts `BETWEEN_INTERVAL` or more after
    /// its previous call, and after the last pass: workloads sample their
    /// set-up there, so the samples spread over the whole run.
    pub fn passes<T>(
        &self,
        mut between: impl FnMut(&Tracer),
        mut pass: impl FnMut(&Tracer) -> T,
    ) -> Passes<T> {
        let start = Instant::now();
        let mut last_between: Option<Instant> = None;
        let mut timed = |tracer: &Tracer| {
            if last_between.is_none_or(|at| at.elapsed() >= BETWEEN_INTERVAL) {
                between(tracer);
                last_between = Some(Instant::now());
            }
            let (out, timing) = self.speed.time(|| pass(tracer));
            let pass = Pass {
                secs: timing.scaled_s(),
                scale: timing.scale,
                out,
            };
            (pass, timing.raw_s)
        };
        let untraced = self.trace.then(|| timed(&self.untraced).0);
        let (first, mut last_raw_s) = timed(&self.tracer);
        let mut passes = vec![first];
        while passes.len() < MIN_PASSES
            || start.elapsed().as_secs_f64() + last_raw_s <= self.budget.as_secs_f64()
        {
            let (pass, raw_s) = timed(&self.tracer);
            passes.push(pass);
            last_raw_s = raw_s;
            if passes.len() == MIN_PASSES {
                self.peak_mb.set(self.speed.peak_rss_mb());
            }
        }
        between(&self.tracer);
        (untraced, passes)
    }

    /// Peak resident memory over set-up and the first `MIN_PASSES` passes,
    /// MiB. Later passes can raise it a little (the allocator keeps what
    /// earlier ones freed), and how many passes fit in a run depends on
    /// the machine's speed, so the peak is read at a fixed pass.
    pub fn peak_rss_mb(&self) -> f64 {
        self.peak_mb.get()
    }
}

/// Passes every run makes, however long they take.
const MIN_PASSES: usize = 2;

/// Shortest time between two calls of the `between` of `Run::passes`.
const BETWEEN_INTERVAL: Duration = Duration::from_secs(2);

/// Set-up samples taken at each point between passes.
pub const SETUP_SAMPLES: usize = 3;

/// Samples of a set-up operation. A workload times its set-up again
/// between passes across the whole run; `setup_s` is the median of every
/// sample.
#[derive(Default)]
pub struct SetupSamples(Vec<f64>);

impl SetupSamples {
    /// Runs `f` once and records its scaled time.
    pub fn time<T>(&mut self, speed: &Speed, f: impl FnOnce() -> T) -> T {
        let (out, timing) = speed.time(f);
        self.0.push(timing.scaled_s());
        out
    }

    /// The median sample, seconds at the reference speed.
    pub fn median(&self) -> f64 {
        median(&self.0)
    }
}

/// A small seeded generator (splitmix64).
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// Median of `values` (mean of the middle two for even counts); 0 if empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` (in `(0, 100]`) of `values`; 0 if empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `name` with every character outside `[A-Za-z0-9_.-]` replaced by `-`.
pub fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-') {
                c
            } else {
                '-'
            }
        })
        .collect()
}

/// A size line of `/proc/self/status` (`VmRSS`, `VmHWM`, ...), MiB; 0 if
/// it cannot be read.
pub fn resident_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The metric and workload declarations of `BENCHMARK.json`.
struct Spec {
    workloads: Vec<(String, String)>,
    end_to_end: Vec<(String, String)>,
    per_layer: Vec<(String, String)>,
}

impl Spec {
    fn load(path: &str) -> Result<Spec, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let root = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let pairs = |key: &str, second: &str| -> Result<Vec<(String, String)>, String> {
            root.get(key)
                .and_then(Json::as_array)
                .ok_or_else(|| format!("{path}: missing array '{key}'"))?
                .iter()
                .map(|entry| {
                    let field = |f: &str| {
                        entry
                            .get(f)
                            .and_then(Json::as_str)
                            .map(str::to_string)
                            .ok_or_else(|| format!("{path}: an entry of '{key}' lacks '{f}'"))
                    };
                    Ok((field("name")?, field(second)?))
                })
                .collect()
        };
        Ok(Spec {
            workloads: pairs("workloads", "why")?,
            end_to_end: pairs("end_to_end", "unit")?,
            per_layer: pairs("per_layer", "unit")?,
        })
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?
            .parse()
            .map_err(|_| format!("{flag} must be a whole number"))
    };
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not '{other}'")),
    };
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(Args {
        workload: value("--workload")?.to_string(),
        seed: number("--seed")?,
        seconds,
        trace,
    })
}

/// Per-layer metric prefixes each workload must print; a declared metric
/// under another prefix reads 0 (its layer is not exercised). Per-circuit
/// `opt.optimize_s.<circuit>` rows are printed for the workload's own
/// circuits only.
fn layer_prefixes(workload: &str) -> &'static [&'static str] {
    match workload {
        "search_quick" | "search_large" => &["opt.", "trace."],
        "serve_mixed" => &["serve.", "opt.library_open_s", "trace."],
        _ => &["gen.", "trace."],
    }
}

fn main() {
    match run() {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

fn run() -> Result<String, String> {
    let args = parse_args()?;
    let spec = Spec::load("BENCHMARK.json")?;
    let why = spec
        .workloads
        .iter()
        .find(|(name, _)| *name == args.workload)
        .map(|(_, why)| why.clone())
        .ok_or_else(|| {
            format!(
                "workload '{}' is not declared in BENCHMARK.json",
                args.workload
            )
        })?;
    println!("workload {} (seed {}): {why}", args.workload, args.seed);

    let run = Run {
        seed: args.seed,
        budget: Duration::from_secs(args.seconds),
        trace: args.trace,
        tracer: Tracer::new(args.trace, format!("{}-seed{}", args.workload, args.seed)),
        untraced: Tracer::new(false, String::new()),
        speed: Speed::new(),
        peak_mb: Cell::new(0.0),
    };
    let mut outcome = match args.workload.as_str() {
        "search_quick" => search::run(&run, search::Set::Quick)?,
        "search_large" => search::run(&run, search::Set::Large)?,
        "serve_mixed" => serve::run(&run)?,
        "generate_libraries" => generate::run(&run)?,
        other => return Err(format!("no implementation for workload '{other}'")),
    };

    let (declared, produced): (&[(String, String)], Vec<Metric>) = if args.trace {
        outcome.layer("trace.spans", run.tracer.len() as f64, "count");
        let self_times = run.tracer.self_times();
        for (name, secs) in &self_times {
            println!("  self time {name:<12} {secs:>10.4} s");
        }
        write_trace(&args, &run.tracer)?;
        (&spec.per_layer, std::mem::take(&mut outcome.layers))
    } else {
        (
            &spec.end_to_end,
            vec![
                ("setup_s".to_string(), outcome.setup_s, "s"),
                ("wall_s".to_string(), outcome.wall_s, "s"),
                ("peak_rss_mb".to_string(), outcome.peak_rss_mb, "MiB"),
            ],
        )
    };
    if !args.trace {
        println!(
            "  {} passes; wall {:.4} s as measured",
            outcome.passes, outcome.raw_wall_s,
        );
    }
    let kernels = run.speed.kernels();
    println!(
        "  calibration kernel: {} runs, median {:.2} ms (min {:.2}, max {:.2}); reference {:.2} ms",
        kernels.len(),
        median(&kernels) * 1e3,
        kernels.iter().copied().fold(f64::INFINITY, f64::min) * 1e3,
        kernels.iter().copied().fold(0.0, f64::max) * 1e3,
        calibrate::REFERENCE_S * 1e3,
    );

    // Self-check: exactly the declared metrics, each with its declared unit.
    let prefixes = layer_prefixes(&args.workload);
    let mut metrics = Vec::new();
    for (name, unit) in declared {
        let value = match produced.iter().find(|(n, _, _)| n == name) {
            Some((_, value, got)) if *got == unit => *value,
            Some((_, _, got)) => {
                return Err(format!("{name} printed in {got}, declared in {unit}"))
            }
            None if args.trace
                && (!prefixes.iter().any(|p| name.starts_with(p))
                    || name.starts_with("opt.optimize_s.")) =>
            {
                0.0
            }
            None => {
                return Err(format!(
                    "{name} is declared but {} did not measure it",
                    args.workload
                ))
            }
        };
        println!("  {name:<36} {value:>14.6} {unit}");
        metrics.push((
            name.clone(),
            Json::Object(vec![
                ("value".to_string(), Json::Float(value)),
                ("unit".to_string(), Json::Str(unit.clone())),
            ]),
        ));
    }
    if let Some((name, _, _)) = produced
        .iter()
        .find(|(n, _, _)| !declared.iter().any(|(d, _)| d == n))
    {
        return Err(format!(
            "{name} is measured but not declared in BENCHMARK.json"
        ));
    }

    for problem in &outcome.problems {
        eprintln!("check failed: {problem}");
    }
    println!(
        "  failed_share {} / {} = {:.4}",
        outcome.failed,
        outcome.attempted,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    let result = Json::Object(vec![
        (
            "correct".to_string(),
            Json::Bool(outcome.problems.is_empty()),
        ),
        (
            "attempted".to_string(),
            Json::Int(outcome.attempted as i128),
        ),
        ("failed".to_string(), Json::Int(outcome.failed as i128)),
        ("metrics".to_string(), Json::Object(metrics)),
    ]);
    Ok(result.to_string())
}

/// Writes the span log to `perfbench/traces/<workload>-seed<seed>.json`.
fn write_trace(args: &Args, tracer: &Tracer) -> Result<(), String> {
    let dir = std::path::Path::new("perfbench/traces");
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-seed{}.json", args.workload, args.seed));
    std::fs::write(&path, tracer.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("  spans written to {}", path.display());
    Ok(())
}
