//! Machine-readable benchmark reports (`BENCH_search.json`).
//!
//! The perf trajectory of the search engine is tracked from PR 5 onward:
//! every bench driver that measures the hot path emits a small JSON file —
//! `BENCH_search.json` by convention — so CI can archive one artifact per
//! run and regressions show up as diffs between artifacts rather than as
//! anecdotes in log output.
//!
//! A report is a flat two-level structure — named suites of named numeric
//! metrics — encoded and decoded through the workspace's one JSON codec,
//! [`quartz_gen::json`], in its pretty layout. Keys keep insertion order;
//! values are JSON numbers (integral values print without a fraction, and
//! non-finite values are encoded as `null` rather than producing invalid
//! JSON).
//!
//! ```
//! use quartz_bench::report::BenchReport;
//!
//! let mut report = BenchReport::new("service_throughput");
//! report
//!     .suite("startup")
//!     .metric("generate_secs", 1.25)
//!     .metric("load_secs", 0.004);
//! let json = report.to_json();
//! assert!(json.contains("\"generate_secs\": 1.25"));
//! ```

use quartz_gen::json::{self, Json};
use std::io;
use std::path::Path;

/// Conventional file name for the search-engine perf artifact.
pub const BENCH_SEARCH_FILE: &str = "BENCH_search.json";

/// One named group of metrics (a benchmark configuration, a table row, a
/// phase — whatever the driver measures as a unit).
#[derive(Debug, Clone, Default)]
pub struct BenchSuite {
    metrics: Vec<(String, f64)>,
}

impl BenchSuite {
    /// Records a metric, keeping insertion order; re-recording a key
    /// overwrites its value in place.
    pub fn metric(&mut self, key: &str, value: f64) -> &mut Self {
        match self.metrics.iter_mut().find(|(k, _)| k == key) {
            Some(slot) => slot.1 = value,
            None => self.metrics.push((key.to_string(), value)),
        }
        self
    }

    /// The recorded value of `key`, if any.
    pub fn get(&self, key: &str) -> Option<f64> {
        self.metrics.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }

    /// The metrics in insertion order.
    pub fn metrics(&self) -> impl Iterator<Item = (&str, f64)> {
        self.metrics.iter().map(|(k, v)| (k.as_str(), *v))
    }
}

/// A benchmark report: which driver produced it, and its metric suites.
#[derive(Debug, Clone)]
pub struct BenchReport {
    source: String,
    suites: Vec<(String, BenchSuite)>,
}

impl BenchReport {
    /// Creates an empty report attributed to `source` (the driver name).
    pub fn new(source: &str) -> Self {
        BenchReport {
            source: source.to_string(),
            suites: Vec::new(),
        }
    }

    /// The suite named `name`, created empty on first access.
    pub fn suite(&mut self, name: &str) -> &mut BenchSuite {
        if let Some(pos) = self.suites.iter().position(|(n, _)| n == name) {
            return &mut self.suites[pos].1;
        }
        self.suites.push((name.to_string(), BenchSuite::default()));
        &mut self.suites.last_mut().expect("just pushed").1
    }

    /// Number of suites recorded so far.
    pub fn len(&self) -> usize {
        self.suites.len()
    }

    /// Returns `true` when no suite has been recorded.
    pub fn is_empty(&self) -> bool {
        self.suites.is_empty()
    }

    /// Encodes the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let suites = self.suites.iter().map(|(name, suite)| {
            let metrics = suite.metrics.iter().map(|(key, value)| {
                // Integral values print without a fraction.
                let number = if *value == value.trunc() && value.abs() < 1e15 {
                    Json::Int(*value as i128)
                } else {
                    Json::Float(*value)
                };
                (key.clone(), number)
            });
            (name.clone(), Json::Object(metrics.collect()))
        });
        let report = Json::Object(vec![
            ("source".into(), Json::Str(self.source.clone())),
            ("schema_version".into(), Json::Int(1)),
            ("suites".into(), Json::Object(suites.collect())),
        ]);
        format!("{report:#}\n")
    }

    /// The driver name the report is attributed to.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// The suites in insertion order.
    pub fn suites(&self) -> impl Iterator<Item = (&str, &BenchSuite)> {
        self.suites.iter().map(|(n, s)| (n.as_str(), s))
    }

    /// The suite named `name`, if recorded (read-only counterpart of
    /// [`BenchReport::suite`]).
    pub fn get_suite(&self, name: &str) -> Option<&BenchSuite> {
        self.suites.iter().find(|(n, _)| n == name).map(|(_, s)| s)
    }

    /// Decodes a report from the JSON shape [`BenchReport::to_json`] emits —
    /// the flat two-level `source`/`schema_version`/`suites` structure with
    /// numeric (or `null`) metric values. `null` metrics decode as NaN,
    /// mirroring the encoder. Rejects anything structurally different (syntax
    /// errors carry their line, column and byte); unknown top-level keys are
    /// an error too, so a schema bump is loud rather than silently lossy.
    pub fn parse(text: &str) -> Result<BenchReport, String> {
        let Json::Object(members) = json::parse(text).map_err(|e| e.to_string())? else {
            return Err("expected a JSON object".to_string());
        };
        let mut source = None;
        let mut suites = Vec::new();
        for (key, value) in members {
            match (key.as_str(), value) {
                ("source", Json::Str(s)) => source = Some(s),
                ("schema_version", Json::Int(1)) => {}
                ("schema_version", other) => {
                    return Err(format!("unsupported schema_version {other}"))
                }
                ("suites", Json::Object(named)) => {
                    for (name, metrics) in named {
                        let Json::Object(metrics) = metrics else {
                            return Err(format!("suite {name:?} is not an object"));
                        };
                        let mut suite = BenchSuite::default();
                        for (metric, value) in metrics {
                            let value = match value {
                                Json::Int(i) => i as f64,
                                Json::Float(f) => f,
                                Json::Null => f64::NAN,
                                other => {
                                    return Err(format!("{name}/{metric} is not a number: {other}"))
                                }
                            };
                            suite.metric(&metric, value);
                        }
                        suites.push((name, suite));
                    }
                }
                (key, value) => {
                    return Err(format!("unexpected top-level member {key:?}: {value}"))
                }
            }
        }
        Ok(BenchReport {
            source: source.ok_or("missing \"source\"")?,
            suites,
        })
    }

    /// Writes the JSON encoding to `path`, replacing any previous report.
    pub fn write(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let path = path.as_ref();
        std::fs::write(path, self.to_json()).map_err(|e| {
            io::Error::new(
                e.kind(),
                format!("writing bench report {}: {e}", path.display()),
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_encodes_suites_in_insertion_order() {
        let mut report = BenchReport::new("unit-test");
        report
            .suite("throughput")
            .metric("circuits_per_sec", 12.5)
            .metric("threads", 4.0);
        report.suite("startup").metric("generate_secs", 0.75);
        assert_eq!(report.len(), 2);
        let json = report.to_json();
        assert!(json.contains("\"source\": \"unit-test\""));
        assert!(json.contains("\"schema_version\": 1"));
        assert!(json.contains("\"circuits_per_sec\": 12.5"));
        assert!(json.contains("\"threads\": 4"));
        let throughput = json.find("\"throughput\"").unwrap();
        let startup = json.find("\"startup\"").unwrap();
        assert!(throughput < startup, "insertion order must be preserved");
    }

    #[test]
    fn metrics_overwrite_in_place_and_read_back() {
        let mut report = BenchReport::new("x");
        report.suite("s").metric("k", 1.0).metric("k", 2.0);
        assert_eq!(report.suite("s").get("k"), Some(2.0));
        assert_eq!(report.suite("s").metrics.len(), 1);
    }

    #[test]
    fn strings_are_escaped_and_nonfinite_numbers_become_null() {
        let mut report = BenchReport::new("quo\"te\n");
        report.suite("s").metric("nan", f64::NAN);
        let json = report.to_json();
        assert!(json.contains("\"quo\\\"te\\n\""));
        assert!(json.contains("\"nan\": null"));
    }

    #[test]
    fn empty_report_is_valid_json_shape() {
        let report = BenchReport::new("none");
        assert!(report.is_empty());
        let json = report.to_json();
        assert!(json.contains("\"suites\": {}"));
    }

    #[test]
    fn parse_round_trips_the_encoder() {
        let mut report = BenchReport::new("round\"trip\n");
        report
            .suite("throughput/1")
            .metric("circuits_per_sec", 12.5)
            .metric("iterations", 320.0)
            .metric("nan", f64::NAN);
        report.suite("empty");
        let back = BenchReport::parse(&report.to_json()).unwrap();
        assert_eq!(back.source(), "round\"trip\n");
        assert_eq!(back.len(), 2);
        let suite = back.get_suite("throughput/1").unwrap();
        assert_eq!(suite.get("circuits_per_sec"), Some(12.5));
        assert_eq!(suite.get("iterations"), Some(320.0));
        assert!(suite.get("nan").unwrap().is_nan());
        assert!(back.get_suite("empty").unwrap().metrics().next().is_none());
        // An empty report round-trips too.
        let empty = BenchReport::new("none");
        assert_eq!(BenchReport::parse(&empty.to_json()).unwrap().len(), 0);
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(BenchReport::parse("").is_err());
        assert!(BenchReport::parse("{}").is_err(), "missing source");
        assert!(BenchReport::parse("{\"source\": \"x\"} trailing").is_err());
        assert!(
            BenchReport::parse("{\"source\": \"x\", \"extra\": 1}").is_err(),
            "unknown keys are loud"
        );
        assert!(
            BenchReport::parse("{\"source\": \"x\", \"schema_version\": 2, \"suites\": {}}")
                .is_err(),
            "future schema versions are loud"
        );
    }

    #[test]
    fn write_creates_the_file() {
        let mut report = BenchReport::new("writer");
        report.suite("s").metric("v", 3.25);
        let path = std::env::temp_dir().join("quartz_bench_report_test.json");
        report.write(&path).unwrap();
        let back = std::fs::read_to_string(&path).unwrap();
        assert_eq!(back, report.to_json());
        let _ = std::fs::remove_file(&path);
    }
}
