//! End-to-end benchmark of the splash4 workspace.
//!
//! ```text
//! bash e2ebench/run.sh --workload <suite|churn|serve|report> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process drives one workload through the public API of the workspace
//! crates, checks every output, and prints as its last stdout line one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0`
//! the metrics are the end-to-end ones; with `--trace 1` the run measures
//! half its time untraced and half traced, and reports the per-layer
//! metrics, per-layer self time and the tracing overhead, and writes the
//! spans to `.e2ebench/`. A wrong output is a failed operation and makes the
//! command exit 1 naming the workload. `README.md` says why each workload
//! exists and which end-to-end metric each layer metric should move.

mod churn;
mod report;
mod serve;
mod spans;
mod stats;
mod suite;

use spans::{Recorder, LAYERS};
use splash4_parmacs::Json;
use std::process::{Command, ExitCode};
use std::time::Instant;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Suite,
    Churn,
    Serve,
    Report,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::Suite,
        Workload::Churn,
        Workload::Serve,
        Workload::Report,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::Suite => "suite",
            Workload::Churn => "churn",
            Workload::Serve => "serve",
            Workload::Report => "report",
        }
    }

    fn measure(self, opts: &Opts, rec: Option<&Recorder>) -> Measured {
        match self {
            Workload::Suite => suite::measure(opts, rec),
            Workload::Churn => churn::measure(opts, rec),
            Workload::Serve => serve::measure(opts, rec),
            Workload::Report => report::measure(opts, rec),
        }
    }
}

/// Command-line options.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub nproc: usize,
}

impl Opts {
    fn parse(args: &[String]) -> Result<Opts, String> {
        let mut workload = None;
        let (mut seed, mut seconds, mut trace) = (None, None, false);
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::ALL
                            .into_iter()
                            .find(|w| w.name() == value)
                            .ok_or_else(|| {
                                format!("unknown workload '{value}' (suite, churn, serve, report)")
                            })?,
                    )
                }
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s = value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s.is_finite()) {
                        return Err("--seconds must be positive".into());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    }
                }
                _ => return Err(format!("unknown option {flag}")),
            }
        }
        Ok(Opts {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        })
    }

    /// Team size for the native workloads: two, or fewer CPUs if that is
    /// all there is.
    pub fn threads(&self) -> usize {
        self.nproc.min(2)
    }
}

/// A metric's name, unit and direction, as `BENCHMARK.json` lists it.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
}

impl Spec {
    pub fn new(name: String, unit: &'static str, better: &'static str) -> Spec {
        Spec { name, unit, better }
    }
}

/// The end-to-end metrics, reported by every workload.
fn end_to_end_specs() -> Vec<Spec> {
    vec![
        Spec::new("setup_s".into(), "s", "lower"),
        Spec::new("wall_s".into(), "s", "lower"),
        Spec::new("ops_per_s".into(), "1/s", "higher"),
        Spec::new("latency_p50_ms".into(), "ms", "lower"),
        Spec::new("latency_tail_ms".into(), "ms", "lower"),
    ]
}

/// The per-layer metrics of every workload; a traced run reports all of
/// them, and a layer its workload never calls reads 0.
fn per_layer_specs() -> Vec<Spec> {
    let mut v = suite::specs();
    v.extend(churn::specs());
    v.extend(serve::specs());
    v.extend(report::specs());
    v.extend(
        LAYERS
            .iter()
            .map(|l| Spec::new(format!("self_s.{l}"), "s", "lower")),
    );
    v.push(Spec::new("trace.overhead_s".into(), "s", "lower"));
    v
}

/// What measuring one workload produced.
#[derive(Debug, Default)]
pub struct Measured {
    /// Each set-up repetition, seconds.
    pub setup_s: Vec<f64>,
    /// Each pass: seconds and operations completed.
    pub passes: Vec<(f64, u64)>,
    pub attempted: u64,
    pub failed: u64,
    /// One line per wrong output.
    pub failures: Vec<String>,
    /// Each operation's latency, milliseconds.
    pub latency_ms: Vec<f64>,
    /// The percentile `latency_tail_ms` reports.
    pub tail_q: f64,
    pub layers: Vec<(String, f64)>,
}

/// Run `setup` `reps` times; return each repetition's seconds and the last
/// result (earlier ones are dropped).
pub fn repeat_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (Vec<f64>, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let t0 = Instant::now();
        let value = setup();
        times.push(t0.elapsed().as_secs_f64());
        last = Some(value);
    }
    (times, last.expect("at least one repetition"))
}

/// Run whole passes until `seconds` have gone by and at least `min_passes`
/// ran. `pass` returns the operations it completed; the result is each
/// pass's `(seconds, operations)`.
pub fn timed_passes(
    seconds: f64,
    min_passes: usize,
    mut pass: impl FnMut() -> u64,
) -> Vec<(f64, u64)> {
    let start = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < min_passes.max(1) || start.elapsed().as_secs_f64() < seconds {
        let t0 = Instant::now();
        let ops = pass();
        passes.push((t0.elapsed().as_secs_f64(), ops));
    }
    passes
}

/// Where and on what the run happened.
fn host_block(seed: u64, nproc: usize) -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let run = |cmd: &str, args: &[&str]| {
        Command::new(cmd)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    // Only a checkout that is itself a repository has a revision; asking
    // git elsewhere would report an enclosing repository's.
    let rev = if std::path::Path::new(".git").exists() {
        run("git", &["rev-parse", "HEAD"])
    } else {
        "unknown".into()
    };
    Json::Object(vec![
        ("nproc".into(), Json::Num(nproc as f64)),
        ("cpu_model".into(), Json::Str(cpu)),
        ("rustc".into(), Json::Str(run("rustc", &["--version"]))),
        ("git_rev".into(), Json::Str(rev)),
        ("seed".into(), Json::Num(seed as f64)),
    ])
}

fn metric(value: f64, unit: &str) -> Json {
    assert!(value.is_finite(), "metric value {value} is not finite");
    Json::Object(vec![
        ("value".into(), Json::Num(value)),
        ("unit".into(), Json::Str(unit.into())),
    ])
}

impl Measured {
    fn wall_s(&self) -> f64 {
        stats::median(&self.passes.iter().map(|p| p.0).collect::<Vec<_>>())
    }

    /// The end-to-end metrics, in `end_to_end_specs` order. Throughput is
    /// the median over passes, so a burst of host noise moves it as little
    /// as it moves `wall_s`.
    fn end_to_end(&self) -> Vec<f64> {
        let rates: Vec<f64> = self
            .passes
            .iter()
            .map(|&(s, n)| stats::ratio(n as f64, s))
            .collect();
        vec![
            stats::median(&self.setup_s),
            self.wall_s(),
            stats::median(&rates),
            stats::median(&self.latency_ms),
            stats::quantile(&self.latency_ms, self.tail_q),
        ]
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match Opts::parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let host = host_block(opts.seed, opts.nproc);
    println!("host {host}");

    let (measured, metrics) = if opts.trace {
        traced(&opts, &host)
    } else {
        untraced(&opts)
    };

    let correct = measured.failures.is_empty();
    let result = Json::Object(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Num(measured.attempted as f64)),
        ("failed".into(), Json::Num(measured.failed as f64)),
        ("metrics".into(), Json::Object(metrics)),
    ]);
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        for f in &measured.failures {
            eprintln!("e2ebench: workload {}: {f}", opts.workload.name());
        }
        eprintln!(
            "e2ebench: workload {}: {} of {} operations produced wrong output",
            opts.workload.name(),
            measured.failed,
            measured.attempted
        );
        ExitCode::FAILURE
    }
}

/// A run of `--trace 0`: the end-to-end metrics.
fn untraced(opts: &Opts) -> (Measured, Vec<(String, Json)>) {
    let m = opts.workload.measure(opts, None);
    let metrics = end_to_end_specs()
        .into_iter()
        .zip(m.end_to_end())
        .map(|(s, v)| (s.name, metric(v, s.unit)))
        .collect();
    let q = |q: f64| stats::quantile(&m.latency_ms, q);
    println!(
        "samples {} passes, {} latencies, tail = p{}; p90 {} ms, p95 {} ms, p99 {} ms, max {} ms",
        m.passes.len(),
        m.latency_ms.len(),
        m.tail_q * 100.0,
        q(0.9),
        q(0.95),
        q(0.99),
        q(1.0)
    );
    (m, metrics)
}

/// A run of `--trace 1`: half the time untraced, half traced; the
/// per-layer metrics, self time per layer and the tracing overhead.
fn traced(opts: &Opts, host: &Json) -> (Measured, Vec<(String, Json)>) {
    let half = Opts {
        seconds: opts.seconds / 2.0,
        ..opts.clone()
    };
    let base = opts.workload.measure(&half, None);
    let rec = Recorder::new();
    let traced = opts.workload.measure(&half, Some(&rec));
    let self_s = rec.self_seconds();
    let mut values: Vec<(String, f64)> = traced.layers.clone();
    values.extend(
        LAYERS
            .iter()
            .map(|l| (format!("self_s.{l}"), self_s.get(l).copied().unwrap_or(0.0))),
    );
    values.push(("trace.overhead_s".into(), traced.wall_s() - base.wall_s()));
    let metrics = per_layer_specs()
        .into_iter()
        .map(|s| {
            let v = values
                .iter()
                .find(|(n, _)| *n == s.name)
                .map_or(0.0, |(_, v)| *v);
            (s.name, metric(v, s.unit))
        })
        .collect();
    if let Err(e) = write_spans(opts, host, &rec) {
        eprintln!("e2ebench: could not write spans: {e}");
    }
    let merged = Measured {
        attempted: base.attempted + traced.attempted,
        failed: base.failed + traced.failed,
        failures: base.failures.into_iter().chain(traced.failures).collect(),
        ..Measured::default()
    };
    (merged, metrics)
}

fn write_spans(opts: &Opts, host: &Json, rec: &Recorder) -> std::io::Result<()> {
    let dir = std::path::Path::new(".e2ebench");
    std::fs::create_dir_all(dir)?;
    let doc = Json::Object(vec![
        ("host".into(), host.clone()),
        ("workload".into(), Json::Str(opts.workload.name().into())),
        ("spans".into(), rec.to_json()),
    ]);
    let path = dir.join(format!(
        "spans-{}-seed{}.json",
        opts.workload.name(),
        opts.seed
    ));
    std::fs::write(&path, doc.to_string())?;
    println!("spans {}", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root lists exactly the metrics
    /// this program prints, with the same units and directions. On drift
    /// the failure prints the list the program expects.
    #[test]
    fn benchmark_json_matches_the_metrics_printed() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
            .expect("parse");
        for (key, specs) in [
            ("end_to_end", end_to_end_specs()),
            ("per_layer", per_layer_specs()),
        ] {
            let listed: Vec<(String, String, String)> = doc
                .get(key)
                .and_then(Json::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| {
                        m.get(k)
                            .and_then(Json::as_str)
                            .expect("string field")
                            .to_string()
                    };
                    (s("name"), s("unit"), s("better"))
                })
                .collect();
            let want: Vec<(String, String, String)> = specs
                .iter()
                .map(|s| (s.name.clone(), s.unit.into(), s.better.into()))
                .collect();
            let lines: Vec<String> = want
                .iter()
                .map(|(n, u, b)| {
                    format!(r#"    {{"name": "{n}", "unit": "{u}", "better": "{b}"}}"#)
                })
                .collect();
            assert!(
                listed == want,
                "{key} drifted from the program, which prints:\n{}",
                lines.join(",\n")
            );
        }
    }

    #[test]
    fn options_parse_and_reject() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let o =
            Opts::parse(&args("--workload churn --seed 4 --seconds 10 --trace 1")).expect("valid");
        assert_eq!(
            (o.workload, o.seed, o.seconds, o.trace),
            (Workload::Churn, 4, 10.0, true)
        );
        assert!(Opts::parse(&args("--workload nope --seed 1 --seconds 1")).is_err());
        assert!(Opts::parse(&args("--workload suite --seconds 1")).is_err());
        assert!(Opts::parse(&args("--workload suite --seed 1 --seconds 0")).is_err());
    }
}
