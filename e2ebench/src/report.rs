//! `report`: regenerating the paper's report.
//!
//! One pass runs `run_experiment` over every id in `ALL_EXPERIMENTS`, in
//! that order, at `InputClass::Test` with native thread counts capped at
//! the CPU count. An operation is one experiment; its latency is the
//! median over the runs of it (see `CHEAP_RUNS`). A pass is far longer
//! than the other workloads' (the model-checking experiments dominate), so
//! a run always completes at least one whole pass, even past `--seconds`.

use crate::spans::{span, Recorder};
use crate::stats::{median, ratio};
use crate::{repeat_setup, timed_passes, Measured, Opts, Spec};
use splash4_harness::{run_experiment, BenchmarkId, ExperimentCtx, ALL_EXPERIMENTS};
use splash4_kernels::InputClass;
use splash4_parmacs::Json;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

const MIN_PASSES: usize = 1;
const SETUP_REPS: usize = 15;
/// Runs of each experiment that is not a model check: one in the timed
/// pass and the rest after it. Those 13 take about 6 s together; one run of
/// a 0.4 s experiment is as fast as the host happens to be in that second,
/// the median of three much less so. Untraced runs only, since a traced run
/// reports no latencies.
const CHEAP_RUNS: usize = 3;
/// The latencies are the 18 experiments' medians, so no percentile above
/// the median has ten samples beyond it; the tail reported is the slowest
/// experiment.
pub const TAIL_Q: f64 = 1.0;

/// Experiments whose tables are model-checking verdicts.
const CHECK_EXPERIMENTS: [&str; 5] = [
    "V1-check",
    "V2-kernel-check",
    "C1-combining",
    "R1-reclaim",
    "W1-weakmem",
];

/// The layer an experiment's time is charged to.
fn layer_of(id: &str) -> &'static str {
    if CHECK_EXPERIMENTS.contains(&id) {
        "check.experiment"
    } else if id == "F8-trace-replay" {
        "trace.experiment"
    } else {
        "harness.experiment"
    }
}

/// Schedules and executions a check experiment explored.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Explored {
    pub schedules: u64,
    pub executions: u64,
}

/// Check an experiment's payload. Every experiment must return `Ok`; in a
/// model-checking experiment every construct's verdict must be `pass`,
/// every mutant must be `detected`, and every `W1-weakmem` mutant must also
/// be `sc_missed`.
pub fn check_experiment(id: &str, result: &Result<Json, String>) -> Result<Explored, String> {
    let data = result.as_ref().map_err(|e| format!("failed: {e}"))?;
    let mut explored = Explored::default();
    if !CHECK_EXPERIMENTS.contains(&id) {
        return Ok(explored);
    }
    let rows = |key: &str| {
        data.get(key)
            .and_then(Json::as_array)
            .filter(|rows| !rows.is_empty())
            .ok_or_else(|| format!("no {key} table"))
    };
    let field = |row: &Json, key: &str| row.get(key).and_then(Json::as_u64).unwrap_or(0);
    for row in rows("constructs")? {
        let verdict = row
            .get("verdict")
            .and_then(Json::as_str)
            .unwrap_or("missing");
        if verdict != "pass" {
            let name = row.get("construct").and_then(Json::as_str).unwrap_or("?");
            return Err(format!("construct {name} has verdict {verdict}"));
        }
        explored.schedules += field(row, "schedules");
        explored.executions += field(row, "executions");
    }
    for row in rows("mutants")? {
        let name = row.get("mutant").and_then(Json::as_str).unwrap_or("?");
        if row.get("detected").and_then(Json::as_bool) != Some(true) {
            return Err(format!("mutant {name} not detected"));
        }
        if id == "W1-weakmem" && row.get("sc_missed").and_then(Json::as_bool) != Some(true) {
            return Err(format!("mutant {name} not missed by SC-only search"));
        }
        explored.schedules += field(row, "schedules");
        explored.executions += field(row, "executions");
    }
    Ok(explored)
}

/// `f`'s result, with a panic turned into an error that carries its
/// message: an experiment that crashes is a failed operation, and the pass
/// goes on to the next one.
fn caught<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        let what = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "a non-text payload".into());
        Err(format!("panicked: {what}"))
    })
}

fn context(nproc: usize) -> ExperimentCtx {
    let base = ExperimentCtx::default();
    ExperimentCtx {
        class: InputClass::Test,
        native_threads: base
            .native_threads
            .iter()
            .copied()
            .filter(|&t| t <= nproc)
            .collect(),
        ..base
    }
}

pub fn measure(opts: &Opts, rec: Option<&Recorder>) -> Measured {
    // Set-up: the context a regeneration shares across experiments, with
    // every workload's calibrated model computed once up front.
    let (setup_s, ctx) = repeat_setup(SETUP_REPS, || {
        let ctx = context(opts.nproc);
        for b in BenchmarkId::all() {
            ctx.work_model(b);
        }
        ctx
    });

    let mut times: Vec<(usize, f64)> = Vec::new();
    let mut failures = Vec::new();
    let mut explored = Explored::default();
    let mut check_s = 0.0;
    let mut run_one = |i: usize, parent: Option<u64>| {
        let id = ALL_EXPERIMENTS[i];
        let t0 = Instant::now();
        let result = span(rec, layer_of(id), parent, Some(i as u64), |_| {
            caught(|| run_experiment(id, &ctx).map(|r| r.json))
        });
        let secs = t0.elapsed().as_secs_f64();
        times.push((i, secs));
        match check_experiment(id, &result) {
            Ok(e) => {
                explored.schedules += e.schedules;
                explored.executions += e.executions;
            }
            Err(e) => failures.push(format!("{id}: {e}")),
        }
        if CHECK_EXPERIMENTS.contains(&id) {
            check_s += secs;
        }
    };
    let passes = timed_passes(opts.seconds, MIN_PASSES, || {
        span(rec, "bench.report_pass", None, None, |pass| {
            for i in 0..ALL_EXPERIMENTS.len() {
                run_one(i, pass);
            }
        });
        ALL_EXPERIMENTS.len() as u64
    });
    if !opts.trace {
        for _ in 1..CHEAP_RUNS {
            for (i, id) in ALL_EXPERIMENTS.iter().enumerate() {
                if !CHECK_EXPERIMENTS.contains(id) {
                    run_one(i, None);
                }
            }
        }
    }
    let npasses = passes.len() as u64;

    let per_experiment: Vec<f64> = (0..ALL_EXPERIMENTS.len())
        .map(|i| {
            let mine: Vec<f64> = times.iter().filter(|t| t.0 == i).map(|t| t.1).collect();
            median(&mine)
        })
        .collect();
    let mut layers: Vec<(String, f64)> = ALL_EXPERIMENTS
        .iter()
        .zip(&per_experiment)
        .map(|(id, &s)| (format!("report.{id}_s"), s))
        .collect();
    layers.push((
        "check.schedules_per_s".into(),
        ratio(explored.schedules as f64, check_s),
    ));
    layers.push((
        "check.executions".into(),
        (explored.executions / npasses) as f64,
    ));

    Measured {
        setup_s,
        passes,
        attempted: times.len() as u64,
        failed: failures.len() as u64,
        failures,
        latency_ms: per_experiment.iter().map(|s| s * 1e3).collect(),
        tail_q: TAIL_Q,
        layers,
    }
}

pub fn specs() -> Vec<Spec> {
    let mut v: Vec<Spec> = ALL_EXPERIMENTS
        .iter()
        .map(|id| Spec::new(format!("report.{id}_s"), "s", "lower"))
        .collect();
    v.push(Spec::new("check.schedules_per_s".into(), "1/s", "higher"));
    v.push(Spec::new("check.executions".into(), "count", "higher"));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_real_check_experiment_passes() {
        let ctx = context(2);
        let r = run_experiment("R1-reclaim", &ctx).map(|r| r.json);
        let e = check_experiment("R1-reclaim", &r).expect("R1 passes");
        assert!(e.schedules >= 1000 && e.executions >= e.schedules);
        let r = run_experiment("T1-inputs", &ctx).map(|r| r.json);
        assert_eq!(check_experiment("T1-inputs", &r), Ok(Explored::default()));
    }

    fn flip(v: &mut Json, key: &str, from: &Json, to: Json) -> bool {
        match v {
            Json::Object(fields) => {
                for (k, val) in fields.iter_mut() {
                    if k == key && val == from {
                        *val = to;
                        return true;
                    }
                    if flip(val, key, from, to.clone()) {
                        return true;
                    }
                }
                false
            }
            Json::Array(items) => items.iter_mut().any(|i| flip(i, key, from, to.clone())),
            _ => false,
        }
    }

    #[test]
    fn flipped_verdicts_fail_the_check() {
        let ctx = context(2);
        let good = run_experiment("R1-reclaim", &ctx).expect("R1 runs").json;

        let mut bad = good.clone();
        assert!(flip(
            &mut bad,
            "verdict",
            &Json::Str("pass".into()),
            Json::Str("FAIL".into())
        ));
        assert!(check_experiment("R1-reclaim", &Ok(bad)).is_err());

        let mut bad = good;
        assert!(flip(
            &mut bad,
            "detected",
            &Json::Bool(true),
            Json::Bool(false)
        ));
        assert!(check_experiment("R1-reclaim", &Ok(bad)).is_err());

        assert!(check_experiment("F1-native", &Err("boom".into())).is_err());
    }

    #[test]
    fn a_panicking_experiment_fails_its_check() {
        let result = caught::<Json>(|| panic!("boom"));
        assert_eq!(result, Err("panicked: boom".into()));
        assert!(check_experiment("T1-inputs", &result).is_err());
    }

    #[test]
    fn w1_mutants_must_be_sc_missed() {
        let mutant = |sc: bool| {
            Json::Object(vec![
                (
                    "constructs".into(),
                    Json::Array(vec![Json::Object(vec![(
                        "verdict".into(),
                        Json::Str("pass".into()),
                    )])]),
                ),
                (
                    "mutants".into(),
                    Json::Array(vec![Json::Object(vec![
                        ("detected".into(), Json::Bool(true)),
                        ("sc_missed".into(), Json::Bool(sc)),
                    ])]),
                ),
            ])
        };
        assert!(check_experiment("W1-weakmem", &Ok(mutant(true))).is_ok());
        assert!(check_experiment("W1-weakmem", &Ok(mutant(false))).is_err());
        assert!(check_experiment("R1-reclaim", &Ok(mutant(false))).is_ok());
    }
}
