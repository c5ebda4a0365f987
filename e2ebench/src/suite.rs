//! `suite`: every registered workload under every sync generation, the
//! paper's path.
//!
//! One pass runs each (workload, mode) pair once at `InputClass::Small` on
//! `threads` threads, in an order drawn from the seed. An operation is one
//! `Workload::run` call: input generation, the parallel region (ROI) and the
//! kernel's own oracle.

use crate::spans::{span, Recorder};
use crate::stats::{median, ratio};
use crate::{repeat_setup, timed_passes, Measured, Opts, Spec};
use splash4_kernels::workload::{self, Workload};
use splash4_kernels::{close, InputClass};
use splash4_parmacs::{SmallRng, SyncEnv, SyncMode, SyncProfile};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Tolerance on checksum agreement across modes, as in
/// `tests/suite_validation.rs`.
const CHECKSUM_REL: f64 = 1e-6;
/// Passes per run at least: 48 runs a pass, so seven give the p90 33
/// samples beyond it, and enough runs near the median to keep it steady.
const MIN_PASSES: usize = 7;
const SETUP_REPS: usize = 3;
pub const TAIL_Q: f64 = 0.9;

/// One `Workload::run` as the benchmark saw it.
#[derive(Debug, Clone)]
pub struct RunRecord {
    pub workload: &'static str,
    pub mode: SyncMode,
    pub checksum: f64,
    pub validated: bool,
    /// `KernelResult.elapsed`.
    pub roi: Duration,
    /// The whole `Workload::run` call.
    pub wall: Duration,
    pub profile: SyncProfile,
}

/// Indexes of the runs whose output is wrong: not validated by the kernel,
/// or a checksum that disagrees with the first run of the same workload
/// (so every mode, and every pass, must produce the same answer).
pub fn failed_runs(runs: &[RunRecord]) -> Vec<usize> {
    let mut reference: BTreeMap<&str, f64> = BTreeMap::new();
    let mut failed = Vec::new();
    for (i, r) in runs.iter().enumerate() {
        let want = *reference.entry(r.workload).or_insert(r.checksum);
        if !r.validated || !r.checksum.is_finite() || !close(r.checksum, want, CHECKSUM_REL) {
            failed.push(i);
        }
    }
    failed
}

fn run_one(w: &dyn Workload, class: InputClass, mode: SyncMode, threads: usize) -> RunRecord {
    let env = SyncEnv::new(mode, threads);
    let t0 = Instant::now();
    let r = w.run(class, &env);
    RunRecord {
        workload: w.name(),
        mode,
        checksum: r.checksum,
        validated: r.validated,
        roi: r.elapsed,
        wall: t0.elapsed(),
        profile: r.profile,
    }
}

pub fn measure(opts: &Opts, rec: Option<&Recorder>) -> Measured {
    let threads = opts.threads();
    let mut rng = SmallRng::seed_from_u64(opts.seed);

    // Set-up: resolve the registry and warm every (workload, mode) pair on
    // the test-scale input.
    let (setup_s, suite) = repeat_setup(SETUP_REPS, || {
        let suite = workload::suite();
        for w in &suite {
            for mode in SyncMode::ALL {
                run_one(*w, InputClass::Test, mode, threads);
            }
        }
        suite
    });

    let mut plan: Vec<(usize, SyncMode)> = (0..suite.len())
        .flat_map(|w| SyncMode::ALL.map(|m| (w, m)))
        .collect();
    let mut runs: Vec<RunRecord> = Vec::new();
    let passes = timed_passes(opts.seconds, MIN_PASSES, || {
        shuffle(&mut plan, &mut rng);
        span(rec, "bench.suite_pass", None, None, |pass| {
            for (i, &(w, mode)) in plan.iter().enumerate() {
                let r = span(rec, "kernels.run", pass, Some(i as u64), |_| {
                    run_one(suite[w], InputClass::Small, mode, threads)
                });
                runs.push(r);
            }
        });
        plan.len() as u64
    });

    let bad = failed_runs(&runs);
    let failures = bad
        .iter()
        .map(|&i| {
            format!(
                "{} under {}: validated={} checksum={}",
                runs[i].workload, runs[i].mode, runs[i].validated, runs[i].checksum
            )
        })
        .collect();
    let npasses = passes.len();
    Measured {
        setup_s,
        passes,
        attempted: runs.len() as u64,
        failed: bad.len() as u64,
        failures,
        latency_ms: runs.iter().map(|r| r.wall.as_secs_f64() * 1e3).collect(),
        tail_q: TAIL_Q,
        layers: layers(&runs, npasses, threads),
    }
}

/// Fisher–Yates with the benchmark's seeded generator.
pub fn shuffle<T>(v: &mut [T], rng: &mut SmallRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..i + 1));
    }
}

fn layers(runs: &[RunRecord], passes: usize, threads: usize) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let per_pass = |x: f64| x / passes.max(1) as f64;
    for w in workload::known_names() {
        for mode in SyncMode::ALL {
            let roi: Vec<f64> = runs
                .iter()
                .filter(|r| r.workload == w && r.mode == mode)
                .map(|r| r.roi.as_secs_f64() * 1e3)
                .collect();
            out.push((format!("kernels.{w}.roi_ms.{mode}"), median(&roi)));
        }
    }
    let outside: f64 = runs
        .iter()
        .map(|r| r.wall.saturating_sub(r.roi).as_secs_f64())
        .sum();
    out.push(("kernels.outside_roi_s".into(), per_pass(outside)));
    let mut lock = SyncProfile::default();
    for mode in SyncMode::ALL {
        let mine: Vec<&RunRecord> = runs.iter().filter(|r| r.mode == mode).collect();
        let roi: f64 = mine.iter().map(|r| r.roi.as_secs_f64()).sum();
        let p = mine
            .iter()
            .fold(SyncProfile::default(), |acc, r| acc.merged(&r.profile));
        if mode == SyncMode::LockBased {
            lock = p;
        }
        let wait = p.total_wait_ns() as f64 * 1e-9;
        out.push((format!("roi_s.{mode}"), per_pass(roi)));
        out.push((format!("parmacs.sync_wait_s.{mode}"), per_pass(wait)));
        // The leftover of the team's time after measured waits; not
        // clamped, so a wait tally that outgrows the ROI shows.
        out.push((
            format!("parmacs.compute_s.{mode}"),
            per_pass(roi * threads as f64 - wait),
        ));
        out.push((
            format!("parmacs.cas_fail_per_rmw.{mode}"),
            ratio(p.cas_failures as f64, p.atomic_rmws as f64),
        ));
        if mode == SyncMode::Combining {
            out.push((
                "parmacs.combine_batch".into(),
                ratio(p.combine_ops as f64, p.combine_batches as f64),
            ));
        }
    }
    out.push((
        "parmacs.lock_contended_ratio".into(),
        ratio(lock.lock_contended as f64, lock.lock_acquires as f64),
    ));
    out
}

pub fn specs() -> Vec<Spec> {
    let mut v = Vec::new();
    for w in workload::known_names() {
        for mode in SyncMode::ALL {
            v.push(Spec::new(
                format!("kernels.{w}.roi_ms.{mode}"),
                "ms",
                "lower",
            ));
        }
    }
    v.push(Spec::new("kernels.outside_roi_s".into(), "s", "lower"));
    for mode in SyncMode::ALL {
        v.push(Spec::new(format!("roi_s.{mode}"), "s", "lower"));
        v.push(Spec::new(
            format!("parmacs.sync_wait_s.{mode}"),
            "s",
            "lower",
        ));
        v.push(Spec::new(format!("parmacs.compute_s.{mode}"), "s", "lower"));
        v.push(Spec::new(
            format!("parmacs.cas_fail_per_rmw.{mode}"),
            "ratio",
            "lower",
        ));
    }
    v.push(Spec::new(
        "parmacs.combine_batch".into(),
        "ops/batch",
        "higher",
    ));
    v.push(Spec::new(
        "parmacs.lock_contended_ratio".into(),
        "ratio",
        "lower",
    ));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(workload: &'static str, mode: SyncMode, checksum: f64) -> RunRecord {
        RunRecord {
            workload,
            mode,
            checksum,
            validated: true,
            roi: Duration::from_millis(1),
            wall: Duration::from_millis(2),
            profile: SyncProfile::default(),
        }
    }

    #[test]
    fn real_runs_pass_the_check() {
        let w = workload::find("fft").expect("fft is registered");
        let runs: Vec<RunRecord> = SyncMode::ALL
            .map(|m| run_one(w, InputClass::Test, m, 2))
            .to_vec();
        assert!(failed_runs(&runs).is_empty(), "{runs:?}");
    }

    #[test]
    fn a_wrong_checksum_fails_the_check() {
        let w = workload::find("fft").expect("fft is registered");
        let mut runs: Vec<RunRecord> = SyncMode::ALL
            .map(|m| run_one(w, InputClass::Test, m, 2))
            .to_vec();
        runs[2].checksum *= 1.0 + 1e-3;
        assert_eq!(failed_runs(&runs), vec![2]);
    }

    #[test]
    fn an_unvalidated_run_fails_the_check() {
        let mut runs = vec![
            record("lu", SyncMode::LockBased, 5.0),
            record("lu", SyncMode::LockFree, 5.0),
        ];
        runs[1].validated = false;
        assert_eq!(failed_runs(&runs), vec![1]);
    }
}
