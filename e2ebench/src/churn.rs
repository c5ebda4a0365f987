//! `churn`: the reclamation layer under allocation churn.
//!
//! One pass runs one round on each `TaskPool` configuration ({Lifo, Fifo} ×
//! {Epoch, Hazard}) — every thread pushes its seeded values, popping after
//! each push, so every operation allocates or retires a node — then one
//! `cmap::run` at `InputClass::Native` in `splash4` mode with a seeded
//! operation stream. An operation is one push, one pop or one map
//! operation; the latency samples are the pool rounds' time per push+pop
//! pair, one per batch of pairs.

use crate::spans::{span, Recorder};
use crate::stats::ratio;
use crate::{repeat_setup, timed_passes, Measured, Opts, Spec};
use splash4_kernels::cmap::{self, CMapConfig};
use splash4_kernels::InputClass;
use splash4_parmacs::{SmallRng, SyncCounters, SyncEnv, SyncMode, Team};
use splash4_reclaim::{PoolShape, ReclaimKind, ReclaimStats, TaskPool};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Push+pop pairs per thread in one pool round.
const PAIRS_PER_THREAD: usize = 100_000;
/// Pairs are timed in batches of this many, and a batch's time over its
/// size is one latency sample: a lone pair takes well under a microsecond,
/// too close to the clock's own cost to time by itself.
const BATCH: usize = 64;
const MIN_PASSES: usize = 2;
const SETUP_REPS: usize = 5;
pub const TAIL_Q: f64 = 0.99;

pub const POOLS: [(PoolShape, ReclaimKind); 4] = [
    (PoolShape::Lifo, ReclaimKind::Epoch),
    (PoolShape::Lifo, ReclaimKind::Hazard),
    (PoolShape::Fifo, ReclaimKind::Epoch),
    (PoolShape::Fifo, ReclaimKind::Hazard),
];

fn pool_label(shape: PoolShape, kind: ReclaimKind) -> String {
    format!("{shape:?}_{kind:?}").to_ascii_lowercase()
}

/// What a pool round pushed and popped: `(count, wrapping sum)` of each,
/// plus the pool's reclamation tallies after a quiescent flush.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conservation {
    pub pushed: (u64, u64),
    pub popped: (u64, u64),
    pub reclaim: ReclaimStats,
}

/// Why a round's output is wrong, if it is: a value lost or invented, or a
/// retired node left unfreed at quiescence.
pub fn check_round(c: &Conservation) -> Result<(), String> {
    if c.pushed != c.popped {
        return Err(format!(
            "pushed (count {}, sum {}) but popped (count {}, sum {})",
            c.pushed.0, c.pushed.1, c.popped.0, c.popped.1
        ));
    }
    if c.reclaim.pending() != 0 {
        return Err(format!(
            "{} retired nodes still pending after flush at quiescence",
            c.reclaim.pending()
        ));
    }
    Ok(())
}

fn fold(values: impl IntoIterator<Item = u64>) -> (u64, u64) {
    values
        .into_iter()
        .fold((0, 0), |(n, s), v| (n + 1, s.wrapping_add(v)))
}

struct Round {
    conservation: Conservation,
    ops: u64,
    wall: Duration,
    /// Milliseconds per push+pop pair, one sample per batch.
    samples_ms: Vec<f64>,
}

/// One round: every thread pushes its values, popping after each push;
/// the calling thread then drains what is left and flushes.
fn pool_round(shape: PoolShape, kind: ReclaimKind, values: &[Vec<u64>]) -> Round {
    let threads = values.len();
    // One reclaimer slot per worker plus the draining caller.
    let pool = TaskPool::<u64>::new(shape, kind, threads + 1, Arc::new(SyncCounters::new()));
    let t0 = Instant::now();
    let per_thread = Team::new(threads).run_map(|ctx| {
        let mut popped = (0u64, 0u64);
        let mut samples = Vec::with_capacity(values[ctx.tid].len() / BATCH + 1);
        for batch in values[ctx.tid].chunks(BATCH) {
            let t = Instant::now();
            for &v in batch {
                pool.push(v);
                if let Some(x) = pool.pop() {
                    popped = (popped.0 + 1, popped.1.wrapping_add(x));
                }
            }
            samples.push(t.elapsed().as_secs_f64() * 1e3 / batch.len() as f64);
        }
        (popped, samples)
    });
    let mut popped = fold(std::iter::from_fn(|| pool.pop()));
    let wall = t0.elapsed();
    pool.flush();
    let mut samples_ms = Vec::new();
    for ((n, s), mut smp) in per_thread {
        popped = (popped.0 + n, popped.1.wrapping_add(s));
        samples_ms.append(&mut smp);
    }
    let pushed = fold(values.iter().flatten().copied());
    Round {
        conservation: Conservation {
            pushed,
            popped,
            reclaim: pool.reclaim_stats(),
        },
        ops: pushed.0 + popped.0,
        wall,
        samples_ms,
    }
}

pub fn measure(opts: &Opts, rec: Option<&Recorder>) -> Measured {
    let threads = opts.threads();
    let mut rng = SmallRng::seed_from_u64(opts.seed);

    // Set-up: draw every thread's values, then warm each pool configuration
    // on a tenth-size round.
    let (setup_s, values) = repeat_setup(SETUP_REPS, || {
        let values: Vec<Vec<u64>> = (0..threads)
            .map(|_| (0..PAIRS_PER_THREAD).map(|_| rng.next_u64() >> 1).collect())
            .collect();
        let warm: Vec<Vec<u64>> = values
            .iter()
            .map(|v| v[..PAIRS_PER_THREAD / 10].to_vec())
            .collect();
        for (shape, kind) in POOLS {
            pool_round(shape, kind, &warm);
        }
        values
    });

    let mut failures = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut latency_ms = Vec::new();
    // Per pool configuration: (ops, seconds, retires, scans).
    let mut pools = [(0u64, 0.0f64, 0u64, 0u64); 4];
    let (mut map_ops, mut map_roi_s, mut map_retires, mut map_scans) = (0u64, 0.0f64, 0u64, 0u64);
    let passes = timed_passes(opts.seconds, MIN_PASSES, || {
        let before = attempted;
        span(rec, "bench.churn_pass", None, None, |pass| {
            for (i, &(shape, kind)) in POOLS.iter().enumerate() {
                let r = span(rec, "reclaim.pool_round", pass, Some(i as u64), |_| {
                    pool_round(shape, kind, &values)
                });
                attempted += r.ops;
                if let Err(e) = check_round(&r.conservation) {
                    failed += r.ops;
                    failures.push(format!("{}: {e}", pool_label(shape, kind)));
                }
                latency_ms.extend(r.samples_ms);
                let p = &mut pools[i];
                p.0 += r.ops;
                p.1 += r.wall.as_secs_f64();
                p.2 += r.conservation.reclaim.retires;
                p.3 += r.conservation.reclaim.scans;
            }
            let cfg = CMapConfig {
                seed: rng.next_u64(),
                ..CMapConfig::class(InputClass::Native)
            };
            let r = span(rec, "kernels.cmap_run", pass, Some(cfg.seed), |_| {
                cmap::run(&cfg, &SyncEnv::new(SyncMode::LockFree, threads))
            });
            attempted += cfg.ops as u64;
            if !r.validated {
                failed += cfg.ops as u64;
                failures.push(format!(
                    "cmap seed {:#x}: result disagrees with the sequential oracle",
                    cfg.seed
                ));
            }
            map_ops += cfg.ops as u64;
            map_roi_s += r.elapsed.as_secs_f64();
            map_retires += r.profile.reclaim_retires;
            map_scans += r.profile.reclaim_scans;
        });
        attempted - before
    });

    let mut layers = Vec::new();
    let (mut pool_ops, mut pool_s) = (0u64, 0.0);
    let (mut epoch, mut hazard) = ((0u64, 0.0), (0u64, 0.0));
    for (&(shape, kind), &(ops, secs, retires, scans)) in POOLS.iter().zip(&pools) {
        let label = pool_label(shape, kind);
        layers.push((
            format!("reclaim.{label}.ops_per_s"),
            ratio(ops as f64, secs),
        ));
        layers.push((
            format!("reclaim.{label}.scans_per_retire"),
            ratio(scans as f64, retires as f64),
        ));
        pool_ops += ops;
        pool_s += secs;
        let side = if kind == ReclaimKind::Epoch {
            &mut epoch
        } else {
            &mut hazard
        };
        side.0 += ops;
        side.1 += secs;
    }
    layers.push((
        "reclaim.epoch_vs_hazard".into(),
        ratio(
            ratio(epoch.0 as f64, epoch.1),
            ratio(hazard.0 as f64, hazard.1),
        ),
    ));
    layers.push((
        "reclaim.cmap.scans_per_retire".into(),
        ratio(map_scans as f64, map_retires as f64),
    ));
    layers.push(("pool_ops_per_s".into(), ratio(pool_ops as f64, pool_s)));
    layers.push(("cmap_ops_per_s".into(), ratio(map_ops as f64, map_roi_s)));

    Measured {
        setup_s,
        passes,
        attempted,
        failed,
        failures,
        latency_ms,
        tail_q: TAIL_Q,
        layers,
    }
}

pub fn specs() -> Vec<Spec> {
    let mut v = Vec::new();
    for (shape, kind) in POOLS {
        let label = pool_label(shape, kind);
        v.push(Spec::new(
            format!("reclaim.{label}.ops_per_s"),
            "1/s",
            "higher",
        ));
        v.push(Spec::new(
            format!("reclaim.{label}.scans_per_retire"),
            "ratio",
            "lower",
        ));
    }
    v.push(Spec::new(
        "reclaim.epoch_vs_hazard".into(),
        "ratio",
        "higher",
    ));
    v.push(Spec::new(
        "reclaim.cmap.scans_per_retire".into(),
        "ratio",
        "lower",
    ));
    v.push(Spec::new("pool_ops_per_s".into(), "1/s", "higher"));
    v.push(Spec::new("cmap_ops_per_s".into(), "1/s", "higher"));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_values() -> Vec<Vec<u64>> {
        let mut rng = SmallRng::seed_from_u64(7);
        (0..2)
            .map(|_| (0..5_000).map(|_| rng.next_u64() >> 1).collect())
            .collect()
    }

    #[test]
    fn every_pool_conserves_and_reclaims() {
        let values = small_values();
        for (shape, kind) in POOLS {
            let r = pool_round(shape, kind, &values);
            assert_eq!(check_round(&r.conservation), Ok(()), "{shape:?}/{kind:?}");
            assert_eq!(r.ops, 20_000);
        }
    }

    #[test]
    fn a_dropped_value_fails_the_check() {
        let values = small_values();
        let mut c = pool_round(PoolShape::Fifo, ReclaimKind::Epoch, &values).conservation;
        let dropped = values[1][17];
        c.popped = (c.popped.0 - 1, c.popped.1.wrapping_sub(dropped));
        assert!(check_round(&c).is_err());
    }

    #[test]
    fn an_unfreed_node_fails_the_check() {
        let values = small_values();
        let mut c = pool_round(PoolShape::Lifo, ReclaimKind::Hazard, &values).conservation;
        c.reclaim.frees -= 1;
        assert!(check_round(&c).unwrap_err().contains("pending"));
    }
}
