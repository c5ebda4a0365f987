//! `serve`: the experiment service over real TCP.
//!
//! An in-process `splash4_serve::Server` with one worker per CPU is driven
//! by one `Client` connection per CPU, each a closed loop. A pass gives
//! every client a seeded plan of fresh `Sim` configurations; each config is
//! sent twice, the twin after its first send has completed and while fewer
//! than `MAX_PENDING_TWINS` other configs per client are outstanding, which
//! keeps it inside the result cache — so half of all requests are cache
//! hits by construction. An operation is one request, timed from send to
//! its `Done` event.

use crate::spans::{span, Recorder};
use crate::stats::{median, ratio};
use crate::suite::shuffle;
use crate::{repeat_setup, timed_passes, Measured, Opts, Spec};
use splash4_harness::{
    dispatch, drain_events, ExperimentCtx, JobCtl, JobEvent, Request, RequestKind, ServiceConfig,
};
use splash4_parmacs::{Json, SmallRng};
use splash4_serve::{Client, Server, ServerConfig};
use splash4_sim::{engine, BarrierKind, MachineParams};
use std::collections::HashSet;
use std::time::{Duration, Instant};

const CORES: [usize; 3] = [16, 256, 1024];
const BARRIERS: [(&str, BarrierKind); 3] = [
    ("sense", BarrierKind::Sense),
    ("condvar", BarrierKind::Condvar),
    ("tree", BarrierKind::Tree),
];
const OPS_PER_CORE: usize = 64;
/// Fresh configs per client per pass, an equal number at each core count
/// so every pass asks for the same amount of work; each is sent twice.
const CONFIGS_PER_CLIENT: usize = 30;
/// Outstanding twins per client at most. With every client at this bound
/// the entries inserted between a config and its twin stay far below the
/// default cache capacity of 64.
const MAX_PENDING_TWINS: usize = 6;
/// Requests sent straight to the worker pool per traced run, in pairs.
const POOL_PAIRS: usize = 48;
/// Configs whose program is re-run on the bare simulator per traced run.
const ENGINE_CONFIGS: usize = 48;
const MIN_PASSES: usize = 2;
const SETUP_REPS: usize = 15;
/// p95, not p99: over five seeds the p99 spread (IQR over median) was
/// 0.23 against 0.08 for the p95, the latter still with hundreds of
/// samples beyond it.
pub const TAIL_Q: f64 = 0.95;

/// One seeded `Sim` configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Config {
    cores: usize,
    barrier: usize,
    seed: u64,
}

impl Config {
    fn request(self) -> Request {
        Request::new(RequestKind::Sim {
            cores: self.cores,
            ops_per_core: OPS_PER_CORE,
            barrier: BARRIERS[self.barrier].0.to_string(),
            seed: self.seed,
            machine: None,
        })
    }
}

/// How a request ended: `Done` with its `cached` flag and payload, or the
/// error that ended it.
pub type Outcome = Result<(bool, Json), String>;

/// One request as a client saw it.
#[derive(Debug, Clone)]
struct Sent {
    config: usize,
    twin: bool,
    sent: Instant,
    queued: Option<Instant>,
    running: Option<Instant>,
    done: Instant,
    outcome: Outcome,
}

/// Why the two sends of one config are wrong, if they are: each must end in
/// `Done`, the first computed and the twin served from cache, and both
/// payloads must equal an in-process `dispatch` of the same request.
pub fn check_pair(oracle: &Json, first: &Outcome, twin: &Outcome) -> Vec<String> {
    let mut bad = Vec::new();
    for (what, outcome, want_cached) in [("first send", first, false), ("twin", twin, true)] {
        match outcome {
            Err(e) => bad.push(format!("{what} did not finish: {e}")),
            Ok((cached, payload)) => {
                if *cached != want_cached {
                    bad.push(format!(
                        "{what} has cached={cached}, expected {want_cached}"
                    ));
                }
                if payload != oracle {
                    bad.push(format!("{what} payload differs from in-process dispatch"));
                }
            }
        }
    }
    bad
}

fn outcome_of(events: Result<Vec<JobEvent>, String>) -> Outcome {
    match events?.pop() {
        Some(JobEvent::Done { cached, result, .. }) => Ok((cached, result)),
        Some(JobEvent::Error { message, .. }) => Err(message),
        other => Err(format!("stream ended with {other:?}")),
    }
}

/// A client's order for one pass: each config once fresh and once as a
/// twin, the choice between sending a pending twin and a fresh config drawn
/// from `rng`.
fn plan(configs: &[usize], rng: &mut SmallRng) -> Vec<(usize, bool)> {
    let mut steps = Vec::with_capacity(2 * configs.len());
    let mut pending: Vec<usize> = Vec::new();
    let mut fresh = configs.iter().copied();
    let mut fresh_left = configs.len();
    while fresh_left > 0 || !pending.is_empty() {
        let take_twin = !pending.is_empty()
            && (fresh_left == 0
                || pending.len() >= MAX_PENDING_TWINS
                || rng.gen_range(0..2u32) == 0);
        if take_twin {
            let k = rng.gen_range(0..pending.len());
            steps.push((pending.swap_remove(k), true));
        } else {
            let c = fresh.next().expect("a fresh config is left");
            fresh_left -= 1;
            pending.push(c);
            steps.push((c, false));
        }
    }
    steps
}

fn start(threads: usize) -> (Vec<Client>, Server) {
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        service: ServiceConfig {
            workers: threads,
            ..ServiceConfig::default()
        },
    })
    .expect("bind a loopback port");
    let addr = server.local_addr().to_string();
    let clients = (0..threads)
        .map(|_| {
            let mut c = Client::connect_with_retry(&addr, 50).expect("connect to the server");
            c.ping().expect("ping the server");
            c
        })
        .collect();
    (clients, server)
}

/// Send one request over `client`, timestamping its events as they arrive.
fn send(client: &mut Client, configs: &[Config], config: usize, twin: bool) -> Sent {
    let request = configs[config].request();
    let (mut queued, mut running) = (None, None);
    let sent = Instant::now();
    let events = client.submit_with(&request, |ev| match ev {
        JobEvent::Queued { .. } => queued = Some(Instant::now()),
        JobEvent::Running { .. } => running = Some(Instant::now()),
        _ => {}
    });
    Sent {
        config,
        twin,
        sent,
        queued,
        running,
        done: Instant::now(),
        outcome: outcome_of(events),
    }
}

/// Every config dispatched in-process against the server's own experiment
/// context, split over `threads` threads: each payload with its time.
fn oracle(
    configs: &[Config],
    ctx: &ExperimentCtx,
    threads: usize,
    rec: Option<&Recorder>,
) -> Vec<(Json, f64)> {
    let chunk = configs.len().div_ceil(threads).max(1);
    let one = |c: &Config| {
        let t0 = Instant::now();
        let got = span(rec, "harness.dispatch", None, Some(c.seed), |_| {
            dispatch(&c.request(), ctx, &JobCtl::unlimited())
        });
        let payload = got.unwrap_or_else(|e| Json::Str(format!("dispatch failed: {e}")));
        (payload, t0.elapsed().as_secs_f64() * 1e3)
    };
    std::thread::scope(|s| {
        let handles: Vec<_> = configs
            .chunks(chunk)
            .map(|part| s.spawn(move || part.iter().map(one).collect::<Vec<_>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("oracle thread panicked"))
            .collect()
    })
}

fn ms(from: Instant, to: Option<Instant>) -> Option<f64> {
    to.map(|t| t.saturating_duration_since(from).as_secs_f64() * 1e3)
}

pub fn measure(opts: &Opts, rec: Option<&Recorder>) -> Measured {
    // One worker and one client connection per CPU.
    let threads = opts.nproc;
    let mut rng = SmallRng::seed_from_u64(opts.seed);
    let (setup_s, (mut clients, server)) = repeat_setup(SETUP_REPS, || start(threads));

    let mut configs: Vec<Config> = Vec::new();
    let mut seeds = HashSet::new();
    let mut fresh_config = |rng: &mut SmallRng, configs: &mut Vec<Config>, cores: usize| {
        let seed = loop {
            // Seeds travel as JSON numbers, exact only below 2^53.
            let s = rng.next_u64() >> 11;
            if seeds.insert(s) {
                break s;
            }
        };
        configs.push(Config {
            cores,
            barrier: rng.gen_range(0..BARRIERS.len()),
            seed,
        });
        configs.len() - 1
    };

    let mut sent: Vec<Sent> = Vec::new();
    let passes = timed_passes(opts.seconds, MIN_PASSES, || {
        let before = sent.len();
        let plans: Vec<Vec<(usize, bool)>> = (0..threads)
            .map(|_| {
                let mut cores: Vec<usize> = CORES
                    .iter()
                    .copied()
                    .cycle()
                    .take(CONFIGS_PER_CLIENT)
                    .collect();
                shuffle(&mut cores, &mut rng);
                let mine: Vec<usize> = cores
                    .into_iter()
                    .map(|c| fresh_config(&mut rng, &mut configs, c))
                    .collect();
                plan(&mine, &mut rng)
            })
            .collect();
        let configs = &configs;
        span(rec, "bench.serve_pass", None, None, |pass| {
            std::thread::scope(|s| {
                let handles: Vec<_> = clients
                    .iter_mut()
                    .zip(&plans)
                    .map(|(client, steps)| {
                        s.spawn(move || {
                            steps
                                .iter()
                                .map(|&(config, twin)| {
                                    let seed = Some(configs[config].seed);
                                    span(rec, "serve.request", pass, seed, |_| {
                                        send(client, configs, config, twin)
                                    })
                                })
                                .collect::<Vec<Sent>>()
                        })
                    })
                    .collect();
                for h in handles {
                    sent.extend(h.join().expect("client thread panicked"));
                }
            });
        });
        (sent.len() - before) as u64
    });
    let tcp_requests = sent.len();

    let mut layers = Vec::new();
    if rec.is_some() {
        layers.extend(pool_phase(
            &server,
            &mut rng,
            &mut configs,
            &mut fresh_config,
            &mut sent,
            rec,
        ));
        layers.extend(engine_phase(&configs, rec));
    }
    let hit_ratio = {
        let stats = clients[0].stats().expect("server stats");
        let get = |k: &str| stats.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        ratio(get("cache_hits"), get("cache_hits") + get("cache_misses"))
    };
    drop(clients);

    let oracle_ms = oracle(&configs, server.pool().ctx(), threads, rec);
    drop(server);

    let mut first: Vec<Option<&Sent>> = vec![None; configs.len()];
    let mut second: Vec<Option<&Sent>> = vec![None; configs.len()];
    for s in &sent {
        let slot = if s.twin { &mut second } else { &mut first };
        slot[s.config] = Some(s);
    }
    let mut failures = Vec::new();
    let mut failed = 0u64;
    for (i, (oracle, _)) in oracle_ms.iter().enumerate() {
        let missing: Outcome = Err("never sent".to_string());
        let a = first[i].map_or(&missing, |s| &s.outcome);
        let b = second[i].map_or(&missing, |s| &s.outcome);
        let bad = check_pair(oracle, a, b);
        if !bad.is_empty() {
            failed += 2;
            failures.push(format!(
                "sim seed {:#x}: {}",
                configs[i].seed,
                bad.join("; ")
            ));
        }
    }
    if hit_ratio != 0.5 {
        failures.push(format!("cache hit ratio {hit_ratio}, expected exactly 0.5"));
    }

    let tcp = &sent[..tcp_requests];
    let stage = |twin: bool, f: &dyn Fn(&Sent) -> Option<f64>| {
        median(
            &tcp.iter()
                .filter(|s| s.twin == twin)
                .filter_map(f)
                .collect::<Vec<_>>(),
        )
    };
    for (name, twin) in [("hit", true), ("miss", false)] {
        layers.push((
            format!("serve.send_to_queued_ms.{name}.p50"),
            stage(twin, &|s| ms(s.sent, s.queued)),
        ));
        layers.push((
            format!("serve.queued_to_running_ms.{name}.p50"),
            stage(twin, &|s| s.queued.and_then(|q| ms(q, s.running))),
        ));
        layers.push((
            format!("serve.running_to_done_ms.{name}.p50"),
            stage(twin, &|s| s.running.and_then(|r| ms(r, Some(s.done)))),
        ));
    }
    layers.push((
        "harness.dispatch_ms.p50".into(),
        median(&oracle_ms.iter().map(|(_, t)| *t).collect::<Vec<_>>()),
    ));
    layers.push(("harness.cache.hit_ratio".into(), hit_ratio));

    Measured {
        setup_s,
        passes,
        attempted: sent.len() as u64,
        failed,
        failures,
        latency_ms: tcp
            .iter()
            .map(|s| s.done.duration_since(s.sent).as_secs_f64() * 1e3)
            .collect(),
        tail_q: TAIL_Q,
        layers,
    }
}

/// Traced only: the same kind of traffic submitted straight to the
/// server's `WorkerPool`, without sockets or framing, timed from `submit`
/// to `Done`.
fn pool_phase(
    server: &Server,
    rng: &mut SmallRng,
    configs: &mut Vec<Config>,
    fresh_config: &mut impl FnMut(&mut SmallRng, &mut Vec<Config>, usize) -> usize,
    sent: &mut Vec<Sent>,
    rec: Option<&Recorder>,
) -> Vec<(String, f64)> {
    let mine: Vec<usize> = (0..POOL_PAIRS)
        .map(|i| fresh_config(rng, configs, CORES[i % CORES.len()]))
        .collect();
    let (mut hit, mut miss) = (Vec::new(), Vec::new());
    for (config, twin) in plan(&mine, rng) {
        let t0 = Instant::now();
        let outcome = span(
            rec,
            "harness.pool_submit",
            None,
            Some(configs[config].seed),
            |_| {
                outcome_of(
                    server
                        .pool()
                        .submit(configs[config].request())
                        .map(|(_, rx)| drain_events(&rx)),
                )
            },
        );
        let done = Instant::now();
        if twin { &mut hit } else { &mut miss }.push(done.duration_since(t0).as_secs_f64() * 1e3);
        sent.push(Sent {
            config,
            twin,
            sent: t0,
            queued: None,
            running: None,
            done,
            outcome,
        });
    }
    vec![
        ("harness.pool_ms.hit.p50".into(), median(&hit)),
        ("harness.pool_ms.miss.p50".into(), median(&miss)),
    ]
}

/// Traced only: the programs behind the first configs, run on the bare
/// simulator engine.
fn engine_phase(configs: &[Config], rec: Option<&Recorder>) -> Vec<(String, f64)> {
    let (mut events, mut busy) = (0u64, Duration::ZERO);
    for c in configs.iter().take(ENGINE_CONFIGS) {
        let program = splash4_harness::synthetic_program(
            c.cores,
            OPS_PER_CORE,
            BARRIERS[c.barrier].1,
            c.seed,
        );
        let machine = MachineParams::manycore(c.cores);
        let t0 = Instant::now();
        span(rec, "sim.engine_run", None, Some(c.seed), |_| {
            engine::run(&program, &machine)
        });
        busy += t0.elapsed();
        events += program.total_ops() as u64;
    }
    vec![(
        "sim.engine.events_per_s".into(),
        ratio(events as f64, busy.as_secs_f64()),
    )]
}

pub fn specs() -> Vec<Spec> {
    let mut v = Vec::new();
    for name in ["hit", "miss"] {
        for stage in ["send_to_queued", "queued_to_running", "running_to_done"] {
            v.push(Spec::new(
                format!("serve.{stage}_ms.{name}.p50"),
                "ms",
                "lower",
            ));
        }
    }
    v.push(Spec::new("harness.dispatch_ms.p50".into(), "ms", "lower"));
    v.push(Spec::new("harness.pool_ms.hit.p50".into(), "ms", "lower"));
    v.push(Spec::new("harness.pool_ms.miss.p50".into(), "ms", "lower"));
    v.push(Spec::new(
        "harness.cache.hit_ratio".into(),
        "ratio",
        "higher",
    ));
    v.push(Spec::new("sim.engine.events_per_s".into(), "1/s", "higher"));
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use splash4_harness::ExperimentCtx;

    #[test]
    fn plans_send_every_config_twice_twin_last() {
        let mut rng = SmallRng::seed_from_u64(3);
        let configs: Vec<usize> = (0..40).collect();
        let steps = plan(&configs, &mut rng);
        assert_eq!(steps.len(), 80);
        for c in configs {
            let at: Vec<(usize, bool)> = steps
                .iter()
                .enumerate()
                .filter(|(_, s)| s.0 == c)
                .map(|(i, s)| (i, s.1))
                .collect();
            assert_eq!(at.len(), 2);
            assert!(!at[0].1 && at[1].1, "config {c}: {at:?}");
        }
    }

    fn oracle_for(c: Config) -> Json {
        dispatch(
            &c.request(),
            &ExperimentCtx::default(),
            &JobCtl::unlimited(),
        )
        .expect("dispatch")
    }

    #[test]
    fn served_payloads_match_in_process_dispatch() {
        let (mut clients, server) = start(1);
        let c = Config {
            cores: 16,
            barrier: 2,
            seed: 11,
        };
        let first = outcome_of(clients[0].submit(&c.request()));
        let twin = outcome_of(clients[0].submit(&c.request()));
        drop(clients);
        drop(server);
        assert!(check_pair(&oracle_for(c), &first, &twin).is_empty());
    }

    #[test]
    fn an_altered_payload_fails_the_check() {
        let c = Config {
            cores: 16,
            barrier: 0,
            seed: 5,
        };
        let oracle = oracle_for(c);
        let mut altered = oracle.clone();
        if let Json::Object(fields) = &mut altered {
            for (k, v) in fields.iter_mut() {
                if k == "total_ns" {
                    *v = Json::Num(v.as_f64().expect("a number") + 1.0);
                }
            }
        }
        assert_ne!(altered, oracle);
        let bad = check_pair(&oracle, &Ok((false, oracle.clone())), &Ok((true, altered)));
        assert_eq!(bad.len(), 1, "{bad:?}");
        let bad = check_pair(
            &oracle,
            &Ok((false, oracle.clone())),
            &Ok((false, oracle.clone())),
        );
        assert_eq!(
            bad.len(),
            1,
            "a twin that missed the cache must fail: {bad:?}"
        );
    }
}
