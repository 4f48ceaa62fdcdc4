//! `daemon_warm`: one long-lived daemon, primed in setup with one cold
//! default sweep, serves two closed-loop client threads. Each request
//! is one seeded query: `submit_sweep` with 1–8 of the 45 default specs,
//! sometimes a `poll`, then `result` or `stream`, then `ack`, sometimes
//! a `stats`. Every cell is a cache hit, so the analyzer does no work;
//! planning, keys, the job table, cache lookups and JSON encoding do it
//! all, with the two clients contending for the shared daemon.
//!
//! Every answered cell's row text must equal the priming sweep's. The
//! comparison runs after each request's clock stops: keeping every
//! answer until the end would grow the process by the run's length and
//! make `peak_rss_mb` measure the benchmark rather than the daemon.

use std::hint::black_box;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use leakaudit_scenarios::{Registry, ScenarioSpec};
use leakaudit_service::{Daemon, Json, SweepEngine};

use crate::check::{self, wire_cells};
use crate::layers::{trace_overhead, Layers, Snapshot};
use crate::stats::{self, Rng};
use crate::trace::{self, Calls, Tracer};
use crate::{end_to_end, Outcome, RunConfig, SETUP_REPEATS};

/// Closed-loop clients; at most the 2 cores the benchmark host has.
const CLIENTS: u32 = 2;
/// Queries per client script; clients cycle through theirs.
const SCRIPT_LEN: usize = 4096;
/// Warm queries run in setup before the clock starts.
const WARMUP_QUERIES: usize = 64;
/// A traced run traces every this many queries of a client: warm queries
/// are short and many, and tracing every other one would keep over a
/// million spans in memory for a 40 s run.
const TRACE_EVERY: usize = 8;

/// One seeded warm query.
struct Query {
    /// Indices into the default sweep's specs.
    cells: Vec<usize>,
    specs: Vec<ScenarioSpec>,
    submit: String,
    stream: bool,
    poll: bool,
    stats: bool,
}

fn script(seed: u64, stream: u64, specs: &[ScenarioSpec]) -> Vec<Query> {
    let mut rng = Rng::new(seed, stream);
    let mut pool: Vec<usize> = (0..specs.len()).collect();
    (0..SCRIPT_LEN)
        .map(|_| {
            let k = 1 + rng.below(8);
            rng.shuffle(&mut pool);
            let cells = pool[..k].to_vec();
            let ids: Vec<Json> = cells.iter().map(|&i| Json::str(specs[i].id())).collect();
            Query {
                specs: cells.iter().map(|&i| specs[i]).collect(),
                cells,
                submit: Json::obj([("op", Json::str("submit_sweep")), ("specs", Json::Arr(ids))])
                    .to_string(),
                stream: rng.below(2) == 0,
                poll: rng.below(8) == 0,
                stats: rng.below(16) == 0,
            }
        })
        .collect()
}

/// The answers to one query, and the submit and result/stream calls'
/// durations (zero when untraced).
struct Answers {
    lines: Vec<String>,
    cells: String,
    submit: Duration,
    collect: Duration,
}

fn ask(daemon: &Daemon, query: &Query, calls: &mut Calls<'_>) -> Answers {
    let (submitted, submit) = calls.call("service.submit", || daemon.handle_line(&query.submit));
    let job = check::wire_u64(&submitted, "job").unwrap_or(u64::MAX);
    let mut lines = vec![submitted];
    if query.poll {
        let line = format!("{{\"op\":\"poll\",\"job\":{job}}}");
        lines.push(calls.call("service.poll", || daemon.handle_line(&line)).0);
    }
    let (cells, collect) = if query.stream {
        let line = format!("{{\"op\":\"stream\",\"job\":{job}}}");
        calls.call("service.stream", || {
            let mut text = String::new();
            daemon.handle_line_into(&line, &mut |l| {
                text.push_str(l);
                text.push('\n');
            });
            text
        })
    } else {
        let line = format!("{{\"op\":\"result\",\"job\":{job}}}");
        calls.call("service.result", || daemon.handle_line(&line))
    };
    let line = format!("{{\"op\":\"ack\",\"job\":{job}}}");
    lines.push(calls.call("service.ack", || daemon.handle_line(&line)).0);
    if query.stats {
        lines.push(
            calls
                .call("service.stats", || daemon.handle_line(r#"{"op":"stats"}"#))
                .0,
        );
    }
    Answers {
        lines,
        cells,
        submit,
        collect,
    }
}

/// What one client measured.
#[derive(Default)]
struct Client {
    untraced_ms: Vec<f64>,
    traced_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    layers: Layers,
    order: Vec<String>,
}

/// A primed daemon and the priming sweep's row text per spec index.
fn prime(specs: &[ScenarioSpec]) -> (Daemon, Vec<String>) {
    let daemon = Daemon::new(SweepEngine::new());
    let submitted = daemon.handle_line(r#"{"op":"submit_sweep","registry":"default"}"#);
    let job = check::wire_u64(&submitted, "job").expect("priming sweep accepted");
    let result = daemon.handle_line(&format!("{{\"op\":\"result\",\"job\":{job}}}"));
    let cells = wire_cells(&result);
    let rows = specs
        .iter()
        .map(|spec| {
            let id = spec.id();
            let (_, rows) = cells
                .iter()
                .find(|(cell, _)| *cell == id)
                .unwrap_or_else(|| panic!("priming sweep lacks {id}"));
            rows.unwrap_or_else(|| panic!("priming sweep failed {id}"))
                .to_string()
        })
        .collect();
    (daemon, rows)
}

pub(crate) fn run(config: &RunConfig) -> Outcome {
    // The generated inputs are the benchmark's, not set-up of the program.
    let specs = Registry::default_sweep().specs().to_vec();
    let scripts: Vec<Vec<Query>> = (0..=CLIENTS)
        .map(|c| script(config.seed, u64::from(c), &specs))
        .collect();
    let (warmup, scripts) = scripts.split_last().expect("a warm-up script");
    let mut setup_s = Vec::new();
    let mut primed = None;
    for _ in 0..SETUP_REPEATS {
        drop(primed.take());
        let started = Instant::now();
        let (daemon, expected) = prime(&specs);
        for query in &warmup[..WARMUP_QUERIES] {
            black_box(ask(&daemon, query, &mut Calls::open(None, "request", 0)));
        }
        setup_s.push(started.elapsed().as_secs_f64());
        primed = Some((daemon, expected));
    }
    let (daemon, expected) = primed.expect("at least one setup");

    let ids: Vec<String> = specs.iter().map(ScenarioSpec::id).collect();
    let before = Snapshot::take(&daemon);
    let barrier = Barrier::new(CLIENTS as usize);
    let deadline = Duration::from_secs_f64(config.seconds);
    let min_per_client = config.min_requests.div_ceil(CLIENTS as usize);
    let epoch = Instant::now();
    let (clients, tracers, wall_s): (Vec<Client>, Vec<Tracer>, f64) = std::thread::scope(|scope| {
        let handles: Vec<_> = scripts
            .iter()
            .zip(0..CLIENTS)
            .map(|(script, c)| {
                let (daemon, expected, ids, barrier) = (&daemon, &expected, &ids, &barrier);
                scope.spawn(move || {
                    let mut tracer = Tracer::new(epoch, c);
                    let mut out = Client::default();
                    barrier.wait();
                    let started = Instant::now();
                    let mut i = 0usize;
                    while started.elapsed() < deadline || i < min_per_client {
                        let query = &script[i % script.len()];
                        let traced = config.trace && i % TRACE_EVERY == TRACE_EVERY - 1;
                        let request = u64::from(c) << 32 | i as u64;
                        let began = Instant::now();
                        let mut calls =
                            Calls::open(traced.then_some(&mut tracer), "request", request);
                        let answers = ask(daemon, query, &mut calls);
                        calls.close();
                        let ms = began.elapsed().as_secs_f64() * 1e3;

                        // The clock has stopped: check the answers.
                        let cells = wire_cells(&answers.cells);
                        let k = query.cells.len();
                        out.attempted += k as u64;
                        let protocol_ok =
                            answers.lines.iter().all(|l| check::is_ok(l)) && cells.len() == k;
                        out.failed += if protocol_ok {
                            query
                                .cells
                                .iter()
                                .zip(&cells)
                                .filter(|(&spec, &(id, rows))| {
                                    id != ids[spec] || rows != Some(expected[spec].as_str())
                                })
                                .count() as u64
                        } else {
                            k as u64
                        };
                        if c == 0 && i == 0 {
                            out.order = query.cells.iter().map(|&s| ids[s].clone()).collect();
                        }
                        if traced {
                            out.traced_ms.push(ms);
                            account(
                                &mut out.layers,
                                daemon,
                                query,
                                &answers,
                                &mut tracer,
                                request,
                            );
                        } else {
                            out.untraced_ms.push(ms);
                        }
                        i += 1;
                    }
                    (out, tracer)
                })
            })
            .collect();
        let results: Vec<(Client, Tracer)> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        let wall_s = epoch.elapsed().as_secs_f64();
        let (clients, tracers) = results.into_iter().unzip();
        (clients, tracers, wall_s)
    });
    let peak_rss_mb = stats::peak_rss_mb();
    let delta = Snapshot::take(&daemon).since(&before);

    let mut layers = Layers::default();
    let (mut untraced_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0, 0);
    let mut order = Vec::new();
    for client in &clients {
        layers.merge(&client.layers);
        untraced_ms.extend(&client.untraced_ms);
        traced_ms.extend(&client.traced_ms);
        attempted += client.attempted;
        failed += client.failed;
        if order.is_empty() {
            order.clone_from(&client.order);
        }
    }
    let requests = untraced_ms.len() + traced_ms.len();
    let per_layer = if config.trace {
        // Daemon-wide deltas over the measured phase, which cover every
        // request, traced or not.
        layers.work = delta.work;
        layers.work_requests = requests as u64;
        layers.cache_hits = delta.hits;
        layers.cache_misses = delta.misses;
        layers.cache_bytes = delta.bytes;
        if let Some(path) = &config.spans_out {
            trace::write_spans(path, &tracers).expect("spans written");
        }
        // Requests build nothing: the priming sweep built every spec in
        // setup. Time those builds on their own, outside setup.
        let build_ms: Vec<f64> = (0..SETUP_REPEATS)
            .map(|_| {
                let started = Instant::now();
                for spec in &specs {
                    black_box(spec.build());
                }
                started.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        layers.metrics(
            stats::median(&build_ms),
            trace_overhead(&untraced_ms, &traced_ms),
            &trace::request_self_times(&tracers),
        )
    } else {
        Vec::new()
    };
    Outcome {
        correct: failed == 0,
        attempted,
        failed,
        requests,
        end_to_end: end_to_end(
            &untraced_ms,
            attempted,
            failed,
            wall_s,
            &setup_s,
            peak_rss_mb,
        ),
        per_layer,
        order,
        verdicts: ids.into_iter().zip(expected).collect(),
        host: Vec::new(),
    }
}

/// The per-layer accounting of one traced request, taken after its
/// clock stopped: call times, answer bytes, and the wire cost — the
/// protocol's submit + result/stream minus the engine's own `submit` +
/// `collect` for the same specs.
fn account(
    layers: &mut Layers,
    daemon: &Daemon,
    query: &Query,
    answers: &Answers,
    tracer: &mut Tracer,
    request: u64,
) {
    layers.requests += 1;
    layers.submit_ms += answers.submit.as_secs_f64() * 1e3;
    layers.result_ms += answers.collect.as_secs_f64() * 1e3;
    layers.response_bytes +=
        (answers.cells.len() + answers.lines.iter().map(String::len).sum::<usize>()) as u64;
    let mut probe = Calls::open(Some(tracer), "probe", request);
    let (_, engine) = probe.call("service.engine", || {
        let engine = daemon.engine();
        black_box(engine.collect(engine.submit(&query.specs)))
    });
    probe.close();
    layers.wire_us +=
        ((answers.submit + answers.collect).as_secs_f64() - engine.as_secs_f64()) * 1e6;
}
