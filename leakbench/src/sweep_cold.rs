//! `sweep_cold`: one client sends the 45-cell default registry as
//! `submit_sweep` with explicit specs in a freshly seeded order, then
//! `result`, each request to a fresh `Daemon` (empty plan memo, empty
//! result cache, default executor workers). Creating and dropping the
//! daemon happens outside the request clock.
//!
//! The first request's cells are the reference: every later request
//! must answer the same row text, and after the measured phase every
//! reference cell is checked against Theorem 1 on the emulator, and the
//! paper points against `Scenario::analyze` on the paper's scenarios.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::{Duration, Instant};

use leakaudit_scenarios::{Registry, ScenarioSpec};
use leakaudit_service::{Daemon, Json, SweepEngine};

use crate::check::{self, wire_cells};
use crate::layers::{trace_overhead, Layers, Snapshot};
use crate::stats::{self, Rng};
use crate::trace::{self, Calls, Tracer};
use crate::{end_to_end, Outcome, RunConfig, SETUP_REPEATS};

/// A `submit_sweep` line naming `specs` in the given order.
fn submit_line(specs: &[ScenarioSpec], order: &[usize]) -> String {
    let ids: Vec<Json> = order.iter().map(|&i| Json::str(specs[i].id())).collect();
    Json::obj([("op", Json::str("submit_sweep")), ("specs", Json::Arr(ids))]).to_string()
}

/// One `submit_sweep` + `result` exchange and the two calls' durations
/// (zero when untraced).
struct Exchange {
    submitted: String,
    result: String,
    submit: Duration,
    collect: Duration,
}

/// Submits `line` and collects the job.
fn round_trip(daemon: &Daemon, line: &str, calls: &mut Calls<'_>) -> Exchange {
    let (submitted, submit) = calls.call("service.submit", || daemon.handle_line(line));
    let job = check::wire_u64(&submitted, "job").unwrap_or(u64::MAX);
    let result_line = format!("{{\"op\":\"result\",\"job\":{job}}}");
    let (result, collect) = calls.call("service.result", || daemon.handle_line(&result_line));
    Exchange {
        submitted,
        result,
        submit,
        collect,
    }
}

pub(crate) fn run(config: &RunConfig) -> Outcome {
    let mut setup_s = Vec::new();
    let mut specs = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let started = Instant::now();
        specs = Registry::default_sweep().specs().to_vec();
        let order: Vec<usize> = (0..specs.len()).collect();
        let daemon = Daemon::new(SweepEngine::new());
        black_box(round_trip(
            &daemon,
            &submit_line(&specs, &order),
            &mut Calls::open(None, "request", 0),
        ));
        drop(daemon);
        setup_s.push(started.elapsed().as_secs_f64());
    }

    let mut rng = Rng::new(config.seed, 0);
    let mut order: Vec<usize> = (0..specs.len()).collect();
    let mut first_order = Vec::new();
    // Reference row text per cell id (the first request's), and how many
    // later answers matched it.
    let mut reference: BTreeMap<String, String> = BTreeMap::new();
    let mut matched: HashMap<String, u64> = HashMap::new();
    let mut tracer = Tracer::new(Instant::now(), 0);
    let mut layers = Layers::default();
    let mut build_ms = 0.0;
    let (mut untraced_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let deadline = Duration::from_secs_f64(config.seconds);
    let epoch = Instant::now();
    let mut request = 0u64;
    while epoch.elapsed() < deadline || (request as usize) < config.min_requests {
        rng.shuffle(&mut order);
        let line = submit_line(&specs, &order);
        let daemon = Daemon::new(SweepEngine::new());
        let traced = config.trace && request % 2 == 1;
        if traced {
            // What the daemon's planner builds inside `submit_sweep`,
            // built again outside the request to time the layer.
            let mut probe = Calls::open(Some(&mut tracer), "probe", request);
            let (_, took) = probe.call("scenarios.build", || {
                for spec in &specs {
                    black_box(spec.build());
                }
            });
            probe.close();
            build_ms += took.as_secs_f64() * 1e3;
        }

        let started = Instant::now();
        let mut calls = Calls::open(traced.then_some(&mut tracer), "request", request);
        let exchange = round_trip(&daemon, &line, &mut calls);
        calls.close();
        let ms = started.elapsed().as_secs_f64() * 1e3;

        // The clock has stopped: compare with the reference.
        let cells = wire_cells(&exchange.result);
        attempted += specs.len() as u64;
        let answered = check::is_ok(&exchange.submitted) && cells.len() == specs.len();
        if !answered {
            failed += specs.len() as u64;
        }
        for (&i, &(id, rows)) in order.iter().zip(&cells).filter(|_| answered) {
            let expected_id = specs[i].id();
            if request == 0 {
                first_order.push(expected_id.clone());
                if let Some(rows) = rows {
                    reference.insert(id.to_string(), rows.to_string());
                }
            }
            match (rows, reference.get(id)) {
                (Some(rows), Some(want)) if id == expected_id && rows == want => {
                    *matched.entry(expected_id).or_default() += 1;
                }
                _ => failed += 1,
            }
        }
        if traced {
            layers.requests += 1;
            traced_ms.push(ms);
            let ordered: Vec<ScenarioSpec> = order.iter().map(|&i| specs[i]).collect();
            account(
                &mut layers,
                &daemon,
                &line,
                &ordered,
                &exchange,
                ms,
                &mut tracer,
                request,
            );
        } else {
            untraced_ms.push(ms);
        }
        drop(daemon);
        request += 1;
    }
    let wall_s = epoch.elapsed().as_secs_f64();
    let peak_rss_mb = stats::peak_rss_mb();

    // Reference checks, outside the measured phase.
    let paper: HashMap<String, Vec<check::WireRow>> = leakaudit_scenarios::all()
        .iter()
        .filter_map(|s| Some((s.name.clone(), check::report_rows(&s.analyze().ok()?))))
        .collect();
    let mut paper_cells = 0;
    for spec in &specs {
        let id = spec.id();
        let scenario = spec.build();
        let sound = reference
            .get(&id)
            .ok_or_else(|| format!("{id}: no reference rows"))
            .and_then(|rows| check::parse_rows(rows))
            .and_then(|rows| {
                check::theorem1(spec, &scenario, &rows)?;
                // Paper points outside paper8 (the documented unaligned
                // ablation) have no counterpart to compare with.
                match paper.get(&scenario.name) {
                    Some(want) if spec.is_paper_point() => {
                        paper_cells += 1;
                        if *want != rows {
                            return Err(format!("{id}: rows differ from paper8's"));
                        }
                    }
                    _ => {}
                }
                Ok(())
            });
        if let Err(e) = sound {
            eprintln!("sweep_cold: {e}");
            failed += matched.get(&id).copied().unwrap_or(0);
        }
    }
    if paper_cells != paper.len() {
        eprintln!(
            "sweep_cold: {paper_cells} of paper8's {} scenarios found in the sweep",
            paper.len()
        );
        failed += 1;
    }

    let per_layer = if config.trace {
        let tracers = [tracer];
        if let Some(path) = &config.spans_out {
            trace::write_spans(path, &tracers).expect("spans written");
        }
        layers.metrics(
            build_ms / layers.requests.max(1) as f64,
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
        requests: request as usize,
        end_to_end: end_to_end(
            &untraced_ms,
            attempted,
            failed,
            wall_s,
            &setup_s,
            peak_rss_mb,
        ),
        per_layer,
        order: first_order,
        verdicts: reference,
        host: Vec::new(),
    }
}

/// The per-layer accounting of one traced request, taken after its
/// clock stopped: the fresh daemon's `stats` (its whole life is this
/// request), executor busy time from the cells' `elapsed_ms`, and the
/// wire cost — a warm protocol round trip for the same specs minus the
/// engine's own `submit` + `collect` for them.
#[allow(clippy::too_many_arguments)]
fn account(
    layers: &mut Layers,
    daemon: &Daemon,
    line: &str,
    ordered: &[ScenarioSpec],
    exchange: &Exchange,
    request_ms: f64,
    tracer: &mut Tracer,
    request: u64,
) {
    layers.submit_ms += exchange.submit.as_secs_f64() * 1e3;
    layers.result_ms += exchange.collect.as_secs_f64() * 1e3;
    layers.response_bytes += (exchange.submitted.len() + exchange.result.len()) as u64;

    let mut probe = Calls::open(Some(tracer), "probe", request);
    let (snapshot, _) = probe.call("service.stats", || Snapshot::take(daemon));
    let json = Json::parse(&exchange.result).expect("result answers JSON");
    let cells = json.get("cells").and_then(Json::as_arr).unwrap_or(&[]);
    let busy_ms: f64 = cells
        .iter()
        .filter(|c| c.get("provenance").and_then(Json::as_str) == Some("computed"))
        .filter_map(|c| match c.get("elapsed_ms") {
            Some(Json::Num(ms)) => Some(*ms),
            _ => None,
        })
        .sum();
    layers.work.add(&snapshot.work);
    layers.shared_cells += json.get("shared_pass").and_then(Json::as_u64).unwrap_or(0);
    layers.busy_share += busy_ms / (snapshot.workers.max(1) as f64 * request_ms);
    layers.cache_hits += snapshot.hits;
    layers.cache_misses += snapshot.misses;
    layers.cache_bytes = snapshot.bytes;

    let (_, warm) = probe.call("service.wire", || {
        black_box(round_trip(
            daemon,
            line,
            &mut Calls::open(None, "request", request),
        ))
    });
    let (_, engine) = probe.call("service.engine", || {
        let engine = daemon.engine();
        black_box(engine.collect(engine.submit(ordered)))
    });
    probe.close();
    layers.wire_us += (warm.as_secs_f64() - engine.as_secs_f64()) * 1e6;
}
