//! `paper8`: one client runs passes over the paper's 8 case studies via
//! `Scenario::analyze`, each pass in a freshly seeded order. One request
//! is one pass; every verdict is checked against the paper's tables.

use std::hint::black_box;
use std::time::{Duration, Instant};

use leakaudit_scenarios::Scenario;

use crate::layers::{trace_overhead, Layers};
use crate::stats::{self, Rng};
use crate::trace::{self, Calls, Tracer};
use crate::{check, end_to_end, Outcome, RunConfig, SETUP_REPEATS};

pub(crate) fn run(config: &RunConfig) -> Outcome {
    let mut setup_s = Vec::new();
    let mut build_ms = Vec::new();
    let mut scenarios: Vec<Scenario> = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let started = Instant::now();
        scenarios = leakaudit_scenarios::all();
        build_ms.push(started.elapsed().as_secs_f64() * 1e3);
        for s in &scenarios {
            let _ = black_box(s.analyze());
        }
        setup_s.push(started.elapsed().as_secs_f64());
    }

    let mut rng = Rng::new(config.seed, 0);
    let mut order: Vec<usize> = (0..scenarios.len()).collect();
    let mut first_order = Vec::new();
    let mut verdicts = std::collections::BTreeMap::new();
    let mut tracer = Tracer::new(Instant::now(), 0);
    let mut layers = Layers::default();
    let (mut untraced_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let deadline = Duration::from_secs_f64(config.seconds);
    let epoch = Instant::now();
    let mut request = 0u64;
    while epoch.elapsed() < deadline || (request as usize) < config.min_requests {
        rng.shuffle(&mut order);
        let traced = config.trace && request % 2 == 1;
        let started = Instant::now();
        let mut calls = Calls::open(traced.then_some(&mut tracer), "request", request);
        let reports: Vec<_> = order
            .iter()
            .map(|&i| calls.call("analyzer.analyze", || scenarios[i].analyze()).0)
            .collect();
        calls.close();
        let ms = started.elapsed().as_secs_f64() * 1e3;

        // The clock has stopped: check every verdict.
        for (&i, report) in order.iter().zip(&reports) {
            let s = &scenarios[i];
            attempted += 1;
            if request == 0 {
                first_order.push(s.name.clone());
            }
            match report {
                Ok(report) if check::matches_paper(s, report).is_ok() => {
                    if request == 0 {
                        verdicts
                            .insert(s.name.clone(), format!("{:?}", check::report_rows(report)));
                    }
                    if traced {
                        layers.work.add_report(report);
                    }
                }
                _ => failed += 1,
            }
        }
        if traced {
            layers.requests += 1;
            traced_ms.push(ms);
        } else {
            untraced_ms.push(ms);
        }
        request += 1;
    }
    let wall_s = epoch.elapsed().as_secs_f64();
    let peak_rss_mb = stats::peak_rss_mb();

    let per_layer = if config.trace {
        let tracers = [tracer];
        if let Some(path) = &config.spans_out {
            trace::write_spans(path, &tracers).expect("spans written");
        }
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
        verdicts,
        host: Vec::new(),
    }
}
