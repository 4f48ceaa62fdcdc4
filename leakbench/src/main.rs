//! Command line of the leakaudit benchmark.
//!
//! ```text
//! leakbench --workload <paper8|sweep_cold|daemon_warm> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints host facts and every metric by name with its unit, then, as
//! the last line, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics` (the end-to-end metrics, or with `--trace 1` the
//! per-layer ones). A traced run also writes its spans to
//! `out/spans-<workload>-<seed>.jsonl` in the benchmark's directory.

use std::path::PathBuf;
use std::process::ExitCode;

use leakbench::{run, Metric, RunConfig, Workload};

/// Requests every run completes, so `request_ms.p90` has at least ten
/// samples beyond it.
const MIN_REQUESTS: usize = 100;

const USAGE: &str =
    "usage: leakbench --workload <paper8|sweep_cold|daemon_warm> --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<RunConfig, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.parse::<Workload>()?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or("--seconds must be a positive number")?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_string()),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    let trace = trace.unwrap_or(false);
    let spans_out = trace.then(|| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}-{seed}.jsonl", workload.name()))
    });
    Ok(RunConfig {
        workload,
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        min_requests: MIN_REQUESTS,
        spans_out,
    })
}

fn json_metrics(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// A JSON number with every digit `f64` carries (`null` if not finite).
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse(&args) {
        Ok(config) => config,
        Err(e) => {
            eprintln!("leakbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = run(&config);
    println!(
        "workload {} seed {} requests {} cells {} failed {}",
        config.workload.name(),
        config.seed,
        outcome.requests,
        outcome.attempted,
        outcome.failed
    );
    for (fact, value) in &outcome.host {
        println!("host.{fact} {value}");
    }
    let metrics = if config.trace {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    for m in metrics {
        println!("{:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        json_metrics(metrics)
    );
    ExitCode::SUCCESS
}
