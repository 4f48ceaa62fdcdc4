//! The leakaudit benchmark: three closed-loop workloads driven through
//! the public entry points, each reporting the same end-to-end metrics,
//! plus a traced run that times the calls into each layer.
//!
//! * `paper8` — passes over the paper's 8 case studies through
//!   `Scenario::analyze` (library, no service layer).
//! * `sweep_cold` — the 45-cell default registry as one `submit_sweep`
//!   + `result` exchange on a fresh `Daemon` per request.
//! * `daemon_warm` — two clients sending small warm queries to one
//!   primed daemon (every cell a cache hit).
//!
//! Layers follow the crates: `scenarios` (plan/build), `analyzer`
//! (interpret/replay/count), `service` (key/group/schedule/demux/cache/
//! wire). Spans are recorded only around the benchmark's own calls into
//! those layers; see `METRICS.md` for every metric's definition.

#![forbid(unsafe_code)]

pub mod check;
mod daemon_warm;
mod layers;
mod paper8;
pub mod stats;
mod sweep_cold;
pub mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::str::FromStr;

/// Setups per run; `setup_s` is their median, so one slow first setup
/// (page faults, lazy statics, thread-pool start) does not set it.
pub(crate) const SETUP_REPEATS: usize = 5;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One client, passes over the 8 paper scenarios via `Scenario::analyze`.
    Paper8,
    /// One client, the 45-cell default sweep on a fresh daemon per request.
    SweepCold,
    /// Two clients, warm 1–8 cell queries against one primed daemon.
    DaemonWarm,
}

impl Workload {
    /// Every workload the command line accepts.
    pub const ALL: [Workload; 3] = [Workload::Paper8, Workload::SweepCold, Workload::DaemonWarm];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper8 => "paper8",
            Workload::SweepCold => "sweep_cold",
            Workload::DaemonWarm => "daemon_warm",
        }
    }
}

impl FromStr for Workload {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == s)
            .ok_or_else(|| format!("unknown workload {s:?}"))
    }
}

/// The settings of one run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Which workload.
    pub workload: Workload,
    /// Seeds every generated input (request order, query mix).
    pub seed: u64,
    /// Length of the measured phase in seconds.
    pub seconds: f64,
    /// Alternate untraced and traced requests and report the per-layer
    /// metrics instead of the end-to-end ones.
    pub trace: bool,
    /// Requests the measured phase completes even past `seconds`, so
    /// `request_ms.p90` has at least ten samples beyond it.
    pub min_requests: usize,
    /// Where a traced run writes its spans (JSON lines); `None` keeps
    /// them in memory only.
    pub spans_out: Option<PathBuf>,
}

/// One named metric value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value, unrounded.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What one run measured and checked.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every check passed: no failed cell and no protocol error.
    pub correct: bool,
    /// Cells (verdicts) attempted in the measured phase.
    pub attempted: u64,
    /// Cells that errored or failed their verdict check.
    pub failed: u64,
    /// Requests completed in the measured phase (traced ones included).
    pub requests: usize,
    /// End-to-end metrics, from the untraced requests.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics; empty unless the run was traced.
    pub per_layer: Vec<Metric>,
    /// Cell ids in the order the first request sent them.
    pub order: Vec<String>,
    /// Verdict text per cell id (the rows as the wire encodes them).
    pub verdicts: BTreeMap<String, String>,
    /// Host facts the numbers depend on (core count, sink pipeline).
    pub host: Vec<(&'static str, String)>,
}

/// Runs one workload to completion and checks its outputs.
pub fn run(config: &RunConfig) -> Outcome {
    let mut outcome = match config.workload {
        Workload::Paper8 => paper8::run(config),
        Workload::SweepCold => sweep_cold::run(config),
        Workload::DaemonWarm => daemon_warm::run(config),
    };
    outcome.host = host_facts();
    outcome
}

/// Core count and the sink pipeline the analyzer picks on this host: the
/// serial pipeline's phase timings are a wall-clock partition of each
/// pass, the threaded one's `replay`/`count` are CPU time summed over
/// sink threads.
fn host_facts() -> Vec<(&'static str, String)> {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let tuning = leakaudit_analyzer::sink::SinkTuning::default();
    let (chunk, queue) = tuning.resolve(cores);
    let pipeline = if cores >= tuning.min_cores {
        "threaded (replay/count are CPU sums over sink threads)"
    } else {
        "serial (phases are a wall-clock partition)"
    };
    vec![
        ("cores", cores.to_string()),
        ("sink_pipeline", pipeline.to_string()),
        ("sink_chunk_queue", format!("{chunk}/{queue}")),
    ]
}

/// The workloads' shared end-to-end metrics.
pub(crate) fn end_to_end(
    latencies_ms: &[f64],
    cells: u64,
    failed: u64,
    wall_s: f64,
    setup_s: &[f64],
    peak_rss_mb: f64,
) -> Vec<Metric> {
    let metric = |name, value, unit| Metric { name, value, unit };
    vec![
        metric(
            "request_ms.p50",
            stats::percentile(latencies_ms, 50.0),
            "ms",
        ),
        metric(
            "request_ms.p90",
            stats::percentile(latencies_ms, 90.0),
            "ms",
        ),
        metric("cells_per_s", cells as f64 / wall_s, "1/s"),
        metric(
            "verified_share",
            stats::share(cells - failed.min(cells), cells),
            "share",
        ),
        metric("peak_rss_mb", peak_rss_mb, "MB"),
        metric("setup_s", stats::median(setup_s), "s"),
    ]
}
