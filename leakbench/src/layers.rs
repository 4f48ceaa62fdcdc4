//! Per-layer accounting of a traced run: analyzer work from reports or
//! daemon `stats` deltas, service call times, cache and wire figures.

use std::collections::BTreeMap;
use std::time::Duration;

use leakaudit_analyzer::LeakReport;
use leakaudit_service::{Daemon, Json};

use crate::{stats, Metric};

/// The interpreter-memo counters reported: `stats` `interp_memo` key and
/// metric name.
const MEMO: [(&str, &str); 6] = [
    ("transfer_hits", "analyzer.transfer_hits"),
    ("transfer_misses", "analyzer.transfer_misses"),
    ("script_replays", "analyzer.script_replays"),
    ("script_steps", "analyzer.script_steps"),
    ("sink_script_hits", "analyzer.sink_script_hits"),
    ("sink_script_events", "analyzer.sink_script_events"),
];

/// The phases reported: `stats` `timings` key and metric name.
const PHASES: [(&str, &str); 3] = [
    ("interpret_us", "analyzer.interpret_ms"),
    ("replay_us", "analyzer.replay_ms"),
    ("count_us", "analyzer.count_ms"),
];

/// Analyzer work: scheduler passes, phase times (µs) and memo counters,
/// in the order of [`PHASES`] and [`MEMO`].
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Work {
    pub passes: u64,
    pub phase_us: [f64; 3],
    pub memo: [u64; 6],
}

impl Work {
    /// Adds one analysis report's timings and counters (one pass).
    pub fn add_report(&mut self, report: &LeakReport) {
        let t = report.timings();
        let m = report.memo_stats();
        self.add(&Work {
            passes: 1,
            phase_us: [t.interpret, t.replay, t.count].map(|d| d.as_secs_f64() * 1e6),
            memo: [
                m.transfer_hits,
                m.transfer_misses,
                m.script_replays,
                m.script_steps,
                m.sink_script_hits,
                m.sink_script_events,
            ],
        });
    }

    /// Adds another run's work.
    pub fn add(&mut self, other: &Work) {
        self.passes += other.passes;
        for (a, b) in self.phase_us.iter_mut().zip(other.phase_us) {
            *a += b;
        }
        for (a, b) in self.memo.iter_mut().zip(other.memo) {
            *a += b;
        }
    }
}

/// The parts of one daemon `stats` answer the benchmark reads.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Snapshot {
    pub work: Work,
    pub hits: u64,
    pub misses: u64,
    pub bytes: u64,
    pub workers: u64,
}

impl Snapshot {
    /// Asks `daemon` for `stats` through the protocol.
    pub fn take(daemon: &Daemon) -> Snapshot {
        let text = daemon.handle_line(r#"{"op":"stats"}"#);
        let json = Json::parse(&text).expect("stats answers JSON");
        let num = |section: &str, key: &str| {
            json.get(section)
                .and_then(|s| s.get(key))
                .and_then(Json::as_u64)
                .unwrap_or_else(|| panic!("stats lacks {section}.{key}: {text}"))
        };
        Snapshot {
            work: Work {
                passes: num("timings", "analyzed"),
                phase_us: PHASES.map(|(key, _)| num("timings", key) as f64),
                memo: MEMO.map(|(key, _)| num("interp_memo", key)),
            },
            hits: num("cache", "hits"),
            misses: num("cache", "misses"),
            bytes: num("cache", "bytes"),
            workers: num("executor", "workers"),
        }
    }

    /// What happened between `earlier` and `self` (bytes and workers are
    /// levels, not counters, and keep `self`'s value).
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        let (a, b) = (&self.work, &earlier.work);
        Snapshot {
            work: Work {
                passes: a.passes - b.passes,
                phase_us: std::array::from_fn(|i| a.phase_us[i] - b.phase_us[i]),
                memo: std::array::from_fn(|i| a.memo[i] - b.memo[i]),
            },
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            bytes: self.bytes,
            workers: self.workers,
        }
    }
}

/// Totals over a run's traced requests; every per-request metric is a
/// total divided by `requests`.
#[derive(Debug, Clone, Default)]
pub(crate) struct Layers {
    /// Traced requests.
    pub requests: u64,
    pub work: Work,
    /// Requests `work` covers, where it is not just the traced ones.
    pub work_requests: u64,
    /// Cells answered by another cell's scheduler pass.
    pub shared_cells: u64,
    pub submit_ms: f64,
    pub result_ms: f64,
    /// Sum over requests of executor busy time / (workers × request wall).
    pub busy_share: f64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// Result-cache size after the last snapshot.
    pub cache_bytes: u64,
    pub response_bytes: u64,
    /// Sum over requests of (protocol round trip − engine submit+collect).
    pub wire_us: f64,
}

impl Layers {
    /// Folds another client's totals in.
    pub fn merge(&mut self, other: &Layers) {
        self.requests += other.requests;
        self.work.add(&other.work);
        self.shared_cells += other.shared_cells;
        self.submit_ms += other.submit_ms;
        self.result_ms += other.result_ms;
        self.busy_share += other.busy_share;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.cache_bytes = self.cache_bytes.max(other.cache_bytes);
        self.response_bytes += other.response_bytes;
        self.wire_us += other.wire_us;
    }

    /// The per-layer metrics. `build_ms` is the time in
    /// `ScenarioSpec::build` per request (or in setup, where requests
    /// build nothing); `self_times` come from the request span trees.
    pub fn metrics(
        &self,
        build_ms: f64,
        trace_overhead: f64,
        self_times: &BTreeMap<&'static str, Duration>,
    ) -> Vec<Metric> {
        let n = self.requests.max(1) as f64;
        let w = match self.work_requests {
            0 => n,
            covered => covered as f64,
        };
        let per = |total: f64| total / n;
        let count = |total: u64| total as f64 / n;
        let work = |total: f64| total / w;
        let self_ms = |layer: &str| {
            self_times
                .get(layer)
                .map_or(0.0, |d| d.as_secs_f64() * 1e3 / n)
        };
        let metric = |name, value, unit| Metric { name, value, unit };
        let memo = &self.work.memo;
        let mut out = vec![metric("scenarios.build_ms", build_ms, "ms")];
        for ((_, name), us) in PHASES.iter().zip(self.work.phase_us) {
            out.push(metric(name, work(us) / 1e3, "ms"));
        }
        out.push(metric(
            "analyzer.passes",
            work(self.work.passes as f64),
            "count",
        ));
        out.push(metric(
            "service.shared_cells",
            count(self.shared_cells),
            "count",
        ));
        for ((_, name), total) in MEMO.iter().zip(memo) {
            out.push(metric(name, work(*total as f64), "count"));
        }
        out.extend([
            metric(
                "analyzer.transfer_hit_ratio",
                stats::share(memo[0], memo[0] + memo[1]),
                "share",
            ),
            metric("service.submit_ms", per(self.submit_ms), "ms"),
            metric("service.result_ms", per(self.result_ms), "ms"),
            metric("service.worker_busy_share", per(self.busy_share), "share"),
            metric(
                "service.cache_hit_ratio",
                stats::share(self.cache_hits, self.cache_hits + self.cache_misses),
                "share",
            ),
            metric("service.cache_bytes", self.cache_bytes as f64, "bytes"),
            metric(
                "service.response_bytes",
                count(self.response_bytes),
                "bytes",
            ),
            metric("service.wire_us", per(self.wire_us), "us"),
            metric("scenarios.self_ms", self_ms("scenarios"), "ms"),
            metric("analyzer.self_ms", self_ms("analyzer"), "ms"),
            metric("service.self_ms", self_ms("service"), "ms"),
            metric("bench.self_ms", self_ms("bench"), "ms"),
            metric("bench.trace_overhead", trace_overhead, "share"),
        ]);
        out
    }
}

/// `(traced p50 − untraced p50) / untraced p50`.
pub(crate) fn trace_overhead(untraced_ms: &[f64], traced_ms: &[f64]) -> f64 {
    let base = stats::percentile(untraced_ms, 50.0);
    (stats::percentile(traced_ms, 50.0) - base) / base
}
