//! Spans around the benchmark's calls into each layer, kept in memory
//! and written out when the run ends.
//!
//! Every request gets a root span `request` whose children are the layer
//! calls that make it up (`service.submit`, `analyzer.analyze`, …).
//! Measurements a traced request takes *besides* the request — building
//! the same scenarios, a `stats` snapshot, the engine-only round trip
//! for `service.wire_us` — sit under a separate root `probe` with the
//! same request id, so they never inflate a request's latency.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.call`, or `request` / `probe` for roots.
    pub name: &'static str,
    /// The request this span belongs to.
    pub request: u64,
    /// The client thread that recorded it.
    pub client: u32,
    /// Index of the parent span in the same tracer.
    pub parent: Option<usize>,
    /// Start, relative to the run's epoch.
    pub start: Duration,
    /// End, relative to the run's epoch.
    pub end: Duration,
}

impl Span {
    fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }

    /// The layer a span belongs to: the prefix before the first `.`;
    /// root spans belong to `bench` (the client's own time).
    pub fn layer(&self) -> &'static str {
        match self.name.split_once('.') {
            Some((layer, _)) => layer,
            None => "bench",
        }
    }
}

/// Index of an open or closed span.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(usize);

/// One client's span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    client: u32,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder for `client`, timing relative to `epoch`.
    pub fn new(epoch: Instant, client: u32) -> Self {
        Tracer {
            epoch,
            client,
            spans: Vec::new(),
        }
    }

    /// Opens a span.
    pub fn begin(&mut self, name: &'static str, request: u64, parent: Option<SpanId>) -> SpanId {
        let now = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            request,
            client: self.client,
            parent: parent.map(|p| p.0),
            start: now,
            end: now,
        });
        SpanId(self.spans.len() - 1)
    }

    /// Closes a span, returning its duration.
    pub fn end(&mut self, id: SpanId) -> Duration {
        let span = &mut self.spans[id.0];
        span.end = self.epoch.elapsed();
        span.duration()
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// The calls of one request: recorded as child spans when the request
/// is traced, plain calls otherwise.
pub struct Calls<'a> {
    traced: Option<(&'a mut Tracer, SpanId)>,
    request: u64,
}

impl<'a> Calls<'a> {
    /// Opens request `request` (a root span `root` when traced).
    pub fn open(tracer: Option<&'a mut Tracer>, root: &'static str, request: u64) -> Self {
        let traced = tracer.map(|t| {
            let id = t.begin(root, request, None);
            (t, id)
        });
        Calls { traced, request }
    }

    /// Runs one layer call; returns its duration when traced (zero
    /// otherwise, so untraced requests pay no clock reads).
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
        match &mut self.traced {
            Some((tracer, root)) => {
                let id = tracer.begin(name, self.request, Some(*root));
                let out = f();
                (out, tracer.end(id))
            }
            None => (f(), Duration::ZERO),
        }
    }

    /// Closes the root span.
    pub fn close(self) {
        if let Some((tracer, root)) = self.traced {
            tracer.end(root);
        }
    }
}

/// Self time per layer, summed over the span trees rooted at `request`
/// spans: each span's duration minus the part its children cover.
pub fn request_self_times(tracers: &[Tracer]) -> BTreeMap<&'static str, Duration> {
    let mut out: BTreeMap<&'static str, Duration> = BTreeMap::new();
    for tracer in tracers {
        let spans = tracer.spans();
        let mut covered = vec![Duration::ZERO; spans.len()];
        for span in spans {
            if let Some(p) = span.parent {
                covered[p] += span.duration();
            }
        }
        for (i, span) in spans.iter().enumerate() {
            let mut root = i;
            while let Some(p) = spans[root].parent {
                root = p;
            }
            if spans[root].name == "request" {
                *out.entry(span.layer()).or_default() += span.duration().saturating_sub(covered[i]);
            }
        }
    }
    out
}

/// Writes every span as one JSON line: name, request, client, id,
/// parent, start and end in microseconds since the run's epoch.
///
/// # Errors
///
/// Propagates I/O errors from creating or writing the file.
pub fn write_spans(path: &Path, tracers: &[Tracer]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
    for tracer in tracers {
        for (i, span) in tracer.spans().iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                file,
                "{{\"name\":\"{}\",\"request\":{},\"client\":{},\"id\":{i},\"parent\":{parent},\
                 \"start_us\":{:.3},\"end_us\":{:.3}}}",
                span.name,
                span.request,
                span.client,
                span.start.as_secs_f64() * 1e6,
                span.end.as_secs_f64() * 1e6,
            )?;
        }
    }
    file.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_skips_probes() {
        let epoch = Instant::now();
        let mut tracer = Tracer::new(epoch, 0);
        let mut calls = Calls::open(Some(&mut tracer), "request", 7);
        calls.call("service.submit", || {
            std::thread::sleep(Duration::from_millis(2))
        });
        calls.close();
        let mut probe = Calls::open(Some(&mut tracer), "probe", 7);
        probe.call("scenarios.build", || {
            std::thread::sleep(Duration::from_millis(2))
        });
        probe.close();
        let times = request_self_times(&[tracer]);
        assert!(times["service"] >= Duration::from_millis(2));
        assert!(times["bench"] < Duration::from_millis(2));
        assert!(
            !times.contains_key("scenarios"),
            "probe spans are not request time"
        );
    }
}
