//! The observer-sink pipeline: per-observer trace bookkeeping behind a
//! trait, decoupled from configuration scheduling.
//!
//! # Why a pipeline
//!
//! The scheduler's fixpoint iteration (see [`crate::scheduler`]) never
//! inspects trace state: forking, joining, and stepping depend only on
//! program counters and abstract machine states. Trace bookkeeping is a
//! pure *consumer* of what the scheduler does. This module exploits that
//! one-way data flow: the single abstract-interpretation pass emits a
//! stream of [`TraceEvent`]s, and one [`ObserverSink`] per observer spec
//! replays the stream against its own [`TraceDag`]. Sinks never
//! communicate with each other, so the pipeline advances them on scoped
//! threads — one engine pass feeds the whole observer suite concurrently
//! instead of interleaving 18 cursor updates into the scheduler loop.
//!
//! # Mapping onto the paper
//!
//! Each sink implements the per-observer protocol of §6.4 verbatim:
//! `Fork` duplicates a frontier cursor ([`TraceDag::clone_cursor`]),
//! `Merge` applies the delayed ε-join ([`TraceDag::merge_cursors`]),
//! `Fetch` and `Access` are the update rule (projection at update time),
//! and `Retire` folds a halted path into the final frontier. The final
//! count per sink is `cnt^π(v)` of Theorem 1 / Proposition 2; because
//! every sink sees the events of *every* abstract path in the order the
//! scheduler produced them, the per-sink replay is observationally
//! identical to the old engine that threaded one `Vec<Option<Cursor>>`
//! through every configuration — bit-for-bit, as the batch-consistency
//! suite checks.
//! Every fetch and access event goes through that update rule: the only
//! shortcuts on the sink side are the direct projection of fetch pcs and
//! singleton address sets, and the per-class projection map of
//! [`DagSink`].

use std::collections::HashMap;
use std::sync::mpsc;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use leakaudit_core::{Cursor, FxBuildHasher, MaskedSymbol, MemoKey, ObsSet, TraceDag, ValueSet};
use leakaudit_mpi::Natural;

use crate::report::{LeakRow, ObserverSpec, PhaseTimings};

/// Identifier of one live configuration (abstract execution path).
///
/// Allocated by the scheduler, monotonically increasing; sinks use it to
/// key their cursor bookkeeping. Replaces the old scheme where every
/// configuration carried a positionally-indexed `Vec<Option<Cursor>>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConfigId(pub(crate) u64);

impl ConfigId {
    /// The initial configuration every run starts from. The scheduler
    /// allocates ids upward from here; sinks seed their root cursor
    /// under this id.
    pub const ROOT: ConfigId = ConfigId(0);

    /// Build a configuration id from a raw value. External drivers (and the
    /// replay property tests) use this to synthesise event streams without
    /// going through the scheduler's allocator; ids only need to be unique
    /// among the configurations live at any given moment.
    pub fn from_raw(id: u64) -> ConfigId {
        ConfigId(id)
    }
}

/// One scheduler action relevant to trace bookkeeping, in the exact
/// order the abstract interpretation performed it.
///
/// Fetches, most of the stream, carry only the pc: a fetch address is
/// always that one constant, so the sinks project it directly and no
/// address set is built, moved or keyed for it. `Access` carries its
/// address set inline and dwarfs the other variants; boxing it would
/// cost a heap allocation per data access on the hot path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// Configuration `parent` forked; `child` continues on the taken
    /// branch with a duplicated frontier.
    Fork {
        /// The configuration that hit the undecided branch.
        parent: ConfigId,
        /// The new configuration for the taken path.
        child: ConfigId,
    },
    /// Configuration `from` reached the same pc as `into` and was joined
    /// into it (paper §6.4 join; `into`'s cursor is the left operand).
    Merge {
        /// The surviving configuration.
        into: ConfigId,
        /// The configuration dissolved into it.
        from: ConfigId,
    },
    /// An instruction fetch at `pc` (visible to I-cache and shared
    /// observers).
    Fetch {
        /// The configuration fetching.
        config: ConfigId,
        /// The fetched instruction's address.
        pc: u32,
    },
    /// A data access with the given set of possible addresses (visible
    /// to D-cache and shared observers).
    Access {
        /// The configuration performing the access.
        config: ConfigId,
        /// The abstract address set. Its [`MemoKey`] is *not* carried in
        /// the event — inline keys would double the event size and every
        /// event is moved through buffers on the hot path; the consuming
        /// class sinks derive it once per visible event instead.
        addresses: ValueSet,
    },
    /// The configuration reached `hlt`; its frontier joins the final
    /// cursor the leakage count is taken from.
    Retire {
        /// The halting configuration.
        config: ConfigId,
    },
}

impl TraceEvent {
    /// Builds an [`TraceEvent::Access`].
    pub fn access(config: ConfigId, addresses: ValueSet) -> Self {
        TraceEvent::Access { config, addresses }
    }
}

/// Trace bookkeeping for one *equivalence class* of observers fed by the
/// scheduler's event stream.
///
/// Implementations own whatever state their observers need (for the
/// paper's analysis: one [`TraceDag`] plus one cursor per live
/// configuration, per observer) and produce one [`LeakRow`] per served
/// spec when the stream ends. Most sinks serve a single spec; the class
/// sink built by [`DagSink::for_class`] serves every spec of one
/// (channel, offset-bits) class from a shared per-event front end.
pub trait ObserverSink: Send {
    /// The channel/observer pairs this sink serves, in row order.
    fn specs(&self) -> Vec<ObserverSpec>;

    /// Consumes one scheduler event.
    fn absorb(&mut self, event: &TraceEvent);

    /// Consumes a batch of events. The default forwards to
    /// [`ObserverSink::absorb`]; both buses call this once per chunk, so
    /// the dynamic dispatch is paid per chunk rather than per event.
    fn absorb_chunk(&mut self, events: &[TraceEvent]) {
        for event in events {
            self.absorb(event);
        }
    }

    /// Finishes the stream: count traces and convert to leakage bounds,
    /// one row per spec, in [`ObserverSink::specs`] order.
    fn into_rows(self: Box<Self>) -> Vec<LeakRow>;
}

/// One observer's replay state inside a [`DagSink`]: its own DAG, its
/// cursor table (dense, indexed by [`ConfigId`] — ids are allocated
/// monotonically from zero, so the table stays small and hash-free).
struct Lane {
    spec: ObserverSpec,
    dag: TraceDag,
    cursors: Vec<Option<Cursor>>,
    finals: Option<Cursor>,
}

impl Lane {
    fn new(spec: ObserverSpec, initial: ConfigId) -> Self {
        let (dag, cursor) = TraceDag::new(spec.observer);
        let mut lane = Lane {
            spec,
            dag,
            cursors: Vec::new(),
            finals: None,
        };
        lane.put(initial, cursor);
        lane
    }

    fn take(&mut self, id: ConfigId) -> Cursor {
        self.cursors
            .get_mut(id.0 as usize)
            .and_then(Option::take)
            .expect("cursor present for config")
    }

    fn put(&mut self, id: ConfigId, cursor: Cursor) {
        let idx = id.0 as usize;
        if idx >= self.cursors.len() {
            self.cursors.resize_with(idx + 1, || None);
        }
        self.cursors[idx] = Some(cursor);
    }

    fn fork(&mut self, parent: ConfigId, child: ConfigId) {
        let cloned = {
            let cur = self.cursors[parent.0 as usize]
                .as_ref()
                .expect("cursor present for config");
            self.dag.clone_cursor(cur)
        };
        self.put(child, cloned);
    }

    fn merge(&mut self, into: ConfigId, from: ConfigId) {
        let mine = self.take(into);
        let theirs = self.take(from);
        let merged = self.dag.merge_cursors(mine, theirs);
        self.put(into, merged);
        self.maybe_compact();
    }

    /// Advances `config`'s cursor by one observation (§6.4 update).
    fn access(&mut self, config: ConfigId, obs: &ObsSet) {
        let cur = self.take(config);
        let cur = self.dag.update(cur, obs);
        self.put(config, cur);
    }

    fn retire(&mut self, config: ConfigId) {
        let cur = self.take(config);
        self.finals = Some(match self.finals.take() {
            None => cur,
            Some(acc) => self.dag.merge_cursors(acc, cur),
        });
        self.maybe_compact();
    }

    /// Reclaim dead DAG vertices once they dominate the table. Joins are
    /// the only producer of dead vertices, so this runs after `Merge`
    /// and `Retire` events; fork-heavy runs (defensive copies analyzed
    /// with thousands of joins) otherwise re-scan an ever-growing
    /// graveyard in every counting pass.
    fn maybe_compact(&mut self) {
        const MIN_DEAD: usize = 1024;
        if self.dag.dead_vertices() >= MIN_DEAD
            && self.dag.dead_vertices() * 2 >= self.dag.vertex_count()
        {
            self.dag.compact(
                self.cursors
                    .iter_mut()
                    .flatten()
                    .chain(self.finals.as_mut()),
            );
        }
    }

    fn into_row(self) -> LeakRow {
        let (count, bits) = match &self.finals {
            Some(cur) => {
                let n = self.dag.count(cur);
                let bits = TraceDag::bits_for_count(&n);
                (n, bits)
            }
            // No path reached hlt: zero traces.
            None => (Natural::zero(), 0.0),
        };
        LeakRow {
            spec: self.spec,
            count,
            bits,
        }
    }
}

/// The standard sink: the replay state of one offset-bits equivalence
/// class of observers, one [`Lane`] per member spec behind a shared
/// per-event front end.
///
/// Every lane of a class projects addresses identically — projection
/// depends only on the offset bits; neither the channel (which decides
/// *visibility*, filtered per lane) nor stuttering (which changes how a
/// lane's DAG consumes an observation, never the observation itself)
/// enters it. So the class sink derives the [`MemoKey`] and resolves
/// the projection **once per event**, then fans the resolved [`ObsSet`]
/// out to the lanes whose channel sees the access. Grouping by offset
/// alone (rather than per (channel, offset) pair) matters on the hot
/// path: a fetch used to be keyed, hashed, and resolved separately by
/// the instruction-channel and shared-channel sinks of every
/// granularity; now each granularity pays once. Lanes are *not* merged
/// into one DAG: stuttering and exact observers build structurally
/// different DAGs (a stutter keeps the cursor on a vertex an exact
/// observer would have extended past), so sharing a DAG across them
/// would change counts.
pub struct DagSink {
    lanes: Vec<Lane>,
    /// Whether any lane sees (fetches, data accesses) — lets the front
    /// end skip key derivation and projection for invisible kinds.
    sees: (bool, bool),
    /// Projections of multi-element address sets, keyed by
    /// [`MemoKey`]. Singletons (almost every access) are projected
    /// directly: a few shifts and masks beat a hash and a probe.
    proj: HashMap<MemoKey, ObsSet, FxBuildHasher>,
}

impl DagSink {
    /// Creates a single-spec sink with the root cursor owned by
    /// `initial`.
    pub fn new(spec: ObserverSpec, initial: ConfigId) -> Self {
        DagSink::for_class(std::slice::from_ref(&spec), initial)
    }

    /// Creates one sink serving a whole offset-bits equivalence class,
    /// one lane per spec in the given row order.
    ///
    /// # Panics
    ///
    /// Panics if `specs` is empty or the specs disagree on offset bits
    /// (they would not project identically).
    pub fn for_class(specs: &[ObserverSpec], initial: ConfigId) -> Self {
        let first = specs.first().expect("class has at least one spec");
        assert!(
            specs
                .iter()
                .all(|s| s.observer.offset_bits() == first.observer.offset_bits()),
            "class specs must share offset bits"
        );
        DagSink {
            lanes: specs.iter().map(|&s| Lane::new(s, initial)).collect(),
            sees: (
                specs.iter().any(|s| s.channel.sees_fetches()),
                specs.iter().any(|s| s.channel.sees_data()),
            ),
            proj: HashMap::default(),
        }
    }
}

impl ObserverSink for DagSink {
    fn specs(&self) -> Vec<ObserverSpec> {
        self.lanes.iter().map(|lane| lane.spec).collect()
    }

    fn absorb(&mut self, event: &TraceEvent) {
        match event {
            TraceEvent::Fork { parent, child } => {
                for lane in &mut self.lanes {
                    lane.fork(*parent, *child);
                }
            }
            TraceEvent::Merge { into, from } => {
                for lane in &mut self.lanes {
                    lane.merge(*into, *from);
                }
            }
            // The projection is resolved once per class; all lanes
            // project identically, so lane 0's observer stands in for
            // the class. Visibility is a per-lane channel filter.
            TraceEvent::Fetch { config, pc } => {
                if !self.sees.0 {
                    return;
                }
                let observer = self.lanes[0].dag.observer();
                let obs =
                    ObsSet::one(observer.project(&MaskedSymbol::constant(u64::from(*pc), 32)));
                for lane in &mut self.lanes {
                    if lane.spec.channel.sees_fetches() {
                        lane.access(*config, &obs);
                    }
                }
            }
            TraceEvent::Access { config, addresses } => {
                // A singleton projects in place (no heap); a
                // multi-element set is *borrowed* out of the projection
                // map for the lane fan-out — cloning it per event would
                // put an allocation on the hot path.
                if !self.sees.1 {
                    return;
                }
                let observer = self.lanes[0].dag.observer();
                let single;
                let obs = match addresses.memo_key() {
                    MemoKey::One(_) => {
                        single = observer.project_set(addresses);
                        &single
                    }
                    key => self
                        .proj
                        .entry(key)
                        .or_insert_with(|| observer.project_set(addresses)),
                };
                for lane in &mut self.lanes {
                    if lane.spec.channel.sees_data() {
                        lane.access(*config, obs);
                    }
                }
            }
            TraceEvent::Retire { config } => {
                for lane in &mut self.lanes {
                    lane.retire(*config);
                }
            }
        }
    }

    fn into_rows(self: Box<Self>) -> Vec<LeakRow> {
        self.lanes.into_iter().map(Lane::into_row).collect()
    }
}

/// Where the scheduler publishes its events.
pub trait EventBus {
    /// Emits one event to every sink.
    fn emit(&mut self, event: TraceEvent);
}

/// Backpressure tuning of the threaded sink pipeline.
///
/// The fixed constants these fields replace were sized for multicore
/// machines; `None` lets the pipeline pick per machine (big chunks and
/// deep queues when cores are plentiful, smaller ones when the sinks
/// share few cores and buffered chunks are mostly memory pressure).
/// Like `parallel_sinks`, none of this changes any result — the batch
/// consistency suite pins serial and threaded rows bit-identical — so
/// the fields are deliberately **excluded** from cache-key identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SinkTuning {
    /// Events per chunk handed to sink threads (`None` = auto by core
    /// count). Bigger chunks amortize channel traffic; smaller ones cut
    /// latency to first overlap and per-sink buffer memory.
    pub chunk: Option<usize>,
    /// Chunks that may queue per sink before the scheduler blocks
    /// (`None` = auto). Bounds pipeline memory at `queue × chunk`
    /// events per sink and gives slow sinks backpressure.
    pub queue: Option<usize>,
    /// Minimum hardware threads for the threaded pipeline; below this
    /// the serial fallback runs. The default of 3 is a retune from the
    /// original `> 1`: with one core driving the scheduler, the 18
    /// consumer threads need at least two more to overlap rather than
    /// time-slice against the producer.
    pub min_cores: usize,
}

impl Default for SinkTuning {
    fn default() -> Self {
        SinkTuning {
            chunk: None,
            queue: None,
            min_cores: 3,
        }
    }
}

impl SinkTuning {
    /// The `(chunk, queue)` sizes to use on a machine with `cores`
    /// hardware threads: explicit values win, otherwise `(1024, 64)`
    /// on ≥ 4 cores (the original multicore sizing) and `(256, 16)`
    /// below, where deep per-sink buffers are mostly memory pressure.
    pub fn resolve(&self, cores: usize) -> (usize, usize) {
        let (auto_chunk, auto_queue) = if cores >= 4 { (1024, 64) } else { (256, 16) };
        (
            self.chunk.unwrap_or(auto_chunk).max(1),
            self.queue.unwrap_or(auto_queue).max(1),
        )
    }
}

/// Runs a set of sinks against the event stream produced by `drive`,
/// with default [`SinkTuning`], discarding phase timings. See
/// [`run_pipeline_with`].
pub fn run_pipeline<E>(
    sinks: Vec<Box<dyn ObserverSink>>,
    parallel: bool,
    drive: impl FnOnce(&mut dyn EventBus) -> Result<(), E>,
) -> Result<Vec<LeakRow>, E> {
    run_pipeline_with(sinks, parallel, SinkTuning::default(), drive).map(|(rows, _)| rows)
}

/// Runs a set of sinks against the event stream produced by `drive`.
///
/// With more than one sink (and unless `parallel` is off or the machine
/// has fewer than [`SinkTuning::min_cores`] hardware threads) each sink
/// gets its own scoped thread and consumes `Arc`-shared event chunks
/// while the scheduler keeps producing — interpretation and trace
/// bookkeeping overlap, and the expensive final counting (big-number
/// arithmetic per Proposition 2) runs concurrently across observers.
///
/// Row order in the result is sink order, flattened over each sink's
/// [`ObserverSink::specs`]. If `drive` errors, the partial rows are
/// discarded and the error is returned.
///
/// The returned [`PhaseTimings`] split the run into interpretation
/// (scheduler fixpoint), replay (sink event consumption), and counting
/// (Proposition 2 arithmetic). On the serial path the three are a
/// disjoint wall-clock partition; on the threaded path `interpret` is
/// the producer's wall time while `replay`/`count` are CPU time summed
/// across sink threads (the phases overlap by design).
pub fn run_pipeline_with<E>(
    sinks: Vec<Box<dyn ObserverSink>>,
    parallel: bool,
    tuning: SinkTuning,
    drive: impl FnOnce(&mut dyn EventBus) -> Result<(), E>,
) -> Result<(Vec<LeakRow>, PhaseTimings), E> {
    // With too few hardware threads the consumer threads cannot overlap
    // with the scheduler; the channel traffic would be pure overhead.
    let cores = host_cores();
    let parallel = parallel && cores >= tuning.min_cores;
    if sinks.len() <= 1 || !parallel {
        // Chunked even in serial mode: buffering `chunk` events and
        // looping sinks over the batch keeps each sink's working set hot
        // per chunk, and needs only two clock reads per (chunk, sink)
        // instead of per event to attribute replay time.
        let (chunk, _) = tuning.resolve(cores);
        let mut bus = SerialBus {
            sinks,
            buffer: Vec::with_capacity(chunk),
            chunk,
            replay: Duration::ZERO,
        };
        let started = Instant::now();
        drive(&mut bus).map(|()| {
            bus.flush();
            let interpret = started.elapsed().saturating_sub(bus.replay);
            let counting = Instant::now();
            let rows: Vec<LeakRow> = bus
                .sinks
                .into_iter()
                .flat_map(ObserverSink::into_rows)
                .collect();
            let timings = PhaseTimings {
                interpret,
                replay: bus.replay,
                count: counting.elapsed(),
            };
            (rows, timings)
        })
    } else {
        let (chunk, queue) = tuning.resolve(cores);
        run_threaded(sinks, chunk, queue, drive)
    }
}

/// The host's hardware thread count, probed once per process: the probe
/// reads cgroup files on Linux, and a sweep runs dozens of passes.
fn host_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES
        .get_or_init(|| std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get))
}

/// Serial fallback: events are buffered and applied to every sink in
/// chunk-sized batches (see [`run_pipeline_with`] for why).
struct SerialBus {
    sinks: Vec<Box<dyn ObserverSink>>,
    buffer: Vec<TraceEvent>,
    chunk: usize,
    replay: Duration,
}

impl SerialBus {
    fn flush(&mut self) {
        if self.buffer.is_empty() {
            return;
        }
        let started = Instant::now();
        for sink in &mut self.sinks {
            sink.absorb_chunk(&self.buffer);
        }
        self.replay += started.elapsed();
        self.buffer.clear();
    }
}

impl EventBus for SerialBus {
    fn emit(&mut self, event: TraceEvent) {
        self.buffer.push(event);
        if self.buffer.len() >= self.chunk {
            self.flush();
        }
    }
}

/// Threaded pipeline: one consumer thread per sink. `chunk` events are
/// batched per channel send; `queue` chunks may queue per sink before
/// the scheduler blocks (see [`SinkTuning`]).
fn run_threaded<E>(
    sinks: Vec<Box<dyn ObserverSink>>,
    chunk: usize,
    queue: usize,
    drive: impl FnOnce(&mut dyn EventBus) -> Result<(), E>,
) -> Result<(Vec<LeakRow>, PhaseTimings), E> {
    std::thread::scope(|scope| {
        let aborted = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut txs = Vec::with_capacity(sinks.len());
        let mut handles = Vec::with_capacity(sinks.len());
        for mut sink in sinks {
            let (tx, rx) = mpsc::sync_channel::<Arc<Vec<TraceEvent>>>(queue);
            txs.push(tx);
            let aborted = Arc::clone(&aborted);
            handles.push(scope.spawn(move || {
                let mut replay = Duration::ZERO;
                while let Ok(chunk) = rx.recv() {
                    if aborted.load(std::sync::atomic::Ordering::Relaxed) {
                        break;
                    }
                    let started = Instant::now();
                    sink.absorb_chunk(&chunk);
                    replay += started.elapsed();
                }
                if aborted.load(std::sync::atomic::Ordering::Relaxed) {
                    // The driver failed: rows are discarded, so skip the
                    // (possibly expensive) final counting.
                    let rows = sink
                        .specs()
                        .into_iter()
                        .map(|spec| LeakRow {
                            spec,
                            count: Natural::zero(),
                            bits: 0.0,
                        })
                        .collect::<Vec<_>>();
                    (rows, replay, Duration::ZERO)
                } else {
                    let counting = Instant::now();
                    let rows = sink.into_rows();
                    (rows, replay, counting.elapsed())
                }
            }));
        }

        let mut bus = ChannelBus {
            buffer: Vec::with_capacity(chunk),
            chunk,
            txs,
        };
        let started = Instant::now();
        let outcome = drive(&mut bus);
        let interpret = started.elapsed();
        if outcome.is_ok() {
            bus.flush();
        } else {
            aborted.store(true, std::sync::atomic::Ordering::Relaxed);
        }
        drop(bus); // close channels so consumers finish

        let mut rows = Vec::new();
        let mut timings = PhaseTimings {
            interpret,
            ..PhaseTimings::default()
        };
        for handle in handles {
            let (sink_rows, replay, count) = handle.join().expect("sink thread panicked");
            rows.extend(sink_rows);
            timings.replay += replay;
            timings.count += count;
        }
        outcome.map(|()| (rows, timings))
    })
}

struct ChannelBus {
    buffer: Vec<TraceEvent>,
    chunk: usize,
    txs: Vec<mpsc::SyncSender<Arc<Vec<TraceEvent>>>>,
}

impl ChannelBus {
    fn flush(&mut self) {
        if self.buffer.is_empty() {
            return;
        }
        let chunk = Arc::new(std::mem::take(&mut self.buffer));
        for tx in &self.txs {
            // A sink thread can only be gone if it panicked; the panic is
            // propagated by the join above, so a send failure is ignorable.
            let _ = tx.send(Arc::clone(&chunk));
        }
        self.buffer = Vec::with_capacity(self.chunk);
    }
}

impl EventBus for ChannelBus {
    fn emit(&mut self, event: TraceEvent) {
        self.buffer.push(event);
        if self.buffer.len() >= self.chunk {
            self.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Channel;
    use leakaudit_core::Observer;

    /// The Ex. 9 protocol (fork, diverge, merge, continue) through the
    /// event-stream interface, for both pipeline modes.
    fn example9_events(bus: &mut dyn EventBus) -> Result<(), std::convert::Infallible> {
        let (main, taken) = (ConfigId(0), ConfigId(1));
        for pc in [0x41a90, 0x41a97, 0x41a99] {
            bus.emit(TraceEvent::Fetch { config: main, pc });
        }
        bus.emit(TraceEvent::Fork {
            parent: main,
            child: taken,
        });
        for pc in [0x41a9b, 0x41a9d, 0x41a9f] {
            bus.emit(TraceEvent::Fetch { config: main, pc });
        }
        bus.emit(TraceEvent::Merge {
            into: main,
            from: taken,
        });
        bus.emit(TraceEvent::Fetch {
            config: main,
            pc: 0x41aa1,
        });
        bus.emit(TraceEvent::Retire { config: main });
        Ok(())
    }

    fn example9_rows(parallel: bool) -> Vec<LeakRow> {
        let specs = [
            ObserverSpec {
                channel: Channel::Instruction,
                observer: Observer::address(),
            },
            ObserverSpec {
                channel: Channel::Instruction,
                observer: Observer::block(6).stuttering(),
            },
            ObserverSpec {
                channel: Channel::Data,
                observer: Observer::address(),
            },
        ];
        let sinks: Vec<Box<dyn ObserverSink>> = specs
            .iter()
            .map(|&spec| Box::new(DagSink::new(spec, ConfigId(0))) as Box<dyn ObserverSink>)
            .collect();
        run_pipeline(sinks, parallel, example9_events).unwrap()
    }

    #[test]
    fn serial_pipeline_reproduces_example9() {
        let rows = example9_rows(false);
        assert_eq!(rows[0].count.to_u64(), Some(2), "address observer");
        assert_eq!(rows[1].count.to_u64(), Some(1), "stuttering block");
        // The data channel saw no accesses: exactly one (empty) trace.
        assert_eq!(rows[2].count.to_u64(), Some(1));
    }

    #[test]
    fn threaded_pipeline_matches_serial() {
        let serial = example9_rows(false);
        let threaded = example9_rows(true);
        for (s, t) in serial.iter().zip(&threaded) {
            assert_eq!(s.spec, t.spec);
            assert_eq!(s.count, t.count);
            assert_eq!(s.bits, t.bits);
        }
    }

    #[test]
    fn class_sink_matches_solo_sinks_bit_for_bit() {
        let specs = [
            ObserverSpec {
                channel: Channel::Instruction,
                observer: Observer::block(6),
            },
            ObserverSpec {
                channel: Channel::Instruction,
                observer: Observer::block(6).stuttering(),
            },
        ];
        let solo: Vec<LeakRow> = specs
            .iter()
            .map(|&spec| {
                let sinks: Vec<Box<dyn ObserverSink>> =
                    vec![Box::new(DagSink::new(spec, ConfigId(0)))];
                run_pipeline(sinks, false, example9_events)
                    .unwrap()
                    .remove(0)
            })
            .collect();
        let class: Vec<Box<dyn ObserverSink>> =
            vec![Box::new(DagSink::for_class(&specs, ConfigId(0)))];
        let grouped = run_pipeline(class, false, example9_events).unwrap();
        assert_eq!(grouped.len(), specs.len(), "one row per lane");
        for (s, g) in solo.iter().zip(&grouped) {
            assert_eq!(s.spec, g.spec);
            assert_eq!(s.count, g.count);
            assert_eq!(s.bits.to_bits(), g.bits.to_bits());
        }
    }

    #[test]
    fn tuning_resolution_prefers_explicit_values() {
        let auto = SinkTuning::default();
        assert_eq!(auto.resolve(8), (1024, 64), "multicore keeps old sizing");
        assert_eq!(auto.resolve(2), (256, 16), "few cores shrink the buffers");
        let pinned = SinkTuning {
            chunk: Some(8),
            queue: Some(2),
            min_cores: 1,
        };
        assert_eq!(pinned.resolve(1), (8, 2));
        assert_eq!(pinned.resolve(64), (8, 2));
        // Degenerate explicit zeroes clamp to 1 instead of panicking.
        let zeroed = SinkTuning {
            chunk: Some(0),
            queue: Some(0),
            min_cores: 0,
        };
        assert_eq!(zeroed.resolve(4), (1, 1));
    }

    #[test]
    fn tiny_chunks_through_the_threaded_pipeline_match_serial() {
        let specs = [
            ObserverSpec {
                channel: Channel::Instruction,
                observer: Observer::address(),
            },
            ObserverSpec {
                channel: Channel::Instruction,
                observer: Observer::block(6).stuttering(),
            },
        ];
        let run = |tuning: SinkTuning| {
            let sinks: Vec<Box<dyn ObserverSink>> = specs
                .iter()
                .map(|&spec| Box::new(DagSink::new(spec, ConfigId(0))) as Box<dyn ObserverSink>)
                .collect();
            let (rows, _) = run_pipeline_with(sinks, true, tuning, example9_events).unwrap();
            rows
        };
        // A chunk of 1 with a queue of 1 maximizes channel traffic and
        // backpressure stalls — rows must still be bit-identical.
        let tiny = run(SinkTuning {
            chunk: Some(1),
            queue: Some(1),
            min_cores: 1,
        });
        let default = run(SinkTuning::default());
        for (a, b) in tiny.iter().zip(&default) {
            assert_eq!(a.spec, b.spec);
            assert_eq!(a.count, b.count);
            assert_eq!(a.bits.to_bits(), b.bits.to_bits());
        }
    }

    #[test]
    fn retire_without_access_counts_one_trace() {
        let spec = ObserverSpec {
            channel: Channel::Shared,
            observer: Observer::address(),
        };
        let sinks: Vec<Box<dyn ObserverSink>> = vec![Box::new(DagSink::new(spec, ConfigId(0)))];
        let rows = run_pipeline(
            sinks,
            false,
            |bus| -> Result<(), std::convert::Infallible> {
                bus.emit(TraceEvent::Retire {
                    config: ConfigId(0),
                });
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(rows[0].count.to_u64(), Some(1));
        assert_eq!(rows[0].bits, 0.0);
    }

    #[test]
    fn error_from_driver_discards_rows() {
        let spec = ObserverSpec {
            channel: Channel::Shared,
            observer: Observer::address(),
        };
        let sinks: Vec<Box<dyn ObserverSink>> = vec![Box::new(DagSink::new(spec, ConfigId(0)))];
        let err = run_pipeline(sinks, true, |bus| {
            bus.emit(TraceEvent::access(
                ConfigId(0),
                ValueSet::constant(0x10, 32),
            ));
            Err("boom")
        })
        .unwrap_err();
        assert_eq!(err, "boom");
    }
}
