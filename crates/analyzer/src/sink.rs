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
//! `Access` is the update rule (projection at update time), and `Retire`
//! folds a halted path into the final frontier. The final count per sink
//! is `cnt^π(v)` of Theorem 1 / Proposition 2; because every sink sees
//! the events of *every* abstract path in the order the scheduler
//! produced them, the per-sink replay is observationally identical to
//! the old engine that threaded one `Vec<Option<Cursor>>` through every
//! configuration — bit-for-bit, as the batch-consistency suite checks.

use std::collections::HashMap;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use leakaudit_core::{Cursor, DagStep, FxBuildHasher, Label, MemoKey, ObsSet, TraceDag, ValueSet};
use leakaudit_mpi::Natural;

use crate::report::{Channel, LeakRow, MemoStats, ObserverSpec, PhaseTimings};

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

/// Which kind of memory access an [`TraceEvent::Access`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// An instruction fetch (visible to I-cache and shared observers).
    Fetch,
    /// A data access (visible to D-cache and shared observers).
    Data,
}

impl AccessKind {
    /// Whether an observer watching `channel` sees this access.
    pub fn visible_to(self, channel: Channel) -> bool {
        match channel {
            Channel::Instruction => self == AccessKind::Fetch,
            Channel::Data => self == AccessKind::Data,
            Channel::Shared => true,
        }
    }
}

/// One scheduler action relevant to trace bookkeeping, in the exact
/// order the abstract interpretation performed it.
///
/// `Access` dwarfs the bookkeeping variants (it carries the address set
/// inline), but it is also the overwhelming majority of the stream —
/// boxing it to shrink the enum would buy nothing and cost a heap
/// allocation per access on the hottest path.
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
    /// A memory access with the given set of possible addresses.
    Access {
        /// The configuration performing the access.
        config: ConfigId,
        /// Fetch or data.
        kind: AccessKind,
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
    /// A script token: the next `events` events on the bus are the
    /// `Access` events of one replay of interpreter script `script` for
    /// configuration `config`, emitted back to back (the scheduler
    /// replays a script synchronously, so no other event can interleave
    /// and markers never nest). Purely an announcement — the access
    /// events that follow are complete on their own, so sinks without a
    /// script memo simply ignore it. [`DagSink`] uses the token to
    /// memoize the run's net DAG delta per lane and, once recorded,
    /// apply it in bulk instead of replaying the run event by event.
    Script {
        /// The configuration whose script is replaying.
        config: ConfigId,
        /// Run-unique script id (see the interpreter's decode cache).
        script: u32,
        /// Number of `Access` events one replay emits.
        events: u32,
        /// Whether fork siblings were live during the replay (the
        /// lone/forked split of the sink hit counters).
        forked: bool,
    },
}

impl TraceEvent {
    /// Builds an [`TraceEvent::Access`].
    pub fn access(config: ConfigId, kind: AccessKind, addresses: ValueSet) -> Self {
        TraceEvent::Access {
            config,
            kind,
            addresses,
        }
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
    /// [`ObserverSink::absorb`]; the chunked serial bus calls this so a
    /// sink's per-chunk setup (if any) runs once per chunk.
    fn absorb_chunk(&mut self, events: &[TraceEvent]) {
        for event in events {
            self.absorb(event);
        }
    }

    /// Finishes the stream: count traces and convert to leakage bounds,
    /// one row per spec, in [`ObserverSink::specs`] order.
    fn into_rows(self: Box<Self>) -> Vec<LeakRow>;

    /// The memo counters this sink accumulated (sink-side script
    /// replay). The default reports none; the pipeline reads this just
    /// before [`ObserverSink::into_rows`] and folds it into the run's
    /// [`MemoStats`].
    fn memo_stats(&self) -> MemoStats {
        MemoStats::default()
    }
}

/// Consecutive failed bulk-apply guards (or broken recordings) before a
/// lane stops re-recording a script's delta, mirroring the interpreter
/// memo's cooldown: a script whose entry context never stabilizes pays
/// the journaling a bounded number of times, with a periodic retry
/// (every 16th sight) so late-stabilizing contexts can warm back up.
const SCRIPT_COLD_CAP: u8 = 12;

/// One lane's memo slot for one interpreter script.
struct LaneScript {
    state: ScriptState,
    /// Consecutive guard failures / broken recordings (see
    /// [`SCRIPT_COLD_CAP`]).
    cold: u8,
}

/// The two-touch lifecycle of a lane's script delta: the first sight of
/// a script merely primes the slot (scripts that replay once cost no
/// journaling), the second records the per-event steps, the third and
/// later apply the recorded delta in bulk whenever the guard passes.
enum ScriptState {
    /// Seen once: journal on the next sight.
    Primed,
    /// Recorded: apply in bulk when the guard passes.
    Ready(ScriptDelta),
}

/// The net cursor transition of one script run through one lane: the
/// frontier ("entry") vertex context it was journaled against, the
/// in-place repetition bumps it applies to that vertex, and the chain of
/// appended vertices. Deliberately free of vertex ids — labels and
/// observations only — so a delta survives DAG compaction.
///
/// Validity argument: every vertex the chain appends is fresh, so its
/// step decisions depend only on the (fixed) script observation
/// sequence and the lane's stuttering flag. The only live state a
/// replay consults is the entry vertex — its label (stutter/bump vs
/// extend) and its exclusivity (bump vs extend) — which is exactly what
/// the guard pins. Projection is deterministic per address set, so the
/// same script yields the same observations every run.
struct ScriptDelta {
    /// Label of the entry vertex at journal time.
    entry_label: Label,
    /// Whether the entry vertex was exclusively owned at journal time.
    entry_exclusive: bool,
    /// Bump steps taken on the entry vertex before the first extend.
    entry_bumps: u64,
    /// Appended vertices: one `(observation, repetitions)` link per
    /// extend, with the following bumps folded into the count.
    chain: Vec<(ObsSet, u64)>,
    /// Whether this lane consumed any event of the run at all. An
    /// untouched delta (channel-invisible script) replays as a no-op
    /// under *any* frontier, so the guard skips the entry checks — a
    /// data lane must not veto a fetch-only script over an unrelated
    /// frontier change.
    touched: bool,
    /// The journaled run broke the singleton-frontier shape (or the bus
    /// contract) mid-script: discard instead of storing at finish.
    broken: bool,
}

impl ScriptDelta {
    /// A journal opened against the given entry context (`None` when the
    /// frontier was not a singleton — recorded as already broken).
    fn open(entry: Option<(Label, bool)>) -> ScriptDelta {
        let broken = entry.is_none();
        let (entry_label, entry_exclusive) = entry.unwrap_or((Label::Epsilon, false));
        ScriptDelta {
            entry_label,
            entry_exclusive,
            entry_bumps: 0,
            chain: Vec::new(),
            touched: false,
            broken,
        }
    }
}

/// One observer's replay state inside a [`DagSink`]: its own DAG, its
/// cursor table (dense, indexed by [`ConfigId`] — ids are allocated
/// monotonically from zero, so the table stays small and hash-free),
/// and its script delta memo.
struct Lane {
    spec: ObserverSpec,
    dag: TraceDag,
    cursors: Vec<Option<Cursor>>,
    finals: Option<Cursor>,
    /// Per-script delta memo, indexed by the run-unique script id. The
    /// decode cache allocates ids densely from zero, so a flat table
    /// replaces two hash probes per marker per lane with direct loads —
    /// markers outnumber the events they elide only a few to one, so
    /// per-marker cost decides whether the script memo pays for itself.
    /// Entries survive compaction (no vertex ids inside).
    scripts: Vec<Option<LaneScript>>,
    /// The journal of the script run currently replaying per event
    /// through this lane: `(script id, replaying config, delta so far)`.
    /// Moved into `scripts` when the sink sees the run's last event.
    journal: Option<(u32, ConfigId, ScriptDelta)>,
}

impl Lane {
    fn new(spec: ObserverSpec, initial: ConfigId) -> Self {
        let (dag, cursor) = TraceDag::new(spec.observer);
        let mut lane = Lane {
            spec,
            dag,
            cursors: Vec::new(),
            finals: None,
            scripts: Vec::new(),
            journal: None,
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

    /// Advances `config`'s cursor by one observation. While a journal
    /// is open for `config`, the step each event takes is recorded (the
    /// mutation path is shared, so observing cannot change it).
    fn access(&mut self, config: ConfigId, obs: &ObsSet) {
        let cur = self.take(config);
        let cur = match self.journal.as_mut() {
            Some((_, jc, delta)) if *jc == config && !delta.broken => {
                delta.touched = true;
                if let [_] = cur.vertices() {
                    let (cur, step) = self.dag.update_observed(cur, obs);
                    match step {
                        DagStep::Stutter => {}
                        DagStep::Bump => match delta.chain.last_mut() {
                            Some(link) => link.1 += 1,
                            None => delta.entry_bumps += 1,
                        },
                        DagStep::Extend => delta.chain.push((obs.clone(), 1)),
                    }
                    cur
                } else {
                    // A multi-vertex frontier mid-script cannot be
                    // captured by the singleton-shaped delta: poison the
                    // journal.
                    delta.broken = true;
                    self.dag.update(cur, obs)
                }
            }
            _ => self.dag.update(cur, obs),
        };
        self.put(config, cur);
    }

    /// Whether the recorded delta for `script` may be applied in bulk to
    /// `config`'s cursor right now: the slot is ready and the live entry
    /// context matches the journaled one (vacuously for a delta this
    /// lane never saw an event of).
    fn script_ready(&self, script: u32, config: ConfigId) -> bool {
        let Some(Some(LaneScript {
            state: ScriptState::Ready(delta),
            ..
        })) = self.scripts.get(script as usize)
        else {
            return false;
        };
        if !delta.touched {
            return true;
        }
        match self.cursors.get(config.0 as usize).and_then(Option::as_ref) {
            Some(cur) => match cur.vertices() {
                &[v] => {
                    *self.dag.label(v) == delta.entry_label
                        && self.dag.is_exclusive(v) == delta.entry_exclusive
                }
                _ => false,
            },
            None => false,
        }
    }

    /// Applies the recorded delta for `script` in bulk. Caller must have
    /// checked [`Lane::script_ready`].
    fn apply_script(&mut self, script: u32, config: ConfigId) {
        let slot = self.scripts[script as usize]
            .as_mut()
            .expect("checked ready");
        slot.cold = 0;
        let ScriptState::Ready(delta) = &slot.state else {
            unreachable!("checked ready")
        };
        if !delta.touched {
            return;
        }
        let cur = self.cursors[config.0 as usize]
            .take()
            .expect("cursor present for config");
        let cur = self
            .dag
            .apply_script_delta(cur, delta.entry_bumps, &delta.chain);
        self.cursors[config.0 as usize] = Some(cur);
    }

    /// Script marker on the per-event fallback path: advance this lane's
    /// memo state for `script`, opening a journal when this sight should
    /// record (second sight, or a guard-failed re-record within the
    /// cooldown). `self_ready` says this lane's own guard passed — a
    /// sibling lane forced the fallback — so its delta is kept as is
    /// (re-journaling would record the identical delta).
    fn script_fallback(&mut self, script: u32, config: ConfigId, self_ready: bool) {
        let idx = script as usize;
        if idx >= self.scripts.len() {
            self.scripts.resize_with(idx + 1, || None);
        }
        let slot = match &mut self.scripts[idx] {
            vacant @ None => {
                *vacant = Some(LaneScript {
                    state: ScriptState::Primed,
                    cold: 0,
                });
                return;
            }
            Some(slot) => slot,
        };
        let record = match &slot.state {
            ScriptState::Primed => true,
            ScriptState::Ready(_) if self_ready => false,
            ScriptState::Ready(_) => {
                slot.cold = slot.cold.saturating_add(1);
                true
            }
        };
        if !record || (slot.cold >= SCRIPT_COLD_CAP && slot.cold & 0x0F != 0) {
            return;
        }
        let entry = self
            .cursors
            .get(config.0 as usize)
            .and_then(Option::as_ref)
            .and_then(|cur| match cur.vertices() {
                &[v] => Some((self.dag.label(v).clone(), self.dag.is_exclusive(v))),
                _ => None,
            });
        self.journal = Some((script, config, ScriptDelta::open(entry)));
    }

    /// Ends the journaling window for `script`: a clean journal becomes
    /// the ready delta, a broken one bumps the cooldown and leaves the
    /// previous state in place.
    fn finish_script(&mut self, script: u32) {
        let Some((journaled, _, delta)) = self.journal.take() else {
            return;
        };
        debug_assert_eq!(journaled, script, "journal crosses script windows");
        let Some(Some(slot)) = self.scripts.get_mut(script as usize) else {
            return;
        };
        if delta.broken {
            slot.cold = slot.cold.saturating_add(1);
        } else {
            slot.state = ScriptState::Ready(delta);
        }
    }

    /// Marks the open journal (if any) unusable — the bus contract was
    /// violated mid-window, so whatever was journaled is not one clean
    /// script run.
    fn poison_journal(&mut self) {
        if let Some((_, _, delta)) = self.journal.as_mut() {
            delta.broken = true;
        }
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
///
/// The sink also consumes [`TraceEvent::Script`] markers: a script whose
/// delta every lane has recorded (and whose guards pass) is applied as
/// one bulk DAG mutation per lane, and the run's events are skipped
/// wholesale. The application is all-or-nothing across lanes so the skip
/// counter stays a single per-sink scalar; any lane falling back sends
/// the whole run down the per-event path, which doubles as the journaling
/// pass that records (or refreshes) the lane deltas.
pub struct DagSink {
    lanes: Vec<Lane>,
    /// Whether any lane sees (fetches, data accesses) — lets the front
    /// end skip key derivation and projection for invisible kinds.
    sees: (bool, bool),
    /// Projections of multi-element address sets, keyed by
    /// [`MemoKey`]. Singletons (almost every access) are projected
    /// directly: a few shifts and masks beat a hash and a probe.
    proj: HashMap<MemoKey, ObsSet, FxBuildHasher>,
    /// Events left to skip after a script delta was applied in bulk
    /// (sink state, so it spans chunk boundaries).
    skip: u32,
    /// The script run currently replaying per event (lanes journal it).
    recording: Option<ScriptRun>,
    /// Sink-side script counters, folded into the run's [`MemoStats`].
    stats: MemoStats,
}

/// A script window being consumed per event: countdown bookkeeping for
/// the journaling fallback path.
struct ScriptRun {
    script: u32,
    config: ConfigId,
    remaining: u32,
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
                specs
                    .iter()
                    .any(|s| AccessKind::Fetch.visible_to(s.channel)),
                specs.iter().any(|s| AccessKind::Data.visible_to(s.channel)),
            ),
            proj: HashMap::default(),
            skip: 0,
            recording: None,
            stats: MemoStats::default(),
        }
    }

    /// Handles a [`TraceEvent::Script`] marker: bulk-apply when every
    /// lane's delta is ready and guarded, otherwise fall back to
    /// per-event replay with the lanes journaling.
    fn script_marker(&mut self, config: ConfigId, script: u32, events: u32, forked: bool) {
        if events == 0 {
            return;
        }
        if self.recording.is_some() {
            // A marker inside another marker's window violates the bus
            // contract; poison the open journals rather than record lies.
            self.recording = None;
            for lane in &mut self.lanes {
                lane.journal = None;
            }
        }
        if self
            .lanes
            .iter()
            .all(|lane| lane.script_ready(script, config))
        {
            for lane in &mut self.lanes {
                lane.apply_script(script, config);
            }
            self.skip = events;
            self.stats.sink_script_hits += 1;
            if forked {
                self.stats.sink_script_hits_forked += 1;
            } else {
                self.stats.sink_script_hits_lone += 1;
            }
            self.stats.sink_script_events += u64::from(events);
        } else {
            for i in 0..self.lanes.len() {
                let ready = self.lanes[i].script_ready(script, config);
                self.lanes[i].script_fallback(script, config, ready);
            }
            self.recording = Some(ScriptRun {
                script,
                config,
                remaining: events,
            });
        }
    }

    /// The pre-script per-event dispatch (everything but
    /// [`TraceEvent::Script`] handling and window bookkeeping).
    fn dispatch(&mut self, event: &TraceEvent) {
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
            TraceEvent::Access {
                config,
                kind,
                addresses,
            } => {
                // The projection is resolved once per class; all lanes
                // project identically, so lane 0's observer stands in
                // for the class. A singleton projects in place (no
                // heap); a multi-element set is *borrowed* out of the
                // projection map for the lane fan-out — cloning it per
                // event would put an allocation on the hottest path.
                // Visibility is a per-lane channel filter.
                let visible = match kind {
                    AccessKind::Fetch => self.sees.0,
                    AccessKind::Data => self.sees.1,
                };
                if !visible {
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
                    if kind.visible_to(lane.spec.channel) {
                        lane.access(*config, obs);
                    }
                }
            }
            TraceEvent::Retire { config } => {
                for lane in &mut self.lanes {
                    lane.retire(*config);
                }
            }
            TraceEvent::Script { .. } => unreachable!("handled before dispatch"),
        }
    }
}

impl ObserverSink for DagSink {
    fn specs(&self) -> Vec<ObserverSpec> {
        self.lanes.iter().map(|lane| lane.spec).collect()
    }

    fn absorb_chunk(&mut self, events: &[TraceEvent]) {
        // Runs of events covered by an applied script delta are skipped
        // in one stride instead of one decrement per event.
        let mut i = 0;
        while i < events.len() {
            if self.skip > 0 {
                let stride = (self.skip as usize).min(events.len() - i);
                self.skip -= stride as u32;
                i += stride;
                continue;
            }
            self.absorb(&events[i]);
            i += 1;
        }
    }

    fn absorb(&mut self, event: &TraceEvent) {
        // Events covered by an applied script delta: already accounted
        // for in bulk, skip them wholesale.
        if self.skip > 0 {
            self.skip -= 1;
            return;
        }
        if let TraceEvent::Script {
            config,
            script,
            events,
            forked,
        } = event
        {
            self.script_marker(*config, *script, *events, *forked);
            return;
        }
        // Inside a journaling window: count the run's events down and
        // sanity-check the bus contract (only the replaying config's
        // access events may appear; anything else poisons the journals).
        let finish = match &mut self.recording {
            Some(run) => {
                if !matches!(event, TraceEvent::Access { config, .. } if *config == run.config) {
                    for lane in &mut self.lanes {
                        lane.poison_journal();
                    }
                }
                run.remaining -= 1;
                (run.remaining == 0).then_some(run.script)
            }
            None => None,
        };
        self.dispatch(event);
        if let Some(script) = finish {
            self.recording = None;
            for lane in &mut self.lanes {
                lane.finish_script(script);
            }
        }
    }

    fn into_rows(self: Box<Self>) -> Vec<LeakRow> {
        self.lanes.into_iter().map(Lane::into_row).collect()
    }

    fn memo_stats(&self) -> MemoStats {
        self.stats
    }
}

/// Where the scheduler publishes its events.
pub trait EventBus {
    /// Emits one event to every sink.
    fn emit(&mut self, event: TraceEvent);

    /// Announces that the next `events` access events for `config` are
    /// one replay of interpreter script `script`. The default is a
    /// no-op: the events that follow are complete on their own, so
    /// buses feeding plain collectors (tests, external drivers) never
    /// surface script identity and their raw streams stay unchanged.
    /// The pipeline buses forward a [`TraceEvent::Script`] marker.
    fn emit_script(&mut self, config: ConfigId, script: u32, events: u32, forked: bool) {
        let _ = (config, script, events, forked);
    }
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
    run_pipeline_with(sinks, parallel, SinkTuning::default(), drive).map(|(rows, _, _)| rows)
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
///
/// The returned [`MemoStats`] are the sinks' own counters (sink-side
/// script replay), summed across sinks; the caller folds them into the
/// interpreter's.
pub fn run_pipeline_with<E>(
    sinks: Vec<Box<dyn ObserverSink>>,
    parallel: bool,
    tuning: SinkTuning,
    drive: impl FnOnce(&mut dyn EventBus) -> Result<(), E>,
) -> Result<(Vec<LeakRow>, PhaseTimings, MemoStats), E> {
    // With too few hardware threads the consumer threads cannot overlap
    // with the scheduler; the channel traffic would be pure overhead.
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
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
            let mut memo = MemoStats::default();
            for sink in &bus.sinks {
                memo.accumulate(&sink.memo_stats());
            }
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
            (rows, timings, memo)
        })
    } else {
        let (chunk, queue) = tuning.resolve(cores);
        run_threaded(sinks, chunk, queue, drive)
    }
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

    fn emit_script(&mut self, config: ConfigId, script: u32, events: u32, forked: bool) {
        self.emit(TraceEvent::Script {
            config,
            script,
            events,
            forked,
        });
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
) -> Result<(Vec<LeakRow>, PhaseTimings, MemoStats), E> {
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
                    (rows, MemoStats::default(), replay, Duration::ZERO)
                } else {
                    let memo = sink.memo_stats();
                    let counting = Instant::now();
                    let rows = sink.into_rows();
                    (rows, memo, replay, counting.elapsed())
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
        let mut memo = MemoStats::default();
        let mut timings = PhaseTimings {
            interpret,
            ..PhaseTimings::default()
        };
        for handle in handles {
            let (sink_rows, sink_memo, replay, count) =
                handle.join().expect("sink thread panicked");
            rows.extend(sink_rows);
            memo.accumulate(&sink_memo);
            timings.replay += replay;
            timings.count += count;
        }
        outcome.map(|()| (rows, timings, memo))
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

    fn emit_script(&mut self, config: ConfigId, script: u32, events: u32, forked: bool) {
        self.emit(TraceEvent::Script {
            config,
            script,
            events,
            forked,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leakaudit_core::Observer;

    fn consts(vals: &[u64]) -> ValueSet {
        ValueSet::from_constants(vals.iter().copied(), 32)
    }

    /// The Ex. 9 protocol (fork, diverge, merge, continue) through the
    /// event-stream interface, for both pipeline modes.
    fn example9_events(bus: &mut dyn EventBus) -> Result<(), std::convert::Infallible> {
        let (main, taken) = (ConfigId(0), ConfigId(1));
        for pc in [0x41a90u64, 0x41a97, 0x41a99] {
            bus.emit(TraceEvent::access(main, AccessKind::Fetch, consts(&[pc])));
        }
        bus.emit(TraceEvent::Fork {
            parent: main,
            child: taken,
        });
        for pc in [0x41a9bu64, 0x41a9d, 0x41a9f] {
            bus.emit(TraceEvent::access(main, AccessKind::Fetch, consts(&[pc])));
        }
        bus.emit(TraceEvent::Merge {
            into: main,
            from: taken,
        });
        bus.emit(TraceEvent::access(
            main,
            AccessKind::Fetch,
            consts(&[0x41aa1]),
        ));
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
            let (rows, _, _) = run_pipeline_with(sinks, true, tuning, example9_events).unwrap();
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
                AccessKind::Data,
                consts(&[0x10]),
            ));
            Err("boom")
        })
        .unwrap_err();
        assert_eq!(err, "boom");
    }
}
