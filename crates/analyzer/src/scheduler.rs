//! Configuration scheduling: the lowest-pc-first worklist with forking
//! on undecided branch flags and state joins at merge points.
//!
//! # Scheduling discipline
//!
//! Live configurations (pc + abstract state) are stepped
//! **lowest-pc-first**. For the structured code of the case study this
//! makes forked diamonds re-join exactly at their post-dominator: the
//! fall-through path (lower addresses) catches up with the taken path,
//! the two configurations meet at the join point, and their states merge
//! (the paper's §6.4 join). Loop iterations never merge with each other
//! because a back edge keeps the looping configuration at lower
//! addresses than any configuration past the loop; loops terminate
//! abstractly because guards resolve through concrete counters or the
//! origin/offset rules of §5.4.2 (Ex. 7/8).
//!
//! # Division of labor
//!
//! This module owns *control*: which configuration steps next, when
//! paths fork and join, and the fuel/config-count resource limits. It
//! knows nothing about observers. Everything trace-related is published
//! as [`TraceEvent`]s on an [`EventBus`] — fetches and data accesses in
//! program order, forks, joins, and retirements — and the observer
//! pipeline in [`crate::sink`] turns that stream into the per-observer
//! counts of Theorem 1.
//!
//! # The decode cache and the interpreter memo
//!
//! Decoded instructions are memoized in a [`DecodeCache`] shared by
//! every configuration of the run, so loop bodies and code revisited
//! after joins decode once instead of once per abstract step. Each
//! populated slot additionally carries the per-pc *transfer memo* of
//! [`crate::memo`]: a step whose input identities match a recorded entry
//! replays the recorded effect instead of re-running the abstract
//! transfer. Every step, memoized or not, passes the same fuel and
//! deadline checks and emits the same events, so the memo is
//! bit-identical by construction (see the [`crate::memo`] module docs
//! for the argument). [`AnalysisConfig::interp_memo`] switches it off;
//! the memo-off path is the naive interpreter, which the property suite
//! pins the memoized path against.

use std::sync::Arc;
use std::time::{Duration, Instant};

use leakaudit_x86::{Inst, Program};

use crate::exec::{execute_decoded, execute_logged, rw_sets, EffectLog, Next, RwSets};
use crate::memo::{self, TransferEffect, WayProbe, WaySet};
use crate::report::MemoStats;
use crate::sink::{ConfigId, EventBus, TraceEvent};
use crate::state::{AbsState, InitState};
use crate::{AnalysisConfig, AnalysisError, BudgetLimit};
use leakaudit_x86::Reg;

/// How often (in abstract steps) the scheduler consults the wall clock
/// for a budget deadline. A power of two so the check is a mask. A cold
/// 45-cell sweep interprets 73.7k abstract steps in 25–45 ms (about
/// 1.6–2.9 × 10⁶ steps/s on a 2-vCPU host), so 1,024 steps take
/// ~0.35–0.6 ms: the deadline overshoots by up to about that much.
const DEADLINE_CHECK_MASK: u64 = 0x3ff;

/// One live configuration: a program point plus the abstract machine
/// state that reached it. Trace bookkeeping lives in the observer sinks,
/// keyed by `id` — configurations no longer carry cursors.
///
/// The state is boxed: it is well over a kilobyte, and every step pops
/// the stepped configuration off the worklist and pushes it back (the
/// min-pc partition moves every live one), so the worklist moves a
/// pointer instead. Only a fork, which clones the state anyway, pays
/// for a box.
struct Config {
    id: ConfigId,
    pc: u32,
    state: Box<AbsState>,
}

/// Everything the run knows about one decoded instruction start: the
/// decoded instruction, its read/write footprint, and its transfer memo.
/// Fetches need nothing from the slot: the fetch event carries the bare
/// pc, and each sink projects it directly.
pub(crate) struct Slot {
    decoded: (Inst, u32),
    rw: RwSets,
    ways: WaySet,
    /// Consecutive keyed misses with no hit. Once it reaches
    /// [`COLD_CAP`] the slot stops deriving keys: a pc whose inputs
    /// never recur (counter-driven steps, once-through code) pays the
    /// key derivation a bounded number of times instead of on every
    /// visit. A hit resets the count, and a throttled slot still
    /// retries periodically, so cross-configuration reuse (sibling
    /// fork paths replaying each other's recordings) recovers even
    /// when the first path ran the slot cold. The count is deliberately
    /// *not* per configuration: configuration ids name forks, and forks
    /// alternate at the same pc under the lowest-pc-first order, so a
    /// per-id reset would re-pay the derivation for every sibling while
    /// buying no additional hits (keys depend on the abstract state,
    /// not on which path carries it). Purely a cost throttle — replay
    /// equivalence does not depend on which steps are memoized.
    cold: u8,
}

/// Keyed misses in a row before a slot stops deriving keys (apart from
/// its periodic retries).
const COLD_CAP: u8 = 12;

impl Slot {
    fn new(decoded: (Inst, u32)) -> Self {
        Slot {
            rw: rw_sets(&decoded.0),
            decoded,
            ways: WaySet::default(),
            cold: 0,
        }
    }
}

/// One segment's decode slots: populated once the byte at that offset
/// has been decoded as an instruction start. Boxed so an empty slot is
/// one pointer wide — most offsets are instruction interiors or data.
type DecodeSlots = Vec<Option<Box<Slot>>>;

/// Memoized instruction decoding, shared across every configuration and
/// abstract step of one analysis run.
///
/// Program text is small and contiguous per segment, so the cache is a
/// **dense vector per segment, indexed by pc offset** — a bounds check
/// and a load in the inner interpreter loop, no hashing. All segments
/// are covered (a `Program` has no executable flag, and caching a data
/// segment nobody fetches from costs only its `Option` slots), so
/// multi-segment programs — the crypto families with tables and code in
/// separate segments — never fall back to uncached decode in the loop.
/// Fetches outside every segment still decode uncached, which stays
/// correct (they error inside `decode_at` either way).
pub(crate) struct DecodeCache {
    /// One `(load address, slots)` dense cache per program segment, in
    /// segment order.
    segments: Vec<(u32, DecodeSlots)>,
    /// Index of the segment the last fetch hit: runs fetch from one
    /// segment at a time, so the segment scan almost always resolves on
    /// its first probe.
    last: usize,
}

impl DecodeCache {
    pub(crate) fn new(program: &Program) -> Self {
        let segments = program
            .segments()
            .iter()
            .map(|s| (s.addr, (0..s.bytes.len()).map(|_| None).collect()))
            .collect::<Vec<_>>();
        // Start the hot-segment hint on the segment holding the entry.
        let entry = program.entry();
        let last = program
            .segments()
            .iter()
            .position(|s| s.contains(entry))
            .unwrap_or(0);
        DecodeCache { segments, last }
    }

    /// The `(segment index, byte offset)` of `pc`, trying the
    /// last-fetched segment first.
    fn locate(&self, pc: u32) -> Option<(usize, usize)> {
        let probe = |i: usize| {
            let (base, slots) = self.segments.get(i)?;
            let off = pc.checked_sub(*base)? as usize;
            (off < slots.len()).then_some((i, off))
        };
        probe(self.last).or_else(|| {
            (0..self.segments.len())
                .filter(|&i| i != self.last)
                .find_map(probe)
        })
    }

    /// `locate`, also updating the hot-segment hint. The step loop's
    /// single resolution point: everything downstream (decode, memo
    /// probe, memo store) indexes directly via the returned
    /// `(segment, offset)`.
    fn locate_hot(&mut self, pc: u32) -> Option<(usize, usize)> {
        let loc = self.locate(pc);
        if let Some((seg, _)) = loc {
            self.last = seg;
        }
        loc
    }

    /// The slot for `pc`, decoding and populating it on first visit.
    /// `Ok(None)` for pcs outside every segment (the caller decodes
    /// uncached); decode failures surface exactly as the uncached
    /// path's would.
    #[cfg(test)]
    fn slot_at(&mut self, program: &Program, pc: u32) -> Result<Option<&mut Slot>, AnalysisError> {
        let Some((seg, off)) = self.locate_hot(pc) else {
            return Ok(None);
        };
        let slot = &mut self.segments[seg].1[off];
        if slot.is_none() {
            let decoded = program.decode_at(pc)?;
            *slot = Some(Box::new(Slot::new(decoded)));
        }
        Ok(slot.as_deref_mut())
    }

    /// The already-populated slot for `pc`, if any (never decodes).
    #[cfg(test)]
    fn existing_slot(&mut self, pc: u32) -> Option<&mut Slot> {
        let (seg, off) = self.locate_hot(pc)?;
        self.segments[seg].1[off].as_deref_mut()
    }

    /// Cached decode. `drive` resolves full slots via `slot_at`; this
    /// remains the plain decode view (and the decode-correctness tests'
    /// entry point).
    #[cfg(test)]
    fn decode_at(&mut self, program: &Program, pc: u32) -> Result<(Inst, u32), AnalysisError> {
        match self.slot_at(program, pc)? {
            Some(slot) => Ok(slot.decoded),
            None => Ok(program.decode_at(pc)?),
        }
    }
}

/// Runs the abstract interpretation of `program` from its entry to
/// `hlt`, publishing every trace-relevant action on `bus` and
/// accumulating interpreter-memo counters into `stats`.
///
/// The initial configuration is [`ConfigId::ROOT`]; sinks seed their
/// root cursor under the same id (see [`crate::sink::DagSink::new`]).
pub(crate) fn drive(
    config: &AnalysisConfig,
    program: &Program,
    init: &InitState,
    bus: &mut dyn EventBus,
    stats: &mut MemoStats,
) -> Result<(), AnalysisError> {
    let mut table = init.table.clone();
    let mut decode = DecodeCache::new(program);
    let mut next_id: u64 = ConfigId::ROOT.0 + 1;
    let mut configs = vec![Config {
        id: ConfigId::ROOT,
        pc: program.entry(),
        state: Box::new(init.state.clone()),
    }];
    // Resource accounting: `steps` counts abstractly executed
    // instructions against both the analyzer's own divergence guard
    // (`config.fuel` → OutOfFuel) and the caller's per-request budget
    // (`config.budget` → BudgetExhausted). The deadline clock starts
    // here — when interpretation starts, not when the job was queued.
    let mut steps: u64 = 0;
    let deadline: Option<Instant> = config
        .budget
        .deadline_ms
        .map(|ms| Instant::now() + Duration::from_millis(ms));
    let memo_on = config.interp_memo;
    // Per-run key scratch: `key_for` fills this in place every keyed
    // step, so the loop never allocates or copies token arrays; an
    // owned clone is taken only when priming a way.
    let mut key_scratch = memo::KeyBuf::new();
    // Persistent partition buffers: the multi-config merge path reuses
    // these across iterations instead of allocating two fresh vectors
    // per step.
    let mut group: Vec<Config> = Vec::new();
    let mut rest: Vec<Config> = Vec::new();

    while !configs.is_empty() {
        // Pick the configuration with the minimal pc; join any others
        // that share it. Straight-line stretches (a single live
        // configuration) skip the partition entirely.
        let mut current = if configs.len() == 1 {
            configs.pop().unwrap()
        } else {
            let min_pc = configs.iter().map(|c| c.pc).min().unwrap();
            debug_assert!(group.is_empty() && rest.is_empty());
            #[cfg(debug_assertions)]
            let expect: Vec<ConfigId> = configs
                .iter()
                .filter(|c| c.pc == min_pc)
                .map(|c| c.id)
                .collect();
            for c in configs.drain(..) {
                if c.pc == min_pc {
                    group.push(c);
                } else {
                    rest.push(c);
                }
            }
            // `configs` is drained empty; the swap keeps both buffers
            // (and their capacity) live for the next iteration.
            std::mem::swap(&mut configs, &mut rest);
            // Bit-identity guard: buffer reuse must not perturb merge
            // order — `group` holds the min-pc configs in arrival order.
            #[cfg(debug_assertions)]
            debug_assert!(
                group.iter().map(|c| c.id).eq(expect.iter().copied()),
                "merge group must preserve arrival order"
            );
            let mut current = group.pop().unwrap();
            for other in group.drain(..) {
                *current.state = current.state.join(&other.state, program);
                bus.emit(TraceEvent::Merge {
                    into: current.id,
                    from: other.id,
                });
            }
            current
        };

        if steps >= config.fuel {
            return Err(AnalysisError::OutOfFuel { fuel: config.fuel });
        }
        if let Some(budget_fuel) = config.budget.fuel {
            if steps >= budget_fuel {
                return Err(AnalysisError::BudgetExhausted {
                    limit: BudgetLimit::Fuel,
                    steps,
                });
            }
        }
        if let Some(deadline) = deadline {
            if steps & DEADLINE_CHECK_MASK == 0 && Instant::now() >= deadline {
                return Err(AnalysisError::BudgetExhausted {
                    limit: BudgetLimit::Deadline,
                    steps,
                });
            }
        }

        // One location resolution per step: the decode, the memo probe,
        // and the memo store all share it, so the segment scan runs once
        // per step instead of once per concern.
        let pc = current.pc;
        let loc = decode.locate_hot(pc);

        steps += 1;

        // The instruction-fetch event (visible to I-cache and shared
        // observers) goes out *before* any decode error can surface —
        // matching the naive path's event/error order.
        bus.emit(TraceEvent::Fetch {
            config: current.id,
            pc,
        });

        let resolved = match loc {
            Some((seg, off)) => {
                let slot_ref = &mut decode.segments[seg].1[off];
                if slot_ref.is_none() {
                    let decoded = program.decode_at(pc)?;
                    *slot_ref = Some(Box::new(Slot::new(decoded)));
                }
                let slot = slot_ref.as_deref_mut().expect("populated above");
                let (inst, len) = slot.decoded;
                let rw = slot.rw;
                // Cold bookkeeping, key derivation, and the way probe
                // exist only with the memo on: the naive path reads the
                // decoded slot and moves on.
                let mut hit = None;
                let mut primed = None;
                let mut vacant = false;
                if memo_on {
                    // A cold slot still retries every 16th visit —
                    // inputs that stabilize late (accumulators reaching
                    // a fixpoint, stores quiescing) must be able to warm
                    // back up; a one-way door would freeze the slot
                    // unkeyed forever.
                    let keyed = slot.cold < COLD_CAP || slot.cold & 0x0F == 0;
                    if !keyed {
                        slot.cold = slot.cold.checked_add(1).unwrap_or(COLD_CAP);
                    }
                    // Probe: a full entry replays; a primed entry (same
                    // key seen once, no effect yet) licenses recording
                    // on this second miss; a vacant probe primes after
                    // executing.
                    if keyed && memo::key_for(&rw, &current.state, &mut key_scratch) {
                        match slot.ways.probe(&key_scratch) {
                            WayProbe::Hit(effect) => {
                                hit = Some(effect);
                                slot.cold = 0;
                            }
                            WayProbe::Primed(i) => primed = Some(i),
                            WayProbe::Vacant => vacant = true,
                        }
                    }
                }
                Some((inst, len, rw, hit, primed, vacant))
            }
            // Outside every segment: uncached decode below.
            None => None,
        };

        let (next, len) = match resolved {
            Some((_inst, len, _rw, Some(effect), _primed, _vacant)) => {
                // Transfer memo hit: replay the recorded effect.
                stats.transfer_hits += 1;
                effect.apply(&mut table, &mut current.state, program);
                for a in &effect.accesses {
                    bus.emit(TraceEvent::access(current.id, a.clone()));
                }
                (effect.next.clone(), len)
            }
            Some((inst, len, rw, None, primed, vacant)) => {
                // Miss or bypass: run the real transfer.
                stats.transfer_misses += 1;
                let effect = if let Some(way) = primed {
                    // Second miss on the same key: journal symbol-table
                    // mutations and log memory writes so the effect can
                    // be recorded and every later visit replays it.
                    let pre_syms = table.len();
                    table.begin_journal();
                    let mut log = EffectLog::default();
                    let result = execute_logged(
                        &mut table,
                        &mut current.state,
                        program,
                        pc,
                        inst,
                        len,
                        Some(&mut log),
                    );
                    let journal = table.end_journal();
                    let effect = result?;
                    // The recording gate: a transfer that allocated
                    // fresh symbols is not replayable (a replay must
                    // observe the allocation), so only record when the
                    // table did not grow. Offset recordings are fine —
                    // they are journaled and idempotent.
                    if table.len() == pre_syms {
                        let mut reg_writes = Vec::with_capacity(rw.writes.count_ones() as usize);
                        let mut w = rw.writes;
                        while w != 0 {
                            let code = w.trailing_zeros() as u8;
                            w &= w - 1;
                            let r = Reg::from_code(code);
                            reg_writes.push((r, current.state.reg(r).clone()));
                        }
                        let stored = Arc::new(TransferEffect {
                            reg_writes,
                            flags: rw.flags_written.then(|| current.state.flags.clone()),
                            mem_writes: log.mem_writes,
                            journal,
                            accesses: effect.data_accesses.iter().cloned().collect(),
                            next: effect.next.clone(),
                        });
                        let (seg, off) = loc.expect("keyed step resolved a slot");
                        if let Some(slot) = decode.segments[seg].1[off].as_deref_mut() {
                            // The primed entry matched this step's key
                            // at probe time and nothing else ran since;
                            // fill its effect in place.
                            slot.ways.record(way, &key_scratch, stored);
                            slot.cold = slot.cold.saturating_add(1);
                        }
                    }
                    effect
                } else {
                    let effect =
                        execute_decoded(&mut table, &mut current.state, program, pc, inst, len)?;
                    // First miss on a stable key: prime a way so a
                    // repeat of these inputs records. No journal, no
                    // logging — a step whose inputs never recur costs
                    // only the key derivation plus this one clone.
                    if vacant {
                        let (seg, off) = loc.expect("keyed step resolved a slot");
                        if let Some(slot) = decode.segments[seg].1[off].as_deref_mut() {
                            slot.ways.prime(key_scratch.clone());
                            slot.cold = slot.cold.saturating_add(1);
                        }
                    }
                    effect
                };
                // Data accesses: visible to D-cache and shared observers.
                for addr in effect.data_accesses {
                    bus.emit(TraceEvent::access(current.id, addr));
                }
                (effect.next, len)
            }
            None => {
                // Outside every segment: the fully uncached naive path.
                stats.transfer_misses += 1;
                let (inst, len) = program.decode_at(pc)?;
                let effect =
                    execute_decoded(&mut table, &mut current.state, program, pc, inst, len)?;
                for addr in effect.data_accesses {
                    bus.emit(TraceEvent::access(current.id, addr));
                }
                (effect.next, len)
            }
        };

        match next {
            Next::Fall => {
                current.pc = pc.wrapping_add(len);
                configs.push(current);
            }
            Next::Jump(t) => {
                current.pc = t;
                configs.push(current);
            }
            Next::Fork(plan) => {
                let child = ConfigId(next_id);
                next_id += 1;
                bus.emit(TraceEvent::Fork {
                    parent: current.id,
                    child,
                });
                let mut forked = Config {
                    id: child,
                    pc: plan.taken,
                    state: current.state.clone(),
                };
                if let Some((r, v)) = plan.refine_taken {
                    forked.state.refine_reg(r, v);
                }
                if let Some((r, v)) = plan.refine_fall {
                    current.state.refine_reg(r, v);
                }
                current.pc = pc.wrapping_add(len);
                configs.push(current);
                configs.push(forked);
                if configs.len() > config.max_configs {
                    return Err(AnalysisError::TooManyConfigs {
                        limit: config.max_configs,
                    });
                }
            }
            Next::Halt => {
                bus.emit(TraceEvent::Retire { config: current.id });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Analysis, AnalysisConfig, AnalysisInput, InitState};
    use leakaudit_core::{Observer, ValueSet};
    use leakaudit_x86::{Asm, Mem, Reg};

    /// A program with code split across two far-apart sections plus a
    /// data section: entry stub in the low segment, the actual loop in
    /// a high one, a constant table in between.
    fn split_program() -> Program {
        let mut a = Asm::new(0x1000);
        a.mov(Reg::Edx, 0u32);
        a.jmp_near("far");
        a.section_at(0x4000);
        a.dd(&[0xdead_beef, 0x1234_5678]);
        a.section_at(0x9000);
        a.label("far");
        a.mov(Reg::Eax, Mem::sib(Reg::Ebx, Reg::Ecx, 8, 0));
        a.hlt();
        a.assemble().expect("split program assembles")
    }

    #[test]
    fn decode_cache_serves_every_code_segment() {
        let program = split_program();
        assert!(program.segments().len() >= 3, "three sections expected");
        let mut cache = DecodeCache::new(&program);

        // Walk each segment's instruction stream twice — the second
        // pass reads the populated slots — and pin every cached decode
        // to the uncached oracle. Data bytes (the 0x4000 section) fail
        // to decode identically on both paths.
        for _ in 0..2 {
            for seg in program.segments() {
                let mut pc = seg.addr;
                while seg.contains(pc) {
                    match program.decode_at(pc) {
                        Ok(want) => {
                            let got = cache.decode_at(&program, pc).expect("cached decode");
                            assert_eq!(got, want, "cached decode at {pc:#x}");
                            pc = pc.wrapping_add(want.1).max(pc + 1);
                        }
                        Err(_) => {
                            assert!(
                                cache.decode_at(&program, pc).is_err(),
                                "cached decode at {pc:#x} must fail like the oracle"
                            );
                            pc += 1;
                        }
                    }
                }
            }
        }

        // Outside every segment the cache falls through to the oracle.
        assert!(cache.locate(0x2_0000).is_none());
        assert!(cache.decode_at(&program, 0x2_0000).is_err());
    }

    #[test]
    fn populated_slots_cache_footprints() {
        let program = split_program();
        let mut cache = DecodeCache::new(&program);
        let entry = program.entry();
        assert!(
            cache.existing_slot(entry).is_none(),
            "no slot before first decode"
        );
        cache.decode_at(&program, entry).expect("entry decodes");
        let slot = cache.existing_slot(entry).expect("slot populated");
        // `mov edx, 0` writes edx, reads nothing.
        assert_eq!(slot.rw.writes, 1 << Reg::Edx.code());
        assert_eq!(slot.rw.reads, 0);
    }

    #[test]
    fn cross_segment_control_flow_analyzes_exactly() {
        // The entry stub jumps into the high segment, whose
        // secret-indexed load must come out at the usual 3 bits for
        // `address()` and 0 for `block(6)` — the decode cache hands the
        // scheduler instructions from both code segments.
        let mut init = InitState::new();
        init.set_reg(Reg::Ebx, ValueSet::constant(0x8000, 32));
        init.set_reg(Reg::Ecx, ValueSet::from_constants(0..8, 32));
        let report = Analysis::new(AnalysisConfig::default())
            .run(&AnalysisInput {
                program: split_program(),
                init,
            })
            .expect("cross-segment analysis converges");
        assert_eq!(report.dcache_bits(Observer::address()), 3.0);
        assert_eq!(report.dcache_bits(Observer::block(6)), 0.0);
        assert_eq!(report.icache_bits(Observer::address()), 0.0);
    }
}
