//! The interpreter memo: one transfer memo per decode slot.
//!
//! Loop bodies run the same abstract transfer on identical inputs
//! thousands of times. The transfer's outputs are a pure function of the
//! inputs it reads, so each decode slot carries a small memo ([`WaySet`])
//! keyed on exactly those inputs (the instruction's [`RwSets`] footprint)
//! and replays the recorded effect on a hit. This is the interpreter's
//! only fast path: the scheduler probes it once per abstract step, and
//! every step still goes through the same fuel, deadline and event
//! emission as the naive interpreter (see [`crate::scheduler`] for the
//! two-touch priming and the cold-slot throttle).
//!
//! # Why replay is bit-identical
//!
//! * **Keys imply equal inputs.** A [`MemoKey`] token equality implies
//!   value-set content equality (shared tokens are globally unique), a
//!   [`KeyTok::Stamp`] equality implies memory-content equality (see
//!   [`crate::state::AbstractMemory::stamp`]), and flag tokens encode
//!   the three-valued flags verbatim. Unstable (`Top`-widened) inputs
//!   bypass the memo.
//! * **Keys cover exactly the live inputs.** The [`RwSets`] read sets
//!   are minimal: register reads are exact per instruction, flag reads
//!   are per-bit (`je` keys only ZF), and the `je`/`jne` refinement
//!   provenance is keyed only when it can be consulted — when ZF is
//!   undecided (`plan_fork` is unreachable otherwise; ZF itself is in
//!   the key, so keys with and without the provenance tokens cannot
//!   collide). Inputs the transfer never consults — *dead* inputs — are
//!   dropped from the key, so sibling fork configurations differing
//!   only in dead state (stale provenance partitions, unconsulted flag
//!   bits) hit the same way.
//! * **The symbol table only grows monotonically.** A transfer that
//!   allocates fresh symbols is never recorded (the recording gate
//!   compares `SymbolTable::len` before/after). Offset recordings
//!   (`record_offset`) *are* journaled and replayed — they are
//!   idempotent, and a naive re-execution at replay time would take the
//!   `succ` hit installed by the recording run, producing the same
//!   derived value either way.
//! * **Writes replay verbatim.** Register post-values are re-installed
//!   through `set_reg` (reproducing flag-provenance clearing against the
//!   *current* flags, so pre-flags need not be keyed for transfers that
//!   do not read them), the post-flag state overwrites when the transfer
//!   writes flags, and memory writes re-issue the recorded
//!   `(addresses, value, size)` calls in order — a weak update joins
//!   against the current memory exactly as the naive path would.

use std::sync::Arc;

use leakaudit_core::{AbstractBool, MemoKey, OffsetRecord, SymbolTable, ValueSet};
use leakaudit_x86::{Program, Reg};

use crate::exec::{Next, RwSets, FLAG_CF, FLAG_OF, FLAG_SF, FLAG_ZF};
use crate::state::{AbsState, FlagsState};

/// One token of a transfer-memo key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum KeyTok {
    /// A read register's value-set identity.
    Set(MemoKey),
    /// Packed three-valued flags, 2 bits per *consulted* flag in
    /// canonical (zf, cf, sf, of) order. The consulted mask per slot is
    /// fixed by the instruction, so the packings cannot collide.
    Flags(u8),
    /// Flag provenance present: the compared register (followed by two
    /// `Set` tokens for the eq/ne partitions).
    SourceReg(u8),
    /// No flag provenance installed.
    NoSource,
    /// Memory-content identity (see `AbstractMemory::stamp`).
    Stamp(u64),
}

/// Upper bound on key length: 8 register tokens + flags + provenance
/// (tag + eq + ne) + memory stamp.
const KEY_CAP: usize = 13;

/// A transfer-memo key: the [`KeyTok`]s of exactly the inputs one
/// instruction reads, in footprint order.
///
/// Token storage is heap-backed — a `KeyTok` is wide (a [`MemoKey`]
/// carries inline set elements), so an inline `[KeyTok; KEY_CAP]` made
/// the buffer ~1.8 KB and dragged every step of the interpreter loop
/// through multi-KB stack moves (and every decode slot to ~14 KB).
/// With a `Vec`, a `KeyBuf` is pointer-sized in flight: the scheduler
/// derives each step's key into one **reused scratch buffer** (no
/// allocation after the first step) and clones an owned copy only when
/// priming a way — bounded by the cooldown, not the step count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct KeyBuf {
    toks: Vec<KeyTok>,
}

impl KeyBuf {
    pub(crate) fn new() -> Self {
        KeyBuf {
            toks: Vec::with_capacity(KEY_CAP),
        }
    }

    fn push(&mut self, tok: KeyTok) {
        debug_assert!(self.toks.len() < KEY_CAP, "key capacity exceeded");
        self.toks.push(tok);
    }
}

fn encode_bool(b: AbstractBool) -> u8 {
    match b {
        AbstractBool::False => 0,
        AbstractBool::True => 1,
        AbstractBool::Top => 2,
    }
}

/// Packs the consulted flag bits of `f` (per `mask`, canonical order,
/// 2 bits each). Dead flag bits never reach the packing, so states
/// differing only in them pack identically.
fn packed_flags_masked(f: &FlagsState, mask: u8) -> u8 {
    let mut out = 0u8;
    let mut shift = 0;
    for (bit, v) in [
        (FLAG_ZF, f.zf),
        (FLAG_CF, f.cf),
        (FLAG_SF, f.sf),
        (FLAG_OF, f.of),
    ] {
        if mask & bit != 0 {
            out |= encode_bool(v) << shift;
            shift += 2;
        }
    }
    out
}

/// Derives the transfer-memo key for an instruction with footprint `rw`
/// in `state` into `key` (cleared first), returning `false` when any
/// read input's identity is unstable (`Top`-widened value sets) — the
/// bypass rule. Filling a caller-owned buffer keeps the per-step path
/// allocation-free: the scheduler passes the same scratch every step.
pub(crate) fn key_for(rw: &RwSets, state: &AbsState, key: &mut KeyBuf) -> bool {
    key.toks.clear();
    let mut regs = rw.reads;
    while regs != 0 {
        let code = regs.trailing_zeros() as u8;
        regs &= regs - 1;
        let k = state.reg(Reg::from_code(code)).memo_key();
        if !k.is_stable() {
            return false;
        }
        key.push(KeyTok::Set(k));
    }
    if rw.flags_read.mask != 0 {
        key.push(KeyTok::Flags(packed_flags_masked(
            &state.flags,
            rw.flags_read.mask,
        )));
    }
    // The ZF provenance is consulted only on an undecided ZF (`je`/`jne`
    // reach `plan_fork` only then); a decided ZF makes it a dead input.
    // ZF is always in the mask when `provenance` is set, so keys taking
    // the two arms cannot collide.
    if rw.flags_read.provenance && state.flags.zf == AbstractBool::Top {
        match &state.flags.source {
            None => key.push(KeyTok::NoSource),
            Some(src) => {
                let (eq, ne) = (src.eq.memo_key(), src.ne.memo_key());
                if !eq.is_stable() || !ne.is_stable() {
                    return false;
                }
                key.push(KeyTok::SourceReg(src.reg.code()));
                key.push(KeyTok::Set(eq));
                key.push(KeyTok::Set(ne));
            }
        }
    }
    if rw.mem_read {
        key.push(KeyTok::Stamp(state.memory.stamp()));
    }
    true
}

/// The recorded outcome of one abstract transfer: everything needed to
/// reproduce its state mutation, events, and control flow without
/// touching the abstract operations.
#[derive(Debug)]
pub(crate) struct TransferEffect {
    /// Post-values of every register in the write footprint.
    pub reg_writes: Vec<(Reg, ValueSet)>,
    /// Post-flag state, when the transfer writes flags.
    pub flags: Option<FlagsState>,
    /// Memory writes, as issued: `(addresses, value, size)` in order.
    pub mem_writes: Vec<(ValueSet, ValueSet, u8)>,
    /// Journaled `record_offset` calls (idempotent on replay).
    pub journal: Vec<OffsetRecord>,
    /// Data-access address sets, in program order (for events).
    pub accesses: Vec<ValueSet>,
    /// Control flow.
    pub next: Next,
}

impl TransferEffect {
    /// Replays the recorded mutation onto the current state/table.
    ///
    /// Register writes go through `set_reg` (reproducing flag-provenance
    /// clearing), the flag overwrite comes after (it carries the final
    /// provenance when present), memory writes re-issue in order, and
    /// journal entries re-record (idempotently).
    pub(crate) fn apply(&self, table: &mut SymbolTable, state: &mut AbsState, program: &Program) {
        for (r, v) in &self.reg_writes {
            state.set_reg(*r, v.clone());
        }
        if let Some(flags) = &self.flags {
            state.flags = flags.clone();
        }
        for (addrs, v, size) in &self.mem_writes {
            state.memory.write(addrs, v.clone(), *size, program);
        }
        for (derived, origin, offset) in &self.journal {
            table.record_offset(*derived, *origin, *offset);
        }
    }
}

/// Ways per transfer memo. Inner loops cycle a handful of live input
/// identities per pc (e.g. an induction variable sweeping 0..8), so one
/// entry per slot would thrash exactly where the memo matters most.
pub(crate) const WAYS: usize = 8;

/// One transfer-memo way: a key seen once (`effect: None` — primed) or
/// a recorded transfer ready to replay. Recording costs a journaled,
/// logged execution plus effect clones, so a key must miss *twice*
/// before the scheduler pays it — steps whose inputs never repeat
/// (counter-driven loop heads, once-through code) then cost only the
/// key derivation, not a recording nobody replays.
#[derive(Debug)]
struct MemoEntry {
    key: KeyBuf,
    effect: Option<Arc<TransferEffect>>,
    /// `true` once the recorded effect has replayed at least once —
    /// eviction protects such ways (see [`WaySet::prime`]).
    replayed: bool,
}

/// Outcome of probing a slot's transfer-memo ways for a key.
pub(crate) enum WayProbe {
    /// A recorded effect matched: replay it.
    Hit(Arc<TransferEffect>),
    /// The key was seen once before (primed way at this index): record
    /// this execution into it.
    Primed(usize),
    /// The key is new to the table: prime a way after executing.
    Vacant,
}

/// The fully-associative transfer-memo table of one decode slot.
///
/// Probes compare keys across all ways (first token mismatches settle
/// most comparisons immediately), so distinct recurring inputs fill
/// distinct ways instead of contending for a hashed home slot. Victim
/// selection on priming prefers empty ways, then primed-but-never-
/// recorded ways, then recorded-but-never-replayed ways — a fresh
/// two-touch priming can never thrash a way that has actually replayed
/// unless every way has.
#[derive(Debug, Default)]
pub(crate) struct WaySet {
    ways: [Option<MemoEntry>; WAYS],
    /// Round-robin cursor for the all-ways-replayed eviction case.
    victim: u8,
}

impl WaySet {
    /// Looks the key up across all ways, marking a hit way as replayed.
    pub(crate) fn probe(&mut self, key: &KeyBuf) -> WayProbe {
        for (i, way) in self.ways.iter_mut().enumerate() {
            if let Some(entry) = way {
                if entry.key == *key {
                    return match &entry.effect {
                        Some(effect) => {
                            entry.replayed = true;
                            WayProbe::Hit(Arc::clone(effect))
                        }
                        None => WayProbe::Primed(i),
                    };
                }
            }
        }
        WayProbe::Vacant
    }

    /// Fills the primed way `i` (returned by [`WayProbe::Primed`]) with
    /// its recorded effect. The key is debug-checked: the probe matched
    /// it this step and nothing else ran since.
    pub(crate) fn record(&mut self, i: usize, key: &KeyBuf, effect: Arc<TransferEffect>) {
        let entry = self.ways[i].as_mut().expect("primed way exists");
        debug_assert!(entry.key == *key, "primed key must match");
        entry.effect = Some(effect);
    }

    /// Primes a way with a first-seen key, choosing the victim as:
    /// empty, else primed-but-never-recorded, else recorded-but-never-
    /// replayed, else round-robin across the (all replayed) ways.
    pub(crate) fn prime(&mut self, key: KeyBuf) {
        let mut empty = None;
        let mut primed = None;
        let mut unplayed = None;
        for (i, way) in self.ways.iter().enumerate() {
            match way {
                None => {
                    empty = Some(i);
                    break;
                }
                Some(e) if e.effect.is_none() => primed = primed.or(Some(i)),
                Some(e) if !e.replayed => unplayed = unplayed.or(Some(i)),
                Some(_) => {}
            }
        }
        let i = empty.or(primed).or(unplayed).unwrap_or_else(|| {
            let i = usize::from(self.victim) % WAYS;
            self.victim = self.victim.wrapping_add(1);
            i
        });
        self.ways[i] = Some(MemoEntry {
            key,
            effect: None,
            replayed: false,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::rw_sets;
    use leakaudit_x86::{Cond, Inst, Mem, Operand};

    /// Owned-key convenience over the fill-a-scratch `key_for`.
    fn derive(rw: &RwSets, state: &AbsState) -> Option<KeyBuf> {
        let mut key = KeyBuf::new();
        key_for(rw, state, &mut key).then_some(key)
    }

    #[test]
    fn key_tokens_follow_the_read_footprint() {
        let state = AbsState::new();
        // `mov eax, [ebx + ecx*4]` reads ebx, ecx, memory — but both are
        // Top in a fresh state, so the key bypasses.
        let rw = rw_sets(&Inst::Mov {
            dst: Operand::Reg(Reg::Eax),
            src: Operand::Mem(Mem::sib(Reg::Ebx, Reg::Ecx, 4, 0)),
        });
        assert!(rw.mem_read);
        assert!(derive(&rw, &state).is_none(), "Top inputs bypass");

        let mut state = state;
        state.set_reg(Reg::Ebx, ValueSet::constant(0x8000, 32));
        state.set_reg(Reg::Ecx, ValueSet::from_constants(0..4, 32));
        let key = derive(&rw, &state).expect("stable inputs key");
        // ebx, ecx, stamp.
        assert_eq!(key.toks.len(), 3);
        assert!(matches!(key.toks[2], KeyTok::Stamp(_)));

        // `push eax` writes memory but reads none: no stamp token.
        let rw = rw_sets(&Inst::Push {
            src: Operand::Reg(Reg::Eax),
        });
        assert!(rw.mem_written && !rw.mem_read);
        state.set_reg(Reg::Eax, ValueSet::constant(7, 32));
        let key = derive(&rw, &state).expect("eax and esp known");
        assert_eq!(key.toks.len(), 2, "eax + esp, no stamp");
    }

    #[test]
    fn distinct_inputs_yield_distinct_keys() {
        let rw = rw_sets(&Inst::Inc { dst: Reg::Eax });
        let mut a = AbsState::new();
        a.set_reg(Reg::Eax, ValueSet::constant(1, 32));
        let ka = derive(&rw, &a).unwrap();
        let mut b = a.clone();
        b.set_reg(Reg::Eax, ValueSet::constant(2, 32));
        let kb = derive(&rw, &b).unwrap();
        assert_ne!(ka, kb);
        // Same value, different CF: still distinct (inc reads CF).
        let mut c = a.clone();
        c.flags.cf = AbstractBool::True;
        let kc = derive(&rw, &c).unwrap();
        assert_ne!(ka, kc);
        // Equal state: equal key.
        let kd = derive(&rw, &a.clone()).unwrap();
        assert_eq!(ka, kd);
    }

    #[test]
    fn dead_flag_inputs_are_not_keyed() {
        // `je` consults only ZF: states differing in CF/SF/OF share a
        // key, and a *decided* ZF drops the provenance tokens entirely.
        let rw = rw_sets(&Inst::Jcc {
            cond: Cond::E,
            target: 0x2000,
            short: true,
        });
        assert_eq!(rw.flags_read.mask, FLAG_ZF);
        assert!(rw.flags_read.provenance);
        let mut a = AbsState::new();
        a.flags.zf = AbstractBool::False;
        a.flags.cf = AbstractBool::True;
        let mut b = a.clone();
        b.flags.cf = AbstractBool::False;
        b.flags.sf = AbstractBool::True;
        b.flags.source = Some(crate::state::FlagSource {
            reg: Reg::Ecx,
            eq: ValueSet::constant(0, 32),
            ne: ValueSet::from_constants(1..4, 32),
        });
        let (ka, kb) = (derive(&rw, &a).unwrap(), derive(&rw, &b).unwrap());
        assert_eq!(ka, kb, "CF/SF/OF and decided-ZF provenance are dead");
        assert_eq!(ka.toks.len(), 1, "just the masked flags token");

        // Undecided ZF consults the provenance: present vs absent must
        // key apart.
        let mut c = a.clone();
        c.flags.zf = AbstractBool::Top;
        let mut d = c.clone();
        d.flags.source = Some(crate::state::FlagSource {
            reg: Reg::Ecx,
            eq: ValueSet::constant(0, 32),
            ne: ValueSet::from_constants(1..4, 32),
        });
        let (kc, kd) = (derive(&rw, &c).unwrap(), derive(&rw, &d).unwrap());
        assert_ne!(kc, kd, "live provenance is keyed");
        assert!(matches!(kc.toks[1], KeyTok::NoSource));
        assert!(matches!(kd.toks[1], KeyTok::SourceReg(_)));

        // `setcc` never consults provenance, whatever ZF is.
        let rw = rw_sets(&Inst::Setcc {
            cond: Cond::E,
            dst: leakaudit_x86::Reg8::Cl,
        });
        assert!(!rw.flags_read.provenance);
        let mut e = AbsState::new();
        e.set_reg(Reg::Ecx, ValueSet::constant(0, 32));
        e.flags.zf = AbstractBool::Top;
        let mut f = e.clone();
        f.flags.source = Some(crate::state::FlagSource {
            reg: Reg::Eax,
            eq: ValueSet::constant(1, 32),
            ne: ValueSet::constant(2, 32),
        });
        assert_eq!(
            derive(&rw, &e).unwrap(),
            derive(&rw, &f).unwrap(),
            "setcc keys flags only"
        );
    }

    #[test]
    fn way_eviction_prefers_cold_victims() {
        let mut ways = WaySet::default();
        let key = |n: u64| {
            let mut k = KeyBuf::new();
            k.push(KeyTok::Stamp(n));
            k
        };
        let effect = || {
            Arc::new(TransferEffect {
                reg_writes: Vec::new(),
                flags: None,
                mem_writes: Vec::new(),
                journal: Vec::new(),
                accesses: Vec::new(),
                next: Next::Fall,
            })
        };
        // Fill every way with a recorded entry (key n lands in way n);
        // replay all but the last, leaving way 7 recorded-but-unplayed.
        for n in 0..WAYS as u64 {
            ways.prime(key(n));
            let WayProbe::Primed(i) = ways.probe(&key(n)) else {
                panic!("second touch must find the primed way");
            };
            ways.record(i, &key(n), effect());
        }
        let last = WAYS as u64 - 1;
        for n in 0..last {
            assert!(matches!(ways.probe(&key(n)), WayProbe::Hit(_)));
        }
        // A fresh prime must take the unplayed way, not a hot one.
        ways.prime(key(100));
        assert!(matches!(ways.probe(&key(100)), WayProbe::Primed(_)));
        assert!(matches!(ways.probe(&key(last)), WayProbe::Vacant));
        // The next prime prefers the (cheaper) existing prime over any
        // replayed way.
        ways.prime(key(101));
        assert!(matches!(ways.probe(&key(100)), WayProbe::Vacant));
        let WayProbe::Primed(i) = ways.probe(&key(101)) else {
            panic!("prime must land somewhere");
        };
        // Every replayed way survived both primes.
        for n in 0..last {
            assert!(
                matches!(ways.probe(&key(n)), WayProbe::Hit(_)),
                "hot way {n} evicted by a prime"
            );
        }
        // Heat up the newcomer too: with every way replayed, priming
        // falls back to round-robin and must still admit new keys.
        ways.record(i, &key(101), effect());
        assert!(matches!(ways.probe(&key(101)), WayProbe::Hit(_)));
        ways.prime(key(102));
        assert!(matches!(ways.probe(&key(102)), WayProbe::Primed(_)));
    }
}
