//! The abstract transfer function: one decoded instruction applied to an
//! abstract state, yielding data-access address sets and control flow.

use leakaudit_core::{
    apply_set, apply_set_flags, map_set, mul, neg, not, shl, shr, AbstractBool, AbstractFlags,
    BinOp, OpResult, SymbolTable, ValueSet,
};
use leakaudit_x86::{AluOp, Cond, Inst, Mem, Operand, Program, Reg, ShiftOp};

use crate::state::AbsState;
use crate::AnalysisError;

/// Where control flows after one instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Next {
    /// Fall through to the next instruction.
    Fall,
    /// Unconditional transfer.
    Jump(u32),
    /// Branch whose flag could not be decided: fork per the boxed plan.
    /// Forks are rare (one per undecided branch, bounded by the
    /// configuration limit), so the payload lives behind a box to keep
    /// the hot `Fall`/`Jump` step effects small.
    Fork(Box<ForkPlan>),
    /// End of the analyzed region (`hlt`).
    Halt,
}

/// How to fork on an undecided branch: the taken target plus optional
/// per-path register refinements (see [`crate::FlagsState`]'s
/// provenance).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForkPlan {
    /// The taken target.
    pub taken: u32,
    /// Refinement to install on the taken path.
    pub refine_taken: Option<(Reg, ValueSet)>,
    /// Refinement to install on the fall-through path.
    pub refine_fall: Option<(Reg, ValueSet)>,
}

/// Flag-bit masks for [`FlagsRead::mask`], in canonical (zf, cf, sf, of)
/// order — the packing order of the memo's flag key tokens.
pub(crate) const FLAG_ZF: u8 = 1 << 0;
/// Carry flag bit.
pub(crate) const FLAG_CF: u8 = 1 << 1;
/// Sign flag bit.
pub(crate) const FLAG_SF: u8 = 1 << 2;
/// Overflow flag bit.
pub(crate) const FLAG_OF: u8 = 1 << 3;

/// Which flag inputs an instruction's transfer consults — per *bit*, not
/// all-or-nothing. This is the dead-input side of the memo key: a `je`
/// reads only ZF, so sibling configurations differing in CF/SF/OF (or in
/// stale branch-refinement provenance) still share a key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FlagsRead {
    /// Consulted flag bits ([`FLAG_ZF`] | [`FLAG_CF`] | [`FLAG_SF`] |
    /// [`FLAG_OF`]). Unconsulted bits are dead inputs and never keyed.
    pub mask: u8,
    /// `true` when the transfer consults the ZF refinement provenance
    /// ([`crate::state::FlagSource`]) — only `je`/`jne`, and only when
    /// ZF is undecided (`plan_fork` is unreachable otherwise), which the
    /// memo key can see because ZF itself is always in `mask` here.
    pub provenance: bool,
}

impl FlagsRead {
    /// No flag dependence.
    pub(crate) const NO: FlagsRead = FlagsRead {
        mask: 0,
        provenance: false,
    };

    fn bits(mask: u8) -> FlagsRead {
        FlagsRead {
            mask,
            provenance: false,
        }
    }
}

/// The flag bits [`eval_cond`] consults for `cond` — exactly the live
/// inputs of a `jcc`/`setcc`/`cmovcc` transfer. Must stay in lockstep
/// with `eval_cond` case by case.
pub(crate) fn cond_flags(cond: Cond) -> u8 {
    match cond {
        Cond::O | Cond::No => FLAG_OF,
        Cond::B | Cond::Ae => FLAG_CF,
        Cond::E | Cond::Ne => FLAG_ZF,
        Cond::Be | Cond::A => FLAG_CF | FLAG_ZF,
        Cond::S | Cond::Ns => FLAG_SF,
        // Parity is not tracked abstractly: always `Top`, no flag read.
        Cond::P | Cond::Np => 0,
        Cond::L | Cond::Ge => FLAG_SF | FLAG_OF,
        Cond::Le | Cond::G => FLAG_ZF | FLAG_SF | FLAG_OF,
    }
}

/// The static read/write footprint of one decoded instruction: which
/// registers/flags/memory its abstract transfer consumes and produces.
///
/// Derived once per decoded instruction (see [`rw_sets`]) and used by the
/// interpreter memo to key a cached transfer on *exactly* the inputs it
/// reads and to snapshot *exactly* the outputs it writes. The enumeration
/// mirrors [`execute_decoded`] case by case; the proptest suite
/// (`interp_memo_props.rs`) pins the correspondence.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RwSets {
    /// Bitmask of registers read (bit = `Reg as u8`). Includes registers
    /// feeding memory-operand address computation.
    pub reads: u8,
    /// Bitmask of registers written.
    pub writes: u8,
    /// Flag-state dependence.
    pub flags_read: FlagsRead,
    /// `true` when the transfer assigns the flag state.
    pub flags_written: bool,
    /// `true` when the transfer reads data memory (or, for `pop`/`ret`,
    /// the stack).
    pub mem_read: bool,
    /// `true` when the transfer writes data memory.
    pub mem_written: bool,
}

impl RwSets {
    const NONE: RwSets = RwSets {
        reads: 0,
        writes: 0,
        flags_read: FlagsRead::NO,
        flags_written: false,
        mem_read: false,
        mem_written: false,
    };

    fn read_reg(&mut self, r: Reg) {
        self.reads |= 1 << (r as u8);
    }

    fn write_reg(&mut self, r: Reg) {
        self.writes |= 1 << (r as u8);
    }

    /// Address computation reads the base/index registers (no data access).
    fn mem_regs(&mut self, m: &Mem) {
        if let Some(b) = m.base {
            self.read_reg(b);
        }
        if let Some((i, _)) = m.index {
            self.read_reg(i);
        }
    }

    fn read_op(&mut self, op: &Operand) {
        match op {
            Operand::Reg(r) => self.read_reg(*r),
            Operand::Imm(_) => {}
            Operand::Mem(m) => {
                self.mem_regs(m);
                self.mem_read = true;
            }
        }
    }

    fn write_op(&mut self, op: &Operand) {
        match op {
            Operand::Reg(r) => self.write_reg(*r),
            Operand::Mem(m) => {
                self.mem_regs(m);
                self.mem_written = true;
            }
            Operand::Imm(_) => unreachable!("encoder rejects immediate destinations"),
        }
    }
}

/// Derives the read/write footprint of a decoded instruction.
///
/// Must stay in lockstep with [`execute_decoded`]: every abstract-state
/// input the transfer consumes appears in the read set, every output in
/// the write set. Over-approximation on either side is safe (spurious
/// memo misses / spurious snapshot entries), under-approximation is not.
///
/// The read sets are *minimal* — dead inputs are deliberately absent, so
/// the memo key widens across states that differ only in dead state.
/// Register reads are exact per instruction (an operand register that is
/// only overwritten, like `pop`'s destination, is never listed), and the
/// flag reads are per-bit ([`FlagsRead::mask`]) with the `je`/`jne`
/// refinement provenance tracked separately ([`FlagsRead::provenance`]).
pub(crate) fn rw_sets(inst: &Inst) -> RwSets {
    let mut rw = RwSets::NONE;
    match inst {
        Inst::Nop | Inst::Hlt | Inst::Jmp { .. } => {}
        Inst::Mov { dst, src } => {
            rw.read_op(src);
            rw.write_op(dst);
        }
        Inst::MovStoreB { dst, src } => {
            rw.read_reg(src.parent());
            rw.mem_regs(dst);
            rw.mem_written = true;
        }
        Inst::MovLoadB { dst, src } => {
            rw.mem_regs(src);
            rw.mem_read = true;
            // The load merges into the parent's high bytes.
            rw.read_reg(dst.parent());
            rw.write_reg(dst.parent());
        }
        Inst::Movzx { dst, src } => {
            rw.read_op(src);
            rw.write_reg(*dst);
        }
        Inst::Lea { dst, src } => {
            rw.mem_regs(src);
            rw.write_reg(*dst);
        }
        Inst::Alu { op, dst, src } => {
            // Mirror the zeroing-idiom early return: `xor r, r` /
            // `sub r, r` read nothing, not even r.
            if matches!(op, AluOp::Xor | AluOp::Sub) && dst == src {
                if let Operand::Reg(r) = dst {
                    rw.write_reg(*r);
                    rw.flags_written = true;
                    return rw;
                }
            }
            rw.read_op(dst);
            rw.read_op(src);
            rw.flags_written = true;
            // `cmp` only sets flags (the flag-source partition it installs
            // is derived from the already-read dst register).
            if *op != AluOp::Cmp {
                rw.write_op(dst);
            }
        }
        Inst::Test { a, b } => {
            rw.read_op(a);
            rw.read_op(b);
            rw.flags_written = true;
        }
        Inst::Imul { dst, src, imm } => {
            rw.read_op(src);
            if imm.is_none() {
                rw.read_reg(*dst);
            }
            rw.write_reg(*dst);
            rw.flags_written = true;
        }
        Inst::Shift { dst, .. } => {
            rw.read_op(dst);
            rw.write_op(dst);
            rw.flags_written = true;
        }
        Inst::Not { dst } => {
            rw.read_op(dst);
            rw.write_op(dst);
            // NOT does not touch flags.
        }
        Inst::Neg { dst } => {
            rw.read_op(dst);
            rw.write_op(dst);
            rw.flags_written = true;
        }
        Inst::Inc { dst } | Inst::Dec { dst } => {
            rw.read_reg(*dst);
            // CF is preserved across the flag assignment — a read.
            rw.flags_read = FlagsRead::bits(FLAG_CF);
            rw.write_reg(*dst);
            rw.flags_written = true;
        }
        Inst::Push { src } => {
            rw.read_op(src);
            rw.read_reg(Reg::Esp);
            rw.write_reg(Reg::Esp);
            rw.mem_written = true;
        }
        Inst::Pop { dst } => {
            rw.read_reg(Reg::Esp);
            rw.mem_read = true;
            rw.write_reg(Reg::Esp);
            rw.write_reg(*dst);
        }
        Inst::Jcc { cond, .. } => {
            // `eval_cond` consults only the condition's flag bits;
            // `plan_fork`'s provenance refinement is consulted only for
            // `je`/`jne` (and only reachable when ZF is undecided).
            rw.flags_read = FlagsRead {
                mask: cond_flags(*cond),
                provenance: matches!(cond, Cond::E | Cond::Ne),
            };
        }
        Inst::Call { .. } => {
            rw.read_reg(Reg::Esp);
            rw.write_reg(Reg::Esp);
            rw.mem_written = true;
        }
        Inst::Ret => {
            rw.read_reg(Reg::Esp);
            rw.mem_read = true;
            rw.write_reg(Reg::Esp);
        }
        Inst::Setcc { cond, dst } => {
            // Only `eval_cond` — never the refinement provenance.
            rw.flags_read = FlagsRead::bits(cond_flags(*cond));
            rw.read_reg(dst.parent());
            rw.write_reg(dst.parent());
        }
        Inst::Cmovcc { cond, dst, src } => {
            rw.read_op(src);
            rw.read_reg(*dst);
            // Only `eval_cond` — never the refinement provenance.
            rw.flags_read = FlagsRead::bits(cond_flags(*cond));
            rw.write_reg(*dst);
        }
    }
    rw
}

/// Side-channel log of the memory writes a transfer performed, captured
/// while recording a memo entry so replay can re-issue them verbatim
/// (`(addresses, value, size)` triples, in program order).
#[derive(Debug, Default)]
pub(crate) struct EffectLog {
    pub mem_writes: Vec<(ValueSet, ValueSet, u8)>,
}

/// The effect of one abstractly executed instruction.
#[derive(Debug)]
pub struct StepEffect {
    /// Address sets of the data accesses performed, in program order —
    /// these feed the memory-trace domains.
    pub data_accesses: AccessVec,
    /// Control flow.
    pub next: Next,
    /// Encoded instruction length.
    pub len: u32,
}

/// The data-access list of one instruction, with the first two address
/// sets stored **inline**.
///
/// x86-32 instructions touch memory at most twice (`push m`/`pop m`
/// forms aside, which this subset does not encode), so the old
/// `Vec<ValueSet>` bought generality with one heap allocation per
/// memory-touching instruction — pure overhead in the interpreter's
/// hottest loop. The inline representation covers every instruction the
/// decoder produces; a third access (future string ops) spills to a
/// `Vec` transparently.
#[derive(Debug, Default)]
pub struct AccessVec(AccessRepr);

#[derive(Debug, Default)]
enum AccessRepr {
    #[default]
    Empty,
    One(ValueSet),
    Two(ValueSet, ValueSet),
    Spilled(Vec<ValueSet>),
}

impl AccessVec {
    /// An empty list (no allocation).
    pub fn new() -> Self {
        AccessVec::default()
    }

    /// Appends one address set (allocation-free up to two elements).
    pub fn push(&mut self, v: ValueSet) {
        self.0 = match std::mem::take(&mut self.0) {
            AccessRepr::Empty => AccessRepr::One(v),
            AccessRepr::One(a) => AccessRepr::Two(a, v),
            AccessRepr::Two(a, b) => AccessRepr::Spilled(vec![a, b, v]),
            AccessRepr::Spilled(mut vec) => {
                vec.push(v);
                AccessRepr::Spilled(vec)
            }
        };
    }

    /// Number of recorded accesses.
    pub fn len(&self) -> usize {
        match &self.0 {
            AccessRepr::Empty => 0,
            AccessRepr::One(_) => 1,
            AccessRepr::Two(..) => 2,
            AccessRepr::Spilled(v) => v.len(),
        }
    }

    /// `true` when the instruction touched no data memory.
    pub fn is_empty(&self) -> bool {
        matches!(self.0, AccessRepr::Empty)
    }

    /// The `i`-th access, in program order.
    pub fn get(&self, i: usize) -> Option<&ValueSet> {
        match (&self.0, i) {
            (AccessRepr::One(a), 0) | (AccessRepr::Two(a, _), 0) | (AccessRepr::Two(_, a), 1) => {
                Some(a)
            }
            (AccessRepr::Spilled(v), i) => v.get(i),
            _ => None,
        }
    }

    /// Iterates the accesses in program order.
    pub fn iter(&self) -> impl Iterator<Item = &ValueSet> {
        (0..self.len()).map_while(|i| self.get(i))
    }
}

impl IntoIterator for AccessVec {
    type Item = ValueSet;
    type IntoIter = AccessIntoIter;

    fn into_iter(self) -> AccessIntoIter {
        AccessIntoIter(match self.0 {
            AccessRepr::Spilled(v) => IterRepr::Spilled(v.into_iter()),
            inline => IterRepr::Inline(inline),
        })
    }
}

/// Owning iterator over an [`AccessVec`].
#[derive(Debug)]
pub struct AccessIntoIter(IterRepr);

// The size gap between the inline payload and the spilled vec iterator
// is the entire design: boxing the inline variant would reintroduce the
// per-instruction allocation this type exists to remove.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
enum IterRepr {
    Inline(AccessRepr),
    Spilled(std::vec::IntoIter<ValueSet>),
}

impl Iterator for AccessIntoIter {
    type Item = ValueSet;

    fn next(&mut self) -> Option<ValueSet> {
        match &mut self.0 {
            IterRepr::Inline(repr) => match std::mem::take(repr) {
                AccessRepr::Empty => None,
                AccessRepr::One(a) => Some(a),
                AccessRepr::Two(a, b) => {
                    *repr = AccessRepr::One(b);
                    Some(a)
                }
                AccessRepr::Spilled(_) => unreachable!("spilled repr uses the vec iterator"),
            },
            IterRepr::Spilled(it) => it.next(),
        }
    }
}

/// Computes the address set of a memory operand:
/// `base + index·scale + disp`, all in the masked-symbol domain.
pub fn address_of(table: &mut SymbolTable, state: &AbsState, m: &Mem) -> ValueSet {
    let mut addr = match m.base {
        Some(b) => state.reg(b).clone(),
        None => ValueSet::constant(0, 32),
    };
    if let Some((idx, scale)) = m.index {
        let scaled = {
            let idx_v = state.reg(idx).clone();
            if scale == 1 {
                idx_v
            } else {
                let (v, _) = lift_mul(table, &idx_v, &ValueSet::constant(u64::from(scale), 32));
                v
            }
        };
        let (sum, _) = apply_set(table, BinOp::Add, &addr, &scaled);
        addr = sum;
    }
    if m.disp != 0 {
        let (sum, _) = apply_set(
            table,
            BinOp::Add,
            &addr,
            &ValueSet::constant(m.disp as u32 as u64, 32),
        );
        addr = sum;
    }
    addr
}

/// Pairwise lifting of the abstract multiplication.
fn lift_mul(table: &mut SymbolTable, x: &ValueSet, y: &ValueSet) -> (ValueSet, AbstractFlags) {
    if x.is_top() || y.is_top() {
        return (ValueSet::top(32), AbstractFlags::top());
    }
    let mut out = Vec::new();
    let mut flags: Option<AbstractFlags> = None;
    for a in x.iter() {
        for b in y.iter() {
            let OpResult { value, flags: f } = mul(table, a, b);
            out.push(value);
            flags = Some(match flags {
                None => f,
                Some(acc) => acc.join(f),
            });
        }
    }
    (
        ValueSet::from_masked_symbols(out),
        flags.unwrap_or_else(AbstractFlags::top),
    )
}

/// Three-valued condition evaluation against abstract flags (§5.4.3: any
/// combination is considered possible unless the flags are determined).
pub fn eval_cond(cond: Cond, state: &AbsState) -> AbstractBool {
    use AbstractBool as B;
    let f = &state.flags;
    let not = B::not;
    let or = |a: B, b: B| match (a, b) {
        (B::True, _) | (_, B::True) => B::True,
        (B::False, B::False) => B::False,
        _ => B::Top,
    };
    let and = |a: B, b: B| not(or(not(a), not(b)));
    let xor = |a: B, b: B| match (a, b) {
        (B::Top, _) | (_, B::Top) => B::Top,
        (x, y) if x == y => B::False,
        _ => B::True,
    };
    match cond {
        Cond::O => f.of,
        Cond::No => not(f.of),
        Cond::B => f.cf,
        Cond::Ae => not(f.cf),
        Cond::E => f.zf,
        Cond::Ne => not(f.zf),
        Cond::Be => or(f.cf, f.zf),
        Cond::A => and(not(f.cf), not(f.zf)),
        Cond::S => f.sf,
        Cond::Ns => not(f.sf),
        // Parity is not tracked abstractly.
        Cond::P | Cond::Np => B::Top,
        Cond::L => xor(f.sf, f.of),
        Cond::Ge => not(xor(f.sf, f.of)),
        Cond::Le => or(f.zf, xor(f.sf, f.of)),
        Cond::G => and(not(f.zf), not(xor(f.sf, f.of))),
    }
}

/// After `cmp reg, c` (or `test reg, reg` with `c = 0`): partition the
/// register's elements into ZF=1 and ZF=0 classes and remember them.
fn install_flag_source(table: &mut SymbolTable, state: &mut AbsState, reg: Reg, c: u64) {
    let set = state.reg(reg).clone();
    if set.is_top() {
        return;
    }
    let constant = leakaudit_core::MaskedSymbol::constant(c, 32);
    let mut eq = Vec::new();
    let mut ne = Vec::new();
    for m in set.iter() {
        match table.compare_values(m, &constant) {
            Some(true) => eq.push(*m),
            Some(false) => ne.push(*m),
            None => {
                eq.push(*m);
                ne.push(*m);
            }
        }
    }
    state.flags.source = Some(crate::state::FlagSource {
        reg,
        eq: ValueSet::from_masked_symbols(eq),
        ne: ValueSet::from_masked_symbols(ne),
    });
}

/// Decides how to fork on an undecided `je`/`jne`, pruning paths whose
/// refined value set would be empty.
fn plan_fork(state: &AbsState, cond: Cond, target: u32) -> Next {
    let unrefined = || {
        Next::Fork(Box::new(ForkPlan {
            taken: target,
            refine_taken: None,
            refine_fall: None,
        }))
    };
    let Some(source) = &state.flags.source else {
        return unrefined();
    };
    let (on_zf1, on_zf0) = (source.eq.clone(), source.ne.clone());
    let (taken_set, fall_set) = match cond {
        Cond::E => (on_zf1, on_zf0),
        Cond::Ne => (on_zf0, on_zf1),
        _ => return unrefined(),
    };
    match (taken_set.is_empty(), fall_set.is_empty()) {
        (true, _) => Next::Fall,
        (_, true) => Next::Jump(target),
        _ => Next::Fork(Box::new(ForkPlan {
            taken: target,
            refine_taken: Some((source.reg, taken_set)),
            refine_fall: Some((source.reg, fall_set)),
        })),
    }
}

struct Ctx<'a> {
    table: &'a mut SymbolTable,
    state: &'a mut AbsState,
    program: &'a Program,
    accesses: AccessVec,
    /// When recording a memo entry, memory writes are also logged here.
    log: Option<&'a mut EffectLog>,
}

impl Ctx<'_> {
    fn read_operand(&mut self, op: &Operand, size: u8) -> ValueSet {
        match op {
            Operand::Reg(r) => self.state.reg(*r).clone(),
            Operand::Imm(v) => ValueSet::constant(u64::from(*v), 32),
            Operand::Mem(m) => {
                let addr = address_of(self.table, self.state, m);
                let v = self.state.memory.read(&addr, size, self.program);
                self.accesses.push(addr);
                v
            }
        }
    }

    /// The single data-memory write path: logs (when recording), writes,
    /// and records the access — in that order, at every write site.
    fn write_mem(&mut self, addr: ValueSet, v: ValueSet, size: u8) {
        if let Some(log) = &mut self.log {
            log.mem_writes.push((addr.clone(), v.clone(), size));
        }
        self.state.memory.write(&addr, v, size, self.program);
        self.accesses.push(addr);
    }

    fn write_operand(&mut self, op: &Operand, v: ValueSet, size: u8) {
        match op {
            Operand::Reg(r) => self.state.set_reg(*r, v),
            Operand::Mem(m) => {
                let addr = address_of(self.table, self.state, m);
                self.write_mem(addr, v, size);
            }
            Operand::Imm(_) => unreachable!("encoder rejects immediate destinations"),
        }
    }

    fn low_byte(&mut self, v: &ValueSet) -> ValueSet {
        let (b, _) = apply_set(self.table, BinOp::And, v, &ValueSet::constant(0xff, 32));
        b
    }
}

/// Abstractly executes the instruction at `pc`.
///
/// # Errors
///
/// Returns [`AnalysisError`] on decode failures or when a `ret` cannot be
/// resolved to a unique concrete return address.
pub fn execute(
    table: &mut SymbolTable,
    state: &mut AbsState,
    program: &Program,
    pc: u32,
) -> Result<StepEffect, AnalysisError> {
    let (inst, len) = program.decode_at(pc)?;
    execute_decoded(table, state, program, pc, inst, len)
}

/// Abstractly executes an already-decoded instruction at `pc`.
///
/// The engine's scheduler memoizes decoding across configurations and
/// loop iterations and calls this directly; [`execute`] is the
/// decode-then-execute convenience for one-shot use.
///
/// # Errors
///
/// Returns [`AnalysisError`] when a `ret` cannot be resolved to a unique
/// concrete return address.
pub fn execute_decoded(
    table: &mut SymbolTable,
    state: &mut AbsState,
    program: &Program,
    pc: u32,
    inst: Inst,
    len: u32,
) -> Result<StepEffect, AnalysisError> {
    execute_logged(table, state, program, pc, inst, len, None)
}

/// [`execute_decoded`] with an optional memory-write log, used by the
/// interpreter memo while recording a transfer.
pub(crate) fn execute_logged(
    table: &mut SymbolTable,
    state: &mut AbsState,
    program: &Program,
    pc: u32,
    inst: Inst,
    len: u32,
    log: Option<&mut EffectLog>,
) -> Result<StepEffect, AnalysisError> {
    let next_pc = pc.wrapping_add(len);
    let mut ctx = Ctx {
        table,
        state,
        program,
        accesses: AccessVec::new(),
        log,
    };
    let mut next = Next::Fall;
    match inst {
        Inst::Nop => {}
        Inst::Hlt => next = Next::Halt,
        Inst::Mov { dst, src } => {
            let v = ctx.read_operand(&src, 4);
            ctx.write_operand(&dst, v, 4);
        }
        Inst::MovStoreB { dst, src } => {
            let parent = ctx.state.reg(src.parent()).clone();
            let byte = ctx.low_byte(&parent);
            ctx.write_operand(&Operand::Mem(dst), byte, 1);
        }
        Inst::MovLoadB { dst, src } => {
            let byte = ctx.read_operand(&Operand::Mem(src), 1);
            let parent = dst.parent();
            let old = ctx.state.reg(parent).clone();
            let (hi, _) = apply_set(
                ctx.table,
                BinOp::And,
                &old,
                &ValueSet::constant(0xffff_ff00, 32),
            );
            let (lo, _) = apply_set(ctx.table, BinOp::And, &byte, &ValueSet::constant(0xff, 32));
            let (merged, _) = apply_set(ctx.table, BinOp::Or, &hi, &lo);
            ctx.state.set_reg(parent, merged);
        }
        Inst::Movzx { dst, src } => {
            let v = match src {
                Operand::Reg(r) => {
                    let parent = ctx.state.reg(r).clone();
                    ctx.low_byte(&parent)
                }
                Operand::Mem(_) => {
                    let byte = ctx.read_operand(&src, 1);
                    ctx.low_byte(&byte)
                }
                Operand::Imm(_) => unreachable!("decoder never yields movzx imm"),
            };
            ctx.state.set_reg(dst, v);
        }
        Inst::Lea { dst, src } => {
            let addr = address_of(ctx.table, ctx.state, &src);
            ctx.state.set_reg(dst, addr);
        }
        Inst::Alu { op, dst, src } => {
            // x86 zeroing idioms: `xor r, r` and `sub r, r` are exactly 0
            // whatever r holds — even `Top` (the set-based lifting cannot
            // see that both operands are the *same* unknown).
            if matches!(op, AluOp::Xor | AluOp::Sub) && dst == src {
                if let Operand::Reg(r) = dst {
                    ctx.state.set_reg(r, ValueSet::constant(0, 32));
                    ctx.state.flags.assign(AbstractFlags {
                        zf: AbstractBool::True,
                        cf: AbstractBool::False,
                        sf: AbstractBool::False,
                        of: AbstractBool::False,
                    });
                    return Ok(StepEffect {
                        data_accesses: ctx.accesses,
                        next: Next::Fall,
                        len,
                    });
                }
            }
            let a = ctx.read_operand(&dst, 4);
            let b = ctx.read_operand(&src, 4);
            let bin = match op {
                AluOp::Add => BinOp::Add,
                AluOp::Sub | AluOp::Cmp => BinOp::Sub,
                AluOp::And => BinOp::And,
                AluOp::Or => BinOp::Or,
                AluOp::Xor => BinOp::Xor,
            };
            if op == AluOp::Cmp {
                let flags = apply_set_flags(ctx.table, bin, &a, &b);
                ctx.state.flags.assign(flags);
                if let (Operand::Reg(reg), Some(c)) = (dst, b.as_constant()) {
                    install_flag_source(ctx.table, ctx.state, reg, c);
                }
            } else {
                let (r, flags) = apply_set(ctx.table, bin, &a, &b);
                ctx.state.flags.assign(flags);
                ctx.write_operand(&dst, r, 4);
            }
        }
        Inst::Test { a, b } => {
            let x = ctx.read_operand(&a, 4);
            let y = ctx.read_operand(&b, 4);
            let flags = apply_set_flags(ctx.table, BinOp::And, &x, &y);
            ctx.state.flags.assign(flags);
            // `test r, r` partitions r by zero/nonzero.
            if let (Operand::Reg(r1), Operand::Reg(r2)) = (a, b) {
                if r1 == r2 {
                    install_flag_source(ctx.table, ctx.state, r1, 0);
                }
            }
        }
        Inst::Imul { dst, src, imm } => {
            let a = ctx.read_operand(&src, 4);
            let b = match imm {
                Some(i) => ValueSet::constant(i as u32 as u64, 32),
                None => ctx.state.reg(dst).clone(),
            };
            let (r, flags) = lift_mul(ctx.table, &a, &b);
            ctx.state.flags.assign(flags);
            ctx.state.set_reg(dst, r);
        }
        Inst::Shift { op, dst, amount } => {
            let v = ctx.read_operand(&dst, 4);
            let (r, flags) = match op {
                ShiftOp::Shl => map_set(ctx.table, &v, |t, m| shl(t, m, u32::from(amount))),
                ShiftOp::Shr => map_set(ctx.table, &v, |t, m| shr(t, m, u32::from(amount))),
                ShiftOp::Sar => map_set(ctx.table, &v, |t, m| {
                    // Arithmetic shift: precise only for constants.
                    match m.as_constant() {
                        Some(c) => {
                            let shifted = ((c as u32 as i32) >> (amount & 31)) as u32;
                            OpResult {
                                value: leakaudit_core::MaskedSymbol::constant(
                                    u64::from(shifted),
                                    32,
                                ),
                                flags: AbstractFlags::top(),
                            }
                        }
                        None => OpResult {
                            value: leakaudit_core::MaskedSymbol::symbol(t.fresh_derived("sar"), 32),
                            flags: AbstractFlags::top(),
                        },
                    }
                }),
            };
            ctx.state.flags.assign(flags);
            ctx.write_operand(&dst, r, 4);
        }
        Inst::Not { dst } => {
            let v = ctx.read_operand(&dst, 4);
            let (r, _) = map_set(ctx.table, &v, |t, m| OpResult {
                value: not(t, m),
                flags: AbstractFlags::top(),
            });
            ctx.write_operand(&dst, r, 4);
        }
        Inst::Neg { dst } => {
            let v = ctx.read_operand(&dst, 4);
            let (r, flags) = map_set(ctx.table, &v, neg);
            ctx.state.flags.assign(flags);
            ctx.write_operand(&dst, r, 4);
        }
        Inst::Inc { dst } => {
            let cf = ctx.state.flags.cf;
            let a = ctx.state.reg(dst).clone();
            let (r, flags) = apply_set(ctx.table, BinOp::Add, &a, &ValueSet::constant(1, 32));
            ctx.state.flags.assign(flags);
            ctx.state.flags.cf = cf; // INC leaves CF unchanged
            ctx.state.set_reg(dst, r);
        }
        Inst::Dec { dst } => {
            let cf = ctx.state.flags.cf;
            let a = ctx.state.reg(dst).clone();
            let (r, flags) = apply_set(ctx.table, BinOp::Sub, &a, &ValueSet::constant(1, 32));
            ctx.state.flags.assign(flags);
            ctx.state.flags.cf = cf; // DEC leaves CF unchanged
            ctx.state.set_reg(dst, r);
        }
        Inst::Push { src } => {
            let v = ctx.read_operand(&src, 4);
            let esp = ctx.state.reg(Reg::Esp).clone();
            let (new_esp, _) = apply_set(ctx.table, BinOp::Sub, &esp, &ValueSet::constant(4, 32));
            ctx.state.set_reg(Reg::Esp, new_esp.clone());
            ctx.write_mem(new_esp, v, 4);
        }
        Inst::Pop { dst } => {
            let esp = ctx.state.reg(Reg::Esp).clone();
            let v = ctx.state.memory.read(&esp, 4, ctx.program);
            ctx.accesses.push(esp.clone());
            let (new_esp, _) = apply_set(ctx.table, BinOp::Add, &esp, &ValueSet::constant(4, 32));
            ctx.state.set_reg(Reg::Esp, new_esp);
            ctx.state.set_reg(dst, v);
        }
        Inst::Jmp { target, .. } => next = Next::Jump(target),
        Inst::Jcc { cond, target, .. } => {
            next = match eval_cond(cond, ctx.state) {
                AbstractBool::True => Next::Jump(target),
                AbstractBool::False => Next::Fall,
                AbstractBool::Top => plan_fork(ctx.state, cond, target),
            };
        }
        Inst::Call { target } => {
            let esp = ctx.state.reg(Reg::Esp).clone();
            let (new_esp, _) = apply_set(ctx.table, BinOp::Sub, &esp, &ValueSet::constant(4, 32));
            ctx.state.set_reg(Reg::Esp, new_esp.clone());
            ctx.write_mem(new_esp, ValueSet::constant(u64::from(next_pc), 32), 4);
            next = Next::Jump(target);
        }
        Inst::Ret => {
            let esp = ctx.state.reg(Reg::Esp).clone();
            let v = ctx.state.memory.read(&esp, 4, ctx.program);
            ctx.accesses.push(esp.clone());
            let (new_esp, _) = apply_set(ctx.table, BinOp::Add, &esp, &ValueSet::constant(4, 32));
            ctx.state.set_reg(Reg::Esp, new_esp);
            match v.as_constant() {
                Some(ret) => next = Next::Jump(ret as u32),
                None => return Err(AnalysisError::UnresolvedReturn { at: pc }),
            }
        }
        Inst::Setcc { cond, dst } => {
            let bit = match eval_cond(cond, ctx.state) {
                AbstractBool::True => ValueSet::constant(1, 32),
                AbstractBool::False => ValueSet::constant(0, 32),
                AbstractBool::Top => ValueSet::from_constants([0, 1], 32),
            };
            let parent = dst.parent();
            let old = ctx.state.reg(parent).clone();
            let (hi, _) = apply_set(
                ctx.table,
                BinOp::And,
                &old,
                &ValueSet::constant(0xffff_ff00, 32),
            );
            let (merged, _) = apply_set(ctx.table, BinOp::Or, &hi, &bit);
            ctx.state.set_reg(parent, merged);
        }
        Inst::Cmovcc { cond, dst, src } => {
            // The source is read regardless of the condition (as on
            // hardware) — crucial for the D-cache trace.
            let v = ctx.read_operand(&src, 4);
            let old = ctx.state.reg(dst).clone();
            let merged = match eval_cond(cond, ctx.state) {
                AbstractBool::True => v,
                AbstractBool::False => old,
                AbstractBool::Top => v.join(&old),
            };
            ctx.state.set_reg(dst, merged);
        }
    }
    let accesses = ctx.accesses;
    Ok(StepEffect {
        data_accesses: accesses,
        next,
        len,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::InitState;
    use leakaudit_x86::Asm;

    fn exec_one(setup: impl FnOnce(&mut Asm), init: &mut InitState) -> (StepEffect, InitState) {
        let mut a = Asm::new(0x1000);
        setup(&mut a);
        a.hlt();
        let p = a.assemble().unwrap();
        let mut st = init.clone();
        let eff = execute(&mut st.table, &mut st.state, &p, 0x1000).unwrap();
        (eff, st)
    }

    #[test]
    fn access_vec_round_trips_across_the_spill_boundary() {
        for n in 0..5u64 {
            let mut acc = AccessVec::new();
            for k in 0..n {
                acc.push(ValueSet::constant(0x1000 + k, 32));
            }
            assert_eq!(acc.len() as u64, n);
            assert_eq!(acc.is_empty(), n == 0);
            for k in 0..n {
                assert_eq!(
                    acc.get(k as usize),
                    Some(&ValueSet::constant(0x1000 + k, 32)),
                    "get({k}) of {n}"
                );
            }
            assert_eq!(acc.get(n as usize), None);
            let borrowed: Vec<ValueSet> = acc.iter().cloned().collect();
            let owned: Vec<ValueSet> = acc.into_iter().collect();
            assert_eq!(borrowed, owned);
            assert_eq!(
                owned,
                (0..n)
                    .map(|k| ValueSet::constant(0x1000 + k, 32))
                    .collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn align_idiom_from_example_5() {
        let mut init = InitState::new();
        let buf = init.fresh_heap_pointer("buf");
        init.set_reg(Reg::Eax, ValueSet::singleton(buf));
        // AND 0xFFFFFFC0, EAX
        let (_, mut st) = exec_one(
            |a| {
                a.and(Reg::Eax, 0xffff_ffc0u32);
            },
            &mut init,
        );
        let v = st.state.reg(Reg::Eax).as_singleton().unwrap();
        assert_eq!(v.sym(), buf.sym(), "AND keeps the symbol");
        assert_eq!(v.mask().to_string(), "⊤{26}000000");
        let _ = &mut st;
    }

    #[test]
    fn secret_indexed_address_set() {
        // mov eax, [ebx + ecx*4] with ecx = {0..6}: 7 addresses.
        let mut init = InitState::new();
        init.set_reg(Reg::Ebx, ValueSet::constant(0x8000, 32));
        init.set_reg(Reg::Ecx, ValueSet::from_constants(0..7, 32));
        let (eff, _) = exec_one(
            |a| {
                a.mov(Reg::Eax, leakaudit_x86::Mem::sib(Reg::Ebx, Reg::Ecx, 4, 0));
            },
            &mut init,
        );
        assert_eq!(eff.data_accesses.len(), 1);
        assert_eq!(
            eff.data_accesses.get(0),
            Some(&ValueSet::from_constants(
                (0..7).map(|k| 0x8000 + 4 * k),
                32
            ))
        );
    }

    #[test]
    fn branch_on_unknown_flag_forks() {
        let mut init = InitState::new();
        init.set_reg(Reg::Eax, ValueSet::from_constants([0, 1], 32));
        let (eff, _) = exec_one(
            |a| {
                a.test(Reg::Eax, Reg::Eax);
            },
            &mut init,
        );
        assert_eq!(eff.next, Next::Fall);
        // Now the branch itself.
        let mut a = Asm::new(0x1000);
        a.test(Reg::Eax, Reg::Eax);
        a.jne("x");
        a.label("x");
        a.hlt();
        let p = a.assemble().unwrap();
        let mut st = init.clone();
        execute(&mut st.table, &mut st.state, &p, 0x1000).unwrap();
        let eff = execute(&mut st.table, &mut st.state, &p, 0x1002).unwrap();
        assert!(matches!(eff.next, Next::Fork(_)));
    }

    #[test]
    fn branch_on_known_flag_is_deterministic() {
        let mut init = InitState::new();
        init.set_reg(Reg::Eax, ValueSet::constant(0, 32));
        let mut a = Asm::new(0x1000);
        a.test(Reg::Eax, Reg::Eax);
        a.je("x");
        a.nop();
        a.label("x");
        a.hlt();
        let p = a.assemble().unwrap();
        let mut st = init.clone();
        execute(&mut st.table, &mut st.state, &p, 0x1000).unwrap();
        let eff = execute(&mut st.table, &mut st.state, &p, 0x1002).unwrap();
        assert_eq!(eff.next, Next::Jump(p.label("x").unwrap()));
    }

    #[test]
    fn pointer_loop_guard_resolves_by_offsets() {
        // Ex. 7/8: x = r; y = r + 8; x != y decided via offsets.
        let mut init = InitState::new();
        let r = init.fresh_heap_pointer("r");
        init.set_reg(Reg::Eax, ValueSet::singleton(r)); // x
        init.set_reg(Reg::Ebx, ValueSet::singleton(r)); // will become y
        let mut a = Asm::new(0x1000);
        a.add(Reg::Ebx, 8u32); // y = r + 8
        a.cmp(Reg::Eax, Reg::Ebx);
        a.hlt();
        let p = a.assemble().unwrap();
        let mut st = init.clone();
        execute(&mut st.table, &mut st.state, &p, 0x1000).unwrap();
        execute(&mut st.table, &mut st.state, &p, 0x1003).unwrap();
        assert_eq!(st.state.flags.zf, AbstractBool::False, "x != y known");
        // Advance x by 8: now equal.
        let mut a2 = Asm::new(0x2000);
        a2.add(Reg::Eax, 8u32);
        a2.cmp(Reg::Eax, Reg::Ebx);
        a2.hlt();
        let p2 = a2.assemble().unwrap();
        execute(&mut st.table, &mut st.state, &p2, 0x2000).unwrap();
        execute(&mut st.table, &mut st.state, &p2, 0x2003).unwrap();
        assert_eq!(st.state.flags.zf, AbstractBool::True, "x == y known");
    }

    #[test]
    fn call_and_ret_round_trip() {
        let mut a = Asm::new(0x1000);
        a.call("f");
        a.hlt();
        a.label("f");
        a.ret();
        let p = a.assemble().unwrap();
        let mut st = InitState::new();
        let eff = execute(&mut st.table, &mut st.state, &p, 0x1000).unwrap();
        let Next::Jump(f) = eff.next else { panic!() };
        let eff = execute(&mut st.table, &mut st.state, &p, f).unwrap();
        assert_eq!(eff.next, Next::Jump(0x1005), "returns after the call");
    }

    #[test]
    fn setcc_on_unknown_condition_yields_both() {
        let mut init = InitState::new();
        init.set_reg(Reg::Eax, ValueSet::from_constants([3, 5], 32));
        init.set_reg(Reg::Ecx, ValueSet::constant(0, 32));
        let (_, st) = exec_one(
            |a| {
                a.cmp(Reg::Eax, 5u32);
            },
            &mut init,
        );
        let mut st = st;
        let mut a = Asm::new(0x2000);
        a.setcc(Cond::E, leakaudit_x86::Reg8::Cl);
        a.hlt();
        let p = a.assemble().unwrap();
        execute(&mut st.table, &mut st.state, &p, 0x2000).unwrap();
        assert_eq!(
            *st.state.reg(Reg::Ecx),
            ValueSet::from_constants([0, 1], 32)
        );
    }

    #[test]
    fn lea_performs_no_data_access() {
        let mut init = InitState::new();
        init.set_reg(Reg::Ebx, ValueSet::constant(0x4000, 32));
        let (eff, st) = exec_one(
            |a| {
                a.lea(Reg::Eax, leakaudit_x86::Mem::base_disp(Reg::Ebx, 0x20));
            },
            &mut init,
        );
        assert!(eff.data_accesses.is_empty());
        assert_eq!(st.state.reg(Reg::Eax).as_constant(), Some(0x4020));
    }
}
