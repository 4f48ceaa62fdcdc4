//! Abstract Boolean and arithmetic operations on masked symbols
//! (paper §5.4), plus flag derivation (§5.4.3).
//!
//! # Implementation strategy
//!
//! The paper specifies each operation (`AND`, `OR`, `XOR`, `ADD`, `SUB`) by a
//! case analysis on masks plus side conditions under which the operand's
//! symbol may be preserved. We implement all of them with a single
//! *three-valued bit algebra*: every bit of an operand is either a known
//! constant or "bit `i` of symbol `s`" ([`BitVal::Pos`]); operations combine
//! bits with sound simplification rules (`x ∧ ¬x = 0`, `x ⊕ x = 0`, …) and
//! carry/borrow chains run over the same algebra.
//!
//! A result bit that is a constant becomes a known mask bit. A result bit
//! equal to *bit `i` of symbol `s`, sitting at position `i`*, can be
//! represented by keeping symbol `s` with a `⊤` mask bit. Any other bit
//! forces a fresh symbol (paper: "the symbol is only preserved when we can
//! guarantee that the operation acts neutral on all symbolic bits"). The
//! paper's preservation side conditions fall out as special cases, and the
//! fresh-symbol fallback keeps the operation sound by the argument of
//! Lemma 1: the valuation of the fresh symbol can always be chosen to make
//! the concretization match.
//!
//! The bit algebra is the specification and the general path. The shapes
//! the interpreter meets most — constant folding and adding a constant to
//! a pointer whose carries stay out of its symbolic bits — are computed
//! with `u64` word operations instead, in the manner of tristate-number
//! arithmetic (known bits plus values, carries from `r ^ a ^ b`); the
//! tests check them against the bit algebra.

use crate::mask::{Mask, MaskBit};
use crate::msym::MaskedSymbol;
use crate::sym::{SymId, SymbolTable};

/// A three-valued Boolean: definitely false, definitely true, or unknown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AbstractBool {
    /// Definitely `false` under every valuation.
    False,
    /// Definitely `true` under every valuation.
    True,
    /// Undetermined.
    Top,
}

impl crate::fingerprint::CacheKeyed for AbstractBool {
    fn key_into(&self, h: &mut crate::fingerprint::FingerprintHasher) {
        h.write_u8(match self {
            AbstractBool::False => 0,
            AbstractBool::True => 1,
            AbstractBool::Top => 2,
        });
    }
}

impl AbstractBool {
    /// Lifts a concrete Boolean.
    pub fn from_bool(b: bool) -> Self {
        if b {
            AbstractBool::True
        } else {
            AbstractBool::False
        }
    }

    /// The concrete value, if determined.
    pub fn as_bool(self) -> Option<bool> {
        match self {
            AbstractBool::False => Some(false),
            AbstractBool::True => Some(true),
            AbstractBool::Top => None,
        }
    }

    /// Least upper bound.
    pub fn join(self, other: AbstractBool) -> AbstractBool {
        if self == other {
            self
        } else {
            AbstractBool::Top
        }
    }

    /// Logical negation (`⊤` stays `⊤`).
    #[allow(clippy::should_implement_trait)] // used as a plain fn value (`B::not`)
    pub fn not(self) -> AbstractBool {
        match self {
            AbstractBool::False => AbstractBool::True,
            AbstractBool::True => AbstractBool::False,
            AbstractBool::Top => AbstractBool::Top,
        }
    }
}

/// Abstract CPU flag outcomes of an operation (§5.4.3).
///
/// Flags we cannot determine are `Top`; branch resolution on a `Top` flag
/// forks the analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AbstractFlags {
    /// Zero flag.
    pub zf: AbstractBool,
    /// Carry flag.
    pub cf: AbstractBool,
    /// Sign flag.
    pub sf: AbstractBool,
    /// Overflow flag.
    pub of: AbstractBool,
}

impl AbstractFlags {
    /// All flags unknown.
    pub fn top() -> Self {
        AbstractFlags {
            zf: AbstractBool::Top,
            cf: AbstractBool::Top,
            sf: AbstractBool::Top,
            of: AbstractBool::Top,
        }
    }

    /// Pointwise join.
    pub fn join(self, other: AbstractFlags) -> AbstractFlags {
        AbstractFlags {
            zf: self.zf.join(other.zf),
            cf: self.cf.join(other.cf),
            sf: self.sf.join(other.sf),
            of: self.of.join(other.of),
        }
    }
}

/// The binary operations of paper §5.4.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Bitwise conjunction.
    And,
    /// Bitwise disjunction.
    Or,
    /// Bitwise exclusive or.
    Xor,
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
}

impl BinOp {
    /// Lowercase mnemonic, used in fresh-symbol provenance.
    pub fn name(self) -> &'static str {
        match self {
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Add => "add",
            BinOp::Sub => "sub",
        }
    }

    /// Applies the operation to concrete words at the given width.
    pub fn eval_concrete(self, a: u64, b: u64, width: u8) -> u64 {
        let m = Mask::top(width).width_mask();
        (match self {
            BinOp::And => a & b,
            BinOp::Or => a | b,
            BinOp::Xor => a ^ b,
            BinOp::Add => a.wrapping_add(b),
            BinOp::Sub => a.wrapping_sub(b),
        }) & m
    }
}

/// Result of an abstract operation: the value plus flag outcomes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpResult {
    /// Abstract result value.
    pub value: MaskedSymbol,
    /// Abstract flag outcomes.
    pub flags: AbstractFlags,
}

/// One bit during abstract evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BitVal {
    /// A known constant bit.
    Const(bool),
    /// Bit `i` of symbol `s`.
    Pos(SymId, u8),
    /// Complement of bit `i` of symbol `s`.
    Neg(SymId, u8),
    /// Unknown.
    Top,
}

impl BitVal {
    fn not(self) -> BitVal {
        match self {
            BitVal::Const(b) => BitVal::Const(!b),
            BitVal::Pos(s, i) => BitVal::Neg(s, i),
            BitVal::Neg(s, i) => BitVal::Pos(s, i),
            BitVal::Top => BitVal::Top,
        }
    }

    /// `true` iff equality of two copies of this value implies equality of
    /// the bits they denote (two `Top`s are *distinct* unknowns).
    fn is_tracked(self) -> bool {
        !matches!(self, BitVal::Top)
    }

    fn and(self, other: BitVal) -> BitVal {
        use BitVal::*;
        match (self, other) {
            (Const(false), _) | (_, Const(false)) => Const(false),
            (Const(true), x) | (x, Const(true)) => x,
            (a, b) if a == b && a.is_tracked() => a,
            (a, b) if a == b.not() && a.is_tracked() => Const(false),
            _ => Top,
        }
    }

    fn or(self, other: BitVal) -> BitVal {
        self.not().and(other.not()).not()
    }

    fn xor(self, other: BitVal) -> BitVal {
        use BitVal::*;
        match (self, other) {
            (Const(false), x) | (x, Const(false)) => x,
            (Const(true), x) | (x, Const(true)) => x.not(),
            (a, b) if a == b && a.is_tracked() => Const(false),
            (a, b) if a == b.not() && a.is_tracked() => Const(true),
            _ => Top,
        }
    }

    /// Majority of three bits (carry/borrow propagation).
    fn maj(a: BitVal, b: BitVal, c: BitVal) -> BitVal {
        a.and(b).or(a.and(c)).or(b.and(c))
    }

    fn to_abstract_bool(self) -> AbstractBool {
        match self {
            BitVal::Const(b) => AbstractBool::from_bool(b),
            _ => AbstractBool::Top,
        }
    }
}

/// Reads bit `i` of a masked symbol as a [`BitVal`].
fn bit_of(x: &MaskedSymbol, i: u8) -> BitVal {
    match x.mask().bit(i) {
        MaskBit::Zero => BitVal::Const(false),
        MaskBit::One => BitVal::Const(true),
        MaskBit::Top => BitVal::Pos(x.sym(), i),
    }
}

/// Builds the result masked symbol from evaluated bits, allocating a fresh
/// symbol if any symbolic bit cannot be tied to one operand symbol at its
/// own position.
fn build_result(table: &mut SymbolTable, op: BinOp, bits: &[BitVal], width: u8) -> MaskedSymbol {
    let mut mask = Mask::top(width);
    let mut keep: Option<SymId> = None;
    let mut must_fresh = false;
    for (i, &b) in bits.iter().enumerate() {
        match b {
            BitVal::Const(v) => mask = mask.with_bit(i as u8, MaskBit::from_bool(v)),
            BitVal::Pos(s, j) if j == i as u8 => match keep {
                None => keep = Some(s),
                Some(k) if k == s => {}
                Some(_) => must_fresh = true,
            },
            _ => must_fresh = true,
        }
    }
    if mask.is_fully_known() {
        return MaskedSymbol::new(SymId::CONST, mask);
    }
    let sym = match keep {
        Some(k) if !must_fresh => k,
        _ => table.fresh_derived(op.name()),
    };
    MaskedSymbol::new(sym, mask)
}

/// ZF from the result bits: definitely nonzero if any bit is known one,
/// definitely zero if all bits are known zero.
fn zf_of(bits: &[BitVal]) -> AbstractBool {
    let mut all_zero = true;
    for &b in bits {
        match b {
            BitVal::Const(true) => return AbstractBool::False,
            BitVal::Const(false) => {}
            _ => all_zero = false,
        }
    }
    if all_zero {
        AbstractBool::True
    } else {
        AbstractBool::Top
    }
}

/// Applies an abstract binary operation (paper §5.4.1), including the
/// origin/offset bookkeeping of §5.4.2 and flag derivation of §5.4.3.
///
/// Before the general per-bit algebra, in order:
///
/// * two constants fold concretely ([`BinOp::eval_concrete`] with exact
///   x86 flags, as the bit algebra would derive them);
/// * `SUB` of two values with a common origin is their offset distance
///   (§5.4.2; the bit algebra alone cannot see this);
/// * `ADD`/`SUB` of a constant to a symbolic value runs in `u64` words
///   and returns exactly what the bit algebra would, whenever the carry
///   chain leaves the symbolic bits in one of the two shapes described at
///   [`add_constant`] — pointer increments in loop bodies are this shape.
///
/// Everything else (symbolic × symbolic, `AND`/`OR`/`XOR` with a
/// symbolic operand, a carry into a symbolic bit below a known one) runs
/// the per-bit [`BitVal`] loop of [`apply_bits`].
///
/// # Panics
///
/// Panics if the operands have different widths.
///
/// # Examples
///
/// Paper Ex. 5/6 — the `align` idiom of scatter/gather:
///
/// ```
/// use leakaudit_core::{apply, BinOp, MaskedSymbol, SymbolTable};
///
/// let mut t = SymbolTable::new();
/// let s = t.fresh("buf");
/// let buf = MaskedSymbol::symbol(s, 32);
///
/// // AND 0xFFFFFFC0, EAX — clears the 6 low bits, KEEPS the symbol.
/// let anded = apply(&mut t, BinOp::And, &buf, &MaskedSymbol::constant(0xffff_ffc0, 32));
/// assert_eq!(anded.value.sym(), s);
/// assert_eq!(anded.value.mask().to_string(), "⊤{26}000000");
///
/// // ADD 0x40, EAX — affects the unknown bits: fresh symbol, same mask.
/// let added = apply(&mut t, BinOp::Add, &anded.value, &MaskedSymbol::constant(0x40, 32));
/// assert_ne!(added.value.sym(), s);
/// assert_eq!(added.value.mask().to_string(), "⊤{26}000000");
/// ```
pub fn apply(table: &mut SymbolTable, op: BinOp, x: &MaskedSymbol, y: &MaskedSymbol) -> OpResult {
    assert_eq!(x.width(), y.width(), "operand widths must match");
    if let (Some(a), Some(b)) = (x.as_constant(), y.as_constant()) {
        return apply_concrete(op, a, b, x.width());
    }
    if let Some(r) = common_origin_sub(table, op, x, y) {
        return r;
    }
    if let Some(r) = add_constant(table, op, x, y) {
        return r;
    }
    apply_bits(table, op, x, y)
}

/// §5.4.2 applied to `SUB`: operands with a common origin subtract to the
/// concrete offset difference. `None` when the rule does not apply.
fn common_origin_sub(
    table: &SymbolTable,
    op: BinOp,
    x: &MaskedSymbol,
    y: &MaskedSymbol,
) -> Option<OpResult> {
    if op != BinOp::Sub || (x.is_constant() && y.is_constant()) {
        return None;
    }
    let width = x.width();
    let delta = table.offset_between(x, y, width)?;
    Some(OpResult {
        value: MaskedSymbol::constant(delta, width),
        flags: AbstractFlags {
            zf: AbstractBool::from_bool(delta == 0),
            sf: AbstractBool::from_bool(delta >> (width - 1) & 1 == 1),
            // Borrow depends on where the unknown base wraps.
            cf: AbstractBool::Top,
            of: AbstractBool::Top,
        },
    })
}

/// The symbolic base and the constant `c` of an `ADD`/`SUB` with one
/// constant operand, plus the offset `delta` it adds to the base (`c - x`
/// has none: it negates `x`).
fn constant_operand<'a>(
    op: BinOp,
    x: &'a MaskedSymbol,
    y: &'a MaskedSymbol,
) -> Option<(&'a MaskedSymbol, u64, u64)> {
    let (base, c) = match (op, x.as_constant(), y.as_constant()) {
        (BinOp::Add | BinOp::Sub, None, Some(c)) => (x, c),
        (BinOp::Add, Some(c), None) => (y, c),
        _ => return None,
    };
    let delta = match op {
        BinOp::Sub => c.wrapping_neg() & base.mask().width_mask(),
        _ => c,
    };
    Some((base, c, delta))
}

/// Offset tracking (§5.4.2) for `base + delta`: derivations of one
/// (origin, offset) are memoized so they yield the same masked symbol,
/// enabling pointer-equality reasoning (Ex. 7/8). A `succ` memo hit is
/// returned without calling `make`, so it costs no fresh symbol; a miss
/// records `make`'s value against the base's origin.
fn offset_step(
    table: &mut SymbolTable,
    base: &MaskedSymbol,
    delta: u64,
    make: impl FnOnce(&mut SymbolTable) -> MaskedSymbol,
) -> MaskedSymbol {
    let (origin, off) = table.origin_of(base);
    let new_off = off.wrapping_add(delta) & base.mask().width_mask();
    if let Some(existing) = table.successor(&origin, new_off) {
        return existing;
    }
    let v = make(table);
    if !v.is_constant() {
        table.record_offset(v, origin, new_off);
    }
    v
}

/// `ADD`/`SUB` of a constant `c` to a symbolic base `(s, m)`, in words.
///
/// The word sum `r = v ± c` (unknown bits of `v` read as 0) tracks the
/// per-bit algebra exactly up to the first symbolic bit `k` where the
/// constant bit and the incoming carry differ — there `r` has a 1, and the
/// algebra turns the bit into `¬s_k` with a symbolic carry. Below `k` every
/// carry is a known constant and every symbolic bit passes through as
/// itself. So:
///
/// * no such `k` (`r` is 0 on every symbolic bit): the result keeps `s`,
///   its known bits are `r` on `m`'s known positions, and CF/OF/SF/ZF
///   follow from `r` and the carry vector `r ^ v ^ c`;
/// * every bit from `k` up is symbolic: those bits all come out
///   undetermined, so the result is a fresh symbol knowing only the bits
///   below `k`, with CF/OF/SF undetermined (a value with no known bits at
///   all is this case);
/// * otherwise a known bit above `k` may absorb the symbolic carry, and
///   only the per-bit algebra can tell: `None`.
///
/// The §5.4.2 offset tracking is the per-bit path's ([`offset_step`]).
fn add_constant(
    table: &mut SymbolTable,
    op: BinOp,
    x: &MaskedSymbol,
    y: &MaskedSymbol,
) -> Option<OpResult> {
    let (base, c, delta) = constant_operand(op, x, y)?;
    let width = base.width();
    let wrap = base.mask().width_mask();
    let msb = 1u64 << (width - 1);
    let (known, v) = (base.mask().known_bits(), base.mask().known_values());
    let (r, carry_out) = if op == BinOp::Add {
        let sum = u128::from(v) + u128::from(c);
        (sum as u64 & wrap, sum >> width & 1 == 1)
    } else {
        (v.wrapping_sub(c) & wrap, v < c)
    };
    let clash = r & !known;
    if clash != 0 && known >> clash.trailing_zeros() != 0 {
        return None;
    }
    let value = offset_step(table, base, delta, |t| {
        let sym = if clash == 0 {
            base.sym()
        } else {
            t.fresh_derived(op.name())
        };
        MaskedSymbol::new(sym, Mask::from_words(width, known, r))
    });

    // The result always has a symbolic bit, so ZF is never `True` from
    // the bits alone. The §5.4.3 value comparison of `SUB` cannot decide
    // it either: against a constant it only decides operands with a
    // common origin, which the common-origin rule has already answered.
    let zf = if r & known != 0 {
        AbstractBool::False
    } else {
        AbstractBool::Top
    };
    let sf = if known & msb != 0 {
        AbstractBool::from_bool(r & msb != 0)
    } else {
        AbstractBool::Top
    };
    let (cf, of) = if clash == 0 {
        let carry_in_msb = (r ^ v ^ c) & msb != 0;
        (
            AbstractBool::from_bool(carry_out),
            AbstractBool::from_bool(carry_in_msb != carry_out),
        )
    } else {
        (AbstractBool::Top, AbstractBool::Top)
    };
    Some(OpResult {
        value,
        flags: AbstractFlags { zf, cf, sf, of },
    })
}

/// The general path of [`apply`]: the per-bit [`BitVal`] algebra with the
/// §5.4.2 offset tracking and the §5.4.3 flag rules. The constant fold and
/// [`add_constant`] in [`apply`] return what this function would.
fn apply_bits(table: &mut SymbolTable, op: BinOp, x: &MaskedSymbol, y: &MaskedSymbol) -> OpResult {
    let width = x.width();
    // Bit evaluation into a stack buffer: no heap allocation per call.
    let mut bits_buf = [BitVal::Const(false); 64];
    let bits = &mut bits_buf[..width as usize];
    let (mut carry_in_msb, mut carry_out) = (BitVal::Const(false), BitVal::Const(false));
    match op {
        BinOp::And | BinOp::Or | BinOp::Xor => {
            for i in 0..width {
                let (a, b) = (bit_of(x, i), bit_of(y, i));
                bits[i as usize] = match op {
                    BinOp::And => a.and(b),
                    BinOp::Or => a.or(b),
                    BinOp::Xor => a.xor(b),
                    _ => unreachable!(),
                };
            }
        }
        BinOp::Add => {
            let mut carry = BitVal::Const(false);
            for i in 0..width {
                let (a, b) = (bit_of(x, i), bit_of(y, i));
                if i == width - 1 {
                    carry_in_msb = carry;
                }
                bits[i as usize] = a.xor(b).xor(carry);
                carry = BitVal::maj(a, b, carry);
            }
            carry_out = carry;
        }
        BinOp::Sub => {
            let mut borrow = BitVal::Const(false);
            for i in 0..width {
                let (a, b) = (bit_of(x, i), bit_of(y, i));
                if i == width - 1 {
                    carry_in_msb = borrow;
                }
                bits[i as usize] = a.xor(b).xor(borrow);
                borrow = BitVal::maj(a.not(), b, borrow);
            }
            carry_out = borrow;
        }
    }

    let value = match constant_operand(op, x, y) {
        Some((base, _, delta)) => {
            offset_step(table, base, delta, |t| build_result(t, op, bits, width))
        }
        None => build_result(table, op, bits, width),
    };

    let zf = match op {
        // §5.4.3: CMP/SUB may resolve ZF through value comparison even when
        // the result bits do not.
        BinOp::Sub => match table.compare_values(x, y) {
            Some(eq) => AbstractBool::from_bool(eq),
            None => zf_of(bits),
        },
        _ => zf_of(bits),
    };
    let sf = bits
        .last()
        .copied()
        .unwrap_or(BitVal::Const(false))
        .to_abstract_bool();
    let (cf, of) = match op {
        // x86 defines CF = OF = 0 for logical operations.
        BinOp::And | BinOp::Or | BinOp::Xor => (AbstractBool::False, AbstractBool::False),
        BinOp::Add | BinOp::Sub => (
            carry_out.to_abstract_bool(),
            carry_in_msb.xor(carry_out).to_abstract_bool(),
        ),
    };

    OpResult {
        value,
        flags: AbstractFlags { zf, cf, sf, of },
    }
}

/// Concrete evaluation of a binary operation with x86 flag semantics
/// (the constant × constant case of [`apply`]).
fn apply_concrete(op: BinOp, a: u64, b: u64, width: u8) -> OpResult {
    let (r, flags) = eval_with_flags(op, a, b, width);
    OpResult {
        value: MaskedSymbol::constant(r, width),
        flags,
    }
}

/// `op` on concrete words at `width`, with its exact x86 flags.
pub(crate) fn eval_with_flags(op: BinOp, a: u64, b: u64, width: u8) -> (u64, AbstractFlags) {
    let wrap = Mask::top(width).width_mask();
    let r = op.eval_concrete(a, b, width);
    let msb = |v: u64| v >> (width - 1) & 1 == 1;
    let (cf, of) = match op {
        // x86 defines CF = OF = 0 for logical operations.
        BinOp::And | BinOp::Or | BinOp::Xor => (false, false),
        BinOp::Add => (
            (u128::from(a) + u128::from(b)) >> width & 1 == 1,
            msb((a ^ r) & (b ^ r) & wrap),
        ),
        BinOp::Sub => (a < b, msb((a ^ b) & (a ^ r) & wrap)),
    };
    let flags = AbstractFlags {
        zf: AbstractBool::from_bool(r == 0),
        cf: AbstractBool::from_bool(cf),
        sf: AbstractBool::from_bool(msb(r)),
        of: AbstractBool::from_bool(of),
    };
    (r, flags)
}

/// Abstract bitwise complement (`NOT` = `XOR` with all ones).
pub fn not(table: &mut SymbolTable, x: &MaskedSymbol) -> MaskedSymbol {
    let all = Mask::top(x.width()).width_mask();
    apply(
        table,
        BinOp::Xor,
        x,
        &MaskedSymbol::constant(all, x.width()),
    )
    .value
}

/// Abstract negation (`NEG` = `0 - x`).
pub fn neg(table: &mut SymbolTable, x: &MaskedSymbol) -> OpResult {
    apply(table, BinOp::Sub, &MaskedSymbol::constant(0, x.width()), x)
}

/// Abstract left shift by a known amount. Shifted symbolic bits leave their
/// positions, so a fresh symbol is allocated unless the result is constant.
pub fn shl(table: &mut SymbolTable, x: &MaskedSymbol, amount: u32) -> OpResult {
    let width = x.width();
    let wrap = Mask::top(width).width_mask();
    if amount as usize >= width as usize {
        return OpResult {
            value: MaskedSymbol::constant(0, width),
            flags: AbstractFlags::top(),
        };
    }
    let known = ((x.mask().known_bits() << amount) | ((1u64 << amount) - 1)) & wrap;
    let value = (x.mask().known_values() << amount) & wrap;
    let result = rebuild_shifted(table, x, known, value, "shl");
    let cf = if amount == 0 {
        AbstractBool::Top
    } else {
        match x.mask().bit(width - amount as u8) {
            MaskBit::Zero => AbstractBool::False,
            MaskBit::One => AbstractBool::True,
            MaskBit::Top => AbstractBool::Top,
        }
    };
    OpResult {
        value: result,
        flags: AbstractFlags {
            zf: zf_from_mask(&result),
            cf,
            sf: sf_from_mask(&result),
            of: AbstractBool::Top,
        },
    }
}

/// Abstract logical right shift by a known amount.
pub fn shr(table: &mut SymbolTable, x: &MaskedSymbol, amount: u32) -> OpResult {
    let width = x.width();
    let wrap = Mask::top(width).width_mask();
    if amount as usize >= width as usize {
        return OpResult {
            value: MaskedSymbol::constant(0, width),
            flags: AbstractFlags::top(),
        };
    }
    let high_fill = !(wrap >> amount) & wrap;
    let known = ((x.mask().known_bits() >> amount) | high_fill) & wrap;
    let value = (x.mask().known_values() >> amount) & wrap;
    let result = rebuild_shifted(table, x, known, value, "shr");
    OpResult {
        value: result,
        flags: AbstractFlags {
            zf: zf_from_mask(&result),
            cf: match amount {
                0 => AbstractBool::Top,
                a => match x.mask().bit((a - 1) as u8) {
                    MaskBit::Zero => AbstractBool::False,
                    MaskBit::One => AbstractBool::True,
                    MaskBit::Top => AbstractBool::Top,
                },
            },
            sf: sf_from_mask(&result),
            of: AbstractBool::Top,
        },
    }
}

/// Abstract multiplication, truncated to the operand width.
///
/// Precise only when both operands are constants or one is a constant power
/// of two (reduced to [`shl`]); otherwise a fresh symbol.
pub fn mul(table: &mut SymbolTable, x: &MaskedSymbol, y: &MaskedSymbol) -> OpResult {
    assert_eq!(x.width(), y.width(), "operand widths must match");
    let width = x.width();
    let wrap = Mask::top(width).width_mask();
    match (x.as_constant(), y.as_constant()) {
        (Some(a), Some(b)) => OpResult {
            value: MaskedSymbol::constant(a.wrapping_mul(b) & wrap, width),
            flags: AbstractFlags::top(),
        },
        (Some(c), None) | (None, Some(c)) if c.is_power_of_two() => {
            let other = if x.is_constant() { y } else { x };
            shl(table, other, c.trailing_zeros())
        }
        _ => OpResult {
            value: MaskedSymbol::symbol(table.fresh_derived("mul"), width),
            flags: AbstractFlags::top(),
        },
    }
}

fn rebuild_shifted(
    table: &mut SymbolTable,
    x: &MaskedSymbol,
    known: u64,
    value: u64,
    op: &'static str,
) -> MaskedSymbol {
    let mask = Mask::from_words(x.width(), known, value);
    if mask.is_fully_known() {
        MaskedSymbol::new(SymId::CONST, mask)
    } else {
        MaskedSymbol::new(table.fresh_derived(op), mask)
    }
}

fn zf_from_mask(m: &MaskedSymbol) -> AbstractBool {
    if m.mask().known_values() != 0 {
        AbstractBool::False
    } else if m.is_constant() {
        AbstractBool::True
    } else {
        AbstractBool::Top
    }
}

fn sf_from_mask(m: &MaskedSymbol) -> AbstractBool {
    match m.mask().bit(m.width() - 1) {
        MaskBit::Zero => AbstractBool::False,
        MaskBit::One => AbstractBool::True,
        MaskBit::Top => AbstractBool::Top,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (SymbolTable, SymId, MaskedSymbol) {
        let mut t = SymbolTable::new();
        let s = t.fresh("buf");
        let m = MaskedSymbol::symbol(s, 32);
        (t, s, m)
    }

    #[test]
    fn and_with_low_mask_keeps_symbol_low_bits() {
        // buf & (block_size - 1): upper bits absorbed to 0, low bits stay
        // the symbol's own bits.
        let (mut t, s, buf) = setup();
        let r = apply(&mut t, BinOp::And, &buf, &MaskedSymbol::constant(0x3f, 32)).value;
        assert_eq!(r.sym(), s, "low bits are still buf's bits");
        assert_eq!(r.mask().to_string(), format!("{}⊤{{6}}", "0".repeat(26)));
    }

    #[test]
    fn align_sequence_example_2_and_6() {
        // align(buf) = buf - (buf & 63) + 64 (paper Fig. 3 line 2 / Ex. 5-6).
        let (mut t, s, buf) = setup();
        let low = apply(&mut t, BinOp::And, &buf, &MaskedSymbol::constant(63, 32)).value;
        let cleared = apply(&mut t, BinOp::Sub, &buf, &low).value;
        // Same-symbol subtraction zeroes the common symbolic low bits and
        // keeps the symbol (paper §2 walk-through).
        assert_eq!(cleared.sym(), s);
        assert_eq!(cleared.mask().to_string(), "⊤{26}000000");
        let bumped = apply(
            &mut t,
            BinOp::Add,
            &cleared,
            &MaskedSymbol::constant(64, 32),
        )
        .value;
        assert_ne!(
            bumped.sym(),
            s,
            "ADD 0x40 affects unknown bits: fresh symbol"
        );
        assert_eq!(bumped.mask().to_string(), "⊤{26}000000");
        // Adding 0x3F to the aligned pointer keeps the symbol: same line.
        let same_line = apply(
            &mut t,
            BinOp::Add,
            &cleared,
            &MaskedSymbol::constant(0x3f, 32),
        )
        .value;
        assert_eq!(same_line.sym(), s);
        assert_eq!(same_line.mask().to_string(), "⊤{26}111111");
    }

    #[test]
    fn xor_same_symbol_is_zero() {
        let (mut t, _s, buf) = setup();
        let r = apply(&mut t, BinOp::Xor, &buf, &buf);
        assert_eq!(r.value, MaskedSymbol::constant(0, 32));
        assert_eq!(r.flags.zf, AbstractBool::True);
        assert_eq!(r.flags.cf, AbstractBool::False);
    }

    #[test]
    fn xor_with_zero_keeps_symbol() {
        let (mut t, s, buf) = setup();
        let r = apply(&mut t, BinOp::Xor, &buf, &MaskedSymbol::constant(0, 32)).value;
        assert_eq!(r, MaskedSymbol::symbol(s, 32));
    }

    #[test]
    fn xor_with_ones_is_fresh() {
        let (mut t, s, buf) = setup();
        let r = not(&mut t, &buf);
        assert_ne!(r.sym(), s);
        assert!(r.mask().is_fully_unknown());
    }

    #[test]
    fn or_with_neutral_and_absorbing_constants() {
        let (mut t, s, buf) = setup();
        let aligned = apply(
            &mut t,
            BinOp::And,
            &buf,
            &MaskedSymbol::constant(!0x3fu64 & 0xffff_ffff, 32),
        )
        .value;
        assert_eq!(aligned.sym(), s);
        // OR with a constant inside the known-zero region keeps the symbol.
        let offset = apply(
            &mut t,
            BinOp::Or,
            &aligned,
            &MaskedSymbol::constant(0x15, 32),
        )
        .value;
        assert_eq!(offset.sym(), s);
        assert_eq!(offset.mask().to_string(), "⊤{26}010101");
        // OR with ones over symbolic bits absorbs them.
        let all = apply(
            &mut t,
            BinOp::Or,
            &buf,
            &MaskedSymbol::constant(0xffff_ffff, 32),
        )
        .value;
        assert_eq!(all, MaskedSymbol::constant(0xffff_ffff, 32));
    }

    #[test]
    fn constants_fold_concretely() {
        let mut t = SymbolTable::new();
        for op in [BinOp::And, BinOp::Or, BinOp::Xor, BinOp::Add, BinOp::Sub] {
            let r = apply(
                &mut t,
                op,
                &MaskedSymbol::constant(0xdead_beef, 32),
                &MaskedSymbol::constant(0x1234_5678, 32),
            );
            assert_eq!(
                r.value.as_constant(),
                Some(op.eval_concrete(0xdead_beef, 0x1234_5678, 32)),
                "{op:?}"
            );
        }
    }

    #[test]
    fn add_carry_stops_at_symbolic_region() {
        // (s, ⊤...⊤0011) + 1 = (s, ⊤...⊤0100): carries stay below the
        // symbolic bits, symbol kept.
        let (mut t, s, buf) = setup();
        let low = apply(
            &mut t,
            BinOp::And,
            &buf,
            &MaskedSymbol::constant(!0xfu64 & 0xffff_ffff, 32),
        )
        .value;
        let three = apply(&mut t, BinOp::Add, &low, &MaskedSymbol::constant(3, 32)).value;
        assert_eq!(three.sym(), s);
        let four = apply(&mut t, BinOp::Add, &three, &MaskedSymbol::constant(1, 32)).value;
        assert_eq!(four.sym(), s);
        assert_eq!(four.mask().to_string(), "⊤{28}0100");
    }

    #[test]
    fn add_carry_into_symbolic_region_is_fresh() {
        let (mut t, s, buf) = setup();
        let low = apply(
            &mut t,
            BinOp::And,
            &buf,
            &MaskedSymbol::constant(!0x3u64 & 0xffff_ffff, 32),
        )
        .value;
        // low ends in 00; adding 7 = carry into bit 2 region? 00 + 11 = 11
        // no carry; adding 4 sets bit 2 which is symbolic -> fresh.
        let r = apply(&mut t, BinOp::Add, &low, &MaskedSymbol::constant(4, 32)).value;
        assert_ne!(r.sym(), s);
        assert_eq!(r.mask().to_string(), "⊤{30}00");
    }

    #[test]
    fn offsets_memoize_and_reuse() {
        let (mut t, _s, buf) = setup();
        let a = apply(&mut t, BinOp::Add, &buf, &MaskedSymbol::constant(8, 32)).value;
        let b = apply(&mut t, BinOp::Add, &buf, &MaskedSymbol::constant(8, 32)).value;
        assert_eq!(a, b, "succ memo must return the identical masked symbol");
        let c = apply(&mut t, BinOp::Add, &a, &MaskedSymbol::constant(4, 32)).value;
        let d = apply(&mut t, BinOp::Add, &buf, &MaskedSymbol::constant(12, 32)).value;
        assert_eq!(c, d, "offsets accumulate through chains");
    }

    #[test]
    fn sub_of_common_origin_is_concrete_distance() {
        let (mut t, _s, buf) = setup();
        let x = apply(&mut t, BinOp::Add, &buf, &MaskedSymbol::constant(8, 32)).value;
        let y = apply(&mut t, BinOp::Add, &buf, &MaskedSymbol::constant(20, 32)).value;
        let d = apply(&mut t, BinOp::Sub, &y, &x);
        assert_eq!(d.value, MaskedSymbol::constant(12, 32));
        assert_eq!(d.flags.zf, AbstractBool::False);
    }

    #[test]
    fn cmp_zero_flag_example_8() {
        // Loop guard: x and y derived from r; ZF resolves via offsets.
        let (mut t, _s, r) = setup();
        let y = apply(&mut t, BinOp::Add, &r, &MaskedSymbol::constant(16, 32)).value;
        let mut x = r;
        for _ in 0..3 {
            // CMP x, y with different offsets: ZF = 0 (loop continues).
            let cmp = apply(&mut t, BinOp::Sub, &x, &y);
            assert_eq!(cmp.flags.zf, AbstractBool::False);
            x = apply(&mut t, BinOp::Add, &x, &MaskedSymbol::constant(4, 32)).value;
        }
        let cmp = apply(&mut t, BinOp::Sub, &x, &y);
        // Wait: x advanced 3 times by 4 = offset 12, y = 16: still not equal.
        assert_eq!(cmp.flags.zf, AbstractBool::False);
        x = apply(&mut t, BinOp::Add, &x, &MaskedSymbol::constant(4, 32)).value;
        let cmp = apply(&mut t, BinOp::Sub, &x, &y);
        assert_eq!(cmp.flags.zf, AbstractBool::True, "x reached y: loop exits");
    }

    #[test]
    fn unrelated_symbols_give_top_flags() {
        let mut t = SymbolTable::new();
        let a = MaskedSymbol::symbol(t.fresh("a"), 32);
        let b = MaskedSymbol::symbol(t.fresh("b"), 32);
        let r = apply(&mut t, BinOp::Sub, &a, &b);
        assert_eq!(r.flags.zf, AbstractBool::Top);
        assert_eq!(r.flags.cf, AbstractBool::Top);
    }

    #[test]
    fn logical_ops_clear_cf_and_of() {
        let (mut t, _s, buf) = setup();
        let r = apply(&mut t, BinOp::And, &buf, &buf);
        assert_eq!(r.flags.cf, AbstractBool::False);
        assert_eq!(r.flags.of, AbstractBool::False);
        assert_eq!(r.value, buf, "x & x = x");
    }

    #[test]
    fn test_instruction_zf_rule() {
        // TEST eax, eax with eax = {1}: ZF known false.
        let mut t = SymbolTable::new();
        let one = MaskedSymbol::constant(1, 32);
        let r = apply(&mut t, BinOp::And, &one, &one);
        assert_eq!(r.flags.zf, AbstractBool::False);
        let zero = MaskedSymbol::constant(0, 32);
        let r = apply(&mut t, BinOp::And, &zero, &zero);
        assert_eq!(r.flags.zf, AbstractBool::True);
    }

    #[test]
    fn shifts_on_constants_and_symbols() {
        let mut t = SymbolTable::new();
        let c = MaskedSymbol::constant(0b1010, 32);
        assert_eq!(shl(&mut t, &c, 2).value.as_constant(), Some(0b101000));
        assert_eq!(shr(&mut t, &c, 1).value.as_constant(), Some(0b101));
        let s = MaskedSymbol::symbol(t.fresh("s"), 32);
        let r = shl(&mut t, &s, 4).value;
        assert_ne!(r.sym(), s.sym());
        assert_eq!(r.mask().known_bits() & 0xf, 0xf, "low bits known zero");
        assert_eq!(r.mask().known_values() & 0xf, 0);
    }

    #[test]
    fn shr_carry_flag_from_last_shifted_bit() {
        let mut t = SymbolTable::new();
        let c = MaskedSymbol::constant(0b110, 32);
        assert_eq!(shr(&mut t, &c, 1).flags.cf, AbstractBool::False);
        assert_eq!(shr(&mut t, &c, 2).flags.cf, AbstractBool::True);
    }

    #[test]
    fn mul_cases() {
        let mut t = SymbolTable::new();
        let a = MaskedSymbol::constant(7, 32);
        let b = MaskedSymbol::constant(6, 32);
        assert_eq!(mul(&mut t, &a, &b).value.as_constant(), Some(42));
        let s = MaskedSymbol::symbol(t.fresh("s"), 32);
        let by8 = mul(&mut t, &s, &MaskedSymbol::constant(8, 32)).value;
        assert_eq!(by8.mask().known_bits() & 0b111, 0b111, "×8 = shl 3");
        let opaque = mul(&mut t, &s, &MaskedSymbol::constant(6, 32)).value;
        assert!(opaque.mask().is_fully_unknown());
    }

    #[test]
    fn neg_of_constant() {
        let mut t = SymbolTable::new();
        let r = neg(&mut t, &MaskedSymbol::constant(1, 32));
        assert_eq!(r.value.as_constant(), Some(0xffff_ffff));
    }

    #[test]
    fn add_of_two_aligned_symbols_preserves_alignment() {
        // (s,⊤…⊤0000) + (t,⊤…⊤0000): symbolic sum but still 16-aligned.
        let mut t = SymbolTable::new();
        let mk = |t: &mut SymbolTable, n: &str| {
            let s = t.fresh(n);
            let m = MaskedSymbol::symbol(s, 32);
            apply(t, BinOp::And, &m, &MaskedSymbol::constant(0xffff_fff0, 32)).value
        };
        let a = mk(&mut t, "a");
        let b = mk(&mut t, "b");
        let r = apply(&mut t, BinOp::Add, &a, &b).value;
        assert_eq!(r.mask().known_bits() & 0xf, 0xf);
        assert_eq!(r.mask().known_values() & 0xf, 0);
        assert_ne!(r.sym(), a.sym());
        assert_ne!(r.sym(), b.sym());
    }

    /// The per-bit reference: [`apply`] without its word-level steps.
    fn reference(
        table: &mut SymbolTable,
        op: BinOp,
        x: &MaskedSymbol,
        y: &MaskedSymbol,
    ) -> OpResult {
        common_origin_sub(table, op, x, y).unwrap_or_else(|| apply_bits(table, op, x, y))
    }

    /// One generated operand: `(kind, pick, known, value)`.
    type RawOperand = (u8, usize, u64, u64);

    /// Builds an operand at `width` from a pool of symbolic values.
    fn operand(raw: RawOperand, width: u8, pool: &[MaskedSymbol]) -> MaskedSymbol {
        let (kind, pick, known, value) = raw;
        let base = pool[pick % pool.len()];
        match kind % 5 {
            0 => MaskedSymbol::constant(value, width),
            // Small constants: pointer steps, 0, the line size.
            1 => MaskedSymbol::constant(value % 130, width),
            // A random known mask over a symbol.
            2 => MaskedSymbol::new(base.sym(), Mask::from_words(width, known, value)),
            // A known low region, the aligned-pointer shape.
            3 => MaskedSymbol::new(
                base.sym(),
                Mask::top(width).with_low_bits_known((known % (u64::from(width) + 1)) as u8, value),
            ),
            // A pool value as is (origins and successors recorded).
            _ => base,
        }
    }

    use proptest::prelude::*;

    fn any_op() -> impl Strategy<Value = BinOp> {
        proptest::sample::select(vec![
            BinOp::And,
            BinOp::Or,
            BinOp::Xor,
            BinOp::Add,
            BinOp::Sub,
        ])
    }

    fn any_operand() -> impl Strategy<Value = RawOperand> {
        (0u8..5, 0usize..8, any::<u64>(), any::<u64>())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3000))]

        /// The word-level steps of `apply` return exactly what the per-bit
        /// algebra returns — value, flags, symbol allocation and the
        /// §5.4.2 records — for every op, width and operand order, on a
        /// table pre-seeded with offset chains.
        #[test]
        fn apply_matches_per_bit_reference(
            op in any_op(),
            width in 1u8..=64,
            xr in any_operand(),
            yr in any_operand(),
            seeds in proptest::collection::vec((0usize..8, 0u64..200, any::<bool>()), 0..6),
        ) {
            let mut table = SymbolTable::new();
            let mut pool = vec![
                MaskedSymbol::symbol(table.fresh("a"), width),
                MaskedSymbol::new(table.fresh("b"), Mask::top(width).with_low_bits_known(width.min(6), 0)),
            ];
            for (pick, c, sub) in seeds {
                let base = pool[pick % pool.len()];
                let step = if sub { BinOp::Sub } else { BinOp::Add };
                let r = reference(&mut table, step, &base, &MaskedSymbol::constant(c, width));
                pool.push(r.value);
            }
            let (x, y) = (operand(xr, width, &pool), operand(yr, width, &pool));
            for (x, y) in [(x, y), (y, x)] {
                let (mut fast, mut slow) = (table.clone(), table.clone());
                // Twice: the second call meets the first one's records.
                for _ in 0..2 {
                    let got = apply(&mut fast, op, &x, &y);
                    let want = reference(&mut slow, op, &x, &y);
                    prop_assert_eq!(got, want, "{:?} {} {}", op, x, y);
                    prop_assert_eq!(fast.len(), slow.len());
                    let origin = fast.origin_of(&got.value);
                    prop_assert_eq!(origin, slow.origin_of(&want.value));
                    prop_assert_eq!(
                        fast.successor(&origin.0, origin.1),
                        slow.successor(&origin.0, origin.1)
                    );
                }
            }
        }
    }

    #[test]
    fn word_step_keeps_symbol_below_the_symbolic_region() {
        // `inc` on a 64-byte-aligned pointer: the carry stops in the known
        // low bits, the symbol is kept, and every flag but ZF/SF is known.
        let (mut t, s, _) = setup();
        let aligned = MaskedSymbol::new(s, Mask::top(32).with_low_bits_known(6, 0));
        let r = apply(&mut t, BinOp::Add, &aligned, &MaskedSymbol::constant(1, 32));
        assert_eq!(r.value.sym(), s);
        assert_eq!(r.value.mask().to_string(), "⊤{26}000001");
        assert_eq!(r.flags.zf, AbstractBool::False);
        assert_eq!(r.flags.cf, AbstractBool::False);
        assert_eq!(r.flags.of, AbstractBool::False);
        assert_eq!(r.flags.sf, AbstractBool::Top);
        // A carry out of a symbolic region with only symbolic bits above:
        // fresh symbol, the low bits stay known.
        let len0 = t.len();
        let r = apply(
            &mut t,
            BinOp::Add,
            &aligned,
            &MaskedSymbol::constant(0x41, 32),
        );
        assert_ne!(r.value.sym(), s);
        assert_eq!(t.len(), len0 + 1);
        assert_eq!(r.value.mask().to_string(), "⊤{26}000001");
        assert_eq!(r.flags.cf, AbstractBool::Top);
    }

    #[test]
    fn abstract_bool_algebra() {
        use AbstractBool::*;
        assert_eq!(True.join(True), True);
        assert_eq!(True.join(False), Top);
        assert_eq!(Top.join(False), Top);
        assert_eq!(True.not(), False);
        assert_eq!(Top.not(), Top);
        assert_eq!(AbstractBool::from_bool(true).as_bool(), Some(true));
        assert_eq!(Top.as_bool(), None);
    }
}
