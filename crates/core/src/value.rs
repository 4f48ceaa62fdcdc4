//! The set-based value domain `M♯ = P(Sym × {0,1,⊤}^n)` (paper §5.1),
//! extended with a `Top` element for *unknown-high* data.
//!
//! Elements are finite sets of masked symbols. High (secret-dependent)
//! variables are represented by sets with several elements (paper Ex. 2);
//! low-but-unknown values by singleton symbol sets; known values by
//! singleton constants. `Top` represents data about which nothing is known
//! *and* which may depend on secrets — e.g. the bytes loaded from a
//! pre-computed table. Using `Top` as an address charges the adversary with
//! every observation the projection allows, keeping the analysis sound.
//!
//! # Representation
//!
//! Cloning a value set is the dominant domain operation: every register
//! read, every binop operand, and every scheduler fork copies one. The
//! set is therefore stored as a **sorted slice in one of two layouts**:
//!
//! * up to [`INLINE_CAP`] elements live inline in the `ValueSet` itself
//!   (no heap allocation at all — this covers the constant program
//!   counters and 1–8-element secret sets that dominate real runs up to
//!   the inline cap), and
//! * larger sets live behind an [`Arc`], so cloning is a refcount bump
//!   and mutation is copy-on-write (sets are immutable once built; every
//!   operation constructs a fresh set through [`SetBuilder`]).
//!
//! Shared sets additionally carry a unique *token* allocated at
//! construction. [`ValueSet::memo_key`] exposes it (or, for inline sets,
//! the elements themselves) as a cheap hashable identity, which the
//! analyzer's observer sinks use to memoize projections: two clones of
//! the same set share a token, so a projection is computed once per
//! distinct (set, observer) pair instead of once per trace event.
//!
//! Iteration order, equality, widening behavior, and the public
//! constructors are unchanged from the original `BTreeSet`-backed
//! representation — sets still iterate in ascending [`MaskedSymbol`]
//! order and widen to `Top` past [`MAX_CARDINALITY`].

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::msym::MaskedSymbol;
use crate::ops::{self, AbstractFlags, BinOp, OpResult};
use crate::sym::{SymId, SymbolTable};

/// Maximum cardinality a value set may reach before widening to `Top`.
pub const MAX_CARDINALITY: usize = 4096;

/// Number of elements stored inline (without heap allocation).
const INLINE_CAP: usize = 4;

/// Filler for unused inline slots, kept canonical so inline arrays of
/// equal sets compare and hash equal (see [`MemoKey`]).
const PAD: MaskedSymbol = MaskedSymbol::constant_padding();

/// Source of [`SharedSet`] identity tokens.
static NEXT_TOKEN: AtomicU64 = AtomicU64::new(1);

/// A heap-allocated, immutable, sorted set shared between clones.
#[derive(Debug)]
struct SharedSet {
    /// Identity token, unique per allocation (see [`ValueSet::memo_key`]).
    token: u64,
    /// The elements, ascending and deduplicated.
    items: Vec<MaskedSymbol>,
}

#[derive(Clone)]
enum Repr {
    /// A finite set of at most [`INLINE_CAP`] elements, stored inline.
    Small {
        len: u8,
        items: [MaskedSymbol; INLINE_CAP],
    },
    /// A larger finite set, shared by refcount.
    Shared(Arc<SharedSet>),
    /// Any value of the given width (possibly secret-dependent).
    Top { width: u8 },
}

/// An element of the masked-symbol value domain: a finite set of masked
/// symbols, or `Top`.
///
/// ```
/// use leakaudit_core::{MaskedSymbol, ValueSet};
///
/// // Paper Ex. 2: {1, 2} is a high variable with two known values.
/// let h = ValueSet::from_constants([1, 2], 32);
/// assert_eq!(h.len(), Some(2));
/// assert_eq!(h.as_constant(), None);
/// assert_eq!(ValueSet::constant(1, 32).as_constant(), Some(1));
/// ```
#[derive(Clone)]
pub struct ValueSet {
    repr: Repr,
}

/// A cheap hashable identity of a [`ValueSet`], for memoizing per-set
/// computations (projection caching in the analyzer's observer sinks).
///
/// Two sets with equal keys are guaranteed equal; two *equal* sets may
/// have different keys (two independently built shared sets get distinct
/// tokens), which merely costs a duplicate cache entry — never a wrong
/// hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemoKey {
    /// Identity token of an `Arc`-shared set: clones share it.
    Shared(u64),
    /// A singleton's sole element (the dominant case: program counters).
    One(MaskedSymbol),
    /// The inline elements themselves (2..=[`INLINE_CAP`] of them).
    Few {
        /// Number of live elements.
        len: u8,
        /// The elements, padded with a canonical filler.
        items: [MaskedSymbol; INLINE_CAP],
    },
    /// `Top` of the given width.
    Top(u8),
}

impl MemoKey {
    /// `true` when the key is worth memoizing on. `Top` keys are
    /// *unstable*: an oversized set widened to `Top` carries no identity
    /// beyond its width, and the abstract transfers consuming `Top`
    /// inputs are already cheap early-out paths (`Top` in, `Top` out),
    /// so memo layers bypass rather than cache them — caching would only
    /// churn ways that precise inputs could use.
    pub fn is_stable(&self) -> bool {
        !matches!(self, MemoKey::Top(_))
    }
}

impl ValueSet {
    /// The singleton set of a known constant.
    pub fn constant(value: u64, width: u8) -> Self {
        ValueSet::singleton(MaskedSymbol::constant(value, width))
    }

    /// The singleton set of a fully-unknown (low) symbol.
    pub fn symbol(sym: SymId, width: u8) -> Self {
        ValueSet::singleton(MaskedSymbol::symbol(sym, width))
    }

    /// A singleton set.
    pub fn singleton(m: MaskedSymbol) -> Self {
        let mut items = [PAD; INLINE_CAP];
        items[0] = m;
        ValueSet {
            repr: Repr::Small { len: 1, items },
        }
    }

    /// A set of known constants (a *high* variable in the sense of §4 when
    /// it has more than one element).
    pub fn from_constants(values: impl IntoIterator<Item = u64>, width: u8) -> Self {
        ValueSet::from_masked_symbols(values.into_iter().map(|v| MaskedSymbol::constant(v, width)))
    }

    /// Builds a set from masked symbols, widening to `Top` once more than
    /// [`MAX_CARDINALITY`] distinct elements have been collected (the
    /// oversized set is never materialized).
    ///
    /// # Panics
    ///
    /// Panics if members have inconsistent widths.
    pub fn from_masked_symbols(items: impl IntoIterator<Item = MaskedSymbol>) -> Self {
        let mut b = SetBuilder::new();
        for m in items {
            b.insert(m);
        }
        b.finish()
    }

    /// Builds a set from an already ascending, deduplicated vector.
    fn from_sorted_vec(items: Vec<MaskedSymbol>) -> Self {
        debug_assert!(items.windows(2).all(|w| w[0] < w[1]), "sorted + dedup");
        if items.len() <= INLINE_CAP {
            let mut inline = [PAD; INLINE_CAP];
            inline[..items.len()].copy_from_slice(&items);
            ValueSet {
                repr: Repr::Small {
                    len: items.len() as u8,
                    items: inline,
                },
            }
        } else {
            ValueSet {
                repr: Repr::Shared(Arc::new(SharedSet {
                    token: NEXT_TOKEN.fetch_add(1, Ordering::Relaxed),
                    items,
                })),
            }
        }
    }

    /// The unknown-high element.
    pub fn top(width: u8) -> Self {
        ValueSet {
            repr: Repr::Top { width },
        }
    }

    /// `true` iff this is `Top`.
    pub fn is_top(&self) -> bool {
        matches!(self.repr, Repr::Top { .. })
    }

    /// The members as a sorted slice (`None` for `Top`).
    pub fn as_slice(&self) -> Option<&[MaskedSymbol]> {
        match &self.repr {
            Repr::Small { len, items } => Some(&items[..*len as usize]),
            Repr::Shared(s) => Some(&s.items),
            Repr::Top { .. } => None,
        }
    }

    /// Number of elements (`None` for `Top`).
    pub fn len(&self) -> Option<usize> {
        self.as_slice().map(<[MaskedSymbol]>::len)
    }

    /// `true` iff this is the empty set (unreachable code's value).
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_some_and(<[MaskedSymbol]>::is_empty)
    }

    /// The bit width of the members.
    ///
    /// Empty sets report width 32 (the domain's default word size).
    pub fn width(&self) -> u8 {
        match &self.repr {
            Repr::Top { width } => *width,
            _ => self
                .as_slice()
                .and_then(|s| s.first())
                .map_or(32, MaskedSymbol::width),
        }
    }

    /// The concrete value if this is a singleton constant.
    pub fn as_constant(&self) -> Option<u64> {
        self.as_singleton()?.as_constant()
    }

    /// The sole element if this is a singleton.
    pub fn as_singleton(&self) -> Option<MaskedSymbol> {
        match self.as_slice() {
            Some([m]) => Some(*m),
            _ => None,
        }
    }

    /// Iterates the members in ascending order (empty for `Top`; check
    /// [`ValueSet::is_top`]).
    pub fn iter(&self) -> impl Iterator<Item = &MaskedSymbol> + '_ {
        self.as_slice().unwrap_or(&[]).iter()
    }

    /// A cheap hashable identity for memoization (see [`MemoKey`]).
    pub fn memo_key(&self) -> MemoKey {
        match &self.repr {
            Repr::Small { len: 1, items } => MemoKey::One(items[0]),
            Repr::Small { len, items } => MemoKey::Few {
                len: *len,
                items: *items,
            },
            Repr::Shared(s) => MemoKey::Shared(s.token),
            Repr::Top { width } => MemoKey::Top(*width),
        }
    }

    /// Least upper bound (set union, widening past the cardinality cap).
    pub fn join(&self, other: &ValueSet) -> ValueSet {
        match (&self.repr, &other.repr) {
            (Repr::Top { width }, _) | (_, Repr::Top { width }) => ValueSet::top(*width),
            (Repr::Shared(a), Repr::Shared(b)) if Arc::ptr_eq(a, b) => self.clone(),
            _ => {
                let (a, b) = (
                    self.as_slice().expect("not top"),
                    other.as_slice().expect("not top"),
                );
                // Each side is internally width-consistent (every
                // constructor checks), so one cross-check keeps the
                // invariant the old BTreeSet-rebuilding join enforced.
                if let (Some(x), Some(y)) = (a.first(), b.first()) {
                    assert!(x.width() == y.width(), "mixed widths in value set");
                }
                // Sorted two-pointer union; both inputs are ascending and
                // deduplicated, so the output is built in order.
                let mut out = Vec::with_capacity(a.len() + b.len());
                let (mut i, mut j) = (0, 0);
                while i < a.len() && j < b.len() {
                    match a[i].cmp(&b[j]) {
                        std::cmp::Ordering::Less => {
                            out.push(a[i]);
                            i += 1;
                        }
                        std::cmp::Ordering::Greater => {
                            out.push(b[j]);
                            j += 1;
                        }
                        std::cmp::Ordering::Equal => {
                            out.push(a[i]);
                            i += 1;
                            j += 1;
                        }
                    }
                }
                out.extend_from_slice(&a[i..]);
                out.extend_from_slice(&b[j..]);
                if out.len() > MAX_CARDINALITY {
                    return ValueSet::top(self.width());
                }
                ValueSet::from_sorted_vec(out)
            }
        }
    }

    /// `true` if every concretization of `self` is one of `other` (set
    /// inclusion; `Top` includes everything).
    pub fn subsumed_by(&self, other: &ValueSet) -> bool {
        match (self.as_slice(), other.as_slice()) {
            (_, None) => true,
            (None, Some(_)) => false,
            (Some(a), Some(b)) => {
                // Sorted-subset walk: advance through `b` once.
                let mut j = 0;
                'outer: for m in a {
                    while j < b.len() {
                        match b[j].cmp(m) {
                            std::cmp::Ordering::Less => j += 1,
                            std::cmp::Ordering::Equal => {
                                j += 1;
                                continue 'outer;
                            }
                            std::cmp::Ordering::Greater => return false,
                        }
                    }
                    return false;
                }
                true
            }
        }
    }
}

impl PartialEq for ValueSet {
    fn eq(&self, other: &Self) -> bool {
        match (&self.repr, &other.repr) {
            (Repr::Top { width: a }, Repr::Top { width: b }) => a == b,
            (Repr::Shared(a), Repr::Shared(b)) if Arc::ptr_eq(a, b) => true,
            _ => match (self.as_slice(), other.as_slice()) {
                (Some(a), Some(b)) => a == b,
                _ => false,
            },
        }
    }
}

impl Eq for ValueSet {}

/// Incrementally builds a sorted, deduplicated value set, widening to
/// `Top` as soon as the distinct-element count exceeds
/// [`MAX_CARDINALITY`] — the oversized intermediate is never kept.
pub(crate) struct SetBuilder {
    items: Vec<MaskedSymbol>,
    /// `true` while `items` is ascending and deduplicated.
    sorted: bool,
    width: Option<u8>,
    widened: bool,
}

impl SetBuilder {
    pub(crate) fn new() -> Self {
        SetBuilder {
            items: Vec::new(),
            sorted: true,
            width: None,
            widened: false,
        }
    }

    /// Inserts one element, checking width consistency.
    ///
    /// # Panics
    ///
    /// Panics if `m`'s width differs from previously inserted members.
    pub(crate) fn insert(&mut self, m: MaskedSymbol) {
        match self.width {
            None => self.width = Some(m.width()),
            Some(w) => assert!(w == m.width(), "mixed widths in value set"),
        }
        if self.widened {
            return;
        }
        // Results of the pairwise liftings usually arrive ascending;
        // keep that fast path, and on the first out-of-order element
        // fall back to append-then-compact (O(n log n) overall, never
        // the O(n²) of repeated middle insertion).
        match self.items.last() {
            Some(last) if self.sorted && *last == m => return,
            Some(last) if self.sorted && *last > m => {
                self.sorted = false;
                self.items.push(m);
            }
            _ => self.items.push(m),
        }
        // Widen as soon as the distinct count provably exceeds the cap.
        // While sorted, length *is* the distinct count; once unsorted,
        // compact at 2× the cap so memory stays bounded without
        // re-sorting on every near-cap insertion.
        if self.sorted {
            if self.items.len() > MAX_CARDINALITY {
                self.widen();
            }
        } else if self.items.len() > 2 * MAX_CARDINALITY {
            self.compact();
            if self.items.len() > MAX_CARDINALITY {
                self.widen();
            }
        }
    }

    fn widen(&mut self) {
        self.widened = true;
        self.items = Vec::new();
    }

    /// Restores the ascending, deduplicated invariant.
    fn compact(&mut self) {
        if !self.sorted {
            self.items.sort_unstable();
            self.items.dedup();
            self.sorted = true;
        }
    }

    pub(crate) fn finish(mut self) -> ValueSet {
        if !self.widened {
            self.compact();
            if self.items.len() > MAX_CARDINALITY {
                self.widen();
            }
        }
        if self.widened {
            return ValueSet::top(self.width.expect("widened sets have a width"));
        }
        ValueSet::from_sorted_vec(self.items)
    }
}

/// Applies a binary operation pairwise over two value sets (the lifting of
/// §5.4: "performing the operations on all pairs of elements in their
/// product"), joining the flag outcomes.
///
/// Two shapes skip the general lifting through [`SetBuilder`], with the
/// same result: a singleton × singleton is one [`ops::apply`], and two
/// sets of constants are folded in `u64` words, sorted and deduplicated
/// (widening past [`MAX_CARDINALITY`] as the builder does). Neither
/// touches the symbol table. When only the flags are wanted (`cmp`,
/// `test`), [`apply_set_flags`] skips the value too.
///
/// # The set-uniform constant-addition rule
///
/// For `ADD`/`SUB` with a constant operand there is one refinement over the
/// plain pairwise lifting. When all elements share one symbol `s` and one
/// contiguous low known-bit region — the shape of a secret-indexed pointer
/// `aligned + k`, `k ∈ {0..7}` — and the carry into the symbolic region is
/// the *same* for every element, the symbolic high part is updated by the
/// same function of `s` for every element. One shared fresh symbol is then
/// allocated for the whole set instead of one per element.
///
/// This is sound: a single valuation of the shared symbol (the common high
/// part plus the common carry) reproduces every element's concretization,
/// which is exactly the witness Lemma 1 requires. It is also *necessary*
/// for the paper's headline result: when the `gather` loop's pointer set
/// `{buf+k+8i}` crosses a cache-line boundary, per-element fresh symbols
/// would make the block observations spuriously distinct and report a leak
/// where the paper proves none (Fig. 14c block column).
pub fn apply_set(
    table: &mut SymbolTable,
    op: BinOp,
    x: &ValueSet,
    y: &ValueSet,
) -> (ValueSet, AbstractFlags) {
    let width = x.width();
    match (x.as_slice(), y.as_slice()) {
        (None, _) | (_, None) => (ValueSet::top(width), AbstractFlags::top()),
        (Some([ma]), Some([mb])) => {
            let OpResult { value, flags } = ops::apply(table, op, ma, mb);
            (ValueSet::singleton(value), flags)
        }
        (Some(a), Some(b)) => {
            if let Some(result) = uniform_const_add(table, op, x, a, b) {
                return result;
            }
            if all_constant(a) && all_constant(b) {
                return lift_constants(op, a, b);
            }
            let mut out = SetBuilder::new();
            let mut flags: Option<AbstractFlags> = None;
            for ma in a {
                for mb in b {
                    let OpResult { value, flags: f } = ops::apply(table, op, ma, mb);
                    out.insert(value);
                    flags = Some(match flags {
                        None => f,
                        Some(acc) => acc.join(f),
                    });
                }
            }
            (out.finish(), flags.unwrap_or_else(AbstractFlags::top))
        }
    }
}

/// The flags of [`apply_set`] without its value, for instructions that
/// only set flags (`cmp`, `test`).
///
/// Two sets of constants fold the exact flags pair by pair and stop once
/// all four are undetermined; the table is never touched (the set-uniform
/// rule, which [`apply_set`] tries first, only ever answers `x ± 0` on
/// constants, without the table). Any other operands run [`apply_set`]
/// itself, so symbol allocation and offset records happen exactly as they
/// would there.
pub fn apply_set_flags(
    table: &mut SymbolTable,
    op: BinOp,
    x: &ValueSet,
    y: &ValueSet,
) -> AbstractFlags {
    match (x.as_slice(), y.as_slice()) {
        (Some(a), Some(b)) if all_constant(a) && all_constant(b) => {
            if let Some((_, flags)) = uniform_const_add(table, op, x, a, b) {
                return flags;
            }
            let width = check_widths(a, b);
            let top = AbstractFlags::top();
            let mut flags: Option<AbstractFlags> = None;
            for ma in a {
                for mb in b {
                    let (_, f) = ops::eval_with_flags(op, constant_of(ma), constant_of(mb), width);
                    let acc = flags.map_or(f, |acc| acc.join(f));
                    if acc == top {
                        return top;
                    }
                    flags = Some(acc);
                }
            }
            flags.unwrap_or(top)
        }
        _ => apply_set(table, op, x, y).1,
    }
}

fn all_constant(s: &[MaskedSymbol]) -> bool {
    s.iter().all(MaskedSymbol::is_constant)
}

fn constant_of(m: &MaskedSymbol) -> u64 {
    m.mask().known_values()
}

/// The common width of two non-empty operand sets (`width` 32 for an empty
/// one, which has no pairs).
///
/// # Panics
///
/// Panics if the widths differ, as [`ops::apply`] does.
fn check_widths(a: &[MaskedSymbol], b: &[MaskedSymbol]) -> u8 {
    match (a.first(), b.first()) {
        (Some(x), Some(y)) => {
            assert_eq!(x.width(), y.width(), "operand widths must match");
            x.width()
        }
        _ => 32,
    }
}

/// The pairwise lifting of two sets of constants, in `u64` words: the
/// values are collected, sorted and deduplicated, and widen to `Top` once
/// more than [`MAX_CARDINALITY`] are distinct (compacting at twice the cap
/// keeps memory bounded, as [`SetBuilder`] does).
fn lift_constants(op: BinOp, a: &[MaskedSymbol], b: &[MaskedSymbol]) -> (ValueSet, AbstractFlags) {
    let width = check_widths(a, b);
    let compact = |values: &mut Vec<u64>| {
        values.sort_unstable();
        values.dedup();
    };
    let mut values = Vec::with_capacity((a.len() * b.len()).min(2 * MAX_CARDINALITY));
    let mut widened = false;
    let mut flags: Option<AbstractFlags> = None;
    'pairs: for ma in a {
        for mb in b {
            let (r, f) = ops::eval_with_flags(op, constant_of(ma), constant_of(mb), width);
            let acc = flags.map_or(f, |acc| acc.join(f));
            flags = Some(acc);
            if widened {
                if acc == AbstractFlags::top() {
                    break 'pairs;
                }
                continue;
            }
            values.push(r);
            if values.len() > 2 * MAX_CARDINALITY {
                compact(&mut values);
                widened = values.len() > MAX_CARDINALITY;
            }
        }
    }
    if !widened {
        compact(&mut values);
        widened = values.len() > MAX_CARDINALITY;
    }
    let set = if widened {
        ValueSet::top(width)
    } else {
        ValueSet::from_sorted_vec(
            values
                .into_iter()
                .map(|v| MaskedSymbol::constant(v, width))
                .collect(),
        )
    };
    (set, flags.unwrap_or_else(AbstractFlags::top))
}

/// The set-uniform constant-addition rule (see [`apply_set`]): returns
/// `Some` when it applies, `None` to fall back to the pairwise lifting.
fn uniform_const_add(
    table: &mut SymbolTable,
    op: BinOp,
    x: &ValueSet,
    a: &[MaskedSymbol],
    b: &[MaskedSymbol],
) -> Option<(ValueSet, AbstractFlags)> {
    if a.len() < 2 || b.len() != 1 {
        return None;
    }
    let c_raw = b[0].as_constant()?;
    let width = a[0].width();
    let wrap = crate::mask::Mask::top(width).width_mask();
    let c = match op {
        BinOp::Add => c_raw,
        BinOp::Sub => c_raw.wrapping_neg() & wrap,
        _ => return None,
    };
    if c == 0 {
        return Some((
            x.clone(),
            AbstractFlags {
                zf: crate::ops::AbstractBool::Top,
                cf: crate::ops::AbstractBool::Top,
                sf: crate::ops::AbstractBool::Top,
                of: crate::ops::AbstractBool::Top,
            },
        ));
    }

    // All elements must share one non-constant symbol and one contiguous
    // low known-bit region [0, t).
    let sym = a[0].sym();
    if sym == SymId::CONST {
        return None;
    }
    let known = a[0].mask().known_bits();
    let t = known.trailing_ones() as u8;
    if known != (if t == 0 { 0 } else { (1u64 << t) - 1 }) || t >= width {
        return None;
    }
    for m in a {
        if m.sym() != sym || m.width() != width || m.mask().known_bits() != known {
            return None;
        }
    }

    // Per-element low-region sums; the carry into the symbolic region must
    // agree across elements for the high-part update to be uniform.
    let low_mask = known;
    let c_low = c & low_mask;
    let mut sums = Vec::with_capacity(a.len());
    let mut carry: Option<bool> = None;
    for m in a {
        let s = m.mask().known_values() + c_low;
        let this_carry = t < 64 && s >> t & 1 == 1;
        match carry {
            None => carry = Some(this_carry),
            Some(prev) if prev != this_carry => return None,
            _ => {}
        }
        sums.push(s & low_mask);
    }
    let carry = carry.unwrap_or(false);
    let c_high = c >> t;

    // Neutral high part and no carry: every element keeps the symbol (same
    // outcome as the per-element rule). Otherwise: one shared fresh symbol.
    let result_sym = if c_high == 0 && !carry {
        sym
    } else {
        table.fresh_derived(op.name())
    };
    let mut out = SetBuilder::new();
    let mut zf = None;
    for (m, low) in a.iter().zip(&sums) {
        let mask = crate::mask::Mask::from_words(width, known, *low);
        let r = MaskedSymbol::new(result_sym, mask);
        // Keep §5.4.2 offset bookkeeping per element so pointer-equality
        // reasoning (loop guards) still works across the shared symbol.
        let (origin, off) = table.origin_of(m);
        table.record_offset(r, origin, off.wrapping_add(c) & wrap);
        let this_zf = if *low != 0 {
            crate::ops::AbstractBool::False
        } else {
            crate::ops::AbstractBool::Top
        };
        zf = Some(match zf {
            None => this_zf,
            Some(prev) => crate::ops::AbstractBool::join(prev, this_zf),
        });
        out.insert(r);
    }
    let flags = AbstractFlags {
        zf: zf.unwrap_or(crate::ops::AbstractBool::Top),
        cf: crate::ops::AbstractBool::Top,
        sf: crate::ops::AbstractBool::Top,
        of: crate::ops::AbstractBool::Top,
    };
    Some((out.finish(), flags))
}

/// Lifts a unary masked-symbol operation over a value set.
pub fn map_set(
    table: &mut SymbolTable,
    x: &ValueSet,
    mut f: impl FnMut(&mut SymbolTable, &MaskedSymbol) -> OpResult,
) -> (ValueSet, AbstractFlags) {
    match x.as_slice() {
        None => (ValueSet::top(x.width()), AbstractFlags::top()),
        Some(s) => {
            let mut out = SetBuilder::new();
            let mut flags: Option<AbstractFlags> = None;
            for m in s {
                let OpResult { value, flags: g } = f(table, m);
                out.insert(value);
                flags = Some(match flags {
                    None => g,
                    Some(acc) => acc.join(g),
                });
            }
            (out.finish(), flags.unwrap_or_else(AbstractFlags::top))
        }
    }
}

impl fmt::Display for ValueSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.as_slice() {
            None => write!(f, "⊤{}", self.width()),
            Some(s) => {
                write!(f, "{{")?;
                for (i, m) in s.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{m}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

impl fmt::Debug for ValueSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::AbstractBool;

    #[test]
    fn constructors_and_queries() {
        let c = ValueSet::constant(5, 32);
        assert_eq!(c.as_constant(), Some(5));
        assert_eq!(c.len(), Some(1));
        assert!(!c.is_top());
        assert!(!c.is_empty());
        let t = ValueSet::top(32);
        assert!(t.is_top());
        assert_eq!(t.len(), None);
        assert_eq!(t.width(), 32);
    }

    #[test]
    fn example_2_combined_high_variable() {
        // {1, s}: a high variable, one possible value unknown.
        let mut tab = SymbolTable::new();
        let s = tab.fresh("s");
        let v = ValueSet::from_masked_symbols([
            MaskedSymbol::constant(1, 32),
            MaskedSymbol::symbol(s, 32),
        ]);
        assert_eq!(v.len(), Some(2));
        assert_eq!(v.as_constant(), None);
    }

    #[test]
    fn example_3_secret_dependent_pointer_increment() {
        // x = {s}; if h then x += 64. Joined: {s, s+64}, |·| = 2 → 1 bit.
        let mut tab = SymbolTable::new();
        let s = tab.fresh("malloc");
        let x = ValueSet::symbol(s, 32);
        let (x_inc, _) = apply_set(&mut tab, BinOp::Add, &x, &ValueSet::constant(64, 32));
        let joined = x.join(&x_inc);
        assert_eq!(joined.len(), Some(2), "L ≤ |{{s, s+64}}| = 2");
    }

    #[test]
    fn join_is_union_and_dedups() {
        let a = ValueSet::from_constants([1, 2], 32);
        let b = ValueSet::from_constants([2, 3], 32);
        assert_eq!(a.join(&b).len(), Some(3));
        assert!(a.subsumed_by(&a.join(&b)));
        assert!(a.subsumed_by(&ValueSet::top(32)));
        assert!(!ValueSet::top(32).subsumed_by(&a));
    }

    #[test]
    fn top_absorbs_operations() {
        let mut tab = SymbolTable::new();
        let (r, f) = apply_set(
            &mut tab,
            BinOp::Add,
            &ValueSet::top(32),
            &ValueSet::constant(4, 32),
        );
        assert!(r.is_top());
        assert_eq!(f.zf, AbstractBool::Top);
    }

    #[test]
    fn pairwise_product_semantics() {
        // {0, 8} + {0, 64} = {0, 8, 64, 72}.
        let mut tab = SymbolTable::new();
        let a = ValueSet::from_constants([0, 8], 32);
        let b = ValueSet::from_constants([0, 64], 32);
        let (r, _) = apply_set(&mut tab, BinOp::Add, &a, &b);
        assert_eq!(r, ValueSet::from_constants([0, 8, 64, 72], 32));
    }

    #[test]
    fn flags_join_across_pairs() {
        // CMP over {0, 1} vs {0}: ZF true for (0,0), false for (1,0) → Top.
        let mut tab = SymbolTable::new();
        let a = ValueSet::from_constants([0, 1], 32);
        let b = ValueSet::constant(0, 32);
        let (_, f) = apply_set(&mut tab, BinOp::Sub, &a, &b);
        assert_eq!(f.zf, AbstractBool::Top);
        // Both nonzero and distinct from b=5: ZF definitely false.
        let a = ValueSet::from_constants([1, 2], 32);
        let b = ValueSet::constant(5, 32);
        let (_, f) = apply_set(&mut tab, BinOp::Sub, &a, &b);
        assert_eq!(f.zf, AbstractBool::False);
    }

    #[test]
    fn widening_past_cap() {
        let huge = ValueSet::from_constants(0..=(MAX_CARDINALITY as u64), 32);
        assert!(huge.is_top());
    }

    /// The pairwise reference: [`apply_set`] without its singleton and
    /// constant-set shortcuts.
    fn reference(
        table: &mut SymbolTable,
        op: BinOp,
        x: &ValueSet,
        y: &ValueSet,
    ) -> (ValueSet, AbstractFlags) {
        let (Some(a), Some(b)) = (x.as_slice(), y.as_slice()) else {
            return (ValueSet::top(x.width()), AbstractFlags::top());
        };
        if let Some(result) = uniform_const_add(table, op, x, a, b) {
            return result;
        }
        let mut out = SetBuilder::new();
        let mut flags: Option<AbstractFlags> = None;
        for ma in a {
            for mb in b {
                let OpResult { value, flags: f } = ops::apply(table, op, ma, mb);
                out.insert(value);
                flags = Some(flags.map_or(f, |acc| acc.join(f)));
            }
        }
        (out.finish(), flags.unwrap_or_else(AbstractFlags::top))
    }

    /// Runs both liftings and the reference on clones of `table`, checking
    /// results, flags and the table's side effects.
    fn check_against_reference(table: &SymbolTable, op: BinOp, x: &ValueSet, y: &ValueSet) {
        let (mut fast, mut flags_only, mut slow) = (table.clone(), table.clone(), table.clone());
        let got = apply_set(&mut fast, op, x, y);
        let flags = apply_set_flags(&mut flags_only, op, x, y);
        let want = reference(&mut slow, op, x, y);
        assert_eq!(got, want, "{op:?} {x} {y}");
        assert_eq!(flags, want.1, "flags only: {op:?} {x} {y}");
        for t in [&fast, &flags_only] {
            assert_eq!(t.len(), slow.len(), "{op:?} {x} {y}");
            for m in want.0.iter() {
                assert_eq!(t.origin_of(m), slow.origin_of(m), "{op:?} {x} {y}");
            }
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

    /// Raw set members: `(symbolic?, low known bits, value)`.
    fn any_members() -> impl Strategy<Value = Vec<(bool, u8, u64)>> {
        proptest::collection::vec((any::<bool>(), 0u8..8, 0u64..300), 0..7)
    }

    /// A set at `width`: constants, and (when `symbolic`) values of one
    /// symbol with a known low region.
    fn members(raw: &[(bool, u8, u64)], width: u8, sym: SymId, symbolic: bool) -> ValueSet {
        ValueSet::from_masked_symbols(raw.iter().map(|&(is_sym, low, v)| {
            if symbolic && is_sym {
                let mask = crate::mask::Mask::top(width).with_low_bits_known(low.min(width - 1), v);
                MaskedSymbol::new(sym, mask)
            } else {
                MaskedSymbol::constant(v, width)
            }
        }))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1500))]

        /// Constant sets, singletons and symbolic sets all lift exactly as
        /// the pairwise `SetBuilder` reference, flags-only included.
        #[test]
        fn liftings_match_the_pairwise_reference(
            op in any_op(),
            width in proptest::sample::select(vec![1u8, 3, 8, 16, 32, 64]),
            xs in any_members(),
            ys in any_members(),
            symbolic in any::<bool>(),
        ) {
            let mut table = SymbolTable::new();
            let s = table.fresh("s");
            let base = MaskedSymbol::symbol(s, width);
            // An offset chain, so successor hits happen.
            ops::apply(&mut table, BinOp::Add, &base, &MaskedSymbol::constant(8, width));
            let x = members(&xs, width, s, symbolic);
            let y = members(&ys, width, s, symbolic);
            check_against_reference(&table, op, &x, &y);
            check_against_reference(&table, op, &y, &x);
        }
    }

    #[test]
    fn constant_liftings_widen_past_the_cap() {
        // 70 × 70 distinct sums: past MAX_CARDINALITY, so `Top`.
        let a = ValueSet::from_constants(0..70, 32);
        let b = ValueSet::from_constants((0..70).map(|k| k * 128), 32);
        let table = SymbolTable::new();
        for op in [BinOp::Add, BinOp::Xor, BinOp::Sub, BinOp::And] {
            check_against_reference(&table, op, &a, &b);
        }
        let (sum, flags) = apply_set(&mut SymbolTable::new(), BinOp::Add, &a, &b);
        assert!(sum.is_top());
        assert_eq!(flags.cf, AbstractBool::False, "no sum wraps 32 bits");
        // 10,000 distinct differences: CF is undetermined from the first
        // pairs, OF only from the last element of `a` on, after the
        // widening.
        let a = ValueSet::from_constants((0..100).map(|k| k * 7).chain([0x8000_0000]), 32);
        let b = ValueSet::from_constants((0..100).map(|k| k * 1000), 32);
        check_against_reference(&table, BinOp::Sub, &a, &b);
        assert_eq!(
            apply_set_flags(&mut SymbolTable::new(), BinOp::Sub, &a, &b),
            AbstractFlags::top()
        );
        // Many duplicates: compaction keeps the set under the cap.
        let c = ValueSet::from_constants(0..100, 32);
        let (and, _) = apply_set(&mut SymbolTable::new(), BinOp::And, &c, &c);
        assert_eq!(and.len(), Some(100));
        check_against_reference(&table, BinOp::And, &c, &c);
    }

    #[test]
    fn display_formats() {
        let v = ValueSet::from_constants([1, 2], 32);
        assert_eq!(v.to_string(), "{0x1, 0x2}");
        assert_eq!(ValueSet::top(32).to_string(), "⊤32");
    }

    #[test]
    fn iteration_order_is_ascending_regardless_of_insertion_order() {
        for perm in [
            [3u64, 1, 2, 9, 5, 0],
            [0, 1, 2, 3, 5, 9],
            [9, 5, 3, 2, 1, 0],
        ] {
            let v = ValueSet::from_constants(perm, 32);
            let order: Vec<u64> = v.iter().map(|m| m.as_constant().unwrap()).collect();
            assert_eq!(order, vec![0, 1, 2, 3, 5, 9]);
        }
    }

    #[test]
    fn inline_and_shared_layouts_compare_equal_by_content() {
        // 5 elements forces the shared layout; a join dropping to the
        // same elements still compares equal to a fresh build.
        let big = ValueSet::from_constants([1, 2, 3, 4, 5], 32);
        let same = ValueSet::from_constants([5, 4, 3, 2, 1], 32);
        assert_eq!(big, same);
        assert_ne!(
            big.memo_key(),
            ValueSet::from_constants([1, 2], 32).memo_key()
        );
        // Clones share the memo token.
        assert_eq!(big.memo_key(), big.clone().memo_key());
        // Inline sets key by content, so equal sets share cache entries.
        let a = ValueSet::from_constants([7, 9], 32);
        let b = ValueSet::from_constants([9, 7], 32);
        assert_eq!(a.memo_key(), b.memo_key());
    }

    #[test]
    fn empty_set_properties() {
        let e = ValueSet::from_masked_symbols([]);
        assert!(e.is_empty());
        assert_eq!(e.len(), Some(0));
        assert_eq!(e.width(), 32);
        assert!(e.subsumed_by(&ValueSet::constant(1, 32)));
    }

    #[test]
    #[should_panic(expected = "mixed widths")]
    fn mixed_widths_panic() {
        let _ = ValueSet::from_masked_symbols([
            MaskedSymbol::constant(1, 32),
            MaskedSymbol::constant(1, 16),
        ]);
    }
}
