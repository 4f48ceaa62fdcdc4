//! The abstract domains of *"Rigorous Analysis of Software Countermeasures
//! against Cache Attacks"* (Doychev & Köpf, PLDI 2017).
//!
//! This crate is the paper's technical contribution, reimplemented from
//! scratch:
//!
//! * **Masked symbols** (§5) — [`MaskedSymbol`] pairs an unknown base value
//!   ([`SymId`]) with a per-bit knowledge [`Mask`] over `{0, 1, ⊤}`. The
//!   abstract operations in this crate ([`apply`], [`shl`], [`shr`],
//!   [`mul`], [`not`], [`neg`]) track which bits stay provably equal to the
//!   base symbol's bits, which is what makes cache-alignment idioms like
//!   `buf - (buf & 63) + 64` analyzable when `buf` is a dynamically
//!   allocated (hence statically unknown) pointer.
//! * **Origins and offsets** (§5.4.2) — [`SymbolTable`] memoizes constant
//!   pointer offsets so derived pointers compare decidably (loop guards à
//!   la `for (x = r; x != y; x++)`, paper Ex. 7/8), feeding the flag rules
//!   of §5.4.3.
//! * **Value sets** (§4/§5.1) — [`ValueSet`] is the finite-set domain
//!   `P(Sym × {0,1,⊤}^n)` with a `Top` element for unknown-high data.
//!   Secrets are sets with several elements; low-but-unknown inputs are
//!   singleton symbols; the distinction is what separates *leakage* from
//!   mere *uncertainty about allocation* (paper Ex. 3).
//! * **Observers** (§3.2) — [`Observer`] models the hierarchy of memory
//!   trace adversaries via the projections `π_{n:b}` (address / cache-line
//!   / cache-bank / page observers, each optionally modulo stuttering).
//! * **Memory-trace DAG** (§6) — [`TraceDag`] represents sets of
//!   observation traces compactly and counts them per Proposition 2; the
//!   log₂ of the count is the leakage bound of Theorem 1.
//!
//! # Example: proving the scatter/gather block-trace guarantee
//!
//! ```
//! use leakaudit_core::{
//!     apply, BinOp, Mask, MaskedSymbol, Observer, SymbolTable, TraceDag, ValueSet,
//! };
//!
//! let mut table = SymbolTable::new();
//! let buf = MaskedSymbol::symbol(table.fresh("buf"), 32);
//!
//! // align(buf) = buf - (buf & 63) + 64  (OpenSSL 1.0.2f, paper Fig. 3).
//! let low = apply(&mut table, BinOp::And, &buf, &MaskedSymbol::constant(63, 32)).value;
//! let cleared = apply(&mut table, BinOp::Sub, &buf, &low).value;
//! let aligned = apply(&mut table, BinOp::Add, &cleared, &MaskedSymbol::constant(64, 32)).value;
//! assert_eq!(aligned.mask().to_string(), "⊤{26}000000");
//!
//! // gather: iteration i reads buf[k + i*spacing] for secret k ∈ {0..7}.
//! use leakaudit_core::apply_set;
//! let k_set = ValueSet::from_constants(0..8, 32);
//! let (start, _) = apply_set(&mut table, BinOp::Add, &ValueSet::singleton(aligned), &k_set);
//! let (mut dag, mut cur) = TraceDag::new(Observer::block(6));
//! for i in 0..384u64 {
//!     let (addrs, _) = apply_set(&mut table, BinOp::Add, &start, &ValueSet::constant(8 * i, 32));
//!     cur = dag.access(cur, &addrs);
//! }
//! // Every access falls in one statically-known cache line: zero leakage,
//! // even though the loop crosses 47 cache-line boundaries.
//! assert_eq!(dag.leakage_bits(&cur), 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod concrete;
mod fingerprint;
mod hash;
mod mask;
mod msym;
mod observer;
mod ops;
mod sym;
mod trace;
mod value;

pub use concrete::Valuation;
pub use fingerprint::{CacheKeyed, Fingerprint, FingerprintHasher};
pub use hash::{FxBuildHasher, FxHasher};
pub use mask::{Mask, MaskBit};
pub use msym::MaskedSymbol;
pub use observer::{project_range, ObsSet, Observation, Observer};
pub use ops::{apply, mul, neg, not, shl, shr, AbstractBool, AbstractFlags, BinOp, OpResult};
pub use sym::{OffsetRecord, Provenance, SymId, SymbolTable};
pub use trace::{Cursor, Label, TraceDag, VertexId};
pub use value::{apply_set, apply_set_flags, map_set, MemoKey, ValueSet, MAX_CARDINALITY};
