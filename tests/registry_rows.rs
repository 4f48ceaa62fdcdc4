//! Pins every row of the default sweep registry: all 45 cells × 18
//! observer rows, each as its exact count (decimal) and the exact bit
//! pattern of its bound, folded into one digest.
//!
//! The paper-table suite checks only the 8 paper points, and only to a
//! tolerance. This one fails on any precision change anywhere in the
//! registry — from an interpreter, replay or memo edit alike — so such
//! a change shows up in the default test run, not only in a soundness
//! check. If a change is *meant* to move a row, the listing printed on
//! failure names every row, and the expected digest is updated with it.

use leakaudit::scenarios::Registry;
use leakaudit::service::SweepEngine;

/// FNV-1a digest of the listing produced by [`listing`] for the
/// default registry.
const EXPECTED_DIGEST: u64 = 0xda78_8add_9390_56ca;

/// Observer rows per cell (the default suite).
const ROWS_PER_CELL: usize = 18;

fn fnv1a(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One line per row, in registry then suite order:
/// `<cell id> <channel> <observer> <count> <bits as hex>`.
fn listing(registry: &Registry) -> String {
    let sweep = SweepEngine::new().run(registry);
    let mut out = String::new();
    for cell in sweep.cells() {
        let report = cell
            .result
            .as_ref()
            .unwrap_or_else(|e| panic!("{}: {e}", cell.spec.id()));
        assert_eq!(report.rows().len(), ROWS_PER_CELL, "{}", cell.spec.id());
        for row in report.rows() {
            out.push_str(&format!(
                "{} {} {} {} {:016x}\n",
                cell.spec.id(),
                row.spec.channel,
                row.spec.observer,
                row.count,
                row.bits.to_bits()
            ));
        }
    }
    out
}

#[test]
fn default_sweep_rows_are_pinned() {
    let registry = Registry::default_sweep();
    assert_eq!(registry.len(), 45);
    let text = listing(&registry);
    assert_eq!(text.lines().count(), 45 * ROWS_PER_CELL);
    let digest = fnv1a(&text);
    if digest != EXPECTED_DIGEST {
        eprintln!("{text}");
    }
    assert_eq!(
        digest, EXPECTED_DIGEST,
        "default-sweep rows changed (digest {digest:#018x}); the listing is above"
    );
}
