//! Empirical validation of Theorem 1: for every case-study binary, run
//! the emulator under *every* secret value and *every* heap layout,
//! apply each observer's view to the concrete traces, and check that the
//! number of distinct views never exceeds the static bound.
//!
//! This is the end-to-end soundness check: concrete `|view(Col_λ)| ≤
//! cnt^π(v)` for each low input λ (heap layout).

use std::collections::{BTreeMap, BTreeSet};

use leakaudit::analyzer::{Analysis, Channel, LeakReport};
use leakaudit::core::Observer;
use leakaudit::scenarios::{self, Registry, Scenario};

/// Checks one paper scenario, analyzed with its own configuration,
/// against the default observer set.
fn check_scenario(s: &Scenario) {
    let report = s.analyze().unwrap_or_else(|e| panic!("{}: {e}", s.name));
    let b = s.block_bits;
    let observers = [
        Observer::address(),
        Observer::block(b),
        Observer::block(b).stuttering(),
        Observer::bank(),
        Observer::bank().stuttering(),
        Observer::page(),
    ];
    check_views(s, &report, &observers);
}

/// Collects, per heap layout, the set of distinct observer views over all
/// secrets, and checks it against the static count in `report`.
fn check_views(s: &Scenario, report: &LeakReport, observers: &[Observer]) {
    // layout -> traces of all secrets under that layout.
    let mut by_layout: BTreeMap<usize, Vec<leakaudit::x86::EmuTrace>> = BTreeMap::new();
    for case in &s.cases {
        let trace = s
            .emulate(case)
            .unwrap_or_else(|e| panic!("{}: {}: {e}", s.name, case.label));
        by_layout.entry(case.layout).or_default().push(trace);
    }

    for (layout, traces) in &by_layout {
        for channel in [Channel::Instruction, Channel::Data, Channel::Shared] {
            for &obs in observers {
                let views: BTreeSet<Vec<u64>> = traces
                    .iter()
                    .map(|t| {
                        let addrs = match channel {
                            Channel::Instruction => t.fetch_addresses(),
                            Channel::Data => t.data_addresses(),
                            Channel::Shared => t.all_addresses(),
                        };
                        obs.view_concrete(&addrs)
                    })
                    .collect();
                let row = report
                    .rows()
                    .iter()
                    .find(|r| r.spec.channel == channel && r.spec.observer == obs)
                    .unwrap_or_else(|| panic!("missing row {channel}/{obs}"));
                // Compare exactly when the count fits in u64; huge counts
                // (e.g. 2^1152) are compared in log2 bits.
                match row.count.to_u64() {
                    Some(bound) => assert!(
                        views.len() as u64 <= bound,
                        "{} layout {layout}: {channel}/{obs}: {} distinct \
                         concrete views exceed the static bound {bound}",
                        s.name,
                        views.len()
                    ),
                    None => assert!(
                        (views.len() as f64).log2() <= row.bits,
                        "{} layout {layout}: {channel}/{obs}: {} distinct \
                         concrete views exceed the static bound of {} bits",
                        s.name,
                        views.len(),
                        row.bits
                    ),
                }
            }
        }
    }
}

#[test]
fn theorem_1_square_and_multiply() {
    check_scenario(&scenarios::square_multiply::libgcrypt_152());
}

#[test]
fn theorem_1_square_and_always_multiply_o2() {
    check_scenario(&scenarios::square_always::libgcrypt_153_o2());
}

#[test]
fn theorem_1_square_and_always_multiply_o0() {
    check_scenario(&scenarios::square_always::libgcrypt_153_o0());
}

#[test]
fn theorem_1_unprotected_lookup_o2() {
    check_scenario(&scenarios::lookup_unprotected::libgcrypt_161_o2());
}

#[test]
fn theorem_1_unprotected_lookup_o1() {
    check_scenario(&scenarios::lookup_unprotected::libgcrypt_161_o1());
}

#[test]
fn theorem_1_secure_retrieve() {
    check_scenario(&scenarios::lookup_secure::libgcrypt_163());
}

#[test]
fn theorem_1_scatter_gather() {
    check_scenario(&scenarios::scatter_gather::openssl_102f());
}

#[test]
fn theorem_1_defensive_gather() {
    check_scenario(&scenarios::defensive_gather::openssl_102g());
}

/// Theorem 1 on every cell of the default sweep: each cell is analyzed
/// with its own configuration (including bank/page overrides, which
/// `Scenario::analyze` would drop) and checked against the observers of
/// its own observation bits.
#[test]
fn theorem_1_every_default_sweep_cell() {
    let registry = Registry::default_sweep();
    for spec in registry.specs() {
        let s = spec.build();
        assert!(!s.cases.is_empty(), "{}: no concrete cases", s.name);
        let report = Analysis::new(spec.analysis_config())
            .run(&s)
            .unwrap_or_else(|e| panic!("{}: {e}", s.name));
        let (block, bank, page) = spec.observation_bits();
        let observers = [
            Observer::address(),
            Observer::block(block),
            Observer::block(block).stuttering(),
            Observer::block(bank),
            Observer::block(bank).stuttering(),
            Observer::block(page),
        ];
        check_views(&s, &report, &observers);
    }
}

#[test]
fn zero_bit_bounds_mean_identical_views() {
    // Where the analysis proves 0 bits, the concrete views must actually
    // be identical across secrets — tightness of the zero cells.
    for s in [
        scenarios::lookup_secure::libgcrypt_163(),
        scenarios::defensive_gather::openssl_102g(),
    ] {
        let mut by_layout: BTreeMap<usize, BTreeSet<Vec<u64>>> = BTreeMap::new();
        for case in &s.cases {
            let t = s.emulate(case).unwrap();
            by_layout
                .entry(case.layout)
                .or_default()
                .insert(t.all_addresses());
        }
        for (layout, views) in by_layout {
            assert_eq!(
                views.len(),
                1,
                "{} layout {layout}: traces differ despite a 0-bit bound",
                s.name
            );
        }
    }
}
