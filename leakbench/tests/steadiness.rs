//! The benchmark's own steadiness test: every workload, run briefly
//! twice at one seed, repeats every count metric exactly and fails no
//! cell; a second seed changes the request order but no verdict.

use leakbench::{run, Outcome, RunConfig, Workload};

/// Per-layer metrics that count work and so must repeat exactly.
fn counts(outcome: &Outcome) -> Vec<(&'static str, f64)> {
    outcome
        .per_layer
        .iter()
        .filter(|m| {
            m.unit == "count"
                || matches!(
                    m.name,
                    "analyzer.transfer_hit_ratio"
                        | "service.cache_hit_ratio"
                        | "service.cache_bytes"
                )
        })
        .map(|m| (m.name, m.value))
        .collect()
}

fn brief(workload: Workload, seed: u64) -> Outcome {
    let outcome = run(&RunConfig {
        workload,
        seed,
        seconds: 0.2,
        trace: true,
        // Enough for `daemon_warm`'s clients to reach a traced query.
        min_requests: 16,
        spans_out: None,
    });
    assert!(outcome.attempted > 0, "{workload:?}: no cells attempted");
    assert_eq!(outcome.failed, 0, "{workload:?} seed {seed}: failed cells");
    assert!(outcome.correct, "{workload:?} seed {seed}: checks failed");
    outcome
}

#[test]
fn every_workload_repeats_its_counts_and_verdicts() {
    for workload in Workload::ALL {
        let first = brief(workload, 1);
        let again = brief(workload, 1);
        let other = brief(workload, 2);
        assert!(!counts(&first).is_empty(), "{workload:?}: no count metrics");
        assert_eq!(
            counts(&first),
            counts(&again),
            "{workload:?}: counts drifted"
        );
        assert_eq!(
            first.order, again.order,
            "{workload:?}: same seed, other order"
        );
        assert_ne!(
            first.order, other.order,
            "{workload:?}: seed does not move the order"
        );
        assert_eq!(
            first.verdicts, other.verdicts,
            "{workload:?}: verdicts depend on the seed"
        );
    }
}

#[test]
fn analyzer_phases_show_where_the_analyzer_runs() {
    let phase = |outcome: &Outcome| {
        outcome
            .per_layer
            .iter()
            .filter(|m| m.name.starts_with("analyzer.") && m.name.ends_with("_ms"))
            .filter(|m| m.name != "analyzer.self_ms")
            .map(|m| m.value)
            .sum::<f64>()
    };
    let value = |outcome: &Outcome, name: &str| {
        outcome
            .per_layer
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    };
    assert!(phase(&brief(Workload::Paper8, 3)) > 0.0);
    assert!(phase(&brief(Workload::SweepCold, 3)) > 0.0);
    let warm = brief(Workload::DaemonWarm, 3);
    assert_eq!(phase(&warm), 0.0);
    assert_eq!(value(&warm, "service.cache_hit_ratio"), Some(1.0));
    assert!(value(&warm, "service.result_ms").is_some_and(|ms| ms > 0.0));
}
