//! Property tests for the incremental chase: on random instances and random
//! FD/IND/disjointness sets — including runs whose FD repairs equate
//! labelled nulls across relations — the index-driven incremental chase must
//! produce exactly the outcome of the scan-based chase, repair for repair,
//! and the same with per-position indexes switched off process-wide.

use proptest::prelude::*;

use accltl_core::prelude::*;
use accltl_core::relational::chase::{chase_with_stats, ChaseConfig, ChaseOutcome};
use accltl_core::relational::{
    indexing_enabled, set_indexing_enabled, Constraint, DisjointnessConstraint,
    FunctionalDependency, InclusionDependency,
};

/// Strategy: a value drawn from a small pool of constants and labelled nulls
/// (nulls make FD repairs take the equate path instead of hard-failing).
fn small_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::str("a")),
        Just(Value::str("b")),
        Just(Value::str("c")),
        Just(Value::labelled_null(1)),
        Just(Value::labelled_null(2)),
    ]
}

/// Strategy: a random instance over two binary relations `R` and `S` and a
/// unary relation `U`.
fn random_instance() -> impl Strategy<Value = Instance> {
    proptest::collection::vec((0usize..3, small_value(), small_value()), 0..8).prop_map(|facts| {
        let mut inst = Instance::new();
        for (rel, v1, v2) in facts {
            match rel {
                0 => inst.add_fact("R", Tuple::new(vec![v1, v2])),
                1 => inst.add_fact("S", Tuple::new(vec![v1, v2])),
                _ => inst.add_fact("U", Tuple::new(vec![v1])),
            };
        }
        inst
    })
}

/// Strategy: a random constraint over the `R`/`S`/`U` vocabulary.
fn random_constraint() -> impl Strategy<Value = Constraint> {
    prop_oneof![
        // FDs on the binary relations, in both directions.
        (any::<bool>(), any::<bool>()).prop_map(|(on_r, flip)| {
            let rel = if on_r { "R" } else { "S" };
            let (lhs, rhs) = if flip { (vec![1], 0) } else { (vec![0], 1) };
            Constraint::Fd(FunctionalDependency::new(rel, lhs, rhs))
        }),
        // INDs between the binary relations and into the unary one.
        (0usize..4).prop_map(|shape| match shape {
            0 => Constraint::Ind(InclusionDependency::new("R", vec![0], "S", vec![0])),
            1 => Constraint::Ind(InclusionDependency::new("S", vec![1], "R", vec![1])),
            2 => Constraint::Ind(InclusionDependency::new("R", vec![0, 1], "S", vec![0, 1])),
            _ => Constraint::Ind(InclusionDependency::new("R", vec![1], "U", vec![0])),
        }),
        // A disjointness (denial) constraint.
        Just(Constraint::Disjoint(DisjointnessConstraint::new(
            "R", 0, "S", 1
        ))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Scan and incremental chase agree on the outcome — the exact instance,
    /// failure or exhaustion — and on every repair counter, for random
    /// instances and constraint lists (budgeted to keep divergent IND cycles
    /// bounded).
    #[test]
    fn incremental_chase_equals_scan_chase(
        inst in random_instance(),
        constraints in proptest::collection::vec(random_constraint(), 0..5),
    ) {
        let (scan_outcome, scan_stats) = chase_with_stats(
            &inst,
            &constraints,
            &ChaseConfig { max_steps: 200, incremental: false },
        );
        let (inc_outcome, inc_stats) = chase_with_stats(
            &inst,
            &constraints,
            &ChaseConfig { max_steps: 200, incremental: true },
        );
        prop_assert_eq!(&inc_outcome, &scan_outcome);
        prop_assert_eq!(inc_stats.passes, scan_stats.passes);
        prop_assert_eq!(inc_stats.violation_checks, scan_stats.violation_checks);
        prop_assert_eq!(inc_stats.fd_merges, scan_stats.fd_merges);
        prop_assert_eq!(inc_stats.ind_additions, scan_stats.ind_additions);

        // A completed chase satisfies every constraint, and re-chasing is a
        // fixpoint — in both modes.
        if let ChaseOutcome::Completed(result) = &inc_outcome {
            prop_assert!(constraints.iter().all(|c| c.satisfied(result)));
            let again = chase_with_stats(
                result,
                &constraints,
                &ChaseConfig { max_steps: 200, incremental: true },
            ).0;
            prop_assert_eq!(again, ChaseOutcome::Completed(result.clone()));
        }
    }

    /// The incremental chase with indexes switched off process-wide (the
    /// scan reference path of `relational::index`) repairs exactly as the
    /// indexed one: the same outcome and the same mode-invariant counters.
    #[test]
    fn incremental_chase_is_index_independent(
        inst in random_instance(),
        constraints in proptest::collection::vec(random_constraint(), 0..5),
    ) {
        let config = ChaseConfig { max_steps: 200, incremental: true };
        prop_assert!(indexing_enabled(), "tests run with indexes on by default");
        let (indexed_outcome, indexed_stats) = chase_with_stats(&inst, &constraints, &config);
        set_indexing_enabled(false);
        let (scan_outcome, scan_stats) = chase_with_stats(&inst, &constraints, &config);
        set_indexing_enabled(true);
        prop_assert_eq!(&indexed_outcome, &scan_outcome);
        prop_assert_eq!(indexed_stats.passes, scan_stats.passes);
        prop_assert_eq!(indexed_stats.violation_checks, scan_stats.violation_checks);
        prop_assert_eq!(indexed_stats.fd_merges, scan_stats.fd_merges);
        prop_assert_eq!(indexed_stats.ind_additions, scan_stats.ind_additions);
    }
}
