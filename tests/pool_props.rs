//! Determinism property tests for the persistent frontier pool
//! (`paths::pool`): per-property verdicts, witnesses, explored counts and
//! charged costs must be identical for every worker-thread count —
//! including thread counts beyond the frontier size and beyond the
//! machine's cores — because the pool merges expansion results in frontier
//! order no matter which worker claimed which task.  (Consult totals across
//! *different* thread counts follow the chunk structure, which scales with
//! the thread count — see `core_digest`.)  Every test runs under
//! `common::deadline`, so a pool deadlock fails with a message instead of
//! hanging the binary.

mod common;

use proptest::prelude::*;

use accltl_core::automata::{
    accltl_plus_to_automaton, bounded_emptiness_batch_with_config, EmptinessOutcome,
};
use accltl_core::logic::bounded::BoundedSearcher;
use accltl_core::prelude::*;

use common::{core_digest, dataflow_formula, deadline, jones_post, random_formula, random_initial};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// One batch on every thread count: verdicts, explored counts and costs
    /// match the single-threaded reference.
    #[test]
    fn searches_are_thread_independent(
        batch in proptest::collection::vec(random_formula(), 2..4),
        initial in random_initial(),
    ) {
        let (reference, per_threads) = deadline("threaded batch search", move || {
            let schema = phone_directory_access_schema();
            let reference: Vec<_> = BoundedSearcher::with_engine_config(
                &schema,
                &initial,
                false,
                EngineConfig::base().threads(1),
            )
            .run_batch(&batch)
            .iter()
            .map(core_digest)
            .collect();
            let per_threads: Vec<_> = [2usize, 4, 8]
                .into_iter()
                .map(|threads| {
                    let engine = EngineConfig::base().threads(threads);
                    let searcher =
                        BoundedSearcher::with_engine_config(&schema, &initial, false, engine);
                    let core: Vec<_> = searcher.run_batch(&batch).iter().map(core_digest).collect();
                    (threads, core)
                })
                .collect();
            (reference, per_threads)
        });
        for (threads, core) in per_threads {
            prop_assert_eq!(&core, &reference, "threads={}", threads);
        }
    }

    /// The emptiness front-end is likewise pool-schedule independent.
    #[test]
    fn emptiness_is_thread_independent(
        initial in random_initial(),
        satisfiable in any::<bool>(),
    ) {
        let (reference, per_threads) = deadline("threaded emptiness", move || {
            let schema = phone_directory_access_schema();
            let formula = if satisfiable {
                AccLtl::finally(jones_post())
            } else {
                AccLtl::and(vec![
                    AccLtl::globally(AccLtl::not(jones_post())),
                    AccLtl::finally(jones_post()),
                ])
            };
            let automata = [
                accltl_plus_to_automaton(&formula),
                accltl_plus_to_automaton(&dataflow_formula()),
            ];
            let refs: Vec<_> = automata.iter().collect();
            let reference: Vec<_> = bounded_emptiness_batch_with_config(
                &refs,
                &schema,
                &initial,
                EngineConfig::base().threads(1),
            )
            .iter()
            .map(core_digest)
            .collect();
            let per_threads: Vec<_> = [2usize, 8]
                .into_iter()
                .map(|threads| {
                    let engine = EngineConfig::base().threads(threads);
                    let core: Vec<_> =
                        bounded_emptiness_batch_with_config(&refs, &schema, &initial, engine)
                            .iter()
                            .map(core_digest)
                            .collect();
                    (threads, core)
                })
                .collect();
            (reference, per_threads)
        });
        for (threads, core) in per_threads {
            prop_assert_eq!(&core, &reference, "threads={}", threads);
        }
    }
}

/// Thread counts far beyond both the frontier size and the machine's cores
/// change nothing: idle workers park, the merge order is still the frontier
/// order, and a found witness still validates.
#[test]
fn oversubscribed_threads_are_deterministic() {
    deadline("oversubscribed search", || {
        let schema = phone_directory_access_schema();
        let initial = Instance::new();
        let batch = vec![AccLtl::finally(jones_post()), dataflow_formula()];
        let reference: Vec<_> = BoundedSearcher::with_engine_config(
            &schema,
            &initial,
            false,
            EngineConfig::base().threads(1),
        )
        .run_batch(&batch)
        .iter()
        .map(core_digest)
        .collect();
        // 32 workers over frontier layers that hold a handful of nodes — far
        // more threads than tasks, and more than the CI machines have cores.
        let engine = EngineConfig::base().threads(32);
        let reports =
            BoundedSearcher::with_engine_config(&schema, &initial, false, engine).run_batch(&batch);
        let got: Vec<_> = reports.iter().map(core_digest).collect();
        assert_eq!(got, reference);
        if let SatOutcome::Satisfiable { witness } = &reports[0].verdict {
            assert!(witness.validate(&schema).is_ok());
        } else {
            panic!("expected a witness: {:?}", reports[0].verdict);
        }
    });
}

/// Budget cutoffs bite at the same point on every pool schedule: with a
/// guard budget small enough to abort mid-search, oversubscribed runs
/// report exactly the single-threaded cutoffs.
#[test]
fn budget_cutoffs_are_pool_schedule_independent() {
    deadline("budgeted oversubscribed search", || {
        let schema = phone_directory_access_schema();
        let initial = Instance::new();
        let batch = vec![dataflow_formula(), AccLtl::finally(jones_post())];
        for budget in [1usize, 7, 50] {
            let reference: Vec<_> = BoundedSearcher::with_engine_config(
                &schema,
                &initial,
                false,
                EngineConfig::base().threads(1).max_guard_checks(budget),
            )
            .run_batch(&batch)
            .iter()
            .map(core_digest)
            .collect();
            for threads in [4usize, 16] {
                let engine = EngineConfig::base()
                    .threads(threads)
                    .max_guard_checks(budget);
                let got: Vec<_> =
                    BoundedSearcher::with_engine_config(&schema, &initial, false, engine)
                        .run_batch(&batch)
                        .iter()
                        .map(core_digest)
                        .collect();
                assert_eq!(got, reference, "budget {budget} threads {threads}");
            }
        }
    });
}

/// Emptiness chains keep their wave order under the pool: a satisfiable
/// automaton's witness is genuine on every thread count.
#[test]
fn emptiness_witnesses_survive_oversubscription() {
    deadline("oversubscribed emptiness", || {
        let schema = phone_directory_access_schema();
        let initial = Instance::new();
        let automaton = accltl_plus_to_automaton(&AccLtl::finally(jones_post()));
        for threads in [1usize, 16] {
            let engine = EngineConfig::base().threads(threads);
            let report =
                bounded_emptiness_batch_with_config(&[&automaton], &schema, &initial, engine)
                    .pop()
                    .expect("one report");
            let EmptinessOutcome::NonEmpty { witness } = &report.verdict else {
                panic!("expected a witness, got {:?}", report.verdict);
            };
            let transitions = witness.transitions(&schema, &initial).unwrap();
            assert!(automaton.accepts_transitions(&transitions));
        }
    });
}
