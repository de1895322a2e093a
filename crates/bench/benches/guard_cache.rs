//! Guard-verdict cache benchmark: the layered-frontier searches (bounded
//! satisfiability and A-automaton emptiness) on the Figure 1 phone-directory
//! schema with the hidden workload scaled 1×/4×/16×, cache on vs off
//! (`relational::guard_cache`).
//!
//! The searched property conjoins a data-integrity obligation — `G ¬[FD
//! violation in Address^pre]`, whose inequality join grows quadratically
//! with the scaled relation — with the running dataflow eventuality.  The
//! FD sentence mentions only *pre* relations, and a candidate's delta only
//! ever holds *post* and `IsBind` facts, so its restricted `StructureKey` is
//! identical for every candidate out of one state: the cache evaluates the
//! expensive join once per state instead of once per candidate.  The printed
//! table reports hit/miss counters per scale (an uncached run records every
//! consult as a miss; totals match by contract).  Before/after medians are
//! recorded in `CHANGES.md`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use accltl_core::automata::{
    bounded_emptiness_batch_with_config, bounded_emptiness_report, EmptinessConfig,
};
use accltl_core::logic::bounded::BoundedSearcher;
use accltl_core::prelude::*;

/// The Figure-1-shaped hidden instance at the given scale: per round, one
/// looked-up mobile entry and an address page with four residents (the same
/// shape as the `overlay` bench workload).
fn scaled_initial(scale: usize) -> Instance {
    let mut hidden = Instance::new();
    for s in 0..scale {
        let street = format!("Street{s}");
        let postcode = format!("OX{s}QD");
        hidden.add_fact(
            "Mobile#",
            tuple![
                format!("Resident{s}_0").as_str(),
                postcode.as_str(),
                street.as_str(),
                5_551_000 + s as i64
            ],
        );
        for h in 0..4usize {
            hidden.add_fact(
                "Address",
                tuple![
                    street.as_str(),
                    postcode.as_str(),
                    format!("Resident{s}_{h}").as_str(),
                    h as i64
                ],
            );
        }
    }
    hidden
}

/// The running dataflow sentence: an AcM1 access bound to a name already
/// revealed in `Address^pre`.
fn dataflow_atom() -> PosFormula {
    PosFormula::exists(
        vec!["n"],
        PosFormula::and(vec![
            isbind_atom("AcM1", vec![Term::var("n")]),
            PosFormula::exists(
                vec!["s", "p", "h"],
                pre_atom(
                    "Address",
                    vec![
                        Term::var("s"),
                        Term::var("p"),
                        Term::var("n"),
                        Term::var("h"),
                    ],
                ),
            ),
        ]),
    )
}

/// The searched formula: the street→postcode FD must keep holding while the
/// dataflow eventuality is pursued.
fn search_formula(schema: &AccessSchema) -> AccLtl {
    let fd = properties::functional_dependency_formula(
        schema,
        &FunctionalDependency::new("Address", vec![0], 1),
    );
    AccLtl::and(vec![fd, AccLtl::finally(AccLtl::atom(dataflow_atom()))])
}

/// The same property as a hand-built two-state A-automaton: self-loop while
/// no FD violation is visible, accept on a violation-free dataflow access.
fn search_automaton(schema: &AccessSchema) -> AAutomaton {
    let violation = properties::functional_dependency_formula(
        schema,
        &FunctionalDependency::new("Address", vec![0], 1),
    )
    .atom_sentences()
    .into_iter()
    .next()
    .expect("the FD formula has exactly one atom sentence");
    let mut automaton = AAutomaton::new(2, 0);
    automaton.add_transition(
        0,
        Guard {
            negated: vec![violation.clone()],
            positive: PosFormula::True,
        },
        0,
    );
    automaton.add_transition(
        0,
        Guard {
            negated: vec![violation],
            positive: dataflow_atom(),
        },
        1,
    );
    automaton.mark_accepting(1);
    automaton
}

fn print_hit_rates() {
    let schema = phone_directory_access_schema();
    let formula = search_formula(&schema);
    let automaton = search_automaton(&schema);
    println!("\n=== guard-verdict cache hit rates (Fig-1 FD + dataflow workload) ===");
    println!(
        "{:>6} {:>12} {:>12} {:>12} {:>12} {:>8}",
        "scale", "search hits", "search miss", "empt. hits", "empt. miss", "rate"
    );
    for scale in [1usize, 4, 16] {
        let initial = scaled_initial(scale);
        let searcher = BoundedSearcher::new(
            &schema,
            &initial,
            false,
            BoundedSearchConfig {
                threads: 1,
                ..BoundedSearchConfig::default()
            },
        );
        let search = searcher.run(&formula).cache;
        let emptiness = bounded_emptiness_report(
            &automaton,
            &schema,
            &initial,
            &EmptinessConfig {
                threads: 1,
                ..EmptinessConfig::default()
            },
        )
        .cache;
        #[allow(clippy::cast_precision_loss)]
        let rate = search.hits as f64 / (search.total().max(1)) as f64;
        println!(
            "{:>6} {:>12} {:>12} {:>12} {:>12} {:>7.1}%",
            scale,
            search.hits,
            search.misses,
            emptiness.hits,
            emptiness.misses,
            rate * 100.0
        );
    }
}

fn bench_guard_cache(c: &mut Criterion) {
    print_hit_rates();
    let schema = phone_directory_access_schema();
    let formula = search_formula(&schema);
    let automaton = search_automaton(&schema);
    let mut group = c.benchmark_group("guard_cache");
    group.sample_size(10);
    for scale in [1usize, 4, 16] {
        let initial = scaled_initial(scale);
        let search_engine = EngineConfig::from_env().threads(1);
        let emptiness_engine = EmptinessConfig {
            threads: 1,
            ..EmptinessConfig::default()
        }
        .engine_config();
        for (label, cached) in [("cached", true), ("uncached", false)] {
            group.bench_with_input(
                BenchmarkId::new(format!("search_{label}"), scale),
                &scale,
                |b, _| {
                    let engine = search_engine.disable_guard_cache(!cached);
                    b.iter(|| {
                        BoundedSearcher::with_engine_config(&schema, &initial, false, engine)
                            .run(&formula)
                            .verdict
                            .is_satisfiable()
                    });
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("emptiness_{label}"), scale),
                &scale,
                |b, _| {
                    let engine = emptiness_engine.disable_guard_cache(!cached);
                    b.iter(|| {
                        bounded_emptiness_batch_with_config(
                            &[&automaton],
                            &schema,
                            &initial,
                            engine,
                        )[0]
                        .verdict
                        .is_nonempty()
                    });
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_guard_cache);
criterion_main!(benches);
