//! Frontier-pool benchmark: persistent claim-cursor workers
//! (`paths::pool`) against a fresh `thread::scope` per round — the regime
//! the pool exists for is *small-layer-heavy* search, where per-round spawn
//! and join overhead used to dominate — plus the end-to-end layered search
//! on the Figure-1 workload at ×1/×4/×16 scale and 1/2/4 worker threads,
//! and cached-vs-uncached guard checks under the content-addressed
//! `StructureKey`s.  Medians are recorded in `CHANGES.md`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use accltl_core::logic::bounded::BoundedSearcher;
use accltl_core::paths::pool;
use accltl_core::prelude::*;

/// A stand-in for one node expansion: a few microseconds of pure compute,
/// so the round benchmarks measure coordination overhead against realistic
/// (small) task grains.
fn expansion_grain(seed: u64) -> u64 {
    let mut x = seed | 1;
    for _ in 0..2_000 {
        x = x.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(17) ^ seed;
    }
    x
}

/// The per-layer-spawn baseline the engine used before the pool: one
/// `std::thread::scope` per round, tasks dealt to `threads` chunks.
fn spawn_per_round(rounds: usize, tasks_per_round: usize, threads: usize) -> u64 {
    let mut acc = 0u64;
    for round in 0..rounds {
        let tasks: Vec<u64> = (0..tasks_per_round)
            .map(|t| (round * tasks_per_round + t) as u64)
            .collect();
        let chunk = tasks.len().div_ceil(threads);
        let mut results = vec![0u64; tasks.len()];
        std::thread::scope(|scope| {
            for (tasks, results) in tasks.chunks(chunk).zip(results.chunks_mut(chunk)) {
                scope.spawn(move || {
                    for (task, slot) in tasks.iter().zip(results.iter_mut()) {
                        *slot = expansion_grain(*task);
                    }
                });
            }
        });
        acc = results.iter().fold(acc, |a, r| a.wrapping_add(*r));
    }
    acc
}

/// The same rounds through one persistent worker set.
fn pooled_rounds(rounds: usize, tasks_per_round: usize, threads: usize) -> u64 {
    pool::scoped(
        threads,
        |&task: &u64| expansion_grain(task),
        |pool| {
            let mut acc = 0u64;
            for round in 0..rounds {
                let tasks: Vec<u64> = (0..tasks_per_round)
                    .map(|t| (round * tasks_per_round + t) as u64)
                    .collect();
                acc = pool.run(tasks).iter().fold(acc, |a, r| a.wrapping_add(*r));
            }
            acc
        },
    )
}

/// The Figure-1-shaped hidden instance at the given scale (same shape as
/// the `overlay` and `guard_cache` bench workloads).
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

/// The searched formula: the street→postcode FD must keep holding while
/// the dataflow eventuality is pursued (expensive guards, layered
/// frontier — the `guard_cache` bench workload).
fn search_formula(schema: &AccessSchema) -> AccLtl {
    let fd = properties::functional_dependency_formula(
        schema,
        &FunctionalDependency::new("Address", vec![0], 1),
    );
    AccLtl::and(vec![fd, AccLtl::finally(AccLtl::atom(dataflow_atom()))])
}

fn bench_pool(c: &mut Criterion) {
    // Coordination overhead: many small rounds, as in small-layer-heavy
    // search frontiers.
    let mut rounds = c.benchmark_group("pool_rounds");
    rounds.sample_size(10);
    for threads in [2usize, 4] {
        rounds.bench_with_input(
            BenchmarkId::new("spawn_per_round", threads),
            &threads,
            |b, &threads| b.iter(|| spawn_per_round(64, 8, threads)),
        );
        rounds.bench_with_input(
            BenchmarkId::new("persistent_pool", threads),
            &threads,
            |b, &threads| b.iter(|| pooled_rounds(64, 8, threads)),
        );
    }
    rounds.finish();

    // End-to-end layered search through the pool-driven engine.
    let schema = phone_directory_access_schema();
    let formula = search_formula(&schema);
    let mut search = c.benchmark_group("pool_search");
    search.sample_size(10);
    for scale in [1usize, 4, 16] {
        let initial = scaled_initial(scale);
        for threads in [1usize, 2, 4] {
            search.bench_with_input(
                BenchmarkId::new(format!("fig1_x{scale}"), threads),
                &threads,
                |b, &threads| {
                    let config = EngineConfig::base().threads(threads);
                    b.iter(|| {
                        BoundedSearcher::with_engine_config(&schema, &initial, false, config)
                            .run(&formula)
                            .verdict
                            .is_satisfiable()
                    });
                },
            );
        }
    }
    search.finish();

    // Guard checks under content-addressed keys: cached vs uncached.
    let mut keys = c.benchmark_group("content_keys");
    keys.sample_size(10);
    let initial = scaled_initial(4);
    for (label, cached) in [("cached", true), ("uncached", false)] {
        keys.bench_with_input(BenchmarkId::new(label, 4), &cached, |b, &cached| {
            let config = EngineConfig::base().threads(1).disable_guard_cache(!cached);
            b.iter(|| {
                BoundedSearcher::with_engine_config(&schema, &initial, false, config)
                    .run(&formula)
                    .verdict
                    .is_satisfiable()
            });
        });
    }
    keys.finish();
}

criterion_group!(benches, bench_pool);
criterion_main!(benches);
