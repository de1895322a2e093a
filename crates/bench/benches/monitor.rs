//! Monitoring-session benchmark: the runtime-relevance loop over the Fig-1
//! phone-directory workload scaled ×1/×4/×16, a 12-step stream of `AcM1`
//! accesses (two reveal fresh `Mobile#` facts, the rest repeat known
//! lookups, the typical shape of a monitored access log), and N properties
//! whose guards mention only `Address` and `IsBind` predicates.
//!
//! A [`MonitorSession`]'s per-step cost is proportional to the delta: steps
//! that reveal nothing new replay the standing verdicts, and steps that do
//! reveal fresh facts re-search with the persistent guard-verdict and
//! prepared-context caches warm (the stream perturbs only `Mobile#`, so the
//! content-addressed, relation-restricted cache keys keep hitting).  A
//! from-scratch re-check (a fresh `BoundedSearcher::run_batch` over the
//! grown instance) re-pays the full search on every step.  Verdicts,
//! witnesses, explored counts and guard-consult totals are byte-identical
//! by contract
//! (`tests/session_props.rs`); this bench records the wall-clock side and
//! reconciles the session's reuse counters against the `accltl-obs` registry
//! delta.  Before/after medians are recorded in `CHANGES.md`.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use accltl_core::logic::bounded::{BoundedSearcher, SessionReport};
use accltl_core::obs::metrics;
use accltl_core::prelude::*;

const STEPS: usize = 12;
const PROPERTIES: usize = 4;

/// The Figure-1-shaped hidden instance at the given scale: per round, one
/// looked-up mobile entry and an address page with four residents (the same
/// shape as the `batch` and `overlay` bench workloads).
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

/// The monitored access stream: steps 0 and 6 are fresh `AcM1` lookups
/// revealing one new `Mobile#` fact each; every other step repeats an
/// earlier lookup with the same response (zero delta).  The stream never
/// touches `Address`, so the properties' guard verdicts survive the fresh
/// steps too.
fn stream() -> Vec<(Access, Response)> {
    let lookup = |k: usize| {
        let name = format!("Fresh{k}");
        let access = Access::new("AcM1", tuple![name.as_str()]);
        let response: Response = [tuple![
            name.as_str(),
            "OX99ZZ",
            "New St",
            5_550_000 + k as i64
        ]]
        .into_iter()
        .collect();
        (access, response)
    };
    (0..STEPS)
        .map(|k| lookup(if k % 6 == 0 { k } else { 0 }))
        .collect()
}

/// Property k: the street→postcode and postcode→street FDs must keep
/// holding while a dataflow eventuality is pursued (the `batch` bench
/// property) — every guard mentions only `Address` and `IsBind(AcM1)`.
fn property(schema: &AccessSchema, k: usize) -> AccLtl {
    let street_to_postcode = properties::functional_dependency_formula(
        schema,
        &FunctionalDependency::new("Address", vec![0], 1),
    );
    let postcode_to_street = properties::functional_dependency_formula(
        schema,
        &FunctionalDependency::new("Address", vec![1], 0),
    );
    let dataflow = AccLtl::atom(PosFormula::exists(
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
    ));
    let mut eventuality = if k % 2 == 0 {
        AccLtl::finally(dataflow)
    } else {
        AccLtl::until(AccLtl::not(dataflow.clone()), dataflow)
    };
    for _ in 0..(k / 2) % 3 {
        eventuality = AccLtl::next(eventuality);
    }
    AccLtl::and(vec![street_to_postcode, postcode_to_street, eventuality])
}

/// The contractual digest of one (step, property) report.
type Digest = (SatOutcome, usize, usize, u64);

fn push_digests(reports: &[SearchReport<SatOutcome>], digests: &mut Vec<Digest>) {
    for report in reports {
        digests.push((
            report.verdict.clone(),
            report.explored,
            report.cost,
            report.cache.total(),
        ));
    }
}

/// Runs the whole stream through one session and returns the per-step
/// reports plus the contractual digest of every (step, property) report.
fn run_session(
    schema: &AccessSchema,
    initial: &Instance,
    batch: &[AccLtl],
) -> (Vec<SessionReport>, Vec<Digest>) {
    let searcher =
        BoundedSearcher::with_engine_config(schema, initial, false, EngineConfig::base());
    let mut session = searcher.open_session(batch);
    let mut reports = vec![session.last_report().clone()];
    let mut digests = Vec::new();
    push_digests(session.reports(), &mut digests);
    for (access, response) in stream() {
        let report = session
            .step(&access, &response)
            .expect("well-formed access")
            .clone();
        reports.push(report);
        push_digests(session.reports(), &mut digests);
    }
    (reports, digests)
}

/// The from-scratch re-check: a fresh `BoundedSearcher::run_batch` over the
/// grown instance before the stream and after every step, returning the
/// same digests as [`run_session`].
fn run_scratch(schema: &AccessSchema, initial: &Instance, batch: &[AccLtl]) -> Vec<Digest> {
    let mut current = initial.clone();
    let mut digests = Vec::new();
    let check = |current: &Instance, digests: &mut Vec<Digest>| {
        let searcher =
            BoundedSearcher::with_engine_config(schema, current, false, EngineConfig::base());
        push_digests(&searcher.run_batch(batch), digests);
    };
    check(&current, &mut digests);
    for (access, response) in stream() {
        let relation = schema
            .require_method(access.method)
            .expect("well-formed access")
            .relation_id();
        for tuple in response {
            current.add_fact(relation, tuple);
        }
        check(&current, &mut digests);
    }
    digests
}

/// One-shot correctness + accounting pass printed before the timed groups:
/// byte-identical digests session-vs-scratch, the session's reuse counters
/// reconciled against the obs registry delta, and the measured speedup of
/// the ×16 stream (the acceptance threshold is ≥3× at 8 steps).
fn print_reconciliation() {
    let schema = phone_directory_access_schema();
    let initial = scaled_initial(16);
    let batch: Vec<AccLtl> = (0..PROPERTIES).map(|k| property(&schema, k)).collect();

    let before = metrics::snapshot();
    let start = Instant::now();
    let (reports, session_digests) = run_session(&schema, &initial, &batch);
    let session_time = start.elapsed();
    let delta = metrics::snapshot().delta(&before);

    let reused: u64 = reports.iter().map(|r| r.reused).sum();
    let recomputed: u64 = reports.iter().map(|r| r.recomputed).sum();
    assert_eq!(
        delta.counter("session.reused"),
        reused,
        "session.reused diverged from the registry delta"
    );
    assert_eq!(
        delta.counter("session.recomputed"),
        recomputed,
        "session.recomputed diverged from the registry delta"
    );
    assert_eq!(delta.counter("session.steps"), (STEPS + 1) as u64);

    let start = Instant::now();
    let scratch_digests = run_scratch(&schema, &initial, &batch);
    let scratch_time = start.elapsed();
    assert_eq!(
        session_digests, scratch_digests,
        "session and from-scratch digests diverged"
    );

    let speedup = scratch_time.as_secs_f64() / session_time.as_secs_f64().max(1e-9);
    println!("\n=== monitor session vs from-scratch (×16 Fig-1, {STEPS} steps) ===");
    println!("  reused={reused} recomputed={recomputed} (reconciled against obs registry)");
    println!(
        "  session={:.1?} scratch={:.1?} speedup={speedup:.1}x",
        session_time, scratch_time
    );
}

fn bench_monitor(c: &mut Criterion) {
    print_reconciliation();
    let schema = phone_directory_access_schema();
    let mut group = c.benchmark_group("monitor");
    group.sample_size(10);
    for scale in [1usize, 4, 16] {
        let initial = scaled_initial(scale);
        let batch: Vec<AccLtl> = (0..PROPERTIES).map(|k| property(&schema, k)).collect();
        group.bench_with_input(BenchmarkId::new("session", scale), &scale, |b, _| {
            b.iter(|| run_session(&schema, &initial, &batch).0.len());
        });
        group.bench_with_input(BenchmarkId::new("scratch", scale), &scale, |b, _| {
            b.iter(|| run_scratch(&schema, &initial, &batch).len());
        });
    }
    group.finish();
}

criterion_group!(benches, bench_monitor);
criterion_main!(benches);
