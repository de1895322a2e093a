//! Shared test-util module for the integration-test binaries: the Fig-1
//! phone-directory builders, formula shapes and report digests that
//! `guard_cache_props`, `batch_props`, `pool_props` and `session_props`
//! previously copy-pasted, plus the [`deadline`] watchdog for
//! multi-threaded tests.  Each binary includes this file via `mod common;`
//! and uses a subset, hence the `dead_code` allowance.
#![allow(dead_code)]

use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;
use std::{panic, thread};

use proptest::prelude::*;

use accltl_core::automata::{bounded_emptiness_batch_with_config, AAutomaton, EmptinessOutcome};
use accltl_core::prelude::*;

/// One automaton's emptiness report under an explicit engine configuration:
/// a one-automaton `bounded_emptiness_batch_with_config`, so an A/B pair
/// differs in exactly the [`EngineConfig`] it is given.
pub fn emptiness_with(
    automaton: &AAutomaton,
    schema: &AccessSchema,
    initial: &Instance,
    engine: EngineConfig,
) -> SearchReport<EmptinessOutcome> {
    bounded_emptiness_batch_with_config(&[automaton], schema, initial, engine)
        .pop()
        .expect("one automaton in, one report out")
}

/// How long [`deadline`] waits for one multi-threaded test (or proptest
/// case): far above any healthy run, far below a CI job's timeout.
const DEADLINE: Duration = Duration::from_secs(120);

/// Runs `body` on its own thread and returns its result, failing the
/// calling test with a message naming `what` if it has not finished within
/// [`DEADLINE`] — so a deadlocked pool or session fails fast instead of
/// hanging the test binary.  A panic inside `body` reaches the caller
/// unchanged.
pub fn deadline<R: Send + 'static>(what: &str, body: impl FnOnce() -> R + Send + 'static) -> R {
    let (send, receive) = mpsc::channel();
    let worker = thread::spawn(move || {
        // The receiver is gone only after a timeout, which already failed.
        let _ = send.send(body());
    });
    match receive.recv_timeout(DEADLINE) {
        Ok(result) => {
            worker.join().expect("the worker exits right after sending");
            result
        }
        Err(RecvTimeoutError::Disconnected) => match worker.join() {
            Err(payload) => panic::resume_unwind(payload),
            Ok(()) => unreachable!("the worker sends its result before exiting"),
        },
        Err(RecvTimeoutError::Timeout) => {
            panic!("{what} did not finish within {DEADLINE:?}: likely a deadlock")
        }
    }
}

/// The contractual part of a search report: verdict, explored states, cost
/// and the consult *total* (the hit/miss split is explicitly
/// non-contractual — sharing one cache across a batch, or across a session's
/// steps, moves consults from misses to hits without changing their number).
pub fn digest<V: Clone>(report: &SearchReport<V>) -> (V, usize, usize, u64) {
    (
        report.verdict.clone(),
        report.explored,
        report.cost,
        report.cache.total(),
    )
}

/// The digest that must additionally survive *changing* the thread count:
/// verdict, explored states and charged cost.  Consult totals are
/// chunk-structure-dependent (the frontier chunk length scales with the
/// thread count, and every expanded node consults guards even when an
/// earlier chunk neighbour's witness ends the merge early), so they are
/// compared within a thread count, never across.
pub fn core_digest<V: Clone>(report: &SearchReport<V>) -> (V, usize, usize) {
    (report.verdict.clone(), report.explored, report.cost)
}

/// Strategy: a random initial instance over the phone-directory schema.
pub fn random_initial() -> impl Strategy<Value = Instance> {
    proptest::collection::vec(any::<bool>(), 0..3).prop_map(|picks| {
        let mut initial = Instance::new();
        for (i, pick) in picks.into_iter().enumerate() {
            if pick {
                initial.add_fact("Address", tuple!["High St", "OX26NN", "Seed", i as i64]);
            } else {
                initial.add_fact("Mobile#", tuple!["Smith", "OX13QD", "Parks Rd", 5_551_212]);
            }
        }
        initial
    })
}

/// `∃ s p h. Address^post(s, p, "Jones", h)` — Jones's address revealed.
pub fn jones_post() -> AccLtl {
    AccLtl::atom(PosFormula::exists(
        vec!["s", "p", "h"],
        post_atom(
            "Address",
            vec![
                Term::var("s"),
                Term::var("p"),
                Term::constant("Jones"),
                Term::var("h"),
            ],
        ),
    ))
}

/// `∃ n p s ph. Mobile#^pre(n, p, s, ph)` — some mobile entry was known
/// before the transition.
pub fn mobile_pre() -> AccLtl {
    AccLtl::atom(PosFormula::exists(
        vec!["n", "p", "s", "ph"],
        pre_atom(
            "Mobile#",
            vec![
                Term::var("n"),
                Term::var("p"),
                Term::var("s"),
                Term::var("ph"),
            ],
        ),
    ))
}

/// The paper's dataflow property: eventually an AcM1 access is bound to a
/// name already revealed in `Address^pre` (binding-aware, so the `IsBind`
/// restriction of the cache keys is genuinely exercised).
pub fn dataflow_formula() -> AccLtl {
    AccLtl::finally(AccLtl::atom(PosFormula::exists(
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
    )))
}

/// Strategy: small formulas mixing satisfiable, unsatisfiable and
/// binding-aware shapes over the phone-directory vocabulary.
pub fn random_formula() -> impl Strategy<Value = AccLtl> {
    prop_oneof![
        Just(AccLtl::finally(jones_post())),
        Just(AccLtl::next(mobile_pre())),
        Just(AccLtl::and(vec![
            AccLtl::finally(jones_post()),
            AccLtl::finally(mobile_pre()),
        ])),
        Just(AccLtl::and(vec![
            AccLtl::globally(AccLtl::not(jones_post())),
            AccLtl::finally(jones_post()),
        ])),
        Just(AccLtl::until(
            AccLtl::not(mobile_pre()),
            AccLtl::atom(isbind_prop("AcM2")),
        )),
        Just(dataflow_formula()),
    ]
}

/// The Fig-1 workload scaled: `scale` streets, each with a looked-up mobile
/// entry and four address-page residents (the shape the `overlay`,
/// `guard_cache` and `monitor` benches use).
pub fn scaled_initial(scale: usize) -> Instance {
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
