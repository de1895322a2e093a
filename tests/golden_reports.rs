//! Golden bounded-search reports: verdict, witness, explored states, charged
//! cost and guard-consult total of every Table 1 row (sizes 1–3), the
//! dataflow property, Jones-reachability, a contradiction and an
//! access-order constraint, over the ×1 and ×4 scaled Fig-1 instances on 1
//! and 4 worker threads.
//!
//! The expected lines in `tests/golden/bounded_reports.txt` were recorded
//! from the search before obligations were hash-consed; they pin the
//! contract that changes to the search's internals (state representation,
//! memoization, interning) never move a report.  On a mismatch the test
//! prints the first differing line and the full actual rendering.

mod common;

use accltl_bench::{table1_formula, table1_rows};
use accltl_core::logic::bounded::BoundedSearcher;
use accltl_core::prelude::*;

use common::{dataflow_formula, digest, jones_post, mobile_pre, scaled_initial};

const GOLDEN: &str = include_str!("golden/bounded_reports.txt");

/// The pinned properties, each with a stable label.
fn properties() -> Vec<(String, AccLtl)> {
    let mut properties = Vec::new();
    for row in table1_rows() {
        for size in 1..=3 {
            properties.push((format!("{row:?}/{size}"), table1_formula(row, size)));
        }
    }
    properties.push(("dataflow".to_string(), dataflow_formula()));
    properties.push(("jones_post".to_string(), jones_post()));
    // An unsatisfiable contradiction and an access-order constraint.
    properties.push((
        "never_and_eventually_jones".to_string(),
        AccLtl::and(vec![
            AccLtl::globally(AccLtl::not(jones_post())),
            AccLtl::finally(jones_post()),
        ]),
    ));
    properties.push((
        "mobile_after_acm2".to_string(),
        AccLtl::and(vec![
            AccLtl::until(AccLtl::not(mobile_pre()), AccLtl::atom(isbind_prop("AcM2"))),
            AccLtl::finally(mobile_pre()),
        ]),
    ));
    properties
}

/// Runs one property standalone and renders its contractual digest.
fn render(
    schema: &AccessSchema,
    initial: &Instance,
    threads: usize,
    label: &str,
    formula: &AccLtl,
) -> String {
    // The zero fragments run under the 0-ary interpretation, everything
    // else with bindings materialized (as `AccessAnalyzer` routes them).
    let zero_ary = matches!(
        classify(formula),
        Fragment::XZeroAry | Fragment::ZeroAry | Fragment::ZeroAryWithInequalities
    );
    let config = EngineConfig::base().threads(threads);
    let report =
        BoundedSearcher::with_engine_config(schema, initial, zero_ary, config).run(formula);
    let (verdict, explored, cost, consults) = digest(&report);
    let verdict = match verdict {
        SatOutcome::Satisfiable { witness } => format!("sat [{witness}]"),
        SatOutcome::Unsatisfiable => "unsat".to_string(),
        SatOutcome::Unknown { explored } => format!("unknown({explored})"),
    };
    format!("{label} t{threads}: {verdict} explored={explored} cost={cost} consults={consults}")
}

#[test]
fn bounded_reports_match_the_golden_file() {
    let schema = phone_directory_access_schema();
    let properties = properties();
    let mut actual = Vec::new();
    for scale in [1, 4] {
        let initial = scaled_initial(scale);
        for threads in [1, 4] {
            for (label, formula) in &properties {
                let label = format!("x{scale} {label}");
                actual.push(render(&schema, &initial, threads, &label, formula));
            }
        }
    }
    let expected: Vec<&str> = GOLDEN.lines().collect();
    for (index, line) in actual.iter().enumerate() {
        assert_eq!(
            Some(&line.as_str()),
            expected.get(index),
            "report {index} differs from the golden file; actual rendering:\n{}",
            actual.join("\n")
        );
    }
    assert_eq!(actual.len(), expected.len(), "golden file has extra lines");
}
