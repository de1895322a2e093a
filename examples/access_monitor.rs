//! Monitoring-session demo: opens an [`AccessAnalyzer::monitor`] session over
//! two properties of the phone-directory schema, feeds it a short stream of
//! concrete accesses, and prints the per-step verdicts and the long-term
//! relevance of the next candidate access.
//!
//! The session reuses the engine and guard-verdict caches across steps, and
//! its output is byte-identical for every `ACCLTL_SEARCH_THREADS` setting
//! (CI diffs 1 vs 4 threads).  Only the contractual counters (explored
//! states, cost, guard consults) are printed — the reused/recomputed split
//! legitimately varies with thread interleaving.
//!
//! Run with `cargo run --example access_monitor`.

use accltl_core::prelude::*;

fn verdict_label(outcome: &SatOutcome) -> String {
    match outcome {
        SatOutcome::Satisfiable { witness } => format!("satisfiable\n    witness: {witness}"),
        SatOutcome::Unsatisfiable => "unsatisfiable".to_string(),
        SatOutcome::Unknown { .. } => "unknown".to_string(),
    }
}

fn print_step(session: &MonitorSession<'_>, labels: &[&str]) {
    let report = session.last_report();
    println!(
        "step {}: explored={} cost={} guard_consults={}",
        report.step,
        report.explored,
        report.cost,
        report.guard.total()
    );
    for (index, label) in labels.iter().enumerate() {
        println!(
            "  {label}: {}",
            verdict_label(&session.still_satisfiable(index))
        );
    }
}

fn main() {
    let analyzer = AccessAnalyzer::new(phone_directory_access_schema());

    // Property 1 (0-ary fragment): eventually Jones's address is revealed.
    let jones_post = PosFormula::exists(
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
    );
    let eventually_jones = AccLtl::finally(AccLtl::atom(jones_post));

    // Property 2 (AccLTL+, bounded fallback in a session): an AcM1 access
    // whose bound name was previously revealed in Address^pre.
    let dataflow = AccLtl::finally(AccLtl::atom(PosFormula::exists(
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
    )));

    let labels = ["F [Jones revealed]", "F [AcM1 bound to a revealed name]"];
    let mut session = analyzer.monitor(&[eventually_jones, dataflow]);
    print_step(&session, &labels);

    // The runtime question between steps: is another AcM1("Jones") access
    // still relevant to Jones's mobile number?
    let jones_mobile = UnionOfCqs::single(cq!(<- atom!("Mobile#"; @"Jones", p, s, ph)));
    let candidate = Access::new("AcM1", tuple!["Jones"]);

    let stream: Vec<(Access, Response)> = vec![
        (
            Access::new("AcM2", tuple!["Parks Rd", "OX13QD"]),
            [tuple!["Parks Rd", "OX13QD", "Jones", "1"]]
                .into_iter()
                .collect(),
        ),
        (
            Access::new("AcM1", tuple!["Jones"]),
            [tuple!["Jones", "OX13QD", "Parks Rd", "5551212"]]
                .into_iter()
                .collect(),
        ),
        // A repeat of the same access: reveals nothing new, so a session
        // replays the previous verdicts without re-searching.
        (
            Access::new("AcM1", tuple!["Jones"]),
            [tuple!["Jones", "OX13QD", "Parks Rd", "5551212"]]
                .into_iter()
                .collect(),
        ),
    ];

    for (access, response) in &stream {
        let relevant = match session.still_relevant(access, &jones_mobile, false) {
            LtrVerdict::Relevant { .. } => "relevant",
            LtrVerdict::NotRelevant => "not relevant",
            LtrVerdict::Unknown => "unknown",
        };
        println!("next access {access}: {relevant} to Jones's mobile number");
        session.step(access, response).expect("well-formed access");
        print_step(&session, &labels);
    }

    let relevant = match session.still_relevant(&candidate, &jones_mobile, false) {
        LtrVerdict::Relevant { .. } => "relevant",
        LtrVerdict::NotRelevant => "not relevant",
        LtrVerdict::Unknown => "unknown",
    };
    println!("next access {candidate}: {relevant} to Jones's mobile number");

    // One-shot counter/timing summary, printed only under ACCLTL_STATS=1.
    accltl_core::obs::summary::print_if_enabled();
}
