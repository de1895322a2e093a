//! Satisfiability front-ends for the language fragments of Table 1.
//!
//! Each function checks that the formula syntactically belongs to the
//! fragment it implements, then dispatches to the bounded-universe engine of
//! [`crate::bounded`] with the interpretation (0-ary vs full `IsBind`) and the
//! verdict policy appropriate for that fragment:
//!
//! | Fragment | Engine interpretation | "no witness found" means |
//! |---|---|---|
//! | `AccLTL(X)(FO∃+[,≠]0−Acc)` (ΣP2) | 0-ary | unsatisfiable |
//! | `AccLTL(FO∃+[,≠]0−Acc)` (PSPACE) | 0-ary | unsatisfiable |
//! | `AccLTL+` (≤3EXPTIME) | full bindings | unsatisfiable within the Boundedness-Lemma witness space (the A-automaton pipeline in `accltl-automata` is the reference procedure) |
//! | `AccLTL(FO∃+[,≠]Acc)` (undecidable) | full bindings | unknown |

use std::fmt;

use accltl_paths::AccessSchema;
use accltl_relational::Instance;

use crate::accltl::AccLtl;
use crate::bounded::{BoundedSearchConfig, BoundedSearcher, SatOutcome};
use crate::fragment::{belongs_to, classify, Fragment};

/// Errors raised by the solver front-ends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolverError {
    /// The formula does not belong to the fragment the solver implements.
    WrongFragment {
        /// The fragment the solver expects.
        expected: Fragment,
        /// The most specific fragment the formula belongs to.
        found: Fragment,
    },
}

impl fmt::Display for SolverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolverError::WrongFragment { expected, found } => write!(
                f,
                "formula belongs to {found}, which is not included in {expected}"
            ),
        }
    }
}

impl std::error::Error for SolverError {}

fn require_fragment(formula: &AccLtl, expected: Fragment) -> Result<(), SolverError> {
    if belongs_to(formula, expected) {
        Ok(())
    } else {
        Err(SolverError::WrongFragment {
            expected,
            found: classify(formula),
        })
    }
}

/// Satisfiability of an `AccLTL(FO∃+[,≠]0−Acc)` formula (Theorem 4.12 / 5.1,
/// PSPACE).  The `IsBind` predicates are interpreted as 0-ary propositions.
pub fn sat_zero_fragment(
    formula: &AccLtl,
    schema: &AccessSchema,
    initial: &Instance,
    config: &BoundedSearchConfig,
) -> Result<SatOutcome, SolverError> {
    require_fragment(formula, Fragment::ZeroAryWithInequalities)?;
    Ok(BoundedSearcher::new(schema, initial, true, *config)
        .run(formula)
        .verdict)
}

/// Satisfiability of an `AccLTL(X)(FO∃+[,≠]0−Acc)` formula (Theorem 4.14 /
/// 5.1, ΣP2).  Identical to [`sat_zero_fragment`] except that the fragment
/// check additionally requires the formula to use only the `X` temporal
/// operator, which bounds witness paths by the `X`-nesting depth.
pub fn sat_x_fragment(
    formula: &AccLtl,
    schema: &AccessSchema,
    initial: &Instance,
    config: &BoundedSearchConfig,
) -> Result<SatOutcome, SolverError> {
    require_fragment(formula, Fragment::XZeroAry)?;
    Ok(BoundedSearcher::new(schema, initial, true, *config)
        .run(formula)
        .verdict)
}

/// Bounded satisfiability of an `AccLTL+` (binding-positive) formula
/// (Theorem 4.2).
///
/// A returned witness is always genuine.  A `Unsatisfiable` verdict certifies
/// that no witness exists within the Boundedness-Lemma fact universe and the
/// configured response/binding caps; the automaton pipeline of
/// `accltl-automata` (translate → progressive decomposition → Datalog
/// containment) is the paper's reference decision procedure and is exposed
/// through `accltl-core`.
pub fn sat_binding_positive_bounded(
    formula: &AccLtl,
    schema: &AccessSchema,
    initial: &Instance,
    config: &BoundedSearchConfig,
) -> Result<SatOutcome, SolverError> {
    require_fragment(formula, Fragment::BindingPositive)?;
    Ok(BoundedSearcher::new(schema, initial, false, *config)
        .run(formula)
        .verdict)
}

/// Bounded satisfiability for the full (undecidable) languages
/// `AccLTL(FO∃+[,≠]Acc)` (Theorems 3.1 and 5.2).
///
/// Finding a witness is sound; failing to find one proves nothing, so the
/// `Unsatisfiable` outcome of the engine is downgraded to `Unknown`.
#[must_use]
pub fn sat_full_bounded(
    formula: &AccLtl,
    schema: &AccessSchema,
    initial: &Instance,
    config: &BoundedSearchConfig,
) -> SatOutcome {
    match BoundedSearcher::new(schema, initial, false, *config)
        .run(formula)
        .verdict
    {
        SatOutcome::Unsatisfiable => SatOutcome::Unknown { explored: 0 },
        other => other,
    }
}

/// Validity of a formula over all access paths of the schema (bounded): a
/// formula is valid iff its negation is unsatisfiable.  The verdict inherits
/// the caveats of the underlying satisfiability procedure for the negation's
/// fragment.
#[must_use]
pub fn valid_bounded(
    formula: &AccLtl,
    schema: &AccessSchema,
    initial: &Instance,
    config: &BoundedSearchConfig,
) -> ValidityOutcome {
    let negation = AccLtl::not(formula.clone());
    let zero_ary = belongs_to(&negation, Fragment::ZeroAryWithInequalities);
    let outcome = BoundedSearcher::new(schema, initial, zero_ary, *config)
        .run(&negation)
        .verdict;
    match outcome {
        SatOutcome::Satisfiable { witness } => ValidityOutcome::NotValid {
            counterexample: witness,
        },
        SatOutcome::Unsatisfiable => ValidityOutcome::Valid,
        SatOutcome::Unknown { explored } => ValidityOutcome::Unknown { explored },
    }
}

/// Outcome of a validity check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidityOutcome {
    /// Every access path satisfies the formula (within the engine's
    /// completeness guarantees for the negation's fragment).
    Valid,
    /// A counterexample path was found.
    NotValid {
        /// A path violating the formula.
        counterexample: accltl_paths::AccessPath,
    },
    /// The search budget was exhausted.
    Unknown {
        /// Number of states explored.
        explored: usize,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vocabulary::{isbind_atom, isbind_prop, post_atom};
    use accltl_paths::access::phone_directory_access_schema;
    use accltl_relational::{PosFormula, Term};

    fn jones_post() -> PosFormula {
        PosFormula::exists(
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
        )
    }

    #[test]
    fn zero_fragment_solver_accepts_and_decides() {
        let schema = phone_directory_access_schema();
        let f = AccLtl::finally(AccLtl::atom(jones_post()));
        let outcome = sat_zero_fragment(
            &f,
            &schema,
            &Instance::new(),
            &BoundedSearchConfig::default(),
        )
        .unwrap();
        assert!(outcome.is_satisfiable());

        let unsat = AccLtl::and(vec![
            AccLtl::globally(AccLtl::not(AccLtl::atom(jones_post()))),
            AccLtl::finally(AccLtl::atom(jones_post())),
        ]);
        let outcome = sat_zero_fragment(
            &unsat,
            &schema,
            &Instance::new(),
            &BoundedSearchConfig::default(),
        )
        .unwrap();
        assert_eq!(outcome, SatOutcome::Unsatisfiable);
    }

    #[test]
    fn zero_fragment_solver_rejects_binding_formulas() {
        let schema = phone_directory_access_schema();
        let binding_formula = AccLtl::finally(AccLtl::atom(PosFormula::exists(
            vec!["n"],
            isbind_atom("AcM1", vec![Term::var("n")]),
        )));
        let err = sat_zero_fragment(
            &binding_formula,
            &schema,
            &Instance::new(),
            &BoundedSearchConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, SolverError::WrongFragment { .. }));
        assert!(err.to_string().contains("AccLTL+"));
    }

    #[test]
    fn x_fragment_requires_x_only() {
        let schema = phone_directory_access_schema();
        let x_formula = AccLtl::next(AccLtl::atom(isbind_prop("AcM2")));
        assert!(sat_x_fragment(
            &x_formula,
            &schema,
            &Instance::new(),
            &BoundedSearchConfig::default()
        )
        .unwrap()
        .is_satisfiable());

        let until_formula = AccLtl::finally(AccLtl::atom(isbind_prop("AcM2")));
        assert!(sat_x_fragment(
            &until_formula,
            &schema,
            &Instance::new(),
            &BoundedSearchConfig::default()
        )
        .is_err());
    }

    #[test]
    fn binding_positive_solver_accepts_plus_formulas_only() {
        let schema = phone_directory_access_schema();
        let plus = AccLtl::finally(AccLtl::atom(PosFormula::exists(
            vec!["n"],
            isbind_atom("AcM1", vec![Term::var("n")]),
        )));
        assert!(sat_binding_positive_bounded(
            &plus,
            &schema,
            &Instance::new(),
            &BoundedSearchConfig::default()
        )
        .unwrap()
        .is_satisfiable());

        let not_plus = AccLtl::globally(AccLtl::not(AccLtl::atom(PosFormula::exists(
            vec!["n"],
            isbind_atom("AcM1", vec![Term::var("n")]),
        ))));
        assert!(sat_binding_positive_bounded(
            &not_plus,
            &schema,
            &Instance::new(),
            &BoundedSearchConfig::default()
        )
        .is_err());
    }

    #[test]
    fn full_bounded_downgrades_unsat_to_unknown() {
        let schema = phone_directory_access_schema();
        // "Globally no AcM1 access is ever made (with any binding)" — a
        // non-binding-positive formula; satisfiable, and witnessed by an AcM2
        // access.
        let no_acm1 = AccLtl::globally(AccLtl::not(AccLtl::atom(PosFormula::exists(
            vec!["n"],
            isbind_atom("AcM1", vec![Term::var("n")]),
        ))));
        let outcome = sat_full_bounded(
            &no_acm1,
            &schema,
            &Instance::new(),
            &BoundedSearchConfig::default(),
        );
        assert!(outcome.is_satisfiable());

        // A contradiction in the full language: the engine cannot find a
        // witness, and the verdict must be Unknown (not Unsatisfiable).
        let contradiction = AccLtl::and(vec![
            no_acm1.clone(),
            AccLtl::finally(AccLtl::atom(PosFormula::exists(
                vec!["n"],
                isbind_atom("AcM1", vec![Term::var("n")]),
            ))),
        ]);
        let outcome = sat_full_bounded(
            &contradiction,
            &schema,
            &Instance::new(),
            &BoundedSearchConfig::default(),
        );
        assert!(matches!(outcome, SatOutcome::Unknown { .. }));
    }

    #[test]
    fn validity_of_tautologies_and_counterexamples() {
        let schema = phone_directory_access_schema();
        // "Every path eventually uses AcM1 or does not" — a tautology.
        let tautology = AccLtl::or(vec![
            AccLtl::finally(AccLtl::atom(isbind_prop("AcM1"))),
            AccLtl::not(AccLtl::finally(AccLtl::atom(isbind_prop("AcM1")))),
        ]);
        assert_eq!(
            valid_bounded(
                &tautology,
                &schema,
                &Instance::new(),
                &BoundedSearchConfig::default()
            ),
            ValidityOutcome::Valid
        );

        // "Every path eventually uses AcM1" — not valid; the counterexample
        // uses only AcM2.
        let not_valid = AccLtl::finally(AccLtl::atom(isbind_prop("AcM1")));
        let outcome = valid_bounded(
            &not_valid,
            &schema,
            &Instance::new(),
            &BoundedSearchConfig::default(),
        );
        let ValidityOutcome::NotValid { counterexample } = outcome else {
            panic!("expected a counterexample");
        };
        assert!(counterexample.accesses().all(|a| a.method != "AcM1"));
    }
}
