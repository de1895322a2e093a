//! What every workload shares: the op interface, verdicts and their digest,
//! the counters an op's reports add up to, the pinned configurations, and
//! the witness replays that check verdicts without the engine.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};

use accltl_core::automata::EmptinessConfig;
use accltl_core::prelude::*;
use accltl_core::ContainmentOutcome;

use crate::trace::Tracer;

/// One answer of an op.
#[derive(Debug)]
pub enum Verdict {
    Sat(SatOutcome),
    Containment(ContainmentOutcome),
    Ltr(LtrVerdict),
    /// The maximal answers of a query.
    Answers(BTreeSet<Tuple>),
    /// The shape of an explored LTS fragment (the digest reads every
    /// field through `Debug`).
    #[allow(dead_code)]
    Lts {
        nodes: usize,
        edges: usize,
        truncated: bool,
    },
    /// The analyzer's initial instance after constraint repair, and whether
    /// it satisfies every constraint.
    Repair {
        consistent: bool,
        instance: Instance,
    },
}

impl Verdict {
    /// The verdict with any witness path left out.
    fn surface(&self) -> String {
        match self {
            Verdict::Sat(SatOutcome::Satisfiable { .. }) => "satisfiable".into(),
            Verdict::Sat(other) => format!("{other:?}"),
            Verdict::Containment(ContainmentOutcome::NotContained { .. }) => "not_contained".into(),
            Verdict::Containment(other) => format!("{other:?}"),
            Verdict::Ltr(LtrVerdict::Relevant { .. }) => "relevant".into(),
            Verdict::Ltr(other) => format!("{other:?}"),
            other => format!("{other:?}"),
        }
    }

    /// False for the verdicts that say the engine could not decide.
    pub fn decided(&self) -> bool {
        !matches!(
            self,
            Verdict::Sat(SatOutcome::Unknown { .. })
                | Verdict::Containment(ContainmentOutcome::Unknown)
                | Verdict::Ltr(LtrVerdict::Unknown)
        )
    }
}

/// Report totals of one op, for reconciliation against the registry and for
/// the layer counts no registry counter carries.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counted {
    /// `RunReport`/`SearchReport` explored, over searches that ran.
    pub explored: u64,
    pub cost: u64,
    pub guard_consults: u64,
    pub session_reused: u64,
    pub session_recomputed: u64,
    pub session_replayed: u64,
    pub chase_passes: u64,
    pub chase_violation_checks: u64,
    pub lts_nodes: u64,
    /// Explored states of automaton-emptiness searches alone.
    pub emptiness_explored: u64,
    pub relevance_calls: u64,
    pub answerability_accesses: u64,
    pub containment_questions: u64,
    pub containment_shortcuts: u64,
}

impl Counted {
    pub fn add(&mut self, other: &Counted) {
        self.explored += other.explored;
        self.cost += other.cost;
        self.guard_consults += other.guard_consults;
        self.session_reused += other.session_reused;
        self.session_recomputed += other.session_recomputed;
        self.session_replayed += other.session_replayed;
        self.chase_passes += other.chase_passes;
        self.chase_violation_checks += other.chase_violation_checks;
        self.lts_nodes += other.lts_nodes;
        self.emptiness_explored += other.emptiness_explored;
        self.relevance_calls += other.relevance_calls;
        self.answerability_accesses += other.answerability_accesses;
        self.containment_questions += other.containment_questions;
        self.containment_shortcuts += other.containment_shortcuts;
    }

    /// Adds a search front-end report's counters.
    pub fn search<V>(&mut self, report: &SearchReport<V>) {
        self.explored += report.explored as u64;
        self.cost += report.cost as u64;
        self.guard_consults += report.cache.total();
    }
}

/// The result of one op.
#[derive(Debug, Default)]
pub struct Outcome {
    pub verdicts: Vec<Verdict>,
    pub counted: Counted,
}

impl Outcome {
    /// A digest of the verdicts without their witnesses.  Which of several
    /// valid witnesses a search returns can depend on what the process ran
    /// before, so repeated runs of one op compare this digest, and the
    /// verification pass replays the witnesses.
    pub fn digest(&self) -> u64 {
        hash(
            &self
                .verdicts
                .iter()
                .map(Verdict::surface)
                .collect::<Vec<_>>(),
        )
    }

    /// A digest of the verdicts with their witnesses.
    pub fn witness_digest(&self) -> u64 {
        hash(&format!("{:?}", self.verdicts))
    }
}

fn hash(value: &impl Hash) -> u64 {
    let mut hasher = DefaultHasher::new();
    value.hash(&mut hasher);
    hasher.finish()
}

/// A seeded workload: a fixed pass of ops, run untraced through
/// `AccessAnalyzer` or traced through the layers it dispatches to.
pub trait Workload {
    /// Ops in one pass; the timed loops cycle through passes.
    fn pass_len(&self) -> usize;

    /// The ops set-up runs once to warm lazily built state: one of each
    /// kind, so that set-up cost does not depend on the seed's op order.
    fn warm_up_ops(&self) -> Vec<usize>;

    /// Untimed preparation before op `index` (monitoring sessions open
    /// here).
    fn prepare(&mut self, _index: usize, _traced: bool) -> Result<(), String> {
        Ok(())
    }

    /// Runs op `index` through the public `AccessAnalyzer` API.
    fn run(&mut self, index: usize) -> Result<Outcome, String>;

    /// Runs op `index` through direct calls into each layer, in the
    /// analyzer's own dispatch order, under `tracer` spans.  Must return the
    /// verdicts `run` returns.
    fn run_traced(&mut self, index: usize, tracer: &mut Tracer) -> Result<Outcome, String>;

    /// Checks op `index`'s verdicts against semantics independent of the
    /// engine.  Untimed.
    fn check(&mut self, index: usize, outcome: &Outcome) -> Result<(), String>;

    /// Input properties of this seed's inputs, as `(name, value)`.
    fn input_properties(&self) -> Vec<(&'static str, f64)>;
}

/// Bounded-search budgets of every analyzer: the defaults at one thread.
pub fn search_config() -> BoundedSearchConfig {
    BoundedSearchConfig {
        threads: 1,
        ..BoundedSearchConfig::default()
    }
}

/// Emptiness budgets of every analyzer: the defaults at one thread.
pub fn emptiness_config() -> EmptinessConfig {
    EmptinessConfig {
        threads: 1,
        ..EmptinessConfig::default()
    }
}

/// The engine configuration passed explicitly with every `check_all`.
pub fn engine_config() -> EngineConfig {
    EngineConfig::base()
}

/// An analyzer over `schema` and `initial` with the pinned budgets.
pub fn analyzer(schema: AccessSchema, initial: Instance) -> AccessAnalyzer {
    AccessAnalyzer::new(schema)
        .with_initial(initial)
        .with_search_config(search_config())
        .with_emptiness_config(emptiness_config())
}

/// The Figure-1-shaped instance at the given scale: per round, one
/// looked-up mobile entry and an address page with four residents.
pub fn scaled_initial(scale: usize) -> Instance {
    let mut instance = Instance::new();
    for s in 0..scale {
        let street = format!("Street{s}");
        let postcode = format!("OX{s}QD");
        instance.add_fact(
            "Mobile#",
            mobile(&format!("Resident{s}_0"), &postcode, &street, s),
        );
        for h in 0..4usize {
            instance.add_fact(
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
    instance
}

/// A `Mobile#(name, postcode, street, phone)` fact.
pub fn mobile(name: &str, postcode: &str, street: &str, k: usize) -> Tuple {
    tuple![name, postcode, street, 5_551_000 + k as i64]
}

/// Property k of the Fig-1 FD-guarded dataflow family: the street→postcode
/// and postcode→street FDs keep holding while an `AcM1` access is bound to a
/// name already revealed in `Address`, as a plain `F` or an until-shape,
/// deferred by up to two `X`s.
pub fn fd_property(schema: &AccessSchema, k: usize) -> AccLtl {
    let fd = |lhs: usize, rhs: usize| {
        properties::functional_dependency_formula(
            schema,
            &FunctionalDependency::new("Address", vec![lhs], rhs),
        )
    };
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
    let mut eventuality = if k.is_multiple_of(2) {
        AccLtl::finally(dataflow)
    } else {
        AccLtl::until(AccLtl::not(dataflow.clone()), dataflow)
    };
    for _ in 0..(k / 2) % 3 {
        eventuality = AccLtl::next(eventuality);
    }
    AccLtl::and(vec![fd(0, 1), fd(1, 0), eventuality])
}

/// True for the fragments decided under the 0-ary `IsBind` interpretation.
pub fn zero_ary(fragment: Fragment) -> bool {
    matches!(
        fragment,
        Fragment::XZeroAry | Fragment::ZeroAry | Fragment::ZeroAryWithInequalities
    )
}

/// A satisfiability verdict's witness must satisfy the formula under
/// `AccLtl::holds_on_path`, the path semantics, not the search.
pub fn check_sat(
    outcome: &SatOutcome,
    formula: &AccLtl,
    schema: &AccessSchema,
    initial: &Instance,
) -> Result<(), String> {
    let SatOutcome::Satisfiable { witness } = outcome else {
        return Ok(());
    };
    let zero = zero_ary(classify(formula));
    match formula.holds_on_path(witness, schema, initial, zero) {
        Ok(true) => Ok(()),
        Ok(false) => Err(format!("witness {witness} does not satisfy {formula}")),
        Err(error) => Err(format!("witness {witness} is not a valid path: {error}")),
    }
}

/// The configuration an access path reaches from `initial`, through its
/// transitions.
fn reached(
    path: &AccessPath,
    schema: &AccessSchema,
    initial: &Instance,
) -> Result<Instance, String> {
    let transitions = path
        .transitions(schema, initial)
        .map_err(|error| format!("witness {path} is not a valid path: {error}"))?;
    Ok(transitions
        .last()
        .map_or_else(|| initial.clone(), |last| last.after.clone()))
}

/// A relevance witness replayed under the semantics of the procedure that
/// produced it.  Without disjointness constraints (the combinatorial
/// procedure) the witness starts with the access, and the query holds after
/// it but not after dropping that first step.  With constraints (the
/// Proposition 4.4 automaton) the access is made at some step where the
/// query did not hold before but holds after, and the path ends in a
/// configuration that respects the constraints.
pub fn check_ltr(
    verdict: &LtrVerdict,
    access: &Access,
    query: &UnionOfCqs,
    disjointness: &[DisjointnessConstraint],
    schema: &AccessSchema,
    initial: &Instance,
) -> Result<(), String> {
    let LtrVerdict::Relevant { witness } = verdict else {
        return Ok(());
    };
    if disjointness.is_empty() {
        if witness.accesses().next() != Some(access) {
            return Err(format!(
                "relevance witness {witness} does not start with {access}"
            ));
        }
        if !query.holds(&reached(witness, schema, initial)?) {
            return Err(format!("query fails after relevance witness {witness}"));
        }
        if query.holds(&reached(&witness.without_first(), schema, initial)?) {
            return Err(format!("query holds without the first access of {witness}"));
        }
        return Ok(());
    }
    let transitions = witness
        .transitions(schema, initial)
        .map_err(|error| format!("witness {witness} is not a valid path: {error}"))?;
    let flips = transitions
        .iter()
        .any(|t| &t.access == access && !query.holds(&t.before) && query.holds(&t.after));
    if !flips {
        return Err(format!(
            "no step of {witness} makes {access} flip the query"
        ));
    }
    let end = reached(witness, schema, initial)?;
    for constraint in disjointness {
        if !Constraint::Disjoint(constraint.clone()).satisfied(&end) {
            return Err(format!(
                "relevance witness {witness} violates a disjointness constraint"
            ));
        }
    }
    Ok(())
}

/// A non-containment counterexample reaches a configuration where `q1`
/// holds and `q2` does not.
pub fn check_containment(
    outcome: &ContainmentOutcome,
    q1: &ConjunctiveQuery,
    q2: &ConjunctiveQuery,
    schema: &AccessSchema,
    initial: &Instance,
) -> Result<(), String> {
    let ContainmentOutcome::NotContained { counterexample } = outcome else {
        return Ok(());
    };
    let end = reached(counterexample, schema, initial)?;
    if q1.holds(&end) && !q2.holds(&end) {
        Ok(())
    } else {
        Err(format!(
            "counterexample {counterexample} does not separate {q1} from {q2}"
        ))
    }
}
