//! Long-term relevance (LTR) of an access to a query (Example 2.3, \[3\]).
//!
//! An access `AC₁` is *long-term relevant* for a query `Q` on an initial
//! instance `I₀` if there is an access path `p = AC₁,r₁,AC₂,r₂,…` such that
//! the configuration reached by `p` satisfies `Q`, while the configuration
//! reached by the path with `AC₁` (and its response) dropped does not.
//! Intuitively: making the access can be the difference between discovering a
//! new query result and not discovering it.
//!
//! The decision procedure here follows the witness-shape argument the paper
//! uses for the X-fragment (Section 4.2): if a witness path exists at all,
//! one exists whose configuration is the homomorphic image of a single
//! disjunct of `Q` (so its length is at most `|Q|`), whose critical fact is
//! returned by `AC₁`, and whose values can be taken from the active domain of
//! `I₀`, the binding of `AC₁` and a set of fresh values, one per query
//! variable.  The search enumerates exactly that witness space:
//!
//! * under **unrestricted** ("independent") accesses, a candidate witness is
//!   accepted if every remaining fact lies on a relation that has some access
//!   method (any binding may be guessed);
//! * under **grounded** ("dependent") accesses, a candidate witness is
//!   accepted only if the remaining facts can be revealed in some order in
//!   which each access's binding values are already known — checked by a
//!   saturation over the candidate facts.
//!
//! The enumeration is capped; when the cap is hit the verdict is reported as
//! [`LtrVerdict::Unknown`] rather than silently answering `NotRelevant`.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use accltl_relational::cq::Assignment;
use accltl_relational::{
    Atom, ConjunctiveQuery, Instance, InstanceOverlay, RelId, Sym, Term, Tuple, UnionOfCqs, Value,
    VarId,
};

use crate::access::{Access, AccessSchema};
use crate::path::{AccessPath, Response};
use crate::Result;

/// Options for the long-term relevance check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LtrOptions {
    /// Restrict witness paths to grounded accesses ("dependent accesses" in
    /// \[3\]).  When false, arbitrary bindings may be guessed ("independent
    /// accesses").
    pub grounded: bool,
    /// Cap on the number of candidate variable assignments examined per query
    /// disjunct and per candidate critical atom.
    pub max_assignments: usize,
}

impl Default for LtrOptions {
    fn default() -> Self {
        LtrOptions {
            grounded: false,
            max_assignments: 200_000,
        }
    }
}

/// The verdict of the long-term relevance check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LtrVerdict {
    /// The access is long-term relevant; a witnessing access path is
    /// returned.  Its shape depends on the procedure that found it:
    ///
    /// * [`long_term_relevant`] (no constraints): the first step is the
    ///   access in question, and `Q` holds after the path but not after
    ///   dropping that first step;
    /// * the Proposition 4.4 automaton (`accltl-automata`'s `ltr_automaton`,
    ///   used under disjointness constraints): *some* step of the path is
    ///   the access in question, `Q` is false before that step and true
    ///   after it, and the constraints hold throughout the path.
    Relevant {
        /// A witness path, of one of the two shapes above.
        witness: AccessPath,
    },
    /// The access is not long-term relevant (within the enumerated witness
    /// space, which is complete unless the assignment cap was hit).
    NotRelevant,
    /// The assignment cap was reached before the witness space was exhausted.
    Unknown,
}

impl LtrVerdict {
    /// True if the verdict is `Relevant`.
    #[must_use]
    pub fn is_relevant(&self) -> bool {
        matches!(self, LtrVerdict::Relevant { .. })
    }
}

/// Decides long-term relevance of `access` for `query` over the initial
/// instance `initial`.
///
/// The query is treated as boolean (existentially closed); this matches
/// Example 2.3 of the paper.
pub fn long_term_relevant(
    schema: &AccessSchema,
    access: &Access,
    query: &UnionOfCqs,
    initial: &Instance,
    options: &LtrOptions,
) -> Result<LtrVerdict> {
    schema.validate_access(access)?;
    let method = schema.require_method(access.method)?;
    let relation = method.relation_id();

    // The active domain is needed by every candidate below (and by the
    // grounded saturation per assignment); compute it exactly once.
    let domain = initial.active_domain();

    // A grounded witness path must itself start with a grounded access.
    if options.grounded && !access.binding.values().iter().all(|v| domain.contains(v)) {
        return Ok(LtrVerdict::NotRelevant);
    }

    let mut cap_hit = false;
    // At most one clone for the whole check, created only when some critical
    // atom actually matches; every candidate witness below is an overlay over
    // this shared base instead of a fresh copy of the initial instance.
    let mut shared_initial: Option<Arc<Instance>> = None;

    for disjunct in &query.disjuncts {
        for (atom_index, atom) in disjunct.atoms.iter().enumerate() {
            if atom.predicate != relation {
                continue;
            }
            // Unify the candidate critical atom with the access binding on the
            // method's input positions.
            let Some(forced) = unify_with_binding(atom, method.input_positions(), &access.binding)
            else {
                continue;
            };
            let base = shared_initial.get_or_insert_with(|| Arc::new(initial.clone()));
            match search_assignments(
                schema, access, disjunct, atom_index, &forced, query, base, &domain, options,
            )? {
                SearchOutcome::Found(witness) => {
                    return Ok(LtrVerdict::Relevant { witness });
                }
                SearchOutcome::Exhausted => {}
                SearchOutcome::CapHit => cap_hit = true,
            }
        }
    }

    Ok(if cap_hit {
        LtrVerdict::Unknown
    } else {
        LtrVerdict::NotRelevant
    })
}

enum SearchOutcome {
    Found(AccessPath),
    Exhausted,
    CapHit,
}

/// Unifies an atom's terms at the given input positions with the binding
/// values; returns the forced partial assignment, or `None` when a constant
/// clashes.
fn unify_with_binding(
    atom: &Atom,
    input_positions: &[usize],
    binding: &Tuple,
) -> Option<Assignment> {
    let mut forced = Assignment::new();
    for (&position, value) in input_positions.iter().zip(binding.values()) {
        match atom.terms.get(position)? {
            Term::Const(c) => {
                if c != value {
                    return None;
                }
            }
            Term::Var(v) => {
                if let Some(existing) = forced.get(*v) {
                    if existing != value {
                        return None;
                    }
                }
                forced.insert(*v, *value);
            }
        }
    }
    Some(forced)
}

#[allow(clippy::too_many_arguments)]
fn search_assignments(
    schema: &AccessSchema,
    access: &Access,
    disjunct: &ConjunctiveQuery,
    critical_atom: usize,
    forced: &Assignment,
    query: &UnionOfCqs,
    initial: &Arc<Instance>,
    domain: &BTreeSet<Value>,
    options: &LtrOptions,
) -> Result<SearchOutcome> {
    let variables: Vec<VarId> = disjunct
        .body_variables()
        .into_iter()
        .filter(|v| !forced.contains_var(*v))
        .collect();

    // Candidate values: active domain of the initial instance, the binding
    // values, and one fresh value per remaining variable (fresh values are
    // interchangeable, so one per variable suffices for completeness).
    let mut candidates: Vec<Value> = domain.iter().copied().collect();
    candidates.extend(access.binding.values().iter().copied());
    for (i, _) in variables.iter().enumerate() {
        candidates.push(Value::str(format!("\u{2605}fresh{i}")));
    }
    candidates.sort();
    candidates.dedup();

    let total: u128 = (candidates.len() as u128)
        .checked_pow(variables.len() as u32)
        .unwrap_or(u128::MAX);
    let capped = total > options.max_assignments as u128;
    let limit = if capped {
        options.max_assignments
    } else {
        total as usize
    };

    let mut indices = vec![0usize; variables.len()];
    for iteration in 0..limit.max(1) {
        if !variables.is_empty() && iteration > 0 {
            // Advance the mixed-radix counter.
            let mut i = 0;
            loop {
                indices[i] += 1;
                if indices[i] < candidates.len() {
                    break;
                }
                indices[i] = 0;
                i += 1;
                if i == variables.len() {
                    return Ok(if capped {
                        SearchOutcome::CapHit
                    } else {
                        SearchOutcome::Exhausted
                    });
                }
            }
        }
        let mut assignment = forced.clone();
        for (var, &index) in variables.iter().zip(&indices) {
            assignment.insert(*var, candidates[index]);
        }
        if let Some(witness) = try_witness(
            schema,
            access,
            disjunct,
            critical_atom,
            &assignment,
            query,
            initial,
            domain,
            options,
        )? {
            return Ok(SearchOutcome::Found(witness));
        }
        if variables.is_empty() {
            break;
        }
    }
    Ok(if capped {
        SearchOutcome::CapHit
    } else {
        SearchOutcome::Exhausted
    })
}

/// Checks whether one concrete assignment yields a long-term-relevance
/// witness and, if so, constructs the witness path.
#[allow(clippy::too_many_arguments)]
fn try_witness(
    schema: &AccessSchema,
    access: &Access,
    disjunct: &ConjunctiveQuery,
    critical_atom: usize,
    assignment: &Assignment,
    query: &UnionOfCqs,
    initial: &Arc<Instance>,
    domain: &BTreeSet<Value>,
    options: &LtrOptions,
) -> Result<Option<AccessPath>> {
    // The image of the disjunct under the assignment.
    let facts: Vec<(RelId, Tuple)> = disjunct
        .atoms
        .iter()
        .map(|a| (a.predicate, ground_atom(a, assignment)))
        .collect();
    let critical = facts[critical_atom].clone();

    // The critical fact must be new (otherwise dropping the access loses
    // nothing) and must actually be a legal response to the access.
    if initial.contains(critical.0, &critical.1) {
        return Ok(None);
    }
    if !schema.tuple_matches_access(access, &critical.1) {
        return Ok(None);
    }

    // Q must fail when the critical fact is withheld.  The candidate
    // configuration is an overlay over the shared initial instance, so this
    // costs O(|disjunct|) per assignment instead of a full instance clone.
    let mut without_critical = InstanceOverlay::new(initial.clone());
    for (rel, tuple) in &facts {
        if (rel, tuple) != (&critical.0, &critical.1) {
            without_critical.push_fact(*rel, tuple.clone());
        }
    }
    // With an empty delta (single-atom disjuncts) evaluate on the plain
    // instance: same facts, cheaper iteration.
    let holds = if without_critical.delta().is_empty() {
        query.holds(initial.as_ref())
    } else {
        query.holds(&without_critical)
    };
    if holds {
        return Ok(None);
    }

    // The remaining new facts must be revealable by accesses.
    let remaining: Vec<(RelId, Tuple)> = facts
        .iter()
        .filter(|(rel, tuple)| {
            !(initial.contains(*rel, tuple) || (*rel == critical.0 && tuple == &critical.1))
        })
        .cloned()
        .collect();

    let ordered = if options.grounded {
        reveal_order_grounded(schema, access, &critical, &remaining, domain)
    } else {
        reveal_order_unrestricted(schema, &remaining)
    };
    let Some(ordered) = ordered else {
        return Ok(None);
    };

    // Assemble the witness path: the access under test first, then one access
    // per remaining fact.
    let mut witness = AccessPath::new();
    witness.push(access.clone(), Response::from([critical.1.clone()]));
    for (method_name, fact) in ordered {
        let method = schema.require_method(method_name)?;
        let binding = fact.project(method.input_positions());
        witness.push(Access::new(method_name, binding), Response::from([fact]));
    }
    Ok(Some(witness))
}

fn ground_atom(atom: &Atom, assignment: &Assignment) -> Tuple {
    atom.terms
        .iter()
        .map(|t| match t {
            Term::Const(c) => *c,
            Term::Var(v) => assignment
                .get(*v)
                .copied()
                .expect("assignment covers all variables of the disjunct"),
        })
        .collect()
}

/// Under unrestricted accesses any binding may be guessed, so a fact is
/// revealable iff its relation has at least one access method.
fn reveal_order_unrestricted(
    schema: &AccessSchema,
    remaining: &[(RelId, Tuple)],
) -> Option<Vec<(Sym, Tuple)>> {
    let mut ordered = Vec::with_capacity(remaining.len());
    for (relation, tuple) in remaining {
        let method = schema.methods_for_relation(*relation).next()?;
        ordered.push((method.name_sym(), tuple.clone()));
    }
    Some(ordered)
}

/// Under grounded accesses, each access's binding values must already be
/// known; saturate over the remaining facts until all are revealed or no
/// progress is possible.
fn reveal_order_grounded(
    schema: &AccessSchema,
    access_under_test: &Access,
    critical: &(RelId, Tuple),
    remaining: &[(RelId, Tuple)],
    domain: &BTreeSet<Value>,
) -> Option<Vec<(Sym, Tuple)>> {
    // Values revealed on top of the (precomputed) initial active domain.
    let mut known: BTreeSet<Value> = access_under_test.binding.values().iter().copied().collect();
    known.extend(critical.1.values().iter().copied());

    let mut pending: BTreeMap<usize, (RelId, Tuple)> =
        remaining.iter().cloned().enumerate().collect();
    let mut ordered = Vec::with_capacity(remaining.len());

    while !pending.is_empty() {
        let mut progressed = None;
        'outer: for (&index, (relation, tuple)) in &pending {
            for method in schema.methods_for_relation(*relation) {
                let groundable = method.input_positions().iter().all(|&p| {
                    tuple
                        .get(p)
                        .is_some_and(|v| domain.contains(v) || known.contains(v))
                });
                if groundable {
                    progressed = Some((index, method.name_sym()));
                    break 'outer;
                }
            }
        }
        match progressed {
            Some((index, method_name)) => {
                let (_, tuple) = pending.remove(&index).expect("index taken from the map");
                known.extend(tuple.values().iter().copied());
                ordered.push((method_name, tuple));
            }
            None => return None,
        }
    }
    Some(ordered)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{phone_directory_access_schema, AccessMethod};
    use crate::sanity::is_grounded;
    use accltl_relational::{atom, cq, tuple};

    fn jones_query() -> UnionOfCqs {
        // "Jones has an address entry".
        UnionOfCqs::single(cq!(<- atom!("Address"; s, p, @"Jones", h)))
    }

    #[test]
    fn address_access_is_relevant_to_the_jones_query() {
        let schema = phone_directory_access_schema();
        let access = Access::new("AcM2", tuple!["Parks Rd", "OX13QD"]);
        let verdict = long_term_relevant(
            &schema,
            &access,
            &jones_query(),
            &Instance::new(),
            &LtrOptions::default(),
        )
        .unwrap();
        let LtrVerdict::Relevant { witness } = verdict else {
            panic!("expected the access to be relevant");
        };
        assert_eq!(witness.accesses().next().unwrap().method, "AcM2");
        // The witness really does flip the query.
        let with = witness.configuration(&schema, &Instance::new()).unwrap();
        let without = witness
            .without_first()
            .configuration(&schema, &Instance::new())
            .unwrap();
        assert!(jones_query().holds(&with));
        assert!(!jones_query().holds(&without));
    }

    #[test]
    fn mobile_access_is_not_relevant_to_the_jones_query() {
        // The query only mentions Address, so an access to Mobile# can never
        // be the step that reveals the witnessing fact.
        let schema = phone_directory_access_schema();
        let access = Access::new("AcM1", tuple!["Jones"]);
        let verdict = long_term_relevant(
            &schema,
            &access,
            &jones_query(),
            &Instance::new(),
            &LtrOptions::default(),
        )
        .unwrap();
        assert_eq!(verdict, LtrVerdict::NotRelevant);
    }

    #[test]
    fn already_known_facts_make_an_access_irrelevant() {
        let schema = phone_directory_access_schema();
        let mut initial = Instance::new();
        initial.add_fact("Address", tuple!["Parks Rd", "OX13QD", "Jones", 16]);
        // Jones's address is already known: the access cannot newly reveal it,
        // and the query already holds without any access.
        let access = Access::new("AcM2", tuple!["Parks Rd", "OX13QD"]);
        let verdict = long_term_relevant(
            &schema,
            &access,
            &jones_query(),
            &initial,
            &LtrOptions::default(),
        )
        .unwrap();
        assert_eq!(verdict, LtrVerdict::NotRelevant);
    }

    #[test]
    fn binding_mismatch_with_query_constant_is_not_relevant() {
        // An access asking about a different name cannot reveal a fact with
        // the constant "Jones" at the name position... but the name position
        // of AcM2 is not an input position, so this test uses a boolean-style
        // method on Address instead.
        let mut schema = phone_directory_access_schema();
        schema
            .add_method(AccessMethod::new("ByName", "Address", vec![2]))
            .unwrap();
        let access = Access::new("ByName", tuple!["Smith"]);
        let verdict = long_term_relevant(
            &schema,
            &access,
            &jones_query(),
            &Instance::new(),
            &LtrOptions::default(),
        )
        .unwrap();
        assert_eq!(verdict, LtrVerdict::NotRelevant);
    }

    #[test]
    fn join_query_requires_supporting_facts() {
        // Q: some name has both a mobile entry and an address entry.  An
        // access to Mobile# is relevant: its response supplies the Mobile#
        // half, and an Address access can supply the other half.
        let schema = phone_directory_access_schema();
        let q = UnionOfCqs::single(cq!(<-
            atom!("Mobile#"; n, p, s, ph),
            atom!("Address"; s2, p2, n, h)));
        let access = Access::new("AcM1", tuple!["Smith"]);
        let verdict = long_term_relevant(
            &schema,
            &access,
            &q,
            &Instance::new(),
            &LtrOptions::default(),
        )
        .unwrap();
        assert!(verdict.is_relevant());
        if let LtrVerdict::Relevant { witness } = verdict {
            // Witness has the Mobile# access first and then an Address access.
            assert_eq!(witness.len(), 2);
        }
    }

    #[test]
    fn grounded_relevance_requires_known_binding() {
        let schema = phone_directory_access_schema();
        let access = Access::new("AcM2", tuple!["Parks Rd", "OX13QD"]);
        let grounded = LtrOptions {
            grounded: true,
            ..LtrOptions::default()
        };
        // Over the empty initial instance the binding values are unknown, so
        // no grounded witness path can start with this access.
        let verdict = long_term_relevant(
            &schema,
            &access,
            &jones_query(),
            &Instance::new(),
            &grounded,
        )
        .unwrap();
        assert_eq!(verdict, LtrVerdict::NotRelevant);

        // Once the street and postcode are known (say from a Mobile# fact for
        // a different person), the access becomes relevant even under
        // grounded semantics — this is exactly the iterative strategy from
        // the paper's introduction.
        let mut initial = Instance::new();
        initial.add_fact("Mobile#", tuple!["Smith", "OX13QD", "Parks Rd", 5551212]);
        let verdict =
            long_term_relevant(&schema, &access, &jones_query(), &initial, &grounded).unwrap();
        let LtrVerdict::Relevant { witness } = verdict else {
            panic!("expected relevance under grounded semantics");
        };
        assert!(is_grounded(&witness, &initial));
    }

    #[test]
    fn grounded_join_needs_a_dataflow_chain() {
        // Q: some name has both entries.  Under grounded semantics, an access
        // to Address with known street/postcode is relevant only if the
        // Mobile# half can be revealed afterwards with known values — which
        // works because the revealed Address fact supplies the name.
        let schema = phone_directory_access_schema();
        let q = UnionOfCqs::single(cq!(<-
            atom!("Mobile#"; n, p, s, ph),
            atom!("Address"; s2, p2, n, h)));
        let mut initial = Instance::new();
        initial.add_fact("Address", tuple!["Parks Rd", "OX13QD", "seed", 0]);
        let access = Access::new("AcM2", tuple!["Parks Rd", "OX13QD"]);
        let grounded = LtrOptions {
            grounded: true,
            ..LtrOptions::default()
        };
        let verdict = long_term_relevant(&schema, &access, &q, &initial, &grounded).unwrap();
        let LtrVerdict::Relevant { witness } = verdict else {
            panic!("expected relevance");
        };
        assert!(is_grounded(&witness, &initial));
        // The Mobile# access must come after the Address access that reveals
        // the name.
        assert_eq!(witness.accesses().next().unwrap().method, "AcM2");
        assert!(witness.accesses().any(|a| a.method == "AcM1"));
    }

    #[test]
    fn relevance_for_union_queries_considers_every_disjunct() {
        let schema = phone_directory_access_schema();
        let q = UnionOfCqs::new(vec![
            cq!(<- atom!("Mobile#"; @"Zed", p, s, ph)),
            cq!(<- atom!("Address"; s, p, @"Jones", h)),
        ]);
        let access = Access::new("AcM2", tuple!["Parks Rd", "OX13QD"]);
        let verdict = long_term_relevant(
            &schema,
            &access,
            &q,
            &Instance::new(),
            &LtrOptions::default(),
        )
        .unwrap();
        assert!(verdict.is_relevant());
    }

    #[test]
    fn tight_assignment_cap_reports_unknown() {
        let schema = phone_directory_access_schema();
        // The query already holds on the initial instance, so the access is in
        // truth not relevant — but with a cap far below the assignment space
        // the checker must say Unknown rather than silently NotRelevant.
        let mut initial = Instance::new();
        initial.add_fact("Address", tuple!["Parks Rd", "OX13QD", "Jones", 16]);
        initial.add_fact("Address", tuple!["High St", "OX44GG", "Dole", 2]);
        let access = Access::new("AcM2", tuple!["Parks Rd", "OX13QD"]);
        let options = LtrOptions {
            grounded: false,
            max_assignments: 5,
        };
        let verdict =
            long_term_relevant(&schema, &access, &jones_query(), &initial, &options).unwrap();
        assert_eq!(verdict, LtrVerdict::Unknown);
    }
}
