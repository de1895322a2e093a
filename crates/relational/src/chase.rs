//! The chase procedure for functional and inclusion dependencies.
//!
//! The chase is used (a) to decide implication of dependencies on concrete,
//! terminating inputs — the ground truth against which the paper's
//! undecidability gadgets (Theorems 3.1, 5.2, 5.3) are tested — and (b) to
//! repair instances against inclusion dependencies when generating
//! constraint-satisfying workloads for the benchmarks.
//!
//! Because the implication problem for FDs + inclusion dependencies is
//! undecidable, the chase here is *bounded*: it runs for at most a configured
//! number of steps and reports honestly when the budget is exhausted.
//!
//! # Incremental violation discovery
//!
//! Two implementations share one repair skeleton (passes over the constraint
//! list, at most one repair per constraint per pass, the same budget and the
//! same fresh-null counter), so they produce identical outcomes:
//!
//! * the **scan** chase re-runs [`FunctionalDependency::find_violation`] /
//!   [`InclusionDependency::find_violation`] from scratch every pass and
//!   applies FD merges with [`Instance::map_values`], rebuilding the whole
//!   instance (and dropping its per-position index) on every repair;
//! * the **incremental** chase (the default) keeps a *dirty set* per
//!   constraint — only facts touched since that constraint was last verified
//!   are re-examined — probes candidate FD groups and IND witnesses through
//!   the per-position posting lists ([`crate::index`]), and applies FD merges
//!   by removing and re-adding exactly the facts that mention the merged
//!   value, which keeps the index alive across repair steps
//!   ([`Instance::remove_fact`] maintains it).
//!
//! Violation *choice* is pinned down to the scan's first-in-tuple-order
//! semantics in both modes, so the repair sequences — and therefore outcomes,
//! instances and fresh-null names — are byte-identical.  Set
//! `ACCLTL_DISABLE_INCREMENTAL_CHASE=1` (see
//! [`DISABLE_INCREMENTAL_CHASE_ENV_VAR`]) to fall back to the scan chase;
//! the equivalence is property-tested in `tests/chase_props.rs` and
//! CI-enforced by diffing the `chase_repair` example both ways.

use std::collections::{BTreeMap, BTreeSet};

use accltl_obs::{json::JsonObject, metrics, trace};

use crate::constraints::{Constraint, FunctionalDependency, InclusionDependency};
use crate::instance::Instance;
use crate::overlay::InstanceView;
use crate::symbols::RelId;
use crate::tuple::Tuple;
use crate::value::Value;

/// Environment variable disabling the incremental chase when set to `1`:
/// [`ChaseConfig::from_env`] (and therefore `ChaseConfig::default()`) falls
/// back to the scan-based implementation, which produces byte-identical
/// outcomes (CI diffs the `chase_repair` example both ways).
///
/// The variable is *read* in exactly one place, [`ChaseConfig::from_env`];
/// this module only defines the name.
pub const DISABLE_INCREMENTAL_CHASE_ENV_VAR: &str = "ACCLTL_DISABLE_INCREMENTAL_CHASE";

/// Configuration for the bounded chase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaseConfig {
    /// Maximum number of chase steps (tuple additions or equations) applied
    /// before giving up.
    pub max_steps: usize,
    /// Whether violation discovery runs incrementally over dirty-tuple
    /// worklists and per-position indexes (the default), or by whole-relation
    /// scans every pass.  Outcomes are identical either way; this is purely a
    /// performance switch.
    pub incremental: bool,
}

impl ChaseConfig {
    /// The environment-independent baseline configuration.
    #[must_use]
    pub fn base() -> Self {
        ChaseConfig {
            max_steps: 10_000,
            incremental: true,
        }
    }

    /// The baseline with [`DISABLE_INCREMENTAL_CHASE_ENV_VAR`] applied — the
    /// single place that variable is read.
    #[must_use]
    #[allow(clippy::disallowed_methods)] // a documented `ACCLTL_*` read site
    pub fn from_env() -> Self {
        let disabled = std::env::var(DISABLE_INCREMENTAL_CHASE_ENV_VAR)
            .map(|v| v == "1")
            .unwrap_or(false);
        ChaseConfig {
            incremental: !disabled,
            ..ChaseConfig::base()
        }
    }
}

impl Default for ChaseConfig {
    fn default() -> Self {
        ChaseConfig::from_env()
    }
}

/// Work counters for one chase run, in the mould of the engine's
/// `EngineCacheStats`: pure observability, never consulted by the procedure
/// itself.
///
/// The repair counters (`passes`, `violation_checks`, `fd_merges`,
/// `ind_additions`) are identical between the scan and incremental modes,
/// because the repair sequences are.  The work counters (`tuples_rescanned`,
/// `facts_rewritten`, `index_rebuilds_avoided`) measure what the *active*
/// implementation did — comparing them across modes is the point: the
/// incremental chase exists to shrink `tuples_rescanned` and to turn
/// whole-instance rebuilds into `index_rebuilds_avoided`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaseStats {
    /// Passes over the constraint list.
    pub passes: usize,
    /// Constraint checks performed (one per constraint per pass).
    pub violation_checks: usize,
    /// Tuples examined while looking for violations.  The scan chase counts
    /// the relation sizes it walks; the incremental chase counts the dirty
    /// candidates and group/witness probes it actually touched.
    pub tuples_rescanned: usize,
    /// FD repairs applied (value merges).
    pub fd_merges: usize,
    /// IND repairs applied (fresh target tuples).
    pub ind_additions: usize,
    /// Facts rewritten by FD merges (incremental mode only: the scan chase
    /// rebuilds every fact wholesale via `map_values` instead).
    pub facts_rewritten: usize,
    /// FD merges that kept a live per-position index maintained instead of
    /// invalidating it (incremental mode only).
    pub index_rebuilds_avoided: usize,
}

impl ChaseStats {
    /// Total repairs applied (FD merges plus IND additions).
    #[must_use]
    pub fn repairs(&self) -> usize {
        self.fd_merges + self.ind_additions
    }

    /// Renders the counters as a single-line JSON object (the
    /// machine-readable half of the run-report surface; key order is
    /// stable).
    #[must_use]
    pub fn to_json(&self) -> String {
        JsonObject::new()
            .num("passes", self.passes as u64)
            .num("violation_checks", self.violation_checks as u64)
            .num("tuples_rescanned", self.tuples_rescanned as u64)
            .num("fd_merges", self.fd_merges as u64)
            .num("ind_additions", self.ind_additions as u64)
            .num("facts_rewritten", self.facts_rewritten as u64)
            .num("index_rebuilds_avoided", self.index_rebuilds_avoided as u64)
            .build()
    }
}

/// The result of running the bounded chase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChaseOutcome {
    /// The chase terminated; the returned instance satisfies every FD and
    /// inclusion dependency in the input (disjointness constraints are not
    /// repaired — see [`ChaseOutcome::Failed`]).
    Completed(Instance),
    /// The chase failed: an FD required equating two distinct non-null
    /// constants, or a disjointness constraint was violated (denial
    /// constraints cannot be repaired).
    Failed {
        /// The constraint that caused the failure.
        violated: Constraint,
    },
    /// The step budget ran out before reaching a fixpoint (the instance built
    /// so far is returned for inspection).
    BudgetExhausted(Instance),
}

impl ChaseOutcome {
    /// The instance produced, if the chase terminated successfully.
    #[must_use]
    pub fn completed(self) -> Option<Instance> {
        match self {
            ChaseOutcome::Completed(inst) => Some(inst),
            _ => None,
        }
    }
}

/// Runs the bounded chase of `instance` with `constraints`.
#[must_use]
pub fn chase(
    instance: &Instance,
    constraints: &[Constraint],
    config: &ChaseConfig,
) -> ChaseOutcome {
    chase_with_stats(instance, constraints, config).0
}

/// Runs the bounded chase and reports its work counters.
#[must_use]
pub fn chase_with_stats(
    instance: &Instance,
    constraints: &[Constraint],
    config: &ChaseConfig,
) -> (ChaseOutcome, ChaseStats) {
    let _run_span = trace::span_fields(
        "chase.run",
        &[
            ("constraints", constraints.len() as u64),
            ("incremental", u64::from(config.incremental)),
        ],
    );
    let mut stats = ChaseStats::default();
    let outcome = if config.incremental {
        chase_incremental(instance, constraints, config, &mut stats)
    } else {
        chase_scan(instance, constraints, config, &mut stats)
    };
    metrics::add("chase.runs", 1);
    metrics::add("chase.passes", stats.passes as u64);
    metrics::add("chase.violation_checks", stats.violation_checks as u64);
    metrics::add("chase.tuples_rescanned", stats.tuples_rescanned as u64);
    metrics::add("chase.fd_merges", stats.fd_merges as u64);
    metrics::add("chase.ind_additions", stats.ind_additions as u64);
    metrics::add("chase.facts_rewritten", stats.facts_rewritten as u64);
    metrics::add(
        "chase.index_rebuilds_avoided",
        stats.index_rebuilds_avoided as u64,
    );
    trace::event(
        "chase.report",
        &[
            ("passes", stats.passes as u64),
            ("violation_checks", stats.violation_checks as u64),
            ("tuples_rescanned", stats.tuples_rescanned as u64),
            ("fd_merges", stats.fd_merges as u64),
            ("ind_additions", stats.ind_additions as u64),
            ("facts_rewritten", stats.facts_rewritten as u64),
            (
                "index_rebuilds_avoided",
                stats.index_rebuilds_avoided as u64,
            ),
        ],
    );
    (outcome, stats)
}

/// The scan-based chase: every pass re-finds violations from scratch and FD
/// merges rebuild the whole instance.  Kept verbatim as the differential
/// baseline for the incremental implementation.
fn chase_scan(
    instance: &Instance,
    constraints: &[Constraint],
    config: &ChaseConfig,
    stats: &mut ChaseStats,
) -> ChaseOutcome {
    let mut current = instance.clone();
    let mut null_counter = next_null_id(&current);
    let mut steps = 0usize;

    loop {
        if steps > config.max_steps {
            return ChaseOutcome::BudgetExhausted(current);
        }
        stats.passes += 1;
        let _pass_span = trace::span_fields("chase.pass", &[("pass", stats.passes as u64)]);
        let mut changed = false;

        for constraint in constraints {
            stats.violation_checks += 1;
            match constraint {
                Constraint::Fd(fd) => {
                    stats.tuples_rescanned += current.relation_size(fd.relation);
                    if let Some((t1, t2)) = fd.find_violation(&current) {
                        let v1 = t1.get(fd.rhs).copied().expect("validated position");
                        let v2 = t2.get(fd.rhs).copied().expect("validated position");
                        match equate(v1, v2) {
                            Some((from, to)) => {
                                current = current.map_values(|v| if *v == from { to } else { *v });
                                stats.fd_merges += 1;
                                changed = true;
                                steps += 1;
                            }
                            None => {
                                return ChaseOutcome::Failed {
                                    violated: constraint.clone(),
                                };
                            }
                        }
                    }
                }
                Constraint::Ind(ind) => {
                    stats.tuples_rescanned +=
                        current.relation_size(ind.source) + current.relation_size(ind.target);
                    if let Some(src_tuple) = ind.find_violation(&current) {
                        let repair = ind_repair_tuple(&current, ind, &src_tuple, &mut null_counter);
                        current.add_fact(ind.target, repair);
                        stats.ind_additions += 1;
                        changed = true;
                        steps += 1;
                    }
                }
                Constraint::Disjoint(dc) => {
                    stats.tuples_rescanned +=
                        current.relation_size(dc.left.0) + current.relation_size(dc.right.0);
                    if !dc.satisfied(&current) {
                        return ChaseOutcome::Failed {
                            violated: constraint.clone(),
                        };
                    }
                }
            }
        }

        if !changed {
            return ChaseOutcome::Completed(current);
        }
    }
}

/// Per-constraint record of which facts changed since the constraint was last
/// verified.  `All` (the initial state) means "never verified: examine
/// everything"; a verified constraint drops to an explicit — usually empty —
/// tuple set that repairs grow again.
#[derive(Debug, Clone)]
enum DirtySet {
    All,
    Tuples(BTreeSet<Tuple>),
}

impl DirtySet {
    fn add(&mut self, tuple: &Tuple) {
        if let DirtySet::Tuples(set) = self {
            set.insert(tuple.clone());
        }
    }

    fn remove(&mut self, tuple: &Tuple) {
        if let DirtySet::Tuples(set) = self {
            set.remove(tuple);
        }
    }
}

/// Dirty-tracking state for one constraint (parallel to the constraint list).
#[derive(Debug, Clone)]
enum ConstraintState {
    Fd(DirtySet),
    Ind(DirtySet),
    /// Disjointness is a denial constraint: all it needs is a "touched since
    /// last verified" flag.
    Disjoint(bool),
}

/// The incremental chase: identical repair skeleton to [`chase_scan`], but
/// violation discovery only re-examines dirty facts (probing FD groups and
/// IND witnesses through the per-position indexes) and FD merges touch only
/// the facts that mention the merged value, keeping the index maintained.
fn chase_incremental(
    instance: &Instance,
    constraints: &[Constraint],
    config: &ChaseConfig,
    stats: &mut ChaseStats,
) -> ChaseOutcome {
    let mut current = instance.clone();
    let mut null_counter = next_null_id(&current);
    let mut steps = 0usize;
    let mut states: Vec<ConstraintState> = constraints
        .iter()
        .map(|c| match c {
            Constraint::Fd(_) => ConstraintState::Fd(DirtySet::All),
            Constraint::Ind(_) => ConstraintState::Ind(DirtySet::All),
            Constraint::Disjoint(_) => ConstraintState::Disjoint(true),
        })
        .collect();

    loop {
        if steps > config.max_steps {
            return ChaseOutcome::BudgetExhausted(current);
        }
        stats.passes += 1;
        let _pass_span = trace::span_fields("chase.pass", &[("pass", stats.passes as u64)]);
        let mut changed = false;

        for ci in 0..constraints.len() {
            stats.violation_checks += 1;
            match &constraints[ci] {
                Constraint::Fd(fd) => {
                    let violation = {
                        let ConstraintState::Fd(dirty) = &mut states[ci] else {
                            unreachable!("states are built parallel to constraints");
                        };
                        fd_violation_incremental(&current, fd, dirty, stats)
                    };
                    if let Some((t1, t2)) = violation {
                        let v1 = t1.get(fd.rhs).copied().expect("validated position");
                        let v2 = t2.get(fd.rhs).copied().expect("validated position");
                        match equate(v1, v2) {
                            Some((from, to)) => {
                                substitute_incremental(
                                    &mut current,
                                    from,
                                    to,
                                    constraints,
                                    &mut states,
                                    stats,
                                );
                                stats.fd_merges += 1;
                                changed = true;
                                steps += 1;
                            }
                            None => {
                                return ChaseOutcome::Failed {
                                    violated: constraints[ci].clone(),
                                };
                            }
                        }
                    }
                }
                Constraint::Ind(ind) => {
                    let violation = {
                        let ConstraintState::Ind(dirty) = &mut states[ci] else {
                            unreachable!("states are built parallel to constraints");
                        };
                        ind_violation_incremental(&current, ind, dirty, stats)
                    };
                    if let Some(src_tuple) = violation {
                        let repair = ind_repair_tuple(&current, ind, &src_tuple, &mut null_counter);
                        current.add_fact(ind.target, repair.clone());
                        propagate_addition(ind.target, &repair, constraints, &mut states);
                        stats.ind_additions += 1;
                        changed = true;
                        steps += 1;
                    }
                }
                Constraint::Disjoint(dc) => {
                    let ConstraintState::Disjoint(dirty) = &mut states[ci] else {
                        unreachable!("states are built parallel to constraints");
                    };
                    if *dirty {
                        stats.tuples_rescanned +=
                            current.relation_size(dc.left.0) + current.relation_size(dc.right.0);
                        if !dc.satisfied(&current) {
                            return ChaseOutcome::Failed {
                                violated: constraints[ci].clone(),
                            };
                        }
                        *dirty = false;
                    }
                }
            }
        }

        if !changed {
            return ChaseOutcome::Completed(current);
        }
    }
}

/// The `(position, value)` pairs of a tuple's FD left-hand side, or `None`
/// when the tuple lacks one of the positions — such a tuple can never agree
/// with anything on the LHS ([`Tuple::agrees_on`] requires the positions to
/// exist), so it cannot participate in a violation.
fn lhs_pairs(fd: &FunctionalDependency, tuple: &Tuple) -> Option<Vec<(usize, Value)>> {
    fd.lhs
        .iter()
        .map(|&p| tuple.get(p).map(|v| (p, *v)))
        .collect()
}

/// The outcome of probing one FD group (all tuples sharing an LHS
/// projection).
enum GroupCheck {
    /// The scan-order violation: the group's first tuple and the first member
    /// whose RHS differs from it.
    Violation(Tuple, Tuple),
    /// No violation; the members, so the caller can mark them clean.
    Clean(Vec<Tuple>),
}

/// Probes one FD group through the instance's index (or scan fallback).  The
/// anchor of a violating group is always its tuple-order-first member, and
/// the partner the first member disagreeing with the anchor — exactly the
/// pair the nested scan of `find_violation` reports.
fn check_group(
    current: &Instance,
    fd: &FunctionalDependency,
    pairs: &[(usize, Value)],
    stats: &mut ChaseStats,
) -> GroupCheck {
    let mut members = current.tuples_matching_all(fd.relation, pairs);
    let Some(anchor) = members.next() else {
        return GroupCheck::Clean(Vec::new());
    };
    stats.tuples_rescanned += 1;
    let anchor_rhs = anchor.get(fd.rhs);
    let mut clean = vec![anchor.clone()];
    for member in members {
        stats.tuples_rescanned += 1;
        if member.get(fd.rhs) != anchor_rhs {
            return GroupCheck::Violation(anchor.clone(), member.clone());
        }
        clean.push(member.clone());
    }
    GroupCheck::Clean(clean)
}

/// Incremental FD violation discovery.  Only groups containing a dirty tuple
/// can violate (clean tuples are pairwise verified and every perturbation
/// re-dirties the facts it touches), and within a group the scan's violation
/// choice depends only on the group — so probing the dirty groups and taking
/// the violation with the tuple-order-least anchor reproduces the scan's
/// first violation exactly.
fn fd_violation_incremental(
    current: &Instance,
    fd: &FunctionalDependency,
    dirty: &mut DirtySet,
    stats: &mut ChaseStats,
) -> Option<(Tuple, Tuple)> {
    match dirty {
        DirtySet::All => {
            // First check: walk the relation in tuple order, probing each
            // group once.  Anchors appear in ascending order, so the first
            // violating group found is the scan's first violation.
            let mut seen: BTreeSet<Vec<Value>> = BTreeSet::new();
            let mut clean: BTreeSet<Tuple> = BTreeSet::new();
            for tuple in current.tuples(fd.relation) {
                stats.tuples_rescanned += 1;
                let Some(pairs) = lhs_pairs(fd, tuple) else {
                    clean.insert(tuple.clone());
                    continue;
                };
                if !seen.insert(pairs.iter().map(|(_, v)| *v).collect()) {
                    continue;
                }
                match check_group(current, fd, &pairs, stats) {
                    GroupCheck::Violation(anchor, partner) => {
                        // Everything not yet verified clean stays dirty.
                        let remaining: BTreeSet<Tuple> = current
                            .tuples(fd.relation)
                            .filter(|t| !clean.contains(t))
                            .cloned()
                            .collect();
                        *dirty = DirtySet::Tuples(remaining);
                        return Some((anchor, partner));
                    }
                    GroupCheck::Clean(members) => clean.extend(members),
                }
            }
            *dirty = DirtySet::Tuples(BTreeSet::new());
            None
        }
        DirtySet::Tuples(set) => {
            let candidates: Vec<Tuple> = set.iter().cloned().collect();
            let mut seen: BTreeSet<Vec<Value>> = BTreeSet::new();
            let mut best: Option<(Tuple, Tuple)> = None;
            for candidate in candidates {
                stats.tuples_rescanned += 1;
                let Some(pairs) = lhs_pairs(fd, &candidate) else {
                    set.remove(&candidate);
                    continue;
                };
                if !seen.insert(pairs.iter().map(|(_, v)| *v).collect()) {
                    continue;
                }
                match check_group(current, fd, &pairs, stats) {
                    GroupCheck::Violation(anchor, partner) => {
                        if best.as_ref().map_or(true, |(b, _)| anchor < *b) {
                            best = Some((anchor, partner));
                        }
                    }
                    GroupCheck::Clean(members) => {
                        set.remove(&candidate);
                        for member in members {
                            set.remove(&member);
                        }
                    }
                }
            }
            best
        }
    }
}

/// True if a source tuple has a matching target tuple, probed through the
/// target's index when the source projection is full-length (the probe and
/// the scan agree exactly then); short tuples fall back to the scan's
/// projected-sequence comparison.
fn source_matched(current: &Instance, ind: &InclusionDependency, src: &Tuple) -> bool {
    let pairs: Option<Vec<(usize, Value)>> = ind
        .source_positions
        .iter()
        .zip(&ind.target_positions)
        .map(|(&sp, &tp)| src.get(sp).map(|v| (tp, *v)))
        .collect();
    match pairs {
        Some(pairs) => current
            .tuples_matching_all(ind.target, &pairs)
            .next()
            .is_some(),
        None => {
            let projected = src.project(&ind.source_positions);
            current
                .tuples(ind.target)
                .any(|t| t.project(&ind.target_positions) == projected)
        }
    }
}

/// Incremental IND violation discovery: unmatched sources are always dirty
/// (verified-matched sources leave the set, and target-tuple removals re-dirty
/// the sources they witnessed), so the tuple-order-first dirty unmatched
/// source is the scan's first violation.
fn ind_violation_incremental(
    current: &Instance,
    ind: &InclusionDependency,
    dirty: &mut DirtySet,
    stats: &mut ChaseStats,
) -> Option<Tuple> {
    match dirty {
        DirtySet::All => {
            let mut verified: BTreeSet<Tuple> = BTreeSet::new();
            for src in current.tuples(ind.source) {
                stats.tuples_rescanned += 1;
                if source_matched(current, ind, src) {
                    verified.insert(src.clone());
                    continue;
                }
                // The suffix from the first unmatched source on is unverified.
                let remaining: BTreeSet<Tuple> = current
                    .tuples(ind.source)
                    .filter(|t| !verified.contains(t))
                    .cloned()
                    .collect();
                *dirty = DirtySet::Tuples(remaining);
                return Some(src.clone());
            }
            *dirty = DirtySet::Tuples(BTreeSet::new());
            None
        }
        DirtySet::Tuples(set) => {
            let candidates: Vec<Tuple> = set.iter().cloned().collect();
            for candidate in candidates {
                stats.tuples_rescanned += 1;
                if !current.contains(ind.source, &candidate) {
                    set.remove(&candidate);
                    continue;
                }
                if source_matched(current, ind, &candidate) {
                    set.remove(&candidate);
                    continue;
                }
                return Some(candidate);
            }
            None
        }
    }
}

/// Marks every constraint that could be affected by a newly added fact dirty.
/// Additions to an IND's *target* side are deliberately not tracked: adding a
/// witness can only fix inclusion violations, never create one.
fn propagate_addition(
    relation: RelId,
    tuple: &Tuple,
    constraints: &[Constraint],
    states: &mut [ConstraintState],
) {
    for (constraint, state) in constraints.iter().zip(states.iter_mut()) {
        match (constraint, state) {
            (Constraint::Fd(fd), ConstraintState::Fd(dirty)) if fd.relation == relation => {
                dirty.add(tuple);
            }
            (Constraint::Ind(ind), ConstraintState::Ind(dirty)) if ind.source == relation => {
                dirty.add(tuple);
            }
            (Constraint::Disjoint(dc), ConstraintState::Disjoint(flag))
                if dc.left.0 == relation || dc.right.0 == relation =>
            {
                *flag = true;
            }
            _ => {}
        }
    }
}

/// Re-dirties the sources whose inclusion witness may have been the removed
/// target tuple, found by probing the source relation for the removed
/// tuple's (old) projection.  A short target tuple (missing projected
/// positions) falls back to marking the whole source side dirty.
fn redirty_orphaned_sources(
    current: &Instance,
    ind: &InclusionDependency,
    removed_target: &Tuple,
    dirty: &mut DirtySet,
) {
    if matches!(dirty, DirtySet::All) {
        return;
    }
    let pairs: Option<Vec<(usize, Value)>> = ind
        .target_positions
        .iter()
        .zip(&ind.source_positions)
        .map(|(&tp, &sp)| removed_target.get(tp).map(|v| (sp, *v)))
        .collect();
    match pairs {
        Some(pairs) => {
            let suspects: Vec<Tuple> = current
                .tuples_matching_all(ind.source, &pairs)
                .cloned()
                .collect();
            for suspect in suspects {
                dirty.add(&suspect);
            }
        }
        None => *dirty = DirtySet::All,
    }
}

/// Applies the FD merge `from → to` by rewriting exactly the facts that
/// mention `from` (discovered through the per-position index when one is
/// live), updating every constraint's dirty state, and leaving the
/// instance's index maintained — the incremental replacement for the scan
/// chase's whole-instance `map_values` rebuild.
fn substitute_incremental(
    current: &mut Instance,
    from: Value,
    to: Value,
    constraints: &[Constraint],
    states: &mut [ConstraintState],
    stats: &mut ChaseStats,
) {
    // Discover the facts mentioning `from`.  With a live index of uniform
    // arity the per-position posting lists answer this in time proportional
    // to the hits; otherwise scan.
    let relations: Vec<RelId> = current.nonempty_relations().collect();
    let mut hits: Vec<(RelId, Tuple)> = Vec::new();
    for rel in relations {
        match current.known_uniform_arity(rel) {
            Some(arity) => {
                let mut seen: BTreeSet<Tuple> = BTreeSet::new();
                for position in 0..arity {
                    for tuple in current.tuples_matching(rel, position, &from) {
                        seen.insert(tuple.clone());
                    }
                }
                hits.extend(seen.into_iter().map(|t| (rel, t)));
            }
            None => {
                hits.extend(
                    current
                        .tuples(rel)
                        .filter(|t| t.values().contains(&from))
                        .cloned()
                        .map(|t| (rel, t)),
                );
            }
        }
    }
    stats.facts_rewritten += hits.len();
    if current.built_index().is_some() {
        stats.index_rebuilds_avoided += 1;
    }

    // Remove every hit first, then add every rewritten fact: set semantics
    // (rewrites collapsing into existing facts, or into each other) match
    // `map_values` exactly.
    for (rel, old) in &hits {
        current.remove_fact(*rel, old);
    }
    let rewritten: Vec<(RelId, Tuple, Tuple)> = hits
        .into_iter()
        .map(|(rel, old)| {
            let new = old.map_values(|v| if *v == from { to } else { *v });
            (rel, old, new)
        })
        .collect();
    for (rel, _, new) in &rewritten {
        current.add_fact(*rel, new.clone());
    }

    // Dirty propagation: a rewritten fact is a removal of its old self and an
    // addition of its new self for every constraint watching its relation; a
    // removal on an IND's target side may orphan sources.
    for (constraint, state) in constraints.iter().zip(states.iter_mut()) {
        match (constraint, state) {
            (Constraint::Fd(fd), ConstraintState::Fd(dirty)) => {
                for (rel, old, new) in &rewritten {
                    if *rel == fd.relation {
                        dirty.remove(old);
                        dirty.add(new);
                    }
                }
            }
            (Constraint::Ind(ind), ConstraintState::Ind(dirty)) => {
                for (rel, old, new) in &rewritten {
                    if *rel == ind.source {
                        dirty.remove(old);
                        dirty.add(new);
                    }
                    if *rel == ind.target {
                        redirty_orphaned_sources(current, ind, old, dirty);
                    }
                }
            }
            (Constraint::Disjoint(dc), ConstraintState::Disjoint(flag))
                if rewritten
                    .iter()
                    .any(|(rel, _, _)| *rel == dc.left.0 || *rel == dc.right.0) =>
            {
                *flag = true;
            }
            _ => {}
        }
    }
}

/// Builds the repair tuple for an IND violation: the target arity is taken
/// from the first target tuple (or the highest target position), every
/// position gets a fresh labelled null — the counter advances for *every*
/// position, covered or not, which pins the null-naming sequence both chase
/// modes share — and the covered positions are then overwritten with the
/// source's values.
fn ind_repair_tuple(
    current: &Instance,
    ind: &InclusionDependency,
    src_tuple: &Tuple,
    null_counter: &mut u64,
) -> Tuple {
    let target_arity = current
        .tuples(ind.target)
        .next()
        .map(Tuple::arity)
        .unwrap_or_else(|| ind.target_positions.iter().max().map_or(0, |m| m + 1));
    let mut values: Vec<Value> = (0..target_arity)
        .map(|_| {
            *null_counter += 1;
            Value::labelled_null(*null_counter)
        })
        .collect();
    for (sp, tp) in ind.source_positions.iter().zip(&ind.target_positions) {
        if let Some(v) = src_tuple.get(*sp) {
            values[*tp] = *v;
        }
    }
    Tuple::new(values)
}

/// Decides which of two values should be rewritten into the other.
///
/// Returns `Some((from, to))` meaning "replace `from` by `to` everywhere", or
/// `None` if both are distinct non-null constants (a hard failure).
fn equate(v1: Value, v2: Value) -> Option<(Value, Value)> {
    match (v1.is_labelled_null(), v2.is_labelled_null()) {
        (true, _) => Some((v1, v2)),
        (false, true) => Some((v2, v1)),
        (false, false) => None,
    }
}

fn next_null_id(instance: &Instance) -> u64 {
    let mut max = 0u64;
    for value in instance.active_domain() {
        if let Value::Null(id) = value {
            max = max.max(id);
        }
    }
    max
}

/// Result of a bounded implication test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Implication {
    /// The dependency is implied.
    Implied,
    /// The dependency is not implied (the chase produced a counter-model).
    NotImplied,
    /// The bounded chase could not settle the question within its budget.
    Unknown,
}

/// Bounded test of whether `sigma` (an FD) is implied by `constraints`
/// (FDs and inclusion dependencies) using the classical two-tuple chase.
///
/// Used as the ground-truth oracle when exercising the paper's
/// undecidability gadgets on concrete dependency sets for which the chase
/// terminates.
#[must_use]
pub fn implies_fd(
    constraints: &[Constraint],
    sigma: &FunctionalDependency,
    arities: &BTreeMap<RelId, usize>,
    config: &ChaseConfig,
) -> Implication {
    let Some(&arity) = arities.get(&sigma.relation) else {
        return Implication::Unknown;
    };
    // Build the canonical two-tuple instance: two tuples over fresh nulls that
    // agree exactly on the LHS of sigma.
    let mut instance = Instance::new();
    let mut counter = 0u64;
    let mut fresh = || {
        counter += 1;
        Value::labelled_null(counter)
    };
    let shared: Vec<Value> = (0..arity).map(|_| fresh()).collect();
    let t1: Vec<Value> = (0..arity)
        .map(|p| {
            if sigma.lhs.contains(&p) {
                shared[p]
            } else {
                fresh()
            }
        })
        .collect();
    let t2: Vec<Value> = (0..arity)
        .map(|p| {
            if sigma.lhs.contains(&p) {
                shared[p]
            } else {
                fresh()
            }
        })
        .collect();
    let rhs_markers = (t1[sigma.rhs], t2[sigma.rhs]);
    instance.add_fact(sigma.relation, Tuple::new(t1));
    instance.add_fact(sigma.relation, Tuple::new(t2));

    match chase(&instance, constraints, config) {
        ChaseOutcome::Completed(result) => {
            // The FD is implied iff the chase equated the two RHS markers
            // (i.e. one of them no longer occurs, having been rewritten into
            // the other, or they became the same value).
            let dom = result.active_domain();
            let both_present = dom.contains(&rhs_markers.0) && dom.contains(&rhs_markers.1);
            if both_present && rhs_markers.0 != rhs_markers.1 {
                Implication::NotImplied
            } else {
                Implication::Implied
            }
        }
        ChaseOutcome::Failed { .. } => Implication::Implied,
        ChaseOutcome::BudgetExhausted(_) => Implication::Unknown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::{DisjointnessConstraint, InclusionDependency};
    use crate::tuple;

    /// Runs both chase modes and asserts identical outcomes and identical
    /// repair counters before returning the (shared) outcome.
    fn chase_both_ways(
        inst: &Instance,
        constraints: &[Constraint],
        max_steps: usize,
    ) -> ChaseOutcome {
        let incremental = ChaseConfig {
            max_steps,
            incremental: true,
        };
        let scan = ChaseConfig {
            max_steps,
            incremental: false,
        };
        let (inc_outcome, inc_stats) = chase_with_stats(inst, constraints, &incremental);
        let (scan_outcome, scan_stats) = chase_with_stats(inst, constraints, &scan);
        assert_eq!(inc_outcome, scan_outcome, "chase modes diverged");
        assert_eq!(inc_stats.passes, scan_stats.passes);
        assert_eq!(inc_stats.violation_checks, scan_stats.violation_checks);
        assert_eq!(inc_stats.fd_merges, scan_stats.fd_merges);
        assert_eq!(inc_stats.ind_additions, scan_stats.ind_additions);
        inc_outcome
    }

    #[test]
    fn chase_repairs_inclusion_dependency() {
        let mut inst = Instance::new();
        inst.add_fact("R", tuple!["a", "b"]);
        inst.add_fact("S", tuple!["z", "z"]);
        let constraints = vec![Constraint::Ind(InclusionDependency::new(
            "R",
            vec![1],
            "S",
            vec![0],
        ))];
        let outcome = chase_both_ways(&inst, &constraints, 10_000);
        let result = outcome.completed().expect("chase terminates");
        // A new S-tuple with first component "b" must have been added.
        assert!(result
            .tuples("S")
            .any(|t| t.get(0) == Some(&Value::str("b"))));
        assert!(constraints.iter().all(|c| c.satisfied(&result)));
    }

    #[test]
    fn chase_fails_on_hard_fd_conflict() {
        let mut inst = Instance::new();
        inst.add_fact("R", tuple!["a", "b"]);
        inst.add_fact("R", tuple!["a", "c"]);
        let constraints = vec![Constraint::Fd(FunctionalDependency::new("R", vec![0], 1))];
        assert!(matches!(
            chase_both_ways(&inst, &constraints, 10_000),
            ChaseOutcome::Failed { .. }
        ));
    }

    #[test]
    fn chase_equates_nulls_for_fd() {
        let mut inst = Instance::new();
        inst.add_fact(
            "R",
            Tuple::new(vec![Value::str("a"), Value::labelled_null(1)]),
        );
        inst.add_fact("R", Tuple::new(vec![Value::str("a"), Value::str("b")]));
        let constraints = vec![Constraint::Fd(FunctionalDependency::new("R", vec![0], 1))];
        let result = chase_both_ways(&inst, &constraints, 10_000)
            .completed()
            .expect("null can be equated");
        assert_eq!(result.relation_size("R"), 1);
        assert!(result.contains("R", &tuple!["a", "b"]));
    }

    #[test]
    fn fd_merge_of_two_nulls_rewrites_the_first_into_the_second() {
        // Both sides of the FD violation are chase nulls: `equate` must
        // rewrite the tuple-order-first null into the second, everywhere in
        // the instance (including other relations mentioning it).
        let mut inst = Instance::new();
        inst.add_fact(
            "R",
            Tuple::new(vec![Value::str("a"), Value::labelled_null(1)]),
        );
        inst.add_fact(
            "R",
            Tuple::new(vec![Value::str("a"), Value::labelled_null(2)]),
        );
        inst.add_fact("S", Tuple::new(vec![Value::labelled_null(1)]));
        let constraints = vec![Constraint::Fd(FunctionalDependency::new("R", vec![0], 1))];
        let result = chase_both_ways(&inst, &constraints, 10_000)
            .completed()
            .expect("null-null merges never hard-fail");
        // The two R-tuples collapse into one, carrying the surviving null.
        assert_eq!(result.relation_size("R"), 1);
        assert!(result.contains(
            "R",
            &Tuple::new(vec![Value::str("a"), Value::labelled_null(2)])
        ));
        // The merge propagated into S: ⊥1 no longer occurs anywhere.
        assert!(result.contains("S", &Tuple::new(vec![Value::labelled_null(2)])));
        assert!(!result.active_domain().contains(&Value::labelled_null(1)));
    }

    #[test]
    fn ind_repair_pads_unknown_target_positions_with_fresh_nulls() {
        // The target relation is empty, so its arity is inferred from the
        // highest target position; uncovered positions get fresh nulls.
        let mut inst = Instance::new();
        inst.add_fact("R", tuple!["a"]);
        let constraints = vec![Constraint::Ind(InclusionDependency::new(
            "R",
            vec![0],
            "S",
            vec![1],
        ))];
        let result = chase_both_ways(&inst, &constraints, 10_000)
            .completed()
            .expect("one repair step suffices");
        let repaired: Vec<&Tuple> = result.tuples("S").collect();
        assert_eq!(repaired.len(), 1);
        assert_eq!(repaired[0].arity(), 2);
        assert_eq!(repaired[0].get(1), Some(&Value::str("a")));
        assert!(repaired[0].get(0).unwrap().is_labelled_null());
        assert!(constraints.iter().all(|c| c.satisfied(&result)));
    }

    #[test]
    fn ind_repairs_cascade_in_constraint_order() {
        // R[1] ⊆ S[0] fires first (constraints are applied in list order,
        // one repair per pass), then the repaired S-fact triggers
        // S[0] ⊆ T[0] on the next pass.
        let mut inst = Instance::new();
        inst.add_fact("R", tuple!["a", "b"]);
        let constraints = vec![
            Constraint::Ind(InclusionDependency::new("R", vec![1], "S", vec![0])),
            Constraint::Ind(InclusionDependency::new("S", vec![0], "T", vec![0])),
        ];
        let result = chase_both_ways(&inst, &constraints, 10_000)
            .completed()
            .expect("the cascade terminates");
        assert!(result.contains("S", &tuple!["b"]));
        assert!(result.contains("T", &tuple!["b"]));
        assert_eq!(result.fact_count(), 3);
        assert!(constraints.iter().all(|c| c.satisfied(&result)));

        // Reversing the constraint list reaches the same fixpoint here (one
        // extra pass), exercising the opposite discovery order.
        let reversed: Vec<Constraint> = constraints.iter().rev().cloned().collect();
        let reversed_result = chase_both_ways(&inst, &reversed, 10_000)
            .completed()
            .expect("the cascade terminates");
        assert_eq!(reversed_result, result);
    }

    #[test]
    fn second_chase_pass_is_idempotent() {
        // Chasing a chase result must be a fixpoint: `Completed` with the
        // instance unchanged, for both repair kinds (FD null merges and IND
        // tuple additions).
        let mut inst = Instance::new();
        inst.add_fact(
            "R",
            Tuple::new(vec![Value::str("a"), Value::labelled_null(7)]),
        );
        inst.add_fact("R", Tuple::new(vec![Value::str("a"), Value::str("b")]));
        inst.add_fact("R", Tuple::new(vec![Value::str("c"), Value::str("d")]));
        let constraints = vec![
            Constraint::Fd(FunctionalDependency::new("R", vec![0], 1)),
            Constraint::Ind(InclusionDependency::new("R", vec![1], "S", vec![0])),
        ];
        let first = chase_both_ways(&inst, &constraints, 10_000)
            .completed()
            .expect("repairs terminate");
        assert!(constraints.iter().all(|c| c.satisfied(&first)));
        let second = chase_both_ways(&first, &constraints, 10_000)
            .completed()
            .expect("a satisfied instance chases to itself");
        assert_eq!(second, first);
    }

    #[test]
    fn chase_detects_disjointness_violation() {
        let mut inst = Instance::new();
        inst.add_fact("R", tuple!["x"]);
        inst.add_fact("S", tuple!["x"]);
        let constraints = vec![Constraint::Disjoint(DisjointnessConstraint::new(
            "R", 0, "S", 0,
        ))];
        assert!(matches!(
            chase_both_ways(&inst, &constraints, 10_000),
            ChaseOutcome::Failed { .. }
        ));
    }

    #[test]
    fn chase_budget_is_respected_on_divergent_input() {
        // R[1] ⊆ S[1] and S[1] ⊆ R[2]-style cycle that keeps inventing nulls:
        // R(x,y) requires S(y), S(z) requires R(z, fresh) — diverges.
        let mut inst = Instance::new();
        inst.add_fact("R", tuple!["a", "b"]);
        let constraints = vec![
            Constraint::Ind(InclusionDependency::new("R", vec![1], "S", vec![0])),
            Constraint::Ind(InclusionDependency::new("S", vec![0], "R", vec![1])),
            Constraint::Ind(InclusionDependency::new("R", vec![0], "S", vec![0])),
            Constraint::Ind(InclusionDependency::new("S", vec![0], "R", vec![0])),
        ];
        let outcome = chase_both_ways(&inst, &constraints, 50);
        // Either it terminates (if the nulls happen to close a cycle) or the
        // budget is exhausted; it must not loop forever. With this particular
        // set the chase keeps adding S-facts for new R nulls, so the budget is
        // reached.
        match outcome {
            ChaseOutcome::BudgetExhausted(inst) => assert!(inst.fact_count() > 1),
            ChaseOutcome::Completed(inst) => {
                assert!(constraints.iter().all(|c| c.satisfied(&inst)));
            }
            ChaseOutcome::Failed { .. } => panic!("no denial constraints present"),
        }
    }

    #[test]
    fn chase_stats_count_repairs_identically_across_modes() {
        // An FD null-merge plus two cascading IND repairs: the repair
        // counters must agree between modes, and the incremental mode is the
        // only one rewriting individual facts.
        let mut inst = Instance::new();
        inst.add_fact(
            "R",
            Tuple::new(vec![Value::str("a"), Value::labelled_null(1)]),
        );
        inst.add_fact("R", Tuple::new(vec![Value::str("a"), Value::str("b")]));
        let constraints = vec![
            Constraint::Fd(FunctionalDependency::new("R", vec![0], 1)),
            Constraint::Ind(InclusionDependency::new("R", vec![1], "S", vec![0])),
            Constraint::Ind(InclusionDependency::new("S", vec![0], "T", vec![0])),
        ];
        let (outcome, inc) = chase_with_stats(
            &inst,
            &constraints,
            &ChaseConfig {
                max_steps: 10_000,
                incremental: true,
            },
        );
        let (scan_outcome, scan) = chase_with_stats(
            &inst,
            &constraints,
            &ChaseConfig {
                max_steps: 10_000,
                incremental: false,
            },
        );
        assert_eq!(outcome, scan_outcome);
        assert_eq!(inc.fd_merges, 1);
        assert_eq!(inc.ind_additions, 2);
        assert_eq!(inc.repairs(), 3);
        assert_eq!(scan.fd_merges, inc.fd_merges);
        assert_eq!(scan.ind_additions, inc.ind_additions);
        assert_eq!(scan.passes, inc.passes);
        assert_eq!(scan.violation_checks, inc.violation_checks);
        // The FD merge rewrote exactly the one fact mentioning the null.
        assert_eq!(inc.facts_rewritten, 1);
        assert_eq!(scan.facts_rewritten, 0);
    }

    #[test]
    fn incremental_mode_rescans_fewer_tuples_on_repair_cascades() {
        // R[0] ⊆ S[0] over an empty S forces one repair per pass: the scan
        // baseline re-walks R and the growing S every pass (quadratic), while
        // the dirty set shrinks by the freshly-witnessed source each pass.
        let mut inst = Instance::new();
        for i in 0..20 {
            inst.add_fact("R", tuple![format!("r{i:02}")]);
        }
        let constraints = vec![Constraint::Ind(InclusionDependency::new(
            "R",
            vec![0],
            "S",
            vec![0],
        ))];
        let (inc_outcome, inc) = chase_with_stats(
            &inst,
            &constraints,
            &ChaseConfig {
                max_steps: 10_000,
                incremental: true,
            },
        );
        let (scan_outcome, scan) = chase_with_stats(
            &inst,
            &constraints,
            &ChaseConfig {
                max_steps: 10_000,
                incremental: false,
            },
        );
        assert_eq!(inc_outcome, scan_outcome);
        assert_eq!(inc.ind_additions, 20);
        assert_eq!(scan.ind_additions, 20);
        assert!(
            inc.tuples_rescanned * 4 < scan.tuples_rescanned,
            "incremental rescans ({}) should be far below scan rescans ({})",
            inc.tuples_rescanned,
            scan.tuples_rescanned
        );
    }

    #[test]
    fn incremental_is_the_baseline_and_env_name_is_stable() {
        assert!(ChaseConfig::base().incremental);
        assert_eq!(ChaseConfig::base().max_steps, 10_000);
        assert_eq!(
            DISABLE_INCREMENTAL_CHASE_ENV_VAR,
            "ACCLTL_DISABLE_INCREMENTAL_CHASE"
        );
    }

    #[test]
    fn implication_of_transitive_fd() {
        // R: 1→2 and R: 2→3 imply R: 1→3.
        let constraints = vec![
            Constraint::Fd(FunctionalDependency::new("R", vec![0], 1)),
            Constraint::Fd(FunctionalDependency::new("R", vec![1], 2)),
        ];
        let sigma = FunctionalDependency::new("R", vec![0], 2);
        let arities = BTreeMap::from([(RelId::new("R"), 3)]);
        assert_eq!(
            implies_fd(&constraints, &sigma, &arities, &ChaseConfig::base()),
            Implication::Implied
        );

        let not_implied = FunctionalDependency::new("R", vec![2], 0);
        assert_eq!(
            implies_fd(&constraints, &not_implied, &arities, &ChaseConfig::base()),
            Implication::NotImplied
        );
    }

    #[test]
    fn implication_with_inclusion_dependency() {
        // Classic interaction: R[1,2] ⊆ S[1,2] and S: 1→2 imply R: 1→2.
        let constraints = vec![
            Constraint::Ind(InclusionDependency::new("R", vec![0, 1], "S", vec![0, 1])),
            Constraint::Fd(FunctionalDependency::new("S", vec![0], 1)),
        ];
        let sigma = FunctionalDependency::new("R", vec![0], 1);
        let arities = BTreeMap::from([(RelId::new("R"), 2), (RelId::new("S"), 2)]);
        assert_eq!(
            implies_fd(&constraints, &sigma, &arities, &ChaseConfig::base()),
            Implication::Implied
        );
    }

    #[test]
    fn implication_unknown_for_missing_arity() {
        let sigma = FunctionalDependency::new("Z", vec![0], 1);
        assert_eq!(
            implies_fd(&[], &sigma, &BTreeMap::new(), &ChaseConfig::base()),
            Implication::Unknown
        );
    }
}
