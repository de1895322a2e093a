//! `generated_planning`: one op is one question on a seeded
//! `generate_workload` schema — containment under access patterns,
//! long-term relevance, maximal answers, an LTS exploration, or constraint
//! repair through `with_constraints`.
//!
//! Schemas vary relations, methods and `max_inputs`; every odd schema
//! carries a disjointness constraint, so exactly half of the relevance
//! questions take the automaton path.  The seed draws each schema's data,
//! queries and accesses, and the order of questions.  Each emptiness run
//! checks a single automaton, so the batch sharing `fig1_audit` exercises
//! does not apply here.  Each question kind has a fixed share of every
//! pass.

use std::collections::BTreeSet;

use accltl_core::automata::applications::{containment_automaton, ltr_automaton};
use accltl_core::automata::{bounded_emptiness_report, EmptinessOutcome};
use accltl_core::paths::relevance::{long_term_relevant, LtrOptions};
use accltl_core::paths::rng::SeededRng;
use accltl_core::paths::LtsTree;
use accltl_core::prelude::*;
use accltl_core::relational::{chase_with_stats, cq_contained_in_cq, ChaseConfig, ChaseOutcome};
use accltl_core::ContainmentOutcome;

use crate::common::{
    analyzer, check_containment, check_ltr, emptiness_config, Counted, Outcome, Verdict, Workload,
};
use crate::trace::Tracer;

/// Schemas per pass: many, because the cost of one question varies several
/// fold between schemas of the same shape, and a run's aggregate should
/// depend little on which schemas its seed draws.  The shapes cycle through
/// every combination of relations (2–4), extra methods (0–2) and
/// `max_inputs` (1–2), each equally often.
const WORLDS: usize = 288;
/// LTS explorations stop at this many nodes, a fifth of the default cap, so
/// that one exploration costs a few milliseconds and a pass can hold many
/// schemas; most explorations reach the cap.
const LTS_NODES: usize = 2_000;
/// Questions per schema and pass, by kind.  LTS explorations are the slow
/// mode (milliseconds against a fraction of one for the rest); their 1/6
/// share puts `op_p90_ms` inside that mode and `op_p50_ms` inside the fast
/// one.
const CONTAINMENT: usize = 1;
const LTR: usize = 2;
const MAXIMAL: usize = 1;
const LTS: usize = 1;
const REPAIR: usize = 1;

enum Question {
    Containment(ConjunctiveQuery, ConjunctiveQuery),
    Ltr(Access, UnionOfCqs),
    Maximal(ConjunctiveQuery),
    Lts,
    Repair,
}

struct World {
    analyzer: AccessAnalyzer,
    hidden: Instance,
    disjointness: Vec<DisjointnessConstraint>,
    /// The instance `Repair` questions chase, and the FD + IND they chase.
    repair_initial: Instance,
    constraints: Vec<Constraint>,
}

pub struct GeneratedPlanning {
    worlds: Vec<World>,
    /// `(world, question)`, in pass order.
    questions: Vec<(usize, Question)>,
}

impl GeneratedPlanning {
    pub fn new(seed: u64) -> Self {
        let mut rng = SeededRng::new(seed);
        let mut worlds = Vec::new();
        let mut questions = Vec::new();
        for w in 0..WORLDS {
            let relations = 2 + w % 3;
            let config = WorkloadConfig {
                relations,
                arity: 3,
                methods: relations + (w / 3) % 3,
                max_inputs: 1 + (w / 9) % 2,
                domain_size: 8,
                facts_per_relation: 10,
                query_atoms: 2,
                seed: rng.next_u64(),
            };
            let workload = generate_workload(&config);
            let disjointness = if w % 2 == 1 {
                vec![DisjointnessConstraint::new("R0", 0, "R1", 0)]
            } else {
                Vec::new()
            };
            let mut analyzer = analyzer(workload.schema.clone(), Instance::new());
            for constraint in &disjointness {
                analyzer = analyzer.with_disjointness(constraint.clone());
            }
            // Keep one R0 fact per first column, so the FD below holds on
            // the constants and the chase completes; the IND then adds
            // R0 facts with nulls that the FD merges.
            let mut repair_initial = Instance::new();
            let mut keys = BTreeSet::new();
            for (relation, tuple) in workload.hidden.facts() {
                if relation != RelId::from("R0") || keys.insert(tuple.values()[0]) {
                    repair_initial.add_fact(relation, tuple.clone());
                }
            }
            let constraints = vec![
                Constraint::Fd(FunctionalDependency::new("R0", vec![0], 2)),
                Constraint::Ind(InclusionDependency::new("R1", vec![0, 1], "R0", vec![0, 1])),
            ];

            let queries = &workload.queries;
            let pick = |rng: &mut SeededRng| queries[rng.usize_below(queries.len())].clone();
            for _ in 0..CONTAINMENT {
                let (a, b) = (
                    rng.usize_below(queries.len()),
                    rng.usize_below(queries.len() - 1),
                );
                let b = if b >= a { b + 1 } else { b };
                questions.push((
                    w,
                    Question::Containment(queries[a].clone(), queries[b].clone()),
                ));
            }
            for _ in 0..LTR {
                let access = workload.accesses[rng.usize_below(workload.accesses.len())].clone();
                questions.push((w, Question::Ltr(access, UnionOfCqs::single(pick(&mut rng)))));
            }
            for _ in 0..MAXIMAL {
                questions.push((w, Question::Maximal(pick(&mut rng))));
            }
            questions.extend((0..LTS).map(|_| (w, Question::Lts)));
            questions.extend((0..REPAIR).map(|_| (w, Question::Repair)));
            worlds.push(World {
                analyzer,
                hidden: workload.hidden,
                disjointness,
                repair_initial,
                constraints,
            });
        }
        rng.shuffle(&mut questions);
        GeneratedPlanning { worlds, questions }
    }
}

fn lts_options() -> LtsOptions {
    LtsOptions {
        max_nodes: LTS_NODES,
        ..LtsOptions::base()
    }
}

fn repair_verdict(repaired: &Instance, constraints: &[Constraint]) -> Verdict {
    Verdict::Repair {
        consistent: constraints.iter().all(|c| c.satisfied(repaired)),
        instance: repaired.clone(),
    }
}

fn lts_verdict(tree: &LtsTree) -> Verdict {
    Verdict::Lts {
        nodes: tree.node_count(),
        edges: tree.edge_count(),
        truncated: tree.truncated,
    }
}

fn emptiness_counted(counted: &mut Counted, report: &SearchReport<EmptinessOutcome>) {
    counted.search(report);
    counted.emptiness_explored += report.explored as u64;
}

impl Workload for GeneratedPlanning {
    fn pass_len(&self) -> usize {
        self.questions.len()
    }

    fn warm_up_ops(&self) -> Vec<usize> {
        let mut seen = Vec::new();
        (0..self.questions.len())
            .filter(|&i| {
                let kind = std::mem::discriminant(&self.questions[i].1);
                let new = !seen.contains(&kind);
                seen.push(kind);
                new
            })
            .collect()
    }

    fn run(&mut self, index: usize) -> Result<Outcome, String> {
        let (w, question) = &self.questions[index];
        let world = &self.worlds[*w];
        let analyzer = &world.analyzer;
        let verdict = match question {
            Question::Containment(q1, q2) => {
                Verdict::Containment(analyzer.contained_under_access_patterns(q1, q2))
            }
            Question::Ltr(access, query) => {
                Verdict::Ltr(analyzer.long_term_relevant(access, query, false))
            }
            Question::Maximal(query) => Verdict::Answers(
                analyzer
                    .maximal_answers(query, &world.hidden)
                    .map_err(|e| e.to_string())?
                    .answers,
            ),
            Question::Lts => lts_verdict(
                &LtsExplorer::new(analyzer.schema(), &world.hidden, lts_options())
                    .explore(analyzer.initial())
                    .map_err(|e| e.to_string())?,
            ),
            Question::Repair => {
                let repaired = AccessAnalyzer::new(analyzer.schema().clone())
                    .with_initial(world.repair_initial.clone())
                    .with_constraints(world.constraints.clone());
                repair_verdict(repaired.initial(), &world.constraints)
            }
        };
        Ok(Outcome {
            verdicts: vec![verdict],
            counted: Counted::default(),
        })
    }

    fn run_traced(&mut self, index: usize, tracer: &mut Tracer) -> Result<Outcome, String> {
        let (w, question) = &self.questions[index];
        let world = &self.worlds[*w];
        let (schema, initial) = (world.analyzer.schema(), world.analyzer.initial());
        let config = emptiness_config();
        let mut counted = Counted::default();
        let verdict = tracer.span("core.analyzer", |tracer| -> Result<Verdict, String> {
            Ok(match question {
                // `contained_under_access_patterns`: plain CQ containment
                // first, then the Proposition 4.4 automaton.
                Question::Containment(q1, q2) => {
                    counted.containment_questions += 1;
                    let plain =
                        tracer.span("relational.containment", |_| cq_contained_in_cq(q1, q2));
                    if plain {
                        counted.containment_shortcuts += 1;
                        Verdict::Containment(ContainmentOutcome::Contained)
                    } else {
                        let automaton = tracer.span("automata.translate", |_| {
                            containment_automaton(schema, q1, q2, &world.disjointness)
                        });
                        let report = tracer.span("automata.emptiness", |_| {
                            bounded_emptiness_report(&automaton, schema, initial, &config)
                        });
                        emptiness_counted(&mut counted, &report);
                        Verdict::Containment(match report.verdict {
                            EmptinessOutcome::Empty => ContainmentOutcome::Contained,
                            EmptinessOutcome::NonEmpty { witness } => {
                                ContainmentOutcome::NotContained {
                                    counterexample: witness,
                                }
                            }
                            EmptinessOutcome::Unknown => ContainmentOutcome::Unknown,
                        })
                    }
                }
                // `long_term_relevant`: combinatorial without constraints,
                // one automaton per disjunct with them.
                Question::Ltr(access, query) => {
                    if world.disjointness.is_empty() {
                        counted.relevance_calls += 1;
                        let options = LtrOptions {
                            grounded: false,
                            ..LtrOptions::default()
                        };
                        Verdict::Ltr(tracer.span("paths.relevance", |_| {
                            long_term_relevant(schema, access, query, initial, &options)
                                .unwrap_or(LtrVerdict::Unknown)
                        }))
                    } else {
                        let mut verdict = LtrVerdict::NotRelevant;
                        for disjunct in &query.disjuncts {
                            let automaton = tracer.span("automata.translate", |_| {
                                ltr_automaton(schema, access, disjunct, &world.disjointness)
                            });
                            let report = tracer.span("automata.emptiness", |_| {
                                bounded_emptiness_report(&automaton, schema, initial, &config)
                            });
                            emptiness_counted(&mut counted, &report);
                            match report.verdict {
                                EmptinessOutcome::NonEmpty { witness } => {
                                    verdict = LtrVerdict::Relevant { witness };
                                    break;
                                }
                                EmptinessOutcome::Unknown => {
                                    verdict = LtrVerdict::Unknown;
                                    break;
                                }
                                EmptinessOutcome::Empty => {}
                            }
                        }
                        Verdict::Ltr(verdict)
                    }
                }
                Question::Maximal(query) => {
                    let (answers, accesses) = tracer
                        .span("paths.answerability", |_| {
                            accltl_core::paths::maximal_answers(
                                schema,
                                query,
                                &world.hidden,
                                initial,
                            )
                            .map(|report| (report.answers, report.accesses_performed))
                        })
                        .map_err(|e| e.to_string())?;
                    counted.answerability_accesses += accesses as u64;
                    Verdict::Answers(answers)
                }
                // The tree is dropped inside the span: tearing it down is
                // part of the exploration's cost.
                Question::Lts => {
                    let verdict = tracer
                        .span("paths.lts", |_| {
                            LtsExplorer::new(schema, &world.hidden, lts_options())
                                .explore(initial)
                                .map(|tree| lts_verdict(&tree))
                        })
                        .map_err(|e| e.to_string())?;
                    if let Verdict::Lts { nodes, .. } = verdict {
                        counted.lts_nodes += nodes as u64;
                    }
                    verdict
                }
                // `with_constraints`: chase the initial instance, keep the
                // repair only when the chase completes.
                Question::Repair => {
                    let (outcome, stats) = tracer.span("relational.chase", |_| {
                        chase_with_stats(
                            &world.repair_initial,
                            &world.constraints,
                            &ChaseConfig::base(),
                        )
                    });
                    counted.chase_passes += stats.passes as u64;
                    counted.chase_violation_checks += stats.violation_checks as u64;
                    match outcome {
                        ChaseOutcome::Completed(repaired) => {
                            repair_verdict(&repaired, &world.constraints)
                        }
                        _ => repair_verdict(&world.repair_initial, &world.constraints),
                    }
                }
            })
        })?;
        Ok(Outcome {
            verdicts: vec![verdict],
            counted,
        })
    }

    fn check(&mut self, index: usize, outcome: &Outcome) -> Result<(), String> {
        let (w, question) = &self.questions[index];
        let world = &self.worlds[*w];
        let (schema, initial) = (world.analyzer.schema(), world.analyzer.initial());
        match (question, &outcome.verdicts[..]) {
            (Question::Containment(q1, q2), [Verdict::Containment(verdict)]) => {
                check_containment(verdict, q1, q2, schema, initial)
            }
            (Question::Ltr(access, query), [Verdict::Ltr(verdict)]) => {
                check_ltr(verdict, access, query, &world.disjointness, schema, initial)
            }
            (Question::Maximal(query), [Verdict::Answers(answers)]) => {
                let full = query.evaluate(&world.hidden.union(initial));
                if answers.is_subset(&full) {
                    Ok(())
                } else {
                    Err(format!(
                        "maximal answers of {query} exceed its answers over the data"
                    ))
                }
            }
            (Question::Lts, [Verdict::Lts { nodes, .. }]) => {
                if (1..=LTS_NODES).contains(nodes) {
                    Ok(())
                } else {
                    Err(format!("LTS exploration returned {nodes} nodes"))
                }
            }
            (
                Question::Repair,
                [Verdict::Repair {
                    consistent,
                    instance,
                }],
            ) => {
                // The inputs are consistent: the chase must complete, keep
                // every original (null-free) fact and satisfy every
                // constraint.
                let kept = world
                    .repair_initial
                    .facts()
                    .all(|(relation, tuple)| instance.contains(relation, tuple));
                if *consistent && kept {
                    Ok(())
                } else {
                    Err("constraint repair did not complete on consistent input".into())
                }
            }
            _ => Err("generated_planning verdict does not match its question".into()),
        }
    }

    fn input_properties(&self) -> Vec<(&'static str, f64)> {
        let ltr: Vec<usize> = self
            .questions
            .iter()
            .filter(|(_, q)| matches!(q, Question::Ltr(..)))
            .map(|(w, _)| *w)
            .collect();
        let automaton = ltr
            .iter()
            .filter(|&&w| !self.worlds[w].disjointness.is_empty())
            .count();
        let pairs: Vec<(&ConjunctiveQuery, &ConjunctiveQuery)> = self
            .questions
            .iter()
            .filter_map(|(_, q)| match q {
                Question::Containment(q1, q2) => Some((q1, q2)),
                _ => None,
            })
            .collect();
        let shortcut = pairs
            .iter()
            .filter(|(q1, q2)| cq_contained_in_cq(q1, q2))
            .count();
        vec![
            (
                "input.ltr_automaton_share",
                automaton as f64 / ltr.len().max(1) as f64,
            ),
            (
                "input.containment_shortcut_share",
                shortcut as f64 / pairs.len().max(1) as f64,
            ),
        ]
    }
}
