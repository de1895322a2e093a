//! `monitor_stream`: one op is one `MonitorSession::step` plus
//! `still_relevant` for each monitored query, over ×16 Fig-1.
//!
//! A pass is a fixed number of episodes; each episode opens a fresh session
//! (untimed) and feeds it a seeded stream of `AcM1` lookups in which exactly
//! a quarter of the steps reveal a fresh `Mobile#` fact and the rest repeat
//! an earlier lookup with its known answer (zero delta).  The instance
//! grows on fresh steps, so the session's incremental reuse is what is
//! measured.

use accltl_core::logic::bounded::{BoundedSearcher, MonitorSession as BoundedSession};
use accltl_core::paths::relevance::{long_term_relevant, LtrOptions};
use accltl_core::paths::rng::SeededRng;
use accltl_core::prelude::*;

use crate::common::{
    analyzer, check_ltr, check_sat, fd_property, mobile, scaled_initial, search_config, zero_ary,
    Counted, Outcome, Verdict, Workload,
};
use crate::trace::Tracer;

const SCALE: usize = 16;
const EPISODES: usize = 2;
const STEPS: usize = 32;
const FRESH: usize = STEPS / 4;
const PROPERTIES: usize = 4;
/// The verification pass compares every `CHECK_EVERY`-th step with a fresh
/// `check_all` over the session's current instance.
const CHECK_EVERY: usize = 4;

/// The traced run's replica of the analyzer's session: one bounded session
/// per interpretation, the grown instance, and each property's slot.
struct TracedSession {
    zero: Option<BoundedSession<'static>>,
    other: Option<BoundedSession<'static>>,
    slots: Vec<(bool, usize)>,
    current: Instance,
}

enum Session {
    None,
    Analyzer(MonitorSession<'static>),
    Traced(TracedSession),
}

pub struct MonitorStream {
    analyzer: &'static AccessAnalyzer,
    properties: Vec<AccLtl>,
    queries: Vec<UnionOfCqs>,
    /// `(access, response, fresh)`, episode after episode.
    stream: Vec<(Access, Response, bool)>,
    session: Session,
}

impl MonitorStream {
    pub fn new(seed: u64) -> Self {
        let schema = phone_directory_access_schema();
        let properties = (0..PROPERTIES).map(|k| fd_property(&schema, k)).collect();
        // Leaked so that sessions, which borrow the analyzer, can live in
        // the workload beside it; one analyzer per set-up.
        let analyzer: &'static AccessAnalyzer =
            Box::leak(Box::new(analyzer(schema, scaled_initial(SCALE))));
        let queries = vec![
            UnionOfCqs::single(cq!(<- atom!("Address"; s, p, @"Jones", h))),
            UnionOfCqs::single(cq!(
                <- atom!("Mobile#"; n, @"OX99ZZ", s, ph),
                atom!("Address"; s, @"OX99ZZ", @"Jones", h)
            )),
        ];
        let mut rng = SeededRng::new(seed);
        let mut stream = Vec::with_capacity(EPISODES * STEPS);
        for episode in 0..EPISODES {
            let mut fresh = vec![false; STEPS];
            fresh[..FRESH].iter_mut().for_each(|f| *f = true);
            rng.shuffle(&mut fresh);
            // Lookups whose answer is known: the initial mobile entries,
            // then every fresh reveal of this episode.
            let mut known: Vec<(String, Tuple)> = (0..SCALE)
                .map(|s| {
                    let name = format!("Resident{s}_0");
                    let fact = mobile(&name, &format!("OX{s}QD"), &format!("Street{s}"), s);
                    (name, fact)
                })
                .collect();
            for (step, &is_fresh) in fresh.iter().enumerate() {
                let (name, fact) = if is_fresh {
                    let name = format!("Fresh{episode}_{step}");
                    let fact = mobile(&name, "OX99ZZ", &format!("New St {episode}"), step);
                    known.push((name.clone(), fact.clone()));
                    (name, fact)
                } else {
                    known[rng.usize_below(known.len())].clone()
                };
                let access = Access::new("AcM1", tuple![name.as_str()]);
                stream.push((access, [fact].into_iter().collect(), is_fresh));
            }
        }
        MonitorStream {
            analyzer,
            properties,
            queries,
            stream,
            session: Session::None,
        }
    }

    fn open_traced(&self) -> TracedSession {
        let (schema, initial) = (self.analyzer.schema(), self.analyzer.initial());
        let mut groups: [Vec<AccLtl>; 2] = [Vec::new(), Vec::new()];
        let slots = self
            .properties
            .iter()
            .map(|property| {
                let zero = zero_ary(classify(property));
                let group = &mut groups[usize::from(!zero)];
                group.push(property.clone());
                (zero, group.len() - 1)
            })
            .collect();
        let open = |formulas: &[AccLtl], zero: bool| {
            (!formulas.is_empty()).then(|| {
                BoundedSearcher::new(schema, initial, zero, search_config()).open_session(formulas)
            })
        };
        TracedSession {
            zero: open(&groups[0], true),
            other: open(&groups[1], false),
            slots,
            current: initial.clone(),
        }
    }
}

fn ltr_options() -> LtrOptions {
    LtrOptions {
        grounded: false,
        ..LtrOptions::default()
    }
}

impl Workload for MonitorStream {
    fn pass_len(&self) -> usize {
        self.stream.len()
    }

    /// The first fresh and the first repeated step of the first episode.
    fn warm_up_ops(&self) -> Vec<usize> {
        let first = |fresh: bool| {
            self.stream[..STEPS]
                .iter()
                .position(|(_, _, f)| *f == fresh)
                .expect("every episode has fresh and repeated steps")
        };
        let mut ops = vec![first(true), first(false)];
        ops.sort_unstable();
        ops
    }

    fn prepare(&mut self, index: usize, traced: bool) -> Result<(), String> {
        if index.is_multiple_of(STEPS) {
            self.session = if traced {
                Session::Traced(self.open_traced())
            } else {
                Session::Analyzer(self.analyzer.monitor(&self.properties))
            };
        }
        Ok(())
    }

    fn run(&mut self, index: usize) -> Result<Outcome, String> {
        let Session::Analyzer(session) = &mut self.session else {
            return Err("no analyzer session is open".into());
        };
        let (access, response, _) = &self.stream[index];
        session.step(access, response).map_err(|e| e.to_string())?;
        let mut verdicts: Vec<Verdict> = session.verdicts().into_iter().map(Verdict::Sat).collect();
        for query in &self.queries {
            verdicts.push(Verdict::Ltr(session.still_relevant(access, query, false)));
        }
        Ok(Outcome {
            verdicts,
            counted: Counted::default(),
        })
    }

    /// `MonitorSession::step` (validate, grow the instance, step each
    /// bounded session, read verdicts with the full-binding downgrade),
    /// then `still_relevant` per query against the grown instance.
    fn run_traced(&mut self, index: usize, tracer: &mut Tracer) -> Result<Outcome, String> {
        let Session::Traced(session) = &mut self.session else {
            return Err("no traced session is open".into());
        };
        let schema = self.analyzer.schema();
        let (access, response, _) = &self.stream[index];
        let queries = &self.queries;
        tracer.span("core.analyzer", |tracer| {
            let method = schema
                .require_method(access.method)
                .map_err(|e| e.to_string())?;
            let relation = method.relation_id();
            AccessPath::from_steps(vec![(access.clone(), response.clone())])
                .validate(schema)
                .map_err(|e| e.to_string())?;
            for tuple in response {
                session.current.add_fact(relation, tuple.clone());
            }
            let mut counted = Counted::default();
            for group in [session.zero.as_mut(), session.other.as_mut()]
                .into_iter()
                .flatten()
            {
                let report = tracer
                    .span("logic.bounded.session_step", |_| {
                        group.step(access, response).cloned()
                    })
                    .map_err(|e| e.to_string())?;
                counted.session_reused += report.reused;
                counted.session_recomputed += report.recomputed;
                counted.session_replayed += u64::from(report.replayed);
                if !report.replayed {
                    counted.explored += report.explored as u64;
                    counted.cost += report.cost as u64;
                    counted.guard_consults += report.guard.total();
                }
            }
            let mut verdicts: Vec<Verdict> = session
                .slots
                .iter()
                .map(|&(zero, slot)| {
                    let verdict = if zero {
                        session
                            .zero
                            .as_ref()
                            .expect("zero group")
                            .verdict(slot)
                            .clone()
                    } else {
                        match session.other.as_ref().expect("other group").verdict(slot) {
                            SatOutcome::Unsatisfiable => SatOutcome::Unknown { explored: 0 },
                            verdict => verdict.clone(),
                        }
                    };
                    Verdict::Sat(verdict)
                })
                .collect();
            for query in queries {
                counted.relevance_calls += 1;
                let verdict = tracer.span("paths.relevance", |_| {
                    long_term_relevant(schema, access, query, &session.current, &ltr_options())
                        .unwrap_or(LtrVerdict::Unknown)
                });
                verdicts.push(Verdict::Ltr(verdict));
            }
            Ok(Outcome { verdicts, counted })
        })
    }

    /// Witnesses replay against the session's current instance; on every
    /// `CHECK_EVERY`-th step the session's verdicts must equal a fresh
    /// `check_all` over that instance.
    fn check(&mut self, index: usize, outcome: &Outcome) -> Result<(), String> {
        let Session::Analyzer(session) = &self.session else {
            return Err("no analyzer session is open".into());
        };
        let schema = self.analyzer.schema();
        let current = session.current();
        let (sat, ltr) = outcome.verdicts.split_at(self.properties.len());
        for (formula, verdict) in self.properties.iter().zip(sat) {
            let Verdict::Sat(verdict) = verdict else {
                return Err("monitor step returned a non-satisfiability verdict".into());
            };
            check_sat(verdict, formula, schema, current)?;
        }
        let (access, _, _) = &self.stream[index];
        for (query, verdict) in self.queries.iter().zip(ltr) {
            let Verdict::Ltr(verdict) = verdict else {
                return Err("monitor step returned a non-relevance verdict".into());
            };
            check_ltr(verdict, access, query, &[], schema, current)?;
        }
        if index.is_multiple_of(CHECK_EVERY) {
            let fresh = analyzer(schema.clone(), current.clone())
                .check_all(&BatchRequest::new(self.properties.clone()));
            let fresh: Vec<&SatOutcome> = fresh.iter().map(|r| &r.outcome).collect();
            let stepped: Vec<&SatOutcome> = sat
                .iter()
                .map(|v| match v {
                    Verdict::Sat(s) => s,
                    _ => unreachable!("checked above"),
                })
                .collect();
            if fresh != stepped {
                return Err(format!(
                    "step {index}: session verdicts differ from a fresh check_all"
                ));
            }
        }
        Ok(())
    }

    fn input_properties(&self) -> Vec<(&'static str, f64)> {
        let fresh = self.stream.iter().filter(|(_, _, f)| *f).count();
        vec![(
            "input.fresh_step_share",
            fresh as f64 / self.stream.len() as f64,
        )]
    }
}
