//! `fig1_audit`: one op is one `check_all` batch over the Fig-1
//! phone-directory schema at scale ×1–×16.
//!
//! Every batch holds one property of each Table 1 row, one FD-guarded
//! dataflow property and Jones-reachability, so batch sharing matters and
//! the fragment mix is the same for every seed.  Each scale takes the same
//! share of a pass, and within a scale every formula size and FD variant
//! occurs equally often, so the seed only decides how properties group into
//! batches and in which order batches run; `op_p50_ms` and `op_p90_ms` sit
//! inside a scale's band rather than between two.

use accltl_bench::{table1_formula, table1_rows};
use accltl_core::automata::{accltl_plus_to_automaton, bounded_emptiness_batch_with_config};
use accltl_core::logic::bounded::BoundedSearcher;
use accltl_core::paths::rng::SeededRng;
use accltl_core::prelude::*;

use crate::common::{
    analyzer, check_sat, engine_config, fd_property, scaled_initial, zero_ary, Counted, Outcome,
    Verdict, Workload,
};
use crate::trace::Tracer;

const SCALES: [usize; 5] = [1, 2, 4, 8, 16];
/// Six batches per scale: each of the three Table 1 sizes twice, each of
/// the six FD variants once.
const BATCHES_PER_SCALE: usize = 6;

struct Batch {
    scale: usize,
    properties: Vec<AccLtl>,
}

pub struct Fig1Audit {
    /// One analyzer per entry of `SCALES`.
    analyzers: Vec<AccessAnalyzer>,
    batches: Vec<Batch>,
}

impl Fig1Audit {
    pub fn new(seed: u64) -> Self {
        let schema = phone_directory_access_schema();
        let analyzers = SCALES
            .iter()
            .map(|&scale| analyzer(schema.clone(), scaled_initial(scale)))
            .collect();
        let jones =
            properties::eventually_answered_formula(&cq!(<- atom!("Address"; s, p, @"Jones", h)));
        let mut rng = SeededRng::new(seed);
        let mut batches = Vec::new();
        for &scale in &SCALES {
            // Per scale, every Table 1 row takes each size and the FD
            // property each variant equally often; the seed only groups
            // them into batches.
            let mut rows: Vec<Vec<AccLtl>> = table1_rows()
                .into_iter()
                .map(|row| {
                    let mut sizes: Vec<usize> = (0..BATCHES_PER_SCALE).map(|b| 1 + b % 3).collect();
                    rng.shuffle(&mut sizes);
                    sizes
                        .into_iter()
                        .map(|size| table1_formula(row, size))
                        .collect()
                })
                .collect();
            let mut variants: Vec<usize> = (0..BATCHES_PER_SCALE).collect();
            rng.shuffle(&mut variants);
            for variant in variants {
                let mut properties: Vec<AccLtl> = rows
                    .iter_mut()
                    .map(|row| row.pop().expect("one per batch"))
                    .collect();
                properties.push(fd_property(&schema, variant));
                properties.push(jones.clone());
                rng.shuffle(&mut properties);
                batches.push(Batch { scale, properties });
            }
        }
        rng.shuffle(&mut batches);
        Fig1Audit { analyzers, batches }
    }

    fn analyzer(&self, scale: usize) -> &AccessAnalyzer {
        let slot = SCALES
            .iter()
            .position(|&s| s == scale)
            .expect("known scale");
        &self.analyzers[slot]
    }
}

impl Workload for Fig1Audit {
    fn pass_len(&self) -> usize {
        self.batches.len()
    }

    fn warm_up_ops(&self) -> Vec<usize> {
        SCALES
            .iter()
            .filter_map(|&scale| self.batches.iter().position(|b| b.scale == scale))
            .collect()
    }

    fn run(&mut self, index: usize) -> Result<Outcome, String> {
        let batch = &self.batches[index];
        let request = BatchRequest::new(batch.properties.clone()).with_config(engine_config());
        let reports = self.analyzer(batch.scale).check_all(&request);
        Ok(Outcome {
            verdicts: reports
                .into_iter()
                .map(|r| Verdict::Sat(r.outcome))
                .collect(),
            counted: Counted::default(),
        })
    }

    /// `AccessAnalyzer::check_all` with an explicit engine configuration:
    /// classify, one bounded batch per interpretation (0-ary, then full
    /// bindings with `Unsatisfiable` downgraded), then one emptiness batch
    /// over the `AccLTL+` automata.
    fn run_traced(&mut self, index: usize, tracer: &mut Tracer) -> Result<Outcome, String> {
        let batch = &self.batches[index];
        let analyzer = self.analyzer(batch.scale);
        let (schema, initial, engine) = (analyzer.schema(), analyzer.initial(), engine_config());
        let mut counted = Counted::default();
        let outcomes = tracer.span("core.analyzer", |tracer| {
            let fragments: Vec<Fragment> = tracer.span("logic.fragment.classify", |_| {
                batch.properties.iter().map(classify).collect()
            });
            let mut outcomes: Vec<Option<SatOutcome>> = vec![None; batch.properties.len()];
            let (mut zero, mut plus, mut full) = (Vec::new(), Vec::new(), Vec::new());
            for (index, &fragment) in fragments.iter().enumerate() {
                match fragment {
                    f if zero_ary(f) => zero.push(index),
                    Fragment::BindingPositive => plus.push(index),
                    _ => full.push(index),
                }
            }
            for (indices, zero_ary) in [(&zero, true), (&full, false)] {
                if indices.is_empty() {
                    continue;
                }
                let formulas: Vec<AccLtl> = indices
                    .iter()
                    .map(|&i| batch.properties[i].clone())
                    .collect();
                let reports = tracer.span("logic.bounded.run_batch", |_| {
                    BoundedSearcher::with_engine_config(schema, initial, zero_ary, engine)
                        .run_batch(&formulas)
                });
                for (&index, report) in indices.iter().zip(reports) {
                    counted.search(&report);
                    outcomes[index] = Some(match report.verdict {
                        SatOutcome::Unsatisfiable if !zero_ary => {
                            SatOutcome::Unknown { explored: 0 }
                        }
                        verdict => verdict,
                    });
                }
            }
            if !plus.is_empty() {
                let automata: Vec<AAutomaton> = tracer.span("automata.translate", |_| {
                    plus.iter()
                        .map(|&i| accltl_plus_to_automaton(&batch.properties[i]))
                        .collect()
                });
                let refs: Vec<&AAutomaton> = automata.iter().collect();
                let reports = tracer.span("automata.emptiness", |_| {
                    bounded_emptiness_batch_with_config(&refs, schema, initial, engine)
                });
                for (&index, report) in plus.iter().zip(reports) {
                    counted.search(&report);
                    counted.emptiness_explored += report.explored as u64;
                    outcomes[index] = Some(match report.verdict {
                        accltl_core::automata::EmptinessOutcome::NonEmpty { witness } => {
                            SatOutcome::Satisfiable { witness }
                        }
                        accltl_core::automata::EmptinessOutcome::Empty => SatOutcome::Unsatisfiable,
                        accltl_core::automata::EmptinessOutcome::Unknown => {
                            SatOutcome::Unknown { explored: 0 }
                        }
                    });
                }
            }
            outcomes
        });
        Ok(Outcome {
            verdicts: outcomes
                .into_iter()
                .map(|o| Verdict::Sat(o.expect("every property dispatched")))
                .collect(),
            counted,
        })
    }

    /// Witnesses replay through `AccLtl::holds_on_path`; at ×1 every
    /// property is satisfiable, as in the paper: the Table 1 formulas are
    /// satisfiable by construction, Jones's address is reachable through
    /// the forms (Fig. 1), and the FDs can hold along a dataflow path
    /// (Example 2.4).
    fn check(&mut self, index: usize, outcome: &Outcome) -> Result<(), String> {
        let batch = &self.batches[index];
        let analyzer = self.analyzer(batch.scale);
        for (formula, verdict) in batch.properties.iter().zip(&outcome.verdicts) {
            let Verdict::Sat(sat) = verdict else {
                return Err("fig1_audit op returned a non-satisfiability verdict".into());
            };
            check_sat(sat, formula, analyzer.schema(), analyzer.initial())?;
            if batch.scale == 1 && !sat.is_satisfiable() {
                return Err(format!(
                    "×1 Fig-1: {formula} should be satisfiable, got {sat:?}"
                ));
            }
        }
        Ok(())
    }

    fn input_properties(&self) -> Vec<(&'static str, f64)> {
        let properties: Vec<&AccLtl> = self.batches.iter().flat_map(|b| &b.properties).collect();
        let share = |fragment: Fragment| {
            let n = properties
                .iter()
                .filter(|p| classify(p) == fragment)
                .count();
            n as f64 / properties.len() as f64
        };
        let scales: usize = self.batches.iter().map(|b| b.scale).sum();
        vec![
            ("input.fragment.XZeroAry_share", share(Fragment::XZeroAry)),
            ("input.fragment.ZeroAry_share", share(Fragment::ZeroAry)),
            (
                "input.fragment.ZeroAryWithInequalities_share",
                share(Fragment::ZeroAryWithInequalities),
            ),
            (
                "input.fragment.BindingPositive_share",
                share(Fragment::BindingPositive),
            ),
            ("input.fragment.Full_share", share(Fragment::Full)),
            (
                "input.fragment.FullWithInequalities_share",
                share(Fragment::FullWithInequalities),
            ),
            (
                "input.mean_scale",
                scales as f64 / self.batches.len() as f64,
            ),
        ]
    }
}
