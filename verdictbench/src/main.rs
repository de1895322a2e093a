//! The analyzer's verdict benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path verdictbench/Cargo.toml -- \
//!     --workload <fig1_audit|generated_planning|monitor_stream> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process, one client thread, a closed loop: each op starts when the
//! previous one returns, and every engine runs at `threads = 1`.  A run sets
//! the workload up five times (`setup_s` is the median), makes one
//! verification pass that checks every verdict against semantics
//! independent of the engine, then times whole passes of ops until
//! `--seconds` of op time, comparing each op's verdicts with the verified
//! pass.  With `--trace 1` the seconds
//! are split between an untraced loop and a traced loop of whole passes
//! whose spans give per-layer self time; the traced loop must reproduce the
//! verified verdicts and its registry counters must equal the sums over its
//! reports.
//!
//! The last line of standard output is the result object; the lines before
//! it carry the environment, the input properties and a determinism record
//! (verdict digest and counters of the verification pass), which the same
//! seed must reproduce exactly (`verdictbench/selfcheck.sh`).

mod common;
mod fig1;
mod monitor;
mod planning;
mod trace;

use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use accltl_core::obs::json::JsonObject;
use accltl_core::obs::metrics::{self, MetricsSnapshot};

use common::{Counted, Outcome, Workload};
use trace::Tracer;

const WORKLOADS: [&str; 3] = ["fig1_audit", "generated_planning", "monitor_stream"];
const SETUP_REPEATS: usize = 5;
/// Every timed loop runs at least this many ops, so that at least ten
/// samples lie beyond `op_p90_ms`.
const MIN_OPS: usize = 100;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut values: BTreeMap<String, String> = BTreeMap::new();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        values.insert(name.to_owned(), value);
    }
    let mut take = |name: &str| {
        values
            .remove(name)
            .ok_or_else(|| format!("missing --{name}"))
    };
    let workload = take("workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?}"
        ));
    }
    let seed = take("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = take("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must lie in (0, 600]".into());
    }
    let trace = match take("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    if let Some(name) = values.keys().next() {
        return Err(format!("unknown flag --{name}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn new_workload(name: &str, seed: u64) -> Box<dyn Workload> {
    match name {
        "fig1_audit" => Box::new(fig1::Fig1Audit::new(seed)),
        "generated_planning" => Box::new(planning::GeneratedPlanning::new(seed)),
        "monitor_stream" => Box::new(monitor::MonitorStream::new(seed)),
        _ => unreachable!("workload names are validated by parse_args"),
    }
}

/// Input generation, analyzer construction and a warm-up: the median of
/// `SETUP_REPEATS` set-ups, and the last workload built.
fn set_up(args: &Args) -> Result<(f64, Box<dyn Workload>), String> {
    let mut times = Vec::new();
    let mut workload = None;
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        let mut built = new_workload(&args.workload, args.seed);
        built.prepare(0, false)?;
        for index in built.warm_up_ops() {
            built.prepare(index, false)?;
            built.run(index)?;
        }
        times.push(start.elapsed().as_secs_f64());
        workload = Some(built);
    }
    Ok((median(&mut times), workload.expect("at least one set-up")))
}

/// What the verification pass found.
struct Verified {
    digests: Vec<u64>,
    witness_digests: Vec<u64>,
    questions: usize,
    decided: usize,
    failed: usize,
    counters: MetricsSnapshot,
}

fn add_delta(total: &mut MetricsSnapshot, before: &MetricsSnapshot) {
    for (name, value) in metrics::snapshot().delta(before).counters {
        *total.counters.entry(name).or_default() += value;
    }
}

/// One untimed pass over every op, each verdict checked.
fn verify(workload: &mut dyn Workload) -> Result<Verified, String> {
    let mut verified = Verified {
        digests: Vec::new(),
        witness_digests: Vec::new(),
        questions: 0,
        decided: 0,
        failed: 0,
        counters: MetricsSnapshot::default(),
    };
    for index in 0..workload.pass_len() {
        workload.prepare(index, false)?;
        let before = metrics::snapshot();
        let outcome = workload.run(index);
        add_delta(&mut verified.counters, &before);
        let checked = outcome.and_then(|outcome| {
            workload.check(index, &outcome)?;
            Ok(outcome)
        });
        match checked {
            Ok(outcome) => {
                verified.questions += outcome.verdicts.len();
                verified.decided += outcome.verdicts.iter().filter(|v| v.decided()).count();
                verified.digests.push(outcome.digest());
                verified.witness_digests.push(outcome.witness_digest());
            }
            Err(error) => {
                eprintln!("op {index}: {error}");
                verified.failed += 1;
                verified.digests.push(0);
                verified.witness_digests.push(0);
            }
        }
    }
    Ok(verified)
}

/// Op latencies of a timed loop, per pass, and ops whose verdicts differed
/// from the verified pass or returned an error.
struct Timed {
    passes: Vec<Vec<f64>>,
    failed: usize,
    /// Per op, the witness digest of its latest run (kept with `--trace 1`,
    /// for the traced loop to reproduce).
    witness_digests: Vec<u64>,
}

/// The host's speed drifts by tens of percent over seconds to minutes (a
/// plain arithmetic loop shows it too), and a busy neighbour only ever
/// slows a pass down.  So each timing is taken per pass and reported from
/// the best decile of passes: the 10th percentile of per-pass latencies and
/// the 90th of per-pass throughputs.
const BEST: f64 = 0.1;

impl Timed {
    fn ops(&self) -> usize {
        self.passes.iter().map(Vec::len).sum()
    }

    /// Per-pass latency quantile `q`, in ms, at the best decile of passes.
    fn latency_ms(&self, q: f64) -> f64 {
        let mut per_pass: Vec<f64> = self
            .passes
            .iter()
            .map(|pass| quantile(&mut pass.clone(), q) * 1e3)
            .collect();
        quantile(&mut per_pass, BEST)
    }

    /// Per-pass ops per second of op time, at the best decile of passes.
    fn ops_per_s(&self) -> f64 {
        let mut rates: Vec<f64> = self
            .passes
            .iter()
            .map(|pass| pass.len() as f64 / pass.iter().sum::<f64>())
            .collect();
        quantile(&mut rates, 1.0 - BEST)
    }
}

/// Whether an op reproduced the verified pass's verdicts; errors and
/// mismatches are reported on standard error.
fn reproduces(index: usize, outcome: &Result<Outcome, String>, expected: u64) -> bool {
    match outcome {
        Ok(outcome) if outcome.digest() == expected => true,
        Ok(_) => {
            eprintln!("op {index}: verdicts differ from the verified pass");
            false
        }
        Err(error) => {
            eprintln!("op {index}: {error}");
            false
        }
    }
}

/// The closed loop, untraced: whole passes until `seconds` of op time and
/// `MIN_OPS` ops.
fn timed_loop(
    workload: &mut dyn Workload,
    verified: &Verified,
    seconds: f64,
    keep_witnesses: bool,
) -> Result<Timed, String> {
    let mut timed = Timed {
        passes: Vec::new(),
        failed: 0,
        witness_digests: vec![0; workload.pass_len()],
    };
    let mut busy = 0.0;
    while busy < seconds || timed.ops() < MIN_OPS {
        let mut pass = Vec::with_capacity(workload.pass_len());
        for index in 0..workload.pass_len() {
            workload.prepare(index, false)?;
            let start = Instant::now();
            let outcome = workload.run(index);
            let elapsed = start.elapsed().as_secs_f64();
            busy += elapsed;
            pass.push(elapsed);
            if !reproduces(index, &outcome, verified.digests[index]) {
                timed.failed += 1;
            }
            if let (true, Ok(outcome)) = (keep_witnesses, &outcome) {
                timed.witness_digests[index] = outcome.witness_digest();
            }
        }
        timed.passes.push(pass);
    }
    Ok(timed)
}

/// The traced loop: whole passes until `seconds` of op time.
struct Traced {
    ops: usize,
    failed: usize,
    tracer: Tracer,
    counters: MetricsSnapshot,
    counted: Counted,
}

fn traced_loop(
    workload: &mut dyn Workload,
    verified: &Verified,
    untraced: &Timed,
    seconds: f64,
) -> Result<Traced, String> {
    let mut traced = Traced {
        ops: 0,
        failed: 0,
        tracer: Tracer::default(),
        counters: MetricsSnapshot::default(),
        counted: Counted::default(),
    };
    loop {
        for index in 0..workload.pass_len() {
            workload.prepare(index, true)?;
            let before = metrics::snapshot();
            let outcome = traced
                .tracer
                .span(trace::OP, |tracer| workload.run_traced(index, tracer));
            add_delta(&mut traced.counters, &before);
            traced.ops += 1;
            if !reproduces(index, &outcome, verified.digests[index]) {
                traced.failed += 1;
            } else if let Ok(outcome) = &outcome {
                // Later runs of an op return the same witnesses, so the
                // traced run must reproduce the untraced run's exactly.
                if outcome.witness_digest() != untraced.witness_digests[index] {
                    eprintln!("op {index}: traced witnesses differ from the untraced run");
                    traced.failed += 1;
                }
            }
            if let Ok(outcome) = outcome {
                traced.counted.add(&outcome.counted);
            }
        }
        if traced.tracer.op_time().as_secs_f64() >= seconds {
            return Ok(traced);
        }
    }
}

/// Registry counters that must equal the sums over the traced run's
/// reports; returns the mismatches.
fn reconcile(traced: &Traced) -> Vec<String> {
    let registry = |name: &str| traced.counters.counter(name);
    let c = &traced.counted;
    let pairs = [
        ("search.explored", registry("search.explored"), c.explored),
        ("engine.explored", registry("engine.explored"), c.explored),
        ("search.cost", registry("search.cost"), c.cost),
        ("engine.cost", registry("engine.cost"), c.cost),
        (
            "guard_cache.hits+misses",
            registry("guard_cache.hits") + registry("guard_cache.misses"),
            c.guard_consults,
        ),
        (
            "session.reused",
            registry("session.reused"),
            c.session_reused,
        ),
        (
            "session.recomputed",
            registry("session.recomputed"),
            c.session_recomputed,
        ),
        (
            "session.replayed",
            registry("session.replayed"),
            c.session_replayed,
        ),
        ("chase.passes", registry("chase.passes"), c.chase_passes),
        (
            "chase.violation_checks",
            registry("chase.violation_checks"),
            c.chase_violation_checks,
        ),
        ("lts.nodes", registry("lts.nodes"), c.lts_nodes),
    ];
    pairs
        .into_iter()
        .filter(|(_, registry, reports)| registry != reports)
        .map(|(name, registry, reports)| {
            format!("{name}: registry {registry} != reports {reports}")
        })
        .collect()
}

/// A metric as printed: name, value, unit.
type Metric = (&'static str, f64, &'static str);

/// Per-layer metrics of the traced loop, per traced op: self time of each
/// layer's spans, counts from the registry delta or from the reports.
fn layer_metrics(traced: &Traced, untraced: &Timed) -> Vec<Metric> {
    let ops = traced.ops as f64;
    let self_times = traced.tracer.self_times();
    let ms = |span: &str| self_times.get(span).map_or(0.0, Duration::as_secs_f64) * 1e3 / ops;
    let registry = |name: &str| traced.counters.counter(name);
    let count = |name: &str| registry(name) as f64 / ops;
    let ratio = |part: u64, rest: u64| match part + rest {
        0 => 0.0,
        whole => part as f64 / whole as f64,
    };
    let c = &traced.counted;
    let mut out: Vec<Metric> = vec![
        ("core.analyzer.self_ms", ms("core.analyzer"), "ms"),
        (
            "logic.fragment.classify_ms",
            ms("logic.fragment.classify"),
            "ms",
        ),
        (
            "logic.bounded.run_batch_ms",
            ms("logic.bounded.run_batch"),
            "ms",
        ),
        (
            "logic.bounded.session_step_ms",
            ms("logic.bounded.session_step"),
            "ms",
        ),
        ("automata.translate_ms", ms("automata.translate"), "ms"),
        ("automata.emptiness_ms", ms("automata.emptiness"), "ms"),
        (
            "relational.containment_ms",
            ms("relational.containment"),
            "ms",
        ),
        ("paths.relevance_ms", ms("paths.relevance"), "ms"),
        ("paths.answerability_ms", ms("paths.answerability"), "ms"),
        ("paths.lts_ms", ms("paths.lts"), "ms"),
        ("relational.chase_ms", ms("relational.chase"), "ms"),
    ];
    let attributed: f64 = out.iter().map(|(_, value, _)| value).sum();
    let op_time = traced.tracer.op_time().as_secs_f64();
    let op_ms = op_time * 1e3 / ops;
    let traced_ops_per_s = ops / op_time;
    let untraced_ops_per_s = untraced.ops() as f64 / untraced.passes.iter().flatten().sum::<f64>();
    out.extend([
        ("paths.engine.explored", count("engine.explored"), "count"),
        ("paths.engine.cost", count("engine.cost"), "count"),
        (
            "paths.engine.cache_hit_ratio",
            ratio(
                registry("engine.cache.hits"),
                registry("engine.cache.misses"),
            ),
            "ratio",
        ),
        (
            "relational.guard_cache.consults",
            count("guard_cache.hits") + count("guard_cache.misses"),
            "count",
        ),
        (
            "relational.guard_cache.hit_ratio",
            ratio(registry("guard_cache.hits"), registry("guard_cache.misses")),
            "ratio",
        ),
        ("relational.index.builds", count("index.builds"), "count"),
        ("relational.index.tuples", count("index.tuples"), "count"),
        (
            "paths.session.reuse_ratio",
            ratio(registry("session.reused"), registry("session.recomputed")),
            "ratio",
        ),
        ("paths.session.replayed", count("session.replayed"), "count"),
        (
            "automata.emptiness.explored",
            c.emptiness_explored as f64 / ops,
            "count",
        ),
        (
            "relational.containment.shortcut_ratio",
            ratio(
                c.containment_shortcuts,
                c.containment_questions - c.containment_shortcuts,
            ),
            "ratio",
        ),
        (
            "paths.relevance.calls",
            c.relevance_calls as f64 / ops,
            "count",
        ),
        (
            "paths.answerability.accesses",
            c.answerability_accesses as f64 / ops,
            "count",
        ),
        ("paths.lts.nodes", count("lts.nodes"), "count"),
        ("relational.chase.passes", count("chase.passes"), "count"),
        (
            "relational.chase.violation_checks",
            count("chase.violation_checks"),
            "count",
        ),
        (
            "trace.unattributed_ratio",
            (op_ms - attributed) / op_ms,
            "ratio",
        ),
        (
            "trace.overhead_ratio",
            (untraced_ops_per_s - traced_ops_per_s) / untraced_ops_per_s,
            "ratio",
        ),
    ]);
    out
}

/// Input-property names every workload reports (zero where they do not
/// apply), so each run prints the same metric set.
const INPUT_PROPERTIES: [&str; 10] = [
    "input.fragment.XZeroAry_share",
    "input.fragment.ZeroAry_share",
    "input.fragment.ZeroAryWithInequalities_share",
    "input.fragment.BindingPositive_share",
    "input.fragment.Full_share",
    "input.fragment.FullWithInequalities_share",
    "input.mean_scale",
    "input.fresh_step_share",
    "input.ltr_automaton_share",
    "input.containment_shortcut_share",
];

fn input_metrics(workload: &dyn Workload) -> Vec<Metric> {
    let given: BTreeMap<&str, f64> = workload.input_properties().into_iter().collect();
    for name in given.keys() {
        assert!(
            INPUT_PROPERTIES.contains(name),
            "unlisted input property {name}"
        );
    }
    INPUT_PROPERTIES
        .iter()
        .map(|&name| {
            let unit = if name == "input.mean_scale" {
                "x"
            } else {
                "ratio"
            };
            (name, given.get(name).copied().unwrap_or(0.0), unit)
        })
        .collect()
}

fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolation quantile.
fn quantile(values: &mut [f64], q: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    let position = q * (values.len() - 1) as f64;
    let (low, high) = (position.floor() as usize, position.ceil() as usize);
    values[low] + (values[high] - values[low]) * (position - low as f64)
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn command_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|output| output.status.success())
        .map_or_else(
            || "unknown".to_owned(),
            |output| String::from_utf8_lossy(&output.stdout).trim().to_owned(),
        )
}

/// `{name: {"value": v, "unit": u}, ...}`.
fn json_metrics(metrics: &[Metric]) -> String {
    metrics
        .iter()
        .fold(JsonObject::new(), |object, (name, value, unit)| {
            assert!(value.is_finite(), "metric {name} is not finite");
            let metric = JsonObject::new()
                .raw("value", value.to_string())
                .str("unit", unit);
            object.raw(name, metric.build())
        })
        .build()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("verdictbench: {error}");
            return ExitCode::from(2);
        }
    };
    // The ACCLTL_* variables flip ablation flags, thread counts and tracing
    // inside the library, silently changing what is measured.
    let pinned: Vec<String> = std::env::vars_os()
        .filter_map(|(name, _)| name.into_string().ok())
        .filter(|name| name.starts_with("ACCLTL_"))
        .collect();
    if !pinned.is_empty() {
        eprintln!("verdictbench: unset {pinned:?}; they change what the benchmark measures");
        return ExitCode::from(2);
    }
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(error) => {
            eprintln!("verdictbench: {error}");
            ExitCode::FAILURE
        }
    }
}

/// Runs the benchmark and prints its lines; returns whether it was correct.
fn run(args: &Args) -> Result<bool, String> {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let environment = JsonObject::new()
        .str("workload", &args.workload)
        .num("seed", args.seed)
        .num("nproc", nproc as u64)
        .str("rustc", &command_output("rustc", &["--version"]))
        .str(
            "commit",
            &command_output("git", &["--git-dir", ".git", "rev-parse", "HEAD"]),
        )
        .num("engine_threads", 1);
    println!(
        "{}",
        JsonObject::new()
            .raw("environment", environment.build())
            .build()
    );

    let (setup_s, mut workload) = set_up(args)?;
    let verified = verify(workload.as_mut())?;

    let digest = |digests: &[u64]| {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        digests.hash(&mut hasher);
        format!("{:016x}", hasher.finish())
    };
    let counters = verified
        .counters
        .counters
        .iter()
        .filter(|(_, &value)| value != 0)
        .fold(JsonObject::new(), |object, (name, &value)| {
            object.num(name, value)
        });
    let determinism = JsonObject::new()
        .str("workload", &args.workload)
        .num("seed", args.seed)
        .str("verdict_digest", &digest(&verified.digests))
        .str("witness_digest", &digest(&verified.witness_digests))
        .raw("counters", counters.build());
    println!(
        "{}",
        JsonObject::new()
            .raw("determinism", determinism.build())
            .build()
    );
    let inputs = input_metrics(workload.as_ref());
    println!(
        "{}",
        JsonObject::new()
            .raw("inputs", json_metrics(&inputs))
            .build()
    );

    let untraced_seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let timed = timed_loop(workload.as_mut(), &verified, untraced_seconds, args.trace)?;
    let mut attempted = verified.digests.len() + timed.ops();
    let mut failed = verified.failed + timed.failed;
    let mut mismatches = Vec::new();

    let metrics = if args.trace {
        let traced = traced_loop(workload.as_mut(), &verified, &timed, args.seconds / 2.0)?;
        attempted += traced.ops;
        failed += traced.failed;
        mismatches = reconcile(&traced);
        for mismatch in &mismatches {
            eprintln!("counter reconciliation failed: {mismatch}");
        }
        let mut metrics = layer_metrics(&traced, &timed);
        metrics.extend(inputs);
        metrics
    } else {
        let per_pass = timed.passes.first().map_or(0, Vec::len) as u64;
        let samples = JsonObject::new()
            .num("op_samples", timed.ops() as u64)
            .num("passes", timed.passes.len() as u64)
            .num("ops_per_pass", per_pass)
            .num(
                "beyond_p90_per_pass",
                per_pass - (per_pass * 9).div_ceil(10),
            )
            .raw(
                "error_ratio",
                (failed as f64 / attempted as f64).to_string(),
            );
        println!(
            "{}",
            JsonObject::new().raw("samples", samples.build()).build()
        );
        vec![
            ("op_p50_ms", timed.latency_ms(0.5), "ms"),
            ("op_p90_ms", timed.latency_ms(0.9), "ms"),
            ("ops_per_s", timed.ops_per_s(), "1/s"),
            (
                "decided_ratio",
                verified.decided as f64 / verified.questions.max(1) as f64,
                "ratio",
            ),
            ("ok_ratio", 1.0 - failed as f64 / attempted as f64, "ratio"),
            ("setup_s", setup_s, "s"),
            ("peak_rss_mb", peak_rss_mb(), "MB"),
        ]
    };
    let correct = failed == 0 && mismatches.is_empty();
    let result = JsonObject::new()
        .bool("correct", correct)
        .num("attempted", attempted as u64)
        .num("failed", failed as u64)
        .raw("metrics", json_metrics(&metrics));
    println!("{}", result.build());
    Ok(correct)
}
