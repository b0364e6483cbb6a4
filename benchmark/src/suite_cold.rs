//! `suite-cold`: what `awam analyze` users and the paper's Table 1 pay.
//!
//! A closed loop on one thread. One op is a pass over the eleven Table 1
//! programs in a seeded order; each program goes parse → compile →
//! fixpoint → report from source, with nothing cached between programs
//! or passes. The serving and incremental layers are not used.

use crate::reference::{baseline_table, report_table};
use crate::stats::{closed_loop_metrics, median, ratio, SEGMENTS};
use crate::trace::{median_self_us, NoSpans, Recorder, Spans};
use crate::{note_samples, Config, Outcome};
use awam_core::{Analysis, AnalyzerBuilder};
use awam_testkit::Rng;
use bench_suite::Benchmark;
use prolog_syntax::parse_program;
use std::time::{Duration, Instant};

/// The tail percentile reported, and the segments its median is taken
/// over: a pass takes ~8 ms, so the ~3,000 passes of a committed run
/// leave at least ten beyond p99 in each of two segments.
const TAIL: f64 = 99.0;
const TAIL_SEGMENTS: usize = 2;

/// Set-up repetitions; `setup_s` is their median. Set-up here takes
/// about a millisecond and a half, so it is repeated often enough to be
/// steady: once before the timed passes, the rest spread evenly over
/// them, so that the median samples the host over the run as the passes
/// do.
const SETUP_REPS: usize = 101;

/// Everything one program's cold analysis returned that the checks and
/// counters need.
struct Analyzed {
    report: String,
    analysis: Analysis,
    code_size: usize,
}

struct Suite {
    programs: Vec<Benchmark>,
    references: Vec<Vec<String>>,
}

impl Suite {
    fn load(config: &Config) -> Result<Suite, String> {
        let programs = bench_suite::all();
        let references = programs
            .iter()
            .map(|b| {
                let program = b.parse().map_err(|e| format!("{}: {e}", b.name))?;
                baseline_table(&program, b.entry, b.entry_specs, config.corrupt)
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Suite {
            programs,
            references,
        })
    }

    /// 1 when any result of the pass is wrong or missing, else 0.
    fn failures(&self, results: &[(usize, Result<Analyzed, String>)]) -> u64 {
        u64::from(results.iter().any(|(i, result)| match result {
            Ok(done) => report_table(&done.report) != self.references[*i],
            Err(_) => true,
        }))
    }
}

/// One pass: every program in `order`, cold, from source.
fn pass<S: Spans>(
    spans: &mut S,
    suite: &Suite,
    order: &[usize],
) -> Vec<(usize, Result<Analyzed, String>)> {
    let op = spans.enter("op", 0);
    let results = order
        .iter()
        .map(|&i| (i, analyze_one(spans, &suite.programs[i], i as u16)))
        .collect();
    spans.exit(op);
    results
}

fn analyze_one<S: Spans>(spans: &mut S, b: &Benchmark, tag: u16) -> Result<Analyzed, String> {
    let s = spans.enter("syntax.parse", tag);
    let program = parse_program(b.source);
    spans.exit(s);
    let program = program.map_err(|e| e.to_string())?;
    let s = spans.enter("wam.compile", tag);
    let analyzer = AnalyzerBuilder::default().compile(&program);
    spans.exit(s);
    let analyzer = analyzer.map_err(|e| e.to_string())?;
    let s = spans.enter("core.fixpoint", tag);
    let analysis = analyzer.session().analyze_query(b.entry, b.entry_specs);
    spans.exit(s);
    let analysis = analysis.map_err(|e| e.to_string())?;
    let s = spans.enter("core.report", tag);
    let report = analysis.report(&analyzer);
    spans.exit(s);
    Ok(Analyzed {
        report,
        analysis,
        code_size: analyzer.program().code_size(),
    })
}

fn shuffled(rng: &mut Rng, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    order
}

/// Seconds to parse and compile the whole suite: the analyzers a caller
/// holds before its first query.
fn setup_seconds(suite: &Suite) -> Result<f64, String> {
    let started = Instant::now();
    for b in &suite.programs {
        let program = parse_program(b.source).map_err(|e| e.to_string())?;
        let analyzer = AnalyzerBuilder::default()
            .compile(&program)
            .map_err(|e| e.to_string())?;
        std::hint::black_box(analyzer);
    }
    Ok(started.elapsed().as_secs_f64())
}

/// The untraced run: end-to-end metrics.
pub fn run(config: &Config) -> Result<Outcome, String> {
    let suite = Suite::load(config)?;
    let mut setup = Vec::with_capacity(SETUP_REPS);
    setup.push(setup_seconds(&suite)?);
    let mut rng = Rng::new(config.seed);
    let mut outcome = Outcome::default();
    // Warm-up passes let lazy initialisation and the allocator settle;
    // they are checked but not timed.
    let warmup = Duration::from_secs_f64(config.seconds * 0.05);
    let started = Instant::now();
    while started.elapsed() < warmup {
        let results = pass(
            &mut NoSpans,
            &suite,
            &shuffled(&mut rng, suite.programs.len()),
        );
        outcome.failed += suite.failures(&results);
        outcome.attempted += 1;
    }
    let timed = Duration::from_secs_f64(config.seconds * 0.95);
    let deadline = Instant::now() + timed;
    let setup_every = timed / SETUP_REPS as u32;
    let mut next_setup = Instant::now() + setup_every;
    let mut latencies_us = Vec::new();
    while Instant::now() < deadline {
        if Instant::now() >= next_setup && setup.len() < SETUP_REPS {
            setup.push(setup_seconds(&suite)?);
            next_setup += setup_every;
        }
        let order = shuffled(&mut rng, suite.programs.len());
        let t = Instant::now();
        let results = pass(&mut NoSpans, &suite, &order);
        latencies_us.push(t.elapsed().as_secs_f64() * 1e6);
        outcome.failed += suite.failures(&results);
        outcome.attempted += 1;
    }
    while setup.len() < SETUP_REPS {
        setup.push(setup_seconds(&suite)?);
    }
    outcome.metrics = closed_loop_metrics(&latencies_us, SEGMENTS, TAIL, TAIL_SEGMENTS);
    outcome.metrics.push(("setup_s", median(&setup)));
    note_samples(&mut outcome, latencies_us.len(), TAIL, TAIL_SEGMENTS);
    outcome.note("op", "one pass over the 11 Table 1 programs");
    Ok(outcome)
}

/// Counters of one pass, summed over its programs (heap high water is
/// the largest). They depend only on the programs, not on the order or
/// the host, so they repeat exactly.
fn pass_counters(results: &[(usize, Result<Analyzed, String>)]) -> Vec<(&'static str, f64)> {
    let done: Vec<&Analyzed> = results
        .iter()
        .filter_map(|(_, r)| r.as_ref().ok())
        .collect();
    let sum = |f: &dyn Fn(&Analyzed) -> u64| done.iter().map(|a| f(a)).sum::<u64>();
    let table = |a: &Analyzed| a.analysis.table_stats;
    let intern = |a: &Analyzed| a.analysis.intern_stats;
    vec![
        ("wam.code_size", sum(&|a| a.code_size as u64) as f64),
        ("core.iterations", sum(&|a| a.analysis.iterations) as f64),
        (
            "core.instructions",
            sum(&|a| a.analysis.instructions_executed) as f64,
        ),
        ("core.et_lookups", sum(&|a| table(a).lookups) as f64),
        (
            "core.et_hit_ratio",
            ratio(sum(&|a| table(a).hits), sum(&|a| table(a).lookups)),
        ),
        (
            "core.backtracks",
            sum(&|a| a.analysis.machine_stats.backtracks) as f64,
        ),
        (
            "core.heap_high_water",
            done.iter()
                .map(|a| a.analysis.machine_stats.heap_high_water)
                .max()
                .unwrap_or(0) as f64,
        ),
        (
            "absdom.intern_hit_ratio",
            ratio(
                sum(&|a| intern(a).intern_hits),
                sum(&|a| intern(a).intern_hits + intern(a).intern_misses),
            ),
        ),
        ("absdom.lub_calls", sum(&|a| intern(a).lub_calls) as f64),
        (
            "absdom.lub_cache_hit_ratio",
            ratio(
                sum(&|a| intern(a).lub_cache_hits),
                sum(&|a| intern(a).lub_calls),
            ),
        ),
        (
            "absdom.leq_cache_hit_ratio",
            ratio(
                sum(&|a| intern(a).leq_cache_hits),
                sum(&|a| intern(a).leq_calls),
            ),
        ),
    ]
}

/// The traced section: per-layer self times from paired traced and
/// untraced passes, plus the exact counters.
pub fn traced(config: &Config) -> Result<Outcome, String> {
    let suite = Suite::load(config)?;
    let mut rng = Rng::new(config.seed);
    let mut outcome = Outcome::default();
    let mut recorder = Recorder::default();
    let mut untraced_us = Vec::new();
    let mut traced_us = Vec::new();
    let mut counters = None;
    let deadline = Instant::now() + Duration::from_secs_f64(config.seconds);
    let mut pair = 0usize;
    while Instant::now() < deadline || pair < 2 {
        let order = shuffled(&mut rng, suite.programs.len());
        // Alternate which side of the pair runs first.
        for traced_side in [pair.is_multiple_of(2), !pair.is_multiple_of(2)] {
            let t = Instant::now();
            let results = if traced_side {
                pass(&mut recorder, &suite, &order)
            } else {
                pass(&mut NoSpans, &suite, &order)
            };
            let us = t.elapsed().as_secs_f64() * 1e6;
            if traced_side {
                traced_us.push(us);
                counters.get_or_insert_with(|| pass_counters(&results));
            } else {
                untraced_us.push(us);
            }
            outcome.failed += suite.failures(&results);
            outcome.attempted += 1;
        }
        pair += 1;
    }
    let ops = recorder.ops("op");
    let per_op = |name: &str| median_self_us(&ops, name);
    outcome.metrics = vec![
        ("syntax.parse_us", per_op("syntax.parse")),
        ("wam.compile_us", per_op("wam.compile")),
        ("core.fixpoint_us", per_op("core.fixpoint")),
        ("core.report_us", per_op("core.report")),
    ];
    for (i, b) in suite.programs.iter().enumerate() {
        let samples: Vec<f64> = ops
            .iter()
            .filter_map(|op| op.tagged_self_ns("core.fixpoint", i as u16))
            .map(|ns| ns as f64 / 1e3)
            .collect();
        outcome
            .metrics
            .push((fixpoint_metric(b.name)?, median(&samples)));
    }
    outcome.metrics.extend(counters.unwrap_or_default());
    outcome.metrics.push((
        "trace.overhead_ratio.suite-cold",
        median(&traced_us) / median(&untraced_us),
    ));
    let unattributed: Vec<f64> = ops.iter().map(|op| op.unattributed_share("op")).collect();
    outcome
        .metrics
        .push(("trace.unattributed_ratio.suite-cold", median(&unattributed)));
    outcome.note("suite-cold.traced_pairs", pair);
    Ok(outcome)
}

/// The per-program fixpoint metric name (the Table 1 column).
fn fixpoint_metric(program: &str) -> Result<&'static str, String> {
    Ok(match program {
        "log10" => "core.fixpoint_us.log10",
        "ops8" => "core.fixpoint_us.ops8",
        "times10" => "core.fixpoint_us.times10",
        "divide10" => "core.fixpoint_us.divide10",
        "tak" => "core.fixpoint_us.tak",
        "nreverse" => "core.fixpoint_us.nreverse",
        "qsort" => "core.fixpoint_us.qsort",
        "query" => "core.fixpoint_us.query",
        "zebra" => "core.fixpoint_us.zebra",
        "serialise" => "core.fixpoint_us.serialise",
        "queens_8" => "core.fixpoint_us.queens_8",
        other => return Err(format!("no fixpoint metric for suite program {other}")),
    })
}
