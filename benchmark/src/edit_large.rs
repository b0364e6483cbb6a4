//! `edit-large`: the editor / `awam watch` case, at the size where
//! incremental re-analysis should win.
//!
//! A closed loop on one thread over a [`Workspace`] holding a
//! deterministic composite program: four copies of the eleven Table 1
//! programs, predicates renamed per copy and program, plus a `main`
//! predicate with one clause per copy's entry goal (so every copy stays
//! reachable even where an entry's abstract success is `fails`). Each op
//! is one `Workspace::update_source` followed by re-analysis of `main`.
//! Ops alternate between a seeded `gen_edit` applied to the base program
//! and a revert to the base, so the program size is the same at any run
//! length.
//!
//! A run does a fixed number of ops, set by `--seconds` and
//! [`NOMINAL_OPS_PER_S`], not as many as fit in the time: the memo table
//! keeps entries an edit created after the revert that undoes it, so ops
//! slow as a run goes on, and a faster build would otherwise time a
//! longer, slower trajectory than a slower one.

use crate::reference::{fnv1a, report_body};
use crate::stats::{closed_loop_metrics, median, ratio};
use crate::trace::{median_self_us, NoSpans, Recorder, Spans};
use crate::{note_samples, Config, Outcome};
use awam_core::{migrate_parts, Analyzer, AnalyzerBuilder, ProgramDiff, ProgramEdit, Session};
use awam_core::{SessionParts, Workspace};
use awam_obs::InvalidationStats;
use awam_testkit::{gen_edit, Rng};
use prolog_syntax::{clause_to_string, parse_program, Program};
use std::collections::HashSet;
use std::time::Instant;

/// Copies of the suite in the composite program.
const COPIES: usize = 4;

/// Distinct seeded edits the ops cycle through: enough that the cost
/// mix, which differs from edit to edit, is much the same for every seed.
const EDITS: usize = 32;

/// Ops at the start of a run whose results are all checked and, in a
/// traced run, whose migration counters are reported.
const FIRST_OPS: usize = 16;

/// Ops per second at the commit this benchmark was added at, on the
/// host named in README.md, checks included: sizes a run (`--seconds`
/// times this many ops).
const NOMINAL_OPS_PER_S: f64 = 25.0;

/// The tail percentile reported, and the segments its median is taken
/// over: the 750 ops of a committed run leave at least ten beyond p95 in
/// each of three segments, and too few for p99.
const TAIL: f64 = 95.0;
const TAIL_SEGMENTS: usize = 3;

/// Segments for the typical figures (see `stats::SEGMENTS`): fewer than
/// elsewhere, because a run holds fewer than a thousand ops.
const SEGMENTS: usize = 5;

/// After the first ops, one op in this many is checked.
const CHECK_ONE_IN: u64 = 4;

/// Set-up repetitions; `setup_s` is their median. The first opens the
/// workspace the run uses; the others are spread evenly over the run, so
/// that their median samples the host over the run as the ops do.
const SETUP_REPS: usize = 21;

/// Rename the identifier tokens of `clause` that are in `names` by
/// appending `suffix`; variables, numbers and quoted text are copied.
fn rename(clause: &str, names: &HashSet<String>, suffix: &str) -> String {
    let bytes = clause.as_bytes();
    let mut out = String::with_capacity(clause.len() + 16);
    let mut i = 0;
    let is_ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    while i < bytes.len() {
        let b = bytes[i];
        if b == b'\'' || b == b'"' {
            let end = clause[i + 1..]
                .find(b as char)
                .map_or(bytes.len(), |e| i + 2 + e);
            out.push_str(&clause[i..end]);
            i = end;
        } else if is_ident(b) {
            let start = i;
            while i < bytes.len() && is_ident(bytes[i]) {
                i += 1;
            }
            let token = &clause[start..i];
            out.push_str(token);
            if b.is_ascii_lowercase() && names.contains(token) {
                out.push_str(suffix);
            }
        } else {
            out.push(b as char);
            i += 1;
        }
    }
    out
}

/// The composite base program's source text.
fn composite_source() -> Result<String, String> {
    let mut out = String::new();
    let mut entries = Vec::new();
    for copy in 0..COPIES {
        for (index, b) in bench_suite::all().iter().enumerate() {
            let program = b.parse().map_err(|e| format!("{}: {e}", b.name))?;
            let names: HashSet<String> = program
                .predicate_index()
                .iter()
                .map(|(key, _)| program.interner.resolve(key.name).to_owned())
                .collect();
            let suffix = format!("_c{copy}p{index}");
            for clause in &program.clauses {
                out.push_str(&rename(
                    &clause_to_string(clause, &program.interner),
                    &names,
                    &suffix,
                ));
                out.push('\n');
            }
            entries.push(format!("{}{suffix}", b.entry));
        }
    }
    for entry in entries {
        out.push_str(&format!("main :- {entry}.\n"));
    }
    Ok(out)
}

/// A digest of the reachable core of a cold analysis of `source`: the
/// reference an incrementally maintained workspace must equal. Only the
/// digest is kept, so the references add little to the run's memory.
fn cold_core(source: &str, corrupt: bool) -> Result<u64, String> {
    let mut cold = Workspace::from_source(source).map_err(|e| e.to_string())?;
    let core = cold.core_dump("main", &[]).map_err(|e| e.to_string())?;
    Ok(fnv1a(&core) ^ u64::from(corrupt))
}

struct EditCase {
    edit: ProgramEdit,
    reference: u64,
}

struct Inputs {
    base: String,
    base_reference: u64,
    cases: Vec<EditCase>,
}

impl Inputs {
    /// The composite, `EDITS` seeded edits of it, and the cold reference
    /// after each. An edit that would remove `main` is redrawn.
    fn generate(config: &Config) -> Result<Inputs, String> {
        let base = composite_source()?;
        let program = parse_program(&base).map_err(|e| e.to_string())?;
        let base_reference = cold_core(&base, config.corrupt)?;
        let mut rng = Rng::new(config.seed);
        let mut cases = Vec::with_capacity(EDITS);
        while cases.len() < EDITS {
            let edit = gen_edit(&mut rng, &program);
            if matches!(&edit, ProgramEdit::RemovePredicate { pred, .. } if pred == "main") {
                continue;
            }
            let source = edit.apply(&program).map_err(|e| e.to_string())?;
            let reference = cold_core(&source, config.corrupt)?;
            cases.push(EditCase { edit, reference });
        }
        Ok(Inputs {
            base,
            base_reference,
            cases,
        })
    }

    /// The edit op `op` applies (`None` for a revert).
    fn edit(&self, op: usize) -> Option<&EditCase> {
        op.is_multiple_of(2)
            .then(|| &self.cases[(op / 2) % self.cases.len()])
    }

    /// The reference after op `op`.
    fn reference(&self, op: usize) -> u64 {
        self.edit(op)
            .map_or(self.base_reference, |case| case.reference)
    }
}

/// One untraced op on the workspace.
fn workspace_op(ws: &mut Workspace, inputs: &Inputs, op: usize) -> Result<(), String> {
    match inputs.edit(op) {
        Some(case) => ws.apply_edit(&case.edit),
        None => ws.update_source(&inputs.base),
    }
    .map_err(|e| e.to_string())?;
    ws.analyze("main", &[]).map_err(|e| e.to_string())?;
    Ok(())
}

/// Whether the workspace's reachable core equals the cold reference.
fn workspace_matches(ws: &mut Workspace, inputs: &Inputs, op: usize) -> bool {
    ws.core_dump("main", &[])
        .is_ok_and(|core| fnv1a(&core) == inputs.reference(op))
}

fn open_workspace(base: &str) -> Result<Workspace, String> {
    let mut ws = Workspace::from_source(base).map_err(|e| e.to_string())?;
    ws.analyze("main", &[]).map_err(|e| e.to_string())?;
    Ok(ws)
}

/// [`open_workspace`], with the seconds it took appended to `setup`.
fn timed_open(base: &str, setup: &mut Vec<f64>) -> Result<Workspace, String> {
    let t = Instant::now();
    let ws = open_workspace(base)?;
    setup.push(t.elapsed().as_secs_f64());
    Ok(ws)
}

/// Ops in a run of `seconds`, the first two of which warm up.
fn op_count(seconds: f64) -> usize {
    ((seconds * NOMINAL_OPS_PER_S) as usize).max(4)
}

/// Whether op `op` is checked: all of the first ops, then a seeded
/// sample.
fn checked(rng: &mut Rng, op: usize) -> bool {
    op < FIRST_OPS || rng.below(CHECK_ONE_IN) == 0
}

/// The untraced run: end-to-end metrics.
pub fn run(config: &Config) -> Result<Outcome, String> {
    let inputs = Inputs::generate(config)?;
    let ops = op_count(config.seconds);
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut ws = timed_open(&inputs.base, &mut setup)?;
    let setup_every = (ops / (SETUP_REPS - 1)).max(1);
    let mut outcome = Outcome::default();
    let mut check_rng = Rng::new(config.seed ^ 0x5eed_c4ec);
    let mut latencies_us = Vec::new();
    for op in 0..ops {
        if op % setup_every == setup_every - 1 && setup.len() < SETUP_REPS {
            timed_open(&inputs.base, &mut setup)?;
        }
        let t = Instant::now();
        let result = workspace_op(&mut ws, &inputs, op);
        let us = t.elapsed().as_secs_f64() * 1e6;
        // The first edit and revert warm the workspace and are not timed.
        if op >= 2 {
            latencies_us.push(us);
        }
        outcome.attempted += 1;
        let wrong = match result {
            Ok(()) => checked(&mut check_rng, op) && !workspace_matches(&mut ws, &inputs, op),
            Err(_) => true,
        };
        outcome.failed += u64::from(wrong);
    }
    while setup.len() < SETUP_REPS {
        timed_open(&inputs.base, &mut setup)?;
    }
    outcome.metrics = closed_loop_metrics(&latencies_us, SEGMENTS, TAIL, TAIL_SEGMENTS);
    outcome.metrics.push(("setup_s", median(&setup)));
    note_samples(&mut outcome, latencies_us.len(), TAIL, TAIL_SEGMENTS);
    outcome.note("program_bytes", inputs.base.len());
    outcome.note(
        "program_predicates",
        parse_program(&inputs.base).map_or(0, |p| p.num_predicates()),
    );
    Ok(outcome)
}

/// The traced side's state: `Workspace::update_source` spelled out in
/// the public calls it makes, so each stage can be timed.
struct Staged {
    program: Program,
    analyzer: Analyzer,
    parts: Option<SessionParts>,
}

impl Staged {
    fn open(base: &str) -> Result<Staged, String> {
        let program = parse_program(base).map_err(|e| e.to_string())?;
        let analyzer = AnalyzerBuilder::default()
            .compile(&program)
            .map_err(|e| e.to_string())?;
        let mut session = analyzer.session();
        session
            .analyze_query("main", &[])
            .map_err(|e| e.to_string())?;
        let parts = Some(session.into_parts());
        Ok(Staged {
            program,
            analyzer,
            parts,
        })
    }

    /// One traced op; returns the migration counters and `main`'s
    /// analysis.
    fn op<S: Spans>(
        &mut self,
        spans: &mut S,
        inputs: &Inputs,
        op: usize,
    ) -> Result<(InvalidationStats, awam_core::Analysis), String> {
        let root = spans.enter("op", 0);
        let result = self.update(spans, inputs, op);
        spans.exit(root);
        result
    }

    fn update<S: Spans>(
        &mut self,
        spans: &mut S,
        inputs: &Inputs,
        op: usize,
    ) -> Result<(InvalidationStats, awam_core::Analysis), String> {
        let source = match inputs.edit(op) {
            Some(case) => {
                let s = spans.enter("incremental.apply", 0);
                let source = case.edit.apply(&self.program);
                spans.exit(s);
                source.map_err(|e| e.to_string())?
            }
            None => inputs.base.clone(),
        };
        let s = spans.enter("syntax.parse", 0);
        let program = parse_program(&source);
        spans.exit(s);
        let program = program.map_err(|e| e.to_string())?;
        let s = spans.enter("incremental.diff", 0);
        let diff = ProgramDiff::between(&self.program, &program);
        spans.exit(s);
        let stats = if diff.is_empty() {
            self.program = program;
            InvalidationStats::default()
        } else {
            let s = spans.enter("wam.compile", 0);
            let analyzer = AnalyzerBuilder::default().compile(&program);
            spans.exit(s);
            let analyzer = analyzer.map_err(|e| e.to_string())?;
            let parts = self
                .parts
                .take()
                .ok_or("session lost by an earlier failure")?;
            let s = spans.enter("incremental.migrate", 0);
            let migrated = migrate_parts(
                &self.program,
                &program,
                &self.analyzer,
                &analyzer,
                parts,
                None,
            );
            spans.exit(s);
            let (parts, stats) = migrated.map_err(|e| e.to_string())?;
            self.program = program;
            self.analyzer = analyzer;
            self.parts = Some(parts);
            stats
        };
        let parts = self
            .parts
            .take()
            .ok_or("session lost by an earlier failure")?;
        let s = spans.enter("incremental.reanalyze", 0);
        let mut session = Session::resume(&self.analyzer, parts);
        let analysis = session.analyze_query("main", &[]);
        self.parts = Some(session.into_parts());
        spans.exit(s);
        Ok((stats, analysis.map_err(|e| e.to_string())?))
    }
}

/// A cold analysis of the source op `op` leaves, as its own root span:
/// the base of `incremental.time_ratio`.
fn cold_op(
    recorder: &mut Recorder,
    inputs: &Inputs,
    op: usize,
    program: &Program,
) -> Result<(), String> {
    let source = match inputs.edit(op) {
        Some(case) => case.edit.apply(program).map_err(|e| e.to_string())?,
        None => inputs.base.clone(),
    };
    let root = recorder.enter("cold", 0);
    let result = parse_program(&source)
        .map_err(|e| e.to_string())
        .and_then(|p| {
            AnalyzerBuilder::default()
                .compile(&p)
                .map_err(|e| e.to_string())
        })
        .and_then(|a| {
            let analysis = a.session().analyze_query("main", &[]);
            analysis.map(drop).map_err(|e| e.to_string())
        });
    recorder.exit(root);
    result
}

/// The traced section: stage self times from paired traced and
/// untraced runs of the staged op, on two `Staged` instances over the
/// same edit sequence; a `Workspace` doing the same ops, whose table
/// both must match; a cold analysis of each op's source; and the
/// migration counters of the first ops.
pub fn traced(config: &Config) -> Result<Outcome, String> {
    let inputs = Inputs::generate(config)?;
    let mut ws = open_workspace(&inputs.base)?;
    let mut traced_staged = Staged::open(&inputs.base)?;
    let mut untraced_staged = Staged::open(&inputs.base)?;
    let mut recorder = Recorder::default();
    let mut outcome = Outcome::default();
    let mut check_rng = Rng::new(config.seed ^ 0x5eed_c4ec);
    let mut untraced_us = Vec::new();
    let mut traced_us = Vec::new();
    let mut first_stats: Vec<InvalidationStats> = Vec::new();
    // Edits apply to the base program (every edit op follows a revert);
    // the cold analysis of an op's source starts from it too.
    let base_program = parse_program(&inputs.base).map_err(|e| e.to_string())?;
    // Each op runs four times: traced, untraced, on the workspace, cold.
    let pairs = (op_count(config.seconds) / 4).max(FIRST_OPS);
    for op in 0..pairs {
        let mut traced_result = None;
        let mut untraced_result = None;
        for traced_side in [op.is_multiple_of(2), !op.is_multiple_of(2)] {
            let t = Instant::now();
            if traced_side {
                traced_result = Some(traced_staged.op(&mut recorder, &inputs, op));
                traced_us.push(t.elapsed().as_secs_f64() * 1e6);
            } else {
                untraced_result = Some(untraced_staged.op(&mut NoSpans, &inputs, op));
                untraced_us.push(t.elapsed().as_secs_f64() * 1e6);
            }
        }
        let ws_ok = workspace_op(&mut ws, &inputs, op).is_ok();
        cold_op(&mut recorder, &inputs, op, &base_program)?;
        let (stats, traced_analysis) = traced_result.expect("the traced side ran")?;
        let (_, untraced_analysis) = untraced_result.expect("the untraced side ran")?;
        let traced_body = report_body(&traced_analysis.report(&traced_staged.analyzer)).to_owned();
        let untraced_body =
            report_body(&untraced_analysis.report(&untraced_staged.analyzer)).to_owned();
        if op < FIRST_OPS {
            first_stats.push(stats);
        }
        outcome.attempted += 3;
        let ws_right =
            ws_ok && (!checked(&mut check_rng, op) || workspace_matches(&mut ws, &inputs, op));
        // Both staged paths must leave exactly the table the workspace
        // has (the same calls in the same order).
        let ws_body = ws
            .analyze("main", &[])
            .map(|a| report_body(&a.report(ws.analyzer())).to_owned());
        let (traced_right, untraced_right) = match &ws_body {
            Ok(body) => (*body == traced_body, *body == untraced_body),
            Err(_) => (false, false),
        };
        outcome.failed +=
            u64::from(!ws_right) + u64::from(!traced_right) + u64::from(!untraced_right);
    }
    let ops = recorder.ops("op");
    let cold_us: Vec<f64> = recorder
        .ops("cold")
        .iter()
        .map(|c| c.total_ns as f64 / 1e3)
        .collect();
    let update_us: Vec<f64> = ops
        .iter()
        .map(|o| {
            [
                "syntax.parse",
                "incremental.diff",
                "wam.compile",
                "incremental.migrate",
                "incremental.reanalyze",
            ]
            .iter()
            .filter_map(|name| o.self_ns(name))
            .sum::<u64>() as f64
                / 1e3
        })
        .collect();
    let per_op = |name: &str| median_self_us(&ops, name);
    let counter = |f: &dyn Fn(&InvalidationStats) -> u64| {
        median(&first_stats.iter().map(|s| f(s) as f64).collect::<Vec<_>>())
    };
    let kept: u64 = first_stats.iter().map(|s| s.entries_kept).sum();
    let before: u64 = first_stats.iter().map(|s| s.entries_before).sum();
    let unattributed: Vec<f64> = ops.iter().map(|o| o.unattributed_share("op")).collect();
    outcome.metrics = vec![
        ("incremental.apply_us", per_op("incremental.apply")),
        ("incremental.parse_us", per_op("syntax.parse")),
        ("incremental.diff_us", per_op("incremental.diff")),
        ("incremental.compile_us", per_op("wam.compile")),
        ("incremental.migrate_us", per_op("incremental.migrate")),
        ("incremental.reanalyze_us", per_op("incremental.reanalyze")),
        ("incremental.update_us", median(&update_us)),
        ("incremental.cold_us", median(&cold_us)),
        (
            "incremental.time_ratio",
            median(&update_us) / median(&cold_us).max(1e-9),
        ),
        ("incremental.entries_kept_ratio", ratio(kept, before)),
        ("incremental.frontier", counter(&|s| s.frontier)),
        (
            "incremental.refix_explorations",
            counter(&|s| s.refix_explorations),
        ),
        (
            "incremental.refix_instructions",
            counter(&|s| s.refix_instructions),
        ),
        (
            "trace.overhead_ratio.edit-large",
            median(&traced_us) / median(&untraced_us),
        ),
        ("trace.unattributed_ratio.edit-large", median(&unattributed)),
    ];
    outcome.note("edit-large.traced_pairs", pairs);
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renaming_touches_only_predicate_names() {
        let names: HashSet<String> = ["app".to_owned()].into_iter().collect();
        assert_eq!(
            rename(
                "app([H|T], L, [H|R]) :- app(T, L, 'app'), apple(R).",
                &names,
                "_x"
            ),
            "app_x([H|T], L, [H|R]) :- app_x(T, L, 'app'), apple(R)."
        );
    }

    #[test]
    fn composite_keeps_every_copy_reachable() {
        let source = composite_source().unwrap();
        let program = parse_program(&source).unwrap();
        let suite_preds: usize = bench_suite::all()
            .iter()
            .map(|b| b.parse().unwrap().num_predicates())
            .sum();
        assert_eq!(program.num_predicates(), COPIES * suite_preds + 1);
        let mut ws = Workspace::from_source(&source).unwrap();
        let core = ws.core_dump("main", &[]).unwrap();
        for copy in 0..COPIES {
            assert!(
                core.contains(&format!("_c{copy}p10")),
                "copy {copy} unreachable"
            );
        }
    }
}
