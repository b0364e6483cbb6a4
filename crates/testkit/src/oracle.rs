//! The differential oracle matrix.
//!
//! Every oracle takes one generated program (as source text) and checks
//! one equivalence the analyzer's correctness argument rests on. The
//! matrix is the fuzzing analogue of the repo's named test files: each
//! oracle generalizes one of them from fixed benchmarks to arbitrary
//! generated programs.
//!
//! | oracle      | equivalence checked                                        |
//! |-------------|------------------------------------------------------------|
//! | `soundness` | every traced concrete call is covered by the analysis (§4.1)|
//! | `traces`    | two fresh analyzers emit byte-identical JSONL traces        |
//! | `batch`     | `analyze_batch` at 1/2/8 workers equals sequential runs     |
//! | `sessions`  | a warm session hit answers exactly what the cold run said   |
//! | `budget`    | analysis terminates within the iteration/instruction budget |
//! | `provenance`| derivation tracking is invisible (byte-identical reports and traces) and every recorded lub chain re-folds to the stored summary |
//! | `incremental` | after k random edits, the incrementally repaired table's goal-reachable core is byte-equal to a cold re-analysis of the edited source |

use crate::editgen::{gen_edit, minimize_edits};
use crate::rng::{case_seed, Rng};
use absdom::Pattern;
use awam_core::incremental::{ProgramEdit, UpdateError, Workspace};
use awam_core::{program_fingerprint, Analysis, AnalysisError, Analyzer, BatchGoal};
use awam_obs::{JsonlTracer, RecordingTracer};
use prolog_syntax::parse_program;
use wam::compile_program;
use wam_machine::Machine;

/// Step cap for concrete replay runs (the generated programs may loop).
const CONCRETE_STEP_CAP: u64 = 50_000;
/// Abstract-instruction budget the `budget` oracle enforces. Generated
/// programs are tiny; a healthy analyzer stays orders of magnitude below.
const ABSTRACT_INSTR_BUDGET: u64 = 2_000_000;
/// How many traced calls the soundness oracle re-checks per program.
const MAX_CHECKED_CALLS: usize = 2_000;
/// How many concrete entry solutions the soundness oracle enumerates.
/// Backtracking into later clauses is what exposes unsound success
/// summaries, so one solution is not enough.
const MAX_SOLUTIONS: usize = 64;

/// One oracle of the matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Oracle {
    /// Concrete-call-coverage soundness.
    Soundness,
    /// Byte-identical JSONL traces between two fresh analyzers of the
    /// same program.
    Traces,
    /// Sequential-vs-batch equality at 1, 2 and 8 workers.
    Batch,
    /// Cold-vs-warm session equality.
    Sessions,
    /// Analyzer termination within the step budget.
    Budget,
    /// Provenance-on vs provenance-off invisibility plus lub-chain
    /// refolding.
    Provenance,
    /// Incremental-vs-cold equality under random edit sequences: the
    /// goal-reachable core of the repaired table must be byte-equal to
    /// a cold re-analysis after every edit.
    Incremental,
}

impl Oracle {
    /// Every oracle, in matrix order.
    pub const ALL: [Oracle; 7] = [
        Oracle::Soundness,
        Oracle::Traces,
        Oracle::Batch,
        Oracle::Sessions,
        Oracle::Budget,
        Oracle::Provenance,
        Oracle::Incremental,
    ];

    /// The CLI name of this oracle.
    pub fn name(self) -> &'static str {
        match self {
            Oracle::Soundness => "soundness",
            Oracle::Traces => "traces",
            Oracle::Batch => "batch",
            Oracle::Sessions => "sessions",
            Oracle::Budget => "budget",
            Oracle::Provenance => "provenance",
            Oracle::Incremental => "incremental",
        }
    }

    /// Parse a CLI name back into an oracle.
    pub fn from_name(name: &str) -> Option<Oracle> {
        Oracle::ALL.into_iter().find(|o| o.name() == name)
    }
}

impl std::fmt::Display for Oracle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Why an oracle did not pass.
#[derive(Debug)]
pub enum OracleOutcome {
    /// The program violates the equivalence the oracle checks — a real
    /// finding (and what the shrinker preserves).
    Violation(String),
    /// The program could not be put through the oracle at all (parse or
    /// compile failure, unknown entry). On generator output this is a
    /// generator bug; during shrinking it marks an edit that cut too much.
    Infra(String),
}

/// Run `oracle` over `source`, analyzing from entry `p0` with all-`any`
/// entry specs.
///
/// # Errors
///
/// [`OracleOutcome::Violation`] when the checked equivalence fails,
/// [`OracleOutcome::Infra`] when the program cannot be analyzed at all.
pub fn check(oracle: Oracle, source: &str) -> Result<(), OracleOutcome> {
    let setup = Setup::new(source)?;
    match oracle {
        Oracle::Soundness => setup.soundness(),
        Oracle::Traces => setup.traces(),
        Oracle::Batch => setup.batch(),
        Oracle::Sessions => setup.sessions(),
        Oracle::Budget => setup.budget(),
        Oracle::Provenance => setup.provenance(),
        Oracle::Incremental => setup.incremental(),
    }
}

/// Shared per-program setup: parsed program, compiled code, entry specs.
struct Setup {
    source: String,
    program: prolog_syntax::Program,
    compiled: wam::CompiledProgram,
    entry_arity: usize,
}

fn infra(what: &str, e: impl std::fmt::Display) -> OracleOutcome {
    OracleOutcome::Infra(format!("{what}: {e}"))
}

impl Setup {
    fn new(source: &str) -> Result<Setup, OracleOutcome> {
        let program = parse_program(source).map_err(|e| infra("parse", e))?;
        let compiled = compile_program(&program).map_err(|e| infra("compile", e))?;
        let entry_arity = compiled
            .predicates
            .iter()
            .find(|p| compiled.interner.resolve(p.key.name) == "p0")
            .map(|p| p.key.arity)
            .ok_or_else(|| OracleOutcome::Infra("entry predicate p0 not compiled".into()))?;
        Ok(Setup {
            source: source.to_owned(),
            program,
            compiled,
            entry_arity,
        })
    }

    fn entry_pattern(&self) -> Pattern {
        let specs = vec!["any"; self.entry_arity];
        Pattern::from_spec(&specs).expect("all-any specs are always valid")
    }

    fn analyzer(&self) -> Analyzer {
        Analyzer::from_compiled(self.compiled.clone())
    }

    fn analyze(&self) -> Result<Analysis, OracleOutcome> {
        self.analyzer()
            .analyze("p0", &self.entry_pattern())
            .map_err(analysis_outcome)
    }

    /// §4.1 soundness: run the program concretely (step-capped, call-
    /// traced, enumerating up to [`MAX_SOLUTIONS`] entry solutions) and
    /// require (a) every concrete call to be covered by some calling
    /// pattern the analysis derived for that predicate, and (b) every
    /// concrete entry solution to be covered by the entry's success
    /// summary. (b) is what catches a success summary that stopped
    /// widening: the first solution follows the first clause, so only
    /// backtracked solutions can contradict a frozen summary.
    fn soundness(&self) -> Result<(), OracleOutcome> {
        let analysis = self.analyze()?;
        let mut tracer = RecordingTracer::default();
        let mut machine = Machine::new(&self.compiled);
        machine.set_tracer(&mut tracer);
        machine.set_max_steps(CONCRETE_STEP_CAP);
        let arg_names: Vec<String> = (0..self.entry_arity).map(|i| format!("Q{i}")).collect();
        let query = if self.entry_arity == 0 {
            "p0".to_owned()
        } else {
            format!("p0({})", arg_names.join(", "))
        };
        // Failures (including step-cap and arithmetic errors) are fine:
        // whatever calls happened before the stop must still be covered.
        let mut solutions = Vec::new();
        if let Ok(Some(first)) = machine.query_str(&query) {
            solutions.push(first);
            while solutions.len() < MAX_SOLUTIONS {
                match machine.next_solution() {
                    Ok(Some(s)) => solutions.push(s),
                    Ok(None) | Err(_) => break,
                }
            }
        }
        drop(machine);

        let entry_analysis = analysis
            .predicates
            .iter()
            .find(|p| p.arity == self.entry_arity && p.name == format!("p0/{}", self.entry_arity));
        for solution in &solutions {
            let args: Vec<_> = arg_names
                .iter()
                .map(|n| {
                    solution
                        .bindings
                        .iter()
                        .find(|(name, _, _)| name == n)
                        .map(|(_, term, _)| term.clone())
                        .ok_or_else(|| infra("solution binding missing", n))
                })
                .collect::<Result<_, _>>()?;
            let covered = entry_analysis.is_some_and(|pa| {
                pa.entries
                    .iter()
                    .any(|(_, sp)| sp.as_ref().is_some_and(|sp| sp.covers(&args)))
            });
            if !covered {
                return Err(OracleOutcome::Violation(format!(
                    "concrete entry solution not covered by the success summary: p0({})",
                    solution
                        .bindings
                        .iter()
                        .map(|(_, _, r)| r.as_str())
                        .collect::<Vec<_>>()
                        .join(", ")
                )));
            }
        }

        for (pid, args) in tracer.calls().iter().take(MAX_CHECKED_CALLS) {
            let name = self.compiled.predicates[*pid]
                .key
                .display(&self.compiled.interner);
            let Some(pa) = analysis.predicates.iter().find(|p| p.pred == *pid) else {
                return Err(OracleOutcome::Violation(format!(
                    "predicate {name} called concretely but never analyzed"
                )));
            };
            if !pa.entries.iter().any(|(cp, _)| cp.covers(args)) {
                return Err(OracleOutcome::Violation(format!(
                    "uncovered concrete call to {name} with args {args:?}"
                )));
            }
        }
        Ok(())
    }

    /// The serialized event stream is a pure function of the program:
    /// two fresh analyzers (each with its own interner and table) must
    /// emit the same bytes. Catches any iteration over a
    /// `RandomState`-seeded map or other per-instance nondeterminism
    /// leaking into the fixpoint order.
    fn traces(&self) -> Result<(), OracleOutcome> {
        let entry = self.entry_pattern();
        let mut streams = Vec::new();
        for _ in 0..2 {
            let analyzer = self.analyzer();
            let mut tracer = JsonlTracer::new(Vec::new());
            analyzer
                .analyze_traced("p0", &entry, &mut tracer)
                .map_err(analysis_outcome)?;
            streams.push(tracer.into_inner().map_err(|e| infra("trace flush", e))?);
        }
        if streams[0] != streams[1] {
            return Err(OracleOutcome::Violation(
                "JSONL trace bytes differ between two runs of the same program".into(),
            ));
        }
        Ok(())
    }

    /// `analyze_batch` is a pure speedup: goal-for-goal identical to
    /// sequential runs at every worker count.
    fn batch(&self) -> Result<(), OracleOutcome> {
        let analyzer = self.analyzer();
        // One goal per live predicate (all-`any` entries), so the batch
        // exercises more than the entry point.
        let goals: Vec<BatchGoal> = self
            .compiled
            .predicates
            .iter()
            .map(|p| {
                let specs = vec!["any"; p.key.arity];
                BatchGoal::new(
                    self.compiled.interner.resolve(p.key.name),
                    Pattern::from_spec(&specs).expect("all-any specs are always valid"),
                )
            })
            .collect();
        let sequential: Vec<_> = goals
            .iter()
            .map(|g| analyzer.analyze(&g.name, &g.entry))
            .collect();
        for workers in [1usize, 2, 8] {
            let batch = analyzer.analyze_batch(&goals, workers);
            for (i, (got, want)) in batch.iter().zip(&sequential).enumerate() {
                match (got, want) {
                    (Ok(got), Ok(want)) => {
                        if got.predicates != want.predicates || got.iterations != want.iterations {
                            return Err(OracleOutcome::Violation(format!(
                                "goal {i} ({}) diverges from sequential at {workers} workers",
                                goals[i].name
                            )));
                        }
                    }
                    (Err(_), Err(_)) => {}
                    _ => {
                        return Err(OracleOutcome::Violation(format!(
                            "goal {i} ({}) error status diverges at {workers} workers",
                            goals[i].name
                        )));
                    }
                }
            }
        }
        Ok(())
    }

    /// A repeated query through one session is a warm hit that answers
    /// exactly what the cold run answered.
    fn sessions(&self) -> Result<(), OracleOutcome> {
        let analyzer = self.analyzer();
        let entry = self.entry_pattern();
        let mut session = analyzer.session();
        let cold = session.analyze("p0", &entry).map_err(analysis_outcome)?;
        let warm = session.analyze("p0", &entry).map_err(analysis_outcome)?;
        if warm.iterations != 0 || warm.instructions_executed != 0 {
            return Err(OracleOutcome::Violation(format!(
                "warm hit did fixpoint work: {} iterations, {} instructions",
                warm.iterations, warm.instructions_executed
            )));
        }
        if warm.predicates != cold.predicates {
            return Err(OracleOutcome::Violation(
                "warm session answer differs from the cold run".into(),
            ));
        }
        if session.stats().session_warm_hits != 1 || session.stats().session_cold_runs != 1 {
            return Err(OracleOutcome::Violation(format!(
                "session counters off: {} warm hits, {} cold runs (want 1/1)",
                session.stats().session_warm_hits,
                session.stats().session_cold_runs
            )));
        }
        Ok(())
    }

    /// Termination: the fixpoint must converge well inside the safety
    /// rails (no `IterationLimit`/`DepthLimit`) and inside the abstract
    /// instruction budget.
    fn budget(&self) -> Result<(), OracleOutcome> {
        let analysis = self.analyze()?;
        if analysis.instructions_executed > ABSTRACT_INSTR_BUDGET {
            return Err(OracleOutcome::Violation(format!(
                "analysis executed {} abstract instructions (budget {})",
                analysis.instructions_executed, ABSTRACT_INSTR_BUDGET
            )));
        }
        // `program` is kept so oracles can extend to source-level checks;
        // use it for a cheap sanity bound meanwhile.
        debug_assert!(!self.program.clauses.is_empty());
        Ok(())
    }

    /// Provenance tracking must be invisible — the rendered report and
    /// the JSONL trace stay byte-identical whether tracking is on or
    /// off — and every recorded derivation must be *true*: its lub chain
    /// re-folds (via the structural lub) to the stored success summary.
    fn provenance(&self) -> Result<(), OracleOutcome> {
        let entry = self.entry_pattern();
        let mut reports = Vec::new();
        let mut streams = Vec::new();
        let mut derivations = None;
        for on in [false, true] {
            let analyzer = Analyzer::builder()
                .provenance(on)
                .build(self.compiled.clone());
            let mut tracer = JsonlTracer::new(Vec::new());
            let analysis = analyzer
                .analyze_traced("p0", &entry, &mut tracer)
                .map_err(analysis_outcome)?;
            streams.push(tracer.into_inner().map_err(|e| infra("trace flush", e))?);
            reports.push(analysis.report(&analyzer));
            if on {
                derivations = analysis.provenance;
            } else if analysis.provenance.is_some() {
                return Err(OracleOutcome::Violation(
                    "provenance-off run returned a derivation report".into(),
                ));
            }
        }
        if reports[0] != reports[1] {
            return Err(OracleOutcome::Violation(
                "analysis report changes when provenance tracking is enabled".into(),
            ));
        }
        if streams[0] != streams[1] {
            return Err(OracleOutcome::Violation(
                "JSONL trace bytes change when provenance tracking is enabled".into(),
            ));
        }
        let Some(report) = derivations else {
            return Err(OracleOutcome::Violation(
                "provenance-on run returned no derivation report".into(),
            ));
        };
        if let Some(v) = report.refold_violation() {
            return Err(OracleOutcome::Violation(format!(
                "recorded derivation does not re-fold: {v}"
            )));
        }
        Ok(())
    }

    /// The `incremental` oracle: apply [`INCREMENTAL_EDITS`] random edits through the
    /// incremental [`Workspace`], and after every applied edit require
    /// the goal-reachable core of the repaired table (both the raw
    /// entry dump and the rendered report) to be **byte-equal** to a
    /// cold re-analysis of the same edited source.
    ///
    /// Edit `j`'s RNG is seeded from the fingerprint of the source as it
    /// stands before the edit, so the whole sequence replays from the
    /// campaign seed alone — and program shrinking composes for free,
    /// because the oracle stays a pure function of the source text.
    /// Edits the evolving program rejects (unparseable splice, broken
    /// compile) are skipped: the workspace keeps its pre-edit state.
    /// On a divergence the failing edit sequence is greedily minimized
    /// ([`minimize_edits`]) before reporting.
    fn incremental(&self) -> Result<(), OracleOutcome> {
        let specs = vec!["any"; self.entry_arity];
        let mut ws = incremental_workspace(&self.source, &specs)?;
        let mut applied: Vec<ProgramEdit> = Vec::new();
        for j in 0..INCREMENTAL_EDITS {
            let base = program_fingerprint(ws.source());
            let mut rng = Rng::new(case_seed(base, j));
            let edit = gen_edit(&mut rng, ws.program());
            match ws.apply_edit(&edit) {
                Ok(stats) => {
                    applied.push(edit.clone());
                    if stats.entries_before
                        != stats.entries_kept + stats.entries_reset + stats.entries_dropped
                    {
                        return Err(OracleOutcome::Violation(format!(
                            "edit {j} ({edit:?}): invalidation counters lose entries: \
                             {} before vs {} kept + {} reset + {} dropped",
                            stats.entries_before,
                            stats.entries_kept,
                            stats.entries_reset,
                            stats.entries_dropped
                        )));
                    }
                }
                // Repair blow-ups are real findings; inapplicable edits
                // (parse/compile/edit errors) leave the workspace as-is.
                Err(UpdateError::Analysis(e)) => return Err(analysis_outcome(e)),
                Err(_) => continue,
            }
            if let Some(divergence) = incremental_divergence(&mut ws, &specs)? {
                let minimal = minimize_edits(&applied, &mut |seq| {
                    incremental_replay_diverges(&self.source, &specs, seq)
                });
                return Err(OracleOutcome::Violation(format!(
                    "after edit {j}: {divergence}\nminimized edit sequence ({} of {}): {minimal:#?}",
                    minimal.len(),
                    applied.len()
                )));
            }
        }
        Ok(())
    }
}

/// How many random edits the `incremental` oracle applies per generated program.
const INCREMENTAL_EDITS: u64 = 4;

/// Open a workspace on `source` and run the entry analysis once.
fn incremental_workspace(source: &str, specs: &[&str]) -> Result<Workspace, OracleOutcome> {
    let mut ws = Workspace::from_source(source).map_err(|e| infra("workspace", e))?;
    ws.analyze("p0", specs).map_err(analysis_outcome)?;
    Ok(ws)
}

/// Compare the workspace's repaired core against a cold re-analysis of
/// its current source; `Some(description)` on a byte difference.
fn incremental_divergence(
    ws: &mut Workspace,
    specs: &[&str],
) -> Result<Option<String>, OracleOutcome> {
    let inc_dump = ws.core_dump("p0", specs).map_err(analysis_outcome)?;
    let inc_report = ws.core_report("p0", specs).map_err(analysis_outcome)?;
    let mut cold = Workspace::from_source(ws.source()).map_err(|e| infra("cold workspace", e))?;
    let cold_dump = cold.core_dump("p0", specs).map_err(analysis_outcome)?;
    let cold_report = cold.core_report("p0", specs).map_err(analysis_outcome)?;
    if inc_dump != cold_dump {
        return Ok(Some(format!(
            "incremental ET core diverges from cold re-analysis\nsource:\n{}\nincremental:\n{inc_dump}\ncold:\n{cold_dump}",
            ws.source()
        )));
    }
    if inc_report != cold_report {
        return Ok(Some(format!(
            "incremental report diverges from cold re-analysis\nsource:\n{}\nincremental:\n{inc_report}\ncold:\n{cold_report}",
            ws.source()
        )));
    }
    Ok(None)
}

/// Replay an explicit edit sequence from `source` (skipping edits the
/// evolving program rejects) and report whether the final state still
/// diverges from a cold re-analysis — the [`minimize_edits`] predicate.
fn incremental_replay_diverges(source: &str, specs: &[&str], edits: &[ProgramEdit]) -> bool {
    let Ok(mut ws) = incremental_workspace(source, specs) else {
        return false;
    };
    for edit in edits {
        match ws.apply_edit(edit) {
            Ok(_) => {}
            Err(_) => continue,
        }
    }
    matches!(incremental_divergence(&mut ws, specs), Ok(Some(_)))
}

/// Map an [`AnalysisError`] to an oracle outcome: resource-bound blowups
/// are violations (the termination obligation failed); entry/spec
/// problems are infrastructure (the program under test lost its entry).
fn analysis_outcome(e: AnalysisError) -> OracleOutcome {
    match e {
        AnalysisError::IterationLimit | AnalysisError::DepthLimit => {
            OracleOutcome::Violation(format!("analysis hit a resource bound: {e}"))
        }
        other => OracleOutcome::Infra(format!("analysis setup: {other}")),
    }
}
