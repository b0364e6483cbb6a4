//! Incremental re-analysis: clause-level edits with dependency-driven
//! extension-table invalidation.
//!
//! The extension table is a memo structure, and the machine records, for
//! every entry, which other entries its last exploration read
//! ([`ExtensionTable::deps`]). That makes the table *editable*: when a
//! clause changes, only the entries whose predicate changed — plus
//! everything that transitively depends on them through the reverse of
//! those edges — can be stale. Everything else is part of a converged
//! fixpoint whose inputs did not move, so it survives verbatim, and a
//! seeded worklist run ([`crate::machine::AbstractMachine::run_repair`])
//! re-derives just the invalidated cone. See DESIGN.md §3.10 for the
//! full algorithm and the correctness argument.
//!
//! Three layers build on [`migrate_parts`], the table-migration core:
//!
//! * [`Workspace`] — an owning source + analyzer + session bundle with
//!   [`Workspace::apply_edit`] / [`Workspace::update_source`] (the
//!   `awam watch` subcommand is a thin loop around it);
//! * [`crate::Session::update_program`] — the session-level entry point
//!   (consumes the session, returns a `Workspace`);
//! * the serve daemon's `update` protocol op, which migrates every
//!   parked warm session of a registered program in place.
//!
//! # Examples
//!
//! ```
//! use awam_core::incremental::{ProgramEdit, Workspace};
//!
//! let mut ws = Workspace::from_source(
//!     "app([], L, L). app([H|T], L, [H|R]) :- app(T, L, R).",
//! )?;
//! ws.analyze("app", &["glist", "glist", "var"])?;
//! let stats = ws.apply_edit(&ProgramEdit::AddClause {
//!     clause: "app([a], L, [a|L]).".to_owned(),
//! })?;
//! assert_eq!(stats.entries_before, stats.entries_kept + stats.entries_reset);
//! ws.analyze("app", &["glist", "glist", "var"])?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::analyzer::{Analysis, Analyzer, AnalyzerBuilder, PredAnalysis};
use crate::machine::{AbstractMachine, AnalysisError};
use crate::session::{Session, SessionParts};
use crate::table::{Derivation, DerivationOrigin, ExtensionTable, LubStep};
use absdom::{PNode, Pattern, SessionInterner};
use awam_obs::{InvalidationStats, MachineStats, OpcodeCounts};
use prolog_syntax::{parse_program, pretty, Interner, ParseError, Program};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use wam::CompileError;

/// A clause-level edit against a parsed program.
///
/// Edits are applied *textually*: the current program's clauses are
/// pretty-printed, the edit splices that clause list, and the result is
/// re-parsed as a whole — so the incremental path and a cold re-analysis
/// see byte-identical source, which is what makes the differential
/// oracle's byte-equality claim meaningful. Clause indices count within
/// the predicate, in source order, starting at 0.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProgramEdit {
    /// Append a clause (given as source text, e.g. `"p(a)."`) at the end
    /// of the program.
    AddClause {
        /// The clause source text, terminated with `.`.
        clause: String,
    },
    /// Remove the `clause`-th clause of `pred/arity`.
    RemoveClause {
        /// Predicate name.
        pred: String,
        /// Predicate arity.
        arity: usize,
        /// Clause index within the predicate (source order, 0-based).
        clause: usize,
    },
    /// Replace the `clause`-th clause of `pred/arity` with new text.
    ReplaceClause {
        /// Predicate name.
        pred: String,
        /// Predicate arity.
        arity: usize,
        /// Clause index within the predicate (source order, 0-based).
        clause: usize,
        /// Replacement clause source text, terminated with `.`.
        text: String,
    },
    /// Append a block of source text (one or more clauses, typically a
    /// whole new predicate) at the end of the program.
    AddPredicate {
        /// The source text to append.
        source: String,
    },
    /// Remove every clause of `pred/arity`.
    RemovePredicate {
        /// Predicate name.
        pred: String,
        /// Predicate arity.
        arity: usize,
    },
}

/// Why a [`ProgramEdit`] could not be applied to a program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EditError {
    /// The edit names a predicate the program does not define.
    UnknownPredicate {
        /// `name/arity` of the missing predicate.
        pred: String,
    },
    /// The edit names a clause index past the predicate's clause count.
    NoSuchClause {
        /// `name/arity` of the predicate.
        pred: String,
        /// The out-of-range clause index.
        clause: usize,
    },
    /// The program contains directives, which the textual splice cannot
    /// round-trip.
    Directives,
}

impl std::fmt::Display for EditError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EditError::UnknownPredicate { pred } => {
                write!(f, "edit names unknown predicate {pred}")
            }
            EditError::NoSuchClause { pred, clause } => {
                write!(f, "{pred} has no clause {clause}")
            }
            EditError::Directives => {
                write!(f, "programs with directives cannot be edited clause-wise")
            }
        }
    }
}

impl std::error::Error for EditError {}

/// Why an incremental update failed end to end.
#[derive(Debug)]
pub enum UpdateError {
    /// The edit did not apply to the current program.
    Edit(EditError),
    /// The edited source failed to parse.
    Parse(ParseError),
    /// The edited program failed to compile (e.g. a removed predicate is
    /// still called).
    Compile(CompileError),
    /// The seeded re-fixpoint hit a resource bound.
    Analysis(AnalysisError),
}

impl std::fmt::Display for UpdateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UpdateError::Edit(e) => write!(f, "{e}"),
            UpdateError::Parse(e) => write!(f, "parse error: {e}"),
            UpdateError::Compile(e) => write!(f, "compile error: {e}"),
            UpdateError::Analysis(e) => write!(f, "re-analysis error: {e}"),
        }
    }
}

impl std::error::Error for UpdateError {}

impl From<EditError> for UpdateError {
    fn from(e: EditError) -> UpdateError {
        UpdateError::Edit(e)
    }
}

impl From<ParseError> for UpdateError {
    fn from(e: ParseError) -> UpdateError {
        UpdateError::Parse(e)
    }
}

impl From<CompileError> for UpdateError {
    fn from(e: CompileError) -> UpdateError {
        UpdateError::Compile(e)
    }
}

impl From<AnalysisError> for UpdateError {
    fn from(e: AnalysisError) -> UpdateError {
        UpdateError::Analysis(e)
    }
}

/// The pretty-printed clause list of `program`, one clause per element,
/// in source order.
fn clause_lines(program: &Program) -> Vec<String> {
    program
        .clauses
        .iter()
        .map(|c| pretty::clause_to_string(c, &program.interner))
        .collect()
}

/// Source-order indices of the clauses of `pred/arity` in `program`.
fn clause_indices(program: &Program, pred: &str, arity: usize) -> Vec<usize> {
    program
        .clauses
        .iter()
        .enumerate()
        .filter(|(_, c)| {
            let key = c.pred_key();
            key.arity == arity && program.interner.resolve(key.name) == pred
        })
        .map(|(i, _)| i)
        .collect()
}

impl ProgramEdit {
    /// Apply this edit to `program`, producing the edited program's
    /// source text (pretty-printed, one clause per line).
    ///
    /// # Errors
    ///
    /// [`EditError`] when the named predicate/clause does not exist or
    /// the program carries directives.
    pub fn apply(&self, program: &Program) -> Result<String, EditError> {
        if !program.directives.is_empty() {
            return Err(EditError::Directives);
        }
        let mut lines = clause_lines(program);
        match self {
            ProgramEdit::AddClause { clause } => lines.push(clause.trim().to_owned()),
            ProgramEdit::AddPredicate { source } => lines.push(source.trim().to_owned()),
            ProgramEdit::RemoveClause {
                pred,
                arity,
                clause,
            } => {
                let idx = locate_clause(program, pred, *arity, *clause)?;
                lines.remove(idx);
            }
            ProgramEdit::ReplaceClause {
                pred,
                arity,
                clause,
                text,
            } => {
                let idx = locate_clause(program, pred, *arity, *clause)?;
                lines[idx] = text.trim().to_owned();
            }
            ProgramEdit::RemovePredicate { pred, arity } => {
                let indices = clause_indices(program, pred, *arity);
                if indices.is_empty() {
                    return Err(EditError::UnknownPredicate {
                        pred: format!("{pred}/{arity}"),
                    });
                }
                for idx in indices.into_iter().rev() {
                    lines.remove(idx);
                }
            }
        }
        let mut out = lines.join("\n");
        out.push('\n');
        Ok(out)
    }
}

/// Resolve `(pred, arity, clause)` to a global clause index.
fn locate_clause(
    program: &Program,
    pred: &str,
    arity: usize,
    clause: usize,
) -> Result<usize, EditError> {
    let indices = clause_indices(program, pred, arity);
    if indices.is_empty() {
        return Err(EditError::UnknownPredicate {
            pred: format!("{pred}/{arity}"),
        });
    }
    indices
        .get(clause)
        .copied()
        .ok_or_else(|| EditError::NoSuchClause {
            pred: format!("{pred}/{arity}"),
            clause,
        })
}

/// The predicate-level difference between two parsed programs, computed
/// on pretty-printed clause lists (so whitespace and comment changes
/// produce an empty diff).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProgramDiff {
    /// Predicates whose clause list differs between the two programs
    /// (edited, or newly added), as `(name, arity)`, sorted.
    pub changed: Vec<(String, usize)>,
    /// Predicates present in the old program but absent from the new
    /// one, as `(name, arity)`, sorted.
    pub removed: Vec<(String, usize)>,
}

/// Clause texts grouped by `(name, arity)`.
fn clause_map(program: &Program) -> BTreeMap<(String, usize), Vec<String>> {
    let mut map: BTreeMap<(String, usize), Vec<String>> = BTreeMap::new();
    for clause in &program.clauses {
        let key = clause.pred_key();
        map.entry((program.interner.resolve(key.name).to_owned(), key.arity))
            .or_default()
            .push(pretty::clause_to_string(clause, &program.interner));
    }
    map
}

impl ProgramDiff {
    /// Diff `old` against `new` at the predicate level.
    pub fn between(old: &Program, new: &Program) -> ProgramDiff {
        let old_map = clause_map(old);
        let new_map = clause_map(new);
        let mut changed = Vec::new();
        let mut removed = Vec::new();
        for (key, new_clauses) in &new_map {
            match old_map.get(key) {
                Some(old_clauses) if old_clauses == new_clauses => {}
                _ => changed.push(key.clone()),
            }
        }
        for key in old_map.keys() {
            if !new_map.contains_key(key) {
                removed.push(key.clone());
            }
        }
        ProgramDiff { changed, removed }
    }

    /// Whether the two programs have identical clause lists.
    pub fn is_empty(&self) -> bool {
        self.changed.is_empty() && self.removed.is_empty()
    }
}

/// Rewrite a pattern's functor symbols from `old` interner indices to
/// `new` ones; `None` when a symbol's name is absent from `new` (the
/// edit removed every mention of it, so no live entry can need it).
fn remap_pattern(pattern: &Pattern, old: &Interner, new: &Interner) -> Option<Pattern> {
    let (mut nodes, roots) = pattern.clone().into_parts();
    for node in &mut nodes {
        match node {
            PNode::Atom(s) | PNode::Struct(s, _) => {
                *s = new.lookup(old.resolve(*s))?;
            }
            _ => {}
        }
    }
    // Re-canonicalize: node ordering can depend on symbol numbering,
    // which just changed under us.
    Some(Pattern::new(nodes, roots))
}

/// Migrate a suspended session across a program edit: partition its
/// extension table into kept / reset / dropped entries, rebuild the
/// survivors against `new_analyzer`'s interners, and run a seeded
/// re-fixpoint from the reset frontier so the returned parts are
/// converged and safe to query.
///
/// The partition is computed from the recorded dependency edges: the
/// *stale* set is the reverse-transitive closure of every entry whose
/// predicate changed or vanished (aux `$`-predicates, whose numbering is
/// global across the compile, are conservatively treated as changed
/// whenever the diff is non-empty). Stale entries of surviving
/// predicates are reset to an unexplored state and re-derived; entries
/// of removed predicates (or whose patterns mention symbols absent from
/// the new program) are dropped.
///
/// # Errors
///
/// Propagates [`AnalysisError`] from the re-fixpoint (budget, iteration
/// bound). The session state is consumed either way — on error the
/// caller must discard it, exactly like a failed [`Session`] query.
pub fn migrate_parts(
    old_program: &Program,
    new_program: &Program,
    old_analyzer: &Analyzer,
    new_analyzer: &Analyzer,
    parts: SessionParts,
    budget: Option<u64>,
) -> Result<(SessionParts, InvalidationStats), AnalysisError> {
    let diff = ProgramDiff::between(old_program, new_program);
    let old_compiled = old_analyzer.program();
    let new_compiled = new_analyzer.program();
    let old_names = &old_compiled.interner;
    let new_names = &new_compiled.interner;
    let (old_table, old_interner, session_stats) = parts.into_inner();

    let mut stats = InvalidationStats {
        entries_before: old_table.len() as u64,
        preds_changed: diff.changed.len() as u64,
        preds_removed: diff.removed.len() as u64,
        ..InvalidationStats::default()
    };

    // Classify every old predicate: its id in the new compiled program
    // (None = removed) and whether its clause list changed. Aux
    // predicates (`$dsj_N`, `$ite_N`) are numbered by one global counter
    // during WAM normalization, so any edit can shift which source
    // construct a given aux name denotes — treat them all as changed
    // whenever anything changed at all.
    let changed_names: BTreeSet<(String, usize)> = diff.changed.iter().cloned().collect();
    let num_old_preds = old_compiled.predicates.len();
    let mut pred_map: Vec<Option<usize>> = Vec::with_capacity(num_old_preds);
    let mut pred_changed: Vec<bool> = Vec::with_capacity(num_old_preds);
    for entry in &old_compiled.predicates {
        let name = old_names.resolve(entry.key.name);
        let arity = entry.key.arity;
        pred_map.push(new_compiled.predicate(name, arity));
        pred_changed.push(
            changed_names.contains(&(name.to_owned(), arity))
                || (!diff.is_empty() && name.starts_with('$')),
        );
    }

    // Remap every entry's patterns up front; a failure (vanished symbol)
    // marks the entry for dropping, and — like a removed predicate — it
    // must seed the stale closure so its dependents are reset.
    type Remapped = (Pattern, Option<Pattern>);
    let mut remapped: HashMap<(usize, usize), Remapped> = HashMap::new();
    let mut seeds: Vec<(usize, usize)> = Vec::new();
    let mut dropped: HashSet<(usize, usize)> = HashSet::new();
    for pred in 0..num_old_preds {
        for idx in 0..old_table.entries(pred).len() {
            let entry = old_table.entry(pred, idx);
            let call = remap_pattern(old_interner.resolve(entry.call), old_names, new_names);
            let success = entry
                .success
                .map(|s| remap_pattern(old_interner.resolve(s), old_names, new_names));
            match (pred_map[pred], call, success) {
                (Some(_), Some(call), Some(Some(success))) => {
                    remapped.insert((pred, idx), (call, Some(success)));
                }
                (Some(_), Some(call), None) => {
                    remapped.insert((pred, idx), (call, None));
                }
                _ => {
                    // Removed predicate or unmappable pattern: drop, and
                    // reset everything that depended on it.
                    dropped.insert((pred, idx));
                    seeds.push((pred, idx));
                }
            }
            if pred_changed[pred] && !dropped.contains(&(pred, idx)) {
                seeds.push((pred, idx));
            }
        }
    }

    // Reverse-transitive closure over the recorded dependency edges.
    let mut rev: HashMap<(usize, usize), Vec<(usize, usize)>> = HashMap::new();
    for pred in 0..num_old_preds {
        for idx in 0..old_table.entries(pred).len() {
            for &(dp, di, _) in old_table.deps(pred, idx) {
                rev.entry((dp, di)).or_default().push((pred, idx));
            }
        }
    }
    let mut stale: HashSet<(usize, usize)> = HashSet::new();
    let mut queue: VecDeque<(usize, usize)> = VecDeque::new();
    for seed in seeds {
        if stale.insert(seed) {
            queue.push_back(seed);
        }
    }
    while let Some(node) = queue.pop_front() {
        if let Some(dependents) = rev.get(&node) {
            for &d in dependents {
                if stale.insert(d) {
                    queue.push_back(d);
                }
            }
        }
    }

    // Rebuild the table against the new analyzer: kept entries carry
    // their summaries, versions reset to 0; stale survivors are reset to
    // unexplored (the re-fixpoint frontier); dropped entries vanish.
    let mut new_interner = new_analyzer.new_session_interner();
    let mut new_table = ExtensionTable::new(new_compiled.predicates.len());
    if new_analyzer.provenance_enabled() {
        new_table.enable_provenance();
    }
    let mut index_map: HashMap<(usize, usize), (usize, usize)> = HashMap::new();
    let mut frontier: Vec<(usize, usize)> = Vec::new();
    let mut kept: Vec<(usize, usize)> = Vec::new();
    for (pred, mapped) in pred_map.iter().enumerate() {
        let Some(new_pred) = *mapped else {
            stats.entries_dropped += old_table.entries(pred).len() as u64;
            continue;
        };
        for idx in 0..old_table.entries(pred).len() {
            if dropped.contains(&(pred, idx)) {
                stats.entries_dropped += 1;
                continue;
            }
            let (call, success) = remapped
                .remove(&(pred, idx))
                .expect("every non-dropped entry was remapped");
            let call_id = new_interner.intern(call);
            let new_idx = if stale.contains(&(pred, idx)) {
                stats.entries_reset += 1;
                let new_idx = new_table.seed_entry(new_pred, call_id, None, 0, 0);
                frontier.push((new_pred, new_idx));
                new_idx
            } else {
                stats.entries_kept += 1;
                let success_id = success.map(|s| new_interner.intern(s));
                kept.push((pred, idx));
                new_table.seed_entry(new_pred, call_id, success_id, 1, 0)
            };
            index_map.insert((pred, idx), (new_pred, new_idx));
        }
    }

    // Kept entries keep their dependency edges (remapped to new
    // indices; versions restart at the targets' current 0) and their
    // derivation records. A kept entry's targets are all kept: anything
    // depending on a stale or dropped entry is itself stale by closure.
    for (pred, idx) in kept {
        let (new_pred, new_idx) = index_map[&(pred, idx)];
        let deps: Vec<(usize, usize, u64)> = old_table
            .deps(pred, idx)
            .iter()
            .filter_map(|&(dp, di, _)| {
                let &(np, ni) = index_map.get(&(dp, di))?;
                Some((np, ni, new_table.version(np, ni)))
            })
            .collect();
        new_table.set_deps(new_pred, new_idx, deps);
        if let Some(derivation) = old_table.derivation(pred, idx) {
            new_table.seed_derivation(
                new_pred,
                new_idx,
                remap_derivation(
                    derivation,
                    &pred_map,
                    &old_interner,
                    &mut new_interner,
                    old_names,
                    new_names,
                ),
            );
        }
    }
    stats.frontier = frontier.len() as u64;

    // Seed the repair worklist callees-first: a frontier entry whose
    // stale dependencies have already re-converged is explored against
    // their final summaries instead of being re-queued for every
    // upstream change. Post-order DFS over the recorded dependency
    // edges restricted to the stale set; back-edges from recursive
    // entries are skipped by the visited mark, so cycles degrade to
    // discovery order rather than looping.
    let frontier = {
        let mut order: Vec<(usize, usize)> = Vec::with_capacity(frontier.len());
        let mut visited: HashSet<(usize, usize)> = HashSet::new();
        for pred in 0..num_old_preds {
            for idx in 0..old_table.entries(pred).len() {
                let start = (pred, idx);
                if !stale.contains(&start) || visited.contains(&start) {
                    continue;
                }
                visited.insert(start);
                let mut stack: Vec<((usize, usize), usize)> = vec![(start, 0)];
                while let Some((node, cursor)) = stack.last_mut() {
                    let deps = old_table.deps(node.0, node.1);
                    if let Some(&(dp, di, _)) = deps.get(*cursor) {
                        *cursor += 1;
                        let child = (dp, di);
                        if stale.contains(&child) && visited.insert(child) {
                            stack.push((child, 0));
                        }
                    } else {
                        order.push(*node);
                        stack.pop();
                    }
                }
            }
        }
        order
            .iter()
            .filter_map(|old| index_map.get(old).copied())
            .collect::<Vec<_>>()
    };

    // Seeded re-fixpoint from the frontier: reset entries re-derive
    // their summaries, reading kept entries' summaries as-is; growth
    // propagates along freshly recorded reverse edges.
    let mut machine = AbstractMachine::with_table(
        new_compiled,
        new_analyzer.depth_k(),
        new_table,
        new_interner,
    );
    machine.set_domain_config(new_analyzer.domain_config());
    machine.set_strategy(new_analyzer.iteration_strategy());
    machine.set_step_budget(budget);
    stats.refix_explorations = machine.run_repair(&frontier)?;
    stats.refix_instructions = machine.exec_count();
    let (table, interner) = machine.into_parts();
    Ok((
        SessionParts::from_inner(table, interner, session_stats),
        stats,
    ))
}

/// Carry a kept entry's derivation record across the migration,
/// remapping predicate ids and pattern symbols; fields that reference
/// vanished predicates or symbols degrade to `None`/empty rather than
/// dropping the whole record.
fn remap_derivation(
    derivation: &Derivation,
    pred_map: &[Option<usize>],
    old_interner: &SessionInterner,
    new_interner: &mut SessionInterner,
    old_names: &Interner,
    new_names: &Interner,
) -> Derivation {
    let origin = derivation.origin.and_then(|o| {
        pred_map
            .get(o.pred)
            .copied()
            .flatten()
            .map(|pred| DerivationOrigin {
                pred,
                clause: o.clause,
            })
    });
    let parent_call = derivation.parent_call.and_then(|id| {
        remap_pattern(old_interner.resolve(id), old_names, new_names)
            .map(|p| new_interner.intern(p))
    });
    let lub_steps: Option<Vec<LubStep>> = derivation
        .lub_steps
        .iter()
        .map(|step| {
            let input = remap_pattern(old_interner.resolve(step.input), old_names, new_names)?;
            let result = remap_pattern(old_interner.resolve(step.result), old_names, new_names)?;
            Some(LubStep {
                clause: step.clause,
                iter: step.iter,
                input: new_interner.intern(input),
                result: new_interner.intern(result),
            })
        })
        .collect();
    Derivation {
        origin,
        created_iter: derivation.created_iter,
        parent_call,
        lub_steps: lub_steps.unwrap_or_default(),
    }
}

/// An owning incremental-analysis workspace: source text, its parsed and
/// compiled forms, and a persistent session that survives edits.
///
/// Unlike [`Session`], which borrows its analyzer, a workspace owns the
/// whole chain — so [`Workspace::apply_edit`] / [`Workspace::update_source`]
/// can swap in a newly compiled analyzer and migrate the memo table in
/// place. This is the engine behind `awam watch`.
#[derive(Debug)]
pub struct Workspace {
    builder: AnalyzerBuilder,
    source: String,
    program: Program,
    analyzer: Analyzer,
    parts: Option<SessionParts>,
    budget: Option<u64>,
    last_invalidation: InvalidationStats,
}

impl Workspace {
    /// Open a workspace on `source` with the paper's default analyzer
    /// settings.
    ///
    /// # Errors
    ///
    /// [`UpdateError::Parse`] / [`UpdateError::Compile`].
    pub fn from_source(source: &str) -> Result<Workspace, UpdateError> {
        Workspace::with_builder(AnalyzerBuilder::default(), source)
    }

    /// Open a workspace on `source` with explicit analyzer settings.
    ///
    /// # Errors
    ///
    /// [`UpdateError::Parse`] / [`UpdateError::Compile`].
    pub fn with_builder(builder: AnalyzerBuilder, source: &str) -> Result<Workspace, UpdateError> {
        let program = parse_program(source)?;
        let analyzer = builder.compile(&program)?;
        let budget = analyzer.configured_step_budget();
        Ok(Workspace {
            builder,
            source: source.to_owned(),
            program,
            analyzer,
            parts: None,
            budget,
            last_invalidation: InvalidationStats::default(),
        })
    }

    /// Rebuild a workspace around a suspended session's parts (used by
    /// [`Session::update_program`]): recompiles `source` with the given
    /// settings — deterministic compilation makes the result identical
    /// to the analyzer the parts were grown on — and adopts the parts.
    pub(crate) fn resume(
        builder: AnalyzerBuilder,
        source: &str,
        parts: SessionParts,
        budget: Option<u64>,
    ) -> Result<Workspace, UpdateError> {
        let mut ws = Workspace::with_builder(builder, source)?;
        ws.parts = Some(parts);
        ws.budget = budget;
        Ok(ws)
    }

    /// The current source text.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// The current parsed program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The current compiled analyzer.
    pub fn analyzer(&self) -> &Analyzer {
        &self.analyzer
    }

    /// The invalidation counters of the most recent edit (all-default
    /// until the first edit).
    pub fn last_invalidation(&self) -> InvalidationStats {
        self.last_invalidation
    }

    /// Number of memo entries currently held by the workspace session.
    pub fn memo_len(&self) -> usize {
        self.parts.as_ref().map_or(0, SessionParts::memo_len)
    }

    /// Cap subsequent fixpoint and re-fixpoint runs at `budget` abstract
    /// instructions (`None` = the analyzer's configured budget).
    pub fn set_step_budget(&mut self, budget: Option<u64>) {
        self.budget = budget;
    }

    /// Analyze `name` with an entry pattern given as spec strings,
    /// through the workspace's persistent session (so repeat queries hit
    /// the memo table).
    ///
    /// # Errors
    ///
    /// Same as [`Session::analyze_query`].
    pub fn analyze(&mut self, name: &str, specs: &[&str]) -> Result<Analysis, AnalysisError> {
        let parts = self
            .parts
            .take()
            .unwrap_or_else(|| Session::new(&self.analyzer).into_parts());
        let mut session = Session::resume(&self.analyzer, parts);
        session.set_step_budget(self.budget);
        let result = session.analyze_query(name, specs);
        self.parts = Some(session.into_parts());
        result
    }

    /// Apply a clause-level edit: splice the clause list, re-parse, and
    /// migrate the session table (see [`migrate_parts`]). Returns the
    /// invalidation counters.
    ///
    /// # Errors
    ///
    /// [`UpdateError`]; on a re-fixpoint resource error the memo table
    /// is discarded (the workspace stays on the pre-edit program with an
    /// empty session, like a failed [`Session`] query).
    pub fn apply_edit(&mut self, edit: &ProgramEdit) -> Result<InvalidationStats, UpdateError> {
        let new_source = edit.apply(&self.program)?;
        self.update_source(&new_source)
    }

    /// Replace the whole source text, diffing against the current
    /// program and migrating the session table across the change. A
    /// clause-identical replacement (whitespace, comments) is a no-op:
    /// the memo table and compiled analyzer are untouched and the
    /// returned counters show zero invalidations.
    ///
    /// # Errors
    ///
    /// Same as [`Workspace::apply_edit`].
    pub fn update_source(&mut self, new_source: &str) -> Result<InvalidationStats, UpdateError> {
        let new_program = parse_program(new_source)?;
        let diff = ProgramDiff::between(&self.program, &new_program);
        if diff.is_empty() {
            let memo = self.memo_len() as u64;
            let stats = InvalidationStats {
                entries_before: memo,
                entries_kept: memo,
                ..InvalidationStats::default()
            };
            self.source = new_source.to_owned();
            self.program = new_program;
            self.last_invalidation = stats;
            return Ok(stats);
        }
        let new_analyzer = self.builder.compile(&new_program)?;
        let stats = match self.parts.take() {
            Some(parts) => {
                match migrate_parts(
                    &self.program,
                    &new_program,
                    &self.analyzer,
                    &new_analyzer,
                    parts,
                    self.budget,
                ) {
                    Ok((parts, stats)) => {
                        self.parts = Some(parts);
                        stats
                    }
                    Err(e) => return Err(UpdateError::Analysis(e)),
                }
            }
            None => InvalidationStats {
                preds_changed: diff.changed.len() as u64,
                preds_removed: diff.removed.len() as u64,
                ..InvalidationStats::default()
            },
        };
        self.source = new_source.to_owned();
        self.program = new_program;
        self.analyzer = new_analyzer;
        self.last_invalidation = stats;
        Ok(stats)
    }

    /// Canonical serialization of the goal-reachable core of the
    /// session table: the entries reachable from the goal's entry along
    /// recorded dependency edges, one sorted line per entry
    /// (`name/arity call -> success`). Runs the query first (a memo hit
    /// when already analyzed), so the root entry exists.
    ///
    /// Incremental and cold tables can differ in transient entries
    /// (abandoned calling patterns from earlier fixpoint rounds or
    /// pre-edit exploration) and insertion order; the reachable core is
    /// the part that answers queries, and it is byte-identical between
    /// the two — the differential oracle's equality claim.
    ///
    /// # Errors
    ///
    /// Same as [`Workspace::analyze`].
    pub fn core_dump(&mut self, name: &str, specs: &[&str]) -> Result<String, AnalysisError> {
        let core = self.core_entries(name, specs)?;
        let interner = self.analyzer.interner();
        let parts = self.parts.as_ref().expect("analyze populated the session");
        let mut lines: Vec<String> = core
            .iter()
            .map(|&(pred, idx)| {
                let entry = parts.table().entry(pred, idx);
                let key = &self.analyzer.program().predicates[pred].key;
                let call = parts.interner().resolve(entry.call).display(interner);
                let success = entry
                    .success
                    .map(|s| parts.interner().resolve(s).display(interner))
                    .unwrap_or_else(|| "fail".to_owned());
                format!("{} {} -> {}", key.display(interner), call, success)
            })
            .collect();
        lines.sort();
        let mut out = lines.join("\n");
        out.push('\n');
        Ok(out)
    }

    /// The human-readable report rendered from the goal-reachable core
    /// only (synthetic zeroed counters, entries sorted canonically), so
    /// incremental and cold sessions produce byte-identical text. See
    /// [`Workspace::core_dump`].
    ///
    /// # Errors
    ///
    /// Same as [`Workspace::analyze`].
    pub fn core_report(&mut self, name: &str, specs: &[&str]) -> Result<String, AnalysisError> {
        let core = self.core_entries(name, specs)?;
        let reachable: HashSet<(usize, usize)> = core.into_iter().collect();
        let parts = self.parts.as_ref().expect("analyze populated the session");
        let compiled = self.analyzer.program();
        let mut predicates = Vec::new();
        for (pred, entry) in compiled.predicates.iter().enumerate() {
            let mut entries: Vec<(Pattern, Option<Pattern>)> = parts
                .table()
                .entries(pred)
                .iter()
                .enumerate()
                .filter(|&(idx, _)| reachable.contains(&(pred, idx)))
                .map(|(_, e)| {
                    (
                        parts.interner().resolve(e.call).clone(),
                        e.success.map(|s| parts.interner().resolve(s).clone()),
                    )
                })
                .collect();
            entries.sort_by_key(|(call, _)| call.display(&compiled.interner));
            if !entries.is_empty() {
                predicates.push(PredAnalysis {
                    name: entry.key.display(&compiled.interner),
                    pred,
                    arity: entry.key.arity,
                    entries,
                });
            }
        }
        let analysis = Analysis {
            predicates,
            iterations: 0,
            instructions_executed: 0,
            table_stats: Default::default(),
            intern_stats: Default::default(),
            machine_stats: MachineStats::default(),
            opcodes: OpcodeCounts::new(wam::OPCODE_NAMES.len()),
            analyze_ns: 0,
            pred_times: Vec::new(),
            pred_instrs: Vec::new(),
            provenance: None,
            profile: None,
        };
        Ok(crate::report::render(&analysis, self.analyzer.interner()))
    }

    /// The `(pred, entry index)` set reachable from the goal's entry via
    /// recorded dependency edges (the goal entry included), after
    /// ensuring the goal has been analyzed.
    fn core_entries(
        &mut self,
        name: &str,
        specs: &[&str],
    ) -> Result<Vec<(usize, usize)>, AnalysisError> {
        self.analyze(name, specs)?;
        let entry =
            Pattern::from_spec(specs).ok_or_else(|| AnalysisError::BadSpec(specs.join(", ")))?;
        let (pred, entry) = self.analyzer.resolve_entry(name, &entry)?;
        let parts = self.parts.as_mut().expect("analyze populated the session");
        let entry_id = parts.interner_mut().intern(entry.clone());
        let root_idx = match parts.table().find_quiet(pred, entry_id) {
            Some(idx) => idx,
            // A memo hit can be answered by a *subsuming* entry without
            // the exact pattern existing; root there.
            None => parts
                .find_subsuming(pred, entry_id)
                .expect("analyze ensured a covering entry exists"),
        };
        let table = parts.table();
        let mut seen: HashSet<(usize, usize)> = HashSet::new();
        let mut queue: VecDeque<(usize, usize)> = VecDeque::new();
        seen.insert((pred, root_idx));
        queue.push_back((pred, root_idx));
        while let Some((p, i)) = queue.pop_front() {
            for &(dp, di, _) in table.deps(p, i) {
                if seen.insert((dp, di)) {
                    queue.push_back((dp, di));
                }
            }
        }
        let mut core: Vec<(usize, usize)> = seen.into_iter().collect();
        core.sort_unstable();
        Ok(core)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const APP: &str = "app([], L, L).\napp([H|T], L, [H|R]) :- app(T, L, R).\n";

    #[test]
    fn noop_edit_keeps_everything() {
        let mut ws = Workspace::from_source(APP).unwrap();
        ws.analyze("app", &["glist", "glist", "var"]).unwrap();
        let before = ws.memo_len();
        assert!(before > 0);
        // Same clauses, different whitespace: empty diff, no recompile.
        let stats = ws.update_source(&APP.replace('\n', "\n\n")).unwrap();
        assert_eq!(stats.entries_before, before as u64);
        assert_eq!(stats.entries_kept, before as u64);
        assert_eq!(stats.entries_reset, 0);
        assert_eq!(stats.entries_dropped, 0);
        assert_eq!(stats.frontier, 0);
        assert_eq!(stats.refix_explorations, 0);
        assert_eq!(ws.memo_len(), before);
    }

    #[test]
    fn edit_invalidates_and_reconverges() {
        let mut ws = Workspace::from_source(APP).unwrap();
        let cold = ws.analyze("app", &["glist", "glist", "var"]).unwrap();
        assert!(cold.iterations > 0);
        let stats = ws
            .apply_edit(&ProgramEdit::AddClause {
                clause: "app([a], L, [a|L]).".to_owned(),
            })
            .unwrap();
        assert!(stats.entries_reset > 0, "app changed: its entries reset");
        assert_eq!(
            stats.entries_before,
            stats.entries_kept + stats.entries_reset + stats.entries_dropped
        );
        // The repaired table answers without a fixpoint run and matches
        // a cold analysis of the edited source.
        let warm = ws.analyze("app", &["glist", "glist", "var"]).unwrap();
        assert_eq!(warm.iterations, 0, "repair left a converged table");
        let mut cold_ws = Workspace::from_source(ws.source()).unwrap();
        assert_eq!(
            ws.core_dump("app", &["glist", "glist", "var"]).unwrap(),
            cold_ws
                .core_dump("app", &["glist", "glist", "var"])
                .unwrap()
        );
        assert_eq!(
            ws.core_report("app", &["glist", "glist", "var"]).unwrap(),
            cold_ws
                .core_report("app", &["glist", "glist", "var"])
                .unwrap()
        );
    }

    #[test]
    fn remove_predicate_drops_its_entries() {
        let src = "p(X) :- q(X).\nq(a).\nr(b).\n";
        let mut ws = Workspace::from_source(src).unwrap();
        ws.analyze("p", &["any"]).unwrap();
        ws.analyze("r", &["any"]).unwrap();
        let stats = ws
            .apply_edit(&ProgramEdit::RemovePredicate {
                pred: "p".to_owned(),
                arity: 1,
            })
            .unwrap();
        assert!(stats.entries_dropped > 0, "p's entries vanish");
        // r was untouched: still answered warm.
        let warm = ws.analyze("r", &["any"]).unwrap();
        assert_eq!(warm.iterations, 0);
        assert!(ws.analyze("p", &["any"]).is_err(), "p is gone");
    }

    #[test]
    fn bad_edits_are_reported() {
        let program = parse_program(APP).unwrap();
        let missing = ProgramEdit::RemoveClause {
            pred: "nope".to_owned(),
            arity: 3,
            clause: 0,
        };
        assert!(matches!(
            missing.apply(&program),
            Err(EditError::UnknownPredicate { .. })
        ));
        let out_of_range = ProgramEdit::ReplaceClause {
            pred: "app".to_owned(),
            arity: 3,
            clause: 7,
            text: "app(X, Y, Z).".to_owned(),
        };
        assert!(matches!(
            out_of_range.apply(&program),
            Err(EditError::NoSuchClause { .. })
        ));
    }

    #[test]
    fn diff_sees_through_whitespace() {
        let a = parse_program("p(a).  p(b).\nq(X) :- p(X).").unwrap();
        let b = parse_program("p(a).\np(b).\n\nq(X) :- p(X).").unwrap();
        assert!(ProgramDiff::between(&a, &b).is_empty());
        let c = parse_program("p(a).\nq(X) :- p(X).").unwrap();
        let diff = ProgramDiff::between(&a, &c);
        assert_eq!(diff.changed, vec![("p".to_owned(), 1)]);
        assert!(diff.removed.is_empty());
    }
}
