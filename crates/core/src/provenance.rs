//! Derivation reports: the resolved, self-contained view of a
//! provenance-tracked extension table.
//!
//! The table itself records derivations as interned [`PatternId`]s (see
//! [`crate::table::Derivation`]); this module projects them into
//! [`Pattern`]s and display strings at collection time, so a
//! [`DerivationReport`] can outlive the machine, render itself, and be
//! checked without an interner in hand.
//!
//! The report answers two questions per extension-table entry:
//!
//! * **where did it come from** — the clause whose body issued the call,
//!   the fixpoint iteration, and the calling pattern of the parent table
//!   entry;
//! * **why does its success summary hold** — the ordered chain of
//!   clause-solution patterns whose least upper bound the summary is.
//!
//! [`DerivationReport::refold_violation`] replays each chain through the
//! structural [`Pattern::lub`] and confirms it re-derives the stored
//! summary exactly — the invariant the testkit `provenance` oracle enforces.

use crate::table::ExtensionTable;
use absdom::{Pattern, PatternId, SessionInterner};
use awam_obs::Json;
use wam::CompiledProgram;

/// One step of a success-summary derivation, fully resolved.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChainStep {
    /// Clause index (within the entry's predicate) whose solution
    /// produced the input pattern.
    pub clause: usize,
    /// Fixpoint iteration of the widening.
    pub iter: u64,
    /// The success pattern folded in.
    pub input: Pattern,
    /// The summary after the fold.
    pub result: Pattern,
    /// `input` rendered for display.
    pub input_display: String,
    /// `result` rendered for display.
    pub result_display: String,
}

/// The derivation of one extension-table entry, fully resolved.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EntryDerivation {
    /// The calling pattern, rendered.
    pub call: String,
    /// The summarized success pattern, rendered (`None`: always fails).
    pub success: Option<String>,
    /// `(caller name/arity, clause index)` of the call that created this
    /// entry; `None` for the entry goal.
    pub origin: Option<(String, usize)>,
    /// Fixpoint iteration in which the entry was created.
    pub created_iter: u64,
    /// Calling pattern of the parent table entry, rendered.
    pub parent_call: Option<String>,
    /// The widening chain, in order.
    pub chain: Vec<ChainStep>,
    /// The stored success pattern (for refolding).
    success_pattern: Option<Pattern>,
}

/// All derivations of one predicate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PredDerivations {
    /// `name/arity`.
    pub name: String,
    /// Predicate id in the compiled program.
    pub pred: usize,
    /// One derivation per extension-table entry, in entry order.
    pub entries: Vec<EntryDerivation>,
}

/// The derivation report of a whole analysis run: every predicate that
/// acquired table entries, with the provenance of each entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DerivationReport {
    /// Per-predicate derivations, in predicate-table order, restricted
    /// to predicates with at least one entry.
    pub predicates: Vec<PredDerivations>,
}

fn display_id(id: PatternId, interner: &SessionInterner, program: &CompiledProgram) -> String {
    interner.resolve(id).display(&program.interner)
}

/// Project a provenance-tracked table into a self-contained report.
/// Entries of a table without provenance get blank derivations; callers
/// gate on [`ExtensionTable::provenance_enabled`] first.
pub(crate) fn collect(
    program: &CompiledProgram,
    table: &ExtensionTable,
    interner: &SessionInterner,
) -> DerivationReport {
    let pred_name =
        |pred: usize| -> String { program.predicates[pred].key.display(&program.interner) };
    let mut predicates = Vec::new();
    for (pred, p) in program.predicates.iter().enumerate() {
        let entries: Vec<EntryDerivation> = table
            .entries(pred)
            .iter()
            .enumerate()
            .map(|(idx, entry)| {
                let d = table.derivation(pred, idx).cloned().unwrap_or_default();
                EntryDerivation {
                    call: display_id(entry.call, interner, program),
                    success: entry.success.map(|s| display_id(s, interner, program)),
                    origin: d.origin.map(|o| (pred_name(o.pred), o.clause)),
                    created_iter: d.created_iter,
                    parent_call: d.parent_call.map(|c| display_id(c, interner, program)),
                    chain: d
                        .lub_steps
                        .iter()
                        .map(|s| ChainStep {
                            clause: s.clause,
                            iter: s.iter,
                            input: interner.resolve(s.input).clone(),
                            result: interner.resolve(s.result).clone(),
                            input_display: display_id(s.input, interner, program),
                            result_display: display_id(s.result, interner, program),
                        })
                        .collect(),
                    success_pattern: entry.success.map(|s| interner.resolve(s).clone()),
                }
            })
            .collect();
        if !entries.is_empty() {
            predicates.push(PredDerivations {
                name: p.key.display(&program.interner),
                pred,
                entries,
            });
        }
    }
    DerivationReport { predicates }
}

impl DerivationReport {
    /// The derivations of predicate `name/arity`, if it was reached.
    pub fn predicate(&self, name: &str, arity: usize) -> Option<&PredDerivations> {
        let key = format!("{name}/{arity}");
        self.predicates.iter().find(|p| p.name == key)
    }

    /// Render every predicate's derivation tree (see
    /// [`PredDerivations::render`]).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for p in &self.predicates {
            out.push_str(&p.render());
        }
        out
    }

    /// Check that every entry's recorded chain re-folds, via the
    /// structural [`Pattern::lub`], to the stored success summary.
    /// Returns a description of the first violation, or `None` if all
    /// derivations are consistent.
    pub fn refold_violation(&self) -> Option<String> {
        for p in &self.predicates {
            for (idx, e) in p.entries.iter().enumerate() {
                let Some(expected) = &e.success_pattern else {
                    if !e.chain.is_empty() {
                        return Some(format!(
                            "{} entry {idx}: {} recorded lub steps but no success summary",
                            p.name,
                            e.chain.len()
                        ));
                    }
                    continue;
                };
                if e.chain.is_empty() {
                    return Some(format!(
                        "{} entry {idx}: success summary with an empty lub chain",
                        p.name
                    ));
                }
                let mut acc = e.chain[0].input.clone();
                for (step_no, step) in e.chain.iter().enumerate() {
                    if step_no > 0 {
                        acc = acc.lub(&step.input);
                    }
                    if acc != step.result {
                        return Some(format!(
                            "{} entry {idx} step {step_no}: fold disagrees with recorded result {}",
                            p.name, step.result_display
                        ));
                    }
                }
                if &acc != expected {
                    return Some(format!(
                        "{} entry {idx}: chain does not re-fold to the stored summary {}",
                        p.name,
                        e.success.as_deref().unwrap_or("-")
                    ));
                }
            }
        }
        None
    }

    /// Encode the report as stable JSON (predicate order, entry order,
    /// and chain order all match the table; no map types involved).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![(
            "predicates",
            Json::Arr(
                self.predicates
                    .iter()
                    .map(|p| {
                        Json::obj(vec![
                            ("name", Json::Str(p.name.clone())),
                            (
                                "entries",
                                Json::Arr(p.entries.iter().map(entry_json).collect()),
                            ),
                        ])
                    })
                    .collect(),
            ),
        )])
    }
}

fn entry_json(e: &EntryDerivation) -> Json {
    Json::obj(vec![
        ("call", Json::Str(e.call.clone())),
        (
            "success",
            e.success
                .as_ref()
                .map_or(Json::Null, |s| Json::Str(s.clone())),
        ),
        (
            "origin",
            e.origin.as_ref().map_or(Json::Null, |(name, clause)| {
                Json::obj(vec![
                    ("pred", Json::Str(name.clone())),
                    ("clause", Json::Int(*clause as i64)),
                ])
            }),
        ),
        ("created_iter", Json::Int(e.created_iter as i64)),
        (
            "parent_call",
            e.parent_call
                .as_ref()
                .map_or(Json::Null, |s| Json::Str(s.clone())),
        ),
        (
            "lub_chain",
            Json::Arr(
                e.chain
                    .iter()
                    .map(|s| {
                        Json::obj(vec![
                            ("clause", Json::Int(s.clause as i64)),
                            ("iter", Json::Int(s.iter as i64)),
                            ("input", Json::Str(s.input_display.clone())),
                            ("result", Json::Str(s.result_display.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

impl PredDerivations {
    /// Render this predicate's derivation tree:
    ///
    /// ```text
    /// app/3
    ///   call (glist, glist, var) -> (glist, glist, glist)
    ///     created: iteration 1, clause 1 of nrev/2, parent call (glist, var)
    ///     lub chain:
    ///       [1] clause 0, iteration 1: (g, g, g) => (g, g, g)
    ///       [2] clause 1, iteration 1: (glist, glist, glist) => (glist, glist, glist)
    /// ```
    pub fn render(&self) -> String {
        let mut out = format!("{}\n", self.name);
        for e in &self.entries {
            out.push_str(&format!(
                "  call {} -> {}\n",
                e.call,
                e.success.as_deref().unwrap_or("fails")
            ));
            let origin = match &e.origin {
                Some((name, clause)) => format!("clause {clause} of {name}"),
                None => "entry goal".to_owned(),
            };
            out.push_str(&format!(
                "    created: iteration {}, {origin}",
                e.created_iter
            ));
            if let Some(parent) = &e.parent_call {
                out.push_str(&format!(", parent call {parent}"));
            }
            out.push('\n');
            if !e.chain.is_empty() {
                out.push_str("    lub chain:\n");
                for (i, s) in e.chain.iter().enumerate() {
                    out.push_str(&format!(
                        "      [{}] clause {}, iteration {}: {} => {}\n",
                        i + 1,
                        s.clause,
                        s.iter,
                        s.input_display,
                        s.result_display
                    ));
                }
            }
        }
        out
    }
}
