//! Analysis-driven WAM optimizations.
//!
//! The paper's opening argument (§1) is that "substantial optimizations
//! all depend on interprocedural information such as mode, type and
//! variable aliasing" — the analysis exists to feed an optimizing
//! compiler ([12, 13, 15, 18, 23] in its bibliography). This crate is
//! that downstream client, closing the loop:
//!
//! * [`OptReport`] classifies, from the extension table, every head
//!   `get_*` instruction of every analyzed predicate as **read-only**
//!   (the argument is always bound: unification specializes to matching,
//!   no trailing), **write-only** (always unbound: pure construction, no
//!   dispatch), or mixed — plus dead `switch_on_term` branches and
//!   predicates whose first-argument indexing is provably deterministic
//!   (no choice points).
//! * [`specialize`] applies the clause-level consequence: clauses whose
//!   head can never match any recorded calling pattern are removed, and
//!   predicates never called from the analyzed entry are dropped
//!   entirely; the result recompiles and runs *fewer instructions for
//!   the same answers* (tested).

#![warn(missing_docs)]

use absdom::{AbsLeaf, PNode, Pattern};
use awam_core::Analysis;
use prolog_syntax::{Program, Term};
use std::collections::HashMap;
use std::fmt;
use wam::{CompiledProgram, Instr, WamConst};

/// Classification of one head `get` instruction's argument register.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ArgState {
    /// Always bound at every recorded call: read-mode specialization.
    ReadOnly,
    /// Always unbound: write-mode specialization.
    WriteOnly,
    /// Sometimes bound, sometimes not (or unknown).
    Mixed,
}

/// Optimization opportunities for one predicate.
#[derive(Clone, Debug, Default)]
pub struct PredOpt {
    /// `name/arity`.
    pub name: String,
    /// `get_*` instructions classified [`ArgState::ReadOnly`].
    pub read_only_gets: usize,
    /// `get_*` instructions classified [`ArgState::WriteOnly`].
    pub write_only_gets: usize,
    /// `get_*` instructions with mixed/unknown argument states.
    pub mixed_gets: usize,
    /// `get_constant` instructions whose success is decided statically
    /// (the calling pattern pins the argument to that very constant).
    pub redundant_const_checks: usize,
    /// Dead branches of the predicate's `switch_on_term`, if it has one.
    pub dead_switch_branches: usize,
    /// Whether first-argument indexing makes the predicate determinate
    /// (at most one clause candidate for every recorded calling pattern).
    pub determinate: bool,
}

/// The whole-program report.
#[derive(Clone, Debug, Default)]
pub struct OptReport {
    /// Per-predicate rows (analyzed predicates only).
    pub preds: Vec<PredOpt>,
}

impl OptReport {
    /// Derive the report from a compiled program and its analysis.
    pub fn build(compiled: &CompiledProgram, analysis: &Analysis) -> OptReport {
        let mut report = OptReport::default();
        for pa in &analysis.predicates {
            let pred = &compiled.predicates[pa.pred];
            let mut row = PredOpt {
                name: pa.name.clone(),
                ..PredOpt::default()
            };
            // Entry states per argument: the lub over calling patterns.
            let states: Vec<ArgState> = (0..pa.arity).map(|i| arg_state(&pa.entries, i)).collect();
            // Walk each clause's head section.
            for &entry in &pred.clause_entries {
                classify_head(compiled, entry, &states, &pa.entries, &mut row);
            }
            // Switch analysis.
            if let Some(Instr::SwitchOnTerm { .. }) = compiled.code.get(pred.entry) {
                row.dead_switch_branches = dead_branches(&pa.entries);
            }
            row.determinate = determinate(compiled, pred, &pa.entries);
            report.preds.push(row);
        }
        report
    }

    /// Sum across predicates: `(read_only, write_only, mixed)`.
    pub fn totals(&self) -> (usize, usize, usize) {
        self.preds.iter().fold((0, 0, 0), |(r, w, m), p| {
            (
                r + p.read_only_gets,
                w + p.write_only_gets,
                m + p.mixed_gets,
            )
        })
    }

    /// Fraction of `get` instructions that can be mode-specialized.
    pub fn specializable_fraction(&self) -> f64 {
        let (r, w, m) = self.totals();
        let total = r + w + m;
        if total == 0 {
            return 0.0;
        }
        (r + w) as f64 / total as f64
    }
}

impl fmt::Display for OptReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<16} {:>5} {:>6} {:>6} {:>7} {:>6} {:>6}",
            "predicate", "read", "write", "mixed", "rconst", "deadsw", "det"
        )?;
        for p in &self.preds {
            writeln!(
                f,
                "{:<16} {:>5} {:>6} {:>6} {:>7} {:>6} {:>6}",
                p.name,
                p.read_only_gets,
                p.write_only_gets,
                p.mixed_gets,
                p.redundant_const_checks,
                p.dead_switch_branches,
                if p.determinate { "yes" } else { "" }
            )?;
        }
        let (r, w, m) = self.totals();
        writeln!(
            f,
            "total: {r} read-only, {w} write-only, {m} mixed — {:.0}% of head gets specialize",
            100.0 * self.specializable_fraction()
        )
    }
}

fn arg_state(entries: &[(Pattern, Option<Pattern>)], i: usize) -> ArgState {
    let mut all_bound = true;
    let mut all_free = true;
    for (cp, _) in entries {
        match cp.leaf_approx(cp.root(i)) {
            AbsLeaf::Var => all_bound = false,
            AbsLeaf::Any => {
                all_bound = false;
                all_free = false;
            }
            _ => all_free = false,
        }
    }
    if all_bound && !entries.is_empty() {
        ArgState::ReadOnly
    } else if all_free && !entries.is_empty() {
        ArgState::WriteOnly
    } else {
        ArgState::Mixed
    }
}

fn classify_head(
    compiled: &CompiledProgram,
    entry: usize,
    states: &[ArgState],
    entries: &[(Pattern, Option<Pattern>)],
    row: &mut PredOpt,
) {
    for instr in &compiled.code[entry..] {
        match instr {
            Instr::GetConstant(_, a) | Instr::GetList(a) | Instr::GetStructure(_, a)
                if (*a as usize) < states.len() =>
            {
                match states[*a as usize] {
                    ArgState::ReadOnly => row.read_only_gets += 1,
                    ArgState::WriteOnly => row.write_only_gets += 1,
                    ArgState::Mixed => row.mixed_gets += 1,
                }
                if let Instr::GetConstant(c, a) = instr {
                    if constant_pinned(entries, *a as usize, *c) {
                        row.redundant_const_checks += 1;
                    }
                }
            }
            Instr::GetVariable(..) | Instr::GetValue(..) => {}
            Instr::UnifyVariable(_)
            | Instr::UnifyValue(_)
            | Instr::UnifyConstant(_)
            | Instr::UnifyVoid(_)
            | Instr::Allocate(_)
            | Instr::GetLevel(_)
            | Instr::GetConstant(..)
            | Instr::GetList(_)
            | Instr::GetStructure(..) => {}
            // First body instruction ends the head section.
            _ => break,
        }
    }
}

/// All calling patterns pin argument `a` to exactly the constant `c`.
fn constant_pinned(entries: &[(Pattern, Option<Pattern>)], a: usize, c: WamConst) -> bool {
    !entries.is_empty()
        && entries
            .iter()
            .all(|(cp, _)| match (cp.node(cp.root(a)), c) {
                (PNode::Atom(x), WamConst::Atom(y)) => *x == y,
                (PNode::Int(x), WamConst::Int(y)) => *x == y,
                _ => false,
            })
}

/// Dead `switch_on_term` branches: count dispatch targets no recorded
/// calling pattern can reach through its first argument.
fn dead_branches(entries: &[(Pattern, Option<Pattern>)]) -> usize {
    if entries.is_empty() {
        return 0;
    }
    let mut var_live = false;
    let mut con_live = false;
    let mut lis_live = false;
    let mut str_live = false;
    for (cp, _) in entries {
        if cp.arity() == 0 {
            return 0;
        }
        match cp.node(cp.root(0)) {
            PNode::Leaf(AbsLeaf::Var) => var_live = true,
            PNode::Leaf(AbsLeaf::Any) => return 0, // everything live
            PNode::Leaf(AbsLeaf::NonVar) => {
                con_live = true;
                lis_live = true;
                str_live = true;
            }
            PNode::Leaf(AbsLeaf::Ground) => {
                con_live = true;
                lis_live = true;
                str_live = true;
            }
            PNode::Leaf(AbsLeaf::Const) => {
                con_live = true;
            }
            PNode::Leaf(AbsLeaf::Atom | AbsLeaf::Integer) | PNode::Atom(_) | PNode::Int(_) => {
                con_live = true;
            }
            PNode::List(_) => {
                con_live = true; // [] is a constant
                lis_live = true;
            }
            PNode::Struct(f, args) => {
                if absdom::is_dot_symbol(*f) && args.len() == 2 {
                    lis_live = true;
                } else {
                    str_live = true;
                }
            }
        }
    }
    [var_live, con_live, lis_live, str_live]
        .iter()
        .filter(|live| !**live)
        .count()
}

/// Is clause selection deterministic for every recorded calling pattern?
/// True when the first argument is always a specific constant or functor
/// and the predicate's second-level dispatch maps it to at most one
/// clause.
fn determinate(
    compiled: &CompiledProgram,
    pred: &wam::PredEntry,
    entries: &[(Pattern, Option<Pattern>)],
) -> bool {
    if pred.clause_entries.len() <= 1 {
        return true;
    }
    let Some(Instr::SwitchOnTerm { con, lis, str_, .. }) = compiled.code.get(pred.entry) else {
        return false;
    };
    if entries.is_empty() {
        return false;
    }
    entries.iter().all(|(cp, _)| {
        if cp.arity() == 0 {
            return false;
        }
        let target = match cp.node(cp.root(0)) {
            PNode::Atom(_) | PNode::Int(_) => *con,
            PNode::Struct(f, args) if absdom::is_dot_symbol(*f) && args.len() == 2 => *lis,
            PNode::Struct(..) => *str_,
            PNode::List(_) => return false, // [] or cons: two targets
            PNode::Leaf(_) => return false,
        };
        branch_is_deterministic(compiled, target)
    })
}

fn branch_is_deterministic(compiled: &CompiledProgram, target: usize) -> bool {
    match compiled.code.get(target) {
        Some(Instr::Fail) => true,
        Some(Instr::Try(_) | Instr::TryMeElse(_)) => false,
        // Second-level tables: every bucket must itself be deterministic.
        Some(Instr::SwitchOnConstant(table)) => table
            .iter()
            .all(|(_, t)| branch_is_deterministic(compiled, *t)),
        Some(Instr::SwitchOnStructure(table)) => table
            .iter()
            .all(|(_, t)| branch_is_deterministic(compiled, *t)),
        // A direct clause-body entry.
        Some(_) => true,
        None => false,
    }
}

// ---------------------------------------------------------------------
// Source-level specialization
// ---------------------------------------------------------------------

/// Result of [`specialize`].
#[derive(Debug)]
pub struct Specialized {
    /// The residual program.
    pub program: Program,
    /// Clauses removed because their head cannot match any recorded
    /// calling pattern of their predicate.
    pub dead_clauses: usize,
    /// Predicates removed because the analysis never reaches them.
    pub dead_preds: usize,
}

/// Remove clauses and predicates the analysis proves unreachable from
/// the analyzed entry. Sound *for that entry*: the residual program
/// computes the same answers for goals covered by the analysis.
pub fn specialize(program: &Program, analysis: &Analysis) -> Specialized {
    // Map analyzed predicate names to their calling patterns.
    let mut patterns: HashMap<String, Vec<Pattern>> = HashMap::new();
    for pa in &analysis.predicates {
        patterns.insert(
            pa.name.clone(),
            pa.entries.iter().map(|(c, _)| c.clone()).collect(),
        );
    }
    let mut out = Program {
        interner: program.interner.clone(),
        clauses: Vec::new(),
        directives: program.directives.clone(),
    };
    let mut dead_clauses = 0;
    let mut seen_preds: std::collections::HashSet<String> = Default::default();
    let mut dead_preds_set: std::collections::HashSet<String> = Default::default();
    for clause in &program.clauses {
        let key = clause.pred_key().display(&program.interner);
        seen_preds.insert(key.clone());
        let Some(cps) = patterns.get(&key) else {
            dead_preds_set.insert(key);
            continue; // predicate never called
        };
        let live = cps.iter().any(|cp| head_may_match(clause, cp));
        if live {
            out.clauses.push(clause.clone());
        } else {
            dead_clauses += 1;
        }
    }
    Specialized {
        program: out,
        dead_clauses,
        dead_preds: dead_preds_set.len(),
    }
}

/// Cheap refutation: can the clause head possibly match the calling
/// pattern? (Compares top-level argument shapes only; `true` means
/// "maybe".)
fn head_may_match(clause: &prolog_syntax::Clause, cp: &Pattern) -> bool {
    let args: &[Term] = match &clause.head {
        Term::Struct(_, args) => args,
        _ => return true,
    };
    if args.len() != cp.arity() {
        return false;
    }
    args.iter().enumerate().all(|(i, arg)| {
        let node = cp.node(cp.root(i));
        match (arg, node) {
            (Term::Var(_), _) => true,
            (_, PNode::Leaf(AbsLeaf::Var)) => true, // a free var matches anything
            (Term::Atom(a), PNode::Atom(b)) => a == b,
            (Term::Atom(_), PNode::Int(_)) => false,
            (Term::Atom(a), PNode::List(_)) => *a == absdom::nil_symbol(),
            (Term::Atom(_), PNode::Struct(..)) => false,
            (Term::Atom(_), PNode::Leaf(l)) => l.admits_atom(),
            (Term::Int(i), PNode::Int(j)) => i == j,
            (Term::Int(_), PNode::Atom(_) | PNode::List(_) | PNode::Struct(..)) => false,
            (Term::Int(_), PNode::Leaf(l)) => l.admits_integer(),
            (Term::Struct(f, sub), PNode::Struct(g, nodes)) => f == g && sub.len() == nodes.len(),
            (Term::Struct(f, sub), PNode::List(_)) => absdom::is_dot_symbol(*f) && sub.len() == 2,
            (Term::Struct(..), PNode::Atom(_) | PNode::Int(_)) => false,
            (Term::Struct(f, sub), PNode::Leaf(l)) => {
                if absdom::is_dot_symbol(*f) && sub.len() == 2 {
                    l.admits_list()
                } else {
                    l.admits_struct()
                }
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use awam_core::Analyzer;
    use prolog_syntax::parse_program;

    fn analyze(src: &str, pred: &str, specs: &[&str]) -> (CompiledProgram, Analysis, Program) {
        let program = parse_program(src).unwrap();
        let compiled = wam::compile_program(&program).unwrap();
        let analyzer = Analyzer::from_compiled(compiled.clone());
        let analysis = analyzer.analyze_query(pred, specs).unwrap();
        (compiled, analysis, program)
    }

    #[test]
    fn read_only_classification() {
        let src = "
            len([], 0).
            len([_|T], N) :- len(T, M), N is M + 1.
        ";
        let (compiled, analysis, _) = analyze(src, "len", &["glist", "var"]);
        let report = OptReport::build(&compiled, &analysis);
        let len = report.preds.iter().find(|p| p.name == "len/2").unwrap();
        // A1 is always a (bound) list → the get_constant/get_list on it
        // are read-only; A2 is always unbound at the call.
        assert!(len.read_only_gets >= 2, "{len:?}");
        assert!(len.write_only_gets >= 1, "{len:?}");
        assert_eq!(len.mixed_gets, 0, "{len:?}");
    }

    #[test]
    fn dead_switch_branches_counted() {
        let src = "
            kind([], empty).
            kind([_|_], cons).
            kind(other, atom).
        ";
        // Called only with lists: the struct branch is dead (list+const
        // stay live because [] is a constant).
        let (compiled, analysis, _) = analyze(src, "kind", &["glist", "var"]);
        let report = OptReport::build(&compiled, &analysis);
        let kind = report.preds.iter().find(|p| p.name == "kind/2").unwrap();
        assert!(kind.dead_switch_branches >= 1, "{kind:?}");
    }

    #[test]
    fn determinate_dispatch_detected() {
        let src = "
            color(red, warm).
            color(blue, cold).
            color(green, cool).
            pick(X) :- color(red, X).
        ";
        let (compiled, analysis, _) = analyze(src, "pick", &["var"]);
        let report = OptReport::build(&compiled, &analysis);
        let color = report.preds.iter().find(|p| p.name == "color/2").unwrap();
        assert!(color.determinate, "{color:?}");
    }

    #[test]
    fn redundant_constant_checks() {
        let src = "
            greet(hello, world).
            main(X) :- greet(hello, X).
        ";
        let (compiled, analysis, _) = analyze(src, "main", &["var"]);
        let report = OptReport::build(&compiled, &analysis);
        let greet = report.preds.iter().find(|p| p.name == "greet/2").unwrap();
        assert!(greet.redundant_const_checks >= 1, "{greet:?}");
    }

    #[test]
    fn specialization_removes_dead_clauses_and_preds() {
        let src = "
            dispatch(1, int_one).
            dispatch(foo, atom_foo).
            dispatch([], empty_list).
            unused(x).
            main(X) :- dispatch(1, X).
        ";
        let (_, analysis, program) = analyze(src, "main", &["var"]);
        let spec = specialize(&program, &analysis);
        assert_eq!(spec.dead_preds, 1, "unused/1 dropped");
        assert!(
            spec.dead_clauses >= 2,
            "atom/list clauses of dispatch are dead: {spec:?}"
        );
        // The residual program still computes the same answer.
        let compiled = wam::compile_program(&spec.program).unwrap();
        let mut machine = wam_machine::Machine::new(&compiled);
        let solution = machine.query_str("main(X)").unwrap().unwrap();
        assert_eq!(solution.binding_str("X").unwrap(), "int_one");
    }

    #[test]
    fn specialization_preserves_benchmark_answers() {
        let src = "
            nrev([], []).
            nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).
            app([], L, L).
            app([H|T], L, [H|R]) :- app(T, L, R).
            dead_helper(1).
        ";
        let (_, analysis, program) = analyze(src, "nrev", &["glist", "var"]);
        let spec = specialize(&program, &analysis);
        assert_eq!(spec.dead_preds, 1);
        assert_eq!(spec.dead_clauses, 0, "all nrev/app clauses reachable");
        let compiled = wam::compile_program(&spec.program).unwrap();
        let mut machine = wam_machine::Machine::new(&compiled);
        let s = machine.query_str("nrev([1, 2, 3], X)").unwrap().unwrap();
        assert_eq!(s.binding_str("X").unwrap(), "[3, 2, 1]");
    }
}
