//! Top-level compilation: normalize, classify, generate and link.

use crate::codegen::{compile_clause, CodegenError};
use crate::index::{emit_predicate, first_arg_class, FirstArg};
use crate::instr::{CodeAddr, Instr};
use crate::norm::{normalize_program, NormError};
use prolog_syntax::{Interner, PredKey, Program};
use std::collections::HashMap;
use std::fmt;

/// Index of a predicate in [`CompiledProgram::predicates`].
pub type PredId = usize;

/// An error produced by [`compile_program`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CompileError {
    /// Clause normalization failed.
    Norm(NormError),
    /// Code generation failed.
    Codegen(CodegenError),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Norm(e) => write!(f, "{e}"),
            CompileError::Codegen(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CompileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CompileError::Norm(e) => Some(e),
            CompileError::Codegen(e) => Some(e),
        }
    }
}

impl From<NormError> for CompileError {
    fn from(e: NormError) -> Self {
        CompileError::Norm(e)
    }
}

impl From<CodegenError> for CompileError {
    fn from(e: CodegenError) -> Self {
        CompileError::Codegen(e)
    }
}

/// One predicate in the compiled code area.
#[derive(Debug, Clone)]
pub struct PredEntry {
    /// The predicate's name/arity.
    pub key: PredKey,
    /// Entry address used by the concrete machine (indexing included).
    pub entry: CodeAddr,
    /// Per-clause body entry addresses, in source order; the abstract
    /// machine's `call` reinterpretation iterates these directly.
    pub clause_entries: Vec<CodeAddr>,
}

impl PredEntry {
    /// Number of clauses.
    pub fn num_clauses(&self) -> usize {
        self.clause_entries.len()
    }
}

/// A compiled program: one flat code area plus the predicate table.
///
/// The same `CompiledProgram` is executed by the concrete machine
/// (`wam-machine`) and reinterpreted by the abstract analyzer
/// (`awam-core`).
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    /// The instruction area.
    pub code: Vec<Instr>,
    /// Predicate table; [`Instr::Call`]/[`Instr::Execute`] operands index
    /// into it.
    pub predicates: Vec<PredEntry>,
    /// Lookup from name/arity to predicate id.
    pub pred_map: HashMap<PredKey, PredId>,
    /// Interner covering every symbol in the code (including auxiliary
    /// predicates invented during normalization).
    pub interner: Interner,
}

impl CompiledProgram {
    /// Look up a predicate by source name and arity.
    pub fn predicate(&self, name: &str, arity: usize) -> Option<PredId> {
        let sym = self.interner.lookup(name)?;
        self.pred_map.get(&PredKey { name: sym, arity }).copied()
    }

    /// Static code size in instructions (the `Size` column of Table 1).
    pub fn code_size(&self) -> usize {
        self.code.len()
    }

    /// A human-readable assembly listing.
    pub fn listing(&self) -> String {
        let mut by_entry: Vec<(CodeAddr, &PredEntry)> =
            self.predicates.iter().map(|p| (p.entry, p)).collect();
        by_entry.sort_by_key(|(addr, _)| *addr);
        let mut starts: HashMap<CodeAddr, String> = HashMap::new();
        for pred in &self.predicates {
            let min = pred
                .clause_entries
                .iter()
                .copied()
                .chain([pred.entry])
                .min()
                .expect("non-empty");
            starts.insert(min, pred.key.display(&self.interner));
        }
        let mut out = String::new();
        for (addr, instr) in self.code.iter().enumerate() {
            if let Some(name) = starts.get(&addr) {
                out.push_str(&format!("\n{name}:\n"));
            }
            out.push_str(&format!("  {addr:4}  {}\n", instr.display(&self.interner)));
        }
        out
    }
}

/// Compile a parsed program to WAM code.
///
/// # Errors
///
/// Returns [`CompileError`] for non-callable goals or calls to undefined
/// predicates.
///
/// # Examples
///
/// ```
/// let program = prolog_syntax::parse_program("p(0). p(s(X)) :- p(X).")?;
/// let compiled = wam::compile_program(&program)?;
/// assert!(compiled.predicate("p", 1).is_some());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn compile_program(program: &Program) -> Result<CompiledProgram, CompileError> {
    let norm = normalize_program(program)?;
    let mut pred_map: HashMap<PredKey, PredId> = HashMap::new();
    for (i, (key, _)) in norm.predicates.iter().enumerate() {
        pred_map.insert(*key, i);
    }
    let mut code = Vec::new();
    let mut predicates = Vec::new();
    for (key, clauses) in &norm.predicates {
        let blocks: Vec<Vec<Instr>> = clauses
            .iter()
            .map(|c| compile_clause(c, &pred_map, &norm.interner))
            .collect::<Result<_, _>>()?;
        let first_args: Vec<FirstArg> = clauses
            .iter()
            .map(|c| first_arg_class(c, &norm.interner))
            .collect();
        let pc = emit_predicate(&mut code, blocks, &first_args);
        predicates.push(PredEntry {
            key: *key,
            entry: pc.entry,
            clause_entries: pc.clause_entries,
        });
    }
    Ok(CompiledProgram {
        code,
        predicates,
        pred_map,
        interner: norm.interner,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use prolog_syntax::parse_program;

    fn compile(src: &str) -> CompiledProgram {
        compile_program(&parse_program(src).unwrap()).unwrap()
    }

    #[test]
    fn append_compiles() {
        let c = compile("app([], L, L). app([H|T], L, [H|R]) :- app(T, L, R).");
        assert_eq!(c.predicates.len(), 1);
        let p = c.predicate("app", 3).unwrap();
        assert_eq!(c.predicates[p].num_clauses(), 2);
        assert!(c.code_size() > 5);
    }

    #[test]
    fn recursive_call_resolves_to_self() {
        let c = compile("loop(X) :- loop(X).");
        let p = c.predicate("loop", 1).unwrap();
        assert!(c
            .code
            .iter()
            .any(|i| matches!(i, Instr::Execute(t) if *t == p)));
    }

    #[test]
    fn undefined_predicate_reported() {
        let program = parse_program("p :- missing(1).").unwrap();
        let err = compile_program(&program).unwrap_err();
        assert!(matches!(err, CompileError::Codegen(_)));
        assert!(err.to_string().contains("missing/1"));
    }

    #[test]
    fn aux_predicates_compiled_too() {
        let c = compile("p(X) :- (q(X) ; r(X)). q(1). r(2).");
        assert_eq!(c.predicates.len(), 4);
        // The aux predicate must be reachable via a call from p/1.
        let p = c.predicate("p", 1).unwrap();
        let entry = c.predicates[p].entry;
        let has_call = c.code[entry..]
            .iter()
            .take(10)
            .any(|i| matches!(i, Instr::Call(_) | Instr::Execute(_)));
        assert!(has_call);
    }

    #[test]
    fn listing_renders() {
        let c = compile("nrev([], []). nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R). app([], L, L). app([H|T], L, [H|R]) :- app(T, L, R).");
        let listing = c.listing();
        assert!(listing.contains("nrev/2:"), "{listing}");
        assert!(listing.contains("app/3:"), "{listing}");
        assert!(listing.contains("switch_on_term"), "{listing}");
    }

    #[test]
    fn code_size_counts_instructions() {
        let c = compile("p(a).");
        assert_eq!(c.code_size(), c.code.len());
    }
}
