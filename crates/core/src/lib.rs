//! # awam-core — the abstract WAM dataflow analyzer
//!
//! This crate is the primary contribution of the reproduced paper,
//! *Compiling Dataflow Analysis of Logic Programs* (Tan & Lin, PLDI 1992):
//! a global dataflow analyzer (mode, type, and variable-aliasing
//! inference) that runs as a **reinterpretation of the WAM instruction
//! set** over an abstract domain, instead of as a meta-interpreter or a
//! transformed program hosted on Prolog.
//!
//! The key pieces map one-to-one onto the paper:
//!
//! | Paper | Here |
//! |---|---|
//! | §3 abstract domain | [`absdom`] (shared crate) |
//! | §4.1 abstract terms as variables | [`acell::ACell::Abs`], value-trailed instantiation |
//! | §4.2 reinterpreted `get_list` (Figure 4) | [`machine`] `get_list` |
//! | §5 reinterpreted `call`/`proceed` (Figure 5) | [`machine`] `solve_call` |
//! | §6 extension table as linear list | [`table::ExtensionTable`] |
//! | term-depth restriction k = 4 | [`absdom::DEFAULT_TERM_DEPTH`] |
//!
//! # Quickstart
//!
//! ```
//! use awam_core::Analyzer;
//! use prolog_syntax::parse_program;
//!
//! let program = parse_program("
//!     nrev([], []).
//!     nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).
//!     app([], L, L).
//!     app([H|T], L, [H|R]) :- app(T, L, R).
//! ")?;
//! let analyzer = Analyzer::compile(&program)?;
//! let analysis = analyzer.analyze_query("nrev", &["glist", "var"])?;
//! println!("{}", analysis.report(&analyzer));
//! // The analyzer infers that nrev/2 maps a ground list to a ground list:
//! let nrev = analysis.predicate("nrev", 2).unwrap();
//! let success = nrev.success_summary().unwrap();
//! assert!(success.node_is_ground(success.root(1)));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! # Sessions and batch analysis
//!
//! [`Analyzer::analyze`] takes `&self`: a compiled analyzer is immutable
//! and can serve many queries, from many threads, concurrently. Two
//! layers build on that:
//!
//! * [`Session`] keeps the extension table alive across queries, so a
//!   repeated (or subsumed) entry goal is answered from the memo table
//!   with **zero** fixpoint iterations;
//! * [`Analyzer::analyze_batch`] fans independent entry goals out across
//!   std scoped threads, one private [`Session`] per goal.
//!
//! ```
//! use awam_core::{Analyzer, BatchGoal};
//! use prolog_syntax::parse_program;
//!
//! let program = parse_program(
//!     "app([], L, L). app([H|T], L, [H|R]) :- app(T, L, R).",
//! )?;
//! let analyzer = Analyzer::compile(&program)?;
//! let goals = vec![
//!     BatchGoal::from_spec("app", &["glist", "glist", "var"])?,
//!     BatchGoal::from_spec("app", &["var", "var", "glist"])?,
//! ];
//! let results = analyzer.analyze_batch(&goals, 2);
//! assert!(results.iter().all(Result::is_ok));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod acell;
pub mod analyzer;
pub mod batch;
pub mod extract;
pub mod fault;
pub mod incremental;
pub mod machine;
pub mod provenance;
pub mod report;
pub mod session;
pub mod table;

pub use acell::ACell;
pub use analyzer::{Analysis, Analyzer, AnalyzerBuilder, BatchGoal, PredAnalysis, ProfileData};
pub use batch::par_map;
pub use incremental::{migrate_parts, EditError, ProgramDiff, ProgramEdit, UpdateError, Workspace};
pub use machine::{AbstractMachine, AnalysisError};
pub use provenance::{ChainStep, DerivationReport, EntryDerivation, PredDerivations};
pub use report::ArgMode;
pub use session::{Session, SessionParts};
pub use table::{Derivation, DerivationOrigin, ExtensionTable, LubStep};

/// A stable 64-bit fingerprint of a program's source text (FNV-1a).
///
/// This is the cache key of the serving layer's compiled-program cache:
/// two registrations with byte-identical source share one compiled
/// [`Analyzer`]. The hash is deterministic across processes and
/// platforms (no per-process seed), so it can appear on the wire and in
/// logs. It is **not** collision-resistant against adversarial input;
/// a serving deployment that cannot trust its tenants should key on
/// `(tenant, fingerprint)` or verify source equality on hit.
pub fn program_fingerprint(source: &str) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    for &byte in source.as_bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// How the global fixpoint iteration re-explores the program.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum IterationStrategy {
    /// The paper's scheme: every iteration restarts from the entry goal
    /// and re-explores every reached calling pattern.
    #[default]
    GlobalRestart,
    /// Semi-naive refinement (the "better algorithms" the paper's §6
    /// anticipates): each entry records which table entries its last
    /// exploration read; when none of them changed, re-exploration is
    /// skipped — the result is provably identical (tested).
    Dependency,
}
