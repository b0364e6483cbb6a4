//! The WAM instruction set and a Prolog-to-WAM compiler.
//!
//! This crate is the compilation substrate of the `awam` workspace. It
//! replaces the PLM compiler the paper used to produce its input WAM code:
//! [`compile_program`] turns a parsed [`prolog_syntax::Program`] into a
//! [`CompiledProgram`] — a flat instruction vector plus a predicate table —
//! that is executed *unchanged* by both the concrete machine
//! (`wam-machine`) and the abstract analyzer (`awam-core`), mirroring the
//! paper's claim that "the WAM code compiler and the code it generates can
//! be reused without any modification".
//!
//! # Pipeline
//!
//! 1. [`norm`] — control-construct normalization: flattens conjunctions and
//!    lifts `;`, `->` and `\+` into fresh auxiliary predicates;
//! 2. [`classify`] — permanent/temporary variable classification and
//!    register assignment;
//! 3. [`codegen`] — per-clause instruction selection (breadth-first head
//!    compilation, bottom-up body construction, last-call optimization,
//!    cut via `neck_cut`/`get_level`/`cut_level`);
//! 4. [`index`] — clause chaining (`try_me_else`…) and first-argument
//!    indexing (`switch_on_term`, `switch_on_const`, `switch_on_struct`).
//!
//! # Examples
//!
//! ```
//! use prolog_syntax::parse_program;
//! use wam::compile_program;
//!
//! let program = parse_program("app([], L, L). app([H|T], L, [H|R]) :- app(T, L, R).")?;
//! let compiled = compile_program(&program)?;
//! assert_eq!(compiled.predicates.len(), 1);
//! println!("{}", compiled.listing());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod builtins;
pub mod classify;
pub mod codegen;
pub mod compile;
pub mod index;
pub mod instr;
pub mod norm;
pub mod text;

pub use builtins::Builtin;
pub use compile::{compile_program, CompileError, CompiledProgram, PredEntry, PredId};
pub use instr::{CodeAddr, Functor, Instr, PredIdx, Slot, WamConst, NUM_OPCODES, OPCODE_NAMES};
