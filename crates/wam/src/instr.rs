//! The WAM instruction set.
//!
//! The set follows Warren's 1983 classification into `get`, `put`, `unify`,
//! procedural and indexing instructions, with two small, documented
//! deviations from the original design:
//!
//! * `put_variable Yn` allocates the fresh cell on the **heap** (not the
//!   environment), so no variable is ever "unsafe" and `put_unsafe_value` /
//!   `unify_local_value` are unnecessary;
//! * `[]` is an ordinary constant (`get_constant`/`unify_constant` handle
//!   it), so there are no dedicated `*_nil` instructions.

use prolog_syntax::{Interner, Symbol};
use std::fmt;

/// A register operand: temporary (`X`, shared with argument registers) or
/// permanent (`Y`, in the current environment).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Slot {
    /// Temporary/argument register `Xn` (0-based; `A1` is `X0`).
    X(u16),
    /// Permanent register `Yn` in the current environment (0-based).
    Y(u16),
}

impl fmt::Display for Slot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Slot::X(n) => write!(f, "X{}", n + 1),
            Slot::Y(n) => write!(f, "Y{}", n + 1),
        }
    }
}

/// A functor: name plus arity.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Functor {
    /// Functor name.
    pub name: Symbol,
    /// Number of arguments (always ≥ 1 in instructions).
    pub arity: u16,
}

impl Functor {
    /// Render as `name/arity`.
    pub fn display(&self, interner: &Interner) -> String {
        format!("{}/{}", interner.resolve(self.name), self.arity)
    }
}

/// A constant operand.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum WamConst {
    /// An atom (including `[]`).
    Atom(Symbol),
    /// An integer.
    Int(i64),
}

impl WamConst {
    /// Render using `interner` for atom names.
    pub fn display(&self, interner: &Interner) -> String {
        match self {
            WamConst::Atom(a) => interner.resolve(*a).to_owned(),
            WamConst::Int(i) => i.to_string(),
        }
    }
}

/// Index of a predicate in the [`crate::CompiledProgram`] predicate table.
pub type PredIdx = usize;

/// A resolved code address.
pub type CodeAddr = usize;

/// One WAM instruction.
///
/// Argument-register operands are raw `u16` X-register indices (0-based).
#[derive(Clone, PartialEq, Debug)]
pub enum Instr {
    // ----- get (head argument) instructions -----
    /// `get_variable Vn, Ai` — store `Ai` into fresh variable slot.
    GetVariable(Slot, u16),
    /// `get_value Vn, Ai` — unify `Vn` with `Ai`.
    GetValue(Slot, u16),
    /// `get_constant c, Ai`.
    GetConstant(WamConst, u16),
    /// `get_list Ai`.
    GetList(u16),
    /// `get_structure f/n, Ai`.
    GetStructure(Functor, u16),

    // ----- put (body argument) instructions -----
    /// `put_variable Vn, Ai` — fresh unbound cell into both.
    PutVariable(Slot, u16),
    /// `put_value Vn, Ai`.
    PutValue(Slot, u16),
    /// `put_constant c, Ai`.
    PutConstant(WamConst, u16),
    /// `put_list Ai` — begin writing a cons cell, args follow as `unify_*`.
    PutList(u16),
    /// `put_structure f/n, Ai`.
    PutStructure(Functor, u16),

    // ----- unify (subterm) instructions -----
    /// `unify_variable Vn`.
    UnifyVariable(Slot),
    /// `unify_value Vn`.
    UnifyValue(Slot),
    /// `unify_constant c`.
    UnifyConstant(WamConst),
    /// `unify_void n` — skip/write `n` anonymous subterms.
    UnifyVoid(u16),

    // ----- procedural instructions -----
    /// `allocate n` — push an environment with `n` permanent slots.
    Allocate(u16),
    /// `deallocate` — pop the current environment.
    Deallocate,
    /// `call p/n` — invoke a user predicate.
    Call(PredIdx),
    /// `execute p/n` — tail-call a user predicate.
    Execute(PredIdx),
    /// `proceed` — return from a fact/chain clause.
    Proceed,
    /// Invoke an inline builtin with arguments in `A1..An`.
    CallBuiltin(crate::builtins::Builtin),

    // ----- cut -----
    /// `neck_cut` — discard choice points created since the call.
    NeckCut,
    /// `get_level Yn` — save the cut barrier into `Yn`.
    GetLevel(u16),
    /// `cut Yn` — cut back to the barrier saved in `Yn`.
    CutLevel(u16),

    // ----- indexing instructions -----
    /// `try_me_else L` — push a choice point; on failure resume at `L`.
    TryMeElse(CodeAddr),
    /// `retry_me_else L` — update the alternative of the current choice point.
    RetryMeElse(CodeAddr),
    /// `trust_me` — pop the current choice point.
    TrustMe,
    /// `try L` — push a choice point (alternative = next instruction), jump to `L`.
    Try(CodeAddr),
    /// `retry L` — update alternative to next instruction, jump to `L`.
    Retry(CodeAddr),
    /// `trust L` — pop the choice point, jump to `L`.
    Trust(CodeAddr),
    /// `switch_on_term Lv, Lc, Ll, Ls` — dispatch on the tag of `A1`.
    SwitchOnTerm {
        /// Where to go when `A1` is unbound.
        var: CodeAddr,
        /// Where to go for constants.
        con: CodeAddr,
        /// Where to go for cons cells.
        lis: CodeAddr,
        /// Where to go for other structures.
        str_: CodeAddr,
    },
    /// `switch_on_constant` — second-level dispatch on a constant value.
    SwitchOnConstant(Vec<(WamConst, CodeAddr)>),
    /// `switch_on_structure` — second-level dispatch on a functor.
    SwitchOnStructure(Vec<(Functor, CodeAddr)>),
    /// Unconditional failure (backtrack).
    Fail,
}

/// Number of distinct opcodes in [`Instr`].
pub const NUM_OPCODES: usize = 33;

/// Opcode mnemonics, indexed by [`Instr::opcode_index`].
pub const OPCODE_NAMES: [&str; NUM_OPCODES] = [
    "get_variable",
    "get_value",
    "get_constant",
    "get_list",
    "get_structure",
    "put_variable",
    "put_value",
    "put_constant",
    "put_list",
    "put_structure",
    "unify_variable",
    "unify_value",
    "unify_constant",
    "unify_void",
    "allocate",
    "deallocate",
    "call",
    "execute",
    "proceed",
    "call_builtin",
    "neck_cut",
    "get_level",
    "cut",
    "try_me_else",
    "retry_me_else",
    "trust_me",
    "try",
    "retry",
    "trust",
    "switch_on_term",
    "switch_on_constant",
    "switch_on_structure",
    "fail",
];

impl Instr {
    /// A dense opcode index in `0..NUM_OPCODES`, ignoring operands.
    /// [`OPCODE_NAMES`] maps it back to the mnemonic.
    pub fn opcode_index(&self) -> usize {
        use Instr::*;
        match self {
            GetVariable(..) => 0,
            GetValue(..) => 1,
            GetConstant(..) => 2,
            GetList(..) => 3,
            GetStructure(..) => 4,
            PutVariable(..) => 5,
            PutValue(..) => 6,
            PutConstant(..) => 7,
            PutList(..) => 8,
            PutStructure(..) => 9,
            UnifyVariable(..) => 10,
            UnifyValue(..) => 11,
            UnifyConstant(..) => 12,
            UnifyVoid(..) => 13,
            Allocate(..) => 14,
            Deallocate => 15,
            Call(..) => 16,
            Execute(..) => 17,
            Proceed => 18,
            CallBuiltin(..) => 19,
            NeckCut => 20,
            GetLevel(..) => 21,
            CutLevel(..) => 22,
            TryMeElse(..) => 23,
            RetryMeElse(..) => 24,
            TrustMe => 25,
            Try(..) => 26,
            Retry(..) => 27,
            Trust(..) => 28,
            SwitchOnTerm { .. } => 29,
            SwitchOnConstant(..) => 30,
            SwitchOnStructure(..) => 31,
            Fail => 32,
        }
    }

    /// Display the instruction with symbolic names resolved.
    pub fn display(&self, interner: &Interner) -> String {
        use Instr::*;
        match self {
            GetVariable(v, a) => format!("get_variable {v}, A{}", a + 1),
            GetValue(v, a) => format!("get_value {v}, A{}", a + 1),
            GetConstant(c, a) => format!("get_constant {}, A{}", c.display(interner), a + 1),
            GetList(a) => format!("get_list A{}", a + 1),
            GetStructure(f, a) => {
                format!("get_structure {}, A{}", f.display(interner), a + 1)
            }
            PutVariable(v, a) => format!("put_variable {v}, A{}", a + 1),
            PutValue(v, a) => format!("put_value {v}, A{}", a + 1),
            PutConstant(c, a) => format!("put_constant {}, A{}", c.display(interner), a + 1),
            PutList(a) => format!("put_list A{}", a + 1),
            PutStructure(f, a) => {
                format!("put_structure {}, A{}", f.display(interner), a + 1)
            }
            UnifyVariable(v) => format!("unify_variable {v}"),
            UnifyValue(v) => format!("unify_value {v}"),
            UnifyConstant(c) => format!("unify_constant {}", c.display(interner)),
            UnifyVoid(n) => format!("unify_void {n}"),
            Allocate(n) => format!("allocate {n}"),
            Deallocate => "deallocate".into(),
            Call(p) => format!("call pred#{p}"),
            Execute(p) => format!("execute pred#{p}"),
            Proceed => "proceed".into(),
            CallBuiltin(b) => format!("builtin {b}"),
            NeckCut => "neck_cut".into(),
            GetLevel(y) => format!("get_level Y{}", y + 1),
            CutLevel(y) => format!("cut Y{}", y + 1),
            TryMeElse(l) => format!("try_me_else {l}"),
            RetryMeElse(l) => format!("retry_me_else {l}"),
            TrustMe => "trust_me".into(),
            Try(l) => format!("try {l}"),
            Retry(l) => format!("retry {l}"),
            Trust(l) => format!("trust {l}"),
            SwitchOnTerm {
                var,
                con,
                lis,
                str_,
            } => {
                format!("switch_on_term {var}, {con}, {lis}, {str_}")
            }
            SwitchOnConstant(table) => {
                let entries: Vec<String> = table
                    .iter()
                    .map(|(c, l)| format!("{}→{l}", c.display(interner)))
                    .collect();
                format!("switch_on_constant [{}]", entries.join(", "))
            }
            SwitchOnStructure(table) => {
                let entries: Vec<String> = table
                    .iter()
                    .map(|(f, l)| format!("{}→{l}", f.display(interner)))
                    .collect();
                format!("switch_on_structure [{}]", entries.join(", "))
            }
            Fail => "fail".into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opcode_indices_are_dense_and_named() {
        let samples = [
            (Instr::GetVariable(Slot::X(0), 0), "get_variable"),
            (Instr::Proceed, "proceed"),
            (Instr::SwitchOnConstant(Vec::new()), "switch_on_constant"),
            (Instr::Fail, "fail"),
        ];
        for (instr, name) in samples {
            let idx = instr.opcode_index();
            assert!(idx < NUM_OPCODES);
            assert_eq!(OPCODE_NAMES[idx], name);
        }
        assert_eq!(Instr::Fail.opcode_index(), NUM_OPCODES - 1);
    }

    #[test]
    fn slot_display_is_one_based() {
        assert_eq!(Slot::X(0).to_string(), "X1");
        assert_eq!(Slot::Y(2).to_string(), "Y3");
    }

    #[test]
    fn instruction_display() {
        let mut interner = Interner::new();
        let f = Functor {
            name: interner.intern("foo"),
            arity: 2,
        };
        assert_eq!(
            Instr::GetStructure(f, 0).display(&interner),
            "get_structure foo/2, A1"
        );
        assert_eq!(
            Instr::GetVariable(Slot::X(3), 1).display(&interner),
            "get_variable X4, A2"
        );
        assert_eq!(
            Instr::UnifyConstant(WamConst::Int(7)).display(&interner),
            "unify_constant 7"
        );
    }
}
