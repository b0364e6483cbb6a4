//! The [`Interpretation`] trait and the single instruction dispatch.
//!
//! [`step`] contains the only `match` over [`wam::Instr`] on any
//! execution path in the workspace. Data movement — the `get_*`/`put_*`/
//! `unify_*` register and heap traffic, `allocate`/`deallocate` — is
//! identical in both of the paper's interpretations and is handled here
//! inline. The genuine divergence points of §4–§5 are trait methods:
//!
//! | trait method | concrete machine | abstract machine (§4–§5) |
//! |---|---|---|
//! | [`unify`] | syntactic unification | `s_unify` over abstract cells |
//! | [`get_list`]/[`get_structure`] | bind or match | + `ComplexTermInst` (Fig. 4) |
//! | [`call`]/[`execute`] | jump, set continuation | ET consult/insert (Fig. 5) |
//! | [`proceed`] | return through `cont` | clause success (`updateET`) |
//! | [`neck_cut`] etc. | truncate choice stack | `true` (sound) |
//! | [`try_me_else`] etc. | choice points, switches | unreachable (bypassed) |
//!
//! [`unify`]: Interpretation::unify
//! [`get_list`]: Interpretation::get_list
//! [`get_structure`]: Interpretation::get_structure
//! [`call`]: Interpretation::call
//! [`execute`]: Interpretation::execute
//! [`proceed`]: Interpretation::proceed
//! [`neck_cut`]: Interpretation::neck_cut
//! [`try_me_else`]: Interpretation::try_me_else

use crate::cell::CellRepr;
use crate::frame::{Frame, Mode};
use wam::{Builtin, CodeAddr, CompiledProgram, Functor, Instr, PredIdx, WamConst};

/// What the driver loop should do after one dispatched instruction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Flow {
    /// Keep dispatching at the current [`Frame::pc`].
    Continue,
    /// The instruction failed. The concrete driver backtracks; the
    /// abstract driver reports clause failure (the caller forces the next
    /// clause).
    Fail,
    /// Leave the driver loop successfully: top-level success concretely,
    /// clause completion abstractly.
    Done,
}

/// One interpretation of the WAM code: a cell domain plus the semantics
/// of unification, control, and indexing.
///
/// Implementors own a [`Frame`] (exposed through [`Interpretation::frame`]) and any
/// extra state their semantics needs — the concrete machine keeps a
/// choice-point stack, the abstract machine an extension table.
pub trait Interpretation: Sized {
    /// The tagged-word type of this interpretation's heap.
    type Cell: CellRepr;
    /// One trail record; see [`Interpretation::trail_entry`].
    type TrailEntry: std::fmt::Debug;
    /// A runtime error, distinct from goal/clause failure.
    type Error;

    /// The shared machine state.
    fn frame(&self) -> &Frame<Self::Cell, Self::TrailEntry>;
    /// The shared machine state, mutably.
    fn frame_mut(&mut self) -> &mut Frame<Self::Cell, Self::TrailEntry>;

    /// Build the trail record for overwriting `addr`, which held `old`.
    ///
    /// The concrete machine records only the address (undo resets to an
    /// unbound ref); the abstract machine value-trails `(addr, old)`
    /// because instantiation overwrites variable-*like* cells.
    fn trail_entry(addr: usize, old: Self::Cell) -> Self::TrailEntry;

    /// Undo one trail record against the heap.
    fn undo_entry(heap: &mut [Self::Cell], entry: Self::TrailEntry);

    // ----- unification (§4.1) -----

    /// Unify two cells, binding (with trailing) as needed.
    fn unify(&mut self, a: Self::Cell, b: Self::Cell) -> bool;

    /// Unify `arg` with the constant `c` (`get_constant`, and the
    /// read-mode half of `unify_constant`).
    fn get_constant(&mut self, c: WamConst, arg: Self::Cell) -> bool;

    /// `get_list Ai`: match or instantiate a list, setting mode and `S`.
    fn get_list(&mut self, arg: Self::Cell) -> bool;

    /// `get_structure f/n, Ai`: match or instantiate a structure.
    fn get_structure(&mut self, f: Functor, arg: Self::Cell) -> bool;

    /// The subterm cell at structure cursor `s` (read mode).
    ///
    /// The abstract machine overrides this to capture open cells *by
    /// reference*, so later instantiation is visible to all aliases.
    fn read_subterm(&self, s: usize) -> Self::Cell {
        self.frame().heap[s]
    }

    // ----- control (§5) -----

    /// `call p/n`: invoke a predicate with a return continuation.
    fn call(&mut self, pred: PredIdx) -> Result<Flow, Self::Error>;

    /// `execute p/n`: tail-invoke a predicate.
    fn execute(&mut self, pred: PredIdx) -> Result<Flow, Self::Error>;

    /// `proceed`: clause/goal success.
    fn proceed(&mut self) -> Result<Flow, Self::Error>;

    /// `call_builtin b`: the builtin's domain semantics.
    fn builtin(&mut self, b: Builtin) -> Result<Flow, Self::Error>;

    // ----- cut -----

    /// `neck_cut`: discard alternatives of the current predicate.
    fn neck_cut(&mut self) -> bool;
    /// `get_level Yn`: save the cut barrier.
    fn get_level(&mut self, y: u16) -> bool;
    /// `cut_level Yn`: cut back to the saved barrier.
    fn cut_level(&mut self, y: u16) -> bool;

    // ----- clause chaining and indexing -----
    //
    // Followed by the concrete machine, bypassed entirely by the abstract
    // control scheme (clause entries are iterated directly, §5).

    /// `try_me_else L`: push a choice point.
    fn try_me_else(&mut self, alt: CodeAddr) -> Flow;
    /// `retry_me_else L`: update the alternative.
    fn retry_me_else(&mut self, alt: CodeAddr) -> Flow;
    /// `trust_me`: drop the choice point.
    fn trust_me(&mut self) -> Flow;
    /// `try L`: push a choice point and jump.
    fn try_(&mut self, clause: CodeAddr) -> Flow;
    /// `retry L`: update the alternative and jump.
    fn retry(&mut self, clause: CodeAddr) -> Flow;
    /// `trust L`: drop the choice point and jump.
    fn trust(&mut self, clause: CodeAddr) -> Flow;
    /// `switch_on_term`: dispatch on the tag of `A1`.
    fn switch_on_term(
        &mut self,
        var: CodeAddr,
        con: CodeAddr,
        lis: CodeAddr,
        str_: CodeAddr,
    ) -> Flow;
    /// `switch_on_constant`: dispatch on the value of `A1`.
    fn switch_on_constant(&mut self, table: &[(WamConst, CodeAddr)]) -> Flow;
    /// `switch_on_structure`: dispatch on the functor of `A1`.
    fn switch_on_structure(&mut self, table: &[(Functor, CodeAddr)]) -> Flow;
}

/// Bind `heap[addr] = cell`, trailing the overwrite through the
/// interpretation's trail policy.
pub fn bind<I: Interpretation>(m: &mut I, addr: usize, cell: I::Cell) {
    let f = m.frame_mut();
    let entry = I::trail_entry(addr, f.heap[addr]);
    f.trail.push(entry);
    f.heap[addr] = cell;
}

/// Pop and undo trail records down to `mark`.
pub fn unwind_trail<I: Interpretation>(m: &mut I, mark: usize) {
    let f = m.frame_mut();
    while f.trail.len() > mark {
        let entry = f.trail.pop().expect("non-empty trail");
        I::undo_entry(&mut f.heap, entry);
    }
}

/// Fetch, count, and dispatch one instruction — the single `match` over
/// [`wam::Instr`] on the execution path of the whole workspace.
///
/// # Errors
///
/// Propagates the interpretation's own [`Interpretation::Error`] from the
/// control hooks ([`Interpretation::call`], [`Interpretation::builtin`],
/// …); the shared data-movement arms never fail with an error, only with
/// [`Flow::Fail`].
#[allow(clippy::too_many_lines)]
pub fn step<I: Interpretation>(m: &mut I, program: &CompiledProgram) -> Result<Flow, I::Error> {
    let pc = m.frame().pc;
    let instr = &program.code[pc];
    {
        let f = m.frame_mut();
        f.opcodes.hit(instr.opcode_index());
        f.executed += 1;
        f.pc = pc + 1;
    }
    use Instr::*;
    let ok = match instr {
        // ----- get: head-argument matching -----
        &GetVariable(slot, a) => {
            let v = m.frame().x[a as usize];
            m.frame_mut().write_slot(slot, v);
            true
        }
        &GetValue(slot, a) => {
            let v = m.frame().read_slot(slot);
            let arg = m.frame().x[a as usize];
            m.unify(v, arg)
        }
        &GetConstant(c, a) => {
            let arg = m.frame().x[a as usize];
            m.get_constant(c, arg)
        }
        &GetList(a) => {
            let arg = m.frame().x[a as usize];
            m.get_list(arg)
        }
        &GetStructure(f, a) => {
            let arg = m.frame().x[a as usize];
            m.get_structure(f, arg)
        }
        // ----- put: goal-argument construction -----
        &PutVariable(slot, a) => {
            let f = m.frame_mut();
            let addr = f.push_unbound();
            f.write_slot(slot, I::Cell::mk_ref(addr));
            f.x[a as usize] = I::Cell::mk_ref(addr);
            true
        }
        &PutValue(slot, a) => {
            let f = m.frame_mut();
            let v = f.read_slot(slot);
            f.x[a as usize] = v;
            true
        }
        &PutConstant(c, a) => {
            m.frame_mut().x[a as usize] = I::Cell::mk_const(c);
            true
        }
        &PutList(a) => {
            let f = m.frame_mut();
            f.x[a as usize] = I::Cell::mk_lis(f.heap.len());
            f.mode = Mode::Write;
            true
        }
        &PutStructure(fu, a) => {
            let f = m.frame_mut();
            let h = f.heap.len();
            f.heap.push(I::Cell::mk_fun(fu.name, fu.arity));
            f.x[a as usize] = I::Cell::mk_str(h);
            f.mode = Mode::Write;
            true
        }
        // ----- unify: subterm traffic, split by mode -----
        &UnifyVariable(slot) => {
            match m.frame().mode {
                Mode::Read => {
                    let s = m.frame().s;
                    let cell = m.read_subterm(s);
                    let f = m.frame_mut();
                    f.write_slot(slot, cell);
                    f.s += 1;
                }
                Mode::Write => {
                    let f = m.frame_mut();
                    let addr = f.push_unbound();
                    f.write_slot(slot, I::Cell::mk_ref(addr));
                }
            }
            true
        }
        &UnifyValue(slot) => match m.frame().mode {
            Mode::Read => {
                let f = m.frame_mut();
                let v = f.read_slot(slot);
                let s = f.s;
                f.s += 1;
                m.unify(v, I::Cell::mk_ref(s))
            }
            Mode::Write => {
                let f = m.frame_mut();
                let v = f.read_slot(slot);
                f.heap.push(v);
                true
            }
        },
        &UnifyConstant(c) => match m.frame().mode {
            Mode::Read => {
                let f = m.frame_mut();
                let s = f.s;
                f.s += 1;
                m.get_constant(c, I::Cell::mk_ref(s))
            }
            Mode::Write => {
                m.frame_mut().heap.push(I::Cell::mk_const(c));
                true
            }
        },
        &UnifyVoid(n) => {
            let f = m.frame_mut();
            match f.mode {
                Mode::Read => f.s += n as usize,
                Mode::Write => {
                    for _ in 0..n {
                        f.push_unbound();
                    }
                }
            }
            true
        }
        // ----- environments -----
        &Allocate(n) => {
            let f = m.frame_mut();
            let cut = f.b0;
            f.push_env(n, cut);
            true
        }
        &Deallocate => {
            let f = m.frame_mut();
            let e = f.e.expect("deallocate with no environment");
            f.cont = f.envs[e].cont;
            f.e = f.envs[e].prev;
            true
        }
        // ----- control: per-interpretation -----
        &Call(p) => return m.call(p),
        &Execute(p) => return m.execute(p),
        &Proceed => return m.proceed(),
        &CallBuiltin(b) => return m.builtin(b),
        &NeckCut => m.neck_cut(),
        &GetLevel(y) => m.get_level(y),
        &CutLevel(y) => m.cut_level(y),
        // ----- clause chaining and indexing: per-interpretation -----
        &TryMeElse(l) => return Ok(m.try_me_else(l)),
        &RetryMeElse(l) => return Ok(m.retry_me_else(l)),
        &TrustMe => return Ok(m.trust_me()),
        &Try(l) => return Ok(m.try_(l)),
        &Retry(l) => return Ok(m.retry(l)),
        &Trust(l) => return Ok(m.trust(l)),
        &SwitchOnTerm {
            var,
            con,
            lis,
            str_,
        } => {
            return Ok(m.switch_on_term(var, con, lis, str_));
        }
        SwitchOnConstant(table) => return Ok(m.switch_on_constant(table)),
        SwitchOnStructure(table) => return Ok(m.switch_on_structure(table)),
        &Fail => false,
    };
    Ok(if ok { Flow::Continue } else { Flow::Fail })
}
