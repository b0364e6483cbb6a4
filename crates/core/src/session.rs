//! Analysis sessions: a persistent extension table shared across queries.
//!
//! The paper's speed story (§6, Table 1) rests on the extension table
//! memoizing `(calling pattern, success pattern)` pairs. A one-shot
//! [`Analyzer::analyze`] call discards that table when it returns; a
//! [`Session`] keeps it, so that
//!
//! * a query whose entry pattern is **subsumed** by an already-memoized
//!   calling pattern is answered straight from the table — zero fixpoint
//!   iterations, zero abstract instructions (a *warm hit*);
//! * any other query runs the fixpoint **seeded** with the accumulated
//!   entries, re-deriving nothing that is already converged (a *cold
//!   run* that still reuses every memoized callee).
//!
//! # Why reuse is sound
//!
//! Every entry in a session's table at rest is part of a converged
//! fixpoint: its success summary over-approximates every concrete
//! execution of its calling pattern. A new entry goal can only *add*
//! entries or grow summaries (the table evolves monotonically upward), so
//! seeded entries never need revisiting — goal-dependent analyses are
//! precisely reusable across entry goals. For a warm hit with entry
//! pattern `e ⊑ c` for a memoized calling pattern `c`, the table is a
//! sound (if possibly less precise) analysis for `e`, because the
//! concretization of `e` is contained in that of `c`. See DESIGN.md for
//! the full argument.
//!
//! # Examples
//!
//! ```
//! use awam_core::Analyzer;
//! use prolog_syntax::parse_program;
//!
//! let program = parse_program(
//!     "app([], L, L). app([H|T], L, [H|R]) :- app(T, L, R).",
//! )?;
//! let analyzer = Analyzer::compile(&program)?;
//! let mut session = analyzer.session();
//! let cold = session.analyze_query("app", &["glist", "glist", "var"])?;
//! let warm = session.analyze_query("app", &["glist", "glist", "var"])?;
//! assert!(cold.iterations > 0);
//! assert_eq!(warm.iterations, 0, "answered from the memo table");
//! assert_eq!(warm.predicates, cold.predicates);
//! assert_eq!(session.stats().session_warm_hits, 1);
//! assert_eq!(session.stats().session_cold_runs, 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::analyzer::{Analysis, Analyzer};
use crate::machine::AnalysisError;
use crate::table::ExtensionTable;
use absdom::{Pattern, SessionInterner};
use awam_obs::{Json, SessionStats, Tracer};

/// A query session over one compiled [`Analyzer`]: owns the extension
/// table that persists across queries.
///
/// Sessions are cheap to create ([`Analyzer::session`]) and single-
/// threaded by design; for parallelism, give each worker its own session
/// over the same shared analyzer (that is exactly what
/// [`Analyzer::analyze_batch`] does).
#[derive(Debug)]
pub struct Session<'a> {
    analyzer: &'a Analyzer,
    table: ExtensionTable,
    /// Interner the table's pattern ids resolve through. Persists with
    /// the table (ids are only meaningful alongside it) — its lub/leq
    /// memo caches stay warm across queries, like the table's entries.
    interner: SessionInterner,
    stats: SessionStats,
    /// Effective abstract-instruction budget for this session's cold
    /// runs; inherited from the analyzer, overridable per query
    /// ([`Session::set_step_budget`]).
    step_budget: Option<u64>,
}

/// The owned state of a suspended [`Session`]: the persistent extension
/// table, the interner its ids resolve through, and the accumulated
/// counters — everything except the `&Analyzer` borrow.
///
/// This is what makes warm-session *pooling* possible: a serving layer
/// keeps `SessionParts` (which are `'static` and `Send`) in a pool keyed
/// by tenant and program, and rehydrates a [`Session`] around them with
/// [`Session::resume`] for the duration of one request. The struct is
/// opaque on purpose — its table and interner are only meaningful
/// together, and only against the analyzer they were grown on
/// ([`Session::resume`] asserts nothing, so pairing parts with a
/// different program's analyzer is a logic error the caller must
/// prevent, e.g. by keying the pool on the program hash).
#[derive(Debug)]
pub struct SessionParts {
    table: ExtensionTable,
    interner: SessionInterner,
    stats: SessionStats,
}

impl SessionParts {
    /// The accumulated warm/cold counters.
    pub fn stats(&self) -> &SessionStats {
        &self.stats
    }

    /// Number of memo entries currently held (across all predicates).
    pub fn memo_len(&self) -> usize {
        self.table.len()
    }

    /// Rough heap footprint estimate in bytes (memo entries plus
    /// session-local interned patterns), used by pool byte budgets.
    pub fn approx_bytes(&self) -> usize {
        let overlay = self.interner.len() - self.interner.base().len();
        self.table.len() * 64 + overlay * 128
    }

    /// Split into the raw table/interner/stats triple (incremental
    /// migration rebuilds the parts against a new analyzer).
    pub(crate) fn into_inner(self) -> (ExtensionTable, SessionInterner, SessionStats) {
        (self.table, self.interner, self.stats)
    }

    /// The persistent extension table (read-only view for the
    /// incremental layer's reachable-core projection).
    pub(crate) fn table(&self) -> &ExtensionTable {
        &self.table
    }

    /// The session interner the table's pattern ids resolve through.
    pub(crate) fn interner(&self) -> &SessionInterner {
        &self.interner
    }

    /// Mutable interner access (interning a probe pattern).
    pub(crate) fn interner_mut(&mut self) -> &mut SessionInterner {
        &mut self.interner
    }

    /// Session-level subsumption probe against the parked table (needs
    /// the interner's leq cache, hence `&mut self`).
    pub(crate) fn find_subsuming(&mut self, pred: usize, call: absdom::PatternId) -> Option<usize> {
        self.table.find_subsuming(pred, call, &mut self.interner)
    }

    /// Reassemble parts from a raw triple (inverse of
    /// [`SessionParts::into_inner`]).
    pub(crate) fn from_inner(
        table: ExtensionTable,
        interner: SessionInterner,
        stats: SessionStats,
    ) -> SessionParts {
        SessionParts {
            table,
            interner,
            stats,
        }
    }
}

impl<'a> Session<'a> {
    /// Open a session with an empty memo table.
    pub fn new(analyzer: &'a Analyzer) -> Session<'a> {
        Session {
            table: fresh_table(analyzer),
            interner: analyzer.new_session_interner(),
            stats: SessionStats::default(),
            step_budget: analyzer.configured_step_budget(),
            analyzer,
        }
    }

    /// Rehydrate a session from [`SessionParts`] previously suspended
    /// with [`Session::into_parts`]. The parts must have been grown on
    /// an analyzer for the *same compiled program* (same configuration),
    /// or the resolved results will be meaningless.
    pub fn resume(analyzer: &'a Analyzer, parts: SessionParts) -> Session<'a> {
        Session {
            table: parts.table,
            interner: parts.interner,
            stats: parts.stats,
            step_budget: analyzer.configured_step_budget(),
            analyzer,
        }
    }

    /// Suspend this session into its owned parts (dropping the analyzer
    /// borrow) so it can be parked in a pool and later rehydrated with
    /// [`Session::resume`].
    pub fn into_parts(self) -> SessionParts {
        SessionParts {
            table: self.table,
            interner: self.interner,
            stats: self.stats,
        }
    }

    /// Override the abstract-instruction budget for this session's
    /// subsequent cold runs (`None` = unbounded). Warm hits never spend
    /// instructions, so the budget only gates fixpoint work.
    pub fn set_step_budget(&mut self, budget: Option<u64>) {
        self.step_budget = budget;
    }

    /// The analyzer this session queries.
    pub fn analyzer(&self) -> &'a Analyzer {
        self.analyzer
    }

    /// Warm/cold counters accumulated by this session.
    pub fn stats(&self) -> &SessionStats {
        &self.stats
    }

    /// Number of memo entries currently held (across all predicates).
    pub fn memo_len(&self) -> usize {
        self.table.len()
    }

    /// Pattern-interner counters accumulated by this session (dedup
    /// hits/misses, lub/leq memo-cache behavior, bytes saved).
    pub fn intern_stats(&self) -> &awam_obs::InternStats {
        self.interner.stats()
    }

    /// The session counters as one JSON document (the `SessionStats`
    /// fields plus the current memo-table size and interner counters).
    pub fn stats_json(&self) -> Json {
        let Json::Obj(mut pairs) = self.stats.to_json() else {
            unreachable!("SessionStats::to_json returns an object");
        };
        pairs.push(("memo_entries".to_owned(), Json::Int(self.memo_len() as i64)));
        pairs.push(("interner".to_owned(), self.interner.stats().to_json()));
        Json::Obj(pairs)
    }

    /// Drop all memoized entries, interned patterns, and counters, as if
    /// freshly created.
    pub fn reset(&mut self) {
        self.table = fresh_table(self.analyzer);
        self.interner = self.analyzer.new_session_interner();
        self.stats = SessionStats::default();
    }

    /// Analyze from `name` with the given entry calling pattern,
    /// consulting and extending the persistent table.
    ///
    /// A warm hit returns an [`Analysis`] with `iterations == 0` whose
    /// `predicates` reflect the session's whole accumulated table (a
    /// sound over-approximation for the queried goal). A cold run seeds
    /// the fixpoint with the accumulated table and persists the grown
    /// table for the next query.
    ///
    /// # Errors
    ///
    /// Same as [`Analyzer::analyze`]. After a resource-bound error the
    /// memo table is discarded (a partially-explored table must not serve
    /// later queries).
    pub fn analyze(&mut self, name: &str, entry: &Pattern) -> Result<Analysis, AnalysisError> {
        self.analyze_with(name, entry, None)
    }

    /// Like [`Session::analyze`], but streaming machine events into
    /// `tracer` (warm hits emit no events: no machine runs).
    ///
    /// # Errors
    ///
    /// Same as [`Session::analyze`].
    pub fn analyze_traced(
        &mut self,
        name: &str,
        entry: &Pattern,
        tracer: &mut dyn Tracer,
    ) -> Result<Analysis, AnalysisError> {
        self.analyze_with(name, entry, Some(tracer))
    }

    /// Analyze with an entry pattern given as spec strings (see
    /// [`Pattern::from_spec`]).
    ///
    /// # Errors
    ///
    /// [`AnalysisError::BadSpec`] for unknown specs, plus everything
    /// [`Session::analyze`] returns.
    pub fn analyze_query(&mut self, name: &str, specs: &[&str]) -> Result<Analysis, AnalysisError> {
        let entry =
            Pattern::from_spec(specs).ok_or_else(|| AnalysisError::BadSpec(specs.join(", ")))?;
        self.analyze(name, &entry)
    }

    /// Apply a clause-level edit to this session's program and carry the
    /// memo table across: entries that transitively depend on a changed
    /// predicate are invalidated and re-derived by a seeded re-fixpoint,
    /// everything else survives untouched. Consumes the session (the new
    /// program needs a new compiled analyzer, which the borrowed `'a`
    /// analyzer cannot become) and returns an owning
    /// [`crate::incremental::Workspace`] positioned on the edited
    /// program.
    ///
    /// `source` must be the source text this session's analyzer was
    /// compiled from — the same pairing contract as [`Session::resume`].
    ///
    /// # Errors
    ///
    /// [`crate::incremental::UpdateError`] when the edit does not apply,
    /// the edited program fails to parse or compile, or the re-fixpoint
    /// hits a resource bound.
    pub fn update_program(
        self,
        source: &str,
        edit: &crate::incremental::ProgramEdit,
    ) -> Result<crate::incremental::Workspace, crate::incremental::UpdateError> {
        let builder = self.analyzer.config_builder();
        let budget = self.step_budget;
        let parts = self.into_parts();
        let mut workspace = crate::incremental::Workspace::resume(builder, source, parts, budget)?;
        workspace.apply_edit(edit)?;
        Ok(workspace)
    }

    fn analyze_with(
        &mut self,
        name: &str,
        entry: &Pattern,
        tracer: Option<&mut dyn Tracer>,
    ) -> Result<Analysis, AnalysisError> {
        let (pred, entry) = self.analyzer.resolve_entry(name, entry)?;
        let entry_id = self.interner.intern(entry.clone());
        if self
            .table
            .find_subsuming(pred, entry_id, &mut self.interner)
            .is_some()
        {
            self.stats.session_warm_hits += 1;
            return Ok(self
                .analyzer
                .analysis_from_table(&self.table, &self.interner));
        }
        self.stats.session_cold_runs += 1;
        let before = self.table.len() as u64;
        self.stats.entries_reused += before;
        let seed_table = std::mem::replace(&mut self.table, fresh_table(self.analyzer));
        let seed_interner =
            std::mem::replace(&mut self.interner, self.analyzer.new_session_interner());
        match self.analyzer.run_fixpoint(
            pred,
            &entry,
            Some((seed_table, seed_interner)),
            tracer,
            self.step_budget,
        ) {
            Ok((analysis, table, interner)) => {
                self.stats.entries_created += (table.len() as u64).saturating_sub(before);
                self.table = table;
                self.interner = interner;
                Ok(analysis)
            }
            // The replacement table/interner installed above are already
            // fresh, so the partially-explored seed is dropped with the
            // error.
            Err(e) => Err(e),
        }
    }
}

fn fresh_table(analyzer: &Analyzer) -> ExtensionTable {
    let mut table = ExtensionTable::new(analyzer.program().predicates.len());
    if analyzer.provenance_enabled() {
        table.enable_provenance();
    }
    table
}
