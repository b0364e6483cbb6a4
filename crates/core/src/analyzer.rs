//! The public analysis API: builder → immutable analyzer → session.
//!
//! The API has three layers:
//!
//! * [`AnalyzerBuilder`] holds the knobs (term depth, domain
//!   restriction, iteration strategy, profiling) and produces a compiled
//!   [`Analyzer`];
//! * [`Analyzer`] is **immutable**: [`Analyzer::analyze`] takes `&self`,
//!   so one compiled analyzer can serve many queries — and many threads
//!   ([`Analyzer::analyze_batch`]) — concurrently;
//! * [`crate::Session`] owns a persistent extension table that survives
//!   across queries, answering repeat queries from the memo table with
//!   zero fixpoint iterations.

use crate::machine::{AbstractMachine, AnalysisError};
use crate::provenance::DerivationReport;
use crate::table::{Entry, ExtensionTable};
use crate::{IterationStrategy, Session};
use absdom::{
    AbsLeaf, DomainConfig, Pattern, PatternInterner, SessionInterner, DEFAULT_TERM_DEPTH,
};
use awam_obs::{
    InternStats, Json, MachineStats, MetricsRegistry, OpcodeCounts, SpanProfiler, Stopwatch,
    TableStats, Tracer,
};
use prolog_syntax::Program;
use std::sync::Arc;
use wam::{compile_program, CompileError, CompiledProgram};

/// Configuration for building an [`Analyzer`]: the ablation knobs of the
/// reproduction, collected before compilation so the produced analyzer
/// can stay immutable (and therefore shareable across threads).
///
/// # Examples
///
/// ```
/// use awam_core::{Analyzer, IterationStrategy};
/// use prolog_syntax::parse_program;
///
/// let program = parse_program(
///     "app([], L, L). app([H|T], L, [H|R]) :- app(T, L, R).",
/// )?;
/// let analyzer = Analyzer::builder()
///     .depth(4)
///     .strategy(IterationStrategy::Dependency)
///     .compile(&program)?;
/// let analysis = analyzer.analyze_query("app", &["glist", "glist", "var"])?;
/// assert_eq!(analysis.predicates[0].name, "app/3");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Copy, Debug)]
pub struct AnalyzerBuilder {
    depth_k: usize,
    config: DomainConfig,
    strategy: IterationStrategy,
    profile_timing: bool,
    provenance: bool,
    step_budget: Option<u64>,
}

impl Default for AnalyzerBuilder {
    /// The paper's settings: term depth 4, full domain, global-restart
    /// fixpoint, no profiling, no provenance.
    fn default() -> Self {
        AnalyzerBuilder {
            depth_k: DEFAULT_TERM_DEPTH,
            config: DomainConfig::FULL,
            strategy: IterationStrategy::GlobalRestart,
            profile_timing: false,
            provenance: false,
            step_budget: None,
        }
    }
}

impl AnalyzerBuilder {
    /// A builder with the paper's default settings.
    pub fn new() -> AnalyzerBuilder {
        AnalyzerBuilder::default()
    }

    /// Set the term-depth restriction `k` (ablation A).
    #[must_use]
    pub fn depth(mut self, depth_k: usize) -> AnalyzerBuilder {
        self.depth_k = depth_k;
        self
    }

    /// Restrict the abstract domain (ablation C: precision vs. time).
    #[must_use]
    pub fn domain_config(mut self, config: DomainConfig) -> AnalyzerBuilder {
        self.config = config;
        self
    }

    /// Choose the fixpoint iteration strategy (ablation D).
    #[must_use]
    pub fn strategy(mut self, strategy: IterationStrategy) -> AnalyzerBuilder {
        self.strategy = strategy;
        self
    }

    /// Enable fine-grained profiling: extraction/materialization/table
    /// nanosecond counters and the per-predicate time breakdown. Off by
    /// default because it reads the clock inside the analysis hot path.
    #[must_use]
    pub fn profiling(mut self, on: bool) -> AnalyzerBuilder {
        self.profile_timing = on;
        self
    }

    /// Enable derivation tracking: every extension-table entry records
    /// the clause, iteration, and parent call that created it, plus the
    /// chain of lub inputs that widened its success summary (surfaced as
    /// [`Analysis::provenance`]). Zero cost when off: the table's
    /// derivation store is never allocated and the machine's recording
    /// hooks reduce to one predictable branch, so reports and traces are
    /// byte-identical with and without the flag (the testkit `provenance` oracle).
    #[must_use]
    pub fn provenance(mut self, on: bool) -> AnalyzerBuilder {
        self.provenance = on;
        self
    }

    /// Cap every analysis run at `budget` abstract instructions; a run
    /// that crosses the cap aborts with
    /// [`AnalysisError::BudgetExceeded`].
    /// `None` (the default) leaves only the fixed safety rails. The
    /// serving layer uses this as a per-request deadline: shed work that
    /// will not finish instead of letting it starve the queue. The
    /// budget is checked at call and fixpoint-round boundaries, so the
    /// dispatch loop pays nothing for it.
    #[must_use]
    pub fn step_budget(mut self, budget: Option<u64>) -> AnalyzerBuilder {
        self.step_budget = budget;
        self
    }

    /// Compile `program` into an analyzer with this configuration.
    ///
    /// # Errors
    ///
    /// Propagates [`CompileError`] from the WAM compiler.
    pub fn compile(&self, program: &Program) -> Result<Analyzer, CompileError> {
        let watch = Stopwatch::start();
        let compiled = compile_program(program)?;
        let compile_ns = watch.elapsed_ns();
        let mut analyzer = self.build(compiled);
        analyzer.compile_ns = compile_ns;
        Ok(analyzer)
    }

    /// Wrap an already-compiled program with this configuration.
    pub fn build(&self, program: CompiledProgram) -> Analyzer {
        let base_interner = Arc::new(seed_interner(&program));
        Analyzer {
            program,
            depth_k: self.depth_k,
            config: self.config,
            strategy: self.strategy,
            profile_timing: self.profile_timing,
            provenance: self.provenance,
            step_budget: self.step_budget,
            compile_ns: 0,
            base_interner,
        }
    }
}

/// A compiled dataflow analyzer for one program.
///
/// The analyzer is immutable once built: it owns the WAM code (shared,
/// unmodified, with the concrete machine) and runs the abstract WAM over
/// it on every query. Because [`Analyzer::analyze`] takes `&self`, one
/// analyzer can serve queries from many threads at once — see
/// [`Analyzer::analyze_batch`] — and cross-query memo reuse lives in
/// [`Session`].
///
/// # Examples
///
/// ```
/// use awam_core::Analyzer;
/// use prolog_syntax::parse_program;
///
/// let program = parse_program(
///     "app([], L, L). app([H|T], L, [H|R]) :- app(T, L, R).",
/// )?;
/// let analyzer = Analyzer::compile(&program)?;
/// let analysis = analyzer.analyze_query("app", &["glist", "glist", "var"])?;
/// let entry = &analysis.predicates[0];
/// assert_eq!(entry.name, "app/3");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Analyzer {
    program: CompiledProgram,
    depth_k: usize,
    config: DomainConfig,
    strategy: IterationStrategy,
    profile_timing: bool,
    provenance: bool,
    step_budget: Option<u64>,
    /// Wall time of WAM compilation in nanoseconds (0 when the analyzer
    /// was built from an already-compiled program); spliced into the
    /// span tree as the `compile` phase when profiling is on.
    compile_ns: u64,
    /// Shared read-only pattern arena, pre-seeded with the common
    /// all-`any`/all-`var` patterns per predicate arity. Every query gets
    /// a [`SessionInterner`] overlay over this `Arc`, so batch workers
    /// share the seed without any locking.
    base_interner: Arc<PatternInterner>,
}

/// Pre-intern the patterns every analysis is likely to touch: the empty
/// pattern and, for each distinct predicate arity in the program, the
/// all-`any` and all-`var` argument tuples.
fn seed_interner(program: &CompiledProgram) -> PatternInterner {
    let mut interner = PatternInterner::new();
    interner.intern(Pattern::empty());
    let mut arities: Vec<usize> = program.predicates.iter().map(|p| p.key.arity).collect();
    arities.sort_unstable();
    arities.dedup();
    for arity in arities {
        for spec in ["any", "var"] {
            let specs = vec![spec; arity];
            if let Some(p) = Pattern::from_spec(&specs) {
                interner.intern(p);
            }
        }
    }
    interner
}

/// One entry goal of a batch analysis: a predicate name plus its entry
/// calling pattern.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BatchGoal {
    /// Entry predicate name.
    pub name: String,
    /// Entry calling pattern.
    pub entry: Pattern,
}

impl BatchGoal {
    /// A goal from a name and a pattern.
    pub fn new(name: impl Into<String>, entry: Pattern) -> BatchGoal {
        BatchGoal {
            name: name.into(),
            entry,
        }
    }

    /// A goal from a name and spec strings (see [`Pattern::from_spec`]).
    ///
    /// # Errors
    ///
    /// [`AnalysisError::BadSpec`] for unknown specs.
    pub fn from_spec(name: impl Into<String>, specs: &[&str]) -> Result<BatchGoal, AnalysisError> {
        let entry =
            Pattern::from_spec(specs).ok_or_else(|| AnalysisError::BadSpec(specs.join(", ")))?;
        Ok(BatchGoal::new(name, entry))
    }
}

/// The analysis of one predicate: its calling patterns and summarized
/// success patterns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PredAnalysis {
    /// `name/arity`.
    pub name: String,
    /// Predicate id in the compiled program.
    pub pred: usize,
    /// Arity.
    pub arity: usize,
    /// `(calling pattern, success pattern or None if the call always
    /// fails)` pairs.
    pub entries: Vec<(Pattern, Option<Pattern>)>,
}

/// The result of one analysis run.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Per-predicate results, in predicate-table order, restricted to
    /// predicates that were actually called.
    pub predicates: Vec<PredAnalysis>,
    /// Global fixpoint iterations performed by this query (zero when a
    /// session answered it from the memo table).
    pub iterations: u64,
    /// Abstract WAM instructions executed (Table 1's `Exec` column).
    pub instructions_executed: u64,
    /// Extension-table counters (lookups, hit/miss split, scan cost,
    /// inserts, lub behavior). For session queries these accumulate over
    /// the session's whole life, because the table itself does.
    pub table_stats: TableStats,
    /// Pattern-interner counters (dedup hits/misses, lub/leq memo-cache
    /// behavior, estimated bytes saved). For session queries these
    /// accumulate over the session's whole life, like the table stats.
    pub intern_stats: InternStats,
    /// Abstract-machine work counters and high-water marks.
    pub machine_stats: MachineStats,
    /// Per-opcode dispatch counts (index with [`wam::OPCODE_NAMES`]).
    pub opcodes: OpcodeCounts,
    /// Wall time of the fixpoint run in nanoseconds (0 when the `timing`
    /// feature of `awam-obs` is off).
    pub analyze_ns: u64,
    /// Per-predicate self-time `(name, ns)`, descending; empty unless
    /// profiling was enabled via [`AnalyzerBuilder::profiling`].
    pub pred_times: Vec<(String, u64)>,
    /// Per-predicate self-instructions `(name, count)`, descending;
    /// empty unless profiling was enabled.
    pub pred_instrs: Vec<(String, u64)>,
    /// Derivation report for every table entry; `None` unless
    /// [`AnalyzerBuilder::provenance`] was enabled.
    pub provenance: Option<DerivationReport>,
    /// Span tree and metrics registry of the run; `None` unless
    /// profiling was enabled via [`AnalyzerBuilder::profiling`] (warm
    /// session hits also return `None`: no machine ran).
    pub profile: Option<ProfileData>,
}

/// The self-profiling output of one analysis run: where fixpoint time
/// went (hierarchical spans) and the metrics registry a monitoring
/// surface would scrape.
#[derive(Clone, Debug)]
pub struct ProfileData {
    /// Hierarchical span tree: compile / iteration N / predicate /
    /// et-consult, with call counts, total and self time.
    pub spans: SpanProfiler,
    /// Named counters and histograms (consult latency, per-iteration
    /// widening/growth deltas, per-predicate instruction heat).
    pub metrics: MetricsRegistry,
}

impl Analyzer {
    /// A builder with the paper's default settings (term depth 4, full
    /// domain, global restart).
    pub fn builder() -> AnalyzerBuilder {
        AnalyzerBuilder::default()
    }

    /// Compile `program` and wrap it in an analyzer with the paper's
    /// default settings (shorthand for `Analyzer::builder().compile(..)`).
    ///
    /// # Errors
    ///
    /// Propagates [`CompileError`] from the WAM compiler.
    pub fn compile(program: &Program) -> Result<Analyzer, CompileError> {
        AnalyzerBuilder::default().compile(program)
    }

    /// Wrap an already-compiled program with the default settings.
    pub fn from_compiled(program: CompiledProgram) -> Analyzer {
        AnalyzerBuilder::default().build(program)
    }

    /// The compiled program being analyzed.
    pub fn program(&self) -> &CompiledProgram {
        &self.program
    }

    /// The interner used by the compiled program (for display).
    pub fn interner(&self) -> &prolog_syntax::Interner {
        &self.program.interner
    }

    /// Whether derivation provenance tracking is on (see
    /// [`AnalyzerBuilder::provenance`]).
    pub fn provenance_enabled(&self) -> bool {
        self.provenance
    }

    /// Open a [`Session`] on this analyzer: a persistent extension table
    /// that survives across queries (shorthand for [`Session::new`]).
    pub fn session(&self) -> Session<'_> {
        Session::new(self)
    }

    /// The build-time configuration of this analyzer, as a builder that
    /// would recreate it. Incremental re-analysis uses this to compile
    /// the edited program with byte-identical settings, so a migrated
    /// session's results stay comparable to a cold run.
    pub fn config_builder(&self) -> AnalyzerBuilder {
        AnalyzerBuilder {
            depth_k: self.depth_k,
            config: self.config,
            strategy: self.strategy,
            profile_timing: self.profile_timing,
            provenance: self.provenance,
            step_budget: self.step_budget,
        }
    }

    /// The term-depth restriction `k` this analyzer extracts patterns at.
    pub(crate) fn depth_k(&self) -> usize {
        self.depth_k
    }

    /// The domain restriction this analyzer runs under.
    pub(crate) fn domain_config(&self) -> DomainConfig {
        self.config
    }

    /// The configured fixpoint iteration strategy.
    pub(crate) fn iteration_strategy(&self) -> IterationStrategy {
        self.strategy
    }

    /// Analyze from `pred` with the given entry calling pattern.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::UnknownPredicate`], [`AnalysisError::ArityMismatch`],
    /// or resource-bound errors.
    pub fn analyze(&self, name: &str, entry: &Pattern) -> Result<Analysis, AnalysisError> {
        self.analyze_with(name, entry, None)
    }

    /// Like [`Analyzer::analyze`], but streaming events into `tracer`
    /// (fixpoint rounds, calling patterns, ET consults/inserts/updates,
    /// clause entries, forced failures).
    ///
    /// # Errors
    ///
    /// Same as [`Analyzer::analyze`].
    pub fn analyze_traced(
        &self,
        name: &str,
        entry: &Pattern,
        tracer: &mut dyn Tracer,
    ) -> Result<Analysis, AnalysisError> {
        self.analyze_with(name, entry, Some(tracer))
    }

    fn analyze_with(
        &self,
        name: &str,
        entry: &Pattern,
        tracer: Option<&mut dyn Tracer>,
    ) -> Result<Analysis, AnalysisError> {
        let (pred, entry) = self.resolve_entry(name, entry)?;
        let (analysis, _table, _interner) =
            self.run_fixpoint(pred, &entry, None, tracer, self.step_budget)?;
        Ok(analysis)
    }

    /// Analyze with an entry pattern given as spec strings (see
    /// [`Pattern::from_spec`]).
    ///
    /// # Errors
    ///
    /// [`AnalysisError::BadSpec`] for unknown specs, plus everything
    /// [`Analyzer::analyze`] returns.
    pub fn analyze_query(&self, name: &str, specs: &[&str]) -> Result<Analysis, AnalysisError> {
        let entry =
            Pattern::from_spec(specs).ok_or_else(|| AnalysisError::BadSpec(specs.join(", ")))?;
        self.analyze(name, &entry)
    }

    /// Analyze several independent entry goals, fanned out across
    /// `workers` OS threads (std scoped threads; `workers` is clamped to
    /// `1..=goals.len()`).
    ///
    /// Each goal runs in its own [`Session`], so every result is
    /// byte-identical to a standalone [`Analyzer::analyze`] call for that
    /// goal — regardless of worker count or scheduling. Results come back
    /// in goal order.
    pub fn analyze_batch(
        &self,
        goals: &[BatchGoal],
        workers: usize,
    ) -> Vec<Result<Analysis, AnalysisError>> {
        crate::batch::par_map(goals, workers, |_, goal| {
            Session::new(self).analyze(&goal.name, &goal.entry)
        })
    }

    // ----- internals shared with Session -----

    /// Resolve an entry goal: look up the predicate, check the arity, and
    /// weaken the pattern to this analyzer's domain configuration.
    pub(crate) fn resolve_entry(
        &self,
        name: &str,
        entry: &Pattern,
    ) -> Result<(usize, Pattern), AnalysisError> {
        let pred = self.program.predicate(name, entry.arity()).ok_or_else(|| {
            AnalysisError::UnknownPredicate {
                pred: format!("{name}/{}", entry.arity()),
            }
        })?;
        let expected = self.program.predicates[pred].key.arity;
        if expected != entry.arity() {
            return Err(AnalysisError::ArityMismatch {
                expected,
                got: entry.arity(),
            });
        }
        Ok((pred, entry.weaken(self.config)))
    }

    /// A fresh per-query interner overlay over this analyzer's shared
    /// base arena (lock-free: the base is behind an `Arc`).
    pub(crate) fn new_session_interner(&self) -> SessionInterner {
        SessionInterner::new(Arc::clone(&self.base_interner))
    }

    /// The abstract-instruction budget configured at build time (`None`
    /// when unbounded); sessions inherit it and may override per query.
    pub fn configured_step_budget(&self) -> Option<u64> {
        self.step_budget
    }

    /// Run the fixpoint for `(pred, entry)`, optionally seeded with a
    /// session's table and the interner its ids resolve through, and
    /// return the analysis plus the final table/interner pair.
    /// `step_budget` is the effective cap for *this* run (sessions can
    /// override the analyzer-wide setting per query).
    pub(crate) fn run_fixpoint(
        &self,
        pred: usize,
        entry: &Pattern,
        seed: Option<(ExtensionTable, SessionInterner)>,
        tracer: Option<&mut dyn Tracer>,
        step_budget: Option<u64>,
    ) -> Result<(Analysis, ExtensionTable, SessionInterner), AnalysisError> {
        let (mut table, interner) = seed.unwrap_or_else(|| {
            (
                ExtensionTable::new(self.program.predicates.len()),
                self.new_session_interner(),
            )
        });
        if self.provenance {
            // Seeded tables from a session created before the flag (or
            // from Session::new, which already enables it) get padded
            // with blank derivations; fresh tables track from entry 0.
            table.enable_provenance();
        }
        let mut machine = AbstractMachine::with_table(&self.program, self.depth_k, table, interner);
        machine.set_domain_config(self.config);
        machine.set_strategy(self.strategy);
        machine.set_step_budget(step_budget);
        machine.profile_timing = self.profile_timing;
        if let Some(tracer) = tracer {
            machine.set_tracer(tracer);
        }
        let watch = Stopwatch::start();
        let iterations = machine.run_to_fixpoint(pred, entry)?;
        let analyze_ns = watch.elapsed_ns();
        let predicates = self.collect_predicates(machine.table(), machine.interner());
        let mut pred_times: Vec<(String, u64)> = machine
            .pred_self_ns()
            .iter()
            .enumerate()
            .filter(|(_, &ns)| ns > 0)
            .map(|(id, &ns)| {
                (
                    self.program.predicates[id]
                        .key
                        .display(&self.program.interner),
                    ns,
                )
            })
            .collect();
        pred_times.sort_by_key(|&(_, ns)| std::cmp::Reverse(ns));
        let mut pred_instrs: Vec<(String, u64)> = machine
            .pred_instr_self()
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(id, &n)| {
                (
                    self.program.predicates[id]
                        .key
                        .display(&self.program.interner),
                    n,
                )
            })
            .collect();
        pred_instrs.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
        let provenance = self.provenance.then(|| {
            crate::provenance::collect(&self.program, machine.table(), machine.interner())
        });
        let profile = machine.take_profile().map(|(mut spans, mut metrics)| {
            spans.record_phase("compile", self.compile_ns);
            metrics.counter_add("compile_ns", self.compile_ns);
            metrics.counter_add("fixpoint.iterations", iterations);
            ProfileData { spans, metrics }
        });
        let analysis = Analysis {
            predicates,
            iterations,
            instructions_executed: machine.exec_count(),
            table_stats: *machine.table().stats(),
            // Interner counters are sampled here, *after* the fixpoint
            // returned — never at machine construction — so the lub/leq
            // memo-cache numbers reflect the whole run (the exact-counter
            // tripwires in tests/observability.rs pin this down).
            intern_stats: *machine.interner().stats(),
            machine_stats: machine.machine_stats(),
            opcodes: machine.opcodes().clone(),
            analyze_ns,
            pred_times,
            pred_instrs,
            provenance,
            profile,
        };
        let (table, interner) = machine.into_parts();
        Ok((analysis, table, interner))
    }

    /// Project the per-predicate results out of an extension table,
    /// resolving the interned ids back into patterns (the public API
    /// stays id-free).
    pub(crate) fn collect_predicates(
        &self,
        table: &ExtensionTable,
        interner: &SessionInterner,
    ) -> Vec<PredAnalysis> {
        let mut predicates = Vec::new();
        for (id, p) in self.program.predicates.iter().enumerate() {
            let entries: Vec<(Pattern, Option<Pattern>)> = table
                .entries(id)
                .iter()
                .map(|&Entry { call, success, .. }| {
                    (
                        interner.resolve(call).clone(),
                        success.map(|s| interner.resolve(s).clone()),
                    )
                })
                .collect();
            if !entries.is_empty() {
                predicates.push(PredAnalysis {
                    name: p.key.display(&self.program.interner),
                    pred: id,
                    arity: p.key.arity,
                    entries,
                });
            }
        }
        predicates
    }

    /// An [`Analysis`] answered entirely from a memo table: no fixpoint
    /// iterations, no instructions executed.
    pub(crate) fn analysis_from_table(
        &self,
        table: &ExtensionTable,
        interner: &SessionInterner,
    ) -> Analysis {
        Analysis {
            predicates: self.collect_predicates(table, interner),
            iterations: 0,
            instructions_executed: 0,
            table_stats: *table.stats(),
            // Sampled at answer time: a warm hit's consult went through
            // the leq memo cache just now, and that shows up here.
            intern_stats: *interner.stats(),
            machine_stats: MachineStats::default(),
            opcodes: OpcodeCounts::new(wam::OPCODE_NAMES.len()),
            analyze_ns: 0,
            pred_times: Vec::new(),
            pred_instrs: Vec::new(),
            provenance: (self.provenance && table.provenance_enabled())
                .then(|| crate::provenance::collect(&self.program, table, interner)),
            profile: None,
        }
    }
}

impl Analysis {
    /// The analysis of predicate `name/arity`, if it was reached.
    pub fn predicate(&self, name: &str, arity: usize) -> Option<&PredAnalysis> {
        self.predicates
            .iter()
            .find(|p| p.name == format!("{name}/{arity}"))
    }

    /// A human-readable report of the whole table, plus derived modes.
    pub fn report(&self, analyzer: &Analyzer) -> String {
        crate::report::render(self, analyzer.interner())
    }

    /// The counters of this analysis as one JSON document: fixpoint
    /// rounds, instruction totals, opcode counts, [`TableStats`] fields,
    /// machine high-water marks, and timings.
    pub fn stats_json(&self) -> Json {
        let mut pairs = vec![
            ("iterations", Json::Int(self.iterations as i64)),
            (
                "instructions_executed",
                Json::Int(self.instructions_executed as i64),
            ),
            ("table", self.table_stats.to_json()),
            ("interner", self.intern_stats.to_json()),
            ("machine", self.machine_stats.to_json()),
            ("opcodes", self.opcodes.to_json(&wam::OPCODE_NAMES)),
            ("analyze_ns", Json::Int(self.analyze_ns as i64)),
        ];
        if !self.pred_times.is_empty() {
            pairs.push((
                "pred_self_ns",
                Json::Obj(
                    self.pred_times
                        .iter()
                        .map(|(name, ns)| (name.clone(), Json::Int(*ns as i64)))
                        .collect(),
                ),
            ));
        }
        Json::obj(pairs)
    }
}

impl PredAnalysis {
    /// The lub of all success patterns of this predicate (over all calling
    /// patterns), if any call can succeed.
    pub fn success_summary(&self) -> Option<Pattern> {
        let mut acc: Option<Pattern> = None;
        for (_, s) in &self.entries {
            if let Some(s) = s {
                acc = Some(match acc {
                    Some(a) => a.lub(s),
                    None => s.clone(),
                });
            }
        }
        acc
    }

    /// Derived argument modes (see [`crate::report::ArgMode`]).
    pub fn modes(&self) -> Vec<crate::report::ArgMode> {
        crate::report::derive_modes(self)
    }
}

/// Convenience: leaf approximations of a pattern's arguments.
pub fn arg_leaves(p: &Pattern) -> Vec<AbsLeaf> {
    (0..p.arity()).map(|i| p.leaf_approx(p.root(i))).collect()
}
