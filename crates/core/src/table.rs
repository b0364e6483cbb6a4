//! The extension table: the memo structure of the ET-based control scheme.
//!
//! One table per analysis run. Each predicate holds a list of
//! `(calling pattern, summarized success pattern)` entries; multiple
//! calling patterns are kept per predicate while the success patterns for
//! each calling pattern are lubbed together (§6 of the paper).
//!
//! The paper implements the table as "a linear list of (calling-pattern,
//! success-pattern) pairs". Patterns are stored as interned
//! [`PatternId`]s (see [`absdom::intern`]), so entry equality is an
//! integer compare and a per-predicate id index answers each consult in
//! one probe — exactly the entry the paper's linear scan would find,
//! which debug builds re-check. The summary lub / subsumption probes go
//! through the session interner's memo caches.

use absdom::{FxHashMap, PatternId, SessionInterner};
use awam_obs::TableStats;

/// Where a table entry came from: the clause body whose call created it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DerivationOrigin {
    /// The predicate whose clause was being explored when the entry was
    /// inserted (the *caller*, not the entry's own predicate).
    pub pred: usize,
    /// The clause index (within `pred`) that issued the call.
    pub clause: usize,
}

/// One recorded widening of an entry's success summary: the clause and
/// iteration that produced the input pattern, and the summary the lub
/// grew to. Non-growing inputs (`input ⊑ summary`) are not recorded —
/// folding the recorded inputs with the lattice lub re-derives the
/// stored summary exactly (the testkit `provenance` oracle enforces this).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LubStep {
    /// Clause index (within the entry's own predicate) whose solution
    /// produced this success pattern.
    pub clause: usize,
    /// Global fixpoint iteration in which the widening happened.
    pub iter: u64,
    /// The success pattern that was lubbed in.
    pub input: PatternId,
    /// The summary after the lub (equals `input` for the first step).
    pub result: PatternId,
}

/// The full derivation record of one extension-table entry.
///
/// Stored in a vec parallel to the entry list (keyed by entry index)
/// and only allocated when provenance tracking is enabled, so the
/// default configuration pays nothing — not even an `Option` check on
/// the entry hot path, since the machine consults
/// [`ExtensionTable::provenance_enabled`] once at construction.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Derivation {
    /// The calling clause, or `None` for the entry goal (which no
    /// clause issued).
    pub origin: Option<DerivationOrigin>,
    /// Global fixpoint iteration in which the entry was inserted.
    pub created_iter: u64,
    /// The calling pattern of the table entry being explored when this
    /// entry was created (`None` for the entry goal).
    pub parent_call: Option<PatternId>,
    /// Every widening of the success summary, in order.
    pub lub_steps: Vec<LubStep>,
}

/// One memo entry.
#[derive(Clone, Copy, Debug)]
pub struct Entry {
    /// The calling pattern (canonical, interned).
    pub call: PatternId,
    /// The lub of all success patterns found so far, if any.
    pub success: Option<PatternId>,
    /// The iteration in which this calling pattern was last explored.
    pub explored_iter: u64,
    /// Version counter, bumped whenever the success summary grows (used
    /// by the dependency-tracking iteration strategy).
    pub version: u64,
}

#[derive(Clone, Debug, Default)]
struct PredTable {
    entries: Vec<Entry>,
    /// The table entries (and their versions) each entry's last
    /// exploration read; parallel to `entries` (kept out of [`Entry`] so
    /// the entry itself stays `Copy`).
    deps: Vec<Vec<(usize, usize, u64)>>,
    /// Calling-pattern id → entry index: an id-indexed probe that
    /// replaces the per-entry rescan while keeping the paper's semantics
    /// (interned ids make `call == entry.call` an integer compare, so one
    /// probe decides what the scan decided — debug builds assert the
    /// parity). A fixed-seed hash map
    /// ([`FxHashMap`]), not `std`'s `RandomState`-seeded one: the
    /// per-instance random seed would make any future iteration over the
    /// index nondeterministic between runs (the same bug class the
    /// `rev_deps` index had). Probes are O(1) integer hashes.
    index: FxHashMap<PatternId, usize>,
}

/// The extension table.
#[derive(Clone, Debug)]
pub struct ExtensionTable {
    preds: Vec<PredTable>,
    /// Whether any success entry changed since the flag was last cleared.
    changed: bool,
    /// Cached running maximum of every entry's `explored_iter` (kept by
    /// `insert`/`mark_explored`, so seeded runs resume in O(1) instead of
    /// rescanning the whole table).
    max_explored: u64,
    /// Per-predicate derivation records, parallel to each predicate's
    /// entry list. `None` unless [`Self::enable_provenance`] was called.
    prov: Option<Vec<Vec<Derivation>>>,
    stats: TableStats,
}

impl ExtensionTable {
    /// Create a table for `num_preds` predicates.
    pub fn new(num_preds: usize) -> Self {
        ExtensionTable {
            preds: vec![PredTable::default(); num_preds],
            changed: false,
            max_explored: 0,
            prov: None,
            stats: TableStats::default(),
        }
    }

    /// Turn on derivation tracking. Existing entries (from a seed table
    /// created without provenance) get empty records so the parallel
    /// vecs stay index-aligned.
    pub fn enable_provenance(&mut self) {
        if self.prov.is_none() {
            self.prov = Some(
                self.preds
                    .iter()
                    .map(|p| vec![Derivation::default(); p.entries.len()])
                    .collect(),
            );
        }
    }

    /// Whether derivation tracking is on. The machine samples this once
    /// at construction so the off path stays free of per-call checks.
    pub fn provenance_enabled(&self) -> bool {
        self.prov.is_some()
    }

    /// The derivation record of `(pred, idx)`, if tracking is on.
    pub fn derivation(&self, pred: usize, idx: usize) -> Option<&Derivation> {
        self.prov.as_ref().map(|p| &p[pred][idx])
    }

    /// Fill in the creation context of a just-inserted entry: the
    /// calling clause (`None` for the entry goal), the calling pattern
    /// of the parent table entry, and the iteration. No-op when
    /// tracking is off.
    pub fn record_insert_provenance(
        &mut self,
        pred: usize,
        idx: usize,
        origin: Option<DerivationOrigin>,
        parent_call: Option<PatternId>,
        iter: u64,
    ) {
        if let Some(prov) = self.prov.as_mut() {
            let d = &mut prov[pred][idx];
            d.origin = origin;
            d.parent_call = parent_call;
            d.created_iter = iter;
        }
    }

    /// Index of the entry for `call` under `pred`, if present. Equality
    /// is an integer compare on interned ids, answered from the
    /// per-predicate id index in one probe (`scan_steps` remains the
    /// consult-cost counter: exactly one step per lookup). The probe is
    /// semantics-preserving — interned ids are canonical, so it finds
    /// precisely the entry the paper's linear rescan would have found,
    /// which debug builds re-check against the scan on every call.
    pub fn find(&mut self, pred: usize, call: PatternId) -> Option<usize> {
        self.stats.lookups += 1;
        self.stats.scan_steps += 1;
        let found = self.preds[pred].index.get(&call).copied();
        debug_assert_eq!(
            found,
            self.preds[pred].entries.iter().position(|e| e.call == call),
            "id-indexed probe diverged from the linear rescan"
        );
        if found.is_some() {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        found
    }

    /// Like [`Self::find`], but without touching the stats counters.
    /// Used by debug-only consistency checks so that the counters stay
    /// identical between debug and release builds.
    pub fn find_quiet(&self, pred: usize, call: PatternId) -> Option<usize> {
        self.preds[pred].index.get(&call).copied()
    }

    /// The entry at `(pred, idx)`.
    pub fn entry(&self, pred: usize, idx: usize) -> &Entry {
        &self.preds[pred].entries[idx]
    }

    /// Index of the first entry under `pred` whose calling pattern
    /// subsumes `call` (`call ⊑ entry.call`), deciding the order through
    /// `interner`'s leq memo cache. Quiet with respect to the
    /// machine-level stats counters: this is the *session*-level reuse
    /// probe, counted by [`awam_obs::SessionStats`] instead.
    pub fn find_subsuming(
        &self,
        pred: usize,
        call: PatternId,
        interner: &mut SessionInterner,
    ) -> Option<usize> {
        self.preds[pred]
            .entries
            .iter()
            .position(|e| interner.leq(call, e.call))
    }

    /// The highest `explored_iter` over all entries — the resume point
    /// for a fixpoint run seeded with this table: starting the global
    /// iteration counter above it guarantees no stale entry is mistaken
    /// for "already explored this round". O(1): the maximum is maintained
    /// by [`Self::insert`] and [`Self::mark_explored`].
    pub fn max_explored_iter(&self) -> u64 {
        debug_assert_eq!(
            self.max_explored,
            self.preds
                .iter()
                .flat_map(|p| p.entries.iter())
                .map(|e| e.explored_iter)
                .max()
                .unwrap_or(0),
            "cached max_explored_iter out of sync with the entries"
        );
        self.max_explored
    }

    /// Insert a fresh entry (marked explored in `iter`) and return its
    /// index. The calling pattern is an interned id, so nothing is
    /// cloned — the id index stores the same id.
    pub fn insert(&mut self, pred: usize, call: PatternId, iter: u64) -> usize {
        self.stats.inserts += 1;
        self.max_explored = self.max_explored.max(iter);
        let table = &mut self.preds[pred];
        let idx = table.entries.len();
        table.index.insert(call, idx);
        table.entries.push(Entry {
            call,
            success: None,
            explored_iter: iter,
            version: 0,
        });
        table.deps.push(Vec::new());
        if let Some(prov) = self.prov.as_mut() {
            prov[pred].push(Derivation {
                created_iter: iter,
                ..Derivation::default()
            });
        }
        idx
    }

    /// Mark an existing entry explored in `iter`.
    pub fn mark_explored(&mut self, pred: usize, idx: usize, iter: u64) {
        self.max_explored = self.max_explored.max(iter);
        self.preds[pred].entries[idx].explored_iter = iter;
    }

    /// Record the dependencies observed while exploring `(pred, idx)`.
    pub fn set_deps(&mut self, pred: usize, idx: usize, mut deps: Vec<(usize, usize, u64)>) {
        deps.sort_unstable();
        deps.dedup();
        self.preds[pred].deps[idx] = deps;
    }

    /// The recorded dependencies of an entry.
    pub fn deps(&self, pred: usize, idx: usize) -> &[(usize, usize, u64)] {
        &self.preds[pred].deps[idx]
    }

    /// Whether every dependency of `(pred, idx)` still has the version it
    /// had when the entry was last explored (and the entry has been
    /// explored at least once).
    pub fn deps_unchanged(&self, pred: usize, idx: usize) -> bool {
        let entry = &self.preds[pred].entries[idx];
        if entry.explored_iter == 0 {
            return false;
        }
        self.preds[pred].deps[idx]
            .iter()
            .all(|&(p, i, v)| self.preds[p].entries[i].version == v)
    }

    /// The current version of an entry's summary.
    pub fn version(&self, pred: usize, idx: usize) -> u64 {
        self.preds[pred].entries[idx].version
    }

    /// Lub `success` into the entry (through `interner`'s memo caches);
    /// returns whether the summary grew (also recorded in the global
    /// change flag).
    ///
    /// `prov` carries the `(clause, iteration)` context of the solution
    /// being folded in; pass `None` when tracking is off (or from call
    /// sites that have no clause context). A growing update appends a
    /// [`LubStep`] to the entry's derivation when tracking is on.
    pub fn update_success(
        &mut self,
        pred: usize,
        idx: usize,
        success: PatternId,
        interner: &mut SessionInterner,
        prov: Option<(usize, u64)>,
    ) -> bool {
        self.stats.summary_updates += 1;
        let entry = &mut self.preds[pred].entries[idx];
        let new = match entry.success {
            // Fast path: the summary already equals the new pattern (the
            // common case once the fixpoint is nearly reached). With
            // interned ids this is a single integer compare.
            Some(old) if old == success => return false,
            // Planted bug for the fuzz harness (see `crate::fault`):
            // freeze the first summary instead of widening it.
            Some(_) if crate::fault::skip_lub() => return false,
            Some(old) => {
                // Subsumption probe through the id-pair leq memo cache:
                // `success ⊑ old` means the summary is already wide
                // enough. A leq miss computes `lub(success, old)`
                // internally, which warms the (unordered) lub cache, so
                // the growing branch's lub below is a cache hit.
                if interner.leq(success, old) {
                    return false;
                }
                let new = interner.lub(old, success);
                debug_assert_ne!(old, new, "leq said success ⋢ old, so the lub must grow");
                entry.success = Some(new);
                entry.version += 1;
                self.stats.lub_widenings += 1;
                new
            }
            None => {
                entry.success = Some(success);
                entry.version += 1;
                success
            }
        };
        self.changed = true;
        self.stats.version_bumps += 1;
        if let Some(prov_store) = self.prov.as_mut() {
            if let Some((clause, iter)) = prov {
                prov_store[pred][idx].lub_steps.push(LubStep {
                    clause,
                    iter,
                    input: success,
                    result: new,
                });
            }
        }
        true
    }

    /// Whether any success summary changed since the last [`Self::clear_changed`].
    pub fn changed(&self) -> bool {
        self.changed
    }

    /// Reset the change flag (between global iterations).
    pub fn clear_changed(&mut self) {
        self.changed = false;
    }

    /// All entries of a predicate.
    pub fn entries(&self, pred: usize) -> &[Entry] {
        &self.preds[pred].entries
    }

    /// Number of predicate slots the table was created with.
    pub fn num_preds(&self) -> usize {
        self.preds.len()
    }

    /// Quietly seed an entry migrated from another table: no stats
    /// counters move (the entry was not derived by this run), but the
    /// id index and the cached `max_explored_iter` are maintained, and
    /// the provenance store (when enabled) is padded so the parallel
    /// vecs stay index-aligned. Returns the new entry's index.
    pub fn seed_entry(
        &mut self,
        pred: usize,
        call: PatternId,
        success: Option<PatternId>,
        explored_iter: u64,
        version: u64,
    ) -> usize {
        self.max_explored = self.max_explored.max(explored_iter);
        let table = &mut self.preds[pred];
        let idx = table.entries.len();
        table.index.insert(call, idx);
        table.entries.push(Entry {
            call,
            success,
            explored_iter,
            version,
        });
        table.deps.push(Vec::new());
        if let Some(prov) = self.prov.as_mut() {
            prov[pred].push(Derivation::default());
        }
        idx
    }

    /// Overwrite the derivation record of a seeded entry with one
    /// carried over from another table. No-op when tracking is off.
    pub fn seed_derivation(&mut self, pred: usize, idx: usize, derivation: Derivation) {
        if let Some(prov) = self.prov.as_mut() {
            prov[pred][idx] = derivation;
        }
    }

    /// Total number of entries across predicates.
    pub fn len(&self) -> usize {
        self.preds.iter().map(|p| p.entries.len()).sum()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counters accumulated by this table (lookups, hit/miss split,
    /// scan cost, inserts, summary-update behavior).
    pub fn stats(&self) -> &TableStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use absdom::Pattern;

    fn pat(interner: &mut SessionInterner, specs: &[&str]) -> PatternId {
        interner.intern(Pattern::from_spec(specs).unwrap())
    }

    #[test]
    fn insert_and_find() {
        let mut interner = SessionInterner::default();
        let any = pat(&mut interner, &["any"]);
        let g = pat(&mut interner, &["g"]);
        let mut t = ExtensionTable::new(2);
        assert!(t.find(0, any).is_none());
        let idx = t.insert(0, any, 1);
        assert_eq!(t.find(0, any), Some(idx));
        assert!(t.find(1, any).is_none(), "per-predicate");
        assert!(t.find(0, g).is_none());
    }

    #[test]
    fn insert_stores_the_id_without_new_interning() {
        // Regression: the index used to clone the calling pattern
        // as its map key. With interned ids the insert path allocates no
        // pattern at all — re-interning the same pattern after the insert
        // is a dedup hit and the arena has not grown.
        let mut interner = SessionInterner::default();
        let call = pat(&mut interner, &["glist", "var"]);
        let misses_before = interner.stats().intern_misses;
        let arena_before = interner.len();
        let mut t = ExtensionTable::new(1);
        let idx = t.insert(0, call, 1);
        assert_eq!(interner.len(), arena_before, "insert interned nothing");
        let again = pat(&mut interner, &["glist", "var"]);
        assert_eq!(again, call, "same id on re-intern");
        assert_eq!(interner.stats().intern_misses, misses_before);
        assert!(interner.stats().bytes_saved > 0, "dedup hit recorded");
        assert_eq!(t.find(0, call), Some(idx));
    }

    #[test]
    fn success_lubbing_sets_changed() {
        let mut interner = SessionInterner::default();
        let any = pat(&mut interner, &["any"]);
        let atom = pat(&mut interner, &["atom"]);
        let int = pat(&mut interner, &["int"]);
        let konst = pat(&mut interner, &["const"]);
        let mut t = ExtensionTable::new(1);
        let idx = t.insert(0, any, 1);
        assert!(!t.changed());
        t.update_success(0, idx, atom, &mut interner, None);
        assert!(t.changed());
        t.clear_changed();
        // Same success again: no change.
        t.update_success(0, idx, atom, &mut interner, None);
        assert!(!t.changed());
        // Larger success: lub grows.
        t.update_success(0, idx, int, &mut interner, None);
        assert!(t.changed());
        assert_eq!(t.entry(0, idx).success, Some(konst));
    }

    #[test]
    fn explored_iteration_tracking() {
        let mut interner = SessionInterner::default();
        let empty = pat(&mut interner, &[]);
        let mut t = ExtensionTable::new(1);
        let idx = t.insert(0, empty, 1);
        assert_eq!(t.entry(0, idx).explored_iter, 1);
        t.mark_explored(0, idx, 2);
        assert_eq!(t.entry(0, idx).explored_iter, 2);
    }

    #[test]
    fn max_explored_iter_is_cached() {
        let mut interner = SessionInterner::default();
        let any = pat(&mut interner, &["any"]);
        let g = pat(&mut interner, &["g"]);
        let mut t = ExtensionTable::new(2);
        assert_eq!(t.max_explored_iter(), 0);
        let idx = t.insert(0, any, 3);
        assert_eq!(t.max_explored_iter(), 3);
        t.insert(1, g, 2);
        assert_eq!(t.max_explored_iter(), 3, "max keeps the high-water mark");
        t.mark_explored(0, idx, 7);
        assert_eq!(t.max_explored_iter(), 7);
        // (In debug builds max_explored_iter re-derives the max by scan
        // and asserts agreement, so these checks cover the cache too.)
    }

    #[test]
    fn stats_count_scans() {
        let mut interner = SessionInterner::default();
        let any = pat(&mut interner, &["any"]);
        let g = pat(&mut interner, &["g"]);
        let var = pat(&mut interner, &["var"]);
        let mut t = ExtensionTable::new(1);
        t.insert(0, any, 1);
        t.insert(0, g, 1);
        t.find(0, g);
        t.find(0, var);
        let stats = t.stats();
        assert_eq!(stats.lookups, 2);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(
            stats.scan_steps, 2,
            "id-indexed consult: one probe per lookup"
        );
        assert_eq!(stats.inserts, 2);
    }

    #[test]
    fn stats_track_summary_updates() {
        let mut interner = SessionInterner::default();
        let any = pat(&mut interner, &["any"]);
        let atom = pat(&mut interner, &["atom"]);
        let int = pat(&mut interner, &["int"]);
        let mut t = ExtensionTable::new(1);
        let idx = t.insert(0, any, 1);
        t.update_success(0, idx, atom, &mut interner, None); // first summary
        t.update_success(0, idx, atom, &mut interner, None); // identical: fast path
        t.update_success(0, idx, int, &mut interner, None); // lub grows to const
        let stats = t.stats();
        assert_eq!(stats.summary_updates, 3);
        assert_eq!(stats.lub_widenings, 1, "only the growing lub counts");
        assert_eq!(stats.version_bumps, 2, "first set + one widening");
        // The non-trivial update went through the leq memo cache, and the
        // leq-internal lub warmed the unordered lub cache so the growing
        // branch's lub was a hit.
        let istats = interner.stats();
        assert_eq!(istats.leq_calls, 1, "one non-equal, non-first update");
        assert!(istats.lub_cache_hits > 0, "leq warmed the lub cache");
    }

    #[test]
    fn update_success_answers_subsumed_inputs_from_the_leq_cache() {
        let mut interner = SessionInterner::default();
        let any_arg = pat(&mut interner, &["any"]);
        let konst = pat(&mut interner, &["const"]);
        let atom = pat(&mut interner, &["atom"]);
        let int = pat(&mut interner, &["int"]);
        let mut t = ExtensionTable::new(1);
        let idx = t.insert(0, any_arg, 1);
        t.update_success(0, idx, konst, &mut interner, None);
        t.clear_changed();
        // atom ⊑ const and int ⊑ const: neither grows the summary.
        assert!(!t.update_success(0, idx, atom, &mut interner, None));
        assert!(!t.update_success(0, idx, atom, &mut interner, None));
        assert!(!t.update_success(0, idx, int, &mut interner, None));
        assert!(!t.changed());
        assert_eq!(t.entry(0, idx).success, Some(konst));
        let istats = interner.stats();
        assert_eq!(istats.leq_calls, 3);
        assert_eq!(istats.leq_cache_hits, 1, "repeated (atom, const) probe");
        assert_eq!(t.stats().lub_widenings, 0);
    }

    #[test]
    fn provenance_records_insert_context_and_lub_chain() {
        let mut interner = SessionInterner::default();
        let any_arg = pat(&mut interner, &["any"]);
        let parent = pat(&mut interner, &["glist"]);
        let atom = pat(&mut interner, &["atom"]);
        let int = pat(&mut interner, &["int"]);
        let konst = pat(&mut interner, &["const"]);
        let mut t = ExtensionTable::new(2);
        assert!(!t.provenance_enabled());
        t.enable_provenance();
        assert!(t.provenance_enabled());
        let idx = t.insert(1, any_arg, 2);
        t.record_insert_provenance(
            1,
            idx,
            Some(DerivationOrigin { pred: 0, clause: 3 }),
            Some(parent),
            2,
        );
        t.update_success(1, idx, atom, &mut interner, Some((0, 2)));
        t.update_success(1, idx, atom, &mut interner, Some((0, 2))); // no-op
        t.update_success(1, idx, int, &mut interner, Some((1, 3)));
        let d = t.derivation(1, idx).unwrap();
        assert_eq!(d.origin, Some(DerivationOrigin { pred: 0, clause: 3 }));
        assert_eq!(d.created_iter, 2);
        assert_eq!(d.parent_call, Some(parent));
        assert_eq!(
            d.lub_steps,
            vec![
                LubStep {
                    clause: 0,
                    iter: 2,
                    input: atom,
                    result: atom
                },
                LubStep {
                    clause: 1,
                    iter: 3,
                    input: int,
                    result: konst
                },
            ],
            "only growing updates are recorded"
        );
        // Entries without tracking report no derivation.
        let plain = ExtensionTable::new(1);
        assert!(plain.derivation(0, 0).is_none());
    }

    #[test]
    fn enable_provenance_pads_existing_entries() {
        let mut interner = SessionInterner::default();
        let any_arg = pat(&mut interner, &["any"]);
        let g = pat(&mut interner, &["g"]);
        let mut t = ExtensionTable::new(1);
        t.insert(0, any_arg, 1);
        t.enable_provenance();
        let seeded = t.derivation(0, 0).unwrap();
        assert_eq!(*seeded, Derivation::default(), "seed entry gets a blank");
        let idx = t.insert(0, g, 4);
        assert_eq!(t.derivation(0, idx).unwrap().created_iter, 4);
    }

    #[test]
    fn find_subsuming_uses_the_order() {
        let mut interner = SessionInterner::default();
        let any = pat(&mut interner, &["any"]);
        let g = pat(&mut interner, &["g"]);
        let atom = pat(&mut interner, &["atom"]);
        let mut t = ExtensionTable::new(1);
        let idx = t.insert(0, any, 1);
        // atom ⊑ any: subsumed by the memoized entry.
        assert_eq!(t.find_subsuming(0, atom, &mut interner), Some(idx));
        assert_eq!(t.find_subsuming(0, g, &mut interner), Some(idx));
        // The probe warmed the leq cache.
        assert!(interner.stats().leq_calls > 0);
        let mut narrow = ExtensionTable::new(1);
        narrow.insert(0, atom, 1);
        assert_eq!(narrow.find_subsuming(0, any, &mut interner), None);
    }
}
