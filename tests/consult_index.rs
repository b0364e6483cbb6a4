//! The indexed consult: the extension table answers every lookup from a
//! per-predicate id index instead of rescanning its entry list, with
//! `scan_steps` kept as the consult-cost counter (exactly one step per
//! lookup).
//!
//! * `scan_steps == lookups` on every Table 1 benchmark, with the zebra
//!   and nreverse counters pinned exactly (zebra burned 7,102 scan steps
//!   on 300 lookups before the index).
//! * The index lives inside the table a [`Session`] keeps, so it
//!   survives (and keeps answering across) seeded warm-table runs.
//!
//! Debug builds double-check every probe against the paper's linear
//! rescan (`debug_assert_eq!` in `ExtensionTable::find`), so these tests
//! also re-validate index/scan parity on every lookup they trigger.

use awam::absdom::Pattern;
use awam::Analyzer;

/// One scan step per lookup, on all eleven benchmarks.
#[test]
fn one_scan_step_per_lookup_on_all_benchmarks() {
    for b in awam::suite::all() {
        let program = b.parse().expect("parse");
        let analyzer = Analyzer::compile(&program).expect("compile");
        let entry = Pattern::from_spec(b.entry_specs).expect("specs");
        let analysis = analyzer.analyze(b.entry, &entry).expect("analysis");
        let t = &analysis.table_stats;
        assert_eq!(
            t.scan_steps, t.lookups,
            "{}: indexed consult must cost exactly one step per lookup",
            b.name
        );
        assert_eq!(t.hits + t.misses, t.lookups, "{}: hit/miss split", b.name);
    }
}

/// Exact consult counters on the two benchmarks the issue calls out:
/// zebra (the scan-step hog before the index) and nreverse (the
/// tripwire program).
#[test]
fn consult_counters_pinned_on_zebra_and_nreverse() {
    let pins = [
        // (benchmark, lookups, hits, misses, inserts)
        ("zebra", 300, 214, 86, 86),
        ("nreverse", 88, 65, 23, 23),
    ];
    for (name, lookups, hits, misses, inserts) in pins {
        let b = awam::suite::by_name(name).expect("benchmark");
        let program = b.parse().expect("parse");
        let analyzer = Analyzer::compile(&program).expect("compile");
        let entry = Pattern::from_spec(b.entry_specs).expect("specs");
        let analysis = analyzer.analyze(b.entry, &entry).expect("analysis");
        let t = &analysis.table_stats;
        assert_eq!(t.lookups, lookups, "{name}: lookups");
        assert_eq!(t.scan_steps, lookups, "{name}: scan_steps == lookups");
        assert_eq!(t.hits, hits, "{name}: hits");
        assert_eq!(t.misses, misses, "{name}: misses");
        assert_eq!(t.inserts, inserts, "{name}: inserts");
    }
}

/// The id index is part of the table a session owns, so a second
/// (non-subsumed, warm-table-seeded) query keeps consulting it: lookups
/// accumulate at one scan step each and the new run scores hits against
/// entries the index already holds.
#[test]
fn session_reuse_keeps_the_consult_index() {
    let program =
        awam::syntax::parse_program("app([], L, L). app([H|T], L, [H|R]) :- app(T, L, R).")
            .expect("parse");
    let analyzer = Analyzer::compile(&program).expect("compile");
    let mut session = analyzer.session();

    let first = session
        .analyze_query("app", &["ilist", "ilist", "var"])
        .expect("first run");
    let t1 = first.table_stats;
    assert!(first.iterations > 0, "first query should run the fixpoint");
    assert_eq!(t1.scan_steps, t1.lookups, "first run: one step per lookup");
    let memo_after_first = session.memo_len();

    // A ground list is not an integer list, so this query is not
    // subsumed: it re-runs the fixpoint seeded with the surviving table.
    let second = session
        .analyze_query("app", &["glist", "glist", "var"])
        .expect("second run");
    let t2 = second.table_stats;
    assert!(second.iterations > 0, "second query must not be a warm hit");
    assert_eq!(session.stats().session_cold_runs, 2);
    assert_eq!(session.stats().session_warm_hits, 0);

    // Table counters accumulate across the session; the index answered
    // every new lookup in one step and found previously-indexed entries.
    assert!(t2.lookups > t1.lookups, "second run did table lookups");
    assert_eq!(
        t2.scan_steps, t2.lookups,
        "seeded run: index still answers in one step per lookup"
    );
    assert!(
        t2.hits > t1.hits,
        "seeded run should hit entries through the surviving index"
    );
    assert!(
        session.memo_len() > memo_after_first,
        "second run should add its own entries alongside the old ones"
    );
}
