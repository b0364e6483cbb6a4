//! Trace determinism: two identical analyses must produce byte-identical
//! event streams. The Dependency strategy's re-exploration order used to
//! flow through a `HashMap<_, HashSet<_>>` reverse-dependency index,
//! whose per-instance random hash seeds could reorder `--trace` output
//! between runs; the index is ordered now, and this test keeps it that
//! way.

use awam::analysis::{Analyzer, IterationStrategy};
use awam::obs::{JsonlTracer, RecordingTracer};
use awam::suite;

fn record(b: &suite::Benchmark, strategy: IterationStrategy) -> RecordingTracer {
    let program = b.parse().expect("parse");
    let analyzer = Analyzer::builder()
        .strategy(strategy)
        .compile(&program)
        .expect("compile");
    let entry = awam::absdom::Pattern::from_spec(b.entry_specs).expect("specs");
    let mut tracer = RecordingTracer::default();
    analyzer
        .analyze_traced(b.entry, &entry, &mut tracer)
        .expect("analysis");
    tracer
}

#[test]
fn dependency_strategy_traces_are_stable_across_runs() {
    // The Dependency strategy is the one that consults the reverse-
    // dependency index to schedule re-exploration, so it is the one a
    // hash-ordered index would scramble.
    for b in suite::all() {
        let first = record(&b, IterationStrategy::Dependency);
        let second = record(&b, IterationStrategy::Dependency);
        assert!(!first.events.is_empty(), "{}: empty trace", b.name);
        assert_eq!(
            first.events, second.events,
            "{}: dependency-strategy trace differs between runs",
            b.name
        );
    }
}

#[test]
fn global_restart_traces_are_stable_across_runs() {
    for b in suite::all() {
        let first = record(&b, IterationStrategy::GlobalRestart);
        let second = record(&b, IterationStrategy::GlobalRestart);
        assert_eq!(
            first.events, second.events,
            "{}: global-restart trace differs between runs",
            b.name
        );
    }
}

#[test]
fn jsonl_traces_are_byte_stable() {
    // End-to-end over the serialized form: the bytes a `--trace FILE`
    // run writes must be reproducible run over run.
    let b = suite::by_name("nreverse").expect("benchmark");
    let entry = awam::absdom::Pattern::from_spec(b.entry_specs).expect("specs");
    let mut streams = Vec::new();
    for _ in 0..2 {
        let program = b.parse().expect("parse");
        let analyzer = Analyzer::builder()
            .strategy(IterationStrategy::Dependency)
            .compile(&program)
            .expect("compile");
        let mut tracer = JsonlTracer::new(Vec::new());
        analyzer
            .analyze_traced(b.entry, &entry, &mut tracer)
            .expect("analysis");
        streams.push(tracer.into_inner().expect("flush"));
    }
    assert!(!streams[0].is_empty());
    assert_eq!(streams[0], streams[1]);
}
