//! Differential coverage of the shared execution substrate (`awam-exec`):
//! the concrete machine and the abstract analyzer run the *same* code
//! area through the *same* dispatch loop, so on every benchmark their
//! static opcode coverage must be identical and their dynamic dispatches
//! must stay inside it — and the exact-counter tripwires that predate the
//! substrate extraction must still hold to the digit.

use awam::analysis::Analyzer;
use awam::machine::Machine;
use awam::obs::RecordingTracer;
use awam::suite;
use awam::syntax::parse_program;
use awam::wam::{compile_program, CompiledProgram, NUM_OPCODES, OPCODE_NAMES};

/// Per-opcode histogram of the static code area.
fn static_opcode_counts(compiled: &CompiledProgram) -> Vec<u64> {
    let mut counts = vec![0u64; NUM_OPCODES];
    for instr in &compiled.code {
        counts[instr.opcode_index()] += 1;
    }
    counts
}

#[test]
fn both_machines_see_the_same_code_area() {
    // The concrete path (compile_program → Machine) and the abstract path
    // (Analyzer::compile) must agree on the code area instruction for
    // instruction: same listing, same per-opcode static histogram.
    for b in suite::all() {
        let program = b.parse().expect("parse");
        let concrete_side = compile_program(&program).expect("compile");
        let analyzer = Analyzer::compile(&program).expect("analyzer compile");
        let abstract_side = analyzer.program();
        assert_eq!(
            concrete_side.listing(),
            abstract_side.listing(),
            "{}: listings diverge",
            b.name
        );
        assert_eq!(
            static_opcode_counts(&concrete_side),
            static_opcode_counts(abstract_side),
            "{}: static opcode coverage diverges",
            b.name
        );
    }
}

#[test]
fn dynamic_dispatch_stays_inside_static_coverage() {
    // Whatever either interpretation dispatches at runtime must be an
    // opcode that exists in the shared code area. The concrete run is
    // step-capped: coverage accumulates even if the goal does not finish
    // (zebra's full search is not the point here).
    for b in suite::all() {
        let program = b.parse().expect("parse");
        let compiled = compile_program(&program).expect("compile");
        let static_counts = static_opcode_counts(&compiled);

        let analysis = Analyzer::compile(&program)
            .expect("analyzer compile")
            .analyze_query(b.entry, b.entry_specs)
            .expect("analysis");
        for i in 0..NUM_OPCODES {
            assert!(
                analysis.opcodes.get(i) == 0 || static_counts[i] > 0,
                "{}: abstract machine dispatched {} absent from the code area",
                b.name,
                OPCODE_NAMES[i]
            );
        }

        let mut machine = Machine::new(&compiled);
        machine.set_max_steps(200_000);
        // The Table 1 entries are arity-0 drivers, callable as bare goals.
        let _ = machine.query_str(b.entry);
        assert!(
            machine.steps() > 0,
            "{}: concrete machine never ran",
            b.name
        );
        for i in 0..NUM_OPCODES {
            assert!(
                machine.opcodes().get(i) == 0 || static_counts[i] > 0,
                "{}: concrete machine dispatched {} absent from the code area",
                b.name,
                OPCODE_NAMES[i]
            );
        }
    }
}

const NREV: &str = "
    nrev([], []).
    nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).
    app([], L, L).
    app([H|T], L, [H|R]) :- app(T, L, R).
";

#[test]
fn abstract_tripwires_survive_the_substrate_extraction() {
    // The exact counter values from tests/observability.rs, frozen before
    // the dispatch loop moved into awam-exec. Any drift means the shared
    // substrate changed observable behavior.
    let program = parse_program(NREV).unwrap();
    let analyzer = Analyzer::compile(&program).unwrap();
    let analysis = analyzer.analyze_query("nrev", &["glist", "var"]).unwrap();

    assert_eq!(analysis.iterations, 3);
    let t = &analysis.table_stats;
    assert_eq!(t.lookups, t.hits + t.misses);
    assert_eq!(t.hits, 8);
    assert_eq!(t.misses, 3);
    assert_eq!(t.inserts, 3);
    assert_eq!(t.summary_updates, 11);
    assert_eq!(t.lub_widenings, 2);
    assert_eq!(t.version_bumps, 5);
    assert_eq!(analysis.opcodes.total(), analysis.instructions_executed);
    assert_eq!(
        analysis.machine_stats.instructions,
        analysis.instructions_executed
    );
}

#[test]
fn concrete_tripwires_survive_the_substrate_extraction() {
    let program = parse_program(NREV).unwrap();
    let compiled = compile_program(&program).unwrap();
    let mut recorder = RecordingTracer::default();
    let mut machine = Machine::new(&compiled);
    machine.set_tracer(&mut recorder);
    machine.query_str("nrev([1,2,3], R)").unwrap().unwrap();
    drop(machine);
    // nrev([1,2,3]) makes exactly 9 calls (3 nrev suffixes + 1+2+3 app
    // activations) — the pre-refactor value.
    assert_eq!(recorder.calls().len(), 9);
}
