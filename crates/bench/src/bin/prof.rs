//! Phase profile of the compiled analyzer: where the time of one
//! analysis goes (extraction, materialization, table consultation), using
//! the machine's built-in nanosecond counters.
//!
//! ```sh
//! cargo run -p awam-bench --release --bin prof [benchmark] [reps]
//! ```

fn main() {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "serialise".into());
    let reps: u32 = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(200);
    let b = bench_suite::by_name(&name).expect("benchmark name");
    let program = b.parse().unwrap();
    let compiled = wam::compile_program(&program).unwrap();
    let entry = absdom::Pattern::from_spec(b.entry_specs).unwrap();
    let pred = compiled.predicate(b.entry, entry.arity()).unwrap();

    let start = std::time::Instant::now();
    let mut machine = awam_core::AbstractMachine::new(&compiled, 4);
    let mut calls = 0;
    for _ in 0..reps {
        machine = awam_core::AbstractMachine::new(&compiled, 4);
        // The per-phase nanosecond counters are opt-in (they cost an
        // Instant read per call on the hot path).
        machine.profile_timing = true;
        machine.run_to_fixpoint(pred, &entry).unwrap();
        calls += machine.call_count;
    }
    let total = start.elapsed().as_nanos() as u64 / u64::from(reps);
    println!("benchmark:    {name} ({reps} reps)");
    println!("total/run:    {:.1} us", total as f64 / 1000.0);
    println!("calls/run:    {}", calls / u64::from(reps));
    println!("extract:      {:.1} us", machine.extract_ns as f64 / 1000.0);
    println!(
        "materialize:  {:.1} us",
        machine.materialize_ns as f64 / 1000.0
    );
    println!("table:        {:.1} us", machine.table_ns as f64 / 1000.0);
    println!("exec instrs:  {}", machine.exec_count());
}
