//! Smoke tests of the benchmark itself: every workload at a tiny size
//! with a fixed seed prints every metric `BENCHMARK.json` declares, with
//! its unit; nothing fails; the exact counters repeat across runs; and a
//! wrong reference makes the run fail.

use awam_obs::Json;
use std::process::Command;

const WORKLOADS: &[&str] = &["suite-cold", "serve-mixed", "edit-large"];

/// Counters that depend only on the seed, never on timing.
const EXACT: &[&str] = &[
    "wam.code_size",
    "core.iterations",
    "core.instructions",
    "core.et_lookups",
    "core.et_hit_ratio",
    "core.backtracks",
    "core.heap_high_water",
    "absdom.intern_hit_ratio",
    "absdom.lub_calls",
    "absdom.lub_cache_hit_ratio",
    "absdom.leq_cache_hit_ratio",
    "incremental.entries_kept_ratio",
    "incremental.frontier",
    "incremental.refix_explorations",
    "incremental.refix_instructions",
];

fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json beside the benchmark directory");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Run the benchmark; returns whether it exited 0 and its result line.
fn run(workload: &str, seconds: &str, trace: &str, extra: &[&str]) -> (bool, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_awam-perf"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            seconds,
            "--trace",
            trace,
        ])
        .args(extra)
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let last = stdout.lines().last().expect("a result line");
    (
        out.status.success(),
        Json::parse(last).expect("the result line is JSON"),
    )
}

fn check_result(result: &Json, section: &str) {
    let Json::Obj(pairs) = result else {
        panic!("result is an object");
    };
    let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
    assert_eq!(result.get("failed").and_then(Json::as_i64), Some(0));
    assert!(result.get("attempted").and_then(Json::as_i64).unwrap_or(0) >= 1);
    let metrics = result.get("metrics").expect("metrics");
    for (name, unit) in declared(section) {
        let metric = metrics
            .get(&name)
            .unwrap_or_else(|| panic!("{name} missing"));
        assert_eq!(
            metric.get("unit").and_then(Json::as_str),
            Some(unit.as_str()),
            "{name}"
        );
        assert!(
            metric.get("value").and_then(Json::as_f64).is_some(),
            "{name} has no value"
        );
    }
}

#[test]
fn untraced_runs_print_every_end_to_end_metric() {
    for workload in WORKLOADS {
        let (ok, result) = run(workload, "0.5", "0", &[]);
        assert!(ok, "{workload} failed");
        check_result(&result, "end_to_end");
        let success = result
            .get("metrics")
            .and_then(|m| m.get("success_rate"))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64);
        assert_eq!(success, Some(1.0), "{workload}");
    }
}

#[test]
fn traced_runs_print_every_layer_and_repeat_exact_counters() {
    let (ok, first) = run("suite-cold", "1.5", "1", &[]);
    assert!(ok);
    check_result(&first, "per_layer");
    let (ok, second) = run("edit-large", "1.5", "1", &[]);
    assert!(ok);
    check_result(&second, "per_layer");
    for name in EXACT {
        let value = |doc: &Json| {
            doc.get("metrics")
                .and_then(|m| m.get(name))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
        };
        assert_eq!(value(&first), value(&second), "{name} differs between runs");
        assert!(value(&first).unwrap_or(0.0) > 0.0, "{name} is zero");
    }
}

#[test]
fn a_wrong_reference_fails_every_workload() {
    for workload in WORKLOADS {
        let (ok, result) = run(workload, "0.5", "0", &["--corrupt-reference"]);
        assert!(!ok, "{workload} passed against a wrong reference");
        assert_eq!(result.get("correct").and_then(Json::as_bool), Some(false));
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_awam-perf"))
        .args([
            "--workload",
            "nonsense",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("benchmark runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
