//! Bench-regression guard: compare a fresh run against a committed
//! baseline and fail when it regresses beyond tolerance.
//!
//! Three gates share the binary:
//!
//! * **Table 1** (default): fresh analysis times vs
//!   `BENCH_table1.json`; only a slowdown of the compiled-analyzer
//!   *geomean* fails — per-benchmark jitter on a shared CI box is too
//!   noisy to block on.
//! * **Serve** (`--serve`): a fresh `loadgen` run (same seed, corpus,
//!   client count, and pipeline depth as the committed
//!   `BENCH_serve.json`) vs the committed `throughput_qps` and
//!   `latency_us.p99`. Serving numbers wobble even more than analysis
//!   times (TCP, scheduler, whatever else the box is doing), so CI
//!   runs this gate with `--advisory`: regressions are reported loudly
//!   but do not fail the build.
//! * **Incremental** (`--incremental`): a fresh incremental-suite run
//!   vs the committed `BENCH_incremental.json` — the headline
//!   "< 25% of cold fixpoint iterations" claim plus per-benchmark
//!   iteration-ratio drift. Counter-based, so deterministic; wall
//!   times are printed but never gated on.
//!
//! ```sh
//! cargo run -p awam-bench --release --bin bench_guard -- \
//!     [--baseline BENCH_table1.json] [--tolerance 0.25] [--advisory]
//! cargo run -p awam-bench --release --bin bench_guard -- \
//!     --serve [--baseline BENCH_serve.json] [--tolerance 0.4] [--advisory]
//! cargo run -p awam-bench --release --bin bench_guard -- \
//!     --incremental [--baseline BENCH_incremental.json] [--tolerance 0.25] [--advisory]
//! ```
//!
//! Exit status: 0 when within tolerance, 1 on regression, 2 on a
//! missing or malformed baseline file. With `--advisory` a missing
//! baseline is *not* an error (exit 0 with an explanatory note) and a
//! regression is a warning: that is the right mode for checkouts that
//! have not committed a baseline yet and for gates whose metric is
//! inherently noisy. A malformed (present but unparseable) baseline
//! still exits 2 even in advisory mode — a corrupt committed file is
//! always worth failing loudly over.

use awam_obs::Json;

fn geomean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

fn float_field(row: &Json, key: &str) -> Option<f64> {
    match row.get(key)? {
        Json::Float(f) => Some(*f),
        Json::Int(i) => Some(*i as f64),
        _ => None,
    }
}

/// Exit 2 with a usage message — malformed invocations and corrupt
/// baselines are hard failures in every mode.
fn usage_error(message: &str) -> ! {
    eprintln!("bench_guard: {message}");
    std::process::exit(2);
}

/// Load and parse a committed baseline file, honoring the shared
/// missing/malformed policy. `Ok(None)` means "advisory skip".
fn load_baseline(baseline_path: &str, advisory: bool, create_hint: &str) -> Option<Json> {
    let text = match std::fs::read_to_string(baseline_path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            eprintln!(
                "bench_guard: no committed baseline at {baseline_path} — nothing to compare \
                 against.\nbench_guard: create one with `{create_hint}` and commit it."
            );
            if advisory {
                eprintln!("bench_guard: advisory mode, treating the missing baseline as a skip");
                return None;
            }
            std::process::exit(2);
        }
        Err(e) => {
            eprintln!("bench_guard: cannot read {baseline_path}: {e}");
            std::process::exit(2);
        }
    };
    match Json::parse(&text) {
        Ok(d) => Some(d),
        Err(e) => {
            eprintln!("bench_guard: {baseline_path} is not valid JSON: {e}");
            std::process::exit(2);
        }
    }
}

/// The serve gate: replay the committed benchmark's exact traffic shape
/// against a fresh in-process daemon and compare throughput and tail
/// latency. One-sided like the Table 1 gate — only lost throughput or
/// grown p99 counts as a regression.
fn serve_gate(baseline_path: &str, tolerance: f64, advisory: bool) {
    let Some(doc) = load_baseline(
        baseline_path,
        advisory,
        &format!("cargo run --release -- loadgen --out {baseline_path}"),
    ) else {
        return;
    };
    let int_field = |key: &str| -> Option<i64> { doc.get(key).and_then(Json::as_i64) };
    let (Some(seed), Some(programs), Some(clients), Some(tenants), Some(queries)) = (
        int_field("seed"),
        int_field("programs"),
        int_field("clients"),
        int_field("tenants"),
        int_field("queries_per_client"),
    ) else {
        eprintln!("bench_guard: {baseline_path} is missing the traffic-shape fields");
        std::process::exit(2);
    };
    // Baselines from before pipelining default to the stop-and-wait
    // driver they were recorded with.
    let depth = int_field("pipeline_depth").unwrap_or(1);
    let (Some(committed_qps), Some(committed_p99)) = (
        doc.get("throughput_qps").and_then(Json::as_f64),
        doc.get("latency_us")
            .and_then(|l| l.get("p99"))
            .and_then(Json::as_f64),
    ) else {
        eprintln!("bench_guard: {baseline_path} is missing throughput_qps / latency_us.p99");
        std::process::exit(2);
    };

    eprintln!(
        "bench_guard: fresh loadgen run (seed {seed}, {programs} programs, {clients} clients, \
         {tenants} tenants, {queries} queries/client, depth {depth}) vs {baseline_path} \
         (tolerance {:.0}%)",
        tolerance * 100.0
    );
    let config = awam_serve::loadgen::LoadgenConfig {
        addr: None,
        programs: programs as usize,
        clients: clients as usize,
        queries: queries as usize,
        tenants: tenants as usize,
        seed: seed as u64,
        pipeline_depth: depth as usize,
    };
    let fresh = match awam_serve::loadgen::run_loadgen(&config) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("bench_guard: fresh loadgen run failed: {e}");
            std::process::exit(2);
        }
    };
    let (Some(fresh_qps), Some(fresh_p99)) = (
        fresh.get("throughput_qps").and_then(Json::as_f64),
        fresh
            .get("latency_us")
            .and_then(|l| l.get("p99"))
            .and_then(Json::as_f64),
    ) else {
        eprintln!("bench_guard: fresh loadgen summary is missing its metrics");
        std::process::exit(2);
    };

    println!(
        "{:<16} {:>14} {:>14} {:>8}",
        "metric", "committed", "fresh", "ratio"
    );
    println!(
        "{:<16} {:>14.0} {:>14.0} {:>8.2}",
        "throughput_qps",
        committed_qps,
        fresh_qps,
        fresh_qps / committed_qps
    );
    println!(
        "{:<16} {:>14.0} {:>14.0} {:>8.2}",
        "p99_us",
        committed_p99,
        fresh_p99,
        fresh_p99 / committed_p99
    );

    let mut regressions = Vec::new();
    if fresh_qps < committed_qps * (1.0 - tolerance) {
        regressions.push(format!(
            "throughput {fresh_qps:.0} q/s is {:.0}% below committed {committed_qps:.0} q/s",
            (1.0 - fresh_qps / committed_qps) * 100.0
        ));
    }
    if committed_p99 > 0.0 && fresh_p99 > committed_p99 * (1.0 + tolerance) {
        regressions.push(format!(
            "p99 {fresh_p99:.0} us is {:.0}% above committed {committed_p99:.0} us",
            (fresh_p99 / committed_p99 - 1.0) * 100.0
        ));
    }
    if regressions.is_empty() {
        eprintln!(
            "bench_guard: ok — serve throughput {fresh_qps:.0} q/s ({:+.0}%), p99 {fresh_p99:.0} us",
            (fresh_qps / committed_qps - 1.0) * 100.0
        );
        return;
    }
    for regression in &regressions {
        eprintln!(
            "bench_guard: SERVE REGRESSION — {regression} (tolerance {:.0}%)",
            tolerance * 100.0
        );
    }
    if advisory {
        eprintln!("bench_guard: advisory mode, reporting without failing the build");
    } else {
        std::process::exit(1);
    }
}

/// The incremental gate: re-run the incremental suite fresh and check
/// two things against the committed `BENCH_incremental.json`:
///
/// * the **headline claim** — the seeded repair re-runs < 25% of the
///   cold fixpoint iterations on every [`awam_bench::INCREMENTAL_HEADLINE`]
///   benchmark (this is the PR's acceptance bar, checked on the fresh
///   run, not the committed file);
/// * **no ratio regression** — no suite benchmark's fresh iteration
///   ratio grew past the committed one by more than the tolerance.
///
/// Both metrics are exploration *counters*, deterministic modulo
/// analyzer changes; wall times are printed for context but never
/// gated on (they are dominated by parse + compile on programs this
/// small).
fn incremental_gate(baseline_path: &str, tolerance: f64, advisory: bool) {
    let Some(doc) = load_baseline(
        baseline_path,
        advisory,
        &format!(
            "cargo run -p awam-bench --release --bin bench_incremental -- --json {baseline_path}"
        ),
    ) else {
        return;
    };
    let Json::Arr(committed) = &doc else {
        eprintln!("bench_guard: {baseline_path} is not a JSON array of rows");
        std::process::exit(2);
    };
    eprintln!(
        "bench_guard: fresh incremental-suite run vs {baseline_path} (tolerance {:.0}%)",
        tolerance * 100.0
    );
    let fresh = awam_bench::incremental_rows();
    println!(
        "{:<10} {:<14} {:>12} {:>10} {:>8} {:>8}",
        "bench", "leaf", "committed%", "fresh%", "exec%", "time%"
    );
    let mut regressions = Vec::new();
    for r in &fresh {
        let committed_ratio = committed
            .iter()
            .find(|row| row.get("name").and_then(Json::as_str) == Some(r.name))
            .and_then(|row| float_field(row, "iter_ratio"));
        println!(
            "{:<10} {:<14} {:>11.1}% {:>9.1}% {:>7.1}% {:>7.1}%",
            r.name,
            r.leaf,
            committed_ratio.map_or(f64::NAN, |c| c * 100.0),
            r.iter_ratio * 100.0,
            r.exec_ratio * 100.0,
            r.time_ratio * 100.0,
        );
        if awam_bench::INCREMENTAL_HEADLINE.contains(&r.name) && r.iter_ratio >= 0.25 {
            regressions.push(format!(
                "{}: repair ran {:.1}% of the cold fixpoint iterations — the headline \
                 < 25% claim no longer holds",
                r.name,
                r.iter_ratio * 100.0
            ));
        }
        match committed_ratio {
            Some(c) if r.iter_ratio > c * (1.0 + tolerance) => {
                regressions.push(format!(
                    "{}: iteration ratio {:.1}% is above committed {:.1}%",
                    r.name,
                    r.iter_ratio * 100.0,
                    c * 100.0
                ));
            }
            Some(_) => {}
            None => {
                regressions.push(format!(
                    "{}: no committed row in {baseline_path} — regenerate the baseline",
                    r.name
                ));
            }
        }
    }
    if regressions.is_empty() {
        eprintln!(
            "bench_guard: ok — incremental repair within tolerance on all {} benchmarks",
            fresh.len()
        );
        return;
    }
    for regression in &regressions {
        eprintln!("bench_guard: INCREMENTAL REGRESSION — {regression}");
    }
    if advisory {
        eprintln!("bench_guard: advisory mode, reporting without failing the build");
    } else {
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut baseline_path: Option<String> = None;
    let mut tolerance: Option<f64> = None;
    let mut advisory = false;
    let mut serve = false;
    let mut incremental = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--baseline" => {
                let Some(path) = it.next() else {
                    usage_error("--baseline needs a path");
                };
                baseline_path = Some(path.clone());
            }
            "--tolerance" => {
                let Some(raw) = it.next() else {
                    usage_error("--tolerance needs a fraction, e.g. 0.25");
                };
                let Ok(parsed) = raw.parse() else {
                    usage_error(&format!("--tolerance needs a fraction, got `{raw}`"));
                };
                tolerance = Some(parsed);
            }
            "--advisory" => advisory = true,
            "--serve" => serve = true,
            "--incremental" => incremental = true,
            other => usage_error(&format!("unknown flag {other}")),
        }
    }

    if incremental {
        incremental_gate(
            &baseline_path.unwrap_or_else(|| "BENCH_incremental.json".to_owned()),
            tolerance.unwrap_or(0.25),
            advisory,
        );
        return;
    }
    if serve {
        // Tail latency on a shared box is noisier than analysis time;
        // the serve gate defaults looser.
        serve_gate(
            &baseline_path.unwrap_or_else(|| "BENCH_serve.json".to_owned()),
            tolerance.unwrap_or(0.4),
            advisory,
        );
        return;
    }
    let baseline_path = baseline_path.unwrap_or_else(|| "BENCH_table1.json".to_owned());
    let tolerance = tolerance.unwrap_or(0.25);

    let text = match std::fs::read_to_string(&baseline_path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            eprintln!(
                "bench_guard: no committed baseline at {baseline_path} — nothing to compare \
                 against.\nbench_guard: create one with `cargo run -p awam-bench --release \
                 --bin table1 -- --json {baseline_path}` and commit it."
            );
            if advisory {
                eprintln!("bench_guard: advisory mode, treating the missing baseline as a skip");
                return;
            }
            std::process::exit(2);
        }
        Err(e) => {
            eprintln!("bench_guard: cannot read {baseline_path}: {e}");
            std::process::exit(2);
        }
    };
    let doc = match Json::parse(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("bench_guard: {baseline_path} is not valid JSON: {e}");
            std::process::exit(2);
        }
    };
    let committed: Vec<(String, f64)> = doc
        .as_arr()
        .unwrap_or(&[])
        .iter()
        .filter_map(|row| {
            Some((
                row.get("name")?.as_str()?.to_owned(),
                float_field(row, "compiled_us")?,
            ))
        })
        .collect();
    if committed.is_empty() {
        eprintln!("bench_guard: no rows with compiled_us in {baseline_path}");
        std::process::exit(2);
    }

    eprintln!(
        "bench_guard: fresh Table 1 run vs {} committed rows (tolerance {:.0}%)",
        committed.len(),
        tolerance * 100.0
    );
    let fresh = awam_bench::table1_rows();

    println!(
        "{:<12} {:>14} {:>14} {:>8}",
        "benchmark", "committed_us", "fresh_us", "ratio"
    );
    let mut committed_times = Vec::new();
    let mut fresh_times = Vec::new();
    for (name, committed_us) in &committed {
        let Some(row) = fresh.iter().find(|r| r.name == name) else {
            eprintln!("bench_guard: committed benchmark {name} missing from fresh run");
            std::process::exit(2);
        };
        committed_times.push(*committed_us);
        fresh_times.push(row.compiled_us);
        println!(
            "{:<12} {:>14.1} {:>14.1} {:>8.2}",
            name,
            committed_us,
            row.compiled_us,
            row.compiled_us / committed_us
        );
    }

    let committed_gm = geomean(&committed_times);
    let fresh_gm = geomean(&fresh_times);
    let ratio = fresh_gm / committed_gm;
    println!(
        "{:<12} {:>14.1} {:>14.1} {:>8.2}",
        "geomean", committed_gm, fresh_gm, ratio
    );

    if ratio > 1.0 + tolerance {
        eprintln!(
            "bench_guard: REGRESSION — fresh geomean {:.1} us is {:.0}% above committed {:.1} us \
             (tolerance {:.0}%)",
            fresh_gm,
            (ratio - 1.0) * 100.0,
            committed_gm,
            tolerance * 100.0
        );
        std::process::exit(1);
    }
    eprintln!(
        "bench_guard: ok — fresh geomean {:.1} us vs committed {:.1} us ({:+.0}%)",
        fresh_gm,
        committed_gm,
        (ratio - 1.0) * 100.0
    );
}
