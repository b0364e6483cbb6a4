//! `awam-perf`: the end-to-end and per-layer benchmark of awam.
//!
//! ```text
//! awam-perf --workload suite-cold|serve-mixed|edit-large --seed N \
//!           --seconds S --trace 0|1 [--corrupt-reference]
//! ```
//!
//! Inputs are generated from `--seed`; the program under test only ever
//! sees the generated inputs. An untraced run (`--trace 0`) measures the
//! named workload for `--seconds` and prints every end-to-end metric. A
//! traced run (`--trace 1`) records spans around the calls into each
//! layer and prints every per-layer metric; it runs the traced section of
//! all three workloads, a third of `--seconds` each, so that every layer
//! is measured on the workload that exercises it. Every output is checked
//! against an independent reference outside the timed region;
//! `--corrupt-reference` alters that reference, which must make the run
//! fail. The last line of standard output is the result object; the line
//! before it records the host fingerprint and sample counts. The exit
//! code is 0 only when every check passed. See README.md.
//!
//! `BENCHMARK.json` gates `suite-cold` and `edit-large` only. An
//! untraced `serve-mixed` run works the same way, but its figures swing
//! several-fold when the host steals CPU time, so it is not among the
//! gated workloads (README.md); its layers are measured in every traced
//! run.

mod edit_large;
mod reference;
mod serve_mixed;
mod stats;
mod suite_cold;
mod trace;

use awam_obs::Json;
use std::process::ExitCode;

/// The benchmark's contract. Its `end_to_end` and `per_layer` lists name
/// the metrics an untraced and a traced run print, with their units.
const CONTRACT: &str = include_str!("../../BENCHMARK.json");

const WORKLOADS: &[&str] = &["suite-cold", "serve-mixed", "edit-large"];

/// `(name, unit)` of every metric in the contract's `section`.
fn declared(section: &str) -> Vec<(String, String)> {
    let contract = Json::parse(CONTRACT).expect("BENCHMARK.json is valid JSON");
    let metrics = contract
        .get(section)
        .and_then(Json::as_arr)
        .expect("BENCHMARK.json lists the section's metrics");
    metrics
        .iter()
        .map(|m| {
            let field = |key: &str| {
                m.get(key)
                    .and_then(Json::as_str)
                    .expect("every metric has a name and a unit")
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// What one workload run was asked to do.
pub struct Config {
    /// Seed of every generated input.
    pub seed: u64,
    /// Wall-clock seconds to measure for.
    pub seconds: f64,
    /// Check against a deliberately wrong reference.
    pub corrupt: bool,
}

/// What one workload (or traced section) measured.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed, were refused, or returned a wrong result.
    pub failed: u64,
    /// Metric values by name (units come from `BENCHMARK.json`).
    pub metrics: Vec<(&'static str, f64)>,
    /// Sample counts and other context, printed before the result.
    pub notes: Vec<(String, String)>,
}

impl Outcome {
    fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.metrics.extend(other.metrics);
        self.notes.extend(other.notes);
    }

    /// Record a context note.
    pub fn note(&mut self, key: impl Into<String>, value: impl ToString) {
        self.notes.push((key.into(), value.to_string()));
    }
}

/// Record how many samples a tail figure rests on.
pub fn note_samples(outcome: &mut Outcome, samples: usize, tail_p: f64, tail_segments: usize) {
    outcome.note("samples", samples);
    outcome.note("tail_percentile", tail_p);
    outcome.note("tail_segments", tail_segments);
    outcome.note(
        "samples_beyond_tail_per_segment",
        stats::beyond(samples / tail_segments, tail_p),
    );
}

struct Args {
    workload: String,
    config: Config,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut corrupt = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--corrupt-reference" {
            corrupt = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_owned()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        config: Config {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            corrupt,
        },
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Run the traced section of every workload, a third of the time each.
fn traced(config: &Config) -> Result<Outcome, String> {
    let section = Config {
        seconds: config.seconds / 3.0,
        ..*config
    };
    let mut outcome = Outcome::default();
    outcome.absorb(suite_cold::traced(&section)?);
    outcome.absorb(serve_mixed::traced(&section)?);
    outcome.absorb(edit_large::traced(&section)?);
    let ratios: Vec<f64> = outcome
        .metrics
        .iter()
        .filter(|(name, _)| name.starts_with("trace.overhead_ratio."))
        .map(|&(_, v)| v)
        .collect();
    outcome
        .metrics
        .push(("trace.overhead_ratio", stats::geomean(&ratios)));
    Ok(outcome)
}

fn untraced(workload: &str, config: &Config) -> Result<Outcome, String> {
    let mut outcome = match workload {
        "suite-cold" => suite_cold::run(config)?,
        "serve-mixed" => serve_mixed::run(config)?,
        _ => edit_large::run(config)?,
    };
    let attempted = outcome.attempted.max(1);
    outcome.metrics.push((
        "success_rate",
        (attempted - outcome.failed.min(attempted)) as f64 / attempted as f64,
    ));
    outcome.metrics.push(("peak_rss_mb", stats::peak_rss_mb()));
    Ok(outcome)
}

fn json_str(s: &str) -> String {
    Json::Str(s.to_owned()).emit()
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`,
/// with every metric of `table` once, in table order.
fn result_line(outcome: &Outcome, table: &[(String, String)]) -> String {
    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let values: Vec<f64> = outcome
                .metrics
                .iter()
                .filter(|(n, _)| n == name)
                .map(|&(_, v)| v)
                .collect();
            assert_eq!(
                values.len(),
                1,
                "metric {name} must be measured exactly once"
            );
            assert!(values[0].is_finite(), "metric {name} is not finite");
            format!(
                r#"{}: {{"value": {:?}, "unit": {}}}"#,
                json_str(name),
                values[0],
                json_str(unit)
            )
        })
        .collect();
    for (name, _) in &outcome.metrics {
        assert!(
            table.iter().any(|(n, _)| n == name),
            "metric {name} is not declared"
        );
    }
    format!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("awam-perf: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.trace {
        traced(&args.config)
    } else {
        untraced(&args.workload, &args.config)
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("awam-perf: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let host: Vec<String> = stats::host_fingerprint()
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    let notes: Vec<String> = outcome
        .notes
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    println!(
        r#"{{"workload": {}, "seed": {}, "seconds": {}, "trace": {}, "host": {{{}}}, "notes": {{{}}}}}"#,
        json_str(&args.workload),
        args.config.seed,
        args.config.seconds,
        u8::from(args.trace),
        host.join(", "),
        notes.join(", ")
    );
    let section = if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    };
    println!("{}", result_line(&outcome, &declared(section)));
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "awam-perf: {} of {} operations failed their checks",
            outcome.failed, outcome.attempted
        );
        ExitCode::FAILURE
    }
}
