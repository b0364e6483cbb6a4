//! The independent references outputs are checked against.
//!
//! Analysis results are compared as extension tables: one line
//! `name/arity call -> success` per entry, sorted, read back from the
//! user-visible report text. For the Table 1 programs the reference is
//! the `baseline` crate's native meta-interpreter, which shares no
//! fixpoint code with the compiled analyzer. For generated programs it
//! is a cold in-process analysis, which shares no code with the serving
//! layer: the baseline overflows its stack on a cyclic unification such
//! as `f(0, X) = X`, which the generator emits (see README.md).

use baseline::BaselineAnalyzer;
use prolog_syntax::Program;

/// The baseline analyzer's extension table for `goal` with `specs`.
/// With `corrupt`, one entry is deliberately altered, so that every
/// check against this reference must fail.
pub fn baseline_table(
    program: &Program,
    goal: &str,
    specs: &[&str],
    corrupt: bool,
) -> Result<Vec<String>, String> {
    let mut native = BaselineAnalyzer::new(program).map_err(|e| e.to_string())?;
    let analysis = native
        .analyze_query(goal, specs)
        .map_err(|e| format!("baseline analysis of {goal}: {e}"))?;
    let names = native.interner();
    let mut lines: Vec<String> = analysis
        .predicates
        .iter()
        .flat_map(|pred| {
            pred.entries.iter().map(move |(call, success)| {
                let success = success
                    .as_ref()
                    .map_or_else(|| "fails".to_owned(), |s| s.display(names));
                format!("{} {} -> {}", pred.name, call.display(names), success)
            })
        })
        .collect();
    lines.sort();
    if corrupt {
        if let Some(first) = lines.first_mut() {
            first.push_str(" (corrupted)");
        }
    }
    Ok(lines)
}

/// The extension table of a cold analysis by the compiled analyzer, in
/// a fresh session, read back from its report. With `corrupt`, one entry
/// is altered as in [`baseline_table`].
pub fn cold_table(
    program: &Program,
    goal: &str,
    specs: &[&str],
    corrupt: bool,
) -> Result<Vec<String>, String> {
    let analyzer = awam_core::Analyzer::compile(program).map_err(|e| e.to_string())?;
    let analysis = analyzer
        .session()
        .analyze_query(goal, specs)
        .map_err(|e| format!("cold analysis of {goal}: {e}"))?;
    let mut lines = report_table(&analysis.report(&analyzer));
    if corrupt {
        if let Some(first) = lines.first_mut() {
            first.push_str(" (corrupted)");
        }
    }
    Ok(lines)
}

/// The extension table a rendered analysis report shows: the
/// `  call C  -->  S` lines under each `name/arity:` heading, as sorted
/// `name/arity C -> S` lines.
pub fn report_table(report: &str) -> Vec<String> {
    let mut lines = Vec::new();
    let mut pred = "";
    for line in report.lines() {
        if let Some(entry) = line.strip_prefix("  call ") {
            let (call, success) = entry.split_once("  -->  ").unwrap_or((entry, "?"));
            lines.push(format!("{pred} {call} -> {success}"));
        } else if !line.starts_with(' ') {
            if let Some(name) = line.strip_suffix(':') {
                pred = name;
            }
        }
    }
    lines.sort();
    lines
}

/// 64-bit FNV-1a of `text`.
pub fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A program's wire fingerprint (FNV-1a of its source, 16 hex digits),
/// computed here so that the hashes a daemon returns are checked against
/// an implementation of the benchmark's own.
pub fn fingerprint_hex(source: &str) -> String {
    format!("{:016x}", fnv1a(source))
}

/// The result section of a report — everything after the first blank
/// line; the header above it carries per-run counters, which differ
/// between a cold run and a warm session hit.
pub fn report_body(report: &str) -> &str {
    report.split_once("\n\n").map_or("", |(_, body)| body)
}

/// The still-escaped `report` string of a raw JSON response line, cut
/// to its result section, without parsing the line.
pub fn raw_report_body(line: &str) -> Option<&str> {
    let start = line.find(r#""report":""#)? + r#""report":""#.len();
    let rest = &line[start..];
    // The string ends at the first quote not escaped by a backslash.
    let bytes = rest.as_bytes();
    let mut end = None;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => {
                end = Some(i);
                break;
            }
            _ => i += 1,
        }
    }
    let report = &rest[..end?];
    Some(report.split_once(r"\n\n").map_or("", |(_, body)| body))
}

/// Undo JSON string escaping of a raw report section.
pub fn unescape(raw: &str) -> Option<String> {
    let doc = awam_obs::Json::parse(&format!("\"{raw}\"")).ok()?;
    doc.as_str().map(str::to_owned)
}

#[cfg(test)]
mod tests {
    use super::*;

    const REPORT: &str = "fixpoint in 2 iteration(s), 40 abstract instructions\n\
        extension table: 4 lookups (2 hits, 2 misses, 0 scan steps), 2 inserts, \
        2 summary updates (0 widenings, 0 version bumps)\n\
        \n\
        app/3:\n  call (glist, glist, var)  -->  (glist, glist, glist)\n  modes: (+, +, -g)\n";

    #[test]
    fn report_tables_match_the_baseline() {
        let program =
            prolog_syntax::parse_program("app([], L, L). app([H|T], L, [H|R]) :- app(T, L, R).")
                .unwrap();
        let reference = baseline_table(&program, "app", &["glist", "glist", "var"], false).unwrap();
        let analyzer = awam_core::Analyzer::compile(&program).unwrap();
        let analysis = analyzer
            .analyze_query("app", &["glist", "glist", "var"])
            .unwrap();
        assert_eq!(report_table(&analysis.report(&analyzer)), reference);
        let corrupt = baseline_table(&program, "app", &["glist", "glist", "var"], true).unwrap();
        assert_ne!(report_table(&analysis.report(&analyzer)), corrupt);
    }

    #[test]
    fn raw_report_sections_round_trip() {
        let line = awam_obs::Json::obj(vec![
            ("kind", awam_obs::Json::Str("analyze".to_owned())),
            ("report", awam_obs::Json::Str(REPORT.to_owned())),
            ("id", awam_obs::Json::Int(3)),
        ])
        .emit();
        let raw = raw_report_body(&line).unwrap();
        assert_eq!(unescape(raw).unwrap(), report_body(REPORT));
        assert_eq!(report_table(report_body(REPORT)).len(), 1);
    }

    #[test]
    fn fingerprint_matches_the_daemon() {
        let source = "p(a).";
        assert_eq!(
            fingerprint_hex(source),
            format!("{:016x}", awam_core::program_fingerprint(source))
        );
    }
}
