//! A textual format for compiled WAM programs.
//!
//! The paper's analyzer consumed WAM code *files* produced by the PLM
//! compiler ("The input WAM code programs are generated by the PLM Prolog
//! compiler"). This module reproduces that workflow: [`to_text`] writes a
//! [`CompiledProgram`] to a stable, line-oriented format and [`from_text`]
//! reads it back — so compilation and analysis can run as separate steps
//! (`awam compile --emit` / `awam analyze-wam`).
//!
//! The format is versioned and self-contained: it carries the symbol
//! table (whose well-known prefix is validated on load), the instruction
//! area with resolved code addresses, and the predicate table.

use crate::builtins::Builtin;
use crate::compile::{CompiledProgram, PredEntry};
use crate::instr::{Functor, Instr, Slot, WamConst};
use prolog_syntax::{Interner, PredKey, Symbol};
use std::collections::HashMap;
use std::fmt;
use std::fmt::Write as _;

const MAGIC: &str = "awam-wam-v1";

/// An error produced while reading the textual format.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TextError {
    /// Human-readable description.
    pub message: String,
    /// 1-based line number.
    pub line: usize,
}

impl fmt::Display for TextError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wam text error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TextError {}

/// Serialize a compiled program.
pub fn to_text(program: &CompiledProgram) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{MAGIC}");
    let _ = writeln!(out, "symbols {}", program.interner.len());
    for i in 0..program.interner.len() {
        let text = program.interner.resolve(Symbol::from_index(i));
        let _ = writeln!(out, "  {}", escape(text));
    }
    let _ = writeln!(out, "code {}", program.code.len());
    for instr in &program.code {
        let _ = writeln!(out, "  {}", instr_text(instr));
    }
    let _ = writeln!(out, "preds {}", program.predicates.len());
    for p in &program.predicates {
        let clauses: Vec<String> = p.clause_entries.iter().map(ToString::to_string).collect();
        let _ = writeln!(
            out,
            "  {} {} entry {} clauses {}",
            p.key.name.index(),
            p.key.arity,
            p.entry,
            clauses.join(",")
        );
    }
    out
}

/// Parse the textual format back into a compiled program.
///
/// # Errors
///
/// Returns [`TextError`] on malformed input or a well-known-symbol
/// mismatch (files from incompatible versions).
pub fn from_text(text: &str) -> Result<CompiledProgram, TextError> {
    let mut reader = Reader {
        lines: text.lines().enumerate(),
        current: 0,
    };
    let magic = reader.next_line()?;
    if magic != MAGIC {
        return Err(reader.error(format!("expected header {MAGIC}, found {magic}")));
    }

    // Symbols.
    let count = reader.expect_count("symbols")?;
    let mut interner = Interner::new();
    let well_known = interner.len();
    for i in 0..count {
        let line = reader.next_line()?;
        let text =
            unescape(line.trim()).map_err(|e| reader.error(format!("bad symbol literal: {e}")))?;
        if i < well_known {
            let expected = interner.resolve(Symbol::from_index(i)).to_owned();
            if text != expected {
                return Err(reader.error(format!(
                    "well-known symbol {i} mismatch: file has {text:?}, expected {expected:?}"
                )));
            }
        } else {
            let sym = interner.intern(&text);
            if sym.index() != i {
                return Err(reader.error(format!("duplicate symbol {text:?}")));
            }
        }
    }

    // Code.
    let count = reader.expect_count("code")?;
    let mut code = Vec::with_capacity(count);
    for _ in 0..count {
        let line = reader.next_line()?.trim().to_owned();
        code.push(parse_instr(&line, &reader)?);
    }

    // Predicates.
    let count = reader.expect_count("preds")?;
    let mut predicates = Vec::with_capacity(count);
    let mut pred_map = HashMap::new();
    for _ in 0..count {
        let line = reader.next_line()?.trim().to_owned();
        let mut parts = line.split_whitespace();
        let name: usize = reader.parse_field(parts.next(), "pred name")?;
        let arity: usize = reader.parse_field(parts.next(), "pred arity")?;
        if parts.next() != Some("entry") {
            return Err(reader.error("expected `entry`"));
        }
        let entry: usize = reader.parse_field(parts.next(), "entry address")?;
        if parts.next() != Some("clauses") {
            return Err(reader.error("expected `clauses`"));
        }
        let clause_entries: Vec<usize> = match parts.next() {
            Some(list) => list
                .split(',')
                .map(|s| s.parse().map_err(|_| reader.error("bad clause address")))
                .collect::<Result<_, _>>()?,
            None => return Err(reader.error("missing clause list")),
        };
        let key = PredKey {
            name: Symbol::from_index(name),
            arity,
        };
        pred_map.insert(key, predicates.len());
        predicates.push(PredEntry {
            key,
            entry,
            clause_entries,
        });
    }

    let program = CompiledProgram {
        code,
        predicates,
        pred_map,
        interner,
    };
    validate(&program).map_err(|message| TextError { message, line: 0 })?;
    Ok(program)
}

/// Structural sanity checks on a loaded program (addresses in range,
/// symbols resolvable).
fn validate(program: &CompiledProgram) -> Result<(), String> {
    let len = program.code.len();
    let check = |addr: usize, what: &str| {
        if addr >= len {
            Err(format!(
                "{what} address {addr} out of range ({len} instructions)"
            ))
        } else {
            Ok(())
        }
    };
    for p in &program.predicates {
        check(p.entry, "predicate entry")?;
        for &c in &p.clause_entries {
            check(c, "clause entry")?;
        }
        if p.key.name.index() >= program.interner.len() {
            return Err("predicate name symbol out of range".into());
        }
    }
    for instr in &program.code {
        match instr {
            Instr::TryMeElse(l)
            | Instr::RetryMeElse(l)
            | Instr::Try(l)
            | Instr::Retry(l)
            | Instr::Trust(l) => check(*l, "jump")?,
            Instr::SwitchOnTerm {
                var,
                con,
                lis,
                str_,
            } => {
                check(*var, "switch")?;
                check(*con, "switch")?;
                check(*lis, "switch")?;
                check(*str_, "switch")?;
            }
            Instr::SwitchOnConstant(t) => {
                for (_, l) in t {
                    check(*l, "switch")?;
                }
            }
            Instr::SwitchOnStructure(t) => {
                for (_, l) in t {
                    check(*l, "switch")?;
                }
            }
            Instr::Call(p) | Instr::Execute(p) if *p >= program.predicates.len() => {
                return Err(format!("call target {p} out of range"));
            }
            _ => {}
        }
    }
    Ok(())
}

// ----- instruction serialization -----

fn slot_text(s: Slot) -> String {
    match s {
        Slot::X(n) => format!("x{n}"),
        Slot::Y(n) => format!("y{n}"),
    }
}

fn const_text(c: WamConst) -> String {
    match c {
        WamConst::Atom(a) => format!("atom:{}", a.index()),
        WamConst::Int(i) => format!("int:{i}"),
    }
}

fn functor_text(f: Functor) -> String {
    format!("{}/{}", f.name.index(), f.arity)
}

fn instr_text(i: &Instr) -> String {
    use Instr::*;
    match i {
        GetVariable(s, a) => format!("get_variable {} {a}", slot_text(*s)),
        GetValue(s, a) => format!("get_value {} {a}", slot_text(*s)),
        GetConstant(c, a) => format!("get_constant {} {a}", const_text(*c)),
        GetList(a) => format!("get_list {a}"),
        GetStructure(f, a) => format!("get_structure {} {a}", functor_text(*f)),
        PutVariable(s, a) => format!("put_variable {} {a}", slot_text(*s)),
        PutValue(s, a) => format!("put_value {} {a}", slot_text(*s)),
        PutConstant(c, a) => format!("put_constant {} {a}", const_text(*c)),
        PutList(a) => format!("put_list {a}"),
        PutStructure(f, a) => format!("put_structure {} {a}", functor_text(*f)),
        UnifyVariable(s) => format!("unify_variable {}", slot_text(*s)),
        UnifyValue(s) => format!("unify_value {}", slot_text(*s)),
        UnifyConstant(c) => format!("unify_constant {}", const_text(*c)),
        UnifyVoid(n) => format!("unify_void {n}"),
        Allocate(n) => format!("allocate {n}"),
        Deallocate => "deallocate".into(),
        Call(p) => format!("call {p}"),
        Execute(p) => format!("execute {p}"),
        Proceed => "proceed".into(),
        CallBuiltin(b) => format!("builtin {}", builtin_name(*b)),
        NeckCut => "neck_cut".into(),
        GetLevel(y) => format!("get_level {y}"),
        CutLevel(y) => format!("cut_level {y}"),
        TryMeElse(l) => format!("try_me_else {l}"),
        RetryMeElse(l) => format!("retry_me_else {l}"),
        TrustMe => "trust_me".into(),
        Try(l) => format!("try {l}"),
        Retry(l) => format!("retry {l}"),
        Trust(l) => format!("trust {l}"),
        SwitchOnTerm {
            var,
            con,
            lis,
            str_,
        } => {
            format!("switch_on_term {var} {con} {lis} {str_}")
        }
        SwitchOnConstant(t) => {
            let entries: Vec<String> = t
                .iter()
                .map(|(c, l)| format!("{}={l}", const_text(*c)))
                .collect();
            format!("switch_on_constant {}", entries.join(" "))
        }
        SwitchOnStructure(t) => {
            let entries: Vec<String> = t
                .iter()
                .map(|(f, l)| format!("{}={l}", functor_text(*f)))
                .collect();
            format!("switch_on_structure {}", entries.join(" "))
        }
        Fail => "fail".into(),
    }
}

fn builtin_name(b: Builtin) -> String {
    // Builtins are keyed by their source name + arity.
    format!("{}/{}", escape(b.name()), b.arity())
}

struct Reader<'a> {
    lines: std::iter::Enumerate<std::str::Lines<'a>>,
    current: usize,
}

impl Reader<'_> {
    fn next_line(&mut self) -> Result<String, TextError> {
        loop {
            match self.lines.next() {
                Some((n, line)) => {
                    self.current = n + 1;
                    let trimmed = line.trim();
                    if trimmed.is_empty() || trimmed.starts_with('#') {
                        continue;
                    }
                    return Ok(trimmed.to_owned());
                }
                None => {
                    return Err(TextError {
                        message: "unexpected end of file".into(),
                        line: self.current,
                    })
                }
            }
        }
    }

    fn error(&self, message: impl Into<String>) -> TextError {
        TextError {
            message: message.into(),
            line: self.current,
        }
    }

    fn expect_count(&mut self, section: &str) -> Result<usize, TextError> {
        let line = self.next_line()?;
        let rest = match line.strip_prefix(section) {
            Some(rest) => rest.trim().to_owned(),
            None => {
                return Err(TextError {
                    message: format!("expected `{section} <count>`, found {line:?}"),
                    line: self.current,
                })
            }
        };
        rest.parse()
            .map_err(|_| self.error(format!("bad count in `{section}` header")))
    }

    fn parse_field<T: std::str::FromStr>(
        &self,
        field: Option<&str>,
        what: &str,
    ) -> Result<T, TextError> {
        field
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| self.error(format!("missing or malformed {what}")))
    }
}

fn parse_instr(line: &str, reader: &Reader<'_>) -> Result<Instr, TextError> {
    let mut parts = line.split_whitespace();
    let op = parts
        .next()
        .ok_or_else(|| reader.error("empty instruction"))?;
    let rest: Vec<&str> = parts.collect();
    let slot = |s: &str| -> Result<Slot, TextError> {
        let (kind, n) = s.split_at(1);
        let n: u16 = n
            .parse()
            .map_err(|_| reader.error(format!("bad slot {s:?}")))?;
        match kind {
            "x" => Ok(Slot::X(n)),
            "y" => Ok(Slot::Y(n)),
            _ => Err(reader.error(format!("bad slot {s:?}"))),
        }
    };
    let constant = |s: &str| -> Result<WamConst, TextError> {
        if let Some(i) = s.strip_prefix("int:") {
            return Ok(WamConst::Int(i.parse().map_err(|_| {
                reader.error(format!("bad integer constant {s:?}"))
            })?));
        }
        if let Some(i) = s.strip_prefix("atom:") {
            let idx: usize = i
                .parse()
                .map_err(|_| reader.error(format!("bad atom constant {s:?}")))?;
            return Ok(WamConst::Atom(Symbol::from_index(idx)));
        }
        Err(reader.error(format!("bad constant {s:?}")))
    };
    let functor = |s: &str| -> Result<Functor, TextError> {
        let (name, arity) = s
            .rsplit_once('/')
            .ok_or_else(|| reader.error(format!("bad functor {s:?}")))?;
        Ok(Functor {
            name: Symbol::from_index(
                name.parse()
                    .map_err(|_| reader.error(format!("bad functor {s:?}")))?,
            ),
            arity: arity
                .parse()
                .map_err(|_| reader.error(format!("bad functor {s:?}")))?,
        })
    };
    let num = |s: Option<&&str>, what: &str| -> Result<usize, TextError> {
        s.and_then(|s| s.parse().ok())
            .ok_or_else(|| reader.error(format!("missing {what}")))
    };
    let num16 = |s: Option<&&str>, what: &str| -> Result<u16, TextError> {
        s.and_then(|s| s.parse().ok())
            .ok_or_else(|| reader.error(format!("missing {what}")))
    };

    use Instr::*;
    let instr = match op {
        "get_variable" => GetVariable(slot(rest[0])?, num16(rest.get(1), "arg")?),
        "get_value" => GetValue(slot(rest[0])?, num16(rest.get(1), "arg")?),
        "get_constant" => GetConstant(constant(rest[0])?, num16(rest.get(1), "arg")?),
        "get_list" => GetList(num16(rest.first(), "arg")?),
        "get_structure" => GetStructure(functor(rest[0])?, num16(rest.get(1), "arg")?),
        "put_variable" => PutVariable(slot(rest[0])?, num16(rest.get(1), "arg")?),
        "put_value" => PutValue(slot(rest[0])?, num16(rest.get(1), "arg")?),
        "put_constant" => PutConstant(constant(rest[0])?, num16(rest.get(1), "arg")?),
        "put_list" => PutList(num16(rest.first(), "arg")?),
        "put_structure" => PutStructure(functor(rest[0])?, num16(rest.get(1), "arg")?),
        "unify_variable" => UnifyVariable(slot(rest[0])?),
        "unify_value" => UnifyValue(slot(rest[0])?),
        "unify_constant" => UnifyConstant(constant(rest[0])?),
        "unify_void" => UnifyVoid(num16(rest.first(), "count")?),
        "allocate" => Allocate(num16(rest.first(), "size")?),
        "deallocate" => Deallocate,
        "call" => Call(num(rest.first(), "target")?),
        "execute" => Execute(num(rest.first(), "target")?),
        "proceed" => Proceed,
        "builtin" => {
            let spec = rest
                .first()
                .ok_or_else(|| reader.error("missing builtin name"))?;
            let (name, arity) = spec
                .rsplit_once('/')
                .ok_or_else(|| reader.error("bad builtin spec"))?;
            let name = unescape(name).map_err(|e| reader.error(e))?;
            let arity: usize = arity
                .parse()
                .map_err(|_| reader.error("bad builtin arity"))?;
            let b = Builtin::lookup(&name, arity)
                .ok_or_else(|| reader.error(format!("unknown builtin {name}/{arity}")))?;
            CallBuiltin(b)
        }
        "neck_cut" => NeckCut,
        "get_level" => GetLevel(num16(rest.first(), "slot")?),
        "cut_level" => CutLevel(num16(rest.first(), "slot")?),
        "try_me_else" => TryMeElse(num(rest.first(), "label")?),
        "retry_me_else" => RetryMeElse(num(rest.first(), "label")?),
        "trust_me" => TrustMe,
        "try" => Try(num(rest.first(), "label")?),
        "retry" => Retry(num(rest.first(), "label")?),
        "trust" => Trust(num(rest.first(), "label")?),
        "switch_on_term" => SwitchOnTerm {
            var: num(rest.first(), "label")?,
            con: num(rest.get(1), "label")?,
            lis: num(rest.get(2), "label")?,
            str_: num(rest.get(3), "label")?,
        },
        "switch_on_constant" => {
            let mut table = Vec::new();
            for entry in &rest {
                let (c, l) = entry
                    .rsplit_once('=')
                    .ok_or_else(|| reader.error("bad switch entry"))?;
                table.push((
                    constant(c)?,
                    l.parse().map_err(|_| reader.error("bad switch label"))?,
                ));
            }
            SwitchOnConstant(table)
        }
        "switch_on_structure" => {
            let mut table = Vec::new();
            for entry in &rest {
                let (f, l) = entry
                    .rsplit_once('=')
                    .ok_or_else(|| reader.error("bad switch entry"))?;
                table.push((
                    functor(f)?,
                    l.parse().map_err(|_| reader.error("bad switch label"))?,
                ));
            }
            SwitchOnStructure(table)
        }
        "fail" => Fail,
        other => return Err(reader.error(format!("unknown opcode {other:?}"))),
    };
    Ok(instr)
}

fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            other => out.push(other),
        }
    }
    out.push('"');
    out
}

fn unescape(text: &str) -> Result<String, String> {
    let inner = text
        .strip_prefix('"')
        .and_then(|t| t.strip_suffix('"'))
        .ok_or_else(|| format!("expected quoted literal, found {text:?}"))?;
    let mut out = String::with_capacity(inner.len());
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                other => return Err(format!("bad escape \\{other:?}")),
            }
        } else {
            out.push(c);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile_program;
    use prolog_syntax::parse_program;

    fn roundtrip(src: &str) {
        let program = parse_program(src).unwrap();
        let compiled = compile_program(&program).unwrap();
        let text = to_text(&compiled);
        let back = from_text(&text).unwrap_or_else(|e| panic!("{e}\n---\n{text}"));
        assert_eq!(compiled.code, back.code, "code differs for {src:?}");
        assert_eq!(
            compiled.predicates.len(),
            back.predicates.len(),
            "pred count"
        );
        for (a, b) in compiled.predicates.iter().zip(&back.predicates) {
            assert_eq!(a.key, b.key);
            assert_eq!(a.entry, b.entry);
            assert_eq!(a.clause_entries, b.clause_entries);
        }
        assert_eq!(compiled.interner.len(), back.interner.len());
        for i in 0..compiled.interner.len() {
            let s = Symbol::from_index(i);
            assert_eq!(compiled.interner.resolve(s), back.interner.resolve(s));
        }
    }

    #[test]
    fn simple_programs_round_trip() {
        roundtrip("p(a).");
        roundtrip("app([], L, L). app([H|T], L, [H|R]) :- app(T, L, R).");
        roundtrip("f(1, 'hello world', [x|Y]) :- g(Y), Y = [a, \"AB\"], \\+ f(1, x, Y). g(_).");
        roundtrip("t(X) :- (X = 1 -> a ; b). a. b.");
    }

    #[test]
    fn builtins_round_trip() {
        roundtrip("p(X, Y) :- Y is X + 1, X < Y, X =< Y, X == X, X @< Y, nonvar(X).");
    }

    #[test]
    fn header_is_checked() {
        assert!(from_text("bogus").is_err());
        assert!(from_text("").is_err());
    }

    #[test]
    fn addresses_are_validated() {
        let program = parse_program("p(a).").unwrap();
        let compiled = compile_program(&program).unwrap();
        let text = to_text(&compiled);
        // Corrupt a predicate entry address.
        let corrupted = text.replace("entry 0", "entry 999");
        assert!(from_text(&corrupted).is_err());
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let program = parse_program("p(a).").unwrap();
        let compiled = compile_program(&program).unwrap();
        let text = format!("# banner\n\n{}", to_text(&compiled));
        assert!(from_text(&text).is_ok());
    }
}
