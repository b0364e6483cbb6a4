//! `serve-mixed`: the data plane of `awam serve` under a read-mostly mix.
//!
//! An in-process daemon (`Server::bind(..).spawn()`, default
//! `ServeConfig`) holds a seeded corpus of generated programs, built the
//! way `awam loadgen` builds it. The traffic is 90% `analyze` with
//! loadgen's hot-set skew (half the reads go to the hottest tenth of the
//! corpus), 2% `register` of programs not seen before and 8% `update`
//! of a corpus program to another of its versions: the original or one
//! of two seeded `gen_edit`s. The split of the writes is an assumption;
//! no recorded traffic backs it (README.md). Generated programs run a
//! handful of abstract instructions and most reads are warm pool hits,
//! so protocol, cache, pools, JSON and sockets do most of the work.
//!
//! Each request stream tracks the version of every program it last
//! updated to, and reads a program at that version, so the sessions an
//! update migrates are read afterwards. An `update` carries no id: the
//! daemon treats it as an ordering barrier, so the reads sent after it
//! on the same connection find the new version compiled.
//!
//! Load comes from this process with at most two threads and two
//! connections: a closed-loop saturation phase on two connections with
//! id-tagged pipelining gives `ops_per_s`; an open-loop phase at one
//! fixed rate, on one connection with a writer and a reader thread,
//! gives latency, timed from each request's due time. The two phases
//! alternate in ten segments each.
//!
//! Both phases send a fixed number of requests, set by `--seconds` and
//! the constants below, so the work done — and with it the number of
//! programs the daemon holds, which sets its memory — does not depend on
//! how fast the daemon is.

use crate::reference::{cold_table, fingerprint_hex, raw_report_body, report_table, unescape};
use crate::stats::{interquartile_mean, median, percentile, ratio, segmented, tail, SEGMENTS};
use crate::trace::{median_self_us, NoSpans, Recorder, Spans};
use crate::{note_samples, Config, Outcome};
use awam_core::{migrate_parts, program_fingerprint, Analyzer, AnalyzerBuilder, Session};
use awam_obs::{envelope, Json};
use awam_serve::cache::CompileFailed;
use awam_serve::protocol::{attach_id, hash_hex};
use awam_serve::{parse_request, Client, ProgramCache, ProgramRef, Request, ServeConfig, Server};
use awam_serve::{ServerHandle, SessionPool};
use awam_testkit::{gen_edit, gen_program, GenConfig, Rng};
use prolog_syntax::parse_program;
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Programs in the registered corpus.
const PROGRAMS: usize = 200;

/// Seeded edits per corpus program; with the original, each program
/// has one version more than this.
const EDITS_PER_PROGRAM: usize = 2;

/// Tenants the requests are spread over.
const TENANTS: u64 = 2;

/// Requests a closed-loop connection keeps in flight.
const WINDOW: usize = 16;

/// Closed-loop requests per second at the commit this benchmark was
/// added at, on the host named in README.md: sizes the closed-loop
/// phases (a `--seconds` share times this many requests).
const NOMINAL_OPS_PER_S: f64 = 24_000.0;

/// Open-loop arrival rate, requests per second, fixed once so that
/// latency is always measured at the same offered load: about a quarter
/// of the closed-loop capacity above. At higher rates the open loop's
/// single connection built queues whenever the shared host slowed, and
/// p99 swung between runs (README.md).
const RATE: f64 = 5_000.0;

/// Shares of `--seconds` given to the warm-up, saturation and open-loop
/// phases of an untraced run.
const WARMUP_SHARE: f64 = 0.05;
const SATURATION_SHARE: f64 = 0.35;
const OPEN_LOOP_SHARE: f64 = 0.6;

/// The tail percentile reported, and the segments its median is taken
/// over: the open loop of a committed run collects 90,000 samples, so
/// each of 30 segments keeps 150 beyond p95. p99 would qualify too, but
/// it falls in the tail of the write requests, where the shared host's
/// slow spells land: it read 0.54–0.98 ms for one seed from run to run,
/// beyond the metric's bound (README.md).
const TAIL: f64 = 95.0;
const TAIL_SEGMENTS: usize = 30;

/// Spare daemons started and stopped before each saturation segment.
/// `setup_s` is the median set-up time of these and of the daemon the
/// run uses (21 set-ups), spread over the run so that it samples the
/// host as the ops do.
const SPARE_SETUPS: usize = 2;

/// How long a client waits on a blocked read or write.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// One version of a corpus program: the original, or one of its edits.
struct Version {
    hex: String,
    /// The source as a JSON string, as an update request carries it.
    source_json: String,
    /// `"program":"<hex>"` as an analyze response carries it.
    program_field: String,
    reference: Vec<String>,
}

struct CorpusProgram {
    /// The original source, registered at set-up.
    source: String,
    /// The `entry` array of an analyze request: `"any"` per argument.
    entry: String,
    /// The original first, then each seeded edit of it.
    versions: Vec<Version>,
}

struct Corpus {
    programs: Vec<CorpusProgram>,
}

impl Corpus {
    fn generate(config: &Config) -> Result<Corpus, String> {
        let mut rng = Rng::new(config.seed);
        let mut edit_rng = Rng::new(config.seed ^ 0xed17_5eed);
        let gen = GenConfig::default();
        let mut programs = Vec::with_capacity(PROGRAMS);
        while programs.len() < PROGRAMS {
            let generated = gen_program(&mut rng, &gen);
            let source = generated.source();
            let arity = generated.entry_arity();
            let program = parse_program(&source).map_err(|e| e.to_string())?;
            let specs = vec!["any"; arity];
            let version = |source: &str| -> Result<Version, String> {
                let program = parse_program(source).map_err(|e| e.to_string())?;
                let hex = fingerprint_hex(source);
                Ok(Version {
                    source_json: Json::Str(source.to_owned()).emit(),
                    program_field: format!(r#""program":"{hex}""#),
                    reference: cold_table(&program, "p0", &specs, config.corrupt)?,
                    hex,
                })
            };
            let mut versions = vec![version(&source)?];
            while versions.len() <= EDITS_PER_PROGRAM {
                // gen_edit never removes the entry predicate `p0`.
                let edited = gen_edit(&mut edit_rng, &program)
                    .apply(&program)
                    .map_err(|e| e.to_string())?;
                versions.push(version(&edited)?);
            }
            programs.push(CorpusProgram {
                entry: specs
                    .iter()
                    .map(|s| format!("\"{s}\""))
                    .collect::<Vec<_>>()
                    .join(","),
                source,
                versions,
            });
        }
        Ok(Corpus { programs })
    }
}

/// One request of the mix.
enum Op {
    Analyze {
        program: usize,
        version: usize,
        tenant: u64,
    },
    Register {
        line_prefix: String,
        expect: String,
    },
    Update {
        program: usize,
        from: usize,
        to: usize,
    },
}

impl Op {
    /// Whether the request is sent without an id, as an ordering barrier.
    fn is_barrier(&self) -> bool {
        matches!(self, Op::Update { .. })
    }
}

/// A seeded request stream; each connection or phase owns one.
struct Stream {
    rng: Rng,
    /// The version of each program this stream last updated it to.
    current: Vec<usize>,
}

impl Stream {
    fn new(seed: u64, stream: u64, corpus: &Corpus) -> Stream {
        Stream {
            rng: Rng::new(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
            current: vec![0; corpus.programs.len()],
        }
    }

    fn next(&mut self, corpus: &Corpus) -> Op {
        let n = corpus.programs.len() as u64;
        let tenant = self.rng.below(TENANTS);
        match self.rng.below(100) {
            0..=89 => {
                // loadgen's skew: half the reads hit the hottest tenth.
                let program = if self.rng.below(2) == 0 {
                    self.rng.below(n.div_ceil(10))
                } else {
                    self.rng.below(n)
                } as usize;
                Op::Analyze {
                    program,
                    version: self.current[program],
                    tenant,
                }
            }
            90..=91 => {
                let source = gen_program(&mut self.rng, &GenConfig::default()).source();
                let hex = fingerprint_hex(&source);
                Op::Register {
                    line_prefix: format!(
                        r#"{{"op":"register","tenant":"t{tenant}","program":{}"#,
                        Json::Str(source).emit()
                    ),
                    expect: format!(
                        r#"{{"schema":"awam/v1","kind":"register","ok":true,"program":"{hex}""#
                    ),
                }
            }
            _ => {
                let program = self.rng.below(n) as usize;
                let from = self.current[program];
                let to = (from + 1 + self.rng.below(EDITS_PER_PROGRAM as u64) as usize)
                    % (EDITS_PER_PROGRAM + 1);
                self.current[program] = to;
                Op::Update { program, from, to }
            }
        }
    }
}

/// Append `op`'s request line to `out`, tagged with `id` unless it is a
/// barrier.
fn render(op: &Op, id: u64, corpus: &Corpus, out: &mut Vec<u8>) {
    match op {
        Op::Analyze {
            program,
            version,
            tenant,
        } => {
            let p = &corpus.programs[*program];
            write!(
                out,
                r#"{{"op":"analyze","tenant":"t{tenant}","program":"{}","goal":"p0","entry":[{}],"reuse":true,"id":{id}}}"#,
                p.versions[*version].hex, p.entry
            )
        }
        Op::Register { line_prefix, .. } => write!(out, r#"{line_prefix},"id":{id}}}"#),
        Op::Update { program, from, to } => {
            let versions = &corpus.programs[*program].versions;
            write!(
                out,
                r#"{{"op":"update","program":"{}","source":{}}}"#,
                versions[*from].hex, versions[*to].source_json
            )
        }
    }
    .and_then(|()| writeln!(out))
    .expect("writing to a Vec cannot fail");
}

const ANALYZE_OK: &str = r#"{"schema":"awam/v1","kind":"analyze","ok":true,"#;
const UPDATE_OK: &str = r#"{"schema":"awam/v1","kind":"update","ok":true,"#;

/// Response checks. Analyze results are compared against the reference
/// table after the run: each distinct report section a program's
/// responses carried is kept once, with the number of responses that
/// carried it.
#[derive(Default)]
struct Tally {
    ok: u64,
    failed: u64,
    analyzes: u64,
    registers: u64,
    updates: u64,
    /// Report sections by `(program, version)`.
    bodies: HashMap<(usize, usize), Vec<(String, u64)>>,
}

impl Tally {
    fn check(&mut self, op: &Op, line: &str, corpus: &Corpus) {
        let good = match op {
            Op::Analyze {
                program, version, ..
            } => {
                self.analyzes += 1;
                let v = &corpus.programs[*program].versions[*version];
                match raw_report_body(line) {
                    Some(body)
                        if line.starts_with(ANALYZE_OK) && line.contains(&v.program_field) =>
                    {
                        let seen = self.bodies.entry((*program, *version)).or_default();
                        match seen.iter_mut().find(|(b, _)| b == body) {
                            Some((_, count)) => *count += 1,
                            None => seen.push((body.to_owned(), 1)),
                        }
                        // Counted once the body is verified.
                        return;
                    }
                    _ => false,
                }
            }
            Op::Register { expect, .. } => {
                self.registers += 1;
                line.starts_with(expect.as_str())
            }
            Op::Update { program, from, to } => {
                self.updates += 1;
                let versions = &corpus.programs[*program].versions;
                line.strip_prefix(UPDATE_OK).is_some_and(|rest| {
                    rest.starts_with(&versions[*to].program_field)
                        && rest.contains(&format!(r#""previous":"{}""#, versions[*from].hex))
                })
            }
        };
        if good {
            self.ok += 1;
        } else {
            self.failed += 1;
        }
    }

    fn merge(&mut self, other: Tally) {
        self.ok += other.ok;
        self.failed += other.failed;
        self.analyzes += other.analyzes;
        self.registers += other.registers;
        self.updates += other.updates;
        for (key, bodies) in other.bodies {
            let seen = self.bodies.entry(key).or_default();
            for (body, count) in bodies {
                match seen.iter_mut().find(|(b, _)| *b == body) {
                    Some((_, c)) => *c += count,
                    None => seen.push((body, count)),
                }
            }
        }
    }

    /// Verify every kept report section against the reference; returns
    /// `(ok, failed)` over all responses. A report must show every entry
    /// of the reference table, unchanged. It may show more: a session an
    /// update migrated keeps the entries of the old version that the
    /// goal no longer reaches, as `Workspace` does (its `core_dump`
    /// projects them away).
    fn settle(&self, corpus: &Corpus) -> (u64, u64) {
        let (mut ok, mut failed) = (self.ok, self.failed);
        for (&(program, version), bodies) in &self.bodies {
            let reference = &corpus.programs[program].versions[version].reference;
            for (body, count) in bodies {
                let right = unescape(body).is_some_and(|b| {
                    let table = report_table(&b);
                    reference
                        .iter()
                        .all(|entry| table.binary_search(entry).is_ok())
                });
                if right {
                    ok += count;
                } else {
                    failed += count;
                }
            }
        }
        (ok, failed)
    }
}

/// The echoed id of a response line (the daemon appends it last).
fn response_id(line: &str) -> Option<u64> {
    let at = line.rfind(r#","id":"#)? + r#","id":"#.len();
    line[at..].trim_end().trim_end_matches('}').parse().ok()
}

/// The index of the request a response answers: its echoed id, or, for
/// a response without one, the oldest unanswered barrier (the daemon
/// answers barriers in the order they were sent).
fn answered(line: &str, barriers: &mut VecDeque<usize>) -> Option<usize> {
    match response_id(line) {
        Some(id) => Some(id as usize),
        None => barriers.pop_front(),
    }
}

/// A client connection; a daemon that stops answering or reading for
/// [`IO_TIMEOUT`] fails the run instead of hanging it.
fn connect(addr: &str) -> Result<(TcpStream, BufReader<TcpStream>), String> {
    let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(IO_TIMEOUT))
        .map_err(|e| e.to_string())?;
    stream
        .set_write_timeout(Some(IO_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    Ok((stream, reader))
}

/// Start a daemon and register the corpus; returns it with the seconds
/// that took.
fn start_server(corpus: &Corpus) -> Result<(ServerHandle, f64), String> {
    let started = Instant::now();
    let server = Server::bind("127.0.0.1:0", ServeConfig::default())
        .map_err(|e| e.to_string())?
        .spawn();
    let mut client = Client::connect(&server.addr().to_string()).map_err(|e| e.to_string())?;
    for p in &corpus.programs {
        let response = client
            .register("setup", &p.source)
            .map_err(|e| e.to_string())?;
        if response.get("program").and_then(Json::as_str) != Some(p.versions[0].hex.as_str()) {
            return Err(format!("register returned {}", response.emit()));
        }
    }
    Ok((server, started.elapsed().as_secs_f64()))
}

fn stop_server(server: ServerHandle) {
    if let Ok(mut client) = Client::connect(&server.addr().to_string()) {
        drop(client.shutdown());
    }
    server.shutdown();
}

/// Closed loop: `requests` split over two connections; returns the
/// responses received and the seconds from start to the last one.
fn closed_loop(
    addr: &str,
    corpus: &Corpus,
    streams: &mut [Stream; 2],
    requests: usize,
    tally: &mut Tally,
) -> Result<(u64, f64), String> {
    let started = Instant::now();
    let results: Vec<Result<(u64, Tally), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter_mut()
            .map(|stream| {
                scope.spawn(move || -> Result<(u64, Tally), String> {
                    let (mut writer, mut reader) = connect(addr)?;
                    let mut tally = Tally::default();
                    let mut window: Vec<Op> = Vec::with_capacity(WINDOW);
                    let mut barriers = VecDeque::new();
                    let mut buf = Vec::new();
                    let mut line = String::new();
                    let mut done = 0u64;
                    let mut left = requests.div_ceil(2);
                    while left > 0 {
                        window.clear();
                        buf.clear();
                        for id in 0..WINDOW.min(left) {
                            let op = stream.next(corpus);
                            render(&op, id as u64, corpus, &mut buf);
                            if op.is_barrier() {
                                barriers.push_back(id);
                            }
                            window.push(op);
                        }
                        left -= window.len();
                        writer.write_all(&buf).map_err(|e| e.to_string())?;
                        for _ in 0..window.len() {
                            line.clear();
                            reader.read_line(&mut line).map_err(|e| e.to_string())?;
                            match answered(&line, &mut barriers).and_then(|id| window.get(id)) {
                                Some(op) => tally.check(op, &line, corpus),
                                None => tally.failed += 1,
                            }
                            done += 1;
                        }
                    }
                    Ok((done, tally))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop client thread panicked"))
            .collect()
    });
    let elapsed = started.elapsed().as_secs_f64();
    let mut done = 0;
    for result in results {
        let (n, t) = result?;
        done += n;
        tally.merge(t);
    }
    Ok((done, elapsed))
}

/// What the open loop measured.
#[derive(Default)]
struct OpenLoop {
    latencies_us: Vec<f64>,
    late_us: Vec<f64>,
    sent: u64,
}

impl OpenLoop {
    fn absorb(&mut self, other: OpenLoop) {
        self.latencies_us.extend(other.latencies_us);
        self.late_us.extend(other.late_us);
        self.sent += other.sent;
    }
}

/// Open loop: `ops` sent at `RATE` on one connection by a writer thread
/// while this thread reads the responses.
fn open_loop(
    addr: &str,
    corpus: &Corpus,
    ops: &[Op],
    tally: &mut Tally,
) -> Result<OpenLoop, String> {
    let (mut writer, mut reader) = connect(addr)?;
    let start = Instant::now() + Duration::from_millis(2);
    let due = |i: usize| start + Duration::from_secs_f64(i as f64 / RATE);
    let mut latencies_us = Vec::with_capacity(ops.len());
    let mut barriers: VecDeque<usize> = (0..ops.len()).filter(|&i| ops[i].is_barrier()).collect();
    let late_us = std::thread::scope(|scope| -> Result<Vec<f64>, String> {
        let sender = scope.spawn(move || -> Result<Vec<f64>, String> {
            let mut late = Vec::with_capacity(ops.len());
            let mut buf = Vec::new();
            let mut next = 0;
            while next < ops.len() {
                let now = Instant::now();
                let at = due(next);
                if at > now {
                    std::thread::sleep(at - now);
                }
                // Send everything due by now in one write.
                let now = Instant::now();
                buf.clear();
                while next < ops.len() && due(next) <= now {
                    render(&ops[next], next as u64, corpus, &mut buf);
                    late.push((now - due(next)).as_secs_f64() * 1e6);
                    next += 1;
                }
                writer.write_all(&buf).map_err(|e| e.to_string())?;
            }
            Ok(late)
        });
        let mut line = String::new();
        for _ in 0..ops.len() {
            line.clear();
            if reader.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
                break;
            }
            let received = Instant::now();
            match answered(&line, &mut barriers).filter(|&id| id < ops.len()) {
                Some(id) => {
                    latencies_us
                        .push(received.saturating_duration_since(due(id)).as_secs_f64() * 1e6);
                    tally.check(&ops[id], &line, corpus);
                }
                None => tally.failed += 1,
            }
        }
        sender.join().expect("open-loop writer thread panicked")
    })?;
    // Requests never answered count as failed.
    tally.failed += ops.len() as u64 - latencies_us.len() as u64;
    Ok(OpenLoop {
        latencies_us,
        late_us,
        sent: ops.len() as u64,
    })
}

fn closed_loop_requests(seconds: f64) -> usize {
    ((NOMINAL_OPS_PER_S * seconds) as usize).max(2)
}

fn open_loop_ops(corpus: &Corpus, seed: u64, seconds: f64) -> Vec<Op> {
    let mut stream = Stream::new(seed, 3, corpus);
    let n = ((RATE * seconds) as usize).max(1);
    (0..n).map(|_| stream.next(corpus)).collect()
}

/// The untraced run: end-to-end metrics.
pub fn run(config: &Config) -> Result<Outcome, String> {
    let corpus = Corpus::generate(config)?;
    let mut setup = Vec::with_capacity(1 + SPARE_SETUPS * SEGMENTS);
    let (server, seconds) = start_server(&corpus)?;
    setup.push(seconds);
    let addr = server.addr().to_string();
    let ops = open_loop_ops(&corpus, config.seed, config.seconds * OPEN_LOOP_SHARE);
    let mut streams = [
        Stream::new(config.seed, 1, &corpus),
        Stream::new(config.seed, 2, &corpus),
    ];
    let mut tally = Tally::default();
    // Warm-up fills the session pools; checked, not timed.
    let warmup = closed_loop_requests(config.seconds * WARMUP_SHARE);
    closed_loop(&addr, &corpus, &mut streams, warmup, &mut tally)?;
    // The run is SEGMENTS rounds of spare set-ups, one saturation
    // segment and one open-loop segment, each of equal work, so that
    // every metric samples the whole run: a slow spell of the host moves
    // a few segments of each metric, which the interquartile mean trims,
    // rather than all of one metric. ops_per_s is the interquartile mean
    // of the saturation segments' throughputs.
    let saturation = closed_loop_requests(config.seconds * SATURATION_SHARE / SEGMENTS as f64);
    let mut throughputs = Vec::with_capacity(SEGMENTS);
    let mut open = OpenLoop::default();
    for segment in 0..SEGMENTS {
        for _ in 0..SPARE_SETUPS {
            let (spare, seconds) = start_server(&corpus)?;
            setup.push(seconds);
            stop_server(spare);
        }
        let (done, elapsed) = closed_loop(&addr, &corpus, &mut streams, saturation, &mut tally)?;
        throughputs.push(done as f64 / elapsed);
        let chunk = &ops[segment * ops.len() / SEGMENTS..(segment + 1) * ops.len() / SEGMENTS];
        open.absorb(open_loop(&addr, &corpus, chunk, &mut tally)?);
    }
    let stats = Client::connect(&addr)
        .and_then(|mut c| c.stats())
        .map_err(|e| e.to_string())?;
    stop_server(server);
    let (ok, failed) = tally.settle(&corpus);
    let mut outcome = Outcome {
        attempted: ok + failed,
        failed,
        ..Outcome::default()
    };
    outcome.metrics = vec![
        (
            "latency_p50_us",
            segmented(&open.latencies_us, SEGMENTS, median),
        ),
        (
            "latency_tail_us",
            tail(&open.latencies_us, TAIL_SEGMENTS, TAIL),
        ),
        ("ops_per_s", interquartile_mean(&throughputs)),
        ("setup_s", median(&setup)),
    ];
    note_samples(&mut outcome, open.latencies_us.len(), TAIL, TAIL_SEGMENTS);
    outcome.note("open_loop_rate_per_s", RATE);
    outcome.note("open_loop_sent", open.sent);
    outcome.note("saturation_requests", saturation * SEGMENTS);
    outcome.note("late_p99_us", percentile(&open.late_us, 99.0));
    note_mix(&mut outcome, &tally, &stats);
    Ok(outcome)
}

/// The daemon's state, rebuilt in-process so each layer can be timed.
struct Replay {
    cache: ProgramCache,
    pools: SessionPool,
    sources: HashMap<u64, Arc<str>>,
}

impl Replay {
    fn new() -> Replay {
        let config = ServeConfig::default();
        Replay {
            cache: ProgramCache::new(config.cache_bytes),
            pools: SessionPool::new(config.pool_per_key),
            sources: HashMap::new(),
        }
    }

    /// One request, through the same public calls the daemon makes;
    /// returns the response line.
    fn request<S: Spans>(&mut self, spans: &mut S, line: &str) -> Result<String, String> {
        let root = spans.enter("op", 0);
        let response = self.execute(spans, line);
        spans.exit(root);
        response
    }

    fn execute<S: Spans>(&mut self, spans: &mut S, line: &str) -> Result<String, String> {
        let s = spans.enter("serve.protocol_parse", 0);
        let parsed = parse_request(line);
        spans.exit(s);
        let envelope_ = parsed.map_err(|e| e.to_string())?;
        let id = envelope_.id;
        let doc = match envelope_.request {
            Request::Analyze {
                tenant,
                program: ProgramRef::Hash(hash),
                goal,
                reuse,
                ..
            } => {
                let s = spans.enter("serve.cache_get", 0);
                let analyzer = self.cache.get(hash);
                spans.exit(s);
                let analyzer = analyzer.ok_or("unknown program")?;
                let s = spans.enter("serve.pool_checkout", 0);
                let parked = if reuse {
                    self.pools.checkout(&tenant, hash)
                } else {
                    None
                };
                spans.exit(s);
                let warmed = parked.is_some();
                let specs: Vec<&str> = goal.entry.iter().map(String::as_str).collect();
                let s = spans.enter("serve.session_analyze", 0);
                let mut session = match parked {
                    Some(parts) => Session::resume(&analyzer, parts),
                    None => Session::new(&analyzer),
                };
                let analysis = session.analyze_query(&goal.goal, &specs);
                spans.exit(s);
                let analysis = analysis.map_err(|e| e.to_string())?;
                if reuse {
                    let s = spans.enter("serve.pool_checkin", 0);
                    self.pools.checkin(&tenant, hash, session.into_parts());
                    spans.exit(s);
                }
                let s = spans.enter("core.report", 0);
                let report = analysis.report(&analyzer);
                spans.exit(s);
                let s = spans.enter("obs.encode", 0);
                let line = attach_id(
                    envelope(
                        "analyze",
                        vec![
                            ("ok", Json::Bool(true)),
                            ("program", Json::Str(hash_hex(hash))),
                            ("reused", Json::Bool(warmed)),
                            ("warm", Json::Bool(warmed && analysis.iterations == 0)),
                            ("goal", Json::Str(goal.goal.clone())),
                            (
                                "entry",
                                Json::Arr(
                                    goal.entry.iter().map(|e| Json::Str(e.clone())).collect(),
                                ),
                            ),
                            ("iterations", Json::Int(analysis.iterations as i64)),
                            (
                                "instructions_executed",
                                Json::Int(analysis.instructions_executed as i64),
                            ),
                            ("report", Json::Str(report)),
                        ],
                    ),
                    id,
                )
                .emit();
                spans.exit(s);
                return Ok(line);
            }
            Request::Register { source, .. } => {
                let hash = program_fingerprint(&source);
                let (_, compiled_now) = self.compile(spans, hash, &source)?;
                envelope(
                    "register",
                    vec![
                        ("ok", Json::Bool(true)),
                        ("program", Json::Str(hash_hex(hash))),
                        ("cached", Json::Bool(!compiled_now)),
                    ],
                )
            }
            Request::Update { program, source } => self.update(spans, program, &source)?,
            _ => return Err("request outside the benchmark's mix".to_owned()),
        };
        let s = spans.enter("obs.encode", 0);
        let line = attach_id(doc, id).emit();
        spans.exit(s);
        Ok(line)
    }

    /// The daemon's compile-once path: cache lookup, and on a miss parse
    /// and compile under the cache's ticket.
    fn compile<S: Spans>(
        &mut self,
        spans: &mut S,
        hash: u64,
        source: &str,
    ) -> Result<(Arc<Analyzer>, bool), String> {
        let s = spans.enter("serve.compile", 0);
        let result = self.cache.get_or_compile(hash, || {
            let p = spans.enter("syntax.parse", 0);
            let program = parse_program(source);
            spans.exit(p);
            let program = program.map_err(|e| CompileFailed {
                code: "parse_error",
                message: e.to_string(),
            })?;
            let c = spans.enter("wam.compile", 0);
            let analyzer = AnalyzerBuilder::default().compile(&program);
            spans.exit(c);
            let analyzer = analyzer.map_err(|e| CompileFailed {
                code: "compile_error",
                message: e.to_string(),
            })?;
            // The daemon's resident-size estimate for the byte budget.
            let compiled = analyzer.program();
            let bytes =
                compiled.code_size() * 48 + compiled.predicates.len() * 96 + source.len() + 1024;
            Ok((Arc::new(analyzer), bytes))
        });
        spans.exit(s);
        let (analyzer, evicted, compiled_now) = result.map_err(|e| e.message)?;
        self.sources
            .entry(hash)
            .or_insert_with(|| Arc::from(source));
        for gone in evicted {
            self.sources.remove(&gone);
            self.pools.purge_program(gone);
        }
        Ok((analyzer, compiled_now))
    }

    /// The daemon's `update`: compile the new text and migrate every
    /// parked session of the old one.
    fn update<S: Spans>(&mut self, spans: &mut S, old: u64, source: &str) -> Result<Json, String> {
        let old_source = self.sources.get(&old).cloned().ok_or("unknown program")?;
        let s = spans.enter("serve.cache_get", 0);
        let old_analyzer = self.cache.get(old);
        spans.exit(s);
        let old_analyzer = old_analyzer.ok_or("unknown program")?;
        let new = program_fingerprint(source);
        let (new_analyzer, _) = self.compile(spans, new, source)?;
        let mut migrated = 0i64;
        if new != old {
            let s = spans.enter("syntax.parse", 0);
            let programs = (parse_program(&old_source), parse_program(source));
            spans.exit(s);
            let (Ok(old_program), Ok(new_program)) = programs else {
                return Err("a registered source no longer parses".to_owned());
            };
            let s = spans.enter("serve.pool_checkout", 0);
            let parked = self.pools.take_program(old);
            spans.exit(s);
            for (tenant, parts) in parked {
                let s = spans.enter("incremental.migrate", 0);
                let result = migrate_parts(
                    &old_program,
                    &new_program,
                    &old_analyzer,
                    &new_analyzer,
                    parts,
                    None,
                );
                spans.exit(s);
                if let Ok((parts, _)) = result {
                    let s = spans.enter("serve.pool_checkin", 0);
                    self.pools.checkin(&tenant, new, parts);
                    spans.exit(s);
                    migrated += 1;
                }
            }
        }
        Ok(envelope(
            "update",
            vec![
                ("ok", Json::Bool(true)),
                ("program", Json::Str(hash_hex(new))),
                ("previous", Json::Str(hash_hex(old))),
                ("migrated", Json::Int(migrated)),
            ],
        ))
    }
}

fn counter(stats: &Json, key: &str) -> f64 {
    stats
        .get("counters")
        .and_then(|c| c.get(key))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

/// Record the request mix as sent, and how many parked sessions the
/// updates migrated.
fn note_mix(outcome: &mut Outcome, tally: &Tally, stats: &Json) {
    let sent = tally.analyzes + tally.registers + tally.updates;
    outcome.note("analyze_share", ratio(tally.analyzes, sent));
    outcome.note("register_share", ratio(tally.registers, sent));
    outcome.note("update_share", ratio(tally.updates, sent));
    outcome.note("sessions_migrated", counter(stats, "sessions_migrated"));
}

/// The traced section: client-side latency and the daemon's counters
/// from a short socket run, then the same request mix replayed
/// in-process with spans around each layer call, alternating traced and
/// untraced requests.
pub fn traced(config: &Config) -> Result<Outcome, String> {
    let corpus = Corpus::generate(config)?;
    let (server, _) = start_server(&corpus)?;
    let addr = server.addr().to_string();
    let ops = open_loop_ops(&corpus, config.seed, config.seconds * 0.45);
    let mut streams = [
        Stream::new(config.seed, 1, &corpus),
        Stream::new(config.seed, 2, &corpus),
    ];
    let mut tally = Tally::default();
    let warmup = closed_loop_requests(config.seconds * 0.1);
    closed_loop(&addr, &corpus, &mut streams, warmup, &mut tally)?;
    let open = open_loop(&addr, &corpus, &ops, &mut tally)?;
    let stats = Client::connect(&addr)
        .and_then(|mut c| c.stats())
        .map_err(|e| e.to_string())?;
    stop_server(server);
    let analyzes = tally.analyzes;

    let mut replay = Replay::new();
    let mut buf = Vec::new();
    let mut lines = ops.iter().enumerate().map(|(id, op)| {
        buf.clear();
        render(op, id as u64, &corpus, &mut buf);
        String::from_utf8(buf.clone()).expect("requests are UTF-8")
    });
    for p in &corpus.programs {
        let line = format!(
            r#"{{"op":"register","program":{}}}"#,
            Json::Str(p.source.clone()).emit()
        );
        replay.request(&mut NoSpans, &line)?;
    }
    let mut recorder = Recorder::default();
    let mut traced_us = Vec::new();
    let mut untraced_us = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(config.seconds * 0.45);
    let mut i = 0usize;
    while Instant::now() < deadline || i < 2 {
        let Some(line) = lines.next() else { break };
        let traced_side = (i / 2 + i) % 2 == 1;
        let t = Instant::now();
        let response = if traced_side {
            replay.request(&mut recorder, &line)
        } else {
            replay.request(&mut NoSpans, &line)
        };
        let us = t.elapsed().as_secs_f64() * 1e6;
        if traced_side {
            traced_us.push(us);
        } else {
            untraced_us.push(us);
        }
        match response {
            Ok(response) => tally.check(&ops[i], &response, &corpus),
            Err(_) => tally.failed += 1,
        }
        i += 1;
    }
    let (ok, failed) = tally.settle(&corpus);
    let replayed = recorder.ops("op");
    let per_op = |name: &str| median_self_us(&replayed, name);
    let client_p50 = median(&open.latencies_us);
    let unattributed: Vec<f64> = replayed
        .iter()
        .map(|o| o.unattributed_share("op"))
        .collect();
    let mut outcome = Outcome {
        attempted: ok + failed,
        failed,
        ..Outcome::default()
    };
    outcome.metrics = vec![
        ("serve.protocol_parse_us", per_op("serve.protocol_parse")),
        ("serve.cache_get_us", per_op("serve.cache_get")),
        ("serve.pool_checkout_us", per_op("serve.pool_checkout")),
        ("serve.session_analyze_us", per_op("serve.session_analyze")),
        ("serve.compile_us", per_op("serve.compile")),
        ("obs.encode_us", per_op("obs.encode")),
        ("serve.unattributed_us", client_p50 - median(&untraced_us)),
        ("serve.cache_hit_ratio", counter(&stats, "cache_hit_rate")),
        ("serve.pool_hit_ratio", counter(&stats, "pool_hit_rate")),
        (
            "serve.warm_hit_ratio",
            ratio(counter(&stats, "warm_hits") as u64, analyzes),
        ),
        (
            "serve.cache_evictions",
            counter(&stats, "program_cache_evictions"),
        ),
        (
            "serve.compile_dedup_waits",
            counter(&stats, "compile_dedup_waits"),
        ),
        (
            "serve.shed",
            counter(&stats, "shed_overload") + counter(&stats, "shed_budget"),
        ),
        ("loadgen.late_us", percentile(&open.late_us, 99.0)),
        (
            "trace.overhead_ratio.serve-mixed",
            median(&traced_us) / median(&untraced_us),
        ),
        (
            "trace.unattributed_ratio.serve-mixed",
            median(&unattributed),
        ),
    ];
    outcome.note("serve-mixed.replayed_requests", i);
    outcome.note("serve-mixed.client_p50_us", client_p50);
    note_mix(&mut outcome, &tally, &stats);
    Ok(outcome)
}
