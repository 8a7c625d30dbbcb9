//! `serve-churn`: the release `skipflow serve` binary under a seeded
//! mutation churn and an open-loop query stream, over loopback TCP.
//!
//! Set-up generates a ladder-shaped program (8000 methods, fanout 8, 20 %
//! guarded-dead), writes it as an SFBC file, spawns the server on
//! `127.0.0.1:0`, and runs `open`, `roots` (the program's own roots) and
//! `flush`. The measured window then drives two connections from this one
//! process:
//!
//! * the **writer** (this thread, closed loop) runs the seeded grow/shrink
//!   pairs of [`crate::churn`], each mutation followed by `flush`, timed
//!   from sending the mutation to receiving `ok flushed`;
//! * the **reader** (one thread, open loop) sends a fixed number of queries
//!   at a fixed 100/s schedule, pipelined on its socket, each timed from
//!   when it was *due*, so a stall also delays the queries behind it.
//!
//! Each request line goes out in one write, on a socket with Nagle's
//! algorithm off: the load generator adds no stall of its own, and does
//! nothing about the server's socket behaviour either.
//!
//! The traced run adds, after the window: the server's own `stats`
//! counters, a replay of the executed script through `parse_request` /
//! `handle_request` on an in-process `Registry`, and a replay through a
//! bare `AnalysisSession` with a fresh solve at every shrink point.

use crate::batch::{set_engine, set_tail};
use crate::churn::{self, Op, Plan, Rng};
use crate::report::{peak_rss_mib, Outcome};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::Args;
use skipflow_core::{AnalysisConfig, AnalysisSession};
use skipflow_ir::encode::{decode, encode};
use skipflow_ir::{MethodId, Program};
use skipflow_server::{handle_request, parse_request, Registry, ServerConfig};
use skipflow_synth::{build_benchmark, BenchmarkSpec, Suite};
use std::collections::{BTreeMap, VecDeque};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

const SESSION: &str = "churn";
/// Timed set-up repetitions; `setup_s` and `analyze_ms` are their medians.
const SETUP_REPS: usize = 21;
/// The reader's fixed schedule.
const QUERIES_PER_SEC: u64 = 100;
/// Longest wait for any one response before it counts as timed out.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(30);
/// `peak_rss_mb` is the server's peak after this many pairs (four cycles
/// of the script), whatever the host's speed: the server's resident set
/// keeps growing under churn, so a peak read when the window closes would
/// follow how many pairs fitted into it.
const RSS_AFTER_PAIRS: u64 = 4 * churn::CYCLE;
/// One flush point in this many is sampled for the fresh-solve check.
const CHECK_ONE_IN: usize = 16;
/// Query requests replayed in-process after each replayed flush.
const REPLAY_QUERIES_PER_FLUSH: usize = 8;
/// The replays cover this many executed mutations (whole pairs) from the
/// start of the script, which keeps a traced run well inside its time
/// limit on a slow host.
const REPLAY_OPS: usize = 100;

/// The trajectory harness's `rung-8000` ladder program. At this size a
/// shrink's invalidate + re-derive always outlasts the server's ~44 ms
/// response stall, during which the server already solves; at half the
/// size it sits right at the stall, and host-speed drift alone flips
/// `shrink_flush_*` between "hidden by the stall" and "stall + solve".
fn spec() -> BenchmarkSpec {
    BenchmarkSpec::new("rung-8000", Suite::DaCapo, 8000, 0.2).with_fanout(8)
}

/// A request/response line connection (Nagle off, one write per line).
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            buf: Vec::new(),
        })
    }

    fn send(&mut self, line: &str) -> io::Result<()> {
        self.stream.write_all(format!("{line}\n").as_bytes())
    }

    /// The next response line, or `None` if none completed by `deadline`.
    fn recv(&mut self, deadline: Instant) -> io::Result<Option<String>> {
        let mut chunk = [0u8; 4096];
        loop {
            if let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = self.buf.drain(..=pos).collect();
                return Ok(Some(String::from_utf8_lossy(&line).trim_end().to_string()));
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Ok(None);
            }
            self.stream.set_read_timeout(Some(left))?;
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed",
                    ))
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Sends `line` and waits for its response (`None` on timeout).
    fn request(&mut self, line: &str) -> io::Result<Option<String>> {
        self.send(line)?;
        self.recv(Instant::now() + RESPONSE_TIMEOUT)
    }
}

/// Whether a response is a complete success.
fn ok(resp: &Option<String>) -> bool {
    resp.as_deref()
        .is_some_and(|r| r.starts_with("ok ") && !r.contains("[partial]"))
}

/// Asks for the served `reachable-count`: the count, or `None` if the
/// answer was not a complete success.
fn reachable_count(conn: &mut Conn) -> io::Result<Option<usize>> {
    let resp = conn.request(&format!("query {SESSION} reachable-count"))?;
    if !ok(&resp) {
        return Ok(None);
    }
    Ok(resp
        .as_deref()
        .and_then(|r| r.split_whitespace().nth(1)?.parse().ok()))
}

/// The `key=value` fields of a response line.
fn fields(resp: &str) -> BTreeMap<&str, &str> {
    resp.split_whitespace()
        .filter_map(|w| w.split_once('='))
        .collect()
}

/// The spawned server; killed and reaped on drop unless shut down cleanly.
struct ServerProc {
    child: Child,
    addr: SocketAddr,
    _stdout: BufReader<ChildStdout>,
}

impl ServerProc {
    fn spawn(bin: &Path) -> Result<ServerProc, String> {
        let mut child = Command::new(bin)
            .args(["serve", "--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .and_then(|a| a.parse().ok());
        let mut server = ServerProc {
            child,
            addr: ([127, 0, 0, 1], 0).into(),
            _stdout: stdout,
        };
        match (read, addr) {
            (Ok(_), Some(addr)) => {
                server.addr = addr;
                Ok(server)
            }
            _ => Err(format!(
                "server did not report its address (got `{}`)",
                line.trim()
            )),
        }
    }

    /// Sends `shutdown` and waits for the process to exit.
    fn shutdown(mut self, conn: &mut Conn) -> Result<(), String> {
        let bye = conn.request("shutdown").map_err(|e| e.to_string())?;
        if bye.as_deref() != Some("ok bye") {
            return Err(format!("shutdown answered {bye:?}"));
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if self.child.try_wait().map_err(|e| e.to_string())?.is_some() {
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err("server did not exit after shutdown".into())
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// The analysed state the writer has asked for (its model of the server).
#[derive(Clone)]
struct State {
    roots: Vec<MethodId>,
    masked: Vec<MethodId>,
}

impl State {
    fn apply(&mut self, op: Op) {
        match op {
            Op::AddRoot(m) => self.roots.push(m),
            Op::Retract(m) => self.roots.retain(|&r| r != m),
            Op::Disable(m) => self.masked.push(m),
            Op::Restore(m) => self.masked.retain(|&r| r != m),
        }
    }

    /// A fresh in-process solve of these roots and this mask.
    fn fresh(&self, program: &Program) -> Result<churn::Fresh, String> {
        let config = AnalysisConfig::skipflow().with_masked_methods(self.masked.iter().copied());
        let mut untraced = Tracer::new(Instant::now(), false);
        churn::fresh(program, config, &self.roots, &mut untraced, 0).map_err(|e| e.to_string())
    }
}

/// What set-up leaves for the window.
struct Setup {
    program: Program,
    bytes_len: usize,
    path: String,
    roots: Vec<MethodId>,
    server: ServerProc,
    conn: Conn,
}

fn set_up_once(args: &Args) -> Result<(Setup, Duration), String> {
    let bench = build_benchmark(&spec());
    assert!(
        bench.reflective_roots.is_empty(),
        "an SFBC file carries no reflective roots"
    );
    let bytes = encode(&bench.program);
    std::fs::create_dir_all(&args.out_dir).map_err(|e| e.to_string())?;
    let path = args.out_dir.join("serve-churn.sfbc");
    std::fs::write(&path, &bytes).map_err(|e| format!("{}: {e}", path.display()))?;
    let path = path.to_str().filter(|p| !p.contains(char::is_whitespace));
    let path = path
        .ok_or("the SFBC path must be whitespace-free UTF-8")?
        .to_string();

    let server = ServerProc::spawn(&args.server_bin)?;
    let mut conn = Conn::connect(server.addr).map_err(|e| e.to_string())?;
    let start = Instant::now();
    let roots: Vec<String> = bench
        .roots
        .iter()
        .map(|r| format!("#{}", r.index()))
        .collect();
    for line in [
        format!("open {SESSION} {path}"),
        format!("roots {SESSION} {}", roots.join(" ")),
        format!("flush {SESSION}"),
    ] {
        let resp = conn.request(&line).map_err(|e| e.to_string())?;
        if !ok(&resp) {
            return Err(format!("set-up request `{line}` answered {resp:?}"));
        }
    }
    let analyze = start.elapsed();
    let setup = Setup {
        program: bench.program,
        bytes_len: bytes.len(),
        path,
        roots: bench.roots,
        server,
        conn,
    };
    Ok((setup, analyze))
}

/// The reader's log.
#[derive(Default)]
struct ReaderLog {
    latency_ms: Vec<f64>,
    traced_ms: Vec<f64>,
    untraced_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    lines: Vec<String>,
    sent: u64,
    failed: u64,
}

/// The seeded query mix.
fn query_line(rng: &mut Rng, methods: usize) -> String {
    match rng.below(4) {
        0 => format!("query {SESSION} reachable #{}", rng.below(methods)),
        1 => format!("query {SESSION} reachable-count"),
        2 => format!("query {SESSION} call-edges"),
        _ => format!("query {SESSION} poly-calls"),
    }
}

/// Open loop: query `i` is due at `start + i / rate` whatever happened to
/// the earlier ones; responses are matched in order.
fn reader(
    addr: SocketAddr,
    start: Instant,
    count: u64,
    methods: usize,
    mut rng: Rng,
    tr: &mut Tracer,
) -> io::Result<ReaderLog> {
    let mut conn = Conn::connect(addr)?;
    let mut log = ReaderLog::default();
    let due = |i: u64| start + Duration::from_nanos(i * 1_000_000_000 / QUERIES_PER_SEC);
    let mut pending: VecDeque<(u64, Instant)> = VecDeque::new();
    let mut next = 0;
    let last_due = due(count.saturating_sub(1));
    while next < count || !pending.is_empty() {
        let now = Instant::now();
        if next < count && now >= due(next) {
            let line = query_line(&mut rng, methods);
            conn.send(&line)?;
            log.lag_ms.push((now - due(next)).as_secs_f64() * 1e3);
            log.lines.push(line);
            log.sent += 1;
            pending.push_back((next, due(next)));
            next += 1;
            continue;
        }
        let wait_until = if next < count {
            due(next)
        } else {
            last_due + RESPONSE_TIMEOUT
        };
        match conn.recv(wait_until)? {
            Some(resp) => {
                let done = Instant::now();
                let (i, due_at) = pending
                    .pop_front()
                    .expect("a response matches a sent query");
                if !ok(&Some(resp)) {
                    log.failed += 1;
                    continue;
                }
                let ms = (done - due_at).as_secs_f64() * 1e3;
                log.latency_ms.push(ms);
                // In a traced run every other query records its span, so the
                // two halves give the tracing overhead.
                if tr.enabled() && i % 2 == 1 {
                    tr.record("tcp.query", due_at, done, i);
                    log.traced_ms.push(ms);
                } else {
                    log.untraced_ms.push(ms);
                }
            }
            None if next >= count => {
                log.failed += pending.len() as u64;
                pending.clear();
            }
            None => {}
        }
    }
    Ok(log)
}

/// The writer's log.
#[derive(Default)]
struct WriterLog {
    grow_ms: Vec<f64>,
    shrink_ms: Vec<f64>,
    executed: Vec<Op>,
    /// Sampled flush points: the state asked for and the served count.
    checkpoints: Vec<(State, usize)>,
    /// The server's peak resident set after [`RSS_AFTER_PAIRS`] pairs.
    rss_mib: Option<f64>,
    sent: u64,
    failed: u64,
}

/// Closed loop: each mutation and its flush, back to back, until the
/// window closes and at least [`RSS_AFTER_PAIRS`] pairs are done (the last
/// pair is completed so the state returns to the baseline).
fn writer(
    conn: &mut Conn,
    server_pid: &str,
    plan: &Plan,
    state: &mut State,
    end: Instant,
    rng: &mut Rng,
    tr: &mut Tracer,
) -> io::Result<WriterLog> {
    let mut log = WriterLog::default();
    let mut index = 0u64;
    while Instant::now() < end || index < RSS_AFTER_PAIRS {
        for op in plan.pair(index) {
            let start = Instant::now();
            let queued = conn.request(&op.line(SESSION))?;
            let flushed = conn.request(&format!("flush {SESSION}"))?;
            let done = Instant::now();
            log.sent += 2;
            if ok(&queued) {
                state.apply(op);
                log.executed.push(op);
            }
            if !ok(&queued) || !ok(&flushed) {
                log.failed += u64::from(!ok(&queued)) + u64::from(!ok(&flushed));
                continue;
            }
            let ms = (done - start).as_secs_f64() * 1e3;
            if op.is_grow() {
                log.grow_ms.push(ms);
                tr.record("tcp.grow", start, done, log.executed.len() as u64);
            } else {
                log.shrink_ms.push(ms);
                tr.record("tcp.shrink", start, done, log.executed.len() as u64);
            }
            if rng.below(CHECK_ONE_IN) == 0 {
                log.sent += 1;
                match reachable_count(conn)? {
                    Some(count) => log.checkpoints.push((state.clone(), count)),
                    None => log.failed += 1,
                }
            }
        }
        index += 1;
        if index == RSS_AFTER_PAIRS {
            log.rss_mib = peak_rss_mib(server_pid);
        }
    }
    Ok(log)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut analyze_ms = Vec::new();
    // One cold set-up, then `SETUP_REPS` timed ones. Every repetition but
    // the last shuts its server down again; the last one's server is the
    // one measured.
    let mut kept: Option<Setup> = None;
    for rep in 0..=SETUP_REPS {
        if let Some(mut earlier) = kept.take() {
            earlier.server.shutdown(&mut earlier.conn)?;
        }
        let start = Instant::now();
        let (setup, analyze) = set_up_once(args)?;
        if rep > 0 {
            setup_s.push(start.elapsed().as_secs_f64());
            analyze_ms.push(analyze.as_secs_f64() * 1e3);
        }
        kept = Some(setup);
    }
    let Setup {
        program,
        bytes_len,
        path,
        roots,
        server,
        mut conn,
    } = kept.expect("at least one set-up");
    out.set_n("setup_s", median(&setup_s), Some(setup_s.len()));
    out.set_n("analyze_ms", median(&analyze_ms), Some(analyze_ms.len()));

    // Untimed: the baseline the script's targets come from, and the first
    // check — the served fixpoint equals a fresh in-process one.
    let mut state = State {
        roots: roots.clone(),
        masked: Vec::new(),
    };
    let mut baseline_session = AnalysisSession::builder(&program)
        .roots(roots.iter().copied())
        .build()
        .map_err(|e| e.to_string())?;
    let snap = baseline_session.solve();
    let baseline = snap.reachable_methods().clone();
    let mut rng = Rng::new(args.seed, 3);
    let plan = Plan::new(
        &program,
        &roots,
        &baseline,
        &snap.call_graph_edges(),
        &mut rng,
    );
    let initial = reachable_count(&mut conn).map_err(|e| e.to_string())?;
    if initial != Some(baseline.len()) {
        out.problem(format!(
            "initial reachable-count {initial:?} != fresh solve {}",
            baseline.len()
        ));
    }

    let origin = Instant::now();
    let mut tr = Tracer::new(origin, args.trace);
    let mut reader_tr = Tracer::new(origin, args.trace);
    let start = origin + Duration::from_millis(20);
    let end = start + Duration::from_secs(args.seconds);
    let count = QUERIES_PER_SEC * args.seconds;
    let methods = program.method_count();
    let (wlog, rlog) = std::thread::scope(|scope| {
        let reader_tr = &mut reader_tr;
        let rng_r = Rng::new(args.seed, 2);
        let reader =
            scope.spawn(move || reader(server.addr, start, count, methods, rng_r, reader_tr));
        let pid = server.child.id().to_string();
        let wlog = writer(&mut conn, &pid, &plan, &mut state, end, &mut rng, &mut tr);
        (wlog, reader.join().expect("reader thread panicked"))
    });
    let (wlog, rlog) = (
        wlog.map_err(|e| format!("writer: {e}"))?,
        rlog.map_err(|e| format!("reader: {e}"))?,
    );
    tr.absorb(reader_tr);

    let served = reachable_count(&mut conn).map_err(|e| e.to_string())?;
    let stats = conn
        .request(&format!("stats {SESSION}"))
        .map_err(|e| e.to_string())?
        .unwrap_or_default();
    let peak_at_end = peak_rss_mib(&server.child.id().to_string());
    server.shutdown(&mut conn)?;

    out.attempted = wlog.sent + rlog.sent + 2;
    out.failed = wlog.failed
        + rlog.failed
        + u64::from(served.is_none())
        + u64::from(!stats.starts_with("ok "));

    // Output checks: the final epoch and every sampled flush point against
    // a fresh in-process solve of the same roots and mask.
    let last = state.fresh(&program)?;
    if served != Some(last.reachable.len()) {
        out.problem(format!(
            "final reachable-count {served:?} != fresh solve {}",
            last.reachable.len()
        ));
    }
    for (point, count) in &wlog.checkpoints {
        let expect = point.fresh(&program)?.reachable.len();
        if *count != expect {
            out.problem(format!(
                "reachable-count {count} at a sampled flush != fresh solve {expect}"
            ));
        }
    }

    out.set("reachable_methods", served.unwrap_or(0) as f64);
    out.set("binary_size_kb", last.binary_size as f64 / 1024.0);
    out.set(
        "peak_rss_mb",
        wlog.rss_mib.ok_or("cannot read the server's VmHWM")?,
    );
    eprintln!(
        "server peak resident set: {:.1} MiB after {RSS_AFTER_PAIRS} pairs, {:.1} MiB after {} pairs",
        wlog.rss_mib.unwrap_or(0.0),
        peak_at_end.unwrap_or(0.0),
        wlog.executed.len() / 2
    );
    set_tail(
        &mut out,
        ("query_p50_ms", "query_p99_ms", 99.0),
        &rlog.latency_ms,
        &[0, rlog.latency_ms.len()],
    );
    set_tail(
        &mut out,
        ("grow_flush_p50_ms", "grow_flush_p90_ms", 90.0),
        &wlog.grow_ms,
        &[0, wlog.grow_ms.len()],
    );
    set_tail(
        &mut out,
        ("shrink_flush_p50_ms", "shrink_flush_p90_ms", 90.0),
        &wlog.shrink_ms,
        &[0, wlog.shrink_ms.len()],
    );
    out.finish_counts();

    if args.trace {
        let f = fields(&stats);
        let count = |k: &str| f.get(k).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
        out.set("server.registry.batches", count("batches"));
        out.set("server.registry.batched_roots", count("batched_roots"));
        out.set(
            "server.registry.coalescing_ratio",
            count("batched_roots") / count("batches").max(1.0),
        );
        out.set(
            "server.registry.epochs_published",
            count("epochs_published"),
        );
        out.set("server.registry.partial_epochs", count("partial_epochs"));
        out.set("server.registry.sheds", count("sheds"));
        out.set("loadgen.lag_p99_ms", percentile(&rlog.lag_ms, 99.0));
        out.set("loadgen.sent", out.attempted as f64);
        out.set("loadgen.query_samples", rlog.latency_ms.len() as f64);
        out.set("loadgen.grow_samples", wlog.grow_ms.len() as f64);
        out.set("loadgen.shrink_samples", wlog.shrink_ms.len() as f64);
        if !rlog.traced_ms.is_empty() && !rlog.untraced_ms.is_empty() {
            out.set(
                "trace.overhead_pct",
                (median(&rlog.traced_ms) / median(&rlog.untraced_ms) - 1.0) * 100.0,
            );
        }
        let query_p50_us = median(&rlog.latency_ms) * 1e3;
        let replayed = &wlog.executed[..wlog.executed.len().min(REPLAY_OPS)];
        replay_registry(&path, &roots, replayed, &rlog.lines, query_p50_us, &mut out)?;
        replay_session(
            &program, bytes_len, &path, &roots, replayed, &mut tr, &mut out,
        )?;
        out.set("trace.spans", tr.spans().len() as f64);
        tr.write_jsonl(&args.trace_path())
            .map_err(|e| format!("writing trace: {e}"))?;
    }
    Ok(out)
}

/// Replays the executed script through the protocol layer on an
/// in-process registry: parse and handle times per verb, flush waits, and
/// epoch loads between them.
fn replay_registry(
    path: &str,
    roots: &[MethodId],
    executed: &[Op],
    queries: &[String],
    query_tcp_p50_us: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    let registry = Registry::new(ServerConfig::default());
    let mut parse_us = Vec::new();
    let mut handle_us: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut flush_ms = Vec::new();
    let mut load_ns = Vec::new();
    let mut run = |line: &str| -> Result<String, String> {
        let t = Instant::now();
        let req = parse_request(line).map_err(|e| format!("`{line}`: {e}"))?;
        let parsed = Instant::now();
        let resp = handle_request(&registry, req);
        let done = Instant::now();
        parse_us.push((parsed - t).as_secs_f64() * 1e6);
        let verb: &'static str = match line.split_whitespace().next() {
            Some("roots") => "roots",
            Some("retract") => "retract",
            Some("edit") => "edit",
            Some("query") => "query",
            Some("flush") => "flush",
            _ => "other",
        };
        if verb == "flush" {
            flush_ms.push((done - parsed).as_secs_f64() * 1e3);
        } else {
            handle_us
                .entry(verb)
                .or_default()
                .push((done - parsed).as_secs_f64() * 1e6);
        }
        if resp.starts_with("ok ") && !resp.contains("[partial]") {
            Ok(resp)
        } else {
            Err(format!("in-process `{line}` answered `{resp}`"))
        }
    };
    let root_specs: Vec<String> = roots.iter().map(|r| format!("#{}", r.index())).collect();
    run(&format!("open {SESSION} {path}"))?;
    run(&format!("roots {SESSION} {}", root_specs.join(" ")))?;
    run(&format!("flush {SESSION}"))?;
    let mut next_query = queries.iter().cycle();
    for op in executed {
        run(&op.line(SESSION))?;
        run(&format!("flush {SESSION}"))?;
        for q in next_query
            .by_ref()
            .take(REPLAY_QUERIES_PER_FLUSH.min(queries.len()))
        {
            run(q)?;
        }
        let handle = registry.get(SESSION).map_err(|e| e.to_string())?;
        const LOADS: u32 = 1000;
        let t = Instant::now();
        for _ in 0..LOADS {
            std::hint::black_box(handle.published());
        }
        load_ns.push(t.elapsed().as_secs_f64() * 1e9 / f64::from(LOADS));
    }
    registry.shutdown_all();

    out.set_n(
        "server.protocol.parse_us",
        median(&parse_us),
        Some(parse_us.len()),
    );
    for (verb, name) in [
        ("roots", "server.net.handle_us.roots"),
        ("retract", "server.net.handle_us.retract"),
        ("edit", "server.net.handle_us.edit"),
        ("query", "server.net.handle_us.query"),
    ] {
        if let Some(xs) = handle_us.get(verb) {
            out.set_n(name, median(xs), Some(xs.len()));
        }
    }
    if let Some(q) = handle_us.get("query") {
        out.set(
            "server.net.outside_handler_us",
            query_tcp_p50_us - median(q),
        );
    }
    out.set_n(
        "server.registry.flush_ms",
        median(&flush_ms),
        Some(flush_ms.len()),
    );
    if !load_ns.is_empty() {
        out.set_n(
            "server.publish.load_ns",
            median(&load_ns),
            Some(load_ns.len()),
        );
    }
    Ok(())
}

/// Replays the executed script through a bare session: decode, build,
/// solve and metrics once, then every mutation with a fresh solve at each
/// shrink point for the re-derive/fresh ratios.
fn replay_session(
    program: &Program,
    bytes_len: usize,
    path: &str,
    roots: &[MethodId],
    executed: &[Op],
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let bytes = std::fs::read(path).map_err(|e| e.to_string())?;
    let mut decode_ms = Vec::new();
    for _ in 0..5 {
        let d = tr.begin("ir.encode.decode", 0);
        let decoded = decode(&bytes).map_err(|e| e.to_string())?;
        decode_ms.push(tr.end(d).as_secs_f64() * 1e3);
        std::hint::black_box(decoded);
    }
    let decode = median(&decode_ms);
    out.set("ir.encode.decode_ms", decode);
    out.set(
        "ir.encode.decode_mb_per_s",
        bytes_len as f64 / 1e6 / (decode / 1e3),
    );
    out.set("ir.encode.bytes", bytes_len as f64);

    let b = tr.begin("core.session.build", 0);
    let mut session = AnalysisSession::builder(program)
        .roots(roots.iter().copied())
        .build()
        .map_err(|e| e.to_string())?;
    out.set("core.session.build_ms", tr.end(b).as_secs_f64() * 1e3);
    let s = tr.begin("core.session.solve", 0);
    let snap = session.try_solve().map_err(|e| e.to_string())?;
    out.set("core.session.solve_ms", tr.end(s).as_secs_f64() * 1e3);
    let m = tr.begin("core.report.metrics", 0);
    std::hint::black_box(snap.metrics(program));
    out.set("core.report.metrics_ms", tr.end(m).as_secs_f64() * 1e3);
    set_engine(out, std::slice::from_ref(snap.stats()));
    out.set(
        "core.session.memory_bytes",
        session.memory_estimate() as f64,
    );

    let (mut resume_ms, mut resume_steps) = (Vec::new(), Vec::new());
    let (mut invalidate_ms, mut rederive_ms) = (Vec::new(), Vec::new());
    let (mut inv_methods, mut inv_flows, mut rederive_steps) = (Vec::new(), Vec::new(), Vec::new());
    let (mut steps_ratio, mut ms_ratio) = (Vec::new(), Vec::new());
    for (i, &op) in executed.iter().enumerate() {
        let req = i as u64 + 1;
        let a = churn::apply(&mut session, op, tr, req).map_err(|e| e.to_string())?;
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        if op.is_grow() {
            resume_ms.push(ms(a.total));
            resume_steps.push(a.steps as f64);
            continue;
        }
        invalidate_ms.push(ms(a.mutate));
        rederive_ms.push(ms(a.total - a.mutate));
        inv_methods.push(a.invalidation.invalidated_methods as f64);
        inv_flows.push(a.invalidation.invalidated_flows as f64);
        rederive_steps.push(a.invalidation.rederive_steps as f64);
        let fresh = churn::fresh_like(&session, tr, req).map_err(|e| e.to_string())?;
        if &fresh.reachable != session.snapshot().reachable_methods() {
            out.problem(format!("in-process {op:?} differs from a fresh solve"));
        }
        steps_ratio.push(a.steps as f64 / fresh.steps.max(1) as f64);
        ms_ratio.push(a.total.as_secs_f64() / fresh.time.as_secs_f64());
    }
    for (name, xs) in [
        ("core.session.resume_ms", &resume_ms),
        ("core.session.resume_steps", &resume_steps),
        ("core.session.invalidate_ms", &invalidate_ms),
        ("core.session.rederive_ms", &rederive_ms),
        ("core.invalidation.invalidated_methods", &inv_methods),
        ("core.invalidation.invalidated_flows", &inv_flows),
        ("core.invalidation.rederive_steps", &rederive_steps),
        ("core.invalidation.rederive_vs_fresh_steps", &steps_ratio),
        ("core.invalidation.rederive_vs_fresh_ms", &ms_ratio),
    ] {
        if !xs.is_empty() {
            out.set_n(name, median(xs), Some(xs.len()));
        }
    }
    Ok(())
}
