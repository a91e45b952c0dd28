//! The resident extraction server.
//!
//! ```text
//! accept thread ──► idle set (readiness-polled) ──► bounded work queue ──► workers
//!       ▲                                                │
//!       └──────────── keep-alive connections ◄───────────┘
//! ```
//!
//! One thread owns the listener and every *idle* connection: it accepts,
//! peeks each idle socket for readability (a poor man's `select` — no
//! `epoll` without `libc`), and moves readable connections into a bounded
//! work queue. Workers pull a connection, read exactly one request (plus
//! any pipelined followers already buffered), run it through a warm
//! [`cmr_engine::ServiceWorker`], respond, and hand the connection back
//! to the accept thread. Admission control is the queue bound: a readable
//! connection that does not fit answers `429` with `Retry-After` and
//! closes — load sheds at the door, not by queueing without bound.
//!
//! Shutdown (SIGINT/SIGTERM raising the shared flag) drains: the
//! listener closes, idle connections drop (clients see a stale keep-alive
//! close and retry elsewhere), queued and in-flight requests complete
//! with `Connection: close`, workers exit, and [`Server::run`] returns —
//! every byte of every accepted request's response is flushed first.

use crate::http::{write_response, ChunkedWriter, Conn, ReadOutcome, Request};
use crate::ndjson;
use cmr_core::Schema;
use cmr_engine::{
    startup_lint_summary, EngineConfig, EngineError, LatencyKind, ServiceHandle, ServiceWorker,
};
use cmr_ontology::Ontology;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::io;
use std::io::Read as _;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Accept-loop tick: the pause when a pass over the listener and the
/// idle set found nothing to do. Bounds idle CPU at ~1k peeks/sec/conn
/// and adds at most ~one tick of latency to request pickup.
const TICK: Duration = Duration::from_millis(1);

/// How long a worker waits for the first byte of a request on a
/// connection the accept thread already saw readable (generous — the
/// data is normally there before the worker gets the connection).
const FIRST_BYTE_WAIT: Duration = Duration::from_millis(250);

/// Per-read deadline once a request has started arriving; a peer that
/// stalls longer mid-request forfeits the connection.
const COMMIT_TIMEOUT: Duration = Duration::from_secs(10);

/// Whole-request deadline once the first byte has arrived. A slowloris
/// client dripping one byte per read resets `COMMIT_TIMEOUT` every time;
/// it cannot reset this.
const REQUEST_DEADLINE: Duration = Duration::from_secs(30);

/// Configuration for [`Server::bind`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:7171` (port `0` picks a free one).
    pub addr: String,
    /// Worker threads; `0` means one per available core.
    pub jobs: usize,
    /// Bound of the ready-request queue; a readable connection beyond
    /// this answers `429`.
    pub queue_depth: usize,
    /// Per-request extraction wall-clock deadline, milliseconds
    /// (watchdog-enforced, like `cmr extract --timeout-ms`).
    pub timeout_ms: Option<u64>,
    /// Per-request sentence budget.
    pub max_sentences: Option<usize>,
    /// Largest accepted request body.
    pub max_body_bytes: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7171".to_string(),
            jobs: 0,
            queue_depth: 64,
            timeout_ms: None,
            max_sentences: None,
            max_body_bytes: 8 * 1024 * 1024,
        }
    }
}

/// Why the server could not start or run.
#[derive(Debug)]
pub enum ServeError {
    /// Binding the listen address failed.
    Bind(String, io::Error),
    /// The startup asset lint found errors; the service refuses to come
    /// up over a broken knowledge base.
    Lint(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Bind(addr, e) => write!(f, "binding {addr}: {e}"),
            ServeError::Lint(msg) => write!(f, "rule assets failed the startup lint:\n{msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// What a finished [`Server::run`] reports.
#[derive(Debug, Clone, Serialize)]
pub struct ServeSummary {
    /// Requests served (extract + batch + health + metrics).
    pub requests: u64,
    /// Connections refused with `429` at admission.
    pub rejected: u64,
}

/// `GET /health` response body. Serialize *and* Deserialize so
/// orchestrator-side parsing is pinned by the round-trip test below.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct HealthReport {
    status: String,
    jobs: u64,
    uptime_ms: u64,
    requests: u64,
    rejected: u64,
    /// Watchdog/budget trips since boot (degradation, not failure).
    timeouts: u64,
    /// Transient-failure re-attempts since boot.
    retries: u64,
    /// Records that exhausted their retries and were quarantined.
    quarantined: u64,
    lint: cmr_analyze::Summary,
    assets: String,
}

/// State shared between the accept thread and every worker.
struct Shared {
    service: Arc<ServiceHandle>,
    queue: ConnQueue,
    idle_return: Mutex<Vec<Conn>>,
    shutdown: Arc<AtomicBool>,
    cfg: ServeConfig,
    /// All responses written, any endpoint or status (including `429`).
    requests: AtomicU64,
    rejected: AtomicU64,
}

/// A bound, running-but-not-yet-serving server. Splitting bind from run
/// lets callers learn the actual address (port `0`) before the blocking
/// serve loop starts.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the listener and builds the warm engine state. The startup
    /// lint gate runs here: a broken rule asset fails `bind`, not the
    /// first request.
    pub fn bind(cfg: ServeConfig, shutdown: Arc<AtomicBool>) -> Result<Server, ServeError> {
        let engine_cfg = EngineConfig {
            jobs: cfg.jobs,
            max_record_millis: cfg.timeout_ms,
            max_record_sentences: cfg.max_sentences,
            ..EngineConfig::default()
        };
        let service = ServiceHandle::new(engine_cfg, Schema::paper(), Ontology::full()).map_err(
            |e| match e {
                EngineError::Lint { message } => ServeError::Lint(message),
                other => ServeError::Lint(other.to_string()),
            },
        )?;
        let listener =
            TcpListener::bind(&cfg.addr).map_err(|e| ServeError::Bind(cfg.addr.clone(), e))?;
        let queue = ConnQueue::new(cfg.queue_depth.max(1));
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                service,
                queue,
                idle_return: Mutex::new(Vec::new()),
                shutdown,
                cfg,
                requests: AtomicU64::new(0),
                rejected: AtomicU64::new(0),
            }),
        })
    }

    /// The actual bound address (resolves port `0`).
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves until the shutdown flag rises, then drains and returns.
    /// Every request accepted into the queue before the drain gets a
    /// complete response.
    pub fn run(self) -> io::Result<ServeSummary> {
        let Server { listener, shared } = self;
        listener.set_nonblocking(true)?;
        let jobs = shared.service.jobs();
        std::thread::scope(|scope| {
            let mut workers = Vec::with_capacity(jobs);
            for widx in 0..jobs {
                let shared = Arc::clone(&shared);
                workers.push(
                    std::thread::Builder::new()
                        .name(format!("serve-worker-{widx}"))
                        .spawn_scoped(scope, move || worker_loop(&shared, widx))
                        .expect("spawning worker thread"),
                );
            }

            accept_loop(&listener, &shared);

            // Drain: no new connections, no revived keep-alives.
            drop(listener);
            shared.queue.close();
            for w in workers {
                let _ = w.join();
            }
            // Connections returned by workers racing the drain.
            shared.idle_return.lock().map(|mut v| v.clear()).ok();
        });
        Ok(ServeSummary {
            requests: shared.requests.load(Ordering::Relaxed),
            rejected: shared.rejected.load(Ordering::Relaxed),
        })
    }
}

/// The accept thread's loop: accept fresh connections, poll the idle set
/// for readability, feed the work queue, shed load with `429`.
fn accept_loop(listener: &TcpListener, shared: &Shared) {
    let mut idle: VecDeque<Conn> = VecDeque::new();
    loop {
        if shared.shutdown.load(Ordering::Relaxed) {
            // Stale keep-alives just drop: a client that raced a request
            // into one sees EOF before any response bytes and retries on
            // a fresh connection (which the closed listener refuses).
            idle.clear();
            return;
        }
        let mut progressed = false;

        // Keep-alive connections coming back from workers.
        if let Ok(mut returned) = shared.idle_return.lock() {
            for conn in returned.drain(..) {
                if conn.stream.set_nonblocking(true).is_ok() {
                    idle.push_back(conn);
                }
            }
        }

        // Fresh connections enter the idle set; their first request
        // makes them readable like any keep-alive reuse.
        loop {
            if cmr_failpoint::io_inject("serve::accept").is_some() {
                // An injected accept fault is transient: skip this pass,
                // the listener backlog holds the connection for the next.
                break;
            }
            match listener.accept() {
                Ok((stream, _peer)) => {
                    progressed = true;
                    let _ = stream.set_nodelay(true);
                    let _ = stream.set_write_timeout(Some(COMMIT_TIMEOUT));
                    if stream.set_nonblocking(true).is_ok() {
                        idle.push_back(Conn::new(stream));
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }

        // Readiness pass: move readable connections into the queue.
        let mut still_idle = VecDeque::with_capacity(idle.len());
        let mut peek = [0u8; 1];
        for conn in idle.drain(..) {
            let readable = if conn.has_buffered() {
                Some(true)
            } else {
                match conn.stream.peek(&mut peek) {
                    Ok(0) => None, // peer closed while idle
                    Ok(_) => Some(true),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => Some(false),
                    Err(_) => None,
                }
            };
            match readable {
                None => progressed = true, // dropped below
                Some(false) => still_idle.push_back(conn),
                Some(true) => {
                    progressed = true;
                    if conn.stream.set_nonblocking(false).is_err() {
                        continue;
                    }
                    if let Err(conn) = shared.queue.try_push(conn) {
                        reject_busy(conn, shared);
                    }
                }
            }
        }
        idle = still_idle;

        if !progressed {
            std::thread::sleep(TICK);
        }
    }
}

/// Answers `429 Too Many Requests` and closes: the queue is full, so the
/// cheapest honest signal is "come back later".
fn reject_busy(mut conn: Conn, shared: &Shared) {
    shared.rejected.fetch_add(1, Ordering::Relaxed);
    shared.requests.fetch_add(1, Ordering::Relaxed);
    // Drain what the client already sent before answering: closing a
    // socket with unread bytes in the receive buffer turns the close
    // into an RST, which can destroy the 429 before the client reads
    // it. Non-blocking — this runs on the accept thread.
    let mut sink = [0u8; 4096];
    if conn.stream.set_nonblocking(true).is_ok() {
        while matches!(conn.stream.read(&mut sink), Ok(1..)) {}
        let _ = conn.stream.set_nonblocking(false);
    }
    let _ = write_response(
        &mut conn.stream,
        429,
        "application/json",
        b"{\"error\":\"server busy, retry later\"}",
        false,
        &["Retry-After: 1"],
    );
    // FIN, not RST: the client sees response + EOF.
    let _ = conn.stream.shutdown(std::net::Shutdown::Write);
    if conn.stream.set_nonblocking(true).is_ok() {
        while matches!(conn.stream.read(&mut sink), Ok(1..)) {}
    }
}

/// One worker: pull connections, serve requests, hand keep-alives back.
fn worker_loop(shared: &Shared, widx: usize) {
    // The pipeline (and its caches) is built inside the worker thread —
    // it is `!Sync` by design; the shared parse cache and interner behind
    // it are process-wide, so this worker starts warm after the first
    // request anywhere.
    let worker = shared.service.worker(widx);
    while let Some(conn) = shared.queue.pop() {
        serve_conn(shared, &worker, conn);
    }
}

/// Serves every request currently arriving on one connection, then
/// returns it to the idle set (or closes it).
fn serve_conn(shared: &Shared, worker: &ServiceWorker, mut conn: Conn) {
    loop {
        match conn.read_request(
            FIRST_BYTE_WAIT,
            COMMIT_TIMEOUT,
            REQUEST_DEADLINE,
            shared.cfg.max_body_bytes,
        ) {
            ReadOutcome::Request(req) => {
                let draining = shared.shutdown.load(Ordering::Relaxed);
                let keep_alive = req.keep_alive && !draining;
                shared.requests.fetch_add(1, Ordering::Relaxed);
                if dispatch(shared, worker, &mut conn.stream, &req, keep_alive).is_err() {
                    return; // peer went away mid-response
                }
                if !keep_alive {
                    close_gracefully(conn);
                    return;
                }
                if conn.has_buffered() {
                    continue; // pipelined follower already here
                }
                if let Ok(mut returned) = shared.idle_return.lock() {
                    returned.push(conn);
                }
                return;
            }
            ReadOutcome::Idle => {
                // Readable when queued, nothing now (e.g. a spurious
                // wake): back to the idle set rather than camping here.
                if !shared.shutdown.load(Ordering::Relaxed) {
                    if let Ok(mut returned) = shared.idle_return.lock() {
                        returned.push(conn);
                    }
                }
                return;
            }
            ReadOutcome::Closed | ReadOutcome::Failed => return,
            ReadOutcome::Malformed(msg) => {
                shared.requests.fetch_add(1, Ordering::Relaxed);
                let body = error_body(msg);
                let _ =
                    write_response(&mut conn.stream, 400, "application/json", &body, false, &[]);
                close_gracefully(conn);
                return;
            }
            ReadOutcome::TooLarge => {
                shared.requests.fetch_add(1, Ordering::Relaxed);
                let body = error_body("request body exceeds the configured limit");
                let _ =
                    write_response(&mut conn.stream, 413, "application/json", &body, false, &[]);
                close_gracefully(conn);
                return;
            }
        }
    }
}

/// Closes a connection FIN-first after its final response: shutting the
/// write side then draining whatever the peer already sent (pipelined
/// bytes we will not serve) keeps the close from degenerating into an
/// RST that could destroy the response in flight. Bounded and
/// non-blocking — only bytes already in the receive buffer are drained.
fn close_gracefully(conn: Conn) {
    let _ = conn.stream.shutdown(std::net::Shutdown::Write);
    let mut sink = [0u8; 4096];
    if conn.stream.set_nonblocking(true).is_ok() {
        let mut stream = &conn.stream;
        while matches!(io::Read::read(&mut stream, &mut sink), Ok(1..)) {}
    }
}

/// `{"error": "..."}` with proper JSON escaping.
fn error_body(msg: &str) -> Vec<u8> {
    let quoted = serde_json::to_string(&msg.to_string()).unwrap_or_else(|_| "\"error\"".into());
    format!("{{\"error\":{quoted}}}").into_bytes()
}

/// Routes one request.
fn dispatch(
    shared: &Shared,
    worker: &ServiceWorker,
    stream: &mut TcpStream,
    req: &Request,
    keep_alive: bool,
) -> io::Result<()> {
    match (req.method.as_str(), req.target.as_str()) {
        ("GET", "/health") => {
            let metrics = shared.service.metrics();
            let report = HealthReport {
                status: "ready".to_string(),
                jobs: shared.service.jobs() as u64,
                uptime_ms: shared.service.uptime().as_millis() as u64,
                requests: shared.requests.load(Ordering::Relaxed),
                rejected: shared.rejected.load(Ordering::Relaxed),
                timeouts: metrics.errors.timeouts,
                retries: metrics.retries,
                quarantined: metrics.quarantined,
                lint: startup_lint_summary(),
                assets: format!("{:016x}", cmr_engine::asset_fingerprint()),
            };
            json_response(stream, 200, &report, keep_alive)
        }
        ("GET", "/metrics") => {
            let metrics = shared.service.metrics();
            json_response(stream, 200, &metrics, keep_alive)
        }
        ("POST", "/extract") => extract_one(shared, worker, stream, req, keep_alive),
        ("POST", "/extract/batch") => extract_batch(shared, worker, stream, req, keep_alive),
        ("GET" | "HEAD", "/extract" | "/extract/batch") | ("POST", "/health" | "/metrics") => {
            let allow = if req.target.starts_with("/extract") {
                "Allow: POST"
            } else {
                "Allow: GET"
            };
            let body = error_body("method not allowed");
            write_response(stream, 405, "application/json", &body, keep_alive, &[allow])
        }
        _ => {
            let body = error_body("no such endpoint (have: POST /extract, POST /extract/batch, GET /health, GET /metrics)");
            write_response(stream, 404, "application/json", &body, keep_alive, &[])
        }
    }
}

fn json_response<T: Serialize>(
    stream: &mut TcpStream,
    status: u16,
    value: &T,
    keep_alive: bool,
) -> io::Result<()> {
    match serde_json::to_string(value) {
        Ok(json) => write_response(
            stream,
            status,
            "application/json",
            json.as_bytes(),
            keep_alive,
            &[],
        ),
        Err(e) => {
            let body = error_body(&format!("serialization failed: {e}"));
            write_response(stream, 500, "application/json", &body, false, &[])
        }
    }
}

/// `POST /extract`: the body is one note — raw text, a JSON string, or a
/// JSON object with a `text` field (same decoding as `cmr extract -`).
fn extract_one(
    shared: &Shared,
    worker: &ServiceWorker,
    stream: &mut TcpStream,
    req: &Request,
    keep_alive: bool,
) -> io::Result<()> {
    let start = Instant::now();
    let Ok(body) = std::str::from_utf8(&req.body) else {
        let body = error_body("request body is not UTF-8");
        return write_response(stream, 400, "application/json", &body, keep_alive, &[]);
    };
    let text = ndjson::note_text_from_ndjson(body);
    let outcome = worker.extract(&text);
    let result = match &outcome {
        Ok(record) => json_response(stream, 200, record, keep_alive),
        Err(e) => {
            let status = match e {
                EngineError::Panicked { .. } => 500,
                _ => 422,
            };
            let body = error_body(&e.to_string());
            write_response(stream, status, "application/json", &body, keep_alive, &[])
        }
    };
    shared
        .service
        .record_latency(LatencyKind::Extract, start.elapsed().as_nanos() as u64);
    result
}

/// `POST /extract/batch`: NDJSON in, NDJSON out, one result line per
/// note line, blank lines skipped (shared reader with `cmr extract -`).
/// The response streams chunked so early records arrive while later ones
/// still extract; an in-band `{"error": ...}` line marks a failed record
/// without failing the batch.
fn extract_batch(
    shared: &Shared,
    worker: &ServiceWorker,
    stream: &mut TcpStream,
    req: &Request,
    keep_alive: bool,
) -> io::Result<()> {
    let start = Instant::now();
    let process = |note: Result<String, usize>| -> String {
        let line_start = Instant::now();
        let line = match note {
            Ok(text) => match worker.extract(&text) {
                Ok(record) => {
                    serde_json::to_string(&record).unwrap_or_else(|e| error_line(&e.to_string()))
                }
                Err(e) => error_line(&e.to_string()),
            },
            Err(line_no) => error_line(&format!("line {line_no} is not UTF-8")),
        };
        shared.service.record_latency(
            LatencyKind::BatchRecord,
            line_start.elapsed().as_nanos() as u64,
        );
        line
    };

    let result = if req.http11 {
        // Stream each record as its own chunk, as it is produced: the
        // client reads record k while record k+1 is still extracting.
        let mut w = ChunkedWriter::begin(stream, 200, "application/x-ndjson", keep_alive)?;
        for note in ndjson::notes_in_body(&req.body) {
            w.chunk(format!("{}\n", process(note)).as_bytes())?;
        }
        w.finish()
    } else {
        // HTTP/1.0 cannot take chunked: buffer and send with a length.
        let mut body = Vec::new();
        for note in ndjson::notes_in_body(&req.body) {
            body.extend_from_slice(process(note).as_bytes());
            body.push(b'\n');
        }
        write_response(stream, 200, "application/x-ndjson", &body, keep_alive, &[])
    };
    shared
        .service
        .record_latency(LatencyKind::Batch, start.elapsed().as_nanos() as u64);
    result
}

fn error_line(msg: &str) -> String {
    let quoted = serde_json::to_string(&msg.to_string()).unwrap_or_else(|_| "\"error\"".into());
    format!("{{\"error\":{quoted}}}")
}

/// The bounded ready-connection queue between the accept thread and the
/// workers. `close` wakes every popper once the remaining items drain —
/// the drain path's "finish what was admitted, take nothing new".
struct ConnQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
    cap: usize,
}

struct QueueState {
    items: VecDeque<Conn>,
    closed: bool,
}

impl ConnQueue {
    fn new(cap: usize) -> ConnQueue {
        ConnQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::with_capacity(cap),
                closed: false,
            }),
            ready: Condvar::new(),
            cap,
        }
    }

    /// Admits a connection unless the queue is full or closed (the
    /// connection comes back in `Err` so the caller can answer `429`).
    fn try_push(&self, conn: Conn) -> Result<(), Conn> {
        let Ok(mut state) = self.state.lock() else {
            return Err(conn);
        };
        if state.closed || state.items.len() >= self.cap {
            return Err(conn);
        }
        state.items.push_back(conn);
        drop(state);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks for the next connection; `None` once closed and empty.
    fn pop(&self) -> Option<Conn> {
        let mut state = self.state.lock().ok()?;
        loop {
            if let Some(conn) = state.items.pop_front() {
                return Some(conn);
            }
            if state.closed {
                return None;
            }
            state = self.ready.wait(state).ok()?;
        }
    }

    fn close(&self) {
        if let Ok(mut state) = self.state.lock() {
            state.closed = true;
        }
        self.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Orchestrators parse `/health`; pin the shape (including the
    /// degradation counters) with a full serde round trip.
    #[test]
    fn health_report_round_trips_through_json() {
        let report = HealthReport {
            status: "ready".to_string(),
            jobs: 2,
            uptime_ms: 1234,
            requests: 56,
            rejected: 7,
            timeouts: 3,
            retries: 9,
            quarantined: 1,
            lint: cmr_analyze::Summary {
                errors: 0,
                warnings: 2,
                notes: 44,
            },
            assets: "00000000deadbeef".to_string(),
        };
        let json = serde_json::to_string(&report).expect("serialize");
        for field in [
            "\"timeouts\":3",
            "\"retries\":9",
            "\"quarantined\":1",
            "\"status\":\"ready\"",
        ] {
            assert!(json.contains(field), "missing {field} in {json}");
        }
        let back: HealthReport = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, report);
    }
}
