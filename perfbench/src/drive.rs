//! Load generator for `cmr serve`: the open-loop schedule and the closed
//! loop.
//!
//! Request `i` is due at `t0 + i / rate`, whatever happened to earlier
//! requests. `conns` threads, each with one keep-alive connection, take
//! the next due request in turn, wait until it is due, send it and read
//! the reply. Latency runs from the due time, so a stall also charges the
//! requests queued behind it. Lateness (send time minus due time, over
//! requests whose thread was idle when they fell due) says how far behind
//! the generator itself fell.

use crate::{json_f64, Args};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One keep-alive client connection with its read buffer.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    fn open(addr: &str) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Conn {
            stream,
            buf: Vec::new(),
        })
    }

    /// Sends one `POST /extract` and reads the reply: status, body, and
    /// whether the server will close the connection.
    fn post(&mut self, body: &[u8]) -> std::io::Result<(u16, Vec<u8>, bool)> {
        let head = format!(
            "POST /extract HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        let mut req = Vec::with_capacity(head.len() + body.len());
        req.extend_from_slice(head.as_bytes());
        req.extend_from_slice(body);
        self.stream.write_all(&req)?;
        let head_end = loop {
            if let Some(p) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break p + 4;
            }
            self.fill()?;
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).to_ascii_lowercase();
        let bad = || std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed response");
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(bad)?;
        let len: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("content-length:"))
            .and_then(|v| v.trim().parse().ok())
            .ok_or_else(bad)?;
        let close = head.contains("connection: close");
        while self.buf.len() < head_end + len {
            self.fill()?;
        }
        let body = self.buf[head_end..head_end + len].to_vec();
        self.buf.drain(..head_end + len);
        Ok((status, body, close))
    }

    fn fill(&mut self) -> std::io::Result<()> {
        let mut chunk = [0u8; 16 * 1024];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }
}

/// Outcome of one scheduled request.
#[derive(Clone, Copy)]
struct Sample {
    /// HTTP status; 0 for a transport error.
    status: u16,
    /// The 200 body equals the batch output line of the same note.
    matched: bool,
    latency_ns: u64,
    late_ns: u64,
    /// The thread was idle when the request fell due.
    idle: bool,
}

/// One request on the thread's keep-alive connection, opened on demand:
/// the reply's status and body, or `None` on a transport error. The
/// connection is dropped whenever the server may have closed it (a 429
/// always closes).
fn exchange(conn: &mut Option<Conn>, addr: &str, body: &str) -> Option<(u16, Vec<u8>)> {
    if conn.is_none() {
        *conn = Conn::open(addr).ok();
    }
    match conn.as_mut()?.post(body.as_bytes()) {
        Ok((status, reply, close)) => {
            if close || status != 200 {
                *conn = None;
            }
            Some((status, reply))
        }
        Err(_) => {
            *conn = None;
            None
        }
    }
}

/// The request bodies (`--corpus`, one NDJSON note per line) and the
/// batch output lines their replies must equal (`--expected`).
fn load(args: &Args) -> Result<(String, String), String> {
    let corpus = args.str("corpus")?;
    let expected = args.str("expected")?;
    let bodies = std::fs::read_to_string(corpus).map_err(|e| format!("reading {corpus}: {e}"))?;
    let want = std::fs::read_to_string(expected).map_err(|e| format!("reading {expected}: {e}"))?;
    let (n, m) = (bodies.lines().count(), want.lines().count());
    if n == 0 || n != m {
        return Err(format!(
            "{corpus} has {n} notes but {expected} has {m} lines"
        ));
    }
    Ok((bodies, want))
}

/// `closed --addr A --corpus FILE --expected FILE --conns C [--seed N]`:
/// one pass that posts every note once over C connections, each sending
/// its next request as soon as the last reply is in; in corpus order, or
/// in an order shuffled by N. A whole pass is a fixed amount of work, so
/// the server's CPU over it does not depend on how fast the host ran.
/// Reports requests sent, those whose reply was not the expected 200 body
/// (`failed`), the 429s among them, the first other failure, and correct
/// replies per second.
pub fn closed(args: &Args) -> Result<String, String> {
    let addr = args.str("addr")?;
    let conns: usize = args.num("conns")?;
    let (bodies, want) = load(args)?;
    let (bodies, want): (Vec<&str>, Vec<&str>) = (bodies.lines().collect(), want.lines().collect());
    let order = if args.opt("seed").is_empty() {
        (0..bodies.len()).collect()
    } else {
        crate::shuffle(bodies.len(), args.num("seed")?)
    };
    let next = AtomicUsize::new(0);
    let failed = AtomicUsize::new(0);
    let rejected = AtomicUsize::new(0);
    let first_failure: Mutex<Option<(usize, u16)>> = Mutex::new(None);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..conns.max(1) {
            scope.spawn(|| {
                let mut conn: Option<Conn> = None;
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= order.len() {
                        break;
                    }
                    let note = order[i];
                    let reply = exchange(&mut conn, addr, bodies[note]);
                    if !matches!(&reply, Some((200, body)) if body == want[note].as_bytes()) {
                        failed.fetch_add(1, Ordering::Relaxed);
                        let status = reply.as_ref().map_or(0, |(status, _)| *status);
                        if status != 429 {
                            first_failure
                                .lock()
                                .expect("no sampler panics")
                                .get_or_insert((note, status));
                        }
                    }
                    if matches!(reply, Some((429, _))) {
                        rejected.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    let elapsed_s = start.elapsed().as_secs_f64();
    let sent = order.len();
    let failed = failed.into_inner();
    let rejected = rejected.into_inner();
    let first = first_failure.into_inner().expect("no sampler panics");
    Ok(format!(
        "{{\"sent\":{sent},\"failed\":{failed},\"rejected_429\":{rejected},\"elapsed_s\":{},\"ok_per_s\":{},\"first_failure\":{}}}",
        json_f64(elapsed_s),
        json_f64((sent - failed) as f64 / elapsed_s),
        failure_json(first)
    ))
}

/// `{"note": N, "status": S}` for the first reply, other than a 429,
/// that was not the expected 200 body (status 0: no reply at all), or
/// `null`.
fn failure_json(first: Option<(usize, u16)>) -> String {
    first.map_or("null".to_string(), |(note, status)| {
        format!("{{\"note\":{note},\"status\":{status}}}")
    })
}

/// Nearest-rank percentile of sorted values.
fn pct(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// `drive --addr A --corpus FILE --expected FILE --rate R --seconds T
/// --conns C --seed S --limit-ms L`.
pub fn run(args: &Args) -> Result<String, String> {
    let addr = args.str("addr")?.to_string();
    let rate: f64 = args.num("rate")?;
    let seconds: f64 = args.num("seconds")?;
    let conns: usize = args.num("conns")?;
    let seed: u64 = args.num("seed")?;
    let limit_ns = (args.num::<f64>("limit-ms")? * 1e6) as u64;
    if rate <= 0.0 || seconds <= 0.0 || conns == 0 {
        return Err("--rate, --seconds and --conns must be positive".into());
    }
    let (bodies, want) = load(args)?;
    let (bodies, want): (Vec<&str>, Vec<&str>) = (bodies.lines().collect(), want.lines().collect());
    let order = crate::shuffle(bodies.len(), seed);
    let total = (rate * seconds).round() as usize;
    let samples = Mutex::new(vec![
        Sample {
            status: 0,
            matched: false,
            latency_ns: 0,
            late_ns: 0,
            idle: false,
        };
        total
    ]);
    let next = AtomicUsize::new(0);
    let t0 = Instant::now() + Duration::from_millis(20);
    std::thread::scope(|scope| {
        for _ in 0..conns {
            scope.spawn(|| {
                let mut conn: Option<Conn> = None;
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= total {
                        break;
                    }
                    let due = t0 + Duration::from_secs_f64(i as f64 / rate);
                    let now = Instant::now();
                    let idle = due > now;
                    if idle {
                        std::thread::sleep(due - now);
                    }
                    let sent = Instant::now();
                    let note = order[i % order.len()];
                    let reply = exchange(&mut conn, &addr, bodies[note]);
                    let done = Instant::now();
                    let (status, matched) = match reply {
                        Some((status, body)) => {
                            (status, status == 200 && body == want[note].as_bytes())
                        }
                        None => (0, false),
                    };
                    let s = Sample {
                        status,
                        matched,
                        latency_ns: (done - due).as_nanos() as u64,
                        late_ns: sent.saturating_duration_since(due).as_nanos() as u64,
                        idle,
                    };
                    samples.lock().expect("no sampler panics")[i] = s;
                }
            });
        }
    });
    let elapsed_s = t0.elapsed().as_secs_f64();
    let samples = samples.into_inner().expect("no sampler panics");
    let ok = samples.iter().filter(|s| s.matched).count();
    let rejected = samples.iter().filter(|s| s.status == 429).count();
    let failed = total - ok;
    // Every failure but a 429 is a wrong answer: a wrong 200 body, another
    // status, or no reply at all.
    let mismatched = failed - rejected;
    let first_failure = samples
        .iter()
        .enumerate()
        .find(|(_, s)| !s.matched && s.status != 429)
        .map(|(i, s)| (order[i % order.len()], s.status));
    let within = samples
        .iter()
        .filter(|s| s.matched && s.latency_ns <= limit_ns)
        .count();
    // A failed or refused request misses every latency limit.
    let lat = |part: &[Sample]| -> Vec<u64> {
        let mut v: Vec<u64> = part
            .iter()
            .map(|s| if s.matched { s.latency_ns } else { u64::MAX })
            .collect();
        v.sort_unstable();
        v
    };
    let all = lat(&samples);
    let q = total / 4;
    let first = lat(&samples[..q]);
    let last = lat(&samples[total - q..]);
    // Backlog: the last quarter's median more than doubles the first's.
    let growing = q > 0 && pct(&last, 0.5) > 2 * pct(&first, 0.5).max(limit_ns / 4);
    // Generator lateness counts only requests whose thread was idle when
    // they fell due; the rest waited for a connection held by a slow reply.
    let mut late: Vec<u64> = samples
        .iter()
        .filter(|s| s.idle)
        .map(|s| s.late_ns)
        .collect();
    late.sort_unstable();
    let queued = samples.iter().filter(|s| !s.idle).count();
    let ms = |ns: u64| {
        if ns == u64::MAX {
            "null".to_string()
        } else {
            json_f64(ns as f64 / 1e6)
        }
    };
    let mean_ok_us = samples
        .iter()
        .filter(|s| s.matched)
        .map(|s| s.latency_ns as f64 / 1e3)
        .sum::<f64>()
        / ok.max(1) as f64;
    Ok(format!(
        "{{\"rate\":{},\"seconds\":{},\"elapsed_s\":{},\"sent\":{total},\"ok\":{ok},\"rejected_429\":{rejected},\"mismatched\":{mismatched},\"failed\":{failed},\"ok_within_limit\":{within},\"p50_ms\":{},\"p90_ms\":{},\"p99_ms\":{},\"max_ms\":{},\"mean_ok_us\":{},\"backlog_growing\":{growing},\"queued\":{queued},\"late_p50_ms\":{},\"late_p99_ms\":{},\"late_max_ms\":{},\"first_failure\":{}}}",
        json_f64(rate),
        json_f64(seconds),
        json_f64(elapsed_s),
        ms(pct(&all, 0.5)),
        ms(pct(&all, 0.9)),
        ms(pct(&all, 0.99)),
        ms(*all.last().unwrap_or(&0)),
        json_f64(mean_ok_us),
        ms(pct(&late, 0.5)),
        ms(pct(&late, 0.99)),
        ms(*late.last().unwrap_or(&0)),
        failure_json(first_failure),
    ))
}
