//! I/O fault sweep: deterministic fault injection over the durability
//! and service write paths.
//!
//! Each *schedule* (a `CMR_FAILPOINTS`-grammar string, seeded) is run
//! against the shipped durable loop ([`DurableRun`], which `cmr extract`
//! drives) over an NDJSON corpus file, or against a service burst, and
//! the sweep asserts the robustness invariants the rest of the system
//! promises:
//!
//! * **clean containment** — an injected ENOSPC, torn write, delay, or
//!   panic never takes the harness down and never corrupts state beyond
//!   what resume heals;
//! * **resume identity** — after the fault clears, resuming the journal
//!   produces output byte-identical to an unfaulted run;
//! * **exactly-once** — every submitted record lands exactly once in the
//!   journal/output (or is part of a cleanly-reported abort), never
//!   silently lost and never duplicated;
//! * **replay determinism** — re-running a schedule from its seed fires
//!   the identical event sequence (the whole point of seeding them);
//! * **service liveness** — a server taking socket faults keeps
//!   answering once the schedule clears.
//!
//! The sweep requires a build with the `failpoints` feature; plain
//! builds get a clear error instead of a silently-empty report.

use cmr_core::Schema;
use cmr_corpus::CorpusBuilder;
use cmr_engine::{
    merge_artifacts, read_journal, shard_path, DurableRun, Engine, EngineConfig, JournalPolicy,
    Output, RetryPolicy, RunInput, RunOutcome, ShardSpec,
};
use cmr_failpoint::FailpointRegistry;
use cmr_ontology::Ontology;
use cmr_serve::{ServeConfig, Server};
use serde::Serialize;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Configuration for [`run_io_faults`].
#[derive(Debug, Clone)]
pub struct IoFaultConfig {
    /// `standard` for the built-in schedule matrix, or one schedule in
    /// the `CMR_FAILPOINTS` grammar (e.g. `journal::append=enospc@3`).
    pub spec: String,
    /// Seed applied to every schedule (overridden by an explicit
    /// `seed=` item inside a custom spec).
    pub seed: u64,
    /// Records in the synthetic corpus each schedule extracts.
    pub records: usize,
    /// Worker threads for the extraction engine (`0` = one per core).
    pub jobs: usize,
}

/// Outcome of one schedule.
#[derive(Debug, Clone, Serialize)]
pub struct ScheduleReport {
    /// The schedule, in spec grammar (seed included — replayable as-is
    /// via `CMR_FAILPOINTS`).
    pub schedule: String,
    /// `journal`, `quarantine`, `engine`, or `serve` — which surface it
    /// targets.
    pub kind: String,
    /// Failpoint fires observed during the faulted phase.
    pub fires: usize,
    /// The faulted phase ended in a contained abort (injected error or
    /// panic) rather than completing; `false` is fine for schedules
    /// whose action is benign (delay) or probabilistic.
    pub clean_abort: bool,
    /// Invariant violations; empty means the schedule passed.
    pub violations: Vec<String>,
}

/// The sweep's full result.
#[derive(Debug, Clone, Serialize)]
pub struct IoFaultReport {
    /// Base seed of the sweep.
    pub seed: u64,
    /// Corpus size per schedule.
    pub records: usize,
    /// One entry per schedule, in run order.
    pub schedules: Vec<ScheduleReport>,
}

impl IoFaultReport {
    /// Total invariant violations across all schedules.
    pub fn total_violations(&self) -> usize {
        self.schedules.iter().map(|s| s.violations.len()).sum()
    }
}

/// The sweep's table: one row per schedule, its violations under it.
impl std::fmt::Display for IoFaultReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "io-fault sweep: {} record(s), seed {}, {} schedule(s)",
            self.records,
            self.seed,
            self.schedules.len()
        )?;
        write!(f, "kind        fires  abort  ok  schedule")?;
        for s in &self.schedules {
            let abort = if s.clean_abort { "yes" } else { "no" };
            let ok = if s.violations.is_empty() {
                "ok"
            } else {
                "FAIL"
            };
            let (kind, fires, schedule) = (&s.kind, s.fires, &s.schedule);
            write!(f, "\n{kind:<11} {fires:<6} {abort:<6} {ok:<3} {schedule}")?;
            for v in &s.violations {
                write!(f, "\n            violation: {v}")?;
            }
        }
        Ok(())
    }
}

/// The built-in schedule matrix: every registered write-path failpoint
/// crossed with the action classes that stress it.
fn standard_schedules() -> Vec<&'static str> {
    vec![
        "journal::manifest=enospc@1",
        "journal::append=enospc@3",
        "journal::append=partial-write(25)@3",
        "journal::append=return-err@4",
        "journal::append=delay(10)@2",
        "journal::append=panic@3",
        "journal::truncate=return-err@1",
        "quarantine::append=partial-write(11)@1",
        // Panic mid-chunk: the third record-extraction attempt panics
        // inside a 16-record dispatch chunk. Its chunk-mates must be
        // unaffected (per-record isolation survived batching) and the
        // retry policy heals the panicked record, so the faulted run
        // stays byte-identical to the unfaulted baseline.
        "engine::record=panic@3",
        // Sharded-run schedules: a 3-way sharded, compaction-enabled
        // extraction where one shard "dies" mid-run (the `shard::kill`
        // failpoint in the durable loop stands in for kill -9 on a
        // supervisor-managed subprocess) or compaction itself hits ENOSPC. Resuming the dead shard and
        // merging must reproduce the unsharded baseline byte-for-byte,
        // and compaction must keep every healed journal O(interval).
        "shard::kill=return-err@5",
        "shard::kill=enospc@2",
        "journal::compact=enospc@1",
        "serve::read=return-err%0.3",
        "serve::write=return-err%0.3",
        "serve::accept=return-err@2",
        "serve::chunk=return-err%0.5",
    ]
}

/// Runs the sweep. Errors when the build has no fault-injection layer
/// or a schedule fails to parse; invariant *violations* are reported in
/// the result, not as an `Err`.
pub fn run_io_faults(cfg: &IoFaultConfig) -> Result<IoFaultReport, String> {
    if !cmr_failpoint::ENABLED {
        return Err("this build does not include the fault-injection layer; \
             rebuild with `--features failpoints` to run --io-faults"
            .to_string());
    }
    let schedules: Vec<String> = if cfg.spec == "standard" {
        standard_schedules().into_iter().map(String::from).collect()
    } else {
        vec![cfg.spec.clone()]
    };
    let dir = std::env::temp_dir().join(format!("cmr-io-faults-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;

    // The corpus as an NDJSON file, one JSON-string note per line: every
    // run reads it the way `cmr extract --ndjson` does.
    let corpus = dir.join("corpus.ndjson");
    let mut ndjson = String::new();
    for record in CorpusBuilder::new()
        .records(cfg.records.max(1))
        .seed(cfg.seed)
        .build()
        .records
    {
        ndjson.push_str(&serde_json::to_string(&record.text).map_err(|e| format!("{e:?}"))?);
        ndjson.push('\n');
    }
    std::fs::write(&corpus, ndjson).map_err(|e| format!("writing {}: {e}", corpus.display()))?;
    let engine_cfg = EngineConfig {
        jobs: cfg.jobs,
        ..EngineConfig::default()
    };
    // A config that poisons every record (zero sentence budget, single
    // attempt): the only way to exercise the quarantine write path
    // deterministically.
    let poison_cfg = EngineConfig {
        jobs: cfg.jobs,
        max_record_sentences: Some(0),
        ..EngineConfig::default()
    };
    // Engine-surface schedules (`engine::`/`pool::` failpoints) run with
    // retry enabled: an injected per-record panic classifies as transient
    // and the second attempt — with the one-shot trigger spent — heals it,
    // so the faulted run itself must already match the baseline.
    let retry_cfg = EngineConfig {
        jobs: cfg.jobs,
        retry: RetryPolicy {
            max_attempts: 3,
            base_delay_millis: 0,
        },
        ..EngineConfig::default()
    };
    cmr_failpoint::clear();
    let baseline = unfaulted_baseline(&corpus, &engine_cfg, &dir.join("baseline.ndjson"))?;
    let poison_baseline =
        unfaulted_baseline(&corpus, &poison_cfg, &dir.join("poison-baseline.ndjson"))?;
    let retry_baseline =
        unfaulted_baseline(&corpus, &retry_cfg, &dir.join("retry-baseline.ndjson"))?;

    let mut reports = Vec::with_capacity(schedules.len());
    for (idx, schedule) in schedules.iter().enumerate() {
        let mut reg = FailpointRegistry::parse(schedule)?;
        if !schedule.contains("seed=") {
            reg = FailpointRegistry::parse(&format!("{schedule};seed={}", cfg.seed))?;
        }
        let spec = reg.to_spec();
        let sdir = dir.join(format!("sched-{idx}"));
        let report = match classify(schedule) {
            "serve" => run_serve_schedule(&spec),
            kind => {
                let (cfg, baseline) = match kind {
                    "quarantine" => (&poison_cfg, &poison_baseline),
                    "engine" => (&retry_cfg, &retry_baseline),
                    _ => (&engine_cfg, &baseline),
                };
                run_durable_schedule(&spec, schedule, &corpus, cfg, baseline, &sdir)
            }
        };
        reports.push(report);
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(IoFaultReport {
        seed: cfg.seed,
        records: baseline.lines().count(),
        schedules: reports,
    })
}

fn classify(schedule: &str) -> &'static str {
    if schedule.contains("shard::") || schedule.contains("journal::compact") {
        // `journal::compact` only fires in compacting runs, and only the
        // shard schedules compact.
        "shard"
    } else if schedule.contains("serve::") {
        "serve"
    } else if schedule.contains("quarantine::") {
        "quarantine"
    } else if schedule.contains("engine::") || schedule.contains("pool::") {
        "engine"
    } else {
        "journal"
    }
}

/// Output of an unfaulted, unjournaled run — the identity target.
fn unfaulted_baseline(corpus: &Path, cfg: &EngineConfig, out: &Path) -> Result<String, String> {
    DurableRun::new(
        Engine::new(cfg.clone(), Schema::paper(), Ontology::full()),
        RunInput::NdjsonFile(corpus.to_path_buf()),
        Output::File(out.to_path_buf()),
    )
    .run()?;
    std::fs::read_to_string(out).map_err(|e| format!("reading {}: {e}", out.display()))
}

/// How many ways the shard schedules partition the corpus.
const SHARD_WAYS: usize = 3;
/// Compaction interval of the sharded runs: small enough that every
/// shard snapshots several times, so `journal::compact` faults have a
/// site to hit and the O(remainder) bound is actually exercised.
const SHARD_COMPACT_EVERY: u64 = 4;

/// One `cmr extract --ndjson CORPUS --journal … --resume` run, shard
/// `index` of `ways` (unsharded when `ways` is 1), with the artifacts
/// `cmr orchestrate` gives a shard in `dir`. Runs in a thread of its own
/// so an injected panic is contained; `Some(why)` when it did not
/// complete.
fn run_shard(
    corpus: &Path,
    cfg: &EngineConfig,
    dir: &Path,
    index: usize,
    ways: usize,
) -> Option<String> {
    let run = || {
        let mut run = DurableRun::new(
            Engine::new(cfg.clone(), Schema::paper(), Ontology::full()),
            RunInput::NdjsonFile(corpus.to_path_buf()),
            Output::File(shard_path(dir, index, "out.ndjson")),
        );
        run.journal = Some(JournalPolicy {
            path: shard_path(dir, index, "journal"),
            resume: true,
            compact_every: if ways > 1 { SHARD_COMPACT_EVERY } else { 0 },
        });
        run.shard = (ways > 1).then_some(ShardSpec { index, total: ways });
        run.quarantine = Some(shard_path(dir, index, "quarantine.ndjson"));
        run.run()
    };
    match std::thread::scope(|scope| scope.spawn(run).join()) {
        Err(_) => Some("panicked (contained)".to_string()),
        Ok(Err(e)) => Some(e),
        Ok(Ok(report)) => match report.outcome {
            RunOutcome::Complete => None,
            RunOutcome::Interrupted => Some("interrupted".to_string()),
            RunOutcome::Aborted(abort) => Some(abort.to_string()),
        },
    }
}

/// One durable-run schedule: the faulted run (twice — the second round
/// only pins replay determinism: same schedule and seed must fire the
/// same events), then, faults cleared, every shard resumes from its
/// journal as `cmr orchestrate` restarts them and the artifacts merge as
/// `cmr merge` does. Shard schedules split the corpus 3 ways and compact;
/// the rest run it whole. The invariants: each faulted output is a
/// prefix of its slice of the baseline (nothing unjournaled escaped),
/// the merged output equals the baseline byte for byte, and every healed
/// journal accounts for exactly its slice within the compaction bound.
fn run_durable_schedule(
    spec: &str,
    schedule: &str,
    corpus: &Path,
    cfg: &EngineConfig,
    baseline: &str,
    dir: &Path,
) -> ScheduleReport {
    let kind = classify(schedule);
    let ways = if kind == "shard" { SHARD_WAYS } else { 1 };
    let round_dir = |round: usize| dir.join(format!("round-{round}"));
    let records = baseline.lines().count();
    let slice = |s: usize| -> String {
        let spec = ShardSpec {
            index: s,
            total: ways,
        };
        let owned = baseline.lines().enumerate().filter(|(g, _)| spec.owns(*g));
        owned.map(|(_, l)| format!("{l}\n")).collect()
    };
    let mut violations = Vec::new();
    // `journal::truncate` only exists on the resume path, so those
    // schedules fault the reopening of an unfaulted journal.
    for round in 0..2 {
        let _ = std::fs::create_dir_all(round_dir(round));
        if schedule.contains("journal::truncate") {
            if let Some(e) = run_shard(corpus, cfg, &round_dir(round), 0, ways) {
                violations.push(format!("pre-building the journal failed: {e}"));
            }
        }
    }
    let mut rounds = Vec::new();
    let mut event_logs = Vec::new();
    for round in 0..2 {
        if let Err(e) = FailpointRegistry::parse(spec).and_then(FailpointRegistry::install) {
            violations.push(format!("installing schedule: {e}"));
            break;
        }
        // One supervisor tick: the shards run one after another.
        let aborts: Vec<_> = (0..ways)
            .map(|s| run_shard(corpus, cfg, &round_dir(round), s, ways))
            .collect();
        rounds.push(aborts);
        event_logs.push(cmr_failpoint::events());
        cmr_failpoint::clear();
    }
    if event_logs.len() == 2 && event_logs[0] != event_logs[1] {
        violations.push(format!(
            "replay diverged: round 1 fired {:?}, round 2 fired {:?}",
            event_logs[0], event_logs[1]
        ));
    }
    let clean_abort = rounds
        .first()
        .is_some_and(|r| r.iter().any(Option::is_some));

    let dir = round_dir(0);
    for s in 0..ways {
        let out = std::fs::read_to_string(shard_path(&dir, s, "out.ndjson")).unwrap_or_default();
        if !slice(s).starts_with(&out) {
            violations.push(format!(
                "shard {s}: the faulted run emitted lines that are not a prefix of the baseline"
            ));
        }
        if let Some(e) = run_shard(corpus, cfg, &dir, s, ways) {
            violations.push(format!("shard {s}: resume after fault aborted: {e}"));
        }
        let journal = shard_path(&dir, s, "journal");
        // O(remainder) resume: compaction bounds the healed journal to
        // manifest + snapshot plus less than one interval of entries.
        let lines = std::fs::read_to_string(&journal).map_or(0, |t| t.lines().count());
        if ways > 1 && lines as u64 > SHARD_COMPACT_EVERY + 1 {
            violations.push(format!(
                "shard {s}: journal holds {lines} line(s) after resume; compaction every \
                 {SHARD_COMPACT_EVERY} records bounds it to {}",
                SHARD_COMPACT_EVERY + 1
            ));
        }
        // Exactly-once: the healed journal accounts for the whole slice
        // (read_journal rejects gaps and duplicates).
        let want = ShardSpec {
            index: s,
            total: ways,
        }
        .len(records);
        match read_journal(&journal) {
            Ok(read) if read.completed() == want => {}
            Ok(read) => violations.push(format!(
                "shard {s}: journal accounts for {} of {want} record(s) after resume",
                read.completed()
            )),
            Err(e) => violations.push(format!("shard {s}: journal unreadable after resume: {e}")),
        }
    }

    let merged = dir.join("merged.ndjson");
    let quarantine = dir.join("merged.quarantine.ndjson");
    let output = Output::File(merged.clone());
    match merge_artifacts(&dir, ways, &output, None, Some(&quarantine)) {
        Err(e) => violations.push(format!("merging the run's artifacts: {e}")),
        Ok(_) => {
            let merged = std::fs::read_to_string(&merged).unwrap_or_default();
            if merged != baseline {
                violations.push(format!(
                    "merged output diverged from the unfaulted baseline ({} vs {} line(s))",
                    merged.lines().count(),
                    records
                ));
            }
        }
    }
    ScheduleReport {
        schedule: spec.to_string(),
        kind: kind.to_string(),
        fires: event_logs.first().map_or(0, Vec::len),
        clean_abort,
        violations,
    }
}

/// One serve schedule: a request burst against an in-process server
/// under socket faults, then a liveness probe with the schedule cleared.
fn run_serve_schedule(spec: &str) -> ScheduleReport {
    let mut violations = Vec::new();
    if let Err(e) = FailpointRegistry::parse(spec).and_then(FailpointRegistry::install) {
        violations.push(format!("installing schedule: {e}"));
    }
    let shutdown = Arc::new(AtomicBool::new(false));
    let server = match Server::bind(
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            jobs: 1,
            queue_depth: 16,
            ..ServeConfig::default()
        },
        Arc::clone(&shutdown),
    ) {
        Ok(s) => s,
        Err(e) => {
            cmr_failpoint::clear();
            violations.push(format!("binding server: {e}"));
            return ScheduleReport {
                schedule: spec.to_string(),
                kind: "serve".to_string(),
                fires: 0,
                clean_abort: false,
                violations,
            };
        }
    };
    let addr = server
        .local_addr()
        .map(|a| a.to_string())
        .unwrap_or_default();
    let handle = std::thread::spawn(move || server.run());

    // The burst: single notes and NDJSON batches (the latter exercise
    // the chunked writer). Every request must resolve — a response or a
    // transport error within the timeout — never a hang.
    let note = "Vitals:  Blood pressure is 144/90, pulse of 84.\n";
    let batch = format!("{:?}\n{:?}\n", note, "Pulse is 72. Temperature is 37.2.");
    let mut answered = 0usize;
    let mut refused = 0usize;
    for i in 0..20 {
        let (path, body) = if i % 3 == 0 {
            ("/extract/batch", batch.as_str())
        } else {
            ("/extract", note)
        };
        match burst_request(&addr, path, body) {
            Some(status) if (200..500).contains(&status) => answered += 1,
            Some(status) => violations.push(format!("request {i}: server error {status}")),
            None => refused += 1,
        }
    }
    let fires = cmr_failpoint::events().len();
    cmr_failpoint::clear();

    // Liveness: with the schedule cleared the same server must answer.
    match burst_request(&addr, "/extract", note) {
        Some(200) => {}
        outcome => violations.push(format!(
            "liveness probe after clearing faults got {outcome:?}, want 200"
        )),
    }
    shutdown.store(true, Ordering::Relaxed);
    let _ = TcpStream::connect(&addr); // nudge a blocked accept pass
    if handle.join().is_err() {
        violations.push("server thread panicked".to_string());
    }
    if answered == 0 && refused > 0 && fires == 0 {
        violations.push("no request was answered yet no failpoint fired".to_string());
    }
    ScheduleReport {
        schedule: spec.to_string(),
        kind: "serve".to_string(),
        fires,
        clean_abort: false,
        violations,
    }
}

/// One bounded-time request; `Some(status)` when a well-formed response
/// came back, `None` on connect/read/write failure (an acceptable
/// outcome *under faults* — the invariant is resolution, not success).
fn burst_request(addr: &str, path: &str, body: &str) -> Option<u16> {
    let mut stream = TcpStream::connect(addr).ok()?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .ok()?;
    stream
        .set_write_timeout(Some(Duration::from_secs(10)))
        .ok()?;
    let raw = format!(
        "POST {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(raw.as_bytes()).ok()?;
    let mut response = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => response.extend_from_slice(&chunk[..n]),
            Err(_) => break,
        }
    }
    let head = std::str::from_utf8(&response).ok()?;
    head.strip_prefix("HTTP/1.1 ")?
        .split(' ')
        .next()?
        .parse()
        .ok()
}
