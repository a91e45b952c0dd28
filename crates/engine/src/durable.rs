//! The durable run: the one write-ahead extraction loop.
//!
//! Every `cmr extract` input mode, orchestrate's shards, the I/O fault
//! sweep and the bench run a corpus through [`DurableRun`], so the crash
//! consistency the sweep proves and the overhead the bench gates belong
//! to the loop that ships. A journaled run:
//!
//! 1. fingerprints the input into a [`RunManifest`] (an NDJSON corpus
//!    file is streamed twice, never materialized);
//! 2. on resume, refuses a journal from another run, replays its entries
//!    to the output, and — past a compaction snapshot — proves the output
//!    file still holds the snapshot's prefix and truncates the tail after
//!    it; a journal that died before its manifest line heals by starting
//!    fresh (nothing was journaled, so nothing was emitted);
//! 3. appends each outcome to the journal *before* emitting it, so every
//!    line a consumer has seen survives a crash;
//! 4. compacts whenever the run's completed count — replayed records
//!    included — reaches a multiple of the interval, which bounds the
//!    journal to interval + 1 lines however often the run is resumed;
//! 5. ends complete, interrupted by the shutdown flag, or in a clean
//!    [`RunAbort`] that leaves the journal a valid, resumable prefix.
//!
//! Without a journal the same loop only streams records to the output.
//! A [`ShardSpec`] keeps one shard's slice of the input, and quarantine
//! entries carry their global corpus index.

use crate::engine::{Engine, EngineError};
use crate::journal::{
    verify_output_prefix, CorpusHasher, JournalEntry, JournalReplay, JournalWriter,
    OutputFingerprint, RunManifest, Snapshot,
};
use crate::metrics::EngineMetrics;
use crate::ndjson::note_from_line;
use crate::retry::QuarantineFile;
use crate::shard::ShardSpec;
use cmr_core::ExtractedRecord;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, BufWriter, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Where a run's note texts come from.
pub enum RunInput {
    /// An NDJSON corpus file (see [`crate::ndjson`]), streamed in
    /// O(one record) memory.
    NdjsonFile(PathBuf),
    /// A corpus already in memory.
    Texts(Vec<String>),
    /// A one-pass stream such as stdin; unjournaled runs only.
    Stream(Box<dyn Iterator<Item = String> + Send>),
}

/// A stream of note texts, as the engine's feeder consumes it.
type Notes = Box<dyn Iterator<Item = String> + Send>;

impl RunInput {
    /// Folds the notes of `shard`'s slice into a corpus hash, leaving the
    /// input ready to be read again.
    fn fingerprint(&mut self, shard: Option<ShardSpec>) -> Result<CorpusHasher, String> {
        let mut hasher = CorpusHasher::new();
        match self {
            RunInput::Texts(texts) => texts
                .iter()
                .enumerate()
                .filter(|(g, _)| shard.is_none_or(|s| s.owns(*g)))
                .for_each(|(_, t)| hasher.add(t)),
            RunInput::NdjsonFile(_) => self.notes(shard)?.for_each(|t| hasher.add(&t)),
            RunInput::Stream(_) => {
                return Err("a journaled run needs a re-readable input".to_string())
            }
        }
        Ok(hasher)
    }

    /// The notes of `shard`'s slice, in order.
    fn notes(&mut self, shard: Option<ShardSpec>) -> Result<Notes, String> {
        let all: Notes = match self {
            RunInput::NdjsonFile(path) => {
                let f =
                    File::open(&*path).map_err(|e| format!("opening {}: {e}", path.display()))?;
                Box::new(
                    BufReader::new(f)
                        .lines()
                        .map_while(Result::ok)
                        .filter_map(|l| note_from_line(&l)),
                )
            }
            RunInput::Texts(texts) => Box::new(std::mem::take(texts).into_iter()),
            RunInput::Stream(notes) => std::mem::replace(notes, Box::new(std::iter::empty())),
        };
        Ok(match shard {
            None => all,
            Some(s) => Box::new(
                all.enumerate()
                    .filter(move |(g, _)| s.owns(*g))
                    .map(|(_, t)| t),
            ),
        })
    }
}

/// Where a run's output lines go.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Output {
    /// Standard output, flushed per line; a closed pipe ends output
    /// quietly instead of failing the run.
    Stdout,
    /// A file, buffered, flushed before every compaction and at the end.
    File(PathBuf),
    /// Nowhere: lines are still serialized and fingerprinted.
    Discard,
}

impl fmt::Display for Output {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Output::Stdout => f.write_str("-"),
            Output::File(path) => write!(f, "{}", path.display()),
            Output::Discard => f.write_str("(discarded)"),
        }
    }
}

impl From<&str> for Output {
    /// The command-line convention: `-` is stdout, anything else a file.
    fn from(out: &str) -> Output {
        if out == "-" {
            Output::Stdout
        } else {
            Output::File(PathBuf::from(out))
        }
    }
}

impl Output {
    /// A fresh writer: the locked stdout, a created (truncated) file, or
    /// a sink.
    pub(crate) fn create(&self) -> Result<Box<dyn Write>, String> {
        Ok(match self {
            Output::Stdout => Box::new(std::io::stdout().lock()),
            Output::File(path) => Box::new(BufWriter::new(
                File::create(path).map_err(|e| format!("creating {}: {e}", path.display()))?,
            )),
            Output::Discard => Box::new(std::io::sink()),
        })
    }
}

/// The write-ahead journal settings of a run.
#[derive(Debug, Clone)]
pub struct JournalPolicy {
    /// The journal file.
    pub path: PathBuf,
    /// Replay an existing journal and finish only the remaining records.
    pub resume: bool,
    /// Compact to a snapshot every this many completed records (`0`:
    /// never).
    pub compact_every: u64,
}

/// Where a clean abort happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortSite {
    /// Creating the journal; no record was processed.
    JournalCreate,
    /// Reopening the journal to resume; it is untouched.
    JournalReopen,
    /// Appending a record to the journal.
    JournalAppend,
    /// Compacting the journal; the old journal stays valid.
    JournalCompact,
    /// Writing a journaled record's output line.
    OutputWrite,
    /// The `shard::kill` failpoint: the fault sweep's stand-in for a
    /// shard process killed between two records.
    ShardKill,
}

/// A clean abort: in-flight records drained, the journal is a valid
/// prefix of the run, and nothing unjournaled was emitted. Resume once
/// the condition is fixed.
#[derive(Debug)]
pub struct RunAbort {
    /// What the run was doing.
    pub site: AbortSite,
    /// The journal or output involved.
    pub target: String,
    /// The failure.
    pub error: std::io::Error,
}

impl fmt::Display for RunAbort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let verb = match self.site {
            AbortSite::JournalCreate => "creating",
            AbortSite::JournalReopen => "reopening",
            AbortSite::JournalAppend | AbortSite::OutputWrite => "writing",
            AbortSite::JournalCompact => "compacting",
            AbortSite::ShardKill => "killed while writing",
        };
        let class = match self.error.kind() {
            std::io::ErrorKind::StorageFull => "disk full (ENOSPC)",
            std::io::ErrorKind::PermissionDenied => "permission denied",
            std::io::ErrorKind::WriteZero => "write made no progress",
            _ => "I/O error",
        };
        write!(f, "{verb} {}: {class} ({})", self.target, self.error)
    }
}

/// How a run ended.
#[derive(Debug)]
pub enum RunOutcome {
    /// Every record was processed.
    Complete,
    /// The shutdown flag stopped feeding; what was fed drained.
    Interrupted,
    /// A clean I/O abort.
    Aborted(RunAbort),
}

/// What a run did.
#[derive(Debug)]
pub struct RunReport {
    /// How the run ended.
    pub outcome: RunOutcome,
    /// Engine metrics, plus counters rebuilt from replayed entries.
    pub metrics: EngineMetrics,
    /// Records accounted for: snapshot, replayed and new.
    pub completed: usize,
    /// Records in the run's slice, when known (journaled runs and
    /// in-memory inputs).
    pub total: Option<usize>,
    /// In-band error lines this process emitted.
    pub failed: u64,
}

/// A hook that sees each emitted record.
pub type RecordHook<'a> = Box<dyn FnMut(&Result<ExtractedRecord, EngineError>) + 'a>;

/// One durable extraction run (see the module docs): [`DurableRun::new`],
/// then set the optional fields, then [`DurableRun::run`].
pub struct DurableRun<'a> {
    engine: Engine,
    input: RunInput,
    output: Output,
    /// Journal the run write-ahead.
    pub journal: Option<JournalPolicy>,
    /// Run only this shard's slice of the input.
    pub shard: Option<ShardSpec>,
    /// File poison records here: created fresh, appended to on resume.
    pub quarantine: Option<PathBuf>,
    /// The graceful-shutdown flag (SIGINT/SIGTERM); the run also raises
    /// it to drain on a clean abort.
    pub shutdown: Arc<AtomicBool>,
    /// Crash injection for durability tests: abort the process, like a
    /// `kill -9`, right after journaling this many records.
    pub kill_after: Option<u64>,
    /// Receives operator notices, such as the resume progress line.
    pub notice: Box<dyn FnMut(&str) + 'a>,
    /// Sees every record emitted, replayed or new.
    pub on_record: RecordHook<'a>,
}

impl<'a> DurableRun<'a> {
    /// An unjournaled, unsharded run of `input` through `engine` into
    /// `output`; the run installs its shutdown flag and quarantine.
    pub fn new(engine: Engine, input: RunInput, output: Output) -> DurableRun<'a> {
        DurableRun {
            engine,
            input,
            output,
            journal: None,
            shard: None,
            quarantine: None,
            shutdown: Arc::new(AtomicBool::new(false)),
            kill_after: None,
            notice: Box::new(|_| {}),
            on_record: Box::new(|_| {}),
        }
    }

    /// Runs to completion, interruption or a clean abort. `Err` is a
    /// failure before any record ran: an unreadable input, a journal of
    /// another run, an output that cannot be opened.
    pub fn run(mut self) -> Result<RunReport, String> {
        let mut run = Loop {
            journal: None,
            sink: RecordSink::new(Box::new(std::io::sink()), false),
            on_record: self.on_record,
            completed: 0,
            newly_journaled: 0,
            kill_after: self.kill_after,
            output: self.output.to_string(),
        };
        let mut replay_metrics = EngineMetrics::default();
        let mut total = match &self.input {
            RunInput::Texts(t) => Some(self.shard.map_or(t.len(), |s| s.len(t.len()))),
            _ => None,
        };
        let resume = self.journal.as_ref().is_some_and(|j| j.resume);
        match self.journal.take() {
            None => run.sink = RecordSink::open(&self.output)?,
            Some(policy) => {
                let hasher = self.input.fingerprint(self.shard)?;
                let manifest = RunManifest::for_corpus(
                    self.engine.config(),
                    hasher.finish(),
                    hasher.records(),
                );
                total = Some(manifest.records);
                let opened = run.open_journal(
                    policy,
                    manifest,
                    &self.output,
                    &mut replay_metrics,
                    &mut self.notice,
                )?;
                if let Err(abort) = opened {
                    return Ok(RunReport {
                        outcome: RunOutcome::Aborted(abort),
                        metrics: EngineMetrics::default(),
                        completed: run.completed,
                        total,
                        failed: run.sink.failed,
                    });
                }
            }
        }

        let start = run.completed;
        let mut engine = self.engine.with_shutdown(Arc::clone(&self.shutdown));
        if let Some(path) = &self.quarantine {
            let file = if resume {
                QuarantineFile::open_append(path)
            } else {
                QuarantineFile::create(path)
            }
            .map_err(|e| format!("opening {}: {e}", path.display()))?;
            // The engine numbers records from the resume point within the
            // slice; entries carry their global corpus index.
            let (base, stride) = self
                .shard
                .map_or((start, 1), |s| (s.global_index(start), s.total));
            engine = engine.with_quarantine(file.with_index_mapping(base, stride));
        }
        let feed = self.input.notes(self.shard)?.skip(start);
        let mut abort: Option<RunAbort> = None;
        let mut metrics = engine.extract_stream(feed, |idx, output| {
            if abort.is_none() {
                if let Err(a) = run.record(start + idx, output) {
                    // Drain, and emit nothing further: an unjournaled
                    // line would be lost to resume.
                    abort = Some(a);
                    self.shutdown.store(true, Ordering::Relaxed);
                }
            }
        });
        metrics.merge(&replay_metrics);
        if abort.is_none() {
            if let Err(error) = run.sink.flush() {
                if run.journal.is_none() {
                    return Err(format!("writing {}: {error}", run.output));
                }
                abort = Some(run.output_abort(error));
            }
        }
        let interrupted = match total {
            Some(total) => run.completed < total,
            None => self.shutdown.load(Ordering::Relaxed),
        };
        Ok(RunReport {
            outcome: match abort {
                Some(a) => RunOutcome::Aborted(a),
                None if interrupted => RunOutcome::Interrupted,
                None => RunOutcome::Complete,
            },
            metrics,
            completed: run.completed,
            total,
            failed: run.sink.failed,
        })
    }
}

/// The open journal of a journaled run.
struct Journaled {
    writer: JournalWriter,
    path: PathBuf,
    manifest: RunManifest,
    compact_every: u64,
}

impl Journaled {
    fn abort(&self, site: AbortSite, error: std::io::Error) -> RunAbort {
        RunAbort {
            site,
            target: self.path.display().to_string(),
            error,
        }
    }
}

/// The state the ordered sink callback advances.
struct Loop<'a> {
    journal: Option<Journaled>,
    sink: RecordSink,
    on_record: RecordHook<'a>,
    completed: usize,
    newly_journaled: u64,
    kill_after: Option<u64>,
    output: String,
}

impl Loop<'_> {
    /// Opens the journal: fresh, or resumed with its prefix replayed to
    /// the output. The inner `Err` is a clean abort before any record.
    fn open_journal(
        &mut self,
        policy: JournalPolicy,
        manifest: RunManifest,
        output: &Output,
        replay_metrics: &mut EngineMetrics,
        notice: &mut dyn FnMut(&str),
    ) -> Result<Result<(), RunAbort>, String> {
        let journal_born = std::fs::read(&policy.path).is_ok_and(|b| b.contains(&b'\n'));
        let path = policy.path.display().to_string();
        let mut replayed = 0usize;
        let writer = if policy.resume && journal_born {
            let mut replay = JournalReplay::open(&policy.path).map_err(|e| e.to_string())?;
            if let Some(why) = replay.manifest().mismatch(&manifest) {
                return Err(format!("cannot resume {path}: {why}"));
            }
            self.sink = match replay.snapshot() {
                Some(snap) => RecordSink::after_snapshot(output, &path, snap, notice)?,
                // Uncompacted: the full replay rebuilds the output.
                None => RecordSink::open(output)?,
            };
            // Stream the journaled prefix straight to the output, so the
            // final output is byte-identical to an uninterrupted run.
            while let Some(step) = replay.next_entry() {
                let entry = step.map_err(|e| e.to_string())?;
                replay_metrics.absorb_replayed(&entry.output);
                self.emit(&entry.output);
                replayed += 1;
            }
            self.completed = replay.completed();
            notice(&format!(
                "resuming {path}: {}/{} record(s) already journaled ({replayed} replayed)",
                self.completed, manifest.records
            ));
            JournalWriter::append_to(&policy.path, replay.valid_len())
                .map_err(|e| (AbortSite::JournalReopen, e))
        } else {
            let created = JournalWriter::create(&policy.path, &manifest);
            if created.is_ok() {
                self.sink = RecordSink::open(output)?;
            }
            created.map_err(|e| (AbortSite::JournalCreate, e))
        };
        let journal = |writer| Journaled {
            writer,
            path: policy.path,
            manifest,
            compact_every: policy.compact_every,
        };
        Ok(match writer {
            Ok(writer) => {
                self.journal = Some(journal(writer));
                // A crash between a record's append and its compaction
                // leaves that compaction due.
                if replayed > 0 {
                    self.compact_if_due()
                } else {
                    Ok(())
                }
            }
            Err((site, error)) => Err(RunAbort {
                site,
                target: path,
                error,
            }),
        })
    }

    fn emit(&mut self, output: &Result<ExtractedRecord, EngineError>) {
        self.sink.emit(output);
        (self.on_record)(output);
    }

    fn output_abort(&self, error: std::io::Error) -> RunAbort {
        RunAbort {
            site: AbortSite::OutputWrite,
            target: self.output.clone(),
            error,
        }
    }

    /// Journals (when journaled), then emits, the record at `index` of
    /// the run's slice.
    fn record(
        &mut self,
        index: usize,
        output: Result<ExtractedRecord, EngineError>,
    ) -> Result<(), RunAbort> {
        let Some(journal) = self.journal.as_mut() else {
            self.emit(&output);
            self.completed += 1;
            return Ok(());
        };
        if let Some(inj) = cmr_failpoint::io_inject("shard::kill") {
            return Err(journal.abort(AbortSite::ShardKill, inj.into_io_error()));
        }
        let entry = JournalEntry { index, output };
        if let Err(e) = journal.writer.append(&entry) {
            return Err(journal.abort(AbortSite::JournalAppend, e));
        }
        self.emit(&entry.output);
        if let Some(e) = self.sink.take_error() {
            // Journaled but not durably emitted: resume rebuilds it.
            return Err(self.output_abort(e));
        }
        self.completed += 1;
        self.newly_journaled += 1;
        if self.kill_after == Some(self.newly_journaled) {
            std::process::abort();
        }
        self.compact_if_due()
    }

    /// Compacts when the completed count is a multiple of the interval.
    fn compact_if_due(&mut self) -> Result<(), RunAbort> {
        let every = self.journal.as_ref().map_or(0, |j| j.compact_every);
        if every == 0 || !(self.completed as u64).is_multiple_of(every) {
            return Ok(());
        }
        // The output must be on disk before the entry lines vanish: after
        // compaction the journal proves only the snapshot, whose
        // fingerprint must describe bytes that survive a crash.
        if let Err(e) = self.sink.flush() {
            return Err(self.output_abort(e));
        }
        let snap = Snapshot {
            completed: self.completed,
            output_fingerprint: self.sink.fingerprint.as_hex(),
        };
        let Some(journal) = self.journal.as_mut() else {
            return Ok(());
        };
        // On error the old journal is untouched and still valid.
        match JournalWriter::compact(&journal.path, &journal.manifest, &snap) {
            Ok(writer) => journal.writer = writer,
            Err(e) => return Err(journal.abort(AbortSite::JournalCompact, e)),
        }
        Ok(())
    }
}

/// Writes one line per record, in input order: the record JSON, or an
/// in-band error object. Every line also feeds the rolling
/// [`OutputFingerprint`] compaction snapshots. Stdout write errors (a
/// closed pipe) end output quietly; other destinations keep their first
/// error for the caller.
struct RecordSink {
    w: Box<dyn Write>,
    quiet: bool,
    failed: u64,
    fingerprint: OutputFingerprint,
    write_error: Option<std::io::Error>,
}

impl RecordSink {
    fn new(w: Box<dyn Write>, quiet: bool) -> RecordSink {
        RecordSink {
            w,
            quiet,
            failed: 0,
            fingerprint: OutputFingerprint::new(),
            write_error: None,
        }
    }

    fn open(output: &Output) -> Result<RecordSink, String> {
        Ok(RecordSink::new(output.create()?, *output == Output::Stdout))
    }

    /// The sink of a resume past a compaction snapshot. The snapshot's
    /// fingerprint carries the output identity across the compacted-away
    /// records; a file output must still hold exactly that prefix, and
    /// the unjournaled tail after it is dropped.
    fn after_snapshot(
        output: &Output,
        journal: &str,
        snap: &Snapshot,
        notice: &mut dyn FnMut(&str),
    ) -> Result<RecordSink, String> {
        let fingerprint = OutputFingerprint::from_hex(&snap.output_fingerprint)
            .ok_or_else(|| format!("cannot resume {journal}: corrupt snapshot"))?;
        let mut sink = match output {
            Output::File(path) => {
                let out = path.display();
                let f = File::open(path).map_err(|e| {
                    format!("cannot resume a compacted journal without its output file {out}: {e}")
                })?;
                let (valid, _) = verify_output_prefix(&mut BufReader::new(f), snap)
                    .map_err(|e| format!("cannot resume {journal}: {e}"))?;
                let mut f = OpenOptions::new()
                    .write(true)
                    .open(path)
                    .map_err(|e| format!("opening {out}: {e}"))?;
                f.set_len(valid)
                    .and_then(|()| f.seek(SeekFrom::Start(valid)))
                    .map_err(|e| format!("truncating {out}: {e}"))?;
                RecordSink::new(Box::new(BufWriter::new(f)), false)
            }
            _ => {
                notice(&format!(
                    "resuming a compacted journal to stdout: the {} record(s) before the \
                     snapshot were emitted by the previous run and are not replayed",
                    snap.completed
                ));
                RecordSink::open(output)?
            }
        };
        sink.fingerprint = fingerprint;
        Ok(sink)
    }

    fn emit(&mut self, result: &Result<ExtractedRecord, EngineError>) {
        let line = match result {
            Ok(rec) => serde_json::to_string(rec).unwrap_or_default(),
            Err(e) => {
                self.failed += 1;
                let message = serde_json::to_string(&e.to_string()).unwrap_or_default();
                format!("{{\"error\":{message}}}")
            }
        };
        self.fingerprint.add_line(&line);
        if self.write_error.is_none() {
            // Stdout is line-buffered: each record reaches it whole.
            self.write_error = writeln!(self.w, "{line}").err();
        }
    }

    fn take_error(&mut self) -> Option<std::io::Error> {
        if self.quiet {
            None
        } else {
            self.write_error.take()
        }
    }

    /// Pushes buffered lines out, surfacing the first write error.
    fn flush(&mut self) -> std::io::Result<()> {
        match self.take_error() {
            Some(e) => Err(e),
            None if self.quiet => Ok(()),
            None => self.w.flush(),
        }
    }
}
