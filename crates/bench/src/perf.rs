//! The `cmr bench` performance harness: a machine-readable throughput
//! snapshot of the whole pipeline, suitable for regression gating in CI.
//!
//! The harness runs the gold corpus plus a deterministically generated
//! corpus through (a) a single serial [`Pipeline`] and (b) the parallel
//! engine, and reports notes/sec, ns per extracted field, parse-cache hit
//! rates, allocation counts (when the caller supplies a counting-allocator
//! probe — see `src/bin/cmr.rs`) and peak RSS. Reports serialize to JSON
//! (`BENCH_pr3.json`); [`check_regression`] compares two reports and is the
//! CI perf-smoke gate.

use cmr_core::{Pipeline, Schema};
use cmr_corpus::CorpusBuilder;
use cmr_engine::{DurableRun, Engine, EngineConfig, JournalPolicy, Output, RunInput};
use cmr_ontology::Ontology;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// What to run. Small by default so the CI smoke job stays fast; the
/// committed `BENCH_pr3.json` uses larger settings (see EXPERIMENTS.md §B3).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchConfig {
    /// Generated-corpus size (the 50-record gold corpus is always included).
    pub records: usize,
    /// Generator seed (fixed ⇒ identical workload across runs).
    pub seed: u64,
    /// Timed repeats; the best repeat is reported (min-noise convention).
    pub repeats: usize,
    /// Worker threads for the parallel leg.
    pub jobs: usize,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            records: 150,
            seed: 2005,
            repeats: 3,
            jobs: 4,
        }
    }
}

/// One timed leg (serial pipeline or parallel engine).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RunStats {
    /// Notes processed per repeat.
    pub notes: u64,
    /// Fields extracted across all notes (numeric + term hits).
    pub fields: u64,
    /// Wall time of the best repeat, nanoseconds.
    pub wall_nanos: u64,
    /// Notes per second (best repeat).
    pub notes_per_sec: f64,
    /// Nanoseconds per extracted field (best repeat).
    pub ns_per_field: f64,
    /// Link-parser structure-cache hits (best repeat).
    pub cache_hits: u64,
    /// Link-parser structure-cache misses (best repeat).
    pub cache_misses: u64,
    /// Cache hit rate in `0.0..=1.0` (0 when no lookups).
    pub cache_hit_rate: f64,
    /// Nanoseconds workers spent blocked receiving work from the dispatch
    /// channel, summed across workers. Parallel legs only.
    pub channel_wait_nanos: Option<u64>,
    /// High-water mark of the output reorder ring (records parked waiting
    /// for an earlier sequence number). Parallel legs only.
    pub reorder_high_water: Option<u64>,
}

impl RunStats {
    fn finish(&mut self) {
        if self.wall_nanos > 0 {
            self.notes_per_sec = self.notes as f64 / (self.wall_nanos as f64 / 1e9);
        }
        if self.fields > 0 {
            self.ns_per_field = self.wall_nanos as f64 / self.fields as f64;
        }
        let lookups = self.cache_hits + self.cache_misses;
        if lookups > 0 {
            self.cache_hit_rate = self.cache_hits as f64 / lookups as f64;
        }
    }
}

/// Allocation counts for one serial pass, measured by the caller-supplied
/// probe (the `cmr` binary installs a counting global allocator; library
/// crates stay `forbid(unsafe_code)`).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct AllocStats {
    /// Heap allocations per note (counting pass, warm caches).
    pub allocs_per_note: f64,
    /// Heap bytes allocated per note (counting pass, warm caches).
    pub bytes_per_note: f64,
}

/// The full report written to `BENCH_pr3.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchReport {
    /// Report format version (bump on breaking shape changes).
    pub version: u32,
    /// The configuration that produced this report.
    pub config: BenchConfig,
    /// Serial single-threaded pipeline over gold + generated corpora.
    pub serial: RunStats,
    /// Parallel engine at `config.jobs` workers over the same texts.
    pub parallel: RunStats,
    /// Parallel engine with a write-ahead journal enabled (PR 5): same
    /// workload as `parallel`, plus one journal line per record. Absent in
    /// reports from before the durability subsystem existed.
    pub journaled: Option<RunStats>,
    /// Journaled leg with auto-compaction enabled (PR 10): the journal is
    /// snapshotted and truncated every [`COMPACT_EVERY`] records, so this
    /// leg measures what corpus-scale runs pay for O(remainder) resume.
    /// Absent in reports from before journal compaction existed.
    pub journaled_compacting: Option<RunStats>,
    /// Allocation counts (absent when no counting allocator is installed).
    pub allocations: Option<AllocStats>,
    /// Peak resident set size in bytes (`VmHWM`; absent off-Linux).
    pub peak_rss_bytes: Option<u64>,
    /// Optional pre-change baseline summary carried inside the committed
    /// report, so the before/after pair lives in one file.
    pub baseline: Option<BaselineSummary>,
    /// Optional `--scaling` sweep over worker counts (PR 8). Absent in
    /// older reports and in runs that did not request a sweep.
    pub scaling: Option<ScalingReport>,
}

/// One `jobs=N` point of a scaling sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScalingPoint {
    /// Worker-thread count for this point.
    pub jobs: usize,
    /// Notes per second (best repeat).
    pub notes_per_sec: f64,
    /// Throughput relative to this sweep's own `jobs=1` point.
    pub speedup_vs_jobs1: f64,
    /// Parse-cache misses (cold parses).
    pub cache_misses: u64,
    /// Nanoseconds workers spent blocked on the dispatch channel.
    pub channel_wait_nanos: u64,
    /// Reorder ring high-water mark.
    pub reorder_high_water: u64,
}

/// A `jobs=1..N` throughput sweep through the parallel engine, with the
/// serial pipeline as the reference. `cpus` records what the machine
/// actually had — speedup claims beyond that number are scheduler noise,
/// and the CI gate skips itself below 2.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScalingReport {
    /// CPUs available to this process when the sweep ran.
    pub cpus: usize,
    /// Serial single-threaded pipeline notes/sec over the same workload.
    pub serial_notes_per_sec: f64,
    /// One point per worker count, `jobs = 1..=N` in order.
    pub points: Vec<ScalingPoint>,
}

/// The headline numbers of a baseline run, embedded in the current report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BaselineSummary {
    /// What the baseline was (e.g. a commit id or "pre-PR3 seed").
    pub label: String,
    /// Baseline serial notes/sec.
    pub serial_notes_per_sec: f64,
    /// Baseline parallel notes/sec.
    pub parallel_notes_per_sec: f64,
    /// Baseline allocations per note, when measured.
    pub allocs_per_note: Option<f64>,
}

/// The benchmark workload: gold corpus + deterministically generated
/// records, as raw note texts.
pub fn workload(cfg: &BenchConfig) -> Vec<String> {
    let mut texts: Vec<String> = CorpusBuilder::new()
        .build()
        .records
        .iter()
        .map(|r| r.text.clone())
        .collect();
    let generated = CorpusBuilder::new()
        .records(cfg.records)
        .seed(cfg.seed)
        .style_variation(1.0)
        .build();
    texts.extend(generated.records.iter().map(|r| r.text.clone()));
    texts
}

fn fields_of(out: &cmr_core::ExtractedRecord) -> u64 {
    (out.numeric.len()
        + out.predefined_medical.len()
        + out.other_medical.len()
        + out.predefined_surgical.len()
        + out.other_surgical.len()) as u64
}

/// Runs the serial leg: one fresh [`Pipeline`] per repeat, best repeat
/// reported. When `probe` is given (returns cumulative `(allocs, bytes)`),
/// a final warm pass measures allocations per note.
pub fn run_serial(
    cfg: &BenchConfig,
    texts: &[String],
    probe: Option<&dyn Fn() -> (u64, u64)>,
) -> (RunStats, Option<AllocStats>) {
    let mut best = RunStats::default();
    for _ in 0..cfg.repeats.max(1) {
        let pipeline = Pipeline::with_default_schema();
        let mut fields = 0u64;
        let start = Instant::now();
        for text in texts {
            fields += fields_of(&pipeline.extract(text));
        }
        let wall = start.elapsed().as_nanos() as u64;
        if best.wall_nanos == 0 || wall < best.wall_nanos {
            let stats = pipeline.parser_stats();
            best = RunStats {
                notes: texts.len() as u64,
                fields,
                wall_nanos: wall,
                cache_hits: stats.cache_hits,
                cache_misses: stats.cache_misses,
                ..RunStats::default()
            };
        }
    }
    best.finish();

    let allocations = probe.map(|probe| {
        // Warm pass on a dedicated pipeline so caches and the interner are
        // hot, then count one more full pass.
        let pipeline = Pipeline::with_default_schema();
        for text in texts {
            std::hint::black_box(pipeline.extract(text));
        }
        let (a0, b0) = probe();
        for text in texts {
            std::hint::black_box(pipeline.extract(text));
        }
        let (a1, b1) = probe();
        let notes = texts.len().max(1) as f64;
        AllocStats {
            allocs_per_note: a1.saturating_sub(a0) as f64 / notes,
            bytes_per_note: b1.saturating_sub(b0) as f64 / notes,
        }
    });
    (best, allocations)
}

/// Runs the parallel leg at `cfg.jobs` workers through the shipped
/// durable loop, unjournaled, output discarded.
pub fn run_parallel(cfg: &BenchConfig, texts: &[String]) -> RunStats {
    run_durable(cfg, texts, None)
}

/// Compaction interval of the `journaled_compacting` bench leg. Small
/// relative to the bench workload so every repeat performs several
/// snapshot-truncate cycles — the leg would measure nothing otherwise.
pub const COMPACT_EVERY: usize = 64;

/// One engine leg through [`DurableRun`], the loop `cmr extract` runs,
/// with every output line serialized into `io::sink()`: unjournaled
/// (`journal: None`), or journaled to a scratch file compacting every
/// `k` records (`Some(k)`, `0` = never). All legs pay the same output
/// cost, so the within-run journal and compaction gates price exactly
/// the journal work.
fn run_durable(cfg: &BenchConfig, texts: &[String], journal: Option<u64>) -> RunStats {
    let path = std::env::temp_dir().join(format!(
        "cmr-bench-journal-{}-{}.ndjson",
        std::process::id(),
        cfg.seed
    ));
    let mut best = RunStats::default();
    for _ in 0..cfg.repeats.max(1) {
        let engine = Engine::new(
            EngineConfig {
                jobs: cfg.jobs.max(1),
                ..EngineConfig::default()
            },
            Schema::paper(),
            Ontology::full(),
        );
        let input = RunInput::Texts(texts.to_vec());
        let mut fields = 0u64;
        let mut run = DurableRun::new(engine, input, Output::Discard);
        run.on_record = Box::new(|out| {
            if let Ok(rec) = out {
                fields += fields_of(rec);
            }
        });
        run.journal = journal.map(|compact_every| JournalPolicy {
            path: path.clone(),
            resume: false,
            compact_every,
        });
        let start = Instant::now();
        let metrics = run.run().expect("bench run").metrics;
        let wall = start.elapsed().as_nanos() as u64;
        if best.wall_nanos == 0 || wall < best.wall_nanos {
            best = RunStats {
                notes: metrics.records,
                fields,
                wall_nanos: wall,
                cache_hits: metrics.parse_cache.hits,
                cache_misses: metrics.parse_cache.misses,
                channel_wait_nanos: Some(metrics.channel_wait_nanos),
                reorder_high_water: Some(metrics.reorder_buffer_high_water),
                ..RunStats::default()
            };
        }
    }
    let _ = std::fs::remove_file(&path);
    best.finish();
    best
}

/// Runs both legs and assembles a report.
pub fn run_bench(cfg: &BenchConfig, probe: Option<&dyn Fn() -> (u64, u64)>) -> BenchReport {
    let texts = workload(cfg);
    let (serial, allocations) = run_serial(cfg, &texts, probe);
    let parallel = run_parallel(cfg, &texts);
    let journaled = run_durable(cfg, &texts, Some(0));
    let journaled_compacting = run_durable(cfg, &texts, Some(COMPACT_EVERY as u64));
    BenchReport {
        version: 1,
        config: cfg.clone(),
        serial,
        parallel,
        journaled: Some(journaled),
        journaled_compacting: Some(journaled_compacting),
        allocations,
        peak_rss_bytes: peak_rss_bytes(),
        baseline: None,
        scaling: None,
    }
}

/// Runs the `jobs=1..=max_jobs` scaling sweep: each point is a full
/// best-of-`repeats` parallel run over `texts` with its own engine (and
/// therefore its own shared cache — no state leaks between points), plus
/// one serial reference pass.
pub fn run_scaling(cfg: &BenchConfig, texts: &[String], max_jobs: usize) -> ScalingReport {
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let (serial, _) = run_serial(cfg, texts, None);
    let mut points = Vec::new();
    let mut jobs1_nps = 0.0f64;
    for jobs in 1..=max_jobs.max(1) {
        let leg = run_parallel(
            &BenchConfig {
                jobs,
                ..cfg.clone()
            },
            texts,
        );
        if jobs == 1 {
            jobs1_nps = leg.notes_per_sec;
        }
        points.push(ScalingPoint {
            jobs,
            notes_per_sec: leg.notes_per_sec,
            speedup_vs_jobs1: if jobs1_nps > 0.0 {
                leg.notes_per_sec / jobs1_nps
            } else {
                0.0
            },
            cache_misses: leg.cache_misses,
            channel_wait_nanos: leg.channel_wait_nanos.unwrap_or(0),
            reorder_high_water: leg.reorder_high_water.unwrap_or(0),
        });
    }
    ScalingReport {
        cpus,
        serial_notes_per_sec: serial.notes_per_sec,
        points,
    }
}

/// The scaling gate: at `jobs=2` the parallel engine must reach at least
/// `floor` (fraction, CI uses 0.95) of serial throughput — parallelism may
/// not *cost* throughput. On machines with fewer than 2 CPUs the
/// comparison is meaningless (two workers time-slice one core), so the
/// gate skips itself and says so in the returned notice.
pub fn check_scaling(scaling: &ScalingReport, floor: f64) -> Result<String, String> {
    if scaling.cpus < 2 {
        return Ok(format!(
            "SKIPPED: only {} CPU available — the jobs=2 vs serial gate needs >=2 \
             (sweep recorded for the report, gate not applied)",
            scaling.cpus
        ));
    }
    if scaling.serial_notes_per_sec <= 0.0 {
        return Err("serial reference has no throughput to compare against".to_string());
    }
    let Some(p2) = scaling.points.iter().find(|p| p.jobs == 2) else {
        return Err("scaling sweep has no jobs=2 point".to_string());
    };
    let need = scaling.serial_notes_per_sec * floor;
    if p2.notes_per_sec < need {
        return Err(format!(
            "jobs=2 parallel {:.1} notes/sec is below {:.0}% of serial {:.1} (floor {need:.1})",
            p2.notes_per_sec,
            floor * 100.0,
            scaling.serial_notes_per_sec
        ));
    }
    Ok(format!(
        "jobs=2 parallel {:.1} notes/sec >= {:.0}% of serial {:.1} ({} CPUs)",
        p2.notes_per_sec,
        floor * 100.0,
        scaling.serial_notes_per_sec,
        scaling.cpus
    ))
}

/// Peak resident set size from `/proc/self/status` (`VmHWM`), in bytes.
/// Returns `None` on platforms without procfs.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kib: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kib * 1024);
        }
    }
    None
}

/// The CI gate: fails when the current report's throughput drops more than
/// `threshold` (fraction, e.g. `0.25`) below the baseline report on either
/// leg. Faster-than-baseline is always fine.
pub fn check_regression(
    current: &BenchReport,
    baseline: &BenchReport,
    threshold: f64,
) -> Result<(), String> {
    let legs = [
        (
            "serial",
            current.serial.notes_per_sec,
            baseline.serial.notes_per_sec,
        ),
        (
            "parallel",
            current.parallel.notes_per_sec,
            baseline.parallel.notes_per_sec,
        ),
    ];
    let mut failures = Vec::new();
    for (name, now, then) in legs {
        if then <= 0.0 {
            continue;
        }
        let floor = then * (1.0 - threshold);
        if now < floor {
            failures.push(format!(
                "{name}: {now:.1} notes/sec is below the regression floor {floor:.1} \
                 (baseline {then:.1}, threshold {:.0}%)",
                threshold * 100.0
            ));
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("; "))
    }
}

/// The durability gate: journaling is bookkeeping, not work, so the
/// journaled leg must stay within `threshold` (fraction, default 0.10 in
/// CI) of the plain parallel leg *of the same report* — same machine,
/// same run, no cross-environment noise.
pub fn check_journal_overhead(report: &BenchReport, threshold: f64) -> Result<(), String> {
    let Some(journaled) = &report.journaled else {
        return Err("report has no journaled leg".to_string());
    };
    if report.parallel.notes_per_sec <= 0.0 {
        return Err("parallel leg has no throughput to compare against".to_string());
    }
    let floor = report.parallel.notes_per_sec * (1.0 - threshold);
    if journaled.notes_per_sec < floor {
        return Err(format!(
            "journal overhead too high: {:.1} notes/sec journaled vs {:.1} plain \
             (floor {floor:.1} at {:.0}% allowance)",
            journaled.notes_per_sec,
            report.parallel.notes_per_sec,
            threshold * 100.0
        ));
    }
    Ok(())
}

/// The compaction gate: snapshot-and-truncate every [`COMPACT_EVERY`]
/// records is metadata work, so the compacting leg must stay within
/// `threshold` (fraction, 0.10 in CI) of the plain *journaled* leg of the
/// same report — compaction is priced against journaling, which is itself
/// priced against the raw parallel leg by [`check_journal_overhead`].
pub fn check_compaction_overhead(report: &BenchReport, threshold: f64) -> Result<(), String> {
    let Some(compacting) = &report.journaled_compacting else {
        return Err("report has no journaled_compacting leg".to_string());
    };
    let Some(journaled) = &report.journaled else {
        return Err("report has no journaled leg to compare against".to_string());
    };
    if journaled.notes_per_sec <= 0.0 {
        return Err("journaled leg has no throughput to compare against".to_string());
    }
    let floor = journaled.notes_per_sec * (1.0 - threshold);
    if compacting.notes_per_sec < floor {
        return Err(format!(
            "compaction overhead too high: {:.1} notes/sec compacting vs {:.1} journaled \
             (floor {floor:.1} at {:.0}% allowance)",
            compacting.notes_per_sec,
            journaled.notes_per_sec,
            threshold * 100.0
        ));
    }
    Ok(())
}

/// A tiny smoke workload for tests: a handful of records, one repeat.
pub fn smoke_config() -> BenchConfig {
    BenchConfig {
        records: 4,
        seed: 7,
        repeats: 1,
        jobs: 2,
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn smoke_bench_produces_sane_numbers() {
        let report = run_bench(&smoke_config(), None);
        assert!(report.serial.notes > 0);
        assert!(report.serial.notes_per_sec > 0.0);
        assert!(report.serial.fields > 0);
        assert_eq!(report.serial.notes, report.parallel.notes);
        assert!(report.parallel.notes_per_sec > 0.0);
        assert!(report.allocations.is_none());
        assert!((0.0..=1.0).contains(&report.serial.cache_hit_rate));
        let journaled = report.journaled.as_ref().expect("journaled leg present");
        assert_eq!(journaled.notes, report.parallel.notes);
        assert!(journaled.notes_per_sec > 0.0);
        let compacting = report
            .journaled_compacting
            .as_ref()
            .expect("compacting leg present");
        assert_eq!(compacting.notes, report.parallel.notes);
        assert!(compacting.notes_per_sec > 0.0);
    }

    #[test]
    fn journal_overhead_gate_trips_and_passes() {
        let mut report = run_bench(&smoke_config(), None);
        report.parallel.notes_per_sec = 100.0;
        if let Some(j) = report.journaled.as_mut() {
            j.notes_per_sec = 95.0; // -5%: inside the 10% allowance
        }
        assert!(check_journal_overhead(&report, 0.10).is_ok());
        if let Some(j) = report.journaled.as_mut() {
            j.notes_per_sec = 80.0; // -20%: trips
        }
        let err = check_journal_overhead(&report, 0.10).unwrap_err();
        assert!(err.contains("journal overhead"), "{err}");
        report.journaled = None;
        assert!(check_journal_overhead(&report, 0.10).is_err());
    }

    #[test]
    fn compaction_overhead_gate_trips_and_passes() {
        let mut report = run_bench(&smoke_config(), None);
        if let Some(j) = report.journaled.as_mut() {
            j.notes_per_sec = 100.0;
        }
        if let Some(c) = report.journaled_compacting.as_mut() {
            c.notes_per_sec = 95.0; // -5%: inside the 10% allowance
        }
        assert!(check_compaction_overhead(&report, 0.10).is_ok());
        if let Some(c) = report.journaled_compacting.as_mut() {
            c.notes_per_sec = 80.0; // -20%: trips
        }
        let err = check_compaction_overhead(&report, 0.10).unwrap_err();
        assert!(err.contains("compaction overhead"), "{err}");
        report.journaled_compacting = None;
        assert!(check_compaction_overhead(&report, 0.10).is_err());
    }

    #[test]
    fn older_reports_without_compacting_leg_still_parse() {
        // The committed reports stay loadable as regression baselines (CI
        // `--check`s against BENCH_pr5.json). BENCH_pr3/5 predate the
        // compacting leg (BENCH_pr3 the journaled one too); BENCH_pr8
        // still carries the parse-cache split keys that reports no longer
        // have, which deserializing ignores.
        for (name, json) in [
            ("BENCH_pr3.json", include_str!("../../../BENCH_pr3.json")),
            ("BENCH_pr5.json", include_str!("../../../BENCH_pr5.json")),
            ("BENCH_pr8.json", include_str!("../../../BENCH_pr8.json")),
        ] {
            let parsed: BenchReport =
                serde_json::from_str(json).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(parsed.parallel.notes_per_sec > 0.0, "{name}");
            assert!(parsed.journaled_compacting.is_none(), "{name}");
            assert_eq!(parsed.scaling.is_some(), name == "BENCH_pr8.json");
        }
        // The field must be optional in fresh reports too.
        let mut report = run_bench(&smoke_config(), None);
        report.journaled_compacting = None;
        let json = serde_json::to_string(&report).unwrap();
        let stripped = json.replace("\"journaled_compacting\":null,", "");
        assert_ne!(stripped, json, "field not serialized where expected");
        let parsed: BenchReport = serde_json::from_str(&stripped).unwrap();
        assert!(parsed.journaled_compacting.is_none());
    }

    #[test]
    fn regression_gate_trips_and_passes() {
        let mut base = run_bench(&smoke_config(), None);
        base.serial.notes_per_sec = 100.0;
        base.parallel.notes_per_sec = 300.0;
        let mut current = base.clone();
        current.serial.notes_per_sec = 90.0; // -10%: fine at 25%
        assert!(check_regression(&current, &base, 0.25).is_ok());
        current.serial.notes_per_sec = 60.0; // -40%: trips
        let err = check_regression(&current, &base, 0.25).unwrap_err();
        assert!(err.contains("serial"), "{err}");
        // Faster than baseline never trips.
        current.serial.notes_per_sec = 500.0;
        current.parallel.notes_per_sec = 500.0;
        assert!(check_regression(&current, &base, 0.25).is_ok());
    }

    #[test]
    fn parallel_leg_reports_engine_counters() {
        let report = run_bench(&smoke_config(), None);
        // The serial pipeline has no pool, so its pool counters stay None;
        // the parallel leg must populate both.
        assert!(report.serial.channel_wait_nanos.is_none());
        assert!(report.parallel.channel_wait_nanos.is_some());
        assert!(report.parallel.reorder_high_water.is_some());
    }

    #[test]
    fn scaling_sweep_covers_requested_jobs() {
        let cfg = smoke_config();
        let texts = workload(&cfg);
        let sweep = run_scaling(&cfg, &texts, 3);
        assert!(sweep.cpus >= 1);
        assert!(sweep.serial_notes_per_sec > 0.0);
        assert_eq!(
            sweep.points.iter().map(|p| p.jobs).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        for p in &sweep.points {
            assert!(p.notes_per_sec > 0.0, "jobs={} has no throughput", p.jobs);
            assert!(p.speedup_vs_jobs1 > 0.0);
            // Workers share one cache, so a shape is parsed again only
            // when several workers first meet it at once: at most once
            // per worker.
            let base = sweep.points[0].cache_misses;
            assert!(
                p.cache_misses <= p.jobs as u64 * base,
                "jobs={}: {} cold parses against {base} at jobs=1",
                p.jobs,
                p.cache_misses
            );
        }
        assert!((sweep.points[0].speedup_vs_jobs1 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn scaling_gate_trips_passes_and_skips() {
        let point = |jobs: usize, nps: f64| ScalingPoint {
            jobs,
            notes_per_sec: nps,
            speedup_vs_jobs1: 1.0,
            cache_misses: 0,
            channel_wait_nanos: 0,
            reorder_high_water: 0,
        };
        let mut sweep = ScalingReport {
            cpus: 4,
            serial_notes_per_sec: 100.0,
            points: vec![point(1, 90.0), point(2, 96.0)],
        };
        let notice = check_scaling(&sweep, 0.95).expect("96 >= 95");
        assert!(notice.contains("jobs=2"), "{notice}");
        sweep.points[1].notes_per_sec = 80.0;
        let err = check_scaling(&sweep, 0.95).unwrap_err();
        assert!(err.contains("below"), "{err}");
        // One CPU: the gate must skip with a notice rather than fail.
        sweep.cpus = 1;
        let notice = check_scaling(&sweep, 0.95).expect("1-cpu skip");
        assert!(notice.contains("SKIPPED"), "{notice}");
        // Missing jobs=2 point is an error, not a silent pass.
        sweep.cpus = 2;
        sweep.points.truncate(1);
        assert!(check_scaling(&sweep, 0.95).is_err());
    }

    #[test]
    fn peak_rss_reads_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_bytes().unwrap_or(0) > 0);
        }
    }
}
