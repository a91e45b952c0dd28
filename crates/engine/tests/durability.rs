//! Durability integration tests: poison quarantine, the stuck-worker
//! watchdog, graceful shutdown, and the pool's parse-cache traffic.
//! Kill-and-resume identity is a property of the durable loop, tested in
//! `shard_proptests.rs`.

use cmr_engine::{read_quarantine, Engine, EngineConfig, EngineError, QuarantineFile, RetryPolicy};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cmr-durability-{name}-{}", std::process::id()))
}

fn engine(cfg: EngineConfig) -> Engine {
    Engine::new(
        cfg,
        cmr_core::Schema::paper(),
        cmr_ontology::Ontology::full(),
    )
}

fn corpus(n: usize, seed: u64) -> Vec<String> {
    cmr_corpus::CorpusBuilder::new()
        .records(n)
        .seed(seed)
        .build()
        .records
        .into_iter()
        .map(|r| r.text)
        .collect()
}

/// A single-sentence record whose link parse takes far longer than the
/// watchdog deadlines used in these tests (~170 ms uncancelled on a 2-vCPU
/// VM: a dropped-period merge of two sentences, like the noisy corpus's
/// slowest, with vitals mentions so the numeric stage parses it).
fn slow_record() -> String {
    String::from(
        "Vitals:  Her breast history is negative for any previous biopsies or masses \
         GYN History  Menarche at age 1l, gravida 3, para 3, last menstrual period \
         about a year ago, weight of 150, pulse of 84, and temperature of 98.\n",
    )
}

/// A poison record (transient failure every attempt) is retried, then
/// quarantined exactly once with its attempt history; the rest of the
/// batch is unaffected.
#[test]
fn poison_record_is_quarantined_exactly_once_and_batch_survives() {
    let quarantine_path = scratch("poison.ndjson");
    let good = "Vitals:  Blood pressure is 144/90, pulse of 84.\n";
    // Two parse-worthy sentences against a one-sentence budget: a
    // deterministic transient-class (Budget) failure on every attempt.
    let poison = "Vitals:  Blood pressure is 144/90.  Pulse of 84 was noted.  \
                  Temperature is 98.6 today.\n";
    let cfg = EngineConfig {
        jobs: 2,
        max_record_sentences: Some(1),
        retry: RetryPolicy {
            max_attempts: 3,
            base_delay_millis: 1,
        },
        ..EngineConfig::default()
    };
    let engine = engine(cfg)
        .with_quarantine(QuarantineFile::create(&quarantine_path).expect("create quarantine"));
    let out = engine.extract_batch(&[poison, good]);

    assert!(
        matches!(out.items[0], Err(EngineError::Budget { .. })),
        "poison record fails as budget: {:?}",
        out.items[0]
    );
    assert!(out.items[1].is_ok(), "batch survives the poison record");
    assert_eq!(out.metrics.retries, 2, "attempts 2 and 3 are retries");
    assert_eq!(out.metrics.quarantined, 1);
    assert_eq!(out.metrics.errors.budget, 1, "final outcome counted once");

    let entries = read_quarantine(&quarantine_path).expect("quarantine reads back");
    assert_eq!(entries.len(), 1, "poison record appears exactly once");
    assert_eq!(entries[0].index, 0);
    assert_eq!(entries[0].text, poison);
    assert!(matches!(entries[0].error, EngineError::Budget { .. }));
    assert_eq!(entries[0].attempts.len(), 3, "full attempt history");
    assert!(
        entries[0].attempts[..2]
            .iter()
            .all(|a| a.backoff_millis > 0),
        "non-final attempts record their backoff"
    );
    assert_eq!(entries[0].attempts[2].backoff_millis, 0);
    let _ = std::fs::remove_file(&quarantine_path);
}

/// Without retry or quarantine configured, behaviour is unchanged: the
/// failing record errors once, nothing is retried or quarantined.
#[test]
fn default_policy_does_not_retry() {
    let poison = "Vitals:  Blood pressure is 144/90.  Pulse of 84 was noted.\n";
    let cfg = EngineConfig {
        jobs: 1,
        max_record_sentences: Some(1),
        ..EngineConfig::default()
    };
    let out = engine(cfg).extract_batch(&[poison]);
    assert!(matches!(out.items[0], Err(EngineError::Budget { .. })));
    assert_eq!(out.metrics.retries, 0);
    assert_eq!(out.metrics.quarantined, 0);
}

/// A record whose single sentence parses longer than the wall-clock
/// deadline is cancelled by the watchdog and surfaces as a Timeout (not a
/// plain Budget trip), counted in the metrics.
#[test]
fn watchdog_cancels_stuck_parse_as_timeout() {
    let cfg = EngineConfig {
        jobs: 1,
        max_record_millis: Some(25),
        ..EngineConfig::default()
    };
    let out = engine(cfg).extract_batch(&[slow_record()]);
    assert!(
        matches!(out.items[0], Err(EngineError::Timeout { millis: 25 })),
        "expected a watchdog timeout: {:?}",
        out.items[0]
    );
    assert_eq!(out.metrics.errors.timeouts, 1);
    assert_eq!(
        out.metrics.errors.budget, 0,
        "classified as timeout, not budget"
    );
    assert_eq!(out.metrics.records, 0, "cancelled record is not a success");
}

/// The same pathological record under no deadline extracts fine — the
/// watchdog, not the record, is what fails it above.
#[test]
fn slow_record_succeeds_without_a_deadline() {
    let out = engine(EngineConfig {
        jobs: 1,
        ..EngineConfig::default()
    })
    .extract_batch(&[slow_record()]);
    assert!(out.items[0].is_ok(), "{:?}", out.items[0]);
    assert_eq!(out.metrics.errors.total(), 0);
}

/// Raising the shutdown flag before the run starts means nothing is fed:
/// the engine returns promptly with an empty, clean result — the
/// already-journaled prefix (none here) stays a valid resume point.
#[test]
fn pre_raised_shutdown_flag_processes_nothing() {
    let flag = Arc::new(AtomicBool::new(true));
    let texts = corpus(4, 7);
    let mut seen = 0usize;
    let metrics = engine(EngineConfig {
        jobs: 2,
        ..EngineConfig::default()
    })
    .with_shutdown(flag)
    .extract_stream(texts.iter().cloned(), |_idx, _result| seen += 1);
    assert_eq!(seen, 0, "no record may be fed after shutdown");
    assert_eq!(metrics.records, 0);
    assert_eq!(metrics.errors.total(), 0, "shutdown is not an error");
}

/// A flag raised mid-run drains what was fed and stops: the sink sees a
/// contiguous prefix of successes, never a gap or an aborted tail.
#[test]
fn mid_run_shutdown_drains_a_clean_prefix() {
    let flag = Arc::new(AtomicBool::new(false));
    let texts: Vec<String> = corpus(1, 7).into_iter().cycle().take(500).collect();
    let sink_flag = Arc::clone(&flag);
    let mut outputs = Vec::new();
    let _metrics = engine(EngineConfig {
        jobs: 2,
        queue_depth: 2,
        ..EngineConfig::default()
    })
    .with_shutdown(Arc::clone(&flag))
    .extract_stream(texts.iter().cloned(), |idx, result| {
        // Ask for shutdown as soon as the first record lands.
        sink_flag.store(true, Ordering::Relaxed);
        outputs.push((idx, result));
    });
    assert!(!outputs.is_empty(), "at least the first record completes");
    assert!(outputs.len() < 500, "shutdown flag did not stop the feeder");
    for (i, (idx, result)) in outputs.iter().enumerate() {
        assert_eq!(*idx, i, "prefix must be contiguous");
        assert!(result.is_ok(), "drained records are processed, not aborted");
    }
}

/// The pool's workers share one parse cache and hold no lock across a
/// cold parse, so workers that first meet a shape together may each parse
/// it. Lookups are the same at any worker count, and cold parses stay
/// within one per worker of the serial count.
#[test]
fn parse_cache_traffic_is_bounded_across_worker_counts() {
    let texts = corpus(24, 11);
    let traffic = |jobs| {
        engine(EngineConfig {
            jobs,
            ..EngineConfig::default()
        })
        .extract_batch(&texts)
        .metrics
        .parse_cache
    };
    let serial = traffic(1);
    let pooled = traffic(4);
    assert!(serial.misses > 0, "a cold run parses");
    assert_eq!(
        serial.hits + serial.misses,
        pooled.hits + pooled.misses,
        "lookups differ between jobs 1 and 4"
    );
    assert!(
        pooled.misses <= 4 * serial.misses,
        "{} cold parses at jobs 4 against {} at jobs 1",
        pooled.misses,
        serial.misses
    );
}
