//! Property tests for corpus-scale sharding: for any corpus, any shard
//! count, any crash point and any compaction interval, the merged shard
//! artifacts — output, metrics totals, quarantine — must be identical to
//! what one unsharded run would have produced, and every journal must
//! stay within the compaction bound.

use cmr_engine::{
    merge_artifacts, merge_quarantine, read_journal, shard_path, DurableRun, Engine, EngineConfig,
    EngineError, EngineMetrics, JournalPolicy, Output, QuarantineEntry, RunInput, RunOutcome,
    ShardSpec,
};
use proptest::prelude::*;
use std::io::Write;
use std::panic::AssertUnwindSafe;
use std::path::Path;

fn engine(jobs: usize) -> Engine {
    Engine::new(
        EngineConfig {
            jobs,
            ..EngineConfig::default()
        },
        cmr_core::Schema::paper(),
        cmr_ontology::Ontology::full(),
    )
}

fn corpus_texts(n: usize, seed: u64) -> Vec<String> {
    cmr_corpus::CorpusBuilder::new()
        .records(n)
        .seed(seed)
        .build()
        .records
        .into_iter()
        .map(|r| r.text)
        .collect()
}

/// A crash raised from the record hook, which the durable loop calls
/// right after journaling and emitting a record and before compacting —
/// the point where `--kill-after` aborts the process.
struct Killed;

/// Keeps the expected `Killed` unwinds out of the test output.
fn quiet_kills() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !info.payload().is::<Killed>() {
                default(info)
            }
        }));
    });
}

/// Runs `spec`'s slice of `texts` into `dir` the way `cmr orchestrate`
/// runs a shard (journaled, resuming, compacting every `interval`),
/// killed after its `kill_at`-th record when given.
fn run_shard(texts: &[String], dir: &Path, spec: ShardSpec, interval: u64, kill_at: Option<usize>) {
    let mut emitted = 0usize;
    let mut run = DurableRun::new(
        engine(2),
        RunInput::Texts(texts.to_vec()),
        Output::File(shard_path(dir, spec.index, "out.ndjson")),
    );
    run.shard = Some(spec);
    run.journal = Some(JournalPolicy {
        path: shard_path(dir, spec.index, "journal"),
        resume: true,
        compact_every: interval,
    });
    run.on_record = Box::new(|_| {
        emitted += 1;
        if Some(emitted) == kill_at {
            std::panic::panic_any(Killed);
        }
    });
    match std::panic::catch_unwind(AssertUnwindSafe(|| run.run())) {
        Ok(report) => assert!(matches!(report.expect("run").outcome, RunOutcome::Complete)),
        Err(payload) => assert!(payload.is::<Killed>(), "the run panicked"),
    }
}

/// The slice of `texts` that shard `index` of `total` owns.
fn shard_slice(texts: &[String], index: usize, total: usize) -> Vec<String> {
    let spec = ShardSpec { index, total };
    texts
        .iter()
        .enumerate()
        .filter(|(g, _)| spec.owns(*g))
        .map(|(_, t)| t.clone())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Kill one shard after any record — optionally tearing its final
    /// journal line — resume it, and merge: identical to one unsharded
    /// run, with every journal accounting for its whole slice within the
    /// compaction bound of interval + 1 lines.
    #[test]
    fn killed_and_resumed_shards_merge_identically(
        n in 1usize..12,
        seed in 0u64..300,
        shards in 1usize..=5,
        victim in 0usize..5,
        kill_pct in 0usize..=100,
        interval in 0u64..=5,
        torn_tail in proptest::bool::ANY,
    ) {
        quiet_kills();
        let texts = corpus_texts(n, seed);
        let dir = std::env::temp_dir().join(format!(
            "cmr-proptest-durable-{}-{n}-{seed}-{shards}-{victim}-{kill_pct}-{interval}-{torn_tail}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let reference = dir.join("reference.ndjson");
        DurableRun::new(engine(2), RunInput::Texts(texts.clone()), Output::File(reference.clone()))
            .run()
            .expect("reference run");

        for index in 0..shards {
            let spec = ShardSpec { index, total: shards };
            let journal = shard_path(&dir, index, "journal");
            let k = spec.len(n) * kill_pct / 100;
            if index == victim % shards && k > 0 {
                run_shard(&texts, &dir, spec, interval, Some(k));
                if torn_tail {
                    let mut f = std::fs::OpenOptions::new()
                        .append(true)
                        .open(&journal)
                        .expect("reopen journal");
                    f.write_all(b"{\"entry\":{\"index\":").expect("tear");
                }
            }
            run_shard(&texts, &dir, spec, interval, None);
            prop_assert_eq!(read_journal(&journal).expect("read back").completed(), spec.len(n));
            let lines = std::fs::read_to_string(&journal).expect("journal").lines().count();
            prop_assert!(
                interval == 0 || lines as u64 <= interval + 1,
                "shard {} journal holds {} lines (interval {})", index, lines, interval
            );
        }
        let merged = dir.join("merged.ndjson");
        merge_artifacts(&dir, shards, &Output::File(merged.clone()), None, None).expect("merge");
        let got = std::fs::read_to_string(&merged).expect("merged output");
        let want = std::fs::read_to_string(&reference).expect("reference output");
        let _ = std::fs::remove_dir_all(&dir);
        prop_assert_eq!(got, want);
    }

    /// Summing per-shard metrics reproduces the unsharded run's
    /// deterministic counters exactly: record/error counts, method
    /// usage, degradation accounting, retries, quarantined records, and
    /// total parse-cache traffic. (Timings and the hit/miss *split* are
    /// scheduling-dependent and excluded by design.)
    #[test]
    fn merged_metrics_match_unsharded_totals(
        n in 1usize..10,
        seed in 0u64..300,
        shards in 1usize..=4,
    ) {
        let texts = corpus_texts(n, seed);
        let unsharded = engine(2).extract_batch(&texts).metrics;

        let mut merged = EngineMetrics::default();
        for s in 0..shards {
            let slice = shard_slice(&texts, s, shards);
            merged.merge(&engine(2).extract_batch(&slice).metrics);
        }
        prop_assert_eq!(merged.records, unsharded.records);
        prop_assert_eq!(merged.errors.total(), unsharded.errors.total());
        prop_assert_eq!(merged.methods.link_grammar, unsharded.methods.link_grammar);
        prop_assert_eq!(merged.methods.pattern, unsharded.methods.pattern);
        prop_assert_eq!(merged.methods.year_old, unsharded.methods.year_old);
        prop_assert_eq!(merged.methods.proximity, unsharded.methods.proximity);
        prop_assert_eq!(merged.methods.salvage, unsharded.methods.salvage);
        prop_assert_eq!(
            merged.degradation.link_grammar_fields,
            unsharded.degradation.link_grammar_fields
        );
        prop_assert_eq!(
            merged.degradation.degraded_records,
            unsharded.degradation.degraded_records
        );
        prop_assert_eq!(merged.retries, unsharded.retries);
        prop_assert_eq!(merged.quarantined, unsharded.quarantined);
        prop_assert_eq!(
            merged.parse_cache.hits + merged.parse_cache.misses,
            unsharded.parse_cache.hits + unsharded.parse_cache.misses
        );
    }

    /// Quarantine merging is a set union: whatever duplicate global
    /// indices kill-and-resume produced, the merged file is strictly
    /// ordered with exactly one entry per index.
    #[test]
    fn quarantine_merge_is_sorted_and_unique(
        indices in proptest::collection::vec(0usize..40, 0..25),
    ) {
        let entries: Vec<QuarantineEntry> = indices
            .iter()
            .map(|&index| QuarantineEntry {
                index,
                text: format!("note {index}"),
                error: EngineError::Aborted,
                attempts: Vec::new(),
            })
            .collect();
        let merged = merge_quarantine(entries);
        let got: Vec<usize> = merged.iter().map(|e| e.index).collect();
        let mut want: Vec<usize> = indices;
        want.sort_unstable();
        want.dedup();
        prop_assert_eq!(got, want);
    }
}
