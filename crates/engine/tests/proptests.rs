//! Property tests: the engine is a pure re-scheduling of the serial
//! pipeline. For any corpus and any worker count, the ordered output
//! sequence — successes and failures alike — must be identical to a
//! one-worker run, and metrics must stay internally consistent.

use cmr_engine::{Engine, EngineConfig};
use proptest::prelude::*;

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Any corpus, any worker count 1–8: output identical to serial.
    #[test]
    fn any_worker_count_matches_serial(
        n in 1usize..8,
        seed in 0u64..500,
        jobs in 2usize..=8,
    ) {
        let corpus = cmr_corpus::CorpusBuilder::new().records(n).seed(seed).build();
        let texts: Vec<&str> = corpus.records.iter().map(|r| r.text.as_str()).collect();
        let serial = engine(1).extract_batch(&texts);
        let parallel = engine(jobs).extract_batch(&texts);
        prop_assert_eq!(
            serde_json::to_string(&serial.items).expect("serialize"),
            serde_json::to_string(&parallel.items).expect("serialize")
        );
    }

    /// Metrics bookkeeping holds for any run shape: every record is either
    /// counted as a success sample or as an error, never both or neither.
    #[test]
    fn metrics_account_for_every_record(
        n in 1usize..8,
        seed in 0u64..500,
        jobs in 1usize..=4,
    ) {
        let corpus = cmr_corpus::CorpusBuilder::new().records(n).seed(seed).build();
        let texts: Vec<&str> = corpus.records.iter().map(|r| r.text.as_str()).collect();
        let out = engine(jobs).extract_batch(&texts);
        prop_assert_eq!(out.items.len(), n);
        let failures = out.items.iter().filter(|r| r.is_err()).count();
        prop_assert_eq!(out.metrics.records as usize, n - failures);
        prop_assert_eq!(out.metrics.errors.total() as usize, failures);
        prop_assert_eq!(out.metrics.stages.total.count, out.metrics.records);
    }
}
