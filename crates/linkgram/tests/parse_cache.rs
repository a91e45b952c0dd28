//! Equivalence proptests for the shared parse cache: over arbitrary
//! corpora, a pool of parsers sharing one cache must produce exactly the
//! parse results of cache-free parsing — eviction pressure included — and
//! every parse it runs must be accounted for.

use cmr_linkgram::{LinkParser, SharedParseCache};
use proptest::prelude::*;
use std::sync::Arc;

/// Template-based clinical-dictation sentences with random lexical fill —
/// few enough shapes to guarantee cross-parser cache traffic, varied
/// enough to fill a small cache.
fn sentences() -> impl Strategy<Value = String> {
    let subj = prop::sample::select(vec!["She", "He", "The patient", "Ms. Smith"]);
    let verb = prop::sample::select(vec!["denies", "reports", "has", "takes", "reveals"]);
    let obj = prop::sample::select(vec![
        "alcohol use",
        "a mass",
        "diabetes",
        "chest pain",
        "the medication",
        "hypertension and diabetes",
        "a pulse of 84",
    ]);
    let tail = prop::sample::select(vec![
        "",
        " today",
        " without difficulty",
        " in the left breast",
        " five years ago",
    ]);
    (subj, verb, obj, tail).prop_map(|(s, v, o, t)| format!("{s} {v} {o}{t}."))
}

fn corpora() -> impl Strategy<Value = Vec<String>> {
    prop::collection::vec(sentences(), 1..24)
}

/// Parse signature for comparison: presence, cost, and the exact links.
type Outcome = Option<(u64, Arc<Vec<cmr_linkgram::Link>>)>;

fn outcome(parser: &LinkParser, sentence: &str) -> Outcome {
    parser
        .parse_sentence(sentence)
        .map(|l| (l.cost.to_bits(), l.links))
}

/// Parses every sentence cold: the reference the cached paths must match.
fn cache_free_outcomes(corpus: &[String]) -> Vec<Outcome> {
    let parser = LinkParser::new();
    corpus
        .iter()
        .map(|s| {
            parser.clear_cache();
            outcome(&parser, s)
        })
        .collect()
}

/// Runs a corpus through a two-parser "pool" sharing `cache`, alternating
/// sentences between the parsers so shapes published by one worker are
/// looked up by the other. Returns the outcomes and the parsers' summed
/// cache misses.
fn pool_outcomes(corpus: &[String], cache: SharedParseCache) -> (Vec<Outcome>, u64) {
    let mut a = LinkParser::new();
    a.set_shared_cache(cache.clone());
    let mut b = LinkParser::new();
    b.set_shared_cache(cache);
    let outcomes = corpus
        .iter()
        .enumerate()
        .map(|(i, s)| outcome(if i % 2 == 0 { &a } else { &b }, s))
        .collect();
    (outcomes, a.stats().cache_misses + b.stats().cache_misses)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A pool sharing one cache and cache-free parsing agree on every
    /// sentence of every corpus.
    #[test]
    fn pool_and_cache_free_parsing_agree(corpus in corpora()) {
        let (pooled, _) = pool_outcomes(&corpus, SharedParseCache::new());
        prop_assert_eq!(&pooled, &cache_free_outcomes(&corpus), "pool diverged from cache-free");
    }

    /// The equivalence survives eviction pressure: a tiny capacity forces
    /// generation rotation mid-corpus, and results must still match.
    #[test]
    fn equivalence_holds_under_eviction_pressure(corpus in corpora()) {
        let (tiny, _) = pool_outcomes(&corpus, SharedParseCache::with_capacity(4));
        prop_assert_eq!(&tiny, &cache_free_outcomes(&corpus), "eviction changed parse results");
    }

    /// Every miss the parsers count parsed one shape the cache then kept:
    /// it is still cached or was evicted, under eviction pressure too.
    #[test]
    fn parser_misses_account_for_the_cache(
        corpus in corpora(),
        cap in prop::sample::select(vec![4usize, 4096]),
    ) {
        let cache = SharedParseCache::with_capacity(cap);
        let (_, misses) = pool_outcomes(&corpus, cache.clone());
        prop_assert!(misses as usize <= corpus.len(),
            "more misses than sentences ({} vs {})", misses, corpus.len());
        prop_assert_eq!(cache.len() as u64 + cache.evictions(), misses,
            "every miss must be cached or evicted");
    }
}
