//! Golden linkages: every cold parse must reproduce `snapshots/linkages.tsv`
//! bit for bit.
//!
//! The snapshot covers every unique sentence of the repository benchmark's
//! noisy pool (the first 200 notes of corpus seed 2005 at noise level 0.3)
//! plus the clean text of the first 50 of those notes. One line per
//! sentence, tab-separated:
//!
//! ```text
//! sentence  outcome  cost-bits  links-hash
//! ```
//!
//! `outcome` is `ok` or the `ParseFailure` (Debug form); `cost-bits` is
//! `f64::to_bits` of the linkage cost in hex; `links-hash` is an FNV-1a hash
//! of the `(left, right, label)` links in sorted order. Failures carry `-`
//! in the last two columns. Sentences escape `\`, tab, CR and LF.
//!
//! Regenerate only when a change of linkages is intended:
//!
//! ```text
//! cargo test -p cmr-linkgram --release --test linkage_snapshot -- --ignored
//! ```

use cmr_corpus::{CorpusBuilder, NoiseInjector};
use cmr_linkgram::{LinkParser, Linkage, ParseFailure};
use cmr_postag::PosTagger;
use cmr_text::{tokenize, Record};
use std::collections::HashSet;

const SNAPSHOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/snapshots/linkages.tsv");

/// Pool size, seed and noise level of the benchmark's noisy notes.
const POOL_NOTES: usize = 200;
const POOL_SEED: u64 = 2005;
const NOISE_LEVEL: f64 = 0.3;
/// Pool notes whose clean text joins the sample.
const CLEAN_NOTES: usize = 50;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn links_hash(linkage: &Linkage) -> u64 {
    let mut links: Vec<(usize, usize, &str)> = linkage
        .links
        .iter()
        .map(|l| (l.left, l.right, l.label.as_str()))
        .collect();
    links.sort_unstable();
    let text: String = links
        .iter()
        .map(|(l, r, label)| format!("{l}-{r}:{label};"))
        .collect();
    fnv1a(text.as_bytes())
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('\t', "\\t")
        .replace('\r', "\\r")
        .replace('\n', "\\n")
}

fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('t') => out.push('\t'),
            Some('r') => out.push('\r'),
            Some('n') => out.push('\n'),
            Some(other) => out.push(other),
            None => out.push('\\'),
        }
    }
    out
}

/// The three outcome columns of one cold parse.
fn outcome(parser: &LinkParser, tagger: &PosTagger, sentence: &str) -> String {
    parser.clear_cache();
    let tagged = tagger.tag(&tokenize(sentence));
    match parser.try_parse(&tagged) {
        Ok(l) => format!("ok\t{:016x}\t{:016x}", l.cost.to_bits(), links_hash(&l)),
        Err(f) => format!("{f:?}\t-\t-"),
    }
}

#[test]
fn cold_parses_match_the_snapshot() {
    let text = std::fs::read_to_string(SNAPSHOT).expect("snapshot file is committed");
    let parser = LinkParser::new();
    let tagger = PosTagger::new();
    let mut mismatches = Vec::new();
    let mut lines = 0usize;
    for line in text.lines() {
        let (sentence, want) = line.split_once('\t').expect("sentence\\toutcome line");
        let sentence = unescape(sentence);
        let got = outcome(&parser, &tagger, &sentence);
        if got != want {
            mismatches.push(format!("{sentence:?}: want {want}, got {got}"));
        }
        lines += 1;
    }
    assert!(lines > 1000, "snapshot has only {lines} sentences");
    assert!(
        mismatches.is_empty(),
        "{} of {lines} sentences changed:\n{}",
        mismatches.len(),
        mismatches[..mismatches.len().min(20)].join("\n")
    );
}

/// The unique sentences of the pool, noisy notes first, in first-seen
/// order.
fn pool_sentences() -> Vec<String> {
    let plan = CorpusBuilder::new()
        .records(POOL_NOTES)
        .seed(POOL_SEED)
        .plan();
    let noise = NoiseInjector::from_level(NOISE_LEVEL, POOL_SEED);
    let noisy = (0..POOL_NOTES).map(|i| noise.corrupt(&plan.record(i).text));
    let clean = (0..CLEAN_NOTES).map(|i| plan.record(i).text);
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    for note in noisy.chain(clean) {
        let record = Record::parse(&note);
        for section in &record.sections {
            for sentence in section.sentences() {
                let s = sentence.text(&section.body).to_string();
                if seen.insert(s.clone()) {
                    out.push(s);
                }
            }
        }
    }
    out
}

#[test]
#[ignore = "rewrites the committed snapshot; run by hand when linkages change on purpose"]
fn regenerate_snapshot() {
    let parser = LinkParser::new();
    let tagger = PosTagger::new();
    let mut out = String::new();
    for s in pool_sentences() {
        out.push_str(&escape(&s));
        out.push('\t');
        out.push_str(&outcome(&parser, &tagger, &s));
        out.push('\n');
    }
    std::fs::write(SNAPSHOT, out).expect("writing the snapshot");
}

#[test]
fn stage_split_keeps_failure_reasons() {
    // A word emptied by plain pruning reports `NoDisjuncts`; a sentence
    // whose words all keep disjuncts under plain pruning but lose them to
    // power pruning (or to the search) reports `NoLinkage`. The reason is
    // serialized in every record's degradation report.
    let parser = LinkParser::new();
    let tagger = PosTagger::new();
    let reason = |s: &str| parser.try_parse(&tagger.tag(&tokenize(s))).err();
    assert_eq!(
        reason("Os-cal, ibuprofen, and Protonix."),
        Some(ParseFailure::NoLinkage)
    );
    assert_eq!(
        reason("Blood pressure: 144/90"),
        Some(ParseFailure::NoDisjuncts)
    );
}
