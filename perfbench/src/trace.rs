//! The traced run: per-layer cost of batch extraction, in process.
//!
//! Five passes over one corpus, each with a fresh pipeline and parse
//! cache: a discarded warm-up, then untraced and traced twice in turn.
//! The tracing overhead is the traced walls over the untraced ones; the
//! last traced pass gives the spans and the layer table. A traced pass
//! records a span around each call into a layer's public API, nested
//! under one `engine.record` span per note:
//!
//! ```text
//! engine.record
//! ├── text.record_parse       Record::parse
//! ├── core.pipeline           Pipeline::extract_instrumented
//! │   ├── core.numeric        timer: ExtractTiming::numeric_nanos
//! │   │   └── linkgram.cold_parse   timer: ParserStats::parse_nanos delta
//! │   └── core.terms          timer: ExtractTiming::terms_nanos
//! ├── engine.serialize        serde_json::to_string(&ExtractedRecord)
//! ├── engine.journal_append   JournalWriter::append        (journaled runs)
//! └── engine.journal_compact  JournalWriter::compact       (every K records)
//! ```
//!
//! `core.numeric` and `core.terms` run inside `Pipeline`, where this
//! program cannot place a span; their durations come from the clocks the
//! pipeline itself reads at those boundaries and are marked `timer`.
//!
//! A last, *side-call* pass splits `core.numeric` further: it re-runs
//! `tokenize`, `annotate_numbers` and `PosTagger::tag_owned` on the
//! sentences the numeric extractor reads, and `LinkParser::try_parse`
//! (answered by the traced pass's warm parse cache) and
//! `Linkage::distances_from` on those it link-parses. Side spans are
//! outside the traced wall; what they do not cover is reported as
//! `core.numeric.other`.

use crate::corpus::read_notes;
use crate::{json_f64, json_str, Args};
use cmr_core::{
    ExtractBudget, ExtractedRecord, FeatureSpec, Pipeline, Schema, SharedParseCache, Tier,
};
use cmr_engine::{
    EngineConfig, JournalEntry, JournalWriter, OutputFingerprint, RunManifest, Snapshot,
};
use cmr_linkgram::{LinkParser, LinkWeights};
use cmr_postag::{PosTagger, TaggedToken};
use cmr_text::{annotate_numbers, intern, tokenize, NumberAnnotation, Record, Sym};
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// How a span's duration was measured.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// Timed by this program around a call.
    Span,
    /// Reported by a clock inside the program under test.
    Timer,
    /// A side call: repeated work outside the traced wall.
    Side,
}

const NONE: u32 = u32::MAX;

struct SpanRec {
    name: &'static str,
    start: u64,
    end: u64,
    parent: u32,
    record: u32,
    kind: Kind,
}

/// In-memory span store; disabled tracers read no clock.
struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<SpanRec>,
}

impl Tracer {
    fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, name: &'static str, parent: u32, record: u32, kind: Kind) -> u32 {
        if !self.on {
            return NONE;
        }
        let start = self.now();
        self.spans.push(SpanRec {
            name,
            start,
            end: start,
            parent,
            record,
            kind,
        });
        (self.spans.len() - 1) as u32
    }

    fn end(&mut self, id: u32) {
        if self.on {
            let end = self.now();
            self.spans[id as usize].end = end;
        }
    }

    /// Records a duration measured by the program as a child of `parent`,
    /// placed at the parent's start (`at_end` = false) or end.
    fn timer(&mut self, name: &'static str, parent: u32, nanos: u64, at_end: bool) -> u32 {
        if !self.on {
            return NONE;
        }
        let p = &self.spans[parent as usize];
        let (start, end) = if at_end {
            (p.end.saturating_sub(nanos), p.end)
        } else {
            (p.start, p.start + nanos)
        };
        let record = p.record;
        self.spans.push(SpanRec {
            name,
            start,
            end,
            parent,
            record,
            kind: Kind::Timer,
        });
        (self.spans.len() - 1) as u32
    }

    fn write(&self, path: &str) -> Result<(), String> {
        let file = std::fs::File::create(path).map_err(|e| format!("creating {path}: {e}"))?;
        let mut w = BufWriter::new(file);
        for s in &self.spans {
            let parent = if s.parent == NONE {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let kind = match s.kind {
                Kind::Span => "span",
                Kind::Timer => "timer",
                Kind::Side => "side",
            };
            writeln!(
                w,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"record\":{},\"kind\":\"{kind}\"}}",
                s.name, s.start, s.end, s.record
            )
            .map_err(|e| format!("writing {path}: {e}"))?;
        }
        w.flush().map_err(|e| format!("writing {path}: {e}"))
    }

    /// Total self time (duration minus children's durations) per span
    /// name.
    fn self_times(&self) -> std::collections::BTreeMap<&'static str, u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NONE {
                child[s.parent as usize] += s.end - s.start;
            }
        }
        let mut out = std::collections::BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            *out.entry(s.name).or_insert(0) += (s.end - s.start).saturating_sub(child[i]);
        }
        out
    }
}

/// What one pass over the corpus observed.
struct Pass {
    wall_ns: u64,
    cache: SharedParseCache,
    hits: u64,
    misses: u64,
    cold_ns: u64,
    /// Numeric fields served by the link, pattern and salvage tiers.
    tiers: [u64; 3],
}

/// One pass of batch extraction as `cmr extract --jobs 1` runs it: a
/// pipeline on a pool-shared parse cache, records in input order, the
/// output line serialized, and (journaled runs) the write-ahead journal.
fn pass(
    notes: &[String],
    journal: Option<(&Path, u64)>,
    tracer: &mut Tracer,
) -> Result<Pass, String> {
    let cache = SharedParseCache::new();
    let pipeline = Pipeline::with_default_schema().with_shared_parse_cache(cache.clone());
    let manifest = RunManifest::for_run(&EngineConfig::default(), notes);
    let mut writer = match journal {
        Some((path, _)) => Some(
            JournalWriter::create(path, &manifest)
                .map_err(|e| format!("creating {}: {e}", path.display()))?,
        ),
        None => None,
    };
    let mut fingerprint = OutputFingerprint::new();
    let mut tiers = [0u64; 3];
    let start = Instant::now();
    for (i, text) in notes.iter().enumerate() {
        let rid = i as u32;
        let rec = tracer.begin("engine.record", NONE, rid, Kind::Span);

        let s = tracer.begin("text.record_parse", rec, rid, Kind::Span);
        let record = Record::parse(text);
        tracer.end(s);

        let cold_before = if tracer.on {
            pipeline.parser_stats().parse_nanos
        } else {
            0
        };
        let p = tracer.begin("core.pipeline", rec, rid, Kind::Span);
        let (out, timing) = pipeline
            .extract_instrumented(&record, &ExtractBudget::NONE)
            .map_err(|_| "an unlimited budget tripped".to_string())?;
        tracer.end(p);
        if tracer.on {
            let cold = pipeline.parser_stats().parse_nanos - cold_before;
            let n = tracer.timer("core.numeric", p, timing.numeric_nanos, false);
            tracer.timer("linkgram.cold_parse", n, cold, false);
            tracer.timer("core.terms", p, timing.terms_nanos, true);
        }
        // Numeric fields only: `degradation.tiers` also counts every
        // medical term found as a pattern-tier field.
        for &method in out.numeric_methods.values() {
            tiers[match Tier::of_method(method) {
                Tier::LinkGrammar => 0,
                Tier::Pattern => 1,
                Tier::Salvage => 2,
            }] += 1;
        }

        let s = tracer.begin("engine.serialize", rec, rid, Kind::Span);
        let line = serde_json::to_string(&out).map_err(|e| format!("serializing: {e:?}"))?;
        tracer.end(s);
        std::hint::black_box(&line);

        if let (Some(w), Some((path, every))) = (writer.as_mut(), journal) {
            let entry = JournalEntry {
                index: i,
                output: Ok::<ExtractedRecord, _>(out),
            };
            let s = tracer.begin("engine.journal_append", rec, rid, Kind::Span);
            w.append(&entry)
                .map_err(|e| format!("appending to {}: {e}", path.display()))?;
            tracer.end(s);
            fingerprint.add_line(&line);
            if every > 0 && (i as u64 + 1).is_multiple_of(every) {
                let snap = Snapshot {
                    completed: i + 1,
                    output_fingerprint: fingerprint.as_hex(),
                };
                let s = tracer.begin("engine.journal_compact", rec, rid, Kind::Span);
                drop(writer.take());
                writer = Some(
                    JournalWriter::compact(path, &manifest, &snap)
                        .map_err(|e| format!("compacting {}: {e}", path.display()))?,
                );
                tracer.end(s);
            }
        }
        tracer.end(rec);
    }
    let wall_ns = start.elapsed().as_nanos() as u64;
    let stats = pipeline.parser_stats();
    Ok(Pass {
        wall_ns,
        cache,
        hits: stats.cache_hits,
        misses: stats.cache_misses,
        cold_ns: stats.parse_nanos,
        tiers,
    })
}

/// Counters of the side-call pass.
#[derive(Default)]
struct Side {
    lookups: u64,
    failures: u64,
    cold_parses: u64,
    sentences: u64,
    max_sym: u32,
}

/// Keyword phrases of each numeric spec as interned words, for the
/// mention gate below.
fn phrase_sets(specs: &[FeatureSpec]) -> Vec<Vec<Vec<Sym>>> {
    specs
        .iter()
        .map(|s| {
            s.matching_phrases()
                .iter()
                .map(|p| p.split_whitespace().map(intern).collect())
                .collect()
        })
        .collect()
}

/// Head tokens of the keyword mentions in `tagged` (longest phrase wins
/// at each position), over the specs routed to this section. The numeric
/// extractor link-parses a sentence only when it has a mention.
fn mention_heads(tagged: &[TaggedToken], phrases: &[&Vec<Vec<Sym>>]) -> Vec<usize> {
    let mut heads = Vec::new();
    let mut i = 0;
    while i < tagged.len() {
        let mut best = 0usize;
        for words in phrases.iter().flat_map(|p| p.iter()) {
            if words.is_empty() || i + words.len() > tagged.len() || words.len() <= best {
                continue;
            }
            let all = words.iter().enumerate().all(|(k, &w)| {
                let t = &tagged[i + k];
                t.token.kind.is_word() && (t.lower == w || t.lemma == w)
            });
            if all {
                best = words.len();
            }
        }
        if best > 0 {
            heads.push(i + best - 1);
            i += best;
        } else {
            i += 1;
        }
    }
    heads
}

/// The number of a `{N}-year-old` / `{N} years old` phrase, checked the
/// way the numeric extractor checks it before any mention.
fn year_old_number<'a>(
    tagged: &[TaggedToken],
    numbers: &'a [NumberAnnotation],
) -> Option<&'a NumberAnnotation> {
    numbers.iter().find(|n| {
        let after = n.last_token + 1;
        tagged.len() > after + 1
            && ((tagged[after].token.text == "-" && tagged[after + 1].lower().starts_with("year"))
                || (tagged[after].lower().starts_with("year")
                    && tagged[after + 1].lower() == "old"))
    })
}

/// The side-call pass over the sentences the numeric extractor reads.
fn side_pass(notes: &[String], cache: &SharedParseCache, tracer: &mut Tracer) -> Side {
    let schema = Schema::paper();
    let phrases = phrase_sets(&schema.numeric);
    let tagger = PosTagger::new();
    let mut parser = LinkParser::new();
    parser.set_shared_cache(cache.clone());
    let weights = LinkWeights::default();
    let mut side = Side::default();
    for (i, text) in notes.iter().enumerate() {
        let rid = i as u32;
        let record = Record::parse(text);
        for section in &record.sections {
            let key = section.key();
            let (routed, routed_phrases): (Vec<&FeatureSpec>, Vec<&Vec<Vec<Sym>>>) = schema
                .numeric
                .iter()
                .zip(&phrases)
                .filter(|(s, _)| {
                    s.sections.is_empty() || s.sections.iter().any(|x| x.to_lowercase() == key)
                })
                .unzip();
            if routed.is_empty() {
                continue;
            }
            for sentence in section.sentences() {
                let body = sentence.text(&section.body);
                let s = tracer.begin("text.tokenize", NONE, rid, Kind::Side);
                let tokens = tokenize(body);
                tracer.end(s);
                if tokens.is_empty() {
                    continue;
                }
                side.sentences += 1;
                let s = tracer.begin("text.numbers", NONE, rid, Kind::Side);
                let numbers = annotate_numbers(&tokens);
                tracer.end(s);
                let s = tracer.begin("postag.tag", NONE, rid, Kind::Side);
                let tagged = tagger.tag_owned(tokens);
                tracer.end(s);
                for t in &tagged {
                    side.max_sym = side.max_sym.max(t.lower.id()).max(t.lemma.id());
                }
                let heads = mention_heads(&tagged, &routed_phrases);
                // The extractor link-parses only when a mention remains and
                // the year-old pattern has not already filled every spec.
                let year_old = year_old_number(&tagged, &numbers);
                let all_filled = routed.iter().all(|spec| {
                    spec.year_old_pattern && year_old.is_some_and(|n| spec.accepts(&n.value))
                });
                if heads.is_empty() || all_filled {
                    continue;
                }
                let misses_before = parser.stats().cache_misses;
                let s = tracer.begin("linkgram.lookup", NONE, rid, Kind::Side);
                let parsed = parser.try_parse(&tagged);
                tracer.end(s);
                side.lookups += 1;
                side.cold_parses += parser.stats().cache_misses - misses_before;
                let Ok(linkage) = parsed else {
                    side.failures += 1;
                    continue;
                };
                let s = tracer.begin("linkgram.distances", NONE, rid, Kind::Side);
                for &h in &heads {
                    if let Some(w) = linkage.word_of_token(h) {
                        std::hint::black_box(linkage.distances_from(w, &weights));
                    }
                }
                tracer.end(s);
            }
        }
    }
    side
}

/// `trace --corpus FILE --spans FILE [--journal FILE --compact-every K]`.
pub fn run(args: &Args) -> Result<String, String> {
    let notes = read_notes(args.str("corpus")?)?;
    let spans_path = args.str("spans")?;
    let journal_path = args.opt("journal");
    let journal = if journal_path.is_empty() {
        None
    } else {
        Some((Path::new(journal_path), args.num::<u64>("compact-every")?))
    };
    let n = notes.len().max(1) as f64;

    // A discarded first pass pays the process's one-time costs (interner
    // growth, allocator warm-up); then untraced and traced passes
    // alternate, so slow drift of the host hits both alike.
    pass(&notes, journal, &mut Tracer::new(false))?;
    let base_a = pass(&notes, journal, &mut Tracer::new(false))?;
    let first = pass(&notes, journal, &mut Tracer::new(true))?;
    let base_b = pass(&notes, journal, &mut Tracer::new(false))?;
    let mut tracer = Tracer::new(true);
    let traced = pass(&notes, journal, &mut tracer)?;
    let untraced_ns = (base_a.wall_ns + base_b.wall_ns) as f64;
    let traced_ns = (first.wall_ns + traced.wall_ns) as f64;
    let side = side_pass(&notes, &traced.cache, &mut tracer);
    tracer.write(spans_path)?;

    let selfs = tracer.self_times();
    let get = |name: &str| selfs.get(name).copied().unwrap_or(0) as f64;
    let wall = traced.wall_ns as f64;
    // Layer rows partition the traced wall: each is a self time.
    let layers = [
        "text.record_parse",
        "core.pipeline",
        "core.numeric",
        "linkgram.cold_parse",
        "core.terms",
        "engine.serialize",
        "engine.journal_append",
        "engine.journal_compact",
    ];
    let attributed: f64 = layers.iter().map(|l| get(l)).sum();
    let unattributed = wall - attributed;
    let numeric_total = get("core.numeric") + get("linkgram.cold_parse");
    let side_rows = [
        "text.tokenize",
        "text.numbers",
        "postag.tag",
        "linkgram.lookup",
        "linkgram.distances",
    ];
    let side_sum: f64 = side_rows.iter().map(|l| get(l)).sum();
    let numeric_other = get("core.numeric") - side_sum;

    let mut table = Vec::new();
    for l in layers {
        table.push((l, "layer", get(l)));
    }
    table.push(("engine.unattributed", "remainder of wall", unattributed));
    for l in side_rows {
        table.push((l, "side call in core.numeric", get(l)));
    }
    table.push((
        "core.numeric.other",
        "core.numeric minus side calls and cold parse",
        numeric_other,
    ));
    let rows: Vec<String> = table
        .iter()
        .map(|(name, kind, ns)| {
            format!(
                "{{\"row\":\"{name}\",\"kind\":{},\"total_ms\":{},\"ns_per_note\":{},\"share_of_wall\":{}}}",
                json_str(kind),
                json_f64(ns / 1e6),
                json_f64(ns / n),
                json_f64(ns / wall)
            )
        })
        .collect();

    let lookups = (traced.hits + traced.misses).max(1) as f64;
    let tier_total = (traced.tiers.iter().sum::<u64>()).max(1) as f64;
    let metrics = [
        ("text.record_parse.ns", get("text.record_parse") / n),
        ("text.tokenize.ns", get("text.tokenize") / n),
        ("text.numbers.ns", get("text.numbers") / n),
        ("postag.tag.ns", get("postag.tag") / n),
        ("text.interned_symbols", f64::from(side.max_sym)),
        ("linkgram.hit_ratio", traced.hits as f64 / lookups),
        ("linkgram.cold_parse.ns", traced.cold_ns as f64 / n),
        (
            "linkgram.parse_fail_share",
            side.failures as f64 / side.lookups.max(1) as f64,
        ),
        ("linkgram.lookup.ns", get("linkgram.lookup") / n),
        ("linkgram.distances.ns", get("linkgram.distances") / n),
        ("core.numeric.ns", numeric_total / n),
        ("core.numeric.other.ns", numeric_other / n),
        ("core.terms.ns", get("core.terms") / n),
        ("core.tier.link_share", traced.tiers[0] as f64 / tier_total),
        (
            "core.tier.pattern_share",
            traced.tiers[1] as f64 / tier_total,
        ),
        (
            "core.tier.salvage_share",
            traced.tiers[2] as f64 / tier_total,
        ),
        ("engine.serialize.ns", get("engine.serialize") / n),
        ("engine.journal_append.ns", get("engine.journal_append") / n),
        (
            "engine.journal_compact.ns",
            get("engine.journal_compact") / n,
        ),
        ("engine.unattributed.ns", unattributed / n),
        ("engine.unattributed_share", unattributed / wall),
        ("engine.record_wall.ns", wall / n),
        ("trace.overhead_ratio", traced_ns / untraced_ns),
    ];
    let metrics: Vec<String> = metrics
        .iter()
        .map(|(k, v)| format!("\"{k}\":{}", json_f64(*v)))
        .collect();
    Ok(format!(
        "{{\"notes\":{},\"traced_wall_ms\":{},\"untraced_wall_ms\":{},\"parse_lookups\":{},\"cold_parses\":{},\"side\":{{\"sentences\":{},\"lookups\":{},\"cold_parses\":{}}},\"spans\":{},\"metrics\":{{{}}},\"table\":[{}]}}",
        notes.len(),
        json_f64(wall / 1e6),
        json_f64(untraced_ns / 2e6),
        traced.hits + traced.misses,
        traced.misses,
        side.sentences,
        side.lookups,
        side.cold_parses,
        tracer.spans.len(),
        metrics.join(","),
        rows.join(",")
    ))
}
