//! The link grammar parser.
//!
//! A memoized top-down region parser in the style of Sleator & Temperley's
//! O(n³) algorithm. A *region* `(L, R, l, r)` is the span of words strictly
//! between positions `L` and `R`, together with the still-unsatisfied
//! right-pointing connectors `l` of `L` and left-pointing connectors `r` of
//! `R` that must link into the region. Connector lists are kept
//! **farthest-first** internally (dictionary syntax is nearest-first and is
//! reversed at load): the head of `l` is the connector that links to the
//! farthest (and therefore first-chosen) word `W`.
//!
//! The case split on each region is the classic one:
//!
//! * `l` non-empty → `W` is the word `l`'s head links to; `W`'s farthest
//!   left connector must match it; `W` may additionally link to `R`.
//! * `l` empty, `r` non-empty → `W` is the word `r`'s head links to, via
//!   `W`'s farthest right connector.
//! * both empty → the region must contain no words (anything inside would
//!   be disconnected from the rest of the linkage).
//!
//! Planarity and connectivity are consequences of this decomposition, which
//! is exactly the published argument. Costs are minimized instead of
//! linkages counted: disjunct costs plus a small per-link length penalty, so
//! the parser prefers close attachments.
//!
//! Before the search, [`prune`] removes the disjuncts no complete linkage
//! can use, in two stages (plain pruning, then the original parser's power
//! pruning). Both work on connector ids: the dictionary gives each distinct
//! connector a dense id and precomputes its match bitset, so pruning ORs
//! and ANDs bitsets, and the search's candidate scans and link tests are
//! table lookups. Pruning is sound, so it changes which regions the search
//! visits but never the linkage, the cost or the failure reason.

use crate::connector::{set_bit, ConnectorTable};
use crate::dict::{Dictionary, WordShape};
use crate::linkage::{Link, Linkage};
use cmr_postag::{PosTagger, TaggedToken};
use cmr_text::{tokenize, Sym};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Per-link length penalty: breaks cost ties toward close attachment
/// without overriding whole-number disjunct costs.
const LENGTH_PENALTY: f64 = 0.01;

/// Hard limit on sentence length (words incl. wall); longer inputs fail the
/// parse (and flow to the pattern fallback) rather than taking unbounded
/// time.
const MAX_WORDS: usize = 48;

/// Default bound on the cached parse structures of one cache.
const PARSE_CACHE_CAP: usize = 4096;

/// The parser, holding a compiled [`Dictionary`] and a structure cache.
///
/// The cache exploits a structural fact: a linkage depends only on each
/// word's *class key* (explicit word-table entry, or POS-tag class), never
/// on open-vocabulary spellings or number values. Re-parsing "pulse of 84"
/// after "pulse of 96" is a lookup. The parser's scratch buffers and
/// counters make it `!Sync`; build or clone one per thread.
///
/// Every parser holds exactly one [`SharedParseCache`] handle: a private
/// one from [`LinkParser::new`], or a pool's, attached with
/// [`LinkParser::set_shared_cache`], so that a shape is parsed about once
/// per *pool*, not once per worker. Clones share their cache.
#[derive(Debug, Clone)]
pub struct LinkParser {
    /// The process-wide clinical dictionary, compiled once and shared by
    /// every parser (see [`clinical_dictionary`]).
    dict: Arc<Dictionary>,
    cache: SharedParseCache,
    stats: std::cell::Cell<ParserStats>,
    /// Reused buffer for building cache signatures (interned class keys).
    sig_scratch: std::cell::RefCell<Vec<Sym>>,
    /// Reused memo/arena/pruning storage for uncached parses.
    scratch: std::cell::RefCell<ParseScratch>,
    /// Cooperative-cancellation flag: when set, the region search bails
    /// out with [`ParseFailure::Cancelled`] at its next fuel check.
    cancel: Option<Arc<AtomicBool>>,
}

/// Why a parse produced no linkage.
///
/// Failure is a value, not a panic: batch drivers count these per record
/// (see `cmr-core`'s `DegradationReport`) and fall through to cheaper
/// association tiers instead of dropping the sentence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ParseFailure {
    /// No words remained after stripping sentence-final punctuation.
    Empty,
    /// The sentence exceeds the parser's hard word limit.
    TooLong {
        /// Words in the sentence, including the left wall.
        words: usize,
        /// The limit the parser enforces (`MAX_WORDS`).
        max: usize,
    },
    /// Some word has no surviving disjuncts (stray punctuation, symbols the
    /// dictionary cannot link): detected before the O(n³) search starts.
    NoDisjuncts,
    /// The region parser exhausted the search space without finding a
    /// linkage — the classic fragment case (`"Blood pressure: 144/90"`).
    NoLinkage,
    /// An external deadline flag (see [`LinkParser::set_cancel_flag`])
    /// was raised mid-search; the parse was abandoned, not exhausted.
    Cancelled,
}

impl std::fmt::Display for ParseFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseFailure::Empty => write!(f, "empty sentence"),
            ParseFailure::TooLong { words, max } => {
                write!(f, "sentence too long ({words} words, limit {max})")
            }
            ParseFailure::NoDisjuncts => write!(f, "a word has no usable disjuncts"),
            ParseFailure::NoLinkage => write!(f, "no linkage found"),
            ParseFailure::Cancelled => write!(f, "parse cancelled"),
        }
    }
}

impl std::error::Error for ParseFailure {}

/// One cached outcome: sentence shape (interned word-class sequence) →
/// parse structure or typed failure. Failures are cached too, so a shape
/// that cannot parse is rejected once, not once per sighting.
type ShapeEntry = Result<CachedParse, ParseFailure>;

/// A bounded shape → parse map with two-generation (second-chance)
/// eviction. New and re-touched entries live in the *hot* generation; when
/// it fills, the previous (*cold*) generation is discarded and hot becomes
/// cold. An entry is therefore only evicted after a full generation passes
/// without it being touched — a steady-state working set smaller than half
/// the capacity is never evicted, unlike the old wholesale `clear()` which
/// dropped the working set along with the strays that filled the map.
#[derive(Debug)]
struct ShapeCache {
    hot: HashMap<Arc<[Sym]>, ShapeEntry, FxBuild>,
    cold: HashMap<Arc<[Sym]>, ShapeEntry, FxBuild>,
    /// Per-generation capacity: half the configured total.
    gen_cap: usize,
    /// Entries discarded by generation rotation since construction.
    evictions: u64,
}

impl Default for ShapeCache {
    fn default() -> Self {
        ShapeCache::with_limit(PARSE_CACHE_CAP)
    }
}

impl ShapeCache {
    fn with_limit(cap: usize) -> ShapeCache {
        ShapeCache {
            hot: HashMap::default(),
            cold: HashMap::default(),
            gen_cap: (cap / 2).max(1),
            evictions: 0,
        }
    }

    fn len(&self) -> usize {
        self.hot.len() + self.cold.len()
    }

    /// Looks up a shape, promoting a cold hit into the hot generation (the
    /// second chance). Returns a clone: entries are an `Arc` + `f64`, or a
    /// `Copy` failure, so this is cheap.
    fn get(&mut self, sig: &[Sym]) -> Option<ShapeEntry> {
        if let Some(entry) = self.hot.get(sig) {
            return Some(entry.clone());
        }
        let (key, entry) = self.cold.remove_entry(sig)?;
        self.store(key, entry.clone());
        Some(entry)
    }

    fn insert(&mut self, sig: Arc<[Sym]>, entry: ShapeEntry) {
        // Drop any cold duplicate so rotation cannot resurrect a shadowed
        // entry and `len` stays honest.
        self.cold.remove(&sig);
        self.store(sig, entry);
    }

    fn store(&mut self, sig: Arc<[Sym]>, entry: ShapeEntry) {
        if self.hot.len() >= self.gen_cap && !self.hot.contains_key(&sig) {
            self.evictions += self.cold.len() as u64;
            self.cold = std::mem::take(&mut self.hot);
        }
        self.hot.insert(sig, entry);
    }

    fn clear(&mut self) {
        self.hot.clear();
        self.cold.clear();
    }
}

/// A bounded parse-structure cache that parsers on many threads share
/// (see [`LinkParser::set_shared_cache`]): one two-generation
/// [`ShapeCache`] behind one mutex, so a pool keeps at most its capacity
/// ([`PARSE_CACHE_CAP`] by default) of shapes whatever its worker count.
/// Cloning the handle shares the map.
///
/// The lock is held only to look up or to insert, never across a parse:
/// a hit never waits behind another shape's cold parse. Two workers that
/// first see one shape at the same moment may both parse it; the second
/// insert replaces the first with an identical entry.
#[derive(Debug, Clone, Default)]
pub struct SharedParseCache {
    inner: Arc<Mutex<ShapeCache>>,
}

impl SharedParseCache {
    /// An empty cache with the default capacity.
    pub fn new() -> SharedParseCache {
        SharedParseCache::default()
    }

    /// An empty cache bounded to `cap` cached shapes.
    pub fn with_capacity(cap: usize) -> SharedParseCache {
        SharedParseCache {
            inner: Arc::new(Mutex::new(ShapeCache::with_limit(cap))),
        }
    }

    /// Locks the map. A poisoned lock is recovered, not propagated: the
    /// map holds plain data, valid at every unlock point, so a worker that
    /// panicked mid-extraction cannot invalidate the cache for the rest of
    /// the pool.
    fn lock(&self) -> MutexGuard<'_, ShapeCache> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Entries discarded by generation rotation since construction.
    pub fn evictions(&self) -> u64 {
        self.lock().evictions
    }

    /// Number of cached sentence shapes.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// True when no shapes are cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Structure-cache and timing counters for one parser instance, cumulative
/// since construction (or the last [`LinkParser::reset_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParserStats {
    /// Parses answered from the structure cache.
    pub cache_hits: u64,
    /// Parses that ran the O(n³) region parser.
    pub cache_misses: u64,
    /// Wall time spent in uncached parses, in nanoseconds.
    pub parse_nanos: u64,
}

#[derive(Debug, Clone)]
struct CachedParse {
    links: Arc<Vec<Link>>,
    cost: f64,
}

/// The built-in clinical-English dictionary, compiled on first use and
/// shared by every parser of the process: extractors, lint passes and
/// service workers each build parsers, and each compile is set-up time
/// and memory the process would otherwise pay again.
fn clinical_dictionary() -> Arc<Dictionary> {
    static DICT: OnceLock<Arc<Dictionary>> = OnceLock::new();
    Arc::clone(DICT.get_or_init(|| Arc::new(Dictionary::clinical_english())))
}

impl Default for LinkParser {
    fn default() -> Self {
        LinkParser::new()
    }
}

impl LinkParser {
    /// Creates a parser over the built-in clinical-English dictionary.
    pub fn new() -> LinkParser {
        LinkParser {
            dict: clinical_dictionary(),
            cache: SharedParseCache::new(),
            stats: std::cell::Cell::new(ParserStats::default()),
            sig_scratch: std::cell::RefCell::new(Vec::new()),
            scratch: std::cell::RefCell::new(ParseScratch::default()),
            cancel: None,
        }
    }

    /// Installs a cooperative-cancellation flag. While the flag is `true`,
    /// in-flight and future region searches abandon work and return
    /// [`ParseFailure::Cancelled`]; cancelled outcomes are never cached,
    /// so clearing the flag restores normal (deterministic) behaviour.
    pub fn set_cancel_flag(&mut self, flag: Arc<AtomicBool>) {
        self.cancel = Some(flag);
    }

    /// Replaces this parser's structure cache with `cache`, typically a
    /// pool-wide one that every worker's parser holds.
    pub fn set_shared_cache(&mut self, cache: SharedParseCache) {
        self.cache = cache;
    }

    /// Parses raw sentence text (tokenizing and tagging internally).
    /// Returns `None` when no linkage exists — e.g. for fragments like
    /// `"blood pressure: 144/90"`, matching the original parser's behaviour
    /// that motivates the paper's pattern fallback.
    pub fn parse_sentence(&self, text: &str) -> Option<Linkage> {
        let tokens = tokenize(text);
        let tagged = PosTagger::new().tag(&tokens);
        self.parse(&tagged)
    }

    /// Parses a tagged token sequence. `None` folds away the failure
    /// reason; use [`LinkParser::try_parse`] to observe it.
    pub fn parse(&self, tagged: &[TaggedToken]) -> Option<Linkage> {
        self.try_parse(tagged).ok()
    }

    /// Parses a tagged token sequence, reporting *why* when no linkage
    /// exists. Failure reasons are cached alongside successful structures,
    /// so a repeated unparseable shape replays its reason from the cache.
    pub fn try_parse(&self, tagged: &[TaggedToken]) -> Result<Linkage, ParseFailure> {
        // Strip sentence-final punctuation (it carries no connectors).
        let mut end = tagged.len();
        while end > 0 && tagged[end - 1].tag == cmr_postag::Tag::PUNCT {
            end -= 1;
        }
        let tagged = &tagged[..end];
        if tagged.is_empty() {
            return Err(ParseFailure::Empty);
        }
        if tagged.len() + 1 > MAX_WORDS {
            return Err(ParseFailure::TooLong {
                words: tagged.len() + 1,
                max: MAX_WORDS,
            });
        }

        // Structure cache: identical class-key sequences share a linkage.
        // The signature is a sequence of interned symbols built in a reused
        // buffer, so the probe hashes `u32`s and allocates nothing.
        let mut sig = self.sig_scratch.borrow_mut();
        sig.clear();
        sig.extend(tagged.iter().map(|t| self.dict.class_key_sym(t)));
        // The lock is held for the lookup only; the guard is a temporary
        // of this statement.
        let cached = self.cache.lock().get(&sig);
        if let Some(cached) = cached {
            drop(sig);
            self.count_hit();
            return match cached {
                Ok(c) => Ok(self.rebuild(tagged, &c)),
                Err(f) => Err(f),
            };
        }
        // A miss materializes the signature exactly once, then parses with
        // no lock held.
        let signature: Arc<[Sym]> = Arc::from(&sig[..]);
        drop(sig);
        let result = self.parse_and_count(tagged);
        // A cancelled search is an artifact of the deadline, not a
        // property of the shape: caching it would make one timed-out
        // record poison every later sighting of the same shape.
        if !matches!(result, Err(ParseFailure::Cancelled)) {
            self.cache.lock().insert(signature, cache_entry(&result));
        }
        result
    }

    /// Charges one cache hit to the stats counters.
    fn count_hit(&self) {
        let mut stats = self.stats.get();
        stats.cache_hits += 1;
        self.stats.set(stats);
    }

    /// Runs the uncached parser, charging the miss and wall time to stats.
    fn parse_and_count(&self, tagged: &[TaggedToken]) -> Result<Linkage, ParseFailure> {
        let started = std::time::Instant::now();
        let result = self.parse_uncached(tagged);
        let mut stats = self.stats.get();
        stats.cache_misses += 1;
        stats.parse_nanos += started.elapsed().as_nanos() as u64;
        self.stats.set(stats);
        result
    }

    /// Reconstructs a linkage for `tagged` from a cached structure. The
    /// links are shared with the cache entry (`Arc`), not deep-copied.
    fn rebuild(&self, tagged: &[TaggedToken], cached: &CachedParse) -> Linkage {
        let mut words = vec!["LEFT-WALL".to_string()];
        words.extend(tagged.iter().map(|t| t.token.text.clone()));
        let token_map: Vec<Option<usize>> = std::iter::once(None)
            .chain((0..tagged.len()).map(Some))
            .collect();
        Linkage {
            words,
            token_map,
            links: Arc::clone(&cached.links),
            cost: cached.cost,
        }
    }

    fn parse_uncached(&self, tagged: &[TaggedToken]) -> Result<Linkage, ParseFailure> {
        // An already-raised deadline cancels before any search work; the
        // in-search fuel checks below only catch flags raised mid-parse.
        if let Some(flag) = &self.cancel {
            if flag.load(Ordering::Relaxed) {
                return Err(ParseFailure::Cancelled);
            }
        }
        // Word 0 is the LEFT-WALL; words 1..=n are the sentence tokens.
        // Shapes (normalized, sorted, deduped disjunct tables over
        // connector ids) are compiled once per dictionary; the per-parse
        // disjunct state is the live lists `prune` leaves and the
        // candidate lists built from them.
        let mut shapes: Vec<&WordShape> = Vec::with_capacity(tagged.len() + 1);
        shapes.push(self.dict.wall_shape());
        for t in tagged {
            // A word with no disjuncts can never link: fail fast.
            match self.dict.shape_of(t) {
                Some(s) if !s.disjuncts.is_empty() => shapes.push(s),
                _ => return Err(ParseFailure::NoDisjuncts),
            }
        }
        let n = shapes.len();
        let table = self.dict.connectors();
        let mut scratch = self.scratch.borrow_mut();
        let ParseScratch {
            memo,
            arena,
            live,
            offers,
            verdicts,
            cands,
        } = &mut *scratch;
        prune(&shapes, table, live, offers, verdicts)?;
        cands.build(&shapes, table, live);
        // Already empty, unless an earlier parse unwound mid-search.
        memo.clear();
        arena.clear();
        let mut ctx = Ctx {
            shapes: &shapes,
            table,
            cands: &*cands,
            memo,
            arena,
            cancel: self.cancel.as_deref(),
            fuel: CANCEL_FUEL,
            cancelled: false,
        };
        // Top level: the wall's right connectors must cover the sentence;
        // the virtual right boundary at index n has no connectors.
        let mut best: Option<Sol> = None;
        for &di in &live[0] {
            let di = di as usize;
            let d = &shapes[0].disjuncts[di];
            if d.left_len != 0 {
                continue;
            }
            let lref = ctx.list(0, di, Side::Right, 0);
            if let Some(sol) = ctx.best(0, n as u16, lref, ListRef::EMPTY) {
                let cost = sol.cost + d.cost;
                if better(&best, cost) {
                    best = Some(Sol {
                        cost,
                        links: sol.links,
                    });
                }
            }
        }
        let cancelled = ctx.cancelled;
        let links = best.map(|sol| {
            let mut links: Vec<Link> = Vec::new();
            flatten(ctx.arena, ctx.shapes, table, sol.links, &mut links);
            links.sort_by_key(|l| (l.left, l.right));
            (links, sol.cost)
        });
        scratch.release();
        if cancelled {
            return Err(ParseFailure::Cancelled);
        }
        let (links, cost) = links.ok_or(ParseFailure::NoLinkage)?;
        let mut words = vec!["LEFT-WALL".to_string()];
        words.extend(tagged.iter().map(|t| t.token.text.clone()));
        let token_map: Vec<Option<usize>> = std::iter::once(None)
            .chain((0..tagged.len()).map(Some))
            .collect();
        Ok(Linkage {
            words,
            token_map,
            links: Arc::new(links),
            cost,
        })
    }

    /// Access the dictionary (diagnostics, tests).
    pub fn dictionary(&self) -> &Dictionary {
        &self.dict
    }

    /// Drops all cached parse structures, for every parser sharing the
    /// cache (benchmarking, memory pressure).
    pub fn clear_cache(&self) {
        self.cache.lock().clear();
    }

    /// Number of cached parse structures.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Cache and timing counters since construction or the last reset.
    pub fn stats(&self) -> ParserStats {
        self.stats.get()
    }

    /// Zeroes the [`ParserStats`] counters (the cache itself is kept).
    pub fn reset_stats(&self) {
        self.stats.set(ParserStats::default());
    }

    /// Null-link parsing (the original parser's "panic mode"): when no
    /// complete linkage exists, retry with up to `max_nulls` words left out
    /// of the linkage. Returns the best linkage over the *kept* words plus
    /// the token indices that went null. Fewer nulls always wins; ties break
    /// on linkage cost.
    ///
    /// Complexity is `C(n, k)` parses, so keep `max_nulls` small (1–2).
    pub fn parse_with_nulls(
        &self,
        tagged: &[TaggedToken],
        max_nulls: usize,
    ) -> Option<(Linkage, Vec<usize>)> {
        if let Some(linkage) = self.parse(tagged) {
            return Some((linkage, Vec::new()));
        }
        // Strip trailing punctuation once, as parse() does, so nulls are
        // spent on real words.
        let mut end = tagged.len();
        while end > 0 && tagged[end - 1].tag == cmr_postag::Tag::PUNCT {
            end -= 1;
        }
        let tagged = &tagged[..end];
        let n = tagged.len();
        for k in 1..=max_nulls.min(n.saturating_sub(1)) {
            let mut best: Option<(Linkage, Vec<usize>)> = None;
            let mut chosen = vec![0usize; k];
            combinations(n, k, &mut chosen, 0, 0, &mut |nulls: &[usize]| {
                let kept: Vec<TaggedToken> = tagged
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| !nulls.contains(i))
                    .map(|(_, t)| t.clone())
                    .collect();
                let kept_idx: Vec<usize> = (0..n).filter(|i| !nulls.contains(i)).collect();
                if let Some(mut linkage) = self.parse(&kept) {
                    // Remap token indices back to the original sequence.
                    for t in linkage.token_map.iter_mut().flatten() {
                        *t = kept_idx[*t];
                    }
                    if best
                        .as_ref()
                        .map(|(b, _)| linkage.cost < b.cost)
                        .unwrap_or(true)
                    {
                        best = Some((linkage, nulls.to_vec()));
                    }
                }
            });
            if best.is_some() {
                return best;
            }
        }
        None
    }
}

/// The shareable cache entry for one parse outcome; failures keep their
/// reason so replays report the same [`ParseFailure`].
fn cache_entry(result: &Result<Linkage, ParseFailure>) -> ShapeEntry {
    match result {
        Ok(l) => Ok(CachedParse {
            links: Arc::clone(&l.links),
            cost: l.cost,
        }),
        Err(f) => Err(*f),
    }
}

/// Enumerates k-combinations of `0..n` into `chosen`, invoking `f` on each.
fn combinations(
    n: usize,
    k: usize,
    chosen: &mut Vec<usize>,
    depth: usize,
    start: usize,
    f: &mut impl FnMut(&[usize]),
) {
    if depth == k {
        f(chosen);
        return;
    }
    for i in start..n {
        chosen[depth] = i;
        combinations(n, k, chosen, depth + 1, i + 1, f);
    }
}

/// First-found-wins tie break: a candidate replaces the best only when
/// strictly cheaper (matching the original parser's `consider`).
fn better(best: &Option<Sol>, cost: f64) -> bool {
    best.as_ref().map(|b| cost < b.cost).unwrap_or(true)
}

/// Prunes disjuncts that can appear in no complete linkage, leaving each
/// word's survivors as an ascending list of disjunct indexes in `live` (the
/// shapes themselves are shared and never copied). Both stages work on connector-id bitsets
/// (see [`ConnectorTable`]): a connector survives a pass when its partner
/// row intersects the ids the other words offer where a partner could sit.
///
/// 1. **Capacity, then plain pruning to a fixpoint.** A word at position i
///    has only i words to its left and (n-1-i) to its right, so disjuncts
///    demanding more can never complete. Then a disjunct dies when one of
///    its connectors has no partner among the live disjuncts on its side.
///    A word left with no live disjunct fails with
///    [`ParseFailure::NoDisjuncts`].
/// 2. **Power pruning to a fixpoint** (Sleator & Temperley). In the
///    farthest-first lists a connector is *deep* when it is not the head,
///    and *open* when it is not last or is multi: it can still link a word
///    nearer than its partner. A connector needs a partner that satisfies
///    three rules: two deep connectors never link (the two heads' links
///    would cross); adjacent words link only through the last connector of
///    both lists (any later connector would need a nearer word); and
///    non-adjacent words link only if one end is open (the words between
///    must attach to an end). A multi connector is kept alive by its
///    nearest link alone, and that link obeys the rules as if it were not
///    multi, so the connector under test counts as open only when it is
///    not last; its partners count as open by the full definition. A word
///    emptied here fails with [`ParseFailure::NoLinkage`]: the search would
///    find none.
///
/// The stages stay separate so that failure reasons match plain pruning.
/// Both are sound: they only remove disjuncts no complete linkage uses, so
/// every region of a complete derivation sees the same candidates in the
/// same order, and the search returns the same linkage and cost.
fn prune(
    shapes: &[&WordShape],
    table: &ConnectorTable,
    live: &mut Vec<Vec<u16>>,
    offers: &mut Vec<u64>,
    verdicts: &mut Vec<u8>,
) -> Result<(), ParseFailure> {
    let n = shapes.len();
    if live.len() < n {
        live.resize_with(n, Vec::new);
    }
    for (i, shape) in shapes.iter().enumerate() {
        let row = &mut live[i];
        row.clear();
        row.extend((0..shape.disjuncts.len() as u16).filter(|&di| {
            let d = &shape.disjuncts[di as usize];
            d.left_len as usize <= i && d.right_len as usize <= n - 1 - i
        }));
    }
    let mut offers = Offers {
        buf: offers,
        n,
        stride: table.stride(),
    };
    for (power, failure) in [
        (false, ParseFailure::NoDisjuncts),
        (true, ParseFailure::NoLinkage),
    ] {
        loop {
            offers.collect(shapes, table, live, verdicts);
            let (changed, emptied) = kill_pass(shapes, table, live, &offers, power, verdicts);
            if emptied {
                return Err(failure);
            }
            if !changed {
                break;
            }
        }
    }
    Ok(())
}

/// Verdict of one connector list in a pruning pass (see `kill_pass`).
const UNSEEN: u8 = 0;
const KEEP: u8 = 1;
const KILL: u8 = 2;

/// One pruning pass over the live disjuncts against `offers`; returns
/// whether any disjunct died and whether some word lost its last one.
/// Disjuncts of a word share their lists, so each distinct list is judged
/// once per word, in `verdicts`.
fn kill_pass(
    shapes: &[&WordShape],
    table: &ConnectorTable,
    live: &mut [Vec<u16>],
    offers: &Offers<'_>,
    power: bool,
    verdicts: &mut Vec<u8>,
) -> (bool, bool) {
    let n = shapes.len();
    let mut changed = false;
    let mut emptied = false;
    for (i, shape) in shapes.iter().enumerate() {
        verdicts.clear();
        verdicts.resize(shape.list_count(), UNSEEN);
        let mut keeps = |list: u16, side: Side| -> bool {
            let v = &mut verdicts[list as usize];
            if *v == UNSEEN {
                let ids = shape.list(list);
                let ok = if power {
                    power_ok(table, offers, ids, side, i, n)
                } else {
                    let (t, word) = match side {
                        Side::Left => (PRE_R, i),
                        Side::Right => (SUF_L, i + 1),
                    };
                    ids.iter().all(|&c| offers.meets(table, c, t, word, ALL))
                };
                *v = if ok { KEEP } else { KILL };
            }
            *v == KEEP
        };
        let row = &mut live[i];
        let before = row.len();
        row.retain(|&di| {
            let d = &shape.disjuncts[di as usize];
            keeps(d.left, Side::Left) && keeps(d.right, Side::Right)
        });
        changed |= row.len() < before;
        emptied |= row.is_empty();
    }
    (changed, emptied)
}

/// True when every connector of one side's list (farthest first) of a
/// disjunct on word `i` has a partner allowed by the power-pruning rules.
fn power_ok(
    table: &ConnectorTable,
    offers: &Offers<'_>,
    list: &[u16],
    side: Side,
    i: usize,
    n: usize,
) -> bool {
    list.iter().enumerate().all(|(k, &c)| {
        let deep = k > 0;
        let last = k + 1 == list.len();
        let far = match (deep, last) {
            (false, false) => ALL,
            (true, false) => SHALLOW,
            (false, true) => OPEN,
            (true, true) => SHALLOW_OPEN,
        };
        let near = if deep { SINGLE } else { LAST };
        match side {
            Side::Right => {
                offers.meets(table, c, SUF_L, i + 2, far)
                    || last && i + 1 < n && offers.meets(table, c, OFFER_L, i + 1, near)
            }
            Side::Left => {
                i >= 1
                    && (offers.meets(table, c, PRE_R, i - 1, far)
                        || last && offers.meets(table, c, OFFER_R, i - 1, near))
            }
        }
    })
}

// Kinds of connector-id sets a word offers on one side, over the lists of
// its live disjuncts: every id; ids at the head; open ids (not last, or
// multi); open heads; ids in last position; and ids forming a whole
// one-connector list. Only the first four are accumulated over word
// ranges.
const ALL: usize = 0;
const SHALLOW: usize = 1;
const OPEN: usize = 2;
const SHALLOW_OPEN: usize = 3;
const LAST: usize = 4;
const SINGLE: usize = 5;
const KINDS: usize = 6;
const RANGE_KINDS: usize = 4;

// Tables of `Offers`: per word, the sets its left and right lists offer;
// `SUF_L[j]` is the union of `OFFER_L` over words >= j, and `PRE_R[j]` the
// union of `OFFER_R` over words < j.
const OFFER_L: usize = 0;
const OFFER_R: usize = 1;
const SUF_L: usize = 2;
const PRE_R: usize = 3;
const TABLES: usize = 4;

/// The connector-id sets of one pruning pass in a reused buffer, laid out
/// `[table][word][kind]`, `stride` words per set; every table has `n + 2`
/// rows so the range lookups need no bounds cases.
struct Offers<'a> {
    buf: &'a mut Vec<u64>,
    n: usize,
    stride: usize,
}

impl Offers<'_> {
    fn at(&self, table: usize, word: usize, kind: usize) -> usize {
        ((table * (self.n + 2) + word) * KINDS + kind) * self.stride
    }

    fn set(&self, table: usize, word: usize, kind: usize) -> &[u64] {
        let at = self.at(table, word, kind);
        &self.buf[at..at + self.stride]
    }

    /// True when connector `c` links with some id in set
    /// `(table, word, kind)`.
    fn meets(&self, table: &ConnectorTable, c: u16, t: usize, word: usize, kind: usize) -> bool {
        self.set(t, word, kind)
            .iter()
            .zip(table.partners(c))
            .any(|(a, b)| a & b != 0)
    }

    /// Recomputes every set from the live disjuncts, marking each distinct
    /// list of a word once (`seen` is scratch).
    fn collect(
        &mut self,
        shapes: &[&WordShape],
        table: &ConnectorTable,
        live: &[Vec<u16>],
        seen: &mut Vec<u8>,
    ) {
        let len = TABLES * (self.n + 2) * KINDS * self.stride;
        self.buf.clear();
        self.buf.resize(len, 0);
        for (j, shape) in shapes.iter().enumerate() {
            seen.clear();
            seen.resize(shape.list_count(), 0);
            for &di in &live[j] {
                let d = &shape.disjuncts[di as usize];
                for (list, t) in [(d.left, OFFER_L), (d.right, OFFER_R)] {
                    if seen[list as usize] == 0 {
                        seen[list as usize] = 1;
                        self.mark(table, t, j, shape.list(list));
                    }
                }
            }
        }
        let span = RANGE_KINDS * self.stride;
        for j in (0..self.n).rev() {
            let (dst, next, own) = (
                self.at(SUF_L, j, 0),
                self.at(SUF_L, j + 1, 0),
                self.at(OFFER_L, j, 0),
            );
            for x in 0..span {
                self.buf[dst + x] = self.buf[next + x] | self.buf[own + x];
            }
        }
        for j in 1..=self.n {
            let (dst, prev, own) = (
                self.at(PRE_R, j, 0),
                self.at(PRE_R, j - 1, 0),
                self.at(OFFER_R, j - 1, 0),
            );
            for x in 0..span {
                self.buf[dst + x] = self.buf[prev + x] | self.buf[own + x];
            }
        }
    }

    /// Adds one farthest-first connector list of word `j` to its sets.
    fn mark(&mut self, table: &ConnectorTable, t: usize, j: usize, list: &[u16]) {
        let base = self.at(t, j, 0);
        let stride = self.stride;
        for (k, &c) in list.iter().enumerate() {
            let first = k == 0;
            let last = k + 1 == list.len();
            let open = !last || table.get(c).multi;
            for (kind, on) in [
                (ALL, true),
                (SHALLOW, first),
                (OPEN, open),
                (SHALLOW_OPEN, first && open),
                (LAST, last),
                (SINGLE, first && last),
            ] {
                if on {
                    let at = base + kind * stride;
                    set_bit(&mut self.buf[at..at + stride], c);
                }
            }
        }
    }
}

/// The region search's candidate lists for one parse: for word `w`, side
/// and connector id `a`, the live disjuncts of `w` whose head connector on
/// that side links with `a`, ascending (the order the search tries them).
/// Built from the live lists, so the search visits no dead disjunct and
/// tests no head match.
#[derive(Debug, Clone, Default)]
struct Candidates {
    /// Distinct connector ids of the dictionary.
    ids: usize,
    /// List `(w * 2 + side) * ids + a`; the first `2 * n * ids` are in use.
    lists: Vec<Vec<u16>>,
}

impl Candidates {
    fn index(&self, w: usize, side: Side, a: u16) -> usize {
        (w * 2 + side as usize) * self.ids + a as usize
    }

    fn get(&self, w: usize, side: Side, a: u16) -> &[u16] {
        &self.lists[self.index(w, side, a)]
    }

    fn build(&mut self, shapes: &[&WordShape], table: &ConnectorTable, live: &[Vec<u16>]) {
        self.ids = table.len();
        let used = shapes.len() * 2 * self.ids;
        if self.lists.len() < used {
            self.lists.resize_with(used, Vec::new);
        }
        for list in &mut self.lists[..used] {
            list.clear();
        }
        for (w, shape) in shapes.iter().enumerate() {
            for &di in &live[w] {
                let d = &shape.disjuncts[di as usize];
                for (side, list) in [(Side::Left, d.left), (Side::Right, d.right)] {
                    let Some(&head) = shape.list(list).first() else {
                        continue;
                    };
                    for &a in table.partner_ids(head) {
                        let k = self.index(w, side, a);
                        self.lists[k].push(di);
                    }
                }
            }
        }
    }
}

/// Which side of a disjunct a list reference points into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Side {
    Left,
    Right,
}

/// A reference to a suffix of one disjunct's connector list, packed for memo
/// keys. `EMPTY` is the canonical empty list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct ListRef(u64);

impl ListRef {
    const EMPTY: ListRef = ListRef(u64::MAX);

    fn pack(word: u16, disj: u16, side: Side, offset: u8) -> ListRef {
        let s = match side {
            Side::Left => 0u64,
            Side::Right => 1u64,
        };
        ListRef((word as u64) << 32 | (disj as u64) << 16 | s << 8 | offset as u64)
    }

    fn unpack(self) -> (usize, usize, Side, usize) {
        let w = (self.0 >> 32) as usize & 0xFFFF;
        let d = (self.0 >> 16) as usize & 0xFFFF;
        let side = if (self.0 >> 8) & 1 == 0 {
            Side::Left
        } else {
            Side::Right
        };
        let off = (self.0 & 0xFF) as usize;
        (w, d, side, off)
    }
}

/// Sentinel for "no links" in the arena (the empty leaf region).
const NIL: u32 = u32::MAX;

/// Cost-and-links solution for a region. Links are a node index into the
/// per-parse arena, so combining sub-solutions is an arena push and a `Sol`
/// is `Copy` — the memo stores and returns plain values.
#[derive(Debug, Clone, Copy)]
struct Sol {
    cost: f64,
    links: u32,
}

/// Arena node for the link set of a partial solution. A `Leaf` records the
/// two connector-list heads that matched; the label string is resolved from
/// them at flatten time, only for the winning solution — candidate links
/// that lose the cost race never allocate a label.
#[derive(Debug, Clone, Copy)]
enum ANode {
    Leaf {
        left: u16,
        right: u16,
        /// Right-pointing list on the left word; its head names the link.
        a: ListRef,
        /// Left-pointing list on the right word.
        b: ListRef,
    },
    Cat(u32, u32),
}

fn flatten(
    arena: &[ANode],
    shapes: &[&WordShape],
    table: &ConnectorTable,
    idx: u32,
    out: &mut Vec<Link>,
) {
    if idx == NIL {
        return;
    }
    match arena[idx as usize] {
        ANode::Leaf { left, right, a, b } => {
            let ca = head_of(shapes, a).expect("leaf stores a matched head");
            let cb = head_of(shapes, b).expect("leaf stores a matched head");
            out.push(Link {
                left: left as usize,
                right: right as usize,
                label: table.get(ca).link_label(table.get(cb)),
            });
        }
        ANode::Cat(x, y) => {
            flatten(arena, shapes, table, x, out);
            flatten(arena, shapes, table, y, out);
        }
    }
}

/// A minimal Fx-style hasher for the memo: the keys are already
/// well-mixed packed integers, and SipHash dominates the profile otherwise.
#[derive(Default)]
struct FxHasher(u64);

impl std::hash::Hasher for FxHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u64(&mut self, v: u64) {
        const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(K);
    }

    fn write_u8(&mut self, v: u8) {
        self.write_u64(v as u64);
    }

    fn write_u16(&mut self, v: u16) {
        self.write_u64(v as u64);
    }

    fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

type FxBuild = std::hash::BuildHasherDefault<FxHasher>;

/// Entries of the region memo kept allocated between parses.
const MEMO_RETAIN: usize = 1 << 14;
/// Nodes of the link arena kept allocated between parses.
const ARENA_RETAIN: usize = 1 << 14;

/// Reusable per-parser storage for uncached parses: the region memo, the
/// link arena, and the pruning and candidate tables. Steady-state parsing
/// stops allocating. After each parse the memo and arena are emptied and
/// shrink back to at most [`MEMO_RETAIN`] entries and [`ARENA_RETAIN`]
/// nodes (about 1.7 MB together), so one huge parse does not pin its tens
/// of megabytes for the life of the parser; on the benchmark's noisy pool
/// 2 parses in 1,500 outgrow them. The other tables are bounded by the
/// sentence limit: `MAX_WORDS` words, each with at most one class's
/// disjuncts and one set or bucket per connector id.
#[derive(Debug, Clone, Default)]
struct ParseScratch {
    memo: HashMap<(u16, u16, ListRef, ListRef), Option<Sol>, FxBuild>,
    arena: Vec<ANode>,
    live: Vec<Vec<u16>>,
    offers: Vec<u64>,
    verdicts: Vec<u8>,
    cands: Candidates,
}

impl ParseScratch {
    /// Empties the memo and arena, keeping at most the retained capacity.
    fn release(&mut self) {
        self.memo.clear();
        self.memo.shrink_to(MEMO_RETAIN);
        self.arena.clear();
        self.arena.shrink_to(ARENA_RETAIN);
    }
}

struct Ctx<'a> {
    shapes: &'a [&'a WordShape],
    table: &'a ConnectorTable,
    cands: &'a Candidates,
    memo: &'a mut HashMap<(u16, u16, ListRef, ListRef), Option<Sol>, FxBuild>,
    arena: &'a mut Vec<ANode>,
    /// External cancellation flag, polled every `CANCEL_FUEL` region calls.
    cancel: Option<&'a AtomicBool>,
    /// Countdown to the next `cancel` poll (atomic loads in the inner
    /// recursion would cost more than the search step itself).
    fuel: u32,
    /// Latched once the flag is observed: the search unwinds returning
    /// `None` everywhere, and the caller maps that to `Cancelled`.
    cancelled: bool,
}

/// Region-search calls between cancellation polls.
const CANCEL_FUEL: u32 = 1024;

impl<'a> Ctx<'a> {
    /// Builds a list reference, canonicalizing empties.
    fn list(&self, word: usize, disj: usize, side: Side, offset: usize) -> ListRef {
        let d = &self.shapes[word].disjuncts[disj];
        let len = match side {
            Side::Left => d.left_len as usize,
            Side::Right => d.right_len as usize,
        };
        if offset >= len {
            ListRef::EMPTY
        } else {
            ListRef::pack(word as u16, disj as u16, side, offset as u8)
        }
    }

    /// Head connector id of a list reference.
    fn head(&self, r: ListRef) -> Option<u16> {
        head_of(self.shapes, r)
    }

    /// True when the heads of right-pointing list `a` and left-pointing
    /// list `b` link (false when either list is empty).
    fn links(&self, a: ListRef, b: ListRef) -> bool {
        match (self.head(a), self.head(b)) {
            (Some(a), Some(b)) => self.table.links(a, b),
            _ => false,
        }
    }

    fn node(&mut self, node: ANode) -> u32 {
        self.arena.push(node);
        (self.arena.len() - 1) as u32
    }

    fn leaf(&mut self, left: u16, right: u16, a: ListRef, b: ListRef) -> u32 {
        self.node(ANode::Leaf { left, right, a, b })
    }

    fn cat(&mut self, x: u32, y: u32) -> u32 {
        self.node(ANode::Cat(x, y))
    }

    fn cat3(&mut self, a: u32, b: u32, c: u32) -> u32 {
        let bc = self.cat(b, c);
        self.cat(a, bc)
    }

    fn cat4(&mut self, a: u32, b: u32, c: u32, d: u32) -> u32 {
        let ab = self.cat(a, b);
        let cd = self.cat(c, d);
        self.cat(ab, cd)
    }

    /// The list minus its head.
    fn advance(&self, r: ListRef) -> ListRef {
        debug_assert_ne!(r, ListRef::EMPTY);
        let (w, d, side, off) = r.unpack();
        self.list(w, d, side, off + 1)
    }

    /// Successor options after the head matched once: always the advanced
    /// list; additionally the unchanged list when the head is a
    /// multi-connector (it may match again, necessarily nearer).
    fn successors(&self, r: ListRef) -> [Option<ListRef>; 2] {
        let multi = self.head(r).is_some_and(|c| self.table.get(c).multi);
        [Some(self.advance(r)), if multi { Some(r) } else { None }]
    }

    /// Minimum-cost solution for the region `(L, R, l, r)`, or `None` if no
    /// linkage completes it.
    fn best(&mut self, left: u16, right: u16, l: ListRef, r: ListRef) -> Option<Sol> {
        if self.cancelled {
            return None;
        }
        if let Some(flag) = self.cancel {
            self.fuel -= 1;
            if self.fuel == 0 {
                self.fuel = CANCEL_FUEL;
                if flag.load(Ordering::Relaxed) {
                    self.cancelled = true;
                    return None;
                }
            }
        }
        if left + 1 == right {
            return if l == ListRef::EMPTY && r == ListRef::EMPTY {
                Some(Sol {
                    cost: 0.0,
                    links: NIL,
                })
            } else {
                None
            };
        }
        if l == ListRef::EMPTY && r == ListRef::EMPTY {
            // Words remain inside but nothing connects them to L or R.
            return None;
        }
        let key = (left, right, l, r);
        if let Some(cached) = self.memo.get(&key) {
            return *cached;
        }
        // Reserve the slot to guard against accidental re-entry (the
        // recursion strictly shrinks regions, so true cycles are impossible).
        self.memo.insert(key, None);

        let mut best: Option<Sol> = None;
        let cands = self.cands;
        if l != ListRef::EMPTY {
            let head = self.head(l).expect("non-empty list");
            for w in (left + 1)..right {
                for &di in cands.get(w as usize, Side::Left, head) {
                    self.try_left_anchored(left, right, l, r, w, di as usize, &mut best);
                }
            }
        } else {
            let head = self.head(r).expect("non-empty list");
            for w in (left + 1)..right {
                for &di in cands.get(w as usize, Side::Right, head) {
                    self.try_right_anchored(left, right, r, w, di as usize, &mut best);
                }
            }
        }
        self.memo.insert(key, best);
        best
    }

    /// Case: `l` non-empty. `W` is the word `l`'s head links to; the link
    /// uses `W`'s farthest-left connector. `W` may additionally link to `R`.
    #[allow(clippy::too_many_arguments)]
    fn try_left_anchored(
        &mut self,
        left: u16,
        right: u16,
        l: ListRef,
        r: ListRef,
        w: u16,
        di: usize,
        best: &mut Option<Sol>,
    ) {
        // `di` is a candidate for `l`'s head: the two heads link.
        let dl = self.list(w as usize, di, Side::Left, 0);
        let d_cost = self.shapes[w as usize].disjuncts[di].cost;
        let link_lw_cost = (w - left) as f64 * LENGTH_PENALTY;
        let dr = self.list(w as usize, di, Side::Right, 0);

        for l_next in self.successors(l).into_iter().flatten() {
            for dl_next in self.successors(dl).into_iter().flatten() {
                let Some(inner_left) = self.best(left, w, l_next, dl_next) else {
                    continue;
                };
                // Sub-case A: W does not link directly to R.
                if let Some(inner_right) = self.best(w, right, dr, r) {
                    let cost = d_cost + link_lw_cost + inner_left.cost + inner_right.cost;
                    if better(best, cost) {
                        let lw = self.leaf(left, w, l, dl);
                        let links = self.cat3(lw, inner_left.links, inner_right.links);
                        *best = Some(Sol { cost, links });
                    }
                }
                // Sub-case B: W also links to R.
                if !self.links(dr, r) {
                    continue;
                }
                let link_wr_cost = (right - w) as f64 * LENGTH_PENALTY;
                for dr_next in self.successors(dr).into_iter().flatten() {
                    for r_next in self.successors(r).into_iter().flatten() {
                        let Some(inner_right) = self.best(w, right, dr_next, r_next) else {
                            continue;
                        };
                        let cost = d_cost
                            + link_lw_cost
                            + link_wr_cost
                            + inner_left.cost
                            + inner_right.cost;
                        if better(best, cost) {
                            let lw = self.leaf(left, w, l, dl);
                            let wr = self.leaf(w, right, dr, r);
                            let links = self.cat4(lw, wr, inner_left.links, inner_right.links);
                            *best = Some(Sol { cost, links });
                        }
                    }
                }
            }
        }
    }

    /// Case: `l` empty, `r` non-empty. `W` is the word `r`'s head links to,
    /// via `W`'s farthest-right connector; `W` cannot link to `L`.
    fn try_right_anchored(
        &mut self,
        left: u16,
        right: u16,
        r: ListRef,
        w: u16,
        di: usize,
        best: &mut Option<Sol>,
    ) {
        // `di` is a candidate for `r`'s head: the two heads link.
        let dr = self.list(w as usize, di, Side::Right, 0);
        let d_cost = self.shapes[w as usize].disjuncts[di].cost;
        let link_wr_cost = (right - w) as f64 * LENGTH_PENALTY;
        let dl = self.list(w as usize, di, Side::Left, 0);

        for dr_next in self.successors(dr).into_iter().flatten() {
            for r_next in self.successors(r).into_iter().flatten() {
                let Some(inner_right) = self.best(w, right, dr_next, r_next) else {
                    continue;
                };
                let Some(inner_left) = self.best(left, w, ListRef::EMPTY, dl) else {
                    continue;
                };
                let cost = d_cost + link_wr_cost + inner_left.cost + inner_right.cost;
                if better(best, cost) {
                    let wr = self.leaf(w, right, dr, r);
                    let links = self.cat3(wr, inner_left.links, inner_right.links);
                    *best = Some(Sol { cost, links });
                }
            }
        }
    }
}

/// Head connector id of a list reference, resolved against the shape
/// tables.
fn head_of(shapes: &[&WordShape], r: ListRef) -> Option<u16> {
    if r == ListRef::EMPTY {
        return None;
    }
    let (w, d, side, off) = r.unpack();
    let shape = shapes[w];
    let disjunct = &shape.disjuncts[d];
    let list = match side {
        Side::Left => disjunct.left,
        Side::Right => disjunct.right,
    };
    shape.list(list).get(off).copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> Option<Linkage> {
        LinkParser::new().parse_sentence(text)
    }

    fn try_parse_text(parser: &LinkParser, text: &str) -> Result<Linkage, ParseFailure> {
        let tokens = tokenize(text);
        let tagged = PosTagger::new().tag(&tokens);
        parser.try_parse(&tagged)
    }

    #[test]
    fn failure_reasons_are_typed() {
        let parser = LinkParser::new();
        assert_eq!(try_parse_text(&parser, "").err(), Some(ParseFailure::Empty));
        assert_eq!(
            try_parse_text(&parser, "...").err(),
            Some(ParseFailure::Empty),
            "punctuation-only sentences strip to empty"
        );
        let long = "pulse and ".repeat(30);
        assert!(matches!(
            try_parse_text(&parser, &long),
            Err(ParseFailure::TooLong { words, max })
                if words > max && max == MAX_WORDS
        ));
        // A colon has no disjuncts: the fragment case of the paper.
        assert_eq!(
            try_parse_text(&parser, "Blood pressure: 144/90").err(),
            Some(ParseFailure::NoDisjuncts)
        );
    }

    #[test]
    fn parsers_share_one_compiled_dictionary() {
        let a = LinkParser::new();
        let b = LinkParser::default();
        assert!(Arc::ptr_eq(&a.dict, &b.dict));
        assert!(Arc::ptr_eq(&a.dict, &a.clone().dict));
    }

    #[test]
    fn parse_scratch_shrinks_after_a_huge_parse() {
        // The noisy pool's slowest sentence (33 words with the wall) with
        // three vitals appended: its region memo outgrows the retained
        // capacity several times over.
        let parser = LinkParser::new();
        let text = "Her breast history is negative for any previous biopsies or masses \
                    GYN History  Menarche at age 1l, gravida 3, para 3, last menstrual \
                    period about a year ago, weight of 150, pulse of 84, and temperature \
                    of 98.";
        assert!(try_parse_text(&parser, text).is_ok());
        let scratch = parser.scratch.borrow();
        assert!(scratch.memo.is_empty() && scratch.arena.is_empty());
        // hashbrown rounds a requested capacity up to 7/8 of a power of two.
        assert!(
            scratch.memo.capacity() < 2 * MEMO_RETAIN,
            "memo keeps {} slots",
            scratch.memo.capacity()
        );
        assert!(
            scratch.arena.capacity() <= ARENA_RETAIN,
            "arena keeps {} nodes",
            scratch.arena.capacity()
        );
    }

    #[test]
    fn raised_cancel_flag_aborts_parse_and_skips_caches() {
        let mut parser = LinkParser::new();
        let flag = Arc::new(AtomicBool::new(true));
        parser.set_cancel_flag(Arc::clone(&flag));
        let text = "The patient is a smoker.";
        assert_eq!(
            try_parse_text(&parser, text).err(),
            Some(ParseFailure::Cancelled)
        );
        assert_eq!(
            parser.cache_len(),
            0,
            "cancelled outcomes must not be cached"
        );
        // Clearing the flag restores normal behaviour for the same shape.
        flag.store(false, Ordering::Relaxed);
        assert!(try_parse_text(&parser, text).is_ok());
        assert_eq!(parser.cache_len(), 1);
    }

    #[test]
    fn cancelled_never_enters_the_shared_cache() {
        let shared = SharedParseCache::new();
        let mut parser = LinkParser::new();
        parser.set_shared_cache(shared.clone());
        let flag = Arc::new(AtomicBool::new(true));
        parser.set_cancel_flag(Arc::clone(&flag));
        let text = "The patient is a smoker.";
        assert_eq!(
            try_parse_text(&parser, text).err(),
            Some(ParseFailure::Cancelled)
        );
        flag.store(false, Ordering::Relaxed);
        // A second worker sharing the cache must parse fresh, not replay
        // the cancellation.
        let mut peer = LinkParser::new();
        peer.set_shared_cache(shared);
        assert!(try_parse_text(&peer, text).is_ok());
    }

    #[test]
    fn failure_reason_survives_the_caches() {
        let parser = LinkParser::new();
        let shared = SharedParseCache::new();
        let mut warm = LinkParser::new();
        warm.set_shared_cache(shared.clone());

        for p in [&parser, &warm] {
            let first = try_parse_text(p, "Blood pressure: 144/90").err();
            let replay = try_parse_text(p, "Blood pressure: 150/95").err();
            assert_eq!(first, Some(ParseFailure::NoDisjuncts));
            assert_eq!(replay, first, "cached replay keeps the reason");
        }
        // The second parser's negative entry reached the shared map too.
        assert!(!shared.is_empty());
    }

    fn labels(linkage: &Linkage) -> Vec<String> {
        linkage.links.iter().map(|l| base_label(&l.label)).collect()
    }

    fn base_label(label: &str) -> String {
        label
            .chars()
            .take_while(|c| c.is_ascii_uppercase())
            .collect()
    }

    /// Every linkage must be planar, connected, and cover every word.
    fn check_invariants(linkage: &Linkage) {
        let n = linkage.words.len();
        // Planarity: no two links cross.
        for (i, a) in linkage.links.iter().enumerate() {
            for b in &linkage.links[i + 1..] {
                let crossing = a.left < b.left && b.left < a.right && a.right < b.right
                    || b.left < a.left && a.left < b.right && b.right < a.right;
                assert!(!crossing, "crossing links {a:?} {b:?}");
            }
        }
        // Connectivity over all words.
        let mut adj = vec![Vec::new(); n];
        for l in linkage.links.iter() {
            assert!(l.left < l.right && l.right < n, "link bounds {l:?}");
            adj[l.left].push(l.right);
            adj[l.right].push(l.left);
        }
        let mut seen = vec![false; n];
        let mut stack = vec![0usize];
        seen[0] = true;
        while let Some(x) = stack.pop() {
            for &y in &adj[x] {
                if !seen[y] {
                    seen[y] = true;
                    stack.push(y);
                }
            }
        }
        assert!(
            seen.iter().all(|&s| s),
            "disconnected words in {:?}",
            linkage.words
        );
    }

    #[test]
    fn figure1_sentence_parses() {
        // The paper's Figure 1 example (first clause).
        let linkage = parse("Blood pressure is 144/90.").expect("parses");
        check_invariants(&linkage);
        let lbl = labels(&linkage);
        assert!(lbl.contains(&"S".to_string()), "subject link in {lbl:?}");
        assert!(lbl.contains(&"O".to_string()), "object link in {lbl:?}");
        assert!(lbl.contains(&"AN".to_string()), "compound link in {lbl:?}");
        // Wall + AN + S + O = 4 links, as the paper counts.
        assert_eq!(linkage.links.len(), 4);
    }

    #[test]
    fn full_vitals_sentence_parses() {
        let linkage = parse(
            "Blood pressure is 144/90, pulse of 84, temperature of 98.3, and weight of 154 pounds.",
        )
        .expect("parses");
        check_invariants(&linkage);
    }

    #[test]
    fn quit_smoking_parses() {
        let linkage = parse("She quit smoking five years ago.").expect("parses");
        check_invariants(&linkage);
        let lbl = labels(&linkage);
        assert!(lbl.contains(&"S".to_string()));
    }

    #[test]
    fn never_smoked_parses() {
        let linkage = parse("She has never smoked.").expect("parses");
        check_invariants(&linkage);
        let lbl = labels(&linkage);
        assert!(
            lbl.contains(&"T".to_string()),
            "have-participle link in {lbl:?}"
        );
    }

    #[test]
    fn currently_a_smoker_parses() {
        let linkage = parse("She is currently a smoker.").expect("parses");
        check_invariants(&linkage);
    }

    #[test]
    fn fragment_with_colon_fails() {
        // The paper's canonical fallback trigger.
        assert!(parse("Blood pressure: 144/90.").is_none());
    }

    #[test]
    fn nominal_fragment_parses_via_wn() {
        let linkage = parse("Menarche at age 10.").expect("parses");
        check_invariants(&linkage);
        let full: Vec<&str> = linkage.links.iter().map(|l| l.label.as_str()).collect();
        assert!(full.contains(&"Wn"), "{full:?}");
    }

    #[test]
    fn empty_input_fails() {
        assert!(parse("").is_none());
        assert!(parse(".").is_none());
    }

    #[test]
    fn word_salad_fails() {
        assert!(parse("of of of the the.").is_none());
    }

    #[test]
    fn relative_clause_parses() {
        let linkage = parse("She is a woman who underwent a mammogram.").expect("parses");
        check_invariants(&linkage);
    }

    #[test]
    fn coordination_parses() {
        let linkage = parse("She has diabetes and hypertension.").expect("parses");
        check_invariants(&linkage);
        let lbl = labels(&linkage);
        assert!(lbl.contains(&"MX".to_string()), "{lbl:?}");
    }

    #[test]
    fn linkage_words_include_wall() {
        let linkage = parse("She smokes.").expect("parses");
        assert_eq!(linkage.words[0], "LEFT-WALL");
        assert_eq!(linkage.token_map[0], None);
        assert_eq!(linkage.token_map[1], Some(0));
    }

    #[test]
    fn costs_prefer_declarative_over_fragment() {
        let l = parse("She smokes.").expect("parses");
        let full: Vec<&str> = l.links.iter().map(|x| x.label.as_str()).collect();
        assert!(full.contains(&"Wd"), "{full:?}");
    }

    #[test]
    fn null_parsing_zero_nulls_when_parseable() {
        let parser = LinkParser::new();
        let tokens = cmr_text::tokenize("She smokes.");
        let tagged = cmr_postag::PosTagger::new().tag(&tokens);
        let (linkage, nulls) = parser.parse_with_nulls(&tagged, 2).expect("parses");
        assert!(nulls.is_empty());
        assert_eq!(linkage.words[1], "She");
    }

    #[test]
    fn null_parsing_skips_the_blocking_token() {
        // The colon has no disjuncts; with one null allowed, the rest links.
        let parser = LinkParser::new();
        let tokens = cmr_text::tokenize("Vitals : blood pressure is 144/90.");
        let tagged = cmr_postag::PosTagger::new().tag(&tokens);
        assert!(
            parser.parse(&tagged).is_none(),
            "full sequence cannot parse"
        );
        let (linkage, nulls) = parser
            .parse_with_nulls(&tagged, 2)
            .expect("null parse succeeds");
        check_invariants(&linkage);
        // The colon (token index 1) must be among the nulls.
        assert!(nulls.contains(&1), "{nulls:?}");
        // Token indices in the linkage refer to the original sequence.
        let word_tokens: Vec<usize> = linkage.token_map.iter().flatten().copied().collect();
        assert!(word_tokens.contains(&3), "pressure kept");
        assert!(!word_tokens.contains(&1), "colon not in linkage");
    }

    #[test]
    fn shared_cache_spares_the_second_parser_the_parse() {
        let shared = SharedParseCache::new();
        let mut a = LinkParser::new();
        a.set_shared_cache(shared.clone());
        let mut b = LinkParser::new();
        b.set_shared_cache(shared.clone());

        let first = a
            .parse_sentence("Blood pressure is 144/90.")
            .expect("parses");
        assert_eq!(a.stats().cache_misses, 1);
        assert_eq!(shared.len(), 1);

        // Same shape, different values: the second parser answers from the
        // shared map without running the region parser.
        let second = b
            .parse_sentence("Blood pressure is 120/80.")
            .expect("parses");
        assert_eq!(b.stats().cache_misses, 0);
        assert_eq!(b.stats().cache_hits, 1);
        assert_eq!(first.links, second.links);

        // Both parsers see the one shared entry.
        assert_eq!(b.cache_len(), 1);
        assert_eq!(a.cache_len(), 1);

        // Failed parses are shared too (same shape, different values).
        assert!(a.parse_sentence("Blood pressure: 144/90.").is_none());
        assert!(b.parse_sentence("Blood pressure: 99/60.").is_none());
        assert_eq!(b.stats().cache_misses, 0, "negative entry shared");
    }

    #[test]
    fn shared_cache_is_send_and_sync() {
        const fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SharedParseCache>();
    }

    #[test]
    fn panic_while_holding_the_lock_leaves_the_cache_usable() {
        // A worker unwinding mid-extraction with the cache guard in hand
        // poisons the mutex. `lock` recovers (the map is plain data, valid
        // at every unlock point), so the surviving workers keep reading
        // and writing the same cache.
        let shared = SharedParseCache::with_capacity(64);
        let sig: Arc<[Sym]> = Arc::from(vec![cmr_text::intern("\u{1}poison-test")].as_slice());

        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = shared.lock();
            panic!("worker died mid-extraction");
        }));
        assert!(unwound.is_err());

        // Writes still land…
        shared
            .lock()
            .insert(Arc::clone(&sig), Err(ParseFailure::NoLinkage));
        // …and later lookups (and a full parse through the poisoned
        // cache) still answer.
        assert!(shared.lock().get(&sig[..]).is_some());
        let mut parser = LinkParser::new();
        parser.set_shared_cache(shared.clone());
        assert!(parser.parse_sentence("Blood pressure is 144/90.").is_some());
    }

    #[test]
    fn null_parsing_gives_up_beyond_budget() {
        let parser = LinkParser::new();
        let tokens = cmr_text::tokenize(": ; : ;");
        let tagged = cmr_postag::PosTagger::new().tag(&tokens);
        assert!(parser.parse_with_nulls(&tagged, 1).is_none());
    }

    #[test]
    fn shape_cache_second_chance_eviction() {
        fn key(n: usize) -> Sym {
            cmr_text::intern(&format!("\u{1}shape-cache-test-{n}"))
        }
        fn sig(n: usize) -> Arc<[Sym]> {
            Arc::from(vec![key(n)].as_slice())
        }
        let entry: ShapeEntry = Err(ParseFailure::NoLinkage);
        let mut cache = ShapeCache::with_limit(4); // gen_cap = 2
        cache.insert(sig(0), entry.clone());
        cache.insert(sig(1), entry.clone());
        // Hot is full; the next insert rotates (empty cold, no evictions).
        cache.insert(sig(2), entry.clone());
        assert_eq!(cache.evictions, 0);
        // A cold hit gets its second chance: promoted back into hot.
        assert!(cache.get(&[key(0)]).is_some());
        // Hot is full again ({s2, s0}); this rotation discards the cold
        // leftover s1, which was never re-touched.
        cache.insert(sig(3), entry);
        assert_eq!(cache.evictions, 1);
        assert!(cache.get(&[key(1)]).is_none(), "s1 evicted");
        assert!(
            cache.get(&[key(0)]).is_some(),
            "promoted entry survives the rotation"
        );
        assert!(cache.len() <= 4);
    }

    /// Acceptance gate: a steady-state working set that fits in half the
    /// cache keeps hitting (>90%) while a stream of one-off shapes churns
    /// past — the old wholesale `clear()` dropped the working set whenever
    /// the strays filled the map.
    #[test]
    fn eviction_keeps_steady_state_working_set() {
        let tagger = PosTagger::new();
        let cache = SharedParseCache::with_capacity(16); // gen_cap = 8
        let mut parser = LinkParser::new();
        parser.set_shared_cache(cache.clone());
        let hot: Vec<Vec<TaggedToken>> = (1..=6)
            .map(|k| tagger.tag(&tokenize(&"of ".repeat(k))))
            .collect();
        for shape in &hot {
            let _ = parser.try_parse(shape); // warm the working set
        }
        let mut hot_lookups = 0u64;
        let mut hot_hits = 0u64;
        for round in 0..30usize {
            // One never-repeated shape per round churns the cache.
            let cold = tagger.tag(&tokenize(&"the ".repeat(round + 1)));
            let _ = parser.try_parse(&cold);
            let before = parser.stats().cache_hits;
            for shape in &hot {
                let _ = parser.try_parse(shape);
            }
            hot_lookups += hot.len() as u64;
            hot_hits += parser.stats().cache_hits - before;
        }
        let rate = hot_hits as f64 / hot_lookups as f64;
        assert!(rate > 0.9, "hot working-set hit rate {rate} <= 0.9");
        assert!(cache.evictions() > 0, "churn must evict strays");
        assert!(parser.cache_len() <= 16, "cache bounded by its capacity");
    }

    /// Threaded checks of the shared cache, each run for [`ROUNDS`]
    /// schedules: two workers, released together by a barrier, take the
    /// path `try_parse` takes — look up under the lock, "parse" with no
    /// lock held, insert under the lock.
    const ROUNDS: usize = 64;

    fn model_sig(test: &str, n: usize) -> Arc<[Sym]> {
        // The \u{1} prefix keeps test keys out of any real class symbol.
        let sym = cmr_text::intern(&format!("\u{1}cache-{test}-{n}"));
        Arc::from(vec![sym].as_slice())
    }

    /// Returns whether the lookup missed (and so "parsed" and inserted).
    fn lookup_or_insert(shared: &SharedParseCache, sig: Arc<[Sym]>) -> bool {
        let cached = shared.lock().get(&sig[..]);
        if cached.is_some() {
            return false;
        }
        shared.lock().insert(sig, Err(ParseFailure::NoLinkage));
        true
    }

    #[test]
    fn shared_cache_never_loses_a_publication() {
        const SHAPES: usize = 5;
        for _ in 0..ROUNDS {
            let shared = SharedParseCache::with_capacity(1024);
            let start = std::sync::Barrier::new(2);
            // Worker A publishes shapes in ascending order, worker B in
            // descending order, so the two cross mid-way. Every shape is
            // parsed at least once and at most once per worker, and every
            // publication is still there at the end.
            let parses: Vec<usize> = std::thread::scope(|scope| {
                let workers: Vec<_> = [false, true]
                    .into_iter()
                    .map(|reverse| {
                        let (shared, start) = (&shared, &start);
                        scope.spawn(move || {
                            start.wait();
                            (0..SHAPES)
                                .filter(|&i| {
                                    let n = if reverse { SHAPES - 1 - i } else { i };
                                    lookup_or_insert(shared, model_sig("publish", n))
                                })
                                .count()
                        })
                    })
                    .collect();
                workers
                    .into_iter()
                    .map(|w| w.join().expect("cache worker"))
                    .collect()
            });
            let total: usize = parses.iter().sum();
            assert!((SHAPES..=2 * SHAPES).contains(&total), "{total} parses");
            assert_eq!(shared.len(), SHAPES, "a publication was lost");
            for n in 0..SHAPES {
                assert!(shared.lock().get(&model_sig("publish", n)).is_some());
            }
        }
    }

    #[test]
    fn shared_cache_stays_bounded_and_accounted() {
        const PER_WORKER: usize = 8;
        for _ in 0..ROUNDS {
            let shared = SharedParseCache::with_capacity(4); // gen_cap = 2
            let start = std::sync::Barrier::new(2);
            std::thread::scope(|scope| {
                for w in 0..2 {
                    let (shared, start) = (&shared, &start);
                    scope.spawn(move || {
                        start.wait();
                        for n in 0..PER_WORKER {
                            let key = model_sig("bound", w * PER_WORKER + n);
                            lookup_or_insert(shared, Arc::clone(&key));
                            // Re-touching promotes; must never panic or lose.
                            let _ = shared.lock().get(&key[..]);
                        }
                    });
                }
            });
            let len = shared.len() as u64;
            assert!(len <= 4, "two-generation map exceeded its capacity: {len}");
            // Every distinct insert is cached or counted as evicted.
            assert_eq!(
                shared.evictions() + len,
                (2 * PER_WORKER) as u64,
                "rotation lost an insert"
            );
        }
    }
}
