//! The link grammar dictionary for clinical dictation English.
//!
//! Words are assigned *classes*; each class has one expression. Assignment
//! is two-staged, which is how the parser stays open-vocabulary without a
//! 60k-word dictionary:
//!
//! 1. an explicit word table covers the closed class (determiners,
//!    prepositions, auxiliaries, conjunctions, …);
//! 2. any other word falls back to a generic class chosen by its POS tag
//!    (the same role the UNKNOWN-WORD device plays in the original parser).
//!
//! Connector inventory (a pragmatic subset of Sleator & Temperley's):
//!
//! | link | meaning                                   |
//! |------|-------------------------------------------|
//! | `Wd` | wall → head of a declarative sentence     |
//! | `Wn` | wall → head of a nominal fragment         |
//! | `S`  | subject noun → finite verb (`Ss`/`Sp`)    |
//! | `O`  | verb → object noun                        |
//! | `D`  | determiner → noun                         |
//! | `A`  | attributive adjective → noun              |
//! | `AN` | noun modifier → head noun (compounds)     |
//! | `NM` | head noun → trailing number ("age 10")    |
//! | `M`  | noun → postnominal modifier (preposition) |
//! | `MV` | verb → post-verbal modifier               |
//! | `J`  | preposition → its object                  |
//! | `JT` | time noun → "ago"                         |
//! | `P`  | be → predicative adjective                |
//! | `Pv` | be → passive participle                   |
//! | `Pg` | verb → gerund complement                  |
//! | `T`  | have → past participle                    |
//! | `I`  | modal/to → infinitive                     |
//! | `TO` | verb → infinitival "to"                   |
//! | `E`  | pre-verbal adverb → verb                  |
//! | `EB` | be → post-copular adverb                  |
//! | `EA` | adverb → adjective                        |
//! | `R`  | noun → relative pronoun                   |
//! | `MX` | head → coordinator ("and", ",")           |
//! | `N`  | "not" after auxiliary                     |

use crate::connector::{Connector, ConnectorTable};
use crate::expr::{expand, parse_expr, Disjunct, Expr};
use cmr_postag::{Tag, TaggedToken};
use cmr_text::{intern, Sym};
use std::collections::HashMap;

/// Maximum disjuncts one class expression may expand to.
const EXPANSION_CAP: usize = 100_000;

/// Generic class expressions, selected by POS tag for words not in the word
/// table.
const CLASS_DEFS: &[(&str, &str)] = &[
    // The wall starts every parse: declarative sentence head, or (at a cost)
    // the head noun of a nominal fragment.
    ("LEFT-WALL", "Wd+ or [Wn+]"),
    // Nouns. Role alternatives: subject (with optional wall), fragment head,
    // object, prepositional object, time-phrase head, compound modifier.
    // Coordination (MX) may sit closer or farther than the role connector.
    (
        "noun-sg",
        "{@AN-} & {@A-} & {D-} & {NM+} & {R+} & {@M+} & {@MX+} & \
         (({Wd-} & Ss+) or [Wn-] or O- or J- or [JT+] or AN+) & {@MX+}",
    ),
    (
        "noun-pl",
        "{@AN-} & {@A-} & {D-} & {NM+} & {R+} & {@M+} & {@MX+} & \
         (({Wd-} & Sp+) or [Wn-] or O- or J- or [JT+] or AN+) & {@MX+}",
    ),
    // Numbers: determiner of a unit noun, trailing numeric modifier, or a
    // full nominal (object/prepositional object/fragment head).
    (
        "number",
        "(D+ or NM- or ({NM+} & {@MX+} & (O- or J- or [Wn-] or ({Wd-} & Ss+)) & {@MX+}))",
    ),
    // Finite verbs.
    ("verb-z", "{@E-} & Ss- & {O+ or Pg+ or TO+} & {@MV+}"),
    ("verb-p", "{@E-} & Sp- & {O+ or Pg+ or TO+} & {@MV+}"),
    ("verb-d", "{@E-} & S- & {O+ or Pg+ or TO+} & {@MV+}"),
    // Base verb after modal/to.
    ("verb-base", "{@E-} & I- & {O+ or Pg+ or TO+} & {@MV+}"),
    // Gerund: complement of a verb, or nominal subject/object; takes its own
    // object and modifiers.
    // The bare-object reading ([O-]) is costed so that a gerund after a
    // verb prefers the Pg complement analysis ("quit smoking").
    (
        "verb-g",
        "{@E-} & (Pg- or ({Wd-} & Ss+) or [Wn-] or [O-] or J- or [A+]) & {O+} & {@MV+}",
    ),
    // Past participle: after have (T), passive after be (Pv), or (costly)
    // prenominal adjective reading.
    (
        "verb-n",
        "({@E-} & (T- or Pv-) & {O+ or Pg+ or TO+} & {@MV+}) or [A+]",
    ),
    // Adjectives: attributive, or predicative after be/feel.
    (
        "adj",
        "{@EA-} & (A+ or (P- & {@MV+} & {TO+}) or ([Wn-] & {@MV+}))",
    ),
    // Adverbs.
    ("adv", "E+ or MV- or EB- or EA+ or [Wn-]"),
    // Prepositions.
    ("prep", "(M- or MV- or [Wn-]) & J+"),
    // Determiners & possessives.
    ("det", "D+"),
    // Pronouns (subject/object).
    ("pron", "({Wd-} & (Ss+ or Sp+)) or O- or J-"),
    // Coordinators: attach leftward to the first conjunct head, take the
    // next conjunct as object. A comma may instead glue onto a following
    // "and" (the Oxford comma in ", and weight of 154 pounds").
    ("coord", "({XC-} & MX- & (J+ or [MV+])) or XC+"),
    // Relative pronouns: modify a noun, act as subject of the relative verb.
    ("rel", "R- & (Ss+ or Sp+)"),
    // Modals.
    ("modal", "{@E-} & S- & I+ & {@MV+}"),
    // Infinitival "to".
    ("to", "(TO- or MV- or M-) & I+"),
    // "not"/"never" directly after an auxiliary are handled as E+ adverbs by
    // the adv class; "n't" sticks to the auxiliary (N).
    ("neg", "N- or E+ or EB-"),
    // "ago": takes the time noun phrase on its left, optionally modifying a
    // verb (in fragments there is none to modify).
    ("ago", "JT- & {MV- or [Wn-]}"),
    // be/have/do get dedicated classes.
    (
        "be-z",
        "{@E-} & Ss- & {EB+} & (O+ or P+ or Pv+ or Pg+ or MV+ or TO+) & {@MV+} & {N+}",
    ),
    (
        "be-p",
        "{@E-} & Sp- & {EB+} & (O+ or P+ or Pv+ or Pg+ or MV+ or TO+) & {@MV+} & {N+}",
    ),
    (
        "be-d",
        "{@E-} & S- & {EB+} & (O+ or P+ or Pv+ or Pg+ or MV+ or TO+) & {@MV+} & {N+}",
    ),
    // "be" after modal: "will be".
    ("be-base", "I- & {EB+} & (O+ or P+ or Pv+ or Pg+) & {@MV+}"),
    // been/being.
    ("be-n", "T- & {EB+} & (O+ or P+ or Pv+ or Pg+) & {@MV+}"),
    ("be-g", "Pg- & {EB+} & (O+ or P+ or Pv+) & {@MV+}"),
    ("have-z", "{@E-} & Ss- & (T+ or O+ or TO+) & {@MV+} & {N+}"),
    ("have-p", "{@E-} & Sp- & (T+ or O+ or TO+) & {@MV+} & {N+}"),
    ("have-d", "{@E-} & S- & (T+ or O+ or TO+) & {@MV+} & {N+}"),
    ("do-z", "{@E-} & Ss- & {N+} & {I+ or O+} & {@MV+}"),
    ("do-p", "{@E-} & Sp- & {N+} & {I+ or O+} & {@MV+}"),
    ("do-d", "{@E-} & S- & {N+} & {I+ or O+} & {@MV+}"),
];

/// Explicit word table: word → class name.
const WORD_CLASSES: &[(&str, &str)] = &[
    ("the", "det"),
    ("a", "det"),
    ("an", "det"),
    ("this", "det"),
    ("that", "det"),
    ("these", "det"),
    ("those", "det"),
    ("no", "det"),
    ("any", "det"),
    ("some", "det"),
    ("each", "det"),
    ("every", "det"),
    ("all", "det"),
    ("both", "det"),
    ("another", "det"),
    ("her", "det"),
    ("his", "det"),
    ("their", "det"),
    ("its", "det"),
    ("my", "det"),
    ("our", "det"),
    ("your", "det"),
    ("she", "pron"),
    ("he", "pron"),
    ("it", "pron"),
    ("they", "pron"),
    ("we", "pron"),
    ("i", "pron"),
    ("you", "pron"),
    ("him", "pron"),
    ("them", "pron"),
    ("none", "pron"),
    ("who", "rel"),
    ("which", "rel"),
    ("and", "coord"),
    ("or", "coord"),
    ("but", "coord"),
    (",", "coord"),
    ("of", "prep"),
    ("in", "prep"),
    ("on", "prep"),
    ("at", "prep"),
    ("by", "prep"),
    ("for", "prep"),
    ("with", "prep"),
    ("without", "prep"),
    ("from", "prep"),
    ("into", "prep"),
    ("during", "prep"),
    ("after", "prep"),
    ("before", "prep"),
    ("since", "prep"),
    ("until", "prep"),
    ("about", "prep"),
    ("per", "prep"),
    ("between", "prep"),
    ("over", "prep"),
    ("under", "prep"),
    ("within", "prep"),
    ("through", "prep"),
    ("to", "to"),
    ("not", "neg"),
    ("never", "adv"),
    ("ago", "ago"),
    ("is", "be-z"),
    ("was", "be-d"),
    ("are", "be-p"),
    ("were", "be-d"),
    ("am", "be-p"),
    ("be", "be-base"),
    ("been", "be-n"),
    ("being", "be-g"),
    ("has", "have-z"),
    ("have", "have-p"),
    ("had", "have-d"),
    ("does", "do-z"),
    ("do", "do-p"),
    ("did", "do-d"),
    ("will", "modal"),
    ("would", "modal"),
    ("can", "modal"),
    ("could", "modal"),
    ("may", "modal"),
    ("might", "modal"),
    ("should", "modal"),
    ("must", "modal"),
    ("shall", "modal"),
];

/// POS-tag fallback table: tag → class name. `tag_class` and the interned
/// `tag_ids` index are both derived from this one table so they cannot
/// diverge.
const TAG_CLASSES: &[(Tag, &str)] = &[
    (Tag::NN, "noun-sg"),
    (Tag::NNP, "noun-sg"),
    (Tag::NNS, "noun-pl"),
    (Tag::CD, "number"),
    (Tag::JJ, "adj"),
    (Tag::JJR, "adj"),
    (Tag::JJS, "adj"),
    (Tag::VBZ, "verb-z"),
    (Tag::VBP, "verb-p"),
    (Tag::VB, "verb-base"),
    (Tag::VBD, "verb-d"),
    (Tag::VBG, "verb-g"),
    (Tag::VBN, "verb-n"),
    (Tag::RB, "adv"),
    (Tag::RBR, "adv"),
    (Tag::RBS, "adv"),
    (Tag::IN, "prep"),
    (Tag::DT, "det"),
    (Tag::PRPS, "det"),
    (Tag::PRP, "pron"),
    (Tag::EX, "pron"),
    (Tag::CC, "coord"),
    (Tag::MD, "modal"),
    (Tag::TO, "to"),
    (Tag::WP, "rel"),
    (Tag::WDT, "rel"),
];

/// A defect in a dictionary definition, found while compiling it.
#[derive(Debug, Clone, PartialEq)]
pub enum DictError {
    /// A class expression failed to parse.
    BadClass {
        /// The class whose expression is malformed.
        class: &'static str,
        /// The underlying expression parse error.
        error: crate::expr::ParseError,
    },
    /// The dictionary defines no `LEFT-WALL` class (or it compiles to no
    /// disjuncts), so nothing could ever anchor a linkage.
    MissingWall,
}

impl std::fmt::Display for DictError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DictError::BadClass { class, error } => {
                write!(f, "dictionary class {class}: {error}")
            }
            DictError::MissingWall => write!(f, "dictionary has no usable LEFT-WALL class"),
        }
    }
}

impl std::error::Error for DictError {}

/// A class's disjuncts in ready-to-parse form, computed once per
/// dictionary instead of once per parse: connector lists as connector ids
/// (see [`ConnectorTable`]), reversed to the parser's farthest-first order
/// and stored once per distinct list; disjuncts sorted by (left, right)
/// lists then cost, duplicates collapsed to the cheapest. Ids follow
/// connector order, so this is the order of the connector lists
/// themselves.
#[derive(Debug, Clone)]
pub(crate) struct WordShape {
    pub(crate) disjuncts: Vec<ShapeDisjunct>,
    /// Distinct connector-id lists, farthest first; `lists[0]` is empty.
    lists: Vec<Box<[u16]>>,
}

/// One disjunct of a [`WordShape`]: its two connector lists as indexes
/// into the shape's list table, their lengths, and its cost.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ShapeDisjunct {
    pub(crate) left: u16,
    pub(crate) right: u16,
    pub(crate) left_len: u8,
    pub(crate) right_len: u8,
    pub(crate) cost: f64,
}

impl WordShape {
    fn build(raw: &[Disjunct]) -> WordShape {
        let farthest_first =
            |cs: &[Connector]| -> Vec<u16> { cs.iter().rev().map(Connector::id).collect() };
        let mut keyed: Vec<(Vec<u16>, Vec<u16>, f64)> = raw
            .iter()
            .map(|d| (farthest_first(&d.left), farthest_first(&d.right), d.cost))
            .collect();
        keyed.sort_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)).then(a.2.total_cmp(&b.2)));
        keyed.dedup_by(|b, a| a.0 == b.0 && a.1 == b.1);
        debug_assert!(keyed.len() <= u16::MAX as usize, "shape index is u16");
        let mut lists: Vec<Box<[u16]>> = vec![Box::new([])];
        let mut list_ids: HashMap<Vec<u16>, u16> = HashMap::from([(Vec::new(), 0)]);
        let mut intern = |list: Vec<u16>| -> u16 {
            *list_ids.entry(list).or_insert_with_key(|list| {
                lists.push(list.as_slice().into());
                (lists.len() - 1) as u16
            })
        };
        let disjuncts = keyed
            .into_iter()
            .map(|(left, right, cost)| ShapeDisjunct {
                left_len: left.len() as u8,
                right_len: right.len() as u8,
                left: intern(left),
                right: intern(right),
                cost,
            })
            .collect();
        WordShape { disjuncts, lists }
    }

    /// Connector list `list` of this shape, farthest first.
    pub(crate) fn list(&self, list: u16) -> &[u16] {
        &self.lists[list as usize]
    }

    /// Number of distinct connector lists (list indexes are below it).
    pub(crate) fn list_count(&self) -> usize {
        self.lists.len()
    }
}

/// Calls `f` on every connector of `expr`.
fn visit_connectors(expr: &mut Expr, f: &mut impl FnMut(&mut Connector)) {
    match expr {
        Expr::Conn(c) => f(c),
        Expr::And(parts) | Expr::Or(parts) => {
            for part in parts {
                visit_connectors(part, f);
            }
        }
        Expr::Opt(inner) | Expr::Cost(inner) => visit_connectors(inner, f),
        Expr::Empty => {}
    }
}

/// The compiled dictionary.
#[derive(Debug, Clone)]
pub struct Dictionary {
    classes: HashMap<&'static str, Vec<Disjunct>>,
    words: HashMap<&'static str, &'static str>,
    /// LEFT-WALL disjuncts, validated at construction so [`Dictionary::wall`]
    /// is infallible.
    wall: Vec<Disjunct>,
    /// Parse-ready shapes, one per class, indexed by the ids below.
    shapes: Vec<WordShape>,
    /// Word-table lookup keyed on the interned lowercase form: value is the
    /// interned class key (the word itself) and the shape index.
    word_ids: HashMap<Sym, (Sym, u16)>,
    /// POS-tag fallback: value is the interned class name and shape index.
    tag_ids: HashMap<Tag, (Sym, u16)>,
    /// Shape index of LEFT-WALL.
    wall_id: u16,
    /// Match relation over the dictionary's connector ids.
    connectors: ConnectorTable,
    /// Class key for tokens no rule covers (`"-"`).
    unknown: Sym,
}

impl Default for Dictionary {
    fn default() -> Self {
        Self::clinical_english()
    }
}

impl Dictionary {
    /// Builds the built-in clinical English dictionary.
    ///
    /// The built-in definitions are static and covered by tests, so a
    /// compile failure here is a bug in this crate, not a runtime
    /// condition; the `expect` documents that invariant. Callers that want
    /// the failure as a value use [`Dictionary::try_clinical_english`].
    pub fn clinical_english() -> Dictionary {
        Self::try_clinical_english().expect("built-in clinical dictionary compiles")
    }

    /// Builds the built-in clinical English dictionary, reporting any
    /// definition defect as a [`DictError`] instead of panicking.
    pub fn try_clinical_english() -> Result<Dictionary, DictError> {
        let mut exprs = Vec::with_capacity(CLASS_DEFS.len());
        for (name, text) in CLASS_DEFS {
            let expr =
                parse_expr(text).map_err(|error| DictError::BadClass { class: name, error })?;
            exprs.push((*name, expr));
        }
        // Ids in connector order, so comparing id lists orders disjuncts
        // exactly as comparing their connector lists does. They are set on
        // the expression trees, before expansion copies each connector
        // into its disjuncts, so only the distinct connectors are cloned.
        let mut distinct: Vec<Connector> = Vec::new();
        for (_, expr) in &mut exprs {
            visit_connectors(expr, &mut |c| {
                if !distinct.contains(c) {
                    distinct.push(c.clone());
                }
            });
        }
        distinct.sort();
        debug_assert!(distinct.len() <= u16::MAX as usize, "connector id is u16");
        for (id, c) in distinct.iter_mut().enumerate() {
            c.set_id(id as u16);
        }
        for (_, expr) in &mut exprs {
            visit_connectors(expr, &mut |c| {
                if let Ok(id) = distinct.binary_search(c) {
                    c.set_id(id as u16);
                }
            });
        }
        let connectors = ConnectorTable::build(distinct);
        let mut classes = HashMap::new();
        let mut shapes = Vec::with_capacity(CLASS_DEFS.len());
        let mut shape_ids: HashMap<&'static str, u16> = HashMap::new();
        for (name, expr) in exprs {
            let expanded = expand(&expr, EXPANSION_CAP);
            shape_ids.insert(name, shapes.len() as u16);
            shapes.push(WordShape::build(&expanded));
            classes.insert(name, expanded);
        }
        let words: HashMap<&'static str, &'static str> = WORD_CLASSES.iter().copied().collect();
        let wall = classes
            .get("LEFT-WALL")
            .filter(|w| !w.is_empty())
            .cloned()
            .ok_or(DictError::MissingWall)?;
        let wall_id = *shape_ids.get("LEFT-WALL").ok_or(DictError::MissingWall)?;
        // The static tables are internally consistent (each word/tag class
        // names a defined class); tests cover it, the expect documents it.
        let id_of = |class: &str| -> u16 {
            *shape_ids
                .get(class)
                .expect("word/tag tables reference defined classes")
        };
        let mut word_ids = HashMap::with_capacity(WORD_CLASSES.len());
        for (word, class) in WORD_CLASSES {
            let sym = intern(word);
            word_ids.insert(sym, (sym, id_of(class)));
        }
        let mut tag_ids = HashMap::with_capacity(TAG_CLASSES.len());
        for (tag, class) in TAG_CLASSES {
            tag_ids.insert(*tag, (intern(class), id_of(class)));
        }
        Ok(Dictionary {
            classes,
            words,
            wall,
            shapes,
            word_ids,
            tag_ids,
            wall_id,
            connectors,
            unknown: intern("-"),
        })
    }

    /// Disjuncts of the left wall (validated non-empty at construction).
    pub fn wall(&self) -> &[Disjunct] {
        &self.wall
    }

    /// The class key a token resolves to: the word itself when it is in the
    /// explicit word table, otherwise the generic class of its POS tag.
    /// Two token sequences with equal key sequences get identical disjunct
    /// tables — which is what makes parse results cacheable across, e.g.,
    /// the same vitals template with different numbers.
    pub fn class_key(&self, tok: &TaggedToken) -> &'static str {
        let lower = tok.lower();
        if let Some((word, _)) = self.words.get_key_value(lower) {
            return word;
        }
        self.tag_class(tok.tag).unwrap_or("-")
    }

    /// Interned equivalent of [`Dictionary::class_key`]: the parser builds
    /// cache signatures from these, so a signature probe hashes `u32`s
    /// instead of a vector of string pointers.
    pub fn class_key_sym(&self, tok: &TaggedToken) -> Sym {
        if let Some(&(key, _)) = self.word_ids.get(&tok.lower) {
            return key;
        }
        match self.tag_ids.get(&tok.tag) {
            Some(&(key, _)) => key,
            None => self.unknown,
        }
    }

    /// The parse-ready shape a token resolves to, or `None` when no rule
    /// covers it (stray punctuation), which fails the parse as before.
    pub(crate) fn shape_of(&self, tok: &TaggedToken) -> Option<&WordShape> {
        let id = if let Some(&(_, id)) = self.word_ids.get(&tok.lower) {
            id
        } else {
            self.tag_ids.get(&tok.tag).map(|&(_, id)| id)?
        };
        self.shapes.get(id as usize)
    }

    /// Parse-ready LEFT-WALL shape.
    pub(crate) fn wall_shape(&self) -> &WordShape {
        &self.shapes[self.wall_id as usize]
    }

    /// Match relation over the connector ids of this dictionary.
    pub(crate) fn connectors(&self) -> &ConnectorTable {
        &self.connectors
    }

    fn tag_class(&self, tag: Tag) -> Option<&'static str> {
        TAG_CLASSES
            .iter()
            .find(|(t, _)| *t == tag)
            .map(|(_, class)| *class)
    }

    /// Disjuncts for a word given its tagged form. Returns an empty slice
    /// for words that cannot take part in a linkage (stray punctuation),
    /// which makes the whole parse fail — the pattern fallback then runs, as
    /// in the paper.
    pub fn disjuncts(&self, tok: &TaggedToken) -> &[Disjunct] {
        let lower = tok.lower();
        if let Some(class) = self.words.get(lower) {
            return self.class(class);
        }
        match self.tag_class(tok.tag) {
            Some(class) => self.class(class),
            None => &[],
        }
    }

    fn class(&self, name: &str) -> &[Disjunct] {
        self.classes.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of classes (for diagnostics).
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Total compiled disjuncts across classes (for diagnostics).
    pub fn disjunct_count(&self) -> usize {
        self.classes.values().map(Vec::len).sum()
    }

    /// Class names in deterministic (sorted) order, for asset analyzers
    /// that iterate the whole dictionary.
    pub fn class_names(&self) -> Vec<&'static str> {
        let mut names: Vec<&'static str> = self.classes.keys().copied().collect();
        names.sort_unstable();
        names
    }

    /// Compiled disjuncts of a class by name, or `None` for an unknown
    /// class.
    pub fn class_disjuncts(&self, name: &str) -> Option<&[Disjunct]> {
        self.classes.get(name).map(Vec::as_slice)
    }
}

/// The raw `(class, connector expression)` definition table the built-in
/// dictionary compiles from, exposed for static analysis.
pub fn class_defs() -> &'static [(&'static str, &'static str)] {
    CLASS_DEFS
}

/// The raw `(word, class)` table, in source order (later entries shadow
/// earlier ones at build time), exposed for static analysis.
pub fn word_classes() -> &'static [(&'static str, &'static str)] {
    WORD_CLASSES
}

/// The raw `(POS tag, class)` fallback table, exposed for static analysis.
pub fn tag_classes() -> &'static [(Tag, &'static str)] {
    TAG_CLASSES
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmr_postag::PosTagger;
    use cmr_text::tokenize;

    #[test]
    fn builds_without_panicking() {
        let d = Dictionary::clinical_english();
        assert!(d.class_count() > 20);
        assert!(d.disjunct_count() > 100);
    }

    #[test]
    fn fallible_constructor_succeeds_on_builtin_grammar() {
        // This is the invariant that lets clinical_english() use expect().
        let d = Dictionary::try_clinical_english().expect("built-in grammar compiles");
        assert!(!d.wall().is_empty());
    }

    #[test]
    fn wall_has_disjuncts() {
        let d = Dictionary::clinical_english();
        assert!(!d.wall().is_empty());
    }

    #[test]
    fn word_table_beats_pos_fallback() {
        let d = Dictionary::clinical_english();
        let tagged = PosTagger::new().tag(&tokenize("of"));
        let dis = d.disjuncts(&tagged[0]);
        // prep: (M- or MV- or [Wn-]) & J+ → 3 disjuncts
        assert_eq!(dis.len(), 3);
        assert!(dis.iter().all(|x| x.right.iter().any(|c| c.base == "J")));
    }

    #[test]
    fn unknown_nouns_get_generic_class() {
        let d = Dictionary::clinical_english();
        let tagged = PosTagger::new().tag(&tokenize("hydrochlorothiazide"));
        assert!(!d.disjuncts(&tagged[0]).is_empty());
    }

    #[test]
    fn stray_punctuation_has_no_disjuncts() {
        let d = Dictionary::clinical_english();
        let tagged = PosTagger::new().tag(&tokenize(":"));
        assert!(d.disjuncts(&tagged[0]).is_empty());
    }

    #[test]
    fn comma_is_a_coordinator() {
        let d = Dictionary::clinical_english();
        let tagged = PosTagger::new().tag(&tokenize(","));
        assert!(!d.disjuncts(&tagged[0]).is_empty());
    }

    #[test]
    fn connector_table_agrees_with_matches() {
        let d = Dictionary::clinical_english();
        let mut all: Vec<&Connector> = d
            .class_names()
            .into_iter()
            .flat_map(|c| d.class_disjuncts(c).unwrap_or(&[]))
            .flat_map(|dj| dj.left.iter().chain(&dj.right))
            .collect();
        all.sort();
        all.dedup();
        let table = d.connectors();
        for a in all.iter().filter(|c| c.dir == crate::Dir::Right) {
            for b in all.iter().filter(|c| c.dir == crate::Dir::Left) {
                assert_eq!(table.links(a.id(), b.id()), a.matches(b), "{a} {b}");
            }
        }
        // Equal connectors share an id; distinct ones never do.
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a.id(), b.id(), "{a} {b}");
            }
        }
    }

    #[test]
    fn expansion_sizes_are_sane() {
        let d = Dictionary::clinical_english();
        // No class should exceed a few thousand disjuncts.
        assert!(d.disjunct_count() < 20_000, "total {}", d.disjunct_count());
    }
}
