//! Connectors: the typed half-links of link grammar.
//!
//! A connector has a *name* (uppercase base plus optional lowercase
//! subscript), a *direction* (`+` right, `-` left) and an optional *multi*
//! flag (`@`, may form several links). Two connectors match when they point
//! toward each other and their names unify: bases equal, subscripts equal
//! position-wise with `*` (or exhaustion) as a wildcard — exactly the rule of
//! Sleator & Temperley's parser.

use cmr_text::{intern, Sym};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Link direction of a connector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Dir {
    /// `-`: connects to a word on the left.
    Left,
    /// `+`: connects to a word on the right.
    Right,
}

/// A connector, e.g. `@MV+` or `Ss-`.
///
/// Equality, ordering and hashing look at the text (base, subscript,
/// direction, multi flag) only, never at the dictionary-assigned id.
#[derive(Debug, Clone)]
pub struct Connector {
    /// Uppercase base, e.g. `MV`.
    pub base: String,
    /// Lowercase subscript, e.g. `s` in `Ss`.
    pub subscript: String,
    /// Direction.
    pub dir: Dir,
    /// Multi-connector (`@` prefix): may form one *or more* links.
    pub multi: bool,
    /// Interned base, compared before the subscript strings on the match
    /// fast path.
    base_sym: Sym,
    /// Dense id of this connector among its dictionary's distinct
    /// connectors (see [`ConnectorTable`]); 0 outside a dictionary.
    id: u16,
}

impl PartialEq for Connector {
    fn eq(&self, other: &Connector) -> bool {
        self.key() == other.key()
    }
}

impl Eq for Connector {}

impl Hash for Connector {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.key().hash(state);
    }
}

impl PartialOrd for Connector {
    fn partial_cmp(&self, other: &Connector) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Connector {
    fn cmp(&self, other: &Connector) -> Ordering {
        self.key().cmp(&other.key())
    }
}

impl Connector {
    /// Parses a connector from text like `@MV+`, `Ss-`, `O+`.
    ///
    /// Returns `None` when the text is not a well-formed connector.
    pub fn parse(text: &str) -> Option<Connector> {
        let mut s = text.trim();
        let multi = if let Some(rest) = s.strip_prefix('@') {
            s = rest;
            true
        } else {
            false
        };
        let dir = if let Some(rest) = s.strip_suffix('+') {
            s = rest;
            Dir::Right
        } else if let Some(rest) = s.strip_suffix('-') {
            s = rest;
            Dir::Left
        } else {
            return None;
        };
        if s.is_empty() {
            return None;
        }
        let split = s
            .find(|c: char| c.is_ascii_lowercase() || c == '*')
            .unwrap_or(s.len());
        let (base, subscript) = s.split_at(split);
        if base.is_empty() || !base.chars().all(|c| c.is_ascii_uppercase()) {
            return None;
        }
        if !subscript
            .chars()
            .all(|c| c.is_ascii_lowercase() || c == '*')
        {
            return None;
        }
        Some(Connector {
            base: base.to_string(),
            subscript: subscript.to_string(),
            dir,
            multi,
            base_sym: intern(base),
            id: 0,
        })
    }

    /// The fields equality, ordering and hashing look at.
    fn key(&self) -> (&str, &str, Dir, bool) {
        (&self.base, &self.subscript, self.dir, self.multi)
    }

    /// Interned base name, for table keys and O(1) equality probes.
    pub fn base_sym(&self) -> Sym {
        self.base_sym
    }

    /// Dictionary-assigned dense id (see [`ConnectorTable`]).
    pub(crate) fn id(&self) -> u16 {
        self.id
    }

    pub(crate) fn set_id(&mut self, id: u16) {
        self.id = id;
    }

    /// True when `self` (a right-pointing connector on an earlier word) can
    /// link with `other` (a left-pointing connector on a later word).
    pub fn matches(&self, other: &Connector) -> bool {
        debug_assert_eq!(
            self.dir,
            Dir::Right,
            "matches() expects self to point right"
        );
        debug_assert_eq!(
            other.dir,
            Dir::Left,
            "matches() expects other to point left"
        );
        if self.base_sym != other.base_sym {
            return false;
        }
        subscripts_unify(&self.subscript, &other.subscript)
    }

    /// The label a link formed from this connector pair carries: the base
    /// plus the more specific of the two subscripts.
    pub fn link_label(&self, other: &Connector) -> String {
        let sub = if self.subscript.len() >= other.subscript.len() {
            &self.subscript
        } else {
            &other.subscript
        };
        format!("{}{}", self.base, sub)
    }
}

/// Position-wise subscript unification with `*` wildcards; a missing
/// position unifies with anything.
fn subscripts_unify(a: &str, b: &str) -> bool {
    a.chars()
        .zip(b.chars())
        .all(|(x, y)| x == y || x == '*' || y == '*')
}

/// A dictionary's distinct connectors, indexed by their dense ids, with
/// the match relation computed once from [`Connector::matches`]: row `id`
/// is the bitset of ids the connector links with (left-pointing partners
/// of a right-pointing connector, and vice versa). The parser's pruning and
/// region search test links with one bit probe instead of comparing names.
#[derive(Debug, Clone, Default)]
pub(crate) struct ConnectorTable {
    /// Connector `id` at index `id`.
    connectors: Vec<Connector>,
    /// `u64` words per bitset row.
    stride: usize,
    /// One row per id.
    partners: Vec<u64>,
    /// The same relation as id lists, ascending.
    partner_ids: Vec<Vec<u16>>,
}

impl ConnectorTable {
    /// Builds the table over `distinct`, where `distinct[i]` has id `i`.
    pub(crate) fn build(distinct: Vec<Connector>) -> ConnectorTable {
        let stride = distinct.len().div_ceil(64).max(1);
        let mut partners = vec![0u64; distinct.len() * stride];
        // Both loops run in id order, so every id list comes out ascending.
        let mut partner_ids = vec![Vec::new(); distinct.len()];
        for a in distinct.iter().filter(|c| c.dir == Dir::Right) {
            for b in distinct.iter().filter(|c| c.dir == Dir::Left) {
                if a.matches(b) {
                    set_bit(&mut partners[a.id as usize * stride..], b.id);
                    set_bit(&mut partners[b.id as usize * stride..], a.id);
                    partner_ids[a.id as usize].push(b.id);
                    partner_ids[b.id as usize].push(a.id);
                }
            }
        }
        ConnectorTable {
            connectors: distinct,
            stride,
            partners,
            partner_ids,
        }
    }

    /// The connector with id `id`.
    pub(crate) fn get(&self, id: u16) -> &Connector {
        &self.connectors[id as usize]
    }

    /// `u64` words in one id bitset.
    pub(crate) fn stride(&self) -> usize {
        self.stride
    }

    /// The ids connector `id` links with.
    pub(crate) fn partners(&self, id: u16) -> &[u64] {
        let at = id as usize * self.stride;
        &self.partners[at..at + self.stride]
    }

    /// The ids connector `id` links with, ascending.
    pub(crate) fn partner_ids(&self, id: u16) -> &[u16] {
        &self.partner_ids[id as usize]
    }

    /// Number of distinct connectors (ids are below it).
    pub(crate) fn len(&self) -> usize {
        self.connectors.len()
    }

    /// True when right-pointing connector `right` links with left-pointing
    /// connector `left`: `Connector::matches` by table lookup.
    pub(crate) fn links(&self, right: u16, left: u16) -> bool {
        let word = self.partners[right as usize * self.stride + left as usize / 64];
        word >> (left % 64) & 1 == 1
    }
}

/// Sets bit `id` of a connector-id bitset.
pub(crate) fn set_bit(set: &mut [u64], id: u16) {
    set[id as usize / 64] |= 1 << (id % 64);
}

impl fmt::Display for Connector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.multi {
            write!(f, "@")?;
        }
        write!(f, "{}{}", self.base, self.subscript)?;
        match self.dir {
            Dir::Left => write!(f, "-"),
            Dir::Right => write!(f, "+"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(s: &str) -> Connector {
        Connector::parse(s).expect("test literals are valid connectors")
    }

    #[test]
    fn parse_forms() {
        assert_eq!(c("O+").base, "O");
        assert_eq!(c("O+").dir, Dir::Right);
        assert_eq!(c("Ss-").subscript, "s");
        assert!(c("@MV+").multi);
        assert!(!c("MV+").multi);
        assert_eq!(c("S*b-").subscript, "*b");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Connector::parse("").is_none());
        assert!(Connector::parse("O").is_none());
        assert!(Connector::parse("+").is_none());
        assert!(Connector::parse("lower+").is_none());
        assert!(Connector::parse("O!+").is_none());
    }

    #[test]
    fn matching_bases() {
        assert!(c("O+").matches(&c("O-")));
        assert!(!c("O+").matches(&c("S-")));
    }

    #[test]
    fn subscript_wildcards() {
        assert!(
            c("S+").matches(&c("Ss-")),
            "missing subscript is a wildcard"
        );
        assert!(c("Ss+").matches(&c("S-")));
        assert!(c("Ss+").matches(&c("Ss-")));
        assert!(!c("Ss+").matches(&c("Sp-")));
        assert!(c("S*b+").matches(&c("Ssb-")));
        assert!(!c("S*b+").matches(&c("Ssa-")));
    }

    #[test]
    fn labels_take_specific_subscript() {
        assert_eq!(c("S+").link_label(&c("Ss-")), "Ss");
        assert_eq!(c("Sp+").link_label(&c("S-")), "Sp");
        assert_eq!(c("O+").link_label(&c("O-")), "O");
    }

    #[test]
    fn display_roundtrip() {
        for s in ["O+", "Ss-", "@MV+", "S*b-"] {
            assert_eq!(c(s).to_string(), s);
        }
    }
}
