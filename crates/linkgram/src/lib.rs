//! # cmr-linkgram — a link grammar parser for clinical dictation English
//!
//! A from-scratch reimplementation of the machinery the ICDE 2005 system
//! obtained from the original Link Grammar Parser 4.1 (Sleator & Temperley):
//!
//! * a dictionary of connector expressions compiled to disjuncts,
//! * the O(n³) memoized region parser (planar, connected linkages),
//! * linkage diagrams (the paper's Figure 1),
//! * the weighted linkage graph with shortest-distance queries used to
//!   associate numeric values with feature keywords (§3.1),
//! * constituent extraction (subject/verb/object/supplement) used by the
//!   categorical feature extractor (§3.3).
//!
//! ```
//! use cmr_linkgram::{LinkParser, LinkWeights};
//!
//! let parser = LinkParser::new();
//! let linkage = parser.parse_sentence("Blood pressure is 144/90.").unwrap();
//! println!("{}", linkage.diagram());
//!
//! // Fragments fail to parse — the paper's pattern fallback handles them.
//! assert!(parser.parse_sentence("Blood pressure: 144/90.").is_none());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Failures here are values (ParseFailure, ParseError, DictError), never
// unwraps: a library panic would take a whole batch-engine worker with it.
#![deny(clippy::unwrap_used)]

mod connector;
mod constituent;
mod diagram;
mod dict;
mod expr;
mod linkage;
mod parser;

pub use connector::{Connector, Dir};
pub use constituent::Constituents;
pub use dict::{class_defs, tag_classes, word_classes, DictError, Dictionary};
pub use expr::{expand, parse_expr, Disjunct, Expr, ParseError};
pub use linkage::{Link, LinkWeights, Linkage};
pub use parser::{LinkParser, ParseFailure, ParserStats, SharedParseCache};
