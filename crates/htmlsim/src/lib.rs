//! # htmlsim — HTML analysis substrate for the *Going Wild* reproduction
//!
//! The paper's analysis stage (Section 3.6) clusters millions of HTTP
//! responses by a seven-feature distance over their HTML structure, then
//! re-clusters the *differences* against ground-truth pages to find small
//! injected modifications. This crate provides everything that stage
//! needs, with no external HTML dependencies:
//!
//! * [`tokenize`] — a permissive, never-panicking HTML tokenizer that
//!   extracts tags, attributes, text, `<title>` content and inline
//!   `<script>` code from arbitrary (possibly hostile) payloads.
//! * [`PageFeatures`] — the per-page feature vector: body length, opening
//!   tag multiset and sequence (as interned 2-byte tag identifiers,
//!   mirroring the paper's normalization), title, concatenated JavaScript,
//!   embedded-resource (`src=`) and outgoing-link (`href=`) multisets.
//! * [`distance`] — exact bit-vector Levenshtein behind a prepared
//!   pattern, multiset Jaccard, and the combined seven-feature page
//!   distance of Section 3.6 (one-shot and as a prepared matrix row).
//! * [`diff`] — Myers O(ND) diff used by the fine-grained clustering to
//!   extract the added/removed tag sets between an unknown response and
//!   its most similar ground-truth representation.
//! * [`gen`] — deterministic generators for every page family that
//!   appears in the study (error pages, router logins, captive portals,
//!   parking, search, censorship landing pages, phishing kits, ad
//!   injections, fake update pages, and per-category legitimate sites).

pub mod diff;
pub mod distance;
pub mod gen;
pub mod page;
pub mod tagid;
pub mod token;

pub use diff::{diff_ops, tag_delta, DiffOp, TagDelta};
pub use distance::{
    jaccard_multiset, levenshtein, levenshtein_normalized, page_distance, FeatureWeights,
};
pub use page::PageFeatures;
pub use tagid::TagInterner;
pub use token::{tokenize, Token};
