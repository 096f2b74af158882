//! Per-page feature extraction — the input representation for the
//! coarse-grained clustering of Section 3.6.

use crate::tagid::TagInterner;
use crate::token::{tokenize, Token};
use std::collections::BTreeMap;

/// Cap on the amount of JavaScript fed to the edit-distance feature.
/// Pages ship megabytes of minified JS; the first few KiB identify the
/// page family just as well and keep O(n·m) edit distance tractable.
pub const JS_FEATURE_CAP: usize = 4096;
/// Cap on title length used by the title edit distance.
pub const TITLE_FEATURE_CAP: usize = 256;
/// Cap on the opening-tag sequence length.
pub const TAG_SEQ_CAP: usize = 2048;

/// The feature vector the seven-feature page distance operates on.
///
/// All multisets are stored as sorted `(item, count)` maps so that
/// Jaccard computation is a linear merge and the struct has a canonical,
/// hashable serialized form (used for response deduplication).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageFeatures {
    /// Raw body length in bytes (feature 1: length difference).
    pub body_len: usize,
    /// Multiset of opening-tag identifiers (feature 2: Jaccard).
    pub tag_multiset: BTreeMap<u16, u32>,
    /// Sequence of opening-tag identifiers (feature 3: edit distance),
    /// capped at [`TAG_SEQ_CAP`].
    pub tag_sequence: Vec<u16>,
    /// `<title>` text (feature 4: edit distance), capped.
    pub title: String,
    /// Concatenated inline JavaScript (feature 5: edit distance), capped.
    pub javascript: String,
    /// Multiset of `src=""` attribute values (feature 6: Jaccard).
    pub resources: BTreeMap<String, u32>,
    /// Multiset of `href=""` attribute values (feature 7: Jaccard).
    pub links: BTreeMap<String, u32>,
}

impl PageFeatures {
    /// Extract features from an HTML payload.
    pub fn extract(html: &str, interner: &mut TagInterner) -> Self {
        let tokens = tokenize(html);
        Self::from_tokens(html.len(), &tokens, interner)
    }

    /// Extract features from a pre-tokenized payload.
    pub fn from_tokens(body_len: usize, tokens: &[Token], interner: &mut TagInterner) -> Self {
        let mut tag_multiset: BTreeMap<u16, u32> = BTreeMap::new();
        let mut tag_sequence: Vec<u16> = Vec::new();
        let mut title = String::new();
        let mut javascript = String::new();
        let mut resources: BTreeMap<String, u32> = BTreeMap::new();
        let mut links: BTreeMap<String, u32> = BTreeMap::new();
        let mut in_title = false;

        for token in tokens {
            match token {
                Token::Open { name, attrs, .. } => {
                    let id = interner.intern(name);
                    *tag_multiset.entry(id).or_insert(0) += 1;
                    if tag_sequence.len() < TAG_SEQ_CAP {
                        tag_sequence.push(id);
                    }
                    if name == "title" {
                        in_title = true;
                    }
                    for (k, v) in attrs {
                        if v.is_empty() {
                            continue;
                        }
                        if k == "src" {
                            *resources.entry(v.clone()).or_insert(0) += 1;
                        } else if k == "href" {
                            *links.entry(v.clone()).or_insert(0) += 1;
                        }
                    }
                }
                Token::Close { name } => {
                    if name == "title" {
                        in_title = false;
                    }
                }
                Token::Text(text) => {
                    if in_title && title.len() < TITLE_FEATURE_CAP {
                        let take = TITLE_FEATURE_CAP - title.len();
                        title.push_str(truncate_str(text, take));
                    }
                }
                Token::Script(code) => {
                    if javascript.len() < JS_FEATURE_CAP {
                        let take = JS_FEATURE_CAP - javascript.len();
                        javascript.push_str(truncate_str(code, take));
                    }
                }
            }
        }

        PageFeatures {
            body_len,
            tag_multiset,
            tag_sequence,
            title,
            javascript,
            resources,
            links,
        }
    }

    /// A stable 64-bit fingerprint for exact-duplicate collapsing. Two
    /// byte-identical payloads always collide; structurally different
    /// payloads essentially never do.
    pub fn fingerprint(&self) -> u64 {
        // FNV-1a over a canonical serialization of the fields.
        let mut h = 0xcbf29ce484222325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
        };
        eat(&(self.body_len as u64).to_le_bytes());
        for (&id, &n) in &self.tag_multiset {
            eat(&id.to_le_bytes());
            eat(&n.to_le_bytes());
        }
        for &id in &self.tag_sequence {
            eat(&id.to_le_bytes());
        }
        eat(self.title.as_bytes());
        eat(self.javascript.as_bytes());
        for (s, &n) in &self.resources {
            eat(s.as_bytes());
            eat(&n.to_le_bytes());
        }
        for (s, &n) in &self.links {
            eat(s.as_bytes());
            eat(&n.to_le_bytes());
        }
        h
    }

    /// Total number of opening tags.
    pub fn tag_count(&self) -> u32 {
        self.tag_multiset.values().sum()
    }

    /// Count of a specific tag by name (resolved through `interner`).
    pub fn count_of(&self, name: &str, interner: &TagInterner) -> u32 {
        interner
            .get(name)
            .and_then(|id| self.tag_multiset.get(&id).copied())
            .unwrap_or(0)
    }
}

/// Truncate at a char boundary, taking at most `max` bytes.
fn truncate_str(s: &str, max: usize) -> &str {
    if s.len() <= max {
        return s;
    }
    let mut end = max;
    while end > 0 && !s.is_char_boundary(end) {
        end -= 1;
    }
    &s[..end]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn features(html: &str) -> (PageFeatures, TagInterner) {
        let mut i = TagInterner::new();
        let f = PageFeatures::extract(html, &mut i);
        (f, i)
    }

    const SAMPLE: &str = r#"<html><head><title>Shop</title>
        <script>var t = track();</script></head>
        <body><img src="/logo.png"><img src="/logo.png">
        <a href="/a">A</a><a href="/b">B</a><p>hello</p></body></html>"#;

    #[test]
    fn extracts_all_feature_families() {
        let (f, i) = features(SAMPLE);
        assert_eq!(f.title, "Shop");
        assert!(f.javascript.contains("track()"));
        assert_eq!(f.resources.get("/logo.png"), Some(&2));
        assert_eq!(f.links.len(), 2);
        assert_eq!(f.count_of("img", &i), 2);
        assert_eq!(f.count_of("a", &i), 2);
        assert_eq!(f.body_len, SAMPLE.len());
        assert!(f.tag_sequence.len() >= 8);
    }

    #[test]
    fn fingerprint_stable_and_discriminating() {
        let (a, _) = features(SAMPLE);
        let (b, _) = features(SAMPLE);
        assert_eq!(a.fingerprint(), b.fingerprint());
        let (c, _) = features("<html><body>different</body></html>");
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn title_capped() {
        let big_title = format!("<title>{}</title>", "T".repeat(10_000));
        let (f, _) = features(&big_title);
        assert_eq!(f.title.len(), TITLE_FEATURE_CAP);
    }

    #[test]
    fn js_capped() {
        let big = format!("<script>{}</script>", "x".repeat(100_000));
        let (f, _) = features(&big);
        assert_eq!(f.javascript.len(), JS_FEATURE_CAP);
    }

    #[test]
    fn empty_page() {
        let (f, _) = features("");
        assert_eq!(f.body_len, 0);
        assert_eq!(f.tag_count(), 0);
        assert!(f.title.is_empty());
    }

    #[test]
    fn tag_multiset_counts() {
        let (f, i) = features("<div><div><div><p></p></div></div></div>");
        assert_eq!(f.count_of("div", &i), 3);
        assert_eq!(f.count_of("p", &i), 1);
        assert_eq!(f.tag_count(), 4);
    }

    #[test]
    fn truncate_respects_char_boundaries() {
        let s = "aé"; // 'é' is 2 bytes starting at index 1
        assert_eq!(truncate_str(s, 2), "a");
        assert_eq!(truncate_str(s, 3), "aé");
    }
}
