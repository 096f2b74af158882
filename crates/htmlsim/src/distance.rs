//! String and set distances, and the combined seven-feature page
//! distance of Section 3.6.
//!
//! There is one edit-distance implementation: the exact bit-vector
//! Levenshtein of Myers (1999) in Hyyrö's (2003) formulation, exposed as
//! a *prepared pattern* ([`Pattern`]). Preparing a sequence builds one
//! match mask per distinct symbol; comparing it against a text then
//! advances a whole 64-row slice of the dynamic-programming column per
//! machine word and text symbol — one word for patterns of up to 64
//! symbols, `⌈m/64⌉` words with the horizontal deltas carried from word
//! to word above that (up to the 2,048-tag and 4,096-byte feature caps,
//! and beyond). [`levenshtein`], [`str_distance`], [`page_distance`] and
//! the prepared row of the clustering matrix ([`PreparedPage`]) are thin
//! callers of [`Pattern::distance`].
//!
//! The kernel computes the same integer as the textbook two-row dynamic
//! program (kept in `tests/proptests.rs` as the oracle it is proven
//! against), and every floating-point step downstream of that integer is
//! unchanged, so normalized distances, page distances, `f32` matrix
//! cells, merges and cluster ids are bit-identical to the DP's.

use crate::page::PageFeatures;
use std::collections::BTreeMap;

/// A sequence prepared as the pattern side of the bit-vector edit
/// distance: build once, compare against many texts.
///
/// Symbols are anything that widens to `u16` — bytes and the 2-byte tag
/// identifiers are what the workspace compares.
#[derive(Debug)]
pub struct Pattern {
    len: usize,
    /// `slot[symbol]` is the symbol's row in `masks`. Row 0 is all-zero
    /// and serves every symbol that does not occur in the pattern.
    slot: Vec<u32>,
    /// `(distinct symbols + 1) × words` match masks, row-major: bit
    /// `i % 64` of word `i / 64` is set iff `pattern[i]` is the symbol.
    masks: Vec<u64>,
}

impl Pattern {
    /// Build the match masks of `pattern`.
    pub fn new<T: Copy + Into<u16>>(pattern: &[T]) -> Self {
        let len = pattern.len();
        let words = len.div_ceil(64);
        let symbols = pattern
            .iter()
            .map(|&s| s.into() as usize + 1)
            .max()
            .unwrap_or(0);
        let mut slot = vec![0u32; symbols];
        let mut rows = 1u32;
        for &s in pattern {
            let row = &mut slot[s.into() as usize];
            if *row == 0 {
                *row = rows;
                rows += 1;
            }
        }
        let mut masks = vec![0u64; rows as usize * words];
        for (i, &s) in pattern.iter().enumerate() {
            let row = slot[s.into() as usize] as usize;
            masks[row * words + i / 64] |= 1 << (i % 64);
        }
        Pattern { len, slot, masks }
    }

    /// Levenshtein edit distance between the pattern and `text`:
    /// O(⌈m/64⌉·n) word operations, exact.
    pub fn distance<T: Copy + Into<u16>>(&self, text: &[T]) -> usize {
        if self.len == 0 {
            return text.len();
        }
        let words = self.len.div_ceil(64);
        let masks_of = |symbol: T| {
            let row = self.slot.get(symbol.into() as usize).copied().unwrap_or(0) as usize;
            &self.masks[row * words..(row + 1) * words]
        };
        // The bit of the pattern's last row in the last word; the score
        // follows the horizontal delta there.
        let last = 1u64 << ((self.len - 1) % 64);
        let mut score = self.len;

        if words == 1 {
            let (mut vp, mut vn) = (!0u64, 0u64);
            for &symbol in text {
                let x = masks_of(symbol)[0] | vn;
                let d0 = ((x & vp).wrapping_add(vp) ^ vp) | x;
                let hp = vn | !(d0 | vp);
                let hn = d0 & vp;
                score += usize::from(hp & last != 0);
                score -= usize::from(hn & last != 0);
                // Row 0 of the matrix grows by one per column: shift a
                // +1 into the horizontal delta.
                let hp = (hp << 1) | 1;
                let hn = hn << 1;
                vp = hn | !(d0 | hp);
                vn = hp & d0;
            }
            return score;
        }

        // Blocked form: the same column step per word, the horizontal
        // deltas leaving the top of one word entering the next.
        let mut column = vec![(!0u64, 0u64); words];
        for &symbol in text {
            let eq = masks_of(symbol);
            let (mut hp_in, mut hn_in) = (1u64, 0u64);
            for (w, state) in column.iter_mut().enumerate() {
                let (vp, vn) = *state;
                let x = eq[w] | hn_in;
                let d0 = ((x & vp).wrapping_add(vp) ^ vp) | x | vn;
                let hp = vn | !(d0 | vp);
                let hn = d0 & vp;
                let top = if w + 1 == words { last } else { 1 << 63 };
                let (hp_out, hn_out) = (u64::from(hp & top != 0), u64::from(hn & top != 0));
                let hp = (hp << 1) | hp_in;
                let hn = (hn << 1) | hn_in;
                *state = (hn | !(d0 | hp), hp & d0);
                (hp_in, hn_in) = (hp_out, hn_out);
            }
            score += hp_in as usize;
            score -= hn_in as usize;
        }
        score
    }

    /// [`Pattern::distance`] normalized into `[0, 1]` by the longer
    /// length. Two empty sequences have distance 0.
    pub fn normalized<T: Copy + Into<u16>>(&self, text: &[T]) -> f64 {
        let max = self.len.max(text.len());
        if max == 0 {
            return 0.0;
        }
        self.distance(text) as f64 / max as f64
    }
}

/// Levenshtein edit distance over byte or 2-byte symbols.
pub fn levenshtein<T: Copy + Into<u16>>(a: &[T], b: &[T]) -> usize {
    Pattern::new(a).distance(b)
}

/// Levenshtein distance normalized into `[0, 1]` by the longer length.
/// Two empty sequences have distance 0.
pub fn levenshtein_normalized<T: Copy + Into<u16>>(a: &[T], b: &[T]) -> f64 {
    Pattern::new(a).normalized(b)
}

/// Levenshtein on string bytes, normalized: the payloads are
/// ASCII-dominated, so bytes stand in for chars.
pub fn str_distance(a: &str, b: &str) -> f64 {
    levenshtein_normalized(a.as_bytes(), b.as_bytes())
}

/// Jaccard **distance** for multisets: `1 − |A ∩ B| / |A ∪ B|`, where
/// intersection takes per-item minima and union per-item maxima.
/// Two empty multisets have distance 0.
pub fn jaccard_multiset<K: Ord>(a: &BTreeMap<K, u32>, b: &BTreeMap<K, u32>) -> f64 {
    let mut intersection = 0u64;
    let mut union = 0u64;
    let mut ita = a.iter().peekable();
    let mut itb = b.iter().peekable();
    loop {
        match (ita.peek(), itb.peek()) {
            (Some((ka, &va)), Some((kb, &vb))) => {
                use std::cmp::Ordering::*;
                match ka.cmp(kb) {
                    Less => {
                        union += va as u64;
                        ita.next();
                    }
                    Greater => {
                        union += vb as u64;
                        itb.next();
                    }
                    Equal => {
                        intersection += va.min(vb) as u64;
                        union += va.max(vb) as u64;
                        ita.next();
                        itb.next();
                    }
                }
            }
            (Some((_, &va)), None) => {
                union += va as u64;
                ita.next();
            }
            (None, Some((_, &vb))) => {
                union += vb as u64;
                itb.next();
            }
            (None, None) => break,
        }
    }
    if union == 0 {
        0.0
    } else {
        1.0 - intersection as f64 / union as f64
    }
}

/// Relative length difference in `[0, 1]`.
pub fn length_distance(a: usize, b: usize) -> f64 {
    let max = a.max(b);
    if max == 0 {
        0.0
    } else {
        (a.abs_diff(b)) as f64 / max as f64
    }
}

/// Per-feature weights for the combined page distance. The paper uses
/// "seven normalized features of equal weight"; the ablation benches
/// (A-ABL1) zero individual weights to measure each feature's value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeatureWeights {
    /// Weight of the body-length difference.
    pub body_len: f64,
    /// Weight of the tag-multiset Jaccard distance.
    pub tag_multiset: f64,
    /// Weight of the tag-sequence edit distance.
    pub tag_sequence: f64,
    /// Weight of the `<title>` edit distance.
    pub title: f64,
    /// Weight of the inline-JavaScript edit distance.
    pub javascript: f64,
    /// Weight of the `src=` multiset Jaccard distance.
    pub resources: f64,
    /// Weight of the `href=` multiset Jaccard distance.
    pub links: f64,
}

impl Default for FeatureWeights {
    /// Equal weights, as in the paper.
    fn default() -> Self {
        FeatureWeights {
            body_len: 1.0,
            tag_multiset: 1.0,
            tag_sequence: 1.0,
            title: 1.0,
            javascript: 1.0,
            resources: 1.0,
            links: 1.0,
        }
    }
}

impl FeatureWeights {
    /// Equal weights with one feature removed — used by ablations.
    pub fn without(feature: &str) -> Self {
        let mut w = Self::default();
        match feature {
            "body_len" => w.body_len = 0.0,
            "tag_multiset" => w.tag_multiset = 0.0,
            "tag_sequence" => w.tag_sequence = 0.0,
            "title" => w.title = 0.0,
            "javascript" => w.javascript = 0.0,
            "resources" => w.resources = 0.0,
            "links" => w.links = 0.0,
            other => panic!("unknown feature `{other}`"),
        }
        w
    }

    fn total(&self) -> f64 {
        self.body_len
            + self.tag_multiset
            + self.tag_sequence
            + self.title
            + self.javascript
            + self.resources
            + self.links
    }
}

/// A page prepared as one side of [`page_distance`] under fixed
/// weights: the three edit-distance features' patterns are built once,
/// then the page is compared against many others — one row of the
/// clustering matrix.
#[derive(Debug)]
pub struct PreparedPage<'a> {
    page: &'a PageFeatures,
    weights: FeatureWeights,
    // `None` where the feature's weight is zero.
    tag_sequence: Option<Pattern>,
    title: Option<Pattern>,
    javascript: Option<Pattern>,
}

impl<'a> PreparedPage<'a> {
    /// Prepare `page` for comparisons under `weights`.
    pub fn new(page: &'a PageFeatures, weights: &FeatureWeights) -> Self {
        PreparedPage {
            page,
            weights: *weights,
            tag_sequence: (weights.tag_sequence > 0.0).then(|| Pattern::new(&page.tag_sequence)),
            title: (weights.title > 0.0).then(|| Pattern::new(page.title.as_bytes())),
            javascript: (weights.javascript > 0.0)
                .then(|| Pattern::new(page.javascript.as_bytes())),
        }
    }

    /// The combined page distance in `[0, 1]` to `other`: weighted mean
    /// of the seven normalized per-feature distances (Section 3.6).
    pub fn distance(&self, other: &PageFeatures) -> f64 {
        let (a, b, w) = (self.page, other, &self.weights);
        let total = w.total();
        if total == 0.0 {
            return 0.0;
        }
        let mut acc = 0.0;
        if w.body_len > 0.0 {
            acc += w.body_len * length_distance(a.body_len, b.body_len);
        }
        if w.tag_multiset > 0.0 {
            acc += w.tag_multiset * jaccard_multiset(&a.tag_multiset, &b.tag_multiset);
        }
        if let Some(tags) = &self.tag_sequence {
            acc += w.tag_sequence * tags.normalized(&b.tag_sequence);
        }
        if let Some(title) = &self.title {
            acc += w.title * title.normalized(b.title.as_bytes());
        }
        if let Some(javascript) = &self.javascript {
            acc += w.javascript * javascript.normalized(b.javascript.as_bytes());
        }
        if w.resources > 0.0 {
            acc += w.resources * jaccard_multiset(&a.resources, &b.resources);
        }
        if w.links > 0.0 {
            acc += w.links * jaccard_multiset(&a.links, &b.links);
        }
        acc / total
    }
}

/// The combined page distance in `[0, 1]`: weighted mean of the seven
/// normalized per-feature distances (Section 3.6).
pub fn page_distance(a: &PageFeatures, b: &PageFeatures, w: &FeatureWeights) -> f64 {
    PreparedPage::new(a, w).distance(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tagid::TagInterner;

    #[test]
    fn levenshtein_basics() {
        assert_eq!(levenshtein(b"kitten", b"sitting"), 3);
        assert_eq!(levenshtein(b"", b"abc"), 3);
        assert_eq!(levenshtein(b"abc", b""), 3);
        assert_eq!(levenshtein(b"abc", b"abc"), 0);
        assert_eq!(levenshtein(b"flaw", b"lawn"), 2);
    }

    #[test]
    fn levenshtein_symmetric() {
        assert_eq!(
            levenshtein(b"abcdef", b"azced"),
            levenshtein(b"azced", b"abcdef")
        );
    }

    #[test]
    fn normalized_in_unit_interval() {
        assert_eq!(levenshtein_normalized::<u8>(&[], &[]), 0.0);
        assert_eq!(levenshtein_normalized(b"abc", b"xyz"), 1.0);
        let d = levenshtein_normalized(b"abcd", b"abcx");
        assert!(d > 0.0 && d < 1.0);
    }

    #[test]
    fn jaccard_multiset_semantics() {
        let a: BTreeMap<&str, u32> = [("x", 2), ("y", 1)].into_iter().collect();
        let b: BTreeMap<&str, u32> = [("x", 1), ("z", 1)].into_iter().collect();
        // intersection = min(2,1) = 1; union = max(2,1)+1+1 = 4
        assert!((jaccard_multiset(&a, &b) - 0.75).abs() < 1e-12);
        assert_eq!(jaccard_multiset(&a, &a), 0.0);
        let empty: BTreeMap<&str, u32> = BTreeMap::new();
        assert_eq!(jaccard_multiset(&empty, &empty), 0.0);
        assert_eq!(jaccard_multiset(&a, &empty), 1.0);
    }

    #[test]
    fn identical_pages_have_zero_distance() {
        let mut i = TagInterner::new();
        let html = "<html><head><title>T</title></head><body><p>x</p></body></html>";
        let a = PageFeatures::extract(html, &mut i);
        let b = PageFeatures::extract(html, &mut i);
        assert_eq!(page_distance(&a, &b, &FeatureWeights::default()), 0.0);
    }

    #[test]
    fn unrelated_pages_have_large_distance() {
        let mut i = TagInterner::new();
        let a = PageFeatures::extract(
            "<html><head><title>Bank login</title><script>auth();</script></head>\
             <body><form action=\"/login\"><input></form></body></html>",
            &mut i,
        );
        let b = PageFeatures::extract(
            "<html><head><title>404 Not Found</title></head><body><h1>404</h1></body></html>",
            &mut i,
        );
        let d = page_distance(&a, &b, &FeatureWeights::default());
        assert!(d > 0.35, "distance was {d}");
    }

    #[test]
    fn small_modification_has_small_distance() {
        let mut i = TagInterner::new();
        let base = format!(
            "<html><head><title>News</title></head><body>{}</body></html>",
            "<div><p>story</p></div>".repeat(40)
        );
        let injected = base.replace(
            "</body>",
            "<script src=\"http://evil.example/adjector.js\"></script></body>",
        );
        let a = PageFeatures::extract(&base, &mut i);
        let b = PageFeatures::extract(&injected, &mut i);
        let d = page_distance(&a, &b, &FeatureWeights::default());
        assert!(d < 0.2, "distance was {d}");
        assert!(d > 0.0);
    }

    #[test]
    fn distance_is_symmetric_and_bounded() {
        let mut i = TagInterner::new();
        let a = PageFeatures::extract("<p>one</p>", &mut i);
        let b = PageFeatures::extract(
            "<html><body><table><tr><td>x</td></tr></table></body></html>",
            &mut i,
        );
        let w = FeatureWeights::default();
        let d1 = page_distance(&a, &b, &w);
        let d2 = page_distance(&b, &a, &w);
        assert_eq!(d1, d2);
        assert!((0.0..=1.0).contains(&d1));
    }

    #[test]
    fn ablation_weights() {
        let w = FeatureWeights::without("javascript");
        assert_eq!(w.javascript, 0.0);
        assert_eq!(w.title, 1.0);
    }

    #[test]
    #[should_panic(expected = "unknown feature")]
    fn ablation_rejects_unknown_feature() {
        let _ = FeatureWeights::without("bogus");
    }
}
