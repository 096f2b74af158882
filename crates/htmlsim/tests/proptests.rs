//! Property tests for the HTML substrate: tokenizer totality, diff
//! correctness, distance-function invariants, and the equivalence of the
//! bit-vector edit distance to the dynamic program it replaced.

use htmlsim::diff::{diff_ops, DiffOp};
use htmlsim::distance::{
    jaccard_multiset, length_distance, levenshtein, levenshtein_normalized, page_distance,
    FeatureWeights, Pattern, PreparedPage,
};
use htmlsim::gen::{self, PageCtx, RouterVendor, SiteCategory};
use htmlsim::{tokenize, PageFeatures, TagInterner};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The oracle: the classic two-row Levenshtein dynamic program, O(n·m)
/// time — what `htmlsim::distance` computed before the bit-vector
/// kernel, kept verbatim so the kernel is proven equal to it.
fn dp_levenshtein<T: PartialEq>(a: &[T], b: &[T]) -> usize {
    let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
    if short.is_empty() {
        return long.len();
    }
    let mut row: Vec<usize> = (0..=short.len()).collect();
    for (i, x) in long.iter().enumerate() {
        let mut prev_diag = row[0];
        row[0] = i + 1;
        for (j, y) in short.iter().enumerate() {
            let cost = if x == y { 0 } else { 1 };
            let next = (prev_diag + cost).min(row[j] + 1).min(row[j + 1] + 1);
            prev_diag = row[j + 1];
            row[j + 1] = next;
        }
    }
    row[short.len()]
}

fn dp_normalized<T: PartialEq>(a: &[T], b: &[T]) -> f64 {
    let max = a.len().max(b.len());
    if max == 0 {
        return 0.0;
    }
    dp_levenshtein(a, b) as f64 / max as f64
}

/// `page_distance` as it was assembled from the DP: same features, same
/// order of floating-point operations.
fn dp_page_distance(a: &PageFeatures, b: &PageFeatures, w: &FeatureWeights) -> f64 {
    let total = w.body_len
        + w.tag_multiset
        + w.tag_sequence
        + w.title
        + w.javascript
        + w.resources
        + w.links;
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
    if w.tag_sequence > 0.0 {
        acc += w.tag_sequence * dp_normalized(&a.tag_sequence, &b.tag_sequence);
    }
    if w.title > 0.0 {
        acc += w.title * dp_normalized(a.title.as_bytes(), b.title.as_bytes());
    }
    if w.javascript > 0.0 {
        acc += w.javascript * dp_normalized(a.javascript.as_bytes(), b.javascript.as_bytes());
    }
    if w.resources > 0.0 {
        acc += w.resources * jaccard_multiset(&a.resources, &b.resources);
    }
    if w.links > 0.0 {
        acc += w.links * jaccard_multiset(&a.links, &b.links);
    }
    acc / total
}

/// Sequence lengths that straddle the kernel's word boundaries: the
/// single-word path ends at 64 symbols, the blocked form carries its
/// horizontal deltas across 64, 128, ….
fn edge_len() -> impl Strategy<Value = usize> {
    prop_oneof![0usize..=2, 62usize..=66, 126usize..=130, 0usize..=200]
}

/// A sequence of `symbol`s with an [`edge_len`] length.
fn seq<S: Strategy>(symbol: S) -> impl Strategy<Value = Vec<S::Value>> {
    (proptest::collection::vec(symbol, 200usize), edge_len()).prop_map(|(mut v, n)| {
        v.truncate(n);
        v
    })
}

/// The kernel against the oracle, in every form the crate offers it.
fn assert_kernel_matches_dp<T: Copy + Into<u16> + PartialEq>(a: &[T], b: &[T]) {
    let want = dp_levenshtein(a, b);
    assert_eq!(levenshtein(a, b), want);
    assert_eq!(levenshtein(b, a), want);
    assert_eq!(Pattern::new(a).distance(b), want);
    assert_eq!(Pattern::new(b).distance(a), want);
    assert_eq!(
        levenshtein_normalized(a, b).to_bits(),
        dp_normalized(a, b).to_bits()
    );
}

/// A reproducible pseudo-random sequence for the cap-sized cases, which
/// are too slow (for the oracle) to run 256 times.
fn lcg_seq<T>(len: usize, seed: u64, symbol: impl Fn(u64) -> T) -> Vec<T> {
    let mut state = seed;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            symbol(state >> 33)
        })
        .collect()
}

#[test]
fn kernel_matches_dp_at_the_feature_caps() {
    use htmlsim::page::{JS_FEATURE_CAP, TAG_SEQ_CAP};
    // Inline JavaScript: 4,096 bytes = 64 words.
    let js = lcg_seq(JS_FEATURE_CAP, 1, |r| {
        b"abcdefgh(){};= \n"[(r % 16) as usize]
    });
    let mut edited = js.clone();
    for k in (0..edited.len()).step_by(97) {
        edited[k] = b'#';
    }
    edited.drain(1000..1100);
    assert_kernel_matches_dp(&js, &edited);
    assert_kernel_matches_dp(&js, &lcg_seq(JS_FEATURE_CAP, 2, |r| r as u8));
    assert_kernel_matches_dp(&js, &js[..JS_FEATURE_CAP - 1]);
    assert_kernel_matches_dp(&js, &[] as &[u8]);
    // Tag sequence: 2,048 two-byte identifiers = 32 words.
    let tags = lcg_seq(TAG_SEQ_CAP, 3, |r| (r % 90) as u16);
    let mut shifted = tags[5..].to_vec();
    shifted.extend_from_slice(&[400, 401, 402, 65_535]);
    assert_kernel_matches_dp(&tags, &shifted);
    assert_kernel_matches_dp(&tags, &lcg_seq(TAG_SEQ_CAP, 4, |r| r as u16));
    assert_kernel_matches_dp(&tags, &tags[..63]);
}

/// One page of every family `htmlsim::gen` plants, two seeds each where
/// the family has per-seed noise.
fn page_corpus() -> Vec<PageFeatures> {
    let ctx = |domain: &str, seed: u64| PageCtx::new(domain, seed);
    let mut pages: Vec<String> = Vec::new();
    for category in [
        SiteCategory::Ads,
        SiteCategory::Adult,
        SiteCategory::Alexa,
        SiteCategory::Antivirus,
        SiteCategory::Banking,
        SiteCategory::Dating,
        SiteCategory::Filesharing,
        SiteCategory::Gambling,
        SiteCategory::Malware,
        SiteCategory::Tracking,
        SiteCategory::Misc,
        SiteCategory::GroundTruth,
    ] {
        pages.push(gen::legit_site(category, &ctx("site.example", 1)));
    }
    let ads = gen::legit_site(SiteCategory::Ads, &ctx("adnet.example", 5));
    pages.push(gen::inject_ad(&ads, "ads.rogue.example"));
    pages.push(gen::inject_script(&ads, "js.rogue.example"));
    pages.push(gen::blank_ads(&ads));
    pages.push(ads);
    for code in [403, 404, 500, 503] {
        pages.push(gen::http_error(code, &ctx("e.example", code as u64)));
    }
    for vendor in [
        RouterVendor::ZyRouter,
        RouterVendor::TpConnect,
        RouterVendor::Generic,
    ] {
        pages.push(gen::router_login(vendor, &ctx("r.local", 2)));
    }
    for seed in [1, 2] {
        pages.push(gen::camera_login(&ctx("cam.local", seed)));
        pages.push(gen::captive_portal(
            "HotelNet",
            &ctx("portal.example", seed),
        ));
        pages.push(gen::webmail_login(&ctx("mail.example", seed)));
        pages.push(gen::parking_page("parkco", &ctx("parked.example", seed)));
        pages.push(gen::search_page(
            "Google",
            false,
            &ctx("search.example", seed),
        ));
        pages.push(gen::search_page(
            "Google",
            true,
            &ctx("search.example", seed),
        ));
        pages.push(gen::censorship_landing(
            "TR",
            "TIB",
            &ctx("blocked.example", seed),
        ));
        pages.push(gen::blocking_page(
            "OpenShield",
            "malware",
            &ctx("blocked.example", seed),
        ));
        pages.push(gen::phishing_kit_images(
            "paypal",
            &ctx("paypal.example", seed),
        ));
        pages.push(gen::phishing_bank_clone(&ctx("bank.example", seed)));
        pages.push(gen::fake_update_page("Flash", &ctx("update.example", seed)));
    }
    pages.push(String::new());
    let mut interner = TagInterner::new();
    pages
        .iter()
        .map(|html| PageFeatures::extract(html, &mut interner))
        .collect()
}

#[test]
fn page_distance_is_bit_identical_to_the_dp_assembly() {
    let pages = page_corpus();
    let mut weight_sets = vec![FeatureWeights::default()];
    for feature in [
        "body_len",
        "tag_multiset",
        "tag_sequence",
        "title",
        "javascript",
        "resources",
        "links",
    ] {
        weight_sets.push(FeatureWeights::without(feature));
    }
    for w in &weight_sets {
        for a in &pages {
            let row = PreparedPage::new(a, w);
            for b in &pages {
                let want = dp_page_distance(a, b, w).to_bits();
                assert_eq!(page_distance(a, b, w).to_bits(), want);
                assert_eq!(row.distance(b).to_bits(), want);
            }
        }
    }
}

fn apply(ops: &[DiffOp], a: &[u8], b: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    for op in ops {
        match *op {
            DiffOp::Keep { a_idx, .. } => out.push(a[a_idx]),
            DiffOp::Delete { .. } => {}
            DiffOp::Insert { b_idx } => out.push(b[b_idx]),
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The tokenizer never panics and terminates on arbitrary input.
    #[test]
    fn tokenizer_is_total(input in "[\\x20-\\x7e<>/\"'=!-]{0,300}") {
        let _ = tokenize(&input);
    }

    /// Feature extraction never panics on arbitrary input and produces
    /// consistent fingerprints.
    #[test]
    fn features_are_total_and_stable(input in "[\\x20-\\x7e<>/\"'=!-]{0,300}") {
        let mut i1 = TagInterner::new();
        let mut i2 = TagInterner::new();
        let a = PageFeatures::extract(&input, &mut i1);
        let b = PageFeatures::extract(&input, &mut i2);
        prop_assert_eq!(a.fingerprint(), b.fingerprint());
    }

    /// Myers diff produces a script that transforms a into b, with cost
    /// equal to the edit distance under insert/delete (= a+b length
    /// minus twice the LCS; we check ≤ levenshtein-based bound and
    /// correctness of application).
    #[test]
    fn diff_script_is_correct(
        a in proptest::collection::vec(0u8..6, 0..40),
        b in proptest::collection::vec(0u8..6, 0..40),
    ) {
        let ops = diff_ops(&a, &b);
        prop_assert_eq!(apply(&ops, &a, &b), b.clone());
        let cost = ops.iter().filter(|o| !matches!(o, DiffOp::Keep { .. })).count();
        // Insert/delete cost is at least |len(a)−len(b)| and at most
        // len(a)+len(b); also ≥ levenshtein (which allows substitution).
        prop_assert!(cost >= a.len().abs_diff(b.len()));
        prop_assert!(cost <= a.len() + b.len());
        prop_assert!(cost >= levenshtein(&a, &b));
        // And at most twice levenshtein (substitution = delete+insert).
        prop_assert!(cost <= 2 * levenshtein(&a, &b));
    }

    /// Diff of identical sequences is all-keeps.
    #[test]
    fn diff_identity(a in proptest::collection::vec(0u8..6, 0..60)) {
        let ops = diff_ops(&a, &a);
        let all_keeps = ops.iter().all(|o| matches!(o, DiffOp::Keep { .. }));
        prop_assert!(all_keeps);
        prop_assert_eq!(ops.len(), a.len());
    }

    /// Bytes over a tiny alphabet (many matches), the full byte range,
    /// and the high half only (sign-extension traps).
    #[test]
    fn kernel_equals_dp_on_bytes(
        small in (seq(0u8..4), seq(0u8..4)),
        full in (seq(any::<u8>()), seq(any::<u8>())),
        high in (seq(0x80u8..=0xff), seq(0x80u8..=0xff)),
    ) {
        assert_kernel_matches_dp(&small.0, &small.1);
        assert_kernel_matches_dp(&full.0, &full.1);
        assert_kernel_matches_dp(&high.0, &high.1);
    }

    /// Two-byte symbols: a tiny alphabet, the sparse full range, symbols
    /// ≥ 256 only, and a text whose symbols mostly lie beyond anything
    /// in the pattern.
    #[test]
    fn kernel_equals_dp_on_u16(
        small in (seq(0u16..4), seq(0u16..4)),
        full in (seq(any::<u16>()), seq(any::<u16>())),
        wide in (seq(256u16..=u16::MAX), seq(256u16..=u16::MAX)),
        pattern in seq(0u16..300),
        foreign in seq(prop_oneof![0u16..300, 300u16..=u16::MAX]),
    ) {
        assert_kernel_matches_dp(&small.0, &small.1);
        assert_kernel_matches_dp(&full.0, &full.1);
        assert_kernel_matches_dp(&wide.0, &wide.1);
        assert_kernel_matches_dp(&pattern, &foreign);
    }

    /// A pattern prepared once and compared against many texts gives
    /// what one-shot calls give.
    #[test]
    fn prepared_once_equals_one_shot(
        pattern in seq(0u8..6),
        texts in proptest::collection::vec(seq(0u8..6), 1..6),
    ) {
        let prepared = Pattern::new(&pattern);
        for text in &texts {
            prop_assert_eq!(prepared.distance(text), dp_levenshtein(&pattern, text));
            prop_assert_eq!(prepared.distance(text), levenshtein(&pattern, text));
            prop_assert_eq!(
                prepared.normalized(text).to_bits(),
                levenshtein_normalized(&pattern, text).to_bits()
            );
        }
    }

    /// Levenshtein is a metric: identity, symmetry, triangle inequality.
    #[test]
    fn levenshtein_is_a_metric(
        a in proptest::collection::vec(0u8..4, 0..20),
        b in proptest::collection::vec(0u8..4, 0..20),
        c in proptest::collection::vec(0u8..4, 0..20),
    ) {
        prop_assert_eq!(levenshtein(&a, &a), 0);
        prop_assert_eq!(levenshtein(&a, &b), levenshtein(&b, &a));
        prop_assert!(levenshtein(&a, &c) <= levenshtein(&a, &b) + levenshtein(&b, &c));
    }

    /// Normalized distances stay in [0, 1].
    #[test]
    fn normalized_bounds(
        a in proptest::collection::vec(0u8..4, 0..30),
        b in proptest::collection::vec(0u8..4, 0..30),
    ) {
        let d = levenshtein_normalized(&a, &b);
        prop_assert!((0.0..=1.0).contains(&d));
    }

    /// Multiset Jaccard distance is bounded, symmetric, and zero on
    /// identical multisets.
    #[test]
    fn jaccard_properties(
        a in proptest::collection::btree_map(0u16..20, 1u32..5, 0..10),
        b in proptest::collection::btree_map(0u16..20, 1u32..5, 0..10),
    ) {
        let a: BTreeMap<u16, u32> = a;
        let b: BTreeMap<u16, u32> = b;
        let dab = jaccard_multiset(&a, &b);
        let dba = jaccard_multiset(&b, &a);
        prop_assert!((dab - dba).abs() < 1e-12);
        prop_assert!((0.0..=1.0).contains(&dab));
        prop_assert_eq!(jaccard_multiset(&a, &a), 0.0);
    }
}
