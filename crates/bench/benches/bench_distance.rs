//! The seven-feature page distance — the inner loop of Table 5's
//! clustering — one-shot, as a prepared matrix row and at the
//! edit-distance kernel's 4,096-byte cap, plus the Myers diff of the
//! fine-grained stage.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use htmlsim::distance::{levenshtein, page_distance, FeatureWeights, PreparedPage};
use htmlsim::gen::{self, PageCtx, SiteCategory};
use htmlsim::{diff, PageFeatures, TagInterner};

fn bench_distance(c: &mut Criterion) {
    let mut interner = TagInterner::new();
    let a = PageFeatures::extract(
        &gen::legit_site(SiteCategory::Banking, &PageCtx::new("bank.example", 1)),
        &mut interner,
    );
    let b = PageFeatures::extract(
        &gen::legit_site(SiteCategory::Alexa, &PageCtx::new("news.example", 2)),
        &mut interner,
    );
    let weights = FeatureWeights::default();

    c.bench_function("page_distance_cross_family", |bch| {
        bch.iter(|| page_distance(black_box(&a), black_box(&b), &weights))
    });

    // Same family, different seed: similar lengths, mostly matching
    // symbols.
    let a2 = PageFeatures::extract(
        &gen::legit_site(SiteCategory::Banking, &PageCtx::new("bank.example", 9)),
        &mut interner,
    );
    c.bench_function("page_distance_same_family", |bch| {
        bch.iter(|| page_distance(black_box(&a), black_box(&a2), &weights))
    });

    // One matrix row: the patterns of `a` built once, then 50 pages of
    // mixed families compared against them.
    let others: Vec<PageFeatures> = (0..50u64)
        .map(|s| {
            let html = match s % 3 {
                0 => gen::legit_site(SiteCategory::Banking, &PageCtx::new("bank.example", s)),
                1 => gen::http_error(404, &PageCtx::new("e.example", s)),
                _ => gen::parking_page("parkco", &PageCtx::new("parked.example", s)),
            };
            PageFeatures::extract(&html, &mut interner)
        })
        .collect();
    c.bench_function("prepared_row_x50", |bch| {
        bch.iter(|| {
            let row = PreparedPage::new(black_box(&a), &weights);
            others.iter().map(|o| row.distance(o)).sum::<f64>()
        })
    });

    // The blocked kernel at the inline-JavaScript cap: 64 words × 4,096
    // text bytes.
    let js: Vec<u8> = (0..htmlsim::page::JS_FEATURE_CAP)
        .map(|i| b"var x=f(a,b);"[i % 13])
        .collect();
    let mut js2 = js.clone();
    js2.rotate_left(7);
    c.bench_function("levenshtein_4096_bytes", |bch| {
        bch.iter(|| levenshtein(black_box(&js), black_box(&js2)))
    });

    let page = gen::legit_site(SiteCategory::Alexa, &PageCtx::new("site.example", 3));
    c.bench_function("feature_extraction", |bch| {
        let mut i = TagInterner::new();
        bch.iter(|| PageFeatures::extract(black_box(&page), &mut i))
    });

    let gt = a.tag_sequence.clone();
    let mut unk = gt.clone();
    unk.insert(gt.len() / 2, 6);
    c.bench_function("myers_tag_delta", |bch| {
        bch.iter(|| diff::tag_delta(black_box(&gt), black_box(&unk)))
    });
}

criterion_group!(benches, bench_distance);
criterion_main!(benches);
