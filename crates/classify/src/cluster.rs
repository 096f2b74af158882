//! Agglomerative hierarchical clustering (Sec. 3.6).
//!
//! Coarse-grained: UPGMA (average linkage) over the seven-feature page
//! distance, implemented with the nearest-neighbor-chain algorithm —
//! O(n²) time and memory, exact for reducible linkages like UPGMA.
//!
//! Fine-grained: the same machinery over Jaccard distances between
//! added/removed-tag multisets (page *modifications* relative to ground
//! truth).
//!
//! The page distance matrix is the O(n²) part and is built once per
//! call, row by row: row `i` prepares page `i` (its edit-distance
//! patterns, [`htmlsim::distance::PreparedPage`]) and compares it
//! against pages `i+1..n` only, so each worker hands back the
//! upper-triangle tail of its rows and nothing else. Rows shrink along
//! the range; the parallel map deals them round-robin, which gives every
//! worker the same mix of long and short rows. Several linkages over the
//! same pages ([`page_dendrograms`]) share one matrix.

use htmlsim::diff::TagDelta;
use htmlsim::distance::{jaccard_multiset, FeatureWeights, PreparedPage};
use htmlsim::PageFeatures;
use std::borrow::Borrow;

/// Linkage criterion. The paper uses average linkage (UPGMA); single and
/// complete are provided for the A-ABL2 ablation. All three are
/// *reducible*, so the nearest-neighbor-chain algorithm is exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Linkage {
    /// Minimum pairwise distance.
    Single,
    /// Maximum pairwise distance.
    Complete,
    /// Size-weighted mean distance (UPGMA — the paper's choice).
    Average,
}

/// A merge tree. Leaves are `0..n_leaves`; the `i`-th merge creates
/// internal node `n_leaves + i`.
#[derive(Debug, Clone, PartialEq)]
pub struct Dendrogram {
    /// Number of leaves.
    pub n_leaves: usize,
    /// `(node_a, node_b, linkage_distance)` in merge order.
    pub merges: Vec<(usize, usize, f64)>,
}

/// A flat clustering produced by cutting a dendrogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlatClusters {
    /// `assignment[leaf] = cluster id` (dense, 0-based).
    pub assignment: Vec<usize>,
    /// Members per cluster.
    pub clusters: Vec<Vec<usize>>,
}

impl FlatClusters {
    /// Number of clusters.
    pub fn len(&self) -> usize {
        self.clusters.len()
    }

    /// Whether there are no clusters.
    pub fn is_empty(&self) -> bool {
        self.clusters.is_empty()
    }

    /// The largest cluster's members.
    pub fn largest(&self) -> Option<&Vec<usize>> {
        self.clusters.iter().max_by_key(|c| c.len())
    }
}

/// Exact UPGMA via the nearest-neighbor-chain algorithm over a
/// precomputed condensed distance matrix.
///
/// `dist` must be a symmetric `n × n` row-major matrix (the diagonal is
/// ignored). Consumes the matrix as scratch space.
pub fn agglomerate(n: usize, dist: Vec<f32>, size_hint: Option<Vec<u32>>) -> Dendrogram {
    agglomerate_with(n, dist, size_hint, Linkage::Average)
}

/// [`agglomerate`] with an explicit linkage criterion.
pub fn agglomerate_with(
    n: usize,
    mut dist: Vec<f32>,
    mut size_hint: Option<Vec<u32>>,
    linkage: Linkage,
) -> Dendrogram {
    assert_eq!(dist.len(), n * n, "distance matrix shape");
    if n == 0 {
        return Dendrogram {
            n_leaves: 0,
            merges: Vec::new(),
        };
    }
    let mut active: Vec<bool> = vec![true; n];
    let mut sizes: Vec<u32> = size_hint.take().unwrap_or_else(|| vec![1; n]);
    let mut node_id: Vec<usize> = (0..n).collect();
    let mut merges: Vec<(usize, usize, f64)> = Vec::with_capacity(n.saturating_sub(1));
    let mut chain: Vec<usize> = Vec::with_capacity(n);
    let mut remaining = n;

    let d = |dist: &Vec<f32>, a: usize, b: usize| dist[a * n + b];

    while remaining > 1 {
        if chain.is_empty() {
            let first = active.iter().position(|&a| a).expect("active cluster");
            chain.push(first);
        }
        loop {
            let a = *chain.last().unwrap();
            // Nearest active neighbor of `a` (preferring the chain
            // predecessor on ties, which guarantees termination).
            let prev = if chain.len() >= 2 {
                Some(chain[chain.len() - 2])
            } else {
                None
            };
            let mut best = usize::MAX;
            let mut best_d = f32::INFINITY;
            for (x, &is_active) in active.iter().enumerate() {
                if x == a || !is_active {
                    continue;
                }
                let dx = d(&dist, a, x);
                if dx < best_d || (dx == best_d && Some(x) == prev) {
                    best_d = dx;
                    best = x;
                }
            }
            debug_assert_ne!(best, usize::MAX);
            if Some(best) == prev {
                // Mutual nearest neighbors: merge a and best.
                let b = best;
                chain.pop();
                chain.pop();
                let (sa, sb) = (sizes[a] as f64, sizes[b] as f64);
                // Record the merge under stable node ids.
                let new_id = 2 * n - remaining; // n_leaves + merges.len()
                merges.push((node_id[a], node_id[b], best_d as f64));
                // Lance-Williams update into slot `a`.
                for x in 0..n {
                    if x == a || x == b || !active[x] {
                        continue;
                    }
                    let dax = d(&dist, a, x) as f64;
                    let dbx = d(&dist, b, x) as f64;
                    let nd = match linkage {
                        Linkage::Average => ((sa * dax + sb * dbx) / (sa + sb)) as f32,
                        Linkage::Single => dax.min(dbx) as f32,
                        Linkage::Complete => dax.max(dbx) as f32,
                    };
                    dist[a * n + x] = nd;
                    dist[x * n + a] = nd;
                }
                active[b] = false;
                sizes[a] += sizes[b];
                node_id[a] = new_id;
                remaining -= 1;
                break;
            }
            chain.push(best);
        }
    }
    Dendrogram {
        n_leaves: n,
        merges,
    }
}

impl Dendrogram {
    /// Cut at `threshold`: leaves joined by merges with linkage distance
    /// ≤ threshold end up in the same flat cluster.
    pub fn cut(&self, threshold: f64) -> FlatClusters {
        let n = self.n_leaves;
        let total = n + self.merges.len();
        let mut parent: Vec<usize> = (0..total).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        for (i, &(a, b, dist)) in self.merges.iter().enumerate() {
            let node = n + i;
            if dist <= threshold {
                let ra = find(&mut parent, a);
                let rb = find(&mut parent, b);
                parent[ra] = node;
                parent[rb] = node;
            }
        }
        let mut cluster_of_root: std::collections::HashMap<usize, usize> =
            std::collections::HashMap::new();
        let mut assignment = vec![0usize; n];
        let mut clusters: Vec<Vec<usize>> = Vec::new();
        for (leaf, slot) in assignment.iter_mut().enumerate() {
            let root = find(&mut parent, leaf);
            let id = *cluster_of_root.entry(root).or_insert_with(|| {
                clusters.push(Vec::new());
                clusters.len() - 1
            });
            *slot = id;
            clusters[id].push(leaf);
        }
        FlatClusters {
            assignment,
            clusters,
        }
    }
}

/// Build the symmetric `n × n` page distance matrix in parallel.
fn page_matrix<P: Borrow<PageFeatures> + Sync>(items: &[P], weights: &FeatureWeights) -> Vec<f32> {
    let n = items.len();
    // Row `i` holds the distances to items `i+1..n`.
    let tails: Vec<Vec<f32>> = crate::par_map(n, |i| {
        let row = PreparedPage::new(items[i].borrow(), weights);
        items[i + 1..]
            .iter()
            .map(|other| row.distance(other.borrow()) as f32)
            .collect()
    });
    let mut dist = vec![0f32; n * n];
    for (i, tail) in tails.into_iter().enumerate() {
        for (j, v) in (i + 1..n).zip(tail) {
            dist[i * n + j] = v;
            dist[j * n + i] = v;
        }
    }
    dist
}

/// The merge trees of `items` under `weights`, one per entry of
/// `linkages`, all agglomerated from one distance matrix. Cut a tree at
/// a threshold ([`Dendrogram::cut`]) to get flat clusters; A-ABL2 cuts
/// each of three linkages' trees three times.
pub fn page_dendrograms<P: Borrow<PageFeatures> + Sync>(
    items: &[P],
    weights: &FeatureWeights,
    linkages: &[Linkage],
) -> Vec<Dendrogram> {
    let Some((&last, rest)) = linkages.split_last() else {
        return Vec::new();
    };
    let n = items.len();
    let dist = page_matrix(items, weights);
    // Agglomeration consumes its matrix: all but the last work on a copy.
    let mut trees: Vec<Dendrogram> = rest
        .iter()
        .map(|&linkage| agglomerate_with(n, dist.clone(), None, linkage))
        .collect();
    trees.push(agglomerate_with(n, dist, None, last));
    trees
}

/// Coarse-grained clustering of page feature vectors (owned or
/// borrowed); cut at `threshold`. Uses average linkage, as the paper
/// does.
pub fn cluster_pages<P: Borrow<PageFeatures> + Sync>(
    items: &[P],
    weights: &FeatureWeights,
    threshold: f64,
) -> FlatClusters {
    cluster_pages_with(items, weights, threshold, Linkage::Average)
}

/// [`cluster_pages`] with an explicit linkage.
pub fn cluster_pages_with<P: Borrow<PageFeatures> + Sync>(
    items: &[P],
    weights: &FeatureWeights,
    threshold: f64,
    linkage: Linkage,
) -> FlatClusters {
    page_dendrograms(items, weights, &[linkage])[0].cut(threshold)
}

/// Fine-grained clustering of tag deltas by Jaccard distance over their
/// add/remove multisets; cut at `threshold`.
pub fn fine_cluster(deltas: &[TagDelta], threshold: f64) -> FlatClusters {
    let n = deltas.len();
    let sets: Vec<_> = deltas.iter().map(|d| d.as_multiset()).collect();
    let mut dist = vec![0f32; n * n];
    for i in 0..n {
        for j in (i + 1)..n {
            let v = jaccard_multiset(&sets[i], &sets[j]) as f32;
            dist[i * n + j] = v;
            dist[j * n + i] = v;
        }
    }
    agglomerate(n, dist, None).cut(threshold)
}

#[cfg(test)]
mod tests {
    use super::*;
    use htmlsim::gen::{self, PageCtx};
    use htmlsim::TagInterner;

    fn matrix_from(points: &[(f64, f64)]) -> Vec<f32> {
        let n = points.len();
        let mut m = vec![0f32; n * n];
        for i in 0..n {
            for j in 0..n {
                let dx = points[i].0 - points[j].0;
                let dy = points[i].1 - points[j].1;
                m[i * n + j] = ((dx * dx + dy * dy).sqrt()) as f32;
            }
        }
        m
    }

    #[test]
    fn two_obvious_blobs() {
        let pts = [
            (0.0, 0.0),
            (0.1, 0.0),
            (0.0, 0.1),
            (10.0, 10.0),
            (10.1, 10.0),
            (10.0, 10.1),
        ];
        let dendro = agglomerate(6, matrix_from(&pts), None);
        assert_eq!(dendro.merges.len(), 5);
        let flat = dendro.cut(1.0);
        assert_eq!(flat.len(), 2);
        assert_eq!(flat.assignment[0], flat.assignment[1]);
        assert_eq!(flat.assignment[3], flat.assignment[4]);
        assert_ne!(flat.assignment[0], flat.assignment[3]);
    }

    #[test]
    fn cut_extremes() {
        let pts = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)];
        let dendro = agglomerate(4, matrix_from(&pts), None);
        assert_eq!(dendro.cut(0.0).len(), 4, "zero cut = singletons");
        assert_eq!(dendro.cut(100.0).len(), 1, "infinite cut = one cluster");
    }

    #[test]
    fn average_linkage_merge_heights_monotone_enough() {
        // UPGMA on a line: merge distances are nondecreasing for
        // well-separated data.
        let pts: Vec<(f64, f64)> = (0..8).map(|i| (i as f64 * (i as f64), 0.0)).collect();
        let dendro = agglomerate(8, matrix_from(&pts), None);
        for w in dendro.merges.windows(2) {
            assert!(w[1].2 >= w[0].2 - 1e-9, "heights {:?}", dendro.merges);
        }
    }

    #[test]
    fn singleton_and_empty() {
        let d0 = agglomerate(0, vec![], None);
        assert_eq!(d0.merges.len(), 0);
        assert_eq!(d0.cut(1.0).len(), 0);
        let d1 = agglomerate(1, vec![0.0], None);
        assert_eq!(d1.merges.len(), 0);
        let flat = d1.cut(1.0);
        assert_eq!(flat.len(), 1);
    }

    #[test]
    fn page_families_separate() {
        let mut interner = TagInterner::new();
        let mut items = Vec::new();
        // 5 router logins, 5 error pages, 5 parking pages.
        for s in 0..5u64 {
            items.push(PageFeatures::extract(
                &gen::router_login(gen::RouterVendor::ZyRouter, &PageCtx::new("r.local", s)),
                &mut interner,
            ));
        }
        for s in 0..5u64 {
            items.push(PageFeatures::extract(
                &gen::http_error(404, &PageCtx::new("e.example", s * 3)),
                &mut interner,
            ));
        }
        for s in 0..5u64 {
            items.push(PageFeatures::extract(
                &gen::parking_page("parkco", &PageCtx::new(&format!("d{s}.example"), s)),
                &mut interner,
            ));
        }
        let flat = cluster_pages(&items, &FeatureWeights::default(), 0.35);
        // Router pages must share a cluster, and never share with parking.
        assert_eq!(flat.assignment[0], flat.assignment[4]);
        assert_eq!(flat.assignment[10], flat.assignment[14]);
        assert_ne!(flat.assignment[0], flat.assignment[10]);
        // Each family in its own cluster(s): 3–6 clusters total is sane
        // (error pages have several idioms).
        assert!((3..=7).contains(&flat.len()), "clusters: {}", flat.len());
    }

    #[test]
    fn page_matrix_equals_brute_force_and_is_symmetric() {
        use htmlsim::distance::page_distance;
        let mut interner = TagInterner::new();
        let mut html: Vec<String> = Vec::new();
        for s in 0..4u64 {
            let ctx = PageCtx::new("site.example", s);
            html.push(gen::legit_site(gen::SiteCategory::Banking, &ctx));
            html.push(gen::legit_site(gen::SiteCategory::Ads, &ctx));
            html.push(gen::http_error(404, &ctx));
            html.push(gen::router_login(gen::RouterVendor::TpConnect, &ctx));
            html.push(gen::phishing_kit_images("paypal", &ctx));
            html.push(gen::search_page("Google", true, &ctx));
            html.push(gen::fake_update_page("Flash", &ctx));
        }
        html.push(String::new());
        let items: Vec<PageFeatures> = html
            .iter()
            .map(|h| PageFeatures::extract(h, &mut interner))
            .collect();
        let n = items.len();
        for weights in [FeatureWeights::default(), FeatureWeights::without("title")] {
            let dist = page_matrix(&items, &weights);
            assert_eq!(dist.len(), n * n);
            for i in 0..n {
                for j in 0..n {
                    let want = if i == j {
                        0.0
                    } else {
                        page_distance(&items[i], &items[j], &weights) as f32
                    };
                    assert_eq!(dist[i * n + j].to_bits(), want.to_bits(), "cell ({i}, {j})");
                    assert_eq!(dist[i * n + j].to_bits(), dist[j * n + i].to_bits());
                }
            }
            // Borrowed items build the same matrix.
            let refs: Vec<&PageFeatures> = items.iter().collect();
            assert_eq!(page_matrix(&refs, &weights), dist);
        }
        assert!(page_matrix::<PageFeatures>(&[], &FeatureWeights::default()).is_empty());
    }

    #[test]
    fn dendrograms_share_one_matrix_and_match_single_calls() {
        let mut interner = TagInterner::new();
        let items: Vec<PageFeatures> = (0..12u64)
            .map(|s| {
                let ctx = PageCtx::new("x.example", s);
                let html = if s % 2 == 0 {
                    gen::http_error(404, &ctx)
                } else {
                    gen::parking_page("parkco", &ctx)
                };
                PageFeatures::extract(&html, &mut interner)
            })
            .collect();
        let w = FeatureWeights::default();
        let linkages = [Linkage::Average, Linkage::Single, Linkage::Complete];
        let trees = page_dendrograms(&items, &w, &linkages);
        assert_eq!(trees.len(), 3);
        for (tree, &linkage) in trees.iter().zip(&linkages) {
            assert_eq!(tree, &page_dendrograms(&items, &w, &[linkage])[0]);
            assert_eq!(
                tree.cut(0.32),
                cluster_pages_with(&items, &w, 0.32, linkage)
            );
        }
        assert!(page_dendrograms(&items, &w, &[]).is_empty());
    }

    #[test]
    fn fine_clustering_groups_same_modification() {
        use htmlsim::diff::tag_delta;
        let gt = [0u16, 1, 2, 8, 8, 8, 11];
        // Two pages with a <script> (id 6) injected, one with an <img>
        // (id 12) injected.
        let inj_a = [0u16, 1, 2, 8, 8, 8, 6, 11];
        let inj_b = [0u16, 1, 2, 8, 8, 6, 8, 11];
        let img = [0u16, 1, 2, 8, 8, 8, 12, 11];
        let deltas = vec![
            tag_delta(&gt, &inj_a),
            tag_delta(&gt, &inj_b),
            tag_delta(&gt, &img),
        ];
        let flat = fine_cluster(&deltas, 0.3);
        assert_eq!(flat.assignment[0], flat.assignment[1]);
        assert_ne!(flat.assignment[0], flat.assignment[2]);
    }
}
