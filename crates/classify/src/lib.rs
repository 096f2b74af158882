//! # classify — the *Going Wild* analysis pipeline
//!
//! The paper's primary contribution is not the scanning but what happens
//! to the scan data afterwards (Figure 3, steps 3–6):
//!
//! * [`prefilter`] — DNS-based prefiltering of `(domain ∘ ip ∘ resolver)`
//!   tuples: AS matching against trusted resolutions, confirmed rDNS,
//!   and HTTPS-certificate checks for CDN space (Sec. 3.4).
//! * [`cluster`] — agglomerative hierarchical clustering with average
//!   linkage (UPGMA) over the seven-feature page distance, implemented
//!   with the nearest-neighbor-chain algorithm; plus the fine-grained
//!   diff-based clustering of page *modifications* (Sec. 3.6).
//! * [`labeler`] — the rule encoding of the paper's manual cluster
//!   labeling: Blocking / Censorship / HTTP Error / Login / Misc /
//!   Parking / Search (Table 5).
//! * [`fingerprint`] — banner-token device fingerprinting (Table 4) and
//!   CHAOS version-string classification (Table 3).
//! * [`snoopclass`] — cache-snooping series classification into the
//!   Sec. 2.6 utilization classes, including the ≤5-second re-add
//!   inference from TTL arithmetic.
//! * [`censorship`] — landing-page aggregation, per-country compliance,
//!   and GFW double-response detection (Sec. 4.2).
//! * [`cases`] — the Sec. 4.3 case-study detectors: ad manipulation,
//!   transparent proxies, phishing, mail interception, malware droppers.

pub mod cases;
pub mod censorship;
pub mod cluster;
pub mod fingerprint;
pub mod labeler;
pub mod prefilter;
pub mod snoopclass;

pub use cluster::{
    cluster_pages, cluster_pages_with, fine_cluster, page_dendrograms, Dendrogram, FlatClusters,
    Linkage,
};
pub use fingerprint::{classify_version, fingerprint_device, SoftwareClass};
pub use labeler::{label_cluster, Label};
pub use prefilter::{CertRule, FilterVerdict, PreFilter, TrustedView};
pub use snoopclass::{classify_snoop, UtilizationClass};

/// `(0..n).map(f)` on `available_parallelism().min(n)` scoped threads
/// (inline on one), results in input order. Items are dealt round-robin,
/// worker `t` of `T` taking `t, t+T, …`, so a load that grows along the
/// range (a triangular matrix's rows) spreads evenly; item `i` is result
/// `i / T` of worker `i % T`, which is how the order is restored.
pub fn par_map<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(n);
    if threads <= 1 {
        return (0..n).map(f).collect();
    }
    let f = &f;
    let mut results: Vec<std::vec::IntoIter<R>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| scope.spawn(move || (t..n).step_by(threads).map(f).collect::<Vec<R>>()))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("par_map worker panicked").into_iter())
            .collect()
    });
    (0..n)
        .map(|i| results[i % threads].next().expect("one result per item"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::par_map;

    #[test]
    fn parallel_map_preserves_order() {
        let out: Vec<usize> = par_map(1000, |i| i * 2);
        assert_eq!(out.len(), 1000);
        assert!(out.iter().enumerate().all(|(i, &v)| v == i * 2));
    }

    /// Order survives the round-robin deal for every size around the
    /// worker count, with a per-item cost that grows steeply along the
    /// range (so workers finish out of step).
    #[test]
    fn order_preserved_under_uneven_cost() {
        let t = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        for n in [0, 1, t.saturating_sub(1), t, t + 1, 1000] {
            let out: Vec<(usize, u64)> = par_map(n, |i| {
                let spins = if i % 7 == 0 { 20_000 } else { i as u64 };
                let busy = (0..spins).fold(0u64, |acc, k| acc.wrapping_mul(31).wrapping_add(k));
                (i, std::hint::black_box(busy))
            });
            assert_eq!(out.len(), n);
            assert!(out.iter().enumerate().all(|(i, &(v, _))| v == i), "n = {n}");
        }
    }

    #[test]
    fn empty_range() {
        let out: Vec<usize> = par_map(0, |i| i);
        assert!(out.is_empty());
    }
}
