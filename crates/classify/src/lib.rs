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
