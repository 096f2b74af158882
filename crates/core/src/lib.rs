//! # goingwild — reproduction of *Going Wild: Large-Scale Classification
//! # of Open DNS Resolvers* (IMC 2015)
//!
//! This crate is the public façade: it glues the substrates together
//! and exposes one runner per paper artifact (every table and figure),
//! behind a collect-once / derive-many split: [`collect_bundle`] runs
//! every required campaign at most once on one schedule (two lanes, a
//! world each, when the domain scan has company), and the
//! [`experiments::REGISTRY`] derives each artifact from the resulting
//! immutable snapshot stores (in parallel via [`experiments::derive_all`]).
//!
//! ```no_run
//! use goingwild::{collect_bundle, experiments, BundleOptions, WorldConfig};
//!
//! // Build a scaled Internet, collect the weekly campaign once, and
//! // regenerate Figure 1 from the committed snapshots.
//! let opts = BundleOptions::new(WorldConfig::default());
//! let exp = experiments::experiment("fig1").unwrap();
//! let bundle = collect_bundle(&opts, exp.requires, None).unwrap();
//! let out = (exp.derive)(&bundle, &experiments::DeriveOptions::default()).unwrap();
//! println!("{}", out.text);
//! ```
//!
//! Architecture (bottom-up):
//!
//! | crate | role |
//! |---|---|
//! | `dnswire` | DNS wire format (RFC 1035 subset, CHAOS, 0x20) |
//! | `htmlsim` | HTML tokenizing, page features, distances, diff, generators |
//! | `geodb` | GeoIP / ASN / RIR / rDNS databases |
//! | `netsim` | deterministic event simulator: UDP, TCP, loss, injectors, churn |
//! | `resolversim` | resolver/web/mail host behaviours + loopback UDP server |
//! | `worldgen` | population synthesis calibrated to the paper |
//! | `scanner` | scanning campaigns over netsim or real UDP sockets |
//! | `scanstore` | persistent delta-encoded snapshot store, checkpoint/resume |
//! | `classify` | prefilter, clustering, labeling, fingerprinting, case studies |
//! | `goingwild` | this crate: pipeline orchestration, experiments, reports |

pub mod collect;
pub mod experiments;
pub mod pipeline;
pub mod report;
pub mod truth;

pub use collect::{
    analysis_from_source, collect_bundle, collect_bundle_on, fig1_from_source, fig2_from_source,
    ground_truth_from_source, table3_from_source, table4_from_source, util_from_source,
    verification_from_source, BundleData, BundleOptions, CampaignData, CampaignKind, EnrichSink,
    GroundTruth, StoreAt,
};
pub use experiments::{DeriveOptions, Experiment, ExperimentOutput};
pub use pipeline::{run_analysis, run_analysis_with_fleet, AnalysisOptions, AnalysisReport};
pub use worldgen::{build_world, World, WorldConfig};
