//! Measurement campaigns.

pub mod acquire;
pub mod banner;
pub mod chaos;
pub mod churn;
pub mod domains;
pub mod enumerate;
pub mod snoop;

/// Responses the wire walker rejected are counted, not skipped
/// silently — in a counter that exists only once there is one to
/// count, so a clean run's metrics stay as they were.
fn count_malformed(campaign: &'static str, n: u64) {
    if n > 0 {
        telemetry::global()
            .counter_with("scanner.responses_malformed", &[("campaign", campaign)])
            .add(n);
    }
}
