//! Probe rate limiting.
//!
//! The paper stresses that it "adjusted the rate of outgoing DNS
//! requests to achieve a low packet loss" and reports zero abuse
//! complaints over 13 months (Sec. 5). This token bucket is the pacing
//! primitive: campaigns consume one token per probe; when the bucket is
//! dry the caller learns how long to wait. It is pure state — no clocks
//! — so it works under both simulated and wall-clock time.

/// A token bucket over millisecond timestamps.
#[derive(Debug, Clone, PartialEq)]
pub struct TokenBucket {
    /// Tokens added per millisecond.
    rate_per_ms: f64,
    /// Maximum burst.
    capacity: f64,
    tokens: f64,
    last_ms: u64,
}

impl TokenBucket {
    /// A bucket allowing `rate` probes per second with bursts of up to
    /// `burst` probes. Starts full.
    pub fn new(rate_per_s: u32, burst: u32) -> Self {
        assert!(rate_per_s > 0, "rate must be positive");
        TokenBucket {
            rate_per_ms: rate_per_s as f64 / 1_000.0,
            capacity: burst.max(1) as f64,
            tokens: burst.max(1) as f64,
            last_ms: 0,
        }
    }

    fn refill(&mut self, now_ms: u64) {
        if now_ms > self.last_ms {
            let elapsed = (now_ms - self.last_ms) as f64;
            self.tokens = (self.tokens + elapsed * self.rate_per_ms).min(self.capacity);
            self.last_ms = now_ms;
        }
    }

    /// Try to consume one token at `now_ms`. On failure returns the
    /// number of milliseconds to wait before the next token is ready.
    pub fn try_acquire(&mut self, now_ms: u64) -> Result<(), u64> {
        self.refill(now_ms);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            Ok(())
        } else {
            let deficit = 1.0 - self.tokens;
            Err((deficit / self.rate_per_ms).ceil() as u64)
        }
    }

    /// Tokens currently available.
    pub fn available(&self) -> f64 {
        self.tokens
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_then_paced() {
        let mut b = TokenBucket::new(1_000, 10); // 1 probe/ms, burst 10
        for _ in 0..10 {
            assert!(b.try_acquire(0).is_ok());
        }
        // Bucket dry: must wait ~1ms.
        let wait = b.try_acquire(0).unwrap_err();
        assert_eq!(wait, 1);
        // After the wait, one token is available.
        assert!(b.try_acquire(1).is_ok());
        assert!(b.try_acquire(1).is_err());
    }

    #[test]
    fn refill_caps_at_capacity() {
        let mut b = TokenBucket::new(100, 5);
        for _ in 0..5 {
            assert!(b.try_acquire(0).is_ok());
        }
        // A long idle period cannot overfill the bucket.
        b.refill(1_000_000);
        assert!(b.available() <= 5.0 + 1e-9);
    }

    #[test]
    fn sustained_rate_is_honored() {
        let mut b = TokenBucket::new(500, 1); // 0.5 tokens/ms
        let mut sent = 0u32;
        let mut now = 0u64;
        while now < 1_000 {
            match b.try_acquire(now) {
                Ok(()) => sent += 1,
                Err(wait) => now += wait,
            }
        }
        // 500/s over 1 s ⇒ ≈500 sends (±burst).
        assert!((495..=505).contains(&sent), "sent {sent}");
    }

    #[test]
    fn time_never_flows_backwards() {
        let mut b = TokenBucket::new(1_000, 2);
        assert!(b.try_acquire(100).is_ok());
        // A stale timestamp must not mint tokens.
        assert!(b.try_acquire(50).is_ok()); // second burst token
        assert!(b.try_acquire(50).is_err());
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_rejected() {
        let _ = TokenBucket::new(0, 1);
    }

    #[test]
    fn clock_backwards_keeps_wait_estimates_sane() {
        let mut b = TokenBucket::new(1_000, 1); // 1 token/ms, burst 1
        assert!(b.try_acquire(1_000).is_ok());
        // Clock jumps backwards while the bucket is dry: `last_ms`
        // must not move, the deficit must not grow, and the advertised
        // wait stays the one-token refill time.
        assert_eq!(b.try_acquire(400), Err(1));
        assert_eq!(b.try_acquire(0), Err(1));
        assert!(b.available() >= 0.0, "deficit never goes negative");
        // Once the clock passes the old watermark, refill resumes from
        // `last_ms`, not from the stale timestamps.
        assert!(b.try_acquire(1_001).is_ok());
    }

    #[test]
    fn saturation_at_capacity_is_exact() {
        let mut b = TokenBucket::new(250, 8);
        // Idle long enough to overfill a naive accumulator many times
        // over (u32 rates × large gaps stress f64 precision).
        b.refill(u64::from(u32::MAX));
        assert_eq!(b.available(), 8.0, "saturates exactly at capacity");
        // Exactly `capacity` sends clear the bucket; the next is a wait.
        let now = u64::from(u32::MAX);
        for _ in 0..8 {
            assert!(b.try_acquire(now).is_ok());
        }
        assert_eq!(b.try_acquire(now), Err(4), "250/s ⇒ 4ms per token");
    }

    #[test]
    fn fractional_tokens_accumulate_over_long_sim_gaps() {
        // 3 probes/s ⇒ 0.003 tokens/ms: every refill step lands on a
        // fraction. Walk a simulated week in uneven millisecond gaps
        // (each minting well under the burst capacity, so nothing is
        // clamped away) and check that total throughput matches the
        // configured rate to within one token — i.e. the fractional
        // remainders carried between refills are never dropped.
        let mut b = TokenBucket::new(3, 5);
        let mut sent = 0u64;
        let mut now = 0u64;
        while b.try_acquire(now).is_ok() {
            sent += 1; // initial burst
        }
        let week_ms = 7 * 24 * 3_600 * 1_000u64;
        for gap in [1u64, 7, 333, 211, 97].iter().cycle() {
            if now + gap > week_ms {
                break;
            }
            now += gap;
            while b.try_acquire(now).is_ok() {
                sent += 1;
            }
        }
        // Everything minted over `now` milliseconds plus the burst,
        // minus at most one fractional token left in the bucket.
        let expected = 5 + (now as f64 * 3.0 / 1_000.0) as u64;
        assert!(
            sent.abs_diff(expected) <= 1,
            "sent {sent}, expected ≈{expected}"
        );
    }
}
