//! A shared retry/backoff policy for every protocol layer.
//!
//! Before this module each layer hand-rolled its own retry behavior — linear
//! backoff in the namenode, fixed per-attempt timeouts in the FS client,
//! fixed suspicion TTLs in the NDB client — which made recovery timing hard
//! to reason about and impossible to tune coherently. [`RetryPolicy`] gives
//! them one vocabulary: doubling backoff with a cap and deterministic
//! jitter. Retry budgets stay with the callers, which count attempts
//! themselves.
//!
//! # Guarantees
//!
//! For a fixed `salt`, the delay sequence is:
//!
//! - **deterministic**: `delay(n, salt)` depends only on the policy, `n` and
//!   `salt` — the same seed reproduces the same schedule;
//! - **monotonically non-decreasing** in `n` (the jitter is at most 1, so a
//!   stretched delay never passes the next doubled one);
//! - **bounded** by `cap`.
//!
//! Jitter is decorrelated across callers by the `salt` argument (pass a
//! request id, node id, or any stable identifier); two clients retrying the
//! same failure do not stampede in lockstep.

use crate::time::SimDuration;

/// splitmix64: tiny, high-quality mixing for deterministic jitter.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A doubling-backoff retry policy with cap and deterministic jitter.
/// Copyable and cheap; usable in `const` items.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// First backoff delay.
    pub base: SimDuration,
    /// Upper bound on any delay.
    pub cap: SimDuration,
    /// Jitter fraction in `[0, 1]`: each delay is stretched by up to
    /// `jitter * delay`, deterministically from the salt.
    pub jitter: f64,
}

impl RetryPolicy {
    /// Backoff from `base` doubling up to `cap`, with 10% jitter.
    ///
    /// # Panics
    ///
    /// Panics if `base > cap` or `base` is zero.
    pub const fn new(base: SimDuration, cap: SimDuration) -> Self {
        assert!(base.as_nanos() > 0, "base delay must be positive");
        assert!(base.as_nanos() <= cap.as_nanos(), "base delay must not exceed the cap");
        RetryPolicy { base, cap, jitter: 0.1 }
    }

    /// Sets the jitter fraction.
    ///
    /// # Panics
    ///
    /// Panics if `jitter` is outside `[0, 1]` (above 1 a stretched delay
    /// could pass the next doubled one and break monotonicity).
    pub const fn with_jitter(mut self, jitter: f64) -> Self {
        assert!(jitter >= 0.0 && jitter <= 1.0, "jitter must be in [0, 1]");
        self.jitter = jitter;
        self
    }

    /// Un-jittered delay for the `attempt`-th retry (0-based): doubling
    /// clamped to `cap`.
    fn raw(&self, attempt: u32) -> SimDuration {
        let mut d = self.base;
        for _ in 0..attempt {
            if d >= self.cap {
                return self.cap;
            }
            d = SimDuration::from_nanos(d.as_nanos().saturating_mul(2));
        }
        d.min(self.cap)
    }

    /// The backoff to wait before retry number `attempt` (0-based: pass 0
    /// after the first failure).
    ///
    /// `salt` decorrelates jitter across callers; the result is a pure
    /// function of `(policy, attempt, salt)`.
    pub fn delay(&self, attempt: u32, salt: u64) -> SimDuration {
        let raw = self.raw(attempt);
        let jittered = if self.jitter > 0.0 {
            let bits = splitmix64(salt ^ (u64::from(attempt) << 32 | 0x5EED));
            let frac = (bits >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
            raw + raw.mul_f64(self.jitter * frac)
        } else {
            raw
        };
        jittered.min(self.cap)
    }

    /// Server-hint variant: when the peer answered with an explicit
    /// retry-after hint (it knows its own backlog better than our
    /// exponential curve does), honor the hint instead of the geometric
    /// schedule. The hint is stretched by up to `jitter * hint`,
    /// deterministically from `(attempt, salt)`, so clients shed in the
    /// same instant spread back out instead of stampeding in lockstep.
    ///
    /// A zero hint falls back to the ordinary [`RetryPolicy::delay`]
    /// schedule. The policy `cap` intentionally does **not** clamp the hint
    /// — the server's word wins over the client's local curve.
    pub fn delay_after_hint(&self, hint: SimDuration, attempt: u32, salt: u64) -> SimDuration {
        if hint == SimDuration::ZERO {
            return self.delay(attempt, salt);
        }
        if self.jitter > 0.0 {
            let bits = splitmix64(salt ^ (u64::from(attempt) << 32 | 0xA3C5));
            let frac = (bits >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
            hint + hint.mul_f64(self.jitter * frac)
        } else {
            hint
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> SimDuration {
        SimDuration::from_millis(n)
    }

    #[test]
    fn grows_geometrically_to_the_cap() {
        let p = RetryPolicy::new(ms(4), ms(32)).with_jitter(0.0);
        let d: Vec<u64> = (0..6).map(|i| p.delay(i, 0).as_nanos() / 1_000_000).collect();
        assert_eq!(d, vec![4, 8, 16, 32, 32, 32]);
    }

    #[test]
    fn deterministic_and_salted() {
        let p = RetryPolicy::new(ms(10), ms(1000));
        assert_eq!(p.delay(3, 42), p.delay(3, 42));
        // Different salts almost surely differ (fixed values checked here).
        assert_ne!(p.delay(3, 1), p.delay(3, 2));
    }

    #[test]
    fn monotone_under_jitter() {
        let p = RetryPolicy::new(ms(5), ms(640)).with_jitter(1.0);
        for salt in [1u64, 99, 12345] {
            let mut prev = SimDuration::ZERO;
            for i in 0..20 {
                let d = p.delay(i, salt);
                assert!(d >= prev, "delay({i}) = {d} < {prev}");
                assert!(d <= p.cap);
                prev = d;
            }
        }
    }

    #[test]
    fn hint_overrides_the_exponential_curve() {
        let p = RetryPolicy::new(ms(4), ms(32)).with_jitter(0.0);
        // The server hint wins, even above the policy cap.
        assert_eq!(p.delay_after_hint(ms(200), 0, 1), ms(200));
        assert_eq!(p.delay_after_hint(ms(200), 5, 1), ms(200));
        // A zero hint falls back to the normal schedule.
        assert_eq!(p.delay_after_hint(SimDuration::ZERO, 1, 1), p.delay(1, 1));
    }

    #[test]
    fn hint_jitter_is_deterministic_salted_and_bounded() {
        let p = RetryPolicy::new(ms(4), ms(32)).with_jitter(0.5);
        let hint = ms(100);
        assert_eq!(p.delay_after_hint(hint, 2, 77), p.delay_after_hint(hint, 2, 77));
        assert_ne!(p.delay_after_hint(hint, 2, 1), p.delay_after_hint(hint, 2, 2));
        for salt in [0u64, 1, 42, 9999] {
            let d = p.delay_after_hint(hint, 0, salt);
            assert!(d >= hint, "hint is a floor: {d}");
            assert!(d < hint + hint.mul_f64(0.5), "jitter bounded: {d}");
        }
    }

    #[test]
    #[should_panic(expected = "jitter must be in [0, 1]")]
    fn rejects_jitter_above_one() {
        let _ = RetryPolicy::new(ms(1), ms(2)).with_jitter(1.5);
    }
}
