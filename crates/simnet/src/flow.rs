//! Flow-control primitives: overload signals, token buckets, bounded
//! queues and admission gates.
//!
//! The CPU model ([`crate::Lanes`]) makes queueing delay *observable* — a
//! work item submitted now starts `lane_backlog` later — but nothing in the
//! stack *acts* on that signal: an overloaded server keeps queueing work
//! unboundedly, and under open-loop load its latency grows without limit
//! while goodput collapses. This module is the shared vocabulary protocol
//! layers use to push back instead:
//!
//! - [`TokenBucket`]: a deterministic rate limiter over virtual time
//!   (integer nanosecond arithmetic — no float drift, bit-identical
//!   replays);
//! - [`BoundedQueue`]: a FIFO that rejects rather than grows;
//! - [`Gate`]: an admission gate combining a queue-delay threshold with an
//!   over-threshold token-bucket trickle, returning shed decisions with a
//!   deterministic, jittered retry-after hint;
//! - [`poisson_interarrival`]: exponential inter-arrival sampling for
//!   open-loop (offered-load) traffic generators.
//!
//! Everything here is pure state + virtual time: nothing schedules events
//! or draws from the simulation RNG unless the caller passes it in, so
//! flow-control decisions replay bit-identically for a fixed seed.

use crate::retry::splitmix64;
use crate::time::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::VecDeque;

/// Tokens are tracked in billionths so refill at `rate` tokens/second is
/// exact integer arithmetic: `elapsed_ns * rate` billionth-tokens.
const TOKEN_SCALE: u128 = 1_000_000_000;

/// A deterministic token bucket over virtual time.
///
/// Refills continuously at `rate_per_sec` tokens per (virtual) second up to
/// a burst capacity, using integer nanosecond arithmetic only — two buckets
/// fed the same sequence of `(now)` calls hold bit-identical state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TokenBucket {
    /// Refill rate, tokens per second.
    rate_per_sec: u64,
    /// Capacity in tokens.
    burst: u64,
    /// Current fill, scaled by [`TOKEN_SCALE`].
    fill: u128,
    /// Last refill instant.
    last: SimTime,
}

impl TokenBucket {
    /// Creates a bucket that starts full.
    ///
    /// # Panics
    ///
    /// Panics if `burst` is zero (a zero-capacity bucket can never admit).
    pub fn new(rate_per_sec: u64, burst: u64) -> Self {
        assert!(burst > 0, "token bucket burst must be positive");
        TokenBucket {
            rate_per_sec,
            burst,
            fill: burst as u128 * TOKEN_SCALE,
            last: SimTime::ZERO,
        }
    }

    fn refill(&mut self, now: SimTime) {
        let elapsed = now.saturating_since(self.last);
        self.last = self.last.max(now);
        let gained = elapsed.as_nanos() as u128 * self.rate_per_sec as u128;
        self.fill = (self.fill + gained).min(self.burst as u128 * TOKEN_SCALE);
    }

    /// Whole tokens available at `now`.
    pub fn available(&mut self, now: SimTime) -> u64 {
        self.refill(now);
        (self.fill / TOKEN_SCALE) as u64
    }

    /// Takes one token if available. Deterministic in `(state, now)`.
    pub fn try_take(&mut self, now: SimTime) -> bool {
        self.refill(now);
        if self.fill >= TOKEN_SCALE {
            self.fill -= TOKEN_SCALE;
            true
        } else {
            false
        }
    }

    /// How long after `now` until a whole token is available (`ZERO` when
    /// one already is). With a zero refill rate and an empty bucket this
    /// saturates to `u64::MAX` nanoseconds, which callers should clamp.
    pub fn next_token_after(&mut self, now: SimTime) -> SimDuration {
        self.refill(now);
        if self.fill >= TOKEN_SCALE {
            return SimDuration::ZERO;
        }
        let missing = TOKEN_SCALE - self.fill;
        if self.rate_per_sec == 0 {
            return SimDuration::from_nanos(u64::MAX);
        }
        // ceil(missing / rate) nanoseconds.
        let ns = missing.div_ceil(self.rate_per_sec as u128);
        SimDuration::from_nanos(ns.min(u64::MAX as u128) as u64)
    }
}

/// A FIFO queue with a hard capacity: pushes beyond it are rejected, giving
/// the item back so the caller can shed it (count it, answer "overloaded")
/// instead of queueing unboundedly.
#[derive(Debug, Clone)]
pub struct BoundedQueue<T> {
    items: VecDeque<T>,
    cap: usize,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `cap` items.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "bounded queue capacity must be positive");
        BoundedQueue { items: VecDeque::new(), cap }
    }

    /// Appends `item`, or returns it back when the queue is full.
    pub fn push(&mut self, item: T) -> Result<(), T> {
        if self.items.len() >= self.cap {
            Err(item)
        } else {
            self.items.push_back(item);
            Ok(())
        }
    }

    /// Pops the oldest item.
    pub fn pop(&mut self) -> Option<T> {
        self.items.pop_front()
    }

    /// Current depth.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }
}

/// Verdict of an admission check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Run the work now.
    Admit,
    /// Refuse the work; the caller should answer with a retryable error
    /// carrying this hint (or, for internal work, re-check after it).
    Shed {
        /// Deterministically jittered "try again no sooner than" hint.
        retry_after: SimDuration,
    },
}

/// An admission gate: sheds work when the observed queue delay exceeds a
/// threshold, with a token-bucket trickle that still admits a bounded rate
/// above the threshold (so an overloaded server keeps making progress and
/// its clients keep observing fresh signal instead of being starved
/// outright).
///
/// The retry-after hint is the time the backlog needs to drain back to the
/// threshold, floored and deterministically jittered from `salt` — two
/// clients shed in the same instant receive different hints and do not
/// stampede back in lockstep.
#[derive(Debug, Clone)]
pub struct Gate {
    /// Queue delay above which new work sheds.
    pub threshold: SimDuration,
    /// Over-threshold trickle allowance.
    pub trickle: TokenBucket,
    /// Floor for retry-after hints.
    pub retry_floor: SimDuration,
    /// Jitter fraction in `[0, 1]` applied to hints.
    pub jitter: f64,
}

impl Gate {
    /// Creates a gate with the given shed threshold and over-threshold
    /// trickle rate.
    pub fn new(threshold: SimDuration, trickle_per_sec: u64, retry_floor: SimDuration) -> Self {
        Gate {
            threshold,
            trickle: TokenBucket::new(trickle_per_sec, trickle_per_sec.clamp(1, 16)),
            retry_floor,
            jitter: 0.5,
        }
    }

    /// Decides admission for one work item given the currently observed
    /// queue delay. Pure in `(state, now, queue_delay, salt)`.
    pub fn check(&mut self, now: SimTime, queue_delay: SimDuration, salt: u64) -> Admission {
        if queue_delay <= self.threshold {
            return Admission::Admit;
        }
        if self.trickle.try_take(now) {
            return Admission::Admit;
        }
        let excess = queue_delay.saturating_sub(self.threshold);
        let raw = excess.max(self.retry_floor);
        let jittered = if self.jitter > 0.0 {
            let bits = splitmix64(salt ^ 0x0F10_0DCA_FE00_5EED);
            let frac = (bits >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
            raw + raw.mul_f64(self.jitter * frac)
        } else {
            raw
        };
        Admission::Shed { retry_after: jittered }
    }
}

/// Samples an exponential inter-arrival time for a Poisson process of
/// `rate_per_sec` events per (virtual) second. Deterministic given the RNG
/// state; the result is floored at 1 ns so event times strictly advance.
///
/// # Panics
///
/// Panics if `rate_per_sec` is not finite and positive.
pub fn poisson_interarrival(rng: &mut StdRng, rate_per_sec: f64) -> SimDuration {
    assert!(
        rate_per_sec.is_finite() && rate_per_sec > 0.0,
        "arrival rate must be positive, got {rate_per_sec}"
    );
    let u: f64 = rng.gen_range(0.0..1.0);
    let secs = -(1.0 - u).ln() / rate_per_sec;
    SimDuration::from_nanos(((secs * 1e9) as u64).max(1))
}

/// A piecewise-constant **time-varying arrival rate**: a repeating base
/// profile (diurnal segments over a period) plus absolute-time spikes
/// layered on top. Generalizes [`poisson_interarrival`] to inhomogeneous
/// Poisson arrivals via Lewis–Shedler thinning — sampling is deterministic
/// given the RNG state, so open-loop traffic built on a curve replays
/// bit-identically for a fixed seed.
#[derive(Debug, Clone)]
pub struct RateCurve {
    /// `(start offset within the period, rate ops/s)`, sorted by offset;
    /// the first segment starts at offset zero.
    base: Vec<(SimDuration, f64)>,
    /// Period after which the base profile repeats (e.g. a simulated day).
    period: SimDuration,
    /// Absolute-time spikes: `(start, end, extra rate)` added on top of
    /// the base profile. Spikes do not repeat.
    spikes: Vec<(SimTime, SimTime, f64)>,
    /// Peak of base + concurrently-active spikes, for thinning.
    max_rate: f64,
}

impl RateCurve {
    /// A flat curve: behaves exactly like [`poisson_interarrival`] at
    /// `rate_per_sec`.
    pub fn constant(rate_per_sec: f64) -> Self {
        Self::diurnal(vec![(SimDuration::ZERO, rate_per_sec)], SimDuration::from_secs(1))
    }

    /// A repeating piecewise-constant profile. Segments are
    /// `(start offset, rate)`; the profile holds each rate until the next
    /// segment's offset and wraps modulo `period`.
    ///
    /// # Panics
    ///
    /// Panics if `segments` is empty, unsorted, does not start at offset
    /// zero, extends past `period`, or contains a non-positive rate.
    pub fn diurnal(segments: Vec<(SimDuration, f64)>, period: SimDuration) -> Self {
        assert!(!segments.is_empty(), "rate curve needs at least one segment");
        assert!(period > SimDuration::ZERO, "rate curve period must be positive");
        assert_eq!(segments[0].0, SimDuration::ZERO, "first segment must start at offset zero");
        let mut max_rate = 0.0f64;
        for w in segments.windows(2) {
            assert!(w[0].0 < w[1].0, "segments must be strictly sorted by offset");
        }
        for &(off, rate) in &segments {
            assert!(off < period, "segment offset past the period");
            assert!(rate.is_finite() && rate > 0.0, "segment rate must be positive, got {rate}");
            max_rate = max_rate.max(rate);
        }
        RateCurve { base: segments, period, spikes: Vec::new(), max_rate }
    }

    /// Adds a spike of `extra` ops/s on top of the base profile between
    /// `start` and `start + duration` (absolute simulation time).
    pub fn with_spike(mut self, start: SimTime, duration: SimDuration, extra: f64) -> Self {
        assert!(extra.is_finite() && extra > 0.0, "spike rate must be positive");
        assert!(duration > SimDuration::ZERO, "spike duration must be positive");
        self.spikes.push((start, start + duration, extra));
        // Conservative thinning bound: peak base plus every spike (spikes
        // may overlap; over-estimating only costs extra thinning rolls).
        self.max_rate += extra;
        self
    }

    /// The instantaneous rate at `now` (ops per virtual second).
    pub fn rate_at(&self, now: SimTime) -> f64 {
        let off = SimDuration::from_nanos(now.as_nanos() % self.period.as_nanos().max(1));
        let mut rate = self.base[0].1;
        for &(start, r) in &self.base {
            if start <= off {
                rate = r;
            } else {
                break;
            }
        }
        for &(start, end, extra) in &self.spikes {
            if start <= now && now < end {
                rate += extra;
            }
        }
        rate
    }

    /// Upper bound on [`RateCurve::rate_at`] over all times.
    pub fn max_rate(&self) -> f64 {
        self.max_rate
    }

    /// Samples the gap to the next arrival of the inhomogeneous Poisson
    /// process starting at `now`, by thinning candidate arrivals drawn at
    /// [`RateCurve::max_rate`]. Deterministic given the RNG state; floored
    /// at 1 ns so event times strictly advance.
    pub fn next_arrival(&self, rng: &mut StdRng, now: SimTime) -> SimDuration {
        let mut t = now;
        // Base rates are strictly positive, so acceptance probability is
        // bounded below and the loop terminates with probability 1; the
        // iteration cap is a belt-and-braces guard, not a tuning knob.
        for _ in 0..100_000 {
            t += poisson_interarrival(rng, self.max_rate);
            let accept: f64 = rng.gen_range(0.0..1.0);
            if accept * self.max_rate <= self.rate_at(t) {
                break;
            }
        }
        t.saturating_since(now).max(SimDuration::from_nanos(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn bucket_starts_full_and_refills_exactly() {
        let mut b = TokenBucket::new(10, 2); // 10 tokens/s, burst 2
        assert!(b.try_take(SimTime::ZERO));
        assert!(b.try_take(SimTime::ZERO));
        assert!(!b.try_take(SimTime::ZERO));
        // One token accrues every 100 ms.
        assert!(!b.try_take(t(99)));
        assert!(b.try_take(t(100)));
        assert!(!b.try_take(t(100)));
    }

    #[test]
    fn bucket_caps_at_burst() {
        let mut b = TokenBucket::new(1000, 3);
        assert_eq!(b.available(SimTime::ZERO), 3);
        // A long idle period still leaves only `burst` tokens.
        assert_eq!(b.available(SimTime::from_secs(60)), 3);
    }

    #[test]
    fn bucket_next_token_is_exact_and_clamped() {
        let mut b = TokenBucket::new(4, 1); // one token per 250 ms
        assert_eq!(b.next_token_after(SimTime::ZERO), SimDuration::ZERO);
        assert!(b.try_take(SimTime::ZERO));
        assert_eq!(b.next_token_after(SimTime::ZERO), SimDuration::from_millis(250));
        assert_eq!(b.next_token_after(t(100)), SimDuration::from_millis(150));
        let mut dead = TokenBucket::new(0, 1);
        assert!(dead.try_take(SimTime::ZERO));
        assert_eq!(dead.next_token_after(t(5)), SimDuration::from_nanos(u64::MAX));
    }

    #[test]
    fn bucket_is_deterministic() {
        let run = || {
            let mut b = TokenBucket::new(7, 3);
            let mut out = Vec::new();
            for i in 0..50u64 {
                out.push(b.try_take(SimTime::from_millis(i * 37)));
            }
            out
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn bounded_queue_rejects_overflow() {
        let mut q = BoundedQueue::new(2);
        assert!(q.push(1).is_ok());
        assert!(q.push(2).is_ok());
        assert_eq!(q.push(3), Err(3));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some(1));
        assert!(q.push(3).is_ok());
        assert_eq!(q.capacity(), 2);
    }

    #[test]
    fn gate_admits_under_threshold_sheds_over() {
        let mut g = Gate::new(SimDuration::from_millis(10), 0, SimDuration::from_millis(5));
        g.trickle = TokenBucket::new(0, 1);
        g.trickle.try_take(SimTime::ZERO); // drain the initial burst token
        assert_eq!(g.check(t(1), SimDuration::from_millis(10), 1), Admission::Admit);
        match g.check(t(1), SimDuration::from_millis(30), 1) {
            Admission::Shed { retry_after } => {
                // excess = 20 ms, jitter stretches by < 50%.
                assert!(retry_after >= SimDuration::from_millis(20));
                assert!(retry_after < SimDuration::from_millis(30));
            }
            other => panic!("expected shed, got {other:?}"),
        }
    }

    #[test]
    fn gate_trickle_admits_bounded_rate_over_threshold() {
        let mut g = Gate::new(SimDuration::from_millis(1), 10, SimDuration::from_millis(5));
        g.trickle = TokenBucket::new(10, 1);
        let overloaded = SimDuration::from_millis(100);
        // Burst token admits one; the next sheds; 100 ms later another admits.
        assert_eq!(g.check(t(0), overloaded, 1), Admission::Admit);
        assert!(matches!(g.check(t(0), overloaded, 2), Admission::Shed { .. }));
        assert_eq!(g.check(t(100), overloaded, 3), Admission::Admit);
    }

    #[test]
    fn gate_hints_are_salted_and_deterministic() {
        let mk = || {
            let mut g = Gate::new(SimDuration::from_millis(1), 0, SimDuration::from_millis(5));
            g.trickle = TokenBucket::new(0, 1);
            g.trickle.try_take(SimTime::ZERO);
            g
        };
        let d = SimDuration::from_millis(50);
        let (mut a, mut b) = (mk(), mk());
        assert_eq!(a.check(t(1), d, 42), b.check(t(1), d, 42));
        assert_ne!(a.check(t(1), d, 1), b.check(t(1), d, 2));
    }

    #[test]
    fn poisson_interarrival_is_deterministic_with_sane_mean() {
        let sample = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..4000).map(|_| poisson_interarrival(&mut rng, 100.0)).collect::<Vec<_>>()
        };
        assert_eq!(sample(9), sample(9));
        let total: u64 = sample(9).iter().map(|d| d.as_nanos()).sum();
        let mean_ms = total as f64 / 4000.0 / 1e6;
        // λ = 100/s ⇒ mean 10 ms; the seeded sample should land near it.
        assert!((mean_ms - 10.0).abs() < 1.0, "mean inter-arrival {mean_ms} ms");
    }

    #[test]
    fn rate_curve_segments_and_wrap() {
        let day = SimDuration::from_secs(10);
        let c = RateCurve::diurnal(
            vec![
                (SimDuration::ZERO, 100.0),
                (SimDuration::from_secs(4), 400.0),
                (SimDuration::from_secs(8), 50.0),
            ],
            day,
        );
        assert_eq!(c.rate_at(SimTime::from_secs(1)), 100.0);
        assert_eq!(c.rate_at(SimTime::from_secs(5)), 400.0);
        assert_eq!(c.rate_at(SimTime::from_secs(9)), 50.0);
        // Wraps into the second period.
        assert_eq!(c.rate_at(SimTime::from_secs(11)), 100.0);
        assert_eq!(c.rate_at(SimTime::from_secs(15)), 400.0);
        assert_eq!(c.max_rate(), 400.0);
    }

    #[test]
    fn rate_curve_spike_layers_on_top() {
        let c = RateCurve::constant(100.0).with_spike(
            SimTime::from_secs(3),
            SimDuration::from_secs(2),
            900.0,
        );
        assert_eq!(c.rate_at(SimTime::from_secs(2)), 100.0);
        assert_eq!(c.rate_at(SimTime::from_secs(4)), 1000.0);
        assert_eq!(c.rate_at(SimTime::from_secs(6)), 100.0);
        assert_eq!(c.max_rate(), 1000.0);
    }

    #[test]
    fn rate_curve_arrivals_track_the_rate_and_replay() {
        // Count arrivals over [0, 4s) at 200/s and [4s, 8s) at 800/s.
        let run = |seed: u64| {
            let c = RateCurve::diurnal(
                vec![(SimDuration::ZERO, 200.0), (SimDuration::from_secs(4), 800.0)],
                SimDuration::from_secs(8),
            );
            let mut rng = StdRng::seed_from_u64(seed);
            let mut now = SimTime::ZERO;
            let (mut lo, mut hi) = (0u64, 0u64);
            while now < SimTime::from_secs(8) {
                now = now + c.next_arrival(&mut rng, now);
                if now < SimTime::from_secs(4) {
                    lo += 1;
                } else if now < SimTime::from_secs(8) {
                    hi += 1;
                }
            }
            (lo, hi)
        };
        let (lo, hi) = run(5);
        // 4 s at 200/s ≈ 800 arrivals; 4 s at 800/s ≈ 3200.
        assert!((600..=1000).contains(&lo), "low-rate window got {lo}");
        assert!((2800..=3600).contains(&hi), "high-rate window got {hi}");
        assert_eq!(run(5), run(5), "same seed must replay identically");
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn rate_curve_constant_matches_poisson_mean() {
        let c = RateCurve::constant(100.0);
        let mut rng = StdRng::seed_from_u64(9);
        let mut now = SimTime::ZERO;
        let mut total = 0u64;
        for _ in 0..4000 {
            let gap = c.next_arrival(&mut rng, now);
            total += gap.as_nanos();
            now += gap;
        }
        let mean_ms = total as f64 / 4000.0 / 1e6;
        assert!((mean_ms - 10.0).abs() < 1.0, "mean inter-arrival {mean_ms} ms");
    }
}
