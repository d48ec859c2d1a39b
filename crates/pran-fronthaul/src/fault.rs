//! Fault injection for fronthaul links (smoltcp-style).
//!
//! Wraps a frame stream with configurable loss, corruption, reordering
//! jitter and a token-bucket rate limit, so integration tests and examples
//! can demonstrate the system's response to adverse transport conditions
//! deterministically (seeded RNG).

use bytes::{Bytes, BytesMut};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// Fault-injection configuration. All probabilities in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Probability of dropping a frame outright.
    pub drop_prob: f64,
    /// Probability of flipping one random bit in a frame.
    pub corrupt_prob: f64,
    /// Extra queueing jitter added per frame, uniform in `[0, max_jitter]`
    /// and drawn in whole nanoseconds; a bound past ≈ 584 years (the most
    /// a `u64` of nanoseconds holds) is taken as 584 years.
    pub max_jitter: Duration,
    /// Token-bucket capacity in frames (0 disables rate limiting).
    pub bucket_capacity: u32,
    /// Tokens refilled per [`FaultInjector::tick`].
    pub refill_per_tick: u32,
    /// Simulated-time spacing of refills for [`FaultInjector::advance_to`]
    /// (`ZERO` = clock-free mode: only manual [`FaultInjector::tick`]
    /// calls refill). Composed scenarios must set this and drive every
    /// injector from the one simulation clock, so fronthaul queues and
    /// `pran-sim` failure/recovery events advance in lockstep instead of
    /// each component counting its own calls.
    pub refill_interval: Duration,
}

impl FaultConfig {
    /// A clean link: no faults.
    pub fn clean() -> Self {
        FaultConfig {
            drop_prob: 0.0,
            corrupt_prob: 0.0,
            max_jitter: Duration::ZERO,
            bucket_capacity: 0,
            refill_per_tick: 0,
            refill_interval: Duration::ZERO,
        }
    }

    /// The smoltcp-README starting point: 15 % drop, 15 % corruption.
    pub fn adverse() -> Self {
        FaultConfig {
            drop_prob: 0.15,
            corrupt_prob: 0.15,
            max_jitter: Duration::from_micros(50),
            bucket_capacity: 0,
            refill_per_tick: 0,
            refill_interval: Duration::ZERO,
        }
    }
}

/// What the injector did with one frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Frame delivered (possibly corrupted) after the given extra delay.
    Delivered {
        /// The (possibly corrupted) frame bytes.
        data: Bytes,
        /// Additional queueing jitter to apply.
        extra_delay: Duration,
        /// Whether a bit was flipped.
        corrupted: bool,
    },
    /// Frame randomly dropped.
    Dropped,
    /// Frame rejected by the rate limiter.
    RateLimited,
}

/// One frame's fate, as [`FaultInjector::draw`] decides it.
enum Fate {
    /// Delivered after `extra_ns` nanoseconds of jitter, with the
    /// `(byte, bit)` flipped in a corrupted frame.
    Delivered {
        extra_ns: u64,
        flip: Option<(usize, u8)>,
    },
    /// Randomly dropped.
    Dropped,
    /// Rejected by the rate limiter.
    RateLimited,
}

/// The largest jitter bound a link draws from: whole seconds whose
/// nanoseconds still fit in `u64` (≈ 584 years).
const MAX_JITTER: Duration = Duration::from_secs(u64::MAX / 1_000_000_000);

/// `Duration::from_secs_f64(secs).as_nanos()` for a `secs` in
/// `[0, MAX_JITTER]`, in integer arithmetic: `secs · 10⁹` rounded to the
/// nearest nanosecond, ties to even, exactly as `Duration`'s float
/// constructor rounds it. `secs` is `mant · 2^(exp − 52)`, so the scaled
/// mantissa (below `2^83`) shifted right by `52 − exp` is the whole part
/// and the bits shifted out are the remainder; a `secs` below `2^-31`
/// (under half a nanosecond) shifts everything out and rounds to 0.
fn secs_to_nanos(secs: f64) -> u64 {
    const MANT_BITS: u32 = 52;
    let bits = secs.to_bits();
    let exp = ((bits >> MANT_BITS) & 0x7ff) as i32 - 1023;
    let mant = (bits & ((1 << MANT_BITS) - 1)) | (1 << MANT_BITS);
    let scaled = u128::from(mant) * 1_000_000_000;
    // `secs ≤ MAX_JITTER < 2^35 s`, so `exp ≤ 34`: the shift is at least 18.
    let shift = (MANT_BITS as i32 - exp) as u32;
    if shift > 83 {
        return 0;
    }
    // Round half to even without a branch: adding `half − 1` carries into
    // the whole part exactly when the remainder exceeds half, and the
    // whole part's low bit carries a remainder of exactly half up from
    // odd to even.
    let odd = (scaled >> shift) & 1;
    let half = 1u128 << (shift - 1);
    ((scaled + (half - 1) + odd) >> shift) as u64
}

/// Statistics kept by the injector.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Frames offered to the link.
    pub offered: u64,
    /// Frames that came out the other side.
    pub delivered: u64,
    /// Frames randomly dropped.
    pub dropped: u64,
    /// Frames delivered with a flipped bit.
    pub corrupted: u64,
    /// Frames rejected by the rate limiter.
    pub rate_limited: u64,
}

/// A deterministic fault-injecting link.
#[derive(Debug)]
pub struct FaultInjector {
    config: FaultConfig,
    /// `config.max_jitter` in seconds, as `Duration::mul_f64` reads it;
    /// a bound past [`MAX_JITTER`] is taken as that, so every delay is a
    /// `u64` of nanoseconds.
    jitter_secs: f64,
    rng: SmallRng,
    tokens: u32,
    stats: FaultStats,
    /// Simulated time of the last clock-driven refill (see
    /// [`FaultInjector::advance_to`]).
    refilled_at: Duration,
}

impl FaultInjector {
    /// Build with an explicit seed — all behaviour is reproducible.
    pub fn new(config: FaultConfig, seed: u64) -> Self {
        FaultInjector {
            config,
            jitter_secs: config.max_jitter.min(MAX_JITTER).as_secs_f64(),
            rng: SmallRng::seed_from_u64(seed),
            tokens: config.bucket_capacity,
            stats: FaultStats::default(),
            refilled_at: Duration::ZERO,
        }
    }

    /// Refill the token bucket (call once per simulated tick).
    pub fn tick(&mut self) {
        if self.config.bucket_capacity > 0 {
            self.tokens =
                (self.tokens + self.config.refill_per_tick).min(self.config.bucket_capacity);
        }
    }

    /// Advance the injector's clock to simulated time `now`, applying
    /// every refill whose instant has passed since the last call.
    ///
    /// Refills land at exact multiples of `refill_interval`, so the token
    /// state at any simulated time is a pure function of that time — not
    /// of how many times or in what step pattern callers advanced the
    /// clock. This is the shared-tick contract that keeps fronthaul
    /// queues in lockstep with `pran-sim`'s `SimTime`-scheduled failure
    /// and recovery events when scenarios compose both. No-op when
    /// `refill_interval` is zero (clock-free mode) or `now` is not past
    /// the next refill instant; time never moves backwards.
    pub fn advance_to(&mut self, now: Duration) {
        let interval = self.config.refill_interval;
        if interval.is_zero() || now <= self.refilled_at {
            return;
        }
        let elapsed = (now - self.refilled_at).as_nanos();
        let interval = interval.as_nanos();
        // Counted in `u128`: a link left idle for 2^32 intervals or more
        // (71.6 min at 1 µs) still gets every refill it is owed.
        let refills = elapsed / interval;
        if refills == 0 {
            return;
        }
        let capacity = self.config.bucket_capacity;
        if capacity > 0 {
            let added = (u128::from(self.config.refill_per_tick) * refills)
                .min(u128::from(capacity)) as u32;
            self.tokens = (self.tokens + added).min(capacity);
        }
        // The last refill instant: `refills` whole intervals on, which is
        // `now` less the part of an interval still running.
        let rem = elapsed % interval;
        self.refilled_at =
            now - Duration::new((rem / 1_000_000_000) as u64, (rem % 1_000_000_000) as u32);
    }

    /// Pass one frame through the faulty link.
    pub fn offer(&mut self, data: Bytes) -> Outcome {
        match self.draw(data.len()) {
            Fate::Delivered { extra_ns, flip } => Outcome::Delivered {
                data: match flip {
                    Some((byte, bit)) => {
                        let mut m = BytesMut::from(&data[..]);
                        m[byte] ^= 1 << bit;
                        m.freeze()
                    }
                    None => data,
                },
                extra_delay: Duration::from_nanos(extra_ns),
                corrupted: flip.is_some(),
            },
            Fate::Dropped => Outcome::Dropped,
            Fate::RateLimited => Outcome::RateLimited,
        }
    }

    /// Pass one frame of `len` bytes through the faulty link without
    /// building it: its extra delay in nanoseconds if delivered, `None` if
    /// dropped or rate-limited. Draws what [`offer`](Self::offer) draws, a
    /// corrupted frame's byte and bit included, so a link fed either way
    /// takes the same fates, delays included to the nanosecond, and keeps
    /// the same [`stats`](Self::stats) — for callers that never read the
    /// payload, with no allocation.
    #[inline]
    pub fn deliver(&mut self, len: usize) -> Option<u64> {
        match self.draw(len) {
            Fate::Delivered { extra_ns, .. } => Some(extra_ns),
            Fate::Dropped | Fate::RateLimited => None,
        }
    }

    /// One frame of `len` bytes' fate. A delivered frame's jitter is
    /// `max_jitter.mul_f64(u)` for a uniform draw `u`, taken to whole
    /// nanoseconds without building the `Duration` ([`secs_to_nanos`]).
    #[inline]
    fn draw(&mut self, len: usize) -> Fate {
        self.stats.offered += 1;
        if self.config.bucket_capacity > 0 {
            if self.tokens == 0 {
                self.stats.rate_limited += 1;
                return Fate::RateLimited;
            }
            self.tokens -= 1;
        }
        if self.rng.gen::<f64>() < self.config.drop_prob {
            self.stats.dropped += 1;
            return Fate::Dropped;
        }
        let flip = (len > 0 && self.rng.gen::<f64>() < self.config.corrupt_prob).then(|| {
            self.stats.corrupted += 1;
            (self.rng.gen_range(0..len), self.rng.gen_range(0..8u8))
        });
        let extra_ns = if self.jitter_secs > 0.0 {
            secs_to_nanos(self.rng.gen::<f64>() * self.jitter_secs)
        } else {
            0
        };
        self.stats.delivered += 1;
        Fate::Delivered { extra_ns, flip }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_link_delivers_everything_unchanged() {
        let mut inj = FaultInjector::new(FaultConfig::clean(), 1);
        for i in 0..100u8 {
            let data = Bytes::copy_from_slice(&[i; 16]);
            match inj.offer(data.clone()) {
                Outcome::Delivered {
                    data: got,
                    extra_delay,
                    corrupted,
                } => {
                    assert_eq!(got, data);
                    assert_eq!(extra_delay, Duration::ZERO);
                    assert!(!corrupted);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(inj.stats().delivered, 100);
    }

    #[test]
    fn drop_rate_approximates_config() {
        let cfg = FaultConfig {
            drop_prob: 0.3,
            ..FaultConfig::clean()
        };
        let mut inj = FaultInjector::new(cfg, 2);
        for _ in 0..10_000 {
            inj.offer(Bytes::from_static(b"x"));
        }
        let rate = inj.stats().dropped as f64 / 10_000.0;
        assert!((rate - 0.3).abs() < 0.03, "drop rate {rate}");
    }

    #[test]
    fn corruption_flips_exactly_one_bit() {
        let cfg = FaultConfig {
            corrupt_prob: 1.0,
            ..FaultConfig::clean()
        };
        let mut inj = FaultInjector::new(cfg, 3);
        let original = Bytes::copy_from_slice(&[0u8; 64]);
        match inj.offer(original.clone()) {
            Outcome::Delivered {
                data, corrupted, ..
            } => {
                assert!(corrupted);
                let flipped: u32 = data
                    .iter()
                    .zip(original.iter())
                    .map(|(a, b)| (a ^ b).count_ones())
                    .sum();
                assert_eq!(flipped, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn deterministic_for_seed() {
        let cfg = FaultConfig::adverse();
        let run = |seed| {
            let mut inj = FaultInjector::new(cfg, seed);
            (0..200)
                .map(|_| matches!(inj.offer(Bytes::from_static(b"abc")), Outcome::Dropped))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    /// `deliver` takes `offer`'s draws: two links of one seed, one fed
    /// frames and one their lengths (empty ones included, which draw no
    /// corruption), deliver and lose the same frames with the same jitter
    /// (`deliver`'s nanoseconds are `offer`'s `extra_delay.as_nanos()`)
    /// and end with the same stats — on the adverse link and on a
    /// rate-limited, corrupting one.
    #[test]
    fn deliver_draws_what_offer_draws() {
        let limited = FaultConfig {
            drop_prob: 0.05,
            corrupt_prob: 0.3,
            max_jitter: Duration::from_micros(800),
            bucket_capacity: 6,
            refill_per_tick: 2,
            refill_interval: Duration::ZERO,
        };
        static FRAME: [u8; 32] = [0u8; 32];
        for cfg in [FaultConfig::adverse(), limited] {
            for seed in 0..8 {
                let mut offered = FaultInjector::new(cfg, seed);
                let mut delivered = FaultInjector::new(cfg, seed);
                for i in 0..2_000usize {
                    if i % 5 == 0 {
                        offered.tick();
                        delivered.tick();
                    }
                    let len = i * 7 % 33;
                    let jitter = match offered.offer(Bytes::from_static(&FRAME[..len])) {
                        Outcome::Delivered { extra_delay, .. } => Some(extra_delay.as_nanos()),
                        Outcome::Dropped | Outcome::RateLimited => None,
                    };
                    let ns = delivered.deliver(len).map(u128::from);
                    assert_eq!(ns, jitter, "{cfg:?}, seed {seed}");
                }
                let stats = offered.stats();
                assert_eq!(delivered.stats(), stats, "{cfg:?}, seed {seed}");
                assert!(stats.corrupted > 0 && stats.dropped > 0);
                assert_eq!(stats.rate_limited > 0, cfg.bucket_capacity > 0);
            }
        }
    }

    #[test]
    fn rate_limiter_enforces_bucket() {
        let cfg = FaultConfig {
            bucket_capacity: 4,
            refill_per_tick: 2,
            ..FaultConfig::clean()
        };
        let mut inj = FaultInjector::new(cfg, 4);
        let mut delivered = 0;
        for _ in 0..10 {
            if matches!(
                inj.offer(Bytes::from_static(b"x")),
                Outcome::Delivered { .. }
            ) {
                delivered += 1;
            }
        }
        assert_eq!(delivered, 4, "initial bucket only");
        inj.tick();
        let mut after = 0;
        for _ in 0..10 {
            if matches!(
                inj.offer(Bytes::from_static(b"x")),
                Outcome::Delivered { .. }
            ) {
                after += 1;
            }
        }
        assert_eq!(after, 2, "one refill's worth");
        assert_eq!(inj.stats().rate_limited, 14);
    }

    #[test]
    fn advance_to_refills_on_sim_time_not_call_pattern() {
        // The lockstep regression: token state at time T must not depend
        // on whether the clock was advanced in one jump or many.
        let cfg = FaultConfig {
            bucket_capacity: 10,
            refill_per_tick: 1,
            refill_interval: Duration::from_millis(1),
            ..FaultConfig::clean()
        };
        let drain = |inj: &mut FaultInjector| {
            let mut n = 0;
            while matches!(
                inj.offer(Bytes::from_static(b"x")),
                Outcome::Delivered { .. }
            ) {
                n += 1;
            }
            n
        };
        // One big jump to 5 ms.
        let mut a = FaultInjector::new(cfg, 1);
        assert_eq!(drain(&mut a), 10, "initial bucket");
        a.advance_to(Duration::from_millis(5));
        // Ten ragged jumps to the same instant.
        let mut b = FaultInjector::new(cfg, 1);
        assert_eq!(drain(&mut b), 10);
        for us in [300, 800, 1100, 1900, 2500, 3100, 3300, 4200, 4999, 5000] {
            b.advance_to(Duration::from_micros(us));
        }
        assert_eq!(drain(&mut a), 5, "5 ms at 1 token/ms");
        assert_eq!(drain(&mut b), 5, "same sim time, same tokens");
    }

    #[test]
    fn advance_to_is_monotone_and_remembers_partial_intervals() {
        let cfg = FaultConfig {
            bucket_capacity: 100,
            refill_per_tick: 1,
            refill_interval: Duration::from_millis(2),
            ..FaultConfig::clean()
        };
        let mut inj = FaultInjector::new(cfg, 2);
        // Drain the initial bucket.
        for _ in 0..100 {
            inj.offer(Bytes::from_static(b"x"));
        }
        // 3 ms = one whole 2 ms interval; the half-finished second
        // interval must complete at 4 ms, not restart from 3 ms.
        inj.advance_to(Duration::from_millis(3));
        inj.advance_to(Duration::from_millis(4));
        let mut delivered = 0;
        for _ in 0..10 {
            if matches!(
                inj.offer(Bytes::from_static(b"x")),
                Outcome::Delivered { .. }
            ) {
                delivered += 1;
            }
        }
        assert_eq!(delivered, 2, "refills at t=2ms and t=4ms exactly");
        // Going backwards is a no-op, not a panic or a refund.
        inj.advance_to(Duration::from_millis(1));
    }

    /// A clocked link idle for 2^32 refill intervals or more is owed a
    /// full bucket. Counted in `u32`, exactly 2^32 intervals wrapped to 0
    /// refills: the bucket stayed empty and `refilled_at` stayed put.
    #[test]
    fn advance_to_counts_refills_past_u32() {
        let cfg = FaultConfig {
            bucket_capacity: 10,
            refill_per_tick: 3,
            refill_interval: Duration::from_micros(1),
            ..FaultConfig::clean()
        };
        let drain = |inj: &mut FaultInjector| {
            let mut n = 0;
            while inj.deliver(1).is_some() {
                n += 1;
            }
            n
        };
        let idle = Duration::from_micros(1 << 32);
        // One jump of exactly 2^32 intervals.
        let mut a = FaultInjector::new(cfg, 1);
        assert_eq!(drain(&mut a), 10, "initial bucket");
        a.advance_to(idle);
        // The same instant in uneven jumps, one of them past 2^32 µs from
        // the last.
        let mut b = FaultInjector::new(cfg, 1);
        assert_eq!(drain(&mut b), 10);
        for at in [
            Duration::from_nanos(1_500),
            idle - Duration::from_nanos(2_500),
            idle,
        ] {
            b.advance_to(at);
        }
        assert_eq!(drain(&mut a), 10, "2^32 refills fill the bucket");
        assert_eq!(drain(&mut b), 10, "same sim time, same tokens");
        // `refilled_at` moved by the true count: one more interval is one
        // more tick, not a backlog of refills.
        for inj in [&mut a, &mut b] {
            inj.advance_to(idle + Duration::from_micros(1));
            assert_eq!(drain(inj), 3, "one tick's tokens");
        }
    }

    /// Check one value of the float-to-nanosecond conversion against
    /// `Duration`'s own.
    fn assert_nanos_match(secs: f64) {
        assert_eq!(
            u128::from(secs_to_nanos(secs)),
            Duration::from_secs_f64(secs).as_nanos(),
            "{secs:e} s ({:#x})",
            secs.to_bits()
        );
    }

    /// The jitter's whole nanoseconds are `Duration::mul_f64`'s, bit for
    /// bit: on seeded draws at the two jitters the workloads use (800 µs,
    /// 2 ms) and two far larger ones, and on the rounding's edge cases.
    #[test]
    fn whole_nanoseconds_equal_duration_mul_f64() {
        for max_jitter in [
            Duration::from_micros(800),
            Duration::from_millis(2),
            Duration::from_millis(1_500),
            Duration::from_secs(10_000),
        ] {
            let jitter_secs = max_jitter.as_secs_f64();
            let mut rng = SmallRng::seed_from_u64(2026);
            for _ in 0..10_000_000 {
                let u = rng.gen::<f64>();
                assert_eq!(
                    u128::from(secs_to_nanos(u * jitter_secs)),
                    max_jitter.mul_f64(u).as_nanos(),
                    "{max_jitter:?} × {u}"
                );
            }
        }
        let around = |secs: f64| [secs.next_down(), secs, secs.next_up()];
        // Every half nanosecond up to 2 ms, one ulp either side included.
        for k in 1..4_000_000u64 {
            around(k as f64 / 2e9)
                .into_iter()
                .for_each(assert_nanos_match);
        }
        // The exact binary ties: `secs · 10⁹` is a half-integer only for
        // the odd multiples of 1/1024 s, which round to even both ways
        // (976 562.5 ns down, 2 929 687.5 ns up).
        assert_eq!(secs_to_nanos(1.0 / 1024.0), 976_562);
        assert_eq!(secs_to_nanos(3.0 / 1024.0), 2_929_688);
        for odd in (1..200_000u64).step_by(2) {
            around(odd as f64 / 1024.0)
                .into_iter()
                .for_each(assert_nanos_match);
        }
        // Below one nanosecond: zero, subnormals, either side of half a
        // nanosecond and of 2^-31 s, where the remainder is all there is.
        for secs in [
            0.0,
            f64::from_bits(1),
            f64::MIN_POSITIVE,
            1e-12,
            2f64.powi(-32),
            2f64.powi(-31),
            5e-10,
            7.5e-10,
            9.999_999_999e-10,
        ] {
            around(secs)
                .into_iter()
                .filter(|s| *s >= 0.0)
                .for_each(assert_nanos_match);
        }
        assert_eq!(secs_to_nanos(4e-10), 0);
        assert_eq!(secs_to_nanos(6e-10), 1);
        // The largest bound a link draws from, and a link whose bound is
        // past it.
        around(MAX_JITTER.as_secs_f64())
            .into_iter()
            .for_each(assert_nanos_match);
        let cfg = FaultConfig {
            max_jitter: Duration::MAX,
            ..FaultConfig::clean()
        };
        let mut inj = FaultInjector::new(cfg, 9);
        for _ in 0..1_000 {
            let ns = inj.deliver(1).unwrap();
            assert!(u128::from(ns) <= MAX_JITTER.as_nanos());
        }
    }

    #[test]
    fn advance_to_noop_in_clock_free_mode() {
        let cfg = FaultConfig {
            bucket_capacity: 4,
            refill_per_tick: 2,
            ..FaultConfig::clean()
        };
        let mut inj = FaultInjector::new(cfg, 3);
        for _ in 0..4 {
            inj.offer(Bytes::from_static(b"x"));
        }
        inj.advance_to(Duration::from_secs(10));
        assert!(
            matches!(inj.offer(Bytes::from_static(b"x")), Outcome::RateLimited),
            "refill_interval ZERO means only manual tick() refills"
        );
    }

    #[test]
    fn jitter_bounded_by_config() {
        let cfg = FaultConfig {
            max_jitter: Duration::from_micros(100),
            ..FaultConfig::clean()
        };
        let mut inj = FaultInjector::new(cfg, 5);
        for _ in 0..1000 {
            if let Outcome::Delivered { extra_delay, .. } = inj.offer(Bytes::from_static(b"x")) {
                assert!(extra_delay <= Duration::from_micros(100));
            }
        }
    }
}
