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
    /// Extra queueing jitter added per frame, uniform in `[0, max_jitter]`.
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

/// How a frame that is not lost arrives.
struct Delivery {
    /// Additional queueing jitter to apply.
    extra_delay: Duration,
    /// The `(byte, bit)` flipped in a corrupted frame.
    flip: Option<(usize, u8)>,
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
        let elapsed = now - self.refilled_at;
        let refills = (elapsed.as_nanos() / interval.as_nanos()) as u32;
        if refills == 0 {
            return;
        }
        if self.config.bucket_capacity > 0 {
            let added = (self.config.refill_per_tick as u64 * refills as u64)
                .min(self.config.bucket_capacity as u64) as u32;
            self.tokens = (self.tokens + added).min(self.config.bucket_capacity);
        }
        self.refilled_at += interval * refills;
    }

    /// Pass one frame through the faulty link.
    pub fn offer(&mut self, data: Bytes) -> Outcome {
        match self.draw(data.len()) {
            Err(lost) => lost,
            Ok(Delivery { extra_delay, flip }) => Outcome::Delivered {
                data: match flip {
                    Some((byte, bit)) => {
                        let mut m = BytesMut::from(&data[..]);
                        m[byte] ^= 1 << bit;
                        m.freeze()
                    }
                    None => data,
                },
                extra_delay,
                corrupted: flip.is_some(),
            },
        }
    }

    /// Pass one frame of `len` bytes through the faulty link without
    /// building it: its extra delay if delivered, `None` if dropped or
    /// rate-limited. Draws what [`offer`](Self::offer) draws, a corrupted
    /// frame's byte and bit included, so a link fed either way takes the
    /// same fates and keeps the same [`stats`](Self::stats) — for callers
    /// that never read the payload, with no allocation.
    pub fn deliver(&mut self, len: usize) -> Option<Duration> {
        self.draw(len).ok().map(|d| d.extra_delay)
    }

    /// One frame of `len` bytes' fate: how it arrives, or the outcome of a
    /// frame that does not.
    fn draw(&mut self, len: usize) -> Result<Delivery, Outcome> {
        self.stats.offered += 1;
        if self.config.bucket_capacity > 0 {
            if self.tokens == 0 {
                self.stats.rate_limited += 1;
                return Err(Outcome::RateLimited);
            }
            self.tokens -= 1;
        }
        if self.rng.gen::<f64>() < self.config.drop_prob {
            self.stats.dropped += 1;
            return Err(Outcome::Dropped);
        }
        let flip = (len > 0 && self.rng.gen::<f64>() < self.config.corrupt_prob).then(|| {
            self.stats.corrupted += 1;
            (self.rng.gen_range(0..len), self.rng.gen_range(0..8u8))
        });
        let extra_delay = if self.config.max_jitter > Duration::ZERO {
            self.config.max_jitter.mul_f64(self.rng.gen::<f64>())
        } else {
            Duration::ZERO
        };
        self.stats.delivered += 1;
        Ok(Delivery { extra_delay, flip })
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
                        Outcome::Delivered { extra_delay, .. } => Some(extra_delay),
                        Outcome::Dropped | Outcome::RateLimited => None,
                    };
                    assert_eq!(delivered.deliver(len), jitter, "{cfg:?}, seed {seed}");
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
