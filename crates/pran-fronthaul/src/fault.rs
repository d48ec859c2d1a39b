//! Fault injection for fronthaul links.
//!
//! One seeded link per cell decides each uplink frame's fate: rejected by
//! a token-bucket rate limiter that refills on the simulation clock,
//! dropped at random, or delivered after a uniform queueing jitter. The
//! pool simulator and the chaos harness read only that fate, so a link
//! builds, copies and inspects no frame: it is a config, a seeded RNG, a
//! bucket and one draw ([`FaultInjector::deliver`]), reproducible from
//! its seed.

use bytes::Bytes;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// Fault-injection configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Probability of dropping a frame outright, in `[0, 1]`.
    pub drop_prob: f64,
    /// Extra queueing jitter added per frame, uniform in `[0, max_jitter]`
    /// and drawn in whole nanoseconds; a bound past ≈ 584 years (the most
    /// a `u64` of nanoseconds holds) is taken as 584 years.
    pub max_jitter: Duration,
    /// Token-bucket capacity in frames (0 disables rate limiting).
    pub bucket_capacity: u32,
    /// Tokens added at each `refill_interval` boundary.
    pub refill_per_interval: u32,
    /// Simulated-time spacing of refills for [`FaultInjector::advance_to`]
    /// (`ZERO` = the bucket never refills). Composed scenarios drive every
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
            max_jitter: Duration::ZERO,
            bucket_capacity: 0,
            refill_per_interval: 0,
            refill_interval: Duration::ZERO,
        }
    }
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
    /// Simulated time of the last refill (see
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
            refilled_at: Duration::ZERO,
        }
    }

    /// Cell `cell`'s link in a bank seeded `seed`: it draws from stream
    /// `seed + cell`, so loss streams are independent across cells yet
    /// each reproducible alone.
    pub fn for_cell(config: FaultConfig, seed: u64, cell: usize) -> Self {
        FaultInjector::new(config, seed.wrapping_add(cell as u64))
    }

    /// Advance the injector's clock to simulated time `now`, applying
    /// every refill whose instant has passed since the last call.
    ///
    /// Refills land at exact multiples of `refill_interval`, so the token
    /// state at any simulated time is a pure function of that time — not
    /// of how many times or in what step pattern callers advanced the
    /// clock. This is the shared-clock contract that keeps fronthaul
    /// queues in lockstep with `pran-sim`'s `SimTime`-scheduled failure
    /// and recovery events when scenarios compose both. No-op when
    /// `refill_interval` is zero (the bucket never refills) or `now` is
    /// not past the next refill instant; time never moves backwards.
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
            let added = (u128::from(self.config.refill_per_interval) * refills)
                .min(u128::from(capacity)) as u32;
            self.tokens = (self.tokens + added).min(capacity);
        }
        // The last refill instant: `refills` whole intervals on, which is
        // `now` less the part of an interval still running.
        let rem = elapsed % interval;
        self.refilled_at =
            now - Duration::new((rem / 1_000_000_000) as u64, (rem % 1_000_000_000) as u32);
    }

    /// [`deliver`](Self::deliver), for a caller holding the frame: its
    /// bytes take no part in the draw.
    pub fn offer(&mut self, _frame: Bytes) -> Option<u64> {
        self.deliver()
    }

    /// Pass one frame through the link: its jitter in whole nanoseconds
    /// if delivered — `max_jitter.mul_f64(u)` for a uniform draw `u`,
    /// taken to nanoseconds without building the `Duration` — or `None`
    /// if rate-limited or dropped.
    #[inline]
    pub fn deliver(&mut self) -> Option<u64> {
        if self.config.bucket_capacity > 0 {
            if self.tokens == 0 {
                return None;
            }
            self.tokens -= 1;
        }
        if self.rng.gen::<f64>() < self.config.drop_prob {
            return None;
        }
        // Every seeded stream has one uniform here, before the jitter (a
        // bit-flip test once drew it). It is drawn and discarded so each
        // stream, and every committed result built on one, keeps its
        // values (`seeded_streams_are_pinned`).
        let _: f64 = self.rng.gen();
        if self.jitter_secs > 0.0 {
            Some(secs_to_nanos(self.rng.gen::<f64>() * self.jitter_secs))
        } else {
            Some(0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deliveries until the link first loses a frame.
    fn drain(inj: &mut FaultInjector) -> usize {
        std::iter::from_fn(|| inj.deliver()).count()
    }

    #[test]
    fn clean_link_delivers_everything_unchanged() {
        let mut inj = FaultInjector::new(FaultConfig::clean(), 1);
        for _ in 0..100 {
            assert_eq!(inj.deliver(), Some(0));
        }
    }

    #[test]
    fn drop_rate_approximates_config() {
        let cfg = FaultConfig {
            drop_prob: 0.3,
            ..FaultConfig::clean()
        };
        let mut inj = FaultInjector::new(cfg, 2);
        let dropped = (0..10_000).filter(|_| inj.deliver().is_none()).count();
        let rate = dropped as f64 / 10_000.0;
        assert!((rate - 0.3).abs() < 0.03, "drop rate {rate}");
    }

    #[test]
    fn deterministic_for_seed() {
        let cfg = FaultConfig {
            drop_prob: 0.15,
            max_jitter: Duration::from_micros(50),
            ..FaultConfig::clean()
        };
        let run = |seed| {
            let mut inj = FaultInjector::new(cfg, seed);
            (0..200).map(|_| inj.deliver()).collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    /// A lost frame in a pinned stream.
    const LOST: u64 = u64::MAX;

    /// The first 256 fates of cell 3's link in a bank seeded 2026 at
    /// `metro_degraded`'s link config (1 % loss, 800 µs jitter): each
    /// frame's jitter in nanoseconds, or [`LOST`].
    #[rustfmt::skip]
    const METRO_STREAM: [u64; 256] = [
        614429, 763697, 558390, 703448, 216579, 132808, 153818, 46988, 464046, 613872,
        717781, 350748, 582389, 421603, 220177, 633115, 597730, 354264, 592205, 782171,
        75135, 417827, 549453, 505734, 749785, 321887, 247833, 683815, 251585, 766165,
        773384, 50586, 18101, 716181, 105696, 561572, 238349, 589448, 774820, 337420,
        343992, 660680, 122066, 500065, 770625, 203975, 92592, 319372, 156175, 37759,
        158606, 773078, 334257, 417418, 329885, 248896, 544878, 574983, 688519, 9562,
        601916, 704105, 553778, 253441, 302248, 327628, 504996, 168190, 720226, 632433,
        557200, 358913, 319380, 234730, 569683, 395878, 366390, 794182, 222382, 363127,
        713446, 83471, 363826, 708146, 694172, 469251, 69480, 217302, 155601, 708243,
        356853, 746053, 139867, 202891, 470878, 4352, 430432, 288876, 177960, 616664,
        794435, 597855, 344566, 331897, 100049, 563985, 178771, 586263, 363242, 82060,
        125635, 392162, 124282, 422883, 186051, 730372, 611987, 92908, 472769, 717387,
        LOST, 508036, 588264, 356760, 331038, 365697, 430374, 793926, 22813, 463046,
        675593, 661635, 128379, 700854, 325143, 202733, 191733, 507921, 795233, 606018,
        167, 710016, 403840, 259333, 471474, 333027, 425055, 553551, 75298, 289140,
        672811, 120041, 92747, 245172, 592027, 141829, 607128, 463480, 597613, 302916,
        424090, 415022, 478104, 309214, 775047, 777071, 611366, 75283, 62731, 550742,
        147966, 593041, 784150, 319828, 674871, 669835, 311628, 470742, LOST, 158741,
        255210, 255335, 484231, 442091, 310721, 626713, 355248, 79771, 113788, 225834,
        508493, 311801, 255624, 355964, 688602, 373095, 275358, 253852, 648033, 438414,
        230263, 758868, 709369, 587469, 408871, 501716, 495037, 702227, 218782, 340794,
        714731, 520782, 475182, 566269, 59973, 54273, 794086, 12874, 408976, 482259,
        436977, 720347, 144718, 470676, 701906, 62472, 343125, 94386, 385040, 103653,
        249858, 282521, 85133, 453613, 276026, 433292, 527981, 716359, 45647, 579320,
        676412, 554015, 716180, 427111, 25839, 793792, 720512, 191477, 575888, 537686,
        478090, 60195, 554976, 729548, 688191, 260031,
    ];

    /// The same for a clocked, rate-limited link: 10 % loss, 50 µs
    /// jitter, a 4-frame bucket refilled by 2 every 2 ms.
    #[rustfmt::skip]
    const LIMITED_STREAM: [u64; 256] = [
        38402, 47731, 34899, LOST, LOST, 35710, LOST, LOST, 20136, 11503,
        LOST, LOST, 16302, LOST, LOST, LOST, 29003, LOST, LOST, LOST,
        49759, 5060, LOST, LOST, 4148, 38619, LOST, LOST, 36121, 9413,
        LOST, LOST, LOST, 42639, LOST, LOST, 19590, 34409, LOST, LOST,
        6721, 11365, LOST, LOST, LOST, 26114, LOST, LOST, 34341, 31608,
        LOST, LOST, 46862, 20118, LOST, LOST, 15490, 42738, LOST, LOST,
        15724, 47885, LOST, LOST, 48336, 3162, LOST, LOST, 1131, 44761,
        LOST, LOST, 6606, 35098, LOST, LOST, 14897, 36841, LOST, LOST,
        48426, 21089, LOST, LOST, 21499, 41293, LOST, LOST, 7629, 31254,
        LOST, LOST, 48164, 12748, LOST, LOST, 5787, 19961, LOST, LOST,
        9761, 2360, LOST, LOST, 9913, 48317, LOST, LOST, 20891, 26089,
        LOST, LOST, 20618, 15556, LOST, LOST, 34055, LOST, LOST, LOST,
        26661, 31234, LOST, LOST, 3906, 42543, LOST, LOST, 22168, 19173,
        LOST, LOST, 30498, 23929, LOST, LOST, 15584, 18048, LOST, LOST,
        6602, 9415, LOST, LOST, 28845, 46298, LOST, LOST, 37027, 40886,
        LOST, LOST, LOST, 47750, LOST, LOST, 27827, 30345, LOST, LOST,
        32934, 29273, LOST, LOST, 12473, 48149, LOST, LOST, 34046, 26287,
        LOST, LOST, 13183, 2020, LOST, LOST, 30299, 42019, LOST, LOST,
        LOST, 13581, LOST, LOST, LOST, 11635, LOST, LOST, 23335, 6855,
        LOST, LOST, 8652, 17669, LOST, LOST, 27988, 22074, LOST, LOST,
        40115, 14499, LOST, LOST, 27324, 29761, LOST, LOST, 12915, 41181,
        LOST, LOST, 47768, 22051, LOST, LOST, LOST, 46113, LOST, LOST,
        44794, 22743, LOST, LOST, 2186, 38211, LOST, LOST, 22849, 42966,
        LOST, LOST, 31323, 15804, LOST, LOST, 3969, 24062, LOST, LOST,
        43529, 3918, LOST, LOST, 46601, 30533, LOST, LOST, 26361, 40033,
        LOST, LOST, 21191, 28442, LOST, LOST,
    ];

    /// Every seeded link keeps its draw stream, fate for fate and
    /// nanosecond for nanosecond: the committed results of every lossy
    /// or jittery run rest on these streams. Both links are offered two
    /// frames per simulated millisecond (the unclocked one ignores the
    /// clock).
    #[test]
    fn seeded_streams_are_pinned() {
        let fates = |config| {
            let mut inj = FaultInjector::for_cell(config, 2026, 3);
            (0..256u64)
                .map(|i| {
                    inj.advance_to(Duration::from_millis(i / 2));
                    inj.deliver().unwrap_or(LOST)
                })
                .collect::<Vec<_>>()
        };
        let metro = FaultConfig {
            drop_prob: 0.01,
            max_jitter: Duration::from_micros(800),
            ..FaultConfig::clean()
        };
        assert_eq!(fates(metro), METRO_STREAM);
        let limited = FaultConfig {
            drop_prob: 0.1,
            max_jitter: Duration::from_micros(50),
            bucket_capacity: 4,
            refill_per_interval: 2,
            refill_interval: Duration::from_millis(2),
        };
        assert_eq!(fates(limited), LIMITED_STREAM);
    }

    #[test]
    fn rate_limiter_enforces_bucket() {
        let cfg = FaultConfig {
            bucket_capacity: 4,
            refill_per_interval: 2,
            refill_interval: Duration::from_millis(1),
            ..FaultConfig::clean()
        };
        let mut inj = FaultInjector::new(cfg, 4);
        let delivered = (0..10).filter(|_| inj.deliver().is_some()).count();
        assert_eq!(delivered, 4, "initial bucket only");
        inj.advance_to(Duration::from_millis(1));
        let after = (0..10).filter(|_| inj.deliver().is_some()).count();
        assert_eq!(after, 2, "one refill's worth");
    }

    #[test]
    fn advance_to_refills_on_sim_time_not_call_pattern() {
        // The lockstep regression: token state at time T must not depend
        // on whether the clock was advanced in one jump or many.
        let cfg = FaultConfig {
            bucket_capacity: 10,
            refill_per_interval: 1,
            refill_interval: Duration::from_millis(1),
            ..FaultConfig::clean()
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
            refill_per_interval: 1,
            refill_interval: Duration::from_millis(2),
            ..FaultConfig::clean()
        };
        let mut inj = FaultInjector::new(cfg, 2);
        // Drain the initial bucket.
        assert_eq!(drain(&mut inj), 100);
        // 3 ms = one whole 2 ms interval; the half-finished second
        // interval must complete at 4 ms, not restart from 3 ms.
        inj.advance_to(Duration::from_millis(3));
        inj.advance_to(Duration::from_millis(4));
        let delivered = (0..10).filter(|_| inj.deliver().is_some()).count();
        assert_eq!(delivered, 2, "refills at t=2ms and t=4ms exactly");
        // Going backwards is a no-op, not a panic or a refund.
        inj.advance_to(Duration::from_millis(1));
        assert_eq!(inj.deliver(), None);
    }

    /// A clocked link idle for 2^32 refill intervals or more is owed a
    /// full bucket. Counted in `u32`, exactly 2^32 intervals wrapped to 0
    /// refills: the bucket stayed empty and `refilled_at` stayed put.
    #[test]
    fn advance_to_counts_refills_past_u32() {
        let cfg = FaultConfig {
            bucket_capacity: 10,
            refill_per_interval: 3,
            refill_interval: Duration::from_micros(1),
            ..FaultConfig::clean()
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
        // more refill, not a backlog of refills.
        for inj in [&mut a, &mut b] {
            inj.advance_to(idle + Duration::from_micros(1));
            assert_eq!(drain(inj), 3, "one interval's tokens");
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
            let ns = inj.deliver().unwrap();
            assert!(u128::from(ns) <= MAX_JITTER.as_nanos());
        }
    }

    /// A zero `refill_interval` is a bucket that never refills: however
    /// far the clock moves, a drained link loses every frame.
    #[test]
    fn zero_interval_bucket_never_refills() {
        let cfg = FaultConfig {
            bucket_capacity: 4,
            refill_per_interval: 2,
            ..FaultConfig::clean()
        };
        let mut inj = FaultInjector::new(cfg, 3);
        assert_eq!(drain(&mut inj), 4);
        inj.advance_to(Duration::from_secs(10));
        assert_eq!(inj.deliver(), None, "refill_interval ZERO never refills");
    }

    #[test]
    fn jitter_bounded_by_config() {
        let cfg = FaultConfig {
            max_jitter: Duration::from_micros(100),
            ..FaultConfig::clean()
        };
        let mut inj = FaultInjector::new(cfg, 5);
        for _ in 0..1000 {
            let ns = inj.deliver().unwrap();
            assert!(ns <= 100_000);
        }
    }
}
