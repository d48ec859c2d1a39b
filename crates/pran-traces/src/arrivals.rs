//! Stochastic arrival processes layered on the diurnal envelope.
//!
//! The envelope fixes the *expected* load; short-timescale burstiness comes
//! from user arrivals. Two processes are provided: homogeneous Poisson (the
//! classical baseline) and a 2-state Markov-modulated Poisson process
//! (MMPP-2) whose bursty state captures flash-crowd-like clustering at
//! second scale. Both produce per-step *active session counts* via an
//! M/G/∞-style session model: arrivals join, sessions last an
//! exponentially distributed holding time.

use rand::Rng;

/// Sample a Poisson random variate with mean `lambda` (Knuth's method for
/// small means, normal approximation above 30 to stay O(1)).
pub fn poisson<R: Rng + ?Sized>(lambda: f64, rng: &mut R) -> u64 {
    if lambda <= 0.0 {
        return 0;
    }
    if lambda > 30.0 {
        // Normal approximation with continuity correction.
        let g = standard_normal(rng);
        return (lambda + lambda.sqrt() * g + 0.5).max(0.0) as u64;
    }
    let l = (-lambda).exp();
    let mut k = 0u64;
    let mut p = 1.0;
    loop {
        p *= rng.gen::<f64>();
        if p <= l {
            return k;
        }
        k += 1;
    }
}

/// Sample an exponential variate with the given mean.
pub fn exponential<R: Rng + ?Sized>(mean: f64, rng: &mut R) -> f64 {
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    -mean * u.ln()
}

/// One standard normal variate (Box–Muller).
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// A 2-state Markov-modulated Poisson process.
///
/// State 0 is "calm" (rate `rate_calm`), state 1 is "bursty"
/// (`rate_burst`). Transitions occur per step with the given probabilities.
#[derive(Debug, Clone)]
pub struct Mmpp2 {
    /// Arrival rate per step in the calm state.
    pub rate_calm: f64,
    /// Arrival rate per step in the bursty state.
    pub rate_burst: f64,
    /// P(calm → burst) per step.
    pub p_enter_burst: f64,
    /// P(burst → calm) per step.
    pub p_exit_burst: f64,
    state: u8,
}

impl Mmpp2 {
    /// Create in the calm state.
    pub fn new(rate_calm: f64, rate_burst: f64, p_enter_burst: f64, p_exit_burst: f64) -> Self {
        assert!(rate_calm >= 0.0 && rate_burst >= 0.0);
        assert!((0.0..=1.0).contains(&p_enter_burst));
        assert!((0.0..=1.0).contains(&p_exit_burst));
        Mmpp2 {
            rate_calm,
            rate_burst,
            p_enter_burst,
            p_exit_burst,
            state: 0,
        }
    }

    /// Advance one step: maybe switch state, then emit an arrival count.
    pub fn step<R: Rng + ?Sized>(&mut self, rng: &mut R) -> u64 {
        let flip: f64 = rng.gen();
        if self.state == 0 && flip < self.p_enter_burst {
            self.state = 1;
        } else if self.state == 1 && flip < self.p_exit_burst {
            self.state = 0;
        }
        let rate = if self.state == 0 {
            self.rate_calm
        } else {
            self.rate_burst
        };
        poisson(rate, rng)
    }

    /// Long-run average arrival rate.
    pub fn stationary_rate(&self) -> f64 {
        let denom = self.p_enter_burst + self.p_exit_burst;
        if denom == 0.0 {
            return self.rate_calm;
        }
        let pi_burst = self.p_enter_burst / denom;
        self.rate_calm * (1.0 - pi_burst) + self.rate_burst * pi_burst
    }
}

/// M/G/∞-style session pool: arrivals enter, each holds for an exponential
/// time, and the per-step output is the number of concurrently active
/// sessions.
#[derive(Debug, Clone)]
pub struct SessionPool {
    /// Mean session duration in steps.
    pub mean_duration_steps: f64,
    /// Remaining lifetimes of active sessions, in steps.
    remaining: Vec<f64>,
}

impl SessionPool {
    /// Empty pool.
    pub fn new(mean_duration_steps: f64) -> Self {
        assert!(mean_duration_steps > 0.0);
        SessionPool {
            mean_duration_steps,
            remaining: Vec::new(),
        }
    }

    /// Advance one step with `arrivals` new sessions; returns the number of
    /// active sessions after aging.
    pub fn step<R: Rng + ?Sized>(&mut self, arrivals: u64, rng: &mut R) -> usize {
        for r in self.remaining.iter_mut() {
            *r -= 1.0;
        }
        self.remaining.retain(|&r| r > 0.0);
        for _ in 0..arrivals {
            self.remaining
                .push(exponential(self.mean_duration_steps, rng));
        }
        self.remaining.len()
    }

    /// Currently active sessions.
    pub fn active(&self) -> usize {
        self.remaining.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn poisson_mean_tracks_lambda() {
        let mut rng = SmallRng::seed_from_u64(1);
        for &lambda in &[0.5, 3.0, 12.0, 80.0] {
            let n = 20_000;
            let sum: u64 = (0..n).map(|_| poisson(lambda, &mut rng)).sum();
            let mean = sum as f64 / n as f64;
            assert!(
                (mean - lambda).abs() < lambda.max(1.0) * 0.05,
                "lambda {lambda}: mean {mean}"
            );
        }
    }

    #[test]
    fn poisson_zero_lambda() {
        let mut rng = SmallRng::seed_from_u64(2);
        assert_eq!(poisson(0.0, &mut rng), 0);
        assert_eq!(poisson(-1.0, &mut rng), 0);
    }

    #[test]
    fn exponential_mean() {
        let mut rng = SmallRng::seed_from_u64(3);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| exponential(4.0, &mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 4.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn mmpp_stationary_rate_formula() {
        let m = Mmpp2::new(2.0, 20.0, 0.1, 0.3);
        let expect = 2.0 * 0.75 + 20.0 * 0.25;
        assert!((m.stationary_rate() - expect).abs() < 1e-12);
    }

    #[test]
    fn mmpp_empirical_rate_matches_stationary() {
        let mut rng = SmallRng::seed_from_u64(4);
        let mut m = Mmpp2::new(1.0, 15.0, 0.05, 0.2);
        let n = 100_000;
        let total: u64 = (0..n).map(|_| m.step(&mut rng)).sum();
        let rate = total as f64 / n as f64;
        let expect = m.stationary_rate();
        assert!(
            (rate - expect).abs() < expect * 0.1,
            "rate {rate} vs {expect}"
        );
    }

    #[test]
    fn mmpp_is_burstier_than_poisson() {
        // Index of dispersion (var/mean) should exceed 1 for MMPP.
        let mut rng = SmallRng::seed_from_u64(5);
        let mut m = Mmpp2::new(1.0, 30.0, 0.02, 0.1);
        let samples: Vec<f64> = (0..50_000).map(|_| m.step(&mut rng) as f64).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / samples.len() as f64;
        assert!(var / mean > 2.0, "dispersion {}", var / mean);
    }

    #[test]
    fn session_pool_reaches_littles_law_level() {
        // M/G/∞: E[active] = λ · E[S].
        let mut rng = SmallRng::seed_from_u64(6);
        let mut pool = SessionPool::new(10.0);
        let lambda = 5.0;
        // Warm up.
        for _ in 0..200 {
            pool.step(poisson(lambda, &mut rng), &mut rng);
        }
        let n = 5_000;
        let mean: f64 = (0..n)
            .map(|_| pool.step(poisson(lambda, &mut rng), &mut rng) as f64)
            .sum::<f64>()
            / n as f64;
        let expect = lambda * 10.0;
        assert!(
            (mean - expect).abs() < expect * 0.1,
            "mean {mean} vs {expect}"
        );
    }

    #[test]
    fn session_pool_drains_without_arrivals() {
        let mut rng = SmallRng::seed_from_u64(7);
        let mut pool = SessionPool::new(5.0);
        pool.step(100, &mut rng);
        assert_eq!(pool.active(), 100);
        for _ in 0..200 {
            pool.step(0, &mut rng);
        }
        assert_eq!(pool.active(), 0);
    }
}
