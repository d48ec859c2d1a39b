//! Host-speed calibration.
//!
//! The hosts this benchmark runs on are a few vCPUs of a shared machine,
//! and each vCPU moves between two speeds some 25 % apart that last
//! seconds to tens of seconds each (a busy or idle sibling hyperthread;
//! see the noise study in `README.md`). A run of ten seconds lands in one
//! or the other, so identical code reads 25 % apart and no statistic
//! inside the run can tell.
//!
//! What can: a fixed piece of work timed beside the measured work. The
//! [`kernel`] is a few hundred microseconds of integer and cache-resident
//! memory work that never changes; [`HostLevel`] times it before and
//! after every timed interval, on as many threads as the workload keeps
//! busy, and the interval's *calibrated* seconds are its wall seconds
//! divided by how much slower than [`KERNEL_NOMINAL_S`] the kernel ran.
//! Time metrics are reported in calibrated seconds — host time at the
//! reference speed — and the raw wall readings are printed beside them.

use std::time::Instant;

/// Iterations of one [`kernel`] run.
const KERNEL_ITERATIONS: u64 = 100_000;

/// Seconds one [`kernel`] run takes at the reference speed: the fast
/// level of the host this benchmark was written on (Intel Xeon @
/// 2.10 GHz, Firecracker guest), where calibrated and wall seconds agree.
pub const KERNEL_NOMINAL_S: f64 = 0.000_458;

/// Kernel runs per sample; the sample is their median, so one interrupt
/// does not read as a slow host.
const RUNS_PER_SAMPLE: usize = 3;

/// A sample younger than this still stands for "now".
const FRESH_S: f64 = 0.002;

/// One run of the reference kernel: xorshift, a 32 KiB table walked at
/// random and a data-dependent branch. Returns its wall seconds.
pub fn kernel() -> f64 {
    let t = Instant::now();
    let mut x: u64 = 88_172_645_463_325_252;
    let mut table = [0u64; 4096];
    let mut acc = 0u64;
    for i in 0..KERNEL_ITERATIONS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let k = (x as usize) & 4095;
        table[k] = table[k].wrapping_add(x ^ i);
        if table[k] & 1 == 0 {
            acc = acc.wrapping_add(table[(k * 7) & 4095]);
        }
    }
    std::hint::black_box(acc);
    t.elapsed().as_secs_f64()
}

/// Median of [`RUNS_PER_SAMPLE`] kernel runs on the calling thread, as a
/// multiple of [`KERNEL_NOMINAL_S`].
fn sample_here() -> f64 {
    let mut runs = [0.0; RUNS_PER_SAMPLE];
    for run in &mut runs {
        *run = kernel();
    }
    runs.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    runs[RUNS_PER_SAMPLE / 2] / KERNEL_NOMINAL_S
}

/// How slow the host is right now, as a multiple of the reference speed
/// (1.0 = reference, 1.25 = a quarter slower), on `threads` threads at
/// once — the caller's and `threads - 1` helpers: their mean.
fn sample(threads: usize) -> f64 {
    std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..threads).map(|_| scope.spawn(sample_here)).collect();
        let total = helpers.into_iter().fold(sample_here(), |sum, helper| {
            sum + helper.join().expect("the kernel does not panic")
        });
        total / threads.max(1) as f64
    })
}

/// Wall and calibrated seconds of one timed interval (or, added up, of
/// several).
#[derive(Debug, Default, Clone, Copy)]
pub struct Timed {
    /// Wall seconds, as the clock read them.
    pub raw_s: f64,
    /// Wall seconds divided by the host level over the interval.
    pub cal_s: f64,
}

impl Timed {
    /// A part of this interval that took `raw_s` wall seconds, at the
    /// interval's host level.
    pub fn part(&self, raw_s: f64) -> Timed {
        Timed {
            raw_s,
            cal_s: raw_s * self.cal_s / self.raw_s,
        }
    }
}

impl std::ops::AddAssign for Timed {
    fn add_assign(&mut self, other: Timed) {
        self.raw_s += other.raw_s;
        self.cal_s += other.cal_s;
    }
}

/// The host's speed, sampled round timed intervals.
pub struct HostLevel {
    /// Thread counts sampled one after the other; a sample is their mean.
    threads: &'static [usize],
    /// The latest sample and when it was taken.
    last: Option<(f64, Instant)>,
    /// Every level an interval was divided by.
    pub levels: Vec<f64>,
}

impl HostLevel {
    /// Calibrate for a workload that keeps `threads` threads busy; one
    /// that alternates between serial and parallel phases names both
    /// counts and is divided by the mean of their levels.
    pub fn new(threads: &'static [usize]) -> Self {
        HostLevel {
            threads,
            last: None,
            levels: Vec::new(),
        }
    }

    fn sample(&mut self) -> f64 {
        let level =
            self.threads.iter().map(|&n| sample(n)).sum::<f64>() / self.threads.len() as f64;
        self.last = Some((level, Instant::now()));
        level
    }

    /// Run `work` with a level sample either side (the one before is
    /// reused when the last interval's closing sample is still fresh).
    pub fn time<T>(&mut self, work: impl FnOnce() -> T) -> (T, Timed) {
        let before = match self.last {
            Some((level, at)) if at.elapsed().as_secs_f64() <= FRESH_S => level,
            _ => self.sample(),
        };
        let t = Instant::now();
        let result = work();
        let raw_s = t.elapsed().as_secs_f64();
        let level = (before + self.sample()) / 2.0;
        self.levels.push(level);
        (
            result,
            Timed {
                raw_s,
                cal_s: raw_s / level,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibrated_seconds_are_wall_seconds_over_the_level() {
        let mut host = HostLevel::new(&[1]);
        let ((), timed) = host.time(|| {
            kernel();
        });
        let level = host.levels[0];
        assert!(level > 0.0 && timed.raw_s > 0.0);
        assert_eq!(timed.cal_s, timed.raw_s / level);
        // Two threads sample at once and still give one level.
        let mut pair = HostLevel::new(&[2]);
        pair.time(kernel);
        assert_eq!(pair.levels.len(), 1);
    }
}
