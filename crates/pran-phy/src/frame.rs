//! LTE frame structure: frames, subframes (TTIs), resource blocks.
//!
//! PRAN's real-time story is anchored on the LTE numerology — a 1 ms
//! transmission time interval, a 3 ms HARQ turnaround and a per-TTI grid of
//! physical resource blocks (PRBs). These types are the vocabulary every
//! other crate speaks.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::time::Duration;

/// Duration of one subframe / TTI.
pub const TTI: Duration = Duration::from_millis(1);

/// Subframes per radio frame.
pub const SUBFRAMES_PER_FRAME: u64 = 10;

/// OFDM symbols per subframe with normal cyclic prefix (2 slots × 7).
pub const SYMBOLS_PER_SUBFRAME: u32 = 14;

/// Subcarriers per physical resource block.
pub const SUBCARRIERS_PER_PRB: u32 = 12;

/// Subcarrier spacing in Hz (LTE numerology).
const SUBCARRIER_SPACING_HZ: f64 = 15_000.0;

/// The LTE HARQ processing budget: ACK/NACK is due 4 subframes after
/// reception, of which ~1 ms is propagation/transmission, leaving roughly
/// 3 ms and, once fronthaul transport is accounted, ~2 ms of compute budget.
/// This is the deadline the real-time scheduler enforces.
pub const HARQ_DEADLINE: Duration = Duration::from_millis(3);

/// Default per-subframe compute budget after fronthaul transport.
pub const COMPUTE_DEADLINE: Duration = Duration::from_millis(2);

/// Channel bandwidth options and their PRB counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Bandwidth {
    /// 1.4 MHz → 6 PRB
    Mhz1_4,
    /// 3 MHz → 15 PRB
    Mhz3,
    /// 5 MHz → 25 PRB
    Mhz5,
    /// 10 MHz → 50 PRB
    Mhz10,
    /// 15 MHz → 75 PRB
    Mhz15,
    /// 20 MHz → 100 PRB
    Mhz20,
}

impl Bandwidth {
    /// Number of PRBs available per TTI at this bandwidth.
    pub fn prbs(self) -> u32 {
        match self {
            Bandwidth::Mhz1_4 => 6,
            Bandwidth::Mhz3 => 15,
            Bandwidth::Mhz5 => 25,
            Bandwidth::Mhz10 => 50,
            Bandwidth::Mhz15 => 75,
            Bandwidth::Mhz20 => 100,
        }
    }

    /// PRBs in use at a utilization in `[0, 1]` (clamped), rounded to the
    /// nearest whole PRB, halves up — the one place a load fraction
    /// becomes a grant. A NaN utilization is 0 PRBs.
    ///
    /// This is `f64::round` without calling it: on the baseline x86-64
    /// target (no SSE4.1) that is a software routine, and every cell of
    /// every step rounds here. For `0 ≤ x < 2^52`, `x − trunc(x)` is
    /// exact, so comparing it with ½ rounds exactly as `round` does, and
    /// a NaN truncates to 0 and compares false.
    #[inline]
    pub fn prbs_at(self, utilization: f64) -> u32 {
        let x = f64::from(self.prbs()) * utilization.clamp(0.0, 1.0);
        let whole = x as u32;
        whole + u32::from(x - f64::from(whole) >= 0.5)
    }

    /// FFT size used for OFDM processing at this bandwidth.
    pub fn fft_size(self) -> usize {
        match self {
            Bandwidth::Mhz1_4 => 128,
            Bandwidth::Mhz3 => 256,
            Bandwidth::Mhz5 => 512,
            Bandwidth::Mhz10 => 1024,
            Bandwidth::Mhz15 => 1536,
            Bandwidth::Mhz20 => 2048,
        }
    }

    /// Baseband I/Q sampling rate in samples/s (FFT size × 15 kHz).
    pub fn sample_rate(self) -> f64 {
        self.fft_size() as f64 * SUBCARRIER_SPACING_HZ
    }

    /// All defined bandwidths, ascending.
    pub fn all() -> [Bandwidth; 6] {
        [
            Bandwidth::Mhz1_4,
            Bandwidth::Mhz3,
            Bandwidth::Mhz5,
            Bandwidth::Mhz10,
            Bandwidth::Mhz15,
            Bandwidth::Mhz20,
        ]
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Bandwidth::Mhz1_4 => "1.4 MHz",
            Bandwidth::Mhz3 => "3 MHz",
            Bandwidth::Mhz5 => "5 MHz",
            Bandwidth::Mhz10 => "10 MHz",
            Bandwidth::Mhz15 => "15 MHz",
            Bandwidth::Mhz20 => "20 MHz",
        };
        f.write_str(s)
    }
}

/// Index of a TTI since system start (1 ms granularity).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize,
)]
pub struct Tti(pub u64);

impl Tti {
    /// The TTI `n` steps later.
    pub fn advance(self, n: u64) -> Tti {
        Tti(self.0 + n)
    }

    /// System frame number (SFN) of this TTI.
    pub fn frame(self) -> u64 {
        self.0 / SUBFRAMES_PER_FRAME
    }

    /// Subframe index within the frame, `0..10`.
    pub fn subframe(self) -> u64 {
        self.0 % SUBFRAMES_PER_FRAME
    }

    /// Wall-clock offset from TTI 0.
    pub fn start_time(self) -> Duration {
        TTI * self.0 as u32
    }
}

impl fmt::Display for Tti {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tti{}({}/{})", self.0, self.frame(), self.subframe())
    }
}

/// Link direction of a transport block / processing task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Direction {
    /// UE → network (receive processing at the pool).
    Uplink,
    /// Network → UE (transmit processing at the pool).
    Downlink,
}

impl Direction {
    /// Both directions, uplink first.
    pub fn both() -> [Direction; 2] {
        [Direction::Uplink, Direction::Downlink]
    }
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Direction::Uplink => "UL",
            Direction::Downlink => "DL",
        })
    }
}

/// A contiguous PRB allocation inside one TTI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PrbAllocation {
    /// First PRB index.
    pub start: u32,
    /// Number of PRBs.
    pub count: u32,
}

impl PrbAllocation {
    /// Create an allocation; `count` may be zero (empty grant).
    pub fn new(start: u32, count: u32) -> Self {
        PrbAllocation { start, count }
    }

    /// One PRB past the end.
    pub fn end(self) -> u32 {
        self.start + self.count
    }

    /// Whether the allocation fits within a bandwidth's grid.
    pub fn fits(self, bw: Bandwidth) -> bool {
        self.end() <= bw.prbs()
    }
}

/// Antenna / MIMO configuration of a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AntennaConfig {
    /// Physical antennas at the RU.
    pub antennas: u32,
    /// Spatial multiplexing layers in use (≤ antennas).
    pub layers: u32,
}

impl AntennaConfig {
    /// Build a config; layers are clamped to the antenna count.
    pub fn new(antennas: u32, layers: u32) -> Self {
        assert!(antennas >= 1, "at least one antenna required");
        AntennaConfig {
            antennas,
            layers: layers.clamp(1, antennas),
        }
    }

    /// The PRAN evaluation default: 4 antennas, 2 layers.
    pub fn pran_default() -> Self {
        AntennaConfig {
            antennas: 4,
            layers: 2,
        }
    }
}

impl Default for AntennaConfig {
    fn default() -> Self {
        Self::pran_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_prb_table() {
        assert_eq!(Bandwidth::Mhz20.prbs(), 100);
        assert_eq!(Bandwidth::Mhz1_4.prbs(), 6);
        // PRB counts strictly increase with bandwidth.
        let all = Bandwidth::all();
        for w in all.windows(2) {
            assert!(w[0].prbs() < w[1].prbs());
        }
    }

    /// `prbs_at` is `(prbs × clamp(u, 0, 1)).round()` on every
    /// bandwidth: at each half-PRB boundary `k/2` and 4 ulps either side
    /// (of the utilization), on a fine sweep of `[0, 1]`, and on NaN, ±0,
    /// negative, above-one, infinite and subnormal utilizations.
    #[test]
    fn prbs_at_rounds_as_f64_round() {
        let reference =
            |bw: Bandwidth, u: f64| (f64::from(bw.prbs()) * u.clamp(0.0, 1.0)).round() as u32;
        let check = |bw: Bandwidth, u: f64| {
            assert_eq!(
                bw.prbs_at(u),
                reference(bw, u),
                "{bw}, utilization {u:e} ({:#x})",
                u.to_bits()
            );
        };
        let around = |u: f64| {
            let (mut down, mut up) = ([u; 5], [u; 5]);
            for i in 1..5 {
                down[i] = down[i - 1].next_down();
                up[i] = up[i - 1].next_up();
            }
            down.into_iter().chain(up)
        };
        let specials = [
            f64::NAN,
            0.0,
            -0.0,
            -1e-300,
            -0.5,
            -1.0,
            f64::NEG_INFINITY,
            1.0,
            1.0 + f64::EPSILON,
            1.5,
            1e300,
            f64::INFINITY,
            f64::from_bits(1),
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE.next_down(),
        ];
        let mut at_half = 0;
        for bw in Bandwidth::all() {
            let prbs = f64::from(bw.prbs());
            for k in 0..=2 * bw.prbs() {
                let u = f64::from(k) / 2.0 / prbs;
                around(u).for_each(|u| check(bw, u));
                // The boundary itself lands on an exact half-PRB when the
                // product comes back exact: the case `round` takes up.
                at_half += usize::from(k % 2 == 1 && prbs * u == f64::from(k) / 2.0);
            }
            for i in 0..=100_000 {
                check(bw, f64::from(i) / 100_000.0);
            }
            specials.into_iter().for_each(|u| check(bw, u));
            assert_eq!(bw.prbs_at(f64::NAN), 0);
            assert_eq!(bw.prbs_at(2.0), bw.prbs());
        }
        assert!(at_half > 0, "no exact half-PRB product was checked");
    }

    #[test]
    fn sample_rate_matches_lte_numerology() {
        // 20 MHz LTE is famously 30.72 Msps.
        assert_eq!(Bandwidth::Mhz20.sample_rate(), 30_720_000.0);
        assert_eq!(Bandwidth::Mhz10.sample_rate(), 15_360_000.0);
    }

    #[test]
    fn tti_frame_math() {
        let t = Tti(25);
        assert_eq!(t.frame(), 2);
        assert_eq!(t.subframe(), 5);
        assert_eq!(t.advance(5).0, 30);
        assert_eq!(t.start_time(), Duration::from_millis(25));
    }

    #[test]
    fn prb_allocation_overlap() {
        let a = PrbAllocation::new(0, 10);
        assert!(a.fits(Bandwidth::Mhz5));
        assert!(!PrbAllocation::new(95, 10).fits(Bandwidth::Mhz20));
    }

    #[test]
    fn antenna_layers_clamped() {
        let c = AntennaConfig::new(2, 8);
        assert_eq!(c.layers, 2);
        assert_eq!(AntennaConfig::pran_default().antennas, 4);
    }
}
