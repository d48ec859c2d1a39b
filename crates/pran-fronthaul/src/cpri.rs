//! CPRI-style constant-bit-rate fronthaul modeling.
//!
//! Classic C-RAN ships raw antenna I/Q over CPRI. The line rate is
//! load-independent — every TTI costs the same whether the cell is idle or
//! saturated — and scales with antennas × sample rate. That scaling is the
//! problem PRAN's partial centralization addresses, so this module computes
//! it exactly: `R = f_s · 2 · 15 · antennas · 16/15 · 10/8` (15-bit
//! samples, 16/15 control words, 8b/10b line coding).

use pran_phy::frame::Bandwidth;
use serde::{Deserialize, Serialize};

/// Bits per I or Q sample.
const SAMPLE_BITS: f64 = 15.0;

/// Control-word overhead factor.
const CONTROL_OVERHEAD: f64 = 16.0 / 15.0;

/// 8b/10b line-coding overhead factor (CPRI options 1–7).
const LINE_CODING: f64 = 10.0 / 8.0;

/// Required line rate in bit/s for one cell.
pub fn line_rate_bps(bw: Bandwidth, antennas: u32) -> f64 {
    bw.sample_rate()
        * 2.0 // I and Q
        * SAMPLE_BITS
        * f64::from(antennas)
        * CONTROL_OVERHEAD
        * LINE_CODING
}

/// The smallest standard CPRI option rate that carries the requirement,
/// or `None` if it exceeds option 10 (24.33 Gb/s).
pub fn required_option(bw: Bandwidth, antennas: u32) -> Option<CpriOption> {
    let need = line_rate_bps(bw, antennas);
    CpriOption::all().into_iter().find(|o| o.rate_bps() >= need)
}

/// Standard CPRI line-rate options.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
#[allow(missing_docs)] // the variants are self-describing rate tiers
pub enum CpriOption {
    Option1,
    Option2,
    Option3,
    Option4,
    Option5,
    Option6,
    Option7,
    Option8,
    Option9,
    Option10,
}

impl CpriOption {
    /// Nominal line rate of this option in bit/s.
    pub fn rate_bps(self) -> f64 {
        match self {
            CpriOption::Option1 => 614.4e6,
            CpriOption::Option2 => 1_228.8e6,
            CpriOption::Option3 => 2_457.6e6,
            CpriOption::Option4 => 3_072.0e6,
            CpriOption::Option5 => 4_915.2e6,
            CpriOption::Option6 => 6_144.0e6,
            CpriOption::Option7 => 9_830.4e6,
            CpriOption::Option8 => 10_137.6e6,
            CpriOption::Option9 => 12_165.12e6,
            CpriOption::Option10 => 24_330.24e6,
        }
    }

    /// All options, ascending by rate.
    pub fn all() -> [CpriOption; 10] {
        [
            CpriOption::Option1,
            CpriOption::Option2,
            CpriOption::Option3,
            CpriOption::Option4,
            CpriOption::Option5,
            CpriOption::Option6,
            CpriOption::Option7,
            CpriOption::Option8,
            CpriOption::Option9,
            CpriOption::Option10,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn famous_20mhz_single_antenna_rate() {
        // 30.72 Msps × 2 × 15 b × 16/15 × 10/8 = 1.2288 Gb/s.
        let rate = line_rate_bps(Bandwidth::Mhz20, 1);
        assert!((rate - 1.2288e9).abs() < 1.0, "rate {rate}");
    }

    #[test]
    fn rate_linear_in_antennas() {
        let one = line_rate_bps(Bandwidth::Mhz20, 1);
        let four = line_rate_bps(Bandwidth::Mhz20, 4);
        assert!((four - 4.0 * one).abs() < 1.0);
    }

    #[test]
    fn rate_scales_with_bandwidth() {
        assert!(line_rate_bps(Bandwidth::Mhz20, 2) > line_rate_bps(Bandwidth::Mhz10, 2));
    }

    #[test]
    fn option_selection() {
        // 20 MHz × 2 antennas = 2.4576 Gb/s → exactly option 3.
        assert_eq!(
            required_option(Bandwidth::Mhz20, 2),
            Some(CpriOption::Option3)
        );
        // 20 MHz × 8 antennas ≈ 9.83 Gb/s → option 7.
        assert_eq!(
            required_option(Bandwidth::Mhz20, 8),
            Some(CpriOption::Option7)
        );
        // Absurd antenna counts exceed every option.
        assert_eq!(required_option(Bandwidth::Mhz20, 64), None);
    }

    #[test]
    fn options_ascending() {
        let all = CpriOption::all();
        for w in all.windows(2) {
            assert!(w[0].rate_bps() < w[1].rate_bps());
        }
    }
}
