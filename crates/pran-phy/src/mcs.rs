//! Modulation-and-coding schemes and transport-block sizing.
//!
//! The tables are LTE-shaped approximations: 29 MCS indices spanning QPSK,
//! 16-QAM and 64-QAM with monotonically increasing code rates, calibrated so
//! that a 20 MHz, 2-layer cell at MCS 28 carries ≈150 Mb/s — the familiar
//! LTE Cat-4 peak. Exact 3GPP TBS tables are deliberately not transcribed;
//! every consumer in this workspace depends only on *monotone, realistic*
//! efficiency, not on bit-exact TBS values.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Modulation formats supported by the (2014-era LTE) PHY.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Modulation {
    /// 2 bits/symbol.
    Qpsk,
    /// 4 bits/symbol.
    Qam16,
    /// 6 bits/symbol.
    Qam64,
}

impl Modulation {
    /// Bits carried per modulation symbol.
    pub fn bits_per_symbol(self) -> u32 {
        match self {
            Modulation::Qpsk => 2,
            Modulation::Qam16 => 4,
            Modulation::Qam64 => 6,
        }
    }

    /// Constellation size.
    pub fn points(self) -> usize {
        1 << self.bits_per_symbol()
    }
}

impl fmt::Display for Modulation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Modulation::Qpsk => "QPSK",
            Modulation::Qam16 => "16QAM",
            Modulation::Qam64 => "64QAM",
        })
    }
}

/// Resource elements per PRB usable for data after control-region and
/// reference-signal overhead (approximation: 168 raw − PDCCH − CRS).
pub const DATA_RE_PER_PRB: u32 = 138;

/// Approximate code rate (×1024) per MCS index.
///
/// Indices 0–9 are QPSK, 10–16 are 16-QAM, 17–28 are 64-QAM; rates increase
/// monotonically within and across segments (in *effective throughput*
/// terms, i.e. `Qm × rate` is globally monotone).
const CODE_RATE_X1024: [u32; 29] = [
    76, 102, 132, 170, 220, 285, 370, 450, 530, 616, // QPSK
    340, 390, 450, 510, 570, 640, 710, // 16QAM
    478, 520, 565, 610, 666, 720, 772, 822, 873, 910, 925, 948, // 64QAM
];

/// A modulation-and-coding-scheme index, `0..=28`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct Mcs(u8);

/// Refuses an index past the table from untrusted text: `Mcs` looks its
/// table up unchecked. Not derived, because a derive does not validate.
impl Deserialize for Mcs {
    fn read(r: &mut serde::Reader<'_>) -> Result<Self, serde::Error> {
        let index = u8::read(r)?;
        if index <= Self::MAX_INDEX {
            Ok(Mcs(index))
        } else {
            Err(serde::Error::new(format!(
                "MCS index {index} out of range 0..={}",
                Self::MAX_INDEX
            )))
        }
    }
}

impl Mcs {
    /// Highest defined index.
    pub const MAX_INDEX: u8 = 28;

    /// Construct from an index.
    ///
    /// # Panics
    /// Panics if `index > 28`.
    pub fn new(index: u8) -> Self {
        assert!(index <= Self::MAX_INDEX, "MCS index out of range: {index}");
        Mcs(index)
    }

    /// Construct, clamping to the valid range.
    pub fn clamped(index: u8) -> Self {
        Mcs(index.min(Self::MAX_INDEX))
    }

    /// The raw index.
    pub fn index(self) -> u8 {
        self.0
    }

    /// Modulation format of this MCS.
    pub fn modulation(self) -> Modulation {
        match self.0 {
            0..=9 => Modulation::Qpsk,
            10..=16 => Modulation::Qam16,
            _ => Modulation::Qam64,
        }
    }

    /// Approximate channel code rate in `(0, 1)`.
    pub fn code_rate(self) -> f64 {
        f64::from(CODE_RATE_X1024[self.0 as usize]) / 1024.0
    }

    /// Spectral efficiency in information bits per resource element
    /// (`Qm × rate`), per layer.
    pub fn efficiency(self) -> f64 {
        f64::from(self.modulation().bits_per_symbol()) * self.code_rate()
    }

    /// Information bits carried by one PRB in one TTI, per layer.
    fn bits_per_prb(self) -> f64 {
        self.efficiency() * f64::from(DATA_RE_PER_PRB)
    }

    /// Transport block size in bits for an allocation of `prbs` PRBs across
    /// `layers` spatial layers (one TTI).
    pub fn transport_block_bits(self, prbs: u32, layers: u32) -> u64 {
        (self.bits_per_prb() * f64::from(prbs) * f64::from(layers)).floor() as u64
    }

    /// Achievable data rate in bit/s for a sustained allocation.
    pub fn rate_bps(self, prbs: u32, layers: u32) -> f64 {
        self.transport_block_bits(prbs, layers) as f64 * 1000.0
    }
}

impl fmt::Display for Mcs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MCS{}({})", self.0, self.modulation())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn efficiency_is_strictly_monotone() {
        let mut prev = 0.0;
        for m in (0..=Mcs::MAX_INDEX).map(Mcs) {
            assert!(
                m.efficiency() > prev,
                "efficiency not monotone at {m}: {} <= {prev}",
                m.efficiency()
            );
            prev = m.efficiency();
        }
    }

    #[test]
    fn modulation_segments() {
        assert_eq!(Mcs::new(0).modulation(), Modulation::Qpsk);
        assert_eq!(Mcs::new(9).modulation(), Modulation::Qpsk);
        assert_eq!(Mcs::new(10).modulation(), Modulation::Qam16);
        assert_eq!(Mcs::new(16).modulation(), Modulation::Qam16);
        assert_eq!(Mcs::new(17).modulation(), Modulation::Qam64);
        assert_eq!(Mcs::new(28).modulation(), Modulation::Qam64);
    }

    #[test]
    fn peak_rate_matches_lte_cat4_ballpark() {
        // 20 MHz, 2 layers, MCS 28 ≈ 150 Mb/s within 10%.
        let rate = Mcs::new(28).rate_bps(100, 2);
        assert!(
            (135e6..170e6).contains(&rate),
            "peak rate {:.1} Mb/s out of expected band",
            rate / 1e6
        );
    }

    #[test]
    fn transport_block_scales_linearly_in_prbs() {
        let m = Mcs::new(15);
        let one = m.transport_block_bits(1, 1);
        let fifty = m.transport_block_bits(50, 1);
        // Allow floor() rounding slack.
        assert!((fifty as i64 - 50 * one as i64).unsigned_abs() <= 50);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn mcs_range_enforced() {
        Mcs::new(29);
    }

    #[test]
    fn clamped_saturates() {
        assert_eq!(Mcs::clamped(100).index(), 28);
        assert_eq!(Mcs::clamped(3).index(), 3);
    }

    #[test]
    fn bits_per_prb_reasonable() {
        // MCS 0 carries a handful of bits; MCS 28 several hundred.
        assert!(Mcs::new(0).bits_per_prb() > 10.0);
        assert!(Mcs::new(0).bits_per_prb() < 50.0);
        assert!(Mcs::new(28).bits_per_prb() > 700.0);
    }
}
