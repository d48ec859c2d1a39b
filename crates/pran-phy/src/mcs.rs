//! Modulation-and-coding schemes, CQI mapping and transport-block sizing.
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

/// A `u8` read from untrusted text, refused unless it lies in `range`:
/// both index types below look their tables up unchecked.
fn read_index(
    r: &mut serde::Reader<'_>,
    what: &str,
    range: std::ops::RangeInclusive<u8>,
) -> Result<u8, serde::Error> {
    let index = u8::read(r)?;
    if range.contains(&index) {
        Ok(index)
    } else {
        Err(serde::Error::new(format!(
            "{what} {index} out of range {}..={}",
            range.start(),
            range.end()
        )))
    }
}

impl Deserialize for Mcs {
    fn read(r: &mut serde::Reader<'_>) -> Result<Self, serde::Error> {
        read_index(r, "MCS index", 0..=Self::MAX_INDEX).map(Mcs)
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

    /// All MCS values, ascending.
    pub fn all() -> impl Iterator<Item = Mcs> {
        (0..=Self::MAX_INDEX).map(Mcs)
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
    pub fn bits_per_prb(self) -> f64 {
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

    /// The highest MCS whose efficiency does not exceed `target_eff`
    /// (bits/RE per layer); `None` if even MCS 0 exceeds it.
    pub fn from_efficiency(target_eff: f64) -> Option<Mcs> {
        let mut best = None;
        for m in Mcs::all() {
            if m.efficiency() <= target_eff {
                best = Some(m);
            } else {
                break;
            }
        }
        best
    }
}

impl fmt::Display for Mcs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MCS{}({})", self.0, self.modulation())
    }
}

/// Channel quality indicator, `1..=15`, as reported by UEs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct Cqi(u8);

impl Deserialize for Cqi {
    fn read(r: &mut serde::Reader<'_>) -> Result<Self, serde::Error> {
        read_index(r, "CQI", 1..=15).map(Cqi)
    }
}

/// Spectral efficiency targets per CQI (3GPP 36.213 Table 7.2.3-1 values).
const CQI_EFFICIENCY: [f64; 15] = [
    0.1523, 0.2344, 0.3770, 0.6016, 0.8770, 1.1758, 1.4766, 1.9141, 2.4063, 2.7305, 3.3223, 3.9023,
    4.5234, 5.1152, 5.5547,
];

impl Cqi {
    /// Construct from an index.
    ///
    /// # Panics
    /// Panics unless `1 ≤ index ≤ 15`.
    pub fn new(index: u8) -> Self {
        assert!((1..=15).contains(&index), "CQI out of range: {index}");
        Cqi(index)
    }

    /// The raw index.
    pub fn index(self) -> u8 {
        self.0
    }

    /// Spectral-efficiency target of this CQI (bits/RE).
    pub fn efficiency(self) -> f64 {
        CQI_EFFICIENCY[(self.0 - 1) as usize]
    }

    /// Map to the highest MCS not exceeding this CQI's efficiency.
    pub fn to_mcs(self) -> Mcs {
        Mcs::from_efficiency(self.efficiency()).unwrap_or(Mcs(0))
    }

    /// The highest CQI whose efficiency target is ≤ the given value;
    /// CQI 1 if none qualifies (out-of-range reports clamp low).
    pub fn from_efficiency(eff: f64) -> Cqi {
        let mut best = 1;
        for (i, &e) in CQI_EFFICIENCY.iter().enumerate() {
            if e <= eff {
                best = i as u8 + 1;
            }
        }
        Cqi(best)
    }
}

impl fmt::Display for Cqi {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CQI{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn efficiency_is_strictly_monotone() {
        let mut prev = 0.0;
        for m in Mcs::all() {
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
    fn cqi_roundtrip_through_efficiency() {
        for i in 1..=15u8 {
            let c = Cqi::new(i);
            assert_eq!(Cqi::from_efficiency(c.efficiency()), c);
        }
    }

    #[test]
    fn cqi_to_mcs_never_exceeds_reported_quality() {
        for i in 1..=15u8 {
            let c = Cqi::new(i);
            assert!(c.to_mcs().efficiency() <= c.efficiency() + 1e-12);
        }
    }

    #[test]
    fn cqi15_maps_to_high_mcs() {
        assert!(Cqi::new(15).to_mcs().index() >= 26);
    }

    #[test]
    fn from_efficiency_boundary() {
        assert_eq!(Mcs::from_efficiency(0.0), None);
        assert_eq!(Mcs::from_efficiency(100.0), Some(Mcs::new(28)));
    }

    #[test]
    fn bits_per_prb_reasonable() {
        // MCS 0 carries a handful of bits; MCS 28 several hundred.
        assert!(Mcs::new(0).bits_per_prb() > 10.0);
        assert!(Mcs::new(0).bits_per_prb() < 50.0);
        assert!(Mcs::new(28).bits_per_prb() > 700.0);
    }
}
