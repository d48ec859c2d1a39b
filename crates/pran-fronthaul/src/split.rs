//! Functional-split bandwidth and latency models.
//!
//! PRAN's fronthaul insight: the further down the PHY the front-end/pool
//! boundary sits, the more the required fronthaul bandwidth looks like raw
//! I/Q (huge, constant); the further up, the more it looks like user
//! traffic (small, load-proportional) — but high splits give up pooled
//! PHY processing and tighten nothing. Each [`FunctionalSplit`] computes its
//! required bandwidth as a function of load and its one-way latency
//! requirement; experiment E7 sweeps them.

use pran_phy::frame::{AntennaConfig, Bandwidth, SUBCARRIERS_PER_PRB};
use pran_phy::mcs::Mcs;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::time::Duration;

use crate::cpri;

/// Where the front-end / pool boundary sits in the receive pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FunctionalSplit {
    /// Time-domain I/Q over CPRI (classic C-RAN; everything pooled).
    TimeDomainIq,
    /// Frequency-domain subcarriers after FFT (PRAN's default: FFT at the
    /// front-end, everything else pooled). Only occupied subcarriers ship.
    FrequencyDomain,
    /// Soft bits after demodulation (front-end does FFT+equalize+demod).
    SoftBits,
    /// Transport blocks after decode (MAC-PHY split; almost nothing pooled).
    TransportBlocks,
}

impl FunctionalSplit {
    /// All splits, from lowest (most centralized) to highest.
    pub fn all() -> [FunctionalSplit; 4] {
        [
            FunctionalSplit::TimeDomainIq,
            FunctionalSplit::FrequencyDomain,
            FunctionalSplit::SoftBits,
            FunctionalSplit::TransportBlocks,
        ]
    }

    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            FunctionalSplit::TimeDomainIq => "IQ/CPRI",
            FunctionalSplit::FrequencyDomain => "freq-domain",
            FunctionalSplit::SoftBits => "soft-bits",
            FunctionalSplit::TransportBlocks => "transport-blocks",
        }
    }

    /// Fraction of baseband compute that remains poolable under this split
    /// (1.0 = everything in the pool, matching
    /// [`pran_phy::compute::ComputeModel`]'s uplink stage shares).
    pub fn pooled_compute_fraction(self) -> f64 {
        match self {
            FunctionalSplit::TimeDomainIq => 1.0,
            // FFT (~10 %) stays at the front-end.
            FunctionalSplit::FrequencyDomain => 0.90,
            // FFT + chest + equalization + demod stay out (~35 %).
            FunctionalSplit::SoftBits => 0.65,
            // Only L2 bookkeeping pooled.
            FunctionalSplit::TransportBlocks => 0.05,
        }
    }

    /// Required one-way fronthaul bandwidth in bit/s for one cell at the
    /// given PRB `utilization ∈ [0, 1]` and average `mcs`.
    pub fn bandwidth_bps(
        self,
        bw: Bandwidth,
        antennas: AntennaConfig,
        utilization: f64,
        mcs: Mcs,
    ) -> f64 {
        let utilization = utilization.clamp(0.0, 1.0);
        match self {
            FunctionalSplit::TimeDomainIq => cpri::line_rate_bps(bw, antennas.antennas),
            FunctionalSplit::FrequencyDomain => {
                // Occupied subcarriers × symbols/s × 2 × bits, per antenna.
                // Reference signals keep ~10 % of the grid busy even idle.
                let active_frac = utilization.max(0.1);
                let sc = f64::from(bw.prbs() * SUBCARRIERS_PER_PRB) * active_frac;
                let symbols_per_s = 14_000.0;
                let bits_per_sample = 2.0 * 9.0; // compressed I/Q
                sc * symbols_per_s * bits_per_sample * f64::from(antennas.antennas)
            }
            FunctionalSplit::SoftBits => {
                // LLRs per coded bit (e.g. 6-bit quantization), per layer.
                let qm = f64::from(mcs.modulation().bits_per_symbol());
                let sc = f64::from(bw.prbs() * SUBCARRIERS_PER_PRB) * utilization;
                let symbols_per_s = 14_000.0;
                let llr_bits = 5.0;
                sc * symbols_per_s * qm * llr_bits * f64::from(antennas.layers)
            }
            FunctionalSplit::TransportBlocks => {
                // Decoded throughput plus ~10 % MAC overhead.
                mcs.rate_bps(bw.prbs_at(utilization), antennas.layers) * 1.1
            }
        }
    }

    /// Maximum tolerable one-way fronthaul latency for this split.
    ///
    /// Low splits sit inside the HARQ loop with tight jitter budgets; the
    /// MAC-PHY split tolerates much more.
    pub fn max_one_way_latency(self) -> Duration {
        match self {
            FunctionalSplit::TimeDomainIq => Duration::from_micros(250),
            FunctionalSplit::FrequencyDomain => Duration::from_micros(250),
            FunctionalSplit::SoftBits => Duration::from_micros(500),
            FunctionalSplit::TransportBlocks => Duration::from_millis(6),
        }
    }
}

impl fmt::Display for FunctionalSplit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> (Bandwidth, AntennaConfig, Mcs) {
        (
            Bandwidth::Mhz20,
            AntennaConfig::pran_default(),
            Mcs::new(20),
        )
    }

    #[test]
    fn bandwidth_ordering_at_full_load() {
        // IQ > freq-domain > soft-bits > transport blocks at full load.
        let (bw, ant, mcs) = cfg();
        let rates: Vec<f64> = FunctionalSplit::all()
            .iter()
            .map(|s| s.bandwidth_bps(bw, ant, 1.0, mcs))
            .collect();
        for w in rates.windows(2) {
            assert!(w[0] > w[1], "ordering violated: {rates:?}");
        }
    }

    #[test]
    fn iq_split_load_independent() {
        let (bw, ant, mcs) = cfg();
        let s = FunctionalSplit::TimeDomainIq;
        assert_eq!(
            s.bandwidth_bps(bw, ant, 0.0, mcs),
            s.bandwidth_bps(bw, ant, 1.0, mcs)
        );
    }

    #[test]
    fn higher_splits_scale_with_load() {
        let (bw, ant, mcs) = cfg();
        for s in [
            FunctionalSplit::FrequencyDomain,
            FunctionalSplit::SoftBits,
            FunctionalSplit::TransportBlocks,
        ] {
            let idle = s.bandwidth_bps(bw, ant, 0.05, mcs);
            let busy = s.bandwidth_bps(bw, ant, 1.0, mcs);
            assert!(busy > 2.0 * idle, "{s}: idle {idle}, busy {busy}");
        }
    }

    #[test]
    fn frequency_domain_beats_cpri_substantially() {
        // The PRAN-era claim: frequency-domain fronthaul cuts bandwidth by
        // several-fold versus CPRI even at full load.
        let (bw, ant, mcs) = cfg();
        let iq = FunctionalSplit::TimeDomainIq.bandwidth_bps(bw, ant, 1.0, mcs);
        let fd = FunctionalSplit::FrequencyDomain.bandwidth_bps(bw, ant, 1.0, mcs);
        let ratio = iq / fd;
        assert!(ratio > 2.0, "only {ratio:.2}× saving at full load");
        // At 20 % load the saving is much larger.
        let fd_idle = FunctionalSplit::FrequencyDomain.bandwidth_bps(bw, ant, 0.2, mcs);
        assert!(iq / fd_idle > 10.0);
    }

    #[test]
    fn latency_requirements_loosen_up_the_stack() {
        let all = FunctionalSplit::all();
        for w in all.windows(2) {
            assert!(w[0].max_one_way_latency() <= w[1].max_one_way_latency());
        }
    }

    #[test]
    fn pooled_fraction_decreases_up_the_stack() {
        let all = FunctionalSplit::all();
        for w in all.windows(2) {
            assert!(w[0].pooled_compute_fraction() > w[1].pooled_compute_fraction());
        }
    }

    #[test]
    fn transport_block_bandwidth_tracks_throughput() {
        let (bw, ant, _) = cfg();
        let s = FunctionalSplit::TransportBlocks;
        let slow = s.bandwidth_bps(bw, ant, 1.0, Mcs::new(5));
        let fast = s.bandwidth_bps(bw, ant, 1.0, Mcs::new(28));
        assert!(fast > 3.0 * slow);
    }
}
