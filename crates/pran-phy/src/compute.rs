//! Baseband compute-cost model (GOPS per subframe, per pipeline stage).
//!
//! PRAN's resource pooling argument is quantitative: how many giga-operations
//! per second does one cell's L1/L2 processing need, how does that scale with
//! load (PRBs), link quality (MCS) and antenna configuration, and which stage
//! dominates? This module answers those questions with the scaling model used
//! across the BBU-dimensioning literature:
//!
//! * full-band stages (FFT/IFFT) cost per *antenna*, independent of PRBs used;
//! * per-PRB frequency-domain stages (channel estimation, equalization,
//!   (de)modulation, (de)precoding) scale linearly in allocated PRBs, with an
//!   `A²` term in the equalizer for MMSE matrix operations;
//! * bit-domain stages (turbo decode/encode, CRC) scale with transport-block
//!   bits, so with PRBs × MCS efficiency; decoding additionally scales with
//!   the iteration count.
//!
//! Calibration anchors the totals: a fully loaded 20 MHz, 4-antenna,
//! 2-layer cell costs ≈160 GOPS uplink and ≈120 GOPS downlink, with uplink
//! turbo decoding taking ≈50 % of the uplink budget — the balance reported
//! for software LTE stacks of the paper's era (and the reason PRAN treats
//! decode offload specially). Constants are exposed so experiments can
//! re-calibrate against the real kernel measurements from
//! [`crate::kernels`].

use serde::{Deserialize, Serialize};
use std::fmt;
use std::time::Duration;

use crate::frame::{AntennaConfig, Bandwidth, Direction};
use crate::mcs::Mcs;

/// Identifiers for every pipeline stage the model prices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Stage {
    // ---- uplink (receive) ----
    /// SC-FDMA demapping / FFT across the full band, per antenna.
    Fft,
    /// Channel estimation from reference symbols.
    ChannelEstimation,
    /// MMSE equalization / MIMO detection.
    Equalization,
    /// Soft demodulation (LLR extraction).
    Demodulation,
    /// Turbo decoding (iterative).
    TurboDecode,
    /// Transport-block CRC check.
    CrcCheck,
    // ---- downlink (transmit) ----
    /// Turbo encoding + rate matching.
    TurboEncode,
    /// Scrambling.
    Scrambling,
    /// Symbol mapping (modulation).
    Modulation,
    /// MIMO precoding.
    Precoding,
    /// IFFT / OFDM synthesis across the full band, per antenna.
    Ifft,
    // ---- shared ----
    /// Control processing (PDCCH/PUCCH, scheduling bookkeeping).
    Control,
}

impl Stage {
    /// Uplink pipeline in processing order.
    pub fn uplink() -> &'static [Stage] {
        &[
            Stage::Fft,
            Stage::ChannelEstimation,
            Stage::Equalization,
            Stage::Demodulation,
            Stage::TurboDecode,
            Stage::CrcCheck,
            Stage::Control,
        ]
    }

    /// Downlink pipeline in processing order.
    pub fn downlink() -> &'static [Stage] {
        &[
            Stage::Control,
            Stage::TurboEncode,
            Stage::Scrambling,
            Stage::Modulation,
            Stage::Precoding,
            Stage::Ifft,
        ]
    }

    /// Short label used in tables.
    pub fn label(self) -> &'static str {
        match self {
            Stage::Fft => "fft",
            Stage::ChannelEstimation => "chest",
            Stage::Equalization => "equalize",
            Stage::Demodulation => "demod",
            Stage::TurboDecode => "decode",
            Stage::CrcCheck => "crc",
            Stage::TurboEncode => "encode",
            Stage::Scrambling => "scramble",
            Stage::Modulation => "modulate",
            Stage::Precoding => "precode",
            Stage::Ifft => "ifft",
            Stage::Control => "control",
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Per-cell functional split: which pipeline stages run *in the pool*
/// versus at the cell site.
///
/// The C-RAN survey (Simeone et al.) frames the deployment trade as a
/// per-cell split choice: lower splits pool more compute (more
/// statistical-multiplexing gain) but push more bytes per TTI over the
/// fronthaul. This enum is the per-cell *pooling* choice the placement
/// stack and pool simulator consume; the link-level bandwidth/latency
/// model of each split option lives in `pran-fronthaul::split`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum FunctionalSplit {
    /// Full centralization: the entire baseband chain runs in the pool
    /// (today's default; IQ-like fronthaul, maximum pooling gain).
    #[default]
    Full,
    /// Partial-PHY split: front-end PHY (FFT, channel estimation,
    /// equalization, (de)modulation, precoding) stays at the cell site;
    /// the bit-domain stages (turbo decode/encode, CRC, scrambling) and
    /// control are pooled.
    SplitII,
    /// MAC-up split: only control/MAC processing is pooled; the whole
    /// PHY runs at the cell site (transport-block fronthaul).
    SplitIII,
}

impl FunctionalSplit {
    /// All splits, from most to least centralized.
    pub fn all() -> [FunctionalSplit; 3] {
        [
            FunctionalSplit::Full,
            FunctionalSplit::SplitII,
            FunctionalSplit::SplitIII,
        ]
    }

    /// Short label for tables and config tags.
    pub fn label(self) -> &'static str {
        match self {
            FunctionalSplit::Full => "full",
            FunctionalSplit::SplitII => "split2",
            FunctionalSplit::SplitIII => "split3",
        }
    }

    /// Dense index (position in [`FunctionalSplit::all`]) for per-split
    /// lookup tables.
    pub fn index(self) -> usize {
        match self {
            FunctionalSplit::Full => 0,
            FunctionalSplit::SplitII => 1,
            FunctionalSplit::SplitIII => 2,
        }
    }

    /// Whether `stage` runs in the pool under this split (stages that
    /// stay at the cell site never reach the pool's compute demand).
    pub fn pools(self, stage: Stage) -> bool {
        match self {
            FunctionalSplit::Full => true,
            FunctionalSplit::SplitII => matches!(
                stage,
                Stage::TurboDecode
                    | Stage::CrcCheck
                    | Stage::TurboEncode
                    | Stage::Scrambling
                    | Stage::Control
            ),
            FunctionalSplit::SplitIII => matches!(stage, Stage::Control),
        }
    }

    /// Fronthaul payload bytes one cell pushes per TTI under this split,
    /// for a given PRB allocation.
    ///
    /// `Full` ships fixed-rate IQ-like frames (32 bytes in the simulator's
    /// scaled-down units — exactly the legacy frame size, so the default
    /// split is byte-identical to the pre-split data path). Higher splits
    /// carry load-proportional payloads: a base header plus a PRB-scaled
    /// body, integer arithmetic only so the mapping is exact and monotone
    /// — both in `prbs_used` and *across* splits
    /// (`Full ≥ SplitII ≥ SplitIII` for every allocation).
    pub fn fronthaul_bytes_per_tti(self, prbs_used: u32, max_prbs: u32) -> usize {
        let scale = |base: u32, span: u32| -> usize {
            (base + span * prbs_used.min(max_prbs) / max_prbs.max(1)) as usize
        };
        match self {
            FunctionalSplit::Full => 32,
            FunctionalSplit::SplitII => scale(8, 16),
            FunctionalSplit::SplitIII => scale(2, 6),
        }
    }
}

impl fmt::Display for FunctionalSplit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Workload of one cell in one TTI, as seen by the compute model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CellWorkload {
    /// Carrier bandwidth of the cell.
    pub bandwidth: Bandwidth,
    /// Antenna / layer configuration.
    pub antennas: AntennaConfig,
    /// PRBs actually allocated this TTI (≤ `bandwidth.prbs()`).
    pub prbs_used: u32,
    /// Load-weighted average MCS of the allocation.
    pub mcs: Mcs,
    /// Uplink or downlink.
    pub direction: Direction,
    /// Which stages run in the pool (vs the cell site). Workloads
    /// serialized before functional splits existed read as `Full`, the
    /// pre-split behavior.
    #[serde(default)]
    pub split: FunctionalSplit,
}

impl CellWorkload {
    /// A fully loaded cell at the evaluation defaults.
    pub fn full_load(direction: Direction) -> Self {
        CellWorkload {
            bandwidth: Bandwidth::Mhz20,
            antennas: AntennaConfig::pran_default(),
            prbs_used: Bandwidth::Mhz20.prbs(),
            mcs: Mcs::new(28),
            direction,
            split: FunctionalSplit::Full,
        }
    }

    /// Same workload under a different functional split.
    pub fn with_split(mut self, split: FunctionalSplit) -> Self {
        self.split = split;
        self
    }

    /// Same workload scaled to a PRB utilization in `[0, 1]`.
    pub fn at_utilization(mut self, util: f64) -> Self {
        self.prbs_used = self.bandwidth.prbs_at(util);
        self
    }

    /// Fraction of the carrier's PRBs in use.
    pub fn utilization(&self) -> f64 {
        f64::from(self.prbs_used) / f64::from(self.bandwidth.prbs())
    }
}

/// Cost of one stage for one subframe, expressed as a GOPS *rate* (the
/// sustained giga-operations/second a dedicated processor would need to
/// finish the stage within one TTI).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StageCost {
    /// Which pipeline stage.
    pub stage: Stage,
    /// Sustained GOPS rate needed to finish the stage within the TTI.
    pub gops: f64,
}

/// Per-stage cost breakdown of one subframe.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SubframeCost {
    /// Per-stage costs in pipeline order.
    pub stages: Vec<StageCost>,
}

impl SubframeCost {
    /// Total sustained GOPS requirement.
    pub fn total_gops(&self) -> f64 {
        self.stages.iter().map(|s| s.gops).sum()
    }

    /// Cost of one stage (0 if absent).
    pub fn stage_gops(&self, stage: Stage) -> f64 {
        self.stages
            .iter()
            .filter(|s| s.stage == stage)
            .map(|s| s.gops)
            .sum()
    }

    /// Fraction of the total attributable to a stage.
    pub fn stage_share(&self, stage: Stage) -> f64 {
        let total = self.total_gops();
        if total == 0.0 {
            0.0
        } else {
            self.stage_gops(stage) / total
        }
    }

    /// Service time of this subframe's processing on hardware sustaining
    /// `capacity_gops` (work = GOPS × 1 ms).
    pub fn service_time(&self, capacity_gops: f64) -> Duration {
        assert!(capacity_gops > 0.0, "capacity must be positive");
        Duration::from_secs_f64(self.total_gops() * 1e-3 / capacity_gops)
    }
}

/// Calibration constants of the compute model.
///
/// `*_coef` values are in GOPS contributed at the *reference configuration*
/// scale; see module docs for the scaling law each one multiplies.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ComputeModel {
    /// GOPS per antenna for a 2048-point FFT grid (full 20 MHz band).
    pub fft_per_antenna: f64,
    /// GOPS per antenna per 100 PRBs for channel estimation.
    pub chest_per_antenna_100prb: f64,
    /// GOPS per antenna·layer per 100 PRBs for equalization (linear part).
    pub eq_per_antlayer_100prb: f64,
    /// GOPS per antenna² per 100 PRBs for equalization (matrix part).
    pub eq_per_ant2_100prb: f64,
    /// GOPS per layer per 100 PRBs per modulation bit for (de)modulation.
    pub demod_per_layer_100prb_bit: f64,
    /// GOPS per Mbit of transport block per decoder iteration.
    pub decode_per_mbit_iter: f64,
    /// GOPS per Mbit of transport block for encoding.
    pub encode_per_mbit: f64,
    /// GOPS per Mbit for scrambling.
    pub scramble_per_mbit: f64,
    /// GOPS per antenna·layer per 100 PRBs for precoding.
    pub precode_per_antlayer_100prb: f64,
    /// GOPS per Mbit for CRC.
    pub crc_per_mbit: f64,
    /// Fixed control-plane GOPS per active cell.
    pub control_fixed: f64,
    /// Average turbo decoder iterations.
    pub decode_iterations: f64,
}

impl ComputeModel {
    /// The calibrated defaults (see module docs for anchors).
    pub fn calibrated() -> Self {
        ComputeModel {
            fft_per_antenna: 4.0,
            chest_per_antenna_100prb: 3.5,
            eq_per_antlayer_100prb: 2.2,
            eq_per_ant2_100prb: 0.7,
            demod_per_layer_100prb_bit: 0.9,
            decode_per_mbit_iter: 0.107,
            encode_per_mbit: 0.44,
            scramble_per_mbit: 0.022,
            precode_per_antlayer_100prb: 1.8,
            crc_per_mbit: 0.011,
            control_fixed: 3.0,
            decode_iterations: 5.0,
        }
    }

    /// Cost breakdown for one cell-subframe.
    pub fn subframe_cost(&self, w: &CellWorkload) -> SubframeCost {
        let a = f64::from(w.antennas.antennas);
        let l = f64::from(w.antennas.layers);
        let prb_frac = f64::from(w.prbs_used) / 100.0;
        let fft_scale = self.fft_scale(w.bandwidth);
        let qm = f64::from(w.mcs.modulation().bits_per_symbol());
        let tb_mbit = w.mcs.transport_block_bits(w.prbs_used, w.antennas.layers) as f64 / 1e6;

        let mut stages = Vec::new();
        match w.direction {
            Direction::Uplink => {
                stages.push(StageCost {
                    stage: Stage::Fft,
                    gops: self.fft_per_antenna * a * fft_scale,
                });
                stages.push(StageCost {
                    stage: Stage::ChannelEstimation,
                    gops: self.chest_per_antenna_100prb * a * prb_frac,
                });
                stages.push(StageCost {
                    stage: Stage::Equalization,
                    gops: (self.eq_per_antlayer_100prb * a * l + self.eq_per_ant2_100prb * a * a)
                        * prb_frac,
                });
                stages.push(StageCost {
                    stage: Stage::Demodulation,
                    gops: self.demod_per_layer_100prb_bit * l * qm * prb_frac,
                });
                stages.push(StageCost {
                    stage: Stage::TurboDecode,
                    gops: self.decode_per_mbit_iter * tb_mbit * 1000.0 * self.decode_iterations,
                });
                stages.push(StageCost {
                    stage: Stage::CrcCheck,
                    gops: self.crc_per_mbit * tb_mbit * 1000.0,
                });
                stages.push(StageCost {
                    stage: Stage::Control,
                    gops: self.control_fixed,
                });
            }
            Direction::Downlink => {
                stages.push(StageCost {
                    stage: Stage::Control,
                    gops: self.control_fixed,
                });
                stages.push(StageCost {
                    stage: Stage::TurboEncode,
                    gops: self.encode_per_mbit * tb_mbit * 1000.0,
                });
                stages.push(StageCost {
                    stage: Stage::Scrambling,
                    gops: self.scramble_per_mbit * tb_mbit * 1000.0,
                });
                stages.push(StageCost {
                    stage: Stage::Modulation,
                    gops: self.demod_per_layer_100prb_bit * 0.5 * l * qm * prb_frac,
                });
                stages.push(StageCost {
                    stage: Stage::Precoding,
                    gops: self.precode_per_antlayer_100prb * a * l * prb_frac,
                });
                stages.push(StageCost {
                    stage: Stage::Ifft,
                    gops: self.fft_per_antenna * a * fft_scale,
                });
            }
        }
        SubframeCost { stages }
    }

    /// Total sustained GOPS for a cell running `w` every TTI.
    pub fn cell_gops(&self, w: &CellWorkload) -> f64 {
        self.subframe_cost(w).total_gops()
    }

    /// Cost breakdown of the stages that reach the *pool* under the
    /// workload's functional split, in pipeline order.
    ///
    /// Under [`FunctionalSplit::Full`] this is exactly
    /// [`ComputeModel::subframe_cost`] — same stages, same order, same
    /// floating-point sums — which is what keeps the default split
    /// bit-identical to the pre-split simulator.
    pub fn pooled_subframe_cost(&self, w: &CellWorkload) -> SubframeCost {
        let mut cost = self.subframe_cost(w);
        cost.stages.retain(|s| w.split.pools(s.stage));
        cost
    }

    /// Total pooled GOPS for a cell running `w` every TTI (the demand
    /// that reaches the pool; stages kept at the cell site are excluded).
    pub fn pooled_gops(&self, w: &CellWorkload) -> f64 {
        self.pooled_subframe_cost(w).total_gops()
    }

    /// Turbo-decode share of the pooled demand — the portion a server's
    /// hardware decode accelerator can offload. Zero whenever the split
    /// keeps decode at the cell site or the direction has no decode.
    pub fn pooled_decode_gops(&self, w: &CellWorkload) -> f64 {
        if w.split.pools(Stage::TurboDecode) {
            self.subframe_cost(w).stage_gops(Stage::TurboDecode)
        } else {
            0.0
        }
    }

    /// Combined UL+DL GOPS for a cell at a PRB utilization and average MCS.
    pub fn cell_gops_bidirectional(
        &self,
        bandwidth: Bandwidth,
        antennas: AntennaConfig,
        utilization: f64,
        mcs: Mcs,
    ) -> f64 {
        Direction::both()
            .iter()
            .map(|&direction| {
                let w = CellWorkload {
                    bandwidth,
                    antennas,
                    prbs_used: 0,
                    mcs,
                    direction,
                    split: FunctionalSplit::Full,
                }
                .at_utilization(utilization);
                self.cell_gops(&w)
            })
            .sum()
    }

    /// FFT work relative to the 2048-point reference grid: `N log N`
    /// normalized. Full-band stages run regardless of PRB allocation.
    fn fft_scale(&self, bw: Bandwidth) -> f64 {
        let n = bw.fft_size() as f64;
        let reference = 2048.0 * 2048f64.log2();
        n * n.log2() / reference
    }

    /// The closed-form aggregate used in the dimensioning literature
    /// (`(3A + A² + M·C·L/3)/10 × RB`), exposed for cross-checks. Returns
    /// GOPS for a given antenna count `a`, modulation bits `m`, code rate
    /// `c`, layers `l` and PRB count.
    pub fn literature_aggregate_gops(a: f64, m: f64, c: f64, l: f64, prbs: f64) -> f64 {
        (3.0 * a + a * a + m * c * l / 3.0) / 10.0 * prbs
    }
}

impl Default for ComputeModel {
    fn default() -> Self {
        Self::calibrated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> ComputeModel {
        ComputeModel::calibrated()
    }

    #[test]
    fn uplink_full_load_near_calibration_anchor() {
        let cost = model().subframe_cost(&CellWorkload::full_load(Direction::Uplink));
        let total = cost.total_gops();
        assert!(
            (130.0..200.0).contains(&total),
            "UL full-load total {total} GOPS out of calibration band"
        );
    }

    #[test]
    fn downlink_cheaper_than_uplink() {
        let ul = model().cell_gops(&CellWorkload::full_load(Direction::Uplink));
        let dl = model().cell_gops(&CellWorkload::full_load(Direction::Downlink));
        assert!(dl < ul, "DL {dl} should be cheaper than UL {ul}");
        assert!(dl > 0.4 * ul, "DL {dl} implausibly small vs UL {ul}");
    }

    #[test]
    fn turbo_decode_dominates_uplink() {
        let cost = model().subframe_cost(&CellWorkload::full_load(Direction::Uplink));
        let share = cost.stage_share(Stage::TurboDecode);
        assert!(
            (0.35..0.65).contains(&share),
            "decode share {share} outside the reported 35–65 % band"
        );
        // And it is the single largest stage.
        let max = cost
            .stages
            .iter()
            .max_by(|a, b| a.gops.partial_cmp(&b.gops).unwrap())
            .unwrap();
        assert_eq!(max.stage, Stage::TurboDecode);
    }

    #[test]
    fn cost_monotone_in_prbs() {
        let m = model();
        let mut prev = 0.0;
        for prbs in [10, 25, 50, 75, 100] {
            let w = CellWorkload {
                prbs_used: prbs,
                ..CellWorkload::full_load(Direction::Uplink)
            };
            let t = m.cell_gops(&w);
            assert!(t > prev);
            prev = t;
        }
    }

    #[test]
    fn cost_monotone_in_mcs() {
        let m = model();
        let mut prev = 0.0;
        for idx in [0u8, 7, 14, 21, 28] {
            let w = CellWorkload {
                mcs: Mcs::new(idx),
                ..CellWorkload::full_load(Direction::Uplink)
            };
            let t = m.cell_gops(&w);
            assert!(t > prev, "MCS{idx}: {t} <= {prev}");
            prev = t;
        }
    }

    #[test]
    fn fft_cost_independent_of_prbs() {
        let m = model();
        let full = CellWorkload::full_load(Direction::Uplink);
        let idle = full.at_utilization(0.1);
        let c_full = m.subframe_cost(&full).stage_gops(Stage::Fft);
        let c_idle = m.subframe_cost(&idle).stage_gops(Stage::Fft);
        assert_eq!(c_full, c_idle, "FFT is a full-band stage");
    }

    #[test]
    fn idle_cell_still_pays_fixed_costs() {
        let m = model();
        let idle = CellWorkload::full_load(Direction::Uplink).at_utilization(0.0);
        let t = m.cell_gops(&idle);
        // FFT + control remain.
        assert!(t > 10.0, "idle cell cost {t} too low");
        assert!(t < 40.0, "idle cell cost {t} too high");
    }

    #[test]
    fn more_antennas_cost_more() {
        let m = model();
        let two = CellWorkload {
            antennas: AntennaConfig::new(2, 2),
            ..CellWorkload::full_load(Direction::Uplink)
        };
        let four = CellWorkload {
            antennas: AntennaConfig::new(4, 2),
            ..CellWorkload::full_load(Direction::Uplink)
        };
        assert!(m.cell_gops(&four) > m.cell_gops(&two));
    }

    #[test]
    fn service_time_inverse_in_capacity() {
        let cost = model().subframe_cost(&CellWorkload::full_load(Direction::Uplink));
        let slow = cost.service_time(100.0);
        let fast = cost.service_time(400.0);
        let ratio = slow.as_secs_f64() / fast.as_secs_f64();
        // Duration has nanosecond granularity; allow that rounding.
        assert!((ratio - 4.0).abs() < 1e-5);
    }

    #[test]
    fn full_load_finishes_within_deadline_on_big_server() {
        // A 200-GOPS allocation must clear a full-load UL subframe within
        // the 2 ms compute budget — the feasibility anchor for pooling.
        let cost = model().subframe_cost(&CellWorkload::full_load(Direction::Uplink));
        let t = cost.service_time(200.0);
        assert!(
            t <= crate::frame::COMPUTE_DEADLINE,
            "full-load subframe takes {t:?} on 200 GOPS"
        );
    }

    #[test]
    fn utilization_roundtrip() {
        let w = CellWorkload::full_load(Direction::Uplink).at_utilization(0.37);
        assert!((w.utilization() - 0.37).abs() < 0.01);
    }

    #[test]
    fn literature_aggregate_reference_value() {
        // 4 antennas, 6 bits, rate 0.93, 2 layers, 100 PRB.
        let g = ComputeModel::literature_aggregate_gops(4.0, 6.0, 0.93, 2.0, 100.0);
        assert!((g - (12.0 + 16.0 + 3.72) / 10.0 * 100.0).abs() < 1e-9);
    }

    #[test]
    fn full_split_pooled_cost_is_subframe_cost() {
        // The keystone of the split refactor: under `Full` the pooled
        // breakdown is the exact same stage list (order and values), so
        // every downstream f64 sum is bit-identical to the pre-split path.
        let m = model();
        for util in [0.0, 0.3, 0.7, 1.0] {
            let w = CellWorkload::full_load(Direction::Uplink).at_utilization(util);
            assert_eq!(m.pooled_subframe_cost(&w), m.subframe_cost(&w));
            assert_eq!(m.pooled_gops(&w).to_bits(), m.cell_gops(&w).to_bits());
        }
    }

    #[test]
    fn higher_splits_pool_less_compute() {
        let m = model();
        let w = CellWorkload::full_load(Direction::Uplink);
        let full = m.pooled_gops(&w.with_split(FunctionalSplit::Full));
        let s2 = m.pooled_gops(&w.with_split(FunctionalSplit::SplitII));
        let s3 = m.pooled_gops(&w.with_split(FunctionalSplit::SplitIII));
        assert!(full > s2 && s2 > s3, "{full} > {s2} > {s3} violated");
        // SplitIII pools only control.
        assert_eq!(s3, m.control_fixed);
    }

    #[test]
    fn split2_pools_decode_split3_does_not() {
        let m = model();
        let w = CellWorkload::full_load(Direction::Uplink);
        let d2 = m.pooled_decode_gops(&w.with_split(FunctionalSplit::SplitII));
        assert!(d2 > 0.0);
        assert_eq!(
            d2,
            m.subframe_cost(&w).stage_gops(Stage::TurboDecode),
            "SplitII pools the whole decode stage"
        );
        assert_eq!(
            m.pooled_decode_gops(&w.with_split(FunctionalSplit::SplitIII)),
            0.0
        );
        // Decode demand never exceeds pooled demand.
        for split in FunctionalSplit::all() {
            let ws = w.with_split(split);
            assert!(m.pooled_decode_gops(&ws) <= m.pooled_gops(&ws));
        }
    }

    #[test]
    fn fronthaul_bytes_monotone_in_prbs_and_split() {
        let max = Bandwidth::Mhz20.prbs();
        for split in FunctionalSplit::all() {
            let mut prev = 0usize;
            for prbs in 0..=max {
                let b = split.fronthaul_bytes_per_tti(prbs, max);
                assert!(b >= prev, "{split}: bytes dropped at {prbs} PRBs");
                prev = b;
            }
        }
        for prbs in [0, 17, 50, 100] {
            let full = FunctionalSplit::Full.fronthaul_bytes_per_tti(prbs, max);
            let s2 = FunctionalSplit::SplitII.fronthaul_bytes_per_tti(prbs, max);
            let s3 = FunctionalSplit::SplitIII.fronthaul_bytes_per_tti(prbs, max);
            assert_eq!(full, 32, "Full split ships the legacy 32-byte frame");
            assert!(full >= s2 && s2 >= s3, "{full} >= {s2} >= {s3} at {prbs}");
            assert!(s3 >= 2, "even idle cells ship a header");
        }
    }

    #[test]
    fn smaller_bandwidth_cheaper_fft() {
        let m = model();
        let w20 = CellWorkload::full_load(Direction::Uplink);
        let w5 = CellWorkload {
            bandwidth: Bandwidth::Mhz5,
            prbs_used: 25,
            ..w20
        };
        assert!(
            m.subframe_cost(&w5).stage_gops(Stage::Fft)
                < m.subframe_cost(&w20).stage_gops(Stage::Fft)
        );
    }
}
