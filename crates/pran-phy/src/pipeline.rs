//! An executable uplink subframe: the real kernels chained end-to-end.
//!
//! [`run_uplink_subframe`] synthesizes a transport block, pushes it through
//! transmit processing (CRC, segmentation, turbo encoding, rate matching,
//! scrambling, modulation, OFDM synthesis), applies a block-fading channel
//! with AWGN, then executes the receive pipeline while timing every stage:
//! FFT → channel estimation → equalization → demodulation → rate recovery →
//! turbo decoding → CRC check. The per-stage wall-clock timings are what
//! the E2 benches report; the workload shape (bits, symbols) is exactly
//! what the analytic compute model prices.
//!
//! Scope notes: one spatial layer is processed for real (multi-layer MIMO
//! detection is priced by the model only), and the channel is flat within a
//! subframe — both simplifications preserve the scaling behaviour the
//! experiments measure (linear in PRBs, decode-dominated).

use std::time::{Duration, Instant};

use rand::Rng;

use crate::compute::Stage;
use crate::frame::{Bandwidth, SUBCARRIERS_PER_PRB};
use crate::kernels::crc::{Crc, CRC24A};
use crate::kernels::fft::{Complex, Fft, FftDirection};
use crate::kernels::modulation::{demodulate_llr, modulate};
use crate::kernels::rate_match::{rate_match, rate_recover};
use crate::kernels::scrambler::GoldSequence;
use crate::kernels::turbo::{turbo_decode, turbo_encode_with, QppInterleaver};
use crate::mcs::Mcs;

/// OFDM data symbols per subframe in this pipeline (13 data + 1 pilot).
const DATA_SYMBOLS: usize = 13;

/// Configuration of one pipeline run.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Carrier bandwidth (sets the FFT grid).
    pub bandwidth: Bandwidth,
    /// Turbo code block size (must be QPP-supported).
    pub code_block_bits: usize,
    /// Max decoder iterations.
    pub decoder_iterations: usize,
    /// Per-axis AWGN standard deviation at unit symbol energy.
    pub noise_sigma: f64,
    /// Scrambling seed.
    pub c_init: u32,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            bandwidth: Bandwidth::Mhz20,
            code_block_bits: 1024,
            decoder_iterations: 5,
            noise_sigma: 0.05,
            c_init: 0x1001,
        }
    }
}

/// Wall-clock cost of one stage.
#[derive(Debug, Clone, Copy)]
pub struct StageTiming {
    /// Which pipeline stage.
    pub stage: Stage,
    /// Measured wall-clock time.
    pub elapsed: Duration,
}

/// Result of one end-to-end subframe run.
#[derive(Debug, Clone)]
pub struct UplinkRun {
    /// Whether the transport block CRC verified after decoding.
    pub crc_ok: bool,
    /// Whether the decoded payload matched the transmitted one.
    pub payload_ok: bool,
    /// Receive-side stage timings in pipeline order.
    pub timings: Vec<StageTiming>,
    /// Number of information bits carried.
    pub info_bits: usize,
    /// Number of coded bits on the grid.
    pub coded_bits: usize,
}

impl UplinkRun {
    /// Total receive-side processing time.
    pub fn total(&self) -> Duration {
        self.timings.iter().map(|t| t.elapsed).sum()
    }

    /// Time attributed to one stage.
    pub fn stage(&self, stage: Stage) -> Duration {
        self.timings
            .iter()
            .filter(|t| t.stage == stage)
            .map(|t| t.elapsed)
            .sum()
    }

    /// Fraction of total receive time spent in a stage.
    pub fn stage_share(&self, stage: Stage) -> f64 {
        let total = self.total().as_secs_f64();
        if total == 0.0 {
            0.0
        } else {
            self.stage(stage).as_secs_f64() / total
        }
    }
}

/// Stride used by the subframe channel interleaver: close to `n/φ` for
/// low-discrepancy spreading, nudged until coprime with `n` so the map
/// `i ↦ i·s mod n` is a permutation.
fn channel_interleaver_stride(n: usize) -> usize {
    fn gcd(a: usize, b: usize) -> usize {
        if b == 0 {
            a
        } else {
            gcd(b, a % b)
        }
    }
    let mut s = ((n as f64 * 0.618_033_988_749_895) as usize).max(1);
    while gcd(s, n) != 1 {
        s += 1;
    }
    s
}

/// Execute one uplink subframe for an allocation of `prbs` PRBs at `mcs`.
///
/// # Panics
/// Panics if `prbs` exceeds the bandwidth grid or the configured code block
/// size is not QPP-supported.
pub fn run_uplink_subframe<R: Rng + ?Sized>(
    prbs: u32,
    mcs: Mcs,
    cfg: &PipelineConfig,
    rng: &mut R,
) -> UplinkRun {
    assert!(
        prbs >= 1 && prbs <= cfg.bandwidth.prbs(),
        "PRB allocation out of range"
    );
    let interleaver = QppInterleaver::for_block_size(cfg.code_block_bits)
        .unwrap_or_else(|| panic!("unsupported code block size {}", cfg.code_block_bits));
    let crc = Crc::new(CRC24A);

    let n_sc = (prbs * SUBCARRIERS_PER_PRB) as usize;
    let qm = mcs.modulation().bits_per_symbol() as usize;
    let coded_capacity = DATA_SYMBOLS * n_sc * qm;

    // Payload sized to hit the MCS code rate after CRC attachment *and*
    // code-block padding: the padded total (n_blocks × cb) must stay within
    // the coded capacity × code-rate budget, or padding silently punctures
    // away the parity the decoder needs.
    let cb = cfg.code_block_bits;
    let info_bits_target = (coded_capacity as f64 * mcs.code_rate()) as usize;
    let n_blocks = (info_bits_target / cb).max(1);
    let payload_bytes = ((n_blocks * cb).saturating_sub(24) / 8).max(4);
    let mut payload: Vec<u8> = (0..payload_bytes).map(|_| rng.gen()).collect();
    let original = payload.clone();
    crc.attach(&mut payload);

    // ---- transmit side (not timed into the UL budget) ----
    // Bit-expand and segment into code blocks.
    let mut bits: Vec<u8> = payload
        .iter()
        .flat_map(|&byte| (0..8).rev().map(move |i| (byte >> i) & 1))
        .collect();
    debug_assert!(bits.len() <= n_blocks * cb, "payload sizing overflow");
    bits.resize(n_blocks * cb, 0);
    let per_block_e = coded_capacity / n_blocks;
    let mut coded: Vec<u8> = Vec::with_capacity(coded_capacity);
    for block in bits.chunks(cb) {
        let cw = turbo_encode_with(block, &interleaver);
        coded.extend(rate_match(&cw, per_block_e));
    }
    coded.resize(coded_capacity, 0);
    // Channel interleaving: spread each code block across the whole
    // allocation so a faded PRB costs every block a few bits instead of
    // costing one block most of its parity (frequency diversity).
    let chan_stride = channel_interleaver_stride(coded_capacity);
    let mut interleaved = vec![0u8; coded_capacity];
    for (i, &bit) in coded.iter().enumerate() {
        interleaved[(i * chan_stride) % coded_capacity] = bit;
    }
    let mut coded = interleaved;
    let mut scrambler_tx = GoldSequence::new(cfg.c_init);
    scrambler_tx.scramble_in_place(&mut coded);
    let tx_symbols = modulate(&coded, mcs.modulation());

    // OFDM synthesis onto the grid (pilot symbol first), flat channel.
    let fft = Fft::new(cfg.bandwidth.fft_size().next_power_of_two());
    let n_fft = fft.size();
    // Block-fading channel: constant within each PRB (the coherence
    // bandwidth comfortably exceeds 180 kHz), independent across PRBs.
    // This is what lets the receiver average its pilot estimates.
    let channel: Vec<Complex> = {
        let mut per_prb = Vec::with_capacity(prbs as usize);
        for _ in 0..prbs {
            let phase = rng.gen_range(0.0..std::f64::consts::TAU);
            let gain = rng.gen_range(0.7..1.3);
            per_prb.push(Complex::cis(phase).scale(gain));
        }
        (0..n_sc)
            .map(|sc| per_prb[sc / SUBCARRIERS_PER_PRB as usize])
            .collect()
    };
    let pilot: Vec<Complex> = (0..n_sc)
        .map(|i| {
            if i % 2 == 0 {
                Complex::new(1.0, 0.0)
            } else {
                Complex::new(-1.0, 0.0)
            }
        })
        .collect();

    let mut time_domain: Vec<Vec<Complex>> = Vec::with_capacity(DATA_SYMBOLS + 1);
    for sym_idx in 0..=DATA_SYMBOLS {
        let mut grid = vec![Complex::ZERO; n_fft];
        for sc in 0..n_sc {
            let x = if sym_idx == 0 {
                pilot[sc]
            } else {
                *tx_symbols
                    .get((sym_idx - 1) * n_sc + sc)
                    .unwrap_or(&Complex::ZERO)
            };
            grid[sc] = x * channel[sc];
        }
        let mut td = grid;
        fft.process(&mut td, FftDirection::Inverse);
        // AWGN in time domain (unitary up to 1/N; inject per-sample noise
        // scaled so the frequency-domain per-RE sigma is cfg.noise_sigma).
        let sigma_td = cfg.noise_sigma / (n_fft as f64).sqrt();
        for v in td.iter_mut() {
            let g = |rng: &mut R| {
                let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
                let u2: f64 = rng.gen_range(0.0..1.0);
                (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
            };
            v.re += sigma_td * g(rng);
            v.im += sigma_td * g(rng);
        }
        time_domain.push(td);
    }

    // ---- receive side (timed) ----
    let mut timings = Vec::new();

    // FFT.
    let t0 = Instant::now();
    let mut freq: Vec<Vec<Complex>> = time_domain.iter().map(|td| fft.forward(td)).collect();
    timings.push(StageTiming {
        stage: Stage::Fft,
        elapsed: t0.elapsed(),
    });

    // Channel estimation from the pilot symbol: per-RE least squares,
    // then averaged across each PRB (block fading) — the averaging buys
    // back most of the estimation noise (σ/√12 per PRB).
    let t0 = Instant::now();
    let est: Vec<Complex> = {
        let prb_count = prbs as usize;
        let spp = SUBCARRIERS_PER_PRB as usize;
        let mut per_prb = vec![Complex::ZERO; prb_count];
        for sc in 0..n_sc {
            // ĥ_sc = y·x* (x has unit magnitude).
            let h = freq[0][sc] * pilot[sc].conj();
            per_prb[sc / spp] = per_prb[sc / spp] + h;
        }
        for h in per_prb.iter_mut() {
            *h = h.scale(1.0 / spp as f64);
        }
        (0..n_sc).map(|sc| per_prb[sc / spp]).collect()
    };
    timings.push(StageTiming {
        stage: Stage::ChannelEstimation,
        elapsed: t0.elapsed(),
    });

    // Equalization: y/ĥ per data RE.
    let t0 = Instant::now();
    let mut eq_symbols: Vec<Complex> = Vec::with_capacity(DATA_SYMBOLS * n_sc);
    for sym in freq.iter_mut().skip(1) {
        for sc in 0..n_sc {
            let h = est[sc];
            let denom = h.norm_sqr().max(1e-12);
            eq_symbols.push(sym[sc] * h.conj().scale(1.0 / denom));
        }
    }
    timings.push(StageTiming {
        stage: Stage::Equalization,
        elapsed: t0.elapsed(),
    });

    // Soft demodulation + descrambling. Zero-forcing division by ĥ
    // colours the noise: the post-equalization variance on subcarrier
    // `sc` is `noise_var / |ĥ_sc|²`, so each RE's LLRs must be weighted
    // by |ĥ_sc|² — otherwise bits riding a faded PRB claim the same
    // confidence as bits on a strong one and poison the turbo decoder.
    let t0 = Instant::now();
    let noise_var = (2.0 * cfg.noise_sigma * cfg.noise_sigma).max(1e-9);
    let mut llrs = demodulate_llr(&eq_symbols, mcs.modulation(), noise_var);
    let qm_llr = mcs.modulation().bits_per_symbol() as usize;
    for (re, chunk) in llrs.chunks_mut(qm_llr).enumerate() {
        let gain_sq = est[re % n_sc].norm_sqr();
        for l in chunk.iter_mut() {
            *l *= gain_sq;
        }
    }
    let mut scrambler_rx = GoldSequence::new(cfg.c_init);
    for l in llrs.iter_mut() {
        if scrambler_rx.bits(1)[0] == 1 {
            *l = -*l;
        }
    }
    timings.push(StageTiming {
        stage: Stage::Demodulation,
        elapsed: t0.elapsed(),
    });

    // Rate recovery + turbo decoding per code block (after undoing the
    // channel interleaver).
    let t0 = Instant::now();
    let deinterleaved: Vec<f64> = (0..llrs.len())
        .map(|i| llrs[(i * chan_stride) % llrs.len()])
        .collect();
    let llrs = deinterleaved;
    let mut decoded_bits: Vec<u8> = Vec::with_capacity(n_blocks * cb);
    for b in 0..n_blocks {
        let start = b * per_block_e;
        let end = ((b + 1) * per_block_e).min(llrs.len());
        let soft = rate_recover(&llrs[start..end], cb);
        let out = turbo_decode(&soft, &interleaver, cfg.decoder_iterations);
        decoded_bits.extend(out.bits);
    }
    timings.push(StageTiming {
        stage: Stage::TurboDecode,
        elapsed: t0.elapsed(),
    });

    // CRC check.
    let t0 = Instant::now();
    decoded_bits.truncate(payload.len() * 8);
    let decoded_bytes: Vec<u8> = decoded_bits
        .chunks(8)
        .map(|c| c.iter().fold(0u8, |acc, &b| (acc << 1) | b))
        .collect();
    let crc_ok = crc.check(&decoded_bytes).is_some();
    timings.push(StageTiming {
        stage: Stage::CrcCheck,
        elapsed: t0.elapsed(),
    });

    let payload_ok =
        decoded_bytes.len() >= original.len() && decoded_bytes[..original.len()] == original[..];

    let run = UplinkRun {
        crc_ok,
        payload_ok,
        timings,
        info_bits: payload_bytes * 8,
        coded_bits: coded_capacity,
    };
    if pran_telemetry::enabled() {
        let stage_us = |s: Stage| pran_telemetry::FieldValue::U64(run.stage(s).as_micros() as u64);
        pran_telemetry::trace::mono_event(
            "phy.subframe",
            &[
                ("prbs", prbs.into()),
                ("mcs", u64::from(mcs.index()).into()),
                ("crc_ok", run.crc_ok.into()),
                ("fft_us", stage_us(Stage::Fft)),
                ("chest_us", stage_us(Stage::ChannelEstimation)),
                ("eq_us", stage_us(Stage::Equalization)),
                ("demod_us", stage_us(Stage::Demodulation)),
                ("decode_us", stage_us(Stage::TurboDecode)),
                ("crc_us", stage_us(Stage::CrcCheck)),
                ("total_us", (run.total().as_micros() as u64).into()),
            ],
        );
    }
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn small_cfg() -> PipelineConfig {
        PipelineConfig {
            bandwidth: Bandwidth::Mhz5,
            code_block_bits: 256,
            decoder_iterations: 5,
            noise_sigma: 0.03,
            c_init: 0xBEEF,
        }
    }

    #[test]
    fn clean_channel_decodes() {
        let mut rng = SmallRng::seed_from_u64(1);
        let run = run_uplink_subframe(10, Mcs::new(10), &small_cfg(), &mut rng);
        assert!(run.crc_ok, "CRC failed on a clean channel");
        assert!(run.payload_ok, "payload mismatch on a clean channel");
    }

    #[test]
    fn all_stages_timed() {
        let mut rng = SmallRng::seed_from_u64(2);
        let run = run_uplink_subframe(5, Mcs::new(5), &small_cfg(), &mut rng);
        let stages: Vec<Stage> = run.timings.iter().map(|t| t.stage).collect();
        assert_eq!(
            stages,
            vec![
                Stage::Fft,
                Stage::ChannelEstimation,
                Stage::Equalization,
                Stage::Demodulation,
                Stage::TurboDecode,
                Stage::CrcCheck,
            ]
        );
        assert!(run.total() > Duration::ZERO);
    }

    #[test]
    fn decode_dominates_measured_time() {
        // The paper's headline microbenchmark result: turbo decoding is the
        // largest uplink stage. Should hold even unoptimized.
        let mut rng = SmallRng::seed_from_u64(3);
        let run = run_uplink_subframe(25, Mcs::new(16), &small_cfg(), &mut rng);
        assert!(run.crc_ok);
        let decode_share = run.stage_share(Stage::TurboDecode);
        assert!(decode_share > 0.3, "decode share only {decode_share}");
    }

    #[test]
    fn coded_bits_scale_with_prbs() {
        let mut rng = SmallRng::seed_from_u64(4);
        let r5 = run_uplink_subframe(5, Mcs::new(10), &small_cfg(), &mut rng);
        let r20 = run_uplink_subframe(20, Mcs::new(10), &small_cfg(), &mut rng);
        assert_eq!(r20.coded_bits, 4 * r5.coded_bits);
        assert!(r20.info_bits > 3 * r5.info_bits);
    }

    #[test]
    fn heavy_noise_breaks_crc() {
        let mut rng = SmallRng::seed_from_u64(5);
        let cfg = PipelineConfig {
            noise_sigma: 2.0,
            ..small_cfg()
        };
        let run = run_uplink_subframe(10, Mcs::new(20), &cfg, &mut rng);
        assert!(!run.crc_ok, "CRC passed through destructive noise");
        assert!(!run.payload_ok);
    }

    #[test]
    #[should_panic(expected = "PRB allocation out of range")]
    fn prb_bounds_enforced() {
        let mut rng = SmallRng::seed_from_u64(6);
        run_uplink_subframe(30, Mcs::new(5), &small_cfg(), &mut rng);
    }

    #[test]
    fn higher_mcs_more_info_bits() {
        let mut rng = SmallRng::seed_from_u64(7);
        let lo = run_uplink_subframe(10, Mcs::new(4), &small_cfg(), &mut rng);
        let hi = run_uplink_subframe(10, Mcs::new(22), &small_cfg(), &mut rng);
        assert!(hi.info_bits > 2 * lo.info_bits);
    }
}
