//! Property tests over the DSP kernels: round-trip identities and
//! integrity invariants that must hold for arbitrary payloads.

use proptest::prelude::*;

use pran_phy::kernels::crc::{Crc, CRC24A, CRC24B};
use pran_phy::kernels::fft::{Complex, Fft};
use pran_phy::kernels::modulation::{demodulate_llr, hard_decide, modulate};
use pran_phy::kernels::scrambler::scramble;
use pran_phy::kernels::turbo::{turbo_decode, turbo_encode, QppInterleaver, SoftCodeword};
use pran_phy::mcs::Modulation;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// CRC attach → check succeeds; any single corruption is caught.
    #[test]
    fn crc_roundtrip_and_detection(
        payload in proptest::collection::vec(any::<u8>(), 1..200),
        flip_byte_frac in 0.0f64..1.0,
        flip_bit in 0u8..8,
    ) {
        for spec in [CRC24A, CRC24B] {
            let crc = Crc::new(spec);
            let mut framed = payload.clone();
            crc.attach(&mut framed);
            prop_assert_eq!(crc.check(&framed), Some(&payload[..]));
            let mut corrupted = framed.clone();
            let idx = ((framed.len() - 1) as f64 * flip_byte_frac) as usize;
            corrupted[idx] ^= 1 << flip_bit;
            prop_assert!(crc.check(&corrupted).is_none());
        }
    }

    /// FFT forward→inverse is the identity for arbitrary signals.
    #[test]
    fn fft_roundtrip(
        log_n in 3u32..10,
        seed in proptest::collection::vec(-10.0f64..10.0, 16),
    ) {
        let n = 1usize << log_n;
        let fft = Fft::new(n);
        let x: Vec<Complex> = (0..n)
            .map(|i| {
                let a = seed[i % seed.len()];
                let b = seed[(i * 7 + 3) % seed.len()];
                Complex::new(a, b)
            })
            .collect();
        let back = fft.inverse(&fft.forward(&x));
        for (a, b) in x.iter().zip(back.iter()) {
            prop_assert!((a.re - b.re).abs() < 1e-8 && (a.im - b.im).abs() < 1e-8);
        }
    }

    /// Modulate → noiseless LLR demod → hard decision is the identity for
    /// every constellation and any bit stream.
    #[test]
    fn modulation_roundtrip(
        bits in proptest::collection::vec(0u8..2, 6..600),
        m_idx in 0usize..3,
    ) {
        let m = [Modulation::Qpsk, Modulation::Qam16, Modulation::Qam64][m_idx];
        let qm = m.bits_per_symbol() as usize;
        let usable = (bits.len() / qm) * qm;
        prop_assume!(usable > 0);
        let bits = &bits[..usable];
        let decided = hard_decide(&demodulate_llr(&modulate(bits, m), m, 1e-6));
        prop_assert_eq!(&decided[..], bits);
    }

    /// Scrambling is a seed-keyed involution that never fixes every bit of
    /// a long-enough buffer.
    #[test]
    fn scrambler_involution(
        bits in proptest::collection::vec(0u8..2, 64..512),
        seed in 1u32..0x7FFF_FFFF,
    ) {
        let once = scramble(&bits, seed);
        prop_assert_eq!(scramble(&once, seed), bits.clone());
        prop_assert_ne!(once, bits, "a 64+ bit buffer never scrambles to itself");
    }

    /// Turbo encode → perfect-channel decode is exact for every supported
    /// block size and any message.
    #[test]
    fn turbo_noiseless_roundtrip(
        size_idx in 0usize..4,
        fill_seed in any::<u64>(),
    ) {
        let k = [40usize, 64, 128, 256][size_idx];
        let msg: Vec<u8> = (0..k)
            .map(|i| (((fill_seed >> (i % 64)) & 1) as u8) ^ ((i / 64) as u8 & 1))
            .collect();
        let cw = turbo_encode(&msg);
        let il = QppInterleaver::for_block_size(k).unwrap();
        let soft = SoftCodeword::from_codeword(&cw, 4.0);
        let out = turbo_decode(&soft, &il, 6);
        prop_assert_eq!(out.bits, msg);
    }
}
