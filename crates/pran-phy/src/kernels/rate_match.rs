//! Circular-buffer rate matching between the turbo coder and the PRB grid.
//!
//! The encoder always emits `3K + 12` bits; the scheduler grants room for
//! `E` coded bits (PRBs × REs × Qm). Rate matching selects `E` bits from a
//! circular buffer — puncturing when `E < 3K + 12`, repeating when larger.
//! The receiver-side dual accumulates repeated LLRs (soft combining) and
//! leaves punctured positions at LLR 0 (erasure).
//!
//! Buffer layout: `sys(K+3) ‖ interlace(Π(p1), Π(p2)) ‖ sys2_tail(3)`,
//! where `Π` is a 32-column sub-block interleaver and `interlace` alternates
//! the two parity streams bit by bit (as in 36.212 §5.1.4.1.2). Systematic
//! bits survive puncturing first; the interleaving spreads whatever parity
//! *does* survive uniformly across the trellis, and the interlacing splits
//! it evenly between the two constituent codes. Both matter: without the
//! spread, heavy puncturing (MCS ≥ 25 runs the mother code near rate 0.95)
//! leaves the tail of every code block parity-free; without the interlacing,
//! any rate above ~0.66 starves encoder 2 of parity entirely and the code
//! collapses to a single weak punctured convolutional code.

use crate::kernels::turbo::{Codeword, SoftCodeword, TAIL_BITS};

/// Columns of the sub-block interleaver (3GPP uses 32).
const SUBBLOCK_COLUMNS: usize = 32;

/// Permutation of `0..len` reading a 32-column row-major grid column by
/// column (skipping the pad cells of the last partial row). Consecutive
/// output positions map to input positions ~`len/32` apart, so a punctured
/// suffix removes bits evenly across the stream.
fn subblock_permutation(len: usize) -> Vec<usize> {
    let cols = SUBBLOCK_COLUMNS;
    let rows = len.div_ceil(cols);
    let mut out = Vec::with_capacity(len);
    for col in 0..cols {
        for row in 0..rows {
            let idx = row * cols + col;
            if idx < len {
                out.push(idx);
            }
        }
    }
    out
}

/// Select `e` bits from the codeword's circular buffer (redundancy
/// version 0 — selection starts at the buffer head, systematic-first).
pub fn rate_match(cw: &Codeword, e: usize) -> Vec<u8> {
    let section = cw.systematic.len();
    let perm = subblock_permutation(section);
    let mut buffer = Vec::with_capacity(3 * section + TAIL_BITS);
    buffer.extend_from_slice(&cw.systematic);
    for &i in &perm {
        buffer.push(cw.parity1[i]);
        buffer.push(cw.parity2[i]);
    }
    buffer.extend_from_slice(&cw.systematic2_tail);
    (0..e).map(|i| buffer[i % buffer.len()]).collect()
}

/// Receiver dual of [`rate_match`]: scatter `e` received LLRs back into a
/// full-size soft codeword, accumulating repeats (soft combining) and
/// leaving punctured positions at 0 (erasure).
pub fn rate_recover(llrs: &[f64], k: usize) -> SoftCodeword {
    let section = k + TAIL_BITS;
    let buffer_len = 3 * section + TAIL_BITS;
    let mut acc = vec![0.0f64; buffer_len];
    for (i, &l) in llrs.iter().enumerate() {
        acc[i % buffer_len] += l;
    }
    let perm = subblock_permutation(section);
    let systematic = acc[..section].to_vec();
    let mut parity1 = vec![0.0f64; section];
    let mut parity2 = vec![0.0f64; section];
    for (pos, &src) in perm.iter().enumerate() {
        parity1[src] = acc[section + 2 * pos];
        parity2[src] = acc[section + 2 * pos + 1];
    }
    let t = &acc[3 * section..];
    SoftCodeword {
        systematic,
        parity1,
        parity2,
        systematic2_tail: [t[0], t[1], t[2]],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::turbo::{turbo_decode, turbo_encode, QppInterleaver};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn random_bits(k: usize, seed: u64) -> Vec<u8> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..k).map(|_| rng.gen_range(0..2u8)).collect()
    }

    fn to_llrs(bits: &[u8], amp: f64) -> Vec<f64> {
        bits.iter()
            .map(|&b| if b == 0 { amp } else { -amp })
            .collect()
    }

    #[test]
    fn full_buffer_roundtrips_every_position() {
        // Matching the full buffer and recovering must reproduce every
        // stream exactly (the sub-block permutation is bijective).
        let k = 64;
        let cw = turbo_encode(&random_bits(k, 1));
        let matched = rate_match(&cw, cw.total_bits());
        let soft = rate_recover(&to_llrs(&matched, 1.0), k);
        let check = |bits: &[u8], llrs: &[f64]| {
            for (b, l) in bits.iter().zip(llrs.iter()) {
                let hard = u8::from(*l < 0.0);
                assert_eq!(hard, *b);
                assert_eq!(l.abs(), 1.0);
            }
        };
        check(&cw.systematic, &soft.systematic);
        check(&cw.parity1, &soft.parity1);
        check(&cw.parity2, &soft.parity2);
        check(&cw.systematic2_tail, &soft.systematic2_tail);
    }

    #[test]
    fn repetition_wraps_circularly() {
        let cw = turbo_encode(&random_bits(40, 2));
        let total = cw.total_bits();
        let matched = rate_match(&cw, total + 10);
        assert_eq!(&matched[total..], &matched[..10]);
    }

    #[test]
    fn puncturing_keeps_systematic_first() {
        let k = 64;
        let msg = random_bits(k, 3);
        let cw = turbo_encode(&msg);
        let matched = rate_match(&cw, k); // rate 1: only systematic survives
        assert_eq!(&matched[..k], &msg[..]);
    }

    #[test]
    fn recover_accumulates_repeats() {
        let k = 40;
        let cw = turbo_encode(&random_bits(k, 4));
        let total = cw.total_bits();
        let matched = rate_match(&cw, 2 * total);
        let soft = rate_recover(&to_llrs(&matched, 1.0), k);
        // Every position seen twice → |LLR| = 2.
        assert!(soft.systematic.iter().all(|l| l.abs() == 2.0));
        assert!(soft.parity1.iter().all(|l| l.abs() == 2.0));
    }

    #[test]
    fn punctured_positions_are_erasures_and_survivors_spread() {
        let k = 40;
        let cw = turbo_encode(&random_bits(k, 5));
        let e = (k + TAIL_BITS) + 20; // systematic + 20 bits of parity
        let matched = rate_match(&cw, e);
        let soft = rate_recover(&to_llrs(&matched, 1.0), k);
        let surviving = |llrs: &[f64]| -> Vec<usize> {
            llrs.iter()
                .enumerate()
                .filter(|(_, &l)| l != 0.0)
                .map(|(i, _)| i)
                .collect()
        };
        let s1 = surviving(&soft.parity1);
        let s2 = surviving(&soft.parity2);
        // Parity is interlaced in the circular buffer, so puncturing must
        // split the survivors evenly between the constituent codes —
        // otherwise one decoder runs parity-free and turbo gain vanishes.
        assert_eq!(s1.len(), 10, "p1 survivors: {s1:?}");
        assert_eq!(s2.len(), 10, "p2 survivors: {s2:?}");
        // The sub-block interleaver must spread survivors across the
        // block, not bunch them at the front.
        assert!(*s1.last().unwrap() > k / 2, "p1 survivors bunched: {s1:?}");
        assert!(*s2.last().unwrap() > k / 2, "p2 survivors bunched: {s2:?}");
    }

    #[test]
    fn end_to_end_punctured_decode() {
        // Rate ~1/2 (puncture a third of the mother code) decodes cleanly
        // on a noiseless channel.
        let k = 128;
        let msg = random_bits(k, 6);
        let cw = turbo_encode(&msg);
        let e = 2 * k + 24;
        let matched = rate_match(&cw, e);
        let soft = rate_recover(&to_llrs(&matched, 4.0), k);
        let il = QppInterleaver::for_block_size(k).unwrap();
        let out = turbo_decode(&soft, &il, 8);
        assert_eq!(out.bits, msg);
    }

    #[test]
    fn end_to_end_repeated_decode() {
        let k = 64;
        let msg = random_bits(k, 7);
        let cw = turbo_encode(&msg);
        let e = cw.total_bits() * 3 / 2;
        let matched = rate_match(&cw, e);
        let soft = rate_recover(&to_llrs(&matched, 2.0), k);
        let il = QppInterleaver::for_block_size(k).unwrap();
        let out = turbo_decode(&soft, &il, 6);
        assert_eq!(out.bits, msg);
    }
}
