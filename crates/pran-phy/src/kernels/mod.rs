//! Executable DSP kernels backing the processing-time microbenchmarks.
//!
//! These are real implementations (bit-exact CRC, a working turbo codec, a
//! radix-2 FFT, Gray-mapped QAM with max-log LLRs, circular-buffer rate
//! matching, Gold-sequence scrambling) rather than sleep-based stand-ins:
//! the E2 experiment times them to reproduce the paper's
//! "where does uplink time go" result, and their measured scaling validates
//! the analytic [`crate::compute::ComputeModel`].

pub mod crc;
pub mod fft;
pub mod modulation;
pub mod rate_match;
pub mod scrambler;
pub mod turbo;

pub use crc::{Crc, CrcSpec, CRC16, CRC24A, CRC24B};
pub use fft::{ofdm_demodulate, Complex, Fft, FftDirection};
pub use modulation::{demodulate_llr, hard_decide, modulate};
pub use rate_match::{rate_match, rate_recover};
pub use scrambler::{scramble, GoldSequence};
pub use turbo::{
    turbo_decode, turbo_decode_with_scale, turbo_encode, turbo_encode_with, Codeword, DecodeResult,
    QppInterleaver, SoftCodeword, EXTRINSIC_SCALE, TAIL_BITS,
};
