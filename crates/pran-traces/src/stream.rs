//! Incremental trace generation for resident (long-running) simulations.
//!
//! [`TraceStream`] produces the *same* utilization rows as
//! [`generate`](crate::generate) — bit-exact, same RNG draw order — but one
//! step at a time into a caller-owned buffer, so a soak service can run
//! indefinitely without materializing a whole [`Trace`](crate::Trace) up
//! front. `generate` itself is a thin wrapper over this type, which is what
//! keeps the two paths from drifting.
//!
//! The diurnal envelope depends only on wall-clock time, so a stream can
//! run arbitrarily far past `cfg.duration_seconds`; the duration only
//! matters to the batch wrapper.

use std::sync::LazyLock;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::diurnal::{CellClass, DiurnalProfile};
use crate::generator::TraceConfig;
use crate::trace::{CellMeta, Point};

/// Side of the square deployment area, meters.
const AREA_SIDE_M: f64 = 10_000.0;

/// Std-dev of per-cell idiosyncratic noise (additive utilization).
const CELL_NOISE_SIGMA: f64 = 0.05;

/// AR(1) smoothing coefficient for both noise processes, `[0, 1)`.
const NOISE_SMOOTHING: f64 = 0.9;

/// The profile of each class of [`CellClass::all`], in that order: built
/// once per process and borrowed by every stream.
static CLASS_PROFILES: LazyLock<[DiurnalProfile; 4]> =
    LazyLock::new(|| CellClass::all().map(DiurnalProfile::for_class));

/// One standard normal variate (Box–Muller).
fn standard_normal(rng: &mut SmallRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Streaming twin of [`generate`](crate::generate): yields utilization rows
/// one step at a time, bit-exact with the batch generator.
#[derive(Debug, Clone)]
pub struct TraceStream {
    cfg: TraceConfig,
    cells: Vec<CellMeta>,
    class_profiles: &'static [DiurnalProfile; 4],
    class_of: Vec<usize>,
    rng: SmallRng,
    regional: f64,
    cell_noise: Vec<f64>,
    step: usize,
}

impl TraceStream {
    /// Build a stream: draws the per-cell metadata (classes, positions,
    /// peaks) exactly as the batch generator does, then parks the RNG at
    /// the first step.
    pub fn new(cfg: &TraceConfig) -> Self {
        assert!(cfg.num_cells > 0, "need at least one cell");
        assert!(cfg.step_seconds > 0.0 && cfg.duration_seconds > 0.0);
        let mut rng = SmallRng::seed_from_u64(cfg.seed);

        // Cells: positions, classes, scales — identical draw order to
        // `generate`.
        let cells: Vec<CellMeta> = (0..cfg.num_cells)
            .map(|id| {
                let class = cfg.class_mix.pick(rng.gen::<f64>());
                let position = Point {
                    x: rng.gen_range(0.0..AREA_SIDE_M),
                    y: rng.gen_range(0.0..AREA_SIDE_M),
                };
                let peak_utilization =
                    rng.gen_range(cfg.peak_utilization.0..=cfg.peak_utilization.1);
                CellMeta {
                    id,
                    class,
                    position,
                    peak_utilization,
                }
            })
            .collect();

        let classes = CellClass::all();
        let class_of: Vec<usize> = cells
            .iter()
            .map(|meta| classes.iter().position(|&k| k == meta.class).unwrap())
            .collect();

        TraceStream {
            cfg: cfg.clone(),
            class_profiles: &CLASS_PROFILES,
            class_of,
            rng,
            regional: 0.0,
            cell_noise: vec![0.0; cfg.num_cells],
            step: 0,
            cells,
        }
    }

    /// Per-cell metadata, in cell-id order.
    pub fn cells(&self) -> &[CellMeta] {
        &self.cells
    }

    /// Number of cells per row.
    pub fn num_cells(&self) -> usize {
        self.cells.len()
    }

    /// Index of the next step this stream will produce.
    pub fn step_index(&self) -> usize {
        self.step
    }

    /// Sampling step in seconds (from the config).
    pub fn step_seconds(&self) -> f64 {
        self.cfg.step_seconds
    }

    /// Produce the next step's utilization row into `row` (cleared first).
    /// Allocation-free once `row` has capacity for `num_cells` values.
    pub fn next_step_into(&mut self, row: &mut Vec<f64>) {
        let cfg = &self.cfg;
        let a = NOISE_SMOOTHING;
        let innov_scale = (1.0 - a * a).sqrt();

        let t_s = self.step as f64 * cfg.step_seconds;
        let hour = (t_s / 3600.0) % 24.0;
        self.regional =
            a * self.regional + innov_scale * cfg.regional_sigma * standard_normal(&mut self.rng);
        let regional_factor = (1.0 + self.regional).max(0.0);

        let mut envelope_at: [f64; 4] = [0.0; 4];
        for (k, profile) in self.class_profiles.iter().enumerate() {
            envelope_at[k] = profile.at(hour);
        }

        row.clear();
        row.reserve(self.cells.len());
        for (c, meta) in self.cells.iter().enumerate() {
            self.cell_noise[c] = a * self.cell_noise[c]
                + innov_scale * CELL_NOISE_SIGMA * standard_normal(&mut self.rng);
            let envelope = envelope_at[self.class_of[c]] * meta.peak_utilization;
            let crowd: f64 = cfg
                .flash_crowds
                .iter()
                .map(|fc| fc.boost_at(meta.position, t_s))
                .sum();
            let u = (envelope * regional_factor + self.cell_noise[c] + crowd).clamp(0.0, 1.0);
            row.push(u);
        }
        self.step += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;

    #[test]
    fn stream_matches_batch_generator_bit_exactly() {
        let mut cfg = TraceConfig::default_day(24, 91);
        cfg.duration_seconds = 2.0 * 86_400.0;
        cfg.flash_crowds.push(crate::FlashCrowd {
            epicenter: Point {
                x: 4000.0,
                y: 6000.0,
            },
            radius_m: 3000.0,
            start_s: 10.0 * 3600.0,
            duration_s: 3600.0,
            boost: 0.6,
        });
        let batch = generate(&cfg);
        let mut stream = TraceStream::new(&cfg);
        assert_eq!(stream.cells(), batch.cells.as_slice());
        let mut row = Vec::new();
        for (t, want) in batch.samples.iter().enumerate() {
            assert_eq!(stream.step_index(), t);
            stream.next_step_into(&mut row);
            assert_eq!(&row, want, "row {t} diverged");
        }
    }

    #[test]
    fn streams_borrow_one_profile_table() {
        let a = TraceStream::new(&TraceConfig::default_day(4, 1));
        let b = TraceStream::new(&TraceConfig::default_day(9, 2));
        assert!(std::ptr::eq(a.class_profiles, b.class_profiles));
        for (class, profile) in CellClass::all().into_iter().zip(a.class_profiles) {
            assert_eq!(*profile, DiurnalProfile::for_class(class), "{class}");
        }
    }

    #[test]
    fn stream_runs_past_configured_duration() {
        let cfg = TraceConfig::default_day(4, 3);
        let steps = cfg.num_steps();
        let mut stream = TraceStream::new(&cfg);
        let mut row = Vec::new();
        for _ in 0..steps + 10 {
            stream.next_step_into(&mut row);
            assert!(row.iter().all(|u| (0.0..=1.0).contains(u)));
        }
        assert_eq!(stream.step_index(), steps + 10);
    }

    #[test]
    fn next_step_into_reuses_buffer_capacity() {
        let cfg = TraceConfig::default_day(16, 5);
        let mut stream = TraceStream::new(&cfg);
        let mut row = Vec::with_capacity(16);
        let ptr = row.as_ptr();
        for _ in 0..50 {
            stream.next_step_into(&mut row);
        }
        assert_eq!(row.as_ptr(), ptr, "row buffer must not reallocate");
    }
}
