//! Trace synthesis: diurnal envelope × correlated noise × flash crowds.
//!
//! The generator composes, per cell and step:
//!
//! 1. the class diurnal envelope scaled by the cell's peak utilization;
//! 2. a *regional* multiplicative factor shared by all cells (weather, big
//!    events, outages elsewhere) — this is what keeps cells from being
//!    independent and caps the multiplexing gain realistically;
//! 3. idiosyncratic per-cell noise (AR(1)-smoothed);
//! 4. optional flash crowds: time-windowed load boosts centered at a point,
//!    decaying with distance.
//!
//! All randomness flows from a caller-supplied seed, so traces are fully
//! reproducible.

use serde::{Deserialize, Serialize};

use crate::diurnal::CellClass;
use crate::trace::{Point, Trace};

/// A flash-crowd event: cells near `epicenter` see up to `boost` extra
/// utilization during `[start_s, start_s + duration_s)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlashCrowd {
    /// Center of the event.
    pub epicenter: Point,
    /// Meters over which the boost decays to `e⁻¹`.
    pub radius_m: f64,
    /// Event start, seconds from trace start.
    pub start_s: f64,
    /// Event duration in seconds.
    pub duration_s: f64,
    /// Peak added utilization at the epicenter, in `[0, 1]`.
    pub boost: f64,
}

impl FlashCrowd {
    /// Added utilization for a cell at `pos` at absolute time `t_s`.
    pub fn boost_at(&self, pos: Point, t_s: f64) -> f64 {
        if t_s < self.start_s || t_s >= self.start_s + self.duration_s {
            return 0.0;
        }
        // Ramp up/down over the first/last 10% of the window.
        let progress = (t_s - self.start_s) / self.duration_s;
        let ramp = (progress / 0.1).min((1.0 - progress) / 0.1).min(1.0);
        let d = self.epicenter.distance(pos);
        self.boost * ramp * (-(d / self.radius_m).powi(2)).exp()
    }
}

/// Mix of cell classes, as relative weights.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClassMix {
    /// Relative weight of residential cells.
    pub residential: f64,
    /// Relative weight of office cells.
    pub office: f64,
    /// Relative weight of transport cells.
    pub transport: f64,
    /// Relative weight of entertainment cells.
    pub entertainment: f64,
}

impl ClassMix {
    /// The default urban mix.
    fn urban() -> Self {
        ClassMix {
            residential: 0.4,
            office: 0.3,
            transport: 0.2,
            entertainment: 0.1,
        }
    }

    /// Pick a class for fraction `u ∈ [0, 1)` of the weight mass.
    pub fn pick(&self, u: f64) -> CellClass {
        let total = self.residential + self.office + self.transport + self.entertainment;
        assert!(total > 0.0, "class mix must have positive weight");
        let x = u * total;
        if x < self.residential {
            CellClass::Residential
        } else if x < self.residential + self.office {
            CellClass::Office
        } else if x < self.residential + self.office + self.transport {
            CellClass::Transport
        } else {
            CellClass::Entertainment
        }
    }
}

/// Generator configuration. Cells sit uniformly on a 10 km square, and
/// the per-cell noise is fixed (σ 0.05, AR(1) coefficient 0.9; see
/// [`TraceStream`](crate::TraceStream)).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceConfig {
    /// Number of cells.
    pub num_cells: usize,
    /// Sampling step, seconds.
    pub step_seconds: f64,
    /// Trace duration, seconds.
    pub duration_seconds: f64,
    /// Mix of cell classes.
    pub class_mix: ClassMix,
    /// Range of per-cell peak utilization `[lo, hi] ⊂ (0, 1]`.
    pub peak_utilization: (f64, f64),
    /// Std-dev of the shared regional factor (multiplicative, around 1).
    pub regional_sigma: f64,
    /// Flash-crowd events to inject.
    pub flash_crowds: Vec<FlashCrowd>,
    /// RNG seed — traces are fully reproducible.
    pub seed: u64,
}

impl TraceConfig {
    /// A day of 50 cells at 1-minute resolution — the E3/E4 default.
    pub fn default_day(num_cells: usize, seed: u64) -> Self {
        TraceConfig {
            num_cells,
            step_seconds: 60.0,
            duration_seconds: 24.0 * 3600.0,
            class_mix: ClassMix::urban(),
            peak_utilization: (0.5, 1.0),
            regional_sigma: 0.08,
            flash_crowds: Vec::new(),
            seed,
        }
    }

    /// Rows a trace of this duration holds: `duration / step`, rounded.
    pub fn num_steps(&self) -> usize {
        (self.duration_seconds / self.step_seconds).round() as usize
    }
}

/// Generate a trace from a configuration.
///
/// A thin batch wrapper over [`TraceStream`](crate::TraceStream): the stream
/// owns the cell-draw and per-step RNG order, so incremental (resident soak)
/// and batch generation cannot drift apart.
pub fn generate(cfg: &TraceConfig) -> Trace {
    let gen_span = pran_telemetry::trace::span("traces.generate");
    let mut stream = crate::stream::TraceStream::new(cfg);

    let steps = cfg.num_steps();
    let mut samples = Vec::with_capacity(steps);
    for _ in 0..steps {
        let mut row = Vec::with_capacity(cfg.num_cells);
        stream.next_step_into(&mut row);
        samples.push(row);
    }

    let trace = Trace {
        step_seconds: cfg.step_seconds,
        cells: stream.cells().to_vec(),
        samples,
    };
    debug_assert!(trace.validate().is_ok());
    gen_span.finish_with(&[
        ("cells", cfg.num_cells.into()),
        ("steps", steps.into()),
        ("seed", cfg.seed.into()),
        ("flash_crowds", cfg.flash_crowds.len().into()),
    ]);
    trace
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_trace_validates() {
        let t = generate(&TraceConfig::default_day(20, 42));
        assert!(t.validate().is_ok());
        assert_eq!(t.num_cells(), 20);
        assert_eq!(t.num_steps(), 1440);
    }

    #[test]
    fn deterministic_for_seed() {
        let a = generate(&TraceConfig::default_day(10, 7));
        let b = generate(&TraceConfig::default_day(10, 7));
        assert_eq!(a, b);
        let c = generate(&TraceConfig::default_day(10, 8));
        assert_ne!(a, c);
    }

    #[test]
    fn multiplexing_gain_materializes() {
        // Mixed-class cells must pool better than 1:1 but far from
        // independence (regional factor correlates them).
        let t = generate(&TraceConfig::default_day(60, 3));
        let gain = t.multiplexing_gain();
        assert!(gain > 1.2, "gain {gain} too small — profiles too aligned");
        assert!(gain < 4.0, "gain {gain} implausibly large");
    }

    #[test]
    fn class_mix_pick_respects_weights() {
        let mix = ClassMix {
            residential: 1.0,
            office: 0.0,
            transport: 0.0,
            entertainment: 0.0,
        };
        for i in 0..10 {
            assert_eq!(mix.pick(i as f64 / 10.0), CellClass::Residential);
        }
        let mix = ClassMix::urban();
        assert_eq!(mix.pick(0.0), CellClass::Residential);
        assert_eq!(mix.pick(0.99), CellClass::Entertainment);
    }

    #[test]
    fn flash_crowd_boosts_nearby_cells_during_window() {
        let fc = FlashCrowd {
            epicenter: Point { x: 0.0, y: 0.0 },
            radius_m: 1000.0,
            start_s: 100.0,
            duration_s: 1000.0,
            boost: 0.5,
        };
        let near = Point { x: 100.0, y: 0.0 };
        let far = Point { x: 5000.0, y: 0.0 };
        let mid_window = 600.0;
        assert!(fc.boost_at(near, mid_window) > 0.4);
        assert!(fc.boost_at(far, mid_window) < 0.01);
        assert_eq!(fc.boost_at(near, 50.0), 0.0, "before window");
        assert_eq!(fc.boost_at(near, 1200.0), 0.0, "after window");
    }

    #[test]
    fn flash_crowd_ramps() {
        let fc = FlashCrowd {
            epicenter: Point { x: 0.0, y: 0.0 },
            radius_m: 1000.0,
            start_s: 0.0,
            duration_s: 1000.0,
            boost: 1.0,
        };
        let p = Point { x: 0.0, y: 0.0 };
        assert!(fc.boost_at(p, 10.0) < fc.boost_at(p, 500.0));
        assert!(fc.boost_at(p, 990.0) < fc.boost_at(p, 500.0));
    }

    #[test]
    fn flash_crowd_shows_up_in_trace() {
        let mut cfg = TraceConfig::default_day(30, 11);
        // A mid-day crowd covering the whole area.
        cfg.flash_crowds.push(FlashCrowd {
            epicenter: Point {
                x: 5000.0,
                y: 5000.0,
            },
            radius_m: 20_000.0,
            start_s: 12.0 * 3600.0,
            duration_s: 2.0 * 3600.0,
            boost: 0.8,
        });
        let with = generate(&cfg);
        cfg.flash_crowds.clear();
        let without = generate(&cfg);
        // Aggregate during the window must be clearly higher.
        let idx = (12.5 * 3600.0 / 60.0) as usize;
        let agg_with: f64 = with.samples[idx].iter().sum();
        let agg_without: f64 = without.samples[idx].iter().sum();
        assert!(
            agg_with > agg_without + 0.3 * 30.0 * 0.5,
            "crowd invisible: {agg_with} vs {agg_without}"
        );
    }

    #[test]
    fn office_cells_follow_office_rhythm() {
        let mut cfg = TraceConfig::default_day(8, 5);
        cfg.class_mix = ClassMix {
            residential: 0.0,
            office: 1.0,
            transport: 0.0,
            entertainment: 0.0,
        };
        cfg.regional_sigma = 0.0;
        let t = generate(&cfg);
        let agg = t.aggregate_series();
        let noon = agg[(12.0 * 60.0) as usize];
        let night = agg[(3.0 * 60.0) as usize];
        assert!(noon > 4.0 * night, "noon {noon} vs night {night}");
    }

    #[test]
    fn config_with_retired_keys_generates_the_default_day() {
        // Written while the area, the cell noise and weekly seasonality
        // were settable: their keys are skipped, and the rows are the
        // default day's to the bit.
        let day = TraceConfig::default_day(5, 77);
        let text = serde_json::to_string(&day).unwrap();
        let retired = format!(
            r#"{},"area_side_m":10000.0,"cell_noise_sigma":0.05,"noise_smoothing":0.9,"weekend_factor":1.0}}"#,
            &text[..text.len() - 1]
        );
        let read: TraceConfig = serde_json::from_str(&retired).unwrap();
        assert_eq!(read, day);
        let (a, b) = (generate(&read), generate(&day));
        for (x, y) in a.samples.iter().flatten().zip(b.samples.iter().flatten()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert_eq!(a, b);
    }

    #[test]
    fn regional_factor_induces_positive_correlation() {
        let mut cfg = TraceConfig::default_day(2, 21);
        cfg.class_mix = ClassMix {
            residential: 1.0,
            office: 0.0,
            transport: 0.0,
            entertainment: 0.0,
        };
        cfg.regional_sigma = 0.25;
        let t = generate(&cfg);
        assert!(t.correlation(0, 1) > 0.5, "corr {}", t.correlation(0, 1));
    }
}
