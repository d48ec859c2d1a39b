//! Input generation: everything a workload feeds the program under test
//! is a pure function of `--seed` and the size divisor.

use std::time::Duration;

use pran::SystemConfig;
use pran_fronthaul::fault::FaultConfig;
use pran_ilp::BnbConfig;
use pran_mc::{Conformance, McConfig, ViewSemantics};
use pran_phy::FunctionalSplit;
use pran_sched::placement::dimensioning::GopsConverter;
use pran_sched::placement::{PlacementInstance, WarmConfig};
use pran_sched::realtime::ParallelConfig;
use pran_sim::{LinkFault, MetroConfig, PoolAccel, PoolConfig, SplitPlan};
use pran_traces::{generate, Trace, TraceConfig};

use crate::common::WORKERS;

/// splitmix64: the benchmark's only random source.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Seeded stream.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// Next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Which metro workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetroKind {
    /// `metro_clean`.
    Clean,
    /// `metro_degraded`.
    Degraded,
    /// `pool_parallel`.
    Parallel,
}

/// Everything a metro run is built from.
#[derive(Debug, Clone)]
pub struct MetroInputs {
    /// Shape, workers, root seed.
    pub config: MetroConfig,
    /// Per-shard pool configuration.
    pub pool: PoolConfig,
    /// Trace template (cells and seed are overridden per shard).
    pub trace: TraceConfig,
}

impl MetroInputs {
    /// Trace steps in the simulated day.
    pub fn steps(&self) -> usize {
        (self.trace.duration_seconds / self.trace.step_seconds).round() as usize
    }

    /// Placement epochs in the simulated day.
    pub fn epochs(&self) -> usize {
        self.steps().div_ceil(self.pool.epoch_steps)
    }

    /// Subframe tasks one full run must generate.
    pub fn expected_tasks(&self) -> u64 {
        (self.config.cells * self.steps() * self.pool.ttis_per_step) as u64
    }
}

/// Inputs of a metro workload at `1/div` size. The pool is the one
/// `MetroSimulator::try_new` builds (evaluation defaults plus warm
/// placement); `Degraded` and `Parallel` change only what their name says.
pub fn metro(kind: MetroKind, seed: u64, div: usize) -> MetroInputs {
    let (cells, shards) = match kind {
        MetroKind::Clean => (10_000, 8),
        MetroKind::Degraded => (4_000, 8),
        MetroKind::Parallel => (128, 2),
    };
    let cells = (cells / div).max(shards);
    let mut config = MetroConfig::default_eval(cells, shards);
    config.workers = WORKERS;
    config.seed = seed;
    let mut pool = PoolConfig::default_eval(config.servers_per_shard);
    pool.warm = Some(WarmConfig::default_eval());
    match kind {
        MetroKind::Clean => {}
        MetroKind::Degraded => {
            pool.fronthaul = Some(LinkFault {
                config: FaultConfig {
                    drop_prob: 0.01,
                    max_jitter: Duration::from_micros(800),
                    ..FaultConfig::clean()
                },
                seed,
            });
            let ladder = FunctionalSplit::all();
            pool.split_plan =
                SplitPlan::PerCell((0..cells).map(|c| ladder[c % ladder.len()]).collect());
            pool.accel = Some(PoolAccel::default_eval());
        }
        MetroKind::Parallel => {
            // `steal: true` is excluded: its outcome is not deterministic.
            pool.parallel = Some(ParallelConfig {
                cores: 4,
                batch: 4,
                steal: false,
            });
        }
    }
    let mut trace = TraceConfig::default_day(cells, seed);
    if kind == MetroKind::Parallel {
        // The executor's cost is per server-step whatever the load, and a
        // one-minute day is a six-second rep: two per run, too few for a
        // median. Four-minute steps keep the whole diurnal cycle in a
        // quarter of the steps.
        trace.step_seconds = 240.0;
    }
    MetroInputs {
        config,
        pool,
        trace,
    }
}

/// Inputs of `resident_live`: 3,000 cells / 4 shards, 2 ms fronthaul
/// jitter (so the live tap has misses to attribute), SLO armed.
pub fn resident(seed: u64, div: usize) -> MetroInputs {
    let cells = 3_000 / div;
    let mut config = MetroConfig::default_eval(cells, 4);
    config.workers = WORKERS;
    config.seed = seed;
    let mut pool = PoolConfig::default_eval(config.servers_per_shard);
    pool.warm = Some(WarmConfig::default_eval());
    pool.slo = Some(pran_insight::slo::SloPolicy::default_eval());
    pool.fronthaul = Some(LinkFault {
        config: FaultConfig {
            max_jitter: Duration::from_millis(2),
            ..FaultConfig::clean()
        },
        seed,
    });
    MetroInputs {
        config,
        pool,
        trace: TraceConfig::default_day(cells, seed),
    }
}

/// Inputs of `control_day`.
pub struct ControlInputs {
    /// Controller configuration: evaluation defaults, warm placement.
    pub system: SystemConfig,
    /// Cells to register.
    pub cells: usize,
    /// One day of per-cell utilization, a row per step.
    pub trace: Trace,
}

/// Seconds between the load reports (and epochs) of `control_day`. A day
/// at the controller's one-minute epochs is 1,440 steps of ≈ 11 ms, more
/// than a run can measure; a time-bounded prefix of it would let a faster
/// commit reach later, costlier hours and hide its own gain. Three-minute
/// steps keep the rep a whole day — night, morning ramp, peaks — at 480
/// steps.
pub const CONTROL_STEP_SECONDS: f64 = 180.0;

/// 3,000 cells on 1,500 servers (at `1/div`), driven by a seeded day
/// sampled every [`CONTROL_STEP_SECONDS`] (every 24 minutes in `--quick`).
pub fn control(seed: u64, div: usize) -> ControlInputs {
    let cells = 3_000 / div;
    let mut system = SystemConfig::default_eval(1_500 / div);
    system.warm = Some(WarmConfig::default_eval());
    let mut day = TraceConfig::default_day(cells, seed);
    day.step_seconds = CONTROL_STEP_SECONDS * div as f64;
    ControlInputs {
        system,
        cells,
        trace: generate(&day),
    }
}

/// Instances in the `placement_exact` library at full size.
pub const LIBRARY_SIZE: usize = 40;

/// Trace seed of library instance `i`. The library is fixed, as exact-
/// solver benchmarks fix theirs: branch-and-bound effort is chaotic in
/// the demands (one instance proves optimality in 3 nodes, its neighbour
/// exhausts 3,000, and merely reordering an instance's cells moved a
/// pass from 3.4 s to 8.6 s), so a seed-drawn library would measure the
/// draw, not the solver. `--seed` orders it instead (see [`placement`]).
fn library_trace_seed(i: usize) -> u64 {
    2_026_000 + i as u64
}

/// The `placement_exact` batch: the fixed library of ten-cell peak-hour
/// instances built as E5 builds them (hourly trace, hour 20,
/// `GopsConverter`, uniform 400-GOPS servers), solved in an order drawn
/// from `seed`.
pub fn placement(seed: u64, div: usize) -> Vec<PlacementInstance> {
    let conv = GopsConverter::default_eval();
    let mut rng = SplitMix64::new(seed);
    let mut batch: Vec<PlacementInstance> = (0..LIBRARY_SIZE / div)
        .map(|i| {
            let mut cfg = TraceConfig::default_day(10, library_trace_seed(i));
            cfg.step_seconds = 3600.0;
            let trace = generate(&cfg);
            let demands: Vec<f64> = trace.samples[20].iter().map(|&u| conv.gops(u)).collect();
            PlacementInstance::uniform(&demands, demands.len(), 400.0)
        })
        .collect();
    rng.shuffle(&mut batch);
    batch
}

/// Branch-and-bound limits of `placement_exact`: node-limited, never
/// time-limited, so the work done is deterministic.
pub fn placement_limits(div: usize) -> BnbConfig {
    BnbConfig {
        max_nodes: 3_000 / div,
        time_limit: Duration::from_secs(3600),
        ..BnbConfig::default()
    }
}

/// The two `mc_explore` configurations (linearizable, `Stale{k: 2}`):
/// E17's headline instance — 4 cells, 3 servers, report levels
/// `{0.25, 0.5}` — at depth 8 (6 in `--quick`). The explorer enumerates
/// every schedule, so there is no input left to draw: this is the one
/// workload `--seed` does not touch.
pub fn mc(quick: bool, conformance: Conformance) -> [McConfig; 2] {
    let base = McConfig {
        depth: if quick { 6 } else { 8 },
        conformance,
        ..McConfig::headline()
    };
    [
        base.clone(),
        McConfig {
            semantics: ViewSemantics::Stale { k: 2 },
            ..base
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_identical_inputs_and_another_seed_does_not() {
        // `PoolConfig` has no `PartialEq`; its `Debug` form carries every field.
        let text = |inputs: MetroInputs| format!("{inputs:?}");
        for kind in [MetroKind::Clean, MetroKind::Degraded, MetroKind::Parallel] {
            assert_eq!(text(metro(kind, 7, 8)), text(metro(kind, 7, 8)));
            assert_ne!(text(metro(kind, 7, 8)), text(metro(kind, 8, 8)));
            assert_eq!(metro(kind, 7, 8).config.workers, WORKERS);
        }
        assert_eq!(text(resident(7, 8)), text(resident(7, 8)));
        assert_ne!(text(resident(7, 8)), text(resident(8, 8)));

        let (a, b, c) = (control(7, 8), control(7, 8), control(8, 8));
        assert_eq!(a.trace, b.trace);
        assert_ne!(a.trace, c.trace);
        assert_eq!(a.cells, 375);
        assert_eq!(a.system.pool.servers, 187);

        assert_eq!(placement(7, 8), placement(7, 8));
        assert_ne!(placement(7, 8), placement(8, 8));

        let [lin, stale] = mc(true, Conformance::Every);
        assert_eq!((lin.cells, lin.servers, lin.depth), (4, 3, 6));
        assert_eq!(lin.semantics, ViewSemantics::Linearizable);
        assert_eq!(stale.semantics, ViewSemantics::Stale { k: 2 });
    }

    #[test]
    fn seed_orders_the_placement_library_without_changing_it() {
        let canon = |batch: Vec<PlacementInstance>| {
            let mut keys: Vec<Vec<u64>> = batch
                .iter()
                .map(|inst| inst.cells.iter().map(|c| c.gops.to_bits()).collect())
                .collect();
            keys.sort();
            keys
        };
        assert_eq!(canon(placement(1, 1)), canon(placement(2, 1)));
        assert_eq!(placement(1, 1).len(), LIBRARY_SIZE);
    }

    #[test]
    fn metro_sizes_are_the_issue_sizes() {
        let clean = metro(MetroKind::Clean, 1, 1);
        assert_eq!((clean.config.cells, clean.config.shards), (10_000, 8));
        assert_eq!(clean.expected_tasks(), 57_600_000);
        assert_eq!(clean.epochs(), 144);
        let degraded = metro(MetroKind::Degraded, 1, 1);
        assert_eq!(degraded.expected_tasks(), 23_040_000);
        assert!(matches!(&degraded.pool.split_plan, SplitPlan::PerCell(p) if p.len() == 4_000));
        let parallel = metro(MetroKind::Parallel, 1, 1);
        assert_eq!((parallel.config.cells, parallel.config.shards), (128, 2));
        assert_eq!(parallel.steps(), 360);
        assert!(parallel.pool.parallel.is_some());
        let live = resident(1, 1);
        assert_eq!((live.config.cells, live.config.shards), (3_000, 4));
        assert!(live.pool.slo.is_some());
    }
}
