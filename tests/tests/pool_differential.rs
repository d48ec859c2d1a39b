//! Differential layer for the zero-allocation epoch hot path.
//!
//! `PoolSimulator::run` executes epochs through `PoolShard::execute`
//! (the reusable `HotBuffers` scratch: flat `TaskBatch` SoA queues,
//! `simulate_into`, `dispatch_grid`, the shard's parallel executor);
//! `pran_integration_tests::reference` keeps the seed's allocate-per-step
//! executor, written against `pran-sim`'s public API and sharing no code
//! with the hot loop, and runs it through the same event loop with
//! `PoolSimulator::run_with`. The two must be *byte-identical* after
//! serde serialization — every finish time, histogram bucket, failover
//! record and alert — for every feature that reaches the per-step loop:
//! global-EDF dispatch, warm placement, fronthaul faults, server failures
//! and the parallel executor, pinned or stealing, on the default four
//! cores or more. (The pool dispatches by EDF only; `pran-sched`'s own
//! tests and `proptest_cross` cover the other policies.) The metro cases
//! hold `MetroSimulator::run` to the oracle's shards merged in shard
//! order (`reference::run_metro`).
//!
//! An ideal fronthaul with analytic dispatch takes the grid path
//! (`realtime::dispatch_grid`: one row per cell, TTI by TTI, a TTI that
//! finds every core free replaying TTI 0), traced or not; the reference
//! always expands every task and dispatches through `simulate`.
//! Overloaded pools carry core clocks from TTI to TTI and miss deadlines,
//! and a clean link — present, lossless, jitter-free — sends the
//! identical input down the batch path instead: both must agree with the
//! grid. `traced_grid.rs` holds the grid's `subframe` events to the
//! reference's, in a binary of its own because the tracer is global.
//!
//! The parallel executor schedules its simulated cores in virtual time
//! on the calling thread, so work stealing is as repeatable as the
//! static partition and inside the byte-identity contract. The two paths
//! reach it through different entry points — `TaskBatch` columns with a
//! reused scratch on the hot path, freshly built `RtTask`s in the
//! reference — and its own scheduling is pinned against a test-only
//! oracle in `pran-sched` (`realtime::parallel` unit tests).

use std::time::Duration;

use pran_fronthaul::fault::FaultConfig;
use pran_integration_tests::reference;
use pran_phy::FunctionalSplit;
use pran_sched::placement::WarmConfig;
use pran_sched::realtime::ParallelConfig;
use pran_sim::{
    FailureSpec, LinkFault, MetroConfig, MetroReport, MetroSimulator, PoolAccel, PoolConfig,
    PoolMetrics, PoolShard, PoolSimulator, SimReport, SplitPlan,
};
use pran_traces::{generate, Trace, TraceConfig};

fn trace(cells: usize, seed: u64) -> Trace {
    let mut cfg = TraceConfig::default_day(cells, seed);
    cfg.duration_seconds = 2.0 * 3600.0;
    cfg.step_seconds = 120.0;
    generate(&cfg)
}

/// Serialize both paths for the same (trace, config, failures) and
/// compare the exact bytes. Returns the hot path's report.
fn assert_paths_identical(
    label: &str,
    cells: usize,
    cfg: PoolConfig,
    failures: &[FailureSpec],
) -> SimReport {
    let mut hot = PoolSimulator::new(trace(cells, 42), cfg.clone());
    let mut reference = PoolSimulator::new(trace(cells, 42), cfg);
    for &f in failures {
        hot.inject_failure(f);
        reference.inject_failure(f);
    }
    let report = hot.run();
    let hot_json = serde_json::to_string_pretty(&report).expect("hot report serializes");
    let ref_json = serde_json::to_string_pretty(&reference::run(&mut reference))
        .expect("reference serializes");
    assert_eq!(
        hot_json, ref_json,
        "{label}: hot path diverged from reference"
    );
    report
}

#[test]
fn analytic_default_is_identical() {
    let mut cfg = PoolConfig::default_eval(6);
    cfg.epoch_steps = 10;
    assert_paths_identical("analytic default", 16, cfg, &[]);
}

/// Placing against a fraction of the predicted demand packs more cells
/// on a server than its cores clear in one TTI, so the grid path carries
/// core clocks from TTI to TTI and misses. A TTI that replayed TTI 0
/// would miss exactly where TTI 0 did; the miss ratio rising with the
/// TTIs sampled per step is the backlog carried across them.
#[test]
fn overloaded_grid_is_identical() {
    for headroom in [0.25, 0.3, 0.5, 0.7] {
        let mut last_ratio = -1.0;
        for ttis in [1, 4, 7, 10] {
            let mut cfg = PoolConfig::default_eval(6);
            cfg.epoch_steps = 10;
            cfg.headroom = headroom;
            cfg.ttis_per_step = ttis;
            let label = format!("headroom {headroom}, {ttis} TTIs per step");
            let ratio = assert_paths_identical(&label, 40, cfg, &[])
                .metrics
                .miss_ratio();
            assert!(
                ratio > last_ratio,
                "{label}: miss ratio {ratio} did not rise"
            );
            last_ratio = ratio;
        }
    }
}

/// The metrics and the armed live fold of one shard executing `trace`
/// epoch by epoch, as `PoolSimulator::run` drives it without failures.
fn execute_shard(cfg: PoolConfig, trace: &Trace) -> (PoolMetrics, pran_insight::live::LiveFold) {
    let epoch_steps = cfg.epoch_steps;
    let mut shard = PoolShard::try_new(cfg, trace.num_cells()).expect("config validates");
    let mut metrics = PoolMetrics::default();
    for (epoch, rows) in trace.samples.chunks(epoch_steps).enumerate() {
        shard.place(rows, &mut metrics);
        shard.execute(rows, epoch * epoch_steps, trace.step_seconds, &mut metrics);
    }
    let fold = shard.live_fold().expect("armed executes build the fold");
    (metrics, fold.clone())
}

/// A clean link delivers every report on the TTI grid, but a link at all
/// sends the shard down the batch path: one row per task through
/// `simulate_into`. Everything both paths report must agree but the bytes
/// the link metered, the live fold included — on a loaded pool and on one
/// whose TTIs carry over.
#[test]
fn clean_links_take_the_batch_path_to_the_grid_result() {
    pran_telemetry::live::arm(1, 16);
    for (headroom, ttis) in [(1.1, 4), (0.3, 7)] {
        let mut on_grid = PoolConfig::default_eval(6);
        on_grid.headroom = headroom;
        on_grid.ttis_per_step = ttis;
        let mut linked = on_grid.clone();
        linked.fronthaul = Some(LinkFault {
            config: FaultConfig::clean(),
            seed: 7,
        });
        let label = format!("headroom {headroom}, {ttis} TTIs per step");
        let trace = trace(40, 42);
        let (grid, grid_fold) = execute_shard(on_grid, &trace);
        let (mut batch, batch_fold) = execute_shard(linked, &trace);
        assert!(
            batch.fronthaul_bytes > 0,
            "{label}: the link metered nothing"
        );
        assert_eq!(batch.reports_lost, 0, "{label}: a clean link lost a report");
        batch.fronthaul_bytes = 0;
        assert_eq!(
            serde_json::to_string(&grid).unwrap(),
            serde_json::to_string(&batch).unwrap(),
            "{label}: grid and batch paths disagree"
        );
        assert!(
            grid.deadline_misses > 0 || headroom > 1.0,
            "{label}: no misses"
        );
        assert_eq!(grid_fold, batch_fold, "{label}: the live folds disagree");
        assert_eq!(grid_fold.tasks(), grid.tasks_total - grid.tasks_lost);
    }
    pran_telemetry::live::disarm();
}

#[test]
fn warm_placement_is_identical() {
    let mut cfg = PoolConfig::default_eval(6);
    cfg.epoch_steps = 10;
    cfg.warm = Some(WarmConfig::default_eval());
    assert_paths_identical("warm placement", 16, cfg, &[]);
}

#[test]
fn fronthaul_faults_are_identical() {
    // Drops, jitter and a tight token bucket all at once: exercises the
    // per-TTI link advance/draw ordering in the hot path.
    let mut cfg = PoolConfig::default_eval(6);
    cfg.epoch_steps = 10;
    cfg.fronthaul = Some(LinkFault {
        config: pran_fronthaul::fault::FaultConfig {
            drop_prob: 0.08,
            max_jitter: Duration::from_micros(400),
            bucket_capacity: 3,
            refill_per_interval: 2,
            refill_interval: Duration::from_millis(1),
        },
        seed: 7,
    });
    assert_paths_identical("fronthaul faults", 16, cfg, &[]);
}

#[test]
fn server_failures_are_identical() {
    let mut cfg = PoolConfig::default_eval(6);
    cfg.epoch_steps = 10;
    let failures = [
        FailureSpec {
            server: 1,
            at: Duration::from_secs(1800),
            recover_after: Some(Duration::from_secs(1200)),
        },
        FailureSpec {
            server: 3,
            at: Duration::from_secs(3600),
            recover_after: None,
        },
    ];
    assert_paths_identical("server failures", 16, cfg, &failures);
}

#[test]
fn pinned_parallel_executor_is_identical() {
    // The executor's timeline is a virtual-time schedule on the calling
    // thread, deterministic with or without stealing, so the byte
    // contract extends to it: here statically partitioned (steal =
    // false), stolen from in `stealing_parallel_executor_is_identical`.
    let mut cfg = PoolConfig::default_eval(5);
    cfg.epoch_steps = 10;
    cfg.parallel = Some(ParallelConfig {
        cores: 4,
        batch: 1,
        steal: false,
    });
    assert_paths_identical("pinned parallel", 12, cfg, &[]);
}

#[test]
fn eight_core_executor_is_identical() {
    // The executor's core count sizes per-core GOPS on both paths: eight
    // cores on the default 400-GOPS server are 50 GOPS each.
    let mut cfg = PoolConfig::default_eval(5);
    cfg.epoch_steps = 10;
    cfg.parallel = Some(ParallelConfig {
        cores: 8,
        batch: 1,
        steal: false,
    });
    assert_paths_identical("eight-core parallel", 12, cfg, &[]);
}

#[test]
fn stealing_parallel_executor_is_identical() {
    let failure = FailureSpec {
        server: 1,
        at: Duration::from_secs(1800),
        recover_after: Some(Duration::from_secs(1200)),
    };
    for batch in [1, 4] {
        let mut cfg = PoolConfig::default_eval(5);
        cfg.epoch_steps = 10;
        cfg.parallel = Some(ParallelConfig {
            cores: 4,
            batch,
            steal: true,
        });
        for failures in [&[][..], &[failure][..]] {
            let label = format!("stealing, batch {batch}, {} failures", failures.len());
            assert_paths_identical(&label, 12, cfg.clone(), failures);
            let run = || {
                let mut sim = PoolSimulator::new(trace(12, 42), cfg.clone());
                failures.iter().for_each(|&f| sim.inject_failure(f));
                sim.run()
            };
            let (first, second) = (run(), run());
            assert!(first.metrics.steals > 0, "{label}: nothing was stolen");
            assert_eq!(
                serde_json::to_string(&first).unwrap(),
                serde_json::to_string(&second).unwrap(),
                "{label}: two runs differ"
            );
        }

        // Jittered releases carry odd nanoseconds into the executor's
        // whole-µs timeline; response times must agree there too.
        let mut jittered = cfg.clone();
        jittered.fronthaul = Some(LinkFault {
            config: pran_fronthaul::fault::FaultConfig {
                max_jitter: Duration::from_micros(400),
                ..pran_fronthaul::fault::FaultConfig::clean()
            },
            seed: 7,
        });
        assert_paths_identical(
            &format!("stealing + jitter, batch {batch}"),
            12,
            jittered,
            &[],
        );

        let mut pool = PoolConfig::default_eval(4);
        pool.parallel = cfg.parallel;
        let reference = serde_json::to_string_pretty(&metro_reference(&pool)).unwrap();
        for workers in [1usize, 2, 8] {
            let hot = serde_json::to_string_pretty(&metro(workers, pool.clone()).run()).unwrap();
            assert_eq!(
                hot, reference,
                "stealing metro, batch {batch}, {workers} workers diverged from reference"
            );
        }
    }
}

#[test]
fn serial_path_records_deadline_slack() {
    // ISSUE 6 satellite: the analytic branch used to skip
    // `deadline_slack` entirely, so `analytic` rows rendered a fake
    // p50 of zero. Every on-time executed task must record one slack
    // sample; misses must not.
    let mut cfg = PoolConfig::default_eval(6);
    cfg.epoch_steps = 10;
    assert!(
        cfg.parallel.is_none(),
        "this test targets the serial branch"
    );
    let report = PoolSimulator::new(trace(16, 42), cfg).run();
    let m = &report.metrics;
    let executed = m.tasks_total - m.tasks_lost;
    assert!(executed > 0, "trace produced no executed tasks");
    assert_eq!(
        m.deadline_slack.count() + m.deadline_misses,
        executed,
        "slack samples + misses must cover every executed task"
    );
    assert!(m.deadline_slack.count() > 0, "no slack recorded at all");
}

/// A round-robin per-cell split plan over all three splits, plus half
/// the pool carrying turbo-decode accelerators — the fully
/// heterogeneous shape ROADMAP item 4 adds to the hot path.
fn heterogeneous(mut cfg: PoolConfig, cells: usize) -> PoolConfig {
    cfg.split_plan =
        SplitPlan::PerCell((0..cells).map(|c| FunctionalSplit::all()[c % 3]).collect());
    cfg.accel = Some(PoolAccel::default_eval());
    cfg
}

/// ISSUE 10 headline invariant: explicitly configuring the pre-split
/// shape (`Uniform(Full)`, homogeneous pool) must be byte-identical to
/// the default config — splits and accelerators are strictly opt-in.
#[test]
fn explicit_full_homogeneous_matches_default() {
    let mut default_cfg = PoolConfig::default_eval(6);
    default_cfg.epoch_steps = 10;
    let mut explicit = default_cfg.clone();
    explicit.split_plan = SplitPlan::Uniform(FunctionalSplit::Full);
    explicit.accel = None;
    let d = serde_json::to_string_pretty(&PoolSimulator::new(trace(16, 42), default_cfg).run());
    let e = serde_json::to_string_pretty(&PoolSimulator::new(trace(16, 42), explicit).run());
    assert_eq!(
        d.unwrap(),
        e.unwrap(),
        "explicit Full diverged from default"
    );
}

#[test]
fn splits_and_accel_are_identical() {
    let mut cfg = PoolConfig::default_eval(5);
    cfg.epoch_steps = 10;
    assert_paths_identical("splits+accel", 12, heterogeneous(cfg, 12), &[]);
}

#[test]
fn splits_with_fronthaul_faults_are_identical() {
    // Split-sized frames cross the same drop/jitter/token-bucket ordering;
    // the byte meter must survive variable frame lengths.
    let mut cfg = PoolConfig::default_eval(6);
    cfg.epoch_steps = 10;
    cfg.fronthaul = Some(LinkFault {
        config: pran_fronthaul::fault::FaultConfig {
            drop_prob: 0.08,
            max_jitter: Duration::from_micros(400),
            bucket_capacity: 3,
            refill_per_interval: 2,
            refill_interval: Duration::from_millis(1),
        },
        seed: 7,
    });
    assert_paths_identical("splits + fronthaul faults", 16, heterogeneous(cfg, 16), &[]);
}

#[test]
fn splits_with_warm_placement_and_failures_are_identical() {
    let mut cfg = PoolConfig::default_eval(6);
    cfg.epoch_steps = 10;
    cfg.warm = Some(WarmConfig::default_eval());
    let failures = [
        FailureSpec {
            server: 0, // an accelerated server dies: decode bookings must follow
            at: Duration::from_secs(1800),
            recover_after: Some(Duration::from_secs(1200)),
        },
        FailureSpec {
            server: 4,
            at: Duration::from_secs(3600),
            recover_after: None,
        },
    ];
    assert_paths_identical(
        "splits + warm + failures",
        16,
        heterogeneous(cfg, 16),
        &failures,
    );
}

/// The shape and trace template of a 48-cell, 6-shard, two-hour metro
/// on `workers` threads.
fn metro_shape(workers: usize) -> (MetroConfig, TraceConfig) {
    let config = MetroConfig {
        cells: 48,
        shards: 6,
        workers,
        servers_per_shard: 4,
        seed: 2026,
    };
    let mut tc = TraceConfig::default_day(config.cells, config.seed);
    tc.duration_seconds = 2.0 * 3600.0;
    tc.step_seconds = 120.0;
    (config, tc)
}

/// That metro over `pool` on `workers` threads.
fn metro(workers: usize, pool: PoolConfig) -> MetroSimulator {
    let (config, tc) = metro_shape(workers);
    MetroSimulator::with_pool(config, pool, tc).unwrap()
}

/// That metro over `pool`, every shard run through the oracle.
fn metro_reference(pool: &PoolConfig) -> MetroReport {
    let (config, tc) = metro_shape(1);
    reference::run_metro(config, pool, &tc)
}

/// Metro layer: the sharded driver must inherit byte-identity, and the
/// hot path must stay independent of the worker crew size.
#[test]
fn metro_hot_path_matches_reference_across_worker_counts() {
    let mut pool = PoolConfig::default_eval(4);
    pool.warm = Some(WarmConfig::default_eval());
    let reference = serde_json::to_string_pretty(&metro_reference(&pool)).unwrap();
    for workers in [1usize, 2, 8] {
        let hot = serde_json::to_string_pretty(&metro(workers, pool.clone()).run()).unwrap();
        assert_eq!(
            hot, reference,
            "metro hot path with {workers} workers diverged from reference"
        );
    }
}

/// The same worker-crew invariance with a metro-global per-cell split
/// plan (sliced per shard) and a half-accelerated pool: the
/// heterogeneous tables must not leak scheduling nondeterminism.
#[test]
fn metro_split_plan_matches_reference_across_worker_counts() {
    let mut pool = PoolConfig::default_eval(4);
    pool.warm = Some(WarmConfig::default_eval());
    let pool = heterogeneous(pool, 48);
    let reference = serde_json::to_string_pretty(&metro_reference(&pool)).unwrap();
    for workers in [1usize, 2, 8] {
        let hot = serde_json::to_string_pretty(&metro(workers, pool.clone()).run()).unwrap();
        assert_eq!(
            hot, reference,
            "split-plan metro with {workers} workers diverged from reference"
        );
    }
}

/// A horizon that is not a multiple of `epoch_steps`: 60 two-minute
/// steps in epochs of 7, so the last epoch takes the 4 rows left. The
/// streamed shard must stop where the oracle's materialized trace ends.
#[test]
fn metro_partial_last_epoch_matches_reference_across_worker_counts() {
    let mut pool = PoolConfig::default_eval(4);
    pool.warm = Some(WarmConfig::default_eval());
    pool.epoch_steps = 7;
    let reference = metro_reference(&pool);
    assert_eq!(reference.metrics.epochs, 60u64.div_ceil(7));
    let reference = serde_json::to_string_pretty(&reference).unwrap();
    for workers in [1usize, 2, 8] {
        let hot = serde_json::to_string_pretty(&metro(workers, pool.clone()).run()).unwrap();
        assert_eq!(
            hot, reference,
            "partial-epoch metro with {workers} workers diverged from reference"
        );
    }
}
