//! Live insight differential proof.
//!
//! The streaming attribution plane must be *exactly* the post-hoc
//! pipeline, computed where the subframes finish. Each shard folds the
//! tasks it executes into its own [`LiveFold`]; over real
//! resident-metro soak traffic,
//!
//! (a) the shards' folds side by side ([`MetroFold`]) must hold the
//!     per-cell blame, per-cell misses, stage totals and miss count that
//!     [`spans::critical_paths`] finds after the fact in the same run's
//!     buffered trace *exported to JSONL and parsed back* — the
//!     reference arithmetic on the far side of the wire format;
//! (b) each shard's fold must serialize to the bytes of an oracle fold
//!     fed, epoch by epoch, the shard's buffered events decoded through
//!     [`LiveFold::fold_shard`] with the placement of that epoch — which
//!     also holds the per-server sketches and task counts, and does so
//!     across a placement change;
//! (c) the view must be worker-count invariant — 1, 2 and 8 workers over
//!     the same metro serialize to byte-identical state, because no
//!     shard's fold depends on which thread stepped it.
//!
//! The arms: fronthaul jitter alone; the `metro_degraded` shape (1 %
//! report loss, per-cell functional splits, a half-accelerated pool);
//! servers killed mid-soak; and, for (b), a pool whose servers run the
//! work-stealing parallel executor.
//!
//! The tests manipulate the process-global tracer and live switch, so
//! they serialize on one lock.
//!
//! [`LiveFold`]: pran_insight::live::LiveFold
//! [`LiveFold::fold_shard`]: pran_insight::live::LiveFold::fold_shard
//! [`MetroFold`]: pran_insight::live::MetroFold

use std::time::Duration;

use pran_integration_tests::lock_tracer;

use pran_fronthaul::fault::FaultConfig;
use pran_insight::live::LiveFold;
use pran_insight::spans::{self, DEFAULT_BUDGET_US, STAGE_NAMES};
use pran_obs::soak::{SoakConfig, SoakRunner};
use pran_phy::FunctionalSplit;
use pran_sched::realtime::ParallelConfig;
use pran_sim::{LinkFault, MetroConfig, PoolAccel, PoolConfig, ResidentMetro, SplitPlan};
use pran_telemetry::export::{parse_jsonl, to_jsonl};
use pran_telemetry::trace::TraceEvent;
use pran_traces::TraceConfig;

/// A metro whose fronthaul jitter eats the 2 ms compute budget on a
/// fraction of tasks — deadline misses from *executed* tasks, which is
/// what the attribution plane explains. `shape` adjusts the pool.
fn jittery_metro(
    cells: usize,
    shards: usize,
    workers: usize,
    shape: impl FnOnce(&mut PoolConfig),
) -> ResidentMetro {
    let mut mc = MetroConfig::default_eval(cells, shards);
    mc.workers = workers;
    let mut pool = PoolConfig::default_eval(mc.servers_per_shard);
    pool.fronthaul = Some(LinkFault {
        config: FaultConfig {
            max_jitter: Duration::from_millis(2),
            ..FaultConfig::clean()
        },
        seed: 5,
    });
    shape(&mut pool);
    let trace = TraceConfig::default_day(mc.cells, mc.seed);
    ResidentMetro::with_pool(mc, pool, trace).unwrap()
}

/// The `metro_degraded` pool: lossy links, a split ladder across the
/// cells, accelerators on half the servers.
fn degraded(cells: usize) -> impl FnOnce(&mut PoolConfig) {
    move |pool| {
        let link = pool.fronthaul.as_mut().expect("jittery_metro sets links");
        link.config.drop_prob = 0.01;
        let ladder = FunctionalSplit::all();
        pool.split_plan = SplitPlan::PerCell((0..cells).map(|c| ladder[c % 3]).collect());
        pool.accel = Some(PoolAccel::default_eval());
    }
}

/// Soak `metro` for `epochs` epochs with the buffered tracer and the
/// live plane both on (`before_epoch` may injure it first), then hold
/// the shards' folds to the oracle of (b) and — with `posthoc` — to the
/// reference of (a). Returns the live view's stage totals, µs.
fn soak_and_compare(
    metro: ResidentMetro,
    epochs: u64,
    mut before_epoch: impl FnMut(u64, &mut ResidentMetro),
    posthoc: bool,
) -> [u64; 4] {
    let _g = lock_tracer();
    pran_telemetry::configure(pran_telemetry::TelemetryConfig::sim());
    let shards = metro.shard_count();
    let mut oracles: Vec<LiveFold> = (0..shards)
        .map(|s| {
            let servers = metro.config().servers_per_shard;
            LiveFold::new(metro.shard_cells(s), servers, DEFAULT_BUDGET_US)
        })
        .collect();
    let mut runner = SoakRunner::new(
        metro,
        SoakConfig {
            live_insight: true,
            ..SoakConfig::default()
        },
    );
    let mut buffered: Vec<Vec<TraceEvent>> = vec![Vec::new(); shards];
    for epoch in 0..epochs {
        before_epoch(epoch, runner.metro_mut());
        runner.run_epoch();
        // The decoded feeder: this epoch's per-task records of each
        // shard, against the placement the epoch executed under.
        let mut epoch_events: Vec<Vec<TraceEvent>> = vec![Vec::new(); shards];
        for e in pran_telemetry::trace::drain() {
            if let Some(shard) = e.field_u64("shard") {
                if matches!(e.name, "subframe" | "rt.steal") {
                    epoch_events[shard as usize].push(e);
                }
                buffered[shard as usize].push(e);
            }
        }
        for (shard, events) in epoch_events.iter().enumerate() {
            oracles[shard].fold_shard(events, 0, 0, runner.metro().shard_assignment(shard));
        }
    }
    pran_telemetry::disable();

    let fold = runner.live_fold().expect("live insight armed");
    assert!(fold.misses() > 0, "jitter must produce executed-late tasks");
    let cum = runner.metro().cumulative();
    assert_eq!(
        fold.tasks(),
        cum.tasks_total - cum.tasks_lost,
        "every executed task, and nothing else, must have folded"
    );
    assert_eq!(pran_telemetry::live::dropped(), 0);

    // (b) Every aggregate of every shard, sketches included.
    for (shard, (part, oracle)) in fold.parts().iter().zip(&oracles).enumerate() {
        assert_eq!(
            serde_json::to_string(*part).unwrap(),
            serde_json::to_string(oracle).unwrap(),
            "shard {shard}: the in-shard fold must equal fold_shard over its decoded events"
        );
    }
    let live_totals = fold.totals().map(|(_, us)| us);
    if !posthoc {
        return live_totals;
    }

    // (a) Post-hoc, per shard (cell ids in events are shard-local):
    // export the buffered trace, parse it back, run the reference, and
    // sum its paths into the view's global cell space.
    let mut blame = vec![[0u64; 4]; fold.cell_count()];
    let mut misses = vec![0u64; fold.cell_count()];
    let mut totals = [0u64; 4];
    let mut compared = 0u64;
    for (shard, shard_events) in buffered.iter().enumerate() {
        let parsed = parse_jsonl(&to_jsonl(shard_events)).expect("exported trace parses back");
        let paths = spans::critical_paths(&parsed, DEFAULT_BUDGET_US);
        let (cell_offset, _) = runner.metro().shard_offsets(shard);
        for path in &paths {
            let cell = cell_offset + path.cell as usize;
            for (slot, stage) in blame[cell].iter_mut().zip(STAGE_NAMES) {
                *slot += path.stage_us(stage);
            }
            misses[cell] += 1;
        }
        for (slot, (_, us)) in totals.iter_mut().zip(spans::attribution_totals(&paths)) {
            *slot += us;
        }
        compared += paths.len() as u64;
    }
    assert!(compared > 0, "the differential must compare real misses");
    assert_eq!(fold.misses(), compared, "every miss has a post-hoc path");
    for cell in 0..fold.cell_count() {
        assert_eq!(fold.cell_blame(cell), blame[cell], "cell {cell} blame");
        assert_eq!(fold.cell_misses(cell), misses[cell], "cell {cell} misses");
    }
    assert_eq!(live_totals, totals, "stage totals must equal post-hoc");
    live_totals
}

#[test]
fn live_attribution_equals_posthoc_over_a_resident_soak() {
    soak_and_compare(jittery_metro(16, 2, 2, |_| {}), 4, |_, _| {}, true);
}

#[test]
fn live_attribution_equals_posthoc_on_a_degraded_metro() {
    soak_and_compare(jittery_metro(24, 3, 2, degraded(24)), 4, |_, _| {}, true);
}

#[test]
fn live_attribution_follows_a_placement_change() {
    // Half of shard 0's servers die before epoch 2: its cells are
    // re-placed onto the survivors, and the per-server sketches of the
    // in-shard fold (keyed by the server that ran the task) must keep
    // agreeing with the oracle (keyed by the epoch's placement).
    let metro = jittery_metro(24, 2, 2, |_| {});
    let doomed = metro.config().servers_per_shard / 2;
    let before: Vec<Option<usize>> = metro.shard_assignment(0).to_vec();
    let mut after = Vec::new();
    soak_and_compare(
        metro,
        5,
        |epoch, metro| {
            if epoch == 2 {
                assert_eq!(metro.kill_servers(0, doomed), doomed);
            }
            if epoch == 4 {
                after = metro.shard_assignment(0).to_vec();
            }
        },
        true,
    );
    assert_ne!(before, after, "the kill must have moved cells");
    assert!(
        after.iter().flatten().all(|&s| s >= doomed),
        "no cell may stay on a dead server: {after:?}"
    );
}

#[test]
fn stolen_tasks_fold_in_shard_as_their_events_decode() {
    // Servers on the work-stealing executor: the in-shard fold gets its
    // steal instants from the scheduler, the oracle from `rt.steal`
    // events. (The whole-run post-hoc reference is not consulted: it
    // matches a stolen task against the steals of every epoch at once.)
    let metro = jittery_metro(24, 2, 2, |pool| {
        pool.parallel = Some(ParallelConfig::default_eval());
    });
    let [_, _, steal_us, _] = soak_and_compare(metro, 3, |_, _| {}, false);
    assert!(steal_us > 0, "some stolen task must have missed");
}

#[test]
fn fold_state_is_worker_count_invariant() {
    let _g = lock_tracer();
    // Same metro shape, same seeds, different worker crews: the shards
    // compute identical epochs in different interleavings, and each
    // folds only what it executed, so the view cannot tell.
    //
    // The buffered tracer is on as well: each epoch's drain must hold
    // exactly that epoch's events of every shard, whichever worker ran
    // it — a worker that left its thread buffer to its exit-time flush
    // could land events in the next epoch's drain, or in none.
    pran_telemetry::configure(pran_telemetry::TelemetryConfig::sim());
    let runs: Vec<(String, Vec<Vec<usize>>)> = [1usize, 2, 8]
        .into_iter()
        .map(|workers| {
            let metro = jittery_metro(20, 4, workers, |_| {});
            let shards = metro.shard_count();
            let mut runner = SoakRunner::new(
                metro,
                SoakConfig {
                    live_insight: true,
                    ..SoakConfig::default()
                },
            );
            let drained_per_epoch: Vec<Vec<usize>> = (0..3)
                .map(|_| {
                    runner.run_epoch();
                    let mut per_shard = vec![0usize; shards];
                    for e in pran_telemetry::trace::drain() {
                        if let Some(shard) = e.field_u64("shard") {
                            per_shard[shard as usize] += 1;
                        }
                    }
                    per_shard
                })
                .collect();
            let fold = runner.live_fold().expect("live insight armed");
            assert!(fold.tasks() > 0);
            assert!(drained_per_epoch.iter().flatten().all(|&n| n > 0));
            (
                serde_json::to_string(&fold).expect("fold serializes"),
                drained_per_epoch,
            )
        })
        .collect();
    pran_telemetry::disable();
    assert_eq!(
        runs[0], runs[1],
        "1-worker and 2-worker folds and per-epoch drains must be identical"
    );
    assert_eq!(
        runs[0], runs[2],
        "1-worker and 8-worker folds and per-epoch drains must be identical"
    );
}
