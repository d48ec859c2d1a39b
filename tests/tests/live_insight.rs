//! Live insight differential proof (ISSUE 9 tentpole).
//!
//! The streaming attribution plane must be *exactly* the post-hoc
//! pipeline, computed as events arrive: over real resident-metro soak
//! traffic, (a) the production [`LiveFold`]'s per-cell blame, per-cell
//! misses, stage totals and miss count must equal the sums over
//! [`spans::critical_paths`] run after the fact on the same events
//! *exported to JSONL and parsed back* — the reference arithmetic on the
//! far side of the wire format; (b) the fold must be worker-count
//! invariant — 1, 2 and 8 workers over the same metro must serialize to
//! byte-identical state, because shard rings are drained in shard order
//! and sketch merges are exact.
//!
//! Both tests manipulate the process-global tracer/live sink, so they
//! serialize on one lock.
//!
//! [`LiveFold`]: pran_insight::live::LiveFold

use std::sync::Mutex;
use std::time::Duration;

use pran_fronthaul::fault::FaultConfig;
use pran_insight::spans::{self, DEFAULT_BUDGET_US, STAGE_NAMES};
use pran_obs::soak::{SoakConfig, SoakRunner};
use pran_sim::{LinkFault, MetroConfig, PoolConfig, ResidentMetro};
use pran_telemetry::export::{parse_jsonl, to_jsonl};
use pran_telemetry::trace::TraceEvent;
use pran_traces::TraceConfig;

static GLOBAL_SINKS: Mutex<()> = Mutex::new(());

/// A metro whose fronthaul jitter eats the 2 ms compute budget on a
/// fraction of tasks — deadline misses from *executed* tasks, which is
/// what the attribution plane explains.
fn jittery_metro(cells: usize, shards: usize, workers: usize) -> ResidentMetro {
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
    let trace = TraceConfig::default_day(mc.cells, mc.seed);
    ResidentMetro::with_pool(mc, pool, trace).unwrap()
}

#[test]
fn live_attribution_equals_posthoc_over_a_resident_soak() {
    let _g = GLOBAL_SINKS.lock().unwrap_or_else(|e| e.into_inner());
    // Buffered tracer AND live sink on: both paths record the same
    // stamped events, so the post-hoc pipeline can audit the live one.
    pran_telemetry::configure(pran_telemetry::TelemetryConfig::sim());
    let metro = jittery_metro(16, 2, 2);
    let shards = metro.shard_count();
    let mut runner = SoakRunner::new(
        metro,
        SoakConfig {
            live_insight: true,
            ..SoakConfig::default()
        },
    );
    let mut buffered: Vec<TraceEvent> = Vec::new();
    for _ in 0..4 {
        runner.run_epoch();
        buffered.append(&mut pran_telemetry::trace::drain());
    }
    pran_telemetry::disable();

    let fold = runner.live_fold().expect("live insight armed");
    assert!(fold.misses() > 0, "jitter must produce executed-late tasks");

    // Post-hoc, per shard (cell ids in events are shard-local): export
    // the buffered trace, parse it back, run the reference, and sum its
    // paths into the fold's global cell space.
    let mut blame = vec![[0u64; 4]; fold.cell_count()];
    let mut misses = vec![0u64; fold.cell_count()];
    let mut totals = [0u64; 4];
    let mut compared = 0u64;
    for shard in 0..shards {
        let shard_events: Vec<TraceEvent> = buffered
            .iter()
            .filter(|e| e.field_u64("shard").unwrap_or(0) == shard as u64)
            .copied()
            .collect();
        let parsed = parse_jsonl(&to_jsonl(&shard_events)).expect("exported trace parses back");
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
    for ((name, live_us), posthoc_us) in fold.totals().iter().zip(totals) {
        assert_eq!(
            *live_us, posthoc_us,
            "stage {name}: fold total must equal post-hoc total"
        );
    }
}

#[test]
fn fold_state_is_worker_count_invariant() {
    let _g = GLOBAL_SINKS.lock().unwrap_or_else(|e| e.into_inner());
    // Same metro shape, same seeds, different worker crews: the shards
    // compute identical epochs in different interleavings, and the
    // per-shard rings + shard-order drain + exact sketch merges must
    // erase the difference entirely.
    //
    // The buffered tracer is on as well: each epoch's drain must hold
    // exactly that epoch's events of every shard, whichever worker ran
    // it — a worker that left its thread buffer to its exit-time flush
    // could land events in the next epoch's drain, or in none.
    pran_telemetry::configure(pran_telemetry::TelemetryConfig::sim());
    let runs: Vec<(String, Vec<Vec<usize>>)> = [1usize, 2, 8]
        .into_iter()
        .map(|workers| {
            let metro = jittery_metro(20, 4, workers);
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
                serde_json::to_string(fold).expect("fold serializes"),
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
