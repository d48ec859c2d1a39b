//! Proof that the shipped epoch hot loop — [`PoolShard::execute`] — is
//! allocation-free at steady state.
//!
//! A counting `#[global_allocator]` wraps the system allocator; after a
//! warm-up grows every reusable buffer to capacity, repeating the real
//! `execute` transition must perform *zero* further heap allocations.
//! The shard is the heterogeneous, degraded shape: a round-robin
//! per-cell split plan, a half-accelerated pool, and lossy, jittery
//! fronthaul links — so the per-(server class, split) service tables,
//! the fault injectors, the live fronthaul byte meter and the heap
//! dispatch (jitter breaks the uniform deadline offset the FIFO fast
//! path needs) all run inside the counting window. So do the planes a
//! soak attaches per epoch: the live insight tap is armed and every
//! step's `subframe` events are drained and folded into the streaming
//! attribution state, and the flight recorder rings a record per step.
//! A second shard of the same shape runs its servers on the stealing
//! [`ParallelExecutor`](pran_sched::realtime::ParallelExecutor) inside
//! the same window: its batch queues and simulated cores live in a
//! scratch that, like every other buffer here, may grow only when a step
//! builds a deeper backlog than any before.
//! The whole file is one `#[test]` because the counter is process-global
//! and sibling tests in the same binary would race it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use std::time::Duration;

use pran_fronthaul::fault::FaultConfig;
use pran_insight::live::LiveFold;
use pran_obs::FlightRecorder;
use pran_phy::FunctionalSplit;
use pran_sched::realtime::ParallelConfig;
use pran_sim::{EpochRecord, LinkFault, PoolAccel, PoolConfig, PoolMetrics, PoolShard, SplitPlan};
use pran_telemetry::trace::TraceEvent;

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Armed on the kernel thread only, for the steady window only: the
    /// contract is about the hot loop's own thread, and other threads in
    /// the process allocate at times we don't control (libtest's harness
    /// thread lazily initializes its channel-receive context *during*
    /// the test, which used to trip this counter once in a while).
    /// Const-init keeps the thread-local itself allocation-free.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

/// Whether the calling thread is inside the armed window. `try_with`:
/// allocations during thread teardown must not panic on destroyed TLS.
fn counting() -> bool {
    COUNTING.try_with(Cell::get).unwrap_or(false)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counting() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counting() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const CELLS: usize = 40;
const SERVERS: usize = 24;

/// One shard with the planes a soak attaches to it.
struct Soaked {
    shard: PoolShard,
    metrics: PoolMetrics,
    /// Armed flight recorder: the 247 steady rounds span its fill phase
    /// AND several wraparounds — both must stay allocation-free.
    recorder: FlightRecorder<EpochRecord>,
    fold: LiveFold,
}

impl Soaked {
    fn new(cfg: PoolConfig) -> Self {
        let mut shard = PoolShard::try_new(cfg, CELLS).expect("config validates");
        let mut metrics = PoolMetrics::default();
        // Place once against full load (allocation allowed): every
        // later, lighter row fits the same placement.
        let placed = shard.place(&[vec![1.0; CELLS]], &mut metrics);
        assert_eq!(placed.unplaced, 0, "the pool must host every cell");
        let assignment = shard.assignment().iter().flatten();
        let on_accelerated = assignment.filter(|&&s| s < SERVERS / 2).count();
        assert!(
            0 < on_accelerated && on_accelerated < CELLS,
            "both server classes must host cells"
        );
        Soaked {
            shard,
            metrics,
            recorder: FlightRecorder::new(64),
            fold: LiveFold::new(CELLS, SERVERS, 2_000),
        }
    }

    /// One trace step, as the soak service runs an epoch: the real
    /// `execute` into reset epoch metrics, the cumulative fold, a flight
    /// recorder push, and the live tap drained into the attribution
    /// state.
    fn step(
        &mut self,
        round: u64,
        rows: &[Vec<f64>],
        epoch: &mut PoolMetrics,
        events: &mut Vec<TraceEvent>,
    ) {
        epoch.reset();
        let peak_queue_depth = self.shard.execute(rows, round as usize, 60.0, epoch);
        self.metrics.append_epoch(epoch);
        self.recorder.push(EpochRecord {
            epoch: round,
            at_us: round * 1_000,
            tasks: epoch.tasks_total,
            misses: epoch.deadline_misses,
            lost: epoch.tasks_lost,
            reports_lost: epoch.reports_lost,
            miss_ratio: epoch.miss_ratio(),
            cum_miss_ratio: self.metrics.miss_ratio(),
            slack_p99_us: epoch.deadline_slack.quantile(0.99).as_micros() as u64,
            peak_queue_depth,
            servers_used: 1,
            alive_servers: SERVERS as u64,
            alive_mask: 1,
            utilization: 0.5,
            unplaced: 0,
            alert_mask: 0,
            violation: false,
            burn_fast: 0.0,
            burn_slow: 0.0,
            burn_severity: 0,
        });
        // Ring 0: no shard context on this thread.
        events.clear();
        pran_telemetry::live::drain_shard_into(0, events);
        self.fold.fold_shard(events, 0, 0, self.shard.assignment());
    }
}

#[test]
fn hot_kernel_allocates_nothing_at_steady_state() {
    assert!(
        !pran_telemetry::enabled(),
        "the buffered tracer must stay off: the live tap must not need it"
    );
    // Arm the live tap: sink storage allocates once here, never on the
    // record path. 40 cells × 4 TTIs = at most 160 `subframe` events per
    // shard-step, plus at most one `rt.steal` per stolen batch.
    pran_telemetry::live::arm(1, 1024);

    let mut cfg = PoolConfig::default_eval(SERVERS);
    cfg.split_plan =
        SplitPlan::PerCell((0..CELLS).map(|c| FunctionalSplit::all()[c % 3]).collect());
    cfg.accel = Some(PoolAccel::default_eval());
    cfg.fronthaul = Some(LinkFault {
        config: FaultConfig {
            drop_prob: 0.01,
            max_jitter: Duration::from_micros(800),
            ..FaultConfig::clean()
        },
        seed: 9,
    });
    let mut stealing = cfg.clone();
    stealing.parallel = Some(ParallelConfig {
        cores: 4,
        batch: 4,
        steal: true,
    });
    let mut soaked = [Soaked::new(cfg), Soaked::new(stealing)];
    let mut rows = vec![vec![1.0; CELLS]];
    let mut events: Vec<TraceEvent> = Vec::with_capacity(1024);
    let mut epoch = PoolMetrics::default();

    // A fresh utilization row per round (varied so the dispatch heaps and
    // batch queues see new orderings and every service-table row gets
    // walked), stepped through both shards.
    let mut step = |round: u64| {
        for (cell, util) in rows[0].iter_mut().enumerate() {
            *util = ((round * 7 + cell as u64 * 13) % 101) as f64 / 100.0;
        }
        for s in &mut soaked {
            s.step(round, &rows, &mut epoch, &mut events);
        }
    };

    // Warm-up: grows every Vec/heap to its steady-state capacity.
    (0..3).for_each(&mut step);

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    COUNTING.with(|c| c.set(true));
    (3..250).for_each(&mut step);
    COUNTING.with(|c| c.set(false));
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "steady-state hot kernel allocated {} times over 247 steps",
        after - before
    );
    for Soaked {
        metrics,
        recorder,
        fold,
        ..
    } in &soaked
    {
        assert_eq!(recorder.len(), 64, "the ring must have filled");
        assert_eq!(recorder.total_pushed(), 250, "every step must have rung");
        assert_eq!(metrics.tasks_total, 250 * 160);
        assert!(
            metrics.reports_lost > 0,
            "1 % loss over 40k frames drops some"
        );
        assert_eq!(
            fold.tasks(),
            metrics.tasks_total - metrics.tasks_lost,
            "every executed subframe must have folded"
        );
        assert!(
            metrics.fronthaul_bytes > 0,
            "the live fronthaul byte meter saw no frames"
        );
    }
    assert_eq!(soaked[0].metrics.steals, 0);
    assert!(
        soaked[1].metrics.steals > 0,
        "the stealing shard never stole"
    );
    assert_eq!(
        pran_telemetry::live::dropped(),
        0,
        "a per-step drain must never fill the ring"
    );
    pran_telemetry::live::disarm();
}
