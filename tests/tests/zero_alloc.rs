//! Proof that the shipped epoch hot loop — [`PoolShard::execute`] — is
//! allocation-free at steady state.
//!
//! A counting `#[global_allocator]` wraps the system allocator; after a
//! warm-up grows every reusable buffer to capacity, repeating the real
//! `execute` transition must perform *zero* further heap allocations.
//! The shard is the heterogeneous, degraded shape: a round-robin
//! per-cell split plan, a half-accelerated pool, and lossy, jittery
//! fronthaul links — so the per-(server class, split) service tables,
//! the fault injectors' per-frame draws, the live
//! fronthaul byte meter and the packed-key dispatch through the ready
//! queue (jitter breaks the uniform deadline offset the FIFO fast path
//! needs) all run inside the counting window. So do the planes a
//! soak attaches per epoch: the live insight plane is armed, so
//! `execute` itself folds every subframe it finishes into the shard's
//! streaming attribution state, and the flight recorder rings a record
//! per step. A second shard of the same shape runs its servers on the stealing
//! [`ParallelExecutor`](pran_sched::realtime::ParallelExecutor) inside
//! the same window: its batch queues and simulated cores live in a
//! scratch that, like every other buffer here, may grow only when a step
//! builds a deeper backlog than any before. A third shard has the metro's
//! north-star shape — ideal fronthaul, uniform `Full` split, analytic
//! dispatch — so the grid path (`realtime::dispatch_grid`, one row per
//! cell, TTIs that replay TTI 0 folded with their multiplicity) runs in
//! the window too, live fold armed.
//!
//! Beside it, two proofs about the control plane's epoch, which does
//! allocate but must not allocate per (cell, server) pair: the bytes one
//! steady-state `Controller::run_epoch` asks for grow with cells +
//! servers, and a 30,000-cell / 15,000-server controller lives, epochs
//! and fails over under a ceiling the cells × servers mask alone would
//! break. And two about JSON: a 3,000-cell snapshot becomes text in as
//! many allocations as its output `String` grows by, and is read back
//! from it in as many as the snapshot itself owns plus its vectors'
//! growth, because no `Value` tree is built on the way in either
//! direction.
//!
//! And four about the model checker. On warm buffers,
//! `Model::apply_into` allocates nothing for a transition that neither
//! repacks an epoch nor delivers a crash, and a discovery that hits a
//! known state allocates nothing. One depth-6 exploration of the
//! headline stale model stays under a pinned number of allocations per
//! transition. A warm `restore_drill` allocates exactly what its
//! snapshot, its parse, the restored controller and its reinstalled app
//! need, nothing for its text or its two views.
//!
//! And one about the exact placer: a warm `ilp::solve` whose root the
//! cost bound closes makes a pinned handful of allocations, a tenth of
//! what one `build_model` makes, because it builds no model.
//!
//! Every counter is thread-local, so the tests of this file can run side
//! by side: each sees only what its own thread allocated while armed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use std::time::Duration;

use pran::apps::{FailoverApp, LoadBalancerApp};
use pran::{Controller, Snapshot, SystemConfig};
use pran_chaos::restore_drill;
use pran_fronthaul::fault::FaultConfig;
use pran_mc::{McConfig, Model, Operation, StateView, Visited};
use pran_obs::FlightRecorder;
use pran_phy::FunctionalSplit;
use pran_sched::placement::{ilp, WarmConfig};
use pran_sched::realtime::ParallelConfig;
use pran_sim::{EpochRecord, LinkFault, PoolAccel, PoolConfig, PoolMetrics, PoolShard, SplitPlan};

struct CountingAlloc;

/// What the calling thread has allocated while armed.
#[derive(Clone, Copy)]
struct Tally {
    armed: bool,
    /// Calls to `alloc` and `realloc`.
    allocations: u64,
    /// Bytes those calls asked for.
    bytes: u64,
    /// Bytes asked for and not yet freed, and the most that ever was.
    live: i64,
    peak: i64,
}

thread_local! {
    /// Armed on the measuring thread only, for the measured window only:
    /// the contracts are about that thread, and other threads in the
    /// process allocate at times we don't control (libtest's harness
    /// thread lazily initializes its channel-receive context *during*
    /// the test, which used to trip a process-wide counter once in a
    /// while). Const-init keeps the thread-local itself allocation-free.
    static TALLY: Cell<Tally> = const {
        Cell::new(Tally { armed: false, allocations: 0, bytes: 0, live: 0, peak: 0 })
    };
}

/// Apply `f` to the calling thread's tally if it is armed. `try_with`:
/// allocations during thread teardown must not panic on destroyed TLS.
fn tally(f: impl FnOnce(&mut Tally)) {
    let _ = TALLY.try_with(|cell| {
        let mut t = cell.get();
        if t.armed {
            f(&mut t);
            cell.set(t);
        }
    });
}

fn grew(t: &mut Tally, bytes: usize) {
    t.allocations += 1;
    t.bytes += bytes as u64;
    t.live += bytes as i64;
    t.peak = t.peak.max(t.live);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(|t| grew(t, layout.size()));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        tally(|t| t.live -= layout.size() as i64);
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally(|t| {
            t.live -= layout.size() as i64;
            grew(t, new_size);
        });
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Run `f` with this thread's tally armed from zero; what it counted.
fn counted<R>(f: impl FnOnce() -> R) -> (R, Tally) {
    let zero = Tally {
        armed: true,
        allocations: 0,
        bytes: 0,
        live: 0,
        peak: 0,
    };
    TALLY.with(|c| c.set(zero));
    let out = f();
    let t = TALLY.with(|c| {
        c.replace(Tally {
            armed: false,
            ..zero
        })
    });
    (out, t)
}

const CELLS: usize = 40;
const SERVERS: usize = 24;

/// One shard with the planes a soak attaches to it.
struct Soaked {
    shard: PoolShard,
    metrics: PoolMetrics,
    /// Armed flight recorder: the 247 steady rounds span its fill phase
    /// AND several wraparounds — both must stay allocation-free.
    recorder: FlightRecorder<EpochRecord>,
}

impl Soaked {
    fn new(cfg: PoolConfig) -> Self {
        let mut shard = PoolShard::try_new(cfg, CELLS).expect("config validates");
        let mut metrics = PoolMetrics::default();
        // Place once against full load (allocation allowed): every
        // later, lighter row fits the same placement.
        let placed = shard.place(&[vec![1.0; CELLS]], &mut metrics);
        assert_eq!(placed.unplaced, 0, "the pool must host every cell");
        if shard.config().accel.is_some() {
            let assignment = shard.assignment().iter().flatten();
            let on_accelerated = assignment.filter(|&&s| s < SERVERS / 2).count();
            assert!(
                0 < on_accelerated && on_accelerated < CELLS,
                "both server classes must host cells"
            );
        }
        Soaked {
            shard,
            metrics,
            recorder: FlightRecorder::new(64),
        }
    }

    /// One trace step, as the soak service runs an epoch: the real
    /// `execute` (live fold included) into reset epoch metrics, the
    /// cumulative fold and a flight recorder push.
    fn step(&mut self, round: u64, rows: &[Vec<f64>], epoch: &mut PoolMetrics) {
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
    }
}

#[test]
fn hot_kernel_allocates_nothing_at_steady_state() {
    assert!(
        !pran_telemetry::enabled(),
        "the buffered tracer must stay off: the live tap must not need it"
    );
    // Arm the live plane: each shard builds its fold in its first
    // `execute` (the warm-up), never after.
    pran_telemetry::live::arm(1, 1024);

    let metro_clean = PoolConfig::default_eval(SERVERS);
    let mut cfg = metro_clean.clone();
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
    let mut soaked = [
        Soaked::new(cfg),
        Soaked::new(stealing),
        Soaked::new(metro_clean),
    ];
    let mut rows = vec![vec![1.0; CELLS]];
    let mut epoch = PoolMetrics::default();

    // A fresh utilization row per round (varied so the ready queue and
    // batch queues see new orderings and every service-table row gets
    // walked), stepped through every shard.
    let mut step = |round: u64| {
        for (cell, util) in rows[0].iter_mut().enumerate() {
            *util = ((round * 7 + cell as u64 * 13) % 101) as f64 / 100.0;
        }
        for s in &mut soaked {
            s.step(round, &rows, &mut epoch);
        }
    };

    // Warm-up: grows every Vec/heap to its steady-state capacity.
    (0..3).for_each(&mut step);

    let ((), steady) = counted(|| (3..250).for_each(&mut step));
    assert_eq!(
        steady.allocations, 0,
        "steady-state hot kernel allocated {} times over 247 steps",
        steady.allocations
    );
    for Soaked {
        shard,
        metrics,
        recorder,
    } in &soaked
    {
        let fold = shard.live_fold().expect("armed executes build the fold");
        assert_eq!(recorder.len(), 64, "the ring must have filled");
        assert_eq!(recorder.total_pushed(), 250, "every step must have rung");
        assert_eq!(metrics.tasks_total, 250 * 160);
        assert_eq!(
            fold.tasks(),
            metrics.tasks_total - metrics.tasks_lost,
            "every executed subframe must have folded"
        );
    }
    for Soaked { metrics, .. } in &soaked[..2] {
        assert!(
            metrics.reports_lost > 0,
            "1 % loss over 40k frames drops some"
        );
        assert!(
            metrics.fronthaul_bytes > 0,
            "the live fronthaul byte meter saw no frames"
        );
    }
    assert_eq!(
        soaked[2].metrics.tasks_lost, 0,
        "an ideal fronthaul loses nothing"
    );
    assert_eq!(soaked[0].metrics.steals, 0);
    assert!(
        soaked[1].metrics.steals > 0,
        "the stealing shard never stole"
    );
    assert_eq!(
        soaked[1].shard.live_fold().map(|f| f.events() - f.tasks()),
        Some(soaked[1].metrics.steals),
        "every steal must have been noted beside the tasks"
    );
    pran_telemetry::live::disarm();
}

/// A warm-placing controller with the failover and load-balancer apps,
/// its cells reporting a spread of loads, run until its buffers are
/// grown. `load(round, cell)` is what `cell` reports before epoch `round`.
fn steady_controller(cells: usize, servers: usize) -> (Controller, impl Fn(u64, usize) -> f64) {
    let mut cfg = SystemConfig::default_eval(servers);
    cfg.warm = Some(WarmConfig::default_eval());
    let mut ctl = Controller::new(cfg);
    for _ in 0..cells {
        ctl.register_cell();
    }
    ctl.install_app(Box::new(FailoverApp::new()));
    ctl.install_app(Box::new(LoadBalancerApp::new(0.85)));
    let load = |round: u64, cell: usize| (20 + (round * 3 + cell as u64 * 13) % 50) as f64 / 100.0;
    for round in 0..4 {
        for cell in 0..cells {
            ctl.report_load(cell, load(round, cell)).unwrap();
        }
        let report = ctl.run_epoch(Duration::from_secs(60 * (round + 1)));
        assert_eq!(report.unplaced, 0, "the pool must host every cell");
    }
    (ctl, load)
}

/// Bytes one more steady-state epoch (reports included) asks for.
fn steady_epoch_bytes(cells: usize, servers: usize) -> u64 {
    let (mut ctl, load) = steady_controller(cells, servers);
    let ((), epoch) = counted(|| {
        for cell in 0..cells {
            ctl.report_load(cell, load(4, cell)).unwrap();
        }
        ctl.run_epoch(Duration::from_secs(300));
    });
    assert!(
        epoch.bytes > 0,
        "an epoch copies its placement at the least"
    );
    epoch.bytes
}

#[test]
fn epoch_allocation_grows_with_cells_plus_servers() {
    let small = steady_epoch_bytes(1_000, 500);
    let large = steady_epoch_bytes(2_000, 1_000);
    assert!(
        large as f64 <= 2.2 * small as f64,
        "doubling cells and servers took an epoch from {small} to {large} bytes: \
         something is sized cells × servers"
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "30,000 cells / 15,000 servers: release lane only"
)]
fn metro_scale_controller_fits_under_256_mb() {
    const CELLS: usize = 30_000;
    const SERVERS: usize = 15_000;
    let ((), whole) = counted(|| {
        let (mut ctl, load) = steady_controller(CELLS, SERVERS);
        for round in 4..10 {
            for cell in 0..CELLS {
                ctl.report_load(cell, load(round, cell)).unwrap();
            }
            let report = ctl.run_epoch(Duration::from_secs(60 * (round + 1)));
            assert_eq!(report.unplaced, 0);
        }
        let victim = ctl.placement().assignment[0].expect("every cell is placed");
        let failure = ctl
            .server_failed(victim, Duration::from_secs(601))
            .expect("the server exists");
        assert!(!failure.displaced.is_empty());
        assert_eq!(failure.replaced, failure.displaced.len());
    });
    assert!(
        whole.peak < 256 << 20,
        "ten epochs and a failover at {CELLS} cells / {SERVERS} servers peaked at {} MB live",
        whole.peak >> 20
    );
}

#[test]
fn a_snapshot_is_written_as_text_without_a_tree() {
    let (ctl, _) = steady_controller(3_000, 1_500);
    let snapshot = ctl.snapshot();
    let (text, writing) =
        counted(|| serde_json::to_string(&snapshot).expect("a snapshot serializes"));
    // The output `String` starts at 128 bytes and doubles; a `Value`
    // tree of the same snapshot is tens of thousands of nodes and keys.
    let growth_steps = 1 + u64::from((text.capacity() / 128).ilog2());
    assert!(
        writing.allocations <= growth_steps + 4,
        "writing {} bytes of snapshot took {} allocations; the text alone grows in {growth_steps}",
        text.len(),
        writing.allocations
    );
    let (tree, building) = counted(|| serde_json::to_value(&snapshot).expect("and as a tree"));
    assert!(
        building.allocations > 1_000 * writing.allocations,
        "{} allocations for the tree, {} for the text",
        building.allocations,
        writing.allocations
    );
    assert_eq!(serde_json::to_string(&tree).unwrap(), text);
}

#[test]
fn a_snapshot_is_read_from_text_without_a_tree() {
    let (ctl, _) = steady_controller(3_000, 1_500);
    let text = serde_json::to_string(&ctl.snapshot()).expect("a snapshot serializes");
    let (snapshot, reading) =
        counted(|| serde_json::from_str::<Snapshot>(&text).expect("and parses back"));
    // What the snapshot itself owns: a clone allocates each of its
    // buffers once, at its final size. Reading grows the half-dozen
    // cells- or servers-long vectors by doubling, a dozen steps each, and
    // that is all it may add: a `Value` tree of the same text is a node
    // per number and a `String` per key.
    let (copy, owned) = counted(|| snapshot.clone());
    assert!(
        reading.allocations <= owned.allocations + 128,
        "reading {} bytes of snapshot took {} allocations; the snapshot owns {}",
        text.len(),
        reading.allocations,
        owned.allocations
    );
    let (tree, building) =
        counted(|| serde_json::from_str::<serde_json::Value>(&text).expect("and as a tree"));
    assert!(
        building.allocations > 5 * reading.allocations,
        "{} allocations for the tree, {} for the snapshot",
        building.allocations,
        reading.allocations
    );
    assert_eq!(serde_json::to_string(&copy).unwrap(), text);
    assert_eq!(serde_json::to_string(&tree).unwrap(), text);
}

/// The headline stale model and, from its initial state, the states the
/// transition proofs below start from: one with cells placed, one with
/// server 0 down and believed down, and one with its recovery pending.
fn stale_states() -> (Model, [StateView; 3]) {
    let model = Model::new(McConfig::headline_stale(2));
    let run = |state: &StateView, ops: &[Operation]| {
        ops.iter()
            .fold(state.clone(), |s, &op| model.apply(&s, op).next)
    };
    let placed = run(
        &model.initial_state(),
        &[
            Operation::Report { cell: 0, level: 1 },
            Operation::Report { cell: 1, level: 0 },
            Operation::Epoch,
        ],
    );
    let down = run(
        &placed,
        &[Operation::Fail { server: 0 }, Operation::Deliver],
    );
    let returning = run(&down, &[Operation::Recover { server: 0 }]);
    assert!(!down.truth[0] && !down.believed[0] && down.pending.is_empty());
    assert!(returning.pending.front().is_some_and(|n| n.up));
    (model, [placed, down, returning])
}

#[test]
fn warm_model_transitions_allocate_nothing() {
    let (model, [placed, down, returning]) = stale_states();
    let steps = [
        (&placed, Operation::Report { cell: 2, level: 1 }),
        (&placed, Operation::Fail { server: 1 }),
        (&down, Operation::Recover { server: 0 }),
        (&returning, Operation::Deliver),
        (&returning, Operation::Drill),
        (&placed, Operation::Register),
        (&placed, Operation::Deregister { cell: 0 }),
    ];
    let mut next = StateView::default();
    let mut outages = Vec::new();
    // The warm-up: each buffer grows to what the largest step needs.
    for &(state, op) in &steps {
        model.apply_into(state, op, &mut next, &mut outages);
    }
    for &(state, op) in &steps {
        let ((), t) = counted(|| model.apply_into(state, op, &mut next, &mut outages));
        assert_eq!(t.allocations, 0, "{op} allocated on warm buffers");
        let fresh = model.apply(state, op);
        assert_eq!((&next, &outages), (&fresh.next, &fresh.outages), "{op}");
    }
}

#[test]
fn rediscovering_a_known_state_allocates_nothing() {
    let (model, states) = stale_states();
    let mut visited = Visited::new(&model);
    for state in &states {
        assert!(visited.discover(state));
    }
    let (again, t) = counted(|| states.iter().filter(|&s| visited.discover(s)).count());
    assert_eq!(again, 0, "every state was known");
    assert_eq!(t.allocations, 0, "a known state's discovery allocated");
    assert_eq!(visited.states(), states.len());
}

/// Allocations per transition of one depth-6 exploration of the headline
/// stale model on the calling thread, which runs the whole exploration;
/// the conformance walk's workers are threads of their own, and
/// [`a_warm_restore_drill_allocates_only_for_its_snapshot_and_controller`]
/// holds their largest cost.
const EXPLORE_ALLOCATIONS_PER_TRANSITION: f64 = 2.65;

#[test]
fn an_exploration_allocates_under_its_per_transition_budget() {
    let model = Model::new(McConfig {
        depth: 6,
        ..McConfig::headline_stale(2)
    });
    let (report, t) = counted(|| pran_mc::explore(&model));
    assert!(report.conformance_failures.is_empty());
    let per_transition = t.allocations as f64 / report.transitions as f64;
    assert!(
        per_transition <= EXPLORE_ALLOCATIONS_PER_TRANSITION,
        "{} allocations over {} transitions: {per_transition:.3} each",
        t.allocations,
        report.transitions
    );
}

#[test]
fn a_warm_restore_drill_allocates_only_for_its_snapshot_and_controller() {
    let mut ctl = Controller::new(McConfig::headline().sys);
    ctl.install_app(Box::new(FailoverApp::new()));
    for cell in 0..4 {
        ctl.register_cell();
        ctl.report_load(cell, 0.5).unwrap();
    }
    ctl.run_epoch(Duration::from_secs(60));
    restore_drill(&ctl).unwrap();
    let (_, drill) = counted(|| restore_drill(&ctl).unwrap());
    // What the drill must make: the snapshot, the one it reads back, the
    // restored controller and its reinstalled app. Its text and the two
    // views it compares are written over the thread's buffers.
    let (snapshot, taking) = counted(|| ctl.snapshot());
    let text = serde_json::to_string(&snapshot).unwrap();
    let (parsed, reading) = counted(|| serde_json::from_str::<Snapshot>(&text).unwrap());
    let (_, restoring) = counted(|| Controller::try_restore(parsed).unwrap());
    let app = 1;
    assert_eq!(
        drill.allocations,
        taking.allocations + reading.allocations + restoring.allocations + app,
        "snapshot {}, read {}, restore {}",
        taking.allocations,
        reading.allocations,
        restoring.allocations
    );
}

/// Allocations of one warm `ilp::solve` that the cost bound closes before
/// any model: first fit decreasing's order, scan and placement, the
/// gate's demand list and server count, and the start's per-server loads.
/// One `build_model` of the same instance makes ten times as many.
const PROVEN_SOLVE_ALLOCATIONS: u64 = 9;

#[test]
fn a_bound_closed_exact_solve_builds_no_model() {
    let inst = pran_integration_tests::library_instance(0);
    let limits = pran_integration_tests::library_limits();
    let warm = ilp::solve(&inst, &limits);
    assert_eq!(
        (warm.presolve, warm.nodes),
        (None, 1),
        "instance 0 is bound-closed"
    );
    let (solved, t) = counted(|| ilp::solve(&inst, &limits));
    assert_eq!(solved.placement, warm.placement);
    let (_, model) = counted(|| ilp::build_model(&inst));
    assert!(
        t.allocations <= PROVEN_SOLVE_ALLOCATIONS && model.allocations >= 10 * t.allocations,
        "{} allocations; one build_model makes {}",
        t.allocations,
        model.allocations
    );
}
