//! Cross-crate property tests: invariants that must hold for *any* trace,
//! load pattern or failure sequence.

use proptest::prelude::*;
use std::time::Duration;

use pran::{Controller, SystemConfig};
use pran_sched::placement::heuristics::{place, Heuristic};
use pran_sched::placement::migration::incremental_repack;
use pran_sched::placement::PlacementInstance;
use pran_sched::realtime::{simulate, Policy, RtTask};
use pran_traces::{generate, ClassMix, TraceConfig};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any generated trace validates structurally and pools at ≥ 1× gain.
    #[test]
    fn traces_always_validate(
        cells in 2usize..20,
        seed in 0u64..1000,
        res in 0.1f64..1.0,
        off in 0.1f64..1.0,
    ) {
        let mut cfg = TraceConfig::default_day(cells, seed);
        cfg.duration_seconds = 4.0 * 3600.0;
        cfg.step_seconds = 600.0;
        cfg.class_mix = ClassMix { residential: res, office: off, transport: 0.2, entertainment: 0.1 };
        let trace = generate(&cfg);
        prop_assert!(trace.validate().is_ok());
        prop_assert!(trace.multiplexing_gain() >= 1.0 - 1e-12);
        prop_assert!(trace.pooling_saving() >= -1e-12);
    }

    /// Heuristic placements are always valid for the cells they place, and
    /// FFD places everything whenever total demand fits comfortably.
    #[test]
    fn heuristic_placements_always_valid(
        demands in proptest::collection::vec(10.0f64..150.0, 1..25),
        seed_h in 0usize..2,
    ) {
        let h = Heuristic::all()[seed_h];
        let total: f64 = demands.iter().sum();
        let servers = ((total / 200.0).ceil() as usize + demands.len()).max(1);
        let inst = PlacementInstance::uniform(&demands, servers, 200.0);
        let r = place(&inst, h);
        // Everything ≤ capacity is placeable given per-cell spare servers.
        prop_assert!(r.complete(), "{}: unplaced {:?}", h.label(), r.unplaced);
        prop_assert!(inst.validate(&r.placement).is_ok());
    }

    /// Incremental repack never invents capacity violations and never
    /// moves a cell that could stay.
    #[test]
    fn repack_preserves_feasibility(
        demands in proptest::collection::vec(10.0f64..120.0, 2..20),
        growth in 1.0f64..1.6,
    ) {
        let servers = demands.len();
        let inst = PlacementInstance::uniform(&demands, servers, 200.0);
        let seed = place(&inst, Heuristic::FirstFitDecreasing);
        prop_assume!(seed.complete());

        let grown: Vec<f64> = demands.iter().map(|d| d * growth).collect();
        let grown_inst = PlacementInstance::uniform(&grown, servers, 200.0);
        let (new, plan) = incremental_repack(&grown_inst, &seed.placement);
        // Feasibility for all placed cells (some may drop if truly stuck).
        let loads = grown_inst.server_loads(&new);
        for (s, &l) in loads.iter().enumerate() {
            prop_assert!(l <= 200.0 + 1e-6, "server {s} overloaded: {l}");
        }
        // No gratuitous churn: if the old placement still fits the grown
        // demands, repack must not move anything.
        if grown_inst.validate(&seed.placement).is_ok() {
            prop_assert!(plan.is_empty(), "still-feasible placement must not churn");
        }
    }

    /// The scheduler simulation conserves tasks: every task finishes
    /// exactly once, busy time equals total service, regardless of policy.
    #[test]
    fn scheduler_conserves_work(
        services in proptest::collection::vec(50u64..2000, 1..40),
        cores in 1usize..5,
        policy_idx in 0usize..4,
    ) {
        let policy = Policy::all()[policy_idx];
        let tasks: Vec<RtTask> = services
            .iter()
            .enumerate()
            .map(|(i, &us)| RtTask {
                id: i,
                cell: i % 7,
                release: Duration::from_micros((i as u64 % 5) * 300),
                deadline: Duration::from_micros(2_000 + (i as u64 % 5) * 300),
                service: Duration::from_micros(us),
            })
            .collect();
        let out = simulate(&tasks, cores, policy);
        let ns = |d: Duration| d.as_nanos() as u64;
        let busy: u64 = out.core_busy_ns.iter().sum();
        let total: u64 = tasks.iter().map(|t| ns(t.service)).sum();
        prop_assert_eq!(busy, total, "work lost or invented");
        // Finish times are consistent: ≥ release + service.
        for t in &tasks {
            prop_assert!(out.finish_ns[t.id] >= ns(t.release + t.service));
        }
        // Makespan bounds: at least critical path, at most serialized.
        let longest = tasks.iter().map(|t| ns(t.service)).max().unwrap();
        prop_assert!(out.makespan_ns >= longest);
        let last_release = tasks.iter().map(|t| ns(t.release)).max().unwrap();
        prop_assert!(out.makespan_ns <= last_release + total);
    }

    /// Controller invariant: after any epoch, no server exceeds capacity
    /// at predicted demand, and placed + unplaced == active cells.
    #[test]
    fn controller_epochs_never_overload(
        loads in proptest::collection::vec(0.0f64..1.0, 1..15),
        servers in 2usize..10,
    ) {
        let mut ctl = Controller::new(SystemConfig::default_eval(servers));
        let cells: Vec<usize> = (0..loads.len()).map(|_| ctl.register_cell()).collect();
        for (&c, &l) in cells.iter().zip(&loads) {
            ctl.report_load(c, l).unwrap();
        }
        let report = ctl.run_epoch(Duration::from_secs(60));
        let view = ctl.view();
        for s in &view.servers {
            prop_assert!(
                s.load_gops <= s.capacity_gops + 1e-6,
                "server {} at {}/{}",
                s.id, s.load_gops, s.capacity_gops
            );
        }
        let placed = view.cells.iter().filter(|c| c.server.is_some()).count();
        prop_assert_eq!(placed + report.unplaced, loads.len());
    }
}
