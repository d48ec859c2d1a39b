//! E13 — chaos exploration: invariants hold under composed faults, and
//! failing schedules shrink to deterministic reproducers.
//!
//! Two phases. Phase 1 samples seeded fault schedules (crashes, fronthaul
//! degradation, flash crowds, snapshot drills) and runs each through the
//! `pran-chaos` harness at the stock safety bounds: with utilization
//! capped at 0.9 and at most two concurrent crashes, the envelope must
//! hold — zero violations. Phase 2 demonstrates the tooling: with the
//! outage bound tightened to zero every crash is a violation, so the
//! explorer finds a failing schedule, ddmin shrinks it to a minimal
//! reproducer, and the reproducer's JSON artifact replays bit-for-bit.
//!
//! Exit status is non-zero on any phase-1 violation, failed shrink, or
//! replay mismatch.

use std::process::ExitCode;
use std::time::Duration;

use bench::Report;
use pran::SystemConfig;
use pran_chaos::{
    explore, replay, run_scenario, sample_scenario, shrink, ExploreConfig, InvariantKind,
};

fn main() -> ExitCode {
    bench::telemetry::init_from_env();

    let schedules = 50usize;
    let seed = 42u64;

    println!("E13: chaos exploration and failing-schedule shrinking\n");
    let cfg = ExploreConfig::default_eval(schedules, seed);
    let sys = SystemConfig::default_eval(cfg.servers);

    // --- phase 1: the envelope holds at stock bounds ---
    println!(
        "== phase 1: {} schedules, {} cells / {} servers, horizon {:?} ==",
        cfg.schedules, cfg.cells, cfg.servers, cfg.horizon
    );
    let sweep = explore(&cfg, &sys).expect("sampled schedules validate");
    println!(
        "{} runs, {} failing schedules",
        sweep.runs,
        sweep.failures.len()
    );
    let phase1_ok = sweep.ok();
    if !phase1_ok {
        for f in &sweep.failures {
            eprintln!("FAIL schedule {}: {:?}", f.index, f.report.violations);
        }
    }

    // --- phase 2: tighten a bound, find a failure, shrink, replay ---
    println!("\n== phase 2: outage bound 0 — every crash outage is a violation ==");
    let mut tight = sys.clone();
    tight.slo.outage_p99_max = Duration::ZERO;
    let kind = InvariantKind::OutageExceeded;
    let mut found = None;
    for index in 0..cfg.schedules.max(100) {
        let scenario = sample_scenario(&cfg, index);
        let report = run_scenario(&scenario, &tight).expect("sampled schedule runs");
        if report.violations.iter().any(|v| v.kind == kind) {
            found = Some((index, scenario, report));
            break;
        }
    }
    let Some((index, scenario, report)) = found else {
        eprintln!("no schedule triggered {} — sampler drifted?", kind.label());
        return ExitCode::FAILURE;
    };
    println!(
        "schedule {index} fails with {} violation(s) across {} events",
        report.violations.len(),
        scenario.events.len()
    );

    let minimal = shrink(&scenario, &tight, kind);
    println!(
        "shrunk to {} event(s): {}",
        minimal.events.len(),
        minimal
            .events
            .iter()
            .map(|te| format!("{}@{:?}", te.event.label(), te.at))
            .collect::<Vec<_>>()
            .join(", ")
    );

    // The artifact: round-trip through JSON and replay twice.
    let artifact = minimal.to_json();
    let (parsed, first) = replay(&artifact, &tight).expect("artifact replays");
    let (_, second) = replay(&artifact, &tight).expect("artifact replays again");
    let shrunk_fails = first.violations.iter().any(|v| v.kind == kind);
    let deterministic = first.violations == second.violations && parsed == minimal;
    println!(
        "replay: {} violation(s), deterministic across two runs: {}",
        first.violations.len(),
        deterministic
    );
    let phase2_ok = shrunk_fails && deterministic && minimal.events.len() <= scenario.events.len();

    println!(
        "\nshape check: zero violations at stock bounds (util ≤ 0.9, ≤ 2 crashes);\n\
         the tightened bound yields a minimal reproducer that replays identically."
    );

    Report::new("e13_chaos")
        .meta("schedules", serde_json::json!(schedules))
        .meta("seed", serde_json::json!(seed))
        .meta("cells", serde_json::json!(cfg.cells))
        .meta("servers", serde_json::json!(cfg.servers))
        .meta("horizon_s", serde_json::json!(cfg.horizon.as_secs()))
        .section(
            "exploration",
            serde_json::json!({
                "runs": sweep.runs,
                "failing_schedules": sweep.failures.len(),
                "violations_by_kind": sweep
                    .violations_by_kind()
                    .into_iter()
                    .map(|(k, n)| serde_json::json!({"kind": k, "count": n}))
                    .collect::<Vec<_>>(),
            }),
        )
        .section(
            "shrink_demo",
            serde_json::json!({
                "failing_index": index,
                "original_events": scenario.events.len(),
                "shrunk_events": minimal.events.len(),
                "violation_kind": kind.label(),
                "replay_deterministic": deterministic,
                "shrunk_scenario": serde_json::from_str::<serde_json::Value>(&artifact)
                    .expect("artifact is valid JSON"),
            }),
        )
        .save();

    if phase1_ok && phase2_ok {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "E13 FAILED: phase1_ok={phase1_ok} shrunk_fails={shrunk_fails} \
             deterministic={deterministic}"
        );
        ExitCode::FAILURE
    }
}
