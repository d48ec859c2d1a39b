//! E17 — exhaustive model checking of the control plane under stale
//! views.
//!
//! Where E13 *samples* fault schedules, E17 *enumerates* them: a compact
//! abstract model of the controller (bitwise-conformant to the real one;
//! `pran-mc` checks every discovered state against a concrete
//! `Controller` and compares views exactly) is explored breadth-first
//! over every operation interleaving up to a depth bound, with all five
//! chaos invariants checked on every transition.
//!
//! Three phases:
//!
//! 1. **Linearizable views** — crash notifications are atomic. The
//!    headline claim: *zero* invariant violations in any schedule up to
//!    the depth bound.
//! 2. **Stale views** (`Stale(k)`) — notifications queue for up to `k`
//!    transitions. The explorer finds every schedule that strands a cell
//!    on a dead server; the minimal counterexample is compiled to a
//!    `pran-chaos` scenario, serialized to JSON, re-parsed and replayed
//!    through `run_scenario`, which must reproduce the same invariant
//!    violation.
//! 3. **Churn** — register/deregister operations joined to the mix on a
//!    smaller instance, again violation-free under linearizable views.
//!
//! Exit status is non-zero on any linearizable/churn violation, any
//! model↔controller conformance divergence, a stale exploration that
//! finds nothing (the hazard *must* exist), or a counterexample that
//! fails to reproduce concretely.

use std::process::ExitCode;

use bench::Report;
use pran_mc::{emit_reproducing, explore, McConfig, McReport, Model, ViewSemantics};

fn section_for(report: &McReport) -> serde_json::Value {
    serde_json::json!({
        "semantics": report.semantics,
        "depth": report.depth,
        "states": report.states,
        "transitions": report.transitions,
        "dedup_hits": report.dedup_hits,
        "dedup_ratio": report.dedup_ratio(),
        "orbit_states": report.orbit_states,
        "violations_total": report.total_violations(),
        "violations_by_kind": report
            .violation_counts
            .iter()
            .map(|(k, n)| serde_json::json!({"kind": k, "count": n}))
            .collect::<Vec<_>>(),
        "conformance_checked": report.conformance_checked,
        "conformance_failures": report.conformance_failures.len(),
    })
}

fn print_divergences(report: &McReport) {
    for failure in &report.conformance_failures {
        eprintln!("CONFORMANCE DIVERGENCE: {failure}");
    }
}

fn main() -> ExitCode {
    bench::telemetry::init_from_env();

    let depth = 6usize;
    let cells = 4usize;
    let servers = 3usize;
    let stale_k = 2u32;

    println!("E17: exhaustive model checking under linearizable vs stale views");
    let base = McConfig {
        cells,
        servers,
        depth,
        sys: pran::SystemConfig::default_eval(servers),
        ..McConfig::headline()
    };

    // --- phase 1: linearizable views — the envelope holds everywhere ---
    let lin_model = Model::new(base.clone());
    let lin = explore(&lin_model);
    print_divergences(&lin);
    let phase1_ok = lin.ok() && lin.dedup_hits > 0;
    if !phase1_ok {
        for v in &lin.violations {
            eprintln!("LINEARIZABLE VIOLATION [{:?}]: {}", v.kind, v.schedule());
        }
    }

    // --- phase 2: stale views — find, minimize, reproduce ---
    let stale_model = Model::new(McConfig {
        semantics: ViewSemantics::Stale { k: stale_k },
        ..base.clone()
    });
    let stale = explore(&stale_model);
    print_divergences(&stale);
    let mut counterexample_section = serde_json::json!(null);
    let mut phase2_ok = stale.conformance_failures.is_empty();
    match stale.violations.first() {
        None => {
            eprintln!("stale exploration found no violation — the hazard must exist");
            phase2_ok = false;
        }
        Some(minimal) => {
            println!(
                "\nminimal stale counterexample ({:?}, depth {}):\n  {}\n  {}",
                minimal.kind,
                minimal.path.len(),
                minimal.schedule(),
                minimal.detail
            );
            match emit_reproducing(&stale_model, minimal) {
                Ok(repro) => {
                    println!(
                        "reproduced concretely: scenario \"{}\" ({} events) → {} violation(s)",
                        repro.scenario.name,
                        repro.scenario.events.len(),
                        repro.report.violations.len()
                    );
                    counterexample_section = serde_json::json!({
                        "kind": minimal.kind.label(),
                        "depth": minimal.path.len(),
                        "schedule": minimal.path.iter()
                            .map(|op| op.to_string())
                            .collect::<Vec<_>>(),
                        "detail": minimal.detail,
                        "reproduced": true,
                        "concrete_violations": repro.report.violations.len(),
                        "scenario": serde_json::from_str::<serde_json::Value>(&repro.json)
                            .expect("counterexample JSON parses"),
                    });
                }
                Err(e) => {
                    eprintln!("counterexample failed to reproduce: {e}");
                    phase2_ok = false;
                }
            }
        }
    }

    // --- phase 3: churn joins the mix on a smaller instance ---
    let churn_model = Model::new(McConfig::churn());
    let churn = explore(&churn_model);
    print_divergences(&churn);
    let phase3_ok = churn.ok();

    println!(
        "\nshape check: zero violations under linearizable views at depth {depth}; \
         stale(k={stale_k}) strands cells on silently-dead servers and the minimal \
         counterexample replays concretely through pran-chaos."
    );

    Report::new("e17_mc")
        .meta("depth", serde_json::json!(depth))
        .meta("cells", serde_json::json!(cells))
        .meta("servers", serde_json::json!(servers))
        .meta("stale_k", serde_json::json!(stale_k))
        .meta("levels", serde_json::json!(base.levels))
        .section("linearizable", section_for(&lin))
        .section(
            "stale",
            serde_json::json!({
                "exploration": section_for(&stale),
                "counterexample": counterexample_section,
            }),
        )
        .section("churn", section_for(&churn))
        .save();

    if phase1_ok && phase2_ok && phase3_ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("E17 FAILED: phase1_ok={phase1_ok} phase2_ok={phase2_ok} phase3_ok={phase3_ok}");
        ExitCode::FAILURE
    }
}
