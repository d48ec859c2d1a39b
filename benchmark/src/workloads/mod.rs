//! The seven workloads. Each module offers `untraced` (the samples behind
//! the end-to-end metrics, spans off) and `traced` (the per-layer table).

pub mod control;
pub mod mc;
pub mod metro;
mod phases;
pub mod placement;
pub mod resident;

use crate::common::{Ctx, Traced, Untraced};
use crate::inputs::MetroKind;

/// Run `workload` untraced; `None` for an unknown name.
pub fn untraced(workload: &str, ctx: &Ctx) -> Option<Untraced> {
    Some(match workload {
        "metro_clean" => metro::untraced(MetroKind::Clean, ctx),
        "metro_degraded" => metro::untraced(MetroKind::Degraded, ctx),
        "pool_parallel" => metro::untraced(MetroKind::Parallel, ctx),
        "resident_live" => resident::untraced(ctx),
        "control_day" => control::untraced(ctx),
        "placement_exact" => placement::untraced(ctx),
        "mc_explore" => mc::untraced(ctx),
        _ => return None,
    })
}

/// Run `workload` traced; `None` for an unknown name.
pub fn traced(workload: &str, ctx: &Ctx) -> Option<Traced> {
    Some(match workload {
        "metro_clean" => metro::traced(MetroKind::Clean, ctx),
        "metro_degraded" => metro::traced(MetroKind::Degraded, ctx),
        "pool_parallel" => metro::traced(MetroKind::Parallel, ctx),
        "resident_live" => resident::traced(ctx),
        "control_day" => control::traced(ctx),
        "placement_exact" => placement::traced(ctx),
        "mc_explore" => mc::traced(ctx),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use std::time::Instant;

    use super::*;
    use crate::catalog::{exact_repeat_counts, WORKLOADS};

    fn quick() -> Ctx {
        Ctx {
            seed: 2026,
            seconds: 0.0,
            quick: true,
            started: Instant::now(),
        }
    }

    /// One test, not seven: the live tap `resident_live` arms is
    /// process-global, so workloads must not run on parallel test threads.
    #[test]
    fn quick_double_run_repeats_every_exact_count_and_fails_no_operation() {
        for workload in &WORKLOADS {
            let first = traced(workload.name, &quick()).expect("catalog names are known");
            let second = traced(workload.name, &quick()).expect("catalog names are known");
            for run in [&first, &second] {
                assert_eq!(
                    run.tally.failed, 0,
                    "{}: {:?}",
                    workload.name, run.tally.reasons
                );
                assert!(
                    run.tally.ops > 0 && !run.spans.is_empty(),
                    "{}",
                    workload.name
                );
            }
            for count in exact_repeat_counts() {
                assert_eq!(
                    first.layers.get(count),
                    second.layers.get(count),
                    "{}: {count} differs between two runs of one seed",
                    workload.name
                );
            }
            let e2e = untraced(workload.name, &quick()).expect("catalog names are known");
            assert_eq!(
                e2e.tally.failed, 0,
                "{}: {:?}",
                workload.name, e2e.tally.reasons
            );
            assert!(!e2e.rates.is_empty() && !e2e.op_ms.is_empty() && !e2e.setup_s.is_empty());
        }
        assert!(untraced("no_such_workload", &quick()).is_none());
        assert!(traced("no_such_workload", &quick()).is_none());
    }
}
