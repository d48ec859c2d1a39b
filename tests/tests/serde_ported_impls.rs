//! The five hand-written `Serialize` impls say the same thing to every
//! sink.
//!
//! `vendor/serde_json/tests/differential.rs` holds the derive and the
//! std impls to the three-sink contract and pins the format itself; the
//! five types that write their own events (no derive: a const generic, a
//! lifetime, working state kept off the wire, a run-length class table,
//! an untagged enum) get the same contract here, on non-trivial values.

use std::time::Duration;

use pran::{Controller, Snapshot};
use pran_insight::{LiveFold, MetroFold};
use pran_sim::SplitPlan;
use pran_telemetry::metrics::LogBuckets;
use pran_telemetry::Subframe;
use serde_json::Value;

/// `to_string` / `to_string_pretty` of `x` are the renderings of
/// `to_value(x)`, and both parse back to it. Returns the tree.
fn three_sinks_agree<T: serde::Serialize>(x: &T) -> Value {
    let tree = serde_json::to_value(x).unwrap();
    let compact = serde_json::to_string(x).unwrap();
    assert_eq!(compact, tree.to_json_string());
    assert_eq!(serde_json::from_str::<Value>(&compact).unwrap(), tree);
    let pretty = serde_json::to_string_pretty(x).unwrap();
    assert_eq!(pretty, tree.to_json_string_pretty());
    assert_eq!(serde_json::from_str::<Value>(&pretty).unwrap(), tree);
    tree
}

fn task(cell: u64, release_us: u64, sojourn_us: u64, stolen: bool) -> Subframe {
    Subframe {
        cell,
        release_us,
        start_us: release_us + sojourn_us / 2,
        finish_us: release_us + sojourn_us,
        deadline_us: release_us + 2_000,
        core: stolen.then_some(1),
        stolen,
    }
}

#[test]
fn log_buckets() {
    let mut fine = LogBuckets::<2>::new();
    let mut coarse = LogBuckets::<0>::new();
    for us in [0, 1, 7, 999, 1_000, 123_456, u64::from(u32::MAX)] {
        fine.record_us(us);
        coarse.record(Duration::from_micros(us));
    }
    let tree = three_sinks_agree(&fine);
    let keys: Vec<&String> = tree.as_object().unwrap().keys().collect();
    assert_eq!(keys, ["buckets", "count", "sum_us", "max_us", "min_us"]);
    assert_eq!(tree["count"].as_u64(), Some(7));
    let back: LogBuckets<2> = serde_json::from_value(tree).unwrap();
    assert_eq!(back, fine);
    three_sinks_agree(&coarse);
    three_sinks_agree(&LogBuckets::<3>::new());
}

#[test]
fn live_fold_and_metro_fold() {
    let mut a = LiveFold::new(3, 2, 2_000);
    let mut b = LiveFold::new(2, 1, 2_000);
    for i in 0..40u64 {
        a.record(
            (i % 3) as usize,
            Some((i % 2) as usize),
            &task(i % 3, i * 1_000, 300 + 97 * i, false),
        );
        b.record(
            (i % 2) as usize,
            Some(0),
            &task(i % 2, i * 1_000, 2_500, i % 4 == 0),
        );
    }
    b.steal(1, 4_100);
    a.settle();
    b.settle();
    assert!(
        a.misses() + b.misses() > 0,
        "some tasks must miss for blame to be non-zero"
    );

    let tree = three_sinks_agree(&a);
    let keys: Vec<&String> = tree.as_object().unwrap().keys().collect();
    assert_eq!(
        keys,
        [
            "budget_us",
            "cell_blame",
            "cell_misses",
            "cell_latency",
            "server_latency",
            "server_tasks",
            "totals",
            "tasks",
            "misses",
            "events"
        ]
    );
    let metro = three_sinks_agree(&MetroFold::new(vec![&a, &b]));
    assert_eq!(metro.as_array().unwrap().len(), 2);
    assert_eq!(metro[0], tree);
    assert_eq!(metro[1], three_sinks_agree(&b));
}

#[test]
fn split_plan() {
    use pran_phy::FunctionalSplit::{Full, SplitII};
    assert_eq!(
        three_sinks_agree(&SplitPlan::Uniform(Full)).as_str(),
        Some("Full")
    );
    let per_cell = three_sinks_agree(&SplitPlan::PerCell(vec![Full, SplitII, Full]));
    assert_eq!(per_cell.to_json_string(), r#"["Full","SplitII","Full"]"#);
    three_sinks_agree(&SplitPlan::PerCell(Vec::new()));
}

#[test]
fn topology_binding() {
    // The fixture's controller has a four-class topology bound; its
    // snapshot carries the binding as one row per topology cell.
    let text = include_str!("../fixtures/controller_snapshot_v1.json");
    let snapshot: Snapshot = serde_json::from_str(text).unwrap();
    let tree = three_sinks_agree(&snapshot);
    assert_eq!(tree["topology"]["allowed"].as_array().unwrap().len(), 8);
    assert_eq!(tree["topology"]["specs"][0][0].as_f64(), Some(400.0));
    assert_eq!(tree.to_json_string(), text);
    let restored = Controller::try_restore(snapshot).unwrap();
    three_sinks_agree(&restored.snapshot());
}
