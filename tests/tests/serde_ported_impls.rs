//! The five hand-written `Serialize` impls say the same thing to every
//! sink, and the eight readers of types whose text has changed read
//! every way it may be written.
//!
//! `vendor/serde_json/tests/differential.rs` holds the derive and the
//! std impls to the three-sink contract and pins the format itself; the
//! five types that write their own events (no derive: a const generic, a
//! lifetime, working state kept off the wire, a run-length class table,
//! an untagged enum) get the same contract here, on non-trivial values.
//! `vendor/serde_json/tests/read_differential.rs` is the same for
//! reading; eight types are held to it here (four derive their reader
//! with `#[serde(default)]` fields, two convert from a derived wire
//! struct, two keep a loop), together with what each of them makes of a
//! text written before its newest field existed.

use std::time::Duration;

use pran::{Controller, Snapshot};
use pran_insight::{LiveFold, MetroFold, SloPolicy};
use pran_phy::{CellWorkload, Direction, FunctionalSplit};
use pran_sched::placement::{CellDemand, WarmPlacer};
use pran_sim::{PoolMetrics, SplitPlan};
use pran_telemetry::metrics::LogBuckets;
use pran_telemetry::Subframe;
use serde_json::{from_str, to_string, to_string_pretty, Value};

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
    let mut fine = LogBuckets::<160>::new();
    let mut coarse = LogBuckets::<40>::new();
    for us in [0, 1, 7, 999, 1_000, 123_456, u64::from(u32::MAX)] {
        fine.record_us(us);
        coarse.record(Duration::from_micros(us));
    }
    let tree = three_sinks_agree(&fine);
    let keys: Vec<&String> = tree.as_object().unwrap().keys().collect();
    assert_eq!(keys, ["buckets", "count", "sum_us", "max_us", "min_us"]);
    assert_eq!(tree["count"].as_u64(), Some(7));
    let back: LogBuckets<160> = serde_json::from_value(tree).unwrap();
    assert_eq!(back, fine);
    three_sinks_agree(&coarse);
    three_sinks_agree(&LogBuckets::<320>::new());
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
    assert_eq!(
        tree.to_json_string(),
        pran_integration_tests::v1_snapshot_written_back()
    );
    let restored = Controller::try_restore(snapshot).unwrap();
    three_sinks_agree(&restored.snapshot());
}

/// What a reader must step over without building anything.
const UNKNOWN: &str = r#"{"a":[1,{"b":null,"c":[[],{}]},"]}"],"d":"\"\\","e":-1.5e3}"#;

/// `text` read as a `T` and written back.
fn rewritten<T: serde::Serialize + serde::Deserialize>(text: &str) -> String {
    let x: T = from_str(text).unwrap_or_else(|e| panic!("{e}\nreading {text}"));
    to_string(&x).unwrap()
}

/// `tree`, an object, without its entry `key`.
fn without(tree: &Value, key: &str) -> String {
    let mut map = tree.as_object().expect("an object").clone();
    map.remove(key).expect("the key is there");
    to_string(&map).unwrap()
}

/// An object-shaped `x` reads back from its compact and pretty text,
/// with its entries reversed, with unknown fields round them, and with
/// every key written twice, `other`'s value first. Returns its tree.
fn reads_every_way<T: serde::Serialize + serde::Deserialize>(x: &T, other: &T) -> Value {
    let compact = to_string(x).unwrap();
    assert_eq!(rewritten::<T>(&compact), compact);
    assert_eq!(rewritten::<T>(&to_string_pretty(x).unwrap()), compact);

    let tree: Value = from_str(&compact).unwrap();
    let mut entries: Vec<(String, Value)> = tree.as_object().unwrap().clone().into_iter().collect();
    entries.reverse();
    let reversed: serde_json::Map = entries.into_iter().collect();
    assert_eq!(rewritten::<T>(&to_string(&reversed).unwrap()), compact);

    let inner = &compact[1..compact.len() - 1];
    let padded = format!(r#"{{"__before":{UNKNOWN},{inner},"__after":{UNKNOWN}}}"#);
    assert_eq!(rewritten::<T>(&padded), compact);

    let first = to_string(other).unwrap();
    assert_ne!(first, compact, "the duplicates must differ");
    let twice = format!("{},{inner}}}", &first[..first.len() - 1]);
    assert_eq!(rewritten::<T>(&twice), compact, "{twice}");
    tree
}

#[test]
fn cell_workload_reads() {
    let x = CellWorkload::full_load(Direction::Uplink);
    let other = CellWorkload::full_load(Direction::Downlink).with_split(FunctionalSplit::SplitII);
    let tree = reads_every_way(&x, &other);
    reads_every_way(&other, &x);
    // Written before splits existed: `Full`.
    assert_eq!(
        from_str::<CellWorkload>(&without(&tree, "split")).unwrap(),
        x
    );
    let err = from_str::<CellWorkload>(&without(&tree, "mcs")).unwrap_err();
    assert_eq!(
        err.to_string(),
        "at mcs: expected unsigned integer, got null"
    );
    let err = from_str::<CellWorkload>("7").unwrap_err();
    assert_eq!(
        err.to_string(),
        "expected object with field `bandwidth`, got number"
    );
}

#[test]
fn cell_demand_reads() {
    let x = CellDemand::flat(3, 41.5);
    let other = CellDemand {
        id: 4,
        gops: 50.0,
        decode_gops: 12.25,
    };
    let tree = reads_every_way(&x, &other);
    reads_every_way(&other, &x);
    assert_eq!(
        from_str::<CellDemand>(&without(&tree, "decode_gops")).unwrap(),
        x
    );
    let err = from_str::<CellDemand>(&without(&tree, "gops")).unwrap_err();
    assert_eq!(err.to_string(), "at gops: expected number, got null");
}

#[test]
fn slo_policy_reads() {
    let x = SloPolicy::default_eval();
    let other = SloPolicy {
        miss_ratio_max: 0.5,
        trigger_ratio: 1.25,
        clear_ratio: 0.75,
        ..x
    };
    let tree = reads_every_way(&x, &other);
    reads_every_way(&other, &x);
    // Written before hysteresis: the defaults.
    let mut old = tree.clone();
    for newer in ["trigger_ratio", "clear_ratio"] {
        old = from_str(&without(&old, newer)).unwrap();
        assert_eq!(from_str::<SloPolicy>(&to_string(&old).unwrap()).unwrap(), x);
    }
    // Written while the burn-rate windows and factors were settable:
    // their keys are skipped, whatever they held.
    let compact = to_string(&x).unwrap();
    let retired = format!(
        r#"{},"burn_fast_epochs":3,"burn_slow_epochs":30,"burn_page_factor":14.5,"burn_ticket_factor":6.0}}"#,
        &compact[..compact.len() - 1]
    );
    assert_eq!(from_str::<SloPolicy>(&retired).unwrap(), x);
    let err = from_str::<SloPolicy>(&without(&tree, "unplaced_max")).unwrap_err();
    assert_eq!(
        err.to_string(),
        "at unplaced_max: expected unsigned integer, got null"
    );
    let late = to_string(&tree)
        .unwrap()
        .replacen(r#""secs":0"#, r#""secs":"soon""#, 1);
    let err = from_str::<SloPolicy>(&late).unwrap_err();
    assert_eq!(
        err.to_string(),
        "at outage_p99_max: expected unsigned integer, got string"
    );
}

#[test]
fn pool_metrics_and_log_buckets_read() {
    let mut x = PoolMetrics {
        tasks_total: 1_000,
        deadline_misses: 7,
        fronthaul_bytes: 0,
        epochs: 2,
        servers_used: vec![3, 4],
        demand_gops: vec![120.5, 99.0],
        ..PoolMetrics::default()
    };
    for us in [0, 9, 1_500, 123_456] {
        x.response_times.record_us(us);
        x.deadline_slack.record_us(2_000 - us.min(2_000));
    }
    let other = PoolMetrics {
        fronthaul_bytes: 1 << 40,
        steals: 5,
        ..PoolMetrics::default()
    };
    let tree = reads_every_way(&x, &other);
    reads_every_way(&other, &x);
    // Written before the fronthaul byte counter: 0.
    assert_eq!(
        from_str::<PoolMetrics>(&without(&tree, "fronthaul_bytes")).unwrap(),
        x
    );
    let err = from_str::<PoolMetrics>(&without(&tree, "outages")).unwrap_err();
    assert_eq!(
        err.to_string(),
        "at outages: expected object with field `buckets`, got null"
    );

    let mut fine = LogBuckets::<160>::new();
    fine.record_us(77);
    let coarse_tree = reads_every_way(&x.response_times, &x.deadline_slack);
    reads_every_way(&fine, &LogBuckets::<160>::new());
    // The resolution is not on the wire; the bucket count gives it away.
    let err = serde_json::from_value::<LogBuckets<160>>(coarse_tree.clone()).unwrap_err();
    assert!(
        err.to_string().starts_with("expected ") && err.to_string().contains(" buckets, got "),
        "{err}"
    );
    let err = from_str::<LogBuckets<40>>(&without(&coarse_tree, "count")).unwrap_err();
    assert_eq!(
        err.to_string(),
        "at count: expected unsigned integer, got null"
    );
}

#[test]
fn split_plan_reads() {
    use FunctionalSplit::{Full, SplitIII};
    for (text, plan) in [
        ("null", SplitPlan::default()),
        (r#""SplitIII""#, SplitPlan::Uniform(SplitIII)),
        (
            r#" [ "Full" , "SplitIII" ] "#,
            SplitPlan::PerCell(vec![Full, SplitIII]),
        ),
        ("[]", SplitPlan::PerCell(vec![])),
    ] {
        assert_eq!(from_str::<SplitPlan>(text).unwrap(), plan, "{text}");
    }
    for (text, message) in [
        (
            "7",
            "expected a split tag or an array of split tags, got number",
        ),
        (
            "{}",
            "expected a split tag or an array of split tags, got object",
        ),
        (r#""Half""#, r#"unknown FunctionalSplit variant "Half""#),
        (
            r#"["Full",1]"#,
            "at [1]: expected FunctionalSplit variant, got number",
        ),
        ("nil", "bad literal at byte 0"),
    ] {
        let err = from_str::<SplitPlan>(text).unwrap_err();
        assert_eq!(err.to_string(), message, "{text}");
    }
}

#[test]
fn warm_placer_and_topology_binding_read() {
    // Both travel inside the fixture's snapshot: the placer under
    // `warm`, the binding (one row per topology cell, streamed into its
    // classes as they are read) under `topology`.
    let text = include_str!("../fixtures/controller_snapshot_v1.json");
    let ragged = include_str!("../fixtures/hostile_controller_snapshot_ragged.json");
    let x: Snapshot = from_str(text).unwrap();
    let other: Snapshot = from_str(ragged).unwrap();
    let tree = reads_every_way(&x, &other);

    let warm = to_string(&tree["warm"]).unwrap();
    let placer: WarmPlacer = from_str(&warm).unwrap();
    let mut moved: Value = from_str(&warm).unwrap();
    let Value::Object(map) = &mut moved else {
        panic!("the placer is an object");
    };
    map.insert("booked".into(), serde_json::json!([1.0, 2.0]));
    map.insert("booked_decode".into(), serde_json::json!([0.5, 0.25]));
    let other: WarmPlacer = serde_json::from_value(moved.clone()).unwrap();
    reads_every_way(&placer, &other);
    reads_every_way(&other, &placer);
    // Written before accelerator offload: zero decode bookings, one per
    // booking.
    let old: WarmPlacer = from_str(&without(&moved, "booked_decode")).unwrap();
    assert_eq!(
        serde_json::to_value(&old).unwrap()["booked_decode"],
        serde_json::json!([0.0, 0.0])
    );

    let binding = &tree["topology"];
    for (broken, message) in [
        // The one message here the streaming port reworded: the tree
        // reader's hand-written loop said `expected array` and no more.
        (
            without(binding, "allowed"),
            "at topology.allowed: expected array, got null",
        ),
        (
            without(binding, "specs"),
            "at topology.specs: expected array, got null",
        ),
        (
            to_string(binding).unwrap().replacen("[true,", "[7,", 1),
            "at topology.allowed.[0]: expected bool, got number",
        ),
        (
            "[]".to_string(),
            "at topology: expected object with field `allowed`, got array",
        ),
    ] {
        let mut hostile = tree.as_object().unwrap().clone();
        hostile.insert("topology".into(), from_str(&broken).unwrap());
        let err = serde_json::from_value::<Snapshot>(Value::Object(hostile)).unwrap_err();
        assert_eq!(err.to_string(), message);
    }
}
