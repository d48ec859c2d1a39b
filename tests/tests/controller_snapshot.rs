//! The controller snapshot's wire form, held by committed files.
//!
//! `fixtures/controller_snapshot_v1.json` was written by the controller
//! as it stood before its feasibility mask, predictions and placement
//! instance became kept state: warm placement on, a four-class topology
//! bound (eight front-ends, ten cells — two with no front-end), a capped
//! cell, a deregistered cell, a failed and a drained server. None of the
//! kept state is on the wire, so the file must restore today, place the
//! next epoch exactly as its author did, and serialize back to the same
//! bytes — less the five config sections `SystemConfig` has since shed
//! ([`v1_snapshot_written_back`]). The hostile variants must come back as
//! typed errors.

use std::time::Duration;

use pran::{Controller, ControllerStats, EpochReport, Snapshot, SnapshotError, SystemConfig};
use pran_integration_tests::v1_snapshot_written_back;

const V1: &str = include_str!("../fixtures/controller_snapshot_v1.json");
const RAGGED: &str = include_str!("../fixtures/hostile_controller_snapshot_ragged.json");
/// V1's config with `"capacity_gops":1e999`.
const INF_CONFIG: &str = include_str!("../fixtures/hostile_system_config_inf.json");
/// V1 with `"mcs":200` in its config.
const BAD_MCS: &str = include_str!("../fixtures/hostile_controller_snapshot_mcs.json");

fn restore(text: &str) -> Result<Controller, SnapshotError> {
    let snapshot: Snapshot = serde_json::from_str(text).expect("the fixture parses");
    Controller::try_restore(snapshot)
}

#[test]
fn v1_fixture_restores_and_places_as_its_author_did() {
    let mut ctl = restore(V1).expect("a parent-format snapshot restores");
    let at_capture = [
        Some(0),
        Some(1),
        Some(0),
        Some(0),
        Some(2),
        Some(2),
        None,
        None,
        None,
        None,
    ];
    assert_eq!(ctl.placement().assignment, at_capture);
    assert_eq!(
        serde_json::to_string(&ctl.snapshot()).unwrap(),
        v1_snapshot_written_back(),
        "restore → snapshot must reproduce the wire form byte for byte"
    );

    // The day its author ran next: new loads everywhere but on the
    // deregistered cell 6, then one epoch. Server 3 is dead and 5
    // drained; cell 7 reaches no site and cells 8, 9 have no front-end.
    for cell in (0..10).filter(|&c| c != 6) {
        ctl.report_load(cell, 0.9 - 0.06 * cell as f64).unwrap();
    }
    let report = ctl.run_epoch(Duration::from_secs(180));
    assert_eq!(
        ctl.placement().assignment,
        [
            Some(0),
            Some(1),
            Some(0),
            Some(4),
            Some(2),
            Some(2),
            None,
            None,
            None,
            None
        ]
    );
    assert_eq!(
        report,
        EpochReport {
            epoch: 3,
            migrations: 1,
            servers_used: 4,
            unplaced: 3,
            dirty: 8,
            actions_applied: 0,
            actions_rejected: 0,
        }
    );
    assert_eq!(
        ctl.stats(),
        ControllerStats {
            epochs: 3,
            migrations: 11,
            actions_applied: 0,
            actions_rejected: 0,
            failovers: 1,
        }
    );
    let predicted: Vec<u64> = (0..10).map(|c| ctl.predicted_gops(c).to_bits()).collect();
    assert_eq!(
        predicted,
        [
            4641695071629782710,
            4641293709873976529,
            4635986472729449300,
            4640490986362364171,
            4640089624606557992,
            4639688301863183584,
            0,
            4640290324990676968,
            4640758560866234957,
            4641226835754224720
        ]
    );
}

#[test]
fn ragged_reachability_row_is_rejected_not_indexed() {
    // Cell 4's row has three entries for eight servers. Restoring it used
    // to succeed and the first epoch then indexed past the row's end.
    assert_eq!(
        restore(RAGGED).err(),
        Some(SnapshotError::TopologyRowMismatch {
            cell: 4,
            row: 3,
            servers: 8
        })
    );
}

#[test]
fn short_server_specs_are_rejected() {
    let short = V1.replacen("\"specs\":[[400.0,3.0],", "\"specs\":[", 1);
    assert_ne!(short, V1, "the fixture's specs moved; fix the needle");
    assert_eq!(
        restore(&short).err(),
        Some(SnapshotError::TopologySpecsMismatch {
            specs: 7,
            servers: 8
        })
    );
}

#[test]
fn mistyped_reachability_entry_is_a_parse_error() {
    let mistyped = V1.replacen("\"allowed\":[[true,", "\"allowed\":[[7,", 1);
    assert_ne!(mistyped, V1, "the fixture's topology moved; fix the needle");
    let err = serde_json::from_str::<Snapshot>(&mistyped).unwrap_err();
    assert!(err.to_string().contains("allowed"), "{err}");
}

#[test]
fn v1_fixture_parsed_and_written_back_is_the_committed_bytes() {
    // Through the tree alone: no type of the controller's in between, so
    // key order, `400.0` keeping its `.0` and every integer are the
    // parser's and the writer's own doing.
    let tree: serde_json::Value = serde_json::from_str(V1).expect("the fixture parses");
    assert_eq!(serde_json::to_string(&tree).unwrap(), V1);
    let pretty = serde_json::to_string_pretty(&tree).unwrap();
    assert_eq!(
        serde_json::from_str::<serde_json::Value>(&pretty).unwrap(),
        tree
    );
}

#[test]
fn infinite_capacity_is_refused_by_config_and_restore() {
    // `1e999` used to parse to +inf: a pool every cell fits on.
    let err = serde_json::from_str::<SystemConfig>(INF_CONFIG).unwrap_err();
    assert!(err.to_string().contains("number out of range"), "{err}");

    let cells = V1.find(",\"cells\":").expect("the fixture has cells");
    let snapshot = format!("{{\"config\":{}{}", INF_CONFIG.trim_end(), &V1[cells..]);
    let finite = snapshot.replacen("1e999", "400.0", 1);
    assert_eq!(finite, V1, "the hostile config is V1's but for one number");
    let err = serde_json::from_str::<Snapshot>(&snapshot).unwrap_err();
    assert!(err.to_string().contains("number out of range"), "{err}");
}

#[test]
fn mcs_past_the_table_is_refused_not_indexed() {
    // `Mcs` was a bare `u8` on the wire: 200 parsed, and restoring then
    // indexed the 29-entry code-rate table with it.
    assert_eq!(BAD_MCS.replacen("\"mcs\":200", "\"mcs\":20", 1), V1);
    let err = serde_json::from_str::<Snapshot>(BAD_MCS).unwrap_err();
    assert_eq!(
        err.to_string(),
        "at config.mcs: MCS index 200 out of range 0..=28"
    );
    let config = &BAD_MCS["{\"config\":".len()..BAD_MCS.find(",\"cells\":").unwrap()];
    let err = serde_json::from_str::<SystemConfig>(config).unwrap_err();
    assert_eq!(err.to_string(), "at mcs: MCS index 200 out of range 0..=28");
    let ok = config.replacen("\"mcs\":200", "\"mcs\":28", 1);
    assert!(serde_json::from_str::<SystemConfig>(&ok).is_ok());
}

#[test]
fn a_clock_past_the_end_of_time_is_a_parse_error() {
    // `Duration::new` panics when the nanoseconds' carry overflows the
    // seconds; the text is untrusted.
    let now = "\"now\":{\"secs\":120,\"nanos\":0}";
    let late = V1.replacen(
        now,
        "\"now\":{\"secs\":18446744073709551615,\"nanos\":1000000000}",
        1,
    );
    assert_ne!(late, V1, "the fixture's clock moved; fix the needle");
    let err = serde_json::from_str::<Snapshot>(&late).unwrap_err();
    assert_eq!(err.to_string(), "at now: Duration out of range");
    // A carry that fits is a second, as it always was.
    let carried = V1.replacen(now, "\"now\":{\"secs\":119,\"nanos\":1000000000}", 1);
    assert_eq!(
        serde_json::to_string(&serde_json::from_str::<Snapshot>(&carried).unwrap()).unwrap(),
        v1_snapshot_written_back()
    );
}

#[test]
fn an_unknown_field_a_million_brackets_deep_is_an_error_not_a_stack_overflow() {
    // No tree is built for a field the snapshot does not have, but its
    // nesting is counted all the same.
    let hostile = format!("{{\"junk\":{},{}", "[".repeat(1_000_000), &V1[1..]);
    let err = serde_json::from_str::<Snapshot>(&hostile).unwrap_err();
    assert_eq!(err.to_string(), "recursion limit exceeded at byte 135");
    let ignored = format!("{{\"junk\":[[{{\"deep\":[1e3,\"]\"]}}]],{}", &V1[1..]);
    assert_eq!(
        serde_json::to_string(&serde_json::from_str::<Snapshot>(&ignored).unwrap()).unwrap(),
        v1_snapshot_written_back()
    );
}
