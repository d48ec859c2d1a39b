//! The two decoders that read documents back from files — the
//! flight-recorder dump and the bench envelope — read through the types
//! their emitters write: a hostile document is refused at the field that
//! is wrong, and every committed document reads back and re-renders to
//! its bytes.

// The envelope module has no dependency but serde; this crate builds it
// the way `bench` does rather than depending on the harness.
#[path = "../../crates/bench/src/envelope.rs"]
mod envelope;

use envelope::{Envelope, REPORT_SCHEMA};
use pran_obs::{RecorderDump, RECORDER_SCHEMA};
use serde::Deserialize;

const HOSTILE_DUMP: &str = include_str!("../fixtures/hostile_recorder_dump.json");
const HOSTILE_ENVELOPE: &str = include_str!("../fixtures/hostile_bench_envelope.json");

/// `results/e16_soak_recorder_e3.json` with record 1's `miss_ratio` a
/// string and record 3's `epoch` the string `"3"`: each is refused at its
/// own path, in document order.
#[test]
fn hostile_recorder_dump_is_refused_at_each_mistyped_field() {
    let err = serde_json::from_str::<RecorderDump>(HOSTILE_DUMP).unwrap_err();
    assert_eq!(
        err.to_string(),
        "at records.[1].miss_ratio: expected number, got string"
    );
    let repaired = HOSTILE_DUMP.replacen(r#""miss_ratio": "0.0""#, r#""miss_ratio": 0.0"#, 1);
    let err = serde_json::from_str::<RecorderDump>(&repaired).unwrap_err();
    assert_eq!(
        err.to_string(),
        "at records.[3].epoch: expected unsigned integer, got string"
    );
}

/// A `pran-bench/1` envelope whose `meta` is a string.
#[test]
fn hostile_bench_envelope_is_refused_at_meta() {
    let err = serde_json::from_str::<Envelope>(HOSTILE_ENVELOPE).unwrap_err();
    assert_eq!(err.to_string(), "at meta: expected object, got string");
}

#[derive(Deserialize)]
struct Tagged {
    schema: String,
}

/// Read `text` as `T`, hold it to `check`, and write it back.
fn round_trip<T: Deserialize + serde::Serialize>(
    text: &str,
    check: impl Fn(&T) -> Result<(), String>,
) -> String {
    let doc: T = serde_json::from_str(text).expect("reads through its type");
    check(&doc).expect("passes its check");
    serde_json::to_string_pretty(&doc).unwrap()
}

#[test]
fn committed_documents_read_back_to_their_bytes() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../results");
    let mut read = 0;
    for entry in std::fs::read_dir(dir).expect("results/ is committed") {
        let path = entry.expect("directory entry").path();
        if path.extension().is_none_or(|e| e != "json") {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("results file reads");
        let Tagged { schema } = serde_json::from_str(&text).expect("tagged");
        let written = match schema.as_str() {
            REPORT_SCHEMA => round_trip(&text, Envelope::check),
            RECORDER_SCHEMA => round_trip(&text, RecorderDump::check),
            other => panic!("{}: schema tag {other:?}", path.display()),
        };
        assert!(written == text, "{} does not re-render", path.display());
        read += 1;
    }
    assert!(read >= 21, "only {read} documents read");
}
