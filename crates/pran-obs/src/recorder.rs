//! Flight recorder: a fixed-capacity ring of per-epoch records, and
//! the [`RecorderDump`] it is cut into.
//!
//! A resident soak runs for hours; nobody wants (or can afford) a full
//! log of every epoch. The flight recorder keeps the **last K** epoch
//! records in a preallocated ring — pushes are allocation-free in steady
//! state (overwrite-on-wrap, pinned by `tests/zero_alloc.rs`) — and the
//! soak runner dumps them as a `pran-recorder/1` document when something
//! goes wrong (an SLO alert or a chaos-invariant violation), so the
//! operator gets the immediate history leading up to the incident
//! without paying for continuous logging.

use pran_sim::service::EpochRecord;
use serde::{Deserialize, Serialize};

/// Fixed-capacity ring buffer of [`Copy`] records.
///
/// Records are kept in insertion order; once `capacity` records are held,
/// each push overwrites the oldest. No allocation happens after
/// construction.
#[derive(Debug, Clone)]
pub struct FlightRecorder<T: Copy> {
    buf: Vec<T>,
    cap: usize,
    /// Index of the *oldest* record once the ring is full (also the next
    /// overwrite position).
    head: usize,
    total: u64,
}

impl<T: Copy> FlightRecorder<T> {
    /// A recorder holding the last `capacity` records (capacity must be
    /// nonzero).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "flight recorder capacity must be > 0");
        FlightRecorder {
            buf: Vec::with_capacity(capacity),
            cap: capacity,
            head: 0,
            total: 0,
        }
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Records currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the ring holds no records yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total records ever pushed (including overwritten ones).
    pub fn total_pushed(&self) -> u64 {
        self.total
    }

    /// Push a record, overwriting the oldest once the ring is full.
    /// Allocation-free: the backing store was sized at construction.
    #[inline]
    pub fn push(&mut self, record: T) {
        if self.buf.len() < self.cap {
            self.buf.push(record);
        } else {
            self.buf[self.head] = record;
            self.head += 1;
            if self.head == self.cap {
                self.head = 0;
            }
        }
        self.total += 1;
    }

    /// Copy the held records, oldest first, into `out` (cleared first;
    /// reuses its capacity).
    pub fn snapshot_into(&self, out: &mut Vec<T>) {
        out.clear();
        out.reserve(self.buf.len());
        if self.buf.len() < self.cap {
            out.extend_from_slice(&self.buf);
        } else {
            out.extend_from_slice(&self.buf[self.head..]);
            out.extend_from_slice(&self.buf[..self.head]);
        }
    }

    /// The held records, oldest first, as a fresh vector.
    pub fn snapshot(&self) -> Vec<T> {
        let mut out = Vec::new();
        self.snapshot_into(&mut out);
        out
    }
}

/// The `schema` tag of a [`RecorderDump`].
pub const RECORDER_SCHEMA: &str = "pran-recorder/1";

/// A flight-recorder dump, schema `pran-recorder/1`:
///
/// ```json
/// {
///   "schema": "pran-recorder/1",
///   "reason": "slo-alert",
///   "epoch": 1234,
///   "capacity": 256,
///   "records": [ { "epoch": 979, ... }, ..., { "epoch": 1234, ... } ]
/// }
/// ```
///
/// `records` is ordered oldest → newest and holds at most `capacity`
/// entries; [`RecorderDump::check`] holds a document read back to that.
/// The empty value (`Default`) is what `/recorder` serves before the
/// first epoch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecorderDump {
    /// [`RECORDER_SCHEMA`].
    pub schema: String,
    /// Why the dump was cut: `"slo-alert"`, `"violation"`, `"scrape"`,
    /// or `"empty"` before the first epoch.
    pub reason: String,
    /// The epoch it was cut at.
    pub epoch: u64,
    /// The ring's capacity.
    pub capacity: usize,
    /// The held records, oldest first.
    pub records: Vec<EpochRecord>,
}

impl RecorderDump {
    /// The records `ring` holds, cut at `epoch` for `reason`.
    pub fn new(ring: &FlightRecorder<EpochRecord>, reason: &str, epoch: u64) -> Self {
        RecorderDump {
            schema: RECORDER_SCHEMA.to_string(),
            reason: reason.to_string(),
            epoch,
            capacity: ring.capacity(),
            records: ring.snapshot(),
        }
    }

    /// What the fields' types cannot say: the schema tag, at most
    /// `capacity` records, and strictly increasing record epochs.
    pub fn check(&self) -> Result<(), String> {
        check_tag(&self.schema, RECORDER_SCHEMA)?;
        if self.records.len() > self.capacity {
            return Err(format!(
                "{} records exceed capacity {}",
                self.records.len(),
                self.capacity
            ));
        }
        for (i, pair) in self.records.windows(2).enumerate() {
            if pair[1].epoch <= pair[0].epoch {
                return Err(format!(
                    "records[{}].epoch {} does not increase past {}",
                    i + 1,
                    pair[1].epoch,
                    pair[0].epoch
                ));
            }
        }
        Ok(())
    }
}

impl Default for RecorderDump {
    fn default() -> Self {
        RecorderDump {
            schema: RECORDER_SCHEMA.to_string(),
            reason: "empty".to_string(),
            epoch: 0,
            capacity: 0,
            records: Vec::new(),
        }
    }
}

/// `Err` naming both tags unless a document's `schema` is `want`.
pub(crate) fn check_tag(schema: &str, want: &str) -> Result<(), String> {
    if schema == want {
        Ok(())
    } else {
        Err(format!("schema tag {schema:?}, expected {want:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fills_then_wraps_keeping_last_k() {
        let mut r = FlightRecorder::new(4);
        assert!(r.is_empty());
        for i in 0..3u64 {
            r.push(i);
        }
        assert_eq!(r.snapshot(), vec![0, 1, 2]);
        for i in 3..11u64 {
            r.push(i);
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.total_pushed(), 11);
        assert_eq!(r.snapshot(), vec![7, 8, 9, 10]);
    }

    #[test]
    fn push_never_reallocates() {
        let mut r = FlightRecorder::new(8);
        r.push(0u64);
        let base = r.buf.as_ptr();
        for i in 1..1000u64 {
            r.push(i);
        }
        assert_eq!(r.buf.as_ptr(), base);
        assert_eq!(r.buf.capacity(), 8);
    }

    #[test]
    fn snapshot_into_reuses_capacity() {
        let mut r = FlightRecorder::new(16);
        for i in 0..40u64 {
            r.push(i);
        }
        let mut out = Vec::with_capacity(16);
        let base = out.as_ptr();
        r.snapshot_into(&mut out);
        assert_eq!(out.as_ptr(), base);
        assert_eq!(out.first(), Some(&24));
        assert_eq!(out.last(), Some(&39));
    }

    fn ring(capacity: usize, epochs: std::ops::Range<u64>) -> FlightRecorder<EpochRecord> {
        let mut r = FlightRecorder::new(capacity);
        for epoch in epochs {
            r.push(crate::docs::tests::record(epoch));
        }
        r
    }

    #[test]
    fn dump_roundtrips_and_validates() {
        let dump = RecorderDump::new(&ring(3, 0..5), "slo-alert", 4);
        assert_eq!(dump.check(), Ok(()));
        assert_eq!(dump.records.len(), 3);
        let text = serde_json::to_string_pretty(&dump).unwrap();
        let back: RecorderDump = serde_json::from_str(&text).unwrap();
        assert_eq!(back, dump);
        assert_eq!(RecorderDump::default().check(), Ok(()));
    }

    #[test]
    fn validate_rejects_malformed_dumps() {
        let good = RecorderDump::new(&ring(2, 0..2), "x", 1);
        let tagged = RecorderDump {
            schema: "nope/9".into(),
            ..good.clone()
        };
        assert!(tagged.check().unwrap_err().contains("nope/9"));
        let over = RecorderDump {
            capacity: 1,
            ..good.clone()
        };
        assert!(over.check().unwrap_err().contains("exceed capacity"));
        let mut back = good;
        back.records[1].epoch = 0;
        assert!(back.check().unwrap_err().contains("records[1].epoch"));
        // Text the type does not describe is refused at its path.
        assert!(serde_json::from_str::<RecorderDump>("null").is_err());
        let err = serde_json::from_str::<RecorderDump>(
            r#"{"schema":"pran-recorder/1","reason":"x","epoch":0,"capacity":1,"records":[{}]}"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("records.[0].epoch"), "{err}");
    }
}
