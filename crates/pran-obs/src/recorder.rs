//! Flight recorder: a fixed-capacity ring of per-epoch records.
//!
//! A resident soak runs for hours; nobody wants (or can afford) a full
//! log of every epoch. The flight recorder keeps the **last K** epoch
//! records in a preallocated ring — pushes are allocation-free in steady
//! state (overwrite-on-wrap, pinned by `tests/zero_alloc.rs`) — and dumps
//! them as a JSON document when something goes wrong (an SLO alert or a
//! chaos-invariant violation), so the operator gets the immediate history
//! leading up to the incident without paying for continuous logging.
//!
//! The dump schema is `pran-recorder/1`:
//!
//! ```json
//! {
//!   "schema": "pran-recorder/1",
//!   "reason": "slo-alert",
//!   "epoch": 1234,
//!   "capacity": 256,
//!   "records": [ { "epoch": 979, ... }, ..., { "epoch": 1234, ... } ]
//! }
//! ```
//!
//! `records` is ordered oldest → newest and holds at most `capacity`
//! entries. [`validate_dump`] checks the shape (used by the
//! `telemetry_check` CI binary on committed dump artifacts).

use serde::Serialize;

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

impl<T: Copy + Serialize> FlightRecorder<T> {
    /// Serialize the ring as a `pran-recorder/1` dump document.
    ///
    /// `reason` says why the dump was cut (e.g. `"slo-alert"`,
    /// `"violation"`, `"scrape"`); `epoch` is the epoch at which it was
    /// cut. Records appear oldest → newest.
    pub fn dump(&self, reason: &str, epoch: u64) -> serde::Value {
        let mut doc = serde::Map::new();
        doc.insert(
            "schema".to_string(),
            serde::Value::String("pran-recorder/1".to_string()),
        );
        doc.insert(
            "reason".to_string(),
            serde::Value::String(reason.to_string()),
        );
        doc.insert("epoch".to_string(), epoch.to_json_value());
        doc.insert("capacity".to_string(), self.cap.to_json_value());
        doc.insert("records".to_string(), self.snapshot().to_json_value());
        serde::Value::Object(doc)
    }

    /// [`FlightRecorder::dump`] rendered as pretty JSON.
    pub fn dump_json(&self, reason: &str, epoch: u64) -> String {
        self.dump(reason, epoch).to_json_string_pretty()
    }
}

/// Validate a `pran-recorder/1` dump document: schema tag, required
/// fields, `records` an array of at most `capacity` objects whose `epoch`
/// fields (when present) strictly increase. Returns the record count.
pub fn validate_dump(v: &serde::Value) -> Result<usize, String> {
    let field = |name: &str| -> Result<&serde::Value, String> {
        match v.get(name) {
            None | Some(serde::Value::Null) => Err(format!("missing field `{name}`")),
            Some(val) => Ok(val),
        }
    };
    match field("schema")? {
        serde::Value::String(s) if s == "pran-recorder/1" => {}
        other => return Err(format!("bad schema tag: {other:?}")),
    }
    if !matches!(field("reason")?, serde::Value::String(_)) {
        return Err("`reason` must be a string".to_string());
    }
    let capacity = field("capacity")?
        .as_u64()
        .ok_or_else(|| "`capacity` must be a non-negative integer".to_string())?
        as usize;
    let records = match field("records")? {
        serde::Value::Array(a) => a,
        _ => return Err("`records` must be an array".to_string()),
    };
    if records.len() > capacity {
        return Err(format!(
            "{} records exceed capacity {capacity}",
            records.len()
        ));
    }
    let mut last_epoch: Option<f64> = None;
    for (i, r) in records.iter().enumerate() {
        let serde::Value::Object(_) = r else {
            return Err(format!("records[{i}] is not an object"));
        };
        if let Some(e) = r["epoch"].as_f64() {
            if let Some(prev) = last_epoch {
                if e <= prev {
                    return Err(format!(
                        "records[{i}].epoch {e} does not increase past {prev}"
                    ));
                }
            }
            last_epoch = Some(e);
        }
    }
    Ok(records.len())
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

    #[derive(Debug, Clone, Copy, Serialize)]
    struct Rec {
        epoch: u64,
    }

    #[test]
    fn dump_roundtrips_and_validates() {
        let mut r = FlightRecorder::new(3);
        for epoch in 0..5u64 {
            r.push(Rec { epoch });
        }
        let doc = r.dump("slo-alert", 4);
        assert_eq!(validate_dump(&doc), Ok(3));
        let text = r.dump_json("slo-alert", 4);
        let back: serde::Value = serde_json::from_str(&text).unwrap();
        assert_eq!(validate_dump(&back), Ok(3));
        assert_eq!(back["reason"].as_str(), Some("slo-alert"));
    }

    #[test]
    fn validate_rejects_malformed_dumps() {
        let mut r = FlightRecorder::new(2);
        r.push(Rec { epoch: 1 });
        let good = r.dump("x", 0);
        let mut bad = serde::Map::new();
        bad.insert("schema".into(), serde::Value::String("nope/9".into()));
        assert!(validate_dump(&serde::Value::Object(bad)).is_err());
        assert!(validate_dump(&serde::Value::Null).is_err());
        // Tamper: records beyond capacity.
        let serde::Value::Object(mut doc) = good else {
            panic!()
        };
        doc.insert("records".into(), vec![1u64, 2, 3].to_json_value());
        assert!(validate_dump(&serde::Value::Object(doc)).is_err());
    }
}
