//! The JSONL trace format, both ways, plus the per-subframe latency
//! breakdown and human-readable summary tables.
//!
//! **Writing.** The export is canonical: events are serialized with a
//! fixed key order and sorted by `(timestamp, serialized text)`, so the
//! byte output is independent of which thread drained which buffer
//! first. Two deterministic simulated runs therefore produce
//! byte-identical files.
//!
//! **Reading.** One line parser turns exported text back into
//! [`OwnedEvent`]s; [`parse_jsonl`], [`validate_jsonl`] and
//! [`breakdown_from_jsonl`] are that parser plus, respectively, nothing,
//! the per-event-name rules, and [`Subframe::decode`]. Owned and raw
//! events answer the same [`EventView`] questions, so analyses run
//! unchanged on either side of the round trip.

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Duration;

use serde_json::{Map, Number, Value};

use crate::metrics::{InstrumentValue, LogHistogram, RegistrySnapshot};
use crate::subframe::Subframe;
use crate::trace::{Domain, EventView, FieldValue, TraceEvent};

/// Serialize one event as a JSON object with fixed key order
/// (`ts_us`, `domain`, `name`, `fields`).
pub fn event_to_value(event: &TraceEvent) -> Value {
    let mut fields = Map::new();
    for (k, v) in event.fields() {
        let value = match v {
            FieldValue::U64(x) => Value::Number(Number::U64(*x)),
            FieldValue::I64(x) => Value::Number(Number::I64(*x)),
            FieldValue::F64(x) => Value::Number(Number::F64(*x)),
            FieldValue::Bool(x) => Value::Bool(*x),
            FieldValue::Str(x) => Value::String((*x).to_string()),
        };
        fields.insert((*k).to_string(), value);
    }
    let mut obj = Map::new();
    obj.insert("ts_us".to_string(), Value::Number(Number::U64(event.ts_us)));
    obj.insert(
        "domain".to_string(),
        Value::String(event.domain.label().to_string()),
    );
    obj.insert("name".to_string(), Value::String(event.name.to_string()));
    obj.insert("fields".to_string(), Value::Object(fields));
    Value::Object(obj)
}

/// Render events as canonical JSON-lines text (sorted, trailing newline;
/// empty string for no events).
pub fn to_jsonl(events: &[TraceEvent]) -> String {
    let mut lines: Vec<(u64, String)> = events
        .iter()
        .map(|e| (e.ts_us, event_to_value(e).to_json_string()))
        .collect();
    lines.sort();
    let mut out = String::new();
    for (_, line) in &lines {
        out.push_str(line);
        out.push('\n');
    }
    out
}

/// Write events as canonical JSONL to `path`; returns the event count.
pub fn write_jsonl(path: impl AsRef<Path>, events: &[TraceEvent]) -> io::Result<usize> {
    std::fs::write(path, to_jsonl(events))?;
    Ok(events.len())
}

// ---------------------------------------------------------------------
// Reading JSONL back
// ---------------------------------------------------------------------

/// An owned scalar field value — the parsed form of [`FieldValue`].
///
/// Values are kept in JSON-normal form: a non-negative signed integer
/// becomes [`Scalar::U64`], matching what a JSONL round-trip produces.
#[derive(Debug, Clone, PartialEq)]
pub enum Scalar {
    /// Unsigned integer.
    U64(u64),
    /// Negative signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// Boolean flag.
    Bool(bool),
    /// String label.
    Str(String),
}

impl From<FieldValue> for Scalar {
    fn from(v: FieldValue) -> Self {
        match v {
            FieldValue::U64(x) => Scalar::U64(x),
            // JSON has one integer syntax; a non-negative i64 serializes
            // to the same digits as a u64 and parses back as one.
            FieldValue::I64(x) if x >= 0 => Scalar::U64(x as u64),
            FieldValue::I64(x) => Scalar::I64(x),
            FieldValue::F64(x) => Scalar::F64(x),
            FieldValue::Bool(x) => Scalar::Bool(x),
            FieldValue::Str(x) => Scalar::Str(x.to_string()),
        }
    }
}

/// An owned trace event: what a [`TraceEvent`] carries, detached from
/// `&'static str` lifetimes so it can be parsed back out of an exported
/// JSONL artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct OwnedEvent {
    /// Event timestamp in its domain's microseconds.
    pub ts_us: u64,
    /// Clock domain that stamped the event.
    pub domain: Domain,
    /// Event name.
    pub name: String,
    /// Field key/value pairs, first-occurrence order, duplicate keys
    /// collapsed last-value-wins (mirroring the JSON object the exporter
    /// writes).
    pub fields: Vec<(String, Scalar)>,
}

impl OwnedEvent {
    /// Convert a live [`TraceEvent`], normalizing fields the same way a
    /// JSONL round-trip would.
    pub fn from_trace(event: &TraceEvent) -> Self {
        let mut fields: Vec<(String, Scalar)> = Vec::with_capacity(event.fields().len());
        for (k, v) in event.fields() {
            let scalar = Scalar::from(*v);
            match fields.iter_mut().find(|(key, _)| key == k) {
                Some((_, slot)) => *slot = scalar,
                None => fields.push(((*k).to_string(), scalar)),
            }
        }
        OwnedEvent {
            ts_us: event.ts_us,
            domain: event.domain,
            name: event.name.to_string(),
            fields,
        }
    }

    /// Look up a field by key.
    pub fn field(&self, key: &str) -> Option<&Scalar> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Field as `f64` (accepts any numeric value).
    pub fn field_f64(&self, key: &str) -> Option<f64> {
        match self.field(key)? {
            Scalar::U64(x) => Some(*x as f64),
            Scalar::I64(x) => Some(*x as f64),
            Scalar::F64(x) => Some(*x),
            _ => None,
        }
    }

    /// Field as string.
    pub fn field_str(&self, key: &str) -> Option<&str> {
        match self.field(key)? {
            Scalar::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }
}

impl EventView for OwnedEvent {
    fn name(&self) -> &str {
        &self.name
    }
    fn ts_us(&self) -> u64 {
        self.ts_us
    }
    fn field_u64(&self, key: &str) -> Option<u64> {
        match self.field(key)? {
            Scalar::U64(x) => Some(*x),
            Scalar::I64(x) => u64::try_from(*x).ok(),
            _ => None,
        }
    }
    fn field_bool(&self, key: &str) -> Option<bool> {
        match self.field(key)? {
            Scalar::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Convert a drained event buffer into owned events.
pub fn events_from_trace(events: &[TraceEvent]) -> Vec<OwnedEvent> {
    events.iter().map(OwnedEvent::from_trace).collect()
}

/// Parse one JSONL line against the event schema — the only place
/// exported text is turned back into JSON.
fn parse_line(line: &str) -> Result<OwnedEvent, String> {
    let value: Value = serde_json::from_str(line).map_err(|e| format!("not valid JSON: {e:?}"))?;
    let obj = value.as_object().ok_or("not a JSON object")?;
    let ts_us = obj
        .get("ts_us")
        .and_then(Value::as_u64)
        .ok_or("missing unsigned `ts_us`")?;
    let domain = match obj.get("domain").and_then(Value::as_str) {
        Some("sim") => Domain::Sim,
        Some("mono") => Domain::Mono,
        Some(other) => return Err(format!("bad domain {other:?}")),
        None => return Err("missing string `domain`".to_string()),
    };
    let name = obj
        .get("name")
        .and_then(Value::as_str)
        .ok_or("missing string `name`")?;
    if name.is_empty() {
        return Err("empty event name".to_string());
    }
    let field_map = obj
        .get("fields")
        .and_then(Value::as_object)
        .ok_or("missing object `fields`")?;
    let mut fields = Vec::with_capacity(field_map.len());
    for (key, field) in field_map.iter() {
        let scalar = match field {
            Value::Number(Number::U64(u)) => Scalar::U64(*u),
            // Mirror `Scalar::from(FieldValue)`: JSON-normal integers.
            Value::Number(Number::I64(i)) => u64::try_from(*i).map_or(Scalar::I64(*i), Scalar::U64),
            Value::Number(Number::F64(f)) => Scalar::F64(*f),
            Value::Bool(b) => Scalar::Bool(*b),
            Value::String(s) => Scalar::Str(s.clone()),
            _ => return Err(format!("field {key:?} is not scalar")),
        };
        fields.push((key.clone(), scalar));
    }
    Ok(OwnedEvent {
        ts_us,
        domain,
        name: name.to_string(),
        fields,
    })
}

/// Parse every non-blank line of `text` and hand the event to `rule`;
/// the first error, from either, comes back naming its 1-based line.
fn for_each_event(
    text: &str,
    mut rule: impl FnMut(OwnedEvent) -> Result<(), String>,
) -> Result<(), String> {
    for (idx, line) in text.lines().enumerate() {
        if !line.trim().is_empty() {
            parse_line(line)
                .and_then(&mut rule)
                .map_err(|e| format!("line {}: {e}", idx + 1))?;
        }
    }
    Ok(())
}

/// Parse canonical JSONL text (as written by [`write_jsonl`]) back into
/// owned events. Checks the line schema only; what a given event name
/// must carry is [`validate_jsonl`]'s business.
pub fn parse_jsonl(text: &str) -> Result<Vec<OwnedEvent>, String> {
    let mut events = Vec::new();
    for_each_event(text, |event| {
        events.push(event);
        Ok(())
    })?;
    Ok(events)
}

/// The per-event-name rules on top of the line schema.
fn check_event(event: &OwnedEvent) -> Result<(), String> {
    if let Some(subframe) = Subframe::decode(event) {
        subframe.map_err(|e| e.to_string())?;
    }
    if event.name == "chaos.violation" {
        const KINDS: [&str; 5] = [
            "placement_valid",
            "capacity_bound",
            "outage_exceeded",
            "miss_ratio_exceeded",
            "restore_fidelity",
        ];
        let kind = event
            .field_str("kind")
            .ok_or("chaos.violation missing string `kind`")?;
        if !KINDS.contains(&kind) {
            return Err(format!("chaos.violation has unknown kind {kind:?}"));
        }
    }
    if event.name == "insight.alert" {
        if event.field_str("metric").is_none() {
            return Err("insight.alert missing string `metric`".to_string());
        }
        for required in ["value", "threshold"] {
            if event.field_f64(required).is_none() {
                return Err(format!("insight.alert missing numeric {required:?}"));
            }
        }
    }
    if event.name == "insight.burn_alert" {
        let severity = event
            .field_str("severity")
            .ok_or("insight.burn_alert missing string `severity`")?;
        if !["ticket", "page"].contains(&severity) {
            return Err(format!(
                "insight.burn_alert has unknown severity {severity:?}"
            ));
        }
        for required in ["epoch", "burn_fast", "burn_slow", "factor"] {
            if event.field_f64(required).is_none() {
                return Err(format!("insight.burn_alert missing numeric {required:?}"));
            }
        }
    }
    Ok(())
}

/// Validate JSONL text against the exporter schema; returns the event
/// count, or a message naming the first offending line.
///
/// Schema: every line is an object with unsigned `ts_us`, `domain` of
/// `"sim"`/`"mono"`, non-empty string `name` and an object `fields` of
/// scalar values; `subframe` events additionally decode as a
/// [`Subframe`] (numeric `cell`, `release_us`, `start_us`, `finish_us`
/// and `deadline_us`, finishing no earlier than their release);
/// `chaos.violation` events carry a string `kind` naming one of the five
/// chaos invariants; `insight.alert` events carry a string `metric` plus
/// numeric `value` and `threshold`; `insight.burn_alert` events carry a
/// `severity` of `"ticket"` or `"page"` plus numeric `epoch`, `burn_fast`,
/// `burn_slow` and `factor`.
pub fn validate_jsonl(text: &str) -> Result<usize, String> {
    let mut count = 0usize;
    for_each_event(text, |event| {
        count += 1;
        check_event(&event)
    })?;
    Ok(count)
}

/// Per-subframe latency decomposition reconstructed from `subframe`
/// trace events: where each task's HARQ budget went.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencyBreakdown {
    /// Subframe tasks seen.
    pub tasks: u64,
    /// Tasks finishing past their deadline.
    pub misses: u64,
    /// Queue wait: task start − release.
    pub queue: LogHistogram,
    /// Kernel compute: task finish − start.
    pub service: LogHistogram,
    /// Deadline slack of on-time tasks: deadline − finish.
    pub slack: LogHistogram,
}

impl LatencyBreakdown {
    fn accumulate(&mut self, task: &Subframe) {
        self.tasks += 1;
        self.queue
            .record_us(task.start_us.saturating_sub(task.release_us));
        self.service
            .record_us(task.finish_us.saturating_sub(task.start_us));
        if task.missed() {
            self.misses += 1;
        } else {
            self.slack.record_us(task.deadline_us - task.finish_us);
        }
    }
}

/// Build the latency breakdown from in-memory `subframe` events
/// (records that do not decode are skipped).
pub fn subframe_breakdown(events: &[TraceEvent]) -> LatencyBreakdown {
    let mut breakdown = LatencyBreakdown::default();
    for task in events.iter().filter_map(|e| Subframe::decode(e)?.ok()) {
        breakdown.accumulate(&task);
    }
    breakdown
}

/// Build the latency breakdown back from exported JSONL text; a
/// `subframe` line that does not decode is an error.
pub fn breakdown_from_jsonl(text: &str) -> Result<LatencyBreakdown, String> {
    let mut breakdown = LatencyBreakdown::default();
    for_each_event(text, |event| {
        if let Some(task) = Subframe::decode(&event) {
            breakdown.accumulate(&task.map_err(|e| e.to_string())?);
        }
        Ok(())
    })?;
    Ok(breakdown)
}

fn fmt_us(d: Duration) -> String {
    let us = d.as_micros();
    if us >= 1_000_000 {
        format!("{:.2}s", d.as_secs_f64())
    } else if us >= 1_000 {
        format!("{:.2}ms", us as f64 / 1000.0)
    } else {
        format!("{us}µs")
    }
}

fn histogram_row(out: &mut String, label: &str, h: &LogHistogram) {
    // `try_quantile` so an empty histogram renders "-", not a perfect 0.
    let q = |q: f64| match h.try_quantile(q) {
        Some(d) => fmt_us(d),
        None => "-".to_string(),
    };
    let _ = writeln!(
        out,
        "{label:<18} {:>8} {:>9} {:>9} {:>9} {:>9} {:>9}",
        h.count(),
        fmt_us(h.mean()),
        q(0.50),
        q(0.95),
        q(0.99),
        fmt_us(h.max()),
    );
}

fn histogram_header(out: &mut String) {
    let _ = writeln!(
        out,
        "{:<18} {:>8} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "", "count", "mean", "p50", "p95", "p99", "max"
    );
}

/// Render a registry snapshot as a human-readable table; histograms get
/// count/mean/p50/p95/p99/max columns.
pub fn summary_table(snapshot: &RegistrySnapshot) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== telemetry summary ==");
    if snapshot.instruments.is_empty() {
        let _ = writeln!(out, "(no instruments)");
        return out;
    }
    let mut wrote_histogram_header = false;
    for inst in &snapshot.instruments {
        let mut name = inst.name.clone();
        if !inst.labels.is_empty() {
            let labels: Vec<String> = inst
                .labels
                .iter()
                .map(|l| format!("{}={}", l.key, l.value))
                .collect();
            let _ = write!(name, "{{{}}}", labels.join(","));
        }
        match &inst.value {
            InstrumentValue::Counter(c) => {
                let _ = writeln!(out, "{name:<40} counter {c}");
            }
            InstrumentValue::Gauge(g) => {
                let _ = writeln!(out, "{name:<40} gauge   {g}");
            }
            InstrumentValue::Histogram(h) => {
                if !wrote_histogram_header {
                    histogram_header(&mut out);
                    wrote_histogram_header = true;
                }
                histogram_row(&mut out, &name, h);
            }
        }
    }
    out
}

/// Render the latency breakdown as a human-readable table.
pub fn breakdown_table(breakdown: &LatencyBreakdown) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== subframe latency breakdown ({} tasks, {} deadline misses) ==",
        breakdown.tasks, breakdown.misses
    );
    histogram_header(&mut out);
    histogram_row(&mut out, "queue wait", &breakdown.queue);
    histogram_row(&mut out, "kernel compute", &breakdown.service);
    histogram_row(&mut out, "deadline slack", &breakdown.slack);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    fn subframe(cell: u64, release: u64, start: u64, finish: u64, dl: u64) -> TraceEvent {
        Subframe {
            cell,
            release_us: release,
            start_us: start,
            finish_us: finish,
            deadline_us: dl,
            core: None,
            stolen: false,
        }
        .to_event(None)
    }

    #[test]
    fn scalar_normalizes_nonnegative_i64() {
        assert_eq!(Scalar::from(FieldValue::I64(5)), Scalar::U64(5));
        assert_eq!(Scalar::from(FieldValue::I64(-5)), Scalar::I64(-5));
        assert_eq!(Scalar::from(FieldValue::U64(7)), Scalar::U64(7));
    }

    #[test]
    fn parse_jsonl_roundtrips_events() {
        let events = vec![
            subframe(3, 10, 12, 40, 2010),
            TraceEvent::new(
                5,
                Domain::Mono,
                "ctrl.predict",
                &[
                    ("dur_us", 30u64.into()),
                    ("ok", true.into()),
                    ("slack", (-4i64).into()),
                    ("gain", 0.5f64.into()),
                    ("kind", "warm".into()),
                ],
            ),
        ];
        let parsed = parse_jsonl(&to_jsonl(&events)).unwrap();
        // to_jsonl sorts by (ts, text): the mono event at 5 comes first.
        let mut owned = events_from_trace(&events);
        owned.reverse();
        assert_eq!(parsed, owned);
        assert_eq!(parsed[0].field_bool("ok"), Some(true));
        assert_eq!(parsed[0].field_u64("slack"), None);
        assert_eq!(parsed[0].field_f64("slack"), Some(-4.0));
        assert!(parse_jsonl("not json\n").is_err());
    }

    #[test]
    fn jsonl_is_sorted_and_valid() {
        let events = vec![
            subframe(1, 400, 450, 500, 2400),
            subframe(0, 0, 20, 100, 2000),
            TraceEvent::new(100, Domain::Sim, "pool.epoch", &[("epoch", 1u64.into())]),
        ];
        let text = to_jsonl(&events);
        assert_eq!(validate_jsonl(&text).unwrap(), 3);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        // Sorted by timestamp first; ties broken by serialized text.
        assert!(lines[0].contains("\"ts_us\":100"));
        assert!(lines[2].contains("\"ts_us\":500"));
        // Shuffled input yields byte-identical output.
        let shuffled = vec![events[2], events[0], events[1]];
        assert_eq!(to_jsonl(&shuffled), text);
    }

    #[test]
    fn validation_rejects_bad_lines() {
        assert!(validate_jsonl("not json\n").is_err());
        assert!(validate_jsonl("{\"ts_us\":1}\n").is_err());
        let missing_field =
            "{\"ts_us\":1,\"domain\":\"sim\",\"name\":\"subframe\",\"fields\":{}}\n";
        let err = validate_jsonl(missing_field).unwrap_err();
        assert!(err.contains("cell"), "{err}");
        let bad_domain = "{\"ts_us\":1,\"domain\":\"cpu\",\"name\":\"x\",\"fields\":{}}\n";
        assert!(validate_jsonl(bad_domain).is_err());
        assert_eq!(validate_jsonl("").unwrap(), 0);
    }

    #[test]
    fn validation_knows_chaos_violations() {
        let good = "{\"ts_us\":5,\"domain\":\"sim\",\"name\":\"chaos.violation\",\
                    \"fields\":{\"kind\":\"outage_exceeded\"}}\n";
        assert_eq!(validate_jsonl(good).unwrap(), 1);
        let missing_kind =
            "{\"ts_us\":5,\"domain\":\"sim\",\"name\":\"chaos.violation\",\"fields\":{}}\n";
        let err = validate_jsonl(missing_kind).unwrap_err();
        assert!(err.contains("kind"), "{err}");
        let unknown_kind = "{\"ts_us\":5,\"domain\":\"sim\",\"name\":\"chaos.violation\",\
                            \"fields\":{\"kind\":\"pool_on_fire\"}}\n";
        let err = validate_jsonl(unknown_kind).unwrap_err();
        assert!(err.contains("unknown kind"), "{err}");
    }

    #[test]
    fn validation_knows_insight_alerts() {
        let good = "{\"ts_us\":9,\"domain\":\"sim\",\"name\":\"insight.alert\",\
                    \"fields\":{\"metric\":\"miss_ratio\",\"epoch\":3,\
                    \"value\":0.04,\"threshold\":0.01}}\n";
        assert_eq!(validate_jsonl(good).unwrap(), 1);
        let missing_metric = "{\"ts_us\":9,\"domain\":\"sim\",\"name\":\"insight.alert\",\
                              \"fields\":{\"value\":1.0,\"threshold\":0.5}}\n";
        let err = validate_jsonl(missing_metric).unwrap_err();
        assert!(err.contains("metric"), "{err}");
        let missing_threshold = "{\"ts_us\":9,\"domain\":\"sim\",\"name\":\"insight.alert\",\
                                 \"fields\":{\"metric\":\"miss_ratio\",\"value\":1.0}}\n";
        let err = validate_jsonl(missing_threshold).unwrap_err();
        assert!(err.contains("threshold"), "{err}");
    }

    #[test]
    fn breakdown_reconstructs_from_jsonl() {
        let events = vec![
            // queue 50, service 150, slack 1800
            subframe(0, 0, 50, 200, 2000),
            // queue 100, service 400, miss (finish 2500 > deadline 2400)
            subframe(1, 2000, 2100, 2500, 2400),
        ];
        let direct = subframe_breakdown(&events);
        let text = to_jsonl(&events);
        let from_text = breakdown_from_jsonl(&text).unwrap();
        assert_eq!(direct, from_text);
        assert_eq!(direct.tasks, 2);
        assert_eq!(direct.misses, 1);
        assert_eq!(direct.queue.count(), 2);
        assert_eq!(direct.service.count(), 2);
        assert_eq!(direct.slack.count(), 1);
        assert_eq!(direct.slack.quantile(0.5), Duration::from_micros(1800));
        let table = breakdown_table(&direct);
        assert!(table.contains("2 tasks"));
        assert!(table.contains("queue wait"));
    }

    #[test]
    fn summary_table_renders_all_kinds() {
        let r = Registry::new();
        r.inc("ilp.nodes", &[("policy", "bnb")], 42);
        r.gauge("pool.util", &[], 0.5);
        r.observe("place.time", &[], Duration::from_micros(1234));
        let table = summary_table(&r.snapshot());
        assert!(table.contains("ilp.nodes{policy=bnb}"));
        assert!(table.contains("counter 42"));
        assert!(table.contains("p99"));
        assert!(summary_table(&RegistrySnapshot {
            instruments: vec![]
        })
        .contains("no instruments"));
    }
}
