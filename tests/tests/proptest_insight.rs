//! Property test for the JSONL wire format the insight pipeline reads:
//! exporting any span nest and reading it back through
//! `pran_telemetry::export::parse_jsonl` must be lossless, in both
//! clock domains.

use proptest::prelude::*;

use pran_telemetry::export::{self, events_from_trace, parse_jsonl, OwnedEvent};
use pran_telemetry::trace::{Domain, FieldValue, TraceEvent};

/// Fixed name pool — trace event names are `&'static str`.
const NAMES: [&str; 4] = ["phase.alpha", "phase.beta", "phase.gamma", "phase.delta"];

/// One synthetic span covering `[start, end]` in `domain`, carrying a
/// mixed-type field set so every `Scalar` variant round-trips. Sim spans
/// use the `start_us`/`finish_us` encoding, mono spans the
/// at-`start`-with-`dur_us` encoding — the two shapes the exporter
/// actually writes.
fn span_event(domain: Domain, name_idx: usize, start: u64, end: u64, gain: f64) -> TraceEvent {
    let name = NAMES[name_idx % NAMES.len()];
    match domain {
        Domain::Sim => TraceEvent::new(
            start,
            domain,
            name,
            &[
                ("start_us", FieldValue::U64(start)),
                ("finish_us", FieldValue::U64(end)),
                ("gain", FieldValue::F64(gain)),
                ("ok", FieldValue::Bool(end > start)),
                ("kind", FieldValue::Str("nested")),
                ("delta", FieldValue::I64(-(start as i64 % 7) - 1)),
            ],
        ),
        Domain::Mono => TraceEvent::new(
            start,
            domain,
            name,
            &[
                ("dur_us", FieldValue::U64(end - start)),
                ("gain", FieldValue::F64(gain)),
            ],
        ),
    }
}

/// Recursively fill `[start, end]` with a span and up to two strictly
/// nested children per level, deterministic in the shape parameters.
fn build_nest(
    out: &mut Vec<TraceEvent>,
    domain: Domain,
    start: u64,
    end: u64,
    depth: usize,
    shape: u64,
) {
    out.push(span_event(
        domain,
        (shape as usize).wrapping_add(depth),
        start,
        end,
        (end - start) as f64 / 3.0 + shape as f64 * 0.125,
    ));
    let width = end - start;
    if depth == 0 || width < 8 {
        return;
    }
    let children = 1 + shape % 2;
    // Children split the strict interior (start+1 .. end-1) evenly.
    let interior = width - 2;
    let slot = interior / children;
    for c in 0..children {
        let c_start = start + 1 + c * slot;
        let c_end = if c == children - 1 {
            end - 1
        } else {
            c_start + slot - 1
        };
        if c_end > c_start {
            build_nest(out, domain, c_start, c_end, depth - 1, shape / 2 + c);
        }
    }
}

/// Canonical order for multiset comparison: the exporter sorts lines by
/// `(ts_us, text)`, which is not the emission order, so losslessness is
/// a statement about the set of events, not their sequence.
fn canonical(mut events: Vec<OwnedEvent>) -> Vec<OwnedEvent> {
    events.sort_by(|a, b| (a.ts_us, format!("{a:?}")).cmp(&(b.ts_us, format!("{b:?}"))));
    events
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// JSONL export → parse is lossless for randomized span nests in
    /// both clock domains.
    #[test]
    fn jsonl_roundtrip_is_lossless_over_span_nests(
        roots in 1usize..4,
        depth in 0usize..4,
        width in 50u64..5000,
        shape in 0u64..1000,
        both_domains in any::<bool>(),
    ) {
        let mut events = Vec::new();
        for r in 0..roots {
            let start = r as u64 * (width + 10);
            build_nest(&mut events, Domain::Sim, start, start + width, depth, shape + r as u64);
            if both_domains {
                build_nest(&mut events, Domain::Mono, start, start + width, depth, shape + r as u64);
            }
        }

        // Lossless: the parsed artifact carries exactly the events the
        // tracer held, after both sides are put in canonical order.
        let jsonl = export::to_jsonl(&events);
        prop_assert_eq!(export::validate_jsonl(&jsonl).unwrap(), events.len());
        let parsed = parse_jsonl(&jsonl).unwrap();
        prop_assert_eq!(parsed.len(), events.len());
        let direct = canonical(events_from_trace(&events));
        let roundtripped = canonical(parsed);
        prop_assert_eq!(&roundtripped, &direct);
    }
}
