//! The `subframe` record: the one event PRAN's real-time claim rests on.
//!
//! Every scheduler reports each executed subframe task as one `subframe`
//! trace event, and every analysis — the latency breakdown, the schema
//! validator, the post-hoc critical paths, the live attribution fold —
//! is built by reading it back. This module is the record's only
//! definition: [`Subframe::emit`] is the one place its field names are
//! written and [`Subframe::decode`] the one place they are read, on
//! either side of the JSONL wire (see [`EventView`]).

use std::fmt;

use crate::trace::{sim_event_buffered, Domain, EventView, FieldValue, TraceEvent};

/// One executed subframe task on the simulated timeline (all times in
/// sim-clock microseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Subframe {
    /// Cell the task belongs to (shard-local id).
    pub cell: u64,
    /// When its uplink report became available to the executor.
    pub release_us: u64,
    /// When a core started computing it.
    pub start_us: u64,
    /// When compute finished — also the event's timestamp.
    pub finish_us: u64,
    /// Its HARQ deadline.
    pub deadline_us: u64,
    /// Core that executed it (parallel executor only).
    pub core: Option<u64>,
    /// Whether another core work-stole it from its home queue.
    pub stolen: bool,
}

/// Why an event named `subframe` is not a valid [`Subframe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubframeError {
    /// A required field is absent or not an unsigned integer.
    MissingField(&'static str),
    /// `finish_us < release_us`. No scheduler can emit this — each
    /// computes `finish = max(clock, release) + service` in one time
    /// domain — and stage arithmetic downstream would run backwards.
    FinishBeforeRelease,
}

impl fmt::Display for SubframeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubframeError::MissingField(key) => {
                write!(f, "subframe event missing numeric {key:?}")
            }
            SubframeError::FinishBeforeRelease => {
                f.write_str("subframe event finishes before its release")
            }
        }
    }
}

impl std::error::Error for SubframeError {}

impl Subframe {
    /// The event name the record travels under.
    const NAME: &'static str = "subframe";

    /// Whether the task finished past its HARQ deadline.
    #[inline]
    pub fn missed(&self) -> bool {
        self.finish_us > self.deadline_us
    }

    /// The record's wire fields in wire order, and how many are in use.
    /// `policy` labels the dispatch policy of the global schedulers; the
    /// parallel executor instead sets [`Subframe::core`], which appends
    /// `core` + `stolen`.
    #[inline]
    fn fields(&self, policy: Option<&'static str>) -> ([(&'static str, FieldValue); 8], usize) {
        let mut fields = [
            ("cell", self.cell.into()),
            ("release_us", self.release_us.into()),
            ("start_us", self.start_us.into()),
            ("finish_us", self.finish_us.into()),
            ("deadline_us", self.deadline_us.into()),
            ("policy", policy.unwrap_or("").into()),
            ("", false.into()),
            ("", false.into()),
        ];
        let mut len = 5 + usize::from(policy.is_some());
        if let Some(core) = self.core {
            fields[len] = ("core", core.into());
            fields[len + 1] = ("stolen", self.stolen.into());
            len += 2;
        }
        (fields, len)
    }

    /// Record the task as a sim-clock event stamped at `finish_us`, on
    /// the buffered export path only (see
    /// [`sim_event_buffered`]).
    /// Allocation-free; callers keep it behind their hoisted
    /// [`enabled`](crate::enabled) guard.
    #[inline]
    pub fn emit(&self, policy: Option<&'static str>) {
        let (fields, len) = self.fields(policy);
        sim_event_buffered(Self::NAME, self.finish_us, &fields[..len]);
    }

    /// The event [`Subframe::emit`] records (before the tracer's shard
    /// stamp), for building traces without a tracer.
    pub fn to_event(&self, policy: Option<&'static str>) -> TraceEvent {
        let (fields, len) = self.fields(policy);
        TraceEvent::new(self.finish_us, Domain::Sim, Self::NAME, &fields[..len])
    }

    /// Read the record out of an event: `None` when the event is not a
    /// `subframe`, otherwise the record or what is wrong with it.
    /// Allocation-free.
    #[inline]
    pub fn decode<E: EventView + ?Sized>(event: &E) -> Option<Result<Subframe, SubframeError>> {
        (event.name() == Self::NAME).then(|| Self::decode_fields(event))
    }

    fn decode_fields<E: EventView + ?Sized>(event: &E) -> Result<Subframe, SubframeError> {
        let num = |key: &'static str| event.field_u64(key).ok_or(SubframeError::MissingField(key));
        let subframe = Subframe {
            cell: num("cell")?,
            release_us: num("release_us")?,
            start_us: num("start_us")?,
            finish_us: num("finish_us")?,
            deadline_us: num("deadline_us")?,
            core: event.field_u64("core"),
            stolen: event.field_bool("stolen").unwrap_or(false),
        };
        if subframe.finish_us < subframe.release_us {
            return Err(SubframeError::FinishBeforeRelease);
        }
        Ok(subframe)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{self, tests::lock_tracer};
    use crate::TelemetryConfig;

    const TASK: Subframe = Subframe {
        cell: 3,
        release_us: 100,
        start_us: 150,
        finish_us: 900,
        deadline_us: 2100,
        core: None,
        stolen: false,
    };
    const STOLEN: Subframe = Subframe {
        core: Some(2),
        stolen: true,
        ..TASK
    };

    #[test]
    fn wire_form_pins_field_order_and_tails() {
        let keys = |e: TraceEvent| e.fields().iter().map(|(k, _)| *k).collect::<Vec<_>>();
        let base = ["cell", "release_us", "start_us", "finish_us", "deadline_us"];
        let global = TASK.to_event(Some("global_edf"));
        assert_eq!((global.name, global.ts_us), ("subframe", TASK.finish_us));
        assert_eq!(keys(global), [&base[..], &["policy"]].concat());
        assert_eq!(
            keys(STOLEN.to_event(None)),
            [&base[..], &["core", "stolen"]].concat()
        );
        assert_eq!(keys(TASK.to_event(None)), base);
    }

    #[test]
    fn emit_records_the_wire_form_and_decode_inverts_it() {
        let _g = lock_tracer();
        crate::configure(TelemetryConfig::sim());
        TASK.emit(Some("global_fifo"));
        STOLEN.emit(None);
        let events = trace::drain();
        crate::disable();
        assert_eq!(
            events,
            [TASK.to_event(Some("global_fifo")), STOLEN.to_event(None)]
        );
        assert_eq!(Subframe::decode(&events[0]), Some(Ok(TASK)));
        assert_eq!(Subframe::decode(&events[1]), Some(Ok(STOLEN)));
        assert!(!TASK.missed());
        let other = TraceEvent::new(1, Domain::Sim, "pool.epoch", &[]);
        assert_eq!(Subframe::decode(&other), None);
    }

    #[test]
    fn decode_names_what_is_wrong() {
        let event = |fields: &[(&'static str, FieldValue)]| {
            TraceEvent::new(9, Domain::Sim, "subframe", fields)
        };
        let partial = event(&[("cell", 0u64.into()), ("release_us", 5u64.into())]);
        assert_eq!(
            Subframe::decode(&partial),
            Some(Err(SubframeError::MissingField("start_us")))
        );
        // Negative or non-numeric values do not count as present.
        let signed = event(&[("cell", (-1i64).into())]);
        assert_eq!(
            Subframe::decode(&signed),
            Some(Err(SubframeError::MissingField("cell")))
        );
        let backwards = Subframe {
            finish_us: 60,
            ..TASK
        };
        assert_eq!(
            Subframe::decode(&backwards.to_event(None)),
            Some(Err(SubframeError::FinishBeforeRelease))
        );
    }
}
