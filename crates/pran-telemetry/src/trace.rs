//! The tracing facade: events, clock domains and per-thread buffers.
//!
//! Recording is designed for hot paths. When disabled, every entry point
//! is a single relaxed atomic load. When enabled, an event is a fixed-size
//! `Copy` record (static name/key strings, no owned allocations) pushed
//! into a preallocated thread-local buffer; buffers spill into one shared
//! sink when full and stay reachable from a global list, so [`drain`]
//! sees the work-stealing executor's worker events even if those scoped
//! threads have not finished tearing down yet.
//!
//! Two clock domains keep determinism and profiling from fighting:
//!
//! * **Sim** events carry caller-supplied timestamps in simulated
//!   microseconds (epoch and crash times, virtual core clocks), so a
//!   deterministic simulation produces a deterministic trace;
//! * **Mono** events are stamped from a process-wide monotonic epoch and
//!   carry real wall-clock timings. Under [`TraceClock::SimOnly`] they are
//!   dropped at the recording site, which is what makes two same-seed
//!   simulated runs export byte-identical traces.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::{lock, TelemetryConfig};

/// Which clock stamped an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Domain {
    /// Simulated time (caller-supplied microseconds).
    Sim,
    /// Monotonic wall-clock time since the process trace epoch.
    Mono,
}

impl Domain {
    /// Stable lowercase label used in exports.
    pub fn label(self) -> &'static str {
        match self {
            Domain::Sim => "sim",
            Domain::Mono => "mono",
        }
    }
}

/// Which clock domains the tracer records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceClock {
    /// Record only simulated-clock events (deterministic traces).
    SimOnly,
    /// Record simulated and monotonic wall-clock events.
    Full,
}

/// Maximum fields per event. Passing more is a bug: debug builds panic,
/// release builds keep the first `MAX_FIELDS`.
pub const MAX_FIELDS: usize = 12;

/// A field value. Strings are `&'static str` so recording never allocates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer (e.g. signed deadline slack).
    I64(i64),
    /// Floating point.
    F64(f64),
    /// Boolean flag.
    Bool(bool),
    /// Static string (labels, policy names).
    Str(&'static str),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(u64::from(v))
    }
}
impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}
impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}
impl From<&'static str> for FieldValue {
    fn from(v: &'static str) -> Self {
        FieldValue::Str(v)
    }
}

/// One trace record: timestamp, clock domain, static name and up to
/// [`MAX_FIELDS`] key/value fields. `Copy`, no heap — and 512 bytes
/// (twelve 40-byte key/value slots plus the header), whatever the event
/// carries, which is why per-task records stay off the live ring.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Timestamp in microseconds within the event's clock domain.
    pub ts_us: u64,
    /// Which clock stamped it.
    pub domain: Domain,
    /// Event name (dot-separated convention, e.g. `"subframe"`,
    /// `"pool.epoch"`, `"phy.turbo_decode"`).
    pub name: &'static str,
    fields: [(&'static str, FieldValue); MAX_FIELDS],
    len: u8,
}

// Buffer and ring sizing (`FLUSH_AT`, `live::arm`) is documented in
// these bytes.
#[cfg(target_pointer_width = "64")]
const _: () = assert!(std::mem::size_of::<TraceEvent>() == 512);

impl TraceEvent {
    /// Build an event, truncating fields beyond [`MAX_FIELDS`] (a debug
    /// build panics on them instead).
    pub fn new(
        ts_us: u64,
        domain: Domain,
        name: &'static str,
        fields: &[(&'static str, FieldValue)],
    ) -> Self {
        debug_assert!(
            fields.len() <= MAX_FIELDS,
            "`{name}` carries {} fields, more than MAX_FIELDS",
            fields.len()
        );
        let mut stored = [("", FieldValue::U64(0)); MAX_FIELDS];
        let len = fields.len().min(MAX_FIELDS);
        stored[..len].copy_from_slice(&fields[..len]);
        TraceEvent {
            ts_us,
            domain,
            name,
            fields: stored,
            len: len as u8,
        }
    }

    /// The recorded fields, in recording order.
    pub fn fields(&self) -> &[(&'static str, FieldValue)] {
        &self.fields[..self.len as usize]
    }

    /// Look up a field by key.
    #[inline]
    pub fn field(&self, key: &str) -> Option<FieldValue> {
        self.fields()
            .iter()
            .find_map(|(k, v)| (*k == key).then_some(*v))
    }

    /// Look up a numeric field as `u64` (accepts `U64` and non-negative
    /// `I64`).
    #[inline]
    pub fn field_u64(&self, key: &str) -> Option<u64> {
        match self.field(key)? {
            FieldValue::U64(v) => Some(v),
            FieldValue::I64(v) => u64::try_from(v).ok(),
            _ => None,
        }
    }
}

/// The read side of one trace event, whatever holds it: the raw `Copy`
/// [`TraceEvent`] straight off a buffer or live ring, or an
/// [`OwnedEvent`](crate::export::OwnedEvent) parsed back out of exported
/// JSONL. Everything that *reads* records (`Subframe::decode`, the
/// critical-path reference, the live fold) goes through these four
/// methods, so an analysis written once runs on both sides of the wire.
pub trait EventView {
    /// Event name.
    fn name(&self) -> &str;
    /// Timestamp in the event's clock domain, microseconds.
    fn ts_us(&self) -> u64;
    /// Field as `u64` (a non-negative signed value counts).
    fn field_u64(&self, key: &str) -> Option<u64>;
    /// Field as `bool`.
    fn field_bool(&self, key: &str) -> Option<bool>;
}

impl EventView for TraceEvent {
    #[inline]
    fn name(&self) -> &str {
        self.name
    }
    #[inline]
    fn ts_us(&self) -> u64 {
        self.ts_us
    }
    #[inline]
    fn field_u64(&self, key: &str) -> Option<u64> {
        TraceEvent::field_u64(self, key)
    }
    #[inline]
    fn field_bool(&self, key: &str) -> Option<bool> {
        match self.field(key)? {
            FieldValue::Bool(b) => Some(b),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------
// Global tracer state
// ---------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);
static RECORD_MONO: AtomicBool = AtomicBool::new(false);
/// Per-thread buffer length (events) before spilling to the shared sink:
/// at 512 bytes an event, 4 MiB a thread.
const FLUSH_AT: usize = 8192;

type SharedBuffer = Arc<Mutex<Vec<TraceEvent>>>;

/// Events spilled or flushed from thread buffers.
static SINK: Mutex<Vec<TraceEvent>> = Mutex::new(Vec::new());

/// Every live thread buffer, so [`drain`] and [`configure`] can reach
/// buffers of threads that have not exited yet. `thread::scope` may
/// return to the spawner before a worker's thread-local destructors have
/// run, so exit-time flushing alone would race with a post-run drain.
static BUFFERS: Mutex<Vec<SharedBuffer>> = Mutex::new(Vec::new());

fn mono_epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds since the process trace epoch (first use).
pub fn mono_now_us() -> u64 {
    mono_epoch().elapsed().as_micros() as u64
}

struct ThreadSlot {
    buffer: SharedBuffer,
}

impl Drop for ThreadSlot {
    fn drop(&mut self) {
        // Move under the sink lock: a concurrent [`drain`] sweeps sink
        // and buffers under it, so the events are never in between.
        let mut sink_guard = lock(&SINK);
        sink_guard.append(&mut lock(&self.buffer));
        drop(sink_guard);
        lock(&BUFFERS).retain(|b| !Arc::ptr_eq(b, &self.buffer));
    }
}

thread_local! {
    static LOCAL: RefCell<Option<ThreadSlot>> = const { RefCell::new(None) };
    /// Shard context: when set, every event recorded on this thread gets a
    /// trailing `("shard", id)` field (see [`set_shard`]).
    static SHARD: std::cell::Cell<Option<u64>> = const { std::cell::Cell::new(None) };
}

/// Set (or clear) the calling thread's shard context.
///
/// While set, every event this thread records is stamped with a trailing
/// `("shard", id)` field — unless the event already carries [`MAX_FIELDS`]
/// fields, in which case the stamp is dropped rather than displacing a
/// caller field. The metro simulator sets this around each shard's run so
/// merged traces stay attributable (and sortable) per shard.
pub fn set_shard(shard: Option<u64>) {
    SHARD.with(|s| s.set(shard));
}

/// The calling thread's shard context, if any.
pub fn current_shard() -> Option<u64> {
    SHARD.with(|s| s.get())
}

/// Reorder every buffered event into canonical per-shard order: events
/// without a shard field first (in recording order), then each shard's
/// events in ascending shard id (each keeping its recording order).
///
/// Shard runs execute on whichever worker thread picks them up, so the
/// raw sink interleaves shards by spill timing — nondeterministic across
/// worker counts. Because one shard runs entirely on one thread, its
/// events keep their relative order through spills, and this stable sort
/// therefore yields the same byte sequence for any worker count or shard
/// execution order. Call after the workers have joined, before
/// [`drain`]/export.
pub fn canonicalize_by_shard() {
    // Hold the sink lock across take → merge → write-back. A worker
    // thread's exit-time flush ([`ThreadSlot`]'s `Drop`) may run after
    // `thread::scope` has returned to the caller; with the lock held
    // there is no window where such a straggler's append lands between
    // our take and the write-back only to be overwritten (lost update).
    // The straggler either flushes before (we take it, via sink or its
    // still-registered buffer) or blocks and appends after the
    // canonical block — late, but never lost.
    let mut sink_guard = lock(&SINK);
    let mut events = std::mem::take(&mut *sink_guard);
    for buffer in lock(&BUFFERS).iter() {
        events.append(&mut lock(buffer));
    }
    events.sort_by_key(|e| e.field_u64("shard").map_or((0u8, 0u64), |s| (1, s)));
    *sink_guard = events;
}

/// Apply a configuration: clears the sink and every live thread buffer,
/// then flips the recording switches.
pub fn configure(config: TelemetryConfig) {
    for buffer in lock(&BUFFERS).iter() {
        lock(buffer).clear();
    }
    lock(&SINK).clear();
    RECORD_MONO.store(matches!(config.clock, TraceClock::Full), Ordering::Relaxed);
    ENABLED.store(config.enabled, Ordering::Release);
}

/// Stop recording. Buffered events remain drainable via [`drain`].
pub fn disable() {
    ENABLED.store(false, Ordering::Release);
}

/// The fast-path check: one relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Stamp the calling thread's shard context onto an event (see
/// [`set_shard`]); a no-op when the event is already full.
#[inline]
fn stamp_shard(event: &mut TraceEvent) {
    if let Some(shard) = current_shard() {
        let len = event.len as usize;
        if len < MAX_FIELDS {
            event.fields[len] = ("shard", FieldValue::U64(shard));
            event.len += 1;
        }
    }
}

#[inline]
fn push(mut event: TraceEvent) {
    stamp_shard(&mut event);
    push_stamped(event);
}

#[inline]
fn push_stamped(event: TraceEvent) {
    LOCAL.with(|slot| {
        let mut slot = slot.borrow_mut();
        let slot = slot.get_or_insert_with(|| {
            let buffer: SharedBuffer = Arc::new(Mutex::new(Vec::new()));
            lock(&BUFFERS).push(Arc::clone(&buffer));
            ThreadSlot { buffer }
        });
        let mut events = lock(&slot.buffer);
        if events.capacity() == 0 {
            events.reserve(FLUSH_AT);
        }
        events.push(event);
        if events.len() >= FLUSH_AT {
            let mut spilled = std::mem::take(&mut *events);
            drop(events);
            lock(&SINK).append(&mut spilled);
        }
    });
}

/// Record a simulated-clock event at `ts_us` simulated microseconds.
///
/// The event reaches every armed consumer: the buffered export path when
/// [`enabled`], and the bounded in-process tap when [`crate::live::armed`]
/// — both see the identical shard-stamped record.
#[inline]
pub fn sim_event(name: &'static str, ts_us: u64, fields: &[(&'static str, FieldValue)]) {
    let buffered = enabled();
    let live = crate::live::armed();
    if !buffered && !live {
        return;
    }
    let mut event = TraceEvent::new(ts_us, Domain::Sim, name, fields);
    stamp_shard(&mut event);
    if live {
        crate::live::record(&event);
    }
    if buffered {
        push_stamped(event);
    }
}

/// Record a simulated-clock event on the buffered export path only.
///
/// For the per-task records (`subframe`, `rt.steal`): the live plane
/// folds those where they are produced (`PoolShard::execute`) instead of
/// copying one [`TraceEvent`] per task through the tap.
#[inline]
pub fn sim_event_buffered(name: &'static str, ts_us: u64, fields: &[(&'static str, FieldValue)]) {
    if enabled() {
        push(TraceEvent::new(ts_us, Domain::Sim, name, fields));
    }
}

/// Record a monotonic wall-clock event (dropped under
/// [`TraceClock::SimOnly`]).
#[inline]
pub fn mono_event(name: &'static str, fields: &[(&'static str, FieldValue)]) {
    if !enabled() || !RECORD_MONO.load(Ordering::Relaxed) {
        return;
    }
    push(TraceEvent::new(mono_now_us(), Domain::Mono, name, fields));
}

/// A monotonic-clock span guard. Inactive (and free) when mono recording
/// is off; otherwise emits one event named after the span with a `dur_us`
/// field on [`Span::finish_with`] or drop.
#[must_use = "a span records its duration when finished or dropped"]
pub struct Span {
    name: &'static str,
    start_us: u64,
    active: bool,
}

/// Start a monotonic span (see [`Span`]).
#[inline]
pub fn span(name: &'static str) -> Span {
    let active = enabled() && RECORD_MONO.load(Ordering::Relaxed);
    Span {
        name,
        start_us: if active { mono_now_us() } else { 0 },
        active,
    }
}

impl Span {
    fn emit(&mut self, extra: &[(&'static str, FieldValue)]) {
        // Checked whether or not the span records, so that a debug test
        // finds an overflow with the tracer off.
        debug_assert!(
            extra.len() < MAX_FIELDS,
            "span `{}` carries {} fields beside `dur_us`, more than MAX_FIELDS − 1",
            self.name,
            extra.len()
        );
        if !self.active {
            return;
        }
        self.active = false;
        let mut fields = [("", FieldValue::U64(0)); MAX_FIELDS];
        fields[0] = (
            "dur_us",
            FieldValue::U64(mono_now_us().saturating_sub(self.start_us)),
        );
        let extra_len = extra.len().min(MAX_FIELDS - 1);
        fields[1..1 + extra_len].copy_from_slice(&extra[..extra_len]);
        push(TraceEvent::new(
            self.start_us,
            Domain::Mono,
            self.name,
            &fields[..1 + extra_len],
        ));
    }

    /// Finish the span with extra fields attached.
    pub fn finish_with(mut self, extra: &[(&'static str, FieldValue)]) {
        self.emit(extra);
    }

    /// Finish the span.
    pub fn finish(self) {
        self.finish_with(&[]);
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.emit(&[]);
    }
}

/// Flush the calling thread's buffer into the shared sink.
pub fn flush() {
    LOCAL.with(|slot| {
        if let Some(slot) = slot.borrow().as_ref() {
            let mut events = std::mem::take(&mut *lock(&slot.buffer));
            if !events.is_empty() {
                lock(&SINK).append(&mut events);
            }
        }
    });
}

/// Take every event collected so far: the shared sink plus the contents
/// of every live thread buffer (so worker threads need not have exited).
pub fn drain() -> Vec<TraceEvent> {
    // Hold the sink lock across the sweep: `thread::scope` returns before
    // its workers' thread-local destructors run, and an exit-time flush
    // landing between the two steps would be left for the next drain.
    let mut sink_guard = lock(&SINK);
    let mut out = std::mem::take(&mut *sink_guard);
    for buffer in lock(&BUFFERS).iter() {
        out.append(&mut lock(buffer));
    }
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Global tracer state is shared; serialize the tests that touch it.
    /// A failing test poisons the guard without failing the next.
    pub(crate) fn lock_tracer() -> std::sync::MutexGuard<'static, ()> {
        static GUARD: Mutex<()> = Mutex::new(());
        lock(&GUARD)
    }

    #[test]
    fn disabled_records_nothing() {
        let _g = lock_tracer();
        configure(TelemetryConfig::disabled());
        sim_event("x", 1, &[]);
        mono_event("y", &[]);
        assert!(drain().is_empty());
    }

    #[test]
    fn a_poisoned_sink_still_records_and_drains() {
        let _g = lock_tracer();
        configure(TelemetryConfig::sim());
        sim_event("before", 1, &[]);
        let holder = std::thread::spawn(|| {
            let _sink = lock(&SINK);
            let _buffers = lock(&BUFFERS);
            panic!("a holder of the sink's locks panics");
        });
        assert!(holder.join().is_err());
        assert!(SINK.is_poisoned() && BUFFERS.is_poisoned());
        sim_event("after", 2, &[]);
        flush();
        let n = FLUSH_AT as u64 + 1;
        for i in 0..n {
            sim_event("spilled", 3 + i, &[]);
        }
        let events = drain();
        disable();
        assert_eq!(events.len() as u64, 2 + n);
        assert_eq!((events[0].name, events[1].name), ("before", "after"));
    }

    #[test]
    fn sim_only_drops_mono_events() {
        let _g = lock_tracer();
        configure(TelemetryConfig::sim());
        sim_event("kept", 10, &[("a", 1u64.into())]);
        mono_event("dropped", &[]);
        span("dropped_span").finish();
        let events = drain();
        disable();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "kept");
        assert_eq!(events[0].ts_us, 10);
        assert_eq!(events[0].field_u64("a"), Some(1));
    }

    #[test]
    fn full_mode_records_mono_and_spans() {
        let _g = lock_tracer();
        configure(TelemetryConfig::full());
        mono_event("m", &[("k", "v".into())]);
        let s = span("s");
        s.finish_with(&[("n", 3u64.into())]);
        let events = drain();
        disable();
        assert_eq!(events.len(), 2);
        let span_ev = events.iter().find(|e| e.name == "s").unwrap();
        assert!(span_ev.field_u64("dur_us").is_some());
        assert_eq!(span_ev.field_u64("n"), Some(3));
        assert!(events.iter().all(|e| e.domain == Domain::Mono));
    }

    #[test]
    fn worker_thread_events_flush_on_exit() {
        let _g = lock_tracer();
        configure(TelemetryConfig::sim());
        std::thread::scope(|scope| {
            for worker in 0..4u64 {
                scope.spawn(move || {
                    for i in 0..100u64 {
                        sim_event("w", worker * 1000 + i, &[("worker", worker.into())]);
                    }
                });
            }
        });
        let events = drain();
        disable();
        assert_eq!(events.len(), 400);
    }

    #[test]
    fn reconfigure_discards_stale_buffers() {
        let _g = lock_tracer();
        configure(TelemetryConfig::sim());
        sim_event("old", 1, &[]);
        // Not flushed yet; a reconfigure must invalidate it.
        configure(TelemetryConfig::sim());
        sim_event("new", 2, &[]);
        let events = drain();
        disable();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "new");
    }

    #[test]
    fn buffer_spills_at_threshold() {
        let _g = lock_tracer();
        configure(TelemetryConfig::sim());
        let n = 2 * FLUSH_AT as u64 + 4;
        for i in 0..n {
            sim_event("e", i, &[]);
        }
        // 2 × FLUSH_AT events spilled by threshold crossings; 4 still
        // local until the explicit flush inside drain().
        assert!(lock(&SINK).len() >= 2 * FLUSH_AT);
        let events = drain();
        disable();
        assert_eq!(events.len() as u64, n);
    }

    #[test]
    fn shard_context_stamps_events() {
        let _g = lock_tracer();
        configure(TelemetryConfig::sim());
        set_shard(Some(3));
        sim_event("tagged", 1, &[("a", 1u64.into())]);
        set_shard(None);
        sim_event("untagged", 2, &[]);
        let events = drain();
        disable();
        assert_eq!(events[0].field_u64("shard"), Some(3));
        assert_eq!(events[0].field_u64("a"), Some(1), "caller fields kept");
        assert_eq!(events[1].field("shard"), None);
    }

    #[test]
    fn shard_stamp_never_displaces_caller_fields() {
        let _g = lock_tracer();
        configure(TelemetryConfig::sim());
        let full: Vec<(&'static str, FieldValue)> =
            (0..MAX_FIELDS).map(|_| ("k", FieldValue::U64(1))).collect();
        set_shard(Some(7));
        sim_event("full", 1, &full);
        set_shard(None);
        let events = drain();
        disable();
        assert_eq!(events[0].fields().len(), MAX_FIELDS);
        assert_eq!(events[0].field("shard"), None, "stamp dropped, not a field");
    }

    #[test]
    fn canonicalize_groups_shards_in_stable_order() {
        let _g = lock_tracer();
        configure(TelemetryConfig::sim());
        sim_event("main", 0, &[]);
        // Two "workers" interleaving their spills in opposite shard order.
        std::thread::scope(|scope| {
            for &shard in &[2u64, 1u64] {
                scope.spawn(move || {
                    set_shard(Some(shard));
                    for i in 0..3u64 {
                        sim_event("w", i, &[("i", i.into())]);
                    }
                    flush();
                    set_shard(None);
                });
            }
        });
        canonicalize_by_shard();
        let events = drain();
        disable();
        let shards: Vec<Option<u64>> = events.iter().map(|e| e.field_u64("shard")).collect();
        assert_eq!(
            shards,
            vec![None, Some(1), Some(1), Some(1), Some(2), Some(2), Some(2)]
        );
        // Within a shard, recording order survives.
        for shard in [1u64, 2] {
            let ts: Vec<u64> = events
                .iter()
                .filter(|e| e.field_u64("shard") == Some(shard))
                .map(|e| e.ts_us)
                .collect();
            assert_eq!(ts, vec![0, 1, 2]);
        }
    }

    /// Too many fields panic a debug build, so that a caller learns of
    /// the overflow; a release build keeps the first `MAX_FIELDS`.
    #[test]
    fn field_truncation_is_bounded() {
        let fields: Vec<(&'static str, FieldValue)> = (0..MAX_FIELDS + 3)
            .map(|_| ("k", FieldValue::U64(1)))
            .collect();
        let built = std::panic::catch_unwind(|| TraceEvent::new(0, Domain::Sim, "t", &fields));
        if cfg!(debug_assertions) {
            assert!(built.is_err(), "an overflowing event must not be built");
        } else {
            assert_eq!(built.expect("release truncates").fields().len(), MAX_FIELDS);
        }
        let full = TraceEvent::new(0, Domain::Sim, "t", &fields[..MAX_FIELDS]);
        assert_eq!(full.fields().len(), MAX_FIELDS);
    }

    /// A span finished with more fields than fit beside `dur_us` panics a
    /// debug build whether or not it records; one that fits does not.
    #[test]
    fn span_field_overflow_panics_in_debug() {
        let _g = lock_tracer();
        let fields = vec![("k", FieldValue::U64(1)); MAX_FIELDS];
        let finished = std::panic::catch_unwind(|| span("t").finish_with(&fields));
        assert_eq!(finished.is_err(), cfg!(debug_assertions));
        span("t").finish_with(&fields[1..]);
    }
}
