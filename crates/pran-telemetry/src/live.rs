//! The live switch and its event ring: a bounded, per-shard, in-process
//! tap on the tracer.
//!
//! The JSONL exporter answers questions *after* a run; the live plane
//! answers them *during* one. [`arm`] is its one switch, and it turns on
//! two things. The per-task records never become events: while
//! [`armed`], `PoolShard::execute` folds each executed subframe straight
//! into a shard-owned `pran_insight::live::LiveFold` from the integers
//! it already holds. Everything else [`sim_event`](trace::sim_event)
//! records — a handful of control-plane events per epoch (SLO and burn
//! alerts, chaos violations) — is also copied, allocation-free, into a
//! preallocated per-shard ring, which a resident consumer (`pran-obs`'s
//! soak loop) drains once per epoch. Both are
//! independent of the buffered tracer: arming does not require
//! `enabled()`, so a soak can fold live attribution without paying for
//! (or allocating in) the export path.
//!
//! Capacity is a hard bound: when a shard's ring is full, further events
//! are counted as dropped rather than buffered, so a stalled consumer
//! costs bounded memory and an honest counter instead of an unbounded
//! queue. A ring slot is one [`TraceEvent`], 512 bytes; the rings are
//! reserved at [`arm`] and their pages are touched only as events land.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::lock;
use crate::trace::{self, TraceEvent};

struct LiveRing {
    events: Vec<TraceEvent>,
    dropped: u64,
}

struct Inner {
    shards: Vec<Mutex<LiveRing>>,
    capacity: usize,
}

/// Fast-path switch: one relaxed load on every record call when disarmed.
static ARMED: AtomicBool = AtomicBool::new(false);
/// Bumped on every arm/disarm so per-thread cached handles refresh.
static GENERATION: AtomicU64 = AtomicU64::new(0);

/// The armed sink, `None` while disarmed.
static SLOT: Mutex<Option<Arc<Inner>>> = Mutex::new(None);

thread_local! {
    /// Cached `(generation, inner)` so the record path touches the global
    /// slot mutex only when the sink is re-armed, not per event.
    static CACHED: RefCell<Option<(u64, Option<Arc<Inner>>)>> = const { RefCell::new(None) };
}

/// Arm the live plane, with `shards` rings of `capacity` events each.
///
/// Replaces any previously armed sink (its undrained events are
/// discarded). Ring storage is allocated here, once — the record path
/// never grows it.
pub fn arm(shards: usize, capacity: usize) {
    let shards = shards.max(1);
    let capacity = capacity.max(1);
    let inner = Arc::new(Inner {
        shards: (0..shards)
            .map(|_| {
                Mutex::new(LiveRing {
                    events: Vec::with_capacity(capacity),
                    dropped: 0,
                })
            })
            .collect(),
        capacity,
    });
    *lock(&SLOT) = Some(inner);
    GENERATION.fetch_add(1, Ordering::Release);
    ARMED.store(true, Ordering::Release);
}

/// Disarm the live sink and drop its rings.
pub fn disarm() {
    ARMED.store(false, Ordering::Release);
    *lock(&SLOT) = None;
    GENERATION.fetch_add(1, Ordering::Release);
}

/// Whether the live sink is armed (one relaxed atomic load).
#[inline]
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

fn with_inner<R>(f: impl FnOnce(&Inner) -> R) -> Option<R> {
    let generation = GENERATION.load(Ordering::Acquire);
    CACHED.with(|cached| {
        let mut cached = cached.borrow_mut();
        let refresh = match cached.as_ref() {
            Some((cached_generation, _)) => *cached_generation != generation,
            None => true,
        };
        if refresh {
            *cached = Some((generation, lock(&SLOT).clone()));
        }
        match cached.as_ref() {
            Some((_, Some(inner))) => Some(f(inner)),
            _ => None,
        }
    })
}

/// Copy one already-shard-stamped event into its shard's ring.
///
/// Called from the tracer's emission points when [`armed`]; routing uses
/// the calling thread's shard context (events without one land in ring 0)
/// so a drain sees exactly the events its shard's worker recorded.
pub(crate) fn record(event: &TraceEvent) {
    with_inner(|inner| {
        let shard = trace::current_shard().unwrap_or(0) as usize % inner.shards.len();
        let mut ring = lock(&inner.shards[shard]);
        if ring.events.len() < inner.capacity {
            ring.events.push(*event);
        } else {
            ring.dropped += 1;
        }
    });
}

/// Append (and clear) one shard ring's buffered events into `out`.
///
/// Returns the number of events appended. Allocation-free when `out` has
/// sufficient spare capacity. Out-of-range shards drain nothing.
pub fn drain_shard_into(shard: usize, out: &mut Vec<TraceEvent>) -> usize {
    with_inner(|inner| {
        let Some(ring) = inner.shards.get(shard) else {
            return 0;
        };
        let mut ring = lock(ring);
        let n = ring.events.len();
        out.extend_from_slice(&ring.events);
        ring.events.clear();
        n
    })
    .unwrap_or(0)
}

/// Total events dropped (rings full) since the sink was armed.
pub fn dropped() -> u64 {
    with_inner(|inner| inner.shards.iter().map(|s| lock(s).dropped).sum()).unwrap_or(0)
}

/// Number of rings the armed sink routes into (0 when disarmed).
pub fn shard_count() -> usize {
    with_inner(|inner| inner.shards.len()).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{set_shard, sim_event};
    use crate::TelemetryConfig;

    #[test]
    fn armed_sink_taps_sim_events_without_enabled_tracer() {
        let _g = crate::trace::tests::lock_tracer();
        crate::configure(TelemetryConfig::disabled());
        arm(2, 16);
        set_shard(Some(1));
        sim_event("tapped", 7, &[("cell", 3u64.into())]);
        set_shard(None);
        sim_event("untagged", 8, &[]);
        assert!(crate::trace::drain().is_empty(), "buffered path stays off");
        let mut out = Vec::new();
        assert_eq!(drain_shard_into(1, &mut out), 1);
        assert_eq!(out[0].name, "tapped");
        assert_eq!(out[0].field_u64("cell"), Some(3));
        assert_eq!(out[0].field_u64("shard"), Some(1), "stamp applied");
        out.clear();
        assert_eq!(drain_shard_into(0, &mut out), 1);
        assert_eq!(out[0].name, "untagged");
        disarm();
    }

    #[test]
    fn full_ring_counts_drops_and_drain_resets_it() {
        let _g = crate::trace::tests::lock_tracer();
        crate::configure(TelemetryConfig::disabled());
        arm(1, 4);
        for i in 0..10u64 {
            sim_event("e", i, &[]);
        }
        assert_eq!(dropped(), 6);
        let mut out = Vec::with_capacity(8);
        assert_eq!(drain_shard_into(0, &mut out), 4);
        sim_event("late", 99, &[]);
        assert_eq!(drain_shard_into(0, &mut out), 1);
        assert_eq!(out.len(), 5);
        disarm();
        assert_eq!(dropped(), 0);
        assert!(!armed());
    }

    #[test]
    fn both_paths_record_when_enabled_and_armed() {
        let _g = crate::trace::tests::lock_tracer();
        crate::configure(TelemetryConfig::sim());
        arm(1, 16);
        sim_event("dual", 1, &[]);
        let buffered = crate::trace::drain();
        let mut live = Vec::new();
        drain_shard_into(0, &mut live);
        disarm();
        crate::disable();
        assert_eq!(buffered.len(), 1);
        assert_eq!(live.len(), 1);
        assert_eq!(buffered[0], live[0], "same stamped event on both paths");
    }
}
