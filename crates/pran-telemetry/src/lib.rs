//! `pran-telemetry` — unified tracing, metrics and profiling for the pool.
//!
//! PRAN's argument is quantitative (multiplexing gains, ≈2 ms HARQ compute
//! budgets, heuristic-vs-ILP gaps), so every layer must report through one
//! substrate or cross-layer questions like "where did a missed subframe's
//! 2 ms go?" stay unanswerable. This crate provides that substrate:
//!
//! * [`trace`] — a lightweight span/event facade with per-thread buffers
//!   and a zero-allocation fast path (one relaxed atomic load when
//!   disabled). Events carry either *simulated* timestamps supplied by the
//!   caller (deterministic under the virtual-clock executor) or *monotonic*
//!   wall-clock timestamps for real execution;
//! * [`subframe`] — the one definition of the `subframe` record every
//!   scheduler emits and every analysis reads: [`Subframe::emit`] writes
//!   it, [`Subframe::decode`] reads it from raw or parsed-back events;
//! * [`metrics`] — the one log-bucket histogram ([`metrics::LogBuckets`],
//!   instantiated as [`LogHistogram`] and as `pran-insight`'s finer
//!   `LogSketch`, its counters held by value so a hot loop folds into
//!   one on its stack) and a registry of named, labeled counters, gauges
//!   and histograms;
//! * [`export`] — the JSONL trace format both ways (canonical dump, one
//!   line parser, schema validation), human-readable summary tables and
//!   the per-subframe latency breakdown (queue wait → kernel compute →
//!   HARQ deadline slack) reconstructed from a trace.
//!
//! The crate is dependency-free within the workspace (only the vendored
//! `serde` stand-in; its locks are `std::sync`'s), so every layer can
//! emit into it without cycles.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod export;
pub mod live;
pub mod metrics;
pub mod subframe;
pub mod trace;

use std::sync::{Mutex, MutexGuard, PoisonError};

use serde::{Deserialize, Serialize};

pub use metrics::{LogHistogram, Registry, RegistrySnapshot};
pub use subframe::{Subframe, SubframeError};
pub use trace::{Domain, EventView, FieldValue, TraceClock, TraceEvent};

/// Telemetry knobs: what [`configure`] applies — the bench binaries pick
/// one from `PRAN_TELEMETRY`, tests set it directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TelemetryConfig {
    /// Master switch. Off, every record call is one relaxed atomic load.
    pub enabled: bool,
    /// Which clock domains are recorded. [`TraceClock::SimOnly`] keeps
    /// traces byte-identical across same-seed runs by dropping wall-clock
    /// events; [`TraceClock::Full`] records both domains.
    pub clock: TraceClock,
}

impl TelemetryConfig {
    /// Telemetry off (the default; the fast path costs one atomic load).
    pub fn disabled() -> Self {
        TelemetryConfig {
            enabled: false,
            clock: TraceClock::SimOnly,
        }
    }

    /// Deterministic tracing: simulated-clock events only.
    pub fn sim() -> Self {
        TelemetryConfig {
            enabled: true,
            ..Self::disabled()
        }
    }

    /// Full tracing: simulated and monotonic wall-clock events.
    pub fn full() -> Self {
        TelemetryConfig {
            enabled: true,
            clock: TraceClock::Full,
        }
    }
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

/// Apply a configuration to the global tracer: resets the event sink,
/// invalidates per-thread buffers from earlier runs and flips the enable
/// switch. See [`trace::configure`].
pub fn configure(config: TelemetryConfig) {
    trace::configure(config);
}

/// Disable tracing (buffered events stay drainable).
pub fn disable() {
    trace::disable();
}

/// Whether tracing is currently enabled (the fast-path check).
///
/// One relaxed atomic load. Hot loops should hoist this once per
/// epoch/worker and skip building event field arrays entirely when it is
/// false — the arrays (not the guarded [`trace::sim_event`] call) are the
/// off-mode cost.
#[inline]
pub fn enabled() -> bool {
    trace::enabled()
}

/// Lock one of the crate's mutexes, recovering it if a panicking holder
/// poisoned it: a thread that panics while recording must not stop every
/// other thread's tracing and metrics. Each guarded value (an event
/// buffer, a ring, the instrument map) is changed by single calls that
/// leave it whole.
fn lock<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_presets_and_roundtrip() {
        assert!(!TelemetryConfig::default().enabled);
        assert!(TelemetryConfig::sim().enabled);
        assert_eq!(TelemetryConfig::sim().clock, TraceClock::SimOnly);
        assert_eq!(TelemetryConfig::full().clock, TraceClock::Full);
        let c = TelemetryConfig::full();
        let json = serde_json::to_string(&c).unwrap();
        let back: TelemetryConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, c);
        // The retired buffer-size key is stepped over.
        let old = r#"{"enabled":true,"clock":"SimOnly","buffer_events":8192}"#;
        let back: TelemetryConfig = serde_json::from_str(old).unwrap();
        assert_eq!(back, TelemetryConfig::sim());
    }
}
