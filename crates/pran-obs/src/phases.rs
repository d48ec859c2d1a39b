//! Self-profiling of the resident epoch loop.
//!
//! Every soak epoch passes through five phases — ingest (streaming trace
//! rows), dispatch (demand prediction + placement), execute (the per-TTI
//! task simulation), merge (shard metric folding), and telemetry
//! (recorder push, registry update, snapshot publish). The profiler keeps
//! one wall-clock [`LogHistogram`] per phase so the soak can answer "where
//! does an epoch's time go?" about itself, and so the E16 bench envelope
//! can gate on a measured `telemetry_overhead_pct` instead of folklore.

use pran_telemetry::LogHistogram;

/// One phase of a resident soak epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Streaming this epoch's trace rows.
    Ingest,
    /// Demand prediction and (re)placement.
    Dispatch,
    /// Per-TTI task execution.
    Execute,
    /// Folding shard metrics and cumulative state.
    Merge,
    /// Recorder push, registry update and snapshot publish.
    Telemetry,
}

impl Phase {
    /// All phases in epoch order.
    pub const ALL: [Phase; 5] = [
        Phase::Ingest,
        Phase::Dispatch,
        Phase::Execute,
        Phase::Merge,
        Phase::Telemetry,
    ];

    /// Stable lowercase name (metric label value).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Ingest => "ingest",
            Phase::Dispatch => "dispatch",
            Phase::Execute => "execute",
            Phase::Merge => "merge",
            Phase::Telemetry => "telemetry",
        }
    }

    fn index(self) -> usize {
        match self {
            Phase::Ingest => 0,
            Phase::Dispatch => 1,
            Phase::Execute => 2,
            Phase::Merge => 3,
            Phase::Telemetry => 4,
        }
    }
}

/// Wall-clock histograms of epoch phase durations.
#[derive(Debug, Clone)]
pub struct PhaseProfiler {
    hist: [LogHistogram; 5],
}

impl Default for PhaseProfiler {
    fn default() -> Self {
        Self::new()
    }
}

impl PhaseProfiler {
    /// Empty profiler.
    pub fn new() -> Self {
        PhaseProfiler {
            hist: std::array::from_fn(|_| LogHistogram::new()),
        }
    }

    /// Record one phase duration in nanoseconds (bucketed at microsecond
    /// resolution, like every other latency histogram in the workspace).
    #[inline]
    pub fn record_ns(&mut self, phase: Phase, ns: u64) {
        self.hist[phase.index()].record_us(ns / 1_000);
    }

    /// The histogram of one phase.
    pub fn histogram(&self, phase: Phase) -> &LogHistogram {
        &self.hist[phase.index()]
    }

    /// Total wall time across all phases, microseconds.
    pub fn total_us(&self) -> u64 {
        self.hist.iter().map(|h| h.sum().as_micros() as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_accumulate_independently() {
        let mut p = PhaseProfiler::new();
        p.record_ns(Phase::Ingest, 3_000);
        p.record_ns(Phase::Execute, 40_000);
        p.record_ns(Phase::Execute, 50_000);
        p.record_ns(Phase::Telemetry, 7_000);
        assert_eq!(p.histogram(Phase::Ingest).count(), 1);
        assert_eq!(p.histogram(Phase::Execute).count(), 2);
        assert_eq!(p.histogram(Phase::Dispatch).count(), 0);
        assert_eq!(p.total_us(), 3 + 40 + 50 + 7);
    }

    #[test]
    fn names_are_stable_and_distinct() {
        let names: Vec<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(
            names,
            vec!["ingest", "dispatch", "execute", "merge", "telemetry"]
        );
    }
}
