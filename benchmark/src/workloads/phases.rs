//! What the simulator's own reports give a traced run: the ingest /
//! dispatch / execute / merge split `ResidentMetro::step_epoch` returns,
//! summed over the epochs stepped, and the exact-repeat `sim.*` counts.

use pran_sim::{EpochStatus, PoolMetrics};

use crate::common::Traced;
use crate::stats::percentile;

/// Phase sums over the epochs stepped so far.
#[derive(Default)]
pub struct Phases {
    ingest_ns: u64,
    dispatch_ns: u64,
    execute_ns: u64,
    merge_ns: u64,
    dispatch_ms: Vec<f64>,
    /// Subframe tasks the stepped epochs generated.
    pub tasks: u64,
}

impl Phases {
    /// Add one epoch's self-profile.
    pub fn add(&mut self, status: &EpochStatus) {
        self.ingest_ns += status.ingest_ns;
        self.dispatch_ns += status.dispatch_ns;
        self.execute_ns += status.execute_ns;
        self.merge_ns += status.merge_ns;
        self.dispatch_ms.push(status.dispatch_ns as f64 / 1e6);
        self.tasks += status.record.tasks;
    }

    /// Report the per-layer phase metrics. `scale` stretches the sums to
    /// the whole day when the stepping was cut short; `step_wall_ns` is
    /// the summed wall of the `step_epoch` calls, which `workers` threads
    /// shared; `batch_merge_ms` is merge time spanned outside the epochs.
    pub fn report(
        &self,
        out: &mut Traced,
        scale: f64,
        workers: usize,
        step_wall_ns: f64,
        batch_merge_ms: f64,
    ) {
        let ms = |ns: u64| ns as f64 * scale / 1e6;
        out.set("traces.ingest_ms", ms(self.ingest_ns));
        out.set("placement.dispatch_ms", ms(self.dispatch_ns));
        out.set(
            "placement.dispatch_ms_p99",
            percentile(&self.dispatch_ms, 99.0),
        );
        out.set("sim.execute_ms", ms(self.execute_ns));
        out.set(
            "sim.execute_ns_per_task",
            self.execute_ns as f64 / self.tasks as f64,
        );
        out.set("sim.merge_ms", ms(self.merge_ns) + batch_merge_ms);
        let attributed =
            (self.ingest_ns + self.dispatch_ns + self.execute_ns + self.merge_ns) as f64;
        out.set(
            "sim.unattributed_pct",
            100.0 * (1.0 - attributed / (workers as f64 * step_wall_ns)),
        );
    }
}

/// Report the exact-repeat counts a run's metrics carry.
pub fn report_counts(out: &mut Traced, m: &PoolMetrics) {
    out.set("sim.tasks_total", m.tasks_total as f64);
    out.set("sim.deadline_misses", m.deadline_misses as f64);
    out.set("sim.tasks_lost", m.tasks_lost as f64);
    out.set("sim.reports_lost", m.reports_lost as f64);
    out.set("sim.migrations", m.migrations as f64);
    out.set("sim.fronthaul_bytes", m.fronthaul_bytes as f64);
    out.set("sim.peak_servers", m.peak_servers() as f64);
}
