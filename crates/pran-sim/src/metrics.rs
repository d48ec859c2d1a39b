//! Simulation metrics: counters and log-scale histograms.
//!
//! The base-2 [`LogHistogram`] now lives in `pran-telemetry` (it is the
//! registry's histogram instrument) and is re-exported here so existing
//! `pran_sim::LogHistogram` users keep working. [`PoolMetrics`] remains
//! the pool simulation's own aggregate, serialized to JSON so the
//! experiment harness can emit machine-readable results.

use serde::{Deserialize, Serialize};

pub use pran_telemetry::metrics::LogHistogram;

/// Top-level metrics a pool simulation produces.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PoolMetrics {
    /// Subframe tasks generated.
    pub tasks_total: u64,
    /// Tasks finishing past their deadline.
    pub deadline_misses: u64,
    /// Tasks never run (their server was down).
    pub tasks_lost: u64,
    /// Subset of `tasks_lost` whose uplink subframe report was dropped or
    /// rate-limited by the fronthaul fault model (zero when no
    /// [`LinkFault`](crate::pool::LinkFault) is configured).
    pub reports_lost: u64,
    /// Cell migrations executed.
    pub migrations: u64,
    /// Batches executed away from their home core (parallel executor
    /// only; zero under the analytic scheduler model).
    pub steals: u64,
    /// Fronthaul payload bytes offered to cell links (delivered or not);
    /// zero when no [`LinkFault`](crate::pool::LinkFault) is configured.
    /// Scales with each cell's functional split
    /// ([`pran_phy::FunctionalSplit::fronthaul_bytes_per_tti`]). Reports
    /// serialized before this counter existed read it as 0.
    #[serde(default)]
    pub fronthaul_bytes: u64,
    /// Placement epochs executed.
    pub epochs: u64,
    /// Server-count samples (one per epoch).
    pub servers_used: Vec<usize>,
    /// Aggregate GOPS demand samples (one per epoch).
    pub demand_gops: Vec<f64>,
    /// Distribution of per-cell outage durations after failures.
    pub outages: LogHistogram,
    /// Distribution of task response times.
    pub response_times: LogHistogram,
    /// Distribution of positive deadline slack: how much budget remained
    /// when each on-time task finished, under the analytic scheduler
    /// model and the parallel executor alike. Missed tasks are counted in
    /// `deadline_misses`, not here.
    pub deadline_slack: LogHistogram,
}

impl PoolMetrics {
    /// Deadline-miss ratio over all generated tasks.
    pub fn miss_ratio(&self) -> f64 {
        if self.tasks_total == 0 {
            0.0
        } else {
            (self.deadline_misses + self.tasks_lost) as f64 / self.tasks_total as f64
        }
    }

    /// Mean servers used across epochs.
    pub fn mean_servers(&self) -> f64 {
        if self.servers_used.is_empty() {
            0.0
        } else {
            self.servers_used.iter().sum::<usize>() as f64 / self.servers_used.len() as f64
        }
    }

    /// Peak servers used.
    pub fn peak_servers(&self) -> usize {
        self.servers_used.iter().copied().max().unwrap_or(0)
    }

    /// Serialize to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("metrics serialize")
    }

    // `reset` and `fold` each destructure `PoolMetrics` without a rest
    // pattern, so a new field fails to compile until both say what they
    // do with it.

    /// Reset every counter, series and histogram in place, keeping the
    /// epoch series' capacity (histograms hold their counters inline) —
    /// the resident service reuses one instance per epoch without
    /// touching the heap.
    pub fn reset(&mut self) {
        let PoolMetrics {
            tasks_total,
            deadline_misses,
            tasks_lost,
            reports_lost,
            migrations,
            steals,
            fronthaul_bytes,
            epochs,
            servers_used,
            demand_gops,
            outages,
            response_times,
            deadline_slack,
        } = self;
        *tasks_total = 0;
        *deadline_misses = 0;
        *tasks_lost = 0;
        *reports_lost = 0;
        *migrations = 0;
        *steals = 0;
        *fronthaul_bytes = 0;
        *epochs = 0;
        servers_used.clear();
        demand_gops.clear();
        outages.reset();
        response_times.reset();
        deadline_slack.reset();
    }

    /// Fold another pool's metrics into this one (the metro merge).
    ///
    /// Counters add, histograms merge bucket-wise, and the per-epoch
    /// series (`servers_used`, `demand_gops`) add element-wise so the
    /// merged series reads "total across pools at epoch *e*". Shards of a
    /// metro run share the epoch grid; when epoch counts differ the longer
    /// tail is kept as-is. The operation is commutative and associative,
    /// so the merged result is independent of merge order.
    pub fn merge(&mut self, other: &PoolMetrics) {
        self.fold(other, false);
    }

    /// Append the metrics of the epochs that *follow* this one's (the
    /// resident service's across-epochs fold): counters add and
    /// histograms merge as in [`merge`](Self::merge), but `epochs` adds
    /// and the per-epoch series concatenate, where the cross-pool merge
    /// takes the maximum and adds element-wise.
    pub fn append_epoch(&mut self, epoch: &PoolMetrics) {
        self.fold(epoch, true);
    }

    /// The body of [`merge`](Self::merge) (`follows` false: one epoch
    /// grid) and [`append_epoch`](Self::append_epoch) (`follows` true:
    /// `other`'s epochs come after this one's). Only `epochs` and the two
    /// series depend on it.
    fn fold(&mut self, other: &PoolMetrics, follows: bool) {
        let PoolMetrics {
            tasks_total,
            deadline_misses,
            tasks_lost,
            reports_lost,
            migrations,
            steals,
            fronthaul_bytes,
            epochs,
            servers_used,
            demand_gops,
            outages,
            response_times,
            deadline_slack,
        } = other;
        self.tasks_total += tasks_total;
        self.deadline_misses += deadline_misses;
        self.tasks_lost += tasks_lost;
        self.reports_lost += reports_lost;
        self.migrations += migrations;
        self.steals += steals;
        self.fronthaul_bytes += fronthaul_bytes;
        self.outages.merge(outages);
        self.response_times.merge(response_times);
        self.deadline_slack.merge(deadline_slack);
        if follows {
            self.epochs += epochs;
            self.servers_used.extend_from_slice(servers_used);
            self.demand_gops.extend_from_slice(demand_gops);
        } else {
            self.epochs = self.epochs.max(*epochs);
            add_elementwise(&mut self.servers_used, servers_used);
            add_elementwise(&mut self.demand_gops, demand_gops);
        }
    }
}

/// `mine[e] += theirs[e]`, growing `mine` to cover `theirs`.
fn add_elementwise<T: Copy + Default + std::ops::AddAssign>(mine: &mut Vec<T>, theirs: &[T]) {
    if mine.len() < theirs.len() {
        mine.resize(theirs.len(), T::default());
    }
    for (m, t) in mine.iter_mut().zip(theirs) {
        *m += *t;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn us(x: u64) -> Duration {
        Duration::from_micros(x)
    }

    #[test]
    fn metrics_ratios() {
        let m = PoolMetrics {
            tasks_total: 100,
            deadline_misses: 3,
            tasks_lost: 2,
            servers_used: vec![3, 5, 4],
            ..Default::default()
        };
        assert!((m.miss_ratio() - 0.05).abs() < 1e-12);
        assert!((m.mean_servers() - 4.0).abs() < 1e-12);
        assert_eq!(m.peak_servers(), 5);
    }

    #[test]
    fn merge_is_order_independent() {
        let mk = |t: u64, misses: u64, used: Vec<usize>, us_outage: u64| {
            let mut m = PoolMetrics {
                tasks_total: t,
                deadline_misses: misses,
                epochs: used.len() as u64,
                servers_used: used,
                ..Default::default()
            };
            m.outages.record(us(us_outage));
            m
        };
        let parts = [
            mk(100, 2, vec![3, 4], 500),
            mk(50, 1, vec![1, 1], 900),
            mk(75, 0, vec![2, 5], 1300),
        ];
        let mut fwd = PoolMetrics::default();
        for p in &parts {
            fwd.merge(p);
        }
        let mut rev = PoolMetrics::default();
        for p in parts.iter().rev() {
            rev.merge(p);
        }
        assert_eq!(fwd, rev);
        assert_eq!(fwd.tasks_total, 225);
        assert_eq!(fwd.servers_used, vec![6, 10]);
        assert_eq!(fwd.epochs, 2);
        assert_eq!(fwd.outages.count(), 3);
    }

    #[test]
    fn metrics_json_roundtrip() {
        let mut m = PoolMetrics {
            tasks_total: 7,
            ..Default::default()
        };
        m.outages.record(us(1234));
        let json = m.to_json();
        let back: PoolMetrics = serde_json::from_str(&json).unwrap();
        assert_eq!(back, m);
    }
}
