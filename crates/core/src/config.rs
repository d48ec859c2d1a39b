//! System configuration: radio, pool and fronthaul parameters.

use std::time::Duration;

use pran_insight::SloPolicy;
use pran_phy::compute::ComputeModel;
use pran_phy::frame::{AntennaConfig, Bandwidth};
use pran_phy::mcs::Mcs;
use pran_sched::placement::WarmConfig;
use pran_sim::{FailoverTiming, PoolAccel, SplitPlan};
use serde::{Deserialize, Serialize};

/// Shape of the server pool.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PoolSpec {
    /// Number of servers.
    pub servers: usize,
    /// Capacity per server in GOPS.
    pub capacity_gops: f64,
    /// Relative cost of powering one server.
    pub server_cost: f64,
}

/// Full system configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemConfig {
    /// Carrier bandwidth of every cell.
    pub bandwidth: Bandwidth,
    /// Antenna configuration of every cell.
    pub antennas: AntennaConfig,
    /// Traffic-weighted average MCS assumed for dimensioning.
    pub mcs: Mcs,
    /// The server pool.
    pub pool: PoolSpec,
    /// Placement epoch length.
    pub epoch: Duration,
    /// Demand headroom multiplier used when placing.
    pub headroom: f64,
    /// The failover price a re-placed cell is charged. Its wire key is
    /// `chaos`, where it once sat beside two bounds that are now `slo`'s;
    /// configs that still carry them read, the two keys skipped.
    pub chaos: FailoverTiming,
    /// The safety envelope: the service-level objectives the online
    /// `pran-insight` monitor enforces per epoch (miss ratio,
    /// utilization, outage, lost reports, unplaced cells), and the
    /// miss-ratio and outage bounds the chaos invariants judge.
    pub slo: SloPolicy,
    /// Warm-start placement with hysteresis. `None` (the default) keeps
    /// the cold incremental repack that re-decides every cell each epoch;
    /// `Some` makes the controller carry booked demands between epochs so
    /// repack work scales with demand churn, not cell count (see
    /// `pran_sched::placement::warm`).
    pub warm: Option<WarmConfig>,
    /// Functional split each cell runs: how much of its baseband chain
    /// the pool hosts, traded against fronthaul bytes. Serializes as a
    /// bare split tag (`"Full"`) or an array of per-cell tags; configs
    /// written before splits existed decode to the pre-split
    /// `Uniform(Full)` default.
    pub split: SplitPlan,
    /// Accelerated-server provisioning: when set, the leading fraction
    /// of pool servers carry turbo-decode accelerators. `None` (and the
    /// pre-accelerator config wire format) means a homogeneous pool.
    pub accel: Option<PoolAccel>,
}

impl SystemConfig {
    /// The demand the controller predicts for a cell at `utilization`:
    /// its UL+DL GOPS times `headroom`. The one place that expression is
    /// written; the model checker's demand table calls it too.
    pub fn predicted_gops(&self, utilization: f64) -> f64 {
        ComputeModel::calibrated().cell_gops_bidirectional(
            self.bandwidth,
            self.antennas,
            utilization,
            self.mcs,
        ) * self.headroom
    }

    /// Evaluation defaults: 20 MHz / 4×2 cells, 400-GOPS servers,
    /// 1-minute epochs, 10 % headroom.
    pub fn default_eval(servers: usize) -> Self {
        SystemConfig {
            bandwidth: Bandwidth::Mhz20,
            antennas: AntennaConfig::pran_default(),
            mcs: Mcs::new(20),
            pool: PoolSpec {
                servers,
                capacity_gops: 400.0,
                server_cost: 1.0,
            },
            epoch: Duration::from_secs(60),
            headroom: 1.1,
            chaos: FailoverTiming::default_eval(),
            slo: SloPolicy::default_eval(),
            warm: None,
            split: SplitPlan::default(),
            accel: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_consistent() {
        let c = SystemConfig::default_eval(8);
        assert_eq!(c.pool.servers, 8);
        assert!(c.headroom >= 1.0);
        assert_eq!(c.chaos.outage(), Duration::from_millis(50));
        assert!(c.slo.outage_p99_max >= c.chaos.outage());
    }

    #[test]
    fn config_serializes() {
        let c = SystemConfig::default_eval(4);
        let json = serde_json::to_string(&c).unwrap();
        let back: SystemConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn config_without_slo_hysteresis_fields_parses() {
        // Soak deployments tune SLO sensitivity through serialized
        // SystemConfigs; configs written before the hysteresis ratios
        // existed must decode to the plain edge-triggered 1.0/1.0.
        let c = SystemConfig::default_eval(4);
        let mut v = serde_json::to_value(&c).unwrap();
        if let serde_json::Value::Object(root) = &mut v {
            let serde_json::Value::Object(mut slo) = root.remove("slo").expect("slo section")
            else {
                panic!("slo must serialize as an object");
            };
            assert!(slo.remove("trigger_ratio").is_some());
            assert!(slo.remove("clear_ratio").is_some());
            root.insert("slo".into(), serde_json::Value::Object(slo));
        }
        let back: SystemConfig = serde_json::from_str(&v.to_json_string()).unwrap();
        assert_eq!(back.slo.trigger_ratio, 1.0);
        assert_eq!(back.slo.clear_ratio, 1.0);
        assert_eq!(back, c);
    }

    #[test]
    fn split_and_accel_round_trip() {
        use pran_phy::FunctionalSplit;
        let mut c = SystemConfig::default_eval(4);
        c.split = SplitPlan::PerCell(vec![
            FunctionalSplit::Full,
            FunctionalSplit::SplitII,
            FunctionalSplit::SplitIII,
        ]);
        c.accel = Some(PoolAccel { fraction: 0.25 });
        let json = serde_json::to_string(&c).unwrap();
        let back: SystemConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, c);

        // A uniform plan serializes as the bare split tag.
        c.split = SplitPlan::Uniform(FunctionalSplit::SplitII);
        let v = serde_json::to_value(&c).unwrap();
        assert_eq!(v["split"].as_str(), Some("SplitII"));
        let back: SystemConfig = serde_json::from_str(&v.to_json_string()).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn config_with_retired_keys_parses() {
        // Configs written while the failover's replan and migration
        // prices and the accelerator profile were settable carry four
        // keys nothing reads now; they must decode, the keys skipped, to
        // the one outage and the one profile.
        let mut c = SystemConfig::default_eval(4);
        c.accel = Some(PoolAccel::default_eval());
        let json = serde_json::to_string(&c).unwrap();
        let old = json
            .replace(
                r#""detection_delay":{"secs":0,"nanos":20000000}"#,
                r#""detection_delay":{"secs":0,"nanos":20000000},"replan_overhead":{"secs":0,"nanos":5000000},"migration_time_per_cell":{"secs":0,"nanos":25000000}"#,
            )
            .replace(
                r#""fraction":0.5"#,
                r#""fraction":0.5,"decode_capacity_gops":60.0,"decode_speedup":3.0"#,
            );
        assert!(old.contains("migration_time_per_cell") && old.contains("decode_speedup"));
        let back: SystemConfig = serde_json::from_str(&old).unwrap();
        assert_eq!(back.chaos.outage(), Duration::from_millis(50));
        assert_eq!(back, c);
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }

    #[test]
    fn config_without_split_fields_parses() {
        // Configs serialized before functional splits existed carry
        // neither `split` nor `accel`; they must decode to the pre-split
        // behaviour (everything pooled, homogeneous servers).
        let c = SystemConfig::default_eval(4);
        let mut v = serde_json::to_value(&c).unwrap();
        if let serde_json::Value::Object(root) = &mut v {
            assert!(root.remove("split").is_some());
            assert!(root.remove("accel").is_some());
        }
        let back: SystemConfig = serde_json::from_str(&v.to_json_string()).unwrap();
        assert_eq!(
            back.split,
            SplitPlan::Uniform(pran_phy::FunctionalSplit::Full)
        );
        assert_eq!(back.accel, None);
        assert_eq!(back, c);
    }

    #[test]
    fn unknown_split_tag_is_rejected() {
        let c = SystemConfig::default_eval(4);
        let mut v = serde_json::to_value(&c).unwrap();
        if let serde_json::Value::Object(root) = &mut v {
            root.insert("split".into(), serde_json::Value::String("SplitIV".into()));
        }
        let err = serde_json::from_str::<SystemConfig>(&v.to_json_string()).unwrap_err();
        assert!(
            err.to_string().contains("SplitIV"),
            "error must name the bad tag: {err}"
        );

        // Same for a bad tag inside a per-cell plan.
        if let serde_json::Value::Object(root) = &mut v {
            root.insert(
                "split".into(),
                serde_json::Value::Array(vec![
                    serde_json::Value::String("Full".into()),
                    serde_json::Value::String("Fronthaul".into()),
                ]),
            );
        }
        assert!(serde_json::from_str::<SystemConfig>(&v.to_json_string()).is_err());
    }
}
