//! The controller's configuration: radio, pool and placement parameters.

use std::time::Duration;

use pran_insight::SloPolicy;
use pran_phy::compute::ComputeModel;
use pran_phy::frame::{AntennaConfig, Bandwidth};
use pran_phy::mcs::Mcs;
use pran_sched::placement::WarmConfig;
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

/// The controller's configuration. A config written while it also
/// carried the simulator's failover price (`chaos`), split plan
/// (`split`) or accelerator profile (`accel`) reads, those keys skipped:
/// the controller never read them.
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
            slo: SloPolicy::default_eval(),
            warm: None,
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
    fn config_with_retired_keys_parses() {
        // A config as the controller wrote it while it carried the
        // failover price (with the replan and migration prices retired
        // before it), a split plan and an accelerator profile (with its
        // two retired keys). Nothing reads those sections: whatever they
        // hold, a per-cell plan or a tag no split has, they decode
        // skipped, to the config without them.
        let written = serde_json::to_string(&SystemConfig::default_eval(4)).unwrap();
        for split in [r#"["Full","SplitII","SplitIII"]"#, r#""SplitIV""#] {
            let old = format!(
                concat!(
                    r#"{{"bandwidth":"Mhz20","antennas":{{"antennas":4,"layers":2}},"mcs":20,"#,
                    r#""pool":{{"servers":4,"capacity_gops":400.0,"server_cost":1.0}},"#,
                    r#""epoch":{{"secs":60,"nanos":0}},"headroom":1.1,"#,
                    r#""chaos":{{"detection_delay":{{"secs":0,"nanos":20000000}},"#,
                    r#""replan_overhead":{{"secs":0,"nanos":5000000}},"#,
                    r#""migration_time_per_cell":{{"secs":0,"nanos":25000000}}}},"#,
                    r#""slo":{{"miss_ratio_max":0.01,"utilization_max":0.95,"#,
                    r#""outage_p99_max":{{"secs":0,"nanos":200000000}},"reports_lost_max":0,"#,
                    r#""unplaced_max":0,"trigger_ratio":1.0,"clear_ratio":1.0}},"warm":null,"#,
                    r#""split":{},"#,
                    r#""accel":{{"fraction":0.25,"decode_capacity_gops":60.0,"decode_speedup":3.0}}}}"#,
                ),
                split
            );
            let back: SystemConfig = serde_json::from_str(&old).unwrap();
            assert_eq!(back, SystemConfig::default_eval(4), "{split}");
            assert_eq!(serde_json::to_string(&back).unwrap(), written, "{split}");
        }
    }

    #[test]
    fn split_and_accel_round_trip() {
        // A split plan, per-cell or a bare uniform tag, and an
        // accelerator profile go in; the config comes back without them,
        // and writes as it did before they were added.
        let c = SystemConfig::default_eval(4);
        let written = serde_json::to_string(&c).unwrap();
        for split in [
            serde_json::json!(["Full", "SplitII", "SplitIII"]),
            serde_json::json!("SplitII"),
        ] {
            let mut v = serde_json::to_value(&c).unwrap();
            if let serde_json::Value::Object(root) = &mut v {
                root.insert("split".into(), split.clone());
                root.insert("accel".into(), serde_json::json!({ "fraction": 0.25 }));
            }
            let back: SystemConfig = serde_json::from_str(&v.to_json_string()).unwrap();
            assert_eq!(back, c, "{split}");
            assert_eq!(serde_json::to_string(&back).unwrap(), written, "{split}");
        }
    }

    #[test]
    fn config_without_split_fields_parses() {
        // The config writes neither `split` nor `accel` (nor `chaos`),
        // and reads back from that form; so does a config written before
        // splits existed, which carried `chaos` alone.
        let c = SystemConfig::default_eval(4);
        let mut v = serde_json::to_value(&c).unwrap();
        for key in ["split", "accel", "chaos"] {
            assert!(v.get(key).is_none(), "{key} is written");
        }
        let back: SystemConfig = serde_json::from_str(&v.to_json_string()).unwrap();
        assert_eq!(back, c);

        if let serde_json::Value::Object(root) = &mut v {
            root.insert(
                "chaos".into(),
                serde_json::json!({ "detection_delay": { "secs": 0, "nanos": 20_000_000 } }),
            );
        }
        let back: SystemConfig = serde_json::from_str(&v.to_json_string()).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn unknown_split_tag_is_rejected() {
        // The config skips its retired `split` key whatever it holds
        // (`config_with_retired_keys_parses`); where a split is still
        // read, as a `FunctionalSplit`, a tag no split has is an error
        // that names it, alone or inside a per-cell list.
        use pran_phy::compute::FunctionalSplit;
        let err = serde_json::from_str::<FunctionalSplit>(r#""SplitIV""#).unwrap_err();
        assert!(
            err.to_string().contains("SplitIV"),
            "error must name the bad tag: {err}"
        );
        let err =
            serde_json::from_str::<Vec<FunctionalSplit>>(r#"["Full","Fronthaul"]"#).unwrap_err();
        assert!(
            err.to_string().contains("Fronthaul"),
            "error must name the bad tag: {err}"
        );
        assert_eq!(
            serde_json::from_str::<Vec<FunctionalSplit>>(r#"["Full","SplitII","SplitIII"]"#)
                .unwrap(),
            FunctionalSplit::all()
        );
    }
}
