//! The benchmark's contract: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics. `BENCHMARK.json` at the
//! repository root is [`benchmark_json`] written to a file; a unit test
//! keeps the two identical.

/// How long one run measures, seconds (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 10;

/// A named workload and the one-line reason it exists.
pub struct Workload {
    /// Normative name (`--workload`).
    pub name: &'static str,
    /// Why the workload exists: what it stresses and what it bypasses.
    pub why: &'static str,
}

/// The seven workloads.
pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "metro_clean",
        why: "North-star path: 10,000 cells / 8 shards, ideal fronthaul, heap-free FIFO dispatch; the per-TTI execute sweep does most of the work, so fast-path gains show here.",
    },
    Workload {
        name: "metro_degraded",
        why: "Same pool layer under 1 % loss, 800 us jitter, per-cell splits and accelerators: FaultInjector work and heap dispatch dominate, so a fast-path gain that taxes them shows as a loss.",
    },
    Workload {
        name: "pool_parallel",
        why: "128 cells through ParallelExecutor (4 cores, batch 4, no steal): thread spawn per server-step does nearly all the work and every other layer idles.",
    },
    Workload {
        name: "resident_live",
        why: "Resident soak with live tap, SLO, recorder and a closed-loop scraper: the telemetry, insight and obs planes do real work here and none in the metro workloads.",
    },
    Workload {
        name: "control_day",
        why: "Controller alone (3,000 cells, 1,500 servers, warm placer, failover and load-balancer apps, a failure every 8th step): host time of the control decision with no per-TTI simulation to mask it.",
    },
    Workload {
        name: "placement_exact",
        why: "40 ten-cell peak-hour instances solved exactly by node-limited branch and bound: pran-ilp presolve, simplex and B&B do all the work and no other workload touches them.",
    },
    Workload {
        name: "mc_explore",
        why: "Exhaustive exploration at 4 cells / 3 servers / depth 8 under linearizable and stale views with every state replayed: pran-mc and the controller replay path only.",
    },
];

/// An end-to-end metric: what a user of the system sees. Every workload
/// reports every one of these, in its own unit of work (see README).
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// The end-to-end metrics. All four bounds sit at the contract's 0.25
/// ceiling: on the two-core shared hosts this runs on, identical code
/// drifts by 10–25 % between ten-second runs (README, noise study).
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "work_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "op_ms_p50",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.25,
    },
];

/// A per-layer metric (layer = crate or module), measured only in the
/// traced run. A layer a workload leaves idle reads 0 there.
pub struct Layer {
    /// `<layer>.<metric>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Layer {
    Layer { name, unit, better }
}

/// The per-layer metrics: timings first, then the end-to-end latencies
/// that only one workload has, then the exact-repeat counts.
pub const PER_LAYER: [Layer; 66] = [
    layer("traces.generate_ms", "ms", "lower"),
    layer("traces.ingest_ms", "ms", "lower"),
    layer("placement.dispatch_ms", "ms", "lower"),
    layer("placement.dispatch_ms_p99", "ms", "lower"),
    layer("placement.warm_epoch_ms_p50", "ms", "lower"),
    layer("placement.cold_repack_ms_p50", "ms", "lower"),
    layer("placement.bfd_ms_p50", "ms", "lower"),
    layer("realtime.fifo_ns_per_task", "ns/task", "lower"),
    layer("realtime.heap_ns_per_task", "ns/task", "lower"),
    layer("realtime.parallel_us_per_call", "us/call", "lower"),
    layer("sim.execute_ms", "ms", "lower"),
    layer("sim.execute_ns_per_task", "ns/task", "lower"),
    layer("sim.merge_ms", "ms", "lower"),
    layer("sim.shard_imbalance", "ratio", "lower"),
    layer("sim.unattributed_pct", "%", "lower"),
    layer("sim.resident_vs_batch_ratio", "ratio", "lower"),
    layer("fronthaul.offer_ns", "ns", "lower"),
    layer("phy.cell_gops_ns", "ns", "lower"),
    layer("ctrl.report_load_ns", "ns", "lower"),
    layer("ctrl.view_ms", "ms", "lower"),
    layer("ctrl.snapshot_roundtrip_ms", "ms", "lower"),
    layer("ctrl.residual_ms_p50", "ms", "lower"),
    layer("ilp.nodes_per_s", "1/s", "higher"),
    layer("ilp.pivots_per_s", "1/s", "higher"),
    layer("ilp.build_model_ms", "ms", "lower"),
    layer("telemetry.tap_ns_per_task", "ns/task", "lower"),
    layer("telemetry.drain_ms", "ms", "lower"),
    layer("telemetry.registry_snapshot_us", "us", "lower"),
    layer("insight.fold_ns_per_event", "ns/event", "lower"),
    layer("insight.render_us", "us", "lower"),
    layer("insight.sketch_record_ns", "ns", "lower"),
    layer("insight.sketch_merge_ns", "ns", "lower"),
    layer("obs.telemetry_phase_ms_p50", "ms", "lower"),
    layer("obs.scrape_slo_us_p50", "us", "lower"),
    layer("obs.scrape_topk_us_p50", "us", "lower"),
    layer("obs.scrape_recorder_us_p50", "us", "lower"),
    layer("obs.metrics_payload_bytes", "bytes", "lower"),
    layer("obs.recorder_push_ns", "ns", "lower"),
    layer("mc.transitions_per_s", "1/s", "higher"),
    layer("mc.conformance_share", "ratio", "lower"),
    layer("bench.trace_overhead_pct", "%", "lower"),
    // Latencies one workload's user sees. Every end-to-end metric must
    // exist on every workload, and no tail held a 25 % bound in the noise
    // study, so these live here (see README); `_tail` is the highest
    // percentile with ten samples beyond it.
    layer("service_epoch_ms_p50", "ms", "lower"),
    layer("service_epoch_ms_tail", "ms", "lower"),
    layer("scrape_us_p50", "us", "lower"),
    layer("scrape_us_tail", "us", "lower"),
    layer("ctrl_epoch_ms_p50", "ms", "lower"),
    layer("ctrl_epoch_ms_tail", "ms", "lower"),
    layer("failover_ms_p50", "ms", "lower"),
    layer("failover_ms_tail", "ms", "lower"),
    // Exact-repeat counts: two runs of one commit with one seed agree to
    // the last digit. Reported as counts, never as speed-ups.
    layer("sim.tasks_total", "count", "higher"),
    layer("sim.deadline_misses", "count", "lower"),
    layer("sim.tasks_lost", "count", "lower"),
    layer("sim.reports_lost", "count", "lower"),
    layer("sim.migrations", "count", "lower"),
    layer("sim.fronthaul_bytes", "bytes", "lower"),
    layer("sim.peak_servers", "count", "lower"),
    layer("sim.sharding_gain", "ratio", "lower"),
    layer("telemetry.live_dropped", "count", "lower"),
    layer("ctrl.migrations", "count", "lower"),
    layer("ctrl.unplaced_max", "count", "lower"),
    layer("ilp.nodes", "count", "lower"),
    layer("ilp.lp_iterations", "count", "lower"),
    layer("ilp.optimal_share", "ratio", "higher"),
    layer("mc.states", "count", "higher"),
    layer("mc.transitions", "count", "higher"),
    layer("mc.dedup_ratio", "ratio", "higher"),
];

/// Names of the exact-repeat counts within [`PER_LAYER`].
#[cfg(test)]
pub fn exact_repeat_counts() -> impl Iterator<Item = &'static str> {
    PER_LAYER
        .iter()
        .skip_while(|l| l.name != "sim.tasks_total")
        .map(|l| l.name)
}

fn quote(s: &str) -> String {
    serde_json::to_string(s).expect("strings serialize")
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                quote(w.name),
                quote(w.why)
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                quote(m.name),
                quote(m.unit),
                quote(m.better),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quote(m.name),
                quote(m.unit),
                quote(m.better)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn benchmark_json_at_the_root_is_this_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `pran-benchmark --print-benchmark-json > BENCHMARK.json`"
        );
    }

    #[test]
    fn catalog_obeys_the_contract_limits() {
        let doc: serde_json::Value = serde_json::from_str(&benchmark_json()).expect("valid JSON");
        assert!(benchmark_json().len() <= 64 * 1024);
        let name_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(names.insert(w.name), "{} used twice", w.name);
        }
        for m in &END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(matches!(m.better, "higher" | "lower"));
            assert!(names.insert(m.name), "{} used twice", m.name);
        }
        for m in &PER_LAYER {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(matches!(m.better, "higher" | "lower"));
            assert!(names.insert(m.name), "{} used twice", m.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
        assert_eq!(exact_repeat_counts().count(), 17);
        assert_eq!(
            doc.get("workloads")
                .and_then(|w| w.as_array())
                .map(Vec::len),
            Some(WORKLOADS.len())
        );
    }
}
