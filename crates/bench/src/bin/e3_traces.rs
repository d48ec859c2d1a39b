//! E3 / Fig 3 — per-cell load variation over a day.
//!
//! Reconstructs the trace-characterization figure: per-class diurnal
//! shapes, peak hours, peak-to-mean ratios, and the inter-cell correlation
//! structure that makes pooling pay. (The paper used proprietary operator
//! traces; this regenerates the same *statistics* from the synthetic
//! generator — see DESIGN.md's substitution table.)

use bench::Report;
use pran_traces::{generate, pearson, CellClass, DiurnalProfile, TraceConfig};

fn main() {
    bench::telemetry::init_from_env();
    println!("E3: per-cell load over a day (synthetic operator traces; a city of 60 cells, 24 h, 1-min steps)");

    // Per-class profile characteristics.
    let mut json_classes = Vec::new();
    for class in CellClass::all() {
        let p = DiurnalProfile::for_class(class);
        json_classes.push(serde_json::json!({
            "class": class.to_string(),
            "peak_hour": p.peak_hour(),
            "daily_mean": p.daily_mean(),
            "peak_to_mean": p.peak_to_mean(),
        }));
    }

    let trace = generate(&TraceConfig::default_day(60, 2014));
    let agg = trace.aggregate_series();

    // Correlation structure: same-class vs cross-class.
    let mut same = Vec::new();
    let mut cross = Vec::new();
    for a in 0..trace.num_cells() {
        for b in (a + 1)..trace.num_cells() {
            let r = trace.correlation(a, b);
            if trace.cells[a].class == trace.cells[b].class {
                same.push(r);
            } else {
                cross.push(r);
            }
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    println!(
        "shape check: same-class cells move together (r≈{:.2}) while cross-class \
         cells decorrelate (r≈{:.2}) — the imperfect correlation pooling exploits",
        mean(&same),
        mean(&cross)
    );

    // Hourly aggregate profile (the figure's x-axis).
    let steps_per_hour = (3600.0 / trace.step_seconds) as usize;
    let hourly: Vec<f64> = (0..24)
        .map(|h| {
            let lo = h * steps_per_hour;
            let hi = ((h + 1) * steps_per_hour).min(agg.len());
            agg[lo..hi].iter().sum::<f64>() / (hi - lo) as f64 / trace.num_cells() as f64
        })
        .collect();

    // Sanity against the smoothed `pearson` helper.
    let self_r = pearson(&agg, &agg);
    assert!((self_r - 1.0).abs() < 1e-9);

    Report::new("e3_traces")
        .meta("cells", serde_json::json!(60))
        .meta("seed", serde_json::json!(2014))
        .section("classes", serde_json::json!(json_classes))
        .section(
            "multiplexing_gain",
            serde_json::json!(trace.multiplexing_gain()),
        )
        .section("pooling_saving", serde_json::json!(trace.pooling_saving()))
        .section("same_class_corr", serde_json::json!(mean(&same)))
        .section("cross_class_corr", serde_json::json!(mean(&cross)))
        .section("hourly_aggregate", serde_json::json!(hourly))
        .save();
}
