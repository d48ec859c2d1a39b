//! E6 / Fig 6 — deadline-miss ratio vs pool utilization per scheduler.
//!
//! The real-time feasibility leg: per-TTI subframe tasks with the 2 ms
//! HARQ compute budget, scheduled on a multicore pool. Reproduced shapes:
//! global EDF sustains near-full utilization before missing; global FIFO
//! degrades a little earlier; statically partitioned cores (the
//! distributed-RAN stand-in) fall off far sooner because per-cell skew
//! cannot be absorbed.

use bench::Report;
use pran_sched::realtime::workload::{generate, TaskSetConfig};
use pran_sched::realtime::{simulate, ParallelConfig, ParallelExecutor, Policy};

/// `--critical-path`: read the sample trace back through
/// `pran-insight` and print the per-stage attribution (fronthaul /
/// queue / steal / compute) of every missed deadline. Runs after the
/// normal sample flow so the committed artifacts stay byte-identical.
fn critical_path_report(trace_path: &str) {
    let text = std::fs::read_to_string(trace_path).expect("sample trace must exist");
    let events = pran_telemetry::export::parse_jsonl(&text).expect("sample trace must parse");
    let paths = pran_insight::critical_paths(&events, pran_insight::DEFAULT_BUDGET_US);
    if paths.is_empty() {
        println!("\n(no deadline misses in this trace)");
        return;
    }
    println!();
    print!("{}", pran_insight::spans::attribution_table(&paths));
    for p in &paths {
        // The stages partition [arrival, finish], so attribution is
        // exact by construction — assert it anyway so a drifted trace
        // schema fails loudly here rather than silently mis-reporting.
        assert_eq!(
            p.attributed_us(),
            p.latency_us,
            "stage attribution must sum to the measured subframe latency"
        );
    }
    println!(
        "[attribution check: {} paths, stage sums match measured latency exactly]",
        paths.len()
    );
}

/// `--sample`: a small deterministic run that exercises the telemetry
/// path end to end — simulated-clock tracing on, one analytic and one
/// (non-stealing, hence deterministic) parallel-executor pass, trace
/// written to `results/e6_deadlines_sample.trace.jsonl` and validated
/// against the exporter schema. `run_experiments.sh` runs this. Add
/// `--critical-path` to also analyze the written trace with
/// `pran-insight` and print missed-deadline attribution.
fn sample(critical_path: bool) {
    pran_telemetry::configure(pran_telemetry::TelemetryConfig::sim());
    pran_telemetry::metrics::global().clear();
    println!("E6 (sample mode): deterministic telemetry smoke run (analytic EDF, parallel pinned)");

    let (cells, ttis, cores, util) = (8, 100, 4, 0.9);
    let mut cfg = TaskSetConfig::default_eval(cells, ttis, cores, util);
    cfg.seed = 0xE6;
    let set = generate(&cfg);
    let analytic = simulate(&set.tasks, cores, Policy::GlobalEdf);
    let exec = ParallelExecutor::new(ParallelConfig {
        cores,
        batch: 1,
        steal: false,
    });
    let parallel = exec.execute(&set.tasks);

    Report::new("e6_deadlines_sample")
        .meta("mode", serde_json::json!("sample"))
        .meta("cells", serde_json::json!(cells))
        .meta("ttis", serde_json::json!(ttis))
        .meta("cores", serde_json::json!(cores))
        .meta("target_utilization", serde_json::json!(util))
        .meta("seed", serde_json::json!(cfg.seed))
        .section(
            "analytic_miss_ratio",
            serde_json::json!(analytic.miss_ratio()),
        )
        .section(
            "parallel_miss_ratio",
            serde_json::json!(parallel.miss_ratio()),
        )
        .save();

    let path = "results/e6_deadlines_sample.trace.jsonl";
    let text = std::fs::read_to_string(path).expect("sample run must write a trace");
    match pran_telemetry::export::validate_jsonl(&text) {
        Ok(n) => println!("[trace validated: {n} events conform to the exporter schema]"),
        Err(e) => {
            eprintln!("trace validation failed: {e}");
            std::process::exit(1);
        }
    }
    if critical_path {
        critical_path_report(path);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let critical_path = args.iter().any(|a| a == "--critical-path");
    if args.iter().any(|a| a == "--sample") {
        sample(critical_path);
        return;
    }
    if critical_path {
        // Analyze an existing sample trace without re-running anything.
        critical_path_report("results/e6_deadlines_sample.trace.jsonl");
        return;
    }
    bench::telemetry::init_from_env();
    let cells = 12;
    let ttis = 400;
    let cores = 4;
    println!(
        "E6: deadline misses vs utilization ({cells} cells, {cores} cores, {ttis} TTIs, 2 ms budget)"
    );

    let mut json_rows = Vec::new();
    for &util in &[0.5f64, 0.6, 0.7, 0.8, 0.85, 0.9, 0.95, 1.0, 1.05] {
        let mut cfg = TaskSetConfig::default_eval(cells, ttis, cores, util);
        cfg.seed = 0xE6 + (util * 100.0) as u64;
        let set = generate(&cfg);
        let mut misses = serde_json::Map::new();
        for policy in Policy::all() {
            let out = simulate(&set.tasks, cores, policy);
            misses.insert(
                policy.label().to_string(),
                serde_json::json!(out.miss_ratio()),
            );
        }
        json_rows.push(serde_json::json!({
            "target_utilization": util,
            "achieved_utilization": set.utilization,
            "miss_ratio": misses,
        }));
    }

    // Where does each policy first exceed 1 % misses? (`null`: never.)
    let mut knees = serde_json::Map::new();
    for policy in Policy::all() {
        let knee = json_rows.iter().find_map(|r| {
            let m = r["miss_ratio"][policy.label()].as_f64().unwrap();
            (m > 0.01).then(|| r["target_utilization"].as_f64().unwrap())
        });
        knees.insert(policy.label().to_string(), serde_json::json!(knee));
    }
    println!(
        "shape check: EDF knee ≥ FIFO knee > partitioned knee — pooling the\n\
         cores (global scheduling) is what lets the pool run hot safely."
    );

    // == Parallel executor: miss fraction vs cores-per-server × load ==
    //
    // Same generator, but run through the work-stealing multicore
    // executor (greedy non-preemptive schedule on virtual per-core
    // clocks) instead of the analytic scheduler model. Cells scale with
    // cores (3 per core) the way a bigger pooled server hosts more
    // cells, keeping per-task size fixed relative to the 2 ms budget —
    // otherwise "more cores" silently means "chunkier tasks". Stealing
    // is the pooling gain in miniature: with it, adding cores pushes
    // the miss knee toward full utilization; pinned (`steal = false`)
    // cores strand capacity exactly like statically partitioned
    // servers.
    let mut parallel_rows = Vec::new();
    for &util in &[0.5f64, 0.7, 0.8, 0.9, 0.95, 1.0] {
        let mut by_cores = Vec::new();
        for c in [1usize, 2, 4, 8] {
            let mut cfg = TaskSetConfig::default_eval(3 * c, ttis, c, util);
            cfg.seed = 0x6E + (util * 100.0) as u64;
            let set = generate(&cfg);
            let mut entry = serde_json::Map::new();
            entry.insert("cores".into(), serde_json::json!(c));
            for steal in [true, false] {
                let exec = ParallelExecutor::new(ParallelConfig {
                    cores: c,
                    batch: 1,
                    steal,
                });
                let out = exec.execute(&set.tasks);
                let key = if steal { "steal" } else { "pinned" };
                entry.insert(
                    key.into(),
                    serde_json::json!({
                        "miss_ratio": out.miss_ratio(),
                        "steals": out.steals,
                        "min_slack_us": out.min_slack_us(),
                        "utilization": out.utilization(),
                    }),
                );
            }
            by_cores.push(serde_json::Value::Object(entry));
        }
        parallel_rows.push(serde_json::json!({
            "target_utilization": util,
            "cores": by_cores,
        }));
    }
    println!(
        "shape check: at fixed load, stealing miss ratios stay near 0 while the\n\
         pinned ones climb — and more cores only help when they can steal."
    );

    // Batch granularity at 4 cores, hot load: a batch is the dispatch
    // and steal unit, so batching consecutive 1 ms-spaced TTIs of one
    // cell serializes them on one core and manufactures misses even
    // with idle cores — the latency cost of amortizing dispatch.
    let mut batch_rows = Vec::new();
    let mut cfg = TaskSetConfig::default_eval(cells, ttis, 4, 0.9);
    cfg.seed = 0xBA7C;
    let set = generate(&cfg);
    for &batch in &[1usize, 2, 4, 8] {
        let exec = ParallelExecutor::new(ParallelConfig {
            cores: 4,
            batch,
            steal: true,
        });
        let out = exec.execute(&set.tasks);
        batch_rows.push(serde_json::json!({
            "batch": batch,
            "miss_ratio": out.miss_ratio(),
            "steals": out.steals,
            "min_slack_us": out.min_slack_us(),
        }));
    }

    Report::new("e6_deadlines")
        .meta("cells", serde_json::json!(cells))
        .meta("ttis", serde_json::json!(ttis))
        .meta("cores", serde_json::json!(cores))
        .section("sweep", serde_json::json!(json_rows))
        .section("knees", serde_json::Value::Object(knees))
        .section("parallel_sweep", serde_json::json!(parallel_rows))
        .section("batch_sweep", serde_json::json!(batch_rows))
        .save();
}
