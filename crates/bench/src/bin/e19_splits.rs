//! E19 — functional splits × heterogeneous accelerated servers: the
//! fronthaul-capacity vs pooling-gain frontier.
//!
//! Sweeps a sharded metro across split mixes (all cells `Full`, a
//! per-cell round-robin mix, all `SplitII`, all `SplitIII`) and
//! accelerator fractions (0, ½, all servers carrying a turbo-decode
//! accelerator). Each run arms a *clean* fronthaul link per cell —
//! no drops, no jitter — purely so the simulator meters the split's
//! per-TTI frame bytes ([`FunctionalSplit::fronthaul_bytes_per_tti`]).
//! The frontier the paper trades on falls out per row: lower splits
//! buy pooling (bigger centralized GOPS demand → more statistical
//! multiplexing) at the price of fronthaul bytes; higher splits shrink
//! the fronthaul ~4–16× but strand compute at the cell site.
//!
//! Exit status is non-zero if any structural claim fails:
//!
//! * **Bit-identity** — an explicitly configured `Uniform(Full)` +
//!   homogeneous-pool metro must serialize byte-identically to the
//!   default [`MetroSimulator::try_new`] run (splits and accelerators
//!   are strictly opt-in; the pre-split E15 envelope is untouched).
//! * **Fronthaul monotonicity** — per accelerator fraction, total bytes
//!   strictly shrink from `full` through `split3`, and bytes do not
//!   depend on the accelerator fraction at all (accelerators change
//!   where compute runs, never what crosses the fronthaul).
//! * **Demand monotonicity** — pooled peak GOPS shrink as the split
//!   moves up (less of the chain is centralized).
//! * **Gain sanity** — every sharding gain is ≥ 1.

use std::process::ExitCode;

use bench::Report;
use pran_fronthaul::fault::FaultConfig;
use pran_phy::FunctionalSplit;
use pran_sim::{
    LinkFault, MetroConfig, MetroReport, MetroSimulator, PoolAccel, PoolConfig, SplitPlan,
};
use pran_traces::TraceConfig;

/// The swept split mixes, most to least centralized.
const MIXES: [&str; 4] = ["full", "mixed", "split2", "split3"];

fn mix_plan(mix: &str, cells: usize) -> SplitPlan {
    match mix {
        "full" => SplitPlan::Uniform(FunctionalSplit::Full),
        "split2" => SplitPlan::Uniform(FunctionalSplit::SplitII),
        "split3" => SplitPlan::Uniform(FunctionalSplit::SplitIII),
        "mixed" => SplitPlan::PerCell((0..cells).map(|c| FunctionalSplit::all()[c % 3]).collect()),
        other => panic!("unknown mix {other}"),
    }
}

fn run_metro(
    cells: usize,
    shards: usize,
    seed: u64,
    plan: SplitPlan,
    accel: Option<PoolAccel>,
    meter_fronthaul: bool,
) -> MetroReport {
    let mut config = MetroConfig::default_eval(cells, shards);
    config.seed = seed;
    let mut pool = PoolConfig::default_eval(config.servers_per_shard.max(1));
    pool.warm = Some(pran_sched::placement::WarmConfig::default_eval());
    pool.split_plan = plan;
    pool.accel = accel;
    if meter_fronthaul {
        // A clean per-cell link: every frame is delivered with zero
        // delay, so outcomes match the linkless run while the byte
        // meter sees each split's true frame size.
        pool.fronthaul = Some(LinkFault {
            config: FaultConfig::clean(),
            seed,
        });
    }
    let trace = TraceConfig::default_day(cells.max(1), seed);
    MetroSimulator::with_pool(config, pool, trace)
        .expect("metro config validates")
        .run()
}

fn main() -> ExitCode {
    bench::telemetry::init_from_env();

    let cells = 256usize;
    let shards = 4usize;
    let seed = 2026u64;

    println!("E19: functional splits × accelerated servers ({cells} cells, {shards} shards, seed {seed})\n");

    // --- the frontier: split mix × accelerator fraction ---
    // Minority fractions: with plain servers always available, affinity
    // placement spills decode-heavy cells past saturated accelerators
    // instead of shedding them (an all-accelerated pool whose 80-GOPS
    // accelerators bind *does* shed cells at peak — the placement unit
    // tests cover that regime; here the frontier stays loss-free).
    let fractions = [0.0f64, 0.25, 0.5];
    let mut frontier = Vec::new();
    // bytes[mix][fraction], peaks[mix][fraction] for the structural checks.
    let mut bytes = vec![vec![0u64; fractions.len()]; MIXES.len()];
    let mut peaks = vec![vec![0f64; fractions.len()]; MIXES.len()];
    let mut gains_ok = true;
    for (mi, mix) in MIXES.iter().enumerate() {
        for (fi, &fraction) in fractions.iter().enumerate() {
            let accel = (fraction > 0.0).then_some(PoolAccel { fraction });
            let report = run_metro(cells, shards, seed, mix_plan(mix, cells), accel, true);
            let m = &report.metrics;
            let gain = report.sharding_gain();
            gains_ok &= gain >= 1.0 - 1e-9;
            bytes[mi][fi] = m.fronthaul_bytes;
            peaks[mi][fi] = report.peak_of_total();
            frontier.push(serde_json::json!({
                "mix": mix,
                "accel_fraction": fraction,
                "fronthaul_bytes": m.fronthaul_bytes,
                "bytes_per_task": m.fronthaul_bytes as f64 / m.tasks_total.max(1) as f64,
                "peak_of_total_gops": report.peak_of_total(),
                "sum_of_shard_peaks_gops": report.sum_of_shard_peaks(),
                "sharding_gain": gain,
                "miss_ratio": m.miss_ratio(),
                "tasks_total": m.tasks_total,
                "deadline_misses": m.deadline_misses,
            }));
        }
    }

    // --- structural checks over the sweep ---
    // Fronthaul bytes shrink strictly as the split moves up, at every
    // accelerator fraction, and never depend on the fraction itself.
    let full = MIXES.iter().position(|m| *m == "full").unwrap();
    let mixed = MIXES.iter().position(|m| *m == "mixed").unwrap();
    let split2 = MIXES.iter().position(|m| *m == "split2").unwrap();
    let split3 = MIXES.iter().position(|m| *m == "split3").unwrap();
    let mut bytes_monotone = true;
    let mut bytes_accel_invariant = true;
    for fi in 0..fractions.len() {
        bytes_monotone &= bytes[full][fi] > bytes[mixed][fi]
            && bytes[mixed][fi] > bytes[split2][fi]
            && bytes[split2][fi] > bytes[split3][fi];
        bytes_accel_invariant &= bytes.iter().all(|row| row[fi] == row[0]);
    }
    // Pooled demand shrinks as the split moves up (fraction 0 column).
    let demand_monotone = peaks[full][0] > peaks[mixed][0]
        && peaks[mixed][0] > peaks[split2][0]
        && peaks[split2][0] > peaks[split3][0];

    // --- bit-identity: explicit Full + homogeneous == the default run ---
    let explicit = run_metro(
        cells,
        shards,
        seed,
        SplitPlan::Uniform(FunctionalSplit::Full),
        None,
        false,
    );
    let mut default_config = MetroConfig::default_eval(cells, shards);
    default_config.seed = seed;
    let default_report = MetroSimulator::try_new(default_config)
        .expect("metro config validates")
        .run();
    let explicit_json = serde_json::to_string(&explicit).unwrap();
    let default_json = serde_json::to_string(&default_report).unwrap();
    let differential_ok = explicit_json == default_json;

    println!(
        "\nshape check: each step up the split ladder divides the fronthaul\n\
         bytes (~32 B/TTI at Full down to ~3 B/TTI at SplitIII) and shaves\n\
         the pooled GOPS demand; accelerators bend service times, never bytes."
    );

    Report::new("e19_splits")
        .meta("cells", serde_json::json!(cells))
        .meta("shards", serde_json::json!(shards))
        .meta("seed", serde_json::json!(seed))
        .meta("accel_fractions", serde_json::json!(fractions.to_vec()))
        .section("frontier", serde_json::Value::Array(frontier))
        .section(
            "checks",
            serde_json::json!({
                "bytes_monotone": bytes_monotone,
                "bytes_accel_invariant": bytes_accel_invariant,
                "demand_monotone": demand_monotone,
                "gains_ok": gains_ok,
            }),
        )
        .section(
            "full_split_differential",
            serde_json::json!({
                "explicit_matches_default": differential_ok,
                "report_bytes": default_json.len(),
            }),
        )
        .save();

    if bytes_monotone && bytes_accel_invariant && demand_monotone && gains_ok && differential_ok {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "E19 FAILED: bytes_monotone={bytes_monotone} \
             bytes_accel_invariant={bytes_accel_invariant} \
             demand_monotone={demand_monotone} gains_ok={gains_ok} \
             full_split_differential={differential_ok}"
        );
        ExitCode::FAILURE
    }
}
