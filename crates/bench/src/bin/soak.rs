//! `soak` — run the metro simulator as a resident service.
//!
//! ```text
//! soak --serve [--listen 127.0.0.1:9184] [--cells N] [--shards N]
//!      [--workers N] [--epochs N] [--pace-ms MS] [--recorder K]
//!      [--fail-epoch E --kill M] [--seed S] [--out-dir DIR] [--prefix P]
//! ```
//!
//! Epochs are processed incrementally against streamed trace generation
//! (no run-to-completion batch, no full-trace materialization) while a
//! dependency-free HTTP endpoint answers:
//!
//! * `GET /metrics`  — OpenMetrics exposition, `# EOF`-terminated;
//! * `GET /healthz`  — liveness + epoch counter;
//! * `GET /recorder` — the flight recorder's last-K-epochs ring.
//!
//! `--epochs 0` (the default) runs until killed — a real soak.
//! `--pace-ms` throttles epoch stepping (0 = full speed).
//! `--fail-epoch E --kill M` kills `M` servers of shard 0 before epoch
//! `E`, forcing an SLO alert whose triggered flight-recorder dump lands
//! under `--out-dir` — the CI `soak-smoke` job drives exactly that.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use pran_obs::{SoakConfig, SoakRunner};
use pran_sim::{MetroConfig, ResidentMetro};

struct Args {
    serve: bool,
    listen: String,
    cells: usize,
    shards: usize,
    workers: Option<usize>,
    epochs: u64,
    pace_ms: u64,
    recorder: usize,
    fail_epoch: Option<u64>,
    kill: usize,
    seed: u64,
    out_dir: String,
    prefix: String,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        serve: false,
        listen: "127.0.0.1:9184".to_string(),
        cells: 256,
        shards: 4,
        workers: None,
        epochs: 0,
        pace_ms: 0,
        recorder: 256,
        fail_epoch: None,
        kill: 0,
        seed: 2026,
        out_dir: "results".to_string(),
        prefix: "soak".to_string(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut val = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--serve" => a.serve = true,
            "--listen" => a.listen = val()?,
            "--cells" => a.cells = val()?.parse().map_err(|e| format!("--cells: {e}"))?,
            "--shards" => a.shards = val()?.parse().map_err(|e| format!("--shards: {e}"))?,
            "--workers" => a.workers = Some(val()?.parse().map_err(|e| format!("--workers: {e}"))?),
            "--epochs" => a.epochs = val()?.parse().map_err(|e| format!("--epochs: {e}"))?,
            "--pace-ms" => a.pace_ms = val()?.parse().map_err(|e| format!("--pace-ms: {e}"))?,
            "--recorder" => {
                a.recorder = val()?.parse().map_err(|e| format!("--recorder: {e}"))?;
                if a.recorder == 0 {
                    return Err("--recorder: must keep at least 1 epoch".to_string());
                }
            }
            "--fail-epoch" => {
                a.fail_epoch = Some(val()?.parse().map_err(|e| format!("--fail-epoch: {e}"))?)
            }
            "--kill" => a.kill = val()?.parse().map_err(|e| format!("--kill: {e}"))?,
            "--seed" => a.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--out-dir" => a.out_dir = val()?,
            "--prefix" => a.prefix = val()?,
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    bench::telemetry::init_from_env();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "soak: {e}\nusage: soak --serve [--listen A:P] [--cells N] [--shards N] \
                 [--workers N] [--epochs N] [--pace-ms MS] [--recorder K] \
                 [--fail-epoch E --kill M] [--seed S] [--out-dir DIR] [--prefix P]"
            );
            return ExitCode::from(2);
        }
    };

    let mut config = MetroConfig::default_eval(args.cells, args.shards);
    config.seed = args.seed;
    if let Some(w) = args.workers {
        config.workers = w;
    }
    let metro = match ResidentMetro::try_new(config) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("soak: invalid configuration: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut runner = SoakRunner::new(
        metro,
        SoakConfig {
            recorder_capacity: args.recorder,
            dump_dir: Some(args.out_dir.clone().into()),
            dump_prefix: args.prefix.clone(),
            live_insight: true,
            ..SoakConfig::default()
        },
    );

    println!(
        "soak: {} cells / {} shards / {} workers, seed {}, recorder last {} epochs",
        args.cells, args.shards, config.workers, args.seed, args.recorder
    );
    if args.serve {
        match runner.serve(&args.listen) {
            Ok(addr) => {
                println!("soak: serving http://{addr}/metrics  /healthz  /recorder  /slo  /topk")
            }
            Err(e) => {
                eprintln!("soak: cannot bind {}: {e}", args.listen);
                return ExitCode::FAILURE;
            }
        }
    }

    let started = Instant::now();
    let mut next_report = Instant::now() + Duration::from_secs(5);
    loop {
        let epoch = runner.metro().epoch();
        if args.epochs > 0 && epoch >= args.epochs {
            break;
        }
        if let Some(fail_epoch) = args.fail_epoch {
            if epoch == fail_epoch && args.kill > 0 {
                let killed = runner.metro_mut().kill_servers(0, args.kill);
                println!("soak: epoch {epoch}: killed {killed} server(s) in shard 0");
            }
        }
        let out = runner.run_epoch();
        if let Some(path) = &out.dumped {
            println!(
                "soak: epoch {}: recorder dump -> {}",
                out.status.record.epoch,
                path.display()
            );
        }
        if Instant::now() >= next_report {
            let rec = out.status.record;
            let tasks = runner.metro().cumulative().tasks_total;
            let rate = tasks as f64 / started.elapsed().as_secs_f64().max(1e-9);
            println!(
                "soak: epoch {} | {:.2} Mtasks/s | miss {:.6} | util {:.3} | alive {}",
                rec.epoch,
                rate / 1e6,
                rec.cum_miss_ratio,
                rec.utilization,
                rec.alive_servers
            );
            next_report = Instant::now() + Duration::from_secs(5);
        }
        if args.pace_ms > 0 {
            std::thread::sleep(Duration::from_millis(args.pace_ms));
        }
    }

    let wall = started.elapsed().as_secs_f64();
    let cum = runner.metro().cumulative();
    println!(
        "soak: done — {} epochs, {} tasks in {:.1}s ({:.2} Mtasks/s), \
         cum miss ratio {:.6}, {} recorder dump(s)",
        cum.epochs,
        cum.tasks_total,
        wall,
        cum.tasks_total as f64 / wall.max(1e-9) / 1e6,
        cum.miss_ratio(),
        runner.dumps_written()
    );
    ExitCode::SUCCESS
}
