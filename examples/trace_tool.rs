//! Trace tool: generate, inspect and convert load traces from the CLI.
//!
//! ```sh
//! cargo run --example trace_tool -- generate 20 42 /tmp/city.json
//! cargo run --example trace_tool -- inspect /tmp/city.json
//! cargo run --example trace_tool -- csv /tmp/city.json /tmp/city.csv
//! ```

use std::fs;
use std::process::ExitCode;

use pran::traces::{generate, Trace, TraceConfig};

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  trace_tool generate <cells> <seed> <out.json>   24 h trace\n  \
         trace_tool inspect <in.json>                    print statistics\n  \
         trace_tool csv <in.json> <out.csv>              convert to CSV"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("generate") if args.len() == 4 => {
            let (cells, seed) = match (args[1].parse(), args[2].parse()) {
                (Ok(c), Ok(s)) => (c, s),
                _ => return usage(),
            };
            let trace = generate(&TraceConfig::default_day(cells, seed));
            fs::write(&args[3], trace.to_json()).expect("write output");
            println!(
                "wrote {} ({} cells × {} steps)",
                args[3],
                trace.num_cells(),
                trace.num_steps()
            );
            ExitCode::SUCCESS
        }
        Some("inspect") if args.len() == 2 => {
            let json = fs::read_to_string(&args[1]).expect("read input");
            let trace = match Trace::from_json(&json) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("invalid trace: {e}");
                    return ExitCode::FAILURE;
                }
            };
            println!(
                "{}: {} cells × {} steps ({:.1} h at {:.0} s/step)",
                args[1],
                trace.num_cells(),
                trace.num_steps(),
                trace.duration_seconds() / 3600.0,
                trace.step_seconds
            );
            println!("  sum of per-cell peaks: {:.2}", trace.sum_of_peaks());
            println!("  peak of aggregate:     {:.2}", trace.peak_of_sum());
            println!("  multiplexing gain:     {:.2}×", trace.multiplexing_gain());
            println!(
                "  pooling saving:        {:.0}%",
                trace.pooling_saving() * 100.0
            );
            for c in 0..trace.num_cells().min(8) {
                println!(
                    "  cell {c:>2} [{}]: peak {:.2}, mean {:.2}, PTM {:.2}",
                    trace.cells[c].class,
                    trace.cell_peak(c),
                    trace.cell_mean(c),
                    trace.cell_peak_to_mean(c)
                );
            }
            if trace.num_cells() > 8 {
                println!("  … and {} more cells", trace.num_cells() - 8);
            }
            ExitCode::SUCCESS
        }
        Some("csv") if args.len() == 3 => {
            let json = fs::read_to_string(&args[1]).expect("read input");
            let trace = Trace::from_json(&json).expect("valid trace");
            fs::write(&args[2], trace.to_csv()).expect("write output");
            println!("wrote {}", args[2]);
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}
