//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload of the OpenDRC benchmark from the repository root
//! and prints, as its last line, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (end-to-end metrics with
//! `--trace 0`, per-layer metrics with `--trace 1`). Exits 1 when any
//! verdict differs from the reference, 2 when the run cannot complete.

use std::process::ExitCode;
use std::time::Instant;

use odrc_perfbench::{child, parent, per_layer_metrics, result_json, util, Args, END_TO_END};

fn main() -> ExitCode {
    let epoch = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    if let Some(work) = &args.child_work {
        return match child(&args, work, epoch) {
            Ok(report) => {
                println!("{}", report.to_json());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench measuring child: {e}");
                ExitCode::from(2)
            }
        };
    }
    let root = match std::env::current_dir() {
        Ok(dir) => dir,
        Err(e) => {
            eprintln!("perfbench: current directory: {e}");
            return ExitCode::from(2);
        }
    };
    let facts = util::host_facts(&root, args.seed);
    let outcome = match parent(&args, &root, &facts) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench {}: {e}", args.workload);
            return ExitCode::from(2);
        }
    };
    for (k, v) in &facts {
        println!("# {k}: {v}");
    }
    println!("# workload: {}", args.workload);
    let selected: Vec<(String, &str)> = if args.trace {
        per_layer_metrics()
    } else {
        END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect()
    };
    for (name, unit) in &selected {
        let v = outcome.metrics.get(name).unwrap_or(0.0);
        println!("{name} = {v:.4} {unit}");
    }
    println!(
        "# operations: {} attempted, {} failed",
        outcome.attempted, outcome.failed
    );
    if let Some(path) = &outcome.trace_file {
        println!("# trace: {}", path.display());
    }
    println!("{}", result_json(&outcome, &selected));
    if outcome.failed > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
