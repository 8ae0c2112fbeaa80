//! `sgbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a table of metrics with units and sample counts, then, as the
//! last line, one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`. Exits 1 when any correctness check failed, 2 on bad
//! arguments.

use sgbench::workload::{Workload, NAMES};
use std::process::ExitCode;

fn usage(problem: &str) -> ExitCode {
    eprintln!(
        "sgbench: {problem}\nusage: sgbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        NAMES.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let process_start = sgbench::metrics::Stopwatch::start();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return usage("every flag takes a value");
        };
        match flag.as_str() {
            "--workload" => workload = Workload::parse(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s >= 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            other => return usage(&format!("unknown flag {other}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are all required");
    };
    match sgbench::run(workload, seed, seconds, trace, process_start) {
        Ok(report) => {
            print!("{}", report.render(workload.name(), trace));
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "sgbench: {} of {} operations failed",
                    report.failed, report.attempted
                );
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("sgbench: {e}");
            ExitCode::from(1)
        }
    }
}
