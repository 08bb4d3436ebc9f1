//! `wcm-perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload and prints its seed and output digest, then, as
//! the last line, the result object with every metric by name and unit.

use std::process::ExitCode;

use wcm_perfbench::harness::{RunConfig, Scale};

fn usage() -> ExitCode {
    eprintln!(
        "usage: wcm-perfbench --workload {} --seed N --seconds S --trace 0|1",
        wcm_perfbench::WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return usage();
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => return usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage();
    };
    let cfg = RunConfig {
        seed,
        seconds,
        trace,
    };
    match wcm_perfbench::run(&workload, Scale::Full, &cfg) {
        Ok(result) => {
            println!(
                "workload={workload} seed={seed} digest={:016x} passes={}",
                result.digest, result.passes
            );
            println!("{}", wcm_perfbench::result_json(&result, trace));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("wcm-perfbench: {workload}: {e}");
            ExitCode::FAILURE
        }
    }
}
