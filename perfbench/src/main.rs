//! Command-line entry: `perfbench --workload NAME --seed N --seconds S
//! --trace 0|1`. See the library docs for what each run reports.

use perfbench::{run, RunArgs, WORKLOADS};
use std::process::ExitCode;

fn parse_args() -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds {value}: expected 0 < S <= 600"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload =
        workload.ok_or_else(|| format!("--workload is required (one of {WORKLOADS:?})"))?;
    Ok(RunArgs {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(out) => {
            println!("{}", out.info_json());
            println!("{}", out.result_json());
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            ExitCode::FAILURE
        }
    }
}
