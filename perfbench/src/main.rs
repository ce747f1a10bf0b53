//! `aapm-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one benchmark run on one thread and prints its result as the last
//! line of standard output (see README.md). Diagnostics go to standard
//! error.

use std::process::ExitCode;

use aapm_perfbench::run;
use aapm_perfbench::workloads::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 20.0;
    let mut traced = false;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(&value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload '{value}' (one of {})", names.join(", "))
                })?);
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed '{value}'"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds '{value}'"))?;
                if !(seconds > 0.0 && seconds <= 3_600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {value}"));
                }
            }
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got '{value}'")),
                }
            }
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        traced,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if args.traced {
        run::traced(args.workload, args.seed, args.seconds)
    } else {
        run::untraced(args.workload, args.seed, args.seconds)
    };
    match result {
        Ok(report) => {
            println!("{}", report.to_json(args.traced));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: run failed: {e}");
            ExitCode::FAILURE
        }
    }
}
