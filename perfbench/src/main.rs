//! `perfbench` — runs one workload of the `bfd` benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload typing|ingest|relay --seed <n> --seconds <s> --trace 0|1 \
//!     [--smoke] [--bfd <path>]
//! ```
//!
//! Run from the repository root. Prints `context`, `note` and `metric`
//! lines, then one JSON result line. Exits 1 when any reply disagrees
//! with ground truth, 2 on bad arguments or a failed run.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::gen::Workload;
use perfbench::run::{build_bfd, check_release_binary, run, Options};

const USAGE: &str = "usage: perfbench --workload typing|ingest|relay --seed <n> \
                     --seconds <s> --trace 0|1 [--smoke] [--bfd <path>]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse(&args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("perfbench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cfg!(debug_assertions) && !options.smoke {
        eprintln!("perfbench: refusing to time a debug build; build with --release");
        return ExitCode::from(2);
    }
    match run(&options) {
        Ok(report) => {
            print!("{}", report.render());
            if report.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: replies disagree with ground truth");
                ExitCode::from(1)
            }
        }
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::from(2)
        }
    }
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut bfd: Option<PathBuf> = None;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = iter
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: u64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got {value:?}")),
                });
            }
            "--bfd" => bfd = Some(PathBuf::from(value)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    let seconds = seconds.ok_or("--seconds is required")?;
    let bfd = match bfd {
        Some(path) => path,
        None => build_bfd()?,
    };
    check_release_binary(&bfd)?;
    Ok(Options {
        workload,
        seed,
        seconds,
        trace: trace.unwrap_or(false),
        smoke,
        bfd,
    })
}
