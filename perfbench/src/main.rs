//! The workload-mix benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <repro-par|observed|static> \
//!     --seed N --seconds S --trace <0|1>
//! ```
//!
//! Run from the repository root. Prints `TOKEN key=value` summary
//! lines, then one JSON line with `correct`, `attempted`, `failed` and
//! the end-to-end (`--trace 0`) or per-layer (`--trace 1`) metrics.
//! Results with provenance, and the Chrome trace of a traced run, are
//! written under `$CARGO_TARGET_DIR/perfbench/`.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::report::{self, Provenance};
use perfbench::{Options, Workload};

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: perfbench --workload <{}> --seed N --seconds S --trace <0|1>",
        names.join("|")
    )
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        root: PathBuf::from("."),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let outcome = match perfbench::run(&options) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let provenance = Provenance::collect(&options.root);
    let dir = report::out_dir(&options.root);
    let mut problems = outcome.problems();
    match report::check_exact(&outcome, &provenance, &dir) {
        Ok(found) => problems.extend(found),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    }
    match report::write_artifacts(&outcome, &provenance, &problems, &dir) {
        Ok(path) => eprintln!("[results written to {}]", path.display()),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    }
    for line in report::token_lines(&outcome, &provenance, &problems) {
        println!("{line}");
    }
    println!("{}", report::result_line(&outcome, &problems));
    ExitCode::SUCCESS
}
