//! The repo benchmark. See `README.md` in this directory.
//!
//! ```text
//! remus-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                 [--json out.json] [--spans spans.txt]
//! remus-benchmark compare <baseline.json> <candidate.json> [--spec BENCHMARK.json]
//! remus-benchmark spread <runs.json> [--spec BENCHMARK.json]
//! ```

mod db;
mod driver;
mod heap;
mod ops;
mod probes;
mod report;
mod run;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use ops::Workload;

#[global_allocator]
static ALLOCATOR: heap::CountingAlloc = heap::CountingAlloc;

use run::RunConfig;

const USAGE: &str = "usage:
  remus-benchmark --workload <ycsb_steady|ycsb_migrate|tpcc_steady|hot_ssi> --seed <n> \\
                  --seconds <s> --trace <0|1> [--json <file>] [--spans <file>]
  remus-benchmark compare <baseline.json> <candidate.json> [--spec <BENCHMARK.json>]
  remus-benchmark spread <runs.json> [--spec <BENCHMARK.json>]";

/// The value following flag `name`.
fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_run(args: &[String]) -> Result<(RunConfig, Option<PathBuf>), String> {
    let workload = flag(args, "--workload").ok_or("--workload is required")?;
    let workload =
        Workload::parse(workload).ok_or_else(|| format!("unknown workload {workload}"))?;
    let number = |name: &str| -> Result<u64, String> {
        flag(args, name)
            .ok_or_else(|| format!("{name} is required"))?
            .parse()
            .map_err(|e| format!("{name}: {e}"))
    };
    let seconds = number("--seconds")?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be between 1 and 600".into());
    }
    let trace = match number("--trace")? {
        0 => false,
        1 => true,
        n => return Err(format!("--trace must be 0 or 1, not {n}")),
    };
    let cfg = RunConfig {
        workload,
        seed: number("--seed")?,
        seconds,
        trace,
        spans: flag(args, "--spans").map(PathBuf::from),
    };
    Ok((cfg, flag(args, "--json").map(PathBuf::from)))
}

fn compare(args: &[String]) -> Result<bool, String> {
    let [baseline, candidate, ..] = args else {
        return Err("compare needs two files".into());
    };
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let spec = read(flag(args, "--spec").unwrap_or("BENCHMARK.json"))?;
    let (lines, breach) = report::compare(&spec, &read(baseline)?, &read(candidate)?)?;
    lines.iter().for_each(|l| println!("{l}"));
    Ok(breach)
}

fn spread(args: &[String]) -> Result<bool, String> {
    let [runs, ..] = args else {
        return Err("spread needs a file of runs".into());
    };
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let spec = read(flag(args, "--spec").unwrap_or("BENCHMARK.json"))?;
    let (lines, unsteady) = report::spread(&spec, &read(runs)?)?;
    lines.iter().for_each(|l| println!("{l}"));
    Ok(unsteady)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    type Tool = fn(&[String]) -> Result<bool, String>;
    let tool: Option<Tool> = match args.first().map(String::as_str) {
        Some("compare") => Some(compare),
        Some("spread") => Some(spread),
        _ => None,
    };
    if let Some(tool) = tool {
        return match tool(&args[1..]) {
            Ok(false) => ExitCode::SUCCESS,
            Ok(true) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("{e}\n{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let (cfg, json) = match parse_run(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Scratch files (the file-WAL probe) stay next to the executable, which
    // is inside the checkout's target directory.
    let exe = std::env::current_exe().expect("path of this executable");
    let scratch = exe.parent().expect("executable has a directory");
    let report = run::run(&cfg, scratch);
    if let Some(path) = json {
        if let Err(e) = std::fs::write(&path, report.record_line() + "\n") {
            eprintln!("{}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    report.print();
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
