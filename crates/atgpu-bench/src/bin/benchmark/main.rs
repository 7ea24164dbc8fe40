//! The repo benchmark: four pipeline/serve workloads, end-to-end and
//! per-layer metrics, and a traced run.  See `README.md` beside this file.
//!
//! ```text
//! benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//!           [--smoke] [--check-determinism]
//! benchmark --list
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! without `--trace 1`, the per-layer metrics with it.  The process exits
//! nonzero when any operation failed its check.

#![forbid(unsafe_code)]

mod determinism;
mod layers;
mod measure;
mod metrics;
mod pipeline;
mod rosters;
mod serve;
mod serve_measure;
mod spans;
mod stats;

use measure::Options;
use metrics::{result_line, END_TO_END, PER_LAYER, WORKLOADS};
use rosters::Scale;

/// Seconds measured when `--seconds` is not given (`run_seconds` of
/// `BENCHMARK.json`).
const DEFAULT_SECONDS: u32 = 30;
/// The fixed default seed.
const DEFAULT_SEED: u64 = 1;

enum Command {
    Run(Options),
    CheckDeterminism(Options),
    List,
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut opts = Options {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: f64::from(DEFAULT_SECONDS),
        trace: false,
        scale: Scale::Full,
    };
    let mut check = false;
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i).cloned().ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => opts.workload = value(&mut i, "--workload")?,
            "--seed" => {
                opts.seed = value(&mut i, "--seed")?
                    .parse()
                    .map_err(|_| "--seed must be a non-negative integer".to_string())?;
            }
            "--seconds" => {
                opts.seconds = value(&mut i, "--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| (0.0..=600.0).contains(s))
                    .ok_or_else(|| "--seconds must be a number from 0 to 600".to_string())?;
            }
            // `--trace 1` / `--trace 0`; a bare `--trace` means 1.
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some(v @ ("0" | "1")) => {
                    opts.trace = v == "1";
                    i += 1;
                }
                _ => opts.trace = true,
            },
            "--smoke" => opts.scale = Scale::Smoke,
            "--check-determinism" => check = true,
            "--list" => return Ok(Command::List),
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    if !WORKLOADS.iter().any(|(name, _)| *name == opts.workload) {
        let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        return Err(format!("--workload must be one of {}", names.join(", ")));
    }
    Ok(if check { Command::CheckDeterminism(opts) } else { Command::Run(opts) })
}

/// Runs one workload and returns its result line and failure count.
fn run(opts: &Options) -> Result<(String, u64), String> {
    let result = match opts.workload.as_str() {
        "serve_mix" => serve_measure::run_serve(opts)?,
        _ => measure::run_pipeline(opts)?,
    };
    let defs = if opts.trace { PER_LAYER } else { END_TO_END };
    for d in defs {
        eprintln!("  {:<28} {:>18.4} {}", d.name, result.metrics.get(d.name), d.unit);
    }
    Ok((result_line(&result, defs), result.failed))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match parse_args(&args) {
        Err(e) => {
            eprintln!("benchmark: {e}");
            std::process::exit(2);
        }
        Ok(Command::List) => {
            print!("{}", metrics::list());
            return;
        }
        Ok(Command::CheckDeterminism(opts)) => determinism::check(&opts),
        Ok(Command::Run(opts)) => run(&opts),
    };
    match outcome {
        Err(e) => {
            eprintln!("benchmark: {e}");
            std::process::exit(1);
        }
        Ok((line, failed)) => {
            println!("{line}");
            if failed > 0 {
                eprintln!("benchmark: {failed} operation(s) failed their check");
                std::process::exit(1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::tests::{benchmark_json_text, parse, Json};

    fn smoke(workload: &str, trace: bool) -> Options {
        Options { workload: workload.into(), seed: 7, seconds: 0.0, trace, scale: Scale::Smoke }
    }

    /// An in-process smoke pass of every workload, untraced and traced:
    /// drift in any public API the benchmark calls breaks `cargo test`
    /// rather than the next benchmark run.
    #[test]
    fn smoke_pass_of_every_workload() {
        for (workload, _) in WORKLOADS {
            for trace in [false, true] {
                let (line, failed) = run(&smoke(workload, trace)).expect("smoke run");
                assert_eq!(failed, 0, "{workload}: {line}");
                let json = parse(&line);
                assert_eq!(json.get("correct"), &Json::Bool(true));
                assert!(json.get("attempted").num() >= 1.0);
                let defs = if trace { PER_LAYER } else { END_TO_END };
                let names: Vec<&str> = defs.iter().map(|d| d.name).collect();
                assert_eq!(json.get("metrics").keys(), names, "{workload}");
                if !trace {
                    for d in END_TO_END {
                        let v = json.get("metrics").get(d.name).get("value").num();
                        assert!(v > 0.0, "{workload}: end-to-end metric {} is {v}", d.name);
                    }
                }
            }
            let _ = std::fs::remove_file(format!("benchmark_trace.{workload}.json"));
        }
    }

    #[test]
    fn determinism_check_passes_on_every_workload() {
        for (workload, _) in WORKLOADS {
            let (line, failed) = determinism::check(&smoke(workload, false)).expect("check runs");
            assert_eq!(failed, 0, "{workload}: {line}");
            assert_eq!(parse(&line).get("identical"), &Json::Bool(true));
        }
    }

    #[test]
    fn arguments_are_checked_where_they_enter() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let driver = "--workload serve_mix --seed 42 --seconds 5 --trace 1";
        let Ok(Command::Run(o)) = parse_args(&args(driver)) else { panic!("driver arguments") };
        assert_eq!((o.workload.as_str(), o.seed, o.seconds, o.trace), ("serve_mix", 42, 5.0, true));
        let Ok(Command::Run(o)) = parse_args(&args("--workload launch_storm --trace 0 --smoke"))
        else {
            panic!("trace 0")
        };
        assert!(!o.trace && o.scale == Scale::Smoke && o.seed == DEFAULT_SEED);
        assert!(matches!(parse_args(&args("--list")), Ok(Command::List)));
        for bad in [
            "",
            "--workload nope",
            "--workload serve_mix --seed x",
            "--frobnicate",
            "--workload serve_mix --seconds -1",
            "--workload",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "`{bad}` must be rejected");
        }
    }

    /// The committed `BENCHMARK.json` declares exactly the tables'
    /// workloads and metrics, `run_seconds` is the default `--seconds`,
    /// and its command builds this directory's own manifest.
    #[test]
    fn benchmark_json_mirrors_the_tables() {
        let json = parse(&benchmark_json_text());
        assert_eq!(
            json.keys(),
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
        assert_eq!(json.get("run_seconds").num(), f64::from(DEFAULT_SECONDS));
        let Json::Arr(paths) = json.get("paths") else { panic!("paths") };
        let Json::Arr(command) = json.get("command") else { panic!("command") };
        let manifest = format!("{}/Cargo.toml", paths[0].str());
        assert!(paths.len() == 1 && command.iter().any(|arg| arg.str() == manifest));
        let rows = |key: &str, fields: &[&str]| -> Vec<Vec<String>> {
            let Json::Arr(rows) = json.get(key) else { panic!("{key}") };
            rows.iter()
                .map(|row| {
                    assert_eq!(row.keys(), fields, "{key}");
                    fields
                        .iter()
                        .map(|f| match row.get(f) {
                            Json::Num(n) => n.to_string(),
                            other => other.str().to_string(),
                        })
                        .collect()
                })
                .collect()
        };
        let table = |defs: &[metrics::MetricDef]| -> Vec<Vec<String>> {
            defs.iter()
                .map(|d| {
                    let mut row = vec![d.name.to_string(), d.unit.into(), d.better.into()];
                    row.extend(d.bound.map(|b| b.to_string()));
                    row
                })
                .collect()
        };
        assert_eq!(rows("end_to_end", &["name", "unit", "better", "bound"]), table(END_TO_END));
        assert_eq!(rows("per_layer", &["name", "unit", "better"]), table(PER_LAYER));
        let workloads: Vec<Vec<String>> =
            WORKLOADS.iter().map(|(n, why)| vec![n.to_string(), why.to_string()]).collect();
        assert_eq!(rows("workloads", &["name", "why"]), workloads);
    }
}
