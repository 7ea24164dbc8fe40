//! `atgpu-exp` — regenerate the paper's tables and figures.
//!
//! ```text
//! atgpu-exp [COMMANDS] [OPTIONS]
//! ```
//!
//! `atgpu-exp --help` prints the full usage.  Its command list — like
//! the dispatch loop and the accepted-command check below — is generated
//! from [`atgpu_exp::EXPERIMENTS`] (one `(tag, label, runner)` row per
//! extension experiment) and [`atgpu_exp::experiment::PAPER_COMMANDS`]
//! (the paper's own artefacts, which share their sweeps and are
//! dispatched by hand here); adding an experiment is adding a row.
//!
//! Besides artefact commands there are `pseudocode NAME`, `check-trace
//! FILE...` and `--verify`; the options are `--quick`, `--full`, `--out
//! DIR`, `--no-noise` and `--trace PATH` (Chrome `trace_event` JSON from
//! the experiments that re-run traced, written as `PATH` with the
//! experiment tag inserted before the extension).

#![forbid(unsafe_code)]

use atgpu_exp::experiment;
use atgpu_exp::figures::{fig3, fig4, fig5, fig6, summary, table1};
use atgpu_exp::{chart, report};
use atgpu_exp::{ExpConfig, ExpError, Scale, SweepRow, EXPERIMENTS};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    commands: BTreeSet<String>,
    scale: Scale,
    out: PathBuf,
    noise: bool,
    pseudocode: Option<String>,
    trace: Option<PathBuf>,
    check_trace: Option<Vec<String>>,
    verify: bool,
}

/// `out.json` → `out.e10.json`: the per-experiment trace file name.
fn trace_path(base: &std::path::Path, tag: &str) -> PathBuf {
    let stem = base.file_stem().and_then(|s| s.to_str()).unwrap_or("trace");
    let ext = base.extension().and_then(|s| s.to_str()).unwrap_or("json");
    base.with_file_name(format!("{stem}.{tag}.{ext}"))
}

/// Parses trace files back and verifies them (structure, required
/// fields, per-lane monotone non-overlap).  Fails on the first invalid
/// file.
fn check_traces(files: &[String]) -> Result<(), ExpError> {
    if files.is_empty() {
        return Err("check-trace needs at least one trace file".into());
    }
    for f in files {
        let s = std::fs::read_to_string(f).map_err(|e| format!("{f}: {e}"))?;
        let c = atgpu_sim::validate_chrome_json(&s).map_err(|e| format!("{f}: invalid: {e}"))?;
        println!(
            "{f}: ok — {} spans on {} device(s), {} counter samples",
            c.spans, c.devices, c.counters
        );
    }
    Ok(())
}

/// Statically verifies every roster × plan cell and prints a verdict
/// table: race verdict, proven out-of-bounds count, undecided sites and
/// host-dataflow lints per program.  Cells with a proven defect are
/// listed with their `kernel@instr#N` witness and the run exits nonzero.
fn verify_workloads() -> Result<(), ExpError> {
    use atgpu_verify::RaceVerdict;
    let machine = atgpu_model::AtgpuMachine::gtx650_like();
    let asym = atgpu_algos::roster::asym_pair(atgpu_model::GpuSpec::gtx650_like());
    let roster = atgpu_algos::roster();
    println!("== static verification — {} workloads × plans ==\n", roster.len());
    println!(
        "{:<18} {:<8} {:>8}  {:<10} {:>4} {:>8} {:>6}  verdict",
        "workload", "plan", "launches", "race", "oob", "unknown", "lints"
    );
    let mut defects = Vec::new();
    for entry in &roster {
        for (plan_name, plan) in entry.plans(&machine, &asym) {
            let name = entry.name;
            let built = entry.workload.build_plan(&machine, plan)?;
            let report = atgpu_verify::verify_program(&built.program, machine.b);
            let race = if report.launches.iter().any(|l| matches!(l.race, RaceVerdict::Racy(_))) {
                "RACY"
            } else if report.all_race_free() {
                "race-free"
            } else {
                "unknown"
            };
            let oob: usize = report.launches.iter().map(|l| l.oob.len()).sum();
            let unknown: usize = report.launches.iter().map(|l| l.bounds_unknown).sum();
            let verdict = if report.is_sound() { "sound" } else { "UNSOUND" };
            println!(
                "{name:<18} {plan_name:<8} {:>8}  {race:<10} {oob:>4} {unknown:>8} {:>6}  {verdict}",
                report.launches.len(),
                report.lints.len(),
            );
            for lint in &report.lints {
                println!("             lint: {lint}");
            }
            if let Some(why) = report.first_unsoundness() {
                defects.push(format!("{name} ({plan_name}): {why}"));
            }
        }
    }
    if !defects.is_empty() {
        for d in &defects {
            eprintln!("UNSOUND — {d}");
        }
        return Err(format!("{} cell(s) failed static verification", defects.len()).into());
    }
    println!("\nall cells verified: no proven races or out-of-bounds accesses");
    Ok(())
}

/// Prints a roster workload's single-device program rendered in the
/// paper's pseudocode.
fn print_pseudocode(name: &str) -> Result<(), ExpError> {
    let machine = atgpu_model::AtgpuMachine::gtx650_like();
    let roster = atgpu_algos::roster();
    let Some(entry) = roster.iter().find(|e| e.name == name) else {
        let names: Vec<&str> = roster.iter().map(|e| e.name).collect();
        return Err(format!("unknown workload `{name}` (one of: {})", names.join(", ")).into());
    };
    let built = entry.workload.build(&machine)?;
    println!("{}", atgpu_ir::pretty::render_program(&built.program));
    Ok(())
}

fn parse_args() -> Result<Args, String> {
    let mut commands = BTreeSet::new();
    let mut scale = Scale::Paper;
    let mut out = PathBuf::from("experiments");
    let mut noise = true;
    let mut pseudocode = None;
    let mut trace = None;
    let mut check_trace = None;
    let mut verify = false;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--verify" => verify = true,
            "--quick" => scale = Scale::Quick,
            "--full" => scale = Scale::Full,
            "--no-noise" => noise = false,
            "--out" => {
                out = PathBuf::from(it.next().ok_or("--out needs a directory")?);
            }
            "--trace" => {
                trace = Some(PathBuf::from(it.next().ok_or("--trace needs a file path")?));
            }
            "check-trace" => {
                // Everything after the subcommand is a trace file.
                check_trace = Some(it.by_ref().collect::<Vec<String>>());
            }
            "pseudocode" => {
                pseudocode = Some(it.next().ok_or("pseudocode needs a workload name")?);
            }
            "--help" | "-h" => {
                print!("{}", experiment::usage());
                std::process::exit(0);
            }
            cmd if cmd == "all" || experiment::commands().any(|c| c == cmd) => {
                commands.insert(cmd.to_string());
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    if commands.is_empty() && pseudocode.is_none() && check_trace.is_none() && !verify {
        commands.insert("all".to_string());
    }
    Ok(Args { commands, scale, out, noise, pseudocode, trace, check_trace, verify })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn want(args: &Args, cmd: &str) -> bool {
    args.commands.contains("all") || args.commands.contains(cmd)
}

fn run(args: &Args) -> Result<(), ExpError> {
    if args.verify {
        verify_workloads()?;
        if args.commands.is_empty() && args.pseudocode.is_none() && args.check_trace.is_none() {
            return Ok(());
        }
    }
    if let Some(files) = &args.check_trace {
        check_traces(files)?;
        if args.commands.is_empty() && args.pseudocode.is_none() {
            return Ok(());
        }
    }
    if let Some(name) = &args.pseudocode {
        print_pseudocode(name)?;
        if args.commands.is_empty() {
            return Ok(());
        }
    }
    let mut cfg = ExpConfig::standard(args.scale);
    if !args.noise {
        cfg.sim.noise = None;
    }
    std::fs::create_dir_all(&args.out)?;

    println!("ATGPU experiment harness — machine {}, scale {:?}", cfg.machine, args.scale);
    let params = cfg.spec.derived_cost_params();
    println!(
        "device: k'={}, H={}, clock={:.0} cycles/ms; params: γ={:.0} λ={} σ={}ms α={}ms β={:.2e}ms/word\n",
        cfg.spec.k_prime,
        cfg.spec.h_limit,
        cfg.spec.clock_cycles_per_ms,
        params.gamma,
        params.lambda,
        params.sigma,
        params.alpha,
        params.beta,
    );

    if want(args, "table1") {
        println!("== Table I — comparison of GPU abstract models ==\n");
        println!("{}", table1::ascii());
        std::fs::write(args.out.join("table1.md"), table1::markdown())?;
        std::fs::write(args.out.join("table1_extended.md"), table1::extended_markdown())?;
    }

    let need_vecadd = ["fig3", "fig6", "summary"].iter().any(|c| want(args, c));
    let need_reduce = ["fig4", "fig6", "summary"].iter().any(|c| want(args, c));
    let need_matmul = ["fig5", "fig6", "summary"].iter().any(|c| want(args, c));

    let vecadd_rows: Vec<SweepRow> = if need_vecadd {
        eprintln!("[sweep] vector addition …");
        fig3::rows(&cfg)?
    } else {
        Vec::new()
    };
    let reduce_rows: Vec<SweepRow> = if need_reduce {
        eprintln!("[sweep] reduction …");
        fig4::rows(&cfg)?
    } else {
        Vec::new()
    };
    let matmul_rows: Vec<SweepRow> = if need_matmul {
        eprintln!("[sweep] matrix multiplication …");
        fig5::rows(&cfg)?
    } else {
        Vec::new()
    };

    if want(args, "fig3") {
        emit_figures(&fig3::figures(&vecadd_rows), args)?;
        std::fs::write(args.out.join("fig3_rows.csv"), report::rows_csv(&vecadd_rows))?;
    }
    if want(args, "fig4") {
        emit_figures(&fig4::figures(&reduce_rows), args)?;
        std::fs::write(args.out.join("fig4_rows.csv"), report::rows_csv(&reduce_rows))?;
    }
    if want(args, "fig5") {
        emit_figures(&fig5::figures(&matmul_rows), args)?;
        std::fs::write(args.out.join("fig5_rows.csv"), report::rows_csv(&matmul_rows))?;
    }
    if want(args, "fig6") {
        emit_figures(&fig6::figures(&vecadd_rows, &reduce_rows, &matmul_rows), args)?;
    }
    if want(args, "summary") {
        println!("== §IV-D summary: paper vs this reproduction ==\n");
        let md = summary::render(&vecadd_rows, &reduce_rows, &matmul_rows);
        println!("{md}");
        std::fs::write(args.out.join("summary.md"), md)?;
    }

    // Extension experiments: one loop over the table.
    let mut ext_md = String::new();
    for (tag, label, run) in EXPERIMENTS.into_iter().filter(|e| want(args, e.0)) {
        eprintln!("[ext] {label} …");
        let tp = args.trace.as_ref().map(|p| trace_path(p, tag));
        let section = run(&cfg, tp.as_deref())?;
        ext_md.push_str(&section.markdown);
        ext_md.push('\n');
        emit_figures(&section.figures, args)?;
    }
    if !ext_md.is_empty() {
        println!("{ext_md}");
        std::fs::write(args.out.join("extensions.md"), &ext_md)?;
    }

    println!("\nartefacts written to {}", args.out.display());
    Ok(())
}

fn emit_figures(figs: &[atgpu_exp::Figure], args: &Args) -> Result<(), ExpError> {
    for f in figs {
        println!("{}", chart::render(f, 64, 16));
        report::write_figure(f, &args.out)?;
    }
    Ok(())
}
