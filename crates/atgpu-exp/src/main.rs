//! `atgpu-exp` — regenerate the paper's tables and figures.
//!
//! ```text
//! atgpu-exp [COMMANDS] [OPTIONS]
//!
//! COMMANDS (any combination; default: all)
//!   table1 fig3 fig4 fig5 fig6 summary e1 e2 e3 e4 e5 e6 e7 e8 e9 e10 e11 e12 e13 all
//!   pseudocode NAME   print a workload's program in the paper's notation
//!                     (any `atgpu_algos::roster()` name: vecadd, reduce,
//!                      matmul, saxpy, dot, scan, stencil, transpose,
//!                      histogram, bitonic, gemv, spmv, ooc-vecadd, …)
//!   check-trace FILE...
//!                     validate Chrome trace_event JSON files written by
//!                     --trace (round-trip parse, monotone non-overlapping
//!                     spans); nonzero exit on the first invalid file
//!
//! OPTIONS
//!   --verify       statically verify every workload roster × plan cell
//!                  (bounds, cross-block write races, host-dataflow lints)
//!                  and print a verdict table; nonzero exit if any program
//!                  is proven unsound
//!   --quick        small sweep sizes (seconds)
//!   --full         complete paper ranges (minutes)
//!   --out DIR      write CSV/DAT/JSON files (default: ./experiments)
//!   --no-noise     disable transfer jitter
//!   --parallel N   simulate with N worker threads
//!   --trace PATH   write Chrome trace_event JSON from the traced
//!                  E10/E11/E13 runs; PATH gets the experiment tag inserted
//!                  before its extension (out.json -> out.e10.json, …)
//! ```

#![forbid(unsafe_code)]

use atgpu_exp::figures::{ext, fig3, fig4, fig5, fig6, summary, table1};
use atgpu_exp::{chart, report};
use atgpu_exp::{ExpConfig, Scale, SweepRow};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    commands: BTreeSet<String>,
    scale: Scale,
    out: PathBuf,
    noise: bool,
    threads: Option<usize>,
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
fn check_traces(files: &[String]) -> Result<(), Box<dyn std::error::Error>> {
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
fn verify_workloads() -> Result<(), Box<dyn std::error::Error>> {
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
fn print_pseudocode(name: &str) -> Result<(), Box<dyn std::error::Error>> {
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
    let mut threads = None;
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
            "--parallel" => {
                threads = Some(
                    it.next()
                        .ok_or("--parallel needs a thread count")?
                        .parse::<usize>()
                        .map_err(|e| format!("bad thread count: {e}"))?,
                );
            }
            "--help" | "-h" => {
                println!(
                    "atgpu-exp — regenerate the ATGPU paper's tables and figures\n\
                     commands: table1 fig3 fig4 fig5 fig6 summary e1 e2 e3 e4 e5 e6 e7 e8 e9 e10 e11 e12 e13 all\n\
                     \x20          check-trace FILE...\n\
                     options:  --verify --quick --full --out DIR --no-noise --parallel N --trace PATH"
                );
                std::process::exit(0);
            }
            cmd @ ("table1" | "fig3" | "fig4" | "fig5" | "fig6" | "summary" | "e1" | "e2"
            | "e3" | "e4" | "e5" | "e6" | "e7" | "e8" | "e9" | "e10" | "e11" | "e12"
            | "e13" | "all") => {
                commands.insert(cmd.to_string());
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    if commands.is_empty() && pseudocode.is_none() && check_trace.is_none() && !verify {
        commands.insert("all".to_string());
    }
    Ok(Args { commands, scale, out, noise, threads, pseudocode, trace, check_trace, verify })
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

fn run(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
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
    if let Some(t) = args.threads {
        cfg.sim.mode = atgpu_sim::ExecMode::Parallel { threads: t };
    }
    std::fs::create_dir_all(&args.out)?;

    println!("ATGPU experiment harness — machine {}, scale {:?}", cfg.machine, args.scale);
    println!(
        "device: k'={}, H={}, clock={:.0} cycles/ms; params: γ={:.0} λ={} σ={}ms α={}ms β={:.2e}ms/word\n",
        cfg.spec.k_prime,
        cfg.spec.h_limit,
        cfg.spec.clock_cycles_per_ms,
        cfg.params.gamma,
        cfg.params.lambda,
        cfg.params.sigma,
        cfg.params.alpha,
        cfg.params.beta,
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

    // Extension experiments.
    let mut ext_md = String::new();
    if want(args, "e1") {
        eprintln!("[ext] E1 out-of-core …");
        ext_md.push_str(&ext::e1_out_of_core(&cfg)?);
        ext_md.push('\n');
    }
    if want(args, "e2") {
        eprintln!("[ext] E2 other GPUs …");
        ext_md.push_str(&ext::e2_other_gpus(&cfg)?);
        ext_md.push('\n');
    }
    if want(args, "e3") {
        eprintln!("[ext] E3 bank conflicts …");
        ext_md.push_str(&ext::e3_bank_conflicts(&cfg)?);
        ext_md.push('\n');
    }
    if want(args, "e4") {
        eprintln!("[ext] E4 occupancy …");
        let (md, fig) = ext::e4_occupancy(&cfg)?;
        ext_md.push_str(&md);
        ext_md.push('\n');
        emit_figures(&[fig], args)?;
    }
    if want(args, "e5") {
        eprintln!("[ext] E5 other problems …");
        let (md, _) = ext::e5_other_problems(&cfg)?;
        ext_md.push_str(&md);
        ext_md.push('\n');
    }
    if want(args, "e6") {
        eprintln!("[ext] E6 calibration …");
        ext_md.push_str(&ext::e6_calibration(&cfg)?);
        ext_md.push('\n');
    }
    if want(args, "e7") {
        eprintln!("[ext] E7 multi-device sharding …");
        ext_md.push_str(&ext::e7_multi_device(&cfg)?);
        ext_md.push('\n');
    }
    if want(args, "e8") {
        eprintln!("[ext] E8 streams + threaded clusters …");
        ext_md.push_str(&ext::e8_streams(&cfg)?);
        ext_md.push('\n');
    }
    if want(args, "e9") {
        eprintln!("[ext] E9 cross-launch kernel cache …");
        ext_md.push_str(&ext::e9_kernel_cache(&cfg)?);
        ext_md.push('\n');
    }
    if want(args, "e10") {
        eprintln!("[ext] E10 cost-driven pipeline planner …");
        let tp = args.trace.as_ref().map(|p| trace_path(p, "e10"));
        ext_md.push_str(&ext::e10_pipeline_planner(&cfg, tp.as_deref())?);
        ext_md.push('\n');
    }
    if want(args, "e11") {
        eprintln!("[ext] E11 fault injection + degraded-mode replanning …");
        let tp = args.trace.as_ref().map(|p| trace_path(p, "e11"));
        ext_md.push_str(&ext::e11_fault_tolerance(&cfg, tp.as_deref())?);
        ext_md.push('\n');
    }
    if want(args, "e12") {
        eprintln!("[ext] E12 multi-tenant pricing service …");
        ext_md.push_str(&ext::e12_pricing_service(&cfg)?);
        ext_md.push('\n');
    }
    if want(args, "e13") {
        eprintln!("[ext] E13 peer-aware shard planning …");
        let tp = args.trace.as_ref().map(|p| trace_path(p, "e13"));
        ext_md.push_str(&ext::e13_peer_aware_planner(&cfg, tp.as_deref())?);
        ext_md.push('\n');
    }
    if !ext_md.is_empty() {
        println!("{ext_md}");
        std::fs::write(args.out.join("extensions.md"), &ext_md)?;
    }

    println!("\nartefacts written to {}", args.out.display());
    Ok(())
}

fn emit_figures(figs: &[atgpu_exp::Figure], args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    for f in figs {
        println!("{}", chart::render(f, 64, 16));
        report::write_figure(f, &args.out)?;
    }
    Ok(())
}
