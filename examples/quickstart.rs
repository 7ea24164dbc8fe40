//! Quickstart: analyse and simulate vector addition, the paper's first
//! workload.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use atgpu::algos::{vecadd::VecAdd, verify_on_sim, Workload};
use atgpu::analyze::analyze_cluster_program;
use atgpu::model::cost::{evaluate, CostModel};
use atgpu::model::{AtgpuMachine, GpuSpec};
use atgpu::sim::SimConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Pick the abstract machine ATGPU(p, b, M, G) and a device.
    let machine = AtgpuMachine::gtx650_like();
    let spec = GpuSpec::gtx650_like();
    println!("machine: {machine}");

    // 2. Build the paper's vector-addition program for n = 1,000,000.
    let n = 1_000_000;
    let workload = VecAdd::new(n, 42);
    let built = workload.build(&machine)?;

    // 3. Statically derive the model metrics from the kernel IR.
    let analysis = analyze_cluster_program(&built.program, &machine, 1)?;
    let metrics = analysis.lone_device()?;
    println!("\nmodel metrics (derived from IR):");
    println!("  rounds R           = {}", metrics.num_rounds());
    println!("  time t             = {} lockstep ops", metrics.total_time_ops());
    println!("  I/O q              = {} block transactions", metrics.total_io_blocks());
    println!("  global space       = {} words", metrics.peak_global_words());
    println!("  shared space       = {} words per MP", metrics.peak_shared_words());
    println!("  transfer Σ(I+O)    = {} words", metrics.total_transfer_words());

    // 4. Evaluate the cost functions (paper Expressions 1 and 2).
    let atgpu = evaluate(CostModel::GpuCost, &machine, &spec, metrics)?;
    let swgpu = evaluate(CostModel::Swgpu, &machine, &spec, metrics)?;
    println!("\npredictions:");
    println!(
        "  ATGPU GPU-cost     = {:8.3} ms  (ΔT = {:.1}% transfer)",
        atgpu.total(),
        100.0 * atgpu.transfer_proportion()
    );
    println!("  SWGPU baseline     = {:8.3} ms  (no transfer terms)", swgpu.total());

    // 5. Observe on the simulated GTX 650-like device; the result is
    //    checked against the host reference.
    let report = verify_on_sim(&workload, &machine, &spec, &SimConfig::default())?;
    println!("\nsimulated observation (verified correct):");
    println!("  total              = {:8.3} ms", report.total_ms());
    println!("  kernel             = {:8.3} ms", report.kernel_ms());
    println!(
        "  transfer           = {:8.3} ms  (ΔE = {:.1}%)",
        report.transfer_ms(),
        100.0 * report.transfer_proportion()
    );

    println!(
        "\nthe ATGPU prediction tracks the total ({:.1}% off), while the \
         transfer-blind SWGPU\nbaseline can only explain the kernel part — \
         the paper's central claim.",
        100.0 * (atgpu.total() - report.total_ms()).abs() / report.total_ms()
    );
    Ok(())
}
