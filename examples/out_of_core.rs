//! Out-of-core processing — the paper's future-work scenario: the data
//! does not fit in global memory `G`, so it is partitioned across rounds,
//! and different chunk sizes trade per-round overheads (`α`, `σ`) against
//! device-memory footprint.
//!
//! ```sh
//! cargo run --release --example out_of_core
//! ```

use atgpu::algos::ooc::{OocReduce, OocScheme, OocVecAdd};
use atgpu::algos::{verify_on_sim, Workload};
use atgpu::analyze::analyze_cluster_program;
use atgpu::model::cost::{evaluate, CostModel};
use atgpu::model::{AtgpuMachine, GpuSpec};
use atgpu::sim::SimConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A device with only 16 Ki words of global memory.
    let machine = AtgpuMachine::new(1 << 18, 32, 12_288, 1 << 14)?;
    let spec = GpuSpec::gtx650_like();
    let n: u64 = 100_000; // 3n words needed; G holds ~5% of that

    println!("machine: {machine}  (problem needs {} words)", 3 * n);
    println!("\nchunk-size sweep for out-of-core vector addition:");
    println!("{:>8} {:>8} {:>14} {:>14}", "chunk", "rounds", "predicted ms", "observed ms");
    for chunk in [512u64, 1024, 2048, 4096] {
        let w = OocVecAdd::new(n, chunk, 7);
        let built = w.build(&machine)?;
        let analysis = analyze_cluster_program(&built.program, &machine, 1)?;
        let metrics = analysis.lone_device()?;
        let cost = evaluate(CostModel::GpuCost, &machine, &spec, metrics)?;
        let report = verify_on_sim(&w, &machine, &spec, &SimConfig::default())?;
        println!(
            "{:>8} {:>8} {:>14.3} {:>14.3}",
            chunk,
            w.rounds(),
            cost.total(),
            report.total_ms()
        );
    }
    println!(
        "small chunks multiply the fixed per-round costs (α per transaction, σ per\n\
         round) — the trade-off the ATGPU cost function quantifies and transfer-blind\n\
         models cannot see."
    );

    println!("\nreduction finishing schemes (n = 65536, chunk = 4096):");
    for (scheme, label) in
        [(OocScheme::HostFinish, "host-finish  "), (OocScheme::DeviceFinish, "device-finish")]
    {
        let w = OocReduce::new(65_536, 4096, machine.b, scheme, 3);
        let built = w.build(&machine)?;
        let analysis = analyze_cluster_program(&built.program, &machine, 1)?;
        let metrics = analysis.lone_device()?;
        let outward: u64 = metrics.rounds.iter().map(|r| r.outward_words).sum();
        let report = verify_on_sim(&w, &machine, &spec, &SimConfig::default())?;
        println!(
            "  {label}: R = {:2}, outward = {:4} words, total = {:.3} ms",
            metrics.num_rounds(),
            outward,
            report.total_ms()
        );
    }
    println!("— two correct algorithms with different host–device communication\n  requirements, distinguishable only by a model that prices transfer.");
    Ok(())
}
