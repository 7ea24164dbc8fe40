//! Designing your own kernel against the ATGPU model: write IR with the
//! paper's pseudocode operators, print it as pseudocode, analyse it, and
//! run it on the simulated device.
//!
//! The kernel computes `out[i] = 3·x[i]² + 1` — a tiny polynomial map.
//!
//! ```sh
//! cargo run --release --example custom_kernel
//! ```

use atgpu::analyze::analyze_cluster_program;
use atgpu::ir::{pretty, AddrExpr, AluOp, KernelBuilder, Operand, ProgramBuilder};
use atgpu::model::cost::{evaluate, CostModel};
use atgpu::model::{AtgpuMachine, GpuSpec};
use atgpu::sim::{run_program, SimConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let machine = AtgpuMachine::gtx650_like();
    let spec = GpuSpec::gtx650_like();
    let b = machine.b as i64;

    let n: u64 = 4096;
    let k = machine.blocks_for(n);

    // Host program: out W poly(x W X).
    let mut pb = ProgramBuilder::new("poly");
    let hx = pb.host_input("X", n);
    let hout = pb.host_output("Out", n);
    let dx = pb.device_alloc("x", n);
    let dout = pb.device_alloc("out", n);

    // The kernel, in the paper's notation:
    //   _x[j] ⇐ x[i·b + j]        (stage the operand)
    //   r0 ← _x[j]; r0 ← r0·r0; r0 ← r0·3; r0 ← r0+1
    //   _o[j] ← r0
    //   out[i·b + j] ⇐ _o[j]      (stage the result back)
    let mut kb = KernelBuilder::new("poly_kernel", k, 2 * machine.b);
    let g = AddrExpr::block() * b + AddrExpr::lane();
    kb.glb_to_shr(AddrExpr::lane(), dx, g.clone());
    kb.ld_shr(0, AddrExpr::lane());
    kb.alu(AluOp::Mul, 0, Operand::Reg(0), Operand::Reg(0));
    kb.alu(AluOp::Mul, 0, Operand::Reg(0), Operand::Imm(3));
    kb.alu(AluOp::Add, 0, Operand::Reg(0), Operand::Imm(1));
    kb.st_shr(AddrExpr::lane() + b, Operand::Reg(0));
    kb.shr_to_glb(dout, g, AddrExpr::lane() + b);

    pb.begin_round();
    pb.transfer_in(hx, dx, n);
    pb.launch(kb.build());
    pb.transfer_out(dout, hout, n);
    let program = pb.build()?;

    // The program, rendered back as the paper's pseudocode.
    println!("{}", pretty::render_program(&program));

    // Static analysis: every model metric, from the same IR.
    let analysis = analyze_cluster_program(&program, &machine, 1)?;
    let metrics = analysis.lone_device()?;
    println!(
        "t = {} ops, q = {} transactions, shared = {} words, Σ(I+O) = {} words",
        metrics.total_time_ops(),
        metrics.total_io_blocks(),
        metrics.peak_shared_words(),
        metrics.total_transfer_words()
    );
    println!(
        "coalescing exact: {};  statically bank-conflict-free: {}",
        analysis.io_exact, analysis.conflict_free
    );

    let cost = evaluate(CostModel::GpuCost, &machine, &spec, metrics)?;
    println!(
        "predicted GPU-cost: {:.4} ms (ΔT = {:.1}%)",
        cost.total(),
        100.0 * cost.transfer_proportion()
    );

    // Run it.
    let xs: Vec<i64> = (0..n as i64).map(|v| v % 100).collect();
    let report = run_program(&program, vec![xs.clone()], &machine, &spec, &SimConfig::default())?;
    let out = report.output(hout);
    for (i, (&x, &o)) in xs.iter().zip(out).enumerate() {
        assert_eq!(o, 3 * x * x + 1, "mismatch at {i}");
    }
    println!(
        "simulated: {:.4} ms total, {:.4} ms kernel — all {} results verified",
        report.total_ms(),
        report.kernel_ms(),
        n
    );
    Ok(())
}
