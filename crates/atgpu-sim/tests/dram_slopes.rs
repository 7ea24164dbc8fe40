//! What one global access costs on the simulated device, read as the
//! slope between two sizes of the same kernel:
//!
//! * a single warp's dependent accesses, with no other warp to hide
//!   behind, each cost the raw `dram_latency_cycles`;
//! * a streaming, bandwidth-bound grid of one access per block costs the
//!   memory pipe's `dram_issue_cycles` interval per transaction.
//!
//! `GpuSpec::derived_cost_params` rests on both: Expression (2) charges
//! `λ` per transaction with no overlap, so its `λ` is the issue interval,
//! not the latency the paper quotes.

use atgpu_ir::{AddrExpr, Kernel, KernelBuilder, ProgramBuilder};
use atgpu_model::{AtgpuMachine, GpuSpec};
use atgpu_sim::{run_program, SimConfig};

fn machine() -> AtgpuMachine {
    AtgpuMachine::new(1 << 16, 32, 12_288, 1 << 24).unwrap()
}

/// Kernel milliseconds of one launch of `kernel` over a `words`-word
/// device buffer.
fn kernel_ms(spec: &GpuSpec, words: u64, kernel: impl FnOnce(atgpu_ir::DBuf) -> Kernel) -> f64 {
    let mut pb = ProgramBuilder::new("dram-slope");
    let d = pb.device_alloc("x", words);
    pb.begin_round();
    pb.launch(kernel(d));
    let p = pb.build().unwrap();
    run_program(&p, vec![], &machine(), spec, &SimConfig::default()).unwrap().rounds[0].kernel_ms
}

/// One block of one warp reading `accesses` coalesced rows back to back.
fn dependent(spec: &GpuSpec, accesses: u32) -> f64 {
    let b = machine().b;
    kernel_ms(spec, u64::from(accesses) * b, |d| {
        let mut kb = KernelBuilder::new("chase", 1, b);
        kb.repeat(accesses, |kb| {
            // _s[j] ⇐ x[t0·b + j]: one coalesced transaction per iteration.
            kb.glb_to_shr(
                AddrExpr::lane(),
                d,
                AddrExpr::loop_var(0) * (b as i64) + AddrExpr::lane(),
            );
        });
        kb.build()
    })
}

/// `blocks` blocks, each reading one coalesced row.
fn streaming(spec: &GpuSpec, blocks: u64) -> f64 {
    let b = machine().b;
    kernel_ms(spec, blocks * b, |d| {
        let mut kb = KernelBuilder::new("stream", blocks, b);
        kb.glb_to_shr(AddrExpr::lane(), d, AddrExpr::block() * (b as i64) + AddrExpr::lane());
        kb.build()
    })
}

#[test]
fn a_lone_warps_dependent_access_costs_the_raw_latency() {
    let spec = GpuSpec::gtx650_like();
    let slope_ms = (dependent(&spec, 128) - dependent(&spec, 64)) / 64.0;
    let cycles = slope_ms * spec.clock_cycles_per_ms;
    let lat = spec.dram_latency_cycles as f64;
    assert!(
        cycles > lat * 0.9 && cycles < lat * 1.3,
        "measured {cycles} cycles/access vs latency {lat}"
    );
}

#[test]
fn a_streaming_access_costs_the_issue_interval() {
    let spec = GpuSpec::gtx650_like();
    let slope_ms = (streaming(&spec, 2048) - streaming(&spec, 1024)) / 1024.0;
    let cycles = slope_ms * spec.clock_cycles_per_ms;
    let issue = spec.dram_issue_cycles as f64;
    assert!(
        cycles > issue * 0.8 && cycles < issue * 1.3,
        "measured {cycles} cycles/txn vs issue interval {issue}"
    );
}
