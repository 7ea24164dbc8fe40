//! Simulator-level property and scenario tests: timing invariants,
//! functional determinism, failure injection.

use atgpu_ir::{AddrExpr, AluOp, KernelBuilder, Operand, PredExpr, ProgramBuilder};
use atgpu_model::{AtgpuMachine, GpuSpec};
use atgpu_sim::{run_program, SimConfig, SimError};
use proptest::prelude::*;

fn machine() -> AtgpuMachine {
    AtgpuMachine::new(1 << 14, 32, 12_288, 1 << 20).unwrap()
}

fn spec() -> GpuSpec {
    GpuSpec { k_prime: 2, h_limit: 8, ..GpuSpec::gtx650_like() }
}

/// A copy program: out[i] = in[i] staged through shared memory.
fn copy_program(n: u64) -> (atgpu_ir::Program, atgpu_ir::HBuf) {
    let mut pb = ProgramBuilder::new("copy");
    let h = pb.host_input("A", n);
    let o = pb.host_output("B", n);
    let da = pb.device_alloc("a", n);
    let db = pb.device_alloc("b", n);
    let k = n.div_ceil(32);
    let mut kb = KernelBuilder::new("copy", k, 32);
    let g = AddrExpr::block() * 32 + AddrExpr::lane();
    kb.glb_to_shr(AddrExpr::lane(), da, g.clone());
    kb.shr_to_glb(db, g, AddrExpr::lane());
    pb.begin_round();
    pb.transfer_in(h, da, n);
    pb.launch(kb.build());
    pb.transfer_out(db, o, n);
    (pb.build().unwrap(), o)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Copying through the device is the identity on arbitrary data.
    #[test]
    fn device_copy_is_identity(data in prop::collection::vec(any::<i64>(), 1..400)) {
        let n = data.len() as u64;
        let (p, o) = copy_program(n);
        let r = run_program(&p, vec![data.clone()], &machine(), &spec(),
            &SimConfig::default()).unwrap();
        prop_assert_eq!(r.output(o), &data[..]);
    }

    /// Simulated time is deterministic: two identical runs agree to the
    /// bit.
    #[test]
    fn timing_is_deterministic(seed in any::<u64>(), n in 32u64..512) {
        let data: Vec<i64> = (0..n as i64).map(|i| i.wrapping_mul(seed as i64)).collect();
        let (p, _) = copy_program(n);
        let cfg = SimConfig::default();
        let r1 = run_program(&p, vec![data.clone()], &machine(), &spec(), &cfg).unwrap();
        let r2 = run_program(&p, vec![data.clone()], &machine(), &spec(), &cfg).unwrap();
        prop_assert_eq!(r1.total_ms(), r2.total_ms());
        prop_assert_eq!(
            r1.rounds[0].kernel_stats.cycles,
            r2.rounds[0].kernel_stats.cycles
        );
    }

    /// More blocks never make the kernel faster (work monotonicity).
    #[test]
    fn kernel_time_monotone_in_blocks(k1 in 1u64..40, extra in 1u64..40) {
        let build = |k: u64| {
            let mut pb = ProgramBuilder::new("m");
            let d = pb.device_alloc("a", k * 32);
            let mut kb = KernelBuilder::new("k", k, 32);
            kb.glb_to_shr(AddrExpr::lane(), d, AddrExpr::block() * 32 + AddrExpr::lane());
            pb.begin_round();
            pb.launch(kb.build());
            pb.build().unwrap()
        };
        let r1 = run_program(&build(k1), vec![], &machine(), &spec(),
            &SimConfig::default()).unwrap();
        let r2 = run_program(&build(k1 + extra), vec![], &machine(), &spec(),
            &SimConfig::default()).unwrap();
        prop_assert!(
            r2.rounds[0].kernel_stats.cycles >= r1.rounds[0].kernel_stats.cycles
        );
    }
}

#[test]
fn divergent_branches_cost_sum_of_arms() {
    // A kernel where every lane diverges: lanes < 16 run arm A (8 movs),
    // the rest run arm B (8 movs).  Total issue = pred + 16 movs.
    let mut pb = ProgramBuilder::new("d");
    pb.begin_round();
    let mut kb = KernelBuilder::new("k", 1, 0);
    kb.pred(
        PredExpr::Lt(Operand::Lane, Operand::Imm(16)),
        |kb| {
            for _ in 0..8 {
                kb.mov(0, Operand::Imm(1));
            }
        },
        |kb| {
            for _ in 0..8 {
                kb.mov(1, Operand::Imm(2));
            }
        },
    );
    pb.launch(kb.build());
    let p = pb.build().unwrap();
    let r = run_program(&p, vec![], &machine(), &spec(), &SimConfig::default()).unwrap();
    assert_eq!(r.rounds[0].kernel_stats.cycles, 17);
}

#[test]
fn expensive_alu_ops_cost_more() {
    let build = |op: AluOp| {
        let mut pb = ProgramBuilder::new("a");
        pb.begin_round();
        let mut kb = KernelBuilder::new("k", 1, 0);
        for _ in 0..10 {
            kb.alu(op, 0, Operand::Lane, Operand::Imm(7));
        }
        pb.launch(kb.build());
        pb.build().unwrap()
    };
    let cheap = run_program(&build(AluOp::Add), vec![], &machine(), &spec(), &SimConfig::default())
        .unwrap();
    let pricey =
        run_program(&build(AluOp::Rem), vec![], &machine(), &spec(), &SimConfig::default())
            .unwrap();
    assert_eq!(cheap.rounds[0].kernel_stats.cycles, 10);
    assert_eq!(pricey.rounds[0].kernel_stats.cycles, 160); // 16 cycles each
}

#[test]
fn global_oob_fails_with_kernel_name() {
    let mut pb = ProgramBuilder::new("oob");
    let d = pb.device_alloc("a", 32);
    pb.begin_round();
    let mut kb = KernelBuilder::new("bad_kernel", 2, 32);
    kb.glb_to_shr(AddrExpr::lane(), d, AddrExpr::block() * 32 + AddrExpr::lane());
    pb.launch(kb.build()); // block 1 reads words 32..64 of a 32-word buffer
    let p = pb.build().unwrap();
    // Padding rounds the 32-word buffer to 32 — block 1 is out of bounds.
    let err = run_program(&p, vec![], &machine(), &spec(), &SimConfig::default()).unwrap_err();
    match err {
        SimError::GlobalOutOfBounds { kernel, .. } => assert_eq!(kernel, "bad_kernel"),
        other => panic!("unexpected error {other}"),
    }
}

#[test]
fn zero_block_launch_rejected_by_validation() {
    let mut pb = ProgramBuilder::new("z");
    pb.begin_round();
    pb.launch(KernelBuilder::new("k", 0, 0).build());
    assert!(pb.build().is_err());
}

#[test]
fn faster_clock_means_less_wall_time() {
    let (p, _) = copy_program(4096);
    let data: Vec<i64> = (0..4096).collect();
    let slow =
        run_program(&p, vec![data.clone()], &machine(), &spec(), &SimConfig::default()).unwrap();
    let fast_spec = GpuSpec { clock_cycles_per_ms: 4.0 * spec().clock_cycles_per_ms, ..spec() };
    let fast = run_program(&p, vec![data], &machine(), &fast_spec, &SimConfig::default()).unwrap();
    assert!(fast.kernel_ms() < slow.kernel_ms());
    // Same cycles, different wall time.
    assert_eq!(fast.rounds[0].kernel_stats.cycles, slow.rounds[0].kernel_stats.cycles);
}
