//! Lockstep operation counting — the model's time metric `tᵢ`.
//!
//! Counting rules, following the model's execution semantics:
//!
//! * every leaf instruction (move, memory access, sync) issues as one
//!   lockstep operation — memory *latency* is accounted separately through
//!   `λ·qᵢ`, so an access costs one issue slot here; ALU operations are
//!   weighted by [`atgpu_ir::AluOp::issue_cycles`] (integer div/mod expand
//!   to long sequences on real GPUs);
//! * a divergent region costs one operation for the predicate evaluation
//!   **plus both arms** ("if execution paths diverge, all paths are
//!   executed");
//! * a counted loop costs its trip count times its body (loop bookkeeping
//!   is free, matching how the paper counts its kernels);
//! * the body is SPMD with launch-time-constant trip counts, so every
//!   thread block executes the same operation count and `tᵢ = max over
//!   MPs` equals the per-block count.
//!
//! Counts saturate at `u64::MAX` instead of wrapping (three nested
//! `repeat(u32::MAX)` already pass it).  A saturated count is still a
//! count the model prices, and `predict` reports it
//! (`Prediction::saturated`): the pricing service answers such a program
//! analytically — an astronomic quote — whether or not its analysis is
//! exact, instead of routing it to a simulation of 2⁹⁶ iterations, which
//! no watchdog stops unless the caller set one.

use atgpu_ir::{Instr, Kernel};

/// Operations executed by one thread block of `kernel` — the model's `tᵢ`
/// for a round launching it.
pub fn kernel_time_ops(kernel: &Kernel) -> u64 {
    body_ops(&kernel.body)
}

fn body_ops(body: &[Instr]) -> u64 {
    body.iter()
        .map(|i| match i {
            Instr::Pred { then_body, else_body, .. } => {
                body_ops(then_body).saturating_add(body_ops(else_body)).saturating_add(1)
            }
            Instr::Repeat { count, body } => u64::from(*count).saturating_mul(body_ops(body)),
            Instr::Alu { op, .. } => u64::from(op.issue_cycles()),
            _ => 1,
        })
        .fold(0, u64::saturating_add)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use atgpu_ir::{AddrExpr, AluOp, KernelBuilder, Operand, PredExpr};

    #[test]
    fn straight_line_counts_instructions() {
        let mut kb = KernelBuilder::new("k", 1, 32);
        kb.mov(0, Operand::Imm(1));
        kb.alu(AluOp::Add, 0, Operand::Reg(0), Operand::Imm(2));
        kb.st_shr(AddrExpr::lane(), Operand::Reg(0));
        assert_eq!(kernel_time_ops(&kb.build()), 3);
    }

    #[test]
    fn nested_loops_past_u64_saturate() {
        let mut kb = KernelBuilder::new("k", 1, 32);
        kb.repeat(u32::MAX, |kb| {
            kb.repeat(u32::MAX, |kb| {
                kb.repeat(u32::MAX, |kb| {
                    kb.glb_to_shr(AddrExpr::lane(), atgpu_ir::DBuf(0), AddrExpr::lane());
                });
            });
        });
        assert_eq!(kernel_time_ops(&kb.build()), u64::MAX);
    }

    #[test]
    fn empty_kernel_is_zero_ops() {
        assert_eq!(kernel_time_ops(&KernelBuilder::new("k", 1, 0).build()), 0);
    }

    #[test]
    fn divergence_charges_both_arms() {
        let mut kb = KernelBuilder::new("k", 1, 32);
        kb.pred(
            PredExpr::Lt(Operand::Lane, Operand::Imm(16)),
            |kb| {
                kb.mov(0, Operand::Imm(1));
                kb.mov(1, Operand::Imm(2));
            },
            |kb| {
                kb.mov(2, Operand::Imm(3));
            },
        );
        // 1 (pred) + 2 (then) + 1 (else)
        assert_eq!(kernel_time_ops(&kb.build()), 4);
    }

    #[test]
    fn loops_multiply_body() {
        let mut kb = KernelBuilder::new("k", 1, 32);
        kb.repeat(5, |kb| {
            kb.mov(0, Operand::LoopVar(0));
            kb.alu(AluOp::Add, 1, Operand::Reg(1), Operand::Reg(0));
        });
        assert_eq!(kernel_time_ops(&kb.build()), 10);
    }

    #[test]
    fn nested_loops_multiply_through() {
        let mut kb = KernelBuilder::new("k", 1, 32);
        kb.repeat(3, |kb| {
            kb.mov(0, Operand::Imm(0));
            kb.repeat(4, |kb| {
                kb.alu(AluOp::Add, 0, Operand::Reg(0), Operand::Imm(1));
            });
        });
        // 3 * (1 + 4*1)
        assert_eq!(kernel_time_ops(&kb.build()), 15);
    }

    #[test]
    fn zero_trip_loop_is_free() {
        let mut kb = KernelBuilder::new("k", 1, 32);
        kb.repeat(0, |kb| {
            kb.mov(0, Operand::Imm(1));
        });
        assert_eq!(kernel_time_ops(&kb.build()), 0);
    }

    #[test]
    fn divergence_inside_loop() {
        let mut kb = KernelBuilder::new("k", 1, 32);
        kb.repeat(2, |kb| {
            kb.when(PredExpr::Eq(Operand::LoopVar(0), Operand::Imm(0)), |kb| {
                kb.sync();
            });
        });
        // 2 * (1 + 1)
        assert_eq!(kernel_time_ops(&kb.build()), 4);
    }

    #[test]
    fn memory_ops_cost_one_issue_each() {
        let mut kb = KernelBuilder::new("k", 1, 64);
        kb.glb_to_shr(AddrExpr::lane(), atgpu_ir::DBuf(0), AddrExpr::lane());
        kb.ld_shr(0, AddrExpr::lane());
        kb.shr_to_glb(atgpu_ir::DBuf(0), AddrExpr::lane(), AddrExpr::lane());
        assert_eq!(kernel_time_ops(&kb.build()), 3);
    }
}
