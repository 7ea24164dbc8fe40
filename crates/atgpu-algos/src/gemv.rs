//! Matrix–vector multiplication (GEMV) — extension workload sitting
//! between vector addition and matrix multiplication in arithmetic
//! intensity: `O(n²)` words transferred for `O(n²)` work, so transfer
//! and kernel grow at the same rate and Δ stays high at every size —
//! unlike matmul, scaling up never rescues a transfer-blind analysis.
//!
//! One thread block computes one output element `y[i]`: the row and the
//! operand vector are streamed through shared memory in coalesced
//! `b`-word chunks, each lane accumulates a partial dot product in a
//! register, and a sequential-addressing tree folds the partials.

use crate::error::AlgosError;
use crate::gen;
use crate::workload::{BuiltProgram, Placement, Workload};
use atgpu_ir::{AddrExpr, AluOp, KernelBuilder, Operand, PredExpr, ProgramBuilder};
use atgpu_model::{AlgoMetrics, AtgpuMachine, RoundMetrics};

/// A GEMV instance `y = A·x` with `A` an `n×n` row-major matrix.
#[derive(Debug, Clone)]
pub struct Gemv {
    n: u64,
    a: Vec<i64>,
    x: Vec<i64>,
}

impl Gemv {
    /// Random instance with side `n`.
    pub fn new(n: u64, seed: u64) -> Self {
        Self {
            n,
            a: gen::vec_in_range(n * n, -20, 20, seed),
            x: gen::vec_in_range(n, -20, 20, seed.wrapping_add(1)),
        }
    }

    /// Host reference.
    pub fn host_reference(&self) -> Vec<i64> {
        let n = self.n as usize;
        (0..n).map(|i| (0..n).map(|k| self.a[i * n + k] * self.x[k]).sum()).collect()
    }
}

impl Workload for Gemv {
    fn name(&self) -> &'static str {
        "gemv"
    }

    fn size(&self) -> u64 {
        self.n
    }

    fn emit(&self, machine: &AtgpuMachine, _: &Placement) -> Result<BuiltProgram, AlgosError> {
        let n = self.n;
        let b = machine.b;
        if n == 0 || !n.is_multiple_of(b) {
            return Err(AlgosError::InvalidSize {
                reason: format!("matrix side {n} must be a positive multiple of b = {b}"),
            });
        }
        if !b.is_power_of_two() {
            return Err(AlgosError::InvalidMachine {
                reason: format!("the folding tree needs b a power of two, got {b}"),
            });
        }
        let bi = b as i64;
        let ni = n as i64;
        let chunks = n / b;
        let steps = b.trailing_zeros();

        let mut pb = ProgramBuilder::new("gemv");
        let ha = pb.host_input("A", n * n);
        let hx = pb.host_input("X", n);
        let hy = pb.host_output("Y", n);
        let da = pb.device_alloc("a", n * n);
        let dx = pb.device_alloc("x", n);
        let dy = pb.device_alloc("y", n);

        // Shared layout: row chunk [0, b), x chunk [b, 2b), fold tree [2b, 3b).
        let mut kb = KernelBuilder::new("gemv_kernel", n, 3 * b);
        kb.mov(0, Operand::Imm(0)); // accumulator
        kb.repeat(chunks as u32, |kb| {
            kb.glb_to_shr(
                AddrExpr::lane(),
                da,
                AddrExpr::block() * ni + AddrExpr::loop_var(0) * bi + AddrExpr::lane(),
            );
            kb.glb_to_shr(AddrExpr::lane() + bi, dx, AddrExpr::loop_var(0) * bi + AddrExpr::lane());
            kb.ld_shr(1, AddrExpr::lane());
            kb.ld_shr(2, AddrExpr::lane() + bi);
            kb.alu(AluOp::Mul, 3, Operand::Reg(1), Operand::Reg(2));
            kb.alu(AluOp::Add, 0, Operand::Reg(0), Operand::Reg(3));
        });
        // Fold the b partials.
        kb.st_shr(AddrExpr::lane() + 2 * bi, Operand::Reg(0));
        kb.repeat(steps, |kb| {
            kb.alu(AluOp::Shr, 4, Operand::Imm(bi / 2), Operand::LoopVar(0));
            kb.when(PredExpr::Lt(Operand::Lane, Operand::Reg(4)), |kb| {
                kb.ld_shr(5, AddrExpr::lane() + 2 * bi);
                kb.ld_shr(6, AddrExpr::lane() + AddrExpr::reg(4) + 2 * bi);
                kb.alu(AluOp::Add, 5, Operand::Reg(5), Operand::Reg(6));
                kb.st_shr(AddrExpr::lane() + 2 * bi, Operand::Reg(5));
            });
        });
        kb.when(PredExpr::Eq(Operand::Lane, Operand::Imm(0)), |kb| {
            kb.shr_to_glb(dy, AddrExpr::block(), AddrExpr::c(2 * bi));
        });

        pb.begin_round();
        pb.transfer_in(ha, da, n * n);
        pb.transfer_in(hx, dx, n);
        pb.launch(kb.build());
        pb.transfer_out(dy, hy, n);

        Ok(BuiltProgram {
            program: pb.build()?,
            inputs: vec![self.a.clone(), self.x.clone()],
            outputs: vec![hy],
        })
    }

    fn expected(&self) -> Vec<Vec<i64>> {
        vec![self.host_reference()]
    }

    fn closed_form(&self, machine: &AtgpuMachine) -> Option<AlgoMetrics> {
        let n = self.n;
        let b = machine.b;
        if !n.is_multiple_of(b) || !b.is_power_of_two() {
            return None;
        }
        let chunks = n / b;
        let steps = b.trailing_zeros() as u64;
        Some(AlgoMetrics::new(vec![RoundMetrics {
            // mov + chunks·6 + stage + steps·(shr + pred + 4) + final pred + store
            time: 1 + 6 * chunks + 1 + 6 * steps + 2,
            // per block: 2 coalesced loads per chunk + 1 output store
            io_blocks: n * (2 * chunks + 1),
            global_words: n * n + 2 * n.div_ceil(b) * b,
            shared_words: 3 * b,
            inward_words: n * n + n,
            inward_txns: 2,
            outward_words: n,
            outward_txns: 1,
            blocks_launched: n,
        }]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{test_machine, test_spec, verify_on_sim};
    use atgpu_analyze::analyze_cluster_program;
    use atgpu_sim::SimConfig;

    #[test]
    fn analyzer_matches_closed_form() {
        let m = test_machine();
        for n in [32u64, 96, 128] {
            let w = Gemv::new(n, 1);
            let built = w.build(&m).unwrap();
            assert_eq!(
                analyze_cluster_program(&built.program, &m, 1).unwrap().lone_device().unwrap(),
                &w.closed_form(&m).unwrap(),
                "mismatch at n={n}"
            );
        }
    }

    #[test]
    fn simulation_matches_host() {
        for n in [32u64, 64, 128] {
            let w = Gemv::new(n, n);
            verify_on_sim(&w, &test_machine(), &test_spec(), &SimConfig::default())
                .unwrap_or_else(|e| panic!("n={n}: {e}"));
        }
    }

    #[test]
    fn identity_matrix_reproduces_x() {
        let n = 32u64;
        let mut a = vec![0i64; (n * n) as usize];
        for i in 0..n as usize {
            a[i * n as usize + i] = 1;
        }
        let x: Vec<i64> = (0..n as i64).collect();
        let w = Gemv { n, a, x: x.clone() };
        let r = verify_on_sim(&w, &test_machine(), &test_spec(), &SimConfig::default()).unwrap();
        assert_eq!(r.output(atgpu_ir::HBuf(2)), &x[..]);
    }

    #[test]
    fn delta_stays_high_at_scale() {
        // Unlike matmul, Δ does not vanish as n grows: transfer and work
        // are both Θ(n²).
        let m = test_machine();
        let s = atgpu_model::GpuSpec::gtx650_like();
        let small = verify_on_sim(&Gemv::new(128, 1), &m, &s, &SimConfig::default()).unwrap();
        let large = verify_on_sim(&Gemv::new(512, 1), &m, &s, &SimConfig::default()).unwrap();
        assert!(small.transfer_proportion() > 0.4);
        assert!(large.transfer_proportion() > 0.4);
    }

    #[test]
    fn invalid_sizes_rejected() {
        assert!(Gemv::new(33, 0).build(&test_machine()).is_err());
        assert!(Gemv::new(0, 0).build(&test_machine()).is_err());
    }
}
