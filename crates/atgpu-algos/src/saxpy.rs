//! SAXPY (`y ← a·x + y`) — extension workload.
//!
//! Same shape as vector addition (one round, embarrassingly parallel,
//! transfer-dominated) with a scalar broadcast: the constant `a` is baked
//! into the kernel as an immediate, as a CUDA kernel would receive it via
//! a launch parameter.

use crate::error::AlgosError;
use crate::gen;
use crate::workload::{BuiltProgram, Placement, Workload};
use atgpu_ir::{AddrExpr, AluOp, KernelBuilder, Operand, ProgramBuilder};
use atgpu_model::{AlgoMetrics, AtgpuMachine, RoundMetrics};

/// A SAXPY instance `out = a·x + y`.
#[derive(Debug, Clone)]
pub struct Saxpy {
    n: u64,
    a: i64,
    x: Vec<i64>,
    y: Vec<i64>,
}

impl Saxpy {
    /// Random instance of size `n` with scalar `a`.
    pub fn new(n: u64, a: i64, seed: u64) -> Self {
        Self { n, a, x: gen::small_ints(n, seed), y: gen::small_ints(n, seed.wrapping_add(1)) }
    }

    /// Host reference.
    pub fn host_reference(&self) -> Vec<i64> {
        self.x.iter().zip(&self.y).map(|(x, y)| self.a * x + y).collect()
    }
}

impl Workload for Saxpy {
    fn name(&self) -> &'static str {
        "saxpy"
    }

    fn size(&self) -> u64 {
        self.n
    }

    fn emit(&self, machine: &AtgpuMachine, _: &Placement) -> Result<BuiltProgram, AlgosError> {
        if self.n == 0 {
            return Err(AlgosError::InvalidSize { reason: "empty vectors".into() });
        }
        let b = machine.b as i64;
        let k = machine.blocks_for(self.n);
        let n = self.n;

        let mut pb = ProgramBuilder::new("saxpy");
        let hx = pb.host_input("X", n);
        let hy = pb.host_input("Y", n);
        let ho = pb.host_output("Out", n);
        let dx = pb.device_alloc("x", n);
        let dy = pb.device_alloc("y", n);
        let dout = pb.device_alloc("out", n);

        let mut kb = KernelBuilder::new("saxpy_kernel", k, 3 * machine.b);
        let g = AddrExpr::block() * b + AddrExpr::lane();
        kb.glb_to_shr(AddrExpr::lane(), dx, g.clone());
        kb.glb_to_shr(AddrExpr::lane() + b, dy, g.clone());
        kb.ld_shr(0, AddrExpr::lane());
        kb.alu(AluOp::Mul, 0, Operand::Reg(0), Operand::Imm(self.a)); // a·x
        kb.ld_shr(1, AddrExpr::lane() + b);
        kb.alu(AluOp::Add, 0, Operand::Reg(0), Operand::Reg(1)); // + y
        kb.st_shr(AddrExpr::lane() + 2 * b, Operand::Reg(0));
        kb.shr_to_glb(dout, g, AddrExpr::lane() + 2 * b);

        pb.begin_round();
        pb.transfer_in(hx, dx, n);
        pb.transfer_in(hy, dy, n);
        pb.launch(kb.build());
        pb.transfer_out(dout, ho, n);

        Ok(BuiltProgram {
            program: pb.build()?,
            inputs: vec![self.x.clone(), self.y.clone()],
            outputs: vec![ho],
        })
    }

    fn expected(&self) -> Vec<Vec<i64>> {
        vec![self.host_reference()]
    }

    fn closed_form(&self, machine: &AtgpuMachine) -> Option<AlgoMetrics> {
        let n = self.n;
        let b = machine.b;
        let k = machine.blocks_for(n);
        let pad = |w: u64| w.div_ceil(b) * b;
        Some(AlgoMetrics::new(vec![RoundMetrics {
            time: 8,
            io_blocks: 3 * k,
            global_words: 3 * pad(n),
            shared_words: 3 * b,
            inward_words: 2 * n,
            inward_txns: 2,
            outward_words: n,
            outward_txns: 1,
            blocks_launched: k,
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
        let w = Saxpy::new(1000, 3, 1);
        let built = w.build(&m).unwrap();
        assert_eq!(
            analyze_cluster_program(&built.program, &m, 1).unwrap().lone_device().unwrap(),
            &w.closed_form(&m).unwrap()
        );
    }

    #[test]
    fn simulation_matches_host() {
        for a in [-2i64, 0, 1, 7] {
            let w = Saxpy::new(500, a, 9);
            verify_on_sim(&w, &test_machine(), &test_spec(), &SimConfig::default()).unwrap();
        }
    }

    #[test]
    fn empty_rejected() {
        assert!(Saxpy::new(0, 1, 0).build(&test_machine()).is_err());
    }
}
