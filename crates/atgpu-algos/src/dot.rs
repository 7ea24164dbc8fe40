//! Dot product — extension workload combining an elementwise round with
//! the reduction tree.
//!
//! Round 1 transfers both vectors and launches an elementwise multiply;
//! rounds 2…R run the tree reduction over the products (no further
//! transfer until the final scalar comes back).  A natural "other
//! computational problem" for the paper's future-work programme and a
//! nice exercise of multi-round composition.

use crate::error::AlgosError;
use crate::gen;
use crate::reduce::{append_reduce_rounds, level_sizes, reduce_round_shapes, ReduceVariant};
use crate::workload::{BuiltProgram, Placement, Workload};
use atgpu_ir::{AddrExpr, AluOp, KernelBuilder, Operand, ProgramBuilder};
use atgpu_model::{AlgoMetrics, AtgpuMachine, RoundMetrics};

/// A dot-product instance `x · y`.
#[derive(Debug, Clone)]
pub struct Dot {
    n: u64,
    x: Vec<i64>,
    y: Vec<i64>,
    variant: ReduceVariant,
}

impl Dot {
    /// Random instance of size `n`.
    pub fn new(n: u64, seed: u64) -> Self {
        Self {
            n,
            x: gen::vec_in_range(n, -30, 30, seed),
            y: gen::vec_in_range(n, -30, 30, seed.wrapping_add(1)),
            variant: ReduceVariant::SequentialAddressing,
        }
    }

    /// Host reference.
    pub fn host_reference(&self) -> i64 {
        self.x.iter().zip(&self.y).map(|(a, b)| a * b).sum()
    }
}

impl Workload for Dot {
    fn name(&self) -> &'static str {
        "dot"
    }

    fn size(&self) -> u64 {
        self.n
    }

    fn emit(&self, machine: &AtgpuMachine, _: &Placement) -> Result<BuiltProgram, AlgosError> {
        if self.n == 0 {
            return Err(AlgosError::InvalidSize { reason: "empty vectors".into() });
        }
        let b = machine.b as i64;
        let n = self.n;
        let k = machine.blocks_for(n);

        let mut pb = ProgramBuilder::new("dot");
        let hx = pb.host_input("X", n);
        let hy = pb.host_input("Y", n);
        let hout = pb.host_output("Ans", 1);
        let dx = pb.device_alloc("x", n);
        let dy = pb.device_alloc("y", n);
        let dp = pb.device_alloc("prod", n);

        // Round 1: elementwise multiply into prod.
        let mut kb = KernelBuilder::new("dot_mul_kernel", k, 3 * machine.b);
        let g = AddrExpr::block() * b + AddrExpr::lane();
        kb.glb_to_shr(AddrExpr::lane(), dx, g.clone());
        kb.glb_to_shr(AddrExpr::lane() + b, dy, g.clone());
        kb.ld_shr(0, AddrExpr::lane());
        kb.ld_shr(1, AddrExpr::lane() + b);
        kb.alu(AluOp::Mul, 2, Operand::Reg(0), Operand::Reg(1));
        kb.st_shr(AddrExpr::lane() + 2 * b, Operand::Reg(2));
        kb.shr_to_glb(dp, g, AddrExpr::lane() + 2 * b);

        pb.begin_round();
        pb.transfer_in(hx, dx, n);
        pb.transfer_in(hy, dy, n);
        pb.launch(kb.build());

        // Rounds 2…R: reduce the products.
        append_reduce_rounds(&mut pb, dp, n, machine, self.variant, hout, true)?;

        Ok(BuiltProgram {
            program: pb.build()?,
            inputs: vec![self.x.clone(), self.y.clone()],
            outputs: vec![hout],
        })
    }

    fn expected(&self) -> Vec<Vec<i64>> {
        vec![vec![self.host_reference()]]
    }

    fn closed_form(&self, machine: &AtgpuMachine) -> Option<AlgoMetrics> {
        let n = self.n;
        let b = machine.b;
        let k = machine.blocks_for(n);
        let pad = |w: u64| w.div_ceil(b) * b;
        // Buffers: x, y, prod, then the reduction chain below prod.
        let chain: u64 = level_sizes(n, b).iter().skip(1).map(|&w| pad(w)).sum();
        let global_words = 3 * pad(n) + chain;

        let mut rounds = vec![RoundMetrics {
            time: 7,
            io_blocks: 3 * k,
            global_words,
            shared_words: 3 * b,
            inward_words: 2 * n,
            inward_txns: 2,
            outward_words: 0,
            outward_txns: 0,
            blocks_launched: k,
        }];
        let shapes = reduce_round_shapes(n, machine, self.variant);
        let r = shapes.len();
        for (i, (time, io, blocks)) in shapes.into_iter().enumerate() {
            rounds.push(RoundMetrics {
                time,
                io_blocks: io,
                global_words,
                shared_words: b,
                inward_words: 0,
                inward_txns: 0,
                outward_words: if i + 1 == r { 1 } else { 0 },
                outward_txns: u64::from(i + 1 == r),
                blocks_launched: blocks,
            });
        }
        if r == 0 {
            // n = 1: the multiply round also carries the outward word.
            rounds[0].outward_words = 1;
            rounds[0].outward_txns = 1;
        }
        Some(AlgoMetrics::new(rounds))
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
        for n in [1u64, 32, 1000, 4099] {
            let w = Dot::new(n, 3);
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
        for n in [1u64, 7, 32, 500, 2048] {
            let w = Dot::new(n, n + 1);
            verify_on_sim(&w, &test_machine(), &test_spec(), &SimConfig::default())
                .unwrap_or_else(|e| panic!("n={n}: {e}"));
        }
    }

    #[test]
    fn orthogonal_vectors_give_zero() {
        let w = Dot {
            n: 4,
            x: vec![1, 0, -1, 0],
            y: vec![0, 5, 0, 9],
            variant: ReduceVariant::SequentialAddressing,
        };
        let r = verify_on_sim(&w, &test_machine(), &test_spec(), &SimConfig::default()).unwrap();
        assert_eq!(r.output(atgpu_ir::HBuf(2)), &[0]);
    }
}
