//! Bitonic sort — a round-heavy extension workload.
//!
//! The bitonic network sorts `N = 2^m` keys in `m(m+1)/2` compare-exchange
//! passes, and on the ATGPU model **every pass is a kernel launch** — a
//! program with `R = Θ(log² n)` rounds, the regime where the model's
//! per-round synchronisation charge `σ` (and nothing else) explains a
//! large slice of the running time.  The paper's own future work asks for
//! exactly this kind of stress on the round structure.
//!
//! Each pass pairs element `low` with `low ⊕ stride`; the pair indices
//! are computed in registers (shift/mask arithmetic) and the keys are
//! gathered and scattered through **data-dependent global addressing** —
//! the analyser can only bound those accesses conservatively
//! (`io_exact = false`), making this the library's showcase for the
//! inexact-analysis path, while the simulator still measures the true
//! transaction counts.
//!
//! Keys are padded to the next power of two with `i64::MAX` on the host
//! side, so the device sorts a full network and the first `n` outputs are
//! the sorted keys.

use crate::error::AlgosError;
use crate::gen;
use crate::workload::{BuiltProgram, Placement, Workload};
use atgpu_ir::{AddrExpr, AluOp, KernelBuilder, Operand, PredExpr, ProgramBuilder};
use atgpu_model::AtgpuMachine;

/// A bitonic-sort instance (ascending).
#[derive(Debug, Clone)]
pub struct BitonicSort {
    n: u64,
    data: Vec<i64>,
}

impl BitonicSort {
    /// Random instance of size `n`.
    pub fn new(n: u64, seed: u64) -> Self {
        Self { n, data: gen::vec_in_range(n, -10_000, 10_000, seed) }
    }

    /// Instance from explicit keys.
    pub fn from_data(data: Vec<i64>) -> Self {
        Self { n: data.len() as u64, data }
    }

    /// Host reference: a sorted copy.
    pub fn host_reference(&self) -> Vec<i64> {
        let mut v = self.data.clone();
        v.sort_unstable();
        v
    }

    /// Number of compare-exchange passes (= kernel rounds) for `n` keys
    /// padded to the next power of two of at least `2b`.
    pub fn passes(n: u64, b: u64) -> u64 {
        let np = n.max(2 * b).next_power_of_two();
        let m = np.trailing_zeros() as u64;
        m * (m + 1) / 2
    }
}

impl Workload for BitonicSort {
    fn name(&self) -> &'static str {
        "bitonic"
    }

    fn size(&self) -> u64 {
        self.n
    }

    fn emit(&self, machine: &AtgpuMachine, _: &Placement) -> Result<BuiltProgram, AlgosError> {
        if self.n == 0 {
            return Err(AlgosError::InvalidSize { reason: "empty input".into() });
        }
        let b = machine.b;
        if !b.is_power_of_two() {
            return Err(AlgosError::InvalidMachine {
                reason: format!("bitonic sort needs b a power of two, got {b}"),
            });
        }
        let n = self.n;
        // Pad to a power of two with at least one full pair per lane.
        let np = n.max(2 * b).next_power_of_two();
        let bi = b as i64;

        let mut pb = ProgramBuilder::new("bitonic");
        let hin = pb.host_input("A", np);
        let hout = pb.host_output("Sorted", n);
        let da = pb.device_alloc("a", np);

        // Host-side padding with +infinity keys.
        let mut padded = self.data.clone();
        padded.resize(np as usize, i64::MAX);

        let k = np / (2 * b); // one lane per element pair
        let stages = np.trailing_zeros();

        let mut first = true;
        for stage in 1..=stages {
            let kk: i64 = 1i64 << stage; // bitonic block size
            for sub in (0..stage).rev() {
                let stride: i64 = 1i64 << sub;
                let mut kb = KernelBuilder::new(format!("bitonic_s{stage}_j{sub}"), k, 2 * b);
                // t = i·b + j: the lane's pair number.
                kb.alu(AluOp::Mul, 0, Operand::Block, Operand::Imm(bi));
                kb.alu(AluOp::Add, 0, Operand::Reg(0), Operand::Lane);
                // low = ((t >> sub) << (sub+1)) + (t & (stride-1))
                kb.alu(AluOp::Shr, 1, Operand::Reg(0), Operand::Imm(sub as i64));
                kb.alu(AluOp::Shl, 1, Operand::Reg(1), Operand::Imm(sub as i64 + 1));
                kb.alu(AluOp::And, 2, Operand::Reg(0), Operand::Imm(stride - 1));
                kb.alu(AluOp::Add, 1, Operand::Reg(1), Operand::Reg(2));
                // partner = low + stride
                kb.alu(AluOp::Add, 2, Operand::Reg(1), Operand::Imm(stride));
                // ascending iff (low & kk) == 0
                kb.alu(AluOp::And, 3, Operand::Reg(1), Operand::Imm(kk));
                // Gather the pair (data-dependent global access).
                kb.glb_to_shr(AddrExpr::lane(), da, AddrExpr::reg(1));
                kb.glb_to_shr(AddrExpr::lane() + bi, da, AddrExpr::reg(2));
                kb.ld_shr(4, AddrExpr::lane());
                kb.ld_shr(5, AddrExpr::lane() + bi);
                kb.alu(AluOp::Min, 6, Operand::Reg(4), Operand::Reg(5));
                kb.alu(AluOp::Max, 7, Operand::Reg(4), Operand::Reg(5));
                kb.pred(
                    PredExpr::Eq(Operand::Reg(3), Operand::Imm(0)),
                    |kb| {
                        // ascending: min to low, max to partner
                        kb.st_shr(AddrExpr::lane(), Operand::Reg(6));
                        kb.st_shr(AddrExpr::lane() + bi, Operand::Reg(7));
                    },
                    |kb| {
                        kb.st_shr(AddrExpr::lane(), Operand::Reg(7));
                        kb.st_shr(AddrExpr::lane() + bi, Operand::Reg(6));
                    },
                );
                // Scatter back.
                kb.shr_to_glb(da, AddrExpr::reg(1), AddrExpr::lane());
                kb.shr_to_glb(da, AddrExpr::reg(2), AddrExpr::lane() + bi);

                pb.begin_round();
                if first {
                    pb.transfer_in(hin, da, np);
                    first = false;
                }
                pb.launch(kb.build());
            }
        }
        // The final round also carries the outward transfer.
        pb.transfer_out_at(da, 0, hout, 0, n);

        Ok(BuiltProgram { program: pb.build()?, inputs: vec![padded], outputs: vec![hout] })
    }

    fn expected(&self) -> Vec<Vec<i64>> {
        vec![self.host_reference()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{test_machine, test_spec, verify_on_sim};
    use atgpu_analyze::analyze_cluster_program;
    use atgpu_sim::SimConfig;

    #[test]
    fn sorts_random_data() {
        for n in [5u64, 64, 100, 1000] {
            let w = BitonicSort::new(n, n);
            verify_on_sim(&w, &test_machine(), &test_spec(), &SimConfig::default())
                .unwrap_or_else(|e| panic!("n={n}: {e}"));
        }
    }

    #[test]
    fn sorts_adversarial_patterns() {
        for data in [
            vec![5, 4, 3, 2, 1],
            vec![1; 70],
            (0..128).rev().collect::<Vec<i64>>(),
            vec![i64::MAX - 1, i64::MIN + 1, 0, -1, 1],
        ] {
            let w = BitonicSort::from_data(data.clone());
            verify_on_sim(&w, &test_machine(), &test_spec(), &SimConfig::default())
                .unwrap_or_else(|e| panic!("{data:?}: {e}"));
        }
    }

    #[test]
    fn round_count_is_log_squared() {
        let m = test_machine();
        let w = BitonicSort::new(1 << 12, 1); // np = 4096 = 2^12
        let built = w.build(&m).unwrap();
        assert_eq!(built.program.num_rounds(), 12 * 13 / 2);
        assert_eq!(BitonicSort::passes(1 << 12, m.b), 78);
    }

    #[test]
    fn analyzer_flags_data_dependent_accesses() {
        let m = test_machine();
        let w = BitonicSort::new(256, 1);
        let built = w.build(&m).unwrap();
        let a = analyze_cluster_program(&built.program, &m, 1).unwrap();
        assert!(!a.io_exact, "gather/scatter addressing cannot be exact");
        // Shared-memory addressing is plain lane-stride-1: conflict-free
        // even though the *global* side is data-dependent.
        assert!(a.conflict_free);
        // The conservative bound still feeds a finite cost.
        let model = atgpu_model::cost::CostModel::GpuCost;
        let cost = atgpu_model::cost::evaluate(model, &m, &test_spec(), a.lone_device().unwrap());
        let cost = cost.unwrap().total();
        assert!(cost.is_finite() && cost > 0.0);
    }

    #[test]
    fn sync_cost_grows_with_rounds() {
        // With Θ(log² n) rounds, σ·R is a visible slice of the total —
        // the model's "minimise R" advice made measurable.
        let m = test_machine();
        let s = test_spec();
        let w = BitonicSort::new(4096, 2);
        let r = verify_on_sim(&w, &m, &s, &SimConfig::default()).unwrap();
        let sync = r.sync_ms();
        assert!(
            sync / r.total_ms() > 0.3,
            "σ·R should dominate a small bitonic sort: {} of {}",
            sync,
            r.total_ms()
        );
    }

    #[test]
    fn empty_rejected() {
        assert!(BitonicSort::from_data(vec![]).build(&test_machine()).is_err());
    }
}
