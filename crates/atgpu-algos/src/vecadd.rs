//! Vector addition — the paper's §IV-A workload (Figure 3).
//!
//! "For two vectors `A, B` of length `n`, the addition is `A + B`.  […]
//! An element of the answer vector is independent, making this an
//! embarrassingly parallel problem."
//!
//! The paper's ATGPU analysis: 1 round, time `O(1)`, I/O `O(k)`, global
//! space `O(n)`, shared space `O(b)`, transfer `O(α + βn)`; cost
//! `3α + 3nβ + (t + 3kλ)/γ + σ`.  Our IR encoding has `t = 7` lockstep
//! operations (the paper's CUDA kernel counts 13; both are the `O(1)`
//! constant).

use crate::error::AlgosError;
use crate::gen;
use crate::workload::{BuiltProgram, Placement, Workload};
use atgpu_ir::{AddrExpr, AluOp, KernelBuilder, Operand, ProgramBuilder};
use atgpu_model::{AlgoMetrics, AtgpuMachine, RoundMetrics, ShardProfile};

/// Lockstep operations of our vector-addition kernel encoding.
pub const VECADD_TIME_OPS: u64 = 7;

/// A vector-addition instance `C = A + B`.
#[derive(Debug, Clone)]
pub struct VecAdd {
    n: u64,
    a: Vec<i64>,
    b: Vec<i64>,
}

impl VecAdd {
    /// Random instance of size `n`.
    pub fn new(n: u64, seed: u64) -> Self {
        Self { n, a: gen::small_ints(n, seed), b: gen::small_ints(n, seed.wrapping_add(1)) }
    }

    /// Instance from explicit data.
    pub fn from_data(a: Vec<i64>, b: Vec<i64>) -> Result<Self, AlgosError> {
        if a.len() != b.len() {
            return Err(AlgosError::InvalidSize {
                reason: format!("vector lengths differ: {} vs {}", a.len(), b.len()),
            });
        }
        Ok(Self { n: a.len() as u64, a, b })
    }

    /// Host reference: elementwise sum.
    pub fn host_reference(&self) -> Vec<i64> {
        self.a.iter().zip(&self.b).map(|(x, y)| x + y).collect()
    }

    /// Builds the **repeated-launch** form: inputs staged once, then the
    /// *same* kernel launched once per round for `launches` rounds
    /// (idempotent — every launch recomputes the same `C`), then one
    /// download.  This is the cross-launch kernel-cache stress shape:
    /// every launch after the first hits the compiled program and skips
    /// lowering.
    pub fn build_relaunched(
        &self,
        machine: &AtgpuMachine,
        launches: u64,
    ) -> Result<BuiltProgram, AlgosError> {
        if self.n == 0 || launches == 0 {
            return Err(AlgosError::InvalidSize {
                reason: "empty vectors or zero launches".into(),
            });
        }
        let k = machine.blocks_for(self.n);
        let n = self.n;

        let mut pb = ProgramBuilder::new("vecadd_relaunched");
        let ha = pb.host_input("A", n);
        let hb = pb.host_input("B", n);
        let hc = pb.host_output("C", n);
        let da = pb.device_alloc("a", n);
        let db = pb.device_alloc("b", n);
        let dc = pb.device_alloc("c", n);

        pb.begin_round();
        pb.transfer_in(ha, da, n);
        pb.transfer_in(hb, db, n);
        for _ in 0..launches {
            pb.launch(vecadd_kernel("vecadd_kernel", k, machine.b, da, db, dc));
            pb.begin_round();
        }
        pb.transfer_out(dc, hc, n);

        Ok(BuiltProgram {
            program: pb.build()?,
            inputs: vec![self.a.clone(), self.b.clone()],
            outputs: vec![hc],
        })
    }
}

/// Builds the vecadd kernel `name`: `k` blocks stage both operand rows
/// into shared memory, add, and stage the result back out — all
/// coalesced.  Shared layout: `_a` at 0, `_b` at `b`, `_c` at `2b`.
pub(crate) fn vecadd_kernel(
    name: impl Into<String>,
    k: u64,
    b: u64,
    da: atgpu_ir::DBuf,
    db: atgpu_ir::DBuf,
    dc: atgpu_ir::DBuf,
) -> atgpu_ir::Kernel {
    vecadd_kernel_at(name, k, b, [da, db, dc], AddrExpr::block() * b as i64 + AddrExpr::lane())
}

/// [`vecadd_kernel`] with lane `j` of block `i` at global word `g`.
pub(crate) fn vecadd_kernel_at(
    name: impl Into<String>,
    k: u64,
    b: u64,
    [da, db, dc]: [atgpu_ir::DBuf; 3],
    g: AddrExpr,
) -> atgpu_ir::Kernel {
    let bi = b as i64;
    let mut kb = KernelBuilder::new(name, k, 3 * b);
    kb.glb_to_shr(AddrExpr::lane(), da, g.clone()); // _a[j] <= a[ib + j]
    kb.glb_to_shr(AddrExpr::lane() + bi, db, g.clone()); // _b[j] <= b[ib + j]
    kb.ld_shr(0, AddrExpr::lane());
    kb.ld_shr(1, AddrExpr::lane() + bi);
    kb.alu(AluOp::Add, 2, Operand::Reg(0), Operand::Reg(1)); // _c <- _a + _b
    kb.st_shr(AddrExpr::lane() + 2 * bi, Operand::Reg(2));
    kb.shr_to_glb(dc, g, AddrExpr::lane() + 2 * bi); // c[ib + j] <= _c[j]
    kb.build()
}

impl Workload for VecAdd {
    fn name(&self) -> &'static str {
        "vecadd"
    }

    fn size(&self) -> u64 {
        self.n
    }

    fn units(&self, machine: &AtgpuMachine) -> Option<u64> {
        Some(machine.blocks_for(self.n))
    }

    /// The per-block cost shape of the vecadd kernel: `2b` words in, `b`
    /// words out, 3 coalesced block transactions and an `O(1)` kernel
    /// per block.  This *is* [`ShardProfile::streaming`] — the planner's
    /// generic streaming default is defined as the vecadd shape, so the
    /// two stay in lockstep by construction.
    fn shard_profile(&self, machine: &AtgpuMachine) -> ShardProfile {
        ShardProfile::streaming(machine.b)
    }

    /// One round: every shard's device receives its slice of `A` and `B`
    /// over its own host link, runs its blocks, and returns its slice of
    /// `C` — embarrassingly parallel, so sharding divides the
    /// transfer-dominated total by the device count.
    fn emit(&self, machine: &AtgpuMachine, at: &Placement) -> Result<BuiltProgram, AlgosError> {
        if self.n == 0 {
            return Err(AlgosError::InvalidSize { reason: "empty vectors".into() });
        }
        let k = machine.blocks_for(self.n);
        let n = self.n;

        let mut pb = ProgramBuilder::new(at.name("vecadd", "vecadd_sharded"));
        let ha = pb.host_input("A", n);
        let hb = pb.host_input("B", n);
        let hc = pb.host_output("C", n);
        let da = pb.device_alloc("a", n);
        let db = pb.device_alloc("b", n);
        let dc = pb.device_alloc("c", n);

        // A shard covering blocks [start, end) touches the word range
        // [start·b, min(end·b, n)) of every buffer.
        let slice = |s: &atgpu_ir::Shard| {
            let off = s.start * machine.b;
            (off, (s.end * machine.b).min(n) - off)
        };
        pb.begin_round();
        for s in at.shards() {
            let (off, words) = slice(s);
            pb.transfer_in_to(s.device, ha, off, da, off, words); // a W A
            pb.transfer_in_to(s.device, hb, off, db, off, words); // b W B
        }
        // The paper's pseudocode: stage both operands into shared memory,
        // add, stage the result back out — all coalesced.
        at.launch(&mut pb, vecadd_kernel("vecadd_kernel", k, machine.b, da, db, dc));
        for s in at.shards() {
            let (off, words) = slice(s);
            pb.transfer_out_from(s.device, dc, off, hc, off, words); // C W c
        }

        Ok(BuiltProgram {
            program: pb.build()?,
            inputs: vec![self.a.clone(), self.b.clone()],
            outputs: vec![hc],
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
            time: VECADD_TIME_OPS,
            io_blocks: 3 * k, // one coalesced transaction per buffer per block
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
    use crate::workload::{test_machine, test_spec, verify_on_sim, Plan};
    use atgpu_analyze::analyze_cluster_program;
    use atgpu_sim::SimConfig;

    #[test]
    fn analyzer_matches_closed_form() {
        let m = test_machine();
        for n in [32u64, 64, 1000, 4096] {
            let w = VecAdd::new(n, 42);
            let built = w.build(&m).unwrap();
            let analysis = analyze_cluster_program(&built.program, &m, 1).unwrap();
            assert_eq!(
                analysis.lone_device().unwrap(),
                &w.closed_form(&m).unwrap(),
                "closed form mismatch at n={n}"
            );
            assert!(analysis.io_exact);
            assert!(analysis.conflict_free);
        }
    }

    #[test]
    fn simulation_matches_host_reference() {
        let w = VecAdd::new(1000, 7);
        verify_on_sim(&w, &test_machine(), &test_spec(), &SimConfig::default()).unwrap();
    }

    #[test]
    fn simulation_matches_reference_non_multiple_of_b() {
        let w = VecAdd::new(33, 7);
        verify_on_sim(&w, &test_machine(), &test_spec(), &SimConfig::default()).unwrap();
    }

    #[test]
    fn single_element() {
        let w = VecAdd::from_data(vec![5], vec![-3]).unwrap();
        let r = verify_on_sim(&w, &test_machine(), &test_spec(), &SimConfig::default()).unwrap();
        assert_eq!(r.output(atgpu_ir::HBuf(2)), &[2]);
    }

    #[test]
    fn empty_rejected() {
        let w = VecAdd::from_data(vec![], vec![]).unwrap();
        assert!(w.build(&test_machine()).is_err());
    }

    #[test]
    fn mismatched_lengths_rejected() {
        assert!(VecAdd::from_data(vec![1], vec![1, 2]).is_err());
    }

    #[test]
    fn transfer_dominates_like_the_paper() {
        // The paper observed data transfer taking ~84% of total time.
        // Our GTX650-like simulation should land in the same regime
        // (transfer clearly dominant).
        let w = VecAdd::new(1 << 16, 3);
        let r = verify_on_sim(
            &w,
            &test_machine(),
            &atgpu_model::GpuSpec::gtx650_like(),
            &SimConfig::default(),
        )
        .unwrap();
        let delta = r.transfer_proportion();
        assert!(delta > 0.5, "transfer share {delta} unexpectedly small");
    }

    #[test]
    fn bounds_hold_with_small_constant() {
        // I/O is O(⌈n/b⌉) = O(k): the worst ratio over the sizes is small.
        let m = test_machine();
        let mut c = 0.0f64;
        for n in [1024u64, 4096, 16384] {
            let w = VecAdd::new(n, 1);
            let built = w.build(&m).unwrap();
            let a = analyze_cluster_program(&built.program, &m, 1).unwrap();
            let io_bound = (n as f64 / m.b as f64).ceil();
            c = c.max(a.lone_device().unwrap().total_io_blocks() as f64 / io_bound);
        }
        assert!(c <= 3.5, "I/O constant {c} too large for O(n/b)");
    }

    #[test]
    fn sharded_build_verifies_on_clusters() {
        use crate::workload::verify_built_on_cluster;
        let m = test_machine();
        for devices in [1u32, 2, 3, 4] {
            for n in [1024u64, 1000] {
                let w = VecAdd::new(n, 11);
                let built = w.build_sharded(&m, devices).unwrap();
                let cluster = atgpu_model::ClusterSpec::homogeneous(devices as usize, test_spec());
                let report = verify_built_on_cluster(
                    &built,
                    &w.expected(),
                    &m,
                    &cluster,
                    &SimConfig::default(),
                )
                .unwrap_or_else(|e| panic!("devices={devices} n={n}: {e}"));
                // Every participating device reports transfer time.
                let xfer = report.transfer_ms_per_device();
                assert_eq!(xfer.len(), devices as usize);
                assert!(xfer.iter().all(|&t| t > 0.0), "devices={devices} n={n}");
            }
        }
    }

    /// The cost-driven planner on identical devices behind a fast and a
    /// slow host link: the slow-link device must run fewer blocks, and
    /// the planned program must beat the even split's observed total.
    #[test]
    fn planned_sharding_starves_slow_links_and_verifies() {
        use crate::workload::verify_built_on_cluster;
        let m = test_machine();
        let w = VecAdd::new(1 << 12, 13);
        let mut cluster = atgpu_model::ClusterSpec::homogeneous(2, test_spec());
        cluster.host_links[1] = atgpu_model::LinkParams {
            alpha_ms: cluster.host_links[1].alpha_ms * 8.0,
            beta_ms_per_word: cluster.host_links[1].beta_ms_per_word * 8.0,
        };
        let built = w.build_sharded_planned(&m, &cluster).unwrap();
        let report =
            verify_built_on_cluster(&built, &w.expected(), &m, &cluster, &SimConfig::default())
                .unwrap();
        let blocks: Vec<u64> =
            report.rounds[0].devices.iter().map(|d| d.kernel_stats.blocks).collect();
        assert!(blocks[1] < blocks[0], "slow-link device over-assigned: {blocks:?}");
        let even = w.build_sharded(&m, 2).unwrap();
        let r_even =
            verify_built_on_cluster(&even, &w.expected(), &m, &cluster, &SimConfig::default())
                .unwrap();
        assert!(
            report.total_ms() < r_even.total_ms(),
            "planned {} vs even {}",
            report.total_ms(),
            r_even.total_ms()
        );
    }

    /// A caller-supplied shard plan that exceeds the grid must come back
    /// as a proper error, not a slice-arithmetic underflow panic.
    #[test]
    fn explicit_shard_plan_outside_grid_rejected() {
        let m = test_machine();
        let w = VecAdd::new(4 * m.b, 1); // 4-block grid
        for bad in [
            vec![atgpu_ir::Shard { device: 0, start: 0, end: 8 }],
            vec![atgpu_ir::Shard { device: 0, start: 4, end: 8 }],
            vec![atgpu_ir::Shard { device: 0, start: 2, end: 2 }],
        ] {
            assert!(
                w.build_plan(&m, Plan::Explicit(bad.clone())).is_err(),
                "plan {bad:?} must be rejected"
            );
        }
        // The full in-range grid still builds.
        let whole = vec![atgpu_ir::Shard { device: 0, start: 0, end: 4 }];
        assert!(w.build_plan(&m, Plan::Explicit(whole)).is_ok());
    }

    #[test]
    fn relaunched_build_verifies_and_hits_cache() {
        let m = test_machine();
        let w = VecAdd::new(256, 5);
        let built = w.build_relaunched(&m, 10).unwrap();
        assert_eq!(built.program.num_rounds(), 11); // stage + 10 launches, out in the last
        let cfg = SimConfig::default();
        let on =
            atgpu_sim::run_program(&built.program, built.inputs, &m, &test_spec(), &cfg).unwrap();
        assert_eq!(on.output(built.outputs[0]), w.host_reference());
        // 1 compile, 9 cached launches.
        assert_eq!((on.device_stats.cache.misses, on.device_stats.cache.hits), (1, 9));
    }

    #[test]
    fn sharding_cuts_transfer_dominated_time() {
        use crate::workload::verify_built_on_cluster;
        let m = test_machine();
        let spec = atgpu_model::GpuSpec::gtx650_like();
        let w = VecAdd::new(1 << 16, 3);
        let total = |devices: u32| {
            let built = w.build_sharded(&m, devices).unwrap();
            let cluster = atgpu_model::ClusterSpec::homogeneous(devices as usize, spec);
            verify_built_on_cluster(&built, &w.expected(), &m, &cluster, &SimConfig::default())
                .unwrap()
                .total_ms()
        };
        let t1 = total(1);
        let t4 = total(4);
        assert!(
            t4 < 0.5 * t1,
            "4-device sharding should cut the transfer-dominated total: {t4} vs {t1}"
        );
    }
}
