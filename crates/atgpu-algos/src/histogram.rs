//! Histogram — data-dependent addressing, the case the model's
//! bank-conflict-free assumption cannot cover.
//!
//! `bins = b` values are counted.  Round 1 gives every lane a private
//! bin row in shared memory (`_h[j·b + bin]`), so increments are
//! race-free without atomics (which the model lacks, like early CUDA);
//! lanes hitting the same *bin* still collide on the same *bank* — a
//! genuine, input-dependent bank conflict the simulator measures and the
//! static analyser can only bound as `ConflictDegree::DataDependent`
//! (atgpu-analyze).  Each block then column-reduces its `b×b`
//! sub-histogram and writes a `b`-bin partial; round 2 sums the
//! partials on a single block.
//!
//! The cluster variant shards round 1's blocks across devices and
//! **peer-merges the partial bin rows to an owner device** (device 0),
//! which runs the summation and drains the result — the all-to-one
//! merge shape [`PeerProfile`] prices via
//! `merge_words_per_unit`, since every block contributes a `b`-word
//! partial row that must cross a peer link unless it already lives on
//! the owner.

use crate::error::AlgosError;
use crate::gen;
use crate::workload::{BuiltProgram, Placement, Workload};
use atgpu_ir::{AddrExpr, AluOp, Kernel, KernelBuilder, Operand, PredExpr, ProgramBuilder};
use atgpu_model::{AtgpuMachine, PeerProfile, ShardProfile};

/// A histogram instance; `bins` is carried by the instance so host
/// references and expected outputs never need it re-supplied.
#[derive(Debug, Clone)]
pub struct Histogram {
    n: u64,
    bins: u64,
    data: Vec<i64>,
}

impl Histogram {
    /// Random instance of size `n` over `bins` bins; values are drawn in
    /// `[0, bins)`.  The kernel counts `b` bins, so build on a machine
    /// with `b = bins`.
    pub fn new(n: u64, bins: u64, seed: u64) -> Self {
        Self { n, bins, data: gen::bin_values(n, bins, seed) }
    }

    /// Instance from explicit data (caller guarantees values in
    /// `[0, bins)`; violations are rejected at build).
    pub fn from_data(data: Vec<i64>, bins: u64) -> Self {
        Self { n: data.len() as u64, bins, data }
    }

    /// Bin count this instance was generated for.
    pub fn bins(&self) -> u64 {
        self.bins
    }

    /// Host reference over [`Self::bins`] bins.
    pub fn host_reference(&self) -> Vec<i64> {
        let mut h = vec![0i64; self.bins as usize];
        for &v in &self.data {
            h[v as usize] += 1;
        }
        h
    }

    /// Validation: sizes, the power-of-two warp constraint, the
    /// machine/instance bin agreement, and value range.  Returns
    /// `(k, b, steps)`.
    fn check(&self, machine: &AtgpuMachine) -> Result<(u64, u64, u32), AlgosError> {
        if self.n == 0 {
            return Err(AlgosError::InvalidSize { reason: "empty input".into() });
        }
        let b = machine.b;
        if !b.is_power_of_two() || b < 2 {
            return Err(AlgosError::InvalidMachine {
                reason: format!("histogram needs b a power of two ≥ 2, got {b}"),
            });
        }
        if self.bins != b {
            return Err(AlgosError::InvalidMachine {
                reason: format!("instance counts {} bins but the kernel counts b = {b}", self.bins),
            });
        }
        if self.data.iter().any(|&v| v < 0 || v >= b as i64) {
            return Err(AlgosError::InvalidSize {
                reason: format!("values must lie in [0, bins) = [0, {b})"),
            });
        }
        Ok((machine.blocks_for(self.n), b, b.trailing_zeros()))
    }
}

/// Round-1 kernel: per-block `b×b` sub-histogram in shared memory
/// (private row per lane, race-free without atomics), then a per-bin
/// column reduction writing a `b`-bin partial row to `dpart`.
/// Shared: sub-hist `[0, b²)`, scratch `[b², b² + b)`.
fn hist_blocks_kernel(
    n: u64,
    k: u64,
    b: u64,
    steps: u32,
    din: atgpu_ir::DBuf,
    dpart: atgpu_ir::DBuf,
) -> Kernel {
    let bi = b as i64;
    let scratch = (b * b) as i64;
    let mut kb = KernelBuilder::new("hist_blocks", k, b * b + b);
    // Value into scratch then a register.
    kb.glb_to_shr(AddrExpr::lane() + scratch, din, AddrExpr::block() * bi + AddrExpr::lane());
    kb.ld_shr(0, AddrExpr::lane() + scratch);
    // Guard padded lanes: treat out-of-range (padded-zero) values as
    // bin 0 — they are zeros already, so no guard is needed for the
    // value itself, but padded lanes of the last block must not count.
    // We mask them by the global index bound: idx = i·b + j < n.
    kb.alu(AluOp::Mul, 1, Operand::Block, Operand::Imm(bi));
    kb.alu(AluOp::Add, 1, Operand::Reg(1), Operand::Lane);
    kb.when(PredExpr::Lt(Operand::Reg(1), Operand::Imm(n as i64)), |kb| {
        // _h[j·b + value] += 1  (private row: race-free)
        kb.ld_shr(2, AddrExpr::lane() * bi + AddrExpr::reg(0));
        kb.alu(AluOp::Add, 2, Operand::Reg(2), Operand::Imm(1));
        kb.st_shr(AddrExpr::lane() * bi + AddrExpr::reg(0), Operand::Reg(2));
    });
    // Column-reduce each bin across lanes.
    kb.repeat(b as u32, |kb| {
        // scratch[j] ← _h[j·b + bin]   (stride-b read: full conflict)
        kb.ld_shr(3, AddrExpr::lane() * bi + AddrExpr::loop_var(0));
        kb.st_shr(AddrExpr::lane() + scratch, Operand::Reg(3));
        kb.repeat(steps, |kb| {
            kb.alu(AluOp::Shr, 4, Operand::Imm(bi / 2), Operand::LoopVar(1));
            kb.when(PredExpr::Lt(Operand::Lane, Operand::Reg(4)), |kb| {
                kb.ld_shr(5, AddrExpr::lane() + scratch);
                kb.ld_shr(6, AddrExpr::lane() + AddrExpr::reg(4) + scratch);
                kb.alu(AluOp::Add, 5, Operand::Reg(5), Operand::Reg(6));
                kb.st_shr(AddrExpr::lane() + scratch, Operand::Reg(5));
            });
        });
        kb.when(PredExpr::Eq(Operand::Lane, Operand::Imm(0)), |kb| {
            kb.shr_to_glb(
                dpart,
                AddrExpr::block() * bi + AddrExpr::loop_var(0),
                AddrExpr::c(scratch),
            );
        });
    });
    kb.build()
}

/// Round-2 kernel: a single block sums the `k` partial rows into the
/// final `b`-bin histogram.
fn hist_merge_kernel(k: u64, b: u64, dpart: atgpu_ir::DBuf, dhist: atgpu_ir::DBuf) -> Kernel {
    let bi = b as i64;
    let mut kb = KernelBuilder::new("hist_merge", 1, b);
    kb.mov(0, Operand::Imm(0));
    kb.repeat(k as u32, |kb| {
        kb.glb_to_shr(AddrExpr::lane(), dpart, AddrExpr::loop_var(0) * bi + AddrExpr::lane());
        kb.ld_shr(1, AddrExpr::lane());
        kb.alu(AluOp::Add, 0, Operand::Reg(0), Operand::Reg(1));
    });
    kb.st_shr(AddrExpr::lane(), Operand::Reg(0));
    kb.shr_to_glb(dhist, AddrExpr::lane(), AddrExpr::lane());
    kb.build()
}

impl Workload for Histogram {
    fn name(&self) -> &'static str {
        "histogram"
    }

    fn size(&self) -> u64 {
        self.n
    }

    fn units(&self, machine: &AtgpuMachine) -> Option<u64> {
        Some(machine.blocks_for(self.n))
    }

    /// The cost shape of the histogram: a heavy bin-loop kernel round
    /// plus a merge round (`time_ops` is their mean; the owner's `k`-row
    /// summation is plan-invariant and left out), `b` input words staged
    /// per block, and a `b`-word partial row peer-merged to the owner
    /// per block — the all-to-one traffic the planner prices on the
    /// directed matrix, steering blocks toward the owner (or dropping a
    /// device outright) when links to it are slow.
    fn shard_profile(&self, machine: &AtgpuMachine) -> ShardProfile {
        let b = machine.b.max(2);
        let steps = b.trailing_zeros() as u64;
        let t1 = 8 + b * (3 + 6 * steps); // prelude + per-bin reduce loop
        ShardProfile {
            time_ops: t1.div_ceil(2),
            io_blocks_per_unit: b + 1,
            inward_words_per_unit: b,
            inward_txns: 1,
            shared_words: b * b + b,
            rounds: 2,
            peer: PeerProfile {
                merge_words_per_unit: b,
                merge_txns: 1,
                owner: 0,
                ..PeerProfile::default()
            },
            ..ShardProfile::default()
        }
    }

    /// Two rounds over a placement of the block grid: each shard stages
    /// its input slice and builds per-block partial bin rows on its own
    /// device; every shard off the owner (device 0) then **peer-merges
    /// its partial rows to the owner**, which sums all `k` rows in block
    /// order — bit-identical under any placement — and drains the
    /// `b`-bin result.
    fn emit(&self, machine: &AtgpuMachine, at: &Placement) -> Result<BuiltProgram, AlgosError> {
        let (k, b, steps) = self.check(machine)?;
        let n = self.n;

        let mut pb = ProgramBuilder::new(at.name("histogram", "histogram-sharded"));
        let hin = pb.host_input("A", n);
        let hout = pb.host_output("Hist", b);
        let din = pb.device_alloc("a", n);
        let dpart = pb.device_alloc("partial", k * b);
        let dhist = pb.device_alloc("hist", b);

        // Round 1: stage slices, per-block sub-histograms + column
        // reduction per shard.
        pb.begin_round();
        for s in at.shards() {
            let lo = s.start * b;
            pb.transfer_in_to(s.device, hin, lo, din, lo, (s.end * b).min(n) - lo);
        }
        at.launch(&mut pb, hist_blocks_kernel(n, k, b, steps, din, dpart));

        // Round 2: merge partial rows to the owner, sum the k rows, drain.
        pb.begin_round();
        for s in at.shards() {
            if s.device != 0 {
                pb.transfer_peer(s.device, 0, dpart, s.start * b, s.start * b, s.blocks() * b);
            }
        }
        at.launch_on_owner(&mut pb, hist_merge_kernel(k, b, dpart, dhist));
        pb.transfer_out(dhist, hout, b);

        Ok(BuiltProgram {
            program: pb.build()?,
            inputs: vec![self.data.clone()],
            outputs: vec![hout],
        })
    }

    fn expected(&self) -> Vec<Vec<i64>> {
        vec![self.host_reference()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{test_machine, test_spec, verify_on_sim};
    use atgpu_analyze::{analyze_cluster_program, ConflictDegree};
    use atgpu_sim::SimConfig;

    #[test]
    fn simulation_matches_host() {
        for n in [32u64, 100, 1000, 1027] {
            let w = Histogram::new(n, 32, n);
            verify_on_sim(&w, &test_machine(), &test_spec(), &SimConfig::default())
                .unwrap_or_else(|e| panic!("n={n}: {e}"));
        }
    }

    #[test]
    fn skewed_data_counts_correctly() {
        // All values identical: the worst bank-conflict case.
        let w = Histogram::from_data(vec![7; 256], 32);
        let r = verify_on_sim(&w, &test_machine(), &test_spec(), &SimConfig::default()).unwrap();
        let hist = r.output(atgpu_ir::HBuf(1));
        assert_eq!(hist[7], 256);
        assert_eq!(hist.iter().sum::<i64>(), 256);
    }

    #[test]
    fn analyzer_reports_data_dependent_conflicts() {
        let m = test_machine();
        let w = Histogram::new(256, 32, 1);
        let built = w.build(&m).unwrap();
        let a = analyze_cluster_program(&built.program, &m, 1).unwrap();
        assert!(!a.conflict_free);
        let worst = a.kernels[0].as_ref().unwrap().bank.worst;
        assert_eq!(worst, ConflictDegree::DataDependent);
        // Global addressing is still affine: I/O stays exact.
        assert!(a.io_exact);
    }

    #[test]
    fn simulator_measures_real_conflicts() {
        let m = test_machine();
        let spec = test_spec();
        // Uniform values: each lane a distinct bin — every increment hits
        // bank (j·b + v) mod b = v: all lanes SAME bank when values equal.
        let skew = Histogram::from_data(vec![3; 1024], 32);
        let r1 = verify_on_sim(&skew, &m, &spec, &SimConfig::default()).unwrap();
        // Distinct values per lane: lane j gets value j → banks all
        // distinct → fewer conflict cycles.
        let spread: Vec<i64> = (0..1024).map(|i| (i % 32) as i64).collect();
        let spread = Histogram::from_data(spread, 32);
        let r2 = verify_on_sim(&spread, &m, &spec, &SimConfig::default()).unwrap();
        let c1 = r1.rounds[0].kernel_stats.bank_conflict_cycles;
        let c2 = r2.rounds[0].kernel_stats.bank_conflict_cycles;
        assert!(c1 > c2, "skewed data should conflict more: {c1} vs {c2}");
    }

    #[test]
    fn out_of_range_values_rejected() {
        let w = Histogram::from_data(vec![99], 32);
        assert!(w.build(&test_machine()).is_err());
    }

    #[test]
    fn mismatched_bins_rejected() {
        // The instance carries its bin count: building 8-bin data on a
        // 32-bin machine must fail loudly, not quietly widen.
        let w = Histogram::new(256, 8, 0);
        assert!(w.build(&test_machine()).is_err());
    }

    #[test]
    fn two_rounds() {
        let w = Histogram::new(1000, 32, 0);
        assert_eq!(w.build(&test_machine()).unwrap().program.num_rounds(), 2);
    }

    use crate::workload::verify_built_on_cluster;
    use atgpu_model::{ClusterSpec, LinkParams};

    fn cluster(n: usize) -> ClusterSpec {
        ClusterSpec::homogeneous(n, test_spec())
    }

    #[test]
    fn sharded_peer_merge_matches_host() {
        let m = test_machine();
        for devices in [1u32, 2, 3, 4] {
            for n in [200u64, 1027, 4096] {
                let w = Histogram::new(n, 32, n + devices as u64);
                let built = w.build_sharded(&m, devices).unwrap();
                verify_built_on_cluster(
                    &built,
                    &[w.host_reference()],
                    &m,
                    &cluster(devices as usize),
                    &SimConfig::default(),
                )
                .unwrap_or_else(|e| panic!("devices={devices} n={n}: {e}"));
            }
        }
    }

    #[test]
    fn planned_sharding_avoids_expensive_merge_path() {
        let m = test_machine();
        let mut spec = cluster(3);
        // Device 2's directed link *to the owner* is very expensive; its
        // merge rows would dominate the round, so the planner should
        // starve it, and the plan must still verify bit-identically.
        spec.peer_links[2][0] = LinkParams { alpha_ms: 20.0, beta_ms_per_word: 1.0 };
        let w = Histogram::new(4096, 32, 5);
        let built = w.build_sharded_planned(&m, &spec).unwrap();
        let blocks_on_2: u64 = built.program.rounds[0]
            .shards()
            .unwrap()
            .iter()
            .filter(|s| s.device == 2)
            .map(atgpu_ir::Shard::blocks)
            .sum();
        let k = m.blocks_for(4096);
        assert!(
            blocks_on_2 < k / 3,
            "device 2 should get a below-even share, got {blocks_on_2} of {k}"
        );
        verify_built_on_cluster(&built, &[w.host_reference()], &m, &spec, &SimConfig::default())
            .unwrap();
    }
}
