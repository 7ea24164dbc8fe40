//! Tree reduction — the paper's §IV-B workload (Figure 4).
//!
//! "We implement a simple reduction kernel \[Harris\] using the addition
//! operator, to sum an array of `n` integers, using a tree-based method.
//! […] each round using the output from the previous round as input."
//!
//! The algorithm runs `R = ⌈log_b n⌉` rounds; round `i` launches
//! `kᵢ = ⌈nᵢ₋₁/b⌉` blocks, each reducing `b` words in shared memory and
//! writing one partial.  Data is transferred inward once (round 1) and a
//! single word outward (last round) — transfer complexity `O(α + βn)`.
//!
//! Two kernel variants are provided, mirroring Harris's optimisation
//! steps (and the paper's future-work call for "further investigation of
//! reduction algorithms on the ATGPU"):
//!
//! * [`ReduceVariant::InterleavedModulo`] — the basic kernel the paper
//!   cites: stride `s` doubles each step and the active-lane test is
//!   `j mod 2s = 0`, maximising divergence (3 extra ALU ops per step);
//! * [`ReduceVariant::SequentialAddressing`] — the refined kernel:
//!   stride halves from `b/2` and active lanes are the compact prefix
//!   `j < s`.

use crate::error::AlgosError;
use crate::gen;
use crate::workload::{BuiltProgram, Placement, Workload};
use atgpu_ir::{
    AddrExpr, AluOp, DBuf, HBuf, Kernel, KernelBuilder, Operand, PredExpr, ProgramBuilder,
};
use atgpu_model::{AlgoMetrics, AtgpuMachine, RoundMetrics, ShardProfile};

/// Which reduction kernel to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceVariant {
    /// Harris's basic interleaved kernel with the modulo test (the
    /// paper's choice).
    InterleavedModulo,
    /// The sequential-addressing refinement.
    SequentialAddressing,
}

impl ReduceVariant {
    /// Lockstep time ops of one round's kernel for machine width `b`.
    ///
    /// The tree steps are unrolled with immediate strides (the stride of
    /// step `t` is a compile-time constant), so the per-step cost is the
    /// active test plus the 4-op arm — no stride recomputation.
    pub fn round_time_ops(&self, b: u64) -> u64 {
        let steps = b.trailing_zeros() as u64; // log2(b)
        match self {
            // load + steps·(16-cycle rem + pred + 4-op arm)
            // + final pred + store
            ReduceVariant::InterleavedModulo => 1 + steps * 21 + 2,
            // load + steps·(pred + 4-op arm) + final pred + store
            ReduceVariant::SequentialAddressing => 1 + steps * 5 + 2,
        }
    }

    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            ReduceVariant::InterleavedModulo => "interleaved-mod",
            ReduceVariant::SequentialAddressing => "sequential-addr",
        }
    }
}

/// Requires `b` to be a power of two ≥ 2 (the tree halves each step).
fn check_machine(machine: &AtgpuMachine) -> Result<(), AlgosError> {
    if !machine.b.is_power_of_two() || machine.b < 2 {
        return Err(AlgosError::InvalidMachine {
            reason: format!("tree reduction needs b to be a power of two ≥ 2, got {}", machine.b),
        });
    }
    Ok(())
}

/// Builds one reduction-round kernel: `k` blocks reduce `src` (the
/// previous level) into one partial per block in `dst`.
///
/// The `log₂ b` tree steps are **unrolled with immediate strides**: the
/// stride of step `t` is a compile-time constant, so every shared access
/// is static affine and every active-lane test folds to a constant mask
/// (the simulator's masked-affine shape).  The whole kernel then
/// compiles to the static timing path and qualifies for block-invariant
/// replay — the interleaved variant keeps its deliberately divergent
/// modulo test (and its 16-cycle `rem`), it just no longer recomputes
/// the stride at run time.
pub fn reduce_round_kernel(
    name: impl Into<String>,
    src: DBuf,
    dst: DBuf,
    k: u64,
    machine: &AtgpuMachine,
    variant: ReduceVariant,
) -> Kernel {
    let b = machine.b as i64;
    let steps = machine.b.trailing_zeros();
    let mut kb = KernelBuilder::new(name, k, machine.b);
    // _s[j] ⇐ src[i·b + j]
    kb.glb_to_shr(AddrExpr::lane(), src, AddrExpr::block() * b + AddrExpr::lane());
    match variant {
        ReduceVariant::InterleavedModulo => {
            for t in 0..steps {
                // s = 2^t; active iff j mod 2s = 0; _s[j] += _s[j+s]
                let s = 1i64 << t;
                kb.alu(AluOp::Rem, 2, Operand::Lane, Operand::Imm(2 * s));
                kb.when(PredExpr::Eq(Operand::Reg(2), Operand::Imm(0)), |kb| {
                    kb.ld_shr(3, AddrExpr::lane());
                    kb.ld_shr(4, AddrExpr::lane() + s);
                    kb.alu(AluOp::Add, 3, Operand::Reg(3), Operand::Reg(4));
                    kb.st_shr(AddrExpr::lane(), Operand::Reg(3));
                });
            }
        }
        ReduceVariant::SequentialAddressing => {
            for t in 0..steps {
                // s = (b/2) >> t; active iff j < s; _s[j] += _s[j+s]
                let s = (b / 2) >> t;
                kb.when(PredExpr::Lt(Operand::Lane, Operand::Imm(s)), |kb| {
                    kb.ld_shr(3, AddrExpr::lane());
                    kb.ld_shr(4, AddrExpr::lane() + s);
                    kb.alu(AluOp::Add, 3, Operand::Reg(3), Operand::Reg(4));
                    kb.st_shr(AddrExpr::lane(), Operand::Reg(3));
                });
            }
        }
    }
    // if j = 0 then dst[i] ⇐ _s[0]
    kb.when(PredExpr::Eq(Operand::Lane, Operand::Imm(0)), |kb| {
        kb.shr_to_glb(dst, AddrExpr::block(), AddrExpr::c(0));
    });
    kb.build()
}

/// The level sizes `n = n₀ > n₁ > … > n_R = 1` of the reduction tree.
pub fn level_sizes(n: u64, b: u64) -> Vec<u64> {
    let mut out = vec![n.max(1)];
    let mut cur = n.max(1);
    while cur > 1 {
        cur = cur.div_ceil(b);
        out.push(cur);
    }
    out
}

/// Appends the reduction rounds for `src` (holding `n` words) to an open
/// program.  When `start_new_round` is false the first kernel joins the
/// currently open round (so it shares the round with the inward
/// transfer, as the paper's program does).  The final round transfers
/// the 1-word result to `out`.
pub fn append_reduce_rounds(
    pb: &mut ProgramBuilder,
    src: DBuf,
    n: u64,
    machine: &AtgpuMachine,
    variant: ReduceVariant,
    out: HBuf,
    start_new_round: bool,
) -> Result<(), AlgosError> {
    check_machine(machine)?;
    let levels = level_sizes(n, machine.b);
    let mut cur_buf = src;
    let mut first = true;
    for (depth, window) in levels.windows(2).enumerate() {
        let (cur_n, next_n) = (window[0], window[1]);
        debug_assert_eq!(next_n, cur_n.div_ceil(machine.b));
        let dst = pb.device_alloc(format!("partial{depth}"), next_n);
        if !first || start_new_round {
            pb.begin_round();
        }
        pb.launch(reduce_round_kernel(
            format!("reduce_level{depth}"),
            cur_buf,
            dst,
            next_n,
            machine,
            variant,
        ));
        cur_buf = dst;
        first = false;
    }
    pb.transfer_out(cur_buf, out, 1);
    Ok(())
}

/// Exact closed-form metrics for the reduction rounds (kernel part only;
/// callers add the transfer words of their own program shape).
pub fn reduce_round_shapes(
    n: u64,
    machine: &AtgpuMachine,
    variant: ReduceVariant,
) -> Vec<(u64, u64, u64)> {
    // (time, io, blocks) per kernel round.
    let levels = level_sizes(n, machine.b);
    levels
        .windows(2)
        .map(|w| {
            let k = w[1];
            (variant.round_time_ops(machine.b), 2 * k, k)
        })
        .collect()
}

/// A reduction instance: sum of `n` integers.
#[derive(Debug, Clone)]
pub struct Reduce {
    n: u64,
    data: Vec<i64>,
    variant: ReduceVariant,
}

impl Reduce {
    /// Random 0/1 instance of size `n` (the paper's input distribution).
    pub fn new(n: u64, seed: u64) -> Self {
        Self::with_variant(n, seed, ReduceVariant::InterleavedModulo)
    }

    /// Random instance with an explicit kernel variant.
    pub fn with_variant(n: u64, seed: u64, variant: ReduceVariant) -> Self {
        Self { n, data: gen::zero_ones(n, seed), variant }
    }

    /// Instance from explicit data.
    pub fn from_data(data: Vec<i64>, variant: ReduceVariant) -> Self {
        Self { n: data.len() as u64, data, variant }
    }

    /// Host reference: the sum.
    pub fn host_reference(&self) -> i64 {
        self.data.iter().sum()
    }

    /// The kernel variant in use.
    pub fn variant(&self) -> ReduceVariant {
        self.variant
    }

    /// The **multi-device** reduction: round 1 shards the first tree
    /// level across devices (each device receives its block-aligned input
    /// slice and reduces it to one partial per block), then the partials
    /// are gathered onto device 0 over the peer links — one
    /// `TransferPeer` transaction per contributing shard, the
    /// "device-finish" communication scheme — and the remaining
    /// `⌈log_b n⌉ − 1` levels finish on device 0 alone.
    fn emit_sharded(
        &self,
        machine: &AtgpuMachine,
        shards: &[atgpu_ir::Shard],
    ) -> Result<BuiltProgram, AlgosError> {
        let n = self.n;
        let b = machine.b;
        let mut pb = ProgramBuilder::new("reduce_sharded");
        let ha = pb.host_input("A", n);
        let hout = pb.host_output("Ans", 1);
        let d0 = pb.device_alloc("a", n);

        if n == 1 {
            // Degenerate: one word in, one word out, no kernel.
            pb.begin_round();
            pb.transfer_in(ha, d0, 1);
            pb.transfer_out(d0, hout, 1);
        } else {
            // Round 1: sharded first level.
            let k1 = n.div_ceil(b);
            let dpart = pb.device_alloc("partial0", k1);
            pb.begin_round();
            for s in shards {
                let off = s.start * b;
                let words = (s.end * b).min(n) - off;
                pb.transfer_in_to(s.device, ha, off, d0, off, words);
            }
            pb.launch_sharded(
                reduce_round_kernel("reduce_level0", d0, dpart, k1, machine, self.variant),
                shards.to_vec(),
            );
            // Gather every device's partials onto device 0.
            for s in shards.iter().filter(|s| s.device != 0) {
                pb.transfer_peer(s.device, 0, dpart, s.start, s.start, s.blocks());
            }
            // Remaining levels on device 0.
            append_reduce_rounds(&mut pb, dpart, k1, machine, self.variant, hout, true)?;
        }

        Ok(BuiltProgram {
            program: pb.build()?,
            inputs: vec![self.data.clone()],
            outputs: vec![hout],
        })
    }
}

impl Workload for Reduce {
    fn name(&self) -> &'static str {
        "reduce"
    }

    fn size(&self) -> u64 {
        self.n
    }

    /// First-level blocks.
    fn units(&self, machine: &AtgpuMachine) -> Option<u64> {
        Some(self.n.div_ceil(machine.b.max(1)))
    }

    /// The per-block cost shape of the sharded first level: `b` input
    /// words in per block, one partial out per block — gathered to
    /// device 0 over peer links, which the profile declares as a merge
    /// (`merge_words_per_unit: 1` to owner 0), so the planner prices the
    /// gather on the directed peer matrix and a slow host link costs its
    /// device first-level blocks.
    fn shard_profile(&self, machine: &AtgpuMachine) -> ShardProfile {
        let b = machine.b.max(1);
        let shapes = reduce_round_shapes(self.n, machine, self.variant);
        let (time, io, k1) = shapes.first().copied().unwrap_or((0, 0, 1));
        ShardProfile {
            time_ops: time,
            io_blocks_per_unit: io / k1.max(1),
            inward_words_per_unit: b,
            inward_txns: 1,
            shared_words: b,
            peer: atgpu_model::PeerProfile {
                merge_words_per_unit: 1,
                merge_txns: 1,
                owner: 0,
                ..atgpu_model::PeerProfile::default()
            },
            ..ShardProfile::default()
        }
    }

    /// Two bodies, not one: the single-device tree is
    /// [`append_reduce_rounds`] straight from the input (levels numbered
    /// through, the first kernel sharing the inward transfer's round),
    /// while the sharded form runs its own first level into a gather
    /// buffer and restarts the tree from there.  A shared body would
    /// branch on which of the two it is emitting.
    fn emit(&self, machine: &AtgpuMachine, at: &Placement) -> Result<BuiltProgram, AlgosError> {
        if self.n == 0 {
            return Err(AlgosError::InvalidSize { reason: "empty input".into() });
        }
        check_machine(machine)?;
        if !at.is_single() {
            return self.emit_sharded(machine, at.shards());
        }
        let n = self.n;
        let mut pb = ProgramBuilder::new("reduce");
        let ha = pb.host_input("A", n);
        let hout = pb.host_output("Ans", 1);
        let d0 = pb.device_alloc("a", n);
        pb.begin_round();
        pb.transfer_in(ha, d0, n); // a W A
        append_reduce_rounds(&mut pb, d0, n, machine, self.variant, hout, false)?;
        Ok(BuiltProgram {
            program: pb.build()?,
            inputs: vec![self.data.clone()],
            outputs: vec![hout],
        })
    }

    fn expected(&self) -> Vec<Vec<i64>> {
        vec![vec![self.host_reference()]]
    }

    fn closed_form(&self, machine: &AtgpuMachine) -> Option<AlgoMetrics> {
        let b = machine.b;
        let pad = |w: u64| w.div_ceil(b) * b;
        let levels = level_sizes(self.n, b);
        let global_words: u64 = levels.iter().map(|&w| pad(w)).sum();
        let shapes = reduce_round_shapes(self.n, machine, self.variant);
        let r = shapes.len();
        let mut rounds: Vec<RoundMetrics> = shapes
            .iter()
            .enumerate()
            .map(|(i, &(time, io, k))| RoundMetrics {
                time,
                io_blocks: io,
                global_words,
                shared_words: b,
                inward_words: if i == 0 { self.n } else { 0 },
                inward_txns: u64::from(i == 0),
                outward_words: if i + 1 == r { 1 } else { 0 },
                outward_txns: u64::from(i + 1 == r),
                blocks_launched: k,
            })
            .collect();
        if rounds.is_empty() {
            // n = 1: a single transfer-only round.
            rounds.push(RoundMetrics {
                global_words,
                shared_words: 0,
                inward_words: 1,
                inward_txns: 1,
                outward_words: 1,
                outward_txns: 1,
                ..RoundMetrics::default()
            });
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
    fn level_sizes_shrink_by_b() {
        assert_eq!(level_sizes(32 * 32, 32), vec![1024, 32, 1]);
        assert_eq!(level_sizes(1025, 32), vec![1025, 33, 2, 1]);
        assert_eq!(level_sizes(1, 32), vec![1]);
        assert_eq!(level_sizes(31, 32), vec![31, 1]);
    }

    #[test]
    fn analyzer_matches_closed_form_both_variants() {
        let m = test_machine();
        for variant in [ReduceVariant::InterleavedModulo, ReduceVariant::SequentialAddressing] {
            for n in [32u64, 1000, 1 << 12, (1 << 12) + 17] {
                let w = Reduce::with_variant(n, 1, variant);
                let built = w.build(&m).unwrap();
                let analysis = analyze_cluster_program(&built.program, &m, 1).unwrap();
                assert_eq!(
                    analysis.lone_device().unwrap(),
                    &w.closed_form(&m).unwrap(),
                    "mismatch at n={n} variant={variant:?}"
                );
            }
        }
    }

    #[test]
    fn rounds_count_is_ceil_log_b() {
        let m = test_machine();
        let w = Reduce::new(1 << 20, 1); // 32^4 = 2^20: exactly 4 rounds
        let built = w.build(&m).unwrap();
        assert_eq!(built.program.num_rounds(), 4);
    }

    #[test]
    fn simulation_sums_correctly_interleaved() {
        for n in [1u64, 5, 32, 100, 2048, 4099] {
            let w = Reduce::with_variant(n, n, ReduceVariant::InterleavedModulo);
            verify_on_sim(&w, &test_machine(), &test_spec(), &SimConfig::default())
                .unwrap_or_else(|e| panic!("n={n}: {e}"));
        }
    }

    #[test]
    fn simulation_sums_correctly_sequential() {
        for n in [32u64, 1000, 4099] {
            let w = Reduce::with_variant(n, n, ReduceVariant::SequentialAddressing);
            verify_on_sim(&w, &test_machine(), &test_spec(), &SimConfig::default())
                .unwrap_or_else(|e| panic!("n={n}: {e}"));
        }
    }

    #[test]
    fn negative_values_sum_correctly() {
        let w = Reduce::from_data(vec![-5, 3, -2, 10, 0, 1], ReduceVariant::InterleavedModulo);
        let r = verify_on_sim(&w, &test_machine(), &test_spec(), &SimConfig::default()).unwrap();
        assert_eq!(r.output(atgpu_ir::HBuf(1)), &[7]);
    }

    #[test]
    fn interleaved_kernel_is_slower_than_sequential() {
        // The divergent modulo kernel does more lockstep work per round.
        let b = test_machine().b;
        assert!(
            ReduceVariant::InterleavedModulo.round_time_ops(b)
                > ReduceVariant::SequentialAddressing.round_time_ops(b)
        );
    }

    #[test]
    fn non_power_of_two_b_rejected() {
        let m = AtgpuMachine::new(48 * 4, 48, 1024, 1 << 20).unwrap();
        assert!(Reduce::new(100, 1).build(&m).is_err());
    }

    #[test]
    fn transfer_share_moderate_like_paper() {
        // Paper: reduction transfer ≈ 35% of total — much lower than
        // vector addition's 84%.  Check we reproduce the *ordering*.
        let spec = atgpu_model::GpuSpec::gtx650_like();
        let m = test_machine();
        let cfg = SimConfig::default();
        let red = verify_on_sim(&Reduce::new(1 << 16, 3), &m, &spec, &cfg).unwrap();
        let va = verify_on_sim(&crate::vecadd::VecAdd::new(1 << 16, 3), &m, &spec, &cfg).unwrap();
        assert!(
            red.transfer_proportion() < va.transfer_proportion(),
            "reduce ΔE {} should be below vecadd ΔE {}",
            red.transfer_proportion(),
            va.transfer_proportion()
        );
    }

    #[test]
    fn sharded_build_verifies_on_clusters() {
        use crate::workload::verify_built_on_cluster;
        let m = test_machine();
        for devices in [1u32, 2, 3, 4] {
            for n in [1u64, 32, 1000, 4099] {
                let w = Reduce::with_variant(n, n, ReduceVariant::SequentialAddressing);
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
                // With several devices the gather crosses peer links.
                if devices > 1 && n > 32 {
                    let r0 = &report.rounds[0];
                    assert!(r0.devices[0].peer_ms > 0.0, "devices={devices} n={n}");
                }
            }
        }
    }

    /// The cost-driven planner on an asymmetric-link cluster: the
    /// slow-link device reduces fewer first-level blocks, and the result
    /// still verifies.
    #[test]
    fn planned_sharding_verifies_on_asymmetric_links() {
        use crate::workload::verify_built_on_cluster;
        let m = test_machine();
        let w = Reduce::new(8192, 9);
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
    }
}
