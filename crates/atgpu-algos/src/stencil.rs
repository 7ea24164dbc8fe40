//! 1-D three-point stencil — extension workload with halo loads.
//!
//! `out[i] = in[i−1] + in[i] + in[i+1]` with zero boundaries.  The input
//! is staged into a device buffer at offset 1 so the halo cells are the
//! zero-initialised words on either side; each block loads its `b`-word
//! chunk plus a two-word halo (a guarded, partially-masked global access).
//! One round, transfer-dominated like vector addition but with a slightly
//! richer access pattern.
//!
//! The **iterated** workload ([`IteratedStencil`], from
//! [`Stencil::iterated`]) applies the stencil `rounds` times,
//! ping-ponging between two padded buffers.  On a cluster each device
//! owns a contiguous slab of cells and, before every round after the
//! first, exchanges its single boundary cell with each slab neighbour
//! over the **directed peer links** — the canonical halo-exchange
//! pattern, and the workload whose peer traffic the cost-driven planner
//! prices through its [`Workload::shard_profile`].

use crate::error::AlgosError;
use crate::gen;
use crate::workload::{BuiltProgram, Placement, Workload};
use atgpu_ir::{AddrExpr, AluOp, DBuf, Kernel, KernelBuilder, Operand, PredExpr, ProgramBuilder};
use atgpu_model::{AlgoMetrics, AtgpuMachine, PeerProfile, RoundMetrics, ShardProfile};

/// A stencil instance.
#[derive(Debug, Clone)]
pub struct Stencil {
    n: u64,
    data: Vec<i64>,
}

impl Stencil {
    /// Random instance of size `n`.
    pub fn new(n: u64, seed: u64) -> Self {
        Self { n, data: gen::small_ints(n, seed) }
    }

    /// Instance from explicit data.
    pub fn from_data(data: Vec<i64>) -> Self {
        Self { n: data.len() as u64, data }
    }

    /// Host reference with zero boundaries.
    pub fn host_reference(&self) -> Vec<i64> {
        Self::step(&self.data)
    }

    /// One stencil application with zero boundaries.
    fn step(data: &[i64]) -> Vec<i64> {
        let n = data.len();
        (0..n)
            .map(|i| {
                let left = if i == 0 { 0 } else { data[i - 1] };
                let right = if i + 1 == n { 0 } else { data[i + 1] };
                left.wrapping_add(data[i]).wrapping_add(right)
            })
            .collect()
    }

    /// Host reference of the stencil applied `rounds` times (zero
    /// boundaries every round) — the truth the iterated and sharded
    /// builders are verified against.
    pub fn iterated_reference(&self, rounds: u64) -> Vec<i64> {
        let mut cur = self.data.clone();
        for _ in 0..rounds {
            cur = Self::step(&cur);
        }
        cur
    }

    /// This instance applied `rounds` times — the shardable
    /// halo-exchange workload.
    pub fn iterated(&self, rounds: u64) -> IteratedStencil<&Stencil> {
        IteratedStencil::new(self, rounds)
    }

    /// [`Workload::build_sharded`] of [`Self::iterated`].
    pub fn build_sharded(
        &self,
        machine: &AtgpuMachine,
        devices: u32,
        rounds: u64,
    ) -> Result<BuiltProgram, AlgosError> {
        self.iterated(rounds).build_sharded(machine, devices)
    }
}

/// The step kernel `name`: read the `b + 2`-word window of `src` at pad
/// offset 1 (one-cell halo each side, zero at the ends), sum the three
/// neighbours, store the block's `b` results to `dst[store]`.
fn step_kernel(name: &str, k: u64, b: u64, src: DBuf, dst: DBuf, store: AddrExpr) -> Kernel {
    let bi = b as i64;
    // Shared layout: window [0, b+2), staging [b+2, 2b+2).
    let mut kb = KernelBuilder::new(name, k, 2 * b + 2);
    kb.glb_to_shr(AddrExpr::lane(), src, AddrExpr::block() * bi + AddrExpr::lane());
    kb.when(PredExpr::Lt(Operand::Lane, Operand::Imm(2)), |kb| {
        kb.glb_to_shr(AddrExpr::lane() + bi, src, AddrExpr::block() * bi + AddrExpr::lane() + bi);
    });
    kb.ld_shr(0, AddrExpr::lane());
    kb.ld_shr(1, AddrExpr::lane() + 1);
    kb.ld_shr(2, AddrExpr::lane() + 2);
    kb.alu(AluOp::Add, 0, Operand::Reg(0), Operand::Reg(1));
    kb.alu(AluOp::Add, 0, Operand::Reg(0), Operand::Reg(2));
    kb.st_shr(AddrExpr::lane() + bi + 2, Operand::Reg(0));
    kb.shr_to_glb(dst, store, AddrExpr::lane() + bi + 2);
    kb.build()
}

/// A stencil is its own reference, so an [`IteratedStencil`] holds one
/// owned (the roster's) or borrowed ([`Stencil::iterated`]).
impl AsRef<Stencil> for Stencil {
    fn as_ref(&self) -> &Stencil {
        self
    }
}

/// A [`Stencil`] applied `rounds` times with zero boundaries every
/// round: one program round per application, ping-ponging between two
/// padded buffers in which cell `i` always lives at index `i + 1` of
/// whichever holds the current generation, so the two halo words at the
/// ends stay zero forever.  Requires `n` to be a positive multiple of
/// `b`.
#[derive(Debug, Clone)]
pub struct IteratedStencil<S = Stencil> {
    stencil: S,
    rounds: u64,
}

impl<S: AsRef<Stencil>> IteratedStencil<S> {
    /// `stencil` applied `rounds` times.
    pub fn new(stencil: S, rounds: u64) -> Self {
        Self { stencil, rounds }
    }
}

impl<S: AsRef<Stencil>> Workload for IteratedStencil<S> {
    fn name(&self) -> &'static str {
        "stencil-iterated"
    }

    fn size(&self) -> u64 {
        self.stencil.as_ref().n
    }

    fn units(&self, machine: &AtgpuMachine) -> Option<u64> {
        Some(self.stencil.as_ref().n / machine.b.max(1))
    }

    /// The per-block cost shape — the profile that makes the planner
    /// **peer-aware**: `rounds` kernel rounds, `b` words staged in and
    /// drained out per block, and one boundary cell exchanged with each
    /// slab neighbour per direction per halo round (`halo_words: 1`, one
    /// transaction per copy — the sim's `TransferPeer` accounting), so
    /// the drop-device candidates that idle a device with expensive peer
    /// edges are priced halo rows and all (on an asymmetric peer matrix
    /// the argmin flips away from every peer-blind plan: experiment E13).
    fn shard_profile(&self, machine: &AtgpuMachine) -> ShardProfile {
        let b = machine.b.max(1);
        ShardProfile {
            // load + guarded halo (1+1) + 3 loads + 2 adds + stage + store
            time_ops: 10,
            // window load (1) + halo load (1) + off-by-one store (2)
            io_blocks_per_unit: 4,
            inward_words_per_unit: b,
            inward_txns: 1,
            outward_words_per_unit: b,
            outward_txns: 1,
            shared_words: 2 * b + 2,
            rounds: self.rounds,
            peer: PeerProfile { halo_words: 1, halo_txns: 1, ..PeerProfile::default() },
            ..ShardProfile::default()
        }
    }

    /// Each shard stages its slab (widened by one host word each side,
    /// the initial halo), runs the step kernel on its own device's
    /// replica, and — before every round after the first — trades one
    /// boundary cell with each slab neighbour on a *different* device
    /// over the directed peer links (`TransferPeer`, both directions per
    /// boundary; adjacent shards on the *same* device share a replica
    /// and need no halo copies).  The last round drains each shard's
    /// slab to the host.
    fn emit(&self, machine: &AtgpuMachine, at: &Placement) -> Result<BuiltProgram, AlgosError> {
        let (stencil, rounds) = (self.stencil.as_ref(), self.rounds);
        let b = machine.b.max(1);
        let n = stencil.n;
        // Every lane's store must land on a live cell and the zero halo
        // cells must never be overwritten: with a ragged tail the
        // unguarded store would seed garbage into the pad region that
        // the next round's halo loads would read back.
        if n == 0 || !n.is_multiple_of(b) {
            return Err(AlgosError::InvalidSize {
                reason: format!("iterated stencil needs n a positive multiple of b = {b}, got {n}"),
            });
        }
        if rounds == 0 {
            return Err(AlgosError::InvalidSize { reason: "rounds must be at least 1".into() });
        }
        let k = n / b;
        let bi = b as i64;
        // Boundary detection walks slabs in cell order regardless of the
        // order the plan lists them in.
        let mut ordered = at.shards().to_vec();
        ordered.sort_by_key(|s| s.start);
        let mut pb = ProgramBuilder::new(at.name("stencil-iterated", "stencil-sharded"));
        let hin = pb.host_input("A", n);
        let hout = pb.host_output("Out", n);
        let pads = [pb.device_alloc("pad0", k * b + 2), pb.device_alloc("pad1", k * b + 2)];
        for r in 0..rounds {
            let (src, dst) = (pads[(r % 2) as usize], pads[((r + 1) % 2) as usize]);
            pb.begin_round();
            if r == 0 {
                // Stage each slab widened by one word per side: the
                // initial halo comes from the host, later halos over
                // peer links.
                for s in at.shards() {
                    let lo = (s.start * b).saturating_sub(1);
                    let hi = (s.end * b + 1).min(n);
                    pb.transfer_in_to(s.device, hin, lo, src, lo + 1, hi - lo);
                }
            } else {
                // Halo exchange on the current generation: one cell each
                // way across every shard boundary that crosses devices.
                for w in ordered.windows(2) {
                    if w[0].device == w[1].device {
                        continue;
                    }
                    let c = w[0].end * b;
                    pb.transfer_peer(w[0].device, w[1].device, src, c, c, 1);
                    pb.transfer_peer(w[1].device, w[0].device, src, c + 1, c + 1, 1);
                }
            }
            let store = AddrExpr::block() * bi + AddrExpr::lane() + 1;
            at.launch(&mut pb, step_kernel("stencil_step", k, b, src, dst, store));
            if r + 1 == rounds {
                for s in at.shards() {
                    let (lo, words) = (s.start * b, s.blocks() * b);
                    pb.transfer_out_from(s.device, dst, lo + 1, hout, lo, words);
                }
            }
        }
        Ok(BuiltProgram {
            program: pb.build()?,
            inputs: vec![stencil.data.clone()],
            outputs: vec![hout],
        })
    }

    fn expected(&self) -> Vec<Vec<i64>> {
        vec![self.stencil.as_ref().iterated_reference(self.rounds)]
    }
}

impl Workload for Stencil {
    fn name(&self) -> &'static str {
        "stencil"
    }

    fn size(&self) -> u64 {
        self.n
    }

    fn emit(&self, machine: &AtgpuMachine, _: &Placement) -> Result<BuiltProgram, AlgosError> {
        if self.n == 0 {
            return Err(AlgosError::InvalidSize { reason: "empty input".into() });
        }
        let n = self.n;
        let b = machine.b;
        let k = machine.blocks_for(n);

        let mut pb = ProgramBuilder::new("stencil");
        let hin = pb.host_input("A", n);
        let hout = pb.host_output("Out", n);
        // Input staged at offset 1; both halo words are zero-initialised.
        // Sized k·b + 2 so the last block's halo load stays in bounds even
        // when n is not a multiple of b.
        let din = pb.device_alloc("a_pad", k * b + 2);
        let dout = pb.device_alloc("out", n);

        pb.begin_round();
        pb.transfer_in_at(hin, 0, din, 1, n);
        let store = AddrExpr::block() * b as i64 + AddrExpr::lane();
        pb.launch(step_kernel("stencil_kernel", k, b, din, dout, store));
        pb.transfer_out(dout, hout, n);

        Ok(BuiltProgram {
            program: pb.build()?,
            inputs: vec![self.data.clone()],
            outputs: vec![hout],
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
            // load + guarded halo (1+1) + 3 loads + 2 adds + stage + store
            time: 1 + 2 + 3 + 2 + 1 + 1,
            // chunk load (1/block) + halo (1/block: both words in the next
            // memory block) + store (1/block)
            io_blocks: 3 * k,
            global_words: pad(k * b + 2) + pad(n),
            shared_words: 2 * b + 2,
            inward_words: n,
            inward_txns: 1,
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
        for n in [32u64, 1000, 4099] {
            let w = Stencil::new(n, 3);
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
        for n in [1u64, 2, 31, 32, 33, 1000] {
            let w = Stencil::new(n, n + 5);
            verify_on_sim(&w, &test_machine(), &test_spec(), &SimConfig::default())
                .unwrap_or_else(|e| panic!("n={n}: {e}"));
        }
    }

    #[test]
    fn constant_input_gives_triples_inside() {
        let w = Stencil::from_data(vec![5; 64]);
        let r = verify_on_sim(&w, &test_machine(), &test_spec(), &SimConfig::default()).unwrap();
        let out = r.output(atgpu_ir::HBuf(1));
        assert_eq!(out[0], 10); // boundary
        assert_eq!(out[1], 15);
        assert_eq!(out[62], 15);
        assert_eq!(out[63], 10); // boundary
    }

    use crate::workload::verify_built_on_cluster;
    use atgpu_model::{ClusterSpec, LinkParams};

    fn cluster(n: usize) -> ClusterSpec {
        ClusterSpec::homogeneous(n, test_spec())
    }

    #[test]
    fn iterated_reference_composes_single_steps() {
        let w = Stencil::new(96, 7);
        assert_eq!(w.iterated_reference(1), w.host_reference());
        let twice = Stencil::from_data(w.host_reference()).host_reference();
        assert_eq!(w.iterated_reference(2), twice);
    }

    #[test]
    fn iterated_build_matches_reference_on_sim() {
        let m = test_machine();
        for rounds in [1u64, 2, 5] {
            let w = Stencil::new(128, rounds + 11);
            let built = w.iterated(rounds).build(&m).unwrap();
            verify_built_on_cluster(
                &built,
                &[w.iterated_reference(rounds)],
                &m,
                &cluster(1),
                &SimConfig::default(),
            )
            .unwrap_or_else(|e| panic!("rounds={rounds}: {e}"));
        }
    }

    #[test]
    fn sharded_halo_exchange_matches_reference() {
        let m = test_machine();
        for devices in [1u32, 2, 3, 4] {
            let w = Stencil::new(256, devices as u64);
            let built = w.build_sharded(&m, devices, 6).unwrap();
            verify_built_on_cluster(
                &built,
                &[w.iterated_reference(6)],
                &m,
                &cluster(devices as usize),
                &SimConfig::default(),
            )
            .unwrap_or_else(|e| panic!("devices={devices}: {e}"));
        }
    }

    #[test]
    fn planned_sharding_verifies_on_asymmetric_peer_cluster() {
        let m = test_machine();
        let mut spec = cluster(3);
        // Make every peer edge touching device 2 expensive: the planner
        // may idle it, and the built plan must still verify.
        for d in 0..3 {
            if d != 2 {
                spec.peer_links[d][2] = LinkParams { alpha_ms: 5.0, beta_ms_per_word: 0.5 };
                spec.peer_links[2][d] = LinkParams { alpha_ms: 5.0, beta_ms_per_word: 0.5 };
            }
        }
        let w = Stencil::new(320, 9);
        let built = w.iterated(8).build_sharded_planned(&m, &spec).unwrap();
        verify_built_on_cluster(
            &built,
            &[w.iterated_reference(8)],
            &m,
            &spec,
            &SimConfig::default(),
        )
        .unwrap();
    }

    #[test]
    fn step_kernel_matches_shard_profile_shape() {
        // The profile the planner prices must describe the kernel the
        // builder emits: per-round time and per-block I/O from the
        // analyzer, staged words from the round metrics.
        let m = test_machine();
        let w = Stencil::new(256, 3);
        let built = w.iterated(3).build(&m).unwrap();
        let a = analyze_cluster_program(&built.program, &m, 1).unwrap();
        let profile = w.iterated(3).shard_profile(&m);
        let k = 256 / m.b;
        for round in &a.lone_device().unwrap().rounds {
            assert_eq!(round.time, profile.time_ops);
            assert_eq!(round.io_blocks, profile.io_blocks_per_unit * k);
        }
    }

    #[test]
    fn iterated_rejects_ragged_sizes() {
        let m = test_machine();
        assert!(Stencil::new(33, 0).iterated(2).build(&m).is_err());
        assert!(Stencil::new(64, 0).iterated(0).build(&m).is_err());
    }
}
