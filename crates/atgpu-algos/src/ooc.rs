//! Out-of-core workloads — the paper's future-work scenario:
//!
//! > "it would be interesting to analyse different approaches where the
//! > data does not fit on the global memory, thereby requiring some sort
//! > of partitioning, and it is hoped that differences could be
//! > illustrated in approaches with differing host device communication
//! > requirements."
//!
//! Both workloads partition the input into chunks of `chunk` words and
//! process one chunk per round, so device memory holds only `O(chunk)`
//! words regardless of `n` — at the price of `R = ⌈n/chunk⌉` rounds, each
//! paying the transfer setup `α` and the synchronisation `σ`.  The chunk
//! size is the communication-scheme knob the cost function reasons about:
//! small chunks fit small `G` but multiply the fixed per-round costs.
//!
//! The out-of-core reduction additionally offers two finishing schemes
//! with *different host–device communication requirements*:
//!
//! * [`OocScheme::HostFinish`] — each round ships its `⌈len/b⌉` partials
//!   back to the host, which finishes the sum: `O(n/b)` outward words;
//! * [`OocScheme::DeviceFinish`] — partials accumulate in a resident
//!   device buffer and a final reduction tree runs on-device: one
//!   outward word, but extra rounds at the end.

use crate::error::AlgosError;
use crate::gen;
use crate::reduce::{append_reduce_rounds, reduce_round_kernel, ReduceVariant};
use crate::vecadd::{vecadd_kernel, vecadd_kernel_at};
use crate::workload::{BuiltProgram, Placement, Workload};
use atgpu_ir::{AddrExpr, AluOp, KernelBuilder, Operand, ProgramBuilder, Shard};
use atgpu_model::{AtgpuMachine, ShardProfile};

/// Size validation of every out-of-core builder: non-empty input, chunk
/// a positive multiple of the machine's warp width.
fn check_chunking(n: u64, chunk: u64, b: u64) -> Result<(), AlgosError> {
    if n == 0 {
        return Err(AlgosError::InvalidSize { reason: "empty input".into() });
    }
    if chunk == 0 || !chunk.is_multiple_of(b) {
        return Err(AlgosError::InvalidSize {
            reason: format!("chunk {chunk} must be a positive multiple of b = {b}"),
        });
    }
    Ok(())
}

/// Out-of-core vector addition: `C = A + B` processed in chunks.
#[derive(Debug, Clone)]
pub struct OocVecAdd {
    n: u64,
    chunk: u64,
    a: Vec<i64>,
    b: Vec<i64>,
}

impl OocVecAdd {
    /// Random instance of size `n` processed in `chunk`-word pieces.
    pub fn new(n: u64, chunk: u64, seed: u64) -> Self {
        Self { n, chunk, a: gen::small_ints(n, seed), b: gen::small_ints(n, seed.wrapping_add(1)) }
    }

    /// Host reference.
    pub fn host_reference(&self) -> Vec<i64> {
        self.a.iter().zip(&self.b).map(|(x, y)| x + y).collect()
    }

    /// Rounds this instance needs.
    pub fn rounds(&self) -> u64 {
        self.n.div_ceil(self.chunk)
    }

    /// Builds the **double-buffered streamed** out-of-core addition: two
    /// ping-pong buffer sets, with chunk `r`'s host→device copies
    /// enqueued on **stream 1** in the same round that runs chunk
    /// `r − 1`'s kernel and device→host copy on **stream 0** — so the
    /// next chunk's upload hides behind the current chunk's compute and
    /// download (the CrystalGPU overlap pattern).  Functionally the
    /// program is bit-identical to [`Workload::build`]'s serial form
    /// (streams only affect timing, and the two chunks touch disjoint
    /// buffer sets); its modelled/observed time is what improves.
    ///
    /// Costs one extra round (`R + 1` total): round 0 only uploads chunk
    /// 0, round `R` only drains chunk `R − 1`.
    ///
    /// A thin wrapper over the shared ping-pong emission with this
    /// instance's hand-chosen `chunk`; [`Self::build_planned`] derives
    /// the chunk from the cost model instead.
    pub fn build_streamed(&self, machine: &AtgpuMachine) -> Result<BuiltProgram, AlgosError> {
        self.build_streamed_with_chunk(machine, self.chunk)
    }

    /// Builds the double-buffered streamed program with an
    /// **automatically solved** chunk size: candidate chunks (powers of
    /// two up to the largest that fits the ping-pong buffers in `G`) are
    /// priced through [`atgpu_model::plan::solve_chunk_units`] — the
    /// ping-pong schedule run through the same `StreamTimeline`-based
    /// cost the simulator times rounds with — and the cheapest modeled
    /// pipeline wins.  The argmin lands where `T_I ≈ kernel + T_O` per
    /// round (the double-buffering balance), so any chunked workload
    /// gets the hand-tuned overlap of [`Self::build_streamed`] for free.
    pub fn build_planned(
        &self,
        machine: &AtgpuMachine,
        spec: &atgpu_model::GpuSpec,
    ) -> Result<BuiltProgram, AlgosError> {
        let b = machine.b;
        if self.n == 0 {
            return Err(AlgosError::InvalidSize { reason: "empty vectors".into() });
        }
        let total_blocks = self.n.div_ceil(b);
        // Two buffer sets × three buffers of `chunk` words must fit G.
        let max_chunk_blocks = (machine.g / (6 * b)).max(1).min(total_blocks);
        let mut candidates: Vec<u64> = Vec::new();
        let mut c = 1u64;
        while c < max_chunk_blocks {
            candidates.push(c);
            c *= 2;
        }
        candidates.push(max_chunk_blocks);
        let cluster = atgpu_model::ClusterSpec::homogeneous(1, *spec);
        let chunk_blocks = atgpu_model::plan::solve_chunk_units(
            &cluster,
            machine,
            &ShardProfile::streaming(b), // the chunk kernel is vecadd's
            &[total_blocks],
            &candidates,
        );
        self.build_streamed_with_chunk(machine, chunk_blocks * b)
    }

    /// The shared double-buffered emission at an explicit `chunk`.
    fn build_streamed_with_chunk(
        &self,
        machine: &AtgpuMachine,
        chunk: u64,
    ) -> Result<BuiltProgram, AlgosError> {
        let b = machine.b;
        check_chunking(self.n, chunk, b)?;
        let n = self.n;
        let rounds = n.div_ceil(chunk);

        let mut pb = ProgramBuilder::new("ooc-vecadd-streamed");
        let ha = pb.host_input("A", n);
        let hb = pb.host_input("B", n);
        let hc = pb.host_output("C", n);
        // Ping-pong buffer sets: chunk r lives in set r mod 2, so the
        // upload of chunk r never touches what chunk r − 1's kernel reads.
        let bufs = [
            (
                pb.device_alloc("a_ping", chunk),
                pb.device_alloc("b_ping", chunk),
                pb.device_alloc("c_ping", chunk),
            ),
            (
                pb.device_alloc("a_pong", chunk),
                pb.device_alloc("b_pong", chunk),
                pb.device_alloc("c_pong", chunk),
            ),
        ];

        let chunk_at = |r: u64| {
            let off = r * chunk;
            (off, chunk.min(n - off))
        };
        for r in 0..=rounds {
            pb.begin_round();
            if r < rounds {
                // Upload chunk r on the copy stream.
                let (off, len) = chunk_at(r);
                let (da, db, _) = bufs[(r % 2) as usize];
                pb.transfer_in_streamed(0, 1, ha, off, da, 0, len);
                pb.transfer_in_streamed(0, 1, hb, off, db, 0, len);
            }
            if r > 0 {
                // Compute and drain chunk r − 1 on the default stream.
                let (off, len) = chunk_at(r - 1);
                let (da, db, dc) = bufs[((r - 1) % 2) as usize];
                let name = format!("ooc_vecadd_r{}", r - 1);
                pb.launch(vecadd_kernel(name, len.div_ceil(b), b, da, db, dc));
                pb.transfer_out_streamed(0, 0, dc, 0, hc, off, len);
            }
        }

        Ok(BuiltProgram {
            program: pb.build()?,
            inputs: vec![self.a.clone(), self.b.clone()],
            outputs: vec![hc],
        })
    }
}

impl OocVecAdd {
    /// Builds the **slabbed** addition over `devices`: the device buffers
    /// hold all `n` words, and round `r` uploads slab `r` (`chunk` words)
    /// split evenly over the devices, adds it in place with one sharded
    /// launch, and downloads it.  Every slab stays resident, so a device
    /// lost mid-program leaves checkpointed state behind (E11's
    /// workload).  `n` must be a whole number of slabs.
    pub fn build_slabbed(
        &self,
        machine: &AtgpuMachine,
        devices: u32,
    ) -> Result<BuiltProgram, AlgosError> {
        let b = machine.b;
        let (n, slab) = (self.n, self.chunk);
        check_chunking(n, slab, b)?;
        if !n.is_multiple_of(slab) {
            return Err(AlgosError::InvalidSize {
                reason: format!("n = {n} is not a whole number of {slab}-word slabs"),
            });
        }
        let slab_blocks = slab / b;
        let shards = atgpu_sim::even_shards(slab_blocks, devices);
        let mut pb = ProgramBuilder::new("vecadd_slabbed");
        let ha = pb.host_input("A", n);
        let hb = pb.host_input("B", n);
        let hc = pb.host_output("C", n);
        let bufs @ [da, db, dc] =
            [pb.device_alloc("a", n), pb.device_alloc("b", n), pb.device_alloc("c", n)];
        for r in 0..n / slab {
            let off0 = r * slab;
            pb.begin_round();
            for s in &shards {
                let off = off0 + s.start * b;
                let words = s.blocks() * b;
                pb.transfer_in_to(s.device, ha, off, da, off, words);
                pb.transfer_in_to(s.device, hb, off, db, off, words);
            }
            let g = AddrExpr::block() * b as i64 + AddrExpr::lane() + off0 as i64;
            let kernel = vecadd_kernel_at(format!("vecadd_slab{r}"), slab_blocks, b, bufs, g);
            pb.launch_sharded(kernel, shards.clone());
            for s in &shards {
                let off = off0 + s.start * b;
                pb.transfer_out_from(s.device, dc, off, hc, off, s.blocks() * b);
            }
        }
        Ok(BuiltProgram {
            program: pb.build()?,
            inputs: vec![self.a.clone(), self.b.clone()],
            outputs: vec![hc],
        })
    }
}

impl Workload for OocVecAdd {
    fn name(&self) -> &'static str {
        "ooc-vecadd"
    }

    fn size(&self) -> u64 {
        self.n
    }

    /// Chunks: one round each, the whole chunk grid on one device.
    fn units(&self, _machine: &AtgpuMachine) -> Option<u64> {
        Some(self.n.div_ceil(self.chunk.max(1)))
    }

    /// The vecadd shape scaled to one chunk of `chunk / b` blocks.
    /// Rounds run one after another, so what the planner's
    /// max-over-devices objective balances is each device's *share* of
    /// the serial total — enough to hand a device behind a slow host
    /// link fewer chunks.
    fn shard_profile(&self, machine: &AtgpuMachine) -> ShardProfile {
        let blocks = self.chunk / machine.b.max(1);
        let per_block = ShardProfile::streaming(machine.b);
        ShardProfile {
            io_blocks_per_unit: per_block.io_blocks_per_unit * blocks,
            inward_words_per_unit: per_block.inward_words_per_unit * blocks,
            outward_words_per_unit: per_block.outward_words_per_unit * blocks,
            blocks_per_unit: blocks,
            ..per_block
        }
    }

    /// One round per chunk: stage the chunk's operand slices, add, drain
    /// — so a device only ever holds one chunk's working set (`3·chunk`
    /// words) whatever `n` is.  The placement's chunks are **dealt**, not
    /// sliced: pass `p` over the shards hands one chunk to every shard
    /// holding more than `p` units, so an even plan is the round-robin
    /// `r mod N`, every device streams over its own host link, and the
    /// cluster's aggregate link bandwidth grows with `N`.
    fn emit(&self, machine: &AtgpuMachine, at: &Placement) -> Result<BuiltProgram, AlgosError> {
        let b = machine.b;
        check_chunking(self.n, self.chunk, b)?;
        let n = self.n;
        let chunk = self.chunk;
        if at.shards().iter().map(Shard::blocks).sum::<u64>() != n.div_ceil(chunk) {
            return Err(AlgosError::InvalidSize {
                reason: "the plan must hand out every chunk exactly once".into(),
            });
        }
        let most = at.shards().iter().map(Shard::blocks).max().unwrap_or(0);
        let mut deal = (0..most)
            .flat_map(|p| at.shards().iter().filter(move |s| s.blocks() > p).map(|s| s.device));

        let mut pb = ProgramBuilder::new(at.name("ooc-vecadd", "ooc-vecadd-sharded"));
        let ha = pb.host_input("A", n);
        let hb = pb.host_input("B", n);
        let hc = pb.host_output("C", n);
        let da = pb.device_alloc("a_chunk", chunk);
        let db = pb.device_alloc("b_chunk", chunk);
        let dc = pb.device_alloc("c_chunk", chunk);

        let mut off = 0u64;
        let mut round = 0u64;
        while off < n {
            let len = chunk.min(n - off);
            let k = len.div_ceil(b);
            let dev = deal.next().expect("one dealt device per chunk, checked above");
            pb.begin_round();
            pb.transfer_in_to(dev, ha, off, da, 0, len);
            pb.transfer_in_to(dev, hb, off, db, 0, len);
            let kernel = vecadd_kernel(format!("ooc_vecadd_r{round}"), k, b, da, db, dc);
            at.launch_over(&mut pb, kernel, vec![Shard { device: dev, start: 0, end: k }]);
            pb.transfer_out_from(dev, dc, 0, hc, off, len);
            off += len;
            round += 1;
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
}

/// Finishing scheme for the out-of-core reduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OocScheme {
    /// Ship every chunk's partials to the host; the host finishes.
    HostFinish,
    /// Accumulate partials on the device; finish with an on-device tree.
    DeviceFinish,
}

/// Out-of-core reduction (sum) processed in chunks.
#[derive(Debug, Clone)]
pub struct OocReduce {
    n: u64,
    chunk: u64,
    /// The warp width partials are cut at: the host-finish oracle's, so
    /// the instance builds only on a machine with this `b`.
    b: u64,
    scheme: OocScheme,
    data: Vec<i64>,
}

impl OocReduce {
    /// Random 0/1 instance whose per-block partials are `b` words wide;
    /// build it on a machine with that `b`.
    pub fn new(n: u64, chunk: u64, b: u64, scheme: OocScheme, seed: u64) -> Self {
        Self { n, chunk, b, scheme, data: gen::zero_ones(n, seed) }
    }

    /// Host reference sum.
    pub fn host_reference(&self) -> i64 {
        self.data.iter().sum()
    }

    /// The finishing scheme.
    pub fn scheme(&self) -> OocScheme {
        self.scheme
    }

    /// Per-chunk partial counts (used to size host buffers).
    fn partials_per_chunk(&self, b: u64) -> Vec<u64> {
        let mut out = Vec::new();
        let mut off = 0;
        while off < self.n {
            let len = self.chunk.min(self.n - off);
            out.push(len.div_ceil(b));
            off += len;
        }
        out
    }
}

impl Workload for OocReduce {
    fn name(&self) -> &'static str {
        "ooc-reduce"
    }

    fn size(&self) -> u64 {
        self.n
    }

    fn emit(&self, machine: &AtgpuMachine, _: &Placement) -> Result<BuiltProgram, AlgosError> {
        let b = machine.b;
        if self.b != b {
            return Err(AlgosError::InvalidMachine {
                reason: format!(
                    "instance cuts partials at b = {} but the machine has b = {b}",
                    self.b
                ),
            });
        }
        check_chunking(self.n, self.chunk, b)?;
        let n = self.n;
        let chunk = self.chunk;
        let partials = self.partials_per_chunk(b);
        let total_partials: u64 = partials.iter().sum();

        let mut pb = ProgramBuilder::new("ooc-reduce");
        let hin = pb.host_input("A", n);

        match self.scheme {
            OocScheme::HostFinish => {
                let hpart = pb.host_output("Partials", total_partials);
                let din = pb.device_alloc("chunk", chunk);
                let dpart = pb.device_alloc("partials", chunk.div_ceil(b));
                let mut off = 0u64;
                let mut part_off = 0u64;
                for (round, &kparts) in partials.iter().enumerate() {
                    let len = chunk.min(n - off);
                    pb.begin_round();
                    pb.transfer_in_at(hin, off, din, 0, len);
                    pb.launch(reduce_round_kernel(
                        format!("ooc_reduce_r{round}"),
                        din,
                        dpart,
                        kparts,
                        machine,
                        ReduceVariant::SequentialAddressing,
                    ));
                    pb.transfer_out_at(dpart, 0, hpart, part_off, kparts);
                    off += len;
                    part_off += kparts;
                }
                Ok(BuiltProgram {
                    program: pb.build()?,
                    inputs: vec![self.data.clone()],
                    outputs: vec![hpart],
                })
            }
            OocScheme::DeviceFinish => {
                let hout = pb.host_output("Ans", 1);
                let din = pb.device_alloc("chunk", chunk);
                let dacc = pb.device_alloc("acc", total_partials);
                let mut off = 0u64;
                let mut part_off = 0u64;
                for (round, &kparts) in partials.iter().enumerate() {
                    let len = chunk.min(n - off);
                    pb.begin_round();
                    pb.transfer_in_at(hin, off, din, 0, len);
                    // Like reduce_round_kernel but writing at an offset in
                    // the resident accumulator buffer.
                    let bi = b as i64;
                    let steps = b.trailing_zeros();
                    let mut kb = KernelBuilder::new(format!("ooc_reduce_r{round}"), kparts, b);
                    kb.glb_to_shr(AddrExpr::lane(), din, AddrExpr::block() * bi + AddrExpr::lane());
                    kb.repeat(steps, |kb| {
                        kb.alu(AluOp::Shr, 0, Operand::Imm(bi / 2), Operand::LoopVar(0));
                        kb.when(atgpu_ir::PredExpr::Lt(Operand::Lane, Operand::Reg(0)), |kb| {
                            kb.ld_shr(3, AddrExpr::lane());
                            kb.ld_shr(4, AddrExpr::lane() + AddrExpr::reg(0));
                            kb.alu(AluOp::Add, 3, Operand::Reg(3), Operand::Reg(4));
                            kb.st_shr(AddrExpr::lane(), Operand::Reg(3));
                        });
                    });
                    kb.when(atgpu_ir::PredExpr::Eq(Operand::Lane, Operand::Imm(0)), |kb| {
                        kb.shr_to_glb(dacc, AddrExpr::block() + part_off as i64, AddrExpr::c(0));
                    });
                    pb.launch(kb.build());
                    off += len;
                    part_off += kparts;
                }
                // Finish on-device.
                append_reduce_rounds(
                    &mut pb,
                    dacc,
                    total_partials,
                    machine,
                    ReduceVariant::SequentialAddressing,
                    hout,
                    true,
                )?;
                Ok(BuiltProgram {
                    program: pb.build()?,
                    inputs: vec![self.data.clone()],
                    outputs: vec![hout],
                })
            }
        }
    }

    fn expected(&self) -> Vec<Vec<i64>> {
        match self.scheme {
            OocScheme::HostFinish => vec![self.expected_partials()],
            OocScheme::DeviceFinish => vec![vec![self.host_reference()]],
        }
    }
}

impl OocReduce {
    /// The HostFinish scheme's expected output: per-block partial sums
    /// at the instance's warp width, concatenated chunk by chunk.
    pub fn expected_partials(&self) -> Vec<i64> {
        let mut out = Vec::new();
        let mut off = 0usize;
        let n = self.n as usize;
        while off < n {
            let len = (self.chunk as usize).min(n - off);
            let chunk = &self.data[off..off + len];
            for blk in chunk.chunks(self.b as usize) {
                out.push(blk.iter().sum());
            }
            off += len;
        }
        out
    }

    /// Host-side finish for the HostFinish scheme.
    pub fn finish_on_host(partials: &[i64]) -> i64 {
        partials.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{test_spec, verify_on_sim};
    use atgpu_analyze::analyze_cluster_program;
    use atgpu_sim::SimConfig;

    /// A machine whose global memory is far too small for the whole
    /// problem: the out-of-core point.
    fn small_g_machine() -> AtgpuMachine {
        AtgpuMachine::new(1 << 16, 32, 12_288, 2048).unwrap()
    }

    #[test]
    fn ooc_vecadd_matches_host_with_tiny_g() {
        // n = 8192 words per operand (3n = 24576 ≫ G = 2048).
        let w = OocVecAdd::new(8192, 512, 3);
        assert_eq!(w.rounds(), 16);
        verify_on_sim(&w, &small_g_machine(), &test_spec(), &SimConfig::default()).unwrap();
    }

    /// Every slab of the slabbed addition lands: the 4-device run
    /// matches the host reference, and a partial slab is refused.
    #[test]
    fn slabbed_vecadd_matches_host_on_four_devices() {
        let machine = crate::workload::test_machine();
        let w = OocVecAdd::new(4 * 32 * 32, 32 * 32, 9);
        let built = w.build_slabbed(&machine, 4).unwrap();
        assert_eq!(built.program.rounds.len(), 4);
        let cluster = atgpu_model::ClusterSpec::homogeneous(4, test_spec());
        let report = atgpu_sim::run_cluster_program(
            &built.program,
            built.inputs.clone(),
            &machine,
            &cluster,
            &SimConfig::default(),
        )
        .unwrap();
        assert_eq!(report.output(built.outputs[0]), &w.host_reference()[..]);
        assert!(OocVecAdd::new(1000, 256, 1).build_slabbed(&machine, 4).is_err());
    }

    #[test]
    fn ooc_vecadd_partial_last_chunk() {
        let w = OocVecAdd::new(1000, 256, 5);
        verify_on_sim(&w, &small_g_machine(), &test_spec(), &SimConfig::default()).unwrap();
    }

    #[test]
    fn in_core_vecadd_rejected_by_small_machine() {
        // The ordinary in-core workload cannot run: G is too small —
        // exactly the situation the paper's future work poses.
        let w = crate::vecadd::VecAdd::new(8192, 3);
        let built = w.build(&small_g_machine()).unwrap();
        assert!(analyze_cluster_program(&built.program, &small_g_machine(), 1).is_err());
    }

    #[test]
    fn ooc_reduce_device_finish_sums_correctly() {
        let w = OocReduce::new(8192, 1024, 32, OocScheme::DeviceFinish, 7);
        verify_on_sim(&w, &small_g_machine(), &test_spec(), &SimConfig::default()).unwrap();
    }

    #[test]
    fn ooc_reduce_host_finish_partials_correct() {
        let w = OocReduce::new(8192, 1024, 32, OocScheme::HostFinish, 7);
        let r = verify_on_sim(&w, &small_g_machine(), &test_spec(), &SimConfig::default()).unwrap();
        let partials = r.output(atgpu_ir::HBuf(1));
        assert_eq!(OocReduce::finish_on_host(partials), w.host_reference());
    }

    /// Regression: the host-finish oracle cut its partials at a
    /// hard-coded `b = 32`, so a correct build on any other width failed
    /// its own check with a `Mismatch`.
    #[test]
    fn ooc_reduce_host_finish_verifies_at_its_own_width() {
        let m = AtgpuMachine::new(1 << 16, 16, 12_288, 2048).unwrap();
        let w = OocReduce::new(4096, 512, 16, OocScheme::HostFinish, 7);
        let r = verify_on_sim(&w, &m, &test_spec(), &SimConfig::default()).unwrap();
        assert_eq!(r.output(atgpu_ir::HBuf(1)).len(), 4096 / 16);
        assert_eq!(OocReduce::finish_on_host(r.output(atgpu_ir::HBuf(1))), w.host_reference());
    }

    #[test]
    fn ooc_reduce_rejects_a_machine_of_another_width() {
        for scheme in [OocScheme::HostFinish, OocScheme::DeviceFinish] {
            let w = OocReduce::new(8192, 1024, 16, scheme, 7);
            let built = w.build(&small_g_machine());
            assert!(matches!(built, Err(AlgosError::InvalidMachine { .. })), "{scheme:?}");
        }
    }

    #[test]
    fn schemes_have_different_communication() {
        let m = small_g_machine();
        let host = OocReduce::new(8192, 1024, 32, OocScheme::HostFinish, 1);
        let dev = OocReduce::new(8192, 1024, 32, OocScheme::DeviceFinish, 1);
        let a_host = analyze_cluster_program(&host.build(&m).unwrap().program, &m, 1).unwrap();
        let a_dev = analyze_cluster_program(&dev.build(&m).unwrap().program, &m, 1).unwrap();
        let out_host: u64 =
            a_host.lone_device().unwrap().rounds.iter().map(|r| r.outward_words).sum();
        let out_dev: u64 =
            a_dev.lone_device().unwrap().rounds.iter().map(|r| r.outward_words).sum();
        assert!(out_host > out_dev * 50, "HostFinish {out_host} vs DeviceFinish {out_dev}");
    }

    #[test]
    fn streamed_ooc_vecadd_matches_serial_bit_for_bit() {
        use crate::workload::{test_machine, test_spec};
        use atgpu_sim::run_program;
        let m = test_machine();
        let spec = test_spec();
        let w = OocVecAdd::new(65_536, 16_384, 11);
        let streamed = w.build_streamed(&m).unwrap();
        assert!(streamed.program.uses_streams());
        assert_eq!(streamed.program.num_rounds(), w.rounds() + 1);

        let cfg = SimConfig::default();
        let r_streamed =
            run_program(&streamed.program, streamed.inputs.clone(), &m, &spec, &cfg).unwrap();
        assert_eq!(r_streamed.output(streamed.outputs[0]), w.host_reference().as_slice());

        // The de-streamed form produces the same outputs…
        let destreamed = streamed.program.destreamed();
        let r_serial = run_program(&destreamed, streamed.inputs.clone(), &m, &spec, &cfg).unwrap();
        assert_eq!(r_serial.output(streamed.outputs[0]), r_streamed.output(streamed.outputs[0]));
        // …and the same serial component times, but a larger total: the
        // double-buffered schedule hides the next chunk's upload.
        assert!((r_streamed.serial_ms() - r_serial.total_ms()).abs() < 1e-9);
        assert!(
            r_streamed.total_ms() < r_serial.total_ms(),
            "streamed {} vs serial {}",
            r_streamed.total_ms(),
            r_serial.total_ms()
        );

        // It also beats the plain R-round serial build.
        let plain = w.build(&m).unwrap();
        let r_plain = run_program(&plain.program, plain.inputs.clone(), &m, &spec, &cfg).unwrap();
        assert_eq!(r_plain.output(plain.outputs[0]), r_streamed.output(streamed.outputs[0]));
        assert!(r_streamed.total_ms() < r_plain.total_ms());
    }

    #[test]
    fn streamed_ooc_vecadd_partial_last_chunk() {
        use crate::workload::{test_machine, test_spec};
        use atgpu_sim::run_program;
        let m = test_machine();
        let w = OocVecAdd::new(1000 * 32, 256 * 32, 5);
        let built = w.build_streamed(&m).unwrap();
        let r = run_program(
            &built.program,
            built.inputs.clone(),
            &m,
            &test_spec(),
            &SimConfig::default(),
        )
        .unwrap();
        assert_eq!(r.output(built.outputs[0]), w.host_reference().as_slice());
    }

    /// The auto-chunked planned build: no hand-tuned chunk size, yet the
    /// solver-derived ping-pong schedule reproduces the hand-written
    /// overlap — ≥ 1.5x over its serial de-streamed form at paper scale
    /// — and stays bit-identical functionally.
    #[test]
    fn planned_chunking_matches_handwritten_overlap() {
        use crate::workload::test_machine;
        use atgpu_sim::run_program;
        let m = test_machine();
        let spec = atgpu_model::GpuSpec::gtx650_like();
        // The instance's own chunk field is deliberately terrible (one
        // warp per round); build_planned must ignore it.
        let w = OocVecAdd::new(1 << 20, m.b, 11);
        let planned = w.build_planned(&m, &spec).unwrap();
        assert!(planned.program.uses_streams());

        let cfg = SimConfig::default();
        let r = run_program(&planned.program, planned.inputs.clone(), &m, &spec, &cfg).unwrap();
        assert_eq!(r.output(planned.outputs[0]), w.host_reference().as_slice());
        let serial =
            run_program(&planned.program.destreamed(), planned.inputs.clone(), &m, &spec, &cfg)
                .unwrap();
        assert_eq!(serial.output(planned.outputs[0]), r.output(planned.outputs[0]));
        let speedup = serial.total_ms() / r.total_ms();
        assert!(speedup >= 1.5, "auto-chunk overlap {speedup:.2}x < 1.5x");

        // The solver's chunk prices no worse than the hand-written
        // 2^16-word chunk the E8 experiment uses.
        let hand = OocVecAdd::new(1 << 20, 1 << 16, 11).build_streamed(&m).unwrap();
        let r_hand = run_program(&hand.program, hand.inputs.clone(), &m, &spec, &cfg).unwrap();
        assert!(
            r.total_ms() <= r_hand.total_ms() * 1.02,
            "planned {} vs hand-tuned {}",
            r.total_ms(),
            r_hand.total_ms()
        );
    }

    #[test]
    fn chunk_must_be_block_multiple() {
        assert!(OocVecAdd::new(100, 33, 0).build(&small_g_machine()).is_err());
        assert!(OocVecAdd::new(100, 33, 0).build_streamed(&small_g_machine()).is_err());
        assert!(OocReduce::new(100, 0, 32, OocScheme::HostFinish, 0)
            .build(&small_g_machine())
            .is_err());
    }

    #[test]
    fn sharded_chunks_round_robin_across_devices() {
        use crate::workload::verify_built_on_cluster;
        let m = small_g_machine();
        let w = OocVecAdd::new(4096, 512, 7);
        for devices in [1u32, 2, 3] {
            let built = w.build_sharded(&m, devices).unwrap();
            assert_eq!(built.program.num_rounds(), 8);
            assert_eq!(built.program.max_device() + 1, devices.min(8));
            let cluster = atgpu_model::ClusterSpec::homogeneous(
                devices as usize,
                crate::workload::test_spec(),
            );
            let report = verify_built_on_cluster(
                &built,
                &[w.host_reference()],
                &m,
                &cluster,
                &atgpu_sim::SimConfig::default(),
            )
            .unwrap_or_else(|e| panic!("devices={devices}: {e}"));
            // Round r runs on device r mod N alone.
            for (r, round) in report.rounds.iter().enumerate() {
                for (d, obs) in round.devices.iter().enumerate() {
                    let expect_busy = d == r % devices as usize;
                    assert_eq!(obs.kernel_ms > 0.0, expect_busy, "round {r} device {d}");
                }
            }
        }
    }

    #[test]
    fn smaller_chunks_mean_more_rounds() {
        let m = small_g_machine();
        let fine = OocVecAdd::new(4096, 128, 0).build(&m).unwrap();
        let coarse = OocVecAdd::new(4096, 512, 0).build(&m).unwrap();
        assert_eq!(fine.program.num_rounds(), 32);
        assert_eq!(coarse.program.num_rounds(), 8);
        // Fine-grained chunking pays more transfer transactions.
        let txns = |p: &atgpu_ir::Program| -> u64 {
            p.rounds.iter().map(|r| r.inward().1 + r.outward().1).sum()
        };
        assert!(txns(&fine.program) > txns(&coarse.program));
    }
}
