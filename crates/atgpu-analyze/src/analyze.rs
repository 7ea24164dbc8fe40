//! The top-level analysis driver: IR program → ATGPU model metrics.

use crate::bankconflict::{site_conflict_degree, BankConflictReport};
use crate::coalesce::site_transactions;
use crate::error::AnalyzeError;
use crate::opcount::kernel_time_ops;
use crate::sites::collect;
use atgpu_ir::{shard_counts, HostStep, Kernel, Program};
use atgpu_model::cost::cluster_cost_streamed;
use atgpu_model::{
    AlgoMetrics, AtgpuMachine, ClusterCostBreakdown, ClusterSpec, PeerTraffic, RoundMetrics,
    RoundSchedule, StreamItem,
};

/// Per-kernel analysis results.
#[derive(Debug, Clone)]
pub struct KernelAnalysis {
    /// Kernel name.
    pub name: String,
    /// Thread blocks `k` (grid product).
    pub blocks: u64,
    /// The model's time metric `t` for this launch.
    pub time_ops: u64,
    /// The model's I/O metric `q`: global memory block transactions.
    pub io_txns: u64,
    /// Whether `io_txns` is exact (all addresses statically analysable).
    pub io_exact: bool,
    /// Declared shared words per block, `m`.
    pub shared_words: u64,
    /// Bank-conflict report for the conflict-free assumption check.
    pub bank: BankConflictReport,
}

/// Per-device stream schedules of a program, indexed `[device][round]` —
/// the stream placement, traffic and syncs that
/// [`atgpu_model::cost::cluster_cost_streamed`] prices with the same
/// stream-chain scheduler the simulator times rounds with.  Each transfer
/// step becomes one single-transaction item, a launch becomes one kernel
/// item per participating device, and peer steps are left to the cluster
/// cost's peer term.  The table covers `max(devices, max_device()+1)`
/// devices so idle devices get empty (serial) schedules of the right
/// round count; a single-device program's `stream_schedules(p, 1)` is one
/// device's table.
pub fn stream_schedules(p: &Program, devices: u32) -> Vec<Vec<RoundSchedule>> {
    let n = devices.max(p.max_device() + 1).max(1) as usize;
    let mut out: Vec<Vec<RoundSchedule>> =
        (0..n).map(|_| Vec::with_capacity(p.rounds.len())).collect();
    // Devices a launch has already given its kernel item (reused across
    // rounds).
    let mut seen: Vec<u32> = Vec::new();
    for round in &p.rounds {
        let mut scheds = vec![RoundSchedule::default(); n];
        for step in &round.steps {
            match step {
                HostStep::TransferIn { words, device, stream, .. } => {
                    scheds[*device as usize].items.push(StreamItem::TransferIn {
                        stream: *stream,
                        txns: 1,
                        words: *words,
                    });
                }
                HostStep::TransferOut { words, device, stream, .. } => {
                    scheds[*device as usize].items.push(StreamItem::TransferOut {
                        stream: *stream,
                        txns: 1,
                        words: *words,
                    });
                }
                HostStep::SyncStream { device, stream } => {
                    scheds[*device as usize].items.push(StreamItem::SyncStream { stream: *stream });
                }
                HostStep::SyncDevice { device } => {
                    scheds[*device as usize].items.push(StreamItem::SyncDevice);
                }
                HostStep::Launch(_) | HostStep::LaunchSharded { .. } => {
                    // One kernel item per participating device: that
                    // device's metrics row prices its whole shard set.
                    seen.clear();
                    for s in step.launch().iter().flat_map(|(_, shards)| shards.iter()) {
                        if !seen.contains(&s.device) {
                            seen.push(s.device);
                            scheds[s.device as usize].items.push(StreamItem::Kernel);
                        }
                    }
                }
                // Peer traffic is priced separately by the cluster cost.
                HostStep::TransferPeer { .. } => {}
            }
        }
        for (d, s) in scheds.into_iter().enumerate() {
            out[d].push(s);
        }
    }
    out
}

/// Whole-program analysis on `n` devices: the per-device metrics tables
/// and per-round peer traffic that
/// [`atgpu_model::cost::cluster_cost_streamed`] prices.  A single-device
/// program analysed for one device is the `n = 1` case, and
/// [`lone_device`](Self::lone_device) reads its one table.
#[derive(Debug, Clone)]
pub struct ClusterProgramAnalysis {
    /// Per-device metrics tables, every device covering every round.
    pub per_device: Vec<AlgoMetrics>,
    /// Peer transfers, `peer[round]` listing that round's copies.
    pub peer: Vec<Vec<PeerTraffic>>,
    /// Each round's kernel view (`None` for a round without a launch).
    pub kernels: Vec<Option<KernelAnalysis>>,
    /// Padded per-replica device-memory footprint.
    pub global_words: u64,
    /// Whether every I/O count is exact — sharded launches whose
    /// transaction count does not divide evenly across shards are
    /// apportioned by rounding and clear this flag.
    pub io_exact: bool,
    /// Whether every kernel is shared-memory bank-conflict free.
    pub conflict_free: bool,
}

impl ClusterProgramAnalysis {
    /// The one device's metrics table, which the single-device cost
    /// models ([`atgpu_model::cost::evaluate`]) price.  An analysis of
    /// several devices, or with peer traffic, is
    /// [`AnalyzeError::MultiDevice`]: one table would serialize its
    /// concurrent host links and drop its peer copies.
    pub fn lone_device(&self) -> Result<&AlgoMetrics, AnalyzeError> {
        let [one] = self.per_device.as_slice() else {
            return Err(AnalyzeError::MultiDevice {
                reason: format!("the analysis covers {} devices", self.per_device.len()),
            });
        };
        if let Some(round) = self.peer.iter().find(|r| !r.is_empty()) {
            return Err(AnalyzeError::MultiDevice {
                reason: format!("a round makes {} peer transfer(s)", round.len()),
            });
        }
        Ok(one)
    }
}

/// Analyses a program for `devices` devices, deriving every model metric
/// the paper defines (§III) per device: exactly the inputs
/// [`atgpu_model::cost::cluster_cost_streamed`] needs (pair it with
/// [`stream_schedules`] for the overlap-aware prediction).  The program
/// passes [`Program::check`] first, and the analysis covers
/// `max(devices, max_device() + 1, 1)` devices.
///
/// Per round and device the analysis attributes:
///
/// * **host traffic** — each device-targeted `TransferIn`/`TransferOut`
///   lands on its own device's metrics row;
/// * **kernel work** — a plain `Launch` bills device 0 for the whole
///   grid; a `LaunchSharded` bills each participating device for its
///   shard blocks, with the lockstep time metric `t` unchanged (it is
///   block-invariant) and the transaction metric `q` apportioned by the
///   device's share of the grid;
/// * **peer copies** — collected per round as [`PeerTraffic`] for the
///   peer-link α/β terms.
pub fn analyze_cluster_program(
    p: &Program,
    machine: &AtgpuMachine,
    devices: u32,
) -> Result<ClusterProgramAnalysis, AnalyzeError> {
    p.check()?;
    walk_program(p, machine, devices.max(p.max_device() + 1).max(1) as usize)
}

/// The predicted side of one predict-vs-observe cell: what the model
/// says `program` costs on a cluster, and whether that number may be
/// taken at face value.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// The stream-aware cluster cost; `cost.total_ms` is the prediction.
    pub cost: ClusterCostBreakdown,
    /// Whether the analysis behind `cost` was exact: every transaction
    /// count statically known and no shared-memory bank conflicts
    /// (`io_exact && conflict_free`).  An untrusted prediction is still
    /// the model's best estimate, but a caller with a simulator at hand
    /// should prefer observing.
    pub trusted: bool,
    /// Whether some kernel's operation or transaction count saturated at
    /// `u64::MAX`: the program runs past 2⁶⁴ steps, so no simulation of
    /// it finishes and this prediction is the only price it can get,
    /// trusted or not.
    pub saturated: bool,
}

/// The program half of a [`Prediction`]: everything
/// [`atgpu_model::cost::cluster_cost_streamed`] reads of a program on `n`
/// devices of one machine — each device's metrics rows and stream
/// schedules, each round's peer traffic — with the trust and saturation
/// bits.  None of it reads a [`ClusterSpec`], so one analysis prices on
/// every spec of `n` devices ([`CostInputs::price`]).
#[derive(Debug, Clone)]
pub struct CostInputs {
    machine: AtgpuMachine,
    per_device: Vec<AlgoMetrics>,
    schedules: Vec<Vec<RoundSchedule>>,
    peer: Vec<Vec<PeerTraffic>>,
    trusted: bool,
    saturated: bool,
}

/// The analysis stage of [`predict`]: [`analyze_cluster_program`] and
/// [`stream_schedules`] of `program` for `devices` devices of `machine`,
/// plus the trust and saturation bits.  The inputs cover
/// `max(devices, max_device() + 1)` devices, as both calls do.
pub fn cost_inputs(
    program: &Program,
    machine: &AtgpuMachine,
    devices: u32,
) -> Result<CostInputs, AnalyzeError> {
    let a = analyze_cluster_program(program, machine, devices)?;
    let schedules = stream_schedules(program, devices);
    let saturated = a.kernels.iter().flatten().any(|k| k.time_ops.max(k.io_txns) == u64::MAX);
    Ok(CostInputs {
        machine: *machine,
        per_device: a.per_device,
        schedules,
        peer: a.peer,
        trusted: a.io_exact && a.conflict_free,
        saturated,
    })
}

impl CostInputs {
    /// The pricing stage of [`predict`]:
    /// [`atgpu_model::cost::cluster_cost_streamed`] of these inputs on
    /// `cluster`.  A cluster of other than [`devices`](Self::devices)
    /// devices is the cost function's typed error.
    pub fn price(&self, cluster: &ClusterSpec) -> Result<Prediction, AnalyzeError> {
        let (per_device, schedules, peer) = (&self.per_device, &self.schedules, &self.peer);
        let cost = cluster_cost_streamed(cluster, &self.machine, per_device, schedules, peer)?;
        Ok(Prediction { cost, trusted: self.trusted, saturated: self.saturated })
    }

    /// The device count these inputs price on.
    pub fn devices(&self) -> usize {
        self.per_device.len()
    }

    /// [`Prediction::trusted`] of every price of these inputs.
    pub fn trusted(&self) -> bool {
        self.trusted
    }

    /// [`Prediction::saturated`] of every price of these inputs.
    pub fn saturated(&self) -> bool {
        self.saturated
    }

    /// The heap bytes these inputs hold: every table's capacity, so a
    /// holder can bound what it keeps.
    pub fn heap_bytes(&self) -> usize {
        fn bytes<T>(v: &Vec<T>) -> usize {
            v.capacity() * std::mem::size_of::<T>()
        }
        let rows: usize = self.per_device.iter().map(|m| bytes(&m.rounds)).sum();
        let items: usize = self.schedules.iter().flatten().map(|r| bytes(&r.items)).sum();
        let schedules: usize = self.schedules.iter().map(bytes).sum();
        let peer: usize = self.peer.iter().map(bytes).sum();
        bytes(&self.per_device)
            + rows
            + bytes(&self.schedules)
            + schedules
            + items
            + bytes(&self.peer)
            + peer
    }
}

/// Analyses `program` per device of `cluster`, schedules its streams and
/// prices the result: [`cost_inputs`] for `cluster`'s device count, then
/// [`CostInputs::price`] on `cluster` — [`analyze_cluster_program`],
/// [`stream_schedules`] and [`atgpu_model::cost::cluster_cost_streamed`],
/// plus the trust and saturation bits.
/// This is the one statement of the analyse → schedule → price rule,
/// shared by the experiment harness and the pricing service, which keeps
/// a program's [`CostInputs`] and prices each what-if spec from them.  A
/// single-device program on a one-device cluster is the `n = 1` case.
pub fn predict(
    program: &Program,
    machine: &AtgpuMachine,
    cluster: &ClusterSpec,
) -> Result<Prediction, AnalyzeError> {
    cost_inputs(program, machine, cluster.n_devices() as u32)?.price(cluster)
}

/// The one analysis walk: builds every device's [`RoundMetrics`] rows
/// from the [`HostStep`]s of a **validated** program on `n` devices.  A
/// launch of the previous launch's kernel reuses its [`KernelAnalysis`]
/// under its own name, by the rule stated at [`Kernel::same_structure`],
/// so an iterated program relaunching one kernel analyses it once.
fn walk_program(
    p: &Program,
    machine: &AtgpuMachine,
    n: usize,
) -> Result<ClusterProgramAnalysis, AnalyzeError> {
    let (bases, global_words) = p.buffer_layout(machine.b);
    if global_words > machine.g {
        return Err(atgpu_model::ModelError::GlobalMemoryExceeded {
            required: global_words,
            available: machine.g,
        }
        .into());
    }

    let mut per_device: Vec<Vec<RoundMetrics>> = vec![Vec::with_capacity(p.rounds.len()); n];
    let mut peer: Vec<Vec<PeerTraffic>> = Vec::with_capacity(p.rounds.len());
    let mut kernels = Vec::with_capacity(p.rounds.len());
    let mut io_exact = true;
    let mut conflict_free = true;
    // The previous launch's kernel and its round: bases and machine are
    // fixed for the walk, so a launch of the same structure has the same
    // analysis.
    let mut previous: Option<(&Kernel, usize)> = None;

    for (i, round) in p.rounds.iter().enumerate() {
        for rows in &mut per_device {
            rows.push(RoundMetrics { global_words, ..RoundMetrics::default() });
        }
        let mut round_peer = Vec::new();
        for step in &round.steps {
            match step {
                HostStep::TransferIn { words, device, .. } => {
                    let r = &mut per_device[*device as usize][i];
                    r.inward_words = r.inward_words.saturating_add(*words);
                    r.inward_txns += 1;
                }
                HostStep::TransferOut { words, device, .. } => {
                    let r = &mut per_device[*device as usize][i];
                    r.outward_words = r.outward_words.saturating_add(*words);
                    r.outward_txns += 1;
                }
                HostStep::TransferPeer { src, dst, words, .. } => {
                    round_peer.push(PeerTraffic { src: *src, dst: *dst, words: *words, txns: 1 });
                }
                // A validated round has at most one launch; it is billed
                // below, from `Round::launch`.
                HostStep::Launch(_)
                | HostStep::LaunchSharded { .. }
                | HostStep::SyncStream { .. }
                | HostStep::SyncDevice { .. } => {}
            }
        }
        let mut kernel = None;
        if let Some((k, shards)) = round.launch() {
            let reused = match previous {
                Some((pk, pi)) if pk.same_structure(k) => kernels.get(pi).cloned().flatten(),
                _ => None,
            };
            let ka = match reused {
                Some(ka) => KernelAnalysis { name: k.name.clone(), ..ka },
                None => analyze_kernel(k, &bases, machine)?,
            };
            previous = Some((k, i));
            if ka.shared_words > machine.m {
                return Err(atgpu_model::ModelError::SharedMemoryExceeded {
                    required: ka.shared_words,
                    available: machine.m,
                }
                .into());
            }
            io_exact &= ka.io_exact;
            conflict_free &= ka.bank.conflict_free;
            let total = ka.blocks.max(1);
            for (d, &blocks) in shard_counts(&shards, n).iter().enumerate() {
                if blocks == 0 {
                    continue;
                }
                // `q` splits with the blocks; `t` is lockstep
                // per-block work and does not.
                let scaled = ka.io_txns as u128 * blocks as u128;
                io_exact &= scaled.is_multiple_of(total as u128);
                let q = ((scaled as f64) / total as f64).round() as u64;
                let r = &mut per_device[d][i];
                r.time = r.time.saturating_add(ka.time_ops);
                r.io_blocks = r.io_blocks.saturating_add(q);
                r.shared_words = r.shared_words.max(ka.shared_words);
                r.blocks_launched = r.blocks_launched.saturating_add(blocks);
            }
            kernel = Some(ka);
        }
        kernels.push(kernel);
        peer.push(round_peer);
    }

    Ok(ClusterProgramAnalysis {
        per_device: per_device.into_iter().map(AlgoMetrics::new).collect(),
        peer,
        kernels,
        global_words,
        io_exact,
        conflict_free,
    })
}

fn analyze_kernel(
    k: &Kernel,
    bases: &[u64],
    machine: &AtgpuMachine,
) -> Result<KernelAnalysis, AnalyzeError> {
    let b = machine.b;
    let mut io_txns = 0u64;
    let mut io_exact = true;
    let mut bank = BankConflictReport::empty();
    for site in collect(k, b) {
        // A global site names its buffer; a shared one has none.
        if let Some(buf) = site.buf {
            let base = bases.get(buf.0 as usize).copied().unwrap_or(0);
            let r = site_transactions(&site.addr, base, k.grid, &site.loop_counts, b);
            io_txns = io_txns.saturating_add(r.txns);
            io_exact &= r.exact;
            continue;
        }
        bank.add_site(site_conflict_degree(&site.addr, b), b);
        // Static shared accesses must stay inside the declared footprint
        // over the whole grid.  With a compile-time lane mask the bound
        // covers exactly the active lanes (a reduction step reading
        // `_s[j + s]` under `j < s` stays in bounds even though lane b−1
        // would not).
        if let Some([lo, hi]) = site.extent(b, k.grid) {
            if lo.addr < 0 || hi.addr >= i128::from(k.shared_words) {
                return Err(AnalyzeError::SharedOutOfRange {
                    kernel: k.name.clone(),
                    min: lo.addr,
                    max: hi.addr,
                    declared: k.shared_words,
                });
            }
        }
    }

    Ok(KernelAnalysis {
        name: k.name.clone(),
        blocks: k.blocks(),
        time_ops: kernel_time_ops(k),
        io_txns,
        io_exact,
        shared_words: k.shared_words,
        bank,
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use atgpu_ir::{AddrExpr, AluOp, DBuf, KernelBuilder, Operand, ProgramBuilder};

    fn machine() -> AtgpuMachine {
        AtgpuMachine::new(1 << 16, 32, 12_288, 1 << 22).unwrap()
    }

    /// The paper's vector-addition program at size n (multiple of b).
    fn vecadd(n: u64) -> Program {
        let b = 32i64;
        let k = n / 32;
        let mut pb = ProgramBuilder::new("vecadd");
        let ha = pb.host_input("A", n);
        let hb = pb.host_input("B", n);
        let hc = pb.host_output("C", n);
        let da = pb.device_alloc("a", n);
        let db = pb.device_alloc("b", n);
        let dc = pb.device_alloc("c", n);
        let mut kb = KernelBuilder::new("vecadd_kernel", k, 3 * 32);
        let g = AddrExpr::block() * b + AddrExpr::lane();
        kb.glb_to_shr(AddrExpr::lane(), da, g.clone());
        kb.glb_to_shr(AddrExpr::lane() + b, db, g.clone());
        kb.ld_shr(0, AddrExpr::lane());
        kb.ld_shr(1, AddrExpr::lane() + b);
        kb.alu(AluOp::Add, 2, Operand::Reg(0), Operand::Reg(1));
        kb.st_shr(AddrExpr::lane() + 2 * b, Operand::Reg(2));
        kb.shr_to_glb(dc, g, AddrExpr::lane() + 2 * b);
        pb.begin_round();
        pb.transfer_in(ha, da, n);
        pb.transfer_in(hb, db, n);
        pb.launch(kb.build());
        pb.transfer_out(dc, hc, n);
        pb.build().unwrap()
    }

    #[test]
    fn vecadd_metrics_match_paper_closed_form() {
        let n = 32 * 100;
        let k = 100;
        let a = analyze_cluster_program(&vecadd(n), &machine(), 1).unwrap();
        let rows = &a.lone_device().unwrap().rounds;
        assert_eq!(rows.len(), 1);
        let m = &rows[0];
        // q = 3k: one coalesced transaction per buffer per block.
        assert_eq!(m.io_blocks, 3 * k);
        // I = 2n in 2 transactions; O = n in 1 transaction.
        assert_eq!(m.inward_words, 2 * n);
        assert_eq!(m.inward_txns, 2);
        assert_eq!(m.outward_words, n);
        assert_eq!(m.outward_txns, 1);
        // t = 7 lockstep ops in our IR encoding (the paper counts 13 for
        // its CUDA kernel; both are O(1) constants).
        assert_eq!(m.time, 7);
        // Global space = 3n (all buffers block-aligned already).
        assert_eq!(m.global_words, 3 * n);
        // Shared space = 3b.
        assert_eq!(m.shared_words, 96);
        assert_eq!(m.blocks_launched, k);
        assert!(a.io_exact);
        assert!(a.conflict_free);
    }

    #[test]
    fn metrics_feed_cost_function() {
        let a = analyze_cluster_program(&vecadd(3200), &machine(), 1).unwrap();
        let spec = atgpu_model::GpuSpec::gtx650_like();
        let model = atgpu_model::cost::CostModel::GpuCost;
        let cost = atgpu_model::cost::evaluate(model, &machine(), &spec, a.lone_device().unwrap());
        assert!(cost.unwrap().total() > 0.0);
    }

    #[test]
    fn global_limit_enforced_with_padding() {
        let m = AtgpuMachine::new(64, 32, 12_288, 95).unwrap();
        // One 33-word buffer pads to 64; a second 32-word buffer brings the
        // padded total to 96 > G = 95.
        let mut pb = ProgramBuilder::new("p");
        let _ = pb.device_alloc("a", 33);
        let _ = pb.device_alloc("b", 32);
        pb.begin_round();
        pb.launch(KernelBuilder::new("k", 1, 0).build());
        let p = pb.build().unwrap();
        assert!(matches!(
            analyze_cluster_program(&p, &m, 1),
            Err(AnalyzeError::Model(atgpu_model::ModelError::GlobalMemoryExceeded {
                required: 96,
                available: 95
            }))
        ));
    }

    /// A launch reuses its predecessor's analysis when the structure
    /// matches, names aside: launches of `a`, a renamed copy `b` and `a`
    /// again give each round the counts of its kernel analysed alone,
    /// under the launch's own name.
    #[test]
    fn a_relaunch_under_another_name_keeps_its_name_and_counts() {
        // A strided store through a two-way bank conflict, so that the
        // bank report is not trivial.
        let kernel = |name: &str| {
            let mut kb = KernelBuilder::new(name, 4, 64);
            let g = AddrExpr::block() * 32 + AddrExpr::lane();
            kb.glb_to_shr(AddrExpr::lane() * 2, DBuf(0), g);
            let strided = AddrExpr::block() * 64 + AddrExpr::lane() * 2;
            kb.shr_to_glb(DBuf(1), strided, AddrExpr::lane() * 2);
            kb.build()
        };
        let launch_each = |kernels: &[&Kernel]| {
            let mut pb = ProgramBuilder::new("p");
            let _ = (pb.device_alloc("a", 128), pb.device_alloc("c", 256));
            for k in kernels {
                pb.begin_round();
                pb.launch((*k).clone());
            }
            let a = analyze_cluster_program(&pb.build().unwrap(), &machine(), 1).unwrap();
            a.kernels.into_iter().map(Option::unwrap).collect::<Vec<_>>()
        };
        let (a, b) = (kernel("a"), kernel("b"));
        assert!(a.same_structure(&b) && a != b);
        let together = launch_each(&[&a, &b, &a]);
        let names: Vec<&str> = together.iter().map(|k| k.name.as_str()).collect();
        assert_eq!(names, ["a", "b", "a"]);
        assert!(!together[0].bank.conflict_free);
        for (got, k) in together.iter().zip([&a, &b, &a]) {
            let alone = launch_each(&[k]).remove(0);
            assert_eq!(format!("{got:?}"), format!("{alone:?}"));
        }
    }

    #[test]
    fn shared_limit_enforced() {
        let m = AtgpuMachine::new(64, 32, 64, 1 << 20).unwrap();
        let mut pb = ProgramBuilder::new("p");
        pb.begin_round();
        pb.launch(KernelBuilder::new("k", 1, 65).build());
        let p = pb.build().unwrap();
        assert!(matches!(
            analyze_cluster_program(&p, &m, 1),
            Err(AnalyzeError::Model(atgpu_model::ModelError::SharedMemoryExceeded { .. }))
        ));
    }

    #[test]
    fn shared_out_of_range_detected() {
        let mut pb = ProgramBuilder::new("p");
        pb.begin_round();
        let mut kb = KernelBuilder::new("k", 1, 32);
        kb.st_shr(AddrExpr::lane() + 1, Operand::Imm(0)); // touches 32
        pb.launch(kb.build());
        let p = pb.build().unwrap();
        assert!(matches!(
            analyze_cluster_program(&p, &machine(), 1),
            Err(AnalyzeError::SharedOutOfRange { max: 32, .. })
        ));
    }

    /// A shared store whose address moves with the block is bounded over
    /// the whole grid: block 3's lane 31 stores to word 34 of a 32-word
    /// footprint.
    #[test]
    fn block_dependent_shared_store_is_bounded_over_the_grid() {
        let mut pb = ProgramBuilder::new("p");
        pb.begin_round();
        let mut kb = KernelBuilder::new("k", 4, 32);
        kb.st_shr(AddrExpr::block() + AddrExpr::lane(), Operand::Imm(0));
        pb.launch(kb.build());
        let p = pb.build().unwrap();
        assert!(matches!(
            analyze_cluster_program(&p, &machine(), 1),
            Err(AnalyzeError::SharedOutOfRange { min: 0, max: 34, declared: 32, .. })
        ));
    }

    #[test]
    fn kernel_transactions_past_u64_saturate_across_sites() {
        let mut pb = ProgramBuilder::new("p");
        let d = pb.device_alloc("d", 64);
        pb.begin_round();
        let mut kb = KernelBuilder::new("k", 2, 32);
        kb.glb_to_shr(AddrExpr::lane(), d, AddrExpr::lane());
        kb.repeat(u32::MAX, |kb| {
            kb.repeat(u32::MAX, |kb| {
                kb.repeat(u32::MAX, |kb| {
                    kb.glb_to_shr(AddrExpr::lane(), d, AddrExpr::block() * 32 + AddrExpr::lane());
                });
            });
        });
        pb.launch(kb.build());
        let p = pb.build().unwrap();
        let a = analyze_cluster_program(&p, &machine(), 1).unwrap();
        let ka = a.kernels[0].as_ref().unwrap();
        assert_eq!((ka.io_txns, ka.time_ops, a.io_exact), (u64::MAX, u64::MAX, true));
        let spec = ClusterSpec::homogeneous(1, atgpu_model::GpuSpec::gtx650_like());
        assert!(predict(&p, &machine(), &spec).unwrap().saturated);
    }

    #[test]
    fn collect_sites_finds_nested_accesses() {
        let mut kb = KernelBuilder::new("k", 4, 64);
        kb.repeat(3, |kb| {
            kb.glb_to_shr(AddrExpr::lane(), atgpu_ir::DBuf(0), AddrExpr::lane());
            kb.when(atgpu_ir::PredExpr::Lt(Operand::Lane, Operand::Imm(4)), |kb| {
                kb.ld_shr(0, AddrExpr::lane());
            });
        });
        let sites = collect(&kb.build(), 32);
        let (global, shared): (Vec<_>, Vec<_>) = sites.iter().partition(|s| s.buf.is_some());
        assert_eq!(global.len(), 1);
        assert_eq!(shared.len(), 2); // shared half of ⇐ plus LdShr
        assert_eq!(global[0].loop_counts, vec![3]);
    }

    #[test]
    fn round_without_kernel_has_zero_compute() {
        let mut pb = ProgramBuilder::new("p");
        let h = pb.host_input("A", 32);
        let _o = pb.host_output("B", 32);
        let d = pb.device_alloc("a", 32);
        pb.begin_round();
        pb.transfer_in(h, d, 32);
        let p = pb.build().unwrap();
        let a = analyze_cluster_program(&p, &machine(), 1).unwrap();
        let row = &a.lone_device().unwrap().rounds[0];
        assert_eq!(row.time, 0);
        assert_eq!(row.io_blocks, 0);
        assert_eq!(row.inward_words, 32);
        assert!(a.kernels[0].is_none());
    }

    #[test]
    fn multi_device_programs_rejected() {
        // One metrics table would serialize concurrent host links and
        // drop peer traffic: refuse rather than mis-predict.
        let mut pb = ProgramBuilder::new("md");
        let ha = pb.host_input("A", 64);
        let da = pb.device_alloc("a", 64);
        pb.begin_round();
        pb.transfer_in_to(1, ha, 0, da, 0, 64);
        let p = pb.build().unwrap();
        let a = analyze_cluster_program(&p, &machine(), 1).unwrap();
        assert!(matches!(a.lone_device(), Err(AnalyzeError::MultiDevice { .. })));

        let mut pb = ProgramBuilder::new("peer");
        let ha = pb.host_input("A", 64);
        let da = pb.device_alloc("a", 64);
        pb.begin_round();
        pb.transfer_in(ha, da, 64);
        pb.transfer_peer(0, 1, da, 0, 0, 64);
        let p = pb.build().unwrap();
        let a = analyze_cluster_program(&p, &machine(), 1).unwrap();
        assert!(matches!(a.lone_device(), Err(AnalyzeError::MultiDevice { .. })));
    }

    #[test]
    fn uncoalesced_writes_counted() {
        // Each block writes one word at c[i]: k blocks -> k transactions,
        // but they all share memory blocks: block i writes word i, so 32
        // consecutive blocks' single-word writes are *separate* instruction
        // executions and cannot coalesce across blocks: q = k.
        let k = 64;
        let mut pb = ProgramBuilder::new("p");
        let dc = pb.device_alloc("c", k);
        pb.begin_round();
        let mut kb = KernelBuilder::new("k", k, 32);
        kb.when(atgpu_ir::PredExpr::Eq(Operand::Lane, Operand::Imm(0)), |kb| {
            kb.shr_to_glb(dc, AddrExpr::block(), AddrExpr::c(0));
        });
        pb.launch(kb.build());
        let p = pb.build().unwrap();
        let a = analyze_cluster_program(&p, &machine(), 1).unwrap();
        // Masked global access counted with all lanes active (documented
        // over-approximation): all lanes hit word `i` -> 1 block each.
        assert_eq!(a.lone_device().unwrap().rounds[0].io_blocks, k);
    }

    #[test]
    fn stream_schedule_mirrors_host_steps() {
        let mut pb = ProgramBuilder::new("dbuf");
        let h = pb.host_input("A", 64);
        let o = pb.host_output("C", 64);
        let d = pb.device_alloc("a", 64);
        pb.begin_round();
        pb.transfer_in_streamed(0, 1, h, 0, d, 0, 48);
        pb.sync_stream(0, 1);
        pb.launch(KernelBuilder::new("k", 1, 0).build());
        pb.transfer_out_streamed(0, 0, d, 0, o, 0, 16);
        let p = pb.build().unwrap();
        let sched = stream_schedules(&p, 1);
        assert_eq!((sched.len(), sched[0].len()), (1, 1));
        assert_eq!(
            sched[0][0].items,
            vec![
                StreamItem::TransferIn { stream: 1, txns: 1, words: 48 },
                StreamItem::SyncStream { stream: 1 },
                StreamItem::Kernel,
                StreamItem::TransferOut { stream: 0, txns: 1, words: 16 },
            ]
        );
        // The streamed cost of this schedule, with everything serial,
        // matches the plain GPU-cost (sync after the only other stream).
        let a = analyze_cluster_program(&p, &machine(), 1).unwrap();
        let metrics = a.lone_device().unwrap();
        let spec = atgpu_model::GpuSpec::gtx650_like();
        let serial = atgpu_model::cost::evaluate(
            atgpu_model::cost::CostModel::GpuCost,
            &machine(),
            &spec,
            metrics,
        )
        .unwrap();
        let streamed = one_device_cost(&spec, metrics, &sched);
        assert!((streamed - serial.total()).abs() < 1e-12);
    }

    /// The streamed cost of a single-device program: the one-device
    /// cluster of `spec`, whose parameters are `spec`'s derived ones.
    fn one_device_cost(
        spec: &atgpu_model::GpuSpec,
        metrics: &AlgoMetrics,
        sched: &[Vec<RoundSchedule>],
    ) -> f64 {
        let cluster = ClusterSpec::homogeneous(1, *spec);
        let tables = std::slice::from_ref(metrics);
        cluster_cost_streamed(&cluster, &machine(), tables, sched, &[]).unwrap().total_ms
    }

    /// `Program::destreamed()` must strip every `SyncStream`/`SyncDevice`
    /// step along with the stream tags, so its schedule prices **exactly**
    /// the plain serial Expression-(2) cost under `cluster_cost_streamed` —
    /// a leftover sync would survive as a `StreamItem` and could only
    /// coincidentally match the serial sum.
    #[test]
    fn destreamed_program_prices_exactly_serial() {
        // A genuinely overlapped program: upload on stream 1 under the
        // kernel, explicit syncs, split downloads on two streams.
        let mut pb = ProgramBuilder::new("overlapped");
        let h = pb.host_input("A", 64);
        let o = pb.host_output("C", 64);
        let d = pb.device_alloc("a", 64);
        pb.begin_round();
        pb.transfer_in_streamed(0, 1, h, 0, d, 0, 48);
        let mut kb = KernelBuilder::new("k", 64, 0);
        kb.repeat(64, |kb| {
            kb.mov(0, atgpu_ir::Operand::Imm(1));
        });
        pb.launch(kb.build());
        pb.sync_stream(0, 1);
        pb.transfer_out_streamed(0, 2, d, 0, o, 0, 16);
        pb.begin_round();
        pb.sync_device(0);
        pb.transfer_out_streamed(0, 1, d, 16, o, 16, 16);
        let p = pb.build().unwrap();
        assert!(p.uses_streams());

        let d = p.destreamed();
        // No sync step survives de-streaming, in any round.
        assert!(d.rounds.iter().flat_map(|r| r.steps.iter()).all(|s| !matches!(
            s,
            atgpu_ir::HostStep::SyncStream { .. } | atgpu_ir::HostStep::SyncDevice { .. }
        )));
        assert!(!d.uses_streams());
        let sched = stream_schedules(&d, 1);
        assert!(sched
            .iter()
            .flatten()
            .flat_map(|r| r.items.iter())
            .all(|i| !matches!(i, StreamItem::SyncStream { .. } | StreamItem::SyncDevice)));

        // Bit-exact serial pricing: the de-streamed schedule through the
        // stream scheduler equals the plain serial cost function.
        let spec = atgpu_model::GpuSpec::gtx650_like();
        let a = analyze_cluster_program(&d, &machine(), 1).unwrap();
        let metrics = a.lone_device().unwrap();
        let serial = atgpu_model::cost::evaluate(
            atgpu_model::cost::CostModel::GpuCost,
            &machine(),
            &spec,
            metrics,
        )
        .unwrap();
        let streamed = one_device_cost(&spec, metrics, &sched);
        assert_eq!(streamed, serial.total(), "de-streamed cost must be exactly serial");

        // And the original streamed form is strictly cheaper (overlap).
        let orig = analyze_cluster_program(&p, &machine(), 1).unwrap();
        let overlapped =
            one_device_cost(&spec, orig.lone_device().unwrap(), &stream_schedules(&p, 1));
        assert!(overlapped < serial.total());
    }

    /// Every path that could hand an out-of-range stream id to the
    /// shared `StreamTimeline` (whose clamp would silently alias streams
    /// 8, 9, … onto one chain) is closed:
    ///
    /// 1. the IR validator's bound and the model's timeline bound are
    ///    the same constant;
    /// 2. every *validated* program carries only in-range ids, so the
    ///    schedules [`stream_schedules`] derives from it do too;
    /// 3. a forged program is rejected by the validator before this
    ///    module could propagate its ids (and `cluster_cost_streamed`
    ///    rejects forged *schedules* — pinned in atgpu-model's own
    ///    tests).
    #[test]
    fn stream_bounds_cover_every_schedule_path() {
        assert_eq!(atgpu_ir::MAX_STREAMS, atgpu_model::MAX_STREAMS);

        let build = |stream: u32| {
            let mut pb = ProgramBuilder::new("bounds");
            let h = pb.host_input("A", 64);
            let o = pb.host_output("C", 64);
            let d = pb.device_alloc("a", 64);
            pb.begin_round();
            pb.transfer_in_streamed(0, stream, h, 0, d, 0, 64);
            pb.sync_stream(0, stream);
            pb.transfer_out_streamed(0, stream, d, 0, o, 0, 64);
            pb.build()
        };
        // The top legal id validates; its derived schedule stays bounded.
        let p = build(atgpu_ir::MAX_STREAMS - 1).unwrap();
        for sched in stream_schedules(&p, 2).iter().flatten() {
            for item in &sched.items {
                let stream = match item {
                    StreamItem::TransferIn { stream, .. }
                    | StreamItem::TransferOut { stream, .. }
                    | StreamItem::SyncStream { stream } => *stream,
                    StreamItem::Kernel | StreamItem::SyncDevice => continue,
                };
                assert!(stream < atgpu_model::MAX_STREAMS);
            }
        }
        // One past the bound never builds.
        assert!(build(atgpu_ir::MAX_STREAMS).is_err());

        // A program forged *after* validation lost its witness to `edit`,
        // so the `Program::check` `analyze_cluster_program` runs on entry
        // refuses it.
        let mut forged = build(0).unwrap();
        for round in &mut forged.edit().rounds {
            for step in &mut round.steps {
                if let HostStep::TransferIn { stream, .. } = step {
                    *stream = atgpu_ir::MAX_STREAMS + 7;
                }
            }
        }
        assert!(analyze_cluster_program(&forged, &machine(), 1).is_err());
    }

    #[test]
    fn cluster_analysis_degenerates_to_single_device() {
        // A single-device program analysed for one device (or for none)
        // has one table and no peer row, which `lone_device` answers.  On
        // two devices its device 0 keeps that table, and the idle second
        // table makes the analysis refused.
        let p = vecadd(3200);
        let clu = analyze_cluster_program(&p, &machine(), 1).unwrap();
        assert_eq!(clu.per_device.len(), 1);
        assert!(clu.peer.iter().all(Vec::is_empty));
        assert_eq!(clu.lone_device().unwrap(), &clu.per_device[0]);
        let none = analyze_cluster_program(&p, &machine(), 0).unwrap();
        assert_eq!(none.lone_device().unwrap(), &clu.per_device[0]);
        let two = analyze_cluster_program(&p, &machine(), 2).unwrap();
        assert_eq!(two.per_device[0], clu.per_device[0]);
        assert!(matches!(two.lone_device(), Err(AnalyzeError::MultiDevice { .. })));
    }

    #[test]
    fn cluster_analysis_splits_sharded_launch() {
        // 2 devices: per-device transfers, a 3:1 sharded launch, a peer
        // copy.  Each attribution lands on the right device.
        let n = 32 * 4; // 4 blocks
        let mut pb = ProgramBuilder::new("md");
        let ha = pb.host_input("A", n);
        let hc = pb.host_output("C", n);
        let da = pb.device_alloc("a", n);
        let mut kb = KernelBuilder::new("k", 4, 32);
        kb.glb_to_shr(AddrExpr::lane(), da, AddrExpr::block() * 32 + AddrExpr::lane());
        pb.begin_round();
        pb.transfer_in_to(0, ha, 0, da, 0, n);
        pb.transfer_in_to(1, ha, 0, da, 0, n);
        pb.launch_sharded(
            kb.build(),
            vec![
                atgpu_ir::Shard { device: 0, start: 0, end: 3 },
                atgpu_ir::Shard { device: 1, start: 3, end: 4 },
            ],
        );
        pb.transfer_peer(0, 1, da, 0, 0, 32);
        pb.transfer_out_from(1, da, 0, hc, 0, n);
        let p = pb.build().unwrap();

        let a = analyze_cluster_program(&p, &machine(), 2).unwrap();
        assert_eq!(a.per_device.len(), 2);
        let (d0, d1) = (&a.per_device[0].rounds[0], &a.per_device[1].rounds[0]);
        assert_eq!((d0.inward_words, d0.inward_txns), (n, 1));
        assert_eq!((d1.inward_words, d1.inward_txns), (n, 1));
        assert_eq!((d0.outward_words, d0.outward_txns), (0, 0));
        assert_eq!((d1.outward_words, d1.outward_txns), (n, 1));
        // 4 coalesced transactions split 3:1 with the blocks; the
        // lockstep time metric is block-invariant.
        assert_eq!(d0.blocks_launched, 3);
        assert_eq!(d1.blocks_launched, 1);
        assert_eq!(d0.io_blocks, 3);
        assert_eq!(d1.io_blocks, 1);
        assert_eq!(d0.time, d1.time);
        assert!(a.io_exact);
        assert_eq!(a.peer.len(), 1);
        assert_eq!(a.peer[0], vec![PeerTraffic { src: 0, dst: 1, words: 32, txns: 1 }]);
    }

    #[test]
    fn peer_copy_is_one_transaction_regardless_of_size() {
        // Pin the paper semantics: `TransferEngine::peer` makes exactly
        // one transaction per copy — a 1-word halo cell and a 10k-word
        // merge row both cost one α on their directed link.  The cluster
        // analysis must never split a copy into per-b transactions.
        for words in [1u64, 32, 320, 9984] {
            let mut pb = ProgramBuilder::new("pin");
            let h = pb.host_input("A", 9984);
            let o = pb.host_output("C", 32);
            let d = pb.device_alloc("a", 9984);
            pb.begin_round();
            pb.transfer_in_to(1, h, 0, d, 0, words);
            pb.transfer_peer(1, 0, d, 0, 0, words);
            pb.transfer_out_from(0, d, 0, o, 0, 32);
            let p = pb.build().unwrap();
            let a = analyze_cluster_program(&p, &machine(), 2).unwrap();
            assert_eq!(a.peer[0], vec![PeerTraffic { src: 1, dst: 0, words, txns: 1 }]);
        }
    }

    #[test]
    fn cluster_analysis_prices_through_streamed_cost() {
        // The analysis output plugs straight into the streamed cluster
        // cost function alongside the derived schedules.
        let n = 32 * 8;
        let mut pb = ProgramBuilder::new("md");
        let ha = pb.host_input("A", n);
        let hc = pb.host_output("C", n);
        let da = pb.device_alloc("a", n);
        let mut kb = KernelBuilder::new("k", 8, 32);
        kb.glb_to_shr(AddrExpr::lane(), da, AddrExpr::block() * 32 + AddrExpr::lane());
        pb.begin_round();
        pb.transfer_in_to(0, ha, 0, da, 0, n / 2);
        pb.transfer_in_to(1, ha, n / 2, da, n / 2, n / 2);
        pb.launch_sharded(
            kb.build(),
            vec![
                atgpu_ir::Shard { device: 0, start: 0, end: 4 },
                atgpu_ir::Shard { device: 1, start: 4, end: 8 },
            ],
        );
        pb.transfer_out_from(0, da, 0, hc, 0, n / 2);
        let p = pb.build().unwrap();

        let machine = machine();
        let a = analyze_cluster_program(&p, &machine, 2).unwrap();
        let scheds = stream_schedules(&p, 2);
        let spec = atgpu_model::ClusterSpec::homogeneous(2, atgpu_model::GpuSpec::gtx650_like());
        let cost = atgpu_model::cost::cluster_cost_streamed(
            &spec,
            &machine,
            &a.per_device,
            &scheds,
            &a.peer,
        )
        .unwrap();
        assert!(cost.total_ms > 0.0);
        assert_eq!(cost.per_device.len(), 2);
    }

    #[test]
    fn stream_schedules_split_by_device() {
        let mut pb = ProgramBuilder::new("multi");
        let h = pb.host_input("A", 64);
        let o = pb.host_output("C", 64);
        let d = pb.device_alloc("a", 64);
        pb.begin_round();
        pb.transfer_in_to(0, h, 0, d, 0, 32);
        pb.transfer_in_streamed(1, 2, h, 32, d, 32, 32);
        let k = KernelBuilder::new("k", 4, 0).build();
        pb.launch_sharded(
            k,
            vec![
                atgpu_ir::Shard { device: 0, start: 0, end: 1 },
                atgpu_ir::Shard { device: 1, start: 1, end: 3 },
                atgpu_ir::Shard { device: 1, start: 3, end: 4 },
            ],
        );
        pb.transfer_out_from(1, d, 0, o, 0, 8);
        let p = pb.build().unwrap();
        let scheds = stream_schedules(&p, 3);
        assert_eq!(scheds.len(), 3);
        assert_eq!(scheds[0][0].items.len(), 2); // in + kernel
                                                 // Device 1: one in, ONE kernel item despite two shards, one out.
        assert_eq!(
            scheds[1][0].items.iter().filter(|i| matches!(i, StreamItem::Kernel)).count(),
            1
        );
        assert_eq!(scheds[1][0].items.len(), 3);
        // The idle third device still has a (serial) round entry.
        assert!(scheds[2][0].items.is_empty());
    }
}
