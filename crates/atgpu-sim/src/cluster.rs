//! The multi-device layer: `N` simulated GPUs, each with its own global
//! memory and links, running **sharded** kernel launches.
//!
//! ## Execution model
//!
//! Every device holds a *replica* of the program's device-buffer layout
//! (the single-device layout from [`atgpu_ir::Program::buffer_layout`],
//! instantiated once per device).  The host distributes data with
//! device-targeted `TransferIn` steps, devices exchange data over
//! directed peer links (`TransferPeer`), and a `LaunchSharded` step runs
//! disjoint block ranges of one grid on different devices.
//!
//! ## Determinism
//!
//! The model leaves cross-block visibility inside a launch undefined, and
//! a device's replica is private: only its own shards write it.  So a
//! program run's launch keeps a write log **only where something reads
//! it** — `run_sharded_launch` is the one place that decides:
//!
//! * nothing reads a log (the default): every device runs its shards
//!   back to back in plan order through the one launch body, **written
//!   through** to its own replica — the same launch, word for word, that
//!   a lone device runs, which is why [`crate::run_program`] *is* the
//!   one-device cluster;
//! * the fault journal (a fault plan on more than one device — the only
//!   case with takeover shards) reads one: each shard executes against
//!   its device's pre-launch memory and logs its global writes; the log
//!   is journaled and merged **in thread-block order** by
//!   [`crate::device::apply_write_log`].
//!
//! Block indices are globally unique across shards, so either way the
//! result is bit-identical to a single-device launch of the same grid —
//! regardless of the device count, the shard boundaries, or how
//! simulation threads interleave.  `tests/roster_plans.rs` pins the two
//! disciplines equal on every workload × plan cell.  The race detector
//! and the reference interpreter are launch-level oracles:
//! [`Cluster::run_sharded_kernel`] (one shared memory, always logged,
//! races checked on request) is pinned against the single device by
//! `tests/cluster_differential.rs` over randomized kernels and shard
//! plans.
//!
//! ## Timing
//!
//! Devices work concurrently, so a round's observed time is
//! `σ + max_d(T_in(d) + T_kernel(d) + T_peer(d) + T_out(d))` — the
//! slowest device's critical path.  Peer-transfer time is charged to
//! both endpoints (source reads while destination writes).  The
//! analytical counterpart is [`atgpu_model::cost::cluster_cost_streamed`].

use crate::device::{apply_write_log, Device, DeviceStats, KernelStats};
use crate::driver::HostData;
use crate::error::SimError;
use crate::gmem::GlobalMemory;
use crate::links::{check_program, run_rounds, Ledger, Links};
use crate::warp::{GmemAccess, WriteRec};
use crate::xfer::TransferEngine;
use crate::{EngineSel, SimConfig};
use atgpu_ir::{Kernel, Program, Shard};
use atgpu_model::{plan, AtgpuMachine, ClusterSpec, ShardProfile};

/// A simulated multi-GPU system.
///
/// A `Cluster` is **shareable** and holds no settings: every run method
/// takes `&self`, and the only state a run touches on the cluster is
/// each device's kernel memo ([`KernelCache`](crate::KernelCache)) —
/// everything else (memory replicas, host data, transfer engines, fault
/// state, tracers, the watchdog budget) is allocated per call or read
/// from the call's [`SimConfig`].  A long-lived service can therefore
/// hold one `Cluster` and serve many concurrent
/// [`run_cluster_program_on`] calls from different threads; results stay
/// bit-identical to solo runs because the shared kernel memo never
/// changes results (pinned by the cache differential suite).
#[derive(Debug)]
pub struct Cluster {
    devices: Vec<Device>,
    spec: ClusterSpec,
    machine: AtgpuMachine,
}

/// One shard's execution record within a sharded launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStats {
    /// Device that ran the shard.
    pub device: u32,
    /// Block range `[start, end)`.
    pub range: (u64, u64),
    /// The shard's kernel statistics (cycles, transactions, …).
    pub stats: KernelStats,
}

/// Shard plan ⇄ per-device block counts: the planners in
/// [`atgpu_model::plan`] decide in counts, a `LaunchSharded` step takes
/// shards.
pub use atgpu_ir::{counts_to_shards, shard_counts};

/// [`plan::even_units`] as a shard plan: `blocks` thread blocks split
/// into `n` contiguous shards as evenly as possible; devices that would
/// receive zero blocks are omitted.
pub fn even_shards(blocks: u64, n: u32) -> Vec<Shard> {
    counts_to_shards(&plan::even_units(blocks, n.max(1) as usize))
}

/// [`plan::weighted_units`] as a shard plan: shards sized proportionally
/// to each device's compute throughput (`k′ · clock`).
pub fn weighted_shards(blocks: u64, spec: &ClusterSpec) -> Vec<Shard> {
    counts_to_shards(&plan::weighted_units(blocks, spec))
}

/// [`plan::planned_units`] — the cost-driven planner — as a shard plan:
/// the cheapest candidate apportionment of `units` planning units under
/// the analytic model, pricing `profile` on `spec`.
pub fn planned_shards(
    units: u64,
    spec: &ClusterSpec,
    machine: &AtgpuMachine,
    profile: &ShardProfile,
) -> Vec<Shard> {
    counts_to_shards(&plan::planned_units(units, spec, machine, profile))
}

impl Cluster {
    /// Builds a cluster of devices sharing one abstract machine shape.
    pub fn new(machine: AtgpuMachine, spec: ClusterSpec) -> Result<Self, SimError> {
        spec.validate().map_err(|e| SimError::InvalidCluster { reason: e.to_string() })?;
        let devices =
            spec.devices.iter().map(|d| Device::new(machine, *d)).collect::<Result<Vec<_>, _>>()?;
        Ok(Self { devices, spec, machine })
    }

    /// Number of devices.
    pub fn n_devices(&self) -> usize {
        self.devices.len()
    }

    /// The cluster specification.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// The abstract machine shape every device shares.
    pub fn machine(&self) -> &AtgpuMachine {
        &self.machine
    }

    /// One device.
    pub fn device(&self, i: u32) -> Option<&Device> {
        self.devices.get(i as usize)
    }

    /// Runs one kernel launch sharded across the cluster against a single
    /// canonical memory image: every shard reads the pre-launch `gmem`
    /// snapshot (each device's replica is identical at launch time), and
    /// all shards' deferred writes are merged back into `gmem` in block
    /// order.
    ///
    /// This is the launch-level API the differential tests exercise: for
    /// any shard plan partitioning the grid, the final `gmem` is
    /// bit-identical to a single-device [`Device::run_kernel_with`] of
    /// the same kernel.
    pub fn run_sharded_kernel(
        &self,
        kernel: &Kernel,
        gmem: &mut GlobalMemory,
        shards: &[Shard],
        detect_races: bool,
        engine: EngineSel,
    ) -> Result<Vec<ShardStats>, SimError> {
        // Shards only log, so `gmem` stays untouched until the merge —
        // and on any error, an unknown device included.
        let mut merged: Vec<WriteRec> = Vec::new();
        let mut out = Vec::with_capacity(shards.len());
        for shard in shards {
            let device = self.device(shard.device).ok_or(SimError::NoSuchDevice {
                device: shard.device,
                devices: self.devices.len(),
            })?;
            let range = (shard.start, shard.end);
            let target = GmemAccess::Logged { base: gmem, log: &mut merged };
            let stats = device.launch(kernel, target, engine, range, 0)?;
            out.push(ShardStats { device: shard.device, range, stats });
        }
        apply_write_log(kernel, gmem, merged, detect_races)?;
        Ok(out)
    }
}

/// Observed times of one device during one round, in milliseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DeviceRoundObservation {
    /// Host→device transfer time over this device's host link (serial
    /// component sum over all streams).
    pub xfer_in_ms: f64,
    /// Kernel execution time of this device's shard(s).
    pub kernel_ms: f64,
    /// Device→host transfer time over this device's host link (serial
    /// component sum over all streams).
    pub xfer_out_ms: f64,
    /// Peer-transfer time on links touching this device (charged to both
    /// endpoints).
    pub peer_ms: f64,
    /// Stream-aware critical path through the device's round: the max
    /// over per-stream chains between sync points.  Equals the component
    /// sum when everything runs on stream 0.
    pub stream_ms: f64,
    /// Kernel statistics of this device's shard(s); zero when the device
    /// ran no blocks this round.
    pub kernel_stats: KernelStats,
    /// Transfer attempts on this device's links this round that were
    /// dropped and re-run ([`crate::fault`]); 0 without a fault plan.
    pub retries: u64,
    /// Exponential-backoff wait time accumulated this round, already
    /// included in the transfer times and the stream critical path.
    pub backoff_ms: f64,
}

impl DeviceRoundObservation {
    /// The device's critical path through the round (stream-aware).
    pub fn path_ms(&self) -> f64 {
        self.stream_ms
    }
}

/// Observed times of one round across the cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterRoundObservation {
    /// Per-device observations.
    pub devices: Vec<DeviceRoundObservation>,
    /// Cluster-wide synchronisation overhead.
    pub sync_ms: f64,
}

impl ClusterRoundObservation {
    /// The round's wall-clock time: `σ + max_d path_d`.
    pub fn total_ms(&self) -> f64 {
        self.sync_ms + self.devices.iter().map(DeviceRoundObservation::path_ms).fold(0.0, f64::max)
    }
}

/// The result of simulating a program on a cluster.
#[derive(Debug, Clone)]
pub struct ClusterSimReport {
    /// Per-round observations.
    pub rounds: Vec<ClusterRoundObservation>,
    /// Final host buffers (outputs filled in).
    pub host: HostData,
    /// Per-device counters after the run (kernel-cache hits/misses),
    /// indexed by device — observability only.
    pub device_stats: Vec<DeviceStats>,
    /// Recorded timeline spans when [`SimConfig::trace`] was on
    /// (`None` otherwise); export with
    /// [`crate::trace::cluster_report_trace_json`].
    pub trace: Option<crate::trace::Trace>,
}

impl ClusterSimReport {
    /// Cluster-wide device counters (per-device stats summed).
    pub fn device_stats_total(&self) -> DeviceStats {
        let mut total = DeviceStats::default();
        for s in &self.device_stats {
            total.merge(s);
        }
        total
    }

    /// Total running time: rounds are serial, devices within a round are
    /// concurrent.
    pub fn total_ms(&self) -> f64 {
        self.rounds.iter().map(ClusterRoundObservation::total_ms).sum()
    }

    /// Slowest-device kernel time, summed over rounds (the cluster's
    /// observed "Kernel" series).
    pub fn kernel_ms(&self) -> f64 {
        self.rounds.iter().map(|r| r.devices.iter().map(|d| d.kernel_ms).fold(0.0, f64::max)).sum()
    }

    /// Per-device slots sized to the **max** across rounds: device
    /// indices are stable identities, so a report whose rounds carry
    /// different device counts (e.g. across a loss boundary) still
    /// attributes every round's times to the right device instead of
    /// panicking or truncating to the first round's width.
    fn device_slots(&self) -> Vec<f64> {
        let n = self.rounds.iter().map(|r| r.devices.len()).max().unwrap_or(0);
        vec![0.0; n]
    }

    /// Per-device transfer time (host link + peer links), summed over
    /// rounds — the per-device transfer cost a sweep reports.
    pub fn transfer_ms_per_device(&self) -> Vec<f64> {
        let mut out = self.device_slots();
        for r in &self.rounds {
            for (d, obs) in r.devices.iter().enumerate() {
                out[d] += obs.xfer_in_ms + obs.peer_ms + obs.xfer_out_ms;
            }
        }
        out
    }

    /// Per-device kernel time, summed over rounds.
    pub fn kernel_ms_per_device(&self) -> Vec<f64> {
        let mut out = self.device_slots();
        for r in &self.rounds {
            for (d, obs) in r.devices.iter().enumerate() {
                out[d] += obs.kernel_ms;
            }
        }
        out
    }

    /// An output buffer's final contents.
    pub fn output(&self, id: atgpu_ir::HBuf) -> &[i64] {
        self.host.buf(id)
    }
}

/// Host CPUs available for shard threads, probed once.  On a single-core
/// host threaded dispatch is pure overhead, so [`crate::SimConfig`]'s
/// default enables it only when this exceeds 1 (an explicit
/// `device_threads: true` always threads).
pub fn host_parallelism() -> usize {
    static P: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *P.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Decorrelates the jitter streams of distinct links deterministically.
fn link_seed(seed: u64, idx: u64) -> u64 {
    seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(idx.wrapping_add(1))
}

/// Maps `items` through `map` on at most `threads` scoped OS threads and
/// returns the results in item order, or the first error in item order.
/// Each worker is handed a contiguous run of the items and owns it — so
/// an item may carry a `&mut` — and the runs' results concatenate back in
/// order; one worker runs inline and stops at the first error.  A
/// panicking worker surfaces as [`SimError::WorkerPanic`] naming `what` —
/// a simulation panic never propagates into the caller.
fn map_on_threads<I: Send, T: Send>(
    mut items: impl ExactSizeIterator<Item = I>,
    threads: usize,
    what: std::fmt::Arguments<'_>,
    map: impl Fn(I) -> Result<T, SimError> + Sync,
) -> Result<Vec<T>, SimError> {
    let n = items.len();
    let threads = threads.min(n);
    if threads <= 1 {
        return items.map(map).collect();
    }
    let per_worker = n.div_ceil(threads);
    let worker_panic = |_| SimError::WorkerPanic { context: what.to_string() };
    std::thread::scope(|s| -> Result<Vec<T>, SimError> {
        let map = &map;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let hand: Vec<I> = items.by_ref().take(per_worker).collect();
                s.spawn(move || hand.into_iter().map(map).collect::<Vec<_>>())
            })
            .collect();
        let mut out = Vec::with_capacity(n);
        for h in handles {
            out.extend(h.join().map_err(worker_panic)?);
        }
        out.into_iter().collect()
    })
}

/// Runs one (possibly sharded) launch of a program run, and is the one
/// place its write target is chosen — by asking what will read a write
/// log, never by which entry point was called.  Only the fault journal
/// does ([`Ledger::journals`], which is also the only case with takeover
/// shards); without it no log exists and the launch is
/// [written through](run_written_through).  Otherwise each shard executes
/// against its own device's replica and logs its writes, then every
/// device journals and merges its own writes in block order.
///
/// With [`SimConfig::device_threads`] set every shard is
/// simulated on its own scoped OS thread; statistics come back and are
/// booked in shard-plan order and the logs merge through the shared
/// block-order [`apply_write_log`], so the outcome is bit-identical to
/// sequential dispatch.
fn run_sharded_launch(
    cluster: &Cluster,
    config: &SimConfig,
    kernel: &Kernel,
    shards: &[Shard],
    gmems: &mut [GlobalMemory],
    ledger: &mut Ledger,
) -> Result<(), SimError> {
    if !ledger.journals() {
        return run_written_through(cluster, config, kernel, shards, gmems, ledger);
    }
    // A dead device's shards are re-apportioned over the survivors by
    // the model's takeover rule; the takeover shards' writes are
    // applied to *every* alive device so redirected outputs (and later
    // recoveries) can be served from any survivor.  Block indices stay
    // globally unique, so the block-order merge keeps the result
    // bit-identical to the fault-free plan.
    let mut live: Vec<Shard> = Vec::with_capacity(shards.len());
    let mut is_recovery: Vec<bool> = Vec::with_capacity(shards.len());
    for sh in shards {
        match ledger.liveness() {
            Some(alive) if !alive[sh.device as usize] => {
                let take =
                    plan::takeover_units(&cluster.spec, &cluster.machine, alive, sh.blocks());
                for rs in counts_to_shards(&take) {
                    live.push(Shard {
                        device: rs.device,
                        start: sh.start + rs.start,
                        end: sh.start + rs.end,
                    });
                    is_recovery.push(true);
                }
            }
            _ => {
                live.push(*sh);
                is_recovery.push(false);
            }
        }
    }

    let mut logs: Vec<Vec<WriteRec>> = (0..gmems.len()).map(|_| Vec::new()).collect();
    let mut recovery_log: Vec<WriteRec> = Vec::new();
    let threads = if config.device_threads { live.len() } else { 1 };
    let gm = &*gmems;
    let what = format_args!("simulating shards of kernel `{}`", kernel.name);
    let outcomes = map_on_threads(live.iter(), threads, what, |s| {
        let (d, range, mut log) = (s.device as usize, (s.start, s.end), Vec::new());
        let target = GmemAccess::Logged { base: &gm[d], log: &mut log };
        let stats = cluster.devices[d].launch(
            kernel,
            target,
            EngineSel::MicroOp,
            range,
            config.watchdog_cycles,
        )?;
        Ok((stats, log))
    })?;
    for ((shard, rec), (stats, mut log)) in live.iter().zip(&is_recovery).zip(outcomes) {
        let d = shard.device as usize;
        if *rec {
            recovery_log.append(&mut log);
        } else {
            logs[d].append(&mut log);
        }
        ledger.kernel_done(d, shard.blocks(), &stats);
    }
    for (d, mut log) in logs.into_iter().enumerate() {
        if !ledger.alive(d) {
            continue;
        }
        log.extend(recovery_log.iter().copied());
        if !log.is_empty() {
            ledger.journal_writes(d, &log);
            apply_write_log(kernel, &mut gmems[d], log, false)?;
        }
    }
    Ok(())
}

/// The launch when nothing reads a write log: every device runs its
/// shards back to back in plan order through the one launch body
/// ([`Device::launch`]), written through to its own replica — no
/// snapshot, no [`WriteRec`], no merge, and nothing allocated that a lone
/// device's launch would not allocate.
///
/// Threaded dispatch hands each worker its shard *and* that shard's
/// replica, so it needs several shards on distinct devices; a plan naming
/// a device twice (hand-written plans only) cannot be dealt out and runs
/// inline, like a launch of one shard.
fn run_written_through(
    cluster: &Cluster,
    config: &SimConfig,
    kernel: &Kernel,
    shards: &[Shard],
    gmems: &mut [GlobalMemory],
    ledger: &mut Ledger,
) -> Result<(), SimError> {
    let run = |s: &Shard, gmem: &mut GlobalMemory| {
        let device = &cluster.devices[s.device as usize];
        let (target, range) = (GmemAccess::Direct(gmem), (s.start, s.end));
        device.launch(kernel, target, EngineSel::MicroOp, range, config.watchdog_cycles)
    };
    if config.device_threads && shards.len() > 1 {
        let mut free: Vec<_> = gmems.iter_mut().map(Some).collect();
        let owned: Vec<_> =
            shards.iter().filter_map(|s| Some((s, free[s.device as usize].take()?))).collect();
        if owned.len() == shards.len() {
            let what = format_args!("simulating shards of kernel `{}`", kernel.name);
            let done = map_on_threads(owned.into_iter(), shards.len(), what, |(s, g)| run(s, g))?;
            for (s, stats) in shards.iter().zip(&done) {
                ledger.kernel_done(s.device as usize, s.blocks(), stats);
            }
            return Ok(());
        }
    }
    for s in shards {
        let stats = run(s, &mut gmems[s.device as usize])?;
        ledger.kernel_done(s.device as usize, s.blocks(), &stats);
    }
    Ok(())
}

/// Simulates `program` on a cluster built from `machine` + `cluster`.
///
/// Each device gets a zero-initialised replica of the program's buffer
/// layout; transfers and launches address devices explicitly (plain
/// `Launch` and untargeted transfers run on device 0).  Kernel
/// correctness therefore depends on the program staging each shard's
/// inputs onto the device that runs it — exactly the obligation a real
/// multi-GPU host program has.
pub fn run_cluster_program(
    program: &Program,
    inputs: Vec<Vec<i64>>,
    machine: &AtgpuMachine,
    cluster_spec: &ClusterSpec,
    config: &SimConfig,
) -> Result<ClusterSimReport, SimError> {
    let cluster = Cluster::new(*machine, cluster_spec.clone())?;
    run_cluster_program_on(&cluster, program, inputs, config)
}

/// Simulates `program` against an **existing, possibly shared** cluster.
///
/// This is the serving-layer entry point: a long-lived [`Cluster`] keeps
/// its per-device kernel caches warm across calls, and because every
/// other piece of run state (memory replicas, host buffers, transfer
/// engines, fault state, tracer) is allocated here per call, concurrent
/// invocations from different threads produce reports bit-identical to
/// running each program alone — the guarantee the serve differential
/// suite pins.  Every [`SimConfig`] field is honoured, and only for
/// this call.
pub fn run_cluster_program_on(
    cluster: &Cluster,
    program: &Program,
    inputs: Vec<Vec<i64>>,
    config: &SimConfig,
) -> Result<ClusterSimReport, SimError> {
    run_on(cluster, program, inputs, config, |idx| link_seed(config.seed, idx))
}

/// The one run body, behind [`run_cluster_program_on`] and — on a
/// one-device cluster — [`crate::run_program`].  `link_seed` maps a link
/// index (host links `0..n`, then peer links `n + src·n + dst`) to its
/// jitter seed: the two entry points have always seeded host link 0
/// differently and committed noisy outputs pin both, so the rule is the
/// caller's, and nothing in here branches on who called.
pub(crate) fn run_on(
    cluster: &Cluster,
    program: &Program,
    inputs: Vec<Vec<i64>>,
    config: &SimConfig,
    link_seed: impl Fn(u64) -> u64,
) -> Result<ClusterSimReport, SimError> {
    let n = cluster.n_devices();
    check_program(program, n)?;
    if let Some(noise) = &config.noise {
        noise.check()?;
    }
    let machine = &cluster.machine;
    let spec = &cluster.spec;

    let (bases, total_words) = program.buffer_layout(machine.b);
    let mut gmems = (0..n)
        .map(|_| GlobalMemory::new(bases.clone(), total_words, machine.b, machine.g))
        .collect::<Result<Vec<_>, _>>()?;
    let mut host = HostData::new(program, inputs)?;

    let link = |l, idx: usize| TransferEngine::with_link(l, config.noise, link_seed(idx as u64));
    let host_xfer = spec.host_links.iter().enumerate().map(|(i, l)| link(l, i)).collect();
    let peer_xfer = spec
        .peer_links
        .iter()
        .enumerate()
        .map(|(s, row)| row.iter().enumerate().map(|(d, l)| link(l, n + s * n + d)).collect())
        .collect();
    let clocks = spec.devices.iter().map(|d| d.clock_cycles_per_ms).collect();
    let mut links = Links::new(host_xfer, peer_xfer, clocks, spec.sync_ms, total_words, config);

    let rounds =
        run_rounds(program, &mut host, &mut gmems, &mut links, |k, shards, gm, ledger| {
            run_sharded_launch(cluster, config, k, shards, gm, ledger)
        })?;

    let mut device_stats: Vec<DeviceStats> = cluster.devices.iter().map(Device::stats).collect();
    let trace = links.finish(&rounds, &mut device_stats);
    let rounds = rounds
        .into_iter()
        .map(|devices| ClusterRoundObservation { devices, sync_ms: spec.sync_ms })
        .collect();
    Ok(ClusterSimReport { rounds, host, device_stats, trace })
}

#[cfg(test)]
mod tests {
    use super::*;
    use atgpu_ir::{AddrExpr, AluOp, HostStep, KernelBuilder, Operand, ProgramBuilder};
    use atgpu_model::GpuSpec;

    fn machine() -> AtgpuMachine {
        AtgpuMachine::new(1 << 12, 4, 64, 1 << 16).unwrap()
    }

    fn cspec(n: usize) -> ClusterSpec {
        let spec = GpuSpec {
            k_prime: 2,
            h_limit: 4,
            clock_cycles_per_ms: 1000.0,
            xfer_alpha_ms: 0.1,
            xfer_beta_ms_per_word: 0.001,
            sync_ms: 0.05,
            ..GpuSpec::gtx650_like()
        };
        ClusterSpec::homogeneous(n, spec)
    }

    fn scale_kernel(blocks: u64) -> Kernel {
        let mut kb = KernelBuilder::new("scale", blocks, 8);
        let g = AddrExpr::block() * 4 + AddrExpr::lane();
        kb.glb_to_shr(AddrExpr::lane(), atgpu_ir::DBuf(0), g.clone());
        kb.ld_shr(0, AddrExpr::lane());
        kb.alu(AluOp::Mul, 0, Operand::Reg(0), Operand::Imm(3));
        kb.st_shr(AddrExpr::lane() + 4, Operand::Reg(0));
        kb.shr_to_glb(atgpu_ir::DBuf(1), g, AddrExpr::lane() + 4);
        kb.build()
    }

    fn fresh_gmem(n: u64) -> GlobalMemory {
        let mut g = GlobalMemory::new(vec![0, n], 2 * n, 4, 1 << 16).unwrap();
        for i in 0..n {
            g.write(i as i64, i as i64);
        }
        g
    }

    #[test]
    fn map_on_threads_keeps_item_order_and_types_its_failures() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        for threads in [0, 1, 3, 8] {
            let out = map_on_threads(0..5, threads, format_args!("t"), |i| Ok(i * 10)).unwrap();
            assert_eq!(out, vec![0, 10, 20, 30, 40], "threads={threads}");
        }
        // The first error in item order wins; inline, it also stops the
        // remaining items.
        let fail_from_1 = |i: usize| match i {
            0 => Ok(i),
            _ => Err(SimError::Watchdog { kernel: i.to_string(), budget: 0 }),
        };
        for threads in [1, 2] {
            let ran = AtomicUsize::new(0);
            let err = map_on_threads(0..4, threads, format_args!("t"), |i| {
                ran.fetch_add(1, Ordering::Relaxed);
                fail_from_1(i)
            });
            assert!(matches!(err, Err(SimError::Watchdog { ref kernel, .. }) if kernel == "1"));
            assert_eq!(ran.into_inner(), if threads == 1 { 2 } else { 4 });
        }
        // A worker panic is a typed error naming the work.
        let err = map_on_threads(0..3, 3, format_args!("probing"), |i| match i {
            2 => panic!("boom"),
            _ => Ok(i),
        });
        assert!(matches!(err, Err(SimError::WorkerPanic { ref context }) if context == "probing"));
    }

    #[test]
    fn even_shards_partition_the_grid() {
        assert_eq!(
            even_shards(10, 3),
            vec![
                Shard { device: 0, start: 0, end: 4 },
                Shard { device: 1, start: 4, end: 7 },
                Shard { device: 2, start: 7, end: 10 },
            ]
        );
        // Fewer blocks than devices: trailing devices receive nothing.
        assert_eq!(even_shards(2, 4).len(), 2);
        assert_eq!(even_shards(0, 4), vec![]);
        let s = even_shards(64, 1);
        assert_eq!(s, vec![Shard { device: 0, start: 0, end: 64 }]);
    }

    /// Regression: a shard on a device past `n_devices` used to index
    /// out of the count table and panic.
    #[test]
    fn shard_counts_widen_for_an_out_of_range_device() {
        let plan = [Shard { device: 3, start: 0, end: 6 }, Shard { device: 1, start: 6, end: 8 }];
        assert_eq!(shard_counts(&plan, 2), vec![0, 2, 0, 6]);
        // In range, the table keeps the requested width and inverts
        // `counts_to_shards`.
        assert_eq!(shard_counts(&counts_to_shards(&[3, 0, 5]), 4), vec![3, 0, 5, 0]);
    }

    #[test]
    fn weighted_shards_follow_device_speed() {
        // Device 1 has 3x the MPs of device 0: it should get ~3/4 of the
        // blocks, and the plan must still partition the grid.
        let slow = GpuSpec { k_prime: 2, ..GpuSpec::gtx650_like() };
        let fast = GpuSpec { k_prime: 6, ..GpuSpec::gtx650_like() };
        let mut spec = ClusterSpec::homogeneous(2, slow);
        spec.devices[1] = fast;
        let shards = weighted_shards(100, &spec);
        assert_eq!(shards.iter().map(|s| s.blocks()).sum::<u64>(), 100);
        assert_eq!(shards[0].device, 0);
        assert_eq!(shards[1].device, 1);
        assert_eq!(shards[0].blocks(), 25);
        assert_eq!(shards[1].blocks(), 75);
        // Contiguous partition.
        assert_eq!(shards[0].end, shards[1].start);
        assert_eq!(shards[1].end, 100);
    }

    #[test]
    fn weighted_shards_handle_remainders_and_tiny_grids() {
        let mut spec = ClusterSpec::homogeneous(3, GpuSpec::gtx650_like());
        spec.devices[2].k_prime = 4; // twice the others
        let shards = weighted_shards(7, &spec);
        assert_eq!(shards.iter().map(|s| s.blocks()).sum::<u64>(), 7);
        let mut cursor = 0;
        for s in &shards {
            assert_eq!(s.start, cursor);
            cursor = s.end;
        }
        // Fewer blocks than devices: zero-length shards are omitted.
        let shards = weighted_shards(1, &spec);
        assert_eq!(shards.iter().map(|s| s.blocks()).sum::<u64>(), 1);
        assert!(shards.iter().all(|s| s.blocks() > 0));
        assert!(weighted_shards(0, &spec).is_empty());
    }

    /// Regression: a slow device whose largest-remainder quota rounds to
    /// 0 (extreme `k′·clock` ratios, fewer blocks than devices) must not
    /// surface as a zero-block shard — `LaunchSharded` validation
    /// rejects those as a non-partition.  Empty shards are dropped and
    /// the grid's blocks land on the fastest devices.
    #[test]
    fn weighted_shards_drop_zero_quota_devices_on_tiny_grids() {
        // Device 0 is 1000x slower than devices 1-3 (1000:1 k′·clock
        // ratio), and the grid has fewer blocks than devices.
        let slow = GpuSpec { k_prime: 1, clock_cycles_per_ms: 1000.0, ..GpuSpec::gtx650_like() };
        let fast =
            GpuSpec { k_prime: 10, clock_cycles_per_ms: 100_000.0, ..GpuSpec::gtx650_like() };
        let mut spec = ClusterSpec::homogeneous(4, fast);
        spec.devices[0] = slow;

        for blocks in 1..=6u64 {
            let shards = weighted_shards(blocks, &spec);
            // A valid partition: non-empty, contiguous, covers the grid.
            assert!(shards.iter().all(|s| s.blocks() > 0), "empty shard at blocks={blocks}");
            assert_eq!(shards.iter().map(Shard::blocks).sum::<u64>(), blocks);
            let mut cursor = 0;
            for s in &shards {
                assert_eq!(s.start, cursor, "gap in plan at blocks={blocks}");
                cursor = s.end;
            }
            // The 1000x-slower device never takes a block from a grid
            // this small — its share folds into the fast devices.
            assert!(
                shards.iter().all(|s| s.device != 0),
                "slow device drafted on a {blocks}-block grid: {shards:?}"
            );
            // And the plan passes `LaunchSharded` validation end to end.
            let mut kb = KernelBuilder::new("tiny", blocks, 4);
            kb.st_shr(AddrExpr::lane(), Operand::Block);
            let mut pb = ProgramBuilder::new("tiny_plan");
            let _ = pb.device_alloc("a", 64);
            pb.begin_round();
            pb.launch_sharded(kb.build(), shards);
            pb.build().expect("weighted plan must validate as a partition");
        }
    }

    /// Regression for the transfer blind spot: identical devices behind a
    /// fast and a slow host link are **not** homogeneous — the old
    /// planner's `DeviceSpec`-equality check handed them an even split.
    /// The slow-link device must receive strictly fewer blocks.
    #[test]
    fn planned_shards_starves_slow_host_links() {
        let mut spec = cspec(2);
        spec.host_links[1] = atgpu_model::LinkParams {
            alpha_ms: spec.host_links[1].alpha_ms * 8.0,
            beta_ms_per_word: spec.host_links[1].beta_ms_per_word * 8.0,
        };
        let machine = AtgpuMachine::gtx650_like();
        let shards = planned_shards(256, &spec, &machine, &ShardProfile::streaming(32));
        assert_eq!(shards.iter().map(Shard::blocks).sum::<u64>(), 256);
        assert_ne!(shards, even_shards(256, 2), "slow link must not get an even share");
        let blocks_of =
            |d: u32| shards.iter().filter(|s| s.device == d).map(Shard::blocks).sum::<u64>();
        assert!(blocks_of(1) < blocks_of(0), "slow-link device over-assigned: {shards:?}");
        // And the plan still validates as a partition end to end.
        let mut kb = KernelBuilder::new("probe", 256, 4);
        kb.st_shr(AddrExpr::lane(), Operand::Block);
        let mut pb = ProgramBuilder::new("probe_plan");
        let _ = pb.device_alloc("a", 64);
        pb.begin_round();
        pb.launch_sharded(kb.build(), shards);
        pb.build().expect("cost-planned shards must partition the grid");
    }

    /// The largest-remainder boundary: `leftovers == n_devices − 1` is
    /// the most the invariant permits, and every leftover must land on a
    /// distinct device (the old `order[i % len]` wrap would have been
    /// exercised exactly one step past this).
    #[test]
    fn weighted_shards_leftover_boundary() {
        // 3 equal-weight devices, 5 blocks: quotas 5/3 each, floors sum
        // to 3, leftovers = 2 = n − 1.
        let spec = ClusterSpec::homogeneous(3, GpuSpec::gtx650_like());
        let shards = weighted_shards(5, &spec);
        let mut blocks: Vec<u64> = shards.iter().map(Shard::blocks).collect();
        blocks.sort_unstable();
        assert_eq!(blocks, vec![1, 2, 2], "{shards:?}");
        assert_eq!(shards.iter().map(Shard::blocks).sum::<u64>(), 5);
    }

    #[test]
    fn sharded_kernel_matches_single_device() {
        let n = 256u64;
        let k = scale_kernel(n / 4);
        let dev = Device::new(machine(), cspec(1).devices[0]).unwrap();
        let mut g1 = fresh_gmem(n);
        dev.run_kernel_with(&k, &mut g1, false, EngineSel::MicroOp).unwrap();

        for devices in [1u32, 2, 3, 4] {
            let cluster = Cluster::new(machine(), cspec(devices as usize)).unwrap();
            let mut g = fresh_gmem(n);
            let shards = even_shards(k.blocks(), devices);
            let stats =
                cluster.run_sharded_kernel(&k, &mut g, &shards, false, EngineSel::MicroOp).unwrap();
            assert_eq!(g.words(), g1.words(), "devices={devices}");
            let blocks: u64 = stats.iter().map(|s| s.stats.blocks).sum();
            assert_eq!(blocks, k.blocks());
        }
    }

    #[test]
    fn run_shard_rejects_unknown_device() {
        let k = scale_kernel(4);
        let cluster = Cluster::new(machine(), cspec(2)).unwrap();
        let mut g = fresh_gmem(16);
        let bad = vec![Shard { device: 5, start: 0, end: 4 }];
        assert!(matches!(
            cluster.run_sharded_kernel(&k, &mut g, &bad, false, EngineSel::MicroOp),
            Err(SimError::NoSuchDevice { device: 5, devices: 2 })
        ));
    }

    #[test]
    fn cluster_detects_cross_device_races() {
        // Every block writes word 0 — on different devices.
        let mut kb = KernelBuilder::new("racy", 4, 4);
        kb.st_shr(AddrExpr::lane(), Operand::Block);
        kb.shr_to_glb(atgpu_ir::DBuf(0), AddrExpr::c(0), AddrExpr::c(0));
        let k = kb.build();
        let cluster = Cluster::new(machine(), cspec(2)).unwrap();
        let mut g = fresh_gmem(16);
        let shards = even_shards(4, 2);
        assert!(matches!(
            cluster.run_sharded_kernel(&k, &mut g, &shards, true, EngineSel::MicroOp),
            Err(SimError::RaceDetected { addr: 0, .. })
        ));
        // Without detection the merge is deterministic: last block wins.
        let mut g = fresh_gmem(16);
        cluster.run_sharded_kernel(&k, &mut g, &shards, false, EngineSel::MicroOp).unwrap();
        assert_eq!(g.read(0), Some(3));
    }

    /// A 2-device vecadd program: each device gets its slice of A and B,
    /// runs its shard, and returns its slice of C.
    fn sharded_vecadd_program(n: u64, devices: u32) -> (Program, atgpu_ir::HBuf) {
        let b = 4u64;
        let blocks = n / b;
        let mut pb = ProgramBuilder::new("vecadd_sharded");
        let ha = pb.host_input("A", n);
        let hb = pb.host_input("B", n);
        let hc = pb.host_output("C", n);
        let da = pb.device_alloc("a", n);
        let db = pb.device_alloc("b", n);
        let dc = pb.device_alloc("c", n);
        let mut kb = KernelBuilder::new("vecadd_kernel", blocks, 3 * b);
        let bi = b as i64;
        let g = AddrExpr::block() * bi + AddrExpr::lane();
        kb.glb_to_shr(AddrExpr::lane(), da, g.clone());
        kb.glb_to_shr(AddrExpr::lane() + bi, db, g.clone());
        kb.ld_shr(0, AddrExpr::lane());
        kb.ld_shr(1, AddrExpr::lane() + bi);
        kb.alu(AluOp::Add, 2, Operand::Reg(0), Operand::Reg(1));
        kb.st_shr(AddrExpr::lane() + 2 * bi, Operand::Reg(2));
        kb.shr_to_glb(dc, g, AddrExpr::lane() + 2 * bi);
        let shards = even_shards(blocks, devices);
        pb.begin_round();
        for s in &shards {
            let (off, words) = (s.start * b, s.blocks() * b);
            pb.transfer_in_to(s.device, ha, off, da, off, words);
            pb.transfer_in_to(s.device, hb, off, db, off, words);
        }
        pb.launch_sharded(kb.build(), shards.clone());
        for s in &shards {
            let (off, words) = (s.start * b, s.blocks() * b);
            pb.transfer_out_from(s.device, dc, off, hc, off, words);
        }
        (pb.build().unwrap(), hc)
    }

    #[test]
    fn cluster_program_end_to_end() {
        let n = 64u64;
        let (p, hc) = sharded_vecadd_program(n, 2);
        let a: Vec<i64> = (0..n as i64).collect();
        let b: Vec<i64> = (0..n as i64).map(|x| 10 * x).collect();
        let report = run_cluster_program(
            &p,
            vec![a.clone(), b.clone()],
            &machine(),
            &cspec(2),
            &SimConfig::default(),
        )
        .unwrap();
        for i in 0..n as usize {
            assert_eq!(report.output(hc)[i], a[i] + b[i], "i={i}");
        }
        // Two devices moved data; the round total is max-based, so it is
        // strictly less than the sum of per-device paths.
        let r = &report.rounds[0];
        let sum: f64 = r.devices.iter().map(|d| d.path_ms()).sum();
        assert!(r.total_ms() < sum + r.sync_ms);
        let per_dev = report.transfer_ms_per_device();
        assert_eq!(per_dev.len(), 2);
        assert!(per_dev.iter().all(|&t| t > 0.0));
    }

    #[test]
    fn cluster_matches_single_device_outputs() {
        let n = 128u64;
        for devices in [1u32, 2, 4] {
            let (p, hc) = sharded_vecadd_program(n, devices);
            let a: Vec<i64> = (0..n as i64).collect();
            let b: Vec<i64> = (0..n as i64).rev().collect();
            let report = run_cluster_program(
                &p,
                vec![a.clone(), b.clone()],
                &machine(),
                &cspec(devices.max(1) as usize),
                &SimConfig::default(),
            )
            .unwrap();
            for (i, &v) in report.output(hc).iter().enumerate() {
                assert_eq!(v, n as i64 - 1, "devices={devices} i={i}");
            }
        }
    }

    #[test]
    fn peer_transfer_moves_data_and_charges_both_ends() {
        let mut pb = ProgramBuilder::new("peer");
        let h = pb.host_input("A", 8);
        let o = pb.host_output("B", 8);
        let d = pb.device_alloc("a", 8);
        pb.begin_round();
        pb.transfer_in_to(0, h, 0, d, 0, 8);
        pb.transfer_peer(0, 1, d, 0, 0, 8);
        pb.transfer_out_from(1, d, 0, o, 0, 8);
        let p = pb.build().unwrap();
        let report = run_cluster_program(
            &p,
            vec![(1..=8).collect()],
            &machine(),
            &cspec(2),
            &SimConfig::default(),
        )
        .unwrap();
        assert_eq!(report.output(o), &[1, 2, 3, 4, 5, 6, 7, 8]);
        let r = &report.rounds[0];
        assert!(r.devices[0].peer_ms > 0.0);
        assert_eq!(r.devices[0].peer_ms, r.devices[1].peer_ms);
        // Peer link defaults to 4x the host link: 8 words over the peer
        // link must be cheaper than the same 8 words over the host link.
        assert!(r.devices[0].peer_ms < r.devices[0].xfer_in_ms);
    }

    /// The cluster driver applies the same stream-id guard as the
    /// single-device driver: a forged sync step cannot reach the
    /// timeline clamp.
    #[test]
    fn cluster_rejects_out_of_range_stream() {
        let (mut p, _) = sharded_vecadd_program(64, 2);
        p.rounds[0]
            .steps
            .insert(0, HostStep::SyncStream { device: 0, stream: atgpu_ir::MAX_STREAMS });
        assert!(matches!(
            run_cluster_program(
                &p,
                vec![vec![0; 64], vec![0; 64]],
                &machine(),
                &cspec(2),
                &SimConfig::default()
            ),
            Err(SimError::StreamOutOfRange { stream, round: 0 })
                if stream == atgpu_ir::MAX_STREAMS
        ));
    }

    #[test]
    fn program_needing_more_devices_is_rejected() {
        let (p, _) = sharded_vecadd_program(64, 4);
        let r = run_cluster_program(
            &p,
            vec![vec![0; 64], vec![0; 64]],
            &machine(),
            &cspec(2),
            &SimConfig::default(),
        );
        assert!(matches!(r, Err(SimError::NoSuchDevice { .. })));
    }
}
