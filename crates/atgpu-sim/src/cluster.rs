//! The multi-device layer: `N` simulated GPUs, each with its own global
//! memory and links, running **sharded** kernel launches.
//!
//! ## Execution model
//!
//! Every device holds a *replica* of the program's device-buffer layout
//! (the single-device layout from [`atgpu_ir::ProgramBody::buffer_layout`],
//! instantiated once per device).  The host distributes data with
//! device-targeted `TransferIn` steps, devices exchange data over
//! directed peer links (`TransferPeer`), and a `LaunchSharded` step runs
//! disjoint block ranges of one grid on different devices.
//!
//! ## Determinism
//!
//! The model leaves cross-block visibility inside a launch undefined, and
//! a device's replica is private: only its own shards write it.  A
//! program run's launch has **one dispatch** (`run_launch`): every
//! device runs its own shards in plan order against its own replica, on
//! the caller's thread or — with [`SimConfig::device_threads`] — whole
//! devices dealt to at most [`host_parallelism`] scoped workers, so one
//! device never runs two shards of a launch at once.  It keeps a write
//! log **only where something reads it**:
//!
//! * nothing reads a log (the default): every shard runs through the one
//!   launch body **written through** to its device's replica — the same
//!   launch, word for word, that a lone device runs, which is why
//!   [`crate::run_program`] *is* the one-device cluster;
//! * the fault journal (a fault plan on more than one device — the only
//!   case with takeover shards) reads one: each shard executes against
//!   its device's pre-launch memory and logs its global writes; the log
//!   is journaled and merged **in thread-block order** by
//!   [`crate::device::apply_write_log`].
//!
//! Block indices are globally unique across shards, and statistics are
//! booked (and a failure reported) in plan order, so either way the
//! result is bit-identical to a single-device launch of the same grid —
//! regardless of the device count, the shard boundaries, or how the
//! devices were dealt to threads.  `tests/roster_plans.rs` pins the two
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
use crate::links::{run_rounds, Ledger, Links};
use crate::warp::{GmemAccess, WriteRec};
use crate::xfer::TransferEngine;
use crate::{EngineSel, SimConfig};
use atgpu_ir::{Kernel, Program, Shard};
use atgpu_model::{plan, AtgpuMachine, ClusterSpec, ShardProfile};
use std::ops::Range;
use std::thread::Builder;

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
        round_ms(self.sync_ms, &self.devices)
    }
}

/// A round's wall-clock time, `σ + max_d path_d` — what
/// [`ClusterRoundObservation::total_ms`] reports and the trace's round
/// starts add up.
pub(crate) fn round_ms(sync_ms: f64, devices: &[DeviceRoundObservation]) -> f64 {
    sync_ms + devices.iter().map(|d| d.stream_ms).fold(0.0, f64::max)
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
    /// The run's timeline record when [`SimConfig::trace`] was on
    /// (`None` otherwise); export with [`crate::trace::chrome_trace_json`].
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

/// Host CPUs available for a launch's workers, probed once: a threaded
/// launch never starts more workers than this, and [`crate::SimConfig`]'s
/// default enables [`SimConfig::device_threads`] only when it exceeds 1.
pub fn host_parallelism() -> usize {
    static P: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *P.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Decorrelates the jitter streams of distinct links deterministically.
fn link_seed(seed: u64, idx: usize) -> u64 {
    seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul((idx as u64).wrapping_add(1))
}

/// The devices each worker of a threaded launch holds: the devices
/// holding `shards` dealt contiguously, by index, to at most
/// `min(devices holding shards, cores)` workers — whole devices, so one
/// device's shards always run on one worker.  Each range also covers the
/// idle devices up to the next worker's first; together they tile
/// `0..devices`.
fn deal(devices: usize, shards: &[Shard], cores: usize) -> Vec<Range<usize>> {
    let mut holders: Vec<usize> = shards.iter().map(|s| s.device as usize).collect();
    holders.sort_unstable();
    holders.dedup();
    let per = holders.len().div_ceil(cores.max(1)).max(1);
    let mut bounds = vec![0];
    bounds.extend(holders.iter().skip(per).step_by(per));
    bounds.push(devices);
    bounds.windows(2).map(|w| w[0]..w[1]).collect()
}

/// Runs each job on its own scoped OS thread and returns the results in
/// job order — the one place the simulator starts threads; callers hand
/// it at most [`host_parallelism`] jobs.  A job that panics, or a thread
/// the OS refuses to start, is a [`SimError::WorkerPanic`] naming
/// `what`: neither reaches the caller as a panic.
fn on_threads<T: Send>(
    jobs: impl IntoIterator<Item = impl FnOnce() -> T + Send>,
    what: std::fmt::Arguments<'_>,
) -> Result<Vec<T>, SimError> {
    std::thread::scope(|s| {
        // Every started thread is joined, so none is left to panic the
        // scope.
        let started: Vec<_> =
            jobs.into_iter().map(|job| Builder::new().spawn_scoped(s, job)).collect();
        started.into_iter().map(|h| h.ok().and_then(|h| h.join().ok())).collect::<Option<_>>()
    })
    .ok_or_else(|| SimError::WorkerPanic { context: what.to_string() })
}

/// Runs one (possibly sharded) launch of a program run — the one launch
/// dispatch.
///
/// * A dead device's shards are re-apportioned over the survivors by the
///   model's takeover rule ([`plan::takeover_units`]); block indices stay
///   globally unique, so the result stays bit-identical to the
///   fault-free plan.
/// * The write target is chosen by asking what will read a write log,
///   never by which entry point was called.  Only the fault journal does
///   ([`Ledger::journals`], which is also the only case with takeover
///   shards).  Without it every shard writes straight through to its
///   device's replica — no snapshot, no [`WriteRec`], no merge, and
///   nothing allocated that a lone device's launch would not allocate.
///   With it every shard reads its device's pre-launch replica and logs;
///   each surviving device then journals its own writes plus every
///   takeover shard's, and merges them in block order
///   ([`apply_write_log`]), so redirected outputs and later recoveries
///   can be served from any survivor.
/// * Each device runs its own shards in plan order.  With
///   [`SimConfig::device_threads`] set, whole devices are dealt
///   contiguously to at most `min(devices holding shards,
///   host_parallelism())` scoped workers ([`deal`]); otherwise the plan
///   runs in order on the caller's thread.
/// * Statistics are booked in plan order, and the error returned is the
///   first failing shard's in plan order — so the outcome is
///   bit-identical however the devices were dealt.
fn run_launch(
    cluster: &Cluster,
    config: &SimConfig,
    kernel: &Kernel,
    shards: &[Shard],
    gmems: &mut [GlobalMemory],
    ledger: &mut Ledger,
) -> Result<(), SimError> {
    let replanned;
    let (shards, takeover): (&[Shard], &[bool]) = match ledger.liveness() {
        Some(alive) if shards.iter().any(|s| !alive[s.device as usize]) => {
            replanned = take_over(cluster, alive, shards);
            (&replanned.0, &replanned.1)
        }
        _ => (shards, &[]),
    };
    let logged = ledger.journals();
    // One worker's share: in plan order, every shard on a device of
    // `first..first + mems.len()`, against that device's replica, until
    // the first failure.
    let share = |first: usize, mems: &mut [GlobalMemory], done: &mut dyn FnMut(usize, Run)| {
        for (i, s) in shards.iter().enumerate() {
            let Some(d) = (s.device as usize).checked_sub(first).filter(|&d| d < mems.len()) else {
                continue;
            };
            let mut log = Vec::new();
            let target = if logged {
                GmemAccess::Logged { base: &mems[d], log: &mut log }
            } else {
                GmemAccess::Direct(&mut mems[d])
            };
            let device = &cluster.devices[s.device as usize];
            let range = (s.start, s.end);
            let run =
                device.launch(kernel, target, EngineSel::MicroOp, range, config.watchdog_cycles);
            let failed = run.is_err();
            done(i, run.map(|stats| (stats, log)));
            if failed {
                break;
            }
        }
    };
    // Books each shard in plan order up to the first failure, which it
    // keeps; a takeover shard's log goes to every survivor.
    let (mut failure, mut takeover_log) = (None, Vec::new());
    let mut logs = vec![Vec::new(); if logged { gmems.len() } else { 0 }];
    let mut book = |i: usize, run: Run| match run {
        Ok((stats, mut log)) if failure.is_none() => {
            let d = shards[i].device as usize;
            ledger.kernel_done(d, shards[i].blocks(), &stats);
            if logged {
                let taken = takeover.get(i) == Some(&true);
                let to = if taken { &mut takeover_log } else { &mut logs[d] };
                to.append(&mut log);
            }
        }
        Ok(_) => {}
        Err(e) => {
            failure.get_or_insert(e);
        }
    };
    let threaded = config.device_threads && shards.len() > 1;
    let workers = if threaded { deal(gmems.len(), shards, host_parallelism()) } else { vec![] };
    if workers.len() <= 1 {
        share(0, gmems, &mut book);
    } else {
        let mut rest = &mut *gmems;
        let jobs = workers.into_iter().map(|devs| {
            let (mems, others) = std::mem::take(&mut rest).split_at_mut(devs.len());
            rest = others;
            let share = &share;
            move || {
                let mut runs = Vec::new();
                share(devs.start, mems, &mut |i, run| runs.push((i, run)));
                runs
            }
        });
        let what = format_args!("simulating shards of kernel `{}`", kernel.name);
        let mut runs: Vec<_> = on_threads(jobs, what)?.into_iter().flatten().collect();
        runs.sort_unstable_by_key(|&(i, _)| i);
        runs.into_iter().for_each(|(i, run)| book(i, run));
    }
    if let Some(e) = failure {
        return Err(e);
    }
    for (d, mut log) in logs.into_iter().enumerate() {
        if ledger.alive(d) {
            log.extend_from_slice(&takeover_log);
            if !log.is_empty() {
                ledger.journal_writes(d, &log);
                apply_write_log(kernel, &mut gmems[d], log, false)?;
            }
        }
    }
    Ok(())
}

/// A shard's run: its statistics and, when logged, its write log.
type Run = Result<(KernelStats, Vec<WriteRec>), SimError>;

/// `shards` with each dead device's shard replaced, in place, by the
/// survivors' takeover shards of its blocks, and the takeover marks.
fn take_over(cluster: &Cluster, alive: &[bool], shards: &[Shard]) -> (Vec<Shard>, Vec<bool>) {
    let mut live = Vec::with_capacity(shards.len());
    for sh in shards {
        if alive[sh.device as usize] {
            live.push((*sh, false));
            continue;
        }
        let take = plan::takeover_units(&cluster.spec, &cluster.machine, alive, sh.blocks());
        live.extend(counts_to_shards(&take).into_iter().map(|rs| {
            (Shard { device: rs.device, start: sh.start + rs.start, end: sh.start + rs.end }, true)
        }));
    }
    live.into_iter().unzip()
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

/// Simulates `program` against an **existing, possibly shared** cluster:
/// the one run body, behind every program run ([`crate::run_program`] is
/// this on a one-device cluster).
///
/// This is the serving-layer entry point: a long-lived [`Cluster`] keeps
/// its per-device kernel caches warm across calls, and because every
/// other piece of run state (memory replicas, host buffers, transfer
/// engines, fault state, tracer) is allocated here per call, concurrent
/// invocations from different threads produce reports bit-identical to
/// running each program alone — the guarantee the serve differential
/// suite pins.  Every [`SimConfig`] field is honoured, and only for
/// this call.
///
/// Before anything is allocated it is the program's door:
/// [`Program::check`] (a program the validator refuses is
/// [`SimError::Invalid`]), then the one rule that depends on the
/// cluster, that every step addresses one of its devices.  Each link's
/// jitter stream is seeded from [`SimConfig::seed`] and the link's index
/// (host links `0..n`, then peer links `n + src·n + dst`) by one rule.
pub fn run_cluster_program_on(
    cluster: &Cluster,
    program: &Program,
    inputs: Vec<Vec<i64>>,
    config: &SimConfig,
) -> Result<ClusterSimReport, SimError> {
    program.check()?;
    let n = cluster.n_devices();
    let max_device = program.max_device();
    if max_device as usize >= n {
        return Err(SimError::NoSuchDevice { device: max_device, devices: n });
    }
    if let Some(noise) = &config.noise {
        noise.check()?;
    }
    config.fault.check()?;
    let machine = &cluster.machine;
    let spec = &cluster.spec;

    let (bases, total_words) = program.buffer_layout(machine.b);
    let mut gmems = (0..n)
        .map(|_| GlobalMemory::new(bases.clone(), total_words, machine.b, machine.g))
        .collect::<Result<Vec<_>, _>>()?;
    let mut host = HostData::with_spares(program, inputs, machine.g)?;

    let link = |l, idx| TransferEngine::with_link(l, config.noise, link_seed(config.seed, idx));
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
            run_launch(cluster, config, k, shards, gm, ledger)
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
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use crate::SpanKind;
    use atgpu_ir::{AddrExpr, AluOp, KernelBuilder, Operand, ProgramBuilder};
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
    fn on_threads_keeps_job_order_and_types_its_failures() {
        let jobs = (0..3).map(|i| move || i * 10);
        assert_eq!(on_threads(jobs, format_args!("t")).unwrap(), vec![0, 10, 20]);
        // A panicking job is a typed error naming the work, and the
        // other jobs are still joined.
        let jobs = (0..3).map(|i| move || if i == 1 { panic!("boom") } else { i });
        let err = on_threads(jobs, format_args!("probing"));
        assert!(matches!(err, Err(SimError::WorkerPanic { ref context }) if context == "probing"));
    }

    /// The worker-count rule, as the pure function it is: whole devices,
    /// dealt contiguously, never more workers than cores or than devices
    /// holding shards.
    #[test]
    fn a_launch_deals_whole_devices_to_at_most_one_worker_per_core() {
        let on = |devices: &[u32]| -> Vec<Shard> {
            devices.iter().map(|&device| Shard { device, start: 0, end: 1 }).collect()
        };
        let thousand: Vec<u32> = (0..1000).collect();
        assert_eq!(deal(1000, &on(&thousand), 2), vec![0..500, 500..1000]);
        assert_eq!(deal(1000, &on(&thousand), 1), vec![0..1000]);
        // Idle devices go with the worker before them; a device named
        // twice is one device.
        assert_eq!(deal(7, &on(&[0, 3, 5, 0]), 2), vec![0..5, 5..7]);
        assert_eq!(deal(7, &on(&[5, 0, 3]), 8), vec![0..3, 3..5, 5..7]);
        assert_eq!(deal(3, &on(&[1, 1]), 4), vec![0..3]);
        assert_eq!(deal(3, &[], 4), vec![0..3]);
        for n in 1..12u32 {
            for cores in 1..6 {
                let held: Vec<u32> = (0..n).filter(|d| d % 3 != 1).collect();
                let ranges = deal(n as usize, &on(&held), cores);
                let label = format!("n={n} cores={cores}: {ranges:?}");
                assert_eq!(ranges.first().map(|r| r.start), Some(0), "{label}");
                assert_eq!(ranges.last().map(|r| r.end), Some(n as usize), "{label}");
                assert!(ranges.windows(2).all(|w| w[0].end == w[1].start), "{label}");
                assert!(ranges.len() <= held.len().min(cores).max(1), "{label}");
                let holds = |r: &Range<usize>| held.iter().any(|&d| r.contains(&(d as usize)));
                assert!(held.is_empty() || ranges.iter().all(holds), "{label}");
            }
        }
    }

    /// A vecadd of `n` words on `b = 4`-lane blocks whose launch runs
    /// over `shards`: each shard's device receives its slices of A and
    /// B and returns its slice of C.
    fn vecadd_over(n: u64, shards: Vec<Shard>) -> (Program, atgpu_ir::HBuf) {
        let b = 4u64;
        let mut pb = ProgramBuilder::new("vecadd_sharded");
        let ha = pb.host_input("A", n);
        let hb = pb.host_input("B", n);
        let hc = pb.host_output("C", n);
        let da = pb.device_alloc("a", n);
        let db = pb.device_alloc("b", n);
        let dc = pb.device_alloc("c", n);
        let mut kb = KernelBuilder::new("vecadd_kernel", n / b, 3 * b);
        let bi = b as i64;
        let g = AddrExpr::block() * bi + AddrExpr::lane();
        kb.glb_to_shr(AddrExpr::lane(), da, g.clone());
        kb.glb_to_shr(AddrExpr::lane() + bi, db, g.clone());
        kb.ld_shr(0, AddrExpr::lane());
        kb.ld_shr(1, AddrExpr::lane() + bi);
        kb.alu(AluOp::Add, 2, Operand::Reg(0), Operand::Reg(1));
        kb.st_shr(AddrExpr::lane() + 2 * bi, Operand::Reg(2));
        kb.shr_to_glb(dc, g, AddrExpr::lane() + 2 * bi);
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

    fn sharded_vecadd_program(n: u64, devices: u32) -> (Program, atgpu_ir::HBuf) {
        vecadd_over(n, even_shards(n / 4, devices))
    }

    /// A hand-written plan naming one device twice runs through the one
    /// dispatch: threaded, inline and logged (a journaling straggler plan
    /// whose one event changes no number) give the same report.
    #[test]
    fn a_plan_naming_a_device_twice_is_the_same_run_threaded_inline_and_logged() {
        let n = 96u64;
        let shards = vec![
            Shard { device: 0, start: 0, end: 8 },
            Shard { device: 1, start: 8, end: 16 },
            Shard { device: 0, start: 16, end: 24 },
        ];
        let (p, hc) = vecadd_over(n, shards);
        let a: Vec<i64> = (0..n as i64).collect();
        let b: Vec<i64> = (0..n as i64).map(|x| 7 * x).collect();
        let mut straggler = crate::FaultPlan::new(0);
        straggler.push(crate::FaultEvent::Straggler { device: 0, clock_factor: 1.0 });
        let run = |device_threads, fault| {
            let config = SimConfig { device_threads, fault, trace: true, ..SimConfig::default() };
            let inputs = vec![a.clone(), b.clone()];
            run_cluster_program(&p, inputs, &machine(), &cspec(3), &config).unwrap()
        };
        let threaded = run(true, crate::FaultPlan::default());
        for other in [run(false, crate::FaultPlan::default()), run(true, straggler.clone())] {
            assert_eq!(threaded.rounds, other.rounds);
            assert_eq!(threaded.device_stats, other.device_stats);
            assert_eq!(threaded.trace, other.trace);
            assert_eq!(threaded.output(hc), other.output(hc));
        }
        let logged_inline = run(false, straggler);
        assert_eq!(threaded.trace, logged_inline.trace);
        for (i, &c) in threaded.output(hc).iter().enumerate() {
            assert_eq!(c, 8 * i as i64, "i={i}");
        }
        // Device 0 ran two shards, back to back on its compute lane.
        let kernels = |d: u32| {
            let trace = threaded.trace.as_ref().unwrap();
            trace.spans.iter().filter(|s| s.kind == SpanKind::Kernel && s.device == d).count()
        };
        assert_eq!((kernels(0), kernels(1), kernels(2)), (2, 1, 0));
    }

    /// Two devices' shards both fail: threaded and inline return the
    /// same error, the first failing shard's in plan order — device 1's,
    /// though the shard after it is device 0's, which a worker-order rule
    /// would report.  Inline, the run stops there.
    #[test]
    fn the_first_failing_shard_in_plan_order_is_the_error() {
        // Blocks 2.. read past the 8-word heap: block 2 at word 8 (device
        // 1's shard), block 4 at word 16 (device 0's second shard).
        let mut kb = KernelBuilder::new("overrun", 6, 4);
        kb.glb_to_shr(
            AddrExpr::lane(),
            atgpu_ir::DBuf(0),
            AddrExpr::block() * 4 + AddrExpr::lane(),
        );
        let mut pb = ProgramBuilder::new("overrun");
        let _ = pb.device_alloc("a", 8);
        pb.begin_round();
        let shards = vec![
            Shard { device: 0, start: 0, end: 2 },
            Shard { device: 1, start: 2, end: 4 },
            Shard { device: 0, start: 4, end: 6 },
        ];
        pb.launch_sharded(kb.build(), shards);
        let p = pb.build().unwrap();
        for device_threads in [true, false] {
            let cluster = Cluster::new(machine(), cspec(2)).unwrap();
            let config = SimConfig { device_threads, ..SimConfig::default() };
            let err = run_cluster_program_on(&cluster, &p, vec![], &config).unwrap_err();
            assert!(
                matches!(err, SimError::GlobalOutOfBounds { addr: 8, .. }),
                "device_threads {device_threads}: {err:?}"
            );
            if !device_threads {
                let device0 = cluster.device(0).unwrap().stats().cache;
                assert_eq!((device0.misses, device0.hits), (1, 0), "inline stops at the failure");
            }
        }
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
        let sum: f64 = r.devices.iter().map(|d| d.stream_ms).sum();
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

    /// A forged sync step naming a stream past `MAX_STREAMS` is refused
    /// with the validator's own error before any device runs: it cannot
    /// reach the timeline clamp.
    #[test]
    fn cluster_rejects_out_of_range_stream() {
        let (mut p, _) = sharded_vecadd_program(64, 2);
        p.edit().rounds[0]
            .steps
            .insert(0, atgpu_ir::HostStep::SyncStream { device: 0, stream: atgpu_ir::MAX_STREAMS });
        let error = p.check().unwrap_err();
        assert_eq!(
            error.to_string(),
            format!(
                "round 0: stream {} out of range (max {})",
                atgpu_ir::MAX_STREAMS,
                atgpu_ir::MAX_STREAMS - 1
            )
        );
        assert_eq!(
            run_cluster_program(
                &p,
                vec![vec![0; 64], vec![0; 64]],
                &machine(),
                &cspec(2),
                &SimConfig::default()
            )
            .unwrap_err(),
            SimError::Invalid { error }
        );
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
