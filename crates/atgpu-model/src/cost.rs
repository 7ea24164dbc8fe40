//! The ATGPU cost functions — Expressions (1) and (2) of the paper — and
//! the SWGPU baseline cost used in the paper's evaluation.
//!
//! * **Perfect-GPU cost** (Expression 1): every thread block gets its own
//!   MP, so a round costs
//!   `T_I(i) + (tᵢ + λ·qᵢ)/γ + T_O(i) + σ`.
//! * **GPU-cost** (Expression 2): a real GPU has only `k′` MPs, each
//!   holding `ℓ = min(⌊M/m⌋, H)` blocks, so the compute term is stretched
//!   by the wave factor `⌈k/(k′ℓ)⌉`:
//!   `T_I(i) + (⌈k/(k′ℓ)⌉·tᵢ + λ·qᵢ)/γ + T_O(i) + σ`.
//! * **Transfer cost** (Boyer et al.): `T_I(i) = Îᵢ·α + Iᵢ·β`, and
//!   symmetrically for `T_O`.
//! * **SWGPU baseline**: the paper's evaluation "use\[s\] the GPU cost
//!   function of our model minus the data transfer as the SWGPU cost" —
//!   i.e. the same expression without the `T_I`/`T_O` terms.
//!
//! Each term is stated once.  The kernel term `(waves·t + λ·q)/γ` is one
//! private function: [`gpu_kernel_term`] feeds it Expression (2)'s
//! `⌈k/(k′ℓ)⌉` waves over the device capacity
//! [`crate::occupancy::device_capacity`], and a degraded survivor its
//! fractional takeover waves.  The transfer term `txns·α + words·β` is
//! [`LinkParams::cost_ms`].  Every total — the four models, serial,
//! streamed, multi-device, degraded — is priced by one core,
//! `price_rounds`, the only per-round loop here, on a [`ClusterSpec`]:
//! Expression (2) with a `max` over devices.  Three doors open it:
//!
//! * [`evaluate`] — the paper's four-model table for one device, read off
//!   one walk of the core on the one-device cluster of its [`GpuSpec`]
//!   (`γ`, `λ`, `σ` read through [`GpuSpec::derived_cost_params`], `α`/`β`
//!   its [`GpuSpec::host_link`]); Expression (1) is the same walk with one
//!   MP per block;
//! * [`cluster_cost_streamed`] — the core with per-device stream
//!   schedules (`&[]` for all-serial devices; one device with no peers
//!   is the single-GPU cost);
//! * [`cluster_cost_degraded`] — the core under a mid-program device
//!   loss.
//!
//! The planner's objectives (`plan::plan_cost`, `plan::pipeline_cost`)
//! are `cluster_cost_streamed` over synthesised tables.

// On `CostServer::price`'s analytic path: a bad table is a typed error.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::error::ModelError;
use crate::machine::AtgpuMachine;
use crate::metrics::{AlgoMetrics, RoundMetrics};
use crate::occupancy::{device_capacity, wave_factor};
use crate::params::{ClusterSpec, GpuSpec, LinkParams};
use crate::streams::{RoundSchedule, StreamItem, StreamResource, StreamTimeline};

/// Which cost function to evaluate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CostModel {
    /// Expression (1): Expression (2) with one MP per block (`k′ = max kᵢ`),
    /// so every wave factor is 1.
    PerfectGpu,
    /// Expression (2): `k′` MPs with occupancy-limited residency.
    GpuCost,
    /// The SWGPU baseline: [`CostModel::GpuCost`] minus the transfer terms.
    Swgpu,
    /// Kernel-only cost: the compute term alone (no transfer, no `σ`) —
    /// the analytical analogue of the paper's observed "Kernel" series.
    KernelOnly,
}

/// A cost broken into the paper's four per-round components, summed over
/// rounds.  `total()` reproduces the cost function; keeping the parts
/// separate is what lets the experiments compute the predicted transfer
/// proportion `ΔT` of Figure 6.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CostBreakdown {
    /// `Σᵢ T_I(i)` — inward transfer cost.
    pub transfer_in: f64,
    /// `Σᵢ (waveᵢ·tᵢ + λ·qᵢ)/γ` — kernel compute + I/O cost.
    pub kernel: f64,
    /// `Σᵢ T_O(i)` — outward transfer cost.
    pub transfer_out: f64,
    /// `R·σ` — synchronisation cost.
    pub sync: f64,
}

impl CostBreakdown {
    /// The full cost `Σᵢ (T_I(i) + kernelᵢ + T_O(i) + σ)`.
    #[inline]
    pub fn total(&self) -> f64 {
        self.transfer_in + self.kernel + self.transfer_out + self.sync
    }

    /// Total transfer cost `Σᵢ (T_I(i) + T_O(i))`.
    #[inline]
    pub fn transfer(&self) -> f64 {
        self.transfer_in + self.transfer_out
    }

    /// Predicted proportion of cost spent on data transfer — the `ΔT`
    /// series of the paper's Figure 6.  Zero-cost algorithms yield 0.
    pub fn transfer_proportion(&self) -> f64 {
        let t = self.total();
        if t <= 0.0 {
            0.0
        } else {
            self.transfer() / t
        }
    }
}

/// The kernel term of the paper's cost functions, `(waves·t + λ·q)/γ` on
/// `spec` — the one place a kernel is priced.  Expression (2) passes
/// `⌈k/(k′ℓ)⌉` waves ([`gpu_kernel_term`]) and a degraded survivor its
/// fractional takeover waves.
fn kernel_ms(spec: &GpuSpec, waves: f64, time: u64, io_blocks: f64) -> f64 {
    let p = spec.derived_cost_params();
    // An empty launch still runs its (empty) kernel once.
    let waves = if time > 0 { waves.max(1.0) } else { waves };
    (waves * time as f64 + p.lambda * io_blocks) / p.gamma
}

/// The GPU-cost kernel term of one round, `(waveᵢ·tᵢ + λ·qᵢ)/γ` —
/// Expression (2)'s compute component, read by every cost function (all
/// four models of [`evaluate`] included) and by trace consumers predicting
/// a kernel span's duration.  Fails when the round's blocks do not fit
/// the device's shared memory (`ℓ = 0`).
pub fn gpu_kernel_term(
    machine: &AtgpuMachine,
    spec: &GpuSpec,
    round: &RoundMetrics,
) -> Result<f64, ModelError> {
    let wave = wave_factor(machine, spec, round.blocks_launched, round.shared_words).ok_or(
        ModelError::SharedMemoryExceeded { required: round.shared_words, available: machine.m },
    )?;
    Ok(kernel_ms(spec, wave as f64, round.time, round.io_blocks as f64))
}

/// Schedules one round through a [`StreamTimeline`]: transfers priced on
/// `link`, the kernel term on the compute resource, syncs raising the
/// floor.  Component sums are folded into `breakdown`; the return value is
/// the round's stream-aware duration (without `σ`).  An empty schedule
/// falls back to the round's aggregate metrics, all on stream 0 — exactly
/// the serial `T_I + kernel + T_O`.
fn schedule_round(
    link: &LinkParams,
    round: &RoundMetrics,
    kernel_ms: f64,
    schedule: Option<&RoundSchedule>,
    peer_ms: f64,
    breakdown: &mut CostBreakdown,
) -> f64 {
    let mut tl = StreamTimeline::new();
    match schedule {
        Some(s) if !s.items.is_empty() => {
            let mut kernel_seen = false;
            for item in &s.items {
                match item {
                    StreamItem::TransferIn { stream, txns, words } => {
                        let d = link.cost_ms(*txns, *words);
                        tl.advance_spanned(*stream, StreamResource::HostToDevice, d);
                        breakdown.transfer_in += d;
                    }
                    StreamItem::TransferOut { stream, txns, words } => {
                        let d = link.cost_ms(*txns, *words);
                        tl.advance_spanned(*stream, StreamResource::DeviceToHost, d);
                        breakdown.transfer_out += d;
                    }
                    StreamItem::Kernel => {
                        kernel_seen = true;
                        tl.advance_spanned(0, StreamResource::Compute, kernel_ms);
                    }
                    StreamItem::SyncStream { stream } => tl.sync_stream(*stream),
                    StreamItem::SyncDevice => tl.sync_device(),
                }
            }
            if !kernel_seen && kernel_ms > 0.0 {
                tl.advance_spanned(0, StreamResource::Compute, kernel_ms);
            }
        }
        _ => {
            let t_in = link.cost_ms(round.inward_txns, round.inward_words);
            let t_out = link.cost_ms(round.outward_txns, round.outward_words);
            tl.advance_spanned(0, StreamResource::HostToDevice, t_in);
            tl.advance_spanned(0, StreamResource::Compute, kernel_ms);
            tl.advance_spanned(0, StreamResource::DeviceToHost, t_out);
            breakdown.transfer_in += t_in;
            breakdown.transfer_out += t_out;
        }
    }
    if peer_ms > 0.0 {
        tl.advance_spanned(0, StreamResource::Peer, peer_ms);
    }
    breakdown.kernel += kernel_ms;
    tl.finish()
}

/// Rejects schedules addressing streams beyond the model's bound (the
/// IR validator enforces the same limit on programs; hand-built
/// schedules get a proper error instead of the timeline's defensive
/// clamp).
fn check_schedule_streams(s: &RoundSchedule) -> Result<(), ModelError> {
    for item in &s.items {
        let stream = match item {
            StreamItem::TransferIn { stream, .. }
            | StreamItem::TransferOut { stream, .. }
            | StreamItem::SyncStream { stream } => *stream,
            StreamItem::Kernel | StreamItem::SyncDevice => continue,
        };
        if stream >= crate::streams::MAX_STREAMS {
            return Err(ModelError::InvalidParams {
                reason: format!(
                    "schedule addresses stream {stream}, limit {}",
                    crate::streams::MAX_STREAMS
                ),
            });
        }
    }
    Ok(())
}

/// Evaluates `model` for `metrics` on `machine` with GPU `spec`: `γ`,
/// `λ` and `σ` read through [`GpuSpec::derived_cost_params`], the
/// transfer terms priced on [`GpuSpec::host_link`].
///
/// Fails if `spec` is invalid or the metrics do not fit the machine
/// (global/shared limits — the paper's "cannot be run" rule).
///
/// The four models are one priced walk, read four ways: the cost core on
/// the one-device cluster of `spec` gives Expression (2)'s breakdown,
/// which is the GPU-cost; SWGPU is its kernel term plus `σ`; kernel-only
/// is its kernel term.  Expression (1) is the same walk on `spec` with one
/// MP per block — `k′ = max kᵢ`, so every wave factor is 1.
pub fn evaluate(
    model: CostModel,
    machine: &AtgpuMachine,
    spec: &GpuSpec,
    metrics: &AlgoMetrics,
) -> Result<CostBreakdown, ModelError> {
    // The caller's spec, as given: the perfect GPU's `k′` replaces a
    // refused one (`k′ = 0`) with a valid one.
    spec.validate()?;
    let priced = match model {
        CostModel::PerfectGpu => {
            let k = metrics.rounds.iter().map(|r| r.blocks_launched).max().unwrap_or(0);
            GpuSpec { k_prime: k.max(1), ..*spec }
        }
        CostModel::GpuCost | CostModel::Swgpu | CostModel::KernelOnly => *spec,
    };
    let cluster = ClusterSpec::homogeneous(1, priced);
    let c = price_rounds(&cluster, machine, std::slice::from_ref(metrics), &[], &[], None)?;
    let (b, sync) = (c.per_device[0], c.sync_ms);
    Ok(match model {
        CostModel::PerfectGpu | CostModel::GpuCost => CostBreakdown { sync, ..b },
        CostModel::Swgpu => CostBreakdown { kernel: b.kernel, sync, ..CostBreakdown::default() },
        CostModel::KernelOnly => CostBreakdown { kernel: b.kernel, ..CostBreakdown::default() },
    })
}

/// Words and transactions one device exchanges over peer links during one
/// round.  Directed: `src → dst`; the cost is charged to **both**
/// endpoints' critical paths (source reads, destination writes — neither
/// can proceed while the copy is in flight).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeerTraffic {
    /// Source device index.
    pub src: u32,
    /// Destination device index.
    pub dst: u32,
    /// Words moved.
    pub words: u64,
    /// Transfer transactions.
    pub txns: u64,
}

/// The cluster cost decomposition: per-device breakdowns (each summed
/// over rounds) plus the max-based total.
///
/// Unlike the single-device [`CostBreakdown`], the cluster total is *not*
/// the sum of the per-device totals: devices work concurrently, so a
/// round costs `σ + max_d(T_I(d) + kernel(d) + T_peer(d) + T_O(d))`.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterCostBreakdown {
    /// Per-device cost components, summed over rounds (`sync` left at
    /// zero — synchronisation is a cluster-wide term).
    pub per_device: Vec<CostBreakdown>,
    /// Per-device peer-transfer cost, summed over rounds.
    pub peer: Vec<f64>,
    /// The predicted total: `Σᵢ (σ + max_d pathᵢ(d))`.
    pub total_ms: f64,
    /// `Σᵢ σ` — the cluster-wide synchronisation share of the total.
    pub sync_ms: f64,
}

/// A device-loss scenario for [`cluster_cost_degraded`]: device `device`
/// dies at the start of round `at_round`, the survivors absorb its shards
/// in proportions `takeover`, and round `at_round` additionally pays a
/// checkpoint replay of `replay_words` words in `replay_txns` transactions
/// on the heir's host link (once — not per survivor).
#[derive(Debug, Clone, PartialEq)]
pub struct DegradedLoss {
    /// The index of the device that dies.
    pub device: usize,
    /// The round at whose start it dies (rounds before run at full
    /// strength; `at_round ≥ rounds` degrades nothing).
    pub at_round: usize,
    /// Words of the dead device's checkpoint journal replayed (and
    /// billed on the heir's link) at `at_round`.
    pub replay_words: u64,
    /// Transactions that replay is billed as (normally 1).
    pub replay_txns: u64,
    /// Fraction of the dead device's per-round work each survivor takes
    /// over.  Must have one entry per device, be zero at `device`, be
    /// finite and non-negative, and sum to 1.
    pub takeover: Vec<f64>,
}

impl DegradedLoss {
    /// Checks the scenario against an `n`-device system and names the
    /// **heir**: the lowest surviving index, which serves the dead
    /// device's outputs and orphaned peer sources.
    fn heir(&self, n: usize) -> Result<usize, ModelError> {
        let invalid = |reason: String| Err(ModelError::InvalidParams { reason });
        if self.device >= n {
            return invalid(format!("lost device {} outside {n}-device cluster", self.device));
        }
        let Some(heir) = (0..n).find(|&d| d != self.device) else {
            return invalid("a 1-device cluster has no survivors to degrade onto".into());
        };
        if self.takeover.len() != n {
            return invalid(format!(
                "{} takeover fractions for a {n}-device cluster",
                self.takeover.len()
            ));
        }
        // Written so that NaN fails: every comparison with NaN is false.
        if self.takeover.iter().any(|f| !f.is_finite() || *f < 0.0)
            || self.takeover[self.device].abs() > 1e-9
        {
            return invalid(
                "takeover fractions must be finite, non-negative and zero at the dead device"
                    .into(),
            );
        }
        let f_sum: f64 = self.takeover.iter().sum();
        if (f_sum - 1.0).abs() > 1e-6 {
            return invalid(format!("takeover fractions sum to {f_sum}, expected 1"));
        }
        Ok(heir)
    }
}

/// The **one round-pricing core** — Expression (2) for the `n ≥ 1`
/// devices of `cluster`:
///
/// ```text
/// T = Σᵢ ( σ + max_d [ T_I(i,d) + (waveᵢ_d·tᵢ_d + λ_d·qᵢ_d)/γ_d
///                      + T_peer(i,d) + T_O(i,d) ] )
/// ```
///
/// Device `d` is priced with its host link's `α`/`β` over its own
/// [`GpuSpec::derived_cost_params`] `γ`/`λ`, `σ` is the cluster's, and it
/// runs `per_device[d]` (one row per round, every device with the same
/// round count); its round is scheduled through the stream scheduler
/// over `schedules[d][i]` (an empty `schedules`, an empty per-device
/// table or an empty round schedule is the serial `T_I + kernel + T_O`);
/// `peer[i]` is priced on the directed `peer_links[src][dst]` entry and
/// charged to both endpoints.  One device with no peers is the
/// single-GPU cost: the `max` is over one path.
///
/// A `loss` changes rounds from `loss.at_round` on, inside the same loop
/// (see [`cluster_cost_degraded`] for the rules): the dead device leaves
/// the `max`, each survivor's terms absorb its share of the dead
/// device's row (priced serially), and peer copies touching the dead
/// device are rerouted.
fn price_rounds(
    cluster: &ClusterSpec,
    machine: &AtgpuMachine,
    per_device: &[AlgoMetrics],
    schedules: &[Vec<RoundSchedule>],
    peer: &[Vec<PeerTraffic>],
    loss: Option<&DegradedLoss>,
) -> Result<ClusterCostBreakdown, ModelError> {
    cluster.validate()?;
    let invalid = |reason: String| Err(ModelError::InvalidParams { reason });
    let n = cluster.n_devices();
    if per_device.len() != n {
        return invalid(format!(
            "{} device metric tables for a {n}-device cluster",
            per_device.len()
        ));
    }
    let rounds = per_device.first().map_or(0, |m| m.rounds.len());
    if per_device.iter().any(|m| m.rounds.len() != rounds) {
        return invalid("all devices must have the same round count".into());
    }
    if !schedules.is_empty() && schedules.len() != n {
        return invalid(format!("{} schedule tables for a {n}-device cluster", schedules.len()));
    }
    for table in schedules {
        if !table.is_empty() && table.len() != rounds {
            return invalid(format!(
                "a device schedules {} rounds but the program has {rounds}",
                table.len()
            ));
        }
        table.iter().try_for_each(check_schedule_streams)?;
    }
    for metrics in per_device {
        metrics.check_fits(machine)?;
    }
    if peer.len() > rounds {
        return invalid(format!("peer traffic for {} rounds but only {rounds} rounds", peer.len()));
    }
    // The scenario with its heir, checked once.
    let loss = loss.map(|l| l.heir(n).map(|heir| (l, heir))).transpose()?;

    let mut out = ClusterCostBreakdown {
        per_device: vec![CostBreakdown::default(); n],
        peer: vec![0.0; n],
        total_ms: 0.0,
        sync_ms: 0.0,
    };
    let mut peer_ms = vec![0.0f64; n];
    for i in 0..rounds {
        // From its round on, a loss is in force: `(scenario, heir)`.
        let lost = loss.filter(|(l, _)| i >= l.at_round);
        let dead = lost.map(|(l, _)| l.device);

        // Peer cost per device.  Post-loss copies are routed the way the
        // simulator routes them: a dead source is served by the heir, a
        // dead destination is a broadcast to every survivor, and a copy
        // whose endpoints coincide is a free local move.
        peer_ms.fill(0.0);
        for t in peer.get(i).into_iter().flatten() {
            let (src, dst) = (t.src as usize, t.dst as usize);
            if src >= n || dst >= n {
                return invalid(format!(
                    "peer traffic {}→{} outside {n}-device cluster",
                    t.src, t.dst
                ));
            }
            let sp = match lost {
                Some((l, heir)) if l.device == src => heir,
                _ => src,
            };
            let receivers = if dead == Some(dst) { 0..n } else { dst..dst + 1 };
            for r in receivers {
                if dead == Some(r) || (dead.is_some() && r == sp) {
                    continue;
                }
                let c = cluster.peer_links[sp][r].cost_ms(t.txns, t.words);
                peer_ms[sp] += c;
                peer_ms[r] += c;
            }
        }

        let mut slowest = 0.0f64;
        for (d, (spec, link)) in cluster.devices.iter().zip(&cluster.host_links).enumerate() {
            if dead == Some(d) {
                continue;
            }
            let round = &per_device[d].rounds[i];
            let b = &mut out.per_device[d];
            let path = match lost {
                None => {
                    let kernel = gpu_kernel_term(machine, spec, round)?;
                    let schedule = schedules.get(d).and_then(|s| s.get(i));
                    schedule_round(link, round, kernel, schedule, peer_ms[d], b)
                }
                Some((l, heir)) => {
                    // Every survivor stages the dead device's inputs (any
                    // of them may run a recovery shard); the heir alone
                    // replays the journal, once, and returns the outputs.
                    let dead_round = &per_device[l.device].rounds[i];
                    let mut t_in = link.cost_ms(round.inward_txns, round.inward_words)
                        + link.cost_ms(dead_round.inward_txns, dead_round.inward_words);
                    if i == l.at_round && d == heir {
                        t_in += link.cost_ms(l.replay_txns, l.replay_words);
                    }
                    let mut t_out = link.cost_ms(round.outward_txns, round.outward_words);
                    if d == heir {
                        t_out += link.cost_ms(dead_round.outward_txns, dead_round.outward_words);
                    }
                    // Fractional takeover kernel: waves over the combined
                    // (possibly non-integral) block count.
                    let f = l.takeover[d];
                    let m_used = round.shared_words.max(dead_round.shared_words);
                    let capacity = device_capacity(machine, spec, m_used);
                    if capacity == 0 {
                        return Err(ModelError::SharedMemoryExceeded {
                            required: m_used,
                            available: machine.m,
                        });
                    }
                    let blocks =
                        round.blocks_launched as f64 + f * dead_round.blocks_launched as f64;
                    let time = round.time.max(dead_round.time);
                    let waves = (blocks / capacity as f64).ceil();
                    let io = round.io_blocks as f64 + f * dead_round.io_blocks as f64;
                    let kernel = kernel_ms(spec, waves, time, io);
                    b.transfer_in += t_in;
                    b.transfer_out += t_out;
                    b.kernel += kernel;
                    t_in + kernel + peer_ms[d] + t_out
                }
            };
            out.peer[d] += peer_ms[d];
            slowest = slowest.max(path);
        }
        out.total_ms += cluster.sync_ms + slowest;
        out.sync_ms += cluster.sync_ms;
    }
    Ok(out)
}

/// Evaluates the multi-device GPU-cost with per-device **stream
/// schedules** — the round-pricing core with no loss.  Each device `d`
/// runs its shard (`per_device[d]`, one [`AlgoMetrics`] row per round,
/// all devices with the same round count) behind its own host link, and
/// a round completes when the slowest device finishes:
///
/// ```text
/// T = Σᵢ ( σ + max_d [ T_I(i,d) + (waveᵢ_d·tᵢ_d + λ_d·qᵢ_d)/γ_d
///                      + T_peer(i,d) + T_O(i,d) ] )
/// ```
///
/// `T_I`/`T_O` use device `d`'s host-link `α`/`β`; `γ_d`/`λ_d` come from
/// its [`GpuSpec::derived_cost_params`]; peer traffic is priced by the
/// directed `peer_links[src][dst]` entry and charged to both endpoints'
/// peer engines after the round's scheduled items.  Device `d`'s round
/// `i` is priced by the stream-chain scheduler over `schedules[d][i]`
/// instead of the serial `T_I + kernel + T_O` sum, so double-buffered
/// multi-device programs get overlap credit inside each device on top of
/// the max-over-devices concurrency.  Pass an empty `schedules` slice (or
/// an empty per-device vector) for all-serial devices.  On a one-device
/// cluster with all-serial schedules the total is
/// [`evaluate`]`(CostModel::GpuCost, …)` on the device's spec.
pub fn cluster_cost_streamed(
    cluster: &ClusterSpec,
    machine: &AtgpuMachine,
    per_device: &[AlgoMetrics],
    schedules: &[Vec<RoundSchedule>],
    peer: &[Vec<PeerTraffic>],
) -> Result<ClusterCostBreakdown, ModelError> {
    price_rounds(cluster, machine, per_device, schedules, peer, None)
}

/// The multi-device GPU-cost under a mid-program device loss — the
/// analytic mirror of the simulator's degraded mode; the round-pricing
/// core with every device serial and `loss` in force.  Rounds before
/// `loss.at_round` are priced exactly like
/// [`cluster_cost_streamed`]`(.., &[], ..)`.  From `at_round` on:
///
/// * the dead device contributes nothing to any round's max;
/// * every survivor pays the dead device's **full** inward traffic on its
///   own host link (staged inputs are broadcast so any survivor can run
///   any recovery shard);
/// * survivor `d`'s kernel term grows fractionally: `k′_d = k_d +
///   f_d·k_dead` blocks (waves computed in `f64`), and the DRAM term gets
///   `q_d + f_d·q_dead`;
/// * only the heir (lowest surviving index) pays the dead device's
///   outward traffic;
/// * peer traffic touching the dead device is re-routed the way the
///   simulator routes it: a dead source is replaced by the heir, a dead
///   destination becomes a broadcast to every survivor, and a copy whose
///   endpoints coincide is a free local move;
/// * round `at_round` alone adds the checkpoint replay
///   `replay_txns·α + replay_words·β` — billed once, on the **heir's**
///   host link (the simulator restores every survivor's memory from the
///   journal, but the one-time replay transfer lands in exactly one
///   device's time columns).
///
/// Each degraded round still costs `σ + max` over the surviving paths.
pub fn cluster_cost_degraded(
    cluster: &ClusterSpec,
    machine: &AtgpuMachine,
    per_device: &[AlgoMetrics],
    peer: &[Vec<PeerTraffic>],
    loss: &DegradedLoss,
) -> Result<ClusterCostBreakdown, ModelError> {
    price_rounds(cluster, machine, per_device, &[], peer, Some(loss))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    fn machine() -> AtgpuMachine {
        AtgpuMachine::new(1 << 20, 32, 12_288, 1 << 26).unwrap()
    }

    fn simple_round() -> RoundMetrics {
        RoundMetrics {
            time: 13,
            io_blocks: 96,
            global_words: 3 * 1024,
            shared_words: 96,
            inward_words: 2048,
            inward_txns: 2,
            outward_words: 1024,
            outward_txns: 1,
            blocks_launched: 32,
        }
    }

    /// The GTX 650's `k′ = 2`, `H = 16` with unit constants: `γ = 1`,
    /// `λ = 10`, `σ = 5`, `α = 2`, `β = 0.5`.
    fn unit_spec() -> GpuSpec {
        GpuSpec {
            clock_cycles_per_ms: 1.0,
            dram_issue_cycles: 10,
            xfer_alpha_ms: 2.0,
            xfer_beta_ms_per_word: 0.5,
            sync_ms: 5.0,
            ..GpuSpec::gtx650_like()
        }
    }

    #[test]
    fn perfect_cost_matches_hand_calculation() {
        let m = AlgoMetrics::new(vec![simple_round()]);
        let c = evaluate(CostModel::PerfectGpu, &machine(), &unit_spec(), &m).unwrap();
        // T_I = 2*2 + 2048*0.5 = 1028; kernel = (13 + 10*96)/1 = 973;
        // T_O = 1*2 + 1024*0.5 = 514; sigma = 5.
        assert_eq!(c.transfer_in, 1028.0);
        assert_eq!(c.kernel, 973.0);
        assert_eq!(c.transfer_out, 514.0);
        assert_eq!(c.sync, 5.0);
        assert_eq!(c.total(), 1028.0 + 973.0 + 514.0 + 5.0);
    }

    #[test]
    fn gpu_cost_applies_wave_factor() {
        let m = AlgoMetrics::new(vec![simple_round()]);
        // k' * l = 2 * 16 = 32 (96-word blocks are H-capped); k = 32 -> 1 wave.
        let c1 = evaluate(CostModel::GpuCost, &machine(), &unit_spec(), &m).unwrap();
        assert_eq!(c1.kernel, 973.0);
        // k = 33 -> 2 waves -> kernel = (2*13 + 960) = 986.
        let mut r = simple_round();
        r.blocks_launched = 33;
        let m2 = AlgoMetrics::new(vec![r]);
        let c2 = evaluate(CostModel::GpuCost, &machine(), &unit_spec(), &m2).unwrap();
        assert_eq!(c2.kernel, 986.0);
    }

    #[test]
    fn swgpu_is_gpu_cost_without_transfer() {
        let m = AlgoMetrics::new(vec![simple_round(), simple_round()]);
        let g = evaluate(CostModel::GpuCost, &machine(), &unit_spec(), &m).unwrap();
        let s = evaluate(CostModel::Swgpu, &machine(), &unit_spec(), &m).unwrap();
        assert_eq!(s.transfer_in, 0.0);
        assert_eq!(s.transfer_out, 0.0);
        assert_eq!(s.kernel, g.kernel);
        assert_eq!(s.sync, g.sync);
        assert!((g.total() - s.total() - g.transfer()).abs() < 1e-12);
    }

    #[test]
    fn kernel_only_drops_sync_too() {
        let m = AlgoMetrics::new(vec![simple_round()]);
        let k = evaluate(CostModel::KernelOnly, &machine(), &unit_spec(), &m).unwrap();
        assert_eq!(k.sync, 0.0);
        assert_eq!(k.transfer(), 0.0);
        assert!(k.kernel > 0.0);
    }

    #[test]
    fn gpu_cost_at_least_perfect_cost() {
        let mut r = simple_round();
        r.blocks_launched = 1000;
        let m = AlgoMetrics::new(vec![r]);
        let total = |model| evaluate(model, &machine(), &unit_spec(), &m).unwrap().total();
        assert!(total(CostModel::GpuCost) >= total(CostModel::PerfectGpu));
    }

    #[test]
    fn transfer_proportion_between_zero_and_one() {
        let m = AlgoMetrics::new(vec![simple_round()]);
        let c = evaluate(CostModel::GpuCost, &machine(), &unit_spec(), &m).unwrap();
        let d = c.transfer_proportion();
        assert!((0.0..=1.0).contains(&d), "delta = {d}");
    }

    #[test]
    fn transfer_proportion_of_zero_cost_is_zero() {
        assert_eq!(CostBreakdown::default().transfer_proportion(), 0.0);
    }

    #[test]
    fn vecadd_closed_form_shape() {
        // The paper's vector-addition cost: 3α + 3nβ + (13 + λ·3k)/γ + σ.
        let n: u64 = 1 << 20;
        let b = 32;
        let k = n / b;
        let r = RoundMetrics {
            time: 13,
            io_blocks: 3 * k,
            global_words: 3 * n,
            shared_words: 3 * b,
            inward_words: 2 * n,
            inward_txns: 2,
            outward_words: n,
            outward_txns: 1,
            blocks_launched: k,
        };
        let s = unit_spec();
        let p = s.derived_cost_params();
        let m = AlgoMetrics::new(vec![r]);
        let c = evaluate(CostModel::PerfectGpu, &machine(), &s, &m).unwrap().total();
        let expect = 3.0 * p.alpha
            + 3.0 * n as f64 * p.beta
            + (13.0 + p.lambda * 3.0 * k as f64) / p.gamma
            + p.sigma;
        assert!((c - expect).abs() < 1e-9, "c={c} expect={expect}");
    }

    #[test]
    fn oversized_global_rejected() {
        let mut r = simple_round();
        r.global_words = machine().g + 1;
        let m = AlgoMetrics::new(vec![r]);
        assert!(matches!(
            evaluate(CostModel::GpuCost, &machine(), &unit_spec(), &m),
            Err(ModelError::GlobalMemoryExceeded { .. })
        ));
    }

    #[test]
    fn oversized_shared_rejected() {
        let mut r = simple_round();
        r.shared_words = machine().m + 1;
        let m = AlgoMetrics::new(vec![r]);
        assert!(matches!(
            evaluate(CostModel::GpuCost, &machine(), &unit_spec(), &m),
            Err(ModelError::SharedMemoryExceeded { .. })
        ));
    }

    #[test]
    fn invalid_params_rejected() {
        let s = GpuSpec { clock_cycles_per_ms: 0.0, ..unit_spec() };
        let m = AlgoMetrics::new(vec![simple_round()]);
        assert!(matches!(
            evaluate(CostModel::GpuCost, &machine(), &s, &m),
            Err(ModelError::InvalidParams { .. })
        ));
    }

    #[test]
    fn cost_monotone_in_lambda() {
        let m = AlgoMetrics::new(vec![simple_round()]);
        let mut s = unit_spec();
        let c1 = evaluate(CostModel::GpuCost, &machine(), &s, &m).unwrap().total();
        s.dram_issue_cycles *= 2;
        let c2 = evaluate(CostModel::GpuCost, &machine(), &s, &m).unwrap().total();
        assert!(c2 > c1);
    }

    #[test]
    fn cost_monotone_in_beta() {
        let m = AlgoMetrics::new(vec![simple_round()]);
        let mut s = unit_spec();
        let c1 = evaluate(CostModel::GpuCost, &machine(), &s, &m).unwrap().total();
        s.xfer_beta_ms_per_word *= 3.0;
        let c2 = evaluate(CostModel::GpuCost, &machine(), &s, &m).unwrap().total();
        assert!(c2 > c1);
    }

    fn shard_round(blocks: u64, in_words: u64, out_words: u64) -> RoundMetrics {
        RoundMetrics {
            time: 13,
            io_blocks: 3 * blocks,
            global_words: 3 * 1024,
            shared_words: 96,
            inward_words: in_words,
            inward_txns: u64::from(in_words > 0),
            outward_words: out_words,
            outward_txns: u64::from(out_words > 0),
            blocks_launched: blocks,
        }
    }

    fn unit_cluster(n: usize) -> ClusterSpec {
        ClusterSpec::homogeneous(n, unit_spec())
    }

    #[test]
    fn cluster_cost_single_device_matches_gpu_cost() {
        // With one device and no peer traffic, the cluster total must be
        // exactly the single-device GPU-cost (max over one device = sum).
        let m = AlgoMetrics::new(vec![simple_round(), simple_round()]);
        let cluster = unit_cluster(1);
        let c = cluster_cost_streamed(&cluster, &machine(), std::slice::from_ref(&m), &[], &[])
            .unwrap();
        let single = evaluate(CostModel::GpuCost, &machine(), &cluster.devices[0], &m).unwrap();
        assert!((c.total_ms - single.total()).abs() < 1e-9, "{} vs {}", c.total_ms, single.total());
        assert_eq!(c.sync_ms, 10.0);
    }

    #[test]
    fn cluster_round_cost_is_max_over_devices() {
        // Device 0 moves 1000 words, device 1 moves 100: the round costs
        // the slower device's path plus σ, not the sum.
        let cluster = unit_cluster(2);
        let heavy = AlgoMetrics::new(vec![shard_round(16, 1000, 0)]);
        let light = AlgoMetrics::new(vec![shard_round(16, 100, 0)]);
        let c = cluster_cost_streamed(&cluster, &machine(), &[heavy, light], &[], &[]).unwrap();
        let path = |b: &CostBreakdown| b.transfer_in + b.kernel + b.transfer_out;
        let p0 = path(&c.per_device[0]);
        let p1 = path(&c.per_device[1]);
        assert!(p0 > p1);
        assert!((c.total_ms - (5.0 + p0)).abs() < 1e-9);
    }

    #[test]
    fn peer_traffic_charged_to_both_endpoints() {
        let mut cluster = unit_cluster(2);
        // An asymmetric pair of links.
        cluster.peer_links[0][1] =
            crate::params::LinkParams { alpha_ms: 1.0, beta_ms_per_word: 0.1 };
        cluster.peer_links[1][0] =
            crate::params::LinkParams { alpha_ms: 4.0, beta_ms_per_word: 0.4 };
        let m = AlgoMetrics::new(vec![shard_round(16, 0, 0)]);
        let fwd = cluster_cost_streamed(
            &cluster,
            &machine(),
            &[m.clone(), m.clone()],
            &[],
            &[vec![PeerTraffic { src: 0, dst: 1, words: 10, txns: 1 }]],
        )
        .unwrap();
        // 1·1.0 + 10·0.1 = 2.0, charged to both devices.
        assert!((fwd.peer[0] - 2.0).abs() < 1e-12);
        assert!((fwd.peer[1] - 2.0).abs() < 1e-12);
        let rev = cluster_cost_streamed(
            &cluster,
            &machine(),
            &[m.clone(), m.clone()],
            &[],
            &[vec![PeerTraffic { src: 1, dst: 0, words: 10, txns: 1 }]],
        )
        .unwrap();
        // 1·4.0 + 10·0.4 = 8.0 on the slow direction.
        assert!((rev.peer[0] - 8.0).abs() < 1e-12);
        assert!(rev.total_ms > fwd.total_ms, "asymmetric link must show in the total");
    }

    #[test]
    fn cluster_cost_rejects_mismatched_shapes() {
        let cluster = unit_cluster(2);
        let m = AlgoMetrics::new(vec![shard_round(4, 0, 0)]);
        let price = |per_device: &[AlgoMetrics], peer: &[Vec<PeerTraffic>]| {
            cluster_cost_streamed(&cluster, &machine(), per_device, &[], peer)
        };
        assert!(price(std::slice::from_ref(&m), &[]).is_err());
        let two = AlgoMetrics::new(vec![shard_round(4, 0, 0), shard_round(4, 0, 0)]);
        assert!(price(&[m.clone(), two], &[]).is_err());
        let bad_peer = vec![vec![PeerTraffic { src: 0, dst: 7, words: 1, txns: 1 }]];
        assert!(price(&[m.clone(), m], &bad_peer).is_err());
    }

    #[test]
    fn degraded_round_matches_hand_calculation() {
        // Two devices, two rounds; device 1 dies at the start of round 1
        // and device 0 takes over all of its work.
        let cluster = unit_cluster(2);
        let m = AlgoMetrics::new(vec![shard_round(16, 1000, 200), shard_round(16, 1000, 200)]);
        let loss = DegradedLoss {
            device: 1,
            at_round: 1,
            replay_words: 100,
            replay_txns: 1,
            takeover: vec![1.0, 0.0],
        };
        let c = cluster_cost_degraded(&cluster, &machine(), &[m.clone(), m.clone()], &[], &loss)
            .unwrap();
        // Round 0 (full strength): T_I = 2 + 500 = 502; kernel =
        // (⌈16/32⌉·13 + 10·48)/1 = 493; T_O = 2 + 100 = 102 → path 1097.
        // Round 1 (degraded): T_I = own 502 + dead 502 + replay (2 + 50)
        // = 1056; kernel over 32 combined blocks = (13 + 10·96)/1 = 973;
        // T_O = own 102 + heir-borne dead 102 = 204 → path 2233.
        let expect = (5.0 + 1097.0) + (5.0 + 2233.0);
        assert!((c.total_ms - expect).abs() < 1e-9, "{} vs {expect}", c.total_ms);
        assert_eq!(c.sync_ms, 10.0);
        // The dead device only accumulated round 0.
        assert!((c.per_device[1].transfer_in - 502.0).abs() < 1e-12);
        assert!((c.per_device[1].kernel - 493.0).abs() < 1e-12);
    }

    #[test]
    fn degraded_replay_is_billed_once_on_the_heir() {
        // Three devices, device 2 dies at round 0 with survivors splitting
        // its work 50/50.  Both survivors pay the dead device's broadcast
        // inward traffic, but the one-time journal replay (1·α + 100·β =
        // 2 + 50 = 52) lands on the heir's (device 0's) link alone.
        let cluster = unit_cluster(3);
        let m = AlgoMetrics::new(vec![shard_round(16, 1000, 200)]);
        let loss = DegradedLoss {
            device: 2,
            at_round: 0,
            replay_words: 100,
            replay_txns: 1,
            takeover: vec![0.5, 0.5, 0.0],
        };
        let c = cluster_cost_degraded(
            &cluster,
            &machine(),
            &[m.clone(), m.clone(), m.clone()],
            &[],
            &loss,
        )
        .unwrap();
        // Non-heir survivor: own 502 + dead broadcast 502.
        assert!((c.per_device[1].transfer_in - 1004.0).abs() < 1e-12);
        // Heir: the same plus the replay, exactly once.
        assert!((c.per_device[0].transfer_in - 1056.0).abs() < 1e-12);
    }

    #[test]
    fn degraded_loss_after_last_round_matches_cluster_cost() {
        let cluster = unit_cluster(2);
        let m = AlgoMetrics::new(vec![shard_round(16, 1000, 200), shard_round(16, 1000, 200)]);
        let loss = DegradedLoss {
            device: 0,
            at_round: 2,
            replay_words: 0,
            replay_txns: 0,
            takeover: vec![0.0, 1.0],
        };
        let full =
            cluster_cost_streamed(&cluster, &machine(), &[m.clone(), m.clone()], &[], &[]).unwrap();
        let deg = cluster_cost_degraded(&cluster, &machine(), &[m.clone(), m.clone()], &[], &loss)
            .unwrap();
        assert!((full.total_ms - deg.total_ms).abs() < 1e-9);
    }

    #[test]
    fn fractional_takeover_splits_the_dead_devices_blocks() {
        // Three devices, one round, device 2 dies immediately; survivors
        // split its 32 blocks 50/50, so each runs 16 + 16 = 32 blocks →
        // still one wave, and half the dead DRAM traffic each.
        let cluster = unit_cluster(3);
        let live = AlgoMetrics::new(vec![shard_round(16, 0, 0)]);
        let dead = AlgoMetrics::new(vec![shard_round(32, 0, 0)]);
        let loss = DegradedLoss {
            device: 2,
            at_round: 0,
            replay_words: 0,
            replay_txns: 0,
            takeover: vec![0.5, 0.5, 0.0],
        };
        let c =
            cluster_cost_degraded(&cluster, &machine(), &[live.clone(), live, dead], &[], &loss)
                .unwrap();
        // kernel = (⌈32/32⌉·13 + 10·(48 + 0.5·96))/1 = 13 + 960 = 973.
        assert!((c.per_device[0].kernel - 973.0).abs() < 1e-9);
        assert!((c.per_device[1].kernel - 973.0).abs() < 1e-9);
        assert_eq!(c.per_device[2].kernel, 0.0);
    }

    #[test]
    fn degraded_rejects_bad_loss_shapes() {
        let cluster = unit_cluster(2);
        let m = AlgoMetrics::new(vec![shard_round(16, 0, 0)]);
        let ok = DegradedLoss {
            device: 1,
            at_round: 0,
            replay_words: 0,
            replay_txns: 0,
            takeover: vec![1.0, 0.0],
        };
        let pair = [m.clone(), m.clone()];
        // Dead device outside the cluster.
        let mut bad = ok.clone();
        bad.device = 5;
        assert!(cluster_cost_degraded(&cluster, &machine(), &pair, &[], &bad).is_err());
        // Takeover fractions that do not sum to 1.
        let mut bad = ok.clone();
        bad.takeover = vec![0.5, 0.0];
        assert!(cluster_cost_degraded(&cluster, &machine(), &pair, &[], &bad).is_err());
        // A dead device that still claims work.
        let mut bad = ok.clone();
        bad.takeover = vec![0.5, 0.5];
        assert!(cluster_cost_degraded(&cluster, &machine(), &pair, &[], &bad).is_err());
        // NaN and infinite fractions, at a survivor or at the dead device.
        for takeover in [
            vec![f64::NAN, 0.0],
            vec![0.0, f64::NAN],
            vec![f64::INFINITY, 0.0],
            vec![1.0, f64::INFINITY],
            vec![f64::NEG_INFINITY, 0.0],
        ] {
            let bad = DegradedLoss { takeover: takeover.clone(), ..ok.clone() };
            assert!(
                matches!(
                    cluster_cost_degraded(&cluster, &machine(), &pair, &[], &bad),
                    Err(ModelError::InvalidParams { .. })
                ),
                "{takeover:?}"
            );
        }
        // No survivors at all.
        let one = unit_cluster(1);
        let solo = DegradedLoss { takeover: vec![0.0], device: 0, ..ok };
        assert!(
            cluster_cost_degraded(&one, &machine(), std::slice::from_ref(&m), &[], &solo).is_err()
        );
    }

    #[test]
    fn degraded_reroutes_peer_traffic_around_the_dead_device() {
        // Device 1 dies at round 0; traffic 0→1 becomes a broadcast to
        // the survivors, i.e. only the free local copy on device 0 in a
        // 2-device cluster, while 2-device traffic 1→0 is re-sourced to
        // the heir (device 0) and also becomes local.
        let cluster = unit_cluster(2);
        let m = AlgoMetrics::new(vec![shard_round(16, 0, 0)]);
        let loss = DegradedLoss {
            device: 1,
            at_round: 0,
            replay_words: 0,
            replay_txns: 0,
            takeover: vec![1.0, 0.0],
        };
        let traffic = vec![vec![
            PeerTraffic { src: 0, dst: 1, words: 64, txns: 1 },
            PeerTraffic { src: 1, dst: 0, words: 64, txns: 1 },
        ]];
        let c =
            cluster_cost_degraded(&cluster, &machine(), &[m.clone(), m.clone()], &traffic, &loss)
                .unwrap();
        assert_eq!(c.peer[0], 0.0, "both copies collapse to free local moves");
        assert_eq!(c.peer[1], 0.0);
    }

    #[test]
    fn sharding_transfer_bound_work_cuts_cluster_cost() {
        // A transfer-dominated round split across 4 devices should cost
        // roughly a quarter of the 1-device transfer time (+σ).
        let one = unit_cluster(1);
        let four = unit_cluster(4);
        let whole = AlgoMetrics::new(vec![shard_round(64, 40_000, 0)]);
        let quarter = AlgoMetrics::new(vec![shard_round(16, 10_000, 0)]);
        let c1 = cluster_cost_streamed(&one, &machine(), &[whole], &[], &[]).unwrap();
        let c4 = cluster_cost_streamed(&four, &machine(), &vec![quarter; 4], &[], &[]).unwrap();
        assert!(
            c4.total_ms < 0.3 * c1.total_ms,
            "4-device sharding should cut a transfer-bound round: {} vs {}",
            c4.total_ms,
            c1.total_ms
        );
    }

    /// The stream-aware cost of one device: the 1-device unit cluster of
    /// `unit_spec()`, with `σ` folded back
    /// into the breakdown beside the total.
    fn streamed_one(m: &AlgoMetrics, schedules: Vec<RoundSchedule>) -> (CostBreakdown, f64) {
        let c = cluster_cost_streamed(
            &unit_cluster(1),
            &machine(),
            std::slice::from_ref(m),
            &[schedules],
            &[],
        )
        .unwrap();
        (CostBreakdown { sync: c.sync_ms, ..c.per_device[0] }, c.total_ms)
    }

    #[test]
    fn streamed_with_empty_schedules_matches_gpu_cost() {
        let m = AlgoMetrics::new(vec![simple_round(), simple_round()]);
        let serial = evaluate(CostModel::GpuCost, &machine(), &unit_spec(), &m).unwrap();
        let (breakdown, total) = streamed_one(&m, vec![RoundSchedule::default(); 2]);
        assert_eq!(total, serial.total());
        assert_eq!(breakdown, serial);
    }

    #[test]
    fn single_stream_schedule_matches_serial() {
        // An explicit schedule that keeps everything on stream 0
        // degenerates to the serial sum.
        let r = simple_round();
        let m = AlgoMetrics::new(vec![r]);
        let schedule = RoundSchedule {
            items: vec![
                StreamItem::TransferIn { stream: 0, txns: r.inward_txns, words: r.inward_words },
                StreamItem::Kernel,
                StreamItem::TransferOut { stream: 0, txns: r.outward_txns, words: r.outward_words },
            ],
        };
        let (_, total) = streamed_one(&m, vec![schedule]);
        let serial = evaluate(CostModel::GpuCost, &machine(), &unit_spec(), &m).unwrap();
        assert!((total - serial.total()).abs() < 1e-9, "{total} vs {}", serial.total());
    }

    #[test]
    fn second_stream_hides_inward_transfer() {
        // T_I = 1028 on stream 1, kernel = 973 + T_O = 514 on stream 0:
        // round = max(1028, 1487) + σ = 1492 instead of 2520.
        let r = simple_round();
        let m = AlgoMetrics::new(vec![r]);
        let schedule = RoundSchedule {
            items: vec![
                StreamItem::TransferIn { stream: 1, txns: r.inward_txns, words: r.inward_words },
                StreamItem::Kernel,
                StreamItem::TransferOut { stream: 0, txns: r.outward_txns, words: r.outward_words },
            ],
        };
        let (breakdown, total) = streamed_one(&m, vec![schedule]);
        assert!((total - (973.0 + 514.0 + 5.0)).abs() < 1e-9, "{total}");
        assert!(breakdown.total() / total > 1.6, "{}", breakdown.total() / total);
        // The component accounting is unchanged by overlap.
        assert_eq!(breakdown.transfer_in, 1028.0);
    }

    #[test]
    fn sync_heavy_schedule_loses_all_overlap() {
        let r = simple_round();
        let m = AlgoMetrics::new(vec![r]);
        let schedule = RoundSchedule {
            items: vec![
                StreamItem::TransferIn { stream: 1, txns: r.inward_txns, words: r.inward_words },
                StreamItem::SyncDevice,
                StreamItem::Kernel,
                StreamItem::SyncStream { stream: 0 },
                StreamItem::TransferOut { stream: 2, txns: r.outward_txns, words: r.outward_words },
            ],
        };
        let (breakdown, total) = streamed_one(&m, vec![schedule]);
        assert!((total - breakdown.total()).abs() < 1e-9);
    }

    #[test]
    fn streamed_rejects_mismatched_schedule_count() {
        let m = AlgoMetrics::new(vec![simple_round(), simple_round()]);
        let schedules = [vec![RoundSchedule::default()]];
        let cluster = unit_cluster(1);
        assert!(cluster_cost_streamed(&cluster, &machine(), &[m], &schedules, &[]).is_err());
    }

    #[test]
    fn streamed_rejects_out_of_range_stream_ids() {
        let m = AlgoMetrics::new(vec![simple_round()]);
        let schedule = RoundSchedule {
            items: vec![StreamItem::TransferIn {
                stream: crate::streams::MAX_STREAMS,
                txns: 1,
                words: 8,
            }],
        };
        let one = unit_cluster(1);
        let bad = [vec![schedule.clone()]];
        assert!(
            cluster_cost_streamed(&one, &machine(), std::slice::from_ref(&m), &bad, &[]).is_err()
        );
        // On any device of a larger cluster too.
        let two = unit_cluster(2);
        let bad = [vec![], vec![schedule]];
        assert!(cluster_cost_streamed(&two, &machine(), &[m.clone(), m], &bad, &[]).is_err());
    }

    #[test]
    fn cluster_streamed_defaults_to_serial() {
        // No schedule table, an empty per-device table and an empty round
        // schedule are all the serial round.
        let cluster = unit_cluster(2);
        let pair = [
            AlgoMetrics::new(vec![shard_round(16, 1000, 0)]),
            AlgoMetrics::new(vec![shard_round(16, 100, 0)]),
        ];
        let a = cluster_cost_streamed(&cluster, &machine(), &pair, &[], &[]).unwrap();
        let empty = [vec![], vec![RoundSchedule::default()]];
        let b = cluster_cost_streamed(&cluster, &machine(), &pair, &empty, &[]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn cluster_streamed_overlap_cuts_round_time() {
        let cluster = unit_cluster(1);
        let r = shard_round(16, 1000, 500);
        let m = AlgoMetrics::new(vec![r]);
        let serial =
            cluster_cost_streamed(&cluster, &machine(), std::slice::from_ref(&m), &[], &[])
                .unwrap();
        let schedule = RoundSchedule {
            items: vec![
                StreamItem::TransferIn { stream: 1, txns: r.inward_txns, words: r.inward_words },
                StreamItem::Kernel,
                StreamItem::TransferOut { stream: 0, txns: r.outward_txns, words: r.outward_words },
            ],
        };
        let streamed = cluster_cost_streamed(
            &cluster,
            &machine(),
            std::slice::from_ref(&m),
            &[vec![schedule]],
            &[],
        )
        .unwrap();
        assert!(
            streamed.total_ms < serial.total_ms,
            "{} vs {}",
            streamed.total_ms,
            serial.total_ms
        );
        // Component sums are overlap-independent.
        assert_eq!(streamed.per_device, serial.per_device);
    }

    #[test]
    fn cluster_streamed_rejects_bad_schedule_shapes() {
        let cluster = unit_cluster(2);
        let m = AlgoMetrics::new(vec![shard_round(4, 0, 0)]);
        let pair = [m.clone(), m.clone()];
        // Wrong device count.
        assert!(cluster_cost_streamed(
            &cluster,
            &machine(),
            &pair,
            &[vec![RoundSchedule::default()]],
            &[]
        )
        .is_err());
        // Wrong round count on one device.
        assert!(cluster_cost_streamed(
            &cluster,
            &machine(),
            &pair,
            &[vec![RoundSchedule::default(); 2], vec![]],
            &[]
        )
        .is_err());
    }

    #[test]
    fn multi_round_sync_scales_with_r() {
        let rounds = vec![simple_round(); 5];
        let m = AlgoMetrics::new(rounds);
        let c = evaluate(CostModel::GpuCost, &machine(), &unit_spec(), &m).unwrap();
        assert_eq!(c.sync, 5.0 * unit_spec().sync_ms);
    }
}
