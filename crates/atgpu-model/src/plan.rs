//! The planning layer: price candidate shard plans and chunked pipeline
//! schedules through the analytic cost machinery, instead of guessing
//! from compute throughput alone.
//!
//! The paper's point is that data transfer (`Î·α + I·β`) dominates real
//! workloads — so a shard planner that weights devices by `k′·clock`
//! only is blind to exactly the term the model was built to expose.  A
//! cluster of identical GPUs behind asymmetric host links is *not*
//! homogeneous for a transfer-bound kernel: the device on the slow link
//! must receive fewer blocks, and how many fewer depends on the
//! workload's per-block traffic, not on any property of the devices.
//!
//! This module supplies the pieces a cost-driven planner needs:
//!
//! * [`ShardProfile`] — the per-planning-unit traffic and compute of one
//!   launch, the workload-shaped input every pricing function takes,
//!   including its **peer-link traffic** ([`PeerProfile`]: halo words to
//!   adjacent shards, all-to-one merge words, one-to-all scatter words)
//!   and optional per-unit heterogeneity vectors for row-imbalanced
//!   workloads;
//! * [`plan_cost`] — prices one candidate apportionment exactly, through
//!   [`crate::cost::cluster_cost_streamed`] (per-device host-link
//!   `α`/`β`, wave factors, the shared [`crate::StreamTimeline`]
//!   scheduler **and** the directed peer-link matrix are all in the
//!   objective — peer rows are synthesised by [`plan_peer_traffic`], not
//!   dropped);
//! * [`balanced_units`] — the min–max waterfill: the continuous
//!   apportionment equalising per-device round paths
//!   `T_I(d) + kernel(d) + T_peer(d) + T_O(d)`, rounded by largest
//!   remainder — the transfer-aware candidate that compute-weighting
//!   cannot produce.  Peer send/recv terms enter each device's path
//!   under the *directed* `peer_links[src][dst]` matrix;
//! * [`pipeline_cost`] — prices a double-buffered chunked schedule (the
//!   ping-pong shape `build_streamed` hand-writes) via the same
//!   machinery, per device, with chunk `r + 1`'s upload on stream 1
//!   under chunk `r`'s kernel + download;
//! * [`solve_chunk_units`] — the chunk-size solver: scans candidate
//!   chunk sizes and keeps the one whose *modeled* pipelined time is
//!   lowest — which lands where `T_I ≈ kernel + T_O` per round, the
//!   classic double-buffering balance, without hand-tuning;
//! * [`even_units`] / [`weighted_units`] / [`planned_units`] — the three
//!   shard planners (see below), and [`takeover_units`] /
//!   [`degraded_loss`] — how a lost device's blocks are re-apportioned
//!   over the survivors and what that costs
//!   ([`crate::cost::cluster_cost_degraded`]).
//!
//! Everything here decides in **unit counts per device**: this crate
//! does not depend on `atgpu-ir`, whose `counts_to_shards` turns a count
//! vector into the contiguous `Vec<Shard>` a `LaunchSharded` step takes
//! (and `shard_counts` back).  The simulator only *executes* plans; its
//! `even_shards` / `weighted_shards` / `planned_shards` are that
//! conversion applied to the planners below.
//!
//! ## Planner selection (even / weighted / cost-driven)
//!
//! Three shard planners, in increasing awareness of the cost model:
//!
//! | planner | apportions by | blind to |
//! |---|---|---|
//! | [`even_units`] | nothing (equal shares) | everything but the unit count |
//! | [`weighted_units`] | compute throughput `k′·clock` (largest remainder) | transfer: host-link `α`/`β`, broadcast inputs, wave quantisation |
//! | [`planned_units`] | **modeled round time** | nothing the cost model prices |
//!
//! [`planned_units`] is the cost-driven planner: it generates candidate
//! apportionments — the even split, the compute-weighted split, the
//! transfer-balanced min–max waterfill ([`balanced_units`]), and (for
//! peer-aware profiles) one drop-device candidate per idleable device —
//! prices each through [`plan_cost`] (the same `cluster_cost_streamed`
//! objective the predictions use: per-device host-link `Î·α + I·β`,
//! per-device wave factors, max over devices, cluster `σ`, and the
//! candidate's own peer-traffic rows), and keeps the argmin.  Its
//! modeled round time is therefore **never worse than either
//! heuristic's** (pinned by `atgpu-sim/tests/planner_properties.rs`; the
//! counts themselves by `tests/planner_pin.rs`).  The objective's inputs
//! are a [`ShardProfile`] — the workload's per-unit traffic and compute
//! — supplied by `atgpu_algos::Workload::shard_profile` whenever a
//! workload is built under `Plan::Planned` (`build_sharded_planned`).
//!
//! Device-spec equality alone is *not* homogeneity — identical GPUs
//! behind a fast and a slow PCIe link must not get an even split for a
//! transfer-bound kernel (the transfer blind spot this layer exists to
//! close):
//!
//! ```rust
//! use atgpu_model::plan::{planned_units, weighted_units};
//! use atgpu_model::{AtgpuMachine, ClusterSpec, GpuSpec, ShardProfile};
//!
//! let machine = AtgpuMachine::gtx650_like();
//! // Identical GPUs, but device 1 sits behind an 8x slower host link —
//! // "homogeneous" to a compute-weighted planner, not to a priced one.
//! let mut cluster = ClusterSpec::homogeneous(2, GpuSpec::gtx650_like());
//! cluster.host_links[1] = cluster.host_links[1].scaled(8.0);
//!
//! let blocks = 1024;
//! let profile = ShardProfile::streaming(machine.b); // transfer-bound
//! let weighted = weighted_units(blocks, &cluster);
//! let planned = planned_units(blocks, &cluster, &machine, &profile);
//! // Compute weighting sees equal `k'·clock` and splits evenly …
//! assert_eq!(weighted[0], weighted[1]);
//! // … while the cost-driven planner starves the slow link.
//! assert!(planned[1] < planned[0]);
//! ```
//!
//! ### Peer-aware planning (halo / gather / scatter / merge)
//!
//! [`ShardProfile::peer`] ([`PeerProfile`]) makes inter-device traffic a
//! first-class priced quantity: `halo_words` per device boundary per
//! round (stencil), `merge_words_per_unit` to an `owner` device
//! (histogram partial bins, scan block sums) and
//! `scatter_words_per_unit` back out (scan fix-up).  [`plan_cost`] turns
//! a candidate's per-device unit counts into directed peer rows, prices
//! each over `ClusterSpec::peer_links[src][dst]` and charges **both
//! endpoints** — exactly the simulator's `TransferPeer` accounting.  Two
//! consequences the zero-peer objective cannot reach:
//!
//! * halo rows appear only between devices that actually *hold* units,
//!   so the planner can see that merging two neighbouring slabs onto one
//!   device deletes their boundary;
//! * the drop-device candidates make "give the device with expensive
//!   peer edges *nothing*" expressible — on an asymmetric peer matrix
//!   this is where the argmin flips away from every peer-blind plan
//!   (experiment E13 measures the flip at ≥ 1.3x observed):
//!
//! ```rust
//! use atgpu_model::plan::planned_units;
//! use atgpu_model::{AtgpuMachine, ClusterSpec, GpuSpec, PeerProfile, ShardProfile};
//!
//! let machine = AtgpuMachine::gtx650_like();
//! // Four identical devices behind identical host links — but every
//! // peer edge touching device 3 is two orders of magnitude slower.
//! let mut cluster = ClusterSpec::homogeneous(4, GpuSpec::gtx650_like());
//! for d in 0..3 {
//!     cluster.peer_links[d][3] = cluster.peer_links[d][3].scaled(128.0);
//!     cluster.peer_links[3][d] = cluster.peer_links[3][d].scaled(128.0);
//! }
//!
//! let (blocks, b) = (256, machine.b);
//! // An 8-round 3-point stencil, one block per unit (what
//! // `Stencil::iterated(8).shard_profile` returns): one halo word per
//! // boundary per direction per round.
//! let profile = ShardProfile {
//!     time_ops: 10,
//!     io_blocks_per_unit: 4,
//!     inward_words_per_unit: b,
//!     inward_txns: 1,
//!     outward_words_per_unit: b,
//!     outward_txns: 1,
//!     shared_words: 2 * b + 2,
//!     rounds: 8,
//!     peer: PeerProfile { halo_words: 1, halo_txns: 1, ..PeerProfile::default() },
//!     ..ShardProfile::default()
//! };
//! // Peer-blind pricing sees a homogeneous cluster and splits evenly …
//! let blind = planned_units(blocks, &cluster, &machine, &profile.without_peer());
//! assert!(blind.iter().all(|&c| c == 64));
//! // … the peer-aware argmin idles the expensive device entirely.
//! let aware = planned_units(blocks, &cluster, &machine, &profile);
//! assert_eq!(aware[3], 0);
//! assert_eq!(aware.iter().sum::<u64>(), blocks);
//! ```
//!
//! The irregular quartet exercises every peer pattern end to end, each
//! with a workload-true profile and one emission body that every
//! `atgpu_algos::Plan` — even, peer-aware planned, explicit — places:
//! **stencil** (boundary-cell halo exchange per round), **scan** (block
//! sums gathered to an owner, scanned, scattered back), **spmv**
//! (row-band imbalance expressed through `unit_inward_words`, routing
//! the planner onto the heterogeneous greedy-pack path) and
//! **histogram** (partial-bin rows merged to the owner).  Random-plan
//! differential tests
//! (`atgpu-algos/tests/cluster_quartet_differential.rs`) pin all four
//! bit-identical to the host reference, through a mid-program device
//! loss included.
//!
//! On top of shard planning, the **chunk-size solver**
//! ([`solve_chunk_units`]) prices double-buffered ping-pong schedules per
//! candidate chunk and picks the modeled optimum — which lands where
//! `T_I ≈ kernel + T_O` per round while the `σ`/`α` amortisation is
//! priced exactly.  `OocVecAdd::build_planned` and
//! `MatMul::build_sharded_pipelined` use it to auto-derive the schedules
//! their `build_streamed` variants hand-write; the solver deliberately
//! emits a *serial* single-slab program when overlap would not repay the
//! extra per-round `σ` (compute-bound shapes on fast links).

// `takeover_units` runs inside a faulted launch a served request can
// reach: a bad plan is a fallback or a typed error, never a panic.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::cost::{cluster_cost_streamed, DegradedLoss, PeerTraffic};
use crate::error::ModelError;
use crate::machine::AtgpuMachine;
use crate::metrics::{AlgoMetrics, RoundMetrics};
use crate::occupancy::device_capacity;
use crate::params::{ClusterSpec, GpuSpec, LinkParams};
use crate::streams::{RoundSchedule, StreamItem};

/// The peer-link traffic shape of a sharded launch: which words move
/// device↔device (not host↔device) and under what pattern.  All fields
/// zero (the [`Default`]) means a peer-silent workload — vecadd-style
/// slab streaming with no halo, no merge.
///
/// Three neighbour classes cover the irregular quartet:
///
/// * **halo** — boundary cells exchanged with each *adjacent occupied*
///   device (index order), both directions, before every kernel round
///   after the first (stencil);
/// * **merge** — all-to-one: every occupied non-owner device sends its
///   partials to [`owner`](Self::owner) (histogram bins, scan block
///   sums, reduce partials);
/// * **scatter** — one-to-all: the owner sends per-unit words back to
///   each occupied non-owner device (scan's fixed-up block offsets).
///
/// Peer transfers cost `α + I·β` over the *directed*
/// `peer_links[src][dst]` entry and occupy **both** endpoints — exactly
/// the sim's accounting (`TransferEngine::peer` is one transaction per
/// copy, charged to the source and destination timelines).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PeerProfile {
    /// Words exchanged with each adjacent occupied device, per
    /// direction, per halo exchange (one exchange before each kernel
    /// round after the first).
    pub halo_words: u64,
    /// Transfer transactions per halo copy (the sim charges 1 per
    /// `TransferPeer`).
    pub halo_txns: u64,
    /// Words each occupied non-owner device sends to the owner, per
    /// planning unit it holds.
    pub merge_words_per_unit: u64,
    /// Fixed words each occupied non-owner device sends to the owner
    /// regardless of its share (e.g. one partial-bin row per device).
    pub merge_words_fixed: u64,
    /// Transfer transactions of the merge, per sending device.
    pub merge_txns: u64,
    /// Words the owner sends back to each occupied non-owner device,
    /// per planning unit that device holds.
    pub scatter_words_per_unit: u64,
    /// Transfer transactions of the scatter, per receiving device.
    pub scatter_txns: u64,
    /// The device index partials merge to / scatter from (0 for every
    /// workload in tree; kept explicit so degraded replanning can remap
    /// it into a surviving sub-cluster).
    pub owner: u32,
}

impl PeerProfile {
    /// True when every traffic field is zero — the profile prices
    /// identically with or without peer terms.
    pub fn is_zero(&self) -> bool {
        self.halo_words == 0
            && self.halo_txns == 0
            && self.merge_words_per_unit == 0
            && self.merge_words_fixed == 0
            && self.merge_txns == 0
            && self.scatter_words_per_unit == 0
            && self.scatter_txns == 0
    }
}

/// The per-unit cost shape of a shardable launch: how much traffic and
/// compute one **planning unit** (usually a thread block; a tile row for
/// matmul) adds to the device that runs it.
///
/// Fixed per-device terms (transfer transactions, broadcast inputs) are
/// kept separate from per-unit terms so the planner prices the `α` setup
/// costs a device pays once, not per block.  Peer-link traffic lives in
/// [`peer`](Self::peer); multi-round kernels (stencil iteration) set
/// [`rounds`](Self::rounds); row-imbalanced workloads (spmv) override
/// the scalar per-unit terms with the `unit_*` vectors.
///
/// Construct with struct-update syntax over [`ShardProfile::default`]
/// so adding planner dimensions stays non-breaking:
///
/// ```
/// # use atgpu_model::ShardProfile;
/// let p = ShardProfile { time_ops: 9, io_blocks_per_unit: 2, ..ShardProfile::default() };
/// assert_eq!(p.rounds, 1);
/// assert!(!p.has_peer());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardProfile {
    /// Lockstep kernel time `t` of the launch (per-round, block-count
    /// independent — waves multiply it).
    pub time_ops: u64,
    /// Global-memory block transactions `q` contributed per unit.
    pub io_blocks_per_unit: u64,
    /// Host→device words staged per unit (the shard's private slice).
    pub inward_words_per_unit: u64,
    /// Host→device transfer transactions per participating device.
    pub inward_txns: u64,
    /// Device→host words returned per unit.
    pub outward_words_per_unit: u64,
    /// Device→host transfer transactions per participating device.
    pub outward_txns: u64,
    /// Words broadcast to every participating device regardless of its
    /// share (e.g. matmul's `B` operand); zero when inputs are sliced.
    pub broadcast_words: u64,
    /// Transfer transactions of the broadcast, per participating device.
    pub broadcast_txns: u64,
    /// Shared-memory words per thread block (`m`, for occupancy).
    pub shared_words: u64,
    /// Thread blocks per planning unit (1 when units are blocks).
    pub blocks_per_unit: u64,
    /// Kernel rounds per run: inputs stage once before round 0, outputs
    /// drain after the last round, the kernel runs every round, and
    /// halo traffic (if any) is exchanged before each round after the
    /// first.  1 for single-pass launches.
    pub rounds: u64,
    /// Device↔device traffic shape; [`PeerProfile::default`] (all zero)
    /// for peer-silent workloads.
    pub peer: PeerProfile,
    /// Per-unit staged inward words for row-imbalanced workloads, unit
    /// `u` of the *global* unit order (empty = homogeneous, use
    /// [`inward_words_per_unit`](Self::inward_words_per_unit); missing
    /// tail entries also fall back to the scalar).
    pub unit_inward_words: Vec<u64>,
    /// Per-unit global-memory block transactions, same convention as
    /// [`unit_inward_words`](Self::unit_inward_words).
    pub unit_io_blocks: Vec<u64>,
}

impl Default for ShardProfile {
    /// All-zero traffic, one block per unit, one round, no peer terms,
    /// homogeneous units — the base for struct-update construction.
    fn default() -> Self {
        Self {
            time_ops: 0,
            io_blocks_per_unit: 0,
            inward_words_per_unit: 0,
            inward_txns: 0,
            outward_words_per_unit: 0,
            outward_txns: 0,
            broadcast_words: 0,
            broadcast_txns: 0,
            shared_words: 0,
            blocks_per_unit: 1,
            rounds: 1,
            peer: PeerProfile::default(),
            unit_inward_words: Vec::new(),
            unit_io_blocks: Vec::new(),
        }
    }
}

/// Sum of a per-unit override vector over the global unit range
/// `[lo, hi)`, falling back to `scalar` for units past the vector's end
/// (and entirely when the vector is empty).
fn unit_sum(vec: &[u64], scalar: u64, lo: u64, hi: u64) -> u64 {
    if vec.is_empty() {
        return scalar * (hi - lo);
    }
    (lo..hi).map(|u| vec.get(u as usize).copied().unwrap_or(scalar)).sum()
}

impl ShardProfile {
    /// A streaming-workload default (the vecadd shape at warp width `b`):
    /// every block stages `2b` words in, `b` words out, makes 3 coalesced
    /// block transactions and runs an `O(1)` kernel.  This is the profile
    /// to price with when there is no workload information — a
    /// deliberately transfer-aware stand-in, since transfer is what
    /// generic planning must not be blind to.
    ///
    /// **Zero-peer assumption:** this default deliberately carries no
    /// [`PeerProfile`] terms — it models slab streaming where shards
    /// never talk to each other.  Halo/merge workloads (stencil, scan,
    /// spmv gathers, histogram) must supply their own peer-aware
    /// profiles or the planner will under-price congested peer links.
    pub fn streaming(b: u64) -> Self {
        Self {
            time_ops: 7,
            io_blocks_per_unit: 3,
            inward_words_per_unit: 2 * b,
            inward_txns: 2,
            outward_words_per_unit: b,
            outward_txns: 1,
            shared_words: 3 * b,
            ..Self::default()
        }
    }

    /// True when the profile carries any peer-link traffic.
    pub fn has_peer(&self) -> bool {
        !self.peer.is_zero()
    }

    /// This profile with all peer terms dropped — the peer-blind view a
    /// legacy planner would have priced.
    pub fn without_peer(&self) -> Self {
        Self { peer: PeerProfile::default(), ..self.clone() }
    }

    /// The metric rows of a device holding the global unit range
    /// `[lo, lo + units)`: [`rounds`](Self::rounds) rows (all-zero — an
    /// idle device — when `units` is 0), staging on the first row,
    /// drain on the last, the kernel every row.
    fn device_rows(&self, units: u64, lo: u64) -> Vec<RoundMetrics> {
        let r_total = self.rounds.max(1) as usize;
        let mut rows = vec![RoundMetrics::default(); r_total];
        if units == 0 {
            return rows;
        }
        let hi = lo + units;
        let inward = unit_sum(&self.unit_inward_words, self.inward_words_per_unit, lo, hi)
            + self.broadcast_words;
        let io_blocks = unit_sum(&self.unit_io_blocks, self.io_blocks_per_unit, lo, hi);
        for (i, row) in rows.iter_mut().enumerate() {
            row.time = self.time_ops;
            row.io_blocks = io_blocks;
            row.shared_words = self.shared_words;
            row.blocks_launched = self.blocks_per_unit * units;
            if i == 0 {
                row.inward_words = inward;
                row.inward_txns = self.inward_txns + self.broadcast_txns;
            }
            if i == r_total - 1 {
                row.outward_words = self.outward_words_per_unit * units;
                row.outward_txns = self.outward_txns;
            }
        }
        rows
    }
}

/// Per-device metric tables for one candidate apportionment: device `d`
/// holds the contiguous global unit range starting at
/// `Σ_{e<d} units_per_device[e]`, with [`ShardProfile::rounds`] rows per
/// device (staging first, drain last).
pub fn plan_metrics(profile: &ShardProfile, units_per_device: &[u64]) -> Vec<AlgoMetrics> {
    let mut lo = 0u64;
    units_per_device
        .iter()
        .map(|&u| {
            let rows = profile.device_rows(u, lo);
            lo += u;
            AlgoMetrics::new(rows)
        })
        .collect()
}

/// Synthesises the per-round [`PeerTraffic`] rows of one candidate
/// apportionment from the profile's [`PeerProfile`]:
///
/// * halo rows between consecutive *occupied* devices (index order),
///   both directions, in every round after the first;
/// * merge rows (occupied non-owner → owner,
///   `merge_words_fixed + merge_words_per_unit · units_d`) and scatter
///   rows (owner → occupied non-owner, `scatter_words_per_unit ·
///   units_d`) in the last round.
///
/// Returns exactly [`ShardProfile::rounds`] rows (all empty for a
/// zero-peer profile), matching [`plan_metrics`]' round count so the
/// pair feeds [`cluster_cost_streamed`] directly.
pub fn plan_peer_traffic(
    profile: &ShardProfile,
    units_per_device: &[u64],
) -> Vec<Vec<PeerTraffic>> {
    let r_total = profile.rounds.max(1) as usize;
    let mut rounds: Vec<Vec<PeerTraffic>> = vec![Vec::new(); r_total];
    let p = profile.peer;
    if p.is_zero() {
        return rounds;
    }
    let occupied: Vec<usize> =
        (0..units_per_device.len()).filter(|&d| units_per_device[d] > 0).collect();
    if p.halo_words > 0 {
        for w in occupied.windows(2) {
            let (a, b) = (w[0] as u32, w[1] as u32);
            for row in rounds.iter_mut().skip(1) {
                row.push(PeerTraffic { src: a, dst: b, words: p.halo_words, txns: p.halo_txns });
                row.push(PeerTraffic { src: b, dst: a, words: p.halo_words, txns: p.halo_txns });
            }
        }
    }
    // `r_total ≥ 1`, so there is a last round.
    let Some(last) = rounds.last_mut() else { return rounds };
    for &d in &occupied {
        if d as u32 == p.owner {
            continue;
        }
        let merge_words = p.merge_words_fixed + p.merge_words_per_unit * units_per_device[d];
        if merge_words > 0 {
            last.push(PeerTraffic {
                src: d as u32,
                dst: p.owner,
                words: merge_words,
                txns: p.merge_txns,
            });
        }
        let scatter_words = p.scatter_words_per_unit * units_per_device[d];
        if scatter_words > 0 {
            last.push(PeerTraffic {
                src: p.owner,
                dst: d as u32,
                words: scatter_words,
                txns: p.scatter_txns,
            });
        }
    }
    rounds
}

/// Prices one candidate apportionment: the modeled time of a sharded
/// launch handing `units_per_device[d]` units to device `d`, computed by
/// [`cluster_cost_streamed`] — per-device host-link `α`/`β`, per-device
/// wave factors, max over devices, plus the cluster `σ` per round — with
/// the apportionment's peer traffic ([`plan_peer_traffic`]) priced over
/// the directed peer matrix and charged to both endpoints, exactly as
/// the sim charges it.  (The sharded builders stage transfers serially
/// within a round, so the per-device schedules are the serial default.)
pub fn plan_cost(
    cluster: &ClusterSpec,
    machine: &AtgpuMachine,
    profile: &ShardProfile,
    units_per_device: &[u64],
) -> Result<f64, ModelError> {
    let metrics = plan_metrics(profile, units_per_device);
    let peer = plan_peer_traffic(profile, units_per_device);
    Ok(cluster_cost_streamed(cluster, machine, &metrics, &[], &peer)?.total_ms)
}

/// Device `spec` behind host link `link`'s linearised cost of one unit
/// that stages `inward_words` and makes `io_blocks` block transactions:
/// `(inward_words + outward_words_per_unit)·β + rounds·(blocks_per_unit·t
/// / (k′ℓ) + λ·io_blocks)/γ` — the per-unit rate both the waterfill and
/// the contiguous pack equalise.  `ℓ` is at least 1 here (a block that
/// does not fit is left for pricing to reject), and the rate is clamped
/// positive: a zero rate (free device) would absorb everything, so the
/// waterfill stays finite and pricing decides the rest.
fn unit_rate(
    machine: &AtgpuMachine,
    spec: &GpuSpec,
    link: &LinkParams,
    profile: &ShardProfile,
    inward_words: u64,
    io_blocks: u64,
) -> f64 {
    let p = spec.derived_cost_params();
    let capacity = device_capacity(machine, spec, profile.shared_words).max(spec.k_prime);
    let xfer = (inward_words + profile.outward_words_per_unit) as f64 * link.beta_ms_per_word;
    let compute = (profile.blocks_per_unit as f64 * profile.time_ops as f64 / capacity as f64
        + p.lambda * io_blocks as f64)
        / p.gamma
        * profile.rounds.max(1) as f64;
    (xfer + compute).max(1e-18)
}

/// The per-device linearised cost terms `fixed_d + rate_d · x_d` the
/// waterfill equalises: host-link `α`/broadcast terms plus — new with
/// peer-aware planning — the device's peer send/recv path under the
/// *directed* `peer_links[src][dst]` matrix:
///
/// * **halo**: `(rounds − 1)` exchanges with each index-adjacent device
///   `nb` (assumed occupied), costing `halo_txns·α + halo_words·β` over
///   `peer[d][nb]` (send) *and* `peer[nb][d]` (recv) — peer copies
///   occupy both endpoints;
/// * **merge/scatter, non-owner `d`**: the fixed `α`/fixed-word terms go
///   to `fixed_d`; `merge_words_per_unit·β(d→owner) +
///   scatter_words_per_unit·β(owner→d)` goes to `rate_d`;
/// * **merge/scatter, owner `o`**: receives every merge and sends every
///   scatter, so it pays the per-unit `β̄` (mean over the other
///   devices' directed links) on the `units − x_o` units it does *not*
///   hold — linearised as `fixed_o += per_unit·units` and
///   `rate_o −= per_unit` (clamped positive).
///
/// Compute and per-unit host traffic multiply by `rounds` and 1
/// respectively (staging happens once, the kernel every round); the
/// per-unit rate is [`unit_rate`].
fn linearised_terms(
    cluster: &ClusterSpec,
    machine: &AtgpuMachine,
    profile: &ShardProfile,
    units: u64,
) -> (Vec<f64>, Vec<f64>) {
    let n = cluster.n_devices();
    let r_rounds = profile.rounds.max(1) as f64;
    let mut fixed = Vec::with_capacity(n);
    let mut rate = Vec::with_capacity(n);
    for (spec, link) in cluster.devices.iter().zip(&cluster.host_links) {
        let txns = profile.inward_txns + profile.outward_txns + profile.broadcast_txns;
        fixed.push(link.cost_ms(txns, profile.broadcast_words));
        let (inward, io) = (profile.inward_words_per_unit, profile.io_blocks_per_unit);
        rate.push(unit_rate(machine, spec, link, profile, inward, io));
    }
    let peer = profile.peer;
    if !peer.is_zero() && n > 1 {
        let link_cost = |src: usize, dst: usize, txns: u64, words: u64| -> f64 {
            cluster.peer_links[src][dst].cost_ms(txns, words)
        };
        let exchanges = r_rounds - 1.0;
        let owner = (peer.owner as usize).min(n - 1);
        for d in 0..n {
            if peer.halo_words > 0 && exchanges > 0.0 {
                for nb in [d.checked_sub(1), (d + 1 < n).then_some(d + 1)].into_iter().flatten() {
                    fixed[d] += exchanges
                        * (link_cost(d, nb, peer.halo_txns, peer.halo_words)
                            + link_cost(nb, d, peer.halo_txns, peer.halo_words));
                }
            }
            if d != owner {
                fixed[d] += link_cost(d, owner, peer.merge_txns, peer.merge_words_fixed)
                    + link_cost(owner, d, peer.scatter_txns, 0);
                rate[d] += peer.merge_words_per_unit as f64
                    * cluster.peer_links[d][owner].beta_ms_per_word
                    + peer.scatter_words_per_unit as f64
                        * cluster.peer_links[owner][d].beta_ms_per_word;
            }
        }
        if peer.merge_words_per_unit > 0
            || peer.merge_words_fixed > 0
            || peer.scatter_words_per_unit > 0
        {
            let others: Vec<usize> = (0..n).filter(|&d| d != owner).collect();
            let beta_in =
                others.iter().map(|&d| cluster.peer_links[d][owner].beta_ms_per_word).sum::<f64>()
                    / others.len() as f64;
            let beta_out =
                others.iter().map(|&d| cluster.peer_links[owner][d].beta_ms_per_word).sum::<f64>()
                    / others.len() as f64;
            for &d in &others {
                fixed[owner] += link_cost(d, owner, peer.merge_txns, peer.merge_words_fixed)
                    + link_cost(owner, d, peer.scatter_txns, 0);
            }
            let per_unit = peer.merge_words_per_unit as f64 * beta_in
                + peer.scatter_words_per_unit as f64 * beta_out;
            fixed[owner] += per_unit * units as f64;
            rate[owner] = (rate[owner] - per_unit).max(1e-18);
        }
    }
    (fixed, rate)
}

/// The min–max balanced apportionment: the continuous assignment
/// `x_d ≥ 0, Σ x_d = units` minimising
/// `max_d (fixed_d + rate_d · x_d)` — per-device fixed costs are the
/// transfer-transaction, broadcast **and directed peer-path** terms
/// (see `linearised_terms`), per-unit rates combine the host link's
/// `β`, the peer merge/scatter `β`, and the linearised compute rate
/// `rounds · (blocks_per_unit · t / (k′ℓ) + λ·q_unit) / γ` — rounded to
/// integers by largest remainder.  This is the transfer-aware candidate;
/// the planner still *prices* it (wave quantisation and all) before
/// preferring it.
///
/// Row-imbalanced profiles (non-empty `unit_inward_words` /
/// `unit_io_blocks`) take the contiguous greedy-pack path instead: the
/// same min–max objective, but units keep their global order and each
/// device takes a prefix of what remains, packed by bisection on the
/// bottleneck level — contiguity is what the sharded builders require.
pub fn balanced_units(
    cluster: &ClusterSpec,
    machine: &AtgpuMachine,
    profile: &ShardProfile,
    units: u64,
) -> Vec<u64> {
    let n = cluster.n_devices();
    if n == 0 || units == 0 {
        return vec![0; n];
    }
    let (fixed, rate) = linearised_terms(cluster, machine, profile, units);
    if !profile.unit_inward_words.is_empty() || !profile.unit_io_blocks.is_empty() {
        return balanced_units_hetero(cluster, machine, profile, units, &fixed);
    }

    // Waterfill: find the level T with Σ_d max(0, (T − fixed_d)/rate_d)
    // = units (monotone in T), by bisection.
    let max_fixed = fixed.iter().copied().fold(0.0f64, f64::max);
    let max_rate = rate.iter().copied().fold(0.0f64, f64::max);
    let mut lo = fixed.iter().copied().fold(f64::INFINITY, f64::min);
    let mut hi = max_fixed + units as f64 * max_rate;
    let assigned =
        |t: f64| -> f64 { fixed.iter().zip(&rate).map(|(&f, &r)| ((t - f) / r).max(0.0)).sum() };
    for _ in 0..64 {
        let mid = 0.5 * (lo + hi);
        if assigned(mid) < units as f64 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let level = hi;
    let quotas: Vec<f64> =
        fixed.iter().zip(&rate).map(|(&f, &r)| ((level - f) / r).max(0.0)).collect();
    round_quotas(&quotas, units)
}

/// Contiguous min–max packing for row-imbalanced profiles: device `d`'s
/// per-unit cost of *global* unit `u` is [`unit_rate`] over that unit's
/// `unit_in(u)` and `unit_io(u)`; bisect on the bottleneck level `T` and greedily
/// pack units in order — device `d` keeps taking the next unit while its
/// path stays ≤ `T`.  Feasible iff all units are consumed; the counts at
/// the smallest feasible level are returned (largest-remainder rounding
/// does not apply — the pack is already integral and contiguous).
fn balanced_units_hetero(
    cluster: &ClusterSpec,
    machine: &AtgpuMachine,
    profile: &ShardProfile,
    units: u64,
    fixed: &[f64],
) -> Vec<u64> {
    let n = cluster.n_devices();
    // Per-device cost of one global unit `u`.
    let per_unit: Vec<Vec<f64>> = cluster
        .devices
        .iter()
        .zip(&cluster.host_links)
        .map(|(spec, link)| {
            (0..units)
                .map(|u| {
                    let inw = unit_sum(
                        &profile.unit_inward_words,
                        profile.inward_words_per_unit,
                        u,
                        u + 1,
                    );
                    let io =
                        unit_sum(&profile.unit_io_blocks, profile.io_blocks_per_unit, u, u + 1);
                    unit_rate(machine, spec, link, profile, inw, io)
                })
                .collect()
        })
        .collect();
    // Greedy contiguous pack at level T; returns counts iff feasible.
    let pack = |t: f64| -> Option<Vec<u64>> {
        let mut counts = vec![0u64; n];
        let mut u = 0u64;
        for d in 0..n {
            let mut acc = fixed[d];
            while u < units && acc + per_unit[d][u as usize] <= t {
                acc += per_unit[d][u as usize];
                counts[d] += 1;
                u += 1;
            }
        }
        (u == units).then_some(counts)
    };
    let max_fixed = fixed.iter().copied().fold(0.0f64, f64::max);
    let worst: f64 =
        (0..units as usize).map(|u| per_unit.iter().map(|row| row[u]).fold(0.0f64, f64::max)).sum();
    let mut lo = max_fixed;
    let mut hi = max_fixed + worst;
    if pack(hi).is_none() {
        // Even the loosest level fails only on FP pathologies — fall
        // back to the even split the planner can still price.
        return even_units(units, n);
    }
    for _ in 0..64 {
        let mid = 0.5 * (lo + hi);
        if pack(mid).is_some() {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    pack(hi).unwrap_or_else(|| even_units(units, n))
}

/// The even split: `units / n` each, the first `units mod n` devices one
/// extra.
pub fn even_units(units: u64, n: usize) -> Vec<u64> {
    let n = n as u64;
    (0..n).map(|d| units / n + u64::from(d < units % n)).collect()
}

/// Largest-remainder rounding of fractional quotas to integers summing
/// to `units` (quotas are first rescaled to sum to `units`, so bisection
/// slack cannot leak blocks): every device gets `⌊q_d⌋`, and the
/// leftovers go to the largest fractional remainders (ties to the lower
/// device index) — so a zero-quota device is only drafted in when every
/// other device already took its share.
fn round_quotas(quotas: &[f64], units: u64) -> Vec<u64> {
    let total: f64 = quotas.iter().sum();
    if total <= 0.0 {
        // Degenerate: nothing to apportion by.
        return even_units(units, quotas.len());
    }
    let scaled: Vec<f64> = quotas.iter().map(|q| q * units as f64 / total).collect();
    let mut out: Vec<u64> = scaled.iter().map(|q| (q.floor() as u64).min(units)).collect();
    let assigned: u64 = out.iter().sum();
    // Largest-remainder invariant: units − n ≤ Σ⌊q_d⌋ ≤ units, so at most
    // one leftover per device.  Checked, not assumed: floating-point
    // edges (NaN/inf quotas, quotas rounding across an integer at
    // astronomic unit counts, extreme magnitude skew) can break it either
    // way, and apportioning is then meaningless — fall back to the even
    // split rather than underflow or double-assign; planners feed this
    // adversarial shapes during degraded-mode replanning.
    if assigned > units || (units - assigned) as usize > out.len() {
        return even_units(units, quotas.len());
    }
    let mut order: Vec<usize> = (0..out.len()).collect();
    order.sort_by(|&a, &b| {
        let ra = scaled[a] - scaled[a].floor();
        let rb = scaled[b] - scaled[b].floor();
        rb.partial_cmp(&ra).unwrap_or(std::cmp::Ordering::Equal).then(a.cmp(&b))
    });
    for &d in order.iter().take((units - assigned) as usize) {
        out[d] += 1;
    }
    out
}

/// Apportions `units` proportionally to each device's compute
/// throughput (`k′ · clock`) by largest remainder, so a mixed-generation
/// cluster finishes its waves together instead of idling the fast
/// devices behind the slowest one — blind to everything transfer.
pub fn weighted_units(units: u64, cluster: &ClusterSpec) -> Vec<u64> {
    let weights: Vec<f64> =
        cluster.devices.iter().map(|d| d.k_prime as f64 * d.clock_cycles_per_ms).collect();
    round_quotas(&weights, units)
}

/// `sub_counts` of a [`ClusterSpec::surviving`] sub-cluster, by real
/// device index of the `n`-device cluster (`idx[sub index]`); devices
/// outside the sub-cluster hold nothing.
fn by_real_index(n: usize, idx: &[usize], sub_counts: &[u64]) -> Vec<u64> {
    let mut counts = vec![0u64; n];
    for (&orig, &c) in idx.iter().zip(sub_counts) {
        counts[orig] = c;
    }
    counts
}

/// The **cost-driven planner**: apportions `units` planning units
/// (thread blocks, or coarser units like matmul tile rows — see
/// [`ShardProfile::blocks_per_unit`]) by *pricing* candidate plans
/// through the analytic machinery and keeping the cheapest.
///
/// Candidates: the even split ([`even_units`]), the compute-weighted
/// split ([`weighted_units`]) and the min–max transfer-balanced
/// waterfill ([`balanced_units`]).  **Peer-aware profiles**
/// ([`ShardProfile::has_peer`]) additionally get one *drop-device*
/// candidate per device: the waterfill over the sub-cluster with that
/// device idled — on an asymmetric peer matrix the cheapest plan for a
/// halo or merge workload is often to hand a device with expensive peer
/// edges *nothing* and eat the extra compute on the rest, a shape no
/// all-devices waterfill can reach.
///
/// Each candidate is priced with [`plan_cost`] — per-device host-link
/// `α`/`β`, wave factors, the max-over-devices round shape **and the
/// candidate's own peer traffic** (halo rows only between devices that
/// actually hold units) all in the objective — so the modeled time of
/// the returned plan is never above the even or compute-weighted plans'.
/// Ties keep the earlier candidate (even before weighted before balanced
/// before drop-device); candidates that fail to price (e.g. blocks that
/// cannot fit the machine) are skipped, and if none price the even split
/// is returned.
pub fn planned_units(
    units: u64,
    cluster: &ClusterSpec,
    machine: &AtgpuMachine,
    profile: &ShardProfile,
) -> Vec<u64> {
    let n = cluster.n_devices();
    let mut candidates = vec![
        even_units(units, n),
        weighted_units(units, cluster),
        balanced_units(cluster, machine, profile, units),
    ];
    if profile.has_peer() && n > 1 {
        let peer = profile.peer;
        let has_merge = peer.merge_words_per_unit > 0
            || peer.merge_words_fixed > 0
            || peer.scatter_words_per_unit > 0;
        for skip in 0..n {
            // The merge owner must stay addressable; every other device
            // is a candidate to idle.
            if has_merge && skip == peer.owner as usize {
                continue;
            }
            let mut alive = vec![true; n];
            alive[skip] = false;
            let (sub, idx) = cluster.surviving(&alive);
            let mut sub_profile = profile.clone();
            if has_merge {
                let Some(sub_owner) = idx.iter().position(|&o| o == peer.owner as usize) else {
                    continue;
                };
                sub_profile.peer.owner = sub_owner as u32;
            }
            let sub_counts = balanced_units(&sub, machine, &sub_profile, units);
            candidates.push(by_real_index(n, &idx, &sub_counts));
        }
    }
    let mut best: Option<(usize, f64)> = None;
    for (i, counts) in candidates.iter().enumerate() {
        let Ok(cost) = plan_cost(cluster, machine, profile, counts) else { continue };
        if best.map(|(_, b)| cost < b - 1e-12).unwrap_or(true) {
            best = Some((i, cost));
        }
    }
    match best {
        Some((i, _)) => candidates.swap_remove(i),
        None => even_units(units, n),
    }
}

/// The **takeover rule**: how a dead device's `dead_units` thread blocks
/// are re-apportioned over the `alive` devices — the cost-driven planner
/// over the surviving sub-cluster, pricing the streaming profile (the
/// takeover knows the blocks, not the workload).  Counts are by *real*
/// device index, zero at every dead device.  The simulator runs exactly
/// these blocks on each survivor, and [`degraded_loss`] prices them.
pub fn takeover_units(
    cluster: &ClusterSpec,
    machine: &AtgpuMachine,
    alive: &[bool],
    dead_units: u64,
) -> Vec<u64> {
    let (sub, idx) = cluster.surviving(alive);
    let profile = ShardProfile::streaming(machine.b);
    by_real_index(alive.len(), &idx, &planned_units(dead_units, &sub, machine, &profile))
}

/// The [`DegradedLoss`] of `device` dying at the start of `at_round`
/// while holding `dead_units` thread blocks per round: the takeover
/// fractions are [`takeover_units`] over every other device, and the
/// checkpoint replay is billed as one transaction of `replay_words`.  A
/// device that holds no blocks is planned as holding one, so the
/// fractions still sum to 1 (they scale nothing).
pub fn degraded_loss(
    cluster: &ClusterSpec,
    machine: &AtgpuMachine,
    device: usize,
    at_round: usize,
    dead_units: u64,
    replay_words: u64,
) -> DegradedLoss {
    let alive: Vec<bool> = (0..cluster.n_devices()).map(|d| d != device).collect();
    let units = dead_units.max(1);
    let takeover = takeover_units(cluster, machine, &alive, units)
        .iter()
        .map(|&c| c as f64 / units as f64)
        .collect();
    DegradedLoss { device, at_round, replay_words, replay_txns: 1, takeover }
}

/// Builds the per-device metrics and double-buffered stream schedules of
/// a chunked pipeline: `R_d = ⌈units_d / chunk⌉` chunks per device, one
/// prologue round (broadcast + chunk 0's upload, stream 0), then each
/// round uploads the next chunk on **stream 1** while the current
/// chunk's kernel and download run on stream 0 — exactly the ping-pong
/// shape the streamed builders emit.
///
/// The pipeline path is deliberately **peer-blind and single-round**: it
/// models the streamed slab builders, none of which carry peer traffic
/// or iterate kernels.  A profile's `peer`/`rounds`/`unit_*` extensions
/// are ignored here; [`plan_cost`] is the peer-aware objective.
fn pipeline_tables(
    profile: &ShardProfile,
    units_per_device: &[u64],
    chunk_units: u64,
) -> (Vec<AlgoMetrics>, Vec<Vec<RoundSchedule>>) {
    let chunk = chunk_units.max(1);
    let rounds = units_per_device.iter().map(|&u| u.div_ceil(chunk)).max().unwrap_or(0) as usize;
    let mut metrics = Vec::with_capacity(units_per_device.len());
    let mut schedules = Vec::with_capacity(units_per_device.len());
    for &total in units_per_device {
        let chunks = total.div_ceil(chunk) as usize;
        let chunk_at = |i: usize| -> u64 {
            let off = i as u64 * chunk;
            chunk.min(total.saturating_sub(off))
        };
        let mut rows = Vec::with_capacity(rounds + 1);
        let mut scheds = Vec::with_capacity(rounds + 1);
        for r in 0..=rounds {
            let mut row = RoundMetrics::default();
            let mut items = Vec::new();
            // Upload of chunk `r` (prologue uploads chunk 0 on stream 0,
            // nothing to hide behind yet; later uploads ride stream 1).
            if r < chunks {
                let up = profile.inward_words_per_unit * chunk_at(r)
                    + if r == 0 { profile.broadcast_words } else { 0 };
                let txns = profile.inward_txns + if r == 0 { profile.broadcast_txns } else { 0 };
                row.inward_words += up;
                row.inward_txns += txns;
                items.push(StreamItem::TransferIn { stream: u32::from(r > 0), txns, words: up });
            }
            // Kernel + download of chunk `r − 1`.
            if r > 0 && r - 1 < chunks {
                let cur = chunk_at(r - 1);
                row.time = profile.time_ops;
                row.io_blocks = profile.io_blocks_per_unit * cur;
                row.shared_words = profile.shared_words;
                row.blocks_launched = profile.blocks_per_unit * cur;
                row.outward_words = profile.outward_words_per_unit * cur;
                row.outward_txns = profile.outward_txns;
                items.push(StreamItem::Kernel);
                items.push(StreamItem::TransferOut {
                    stream: 0,
                    txns: profile.outward_txns,
                    words: row.outward_words,
                });
            }
            rows.push(row);
            scheds.push(RoundSchedule { items });
        }
        metrics.push(AlgoMetrics::new(rows));
        schedules.push(scheds);
    }
    (metrics, schedules)
}

/// Prices a double-buffered chunked pipeline over the cluster: the
/// modeled total of `⌈units/chunk⌉ + 1` rounds per device with chunk
/// `r + 1`'s upload overlapping chunk `r`'s kernel + download, computed
/// by [`cluster_cost_streamed`] over the generated stream schedules.
pub fn pipeline_cost(
    cluster: &ClusterSpec,
    machine: &AtgpuMachine,
    profile: &ShardProfile,
    units_per_device: &[u64],
    chunk_units: u64,
) -> Result<f64, ModelError> {
    let (metrics, schedules) = pipeline_tables(profile, units_per_device, chunk_units);
    Ok(cluster_cost_streamed(cluster, machine, &metrics, &schedules, &[])?.total_ms)
}

/// The chunk-size solver: scans `candidates` (planning units per chunk)
/// and returns the one whose modeled pipelined time over the cluster is
/// lowest (ties to the **larger** chunk — fewer rounds means fewer `σ`
/// and `α` payments at equal modeled time).  With per-round transfer and
/// kernel costs both affine in the chunk, the argmin sits where
/// `T_I ≈ kernel + T_O` per round — the double-buffering balance — while
/// wave quantisation and the `σ`/`α` amortisation are priced exactly
/// rather than assumed.  Falls back to the largest candidate if every
/// candidate fails to price (e.g. blocks that cannot fit).
pub fn solve_chunk_units(
    cluster: &ClusterSpec,
    machine: &AtgpuMachine,
    profile: &ShardProfile,
    units_per_device: &[u64],
    candidates: &[u64],
) -> u64 {
    let mut best: Option<(u64, f64)> = None;
    for &c in candidates {
        if c == 0 {
            continue;
        }
        let Ok(cost) = pipeline_cost(cluster, machine, profile, units_per_device, c) else {
            continue;
        };
        let better = match best {
            None => true,
            Some((bc, bcost)) => cost < bcost - 1e-12 || ((cost - bcost).abs() <= 1e-12 && c > bc),
        };
        if better {
            best = Some((c, cost));
        }
    }
    best.map(|(c, _)| c).unwrap_or_else(|| candidates.iter().copied().max().unwrap_or(1))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use crate::params::{GpuSpec, LinkParams};

    fn machine() -> AtgpuMachine {
        AtgpuMachine::new(1 << 20, 32, 12_288, 1 << 26).unwrap()
    }

    fn cluster(n: usize) -> ClusterSpec {
        ClusterSpec::homogeneous(n, GpuSpec::gtx650_like())
    }

    #[test]
    fn streaming_profile_is_transfer_heavy() {
        let p = ShardProfile::streaming(32);
        assert_eq!(p.inward_words_per_unit, 64);
        assert_eq!(p.outward_words_per_unit, 32);
        assert_eq!(p.blocks_per_unit, 1);
    }

    #[test]
    fn plan_cost_of_even_split_matches_cluster_cost() {
        let c = cluster(2);
        let p = ShardProfile::streaming(32);
        let counts = [50u64, 50];
        let cost = plan_cost(&c, &machine(), &p, &counts).unwrap();
        let metrics = plan_metrics(&p, &counts);
        let direct = cluster_cost_streamed(&c, &machine(), &metrics, &[], &[]).unwrap();
        assert!((cost - direct.total_ms).abs() < 1e-12);
    }

    #[test]
    fn balanced_units_equalise_identical_devices() {
        let c = cluster(4);
        let out = balanced_units(&c, &machine(), &ShardProfile::streaming(32), 100);
        assert_eq!(out.iter().sum::<u64>(), 100);
        for &x in &out {
            assert!((24..=26).contains(&x), "{out:?}");
        }
    }

    #[test]
    fn balanced_units_starve_the_slow_link() {
        // Identical devices, one 8x-slower host link: the slow-link
        // device must receive well under an even share on a streaming
        // (transfer-bound) profile.
        let mut c = cluster(2);
        c.host_links[1] = LinkParams {
            alpha_ms: c.host_links[1].alpha_ms * 8.0,
            beta_ms_per_word: c.host_links[1].beta_ms_per_word * 8.0,
        };
        let out = balanced_units(&c, &machine(), &ShardProfile::streaming(32), 1000);
        assert_eq!(out.iter().sum::<u64>(), 1000);
        assert!(out[1] < 300, "slow-link device over-assigned: {out:?}");
        assert!(out[0] > 700, "{out:?}");
    }

    #[test]
    fn balanced_units_follow_compute_on_compute_bound_profiles() {
        // A compute-heavy profile (huge t, no per-unit traffic) on a
        // mixed-k′ cluster: apportionment tracks k′ like the old
        // weighted planner.
        let mut c = cluster(2);
        c.devices[1].k_prime = 6; // 3x device 0
        let p = ShardProfile { time_ops: 1_000_000, shared_words: 96, ..ShardProfile::default() };
        let out = balanced_units(&c, &machine(), &p, 100);
        assert_eq!(out.iter().sum::<u64>(), 100);
        assert!(out[1] > 2 * out[0], "fast device under-assigned: {out:?}");
    }

    #[test]
    fn round_quotas_boundary_leftovers() {
        // leftovers == n − 1: every device but one gains a unit.
        let out = round_quotas(&[1.0, 1.0, 1.0], 5);
        assert_eq!(out.iter().sum::<u64>(), 5);
        assert_eq!(out.iter().filter(|&&x| x == 2).count(), 2);
    }

    #[test]
    fn pipeline_cost_beats_serial_on_streaming_profiles() {
        // Double buffering must price below the one-shot serial round
        // when transfers and kernel are comparable.
        let c = cluster(1);
        let p = ShardProfile::streaming(32);
        let serial = plan_cost(&c, &machine(), &p, &[4096]).unwrap();
        let piped = pipeline_cost(&c, &machine(), &p, &[4096], 512).unwrap();
        // The pipeline pays extra σ/α per round but hides uploads; on
        // this transfer-bound profile it must stay within the serial
        // cost's neighbourhood and the solver picks the best chunk.
        let best = solve_chunk_units(&c, &machine(), &p, &[4096], &[64, 128, 256, 512, 1024, 2048]);
        let best_cost = pipeline_cost(&c, &machine(), &p, &[4096], best).unwrap();
        assert!(best_cost <= piped + 1e-12);
        assert!(best_cost < serial, "pipelined {best_cost} vs serial {serial}");
    }

    #[test]
    fn solver_ties_prefer_larger_chunks() {
        // With zero per-round fixed costs the total is chunk-invariant;
        // the solver must then keep the largest candidate.
        let mut c = cluster(1);
        c.sync_ms = 0.0;
        c.host_links[0].alpha_ms = 0.0;
        c.devices[0].xfer_alpha_ms = 0.0;
        c.devices[0].sync_ms = 0.0;
        let mut p = ShardProfile::streaming(32);
        p.inward_txns = 0;
        p.outward_txns = 0;
        let best = solve_chunk_units(&c, &machine(), &p, &[1024], &[256, 512]);
        assert_eq!(best, 512);
    }

    fn stencil_like(rounds: u64) -> ShardProfile {
        ShardProfile {
            time_ops: 11,
            io_blocks_per_unit: 2,
            inward_words_per_unit: 32,
            inward_txns: 1,
            outward_words_per_unit: 32,
            outward_txns: 1,
            shared_words: 34,
            rounds,
            peer: PeerProfile { halo_words: 2, halo_txns: 1, ..PeerProfile::default() },
            ..ShardProfile::default()
        }
    }

    #[test]
    fn peer_traffic_rows_match_rounds_and_occupancy() {
        let p = stencil_like(4);
        // Device 1 idle: halo pairs skip it — devices 0 and 2 are the
        // consecutive occupied pair.
        let rows = plan_peer_traffic(&p, &[10, 0, 10]);
        assert_eq!(rows.len(), 4);
        assert!(rows[0].is_empty(), "no halo before the first round");
        for row in &rows[1..] {
            assert_eq!(row.len(), 2, "{row:?}");
            assert!(row.iter().any(|t| t.src == 0 && t.dst == 2 && t.words == 2));
            assert!(row.iter().any(|t| t.src == 2 && t.dst == 0 && t.words == 2));
        }
        // Zero-peer profiles synthesise nothing.
        assert!(plan_peer_traffic(&p.without_peer(), &[10, 0, 10]).iter().all(Vec::is_empty));
    }

    #[test]
    fn merge_and_scatter_rows_land_in_the_last_round() {
        let p = ShardProfile {
            peer: PeerProfile {
                merge_words_per_unit: 4,
                merge_words_fixed: 8,
                merge_txns: 1,
                scatter_words_per_unit: 2,
                scatter_txns: 1,
                owner: 0,
                ..PeerProfile::default()
            },
            rounds: 2,
            ..ShardProfile::streaming(32)
        };
        let rows = plan_peer_traffic(&p, &[5, 3, 0]);
        assert!(rows[0].is_empty());
        // Device 1 merges 8 + 4·3 words to owner 0 and receives 2·3 back;
        // device 2 holds nothing, device 0 is the owner.
        assert_eq!(rows[1].len(), 2);
        assert!(rows[1].iter().any(|t| t.src == 1 && t.dst == 0 && t.words == 20 && t.txns == 1));
        assert!(rows[1].iter().any(|t| t.src == 0 && t.dst == 1 && t.words == 6 && t.txns == 1));
    }

    #[test]
    fn plan_cost_prices_peer_traffic() {
        // The same apportionment must price strictly higher once the
        // profile declares halo traffic — the rows are no longer dropped.
        let c = cluster(3);
        let p = stencil_like(6);
        let counts = [40u64, 40, 40];
        let aware = plan_cost(&c, &machine(), &p, &counts).unwrap();
        let blind = plan_cost(&c, &machine(), &p.without_peer(), &counts).unwrap();
        assert!(aware > blind, "aware {aware} vs blind {blind}");
    }

    #[test]
    fn balanced_units_avoid_expensive_merge_paths() {
        // Histogram-shaped merge to owner 0; device 2's directed link to
        // the owner is 50x more expensive per word, so the waterfill must
        // hand it fewer units than device 1.
        let mut c = cluster(3);
        c.peer_links[2][0] = LinkParams {
            alpha_ms: c.peer_links[2][0].alpha_ms,
            beta_ms_per_word: c.peer_links[2][0].beta_ms_per_word * 50.0,
        };
        let p = ShardProfile {
            peer: PeerProfile {
                merge_words_per_unit: 64,
                merge_txns: 1,
                owner: 0,
                ..PeerProfile::default()
            },
            ..ShardProfile::streaming(32)
        };
        let out = balanced_units(&c, &machine(), &p, 900);
        assert_eq!(out.iter().sum::<u64>(), 900);
        assert!(out[2] < out[1], "expensive merge path over-assigned: {out:?}");
    }

    #[test]
    fn hetero_pack_is_contiguous_and_weight_aware() {
        // Units 0..16 are 100x heavier than units 16..64 (front-loaded
        // row weights): the first device must take fewer units than an
        // even split, later devices more — while counts stay contiguous
        // by construction and sum exactly.
        let c = cluster(4);
        let mut weights = vec![3200u64; 16];
        weights.extend(std::iter::repeat_n(32u64, 48));
        let p = ShardProfile { unit_inward_words: weights, ..ShardProfile::streaming(32) };
        let out = balanced_units(&c, &machine(), &p, 64);
        assert_eq!(out.iter().sum::<u64>(), 64);
        assert!(out[0] < 16, "heavy prefix over-assigned: {out:?}");
        assert!(out[3] > 16, "light tail under-assigned: {out:?}");
    }

    #[test]
    fn multi_round_metrics_stage_once_and_drain_once() {
        let p = stencil_like(5);
        let metrics = plan_metrics(&p, &[8, 8]);
        for m in &metrics {
            assert_eq!(m.rounds.len(), 5);
            assert!(m.rounds.iter().skip(1).all(|r| r.inward_words == 0));
            assert!(m.rounds.iter().take(4).all(|r| r.outward_words == 0));
            assert_eq!(m.rounds[0].inward_words, 8 * 32);
            assert_eq!(m.rounds[4].outward_words, 8 * 32);
            assert!(m.rounds.iter().all(|r| r.time == 11));
        }
    }

    /// Losing a device that holds no blocks is priced, not refused: past
    /// the last round it is the fault-free cost bit for bit, and before
    /// it the only extra is the replay's one transaction on the heir's
    /// link (the idle device stages nothing for the survivor to pay).
    #[test]
    fn losing_an_idle_device_prices_as_the_fault_free_cost() {
        use crate::cost::{cluster_cost_degraded, cluster_cost_streamed};
        let machine = AtgpuMachine::gtx650_like();
        let mut cluster = cluster(2);
        cluster.host_links[1] = cluster.host_links[1].scaled(8.0);
        let busy = RoundMetrics {
            time: 40,
            io_blocks: 96,
            global_words: 4096,
            shared_words: 32,
            inward_words: 1024,
            inward_txns: 1,
            outward_words: 1024,
            outward_txns: 1,
            blocks_launched: 32,
        };
        let idle = RoundMetrics { global_words: 4096, ..RoundMetrics::default() };
        let rounds = 3;
        let per_device =
            [AlgoMetrics::new(vec![busy; rounds]), AlgoMetrics::new(vec![idle; rounds])];
        let free = cluster_cost_streamed(&cluster, &machine, &per_device, &[], &[]).unwrap();
        for at_round in [0, 1, 3] {
            let loss = degraded_loss(&cluster, &machine, 1, at_round, 0, 0);
            assert_eq!(loss.takeover, vec![1.0, 0.0], "round {at_round}");
            let degraded = cluster_cost_degraded(&cluster, &machine, &per_device, &[], &loss);
            let total = degraded.unwrap().total_ms;
            if at_round >= rounds {
                assert_eq!(total.to_bits(), free.total_ms.to_bits(), "round {at_round}");
            } else {
                let replay = cluster.host_links[0].alpha_ms;
                assert!(
                    (total - free.total_ms - replay).abs() < 1e-12,
                    "round {at_round}: {total}"
                );
            }
        }
    }

    #[test]
    fn pipeline_tables_shapes_are_consistent() {
        let p = ShardProfile::streaming(32);
        let (metrics, schedules) = pipeline_tables(&p, &[10, 4], 4);
        // max chunks = ceil(10/4) = 3 → 4 rounds.
        assert!(metrics.iter().all(|m| m.rounds.len() == 4));
        assert!(schedules.iter().all(|s| s.len() == 4));
        // Device 0's units: 4 + 4 + 2.
        let words: u64 = metrics[0].rounds.iter().map(|r| r.inward_words).sum();
        assert_eq!(words, p.inward_words_per_unit * 10);
        let out: u64 = metrics[0].rounds.iter().map(|r| r.outward_words).sum();
        assert_eq!(out, p.outward_words_per_unit * 10);
        // Prologue upload is stream 0, later uploads stream 1.
        assert!(matches!(schedules[0][0].items[0], StreamItem::TransferIn { stream: 0, .. }));
        assert!(matches!(schedules[0][1].items[0], StreamItem::TransferIn { stream: 1, .. }));
    }
}
