//! # atgpu-sim — a discrete-event GPU simulator
//!
//! This crate is the **hardware substitute** for the paper's NVIDIA GTX
//! 650 testbed: a functional *and* timing simulator for ATGPU kernel IR.
//! Where the abstract model deliberately simplifies, the simulator keeps
//! the microarchitectural behaviour the model abstracts away — which is
//! exactly what makes "model prediction vs simulated observation" a
//! faithful analogue of the paper's "model prediction vs GTX 650
//! measurement":
//!
//! | Behaviour | Model | Simulator |
//! |---|---|---|
//! | Warp scheduling / latency hiding | charged `λ` per access | warps overlap memory stalls with other warps' issue slots |
//! | DRAM bandwidth | unmodelled | memory controller with issue-rate limit and queueing |
//! | Bank conflicts | assumed absent | measured and serialised |
//! | Divergence | both arms always charged | arms with no active lanes are skipped (as real SIMT hardware does) |
//! | Transfer | `Î·α + I·β` | `α + β·words` per transaction, optional noise |
//! | Occupancy | `ℓ = min(⌊M/m⌋, H)` | blocks resident per MP, MPs filled depth-first, refilled as blocks retire |
//!
//! ## Compile → execute pipeline
//!
//! Kernel launches flow through a compile-then-execute pipeline: the
//! structured IR is lowered **once per launch** into a flat micro-op
//! program with precomputed access shapes, which every thread block then
//! executes allocation-free:
//!
//! ```text
//!           ┌ once per launch ─────────────┐   ┌ per thread block ──────────────┐
//!  Kernel ──► uop::CompiledKernel::compile ├───► engine::BlockExec (flat pc,    ├──► StepEvents
//!  (Instr    │  · flatten Repeat/Pred into │   │   arm stack, whole rows under  │    │
//!   tree)    │    jump-targeted Vec<Uop>   │   │   any mask, fixed scratch)     │    ▼
//!            │  · classify each site:      │   │                                │  mp::Mp (min (ready,
//!            │    unit/bcast/strided/dyn   │   │  timing is computed from each  │  index) key tree) →
//!            │  · bake a shared site's     │   │  access's row by the model's   │  device (run to the
//!            │    degree under its mask    │   │  two rules (atgpu_ir::affine)  │  horizon) → driver
//!            │                             │   │  — the one source of an event  │  (transfers, rounds)
//!            └──────────────────────────────┘   └────────────────────────────────┘
//! ```
//!
//! The pre-engine tree-walking interpreter ([`warp::WarpExec`]) is
//! retained as the executable reference semantics: differential property
//! tests pit the two against each other instruction by instruction, and
//! [`EngineSel::Reference`] selects it at the launch-level doors
//! ([`Device::run_kernel_with`], [`Device::run_shard`],
//! [`Cluster::run_sharded_kernel`]).  A program run always executes the
//! micro-op engine.
//!
//! A kernel enters execution in two places — a kernel-cache miss and the
//! reference interpreter's per-launch build — and both check
//! [`atgpu_ir::validate::validate_launch`] first: a kernel the IR
//! validator refuses is [`SimError::InvalidKernel`], never lowered, run
//! or cached.
//!
//! ## Cross-launch kernel cache
//!
//! "Once per launch" is actually "once per kernel shape": every
//! [`Device`] owns a [`cache::KernelCache`] mapping a **structural**
//! kernel hash ([`atgpu_ir::Kernel::hash_structure`] — instruction body,
//! grid and shared footprint; the *name* is excluded) plus the launch
//! parameters `(buffer bases, b)` to a [`cache::CacheEntry`]: the compiled
//! micro-op program and what it was compiled from — what a hit reuses is
//! the lowering.  Callers relaunching one kernel shape
//! thousands of times (the repo benchmark's `launch_storm` relaunch
//! half, `serve_mix`'s repeated submits) therefore compile once — with
//! **bit-identical** memory, events and statistics to a cold launch,
//! which is a miss on a fresh [`Device`] (`tests/cache_differential.rs`
//! proves this across engines and clusters):
//!
//! * **keying** — a key is a hash, and a hit is confirmed against the
//!   entry's structure, complete base vector and `b`
//!   ([`cache::CacheEntry::compiled_for`]), so a hash collision alone can
//!   never alias two kernels; mutating one instruction, the grid, the
//!   shared footprint or the memory layout misses; a relaunch of the
//!   device's previous kernel reuses that launch's entry after one
//!   structural comparison, without hashing (same counters either way);
//! * **invalidation** — entries are immutable; stale shapes simply age
//!   out of the FIFO bound, [`cache::DEFAULT_CACHE_CAPACITY`] for every
//!   device's whole life — the cache is not a setting, and a device
//!   holds none;
//! * **observability** — per-device hit/miss/entry counters surface as
//!   [`device::DeviceStats`] via [`Device::stats`],
//!   [`SimReport::device_stats`] and
//!   [`cluster::ClusterSimReport::device_stats`], and are reported by
//!   the repo benchmark (`sim.cache_hits` / `sim.cache_misses`).
//!
//! The reference interpreter bypasses the cache entirely: it exists to
//! re-derive everything from the IR tree each time.
//!
//! ## Multi-device clusters
//!
//! [`cluster`] scales the single device to `N` GPUs: each device owns a
//! replica of the program's global-memory layout and sits behind its own
//! links, priced per edge with Boyer et al.'s affine model
//! (`Î·α + I·β`):
//!
//! | link | parameters | used by |
//! |---|---|---|
//! | host ↔ device `d` | `ClusterSpec::host_links[d]` (`α`, `β`) | `TransferIn`/`TransferOut { device: d }` |
//! | device `s` → device `d` | `ClusterSpec::peer_links[s][d]` (directed, asymmetry allowed) | `TransferPeer { src: s, dst: d }` |
//! | cluster barrier | `ClusterSpec::sync_ms` (`σ`, per round) | every round |
//!
//! A `LaunchSharded` step splits one grid into contiguous block ranges
//! ([`atgpu_ir::Shard`], planned by [`atgpu_model::plan`] or by hand).
//! A device's replica is written only by its own shards, and the model
//! leaves cross-block visibility inside a launch undefined, so a launch
//! keeps a write log **only where something reads it**.  By default
//! nothing does: every device runs its shards back to back in plan
//! order, written straight through to its replica — the same launch a
//! lone device runs, which is why [`run_program`] *is*
//! [`run_cluster_program`] on a one-device cluster, seen from device 0.
//! Under a fault plan on more than one device (whose recovery journal
//! stamps every written word) each shard instead executes against its
//! device's pre-launch memory with writes deferred, and the logs are
//! journaled and merged in thread-block order through
//! [`device::apply_write_log`]; the race detector reads the same log at
//! the launch level ([`Device::run_kernel_with`],
//! [`Cluster::run_sharded_kernel`]).  Either way a
//! sharded launch is **bit-identical** to the single-device launch
//! regardless of device count, shard boundaries or thread interleaving
//! (`tests/cluster_differential.rs` proves this over randomized kernels
//! and plans at the launch level; `tests/roster_plans.rs` pins the two
//! disciplines equal on every shipped workload × plan).  With
//! [`SimConfig::device_threads`] (default on multicore hosts) whole
//! devices of one launch are dealt to at most
//! [`cluster::host_parallelism`] scoped OS threads — a worker holds its
//! devices' replicas for the launch (written through), or only reads
//! them (logged), runs each device's shards in plan order, and the
//! statistics are booked in plan order, so the launch is parallel on the
//! host with the identical report (`tests/stream_differential.rs`).
//! That is the only host fan-out: a device simulates its own MPs on one
//! thread, against one memory controller and one clock.  Observed round
//! time is `σ + max_d(device d's stream timeline)` — the slowest
//! device's critical path — mirrored analytically by the cost core,
//! [`atgpu_model::cost::cluster_cost_streamed`] (all-serial devices pass
//! `&[]` schedules).
//!
//! ## Shard plans
//!
//! The simulator executes plans; it does not make them.  Apportionment —
//! the even, compute-weighted and cost-driven planners, the chunk-size
//! solver and the takeover rule for a lost device — lives in
//! [`atgpu_model::plan`], which decides in unit counts per device.
//! [`cluster::even_shards`], [`cluster::weighted_shards`] and
//! [`cluster::planned_shards`] are those planners' counts turned into
//! the contiguous [`atgpu_ir::Shard`] ranges a `LaunchSharded` step
//! takes ([`atgpu_ir::counts_to_shards`]; [`atgpu_ir::shard_counts`] is
//! the inverse).
//!
//! ## Stream semantics (copy/compute overlap)
//!
//! Transfers carry a **stream** id and rounds may contain
//! `SyncStream`/`SyncDevice` steps ([`atgpu_ir::HostStep`]); kernel
//! launches always run on **stream 0**, the compute stream.  Streams
//! change *when* work is modelled to happen, never *what* happens:
//!
//! * **What overlaps** — operations on different streams of one device
//!   run concurrently unless they share a hardware resource: one
//!   host→device DMA engine, one compute engine, one device→host DMA
//!   engine and one peer engine per device
//!   ([`atgpu_model::StreamResource`]).  So the next chunk's upload
//!   hides behind this chunk's kernel and download (double buffering),
//!   but two same-direction copies never overlap each other, and
//!   everything on one stream is serial.
//! * **What syncs** — `SyncStream(s)` blocks later steps of the round
//!   until everything enqueued on `s` finished; `SyncDevice` waits for
//!   all streams; every round boundary is an implicit device-wide sync.
//! * **How round time is computed** — each round builds a per-device
//!   [`atgpu_model::StreamTimeline`]: an operation starts at
//!   `max(stream ready, resource ready, sync floor)` and the round's
//!   time is when the last operation finishes — the max over per-stream
//!   serial chains between sync points.  A program that keeps everything
//!   on stream 0 reproduces the serial `T_I + kernel + T_O` exactly, and
//!   [`driver::RoundObservation`] reports both (`stream_ms` vs
//!   `serial_ms`).
//!
//! Functional execution always follows host-step order, so a
//! mis-pipelined program (kernel overlapping the upload it depends on)
//! still computes deterministically correct results — its *timing claim*
//! is simply unrealizable on real hardware.  Keeping dependent work on
//! one stream (or inserting syncs) is the program's responsibility,
//! exactly as in CUDA; `tests/stream_differential.rs` proves streamed
//! programs bit-identical to their serial de-streamed forms.
//!
//! ```rust
//! use atgpu_algos::ooc::OocVecAdd;
//! use atgpu_model::{AtgpuMachine, GpuSpec};
//! use atgpu_sim::{run_program, SimConfig};
//!
//! let machine = AtgpuMachine::gtx650_like();
//! let spec = GpuSpec::gtx650_like();
//! // A hand-written double-buffered ooc vecadd: chunk r+1's upload is
//! // enqueued on stream 1 under chunk r's kernel + download.
//! let built = OocVecAdd::new(1 << 14, 1 << 12, 1).build_streamed(&machine).unwrap();
//! let r = run_program(&built.program, built.inputs.clone(), &machine, &spec,
//!                     &SimConfig::default()).unwrap();
//! // The stream-aware critical path beats the serial component sum …
//! assert!(r.total_ms() < r.serial_ms());
//! // … and each round reports both, so the overlap is observable.
//! assert!(r.rounds.iter().all(|o| o.stream_ms <= o.serial_ms() + 1e-12));
//! ```
//!
//! ## Fault model & recovery
//!
//! [`fault`] injects **seeded, deterministic** fault events into a run
//! through [`SimConfig::fault`].  A [`fault::FaultPlan`] is data — a
//! seed plus a list of [`fault::FaultEvent`]s — so every chaos run
//! replays exactly, and an **empty plan is bit-identical** (memory,
//! stats, timing) to a build with fault injection absent: the runtime
//! is only constructed when events exist
//! (`tests/chaos_differential.rs` pins this).  Four event kinds:
//!
//! | event | effect | recovery | pricing |
//! |---|---|---|---|
//! | `TransferDrop { edge, nth }` | the nth *attempt* on a link fails | retry with exponential backoff | every attempt pays the full affine transfer cost; waits of `σ·2ᵏ` accumulate as `backoff_ms` |
//! | `LinkDegraded { edge, factor, window }` | attempts in the round window cost `× factor` | none needed (slow, not wrong) | multiplies each attempt's cost |
//! | `Straggler { device, clock_factor }` | device's kernels run `× clock_factor` slower | none needed | multiplies kernel milliseconds |
//! | `DeviceDown { device, at_round }` | device dies at the start of `at_round` | re-apportionment over survivors | journal replay + takeover shards, priced per survivor link |
//!
//! Retry counts are **exact and recomputable**: drops are indexed by
//! attempt number per edge, so a mirror [`fault::FaultRuntime`] predicts
//! `retries`/`backoff_ms` ([`DeviceStats`], per-round observations) to
//! the counter:
//!
//! ```rust
//! use atgpu_algos::{vecadd::VecAdd, Workload};
//! use atgpu_model::{AtgpuMachine, ClusterSpec, GpuSpec};
//! use atgpu_sim::{run_cluster_program, FaultEvent, FaultPlan, LinkEdge, SimConfig};
//!
//! let machine = AtgpuMachine::gtx650_like();
//! let cluster = ClusterSpec::homogeneous(2, GpuSpec::gtx650_like());
//! let built = VecAdd::new(32 * 8, 7).build_sharded(&machine, 2).unwrap();
//! let run = |sim: &SimConfig| {
//!     run_cluster_program(&built.program, built.inputs.clone(), &machine,
//!                         &cluster, sim).unwrap()
//! };
//! let base = run(&SimConfig::default());
//!
//! // Drop device 0's first two host-link transfer attempts: the driver
//! // retries with exponential backoff and the answer cannot change.
//! let mut plan = FaultPlan::new(0);
//! plan.push(FaultEvent::TransferDrop { edge: LinkEdge::Host(0), nth: 0 });
//! plan.push(FaultEvent::TransferDrop { edge: LinkEdge::Host(0), nth: 1 });
//! let faulted = run(&SimConfig { fault: plan, ..SimConfig::default() });
//!
//! assert_eq!(faulted.output(built.outputs[0]), base.output(built.outputs[0]));
//! // Two scheduled drops are exactly two retries — not a distribution.
//! assert_eq!(faulted.device_stats_total().retries, 2);
//! // Every failed attempt and backoff wait is priced into wall-clock.
//! assert!(faulted.total_ms() > base.total_ms());
//! ```
//!
//! **Device loss** is survived by replanning, and the answer provably
//! does not change.  While faults are active on more than one device,
//! every operation that writes a replica (an upload, a peer copy, a
//! launch's merged write log) stamps the words it wrote with a
//! cluster-global sequence number — one `u64` beside each replica word,
//! so the journal is bounded by the memory size however long the run.
//! A dead device's replica is never written again, which makes it its
//! own last-write map.  When device `d` dies at the start of a round:
//!
//! 1. each survivor merges `d`'s replica by **last-write-wins on the
//!    stamps** — restoring exactly the words where `d` held the latest
//!    value, and taking their stamps — counted in
//!    `DeviceStats::recoveries`, the transfer priced as one inward
//!    transaction (`α + β·words_replayed`) on the heir's host link;
//! 2. `d`'s unfinished shards are re-apportioned across survivors by the
//!    model's takeover rule ([`atgpu_model::plan::takeover_units`]: the
//!    cost-driven planner over the surviving sub-cluster), and its
//!    transfers are redirected (inputs broadcast to all survivors,
//!    outputs served by the lowest-index survivor);
//! 3. completed rounds are never re-executed — the stamped replicas
//!    *are* the checkpoint.
//!
//! Because a journaling run's launches merge their write logs in
//! thread-block order ([`device::apply_write_log`]), the post-recovery
//! shard plan is bit-identical to the fault-free one — the same argument
//! that makes any shard plan bit-identical to single-device execution.  Losing the
//! last device is unrecoverable and surfaces as
//! [`SimError::DeviceLost`].  Independently, a **watchdog**
//! ([`SimConfig::watchdog_cycles`], per run like every `SimConfig`
//! field) bounds each launch's simulated cycles and turns runaway kernels into structured
//! [`SimError::Watchdog`] errors instead of hangs.
//! [`atgpu_model::cost::cluster_cost_degraded`] mirrors the whole
//! recovery path analytically so predictions track degraded runs too.
//!
//! ## Timeline tracing
//!
//! [`SimConfig::trace`]` = true` (off by default) records every
//! scheduled operation — each H2D/compute/D2H/peer lane occupancy the
//! [`atgpu_model::StreamTimeline`] computes — as a [`trace::Span`]
//! `{round, device, resource lane, stream, kind, words, start, end,
//! predicted_ms}`.  Tracing *observes* the scheduler's results
//! (`advance_spanned` returns the same `(start, end)` the untraced
//! `advance` collapses to a finish time), never feeds back into them,
//! so a traced run is **bit-identical** in memory, statistics and
//! timing to an untraced one; with tracing off the only residue is one
//! `Option` null test per operation, the same gating idiom the fault
//! plan uses (`atgpu-bench` pins both claims).  Spans land in a
//! pooled, pre-allocated [`trace::SpanRing`] of
//! [`trace::DEFAULT_TRACE_CAPACITY`] spans: the steady state allocates
//! nothing per span (`tests/engine_alloc.rs`), and when the ring is
//! full the oldest spans are overwritten and surfaced as a
//! `spans_dropped` count rather than growing or erroring.
//!
//! Fault machinery is traced too: each retry attempt and each
//! exponential-backoff wait from [`fault::FaultRuntime`] becomes its
//! own span segment ([`fault::FaultRuntime::transfer_segmented`]
//! reports segments that tile the fused transfer exactly), and a
//! degraded-mode journal replay appears as a `Replay` span on the
//! heir's host lane.
//!
//! [`trace::chrome_trace_json`] serialises a finished [`trace::Trace`]
//! to Chrome `trace_event` JSON (the array form) loadable in
//! `chrome://tracing` or Perfetto: `pid` = device, `tid` = resource
//! lane, duration events carry `round`/`stream`/`words`/`observed_ms`
//! and, where the model prices the operation, `predicted_ms`; counter
//! tracks plot cumulative retries, backoff milliseconds and kernel
//! cache hits per device — all of it read from the `Trace` alone, which
//! records each round's start and faults and each device's final cache
//! hits as the run goes — and [`trace::validate_chrome_json`] parses it back
//! (structure, required fields, per-lane monotone non-overlap) — the
//! round-trip check `atgpu-exp check-trace` and CI run on every traced
//! smoke artifact.  On the analytic side,
//! [`atgpu_model::cost::schedule_round_spans`] emits *predicted* spans
//! from the same `RoundSchedule`s, so the E-series sweeps report
//! per-span predicted-vs-observed error, not just round totals.
//!
//! ## Structure
//!
//! * [`gmem`] / [`smem`] — global memory (bounded by `G`, canonical buffer
//!   layout) and per-block shared memory (banked);
//! * [`uop`] — the flat micro-op program: compile-once lowering and
//!   per-site access-shape classification (shared with `atgpu-analyze`
//!   through `atgpu_ir::affine`);
//! * [`cache`] — the cross-launch kernel cache: keyed compiled programs,
//!   per device (hit/miss counters in [`device::DeviceStats`]);
//! * [`engine`] — the micro-op block executor: allocation-free stepping,
//!   contiguous fast paths, timing computed from each access's row; an
//!   executor holds a block's state and no kernel, and the rows one
//!   instruction works in are a [`Scratch`] its MP lends it;
//! * [`warp`] — the reference interpreter: lockstep tree-walking
//!   execution of one thread block with divergence masks;
//! * [`dram`] — the memory controller (latency + issue-rate bandwidth);
//! * [`mp`] — a multiprocessor: occupancy-limited block slots over
//!   pointer-held (never moved) executors, and the scheduling rule —
//!   issue from the smallest `(ready, dense index)` — kept as packed
//!   keys in the nodes of a tournament tree;
//! * [`device`] — the whole device: `k′` MPs, filled depth-first and
//!   co-simulated in global time order against a shared memory
//!   controller (the MP with the smallest `(next event, index)` runs up
//!   to the runner-up's horizon, which is the order of a rescan per
//!   instruction) — the one block loop, on the caller's thread; MPs,
//!   executors and the previous launch's cache key outlive the launch,
//!   so a warm launch allocates nothing;
//! * [`xfer`] — the per-link transfer engine (`α`, `β`, optional seeded
//!   noise; host↔device and device↔device peer edges);
//! * [`fault`] — seeded deterministic fault plans and the runtime that
//!   injects them (drops, degradation, stragglers, device death);
//! * [`trace`] — per-operation span recording (pooled ring), Chrome
//!   `trace_event` export and the round-trip validator;
//! * [`memo`] — [`BoundedMemo`], the bounded single-flight memo under
//!   the kernel cache (and the serving layer's verdict and quote memos):
//!   one compute and one miss per distinct key whatever the schedule;
//! * [`driver`] — the configuration, the host buffers and the
//!   single-device view of a run: [`run_program`] is the one-device
//!   cluster reported per round as the paper's "Total" and "Kernel"
//!   series;
//! * `links` (private) — the one host-step interpreter under the one run
//!   body ([`cluster::run_cluster_program_on`]): each
//!   [`atgpu_ir::HostStep`] is matched in one place and has one body,
//!   with fault redirection/retry/journaling and span recording as steps
//!   inside it; transfer ranges are checked there, so malformed
//!   hand-built programs are typed [`SimError`]s, not panics;
//! * [`cluster`] — the multi-device layer: `N` devices with per-device
//!   memory replicas and links, sharded launches (and the one place a
//!   launch's write target is chosen), peer transfers, and the run body
//!   behind [`cluster::run_cluster_program`] with per-device round
//!   observations.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
// A simulation runs on every submitted program's path, so the crate
// returns typed errors instead of panicking; test modules opt back in.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod cache;
pub mod cluster;
pub mod device;
pub mod dram;
pub mod driver;
pub mod engine;
pub mod error;
pub mod fault;
pub mod gmem;
mod links;
pub mod memo;
pub mod mp;
pub mod smem;
pub mod trace;
pub mod uop;
pub mod warp;
pub mod xfer;

pub use cache::{CacheEntry, CacheStats, KernelCache};
pub use cluster::{
    counts_to_shards, even_shards, planned_shards, run_cluster_program, run_cluster_program_on,
    shard_counts, weighted_shards, Cluster, ClusterRoundObservation, ClusterSimReport,
    DeviceRoundObservation, ShardStats,
};
pub use device::{apply_write_log, Device, DeviceStats, KernelStats};
pub use driver::{run_program, HostData, RoundObservation, SimConfig, SimReport};
pub use engine::{BlockExec, BlockSim, Scratch};
pub use error::SimError;
pub use fault::{FaultEvent, FaultPlan, FaultRuntime, LinkEdge};
pub use memo::BoundedMemo;
pub use trace::{
    chrome_trace_json, validate_chrome_json, Span, SpanKind, SpanRing, Trace, Tracer,
    DEFAULT_TRACE_CAPACITY,
};
pub use uop::CompiledKernel;

/// Which block executor a launch uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineSel {
    /// The flat micro-op engine: kernel IR compiled once per launch,
    /// allocation-free block execution.
    #[default]
    MicroOp,
    /// The tree-walking reference interpreter ([`warp::WarpExec`]) — the
    /// pre-engine baseline, retained for differential testing and
    /// benchmarking.
    Reference,
}

/// The device's execution strategy — there is one.
///
/// The type survives as a one-variant enum only because the repo
/// benchmark package passes `ExecMode::Sequential` to
/// [`Device::run_kernel`] and [`Device::run_shard`], the two signatures
/// that still take it; a benchmark-only change removes the argument and
/// the type together.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// One event loop over all MPs in global time order with a shared
    /// memory controller: deterministic and bit-exact.
    #[default]
    Sequential,
}
