//! # atgpu-serve — the multi-tenant cost-query service
//!
//! A long-lived library front-end where many concurrent clients submit
//! ATGPU programs against one shared simulated [`Cluster`], and ask
//! "what would this cost?" without paying for a simulation each time.
//! This is the serving layer the paper's premise invites: the abstract
//! model prices a program **analytically in microseconds**, so a
//! service can answer almost every cost query without touching the
//! (comparatively slow) cycle-accounting simulator.
//!
//! The crate has three moving parts:
//!
//! | part | type | contract |
//! |------|------|----------|
//! | soundness gate | [`VerifyMemo`] | validator and static verifier refuse malformed and proven-unsound programs, memoized by a per-server keyed hash of the program's shape |
//! | admission | [`AdmissionQueue`] | bounded queue, per-tenant round-robin fairness, occupancy packing |
//! | execution | [`CostServer::submit`] | runs on the shared cluster, bit-identical to a solo run |
//! | pricing | [`CostServer::price`] | memo → analytic model → simulation fallback |
//!
//! Before anything else, every submission and every pricing query is
//! validated ([`atgpu_ir::validate::validate_program`]; a malformed
//! program is refused with [`ServeError::Invalid`]) and statically
//! verified ([`atgpu_verify::verify_program`]): a program with a
//! *proven* cross-block write race or out-of-bounds access is refused
//! with [`ServeError::Unsound`], carrying the concrete `kernel@instr#N`
//! witness.  Undecidable programs (data-dependent
//! addressing) pass — the gate only rejects on proof.  Verdicts are
//! memoized by the program's structural shape, so re-submissions of the
//! same shape skip re-verification ([`VerifyStats`] counts the paths).
//! The gate then refuses a program that addresses a device the cluster
//! it would run or be priced on lacks ([`ServeError::Model`]), before
//! admission.
//!
//! Both memos — verdicts and quotes — are [`atgpu_sim::BoundedMemo`]s,
//! the bounded **single-flight** cache that is also the simulator's
//! kernel cache: each distinct key is computed exactly once, concurrent
//! askers of the same key wait for that answer and count as memo hits,
//! and a computation that fails (a bounced pricing simulation, say)
//! caches nothing.  [`ServeStats`] is therefore a function of the
//! requests made, not of how client threads interleave.
//!
//! The kernel cache confirms each hit against the structure it compiled;
//! the memos hold no program to confirm against, so their keys are the
//! server's own instead: SipHash under a key drawn once in
//! [`CostServer::new`], over the walk [`program_key`] hashes.  A client
//! never sees a key, so it cannot build a program (or spec) that takes
//! another tenant's verdict or quote.  [`program_key`] itself is the
//! unkeyed FNV-1a of that walk, a stable name for a program's shape.
//!
//! ## The admission contract
//!
//! Every [`submit`](CostServer::submit) first passes the admission
//! queue:
//!
//! * **Occupancy packing** — a job's *resident-block demand* is its
//!   widest launch, priced per device with the model's occupancy bound
//!   `ℓ = min(⌊M/m⌋, H)`: a device holds at most `k′·ℓ` blocks
//!   ([`atgpu_model::occupancy::device_capacity`]), so admitting more
//!   demand than `Σ_d k′_d·ℓ_d` cannot raise throughput.  Jobs are admitted
//!   while the summed demand of running jobs fits; an over-wide job is
//!   clamped and runs alone rather than deadlocking.
//! * **Per-tenant fairness** — requests queue FIFO *within* a tenant,
//!   and tenants are granted in round-robin rotation, so one tenant
//!   flooding the queue cannot starve another's single request.
//!   Rotation is strict: a small job never jumps an earlier tenant's
//!   turn (fairness beats packing efficiency).
//! * **Typed backpressure** — at most `queue_capacity` requests wait;
//!   the next submission returns [`ServeError::QueueFull`] *immediately*
//!   with the observed queue state, so clients implement backoff
//!   against data, not timeouts.
//!
//! ## The pricing contract
//!
//! [`price`](CostServer::price) (and the what-if variant
//! [`price_what_if`](CostServer::price_what_if), which takes an
//! arbitrary [`ClusterSpec`]) answers in one of three ways, cheapest
//! first:
//!
//! 1. **Memo** — queries are keyed by the server's keyed hash of the
//!    program's structural shape (kernel structures, shard plans,
//!    transfer tuples — names excluded) × the cluster's
//!    [`words`](atgpu_model::ClusterSpec::words) × the machine shape.
//!    A repeated question is answered from the bounded [`PriceMemo`]
//!    without recomputation.
//! 2. **Analytic** — [`atgpu_analyze::predict`]: the program is
//!    analysed per device and priced through the streamed cluster cost
//!    model — microseconds, no simulation.  Only the devices up to the
//!    last one a step names are analysed: an idle device adds nothing to
//!    a round's `max`, so a one-device program priced on a thousand-device
//!    what-if spec costs what it costs on one.  The analytic path is only
//!    trusted when the analysis is **exact** (`Prediction::trusted`:
//!    every transaction count statically known, no shared-memory bank
//!    conflicts); otherwise the query falls through — unless a count
//!    saturated at `u64::MAX` (`Prediction::saturated`), a run no
//!    simulation finishes, which is quoted here either way.
//! 3. **Simulated** — full [`run_cluster_program_on`] of the program
//!    with zero-filled inputs: exact when the program's addressing is
//!    data-independent, the zero-input cost otherwise (see
//!    [`PriceSource::Simulated`]).  On the server's own cluster the
//!    fallback takes an admission permit like any tenant (pricing
//!    cannot starve execution); a what-if spec simulates on a private
//!    throwaway cluster.
//!
//! Every non-memo answer is memoized, so a workload that repeats
//! queries converges to memo-hit latency.  [`Quote::source`] reports
//! which path answered; [`PriceStats`] counts all three.  Prices
//! predict the **noise-free** cost: configure the server with
//! `noise: None` (the default) when comparing quotes to observations.
//!
//! ## Bit-identity
//!
//! The shared cluster preserves the repo's differential guarantees:
//! all per-run state (memory replicas, host buffers, transfer engines,
//! fault state, tracers) is allocated per call inside
//! [`run_cluster_program_on`], every [`SimConfig`] field travels with
//! the call, and the cluster holds no settings; the only shared mutable
//! state is each device's kernel cache, which the cache differential
//! suite proves result-neutral (and whose counters, like the memos',
//! are schedule-independent).  N clients hammering one server concurrently get
//! reports bit-identical to each running alone — pinned by this
//! crate's `serve_differential` test.
//!
//! ## Worked example
//!
//! Two tenants share a 2-device server: one executes, one asks what-if
//! questions.  (See `examples/multi_client.rs` for the full
//! multi-threaded version.)
//!
//! ```rust
//! use atgpu_ir::{AddrExpr, KernelBuilder, ProgramBuilder, Shard};
//! use atgpu_model::{AtgpuMachine, ClusterSpec, GpuSpec};
//! use atgpu_serve::{CostServer, PriceSource, ServerConfig};
//!
//! // A toy sharded program: upload, run one kernel over 4 blocks split
//! // across 2 devices, download.
//! let n = 32 * 4;
//! let mut pb = ProgramBuilder::new("demo");
//! let ha = pb.host_input("A", n);
//! let hc = pb.host_output("C", n);
//! let da = pb.device_alloc("a", n);
//! let mut kb = KernelBuilder::new("copy", 4, 32);
//! let g = AddrExpr::block() * 32 + AddrExpr::lane();
//! kb.glb_to_shr(AddrExpr::lane(), da, g.clone());
//! kb.shr_to_glb(da, g, AddrExpr::lane());
//! pb.begin_round();
//! pb.transfer_in_to(0, ha, 0, da, 0, n);
//! pb.transfer_in_to(1, ha, 0, da, 0, n);
//! pb.launch_sharded(
//!     kb.build(),
//!     vec![
//!         Shard { device: 0, start: 0, end: 2 },
//!         Shard { device: 1, start: 2, end: 4 },
//!     ],
//! );
//! pb.transfer_out_from(0, da, 0, hc, 0, n);
//! let program = pb.build().unwrap();
//!
//! let machine = AtgpuMachine::new(1 << 16, 32, 12_288, 1 << 22).unwrap();
//! let spec = ClusterSpec::homogeneous(2, GpuSpec::gtx650_like());
//! let server = CostServer::new(machine, spec, ServerConfig::default()).unwrap();
//!
//! // Tenant "alice" runs the program for real…
//! let inputs = vec![(0..n as i64).collect::<Vec<i64>>()];
//! let report = server.submit("alice", &program, inputs).unwrap();
//! assert_eq!(report.output(hc)[7], 7);
//!
//! // …while tenant "bob" only wants the price.  First ask: analytic.
//! let first = server.price(&program).unwrap();
//! assert_eq!(first.source, PriceSource::Analytic);
//! // Second ask: memoized, same answer.
//! let again = server.price(&program).unwrap();
//! assert_eq!(again.source, PriceSource::Memo);
//! assert_eq!(again.total_ms, first.total_ms);
//!
//! // What-if: the same program on a 2-device cluster with a 10x slower
//! // second host link costs more.
//! let mut slow = server.cluster().spec().clone();
//! slow.host_links[1] = slow.host_links[1].scaled(10.0);
//! let what_if = server.price_what_if(&program, &slow).unwrap();
//! assert!(what_if.total_ms > first.total_ms);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Every function here runs on behalf of a client: no panicking calls
// outside tests (test modules opt back in locally).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod admit;
pub mod error;
pub mod price;
pub mod verify;

pub use admit::{AdmissionQueue, AdmissionStats, Permit};
pub use error::ServeError;
pub use price::{program_key, PriceMemo, PriceSource, PriceStats, Quote};
pub use verify::{Refusal, VerifyMemo, VerifyStats};

use atgpu_analyze::predict;
use atgpu_ir::validate::validate_program;
use atgpu_ir::{shard_counts, HostBufRole, HostStep, Program};
use atgpu_model::occupancy::device_capacity;
use atgpu_model::{AtgpuMachine, ClusterSpec, ModelError};
use atgpu_sim::{
    gmem, run_cluster_program, run_cluster_program_on, Cluster, ClusterSimReport, SimConfig,
};
use price::Keys;

/// Server construction parameters.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// The simulation configuration every run uses — submissions and
    /// the simulated pricing tier alike.  It is fixed at construction:
    /// nothing reachable from a `&CostServer` can change it.
    pub sim: SimConfig,
    /// Maximum requests waiting in the admission queue before
    /// submissions bounce with [`ServeError::QueueFull`].
    pub queue_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self { sim: SimConfig::default(), queue_capacity: 64 }
    }
}

/// Entries each memo — verifier verdicts and price quotes — keeps before
/// evicting its oldest (FIFO).
const MEMO_CAPACITY: usize = 1024;

/// Combined server counters: soundness gate + admission queue +
/// pricing paths.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeStats {
    /// Admission-queue state.
    pub admission: AdmissionStats,
    /// Pricing-path counters.
    pub price: PriceStats,
    /// Soundness-gate counters.
    pub verify: VerifyStats,
}

/// The multi-tenant cost-query server: one shared [`Cluster`], an
/// admission queue in front of it, and a memoized pricing front-end.
/// All methods take `&self`; share a server across client threads with
/// `Arc` (or scoped threads).
#[derive(Debug)]
pub struct CostServer {
    cluster: Cluster,
    sim: SimConfig,
    admission: AdmissionQueue,
    memo: PriceMemo,
    verify: VerifyMemo,
    /// The key both memos are addressed by, drawn once per server.
    keys: Keys,
}

/// The tenant label the pricing fallback simulates under, so pricing
/// traffic is visible in admission stats but distinct from any real
/// tenant (client tenant names have no format restriction — this one
/// is only distinguishable by convention).
pub const PRICING_TENANT: &str = "#pricing";

impl CostServer {
    /// Builds a server over a fresh cluster of `spec` devices sharing
    /// `machine`.
    pub fn new(
        machine: AtgpuMachine,
        spec: ClusterSpec,
        config: ServerConfig,
    ) -> Result<Self, ServeError> {
        let cluster = Cluster::new(machine, spec)?;
        // What the cluster holds at once: every device's `k′·ℓ` for
        // blocks with no shared memory, summed without wrapping.
        let capacity = cluster
            .spec()
            .devices
            .iter()
            .map(|d| device_capacity(cluster.machine(), d, 0))
            .fold(0, u64::saturating_add);
        Ok(Self {
            admission: AdmissionQueue::new(config.queue_capacity, capacity),
            memo: PriceMemo::new(MEMO_CAPACITY),
            verify: VerifyMemo::new(MEMO_CAPACITY),
            keys: Keys::default(),
            sim: config.sim,
            cluster,
        })
    }

    /// The shared cluster (for spec/machine introspection).
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Runs `program` for `tenant` on the shared cluster, blocking in
    /// the admission queue until granted.  The report is bit-identical
    /// to a solo [`run_cluster_program`] of the same program and
    /// config.
    pub fn submit(
        &self,
        tenant: &str,
        program: &Program,
        inputs: Vec<Vec<i64>>,
    ) -> Result<ClusterSimReport, ServeError> {
        self.gate(self.keys.program(program), program, self.cluster.spec())?;
        let demand = self.resident_demand(program);
        let _permit = self.admission.admit(tenant, demand)?;
        Ok(run_cluster_program_on(&self.cluster, program, inputs, &self.sim)?)
    }

    /// The gate every request passes: validates `program`, then
    /// statically verifies it (memoized by its keyed shape `pkey`, which
    /// callers compute once and also reuse for the quote key), and
    /// refuses malformed programs with the validator's error,
    /// proven-unsound ones with the concrete witness, and one that
    /// addresses a device `spec` lacks with a typed error — before it is
    /// admitted, priced or run.
    fn gate(&self, pkey: u64, program: &Program, spec: &ClusterSpec) -> Result<(), ServeError> {
        let b = self.cluster.machine().b;
        let why = self.verify.verdict(pkey, || match validate_program(program) {
            Err(e) => Some(Refusal::Invalid(e)),
            Ok(()) => {
                atgpu_verify::verify_program(program, b).first_unsoundness().map(Refusal::Unsound)
            }
        });
        if let Some(why) = why {
            let program = program.name.clone();
            return Err(match why {
                Refusal::Invalid(why) => ServeError::Invalid { program, why: Box::new(why) },
                Refusal::Unsound(why) => ServeError::Unsound { program, why: Box::new(why) },
            });
        }
        let n = spec.n_devices();
        if program.max_device() as usize >= n {
            return Err(ServeError::Model(ModelError::InvalidParams {
                reason: format!(
                    "program addresses device {} but the cluster has {n}",
                    program.max_device()
                ),
            }));
        }
        Ok(())
    }

    /// Prices `program` on the server's own cluster — memo, then
    /// analytic model, then simulation fallback (see the crate docs for
    /// the contract).
    pub fn price(&self, program: &Program) -> Result<Quote, ServeError> {
        self.price_on(program, None)
    }

    /// What-if pricing: prices `program` on an arbitrary cluster
    /// `spec` (same machine shape).  Quotes are memoized under the
    /// spec's structure, so repeated what-ifs over a fixed
    /// candidate set all converge to memo hits.
    pub fn price_what_if(
        &self,
        program: &Program,
        spec: &ClusterSpec,
    ) -> Result<Quote, ServeError> {
        self.price_on(program, Some(spec))
    }

    fn price_on(
        &self,
        program: &Program,
        what_if: Option<&ClusterSpec>,
    ) -> Result<Quote, ServeError> {
        let pkey = self.keys.program(program);
        let spec = what_if.unwrap_or_else(|| self.cluster.spec());
        self.gate(pkey, program, spec)?;
        spec.validate()?;
        let machine = *self.cluster.machine();
        let key = self.keys.quote(pkey, spec, &machine);
        self.memo.quote_with(key, || {
            // Devices past the last one a step names are idle: each adds
            // a 0.0 path to every round's `max`, so the analysis runs on
            // the prefix the program names and the quote is the same bits.
            let named = program.max_device() as usize + 1;
            let sub;
            let priced = if named < spec.n_devices() {
                let alive: Vec<bool> = (0..spec.n_devices()).map(|d| d < named).collect();
                sub = spec.surviving(&alive).0;
                &sub
            } else {
                spec
            };
            // Analytic fast path: only trusted when the analysis is exact;
            // an analysis or cost error falls through to simulation too.
            // A saturated count stays here whatever its trust: it names a
            // run past 2⁶⁴ steps, which the watchdog (off by default)
            // would never stop.
            if let Ok(p) = predict(program, &machine, priced) {
                if p.trusted || p.saturated {
                    let source = PriceSource::Analytic;
                    return Ok(Quote { total_ms: p.cost.total_ms, source });
                }
            }

            // Simulation fallback with zero-filled inputs (a price query
            // carries no data).  Zeros price the same as real data only
            // while addressing is data-independent; a program that got
            // here by indexing memory by value is quoted at its
            // zero-input cost (`PriceSource::Simulated`).
            // A declared size the host cannot hold is a typed error.
            let inputs = program
                .host_bufs
                .iter()
                .filter(|b| matches!(b.role, HostBufRole::Input))
                .map(|b| gmem::zero_words(b.words))
                .collect::<Result<Vec<_>, _>>()?;
            let report = match what_if {
                // A foreign spec gets a private throwaway cluster.
                Some(spec) => run_cluster_program(program, inputs, &machine, spec, &self.sim)?,
                // The server's own cluster is shared: take a permit like
                // any tenant so pricing cannot starve execution.
                None => {
                    let demand = self.resident_demand(program);
                    let _permit = self.admission.admit(PRICING_TENANT, demand)?;
                    run_cluster_program_on(&self.cluster, program, inputs, &self.sim)?
                }
            };
            Ok(Quote { total_ms: report.total_ms(), source: PriceSource::Simulated })
        })
    }

    /// Combined soundness-gate + admission + pricing counters.
    pub fn stats(&self) -> ServeStats {
        ServeStats {
            admission: self.admission.stats(),
            price: self.memo.stats(),
            verify: self.verify.stats(),
        }
    }

    /// A program's resident-block demand: its widest launch, with each
    /// device's contribution clamped by the occupancy bound `k′·ℓ`.
    fn resident_demand(&self, program: &Program) -> u64 {
        let (machine, spec) = (self.cluster.machine(), self.cluster.spec());
        let launches = program.rounds.iter().flat_map(|r| &r.steps).filter_map(HostStep::launch);
        let demand = launches.map(|(kernel, shards)| {
            let held = shard_counts(&shards, spec.n_devices());
            let cap = |s| device_capacity(machine, s, kernel.shared_words);
            spec.devices.iter().zip(held).map(|(s, blocks)| blocks.min(cap(s))).sum::<u64>()
        });
        demand.max().unwrap_or(0).max(1)
    }
}
