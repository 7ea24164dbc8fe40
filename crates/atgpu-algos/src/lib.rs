//! # atgpu-algos — the workload library
//!
//! Every computational problem the paper evaluates, plus the extension
//! workloads its future-work section calls for, each packaged uniformly:
//!
//! * an **IR program** (kernels + transfers) built for a given machine;
//! * a **host reference** implementation the simulator's results are
//!   checked against;
//! * the **closed-form model metrics** from the paper's hand analysis
//!   (tests assert the `atgpu-analyze` derivation matches them exactly).
//!
//! ## Paper workloads (§IV)
//!
//! * [`vecadd`] — vector addition (Fig. 3): one round, embarrassingly
//!   parallel, transfer-dominated;
//! * [`reduce`] — tree reduction (Fig. 4): `⌈log_b n⌉` rounds, moderate
//!   transfer share, with both the divergent interleaved-modulo kernel
//!   (Harris's first kernel, which the paper cites) and the
//!   sequential-addressing refinement;
//! * [`matmul`] — tiled matrix multiplication (Fig. 5): compute-dominated,
//!   transfer negligible.
//!
//! ## Extension workloads
//!
//! * [`saxpy`], [`dot`], [`gemv`], [`scan`], [`stencil`] — further computational
//!   problems (paper §V: "carry out further experiments on other
//!   computational problems");
//! * [`bitonic`] — bitonic sort: `Θ(log² n)` kernel rounds, the regime
//!   where the per-round synchronisation charge `σ` dominates, with
//!   data-dependent gather/scatter addressing;
//! * [`transpose`] — three variants (naive / tiled / tiled+padded)
//!   exhibiting uncoalesced access and bank conflicts;
//! * [`spmv`] — ELL sparse matrix–vector multiplication (the canonical
//!   GPU gather: exact slot traffic, conservatively-bounded gather);
//! * [`histogram`] — data-dependent addressing with measured bank
//!   conflicts (the case the model's conflict-free assumption excludes);
//! * [`ooc`] — out-of-core variants that partition data exceeding global
//!   memory `G` across rounds with different communication schemes
//!   (paper §V: "data does not fit on the global memory, thereby
//!   requiring some sort of partitioning").
//!
//! ## Workload × plan
//!
//! A workload says *what* runs; a [`Plan`] says *where*.  Every workload
//! states its algorithm once, in [`Workload::emit`], and the provided
//! builders differ only in the plan they hand [`Plan::resolve`], the
//! crate's one apportionment site: [`Workload::build`] is
//! [`Plan::Single`] (whole grid on device 0, a plain `Launch`),
//! [`Workload::build_sharded`] is [`Plan::Even`],
//! [`Workload::build_sharded_planned`] is [`Plan::Planned`] (the
//! cost-driven planner's argmin, priced with
//! [`Workload::shard_profile`]), and [`Workload::build_plan`] takes any
//! plan, a caller's [`Plan::Explicit`] partition included.
//!
//! The single-device case is the one whole-grid shard on device 0 — peer
//! loops emit nothing, slices cover whole buffers — so [`vecadd`],
//! [`matmul`] (tile-row bands, `B` broadcast), [`scan`], [`histogram`],
//! [`ooc::OocVecAdd`] (chunks dealt round-robin) and the iterated
//! [`stencil`] each have exactly one body.  [`reduce`] and [`spmv`] keep a
//! separate single-device body beside their sharded one, because they
//! stage differently on one device (the tree straight from the input;
//! whole slot arrays instead of per-slot); the remaining workloads have
//! no sharded form and reject every plan but [`Plan::Single`].
//!
//! Chunking and stream assignment are not plans: the streamed and
//! pipelined builders ([`ooc::OocVecAdd::build_streamed`] /
//! `build_planned`, [`matmul::MatMul::build_sharded_streamed`] /
//! `build_sharded_pipelined`) and [`vecadd::VecAdd::build_relaunched`]
//! are different round structures and stay their own bodies.
//!
//! ### Peer traffic — the irregular quartet
//!
//! The regular workloads shard trivially (independent slabs, no
//! cross-device traffic).  Four irregular ones each exercise a different
//! peer-communication shape, with a `shard_profile` whose
//! [`atgpu_model::PeerProfile`] makes the `atgpu-sim` planner's plan
//! pricing **peer-aware**:
//!
//! * [`stencil`] — iterated halo exchange: one boundary cell per
//!   direction over peer links every round;
//! * [`scan`] — multi-pass gather/scatter: per-device local scans,
//!   block sums gathered to an owner, prefix offsets scattered back;
//! * [`spmv`] — row-imbalanced shards: per-unit work and words vary by
//!   row weight, feeding the profile's per-unit vectors;
//! * [`histogram`] — all-to-one merge: per-device partial bins
//!   peer-merged on an owner device.
//!
//! All four are bit-identical to their single-device runs under any
//! shard plan (`tests/cluster_quartet_differential.rs`), including
//! mid-program device loss.
//!
//! [`roster()`] lists every workload once; `tests/roster_plans.rs` builds,
//! statically verifies and simulates every roster × plan cell.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bitonic;
pub mod dot;
pub mod error;
pub mod gemv;
pub mod gen;
pub mod histogram;
pub mod matmul;
pub mod ooc;
pub mod reduce;
pub mod roster;
pub mod saxpy;
pub mod scan;
pub mod spmv;
pub mod stencil;
pub mod transpose;
pub mod vecadd;
pub mod workload;

pub use error::AlgosError;
pub use roster::{roster, RosterEntry};
pub use workload::{verify_on_sim, BuiltProgram, Placement, Plan, Workload};
