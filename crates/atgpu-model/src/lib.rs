//! # ATGPU — the Abstract Transferring GPU model
//!
//! This crate implements the analytical model introduced by Carroll & Wong in
//! *“An Improved Abstract GPU Model with Data Transfer”* (ICPP 2017
//! Workshops).  ATGPU extends the earlier SWGPU (Sitchinava & Weichert) and
//! AGPU (Koike & Sadakane) abstract GPU models with:
//!
//! * a **bounded global memory** of `G` words (prior models assumed it
//!   unlimited), and
//! * **host↔device data transfer** as an integral part of the model, costed
//!   with the affine transaction model of Boyer et al.
//!   (`T(i) = Î·α + I·β`).
//!
//! The crate provides:
//!
//! * [`machine::AtgpuMachine`] — the abstract machine `ATGPU(p, b, M, G)`;
//! * [`metrics::RoundMetrics`] / [`metrics::AlgoMetrics`] — the per-round
//!   quantities the model tracks (`tᵢ`, `qᵢ`, space, `Iᵢ`, `Oᵢ`, `Îᵢ`, `Ôᵢ`);
//! * [`params::GpuSpec`] — a concrete GPU (`k′` multiprocessors, hardware
//!   block-residency limit `H`, clock, bandwidths) used by the GPU-cost
//!   function and by the simulator; its fields are the cost constants
//!   `γ, λ, σ, α, β`;
//! * [`params::CostParams`] — those five constants as
//!   [`params::GpuSpec::derived_cost_params`] reads them off a spec, the
//!   one spec→constants mapping (no cost function takes a `CostParams`);
//! * [`cost`] — the perfect-GPU cost (paper Expression 1), the GPU-cost with
//!   occupancy (Expression 2), and the SWGPU baseline cost (the same
//!   function with the transfer terms removed, exactly as the paper's
//!   evaluation constructs it);
//! * [`occupancy`](mod@occupancy) — the block-residency function `ℓ = min(⌊M/m⌋, H)`
//!   and the device capacity `k′·ℓ` every consumer reads;
//! * [`plan`] — the planning layer: workload [`plan::ShardProfile`]s
//!   (including their [`plan::PeerProfile`] device↔device traffic),
//!   cost-driven shard apportionment and the chunk-size solver, all
//!   priced through the cost functions above;
//! * [`comparison`] — the feature matrix of Table I, generated from data.
//!
//! The companion crates build the rest of the system: `atgpu-ir` (kernel
//! pseudocode/IR), `atgpu-analyze` (derives [`metrics::AlgoMetrics`] from
//! IR), `atgpu-sim` (the simulated “real GPU” standing in for the paper's
//! GTX 650), `atgpu-algos` (the evaluated workloads) and `atgpu-exp`
//! (regenerates every table and figure).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod comparison;
pub mod cost;
pub mod error;
pub mod machine;
pub mod metrics;
pub mod occupancy;
pub mod params;
pub mod plan;
pub mod streams;

pub use cost::{ClusterCostBreakdown, CostBreakdown, DegradedLoss, PeerTraffic};
pub use error::ModelError;
pub use machine::AtgpuMachine;
pub use metrics::{AlgoMetrics, RoundMetrics};
pub use occupancy::occupancy;
pub use params::{ClusterSpec, CostParams, GpuSpec, LinkParams};
pub use plan::{PeerProfile, ShardProfile};
pub use streams::{RoundSchedule, StreamItem, StreamResource, StreamTimeline, MAX_STREAMS};
