//! # atgpu-analyze — static derivation of ATGPU model metrics from IR
//!
//! The paper analyses each kernel by hand to obtain the model quantities
//! (`tᵢ`, `qᵢ`, space, transfer).  This crate mechanises that analysis: it
//! walks the same IR the simulator executes and produces an
//! [`atgpu_model::AlgoMetrics`] ready for the cost functions.
//!
//! * [`opcount`] — `tᵢ`: lockstep operations of one thread block, counting
//!   **both** arms of every divergence (the model's rule) and multiplying
//!   loop bodies by their trip counts;
//! * [`coalesce`] — `qᵢ`: exact global-memory transaction counts for
//!   static affine addresses via residue-class convolution (no
//!   per-thread-block enumeration, so analysing a 10-million-element
//!   launch costs microseconds), with a declared-conservative fall-back
//!   for data-dependent addressing;
//! * [`bankconflict`] — checks the model's "bank conflicts do not occur"
//!   assumption, reporting the worst serialisation degree a kernel can
//!   incur;
//! * [`space`] — global/shared space metrics plus touched-range analysis
//!   of shared addresses;
//! * [`analyze`] — the top-level [`analyze::analyze_program`] driver.
//!
//! ## One measurement cell
//!
//! The paper's method is a loop — analyse a program, price it, compare
//! with a measurement.  Its predicted half is [`predict`]: per-device
//! analysis ([`analyze_cluster_program`]), stream schedules
//! ([`stream_schedules`]) and the streamed cluster cost
//! ([`atgpu_model::cost::cluster_cost_streamed`]) in one call, returning
//! the cost together with a `trusted` bit (`io_exact && conflict_free`).
//! The experiment harness compares `predict(..).cost.total_ms` with
//! simulated observations; the pricing service answers analytically only
//! when `trusted` holds and simulates otherwise.  Outside the repo
//! benchmark's own measured pipeline there is no second statement of
//! that rule in the tree.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
// Everything here is reachable from a client submission through
// `atgpu-serve`: no panicking calls outside tests (test modules opt back
// in locally).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod analyze;
pub mod bankconflict;
pub mod coalesce;
pub mod error;
pub mod opcount;
pub mod sites;
pub mod space;

pub use analyze::{
    analyze_cluster_program, analyze_program, predict, stream_schedules, ClusterProgramAnalysis,
    KernelAnalysis, Prediction, ProgramAnalysis, RoundAnalysis,
};
pub use bankconflict::{BankConflictReport, ConflictDegree};
pub use error::AnalyzeError;
