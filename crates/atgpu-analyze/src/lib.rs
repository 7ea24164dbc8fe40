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

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod analyze;
pub mod bankconflict;
pub mod coalesce;
pub mod error;
pub mod opcount;
pub mod sites;
pub mod space;

pub use analyze::{
    analyze_cluster_program, analyze_program, attribute_peer_units, stream_schedule,
    stream_schedules, ClusterProgramAnalysis, KernelAnalysis, PeerAttribution, ProgramAnalysis,
    RoundAnalysis,
};
pub use bankconflict::{BankConflictReport, ConflictDegree};
pub use error::AnalyzeError;
