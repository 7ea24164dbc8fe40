//! # atgpu-ir — kernel IR and pseudocode DSL for the ATGPU model
//!
//! The paper extends AGPU's pseudocode with explicit data-transfer
//! operators:
//!
//! * `W` — host↔device transfer (e.g. `a W A` copies host vector `A` into
//!   device-global `a`);
//! * `⇐` — global↔shared memory movement (a warp-wide block access);
//! * `←` — shared-memory/register access.
//!
//! This crate gives those operators a machine-checkable form: a small
//! register-machine IR executed in lockstep by the `b` cores of a
//! multiprocessor.  The same IR artefact is consumed by
//!
//! * `atgpu-analyze`, which derives the model metrics (`tᵢ`, `qᵢ`, spaces,
//!   transfer words) by abstract interpretation, and
//! * `atgpu-sim`, which executes it functionally and temporally on the
//!   simulated GPU —
//!
//! mirroring how the paper hand-analyses the same CUDA kernel it measures.
//!
//! ## Structure
//!
//! * [`expr`] — operands, per-lane address expressions, predicates;
//! * [`affine`] — the lowered affine address form the analyser and
//!   simulator evaluate (an actual compiler pass lives in
//!   [`affine::lower`]);
//! * [`instr`] — the instruction set (`⇐`/`←` become typed instructions;
//!   divergence is a structural [`instr::Instr::Pred`] whose both arms
//!   execute, exactly as the model prescribes);
//! * [`kernel`] — a kernel: one instruction body run by every thread block;
//! * [`lanemask`] — the one walk over a kernel body ([`lanemask::walk`]),
//!   carrying the compile-time lane mask and register facts that the
//!   analyser's site collection and the simulator's lowering both read;
//! * [`program`] — host-level rounds: `W` transfers, kernel launches,
//!   device allocations (bounded by `G` at validation);
//! * [`builder`] — fluent construction API;
//! * [`validate`] — structural validation;
//! * [`pretty`] — renders programs back into the paper's pseudocode
//!   notation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
// Every served program is built, validated and walked here: no
// panicking calls outside tests (test modules opt back in locally).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod affine;
pub mod builder;
pub mod error;
pub mod expr;
pub mod instr;
pub mod kernel;
pub mod lanemask;
pub mod pretty;
pub mod program;
pub mod validate;

pub use affine::AffineAddr;
pub use builder::{KernelBuilder, ProgramBuilder};
pub use error::{IrError, ShardPlanError};
pub use expr::{AddrExpr, Operand, PredExpr};
pub use instr::{AluOp, GlobalRef, Instr};
pub use kernel::{Fnv1a, Kernel};
pub use program::{
    counts_to_shards, padded_slot, shard_counts, DBuf, DeviceAlloc, HBuf, HostBufDecl, HostBufRole,
    HostStep, Program, ProgramBody, Round, Shard, ShardPlan,
};

/// Register index within a lane's register file.
pub type Reg = u8;

/// Number of registers per lane.  GPUs typically give each thread tens of
/// registers out of the MP's register file; 48 is enough for every kernel
/// in the workload library (matrix multiplication keeps a `b`-row
/// accumulator strip in shared memory, not registers).
pub const MAX_REGS: u8 = 48;

/// Maximum loop nesting depth.  Four levels cover every kernel in the
/// library with room to spare, and a fixed bound keeps affine address
/// vectors inline and allocation-free on the hot path.
pub const MAX_LOOP_DEPTH: usize = 4;

/// Number of streams a program may address per device (stream ids
/// `0..MAX_STREAMS`).  Stream 0 is the default/compute stream; double
/// buffering needs two, and a fixed small bound keeps the per-round
/// stream timelines inline.
pub const MAX_STREAMS: u32 = 8;
