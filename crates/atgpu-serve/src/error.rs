//! Typed errors of the serving layer.

use std::fmt;

/// Everything that can go wrong serving a request.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The admission queue is full: typed backpressure.  The client
    /// should retry later (or against another server); nothing was
    /// enqueued.
    QueueFull {
        /// Tenant whose submission was bounced.
        tenant: String,
        /// Requests currently waiting across all tenants.
        waiting: usize,
        /// The configured waiting-slot bound.
        capacity: usize,
    },
    /// The program is malformed — the validator's error (a loop nest
    /// deeper than `MAX_LOOP_DEPTH`, a register past `MAX_REGS`, a round
    /// out of order, …): the server refuses to execute or price it.
    Invalid {
        /// Name of the rejected program.
        program: String,
        /// What the validator found (boxed, as for `Unsound`).
        why: Box<atgpu_ir::IrError>,
    },
    /// The static verifier proved the program unsound (a cross-block
    /// write race or an out-of-bounds access): the server refuses to
    /// execute or price it.  The payload carries the validated witness.
    Unsound {
        /// Name of the rejected program.
        program: String,
        /// The proven defect, with its concrete witness (boxed: the
        /// witness payload would otherwise dominate the error's size).
        why: Box<atgpu_verify::Unsoundness>,
    },
    /// The underlying simulation failed.
    Sim(atgpu_sim::SimError),
    /// A model-layer computation (cost function, validation) failed.
    Model(atgpu_model::ModelError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::QueueFull { tenant, waiting, capacity } => write!(
                f,
                "admission queue full ({waiting}/{capacity} waiting): tenant `{tenant}` must back \
                 off"
            ),
            Self::Invalid { program, why } => write!(f, "program `{program}` is invalid: {why}"),
            Self::Unsound { program, why } => {
                write!(f, "program `{program}` rejected as unsound: {why}")
            }
            Self::Sim(e) => write!(f, "simulation failed: {e}"),
            Self::Model(e) => write!(f, "model evaluation failed: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<atgpu_sim::SimError> for ServeError {
    fn from(e: atgpu_sim::SimError) -> Self {
        Self::Sim(e)
    }
}

impl From<atgpu_model::ModelError> for ServeError {
    fn from(e: atgpu_model::ModelError) -> Self {
        Self::Model(e)
    }
}
