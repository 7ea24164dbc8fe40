//! Simulator errors.

use std::fmt;

/// Errors raised while simulating a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// Device allocations exceed global memory `G`.
    OutOfGlobalMemory {
        /// Words requested (after block alignment).
        requested: u64,
        /// Words available.
        available: u64,
    },
    /// A kernel's shared usage exceeds `M` (occupancy would be zero).
    SharedTooLarge {
        /// Kernel name.
        kernel: String,
        /// Declared shared words.
        requested: u64,
        /// Words available per MP.
        available: u64,
    },
    /// The host cannot hold a buffer the run needs: a replica, or a host
    /// buffer a program declared.
    OutOfHostMemory {
        /// Words requested.
        words: u64,
    },
    /// A lane computed a global address outside the allocated region.
    GlobalOutOfBounds {
        /// Kernel name.
        kernel: String,
        /// The offending absolute word address.
        addr: i64,
        /// Allocated global words.
        size: u64,
    },
    /// A lane computed a shared address outside the block's allocation.
    SharedOutOfBounds {
        /// Kernel name.
        kernel: String,
        /// The offending shared word address.
        addr: i64,
        /// The block's shared words.
        size: u64,
    },
    /// Host data does not match the program's buffer declarations.
    HostDataMismatch {
        /// Explanation.
        reason: String,
    },
    /// The machine is wider than the simulator supports (`b ≤ 64` because
    /// divergence masks are single machine words).
    UnsupportedWidth {
        /// Requested lanes per warp.
        b: u64,
    },
    /// A cross-thread-block data race was detected (two blocks wrote the
    /// same global word during one launch).
    RaceDetected {
        /// Kernel name.
        kernel: String,
        /// The contended absolute word address.
        addr: u64,
    },
    /// A program step addresses a device the system does not have.
    NoSuchDevice {
        /// Requested device index.
        device: u32,
        /// Devices available.
        devices: usize,
    },
    /// The cluster specification — or the specification of one device,
    /// a cluster of one — is malformed.
    InvalidCluster {
        /// Explanation.
        reason: String,
    },
    /// A transfer or sync step addresses a stream id beyond
    /// [`atgpu_ir::MAX_STREAMS`].  The IR validator rejects these at
    /// build time; this guards hand-constructed programs handed straight
    /// to the driver, which would otherwise silently alias onto the
    /// [`atgpu_model::StreamTimeline`]'s clamped last slot.
    StreamOutOfRange {
        /// The offending stream id.
        stream: u32,
        /// Round index of the offending step.
        round: usize,
    },
    /// A kernel launch exceeded the watchdog's simulated-cycle budget
    /// ([`crate::SimConfig::watchdog_cycles`]) — a runaway kernel is
    /// surfaced as a structured error instead of hanging the simulation.
    Watchdog {
        /// Kernel name.
        kernel: String,
        /// The exceeded budget, in simulated device cycles.
        budget: u64,
    },
    /// A fault-plan `DeviceDown` left the system without a single alive
    /// device: a single-device run lost its only device, or the last
    /// surviving cluster device died.  Recovery by re-apportionment
    /// needs at least one survivor.
    DeviceLost {
        /// The device whose death was unrecoverable.
        device: u32,
        /// The round at whose start it died.
        round: usize,
    },
    /// An internal simulation worker thread panicked, or the OS refused
    /// to start it — the driver surfaces either as an error rather than
    /// propagating a panic into the caller.
    WorkerPanic {
        /// What was being simulated.
        context: String,
    },
    /// The run's transfer noise ([`crate::SimConfig::noise`]) has an
    /// amplitude outside a finite `0 ≤ ε < 1`.
    InvalidNoise {
        /// Explanation.
        reason: String,
    },
    /// A launched kernel fails [`atgpu_ir::validate::validate_launch`]:
    /// the IR validator refuses it, so it is neither lowered nor run.
    InvalidKernel {
        /// Why the validator refuses it.
        error: atgpu_ir::IrError,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::OutOfGlobalMemory { requested, available } => write!(
                f,
                "device out of global memory: need {requested} words, have G = {available}"
            ),
            SimError::OutOfHostMemory { words } => {
                write!(f, "the host cannot allocate a buffer of {words} words")
            }
            SimError::SharedTooLarge { kernel, requested, available } => write!(
                f,
                "kernel `{kernel}` uses {requested} shared words but the MP has M = {available}"
            ),
            SimError::GlobalOutOfBounds { kernel, addr, size } => write!(
                f,
                "kernel `{kernel}`: global access at word {addr} outside the {size}-word heap"
            ),
            SimError::SharedOutOfBounds { kernel, addr, size } => write!(
                f,
                "kernel `{kernel}`: shared access at word {addr} outside the block's {size} words"
            ),
            SimError::HostDataMismatch { reason } => write!(f, "host data mismatch: {reason}"),
            SimError::UnsupportedWidth { b } => {
                write!(f, "machine width b = {b} unsupported (the simulator requires b ≤ 64)")
            }
            SimError::RaceDetected { kernel, addr } => write!(
                f,
                "kernel `{kernel}`: two thread blocks wrote global word {addr} in one launch"
            ),
            SimError::NoSuchDevice { device, devices } => {
                write!(f, "step addresses device {device} but the system has {devices} device(s)")
            }
            SimError::InvalidCluster { reason } => write!(f, "invalid cluster: {reason}"),
            SimError::StreamOutOfRange { stream, round } => write!(
                f,
                "round {round} addresses stream {stream}, limit {}",
                atgpu_ir::MAX_STREAMS
            ),
            SimError::Watchdog { kernel, budget } => write!(
                f,
                "kernel `{kernel}` exceeded the watchdog budget of {budget} simulated cycles"
            ),
            SimError::DeviceLost { device, round } => write!(
                f,
                "device {device} died at round {round} with no surviving device to recover on"
            ),
            SimError::WorkerPanic { context } => {
                write!(f, "simulation worker thread panicked or failed to start while {context}")
            }
            SimError::InvalidNoise { reason } => write!(f, "invalid transfer noise: {reason}"),
            SimError::InvalidKernel { error } => write!(f, "invalid kernel launch: {error}"),
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn messages_carry_numbers() {
        let e = SimError::GlobalOutOfBounds { kernel: "k".into(), addr: -3, size: 10 };
        assert!(e.to_string().contains("-3"));
        let e = SimError::UnsupportedWidth { b: 128 };
        assert!(e.to_string().contains("128"));
    }
}
