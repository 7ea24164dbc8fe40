//! IR construction and validation errors.

use std::fmt;

/// Errors raised while building or validating IR programs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IrError {
    /// A register index is out of range (`≥ MAX_REGS`).
    RegisterOutOfRange {
        /// Offending register index.
        reg: u8,
        /// Kernel name.
        kernel: String,
    },
    /// Loop nesting exceeds [`crate::MAX_LOOP_DEPTH`].
    LoopTooDeep {
        /// Observed depth.
        depth: usize,
        /// Kernel name.
        kernel: String,
    },
    /// A `LoopVar(d)` is referenced outside a loop of that depth.
    LoopVarOutOfScope {
        /// Referenced loop variable depth.
        var: u8,
        /// Depth of loops actually enclosing the reference.
        enclosing: usize,
        /// Kernel name.
        kernel: String,
    },
    /// A device buffer id is referenced but never declared.
    UnknownDeviceBuf {
        /// Offending buffer id.
        buf: u32,
    },
    /// A host buffer id is referenced but never declared.
    UnknownHostBuf {
        /// Offending buffer id.
        buf: u32,
    },
    /// A transfer's range exceeds the referenced buffer's extent.
    TransferOutOfBounds {
        /// Which buffer ("host X" / "device y").
        what: String,
        /// First word past the referenced range.
        end: u64,
        /// Buffer size in words.
        size: u64,
    },
    /// A round contains more than one kernel launch.
    MultipleLaunches {
        /// Round index.
        round: usize,
    },
    /// A round interleaves steps out of the model's order
    /// (inward transfers → launch → outward transfers).
    StepOrder {
        /// Round index.
        round: usize,
        /// Human-readable description.
        reason: String,
    },
    /// The program has no rounds.
    EmptyProgram,
    /// A kernel declares zero thread blocks.
    ZeroBlocks {
        /// Kernel name.
        kernel: String,
    },
    /// A kernel's grid `gx·gy` overflows a `u64` block count.
    GridOverflow {
        /// The declared grid.
        grid: (u64, u64),
        /// Kernel name.
        kernel: String,
    },
    /// Writing to a host input buffer, or reading a host output buffer
    /// before it is written.
    HostBufRole {
        /// Human-readable description.
        reason: String,
    },
    /// A sharded launch's block ranges do not partition the grid.
    BadShardPlan {
        /// Kernel name.
        kernel: String,
        /// Round index of the offending launch.
        round: usize,
        /// Exactly what is wrong with the plan.
        detail: ShardPlanError,
    },
    /// A transfer or sync references a stream id `≥ MAX_STREAMS`.
    StreamOutOfRange {
        /// Offending stream id.
        stream: u32,
        /// Round index.
        round: usize,
    },
}

/// Structured diagnosis of a shard plan that fails to partition the
/// grid `0..blocks`.  Rather than stopping at the first bad boundary,
/// the validator sweeps the whole plan and reports *every* missing,
/// doubly-covered and out-of-grid block range, so a planner bug can be
/// read off the payload directly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardPlanError {
    /// The sharded launch lists no shards at all.
    NoShards,
    /// Shards whose range is empty (`end ≤ start`), as
    /// `(device, start, end)` triples in plan order.
    EmptyShards {
        /// The offending shards.
        shards: Vec<(u32, u64, u64)>,
    },
    /// The (individually non-empty) shards do not cover the grid
    /// exactly once.  Every listed range is half-open and maximal.
    BadCoverage {
        /// Blocks the kernel launches (`kernel.blocks()`).
        blocks: u64,
        /// Grid ranges no shard covers.
        missing: Vec<(u64, u64)>,
        /// Grid ranges covered by two or more shards.
        overlapping: Vec<(u64, u64)>,
        /// Shard-claimed ranges past the end of the grid.
        out_of_grid: Vec<(u64, u64)>,
    },
}

fn fmt_ranges(ranges: &[(u64, u64)]) -> String {
    let parts: Vec<String> = ranges.iter().map(|&(lo, hi)| format!("[{lo}, {hi})")).collect();
    parts.join(", ")
}

impl fmt::Display for ShardPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardPlanError::NoShards => write!(f, "sharded launch lists no shards"),
            ShardPlanError::EmptyShards { shards } => {
                let parts: Vec<String> =
                    shards.iter().map(|&(d, lo, hi)| format!("gpu{d}: [{lo}, {hi})")).collect();
                write!(f, "empty shard range(s): {}", parts.join(", "))
            }
            ShardPlanError::BadCoverage { blocks, missing, overlapping, out_of_grid } => {
                write!(f, "shards must cover blocks [0, {blocks}) exactly once")?;
                if !missing.is_empty() {
                    write!(f, "; uncovered: {}", fmt_ranges(missing))?;
                }
                if !overlapping.is_empty() {
                    write!(f, "; covered more than once: {}", fmt_ranges(overlapping))?;
                }
                if !out_of_grid.is_empty() {
                    write!(f, "; past the grid: {}", fmt_ranges(out_of_grid))?;
                }
                Ok(())
            }
        }
    }
}

impl fmt::Display for IrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IrError::RegisterOutOfRange { reg, kernel } => {
                write!(f, "kernel `{kernel}`: register r{reg} out of range")
            }
            IrError::LoopTooDeep { depth, kernel } => {
                write!(f, "kernel `{kernel}`: loop nesting depth {depth} exceeds maximum")
            }
            IrError::LoopVarOutOfScope { var, enclosing, kernel } => write!(
                f,
                "kernel `{kernel}`: LoopVar({var}) referenced with only {enclosing} enclosing loop(s)"
            ),
            IrError::UnknownDeviceBuf { buf } => write!(f, "unknown device buffer d{buf}"),
            IrError::UnknownHostBuf { buf } => write!(f, "unknown host buffer h{buf}"),
            IrError::TransferOutOfBounds { what, end, size } => {
                write!(f, "transfer touches {what}[..{end}] but the buffer has {size} words")
            }
            IrError::MultipleLaunches { round } => {
                write!(f, "round {round}: more than one kernel launch (the model runs one kernel per round)")
            }
            IrError::StepOrder { round, reason } => write!(f, "round {round}: {reason}"),
            IrError::EmptyProgram => write!(f, "program has no rounds"),
            IrError::ZeroBlocks { kernel } => {
                write!(f, "kernel `{kernel}` launches zero thread blocks")
            }
            IrError::GridOverflow { grid: (gx, gy), kernel } => {
                write!(f, "kernel `{kernel}`: grid {gx} × {gy} overflows the block count")
            }
            IrError::HostBufRole { reason } => write!(f, "host buffer role violation: {reason}"),
            IrError::BadShardPlan { kernel, round, detail } => {
                write!(f, "round {round}: kernel `{kernel}`: bad shard plan: {detail}")
            }
            IrError::StreamOutOfRange { stream, round } => {
                write!(
                    f,
                    "round {round}: stream {stream} out of range (max {})",
                    crate::MAX_STREAMS - 1
                )
            }
        }
    }
}

impl std::error::Error for IrError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_register() {
        let e = IrError::RegisterOutOfRange { reg: 99, kernel: "k".into() };
        assert!(e.to_string().contains("r99"));
    }
}
