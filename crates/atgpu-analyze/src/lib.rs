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
//! * [`analyze`] — the top-level [`analyze_cluster_program`] driver: one
//!   walk over a program's host steps for any device count, a lone
//!   device being the one-device case
//!   ([`ClusterProgramAnalysis::lone_device`]).
//!
//! ## Space metrics
//!
//! * **Global memory space** — the model takes the peak words stored in
//!   global memory; with the canonical up-front allocation discipline
//!   (matching the paper's kernels, which `cudaMalloc` everything before
//!   round 1) this is the padded total of
//!   [`atgpu_ir::ProgramBody::buffer_layout`], checked against `G`.
//! * **Shared memory space** — each kernel declares its per-block
//!   footprint `m`, checked against `M`.  The driver also bounds the
//!   addresses every static shared access can touch, over the kernel's
//!   whole grid, by the extent rule
//!   [`atgpu_ir::affine::AffineAddr::corners`] — the rule the verifier's
//!   bounds proof reads too — and refuses a kernel that under-declares
//!   with [`AnalyzeError::SharedOutOfRange`], long before simulation.
//!
//! ## One measurement cell
//!
//! The paper's method is a loop — analyse a program, price it, compare
//! with a measurement.  Its predicted half is [`predict`]: per-device
//! analysis ([`analyze_cluster_program`]), stream schedules
//! ([`stream_schedules`]) and the streamed cluster cost
//! ([`atgpu_model::cost::cluster_cost_streamed`]) in one call, returning
//! the cost together with a `trusted` bit (`io_exact && conflict_free`).
//! It is the composition of two stages: [`cost_inputs`] reads only the
//! program, the machine and the device count, and
//! [`CostInputs::price`] reads only the cluster spec, so a caller that
//! prices one program on many specs analyses it once.
//! The experiment harness compares `predict(..).cost.total_ms` with
//! simulated observations; the pricing service keeps each program's
//! [`CostInputs`] and answers analytically only when `trusted` holds,
//! simulating otherwise.  Outside the repo benchmark's own measured
//! pipeline there is no second statement of that rule in the tree.

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

pub use analyze::{
    analyze_cluster_program, cost_inputs, predict, stream_schedules, ClusterProgramAnalysis,
    CostInputs, KernelAnalysis, Prediction,
};
pub use bankconflict::{BankConflictReport, ConflictDegree};
pub use error::AnalyzeError;

/// The extents the shared-footprint check reads
/// ([`atgpu_ir::affine::AffineAddr::corners`]), pinned on small shapes.
#[cfg(test)]
mod space {
    #[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    mod tests {
        use atgpu_ir::affine::CompiledAddr;
        use atgpu_ir::AddrExpr;

        /// `(low, high)` of `e` under `mask` among `b` lanes.
        fn extent(
            e: AddrExpr,
            mask: u64,
            b: u64,
            grid: (u64, u64),
            loops: &[u32],
        ) -> Option<(i128, i128)> {
            let addr = CompiledAddr::compile(e);
            let [lo, hi] = addr.as_affine()?.corners(mask, b, grid, loops)?;
            Some((lo.addr, hi.addr))
        }

        fn range(e: AddrExpr, b: u64, grid: (u64, u64), loops: &[u32]) -> Option<(i128, i128)> {
            extent(e, u64::MAX, b, grid, loops)
        }

        #[test]
        fn lane_only_range() {
            assert_eq!(range(AddrExpr::lane(), 32, (1, 1), &[]), Some((0, 31)));
        }

        #[test]
        fn block_and_lane_range() {
            // i*32 + j for 4 blocks of 32 lanes: [0, 127]
            assert_eq!(
                range(AddrExpr::block() * 32 + AddrExpr::lane(), 32, (4, 1), &[]),
                Some((0, 127))
            );
        }

        #[test]
        fn negative_coefficient_extends_low() {
            assert_eq!(range(AddrExpr::c(10) - AddrExpr::lane(), 4, (1, 1), &[]), Some((7, 10)));
        }

        #[test]
        fn loop_counts_extend_range() {
            assert_eq!(
                range(AddrExpr::loop_var(0) * 8 + AddrExpr::lane(), 8, (1, 1), &[5]),
                Some((0, 39))
            );
        }

        #[test]
        fn data_dependent_is_unknown() {
            assert_eq!(range(AddrExpr::reg(0), 32, (1, 1), &[]), None);
        }

        #[test]
        fn non_affine_is_unknown() {
            assert_eq!(range(AddrExpr::lane() * AddrExpr::lane(), 32, (1, 1), &[]), None);
        }

        #[test]
        fn zero_trip_loop_never_executes() {
            assert_eq!(range(AddrExpr::lane(), 32, (1, 1), &[0]), None);
        }

        #[test]
        fn masked_range_shrinks_to_active_lanes() {
            let e = || AddrExpr::lane() + 16;
            // Full warp: [16, 47].  Masked to lanes 0..16: [16, 31].
            assert_eq!(range(e(), 32, (1, 1), &[]), Some((16, 47)));
            assert_eq!(extent(e(), 0xFFFF, 32, (1, 1), &[]), Some((16, 31)));
            // Single-lane mask.
            assert_eq!(extent(e(), 1 << 5, 32, (1, 1), &[]), Some((21, 21)));
            // Empty mask: never executes.
            assert_eq!(extent(e(), 0, 32, (1, 1), &[]), None);
            // Negative stride flips the lane span.
            let rev = AddrExpr::c(10) - AddrExpr::lane();
            assert_eq!(extent(rev, 0b1100, 16, (1, 1), &[]), Some((7, 8)));
        }

        #[test]
        fn unreferenced_deep_loops_ignored() {
            // Address uses only lane; enclosing loops with coef 0 don't move it.
            assert_eq!(range(AddrExpr::lane(), 4, (2, 1), &[3, 7]), Some((0, 3)));
        }
    }
}
