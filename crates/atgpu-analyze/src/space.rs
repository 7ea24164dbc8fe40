//! Space metrics and touched-range analysis.
//!
//! * **Global memory space** — the model takes the peak words stored in
//!   global memory; with the canonical up-front allocation discipline
//!   (matching the paper's kernels, which `cudaMalloc` everything before
//!   round 1) this is the padded total of
//!   [`atgpu_ir::Program::buffer_layout`].
//! * **Shared memory space** — each kernel declares its per-block
//!   footprint `m`; [`affine_range`] additionally bounds the addresses a
//!   static access can actually touch, catching kernels that under-declare
//!   (an error) long before simulation.

use atgpu_ir::affine::{AffineAddr, CompiledAddr};

/// Inclusive `(min, max)` of the values an affine address takes over
/// `lane ∈ [0, b)`, `block ∈ [0, blocks)` and the given loop trip counts.
/// Returns `None` for data-dependent addresses, or when any enclosing
/// trip count is zero (the site never executes).
pub fn affine_range(
    a: &AffineAddr,
    b: u64,
    grid: (u64, u64),
    loop_counts: &[u32],
) -> Option<(i64, i64)> {
    if !a.is_static() {
        return None;
    }
    if b == 0 || grid.0 == 0 || grid.1 == 0 || loop_counts.contains(&0) {
        return None;
    }
    let mut lo = a.base as i128;
    let mut hi = a.base as i128;
    let mut extend = |coef: i64, count: u64| {
        if count == 0 {
            return;
        }
        let span = coef as i128 * (count as i128 - 1);
        if span >= 0 {
            hi += span;
        } else {
            lo += span;
        }
    };
    extend(a.lane, b);
    extend(a.block, grid.0);
    extend(a.block_y, grid.1);
    for (d, &count) in loop_counts.iter().enumerate() {
        extend(a.loops.get(d).copied().unwrap_or(0), u64::from(count));
    }
    // Kernel addresses stay far inside i64 for any realistic machine.
    Some((lo as i64, hi as i64))
}

/// Touched range for a compiled address, if statically known.
pub fn touched_range(
    addr: &CompiledAddr,
    b: u64,
    grid: (u64, u64),
    loop_counts: &[u32],
) -> Option<(i64, i64)> {
    affine_range(addr.as_affine()?, b, grid, loop_counts)
}

/// Inclusive `(min, max)` of an affine address over the **active lanes
/// of a constant mask** — the masked-affine refinement of
/// [`affine_range`].  A tree-reduction step that reads `_s[j + s]` under
/// `j < s` touches only `[s, 2s)`, not the full-warp `[s, b − 1 + s]`.
/// Returns `None` for data-dependent addresses or when the site never
/// executes (empty mask, zero trip count).
pub fn masked_affine_range(
    a: &AffineAddr,
    mask: u64,
    b: u64,
    grid: (u64, u64),
    loop_counts: &[u32],
) -> Option<(i64, i64)> {
    if mask == 0 {
        return None;
    }
    let lanes = b.min(64);
    let lo_lane = mask.trailing_zeros() as i64;
    let hi_lane = (63 - mask.leading_zeros() as i64).min(lanes as i64 - 1);
    // Full-warp range with the lane term zeroed, then the exact lane span.
    let no_lane = AffineAddr { lane: 0, ..*a };
    let (mut lo, mut hi) = affine_range(&no_lane, b, grid, loop_counts)?;
    let (l1, l2) = (a.lane * lo_lane, a.lane * hi_lane);
    lo += l1.min(l2);
    hi += l1.max(l2);
    Some((lo, hi))
}

/// Masked touched range for a compiled address, if statically known.
pub fn masked_touched_range(
    addr: &CompiledAddr,
    mask: u64,
    b: u64,
    grid: (u64, u64),
    loop_counts: &[u32],
) -> Option<(i64, i64)> {
    masked_affine_range(addr.as_affine()?, mask, b, grid, loop_counts)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use atgpu_ir::AddrExpr;

    fn range(e: AddrExpr, b: u64, grid: (u64, u64), loops: &[u32]) -> Option<(i64, i64)> {
        touched_range(&CompiledAddr::compile(e), b, grid, loops)
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
        let addr = CompiledAddr::compile(AddrExpr::lane() + 16);
        // Full warp: [16, 47].  Masked to lanes 0..16: [16, 31].
        assert_eq!(touched_range(&addr, 32, (1, 1), &[]), Some((16, 47)));
        assert_eq!(masked_touched_range(&addr, 0xFFFF, 32, (1, 1), &[]), Some((16, 31)));
        // Single-lane mask.
        assert_eq!(masked_touched_range(&addr, 1 << 5, 32, (1, 1), &[]), Some((21, 21)));
        // Empty mask: never executes.
        assert_eq!(masked_touched_range(&addr, 0, 32, (1, 1), &[]), None);
        // Negative stride flips the lane span.
        let rev = CompiledAddr::compile(AddrExpr::c(10) - AddrExpr::lane());
        assert_eq!(masked_touched_range(&rev, 0b1100, 16, (1, 1), &[]), Some((7, 8)));
    }

    #[test]
    fn unreferenced_deep_loops_ignored() {
        // Address uses only lane; enclosing loops with coef 0 don't move it.
        assert_eq!(range(AddrExpr::lane(), 4, (2, 1), &[3, 7]), Some((0, 3)));
    }
}
