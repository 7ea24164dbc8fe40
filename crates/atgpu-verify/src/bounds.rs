//! Affine bounds checking.
//!
//! Interval analysis over every access site: the inclusive range an
//! affine address takes across all blocks × active lanes × loop
//! iterations (via [`atgpu_analyze::space`]) is compared against the
//! accessed allocation — the buffer's *padded* slot in the canonical
//! device layout for global sites (buffers are padded to a block
//! boundary and the padding reads as deterministic zeros), the
//! kernel's `shared_words` for shared sites.
//!
//! Three-valued and sound in both directions:
//!
//! * **in-bounds** is claimed only from the over-approximated range
//!   (unknown lane masks widen to the full warp), so a proof covers
//!   every execution;
//! * **out-of-bounds** is claimed only with an exact witness — a
//!   concrete `(block, lane, iteration)` whose address the checker
//!   re-evaluates and confirms escapes the allocation, and whose lane is
//!   *known active* (the enclosing predicates folded to a constant
//!   mask).  Lane-pure masks are the same in every block and iteration,
//!   so the witness lane definitely executes the access;
//! * anything else — register-dependent addresses, interpreted trees,
//!   block-dependent guards — is **unknown**, never a false alarm.

use atgpu_analyze::sites::{Site, Space};
use atgpu_ir::affine::AffineAddr;
use atgpu_ir::{Kernel, Program, MAX_LOOP_DEPTH};

/// A confirmed out-of-bounds access: the concrete execution point and
/// the address it produces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OobWitness {
    /// Block index `(x, y)`.
    pub block: (i64, i64),
    /// Lane index (active under the site's folded mask).
    pub lane: i64,
    /// Enclosing-loop iteration counters, outermost first.
    pub loops: Vec<u32>,
    /// The offending address (buffer-relative for global sites).
    pub addr: i64,
    /// The allocation's size in words.
    pub limit: u64,
}

/// Bounds verdict for one access site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BoundsVerdict {
    /// Every reachable address lies inside the allocation.
    InBounds,
    /// A concrete, validated out-of-bounds execution exists.
    OutOfBounds(OobWitness),
    /// The checker cannot decide (data-dependent address or mask).
    Unknown,
}

/// Picks the per-dimension assignment that drives `coef·x` to its
/// extreme over `x ∈ [lo, hi]`: the upper end when maximising a
/// positive coefficient (or minimising a negative one), else the lower.
fn extreme(coef: i64, lo: i64, hi: i64, maximise: bool) -> i64 {
    if (coef >= 0) == maximise {
        hi
    } else {
        lo
    }
}

/// Builds the execution point at which `a` attains the extreme end of
/// its masked range, mirroring the arithmetic of
/// [`atgpu_analyze::space::masked_affine_range`].
fn witness_at_extreme(
    a: &AffineAddr,
    mask: u64,
    b: u64,
    grid: (u64, u64),
    loop_counts: &[u32],
    maximise: bool,
) -> Option<(i64, (i64, i64), Vec<u32>)> {
    let lanes = b.clamp(1, 64);
    let lo_lane = i64::from(mask.trailing_zeros().min(63));
    let hi_lane = (63 - i64::from(mask.leading_zeros())).min(lanes as i64 - 1);
    let lane = extreme(a.lane, lo_lane, hi_lane, maximise);
    let bx = extreme(a.block, 0, grid.0 as i64 - 1, maximise);
    let by = extreme(a.block_y, 0, grid.1 as i64 - 1, maximise);
    let mut its = Vec::with_capacity(loop_counts.len());
    for (d, &count) in loop_counts.iter().enumerate() {
        let coef = a.loops.get(d).copied().unwrap_or(0);
        let hi = i64::from(count).checked_sub(1)?;
        its.push(u32::try_from(extreme(coef, 0, hi, maximise)).ok()?);
    }
    // Loops deeper than the enclosing nest have coefficient 0 in any
    // well-formed kernel; `validate_program` already rejects the rest.
    if a.loops.iter().skip(loop_counts.len().min(MAX_LOOP_DEPTH)).any(|&c| c != 0) {
        return None;
    }
    let addr = a.eval(lane, (bx, by), &its, |_| 0);
    Some((addr, (bx, by), its))
}

/// Checks one site of `kernel` against its allocation.
pub fn check_site(program: &Program, kernel: &Kernel, site: &Site, b: u64) -> BoundsVerdict {
    let limit = match site.space {
        // Global buffers live in the canonical layout, each padded up to
        // a block boundary (`Program::buffer_layout(b)`).  Accesses into
        // a buffer's own zero-initialised padding are deterministic and
        // idiomatic (the reduction tree reads past its logical level
        // size on purpose); only past the padded slot could an access
        // alias another allocation, so that is the sound limit.
        Space::Global => match site.buf.and_then(|d| program.device_buf_words(d)) {
            Some(w) => w.div_ceil(b.max(1)) * b.max(1),
            None => return BoundsVerdict::Unknown,
        },
        Space::Shared => kernel.shared_words,
    };
    // Sites that never execute are vacuously in-bounds.
    if site.lane_mask == Some(0) || site.loop_counts.contains(&0) {
        return BoundsVerdict::InBounds;
    }
    let grid = kernel.grid;
    let full = if b >= 64 { u64::MAX } else { (1u64 << b) - 1 };
    // Over-approximate an unknown mask to the full warp: sound for the
    // in-bounds proof.
    let proof_mask = site.lane_mask.unwrap_or(full);
    let range = atgpu_analyze::space::masked_touched_range(
        &site.addr,
        proof_mask,
        b,
        grid,
        &site.loop_counts,
    );
    let (lo, hi) = match range {
        Some(r) => r,
        None => return BoundsVerdict::Unknown,
    };
    if lo >= 0 && (hi as i128) < limit as i128 {
        return BoundsVerdict::InBounds;
    }
    // Out of range: only an *exact* mask yields a trustworthy witness.
    let (mask, affine) = match (site.lane_mask, site.addr.as_affine()) {
        (Some(m), Some(a)) if m != 0 => (m, a),
        _ => return BoundsVerdict::Unknown,
    };
    let maximise = (hi as i128) >= limit as i128;
    if let Some((addr, block, loops)) =
        witness_at_extreme(affine, mask, b, grid, &site.loop_counts, maximise)
    {
        // Re-validate: the witness must actually escape the allocation.
        if addr < 0 || (addr as i128) >= limit as i128 {
            return BoundsVerdict::OutOfBounds(OobWitness {
                block,
                lane: extreme(
                    affine.lane,
                    i64::from(mask.trailing_zeros().min(63)),
                    (63 - i64::from(mask.leading_zeros())).min(b.clamp(1, 64) as i64 - 1),
                    maximise,
                ),
                loops,
                addr,
                limit,
            });
        }
    }
    BoundsVerdict::Unknown
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing, clippy::panic)]
mod tests {
    use super::*;
    use atgpu_analyze::sites::{collect, Access};
    use atgpu_ir::{AddrExpr, KernelBuilder, Operand, PredExpr, ProgramBuilder};

    fn one_kernel_program(words: u64, k: Kernel) -> (Program, Kernel) {
        let mut pb = ProgramBuilder::new("p");
        let d = pb.device_alloc("d", words);
        let h = pb.host_input("H", words);
        pb.transfer_in(h, d, words);
        pb.launch(k.clone());
        (pb.build().unwrap(), k)
    }

    #[test]
    fn in_bounds_proof() {
        let mut kb = KernelBuilder::new("k", 4, 32);
        let d = atgpu_ir::DBuf(0);
        kb.glb_to_shr(AddrExpr::lane(), d, AddrExpr::block() * 32 + AddrExpr::lane());
        kb.shr_to_glb(d, AddrExpr::block() * 32 + AddrExpr::lane(), AddrExpr::lane());
        let (p, k) = one_kernel_program(128, kb.build());
        for s in collect(&k, 32) {
            assert_eq!(check_site(&p, &k, &s, 32), BoundsVerdict::InBounds);
        }
    }

    #[test]
    fn oob_with_witness() {
        // 4 blocks × 32 lanes write [1, 128] into a 128-word buffer:
        // block 3 lane 31 lands on word 128, one past the end.
        let mut kb = KernelBuilder::new("k", 4, 32);
        let d = atgpu_ir::DBuf(0);
        kb.glb_to_shr(AddrExpr::lane(), d, AddrExpr::lane());
        kb.shr_to_glb(d, AddrExpr::block() * 32 + AddrExpr::lane() + 1, AddrExpr::lane());
        let (p, k) = one_kernel_program(128, kb.build());
        let sites = collect(&k, 32);
        let write =
            sites.iter().find(|s| s.space == Space::Global && s.access == Access::Write).unwrap();
        match check_site(&p, &k, write, 32) {
            BoundsVerdict::OutOfBounds(w) => {
                assert_eq!(w.block, (3, 0));
                assert_eq!(w.lane, 31);
                assert_eq!(w.addr, 128);
                assert_eq!(w.limit, 128);
            }
            v => panic!("expected OOB, got {v:?}"),
        }
    }

    #[test]
    fn negative_offset_oob() {
        let mut kb = KernelBuilder::new("k", 1, 32);
        let d = atgpu_ir::DBuf(0);
        kb.glb_to_shr(AddrExpr::lane(), d, AddrExpr::lane() - 1);
        let (p, k) = one_kernel_program(64, kb.build());
        let s = &collect(&k, 32)[0];
        match check_site(&p, &k, s, 32) {
            BoundsVerdict::OutOfBounds(w) => {
                assert_eq!(w.lane, 0);
                assert_eq!(w.addr, -1);
            }
            v => panic!("expected OOB, got {v:?}"),
        }
    }

    #[test]
    fn masked_guard_saves_it() {
        // `lane > 0` guard keeps `lane - 1` non-negative.
        let mut kb = KernelBuilder::new("k", 1, 32);
        let d = atgpu_ir::DBuf(0);
        kb.when(PredExpr::Lt(Operand::Imm(0), Operand::Lane), |kb| {
            kb.glb_to_shr(AddrExpr::lane(), d, AddrExpr::lane() - 1);
        });
        let (p, k) = one_kernel_program(64, kb.build());
        let s = &collect(&k, 32)[0];
        assert_eq!(check_site(&p, &k, s, 32), BoundsVerdict::InBounds);
    }

    #[test]
    fn register_address_is_unknown() {
        let mut kb = KernelBuilder::new("k", 1, 32);
        let d = atgpu_ir::DBuf(0);
        kb.mov(0, Operand::Lane);
        kb.glb_to_shr(AddrExpr::lane(), d, AddrExpr::reg(0));
        let (p, k) = one_kernel_program(64, kb.build());
        let s = &collect(&k, 32)[0];
        assert_eq!(check_site(&p, &k, s, 32), BoundsVerdict::Unknown);
    }

    #[test]
    fn shared_bounds_checked_against_shared_words() {
        let mut kb = KernelBuilder::new("k", 1, 16);
        kb.st_shr(AddrExpr::lane() + 1, Operand::Imm(0)); // lanes 0..32 → [1, 32], m = 16
        let (p, k) = one_kernel_program(64, kb.build());
        let s = &collect(&k, 32)[0];
        match check_site(&p, &k, s, 32) {
            BoundsVerdict::OutOfBounds(w) => {
                assert_eq!(w.limit, 16);
                assert_eq!(w.addr, 32);
            }
            v => panic!("expected OOB, got {v:?}"),
        }
    }
}
