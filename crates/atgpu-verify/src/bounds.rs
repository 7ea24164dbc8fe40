//! Affine bounds checking.
//!
//! Interval analysis over every access site: the extent an affine
//! address takes across all blocks × active lanes × loop iterations —
//! the extent rule [`atgpu_ir::affine::AffineAddr::corners`], whose two
//! corners are the lowest and the highest point of the address — is
//! compared against the accessed allocation: the buffer's *padded* slot
//! in the canonical device layout for global sites (buffers are padded
//! to a block boundary and the padding reads as deterministic zeros),
//! the kernel's `shared_words` for shared sites.
//!
//! Three-valued and sound in both directions:
//!
//! * **in-bounds** is claimed when both corners lie inside the
//!   allocation, taken over an over-approximated domain (an unknown
//!   lane mask widens to the full warp), so a proof covers every
//!   execution;
//! * **out-of-bounds** is claimed only with an exact witness — the
//!   corner that escapes the allocation, a concrete `(block, lane,
//!   iteration)` with its address exact in `i128` — and only when its
//!   lane is *known active* (the enclosing predicates folded to a
//!   constant mask, which names the corner's lane).  Lane-pure masks are
//!   the same in every block and iteration, so the witness lane
//!   definitely executes the access;
//! * anything else — register-dependent addresses, interpreted trees,
//!   block-dependent guards — is **unknown**, never a false alarm.

use atgpu_analyze::sites::{Site, Space};
use atgpu_ir::{padded_slot, Kernel, Program};

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
    /// The offending address (buffer-relative for global sites), exact.
    pub addr: i128,
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

/// Checks one site of `kernel` against its allocation.
pub fn check_site(program: &Program, kernel: &Kernel, site: &Site, b: u64) -> BoundsVerdict {
    let limit = match site.space {
        // Global buffers live in the canonical layout, each in its
        // padded slot.  Accesses into a buffer's own zero-initialised
        // padding are deterministic and idiomatic (the reduction tree
        // reads past its logical level size on purpose); only past the
        // slot could an access alias another allocation, so that is the
        // sound limit.
        Space::Global => match site.buf.and_then(|d| program.device_buf_words(d)) {
            Some(w) => padded_slot(w, b),
            None => return BoundsVerdict::Unknown,
        },
        Space::Shared => kernel.shared_words,
    };
    // Sites that never execute are vacuously in-bounds.
    if site.lane_mask == Some(0) || site.loop_counts.contains(&0) {
        return BoundsVerdict::InBounds;
    }
    // An unknown mask is every lane: sound for the in-bounds proof, and
    // no witness.
    let Some([low, high]) = site.extent(b, kernel.grid) else {
        return BoundsVerdict::Unknown;
    };
    let escapes = |addr: i128| addr < 0 || addr >= i128::from(limit);
    let corner = match (escapes(low.addr), escapes(high.addr)) {
        (false, false) => return BoundsVerdict::InBounds,
        (_, true) => high,
        (true, false) => low,
    };
    // The walk folds a mask over the 64 lanes it names; a lane past
    // them is not known to run.
    match (site.lane_mask, i64::try_from(corner.block.0), i64::try_from(corner.block.1)) {
        (Some(_), Ok(x), Ok(y)) if corner.lane < 64 => BoundsVerdict::OutOfBounds(OobWitness {
            block: (x, y),
            lane: corner.lane as i64,
            loops: corner.loops.iter().take(site.loop_counts.len()).copied().collect(),
            addr: corner.addr,
            limit,
        }),
        _ => BoundsVerdict::Unknown,
    }
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

    /// `d[block·2⁶² + lane]` over 4 blocks reaches 3·2⁶² + 31, past
    /// `i64::MAX`: out of bounds, with the exact witness.
    #[test]
    fn an_address_past_i64_is_out_of_bounds_with_an_exact_witness() {
        let mut kb = KernelBuilder::new("k", 4, 32);
        let d = atgpu_ir::DBuf(0);
        kb.glb_to_shr(AddrExpr::lane(), d, AddrExpr::block() * (1i64 << 62) + AddrExpr::lane());
        let (p, _) = one_kernel_program(128, kb.build());
        let report = crate::verify_program(&p, 32);
        assert!(!report.is_sound());
        let oob = &report.launches[0].oob;
        assert_eq!(oob.len(), 1, "{report:?}");
        let w = &oob[0].witness;
        assert_eq!((w.block, w.lane, w.addr, w.limit), ((3, 0), 31, 3 * (1i128 << 62) + 31, 128));
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
