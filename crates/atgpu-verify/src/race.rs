//! Cross-block write-race detection.
//!
//! The simulator merges per-block write logs in block order
//! (`apply_write_log`), so a kernel is deterministic under *every* shard
//! plan exactly when no two **distinct blocks** write the same global
//! word.  This module decides that property statically for affine
//! kernels: each pair of global write sites (including a site paired
//! with itself) induces a linear Diophantine system
//!
//! ```text
//! base_a + cL·la + cB·xa + cBY·ya + Σ c_d·ta_d
//!   = base_b + cL'·lb + cB'·xb + cBY'·yb + Σ c'_d·tb_d,
//!   (xa, ya) ≠ (xb, yb), all variables boxed by grid/mask/trip counts
//! ```
//!
//! fed to [`crate::solve`].  Block distinctness is encoded by four
//! **relaxed substitutions** — `xa = xb ± d` with `d ≥ 1` (and the same
//! split on the Y axis with X left free) — whose variable boxes are
//! supersets of the true coupled domains.  That direction keeps `No`
//! sound (no solution of a superset ⇒ no real race), and any `Yes` is
//! **post-validated**: the decoded candidate must name in-grid distinct
//! blocks, mask-active lanes, in-range iterations, and the two site
//! addresses must re-evaluate equal.  Only a validated candidate with
//! *exact* masks becomes a [`RaceVerdict::Racy`] witness; everything
//! the pipeline cannot pin down (register addresses, tree addresses,
//! unknown masks, solver budget) degrades to [`RaceVerdict::Unknown`],
//! never a false `RaceFree`.
//!
//! The pair that costs the most is a write site paired with itself —
//! every output write is one.  Its split base drops out (`cB − cB = 0`)
//! and every other variable comes twice with opposite coefficients:
//!
//! ```text
//! cL·(la − lb) + Σ c_d·(ta_d − tb_d) + cBY·(ya − yb) + cB·d = 0
//! ```
//!
//! The solver's projection ([`crate::solve`]) collapses each `±` pair
//! into one difference term, so the tiled transposes' eight-term
//! equation (two lanes, two loop counters, base and gap, two free Y
//! coordinates) is searched as four terms — lane, loop and Y
//! differences and the gap — and a mixed-radix address (block, lane and
//! two loop digits) as four, instead of an enumeration over every lane
//! and iteration of both executions.

use crate::solve::{solve, Dom, Feas, Var};
use atgpu_analyze::sites::{Access, Site, Space};
use atgpu_ir::affine::AffineAddr;
use atgpu_ir::Kernel;

/// Per-pair solver budget (recursion nodes + enumerated points).
const PAIR_BUDGET: u64 = 200_000;

/// A concrete two-block collision: both executions write `addr`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaceWitness {
    /// First writer: instruction index, block `(x, y)`, lane, loop
    /// counters.
    pub a: (usize, (i64, i64), i64, Vec<u32>),
    /// Second writer, a different block.
    pub b: (usize, (i64, i64), i64, Vec<u32>),
    /// The global word (buffer-relative) both write.
    pub addr: i64,
}

/// Race verdict for one kernel launch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RaceVerdict {
    /// Proven: no two distinct blocks write the same global word, for
    /// any shard plan.
    RaceFree,
    /// A validated two-block collision exists.
    Racy(RaceWitness),
    /// Undecided (data-dependent addressing or analysis budget).
    Unknown,
}

impl RaceVerdict {
    fn worse(self, other: RaceVerdict) -> RaceVerdict {
        match (self, other) {
            (r @ RaceVerdict::Racy(_), _) | (_, r @ RaceVerdict::Racy(_)) => r,
            (RaceVerdict::Unknown, _) | (_, RaceVerdict::Unknown) => RaceVerdict::Unknown,
            _ => RaceVerdict::RaceFree,
        }
    }
}

/// Variable slots of one pair's equation, in a fixed order so witnesses
/// can be decoded positionally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    LaneA,
    LaneB,
    LoopA(usize),
    LoopB(usize),
    /// The shared block coordinate `u` of a substitution (X or Y axis).
    SplitBase,
    /// The positive gap `d ≥ 1` of the substitution.
    SplitDelta,
    /// A block coordinate left free (the axis not being split).
    FreeXa,
    FreeXb,
    FreeYa,
    FreeYb,
}

struct PairQuery<'a> {
    a: &'a Site,
    b: &'a Site,
    aff_a: &'a AffineAddr,
    aff_b: &'a AffineAddr,
    mask_a: u64,
    mask_b: u64,
    grid: (u64, u64),
}

/// Which axis the block-distinctness split runs on, and the sign of the
/// gap (`xa = u + d` vs `xb = u + d`).
#[derive(Clone, Copy)]
enum Split {
    X { a_high: bool },
    Y { a_high: bool },
}

impl PairQuery<'_> {
    /// Builds the variable list for one relaxed substitution.  Returns
    /// `None` when the split axis has fewer than 2 blocks (no distinct
    /// pair exists along it).
    fn vars(&self, split: Split) -> Option<(Vec<Var>, Vec<Slot>)> {
        let (gx, gy) = (self.grid.0 as i64, self.grid.1 as i64);
        let mut vars = Vec::new();
        let mut slots = Vec::new();
        let mut push = |coef: i64, dom: Dom, slot: Slot| {
            vars.push(Var { coef, dom });
            slots.push(slot);
        };
        push(self.aff_a.lane, Dom::lanes(self.mask_a), Slot::LaneA);
        push(-self.aff_b.lane, Dom::lanes(self.mask_b), Slot::LaneB);
        for (d, &count) in self.a.loop_counts.iter().enumerate() {
            let coef = self.aff_a.loops.get(d).copied().unwrap_or(0);
            push(coef, Dom::Range(0, i64::from(count) - 1), Slot::LoopA(d));
        }
        for (d, &count) in self.b.loop_counts.iter().enumerate() {
            let coef = self.aff_b.loops.get(d).copied().unwrap_or(0);
            push(-coef, Dom::Range(0, i64::from(count) - 1), Slot::LoopB(d));
        }
        let (ca, cb, g) = match split {
            Split::X { .. } => (self.aff_a.block, self.aff_b.block, gx),
            Split::Y { .. } => (self.aff_a.block_y, self.aff_b.block_y, gy),
        };
        if g < 2 {
            return None;
        }
        let a_high = match split {
            Split::X { a_high } | Split::Y { a_high } => a_high,
        };
        // Split coordinate: high = u + d, low = u, with u ∈ [0, g−2]
        // and d ∈ [1, g−1] — a (relaxed) superset of all ordered
        // distinct pairs along the axis.
        push(ca - cb, Dom::Range(0, g - 2), Slot::SplitBase);
        let delta_coef = if a_high { ca } else { -cb };
        push(delta_coef, Dom::Range(1, g - 1), Slot::SplitDelta);
        // The other axis is unconstrained between the two executions.
        match split {
            Split::X { .. } => {
                if gy > 1 || self.aff_a.block_y != 0 || self.aff_b.block_y != 0 {
                    push(self.aff_a.block_y, Dom::Range(0, gy - 1), Slot::FreeYa);
                    push(-self.aff_b.block_y, Dom::Range(0, gy - 1), Slot::FreeYb);
                }
            }
            Split::Y { .. } => {
                push(self.aff_a.block, Dom::Range(0, gx - 1), Slot::FreeXa);
                push(-self.aff_b.block, Dom::Range(0, gx - 1), Slot::FreeXb);
            }
        }
        Some((vars, slots))
    }

    /// Decodes a solver witness back into concrete executions and
    /// validates it end to end.  `None` means the candidate was spurious
    /// (expected occasionally: the substitution boxes are relaxed).
    fn validate(&self, split: Split, slots: &[Slot], values: &[i64]) -> Option<RaceWitness> {
        let mut lane_a = 0i64;
        let mut lane_b = 0i64;
        let mut loops_a = vec![0u32; self.a.loop_counts.len()];
        let mut loops_b = vec![0u32; self.b.loop_counts.len()];
        let mut base = 0i64;
        let mut delta = 0i64;
        let (mut xa, mut ya, mut xb, mut yb) = (0i64, 0i64, 0i64, 0i64);
        for (slot, &v) in slots.iter().zip(values) {
            match *slot {
                Slot::LaneA => lane_a = v,
                Slot::LaneB => lane_b = v,
                Slot::LoopA(d) => *loops_a.get_mut(d)? = u32::try_from(v).ok()?,
                Slot::LoopB(d) => *loops_b.get_mut(d)? = u32::try_from(v).ok()?,
                Slot::SplitBase => base = v,
                Slot::SplitDelta => delta = v,
                Slot::FreeXa => xa = v,
                Slot::FreeXb => xb = v,
                Slot::FreeYa => ya = v,
                Slot::FreeYb => yb = v,
            }
        }
        match split {
            Split::X { a_high } => {
                if a_high {
                    xa = base + delta;
                    xb = base;
                } else {
                    xa = base;
                    xb = base + delta;
                }
            }
            Split::Y { a_high } => {
                if a_high {
                    ya = base + delta;
                    yb = base;
                } else {
                    ya = base;
                    yb = base + delta;
                }
            }
        }
        let (gx, gy) = (self.grid.0 as i64, self.grid.1 as i64);
        let in_grid = |x: i64, y: i64| (0..gx).contains(&x) && (0..gy).contains(&y);
        if !in_grid(xa, ya) || !in_grid(xb, yb) || (xa, ya) == (xb, yb) {
            return None;
        }
        let lane_live = |lane: i64, mask: u64| (0..=63).contains(&lane) && mask >> lane & 1 != 0;
        if !lane_live(lane_a, self.mask_a) || !lane_live(lane_b, self.mask_b) {
            return None;
        }
        let addr_a = self.aff_a.eval(lane_a, (xa, ya), &loops_a, |_| 0);
        let addr_b = self.aff_b.eval(lane_b, (xb, yb), &loops_b, |_| 0);
        if addr_a != addr_b {
            return None;
        }
        Some(RaceWitness {
            a: (self.a.instr, (xa, ya), lane_a, loops_a),
            b: (self.b.instr, (xb, yb), lane_b, loops_b),
            addr: addr_a,
        })
    }
}

/// Decides the pair: can sites `a` and `b`, executed by **distinct**
/// blocks, write the same word of their (shared) buffer?
fn check_pair(a: &Site, b: &Site, grid: (u64, u64), full_mask: u64) -> RaceVerdict {
    // Vacuously silent sites cannot race.
    if a.lane_mask == Some(0)
        || b.lane_mask == Some(0)
        || a.loop_counts.contains(&0)
        || b.loop_counts.contains(&0)
    {
        return RaceVerdict::RaceFree;
    }
    let (aff_a, aff_b) = match (a.addr.as_affine(), b.addr.as_affine()) {
        (Some(x), Some(y)) if x.is_static() && y.is_static() => (x, y),
        _ => return RaceVerdict::Unknown,
    };
    let exact_masks = a.lane_mask.is_some() && b.lane_mask.is_some();
    let q = PairQuery {
        a,
        b,
        aff_a,
        aff_b,
        mask_a: a.lane_mask.unwrap_or(full_mask),
        mask_b: b.lane_mask.unwrap_or(full_mask),
        grid,
    };
    let target = aff_b.base - aff_a.base;
    let splits = [
        Split::X { a_high: true },
        Split::X { a_high: false },
        Split::Y { a_high: true },
        Split::Y { a_high: false },
    ];
    let mut verdict = RaceVerdict::RaceFree;
    for split in splits {
        let Some((vars, slots)) = q.vars(split) else { continue };
        let mut budget = PAIR_BUDGET;
        match solve(&vars, target, &mut budget) {
            Feas::No => {}
            Feas::Yes(values) => match q.validate(split, &slots, &values) {
                Some(w) if exact_masks => return RaceVerdict::Racy(w),
                // A real-looking candidate under an over-approximated
                // mask, or a spurious relaxed solution: can't prove
                // either way.
                _ => verdict = verdict.worse(RaceVerdict::Unknown),
            },
            Feas::Maybe => verdict = verdict.worse(RaceVerdict::Unknown),
        }
    }
    verdict
}

/// Decides whether two distinct blocks of `kernel` (with `b` lanes per
/// block) can write the same global word, over the kernel's `sites` as
/// collected by [`atgpu_analyze::sites::collect`].
pub fn check_sites(kernel: &Kernel, sites: &[Site], b: u64) -> RaceVerdict {
    if kernel.blocks() <= 1 {
        return RaceVerdict::RaceFree;
    }
    let writes: Vec<&Site> =
        sites.iter().filter(|s| s.space == Space::Global && s.access == Access::Write).collect();
    let full = if b >= 64 { u64::MAX } else { (1u64 << b.max(1)) - 1 };
    let mut verdict = RaceVerdict::RaceFree;
    for (i, a) in writes.iter().enumerate() {
        for bsite in writes.iter().skip(i) {
            if a.buf != bsite.buf {
                continue;
            }
            verdict = verdict.worse(check_pair(a, bsite, kernel.grid, full));
            if matches!(verdict, RaceVerdict::Racy(_)) {
                return verdict;
            }
        }
    }
    verdict
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing, clippy::panic)]
mod tests {
    use super::*;
    use atgpu_analyze::sites::collect;
    use atgpu_ir::{AddrExpr, DBuf, KernelBuilder, Operand, PredExpr};

    /// The race verdict of `kernel` on a 32-lane machine.
    fn verdict(kernel: &Kernel) -> RaceVerdict {
        check_sites(kernel, &collect(kernel, 32), 32)
    }

    fn slab_kernel(blocks: u64) -> Kernel {
        let mut kb = KernelBuilder::new("slab", blocks, 64);
        let d = DBuf(0);
        kb.glb_to_shr(AddrExpr::lane(), d, AddrExpr::block() * 32 + AddrExpr::lane());
        kb.shr_to_glb(d, AddrExpr::block() * 32 + AddrExpr::lane(), AddrExpr::lane());
        kb.build()
    }

    #[test]
    fn disjoint_slabs_race_free() {
        assert_eq!(verdict(&slab_kernel(4)), RaceVerdict::RaceFree);
        // Huge grids must be decided by the closed form, not enumeration.
        assert_eq!(verdict(&slab_kernel(200_000)), RaceVerdict::RaceFree);
    }

    #[test]
    fn single_block_trivially_race_free() {
        let mut kb = KernelBuilder::new("k", 1, 0);
        kb.shr_to_glb(DBuf(0), AddrExpr::lane(), AddrExpr::lane());
        assert_eq!(verdict(&kb.build()), RaceVerdict::RaceFree);
    }

    #[test]
    fn overlapping_stride_is_racy_with_witness() {
        // Stride 16 with 32 lanes: block i writes [16i, 16i+32), so
        // neighbouring blocks overlap halfway.
        let mut kb = KernelBuilder::new("k", 4, 32);
        let d = DBuf(0);
        kb.shr_to_glb(d, AddrExpr::block() * 16 + AddrExpr::lane(), AddrExpr::lane());
        match verdict(&kb.build()) {
            RaceVerdict::Racy(w) => {
                assert_ne!(w.a.1, w.b.1, "witness blocks must differ");
                // Reconstruct both addresses from the witness.
                let addr =
                    |(_, (x, _), lane, _): &(usize, (i64, i64), i64, Vec<u32>)| 16 * x + lane;
                assert_eq!(addr(&w.a), w.addr);
                assert_eq!(addr(&w.b), w.addr);
            }
            v => panic!("expected Racy, got {v:?}"),
        }
    }

    #[test]
    fn all_blocks_write_word_zero_racy() {
        let mut kb = KernelBuilder::new("k", 8, 0);
        let d = DBuf(0);
        kb.when(PredExpr::Eq(Operand::Lane, Operand::Imm(0)), |kb| {
            kb.shr_to_glb(d, AddrExpr::c(0), AddrExpr::c(0));
        });
        match verdict(&kb.build()) {
            RaceVerdict::Racy(w) => assert_eq!(w.addr, 0),
            v => panic!("expected Racy, got {v:?}"),
        }
    }

    #[test]
    fn per_block_scalar_write_race_free() {
        // The reduce/gemv shape: lane 0 of each block writes out[block].
        let mut kb = KernelBuilder::new("k", 64, 0);
        let d = DBuf(0);
        kb.when(PredExpr::Eq(Operand::Lane, Operand::Imm(0)), |kb| {
            kb.shr_to_glb(d, AddrExpr::block(), AddrExpr::c(0));
        });
        assert_eq!(verdict(&kb.build()), RaceVerdict::RaceFree);
    }

    #[test]
    fn register_scatter_is_unknown() {
        let mut kb = KernelBuilder::new("k", 4, 0);
        let d = DBuf(0);
        kb.mov(0, Operand::Lane);
        kb.shr_to_glb(d, AddrExpr::reg(0), AddrExpr::lane());
        assert_eq!(verdict(&kb.build()), RaceVerdict::Unknown);
    }

    #[test]
    fn distinct_buffers_do_not_interact() {
        // Both "buffers" would collide at word 0 — but they're different
        // allocations.
        let mut kb = KernelBuilder::new("k", 4, 0);
        kb.when(PredExpr::Eq(Operand::Lane, Operand::Imm(0)), |kb| {
            kb.shr_to_glb(DBuf(0), AddrExpr::block(), AddrExpr::c(0));
            kb.shr_to_glb(DBuf(1), AddrExpr::block(), AddrExpr::c(0));
        });
        assert_eq!(verdict(&kb.build()), RaceVerdict::RaceFree);
    }

    #[test]
    fn two_d_grid_tile_writes_race_free() {
        // The matmul output shape: (by·b + t)·n + bx·b + lane over an
        // 8×8 tile grid, n = 256.
        let n = 256i64;
        let bb = 32i64;
        let mut kb = KernelBuilder::new_2d("mm", (8, 8), 64);
        let d = DBuf(0);
        kb.repeat(32, |kb| {
            kb.shr_to_glb(
                d,
                (AddrExpr::block_y() * bb + AddrExpr::loop_var(0)) * n
                    + AddrExpr::block() * bb
                    + AddrExpr::lane(),
                AddrExpr::lane(),
            );
        });
        assert_eq!(verdict(&kb.build()), RaceVerdict::RaceFree);
    }

    #[test]
    fn two_d_row_overlap_is_racy() {
        // Same shape but row stride 16 < tile height 32: vertical
        // neighbours overlap.
        let n = 256i64;
        let mut kb = KernelBuilder::new_2d("mm", (8, 8), 64);
        let d = DBuf(0);
        kb.repeat(32, |kb| {
            kb.shr_to_glb(
                d,
                (AddrExpr::block_y() * 16 + AddrExpr::loop_var(0)) * n
                    + AddrExpr::block() * 32
                    + AddrExpr::lane(),
                AddrExpr::lane(),
            );
        });
        assert!(matches!(verdict(&kb.build()), RaceVerdict::Racy(_)));
    }

    #[test]
    fn self_pair_within_loop_race_free_when_strided() {
        // One site, looped: block stride 64 = 2 iterations × 32 words,
        // iterations tile the slab without crossing blocks.
        let mut kb = KernelBuilder::new("k", 16, 32);
        let d = DBuf(0);
        kb.repeat(2, |kb| {
            kb.shr_to_glb(
                d,
                AddrExpr::block() * 64 + AddrExpr::loop_var(0) * 32 + AddrExpr::lane(),
                AddrExpr::lane(),
            );
        });
        assert_eq!(verdict(&kb.build()), RaceVerdict::RaceFree);
    }

    #[test]
    fn mixed_radix_block_last_is_proven_race_free() {
        // `block + 64·lane + 2048·t₀ + 122880·t₁` over 64 blocks, 32
        // lanes and a 60 × 60 nest: every digit stays below the next
        // one's stride, so the address is a mixed-radix number and no two
        // executions share a word.  The self-pair has eight terms; the
        // lane and loop pairs project to three differences, leaving a
        // four-term equation instead of a 60⁴·32² search.
        let mut kb = KernelBuilder::new("mixed_radix", 64, 32);
        let d = DBuf(0);
        kb.repeat(60, |kb| {
            kb.repeat(60, |kb| {
                kb.shr_to_glb(
                    d,
                    AddrExpr::block()
                        + AddrExpr::lane() * 64
                        + AddrExpr::loop_var(0) * 2048
                        + AddrExpr::loop_var(1) * 122_880,
                    AddrExpr::lane(),
                );
            });
        });
        assert_eq!(verdict(&kb.build()), RaceVerdict::RaceFree);
    }
}
