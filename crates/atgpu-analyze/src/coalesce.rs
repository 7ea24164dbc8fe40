//! Exact global-memory coalescing analysis — the model's I/O metric `qᵢ`.
//!
//! The model: "if `Cᵢ` requests words within the same memory block,
//! instructions coalesce and complete as a single transaction.  If
//! requested words are in `l` separate memory blocks, `l` separate
//! transactions occur."
//!
//! For a static affine address `base + cB·block + Σ c_d·loop_d + cL·lane`
//! the per-instance transaction count depends on the warp-folded base
//! **only through its residue mod `b`** (shifting all lane addresses by a
//! whole number of blocks shifts every block index equally).  So instead
//! of enumerating every `(block, iteration)` instance — there are millions
//! in the paper's sweeps — we:
//!
//! 1. build the histogram of folded-base residues over all instances one
//!    dimension at a time: a dimension whose coefficient is 0 mod `b`
//!    moves no residue and is one saturating multiply by its count; any
//!    other is folded in by [`fold_dimension`], which uses the cyclic
//!    structure of `coef·idx mod b`, and
//! 2. weight each residue by its per-warp transaction count, the closed
//!    form of [`atgpu_ir::affine::run_blocks`].
//!
//! Cost: per folded dimension `O(b)` for its whole cycles plus one step
//! per non-empty class and leftover index (at most `b²`, no division per
//! step); two rows of `b` on the stack (the heap only past 64 lanes), no
//! allocation per dimension; independent of `k` and trip counts.  The
//! count is **exact** — property tests check it against brute-force
//! enumeration.
//!
//! Masked accesses (inside divergent regions) are counted with all lanes
//! active: a deliberate, documented over-approximation matching how the
//! paper's hand analyses count their kernels.  Data-dependent addresses
//! (register operands) cannot be resolved statically; they are bounded by
//! the worst case of `b` transactions per instance and flagged inexact.

use atgpu_ir::affine::{bank_period, CompiledAddr};

/// Result of analysing one access site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiteTxns {
    /// Transactions contributed to `qᵢ` by this site across all thread
    /// blocks and loop iterations.
    pub txns: u64,
    /// Whether the count is exact (static affine address) or a
    /// conservative upper bound (data-dependent or non-affine address).
    pub exact: bool,
}

/// Number of distinct memory blocks touched by addresses
/// `{base + stride·lane : lane ∈ [0, lanes)}` with block size `b`.
/// Depends on `base` only through `base mod b` (callers exploit this).
///
/// This is the model's block rule, [`atgpu_ir::affine::run_blocks`],
/// which the simulator's executor applies to every row it moves —
/// analyser and simulator count transactions with the same code.
pub fn lane_block_count(base: i64, stride: i64, lanes: u64, b: u64) -> u64 {
    atgpu_ir::affine::run_blocks(base, stride, lanes, b)
}

/// Folds one dimension of `count` indices with coefficient `coef` into a
/// residue histogram over `b = hist.len()` classes: `out[s]` is the sum
/// of `hist[r]` over every class `r` and index `i < count` with
/// `(r + coef·i) mod b = s`, saturating.
///
/// The residues `coef·i mod b` cycle with the bank rule's period `p =`
/// [`atgpu_ir::affine::bank_period`]`(coef, b)` through the multiples of
/// `g = b / p`, so the `⌊count / p⌋` whole cycles add the same amount to
/// every class of a coset mod `g` — one pass for the coset sums, one to
/// spread them — and only the `count mod p` leftover indices walk each
/// non-empty class, a step of `coef mod b` at a time.  No division is
/// taken per residue or per pair.
pub fn fold_dimension(hist: &[u64], out: &mut [u64], count: u64, coef: i64) {
    let b = hist.len();
    debug_assert_eq!(out.len(), b);
    let period = bank_period(coef, b as u64);
    let (cycles, leftover) = (count / period, count % period);
    let step = coef.rem_euclid(b as i64) as usize;
    let g = b / period as usize;
    out.fill(0);
    if cycles > 0 {
        let (sums, rest) = out.split_at_mut(g);
        for coset in hist.chunks_exact(g) {
            for (sum, &h) in sums.iter_mut().zip(coset) {
                *sum = sum.saturating_add(h);
            }
        }
        for sum in sums.iter_mut() {
            *sum = sum.saturating_mul(cycles);
        }
        for chunk in rest.chunks_exact_mut(g) {
            chunk.copy_from_slice(sums);
        }
    }
    for (r, &h) in hist.iter().enumerate() {
        if h == 0 {
            continue;
        }
        let mut slot = r;
        for _ in 0..leftover {
            out[slot] = out[slot].saturating_add(h);
            slot += step;
            if slot >= b {
                slot -= b;
            }
        }
    }
}

/// Transactions for one global access site.
///
/// * `addr` — the buffer-relative per-lane offset;
/// * `buf_base` — the buffer's absolute base address (from
///   [`atgpu_ir::ProgramBody::buffer_layout`]);
/// * `grid` — the launch grid `(gx, gy)`, `k = gx·gy` thread blocks;
/// * `loop_counts` — trip counts of the enclosing loops,
///   outermost first (absolute depth `d` matches `AffineAddr::loops[d]`);
/// * `b` — lanes per warp = words per memory block.
pub fn site_transactions(
    addr: &CompiledAddr,
    buf_base: u64,
    grid: (u64, u64),
    loop_counts: &[u32],
    b: u64,
) -> SiteTxns {
    // Counts saturate at `u64::MAX` rather than wrap; a saturated count
    // keeps its exactness, so such a program stays on the analytic tier
    // (see `opcount`).
    let instances = loop_counts
        .iter()
        .fold(grid.0.saturating_mul(grid.1), |n, &c| n.saturating_mul(u64::from(c)));
    if instances == 0 {
        return SiteTxns { txns: 0, exact: true };
    }
    match addr.as_affine() {
        Some(a) if a.is_static() => {
            // Histogram of folded-base residues over (block × loops), in
            // two rows of `b` on the stack for a warp of up to 64 lanes.
            let bu = b as usize;
            let (mut stack, mut heap) = ([0u64; 128], Vec::new());
            let rows: &mut [u64] = if bu <= 64 {
                &mut stack[..2 * bu]
            } else {
                heap.resize(2 * bu, 0);
                &mut heap
            };
            let (mut hist, mut out) = rows.split_at_mut(bu);
            let abs_base = i128::from(a.base) + i128::from(buf_base);
            hist[abs_base.rem_euclid(b.into()) as usize] = 1;
            let loops = loop_counts.iter().enumerate();
            let dims = [(grid.0, a.block), (grid.1, a.block_y)]
                .into_iter()
                .chain(loops.map(|(d, &c)| (u64::from(c), a.loops.get(d).copied().unwrap_or(0))));
            // A dimension whose coefficient is 0 mod `b` moves no residue:
            // it only multiplies every class by its count.
            let mut times = 1u64;
            for (count, coef) in dims {
                if coef.rem_euclid(b as i64) == 0 {
                    times = times.saturating_mul(count);
                } else {
                    fold_dimension(hist, out, count, coef);
                    std::mem::swap(&mut hist, &mut out);
                }
            }
            let mut txns = 0u64;
            for (r, &weight) in hist.iter().enumerate() {
                if weight > 0 {
                    let per_warp = lane_block_count(r as i64, a.lane, b, b);
                    txns =
                        txns.saturating_add(weight.saturating_mul(times).saturating_mul(per_warp));
                }
            }
            SiteTxns { txns, exact: true }
        }
        // Data-dependent or non-affine: each lane may hit its own block.
        _ => SiteTxns { txns: instances.saturating_mul(b), exact: false },
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use atgpu_ir::AddrExpr;
    use proptest::prelude::*;

    /// Brute-force reference: enumerate every (block, iterations, lane).
    fn brute_force(
        addr: &CompiledAddr,
        buf_base: u64,
        grid: (u64, u64),
        loop_counts: &[u32],
        b: u64,
    ) -> u64 {
        fn rec(
            addr: &CompiledAddr,
            buf_base: u64,
            block: (i64, i64),
            counts: &[u32],
            iters: &mut Vec<u32>,
            b: u64,
        ) -> u64 {
            if let Some((&c, rest)) = counts.split_first() {
                let mut total = 0;
                for i in 0..c {
                    iters.push(i);
                    total += rec(addr, buf_base, block, rest, iters, b);
                    iters.pop();
                }
                total
            } else {
                let mut blocks_touched: Vec<i64> = (0..b)
                    .map(|lane| {
                        let mut rr = |_: u8| panic!("static only");
                        let off = addr.eval(lane as i64, block, iters, &mut rr);
                        (off + buf_base as i64).div_euclid(b as i64)
                    })
                    .collect();
                blocks_touched.sort_unstable();
                blocks_touched.dedup();
                blocks_touched.len() as u64
            }
        }
        let mut total = 0;
        for by in 0..grid.1 {
            for bx in 0..grid.0 {
                total +=
                    rec(addr, buf_base, (bx as i64, by as i64), loop_counts, &mut Vec::new(), b);
            }
        }
        total
    }

    fn check(expr: AddrExpr, buf_base: u64, grid: (u64, u64), loop_counts: &[u32], b: u64) {
        let addr = CompiledAddr::compile(expr);
        let fast = site_transactions(&addr, buf_base, grid, loop_counts, b);
        let slow = brute_force(&addr, buf_base, grid, loop_counts, b);
        assert!(fast.exact);
        assert_eq!(fast.txns, slow, "mismatch for {addr:?}");
    }

    #[test]
    fn perfectly_coalesced_unit_stride() {
        // a[i·b + j]: one transaction per block.
        let e = AddrExpr::block() * 32 + AddrExpr::lane();
        check(e, 0, (10, 1), &[], 32);
        let addr = CompiledAddr::compile(AddrExpr::block() * 32 + AddrExpr::lane());
        assert_eq!(site_transactions(&addr, 0, (10, 1), &[], 32).txns, 10);
    }

    #[test]
    fn stride_two_doubles_transactions() {
        // a[2(i·b + j)]: every warp spans two blocks.
        let e = (AddrExpr::block() * 32 + AddrExpr::lane()) * 2;
        let addr = CompiledAddr::compile(e.clone());
        assert_eq!(site_transactions(&addr, 0, (8, 1), &[], 32).txns, 16);
        check(e, 0, (8, 1), &[], 32);
    }

    #[test]
    fn broadcast_single_block() {
        // a[i]: all lanes read the same word.
        let e = AddrExpr::block();
        let addr = CompiledAddr::compile(e.clone());
        assert_eq!(site_transactions(&addr, 0, (100, 1), &[], 32).txns, 100);
        check(e, 0, (100, 1), &[], 32);
    }

    #[test]
    fn misaligned_base_splits_warp() {
        // a[i·b + j + 1]: every warp straddles two blocks.
        let e = AddrExpr::block() * 32 + AddrExpr::lane() + 1;
        let addr = CompiledAddr::compile(e.clone());
        assert_eq!(site_transactions(&addr, 0, (4, 1), &[], 32).txns, 8);
        check(e, 0, (4, 1), &[], 32);
    }

    #[test]
    fn buffer_base_alignment_matters() {
        let e = AddrExpr::block() * 32 + AddrExpr::lane();
        // Aligned base: 1 txn/block; misaligned base (17): 2 txn/block.
        let addr = CompiledAddr::compile(e.clone());
        assert_eq!(site_transactions(&addr, 64, (4, 1), &[], 32).txns, 4);
        assert_eq!(site_transactions(&addr, 17, (4, 1), &[], 32).txns, 8);
        check(e, 17, (4, 1), &[], 32);
    }

    #[test]
    fn loop_iterations_multiply() {
        // Same access repeated in a loop of 5: 5x the transactions.
        let e = AddrExpr::block() * 32 + AddrExpr::lane();
        let addr = CompiledAddr::compile(e.clone());
        assert_eq!(site_transactions(&addr, 0, (4, 1), &[5], 32).txns, 20);
        check(e, 0, (4, 1), &[5], 32);
    }

    #[test]
    fn loop_var_in_address() {
        // a[t0·b + j] over t0 in 0..6, one block: 6 coalesced txns.
        let e = AddrExpr::loop_var(0) * 32 + AddrExpr::lane();
        let addr = CompiledAddr::compile(e.clone());
        assert_eq!(site_transactions(&addr, 0, (1, 1), &[6], 32).txns, 6);
        check(e, 0, (1, 1), &[6], 32);
    }

    #[test]
    fn matmul_row_access_pattern() {
        // A-tile row load: a[(i/T)·b·n + row·n + t0·b + j] style; exercise a
        // mixed pattern with loop strides that are not multiples of b.
        let n = 40i64;
        let e = AddrExpr::block() * n + AddrExpr::loop_var(0) * 8 + AddrExpr::lane();
        check(e, 0, (6, 1), &[5], 8);
    }

    #[test]
    fn reduction_strided_gather() {
        // a[j·s] for stride s = 4: lanes span s/… blocks.
        let e = AddrExpr::lane() * 4 + AddrExpr::block() * 128;
        check(e, 0, (7, 1), &[], 32);
    }

    #[test]
    fn negative_stride_supported() {
        let e = AddrExpr::c(1000) - AddrExpr::lane();
        check(e, 0, (3, 1), &[2], 32);
    }

    #[test]
    fn zero_trip_loop_contributes_nothing() {
        let e = AddrExpr::lane();
        let addr = CompiledAddr::compile(e);
        assert_eq!(site_transactions(&addr, 0, (4, 1), &[0], 32).txns, 0);
    }

    #[test]
    fn counts_past_u64_saturate_and_stay_exact() {
        let addr = CompiledAddr::compile(AddrExpr::lane());
        let r = site_transactions(&addr, 0, (4, 1), &[u32::MAX; 3], 32);
        assert_eq!((r.txns, r.exact), (u64::MAX, true));
        let addr = CompiledAddr::compile(AddrExpr::reg(0));
        assert_eq!(site_transactions(&addr, 0, (4, 1), &[u32::MAX; 3], 32).txns, u64::MAX);
    }

    #[test]
    fn data_dependent_address_is_worst_case_inexact() {
        let addr = CompiledAddr::compile(AddrExpr::reg(0));
        let r = site_transactions(&addr, 0, (4, 1), &[], 32);
        assert!(!r.exact);
        assert_eq!(r.txns, 4 * 32);
    }

    #[test]
    fn non_affine_address_is_worst_case_inexact() {
        let addr = CompiledAddr::compile(AddrExpr::lane() * AddrExpr::lane());
        let r = site_transactions(&addr, 0, (2, 1), &[3], 32);
        assert!(!r.exact);
        assert_eq!(r.txns, 2 * 3 * 32);
    }

    #[test]
    fn lane_block_count_basics() {
        assert_eq!(lane_block_count(0, 1, 32, 32), 1);
        assert_eq!(lane_block_count(1, 1, 32, 32), 2);
        assert_eq!(lane_block_count(0, 0, 32, 32), 1);
        assert_eq!(lane_block_count(0, 32, 32, 32), 32);
        assert_eq!(lane_block_count(0, 2, 32, 32), 2);
        assert_eq!(lane_block_count(0, 1, 0, 32), 0);
    }

    /// A dimension's own residue histogram: the class of 0 folded by it.
    fn residue_histogram(count: u64, coef: i64, b: u64) -> Vec<u64> {
        let mut unit = vec![0u64; b as usize];
        unit[0] = 1;
        let mut out = vec![0u64; b as usize];
        fold_dimension(&unit, &mut out, count, coef);
        out
    }

    #[test]
    fn residue_histogram_total_is_count() {
        for (count, coef, b) in [(10u64, 3i64, 32u64), (7, -5, 8), (100, 0, 16), (5, 32, 32)] {
            let h = residue_histogram(count, coef, b);
            assert_eq!(h.iter().sum::<u64>(), count, "coef={coef}");
        }
    }

    #[test]
    fn residue_histogram_matches_enumeration() {
        for coef in [-7i64, -1, 0, 1, 2, 5, 8, 15, 16, 33] {
            let b = 16u64;
            let count = 23u64;
            let fast = residue_histogram(count, coef, b);
            let mut slow = vec![0u64; b as usize];
            for idx in 0..count {
                slow[(coef * idx as i64).rem_euclid(b as i64) as usize] += 1;
            }
            assert_eq!(fast, slow, "coef={coef}");
        }
    }

    /// Folding a dimension into a histogram is its convolution with the
    /// dimension's own histogram, and multiplies the mass by its count.
    #[test]
    fn convolve_preserves_mass() {
        let h1 = residue_histogram(9, 3, 8);
        let mut out = vec![0u64; 8];
        fold_dimension(&h1, &mut out, 4, 5);
        assert_eq!(out.iter().sum::<u64>(), 36);
        assert_eq!(out, convolve_mod(&h1, &residue_histogram(4, 5, 8)));
    }

    /// `out[(i + j) mod b] += h1[i]·h2[j]`, a `%` per pair.
    fn convolve_mod(h1: &[u64], h2: &[u64]) -> Vec<u64> {
        let b = h1.len();
        let mut out = vec![0u64; b];
        for (i, &x) in h1.iter().enumerate() {
            for (j, &y) in h2.iter().enumerate() {
                let slot = &mut out[(i + j) % b];
                *slot = slot.saturating_add(x.saturating_mul(y));
            }
        }
        out
    }

    /// The count by the previous method: every dimension's histogram,
    /// built by walking its cycle, convolved into the base's class with a
    /// `%` per pair.  The oracle where enumeration is too large.
    fn convolved(
        addr: &CompiledAddr,
        buf_base: u64,
        grid: (u64, u64),
        loop_counts: &[u32],
        b: u64,
    ) -> u64 {
        let cycle = |count: u64, coef: i64| {
            let mut h = vec![0u64; b as usize];
            let (step, period) = (coef.rem_euclid(b as i64) as u64, bank_period(coef, b));
            let mut r = 0u64;
            for i in 0..period.min(count) {
                h[r as usize] += count / period + u64::from(i < count % period);
                r = (r + step) % b;
            }
            h
        };
        let a = addr.as_affine().expect("a static site");
        let mut hist = vec![0u64; b as usize];
        hist[(i128::from(a.base) + i128::from(buf_base)).rem_euclid(b.into()) as usize] = 1;
        hist = convolve_mod(&hist, &cycle(grid.0, a.block));
        hist = convolve_mod(&hist, &cycle(grid.1, a.block_y));
        for (d, &count) in loop_counts.iter().enumerate() {
            hist = convolve_mod(&hist, &cycle(u64::from(count), a.loops[d]));
        }
        hist.iter().enumerate().fold(0u64, |txns, (r, &w)| {
            txns.saturating_add(w.saturating_mul(lane_block_count(r as i64, a.lane, b, b)))
        })
    }

    /// A static site `base + cL·lane + cB·block + cY·block_y + Σ c_d·t_d`
    /// where each coefficient flagged in `zero` is taken times `b`, so it
    /// is 0 mod `b`.
    fn static_site(b: u64, base: i64, coefs: [i64; 6], zero: u8) -> CompiledAddr {
        let c = |i: usize| if zero >> i & 1 == 1 { coefs[i] * b as i64 } else { coefs[i] };
        let mut e = AddrExpr::c(base)
            + AddrExpr::lane() * c(0)
            + AddrExpr::block() * c(1)
            + AddrExpr::block_y() * c(2);
        for d in 0..3 {
            e = e + AddrExpr::loop_var(d as u8) * c(3 + d);
        }
        CompiledAddr::compile(e)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random static sites, 1-D and 2-D grids, up to three loops, some
        /// coefficients 0 mod `b` (`b = 96` takes the heap rows): the
        /// count equals enumeration.
        #[test]
        fn random_static_sites_match_enumeration(
            b in 0usize..7,
            base in -200i64..200,
            coefs in (-9i64..10, -40i64..41, -20i64..21, -17i64..18, -9i64..10, -33i64..34),
            zero in 0u8..64,
            buf_base in 0u64..200,
            gx in 1u64..7,
            gy in 0u64..5,
            loops in prop::collection::vec(0u32..4, 0..4),
        ) {
            let b = [1u64, 5, 8, 16, 32, 64, 96][b];
            let grid = (gx, gy.clamp(1, 3));
            let (c0, c1, c2, c3, c4, c5) = coefs;
            let addr = static_site(b, base, [c0, c1, c2, c3, c4, c5], zero);
            let fast = site_transactions(&addr, buf_base, grid, &loops, b);
            prop_assert!(fast.exact);
            prop_assert_eq!(fast.txns, brute_force(&addr, buf_base, grid, &loops, b));
        }

        /// Counts far past enumeration, saturating ones included, equal
        /// the previous method's.
        #[test]
        fn large_static_sites_match_the_convolution(
            b in 0usize..5,
            base in -1000i64..1000,
            coefs in (-9i64..10, -400i64..401, -20i64..21, -17i64..18, -90i64..91, -33i64..34),
            zero in 0u8..64,
            buf_base in 0u64..1000,
            grid in (0usize..4, 0usize..3),
            loops in prop::collection::vec(0usize..4, 0..4),
        ) {
            let b = [1u64, 7, 32, 64, 96][b];
            let grid = ([1u64, 1000, 65_535, u64::MAX / 3][grid.0], [1u64, 7, 4096][grid.1]);
            let loops: Vec<u32> = loops.iter().map(|&i| [0, 3, 1000, u32::MAX][i]).collect();
            let (c0, c1, c2, c3, c4, c5) = coefs;
            let addr = static_site(b, base, [c0, c1, c2, c3, c4, c5], zero);
            let fast = site_transactions(&addr, buf_base, grid, &loops, b);
            prop_assert!(fast.exact);
            prop_assert_eq!(fast.txns, convolved(&addr, buf_base, grid, &loops, b));
        }
    }
}
