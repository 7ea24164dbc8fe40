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
//! 1. build the histogram of folded-base residues over all instances by
//!    convolving per-dimension residue histograms (each computed in
//!    `O(b)` using the cyclic structure of `coef·idx mod b`), and
//! 2. weight each residue by its per-warp transaction count, the closed
//!    form of [`atgpu_ir::affine::run_blocks`].
//!
//! Total cost: `O(dims·b²)` independent of `k` and trip counts, and
//! **exact** — property tests check it against brute-force enumeration.
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

/// Histogram over residues mod `b` of `{coef·idx mod b : idx ∈ [0, count)}`.
/// `O(b)` via the cycle structure: residues repeat with the bank rule's
/// period [`atgpu_ir::affine::bank_period`], `b / gcd(coef mod b, b)`.
pub fn residue_histogram(count: u64, coef: i64, b: u64) -> Vec<u64> {
    let bu = b as usize;
    let mut h = vec![0u64; bu];
    if count == 0 {
        return h;
    }
    let step = coef.rem_euclid(b as i64) as u64;
    let period = bank_period(coef, b);
    let full = count / period;
    let rem = count % period;
    let mut r = 0u64;
    for i in 0..period {
        h[r as usize] += full + u64::from(i < rem);
        r = (r + step) % b;
    }
    h
}

/// Convolution of two residue histograms: `out[(i + j) mod b] +=
/// h1[i]·h2[j]`.
pub fn convolve_mod(h1: &[u64], h2: &[u64], b: u64) -> Vec<u64> {
    let bu = b as usize;
    let mut out = vec![0u64; bu];
    for (i, &x) in h1.iter().enumerate() {
        if x == 0 {
            continue;
        }
        for (j, &y) in h2.iter().enumerate() {
            if y == 0 {
                continue;
            }
            let slot = &mut out[(i + j) % bu];
            *slot = slot.saturating_add(x.saturating_mul(y));
        }
    }
    out
}

/// Transactions for one global access site.
///
/// * `addr` — the buffer-relative per-lane offset;
/// * `buf_base` — the buffer's absolute base address (from
///   [`atgpu_ir::ProgramBody::buffer_layout`]);
/// * `grid` — the launch grid `(gx, gy)`, `k = gx·gy` thread blocks;
/// * `loop_counts` — trip counts of the loops enclosing the site,
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
            // Histogram of folded-base residues over (block × loops).
            let abs_base = i128::from(a.base) + i128::from(buf_base);
            let mut hist = vec![0u64; b as usize];
            hist[abs_base.rem_euclid(b.into()) as usize] = 1;
            hist = convolve_mod(&hist, &residue_histogram(grid.0, a.block, b), b);
            hist = convolve_mod(&hist, &residue_histogram(grid.1, a.block_y, b), b);
            for (d, &count) in loop_counts.iter().enumerate() {
                let coef = a.loops.get(d).copied().unwrap_or(0);
                hist = convolve_mod(&hist, &residue_histogram(u64::from(count), coef, b), b);
            }
            let mut txns = 0u64;
            for (r, &weight) in hist.iter().enumerate() {
                if weight > 0 {
                    let per_warp = lane_block_count(r as i64, a.lane, b, b);
                    txns = txns.saturating_add(weight.saturating_mul(per_warp));
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

    #[test]
    fn convolve_preserves_mass() {
        let h1 = residue_histogram(9, 3, 8);
        let h2 = residue_histogram(4, 5, 8);
        let out = convolve_mod(&h1, &h2, 8);
        assert_eq!(out.iter().sum::<u64>(), 36);
    }
}
