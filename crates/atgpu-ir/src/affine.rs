//! Lowered affine address form and the lowering pass.
//!
//! Almost every GPU kernel addresses memory affinely in the lane index,
//! block index and loop counters — `A[i·b + j]`, `tile[t₀·n + j]`, etc.
//! [`lower`] compiles an [`AddrExpr`] tree into an [`AffineAddr`] record
//! `base + cL·lane + cB·block + Σ c_d·loop_d + cR·reg`, which the simulator
//! evaluates with a handful of multiplies per warp (the block/loop parts
//! are folded **once per warp instruction**, leaving a single
//! multiply-add per lane), and which the analyser can reason about in
//! closed form (coalescing by residue classes instead of enumerating every
//! thread block).
//!
//! Non-affine shapes (products of two variables, two distinct registers)
//! stay as trees and are interpreted — correct, just slower and outside
//! the analyser's closed forms.
//!
//! The model's two access-cost rules are stated here once, as closed
//! forms in a row of lanes' first address, stride and length:
//! [`run_blocks`] (one transaction per distinct `b`-word block) and
//! [`run_conflict_degree`] (`b` successive words lie in distinct banks).
//! [`masked_span_blocks`] and [`masked_conflict_degree`] apply them to
//! the active lanes of a mask, scanning only a mask with gaps.  The
//! simulator's lowering and executor, the analyser and the verifier all
//! count blocks and bank degrees through these functions.
//!
//! The model's space limits — a block's shared footprint within `m`, a
//! buffer's accesses within its padded slot of `G` — ask how far an
//! address reaches over a launch.  **The extent rule**,
//! [`AffineAddr::corners`], answers once: the lowest and the highest
//! point of the address over the active lanes, every block of the grid
//! and every loop iteration, each dimension at the end its coefficient's
//! sign selects, the address exact in `i128`.  The analyser's
//! shared-footprint check, the verifier's in-bounds proof and its
//! out-of-bounds witness (the corner that escapes), and the lints' read
//! ranges all read it.

use crate::expr::AddrExpr;
use crate::{Reg, MAX_LOOP_DEPTH};
use std::fmt;

/// An affine address `base + lane·cL + block·cB + Σ_d loop_d·c_d
/// [+ reg·cR]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AffineAddr {
    /// Constant term.
    pub base: i64,
    /// Coefficient of the lane index.
    pub lane: i64,
    /// Coefficient of the block X index.
    pub block: i64,
    /// Coefficient of the block Y index.
    pub block_y: i64,
    /// Coefficients of the enclosing-loop counters, outermost first.
    pub loops: [i64; MAX_LOOP_DEPTH],
    /// Optional data-dependent term: `(register, coefficient)`.
    pub reg: Option<(Reg, i64)>,
}

impl AffineAddr {
    /// The zero address.
    pub const ZERO: AffineAddr = AffineAddr {
        base: 0,
        lane: 0,
        block: 0,
        block_y: 0,
        loops: [0; MAX_LOOP_DEPTH],
        reg: None,
    };

    /// A constant address.
    pub fn constant(v: i64) -> Self {
        AffineAddr { base: v, ..Self::ZERO }
    }

    /// Folds the block and loop terms into a single scalar, leaving only
    /// the per-lane parts.  Call once per warp instruction, then evaluate
    /// each lane as `folded + lane·cL (+ reg·cR)`.
    #[inline]
    pub fn fold_warp(&self, block: (i64, i64), loops: &[u32]) -> i64 {
        let mut v = self.base + self.block * block.0 + self.block_y * block.1;
        for (d, &c) in self.loops.iter().enumerate() {
            if c != 0 {
                v += c * loops.get(d).copied().unwrap_or(0) as i64;
            }
        }
        v
    }

    /// Evaluates the address for one lane given the warp-folded scalar
    /// from [`AffineAddr::fold_warp`].
    #[inline]
    pub fn lane_addr(&self, folded: i64, lane: i64, read_reg: impl FnOnce(Reg) -> i64) -> i64 {
        let mut v = folded + self.lane * lane;
        if let Some((r, c)) = self.reg {
            v += c * read_reg(r);
        }
        v
    }

    /// Full evaluation (convenience for tests and cold paths).
    pub fn eval(
        &self,
        lane: i64,
        block: (i64, i64),
        loops: &[u32],
        read_reg: impl FnOnce(Reg) -> i64,
    ) -> i64 {
        self.lane_addr(self.fold_warp(block, loops), lane, read_reg)
    }

    /// True when the address does not depend on register values, so it can
    /// be analysed statically.
    #[inline]
    pub fn is_static(&self) -> bool {
        self.reg.is_none()
    }

    fn checked_add(self, other: AffineAddr) -> Option<AffineAddr> {
        let reg = match (self.reg, other.reg) {
            (None, r) | (r, None) => r,
            (Some((r1, c1)), Some((r2, c2))) if r1 == r2 => Some((r1, c1.checked_add(c2)?)),
            _ => return None, // two distinct registers: not our affine form
        };
        let mut loops = [0i64; MAX_LOOP_DEPTH];
        for (slot, (a, b)) in loops.iter_mut().zip(self.loops.iter().zip(&other.loops)) {
            *slot = a.checked_add(*b)?;
        }
        Some(AffineAddr {
            base: self.base.checked_add(other.base)?,
            lane: self.lane.checked_add(other.lane)?,
            block: self.block.checked_add(other.block)?,
            block_y: self.block_y.checked_add(other.block_y)?,
            loops,
            reg,
        })
    }

    fn negate(mut self) -> AffineAddr {
        self.base = -self.base;
        self.lane = -self.lane;
        self.block = -self.block;
        self.block_y = -self.block_y;
        for c in &mut self.loops {
            *c = -*c;
        }
        if let Some((_, c)) = &mut self.reg {
            *c = -*c;
        }
        self
    }

    fn scale(mut self, k: i64) -> Option<AffineAddr> {
        self.base = self.base.checked_mul(k)?;
        self.lane = self.lane.checked_mul(k)?;
        self.block = self.block.checked_mul(k)?;
        self.block_y = self.block_y.checked_mul(k)?;
        for c in &mut self.loops {
            *c = c.checked_mul(k)?;
        }
        if let Some((_, c)) = &mut self.reg {
            *c = c.checked_mul(k)?;
        }
        Some(self)
    }

    /// **The extent rule.**  The lowest and the highest point of the
    /// address over the active lanes of `mask` among `b`, every block of
    /// `grid` and every iteration of the enclosing loops (`loop_counts`,
    /// outermost first; a counter past them reads 0, as in
    /// [`AffineAddr::fold_warp`]), in one pass.  Each dimension sits at
    /// the end its coefficient's sign selects — the low corner at the
    /// end that makes the term least, the high corner at the other, a
    /// zero coefficient at the lower end in the low corner and the upper
    /// one in the high corner — so the address is exact at both.  A mask
    /// names 64 lanes; on a wider machine the lanes past 63 go with lane
    /// 63, so an all-lanes mask covers all `b`.
    ///
    /// `None` for a register term, an empty domain (no active lane, an
    /// empty grid dimension, a zero-trip loop), or an end that does not
    /// fit `i128`.
    pub fn corners(
        &self,
        mask: u64,
        b: u64,
        grid: (u64, u64),
        loop_counts: &[u32],
    ) -> Option<[Corner; 2]> {
        let live = mask & if b >= 64 { u64::MAX } else { (1 << b) - 1 };
        if self.reg.is_some() || live == 0 || grid.0 == 0 || grid.1 == 0 {
            return None;
        }
        let first = u64::from(live.trailing_zeros());
        let last =
            if b > 64 && live >> 63 == 1 { b - 1 } else { u64::from(63 - live.leading_zeros()) };
        let mut addr = [i128::from(self.base); 2];
        // One dimension `x ∈ [lo, hi]` of coefficient `c`: where each
        // corner sits, and what it adds there.
        let mut reach = |c: i64, lo: u64, hi: u64| -> Option<[u64; 2]> {
            let at = if c >= 0 { [lo, hi] } else { [hi, lo] };
            for (end, x) in addr.iter_mut().zip(at) {
                *end = end.checked_add(i128::from(c) * i128::from(x))?;
            }
            Some(at)
        };
        let lane = reach(self.lane, first, last)?;
        let bx = reach(self.block, 0, grid.0 - 1)?;
        let by = reach(self.block_y, 0, grid.1 - 1)?;
        let mut loops = [[0; MAX_LOOP_DEPTH]; 2];
        for (d, &count) in loop_counts.iter().enumerate() {
            let hi = u64::from(count.checked_sub(1)?);
            let Some(&c) = self.loops.get(d) else { continue };
            let at = reach(c, 0, hi)?;
            loops[0][d] = at[0] as u32;
            loops[1][d] = at[1] as u32;
        }
        Some([0, 1].map(|i| Corner {
            addr: addr[i],
            lane: lane[i],
            block: (bx[i], by[i]),
            loops: loops[i],
        }))
    }

    /// True when every coefficient is zero (a pure constant).
    fn is_const(&self) -> bool {
        self.lane == 0
            && self.block == 0
            && self.block_y == 0
            && self.loops.iter().all(|&c| c == 0)
            && self.reg.is_none_or(|(_, c)| c == 0)
    }
}

/// One end of an address's extent ([`AffineAddr::corners`]): the
/// execution point at which the address takes it, and the address there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Corner {
    /// The address, exact.
    pub addr: i128,
    /// The lane.
    pub lane: u64,
    /// The block `(x, y)`.
    pub block: (u64, u64),
    /// The loop counters, outermost first (0 past the enclosing loops).
    pub loops: [u32; MAX_LOOP_DEPTH],
}

/// Greatest common divisor (`gcd(a, 0) = a`).
pub fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// True when the set bits of `bits` are `0..k` for some `k`.
#[inline]
fn dense(bits: u64) -> bool {
    bits & bits.wrapping_add(1) == 0
}

/// The block index `⌊(base + stride·lane) / b⌋` of a lane's address,
/// in `i128`.
#[cold]
fn wide_block(base: i64, stride: i64, lane: u64, b: u64) -> i128 {
    (i128::from(base) + i128::from(stride) * i128::from(lane)).div_euclid(b.into())
}

/// **The block rule.**  Distinct `b`-word memory blocks touched by an
/// unbroken run of `n` lanes addressing `first + stride·i`, `i ∈ [0, n)`
/// — the model's transaction count of a coalesced access.
///
/// A lane stride of at least `b` puts every lane in its own block: `n`.
/// A shorter one skips no block between the run's ends, so the run
/// touches `|q(last) − q(first)| + 1` blocks, `q` the block index.
pub fn run_blocks(first: i64, stride: i64, n: u64, b: u64) -> u64 {
    debug_assert!(b > 0);
    match n {
        0 => 0,
        _ if stride.unsigned_abs() >= b => n,
        _ => span(first, stride, 0, n - 1, b),
    }
}

/// [`run_blocks`] for `|stride| < b`: the blocks lanes `lo ≤ hi` touch,
/// `|q(hi) − q(lo)| + 1`.  Moving every address by whole blocks changes
/// no count, so the addresses are taken from `base mod b`; for a
/// power-of-two `b ≤ 2³⁰` and `hi < 2³²` — every access a simulator
/// makes — they then fit in `i64` (`|stride·hi| < 2⁶²`) and `q` is a
/// shift.  Anything wider is counted in `i128`.
#[inline]
fn span(base: i64, stride: i64, lo: u64, hi: u64, b: u64) -> u64 {
    if b.is_power_of_two() && b <= 1 << 30 && hi >> 32 == 0 {
        let (k, offset) = (b.trailing_zeros(), base & (b as i64 - 1));
        let q = |lane: u64| (offset + stride * lane as i64) >> k;
        return (q(hi) - q(lo)).unsigned_abs() + 1;
    }
    (wide_block(base, stride, hi, b) - wide_block(base, stride, lo, b)).unsigned_abs() as u64 + 1
}

/// Distinct memory blocks touched by `{base + stride·lane : lane active
/// in mask}` — [`run_blocks`] over the active lanes.  A mask with no gap
/// between its lowest and highest lane is one run; only a mask with gaps
/// is scanned, counting block transitions in lane order (the addresses
/// are monotone in the lane).  An empty mask touches no blocks.
#[inline]
pub fn masked_span_blocks(base: i64, stride: i64, mask: u64, b: u64) -> u64 {
    debug_assert!(b > 0);
    if mask == 0 || stride.unsigned_abs() >= b {
        return u64::from(mask.count_ones());
    }
    let (lo, hi) = (mask.trailing_zeros(), 63 - mask.leading_zeros());
    if dense(mask >> lo) {
        return span(base, stride, lo.into(), hi.into(), b);
    }
    // One block, plus one per pair of neighbouring active lanes in two.
    let (mut m, mut prev, mut blocks) = (mask & (mask - 1), lo.into(), 1);
    while m != 0 {
        let lane = u64::from(m.trailing_zeros());
        m &= m - 1;
        blocks += u64::from(span(base, stride, prev, lane, b) > 1);
        prev = lane;
    }
    blocks
}

/// Lanes `l₁, l₂` of an access with lane stride `stride ≠ 0` share one
/// of `b` banks iff `stride·(l₁ − l₂) ≡ 0 (mod b)`, i.e. iff this period
/// `b / gcd(|stride| mod b, b)` divides `l₁ − l₂`.  It is also the period
/// of `stride·x mod b` over `x` (1 for `stride ≡ 0`), which is how the
/// analyser's coalescing histograms read it.
#[inline]
pub fn bank_period(stride: i64, b: u64) -> u64 {
    if b.is_power_of_two() {
        // gcd(|stride| mod 2ᵏ, 2ᵏ) = 2^min(tz(stride), k)
        b >> stride.trailing_zeros().min(b.trailing_zeros())
    } else {
        b / gcd(stride.unsigned_abs() % b, b)
    }
}

/// **The bank rule.**  Bank-conflict serialisation degree of an unbroken
/// run of `n` lanes with lane stride `stride` on `b` banks: the most
/// distinct addresses any one bank holds.  Stride 0 broadcasts one
/// address (degree 1); any other stride makes the addresses pairwise
/// distinct, and lanes one period `b / gcd(|stride| mod b, b)` apart
/// share a bank, so the degree is `⌈n / period⌉` — `gcd(|stride| mod b,
/// b)` for a full warp.
pub fn run_conflict_degree(stride: i64, n: u64, b: u64) -> u64 {
    debug_assert!(b > 0);
    if stride == 0 || n == 0 {
        return 1;
    }
    n.div_ceil(bank_period(stride, b))
}

/// Bank-conflict degree of the shared access `{base + stride·lane : lane
/// active in mask}` on `b` banks — [`run_conflict_degree`] over the
/// active lanes.  Base-independent: adding a constant rotates every
/// lane's bank alike.  Active lanes within one period of each other are
/// in distinct banks whatever the mask (degree 1); a mask with no gap is
/// one run; only a wider mask with gaps is scanned, counting active
/// lanes per residue class of the period.
#[inline]
pub fn masked_conflict_degree(stride: i64, mask: u64, b: u64) -> u64 {
    debug_assert!(b > 0);
    if mask == 0 || stride == 0 {
        return 1;
    }
    let run = mask >> mask.trailing_zeros();
    let width = u64::from(64 - run.leading_zeros());
    let period = bank_period(stride, b);
    if width <= period {
        return 1;
    }
    if dense(run) {
        return width.div_ceil(period);
    }
    // `period < width ≤ 64`: one counter per residue class.
    let (mut counts, mut degree, mut m) = ([0u8; 64], 1, run);
    while m != 0 {
        let lane = u64::from(m.trailing_zeros());
        m &= m - 1;
        let count = &mut counts[(lane % period) as usize];
        *count += 1;
        degree = degree.max(u64::from(*count));
    }
    degree
}

/// Lowers an address tree to affine form.  Returns `None` for non-affine
/// shapes: products of two non-constant subexpressions, or sums touching
/// two distinct registers.
pub fn lower(expr: &AddrExpr) -> Option<AffineAddr> {
    match expr {
        AddrExpr::Const(v) => Some(AffineAddr::constant(*v)),
        AddrExpr::Lane => Some(AffineAddr { lane: 1, ..AffineAddr::ZERO }),
        AddrExpr::Block => Some(AffineAddr { block: 1, ..AffineAddr::ZERO }),
        AddrExpr::BlockY => Some(AffineAddr { block_y: 1, ..AffineAddr::ZERO }),
        AddrExpr::LoopVar(d) => {
            let d = *d as usize;
            if d >= MAX_LOOP_DEPTH {
                return None;
            }
            let mut loops = [0i64; MAX_LOOP_DEPTH];
            loops[d] = 1;
            Some(AffineAddr { loops, ..AffineAddr::ZERO })
        }
        AddrExpr::Reg(r) => Some(AffineAddr { reg: Some((*r, 1)), ..AffineAddr::ZERO }),
        AddrExpr::Add(a, b) => lower(a)?.checked_add(lower(b)?),
        AddrExpr::Sub(a, b) => lower(a)?.checked_add(lower(b)?.negate()),
        AddrExpr::Mul(a, b) => {
            let la = lower(a)?;
            let lb = lower(b)?;
            if la.is_const() {
                lb.scale(la.base)
            } else if lb.is_const() {
                la.scale(lb.base)
            } else {
                None // product of two variables: non-affine
            }
        }
    }
}

/// An address in either compiled form: affine fast path or interpreted
/// tree fall-back.  This is what instructions store after compilation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum CompiledAddr {
    /// Affine fast path.
    Affine(AffineAddr),
    /// Interpreted general tree.
    Tree(AddrExpr),
}

impl CompiledAddr {
    /// Compiles a tree, preferring the affine form.
    pub fn compile(expr: AddrExpr) -> Self {
        match lower(&expr) {
            Some(a) => CompiledAddr::Affine(a),
            None => CompiledAddr::Tree(expr),
        }
    }

    /// Evaluates for one lane.
    pub fn eval(
        &self,
        lane: i64,
        block: (i64, i64),
        loops: &[u32],
        read_reg: &mut dyn FnMut(Reg) -> i64,
    ) -> i64 {
        match self {
            CompiledAddr::Affine(a) => a.eval(lane, block, loops, &mut *read_reg),
            CompiledAddr::Tree(t) => t.eval(lane, block, loops, read_reg),
        }
    }

    /// The affine form, if this address has one.
    pub fn as_affine(&self) -> Option<&AffineAddr> {
        match self {
            CompiledAddr::Affine(a) => Some(a),
            CompiledAddr::Tree(_) => None,
        }
    }

    /// True when the address never reads a register.
    pub fn is_static(&self) -> bool {
        match self {
            CompiledAddr::Affine(a) => a.is_static(),
            CompiledAddr::Tree(t) => t.max_reg().is_none(),
        }
    }

    /// Greatest `LoopVar` depth referenced, if any.
    pub fn max_loop_var(&self) -> Option<u8> {
        match self {
            CompiledAddr::Affine(a) => {
                let mut max = None;
                for (d, &c) in a.loops.iter().enumerate() {
                    if c != 0 {
                        max = Some(d as u8);
                    }
                }
                max
            }
            CompiledAddr::Tree(t) => t.max_loop_var(),
        }
    }

    /// Greatest register index referenced, if any.
    pub fn max_reg(&self) -> Option<Reg> {
        match self {
            CompiledAddr::Affine(a) => a.reg.map(|(r, _)| r),
            CompiledAddr::Tree(t) => t.max_reg(),
        }
    }
}

/// Source-like notation: a tree as written; an affine address as its
/// nonzero terms `cB·i + cY·iy + c_d·t_d + cL·j + cR·r + base`, unit
/// coefficients bare, `0` when none is left.  Instruction `Display`
/// and the paper-style pseudocode both print addresses this way.
impl fmt::Display for CompiledAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let a = match self {
            CompiledAddr::Tree(t) => return write!(f, "{t}"),
            CompiledAddr::Affine(a) => a,
        };
        let reg = a.reg.map(|(r, c)| (c, format!("r{r}")));
        let terms = [(a.block, "i".to_string()), (a.block_y, "iy".to_string())]
            .into_iter()
            .chain(a.loops.iter().enumerate().map(|(d, &c)| (c, format!("t{d}"))))
            .chain([(a.lane, "j".to_string())])
            .chain(reg)
            .chain([(a.base, String::new())]);
        let mut sep = "";
        for (c, name) in terms.filter(|&(c, _)| c != 0) {
            match (c, name.is_empty()) {
                (1, false) => write!(f, "{sep}{name}")?,
                _ => write!(f, "{sep}{c}{name}")?,
            }
            sep = " + ";
        }
        if sep.is_empty() {
            write!(f, "0")?;
        }
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    fn no_regs(_: Reg) -> i64 {
        panic!("no register reads expected")
    }

    #[test]
    fn lower_linear_in_lane_and_block() {
        let e = AddrExpr::block() * 32 + AddrExpr::lane();
        let a = lower(&e).unwrap();
        assert_eq!(a.block, 32);
        assert_eq!(a.lane, 1);
        assert_eq!(a.base, 0);
    }

    #[test]
    fn lower_folds_constants() {
        let e = (AddrExpr::c(3) + 4) * 2 + AddrExpr::lane();
        let a = lower(&e).unwrap();
        assert_eq!(a.base, 14);
        assert_eq!(a.lane, 1);
    }

    #[test]
    fn lower_loop_vars() {
        let e = AddrExpr::loop_var(0) * 100 + AddrExpr::loop_var(1) * 10 + AddrExpr::lane();
        let a = lower(&e).unwrap();
        assert_eq!(a.loops[0], 100);
        assert_eq!(a.loops[1], 10);
    }

    #[test]
    fn lower_register_linear() {
        let e = AddrExpr::reg(2) * 4 + 7;
        let a = lower(&e).unwrap();
        assert_eq!(a.reg, Some((2, 4)));
        assert_eq!(a.base, 7);
    }

    #[test]
    fn lower_same_register_twice_merges() {
        let e = AddrExpr::reg(2) + AddrExpr::reg(2);
        let a = lower(&e).unwrap();
        assert_eq!(a.reg, Some((2, 2)));
    }

    #[test]
    fn lower_rejects_two_registers() {
        let e = AddrExpr::reg(1) + AddrExpr::reg(2);
        assert!(lower(&e).is_none());
    }

    #[test]
    fn lower_rejects_variable_product() {
        let e = AddrExpr::lane() * AddrExpr::block();
        assert!(lower(&e).is_none());
    }

    #[test]
    fn lower_subtraction() {
        let e = AddrExpr::lane() - AddrExpr::c(1);
        let a = lower(&e).unwrap();
        assert_eq!(a.base, -1);
        assert_eq!(a.lane, 1);
    }

    #[test]
    fn lower_deep_loop_var_rejected() {
        let e = AddrExpr::loop_var(MAX_LOOP_DEPTH as u8);
        assert!(lower(&e).is_none());
    }

    #[test]
    fn affine_eval_matches_tree_eval() {
        let e = AddrExpr::block() * 64 + AddrExpr::loop_var(0) * 8 + AddrExpr::lane() * 2 + 5;
        let a = lower(&e).unwrap();
        for lane in 0..4 {
            for block in 0..4 {
                for it in 0..3u32 {
                    assert_eq!(
                        a.eval(lane, (block, 0), &[it], |_| 0),
                        e.eval(lane, (block, 0), &[it], &mut no_regs)
                    );
                }
            }
        }
    }

    #[test]
    fn fold_warp_then_lane() {
        let e = AddrExpr::block() * 64 + AddrExpr::lane() * 2;
        let a = lower(&e).unwrap();
        let folded = a.fold_warp((3, 0), &[]);
        assert_eq!(folded, 192);
        assert_eq!(a.lane_addr(folded, 5, |_| 0), 202);
    }

    #[test]
    fn compiled_addr_prefers_affine() {
        let c = CompiledAddr::compile(AddrExpr::lane() + 1);
        assert!(matches!(c, CompiledAddr::Affine(_)));
        let c = CompiledAddr::compile(AddrExpr::lane() * AddrExpr::lane());
        assert!(matches!(c, CompiledAddr::Tree(_)));
    }

    #[test]
    fn compiled_tree_eval_matches() {
        let e = AddrExpr::lane() * AddrExpr::lane();
        let c = CompiledAddr::compile(e.clone());
        let mut rr = |_: Reg| 0;
        assert_eq!(c.eval(7, (0, 0), &[], &mut rr), 49);
    }

    #[test]
    fn compiled_static_detection() {
        assert!(CompiledAddr::compile(AddrExpr::lane()).is_static());
        assert!(!CompiledAddr::compile(AddrExpr::reg(0)).is_static());
        assert!(!CompiledAddr::compile(AddrExpr::reg(0) * AddrExpr::reg(0)).is_static());
    }

    #[test]
    fn compiled_max_loop_var() {
        let c = CompiledAddr::compile(AddrExpr::loop_var(1) + AddrExpr::lane());
        assert_eq!(c.max_loop_var(), Some(1));
        let c = CompiledAddr::compile(AddrExpr::lane());
        assert_eq!(c.max_loop_var(), None);
    }

    #[test]
    fn scale_overflow_is_rejected_not_wrapped() {
        let e = AddrExpr::lane() * i64::MAX + AddrExpr::lane() * i64::MAX;
        assert!(lower(&e).is_none()); // coefficient addition would overflow
    }

    /// Distinct addresses per bank over the active lanes of
    /// `base + stride·lane`, max over banks (duplicates broadcast).
    fn enumerated_degree(base: i64, stride: i64, mask: u64, b: u64) -> u64 {
        let mut per_bank: Vec<Vec<i128>> = vec![Vec::new(); b as usize];
        for l in (0..64).filter(|l| mask >> l & 1 == 1) {
            let addr = i128::from(base) + i128::from(stride) * l;
            per_bank[addr.rem_euclid(i128::from(b)) as usize].push(addr);
        }
        per_bank
            .iter_mut()
            .map(|v| {
                v.sort_unstable();
                v.dedup();
                v.len() as u64
            })
            .max()
            .unwrap_or(0)
            .max(1)
    }

    /// Distinct `⌊(base + stride·lane) / b⌋` over the active lanes, all
    /// in `i128`.
    fn enumerated_blocks(base: i64, stride: i64, mask: u64, b: u64) -> u64 {
        let mut quotients: Vec<i128> = (0..64)
            .filter(|l| mask >> l & 1 == 1)
            .map(|l| (i128::from(base) + i128::from(stride) * l).div_euclid(b.into()))
            .collect();
        quotients.dedup(); // monotone: equal quotients are adjacent
        quotients.len() as u64
    }

    fn lanes(n: u64) -> u64 {
        if n >= 64 {
            u64::MAX
        } else {
            (1 << n) - 1
        }
    }

    #[test]
    fn full_warp_conflict_degree_matches_enumeration() {
        for b in [32u64, 24] {
            for stride in -40i64..=40 {
                let fast = run_conflict_degree(stride, b, b);
                assert_eq!(fast, enumerated_degree(7, stride, lanes(b), b), "stride={stride}");
                if stride != 0 && b == 32 {
                    assert_eq!(fast, gcd(stride.unsigned_abs() % b, b), "stride={stride}");
                }
            }
        }
    }

    #[test]
    fn masked_span_blocks_agrees_with_full_and_enumeration() {
        // A full mask is one run.
        for (base, stride, b) in [(0i64, 1i64, 32u64), (7, 3, 32), (5, -2, 16), (0, 0, 8)] {
            assert_eq!(
                masked_span_blocks(base, stride, lanes(b), b),
                run_blocks(base, stride, b, b),
                "base={base} stride={stride}"
            );
        }
        // Arbitrary masks against brute-force distinct quotients.
        for (base, stride, mask, b) in
            [(3i64, 2i64, 0b1010_1010u64, 8u64), (0, 5, 0b1001, 8), (-4, -3, 0b110110, 8)]
        {
            assert_eq!(
                masked_span_blocks(base, stride, mask, b),
                enumerated_blocks(base, stride, mask, b)
            );
        }
        assert_eq!(masked_span_blocks(0, 1, 0, 32), 0);
    }

    #[test]
    fn masked_conflict_degree_matches_enumeration() {
        for b in [16u64, 12] {
            for stride in -20i64..=20 {
                for mask in [0x1u64, 0xFFFF, 0xAAAA, 0x00FF, 0x8421, 0x7, 0x0FF0] {
                    let mask = mask & lanes(b);
                    assert_eq!(
                        masked_conflict_degree(stride, mask, b),
                        enumerated_degree(0, stride, mask, b),
                        "b={b} stride={stride} mask={mask:#x}"
                    );
                }
            }
        }
        assert_eq!(masked_conflict_degree(3, 0, 16), 1);
    }

    #[test]
    fn lane_span_blocks_matches_enumeration() {
        for (base, stride, n, b) in [
            (0i64, 1i64, 32u64, 32u64),
            (1, 1, 32, 32),
            (5, -3, 16, 8),
            (0, 0, 32, 32),
            (7, 9, 64, 64),
            (-5, 2, 20, 12),
        ] {
            let fast = run_blocks(base, stride, n, b);
            assert_eq!(
                fast,
                enumerated_blocks(base, stride, lanes(n), b),
                "base={base} stride={stride}"
            );
        }
        assert_eq!(run_blocks(0, 1, 0, 32), 0);
    }

    /// Brute-force extent: every active lane (lanes past 63 go with lane
    /// 63), block and iteration, in `i128`; `None` for an empty domain.
    fn enumerated_extent(
        a: &AffineAddr,
        mask: u64,
        b: u64,
        grid: (u64, u64),
        loop_counts: &[u32],
    ) -> Option<(i128, i128)> {
        let mut points = vec![i128::from(a.base)];
        let mut extend = |coef: i64, xs: Vec<u64>| {
            let old = std::mem::take(&mut points);
            for p in old {
                points.extend(xs.iter().map(|&x| p + i128::from(coef) * i128::from(x)));
            }
        };
        extend(a.lane, (0..b).filter(|&l| mask >> l.min(63) & 1 == 1).collect());
        extend(a.block, (0..grid.0).collect());
        extend(a.block_y, (0..grid.1).collect());
        for (d, &count) in loop_counts.iter().enumerate() {
            extend(a.loops.get(d).copied().unwrap_or(0), (0..u64::from(count)).collect());
        }
        Some((*points.iter().min()?, *points.iter().max()?))
    }

    /// `eval`'s own order of operations in checked `i64`: `Some` exactly
    /// when evaluating `corner` through [`AffineAddr::eval`] cannot
    /// overflow.
    fn checked_eval(a: &AffineAddr, c: &Corner) -> Option<i64> {
        let term = |coef: i64, x: u64| coef.checked_mul(i64::try_from(x).ok()?);
        let mut v = a.base.checked_add(term(a.block, c.block.0)?)?;
        v = v.checked_add(term(a.block_y, c.block.1)?)?;
        for (&coef, &x) in a.loops.iter().zip(&c.loops) {
            v = v.checked_add(term(coef, u64::from(x))?)?;
        }
        v.checked_add(term(a.lane, c.lane)?)
    }

    #[test]
    fn corners_name_the_escaping_point_exactly() {
        // `d[block·2⁶² + lane]` over 4 blocks of 32 lanes reaches
        // 3·2⁶² + 31, past `i64::MAX`: exact in `i128`, at block 3, lane 31.
        let a = lower(&(AddrExpr::block() * (1i64 << 62) + AddrExpr::lane())).unwrap();
        let [low, high] = a.corners(u64::MAX, 32, (4, 1), &[]).unwrap();
        assert_eq!((low.addr, low.lane, low.block), (0, 0, (0, 0)));
        assert_eq!((high.addr, high.lane, high.block), (3 * (1i128 << 62) + 31, 31, (3, 0)));
        // A coefficient of either sign, under a gapped mask, in a loop.
        let a =
            lower(&(AddrExpr::c(100) - AddrExpr::lane() * 2 + AddrExpr::loop_var(1) * 7)).unwrap();
        let [low, high] = a.corners(0b0110_0100, 32, (2, 1), &[3, 4]).unwrap();
        assert_eq!((low.addr, low.lane, low.loops), (100 - 12, 6, [0, 0, 0, 0]));
        assert_eq!(
            (high.addr, high.lane, high.block, high.loops),
            (96 + 21, 2, (1, 0), [2, 3, 0, 0])
        );
    }

    #[test]
    fn corners_refuse_what_they_cannot_bound() {
        let lane = lower(&AddrExpr::lane()).unwrap();
        assert_eq!(lane.corners(0, 32, (1, 1), &[]), None, "empty mask");
        assert_eq!(lane.corners(u64::MAX << 32, 32, (1, 1), &[]), None, "no lane below b");
        assert_eq!(lane.corners(u64::MAX, 32, (1, 1), &[4, 0]), None, "zero-trip loop");
        assert_eq!(lane.corners(u64::MAX, 32, (0, 1), &[]), None, "empty grid");
        assert_eq!(lane.corners(u64::MAX, 0, (1, 1), &[]), None, "no lanes");
        let reg = lower(&(AddrExpr::reg(0) + AddrExpr::lane())).unwrap();
        assert_eq!(reg.corners(u64::MAX, 32, (1, 1), &[]), None, "register term");
        let wide = AffineAddr { block: i64::MAX, block_y: i64::MAX, ..AffineAddr::ZERO };
        assert_eq!(wide.corners(1, 32, (u64::MAX, u64::MAX), &[]), None, "past i128");
        // An all-lanes mask on a machine wider than a mask covers all b lanes.
        let [low, high] = lane.corners(u64::MAX, 100, (1, 1), &[]).unwrap();
        assert_eq!((low.addr, high.addr, high.lane), (0, 99, 99));
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// The extent rule equals brute-force min/max over the domain —
        /// gapped and dense masks, coefficients of both signs and near
        /// `i64::MAX`, `b = 1` and `b > 64` — and each corner is a point
        /// of the domain that evaluates, through [`AffineAddr::eval`]
        /// wherever that fits `i64`, to the corner's address.
        #[test]
        fn corners_are_the_enumerated_extremes(
            coefs in proptest::collection::vec(prop_oneof![
                -70i64..70,
                Just(0i64),
                (-3i64..3).prop_map(|d| i64::MAX - d.abs()),
                (-3i64..3).prop_map(|d| i64::MIN + d.abs()),
            ], 6..7),
            base in prop_oneof![-200i64..200, any::<i64>()],
            mask in prop_oneof![any::<u64>(), 1u64..256, Just(u64::MAX), Just(0u64), (0u32..64).prop_map(|l| 1u64 << l)],
            b in prop_oneof![1u64..=70, Just(1u64), Just(32u64), Just(64u64), 65u64..=70],
            grid in (0u64..4, 0u64..3),
            loop_counts in proptest::collection::vec(0u32..4, 0..3),
        ) {
            let a = AffineAddr {
                base,
                lane: coefs[0],
                block: coefs[1],
                block_y: coefs[2],
                loops: [coefs[3], coefs[4], 0, 0],
                reg: None,
            };
            let expected = enumerated_extent(&a, mask, b, grid, &loop_counts);
            let got = a.corners(mask, b, grid, &loop_counts);
            prop_assert_eq!(got.map(|[lo, hi]| (lo.addr, hi.addr)), expected);
            for c in got.iter().flatten() {
                prop_assert!(c.lane < b && mask >> c.lane.min(63) & 1 == 1);
                prop_assert!(c.block.0 < grid.0 && c.block.1 < grid.1);
                for (d, &x) in c.loops.iter().enumerate() {
                    prop_assert!(x < loop_counts.get(d).copied().unwrap_or(1));
                }
                let point = AffineAddr { reg: None, ..a };
                if let Some(v) = checked_eval(&point, c) {
                    let lane = c.lane as i64;
                    let block = (c.block.0 as i64, c.block.1 as i64);
                    prop_assert_eq!(a.eval(lane, block, &c.loops, |_| 0), v);
                    prop_assert_eq!(i128::from(v), c.addr);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4000))]

        /// Both rules, over a run and over a mask, equal brute-force
        /// enumeration in `i128` over random bases, strides, masks (with
        /// gaps and without) and widths — negative strides and
        /// non-power-of-two `b` included — and at the `i64` boundary:
        /// `base` is placed so that the extreme address `base +
        /// stride·last` is exactly `i64::MAX` / `i64::MIN` or one past it.
        #[test]
        fn span_blocks_i64_path_equals_the_i128_formula(
            stride in prop_oneof![-70i64..70, any::<i64>(), (-4i64..4).prop_map(|d| i64::MAX / 63 + d)],
            mask in prop_oneof![any::<u64>(), 1u64..256, Just(u64::MAX), (0u32..64, 1u32..=64).prop_map(|(lo, n)| lanes(u64::from(n)) << lo)],
            b in prop_oneof![1u64..=64, (0u32..=6).prop_map(|k| 1u64 << k)],
            free_base in prop_oneof![-200i64..200, any::<i64>()],
            placement in 0u8..3,
        ) {
            let last = u64::from(63u32.saturating_sub(mask.leading_zeros()));
            let extreme = i128::from(stride) * i128::from(last);
            let (edge, past) = if extreme >= 0 {
                (i128::from(i64::MAX) - extreme, 1)
            } else {
                (i128::from(i64::MIN) - extreme, -1)
            };
            let base = match placement {
                0 => Some(free_base),
                1 => i64::try_from(edge).ok(),
                _ => i64::try_from(edge + past).ok(),
            };
            let Some(base) = base else { return Ok(()) };
            prop_assert_eq!(
                masked_span_blocks(base, stride, mask, b),
                enumerated_blocks(base, stride, mask, b),
                "base={} stride={} mask={:#x} b={}", base, stride, mask, b
            );
            prop_assert_eq!(
                masked_conflict_degree(stride, mask, b),
                enumerated_degree(base, stride, mask, b),
                "base={} stride={} mask={:#x} b={}", base, stride, mask, b
            );
            let n = last + 1;
            prop_assert_eq!(
                run_blocks(base, stride, n, b),
                enumerated_blocks(base, stride, lanes(n), b),
                "base={} stride={} n={} b={}", base, stride, n, b
            );
            prop_assert_eq!(
                run_conflict_degree(stride, n, b),
                enumerated_degree(base, stride, lanes(n), b),
                "stride={} n={} b={}", stride, n, b
            );
        }
    }
}
