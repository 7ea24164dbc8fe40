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

use crate::expr::AddrExpr;
use crate::{Reg, MAX_LOOP_DEPTH};

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

    /// Bank-conflict serialisation degree of a full warp (`b` active
    /// lanes on `b` banks), or `None` when the address reads a register
    /// (data-dependent).
    ///
    /// With lane stride `cL`: stride 0 broadcasts (degree 1); otherwise
    /// the `b` lane addresses are distinct and lanes `l₁, l₂` collide iff
    /// `cL·(l₁−l₂) ≡ 0 (mod b)`, putting `gcd(|cL| mod b, b)` distinct
    /// addresses in the worst bank.
    #[inline]
    pub fn full_warp_conflict_degree(&self, b: u64) -> Option<u64> {
        if !self.is_static() {
            return None;
        }
        if self.lane == 0 {
            return Some(1);
        }
        Some(gcd(self.lane.unsigned_abs() % b, b).clamp(1, b))
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

    /// True when every coefficient is zero (a pure constant).
    fn is_const(&self) -> bool {
        self.lane == 0
            && self.block == 0
            && self.block_y == 0
            && self.loops.iter().all(|&c| c == 0)
            && self.reg.is_none_or(|(_, c)| c == 0)
    }
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Number of distinct memory blocks (size-`b` aligned word groups)
/// touched by the monotone address sequence `{base + stride·lane : lane ∈
/// [0, lanes)}`.  Depends on `base` only through `base mod b`, which the
/// analyser and the simulator's compile-time transaction tables both
/// exploit.
pub fn lane_span_blocks(base: i64, stride: i64, lanes: u64, b: u64) -> u64 {
    debug_assert!(b > 0);
    if lanes == 0 {
        return 0;
    }
    if stride == 0 {
        return 1;
    }
    span_blocks(base, stride, 0..lanes, lanes - 1, b)
}

/// Number of distinct memory blocks touched by the address set
/// `{base + stride·lane : lane active in mask}` — the **masked-affine**
/// generalisation of [`lane_span_blocks`] (which is the `mask = all
/// lanes` case).  Addresses are monotone in lane order, so distinct
/// floor-quotients are counted by scanning active lanes for transitions;
/// an empty mask touches no blocks.
pub fn masked_span_blocks(base: i64, stride: i64, mask: u64, b: u64) -> u64 {
    debug_assert!(b > 0);
    if mask == 0 {
        return 0;
    }
    if stride == 0 {
        return 1;
    }
    let mut m = mask;
    let lanes = std::iter::from_fn(move || {
        if m == 0 {
            return None;
        }
        let lane = m.trailing_zeros();
        m &= m - 1;
        Some(u64::from(lane))
    });
    span_blocks(base, stride, lanes, u64::from(63 - mask.leading_zeros()), b)
}

/// Distinct floor-quotients `⌊(base + stride·lane) / b⌋` over `lanes`
/// (ascending, none above `last`), counted as transitions — the
/// addresses are monotone in lane order.  Lowering builds one
/// transaction table entry per residue from this, so it runs `b` times
/// per static global site: the arithmetic is `i64` whenever the
/// extreme address `base + stride·last` and `b` fit (every address in
/// between then fits too), and `i128` only beyond that.
fn span_blocks(base: i64, stride: i64, lanes: impl Iterator<Item = u64>, last: u64, b: u64) -> u64 {
    fn transitions<Q: Copy + PartialEq>(
        lanes: impl Iterator<Item = u64>,
        q: impl Fn(u64) -> Q,
    ) -> u64 {
        let mut prev = None;
        let mut distinct = 0;
        for lane in lanes {
            let quotient = Some(q(lane));
            if quotient != prev {
                distinct += 1;
                prev = quotient;
            }
        }
        distinct
    }
    let extreme = i64::try_from(last).ok().and_then(|l| stride.checked_mul(l)?.checked_add(base));
    match (extreme, i64::try_from(b)) {
        (Some(_), Ok(bw)) => {
            transitions(lanes, |lane| (base + stride * lane as i64).div_euclid(bw))
        }
        _ => transitions(lanes, |lane| {
            (i128::from(base) + i128::from(stride) * i128::from(lane)).div_euclid(i128::from(b))
        }),
    }
}

/// Bank-conflict serialisation degree of the shared access
/// `{stride·lane : lane active in mask}` on `b` banks — the
/// masked-affine counterpart of
/// [`AffineAddr::full_warp_conflict_degree`].  Base-independent: adding
/// a constant rotates every lane's bank uniformly, so only `stride` and
/// the mask matter.  Stride 0 broadcasts one address (degree 1); with a
/// non-zero stride the active lanes' addresses are pairwise distinct, so
/// the degree is the largest number of active lanes sharing a bank.
pub fn masked_conflict_degree(stride: i64, mask: u64, b: u64) -> u64 {
    debug_assert!((1..=64).contains(&b));
    if mask == 0 || stride == 0 {
        return 1;
    }
    let bi = b as i64;
    let mut counts = [0u8; 64];
    let mut degree = 1u64;
    let mut m = mask;
    while m != 0 {
        let lane = m.trailing_zeros();
        m &= m - 1;
        let bank = (stride * i64::from(lane)).rem_euclid(bi) as usize;
        counts[bank] += 1;
        degree = degree.max(u64::from(counts[bank]));
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

#[cfg(test)]
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

    #[test]
    fn full_warp_conflict_degree_matches_enumeration() {
        let b = 32u64;
        for stride in -40i64..=40 {
            let a = lower(&(AddrExpr::lane() * stride + 7)).unwrap();
            let fast = a.full_warp_conflict_degree(b).unwrap();
            // Enumerate distinct addresses per bank, max over banks.
            let mut per_bank: Vec<Vec<i64>> = vec![Vec::new(); b as usize];
            for l in 0..b as i64 {
                let addr = 7 + stride * l;
                per_bank[addr.rem_euclid(b as i64) as usize].push(addr);
            }
            let slow = per_bank
                .iter_mut()
                .map(|v| {
                    v.sort_unstable();
                    v.dedup();
                    v.len() as u64
                })
                .max()
                .unwrap()
                .max(1);
            assert_eq!(fast, slow, "stride={stride}");
        }
        let a = lower(&AddrExpr::reg(3)).unwrap();
        assert_eq!(a.full_warp_conflict_degree(b), None);
    }

    #[test]
    fn masked_span_blocks_agrees_with_full_and_enumeration() {
        // Full mask reduces to lane_span_blocks.
        for (base, stride, b) in [(0i64, 1i64, 32u64), (7, 3, 32), (5, -2, 16), (0, 0, 8)] {
            let full = if b >= 64 { u64::MAX } else { (1u64 << b) - 1 };
            assert_eq!(
                masked_span_blocks(base, stride, full, b),
                lane_span_blocks(base, stride, b, b),
                "base={base} stride={stride}"
            );
        }
        // Arbitrary masks against brute-force distinct quotients.
        for (base, stride, mask, b) in
            [(3i64, 2i64, 0b1010_1010u64, 8u64), (0, 5, 0b1001, 8), (-4, -3, 0b110110, 8)]
        {
            let mut qs: Vec<i64> = (0..64)
                .filter(|l| mask >> l & 1 == 1)
                .map(|l| (base + stride * l).div_euclid(b as i64))
                .collect();
            qs.sort_unstable();
            qs.dedup();
            assert_eq!(masked_span_blocks(base, stride, mask, b), qs.len() as u64);
        }
        assert_eq!(masked_span_blocks(0, 1, 0, 32), 0);
    }

    #[test]
    fn masked_conflict_degree_matches_enumeration() {
        let b = 16u64;
        for stride in -20i64..=20 {
            for mask in [0x1u64, 0xFFFF, 0xAAAA, 0x00FF, 0x8421, 0x7] {
                let fast = masked_conflict_degree(stride, mask, b);
                // Distinct addresses per bank over active lanes, max over
                // banks (duplicates broadcast).
                let mut per_bank: Vec<Vec<i64>> = vec![Vec::new(); b as usize];
                for l in 0..b as i64 {
                    if mask >> l & 1 == 1 {
                        let addr = stride * l;
                        per_bank[addr.rem_euclid(b as i64) as usize].push(addr);
                    }
                }
                let slow = per_bank
                    .iter_mut()
                    .map(|v| {
                        v.sort_unstable();
                        v.dedup();
                        v.len() as u64
                    })
                    .max()
                    .unwrap()
                    .max(1);
                assert_eq!(fast, slow, "stride={stride} mask={mask:#x}");
            }
        }
        assert_eq!(masked_conflict_degree(3, 0, 16), 1);
    }

    #[test]
    fn lane_span_blocks_matches_enumeration() {
        for (base, stride, lanes, b) in [
            (0i64, 1i64, 32u64, 32u64),
            (1, 1, 32, 32),
            (5, -3, 16, 8),
            (0, 0, 32, 32),
            (7, 9, 64, 64),
        ] {
            let fast = lane_span_blocks(base, stride, lanes, b);
            let mut qs: Vec<i64> =
                (0..lanes as i64).map(|l| (base + stride * l).div_euclid(b as i64)).collect();
            qs.sort_unstable();
            qs.dedup();
            assert_eq!(fast, qs.len() as u64, "base={base} stride={stride}");
        }
        assert_eq!(lane_span_blocks(0, 1, 0, 32), 0);
    }

    /// Distinct `⌊(base + stride·lane) / b⌋` over ascending `lanes`, all
    /// in `i128` — the formula lowering used before it had an `i64` path.
    fn span_in_i128(base: i64, stride: i64, lanes: impl Iterator<Item = u64>, b: u64) -> u64 {
        let mut quotients: Vec<i128> = lanes
            .map(|l| (i128::from(base) + i128::from(stride) * i128::from(l)).div_euclid(b.into()))
            .collect();
        quotients.dedup(); // monotone: equal quotients are adjacent
        quotients.len() as u64
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4000))]

        /// Both span counts equal the `i128` formula over random bases,
        /// strides, masks and widths — negative ones included — and at
        /// the `i64` fit boundary: `base` is placed so that the extreme
        /// address `base + stride·last` is exactly `i64::MAX` / `i64::MIN`
        /// (the last `i64` case) or one past it (the first `i128` one).
        #[test]
        fn span_blocks_i64_path_equals_the_i128_formula(
            stride in prop_oneof![-70i64..70, any::<i64>(), (-4i64..4).prop_map(|d| i64::MAX / 63 + d)],
            mask in prop_oneof![any::<u64>(), 1u64..256, Just(u64::MAX)],
            b in 1u64..=64,
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
            let active = (0..64u64).filter(|l| mask >> l & 1 == 1);
            prop_assert_eq!(
                masked_span_blocks(base, stride, mask, b),
                span_in_i128(base, stride, active, b),
                "base={} stride={} mask={:#x} b={}", base, stride, mask, b
            );
            let lanes = last + 1;
            prop_assert_eq!(
                lane_span_blocks(base, stride, lanes, b),
                span_in_i128(base, stride, 0..lanes, b),
                "base={} stride={} lanes={} b={}", base, stride, lanes, b
            );
        }
    }
}
