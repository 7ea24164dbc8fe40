//! Bounded linear-Diophantine feasibility.
//!
//! The race detector reduces "can two distinct thread blocks write the
//! same address?" to the feasibility of one linear equation
//! `Σ coefᵢ·xᵢ = target` over finite integer domains (block indices,
//! active lanes of a folded mask, loop counters).  [`solve`] decides it
//! three-valued:
//!
//! * [`Feas::Yes`] — a witness assignment (values aligned with the
//!   input variables);
//! * [`Feas::No`] — *proven* infeasible; this is the answer soundness
//!   rests on, so `No` is only returned when the search space was
//!   covered exactly (projection, interval/gcd pruning, closed forms —
//!   never sampling);
//! * [`Feas::Maybe`] — the node budget ran out or a domain was too
//!   large to cover; callers must degrade to an `Unknown` verdict.
//!
//! ## Projection
//!
//! Before searching, every pair of terms with equal `|coef|` is replaced
//! by one term over the pair's exact sum or difference domain —
//! `c·x + c·y = c·(x + y)`, `c·x − c·y = c·(x − y)` — and this repeats
//! until no such pair is left.  An interval ± an interval is an
//! interval; two lane masks give an explicit set of at most 127 values;
//! a wide interval ± a set is an interval (the set's values are less
//! than 128 apart, so the shifted copies overlap); a merge whose result
//! is neither stays unmerged.  The projection is **exact**: each
//! variable occurs in this one equation only, so the projected equation
//! has a solution iff the original one has, and `No` stays a proof.  A
//! `Yes` is lifted back, merge by merge, to values of the original
//! variables inside their own domains.  The race detector's pairs are
//! where this pays: one site paired with itself puts every lane, loop
//! counter and free block coordinate in twice with opposite signs, and
//! each such pair collapses to one difference.
//!
//! ## Search
//!
//! The search enumerates small domains first (lanes and loop counters
//! are tiny), pruning each prefix with interval bounds and a gcd
//! divisibility test of the remaining suffix, and finishes pairs of
//! large interval domains (block indices can be millions) with the
//! extended-gcd closed form for `a·x + b·y = t` over boxes — so a
//! million-block launch is decided without enumerating blocks.

use atgpu_ir::affine::gcd;

/// A finite variable domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dom {
    /// The inclusive integer interval `[lo, hi]`.
    Range(i64, i64),
    /// An explicit set of at most 128 values, `{base + i : bit i set}`:
    /// a lane domain ([`Dom::lanes`]) or the projection of two.
    Set(i64, u128),
}

impl Dom {
    /// The lanes of a folded predicate mask, `{i : bit i of mask set}`.
    pub fn lanes(mask: u64) -> Dom {
        Dom::set(0, u128::from(mask)).unwrap_or(Dom::Set(0, 0))
    }

    /// `{base + i : bit i set}` in normal form — shifted so that bit 0
    /// is set, and an interval when it has no holes; `None` when a value
    /// overflows.
    fn set(base: i64, bits: u128) -> Option<Dom> {
        if bits == 0 {
            return Some(Dom::Set(0, 0));
        }
        let shift = bits.trailing_zeros();
        let (base, bits) = (base.checked_add(i64::from(shift))?, bits >> shift);
        let top = base.checked_add(i64::from(127 - bits.leading_zeros()))?;
        Some(if bits & bits.wrapping_add(1) == 0 {
            Dom::Range(base, top)
        } else {
            Dom::Set(base, bits)
        })
    }

    fn is_empty(&self) -> bool {
        match *self {
            Dom::Range(lo, hi) => lo > hi,
            Dom::Set(_, bits) => bits == 0,
        }
    }

    fn min(&self) -> i64 {
        match *self {
            Dom::Range(lo, _) => lo,
            Dom::Set(base, bits) => base.saturating_add(i64::from(bits.trailing_zeros())),
        }
    }

    fn max(&self) -> i64 {
        match *self {
            Dom::Range(_, hi) => hi,
            Dom::Set(base, bits) => base.saturating_add(127 - i64::from(bits.leading_zeros())),
        }
    }

    fn size(&self) -> u64 {
        match *self {
            Dom::Range(lo, hi) => {
                (i128::from(hi) - i128::from(lo) + 1).clamp(0, u64::MAX.into()) as u64
            }
            Dom::Set(_, bits) => u64::from(bits.count_ones()),
        }
    }

    fn contains(&self, v: i64) -> bool {
        match *self {
            Dom::Range(lo, hi) => lo <= v && v <= hi,
            Dom::Set(base, bits) => {
                v.checked_sub(base).is_some_and(|i| (0..128).contains(&i) && bits >> i & 1 != 0)
            }
        }
    }

    fn values(&self) -> impl Iterator<Item = i64> + '_ {
        let (range, set) = match *self {
            Dom::Range(lo, hi) => (Some(lo..=hi), None),
            Dom::Set(base, bits) => {
                let set = (0..128i64).filter(move |&i| bits >> i & 1 != 0);
                (None, Some(set.filter_map(move |i| base.checked_add(i))))
            }
        };
        range.into_iter().flatten().chain(set.into_iter().flatten())
    }

    /// `{−v : v ∈ self}`.
    fn neg(self) -> Option<Dom> {
        match self {
            Dom::Range(lo, hi) => Some(Dom::Range(hi.checked_neg()?, lo.checked_neg()?)),
            Dom::Set(_, 0) => Some(self),
            Dom::Set(base, bits) => {
                // Bit i (value base + i) moves to bit top − i.
                let top = 127 - bits.leading_zeros();
                Dom::set(
                    base.checked_add(i64::from(top))?.checked_neg()?,
                    bits.reverse_bits() >> (127 - top),
                )
            }
        }
    }

    /// The domain as `(base, bits)`: a set, or an interval of fewer than
    /// 128 values.
    fn small_set(self) -> Option<(i64, u128)> {
        match self {
            Dom::Set(base, bits) => Some((base, bits)),
            Dom::Range(lo, hi) => {
                let n = u32::try_from(i128::from(hi) - i128::from(lo) + 1).ok()?;
                (n < 128).then(|| (lo, (1u128 << n) - 1))
            }
        }
    }

    /// The exact domain of `x + y` (`x ∈ self`, `y ∈ other`), or `None`
    /// when it is neither an interval nor a set spanning 128 values.
    fn sum(self, other: Dom) -> Option<Dom> {
        if let (Dom::Range(a, b), Dom::Range(c, d)) = (self, other) {
            return Some(Dom::Range(a.checked_add(c)?, b.checked_add(d)?));
        }
        match (self.small_set(), other.small_set()) {
            (Some((b1, m1)), Some((b2, m2))) => {
                // Bit lengths: the highest result bit is `len1 + len2 − 2`,
                // which must stay below 128.
                let (len1, len2) = (128 - m1.leading_zeros(), 128 - m2.leading_zeros());
                if len1 + len2 > 129 {
                    return None;
                }
                let bits = (0..len1).filter(|i| m1 >> i & 1 != 0).fold(0, |acc, i| acc | m2 << i);
                Dom::set(b1.checked_add(b2)?, bits)
            }
            // An interval of 128 or more values plus a set: consecutive
            // set values are under 128 apart, so the interval's shifted
            // copies overlap.
            _ => Some(Dom::Range(
                self.min().checked_add(other.min())?,
                self.max().checked_add(other.max())?,
            )),
        }
    }
}

/// One term `coef · x` with `x` ranging over `dom`.
#[derive(Debug, Clone, Copy)]
pub struct Var {
    /// The coefficient (may be zero or negative).
    pub coef: i64,
    /// The variable's domain.
    pub dom: Dom,
}

/// The three-valued feasibility answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Feas {
    /// Feasible; the values are aligned with the input `vars` slice.
    Yes(Vec<i64>),
    /// Proven infeasible over the given domains.
    No,
    /// Undecided (budget exhausted or domains too large to cover).
    Maybe,
}

/// Largest domain the recursive search will enumerate directly.
const ENUM_CAP: u64 = 4096;

/// Extended gcd: returns `(g, u, v)` with `a·u + b·v = g = gcd(|a|, |b|)`
/// (`g ≥ 0`; `a`, `b` not both zero).
fn egcd(a: i128, b: i128) -> (i128, i128, i128) {
    if b == 0 {
        if a >= 0 {
            (a, 1, 0)
        } else {
            (-a, -1, 0)
        }
    } else {
        let (g, u, v) = egcd(b, a.rem_euclid(b));
        (g, v, u - a.div_euclid(b) * v)
    }
}

fn term_bounds(v: &Var) -> (i128, i128) {
    let c = v.coef as i128;
    let (a, b) = (c * v.dom.min() as i128, c * v.dom.max() as i128);
    (a.min(b), a.max(b))
}

/// One projection step: term `z` stands for `x + y`, or `x − y` when
/// `negate` (the two coefficients were opposite).
struct Merge {
    z: usize,
    x: usize,
    y: usize,
    negate: bool,
}

/// Projects `terms` (see the module docs): appends one term per merge,
/// and returns the indices of the terms left to search with the merges
/// in the order they were made.  Zero-coefficient terms are left out.
fn project(terms: &mut Vec<Var>) -> (Vec<usize>, Vec<Merge>) {
    let mut live: Vec<usize> =
        (0..terms.len()).filter(|&i| terms.get(i).is_some_and(|v| v.coef != 0)).collect();
    let mut merges = Vec::new();
    loop {
        let mergeable = |(p, &x): (usize, &usize)| {
            live.iter().enumerate().skip(p + 1).find_map(|(q, &y)| {
                let (a, b) = (terms.get(x)?, terms.get(y)?);
                if a.coef.unsigned_abs() != b.coef.unsigned_abs() {
                    return None;
                }
                let negate = a.coef != b.coef;
                let other = if negate { b.dom.neg()? } else { b.dom };
                Some((p, q, Var { coef: a.coef, dom: a.dom.sum(other)? }, negate))
            })
        };
        let Some((p, q, term, negate)) = live.iter().enumerate().find_map(mergeable) else {
            return (live, merges);
        };
        // `q > p`: remove the later one first.
        let (y, x) = (live.remove(q), live.remove(p));
        let z = terms.len();
        terms.push(term);
        merges.push(Merge { z, x, y, negate });
        live.push(z);
    }
}

/// Values `x ∈ dx`, `y ∈ dy` with `x + y = v` (`x − y = v` when
/// `negate`): a merge's preimage of the value its term was assigned.
fn split(dx: Dom, dy: Dom, negate: bool, v: i64) -> Option<(i64, i64)> {
    // `w = ±y`, so `x + w = v`; a set side (≤ 128 values) is scanned.
    let dw = if negate { dy.neg()? } else { dy };
    let fits = |x: i64| v.checked_sub(x).is_some_and(|w| dw.contains(w));
    let x = match (dx, dw) {
        (Dom::Range(a, b), Dom::Range(_, d)) => {
            Some(a.max(v.checked_sub(d)?)).filter(|&x| x <= b && fits(x))?
        }
        (Dom::Set(..), _) => dx.values().find(|&x| fits(x))?,
        (Dom::Range(..), Dom::Set(..)) => {
            dw.values().filter_map(|w| v.checked_sub(w)).find(|&x| dx.contains(x))?
        }
    };
    let w = v.checked_sub(x)?;
    Some((x, if negate { w.checked_neg()? } else { w }))
}

/// Decides `Σ coefᵢ·xᵢ = target` over the variables' domains.
pub fn solve(vars: &[Var], target: i64, budget: &mut u64) -> Feas {
    if vars.iter().any(|v| v.dom.is_empty()) {
        return Feas::No;
    }
    let mut terms = vars.to_vec();
    let (mut order, merges) = project(&mut terms);
    // Zero-coefficient variables take any domain value; pin them to the
    // minimum so the witness is fully assigned.
    let mut values: Vec<i64> = terms.iter().map(|v| v.dom.min()).collect();
    // Small domains first: lanes/loops are enumerated, leaving the big
    // block-index intervals for the two-variable closed form.
    order.sort_by_key(|&i| terms.get(i).map(|v| v.dom.size()).unwrap_or(0));

    // Suffix interval bounds `[lo, hi]` and gcds over the ordered tail,
    // so each recursion step prunes in O(1).
    let mut suffix: Vec<(i128, i128, u64)> = vec![(0, 0, 0)];
    for &i in order.iter().rev() {
        let var = terms.get(i);
        let (lo, hi) = var.map(term_bounds).unwrap_or((0, 0));
        let c = var.map(|v| v.coef.unsigned_abs()).unwrap_or(0);
        let &(slo, shi, sg) = suffix.last().unwrap_or(&(0, 0, 0));
        suffix.push((slo + lo, shi + hi, gcd(c, sg)));
    }
    suffix.reverse();

    struct Search<'a> {
        vars: &'a [Var],
        order: &'a [usize],
        suffix: &'a [(i128, i128, u64)],
        values: &'a mut [i64],
        budget: &'a mut u64,
    }

    enum R {
        Found,
        No,
        Maybe,
    }

    impl Search<'_> {
        fn var(&self, k: usize) -> Option<&Var> {
            self.order.get(k).and_then(|&i| self.vars.get(i))
        }

        fn assign(&mut self, k: usize, v: i64) {
            if let Some(&i) = self.order.get(k) {
                if let Some(slot) = self.values.get_mut(i) {
                    *slot = v;
                }
            }
        }

        fn go(&mut self, k: usize, t: i128) -> R {
            if *self.budget == 0 {
                return R::Maybe;
            }
            *self.budget -= 1;
            let remaining = self.order.len() - k;
            // Interval prune: the suffix terms can only sum into
            // [lo, hi].
            let (lo, hi, g) = self.suffix.get(k).copied().unwrap_or((0, 0, 0));
            if t < lo || t > hi {
                return R::No;
            }
            // Divisibility prune: gcd `g` of the suffix coefficients must
            // divide the residual target.
            if remaining == 0 {
                return if t == 0 { R::Found } else { R::No };
            }
            if g != 0 && (t % g as i128) != 0 {
                return R::No;
            }
            if remaining == 1 {
                let Some(var) = self.var(k).copied() else { return R::Maybe };
                let c = var.coef as i128;
                if t % c != 0 {
                    return R::No;
                }
                let q = t / c;
                let Ok(q64) = i64::try_from(q) else { return R::No };
                if var.dom.contains(q64) {
                    self.assign(k, q64);
                    return R::Found;
                }
                return R::No;
            }
            if remaining == 2 {
                let (a, b) = (self.var(k).copied(), self.var(k + 1).copied());
                if let (Some(a), Some(b)) = (a, b) {
                    if let (Dom::Range(xlo, xhi), Dom::Range(ylo, yhi)) = (a.dom, b.dom) {
                        return match two_var(a.coef, (xlo, xhi), b.coef, (ylo, yhi), t) {
                            Some((x, y)) => {
                                self.assign(k, x);
                                self.assign(k + 1, y);
                                R::Found
                            }
                            None => R::No,
                        };
                    }
                }
                // Set domains fall through to enumeration (≤ 128 values).
            }
            let Some(var) = self.var(k).copied() else { return R::Maybe };
            if var.dom.size() > ENUM_CAP {
                return R::Maybe;
            }
            let mut saw_maybe = false;
            for v in var.dom.values() {
                match self.go(k + 1, t - var.coef as i128 * v as i128) {
                    R::Found => {
                        self.assign(k, v);
                        return R::Found;
                    }
                    R::Maybe => saw_maybe = true,
                    R::No => {}
                }
            }
            if saw_maybe {
                R::Maybe
            } else {
                R::No
            }
        }
    }

    let mut s =
        Search { vars: &terms, order: &order, suffix: &suffix, values: &mut values, budget };
    match s.go(0, target as i128) {
        R::Found => {
            // Lift the witness back through the merges, newest first.
            for m in merges.iter().rev() {
                let lifted = match (values.get(m.z), terms.get(m.x), terms.get(m.y)) {
                    (Some(&v), Some(x), Some(y)) => split(x.dom, y.dom, m.negate, v),
                    _ => None,
                };
                let Some((x, y)) = lifted else { return Feas::Maybe };
                if let Some(slot) = values.get_mut(m.x) {
                    *slot = x;
                }
                if let Some(slot) = values.get_mut(m.y) {
                    *slot = y;
                }
            }
            values.truncate(vars.len());
            Feas::Yes(values)
        }
        R::No => Feas::No,
        R::Maybe => Feas::Maybe,
    }
}

/// Closed form for `a·x + b·y = t` over `x ∈ [xlo, xhi]`, `y ∈ [ylo,
/// yhi]` (`a, b ≠ 0`): parametrize the solution line through the
/// extended gcd and intersect the parameter ranges both box edges
/// induce.  O(1) regardless of interval width.
fn two_var(
    a: i64,
    (xlo, xhi): (i64, i64),
    b: i64,
    (ylo, yhi): (i64, i64),
    t: i128,
) -> Option<(i64, i64)> {
    let (a, b) = (a as i128, b as i128);
    let (g, u, v) = egcd(a, b);
    if g == 0 || t % g != 0 {
        return None;
    }
    let scale = t / g;
    let (x0, y0) = (u * scale, v * scale);
    // General solution: x = x0 + (b/g)·k, y = y0 − (a/g)·k.
    let (sx, sy) = (b / g, -a / g);
    let kx = param_range(x0, sx, xlo as i128, xhi as i128)?;
    let ky = param_range(y0, sy, ylo as i128, yhi as i128)?;
    let (klo, khi) = (kx.0.max(ky.0), kx.1.min(ky.1));
    if klo > khi {
        return None;
    }
    let (x, y) = (x0 + sx * klo, y0 + sy * klo);
    Some((i64::try_from(x).ok()?, i64::try_from(y).ok()?))
}

/// The `k` interval for which `base + step·k ∈ [lo, hi]` (`step ≠ 0`).
fn param_range(base: i128, step: i128, lo: i128, hi: i128) -> Option<(i128, i128)> {
    let (a, b) = (lo - base, hi - base);
    let (klo, khi) = if step > 0 {
        (div_ceil(a, step), div_floor(b, step))
    } else {
        (div_ceil(b, step), div_floor(a, step))
    };
    (klo <= khi).then_some((klo, khi))
}

fn div_floor(a: i128, b: i128) -> i128 {
    // `div_euclid` floors for positive divisors but rounds up for
    // negative ones (its remainder is always non-negative).
    a.div_euclid(b) - if b < 0 && a.rem_euclid(b) != 0 { 1 } else { 0 }
}

fn div_ceil(a: i128, b: i128) -> i128 {
    div_floor(a, b) + if a % b != 0 { 1 } else { 0 }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing, clippy::panic)]
mod tests {
    use super::*;

    fn check(vars: &[Var], t: i64) -> Feas {
        check_with(vars, t, 1_000_000)
    }

    /// [`solve`] under `budget`, asserting that a `Yes` witness satisfies
    /// the equation and every variable's own domain.
    fn check_with(vars: &[Var], t: i64, mut budget: u64) -> Feas {
        let r = solve(vars, t, &mut budget);
        if let Feas::Yes(ref vals) = r {
            assert_eq!(vals.len(), vars.len(), "one value per input variable");
            let sum: i128 = vars.iter().zip(vals).map(|(v, &x)| v.coef as i128 * x as i128).sum();
            assert_eq!(sum, t as i128, "witness {vals:?} violates the equation {vars:?} = {t}");
            for (v, &x) in vars.iter().zip(vals) {
                assert!(v.dom.contains(x), "witness {x} outside {:?}", v.dom);
            }
        }
        r
    }

    #[test]
    fn trivial_cases() {
        assert_eq!(check(&[], 0), Feas::Yes(vec![]));
        assert_eq!(check(&[], 5), Feas::No);
        assert!(matches!(check(&[Var { coef: 3, dom: Dom::Range(0, 10) }], 9), Feas::Yes(_)));
        assert_eq!(check(&[Var { coef: 3, dom: Dom::Range(0, 10) }], 7), Feas::No);
        assert_eq!(check(&[Var { coef: 3, dom: Dom::Range(0, 2) }], 9), Feas::No);
    }

    #[test]
    fn empty_domain_is_infeasible() {
        assert_eq!(check(&[Var { coef: 1, dom: Dom::lanes(0) }], 0), Feas::No);
        assert_eq!(check(&[Var { coef: 1, dom: Dom::Range(3, 2) }], 0), Feas::No);
    }

    #[test]
    fn two_var_closed_form_over_huge_ranges() {
        // 32·x − 32·y = 64 with x, y in a million-wide box: x = y + 2.
        let vars = [
            Var { coef: 32, dom: Dom::Range(0, 1 << 20) },
            Var { coef: -32, dom: Dom::Range(0, 1 << 20) },
        ];
        assert!(matches!(check(&vars, 64), Feas::Yes(_)));
        // 32·x − 32·y = 31 is a parity miss no matter the ranges.
        assert_eq!(check(&vars, 31), Feas::No);
    }

    #[test]
    fn slab_partition_is_infeasible() {
        // The vecadd shape: 32·d + la − lb = 0 with d ≥ 1 and lanes in
        // [0, 32): the smallest positive value of 32·d + la − lb is 1.
        let vars = [
            Var { coef: 32, dom: Dom::Range(1, 100_000) },
            Var { coef: 1, dom: Dom::lanes(u64::MAX >> 32) },
            Var { coef: -1, dom: Dom::lanes(u64::MAX >> 32) },
        ];
        assert_eq!(check(&vars, 0), Feas::No);
    }

    #[test]
    fn overlapping_stride_found() {
        // 16·d + la − lb = 0, lanes in [0, 32): d = 1, la = 0, lb = 16.
        let vars = [
            Var { coef: 16, dom: Dom::Range(1, 100_000) },
            Var { coef: 1, dom: Dom::lanes(u64::MAX >> 32) },
            Var { coef: -1, dom: Dom::lanes(u64::MAX >> 32) },
        ];
        assert!(matches!(check(&vars, 0), Feas::Yes(_)));
    }

    #[test]
    fn masked_lane_domain_respected() {
        // Only lane 5 is active on either side: la − lb = 0 trivially,
        // but la − lb = 3 is impossible.
        let vars =
            [Var { coef: 1, dom: Dom::lanes(1 << 5) }, Var { coef: -1, dom: Dom::lanes(1 << 5) }];
        assert!(matches!(check(&vars, 0), Feas::Yes(_)));
        assert_eq!(check(&vars, 3), Feas::No);
        // A mask keeps exactly its lanes, holes included; a hole-free one
        // is an interval.
        assert_eq!(Dom::lanes(0b1011 << 3).values().collect::<Vec<_>>(), [3, 4, 6]);
        assert_eq!(Dom::lanes(0b111 << 5), Dom::Range(5, 7));
    }

    #[test]
    fn budget_exhaustion_is_maybe_not_no() {
        let vars = [
            Var { coef: 7, dom: Dom::Range(0, 4000) },
            Var { coef: 11, dom: Dom::lanes(u64::MAX) },
            Var { coef: -13, dom: Dom::lanes(u64::MAX) },
            Var { coef: 17, dom: Dom::lanes(u64::MAX) },
        ];
        let mut budget = 1;
        assert!(!matches!(solve(&vars, 1, &mut budget), Feas::No));
    }

    #[test]
    fn zero_coefficient_vars_get_witness_values() {
        let vars = [Var { coef: 0, dom: Dom::Range(4, 9) }, Var { coef: 2, dom: Dom::Range(0, 5) }];
        match check(&vars, 6) {
            Feas::Yes(vals) => assert_eq!(vals, vec![4, 3]),
            other => panic!("expected Yes, got {other:?}"),
        }
    }

    #[test]
    fn matmul_tile_shape_is_infeasible() {
        // (b·n)·Δy + n·Δt + b·d + Δl = 0 for the 128×128 tiled matmul
        // write: block y rows are n·b apart, loop rows n apart, block x
        // tiles b apart, lanes 1 apart — no combination collides.
        let (b, n) = (32i64, 128i64);
        let lanes = Dom::lanes(u64::MAX >> 32);
        let vars = [
            Var { coef: b * n, dom: Dom::Range(-3, 3) },
            Var { coef: n, dom: Dom::Range(0, 31) },
            Var { coef: -n, dom: Dom::Range(0, 31) },
            Var { coef: b, dom: Dom::Range(1, 3) },
            Var { coef: 1, dom: lanes },
            Var { coef: -1, dom: lanes },
        ];
        assert_eq!(check(&vars, 0), Feas::No);
    }

    /// A deterministic generator (SplitMix64) for the differential below.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform in `[lo, hi]`.
        fn range(&mut self, lo: i64, hi: i64) -> i64 {
            lo + (self.next() % (hi - lo + 1) as u64) as i64
        }
    }

    /// A small domain: an interval (negative bounds included), a
    /// contiguous lane mask, or a holed one anywhere in `[0, 64)` — or,
    /// when `wide`, sometimes an interval of 128 to 140 values (what a
    /// set merges with into an interval).
    fn domain(rng: &mut Rng, wide: bool) -> Dom {
        match rng.range(0, if wide { 3 } else { 2 }) {
            0 => {
                let lo = rng.range(-6, 4);
                Dom::Range(lo, lo + rng.range(0, 5))
            }
            1 => {
                let (lo, width) = (rng.range(0, 58), rng.range(1, 6));
                Dom::lanes(((1u64 << width) - 1) << lo)
            }
            2 => {
                // Half of them span the whole warp, so that merged sets
                // reach the 128-value limit.
                let mut mask = if rng.range(0, 1) == 0 { 1 | 1 << 63 } else { 0 };
                for _ in 0..rng.range(1, 6) {
                    mask |= 1 << rng.range(0, 63);
                }
                Dom::lanes(mask)
            }
            _ => {
                let lo = rng.range(-140, 10);
                Dom::Range(lo, lo + rng.range(127, 139))
            }
        }
    }

    fn values(dom: Dom) -> Vec<i64> {
        dom.values().collect()
    }

    /// Every assignment of `vars`, as the reference the solver is held to.
    fn enumerate(vars: &[Var], t: i64) -> bool {
        fn go(vars: &[Var], t: i128) -> bool {
            match vars.split_first() {
                None => t == 0,
                Some((v, rest)) => {
                    values(v.dom).into_iter().any(|x| go(rest, t - v.coef as i128 * x as i128))
                }
            }
        }
        go(vars, t as i128)
    }

    /// Random equations of up to five terms over small domains, with
    /// coefficients drawn from a pool small enough that zero, equal and
    /// opposite coefficients are common: every witness is checked, `No`
    /// is only ever said when enumeration finds nothing, and with the
    /// full budget the answer is enumeration's.
    #[test]
    fn projection_agrees_with_enumeration() {
        // Sets at the 128-value limit: two warp-spanning masks merge to a
        // set whose top value is 126, and one more value past it must
        // not be dropped.
        let edge = Dom::lanes(1 | 1 << 63);
        let limit = [Var { coef: 1, dom: edge }, Var { coef: 1, dom: edge }];
        let over = [limit[0], limit[1], Var { coef: 1, dom: Dom::Range(0, 2) }];
        for (vars, t) in [(&limit[..], 126), (&over[..], 128), (&over[..], 127)] {
            assert_eq!(
                matches!(check(vars, t), Feas::Yes(_)),
                enumerate(vars, t),
                "{vars:?} = {t}"
            );
        }
        let mut rng = Rng(0x5eed);
        let pool = [0, 1, -1, 2, -2, 3, -3, 5, -5, 64, -64];
        let (mut yes, mut no) = (0, 0);
        for case in 0..1500 {
            let n = rng.range(1, 5) as usize;
            // Wide intervals only in short equations, to keep enumeration
            // cheap.
            let vars: Vec<Var> = (0..n)
                .map(|_| Var {
                    coef: pool[rng.range(0, pool.len() as i64 - 1) as usize],
                    dom: domain(&mut rng, n <= 3),
                })
                .collect();
            // Half the targets come from an assignment (feasible) that
            // favours each domain's ends, half are arbitrary.
            let t = if rng.range(0, 1) == 0 {
                vars.iter()
                    .map(|v| {
                        let vals = values(v.dom);
                        let pick = match rng.range(0, 2) {
                            0 => 0,
                            1 => vals.len() - 1,
                            _ => rng.range(0, vals.len() as i64 - 1) as usize,
                        };
                        v.coef * vals[pick]
                    })
                    .sum()
            } else {
                rng.range(-40, 40)
            };
            let feasible = enumerate(&vars, t);
            match check(&vars, t) {
                Feas::Yes(_) => assert!(feasible),
                Feas::No => assert!(!feasible, "case {case}: {vars:?} = {t} proven infeasible"),
                Feas::Maybe => panic!("case {case}: {vars:?} = {t} undecided within budget"),
            }
            if feasible {
                yes += 1;
            } else {
                no += 1;
            }
            // Starved of budget the solver may give up, never lie.
            for budget in [1, 3, 10] {
                match check_with(&vars, t, budget) {
                    Feas::Yes(_) => assert!(feasible),
                    Feas::No => assert!(!feasible, "case {case} at budget {budget}"),
                    Feas::Maybe => {}
                }
            }
        }
        assert!(yes > 300 && no > 300, "both answers exercised: {yes} yes, {no} no");
    }
}
