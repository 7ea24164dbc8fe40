//! Operands, address expressions and predicates.
//!
//! Every expression is evaluated **per lane**: the `b` cores of an MP run
//! in lockstep, and an expression like `Lane + Block·b` produces `b`
//! different values, one per core.  Expressions may reference:
//!
//! * `Lane` — the core index `j ∈ [0, b)` within the MP (the paper's
//!   `c_{i,j}` subscript);
//! * `Block` — the thread-block index `i` (the paper's `mpᵢ` subscript on
//!   the perfect machine);
//! * `LoopVar(d)` — the zero-based iteration counter of the `d`-th
//!   enclosing [`crate::instr::Instr::Repeat`];
//! * `Reg(r)` — the lane's register `r`, enabling data-dependent
//!   addressing (histogram bins, gather/scatter).

use crate::Reg;
use std::fmt;
use std::ops::{Add, Mul, Sub};

/// A scalar operand of an ALU instruction or predicate, evaluated per lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// Lane register `r`.
    Reg(Reg),
    /// Immediate constant.
    Imm(i64),
    /// The lane index `j ∈ [0, b)`.
    Lane,
    /// The thread-block X index (for 1-D launches, *the* block index).
    Block,
    /// The thread-block Y index (0 for 1-D launches).
    BlockY,
    /// Iteration counter of the `d`-th enclosing loop (0 = outermost
    /// enclosing the reference).
    LoopVar(u8),
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "r{r}"),
            Operand::Imm(v) => write!(f, "{v}"),
            Operand::Lane => write!(f, "j"),
            Operand::Block => write!(f, "i"),
            Operand::BlockY => write!(f, "iy"),
            Operand::LoopVar(d) => write!(f, "t{d}"),
        }
    }
}

/// A per-lane integer address expression.
///
/// Build expressions with the arithmetic operators — `AddrExpr::lane() +
/// AddrExpr::block() * 32` — or the constructors.  The analyser and the
/// simulator never evaluate these trees directly on the hot path: the
/// [`crate::affine::lower`] pass compiles them into [`crate::AffineAddr`]
/// records first, falling back to tree interpretation only for genuinely
/// non-affine shapes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AddrExpr {
    /// Constant.
    Const(i64),
    /// Lane index `j`.
    Lane,
    /// Thread-block X index `i`.
    Block,
    /// Thread-block Y index (0 for 1-D launches).
    BlockY,
    /// Enclosing-loop iteration counter.
    LoopVar(u8),
    /// Lane register value (data-dependent addressing).
    Reg(Reg),
    /// Sum.
    Add(Box<AddrExpr>, Box<AddrExpr>),
    /// Difference.
    Sub(Box<AddrExpr>, Box<AddrExpr>),
    /// Product.
    Mul(Box<AddrExpr>, Box<AddrExpr>),
}

impl AddrExpr {
    /// The lane index `j`.
    pub fn lane() -> Self {
        AddrExpr::Lane
    }
    /// The block X index `i`.
    pub fn block() -> Self {
        AddrExpr::Block
    }
    /// The block Y index.
    pub fn block_y() -> Self {
        AddrExpr::BlockY
    }
    /// A constant.
    pub fn c(v: i64) -> Self {
        AddrExpr::Const(v)
    }
    /// The `d`-th enclosing loop counter.
    pub fn loop_var(d: u8) -> Self {
        AddrExpr::LoopVar(d)
    }
    /// A register value.
    pub fn reg(r: Reg) -> Self {
        AddrExpr::Reg(r)
    }

    /// Interprets the tree for one lane.  `block` is the `(x, y)` block
    /// index pair; `loops` holds the current iteration of each enclosing
    /// loop, outermost first; `read_reg` supplies register values (the
    /// analyser passes a closure that reports "unknown").
    pub fn eval(
        &self,
        lane: i64,
        block: (i64, i64),
        loops: &[u32],
        read_reg: &mut dyn FnMut(Reg) -> i64,
    ) -> i64 {
        match self {
            AddrExpr::Const(v) => *v,
            AddrExpr::Lane => lane,
            AddrExpr::Block => block.0,
            AddrExpr::BlockY => block.1,
            AddrExpr::LoopVar(d) => loops.get(*d as usize).copied().unwrap_or(0) as i64,
            AddrExpr::Reg(r) => read_reg(*r),
            AddrExpr::Add(a, b) => {
                a.eval(lane, block, loops, read_reg) + b.eval(lane, block, loops, read_reg)
            }
            AddrExpr::Sub(a, b) => {
                a.eval(lane, block, loops, read_reg) - b.eval(lane, block, loops, read_reg)
            }
            AddrExpr::Mul(a, b) => {
                a.eval(lane, block, loops, read_reg) * b.eval(lane, block, loops, read_reg)
            }
        }
    }

    /// Greatest `LoopVar` depth referenced, if any.
    pub fn max_loop_var(&self) -> Option<u8> {
        match self {
            AddrExpr::LoopVar(d) => Some(*d),
            AddrExpr::Add(a, b) | AddrExpr::Sub(a, b) | AddrExpr::Mul(a, b) => {
                match (a.max_loop_var(), b.max_loop_var()) {
                    (Some(x), Some(y)) => Some(x.max(y)),
                    (x, y) => x.or(y),
                }
            }
            _ => None,
        }
    }

    /// Greatest register index referenced, if any.
    pub fn max_reg(&self) -> Option<Reg> {
        match self {
            AddrExpr::Reg(r) => Some(*r),
            AddrExpr::Add(a, b) | AddrExpr::Sub(a, b) | AddrExpr::Mul(a, b) => {
                match (a.max_reg(), b.max_reg()) {
                    (Some(x), Some(y)) => Some(x.max(y)),
                    (x, y) => x.or(y),
                }
            }
            _ => None,
        }
    }
}

impl From<i64> for AddrExpr {
    fn from(v: i64) -> Self {
        AddrExpr::Const(v)
    }
}

macro_rules! impl_addr_op {
    ($trait:ident, $method:ident, $variant:ident) => {
        impl $trait for AddrExpr {
            type Output = AddrExpr;
            fn $method(self, rhs: AddrExpr) -> AddrExpr {
                AddrExpr::$variant(Box::new(self), Box::new(rhs))
            }
        }
        impl $trait<i64> for AddrExpr {
            type Output = AddrExpr;
            fn $method(self, rhs: i64) -> AddrExpr {
                AddrExpr::$variant(Box::new(self), Box::new(AddrExpr::Const(rhs)))
            }
        }
        impl $trait<AddrExpr> for i64 {
            type Output = AddrExpr;
            fn $method(self, rhs: AddrExpr) -> AddrExpr {
                AddrExpr::$variant(Box::new(AddrExpr::Const(self)), Box::new(rhs))
            }
        }
    };
}

impl_addr_op!(Add, add, Add);
impl_addr_op!(Sub, sub, Sub);
impl_addr_op!(Mul, mul, Mul);

impl fmt::Display for AddrExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AddrExpr::Const(v) => write!(f, "{v}"),
            AddrExpr::Lane => write!(f, "j"),
            AddrExpr::Block => write!(f, "i"),
            AddrExpr::BlockY => write!(f, "iy"),
            AddrExpr::LoopVar(d) => write!(f, "t{d}"),
            AddrExpr::Reg(r) => write!(f, "r{r}"),
            AddrExpr::Add(a, b) => write!(f, "({a} + {b})"),
            AddrExpr::Sub(a, b) => write!(f, "({a} - {b})"),
            AddrExpr::Mul(a, b) => write!(f, "{a}·{b}"),
        }
    }
}

/// A per-lane boolean predicate guarding a divergent region.
///
/// Predicates over `Lane`, `Block`, `LoopVar` and immediates are *static*:
/// the analyser can evaluate them without running the program.  Predicates
/// reading registers are data-dependent; the analyser then assumes the
/// model's worst case (all lanes take both paths — which the timing rule
/// charges anyway).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PredExpr {
    /// `a < b`.
    Lt(Operand, Operand),
    /// `a ≤ b`.
    Le(Operand, Operand),
    /// `a = b`.
    Eq(Operand, Operand),
    /// `a ≠ b`.
    Ne(Operand, Operand),
}

impl PredExpr {
    /// The two operands.
    pub fn operands(&self) -> (Operand, Operand) {
        match *self {
            PredExpr::Lt(a, b) | PredExpr::Le(a, b) | PredExpr::Eq(a, b) | PredExpr::Ne(a, b) => {
                (a, b)
            }
        }
    }

    /// True when no operand reads a register, so the predicate value is
    /// known from `(lane, block, loops)` alone.
    pub fn is_static(&self) -> bool {
        let (a, b) = self.operands();
        !matches!(a, Operand::Reg(_)) && !matches!(b, Operand::Reg(_))
    }

    /// Evaluates the predicate for one lane.
    pub fn eval(
        &self,
        lane: i64,
        block: (i64, i64),
        loops: &[u32],
        read_reg: &mut dyn FnMut(Reg) -> i64,
    ) -> bool {
        let ev = |op: Operand, read_reg: &mut dyn FnMut(Reg) -> i64| -> i64 {
            match op {
                Operand::Reg(r) => read_reg(r),
                Operand::Imm(v) => v,
                Operand::Lane => lane,
                Operand::Block => block.0,
                Operand::BlockY => block.1,
                Operand::LoopVar(d) => loops.get(d as usize).copied().unwrap_or(0) as i64,
            }
        };
        match self {
            PredExpr::Lt(a, b) => ev(*a, read_reg) < ev(*b, read_reg),
            PredExpr::Le(a, b) => ev(*a, read_reg) <= ev(*b, read_reg),
            PredExpr::Eq(a, b) => ev(*a, read_reg) == ev(*b, read_reg),
            PredExpr::Ne(a, b) => ev(*a, read_reg) != ev(*b, read_reg),
        }
    }
}

impl fmt::Display for PredExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PredExpr::Lt(a, b) => write!(f, "{a} < {b}"),
            PredExpr::Le(a, b) => write!(f, "{a} ≤ {b}"),
            PredExpr::Eq(a, b) => write!(f, "{a} = {b}"),
            PredExpr::Ne(a, b) => write!(f, "{a} ≠ {b}"),
        }
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
    fn eval_affine_combination() {
        // i*32 + j
        let e = AddrExpr::block() * 32 + AddrExpr::lane();
        assert_eq!(e.eval(5, (3, 0), &[], &mut no_regs), 101);
    }

    #[test]
    fn eval_loop_var() {
        let e = AddrExpr::loop_var(0) * 10 + AddrExpr::loop_var(1);
        assert_eq!(e.eval(0, (0, 0), &[4, 7], &mut no_regs), 47);
    }

    #[test]
    fn missing_loop_var_reads_zero() {
        let e = AddrExpr::loop_var(2);
        assert_eq!(e.eval(0, (0, 0), &[1], &mut no_regs), 0);
    }

    #[test]
    fn eval_register_indirect() {
        let e = AddrExpr::reg(3) + 100;
        let mut f = |r: Reg| {
            assert_eq!(r, 3);
            42
        };
        assert_eq!(e.eval(0, (0, 0), &[], &mut f), 142);
    }

    #[test]
    fn eval_subtraction() {
        let e = AddrExpr::lane() - 1;
        assert_eq!(e.eval(0, (0, 0), &[], &mut no_regs), -1);
    }

    #[test]
    fn scalar_on_left() {
        let e = 2 * AddrExpr::lane() + 1;
        assert_eq!(e.eval(10, (0, 0), &[], &mut no_regs), 21);
    }

    #[test]
    fn max_loop_var_finds_deepest() {
        let e = AddrExpr::loop_var(0) + AddrExpr::loop_var(2) * AddrExpr::lane();
        assert_eq!(e.max_loop_var(), Some(2));
        assert_eq!(AddrExpr::lane().max_loop_var(), None);
    }

    #[test]
    fn max_reg_finds_largest() {
        let e = AddrExpr::reg(3) + AddrExpr::reg(7);
        assert_eq!(e.max_reg(), Some(7));
        assert_eq!(AddrExpr::c(1).max_reg(), None);
    }

    #[test]
    fn pred_static_detection() {
        assert!(PredExpr::Lt(Operand::Lane, Operand::Imm(16)).is_static());
        assert!(!PredExpr::Lt(Operand::Reg(0), Operand::Imm(16)).is_static());
        assert!(!PredExpr::Eq(Operand::Lane, Operand::Reg(1)).is_static());
    }

    #[test]
    fn pred_eval_lane_guard() {
        let p = PredExpr::Lt(Operand::Lane, Operand::Imm(16));
        assert!(p.eval(15, (0, 0), &[], &mut no_regs));
        assert!(!p.eval(16, (0, 0), &[], &mut no_regs));
    }

    #[test]
    fn pred_eval_variants() {
        let mut f = |_: Reg| 5;
        assert!(PredExpr::Le(Operand::Imm(5), Operand::Reg(0)).eval(0, (0, 0), &[], &mut f));
        assert!(PredExpr::Eq(Operand::Reg(0), Operand::Imm(5)).eval(0, (0, 0), &[], &mut f));
        assert!(PredExpr::Ne(Operand::Reg(0), Operand::Imm(4)).eval(0, (0, 0), &[], &mut f));
    }

    #[test]
    fn pred_eval_loop_var_operand() {
        let p = PredExpr::Eq(Operand::LoopVar(0), Operand::Imm(2));
        assert!(p.eval(0, (0, 0), &[2], &mut no_regs));
        assert!(!p.eval(0, (0, 0), &[3], &mut no_regs));
    }

    #[test]
    fn display_expressions() {
        let e = AddrExpr::block() * 32 + AddrExpr::lane();
        assert_eq!(e.to_string(), "(i·32 + j)");
        let p = PredExpr::Lt(Operand::Lane, Operand::Imm(4));
        assert_eq!(p.to_string(), "j < 4");
    }
}
