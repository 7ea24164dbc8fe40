//! Compile-time lane-mask dataflow, shared by the analyser and the
//! simulator's micro-op compiler.
//!
//! Many kernels guard work with predicates whose truth value is a pure
//! function of the **lane index**: directly (`j < 16`), or through a
//! register that was itself computed from immediates and the lane index
//! only (`r ← j mod 2s; if r = 0 …` — the interleaved tree-reduction
//! test).  Such predicates fold to a constant active-lane mask at
//! compile time, identical for every thread block and loop iteration.
//!
//! [`LaneValues`] tracks which registers currently hold **lane-pure**
//! values — written under a full mask from `Imm`/`Lane` operands and
//! other lane-pure registers — and folds predicates over them into
//! masks.  It tracks one more fact per register: **warp-uniform** —
//! written under a full mask from `Imm`/`Block`/`BlockY`/`LoopVar`
//! operands and other warp-uniform registers, so every lane holds the
//! same value whenever the register is read (scan's `1 << t`, gemv's
//! `(b/2) >> t`), though the value may differ between blocks and loop
//! iterations.  Consumers walk the kernel body in program order and call
//! the `record_*`/`kill_*` hooks; the soundness rules, the same for both
//! facts, are:
//!
//! * a write under a partial or unknown mask forgets the register (its
//!   lanes now hold mixed values);
//! * a data-dependent write (shared-memory load, non-pure operand)
//!   forgets the register;
//! * before a loop body is entered, every register the body can write is
//!   forgotten — a write later in program order feeds reads at the top
//!   of iterations `2..n`, which a single in-order walk does not see.
//!   Values computed *within* the body from pure sources are the same in
//!   every iteration, so tracking inside the body stays valid (and a
//!   uniform value, though it changes with the iteration, is uniform in
//!   each).

use crate::expr::{Operand, PredExpr};
use crate::instr::Instr;
use crate::Reg;

/// Per-register compile-time lane values (see module docs).
#[derive(Debug, Clone)]
pub struct LaneValues {
    b: u32,
    full: u64,
    /// Indexed by the full `Reg` (u8) range.
    vals: Vec<Option<Box<[i64; 64]>>>,
    /// Warp-uniform registers, one bit per `Reg`.
    uniform: [u64; 4],
}

impl LaneValues {
    /// A tracker for `b ≤ 64` lanes; all registers start unknown.
    pub fn new(b: u32) -> Self {
        debug_assert!((1..=64).contains(&b));
        let full = if b >= 64 { u64::MAX } else { (1u64 << b) - 1 };
        Self { b, full, vals: vec![None; 256], uniform: [0; 4] }
    }

    /// True when every lane of register `r` holds the same value
    /// wherever the walk stands (see the module docs).
    #[inline]
    pub fn is_uniform(&self, r: Reg) -> bool {
        self.uniform[r as usize / 64] >> (r % 64) & 1 == 1
    }

    fn operand_uniform(&self, op: Operand) -> bool {
        match op {
            Operand::Imm(_) | Operand::Block | Operand::BlockY | Operand::LoopVar(_) => true,
            Operand::Lane => false,
            Operand::Reg(r) => self.is_uniform(r),
        }
    }

    fn set_uniform(&mut self, r: Reg, uniform: bool) {
        let (word, bit) = (r as usize / 64, 1u64 << (r % 64));
        if uniform {
            self.uniform[word] |= bit;
        } else {
            self.uniform[word] &= !bit;
        }
    }

    /// The all-lanes mask for this width.
    #[inline]
    pub fn full_mask(&self) -> u64 {
        self.full
    }

    /// Per-lane values of an operand, when they are a compile-time
    /// function of the lane index alone.
    pub fn operand_values(&self, op: Operand) -> Option<Box<[i64; 64]>> {
        match op {
            Operand::Imm(v) => Some(Box::new([v; 64])),
            Operand::Lane => {
                let mut vals = [0i64; 64];
                for (l, slot) in vals.iter_mut().enumerate() {
                    *slot = l as i64;
                }
                Some(Box::new(vals))
            }
            Operand::Reg(r) => self.vals[r as usize].clone(),
            _ => None,
        }
    }

    /// Records `dst ← a op b`; `under_full_mask` says the write covers
    /// every lane (anything else forgets the register).
    pub fn record_alu(
        &mut self,
        op: crate::instr::AluOp,
        dst: Reg,
        a: Operand,
        b: Operand,
        under_full_mask: bool,
    ) {
        let vals = if under_full_mask {
            self.operand_values(a).zip(self.operand_values(b)).map(|(va, vb)| {
                let mut out = Box::new([0i64; 64]);
                for (slot, (x, y)) in out.iter_mut().zip(va.iter().zip(vb.iter())) {
                    *slot = op.apply(*x, *y);
                }
                out
            })
        } else {
            None
        };
        self.vals[dst as usize] = vals;
        let uniform = under_full_mask && self.operand_uniform(a) && self.operand_uniform(b);
        self.set_uniform(dst, uniform);
    }

    /// Records `dst ← src` under the same rule as [`Self::record_alu`].
    pub fn record_mov(&mut self, dst: Reg, src: Operand, under_full_mask: bool) {
        self.vals[dst as usize] = if under_full_mask { self.operand_values(src) } else { None };
        self.set_uniform(dst, under_full_mask && self.operand_uniform(src));
    }

    /// Forgets one register (a data-dependent or partial-mask write).
    pub fn kill(&mut self, dst: Reg) {
        self.vals[dst as usize] = None;
        self.set_uniform(dst, false);
    }

    /// Forgets every register `body` can write — call before walking a
    /// loop body (see module docs).
    pub fn kill_written(&mut self, body: &[Instr]) {
        for i in body {
            match i {
                Instr::Alu { dst, .. } | Instr::Mov { dst, .. } | Instr::LdShr { dst, .. } => {
                    self.kill(*dst);
                }
                Instr::Pred { then_body, else_body, .. } => {
                    self.kill_written(then_body);
                    self.kill_written(else_body);
                }
                Instr::Repeat { body, .. } => self.kill_written(body),
                _ => {}
            }
        }
    }

    /// Combines a parent mask context with a folded predicate mask into
    /// the `(then, else)` arm contexts — the divergence rule every
    /// consumer (the analyser's site walker and the simulator's micro-op
    /// compiler) must apply identically: a known parent and a constant
    /// predicate give exact arm masks; anything else makes both arms
    /// unknown.
    pub fn arm_masks(
        &self,
        parent: Option<u64>,
        folded: Option<u64>,
    ) -> (Option<u64>, Option<u64>) {
        match (parent, folded) {
            (Some(p), Some(m)) => (Some(p & m), Some(p & !m & self.full)),
            _ => (None, None),
        }
    }

    /// Folds a predicate whose operands are lane-pure (immediates, the
    /// lane index, or tracked registers) into a constant lane mask.
    pub fn pred_mask(&self, pred: &PredExpr) -> Option<u64> {
        let (a, b) = pred.operands();
        let pure = |op: Operand| match op {
            Operand::Imm(_) | Operand::Lane => true,
            Operand::Reg(r) => self.vals[r as usize].is_some(),
            _ => false,
        };
        if !pure(a) || !pure(b) {
            return None;
        }
        let mut mask = 0u64;
        for lane in 0..self.b {
            let mut read =
                |r: Reg| self.vals[r as usize].as_ref().expect("lane-pure operand")[lane as usize];
            if pred.eval(i64::from(lane), (0, 0), &[], &mut read) {
                mask |= 1 << lane;
            }
        }
        Some(mask)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::AddrExpr;
    use crate::instr::AluOp;

    #[test]
    fn lane_imm_predicates_fold_without_registers() {
        let t = LaneValues::new(8);
        assert_eq!(t.pred_mask(&PredExpr::Lt(Operand::Lane, Operand::Imm(3))), Some(0b111));
        assert_eq!(t.pred_mask(&PredExpr::Ne(Operand::Lane, Operand::Imm(0))), Some(0b1111_1110));
        assert_eq!(t.pred_mask(&PredExpr::Lt(Operand::Block, Operand::Imm(3))), None);
    }

    #[test]
    fn register_chains_stay_pure() {
        let mut t = LaneValues::new(8);
        t.record_alu(AluOp::Rem, 2, Operand::Lane, Operand::Imm(4), true);
        assert_eq!(t.pred_mask(&PredExpr::Eq(Operand::Reg(2), Operand::Imm(0))), Some(0b0001_0001));
        // A chained op through the tracked register remains pure.
        t.record_alu(AluOp::Mul, 3, Operand::Reg(2), Operand::Imm(2), true);
        assert_eq!(t.pred_mask(&PredExpr::Eq(Operand::Reg(3), Operand::Imm(2))), Some(0b0010_0010));
    }

    #[test]
    fn partial_mask_and_loads_forget() {
        let mut t = LaneValues::new(8);
        t.record_mov(0, Operand::Imm(1), true);
        assert!(t.pred_mask(&PredExpr::Eq(Operand::Reg(0), Operand::Imm(1))).is_some());
        t.record_mov(0, Operand::Imm(2), false); // divergent write
        assert!(t.pred_mask(&PredExpr::Eq(Operand::Reg(0), Operand::Imm(1))).is_none());
        t.record_mov(1, Operand::Lane, true);
        t.kill(1);
        assert!(t.pred_mask(&PredExpr::Eq(Operand::Reg(1), Operand::Imm(0))).is_none());
    }

    #[test]
    fn uniform_registers_follow_the_same_rules() {
        let mut t = LaneValues::new(8);
        // Scan's `1 << t` and gemv's `(b/2) >> t`: uniform, not lane-pure.
        t.record_alu(AluOp::Shl, 0, Operand::Imm(1), Operand::LoopVar(0), true);
        t.record_alu(AluOp::Shr, 1, Operand::Imm(4), Operand::Reg(0), true);
        assert!(t.is_uniform(0) && t.is_uniform(1));
        assert!(t.pred_mask(&PredExpr::Le(Operand::Reg(0), Operand::Lane)).is_none());
        t.record_alu(AluOp::Add, 2, Operand::Reg(0), Operand::Block, true);
        assert!(t.is_uniform(2));
        // A lane operand, a partial-mask write, a load or a loop body
        // that writes the register forgets it.
        t.record_alu(AluOp::Add, 3, Operand::Reg(0), Operand::Lane, true);
        t.record_mov(2, Operand::Imm(1), false);
        t.kill(1);
        assert!(!t.is_uniform(3) && !t.is_uniform(2) && !t.is_uniform(1));
        t.kill_written(&[Instr::Repeat {
            count: 2,
            body: vec![Instr::Mov { dst: 0, src: Operand::Imm(1) }],
        }]);
        assert!(!t.is_uniform(0));
        t.record_mov(200, Operand::Imm(7), true);
        assert!(t.is_uniform(200));
    }

    #[test]
    fn kill_written_walks_nested_bodies() {
        let mut t = LaneValues::new(8);
        t.record_mov(0, Operand::Imm(1), true);
        t.record_mov(1, Operand::Imm(1), true);
        let body = vec![Instr::Repeat {
            count: 2,
            body: vec![Instr::Pred {
                pred: PredExpr::Lt(Operand::Lane, Operand::Imm(4)),
                then_body: vec![Instr::ld_shr(0, AddrExpr::lane())],
                else_body: vec![],
            }],
        }];
        t.kill_written(&body);
        assert!(t.pred_mask(&PredExpr::Eq(Operand::Reg(0), Operand::Imm(1))).is_none());
        assert!(t.pred_mask(&PredExpr::Eq(Operand::Reg(1), Operand::Imm(1))).is_some());
    }
}
