//! The one walk over a kernel body, and the compile-time lane facts it
//! carries.
//!
//! [`walk`] is how the rest of the stack reads a kernel body: the
//! analyser's access-site collection (`atgpu_analyze::sites`, which the
//! analyser and every verifier analysis read) and the simulator's
//! lowering (`atgpu_sim::uop`) are both [`Visit`]ors of it.  The walk
//! owns the pre-order instruction numbering, the enclosing loops' trip
//! counts, the compile-time active-lane mask and two facts per register,
//! so every rule below is stated once, here, and its consumers cannot
//! disagree on which lanes run an access.
//!
//! Many kernels guard work with predicates whose truth value is a pure
//! function of the **lane index**: directly (`j < 16`), or through a
//! register that was itself computed from immediates and the lane index
//! only (`r ← j mod 2s; if r = 0 …` — the interleaved tree-reduction
//! test).  Such predicates fold to a constant active-lane mask at
//! compile time, identical for every thread block and loop iteration.
//! A known parent mask and a folded predicate give exact arm masks, a
//! parent with no lanes gives arms with none; anything else makes both
//! arms unknown.
//!
//! The walk tracks which registers currently hold **lane-pure** values —
//! written under a full mask from `Imm`/`Lane` operands and other
//! lane-pure registers — and folds predicates over them into masks.  The
//! second fact is **warp-uniform** — written under a full mask from
//! `Imm`/`Block`/`BlockY`/`LoopVar` operands and other warp-uniform
//! registers, so every lane holds the same value whenever the register
//! is read (scan's `1 << t`, gemv's `(b/2) >> t`), though the value may
//! differ between blocks and loop iterations.  The soundness rules, the
//! same for both facts, are:
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
//!   each);
//! * no lane runs a node under the mask `Some(0)` — the body of a
//!   zero-trip loop, or an arm no lane takes — so it changes no fact.
//!   Such nodes are still reported, so indices stay stable.
//!
//! What a walk costs: `O(b)` per node, and no allocation per node.  The
//! lane values live in one row store of `b` lanes per register, sized once
//! per walk for the highest register the body moves or computes into; the
//! lane-pure and warp-uniform facts are two 256-bit register sets.  An
//! ALU op or move on lane-pure operands computes one row of `b` lanes, and
//! a predicate folds by comparing its two operand rows into a mask.  The
//! only allocations are that store and the loop stack.

use crate::expr::{Operand, PredExpr};
use crate::instr::{AluOp, Instr};
use crate::Reg;

/// Where [`walk`] stands at one instruction node.
#[derive(Debug)]
pub struct At<'w> {
    /// Pre-order index: every node (including `Pred`/`Repeat` headers
    /// and `Sync`) consumes one, children numbered after their parent —
    /// the `N` of `kernel@instr#N`.
    pub instr: usize,
    /// Compile-time active-lane mask: `Some(m)` when every enclosing
    /// divergence arm folded (the runtime mask is then provably `m`),
    /// `None` under any data-, block- or loop-dependent predicate.
    pub mask: Option<u64>,
    /// For a `Pred` node, its predicate folded to a lane mask (before it
    /// meets `mask`); `None` otherwise.
    pub folded: Option<u64>,
    /// Trip counts of the enclosing loops, outermost first.
    pub loops: &'w [u32],
    lanes: &'w LaneValues,
}

impl At<'_> {
    /// True when every lane of register `r` holds the same value here.
    #[inline]
    pub fn is_uniform(&self, r: Reg) -> bool {
        self.lanes.is_uniform(r)
    }

    /// True when `op` provably has one value across the lanes here: it
    /// is warp-uniform, or lane-pure with every lane's value equal.
    pub fn same_in_every_lane(&self, op: Operand) -> bool {
        let lanes = self.lanes;
        let equal = |row: &[i64]| row.iter().all(|&v| v == row[0]);
        match op {
            Operand::Reg(r) => lanes.is_uniform(r) || has(&lanes.pure, r) && equal(lanes.row(r)),
            _ => lanes.operand_uniform(op),
        }
    }
}

/// A consumer of [`walk`].  Every `Pred` node is followed by its
/// then-arm, one [`Visit::else_arm`], its else-arm and one
/// [`Visit::end`]; every `Repeat` node by its body and one `end`.
pub trait Visit {
    /// One instruction node, in pre-order, seen before its own effect on
    /// the facts (an `LdShr`'s address reads its destination's old
    /// value).
    fn node(&mut self, at: &At<'_>, instr: &Instr);
    /// The then-arm of `pred`, the innermost open `Pred`, ended; its
    /// else-arm follows.
    fn else_arm(&mut self, _pred: &Instr) {}
    /// `node`, the innermost open `Pred` or `Repeat`, ended.
    fn end(&mut self, _node: &Instr) {}
}

impl<F: FnMut(&At<'_>, &Instr)> Visit for F {
    fn node(&mut self, at: &At<'_>, instr: &Instr) {
        self(at, instr)
    }
}

/// Walks `body` in program order for `b ≤ 64` lanes, reporting every
/// node to `visit` with the facts that hold there (see the module docs).
pub fn walk<V: Visit>(body: &[Instr], b: u32, visit: &mut V) {
    let lanes = LaneValues::new(b, rows_for(body));
    let mask = Some(lanes.full);
    Walker { lanes, loops: Vec::new(), mask, next: 0, visit }.body(body);
}

struct Walker<'v, V> {
    lanes: LaneValues,
    loops: Vec<u32>,
    mask: Option<u64>,
    next: usize,
    visit: &'v mut V,
}

impl<V: Visit> Walker<'_, V> {
    fn body(&mut self, body: &[Instr]) {
        for instr in body {
            let folded = match instr {
                Instr::Pred { pred, .. } => self.lanes.pred_mask(pred),
                _ => None,
            };
            let at = At {
                instr: self.next,
                mask: self.mask,
                folded,
                loops: &self.loops,
                lanes: &self.lanes,
            };
            self.visit.node(&at, instr);
            self.next += 1;
            let (full, runs) = (self.mask == Some(self.lanes.full), self.mask != Some(0));
            match instr {
                Instr::Alu { op, dst, a, b } if runs => {
                    self.lanes.record_alu(*op, *dst, *a, *b, full);
                }
                Instr::Mov { dst, src } if runs => self.lanes.record_mov(*dst, *src, full),
                Instr::LdShr { dst, .. } if runs => self.lanes.kill(*dst),
                Instr::Pred { then_body, else_body, .. } => {
                    let parent = self.mask;
                    let (then_mask, else_mask) = self.lanes.arm_masks(parent, folded);
                    self.mask = then_mask;
                    self.body(then_body);
                    self.visit.else_arm(instr);
                    self.mask = else_mask;
                    self.body(else_body);
                    self.visit.end(instr);
                    self.mask = parent;
                }
                Instr::Repeat { count, body } => {
                    let parent = self.mask;
                    if *count == 0 {
                        self.mask = Some(0);
                    } else if runs {
                        self.lanes.kill_written(body);
                    }
                    self.loops.push(*count);
                    self.body(body);
                    self.loops.pop();
                    self.visit.end(instr);
                    self.mask = parent;
                }
                _ => {}
            }
        }
    }
}

/// Per-register compile-time lane facts, written only by [`walk`]: one
/// row store over the `b` lanes and two register bitsets.
#[derive(Debug)]
struct LaneValues {
    b: usize,
    full: u64,
    /// Register `r`'s lanes are `rows[r·b..][..b]`, read only while `r`
    /// is in `pure`.
    rows: Vec<i64>,
    /// Lane-pure registers, one bit per `Reg`.
    pure: [u64; 4],
    /// Warp-uniform registers, one bit per `Reg`.
    uniform: [u64; 4],
}

/// Whether register `r` is in the bitset.
fn has(set: &[u64; 4], r: Reg) -> bool {
    set[r as usize / 64] >> (r % 64) & 1 == 1
}

/// Puts register `r` into the bitset, or takes it out.
fn put(set: &mut [u64; 4], r: Reg, on: bool) {
    let (word, bit) = (r as usize / 64, 1u64 << (r % 64));
    if on {
        set[word] |= bit;
    } else {
        set[word] &= !bit;
    }
}

/// Rows [`walk`] keeps for `body`: one per register up to the highest it
/// moves or computes into, the only writes that make a register
/// lane-pure.
fn rows_for(body: &[Instr]) -> usize {
    let rows = |i: &Instr| match i {
        Instr::Alu { dst, .. } | Instr::Mov { dst, .. } => usize::from(*dst) + 1,
        Instr::Pred { then_body, else_body, .. } => rows_for(then_body).max(rows_for(else_body)),
        Instr::Repeat { body, .. } => rows_for(body),
        _ => 0,
    };
    body.iter().map(rows).max().unwrap_or(0)
}

/// `out[l] ← op(x[l], y[l])`: one branch on `op`, then a lane loop with
/// the operation inlined.
fn alu_row(op: AluOp, x: &[i64], y: &[i64], out: &mut [i64]) {
    macro_rules! rows {
        ($($op:ident)*) => {
            match op {
                $(AluOp::$op => {
                    for ((o, &p), &q) in out.iter_mut().zip(x).zip(y) {
                        *o = AluOp::$op.apply(p, q);
                    }
                })*
            }
        };
    }
    rows!(Add Sub Mul Div Rem Min Max And Or Xor Shl Shr SetLt SetEq);
}

/// The lanes `l` where `holds(x[l], y[l])`, as a mask.
fn lanes_where(x: &[i64], y: &[i64], holds: impl Fn(i64, i64) -> bool) -> u64 {
    x.iter().zip(y).enumerate().fold(0, |m, (l, (&p, &q))| m | u64::from(holds(p, q)) << l)
}

impl LaneValues {
    /// A tracker for `b ≤ 64` lanes with rows for registers `0..regs`;
    /// all registers start unknown.
    fn new(b: u32, regs: usize) -> Self {
        debug_assert!((1..=64).contains(&b));
        let full = if b >= 64 { u64::MAX } else { (1u64 << b) - 1 };
        let b = b as usize;
        Self { b, full, rows: vec![0; regs * b], pure: [0; 4], uniform: [0; 4] }
    }

    fn is_uniform(&self, r: Reg) -> bool {
        has(&self.uniform, r)
    }

    fn operand_uniform(&self, op: Operand) -> bool {
        match op {
            Operand::Imm(_) | Operand::Block | Operand::BlockY | Operand::LoopVar(_) => true,
            Operand::Lane => false,
            Operand::Reg(r) => self.is_uniform(r),
        }
    }

    /// The lanes of a lane-pure register.
    fn row(&self, r: Reg) -> &[i64] {
        &self.rows[r as usize * self.b..][..self.b]
    }

    /// Writes `op`'s lanes into `out` when they are a compile-time
    /// function of the lane index alone: an immediate, the lane index or
    /// a lane-pure register.
    fn lanes_of(&self, op: Operand, out: &mut [i64; 64]) -> bool {
        let out = &mut out[..self.b];
        match op {
            Operand::Imm(v) => out.fill(v),
            Operand::Lane => out.iter_mut().zip(0..).for_each(|(slot, l)| *slot = l),
            Operand::Reg(r) if has(&self.pure, r) => out.copy_from_slice(self.row(r)),
            _ => return false,
        }
        true
    }

    /// Records `dst ← a op b`; `under_full_mask` says the write covers
    /// every lane (anything else forgets the register).
    fn record_alu(&mut self, op: AluOp, dst: Reg, a: Operand, b: Operand, under_full_mask: bool) {
        let (mut x, mut y) = ([0; 64], [0; 64]);
        let pure = under_full_mask && self.lanes_of(a, &mut x) && self.lanes_of(b, &mut y);
        if pure {
            let n = self.b;
            alu_row(op, &x[..n], &y[..n], &mut self.rows[dst as usize * n..][..n]);
        }
        put(&mut self.pure, dst, pure);
        let uniform = under_full_mask && self.operand_uniform(a) && self.operand_uniform(b);
        put(&mut self.uniform, dst, uniform);
    }

    /// Records `dst ← src` under the same rule as [`Self::record_alu`].
    fn record_mov(&mut self, dst: Reg, src: Operand, under_full_mask: bool) {
        let mut x = [0; 64];
        let pure = under_full_mask && self.lanes_of(src, &mut x);
        if pure {
            let n = self.b;
            self.rows[dst as usize * n..][..n].copy_from_slice(&x[..n]);
        }
        put(&mut self.pure, dst, pure);
        let uniform = under_full_mask && self.operand_uniform(src);
        put(&mut self.uniform, dst, uniform);
    }

    /// Forgets one register (a data-dependent or partial-mask write).
    fn kill(&mut self, dst: Reg) {
        put(&mut self.pure, dst, false);
        put(&mut self.uniform, dst, false);
    }

    /// Forgets every register `body` can write (a zero-trip loop writes
    /// none) — before a loop body is walked.
    fn kill_written(&mut self, body: &[Instr]) {
        for i in body {
            match i {
                Instr::Alu { dst, .. } | Instr::Mov { dst, .. } | Instr::LdShr { dst, .. } => {
                    self.kill(*dst);
                }
                Instr::Pred { then_body, else_body, .. } => {
                    self.kill_written(then_body);
                    self.kill_written(else_body);
                }
                Instr::Repeat { count, body } if *count > 0 => self.kill_written(body),
                _ => {}
            }
        }
    }

    /// The `(then, else)` arm masks under a `parent` mask of a predicate
    /// that folded to `folded`.
    fn arm_masks(&self, parent: Option<u64>, folded: Option<u64>) -> (Option<u64>, Option<u64>) {
        match (parent, folded) {
            (Some(0), _) => (Some(0), Some(0)),
            (Some(p), Some(m)) => (Some(p & m), Some(p & !m & self.full)),
            _ => (None, None),
        }
    }

    /// Folds a predicate whose operands are lane-pure (immediates, the
    /// lane index, or lane-pure registers) into a constant lane mask, by
    /// comparing its two operand rows.
    fn pred_mask(&self, pred: &PredExpr) -> Option<u64> {
        let (a, b) = pred.operands();
        let (mut x, mut y) = ([0; 64], [0; 64]);
        if !self.lanes_of(a, &mut x) || !self.lanes_of(b, &mut y) {
            return None;
        }
        let (x, y) = (&x[..self.b], &y[..self.b]);
        Some(match pred {
            PredExpr::Lt(..) => lanes_where(x, y, |p, q| p < q),
            PredExpr::Le(..) => lanes_where(x, y, |p, q| p <= q),
            PredExpr::Eq(..) => lanes_where(x, y, |p, q| p == q),
            PredExpr::Ne(..) => lanes_where(x, y, |p, q| p != q),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::AddrExpr;

    #[test]
    fn lane_imm_predicates_fold_without_registers() {
        let t = LaneValues::new(8, 256);
        assert_eq!(t.pred_mask(&PredExpr::Lt(Operand::Lane, Operand::Imm(3))), Some(0b111));
        assert_eq!(t.pred_mask(&PredExpr::Ne(Operand::Lane, Operand::Imm(0))), Some(0b1111_1110));
        assert_eq!(t.pred_mask(&PredExpr::Lt(Operand::Block, Operand::Imm(3))), None);
    }

    #[test]
    fn register_chains_stay_pure() {
        let mut t = LaneValues::new(8, 256);
        t.record_alu(AluOp::Rem, 2, Operand::Lane, Operand::Imm(4), true);
        assert_eq!(t.pred_mask(&PredExpr::Eq(Operand::Reg(2), Operand::Imm(0))), Some(0b0001_0001));
        // A chained op through the tracked register remains pure.
        t.record_alu(AluOp::Mul, 3, Operand::Reg(2), Operand::Imm(2), true);
        assert_eq!(t.pred_mask(&PredExpr::Eq(Operand::Reg(3), Operand::Imm(2))), Some(0b0010_0010));
    }

    #[test]
    fn partial_mask_and_loads_forget() {
        let mut t = LaneValues::new(8, 256);
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
        let mut t = LaneValues::new(8, 256);
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
        let mut t = LaneValues::new(8, 256);
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

    /// `r0 ← 0; for 0 { r0 ← 1 }; if r0 = 1 { _s[j] ← j }`: the dead loop
    /// changes no fact, its node is reported under mask 0, and the
    /// predicate folds to no lanes.
    #[test]
    fn a_zero_trip_loop_changes_no_fact() {
        let body = vec![
            Instr::Mov { dst: 0, src: Operand::Imm(0) },
            Instr::Repeat { count: 0, body: vec![Instr::Mov { dst: 0, src: Operand::Imm(1) }] },
            Instr::Pred {
                pred: PredExpr::Eq(Operand::Reg(0), Operand::Imm(1)),
                then_body: vec![Instr::st_shr(AddrExpr::lane(), Operand::Lane)],
                else_body: vec![],
            },
        ];
        let mut seen = Vec::new();
        walk(&body, 8, &mut |at: &At<'_>, _: &Instr| {
            seen.push((at.instr, at.mask, at.folded, at.loops.to_vec()));
        });
        let full = Some(0xFF);
        assert_eq!(
            seen,
            [
                (0, full, None, vec![]),
                (1, full, None, vec![]),
                (2, Some(0), None, vec![0]),
                (3, full, Some(0), vec![]),
                (4, Some(0), None, vec![]),
            ]
        );
    }

    /// Arms and loop bodies are bracketed by `else_arm` / `end` events.
    #[test]
    fn events_bracket_arms_and_bodies() {
        struct Log(String);
        impl Visit for Log {
            fn node(&mut self, at: &At<'_>, _: &Instr) {
                self.0 += &at.instr.to_string();
            }
            fn else_arm(&mut self, _: &Instr) {
                self.0 += "|";
            }
            fn end(&mut self, _: &Instr) {
                self.0 += ")";
            }
        }
        let sync = || Instr::Sync;
        let body = vec![
            Instr::Repeat {
                count: 2,
                body: vec![Instr::Pred {
                    pred: PredExpr::Lt(Operand::Lane, Operand::Imm(4)),
                    then_body: vec![sync()],
                    else_body: vec![sync(), sync()],
                }],
            },
            sync(),
        ];
        let mut log = Log(String::new());
        walk(&body, 8, &mut log);
        assert_eq!(log.0, "012|34))5");
    }
}
