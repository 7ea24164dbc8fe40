//! The micro-op block executor: runs a [`CompiledKernel`] with **zero
//! heap allocations per instruction** in steady state.
//!
//! ```text
//!            compile (once per launch)              execute (per block)
//!  Kernel ────────────────────────────► CompiledKernel ───────────────► StepEvents
//!  (Instr tree: Repeat/Pred nesting)    (flat Vec<Uop>,                 (same stream as
//!                                        jump offsets,                   the tree-walking
//!                                        per-site shapes)                reference)
//! ```
//!
//! Design points:
//!
//! * flat program counter + a fixed-capacity arm stack instead of the
//!   reference interpreter's per-instruction frame walk;
//! * **an instruction costs its row, not its lanes.**  The model's warp
//!   issues one `b`-lane step whatever its mask, and so does the
//!   executor: an ALU op or a move computes the whole span from the
//!   lowest to the highest active lane (`AluOp::apply` is total, so the
//!   inactive lanes in it are harmless) — straight into the destination
//!   row when the span is all active, registers read where they lie —
//!   and otherwise blends the span in by the mask, branch-free; a branch
//!   predicate is two operand rows compared into mask bits; an access
//!   whose address is affine with a warp-uniform offset ([`FastPath`]
//!   other than `Dynamic`) is bounds-checked once, at its lowest and
//!   highest active lane — the addresses are monotone in the lane — and
//!   then moved in one gather or scatter pass;
//! * lane by lane only where the addresses vary by register or are trees,
//!   or where an end of the row is out of bounds — then the lane-ordered
//!   walk reports the first offending lane, as the reference does;
//! * a row is costed from the row: its transactions and bank degree are
//!   the closed forms of [`atgpu_ir::affine`] in its first address,
//!   stride and active lanes (a shared site's degree under its
//!   compile-time mask is read from the site) — the per-lane fallbacks
//!   use fixed `[_; 64]` scratch: generation-stamped per-bank counters
//!   and lane chains, and a short list of distinct block indices (no
//!   `Vec`, no sort, no dedup).
//!
//! Timing has one source: every access's event is computed from its
//! row (or the per-lane fallback) as it executes, by the same rules the
//! analyser and the verifier read.  Stepping does not panic: the module
//! denies the panicking calls.
//!
//! # Who owns what
//!
//! A [`BlockExec`] is what one resident block *is*: its registers, shared
//! memory, program counter, mask, arm stack and loop counters — ≈ 145
//! bytes plus its two heap rows.  It holds no kernel: every
//! [`BlockSim::reset`] and [`BlockSim::step`] is handed the launch's
//! [`CompiledKernel`], and `reset` re-fits the register and shared rows to
//! it, so one executor serves any launch (a [`crate::Device`] keeps its
//! executors from launch to launch).  What lives for one instruction only
//! — address and value rows, operand rows, the dynamic conflict path's
//! bank counters and lane chains, ≈ 2.8 KB — is a [`Scratch`]: each
//! multiprocessor owns one and lends it to the step of whichever resident
//! issues, so residents neither carry nor zero-fill a copy each.
//!
//! The executor is bit-exact with [`crate::warp::WarpExec`] — same
//! register/memory state, same `StepEvent` stream — which the
//! differential property tests in `tests/engine_differential.rs` enforce.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use crate::error::SimError;
use crate::smem::SharedMemory;
use crate::uop::{CompiledKernel, FastPath, Site, SiteAddr, Uop};
use crate::warp::{GmemAccess, StepEvent};
use atgpu_ir::affine::{masked_conflict_degree, masked_span_blocks, AffineAddr};
use atgpu_ir::{AluOp, Operand, PredExpr, Reg, MAX_LOOP_DEPTH};

/// Common interface of the two block executors (micro-op engine and
/// tree-walking reference), so the multiprocessor scheduler can drive
/// either.
pub trait BlockSim {
    /// What a launch hands every call: the compiled kernel for the
    /// micro-op engine, `()` for an executor that holds its own program.
    type Kernel: ?Sized;
    /// Rows that live for one instruction.  A multiprocessor owns one and
    /// lends it to every step of its residents; `()` for an executor that
    /// keeps its own.
    type Scratch: Default;
    /// Re-arms the executor for thread block `block` of `kernel`'s launch.
    fn reset(&mut self, kernel: &Self::Kernel, block: u64);
    /// Executes the next instruction; returns its timing event.
    fn step(
        &mut self,
        kernel: &Self::Kernel,
        scratch: &mut Self::Scratch,
        gmem: &mut GmemAccess<'_>,
    ) -> Result<StepEvent, SimError>;
}

impl BlockSim for crate::warp::WarpExec<'_> {
    type Kernel = ();
    type Scratch = ();
    fn reset(&mut self, _: &(), block: u64) {
        crate::warp::WarpExec::reset(self, block);
    }
    fn step(
        &mut self,
        _: &(),
        _: &mut (),
        gmem: &mut GmemAccess<'_>,
    ) -> Result<StepEvent, SimError> {
        crate::warp::WarpExec::step(self, gmem)
    }
}

/// An affine access checked against its memory: the active lanes lie in
/// `lo..=hi`, lane `l` addresses `start + stride·(l − lo)`, and every
/// such address of the span is inside the memory.
#[derive(Clone, Copy)]
struct Row {
    stride: i64,
    /// The address of lane `lo`.
    start: usize,
    lo: usize,
    hi: usize,
}

impl Row {
    /// The address of lane `lo + j`.
    #[inline]
    fn word(&self, j: usize) -> usize {
        (self.start as i64 + self.stride * j as i64) as usize
    }

    /// The address of active lane `lane`.
    #[inline]
    fn addr(&self, lane: usize) -> i64 {
        self.word(lane - self.lo) as i64
    }

    /// True when every lane of `lo..=hi` is active in `mask`.
    #[inline]
    fn dense(&self, mask: u64) -> bool {
        dense(mask >> self.lo)
    }
}

/// How a site's lane addresses are materialised for one access.
#[derive(Clone, Copy)]
enum AddrPlan {
    /// One in-bounds row of affine addresses.
    Row(Row),
    /// `addr_buf[lane]` holds each active lane's address.
    PerLane,
}

impl AddrPlan {
    /// The lowest and highest address the active lanes of `mask` name
    /// (`addrs` holds them per lane when there is no row).
    #[inline]
    fn span(self, mask: u64, addrs: &[i64; 64]) -> (i64, i64) {
        match self {
            AddrPlan::Row(row) => {
                let (first, last) = (row.start as i64, row.addr(row.hi));
                (first.min(last), first.max(last))
            }
            AddrPlan::PerLane => lanes(mask)
                .map(|lane| addrs[lane])
                .fold((i64::MAX, i64::MIN), |(lo, hi), a| (lo.min(a), hi.max(a))),
        }
    }
}

/// The active lanes of `mask`, ascending.
#[inline]
fn lanes(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let lane = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            lane
        })
    })
}

/// The lowest and highest active lane of a non-empty mask.
#[inline]
fn lane_span(mask: u64) -> (usize, usize) {
    let hi = 63 - mask.leading_zeros().min(63);
    (mask.trailing_zeros().min(hi) as usize, hi as usize)
}

/// `a` when `bit` is 1, `b` when it is 0, without a branch.
#[inline]
fn select(bit: u64, a: i64, b: i64) -> i64 {
    let keep = (bit as i64).wrapping_sub(1); // 0 takes `a`, all ones keeps `b`
    (a & !keep) | (b & keep)
}

/// `dst[l] ← src[l]` for each active lane `l` of `mask` (lane-indexed
/// rows): [`blend`] over the span from the lowest to the highest.
#[inline]
fn blend_lanes(dst: &mut [i64], src: &[i64], mask: u64) {
    let (lo, hi) = lane_span(mask);
    blend(&mut dst[lo..=hi], &src[lo..=hi], mask >> lo);
}

/// `dst[i] ← src[i]` for each set bit `i` of `bits`: a plain copy when
/// every bit of the slice is set, a branch-free select otherwise.
#[inline]
fn blend(dst: &mut [i64], src: &[i64], mut bits: u64) {
    if dense(bits) {
        dst.copy_from_slice(src);
        return;
    }
    for (d, &v) in dst.iter_mut().zip(src) {
        *d = select(bits & 1, v, *d);
        bits >>= 1;
    }
}

/// True when the set bits of `bits` are `0..k` for some `k`.
#[inline]
fn dense(bits: u64) -> bool {
    bits & bits.wrapping_add(1) == 0
}

/// Reads lanes `lo..=hi` of `row` from `words` into `out[lo..=hi]`.
#[inline]
fn gather(words: &[i64], row: Row, out: &mut [i64]) {
    let out = &mut out[row.lo..=row.hi];
    match row.stride {
        0 => out.fill(words[row.start]),
        1 => out.copy_from_slice(&words[row.start..][..out.len()]),
        _ => {
            for (j, slot) in out.iter_mut().enumerate() {
                *slot = words[row.word(j)];
            }
        }
    }
}

/// Writes the active lanes of `src` (lane-indexed) to `row` of `words`.
#[inline]
fn scatter(words: &mut [i64], row: Row, src: &[i64], mask: u64) {
    let (vals, mut bits) = (&src[row.lo..=row.hi], mask >> row.lo);
    match row.stride {
        // Every active lane writes the one word, in lane order: the
        // highest one's value stays.
        0 => words[row.start] = vals[vals.len() - 1],
        1 => blend(&mut words[row.start..][..vals.len()], vals, bits),
        _ => {
            for (j, &v) in vals.iter().enumerate() {
                let w = &mut words[row.word(j)];
                *w = select(bits & 1, v, *w);
                bits >>= 1;
            }
        }
    }
}

/// Reads the words `plan` addresses into `s.val_buf` for the active
/// lanes; `Err` is the first out-of-bounds address in lane order.
#[inline(always)]
fn read(words: &[i64], plan: AddrPlan, mask: u64, s: &mut Scratch) -> Result<(), i64> {
    match plan {
        AddrPlan::Row(row) => gather(words, row, &mut s.val_buf),
        AddrPlan::PerLane => {
            for lane in lanes(mask) {
                let addr = s.addr_buf[lane];
                s.val_buf[lane] =
                    *usize::try_from(addr).ok().and_then(|a| words.get(a)).ok_or(addr)?;
            }
        }
    }
    Ok(())
}

/// Writes the active lanes of `src` (lane-indexed) to the words `plan`
/// addresses, in lane order; `Err` is the first out-of-bounds address.
#[inline(always)]
fn write(
    words: &mut [i64],
    plan: AddrPlan,
    src: &[i64],
    mask: u64,
    addrs: &[i64; 64],
) -> Result<(), i64> {
    match plan {
        AddrPlan::Row(row) => scatter(words, row, src, mask),
        AddrPlan::PerLane => {
            for lane in lanes(mask) {
                let addr = addrs[lane];
                *usize::try_from(addr).ok().and_then(|a| words.get_mut(a)).ok_or(addr)? = src[lane];
            }
        }
    }
    Ok(())
}

/// Moves the active lanes' values of `from` — a row of `src`, or
/// `s.val_buf` when it is per lane — to the words `to` addresses in
/// `dst`; `Err` is the first out-of-bounds address of `to`.  Two dense
/// unit-stride rows are one copy.
#[inline(always)]
fn move_lanes(
    src: &[i64],
    from: AddrPlan,
    dst: &mut [i64],
    to: AddrPlan,
    mask: u64,
    s: &mut Scratch,
) -> Result<(), i64> {
    match (from, to) {
        (AddrPlan::Row(f), AddrPlan::Row(t)) if f.stride == 1 && t.stride == 1 && f.dense(mask) => {
            let n = f.hi - f.lo + 1;
            dst[t.start..][..n].copy_from_slice(&src[f.start..][..n]);
            Ok(())
        }
        _ => {
            if let AddrPlan::Row(f) = from {
                gather(src, f, &mut s.val_buf);
            }
            write(dst, to, &s.val_buf, mask, &s.addr_buf)
        }
    }
}

/// One operand row of [`alu_row`]: a row of its own, or the output row
/// itself (each lane read before it is written).
#[derive(Clone, Copy)]
enum Arg<'a> {
    Row(&'a [i64]),
    Out,
}

impl<'a> Arg<'a> {
    /// Operand `x` of an op writing register row `d` of a register file
    /// (rows of `n` lanes) split around that row into `before` and
    /// `after`: another register's row in place, row `d` itself as
    /// [`Arg::Out`], any other operand from its row in `buf`.
    fn of(
        x: Operand,
        d: usize,
        n: usize,
        (before, after): (&'a [i64], &'a [i64]),
        buf: &'a [i64],
    ) -> Self {
        match x {
            Operand::Reg(r) if (r as usize) < d => Arg::Row(&before[r as usize * n..][..n]),
            Operand::Reg(r) if r as usize == d => Arg::Out,
            Operand::Reg(r) => Arg::Row(&after[(r as usize - d - 1) * n..][..n]),
            _ => Arg::Row(&buf[..n]),
        }
    }

    /// Lanes `lo..=hi` of the operand.
    fn span(self, lo: usize, hi: usize) -> Self {
        match self {
            Arg::Row(row) => Arg::Row(&row[lo..=hi]),
            Arg::Out => Arg::Out,
        }
    }
}

/// `out[i] ← f(a[i], b[i])`, one tight (vectorisable) loop per operand
/// shape.
#[inline(always)]
fn apply_rows(out: &mut [i64], a: Arg<'_>, b: Arg<'_>, f: impl Fn(i64, i64) -> i64) {
    match (a, b) {
        (Arg::Row(a), Arg::Row(b)) => {
            for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
                *o = f(x, y);
            }
        }
        (Arg::Out, Arg::Row(b)) => {
            for (o, &y) in out.iter_mut().zip(b) {
                *o = f(*o, y);
            }
        }
        (Arg::Row(a), Arg::Out) => {
            for (o, &x) in out.iter_mut().zip(a) {
                *o = f(x, *o);
            }
        }
        (Arg::Out, Arg::Out) => {
            for o in out.iter_mut() {
                *o = f(*o, *o);
            }
        }
    }
}

/// `out[i] ← op(a[i], b[i])` over whole rows: one branch on `op`, then a
/// lane loop with the operation inlined.
fn alu_row(op: AluOp, a: Arg<'_>, b: Arg<'_>, out: &mut [i64]) {
    macro_rules! rows {
        ($($op:ident)*) => {
            match op {
                $(AluOp::$op => apply_rows(out, a, b, |x, y| AluOp::$op.apply(x, y)),)*
            }
        };
    }
    rows!(Add Sub Mul Div Rem Min Max And Or Xor Shl Shr SetLt SetEq);
}

/// The rows one instruction works in (see the module docs): one per
/// multiprocessor, lent to the step of whichever resident issues.
pub struct Scratch {
    /// Each active lane's address ([`AddrPlan::PerLane`]).
    addr_buf: [i64; 64],
    /// Each active lane's value on its way between memories, and an ALU
    /// op's result row on its way to the destination register.
    val_buf: [i64; 64],
    // Operand rows of ALU ops and predicates that are not registers
    // (avoids zero-initialising stack arrays per op).
    op_a: [i64; 64],
    op_b: [i64; 64],
    // Generation-stamped bank counters for the dynamic conflict path,
    // and the per-bank chains of lanes holding its distinct addresses:
    // `bank_head[bank]` is the latest such lane, `lane_prev[lane]` the one
    // before it (`bank_count[bank]` links are valid).
    bank_count: [u16; 64],
    bank_gen: [u64; 64],
    bank_head: [u8; 64],
    lane_prev: [u8; 64],
    gen: u64,
}

impl Default for Scratch {
    fn default() -> Self {
        Self {
            addr_buf: [0; 64],
            val_buf: [0; 64],
            op_a: [0; 64],
            op_b: [0; 64],
            bank_count: [0; 64],
            bank_gen: [0; 64],
            bank_head: [0; 64],
            lane_prev: [0; 64],
            gen: 0,
        }
    }
}

impl Scratch {
    /// Dynamic conflict degree on `b` banks: max distinct addresses in
    /// any one bank among the active lanes of `addr_buf`.
    /// Allocation-free: the lanes holding a bank's distinct addresses are
    /// chained through `bank_head` / `lane_prev` (generation-stamped with
    /// the counters), so a lane is compared only with the addresses
    /// already in its own bank — equal addresses share a bank, and a
    /// same-address lane broadcasts.
    fn conflict_degree(&mut self, mask: u64, b: u32) -> u32 {
        let banks = i64::from(b);
        self.gen += 1;
        let gen = self.gen;
        let mut degree = 1u16;
        for lane in lanes(mask) {
            let addr = self.addr_buf[lane];
            let bank = addr.rem_euclid(banks) as usize;
            let count = if self.bank_gen[bank] == gen { self.bank_count[bank] } else { 0 };
            let mut earlier = self.bank_head[bank] as usize;
            let mut dup = false;
            for _ in 0..count {
                if self.addr_buf[earlier] == addr {
                    dup = true;
                    break;
                }
                earlier = self.lane_prev[earlier] as usize;
            }
            if dup {
                continue;
            }
            self.lane_prev[lane] = self.bank_head[bank];
            self.bank_head[bank] = lane as u8;
            self.bank_gen[bank] = gen;
            self.bank_count[bank] = count + 1;
            degree = degree.max(count + 1);
        }
        u32::from(degree)
    }

    /// Distinct `b`-word memory blocks among the active lanes' addresses
    /// in `addr_buf`, without the monotonicity guarantee.
    /// Allocation-free: each lane's block index is computed once and
    /// looked up in the list of distinct ones so far (kept in the `op_a`
    /// row, idle during a memory instruction), most recent first —
    /// neighbouring lanes mostly share a block.
    fn distinct_blocks(&mut self, mask: u64, b: u32) -> u32 {
        let bw = i64::from(b);
        let distinct = &mut self.op_a;
        let mut txns = 0usize;
        for lane in lanes(mask) {
            let q = self.addr_buf[lane].div_euclid(bw);
            if !distinct[..txns].iter().rev().any(|&seen| seen == q) {
                distinct[txns] = q;
                txns += 1;
            }
        }
        txns as u32
    }
}

/// One open divergence construct.
#[derive(Clone, Copy)]
struct Arm {
    /// The mask to restore at the join.
    parent: u64,
    /// The else-arm's mask still to run (0 when none).
    pending: u64,
}

/// Executes one thread block over the flat micro-op program.
pub struct BlockExec {
    /// Linear thread-block index.
    pub block: u64,
    block_xy: (i64, i64),
    b: u32,
    full_mask: u64,
    regs: Vec<i64>,
    pc: u32,
    cur_mask: u64,
    /// One entry per open divergence construct.
    arms: Vec<Arm>,
    loops: [u32; MAX_LOOP_DEPTH],
    /// The block's shared memory.
    pub smem: SharedMemory,
}

/// The active-lane mask of a full `b`-lane warp.
fn full_mask(b: u32) -> u64 {
    if b >= 64 {
        u64::MAX
    } else {
        (1u64 << b) - 1
    }
}

impl BlockExec {
    /// Creates an executor sized for `ck`'s launches (any other kernel's
    /// [`BlockSim::reset`] re-fits it).
    pub fn new(ck: &CompiledKernel) -> Self {
        let b = ck.b;
        Self {
            block: 0,
            block_xy: (0, 0),
            b,
            full_mask: full_mask(b),
            regs: vec![0; ck.nregs as usize * b as usize],
            pc: 0,
            cur_mask: full_mask(b),
            arms: Vec::with_capacity(ck.max_arm_depth),
            loops: [0; MAX_LOOP_DEPTH],
            smem: SharedMemory::new(ck.shared_words, u64::from(b)),
        }
    }

    /// The per-lane register file, laid out `reg-major` (`r·b + lane`) —
    /// exposed for differential testing against the reference.
    pub fn regs(&self) -> &[i64] {
        &self.regs
    }

    #[inline]
    fn reg(&self, r: Reg, lane: usize) -> i64 {
        self.regs[r as usize * self.b as usize + lane]
    }

    /// Fills `out[0..b]` with an operand's value for every lane.
    fn operand_row_into(&self, op: Operand, out: &mut [i64; 64]) {
        let b = self.b as usize;
        match op {
            Operand::Reg(r) => {
                out[..b].copy_from_slice(&self.regs[r as usize * b..r as usize * b + b])
            }
            Operand::Imm(v) => out[..b].fill(v),
            Operand::Lane => {
                for (i, slot) in out[..b].iter_mut().enumerate() {
                    *slot = i as i64;
                }
            }
            Operand::Block => out[..b].fill(self.block_xy.0),
            Operand::BlockY => out[..b].fill(self.block_xy.1),
            Operand::LoopVar(d) => {
                out[..b].fill(self.loops.get(d as usize).copied().unwrap_or(0) as i64)
            }
        }
    }

    /// An operand's value in every lane: a register's own row, any other
    /// operand written into `buf`.
    #[inline]
    fn operand_row<'a>(&'a self, op: Operand, buf: &'a mut [i64; 64]) -> &'a [i64] {
        let b = self.b as usize;
        match op {
            Operand::Reg(r) => &self.regs[r as usize * b..][..b],
            _ => {
                self.operand_row_into(op, buf);
                &buf[..b]
            }
        }
    }

    /// The lanes (of all `b`) where `pred` holds: its two operand rows
    /// compared into mask bits.
    fn pred_mask(&self, pred: &PredExpr, s: &mut Scratch) -> u64 {
        fn bits(a: &[i64], b: &[i64], holds: impl Fn(i64, i64) -> bool) -> u64 {
            a.iter().zip(b).enumerate().fold(0, |m, (i, (&x, &y))| m | u64::from(holds(x, y)) << i)
        }
        let (a, b) = pred.operands();
        let (ra, rb) = (self.operand_row(a, &mut s.op_a), self.operand_row(b, &mut s.op_b));
        match pred {
            PredExpr::Lt(..) => bits(ra, rb, |x, y| x < y),
            PredExpr::Le(..) => bits(ra, rb, |x, y| x <= y),
            PredExpr::Eq(..) => bits(ra, rb, |x, y| x == y),
            PredExpr::Ne(..) => bits(ra, rb, |x, y| x != y),
        }
    }

    /// Pops the innermost divergence construct; returns the mask to
    /// restore.  The lowering keeps the stack balanced — the top level
    /// runs under the full mask.
    fn pop_arm(&mut self) -> u64 {
        self.arms.pop().map_or(self.full_mask, |arm| arm.parent)
    }

    fn oob_shared(&self, ck: &CompiledKernel, addr: i64) -> SimError {
        SimError::SharedOutOfBounds { kernel: ck.name.clone(), addr, size: self.smem.len() }
    }

    fn oob_global(ck: &CompiledKernel, addr: i64, size: u64) -> SimError {
        SimError::GlobalOutOfBounds { kernel: ck.name.clone(), addr, size }
    }

    /// Resolves a site's lane addresses for one access against `len`
    /// words of memory: an in-bounds [`Row`] when the address is affine
    /// with a warp-uniform offset, each active lane's address in
    /// `s.addr_buf` otherwise.
    #[inline(always)]
    fn plan_addrs(&self, site: &Site, mask: u64, len: u64, s: &mut Scratch) -> AddrPlan {
        match &site.addr {
            SiteAddr::Affine(a) => {
                let folded = a.fold_warp(self.block_xy, &self.loops);
                if site.fast != FastPath::Dynamic {
                    if let Some(row) = self.row(a, folded, mask, len) {
                        return AddrPlan::Row(row);
                    }
                }
                for lane in lanes(mask) {
                    s.addr_buf[lane] = a.lane_addr(folded, lane as i64, |r| self.reg(r, lane));
                }
            }
            SiteAddr::Tree(t) => {
                for lane in lanes(mask) {
                    let mut read = |r: Reg| self.reg(r, lane);
                    s.addr_buf[lane] =
                        t.eval(lane as i64, self.block_xy, &self.loops, &mut read) + site.gbase;
                }
            }
        }
        AddrPlan::PerLane
    }

    /// The row of an affine access with a warp-uniform offset, when its
    /// lowest and highest active lane address `len` words of memory —
    /// the addresses are monotone in the lane, so every active lane then
    /// does — and no address between them overflows in the reference's
    /// order of evaluation (the lane term, then the register's).
    #[inline(always)]
    fn row(&self, a: &AffineAddr, folded: i64, mask: u64, len: u64) -> Option<Row> {
        let (lo, hi) = lane_span(mask);
        let at = |lane: usize| a.lane.checked_mul(lane as i64)?.checked_add(folded);
        let (mut first, mut last) = (at(lo)?, at(hi)?);
        if let Some((r, c)) = a.reg {
            // Warp-uniform: the first active lane's value is every lane's.
            let offset = c.checked_mul(self.reg(r, lo))?;
            first = first.checked_add(offset)?;
            last = last.checked_add(offset)?;
        }
        let in_bounds = |addr: i64| u64::try_from(addr).is_ok_and(|w| w < len);
        let row = Row { stride: a.lane, start: first as usize, lo, hi };
        (in_bounds(first) && in_bounds(last)).then_some(row)
    }

    /// Bank-conflict degree of one shared access, given the plan: the
    /// site's baked degree when the access runs under its compile-time
    /// mask (the lowering proved it always does), the bank rule over the
    /// row otherwise, and per lane without a row.
    #[inline(always)]
    fn shared_degree(&self, site: &Site, mask: u64, plan: AddrPlan, s: &mut Scratch) -> u32 {
        let AddrPlan::Row(row) = plan else {
            return s.conflict_degree(mask, self.b);
        };
        match site.masked_degree {
            Some(d) if site.mask == Some(mask) => d,
            _ => masked_conflict_degree(row.stride, mask, u64::from(self.b)) as u32,
        }
    }

    /// Coalesced transaction count of one global access, given the plan:
    /// the block rule over the row's active lanes, per lane without a
    /// row.
    #[inline(always)]
    fn global_txns(&self, mask: u64, plan: AddrPlan, s: &mut Scratch) -> u32 {
        let AddrPlan::Row(row) = plan else {
            return s.distinct_blocks(mask, self.b);
        };
        let first = row.start as i64;
        masked_span_blocks(first, row.stride, mask >> row.lo, u64::from(self.b)) as u32
    }

    /// Moves the shared words `from` addresses (`s.val_buf` when per
    /// lane) to the global words `to` addresses, for the active lanes.  A
    /// logged target records each active lane's write in lane order, as
    /// the reference does.
    fn global_store(
        &self,
        ck: &CompiledKernel,
        gmem: &mut GmemAccess<'_>,
        to: AddrPlan,
        from: AddrPlan,
        mask: u64,
        s: &mut Scratch,
    ) -> Result<(), SimError> {
        let src = self.smem.words();
        let stored = match gmem {
            GmemAccess::Direct(g) => {
                let (lo, hi) = to.span(mask, &s.addr_buf);
                move_lanes(src, from, g.store_words(lo, hi), to, mask, s)
            }
            GmemAccess::Logged { .. } => {
                if let AddrPlan::Row(f) = from {
                    gather(src, f, &mut s.val_buf);
                }
                lanes(mask).try_for_each(|lane| {
                    let addr = match to {
                        AddrPlan::Row(row) => row.addr(lane),
                        AddrPlan::PerLane => s.addr_buf[lane],
                    };
                    if gmem.write(addr, s.val_buf[lane], self.block) {
                        Ok(())
                    } else {
                        Err(addr)
                    }
                })
            }
        };
        stored.map_err(|addr| Self::oob_global(ck, addr, gmem.len()))
    }
}

impl BlockSim for BlockExec {
    type Kernel = CompiledKernel;
    type Scratch = Scratch;

    /// Re-arms for `block` and re-fits the register and shared rows to
    /// `ck` — within their capacity, no allocation.
    fn reset(&mut self, ck: &CompiledKernel, block: u64) {
        self.block = block;
        let gx = ck.grid.0.max(1);
        self.block_xy = ((block % gx) as i64, (block / gx) as i64);
        self.b = ck.b;
        self.full_mask = full_mask(ck.b);
        self.regs.clear();
        self.regs.resize(ck.nregs as usize * ck.b as usize, 0);
        self.smem.reset(ck.shared_words);
        self.pc = 0;
        self.arms.clear();
        self.cur_mask = self.full_mask;
        self.loops = [0; MAX_LOOP_DEPTH];
    }

    fn step(
        &mut self,
        ck: &CompiledKernel,
        s: &mut Scratch,
        gmem: &mut GmemAccess<'_>,
    ) -> Result<StepEvent, SimError> {
        let n = self.b as usize;
        loop {
            let Some(op) = ck.prog.get(self.pc as usize) else {
                return Ok(StepEvent::Done);
            };
            let mask = self.cur_mask;
            match op {
                Uop::LoopStart { depth } => {
                    self.loops[*depth as usize] = 0;
                    self.pc += 1;
                }
                Uop::LoopEnd { depth, count, body_start } => {
                    let d = *depth as usize;
                    self.loops[d] += 1;
                    if self.loops[d] < *count {
                        self.pc = *body_start;
                    } else {
                        self.pc += 1;
                    }
                }
                Uop::ThenEnd { join } => match self.arms.last_mut() {
                    Some(arm) if arm.pending != 0 => {
                        self.cur_mask = std::mem::take(&mut arm.pending);
                        self.pc += 1; // else-region starts right after
                    }
                    _ => {
                        self.cur_mask = self.pop_arm();
                        self.pc = *join;
                    }
                },
                Uop::ElseEnd => {
                    self.cur_mask = self.pop_arm();
                    self.pc += 1;
                }
                Uop::Branch { pred, const_then, else_start, join } => {
                    let then_mask = match const_then {
                        Some(m) => m & mask,
                        None => self.pred_mask(pred, s) & mask,
                    };
                    let else_mask = mask & !then_mask;
                    let has_then = *else_start > self.pc + 1;
                    let has_else = *join > *else_start;
                    if has_then && then_mask != 0 {
                        let pending = if has_else { else_mask } else { 0 };
                        self.arms.push(Arm { parent: mask, pending });
                        self.cur_mask = then_mask;
                        self.pc += 1;
                    } else if has_else && else_mask != 0 {
                        self.arms.push(Arm { parent: mask, pending: 0 });
                        self.cur_mask = else_mask;
                        self.pc = *else_start;
                    } else {
                        self.pc = *join;
                    }
                    return Ok(StepEvent::Compute { cycles: 1 });
                }
                Uop::Sync => {
                    self.pc += 1;
                    return Ok(StepEvent::Compute { cycles: 1 });
                }
                Uop::Alu { op, dst, a, b } => {
                    // Every operand that is not a register becomes a row
                    // first; registers are read in place.
                    for (x, buf) in [(*a, &mut s.op_a), (*b, &mut s.op_b)] {
                        if !matches!(x, Operand::Reg(_)) {
                            self.operand_row_into(x, buf);
                        }
                    }
                    let d = *dst as usize;
                    let (lo, hi) = lane_span(mask);
                    let (before, rest) = self.regs.split_at_mut(d * n);
                    let (out, after) = rest.split_at_mut(n);
                    let split = (&*before, &*after);
                    let (ra, rb) =
                        (Arg::of(*a, d, n, split, &s.op_a), Arg::of(*b, d, n, split, &s.op_b));
                    let (ra, rb, out) = (ra.span(lo, hi), rb.span(lo, hi), &mut out[lo..=hi]);
                    if dense(mask >> lo) {
                        // One span of active lanes: computed in place.
                        alu_row(*op, ra, rb, out);
                    } else {
                        // Every lane of the span, then blended in by the
                        // mask (`apply` is total).
                        let tmp = &mut s.val_buf[lo..=hi];
                        let dst_row = &*out;
                        let old = |x| if let Arg::Out = x { Arg::Row(dst_row) } else { x };
                        alu_row(*op, old(ra), old(rb), tmp);
                        blend(out, tmp, mask >> lo);
                    }
                    self.pc += 1;
                    return Ok(StepEvent::Compute { cycles: op.issue_cycles() });
                }
                Uop::Mov { dst, src } => {
                    let d = *dst as usize * n;
                    match *src {
                        Operand::Reg(r) if mask == self.full_mask => {
                            self.regs.copy_within(r as usize * n..r as usize * n + n, d);
                        }
                        src => {
                            self.operand_row_into(src, &mut s.op_a);
                            blend_lanes(&mut self.regs[d..d + n], &s.op_a[..n], mask);
                        }
                    }
                    self.pc += 1;
                    return Ok(StepEvent::Compute { cycles: 1 });
                }
                Uop::LdShr { dst, site } => {
                    let site = &ck.sites[*site as usize];
                    let plan = self.plan_addrs(site, mask, self.smem.len(), s);
                    let degree = self.shared_degree(site, mask, plan, s);
                    let d = *dst as usize * n;
                    let words = self.smem.words();
                    match plan {
                        // Straight from shared memory into the register row.
                        AddrPlan::Row(row) if row.stride == 1 => {
                            let dst = &mut self.regs[d + row.lo..=d + row.hi];
                            blend(dst, &words[row.start..][..dst.len()], mask >> row.lo);
                        }
                        AddrPlan::Row(row) if row.dense(mask) => {
                            gather(words, row, &mut self.regs[d..d + n]);
                        }
                        _ => {
                            read(words, plan, mask, s).map_err(|addr| self.oob_shared(ck, addr))?;
                            blend_lanes(&mut self.regs[d..d + n], &s.val_buf[..n], mask);
                        }
                    }
                    self.pc += 1;
                    return Ok(StepEvent::Shared { degree });
                }
                Uop::StShr { site, src } => {
                    let site = &ck.sites[*site as usize];
                    let plan = self.plan_addrs(site, mask, self.smem.len(), s);
                    let degree = self.shared_degree(site, mask, plan, s);
                    let row: &[i64] = match *src {
                        Operand::Reg(r) => &self.regs[r as usize * n..][..n],
                        src => {
                            self.operand_row_into(src, &mut s.val_buf);
                            &s.val_buf[..n]
                        }
                    };
                    write(self.smem.words_mut(), plan, row, mask, &s.addr_buf)
                        .map_err(|addr| self.oob_shared(ck, addr))?;
                    self.pc += 1;
                    return Ok(StepEvent::Shared { degree });
                }
                Uop::GlbToShr { shared, global } => {
                    // Error precedence matches the reference: every global
                    // read before any shared write.  An in-bounds row has
                    // no error to report; a per-lane plan reads first.
                    let gsite = &ck.sites[*global as usize];
                    let gplan = self.plan_addrs(gsite, mask, gmem.len(), s);
                    let txns = self.global_txns(mask, gplan, s);
                    if let AddrPlan::PerLane = gplan {
                        read(gmem.view(), gplan, mask, s)
                            .map_err(|addr| Self::oob_global(ck, addr, gmem.len()))?;
                    }
                    let ssite = &ck.sites[*shared as usize];
                    let splan = self.plan_addrs(ssite, mask, self.smem.len(), s);
                    let degree = self.shared_degree(ssite, mask, splan, s);
                    move_lanes(gmem.view(), gplan, self.smem.words_mut(), splan, mask, s)
                        .map_err(|addr| self.oob_shared(ck, addr))?;
                    self.pc += 1;
                    return Ok(StepEvent::Global { txns, issue: degree });
                }
                Uop::ShrToGlb { global, shared } => {
                    // Shared reads first, as in the reference.
                    let ssite = &ck.sites[*shared as usize];
                    let splan = self.plan_addrs(ssite, mask, self.smem.len(), s);
                    let degree = self.shared_degree(ssite, mask, splan, s);
                    if let AddrPlan::PerLane = splan {
                        read(self.smem.words(), splan, mask, s)
                            .map_err(|addr| self.oob_shared(ck, addr))?;
                    }
                    let gsite = &ck.sites[*global as usize];
                    let gplan = self.plan_addrs(gsite, mask, gmem.len(), s);
                    let txns = self.global_txns(mask, gplan, s);
                    self.global_store(ck, gmem, gplan, splan, mask, s)?;
                    self.pc += 1;
                    return Ok(StepEvent::Global { txns, issue: degree });
                }
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The dynamic fallbacks against the reference interpreter's method:
    /// collect the active lanes' addresses, sort, dedup, count — over
    /// random address sets with negatives, duplicates and partial masks.
    #[test]
    fn dynamic_fallbacks_match_a_sort_and_dedup_oracle() {
        let mut rng = StdRng::seed_from_u64(0xFA11_BAC5);
        let mut s = Scratch::default();
        for b in [4u32, 32, 64] {
            let bw = i64::from(b);
            for case in 0..2000 {
                // Narrow spans force duplicates and shared banks/blocks;
                // wide ones spread the lanes out.
                let span = [1, 3, bw, 4 * bw, 1 << 20][case % 5];
                let mask = match case % 4 {
                    0 => full_mask(b),
                    1 => rng.next_u64() & full_mask(b),
                    2 => 1 << rng.gen_range(0..b),
                    _ => rng.next_u64() & rng.next_u64() & full_mask(b),
                };
                for lane in 0..b as usize {
                    s.addr_buf[lane] = rng.gen_range(-span..=span);
                }
                let mut addrs: Vec<i64> =
                    (0..b).filter(|l| mask >> l & 1 == 1).map(|l| s.addr_buf[l as usize]).collect();
                addrs.sort_unstable();
                addrs.dedup();

                let mut per_bank = vec![0u32; b as usize];
                for a in &addrs {
                    per_bank[a.rem_euclid(bw) as usize] += 1;
                }
                let degree = per_bank.into_iter().max().unwrap_or(0).max(1);
                assert_eq!(s.conflict_degree(mask, b), degree, "b={b} mask={mask:#x} {addrs:?}");

                let mut blocks: Vec<i64> = addrs.iter().map(|a| a.div_euclid(bw)).collect();
                blocks.dedup();
                let txns = blocks.len() as u32;
                assert_eq!(s.distinct_blocks(mask, b), txns, "b={b} mask={mask:#x} {addrs:?}");
            }
        }
    }
}
