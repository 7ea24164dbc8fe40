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
//! * flat program counter + fixed-capacity mask/arm stacks instead of the
//!   reference interpreter's per-instruction frame walk;
//! * active lanes iterated with `mask.trailing_zeros()`, never `0..b`
//!   scans over inactive lanes;
//! * per-site compile-time shapes: unit-stride warp accesses become
//!   bounds-checked block copies, transaction counts come from the
//!   compile-time residue table, bank-conflict degrees from the shared
//!   classifier — the dynamic fallbacks use fixed `[_; 64]` scratch:
//!   generation-stamped per-bank counters and lane chains, and a short
//!   list of distinct block indices (no `Vec`, no sort, no dedup).
//!
//! Timing has one source: every access's event is computed from its
//! site's compile-time tables (or the dynamic fallback) as it executes.
//!
//! # Who owns what
//!
//! A [`BlockExec`] is what one resident block *is*: its registers, shared
//! memory, program counter, mask and arm stacks and loop counters —
//! ≈ 170 bytes plus its two heap rows.  It holds no kernel: every
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

use crate::error::SimError;
use crate::smem::SharedMemory;
use crate::uop::{CompiledKernel, FastPath, Site, SiteAddr, Uop};
use crate::warp::{GmemAccess, StepEvent};
use atgpu_ir::affine::lane_span_blocks;
use atgpu_ir::{AluOp, Operand, Reg, MAX_LOOP_DEPTH};

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

/// How a site's lane addresses are materialised for one access.
#[derive(Clone, Copy)]
enum AddrPlan {
    /// Contiguous words `[base, base + popcount(mask))` in lane order
    /// (unit stride, full warp).
    Contig(i64),
    /// Every active lane addresses `addr`.
    Bcast(i64),
    /// `addr_buf[lane]` holds each active lane's address.
    PerLane,
}

/// The rows one instruction works in (see the module docs): one per
/// multiprocessor, lent to the step of whichever resident issues.
pub struct Scratch {
    /// Each active lane's address ([`AddrPlan::PerLane`]).
    addr_buf: [i64; 64],
    /// Each active lane's value on its way between memories.
    val_buf: [i64; 64],
    // Operand rows of a full-mask ALU op (avoids zero-initialising stack
    // arrays per op).
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
        let mut m = mask;
        while m != 0 {
            let lane = m.trailing_zeros() as usize;
            m &= m - 1;
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
        let mut m = mask;
        while m != 0 {
            let lane = m.trailing_zeros();
            m &= m - 1;
            let q = self.addr_buf[lane as usize].div_euclid(bw);
            if !distinct[..txns].iter().rev().any(|&seen| seen == q) {
                distinct[txns] = q;
                txns += 1;
            }
        }
        txns as u32
    }
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
    /// Saved parent masks (one per open divergence arm).
    masks: Vec<u64>,
    cur_mask: u64,
    /// Pending else masks (one per open divergence arm).
    arms: Vec<u64>,
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
            masks: Vec::with_capacity(ck.max_arm_depth),
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
    fn reg(&self, r: Reg, lane: u32) -> i64 {
        self.regs[r as usize * self.b as usize + lane as usize]
    }

    #[inline]
    fn set_reg(&mut self, r: Reg, lane: u32, v: i64) {
        self.regs[r as usize * self.b as usize + lane as usize] = v;
    }

    #[inline]
    fn operand(&self, op: Operand, lane: u32) -> i64 {
        match op {
            Operand::Reg(r) => self.reg(r, lane),
            Operand::Imm(v) => v,
            Operand::Lane => i64::from(lane),
            Operand::Block => self.block_xy.0,
            Operand::BlockY => self.block_xy.1,
            Operand::LoopVar(d) => self.loops.get(d as usize).copied().unwrap_or(0) as i64,
        }
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

    fn oob_shared(&self, ck: &CompiledKernel, addr: i64) -> SimError {
        SimError::SharedOutOfBounds { kernel: ck.name.clone(), addr, size: self.smem.len() }
    }

    fn oob_global(ck: &CompiledKernel, addr: i64, size: u64) -> SimError {
        SimError::GlobalOutOfBounds { kernel: ck.name.clone(), addr, size }
    }

    /// The first out-of-bounds address a lane-ordered scan of the
    /// contiguous range `[base, base + n)` against `len` would report.
    #[inline]
    fn first_oob(base: i64, len: u64) -> i64 {
        if base < 0 {
            base
        } else {
            base.max(len as i64)
        }
    }

    /// Evaluates a site's addresses for the active lanes into
    /// `s.addr_buf` and returns the materialisation plan.
    fn plan_addrs(&self, site: &Site, mask: u64, s: &mut Scratch) -> AddrPlan {
        match &site.addr {
            SiteAddr::Affine(a) => {
                let folded = a.fold_warp(self.block_xy, &self.loops);
                match site.fast {
                    FastPath::Unit if mask == self.full_mask => AddrPlan::Contig(folded),
                    FastPath::Broadcast => AddrPlan::Bcast(folded),
                    _ => {
                        let stride = a.lane;
                        match a.reg {
                            None => {
                                let mut m = mask;
                                while m != 0 {
                                    let lane = m.trailing_zeros();
                                    m &= m - 1;
                                    s.addr_buf[lane as usize] = folded + stride * i64::from(lane);
                                }
                            }
                            Some((r, c)) => {
                                let mut m = mask;
                                while m != 0 {
                                    let lane = m.trailing_zeros();
                                    m &= m - 1;
                                    s.addr_buf[lane as usize] =
                                        folded + stride * i64::from(lane) + c * self.reg(r, lane);
                                }
                            }
                        }
                        AddrPlan::PerLane
                    }
                }
            }
            SiteAddr::Tree(t) => {
                let block = self.block_xy;
                let gbase = site.gbase;
                let mut m = mask;
                while m != 0 {
                    let lane = m.trailing_zeros();
                    m &= m - 1;
                    let regs = &self.regs;
                    let b = self.b as usize;
                    let mut read = |r: Reg| regs[r as usize * b + lane as usize];
                    s.addr_buf[lane as usize] =
                        t.eval(i64::from(lane), block, &self.loops, &mut read) + gbase;
                }
                AddrPlan::PerLane
            }
        }
    }

    /// Bank-conflict degree of one shared access, given the plan.
    fn shared_degree(&self, site: &Site, mask: u64, plan: AddrPlan, s: &mut Scratch) -> u32 {
        if let Some(d) = site.full_degree {
            // Degree 1 is mask-independent (broadcast, or all lanes in
            // distinct banks); other exact degrees hold for the full warp.
            if d == 1 || mask == self.full_mask {
                return d;
            }
        }
        // Masked-affine static path: the compiler proved this site always
        // executes under `site.mask` and precomputed the exact degree.
        if let (Some(m), Some(d)) = (site.mask, site.masked_degree) {
            if m == mask {
                return d;
            }
        }
        match plan {
            AddrPlan::Contig(_) | AddrPlan::Bcast(_) => 1,
            AddrPlan::PerLane => s.conflict_degree(mask, self.b),
        }
    }

    /// Coalesced transaction count of one global access, given the plan.
    fn global_txns(&self, site: &Site, mask: u64, plan: AddrPlan, s: &mut Scratch) -> u32 {
        let bw = i64::from(self.b);
        match plan {
            AddrPlan::Bcast(_) => 1,
            AddrPlan::Contig(folded) => {
                if let Some(table) = &site.txn_table {
                    table[folded.rem_euclid(bw) as usize]
                } else {
                    lane_span_blocks(folded.rem_euclid(bw), 1, u64::from(self.b), u64::from(self.b))
                        as u32
                }
            }
            AddrPlan::PerLane => match &site.addr {
                SiteAddr::Affine(a) if a.reg.is_none() => {
                    // The table is exact for the mask it was computed
                    // over: the site's compile-time mask when one is
                    // known (masked-affine static path), the full warp
                    // otherwise.
                    if mask == site.mask.unwrap_or(self.full_mask) {
                        if let Some(table) = &site.txn_table {
                            let folded = a.fold_warp(self.block_xy, &self.loops);
                            return table[folded.rem_euclid(bw) as usize];
                        }
                    }
                    // Static affine addresses are monotone in lane order:
                    // count quotient transitions over active lanes.
                    let mut txns = 0u32;
                    let mut prev = 0i64;
                    let mut first = true;
                    let mut m = mask;
                    while m != 0 {
                        let lane = m.trailing_zeros();
                        m &= m - 1;
                        let q = s.addr_buf[lane as usize].div_euclid(bw);
                        if first || q != prev {
                            txns += 1;
                            prev = q;
                            first = false;
                        }
                    }
                    txns
                }
                _ => s.distinct_blocks(mask, self.b),
            },
        }
    }

    /// Reads a shared site's words into `s.val_buf` for the active lanes.
    fn shared_gather(
        &self,
        ck: &CompiledKernel,
        plan: AddrPlan,
        mask: u64,
        s: &mut Scratch,
    ) -> Result<(), SimError> {
        let b = self.b as usize;
        match plan {
            AddrPlan::Contig(base) => {
                let len = self.smem.len();
                if base < 0 || base + b as i64 > len as i64 {
                    return Err(self.oob_shared(ck, Self::first_oob(base, len)));
                }
                let start = base as usize;
                s.val_buf[..b].copy_from_slice(&self.smem.words()[start..start + b]);
            }
            AddrPlan::Bcast(addr) => {
                let v = self.smem.read(addr).ok_or_else(|| self.oob_shared(ck, addr))?;
                let mut m = mask;
                while m != 0 {
                    let lane = m.trailing_zeros();
                    m &= m - 1;
                    s.val_buf[lane as usize] = v;
                }
            }
            AddrPlan::PerLane => {
                let mut m = mask;
                while m != 0 {
                    let lane = m.trailing_zeros();
                    m &= m - 1;
                    let addr = s.addr_buf[lane as usize];
                    s.val_buf[lane as usize] =
                        self.smem.read(addr).ok_or_else(|| self.oob_shared(ck, addr))?;
                }
            }
        }
        Ok(())
    }

    /// Writes `s.val_buf` to a shared site for the active lanes.
    fn shared_scatter(
        &mut self,
        ck: &CompiledKernel,
        plan: AddrPlan,
        mask: u64,
        s: &Scratch,
    ) -> Result<(), SimError> {
        let b = self.b as usize;
        match plan {
            AddrPlan::Contig(base) => {
                let len = self.smem.len();
                if base < 0 || base + b as i64 > len as i64 {
                    return Err(self.oob_shared(ck, Self::first_oob(base, len)));
                }
                let start = base as usize;
                self.smem.words_mut()[start..start + b].copy_from_slice(&s.val_buf[..b]);
            }
            _ => {
                let mut m = mask;
                while m != 0 {
                    let lane = m.trailing_zeros();
                    m &= m - 1;
                    let addr = match plan {
                        AddrPlan::Bcast(a) => a,
                        _ => s.addr_buf[lane as usize],
                    };
                    if !self.smem.write(addr, s.val_buf[lane as usize]) {
                        return Err(self.oob_shared(ck, addr));
                    }
                }
            }
        }
        Ok(())
    }

    /// Reads a global site's words into `s.val_buf` for the active lanes.
    fn global_gather(
        &self,
        ck: &CompiledKernel,
        gmem: &GmemAccess<'_>,
        plan: AddrPlan,
        mask: u64,
        s: &mut Scratch,
    ) -> Result<(), SimError> {
        let b = self.b as usize;
        match plan {
            AddrPlan::Contig(base) => {
                let len = gmem.len();
                if base < 0 || base + b as i64 > len as i64 {
                    return Err(Self::oob_global(ck, Self::first_oob(base, len), len));
                }
                let ok = gmem.read_block(base, &mut s.val_buf[..b]);
                debug_assert!(ok);
            }
            AddrPlan::Bcast(addr) => {
                let v = gmem.read(addr).ok_or_else(|| Self::oob_global(ck, addr, gmem.len()))?;
                let mut m = mask;
                while m != 0 {
                    let lane = m.trailing_zeros();
                    m &= m - 1;
                    s.val_buf[lane as usize] = v;
                }
            }
            AddrPlan::PerLane => {
                let mut m = mask;
                while m != 0 {
                    let lane = m.trailing_zeros();
                    m &= m - 1;
                    let addr = s.addr_buf[lane as usize];
                    s.val_buf[lane as usize] =
                        gmem.read(addr).ok_or_else(|| Self::oob_global(ck, addr, gmem.len()))?;
                }
            }
        }
        Ok(())
    }

    /// Writes `s.val_buf` to a global site for the active lanes.
    fn global_scatter(
        &self,
        ck: &CompiledKernel,
        gmem: &mut GmemAccess<'_>,
        plan: AddrPlan,
        mask: u64,
        s: &Scratch,
    ) -> Result<(), SimError> {
        let b = self.b as usize;
        let block = self.block;
        match plan {
            AddrPlan::Contig(base) => {
                let len = gmem.len();
                if base < 0 || base + b as i64 > len as i64 {
                    return Err(Self::oob_global(ck, Self::first_oob(base, len), len));
                }
                let ok = gmem.write_block(base, &s.val_buf[..b], block);
                debug_assert!(ok);
            }
            _ => {
                let mut m = mask;
                while m != 0 {
                    let lane = m.trailing_zeros();
                    m &= m - 1;
                    let addr = match plan {
                        AddrPlan::Bcast(a) => a,
                        _ => s.addr_buf[lane as usize],
                    };
                    if !gmem.write(addr, s.val_buf[lane as usize], block) {
                        return Err(Self::oob_global(ck, addr, gmem.len()));
                    }
                }
            }
        }
        Ok(())
    }

    /// Evaluates a branch predicate over the active lanes.
    fn eval_pred(&self, pred: &atgpu_ir::PredExpr, parent: u64) -> u64 {
        let block = self.block_xy;
        let mut then_mask = 0u64;
        let mut m = parent;
        while m != 0 {
            let lane = m.trailing_zeros();
            m &= m - 1;
            let regs = &self.regs;
            let b = self.b as usize;
            let mut read = |r: Reg| regs[r as usize * b + lane as usize];
            if pred.eval(i64::from(lane), block, &self.loops, &mut read) {
                then_mask |= 1 << lane;
            }
        }
        then_mask
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
        self.masks.clear();
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
        loop {
            let Some(op) = ck.prog.get(self.pc as usize) else {
                return Ok(StepEvent::Done);
            };
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
                Uop::ThenEnd { join } => {
                    let pending = self.arms.last_mut().expect("arm stack in sync");
                    if *pending != 0 {
                        self.cur_mask = *pending;
                        *pending = 0;
                        self.pc += 1; // else-region starts right after
                    } else {
                        self.arms.pop();
                        self.cur_mask = self.masks.pop().expect("mask stack in sync");
                        self.pc = *join;
                    }
                }
                Uop::ElseEnd => {
                    self.arms.pop();
                    self.cur_mask = self.masks.pop().expect("mask stack in sync");
                    self.pc += 1;
                }
                Uop::Branch { pred, const_then, else_start, join } => {
                    let parent = self.cur_mask;
                    let then_mask = match const_then {
                        Some(m) => m & parent,
                        None => self.eval_pred(pred, parent),
                    };
                    let else_mask = parent & !then_mask;
                    let has_then = *else_start > self.pc + 1;
                    let has_else = *join > *else_start;
                    if has_then && then_mask != 0 {
                        self.masks.push(parent);
                        self.arms.push(if has_else { else_mask } else { 0 });
                        self.cur_mask = then_mask;
                        self.pc += 1;
                    } else if has_else && else_mask != 0 {
                        self.masks.push(parent);
                        self.arms.push(0);
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
                    let mask = self.cur_mask;
                    let (op, dst, a, b) = (*op, *dst, *a, *b);
                    if mask == self.full_mask {
                        let n = self.b as usize;
                        self.operand_row_into(a, &mut s.op_a);
                        self.operand_row_into(b, &mut s.op_b);
                        let start = dst as usize * n;
                        let (ra, rb) = (&s.op_a, &s.op_b);
                        let row = &mut self.regs[start..start + n];
                        // One branch on `op`, then a tight (vectorisable)
                        // lane loop — the compiler cannot be trusted to
                        // unswitch `op.apply` out of the loop on its own.
                        macro_rules! row_op {
                            ($f:expr) => {
                                for i in 0..n {
                                    row[i] = $f(ra[i], rb[i]);
                                }
                            };
                        }
                        match op {
                            AluOp::Add => row_op!(i64::wrapping_add),
                            AluOp::Sub => row_op!(i64::wrapping_sub),
                            AluOp::Mul => row_op!(i64::wrapping_mul),
                            AluOp::Min => row_op!(|x: i64, y: i64| x.min(y)),
                            AluOp::Max => row_op!(|x: i64, y: i64| x.max(y)),
                            AluOp::And => row_op!(|x: i64, y: i64| x & y),
                            AluOp::Or => row_op!(|x: i64, y: i64| x | y),
                            AluOp::Xor => row_op!(|x: i64, y: i64| x ^ y),
                            AluOp::SetLt => row_op!(|x: i64, y: i64| i64::from(x < y)),
                            AluOp::SetEq => row_op!(|x: i64, y: i64| i64::from(x == y)),
                            _ => row_op!(|x: i64, y: i64| op.apply(x, y)),
                        }
                    } else {
                        let mut m = mask;
                        while m != 0 {
                            let lane = m.trailing_zeros();
                            m &= m - 1;
                            let va = self.operand(a, lane);
                            let vb = self.operand(b, lane);
                            self.set_reg(dst, lane, op.apply(va, vb));
                        }
                    }
                    self.pc += 1;
                    return Ok(StepEvent::Compute { cycles: op.issue_cycles() });
                }
                Uop::Mov { dst, src } => {
                    let mask = self.cur_mask;
                    let (dst, src) = (*dst, *src);
                    if mask == self.full_mask {
                        let n = self.b as usize;
                        let start = dst as usize * n;
                        match src {
                            Operand::Reg(r) => {
                                self.regs.copy_within(r as usize * n..r as usize * n + n, start);
                            }
                            _ => {
                                self.operand_row_into(src, &mut s.op_a);
                                self.regs[start..start + n].copy_from_slice(&s.op_a[..n]);
                            }
                        }
                    } else {
                        let mut m = mask;
                        while m != 0 {
                            let lane = m.trailing_zeros();
                            m &= m - 1;
                            let v = self.operand(src, lane);
                            self.set_reg(dst, lane, v);
                        }
                    }
                    self.pc += 1;
                    return Ok(StepEvent::Compute { cycles: 1 });
                }
                Uop::LdShr { dst, site } => {
                    let mask = self.cur_mask;
                    let (dst, site_id) = (*dst, *site);
                    let site = &ck.sites[site_id as usize];
                    let plan = self.plan_addrs(site, mask, s);
                    let degree = self.shared_degree(site, mask, plan, s);
                    if let AddrPlan::Contig(base) = plan {
                        // Fused path: shared words straight into the
                        // register row, no intermediate buffer.
                        let n = self.b as usize;
                        let len = self.smem.len();
                        if base < 0 || base + n as i64 > len as i64 {
                            return Err(self.oob_shared(ck, Self::first_oob(base, len)));
                        }
                        let start = dst as usize * n;
                        self.regs[start..start + n]
                            .copy_from_slice(&self.smem.words()[base as usize..base as usize + n]);
                    } else {
                        self.shared_gather(ck, plan, mask, s)?;
                        let mut m = mask;
                        while m != 0 {
                            let lane = m.trailing_zeros();
                            m &= m - 1;
                            self.set_reg(dst, lane, s.val_buf[lane as usize]);
                        }
                    }
                    self.pc += 1;
                    return Ok(StepEvent::Shared { degree });
                }
                Uop::StShr { site, src } => {
                    let mask = self.cur_mask;
                    let (site_id, src) = (*site, *src);
                    let site = &ck.sites[site_id as usize];
                    let plan = self.plan_addrs(site, mask, s);
                    let degree = self.shared_degree(site, mask, plan, s);
                    if let (AddrPlan::Contig(base), Operand::Reg(r)) = (plan, src) {
                        // Fused path: register row straight into shared
                        // memory.
                        let n = self.b as usize;
                        let len = self.smem.len();
                        if base < 0 || base + n as i64 > len as i64 {
                            return Err(self.oob_shared(ck, Self::first_oob(base, len)));
                        }
                        self.smem.words_mut()[base as usize..base as usize + n]
                            .copy_from_slice(&self.regs[r as usize * n..r as usize * n + n]);
                    } else {
                        if mask == self.full_mask {
                            self.operand_row_into(src, &mut s.val_buf);
                        } else {
                            let mut m = mask;
                            while m != 0 {
                                let lane = m.trailing_zeros();
                                m &= m - 1;
                                s.val_buf[lane as usize] = self.operand(src, lane);
                            }
                        }
                        self.shared_scatter(ck, plan, mask, s)?;
                    }
                    self.pc += 1;
                    return Ok(StepEvent::Shared { degree });
                }
                Uop::GlbToShr { shared, global } => {
                    let mask = self.cur_mask;
                    let (shared_id, global_id) = (*shared, *global);
                    let gsite = &ck.sites[global_id as usize];
                    let gplan = self.plan_addrs(gsite, mask, s);
                    let txns = self.global_txns(gsite, mask, gplan, s);
                    let ssite = &ck.sites[shared_id as usize];
                    if let (AddrPlan::Contig(gbase), FastPath::Unit) = (gplan, ssite.fast) {
                        // Fused path: both sides contiguous — one
                        // global-heap-to-shared copy.  Error precedence
                        // matches the reference: global bounds first.
                        let n = self.b as usize;
                        let glen = gmem.len();
                        if gbase < 0 || gbase + n as i64 > glen as i64 {
                            return Err(Self::oob_global(ck, Self::first_oob(gbase, glen), glen));
                        }
                        let splan = self.plan_addrs(ssite, mask, s);
                        let AddrPlan::Contig(sbase) = splan else {
                            unreachable!("unit-stride site under full mask is contiguous")
                        };
                        let degree = self.shared_degree(ssite, mask, splan, s);
                        let slen = self.smem.len();
                        if sbase < 0 || sbase + n as i64 > slen as i64 {
                            return Err(self.oob_shared(ck, Self::first_oob(sbase, slen)));
                        }
                        self.smem.words_mut()[sbase as usize..sbase as usize + n]
                            .copy_from_slice(&gmem.view()[gbase as usize..gbase as usize + n]);
                        self.pc += 1;
                        return Ok(StepEvent::Global { txns, issue: degree });
                    }
                    self.global_gather(ck, gmem, gplan, mask, s)?;
                    let splan = self.plan_addrs(ssite, mask, s);
                    let degree = self.shared_degree(ssite, mask, splan, s);
                    self.shared_scatter(ck, splan, mask, s)?;
                    self.pc += 1;
                    return Ok(StepEvent::Global { txns, issue: degree });
                }
                Uop::ShrToGlb { global, shared } => {
                    let mask = self.cur_mask;
                    let (shared_id, global_id) = (*shared, *global);
                    let ssite = &ck.sites[shared_id as usize];
                    let splan = self.plan_addrs(ssite, mask, s);
                    let degree = self.shared_degree(ssite, mask, splan, s);
                    let gsite = &ck.sites[global_id as usize];
                    if let (AddrPlan::Contig(sbase), FastPath::Unit) = (splan, gsite.fast) {
                        // Fused path: shared words straight to the global
                        // heap.  Error precedence matches the reference:
                        // shared bounds first.
                        let n = self.b as usize;
                        let slen = self.smem.len();
                        if sbase < 0 || sbase + n as i64 > slen as i64 {
                            return Err(self.oob_shared(ck, Self::first_oob(sbase, slen)));
                        }
                        let gplan = self.plan_addrs(gsite, mask, s);
                        let AddrPlan::Contig(gbase) = gplan else {
                            unreachable!("unit-stride site under full mask is contiguous")
                        };
                        let txns = self.global_txns(gsite, mask, gplan, s);
                        let glen = gmem.len();
                        if gbase < 0 || gbase + n as i64 > glen as i64 {
                            return Err(Self::oob_global(ck, Self::first_oob(gbase, glen), glen));
                        }
                        let ok = gmem.write_block(
                            gbase,
                            &self.smem.words()[sbase as usize..sbase as usize + n],
                            self.block,
                        );
                        debug_assert!(ok);
                        self.pc += 1;
                        return Ok(StepEvent::Global { txns, issue: degree });
                    }
                    self.shared_gather(ck, splan, mask, s)?;
                    let gplan = self.plan_addrs(gsite, mask, s);
                    let txns = self.global_txns(gsite, mask, gplan, s);
                    self.global_scatter(ck, gmem, gplan, mask, s)?;
                    self.pc += 1;
                    return Ok(StepEvent::Global { txns, issue: degree });
                }
            }
        }
    }
}

#[cfg(test)]
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
