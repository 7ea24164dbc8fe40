//! Lockstep execution of one thread block (a warp, in the model's
//! one-warp-per-block architecture).
//!
//! A [`WarpExec`] walks the kernel's structured body with an explicit
//! frame stack (loops and divergence arms), executing each instruction for
//! all active lanes and returning a [`StepEvent`] that tells the
//! multiprocessor what the instruction costs:
//!
//! * compute/predicate/sync → one issue slot;
//! * shared access → `degree` issue slots (bank-conflict serialisation);
//! * global access → an issue slot (plus shared-side serialisation) and a
//!   memory request of `txns` coalesced block transactions, which the MP
//!   routes through the memory controller while **other warps keep
//!   issuing** — the latency hiding the model abstracts into `λ`.
//!
//! Divergence follows real SIMT hardware: both arms run when both have
//! active lanes, arms with no active lanes are skipped entirely.  (The
//! *model* charges both arms always; the difference is part of what the
//! experiments quantify.)

use crate::error::SimError;
use crate::gmem::GlobalMemory;
use crate::smem::SharedMemory;
use atgpu_ir::affine::CompiledAddr;
use atgpu_ir::{Instr, Kernel, Operand, Reg};

/// What one instruction costs the multiprocessor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepEvent {
    /// Compute issue (ALU, move, predicate evaluation, sync); integer
    /// div/mod occupy multiple issue slots.
    Compute {
        /// Issue slots occupied.
        cycles: u32,
    },
    /// Shared-memory access serialised over `degree` conflicting requests.
    Shared {
        /// Bank-conflict serialisation degree (1 = conflict-free).
        degree: u32,
    },
    /// Global-memory access: `txns` coalesced block transactions, with
    /// `issue` issue slots of shared-side serialisation.
    Global {
        /// Coalesced transactions among the active lanes.
        txns: u32,
        /// Issue slots occupied (shared-memory side of the `⇐` move).
        issue: u32,
    },
    /// The block has finished.
    Done,
}

/// One deferred global write — one entry of a launch's write log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteRec {
    /// Absolute word address.
    pub addr: u64,
    /// Value written.
    pub val: i64,
    /// Writing thread block.
    pub block: u64,
}

/// A launch's write target: direct, or logged (writes deferred and
/// applied after the launch, reads served from the pre-launch memory —
/// cross-block visibility within one launch is undefined in the model, so
/// well-formed kernels cannot tell).
///
/// A log is kept only for a reader: the fault journal of a multi-device
/// run, and the launch-level API where the race detector lives
/// ([`crate::Device::run_kernel_with`], [`crate::Device::run_shard`],
/// [`crate::Cluster::run_sharded_kernel`]), whose caller merges
/// ([`crate::apply_write_log`]).  A program run's launch without a
/// journal is `Direct`: it pushes no [`WriteRec`] at all.
pub enum GmemAccess<'a> {
    /// Reads and writes hit the heap immediately.
    Direct(&'a mut GlobalMemory),
    /// Reads hit the pre-launch memory; writes are recorded.
    Logged {
        /// Pre-launch memory snapshot.
        base: &'a GlobalMemory,
        /// Deferred writes.
        log: &'a mut Vec<WriteRec>,
    },
}

impl GmemAccess<'_> {
    #[inline]
    pub(crate) fn read(&self, addr: i64) -> Option<i64> {
        self.mem().read(addr)
    }

    #[inline]
    pub(crate) fn write(&mut self, addr: i64, val: i64, block: u64) -> bool {
        match self {
            GmemAccess::Direct(g) => g.write(addr, val),
            GmemAccess::Logged { base, log } => {
                if addr < 0 || addr as u64 >= base.len() {
                    return false;
                }
                log.push(WriteRec { addr: addr as u64, val, block });
                true
            }
        }
    }

    /// Read view of the whole heap (the micro-op engine's row gathers).
    #[inline]
    pub(crate) fn view(&self) -> &[i64] {
        self.mem().words()
    }

    #[inline]
    pub(crate) fn len(&self) -> u64 {
        self.mem().len()
    }

    /// The memory reads are served from.
    #[inline]
    pub(crate) fn mem(&self) -> &GlobalMemory {
        match self {
            GmemAccess::Direct(g) => g,
            GmemAccess::Logged { base, .. } => base,
        }
    }
}

struct Frame<'k> {
    body: &'k [Instr],
    idx: usize,
    kind: FrameKind<'k>,
}

enum FrameKind<'k> {
    /// The kernel body itself.
    Top,
    /// A `Repeat` iteration.
    Loop { iter: u32, count: u32 },
    /// A divergence arm; when it finishes, the pending else arm (if any,
    /// with a non-zero mask) runs next.
    Arm { pending_else: Option<(u64, &'k [Instr])> },
}

enum ExhaustAction<'k> {
    Finish,
    LoopIter(u32),
    PopLoop,
    PopArm(Option<(u64, &'k [Instr])>),
}

/// Executes one thread block in lockstep.
pub struct WarpExec<'k> {
    kernel: &'k Kernel,
    bases: &'k [u64],
    /// Linear thread-block index.
    pub block: u64,
    /// Decomposed `(x, y)` block index.
    pub block_xy: (i64, i64),
    b: u32,
    full_mask: u64,
    regs: Vec<i64>,
    frames: Vec<Frame<'k>>,
    masks: Vec<u64>,
    loops: Vec<u32>,
    /// The block's shared memory.
    pub smem: SharedMemory,
    /// Scratch address buffer (reused every memory instruction).
    addr_buf: Vec<i64>,
}

impl<'k> WarpExec<'k> {
    /// Creates an executor for `kernel` with `b ≤ 64` lanes; `bases` are
    /// the device-buffer base addresses; `nregs` from [`Kernel::max_reg`].
    pub fn new(kernel: &'k Kernel, bases: &'k [u64], b: u32, nregs: u32) -> Self {
        debug_assert!((1..=64).contains(&b));
        let full_mask = if b >= 64 { u64::MAX } else { (1u64 << b) - 1 };
        let mut w = Self {
            kernel,
            bases,
            block: 0,
            block_xy: (0, 0),
            b,
            full_mask,
            regs: vec![0; nregs.max(1) as usize * b as usize],
            frames: Vec::with_capacity(8),
            masks: Vec::with_capacity(8),
            loops: Vec::with_capacity(4),
            smem: SharedMemory::new(kernel.shared_words, u64::from(b)),
            addr_buf: vec![0; b as usize],
        };
        w.reset(0);
        w
    }

    /// The per-lane register file, laid out `reg-major` (`r·b + lane`) —
    /// exposed for differential testing against the micro-op engine.
    pub fn regs(&self) -> &[i64] {
        &self.regs
    }

    /// Re-arms the executor for a new thread block (reusing allocations).
    pub fn reset(&mut self, block: u64) {
        self.block = block;
        let gx = self.kernel.grid.0.max(1);
        self.block_xy = ((block % gx) as i64, (block / gx) as i64);
        self.regs.fill(0);
        self.smem.reset(self.kernel.shared_words);
        self.frames.clear();
        self.masks.clear();
        self.loops.clear();
        let body: &'k [Instr] = &self.kernel.body;
        self.frames.push(Frame { body, idx: 0, kind: FrameKind::Top });
        self.masks.push(self.full_mask);
    }

    #[inline]
    fn mask(&self) -> u64 {
        *self.masks.last().expect("mask stack never empty while running")
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

    /// Evaluates a compiled address for every active lane into
    /// `self.addr_buf[lane]`.  Returns true when addresses are monotone in
    /// lane order (always the case for affine addresses).
    fn eval_addrs(&mut self, addr: &CompiledAddr, mask: u64) -> bool {
        let b = self.b as usize;
        match addr {
            CompiledAddr::Affine(a) => {
                let folded = a.fold_warp(self.block_xy, &self.loops);
                let regs = &self.regs;
                for lane in 0..self.b {
                    if mask & (1 << lane) == 0 {
                        continue;
                    }
                    let v = a.lane_addr(folded, i64::from(lane), |r| {
                        regs[r as usize * b + lane as usize]
                    });
                    self.addr_buf[lane as usize] = v;
                }
                a.reg.is_none()
            }
            CompiledAddr::Tree(t) => {
                let block = self.block_xy;
                for lane in 0..self.b {
                    if mask & (1 << lane) == 0 {
                        continue;
                    }
                    let regs = &self.regs;
                    let loops = &self.loops;
                    let mut read = |r: Reg| regs[r as usize * b + lane as usize];
                    self.addr_buf[lane as usize] = t.eval(i64::from(lane), block, loops, &mut read);
                }
                false
            }
        }
    }

    /// Distinct memory blocks among the active lanes' addresses.
    fn coalesce_txns(&self, mask: u64, monotone: bool) -> u32 {
        let bw = i64::from(self.b); // words per memory block = b
        if monotone {
            let mut txns = 0u32;
            let mut prev = 0i64;
            let mut first = true;
            for lane in 0..self.b {
                if mask & (1 << lane) == 0 {
                    continue;
                }
                let q = self.addr_buf[lane as usize].div_euclid(bw);
                if first || q != prev {
                    txns += 1;
                    prev = q;
                    first = false;
                }
            }
            txns
        } else {
            let mut blocks: Vec<i64> = (0..self.b)
                .filter(|l| mask & (1 << l) != 0)
                .map(|l| self.addr_buf[l as usize].div_euclid(bw))
                .collect();
            blocks.sort_unstable();
            blocks.dedup();
            blocks.len() as u32
        }
    }

    /// Bank-conflict serialisation degree among the active lanes.
    fn conflict_degree(&self, addr: &CompiledAddr, mask: u64) -> u32 {
        let banks = u64::from(self.b);
        // Fast paths for static affine addresses.
        if let Some(a) = addr.as_affine() {
            if a.reg.is_none() {
                if a.lane == 0 {
                    return 1; // broadcast
                }
                let g = gcd(a.lane.unsigned_abs() % banks, banks);
                if g <= 1 {
                    return 1; // distinct banks for any lane subset
                }
            }
        }
        // General case: max distinct addresses in any one bank.
        let mut pairs: Vec<(u64, i64)> = (0..self.b)
            .filter(|l| mask & (1 << l) != 0)
            .map(|l| {
                let a = self.addr_buf[l as usize];
                (a.rem_euclid(banks as i64) as u64, a)
            })
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        let mut degree = 1u32;
        let mut run = 0u32;
        let mut prev_bank = u64::MAX;
        for (bank, _) in pairs {
            if bank == prev_bank {
                run += 1;
            } else {
                run = 1;
                prev_bank = bank;
            }
            degree = degree.max(run);
        }
        degree
    }

    fn oob_shared(&self, addr: i64) -> SimError {
        SimError::SharedOutOfBounds {
            kernel: self.kernel.name.clone(),
            addr,
            size: self.smem.len(),
        }
    }

    fn oob_global(&self, addr: i64, size: u64) -> SimError {
        SimError::GlobalOutOfBounds { kernel: self.kernel.name.clone(), addr, size }
    }

    /// Executes the next instruction; returns its timing event.
    pub fn step(&mut self, gmem: &mut GmemAccess<'_>) -> Result<StepEvent, SimError> {
        loop {
            // Phase 1: unwind exhausted frames.
            let action: Option<ExhaustAction<'k>> = {
                let Some(frame) = self.frames.last_mut() else {
                    return Ok(StepEvent::Done);
                };
                if frame.idx < frame.body.len() {
                    None
                } else {
                    match &mut frame.kind {
                        FrameKind::Top => Some(ExhaustAction::Finish),
                        FrameKind::Loop { iter, count } => {
                            *iter += 1;
                            if *iter < *count {
                                frame.idx = 0;
                                Some(ExhaustAction::LoopIter(*iter))
                            } else {
                                Some(ExhaustAction::PopLoop)
                            }
                        }
                        FrameKind::Arm { pending_else } => {
                            Some(ExhaustAction::PopArm(pending_else.take()))
                        }
                    }
                }
            };
            match action {
                Some(ExhaustAction::Finish) => {
                    self.frames.pop();
                    return Ok(StepEvent::Done);
                }
                Some(ExhaustAction::LoopIter(it)) => {
                    *self.loops.last_mut().expect("loop stack in sync") = it;
                    continue;
                }
                Some(ExhaustAction::PopLoop) => {
                    self.frames.pop();
                    self.loops.pop();
                    continue;
                }
                Some(ExhaustAction::PopArm(pe)) => {
                    self.frames.pop();
                    self.masks.pop();
                    if let Some((em, eb)) = pe {
                        if em != 0 && !eb.is_empty() {
                            self.masks.push(em);
                            self.frames.push(Frame {
                                body: eb,
                                idx: 0,
                                kind: FrameKind::Arm { pending_else: None },
                            });
                        }
                    }
                    continue;
                }
                None => {}
            }

            // Phase 2: fetch the next instruction ('k lifetime, decoupled
            // from the frame borrow).
            let instr: &'k Instr = {
                let frame = self.frames.last_mut().expect("frame present");
                let body = frame.body;
                let idx = frame.idx;
                frame.idx += 1;
                &body[idx]
            };

            match instr {
                Instr::Repeat { count, body } => {
                    if *count > 0 && !body.is_empty() {
                        self.loops.push(0);
                        self.frames.push(Frame {
                            body,
                            idx: 0,
                            kind: FrameKind::Loop { iter: 0, count: *count },
                        });
                    }
                    continue; // loop bookkeeping is free
                }
                Instr::Pred { pred, then_body, else_body } => {
                    let parent = self.mask();
                    let mut then_mask = 0u64;
                    let block = self.block_xy;
                    {
                        let regs = &self.regs;
                        let loops = &self.loops;
                        let b = self.b as usize;
                        for lane in 0..self.b {
                            if parent & (1 << lane) == 0 {
                                continue;
                            }
                            let mut read = |r: Reg| regs[r as usize * b + lane as usize];
                            if pred.eval(i64::from(lane), block, loops, &mut read) {
                                then_mask |= 1 << lane;
                            }
                        }
                    }
                    let else_mask = parent & !then_mask;
                    if then_mask != 0 && !then_body.is_empty() {
                        self.masks.push(then_mask);
                        self.frames.push(Frame {
                            body: then_body,
                            idx: 0,
                            kind: FrameKind::Arm {
                                pending_else: Some((else_mask, else_body.as_slice())),
                            },
                        });
                    } else if else_mask != 0 && !else_body.is_empty() {
                        self.masks.push(else_mask);
                        self.frames.push(Frame {
                            body: else_body,
                            idx: 0,
                            kind: FrameKind::Arm { pending_else: None },
                        });
                    }
                    return Ok(StepEvent::Compute { cycles: 1 }); // predicate evaluation
                }
                Instr::Sync => return Ok(StepEvent::Compute { cycles: 1 }),
                Instr::Alu { op, dst, a, b } => {
                    let mask = self.mask();
                    for lane in 0..self.b {
                        if mask & (1 << lane) == 0 {
                            continue;
                        }
                        let va = self.operand(*a, lane);
                        let vb = self.operand(*b, lane);
                        self.set_reg(*dst, lane, op.apply(va, vb));
                    }
                    return Ok(StepEvent::Compute { cycles: op.issue_cycles() });
                }
                Instr::Mov { dst, src } => {
                    let mask = self.mask();
                    for lane in 0..self.b {
                        if mask & (1 << lane) == 0 {
                            continue;
                        }
                        let v = self.operand(*src, lane);
                        self.set_reg(*dst, lane, v);
                    }
                    return Ok(StepEvent::Compute { cycles: 1 });
                }
                Instr::LdShr { dst, shared } => {
                    let mask = self.mask();
                    self.eval_addrs(shared, mask);
                    let degree = self.conflict_degree(shared, mask);
                    for lane in 0..self.b {
                        if mask & (1 << lane) == 0 {
                            continue;
                        }
                        let addr = self.addr_buf[lane as usize];
                        let v = self.smem.read(addr).ok_or_else(|| self.oob_shared(addr))?;
                        self.set_reg(*dst, lane, v);
                    }
                    return Ok(StepEvent::Shared { degree });
                }
                Instr::StShr { shared, src } => {
                    let mask = self.mask();
                    self.eval_addrs(shared, mask);
                    let degree = self.conflict_degree(shared, mask);
                    for lane in 0..self.b {
                        if mask & (1 << lane) == 0 {
                            continue;
                        }
                        let addr = self.addr_buf[lane as usize];
                        let v = self.operand(*src, lane);
                        if !self.smem.write(addr, v) {
                            return Err(self.oob_shared(addr));
                        }
                    }
                    return Ok(StepEvent::Shared { degree });
                }
                Instr::GlbToShr { shared, global } => {
                    let mask = self.mask();
                    let gbase = self.bases[global.buf.0 as usize] as i64;
                    // Global addresses first (into addr_buf), coalesce.
                    let monotone = self.eval_addrs(&global.offset, mask);
                    for lane in 0..self.b {
                        if mask & (1 << lane) != 0 {
                            self.addr_buf[lane as usize] += gbase;
                        }
                    }
                    let txns = self.coalesce_txns(mask, monotone);
                    // Read global values.
                    let mut vals = [0i64; 64];
                    for lane in 0..self.b {
                        if mask & (1 << lane) == 0 {
                            continue;
                        }
                        let addr = self.addr_buf[lane as usize];
                        vals[lane as usize] =
                            gmem.read(addr).ok_or_else(|| self.oob_global(addr, gmem.len()))?;
                    }
                    // Shared addresses, conflict degree, stores.
                    self.eval_addrs(shared, mask);
                    let degree = self.conflict_degree(shared, mask);
                    for lane in 0..self.b {
                        if mask & (1 << lane) == 0 {
                            continue;
                        }
                        let addr = self.addr_buf[lane as usize];
                        if !self.smem.write(addr, vals[lane as usize]) {
                            return Err(self.oob_shared(addr));
                        }
                    }
                    return Ok(StepEvent::Global { txns, issue: degree });
                }
                Instr::ShrToGlb { global, shared } => {
                    let mask = self.mask();
                    let gbase = self.bases[global.buf.0 as usize] as i64;
                    // Shared reads first.
                    self.eval_addrs(shared, mask);
                    let degree = self.conflict_degree(shared, mask);
                    let mut vals = [0i64; 64];
                    for lane in 0..self.b {
                        if mask & (1 << lane) == 0 {
                            continue;
                        }
                        let addr = self.addr_buf[lane as usize];
                        vals[lane as usize] =
                            self.smem.read(addr).ok_or_else(|| self.oob_shared(addr))?;
                    }
                    // Global addresses, coalesce, write.
                    let monotone = self.eval_addrs(&global.offset, mask);
                    for lane in 0..self.b {
                        if mask & (1 << lane) != 0 {
                            self.addr_buf[lane as usize] += gbase;
                        }
                    }
                    let txns = self.coalesce_txns(mask, monotone);
                    let block = self.block;
                    for lane in 0..self.b {
                        if mask & (1 << lane) == 0 {
                            continue;
                        }
                        let addr = self.addr_buf[lane as usize];
                        if !gmem.write(addr, vals[lane as usize], block) {
                            return Err(self.oob_global(addr, gmem.len()));
                        }
                    }
                    return Ok(StepEvent::Global { txns, issue: degree });
                }
            }
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use atgpu_ir::{AddrExpr, AluOp, DBuf, KernelBuilder, Operand, PredExpr};

    fn run_to_completion(
        kernel: &Kernel,
        bases: &[u64],
        gmem: &mut GlobalMemory,
        b: u32,
        block: u64,
    ) -> (Vec<StepEvent>, WarpExec<'static>) {
        // Leak kernel/bases for 'static in tests only.
        let kernel: &'static Kernel = Box::leak(Box::new(kernel.clone()));
        let bases: &'static [u64] = Box::leak(bases.to_vec().into_boxed_slice());
        let nregs = kernel.max_reg().map(|r| u32::from(r) + 1).unwrap_or(1);
        let mut w = WarpExec::new(kernel, bases, b, nregs);
        w.reset(block);
        let mut events = Vec::new();
        let mut access = GmemAccess::Direct(gmem);
        loop {
            let e = w.step(&mut access).unwrap();
            if e == StepEvent::Done {
                break;
            }
            events.push(e);
        }
        (events, w)
    }

    #[test]
    fn vecadd_block_computes_and_coalesces() {
        let b = 4u32;
        let n = 8u64;
        let mut g = GlobalMemory::new(vec![0, 8, 16], 24, 4, 1 << 20).unwrap();
        for i in 0..n {
            g.write(i as i64, i as i64 + 1); // a = 1..8
            g.write(8 + i as i64, 10); // b = 10
        }
        let mut kb = KernelBuilder::new("vecadd", 2, 12);
        let gaddr = AddrExpr::block() * 4 + AddrExpr::lane();
        kb.glb_to_shr(AddrExpr::lane(), DBuf(0), gaddr.clone());
        kb.glb_to_shr(AddrExpr::lane() + 4, DBuf(1), gaddr.clone());
        kb.ld_shr(0, AddrExpr::lane());
        kb.ld_shr(1, AddrExpr::lane() + 4);
        kb.alu(AluOp::Add, 2, Operand::Reg(0), Operand::Reg(1));
        kb.st_shr(AddrExpr::lane() + 8, Operand::Reg(2));
        kb.shr_to_glb(DBuf(2), gaddr, AddrExpr::lane() + 8);
        let k = kb.build();

        for block in 0..2 {
            let (events, _) = run_to_completion(&k, &[0, 8, 16], &mut g, b, block);
            let txns: u32 = events
                .iter()
                .map(|e| if let StepEvent::Global { txns, .. } = e { *txns } else { 0 })
                .sum();
            assert_eq!(txns, 3, "one coalesced txn per buffer access");
        }
        for i in 0..n {
            assert_eq!(g.read(16 + i as i64), Some(i as i64 + 1 + 10), "i={i}");
        }
    }

    #[test]
    fn strided_access_splits_transactions() {
        let mut g = GlobalMemory::new(vec![0], 64, 4, 1 << 20).unwrap();
        let mut kb = KernelBuilder::new("strided", 1, 4);
        kb.glb_to_shr(AddrExpr::lane(), DBuf(0), AddrExpr::lane() * 4);
        let k = kb.build();
        let (events, _) = run_to_completion(&k, &[0], &mut g, 4, 0);
        assert_eq!(events, vec![StepEvent::Global { txns: 4, issue: 1 }]);
    }

    #[test]
    fn divergence_masks_lanes_and_runs_both_arms() {
        let mut g = GlobalMemory::new(vec![0], 16, 4, 1 << 20).unwrap();
        let mut kb = KernelBuilder::new("div", 1, 4);
        kb.mov(0, Operand::Imm(7));
        kb.pred(
            PredExpr::Lt(Operand::Lane, Operand::Imm(2)),
            |kb| {
                kb.mov(0, Operand::Imm(1));
            },
            |kb| {
                kb.mov(0, Operand::Imm(2));
            },
        );
        kb.st_shr(AddrExpr::lane(), Operand::Reg(0));
        let k = kb.build();
        let (events, w) = run_to_completion(&k, &[0], &mut g, 4, 0);
        // mov, pred, then-mov, else-mov, store
        assert_eq!(events.len(), 5);
        assert_eq!(w.smem.read(0), Some(1));
        assert_eq!(w.smem.read(1), Some(1));
        assert_eq!(w.smem.read(2), Some(2));
        assert_eq!(w.smem.read(3), Some(2));
    }

    #[test]
    fn fully_untaken_arm_is_skipped() {
        let mut g = GlobalMemory::new(vec![0], 16, 4, 1 << 20).unwrap();
        let mut kb = KernelBuilder::new("skip", 1, 4);
        kb.pred(
            PredExpr::Lt(Operand::Lane, Operand::Imm(99)), // all lanes
            |kb| {
                kb.mov(0, Operand::Imm(1));
            },
            |kb| {
                kb.mov(0, Operand::Imm(2));
                kb.mov(1, Operand::Imm(3));
            },
        );
        let k = kb.build();
        let (events, _) = run_to_completion(&k, &[0], &mut g, 4, 0);
        // pred + then-mov only; the 2-instruction else arm never runs.
        assert_eq!(events.len(), 2);
    }

    #[test]
    fn nested_divergence() {
        let mut g = GlobalMemory::new(vec![0], 16, 4, 1 << 20).unwrap();
        let mut kb = KernelBuilder::new("nested", 1, 4);
        kb.when(PredExpr::Lt(Operand::Lane, Operand::Imm(3)), |kb| {
            kb.when(PredExpr::Lt(Operand::Lane, Operand::Imm(1)), |kb| {
                kb.mov(0, Operand::Imm(9));
            });
            kb.st_shr(AddrExpr::lane(), Operand::Reg(0));
        });
        let k = kb.build();
        let (_, w) = run_to_completion(&k, &[0], &mut g, 4, 0);
        assert_eq!(w.smem.read(0), Some(9)); // lane 0: inner taken
        assert_eq!(w.smem.read(1), Some(0)); // lane 1: inner untaken
        assert_eq!(w.smem.read(2), Some(0));
        assert_eq!(w.smem.read(3), Some(0)); // lane 3: outer untaken, no store
    }

    #[test]
    fn loop_iterations_see_loop_var() {
        let mut g = GlobalMemory::new(vec![0], 16, 4, 1 << 20).unwrap();
        let mut kb = KernelBuilder::new("loop", 1, 8);
        kb.mov(0, Operand::Imm(0));
        kb.repeat(5, |kb| {
            kb.alu(AluOp::Add, 0, Operand::Reg(0), Operand::LoopVar(0));
        });
        kb.st_shr(AddrExpr::lane(), Operand::Reg(0));
        let k = kb.build();
        let (_, w) = run_to_completion(&k, &[0], &mut g, 4, 0);
        assert_eq!(w.smem.read(0), Some(10)); // 0+1+2+3+4
    }

    #[test]
    fn nested_loops_and_loop_vars() {
        let mut g = GlobalMemory::new(vec![0], 16, 4, 1 << 20).unwrap();
        let mut kb = KernelBuilder::new("nest", 1, 8);
        kb.mov(0, Operand::Imm(0));
        kb.repeat(3, |kb| {
            kb.repeat(4, |kb| {
                kb.alu(AluOp::Mul, 1, Operand::LoopVar(0), Operand::Imm(10));
                kb.alu(AluOp::Add, 1, Operand::Reg(1), Operand::LoopVar(1));
                kb.alu(AluOp::Add, 0, Operand::Reg(0), Operand::Reg(1));
            });
        });
        kb.st_shr(AddrExpr::lane(), Operand::Reg(0));
        let k = kb.build();
        let (_, w) = run_to_completion(&k, &[0], &mut g, 4, 0);
        // sum over t0<3,t1<4 of (10*t0 + t1) = 120 + 18
        assert_eq!(w.smem.read(0), Some(138));
    }

    #[test]
    fn zero_trip_loop_executes_nothing() {
        let mut g = GlobalMemory::new(vec![0], 16, 4, 1 << 20).unwrap();
        let mut kb = KernelBuilder::new("z", 1, 4);
        kb.repeat(0, |kb| {
            kb.mov(0, Operand::Imm(1));
        });
        kb.st_shr(AddrExpr::lane(), Operand::Reg(0));
        let k = kb.build();
        let (events, w) = run_to_completion(&k, &[0], &mut g, 4, 0);
        assert_eq!(events.len(), 1); // just the store
        assert_eq!(w.smem.read(0), Some(0));
    }

    #[test]
    fn bank_conflicts_detected_at_stride_two() {
        let mut g = GlobalMemory::new(vec![0], 16, 4, 1 << 20).unwrap();
        let mut kb = KernelBuilder::new("conflict", 1, 8);
        kb.st_shr(AddrExpr::lane() * 2, Operand::Imm(1));
        let k = kb.build();
        // b = 4 banks, stride 2 -> gcd(2,4) = 2-way conflict.
        let (events, _) = run_to_completion(&k, &[0], &mut g, 4, 0);
        assert_eq!(events, vec![StepEvent::Shared { degree: 2 }]);
    }

    #[test]
    fn broadcast_is_conflict_free() {
        let mut g = GlobalMemory::new(vec![0], 16, 4, 1 << 20).unwrap();
        let mut kb = KernelBuilder::new("bcast", 1, 4);
        kb.st_shr(AddrExpr::c(2), Operand::Imm(5));
        kb.ld_shr(0, AddrExpr::c(2));
        let k = kb.build();
        let (events, _) = run_to_completion(&k, &[0], &mut g, 4, 0);
        assert_eq!(events, vec![StepEvent::Shared { degree: 1 }, StepEvent::Shared { degree: 1 }]);
    }

    #[test]
    fn data_dependent_conflict_measured() {
        // All lanes store to address lane*4 mod 16 -> all in bank 0 with
        // distinct addresses: 4-way conflict (via register addressing, so
        // the general path is used).
        let mut g = GlobalMemory::new(vec![0], 16, 4, 1 << 20).unwrap();
        let mut kb = KernelBuilder::new("ddep", 1, 16);
        kb.alu(AluOp::Mul, 0, Operand::Lane, Operand::Imm(4));
        kb.st_shr(AddrExpr::reg(0), Operand::Imm(1));
        let k = kb.build();
        let (events, _) = run_to_completion(&k, &[0], &mut g, 4, 0);
        assert_eq!(events[1], StepEvent::Shared { degree: 4 });
    }

    #[test]
    fn shared_out_of_bounds_reported() {
        let mut g = GlobalMemory::new(vec![0], 16, 4, 1 << 20).unwrap();
        let mut kb = KernelBuilder::new("oob", 1, 4);
        kb.st_shr(AddrExpr::lane() + 2, Operand::Imm(1)); // lane 2 -> addr 4
        let k: &'static Kernel = Box::leak(Box::new(kb.build()));
        let mut w = WarpExec::new(k, &[], 4, 1);
        let mut access = GmemAccess::Direct(&mut g);
        let err = w.step(&mut access).unwrap_err();
        assert!(matches!(err, SimError::SharedOutOfBounds { addr: 4, size: 4, .. }));
    }

    #[test]
    fn global_out_of_bounds_reported() {
        let mut g = GlobalMemory::new(vec![0], 8, 4, 1 << 20).unwrap();
        let mut kb = KernelBuilder::new("goob", 1, 4);
        kb.glb_to_shr(AddrExpr::lane(), DBuf(0), AddrExpr::lane() + 6);
        let k: &'static Kernel = Box::leak(Box::new(kb.build()));
        let bases: &'static [u64] = Box::leak(vec![0u64].into_boxed_slice());
        let mut w = WarpExec::new(k, bases, 4, 1);
        let mut access = GmemAccess::Direct(&mut g);
        let err = w.step(&mut access).unwrap_err();
        assert!(matches!(err, SimError::GlobalOutOfBounds { .. }));
    }

    #[test]
    fn logged_writes_defer() {
        let g = GlobalMemory::new(vec![0], 8, 4, 1 << 20).unwrap();
        let mut kb = KernelBuilder::new("log", 1, 4);
        kb.st_shr(AddrExpr::lane(), Operand::Lane);
        kb.shr_to_glb(DBuf(0), AddrExpr::lane(), AddrExpr::lane());
        let k: &'static Kernel = Box::leak(Box::new(kb.build()));
        let bases: &'static [u64] = Box::leak(vec![0u64].into_boxed_slice());
        let mut w = WarpExec::new(k, bases, 4, 1);
        w.reset(3);
        let mut log = Vec::new();
        let mut access = GmemAccess::Logged { base: &g, log: &mut log };
        while w.step(&mut access).unwrap() != StepEvent::Done {}
        assert_eq!(g.read(1), Some(0)); // unchanged
        assert_eq!(log.len(), 4);
        assert_eq!(log[1], WriteRec { addr: 1, val: 1, block: 3 });
    }

    #[test]
    fn data_dependent_gather_works() {
        let mut g = GlobalMemory::new(vec![0], 8, 4, 1 << 20).unwrap();
        for i in 0..4 {
            g.write(i, 100 + i);
        }
        let mut kb = KernelBuilder::new("gather", 1, 4);
        kb.alu(AluOp::Sub, 0, Operand::Imm(3), Operand::Lane);
        kb.glb_to_shr(AddrExpr::lane(), DBuf(0), AddrExpr::reg(0));
        let k = kb.build();
        let (_, w) = run_to_completion(&k, &[0], &mut g, 4, 0);
        assert_eq!(w.smem.read(0), Some(103));
        assert_eq!(w.smem.read(3), Some(100));
    }

    #[test]
    fn reset_reuses_allocations() {
        let g = GlobalMemory::new(vec![0], 8, 4, 1 << 20).unwrap();
        let mut kb = KernelBuilder::new("r", 2, 4);
        kb.st_shr(AddrExpr::lane(), Operand::Block);
        let k: &'static Kernel = Box::leak(Box::new(kb.build()));
        let bases: &'static [u64] = Box::leak(vec![0u64].into_boxed_slice());
        let mut gm = g;
        let mut w = WarpExec::new(k, bases, 4, 1);
        let mut access = GmemAccess::Direct(&mut gm);
        while w.step(&mut access).unwrap() != StepEvent::Done {}
        assert_eq!(w.smem.read(0), Some(0));
        w.reset(1);
        let mut access = GmemAccess::Direct(&mut gm);
        assert_eq!(w.smem.read(0), Some(0)); // cleared
        while w.step(&mut access).unwrap() != StepEvent::Done {}
        assert_eq!(w.smem.read(0), Some(1)); // new block id
    }
}
