//! A multiprocessor: occupancy-limited resident blocks, ready-time warp
//! scheduling, latency hiding.
//!
//! The MP issues one instruction per cycle (serialised further by bank
//! conflicts).  When a warp issues a global access it *stalls* until the
//! memory controller delivers, but the MP keeps issuing from other
//! resident warps — the latency hiding the paper describes.  Blocks are
//! pulled from the launch queue whenever a residency slot frees, up to
//! `ℓ = min(⌊M/m⌋, H)` concurrent blocks.
//!
//! The MP is generic over the block executor ([`BlockSim`]): the micro-op
//! engine ([`crate::engine::BlockExec`]) or the tree-walking reference
//! ([`crate::warp::WarpExec`]).  For replayable kernels the MP also hosts
//! the **timing-replay cache**: the first block it admits records its
//! memory-event trace; once that block retires, every subsequently
//! admitted block replays the trace instead of re-analysing accesses.

use crate::device::KernelStats;
use crate::dram::DramController;
use crate::engine::BlockSim;
use crate::error::SimError;
use crate::warp::{GmemAccess, StepEvent};
use std::sync::Arc;

/// A multiprocessor simulating up to `ell` resident blocks.
///
/// Wake-up times live in a dense array parallel to the executors, and
/// the earliest slot is cached — the scheduler pays one O(ℓ) refresh per
/// issued instruction instead of a scan per query.
pub struct Mp<E> {
    /// The MP's current cycle (issue clock).
    pub clock: u64,
    warps: Vec<E>,
    /// Wake-up time of each resident warp (parallel to `warps`).
    ready: Vec<u64>,
    /// Tournament tree over `ready`: O(log ℓ) winner maintenance per
    /// issued instruction, with (time, index) tie-breaking identical to a
    /// first-minimum scan.
    tree: MinTree,
    /// Finished-warp pool for reuse (workhorse allocation pattern).
    spare: Vec<E>,
    ell: usize,
    /// This MP's share of the launch's counters (instructions, accesses,
    /// transactions, conflict and stall cycles, blocks retired); the
    /// launch-wide fields — `cycles`, `dram_queue_cycles`, `occupancy` —
    /// stay zero here and are set by the device.
    pub stats: KernelStats,
    /// Cycle at which the last block retired.
    pub last_retire: u64,
    /// Whether the kernel qualifies for timing replay.
    replay: bool,
    /// The recorded memory-event trace, once a block completed recording.
    trace: Option<Arc<[StepEvent]>>,
    /// A resident block is currently recording.
    recording: bool,
}

impl<E: BlockSim> Mp<E> {
    /// Creates an MP with `ell` residency slots (no replay).
    pub fn new(ell: u64) -> Self {
        Self::with_replay(ell, false)
    }

    /// Creates an MP with `ell` residency slots; `replay` enables the
    /// block-invariant timing-replay cache (the caller asserts the kernel
    /// qualifies, i.e. `CompiledKernel::replayable`).
    pub fn with_replay(ell: u64, replay: bool) -> Self {
        Self::with_trace(ell, replay, None)
    }

    /// [`Self::with_replay`] seeded with a trace recorded by an earlier
    /// launch of the same compiled kernel (the cross-launch kernel
    /// cache): every admitted block replays immediately — no first-block
    /// recording warmup.  `trace` is ignored unless `replay` holds.
    pub fn with_trace(ell: u64, replay: bool, trace: Option<Arc<[StepEvent]>>) -> Self {
        let ell = ell as usize;
        Self {
            clock: 0,
            warps: Vec::with_capacity(ell),
            ready: Vec::with_capacity(ell),
            tree: MinTree::new(ell),
            spare: Vec::new(),
            ell,
            stats: KernelStats::default(),
            last_retire: 0,
            replay,
            trace: if replay { trace } else { None },
            recording: false,
        }
    }

    /// The completed memory-event trace, once a recording block retired
    /// (or the seed passed to [`Self::with_trace`]).  The device layer
    /// harvests this into the cross-launch cache after a launch.
    pub fn recorded_trace(&self) -> Option<&Arc<[StepEvent]>> {
        self.trace.as_ref()
    }

    /// True when no blocks are resident.
    pub fn idle(&self) -> bool {
        self.warps.is_empty()
    }

    /// Number of free residency slots.
    pub fn free_slots(&self) -> usize {
        self.ell - self.warps.len()
    }

    /// Admits a block, reusing a pooled executor when available.
    pub fn admit(&mut self, block: u64, make: impl FnOnce() -> E) {
        debug_assert!(self.warps.len() < self.ell);
        let mut warp = self.spare.pop().unwrap_or_else(make);
        warp.reset(block);
        if self.replay {
            if let Some(trace) = &self.trace {
                warp.begin_replay(Arc::clone(trace));
            } else if !self.recording {
                warp.begin_record();
                self.recording = true;
            }
        }
        self.warps.push(warp);
        self.ready.push(self.clock);
        self.tree.set(&self.ready, self.ready.len() - 1);
    }

    /// Executes one scheduling decision: picks the warp with the earliest
    /// wake-up time, advances the clock, issues its next instruction.
    /// Returns `Ok(true)` if a block retired (a slot freed).
    pub fn step(
        &mut self,
        gmem: &mut GmemAccess<'_>,
        dram: &mut DramController,
    ) -> Result<bool, SimError> {
        debug_assert!(!self.warps.is_empty(), "step() requires a resident block");
        let idx = self.tree.winner();
        let ready = self.ready[idx];
        if ready > self.clock {
            self.stats.stall_cycles += ready - self.clock;
            self.clock = ready;
        }
        let event = self.warps[idx].step(gmem)?;
        match event {
            StepEvent::Compute { cycles } => {
                self.clock += u64::from(cycles.max(1));
                self.stats.instructions += 1;
                self.stats.compute_instructions += 1;
                self.ready[idx] = self.clock;
            }
            StepEvent::Shared { degree } => {
                let d = u64::from(degree.max(1));
                self.clock += d;
                self.stats.instructions += 1;
                self.stats.shared_accesses += 1;
                self.stats.bank_conflict_cycles += d - 1;
                self.ready[idx] = self.clock;
            }
            StepEvent::Global { txns, issue } => {
                let d = u64::from(issue.max(1));
                self.clock += d;
                self.stats.instructions += 1;
                self.stats.global_accesses += 1;
                self.stats.bank_conflict_cycles += d - 1;
                self.stats.global_txns += u64::from(txns);
                self.ready[idx] = dram.access(self.clock, u64::from(txns));
            }
            StepEvent::Done => {
                let mut warp = self.warps.swap_remove(idx);
                self.ready.swap_remove(idx);
                if self.recording {
                    if let Some(trace) = warp.take_trace() {
                        self.trace = Some(trace);
                        self.recording = false;
                    }
                }
                self.spare.push(warp);
                self.stats.blocks += 1;
                self.last_retire = self.clock;
                // The tail slot moved into `idx`; the old tail is gone.
                if idx < self.ready.len() {
                    self.tree.set(&self.ready, idx);
                }
                self.tree.set(&self.ready, self.ready.len());
                return Ok(true);
            }
        }
        self.tree.set(&self.ready, idx);
        Ok(false)
    }

    /// The earliest cycle at which this MP can do useful work (its next
    /// warp wake-up), used by the device's global-time event loop.
    #[inline]
    pub fn next_event(&self) -> Option<u64> {
        if self.warps.is_empty() {
            None
        } else {
            Some(self.ready[self.tree.winner()].max(self.clock))
        }
    }
}

/// A winner (tournament) tree over the `ready` array: leaves are slot
/// indices keyed by `(ready_at, index)`, internal nodes hold the winning
/// leaf of their subtree.  `set(i)` recomputes one leaf-to-root path —
/// O(log ℓ) instead of an O(ℓ) scan per issued instruction — and the
/// `(time, index)` order makes the winner identical to a first-minimum
/// scan.
struct MinTree {
    /// Leaf capacity (power of two, ≥ 1).
    cap: usize,
    /// `node[n]` = winning leaf index of subtree `n`; leaves at
    /// `cap..2·cap` hold their own index.  `usize::MAX` marks an empty
    /// leaf.
    node: Vec<usize>,
}

impl MinTree {
    fn new(ell: usize) -> Self {
        let cap = ell.max(1).next_power_of_two();
        Self { cap, node: vec![usize::MAX; 2 * cap] }
    }

    #[inline]
    fn key(ready: &[u64], leaf: usize) -> (u64, usize) {
        match ready.get(leaf) {
            Some(&r) => (r, leaf),
            None => (u64::MAX, usize::MAX),
        }
    }

    /// Re-evaluates leaf `i` (its key changed, appeared or vanished) and
    /// its ancestors.
    fn set(&mut self, ready: &[u64], i: usize) {
        debug_assert!(i < self.cap);
        self.node[self.cap + i] = if i < ready.len() { i } else { usize::MAX };
        let mut n = (self.cap + i) >> 1;
        while n >= 1 {
            let (l, r) = (self.node[2 * n], self.node[2 * n + 1]);
            self.node[n] = if Self::key(ready, l) <= Self::key(ready, r) { l } else { r };
            n >>= 1;
        }
    }

    /// The winning (earliest-ready, lowest-index) leaf.  Only valid while
    /// at least one leaf is occupied.
    #[inline]
    fn winner(&self) -> usize {
        self.node[1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::BlockExec;
    use crate::gmem::GlobalMemory;
    use crate::uop::CompiledKernel;
    use crate::warp::WarpExec;
    use atgpu_ir::{AddrExpr, DBuf, Kernel, KernelBuilder, Operand};

    fn leak(k: Kernel) -> &'static Kernel {
        Box::leak(Box::new(k))
    }

    fn compute_kernel(n_ops: usize) -> &'static Kernel {
        let mut kb = KernelBuilder::new("c", 4, 0);
        for _ in 0..n_ops {
            kb.mov(0, Operand::Imm(1));
        }
        leak(kb.build())
    }

    fn compile(k: &Kernel, bases: &[u64]) -> CompiledKernel {
        let nregs = k.max_reg().map(|r| u32::from(r) + 1).unwrap_or(1);
        CompiledKernel::compile(k, bases, 4, nregs)
    }

    #[test]
    fn single_warp_issues_serially() {
        let k = compute_kernel(5);
        let ck = compile(k, &[]);
        let mut g = GlobalMemory::new(vec![], 0, 4, 1024).unwrap();
        let mut dram = DramController::new(4, 100);
        let mut mp = Mp::new(2);
        mp.admit(0, || BlockExec::new(&ck));
        let mut acc = GmemAccess::Direct(&mut g);
        let mut retired = 0;
        while !mp.idle() {
            if mp.step(&mut acc, &mut dram).unwrap() {
                retired += 1;
            }
        }
        assert_eq!(retired, 1);
        assert_eq!(mp.clock, 5);
        assert_eq!(mp.stats.instructions, 5);
    }

    #[test]
    fn latency_hiding_with_two_warps() {
        // Kernel: one global load then 10 compute ops.
        let mut kb = KernelBuilder::new("lh", 2, 4);
        kb.glb_to_shr(AddrExpr::lane(), DBuf(0), AddrExpr::block() * 4 + AddrExpr::lane());
        for _ in 0..10 {
            kb.mov(0, Operand::Imm(1));
        }
        let k = leak(kb.build());
        let ck = compile(k, &[0]);

        // One warp alone: 1 issue + 100 latency + 10 compute ≈ 111.
        let mut g = GlobalMemory::new(vec![0], 8, 4, 1024).unwrap();
        let mut dram = DramController::new(4, 100);
        let mut mp = Mp::new(1);
        mp.admit(0, || BlockExec::new(&ck));
        let mut acc = GmemAccess::Direct(&mut g);
        while !mp.idle() {
            mp.step(&mut acc, &mut dram).unwrap();
        }
        let solo = mp.clock;
        assert_eq!(solo, 111);

        // Two warps resident: the second's compute hides under the first's
        // memory latency, finishing well before 2x solo.
        let mut g = GlobalMemory::new(vec![0], 8, 4, 1024).unwrap();
        let mut dram = DramController::new(4, 100);
        let mut mp = Mp::new(2);
        mp.admit(0, || BlockExec::new(&ck));
        mp.admit(1, || BlockExec::new(&ck));
        let mut acc = GmemAccess::Direct(&mut g);
        while !mp.idle() {
            mp.step(&mut acc, &mut dram).unwrap();
        }
        let duo = mp.clock;
        assert!(duo < 2 * solo - 50, "latency not hidden: solo={solo} duo={duo}");
        assert_eq!(mp.stats.blocks, 2);
    }

    #[test]
    fn stall_cycles_recorded_when_nothing_ready() {
        let mut kb = KernelBuilder::new("s", 1, 4);
        kb.glb_to_shr(AddrExpr::lane(), DBuf(0), AddrExpr::lane());
        kb.mov(0, Operand::Imm(1));
        let k = leak(kb.build());
        let ck = compile(k, &[0]);
        let mut g = GlobalMemory::new(vec![0], 8, 4, 1024).unwrap();
        let mut dram = DramController::new(4, 100);
        let mut mp = Mp::new(1);
        mp.admit(0, || BlockExec::new(&ck));
        let mut acc = GmemAccess::Direct(&mut g);
        while !mp.idle() {
            mp.step(&mut acc, &mut dram).unwrap();
        }
        assert_eq!(mp.stats.stall_cycles, 100); // full exposed latency
    }

    #[test]
    fn spare_pool_reused_across_blocks() {
        let k = compute_kernel(1);
        let ck = compile(k, &[]);
        let mut g = GlobalMemory::new(vec![], 0, 4, 1024).unwrap();
        let mut dram = DramController::new(4, 100);
        let mut mp = Mp::new(1);
        let mut made = 0;
        for block in 0..3 {
            mp.admit(block, || {
                made += 1;
                BlockExec::new(&ck)
            });
            let mut acc = GmemAccess::Direct(&mut g);
            while !mp.idle() {
                mp.step(&mut acc, &mut dram).unwrap();
            }
        }
        assert_eq!(made, 1, "executor should be pooled and reused");
        assert_eq!(mp.stats.blocks, 3);
    }

    #[test]
    fn reference_warp_drives_mp_too() {
        let k = compute_kernel(5);
        let bases: &'static [u64] = &[];
        let mut g = GlobalMemory::new(vec![], 0, 4, 1024).unwrap();
        let mut dram = DramController::new(4, 100);
        let mut mp = Mp::new(2);
        mp.admit(0, || WarpExec::new(k, bases, 4, 1));
        let mut acc = GmemAccess::Direct(&mut g);
        while !mp.idle() {
            mp.step(&mut acc, &mut dram).unwrap();
        }
        assert_eq!(mp.clock, 5);
    }

    #[test]
    fn replay_cache_records_then_replays() {
        // A replayable kernel: unit-stride load, compute, store.
        let mut kb = KernelBuilder::new("r", 8, 8);
        kb.glb_to_shr(AddrExpr::lane(), DBuf(0), AddrExpr::block() * 4 + AddrExpr::lane());
        kb.ld_shr(0, AddrExpr::lane());
        kb.st_shr(AddrExpr::lane() + 4, Operand::Reg(0));
        let k = leak(kb.build());
        let ck = compile(k, &[0]);
        assert!(ck.replayable);

        let mut g = GlobalMemory::new(vec![0], 32, 4, 1024).unwrap();
        for i in 0..32 {
            g.write(i, i);
        }
        let mut dram = DramController::new(4, 10);
        let mut mp = Mp::with_replay(2, true);
        let mut next_block = 0u64;
        while mp.free_slots() > 0 && next_block < 8 {
            mp.admit(next_block, || BlockExec::new(&ck));
            next_block += 1;
        }
        let mut acc = GmemAccess::Direct(&mut g);
        while !mp.idle() {
            if mp.step(&mut acc, &mut dram).unwrap() && next_block < 8 {
                mp.admit(next_block, || BlockExec::new(&ck));
                next_block += 1;
            }
        }
        assert_eq!(mp.stats.blocks, 8);
        assert!(mp.trace.is_some(), "trace captured after first retirement");
        // Timing statistics reflect all blocks' memory events.
        assert_eq!(mp.stats.global_txns, 8);
        assert_eq!(mp.stats.shared_accesses, 16);
    }
}
