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
//! # The scheduling rule
//!
//! Every resident block has a wake-up cycle `ready` and a position
//! `index` in the MP's dense residency order (admission appends; a
//! retirement moves the tail into the freed position).  The MP always
//! issues from the block with the **smallest `(ready, index)`** — the
//! first minimum of a scan over the dense order — stalling its clock
//! forward to `ready` when nothing is ready sooner.  That one rule is
//! stated in one place, the key: a block's `(ready, index)` packed into a
//! `u128` (`ready` in the high 64 bits, `index` in the low 64 — no bit is
//! taken from the cycle count), ordered as an integer.  The keys sit *in*
//! the nodes of a tournament tree (`KeyTree`): an update is `log₂ cap`
//! `min`s along one leaf-to-root path with no indirection, the winner and
//! its wake-up time are the root, and an empty leaf is `u128::MAX`.  The
//! leaves are the only copy of the wake-up times.
//!
//! Executors are held behind a pointer and never moved while resident:
//! admission and retirement move one word between the dense order and
//! the spare pool, and everything the MP allocates grows with the blocks
//! it is actually given, not with `ℓ` (which a valid spec can make
//! astronomically large).  What one instruction works in — the executor's
//! [`BlockSim::Scratch`] — the MP owns once and lends to whichever
//! resident issues.
//!
//! # Across launches
//!
//! An MP outlives its launch: a [`crate::Device`] keeps its MPs and
//! hands each one back to the next launch through [`Mp::rearm`], which
//! zeroes the clock and counters and keeps every allocation — the key
//! tree, the resident and spare vectors, the scratch.  Executors go back
//! to the device after the launch ([`Mp::release`]) and return through
//! admission's `make`.  So a launch no larger than earlier ones
//! allocates nothing here: no tree growth, no vector doubling, no boxed
//! executor, no register or shared row (admission re-fits a kept
//! executor's rows within their capacity).  More residents on an MP than
//! it ever held grow its tree and vectors, by doubling; more residents in
//! all than the device keeps executors for box one executor per extra
//! resident; more registers or shared words than a kept executor's rows
//! hold grow those rows — each once.
//!
//! The MP is generic over the block executor ([`BlockSim`]): the micro-op
//! engine ([`crate::engine::BlockExec`]) or the tree-walking reference
//! ([`crate::warp::WarpExec`]).

use crate::device::KernelStats;
use crate::dram::DramController;
use crate::engine::BlockSim;
use crate::error::SimError;
use crate::warp::{GmemAccess, StepEvent};

/// A multiprocessor simulating up to `ell` resident blocks.
pub struct Mp<E: BlockSim> {
    /// The MP's current cycle (issue clock).
    pub clock: u64,
    /// Resident executors in dense order.  Boxed: admission, retirement
    /// and the tail's move into a retired position shuffle pointers, never
    /// the executors.
    warps: Vec<Box<E>>,
    /// The residents' `(ready, index)` keys, `index` being the position in
    /// `warps` (see the module docs).
    tree: KeyTree,
    /// Finished-warp pool for reuse (workhorse allocation pattern).
    spare: Vec<Box<E>>,
    ell: usize,
    /// The one per-instruction scratch, lent to every step.
    scratch: E::Scratch,
    /// This MP's share of the launch's counters (instructions, accesses,
    /// transactions, conflict and stall cycles, blocks retired); the
    /// launch-wide fields — `cycles`, `dram_queue_cycles`, `occupancy` —
    /// stay zero here and are set by the device.
    pub stats: KernelStats,
    /// Cycle at which the last block retired.
    pub last_retire: u64,
}

impl<E: BlockSim> Mp<E> {
    /// Creates an MP with `ell` residency slots.
    pub fn new(ell: u64) -> Self {
        let mut mp = Self {
            clock: 0,
            warps: Vec::new(),
            tree: KeyTree::default(),
            spare: Vec::new(),
            ell: 0,
            scratch: E::Scratch::default(),
            stats: KernelStats::default(),
            last_retire: 0,
        };
        mp.rearm(ell);
        mp
    }

    /// Re-arms an idle MP for a new launch with `ell` residency slots:
    /// clock, counters and last retirement back to zero, every allocation
    /// kept.
    pub fn rearm(&mut self, ell: u64) {
        debug_assert!(self.warps.is_empty(), "rearm() requires an idle MP");
        self.clock = 0;
        // `ℓ` only caps admission; no storage is sized by it.
        self.ell = usize::try_from(ell).unwrap_or(usize::MAX);
        self.stats = KernelStats::default();
        self.last_retire = 0;
    }

    /// Moves the executors an idle MP holds into `pool`.
    pub fn release(&mut self, pool: &mut Vec<Box<E>>) {
        debug_assert!(self.warps.is_empty(), "release() requires an idle MP");
        pool.append(&mut self.spare);
    }

    /// True when no blocks are resident.
    pub fn idle(&self) -> bool {
        self.warps.is_empty()
    }

    /// Number of free residency slots.
    pub fn free_slots(&self) -> usize {
        self.ell - self.warps.len()
    }

    /// Admits block `block` of `kernel`'s launch, re-arming a spare
    /// executor when there is one and taking one from `make` otherwise.
    pub fn admit(&mut self, kernel: &E::Kernel, block: u64, make: impl FnOnce() -> Box<E>) {
        debug_assert!(self.warps.len() < self.ell);
        let mut warp = self.spare.pop().unwrap_or_else(make);
        warp.reset(kernel, block);
        self.tree.set(self.warps.len(), self.clock);
        self.warps.push(warp);
    }

    /// Executes one scheduling decision: picks the warp with the earliest
    /// wake-up time, advances the clock, issues its next instruction.
    /// Returns `Ok(true)` if a block retired (a slot freed).
    pub fn step(
        &mut self,
        kernel: &E::Kernel,
        gmem: &mut GmemAccess<'_>,
        dram: &mut DramController,
    ) -> Result<bool, SimError> {
        debug_assert!(!self.warps.is_empty(), "step() requires a resident block");
        let (ready, idx) = self.tree.winner();
        if ready > self.clock {
            self.stats.stall_cycles += ready - self.clock;
            self.clock = ready;
        }
        let event = self.warps[idx].step(kernel, &mut self.scratch, gmem)?;
        let wake = match event {
            StepEvent::Compute { cycles } => {
                self.clock += u64::from(cycles.max(1));
                self.stats.instructions += 1;
                self.stats.compute_instructions += 1;
                self.clock
            }
            StepEvent::Shared { degree } => {
                let d = u64::from(degree.max(1));
                self.clock += d;
                self.stats.instructions += 1;
                self.stats.shared_accesses += 1;
                self.stats.bank_conflict_cycles += d - 1;
                self.clock
            }
            StepEvent::Global { txns, issue } => {
                let d = u64::from(issue.max(1));
                self.clock += d;
                self.stats.instructions += 1;
                self.stats.global_accesses += 1;
                self.stats.bank_conflict_cycles += d - 1;
                self.stats.global_txns += u64::from(txns);
                dram.access(self.clock, u64::from(txns))
            }
            StepEvent::Done => {
                self.spare.push(self.warps.swap_remove(idx));
                self.stats.blocks += 1;
                self.last_retire = self.clock;
                // The tail resident moved into position `idx` and is
                // re-keyed under it; the old tail position is empty.
                let tail = self.warps.len();
                if idx < tail {
                    self.tree.set(idx, self.tree.ready(tail));
                }
                self.tree.clear(tail);
                return Ok(true);
            }
        };
        self.tree.set(idx, wake);
        Ok(false)
    }

    /// The earliest cycle at which this MP can do useful work (its next
    /// warp wake-up), used by the device's global-time event loop.
    #[inline]
    pub fn next_event(&self) -> Option<u64> {
        if self.warps.is_empty() {
            None
        } else {
            Some(self.tree.winner().0.max(self.clock))
        }
    }
}

/// A winner (tournament) tree whose nodes hold the keys themselves:
/// leaf `i` is resident `i`'s packed `(ready, i)` (or [`KeyTree::EMPTY`]),
/// an internal node is the smaller of its two children, the root is the
/// scheduler's pick.  Integer order on the packed key *is* the scheduling
/// rule — earliest wake-up first, lowest dense index among equals, exactly
/// a first-minimum scan — and keys are unique, so there are no ties to
/// break inside the tree.  Capacity doubles as residents arrive, so the
/// tree is sized by the blocks an MP is given, never by `ℓ` — and an MP
/// that is given none allocates nothing.
#[derive(Default)]
struct KeyTree {
    /// `node[1]` is the root, `node[n]`'s children are `node[2n]` and
    /// `node[2n + 1]`, the leaves are the upper half `node[cap..2·cap]`;
    /// `node[0]` is unused.
    node: Vec<u128>,
}

impl KeyTree {
    /// An unoccupied leaf: later than any wake-up, so it never wins while
    /// a resident exists.
    const EMPTY: u128 = u128::MAX;

    /// Leaf capacity: a power of two, or 0 before the first resident.
    #[inline]
    fn cap(&self) -> usize {
        self.node.len() / 2
    }

    /// Sets leaf `i`'s wake-up time to `ready`, growing the tree to hold
    /// it.
    #[inline]
    fn set(&mut self, i: usize, ready: u64) {
        if i >= self.cap() {
            self.grow(i + 1);
        }
        self.update(i, (u128::from(ready) << 64) | i as u128);
    }

    /// Empties leaf `i`.
    #[inline]
    fn clear(&mut self, i: usize) {
        self.update(i, Self::EMPTY);
    }

    /// Wake-up time of occupied leaf `i`.
    #[inline]
    fn ready(&self, i: usize) -> u64 {
        (self.node[self.cap() + i] >> 64) as u64
    }

    /// The smallest key as `(ready, index)`.  Only meaningful while at
    /// least one leaf is occupied.
    #[inline]
    fn winner(&self) -> (u64, usize) {
        let key = self.node[1];
        ((key >> 64) as u64, key as u64 as usize)
    }

    /// Stores `key` at leaf `i` and replays the matches on its path to
    /// the root: one load and one `min` per level.
    #[inline]
    fn update(&mut self, i: usize, key: u128) {
        let mut n = self.cap() + i;
        let mut best = key;
        self.node[n] = best;
        while n > 1 {
            best = best.min(self.node[n ^ 1]);
            n >>= 1;
            self.node[n] = best;
        }
    }

    /// Re-seats the leaves in a tree of at least `leaves` leaves.
    #[cold]
    fn grow(&mut self, leaves: usize) {
        let (old, cap) = (self.cap(), leaves.next_power_of_two());
        let mut node = vec![Self::EMPTY; 2 * cap];
        node[cap..cap + old].copy_from_slice(&self.node[old..]);
        for n in (1..cap).rev() {
            node[n] = node[2 * n].min(node[2 * n + 1]);
        }
        self.node = node;
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use crate::engine::BlockExec;
    use crate::gmem::GlobalMemory;
    use crate::uop::CompiledKernel;
    use crate::warp::WarpExec;
    use atgpu_ir::{AddrExpr, DBuf, Kernel, KernelBuilder, Operand};

    fn compute_kernel(n_ops: usize) -> Kernel {
        let mut kb = KernelBuilder::new("c", 4, 0);
        for _ in 0..n_ops {
            kb.mov(0, Operand::Imm(1));
        }
        kb.build()
    }

    fn compile(k: &Kernel, bases: &[u64]) -> CompiledKernel {
        CompiledKernel::compile(k, bases, 4, 0)
    }

    /// Steps `mp` until no block is resident.
    fn drain<E: BlockSim>(
        mp: &mut Mp<E>,
        kernel: &E::Kernel,
        g: &mut GlobalMemory,
        dram: &mut DramController,
    ) {
        let mut acc = GmemAccess::Direct(g);
        while !mp.idle() {
            mp.step(kernel, &mut acc, dram).unwrap();
        }
    }

    #[test]
    fn single_warp_issues_serially() {
        let ck = compile(&compute_kernel(5), &[]);
        let mut g = GlobalMemory::new(vec![], 0, 4, 1024).unwrap();
        let mut dram = DramController::new(4, 100);
        let mut mp = Mp::new(2);
        mp.admit(&ck, 0, || Box::new(BlockExec::new(&ck)));
        let mut acc = GmemAccess::Direct(&mut g);
        let mut retired = 0;
        while !mp.idle() {
            if mp.step(&ck, &mut acc, &mut dram).unwrap() {
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
        let ck = compile(&kb.build(), &[0]);
        let make = || Box::new(BlockExec::new(&ck));

        // One warp alone: 1 issue + 100 latency + 10 compute ≈ 111.
        let mut g = GlobalMemory::new(vec![0], 8, 4, 1024).unwrap();
        let mut dram = DramController::new(4, 100);
        let mut mp = Mp::new(1);
        mp.admit(&ck, 0, make);
        drain(&mut mp, &ck, &mut g, &mut dram);
        let solo = mp.clock;
        assert_eq!(solo, 111);

        // Two warps resident: the second's compute hides under the first's
        // memory latency, finishing well before 2x solo.
        let mut g = GlobalMemory::new(vec![0], 8, 4, 1024).unwrap();
        let mut dram = DramController::new(4, 100);
        let mut mp = Mp::new(2);
        mp.admit(&ck, 0, make);
        mp.admit(&ck, 1, make);
        drain(&mut mp, &ck, &mut g, &mut dram);
        let duo = mp.clock;
        assert!(duo < 2 * solo - 50, "latency not hidden: solo={solo} duo={duo}");
        assert_eq!(mp.stats.blocks, 2);
    }

    #[test]
    fn stall_cycles_recorded_when_nothing_ready() {
        let mut kb = KernelBuilder::new("s", 1, 4);
        kb.glb_to_shr(AddrExpr::lane(), DBuf(0), AddrExpr::lane());
        kb.mov(0, Operand::Imm(1));
        let ck = compile(&kb.build(), &[0]);
        let mut g = GlobalMemory::new(vec![0], 8, 4, 1024).unwrap();
        let mut dram = DramController::new(4, 100);
        let mut mp = Mp::new(1);
        mp.admit(&ck, 0, || Box::new(BlockExec::new(&ck)));
        drain(&mut mp, &ck, &mut g, &mut dram);
        assert_eq!(mp.stats.stall_cycles, 100); // full exposed latency
    }

    #[test]
    fn spare_pool_reused_across_blocks() {
        let ck = compile(&compute_kernel(1), &[]);
        let mut g = GlobalMemory::new(vec![], 0, 4, 1024).unwrap();
        let mut dram = DramController::new(4, 100);
        let mut mp = Mp::new(1);
        let mut made = 0;
        for block in 0..3 {
            mp.admit(&ck, block, || {
                made += 1;
                Box::new(BlockExec::new(&ck))
            });
            drain(&mut mp, &ck, &mut g, &mut dram);
        }
        assert_eq!(made, 1, "executor should be pooled and reused");
        assert_eq!(mp.stats.blocks, 3);
    }

    /// A released, re-armed MP runs a second launch — of a kernel with
    /// more registers — exactly as a fresh MP does, on the executor the
    /// first launch left behind.
    #[test]
    fn rearmed_mp_runs_the_next_launch_like_a_fresh_one() {
        let first = compile(&compute_kernel(3), &[]);
        let mut kb = KernelBuilder::new("wide", 2, 8);
        kb.mov(5, Operand::Lane);
        kb.st_shr(AddrExpr::lane(), Operand::Reg(5));
        let second = compile(&kb.build(), &[]);
        let mut g = GlobalMemory::new(vec![], 0, 4, 1024).unwrap();
        let run = |mp: &mut Mp<BlockExec>, pool: &mut Vec<Box<BlockExec>>, g: &mut GlobalMemory| {
            let mut dram = DramController::new(4, 100);
            for block in 0..2 {
                mp.admit(&second, block, || pool.pop().expect("a pooled executor"));
            }
            drain(mp, &second, g, &mut dram);
            (mp.clock, mp.stats, mp.last_retire)
        };

        let mut mp = Mp::new(1);
        mp.admit(&first, 0, || Box::new(BlockExec::new(&first)));
        drain(&mut mp, &first, &mut g, &mut DramController::new(4, 100));
        let mut pool = Vec::new();
        mp.release(&mut pool);
        assert_eq!(pool.len(), 1);
        mp.rearm(2);
        pool.push(Box::new(BlockExec::new(&second)));
        let reused = run(&mut mp, &mut pool, &mut g);

        let mut fresh = Mp::new(2);
        let mut pool = vec![Box::new(BlockExec::new(&second)), Box::new(BlockExec::new(&second))];
        assert_eq!(run(&mut fresh, &mut pool, &mut g), reused);
    }

    #[test]
    fn reference_warp_drives_mp_too() {
        let k = compute_kernel(5);
        let mut g = GlobalMemory::new(vec![], 0, 4, 1024).unwrap();
        let mut dram = DramController::new(4, 100);
        let mut mp = Mp::new(2);
        mp.admit(&(), 0, || Box::new(WarpExec::new(&k, &[], 4, 1)));
        drain(&mut mp, &(), &mut g, &mut dram);
        assert_eq!(mp.clock, 5);
    }
}
