//! The whole device: `k′` multiprocessors, a block dispatch queue, and the
//! shared memory controller.
//!
//! There is one block loop, and so one clock: all MPs are co-simulated in
//! global time order against a *shared* memory controller, and the next
//! instruction always issues on the MP with the smallest `(next event, MP
//! index)`.  Blocks are placed **depth-first**: the initial fill gives
//! MP 0 its `ℓ` resident blocks before MP 1 sees one, so a grid below
//! `k′·ℓ` blocks leaves whole MPs empty; after the fill the next block of
//! the launch queue goes to whichever MP just retired one.  An MP that
//! the fill leaves empty therefore never receives a block, so the loop
//! builds only the `min(k′, ⌈blocks/ℓ⌉)` MPs the fill reaches — nothing
//! is sized by `k′` (nor by `ℓ`, see [`crate::mp`]), which a valid spec
//! can make astronomically large.  The loop
//! does not rescan the MPs after every instruction.  It picks the
//! earliest MP, keeps the runner-up's key as a **horizon**, and steps the
//! same MP — admitting from the launch queue as its blocks retire, testing
//! the watchdog before every step — until its next event passes the
//! horizon.  This is exactly the order of a rescan per instruction: an
//! MP's next event depends only on its own residents' wake-ups and its
//! own clock (the shared controller feeds nothing but the wake-up of
//! the warp that issued the access, and a block is admitted only to
//! the MP that just retired one), so no other MP's key can move while
//! one runs.  The loop runs on the caller's thread — the device spawns
//! nothing; the only host fan-out deals whole devices of a sharded launch
//! to at most one worker per host core ([`crate::cluster`]) — so
//! statistics are a pure function of the kernel, the memory and the spec.
//!
//! Every launch — whole grid or one shard of it, written through or
//! logged — is prepared by **one body** (`Device::launch`): occupancy
//! check, register count, buffer bases and executor resolution happen
//! once, over a block range and a [`GmemAccess`] write target (global
//! writes applied immediately, or deferred to a log its reader merges in
//! block order through [`apply_write_log`]).  [`Device::run_kernel_with`]
//! and [`Device::run_shard`] only choose the range and the target, and so
//! does a program run's launch ([`crate::cluster`]), which picks the
//! target by asking whether anything will read a log.
//!
//! # What a launch costs the host
//!
//! A launch should cost the host its blocks, not its bookkeeping, so a
//! micro-op launch keeps nothing of its own: the device holds its MPs,
//! their executors and the previous launch's [`CacheEntry`] between
//! launches.  The launch takes them **whole** under one lock and puts
//! them back when it succeeds, so concurrent launches on one device stay
//! correct — they come only from a shared cluster's tenants, since a
//! sharded launch runs each device's shards on one worker, one after
//! another: the second finds the slot empty, builds its own and, if the
//! first has put its set back meanwhile, drops them.  What is kept is
//! bounded by the largest launch so far — its MP count, and one executor
//! per block it had resident — with no knob: executors are created only
//! when the kept ones are all resident.  A warm launch — its kernel in
//! the cache, and no more MPs, residents, registers or shared words than
//! earlier launches left room for — therefore allocates **nothing**: a
//! relaunch of the previous kernel is recognised without hashing
//! ([`crate::cache`]), the bases are read in place, and MPs and
//! executors are re-armed within their storage (see [`crate::mp`]).  A
//! cold launch pays the lowering, its cache entry and whatever earlier
//! launches did not leave behind.  None of this reaches a
//! simulated number: an MP is re-armed to a fresh one's state, and an
//! executor is re-fitted and cleared on every admission as it always was.
//! The reference interpreter borrows its kernel and is built per launch.

use crate::cache::{CacheEntry, CacheStats, KernelCache, DEFAULT_CACHE_CAPACITY};
use crate::dram::DramController;
use crate::engine::{BlockExec, BlockSim};
use crate::error::SimError;
use crate::gmem::GlobalMemory;
use crate::mp::Mp;
use crate::warp::{GmemAccess, WarpExec, WriteRec};
use crate::{EngineSel, ExecMode};
use atgpu_ir::validate::validate_launch;
use atgpu_ir::Kernel;
use atgpu_model::{occupancy, AtgpuMachine, GpuSpec};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Aggregated observations from one kernel launch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Kernel duration in device cycles (time of the last block
    /// retirement).
    pub cycles: u64,
    /// Lockstep instructions issued across all MPs.
    pub instructions: u64,
    /// Compute (ALU/move/predicate/sync) instructions issued.
    pub compute_instructions: u64,
    /// Shared-memory access instructions issued.
    pub shared_accesses: u64,
    /// Global-memory access instructions issued.
    pub global_accesses: u64,
    /// Coalesced global transactions.
    pub global_txns: u64,
    /// Extra issue cycles lost to bank conflicts.
    pub bank_conflict_cycles: u64,
    /// Cycles MPs idled waiting for memory.
    pub stall_cycles: u64,
    /// Cycles requests queued behind the memory pipe.
    pub dram_queue_cycles: u64,
    /// Thread blocks executed.
    pub blocks: u64,
    /// Residency `ℓ` used for the launch.
    pub occupancy: u64,
}

impl KernelStats {
    /// Folds in the statistics of a launch (or shard) that ran **after**
    /// `self` on the same device: counters add, and so do cycles (the
    /// runs are serial); occupancy keeps the last non-zero value.  One
    /// MP's counters fold into its launch's the same way — an MP leaves
    /// the launch-wide fields (`cycles`, `dram_queue_cycles`,
    /// `occupancy`) zero.
    pub fn merge_serial(&mut self, s: &KernelStats) {
        self.cycles += s.cycles;
        self.instructions += s.instructions;
        self.compute_instructions += s.compute_instructions;
        self.shared_accesses += s.shared_accesses;
        self.global_accesses += s.global_accesses;
        self.global_txns += s.global_txns;
        self.bank_conflict_cycles += s.bank_conflict_cycles;
        self.stall_cycles += s.stall_cycles;
        self.dram_queue_cycles += s.dram_queue_cycles;
        self.blocks += s.blocks;
        if s.occupancy != 0 {
            self.occupancy = s.occupancy;
        }
    }
}

/// Per-device observability counters — everything a device knows beyond
/// individual launches: the cross-launch kernel cache plus the fault/
/// recovery counters the drivers accumulate on the device's behalf.
/// Deliberately separate from [`KernelStats`] so cached and cold
/// launches stay bit-identical in per-launch statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DeviceStats {
    /// Kernel-cache counters (hits, misses, resident entries).
    pub cache: CacheStats,
    /// Transfer attempts retried after a fault-injected drop on a link
    /// touching this device ([`crate::fault::FaultEvent::TransferDrop`]).
    pub retries: u64,
    /// Exponential-backoff time those retries charged, in milliseconds.
    pub backoff_ms: f64,
    /// Dead-device takeovers this device participated in: incremented
    /// once per recovery replay it absorbed as a survivor.
    pub recoveries: u64,
    /// Words this device's transfers physically copied: inward and
    /// peer-in copies count at the receiver, outward copies at the
    /// source.  Every transferred word is priced, but the copy rule
    /// ([`crate::gmem`]) skips the chunks a destination provably holds,
    /// so this is at most the words priced (each attempt of a retried
    /// transfer counts on its own).
    pub copied_words: u64,
}

impl DeviceStats {
    /// Folds another device's counters in (cluster-wide totals).
    pub fn merge(&mut self, other: &DeviceStats) {
        self.cache.merge(&other.cache);
        self.retries += other.retries;
        self.backoff_ms += other.backoff_ms;
        self.recoveries += other.recoveries;
        self.copied_words += other.copied_words;
    }
}

/// MPs and executors a launch runs on, and keeps for the next one (see
/// the module docs).
struct Pool<E: BlockSim> {
    /// The widest launch's MPs, idle between launches.
    mps: Vec<Mp<E>>,
    /// Executors no MP holds: between launches, all of them.
    idle: Vec<Box<E>>,
}

impl<E: BlockSim> Default for Pool<E> {
    fn default() -> Self {
        Self { mps: Vec::new(), idle: Vec::new() }
    }
}

/// What a device keeps from one micro-op launch to the next.
#[derive(Default)]
struct Kept {
    pool: Pool<BlockExec>,
    /// The previous launch's cache entry ([`KernelCache::get_or_compile`]).
    last: Option<Arc<CacheEntry>>,
}

impl std::fmt::Debug for Kept {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kept")
            .field("mps", &self.pool.mps.len())
            .field("executors", &self.pool.idle.len())
            .finish_non_exhaustive()
    }
}

/// The simulated GPU device.
#[derive(Debug)]
pub struct Device {
    machine: AtgpuMachine,
    spec: GpuSpec,
    /// The cross-launch kernel cache ([`crate::cache`]).  Per-device by
    /// design: threaded cluster dispatch never contends across devices.
    cache: KernelCache,
    /// MPs, executors and the previous launch's entry, between launches.
    kept: Mutex<Kept>,
}

impl Device {
    /// Creates a device; rejects machines wider than the 64-lane mask
    /// limit and specs the model calls invalid (no MPs, a non-positive
    /// clock, a negative link parameter) — a device with `k′ = 0` would
    /// retire no block and report an untouched memory as its answer.
    pub fn new(machine: AtgpuMachine, spec: GpuSpec) -> Result<Self, SimError> {
        if machine.b > 64 {
            return Err(SimError::UnsupportedWidth { b: machine.b });
        }
        spec.validate().map_err(|e| SimError::InvalidCluster { reason: e.to_string() })?;
        Ok(Self {
            machine,
            spec,
            cache: KernelCache::new(DEFAULT_CACHE_CAPACITY),
            kept: Mutex::default(),
        })
    }

    /// The kept set's slot.  Nothing panics while holding it; were
    /// something to, the slot holds a whole set or an empty one.
    fn kept(&self) -> MutexGuard<'_, Kept> {
        self.kept.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The machine this device implements.
    pub fn machine(&self) -> &AtgpuMachine {
        &self.machine
    }

    /// The device specification.
    pub fn spec(&self) -> &GpuSpec {
        &self.spec
    }

    /// Device-level counters: cache hits/misses/entries.  The fault/
    /// recovery counters are zero here — transfer engines live in the
    /// drivers, which fold their retry and recovery totals in when
    /// building a report.
    pub fn stats(&self) -> DeviceStats {
        DeviceStats { cache: self.cache.stats(), ..DeviceStats::default() }
    }

    /// Runs one kernel launch to completion with the micro-op engine.
    ///
    /// `_mode` selects nothing: [`ExecMode`] has one variant.  The
    /// argument stays because the repo benchmark package passes it and
    /// only a benchmark change may edit that package; it goes together
    /// with the type.
    pub fn run_kernel(
        &self,
        kernel: &Kernel,
        gmem: &mut GlobalMemory,
        _mode: ExecMode,
        detect_races: bool,
    ) -> Result<KernelStats, SimError> {
        self.run_kernel_with(kernel, gmem, detect_races, EngineSel::MicroOp)
    }

    /// Runs one kernel launch with an explicit executor choice.
    ///
    /// [`EngineSel::MicroOp`] resolves the kernel through the device's
    /// cross-launch [`KernelCache`] — a repeated launch of the same
    /// kernel shape reuses the compiled micro-op program, skipping
    /// lowering.  [`EngineSel::Reference`] drives the retained tree-walking
    /// interpreter — the pre-engine baseline kept for differential
    /// testing and benchmarking (never cached).
    ///
    /// Relative to the one launch body this fixes the whole grid
    /// `(0, k)` and the target: without race detection the launch writes
    /// straight through to `gmem`; with it the writes are logged (as
    /// [`Device::run_shard`] does), checked, and merged by
    /// [`apply_write_log`].
    pub fn run_kernel_with(
        &self,
        kernel: &Kernel,
        gmem: &mut GlobalMemory,
        detect_races: bool,
        engine: EngineSel,
    ) -> Result<KernelStats, SimError> {
        let range = (0, kernel.blocks());
        if !detect_races {
            return self.launch(kernel, GmemAccess::Direct(gmem), engine, range, 0);
        }
        // Race detection requires deferred writes; timing is unchanged
        // (same event loop, shared controller).
        let mut log = Vec::new();
        let target = GmemAccess::Logged { base: gmem, log: &mut log };
        let stats = self.launch(kernel, target, engine, range, 0)?;
        apply_write_log(kernel, gmem, log, true)?;
        Ok(stats)
    }

    /// Runs the block range `range.0..range.1` of a launch — one **shard**
    /// of a (possibly multi-device) launch — with every global write
    /// deferred to `log` and reads served from the pre-launch snapshot.
    ///
    /// This is the logged launch as the differential tests and the
    /// benchmark's layer probes drive it: the caller owns write-log
    /// merging (see [`apply_write_log`]), so a shard run never mutates
    /// `gmem`.  With `range = (0, kernel.blocks())` the
    /// returned statistics are exactly those of a whole-device launch.
    /// Relative to the one launch body this fixes the logged target.
    /// `_mode` selects nothing and stays for the same reason as
    /// [`Device::run_kernel`]'s.
    pub fn run_shard(
        &self,
        kernel: &Kernel,
        gmem: &GlobalMemory,
        _mode: ExecMode,
        engine: EngineSel,
        range: (u64, u64),
        log: &mut Vec<WriteRec>,
    ) -> Result<KernelStats, SimError> {
        self.launch(kernel, GmemAccess::Logged { base: gmem, log }, engine, range, 0)
    }

    /// The one launch body: the occupancy check, the register count, the
    /// buffer bases and the executor (through the kernel cache, or the
    /// reference interpreter) are resolved once, for any block range and
    /// either write target.  The program driver calls it directly, with
    /// the target it chose for the launch and its run's
    /// [`crate::SimConfig::watchdog_cycles`] as `budget`
    /// ([`crate::cluster`]); the config-less wrappers above pass 0.
    pub(crate) fn launch(
        &self,
        kernel: &Kernel,
        mut target: GmemAccess<'_>,
        engine: EngineSel,
        range: (u64, u64),
        budget: u64,
    ) -> Result<KernelStats, SimError> {
        let ell = occupancy(&self.machine, kernel.shared_words, self.spec.h_limit);
        if ell == 0 {
            return Err(SimError::SharedTooLarge {
                kernel: kernel.name.clone(),
                requested: kernel.shared_words,
                available: self.machine.m,
            });
        }
        let b = self.machine.b as u32;
        let blocks = Blocks { name: &kernel.name, ell, range, budget };

        match engine {
            EngineSel::MicroOp => {
                // Taken whole, given back whole (see the module docs).
                let mut kept = std::mem::take(&mut *self.kept());
                let bases = target.mem().bases();
                let entry = self.cache.get_or_compile(kernel, bases, b, &mut kept.last)?;
                let compiled = &entry.compiled;
                let make = || BlockExec::new(compiled);
                let stats =
                    self.run_sequential(&blocks, compiled, &mut kept.pool, make, &mut target);
                if stats.is_ok() {
                    let mut slot = self.kept();
                    if slot.pool.mps.is_empty() {
                        *slot = kept;
                    }
                }
                stats
            }
            EngineSel::Reference => {
                let nregs = kernel.max_reg().map_or(1, |r| u32::from(r) + 1);
                let bases = target.mem().bases().to_vec();
                validate_launch(kernel, bases.len())?;
                let make = || WarpExec::new(kernel, &bases, b, nregs);
                self.run_sequential(&blocks, &(), &mut Pool::default(), make, &mut target)
            }
        }
    }

    /// The one block loop: co-simulates the MPs in global time order
    /// against one memory controller, writing into `acc` as it goes.  It
    /// runs on the `min(k′, ⌈blocks/ℓ⌉)` MPs the depth-first fill reaches
    /// (see the module docs), re-arming `pool`'s and building what it
    /// lacks; executors come from `pool`, then from `make`, and go back to
    /// `pool` when the launch succeeds.
    fn run_sequential<E: BlockSim>(
        &self,
        blocks: &Blocks<'_>,
        kernel: &E::Kernel,
        pool: &mut Pool<E>,
        make: impl Fn() -> E,
        acc: &mut GmemAccess<'_>,
    ) -> Result<KernelStats, SimError> {
        let &Blocks { name, ell, range, budget } = blocks;
        let mut dram =
            DramController::new(self.spec.dram_issue_cycles, self.spec.dram_latency_cycles);
        let reached = range.1.saturating_sub(range.0).div_ceil(ell).min(self.spec.k_prime);
        let Pool { mps, idle } = pool;
        while (mps.len() as u64) < reached {
            mps.push(Mp::new(ell));
        }
        let mps = &mut mps[..reached as usize];
        for mp in mps.iter_mut() {
            mp.rearm(ell);
        }
        let mut take = || idle.pop().unwrap_or_else(|| Box::new(make()));
        let (mut next_block, end_block) = range;

        // Initial fill, depth-first: MP 0 takes blocks up to its `ℓ`
        // slots before MP 1 sees one, so a grid below `k′·ℓ` blocks
        // leaves whole MPs empty.
        'fill: for mp in mps.iter_mut() {
            while mp.free_slots() > 0 {
                if next_block >= end_block {
                    break 'fill;
                }
                mp.admit(kernel, next_block, &mut take);
                next_block += 1;
            }
        }

        // Global time order: the next instruction always issues on the MP
        // with the smallest `(next event, MP index)`.
        const NEVER: (u64, usize) = (u64::MAX, usize::MAX);
        loop {
            // The earliest MP, and the runner-up among the others — the
            // horizon the earliest one may run to.
            let (mut first, mut horizon) = (NEVER, NEVER);
            for (i, mp) in mps.iter().enumerate() {
                if let Some(t) = mp.next_event() {
                    if (t, i) < first {
                        (first, horizon) = ((t, i), first);
                    } else if (t, i) < horizon {
                        horizon = (t, i);
                    }
                }
            }
            if first == NEVER {
                break;
            }
            // Step MP `i` for as long as a rescan would pick it again.
            // Its steps cannot move another MP's key (see the module
            // docs), so the horizon stands until MP `i` passes it.
            let i = first.1;
            let mp = &mut mps[i];
            while let Some(t) = mp.next_event() {
                if (t, i) >= horizon {
                    break;
                }
                if budget != 0 && t > budget {
                    return Err(SimError::Watchdog { kernel: name.to_string(), budget });
                }
                let retired = mp.step(kernel, acc, &mut dram)?;
                if retired && next_block < end_block {
                    mp.admit(kernel, next_block, &mut take);
                    next_block += 1;
                }
            }
        }

        let mut stats = KernelStats {
            cycles: mps.iter().map(|m| m.last_retire).max().unwrap_or(0),
            dram_queue_cycles: dram.queue_cycles,
            occupancy: ell,
            ..KernelStats::default()
        };
        for mp in mps.iter_mut() {
            stats.merge_serial(&mp.stats);
            mp.release(idle);
        }
        debug_assert_eq!(stats.blocks, range.1.saturating_sub(range.0));
        Ok(stats)
    }
}

/// One prepared launch, as the block loop sees it: everything but the
/// executor factory and the memory target.
struct Blocks<'a> {
    /// Kernel name, for diagnostics.
    name: &'a str,
    /// Residency `ℓ`.
    ell: u64,
    /// The block range `range.0..range.1` to run.
    range: (u64, u64),
    /// Watchdog budget in simulated cycles; 0 = unlimited.  The launch
    /// aborts with [`SimError::Watchdog`] before the first instruction
    /// whose issue time passes it.
    budget: u64,
}

/// Applies a deferred write log in block order (deterministic last-writer
/// rule) and optionally detects cross-block races: with `detect_races`,
/// any global word written by two different thread blocks is
/// [`SimError::RaceDetected`] and nothing is applied.
///
/// This is the launch-level merge point shared by the race-detecting
/// launch doors ([`Device::run_kernel_with`],
/// [`crate::Cluster::run_sharded_kernel`]) and journaling (faulted
/// multi-device) program runs: thread-block indices are globally unique
/// across shards and the stable sort keeps each block's program order (a
/// block's writes come from one thread, in order), so the last writer of
/// a word is the same no matter how the launch was split over shards,
/// threads or devices.
pub fn apply_write_log(
    kernel: &Kernel,
    gmem: &mut GlobalMemory,
    mut log: Vec<WriteRec>,
    detect_races: bool,
) -> Result<(), SimError> {
    if detect_races {
        let mut addrs: Vec<(u64, u64)> = log.iter().map(|w| (w.addr, w.block)).collect();
        addrs.sort_unstable();
        addrs.dedup();
        if let Some(pair) = addrs.windows(2).find(|pair| pair[0].0 == pair[1].0) {
            return Err(SimError::RaceDetected { kernel: kernel.name.clone(), addr: pair[0].0 });
        }
    }
    log.sort_by_key(|w| w.block);
    for w in log {
        gmem.write(w.addr as i64, w.val);
    }
    Ok(())
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod sched_model;

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use atgpu_ir::{AddrExpr, AluOp, DBuf, KernelBuilder, Operand};

    fn machine() -> AtgpuMachine {
        AtgpuMachine::new(1 << 12, 4, 64, 1 << 16).unwrap()
    }

    fn spec() -> GpuSpec {
        GpuSpec { k_prime: 2, h_limit: 4, ..GpuSpec::gtx650_like() }
    }

    fn scale_kernel(blocks: u64) -> Kernel {
        // c[i*4 + j] = a[i*4 + j] * 3
        let mut kb = KernelBuilder::new("scale", blocks, 8);
        let g = AddrExpr::block() * 4 + AddrExpr::lane();
        kb.glb_to_shr(AddrExpr::lane(), DBuf(0), g.clone());
        kb.ld_shr(0, AddrExpr::lane());
        kb.alu(AluOp::Mul, 0, Operand::Reg(0), Operand::Imm(3));
        kb.st_shr(AddrExpr::lane() + 4, Operand::Reg(0));
        kb.shr_to_glb(DBuf(1), g, AddrExpr::lane() + 4);
        kb.build()
    }

    fn fresh_gmem(n: u64) -> GlobalMemory {
        let mut g = GlobalMemory::new(vec![0, n], 2 * n, 4, 1 << 16).unwrap();
        for i in 0..n {
            g.write(i as i64, i as i64);
        }
        g
    }

    #[test]
    fn sequential_run_computes_correctly() {
        let n = 64u64;
        let k = scale_kernel(n / 4);
        let dev = Device::new(machine(), spec()).unwrap();
        let mut g = fresh_gmem(n);
        let stats = dev.run_kernel(&k, &mut g, ExecMode::Sequential, false).unwrap();
        for i in 0..n {
            assert_eq!(g.read((n + i) as i64), Some(3 * i as i64));
        }
        assert_eq!(stats.blocks, n / 4);
        assert!(stats.cycles > 0);
        assert_eq!(stats.global_txns, 2 * (n / 4)); // 1 load + 1 store per block
    }

    #[test]
    fn oversized_shared_rejected() {
        let mut kb = KernelBuilder::new("big", 1, 65);
        kb.sync();
        let k = kb.build();
        let dev = Device::new(machine(), spec()).unwrap();
        let mut g = fresh_gmem(16);
        assert!(matches!(
            dev.run_kernel(&k, &mut g, ExecMode::Sequential, false),
            Err(SimError::SharedTooLarge { .. })
        ));
    }

    #[test]
    fn wide_machines_rejected() {
        let m = AtgpuMachine::new(1 << 10, 128, 256, 1 << 16).unwrap();
        assert!(matches!(Device::new(m, spec()), Err(SimError::UnsupportedWidth { b: 128 })));
    }

    /// Regression: the constructor the tests and the benchmark call
    /// directly took any spec; a device with no MPs retires no block and
    /// reports an untouched memory as its answer.
    #[test]
    fn invalid_specs_rejected() {
        let bad = [
            GpuSpec { k_prime: 0, ..spec() },
            GpuSpec { clock_cycles_per_ms: 0.0, ..spec() },
            GpuSpec { clock_cycles_per_ms: f64::NAN, ..spec() },
            GpuSpec { xfer_alpha_ms: -0.1, ..spec() },
        ];
        for spec in bad {
            let r = Device::new(machine(), spec);
            assert!(matches!(r, Err(SimError::InvalidCluster { .. })), "{spec:?}");
        }
    }

    #[test]
    fn race_detection_flags_conflicting_blocks() {
        // Every block writes word 0.
        let mut kb = KernelBuilder::new("racy", 3, 4);
        kb.st_shr(AddrExpr::lane(), Operand::Block);
        kb.shr_to_glb(DBuf(0), AddrExpr::c(0), AddrExpr::c(0));
        let k = kb.build();
        let dev = Device::new(machine(), spec()).unwrap();
        let mut g = fresh_gmem(16);
        assert!(matches!(
            dev.run_kernel(&k, &mut g, ExecMode::Sequential, true),
            Err(SimError::RaceDetected { addr: 0, .. })
        ));
        // Without detection the launch completes (last block wins).
        let mut g = fresh_gmem(16);
        dev.run_kernel(&k, &mut g, ExecMode::Sequential, false).unwrap();
        assert_eq!(g.read(0), Some(2));
    }

    #[test]
    fn race_detection_passes_disjoint_writes() {
        let k = scale_kernel(8);
        let dev = Device::new(machine(), spec()).unwrap();
        let mut g = fresh_gmem(32);
        dev.run_kernel(&k, &mut g, ExecMode::Sequential, true).unwrap();
    }

    #[test]
    fn instruction_mix_and_utilization() {
        let n = 256u64;
        let k = scale_kernel(n / 4);
        let dev = Device::new(machine(), spec()).unwrap();
        let mut g = fresh_gmem(n);
        let stats = dev.run_kernel(&k, &mut g, ExecMode::Sequential, false).unwrap();
        // Per block: 2 global (⇐), 2 shared (←), 1 ALU.
        assert_eq!(stats.global_accesses, 2 * (n / 4));
        assert_eq!(stats.shared_accesses, 2 * (n / 4));
        assert_eq!(stats.compute_instructions, n / 4);
        assert_eq!(
            stats.instructions,
            stats.compute_instructions + stats.shared_accesses + stats.global_accesses
        );
    }

    #[test]
    fn occupancy_limits_residency() {
        // Shared = 32 words, M = 64 -> at most 2 blocks per MP.
        let mut kb = KernelBuilder::new("occ", 8, 32);
        kb.st_shr(AddrExpr::lane(), Operand::Block);
        let k = kb.build();
        let dev = Device::new(machine(), spec()).unwrap();
        let mut g = fresh_gmem(16);
        let stats = dev.run_kernel(&k, &mut g, ExecMode::Sequential, false).unwrap();
        assert_eq!(stats.occupancy, 2);
    }

    #[test]
    fn more_mps_run_faster() {
        let n = 4096u64;
        let k = scale_kernel(n / 4);
        let mut g1 = fresh_gmem(n);
        let dev1 = Device::new(machine(), GpuSpec { k_prime: 1, ..spec() }).unwrap();
        let s1 = dev1.run_kernel(&k, &mut g1, ExecMode::Sequential, false).unwrap();
        let mut g4 = fresh_gmem(n);
        let dev4 = Device::new(machine(), GpuSpec { k_prime: 4, ..spec() }).unwrap();
        let s4 = dev4.run_kernel(&k, &mut g4, ExecMode::Sequential, false).unwrap();
        assert!(s4.cycles < s1.cycles, "4 MPs ({}) should beat 1 MP ({})", s4.cycles, s1.cycles);
    }
}
