//! The scheduling rule, checked against a model that states it naively.
//!
//! The rule has two levels.  Inside an MP: issue from the resident block
//! with the smallest `(ready, dense index)`; admission appends to the
//! dense order, retirement moves the tail into the freed position.
//! Across MPs: the next instruction issues on the MP with the smallest
//! `(next event, MP index)`.  [`Mp`] keeps the first in a tournament tree
//! of packed keys over boxed executors and `Device::run_sequential` runs
//! an MP to the runner-up's horizon instead of rescanning — on MPs and
//! executors a previous launch left behind, in the device test; the models
//! here keep dense `Vec`s, scan for the first minimum before every
//! instruction and `swap_remove` on retirement.  Both sides drive a
//! [`Scripted`] executor that replays a per-block list of [`StepEvent`]s
//! and logs every `step`, so the comparison is on the issue order itself
//! — and on everything derived from it: clocks, statistics, retirement
//! times, the memory controller's call sequence, the watchdog's cut.
//!
//! The scripts are random and dense in tie makers: zero-transaction
//! global accesses (the controller returns `now`, so the block is ready
//! again at once), empty blocks (`Done` on the first step, so the next
//! admission happens at an unchanged clock), zero-cycle and zero-degree
//! events (clamped to one slot), and controllers whose latency is a
//! small multiple of their issue interval, so queued wake-ups land on
//! each other and on the issue clock.

use super::*;
use crate::warp::StepEvent;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;

/// One scripted launch — what a [`Scripted`] executor is lent, as a
/// `BlockExec` is lent its compiled kernel.
struct Script {
    /// Per-block event lists; a block is `Done` once its list is
    /// exhausted.
    events: Vec<Vec<StepEvent>>,
    /// `(block, event index)` of every `step`, in issue order.
    log: RefCell<Vec<(u64, usize)>>,
}

/// Replays its block's events from the script it is lent, logging each
/// step there.
#[derive(Default)]
struct Scripted {
    block: u64,
    pc: usize,
}

fn event(events: &[Vec<StepEvent>], block: u64, pc: usize) -> StepEvent {
    events[block as usize].get(pc).copied().unwrap_or(StepEvent::Done)
}

impl BlockSim for Scripted {
    type Kernel = Script;
    type Scratch = ();

    fn reset(&mut self, _: &Script, block: u64) {
        self.block = block;
        self.pc = 0;
    }

    fn step(
        &mut self,
        script: &Script,
        _: &mut (),
        _gmem: &mut GmemAccess<'_>,
    ) -> Result<StepEvent, SimError> {
        script.log.borrow_mut().push((self.block, self.pc));
        self.pc += 1;
        Ok(event(&script.events, self.block, self.pc - 1))
    }
}

fn random_script(rng: &mut StdRng, blocks: usize) -> Script {
    fn pick(rng: &mut StdRng, from: &[u32]) -> u32 {
        from[rng.gen_range(0..from.len())]
    }
    let script = |rng: &mut StdRng| -> Vec<StepEvent> {
        // One block in six is empty.
        let len = if rng.gen_range(0..6) == 0 { 0 } else { rng.gen_range(1..10) };
        (0..len)
            .map(|_| match rng.gen_range(0..8) {
                0..=2 => StepEvent::Compute { cycles: pick(rng, &[0, 1, 1, 4]) },
                3..=4 => StepEvent::Shared { degree: pick(rng, &[0, 1, 2, 5]) },
                _ => StepEvent::Global {
                    txns: pick(rng, &[0, 0, 1, 1, 3]),
                    issue: pick(rng, &[0, 1, 2]),
                },
            })
            .collect()
    };
    Script { events: (0..blocks).map(|_| script(rng)).collect(), log: RefCell::default() }
}

/// `(issue interval, latency)` pairs: saturating, colliding, realistic.
const CONTROLLERS: [(u64, u64); 4] = [(1, 1), (4, 8), (7, 7), (15, 500)];

/// The MP rule with nothing clever in it.
#[derive(Default)]
struct NaiveMp {
    clock: u64,
    /// Resident `(block, next event index)` in dense order.
    resident: Vec<(u64, usize)>,
    /// Wake-up times, parallel to `resident`.
    ready: Vec<u64>,
    stats: KernelStats,
    last_retire: u64,
}

impl NaiveMp {
    /// Position of the first minimum of `ready`.
    fn pick(&self) -> Option<usize> {
        (0..self.ready.len()).min_by_key(|&i| (self.ready[i], i))
    }

    fn next_event(&self) -> Option<u64> {
        self.pick().map(|i| self.ready[i].max(self.clock))
    }

    fn admit(&mut self, block: u64) {
        self.resident.push((block, 0));
        self.ready.push(self.clock);
    }

    /// One instruction; `accesses` collects the controller's arguments.
    fn step(
        &mut self,
        scripts: &[Vec<StepEvent>],
        dram: &mut DramController,
        log: &mut Vec<(u64, usize)>,
        accesses: &mut Vec<(u64, u64)>,
    ) -> bool {
        let i = self.pick().expect("a resident block");
        if self.ready[i] > self.clock {
            self.stats.stall_cycles += self.ready[i] - self.clock;
            self.clock = self.ready[i];
        }
        let (block, pc) = self.resident[i];
        log.push((block, pc));
        self.resident[i].1 += 1;
        match event(scripts, block, pc) {
            StepEvent::Compute { cycles } => {
                self.clock += u64::from(cycles.max(1));
                self.stats.compute_instructions += 1;
                self.ready[i] = self.clock;
            }
            StepEvent::Shared { degree } => {
                self.clock += u64::from(degree.max(1));
                self.stats.shared_accesses += 1;
                self.stats.bank_conflict_cycles += u64::from(degree.max(1)) - 1;
                self.ready[i] = self.clock;
            }
            StepEvent::Global { txns, issue } => {
                self.clock += u64::from(issue.max(1));
                self.stats.global_accesses += 1;
                self.stats.bank_conflict_cycles += u64::from(issue.max(1)) - 1;
                self.stats.global_txns += u64::from(txns);
                accesses.push((self.clock, u64::from(txns)));
                self.ready[i] = dram.access(self.clock, u64::from(txns));
            }
            StepEvent::Done => {
                self.resident.swap_remove(i);
                self.ready.swap_remove(i);
                self.stats.blocks += 1;
                self.last_retire = self.clock;
                return true;
            }
        }
        self.stats.instructions += 1;
        false
    }
}

#[test]
fn mp_issues_in_first_minimum_order() {
    let mut gmem = GlobalMemory::new(vec![], 0, 4, 1024).unwrap();
    let mut acc = GmemAccess::Direct(&mut gmem);
    let mut rng = StdRng::seed_from_u64(0x5C4E_D01E);
    for ell in [1u64, 3, 16, 33] {
        // One MP per residency, re-armed for every case on the executors
        // the case before released: the model is fresh every time.
        let mut mp: Mp<Scripted> = Mp::new(ell);
        let mut pool = Vec::new();
        for case in 0..40 {
            let blocks = 3 * ell + 7;
            let script = random_script(&mut rng, blocks as usize);
            let (interval, latency) = CONTROLLERS[case % CONTROLLERS.len()];
            let cell = format!("ell={ell} case={case}");

            mp.rearm(ell);
            let mut make = || pool.pop().unwrap_or_default();
            let mut dram = DramController::new(interval, latency);
            let mut accesses = Vec::new();

            let mut model = NaiveMp::default();
            let mut model_dram = DramController::new(interval, latency);
            let (mut model_log, mut model_accesses) = (Vec::new(), Vec::new());

            let mut next = 0;
            while mp.free_slots() > 0 && next < blocks {
                mp.admit(&script, next, &mut make);
                model.admit(next);
                next += 1;
            }
            while !mp.idle() {
                assert_eq!(mp.next_event(), model.next_event(), "{cell}");
                let retired = mp.step(&script, &mut acc, &mut dram).unwrap();
                // The controller is called with the clock the access
                // leaves behind.
                let &(block, pc) = script.log.borrow().last().unwrap();
                if let StepEvent::Global { txns, .. } = event(&script.events, block, pc) {
                    accesses.push((mp.clock, u64::from(txns)));
                }
                let model_retired = model.step(
                    &script.events,
                    &mut model_dram,
                    &mut model_log,
                    &mut model_accesses,
                );
                assert_eq!((retired, mp.clock), (model_retired, model.clock), "{cell}");
                if retired && next < blocks {
                    mp.admit(&script, next, &mut make);
                    model.admit(next);
                    next += 1;
                }
            }
            assert!(model.resident.is_empty(), "{cell}");
            assert_eq!(*script.log.borrow(), model_log, "{cell}: issue order");
            assert_eq!(mp.stats, model.stats, "{cell}");
            assert_eq!(mp.stats.blocks, blocks, "{cell}");
            assert_eq!(mp.last_retire, model.last_retire, "{cell}");
            assert_eq!(accesses, model_accesses, "{cell}: controller calls");
            assert_eq!(
                (dram.txns, dram.queue_cycles),
                (model_dram.txns, model_dram.queue_cycles),
                "{cell}"
            );
            mp.release(&mut pool);
        }
    }
}

/// The device rule with nothing clever in it: fill MP by MP, then rescan
/// every MP before every instruction.  Stops with `Err(())` where the
/// watchdog would.
fn naive_device(
    scripts: &[Vec<StepEvent>],
    spec: &GpuSpec,
    ell: u64,
    budget: u64,
    log: &mut Vec<(u64, usize)>,
) -> Result<KernelStats, ()> {
    let mut dram = DramController::new(spec.dram_issue_cycles, spec.dram_latency_cycles);
    let mut mps: Vec<NaiveMp> = (0..spec.k_prime).map(|_| NaiveMp::default()).collect();
    let (mut next, end) = (0, scripts.len() as u64);
    for mp in &mut mps {
        while (mp.resident.len() as u64) < ell && next < end {
            mp.admit(next);
            next += 1;
        }
    }
    let mut accesses = Vec::new();
    while let Some((t, i)) =
        (0..mps.len()).filter_map(|i| mps[i].next_event().map(|t| (t, i))).min()
    {
        if budget != 0 && t > budget {
            return Err(());
        }
        if mps[i].step(scripts, &mut dram, log, &mut accesses) && next < end {
            mps[i].admit(next);
            next += 1;
        }
    }
    let mut stats = KernelStats {
        cycles: mps.iter().map(|m| m.last_retire).max().unwrap_or(0),
        dram_queue_cycles: dram.queue_cycles,
        occupancy: ell,
        ..KernelStats::default()
    };
    for mp in &mps {
        stats.merge_serial(&mp.stats);
    }
    Ok(stats)
}

#[test]
fn device_runs_to_the_horizon_in_rescan_order() {
    let machine = AtgpuMachine::new(1 << 12, 4, 64, 1 << 16).unwrap();
    let mut gmem = GlobalMemory::new(vec![], 0, 4, 1024).unwrap();
    let mut rng = StdRng::seed_from_u64(0x4071_2011);
    // Kept across every run, as a device keeps it: each run re-arms the
    // MPs and executors the runs before it left — of other widths,
    // residencies and scripts — or, after a watchdog cut, starts over,
    // as `Device::launch` does.
    let mut pool = Pool::default();
    for k_prime in [1u64, 2, 5] {
        for ell in [1u64, 3, 16] {
            for case in 0..24 {
                let (dram_issue_cycles, dram_latency_cycles) = CONTROLLERS[case % 4];
                let spec = GpuSpec {
                    k_prime,
                    dram_issue_cycles,
                    dram_latency_cycles,
                    ..GpuSpec::gtx650_like()
                };
                let blocks = (2 * k_prime * ell + 5) as usize;
                let script = random_script(&mut rng, blocks);
                let cell = format!("k'={k_prime} ell={ell} case={case}");

                let mut model_log = Vec::new();
                let model = naive_device(&script.events, &spec, ell, 0, &mut model_log).unwrap();

                let device = Device::new(machine, spec).unwrap();
                let mut run = |budget: u64| {
                    let launch =
                        Blocks { name: "scripted", ell, range: (0, blocks as u64), budget };
                    let mut acc = GmemAccess::Direct(&mut gmem);
                    let stats = device.run_sequential(
                        &launch,
                        &script,
                        &mut pool,
                        Scripted::default,
                        &mut acc,
                    );
                    if stats.is_err() {
                        pool = Pool::default();
                    }
                    (stats, script.log.take())
                };

                let (stats, log) = run(0);
                assert_eq!(log, model_log, "{cell}: issue order");
                assert_eq!(stats.unwrap(), model, "{cell}");

                // The watchdog cuts the run before the same instruction:
                // never at a budget of the whole launch, and at an
                // earlier one exactly where a check per rescan would.
                let (stats, log) = run(model.cycles);
                assert_eq!((stats.ok(), log), (Some(model), model_log.clone()), "{cell}");
                let budget = rng.gen_range(1..model.cycles.max(2));
                let mut cut_log = Vec::new();
                let cut = naive_device(&script.events, &spec, ell, budget, &mut cut_log);
                let (stats, log) = run(budget);
                assert_eq!(log, cut_log, "{cell}: budget {budget}");
                match cut {
                    Ok(model) => assert_eq!(stats.unwrap(), model, "{cell}: budget {budget}"),
                    Err(()) => assert!(
                        matches!(stats, Err(SimError::Watchdog { budget: b, .. }) if b == budget),
                        "{cell}: budget {budget} gave {stats:?}"
                    ),
                }
            }
        }
    }
}
