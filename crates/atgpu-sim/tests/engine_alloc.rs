//! Proves the acceptance criterion that steady-state block execution in
//! the micro-op engine performs **zero heap allocations per
//! instruction**: after warm-up (executor construction, residency-slot
//! pool), running further blocks through a multiprocessor must not touch
//! the allocator at all — including the
//! dynamic conflict-degree and coalescing fallback paths, which use
//! fixed scratch instead of the reference interpreter's
//! `Vec`+sort+dedup.
//!
//! This file contains a single test so no concurrent test can perturb
//! the allocation counter, and the counter only sees the test's own
//! thread: the harness's main thread allocates while it waits for the
//! test, and on a loaded host that lands inside a measured window.

use atgpu_ir::{AddrExpr, AluOp, DBuf, KernelBuilder, Operand, PredExpr};
use atgpu_sim::dram::DramController;
use atgpu_sim::engine::BlockExec;
use atgpu_sim::gmem::GlobalMemory;
use atgpu_sim::mp::Mp;
use atgpu_sim::uop::CompiledKernel;
use atgpu_sim::warp::GmemAccess;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Whether this thread's allocations are counted (the test sets it on
    /// entry).  Const-initialised and without a destructor, so reading it
    /// from inside the allocator never allocates.
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if COUNTED.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_block_execution_is_allocation_free() {
    COUNTED.with(|c| c.set(true));
    let b = 16u32;
    let blocks = 64u64;
    let shared = 8 * u64::from(b);
    let gwords = blocks * u64::from(b) + 4 * u64::from(b) + 64;

    // A kernel exercising every analysis path: unit-stride and strided
    // global copies, broadcast and conflicted shared accesses, a
    // register-addressed gather (dynamic conflict/coalesce fallbacks),
    // divergence (partial masks) and a loop.
    let mut kb = KernelBuilder::new("alloc_probe", blocks, shared);
    let bi = i64::from(b);
    kb.glb_to_shr(AddrExpr::lane(), DBuf(0), AddrExpr::block() * bi + AddrExpr::lane());
    kb.ld_shr(0, AddrExpr::lane());
    kb.alu(AluOp::Mul, 1, Operand::Lane, Operand::Imm(2));
    // Register-addressed shared store: dynamic bank-conflict path.
    kb.st_shr(AddrExpr::reg(1), Operand::Reg(0));
    // Register-addressed global gather: dynamic coalescing path.
    kb.glb_to_shr(AddrExpr::lane() + bi, DBuf(0), AddrExpr::reg(1));
    kb.repeat(3, |kb| {
        kb.alu(AluOp::Add, 2, Operand::Reg(2), Operand::LoopVar(0));
        // Strided shared access under a partial mask.
        kb.when(PredExpr::Lt(Operand::Lane, Operand::Imm(i64::from(b) / 2)), |kb| {
            kb.st_shr(AddrExpr::lane() * 2 + 2 * bi, Operand::Reg(2));
        });
    });
    kb.st_shr(AddrExpr::lane() + 4 * bi, Operand::Reg(2));
    kb.shr_to_glb(DBuf(1), AddrExpr::block() * bi + AddrExpr::lane(), AddrExpr::lane() + 4 * bi);
    let kernel = kb.build();

    let nregs = kernel.max_reg().map(|r| u32::from(r) + 1).unwrap_or(1);
    let bases = vec![0u64, gwords];
    let mut gmem = GlobalMemory::new(bases.clone(), 2 * gwords, u64::from(b), 1 << 22).unwrap();
    for i in 0..gwords {
        gmem.write(i as i64, (i % 13) as i64);
    }

    let compiled = CompiledKernel::compile(&kernel, &bases, b, nregs);
    let mut dram = DramController::new(4, 60);
    let mut mp: Mp<BlockExec> = Mp::new(4);

    // Warm-up: fill the residency pool and run a few blocks, letting
    // every scratch buffer reach steady state.
    let mut next_block = 0u64;
    let warm_blocks = 8u64;
    while mp.free_slots() > 0 && next_block < warm_blocks {
        mp.admit(&compiled, next_block, || Box::new(BlockExec::new(&compiled)));
        next_block += 1;
    }
    while !mp.idle() {
        let mut acc = GmemAccess::Direct(&mut gmem);
        if mp.step(&compiled, &mut acc, &mut dram).unwrap() && next_block < warm_blocks {
            mp.admit(&compiled, next_block, || Box::new(BlockExec::new(&compiled)));
            next_block += 1;
        }
    }

    // Steady state: every further block must execute without a single
    // allocator call.
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    assert!(before > 0, "the counter must see this thread's warm-up allocations");
    let mut instructions = 0u64;
    while next_block < blocks || !mp.idle() {
        while mp.free_slots() > 0 && next_block < blocks {
            mp.admit(&compiled, next_block, || panic!("steady state must reuse pooled executors"));
            next_block += 1;
        }
        let mut acc = GmemAccess::Direct(&mut gmem);
        mp.step(&compiled, &mut acc, &mut dram).unwrap();
        instructions += 1;
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);

    assert!(instructions > 500, "probe should issue plenty of instructions");
    assert_eq!(
        after - before,
        0,
        "steady-state execution of {} instructions allocated {} times",
        instructions,
        after - before
    );

    // Sanity: the kernel really ran (outputs landed in buffer 1).
    assert_ne!(gmem.read(gwords as i64), None);

    // ── Sharded cluster launch ────────────────────────────────────────
    //
    // The multi-device layer executes every shard against a per-device
    // memory replica with writes deferred to a log (`GmemAccess::Logged`)
    // and merges afterwards.  Steady-state instructions on that path must
    // stay zero-allocation per device thread too: the only allocating
    // element is the log vector itself, whose growth is amortised — so a
    // correctly pre-reserved log (as a fixed-size arena would be in a
    // production runtime) must make the instruction stream allocation-free.
    struct DeviceLane {
        mp: Mp<BlockExec>,
        dram: DramController,
        gmem: GlobalMemory,
        log: Vec<atgpu_sim::warp::WriteRec>,
        next_block: u64,
        end_block: u64,
    }
    let shard_ranges = [(0u64, blocks / 2), (blocks / 2, blocks)];
    let mut lanes: Vec<DeviceLane> = shard_ranges
        .iter()
        .map(|&(start, end)| {
            let mut gmem =
                GlobalMemory::new(bases.clone(), 2 * gwords, u64::from(b), 1 << 22).unwrap();
            for i in 0..gwords {
                gmem.write(i as i64, (i % 13) as i64);
            }
            DeviceLane {
                mp: Mp::new(4),
                dram: DramController::new(4, 60),
                gmem,
                log: Vec::new(),
                next_block: start,
                end_block: end,
            }
        })
        .collect();

    // Warm-up: a few blocks per device measure the executor pool and
    // per-block write volume.
    for lane in &mut lanes {
        let warm_end = lane.next_block + 4;
        while lane.mp.free_slots() > 0 && lane.next_block < warm_end {
            lane.mp.admit(&compiled, lane.next_block, || Box::new(BlockExec::new(&compiled)));
            lane.next_block += 1;
        }
        while !lane.mp.idle() {
            let mut acc = GmemAccess::Logged { base: &lane.gmem, log: &mut lane.log };
            if lane.mp.step(&compiled, &mut acc, &mut lane.dram).unwrap()
                && lane.next_block < warm_end
            {
                lane.mp.admit(&compiled, lane.next_block, || Box::new(BlockExec::new(&compiled)));
                lane.next_block += 1;
            }
        }
        let writes_per_block = lane.log.len() as u64 / 4;
        lane.log.reserve(((lane.end_block - lane.next_block + 1) * writes_per_block) as usize);
    }

    // Steady state across both device lanes.
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let mut instructions = 0u64;
    loop {
        let mut progressed = false;
        for lane in &mut lanes {
            while lane.mp.free_slots() > 0 && lane.next_block < lane.end_block {
                lane.mp.admit(&compiled, lane.next_block, || {
                    panic!("steady state must reuse pooled executors")
                });
                lane.next_block += 1;
            }
            if !lane.mp.idle() {
                let mut acc = GmemAccess::Logged { base: &lane.gmem, log: &mut lane.log };
                lane.mp.step(&compiled, &mut acc, &mut lane.dram).unwrap();
                instructions += 1;
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert!(instructions > 500, "sharded probe should issue plenty of instructions");
    assert_eq!(
        after - before,
        0,
        "sharded steady-state execution of {} instructions allocated {} times",
        instructions,
        after - before
    );
    // Both shards really executed and logged writes.
    for (lane, &(start, end)) in lanes.iter().zip(&shard_ranges) {
        assert_eq!(lane.mp.stats.blocks, end - start);
        assert!(!lane.log.is_empty());
    }

    // ── Timeline tracing ──────────────────────────────────────────────
    //
    // Everything above ran with tracing off — that *is* the tracing-off
    // allocation contract.  With tracing on, span recording must be
    // allocation-free in steady state too: the span ring is fully
    // pre-allocated at construction and recycles its oldest entries
    // once full, and fault retry/backoff segments use a fixed inline
    // buffer.
    use atgpu_model::StreamResource;
    use atgpu_sim::trace::{SpanKind, Tracer};
    let cap = 1024usize;
    let mut tracer = Tracer::new(cap);
    // Warm-up: one plain and one segmented record.
    tracer.record(0, 0, StreamResource::HostToDevice, 0, SpanKind::TransferIn, 8, 0.1, 0.0, 0.1);
    tracer.segs.push(0.0, 0.4, false);
    tracer.record(0, 0, StreamResource::HostToDevice, 0, SpanKind::TransferIn, 8, 0.4, 0.1, 0.5);

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for i in 0..4096usize {
        let t = i as f64;
        // A faulted transfer: attempt + backoff segments, then the
        // fused record expands them into per-segment spans.
        tracer.segs.push(0.0, 0.4, false);
        tracer.segs.push(0.4, 0.5, true);
        tracer.record(
            i,
            0,
            StreamResource::HostToDevice,
            0,
            SpanKind::TransferIn,
            8,
            0.5,
            t,
            t + 0.5,
        );
        tracer.record(i, 0, StreamResource::Compute, 0, SpanKind::Kernel, 64, -1.0, t, t + 1.0);
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "steady-state span recording must not allocate ({} calls)",
        after - before
    );

    // The ring wrapped: it kept the newest `cap` spans and counted the
    // evictions instead of growing.
    let trace = tracer.finish();
    assert_eq!(trace.spans.len(), cap);
    assert!(trace.dropped > 0, "the probe recorded far more spans than the ring holds");
}
