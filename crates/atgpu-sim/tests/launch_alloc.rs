//! A warm launch allocates nothing: a device keeps its MPs, their
//! executors and the previous launch's cache key, so a second
//! `Device::run_kernel` of the same 8-block kernel at `ℓ = 16` — a cache
//! hit recognised as the previous launch — reaches the allocator not once.
//! And the kept executors serve a different kernel too: a launch with
//! more registers and more shared words re-fits them and gives a fresh
//! device's statistics and memory, word for word.
//!
//! This file contains a single test so no concurrent test can perturb
//! the allocation counter, and the counter only sees the test's own
//! thread (see `engine_alloc.rs`).

use atgpu_ir::{AddrExpr, AluOp, DBuf, Kernel, KernelBuilder, Operand, PredExpr};
use atgpu_model::{AtgpuMachine, GpuSpec};
use atgpu_sim::gmem::GlobalMemory;
use atgpu_sim::{Device, ExecMode};
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

const B: i64 = 32;
const BLOCKS: u64 = 8;

/// `c[i] = a[i] + b[i]` over 8 blocks: two global loads, a shared-memory
/// round trip, one global store — the relaunch shape of the repo
/// benchmark's `launch_storm`.
fn vecadd() -> Kernel {
    let word = || AddrExpr::block() * B + AddrExpr::lane();
    let mut kb = KernelBuilder::new("vecadd", BLOCKS, 2 * B as u64);
    kb.glb_to_shr(AddrExpr::lane(), DBuf(0), word());
    kb.glb_to_shr(AddrExpr::lane() + B, DBuf(1), word());
    kb.ld_shr(0, AddrExpr::lane());
    kb.ld_shr(1, AddrExpr::lane() + B);
    kb.alu(AluOp::Add, 0, Operand::Reg(0), Operand::Reg(1));
    kb.st_shr(AddrExpr::lane(), Operand::Reg(0));
    kb.shr_to_glb(DBuf(2), word(), AddrExpr::lane());
    kb.build()
}

/// Twelve registers, four times the shared words, a divergent arm and a
/// strided shared access: every row a kept executor holds must grow, and
/// stale contents would show in the output.
fn wider() -> Kernel {
    let word = || AddrExpr::block() * B + AddrExpr::lane();
    let mut kb = KernelBuilder::new("wider", BLOCKS, 8 * B as u64);
    kb.glb_to_shr(AddrExpr::lane() * 2, DBuf(0), word());
    kb.ld_shr(11, AddrExpr::lane() * 2);
    kb.when(PredExpr::Lt(Operand::Lane, Operand::Imm(B / 2)), |kb| {
        kb.alu(AluOp::Mul, 7, Operand::Reg(11), Operand::Block);
        kb.st_shr(AddrExpr::lane() + 6 * B, Operand::Reg(7));
    });
    kb.ld_shr(3, AddrExpr::lane() + 6 * B);
    kb.alu(AluOp::Add, 3, Operand::Reg(3), Operand::Reg(11));
    kb.st_shr(AddrExpr::lane() + 7 * B, Operand::Reg(3));
    kb.shr_to_glb(DBuf(2), word(), AddrExpr::lane() + 7 * B);
    kb.build()
}

#[test]
fn a_warm_launch_allocates_nothing() {
    COUNTED.with(|c| c.set(true));
    let machine = AtgpuMachine::gtx650_like();
    let spec = GpuSpec { h_limit: 16, ..GpuSpec::gtx650_like() };
    let n = BLOCKS * B as u64;
    let image = || {
        let mut g = GlobalMemory::new(vec![0, n, 2 * n], 3 * n, machine.b, machine.g).unwrap();
        for i in 0..2 * n {
            g.write(i as i64, (i * 7 % 23) as i64 - 11);
        }
        g
    };
    let device = Device::new(machine, spec).unwrap();
    let mut gmem = image();
    let kernel = vecadd();

    let cold = device.run_kernel(&kernel, &mut gmem, ExecMode::Sequential, false).unwrap();
    assert_eq!((cold.blocks, cold.occupancy), (BLOCKS, 16));
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    assert!(before > 0, "the counter must see this thread's cold launch");
    let warm = device.run_kernel(&kernel, &mut gmem, ExecMode::Sequential, false).unwrap();
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(after - before, 0, "a warm 8-block launch allocated {} times", after - before);
    assert_eq!(warm, cold);
    assert_eq!(device.stats().cache.hits, 1, "the warm launch is a cache hit");

    // The kept executors, re-fitted to a wider kernel, against a fresh
    // device's own.
    let wider = wider();
    let mut kept_mem = image();
    let kept = device.run_kernel(&wider, &mut kept_mem, ExecMode::Sequential, false).unwrap();
    let fresh_device = Device::new(machine, spec).unwrap();
    let mut fresh_mem = image();
    let fresh =
        fresh_device.run_kernel(&wider, &mut fresh_mem, ExecMode::Sequential, false).unwrap();
    assert_eq!(kept, fresh);
    assert_eq!(kept_mem.words(), fresh_mem.words());
    assert_ne!(kept_mem.words(), image().words(), "the wider kernel wrote its output");
}
