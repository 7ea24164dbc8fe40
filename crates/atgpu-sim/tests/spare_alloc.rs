//! A run's pages come from the spare list: after one warm-up run, a
//! repeat of a 4-device staged program — four 64 KB replicas and a 64 KB
//! host output every run, copies up, down and between the devices —
//! asks the allocator for nothing of a page or more.  A change that
//! quietly stops giving replicas or host outputs back, or stops taking
//! them, fails here rather than only in the benchmark.
//!
//! This file contains a single test so no concurrent test can take the
//! spares or perturb the counter, which only sees the test's own thread
//! (see `engine_alloc.rs`).

use atgpu_ir::{AddrExpr, AluOp, KernelBuilder, Operand, Program, ProgramBuilder};
use atgpu_model::ClusterSpec;
use atgpu_sim::{even_shards, run_cluster_program, SimConfig};
use common::{machine, spec};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

mod common;

struct CountingAlloc;

/// Counted allocations of at least a page, and the largest of them.
static PAGES: AtomicU64 = AtomicU64::new(0);
static LARGEST: AtomicUsize = AtomicUsize::new(0);

/// One page of bytes.
const PAGE: usize = 4096;

thread_local! {
    /// Whether this thread's allocations are counted.  Const-initialised
    /// and without a destructor, so reading it from inside the allocator
    /// never allocates.
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

fn count(bytes: usize) {
    if bytes >= PAGE && COUNTED.try_with(Cell::get).unwrap_or(false) {
        PAGES.fetch_add(1, Ordering::Relaxed);
        LARGEST.fetch_max(bytes, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose contract is the one `GlobalAlloc` states; counting touches only
// atomics and a const thread-local, and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Words of the state: sixteen provenance chunks.
const N: u64 = 16 * atgpu_sim::gmem::CHUNK_WORDS as u64;

/// Four rounds over an `N`-word state on four devices: slab `d` up to
/// device `d`, 16 blocks bump a row of each `N/16` words, every slab to
/// every other device, and the whole state down from one device to the
/// host buffer the next round uploads.
fn staged() -> Program {
    let (devices, slab, b) = (4, N / 4, machine().b);
    let mut pb = ProgramBuilder::new("staged");
    let first = pb.host_input("A", N);
    let state = pb.host_output("C", N);
    let dev = pb.device_alloc("s", N);
    let mut kb = KernelBuilder::new("bump", 16, b);
    let at = AddrExpr::block() * (N / 16) as i64 + AddrExpr::lane();
    kb.glb_to_shr(AddrExpr::lane(), dev, at.clone());
    kb.ld_shr(0, AddrExpr::lane());
    kb.alu(AluOp::Add, 0, Operand::Reg(0), Operand::Imm(1));
    kb.st_shr(AddrExpr::lane(), Operand::Reg(0));
    kb.shr_to_glb(dev, at, AddrExpr::lane());
    let kernel = kb.build();
    for round in 0..4u32 {
        pb.begin_round();
        let from = if round == 0 { first } else { state };
        for d in 0..devices {
            let off = u64::from(d) * slab;
            pb.transfer_in_to(d, from, off, dev, off, slab);
        }
        pb.launch_sharded(kernel.clone(), even_shards(16, devices));
        for src in 0..devices {
            let off = u64::from(src) * slab;
            for dst in (0..devices).filter(|&dst| dst != src) {
                pb.transfer_peer(src, dst, dev, off, off, slab);
            }
        }
        pb.transfer_out_from(round % devices, dev, 0, state, 0, N);
    }
    pb.build().unwrap()
}

#[test]
fn a_repeated_run_allocates_no_page() {
    let program = staged();
    let cluster = ClusterSpec::homogeneous(4, spec());
    let config = SimConfig { device_threads: false, ..SimConfig::default() };
    let input: Vec<i64> = (0..N as i64).map(|w| w % 89).collect();
    let run = |inputs| {
        let report = run_cluster_program(&program, inputs, &machine(), &cluster, &config).unwrap();
        report.host.buf(atgpu_ir::HBuf(1))[0]
    };
    assert_eq!(run(vec![input.clone()]), 4, "the warm-up run bumps word 0 each round");

    let inputs = vec![input.clone()];
    COUNTED.with(|c| c.set(true));
    let word = run(inputs);
    COUNTED.with(|c| c.set(false));
    assert_eq!(word, 4);
    let (pages, largest) = (PAGES.load(Ordering::Relaxed), LARGEST.load(Ordering::Relaxed));
    assert_eq!(pages, 0, "{pages} allocations of a page or more, the largest {largest} bytes");
}
