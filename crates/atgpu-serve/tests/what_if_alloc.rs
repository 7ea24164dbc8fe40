//! A what-if quote pays only for the devices the program names: a
//! one-device program priced on a 1 024-device spec is analysed on one
//! device, so the heap stays near the spec itself (its 1 024² peer-link
//! table is 16 MB).  Analysed on every device, the per-device round
//! tables of a 2 000-round program took the live heap past 200 MB.
//!
//! The allocator tracks live bytes and their high-water mark; this file
//! holds one test so no concurrent test moves either.

use atgpu_ir::{AddrExpr, AluOp, KernelBuilder, Operand, Program, ProgramBuilder};
use atgpu_model::{AtgpuMachine, ClusterSpec, GpuSpec};
use atgpu_serve::{CostServer, PriceSource, ServerConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct PeakAlloc;

/// Bytes currently allocated, and the most there have been since the
/// last reset.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose contract is the one `GlobalAlloc` states; the bookkeeping
// touches only atomics and never allocates.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            shrink(layout.size());
            grow(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

const DEVICES: usize = 1024;
const ROUNDS: usize = 2000;
const BOUND: usize = 64 << 20;

/// `ROUNDS` rounds on device 0, each bumping one row of a `b`-word
/// buffer: exact counts and no bank conflicts, so the quote is analytic.
fn long_program(b: u64) -> Program {
    let mut pb = ProgramBuilder::new("long");
    let input = pb.host_input("A", b);
    let output = pb.host_output("B", b);
    let buf = pb.device_alloc("a", b);
    let mut kb = KernelBuilder::new("bump", 1, b);
    kb.glb_to_shr(AddrExpr::lane(), buf, AddrExpr::lane());
    kb.ld_shr(0, AddrExpr::lane());
    kb.alu(AluOp::Add, 0, Operand::Reg(0), Operand::Imm(1));
    kb.st_shr(AddrExpr::lane(), Operand::Reg(0));
    kb.shr_to_glb(buf, AddrExpr::lane(), AddrExpr::lane());
    let kernel = kb.build();
    pb.begin_round();
    pb.transfer_in(input, buf, b);
    for _ in 0..ROUNDS {
        pb.begin_round();
        pb.launch(kernel.clone());
    }
    pb.transfer_out(buf, output, b);
    pb.build().unwrap()
}

#[test]
fn a_wide_what_if_of_a_one_device_program_stays_small() {
    let machine = AtgpuMachine::gtx650_like();
    let spec = GpuSpec::gtx650_like();
    let server =
        CostServer::new(machine, ClusterSpec::homogeneous(1, spec), ServerConfig::default())
            .unwrap();
    let program = long_program(machine.b);
    let one = server.price(&program).unwrap();
    assert_eq!(one.source, PriceSource::Analytic);

    let wide = ClusterSpec::homogeneous(DEVICES, spec);
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
    let quote = server.price_what_if(&program, &wide).unwrap();
    let peak = PEAK.load(Ordering::Relaxed);

    assert_eq!(quote.source, PriceSource::Analytic);
    assert_eq!(quote.total_ms.to_bits(), one.total_ms.to_bits(), "idle devices moved the quote");
    assert!(peak < BOUND, "live heap peaked at {} MB over a {DEVICES}-device what-if", peak >> 20);
}
