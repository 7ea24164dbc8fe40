//! A server keeps each priced program's analysis within
//! `ANALYSIS_BUDGET_BYTES`: 1 024 distinct programs of 2 000 rounds, each
//! priced on the server's cluster and as a what-if, would hold ≈ 440 MB
//! of analyses if every one were kept.  Each is analysed once — its
//! what-if prices the kept analysis — and the live heap stays within the
//! budget plus a margin for the verdict and quote memos.
//!
//! The allocator tracks live bytes; this file holds one test so no
//! concurrent test moves them.

use atgpu_ir::{AddrExpr, AluOp, HostStep, KernelBuilder, Operand, Program, ProgramBuilder};
use atgpu_model::{AtgpuMachine, ClusterSpec, GpuSpec};
use atgpu_serve::{CostServer, PriceSource, ServerConfig, ANALYSIS_BUDGET_BYTES};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct LiveAlloc;

/// Bytes currently allocated.
static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose contract is the one `GlobalAlloc` states; the bookkeeping
// touches only an atomic and never allocates.
unsafe impl GlobalAlloc for LiveAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        p
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        p
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            LIVE.fetch_add(new_size, Ordering::Relaxed);
        }
        p
    }
}

#[global_allocator]
static ALLOC: LiveAlloc = LiveAlloc;

const PROGRAMS: usize = 1024;
const ROUNDS: usize = 2000;
/// The verdict and quote memos (1 024 small entries each), beside the
/// analyses.
const MARGIN: usize = 4 << 20;

/// `ROUNDS` rounds on device 0, each bumping one row of a `b`-word
/// buffer, after an upload: exact counts and no bank conflicts, so the
/// quote is analytic.
fn long_program(b: u64) -> Program {
    let mut pb = ProgramBuilder::new("long");
    let input = pb.host_input("A", b + PROGRAMS as u64);
    let buf = pb.device_alloc("a", b + PROGRAMS as u64);
    let mut kb = KernelBuilder::new("bump", 1, b);
    kb.glb_to_shr(AddrExpr::lane(), buf, AddrExpr::lane());
    kb.ld_shr(0, AddrExpr::lane());
    kb.alu(AluOp::Add, 0, Operand::Reg(0), Operand::Imm(1));
    kb.st_shr(AddrExpr::lane(), Operand::Reg(0));
    kb.shr_to_glb(buf, AddrExpr::lane(), AddrExpr::lane());
    let kernel = kb.build();
    pb.begin_round();
    pb.transfer_in(input, buf, 1);
    for _ in 1..ROUNDS {
        pb.begin_round();
        pb.launch(kernel.clone());
    }
    pb.build().unwrap()
}

#[test]
fn kept_analyses_stay_within_the_budget() {
    let machine = AtgpuMachine::gtx650_like();
    let spec = GpuSpec::gtx650_like();
    let server =
        CostServer::new(machine, ClusterSpec::homogeneous(1, spec), ServerConfig::default())
            .unwrap();
    let mut slow = ClusterSpec::homogeneous(2, spec);
    slow.host_links[0] = slow.host_links[0].scaled(4.0);
    let mut program = long_program(machine.b);
    let base = LIVE.load(Ordering::Relaxed);
    let mut held = 0;
    for i in 0..PROGRAMS {
        // A distinct shape per program: the upload's size.
        let Some(HostStep::TransferIn { words, .. }) = program.edit().rounds[0].steps.first_mut()
        else {
            panic!("round 0 opens with the upload");
        };
        *words = 1 + i as u64;
        let own = server.price(&program).unwrap();
        let what_if = server.price_what_if(&program, &slow).unwrap();
        assert_eq!((own.source, what_if.source), (PriceSource::Analytic, PriceSource::Analytic));
        assert!(what_if.total_ms > own.total_ms, "program {i}: a slower link is cheaper");
        held = held.max(LIVE.load(Ordering::Relaxed).saturating_sub(base));
    }
    assert_eq!(server.stats().analyses, PROGRAMS as u64, "each program is analysed once");
    assert!(
        held < ANALYSIS_BUDGET_BYTES + MARGIN,
        "{} MB live past a {} MB analysis budget",
        held >> 20,
        ANALYSIS_BUDGET_BYTES >> 20
    );
    // The memo filled its budget: the bound is what held the heap.
    assert!(held > ANALYSIS_BUDGET_BYTES / 2, "only {} kB held", held >> 10);
}
