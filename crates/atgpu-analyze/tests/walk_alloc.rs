//! The front end's two leaf costs allocate per call, not per node or per
//! dimension: `atgpu_ir::lanemask::walk` makes as many allocations for a
//! 1 000-node kernel of lane-pure ALU ops and folded predicates as for a
//! 10-node one, and `coalesce::site_transactions` makes as many for a
//! site under four loops as for one under none.
//!
//! The allocator counts the calls of the thread that asks, so the other
//! tests of this binary cannot move a count.

use atgpu_analyze::coalesce::site_transactions;
use atgpu_ir::affine::CompiledAddr;
use atgpu_ir::lanemask::{walk, At};
use atgpu_ir::{AddrExpr, AluOp, Instr, Operand, PredExpr};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static CALLS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Whether this thread's allocator calls are counted.  Const and
    /// without a destructor: reading it inside the allocator never
    /// allocates.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn count_call() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        CALLS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose contract is the one `GlobalAlloc` states; the bookkeeping
// touches only an atomic and a const thread-local and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_call();
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_call();
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_call();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocator calls `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    COUNTING.with(|c| c.set(true));
    let before = CALLS.load(Ordering::Relaxed);
    f();
    let calls = CALLS.load(Ordering::Relaxed) - before;
    COUNTING.with(|c| c.set(false));
    calls
}

/// `copies` repetitions of a 10-node block: lane-pure ALU ops (the
/// interleaved reduction's `j mod 2s` among them), moves and predicates
/// that fold over them, at the top level and nested.
fn lane_pure_kernel(copies: usize) -> Vec<Instr> {
    let alu = |op, dst, a, b| Instr::Alu { op, dst, a, b };
    let block = [
        alu(AluOp::Rem, 0, Operand::Lane, Operand::Imm(4)),
        alu(AluOp::Mul, 1, Operand::Reg(0), Operand::Imm(3)),
        Instr::Mov { dst: 2, src: Operand::Lane },
        alu(AluOp::Add, 3, Operand::Reg(1), Operand::Reg(2)),
        Instr::Pred {
            pred: PredExpr::Eq(Operand::Reg(0), Operand::Imm(0)),
            then_body: vec![Instr::Pred {
                pred: PredExpr::Lt(Operand::Reg(3), Operand::Lane),
                then_body: vec![alu(AluOp::Shl, 5, Operand::Reg(3), Operand::Imm(1))],
                else_body: vec![],
            }],
            else_body: vec![alu(AluOp::Div, 4, Operand::Reg(1), Operand::Reg(0))],
        },
        alu(AluOp::Sub, 5, Operand::Reg(2), Operand::Reg(1)),
        Instr::Mov { dst: 6, src: Operand::Imm(7) },
    ];
    assert_eq!(nodes(&block), 10);
    block.iter().cycle().take(block.len() * copies).cloned().collect()
}

fn nodes(body: &[Instr]) -> usize {
    body.iter()
        .map(|i| match i {
            Instr::Pred { then_body, else_body, .. } => 1 + nodes(then_body) + nodes(else_body),
            Instr::Repeat { body, .. } => 1 + nodes(body),
            _ => 1,
        })
        .sum()
}

#[test]
fn the_walk_and_the_coalescing_count_allocate_per_call() {
    let (small, large) = (lane_pure_kernel(1), lane_pure_kernel(100));
    assert_eq!((nodes(&small), nodes(&large)), (10, 1000));
    for b in [5, 32, 64] {
        let walk_of = |body: &[Instr]| {
            allocations(|| {
                let mut folded = 0u32;
                walk(body, b, &mut |at: &At<'_>, _: &Instr| {
                    folded += u32::from(at.folded.is_some());
                });
                // Every predicate folded: the walk kept its rows.
                assert_eq!(folded as usize, 2 * body.len() / 7);
            })
        };
        let (a, z) = (walk_of(&small), walk_of(&large));
        assert_eq!(a, z, "b = {b}: a 10-node walk makes {a} allocations, a 1000-node one {z}");
        assert!(a <= 1, "b = {b}: {a} allocations, more than the one row store");
    }

    // A site whose every dimension folds (no coefficient is 0 mod `b`),
    // under 0 to 4 loops; `b = 96` keeps its two rows on the heap.
    for b in [8u64, 32, 64, 96] {
        let calls: Vec<u64> = (0..=4)
            .map(|depth| {
                let mut e = AddrExpr::lane() * 3 + AddrExpr::block() * 5 + AddrExpr::block_y() * 7;
                for d in 0..depth {
                    e = e + AddrExpr::loop_var(d) * (2 * i64::from(d) + 1);
                }
                let addr = CompiledAddr::compile(e);
                let trips = vec![b as u32 + 3; depth as usize];
                allocations(|| {
                    black_box(site_transactions(&addr, 17, (b + 5, 3), &trips, b));
                })
            })
            .collect();
        assert!(calls.iter().all(|&c| c == calls[0]), "b = {b}: allocations by depth {calls:?}");
        assert_eq!(calls[0], u64::from(b > 64), "b = {b}: {calls:?}");
    }
}
