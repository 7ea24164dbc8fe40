//! Regression: a *valid* `GpuSpec` must not be able to size an
//! allocation.  `GpuSpec::validate` accepts any `h_limit`, a kernel that
//! declares no shared memory gets `ℓ = H` from `occupancy`, and the
//! multiprocessor used to pre-size its executor pool, wake-up array and
//! tournament tree by `ℓ`: with `h_limit = 1 << 40` a release-mode
//! `run_program` died in `memory allocation of 3192981767061504 bytes
//! failed` — an abort, not a `SimError` — and `h_limit = 100_000` "only"
//! allocated 2 × 290 MB per launch.  A spec reaches the simulator from a
//! client through `CostServer::price_what_if`'s simulation fallback.
//! What an MP holds now grows with the blocks it is actually given, so
//! the largest single allocation of such a run stays small.  The same
//! holds one level up: `k_prime` is just as unbounded, and the device
//! used to build all `k′` MPs per launch (`k_prime = 1 << 40` aborted
//! allocating 202 TB); it now builds only the MPs the fill reaches.
//!
//! The tests take one lock so neither can perturb the other's
//! allocation high-water mark.

use atgpu_ir::{AluOp, HBuf, KernelBuilder, Operand, Program, ProgramBuilder};
use atgpu_model::{AtgpuMachine, GpuSpec};
use atgpu_sim::gmem::GlobalMemory;
use atgpu_sim::{run_program, Device, ExecMode, KernelStats, SimConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

struct PeakAlloc;

/// Largest single request the allocator has seen, in bytes.
static LARGEST: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

/// Serialises the tests around [`LARGEST`].
static SERIAL: Mutex<()> = Mutex::new(());

/// Eight blocks of a kernel without shared memory (so `ℓ = H`), between
/// a transfer in and a transfer out of the same buffer, with its input.
fn program(machine: &AtgpuMachine) -> (Program, HBuf, Vec<i64>) {
    let n = 8 * machine.b;
    let mut kb = KernelBuilder::new("no_shared", 8, 0);
    kb.mov(0, Operand::Block);
    kb.repeat(4, |kb| {
        kb.alu(AluOp::Add, 0, Operand::Reg(0), Operand::Lane);
    });
    let mut pb = ProgramBuilder::new("huge_h");
    let input = pb.host_input("A", n);
    let output = pb.host_output("B", n);
    let buf = pb.device_alloc("a", n);
    pb.begin_round();
    pb.transfer_in(input, buf, n);
    pb.launch(kb.build());
    pb.transfer_out(buf, output, n);
    let data: Vec<i64> = (0..n as i64).map(|i| 3 * i - 7).collect();
    (pb.build().unwrap(), output, data)
}

/// Runs [`program`] on `spec`: written through (a program run), or
/// logged and race-checked (the launch-level door, on the memory the
/// program stages).  Returns the launch's statistics and the largest
/// single allocation of the run.
fn run(spec: &GpuSpec, logged: bool) -> (KernelStats, usize) {
    let machine = AtgpuMachine::gtx650_like();
    let (program, output, data) = program(&machine);
    let mut out = vec![0; data.len()];
    LARGEST.store(0, Ordering::SeqCst);
    let stats = if logged {
        let (bases, total) = program.buffer_layout(machine.b);
        let mut gmem = GlobalMemory::new(bases, total, machine.b, machine.g).unwrap();
        let at = gmem.span(0, 0, data.len() as u64).unwrap();
        gmem.copy_in(at, &data);
        let kernel = program.rounds[0].kernel().unwrap();
        let device = Device::new(machine, *spec).unwrap();
        let stats = device.run_kernel(kernel, &mut gmem, ExecMode::Sequential, true).unwrap();
        gmem.copy_out(at, &mut out);
        stats
    } else {
        let config = SimConfig::default();
        let report = run_program(&program, vec![data.clone()], &machine, spec, &config).unwrap();
        out.copy_from_slice(report.output(output));
        report.rounds[0].kernel_stats
    };
    let largest = LARGEST.load(Ordering::SeqCst);
    assert_eq!(out, data, "logged={logged}");
    (stats, largest)
}

#[test]
fn a_huge_residency_limit_sizes_no_allocation() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let spec = GpuSpec { h_limit: 1 << 40, ..GpuSpec::gtx650_like() };
    spec.validate().expect("the model accepts any residency limit");

    for logged in [false, true] {
        let (stats, largest) = run(&spec, logged);
        assert_eq!(stats.occupancy, 1 << 40, "logged={logged}: the model's ℓ is reported as it is");
        assert_eq!((stats.blocks, stats.instructions), (8, 8 * 5), "logged={logged}");
        // An executor is ≈ 3 KB; at the parent the first request was
        // 2904 B × ℓ.
        assert!(largest < 1 << 20, "logged={logged}: a {largest}-byte allocation");
    }
}

#[test]
fn a_huge_mp_count_sizes_no_allocation() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // `ℓ = 3`, so the eight blocks fill ⌈8/3⌉ = 3 MPs.
    let spec = GpuSpec { k_prime: 1 << 40, h_limit: 3, ..GpuSpec::gtx650_like() };
    spec.validate().expect("the model accepts any MP count");
    let reached = GpuSpec { k_prime: 3, ..spec };

    for logged in [false, true] {
        let (stats, largest) = run(&spec, logged);
        assert_eq!(stats, run(&reached, logged).0, "logged={logged}");
        assert!(largest < 1 << 20, "logged={logged}: a {largest}-byte allocation");
    }
}
