//! Regression: the fault journal must be bounded by the memory size, not
//! by the length of the run.  A faulted multi-device run used to keep one
//! `(seq, addr, value)` record per written word per device for the whole
//! program — 24 bytes × words written × rounds, in one growing `Vec` —
//! so a served program that rewrites the same buffer round after round
//! grew the journal without limit.  The journal is now a stamp per replica
//! word (the replica itself holds the values), so the largest single
//! allocation of such a run is set by the replica alone, whatever the
//! round count — and a device lost in the last round still recovers the
//! device-resident state exactly.
//!
//! This file contains a single test so no concurrent test can perturb
//! the allocation high-water mark.

use atgpu_ir::{AddrExpr, AluOp, HBuf, KernelBuilder, Operand, Program, ProgramBuilder};
use atgpu_model::{AtgpuMachine, ClusterSpec, GpuSpec};
use atgpu_sim::{even_shards, run_cluster_program, FaultEvent, FaultPlan, SimConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

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

const B: u64 = 32;
/// Words of `A`; every round uploads all of them and rewrites as many.
const N: u64 = 2048;

/// `rounds` rounds over two devices, each re-uploading both halves of `A`
/// and accumulating them into a device-resident `C` that only the last
/// round downloads: `C = rounds · A`.
fn accumulate_program(rounds: usize) -> (Program, HBuf) {
    let blocks = N / B;
    let bi = B as i64;
    let mut pb = ProgramBuilder::new("accumulate");
    let ha = pb.host_input("A", N);
    let hc = pb.host_output("C", N);
    let da = pb.device_alloc("a", N);
    let dc = pb.device_alloc("c", N);
    let shards = even_shards(blocks, 2);

    let mut kb = KernelBuilder::new("accumulate_kernel", blocks, 3 * B);
    let g = AddrExpr::block() * bi + AddrExpr::lane();
    kb.glb_to_shr(AddrExpr::lane(), da, g.clone());
    kb.glb_to_shr(AddrExpr::lane() + bi, dc, g.clone());
    kb.ld_shr(0, AddrExpr::lane());
    kb.ld_shr(1, AddrExpr::lane() + bi);
    kb.alu(AluOp::Add, 2, Operand::Reg(0), Operand::Reg(1));
    kb.st_shr(AddrExpr::lane() + 2 * bi, Operand::Reg(2));
    kb.shr_to_glb(dc, g, AddrExpr::lane() + 2 * bi);
    let kernel = kb.build();

    for round in 0..rounds {
        pb.begin_round();
        for s in &shards {
            let (off, words) = (s.start * B, s.blocks() * B);
            pb.transfer_in_to(s.device, ha, off, da, off, words);
        }
        pb.launch_sharded(kernel.clone(), shards.clone());
        if round + 1 == rounds {
            for s in &shards {
                let (off, words) = (s.start * B, s.blocks() * B);
                pb.transfer_out_from(s.device, dc, off, hc, off, words);
            }
        }
    }
    (pb.build().unwrap(), hc)
}

#[test]
fn the_fault_journal_is_bounded_by_the_replica_not_the_round_count() {
    let machine = AtgpuMachine::new(1 << 12, B, 256, 1 << 16).unwrap();
    let cluster = ClusterSpec::homogeneous(2, GpuSpec { k_prime: 2, ..GpuSpec::gtx650_like() });
    let data: Vec<i64> = (0..N as i64).map(|i| 5 * i - 11).collect();
    let faulted = |event| {
        let mut plan = FaultPlan::new(0);
        plan.push(event);
        SimConfig { fault: plan, ..SimConfig::default() }
    };
    // The replica is the two buffers; the bound leaves room for the
    // stamps, the host copies and one launch's write log.
    let total_words = 2 * N as usize;
    let bound = 4 * 8 * total_words;

    for rounds in [4usize, 64] {
        let (program, hc) = accumulate_program(rounds);
        let expected: Vec<i64> = data.iter().map(|a| rounds as i64 * a).collect();

        // A plan whose only event changes nothing, so the fault state —
        // and with it the journal — exists.  At the parent the journal
        // `Vec` of this run reached 24 · rounds · N bytes per device.
        let idle = faulted(FaultEvent::Straggler { device: 1, clock_factor: 1.0 });
        LARGEST.store(0, Ordering::SeqCst);
        let report =
            run_cluster_program(&program, vec![data.clone()], &machine, &cluster, &idle).unwrap();
        let largest = LARGEST.load(Ordering::SeqCst);
        assert_eq!(report.output(hc), expected, "rounds={rounds}");
        assert!(largest > 0, "the shim must see the run's allocations");
        assert!(largest <= bound, "rounds={rounds}: a {largest}-byte allocation (bound {bound})");

        // Device 1 dies at the start of the last round: its half of `C`
        // exists only in its replica, and the survivor must finish with
        // the fault-free answer.
        let lost = faulted(FaultEvent::DeviceDown { device: 1, at_round: rounds - 1 });
        LARGEST.store(0, Ordering::SeqCst);
        let report =
            run_cluster_program(&program, vec![data.clone()], &machine, &cluster, &lost).unwrap();
        let largest = LARGEST.load(Ordering::SeqCst);
        assert_eq!(report.output(hc), expected, "rounds={rounds}, device 1 lost");
        assert_eq!(report.device_stats[0].recoveries, 1, "rounds={rounds}");
        assert!(largest <= bound, "rounds={rounds}, device 1 lost: a {largest}-byte allocation");
    }
}
