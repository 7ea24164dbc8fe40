//! Differential property tests: the flat micro-op engine must be
//! **bit-exact** with the tree-walking reference interpreter — identical
//! `StepEvent` streams, identical register/shared/global state — over
//! randomized kernels exercising divergence, nested loops, strided and
//! broadcast shapes, and register-addressed (data-dependent) gathers,
//! under both write targets (written through, and logged then merged).
//!
//! Kernels are generated from a 64-bit seed drawn by proptest by the
//! shared generator (`common/mod.rs`) on its one-device grid; it
//! constrains shapes so every address stays in bounds, which keeps the
//! comparison on the success path (error parity has dedicated unit tests
//! in the sim crate).

use atgpu_ir::{AddrExpr, AluOp, DBuf, Kernel, KernelBuilder, Operand, PredExpr};
use atgpu_model::{AtgpuMachine, GpuSpec};
use atgpu_sim::engine::{BlockExec, BlockSim, Scratch};
use atgpu_sim::gmem::GlobalMemory;
use atgpu_sim::uop::CompiledKernel;
use atgpu_sim::warp::{GmemAccess, StepEvent, WarpExec};
use atgpu_sim::{apply_write_log, Device, EngineSel, ExecMode};
use common::{fill_gmem, gen_kernel, Grid};
use proptest::prelude::*;

mod common;

/// One launch both engines run: the kernel, its machine, the device's
/// `(k′, H)`, the buffer bases and the global words.
type Launch = (Kernel, AtgpuMachine, (u64, u64), Vec<u64>, u64);

/// A random kernel with its machine and memory layout, on a `k′ = 2,
/// H = 4` device.
fn gen_launch(seed: u64) -> Launch {
    let (kernel, machine, bases, total) = gen_kernel("diff", seed, Grid::Device);
    (kernel, machine, (2, 4), bases, total)
}

/// The re-arming input, fixed: three blocks on a `k′ = 1, ℓ = 1` device,
/// so one executor slot is re-armed twice.  Every block reads `r0` and
/// shared word `b + j` *before* writing them — under a lane predicate,
/// so no write covers the read — branches and stores on what it read,
/// then leaves `block + 1 ≠ 0` in both.  The reference clears registers
/// and shared memory on every re-arm; an engine that skips either clear
/// takes the other branch from block 1 on.
fn rearm_launch() -> Launch {
    let b = 8i64;
    let j = AddrExpr::lane;
    let mut kb = KernelBuilder::new("rearm", 3, 2 * b as u64);
    kb.when(PredExpr::Lt(Operand::Lane, Operand::Imm(b / 2)), |kb| {
        kb.ld_shr(1, j() + b);
        kb.alu(AluOp::Add, 2, Operand::Reg(0), Operand::Reg(1));
        kb.when(PredExpr::Ne(Operand::Reg(2), Operand::Imm(0)), |kb| {
            kb.alu(AluOp::Add, 2, Operand::Reg(2), Operand::Imm(100));
        });
        kb.alu(AluOp::Add, 0, Operand::Block, Operand::Imm(1));
        kb.st_shr(j() + b, Operand::Reg(0));
        kb.st_shr(j(), Operand::Reg(2));
        kb.shr_to_glb(DBuf(0), AddrExpr::block() * b + j(), j());
    });
    let gwords = 3 * b as u64;
    let machine = AtgpuMachine::new(4 * b as u64, b as u64, 2 * gwords, 1 << 22).unwrap();
    (kb.build(), machine, (1, 1), vec![0], gwords)
}

/// Step-level lockstep on one executor per side, re-armed block after
/// block: the same `StepEvent` at every step and identical register,
/// shared and global state at every block's completion.
fn lockstep((kernel, machine, _, bases, total): &Launch, seed: u64) -> Result<(), TestCaseError> {
    let nregs = kernel.max_reg().map(|r| u32::from(r) + 1).unwrap_or(1);
    let b = machine.b as u32;

    let mut g_ref = GlobalMemory::new(bases.clone(), *total, machine.b, machine.g).unwrap();
    fill_gmem(&mut g_ref, *total, seed);
    let mut g_eng = GlobalMemory::new(bases.clone(), *total, machine.b, machine.g).unwrap();
    fill_gmem(&mut g_eng, *total, seed);

    let compiled = CompiledKernel::compile(kernel, bases, b, nregs);
    let (mut eng, mut scratch) = (BlockExec::new(&compiled), Scratch::default());
    let mut reference = WarpExec::new(kernel, bases, b, nregs);

    for block in 0..kernel.blocks() {
        BlockSim::reset(&mut eng, &compiled, block);
        BlockSim::reset(&mut reference, &(), block);
        let mut step = 0u32;
        loop {
            let er = {
                let mut acc = GmemAccess::Direct(&mut g_eng);
                BlockSim::step(&mut eng, &compiled, &mut scratch, &mut acc)
            };
            let rr = {
                let mut acc = GmemAccess::Direct(&mut g_ref);
                BlockSim::step(&mut reference, &(), &mut (), &mut acc)
            };
            match (er, rr) {
                (Ok(e), Ok(r)) => {
                    prop_assert_eq!(e, r, "event mismatch at block {} step {}", block, step);
                    if e == StepEvent::Done {
                        break;
                    }
                }
                (Err(e), Err(r)) => {
                    prop_assert_eq!(e.to_string(), r.to_string());
                    return Ok(());
                }
                (e, r) => {
                    return Err(TestCaseError::fail(format!(
                        "engine {e:?} vs reference {r:?} at block {block} step {step}"
                    )));
                }
            }
            step += 1;
        }
        prop_assert_eq!(eng.regs(), reference.regs(), "registers after block {}", block);
        prop_assert_eq!(
            eng.smem.words(),
            reference.smem.words(),
            "shared memory after block {}",
            block
        );
    }
    prop_assert_eq!(g_eng.words(), g_ref.words(), "global memory after launch");
    Ok(())
}

/// Device-level: identical kernel statistics (cycles, instruction and
/// transaction counts, conflict serialisation), global memory and error
/// text under both write targets — written through, and logged over the
/// whole grid then merged in block order.
fn on_device(
    (kernel, machine, (k_prime, h_limit), bases, total): &Launch,
    seed: u64,
) -> Result<(), TestCaseError> {
    let spec = GpuSpec { k_prime: *k_prime, h_limit: *h_limit, ..GpuSpec::gtx650_like() };
    let device = Device::new(*machine, spec).unwrap();

    for logged in [false, true] {
        let run = |engine: EngineSel| {
            let mut g = GlobalMemory::new(bases.clone(), *total, machine.b, machine.g).unwrap();
            fill_gmem(&mut g, *total, seed);
            let stats = (|| {
                if !logged {
                    return device.run_kernel_with(kernel, &mut g, false, engine);
                }
                let (range, mut log) = ((0, kernel.blocks()), Vec::new());
                let stats =
                    device.run_shard(kernel, &g, ExecMode::Sequential, engine, range, &mut log)?;
                apply_write_log(kernel, &mut g, log, false)?;
                Ok(stats)
            })();
            (stats, g)
        };
        let (r_ref, g_ref) = run(EngineSel::Reference);
        let (r_eng, g_eng) = run(EngineSel::MicroOp);
        match (r_eng, r_ref) {
            (Ok(se), Ok(sr)) => {
                prop_assert_eq!(se, sr, "stats mismatch, logged={}", logged);
                prop_assert_eq!(g_eng.words(), g_ref.words(), "gmem mismatch, logged={}", logged);
            }
            (Err(e), Err(r)) => prop_assert_eq!(e.to_string(), r.to_string()),
            (e, r) => {
                return Err(TestCaseError::fail(format!(
                    "engine {e:?} vs reference {r:?}, logged={logged}"
                )));
            }
        }
    }
    Ok(())
}

// Each case runs the fixed re-arming launch and one random launch over
// the case's memory image.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn engine_matches_reference_stepwise(seed in 0u64..1_000_000_000) {
        lockstep(&rearm_launch(), seed)?;
        lockstep(&gen_launch(seed), seed)?;
    }

    #[test]
    fn engine_matches_reference_on_device(seed in 0u64..1_000_000_000) {
        on_device(&rearm_launch(), seed)?;
        on_device(&gen_launch(seed), seed)?;
    }
}
