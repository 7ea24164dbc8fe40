//! Differential property tests: the flat micro-op engine must be
//! **bit-exact** with the tree-walking reference interpreter — identical
//! `StepEvent` streams, identical register/shared/global state — over
//! randomized kernels exercising divergence, nested loops, strided and
//! broadcast shapes, and register-addressed (data-dependent) gathers,
//! under both write targets (written through, and logged then merged).
//!
//! Kernels are generated from a 64-bit seed drawn by proptest; the
//! generator constrains shapes so every address stays in bounds, which
//! keeps the comparison on the success path (error parity has dedicated
//! unit tests in the sim crate).

use atgpu_ir::{AddrExpr, AluOp, DBuf, Kernel, KernelBuilder, Operand, PredExpr};
use atgpu_model::{AtgpuMachine, GpuSpec};
use atgpu_sim::engine::{BlockExec, BlockSim};
use atgpu_sim::gmem::GlobalMemory;
use atgpu_sim::uop::CompiledKernel;
use atgpu_sim::warp::{GmemAccess, StepEvent, WarpExec};
use atgpu_sim::{apply_write_log, Device, EngineSel, ExecMode};
use proptest::prelude::*;
use std::cell::RefCell;

/// Number of data registers the generator plays with (plus one reserved
/// gather register).
const NDATA: u8 = 6;
/// The reserved register for bounded data-dependent addressing.
const RG: u8 = 7;

struct Gen {
    state: u64,
    b: i64,
    shared: i64,
    loop_depth: u8,
    budget: u32,
}

impl Gen {
    fn next(&mut self) -> u64 {
        // xorshift64*
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn operand(&mut self) -> Operand {
        match self.below(6) {
            0 => Operand::Imm(self.below(9) as i64 - 4),
            1 => Operand::Lane,
            2 => Operand::Block,
            3 => Operand::Reg(self.below(u64::from(NDATA)) as u8),
            4 if self.loop_depth > 0 => {
                Operand::LoopVar(self.below(u64::from(self.loop_depth)) as u8)
            }
            _ => Operand::Imm(self.below(17) as i64),
        }
    }

    fn alu_op(&mut self) -> AluOp {
        const OPS: [AluOp; 12] = [
            AluOp::Add,
            AluOp::Sub,
            AluOp::Mul,
            AluOp::Div,
            AluOp::Rem,
            AluOp::Min,
            AluOp::Max,
            AluOp::And,
            AluOp::Or,
            AluOp::Xor,
            AluOp::SetLt,
            AluOp::SetEq,
        ];
        OPS[self.below(OPS.len() as u64) as usize]
    }

    /// A shared-memory address guaranteed in `[0, shared)` for every lane,
    /// block and loop iteration.  Loop terms use coefficient `b` with trip
    /// counts ≤ 3 and nesting ≤ 2, so the loop contribution is ≤ 6b; the
    /// generator's `shared` is sized accordingly.
    fn sh_addr(&mut self) -> AddrExpr {
        let b = self.b;
        let base_room = self.shared - 8 * b;
        let k = self.below(base_room.max(1) as u64) as i64;
        let loop_term = |g: &mut Self| -> AddrExpr {
            if g.loop_depth > 0 && g.below(2) == 0 {
                let d = g.below(u64::from(g.loop_depth)) as u8;
                AddrExpr::loop_var(d) * g.b
            } else {
                AddrExpr::c(0)
            }
        };
        match self.below(5) {
            // Unit stride.
            0 => AddrExpr::lane() + loop_term(self) + k,
            // Broadcast.
            1 => loop_term(self) + k,
            // Stride 2 (bank conflicts on power-of-two b).
            2 => AddrExpr::lane() * 2 + loop_term(self) + k.min(base_room.max(2) - 1),
            // Register-addressed: RG holds `lane·s`, `s ∈ {0,1,2}`.
            3 => AddrExpr::reg(RG) + k,
            // Reversed (negative stride).
            _ => AddrExpr::c(b - 1) - AddrExpr::lane() + loop_term(self) + k,
        }
    }

    /// A global address within the generated buffers' word counts for
    /// every block of the launch.
    fn g_addr(&mut self) -> AddrExpr {
        let b = self.b;
        let k = self.below(32) as i64;
        match self.below(4) {
            0 => AddrExpr::block() * b + AddrExpr::lane(),
            1 => AddrExpr::lane() + k,
            2 => AddrExpr::reg(RG) + k,
            _ => AddrExpr::block() * b + AddrExpr::lane() * 2,
        }
    }
}

/// Seeds the bounded gather register: `RG ← lane·s`.
fn seed_rg(g: &RefCell<Gen>, kb: &mut KernelBuilder) {
    let s = g.borrow_mut().below(3) as i64;
    kb.alu(AluOp::Mul, RG, Operand::Lane, Operand::Imm(s));
}

fn gen_body(g: &RefCell<Gen>, kb: &mut KernelBuilder, depth: u32) {
    let items = 2 + g.borrow_mut().below(4) as u32;
    for _ in 0..items {
        let choice = {
            let mut gg = g.borrow_mut();
            if gg.budget == 0 {
                return;
            }
            gg.budget -= 1;
            gg.below(10)
        };
        match choice {
            0 => {
                let mut gg = g.borrow_mut();
                let dst = gg.below(u64::from(NDATA)) as u8;
                let src = gg.operand();
                drop(gg);
                kb.mov(dst, src);
            }
            1 | 2 => {
                let mut gg = g.borrow_mut();
                let op = gg.alu_op();
                let dst = gg.below(u64::from(NDATA)) as u8;
                let (a, b) = (gg.operand(), gg.operand());
                drop(gg);
                kb.alu(op, dst, a, b);
            }
            3 => {
                let mut gg = g.borrow_mut();
                let addr = gg.sh_addr();
                let src = gg.operand();
                drop(gg);
                kb.st_shr(addr, src);
            }
            4 => {
                let mut gg = g.borrow_mut();
                let dst = gg.below(u64::from(NDATA)) as u8;
                let addr = gg.sh_addr();
                drop(gg);
                kb.ld_shr(dst, addr);
            }
            5 => {
                seed_rg(g, kb);
                let (sh, ga) = {
                    let mut gg = g.borrow_mut();
                    (gg.sh_addr(), gg.g_addr())
                };
                kb.glb_to_shr(sh, DBuf(0), ga);
            }
            6 => {
                seed_rg(g, kb);
                let (sh, ga) = {
                    let mut gg = g.borrow_mut();
                    (gg.sh_addr(), gg.g_addr())
                };
                kb.shr_to_glb(DBuf(1), ga, sh);
            }
            7 if depth < 2 => {
                let (pred, with_else) = {
                    let mut gg = g.borrow_mut();
                    let b = gg.b as u64;
                    let pred = match gg.below(4) {
                        0 => PredExpr::Lt(Operand::Lane, Operand::Imm(gg.below(b + 1) as i64)),
                        1 => PredExpr::Lt(Operand::Block, Operand::Imm(gg.below(4) as i64)),
                        2 => PredExpr::Eq(
                            Operand::Reg(gg.below(u64::from(NDATA)) as u8),
                            Operand::Imm(gg.below(3) as i64),
                        ),
                        _ => PredExpr::Ne(Operand::Lane, Operand::Imm(gg.below(b) as i64)),
                    };
                    (pred, gg.below(2) == 0)
                };
                kb.pred(
                    pred,
                    |kb| gen_body(g, kb, depth + 1),
                    |kb| {
                        if with_else {
                            gen_body(g, kb, depth + 1)
                        }
                    },
                );
            }
            8 if depth < 2 => {
                let count = {
                    let mut gg = g.borrow_mut();
                    if gg.loop_depth >= 2 {
                        None
                    } else {
                        gg.loop_depth += 1;
                        Some(1 + gg.below(3) as u32)
                    }
                };
                if let Some(count) = count {
                    kb.repeat(count, |kb| gen_body(g, kb, depth + 1));
                    g.borrow_mut().loop_depth -= 1;
                } else {
                    kb.sync();
                }
            }
            _ => {
                kb.sync();
            }
        }
    }
}

/// One launch both engines run: the kernel, its machine, the device's
/// `(k′, H)`, the buffer bases and the global words.
type Launch = (Kernel, AtgpuMachine, (u64, u64), Vec<u64>, u64);

/// Builds a random kernel plus a compatible machine/global memory layout.
fn gen_launch(seed: u64) -> Launch {
    let mut g0 = Gen { state: seed | 1, b: 0, shared: 0, loop_depth: 0, budget: 0 };
    let b: i64 = [4, 8, 16, 32][g0.below(4) as usize];
    let blocks = 2 + g0.below(4);
    let shared = (10 * b + 64) as u64;
    // Room for every g_addr shape: block·b + 2·lane + reg + k.
    let gwords = (blocks as i64 * b + 4 * b + 64) as u64;
    let gen =
        RefCell::new(Gen { state: g0.state, b, shared: shared as i64, loop_depth: 0, budget: 28 });
    let mut kb = KernelBuilder::new(format!("diff_{seed:x}"), blocks, shared);
    seed_rg(&gen, &mut kb);
    gen_body(&gen, &mut kb, 0);
    let kernel = kb.build();
    let machine =
        AtgpuMachine::new(4 * b as u64, b as u64, shared.max(2 * gwords), 1 << 22).unwrap();
    (kernel, machine, (2, 4), vec![0, gwords], 2 * gwords)
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

fn fill_gmem(g: &mut GlobalMemory, total: u64, seed: u64) {
    let mut x = seed | 1;
    for i in 0..total {
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        g.write(i as i64, (x % 17) as i64 - 8);
    }
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
    let mut eng = BlockExec::new(&compiled);
    let mut reference = WarpExec::new(kernel, bases, b, nregs);

    for block in 0..kernel.blocks() {
        BlockSim::reset(&mut eng, block);
        BlockSim::reset(&mut reference, block);
        let mut step = 0u32;
        loop {
            let er = {
                let mut acc = GmemAccess::Direct(&mut g_eng);
                BlockSim::step(&mut eng, &mut acc)
            };
            let rr = {
                let mut acc = GmemAccess::Direct(&mut g_ref);
                BlockSim::step(&mut reference, &mut acc)
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
