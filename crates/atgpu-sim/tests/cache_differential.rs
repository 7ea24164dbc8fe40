//! Differential property tests for the cross-launch kernel cache: a
//! launch served from the cache — reusing the compiled micro-op program
//! — must be **bit-identical** to a cold launch in final memory, per-launch
//! statistics and behaviour, for randomized kernels, both write targets,
//! single devices and sharded clusters.  Structural mutation of one
//! instruction must change the cache key (no false hits).
//!
//! Kernel generation mirrors `cluster_differential.rs`: global reads
//! from buffer 0 only, block-disjoint writes into buffer 1, so results
//! are engine/order-independent and any divergence the comparison finds
//! is real.

use atgpu_ir::{AddrExpr, AluOp, DBuf, Instr, Kernel, KernelBuilder, Operand, PredExpr};
use atgpu_model::{AtgpuMachine, ClusterSpec, GpuSpec};
use atgpu_sim::cache::DEFAULT_CACHE_CAPACITY;
use atgpu_sim::cluster::{even_shards, Cluster};
use atgpu_sim::gmem::GlobalMemory;
use atgpu_sim::{Device, EngineSel};
use proptest::prelude::*;
use std::cell::RefCell;

const NDATA: u8 = 6;
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
            0 => AddrExpr::lane() + loop_term(self) + k,
            1 => loop_term(self) + k,
            2 => AddrExpr::lane() * 2 + loop_term(self) + k.min(base_room.max(2) - 1),
            3 => AddrExpr::reg(RG) + k,
            _ => AddrExpr::c(b - 1) - AddrExpr::lane() + loop_term(self) + k,
        }
    }

    fn g_read_addr(&mut self) -> AddrExpr {
        let b = self.b;
        let k = self.below(32) as i64;
        match self.below(4) {
            0 => AddrExpr::block() * b + AddrExpr::lane(),
            1 => AddrExpr::lane() + k,
            2 => AddrExpr::reg(RG) + k,
            _ => AddrExpr::block() * b + AddrExpr::lane() * 2,
        }
    }

    fn g_write_addr(&mut self) -> AddrExpr {
        AddrExpr::block() * self.b + AddrExpr::lane()
    }
}

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
                    (gg.sh_addr(), gg.g_read_addr())
                };
                kb.glb_to_shr(sh, DBuf(0), ga);
            }
            6 => {
                let (sh, ga) = {
                    let mut gg = g.borrow_mut();
                    (gg.sh_addr(), gg.g_write_addr())
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

fn gen_kernel(seed: u64) -> (Kernel, AtgpuMachine, Vec<u64>, u64) {
    let mut g0 = Gen { state: seed | 1, b: 0, shared: 0, loop_depth: 0, budget: 0 };
    let b: i64 = [4, 8, 16, 32][g0.below(4) as usize];
    let blocks = 4 + g0.below(12);
    let shared = (10 * b + 64) as u64;
    let gwords = (blocks as i64 * b + 4 * b + 64) as u64;
    let gen =
        RefCell::new(Gen { state: g0.state, b, shared: shared as i64, loop_depth: 0, budget: 28 });
    let mut kb = KernelBuilder::new(format!("cache_{seed:x}"), blocks, shared);
    seed_rg(&gen, &mut kb);
    gen_body(&gen, &mut kb, 0);
    let kernel = kb.build();
    let machine =
        AtgpuMachine::new(4 * b as u64, b as u64, shared.max(2 * gwords), 1 << 22).unwrap();
    (kernel, machine, vec![0, gwords], 2 * gwords)
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

fn spec() -> GpuSpec {
    GpuSpec { k_prime: 2, h_limit: 4, ..GpuSpec::gtx650_like() }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A second launch of the same kernel on the same device — served
    /// from the cache — is bit-identical to the cold first launch *and*
    /// to the only launch of a fresh device, in memory and statistics.
    #[test]
    fn cached_launch_is_bit_identical_to_cold(seed in 0u64..1_000_000_000) {
        let (kernel, machine, bases, total) = gen_kernel(seed);
        let cached_dev = Device::new(machine, spec()).unwrap();
        let cold_dev = Device::new(machine, spec()).unwrap();

        let run = |dev: &Device| {
            let mut g = GlobalMemory::new(bases.clone(), total, machine.b, machine.g).unwrap();
            fill_gmem(&mut g, total, seed);
            dev.run_kernel_with(&kernel, &mut g, false, EngineSel::MicroOp)
                .map(|stats| (stats, g.words().to_vec()))
        };

        let Ok((cold_stats, cold_mem)) = run(&cached_dev) else { return Ok(()) };
        let (warm_stats, warm_mem) = run(&cached_dev).expect("warm launch succeeds");
        let (off_stats, off_mem) = run(&cold_dev).expect("fresh-device launch succeeds");

        prop_assert_eq!(&warm_mem, &cold_mem, "cached memory differs");
        prop_assert_eq!(warm_stats, cold_stats, "cached stats differ");
        prop_assert_eq!(&off_mem, &cold_mem, "fresh-device memory differs");
        prop_assert_eq!(off_stats, cold_stats, "fresh-device stats differ");

        // The second launch really was a cache hit, and the fresh
        // device's launch a miss.
        let c = cached_dev.stats().cache;
        prop_assert_eq!((c.hits, c.misses, c.entries), (1, 1, 1));
        let c = cold_dev.stats().cache;
        prop_assert_eq!((c.hits, c.misses, c.entries), (0, 1, 1));
    }

    /// Sharded launches across a 2-device cluster: repeating the launch
    /// hits every device's cache and reproduces memory and per-shard
    /// statistics bit for bit (a launch-level sharded run is logged, so
    /// this is also the cached launch under the deferred-write target).
    #[test]
    fn cluster_cache_is_bit_identical(seed in 0u64..1_000_000_000) {
        let (kernel, machine, bases, total) = gen_kernel(seed);
        let cspec = ClusterSpec::homogeneous(2, spec());
        let shards = even_shards(kernel.blocks(), 2);
        let cluster = Cluster::new(machine, cspec).unwrap();
        let run = |cluster: &Cluster| {
            let mut g = GlobalMemory::new(bases.clone(), total, machine.b, machine.g).unwrap();
            fill_gmem(&mut g, total, seed);
            cluster
                .run_sharded_kernel(&kernel, &mut g, &shards, false, EngineSel::MicroOp)
                .map(|stats| (stats, g.words().to_vec()))
        };
        let Ok((cold_stats, cold_mem)) = run(&cluster) else { return Ok(()) };
        let (warm_stats, warm_mem) = run(&cluster).expect("warm cluster launch succeeds");
        prop_assert_eq!(&warm_mem, &cold_mem, "cluster cached memory differs");
        prop_assert_eq!(&warm_stats, &cold_stats, "cluster cached stats differ");
        for d in 0..2u32 {
            let c = cluster.device(d).unwrap().stats().cache;
            prop_assert_eq!((c.hits, c.misses), (1, 1), "device {} cache counters", d);
        }
    }

    /// No false hits: mutating one instruction (or the grid, or the
    /// shared footprint) changes the structural cache key, and launching
    /// the mutant on a warm device misses — its results match a fresh
    /// device's, never the cached original.
    #[test]
    fn mutation_changes_cache_key(seed in 0u64..1_000_000_000) {
        let (kernel, machine, bases, total) = gen_kernel(seed);

        // Structural mutations all change the key.
        let mut mutated = kernel.clone();
        mutated.body.push(Instr::Alu {
            op: AluOp::Xor,
            dst: 0,
            a: Operand::Reg(0),
            b: Operand::Imm(1),
        });
        prop_assert_ne!(kernel.cache_key(), mutated.cache_key());
        let mut regrid = kernel.clone();
        regrid.grid = (kernel.grid.0 + 1, kernel.grid.1);
        prop_assert_ne!(kernel.cache_key(), regrid.cache_key());
        let mut reshared = kernel.clone();
        reshared.shared_words += 1;
        prop_assert_ne!(kernel.cache_key(), reshared.cache_key());

        // Renaming alone keeps the key (shared entry, by design).
        let mut renamed = kernel.clone();
        renamed.name = format!("{}_renamed", kernel.name);
        prop_assert_eq!(kernel.cache_key(), renamed.cache_key());

        // The mutant misses on a device warmed with the original, and
        // executes exactly like a never-cached launch of itself.
        let warm = Device::new(machine, spec()).unwrap();
        let fresh = Device::new(machine, spec()).unwrap();
        let run = |dev: &Device, k: &Kernel| {
            let mut g = GlobalMemory::new(bases.clone(), total, machine.b, machine.g).unwrap();
            fill_gmem(&mut g, total, seed);
            dev.run_kernel_with(k, &mut g, false, EngineSel::MicroOp)
                .map(|stats| (stats, g.words().to_vec()))
        };
        let Ok(_) = run(&warm, &kernel) else { return Ok(()) };
        let Ok((mut_stats, mut_mem)) = run(&warm, &mutated) else { return Ok(()) };
        prop_assert_eq!(warm.stats().cache.hits, 0, "mutant must not hit the original's entry");
        prop_assert_eq!(warm.stats().cache.misses, 2);
        let (fresh_stats, fresh_mem) = run(&fresh, &mutated).expect("fresh mutant run succeeds");
        prop_assert_eq!(&mut_mem, &fresh_mem, "mutant results contaminated by cache");
        prop_assert_eq!(mut_stats, fresh_stats);
    }
}

/// The bound is a constant of the device: `DEFAULT_CACHE_CAPACITY + 1`
/// distinct tiny kernels through one `Device` leave exactly
/// `DEFAULT_CACHE_CAPACITY` entries (FIFO evicted the first), so the
/// first one re-misses and the newest one hits.
#[test]
fn device_cache_holds_the_default_capacity_and_evicts_fifo() {
    let b = 4u64;
    let machine = AtgpuMachine::new(1 << 12, b, 64, 1 << 16).unwrap();
    let device = Device::new(machine, spec()).unwrap();
    let mut gmem = GlobalMemory::new(vec![0, b], 2 * b, b, 1 << 16).unwrap();
    let kernel = |i: usize| {
        let mut kb = KernelBuilder::new(format!("k{i}"), 1, 2 * b);
        kb.glb_to_shr(AddrExpr::lane(), DBuf(0), AddrExpr::lane());
        kb.mov(0, Operand::Imm(i as i64));
        kb.st_shr(AddrExpr::lane(), Operand::Reg(0));
        kb.shr_to_glb(DBuf(1), AddrExpr::lane(), AddrExpr::lane());
        kb.build()
    };
    let mut launch = |i: usize| {
        device.run_kernel_with(&kernel(i), &mut gmem, false, EngineSel::MicroOp).unwrap();
        device.stats().cache
    };
    for i in 0..=DEFAULT_CACHE_CAPACITY {
        launch(i);
    }
    let misses = DEFAULT_CACHE_CAPACITY as u64 + 1;
    let c = launch(DEFAULT_CACHE_CAPACITY);
    assert_eq!((c.hits, c.misses, c.entries), (1, misses, DEFAULT_CACHE_CAPACITY), "newest hits");
    let c = launch(0);
    assert_eq!(
        (c.hits, c.misses, c.entries),
        (1, misses + 1, DEFAULT_CACHE_CAPACITY),
        "first re-misses"
    );
}
