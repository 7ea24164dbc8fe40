//! Differential property tests for the multi-device cluster layer: a
//! sharded launch must be **bit-identical** to the single-device launch
//! of the same kernel — same final global memory and, per shard, the
//! same statistics from the micro-op engine and the tree-walking
//! reference — for randomized kernels, randomized shard plans (including
//! uneven cuts and several shards on one device), device counts 1–4 and
//! both engine selections.
//!
//! Kernel generation mirrors `engine_differential.rs` with one extra
//! constraint that makes *all* execution semantics coincide: global
//! reads come only from buffer 0 (never written) and global writes go to
//! block-disjoint addresses of buffer 1 (`i·b + j`).  Cross-block
//! visibility and write ordering — undefined in the model — therefore
//! cannot distinguish direct, deferred-log or cross-device execution,
//! so the comparison pins down real divergence only.

use atgpu_ir::{AddrExpr, AluOp, DBuf, Kernel, KernelBuilder, Operand, PredExpr, Shard};
use atgpu_model::{AtgpuMachine, ClusterSpec, GpuSpec};
use atgpu_sim::cluster::{even_shards, Cluster, ShardStats};
use atgpu_sim::gmem::GlobalMemory;
use atgpu_sim::{Device, EngineSel};
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
    /// block and loop iteration.
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

    /// A global **read** address within buffer 0's word count (the
    /// read-only buffer, so any shape is fair game).
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

    /// A global **write** address into buffer 1, block-disjoint: block
    /// `i` owns exactly `[i·b, (i+1)·b)`, so no write order — across
    /// MPs, threads or devices — can change the final memory.
    fn g_write_addr(&mut self) -> AddrExpr {
        AddrExpr::block() * self.b + AddrExpr::lane()
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

/// Builds a random kernel plus a compatible machine/global memory layout.
/// Grids are larger than `engine_differential`'s (4–15 blocks) so shard
/// plans over up to 4 devices stay interesting.
fn gen_kernel(seed: u64) -> (Kernel, AtgpuMachine, Vec<u64>, u64) {
    let mut g0 = Gen { state: seed | 1, b: 0, shared: 0, loop_depth: 0, budget: 0 };
    let b: i64 = [4, 8, 16, 32][g0.below(4) as usize];
    let blocks = 4 + g0.below(12);
    let shared = (10 * b + 64) as u64;
    // Buffer 0 (read-only) must admit every read shape; buffer 1 holds
    // one block-owned row per block.
    let gwords = (blocks as i64 * b + 4 * b + 64) as u64;
    let gen =
        RefCell::new(Gen { state: g0.state, b, shared: shared as i64, loop_depth: 0, budget: 28 });
    let mut kb = KernelBuilder::new(format!("cdiff_{seed:x}"), blocks, shared);
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

/// A randomized shard plan: partitions `0..blocks` at random cut points
/// and assigns each range to a random device in `0..devices` — uneven
/// cuts, idle devices and several shards per device all occur.
fn random_shards(seed: u64, blocks: u64, devices: u32) -> Vec<Shard> {
    let mut g = Gen { state: seed | 1, b: 0, shared: 0, loop_depth: 0, budget: 0 };
    if g.below(3) == 0 {
        // One case in three uses the planner's even split.
        return even_shards(blocks, devices);
    }
    let mut cuts: Vec<u64> = (0..u64::from(devices) - 1).map(|_| g.below(blocks + 1)).collect();
    cuts.push(0);
    cuts.push(blocks);
    cuts.sort_unstable();
    let mut out = Vec::new();
    for w in cuts.windows(2) {
        if w[1] > w[0] {
            out.push(Shard { device: g.below(u64::from(devices)) as u32, start: w[0], end: w[1] });
        }
    }
    out
}

fn cluster_spec(n: usize) -> ClusterSpec {
    ClusterSpec::homogeneous(n, GpuSpec { k_prime: 2, h_limit: 4, ..GpuSpec::gtx650_like() })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For every device count, shard plan and engine, the cluster's final
    /// global memory is bit-identical to the single-device launch, shard
    /// statistics are bit-identical between the micro-op engine and the
    /// reference interpreter, and the shards together execute exactly the
    /// grid.
    #[test]
    fn cluster_is_bit_identical_to_single_device(seed in 0u64..1_000_000_000) {
        let (kernel, machine, bases, total) = gen_kernel(seed);
        let spec = GpuSpec { k_prime: 2, h_limit: 4, ..GpuSpec::gtx650_like() };
        let device = Device::new(machine, spec).unwrap();

        // Single-device baseline, written through.
        let mut g_base = GlobalMemory::new(bases.clone(), total, machine.b, machine.g).unwrap();
        fill_gmem(&mut g_base, total, seed);
        let base = device.run_kernel_with(&kernel, &mut g_base, false, EngineSel::MicroOp);
        let base = match base {
            Ok(s) => s,
            // Error parity has its own tests; the generator keeps the
            // success path, but bail symmetrically if a case errors.
            Err(_) => return Ok(()),
        };

        for devices in [1u32, 2, 3, 4] {
            let cluster = Cluster::new(machine, cluster_spec(devices as usize)).unwrap();
            let shards = random_shards(seed ^ u64::from(devices), kernel.blocks(), devices);
            prop_assert_eq!(shards.iter().map(Shard::blocks).sum::<u64>(), kernel.blocks());

            let mut runs: Vec<Vec<ShardStats>> = Vec::new();
            for engine in [EngineSel::MicroOp, EngineSel::Reference] {
                let mut g = GlobalMemory::new(bases.clone(), total, machine.b, machine.g).unwrap();
                fill_gmem(&mut g, total, seed);
                let stats =
                    cluster.run_sharded_kernel(&kernel, &mut g, &shards, false, engine).unwrap();
                prop_assert_eq!(
                    g.words(),
                    g_base.words(),
                    "memory mismatch: devices={} engine={:?}",
                    devices, engine
                );
                prop_assert_eq!(
                    stats.iter().map(|s| s.stats.blocks).sum::<u64>(),
                    kernel.blocks()
                );
                runs.push(stats);
            }
            // Per-shard stats bit-identical across engines.
            prop_assert_eq!(&runs[0], &runs[1], "engine stats mismatch: devices={}", devices);

            // A one-shard plan on device 0 reproduces the baseline
            // stats exactly (same engine; logged vs written through).
            if devices == 1 && shards.len() == 1 {
                prop_assert_eq!(runs[0][0].stats, base, "one-shard stats differ from device run");
            }
        }
    }

    /// Four random shard plans agree with each other: shard boundaries
    /// must never leak into results.  (The name dates from when two of
    /// the four plans also ran under a second execution mode.)
    #[test]
    fn shard_plan_and_mode_never_change_memory(seed in 0u64..1_000_000_000) {
        let (kernel, machine, bases, total) = gen_kernel(seed);
        let cluster = Cluster::new(machine, cluster_spec(3)).unwrap();

        let mut reference: Option<Vec<i64>> = None;
        for salt in [1u64, 2] {
            for plan_seed in [3u64, 4] {
                let shards = random_shards(seed ^ salt ^ (plan_seed << 32), kernel.blocks(), 3);
                let mut g = GlobalMemory::new(bases.clone(), total, machine.b, machine.g).unwrap();
                fill_gmem(&mut g, total, seed);
                cluster
                    .run_sharded_kernel(&kernel, &mut g, &shards, false, EngineSel::MicroOp)
                    .unwrap();
                match &reference {
                    None => reference = Some(g.words().to_vec()),
                    Some(r) => prop_assert_eq!(
                        r.as_slice(),
                        g.words(),
                        "plan changed results: plan={:?}",
                        shards
                    ),
                }
            }
        }
    }
}
