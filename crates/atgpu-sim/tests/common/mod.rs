//! Test support shared by the simulator's property suites: one seeded
//! xorshift64* stream ([`Rng`]), one random-kernel generator
//! ([`gen_kernel`]) behind the engine, cluster and cache differentials,
//! and the small machine, device and double-buffered program
//! ([`chunked_vecadd`], [`restream`]) the program-level suites run.
//!
//! The generator constrains shapes so every *active* lane's address
//! stays in bounds, which keeps the comparisons on the success path —
//! inactive lanes may address far outside memory, as scan's `j − s`
//! does below `s`, and must not fail.  Its one switch, [`Grid`], is what
//! separates a one-device comparison from a sharded one, and on the
//! one-device grid one kernel in eight ends with an access where an
//! active lane leaves memory under a partial mask: the engines must
//! fail on the same lane with the same error.  A warp-uniform register
//! (written from loop counters, the block index and immediates) serves
//! as predicate threshold against the lane and as address offset
//! (`lane ± u`), the shape scan and gemv lower to the uniform-affine path.
//! One loop in four runs zero times; a register write inside it guards
//! a store after it, which must not run on lanes the loop never wrote.

// Each suite uses a different part of this module.
#![allow(dead_code)]

use atgpu_ir::{
    AddrExpr, AluOp, DBuf, HBuf, HostStep, Kernel, KernelBuilder, Operand, PredExpr, Program,
    ProgramBuilder,
};
use atgpu_model::{AtgpuMachine, GpuSpec};
use atgpu_sim::gmem::GlobalMemory;
use std::cell::RefCell;

/// A seeded xorshift64* stream.
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    /// A multiplier drawn uniformly from `table`.
    pub fn scale(&mut self, table: &[f64]) -> f64 {
        table[self.below(table.len() as u64) as usize]
    }
}

/// The grid a generated kernel runs and where its global writes land.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grid {
    /// 2–5 blocks whose writes to buffer 1 take any shape a read could
    /// (one device, where both engines share one write order).
    Device,
    /// 4–15 blocks — so shard plans over up to 4 devices stay
    /// interesting — where block `i` writes only its own row
    /// `[i·b, (i+1)·b)` of buffer 1, so no write order (across MPs,
    /// threads or devices) can change the final memory.  Reads come
    /// from buffer 0 alone, which nothing writes.
    Sharded,
}

/// Number of data registers the generator plays with (plus the two
/// reserved ones below).
const NDATA: u8 = 6;
/// The reserved warp-uniform register: written only from loop counters,
/// the block index and immediates, its value is always in `0..=b`.
const RU: u8 = 6;
/// The reserved register for bounded data-dependent addressing.
const RG: u8 = 7;

struct Gen {
    rng: Rng,
    grid: Grid,
    b: i64,
    shared: i64,
    /// Words per global buffer (there are two).
    gwords: i64,
    loop_depth: u8,
    budget: u32,
}

impl Gen {
    fn below(&mut self, n: u64) -> u64 {
        self.rng.below(n)
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
        match self.below(7) {
            // Unit stride.
            0 => AddrExpr::lane() + loop_term(self) + k,
            // Broadcast.
            1 => loop_term(self) + k,
            // Stride 2 (bank conflicts on power-of-two b).
            2 => AddrExpr::lane() * 2 + loop_term(self) + k.min(base_room.max(2) - 1),
            // Register-addressed: RG holds `lane·s`, `s ∈ {0,1,2}`.
            3 => AddrExpr::reg(RG) + k,
            // Offset by the uniform register, either way.
            4 => AddrExpr::lane() + AddrExpr::reg(RU) + k,
            5 => AddrExpr::lane() - AddrExpr::reg(RU) + b + k,
            // Reversed (negative stride).
            _ => AddrExpr::c(b - 1) - AddrExpr::lane() + loop_term(self) + k,
        }
    }

    /// A global read address within the generated buffers' word counts
    /// for every block of the launch.
    fn g_read_addr(&mut self) -> AddrExpr {
        let b = self.b;
        let k = self.below(32) as i64;
        match self.below(5) {
            0 => AddrExpr::block() * b + AddrExpr::lane(),
            1 => AddrExpr::lane() + k,
            2 => AddrExpr::reg(RG) + k,
            3 => AddrExpr::lane() + AddrExpr::reg(RU) + k,
            _ => AddrExpr::block() * b + AddrExpr::lane() * 2,
        }
    }

    /// An instruction writing the uniform register: `1 << t`, `t + k`,
    /// `min(block, b)` or an immediate, all in `0..=b` (loop counters are
    /// at most 2, and `b ≥ 4`).
    fn seed_ru(&mut self) -> (AluOp, Operand, Operand) {
        let b = self.b;
        let depth = self.loop_depth;
        let t = |g: &mut Self| Operand::LoopVar(g.below(u64::from(depth)) as u8);
        match self.below(4) {
            0 if depth > 0 => (AluOp::Shl, Operand::Imm(1), t(self)),
            1 if depth > 0 => (AluOp::Add, t(self), Operand::Imm(self.below(3) as i64)),
            2 => (AluOp::Min, Operand::Block, Operand::Imm(b)),
            _ => (AluOp::Add, Operand::Imm(self.below(b as u64 + 1) as i64), Operand::Imm(0)),
        }
    }

    /// A global write address into buffer 1 (see [`Grid`]).
    fn g_write_addr(&mut self) -> AddrExpr {
        match self.grid {
            Grid::Device => self.g_read_addr(),
            Grid::Sharded => AddrExpr::block() * self.b + AddrExpr::lane(),
        }
    }

    /// A lane guard and one access under it whose *inactive* lanes
    /// address outside memory — past the top of shared memory, below
    /// word 0 (scan's `j − s` under `s ≤ j`, with `s` a constant or the
    /// uniform register), or below global word 0.  Every active lane stays
    /// inside.
    fn guarded_access(&mut self) -> (PredExpr, Access) {
        let (b, shared) = (self.b, self.shared);
        let lane = AddrExpr::lane;
        let t = self.below(b as u64 + 1) as i64;
        let dst = self.below(u64::from(NDATA)) as u8;
        let (pred, addr) = match self.below(5) {
            // Lanes `< t` active; lane `t` is the first past the top.
            0 => {
                let s = 1 + self.below(3) as i64;
                (PredExpr::Lt(Operand::Lane, Operand::Imm(t)), lane() * s + (shared - s * t))
            }
            1 => {
                (PredExpr::Lt(Operand::Lane, Operand::Reg(RU)), lane() - AddrExpr::reg(RU) + shared)
            }
            // Lanes `≥ t` active; lane `t − 1` is the first below 0.
            2 => (PredExpr::Le(Operand::Imm(t), Operand::Lane), lane() - t),
            3 => (PredExpr::Le(Operand::Reg(RU), Operand::Lane), lane() - AddrExpr::reg(RU)),
            _ => {
                let access = Access::In(lane(), DBuf(0), lane() - t);
                return (PredExpr::Le(Operand::Imm(t), Operand::Lane), access);
            }
        };
        let access = if self.below(2) == 0 {
            Access::Ld(dst, addr)
        } else {
            Access::St(addr, self.operand())
        };
        (pred, access)
    }

    /// One access under a partial lane mask where an active lane leaves
    /// memory — not always the lowest active one.
    fn faulty_access(&mut self) -> (PredExpr, Access) {
        let (b, shared, gwords) = (self.b, self.shared, self.gwords);
        let lane = AddrExpr::lane;
        let t = 1 + self.below(b as u64 - 1) as i64;
        let j = 1 + self.below(b as u64 - 1) as i64;
        let upper = PredExpr::Le(Operand::Imm(t), Operand::Lane);
        match self.below(4) {
            // Lanes `≥ b − j` of the active `≥ t` pass the top.
            0 => (upper, Access::St(lane() + (shared - b + j), Operand::Lane)),
            1 => (upper, Access::Ld(0, lane() * 2 + (shared - 2 * b + 1 + j))),
            // The lowest active lane, 0, reads below global word 0.
            2 => {
                let lower = PredExpr::Lt(Operand::Lane, Operand::Imm(t));
                (lower, Access::In(lane(), DBuf(0), lane() * 3 - j))
            }
            // Lanes `≥ b − j` of the active `≥ t` write past the heap.
            _ => (upper, Access::Out(DBuf(1), lane() + (gwords - b + j), lane())),
        }
    }
}

/// One memory instruction, built before it is emitted.
enum Access {
    Ld(u8, AddrExpr),
    St(AddrExpr, Operand),
    In(AddrExpr, DBuf, AddrExpr),
    Out(DBuf, AddrExpr, AddrExpr),
}

impl Access {
    fn emit(self, kb: &mut KernelBuilder) {
        match self {
            Access::Ld(dst, shared) => kb.ld_shr(dst, shared),
            Access::St(shared, src) => kb.st_shr(shared, src),
            Access::In(shared, buf, global) => kb.glb_to_shr(shared, buf, global),
            Access::Out(buf, global, shared) => kb.shr_to_glb(buf, global, shared),
        };
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
            gg.below(12)
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
                // Only a write that may be register-addressed re-seeds
                // the gather register.
                if g.borrow().grid == Grid::Device {
                    seed_rg(g, kb);
                }
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
                    let pred = match gg.below(6) {
                        0 => PredExpr::Lt(Operand::Lane, Operand::Imm(gg.below(b + 1) as i64)),
                        1 => PredExpr::Lt(Operand::Block, Operand::Imm(gg.below(4) as i64)),
                        2 => PredExpr::Eq(
                            Operand::Reg(gg.below(u64::from(NDATA)) as u8),
                            Operand::Imm(gg.below(3) as i64),
                        ),
                        3 => PredExpr::Lt(Operand::Lane, Operand::Reg(RU)),
                        4 => PredExpr::Le(Operand::Reg(RU), Operand::Lane),
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
                // One loop in four runs zero times.
                let count = {
                    let mut gg = g.borrow_mut();
                    if gg.loop_depth >= 2 {
                        None
                    } else {
                        gg.loop_depth += 1;
                        Some(gg.below(4) as u32)
                    }
                };
                if let Some(count) = count {
                    // A zero-trip loop's body never runs, so its write
                    // `r ← k` must not make `r = k` after it fold to the
                    // full mask.
                    let dead = (count == 0).then(|| {
                        let mut gg = g.borrow_mut();
                        (gg.below(u64::from(NDATA)) as u8, gg.below(3) as i64)
                    });
                    kb.repeat(count, |kb| {
                        if let Some((dst, k)) = dead {
                            kb.mov(dst, Operand::Imm(k));
                        }
                        gen_body(g, kb, depth + 1)
                    });
                    g.borrow_mut().loop_depth -= 1;
                    if let Some((dst, k)) = dead {
                        let addr = g.borrow_mut().sh_addr();
                        kb.when(PredExpr::Eq(Operand::Reg(dst), Operand::Imm(k)), |kb| {
                            kb.st_shr(addr, Operand::Lane);
                        });
                    }
                } else {
                    kb.sync();
                }
            }
            9 => {
                let (op, a, b) = g.borrow_mut().seed_ru();
                kb.alu(op, RU, a, b);
            }
            10 => {
                let (pred, access) = g.borrow_mut().guarded_access();
                kb.when(pred, |kb| access.emit(kb));
            }
            _ => {
                kb.sync();
            }
        }
    }
}

/// Builds a random kernel named `{prefix}_{seed:x}` plus a compatible
/// machine and global-memory layout: `(kernel, machine, buffer bases,
/// global words)`.
pub fn gen_kernel(prefix: &str, seed: u64, grid: Grid) -> (Kernel, AtgpuMachine, Vec<u64>, u64) {
    let mut rng = Rng(seed | 1);
    let b: i64 = [4, 8, 16, 32][rng.below(4) as usize];
    let blocks = match grid {
        Grid::Device => 2 + rng.below(4),
        Grid::Sharded => 4 + rng.below(12),
    };
    let shared = (10 * b + 64) as u64;
    // Room for every read shape in buffer 0 (block·b + 2·lane + reg + k);
    // buffer 1 is the same size.
    let gwords = (blocks as i64 * b + 4 * b + 64) as u64;
    let gen = RefCell::new(Gen {
        rng,
        grid,
        b,
        shared: shared as i64,
        gwords: gwords as i64,
        loop_depth: 0,
        budget: 28,
    });
    let mut kb = KernelBuilder::new(format!("{prefix}_{seed:x}"), blocks, shared);
    seed_rg(&gen, &mut kb);
    gen_body(&gen, &mut kb, 0);
    if grid == Grid::Device && gen.borrow_mut().below(8) == 0 {
        let (pred, access) = gen.borrow_mut().faulty_access();
        kb.when(pred, |kb| access.emit(kb));
    }
    let kernel = kb.build();
    let machine =
        AtgpuMachine::new(4 * b as u64, b as u64, shared.max(2 * gwords), 1 << 22).unwrap();
    (kernel, machine, vec![0, gwords], 2 * gwords)
}

/// Fills the first `total` words of `g` with seeded values in `-8..=8`.
pub fn fill_gmem(g: &mut GlobalMemory, total: u64, seed: u64) {
    let mut x = seed | 1;
    for i in 0..total {
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        g.write(i as i64, (x % 17) as i64 - 8);
    }
}

/// The program-level suites' machine: `b = 4`, `M = 64` words.
pub fn machine() -> AtgpuMachine {
    AtgpuMachine::new(1 << 12, 4, 64, 1 << 16).unwrap()
}

/// The program-level suites' device: `k′ = 2`, `H = 4`, a 1000-cycle/ms
/// clock and a cheap host link.
pub fn spec() -> GpuSpec {
    GpuSpec {
        k_prime: 2,
        h_limit: 4,
        clock_cycles_per_ms: 1000.0,
        xfer_alpha_ms: 0.1,
        xfer_beta_ms_per_word: 0.001,
        sync_ms: 0.05,
        ..GpuSpec::gtx650_like()
    }
}

/// A multi-round chunked `C = A + B` over ping-pong buffers — the
/// double-buffered shape, all on stream 0 ([`restream`] assigns streams).
pub fn chunked_vecadd(n: u64, chunk: u64) -> (Program, HBuf) {
    let b = 4i64;
    let rounds = n / chunk;
    let mut pb = ProgramBuilder::new("chunked");
    let ha = pb.host_input("A", n);
    let hb = pb.host_input("B", n);
    let hc = pb.host_output("C", n);
    let bufs = [
        (pb.device_alloc("a0", chunk), pb.device_alloc("b0", chunk), pb.device_alloc("c0", chunk)),
        (pb.device_alloc("a1", chunk), pb.device_alloc("b1", chunk), pb.device_alloc("c1", chunk)),
    ];
    for r in 0..=rounds {
        pb.begin_round();
        if r < rounds {
            let (da, db, _) = bufs[(r % 2) as usize];
            pb.transfer_in_at(ha, r * chunk, da, 0, chunk);
            pb.transfer_in_at(hb, r * chunk, db, 0, chunk);
        }
        if r > 0 {
            let (da, db, dc) = bufs[((r - 1) % 2) as usize];
            let k = chunk / b as u64;
            let mut kb = KernelBuilder::new(format!("add_r{r}"), k, 3 * b as u64);
            let g = AddrExpr::block() * b + AddrExpr::lane();
            kb.glb_to_shr(AddrExpr::lane(), da, g.clone());
            kb.glb_to_shr(AddrExpr::lane() + b, db, g.clone());
            kb.ld_shr(0, AddrExpr::lane());
            kb.ld_shr(1, AddrExpr::lane() + b);
            kb.alu(AluOp::Add, 2, Operand::Reg(0), Operand::Reg(1));
            kb.st_shr(AddrExpr::lane() + 2 * b, Operand::Reg(2));
            kb.shr_to_glb(dc, g, AddrExpr::lane() + 2 * b);
            pb.launch(kb.build());
            pb.transfer_out_at(dc, 0, hc, (r - 1) * chunk, chunk);
        }
    }
    (pb.build().unwrap(), hc)
}

/// Randomly re-streams a serial program: every transfer gets a random
/// stream in `0..4` and random `SyncStream`/`SyncDevice` steps are
/// sprinkled between steps; with `closing_sync` one round in three also
/// ends on a `SyncDevice`.  Structural validity is preserved (syncs may
/// appear anywhere; stream tags never affect the round phases).
pub fn restream(p: &Program, seed: u64, closing_sync: bool) -> Program {
    let mut rng = Rng(seed | 1);
    let mut out = p.clone();
    for round in &mut out.edit().rounds {
        let mut steps = Vec::with_capacity(round.steps.len() * 2);
        for mut step in round.steps.drain(..) {
            if rng.below(4) == 0 {
                steps.push(match rng.below(3) {
                    0 => HostStep::SyncDevice { device: 0 },
                    s => HostStep::SyncStream { device: 0, stream: (s * rng.below(4)) as u32 },
                });
            }
            match &mut step {
                HostStep::TransferIn { stream, .. } | HostStep::TransferOut { stream, .. } => {
                    *stream = rng.below(4) as u32;
                }
                _ => {}
            }
            steps.push(step);
        }
        if closing_sync && rng.below(3) == 0 {
            steps.push(HostStep::SyncDevice { device: 0 });
        }
        round.steps = steps;
    }
    atgpu_ir::validate::validate_program(&out).expect("restreamed program stays valid");
    out
}

/// Two seeded input vectors of `n` words in `-100..=100`.
pub fn inputs(n: u64, seed: u64) -> Vec<Vec<i64>> {
    let mut rng = Rng(seed | 1);
    (0..2).map(|_| (0..n).map(|_| rng.below(201) as i64 - 100).collect()).collect()
}
