//! The rosters of the three pipeline workloads.  Sizes are constants
//! here (scaled down by `--smoke`); only the input *data* depends on the
//! seed, so simulated counters repeat exactly for a given seed.
//!
//! Every program is small — a run of at most a few milliseconds over a
//! working set the core's own L2 holds — so that a pass comes round many
//! hundreds of times in a measured run and every program gets samples the
//! host's other tenants did not slow down.  Programs of 0.1–0.5 s over
//! 8 MB buffers, which these rosters began with, were slowed by a third
//! for whole runs at a time and had no such sample to offer.

use crate::pipeline::{Env, Item};
use atgpu_algos::bitonic::BitonicSort;
use atgpu_algos::dot::Dot;
use atgpu_algos::gemv::Gemv;
use atgpu_algos::histogram::Histogram;
use atgpu_algos::matmul::MatMul;
use atgpu_algos::ooc::OocVecAdd;
use atgpu_algos::reduce::{Reduce, ReduceVariant};
use atgpu_algos::saxpy::Saxpy;
use atgpu_algos::scan::Scan;
use atgpu_algos::spmv::SpmvEll;
use atgpu_algos::stencil::Stencil;
use atgpu_algos::transpose::{Transpose, TransposeVariant};
use atgpu_algos::vecadd::VecAdd;
use atgpu_algos::workload::BuiltProgram;
use atgpu_algos::{gen, AlgosError, Workload};
use atgpu_ir::{AddrExpr, AluOp, DBuf, Kernel, KernelBuilder, Operand, ProgramBuilder};
use atgpu_model::{AtgpuMachine, ClusterSpec};
use atgpu_sim::{even_shards, FaultEvent, FaultPlan, SimConfig};

/// Roster sizing: the measured configuration or the tiny one `--smoke`
/// and the unit tests use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Sizes calibrated for a measured run.
    Full,
    /// Sizes small enough for a debug-build unit test.
    Smoke,
}

impl Scale {
    /// `full` on a measured run, `smoke` otherwise.
    pub fn pick(self, full: u64, smoke: u64) -> u64 {
        match self {
            Scale::Full => full,
            Scale::Smoke => smoke,
        }
    }
}

/// Time spent inside `atgpu-algos` while building programs.
#[derive(Debug, Default, Clone, Copy)]
pub struct AlgosTimes {
    /// Milliseconds in `Workload::build*` calls.
    pub build_ms: f64,
    /// Milliseconds in `Workload::expected` calls.
    pub expected_ms: f64,
}

impl AlgosTimes {
    /// Builds one program and its host reference, timing both calls.
    pub fn build(
        &mut self,
        build: impl FnOnce() -> Result<BuiltProgram, AlgosError>,
        expected: impl FnOnce() -> Vec<Vec<i64>>,
    ) -> Result<(BuiltProgram, Vec<Vec<i64>>), AlgosError> {
        let t = std::time::Instant::now();
        let built = build()?;
        self.build_ms += t.elapsed().as_secs_f64() * 1e3;
        let t = std::time::Instant::now();
        let expected = expected();
        self.expected_ms += t.elapsed().as_secs_f64() * 1e3;
        Ok((built, expected))
    }
}

/// A roster and the time `atgpu-algos` took to build it.
#[derive(Debug, Default)]
pub struct Built {
    /// The programs.
    pub items: Vec<Item>,
    /// Time in `atgpu-algos`.
    pub times: AlgosTimes,
}

/// The verifier's recorded answer for a roster program.
const PROVEN: bool = true;
/// Data-dependent addressing: at least one launch stays `Unknown`.
const UNDECIDED: bool = false;

struct RosterBuilder<'a> {
    env: &'a Env,
    out: Built,
}

impl RosterBuilder<'_> {
    /// Adds a program built by `build`, with `expected` as its oracle.
    fn push(
        &mut self,
        name: impl Into<String>,
        build: impl FnOnce() -> Result<BuiltProgram, AlgosError>,
        expected: impl FnOnce() -> Vec<Vec<i64>>,
        cluster: Option<ClusterSpec>,
        race_free: bool,
    ) -> Result<&mut Item, AlgosError> {
        let (built, expected) = self.out.times.build(build, expected)?;
        self.out.items.push(Item {
            name: name.into(),
            built,
            expected,
            single: cluster.is_none(),
            cluster: cluster.unwrap_or_else(|| ClusterSpec::homogeneous(1, self.env.spec)),
            sim: SimConfig { device_threads: false, ..SimConfig::default() },
            race_free,
            priced: true,
        });
        Ok(self.out.items.last_mut().expect("just pushed"))
    }

    /// Adds a [`staged`] program on `devices` identical devices.
    fn staged(
        &mut self,
        name: &str,
        (n, devices, rounds): (u64, u32, u64),
        staging: Staging,
        seed: u64,
    ) -> Result<&mut Item, AlgosError> {
        let (built, expected) = staged(&self.env.machine, n, devices, rounds, staging, seed)?;
        let cluster = ClusterSpec::homogeneous(devices as usize, self.env.spec);
        self.push(name, || Ok(built), || expected, Some(cluster), PROVEN)
    }

    /// Adds a single-device workload run through `run_program`.
    fn plain(
        &mut self,
        name: impl Into<String>,
        w: &dyn Workload,
        race_free: bool,
    ) -> Result<(), AlgosError> {
        let machine = self.env.machine;
        self.push(name, || w.build(&machine), || w.expected(), None, race_free).map(|_| ())
    }
}

/// `batch_compute`: compute-heavy single-device programs, where block
/// execution is nearly all of the work.
pub fn batch_compute(env: &Env, seed: u64, scale: Scale) -> Result<Built, AlgosError> {
    let mut rb = RosterBuilder { env, out: Built::default() };
    let s = |k: u64| seed.wrapping_mul(0x9E37_79B9).wrapping_add(k);
    let n = scale.pick(1 << 14, 1 << 10);
    rb.plain("matmul_64", &MatMul::new(scale.pick(64, 32), s(1)), PROVEN)?;
    rb.plain("reduce_16k", &Reduce::new(n, s(2)), PROVEN)?;
    rb.plain(
        "reduce_seq_16k",
        &Reduce::with_variant(n, s(3), ReduceVariant::SequentialAddressing),
        PROVEN,
    )?;
    rb.plain("bitonic_512", &BitonicSort::new(scale.pick(512, 128), s(4)), UNDECIDED)?;
    rb.plain("gemv_128", &Gemv::new(scale.pick(128, 32), s(5)), PROVEN)?;
    let side = scale.pick(128, 32);
    rb.plain("transpose_tiled_128", &Transpose::new(side, s(6), TransposeVariant::Tiled), PROVEN)?;
    rb.plain(
        "transpose_padded_128",
        &Transpose::new(side, s(7), TransposeVariant::TiledPadded),
        PROVEN,
    )?;
    rb.plain("scan_8k", &Scan::new(n / 2, s(8)), PROVEN)?;
    rb.plain("dot_16k", &Dot::new(n, s(9)), PROVEN)?;
    Ok(rb.out)
}

/// A 2-device cluster whose second host link is 8× slower — the shape
/// the cost-driven planner exists for.
pub fn asym2(env: &Env) -> ClusterSpec {
    let mut c = ClusterSpec::homogeneous(2, env.spec);
    c.host_links[1] = c.host_links[1].scaled(8.0);
    c
}

/// How a [`staged`] program moves its buffer between host and devices
/// each round — the communication patterns of a multi-device program
/// whose kernels are small next to the data they need in place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Staging {
    /// Slab `d` up to device `d`, and back down from it.
    Scatter,
    /// The whole buffer up to every device; slab `d` back down.
    Broadcast,
    /// Slab `d` up to device `d`, every device sends its slab to every
    /// other over the peer links, the whole buffer down from one device.
    AllGather,
}

/// Blocks of the [`staged`] programs' kernel.
const STAGED_BLOCKS: u64 = 16;

/// Adds 1 to the first `b` words of every `stride`-word stretch of `buf`:
/// one block per stretch, so the launch is `STAGED_BLOCKS` blocks however
/// large the buffer is.
fn bump_kernel(b: u64, stride: u64, buf: DBuf) -> Kernel {
    let mut kb = KernelBuilder::new("bump", STAGED_BLOCKS, b);
    let at = AddrExpr::block() * stride as i64 + AddrExpr::lane();
    kb.glb_to_shr(AddrExpr::lane(), buf, at.clone());
    kb.ld_shr(0, AddrExpr::lane());
    kb.alu(AluOp::Add, 0, Operand::Reg(0), Operand::Imm(1));
    kb.st_shr(AddrExpr::lane(), Operand::Reg(0));
    kb.shr_to_glb(buf, at, AddrExpr::lane());
    kb.build()
}

/// A host-synchronised iteration over an `n`-word state: every round the
/// state goes up to the devices (`staging` says how), a sharded
/// [`bump_kernel`] touches `STAGED_BLOCKS · b` of its words, and the
/// state comes back down to the host buffer the next round uploads.
/// Nearly all of its host time is copies, replica construction and the
/// cluster driver's step interpreter.  Returns the program with its host
/// reference (`n` is a multiple of `STAGED_BLOCKS · b`).
pub fn staged(
    machine: &AtgpuMachine,
    n: u64,
    devices: u32,
    rounds: u64,
    staging: Staging,
    seed: u64,
) -> Result<(BuiltProgram, Vec<Vec<i64>>), AlgosError> {
    let stride = n / STAGED_BLOCKS;
    let slab = n / u64::from(devices);
    let data = gen::small_ints(n, seed);
    let mut pb = ProgramBuilder::new(format!("staged_{staging:?}").to_lowercase());
    let first = pb.host_input("A", n);
    let state = pb.host_output("C", n);
    let dev = pb.device_alloc("s", n);
    for round in 0..rounds {
        pb.begin_round();
        let from = if round == 0 { first } else { state };
        for d in 0..devices {
            let off = u64::from(d) * slab;
            match staging {
                Staging::Broadcast => pb.transfer_in_to(d, from, 0, dev, 0, n),
                _ => pb.transfer_in_to(d, from, off, dev, off, slab),
            };
        }
        pb.launch_sharded(bump_kernel(machine.b, stride, dev), even_shards(STAGED_BLOCKS, devices));
        if staging == Staging::AllGather {
            for src in 0..devices {
                let off = u64::from(src) * slab;
                for dst in (0..devices).filter(|&dst| dst != src) {
                    pb.transfer_peer(src, dst, dev, off, off, slab);
                }
            }
            pb.transfer_out_from((round % u64::from(devices)) as u32, dev, 0, state, 0, n);
        } else {
            for d in 0..devices {
                let off = u64::from(d) * slab;
                pb.transfer_out_from(d, dev, off, state, off, slab);
            }
        }
    }
    let mut expected = data.clone();
    for block in 0..STAGED_BLOCKS {
        for word in &mut expected[(block * stride) as usize..][..machine.b as usize] {
            *word += rounds as i64;
        }
    }
    let built = BuiltProgram { program: pb.build()?, inputs: vec![data], outputs: vec![state] };
    Ok((built, vec![expected]))
}

/// `cluster_transfer`: programs whose host time is in moving data, not in
/// block execution.  The engine needs ≈ 25× longer for a word a kernel
/// touches than a copy needs to move it, so even vecadd is engine-bound;
/// the roster therefore pairs small sharded compute programs with
/// [`staged`] iterations that move a 96k-word state every round, sized so
/// that copies, replica construction, write-log merge and the cluster
/// driver's step interpreter outweigh block execution.  Uses the cluster
/// driver fault-free and under a fault plan.  Per-device threads are off:
/// four threads on two shared cores measure the host's scheduler.
pub fn cluster_transfer(env: &Env, seed: u64, scale: Scale) -> Result<Built, AlgosError> {
    let mut rb = RosterBuilder { env, out: Built::default() };
    let m = env.machine;
    let s = |k: u64| seed.wrapping_mul(0x9E37_79B9).wrapping_add(100 + k);
    let homog = |n: usize| Some(ClusterSpec::homogeneous(n, env.spec));
    let n = scale.pick(1 << 12, 1 << 10);

    let vecadd = VecAdd::new(n, s(1));
    rb.plain("vecadd_4k", &vecadd, PROVEN)?;
    for devices in [1u32, 4] {
        rb.push(
            format!("vecadd_sharded_{devices}dev_4k"),
            || vecadd.build_sharded(&m, devices),
            || vecadd.expected(),
            homog(devices as usize),
            PROVEN,
        )?;
    }
    let asym = asym2(env);
    rb.push(
        "vecadd_planned_asym2dev_4k",
        || vecadd.build_sharded_planned(&m, &asym),
        || vecadd.expected(),
        Some(asym.clone()),
        PROVEN,
    )?;
    let ooc = OocVecAdd::new(n, n / 8, s(2));
    rb.push(
        "ooc_vecadd_streamed_4k",
        || ooc.build_streamed(&m),
        || ooc.expected(),
        homog(1),
        PROVEN,
    )?;
    let (stencil, rounds) = (Stencil::new(scale.pick(1 << 11, 1 << 9), s(3)), 8);
    rb.push(
        "stencil_halo_4dev_2k_r8",
        || stencil.build_sharded(&m, 4, rounds),
        || vec![stencil.iterated_reference(rounds)],
        homog(4),
        PROVEN,
    )?;
    let scan = Scan::new(n / 2, s(4));
    rb.push(
        "scan_sharded_4dev_2k",
        || scan.build_sharded(&m, 4),
        || scan.expected(),
        homog(4),
        PROVEN,
    )?;
    let spmv = SpmvEll::new(scale.pick(1 << 10, 1 << 8), 8, s(5));
    rb.push(
        "spmv_sharded_4dev_1k",
        || spmv.build_sharded(&m, 4),
        || spmv.expected(),
        homog(4),
        PROVEN,
    )?;
    let hist = Histogram::new(1 << 8, m.b, s(6));
    rb.push(
        "histogram_merge_4dev_256",
        || hist.build_sharded(&m, 4),
        || hist.expected(),
        homog(4),
        PROVEN,
    )?;
    let big = scale.pick(96 << 10, 1 << 12);
    rb.staged("staged_scatter_4dev_96k_r16", (big, 4, 16), Staging::Scatter, s(7))?;
    rb.staged("staged_broadcast_4dev_96k_r8", (big, 4, 8), Staging::Broadcast, s(8))?;
    rb.staged("staged_allgather_4dev_96k_r8", (big, 4, 8), Staging::AllGather, s(9))?;
    // Two programs again under transfer drops plus the loss of device 2 at
    // the first round: journal-replay recovery must give the fault-free
    // answers.  The plan is part of the workload, not of the inputs: its
    // seed is fixed, so every `--seed` retries the same drops.
    let mut plan = FaultPlan::random(0xC11A05, 4, 1, 0.25);
    plan.events.retain(|e| !matches!(e, FaultEvent::DeviceDown { .. }));
    plan.push(FaultEvent::DeviceDown { device: 2, at_round: 0 });
    let faulted = rb.push(
        "vecadd_sharded_4dev_4k_faulted",
        || vecadd.build_sharded(&m, 4),
        || vecadd.expected(),
        homog(4),
        PROVEN,
    )?;
    (faulted.sim.fault, faulted.priced) = (plan.clone(), false);
    let faulted =
        rb.staged("staged_scatter_4dev_24k_r2_faulted", (big / 4, 4, 2), Staging::Scatter, s(7))?;
    (faulted.sim.fault, faulted.priced) = (plan, false);
    Ok(rb.out)
}

/// Launches in the relaunch program (1 kernel-cache miss + the rest hits).
pub const RELAUNCHES: u64 = 400;

/// `launch_storm`: tiny grids, so lowering, cache lookup, device and
/// memory construction and verify+analyze decide the time.  The relaunch
/// programs take the kernel-cache *hit* path, the small-n sweep (every
/// program run once on a fresh device) the *miss* path.
pub fn launch_storm(env: &Env, seed: u64, scale: Scale) -> Result<Built, AlgosError> {
    let mut rb = RosterBuilder { env, out: Built::default() };
    let m = env.machine;
    let s = |k: u64| seed.wrapping_mul(0x9E37_79B9).wrapping_add(1000 + k);
    let repeats = scale.pick(6, 1);
    let launches = scale.pick(RELAUNCHES, 8);
    for r in 0..repeats {
        let w = VecAdd::new(8 * m.b, s(r));
        rb.push(
            format!("relaunch_{launches}x8_{r}"),
            || w.build_relaunched(&m, launches),
            || w.expected(),
            None,
            PROVEN,
        )?;
        rb.plain(format!("reduce_rounds_32k_{r}"), &Reduce::new(1 << 15, s(100 + r)), PROVEN)?;
    }
    let sizes = scale.pick(24, 2);
    for j in 1..=sizes {
        let n = j * m.b;
        rb.plain(format!("sweep_vecadd_{n}"), &VecAdd::new(n, s(200 + j)), PROVEN)?;
        rb.plain(format!("sweep_saxpy_{n}"), &Saxpy::new(n, 3, s(300 + j)), PROVEN)?;
        rb.plain(format!("sweep_dot_{n}"), &Dot::new(n, s(400 + j)), PROVEN)?;
        rb.plain(format!("sweep_reduce_{n}"), &Reduce::new(n, s(500 + j)), PROVEN)?;
    }
    Ok(rb.out)
}
