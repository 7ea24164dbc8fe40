//! Host-time attribution probes (run with
//! `cargo run --release -p atgpu-bench --example probe`).  The first line
//! names the target features the probe was compiled with (`avx512f`,
//! `avx2`), so a recorded number says which build it measured: the
//! workspace builds for its host (`.cargo/config.toml`), and
//! `RUSTFLAGS="-C target-cpu=x86-64"` builds the portable baseline.
//!
//! 1. **Scheduler / executor split** — the nine programs of the repo
//!    benchmark's `batch_compute` workload, replayed launch by launch
//!    from pre-launch memory snapshots: a bare [`BlockExec`] loop (every
//!    block reset and stepped to `Done` in order, no scheduler),
//!    [`Device::run_kernel`] on a warm kernel cache (MPs, tournament
//!    tree, co-simulation, DRAM controller), their difference and their
//!    ratio, per program and in total.  Both sides execute the same
//!    instructions through the same timing path, so the split is exact:
//!    the difference is the issue loop plus the per-launch cost.  Under
//!    each program, per kernel: ns per issued instruction of the bare
//!    executor and of the issue loop (that difference), which is what
//!    locates a kernel the executor or the scheduler handles badly.
//! 2. **vecadd breakdown** — executor-only / device-level / full-pipeline
//!    timings of one 200k-word vector addition, engine against the
//!    reference interpreter (which runs only per launch, so the
//!    full-pipeline line is the engine's alone), for localising a
//!    regression.
//! 3. **Issue loop** — one launch of exactly 10⁶ cheap instructions at
//!    residencies `ℓ ∈ {4, 16, 64}` (tournament-tree depth 2, 4, 6) on
//!    `k′ ∈ {2, 8}` co-simulated MPs: ns per issued instruction, so how the
//!    scheduler's footprint grows with `ℓ` can be read off directly.
//! 4. **Front end** — the quote path ahead of the price, for the nine
//!    `batch_compute` programs and `launch_storm`'s `relaunch_400x8`,
//!    `reduce_rounds_32k` and `sweep_reduce_768`: best-of-N µs of
//!    `validate_program`, `Program::check` of the built program (which
//!    answers from its witness), `verify_program` and its parts (site
//!    collection, bounds, race, shared-memory hazards — each over every
//!    launch that does not repeat its predecessor's kernel — and the
//!    lints over every launch), `analyze_cluster_program`, and the two
//!    leaf costs both of them pay over those same kernels: `walk`, the
//!    bare `lanemask::walk` that site collection (and a cold launch's
//!    lowering) consumes, and `txns`, `coalesce::site_transactions` of
//!    every global site, as the analyser counts `q`.
//! 5. **One launch** — what a launch costs the host beside its blocks,
//!    for `launch_storm`'s `relaunch_400x8` on a warm device (every
//!    launch a cache hit whose predecessor is the same kernel) and its
//!    four sweep kinds at `n = 24·b` on a fresh device per pass (every
//!    launch a miss): best-of-N µs per launch of `Device::run_kernel`
//!    and of its parts — lowering (`CompiledKernel::compile`), cache
//!    lookup (`KernelCache::get_or_compile` after the program's previous
//!    launch; on a miss, less the lowering), block execution (the bare
//!    executor loop of section 1) and the rest, MP and executor set-up
//!    with the issue loop — and the allocator calls of one such launch.
//! 6. **Transfers** — first the **interleaved pass**: `cluster_transfer`'s
//!    fourteen requests in the benchmark's order (fault plan included
//!    where the benchmark has one), N passes, µs per pass (best and
//!    median) and minor faults per pass.  Back-to-back repeats of one
//!    program reuse the pages its previous run freed and never showed
//!    the faults a pass over programs of different sizes takes.  The
//!    pass is measured first in the process: glibc raises its mmap and
//!    trim thresholds as large buffers are freed, and after the other
//!    sections the faults no longer show.  Then, per request:
//!    best-of-N µs of the run, the words the program's transfer
//!    steps price beside the words they physically copied
//!    (`DeviceStats::copied_words`, summed over devices; under a fault
//!    plan a step aimed at a dead device is priced on every survivor and
//!    a dropped attempt again, so the share can pass 100 %),
//!    minor page faults (`/proc/self/stat`) of the program's first run
//!    and per run of the replays that follow it, and a `memcpy` floor —
//!    best-of-N µs of copying the priced words once between two warm
//!    buffers.  The benchmark's `sim.xfer_*` replay copies untagged
//!    slices, which are always copied, so this is where skipped chunks
//!    show.
//! 7. **Threads** — what `SimConfig::device_threads` buys: best and
//!    median ms of `run_cluster_program` on eight sharded programs, from
//!    a 4k vector addition over four devices to a 256² matrix product,
//!    with device threads off (the plan in order on the caller's thread)
//!    and on (whole devices dealt to at most one worker per host core),
//!    runs alternating.
//! 8. **Quote path** — `serve_mix`'s exact shapes on its 2-device server:
//!    best-of-N µs of a memo hit (`CostServer::price` asked again) and of
//!    an analytic what-if (`price_what_if` on a spec no quote was made
//!    for), each split into its parts — the keyed program hash
//!    (`Keys::program`), the verify-memo lookup, the quote key and its
//!    lookup, and for the what-if the analysis (`cost_inputs`, which the
//!    server keeps per program and so pays on a program's first price
//!    only) and `cluster_cost_streamed` (`CostInputs::price`).  `hash`
//!    stays the full walk: the probe's own `Keys` never matches the tag
//!    of the server that keyed the program first, so it hashes afresh
//!    every time.  `kept` is the same `Keys::program` on a copy that this
//!    `Keys` keyed first — the tag compare a server's repeat request pays.
//!    `quote` is the own-cluster quote key — `Keys::quote` of the program
//!    key and the cluster key the server made at construction, 16 bytes —
//!    plus its lookup; `spec` is `Keys::spec` of a what-if's spec, which a
//!    what-if pays per request beside `quote`.  A memo hit should read
//!    about `kept + verify + quote`, a what-if about that plus `spec` and
//!    `cost`.  Last, the **memo hit by server size**: the mean memo hit
//!    over the same shapes on 2-, 8- and 32-device homogeneous servers,
//!    beside the spec's word count and its `Keys::spec`.  The memo column
//!    should not grow with the cluster; a memo hit that tracks `spec`
//!    means the server keys its own cluster per request again.

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
use atgpu_algos::{gen, vecadd::VecAdd, BuiltProgram, Workload};
use atgpu_analyze::coalesce::site_transactions;
use atgpu_analyze::sites::{collect, Site};
use atgpu_analyze::{analyze_cluster_program, cost_inputs};
use atgpu_exp::{ExpConfig, Scale};
use atgpu_ir::lanemask::{walk, At};
use atgpu_ir::validate::validate_program;
use atgpu_ir::{AddrExpr, AluOp, DBuf, HostStep, Instr, Kernel, KernelBuilder, Operand, Program};
use atgpu_model::{AtgpuMachine, ClusterSpec, GpuSpec};
use atgpu_serve::{CostServer, Keys, PriceMemo, PriceSource, Quote, ServerConfig, VerifyMemo};
use atgpu_sim::engine::{BlockExec, BlockSim, Scratch};
use atgpu_sim::gmem::GlobalMemory;
use atgpu_sim::uop::CompiledKernel;
use atgpu_sim::warp::{GmemAccess, StepEvent, WarpExec};
use atgpu_sim::{even_shards, run_cluster_program, FaultEvent, FaultPlan};
use atgpu_sim::{run_program, Device, EngineSel, ExecMode, HostData, KernelCache, SimConfig};
use atgpu_verify::lints::{self, KernelIo};
use atgpu_verify::{bounds, race, smem, verify_program};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Replays per program; each side keeps its fastest (this host's other
/// tenants only ever slow a replay down).
const REPLAYS: usize = 50;

/// Replays of the issue-loop launch (≈ 45 ms each, six cells).
const ISSUE_REPLAYS: usize = 10;

/// Replays of each front-end call (all under 2 ms).
const FRONT_REPLAYS: usize = 100;

/// Passes over each program's launches in section 5.
const LAUNCH_REPLAYS: usize = 100;

/// Runs of each program in section 6.
const TRANSFER_REPLAYS: usize = 30;

/// Runs of each program per side in section 7.
const THREAD_REPLAYS: usize = 15;

/// The system allocator, counting the calls of a thread inside
/// [`allocations`] (section 5).
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Whether this thread's allocator calls are counted.  Const and
    /// without a destructor: reading it inside the allocator never
    /// allocates.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.try_with(Cell::get).unwrap_or(false) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.try_with(Cell::get).unwrap_or(false) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocator calls `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    COUNTING.with(|c| c.set(true));
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    f();
    let calls = ALLOCATIONS.load(Ordering::Relaxed) - before;
    COUNTING.with(|c| c.set(false));
    calls
}

/// `batch_compute`'s roster at its measured sizes (the benchmark
/// package's `rosters::batch_compute`, seed 1).
fn batch_compute_programs() -> Vec<(&'static str, Box<dyn Workload>)> {
    let s = |k: u64| 0x9E37_79B9u64.wrapping_add(k);
    let n = 1 << 14;
    vec![
        ("matmul_64", Box::new(MatMul::new(64, s(1)))),
        ("reduce_16k", Box::new(Reduce::new(n, s(2)))),
        (
            "reduce_seq_16k",
            Box::new(Reduce::with_variant(n, s(3), ReduceVariant::SequentialAddressing)),
        ),
        ("bitonic_512", Box::new(BitonicSort::new(512, s(4)))),
        ("gemv_128", Box::new(Gemv::new(128, s(5)))),
        ("transpose_tiled_128", Box::new(Transpose::new(128, s(6), TransposeVariant::Tiled))),
        (
            "transpose_padded_128",
            Box::new(Transpose::new(128, s(7), TransposeVariant::TiledPadded)),
        ),
        ("scan_8k", Box::new(Scan::new(n / 2, s(8)))),
        ("dot_16k", Box::new(Dot::new(n, s(9)))),
    ]
}

/// One launch of a program: its kernel, lowered, and the device memory it
/// started from.
struct Launch {
    kernel: Kernel,
    compiled: CompiledKernel,
    before: Vec<i64>,
}

/// Walks a single-device program's host steps on a side copy, keeping
/// every launch and its pre-launch memory.
fn launches(cfg: &ExpConfig, device: &Device, built: &BuiltProgram) -> (Vec<Launch>, GlobalMemory) {
    let program = &built.program;
    let b = cfg.machine.b;
    let (bases, total) = program.buffer_layout(b);
    let mut gmem = GlobalMemory::new(bases.clone(), total, b, cfg.machine.g).unwrap();
    let host = HostData::new(program, built.inputs.clone()).unwrap();
    let mut host: Vec<Vec<i64>> =
        (0..program.host_bufs.len()).map(|i| host.buf(atgpu_ir::HBuf(i as u32)).to_vec()).collect();
    let mut out = Vec::new();
    for step in program.rounds.iter().flat_map(|r| &r.steps) {
        match step {
            HostStep::TransferIn { host: h, host_off, dev, dev_off, words, .. } => {
                let src = &host[h.0 as usize][*host_off as usize..][..*words as usize];
                gmem.copy_in(bases[dev.0 as usize] + dev_off, src);
            }
            HostStep::TransferOut { dev, dev_off, host: h, host_off, words, .. } => {
                let dst = &mut host[h.0 as usize][*host_off as usize..][..*words as usize];
                gmem.copy_out(bases[dev.0 as usize] + dev_off, dst);
            }
            HostStep::Launch(kernel) => {
                let nregs = kernel.max_reg().map_or(1, |r| u32::from(r) + 1);
                out.push(Launch {
                    kernel: kernel.clone(),
                    compiled: CompiledKernel::compile(kernel, &bases, b as u32, nregs),
                    before: gmem.words().to_vec(),
                });
                device.run_kernel(kernel, &mut gmem, ExecMode::Sequential, false).unwrap();
            }
            HostStep::SyncStream { .. } | HostStep::SyncDevice { .. } => {}
            other => panic!("single-device program holds {other:?}"),
        }
    }
    (out, gmem)
}

/// One launch's blocks on one executor, in order, with no scheduler:
/// every block reset and stepped to `Done`.
fn bare_blocks(l: &Launch, gmem: &mut GlobalMemory) {
    let (mut ex, mut scratch) = (BlockExec::new(&l.compiled), Scratch::default());
    let mut acc = GmemAccess::Direct(gmem);
    for blk in 0..l.kernel.blocks() {
        BlockSim::reset(&mut ex, &l.compiled, blk);
        while BlockSim::step(&mut ex, &l.compiled, &mut scratch, &mut acc).unwrap()
            != StepEvent::Done
        {}
    }
}

/// `l` on `device`, from its pre-launch memory: the copy happens now, the
/// launch when the returned call is made.
fn launch_on<'a>(
    device: &'a Device,
    gmem: &'a mut GlobalMemory,
    l: &'a Launch,
) -> impl FnOnce() + 'a {
    gmem.copy_in(0, &l.before);
    move || {
        black_box(device.run_kernel(&l.kernel, gmem, ExecMode::Sequential, false).unwrap());
    }
}

/// Kernels a program's launch rows are shown for one by one; a program
/// with more distinct kernel names (bitonic's 45 stages) gets one row.
const KERNEL_ROWS: usize = 8;

/// Section 1's launches of one kernel name: their best replays summed.
#[derive(Default)]
struct KernelRow {
    name: String,
    launches: usize,
    blocks: u64,
    instr: u64,
    /// Seconds, bare executor loop.
    bare: f64,
    /// Seconds, `Device::run_kernel`.
    dev: f64,
}

impl KernelRow {
    fn add(&mut self, other: &KernelRow) {
        self.launches += other.launches;
        self.blocks += other.blocks;
        self.instr += other.instr;
        self.bare += other.bare;
        self.dev += other.dev;
    }
}

/// Section 1: where a `batch_compute` pass goes — executor or issue loop.
/// Under each program, its kernels: per issued instruction, the bare
/// executor's ns and the issue loop's (`run_kernel` less bare), from each
/// launch's best replay — where a program's time goes, by kernel.
fn scheduler_split(cfg: &ExpConfig) {
    println!("scheduler/executor split, best of {REPLAYS} replays, ms per program");
    println!(
        "{:<22} {:>8} {:>7} {:>10} {:>11} {:>10} {:>6}",
        "program", "launches", "blocks", "bare_exec", "run_kernel", "difference", "ratio"
    );
    println!(
        "  {:<20} {:>8} {:>7} {:>10} {:>11} {:>10}",
        "kernel", "launches", "blocks", "instr", "bare ns/i", "issue ns/i"
    );
    let (mut bare_total, mut device_total) = (0.0, 0.0);
    for (name, w) in batch_compute_programs() {
        // One device per program: its kernel cache is warm after the
        // capture pass, as it is for all but a program's first request.
        let device = Device::new(cfg.machine, cfg.spec).unwrap();
        let (launches, mut gmem) = launches(cfg, &device, &w.build(&cfg.machine).unwrap());
        let (mut bare, mut dev) = (f64::INFINITY, f64::INFINITY);
        let mut best = vec![(f64::INFINITY, f64::INFINITY); launches.len()];
        let mut instructions = vec![0; launches.len()];
        for _ in 0..REPLAYS {
            let (mut bare_pass, mut dev_pass) = (0.0, 0.0);
            for (i, l) in launches.iter().enumerate() {
                gmem.copy_in(0, &l.before);
                let t = Instant::now();
                bare_blocks(l, &mut gmem);
                let bare_launch = t.elapsed().as_secs_f64();

                gmem.copy_in(0, &l.before);
                let t = Instant::now();
                let stats =
                    device.run_kernel(&l.kernel, &mut gmem, ExecMode::Sequential, false).unwrap();
                let dev_launch = t.elapsed().as_secs_f64();
                instructions[i] = black_box(stats).instructions;
                bare_pass += bare_launch;
                dev_pass += dev_launch;
                best[i] = (best[i].0.min(bare_launch), best[i].1.min(dev_launch));
            }
            bare = bare.min(bare_pass * 1e3);
            dev = dev.min(dev_pass * 1e3);
        }
        let blocks: u64 = launches.iter().map(|l| l.kernel.blocks()).sum();
        println!(
            "{name:<22} {:>8} {blocks:>7} {bare:>10.3} {dev:>11.3} {:>10.3} {:>6.2}",
            launches.len(),
            dev - bare,
            dev / bare
        );
        let mut rows: Vec<KernelRow> = Vec::new();
        for ((l, &(bare_s, dev_s)), &instr) in launches.iter().zip(&best).zip(&instructions) {
            let launch = KernelRow {
                name: l.kernel.name.clone(),
                launches: 1,
                blocks: l.kernel.blocks(),
                instr,
                bare: bare_s,
                dev: dev_s,
            };
            match rows.iter_mut().find(|r| r.name == launch.name) {
                Some(row) => row.add(&launch),
                None => rows.push(launch),
            }
        }
        if rows.len() > KERNEL_ROWS {
            let mut all =
                KernelRow { name: format!("{} kernels", rows.len()), ..KernelRow::default() };
            rows.iter().for_each(|r| all.add(r));
            rows = vec![all];
        }
        for r in rows {
            let per = |s: f64| s * 1e9 / r.instr.max(1) as f64;
            println!(
                "  {:<20} {:>8} {:>7} {:>10} {:>11.1} {:>10.1}",
                r.name,
                r.launches,
                r.blocks,
                r.instr,
                per(r.bare),
                per(r.dev - r.bare)
            );
        }
        bare_total += bare;
        device_total += dev;
    }
    println!(
        "{:<22} {:>8} {:>7} {bare_total:>10.3} {device_total:>11.3} {:>10.3} {:>6.2}\n",
        "total (ms per pass)",
        "",
        "",
        device_total - bare_total,
        device_total / bare_total
    );
}

/// Section 3: the issue loop by itself.  Blocks are short (40 000 × 25
/// instructions; `batch_compute` averages 36 per block), so admission and
/// retirement weigh in as they do in practice.
fn issue_loop(cfg: &ExpConfig) {
    let b = cfg.machine.b;
    let blocks = 40_000u64;
    let mut kb = KernelBuilder::new("issue_loop", blocks, 2 * b);
    let word = AddrExpr::block() * b as i64 + AddrExpr::lane();
    kb.glb_to_shr(AddrExpr::lane(), DBuf(0), word.clone());
    kb.ld_shr(0, AddrExpr::lane());
    kb.repeat(7, |kb| {
        kb.alu(AluOp::Add, 1, Operand::Reg(0), Operand::LoopVar(0));
        kb.alu(AluOp::Xor, 0, Operand::Reg(0), Operand::Reg(1));
        kb.st_shr(AddrExpr::lane() + b as i64, Operand::Reg(0));
    });
    kb.st_shr(AddrExpr::lane(), Operand::Reg(1));
    kb.shr_to_glb(DBuf(1), word, AddrExpr::lane());
    let kernel = kb.build();

    let words = blocks * b;
    let mut gmem = GlobalMemory::new(vec![0, words], 2 * words, b, cfg.machine.g).unwrap();
    println!(
        "\nissue loop, one 10^6-instruction launch, best of {ISSUE_REPLAYS} replays, ns per instruction"
    );
    println!("{:<6} {:>7} {:>7}", "ell", "k'=2", "k'=8");
    for ell in [4, 16, 64] {
        let mut row = format!("{ell:<6}");
        for k_prime in [2, 8] {
            let spec = GpuSpec { k_prime, h_limit: ell, ..cfg.spec };
            let device = Device::new(cfg.machine, spec).unwrap();
            let mut best = f64::INFINITY;
            for _ in 0..ISSUE_REPLAYS {
                let t = Instant::now();
                let stats =
                    device.run_kernel(&kernel, &mut gmem, ExecMode::Sequential, false).unwrap();
                best = best.min(t.elapsed().as_secs_f64());
                assert_eq!((stats.instructions, stats.occupancy), (1_000_000, ell));
            }
            // 10⁶ instructions: milliseconds per launch are ns per instruction.
            row += &format!(" {:>7.1}", best * 1e3);
        }
        println!("{row}");
    }
}

/// Best-of-[`FRONT_REPLAYS`] microseconds of `f`.
fn best_us(mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..FRONT_REPLAYS {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64() * 1e6);
    }
    best
}

/// Section 4: what a quote costs ahead of the price.
fn front_end(cfg: &ExpConfig) {
    let (machine, b) = (&cfg.machine, cfg.machine.b);
    let mut programs: Vec<(&str, Program)> = batch_compute_programs()
        .into_iter()
        .map(|(name, w)| (name, w.build(machine).unwrap().program))
        .collect();
    // `launch_storm`'s relaunch program, its 32k reduction and its largest
    // sweep reduction, as the benchmark builds them at seed 1.
    let seed = |k: u64| 0x9E37_79B9u64 + 1000 + k;
    let relaunch = VecAdd::new(8 * b, seed(0)).build_relaunched(machine, 400).unwrap();
    programs.push(("relaunch_400x8", relaunch.program));
    let reduce_rounds = Reduce::new(1 << 15, seed(100)).build(machine).unwrap();
    programs.push(("reduce_rounds_32k", reduce_rounds.program));
    let sweep_reduce = Reduce::new(24 * b, seed(524)).build(machine).unwrap();
    programs.push(("sweep_reduce_768", sweep_reduce.program));
    println!("\nfront end, best of {FRONT_REPLAYS} replays, us per program");
    println!(
        "{:<22} {:>8} {:>7} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "program",
        "launches",
        "kernels",
        "validate",
        "check",
        "verify",
        "collect",
        "walk",
        "bounds",
        "race",
        "smem",
        "lints",
        "txns",
        "analyze"
    );
    for (name, program) in &programs {
        let launches: Vec<&Kernel> = program
            .rounds
            .iter()
            .flat_map(|r| &r.steps)
            .filter_map(HostStep::launch)
            .map(|l| l.0)
            .collect();
        // The kernels the verifier analyses — every launch but one that
        // repeats the previous launch's structure — and which one each
        // launch runs.
        let mut kernels: Vec<&Kernel> = Vec::new();
        let of_launch: Vec<usize> = launches
            .iter()
            .map(|k| {
                if !kernels.last().is_some_and(|p| p.same_structure(k)) {
                    kernels.push(k);
                }
                kernels.len() - 1
            })
            .collect();
        let sites: Vec<Vec<Site>> = kernels.iter().map(|k| collect(k, b)).collect();
        let (bases, _) = program.buffer_layout(b);
        let each = || kernels.iter().copied().zip(&sites);
        let row = [
            best_us(|| validate_program(program).unwrap()),
            best_us(|| black_box(program).check().unwrap()),
            best_us(|| drop(black_box(verify_program(program, b)))),
            best_us(|| kernels.iter().for_each(|k| drop(black_box(collect(k, b))))),
            best_us(|| {
                let mut visit = |at: &At<'_>, _: &Instr| {
                    black_box(at.mask);
                };
                kernels.iter().for_each(|k| walk(&k.body, b as u32, &mut visit))
            }),
            best_us(|| {
                for (k, s) in each() {
                    s.iter()
                        .for_each(|site| drop(black_box(bounds::check_site(program, k, site, b))));
                }
            }),
            best_us(|| each().for_each(|(k, s)| drop(black_box(race::check_sites(k, s, b))))),
            best_us(|| each().for_each(|(_, s)| drop(black_box(smem::check_sites(s, b))))),
            best_us(|| {
                let io: Vec<KernelIo> = each().map(|(k, s)| lints::kernel_io(k, s, b)).collect();
                black_box(lints::check_launches(program, of_launch.iter().map(|&i| &io[i])));
            }),
            best_us(|| {
                for (k, s) in each() {
                    for site in s.iter().filter(|site| site.buf.is_some()) {
                        let base = bases[site.buf.unwrap().0 as usize];
                        black_box(site_transactions(
                            &site.addr,
                            base,
                            k.grid,
                            &site.loop_counts,
                            b,
                        ));
                    }
                }
            }),
            best_us(|| drop(black_box(analyze_cluster_program(program, machine, 1).unwrap()))),
        ];
        let cells: String = row.iter().map(|us| format!(" {us:>8.1}")).collect();
        println!("{name:<22} {:>8} {:>7}{cells}", launches.len(), kernels.len());
    }
}

/// Best of [`LAUNCH_REPLAYS`] passes, per launch, of the microseconds
/// `pass(launch index)` reports (see [`us`]).
fn per_launch_best(n: usize, mut pass: impl FnMut(usize) -> f64) -> Vec<f64> {
    let mut best = vec![f64::INFINITY; n];
    for _ in 0..LAUNCH_REPLAYS {
        for (i, slot) in best.iter_mut().enumerate() {
            *slot = slot.min(pass(i));
        }
    }
    best
}

/// Microseconds `f` takes.
fn us(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64() * 1e6
}

/// Section 5: what one launch costs the host beside its blocks.
fn launch_cost(cfg: &ExpConfig) {
    let (machine, b) = (&cfg.machine, cfg.machine.b as u32);
    // `launch_storm`'s programs as the benchmark builds them at seed 1.
    let s = |k: u64| 0x9E37_79B9u64 + 1000 + k;
    let n = 24 * machine.b;
    let programs: Vec<(&str, bool, BuiltProgram)> = vec![
        (
            "relaunch_400x8",
            true,
            VecAdd::new(8 * machine.b, s(0)).build_relaunched(machine, 400).unwrap(),
        ),
        ("sweep_vecadd_768", false, VecAdd::new(n, s(224)).build(machine).unwrap()),
        ("sweep_saxpy_768", false, Saxpy::new(n, 3, s(324)).build(machine).unwrap()),
        ("sweep_dot_768", false, Dot::new(n, s(424)).build(machine).unwrap()),
        ("sweep_reduce_768", false, Reduce::new(n, s(524)).build(machine).unwrap()),
    ];
    println!("\none launch, best of {LAUNCH_REPLAYS} passes, us per launch (setup = launch less the rest)");
    println!(
        "{:<18} {:>5} {:>8} {:>6} {:>8} {:>8} {:>8} {:>8} {:>8} {:>7}",
        "program",
        "mode",
        "launches",
        "grid",
        "launch",
        "lower",
        "lookup",
        "setup",
        "blocks",
        "allocs"
    );
    for (name, warm, built) in &programs {
        let capture = Device::new(*machine, cfg.spec).unwrap();
        let (launches, mut gmem) = launches(cfg, &capture, built);
        let count = launches.len();
        let bases = gmem.bases().to_vec();
        let fresh = || Device::new(*machine, cfg.spec).unwrap();
        let run = |device: &Device, gmem: &mut GlobalMemory, i: usize| {
            launch_on(device, gmem, &launches[i])();
        };
        // A device as a launch of this program finds it: one that has run
        // the whole program before (warm), or a fresh one that has run
        // only the launches before this one (cold).
        let warm_device = fresh();
        (0..count).for_each(|i| run(&warm_device, &mut gmem, i));
        let device_for = |i: usize, gmem: &mut GlobalMemory| -> Device {
            let device = fresh();
            (0..i).for_each(|j| run(&device, gmem, j));
            device
        };

        let launch = per_launch_best(count, |i| {
            let cold;
            let device = if *warm {
                &warm_device
            } else {
                cold = device_for(i, &mut gmem);
                &cold
            };
            us(launch_on(device, &mut gmem, &launches[i]))
        });
        let allocs = {
            let cold;
            let device = if *warm {
                &warm_device
            } else {
                cold = device_for(count - 1, &mut gmem);
                &cold
            };
            allocations(launch_on(device, &mut gmem, &launches[count - 1]))
        };

        let lower = per_launch_best(count, |i| {
            let k = &launches[i].kernel;
            let nregs = k.max_reg().map_or(1, |r| u32::from(r) + 1);
            us(|| drop(black_box(CompiledKernel::compile(k, &bases, b, nregs))))
        });
        // The lookup after the program's previous launch, as the device
        // makes it: on a cache that holds the program (warm), or one that
        // holds only the launches before this one (cold, less the
        // lowering a miss includes).
        let warm_cache = KernelCache::new(64);
        for l in &launches {
            warm_cache.get_or_compile(&l.kernel, &bases, b, &mut None).expect("a valid launch");
        }
        let lookup = per_launch_best(count, |i| {
            let cold_cache;
            let (cache, before) = if *warm {
                (&warm_cache, (i + count - 1) % count..(i + count - 1) % count + 1)
            } else {
                cold_cache = KernelCache::new(64);
                (&cold_cache, 0..i)
            };
            let mut previous = None;
            for j in before {
                cache.get_or_compile(&launches[j].kernel, &bases, b, &mut previous).expect("valid");
            }
            let kernel = &launches[i].kernel;
            us(|| drop(black_box(cache.get_or_compile(kernel, &bases, b, &mut previous))))
        });
        let blocks = per_launch_best(count, |i| {
            gmem.copy_in(0, &launches[i].before);
            us(|| bare_blocks(&launches[i], &mut gmem))
        });

        let mean = |v: &[f64]| v.iter().sum::<f64>() / count as f64;
        let (launch, lower, lookup, blocks) =
            (mean(&launch), mean(&lower), mean(&lookup), mean(&blocks));
        // A miss's lookup includes its lowering: they are reported apart.
        let setup = launch - lookup - blocks;
        let lookup = if *warm { lookup } else { (lookup - lower).max(0.0) };
        let grid = launches.iter().map(|l| l.kernel.blocks()).sum::<u64>() as f64 / count as f64;
        let mode = if *warm { "warm" } else { "cold" };
        println!(
            "{name:<18} {mode:>5} {count:>8} {grid:>6.1} {launch:>8.2} {lower:>8.2} {lookup:>8.2} {setup:>8.2} {blocks:>8.2} {allocs:>7}"
        );
    }
}

fn main() {
    println!(
        "build: target features avx512f={} avx2={}",
        cfg!(target_feature = "avx512f"),
        cfg!(target_feature = "avx2")
    );
    // Only the machine and the device are read: every run below takes
    // `SimConfig::default()`, which has no transfer jitter.
    let cfg = ExpConfig::standard(Scale::Quick);
    let interleaved = interleaved_pass(&cfg);
    scheduler_split(&cfg);

    let built = VecAdd::new(200_000, 1).build(&cfg.machine).unwrap();
    let kernel = built
        .program
        .rounds
        .iter()
        .flat_map(|r| r.steps.iter())
        .find_map(|s| match s {
            HostStep::Launch(k) => Some(k),
            _ => None,
        })
        .unwrap();
    let (bases, total) = built.program.buffer_layout(cfg.machine.b);
    let mut g = GlobalMemory::new(bases.clone(), total, cfg.machine.b, cfg.machine.g).unwrap();
    let nregs = kernel.max_reg().map(|r| u32::from(r) + 1).unwrap_or(1);
    let b = cfg.machine.b as u32;
    let blocks = kernel.blocks();

    let best = |mut f: Box<dyn FnMut()>| -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let t = Instant::now();
            f();
            best = best.min(t.elapsed().as_secs_f64());
        }
        best
    };

    // Pure engine executor.
    let ck = CompiledKernel::compile(kernel, &bases, b, nregs);
    {
        let (mut ex, mut scratch) = (BlockExec::new(&ck), Scratch::default());
        let t = Instant::now();
        for blk in 0..blocks {
            BlockSim::reset(&mut ex, &ck, blk);
            let mut acc = GmemAccess::Direct(&mut g);
            loop {
                if let StepEvent::Done =
                    BlockSim::step(&mut ex, &ck, &mut scratch, &mut acc).unwrap()
                {
                    break;
                }
            }
        }
        println!("engine-exec-only : {:.4}s", t.elapsed().as_secs_f64());
    }
    {
        let mut wx = WarpExec::new(kernel, &bases, b, nregs);
        let t = Instant::now();
        for blk in 0..blocks {
            BlockSim::reset(&mut wx, &(), blk);
            let mut acc = GmemAccess::Direct(&mut g);
            loop {
                if let StepEvent::Done = BlockSim::step(&mut wx, &(), &mut (), &mut acc).unwrap() {
                    break;
                }
            }
        }
        println!("ref-exec-only    : {:.4}s", t.elapsed().as_secs_f64());
    }

    // Device-level (Mp + dram + event loop), no driver/transfers.
    let device = Device::new(cfg.machine, cfg.spec).unwrap();
    let e = best(Box::new({
        let device = &device;
        let kernel = kernel.clone();
        let mut g2 = GlobalMemory::new(bases.clone(), total, cfg.machine.b, cfg.machine.g).unwrap();
        move || {
            device.run_kernel_with(&kernel, &mut g2, false, EngineSel::MicroOp).unwrap();
        }
    }));
    println!("engine-device    : {:.4}s", e);
    let r = best(Box::new({
        let device = &device;
        let kernel = kernel.clone();
        let mut g2 = GlobalMemory::new(bases.clone(), total, cfg.machine.b, cfg.machine.g).unwrap();
        move || {
            device.run_kernel_with(&kernel, &mut g2, false, EngineSel::Reference).unwrap();
        }
    }));
    println!("ref-device       : {:.4}s  device-speedup={:.2}", r, r / e);

    // Full run_program.
    let e = best(Box::new({
        let built = VecAdd::new(200_000, 1).build(&cfg.machine).unwrap();
        let m = cfg.machine;
        let s = cfg.spec;
        move || {
            run_program(&built.program, built.inputs.clone(), &m, &s, &SimConfig::default())
                .unwrap();
        }
    }));
    println!("engine-full      : {:.4}s", e);

    issue_loop(&cfg);
    front_end(&cfg);
    launch_cost(&cfg);
    transfers(&cfg, &interleaved);
    threads(&cfg);
    quote_path();
}

/// How a [`staged`] program moves its state between host and devices.
#[derive(Clone, Copy, PartialEq)]
enum Staging {
    Scatter,
    Broadcast,
    AllGather,
}

/// The benchmark package's `rosters::staged`: every round the `n`-word
/// state goes up to the devices, 16 blocks bump `b` of its words, and it
/// comes back down to the host buffer the next round uploads.
fn staged(
    m: &AtgpuMachine,
    n: u64,
    devices: u32,
    rounds: u64,
    staging: Staging,
    seed: u64,
) -> BuiltProgram {
    let (blocks, slab) = (16, n / u64::from(devices));
    let mut pb = atgpu_ir::ProgramBuilder::new("staged");
    let first = pb.host_input("A", n);
    let state = pb.host_output("C", n);
    let dev = pb.device_alloc("s", n);
    let mut kb = KernelBuilder::new("bump", blocks, m.b);
    let at = AddrExpr::block() * (n / blocks) as i64 + AddrExpr::lane();
    kb.glb_to_shr(AddrExpr::lane(), dev, at.clone());
    kb.ld_shr(0, AddrExpr::lane());
    kb.alu(AluOp::Add, 0, Operand::Reg(0), Operand::Imm(1));
    kb.st_shr(AddrExpr::lane(), Operand::Reg(0));
    kb.shr_to_glb(dev, at, AddrExpr::lane());
    let kernel = kb.build();
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
        pb.launch_sharded(kernel.clone(), even_shards(blocks, devices));
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
    let program = pb.build().unwrap();
    BuiltProgram { program, inputs: vec![gen::small_ints(n, seed)], outputs: vec![state] }
}

/// Minor page faults of this process so far (`/proc/self/stat` field 10).
fn minor_faults() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may hold spaces; the fields after it do not.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    rest.split_whitespace().nth(7).and_then(|f| f.parse().ok()).unwrap_or(0)
}

/// One `cluster_transfer` request: a program, the cluster it runs on
/// (`None`: [`run_program`] on one device) and its fault plan.
struct Request {
    name: &'static str,
    built: BuiltProgram,
    cluster: Option<ClusterSpec>,
    fault: FaultPlan,
}

impl Request {
    /// Runs the request as the benchmark does (device threads off) and
    /// returns the words its transfers physically copied.
    fn run(&self, cfg: &ExpConfig) -> u64 {
        let config =
            SimConfig { device_threads: false, fault: self.fault.clone(), ..SimConfig::default() };
        let (program, inputs) = (&self.built.program, self.built.inputs.clone());
        match &self.cluster {
            None => {
                let report = run_program(program, inputs, &cfg.machine, &cfg.spec, &config);
                report.unwrap().device_stats.copied_words
            }
            Some(cluster) => {
                let report = run_cluster_program(program, inputs, &cfg.machine, cluster, &config);
                report.unwrap().device_stats.iter().map(|d| d.copied_words).sum()
            }
        }
    }
}

/// `cluster_transfer`'s fourteen requests at seed 1, built and ordered as
/// the benchmark package's `rosters::cluster_transfer` builds them.
fn cluster_transfer(cfg: &ExpConfig) -> Vec<Request> {
    let m = &cfg.machine;
    let s = |k: u64| 0x9E37_79B9u64 + 100 + k;
    let homog = |n: usize| Some(ClusterSpec::homogeneous(n, cfg.spec));
    let mut asym = ClusterSpec::homogeneous(2, cfg.spec);
    asym.host_links[1] = asym.host_links[1].scaled(8.0);
    let mut loss = FaultPlan::random(0xC11A05, 4, 1, 0.25);
    loss.events.retain(|e| !matches!(e, FaultEvent::DeviceDown { .. }));
    loss.push(FaultEvent::DeviceDown { device: 2, at_round: 0 });
    let (n, big) = (1 << 12, 96 << 10);
    let vecadd = VecAdd::new(n, s(1));
    let ooc = OocVecAdd::new(n, n / 8, s(2));
    let none = FaultPlan::default;
    let request = |name, built, cluster, fault| Request { name, built, cluster, fault };
    vec![
        request("vecadd_4k", vecadd.build(m).unwrap(), None, none()),
        request("vecadd_sharded_1dev_4k", vecadd.build_sharded(m, 1).unwrap(), homog(1), none()),
        request("vecadd_sharded_4dev_4k", vecadd.build_sharded(m, 4).unwrap(), homog(4), none()),
        request(
            "vecadd_planned_asym2dev_4k",
            vecadd.build_sharded_planned(m, &asym).unwrap(),
            Some(asym.clone()),
            none(),
        ),
        request("ooc_vecadd_streamed_4k", ooc.build_streamed(m).unwrap(), homog(1), none()),
        request(
            "stencil_halo_4dev_2k_r8",
            Stencil::new(1 << 11, s(3)).build_sharded(m, 4, 8).unwrap(),
            homog(4),
            none(),
        ),
        request(
            "scan_sharded_4dev_2k",
            Scan::new(n / 2, s(4)).build_sharded(m, 4).unwrap(),
            homog(4),
            none(),
        ),
        request(
            "spmv_sharded_4dev_1k",
            SpmvEll::new(1 << 10, 8, s(5)).build_sharded(m, 4).unwrap(),
            homog(4),
            none(),
        ),
        request(
            "histogram_merge_4dev_256",
            Histogram::new(1 << 8, m.b, s(6)).build_sharded(m, 4).unwrap(),
            homog(4),
            none(),
        ),
        request(
            "staged_scatter_4dev_96k_r16",
            staged(m, big, 4, 16, Staging::Scatter, s(7)),
            homog(4),
            none(),
        ),
        request(
            "staged_broadcast_4dev_96k_r8",
            staged(m, big, 4, 8, Staging::Broadcast, s(8)),
            homog(4),
            none(),
        ),
        request(
            "staged_allgather_4dev_96k_r8",
            staged(m, big, 4, 8, Staging::AllGather, s(9)),
            homog(4),
            none(),
        ),
        request(
            "vecadd_sharded_4dev_4k_faulted",
            vecadd.build_sharded(m, 4).unwrap(),
            homog(4),
            loss.clone(),
        ),
        request(
            "staged_scatter_4dev_24k_r2_faulted",
            staged(m, big / 4, 4, 2, Staging::Scatter, s(7)),
            homog(4),
            loss,
        ),
    ]
}

/// The first half of section 6, measured before every other section:
/// `cluster_transfer`'s runs in the benchmark's order, pass after pass.
/// Back-to-back repeats of one program reuse the pages its previous run
/// freed; a pass over programs of different sizes is where freed pages
/// went back to the kernel.  glibc raises its mmap and trim thresholds
/// as large buffers are freed, after which a pass no longer shows that,
/// so this runs first and section 6 prints it.
fn interleaved_pass(cfg: &ExpConfig) -> String {
    let requests = cluster_transfer(cfg);
    let mut pass_us = Vec::with_capacity(TRANSFER_REPLAYS);
    let faults = minor_faults();
    for _ in 0..TRANSFER_REPLAYS {
        let t = Instant::now();
        for r in &requests {
            black_box(r.run(cfg));
        }
        pass_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let minflt = (minor_faults() - faults) as f64 / TRANSFER_REPLAYS as f64;
    pass_us.sort_by(f64::total_cmp);
    format!(
        "interleaved pass ({} requests in the benchmark's order, {TRANSFER_REPLAYS} passes): \
         best {:.0} us, median {:.0} us, {minflt:.0} minor faults per pass",
        requests.len(),
        pass_us[0],
        pass_us[TRANSFER_REPLAYS / 2]
    )
}

/// Section 6: what a pass over `cluster_transfer`'s runs costs (measured
/// first in the process, see [`interleaved_pass`]), and what each run's
/// transfers copy against what they price.
fn transfers(cfg: &ExpConfig, interleaved: &str) {
    let requests = cluster_transfer(cfg);
    println!("\ntransfers (device threads off, as the benchmark)");
    println!("{interleaved}");
    println!("each program, best of {TRANSFER_REPLAYS} runs");
    println!(
        "{:<34} {:>9} {:>9} {:>9} {:>7} {:>7} {:>7} {:>9}",
        "program", "run_us", "priced", "copied", "copy%", "flt1st", "flt/run", "memcpy_us"
    );
    for r in &requests {
        let faults = minor_faults();
        let copied = r.run(cfg);
        let first_faults = minor_faults() - faults;
        let priced: u64 = r
            .built
            .program
            .rounds
            .iter()
            .flat_map(|r| &r.steps)
            .map(|step| match step {
                HostStep::TransferIn { words, .. }
                | HostStep::TransferOut { words, .. }
                | HostStep::TransferPeer { words, .. } => *words,
                _ => 0,
            })
            .sum();
        let faults = minor_faults();
        let mut best = f64::INFINITY;
        for _ in 0..TRANSFER_REPLAYS {
            let t = Instant::now();
            black_box(r.run(cfg));
            best = best.min(t.elapsed().as_secs_f64() * 1e6);
        }
        let minflt = (minor_faults() - faults) as f64 / TRANSFER_REPLAYS as f64;
        let (from, mut to) = (vec![1i64; priced as usize], vec![0i64; priced as usize]);
        let mut floor = f64::INFINITY;
        for _ in 0..TRANSFER_REPLAYS {
            let t = Instant::now();
            to.copy_from_slice(black_box(&from));
            black_box(&to);
            floor = floor.min(t.elapsed().as_secs_f64() * 1e6);
        }
        let share = 100.0 * copied as f64 / priced.max(1) as f64;
        println!(
            "{:<34} {best:>9.1} {priced:>9} {copied:>9} {share:>6.1}% {first_faults:>7} \
             {minflt:>7.0} {floor:>9.1}",
            r.name
        );
    }
}

/// Section 7: each program's `run_cluster_program` with device threads
/// off and on, runs alternating so both sides see the same host.
fn threads(cfg: &ExpConfig) {
    let m = &cfg.machine;
    let s = |k: u64| 0x9E37_79B9u64 + 700 + k;
    let programs: Vec<(&str, BuiltProgram, usize)> = vec![
        ("vecadd 4k x 4", VecAdd::new(1 << 12, s(1)).build_sharded(m, 4).unwrap(), 4),
        ("vecadd 256k x 2", VecAdd::new(256 << 10, s(2)).build_sharded(m, 2).unwrap(), 2),
        ("matmul 64 x 2", MatMul::new(64, s(3)).build_sharded(m, 2).unwrap(), 2),
        ("matmul 256 x 2", MatMul::new(256, s(4)).build_sharded(m, 2).unwrap(), 2),
        ("matmul 256 x 4", MatMul::new(256, s(4)).build_sharded(m, 4).unwrap(), 4),
        ("histogram 32k x 4", Histogram::new(32 << 10, m.b, s(5)).build_sharded(m, 4).unwrap(), 4),
        ("scan 64k x 4", Scan::new(64 << 10, s(6)).build_sharded(m, 4).unwrap(), 4),
        (
            "stencil 8k x 8 rounds x 4",
            Stencil::new(8 << 10, s(7)).build_sharded(m, 4, 8).unwrap(),
            4,
        ),
    ];
    println!(
        "\nthreads (run_cluster_program, {THREAD_REPLAYS} runs per side alternating, {} host cores)",
        atgpu_sim::cluster::host_parallelism()
    );
    println!(
        "{:<26} {:>10} {:>10} {:>10} {:>10} {:>8}",
        "program", "inline_ms", "(median)", "thread_ms", "(median)", "speedup"
    );
    for (name, built, devices) in &programs {
        let cluster = ClusterSpec::homogeneous(*devices, cfg.spec);
        let run = |device_threads| {
            let config = SimConfig { device_threads, ..SimConfig::default() };
            let inputs = built.inputs.clone();
            let t = Instant::now();
            black_box(run_cluster_program(&built.program, inputs, m, &cluster, &config).unwrap());
            t.elapsed().as_secs_f64() * 1e3
        };
        let (mut inline, mut threaded) = (Vec::new(), Vec::new());
        for _ in 0..THREAD_REPLAYS {
            inline.push(run(false));
            threaded.push(run(true));
        }
        inline.sort_by(f64::total_cmp);
        threaded.sort_by(f64::total_cmp);
        let median = THREAD_REPLAYS / 2;
        println!(
            "{name:<26} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>7.2}x",
            inline[0],
            inline[median],
            threaded[0],
            threaded[median],
            inline[median] / threaded[median]
        );
    }
}

/// `serve_mix`'s exact shapes (the benchmark package's
/// `serve::build_programs`, exact half, measured sizes, seed 1), labelled.
fn serve_mix_shapes(m: &AtgpuMachine) -> Vec<(String, Program)> {
    let mut k = 0u64;
    let mut s = || {
        k += 1;
        0x9E37_79B9u64 + 5000 + k
    };
    let mut out = Vec::new();
    let mut add =
        |name: &str, n: u64, built: BuiltProgram| out.push((format!("{name}_{n}"), built.program));
    for n in [256, 512, 1024, 2048, 4096, 8192] {
        add("vecadd", n, VecAdd::new(n, s()).build_sharded(m, 2).unwrap());
        add("saxpy", n, Saxpy::new(n, 3, s()).build(m).unwrap());
        let reduce = Reduce::with_variant(n, s(), ReduceVariant::SequentialAddressing);
        add("reduce_seq", n, reduce.build_sharded(m, 2).unwrap());
        add("dot", n, Dot::new(n, s()).build(m).unwrap());
        add("stencil", n, Stencil::new(n, s()).build_sharded(m, 2, 4).unwrap());
        add("ooc_vecadd", n, OocVecAdd::new(n, n / 4, s()).build_streamed(m).unwrap());
    }
    add("matmul", 64, MatMul::new(64, s()).build_sharded(m, 2).unwrap());
    for side in [32, 64] {
        let w = Transpose::new(side, s(), TransposeVariant::TiledPadded);
        add("transpose_padded", side, w.build(m).unwrap());
    }
    out
}

/// Section 8: what a memo hit and an analytic what-if cost a
/// `serve_mix` client, and where that goes; then what a memo hit costs
/// as the server's cluster grows.
fn quote_path() {
    let (machine, gpu) = (AtgpuMachine::gtx650_like(), GpuSpec::gtx650_like());
    let spec = ClusterSpec::homogeneous(2, gpu);
    let config = ServerConfig {
        sim: SimConfig { device_threads: false, ..SimConfig::default() },
        ..ServerConfig::default()
    };
    let server = CostServer::new(machine, spec.clone(), config.clone()).unwrap();
    // A spec no quote was made for: the second link scaled by a factor
    // unique to `i`, as `serve_mix` makes its what-ifs.
    let mut fresh = 0u64;
    let mut fresh_spec = || {
        fresh += 1;
        let mut s = spec.clone();
        s.host_links[1] = s.host_links[1].scaled(1.0 + fresh as f64 * 0.5f64.powi(44));
        s
    };
    let (keys, verify, quotes) = (Keys::default(), VerifyMemo::new(1024), PriceMemo::new(1024));
    let hit = Quote { total_ms: 1.0, source: PriceSource::Analytic };
    println!("\nquote path (serve_mix shapes, 2 devices), best of {FRONT_REPLAYS}, us per request");
    println!(
        "{:<22} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7} | {:>7} {:>8} {:>7}",
        "program", "memo", "hash", "kept", "verify", "quote", "spec", "what-if", "analysis", "cost"
    );
    let mut sums = [0.0; 9];
    let shapes = serve_mix_shapes(&machine);
    // The server keys its own cluster once; a what-if keys its spec.
    let own_key = keys.spec(&spec, &machine);
    for (name, program) in &shapes {
        assert_eq!(server.price(program).unwrap().source, PriceSource::Analytic);
        let memo = best_us(|| {
            black_box(server.price(program).unwrap());
        });
        let specs: Vec<ClusterSpec> = (0..FRONT_REPLAYS).map(|_| fresh_spec()).collect();
        let mut specs_left = specs.iter();
        let what_if = best_us(|| {
            let q = server.price_what_if(program, specs_left.next().unwrap()).unwrap();
            assert_eq!(black_box(q).source, PriceSource::Analytic);
        });
        // The server keyed `program` first, so `keys` walks it every time;
        // `own` is an unkeyed copy, which `keys` keys first.
        let key = keys.program(program);
        let mut own = program.clone();
        own.edit();
        assert_eq!(keys.program(&own), key);
        verify.verdict(key, || None);
        quotes.quote_with(keys.quote(key, own_key), || Ok::<_, ()>(hit)).unwrap();
        let what_if_spec = fresh_spec();
        let named = program.max_device() + 1;
        let inputs = cost_inputs(program, &machine, named).unwrap();
        let priced = ClusterSpec::homogeneous(named as usize, gpu);
        let row = [
            memo,
            best_us(|| {
                black_box(keys.program(program));
            }),
            best_us(|| {
                black_box(keys.program(&own));
            }),
            best_us(|| drop(black_box(verify.verdict(key, || unreachable!())))),
            best_us(|| {
                let q = keys.quote(key, black_box(own_key));
                black_box(quotes.quote_with(q, || Err(())).unwrap());
            }),
            best_us(|| {
                black_box(keys.spec(&what_if_spec, &machine));
            }),
            what_if,
            best_us(|| drop(black_box(cost_inputs(program, &machine, named).unwrap()))),
            best_us(|| drop(black_box(inputs.price(&priced).unwrap()))),
        ];
        for (sum, us) in sums.iter_mut().zip(row) {
            *sum += us;
        }
        let cells: Vec<String> = row.iter().map(|us| format!("{us:>7.2}")).collect();
        println!("{name:<22} {} | {} {:>8} {}", cells[..6].join(" "), cells[6], cells[7], cells[8]);
    }
    let n = shapes.len() as f64;
    let mean: Vec<String> = sums.iter().map(|s| format!("{:>7.2}", s / n)).collect();
    println!("{:<22} {} | {} {:>8} {}", "mean", mean[..6].join(" "), mean[6], mean[7], mean[8]);

    // The same memo hits on larger homogeneous servers, beside what keying
    // that cluster's spec costs (a what-if on it pays that per request).
    println!("\nmemo hit by server size (means over the {} shapes), us per request", shapes.len());
    println!("{:<8} {:>6} {:>7} {:>7}", "devices", "words", "memo", "spec");
    for devices in [2, 8, 32] {
        let spec = ClusterSpec::homogeneous(devices, gpu);
        let server = CostServer::new(machine, spec.clone(), config.clone()).unwrap();
        let mut words = 0;
        spec.words(|_| words += 1);
        let mut memo = 0.0;
        for (_, program) in &shapes {
            // A copy this server keys first, as a client's own program.
            let mut program = program.clone();
            program.edit();
            let program = &program;
            server.price(program).unwrap();
            memo += best_us(|| {
                let q = server.price(program).unwrap();
                assert_eq!(black_box(q).source, PriceSource::Memo);
            });
        }
        let key_spec = best_us(|| {
            black_box(keys.spec(&spec, &machine));
        });
        println!("{devices:<8} {words:>6} {:>7.2} {key_spec:>7.2}", memo / n);
    }
}
