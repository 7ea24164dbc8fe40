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
//!
//! The device-level comparison also takes every launch of every
//! `atgpu_algos::roster()` × plan cell as input, on the memory its
//! program stages — a program run always executes the micro-op engine,
//! so this is where the library's own kernels meet the reference — and
//! the write-log race detector checks every such launch.

use atgpu_algos::roster::{asym_pair, roster};
use atgpu_algos::workload::{test_machine, test_spec};
use atgpu_algos::BuiltProgram;
use atgpu_ir::{AddrExpr, AluOp, DBuf, HBuf, HostStep, Kernel, KernelBuilder, Operand, PredExpr};
use atgpu_model::{AtgpuMachine, ClusterSpec, GpuSpec};
use atgpu_sim::engine::{BlockExec, BlockSim, Scratch};
use atgpu_sim::gmem::GlobalMemory;
use atgpu_sim::uop::CompiledKernel;
use atgpu_sim::warp::{GmemAccess, StepEvent, WarpExec};
use atgpu_sim::{apply_write_log, Cluster, Device, EngineSel, ExecMode, HostData, SimError};
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
/// whole grid then merged in block order — each run starting from a copy
/// of `image`.
fn on_device(device: &Device, kernel: &Kernel, image: &GlobalMemory) -> Result<(), String> {
    let m = device.machine();
    for logged in [false, true] {
        let run = |engine: EngineSel| {
            let mut g = GlobalMemory::new(image.bases().to_vec(), image.len(), m.b, m.g).unwrap();
            g.copy_in(0, image.words());
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
            (Ok(se), Ok(sr)) if se != sr => {
                return Err(format!("stats mismatch, logged={logged}: {se:?} vs {sr:?}"));
            }
            (Ok(_), Ok(_)) if g_eng.words() != g_ref.words() => {
                return Err(format!("gmem mismatch, logged={logged}"));
            }
            (Ok(_), Ok(_)) => {}
            (Err(e), Err(r)) if e.to_string() == r.to_string() => {}
            (e, r) => return Err(format!("engine {e:?} vs reference {r:?}, logged={logged}")),
        }
    }
    Ok(())
}

/// [`on_device`] for a generated launch, its memory filled from `seed`.
fn on_seeded_device(
    (kernel, machine, (k_prime, h_limit), bases, total): &Launch,
    seed: u64,
) -> Result<(), TestCaseError> {
    let spec = GpuSpec { k_prime: *k_prime, h_limit: *h_limit, ..GpuSpec::gtx650_like() };
    let device = Device::new(*machine, spec).unwrap();
    let mut image = GlobalMemory::new(bases.clone(), *total, machine.b, machine.g).unwrap();
    fill_gmem(&mut image, *total, seed);
    on_device(&device, kernel, &image).map_err(TestCaseError::fail)
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
        on_seeded_device(&rearm_launch(), seed)?;
        on_seeded_device(&gen_launch(seed), seed)?;
    }
}

/// Replays `built` step by step on one replica per device of `cluster`
/// and returns the final host buffers: transfers copy, and a launch's
/// shards run logged against their device's replica, which then merges
/// its log in block order.  The write-log race detector checks every
/// launch's logs of all its shards together, as one launch.  Before a
/// launch changes anything, `check` sees its kernel on every device of
/// its plan with that device's replica as the program staged it.
fn replay(
    built: &BuiltProgram,
    cluster: &Cluster,
    mut check: impl FnMut(&Device, &Kernel, &GlobalMemory) -> Result<(), String>,
) -> Result<Vec<Vec<i64>>, String> {
    let program = &built.program;
    let m = cluster.machine();
    let (bases, total) = program.buffer_layout(m.b);
    let mut gm: Vec<GlobalMemory> = (0..cluster.n_devices())
        .map(|_| GlobalMemory::new(bases.clone(), total, m.b, m.g).unwrap())
        .collect();
    // The detector's merge target: only the race check reads the logs
    // merged across devices, and nothing reads what they write here.
    let mut merged = GlobalMemory::new(bases.clone(), total, m.b, m.g).unwrap();
    let data = HostData::new(program, built.inputs.clone()).unwrap();
    let mut host: Vec<Vec<i64>> =
        (0..program.host_bufs.len()).map(|i| data.buf(HBuf(i as u32)).to_vec()).collect();
    let sim = |e: SimError| e.to_string();
    for step in program.rounds.iter().flat_map(|r| &r.steps) {
        match step {
            HostStep::TransferIn { host: h, host_off, dev, dev_off, words, device, .. } => {
                let g = &mut gm[*device as usize];
                let at = g.span(dev.0, *dev_off, *words).map_err(sim)?;
                g.copy_in(at, &host[h.0 as usize][*host_off as usize..][..*words as usize]);
            }
            HostStep::TransferOut { dev, dev_off, host: h, host_off, words, device, .. } => {
                let g = &gm[*device as usize];
                let at = g.span(dev.0, *dev_off, *words).map_err(sim)?;
                g.copy_out(at, &mut host[h.0 as usize][*host_off as usize..][..*words as usize]);
            }
            HostStep::TransferPeer { src, dst, buf, src_off, dst_off, words } => {
                let from = gm[*src as usize].span(buf.0, *src_off, *words).map_err(sim)?;
                let to = gm[*dst as usize].span(buf.0, *dst_off, *words).map_err(sim)?;
                let mut moved = vec![0; *words as usize];
                gm[*src as usize].copy_out(from, &mut moved);
                gm[*dst as usize].copy_in(to, &moved);
            }
            HostStep::SyncStream { .. } | HostStep::SyncDevice { .. } => {}
            HostStep::Launch(_) | HostStep::LaunchSharded { .. } => {
                let (kernel, shards) = step.launch().expect("a launch step");
                let device = |d: u32| cluster.device(d).expect("a device of the cluster");
                let mut checked = vec![false; gm.len()];
                for s in shards.iter() {
                    let d = s.device as usize;
                    if !std::mem::replace(&mut checked[d], true) {
                        check(device(s.device), kernel, &gm[d])?;
                    }
                }
                let mut logs = vec![Vec::new(); gm.len()];
                for s in shards.iter() {
                    let (d, range) = (s.device as usize, (s.start, s.end));
                    device(s.device)
                        .run_shard(
                            kernel,
                            &gm[d],
                            ExecMode::Sequential,
                            EngineSel::MicroOp,
                            range,
                            &mut logs[d],
                        )
                        .map_err(sim)?;
                }
                apply_write_log(kernel, &mut merged, logs.concat(), true).map_err(sim)?;
                for (g, log) in gm.iter_mut().zip(logs) {
                    apply_write_log(kernel, g, log, false).map_err(sim)?;
                }
            }
        }
    }
    Ok(host)
}

/// Every launch of every roster × plan cell, compared on every device its
/// plan names, on the memory the program staged there.  The replay that
/// stages it must reproduce the host reference, so the compared launches
/// read what a program run's launches read, and it race-checks every
/// launch as the program shards it — histogram's private rows and
/// bitonic's register-addressed scatters included, which the static
/// verifier need not prove.
#[test]
fn engine_matches_reference_on_every_roster_launch() {
    let machine = test_machine();
    let asym = asym_pair(test_spec());
    let cluster = Cluster::new(machine, ClusterSpec::homogeneous(3, test_spec())).unwrap();
    for entry in roster() {
        for (plan_name, plan) in entry.plans(&machine, &asym) {
            let cell = format!("{}/{plan_name}", entry.name);
            let built = entry.workload.build_plan(&machine, plan).unwrap();
            let mut launches = 0;
            let host = replay(&built, &cluster, |device, kernel, image| {
                launches += 1;
                on_device(device, kernel, image).map_err(|e| format!("`{}`: {e}", kernel.name))
            })
            .unwrap_or_else(|e| panic!("{cell}: {e}"));
            assert!(launches > 0, "{cell} compared no launch");
            for (h, want) in built.outputs.iter().zip(entry.workload.expected()) {
                assert_eq!(host[h.0 as usize], want, "{cell}: replayed output");
            }
        }
    }
}
