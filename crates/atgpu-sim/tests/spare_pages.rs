//! A run's memory outlives it as pages, never as state.
//!
//! Replicas and host outputs come from `atgpu_sim::gmem::zeroed`, which
//! hands out the buffers finished runs gave back and re-zeroes only the
//! chunks whose provenance tag says they changed.  So a write path that
//! forgot to mark its chunks would leak one run's words into the next
//! run's "zero-initialised" memory.  Here a poison program writes
//! non-zero words over large replicas and a host output through every
//! write path — row and register-addressed stores written through, the
//! logged merge under a fault plan and under the launch-level race
//! detector, the recovery replay of a lost device, peer copies and the
//! same-device fold, `GlobalMemory::write` — and programs that read
//! memory nobody wrote must then report host data, rounds and
//! `device_stats` bit-equal to their runs before any poison.
//!
//! This file holds a single test: the spare list is process-wide, and a
//! concurrent test could take the poisoned buffers first.

use atgpu_ir::{AddrExpr, AluOp, DBuf, HBuf, Kernel, KernelBuilder, Operand, Program};
use atgpu_ir::{ProgramBuilder, Shard};
use atgpu_model::ClusterSpec;
use atgpu_sim::gmem::GlobalMemory;
use atgpu_sim::{even_shards, run_cluster_program, Cluster, EngineSel};
use atgpu_sim::{ClusterSimReport, FaultEvent, FaultPlan, SimConfig};
use common::{machine, spec};

mod common;

/// Words of each buffer: eight provenance chunks.
const N: u64 = 8 * atgpu_sim::gmem::CHUNK_WORDS as u64;
/// Device buffers: the state `s` and a buffer `z` only the poison writes.
const S: DBuf = DBuf(0);
const Z: DBuf = DBuf(1);
/// Host buffers: the input `A` and the outputs `C` and `D`.
const A: HBuf = HBuf(0);
const C: HBuf = HBuf(1);
const D: HBuf = HBuf(2);

/// The layout every program here shares, so that each run's replicas
/// and output are the buffers the previous run gave back.
fn builder(name: &str) -> ProgramBuilder {
    let mut pb = ProgramBuilder::new(name);
    assert_eq!((pb.host_input("A", N), pb.host_output("C", N)), (A, C));
    assert_eq!(pb.host_output("D", N), D);
    assert_eq!((pb.device_alloc("s", N), pb.device_alloc("z", N)), (S, Z));
    pb
}

/// `to[g] = from[g] + add` over `[0, N)`, one row per block.
fn add_kernel(from: DBuf, add: Option<DBuf>, to: DBuf) -> Kernel {
    let b = machine().b as i64;
    let mut kb = KernelBuilder::new("add", N / b as u64, 2 * b as u64);
    let g = AddrExpr::block() * b + AddrExpr::lane();
    kb.glb_to_shr(AddrExpr::lane(), from, g.clone());
    kb.ld_shr(0, AddrExpr::lane());
    match add {
        Some(buf) => {
            kb.glb_to_shr(AddrExpr::lane() + b, buf, g.clone());
            kb.ld_shr(1, AddrExpr::lane() + b);
            kb.alu(AluOp::Add, 0, Operand::Reg(0), Operand::Reg(1));
        }
        None => {
            kb.alu(AluOp::Add, 0, Operand::Reg(0), Operand::Imm(1000));
        }
    }
    kb.st_shr(AddrExpr::lane(), Operand::Reg(0));
    kb.shr_to_glb(to, g, AddrExpr::lane());
    kb.build()
}

/// `z[a] = 2·z[a] + 1` at a register-held address `a = 64·block +
/// 16·lane`: lanes spread across each block's 64 words.
fn register_store_kernel() -> Kernel {
    let mut kb = KernelBuilder::new("spread", N / 64, machine().b);
    kb.alu(AluOp::Mul, 1, Operand::Block, Operand::Imm(64));
    kb.alu(AluOp::Mul, 2, Operand::Lane, Operand::Imm(16));
    kb.alu(AluOp::Add, 1, Operand::Reg(1), Operand::Reg(2));
    kb.glb_to_shr(AddrExpr::lane(), Z, AddrExpr::reg(1));
    kb.ld_shr(0, AddrExpr::lane());
    kb.alu(AluOp::Mul, 0, Operand::Reg(0), Operand::Imm(2));
    kb.alu(AluOp::Add, 0, Operand::Reg(0), Operand::Imm(1));
    kb.st_shr(AddrExpr::lane(), Operand::Reg(0));
    kb.shr_to_glb(Z, AddrExpr::reg(1), AddrExpr::lane());
    kb.build()
}

/// Three rounds on two devices that leave non-zero words in every chunk
/// of both replicas and of the host output: `A` up to both devices and
/// `z = s + 1000` by row stores; a register-addressed pass over `z`, the
/// halves of `z` swapped across the devices and `z` down to `C`; and the
/// first round again.
fn poison() -> Program {
    let mut pb = builder("poison");
    let half = N / 2;
    for round in 0..3 {
        pb.begin_round();
        if round == 1 {
            pb.launch_sharded(register_store_kernel(), even_shards(N / 64, 2));
            pb.transfer_peer(0, 1, Z, 0, half, half);
            pb.transfer_peer(1, 0, Z, half, 0, half);
            pb.transfer_out_from(0, Z, 0, C, 0, N);
            pb.transfer_out_from(1, Z, 0, D, 0, N);
        } else {
            for d in 0..2 {
                pb.transfer_in_to(d, A, 0, S, 0, N);
            }
            pb.launch_sharded(add_kernel(S, None, Z), even_shards(N / machine().b, 2));
        }
    }
    pb.build().unwrap()
}

/// A program that reads memory nobody wrote, every word of it, without
/// trusting a tag: slab `d` of `A` up to device `d`; on device 0 alone
/// `s += z`; on device 1 alone `z += s`; device 1's `z` over device 0's;
/// on device 0 `s += z` again, and `s` down to `C`.  So `C` is `A` plus
/// every word both replicas started with, and `D` is never written.
fn reader() -> Program {
    let mut pb = builder("reader");
    let (half, blocks) = (N / 2, N / machine().b);
    let on = |device| vec![Shard { device, start: 0, end: blocks }];
    pb.begin_round();
    for d in 0..2 {
        let off = u64::from(d) * half;
        pb.transfer_in_to(d, A, off, S, off, half);
    }
    pb.launch_sharded(add_kernel(S, Some(Z), S), on(0));
    pb.begin_round();
    pb.launch_sharded(add_kernel(S, Some(Z), Z), on(1));
    pb.transfer_peer(1, 0, Z, 0, 0, N);
    pb.begin_round();
    pb.launch_sharded(add_kernel(S, Some(Z), S), on(0));
    pb.transfer_out_from(0, S, 0, C, 0, N);
    pb.build().unwrap()
}

fn input() -> Vec<i64> {
    (0..N as i64).map(|w| w % 251 + 1).collect()
}

fn cluster() -> ClusterSpec {
    ClusterSpec::homogeneous(2, spec())
}

fn run(program: &Program, cfg: &SimConfig) -> ClusterSimReport {
    run_cluster_program(program, vec![input()], &machine(), &cluster(), cfg).unwrap()
}

/// A plan whose one event changes no number: the launches keep write
/// logs and merge them block by block through `GlobalMemory::write`.
fn logged() -> FaultPlan {
    let mut plan = FaultPlan::default();
    plan.push(FaultEvent::Straggler { device: 0, clock_factor: 1.0 });
    plan
}

/// Device 1 lost at the second round: its words are replayed onto
/// device 0, and the peer copies between the two fold onto device 0.
fn lost() -> FaultPlan {
    let mut plan = FaultPlan::default();
    plan.push(FaultEvent::DeviceDown { device: 1, at_round: 1 });
    plan
}

/// A replica-sized heap with the input staged in `s`.
fn heap() -> GlobalMemory {
    let (bases, total) = reader().buffer_layout(machine().b);
    let mut g = GlobalMemory::new(bases, total, machine().b, machine().g).unwrap();
    g.copy_in(0, &input());
    g
}

/// Everything a reader's run reports.
type Seen = (Vec<Vec<i64>>, String, String);

fn seen(report: &ClusterSimReport) -> Seen {
    let host = [A, C, D].iter().map(|&h| report.host.buf(h).to_vec()).collect();
    (host, format!("{:?}", report.rounds), format!("{:?}", report.device_stats))
}

#[test]
fn a_run_reads_zeros_wherever_an_earlier_run_wrote() {
    let configs = [
        SimConfig { device_threads: false, ..SimConfig::default() },
        SimConfig { device_threads: true, ..SimConfig::default() },
        SimConfig { fault: logged(), ..SimConfig::default() },
    ];
    let readers = || configs.iter().map(|cfg| seen(&run(&reader(), cfg))).collect::<Vec<_>>();
    let before = readers();
    // The readers' answers are the zero-initialised ones, not just equal.
    for (host, _, _) in &before {
        assert_eq!((&host[1], &host[2]), (&input(), &vec![0; N as usize]));
    }

    let detector = Cluster::new(machine(), cluster()).unwrap();
    let shards: Vec<Shard> = even_shards(N / machine().b, 2);
    type Poison<'a> = Box<dyn Fn() + 'a>;
    let poisons: [(&str, Poison<'_>); 6] = [
        ("written-through stores", Box::new(|| _ = run(&poison(), &configs[0]))),
        ("threaded stores", Box::new(|| _ = run(&poison(), &configs[1]))),
        ("logged merge", Box::new(|| _ = run(&poison(), &configs[2]))),
        (
            "a lost device",
            Box::new(|| _ = run(&poison(), &SimConfig { fault: lost(), ..configs[0].clone() })),
        ),
        (
            "the race detector's merge",
            Box::new(move || {
                let mut g = heap();
                let kernel = add_kernel(S, None, Z);
                detector
                    .run_sharded_kernel(&kernel, &mut g, &shards, true, EngineSel::MicroOp)
                    .unwrap();
                assert!(g.words()[N as usize..].iter().all(|&w| w > 0));
            }),
        ),
        (
            "GlobalMemory::write",
            Box::new(|| {
                let mut g = heap();
                for a in (N..2 * N).step_by(97) {
                    assert!(g.write(a as i64, -7));
                }
            }),
        ),
    ];
    for (what, poison) in &poisons {
        poison();
        assert_eq!(readers(), before, "after the poison of {what}");
    }
}
