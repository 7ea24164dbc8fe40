//! What the IR validator refuses never runs, and is refused with the
//! validator's own error.
//!
//! A kernel the validator refuses never reaches the lowering or an
//! executor.  Each launch door — a program run, `Device::run_kernel` with
//! and without race detection, and the reference interpreter — answers
//! `SimError::Invalid` carrying exactly the error `validate_program`
//! gives for the same launch, instead of indexing out of the loop
//! counters or the buffer bases, or timing a kernel the model does not
//! define.
//!
//! A program forged past the builder through `Program::edit` meets the
//! same one rule: the simulator's two program doors and the analyser's
//! two answer exactly what `validate_program` says of it, instead of
//! running or pricing a shape the model does not define.

use atgpu_analyze::{analyze_cluster_program, predict, AnalyzeError};
use atgpu_ir::validate::validate_program;
use atgpu_ir::{
    AddrExpr, AluOp, DBuf, HBuf, HostStep, IrError, Kernel, KernelBuilder, Operand, Program,
    ProgramBody, ProgramBuilder, Shard,
};
use atgpu_model::{AtgpuMachine, ClusterSpec, GpuSpec};
use atgpu_sim::gmem::GlobalMemory;
use atgpu_sim::{
    run_cluster_program, run_program, Device, EngineSel, ExecMode, SimConfig, SimError,
};

fn machine() -> AtgpuMachine {
    AtgpuMachine::new(1 << 14, 32, 12_288, 1 << 20).unwrap()
}

fn spec() -> GpuSpec {
    GpuSpec { k_prime: 2, h_limit: 8, ..GpuSpec::gtx650_like() }
}

/// One kernel per refusal: nested past the loop-counter stack, naming an
/// unallocated buffer, writing a register past the file, reading a loop
/// variable outside any loop, and launching no block.
fn refused() -> Vec<Kernel> {
    let mut deep = KernelBuilder::new("deep", 2, 32);
    fn nest(kb: &mut KernelBuilder, levels: u32) {
        if levels == 0 {
            kb.mov(0, Operand::Imm(1));
        } else {
            kb.repeat(1, |kb| nest(kb, levels - 1));
        }
    }
    nest(&mut deep, 6);
    let mut unallocated = KernelBuilder::new("unallocated", 2, 32);
    unallocated.glb_to_shr(AddrExpr::lane(), DBuf(99), AddrExpr::lane());
    let mut r200 = KernelBuilder::new("r200", 2, 32);
    r200.mov(200, Operand::Imm(1));
    let mut loop_var = KernelBuilder::new("loop_var", 2, 32);
    loop_var.mov(0, Operand::LoopVar(3));
    let mut empty = KernelBuilder::new("empty", 0, 32);
    empty.mov(0, Operand::Imm(1));
    [deep, unallocated, r200, loop_var, empty].map(KernelBuilder::build).into()
}

/// A one-buffer program whose one round launches `kernel`.
fn program(kernel: Kernel) -> Program {
    let mut pb = ProgramBuilder::new("refused");
    pb.device_alloc("a", 64);
    pb.begin_round();
    pb.launch(KernelBuilder::new("placeholder", 1, 0).build());
    let mut p = pb.build().unwrap();
    p.edit().rounds[0].steps = vec![HostStep::Launch(kernel)];
    p
}

/// What every door must answer for `kernel`: the validator's own error.
fn expected(kernel: &Kernel) -> SimError {
    let error: IrError = validate_program(&program(kernel.clone())).unwrap_err();
    SimError::Invalid { error }
}

#[test]
fn run_program_refuses_what_the_validator_refuses() {
    for kernel in refused() {
        let want = expected(&kernel);
        let got = run_program(&program(kernel), vec![], &machine(), &spec(), &SimConfig::default());
        assert_eq!(got.unwrap_err(), want);
    }
}

#[test]
fn device_launches_refuse_what_the_validator_refuses() {
    let m = machine();
    let device = Device::new(m, spec()).unwrap();
    for kernel in refused() {
        let want = expected(&kernel);
        let (bases, words) = program(kernel.clone()).buffer_layout(m.b);
        let mut gmem = GlobalMemory::new(bases, words, m.b, m.g).unwrap();
        for detect_races in [false, true] {
            let got = device.run_kernel(&kernel, &mut gmem, ExecMode::Sequential, detect_races);
            assert_eq!(got.unwrap_err(), want, "{} races={detect_races}", kernel.name);
        }
        let got = device.run_kernel_with(&kernel, &mut gmem, false, EngineSel::Reference);
        assert_eq!(got.unwrap_err(), want, "{} on the reference", kernel.name);
    }
    // A refused kernel takes no cache entry.
    let cache = device.stats().cache;
    assert_eq!((cache.hits, cache.misses, cache.entries), (0, 0, 0));
}

/// `A` (128 words) → `a`; a sharded launch adds 1 to each of `a`'s four
/// 32-word blocks, two shards of device 0; `a[..120]` → `C`.  `c` is a
/// 120-word buffer whose slot pads it to 128 words.
fn sharded_increment() -> Program {
    let mut pb = ProgramBuilder::new("increment");
    let (h, o) = (pb.host_input("A", 128), pb.host_output("C", 120));
    let (a, _c) = (pb.device_alloc("a", 128), pb.device_alloc("c", 120));
    let mut kb = KernelBuilder::new("inc", 4, 32);
    let g = AddrExpr::block() * 32 + AddrExpr::lane();
    kb.glb_to_shr(AddrExpr::lane(), a, g.clone());
    kb.ld_shr(0, AddrExpr::lane());
    kb.alu(AluOp::Add, 0, Operand::Reg(0), Operand::Imm(1));
    kb.st_shr(AddrExpr::lane(), Operand::Reg(0));
    kb.shr_to_glb(a, g, AddrExpr::lane());
    let shards = vec![Shard { device: 0, start: 0, end: 2 }, Shard { device: 0, start: 2, end: 4 }];
    pb.begin_round();
    pb.transfer_in(h, a, 128);
    pb.launch_sharded(kb.build(), shards);
    pb.transfer_out(a, o, 120);
    pb.build().unwrap()
}

/// A name, an edit the builder would refuse, and the refusal it draws.
type Forgery = (&'static str, fn(&mut ProgramBody), fn(&IrError) -> bool);

/// The round's steps: `[in, launch, out]` as built.
fn steps(p: &mut ProgramBody) -> &mut Vec<HostStep> {
    &mut p.rounds[0].steps
}

fn shards(p: &mut ProgramBody) -> &mut Vec<Shard> {
    match &mut steps(p)[1] {
        HostStep::LaunchSharded { shards, .. } => shards,
        other => panic!("step 1 is the sharded launch, not {other:?}"),
    }
}

fn upload(p: &mut ProgramBody) -> &mut HostStep {
    &mut steps(p)[0]
}

/// One forgery per rule of the program validator the simulator used to
/// re-state in part or not at all, with the refusal it must draw.
fn forgeries() -> [Forgery; 10] {
    [
        (
            "shard plan past the grid",
            |p| shards(p)[1].end = 6,
            |e| matches!(e, IrError::BadShardPlan { .. }),
        ),
        (
            "overlapping shards",
            |p| shards(p)[1].start = 1,
            |e| matches!(e, IrError::BadShardPlan { .. }),
        ),
        (
            "uncovered blocks",
            |p| shards(p)[1].start = 3,
            |e| matches!(e, IrError::BadShardPlan { .. }),
        ),
        (
            "two launches in a round",
            |p| {
                let kernel = steps(p)[1].launch().map(|(k, _)| k.clone()).unwrap();
                steps(p).insert(2, HostStep::Launch(kernel));
            },
            |e| matches!(e, IrError::MultipleLaunches { round: 0 }),
        ),
        (
            "transfer-in after the launch",
            |p| steps(p).swap(0, 1),
            |e| matches!(e, IrError::StepOrder { round: 0, .. }),
        ),
        ("no rounds", |p| p.rounds.clear(), |e| matches!(e, IrError::EmptyProgram)),
        (
            "transfer past a host buffer",
            |p| {
                if let HostStep::TransferIn { host_off, .. } = upload(p) {
                    *host_off = 8;
                }
            },
            |e| matches!(e, IrError::TransferOutOfBounds { end: 136, size: 128, .. }),
        ),
        (
            "transfer into a device buffer's padding",
            |p| {
                if let HostStep::TransferIn { dev, .. } = upload(p) {
                    *dev = DBuf(1);
                }
            },
            |e| matches!(e, IrError::TransferOutOfBounds { end: 128, size: 120, .. }),
        ),
        (
            "TransferOut into an input buffer",
            |p| {
                if let HostStep::TransferOut { host, .. } = &mut steps(p)[2] {
                    *host = HBuf(0);
                }
            },
            |e| matches!(e, IrError::HostBufRole { .. }),
        ),
        (
            "stream 99",
            |p| {
                if let HostStep::TransferIn { stream, .. } = upload(p) {
                    *stream = 99;
                }
            },
            |e| matches!(e, IrError::StreamOutOfRange { stream: 99, round: 0 }),
        ),
    ]
}

/// Every forged program gets the validator's own error from both
/// simulator doors, the analyser and `predict` — and the unforged
/// program runs on both doors.
#[test]
fn forged_programs_get_the_validators_error_at_every_door() {
    let (m, cluster) = (machine(), ClusterSpec::homogeneous(2, spec()));
    let cfg = SimConfig::default();
    let input: Vec<i64> = (0..128).collect();
    let base = sharded_increment();
    let want: Vec<i64> = (1..=120).collect();
    let on_cluster = run_cluster_program(&base, vec![input.clone()], &m, &cluster, &cfg).unwrap();
    assert_eq!(on_cluster.output(HBuf(1)), want);
    let alone = run_program(&base, vec![input.clone()], &m, &spec(), &cfg).unwrap();
    assert_eq!(alone.output(HBuf(1)), want);

    for (what, forge, rule) in forgeries() {
        let mut forged = base.clone();
        forge(forged.edit());
        let error = validate_program(&forged).unwrap_err();
        assert!(rule(&error), "{what}: the validator says {error:?}");
        assert_eq!(forged.check(), Err(error.clone()), "{what}");
        let invalid = SimError::Invalid { error: error.clone() };
        let got = run_cluster_program(&forged, vec![input.clone()], &m, &cluster, &cfg);
        assert_eq!(got.unwrap_err(), invalid, "{what}: run_cluster_program");
        let got = run_program(&forged, vec![input.clone()], &m, &spec(), &cfg);
        assert_eq!(got.unwrap_err(), invalid, "{what}: run_program");
        let refused = AnalyzeError::Ir(error);
        let got = analyze_cluster_program(&forged, &m, 2);
        assert_eq!(got.unwrap_err(), refused, "{what}: analyze_cluster_program");
        assert_eq!(predict(&forged, &m, &cluster).unwrap_err(), refused, "{what}: predict");
    }
}
