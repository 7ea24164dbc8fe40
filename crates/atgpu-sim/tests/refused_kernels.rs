//! A kernel the IR validator refuses never reaches the lowering or an
//! executor.  Each launch door — a program run, `Device::run_kernel` with
//! and without race detection, and the reference interpreter — answers
//! `SimError::InvalidKernel` carrying exactly the error
//! `validate_program` gives for the same launch, instead of indexing out
//! of the loop counters or the buffer bases, or timing a kernel the model
//! does not define.

use atgpu_ir::validate::validate_program;
use atgpu_ir::{
    AddrExpr, DBuf, HostStep, IrError, Kernel, KernelBuilder, Operand, Program, ProgramBuilder,
};
use atgpu_model::{AtgpuMachine, GpuSpec};
use atgpu_sim::gmem::GlobalMemory;
use atgpu_sim::{run_program, Device, EngineSel, ExecMode, SimConfig, SimError};

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
    SimError::InvalidKernel { error }
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
