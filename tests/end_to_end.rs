//! Cross-crate integration tests: IR → analysis → cost model → simulator
//! → verification, spanning every workspace crate through the facade.

use atgpu::algos::{
    dot::Dot, histogram::Histogram, matmul::MatMul, ooc::OocVecAdd, reduce::Reduce, saxpy::Saxpy,
    scan::Scan, stencil::Stencil, transpose::Transpose, transpose::TransposeVariant,
    vecadd::VecAdd, verify_on_sim, Workload,
};
use atgpu::analyze::analyze_cluster_program;
use atgpu::ir::pretty;
use atgpu::model::cost::{evaluate, CostModel};
use atgpu::model::{AtgpuMachine, GpuSpec};
use atgpu::sim::gmem::GlobalMemory;
use atgpu::sim::{Device, ExecMode, SimConfig};

fn machine() -> AtgpuMachine {
    AtgpuMachine::gtx650_like()
}

fn spec() -> GpuSpec {
    GpuSpec { k_prime: 2, h_limit: 8, ..GpuSpec::gtx650_like() }
}

/// Every workload in the library builds, analyses, simulates and
/// verifies on the standard machine.
#[test]
fn whole_library_verifies_end_to_end() {
    let m = machine();
    let s = spec();
    let cfg = SimConfig::default();
    let workloads: Vec<Box<dyn Workload>> = vec![
        Box::new(VecAdd::new(5000, 1)),
        Box::new(Saxpy::new(5000, 3, 2)),
        Box::new(Reduce::new(5000, 3)),
        Box::new(Dot::new(5000, 4)),
        Box::new(Scan::new(5000, 5)),
        Box::new(Stencil::new(5000, 6)),
        Box::new(MatMul::new(64, 7)),
        Box::new(Transpose::new(64, 8, TransposeVariant::Tiled)),
        Box::new(Histogram::new(5000, 32, 9)),
        Box::new(OocVecAdd::new(5000, 1024, 10)),
    ];
    for w in &workloads {
        let report =
            verify_on_sim(w.as_ref(), &m, &s, &cfg).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        assert!(report.total_ms() > 0.0, "{}", w.name());
    }
}

/// The cost pipeline runs for every workload and the ATGPU cost always
/// exceeds the SWGPU baseline by exactly the transfer cost.
#[test]
fn atgpu_minus_swgpu_is_transfer_for_all_workloads() {
    let m = machine();
    let s = spec();
    let workloads: Vec<Box<dyn Workload>> = vec![
        Box::new(VecAdd::new(4096, 1)),
        Box::new(Reduce::new(4096, 2)),
        Box::new(MatMul::new(96, 3)),
        Box::new(Scan::new(4096, 4)),
        Box::new(Stencil::new(4096, 5)),
    ];
    for w in &workloads {
        let built = w.build(&m).unwrap();
        let analysis = analyze_cluster_program(&built.program, &m, 1).unwrap();
        let metrics = analysis.lone_device().unwrap();
        let atgpu = evaluate(CostModel::GpuCost, &m, &s, metrics).unwrap();
        let swgpu = evaluate(CostModel::Swgpu, &m, &s, metrics).unwrap();
        let diff = atgpu.total() - swgpu.total();
        assert!(
            (diff - atgpu.transfer()).abs() < 1e-9,
            "{}: diff {diff} vs transfer {}",
            w.name(),
            atgpu.transfer()
        );
    }
}

/// The perfect-GPU cost (Expression 1) never exceeds the GPU-cost
/// (Expression 2) — the wave factor only stretches time.
#[test]
fn perfect_cost_bounded_by_gpu_cost() {
    let m = machine();
    let s = spec();
    for n in [1000u64, 10_000, 100_000] {
        let w = VecAdd::new(n, 1);
        let built = w.build(&m).unwrap();
        let analysis = analyze_cluster_program(&built.program, &m, 1).unwrap();
        let metrics = analysis.lone_device().unwrap();
        let perfect = evaluate(CostModel::PerfectGpu, &m, &s, metrics).unwrap();
        let gpu = evaluate(CostModel::GpuCost, &m, &s, metrics).unwrap();
        assert!(perfect.total() <= gpu.total() + 1e-12);
    }
}

/// Pseudocode rendering round-trips the paper's notation for a real
/// multi-round program.
#[test]
fn pseudocode_renders_paper_notation() {
    let m = machine();
    let w = Reduce::new(5000, 1);
    let built = w.build(&m).unwrap();
    let text = pretty::render_program(&built.program);
    assert!(text.contains("a W A"), "inward transfer missing:\n{text}");
    assert!(text.contains('⇐'), "global-shared operator missing");
    assert!(text.contains("for all mpρ ∈ MP"), "wrapper loop missing");
    assert!(text.contains("Round 1"), "round labels missing");
    assert!(text.contains("Ans W"), "outward transfer missing:\n{text}");
}

/// The paper's headline ordering: transfer share decreases from vector
/// addition to reduction to matrix multiplication.
#[test]
fn transfer_share_ordering_matches_paper() {
    let m = machine();
    let s = GpuSpec::gtx650_like();
    let cfg = SimConfig::default();
    let va = verify_on_sim(&VecAdd::new(500_000, 1), &m, &s, &cfg).unwrap();
    let red = verify_on_sim(&Reduce::new(500_000, 2), &m, &s, &cfg).unwrap();
    let mm = verify_on_sim(&MatMul::new(256, 3), &m, &s, &cfg).unwrap();
    let (d_va, d_red, d_mm) =
        (va.transfer_proportion(), red.transfer_proportion(), mm.transfer_proportion());
    assert!(d_va > d_red, "vecadd ΔE {d_va} ≤ reduce ΔE {d_red}");
    assert!(d_red > d_mm, "reduce ΔE {d_red} ≤ matmul ΔE {d_mm}");
    // And the vecadd share lands near the paper's 84%.
    assert!((0.7..0.95).contains(&d_va), "vecadd ΔE {d_va} far from paper's 0.84");
}

/// Analyser metrics equal the simulator's transaction counts for
/// statically-exact workloads — the two views of the same IR agree.
#[test]
fn analyzer_io_matches_simulator_io() {
    let m = machine();
    let s = spec();
    let workloads: Vec<Box<dyn Workload>> = vec![
        Box::new(VecAdd::new(10_000, 1)),
        Box::new(MatMul::new(96, 2)),
        Box::new(Transpose::new(96, 3, TransposeVariant::Naive)),
        Box::new(Transpose::new(96, 4, TransposeVariant::Tiled)),
        Box::new(Stencil::new(10_000, 5)),
    ];
    for w in &workloads {
        let built = w.build(&m).unwrap();
        let analysis = analyze_cluster_program(&built.program, &m, 1).unwrap();
        assert!(analysis.io_exact, "{} should be exactly analysable", w.name());
        let q_model = analysis.lone_device().unwrap().total_io_blocks();
        let report = verify_on_sim(w.as_ref(), &m, &s, &SimConfig::default()).unwrap();
        let q_sim: u64 = report.rounds.iter().map(|r| r.kernel_stats.global_txns).sum();
        assert_eq!(q_model, q_sim, "{}: q mismatch", w.name());
    }
}

/// Workloads too large for global memory fail cleanly in analysis and in
/// simulation, and the out-of-core variant succeeds on the same machine.
#[test]
fn oom_failure_and_out_of_core_recovery() {
    let small = AtgpuMachine::new(1 << 16, 32, 12_288, 4096).unwrap();
    let s = spec();
    let w = VecAdd::new(8192, 1);
    let built = w.build(&small).unwrap();
    assert!(analyze_cluster_program(&built.program, &small, 1).is_err());
    assert!(verify_on_sim(&w, &small, &s, &SimConfig::default()).is_err());
    let ooc = OocVecAdd::new(8192, 1024, 1);
    verify_on_sim(&ooc, &small, &s, &SimConfig::default()).unwrap();
}

/// The write-log race detector (`Device::run_kernel(.., true)`) passes
/// every launch of these library workloads at the standard machine's
/// sizes.  Their addresses do not depend on data, so the program's
/// zeroed buffer layout is enough; `engine_differential` race-checks
/// every roster launch on the memory its program stages.
#[test]
fn race_detection_is_quiet_on_library_workloads() {
    let m = machine();
    let device = Device::new(m, spec()).unwrap();
    for w in [&VecAdd::new(5000, 1) as &dyn Workload, &Scan::new(5000, 2), &Stencil::new(5000, 3)] {
        let program = w.build(&m).unwrap().program;
        let (bases, total) = program.buffer_layout(m.b);
        let mut gmem = GlobalMemory::new(bases, total, m.b, m.g).unwrap();
        for (kernel, _) in program.rounds.iter().flat_map(|r| &r.steps).filter_map(|s| s.launch()) {
            device
                .run_kernel(kernel, &mut gmem, ExecMode::Sequential, true)
                .unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        }
    }
}

/// Different seeds change the data but never the metrics (analysis is
/// data-independent for static workloads).
#[test]
fn metrics_are_data_independent() {
    let m = machine();
    let b1 = VecAdd::new(5000, 1).build(&m).unwrap();
    let b2 = VecAdd::new(5000, 999).build(&m).unwrap();
    assert_ne!(b1.inputs, b2.inputs);
    assert_eq!(
        analyze_cluster_program(&b1.program, &m, 1).unwrap().lone_device().unwrap(),
        analyze_cluster_program(&b2.program, &m, 1).unwrap().lone_device().unwrap()
    );
}
