//! Substrate microbenches: simulator throughput (engine and reference
//! interpreter), the issue loop (scheduler cost per instruction), the
//! coalescing analyser, OLS, pretty printing.

use atgpu_algos::{matmul::MatMul, vecadd::VecAdd, Workload};
use atgpu_analyze::analyze_program;
use atgpu_analyze::coalesce::site_transactions;
use atgpu_bench::bench_config;
use atgpu_calibrate::ols::{fit_line, fit_multilinear};
use atgpu_ir::affine::CompiledAddr;
use atgpu_ir::{pretty, AddrExpr, AluOp, DBuf, KernelBuilder, Operand};
use atgpu_model::GpuSpec;
use atgpu_sim::gmem::GlobalMemory;
use atgpu_sim::{run_program, Device, ExecMode, SimConfig};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;

fn bench_simulator_throughput(c: &mut Criterion) {
    let cfg = bench_config();
    let mut g = c.benchmark_group("simulator");
    g.sample_size(10).measurement_time(Duration::from_secs(6));

    let w = VecAdd::new(200_000, 1);
    let built = w.build(&cfg.machine).unwrap();
    g.bench_function("vecadd_200k_sequential", |b| {
        b.iter(|| {
            black_box(
                run_program(
                    &built.program,
                    built.inputs.clone(),
                    &cfg.machine,
                    &cfg.spec,
                    &SimConfig::default(),
                )
                .unwrap(),
            )
        });
    });
    g.bench_function("vecadd_200k_reference", |b| {
        // The retained tree-walking interpreter: the pre-engine baseline
        // the micro-op engine is measured against.
        let sim = SimConfig { use_reference: true, ..SimConfig::default() };
        b.iter(|| {
            black_box(
                run_program(&built.program, built.inputs.clone(), &cfg.machine, &cfg.spec, &sim)
                    .unwrap(),
            )
        });
    });

    let w = MatMul::new(128, 1);
    let built = w.build(&cfg.machine).unwrap();
    g.bench_function("matmul_128_sequential", |b| {
        b.iter(|| {
            black_box(
                run_program(
                    &built.program,
                    built.inputs.clone(),
                    &cfg.machine,
                    &cfg.spec,
                    &SimConfig::default(),
                )
                .unwrap(),
            )
        });
    });
    g.finish();
}

/// The issue loop by itself: a launch of exactly 10⁶ cheap instructions,
/// so **ms per iteration reads as ns per issued instruction**, at
/// residencies `ℓ ∈ {4, 16, 64}` (tournament-tree depth 2, 4, 6) on
/// `k′ ∈ {2, 8}` co-simulated MPs.  Blocks are short (40 000 × 25
/// instructions; `batch_compute` averages 36 per block), so admission and
/// retirement weigh in as they do in practice.
fn bench_issue_loop(c: &mut Criterion) {
    let cfg = bench_config();
    let mut g = c.benchmark_group("issue_loop");
    g.sample_size(10).measurement_time(Duration::from_secs(2));

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
    for ell in [4, 16, 64] {
        for k_prime in [2, 8] {
            let spec = GpuSpec { k_prime, h_limit: ell, ..cfg.spec };
            let device = Device::new(cfg.machine, spec).unwrap();
            g.bench_function(&format!("ell{ell}_k{k_prime}_ns_per_instr"), |bench| {
                bench.iter(|| {
                    let stats =
                        device.run_kernel(&kernel, &mut gmem, ExecMode::Sequential, false).unwrap();
                    assert_eq!((stats.instructions, stats.occupancy), (1_000_000, ell));
                    stats
                });
            });
        }
    }
    g.finish();
}

fn bench_analyzer(c: &mut Criterion) {
    let cfg = bench_config();
    let mut g = c.benchmark_group("analyzer");
    // The analyser is O(program size), independent of n — benchmark it at
    // full paper scale to prove the point.
    let w = VecAdd::new(10_000_000, 1);
    let built = w.build(&cfg.machine).unwrap();
    g.bench_function("vecadd_10M_static_analysis", |b| {
        b.iter(|| black_box(analyze_program(&built.program, &cfg.machine).unwrap()));
    });

    let addr = CompiledAddr::compile(AddrExpr::block() * 32 + AddrExpr::lane() * 2 + 7);
    g.bench_function("coalesce_site_1M_blocks", |b| {
        b.iter(|| black_box(site_transactions(&addr, 13, (1_000_000, 1), &[8, 4], 32)));
    });
    g.finish();
}

fn bench_ols(c: &mut Criterion) {
    let xs: Vec<f64> = (0..256).map(|i| i as f64).collect();
    let ys: Vec<f64> = xs.iter().map(|x| 3.0 + 0.5 * x).collect();
    c.bench_function("ols_fit_line_256", |b| {
        b.iter(|| black_box(fit_line(&xs, &ys).unwrap()));
    });
    let rows: Vec<Vec<f64>> = (0..128).map(|i| vec![1.0, i as f64, (i * i) as f64]).collect();
    let ys: Vec<f64> = rows.iter().map(|r| 1.0 + 2.0 * r[1] + 0.1 * r[2]).collect();
    c.bench_function("ols_multilinear_3x128", |b| {
        b.iter(|| black_box(fit_multilinear(&rows, &ys).unwrap()));
    });
}

fn bench_pretty(c: &mut Criterion) {
    let cfg = bench_config();
    let built = MatMul::new(128, 1).build(&cfg.machine).unwrap();
    c.bench_function("pretty_print_matmul", |b| {
        b.iter(|| black_box(pretty::render_program(&built.program)));
    });
}

criterion_group!(
    engine,
    bench_simulator_throughput,
    bench_issue_loop,
    bench_analyzer,
    bench_ols,
    bench_pretty
);
criterion_main!(engine);
