//! Model-validation tests: the paper's qualitative claims, checked
//! quantitatively against the simulated device at reduced scale.

use atgpu::algos::{
    matmul::MatMul,
    reduce::{Reduce, ReduceVariant},
    vecadd::VecAdd,
    verify_on_sim, Workload,
};
use atgpu::analyze::analyze_cluster_program;
use atgpu::model::cost::{evaluate, CostModel};
use atgpu::model::{occupancy, AlgoMetrics, AtgpuMachine, GpuSpec};
use atgpu::sim::SimConfig;

fn machine() -> AtgpuMachine {
    AtgpuMachine::gtx650_like()
}

fn spec() -> GpuSpec {
    GpuSpec::gtx650_like()
}

/// Min–max normalise a curve (the paper's 0→1 device for comparing
/// growth trends).
fn normalize(ys: &[f64]) -> Vec<f64> {
    let lo = ys.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = ys.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    ys.iter().map(|y| if hi > lo { (y - lo) / (hi - lo) } else { 0.0 }).collect()
}

/// Mean absolute gap between two normalised curves.
fn curve_gap(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum::<f64>() / a.len() as f64
}

/// The paper's Figure 3c argument, made quantitative: the *normalised*
/// ATGPU cost curve is closer to the normalised observed total than the
/// SWGPU curve is, for vector addition.
#[test]
fn atgpu_tracks_vecadd_total_better_than_swgpu() {
    let m = machine();
    let s = spec();
    let mut atgpu = Vec::new();
    let mut swgpu = Vec::new();
    let mut total = Vec::new();
    for i in 1..=6u64 {
        let n = i * 50_000;
        let w = VecAdd::new(n, i);
        let built = w.build(&m).unwrap();
        let analysis = analyze_cluster_program(&built.program, &m, 1).unwrap();
        let metrics = analysis.lone_device().unwrap();
        atgpu.push(evaluate(CostModel::GpuCost, &m, &s, metrics).unwrap().total());
        swgpu.push(evaluate(CostModel::Swgpu, &m, &s, metrics).unwrap().total());
        let report = verify_on_sim(&w, &m, &s, &SimConfig::default()).unwrap();
        total.push(report.total_ms());
    }
    let (na, ns, nt) = (normalize(&atgpu), normalize(&swgpu), normalize(&total));
    let gap_atgpu = curve_gap(&na, &nt);
    let gap_swgpu = curve_gap(&ns, &nt);
    // Both vecadd cost curves are nearly linear in n, so min–max
    // normalisation flattens the distinction (both gaps are tiny); the
    // decisive comparison is the absolute prediction below.
    assert!(gap_atgpu <= gap_swgpu + 0.05, "{gap_atgpu} vs {gap_swgpu}");
    let last = atgpu.len() - 1;
    let abs_err_atgpu = (atgpu[last] - total[last]).abs() / total[last];
    let abs_err_swgpu = (swgpu[last] - total[last]).abs() / total[last];
    assert!(abs_err_atgpu < 0.15, "ATGPU should predict the total within 15%, got {abs_err_atgpu}");
    assert!(
        abs_err_swgpu > 0.5,
        "SWGPU (transfer-blind) should miss most of the total, got {abs_err_swgpu}"
    );
}

/// The SWGPU baseline captures most of the matmul runtime (paper: 89%)
/// but only a small fraction of the vecadd runtime (paper: 16%).
#[test]
fn swgpu_capture_ordering() {
    let m = machine();
    let s = spec();
    let cfg = SimConfig::default();
    let va = verify_on_sim(&VecAdd::new(500_000, 1), &m, &s, &cfg).unwrap();
    let mm = verify_on_sim(&MatMul::new(256, 2), &m, &s, &cfg).unwrap();
    let capture_va = va.kernel_ms() / va.total_ms();
    let capture_mm = mm.kernel_ms() / mm.total_ms();
    assert!(capture_va < 0.35, "vecadd kernel share {capture_va} should be small");
    assert!(capture_mm > 0.6, "matmul kernel share {capture_mm} should dominate");
}

/// Occupancy staircase: the observed kernel time is non-increasing as
/// the hardware residency limit H grows (more latency hiding), matching
/// the model's wave factor direction.
#[test]
fn occupancy_improves_kernel_time() {
    let m = machine();
    let w = VecAdd::new(200_000, 1);
    let mut prev = f64::INFINITY;
    for h in [1u64, 2, 4, 16] {
        let s = GpuSpec { h_limit: h, ..spec() };
        let report = verify_on_sim(&w, &m, &s, &SimConfig::default()).unwrap();
        let k = report.kernel_ms();
        assert!(
            k <= prev * 1.02,
            "kernel time should not grow with H: H={h} gave {k} after {prev}"
        );
        prev = k;
    }
    // ℓ follows the model formula.
    assert_eq!(occupancy(&m, 96, 1), 1);
    assert_eq!(occupancy(&m, 96, 16), 16);
}

/// A stated bound `O(f(n, b))` on one quantity of a program's metrics.
type Bound = fn(f64, f64) -> f64;

/// One quantity of a program's metrics, by name.
type Quantity = (&'static str, fn(&AlgoMetrics) -> u64);

/// The quantities a workload states bounds on, in the order it states
/// them.
const QUANTITIES: [Quantity; 6] = [
    ("rounds", AlgoMetrics::num_rounds),
    ("time", AlgoMetrics::total_time_ops),
    ("io", AlgoMetrics::total_io_blocks),
    ("global_space", AlgoMetrics::peak_global_words),
    ("shared_space", AlgoMetrics::peak_shared_words),
    ("transfer", AlgoMetrics::total_transfer_words),
];

/// `max(1, log_b x)`: a logarithm clamped so that `O(log n)` stays
/// positive at small `n`.
fn log_b(x: f64, b: f64) -> f64 {
    (x.ln() / b.ln()).max(1.0)
}

/// Paper bounds: the analyser's exact counts stay within a constant of
/// every stated asymptotic bound as n grows.  Each workload states one
/// bound per entry of [`QUANTITIES`].
#[test]
fn stated_bounds_hold_for_paper_workloads() {
    let m = machine();
    let check = |mk: &dyn Fn(u64) -> Box<dyn Workload>, ns: &[u64], bounds: [Bound; 6]| {
        let runs: Vec<(f64, AlgoMetrics)> = ns
            .iter()
            .map(|&n| {
                let built = mk(n).build(&m).unwrap();
                let a = analyze_cluster_program(&built.program, &m, 1).unwrap();
                (n as f64, a.lone_device().unwrap().clone())
            })
            .collect();
        for ((quantity, observed), bound) in QUANTITIES.iter().zip(bounds) {
            let mut c = 0.0f64;
            for (n, metrics) in &runs {
                let stated = bound(*n, m.b as f64);
                assert!(stated > 0.0, "{}: degenerate {quantity} bound", mk(ns[0]).name());
                c = c.max(observed(metrics) as f64 / stated);
            }
            assert!(c < 64.0, "{}: constant {c} too large for {quantity}", mk(ns[0]).name());
        }
    };
    check(
        &|n| Box::new(VecAdd::new(n, 1)),
        &[1 << 12, 1 << 14, 1 << 16],
        [|_, _| 1.0, |_, _| 1.0, |n, b| (n / b).ceil(), |n, _| n, |_, b| b, |n, _| n],
    );
    // R = O(log_b n), time O(log b · log_b n), I/O O(n/b), space O(n) and
    // O(b), transfer O(n).
    check(
        &|n| Box::new(Reduce::new(n, 1)),
        &[1 << 12, 1 << 14, 1 << 16],
        [
            log_b,
            |n, b| b.log2().max(1.0) * log_b(n, b),
            |n, b| n / b * 2.2,
            |n, _| n * 1.2,
            |_, b| b,
            |n, _| n + 1.0,
        ],
    );
    check(
        &|n| Box::new(MatMul::new(n, 1)),
        &[64, 128, 256],
        [
            |_, _| 1.0,
            |n, b| n * b,
            |n, b| (n / b).powi(2) * (n + b),
            |n, _| n * n,
            |_, b| b * b,
            |n, _| n * n,
        ],
    );
}

/// The divergent interleaved-modulo kernel is measurably slower than the
/// sequential-addressing refinement on the simulator — Harris's
/// optimisation step, observable in our substrate.
#[test]
fn reduction_variants_rank_correctly() {
    let m = machine();
    let s = spec();
    let cfg = SimConfig::default();
    let n = 1 << 18;
    let slow =
        verify_on_sim(&Reduce::with_variant(n, 1, ReduceVariant::InterleavedModulo), &m, &s, &cfg)
            .unwrap();
    let fast = verify_on_sim(
        &Reduce::with_variant(n, 1, ReduceVariant::SequentialAddressing),
        &m,
        &s,
        &cfg,
    )
    .unwrap();
    assert!(
        slow.kernel_ms() > fast.kernel_ms() * 1.2,
        "interleaved {} should clearly exceed sequential {}",
        slow.kernel_ms(),
        fast.kernel_ms()
    );
}

/// ΔT tracks ΔE across all three paper workloads at moderate sizes —
/// the Figure 6 claim.
#[test]
fn predicted_deltas_track_observed() {
    let m = machine();
    let s = spec();
    let cases: Vec<(Box<dyn Workload>, f64)> = vec![
        (Box::new(VecAdd::new(500_000, 1)), 0.05),
        (Box::new(Reduce::new(1 << 19, 2)), 0.25),
        (Box::new(MatMul::new(256, 3)), 0.25),
    ];
    for (w, budget) in cases {
        let built = w.build(&m).unwrap();
        let analysis = analyze_cluster_program(&built.program, &m, 1).unwrap();
        let metrics = analysis.lone_device().unwrap();
        let cost = evaluate(CostModel::GpuCost, &m, &s, metrics).unwrap();
        let report = verify_on_sim(w.as_ref(), &m, &s, &SimConfig::default()).unwrap();
        let gap = (cost.transfer_proportion() - report.transfer_proportion()).abs();
        assert!(gap < budget, "{}: |ΔT−ΔE| = {gap} over budget {budget}", w.name());
    }
}
