//! Extension experiments E1–E13 (paper §V future work and stated scope):
//! the runners of [`crate::experiment::EXPERIMENTS`], each returning one
//! [`Section`].  There is no E6: refitting `γ, λ` from simulated
//! microbenchmarks gave back the clock and, within 5 %, the DRAM issue
//! interval — the `GpuSpec` fields `derived_cost_params` reads — and moved
//! no trusted program's kernel term across the 25 % line, so a device's
//! cost parameters have one source, its `GpuSpec`.  There is no E9: the
//! kernel cache changes host time only, which the repo benchmark's
//! `launch_storm` measures.

use crate::experiment::{yes_no, Findings, Section};
use crate::report::markdown_table;
use crate::runner::{
    export_trace, fmt_counts, observe, plan_sweep, rel_err, run_row, span_errors, ExpConfig,
    ExpError, Planner, EVEN,
};
use crate::series::{Figure, Series};
use atgpu_algos::histogram::Histogram;
use atgpu_algos::matmul::MatMul;
use atgpu_algos::ooc::{OocReduce, OocScheme, OocVecAdd};
use atgpu_algos::transpose::{Transpose, TransposeVariant};
use atgpu_algos::vecadd::VecAdd;
use atgpu_algos::Workload;
use atgpu_analyze::{analyze_cluster_program, predict};
use atgpu_model::cost::{evaluate, gpu_kernel_term, CostModel};
use atgpu_model::{occupancy, plan, AtgpuMachine, ClusterSpec, GpuSpec};
use atgpu_sim::{chrome_trace_json, run_program};
use std::fmt::Write as _;
use std::path::Path;

/// E1 — out-of-core partitioning: chunk-size sweep on a machine whose
/// global memory cannot hold the problem, plus the two reduction
/// communication schemes.
pub fn e1_out_of_core(cfg: &ExpConfig) -> Result<Section, ExpError> {
    // A machine with deliberately tiny global memory.
    let machine = AtgpuMachine::new(cfg.machine.p, cfg.machine.b, cfg.machine.m, 1 << 14)?;
    let n = 100_000u64; // 3n ≈ 300k words ≫ G = 16k
    let mut rows = Vec::new();
    for chunk in [512u64, 1024, 2048, 4096] {
        let w = OocVecAdd::new(n, chunk, 1);
        let built = w.build(&machine)?;
        let analysis = analyze_cluster_program(&built.program, &machine, 1)?;
        let metrics = analysis.lone_device()?;
        let cost = evaluate(CostModel::GpuCost, &machine, &cfg.spec, metrics)?;
        let report = run_program(&built.program, built.inputs, &machine, &cfg.spec, &cfg.sim)?;
        rows.push(vec![
            chunk.to_string(),
            w.rounds().to_string(),
            format!("{}", metrics.total_transfer_txns()),
            format!("{:.3}", cost.total()),
            format!("{:.3}", report.total_ms()),
        ]);
    }
    let mut out = String::from("### E1 — out-of-core vector addition (3n ≫ G)\n\n");
    out.push_str(&markdown_table(
        &["chunk (words)", "rounds R", "transfer txns", "predicted cost (ms)", "observed (ms)"],
        &rows,
    ));

    // The two reduction communication schemes.
    let n = 65_536u64;
    let mut rows = Vec::new();
    for (scheme, label) in
        [(OocScheme::HostFinish, "host-finish"), (OocScheme::DeviceFinish, "device-finish")]
    {
        let w = OocReduce::new(n, 4096, machine.b, scheme, 2);
        let built = w.build(&machine)?;
        let analysis = analyze_cluster_program(&built.program, &machine, 1)?;
        let metrics = analysis.lone_device()?;
        let outward: u64 = metrics.rounds.iter().map(|r| r.outward_words).sum();
        let report = run_program(&built.program, built.inputs, &machine, &cfg.spec, &cfg.sim)?;
        rows.push(vec![
            label.to_string(),
            metrics.num_rounds().to_string(),
            outward.to_string(),
            format!("{:.3}", report.total_ms()),
        ]);
    }
    out.push_str("\n### E1 — reduction communication schemes (n = 65536, chunk = 4096)\n\n");
    out.push_str(&markdown_table(
        &["scheme", "rounds R", "outward words", "observed total (ms)"],
        &rows,
    ));
    Ok(Section::new(out, Findings::default()))
}

/// E2 — verify the model on other GPUs: one medium instance of each
/// paper workload on three device specifications.
pub fn e2_other_gpus(cfg: &ExpConfig) -> Result<Section, ExpError> {
    let specs: [(&str, GpuSpec); 3] = [
        ("gtx650-like", GpuSpec::gtx650_like()),
        ("midrange-like", GpuSpec::midrange_like()),
        ("highend-like", GpuSpec::highend_like()),
    ];
    let mut rows = Vec::new();
    for (name, spec) in specs {
        let sub = ExpConfig { spec, ..cfg.clone() };
        let workloads: [(&str, Box<dyn Workload>); 3] = [
            ("vecadd", Box::new(VecAdd::new(400_000, 1))),
            ("reduce", Box::new(atgpu_algos::reduce::Reduce::new(1 << 18, 1))),
            ("matmul", Box::new(atgpu_algos::matmul::MatMul::new(128, 1))),
        ];
        for (wname, w) in workloads {
            let r = run_row(w.as_ref(), &sub)?;
            rows.push(vec![
                name.to_string(),
                wname.to_string(),
                format!("{:.3}", r.total_ms),
                format!("{:.1}%", 100.0 * r.delta_e),
                format!("{:.1}%", 100.0 * r.delta_t),
                format!("{:.1}%", 100.0 * (r.delta_t - r.delta_e).abs()),
            ]);
        }
    }
    let mut out = String::from("### E2 — model accuracy across device specifications\n\n");
    out.push_str(&markdown_table(
        &["device", "workload", "observed (ms)", "ΔE", "ΔT", "|ΔT−ΔE|"],
        &rows,
    ));
    Ok(Section::new(out, Findings::default()))
}

/// E3 — the conflict-free assumption: transpose variants and the
/// data-dependent histogram, model I/O vs measured transactions and
/// conflict serialisation.
pub fn e3_bank_conflicts(cfg: &ExpConfig) -> Result<Section, ExpError> {
    let mut kernels: Vec<(String, Box<dyn Workload>)> = Vec::new();
    for v in [TransposeVariant::Naive, TransposeVariant::Tiled, TransposeVariant::TiledPadded] {
        kernels.push((format!("transpose/{}", v.label()), Box::new(Transpose::new(256, 1, v))));
    }
    kernels.push(("histogram".to_string(), Box::new(Histogram::new(1 << 16, cfg.machine.b, 3))));
    let mut rows = Vec::new();
    for (label, w) in kernels {
        let built = w.build(&cfg.machine)?;
        let analysis = analyze_cluster_program(&built.program, &cfg.machine, 1)?;
        let q_model = analysis.lone_device()?.total_io_blocks();
        let report = run_program(&built.program, built.inputs, &cfg.machine, &cfg.spec, &cfg.sim)?;
        let stats = report.rounds[0].kernel_stats;
        rows.push(vec![
            label,
            q_model.to_string(),
            stats.global_txns.to_string(),
            stats.bank_conflict_cycles.to_string(),
            format!("{:.3}", report.kernel_ms()),
            if analysis.conflict_free { "yes" } else { "no" }.to_string(),
        ]);
    }
    let mut out = String::from("### E3 — coalescing and the bank-conflict-free assumption\n\n");
    out.push_str(&markdown_table(
        &[
            "kernel",
            "q (model)",
            "txns (sim)",
            "conflict cycles (sim)",
            "kernel ms (sim)",
            "statically conflict-free",
        ],
        &rows,
    ));
    Ok(Section::new(out, Findings::default()))
}

/// E4 — occupancy: inflate a kernel's shared footprint so
/// `ℓ = min(⌊M/m⌋, H)` shrinks, and compare the Expression-(2) wave
/// factor against the simulated slowdown.
pub fn e4_occupancy(cfg: &ExpConfig) -> Result<Section, ExpError> {
    let n = 400_000u64;
    let mut rows = Vec::new();
    let mut pred_points = Vec::new();
    let mut obs_points = Vec::new();
    let m = cfg.machine.m;
    for divisor in [16u64, 8, 4, 2, 1] {
        let m_used = m / divisor; // shared words per block
        let w = VecAdd::new(n, 1);
        let mut built = w.build(&cfg.machine)?;
        // Inflate the declared shared footprint (the data layout is
        // untouched; the extra words are simply reserved).
        for round in &mut built.program.edit().rounds {
            for step in &mut round.steps {
                if let atgpu_ir::HostStep::Launch(k) = step {
                    k.shared_words = k.shared_words.max(m_used);
                }
            }
        }
        let analysis = analyze_cluster_program(&built.program, &cfg.machine, 1)?;
        let metrics = analysis.lone_device()?;
        let kernel_cost = evaluate(CostModel::KernelOnly, &cfg.machine, &cfg.spec, metrics)?;
        let report = run_program(&built.program, built.inputs, &cfg.machine, &cfg.spec, &cfg.sim)?;
        let ell = occupancy(&cfg.machine, m_used, cfg.spec.h_limit);
        rows.push(vec![
            m_used.to_string(),
            ell.to_string(),
            format!("{:.3}", kernel_cost.total()),
            format!("{:.3}", report.kernel_ms()),
        ]);
        pred_points.push((m_used as f64, kernel_cost.total()));
        obs_points.push((m_used as f64, report.kernel_ms()));
    }
    let mut out = String::from("### E4 — occupancy sweep (vecadd, inflated shared footprint)\n\n");
    out.push_str(&markdown_table(
        &[
            "shared words m",
            "ℓ = min(⌊M/m⌋,H)",
            "predicted kernel cost (ms)",
            "observed kernel (ms)",
        ],
        &rows,
    ));
    let fig = Figure::new(
        "ext_e4",
        "occupancy: predicted kernel cost vs observed kernel time",
        "shared words per block",
        "ms",
        vec![Series::new("predicted", pred_points), Series::new("observed", obs_points)],
    );
    Ok(Section { markdown: out, figures: vec![fig], findings: Findings::default() })
}

/// E5 — further computational problems: scan, stencil, dot, saxpy, and a
/// (smaller) bitonic sort whose Θ(log² n) rounds stress the σ·R term.
pub fn e5_other_problems(cfg: &ExpConfig) -> Result<Section, ExpError> {
    let workloads: Vec<(&str, Box<dyn Workload>)> = vec![
        ("saxpy", Box::new(atgpu_algos::saxpy::Saxpy::new(400_000, 3, 1))),
        ("dot", Box::new(atgpu_algos::dot::Dot::new(400_000, 1))),
        ("scan", Box::new(atgpu_algos::scan::Scan::new(400_000, 1))),
        ("stencil", Box::new(atgpu_algos::stencil::Stencil::new(400_000, 1))),
        ("gemv (n=512)", Box::new(atgpu_algos::gemv::Gemv::new(512, 1))),
        ("bitonic (n=16384)", Box::new(atgpu_algos::bitonic::BitonicSort::new(16_384, 1))),
    ];
    let mut table = Vec::new();
    for (name, w) in workloads {
        let r = run_row(w.as_ref(), cfg)?;
        table.push(vec![
            name.to_string(),
            format!("{:.3}", r.total_ms),
            format!("{:.3}", r.kernel_ms),
            format!("{:.1}%", 100.0 * r.delta_e),
            format!("{:.1}%", 100.0 * r.delta_t),
            format!("{:.1}%", 100.0 * (r.delta_t - r.delta_e).abs()),
        ]);
    }
    let mut findings = Findings::default();
    findings.num("workloads", table.len() as f64);
    let mut out = String::from("### E5 — further computational problems (n = 400000)\n\n");
    out.push_str(&markdown_table(
        &["workload", "total (ms)", "kernel (ms)", "ΔE", "ΔT", "|ΔT−ΔE|"],
        &table,
    ));
    Ok(Section::new(out, findings))
}

/// E7 — multi-device sharded launches: vector addition split across
/// 1/2/4 devices of a homogeneous cluster, with per-device transfer
/// costs (the per-link `Î·α + I·β` shares) and the cluster cost
/// function's max-over-devices prediction next to the simulated
/// observation.  Transfer dominates vector addition, so doubling the
/// devices roughly halves the total — the regime the peer-link and
/// shard-planner machinery exists for.
pub fn e7_multi_device(cfg: &ExpConfig) -> Result<Section, ExpError> {
    let n: u64 = if cfg.quick() { 1 << 15 } else { 1 << 20 };
    let machine = &cfg.machine;
    let w = VecAdd::new(n, 21);
    let cells = [1, 2, 4].map(|d| (ClusterSpec::homogeneous(d, cfg.spec), &w as &dyn Workload));
    // Model side: the built program itself, analysed per device.
    let sweep = plan_sweep(cfg, &cells, &[EVEN], &|cluster, _, _, program| {
        Ok(predict(program, machine, cluster)?.cost.total_ms)
    })?;

    let mut findings = Findings::default();
    let mut rows = Vec::new();
    let baseline_ms = sweep[0][0].observed_ms();
    for r in sweep.iter().flatten() {
        let devices = r.counts.len();
        let speedup = findings.num(format!("speedup.{devices}dev"), baseline_ms / r.observed_ms());
        let per_dev_xfer: Vec<String> =
            r.report.transfer_ms_per_device().iter().map(|t| format!("{t:.3}")).collect();
        rows.push(vec![
            devices.to_string(),
            format!("{:.3}", r.observed_ms()),
            format!("{:.3}", r.report.kernel_ms()),
            per_dev_xfer.join(" / "),
            format!("{:.3}", r.predicted_ms),
            format!("{speedup:.2}x"),
        ]);
    }

    let mut out =
        format!("### E7 — multi-device sharded vector addition (n = {n}, even block shards)\n\n");
    out.push_str(&markdown_table(
        &[
            "devices",
            "observed total (ms)",
            "observed kernel (ms)",
            "per-device transfer (ms)",
            "predicted total (ms)",
            "speedup",
        ],
        &rows,
    ));
    Ok(Section::new(out, findings))
}

/// One variant of an overlap comparison (E8 §1, E10 §3): a single-device
/// program observed, predicted — analyser metrics + stream schedule
/// through the same chain scheduler the simulator times rounds with —
/// and rendered as its `variant | rounds R | observed | predicted` row.
fn overlap_variant(
    cfg: &ExpConfig,
    label: &str,
    program: &atgpu_ir::Program,
    inputs: &[Vec<i64>],
) -> Result<(atgpu_sim::SimReport, f64, Vec<String>), ExpError> {
    let report = run_program(program, inputs.to_vec(), &cfg.machine, &cfg.spec, &cfg.sim)?;
    let one = ClusterSpec::homogeneous(1, cfg.spec);
    let predicted = predict(program, &cfg.machine, &one)?.cost.total_ms;
    let row = vec![
        label.to_string(),
        program.num_rounds().to_string(),
        format!("{:.3}", report.total_ms()),
        format!("{predicted:.3}"),
    ];
    Ok((report, predicted, row))
}

/// E8 — overlapped copy/compute streams and heterogeneous shards:
///
/// 1. **Overlap efficiency** — the double-buffered streamed ooc-vecadd
///    and streamed sharded matmul against their serial de-streamed
///    forms, observed (simulator stream timelines) next to predicted
///    (`atgpu_analyze::predict` on a one-device cluster);
/// 2. **Heterogeneous planner** — even vs speed-weighted tile-row shards
///    on a mixed-generation 2-device cluster.
pub fn e8_streams(cfg: &ExpConfig) -> Result<Section, ExpError> {
    use atgpu_sim::run_cluster_program;

    let quick = cfg.quick();
    let machine = &cfg.machine;
    let mut out = String::new();
    let mut findings = Findings::default();

    // -- 1a: streamed vs serial out-of-core vecadd -------------------
    let (n, chunk) = if quick { (1u64 << 18, 1u64 << 15) } else { (1 << 20, 1 << 16) };
    let w = OocVecAdd::new(n, chunk, 8);
    let streamed = w.build_streamed(machine)?;
    let serial = w.build(machine)?;
    let (r_serial, pred_serial, row_serial) =
        overlap_variant(cfg, "serial", &serial.program, &serial.inputs)?;
    let (r_streamed, pred_streamed, row_streamed) =
        overlap_variant(cfg, "streamed", &streamed.program, &streamed.inputs)?;

    let obs_speedup = findings.num("overlap.observed", r_serial.total_ms() / r_streamed.total_ms());
    let _ = writeln!(
        out,
        "### E8 — copy/compute overlap: ooc-vecadd (n = {n}, chunk = {chunk}, double-buffered)\n"
    );
    out.push_str(&markdown_table(
        &["variant", "rounds R", "observed (ms)", "predicted (ms)"],
        &[row_serial, row_streamed],
    ));
    let _ = writeln!(
        out,
        "\nOverlap speedup: observed {obs_speedup:.2}x, predicted {:.2}x.\n",
        findings.num("overlap.predicted", pred_serial / pred_streamed)
    );

    // -- 1b: streamed sharded matmul on 2 devices --------------------
    let mm_n = if quick { 256 } else { 512 };
    let mm = MatMul::new(mm_n, 8);
    let devices = 2u32;
    let built = mm.build_sharded_streamed(machine, devices, 2)?;
    let cluster = ClusterSpec::homogeneous(devices as usize, cfg.spec);
    let r_mm_streamed = observe(cfg, &built, &cluster)?;
    let r_mm_serial = run_cluster_program(
        &built.program.destreamed(),
        built.inputs.clone(),
        machine,
        &cluster,
        &cfg.sim,
    )?;
    let _ = writeln!(
        out,
        "### E8 — streamed sharded matmul (n = {mm_n}, {devices} devices, 2-row chunks)\n"
    );
    out.push_str(&markdown_table(
        &["variant", "observed total (ms)", "observed kernel (ms)"],
        &[
            vec![
                "serial shards".into(),
                format!("{:.3}", r_mm_serial.total_ms()),
                format!("{:.3}", r_mm_serial.kernel_ms()),
            ],
            vec![
                "streamed shards".into(),
                format!("{:.3}", r_mm_streamed.total_ms()),
                format!("{:.3}", r_mm_streamed.kernel_ms()),
            ],
        ],
    ));
    let _ = writeln!(
        out,
        "\nOverlap speedup: {:.2}x (compute-heavy, so the upload hides almost fully).\n",
        r_mm_serial.total_ms() / r_mm_streamed.total_ms()
    );

    // -- 2: heterogeneous cluster, even vs weighted shards -----------
    let hn = if quick { 256 } else { 512 };
    let hw = MatMul::new(hn, 17);
    let mut mixed = ClusterSpec::homogeneous(2, cfg.spec);
    mixed.devices[1] = GpuSpec::midrange_like();
    mixed.host_links[1] = mixed.devices[1].host_link();
    let even = hw.build_sharded(machine, 2)?;
    let planned = hw.build_sharded_planned(machine, &mixed)?;
    let r_even = observe(cfg, &even, &mixed)?;
    let r_planned = observe(cfg, &planned, &mixed)?;
    let rows_of = |b: &atgpu_algos::workload::BuiltProgram| -> String {
        let shards = b.program.rounds.iter().find_map(|r| r.shards()).unwrap_or_default();
        fmt_counts(&shards.iter().map(|s| s.blocks()).collect::<Vec<_>>())
    };
    let _ = writeln!(
        out,
        "### E8 — heterogeneous 2-device cluster (gtx650 + midrange), matmul n = {hn}\n"
    );
    out.push_str(&markdown_table(
        &["shard planner", "blocks per device", "observed total (ms)"],
        &[
            vec!["even".into(), rows_of(&even), format!("{:.3}", r_even.total_ms())],
            vec![
                "speed-weighted".into(),
                rows_of(&planned),
                format!("{:.3}", r_planned.total_ms()),
            ],
        ],
    ));
    let _ = writeln!(
        out,
        "\nWeighted-planner speedup on the mixed cluster: {:.2}x.\n",
        findings.num("planner.speedup", r_even.total_ms() / r_planned.total_ms())
    );

    Ok(Section::new(out, findings))
}

/// E10 — the cost-driven pipeline planner, mixed generations and
/// asymmetric links:
///
/// 1. **Planner sweep** — even vs compute-weighted vs cost-driven
///    (pipeline) shard plans across device counts × host-link
///    asymmetries × a transfer-bound (vecadd) and a compute-bound
///    (matmul) workload, observed totals next to the analytic
///    `plan_cost` predictions;
/// 2. **The transfer blind spot** — identical GPUs behind a fast + slow
///    PCIe pair: compute weighting sees a "homogeneous" cluster and
///    splits evenly; the cost-driven planner starves the slow link;
/// 3. **Auto-chunked streaming** — `OocVecAdd::build_planned` derives
///    its double-buffered chunk from the model (no hand tuning) and is
///    measured against its de-streamed serial form;
/// 4. **Per-span timeline trace** — the planned ooc run re-executed with
///    [`atgpu_sim::SimConfig::trace`] on (bit-identical, asserted), each
///    observed span paired with its prediction ([`span_errors`]): a
///    transfer with the link cost its trace records, a kernel with its
///    round's [`gpu_kernel_term`]; the worst per-span error is reported.
///    With `trace` set, the Chrome `trace_event` JSON is written there.
pub fn e10_pipeline_planner(cfg: &ExpConfig, trace: Option<&Path>) -> Result<Section, ExpError> {
    let quick = cfg.quick();
    let machine = &cfg.machine;
    let mut out = String::new();
    let mut findings = Findings::default();

    // Identical devices; the LAST device's host link slowed by 8x in
    // the asymmetric configurations.
    let slow = 8.0;

    // -- 1 + 2: planner sweep -----------------------------------------
    let n_vec: u64 = if quick { 1 << 15 } else { 1 << 20 };
    let mm_n: u64 = if quick { 256 } else { 512 };
    let (vecadd, matmul) = (VecAdd::new(n_vec, 21), MatMul::new(mm_n, 3));
    // (devices, asymmetric links, workload); one compute-bound contrast
    // case is enough.
    let cases: [(usize, bool, &str, &dyn Workload); 5] = [
        (2, false, "vecadd", &vecadd),
        (2, true, "vecadd", &vecadd),
        (2, true, "matmul", &matmul),
        (4, false, "vecadd", &vecadd),
        (4, true, "vecadd", &vecadd),
    ];
    let plans: [(&str, Planner); 3] = [
        EVEN,
        ("weighted", |units, cluster, _, _| plan::weighted_units(units, cluster)),
        ("pipeline", plan::planned_units),
    ];
    let cells = cases.map(|(devices, asym, _, w)| {
        let mut c = ClusterSpec::homogeneous(devices, cfg.spec);
        if asym {
            c.host_links[devices - 1] = c.host_links[devices - 1].scaled(slow);
        }
        (c, w)
    });
    let sweep = plan_sweep(cfg, &cells, &plans, &|cluster, profile, counts, _| {
        Ok(plan::plan_cost(cluster, machine, profile, counts)?)
    })?;
    let mut rows = Vec::new();
    for ((devices, asym, workload, _), cell) in cases.into_iter().zip(&sweep) {
        for r in cell {
            rows.push(vec![
                devices.to_string(),
                if asym { format!("last link /{slow:.0}") } else { "symmetric".into() },
                workload.to_string(),
                r.plan.to_string(),
                fmt_counts(&r.counts),
                format!("{:.3}", r.observed_ms()),
                format!("{:.3}", r.predicted_ms),
                format!("{:.2}x", cell[0].observed_ms() / r.observed_ms()),
            ]);
        }
    }
    let _ = writeln!(
        out,
        "### E10 — planner sweep (vecadd n = {n_vec}, matmul n = {mm_n}; links slowed {slow:.0}x)\n"
    );
    out.push_str(&markdown_table(
        &[
            "devices",
            "links",
            "workload",
            "planner",
            "blocks per device",
            "observed (ms)",
            "predicted (ms)",
            "speedup vs even",
        ],
        &rows,
    ));

    // The acceptance case: 2 devices, asymmetric, vecadd.
    let (weighted, pipeline) = (&sweep[1][1], &sweep[1][2]);
    let gap = rel_err(pipeline.predicted_ms, pipeline.observed_ms());
    let _ = writeln!(
        out,
        "\nPipeline-planner speedup on the link-asymmetric transfer-bound case: \
         {:.2}x over compute-weighted (identical devices, so the weighted planner \
         splits evenly — the transfer blind spot); prediction within {:.1}% of observation.\n",
        findings.num("planner.speedup", weighted.observed_ms() / pipeline.observed_ms()),
        100.0 * findings.num("planner.gap", gap)
    );

    // -- 3: auto-chunked streamed ooc-vecadd --------------------------
    // Paper scale regardless of --quick: the σ amortisation that makes
    // the pipeline pay needs enough rounds to show.
    let n_ooc = 1u64 << 20;
    let w = atgpu_algos::ooc::OocVecAdd::new(n_ooc, machine.b, 8);
    let planned = w.build_planned(machine, &cfg.spec)?;
    let chunk_words = planned.program.rounds.first().map(|r| r.inward().0).unwrap_or(0) / 2;
    let (r_serial, pred_serial_ooc, row_serial) = overlap_variant(
        cfg,
        "serial (de-streamed)",
        &planned.program.destreamed(),
        &planned.inputs,
    )?;
    let (r_planned, pred_planned_ooc, row_planned) =
        overlap_variant(cfg, "planned ping-pong", &planned.program, &planned.inputs)?;
    let _ = writeln!(
        out,
        "### E10 — auto-chunked ooc-vecadd (n = {n_ooc}, solver-derived chunk = {chunk_words} words)\n"
    );
    out.push_str(&markdown_table(
        &["variant", "rounds R", "observed (ms)", "predicted (ms)"],
        &[row_serial, row_planned],
    ));
    let _ = writeln!(
        out,
        "\nAuto-chunk overlap: observed {:.2}x, predicted {:.2}x — no hand-tuned chunk size.\n",
        findings.num("autochunk.observed", r_serial.total_ms() / r_planned.total_ms()),
        findings.num("autochunk.predicted", pred_serial_ooc / pred_planned_ooc)
    );

    // -- 4: per-span timeline trace -----------------------------------
    let traced_cfg = atgpu_sim::SimConfig { trace: true, ..cfg.sim.clone() };
    let r_traced =
        run_program(&planned.program, planned.inputs.clone(), machine, &cfg.spec, &traced_cfg)?;
    let identical = r_traced.output(planned.outputs[0]) == r_planned.output(planned.outputs[0])
        && r_traced.total_ms().to_bits() == r_planned.total_ms().to_bits();
    let analysis = analyze_cluster_program(&planned.program, machine, 1)?;
    let metrics = analysis.lone_device()?;
    let kernel_ms = metrics
        .rounds
        .iter()
        .map(|rm| gpu_kernel_term(machine, &cfg.spec, rm))
        .collect::<Result<Vec<_>, _>>()?;
    let spans = &r_traced.trace.as_ref().expect("traced run records spans").spans;
    let errs = span_errors(spans, &kernel_ms);
    export_trace(&mut out, "", trace, || r_traced.trace.as_ref().map(chrome_trace_json))?;
    let _ = writeln!(
        out,
        "Timeline trace: traced run bit-identical to untraced: {}; {} spans recorded, \
         {} paired with analytic spans; worst transfer-span error {:.1}%, worst \
         kernel-span error {:.1}%.\n",
        findings.flag("trace.bit_identical", identical),
        spans.len(),
        errs.priced,
        100.0 * findings.num("trace.worst_xfer_err", errs.transfer),
        100.0 * findings.num("trace.worst_kernel_err", errs.kernel),
    );
    Ok(Section::new(out, findings))
}

/// E11 — deterministic fault injection and degraded-mode replanning:
///
/// 1. **Drop-rate sweep** — seeded random plans filtered to dropped
///    transfer attempts on a multi-round slabbed 4-device vecadd; every
///    drop is retried with priced exponential backoff and the answers
///    stay bit-identical to the fault-free run;
/// 2. **Mid-program device loss** — one device dies at the half-way
///    round; the survivors replay its checkpoint journal and absorb its
///    shards through the cost-driven planner, and the analytic
///    `cluster_cost_degraded` mirror predicts every round's observed
///    time;
/// 3. **Traced chaos run** — drops + the device death re-run with
///    tracing on (bit-identical, asserted): retry attempts and backoff
///    waits appear as their own spans, the journal replay lands on the
///    heir's host lane, and every priced span matches its link-model
///    prediction within the configured jitter.  With `trace` set, the
///    Chrome `trace_event` JSON is written there.
pub fn e11_fault_tolerance(cfg: &ExpConfig, trace: Option<&Path>) -> Result<Section, ExpError> {
    use atgpu_model::cost::cluster_cost_degraded;
    use atgpu_model::AlgoMetrics;
    use atgpu_sim::{even_shards, run_cluster_program, FaultEvent, FaultPlan, SimConfig};

    let quick = cfg.quick();
    let machine = &cfg.machine;
    let b = machine.b;
    let devices: u32 = 4;
    let rounds: usize = if quick { 4 } else { 8 };
    let slab_blocks: u64 = if quick { 32 } else { 128 };
    let slab = slab_blocks * b;
    let n = slab * rounds as u64;
    let mut findings = Findings::default();

    // The workload: R slabs of vector addition.  Each round uploads one
    // slab split evenly over the devices, adds it in place, and
    // downloads the result — enough rounds for a mid-program death to
    // leave real checkpointed state behind.
    let shards = even_shards(slab_blocks, devices);
    let built = OocVecAdd::new(n, slab, 0).build_slabbed(machine, devices)?;
    let (program, inputs, hc) = (built.program, built.inputs, built.outputs[0]);
    let cluster = ClusterSpec::homogeneous(devices as usize, cfg.spec);
    let run = |fault: FaultPlan| {
        let sim = SimConfig { fault, ..cfg.sim.clone() };
        run_cluster_program(&program, inputs.clone(), machine, &cluster, &sim)
    };

    // -- 1: drop-rate sweep -------------------------------------------
    let baseline = run(FaultPlan::default())?;
    let base_ms = baseline.total_ms();
    let base_out = baseline.output(hc).to_vec();
    let mut rows = Vec::new();
    let mut all_identical = true;
    for (i, rate) in [0.0f64, 0.05, 0.1, 0.2].into_iter().enumerate() {
        let mut plan = FaultPlan::random(0xC11A05 + i as u64, devices, rounds, rate);
        plan.events.retain(|e| matches!(e, FaultEvent::TransferDrop { .. }));
        let injected = plan.events.len();
        let report = run(plan)?;
        let stats = report.device_stats_total();
        let identical = report.output(hc) == &base_out[..];
        all_identical &= identical;
        let obs = report.total_ms();
        rows.push(vec![
            format!("{rate:.2}"),
            injected.to_string(),
            stats.retries.to_string(),
            format!("{:.3}", stats.backoff_ms),
            format!("{obs:.3}"),
            format!("{:+.1}%", 100.0 * (obs - base_ms) / base_ms),
            yes_no(identical).into(),
        ]);
    }
    let mut out = format!(
        "### E11 — dropped-transfer sweep (slabbed vecadd, n = {n}, {rounds} rounds, 4 devices)\n\n"
    );
    out.push_str(&markdown_table(
        &[
            "drop rate",
            "injected drops",
            "retries",
            "backoff (ms)",
            "observed (ms)",
            "overhead",
            "bit-identical",
        ],
        &rows,
    ));
    let _ = writeln!(
        out,
        "\nEvery retried attempt is re-priced on its link and every backoff wait is \
         charged to the round; answers bit-identical across all drop rates: {}.\n",
        findings.flag("drops.bit_identical", all_identical)
    );

    // -- 2: mid-program device loss -----------------------------------
    let at_round = rounds / 2;
    let dead: u32 = 2;
    let mut plan = FaultPlan::new(0xDEAD);
    plan.push(FaultEvent::DeviceDown { device: dead, at_round });
    let report = run(plan)?;
    let identical = report.output(hc) == &base_out[..];
    let recoveries: u64 = report.device_stats.iter().map(|s| s.recoveries).sum();
    findings.num("loss.recoveries", recoveries as f64);

    // The analytic mirror: one metrics row per round per device (all
    // rounds alike), the dead device's journal (2 uploaded + 1 computed
    // slab share per completed round) replayed at `at_round`, and its
    // blocks taken over by the model's takeover rule — the one the
    // simulator runs.
    let analysed = atgpu_analyze::analyze_cluster_program(&program, machine, devices)?.per_device;
    let metrics_for =
        |d: u32, k: usize| AlgoMetrics::new(analysed[d as usize].rounds[..k].to_vec());
    let dead_blocks =
        shards.iter().find(|s| s.device == dead).map(|s| s.blocks()).unwrap_or_default();
    let loss = plan::degraded_loss(
        &cluster,
        machine,
        dead as usize,
        at_round,
        dead_blocks,
        3 * dead_blocks * b * at_round as u64,
    );
    // Per-round predictions by prefix differencing: the cost of the
    // first k rounds minus the cost of the first k − 1 under the same
    // loss (replay bills once, at `at_round`).
    let mut pred_rounds = Vec::with_capacity(rounds);
    let mut prev = 0.0;
    for k in 1..=rounds {
        let per_device: Vec<AlgoMetrics> = (0..devices).map(|d| metrics_for(d, k)).collect();
        let c = cluster_cost_degraded(&cluster, machine, &per_device, &[], &loss)?;
        pred_rounds.push(c.total_ms - prev);
        prev = c.total_ms;
    }
    let mut rows = Vec::new();
    let mut max_err = 0.0f64;
    for (i, (obs_r, pred_r)) in
        report.rounds.iter().map(|r| r.total_ms()).zip(&pred_rounds).enumerate()
    {
        let e = rel_err(*pred_r, obs_r);
        max_err = max_err.max(e);
        rows.push(vec![
            format!("{i}{}", if i == at_round { " (death)" } else { "" }),
            format!("{obs_r:.3}"),
            format!("{pred_r:.3}"),
            format!("{:.1}%", 100.0 * e),
        ]);
    }
    let _ = writeln!(
        out,
        "### E11 — mid-program device loss (device {dead} dies at round {at_round} of {rounds})\n"
    );
    out.push_str(&markdown_table(&["round", "observed (ms)", "predicted (ms)", "error"], &rows));
    let total = report.total_ms();
    let _ = writeln!(
        out,
        "\nDegraded run: bit-identical to fault-free: {}; journal replays onto {recoveries} \
         survivors; total {total:.3} ms vs fault-free {base_ms:.3} ms ({:.2}x, under 2x: {}); \
         max per-round prediction error {:.1}% (within 10%: {}).\n",
        findings.flag("loss.bit_identical", identical),
        findings.num("loss.slowdown", total / base_ms),
        yes_no(total < 2.0 * base_ms),
        100.0 * findings.num("loss.max_round_err", max_err),
        yes_no(max_err <= 0.10),
    );

    // -- 3: traced chaos run ------------------------------------------
    // Drops plus the same device death, once untraced and once traced:
    // tracing must not move a single bit, and the fault machinery must
    // be *visible* — retry attempts, backoff waits and the heir's
    // journal replay each as their own span.
    use atgpu_sim::SpanKind;
    let mut plan = FaultPlan::random(0xC11A05 + 2, devices, rounds, 0.1);
    plan.events.retain(|e| matches!(e, FaultEvent::TransferDrop { .. }));
    plan.push(FaultEvent::DeviceDown { device: dead, at_round });
    let untraced = run(plan.clone())?;
    let sim = SimConfig { fault: plan, trace: true, ..cfg.sim.clone() };
    let traced = run_cluster_program(&program, inputs.clone(), machine, &cluster, &sim)?;
    let identical = traced.output(hc) == untraced.output(hc)
        && traced.total_ms().to_bits() == untraced.total_ms().to_bits()
        && traced.output(hc) == &base_out[..];

    let tr = traced.trace.as_ref().expect("traced run records spans");
    let heir = (0..devices).find(|&d| d != dead).unwrap_or_default();
    findings.num("trace.heir", f64::from(heir));
    let backoffs = tr.spans.iter().filter(|s| matches!(s.kind, SpanKind::Backoff)).count();
    let replay_on_heir =
        tr.spans.iter().any(|s| matches!(s.kind, SpanKind::Replay) && s.device == heir);
    // Every span the link model prices (transfers, retry attempts, the
    // replay — not backoff waits or kernels) against its prediction.
    let errs = span_errors(&tr.spans, &[]);
    export_trace(&mut out, "\n", trace, || traced.trace.as_ref().map(chrome_trace_json))?;
    let _ = writeln!(
        out,
        "\nTraced chaos run: bit-identical to untraced: {}; {} spans recorded \
         ({backoffs} backoff waits visible, {} priced by the link model); \
         replay span on heir device {heir}: {}; worst priced-span error {:.1}% \
         (within 10%: {}).\n",
        findings.flag("trace.bit_identical", identical),
        tr.spans.len(),
        errs.priced,
        findings.flag("trace.replay_on_heir", replay_on_heir),
        100.0 * findings.num("trace.worst_span_err", errs.transfer),
        yes_no(errs.transfer <= 0.10),
    );
    Ok(Section::new(out, findings))
}

/// E12 — the multi-tenant cost-query service's pricing tiers: which tier
/// of [`atgpu_serve::CostServer`] first answers each question of a
/// repeated-query workload, how far its quote lands from a full cluster
/// simulation's observed total, and what share of all queries the fast
/// path (memo + analytic) serves.
///
/// The workload asks a small set of distinct what-if questions over and
/// over (the serving regime the memo exists for): the first ask of each
/// exactly-analysable program is answered by the streamed analytic cost
/// model, the first ask of a bank-conflicted program falls outside the
/// analytic trust gate and pays a full simulation, and every repeat is a
/// memo hit.  The acceptance bars — fast path ≥ 90% of queries, every
/// quote within 10% of the simulator — are the `e12` test's, on the
/// findings; what a tier costs in host time is the repo benchmark's
/// `serve_mix` (`quote_p50_us`, `serve.price_*`).
pub fn e12_pricing_service(cfg: &ExpConfig) -> Result<Section, ExpError> {
    use atgpu_serve::{CostServer, ServerConfig};
    use atgpu_sim::{run_cluster_program, SimConfig};

    let quick = cfg.quick();
    let machine = &cfg.machine;
    let devices = 2usize;
    let spec = ClusterSpec::homogeneous(devices, cfg.spec);

    // The server prices deterministically (its default config is
    // noise-free); the simulated reference must answer the same question,
    // so it uses the same config rather than `cfg.sim`'s jitter.
    let sim = SimConfig::default();
    let server = CostServer::new(*machine, spec.clone(), ServerConfig::default())?;

    // Distinct questions: sharded vector additions of several sizes
    // (exactly analysable → analytic fast path) plus one bank-conflicted
    // unpadded tiled transpose, whose failed conflict-free assumption forces the
    // first ask through the simulation fallback.
    let distinct = if quick { 5u64 } else { 9 };
    let repeats: usize = if quick { 20 } else { 40 };
    let mut programs = Vec::new();
    for i in 0..distinct {
        let n = 32 * (8 + 4 * i);
        programs.push((
            format!("vecadd n={n}"),
            VecAdd::new(n, 100 + i).build_sharded(machine, devices as u32)?,
        ));
    }
    programs.push((
        "transpose/tiled 32".to_string(),
        Transpose::new(32, 5, TransposeVariant::Tiled).build(machine)?,
    ));

    // First ask of each question beside its simulated total.
    let mut worst_err = 0.0f64;
    let mut rows = Vec::new();
    for (name, built) in &programs {
        let q = server.price(&built.program)?;
        let observed_ms =
            run_cluster_program(&built.program, built.inputs.clone(), machine, &spec, &sim)?
                .total_ms();
        let e = rel_err(q.total_ms, observed_ms);
        worst_err = worst_err.max(e);
        rows.push(vec![
            name.clone(),
            format!("{:?}", q.source),
            format!("{:.4}", q.total_ms),
            format!("{observed_ms:.4}"),
            format!("{:.2}%", 100.0 * e),
        ]);
    }
    // The repeats: every question asked again, `repeats − 1` times.
    for _ in 1..repeats {
        for (_, built) in &programs {
            server.price(&built.program)?;
        }
    }

    let stats = server.stats().price;
    let total = stats.memo_hits + stats.analytic + stats.simulated;
    let mut findings = Findings::default();
    findings.num("price.simulated", stats.simulated as f64);
    let mut out = format!(
        "### E12 — multi-tenant pricing service: first answering tier and quote vs simulation \
         ({devices} devices, {} distinct queries × {repeats} repeats)\n\n",
        programs.len()
    );
    out.push_str(&markdown_table(
        &["query", "first answer", "quote (ms)", "sim observed (ms)", "error"],
        &rows,
    ));
    let _ = writeln!(
        out,
        "\nFast path answered {} of {total} queries — hit rate {:.1}% ({} memo / {} analytic / \
         {} simulated); worst quote error {:.2}% (within 10%: {}).",
        stats.memo_hits + stats.analytic,
        100.0 * findings.num("price.hit_rate", stats.fast_fraction()),
        stats.memo_hits,
        stats.analytic,
        stats.simulated,
        100.0 * findings.num("quote.worst_err", worst_err),
        yes_no(worst_err <= 0.10),
    );
    Ok(Section::new(out, findings))
}

/// E13 — peer-aware shard planning on an asymmetric peer matrix: the
/// argmin flip the directed peer-link pricing exists for.
///
/// Four identical devices behind identical host links — every
/// peer-**blind** signal (compute weight, host-link balance) says "split
/// evenly" — but every peer edge touching the last device is `penalty`×
/// more expensive in both `α` and `β` (a distant switch hop).  Two
/// peer-heavy irregular workloads run under three plans each:
///
/// * **even** — the uninformed baseline;
/// * **peer-blind** — [`atgpu_model::plan::planned_units`] priced with
///   [`atgpu_model::ShardProfile::without_peer`]: the E10 planner as it
///   was before peer traffic became a priced quantity;
/// * **peer-aware** — the same planner with the full profile: halo /
///   merge rows enter the objective and the drop-device candidates
///   become reachable.
///
/// The halo stencil trades one boundary cell per direction per round
/// across every device boundary; the histogram merges each device's
/// partial-bin rows to the owner.  On this matrix the peer-aware argmin
/// *flips* — it idles the expensive device and eats the extra compute on
/// the rest — and the flip is real: on both workloads the observed round
/// time beats the peer-blind plan's by ≥ 1.3x, and on the (statically
/// conflict-free) stencil the analytic prediction lands within 10% of
/// observation (all pinned by the e13 test; the histogram's gap is the
/// model's conflict-free assumption, reported in the output).  A traced
/// re-run of the winning stencil plan must be bit-identical; with
/// `trace` set its Chrome `trace_event` JSON is written there.
pub fn e13_peer_aware_planner(cfg: &ExpConfig, trace: Option<&Path>) -> Result<Section, ExpError> {
    use atgpu_algos::stencil::Stencil;
    use atgpu_sim::{run_cluster_program, SimConfig};

    let quick = cfg.quick();
    let machine = &cfg.machine;
    let mut out = String::new();
    let mut findings = Findings::default();

    // Identical devices, identical host links — peer-blind homogeneity —
    // with every directed peer edge touching the LAST device slowed.
    let devices = 4usize;
    let expensive = devices - 1;
    let penalty = 128.0;
    let mut cluster = ClusterSpec::homogeneous(devices, cfg.spec);
    for d in 0..devices {
        if d == expensive {
            continue;
        }
        cluster.peer_links[d][expensive] = cluster.peer_links[d][expensive].scaled(penalty);
        cluster.peer_links[expensive][d] = cluster.peer_links[expensive][d].scaled(penalty);
    }

    let n_st: u64 = if quick { 1 << 13 } else { 1 << 17 };
    let st_rounds = 8u64;
    let n_hist: u64 = if quick { 1 << 15 } else { 1 << 19 };
    let stencil = Stencil::new(n_st, 13);
    let stencil = stencil.iterated(st_rounds);
    let hist = Histogram::new(n_hist, machine.b, 13);

    let workloads: [(&str, &dyn Workload); 2] = [("stencil", &stencil), ("histogram", &hist)];
    let plans: [(&str, Planner); 3] = [
        EVEN,
        ("peer-blind", |units, cluster, machine, profile| {
            plan::planned_units(units, cluster, machine, &profile.without_peer())
        }),
        ("peer-aware", plan::planned_units),
    ];
    // Every plan is priced with the FULL profile: the peer-blind planner
    // chose without seeing peer rows, but its plan still pays them.
    let cells = workloads.map(|(_, w)| (cluster.clone(), w));
    let sweep = plan_sweep(cfg, &cells, &plans, &|c, profile, counts, _| {
        Ok(plan::plan_cost(c, machine, profile, counts)?)
    })?;

    let _ = writeln!(
        out,
        "### E13 — peer-aware planning (4 identical devices, peer edges to device \
         {expensive} slowed {penalty:.0}x; stencil n = {n_st} × {st_rounds} rounds, \
         histogram n = {n_hist})\n"
    );
    let mut rows = Vec::new();
    let mut accept = String::new();
    for ((workload, _), cell) in workloads.into_iter().zip(&sweep) {
        let (blind, aware) = (&cell[1], &cell[2]);
        for (i, r) in cell.iter().enumerate() {
            rows.push(vec![
                workload.to_string(),
                r.plan.to_string(),
                fmt_counts(&r.counts),
                format!("{:.3}", r.observed_ms()),
                format!("{:.3}", r.predicted_ms),
                // Speedups are over the peer-blind row, so start after it.
                if i > 1 {
                    format!("{:.2}x", blind.observed_ms() / r.observed_ms())
                } else {
                    "—".into()
                },
            ]);
        }
        let observed = aware.observed_ms();
        let _ = writeln!(
            accept,
            "Peer-aware speedup on {workload}: {:.2}x over the peer-blind plan \
             (argmin flip: {}); prediction within {:.1}% of observation.",
            findings.num(format!("{workload}.speedup"), blind.observed_ms() / observed),
            findings.flag(format!("{workload}.flip"), blind.counts != aware.counts),
            100.0 * findings.num(format!("{workload}.gap"), rel_err(aware.predicted_ms, observed))
        );
    }
    out.push_str(&markdown_table(
        &[
            "workload",
            "planner",
            "blocks per device",
            "observed (ms)",
            "predicted (ms)",
            "speedup vs peer-blind",
        ],
        &rows,
    ));
    out.push('\n');
    out.push_str(&accept);
    let _ = writeln!(
        out,
        "\nThe histogram prediction gap is the model's conflict-free assumption, not the \
         peer pricing: the partial-bin kernel serialises on shared-memory bank conflicts \
         (see E3), a per-plan-constant term no plan's profile carries — the *relative* \
         ordering of candidate plans, which is all the planner needs, is unaffected."
    );

    // -- traced re-run of the winning stencil plan --------------------
    let aware = &sweep[0][2];
    let built = &aware.built;
    let sim = SimConfig { trace: true, ..cfg.sim.clone() };
    let traced =
        run_cluster_program(&built.program, built.inputs.clone(), machine, &cluster, &sim)?;
    let identical = traced.output(built.outputs[0]) == aware.report.output(built.outputs[0]);
    let n_spans = traced.trace.as_ref().map(|t| t.spans.len()).unwrap_or(0);
    export_trace(&mut out, "\n", trace, || traced.trace.as_ref().map(chrome_trace_json))?;
    let _ = writeln!(
        out,
        "\nTraced peer-aware run: bit-identical to untraced: {}; {n_spans} spans recorded.\n",
        findings.flag("trace.bit_identical", identical),
    );
    Ok(Section::new(out, findings))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Scale;

    fn cfg() -> ExpConfig {
        ExpConfig::standard(Scale::Quick)
    }

    fn golden_file(name: &str) -> String {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name);
        std::fs::read_to_string(path).unwrap()
    }

    /// Checks `s` byte for byte against the section the parent commit's
    /// `atgpu-exp <tag> --quick` wrote (`tests/golden/<tag>.md`), then
    /// hands it on to the test's own assertions.
    fn golden(tag: &str, s: Section) -> Section {
        assert_eq!(format!("{}\n", s.markdown), golden_file(&format!("{tag}.md")), "{tag}.md");
        s
    }

    /// A traced experiment under [`golden`]: run with a trace path in a
    /// scratch directory, the written Chrome JSON compared with
    /// `tests/golden/trace.<tag>.json` and the directory cut from the
    /// "trace written to" note (the golden run wrote into its cwd).
    fn golden_traced(tag: &str, run: crate::experiment::Runner) -> Section {
        let dir = std::env::temp_dir().join(format!("atgpu-exp-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = format!("trace.{tag}.json");
        let mut s = run(&cfg(), Some(&dir.join(&file))).unwrap();
        let written = std::fs::read_to_string(dir.join(&file)).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(written, golden_file(&file), "{file}");
        s.markdown = s.markdown.replace(&format!("{}/", dir.display()), "");
        golden(tag, s)
    }

    fn num(s: &Section, name: &str) -> f64 {
        s.findings.get(name).unwrap_or_else(|| panic!("no finding `{name}` in {:?}", s.findings))
    }

    #[test]
    fn e1_runs_and_reports() {
        let s = golden("e1", e1_out_of_core(&cfg()).unwrap()).markdown;
        assert!(s.contains("chunk"));
        assert!(s.contains("host-finish"));
        assert!(s.contains("device-finish"));
    }

    #[test]
    fn e3_shows_conflict_contrast() {
        let s = golden("e3", e3_bank_conflicts(&cfg()).unwrap()).markdown;
        assert!(s.contains("transpose/naive"));
        assert!(s.contains("transpose/tiled-padded"));
        assert!(s.contains("histogram"));
    }

    #[test]
    fn e4_occupancy_monotone() {
        let s = golden("e4", e4_occupancy(&cfg()).unwrap());
        assert!(s.markdown.contains("ℓ"));
        // Less shared per block -> higher occupancy -> faster: observed
        // series should be non-increasing as m shrinks... the sweep goes
        // from small m (divisor 16) to large m (divisor 1), so observed
        // time should increase along the series.
        let obs = &s.figures[0].series[1].points;
        assert!(obs.last().unwrap().1 >= obs.first().unwrap().1, "{obs:?}");
    }

    #[test]
    fn e5_reports_all_workloads() {
        let s = golden("e5", e5_other_problems(&cfg()).unwrap());
        assert_eq!(num(&s, "workloads"), 6.0);
        for name in ["saxpy", "dot", "scan", "stencil", "gemv", "bitonic"] {
            assert!(s.markdown.contains(name));
        }
    }

    #[test]
    fn e2_covers_all_specs() {
        let s = golden("e2", e2_other_gpus(&cfg()).unwrap()).markdown;
        for name in ["gtx650-like", "midrange-like", "highend-like"] {
            assert!(s.contains(name));
        }
    }

    #[test]
    fn e7_sharding_speeds_up_transfer_bound_vecadd() {
        let s = golden("e7", e7_multi_device(&cfg()).unwrap());
        assert!(s.markdown.contains("per-device transfer"));
        // The 4-device row must show a real speedup over 1 device.
        let speedups = ["1dev", "2dev", "4dev"].map(|d| num(&s, &format!("speedup.{d}")));
        assert!(speedups[2] > 2.0, "4-device speedup {speedups:?}\n{}", s.markdown);
    }

    #[test]
    fn e8_streams_overlap_and_planner() {
        let s = golden("e8", e8_streams(&cfg()).unwrap());
        // Acceptance: double-buffered ooc-vecadd ≥ 1.2x over its serial
        // form in modeled time.
        let speedup = num(&s, "overlap.observed");
        assert!(speedup >= 1.2, "ooc-vecadd overlap speedup {speedup} < 1.2\n{}", s.markdown);
        // The predicted speedup tracks the observed one.
        let predicted = num(&s, "overlap.predicted");
        assert!(
            (speedup - predicted).abs() < 0.35,
            "observed {speedup} vs predicted {predicted}\n{}",
            s.markdown
        );
        // The weighted planner beats the even split on the mixed cluster.
        let planner = num(&s, "planner.speedup");
        assert!(planner > 1.2, "weighted planner speedup {planner}\n{}", s.markdown);
    }

    /// The PR's acceptance criteria, pinned: on the E10 link-asymmetric
    /// transfer-bound case the pipeline planner beats the
    /// compute-weighted planner's observed round time by ≥ 1.2x with the
    /// analytic prediction within 10% of observation, and the
    /// auto-chunked streamed ooc-vecadd reproduces the hand-written
    /// overlap (≥ 1.5x vs its serial form) without a hand-tuned chunk.
    #[test]
    fn e10_planner_beats_weighted_and_predicts() {
        let s = golden_traced("e10", e10_pipeline_planner);
        let speedup = num(&s, "planner.speedup");
        assert!(speedup >= 1.2, "planner speedup {speedup} < 1.2\n{}", s.markdown);
        let gap = num(&s, "planner.gap");
        assert!(gap <= 0.10, "prediction off by {gap}\n{}", s.markdown);

        let (obs, pred) = (num(&s, "autochunk.observed"), num(&s, "autochunk.predicted"));
        assert!(obs >= 1.5, "auto-chunk overlap {obs} < 1.5\n{}", s.markdown);
        assert!((obs - pred).abs() < 0.2, "observed {obs} vs predicted {pred}\n{}", s.markdown);

        // Per-span tracing: bit-identical run, and the worst span-level
        // prediction error stays within the round-level tolerance.
        assert_eq!(num(&s, "trace.bit_identical"), 1.0, "{}", s.markdown);
        assert!(num(&s, "trace.worst_xfer_err") <= 0.10, "transfer spans off by more than 10%");
        assert!(num(&s, "trace.worst_kernel_err") <= 0.10, "kernel spans off by more than 10%");
    }

    /// The PR's acceptance criteria, pinned: every drop rate leaves the
    /// answers bit-identical, a mid-program device loss finishes under
    /// 2x the fault-free wall-clock, and the degraded cost mirror
    /// predicts each round within 10%.
    #[test]
    fn e11_chaos_stays_correct_and_predicted() {
        let s = golden_traced("e11", e11_fault_tolerance);
        assert_eq!(num(&s, "drops.bit_identical"), 1.0, "{}", s.markdown);
        assert_eq!(num(&s, "loss.bit_identical"), 1.0, "{}", s.markdown);
        assert_eq!(num(&s, "loss.recoveries"), 3.0, "{}", s.markdown);
        assert!(num(&s, "loss.slowdown") < 2.0, "{}", s.markdown);
        assert!(num(&s, "loss.max_round_err") <= 0.10, "{}", s.markdown);

        // The traced chaos run: tracing is invisible, retries and the
        // heir's journal replay are visible, and priced spans match
        // their link-model predictions.
        assert_eq!(num(&s, "trace.bit_identical"), 1.0, "{}", s.markdown);
        assert_eq!((num(&s, "trace.heir"), num(&s, "trace.replay_on_heir")), (0.0, 1.0));
        assert!(num(&s, "trace.worst_span_err") <= 0.10, "{}", s.markdown);
    }

    /// The pricing-service acceptance bars, pinned: ≥ 90% of a
    /// repeated-query workload served from the fast path, quotes within
    /// 10% of the simulator.
    #[test]
    fn e12_fast_path_dominates() {
        let s = golden("e12", e12_pricing_service(&cfg()).unwrap());
        assert!(num(&s, "quote.worst_err") <= 0.10, "{}", s.markdown);
        // One simulated fallback (the bank-conflicted transpose), the
        // rest analytic or memoized.
        assert_eq!(num(&s, "price.simulated"), 1.0, "{}", s.markdown);
        let rate = num(&s, "price.hit_rate");
        assert!(rate >= 0.90, "hit rate {rate} too low:\n{}", s.markdown);
    }

    /// The peer-aware planning acceptance bars, pinned: on the
    /// asymmetric peer matrix the peer-aware planner picks a different
    /// plan than the peer-blind one (the argmin flip), the flip is
    /// observed-faster by ≥ 1.3x on both workloads, the stencil
    /// prediction lands within 10% of observation, and the traced re-run
    /// is bit-identical.
    #[test]
    fn e13_peer_aware_flips_argmin_and_wins() {
        let s = golden_traced("e13", e13_peer_aware_planner);
        for workload in ["stencil", "histogram"] {
            assert_eq!(num(&s, &format!("{workload}.flip")), 1.0, "{}", s.markdown);
            let speedup = num(&s, &format!("{workload}.speedup"));
            assert!(speedup >= 1.3, "{workload} peer-aware speedup {speedup} < 1.3");
        }
        let gap = num(&s, "stencil.gap");
        assert!(gap <= 0.10, "stencil prediction off by {gap}\n{}", s.markdown);
        assert_eq!(num(&s, "trace.bit_identical"), 1.0, "{}", s.markdown);
    }
}
