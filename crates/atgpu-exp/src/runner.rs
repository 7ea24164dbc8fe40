//! Common sweep machinery: analyse + cost + simulate one workload
//! instance, producing one row of a figure's data; and the cluster side
//! of the same loop — [`observe`] beside `atgpu_analyze::predict`, and
//! the [`plan_sweep`] driver that runs both over cells × plans.

use atgpu_algos::{BuiltProgram, Plan, Workload};
use atgpu_analyze::analyze_program;
use atgpu_ir::Program;
use atgpu_model::cost::{evaluate, CostModel};
use atgpu_model::{plan, AtgpuMachine, ClusterSpec, GpuSpec, ShardProfile};
use atgpu_sim::xfer::XferNoise;
use atgpu_sim::{run_cluster_program, run_program, ClusterSimReport, SimConfig};
use std::fmt::Write as _;
use std::path::Path;

/// The harness's error: whichever layer failed — workload builder,
/// analyser, model, simulator, pricing service, file system — boxed as
/// itself, so it prints (and downcasts) as what it is.
pub type ExpError = Box<dyn std::error::Error + Send + Sync>;

/// Experiment scale, selecting sweep ranges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small sizes for CI and unit tests (seconds).
    Quick,
    /// The paper's ranges, with the largest matrix/reduction points
    /// trimmed to keep a full run around a minute.
    Paper,
    /// The complete paper ranges (vecadd to 10⁷, reduction to 2²⁶,
    /// matmul to 1024).
    Full,
}

/// Configuration for an experiment run.
#[derive(Debug, Clone)]
pub struct ExpConfig {
    /// The abstract machine (analysis side).
    pub machine: AtgpuMachine,
    /// The simulated device (observation side).  Its
    /// [`GpuSpec::derived_cost_params`] price the predicted curves.
    pub spec: GpuSpec,
    /// Simulator configuration.
    pub sim: SimConfig,
    /// Sweep scale.
    pub scale: Scale,
}

impl ExpConfig {
    /// The standard configuration: GTX 650-like machine + device,
    /// deterministic 2 % transfer jitter.
    pub fn standard(scale: Scale) -> Self {
        Self {
            machine: AtgpuMachine::gtx650_like(),
            spec: GpuSpec::gtx650_like(),
            sim: SimConfig {
                noise: Some(XferNoise { rel: 0.02 }),
                seed: 0x5EED,
                ..SimConfig::default()
            },
            scale,
        }
    }

    /// Whether sweeps run at [`Scale::Quick`] sizes.
    pub fn quick(&self) -> bool {
        self.scale == Scale::Quick
    }
}

/// One row of a sweep: predictions and observations at problem size `n`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepRow {
    /// Problem size.
    pub n: u64,
    /// ATGPU GPU-cost (Expression 2), in milliseconds with the device's
    /// derived parameters.
    pub atgpu_cost: f64,
    /// SWGPU baseline cost (no transfer terms).
    pub swgpu_cost: f64,
    /// Simulated total running time (ms) — the paper's "Total".
    pub total_ms: f64,
    /// Simulated kernel-only time (ms) — the paper's "Kernel".
    pub kernel_ms: f64,
    /// Observed transfer proportion ΔE.
    pub delta_e: f64,
    /// Predicted transfer proportion ΔT.
    pub delta_t: f64,
}

/// Analyses, costs and simulates one workload instance.  The row is
/// timing only: output correctness is the workload library's to check
/// (`atgpu_algos::verify_on_sim`, the roster suites).
pub fn run_row(w: &dyn Workload, cfg: &ExpConfig) -> Result<SweepRow, ExpError> {
    let built = w.build(&cfg.machine)?;
    let metrics = analyze_program(&built.program, &cfg.machine)?.metrics();
    let params = cfg.spec.derived_cost_params();
    let atgpu = evaluate(CostModel::GpuCost, &params, &cfg.machine, &cfg.spec, &metrics)?;
    let swgpu = evaluate(CostModel::Swgpu, &params, &cfg.machine, &cfg.spec, &metrics)?;

    let report = run_program(&built.program, built.inputs, &cfg.machine, &cfg.spec, &cfg.sim)?;

    Ok(SweepRow {
        n: w.size(),
        atgpu_cost: atgpu.total(),
        swgpu_cost: swgpu.total(),
        total_ms: report.total_ms(),
        kernel_ms: report.kernel_ms(),
        delta_e: report.transfer_proportion(),
        delta_t: atgpu.transfer_proportion(),
    })
}

/// The observed side of a predict-vs-observe cell: `built` simulated on
/// `cluster` under `cfg.sim`.
pub fn observe(
    cfg: &ExpConfig,
    built: &BuiltProgram,
    cluster: &ClusterSpec,
) -> Result<ClusterSimReport, ExpError> {
    Ok(run_cluster_program(&built.program, built.inputs.clone(), &cfg.machine, cluster, &cfg.sim)?)
}

/// The compare step of predict-vs-observe: `|predicted − observed|` as a
/// fraction of the observation.
pub fn rel_err(predicted: f64, observed: f64) -> f64 {
    (predicted - observed).abs() / observed.max(1e-12)
}

/// Per-device unit counts as a table cell: `512 / 512`.
pub fn fmt_counts(counts: &[u64]) -> String {
    counts.iter().map(u64::to_string).collect::<Vec<_>>().join(" / ")
}

/// A rule apportioning a workload's `units` over a cluster's devices
/// (the signature of [`plan::planned_units`]); a sweep's plan list pairs
/// each with its name.
pub type Planner = fn(u64, &ClusterSpec, &AtgpuMachine, &ShardProfile) -> Vec<u64>;

/// The uninformed baseline plan every sweep starts from.
pub const EVEN: (&str, Planner) = ("even", |units, c, _, _| plan::even_units(units, c.n_devices()));

/// One plan of one sweep cell: built, observed and priced.
pub struct PlanRow {
    /// The plan's name in the sweep's plan list.
    pub plan: &'static str,
    /// Units per device.
    pub counts: Vec<u64>,
    /// The workload built under `counts`.
    pub built: BuiltProgram,
    /// Its simulation on the cell's cluster.
    pub report: ClusterSimReport,
    /// The model's price for it.
    pub predicted_ms: f64,
}

impl PlanRow {
    /// The observed total the prediction is compared with.
    pub fn observed_ms(&self) -> f64 {
        self.report.total_ms()
    }
}

/// How a sweep prices one plan: `(cluster, profile, counts, program)` to
/// predicted milliseconds.  An experiment chooses between the planner's
/// own objective ([`plan::plan_cost`] of the counts under the profile)
/// and `atgpu_analyze::predict` of the built program.
pub type Price<'a> =
    dyn Fn(&ClusterSpec, &ShardProfile, &[u64], &Program) -> Result<f64, ExpError> + 'a;

/// The plan-sweep driver: each `(cluster, workload)` cell is built under
/// every plan of `plans` (as explicit per-device counts), observed on
/// its cluster and priced by `price`.  Returns one row group per cell,
/// plans in order.
pub fn plan_sweep(
    cfg: &ExpConfig,
    cells: &[(ClusterSpec, &dyn Workload)],
    plans: &[(&'static str, Planner)],
    price: &Price<'_>,
) -> Result<Vec<Vec<PlanRow>>, ExpError> {
    let machine = &cfg.machine;
    let run_cell = |(cluster, w): &(ClusterSpec, &dyn Workload)| {
        let units = w.units(machine).ok_or("a plan sweep needs a workload that shards")?;
        let profile = w.shard_profile(machine);
        let run_plan = |&(plan, planner): &(&'static str, Planner)| {
            let counts = planner(units, cluster, machine, &profile);
            let built =
                w.build_plan(machine, Plan::Explicit(atgpu_ir::counts_to_shards(&counts)))?;
            let report = observe(cfg, &built, cluster)?;
            let predicted_ms = price(cluster, &profile, &counts, &built.program)?;
            Ok(PlanRow { plan, counts, built, report, predicted_ms })
        };
        plans.iter().map(run_plan).collect::<Result<Vec<_>, ExpError>>()
    };
    cells.iter().map(run_cell).collect()
}

/// Writes a traced run's Chrome `trace_event` JSON where `--trace` asked
/// for it and says so in the section (`lead` is the blank-line spacing
/// before the note).  `json` is only rendered when there is a path.
pub fn export_trace(
    out: &mut String,
    lead: &str,
    path: Option<&Path>,
    json: impl FnOnce() -> Option<String>,
) -> Result<(), ExpError> {
    if let Some(path) = path {
        std::fs::write(path, json().ok_or("the traced run recorded no trace")?)?;
        let _ = writeln!(out, "{lead}Chrome trace written to {}.", path.display());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use atgpu_algos::vecadd::VecAdd;

    #[test]
    fn row_fields_are_consistent() {
        let cfg = ExpConfig::standard(Scale::Quick);
        let row = run_row(&VecAdd::new(10_000, 1), &cfg).unwrap();
        assert_eq!(row.n, 10_000);
        assert!(row.atgpu_cost > row.swgpu_cost, "transfer terms must add cost");
        assert!(row.total_ms > row.kernel_ms);
        assert!((0.0..=1.0).contains(&row.delta_e));
        assert!((0.0..=1.0).contains(&row.delta_t));
    }

    #[test]
    fn predicted_and_observed_deltas_close_for_vecadd() {
        // Figure 6a: the paper reports ΔT within ~1.5 % of ΔE on average.
        let cfg = ExpConfig::standard(Scale::Quick);
        let row = run_row(&VecAdd::new(200_000, 2), &cfg).unwrap();
        assert!(
            (row.delta_e - row.delta_t).abs() < 0.1,
            "ΔE {} vs ΔT {}",
            row.delta_e,
            row.delta_t
        );
    }

    /// Errors keep their identity: an unwritable `--trace` path is an
    /// I/O error, not an "invalid size".
    #[test]
    fn unwritable_trace_path_is_an_io_error() {
        let path = Path::new("/nonexistent-atgpu-exp-dir/trace.e10.json");
        let err = export_trace(&mut String::new(), "", Some(path), || Some("[]".into()))
            .expect_err("the directory does not exist");
        assert!(err.downcast_ref::<std::io::Error>().is_some(), "{err:?}");
        assert!(!err.to_string().contains("invalid"), "{err}");
    }
}
