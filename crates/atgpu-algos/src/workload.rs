//! The uniform workload interface: one emission body per workload, a
//! [`Plan`] saying where its grid runs, host inputs and expectations.

use crate::error::AlgosError;
use atgpu_ir::{counts_to_shards, HBuf, Kernel, Program, ProgramBuilder, Shard};
use atgpu_model::{plan, AlgoMetrics, AtgpuMachine, ClusterSpec, GpuSpec, ShardProfile};
use atgpu_sim::{run_cluster_program, run_program, ClusterSimReport, SimConfig, SimReport};

/// A workload compiled for a particular machine.
#[derive(Debug, Clone)]
pub struct BuiltProgram {
    /// The IR program.
    pub program: Program,
    /// Input host buffers, in declaration order.
    pub inputs: Vec<Vec<i64>>,
    /// Output host buffers whose contents the workload predicts.
    pub outputs: Vec<HBuf>,
}

/// Where a workload's grid runs — the *where* beside the workload's
/// *what*.  Placement changes the per-device sums of a round, never the
/// algorithm, so every shardable workload emits all four from one body.
#[derive(Debug, Clone)]
pub enum Plan<'a> {
    /// The whole grid on device 0 as a plain `Launch`: the program
    /// [`Workload::build`] returns.
    Single,
    /// The planning units split evenly over this many devices.
    Even(u32),
    /// The units apportioned by the cost-driven planner
    /// ([`atgpu_model::plan::planned_units`]) pricing the workload's
    /// [`Workload::shard_profile`] on this cluster — host-link `α`/`β`,
    /// wave factors and the profile's peer traffic all in the objective.
    Planned(&'a ClusterSpec),
    /// A caller-supplied partition of the planning units (the
    /// differential suites feed random ones; the experiment harness
    /// compares planners on one program shape).
    Explicit(Vec<Shard>),
}

impl Plan<'_> {
    /// Resolves the plan over `units` planning units (`None`: the
    /// workload has no sharded form, only [`Plan::Single`] resolves).
    /// The crate's one apportionment site: every even or planned split
    /// is made here, and every plan — a caller's or a planner's — is
    /// checked against the unit range before an emission body slices
    /// buffers by it.
    pub fn resolve(
        self,
        units: Option<u64>,
        machine: &AtgpuMachine,
        profile: impl FnOnce() -> ShardProfile,
    ) -> Result<Placement, AlgosError> {
        let Some(units) = units else {
            return match self {
                Plan::Single => Ok(Placement { shards: Vec::new(), single: true }),
                _ => Err(AlgosError::InvalidSize {
                    reason: "this workload has no sharded form".into(),
                }),
            };
        };
        let shards = match self {
            Plan::Single => {
                let shards = vec![Shard { device: 0, start: 0, end: units }];
                return Ok(Placement { shards, single: true });
            }
            Plan::Even(devices) => {
                counts_to_shards(&plan::even_units(units, devices.max(1) as usize))
            }
            Plan::Planned(cluster) => {
                counts_to_shards(&plan::planned_units(units, cluster, machine, &profile()))
            }
            Plan::Explicit(shards) => shards,
        };
        check_shards_fit(&shards, units)?;
        Ok(Placement { shards, single: false })
    }
}

/// Rejects a shard plan whose ranges fall outside the `units`-unit grid
/// (the emission bodies' slice arithmetic would otherwise underflow
/// before `ProgramBuilder::build`'s partition validation gets a chance to
/// report it properly).
fn check_shards_fit(shards: &[Shard], units: u64) -> Result<(), AlgosError> {
    if let Some(s) = shards.iter().find(|s| s.start >= s.end || s.end > units) {
        return Err(AlgosError::InvalidSize {
            reason: format!(
                "shard [{}, {}) on device {} does not fit the {units}-unit grid",
                s.start, s.end, s.device
            ),
        });
    }
    Ok(())
}

/// A resolved [`Plan`]: which device runs which planning units.  The
/// single-device case is the one whole-grid shard on device 0, so an
/// emission body loops over [`Self::shards`] either way — its peer
/// loops emit nothing, its slices cover the whole buffers — and only the
/// launch step and the program name differ.
#[derive(Debug, Clone)]
pub struct Placement {
    shards: Vec<Shard>,
    single: bool,
}

impl Placement {
    /// The shards, in plan order, in planning units.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// Whether this is [`Plan::Single`].
    pub fn is_single(&self) -> bool {
        self.single
    }

    /// Picks the program name for this placement.
    pub fn name<'a>(&self, single: &'a str, sharded: &'a str) -> &'a str {
        if self.single {
            single
        } else {
            sharded
        }
    }

    /// Launches `kernel` over the placement's shards (units are thread
    /// blocks): a plain `Launch` when single, `LaunchSharded` otherwise.
    pub fn launch(&self, pb: &mut ProgramBuilder, kernel: Kernel) {
        self.launch_over(pb, kernel, self.shards.clone());
    }

    /// Launches `kernel` over `shards` — a block-range view of this
    /// placement the caller derived (tile rows scaled to blocks, one
    /// chunk's grid on its device) — or as a plain `Launch` when single.
    pub fn launch_over(&self, pb: &mut ProgramBuilder, kernel: Kernel, shards: Vec<Shard>) {
        if self.single {
            pb.launch(kernel);
        } else {
            pb.launch_sharded(kernel, shards);
        }
    }

    /// Launches a one-block `kernel` on the owner device 0 (the carry
    /// scan, the histogram merge).
    pub fn launch_on_owner(&self, pb: &mut ProgramBuilder, kernel: Kernel) {
        self.launch_over(pb, kernel, vec![Shard { device: 0, start: 0, end: 1 }]);
    }
}

/// A computational problem instance: data plus the recipe for its ATGPU
/// program, host reference and model analysis.
///
/// A workload states its algorithm once, in [`Self::emit`]; the
/// `build*` methods are provided and differ only in the [`Plan`] they
/// resolve.  A shardable workload also answers [`Self::units`] and
/// [`Self::shard_profile`].
pub trait Workload {
    /// Workload name (used in reports and figures).
    fn name(&self) -> &'static str;

    /// The problem size `n` the paper sweeps.
    fn size(&self) -> u64;

    /// The emission body: the IR program and input data for `machine`
    /// with the grid placed as `at` says.  A workload without a sharded
    /// form only ever sees the [`Plan::Single`] placement and may ignore
    /// it.
    fn emit(&self, machine: &AtgpuMachine, at: &Placement) -> Result<BuiltProgram, AlgosError>;

    /// Host-reference contents of each output buffer, in the same order
    /// as [`BuiltProgram::outputs`].
    fn expected(&self) -> Vec<Vec<i64>>;

    /// How many planning units the shardable launch has on `machine`
    /// (thread blocks; tile rows for matmul; chunks for the out-of-core
    /// addition), or `None` when the workload runs on one device only.
    /// Unvalidated: [`Self::emit`] rejects what does not fit.
    fn units(&self, _machine: &AtgpuMachine) -> Option<u64> {
        None
    }

    /// The per-unit cost shape [`Plan::Planned`] prices.
    fn shard_profile(&self, _machine: &AtgpuMachine) -> ShardProfile {
        ShardProfile::default()
    }

    /// Builds the program with its grid placed by `plan`.
    fn build_plan(
        &self,
        machine: &AtgpuMachine,
        plan: Plan<'_>,
    ) -> Result<BuiltProgram, AlgosError> {
        let at = plan.resolve(self.units(machine), machine, || self.shard_profile(machine))?;
        self.emit(machine, &at)
    }

    /// Builds the single-device program ([`Plan::Single`]).
    fn build(&self, machine: &AtgpuMachine) -> Result<BuiltProgram, AlgosError> {
        self.build_plan(machine, Plan::Single)
    }

    /// Builds the multi-device program over an even split
    /// ([`Plan::Even`]): each device receives only its slice of the
    /// inputs over its own host link and returns its slice of the
    /// outputs (CrystalGPU-style transparent distribution).
    fn build_sharded(
        &self,
        machine: &AtgpuMachine,
        devices: u32,
    ) -> Result<BuiltProgram, AlgosError> {
        self.build_plan(machine, Plan::Even(devices))
    }

    /// Builds the multi-device program the cost-driven planner picks for
    /// `cluster` ([`Plan::Planned`]).  On identical GPUs behind
    /// asymmetric host links this hands the slow-link device fewer
    /// units, which an even or `k′·clock`-weighted split never would.
    fn build_sharded_planned(
        &self,
        machine: &AtgpuMachine,
        cluster: &ClusterSpec,
    ) -> Result<BuiltProgram, AlgosError> {
        self.build_plan(machine, Plan::Planned(cluster))
    }

    /// The paper's closed-form model metrics for this instance (exact for
    /// our IR encoding), if stated.  Tests assert `atgpu-analyze` derives
    /// exactly these.
    fn closed_form(&self, _machine: &AtgpuMachine) -> Option<AlgoMetrics> {
        None
    }
}

/// Compares every predicted output buffer word for word: a missing or
/// extra buffer, a short or long one, and the first differing word are
/// all mismatches.
fn check_outputs<'a>(
    built: &BuiltProgram,
    expected: &[Vec<i64>],
    output: impl Fn(HBuf) -> &'a [i64],
) -> Result<(), AlgosError> {
    if built.outputs.len() != expected.len() {
        return Err(AlgosError::Mismatch {
            buffer: "<output buffer count>".into(),
            index: built.outputs.len().min(expected.len()),
            expected: expected.len() as i64,
            actual: built.outputs.len() as i64,
        });
    }
    for (out_idx, (hbuf, exp)) in built.outputs.iter().zip(expected).enumerate() {
        let got = output(*hbuf);
        let diff = got.iter().zip(exp).position(|(g, e)| g != e);
        let short = (got.len() != exp.len()).then(|| got.len().min(exp.len()));
        let Some(index) = diff.or(short) else { continue };
        return Err(AlgosError::Mismatch {
            buffer: built
                .program
                .host_bufs
                .get(hbuf.0 as usize)
                .map(|d| d.name.clone())
                .unwrap_or_else(|| format!("output{out_idx}")),
            index,
            expected: exp.get(index).copied().unwrap_or(0),
            actual: got.get(index).copied().unwrap_or(0),
        });
    }
    Ok(())
}

/// Builds, simulates and verifies a workload; returns the report.
///
/// Any output word differing from the host reference is an error — this
/// is the library's end-to-end correctness gate.
pub fn verify_on_sim(
    w: &dyn Workload,
    machine: &AtgpuMachine,
    spec: &GpuSpec,
    config: &SimConfig,
) -> Result<SimReport, AlgosError> {
    let mut built = w.build(machine)?;
    let inputs = std::mem::take(&mut built.inputs);
    let report = run_program(&built.program, inputs, machine, spec, config)?;
    check_outputs(&built, &w.expected(), |h| report.output(h))?;
    Ok(report)
}

/// Simulates an already-built (typically sharded) program on a cluster
/// and verifies the outputs against `expected`, in declaration order of
/// `outputs`.
pub fn verify_built_on_cluster(
    built: &BuiltProgram,
    expected: &[Vec<i64>],
    machine: &AtgpuMachine,
    cluster: &ClusterSpec,
    config: &SimConfig,
) -> Result<ClusterSimReport, AlgosError> {
    let report =
        run_cluster_program(&built.program, built.inputs.clone(), machine, cluster, config)?;
    check_outputs(built, expected, |h| report.output(h))?;
    Ok(report)
}

/// Standard machine used by workload unit tests: `b = 32`, GTX 650-like
/// shared/global sizes, enough MPs for a perfect analysis.
pub fn test_machine() -> AtgpuMachine {
    AtgpuMachine::new(1 << 20, 32, 12_288, 1 << 26).expect("valid test machine")
}

/// Standard small GPU spec for workload unit tests (fast to simulate).
pub fn test_spec() -> GpuSpec {
    GpuSpec { k_prime: 2, h_limit: 8, ..GpuSpec::gtx650_like() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_fixtures_are_valid() {
        test_machine();
        test_spec().validate().unwrap();
    }

    /// An oracle one word short, one word long or one buffer short is a
    /// mismatch, not a pass of the words that happen to line up.
    #[test]
    fn cluster_verifier_compares_lengths_and_buffer_counts() {
        let m = test_machine();
        let w = crate::vecadd::VecAdd::new(100, 3);
        let built = w.build_sharded(&m, 2).unwrap();
        let cluster = ClusterSpec::homogeneous(2, test_spec());
        let verify = |expected: &[Vec<i64>]| {
            verify_built_on_cluster(&built, expected, &m, &cluster, &SimConfig::default())
        };
        let exact = w.expected();
        verify(&exact).unwrap();
        let short = vec![exact[0][..99].to_vec()];
        let long = vec![[&exact[0][..], &[0]].concat()];
        for (bad, index) in [(&short, 99), (&long, 100), (&Vec::new(), 0)] {
            match verify(bad) {
                Err(AlgosError::Mismatch { index: at, .. }) => assert_eq!(at, index),
                other => panic!("expected a mismatch at {index}, got {other:?}"),
            }
        }
    }
}
