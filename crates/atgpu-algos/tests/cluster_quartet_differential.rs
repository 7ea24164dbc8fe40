//! Differential tests for the irregular quartet on clusters: under ANY
//! explicit shard plan — random contiguous partitions over 1–4 devices —
//! the cluster builds of stencil, scan, spmv, and histogram must produce
//! outputs **bit-identical** to the host reference.  The peer traffic
//! each build emits (halo exchange, all-to-one gather, one-to-all
//! scatter, partial-row merge) moves data, never changes it.  A program
//! run executes the micro-op engine; the second block executor (the
//! tree-walking reference interpreter) is compared with it launch by
//! launch, on every roster × plan cell these workloads build, by
//! `atgpu-sim`'s `engine_differential`.
//!
//! A chaos case pins the same identity through a mid-program device loss
//! on the halo stencil: the journal-replay recovery plus heir-served
//! peer copies must keep every halo cell exact.

use atgpu_algos::histogram::Histogram;
use atgpu_algos::scan::Scan;
use atgpu_algos::spmv::SpmvEll;
use atgpu_algos::stencil::Stencil;
use atgpu_algos::workload::{BuiltProgram, Plan, Workload};
use atgpu_ir::Shard;
use atgpu_model::{AtgpuMachine, ClusterSpec, GpuSpec};
use atgpu_sim::{run_cluster_program, FaultEvent, FaultPlan, SimConfig};

fn machine() -> AtgpuMachine {
    AtgpuMachine::new(1 << 20, 32, 12_288, 1 << 26).unwrap()
}

fn cluster(n: usize) -> ClusterSpec {
    ClusterSpec::homogeneous(n, GpuSpec { k_prime: 2, h_limit: 8, ..GpuSpec::gtx650_like() })
}

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// A random contiguous partition of `[0, blocks)` with random device
/// assignment over `devices` devices — the adversarial input to
/// `Plan::Explicit`.
fn random_plan(rng: &mut Rng, blocks: u64, devices: u32) -> Vec<Shard> {
    let mut cuts = vec![0u64, blocks];
    for _ in 0..rng.below(4) {
        cuts.push(rng.below(blocks + 1));
    }
    cuts.sort_unstable();
    cuts.dedup();
    cuts.windows(2)
        .map(|w| Shard { device: rng.below(devices as u64) as u32, start: w[0], end: w[1] })
        .collect()
}

/// Runs `built` and asserts each output buffer equals `expected` bit for
/// bit.
fn assert_outputs(
    built: &BuiltProgram,
    expected: &[Vec<i64>],
    machine: &AtgpuMachine,
    spec: &ClusterSpec,
    label: &str,
) {
    let config = SimConfig::default();
    let report = run_cluster_program(&built.program, built.inputs.clone(), machine, spec, &config)
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    for (buf, want) in built.outputs.iter().zip(expected) {
        assert_eq!(report.output(*buf), want.as_slice(), "{label}: output mismatch");
    }
}

// The `*_both_engines` names are historical: these run the micro-op
// engine only; the reference is compared on the roster's plans by
// `engine_differential::engine_matches_reference_on_every_roster_launch`.
#[test]
fn stencil_random_plans_both_engines() {
    let m = machine();
    let mut rng = Rng(0x5717);
    for trial in 0..12 {
        let devices = 1 + (trial % 4) as u32;
        let n = 32 * (2 + rng.below(8));
        let rounds = 1 + rng.below(6);
        let w = Stencil::new(n, trial);
        let k = m.blocks_for(n);
        let plan = random_plan(&mut rng, k, devices);
        let built = w.iterated(rounds).build_plan(&m, Plan::Explicit(plan.clone())).unwrap();
        assert_outputs(
            &built,
            &[w.iterated_reference(rounds)],
            &m,
            &cluster(devices as usize),
            &format!("stencil n={n} rounds={rounds} plan={plan:?}"),
        );
    }
}

// Micro-op engine only; the name is historical (see above).
#[test]
fn scan_random_plans_both_engines() {
    let m = machine();
    let mut rng = Rng(0x5ca9);
    for trial in 0..12 {
        let devices = 1 + (trial % 4) as u32;
        let n = 1 + rng.below(5000);
        let w = Scan::new(n, trial);
        let k = m.blocks_for(n);
        let plan = random_plan(&mut rng, k, devices);
        let built = w.build_plan(&m, Plan::Explicit(plan.clone())).unwrap();
        assert_outputs(
            &built,
            &[w.host_reference()],
            &m,
            &cluster(devices as usize),
            &format!("scan n={n} plan={plan:?}"),
        );
    }
}

// Micro-op engine only; the name is historical (see above).
#[test]
fn spmv_random_plans_both_engines() {
    let m = machine();
    let mut rng = Rng(0x59e5);
    for trial in 0..12 {
        let devices = 1 + (trial % 4) as u32;
        let n = 32 * (1 + rng.below(16));
        let k_slots = 1 + rng.below(6);
        let w = SpmvEll::new(n, k_slots, trial);
        let k = m.blocks_for(n);
        let plan = random_plan(&mut rng, k, devices);
        let built = w.build_plan(&m, Plan::Explicit(plan.clone())).unwrap();
        assert_outputs(
            &built,
            &[w.host_reference()],
            &m,
            &cluster(devices as usize),
            &format!("spmv n={n} K={k_slots} plan={plan:?}"),
        );
    }
}

// Micro-op engine only; the name is historical (see above).
#[test]
fn histogram_random_plans_both_engines() {
    let m = machine();
    let mut rng = Rng(0x4157);
    for trial in 0..12 {
        let devices = 1 + (trial % 4) as u32;
        let n = 1 + rng.below(4000);
        let w = Histogram::new(n, m.b, trial);
        let k = m.blocks_for(n);
        let plan = random_plan(&mut rng, k, devices);
        let built = w.build_plan(&m, Plan::Explicit(plan.clone())).unwrap();
        assert_outputs(
            &built,
            &[w.host_reference()],
            &m,
            &cluster(devices as usize),
            &format!("histogram n={n} plan={plan:?}"),
        );
    }
}

#[test]
fn stencil_survives_mid_program_device_loss() {
    // The chaos identity on the halo stencil: device 1 dies at the start
    // of round 3 of 6 — its slab is re-apportioned, its journal replayed
    // onto the survivors, and subsequent halo exchanges are served by the
    // heir.  The output must still be bit-identical to the fault-free
    // iterated reference: faults cost time, never answers.
    let m = machine();
    let w = Stencil::new(256, 21);
    let rounds = 6u64;
    let built = w.build_sharded(&m, 3, rounds).unwrap();
    let mut fault = FaultPlan::new(7);
    fault.push(FaultEvent::DeviceDown { device: 1, at_round: 3 });
    let config = SimConfig { fault, ..SimConfig::default() };
    let report =
        run_cluster_program(&built.program, built.inputs.clone(), &m, &cluster(3), &config)
            .unwrap();
    assert_eq!(report.output(built.outputs[0]), w.iterated_reference(rounds).as_slice());
    let recoveries: u64 = report.device_stats.iter().map(|s| s.recoveries).sum();
    assert!(recoveries > 0, "the loss must be absorbed through recovery, not ignored");
}
