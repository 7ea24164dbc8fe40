//! Every `atgpu-algos` builder output must verify clean: no proven
//! race, no proven out-of-bounds access, and (for the regular affine
//! workloads) a *proven* `RaceFree` verdict — the static form of the
//! bit-identity-under-any-shard-plan guarantee the differential suites
//! check dynamically.  This is the CI gate the verifier exists for.

#![allow(clippy::unwrap_used, clippy::indexing_slicing, clippy::panic)]

use atgpu_algos::ooc::OocVecAdd;
use atgpu_algos::roster::asym_pair;
use atgpu_algos::workload::{test_machine, test_spec, BuiltProgram};
use atgpu_algos::RosterEntry;
use atgpu_model::ClusterSpec;
use atgpu_verify::{verify_program, RaceVerdict, VerifyReport};

fn check(name: &str, built: &BuiltProgram) -> VerifyReport {
    let machine = test_machine();
    let report = verify_program(&built.program, machine.b);
    assert!(
        report.is_sound(),
        "workload `{name}` must verify clean, got: {}",
        report.first_unsoundness().unwrap()
    );
    assert!(
        report.lints.is_empty(),
        "workload `{name}` should be lint-free, got: {:?}",
        report.lints
    );
    report
}

/// Checks every plan cell of `entry` that `keep` selects; returns how
/// many it checked.
fn check_cells(entry: &RosterEntry, keep: impl Fn(&str) -> bool) -> usize {
    let machine = test_machine();
    let cluster = asym_pair(test_spec());
    let cells = entry.plans(&machine, &cluster);
    let mut checked = 0;
    for (plan_name, plan) in cells.into_iter().filter(|(name, _)| keep(name)) {
        let name = format!("{}/{plan_name}", entry.name);
        let report = check(&name, &entry.workload.build_plan(&machine, plan).unwrap());
        // Data-dependent scatters are `Unknown` by design — the
        // differential suites own those — but the affine workloads must
        // be proven.
        if entry.race_free {
            assert!(
                report.all_race_free(),
                "workload `{name}` should be *proven* race-free, got: {:?}",
                report.launches.iter().map(|l| (&l.kernel, &l.race)).collect::<Vec<_>>()
            );
        }
        // No workload is proven racy, ever.
        assert!(report.launches.iter().all(|l| !matches!(l.race, RaceVerdict::Racy(_))));
        checked += 1;
    }
    checked
}

#[test]
fn all_workloads_verify_clean() {
    let roster = atgpu_algos::roster();
    assert!(roster.len() >= 17, "the full workload roster");
    for entry in &roster {
        assert_eq!(check_cells(entry, |plan| plan == "single"), 1, "{}", entry.name);
    }
}

#[test]
fn sharded_and_planned_variants_verify_clean() {
    let cells: usize =
        atgpu_algos::roster().iter().map(|e| check_cells(e, |plan| plan != "single")).sum();
    assert!(cells >= 8 * 4, "eight shardable workloads, four sharded plans each: {cells}");
}

#[test]
fn streamed_variants_verify_clean() {
    let machine = test_machine();
    let ooc = OocVecAdd::new(8192, 2048, 9);
    check("ooc-streamed", &ooc.build_streamed(&machine).unwrap());

    let cluster = ClusterSpec::homogeneous(3, test_spec());
    let matmul = atgpu_algos::matmul::MatMul::new(96, 10);
    check("matmul-streamed", &matmul.build_sharded_streamed(&machine, 3, 1).unwrap());
    check("matmul-pipelined", &matmul.build_sharded_pipelined(&machine, &cluster).unwrap());
}
