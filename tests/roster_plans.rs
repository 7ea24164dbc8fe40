//! Every workload × plan cell: each `atgpu_algos::roster()` entry under
//! `Plan::Single`, and every shardable one under an even split over one
//! and three devices, the cost-driven plan for a link-asymmetric pair and
//! an explicit uneven plan with its devices out of order.  Each cell must
//! be statically sound (proven race-free where the roster says so) and
//! reproduce the host reference on the cluster simulator; the one-device
//! even split must reproduce the single-device program's outputs; and the
//! two write disciplines of a launch — written through (the default:
//! nothing reads a log) and logged + merged in block order (here forced
//! by a fault plan whose one event, a straggler at clock factor 1, changes
//! no number) — must give the same report, trace included.

use atgpu::algos::roster::asym_pair;
use atgpu::algos::workload::{test_machine, test_spec, verify_built_on_cluster};
use atgpu::model::ClusterSpec;
use atgpu::sim::{FaultEvent, FaultPlan, SimConfig};

#[test]
fn every_cell_is_sound_and_matches_its_reference() {
    let machine = test_machine();
    let asym = asym_pair(test_spec());
    let wide = ClusterSpec::homogeneous(3, test_spec());
    let (mut cells, mut sharded_cells) = (0, 0);
    for entry in atgpu::algos::roster() {
        let expected = entry.workload.expected();
        let mut single_outputs = None;
        for (plan_name, plan) in entry.plans(&machine, &asym) {
            let cell = format!("{}/{plan_name}", entry.name);
            let built = entry
                .workload
                .build_plan(&machine, plan)
                .unwrap_or_else(|e| panic!("{cell} must build: {e}"));

            let verdict = atgpu::verify::verify_program(&built.program, machine.b);
            assert!(verdict.is_sound(), "{cell}: {:?}", verdict.first_unsoundness());
            if entry.race_free {
                assert!(verdict.all_race_free(), "{cell} must be proven race-free");
            }

            let cluster = if plan_name == "planned" { &asym } else { &wide };
            let run = |fault: FaultPlan| {
                let logged = !fault.is_empty();
                let config = SimConfig { trace: true, fault, ..SimConfig::default() };
                verify_built_on_cluster(&built, &expected, &machine, cluster, &config)
                    .unwrap_or_else(|e| panic!("{cell} (logged={logged}): {e}"))
            };
            let mut journaled = FaultPlan::new(0);
            journaled.push(FaultEvent::Straggler { device: 0, clock_factor: 1.0 });
            let (report, logged) = (run(FaultPlan::default()), run(journaled));
            assert_eq!(report.rounds, logged.rounds, "{cell}: rounds");
            assert_eq!(report.device_stats, logged.device_stats, "{cell}: device stats");
            assert_eq!(report.trace, logged.trace, "{cell}: trace");
            assert!(report.trace.as_ref().is_some_and(|t| !t.spans.is_empty()), "{cell}");
            let outputs_of = |r: &atgpu::sim::ClusterSimReport| -> Vec<Vec<i64>> {
                built.outputs.iter().map(|h| r.output(*h).to_vec()).collect()
            };
            let outputs = outputs_of(&report);
            assert_eq!(outputs, outputs_of(&logged), "{cell}: outputs");
            match plan_name {
                "single" => single_outputs = Some(outputs),
                "even1" => assert_eq!(single_outputs.as_ref(), Some(&outputs), "{cell}"),
                _ => {}
            }
            cells += 1;
            sharded_cells += usize::from(plan_name != "single");
        }
    }
    assert!(cells - sharded_cells >= 17, "the full workload roster: {cells}");
    assert!(sharded_cells >= 8 * 4, "eight shardable workloads × four plans: {sharded_cells}");
}
