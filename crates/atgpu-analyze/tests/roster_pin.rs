//! Roster-wide pins of the analysis door: a lone device is the
//! one-device cluster, and `predict` is the analyse → schedule → price
//! triple.

use atgpu_analyze::{analyze_cluster_program, AnalyzeError};
use atgpu_model::{AtgpuMachine, GpuSpec};

/// Every single-device roster build answers `lone_device` with its one
/// table, and every roster × plan cell that addresses a second device is
/// refused with `MultiDevice`: even3 and explicit always, planned on
/// `asym_pair` wherever the planner uses both devices (at roster sizes it
/// keeps every program on device 0, which answers).
#[test]
fn lone_device_answers_every_single_device_build_and_refuses_every_multi_device_cell() {
    let machine = AtgpuMachine::gtx650_like();
    let asym = atgpu_algos::roster::asym_pair(GpuSpec::gtx650_like());
    let roster = atgpu_algos::roster();
    assert!(roster.len() >= 17, "the full workload roster");
    let mut refused = 0;
    for entry in roster {
        let name = entry.name;
        let p = entry.workload.build(&machine).unwrap().program;
        let a = analyze_cluster_program(&p, &machine, 1).unwrap();
        assert_eq!(a.lone_device().unwrap(), &a.per_device[0], "{name}");
        // Every round that launches keeps its kernel view.
        assert_eq!(a.kernels.len(), p.rounds.len(), "{name}: kernel views");
        for (i, (view, round)) in a.kernels.iter().zip(&p.rounds).enumerate() {
            let launched = round.kernel().map(|k| &k.name);
            assert_eq!(view.as_ref().map(|k| &k.name), launched, "{name}: round {i}");
        }
        for (plan_name, plan) in entry.plans(&machine, &asym) {
            let cell = format!("{name} ({plan_name})");
            let p = entry.workload.build_plan(&machine, plan).unwrap().program;
            let multi = p.max_device() > 0;
            if matches!(plan_name, "even3" | "explicit") {
                assert!(multi, "{cell}");
            }
            let a = analyze_cluster_program(&p, &machine, 1).unwrap();
            match a.lone_device() {
                Ok(table) => assert!(!multi && table == &a.per_device[0], "{cell}"),
                Err(AnalyzeError::MultiDevice { .. }) if multi => refused += 1,
                Err(e) => panic!("{cell}: {e}"),
            }
        }
    }
    // even3 and explicit of the eight shardable entries.
    assert_eq!(refused, 16, "every multi-device roster × plan cell");
}

/// `predict` is the analyse → schedule → price triple and the trust
/// rule, bit for bit, on every roster × plan cell.
#[test]
fn predict_is_the_hand_written_triple_on_every_roster_cell() {
    use atgpu_analyze::{predict, stream_schedules};
    use atgpu_model::cost::cluster_cost_streamed;
    use atgpu_model::ClusterSpec;

    let machine = AtgpuMachine::gtx650_like();
    let asym = atgpu_algos::roster::asym_pair(GpuSpec::gtx650_like());
    let mut cells = 0;
    for entry in atgpu_algos::roster() {
        for (plan_name, plan) in entry.plans(&machine, &asym) {
            let cell = format!("{} ({plan_name})", entry.name);
            let p = entry.workload.build_plan(&machine, plan).unwrap().program;
            // The planned cell on the cluster it was planned for, every
            // other on identical devices.
            let cluster = if plan_name == "planned" {
                asym.clone()
            } else {
                ClusterSpec::homogeneous(p.max_device() as usize + 1, GpuSpec::gtx650_like())
            };
            let n = cluster.n_devices() as u32;
            let a = analyze_cluster_program(&p, &machine, n).unwrap();
            let scheds = stream_schedules(&p, n);
            let cost =
                cluster_cost_streamed(&cluster, &machine, &a.per_device, &scheds, &a.peer).unwrap();
            let got = predict(&p, &machine, &cluster).unwrap();
            assert_eq!(got.cost.total_ms.to_bits(), cost.total_ms.to_bits(), "{cell}: total");
            assert_eq!(got.cost, cost, "{cell}: breakdown");
            assert_eq!(got.trusted, a.io_exact && a.conflict_free, "{cell}: trusted");
            cells += 1;
        }
    }
    assert_eq!(cells, 50, "every roster × plan cell");
}
