//! Roster-wide pin of "one device is the one-device case": for every
//! single-device workload program, the single-device analysis is the
//! cluster analysis at `n = 1`, row for row and flag for flag.

use atgpu_analyze::{analyze_cluster_program, analyze_program};
use atgpu_model::AtgpuMachine;

#[test]
fn single_device_analysis_is_the_one_device_cluster_analysis() {
    let machine = AtgpuMachine::gtx650_like();
    let roster = atgpu_algos::roster();
    assert!(roster.len() >= 17, "the full workload roster");
    for entry in roster {
        let name = entry.name;
        let p = entry.workload.build(&machine).unwrap().program;
        let single = analyze_program(&p, &machine).unwrap();
        let cluster = analyze_cluster_program(&p, &machine, 1).unwrap();
        assert_eq!(cluster.per_device.len(), 1, "{name}");
        assert_eq!(single.metrics(), cluster.per_device[0], "{name}: rows");
        assert_eq!(single.io_exact, cluster.io_exact, "{name}: io_exact");
        assert_eq!(single.conflict_free, cluster.conflict_free, "{name}: conflict_free");
        assert_eq!(single.global_words, cluster.global_words, "{name}: global_words");
        assert!(cluster.peer.iter().all(Vec::is_empty), "{name}: peer traffic");
        // Every round that launches keeps its kernel view, on both sides.
        for (i, round) in single.rounds.iter().enumerate() {
            let launched = p.rounds[i].kernel().map(|k| &k.name);
            assert_eq!(round.kernel.as_ref().map(|k| &k.name), launched, "{name}: round {i}");
        }
    }
}

/// `predict` is the analyse → schedule → price triple and the trust
/// rule, bit for bit, on every roster × plan cell.
#[test]
fn predict_is_the_hand_written_triple_on_every_roster_cell() {
    use atgpu_analyze::{predict, stream_schedules};
    use atgpu_model::cost::cluster_cost_streamed;
    use atgpu_model::{ClusterSpec, GpuSpec};

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
