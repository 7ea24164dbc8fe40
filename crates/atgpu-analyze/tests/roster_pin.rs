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
