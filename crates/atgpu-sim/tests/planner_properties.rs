//! Property tests for the cost-driven shard planner: on random clusters
//! (random device generations, random link asymmetries) and random
//! workload profiles, the plan [`atgpu_sim::planned_shards`] returns
//! must price **no worse than either heuristic candidate** — the even
//! split and the compute-weighted split — under the same analytic
//! objective, and must always be a partition of the grid.

use atgpu_ir::Shard;
use atgpu_model::{
    plan, AtgpuMachine, ClusterSpec, GpuSpec, LinkParams, PeerProfile, ShardProfile,
};
use atgpu_sim::{even_shards, planned_shards, shard_counts, weighted_shards};
use common::Rng;
use proptest::prelude::*;

mod common;

/// The link multipliers `rng.scale` draws from.
const SCALES: [f64; 7] = [0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0];

fn random_cluster(rng: &mut Rng) -> ClusterSpec {
    let n = 1 + rng.below(4) as usize;
    let base = [GpuSpec::gtx650_like(), GpuSpec::midrange_like(), GpuSpec::highend_like()];
    let mut spec = ClusterSpec::homogeneous(n, base[rng.below(3) as usize]);
    for d in 0..n {
        let g = base[rng.below(3) as usize];
        spec.devices[d] = GpuSpec { k_prime: 1 + rng.below(16), ..g };
        spec.host_links[d] = LinkParams {
            alpha_ms: g.xfer_alpha_ms * rng.scale(&SCALES),
            beta_ms_per_word: g.xfer_beta_ms_per_word * rng.scale(&SCALES),
        };
    }
    spec
}

fn random_profile(rng: &mut Rng) -> ShardProfile {
    let b = 32u64;
    // Half the profiles carry peer traffic (halo and/or merge/scatter to
    // an owner), exercising the peer-aware candidates and pricing.
    let peer = if rng.below(2) == 0 {
        PeerProfile::default()
    } else {
        PeerProfile {
            halo_words: rng.below(3) * b,
            halo_txns: 1,
            merge_words_per_unit: rng.below(3),
            merge_words_fixed: rng.below(2) * b,
            merge_txns: 1,
            scatter_words_per_unit: rng.below(2),
            scatter_txns: 1,
            owner: 0,
        }
    };
    ShardProfile {
        time_ops: 1 + rng.below(100_000),
        io_blocks_per_unit: rng.below(64),
        inward_words_per_unit: rng.below(8) * b,
        inward_txns: 1 + rng.below(3),
        outward_words_per_unit: rng.below(4) * b,
        outward_txns: 1,
        broadcast_words: rng.below(2) * 4096,
        broadcast_txns: 1,
        shared_words: 3 * b,
        blocks_per_unit: 1 + rng.below(8),
        rounds: 1 + rng.below(4),
        peer,
        ..ShardProfile::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The planner's modeled round time is ≤ min(even, weighted) — the
    /// defining guarantee of pricing candidates instead of guessing —
    /// and its plan partitions the grid contiguously.
    #[test]
    fn planned_cost_at_most_even_and_weighted(seed in 0u64..1_000_000_000) {
        let mut rng = Rng(seed | 1);
        let cluster = random_cluster(&mut rng);
        let machine = AtgpuMachine::gtx650_like();
        let profile = random_profile(&mut rng);
        let units = 1 + rng.below(5000);
        let n = cluster.n_devices();

        let planned = planned_shards(units, &cluster, &machine, &profile);

        // A contiguous partition of [0, units).
        prop_assert_eq!(planned.iter().map(Shard::blocks).sum::<u64>(), units);
        let mut cursor = 0;
        for s in &planned {
            prop_assert_eq!(s.start, cursor, "gap in plan: {:?}", planned);
            prop_assert!(s.blocks() > 0);
            prop_assert!((s.device as usize) < n);
            cursor = s.end;
        }

        // Modeled round time ≤ both heuristic candidates.
        let cost = |s: &[Shard]| plan::plan_cost(&cluster, &machine, &profile, &shard_counts(s, n));
        let c_planned = cost(&planned).expect("planned plan must price");
        let c_even = cost(&even_shards(units, n as u32)).expect("even plan must price");
        let c_weighted = cost(&weighted_shards(units, &cluster)).expect("weighted plan must price");
        prop_assert!(
            c_planned <= c_even + 1e-9,
            "planned {} > even {} on {:?}",
            c_planned, c_even, cluster
        );
        prop_assert!(
            c_planned <= c_weighted + 1e-9,
            "planned {} > weighted {} on {:?}",
            c_planned, c_weighted, cluster
        );
    }

}
