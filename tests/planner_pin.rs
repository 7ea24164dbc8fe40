//! Bit-identity pin of the shard planner: per-device unit counts of the
//! even, compute-weighted and cost-driven plans, and of the takeover of
//! each single dead device, over seeded random clusters (mixed
//! generations, asymmetric host and peer links) × random profiles (peer
//! halo / merge / scatter terms, row-imbalanced `unit_*` vectors) ×
//! random unit counts.  The table in `planner_pin.tsv` was generated at
//! the commit before apportionment moved from `atgpu-sim` into
//! `atgpu-model::plan` (the takeover column by the survivor sub-cluster
//! re-plan `run_sharded_launch` did inline there); a refactor of the
//! planner must leave every row as it is.  On a mismatch the failure
//! message prints the actual table.

use atgpu::model::{
    plan, AtgpuMachine, ClusterSpec, GpuSpec, LinkParams, PeerProfile, ShardProfile,
};
use atgpu::sim::{even_shards, planned_shards, shard_counts, weighted_shards};
use std::fmt::Write as _;

const CELLS: u64 = 240;

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

    /// A multiplier in {1/8, 1/4, 1/2, 1, 2, 4, 8}.
    fn scale(&mut self) -> f64 {
        [0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0][self.below(7) as usize]
    }
}

/// 1–4 devices (mostly 2–4) of random generation and MP count behind
/// randomly scaled host links; every other cluster also scales each
/// directed peer edge.
fn random_cluster(rng: &mut Rng) -> ClusterSpec {
    let n = if rng.below(8) == 0 { 1 } else { 2 + rng.below(3) as usize };
    let base = [GpuSpec::gtx650_like(), GpuSpec::midrange_like(), GpuSpec::highend_like()];
    let mut spec = ClusterSpec::homogeneous(n, base[rng.below(3) as usize]);
    for d in 0..n {
        let g = base[rng.below(3) as usize];
        spec.devices[d] = GpuSpec { k_prime: 1 + rng.below(16), ..g };
        spec.host_links[d] = LinkParams {
            alpha_ms: g.xfer_alpha_ms * rng.scale(),
            beta_ms_per_word: g.xfer_beta_ms_per_word * rng.scale(),
        };
    }
    if rng.below(2) == 0 {
        for s in 0..n {
            for d in (0..n).filter(|&d| d != s) {
                spec.peer_links[s][d] = spec.peer_links[s][d].scaled(rng.scale());
            }
        }
    }
    spec
}

/// A random profile over `units` units: half carry peer traffic (owner
/// anywhere in the cluster), a third carry per-unit override vectors
/// (sometimes shorter than the grid, so the scalar tail applies).
fn random_profile(rng: &mut Rng, n: usize, units: u64) -> ShardProfile {
    let b = 32u64;
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
            owner: rng.below(n as u64) as u32,
        }
    };
    let unit_vec = |rng: &mut Rng, scale: u64| -> Vec<u64> {
        let len = if rng.below(4) == 0 { units / 2 } else { units };
        (0..len).map(|_| (1 + rng.below(16)) * scale).collect()
    };
    let (unit_inward_words, unit_io_blocks) = match rng.below(6) {
        0 => (unit_vec(rng, b), Vec::new()),
        1 => (unit_vec(rng, b), unit_vec(rng, 1)),
        _ => (Vec::new(), Vec::new()),
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
        unit_inward_words,
        unit_io_blocks,
    }
}

fn join(counts: &[u64]) -> String {
    counts.iter().map(u64::to_string).collect::<Vec<_>>().join("/")
}

fn cells() -> String {
    let machine = AtgpuMachine::gtx650_like();
    let mut out = String::new();
    for cell in 0..CELLS {
        let mut rng = Rng(0x5EED_0000_0000_0001 ^ cell.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let cluster = random_cluster(&mut rng);
        let n = cluster.n_devices();
        // Mostly mid-sized grids; every eighth cell is tiny (fewer units
        // than devices, or none).
        let units = if cell % 8 == 7 { rng.below(4) } else { 1 + rng.below(3000) };
        let profile = random_profile(&mut rng, n, units);
        let dead_units = 1 + rng.below(2000);

        let counts = |shards: &[atgpu::ir::Shard]| join(&shard_counts(shards, n));
        write!(
            out,
            "cell{cell}\tn={n}\tunits={units}\teven={}\tweighted={}\tplanned={}",
            counts(&even_shards(units, n as u32)),
            counts(&weighted_shards(units, &cluster)),
            counts(&planned_shards(units, &cluster, &machine, &profile)),
        )
        .expect("writing to a String");
        // Each single device loss (a lone device has no survivors).
        for dead in (0..n).filter(|_| n > 1) {
            let mut alive = vec![true; n];
            alive[dead] = false;
            let take = plan::takeover_units(&cluster, &machine, &alive, dead_units);
            write!(out, "\tdead{dead}:{dead_units}={}", join(&take)).expect("writing to a String");
        }
        out.push('\n');
    }
    out
}

#[test]
fn planner_outputs_match_the_pinned_table() {
    let actual = cells();
    let pinned = include_str!("planner_pin.tsv");
    assert!(
        actual == pinned,
        "planner outputs differ from tests/planner_pin.tsv; actual table:\n{actual}"
    );
}
