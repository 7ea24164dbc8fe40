//! Differential property tests for the multi-device cluster layer: a
//! sharded launch must be **bit-identical** to the single-device launch
//! of the same kernel — same final global memory and, per shard, the
//! same statistics from the micro-op engine and the tree-walking
//! reference — for randomized kernels, randomized shard plans (including
//! uneven cuts and several shards on one device), device counts 1–4 and
//! both engine selections.
//!
//! Kernels come from the shared generator (`common/mod.rs`) on its
//! sharded grid, the constraint that makes *all* execution semantics
//! coincide: global reads come only from buffer 0 (never written) and
//! global writes go to block-disjoint addresses of buffer 1 (`i·b + j`).
//! Cross-block
//! visibility and write ordering — undefined in the model — therefore
//! cannot distinguish direct, deferred-log or cross-device execution,
//! so the comparison pins down real divergence only.

use atgpu_ir::Shard;
use atgpu_model::{ClusterSpec, GpuSpec};
use atgpu_sim::cluster::{even_shards, Cluster, ShardStats};
use atgpu_sim::gmem::GlobalMemory;
use atgpu_sim::{Device, EngineSel};
use common::{fill_gmem, gen_kernel, Grid, Rng};
use proptest::prelude::*;

mod common;

/// A randomized shard plan: partitions `0..blocks` at random cut points
/// and assigns each range to a random device in `0..devices` — uneven
/// cuts, idle devices and several shards per device all occur.
fn random_shards(seed: u64, blocks: u64, devices: u32) -> Vec<Shard> {
    let mut g = Rng(seed | 1);
    if g.below(3) == 0 {
        // One case in three uses the planner's even split.
        return even_shards(blocks, devices);
    }
    let mut cuts: Vec<u64> = (0..u64::from(devices) - 1).map(|_| g.below(blocks + 1)).collect();
    cuts.push(0);
    cuts.push(blocks);
    cuts.sort_unstable();
    let mut out = Vec::new();
    for w in cuts.windows(2) {
        if w[1] > w[0] {
            out.push(Shard { device: g.below(u64::from(devices)) as u32, start: w[0], end: w[1] });
        }
    }
    out
}

fn cluster_spec(n: usize) -> ClusterSpec {
    ClusterSpec::homogeneous(n, GpuSpec { k_prime: 2, h_limit: 4, ..GpuSpec::gtx650_like() })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For every device count, shard plan and engine, the cluster's final
    /// global memory is bit-identical to the single-device launch, shard
    /// statistics are bit-identical between the micro-op engine and the
    /// reference interpreter, and the shards together execute exactly the
    /// grid.
    #[test]
    fn cluster_is_bit_identical_to_single_device(seed in 0u64..1_000_000_000) {
        let (kernel, machine, bases, total) = gen_kernel("cdiff", seed, Grid::Sharded);
        let spec = GpuSpec { k_prime: 2, h_limit: 4, ..GpuSpec::gtx650_like() };
        let device = Device::new(machine, spec).unwrap();

        // Single-device baseline, written through.
        let mut g_base = GlobalMemory::new(bases.clone(), total, machine.b, machine.g).unwrap();
        fill_gmem(&mut g_base, total, seed);
        let base = device.run_kernel_with(&kernel, &mut g_base, false, EngineSel::MicroOp);
        let base = match base {
            Ok(s) => s,
            // Error parity has its own tests; the generator keeps the
            // success path, but bail symmetrically if a case errors.
            Err(_) => return Ok(()),
        };

        for devices in [1u32, 2, 3, 4] {
            let cluster = Cluster::new(machine, cluster_spec(devices as usize)).unwrap();
            let shards = random_shards(seed ^ u64::from(devices), kernel.blocks(), devices);
            prop_assert_eq!(shards.iter().map(Shard::blocks).sum::<u64>(), kernel.blocks());

            let mut runs: Vec<Vec<ShardStats>> = Vec::new();
            for engine in [EngineSel::MicroOp, EngineSel::Reference] {
                let mut g = GlobalMemory::new(bases.clone(), total, machine.b, machine.g).unwrap();
                fill_gmem(&mut g, total, seed);
                let stats =
                    cluster.run_sharded_kernel(&kernel, &mut g, &shards, false, engine).unwrap();
                prop_assert_eq!(
                    g.words(),
                    g_base.words(),
                    "memory mismatch: devices={} engine={:?}",
                    devices, engine
                );
                prop_assert_eq!(
                    stats.iter().map(|s| s.stats.blocks).sum::<u64>(),
                    kernel.blocks()
                );
                runs.push(stats);
            }
            // Per-shard stats bit-identical across engines.
            prop_assert_eq!(&runs[0], &runs[1], "engine stats mismatch: devices={}", devices);

            // A one-shard plan on device 0 reproduces the baseline
            // stats exactly (same engine; logged vs written through).
            if devices == 1 && shards.len() == 1 {
                prop_assert_eq!(runs[0][0].stats, base, "one-shard stats differ from device run");
            }
        }
    }

    /// Four random shard plans agree with each other: shard boundaries
    /// must never leak into results.  (The name dates from when two of
    /// the four plans also ran under a second execution mode.)
    #[test]
    fn shard_plan_and_mode_never_change_memory(seed in 0u64..1_000_000_000) {
        let (kernel, machine, bases, total) = gen_kernel("cdiff", seed, Grid::Sharded);
        let cluster = Cluster::new(machine, cluster_spec(3)).unwrap();

        let mut reference: Option<Vec<i64>> = None;
        for salt in [1u64, 2] {
            for plan_seed in [3u64, 4] {
                let shards = random_shards(seed ^ salt ^ (plan_seed << 32), kernel.blocks(), 3);
                let mut g = GlobalMemory::new(bases.clone(), total, machine.b, machine.g).unwrap();
                fill_gmem(&mut g, total, seed);
                cluster
                    .run_sharded_kernel(&kernel, &mut g, &shards, false, EngineSel::MicroOp)
                    .unwrap();
                match &reference {
                    None => reference = Some(g.words().to_vec()),
                    Some(r) => prop_assert_eq!(
                        r.as_slice(),
                        g.words(),
                        "plan changed results: plan={:?}",
                        shards
                    ),
                }
            }
        }
    }
}
