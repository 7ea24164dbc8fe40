//! Differential property tests for the cross-launch kernel cache: a
//! launch served from the cache — reusing the compiled micro-op program
//! — must be **bit-identical** to a cold launch in final memory, per-launch
//! statistics and behaviour, for randomized kernels, both write targets,
//! single devices and sharded clusters.  Structural mutation of one
//! instruction must change the cache key (no false hits).
//!
//! Kernels come from the shared generator (`common/mod.rs`) on its
//! sharded grid, as in `cluster_differential.rs`: global reads from
//! buffer 0 only, block-disjoint writes into buffer 1, so results
//! are engine/order-independent and any divergence the comparison finds
//! is real.

use atgpu_ir::{AddrExpr, AluOp, DBuf, Instr, Kernel, KernelBuilder, Operand};
use atgpu_model::{AtgpuMachine, ClusterSpec, GpuSpec};
use atgpu_sim::cache::DEFAULT_CACHE_CAPACITY;
use atgpu_sim::cluster::{even_shards, Cluster};
use atgpu_sim::gmem::GlobalMemory;
use atgpu_sim::{Device, EngineSel};
use common::{fill_gmem, gen_kernel, Grid};
use proptest::prelude::*;

mod common;

fn spec() -> GpuSpec {
    GpuSpec { k_prime: 2, h_limit: 4, ..GpuSpec::gtx650_like() }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A second launch of the same kernel on the same device — served
    /// from the cache — is bit-identical to the cold first launch *and*
    /// to the only launch of a fresh device, in memory and statistics.
    #[test]
    fn cached_launch_is_bit_identical_to_cold(seed in 0u64..1_000_000_000) {
        let (kernel, machine, bases, total) = gen_kernel("cache", seed, Grid::Sharded);
        let cached_dev = Device::new(machine, spec()).unwrap();
        let cold_dev = Device::new(machine, spec()).unwrap();

        let run = |dev: &Device| {
            let mut g = GlobalMemory::new(bases.clone(), total, machine.b, machine.g).unwrap();
            fill_gmem(&mut g, total, seed);
            dev.run_kernel_with(&kernel, &mut g, false, EngineSel::MicroOp)
                .map(|stats| (stats, g.words().to_vec()))
        };

        let Ok((cold_stats, cold_mem)) = run(&cached_dev) else { return Ok(()) };
        let (warm_stats, warm_mem) = run(&cached_dev).expect("warm launch succeeds");
        let (off_stats, off_mem) = run(&cold_dev).expect("fresh-device launch succeeds");

        prop_assert_eq!(&warm_mem, &cold_mem, "cached memory differs");
        prop_assert_eq!(warm_stats, cold_stats, "cached stats differ");
        prop_assert_eq!(&off_mem, &cold_mem, "fresh-device memory differs");
        prop_assert_eq!(off_stats, cold_stats, "fresh-device stats differ");

        // The second launch really was a cache hit, and the fresh
        // device's launch a miss.
        let c = cached_dev.stats().cache;
        prop_assert_eq!((c.hits, c.misses, c.entries), (1, 1, 1));
        let c = cold_dev.stats().cache;
        prop_assert_eq!((c.hits, c.misses, c.entries), (0, 1, 1));
    }

    /// Sharded launches across a 2-device cluster: repeating the launch
    /// hits every device's cache and reproduces memory and per-shard
    /// statistics bit for bit (a launch-level sharded run is logged, so
    /// this is also the cached launch under the deferred-write target).
    #[test]
    fn cluster_cache_is_bit_identical(seed in 0u64..1_000_000_000) {
        let (kernel, machine, bases, total) = gen_kernel("cache", seed, Grid::Sharded);
        let cspec = ClusterSpec::homogeneous(2, spec());
        let shards = even_shards(kernel.blocks(), 2);
        let cluster = Cluster::new(machine, cspec).unwrap();
        let run = |cluster: &Cluster| {
            let mut g = GlobalMemory::new(bases.clone(), total, machine.b, machine.g).unwrap();
            fill_gmem(&mut g, total, seed);
            cluster
                .run_sharded_kernel(&kernel, &mut g, &shards, false, EngineSel::MicroOp)
                .map(|stats| (stats, g.words().to_vec()))
        };
        let Ok((cold_stats, cold_mem)) = run(&cluster) else { return Ok(()) };
        let (warm_stats, warm_mem) = run(&cluster).expect("warm cluster launch succeeds");
        prop_assert_eq!(&warm_mem, &cold_mem, "cluster cached memory differs");
        prop_assert_eq!(&warm_stats, &cold_stats, "cluster cached stats differ");
        for d in 0..2u32 {
            let c = cluster.device(d).unwrap().stats().cache;
            prop_assert_eq!((c.hits, c.misses), (1, 1), "device {} cache counters", d);
        }
    }

    /// No false hits: mutating one instruction (or the grid, or the
    /// shared footprint) changes the structural cache key, and launching
    /// the mutant on a warm device misses — its results match a fresh
    /// device's, never the cached original.
    #[test]
    fn mutation_changes_cache_key(seed in 0u64..1_000_000_000) {
        let (kernel, machine, bases, total) = gen_kernel("cache", seed, Grid::Sharded);

        // Structural mutations all change the key.
        let mut mutated = kernel.clone();
        mutated.body.push(Instr::Alu {
            op: AluOp::Xor,
            dst: 0,
            a: Operand::Reg(0),
            b: Operand::Imm(1),
        });
        prop_assert_ne!(kernel.cache_key(), mutated.cache_key());
        let mut regrid = kernel.clone();
        regrid.grid = (kernel.grid.0 + 1, kernel.grid.1);
        prop_assert_ne!(kernel.cache_key(), regrid.cache_key());
        let mut reshared = kernel.clone();
        reshared.shared_words += 1;
        prop_assert_ne!(kernel.cache_key(), reshared.cache_key());

        // Renaming alone keeps the key (shared entry, by design).
        let mut renamed = kernel.clone();
        renamed.name = format!("{}_renamed", kernel.name);
        prop_assert_eq!(kernel.cache_key(), renamed.cache_key());

        // The mutant misses on a device warmed with the original, and
        // executes exactly like a never-cached launch of itself.
        let warm = Device::new(machine, spec()).unwrap();
        let fresh = Device::new(machine, spec()).unwrap();
        let run = |dev: &Device, k: &Kernel| {
            let mut g = GlobalMemory::new(bases.clone(), total, machine.b, machine.g).unwrap();
            fill_gmem(&mut g, total, seed);
            dev.run_kernel_with(k, &mut g, false, EngineSel::MicroOp)
                .map(|stats| (stats, g.words().to_vec()))
        };
        let Ok(_) = run(&warm, &kernel) else { return Ok(()) };
        let Ok((mut_stats, mut_mem)) = run(&warm, &mutated) else { return Ok(()) };
        prop_assert_eq!(warm.stats().cache.hits, 0, "mutant must not hit the original's entry");
        prop_assert_eq!(warm.stats().cache.misses, 2);
        let (fresh_stats, fresh_mem) = run(&fresh, &mutated).expect("fresh mutant run succeeds");
        prop_assert_eq!(&mut_mem, &fresh_mem, "mutant results contaminated by cache");
        prop_assert_eq!(mut_stats, fresh_stats);
    }

    /// One device alternating two kernels — the second with more
    /// registers and shared words — so a launch's predecessor is the
    /// other kernel, or (on a repeat) its own: the counters follow the
    /// one rule, a miss per distinct key and a hit for every other
    /// launch, and each launch is bit-identical to its kernel's launch on
    /// a fresh device.
    #[test]
    fn alternating_kernels_count_by_the_one_rule(seed in 0u64..1_000_000_000) {
        let (one, machine, bases, total) = gen_kernel("cache", seed, Grid::Sharded);
        let mut two = one.clone();
        two.shared_words += 2 * machine.b;
        two.body.push(Instr::Alu { op: AluOp::Xor, dst: 11, a: Operand::Reg(0), b: Operand::Lane });
        let run = |dev: &Device, k: &Kernel| {
            let mut g = GlobalMemory::new(bases.clone(), total, machine.b, machine.g).unwrap();
            fill_gmem(&mut g, total, seed);
            dev.run_kernel_with(k, &mut g, false, EngineSel::MicroOp)
                .map(|stats| (stats, g.words().to_vec()))
        };
        let fresh = |k: &Kernel| run(&Device::new(machine, spec()).unwrap(), k);
        let (Ok(fresh_one), Ok(fresh_two)) = (fresh(&one), fresh(&two)) else { return Ok(()) };

        let device = Device::new(machine, spec()).unwrap();
        let order = [0, 1, 0, 1, 1, 0, 0, 1, 0];
        for (i, &which) in order.iter().enumerate() {
            let (k, expect) = if which == 0 { (&one, &fresh_one) } else { (&two, &fresh_two) };
            let got = run(&device, k).expect("what runs on a fresh device runs here");
            prop_assert_eq!(&got, expect, "launch {} of kernel {}", i, which);
        }
        let c = device.stats().cache;
        prop_assert_eq!((c.hits, c.misses, c.entries), (order.len() as u64 - 2, 2, 2));
    }
}

/// The bound is a constant of the device: `DEFAULT_CACHE_CAPACITY + 1`
/// distinct tiny kernels through one `Device` leave exactly
/// `DEFAULT_CACHE_CAPACITY` entries (FIFO evicted the first), so the
/// first one re-misses and the newest one hits.
#[test]
fn device_cache_holds_the_default_capacity_and_evicts_fifo() {
    let b = 4u64;
    let machine = AtgpuMachine::new(1 << 12, b, 64, 1 << 16).unwrap();
    let device = Device::new(machine, spec()).unwrap();
    let mut gmem = GlobalMemory::new(vec![0, b], 2 * b, b, 1 << 16).unwrap();
    let kernel = |i: usize| {
        let mut kb = KernelBuilder::new(format!("k{i}"), 1, 2 * b);
        kb.glb_to_shr(AddrExpr::lane(), DBuf(0), AddrExpr::lane());
        kb.mov(0, Operand::Imm(i as i64));
        kb.st_shr(AddrExpr::lane(), Operand::Reg(0));
        kb.shr_to_glb(DBuf(1), AddrExpr::lane(), AddrExpr::lane());
        kb.build()
    };
    let mut launch = |i: usize| {
        device.run_kernel_with(&kernel(i), &mut gmem, false, EngineSel::MicroOp).unwrap();
        device.stats().cache
    };
    for i in 0..=DEFAULT_CACHE_CAPACITY {
        launch(i);
    }
    let misses = DEFAULT_CACHE_CAPACITY as u64 + 1;
    let c = launch(DEFAULT_CACHE_CAPACITY);
    assert_eq!((c.hits, c.misses, c.entries), (1, misses, DEFAULT_CACHE_CAPACITY), "newest hits");
    let c = launch(0);
    assert_eq!(
        (c.hits, c.misses, c.entries),
        (1, misses + 1, DEFAULT_CACHE_CAPACITY),
        "first re-misses"
    );
}
