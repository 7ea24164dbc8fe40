//! Analyser-level property tests: exactness of the residue-class
//! coalescing analysis against brute force over a wide shape space,
//! soundness of the bank-conflict fast paths against enumeration, and
//! that devices no step names never move a prediction.

use atgpu_algos::roster::{asym_pair, roster};
use atgpu_analyze::bankconflict::{site_conflict_degree, ConflictDegree};
use atgpu_analyze::coalesce::site_transactions;
use atgpu_analyze::predict;
use atgpu_ir::affine::CompiledAddr;
use atgpu_ir::AddrExpr;
use atgpu_model::{AtgpuMachine, ClusterSpec, GpuSpec};
use proptest::prelude::*;

fn affine_site() -> impl Strategy<Value = AddrExpr> {
    (
        -6i64..7,   // lane coefficient
        -48i64..49, // block x coefficient
        -16i64..17, // block y coefficient
        -12i64..13, // loop-0 coefficient
        0i64..128,  // base
    )
        .prop_map(|(l, bx, by, t0, base)| {
            AddrExpr::lane() * l
                + AddrExpr::block() * bx
                + AddrExpr::block_y() * by
                + AddrExpr::loop_var(0) * t0
                + base
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The fast coalescing count equals brute-force enumeration over the
    /// full (grid × loop × lane) space, for any affine shape.
    #[test]
    fn coalescing_is_exact(
        e in affine_site(),
        gx in 1u64..9,
        gy in 1u64..4,
        trips in 0u32..4,
        buf_base in 0u64..64,
    ) {
        let b = 16u64;
        let addr = CompiledAddr::compile(e.clone());
        let fast = site_transactions(&addr, buf_base, (gx, gy), &[trips], b);
        prop_assert!(fast.exact);

        let mut slow = 0u64;
        for by in 0..gy as i64 {
            for bx in 0..gx as i64 {
                for t in 0..trips {
                    let mut blocks: Vec<i64> = (0..b as i64)
                        .map(|l| {
                            let mut rr = |_| 0i64;
                            (e.eval(l, (bx, by), &[t], &mut rr) + buf_base as i64)
                                .div_euclid(b as i64)
                        })
                        .collect();
                    blocks.sort_unstable();
                    blocks.dedup();
                    slow += blocks.len() as u64;
                }
            }
        }
        prop_assert_eq!(fast.txns, slow);
    }

    /// The analytic bank-conflict degree equals enumeration for static
    /// affine addresses with all lanes active.
    #[test]
    fn conflict_degree_is_exact(lane_c in -40i64..41, base in 0i64..100) {
        let b = 32u64;
        let e = AddrExpr::lane() * lane_c + base;
        let addr = CompiledAddr::compile(e.clone());
        let fast = match site_conflict_degree(&addr, b) {
            ConflictDegree::Exact(d) => d,
            ConflictDegree::DataDependent => unreachable!("static affine site"),
        };
        // Enumerate: distinct addresses per bank, max over banks.
        let mut per_bank: Vec<Vec<i64>> = vec![Vec::new(); b as usize];
        for l in 0..b as i64 {
            let a = base + lane_c * l;
            per_bank[a.rem_euclid(b as i64) as usize].push(a);
        }
        let slow = per_bank
            .iter_mut()
            .map(|v| {
                v.sort_unstable();
                v.dedup();
                v.len() as u64
            })
            .max()
            .unwrap()
            .max(1);
        prop_assert_eq!(fast, slow, "lane_c={}", lane_c);
    }

    /// The extent rule the analyser's footprint check reads is a sound
    /// bounding box: every address the site can produce lies within it.
    #[test]
    fn corners_bound_every_address(
        e in affine_site(),
        gx in 1u64..6,
        gy in 1u64..3,
        trips in 1u32..4,
    ) {
        let b = 8u64;
        let addr = CompiledAddr::compile(e.clone());
        let Some([lo, hi]) = addr.as_affine().and_then(|a| a.corners(u64::MAX, b, (gx, gy), &[trips])) else {
            return Ok(()); // non-affine shapes may be unknown
        };
        let (lo, hi) = (lo.addr, hi.addr);
        for by in 0..gy as i64 {
            for bx in 0..gx as i64 {
                for t in 0..trips {
                    for l in 0..b as i64 {
                        let mut rr = |_| 0i64;
                        let v = i128::from(e.eval(l, (bx, by), &[t], &mut rr));
                        prop_assert!(v >= lo && v <= hi,
                            "addr {} outside [{}, {}]", v, lo, hi);
                    }
                }
            }
        }
    }

    /// Transactions scale exactly linearly when a loop only repeats the
    /// same access (coefficient zero).
    #[test]
    fn pure_repetition_multiplies_txns(gx in 1u64..20, trips in 1u32..20) {
        let b = 32u64;
        let addr = CompiledAddr::compile(AddrExpr::block() * (b as i64) + AddrExpr::lane());
        let one = site_transactions(&addr, 0, (gx, 1), &[], b).txns;
        let many = site_transactions(&addr, 0, (gx, 1), &[trips], b).txns;
        prop_assert_eq!(many, one * u64::from(trips));
    }
}

/// A cluster of `n` devices drawn from the three pinned specs, each host
/// and peer link scaled by a factor from `seed`.
fn mixed_cluster(n: usize, seed: u64) -> ClusterSpec {
    let specs = [GpuSpec::gtx650_like(), GpuSpec::midrange_like(), GpuSpec::highend_like()];
    let mut bits = seed;
    let mut draw = |k: u64| {
        bits = bits.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        (bits >> 33) % k
    };
    let mut c = ClusterSpec::homogeneous(n, specs[0]);
    for d in 0..n {
        c.devices[d] = specs[draw(3) as usize];
        c.host_links[d] = c.devices[d].host_link().scaled(1.0 + draw(8) as f64);
        for e in 0..n {
            c.peer_links[d][e] = c.peer_links[d][e].scaled(1.0 + draw(4) as f64);
        }
    }
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Pricing a program on a cluster and on the prefix of it that the
    /// program names gives the same bits: an idle device adds a 0.0 path
    /// to each round's `max`.  `CostServer` analyses only that prefix.
    #[test]
    fn idle_devices_never_move_a_prediction(
        entry in 0usize..64,
        cell in 0usize..5,
        idle in 1usize..6,
        seed in 0u64..1 << 32,
    ) {
        let machine = AtgpuMachine::gtx650_like();
        let entries = roster();
        let entry = &entries[entry % entries.len()];
        let planned_for = asym_pair(GpuSpec::gtx650_like());
        let mut plans = entry.plans(&machine, &planned_for);
        let (_, plan) = plans.swap_remove(cell % plans.len());
        let program = entry.workload.build_plan(&machine, plan).unwrap().program;
        let named = program.max_device() as usize + 1;
        let spec = mixed_cluster(named + idle, seed);
        let alive: Vec<bool> = (0..named + idle).map(|d| d < named).collect();
        let whole = predict(&program, &machine, &spec).unwrap();
        let prefix = predict(&program, &machine, &spec.surviving(&alive).0).unwrap();
        prop_assert_eq!(whole.cost.total_ms.to_bits(), prefix.cost.total_ms.to_bits(),
            "{}: {} vs {}", entry.name, whole.cost.total_ms, prefix.cost.total_ms);
        prop_assert_eq!(whole.trusted, prefix.trusted);
        prop_assert_eq!(whole.saturated, prefix.saturated);
    }
}
