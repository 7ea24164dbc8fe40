//! Property-based tests on the core invariants, spanning the IR, the
//! analyser, the cost model and the simulator.

use atgpu::algos::verify_on_sim;
use atgpu::algos::{reduce::Reduce, reduce::ReduceVariant, scan::Scan, vecadd::VecAdd};
use atgpu::analyze::coalesce::{lane_block_count, residue_histogram, site_transactions};
use atgpu::ir::affine::{lower, CompiledAddr};
use atgpu::ir::AddrExpr;
use atgpu::model::cost::{evaluate, CostModel};
use atgpu::model::{AlgoMetrics, AtgpuMachine, GpuSpec, RoundMetrics};
use atgpu::sim::SimConfig;
use proptest::prelude::*;

fn machine() -> AtgpuMachine {
    AtgpuMachine::gtx650_like()
}

fn spec() -> GpuSpec {
    GpuSpec { k_prime: 2, h_limit: 8, ..GpuSpec::gtx650_like() }
}

/// Strategy: random affine-ish address expression trees.
fn addr_expr() -> impl Strategy<Value = AddrExpr> {
    let leaf = prop_oneof![
        (-64i64..64).prop_map(AddrExpr::Const),
        Just(AddrExpr::Lane),
        Just(AddrExpr::Block),
        Just(AddrExpr::BlockY),
        (0u8..2).prop_map(AddrExpr::LoopVar),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| AddrExpr::Add(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| AddrExpr::Sub(Box::new(a), Box::new(b))),
            (inner, (-8i64..8))
                .prop_map(|(a, c)| AddrExpr::Mul(Box::new(a), Box::new(AddrExpr::Const(c)))),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Affine lowering is semantics-preserving: the lowered record
    /// evaluates identically to the tree everywhere.
    #[test]
    fn lowering_preserves_semantics(
        e in addr_expr(),
        lane in 0i64..32,
        bx in 0i64..64,
        by in 0i64..64,
        i0 in 0u32..8,
        i1 in 0u32..8,
    ) {
        if let Some(a) = lower(&e) {
            let mut rr = |_| 0i64;
            let tree = e.eval(lane, (bx, by), &[i0, i1], &mut rr);
            let aff = a.eval(lane, (bx, by), &[i0, i1], |_| 0);
            prop_assert_eq!(tree, aff);
        }
    }

    /// A full warp's coalesced transaction count is always within
    /// `[1, b]` per instance.
    #[test]
    fn lane_block_count_bounds(base in -1000i64..1000, stride in -40i64..40) {
        let b = 32u64;
        let c = lane_block_count(base, stride, b, b);
        prop_assert!(c >= 1 && c <= b, "count {} out of [1, {}]", c, b);
    }

    /// Residue histograms conserve mass and stay within b buckets.
    #[test]
    fn residue_histogram_mass(count in 0u64..5000, coef in -100i64..100) {
        let b = 32u64;
        let h = residue_histogram(count, coef, b);
        prop_assert_eq!(h.len(), 32);
        prop_assert_eq!(h.iter().sum::<u64>(), count);
    }

    /// The residue-class coalescing analysis is exact: it matches
    /// brute-force enumeration for random affine sites.
    #[test]
    fn coalescing_matches_brute_force(
        lane_c in -4i64..5,
        block_c in 0i64..40,
        loop_c in -8i64..9,
        base in 0i64..64,
        gx in 1u64..12,
        gy in 1u64..3,
        trips in 0u32..5,
    ) {
        let b = 8u64;
        let e = AddrExpr::lane() * lane_c
            + AddrExpr::block() * block_c
            + AddrExpr::loop_var(0) * loop_c
            + base;
        let addr = CompiledAddr::compile(e.clone());
        let fast = site_transactions(&addr, 0, (gx, gy), &[trips], b);
        prop_assert!(fast.exact);
        // Brute force.
        let mut slow = 0u64;
        for by in 0..gy {
            for bx in 0..gx {
                for t in 0..trips {
                    let mut blocks: Vec<i64> = (0..b)
                        .map(|l| {
                            let mut rr = |_| 0i64;
                            e.eval(l as i64, (bx as i64, by as i64), &[t], &mut rr)
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

    /// GPU-cost dominates perfect cost for arbitrary valid metrics.
    #[test]
    fn gpu_cost_dominates_perfect(
        time in 0u64..10_000,
        io in 0u64..10_000,
        blocks in 1u64..100_000,
        inw in 0u64..1_000_000,
        outw in 0u64..1_000_000,
    ) {
        let m = machine();
        let s = spec();
        let metrics = AlgoMetrics::new(vec![RoundMetrics {
            time,
            io_blocks: io,
            global_words: 1024,
            shared_words: 96,
            inward_words: inw,
            inward_txns: u64::from(inw > 0),
            outward_words: outw,
            outward_txns: u64::from(outw > 0),
            blocks_launched: blocks,
        }]);
        let p = evaluate(CostModel::PerfectGpu, &m, &s, &metrics).unwrap();
        let g = evaluate(CostModel::GpuCost, &m, &s, &metrics).unwrap();
        prop_assert!(g.total() >= p.total() - 1e-12);
        // Breakdown identity.
        prop_assert!((g.total()
            - (g.transfer_in + g.kernel + g.transfer_out + g.sync)).abs() < 1e-12);
        // Transfer proportion in range.
        let d = g.transfer_proportion();
        prop_assert!((0.0..=1.0).contains(&d));
    }

    /// Cost is monotone in every positive parameter.
    #[test]
    fn cost_monotone_in_params(scale in 1.1f64..4.0) {
        let m = machine();
        let s = spec();
        let metrics = AlgoMetrics::new(vec![RoundMetrics {
            time: 100,
            io_blocks: 50,
            global_words: 1024,
            shared_words: 96,
            inward_words: 1000,
            inward_txns: 1,
            outward_words: 500,
            outward_txns: 1,
            blocks_launched: 64,
        }]);
        let c0 = evaluate(CostModel::GpuCost, &m, &s, &metrics).unwrap().total();
        // λ, σ, α, β: the spec fields `derived_cost_params` reads them from.
        for bump in [
            GpuSpec { dram_issue_cycles: (s.dram_issue_cycles as f64 * scale).ceil() as u64, ..s },
            GpuSpec { sync_ms: s.sync_ms * scale, ..s },
            GpuSpec { xfer_alpha_ms: s.xfer_alpha_ms * scale, ..s },
            GpuSpec { xfer_beta_ms_per_word: s.xfer_beta_ms_per_word * scale, ..s },
        ] {
            let c = evaluate(CostModel::GpuCost, &m, &bump, &metrics).unwrap().total();
            prop_assert!(c >= c0);
        }
        // γ is a rate: raising the clock lowers cost.
        let faster = GpuSpec { clock_cycles_per_ms: s.clock_cycles_per_ms * scale, ..s };
        let c = evaluate(CostModel::GpuCost, &m, &faster, &metrics).unwrap().total();
        prop_assert!(c <= c0);
    }
}

proptest! {
    // Simulation-backed properties are slower; fewer cases.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The simulated vector addition equals the host reference for
    /// arbitrary data and awkward sizes.
    #[test]
    fn sim_vecadd_matches_reference(
        n in 1usize..600,
        seed in 0u64..1000,
    ) {
        let w = VecAdd::new(n as u64, seed);
        verify_on_sim(&w, &machine(), &spec(), &SimConfig::default()).unwrap();
    }

    /// The simulated reduction sums arbitrary data exactly, in both
    /// kernel variants.
    #[test]
    fn sim_reduce_matches_reference(
        data in prop::collection::vec(-1000i64..1000, 1..800),
        interleaved in any::<bool>(),
    ) {
        let variant = if interleaved {
            ReduceVariant::InterleavedModulo
        } else {
            ReduceVariant::SequentialAddressing
        };
        let w = Reduce::from_data(data, variant);
        verify_on_sim(&w, &machine(), &spec(), &SimConfig::default()).unwrap();
    }

    /// The simulated scan is an exact prefix sum for arbitrary data.
    #[test]
    fn sim_scan_matches_reference(data in prop::collection::vec(-100i64..100, 1..500)) {
        let w = Scan::from_data(data);
        verify_on_sim(&w, &machine(), &spec(), &SimConfig::default()).unwrap();
    }
}
