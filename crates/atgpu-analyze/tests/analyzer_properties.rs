//! Analyser-level property tests: exactness of the residue-class
//! coalescing analysis against brute force over a wide shape space, and
//! soundness of the bank-conflict fast paths against enumeration.

use atgpu_analyze::bankconflict::{site_conflict_degree, ConflictDegree};
use atgpu_analyze::coalesce::site_transactions;
use atgpu_ir::affine::CompiledAddr;
use atgpu_ir::AddrExpr;
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
