//! Model-crate property tests: cost-function algebra, occupancy laws and
//! Table I integrity.

use atgpu_model::comparison::{comparison_table, render_markdown, TABLE1_ITEMS};
use atgpu_model::cost::{
    cluster_cost_degraded, cluster_cost_streamed, evaluate, gpu_kernel_term, ClusterCostBreakdown,
    CostBreakdown, CostModel, DegradedLoss, PeerTraffic,
};
use atgpu_model::{
    occupancy, AlgoMetrics, AtgpuMachine, ClusterSpec, GpuSpec, ModelError, RoundMetrics,
    RoundSchedule, StreamItem, MAX_STREAMS,
};
use proptest::prelude::*;

fn machine() -> AtgpuMachine {
    AtgpuMachine::new(1 << 16, 32, 12_288, 1 << 24).unwrap()
}

fn round(time: u64, io: u64, blocks: u64, inw: u64, outw: u64) -> RoundMetrics {
    RoundMetrics {
        time,
        io_blocks: io,
        global_words: 4096,
        shared_words: 96,
        inward_words: inw,
        inward_txns: u64::from(inw > 0),
        outward_words: outw,
        outward_txns: u64::from(outw > 0),
        blocks_launched: blocks,
    }
}

/// A random metrics row: any mix of empty/non-empty kernels and
/// transfers, several transactions per direction.
fn any_round() -> impl Strategy<Value = RoundMetrics> {
    (0u64..5000, 0u64..5000, 0u64..10_000, 0u64..100_000, 1u64..4, 0u64..100_000, 1u64..4).prop_map(
        |(time, io, blocks, inw, in_txns, outw, out_txns)| RoundMetrics {
            inward_txns: in_txns * u64::from(inw > 0),
            outward_txns: out_txns * u64::from(outw > 0),
            ..round(time, io, blocks, inw, outw)
        },
    )
}

/// A random **valid** round schedule (every stream id in range; possibly
/// empty, possibly without a kernel item).
fn any_schedule() -> impl Strategy<Value = RoundSchedule> {
    let item = prop_oneof![
        3 => (0..MAX_STREAMS, 1u64..4, 0u64..100_000)
            .prop_map(|(stream, txns, words)| StreamItem::TransferIn { stream, txns, words }),
        3 => (0..MAX_STREAMS, 1u64..4, 0u64..100_000)
            .prop_map(|(stream, txns, words)| StreamItem::TransferOut { stream, txns, words }),
        2 => Just(StreamItem::Kernel),
        1 => (0..MAX_STREAMS).prop_map(|stream| StreamItem::SyncStream { stream }),
        1 => Just(StreamItem::SyncDevice),
    ];
    prop::collection::vec(item, 0..7).prop_map(|items| RoundSchedule { items })
}

/// Rounds paired with a schedule each, so the two tables always agree in
/// length.
fn any_scheduled_rounds() -> impl Strategy<Value = (AlgoMetrics, Vec<RoundSchedule>)> {
    prop::collection::vec((any_round(), any_schedule()), 1..6).prop_map(|rows| {
        let (rounds, schedules) = rows.into_iter().unzip();
        (AlgoMetrics::new(rounds), schedules)
    })
}

fn any_spec() -> impl Strategy<Value = GpuSpec> {
    (1u64..5, 1u64..20).prop_map(|(k_prime, h_limit)| GpuSpec {
        k_prime,
        h_limit,
        ..GpuSpec::gtx650_like()
    })
}

/// A random metrics row where one launch in four is empty (`k = 0`),
/// with or without a kernel time.
fn any_round_or_empty() -> impl Strategy<Value = RoundMetrics> {
    (any_round(), 0u8..8).prop_map(|(r, e)| match e {
        0 => RoundMetrics { blocks_launched: 0, ..r },
        1 => RoundMetrics { blocks_launched: 0, time: 0, io_blocks: 0, ..r },
        _ => r,
    })
}

/// A random valid spec with every cost constant drawn, not only `k′`/`H`.
fn any_priced_spec() -> impl Strategy<Value = GpuSpec> {
    (any_spec(), 0.5f64..2000.0, 1u64..800, 0.0f64..0.1, 0.0f64..1e-4, 0.0f64..0.05).prop_map(
        |(s, clock, issue, alpha, beta, sigma)| GpuSpec {
            clock_cycles_per_ms: clock,
            dram_issue_cycles: issue,
            xfer_alpha_ms: alpha,
            xfer_beta_ms_per_word: beta,
            sync_ms: sigma,
            ..s
        },
    )
}

/// The paper's four models restated round by round, independently of
/// the cost core: `T_I = Î·α + I·β`, kernel `(w·t + λ·q)/γ`, `T_O`
/// likewise and `σ`, where `w = 1` on the perfect GPU and `⌈k/(k′ℓ)⌉`
/// (at least one wave when the kernel takes time) otherwise.
fn restated(
    model: CostModel,
    m: &AtgpuMachine,
    s: &GpuSpec,
    metrics: &AlgoMetrics,
) -> CostBreakdown {
    let (gamma, lambda) = (s.clock_cycles_per_ms, s.dram_issue_cycles as f64);
    let mut out = CostBreakdown::default();
    for r in &metrics.rounds {
        let capacity = s.k_prime * occupancy(m, r.shared_words, s.h_limit);
        let waves = match model {
            CostModel::PerfectGpu => 1,
            _ => r.blocks_launched.div_ceil(capacity).max(u64::from(r.time > 0)),
        };
        out.kernel += (waves as f64 * r.time as f64 + lambda * r.io_blocks as f64) / gamma;
        if matches!(model, CostModel::PerfectGpu | CostModel::GpuCost) {
            out.transfer_in += r.inward_txns as f64 * s.xfer_alpha_ms
                + r.inward_words as f64 * s.xfer_beta_ms_per_word;
            out.transfer_out += r.outward_txns as f64 * s.xfer_alpha_ms
                + r.outward_words as f64 * s.xfer_beta_ms_per_word;
        }
        if model != CostModel::KernelOnly {
            out.sync += s.sync_ms;
        }
    }
    out
}

const MODELS: [CostModel; 4] =
    [CostModel::PerfectGpu, CostModel::GpuCost, CostModel::Swgpu, CostModel::KernelOnly];

fn breakdown_bits(b: &CostBreakdown) -> [u64; 4] {
    [b.transfer_in, b.kernel, b.transfer_out, b.sync].map(f64::to_bits)
}

fn cluster_bits(c: &ClusterCostBreakdown) -> Vec<u64> {
    let mut bits: Vec<u64> = c.per_device.iter().flat_map(breakdown_bits).collect();
    bits.extend(c.peer.iter().chain([&c.total_ms, &c.sync_ms]).map(|v| v.to_bits()));
    bits
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// One device, no overlap, is one cost three ways: the model table's
    /// GPU-cost, the 1-device cluster cost over all-empty schedules, and
    /// the 1-device cluster cost with no schedule table (each with its
    /// `σ` share folded back beside the per-device terms) agree bit for
    /// bit.
    #[test]
    fn serial_single_device_costs_are_one_cost(
        table in any_scheduled_rounds(), s in any_spec(),
    ) {
        let (metrics, _) = table;
        let m = machine();
        let serial = evaluate(CostModel::GpuCost, &m, &s, &metrics).unwrap();
        let one = ClusterSpec::homogeneous(1, s);
        let tables = std::slice::from_ref(&metrics);
        let empty = vec![RoundSchedule::default(); metrics.rounds.len()];
        let streamed = cluster_cost_streamed(&one, &m, tables, &[empty], &[]).unwrap();
        let c = cluster_cost_streamed(&one, &m, tables, &[], &[]).unwrap();
        for cost in [&streamed, &c] {
            let folded = CostBreakdown { sync: cost.sync_ms, ..cost.per_device[0] };
            prop_assert_eq!(breakdown_bits(&serial), breakdown_bits(&folded));
            prop_assert_eq!(serial.total().to_bits(), folded.total().to_bits());
        }
        prop_assert_eq!(streamed.total_ms.to_bits(), c.total_ms.to_bits());
    }

    /// All four models are the paper's per-round formulas, bit for bit:
    /// every [`CostBreakdown`] field and `total()`, on multi-wave grids,
    /// empty launches and several transactions per direction.
    #[test]
    fn the_four_models_are_the_papers_formulas(
        rows in prop::collection::vec(any_round_or_empty(), 1..6), s in any_priced_spec(),
    ) {
        let m = machine();
        let metrics = AlgoMetrics::new(rows);
        for model in MODELS {
            let got = evaluate(model, &m, &s, &metrics).unwrap();
            let want = restated(model, &m, &s, &metrics);
            prop_assert_eq!(breakdown_bits(&got), breakdown_bits(&want), "{:?}", model);
            prop_assert_eq!(got.total().to_bits(), want.total().to_bits(), "{:?}", model);
        }
    }

    /// A streamed single-device cost's kernel share is `Σᵢ
    /// gpu_kernel_term(i)` for any valid schedule table: overlap moves
    /// the total, never a component.
    #[test]
    fn streamed_single_device_is_the_one_device_cluster(
        table in any_scheduled_rounds(), s in any_spec(),
    ) {
        let (metrics, schedules) = table;
        let m = machine();
        let one = ClusterSpec::homogeneous(1, s);
        let c = cluster_cost_streamed(
            &one, &m, std::slice::from_ref(&metrics), std::slice::from_ref(&schedules), &[],
        ).unwrap();
        let mut kernel = 0.0f64;
        for round in &metrics.rounds {
            kernel += gpu_kernel_term(&m, &s, round).unwrap();
        }
        prop_assert_eq!(kernel.to_bits(), c.per_device[0].kernel.to_bits());
    }

    /// A device lost at or after the last round degrades nothing: the
    /// degraded cost is the cluster cost, peer traffic included.
    #[test]
    fn a_loss_after_the_last_round_is_the_cluster_cost(
        n in 2usize..5, rounds in 1usize..5, seed_rows in prop::collection::vec(any_round(), 20..21),
        traffic in prop::collection::vec((0u32..4, 0u32..4, 0u64..50_000), 0..6),
        dead in 0usize..4, late in 0usize..3, s in any_spec(),
    ) {
        let m = machine();
        let cluster = ClusterSpec::homogeneous(n, s);
        let per_device: Vec<AlgoMetrics> = (0..n)
            .map(|d| AlgoMetrics::new(seed_rows[d * rounds..(d + 1) * rounds].to_vec()))
            .collect();
        // Distinct in-range endpoints, spread over the rounds.
        let mut peer = vec![Vec::new(); rounds];
        for (i, &(src, dst, words)) in traffic.iter().enumerate() {
            let (src, dst) = (src % n as u32, dst % n as u32);
            if src != dst {
                peer[i % rounds].push(PeerTraffic { src, dst, words, txns: 1 });
            }
        }
        let device = dead % n;
        let mut takeover = vec![1.0 / (n - 1) as f64; n];
        takeover[device] = 0.0;
        let loss = DegradedLoss {
            device,
            at_round: rounds + late,
            replay_words: 1000,
            replay_txns: 1,
            takeover,
        };
        let full = cluster_cost_streamed(&cluster, &m, &per_device, &[], &peer).unwrap();
        let degraded = cluster_cost_degraded(&cluster, &m, &per_device, &peer, &loss).unwrap();
        prop_assert_eq!(cluster_bits(&full), cluster_bits(&degraded));
    }

    /// Cost is additive over rounds: evaluating a two-round program equals
    /// the sum of evaluating each round separately (every cost model).
    #[test]
    fn cost_additive_over_rounds(
        t1 in 0u64..5000, q1 in 0u64..5000, k1 in 1u64..10_000,
        t2 in 0u64..5000, q2 in 0u64..5000, k2 in 1u64..10_000,
        inw in 0u64..100_000, outw in 0u64..100_000,
    ) {
        let m = machine();
        let s = GpuSpec::gtx650_like();
        let r1 = round(t1, q1, k1, inw, 0);
        let r2 = round(t2, q2, k2, 0, outw);
        for model in [CostModel::PerfectGpu, CostModel::GpuCost, CostModel::Swgpu] {
            let both = evaluate(model, &m, &s,
                &AlgoMetrics::new(vec![r1, r2])).unwrap().total();
            let one = evaluate(model, &m, &s,
                &AlgoMetrics::new(vec![r1])).unwrap().total();
            let two = evaluate(model, &m, &s,
                &AlgoMetrics::new(vec![r2])).unwrap().total();
            prop_assert!((both - one - two).abs() < 1e-9 * both.max(1.0));
        }
    }

    /// The four model views are totally ordered on any metrics:
    /// kernel-only ≤ SWGPU ≤ GPU-cost, and perfect ≤ GPU-cost.
    #[test]
    fn cost_model_ordering(
        t in 0u64..10_000, q in 0u64..10_000, k in 1u64..100_000,
        inw in 0u64..1_000_000, outw in 0u64..1_000_000,
    ) {
        let m = machine();
        let s = GpuSpec::gtx650_like();
        let metrics = AlgoMetrics::new(vec![round(t, q, k, inw, outw)]);
        let kernel = evaluate(CostModel::KernelOnly, &m, &s, &metrics).unwrap().total();
        let swgpu = evaluate(CostModel::Swgpu, &m, &s, &metrics).unwrap().total();
        let gpu = evaluate(CostModel::GpuCost, &m, &s, &metrics).unwrap().total();
        let perfect = evaluate(CostModel::PerfectGpu, &m, &s, &metrics).unwrap().total();
        prop_assert!(kernel <= swgpu + 1e-12);
        prop_assert!(swgpu <= gpu + 1e-12);
        prop_assert!(perfect <= gpu + 1e-12);
    }

    /// Occupancy is antitone in shared usage and monotone in H; the wave
    /// factor is monotone in k.
    #[test]
    fn occupancy_laws(m1 in 1u64..8000, m2 in 1u64..8000, h in 1u64..64) {
        let m = machine();
        let (lo, hi) = (m1.min(m2), m1.max(m2));
        prop_assert!(occupancy(&m, lo, h) >= occupancy(&m, hi, h));
        prop_assert!(occupancy(&m, m1, h) <= occupancy(&m, m1, h + 1));
        prop_assert!(occupancy(&m, m1, h) <= h);
    }

    /// Scaling every metric count by c scales the cost's variable parts by
    /// c when wave factors stay proportional (homogeneity sanity check on
    /// the perfect-GPU cost with zero sigma/alpha).
    #[test]
    fn perfect_cost_homogeneous(t in 1u64..1000, q in 1u64..1000, c in 2u64..5) {
        let m = machine();
        let s = GpuSpec { sync_ms: 0.0, xfer_alpha_ms: 0.0, ..GpuSpec::gtx650_like() };
        let base = evaluate(CostModel::PerfectGpu, &m, &s,
            &AlgoMetrics::new(vec![round(t, q, 1, 100, 0)])).unwrap();
        let scaled = evaluate(CostModel::PerfectGpu, &m, &s,
            &AlgoMetrics::new(vec![round(c * t, c * q, 1, c * 100, 0)])).unwrap();
        prop_assert!((scaled.total() - c as f64 * base.total()).abs()
            < 1e-9 * scaled.total().max(1.0));
    }
}

/// A spec the validator refuses is refused by every model — the perfect
/// GPU included, although it prices on a spec with `k′` replaced.
#[test]
fn every_model_refuses_an_invalid_spec() {
    let m = machine();
    let metrics = AlgoMetrics::new(vec![round(13, 96, 32, 2048, 1024)]);
    let good = GpuSpec::gtx650_like();
    let refused = [
        GpuSpec { k_prime: 0, ..good },
        GpuSpec { h_limit: 0, ..good },
        GpuSpec { xfer_alpha_ms: -1.0, ..good },
        GpuSpec { xfer_beta_ms_per_word: f64::NAN, ..good },
        GpuSpec { sync_ms: -0.5, ..good },
        GpuSpec { clock_cycles_per_ms: 0.0, ..good },
        GpuSpec { dram_issue_cycles: GpuSpec::MAX_DRAM_CYCLES + 1, ..good },
    ];
    for s in refused {
        assert!(s.validate().is_err(), "{s:?}");
        for model in MODELS {
            assert!(
                matches!(evaluate(model, &m, &s, &metrics), Err(ModelError::InvalidParams { .. })),
                "{model:?} priced {s:?}"
            );
        }
    }
}

#[test]
fn table1_row_count_matches_items() {
    let md = render_markdown(&comparison_table());
    // Header + separator + one row per item.
    assert_eq!(md.lines().count(), 2 + TABLE1_ITEMS.len());
}

#[test]
fn exactly_three_gpu_models() {
    let t = comparison_table();
    assert_eq!(t.len(), 3);
    assert!(t.iter().any(|m| m.citation.contains("this paper")));
}
