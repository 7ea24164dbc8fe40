//! Model-crate property tests: cost-function algebra, occupancy laws and
//! Table I integrity.

use atgpu_model::comparison::{comparison_table, render_markdown, TABLE1_ITEMS};
use atgpu_model::cost::{
    cluster_cost_degraded, cluster_cost_streamed, evaluate, gpu_kernel_term, schedule_round_spans,
    ClusterCostBreakdown, CostBreakdown, CostModel, DegradedLoss, PeerTraffic,
};
use atgpu_model::{
    occupancy, AlgoMetrics, AtgpuMachine, ClusterSpec, GpuSpec, RoundMetrics, RoundSchedule,
    StreamItem, MAX_STREAMS,
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

    /// A streamed single-device cost is the span walk trace consumers
    /// predict with, round by round: `Σᵢ (σ + round_ms(i))` over
    /// `schedule_round_spans` with each round's `gpu_kernel_term`, for
    /// any valid schedule table.
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
        let (mut total, mut kernel) = (0.0f64, 0.0f64);
        for (round, schedule) in metrics.rounds.iter().zip(&schedules) {
            let k = gpu_kernel_term(&m, &s, round).unwrap();
            let (_, round_ms) = schedule_round_spans(&s.host_link(), round, k, Some(schedule), 0.0);
            total += s.sync_ms + round_ms;
            kernel += k;
        }
        prop_assert_eq!(total.to_bits(), c.total_ms.to_bits());
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
