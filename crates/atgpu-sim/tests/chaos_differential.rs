//! Chaos differential tests for deterministic fault injection: under any
//! [`FaultPlan`] that leaves at least one device alive, a cluster program
//! must finish with **bit-identical** outputs to the fault-free run —
//! faults cost time, never answers.  Deterministic plans additionally pin
//! retry, backoff and recovery counters exactly; random plans
//! ([`FaultPlan::random`]) check the identity property at scale and that
//! replaying the same plan reproduces the same report to the bit.
//!
//! Unrecoverable situations (every device dead, a watchdog overrun) must
//! surface as structured [`SimError`]s — never as panics.

use atgpu_ir::validate::validate_program;
use atgpu_ir::{
    AddrExpr, AluOp, DBuf, HBuf, HostStep, KernelBuilder, Operand, Program, ProgramBuilder,
};
use atgpu_model::ClusterSpec;
use atgpu_sim::{
    even_shards, run_cluster_program, run_program, FaultEvent, FaultPlan, LinkEdge, SimConfig,
    SimError,
};
use common::{machine, spec};

mod common;

fn cspec(n: usize) -> ClusterSpec {
    ClusterSpec::homogeneous(n, spec())
}

fn vecadd_kernel(
    blocks: u64,
    b: u64,
    da: atgpu_ir::DBuf,
    db: atgpu_ir::DBuf,
    dc: atgpu_ir::DBuf,
) -> atgpu_ir::Kernel {
    let mut kb = KernelBuilder::new("vecadd_kernel", blocks, 3 * b);
    let bi = b as i64;
    let g = AddrExpr::block() * bi + AddrExpr::lane();
    kb.glb_to_shr(AddrExpr::lane(), da, g.clone());
    kb.glb_to_shr(AddrExpr::lane() + bi, db, g.clone());
    kb.ld_shr(0, AddrExpr::lane());
    kb.ld_shr(1, AddrExpr::lane() + bi);
    kb.alu(AluOp::Add, 2, Operand::Reg(0), Operand::Reg(1));
    kb.st_shr(AddrExpr::lane() + 2 * bi, Operand::Reg(2));
    kb.shr_to_glb(dc, g, AddrExpr::lane() + 2 * bi);
    kb.build()
}

/// A one-round sharded vecadd: each device gets its slices of A and B,
/// runs its shard, returns its slice of C.
fn sharded_vecadd_program(n: u64, devices: u32) -> (Program, HBuf) {
    let b = 4u64;
    let blocks = n / b;
    let mut pb = ProgramBuilder::new("vecadd_sharded");
    let ha = pb.host_input("A", n);
    let hb = pb.host_input("B", n);
    let hc = pb.host_output("C", n);
    let da = pb.device_alloc("a", n);
    let db = pb.device_alloc("b", n);
    let dc = pb.device_alloc("c", n);
    let shards = even_shards(blocks, devices);
    pb.begin_round();
    for s in &shards {
        let (off, words) = (s.start * b, s.blocks() * b);
        pb.transfer_in_to(s.device, ha, off, da, off, words);
        pb.transfer_in_to(s.device, hb, off, db, off, words);
    }
    pb.launch_sharded(vecadd_kernel(blocks, b, da, db, dc), shards.clone());
    for s in &shards {
        let (off, words) = (s.start * b, s.blocks() * b);
        pb.transfer_out_from(s.device, dc, off, hc, off, words);
    }
    (pb.build().unwrap(), hc)
}

/// A two-round program whose round 1 depends on **device-resident** state
/// from round 0: round 0 computes C = A + B (never downloaded), round 1
/// computes E = C + C and downloads E.  A device that dies between the
/// rounds takes its half of C with it — the only way a survivor can run
/// the dead device's round-1 shard correctly is the checkpoint journal.
fn two_round_program(n: u64, devices: u32) -> (Program, HBuf) {
    let b = 4u64;
    let blocks = n / b;
    let bi = b as i64;
    let mut pb = ProgramBuilder::new("vecadd_chain");
    let ha = pb.host_input("A", n);
    let hb = pb.host_input("B", n);
    let he = pb.host_output("E", n);
    let da = pb.device_alloc("a", n);
    let db = pb.device_alloc("b", n);
    let dc = pb.device_alloc("c", n);
    let de = pb.device_alloc("e", n);
    let shards = even_shards(blocks, devices);

    pb.begin_round();
    for s in &shards {
        let (off, words) = (s.start * b, s.blocks() * b);
        pb.transfer_in_to(s.device, ha, off, da, off, words);
        pb.transfer_in_to(s.device, hb, off, db, off, words);
    }
    pb.launch_sharded(vecadd_kernel(blocks, b, da, db, dc), shards.clone());

    pb.begin_round();
    let mut kb = KernelBuilder::new("double_kernel", blocks, 2 * b);
    let g = AddrExpr::block() * bi + AddrExpr::lane();
    kb.glb_to_shr(AddrExpr::lane(), dc, g.clone());
    kb.ld_shr(0, AddrExpr::lane());
    kb.alu(AluOp::Add, 1, Operand::Reg(0), Operand::Reg(0));
    kb.st_shr(AddrExpr::lane() + bi, Operand::Reg(1));
    kb.shr_to_glb(de, g, AddrExpr::lane() + bi);
    pb.launch_sharded(kb.build(), shards.clone());
    for s in &shards {
        let (off, words) = (s.start * b, s.blocks() * b);
        pb.transfer_out_from(s.device, de, off, he, off, words);
    }
    (pb.build().unwrap(), he)
}

/// A plain single-device vecadd for the driver-level chaos tests.
fn plain_vecadd_program(n: u64) -> (Program, HBuf) {
    let b = 4u64;
    let blocks = n / b;
    let mut pb = ProgramBuilder::new("vecadd_plain");
    let ha = pb.host_input("A", n);
    let hb = pb.host_input("B", n);
    let hc = pb.host_output("C", n);
    let da = pb.device_alloc("a", n);
    let db = pb.device_alloc("b", n);
    let dc = pb.device_alloc("c", n);
    pb.begin_round();
    pb.transfer_in(ha, da, n);
    pb.transfer_in(hb, db, n);
    pb.launch(vecadd_kernel(blocks, b, da, db, dc));
    pb.transfer_out(dc, hc, n);
    (pb.build().unwrap(), hc)
}

fn inputs(n: u64, seed: u64) -> Vec<Vec<i64>> {
    let mut x = seed | 1;
    let mut gen = |salt: u64| -> Vec<i64> {
        (0..n)
            .map(|_| {
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                ((x ^ salt) % 101) as i64 - 50
            })
            .collect()
    };
    vec![gen(0), gen(0xABCD)]
}

fn faulted(plan: FaultPlan) -> SimConfig {
    SimConfig { fault: plan, ..SimConfig::default() }
}

#[test]
fn empty_fault_plan_is_bit_identical_and_free() {
    let n = 64u64;
    let data = inputs(n, 3);

    // Cluster: an empty plan (even with a nonzero seed) must not change
    // outputs, timing, or counters relative to the default config.
    let (p, hc) = sharded_vecadd_program(n, 2);
    let base = run_cluster_program(&p, data.clone(), &machine(), &cspec(2), &SimConfig::default())
        .unwrap();
    let empty =
        run_cluster_program(&p, data.clone(), &machine(), &cspec(2), &faulted(FaultPlan::new(7)))
            .unwrap();
    assert_eq!(base.output(hc), empty.output(hc));
    assert_eq!(base.total_ms(), empty.total_ms(), "empty plan must not perturb timing at all");
    assert_eq!(base.device_stats, empty.device_stats);
    assert!(empty.device_stats.iter().all(|s| s.retries == 0 && s.recoveries == 0));

    // Single-device driver: same contract.
    let (p1, hc1) = plain_vecadd_program(n);
    let base1 = run_program(&p1, data.clone(), &machine(), &spec(), &SimConfig::default()).unwrap();
    let empty1 = run_program(&p1, data, &machine(), &spec(), &faulted(FaultPlan::new(9))).unwrap();
    assert_eq!(base1.output(hc1), empty1.output(hc1));
    assert_eq!(base1.total_ms(), empty1.total_ms());
    assert_eq!(base1.device_stats.retries, 0);
}

#[test]
fn dropped_transfers_retry_with_exact_counters() {
    let n = 64u64;
    let data = inputs(n, 5);
    let (p, hc) = sharded_vecadd_program(n, 2);
    let base = run_cluster_program(&p, data.clone(), &machine(), &cspec(2), &SimConfig::default())
        .unwrap();

    // Device 0's first two attempts drop (its first transfer retries
    // twice); device 1 loses exactly one attempt.
    let mut plan = FaultPlan::new(0);
    plan.push(FaultEvent::TransferDrop { edge: LinkEdge::Host(0), nth: 0 });
    plan.push(FaultEvent::TransferDrop { edge: LinkEdge::Host(0), nth: 1 });
    plan.push(FaultEvent::TransferDrop { edge: LinkEdge::Host(1), nth: 0 });
    let r = run_cluster_program(&p, data, &machine(), &cspec(2), &faulted(plan)).unwrap();

    assert_eq!(base.output(hc), r.output(hc), "drops must not change answers");
    assert_eq!(r.device_stats[0].retries, 2);
    assert_eq!(r.device_stats[1].retries, 1);
    assert!(r.device_stats.iter().all(|s| s.recoveries == 0));
    // Exponential backoff in units of σ = 0.05: device 0 waits σ + 2σ,
    // device 1 waits σ.
    assert!((r.device_stats[0].backoff_ms - 0.15).abs() < 1e-12);
    assert!((r.device_stats[1].backoff_ms - 0.05).abs() < 1e-12);
    // Per-round observations carry the same counters.
    let round0: u64 = r.rounds[0].devices.iter().map(|d| d.retries).sum();
    assert_eq!(round0, 3);
    assert!(r.total_ms() > base.total_ms(), "retries and waits must cost time");
}

#[test]
fn straggler_and_degraded_link_change_time_not_results() {
    let n = 64u64;
    let data = inputs(n, 11);
    let (p, hc) = sharded_vecadd_program(n, 2);
    let base = run_cluster_program(&p, data.clone(), &machine(), &cspec(2), &SimConfig::default())
        .unwrap();

    let mut plan = FaultPlan::new(0);
    plan.push(FaultEvent::Straggler { device: 0, clock_factor: 2.0 });
    plan.push(FaultEvent::LinkDegraded {
        edge: LinkEdge::Host(1),
        factor: 3.0,
        from_round: 0,
        to_round: 1,
    });
    let r = run_cluster_program(&p, data, &machine(), &cspec(2), &faulted(plan)).unwrap();

    assert_eq!(base.output(hc), r.output(hc));
    let (b0, f0) = (&base.rounds[0].devices[0], &r.rounds[0].devices[0]);
    let (b1, f1) = (&base.rounds[0].devices[1], &r.rounds[0].devices[1]);
    assert!((f0.kernel_ms - 2.0 * b0.kernel_ms).abs() < 1e-9, "straggler doubles kernel time");
    assert!((f1.xfer_in_ms - 3.0 * b1.xfer_in_ms).abs() < 1e-9, "degraded window triples T_I");
    assert!((f1.kernel_ms - b1.kernel_ms).abs() < 1e-12, "device 1's clock is untouched");
    assert_eq!(r.device_stats[0].retries + r.device_stats[1].retries, 0);
}

#[test]
fn device_loss_recovers_bit_identically_from_the_journal() {
    let n = 64u64;
    let data = inputs(n, 13);
    let (p, he) = two_round_program(n, 2);
    let base = run_cluster_program(&p, data.clone(), &machine(), &cspec(2), &SimConfig::default())
        .unwrap();

    // Device 1 dies between the rounds: its half of C exists only in its
    // replica and the journal.  The survivor must reproduce E exactly.
    let mut plan = FaultPlan::new(0);
    plan.push(FaultEvent::DeviceDown { device: 1, at_round: 1 });
    let r = run_cluster_program(&p, data, &machine(), &cspec(2), &faulted(plan)).unwrap();

    assert_eq!(base.output(he), r.output(he), "recovery must be bit-identical");
    assert_eq!(r.device_stats[0].recoveries, 1, "the survivor absorbed one checkpoint");
    // The dead device does nothing in round 1.
    assert_eq!(r.rounds[1].devices[1].kernel_ms, 0.0);
    assert_eq!(r.rounds[1].devices[1].xfer_out_ms, 0.0);
    assert!(r.rounds[1].devices[0].kernel_ms > base.rounds[1].devices[0].kernel_ms);
}

#[test]
fn mid_program_loss_on_four_devices_stays_under_2x() {
    let n = 128u64;
    let data = inputs(n, 17);
    let (p, he) = two_round_program(n, 4);
    let base = run_cluster_program(&p, data.clone(), &machine(), &cspec(4), &SimConfig::default())
        .unwrap();

    let mut plan = FaultPlan::new(0);
    plan.push(FaultEvent::DeviceDown { device: 2, at_round: 1 });
    let r = run_cluster_program(&p, data, &machine(), &cspec(4), &faulted(plan)).unwrap();

    assert_eq!(base.output(he), r.output(he));
    assert_eq!(r.device_stats.iter().map(|s| s.recoveries).sum::<u64>(), 3);
    assert!(
        r.total_ms() < 2.0 * base.total_ms(),
        "one loss among four devices must not double the run: {} vs {}",
        r.total_ms(),
        base.total_ms()
    );
}

#[test]
fn journal_replay_is_billed_once_on_the_heir() {
    let n = 128u64;
    let data = inputs(n, 29);
    let (p, he) = two_round_program(n, 4);
    let base = run_cluster_program(&p, data.clone(), &machine(), &cspec(4), &SimConfig::default())
        .unwrap();

    let mut plan = FaultPlan::new(0);
    plan.push(FaultEvent::DeviceDown { device: 2, at_round: 1 });
    let r = run_cluster_program(&p, data, &machine(), &cspec(4), &faulted(plan)).unwrap();
    assert_eq!(base.output(he), r.output(he));

    // Every survivor restores its memory from the journal (three
    // recoveries), but the replay *transfer* is one host-link
    // transaction and must be billed exactly once — on the heir, the
    // lowest-index survivor.  Device 2's round-0 journal covers its A
    // and B slices (32 words each) plus its 32 words of C: 96 words,
    // priced at α + β·96 = 0.1 + 0.001·96 on the heir's link.
    assert_eq!(r.device_stats.iter().map(|s| s.recoveries).sum::<u64>(), 3);
    let round1 = &r.rounds[1];
    assert!(
        (round1.devices[0].xfer_in_ms - 0.196).abs() < 1e-12,
        "heir billed α + β·96 = 0.196, got {}",
        round1.devices[0].xfer_in_ms
    );
    assert_eq!(round1.devices[1].xfer_in_ms, 0.0, "non-heir survivors pay no replay transfer");
    assert_eq!(round1.devices[3].xfer_in_ms, 0.0, "non-heir survivors pay no replay transfer");
    assert_eq!(round1.devices[2].xfer_in_ms, 0.0, "the dead device transfers nothing");
    // The cluster-wide transfer roll-up therefore grows by exactly one
    // replay transaction relative to the fault-free run.
    let billed: f64 = r.transfer_ms_per_device().iter().sum();
    let fault_free: f64 = base.transfer_ms_per_device().iter().sum();
    assert!(
        (billed - fault_free - 0.196).abs() < 1e-9,
        "replay must be charged once, not per survivor: {billed} vs {fault_free}"
    );
}

#[test]
fn per_device_rollups_survive_ragged_rounds_and_device_loss() {
    let n = 128u64;
    let data = inputs(n, 31);
    let (p, _) = two_round_program(n, 4);
    let mut plan = FaultPlan::new(0);
    plan.push(FaultEvent::DeviceDown { device: 2, at_round: 1 });
    let mut r = run_cluster_program(&p, data, &machine(), &cspec(4), &faulted(plan)).unwrap();

    // Device identity is positional and stable across the loss
    // boundary: the dead device keeps its column (its round-0 work),
    // and every column equals the manual per-round roll-up.
    let kern = r.kernel_ms_per_device();
    let xfer = r.transfer_ms_per_device();
    assert_eq!(kern.len(), 4);
    assert_eq!(xfer.len(), 4);
    assert_eq!(kern[2], r.rounds[0].devices[2].kernel_ms);
    assert!(kern[2] > 0.0, "the dead device's pre-loss work must not vanish");
    for (d, &col) in kern.iter().enumerate() {
        let manual: f64 = r.rounds.iter().map(|rr| rr.devices[d].kernel_ms).sum();
        assert_eq!(col, manual);
    }

    // Regression: the rollups used to size their output from
    // `rounds.first()`.  A report whose first round is narrower than a
    // later one (device columns appearing after round 0) must size
    // from the widest round — the old code panicked indexing past the
    // first round's width.
    r.rounds[0].devices.truncate(1);
    let kern = r.kernel_ms_per_device();
    let xfer = r.transfer_ms_per_device();
    assert_eq!(kern.len(), 4, "output must be sized by the widest round, not the first");
    assert_eq!(xfer.len(), 4);
    assert_eq!(kern[3], r.rounds[1].devices[3].kernel_ms);
}

#[test]
fn losing_every_device_is_a_structured_error() {
    let n = 64u64;
    let data = inputs(n, 19);
    let (p, _) = sharded_vecadd_program(n, 2);
    let mut plan = FaultPlan::new(0);
    plan.push(FaultEvent::DeviceDown { device: 0, at_round: 0 });
    plan.push(FaultEvent::DeviceDown { device: 1, at_round: 0 });
    let err = run_cluster_program(&p, data.clone(), &machine(), &cspec(2), &faulted(plan))
        .expect_err("no survivors");
    assert!(matches!(err, SimError::DeviceLost { .. }), "{err}");

    // A single-device program's only device dying is also unrecoverable.
    let (p1, _) = plain_vecadd_program(n);
    let mut plan = FaultPlan::new(0);
    plan.push(FaultEvent::DeviceDown { device: 0, at_round: 0 });
    let err = run_program(&p1, data, &machine(), &spec(), &faulted(plan)).expect_err("dead");
    assert_eq!(err, SimError::DeviceLost { device: 0, round: 0 });
}

#[test]
fn watchdog_trips_as_structured_error() {
    let n = 64u64;
    let data = inputs(n, 23);

    let (p1, _) = plain_vecadd_program(n);
    let tight = SimConfig { watchdog_cycles: 1, ..SimConfig::default() };
    let err = run_program(&p1, data.clone(), &machine(), &spec(), &tight).expect_err("overrun");
    match err {
        SimError::Watchdog { kernel, budget } => {
            assert_eq!(kernel, "vecadd_kernel");
            assert_eq!(budget, 1);
        }
        other => panic!("expected Watchdog, got {other}"),
    }
    let roomy = SimConfig { watchdog_cycles: 1 << 40, ..SimConfig::default() };
    assert!(run_program(&p1, data.clone(), &machine(), &spec(), &roomy).is_ok());

    // The cluster driver arms the same watchdog on every device.
    let (p, _) = sharded_vecadd_program(n, 2);
    let tight = SimConfig { watchdog_cycles: 1, ..SimConfig::default() };
    let err = run_cluster_program(&p, data, &machine(), &cspec(2), &tight).expect_err("overrun");
    assert!(matches!(err, SimError::Watchdog { .. }), "{err}");
}

/// The three plans ROADMAP's P0 recorded as diverging between two runs
/// (`cache hits 2 / misses 2` vs `hits 1 / misses 3`): degraded mode
/// hands a survivor an inherited shard of the kernel it already runs, so
/// with shard threads on, two threads look the same kernel up in one
/// device's cache at once.  Forced threading (whatever the host's core
/// count) and 50 replays each: every counter must repeat exactly.
#[test]
fn threaded_replays_of_the_p0_plans_are_counter_exact() {
    for seed in [195_649_898u64, 506_909_450, 471_452_186] {
        let devices = 2 + (seed % 3) as u32;
        let n = 96u64;
        let data = inputs(n, seed);
        let (p, he) = two_round_program(n, devices);
        let cl = cspec(devices as usize);
        let cfg = SimConfig {
            device_threads: true,
            fault: FaultPlan::random(seed, devices, 2, 0.2),
            ..SimConfig::default()
        };
        let first = run_cluster_program(&p, data.clone(), &machine(), &cl, &cfg).unwrap();
        for replay in 0..50 {
            let again = run_cluster_program(&p, data.clone(), &machine(), &cl, &cfg).unwrap();
            assert_eq!(first.device_stats, again.device_stats, "seed {seed}, replay {replay}");
            assert_eq!(first.total_ms().to_bits(), again.total_ms().to_bits());
            assert_eq!(first.output(he), again.output(he));
        }
    }
}

/// A program edited past the builder can carry a transfer whose host
/// offset, device buffer id or device range is out of bounds.  Every such
/// step comes back as the validator's own error from the program door —
/// fault-free and under a fault plan, on both drivers — never as a slice
/// panic.
#[test]
fn out_of_range_transfers_are_typed_errors_not_panics() {
    type Mutation = fn(&mut HostStep) -> bool;
    let mutations: [(&str, Mutation); 6] = [
        ("inward host offset", |s| match s {
            HostStep::TransferIn { host_off, .. } => {
                *host_off = u64::MAX - 3;
                true
            }
            _ => false,
        }),
        ("inward device buffer", |s| match s {
            HostStep::TransferIn { dev, .. } => {
                *dev = DBuf(99);
                true
            }
            _ => false,
        }),
        ("inward device range", |s| match s {
            HostStep::TransferIn { dev_off, .. } => {
                *dev_off = 1 << 40;
                true
            }
            _ => false,
        }),
        ("outward host buffer", |s| match s {
            HostStep::TransferOut { host, .. } => {
                *host = HBuf(99);
                true
            }
            _ => false,
        }),
        ("outward device range", |s| match s {
            HostStep::TransferOut { words, .. } => {
                *words = 1 << 20;
                true
            }
            _ => false,
        }),
        ("peer range", |s| match s {
            HostStep::TransferPeer { src_off, .. } => {
                *src_off = 1 << 40;
                true
            }
            _ => false,
        }),
    ];
    let refusal = |p: &Program| SimError::Invalid { error: validate_program(p).unwrap_err() };
    let mutated = |p: &Program, mutate: Mutation| -> Option<Program> {
        let mut p = p.clone();
        let hit = p.edit().rounds.iter_mut().flat_map(|r| r.steps.iter_mut()).any(mutate);
        hit.then_some(p)
    };

    let n = 64u64;
    let data = inputs(n, 37);
    let (plain, _) = plain_vecadd_program(n);
    let (mut sharded, _) = sharded_vecadd_program(n, 2);
    sharded.edit().rounds[0].steps.push(HostStep::TransferPeer {
        src: 0,
        dst: 1,
        buf: DBuf(2),
        src_off: 0,
        dst_off: 0,
        words: 8,
    });
    let mut drops = FaultPlan::new(0);
    drops.push(FaultEvent::TransferDrop { edge: LinkEdge::Host(0), nth: 0 });

    for cfg in [SimConfig::default(), faulted(drops)] {
        for (what, mutate) in mutations {
            if let Some(p) = mutated(&plain, mutate) {
                let r = run_program(&p, data.clone(), &machine(), &spec(), &cfg);
                assert_eq!(r.unwrap_err(), refusal(&p), "{what}");
            }
            let p = mutated(&sharded, mutate).expect("the sharded program has every step kind");
            let r = run_cluster_program(&p, data.clone(), &machine(), &cspec(2), &cfg);
            assert_eq!(r.unwrap_err(), refusal(&p), "{what}");
        }
    }
}

mod random_chaos {
    use super::*;
    use proptest::prelude::*;

    /// CI seed matrix: `ATGPU_CHAOS_SEED` (default 0) is folded into
    /// every generated plan seed, so each matrix entry explores a
    /// different — but fully reproducible — slice of the plan space.  A
    /// flake report is replayed by re-running with the same value.
    fn matrix_seed() -> u64 {
        std::env::var("ATGPU_CHAOS_SEED")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Any random fault plan (drops, degradations, stragglers and
        /// deaths that spare at least one device — [`FaultPlan::random`]
        /// guarantees a survivor) leaves a multi-round cluster program's
        /// outputs bit-identical, and replaying the identical plan
        /// reproduces the identical report: same output bits, same wall
        /// clock, same retry/backoff/recovery counters.
        #[test]
        fn cluster_chaos_never_changes_answers(seed in 0u64..1_000_000_000) {
            let devices = 2 + (seed % 3) as u32; // 2..=4
            let n = 96u64;
            let data = inputs(n, seed);
            let (p, he) = two_round_program(n, devices);
            let cl = cspec(devices as usize);
            let base = run_cluster_program(&p, data.clone(), &machine(), &cl, &SimConfig::default())
                .unwrap();

            let plan = FaultPlan::random(seed ^ matrix_seed(), devices, 2, 0.2);
            let cfg = faulted(plan);
            let r1 = run_cluster_program(&p, data.clone(), &machine(), &cl, &cfg).unwrap();
            let r2 = run_cluster_program(&p, data, &machine(), &cl, &cfg).unwrap();

            prop_assert_eq!(base.output(he), r1.output(he), "chaos changed answers (seed {})", seed);
            // Exact replay: the plan is a schedule, so every observable
            // is a pure function of (program, inputs, plan).
            prop_assert_eq!(r1.output(he), r2.output(he));
            prop_assert_eq!(r1.total_ms().to_bits(), r2.total_ms().to_bits());
            prop_assert_eq!(&r1.device_stats, &r2.device_stats);
        }

        /// Single-device runs under random drop/degradation/straggler
        /// plans (no deaths are generated for one device): answers and
        /// replays are bit-stable, and retries appear iff drops were
        /// scheduled early enough to be consumed.
        #[test]
        fn single_device_chaos_is_deterministic(seed in 0u64..1_000_000_000) {
            let n = 64u64;
            let data = inputs(n, seed);
            let (p, hc) = plain_vecadd_program(n);
            let base =
                run_program(&p, data.clone(), &machine(), &spec(), &SimConfig::default()).unwrap();

            let plan = FaultPlan::random(seed ^ matrix_seed(), 1, 1, 0.35);
            prop_assert!(
                !plan.events.iter().any(|e| matches!(e, FaultEvent::DeviceDown { .. })),
                "random plans never kill the only device"
            );
            let cfg = faulted(plan);
            let r1 = run_program(&p, data.clone(), &machine(), &spec(), &cfg).unwrap();
            let r2 = run_program(&p, data, &machine(), &spec(), &cfg).unwrap();
            prop_assert_eq!(base.output(hc), r1.output(hc));
            prop_assert_eq!(r1.output(hc), r2.output(hc));
            prop_assert_eq!(r1.total_ms().to_bits(), r2.total_ms().to_bits());
            prop_assert_eq!(r1.device_stats.retries, r2.device_stats.retries);
            prop_assert_eq!(r1.device_stats.backoff_ms.to_bits(), r2.device_stats.backoff_ms.to_bits());
        }
    }
}
