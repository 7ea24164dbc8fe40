//! Static-vs-dynamic agreement: the verifier's race verdicts against
//! the simulator.
//!
//! The static race check ([`atgpu::verify`]) and the simulator's
//! dynamic write-log race detector (the launch-level doors
//! `Device::run_kernel(.., true)` and `Cluster::run_sharded_kernel`, run
//! on the memory the program stages) decide the *same* predicate — two
//! distinct thread blocks writing one global word — by entirely
//! different means (bounded Diophantine solving vs an execution's write
//! log).  Over a family of random strided copy kernels and random
//! contiguous shard plans this suite pins their agreement:
//!
//! * a **proven `RaceFree`** kernel runs clean under dynamic detection,
//!   sharded or not, and its plain and sharded programs produce
//!   bit-identical outputs whatever the shard plan;
//! * a **proven `Racy`** kernel is flagged by dynamic detection too —
//!   the static witness corresponds to a real collision;
//! * for this affine family the verifier is *decisive*: stride < warp
//!   width is proven racy, stride ≥ warp width proven race-free, never
//!   `Unknown`.

use atgpu::algos::workload::{test_machine, test_spec};
use atgpu::ir::{AddrExpr, KernelBuilder, Program, ProgramBuilder, Shard};
use atgpu::model::ClusterSpec;
use atgpu::sim::gmem::GlobalMemory;
use atgpu::sim::{run_cluster_program, Cluster, Device, EngineSel, ExecMode, SimConfig, SimError};
use atgpu::verify::{verify_program, RaceVerdict, Unsoundness};
use proptest::prelude::*;

/// The strided copy kernel: block `i` reads its input slice and writes
/// `b` words at `i·stride + lane + base`.  Distinct blocks collide iff
/// `stride < b` (for a grid of at least two blocks).
fn strided_kernel(
    blocks: u64,
    b: u64,
    stride: i64,
    base: i64,
    da: atgpu::ir::DBuf,
    dc: atgpu::ir::DBuf,
) -> atgpu::ir::Kernel {
    let mut kb = KernelBuilder::new("strided_copy", blocks, b);
    kb.glb_to_shr(AddrExpr::lane(), da, AddrExpr::block() * (b as i64) + AddrExpr::lane());
    kb.shr_to_glb(dc, AddrExpr::block() * stride + AddrExpr::lane() + base, AddrExpr::lane());
    kb.build()
}

/// Output words the grid can touch (the last block's last lane).
fn out_words(blocks: u64, b: u64, stride: i64, base: i64) -> u64 {
    ((blocks as i64 - 1) * stride + base + b as i64) as u64
}

/// The plain-launch program: full upload, one launch, full download.
fn plain_program(blocks: u64, b: u64, stride: i64, base: i64) -> Program {
    let n_in = blocks * b;
    let n_out = out_words(blocks, b, stride, base);
    let mut pb = ProgramBuilder::new("plain");
    let ha = pb.host_input("A", n_in);
    let hc = pb.host_output("C", n_out);
    let da = pb.device_alloc("a", n_in);
    let dc = pb.device_alloc("c", n_out);
    pb.begin_round();
    pb.transfer_in(ha, da, n_in);
    pb.launch(strided_kernel(blocks, b, stride, base, da, dc));
    pb.transfer_out(dc, hc, n_out);
    pb.build().expect("plain program builds")
}

/// The same kernel sharded under `plan`: each device uploads the full
/// input replica, executes its block range, and downloads exactly the
/// word range its blocks wrote (disjoint when `stride ≥ b`).
fn sharded_program(blocks: u64, b: u64, stride: i64, base: i64, plan: &[Shard]) -> Program {
    let n_in = blocks * b;
    let n_out = out_words(blocks, b, stride, base);
    let mut pb = ProgramBuilder::new("sharded");
    let ha = pb.host_input("A", n_in);
    let hc = pb.host_output("C", n_out);
    let da = pb.device_alloc("a", n_in);
    let dc = pb.device_alloc("c", n_out);
    pb.begin_round();
    for s in plan {
        pb.transfer_in_to(s.device, ha, 0, da, 0, n_in);
    }
    pb.launch_sharded(strided_kernel(blocks, b, stride, base, da, dc), plan.to_vec());
    for s in plan {
        let lo = (s.start as i64 * stride + base) as u64;
        let hi = ((s.end as i64 - 1) * stride + base + b as i64) as u64;
        pb.transfer_out_from(s.device, dc, lo, hc, lo, hi - lo);
    }
    pb.build().expect("sharded program builds")
}

/// Contiguous shard plan from sorted interior cut points, devices
/// assigned round-robin.
fn plan_from_cuts(blocks: u64, cuts: &[u64], devices: u32) -> Vec<Shard> {
    let mut edges: Vec<u64> = vec![0];
    let mut interior: Vec<u64> = cuts.iter().map(|c| 1 + c % (blocks - 1).max(1)).collect();
    interior.sort_unstable();
    interior.dedup();
    edges.extend(interior.into_iter().filter(|&c| c < blocks));
    edges.push(blocks);
    edges
        .windows(2)
        .enumerate()
        .map(|(i, w)| Shard { device: i as u32 % devices, start: w[0], end: w[1] })
        .collect()
}

/// The memory `program` stages for its launch: its buffer layout, with
/// `input` uploaded to buffer 0.
fn staged(program: &Program, input: &[i64]) -> GlobalMemory {
    let machine = test_machine();
    let (bases, total) = program.buffer_layout(machine.b);
    let mut gmem = GlobalMemory::new(bases, total, machine.b, machine.g).expect("fits in G");
    let at = gmem.span(0, 0, input.len() as u64).expect("the input fits buffer 0");
    gmem.copy_in(at, input);
    gmem
}

fn random_input(n: u64, seed: u64) -> Vec<i64> {
    // Splitmix-style scramble: block-distinct values so a collision's
    // merge order would be observable.
    (0..n)
        .map(|i| {
            let mut z = seed.wrapping_add(i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            (z >> 16) as i64
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// 64 random kernels × random shard plans: the static verdict is
    /// decisive and agrees with the dynamic detector, and proven
    /// race-free kernels are bit-identical under any shard plan.
    #[test]
    fn static_and_dynamic_race_verdicts_agree(
        blocks in 2u64..10,
        stride in 1i64..48,
        base in 0i64..4,
        devices in 1u32..4,
        cuts in proptest::collection::vec(0u64..64, 0..3),
    ) {
        let machine = test_machine();
        let b = machine.b;
        let program = plain_program(blocks, b, stride, base);
        let report = verify_program(&program, b);
        prop_assert!(report.launches.len() == 1);

        // Decisive static verdict for this affine family.
        let racy = stride < b as i64;
        match &report.launches[0].race {
            RaceVerdict::Racy(w) => {
                prop_assert!(racy, "stride {} >= {} proven racy?", stride, b);
                // The witness is a real collision: distinct blocks,
                // same word.
                prop_assert!(w.a.1 != w.b.1);
            }
            RaceVerdict::RaceFree => prop_assert!(!racy, "stride {} < {} proven free?", stride, b),
            RaceVerdict::Unknown => prop_assert!(false, "static check must be decisive here"),
        }
        prop_assert_eq!(report.is_sound(), !racy);

        // Dynamic agreement: the write-log detector sees the same
        // verdict on a real execution.
        let input = random_input(blocks * b, stride as u64 | 1);
        let kernel = program.rounds[0].kernel().expect("one launch");
        let device = Device::new(machine, test_spec()).expect("valid spec");
        let mut plain = staged(&program, &input);
        match device.run_kernel(kernel, &mut plain, ExecMode::Sequential, true) {
            Ok(_) => prop_assert!(!racy, "dynamic detector missed a proven race"),
            Err(SimError::RaceDetected { .. }) => {
                prop_assert!(racy, "dynamic race on a proven race-free kernel")
            }
            Err(e) => prop_assert!(false, "unexpected sim error: {}", e),
        }

        // Proven race-free ⇒ sharded output bit-identical to plain,
        // whatever the plan — the guarantee the verifier exists to
        // certify statically.
        if !racy {
            let plan = plan_from_cuts(blocks, &cuts, devices);
            let sharded = sharded_program(blocks, b, stride, base, &plan);
            let sharded_report = verify_program(&sharded, b);
            prop_assert!(sharded_report.is_sound());
            prop_assert!(sharded_report.all_race_free());

            let cluster = ClusterSpec::homogeneous(devices as usize, test_spec());
            let mut split = staged(&program, &input);
            Cluster::new(machine, cluster.clone())
                .expect("valid cluster")
                .run_sharded_kernel(kernel, &mut split, &plan, true, EngineSel::MicroOp)
                .expect("no race in any shard plan");
            prop_assert_eq!(plain.words(), split.words());

            let solo = ClusterSpec::homogeneous(1, test_spec());
            let cfg = SimConfig::default();
            let inputs = vec![input];
            let plain_run = run_cluster_program(&program, inputs.clone(), &machine, &solo, &cfg)
                .expect("plain run");
            let sharded_run = run_cluster_program(&sharded, inputs, &machine, &cluster, &cfg)
                .expect("sharded run");
            let hc = atgpu::ir::HBuf(1);
            prop_assert_eq!(plain_run.output(hc), sharded_run.output(hc));
        }
    }
}

#[test]
fn seeded_racy_kernel_flagged_by_both_detectors() {
    let machine = test_machine();
    let b = machine.b;
    // Stride 16 < b: blocks k and k+1 collide on 16 words.
    let program = plain_program(4, b, 16, 0);
    let report = verify_program(&program, b);
    let why = report.first_unsoundness().expect("proven racy");
    match &why {
        Unsoundness::Racy { round: 0, kernel, witness } => {
            assert_eq!(kernel, "strided_copy");
            assert_ne!(witness.a.1, witness.b.1, "distinct blocks");
        }
        other => panic!("expected Racy, got {other:?}"),
    }
    assert!(why.to_string().contains("strided_copy@instr#1"), "{why}");

    let kernel = program.rounds[0].kernel().expect("one launch");
    let device = Device::new(machine, test_spec()).expect("valid spec");
    let mut gmem = staged(&program, &random_input(4 * b, 7));
    match device.run_kernel(kernel, &mut gmem, ExecMode::Sequential, true) {
        Err(SimError::RaceDetected { kernel, .. }) => assert_eq!(kernel, "strided_copy"),
        other => panic!("expected dynamic RaceDetected, got {other:?}"),
    }
}

#[test]
fn seeded_oob_kernel_rejected_with_witness() {
    let machine = test_machine();
    let b = machine.b;
    let n_in = 4 * b;
    // The output allocation holds one block's worth of words (its
    // padded slot is exactly b words), but all four blocks write at
    // block·b + lane: blocks 1..3 land past the slot.
    let mut pb = ProgramBuilder::new("oob");
    let ha = pb.host_input("A", n_in);
    let hc = pb.host_output("C", b);
    let da = pb.device_alloc("a", n_in);
    let dc = pb.device_alloc("c", b);
    pb.begin_round();
    pb.transfer_in(ha, da, n_in);
    pb.launch(strided_kernel(4, b, b as i64, 0, da, dc));
    pb.transfer_out(dc, hc, b);
    let program = pb.build().expect("builds — validation does not check access bounds");

    let report = verify_program(&program, b);
    match report.first_unsoundness().expect("proven out of bounds") {
        Unsoundness::OutOfBounds { round: 0, instr, witness, .. } => {
            assert_eq!(instr, 1, "the write site");
            assert_eq!(witness.limit, b, "the padded slot");
            assert!(witness.addr >= i128::from(b), "escapes the slot: {}", witness.addr);
            assert_eq!(witness.block, (3, 0), "the extreme block");
        }
        other => panic!("expected OutOfBounds, got {other:?}"),
    }
}
