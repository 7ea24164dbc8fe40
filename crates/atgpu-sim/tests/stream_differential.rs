//! Differential property tests for the stream timing model and threaded
//! cluster dispatch.
//!
//! **Streams affect timing only**: a program with arbitrary stream tags
//! and sync steps must be *bit-identical in outputs* to its serial
//! de-streamed form ([`atgpu_ir::ProgramBody::destreamed`]), its
//! per-component times must match exactly,
//! and its stream-aware total can never exceed the serial total.  The
//! generator takes a chunked multi-round vecadd program (the
//! double-buffering shape) and mutates it with random stream
//! assignments and randomly placed `SyncStream`/`SyncDevice` steps.
//!
//! **Threaded dispatch is invisible**: `run_cluster_program` with
//! per-device OS threads must produce the same outputs, statistics and
//! round observations as sequential dispatch, bit for bit — and so must
//! the logged launch a fault plan forces, which is the written-through
//! one's.
//!
//! **A shared cluster holds no settings**: concurrent
//! `run_cluster_program_on` calls on one `Cluster` each keep their own
//! `SimConfig`'s verdict.

use atgpu_ir::{AddrExpr, AluOp, HostStep, KernelBuilder, ProgramBuilder};
use atgpu_model::{ClusterSpec, GpuSpec};
use atgpu_sim::{
    run_cluster_program, run_cluster_program_on, run_program, Cluster, ClusterSimReport,
    FaultEvent, FaultPlan, SimConfig, SimError,
};
use common::{chunked_vecadd, inputs, machine, restream, spec, Rng};
use proptest::prelude::*;

mod common;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Streamed programs are bit-identical to their serial de-streamed
    /// form; their component times match exactly and their stream-aware
    /// total never exceeds serial.
    #[test]
    fn streamed_equals_destreamed(seed in 0u64..1_000_000_000) {
        let mut rng = Rng(seed | 1);
        let chunk = [16u64, 32, 64][rng.below(3) as usize];
        let n = chunk * (1 + rng.below(5));
        let (serial, hc) = chunked_vecadd(n, chunk);
        let streamed = restream(&serial, seed ^ 0xABCD, true);
        prop_assert_eq!(&streamed.destreamed(), &serial);
        let data = inputs(n, seed);

        let cfg = SimConfig::default();
        let r_serial = run_program(&serial, data.clone(), &machine(), &spec(), &cfg).unwrap();
        let r_streamed = run_program(&streamed, data, &machine(), &spec(), &cfg).unwrap();

        // Functional: outputs bit-identical.
        prop_assert_eq!(r_serial.output(hc), r_streamed.output(hc), "outputs diverged");
        // Components identical (streams re-schedule, never re-price).
        prop_assert_eq!(r_serial.transfer_ms(), r_streamed.transfer_ms());
        prop_assert_eq!(r_serial.kernel_ms(), r_streamed.kernel_ms());
        prop_assert_eq!(r_serial.serial_ms(), r_streamed.serial_ms());
        // Overlap can only help.
        prop_assert!(
            r_streamed.total_ms() <= r_serial.total_ms() + 1e-12,
            "streamed {} > serial {}",
            r_streamed.total_ms(),
            r_serial.total_ms()
        );
        // Per-round: the serial program's stream time IS its serial sum.
        for round in &r_serial.rounds {
            prop_assert!((round.total_ms() - round.serial_ms()).abs() < 1e-12);
        }
    }

    /// A program whose transfers all sit on stream 0 has no overlap, even
    /// with sync steps sprinkled in: its total equals the serial total
    /// exactly (sync on serial chains is a no-op).
    #[test]
    fn single_stream_total_is_serial(seed in 0u64..1_000_000_000) {
        let (serial, _) = chunked_vecadd(64, 32);
        let mut synced = restream(&serial, seed, true);
        // Force everything back onto stream 0 but keep the syncs.
        for round in &mut synced.edit().rounds {
            for step in &mut round.steps {
                if let HostStep::TransferIn { stream, .. } | HostStep::TransferOut { stream, .. } =
                    step
                {
                    *stream = 0;
                }
            }
        }
        let data = inputs(64, seed);
        let cfg = SimConfig::default();
        let a = run_program(&serial, data.clone(), &machine(), &spec(), &cfg).unwrap();
        let b = run_program(&synced, data, &machine(), &spec(), &cfg).unwrap();
        prop_assert_eq!(a.total_ms(), b.total_ms());
        prop_assert_eq!(b.total_ms(), b.serial_ms());
    }

    /// Threaded per-device dispatch produces the same report as
    /// sequential dispatch, bit for bit: outputs, statistics and every
    /// observed time — under both write disciplines, the written-through
    /// launch (each worker owns its device's replica) and the logged one
    /// (forced by a fault plan whose one event changes no number: shards
    /// read their replica, logs are journaled and merge in block order) —
    /// and the two disciplines give the same report.
    #[test]
    fn threaded_cluster_dispatch_is_invisible(seed in 0u64..1_000_000_000) {
        let mut rng = Rng(seed | 1);
        let devices = 2 + rng.below(3) as u32; // 2..=4
        let b = 4u64;
        let n = b * (u64::from(devices) * (2 + rng.below(6)));
        let blocks = n / b;

        // A sharded vecadd: every device gets its slice, runs its shard.
        let mut pb = ProgramBuilder::new("sharded");
        let ha = pb.host_input("A", n);
        let hb = pb.host_input("B", n);
        let hc = pb.host_output("C", n);
        let da = pb.device_alloc("a", n);
        let db = pb.device_alloc("b", n);
        let dc = pb.device_alloc("c", n);
        let mut kb = KernelBuilder::new("vecadd", blocks, 3 * b);
        let g = AddrExpr::block() * b as i64 + AddrExpr::lane();
        kb.glb_to_shr(AddrExpr::lane(), da, g.clone());
        kb.glb_to_shr(AddrExpr::lane() + b as i64, db, g.clone());
        kb.ld_shr(0, AddrExpr::lane());
        kb.ld_shr(1, AddrExpr::lane() + b as i64);
        kb.alu(AluOp::Add, 2, atgpu_ir::Operand::Reg(0), atgpu_ir::Operand::Reg(1));
        kb.st_shr(AddrExpr::lane() + 2 * b as i64, atgpu_ir::Operand::Reg(2));
        kb.shr_to_glb(dc, g, AddrExpr::lane() + 2 * b as i64);
        let shards = atgpu_sim::even_shards(blocks, devices);
        pb.begin_round();
        for s in &shards {
            let (off, words) = (s.start * b, s.blocks() * b);
            pb.transfer_in_to(s.device, ha, off, da, off, words);
            pb.transfer_in_streamed(s.device, 1, hb, off, db, off, words);
        }
        pb.launch_sharded(kb.build(), shards.clone());
        for s in &shards {
            let (off, words) = (s.start * b, s.blocks() * b);
            pb.transfer_out_from(s.device, dc, off, hc, off, words);
        }
        let p = pb.build().unwrap();

        let cluster = ClusterSpec::homogeneous(devices as usize, spec());
        let data = inputs(n, seed);
        let mut logged = FaultPlan::new(seed);
        logged.push(FaultEvent::Straggler { device: 0, clock_factor: 1.0 });
        // Written through, then logged; threads off, then on.
        let runs = [FaultPlan::default(), logged].map(|fault| {
            [false, true].map(|device_threads| {
                let cfg = SimConfig { device_threads, fault: fault.clone(), ..SimConfig::default() };
                run_cluster_program(&p, data.clone(), &machine(), &cluster, &cfg).unwrap()
            })
        });
        let first = &runs[0][0];
        for (run, report) in runs.iter().flatten().enumerate() {
            prop_assert_eq!(report.output(hc), first.output(hc), "outputs: run {}", run);
            prop_assert_eq!(&report.rounds, &first.rounds, "round observations: run {}", run);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Every **planned** streamed program — the auto-chunked ooc-vecadd
    /// and the auto-chunked pipelined sharded matmul — is bit-identical
    /// to its `destreamed()` serial form, with identical component times
    /// and a stream total ≤ serial.
    #[test]
    fn planned_programs_equal_destreamed(seed in 0u64..1_000_000_000) {
        let mut rng = Rng(seed | 1);
        let m = machine(); // b = 4
        // A transfer-heavy device so the chunk solver genuinely picks a
        // multi-round ping-pong schedule (cheap α/σ, expensive β).
        let spec = GpuSpec {
            xfer_alpha_ms: 0.01,
            xfer_beta_ms_per_word: 0.01,
            sync_ms: 0.005,
            ..spec()
        };

        // Auto-chunked out-of-core vecadd (partial last chunk allowed).
        let n = 1024 + rng.below(4) * 512 + rng.below(16);
        let w = atgpu_algos::ooc::OocVecAdd::new(n, m.b, seed);
        let planned = w.build_planned(&m, &spec).unwrap();
        let serial = planned.program.destreamed();
        let cfg = SimConfig::default();
        let a = run_program(&planned.program, planned.inputs.clone(), &m, &spec, &cfg).unwrap();
        let b = run_program(&serial, planned.inputs.clone(), &m, &spec, &cfg).unwrap();
        let out = planned.outputs[0];
        prop_assert_eq!(a.output(out), b.output(out), "ooc outputs diverged");
        let expect = w.host_reference();
        prop_assert_eq!(a.output(out), expect.as_slice());
        prop_assert_eq!(a.transfer_ms(), b.transfer_ms());
        prop_assert_eq!(a.kernel_ms(), b.kernel_ms());
        prop_assert!(a.total_ms() <= b.total_ms() + 1e-12);

        // Auto-chunked pipelined sharded matmul on a slow-link pair.
        let mm = atgpu_algos::matmul::MatMul::new(8 * m.b, seed ^ 0x77);
        let mut cluster = ClusterSpec::homogeneous(2, spec);
        for l in &mut cluster.host_links {
            l.alpha_ms *= 4.0;
            l.beta_ms_per_word *= 4.0;
        }
        let built = mm.build_sharded_pipelined(&m, &cluster).unwrap();
        let serial = built.program.destreamed();
        let a = run_cluster_program(&built.program, built.inputs.clone(), &m, &cluster, &cfg)
            .unwrap();
        let b = run_cluster_program(&serial, built.inputs.clone(), &m, &cluster, &cfg).unwrap();
        let out = built.outputs[0];
        prop_assert_eq!(a.output(out), b.output(out), "matmul outputs diverged");
        let expect = mm.host_reference();
        prop_assert_eq!(a.output(out), expect.as_slice());
        prop_assert!(a.total_ms() <= b.total_ms() + 1e-12);
    }

}

/// Regression: the watchdog budget was device state set from the side,
/// so `run_cluster_program_on` dropped its config's budget (a run under
/// `watchdog_cycles: 1` returned `Ok`).  Every `SimConfig` field now
/// travels with the run: on one shared `Cluster` a budget of 1 cuts its
/// own run and nobody else's, also while both run at once.
#[test]
fn a_shared_cluster_honours_each_runs_watchdog() {
    use atgpu_algos::workload::Workload;
    let m = machine();
    let cspec = ClusterSpec::homogeneous(2, spec());
    let built = atgpu_algos::vecadd::VecAdd::new(4096, 7).build_sharded(&m, 2).unwrap();
    let out = built.outputs[0];
    let solo = run_cluster_program(
        &built.program,
        built.inputs.clone(),
        &m,
        &cspec,
        &SimConfig::default(),
    )
    .unwrap();

    let cluster = Cluster::new(m, cspec).unwrap();
    let run = |watchdog_cycles: u64| {
        let cfg = SimConfig { watchdog_cycles, ..SimConfig::default() };
        run_cluster_program_on(&cluster, &built.program, built.inputs.clone(), &cfg)
    };
    let cut = |r: Result<ClusterSimReport, SimError>| {
        assert!(matches!(r, Err(SimError::Watchdog { budget: 1, .. })), "budget 1 gave {r:?}");
    };
    let free = |r: Result<ClusterSimReport, SimError>| {
        let r = r.expect("budget 0 is unlimited");
        assert_eq!(r.rounds, solo.rounds);
        assert_eq!(r.output(out), solo.output(out));
    };
    cut(run(1));
    free(run(0));

    let start = std::sync::Barrier::new(2);
    std::thread::scope(|s| {
        s.spawn(|| {
            start.wait();
            (0..50).for_each(|_| cut(run(1)));
        });
        s.spawn(|| {
            start.wait();
            (0..50).for_each(|_| free(run(0)));
        });
    });
}
