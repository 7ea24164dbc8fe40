//! Concurrent-correctness differential for the serving layer.
//!
//! Two guarantees are pinned here:
//!
//! 1. **Bit-identity under concurrency** — N clients submitting a mix
//!    of programs through one shared [`CostServer`] get reports
//!    bit-identical (outputs *and* observed per-round timings) to
//!    sequential solo [`run_cluster_program`] runs of the same
//!    programs.  The only shared mutable state is the per-device
//!    kernel cache, which must never change results.
//! 2. **Pricing accuracy** — the analytic fast path's quotes match the
//!    simulator's observed totals within the E-sweep tolerance (10%).

use atgpu_algos::stencil::Stencil;
use atgpu_algos::vecadd::VecAdd;
use atgpu_algos::workload::{test_machine, test_spec, BuiltProgram, Workload};
use atgpu_model::{AtgpuMachine, ClusterSpec};
use atgpu_serve::{CostServer, PriceSource, ServeError, ServerConfig};
use atgpu_sim::{
    run_cluster_program, run_cluster_program_on, ClusterSimReport, SimConfig, SimError,
};
use proptest::prelude::*;

const TOLERANCE: f64 = 0.10;

fn machine() -> AtgpuMachine {
    test_machine()
}

fn spec(devices: usize) -> ClusterSpec {
    ClusterSpec::homogeneous(devices, test_spec())
}

/// The program mix clients submit: sharded vector additions of several
/// sizes plus a single-device (plain-launch) program, exercising both
/// launch paths through the shared cluster.
fn program_mix(machine: &AtgpuMachine, devices: u32) -> Vec<BuiltProgram> {
    let mut mix = Vec::new();
    for (n, seed) in [(32 * 24, 1u64), (32 * 40, 2), (32 * 12, 3)] {
        mix.push(VecAdd::new(n, seed).build_sharded(machine, devices).expect("builds"));
    }
    // A plain single-device program runs on device 0 of the cluster.
    mix.push(VecAdd::new(32 * 8, 4).build_sharded(machine, 1).expect("builds"));
    mix
}

/// Bit-identity: outputs word for word, and the observed per-round,
/// per-device millisecond timings exactly.  (Device *cache* counters
/// legitimately differ — the shared cache is warm — so they are not
/// compared.)
fn assert_identical(built: &BuiltProgram, got: &ClusterSimReport, solo: &ClusterSimReport) {
    assert_eq!(got.rounds, solo.rounds, "observed round timings diverged");
    for hbuf in &built.outputs {
        assert_eq!(got.output(*hbuf), solo.output(*hbuf), "output buffer diverged");
    }
}

#[test]
fn concurrent_clients_bit_identical_to_solo() {
    let machine = machine();
    let devices = 2;
    let spec = spec(devices);
    let config = SimConfig::default();
    let mix = program_mix(&machine, devices as u32);

    // Sequential solo baselines.
    let solo: Vec<ClusterSimReport> = mix
        .iter()
        .map(|b| {
            run_cluster_program(&b.program, b.inputs.clone(), &machine, &spec, &config)
                .expect("solo run")
        })
        .collect();

    let server = CostServer::new(machine, spec, ServerConfig::default()).expect("server");
    // 8 concurrent clients (2 tenants × 4), each submitting every
    // program in the mix twice — exercising admission, the shared
    // caches warm and cold, and cross-request interleaving.
    std::thread::scope(|scope| {
        for client in 0..8 {
            let (server, mix, solo) = (&server, &mix, &solo);
            scope.spawn(move || {
                let tenant = if client % 2 == 0 { "alpha" } else { "beta" };
                for _ in 0..2 {
                    for (built, solo_report) in mix.iter().zip(solo) {
                        let report = server
                            .submit(tenant, &built.program, built.inputs.clone())
                            .expect("submission");
                        assert_identical(built, &report, solo_report);
                    }
                }
            });
        }
    });
    let stats = server.stats();
    assert_eq!(stats.admission.admitted_total, 8 * 2 * 4);
    assert_eq!(stats.admission.running, 0);
    assert_eq!(stats.admission.resident_blocks, 0);
}

#[test]
fn pricing_matches_observed_totals_within_tolerance() {
    let machine = machine();
    let devices = 2;
    let spec = spec(devices);
    let config = SimConfig::default();
    let server = CostServer::new(machine, spec.clone(), ServerConfig::default()).expect("server");

    for built in program_mix(&machine, devices as u32) {
        let quote = server.price(&built.program).expect("quote");
        assert_eq!(
            quote.source,
            PriceSource::Analytic,
            "vecadd analyses exactly; it must not fall back to simulation"
        );
        let observed =
            run_cluster_program(&built.program, built.inputs.clone(), &machine, &spec, &config)
                .expect("observation")
                .total_ms();
        let err = (quote.total_ms - observed).abs() / observed;
        assert!(
            err <= TOLERANCE,
            "analytic quote {:.4}ms vs observed {observed:.4}ms: {:.1}% > {:.0}%",
            quote.total_ms,
            100.0 * err,
            100.0 * TOLERANCE
        );
    }
}

/// A peer-heavy program through the pricing service: the sharded halo
/// stencil carries real `TransferPeer` rounds, so the quote exercises
/// the peer-traffic pricing (analyze's `PeerTraffic` rows priced
/// through the streamed cluster objective) end to end.  The quote must
/// land within tolerance of observation whichever tier answers it, and
/// the repeat must replay bit-identically from the memo.
#[test]
fn peer_heavy_stencil_quote_matches_observation() {
    let machine = machine();
    let devices = 4;
    let spec = spec(devices);
    let config = SimConfig::default();
    let server = CostServer::new(machine, spec.clone(), ServerConfig::default()).expect("server");

    let built = Stencil::new(64 * machine.b, 11)
        .build_sharded(&machine, devices as u32, 6)
        .expect("sharded stencil");
    let quote = server.price(&built.program).expect("quote");
    let observed =
        run_cluster_program(&built.program, built.inputs.clone(), &machine, &spec, &config)
            .expect("observation")
            .total_ms();
    let err = (quote.total_ms - observed).abs() / observed;
    assert!(
        err <= TOLERANCE,
        "{:?} quote {:.4}ms vs observed {observed:.4}ms: {:.1}% > {:.0}%",
        quote.source,
        quote.total_ms,
        100.0 * err,
        100.0 * TOLERANCE
    );

    let again = server.price(&built.program).expect("repeat quote");
    assert_eq!(again.source, PriceSource::Memo, "repeat must be memoized");
    assert_eq!(again.total_ms.to_bits(), quote.total_ms.to_bits(), "memo must replay the quote");
}

/// The simulated tier's contract ([`PriceSource::Simulated`]): the quote
/// is the program's cost on **zero-filled inputs**.  That is the cost on
/// any inputs when addressing is data-independent (`scan`: bit-equal to a
/// run on its real data), and only the zero-input cost when it is not
/// (`histogram` bins by value, so its bank conflicts and coalescing follow
/// the data: the quote is the zero-input run to the bit, and not the
/// real-input one).
#[test]
fn simulated_quote_is_the_cost_on_zero_inputs() {
    use atgpu_algos::workload::Plan;
    let machine = AtgpuMachine::gtx650_like();
    let spec = ClusterSpec::homogeneous(1, atgpu_model::GpuSpec::gtx650_like());
    let server = CostServer::new(machine, spec.clone(), ServerConfig::default()).expect("server");
    let roster = atgpu_algos::roster();
    let observe = |program: &atgpu_ir::Program, inputs: Vec<Vec<i64>>| {
        run_cluster_program(program, inputs, &machine, &spec, &SimConfig::default())
            .expect("observation")
            .total_ms()
    };
    for (name, data_independent) in [("scan", true), ("histogram", false)] {
        let entry = roster.iter().find(|e| e.name == name).expect("roster entry");
        let built = entry.workload.build_plan(&machine, Plan::Single).expect("builds");
        let quote = server.price(&built.program).expect("quote");
        assert_eq!(quote.source, PriceSource::Simulated, "{name} must reach the simulated tier");

        let zeros = built.inputs.iter().map(|i| vec![0; i.len()]).collect();
        assert_eq!(quote.total_ms, observe(&built.program, zeros), "{name}: zero-input cost");
        let on_real_data = observe(&built.program, built.inputs.clone());
        assert_eq!(
            quote.total_ms == on_real_data,
            data_independent,
            "{name}: quote {} vs {on_real_data} on its real inputs",
            quote.total_ms
        );
    }
}

/// Regression: `ServerConfig::sim` is fixed at construction and travels
/// with every run the server makes — `submit`, the simulated `price`
/// tier on the shared cluster and the simulated `price_what_if` tier on
/// its throwaway cluster all meet `watchdog_cycles: 1`; the analytic tier
/// simulates nothing and still answers.  The budget is not state of the
/// cluster: another holder of `server.cluster()` running under its own
/// config is not cut (at the parent the budget sat on the devices, so
/// this run failed with the server's `Watchdog`).
#[test]
fn server_watchdog_budget_travels_with_every_run_and_no_further() {
    use atgpu_algos::workload::Plan;
    let machine = AtgpuMachine::gtx650_like();
    let gtx = atgpu_model::GpuSpec::gtx650_like();
    let spec = ClusterSpec::homogeneous(1, gtx);
    let sim = SimConfig { watchdog_cycles: 1, ..SimConfig::default() };
    let config = ServerConfig { sim, ..ServerConfig::default() };
    let server = CostServer::new(machine, spec.clone(), config).expect("server");
    let roster = atgpu_algos::roster();
    let build = |name: &str| {
        let entry = roster.iter().find(|e| e.name == name).expect("roster entry");
        entry.workload.build_plan(&machine, Plan::Single).expect("builds")
    };
    let (scan, vecadd) = (build("scan"), build("vecadd"));
    let cut = |what: &str, err: Option<ServeError>| {
        assert!(
            matches!(err, Some(ServeError::Sim(SimError::Watchdog { budget: 1, .. }))),
            "{what} under a budget of 1 gave {err:?}"
        );
    };
    cut("submit", server.submit("alpha", &scan.program, scan.inputs.clone()).err());
    cut("simulated price", server.price(&scan.program).err());
    let other = ClusterSpec::homogeneous(1, atgpu_model::GpuSpec { k_prime: 5, ..gtx });
    cut("simulated what-if", server.price_what_if(&scan.program, &other).err());
    let quote = server.price(&vecadd.program).expect("the analytic tier runs no launch");
    assert_eq!(quote.source, PriceSource::Analytic);

    let default = SimConfig::default();
    let own =
        run_cluster_program_on(server.cluster(), &scan.program, scan.inputs.clone(), &default)
            .expect("the server's budget is not the cluster's");
    let solo = run_cluster_program(&scan.program, scan.inputs.clone(), &machine, &spec, &default)
        .expect("solo run");
    assert_identical(&scan, &own, &solo);
}

/// Regression: a what-if spec's MP count and residency limit are any
/// values `ClusterSpec::validate` accepts, and none of them can take the
/// server down.  At the parent the device capacity `k′·ℓ` was an
/// unchecked product (it wrapped to 0 and the analytic tier panicked
/// dividing by it) and the simulated tier built one MP per `k′` (the
/// process aborted allocating them).  Every pair gets a quote on both
/// tiers, a device that holds the whole grid prices one wave whatever
/// its size, and a server over the largest devices builds and serves.
/// The DRAM latency and issue interval are bounded at 2³² cycles: unbounded,
/// either at `u64::MAX` overflowed the simulated clock (a debug panic; in
/// release a wrapped clock quoted the tiled transpose cheaper than the
/// stock spec).
#[test]
fn a_what_if_spec_cannot_take_the_server_down() {
    use atgpu_algos::transpose::{Transpose, TransposeVariant};
    let machine = AtgpuMachine::gtx650_like();
    let gtx = atgpu_model::GpuSpec::gtx650_like();
    let server =
        CostServer::new(machine, ClusterSpec::homogeneous(1, gtx), ServerConfig::default())
            .expect("server");
    let vecadd = VecAdd::new(256, 1).build(&machine).expect("builds");
    let transpose = Transpose::new(32, 5, TransposeVariant::Tiled).build(&machine).expect("builds");
    let blocks = 256 / machine.b;

    let sizes = [1, 1 << 20, 1 << 40, 1 << 62, u64::MAX];
    let mut one_wave = Vec::new();
    for k_prime in sizes {
        for h_limit in sizes {
            let spec =
                ClusterSpec::homogeneous(1, atgpu_model::GpuSpec { k_prime, h_limit, ..gtx });
            spec.validate().expect("the model accepts any MP count and residency limit");
            let quote = |built: &BuiltProgram, source| {
                let quote = server.price_what_if(&built.program, &spec).expect("a quote");
                assert_eq!(quote.source, source, "k′ = {k_prime}, H = {h_limit}");
                quote.total_ms
            };
            let vecadd_ms = quote(&vecadd, PriceSource::Analytic);
            quote(&transpose, PriceSource::Simulated);
            if k_prime >= blocks {
                one_wave.push(vecadd_ms.to_bits());
            }
        }
    }
    assert_eq!(one_wave.len(), 4 * sizes.len());
    assert!(one_wave.iter().all(|&ms| ms == one_wave[0]), "one wave prices alike: {one_wave:?}");

    // The DRAM fields feed the simulated clock, once per access and per
    // transaction: at their bound a quote no cheaper than the stock
    // spec's, past it a typed refusal — never an overflow panic, nor a
    // wrapped clock's cheaper quote.
    let stock_spec = ClusterSpec::homogeneous(1, gtx);
    let set: [fn(&mut atgpu_model::GpuSpec, u64); 2] =
        [|s, v| s.dram_latency_cycles = v, |s, v| s.dram_issue_cycles = v];
    let bound = atgpu_model::GpuSpec::MAX_DRAM_CYCLES;
    for (field, set) in ["dram_latency_cycles", "dram_issue_cycles"].into_iter().zip(set) {
        for cycles in [bound, 1 << 40, 1 << 62, u64::MAX] {
            let mut device = gtx;
            set(&mut device, cycles);
            let spec = ClusterSpec::homogeneous(1, device);
            for (built, source) in
                [(&vecadd, PriceSource::Analytic), (&transpose, PriceSource::Simulated)]
            {
                let stock = server.price_what_if(&built.program, &stock_spec).expect("a quote");
                let cell = format!("{field} = {cycles}, {source:?}");
                match server.price_what_if(&built.program, &spec) {
                    Ok(quote) => {
                        assert!(cycles <= bound, "{cell}: past the bound, yet quoted");
                        assert_eq!(quote.source, source, "{cell}");
                        assert!(quote.total_ms >= stock.total_ms, "{cell}: {quote:?} vs {stock:?}");
                    }
                    Err(ServeError::Model(atgpu_model::ModelError::InvalidParams { .. })) => {
                        assert!(cycles > bound, "{cell}: the bound itself is refused");
                    }
                    Err(e) => panic!("{cell}: {e}"),
                }
            }
        }
    }

    let huge = atgpu_model::GpuSpec { k_prime: u64::MAX, h_limit: u64::MAX, ..gtx };
    let server =
        CostServer::new(machine, ClusterSpec::homogeneous(2, huge), ServerConfig::default())
            .expect("a server over the largest devices");
    let report = server.submit("alpha", &vecadd.program, vecadd.inputs.clone()).expect("runs");
    assert_eq!(report.output(vecadd.outputs[0]).len(), 256);
}

/// A one-block kernel of 32 769 `⇐` moves into shared memory holds
/// 65 538 memory sites, one more than a 16-bit site index names: the
/// simulator's lowering used to abort the process on it.  A submit of it
/// runs and returns the program's output.
#[test]
fn a_kernel_past_65_536_memory_sites_runs() {
    use atgpu_ir::{AddrExpr, KernelBuilder, ProgramBuilder};
    let machine = machine();
    let b = machine.b;
    let mut pb = ProgramBuilder::new("many_sites");
    let input = pb.host_input("A", b);
    let output = pb.host_output("C", b);
    let (da, dc) = (pb.device_alloc("a", b), pb.device_alloc("c", b));
    let mut kb = KernelBuilder::new("many_sites", 1, b);
    for _ in 0..32_769 {
        kb.glb_to_shr(AddrExpr::lane(), da, AddrExpr::lane());
    }
    kb.shr_to_glb(dc, AddrExpr::lane(), AddrExpr::lane());
    pb.begin_round();
    pb.transfer_in(input, da, b);
    pb.launch(kb.build());
    pb.transfer_out(dc, output, b);
    let program = pb.build().expect("builds");

    let server = CostServer::new(machine, spec(1), ServerConfig::default()).expect("server");
    let words: Vec<i64> = (0..b as i64).map(|w| 7 * w - 3).collect();
    let report = server.submit("alpha", &program, vec![words.clone()]).expect("runs");
    assert_eq!(report.output(output), &words[..]);
}

/// A program whose kernel's cross-block write stride makes distinct
/// blocks collide on the same global words: the static verifier proves
/// it racy, and the server must refuse to execute *or* price it.
fn racy_program(name: &str) -> (atgpu_ir::Program, Vec<Vec<i64>>) {
    use atgpu_ir::{AddrExpr, KernelBuilder, ProgramBuilder};
    let mut pb = ProgramBuilder::new(name);
    let h = pb.host_input("A", 128);
    let o = pb.host_output("C", 128);
    let da = pb.device_alloc("a", 128);
    let dc = pb.device_alloc("c", 128);
    let mut kb = KernelBuilder::new("collide", 4, 32);
    kb.glb_to_shr(AddrExpr::lane(), da, AddrExpr::block() * 32 + AddrExpr::lane());
    // Stride 16 < warp width: blocks k and k+1 overlap on 16 words.
    kb.shr_to_glb(dc, AddrExpr::block() * 16 + AddrExpr::lane(), AddrExpr::lane());
    pb.begin_round();
    pb.transfer_in(h, da, 128);
    pb.launch(kb.build());
    pb.transfer_out(dc, o, 128);
    (pb.build().expect("builds — validation does not check races"), vec![vec![0; 128]])
}

#[test]
fn unsound_program_refused_with_witness_and_memoized() {
    use atgpu_serve::ServeError;
    let machine = machine();
    let server = CostServer::new(machine, spec(2), ServerConfig::default()).expect("server");

    let (program, inputs) = racy_program("racy");
    let err = server.submit("mallory", &program, inputs.clone()).expect_err("must be refused");
    match &err {
        ServeError::Unsound { program: name, why } => {
            assert_eq!(name, "racy");
            let msg = why.to_string();
            assert!(msg.contains("collide@instr#1"), "witness names the write site: {msg}");
        }
        other => panic!("expected Unsound, got {other:?}"),
    }
    // Pricing is gated by the same verdict — and answered from the
    // verify memo (same structural key), not re-verified.
    assert!(matches!(server.price(&program), Err(ServeError::Unsound { .. })));
    let stats = server.stats();
    assert_eq!(stats.verify.checked, 2);
    assert_eq!(stats.verify.memo_hits, 1);
    assert_eq!(stats.verify.rejected, 2);
    assert_eq!(stats.admission.admitted_total, 0, "never reached the admission queue");

    // A renamed copy has the same structural key: still a memo hit.
    let (renamed, _) = racy_program("racy_again");
    assert!(matches!(server.submit("mallory", &renamed, inputs), Err(ServeError::Unsound { .. })));
    assert_eq!(server.stats().verify.memo_hits, 2);
}

#[test]
fn sound_submissions_count_verify_checks() {
    let machine = machine();
    let devices = 2;
    let server = CostServer::new(machine, spec(devices), ServerConfig::default()).expect("server");
    let built = VecAdd::new(32 * 8, 5).build_sharded(&machine, devices as u32).expect("builds");
    for _ in 0..3 {
        server.submit("alice", &built.program, built.inputs.clone()).expect("sound");
    }
    let stats = server.stats();
    assert_eq!(stats.verify.checked, 3);
    assert_eq!(stats.verify.memo_hits, 2, "verified once, memoized twice");
    assert_eq!(stats.verify.rejected, 0);
    assert_eq!(stats.admission.admitted_total, 3);
}

/// The serve counters are a function of the request multiset, not of
/// the schedule: two clients released together on the same requests —
/// so the same program shape reaches the verdict memo, the quote memo
/// and a device's kernel cache from two threads at once — leave exactly
/// the verify and price counters one client leaves making all the
/// requests alone.  (Each memo is single-flight: one compute per
/// distinct key, everyone else a hit.)
#[test]
fn two_clients_leave_the_single_client_counters() {
    let machine = machine();
    let devices = 2;
    let mut mix = program_mix(&machine, devices as u32);
    mix.push(Stencil::new(64 * machine.b, 11).build_sharded(&machine, 2, 3).expect("stencil"));
    let (racy, racy_inputs) = racy_program("racy");

    // One client's share: every program priced and submitted, and the
    // racy one refused both ways.
    let share = |server: &CostServer, tenant: &str| {
        for built in &mix {
            server.price(&built.program).expect("quote");
            server.submit(tenant, &built.program, built.inputs.clone()).expect("submission");
        }
        assert!(server.price(&racy).is_err());
        assert!(server.submit(tenant, &racy, racy_inputs.clone()).is_err());
    };

    let solo = CostServer::new(machine, spec(devices), ServerConfig::default()).expect("server");
    share(&solo, "alpha");
    share(&solo, "beta");
    let want = solo.stats();
    assert!(want.verify.memo_hits > 0 && want.price.memo_hits > 0);

    for _ in 0..20 {
        let server =
            CostServer::new(machine, spec(devices), ServerConfig::default()).expect("server");
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for tenant in ["alpha", "beta"] {
                let (server, barrier, share) = (&server, &barrier, &share);
                scope.spawn(move || {
                    barrier.wait();
                    share(server, tenant);
                });
            }
        });
        let got = server.stats();
        assert_eq!(got.verify, want.verify);
        assert_eq!(got.price, want.price);
        assert_eq!(got.admission.admitted_total, want.admission.admitted_total);
    }
}

/// A hand-built program with an out-of-range transfer is refused by the
/// validator inside the soundness gate with its typed error — never a
/// panic inside the shared server, and it never reaches the cluster.
#[test]
fn out_of_range_transfer_through_submit_is_a_typed_error() {
    use atgpu_ir::{HostStep, IrError};
    use atgpu_serve::ServeError;
    let machine = machine();
    let server = CostServer::new(machine, spec(2), ServerConfig::default()).expect("server");
    let built = VecAdd::new(32 * 8, 5).build_sharded(&machine, 2).expect("builds");

    type Mutation = fn(&mut HostStep);
    let mutations: [Mutation; 3] = [
        |s| {
            if let HostStep::TransferIn { host_off, .. } = s {
                *host_off += 1 << 30;
            }
        },
        |s| {
            if let HostStep::TransferIn { dev, .. } = s {
                dev.0 += 99;
            }
        },
        |s| {
            if let HostStep::TransferOut { dev_off, .. } = s {
                *dev_off += 1 << 30;
            }
        },
    ];
    for mutate in mutations {
        let mut program = built.program.clone();
        program.rounds.iter_mut().flat_map(|r| r.steps.iter_mut()).for_each(mutate);
        let r = server.submit("mallory", &program, built.inputs.clone());
        assert!(
            matches!(
                r,
                Err(ServeError::Invalid { ref why, .. })
                    if matches!(**why, IrError::TransferOutOfBounds { .. } | IrError::UnknownDeviceBuf { .. })
            ),
            "expected a typed transfer error, got {r:?}"
        );
    }
    assert_eq!(server.stats().admission.admitted_total, 0, "refused before admission");
}

/// A one-round program over a 64-word buffer `a` whose two blocks copy
/// `a` into `c`, after `guarded` under `r0 = 1`, where
/// `r0 ← 0; for 0 times { r0 ← 1 }` leaves `r0 = 0`: the guarded access
/// runs on no lane.
fn dead_guard_program(name: &str, guarded: impl Fn(&mut atgpu_ir::KernelBuilder)) -> BuiltProgram {
    use atgpu_ir::{AddrExpr, KernelBuilder, Operand, PredExpr, ProgramBuilder};
    let mut pb = ProgramBuilder::new(name);
    let (ha, hc) = (pb.host_input("A", 64), pb.host_output("C", 64));
    let (da, dc) = (pb.device_alloc("a", 64), pb.device_alloc("c", 64));
    let mut kb = KernelBuilder::new(name, 2, 32);
    kb.mov(0, Operand::Imm(0));
    kb.repeat(0, |kb| {
        kb.mov(0, Operand::Imm(1));
    });
    kb.when(PredExpr::Eq(Operand::Reg(0), Operand::Imm(1)), guarded);
    let slab = AddrExpr::block() * 32 + AddrExpr::lane();
    kb.glb_to_shr(AddrExpr::lane(), da, slab.clone());
    kb.shr_to_glb(dc, slab, AddrExpr::lane());
    pb.begin_round();
    pb.transfer_in(ha, da, 64);
    pb.launch(kb.build());
    pb.transfer_out(dc, hc, 64);
    let inputs = vec![(0..64).map(|w| 5 * w + 1).collect()];
    BuiltProgram { program: pb.build().expect("builds"), inputs, outputs: vec![hc] }
}

/// A zero-trip loop's body never runs, so the verifier reads the lane
/// facts the simulator runs: an access guarded by a register only the
/// dead loop would set is neither a proven out-of-bounds access nor a
/// proven race, and the server runs both programs as `run_program` does.
#[test]
fn a_zero_trip_loop_changes_no_lane_fact() {
    use atgpu_ir::{AddrExpr, DBuf};
    let machine = machine();
    let oob = dead_guard_program("dead_oob", |kb| {
        kb.glb_to_shr(AddrExpr::lane(), DBuf(0), AddrExpr::lane() + 1000);
    });
    // Every block would write word 0 of `c`.
    let race = dead_guard_program("dead_race", |kb| {
        kb.shr_to_glb(DBuf(1), AddrExpr::c(0), AddrExpr::lane());
    });
    let server = CostServer::new(machine, spec(1), ServerConfig::default()).expect("server");
    for built in [oob, race] {
        let verdict = atgpu_verify::verify_program(&built.program, machine.b);
        assert!(verdict.is_sound(), "{}: {:?}", built.program.name, verdict.first_unsoundness());
        let solo = atgpu_sim::run_program(
            &built.program,
            built.inputs.clone(),
            &machine,
            &test_spec(),
            &SimConfig::default(),
        )
        .expect("runs");
        let served = server.submit("alpha", &built.program, built.inputs.clone()).expect("runs");
        let hc = built.outputs[0];
        assert_eq!(served.output(hc), solo.output(hc));
        assert_eq!(served.output(hc), &built.inputs[0][..]);
        server.price(&built.program).expect("a quote");
    }
}

/// A hand-built kernel nested one loop deeper than `MAX_LOOP_DEPTH`
/// (the builder's validation would refuse it) is refused by both doors
/// with the validator's error; it used to panic in the executor.
#[test]
fn a_loop_nest_past_max_loop_depth_is_a_typed_error() {
    use atgpu_ir::{HostStep, Instr, IrError, MAX_LOOP_DEPTH};
    let machine = machine();
    let server = CostServer::new(machine, spec(1), ServerConfig::default()).expect("server");
    let built = VecAdd::new(32 * 8, 5).build_sharded(&machine, 1).expect("builds");
    let mut program = built.program.clone();
    for step in program.rounds.iter_mut().flat_map(|r| r.steps.iter_mut()) {
        if let HostStep::Launch(k) | HostStep::LaunchSharded { kernel: k, .. } = step {
            for _ in 0..=MAX_LOOP_DEPTH {
                k.body = vec![Instr::Repeat { count: 1, body: std::mem::take(&mut k.body) }];
            }
        }
    }
    let deep = |r: Result<_, ServeError>| matches!(r, Err(ServeError::Invalid { why, .. }) if matches!(*why, IrError::LoopTooDeep { .. }));
    assert!(deep(server.submit("mallory", &program, built.inputs.clone()).map(|_| ())));
    assert!(deep(server.price(&program).map(|_| ())));
    let stats = server.stats();
    assert_eq!((stats.verify.checked, stats.verify.memo_hits, stats.verify.rejected), (2, 1, 2));
}

/// A grid whose block count `gx·gy` overflows a `u64` is refused by both
/// doors with the validator's typed error.  It used to panic with an
/// arithmetic overflow inside the validator (debug builds) or be quoted
/// for 2⁶⁴ − 2 blocks (release).
#[test]
fn a_grid_whose_block_count_overflows_is_a_typed_error() {
    use atgpu_ir::{HostStep, IrError};
    let machine = machine();
    let server = CostServer::new(machine, spec(1), ServerConfig::default()).expect("server");
    let built = VecAdd::new(32 * 8, 5).build_sharded(&machine, 1).expect("builds");
    let mut program = built.program.clone();
    for step in program.rounds.iter_mut().flat_map(|r| r.steps.iter_mut()) {
        // A plain launch, so that the grid is the program's one defect.
        if let HostStep::Launch(k) | HostStep::LaunchSharded { kernel: k, .. } = step {
            let grid = (u64::MAX, 2);
            *step = HostStep::Launch(atgpu_ir::Kernel { grid, ..k.clone() });
        }
    }
    let overflow = |r: Result<_, ServeError>| matches!(r, Err(ServeError::Invalid { why, .. }) if matches!(*why, IrError::GridOverflow { grid: (u64::MAX, 2), .. }));
    assert!(overflow(server.submit("mallory", &program, built.inputs.clone()).map(|_| ())));
    assert!(overflow(server.price(&program).map(|_| ())));
}

/// A kernel whose address `block·2⁶² + lane` runs past `i64::MAX` over
/// its 4 blocks is proven out of bounds, with its exact witness, by both
/// doors.  At the parent the range was cast to `i64` and wrapped: the
/// program verified sound, was quoted analytically and reached the
/// simulator, which failed with `GlobalOutOfBounds`.
#[test]
fn an_address_past_i64_is_refused_with_its_exact_witness() {
    use atgpu_ir::{AddrExpr, KernelBuilder, ProgramBuilder};
    let machine = machine();
    let server = CostServer::new(machine, spec(1), ServerConfig::default()).expect("server");
    let mut pb = ProgramBuilder::new("far");
    let (h, o) = (pb.host_input("A", 128), pb.host_output("C", 128));
    let d = pb.device_alloc("d", 128);
    let mut kb = KernelBuilder::new("far", 4, 32);
    kb.glb_to_shr(AddrExpr::lane(), d, AddrExpr::block() * (1i64 << 62) + AddrExpr::lane());
    pb.begin_round();
    pb.transfer_in(h, d, 128);
    pb.launch(kb.build());
    pb.transfer_out(d, o, 128);
    let program = pb.build().expect("builds");
    let witness = "word 13835058055282163743 of a 128-word allocation at block (3,0), lane 31";
    let refused = |r: Result<(), ServeError>| match r {
        Err(ServeError::Unsound { why, .. }) => why.to_string().contains(witness),
        _ => false,
    };
    assert!(refused(server.price(&program).map(|_| ())));
    assert!(refused(server.submit("mallory", &program, vec![vec![0; 128]]).map(|_| ())));
}

/// Three nested `repeat(u32::MAX)` loops make every count pass `u64`: the
/// analyser saturates them, within a site and summed across sites, and
/// the quote stays on the analytic tier — also when a bank-conflicting
/// shared access makes the analysis untrusted.  At the parent the counts
/// were unchecked products and sums (a debug build panicked with an
/// arithmetic overflow, a release build wrapped) and an untrusted program
/// went to simulation.  The watchdog makes a quote routed to simulation
/// fail instead of running 2⁹⁶ iterations.
#[test]
fn counts_past_u64_saturate_and_are_quoted_analytically() {
    use atgpu_ir::{AddrExpr, KernelBuilder, ProgramBuilder};
    let machine = machine();
    let sim = SimConfig { watchdog_cycles: 1 << 20, ..SimConfig::default() };
    let config = ServerConfig { sim, ..ServerConfig::default() };
    let server = CostServer::new(machine, spec(1), config).expect("server");
    // `_s[stride·lane]`: stride 1 is conflict-free, stride 2 conflicts.
    for stride in [1, 2] {
        let mut pb = ProgramBuilder::new("forever");
        let h = pb.host_input("A", 64);
        let d = pb.device_alloc("d", 64);
        let mut kb = KernelBuilder::new("forever", 2, 64);
        kb.glb_to_shr(AddrExpr::lane(), d, AddrExpr::lane());
        kb.repeat(u32::MAX, |kb| {
            kb.repeat(u32::MAX, |kb| {
                kb.repeat(u32::MAX, |kb| {
                    let g = AddrExpr::block() * 32 + AddrExpr::lane();
                    kb.glb_to_shr(AddrExpr::lane() * stride, d, g);
                });
            });
        });
        pb.begin_round();
        pb.transfer_in(h, d, 64);
        pb.launch(kb.build());
        let program = pb.build().expect("builds");
        let quote = server.price(&program).expect("a quote");
        assert_eq!(quote.source, PriceSource::Analytic, "stride {stride}");
        assert!(quote.total_ms.is_finite() && quote.total_ms > 1e12, "{}", quote.total_ms);
    }
}

/// A one-round program whose host input `A` and output `C` are declared
/// at `input` and `output` words, of which 64 are moved: up, through a
/// two-block kernel (`b = 32`) whose `_s[2·lane]` bank conflict keeps its quote off the
/// analytic tier, and down.
fn declared_host_program(input: u64, output: u64) -> atgpu_ir::Program {
    use atgpu_ir::{AddrExpr, KernelBuilder, ProgramBuilder};
    let mut pb = ProgramBuilder::new("declared");
    let (h, o) = (pb.host_input("A", input), pb.host_output("C", output));
    let (d, c) = (pb.device_alloc("d", 64), pb.device_alloc("c", 64));
    let mut kb = KernelBuilder::new("conflicting", 2, 64);
    let g = AddrExpr::block() * 32 + AddrExpr::lane();
    kb.glb_to_shr(AddrExpr::lane() * 2, d, g.clone());
    kb.shr_to_glb(c, g, AddrExpr::lane() * 2);
    pb.begin_round();
    pb.transfer_in(h, d, 64);
    pb.launch(kb.build());
    pb.transfer_out(c, o, 64);
    pb.build().expect("the builder accepts any declared size")
}

/// Regression: a host buffer's declared size is the client's to choose,
/// and the host could not always hold it.  The simulated pricing tier
/// zero-filled inputs with `vec![0; words]` and a run zero-filled outputs
/// the same way, so 2⁵⁰ words aborted the process ("memory allocation
/// … failed") and `u64::MAX` words panicked (capacity overflow) through
/// `price` and `submit`.  Both are `SimError::OutOfHostMemory` now, and
/// the server answers the next request.
#[test]
fn a_host_buffer_past_the_host_is_a_typed_error() {
    let server = CostServer::new(machine(), spec(1), ServerConfig::default()).expect("server");
    for words in [1u64 << 50, u64::MAX] {
        let refused = |r: Result<PriceSource, ServeError>| matches!(r, Err(ServeError::Sim(SimError::OutOfHostMemory { words: w })) if w == words);
        let priced = |p: &atgpu_ir::Program| server.price(p).map(|q| q.source);
        let input = declared_host_program(words, 64);
        assert!(refused(priced(&input)), "price, input of {words}: {:?}", priced(&input));
        let output = declared_host_program(64, words);
        assert!(refused(priced(&output)), "price, output of {words}: {:?}", priced(&output));
        let ran = server.submit("mallory", &output, vec![vec![1; 64]]).map(|_| PriceSource::Memo);
        assert!(refused(ran.clone()), "submit, output of {words}: {ran:?}");
    }
    let program = declared_host_program(64, 64);
    assert_eq!(server.price(&program).expect("a quote").source, PriceSource::Simulated);
    let report = server.submit("alice", &program, vec![(0..64).collect()]).expect("a run");
    assert_eq!(report.output(atgpu_ir::HBuf(1)), (0..64).collect::<Vec<i64>>());
}

/// Minor page faults of the calling thread so far (field 10 of
/// `/proc/thread-self/stat`, counted after the parenthesised command).
fn thread_minor_faults() -> u64 {
    let stat = std::fs::read_to_string("/proc/thread-self/stat").expect("procfs");
    let fields = &stat[stat.rfind(')').expect("comm") + 1..];
    fields.split_whitespace().nth(7).and_then(|f| f.parse().ok()).expect("minflt")
}

/// A declared host buffer costs only the pages a run writes.  Quoting and
/// running a program that declares a 2²⁷- or 2³¹-word output (1 and 16
/// GiB) but moves 64 words into it faults in a handful of pages, or is
/// refused where the host cannot reserve the size: its zeros come from
/// the allocator untouched, and an output larger than the machine's `G`
/// never joins the spare list.
#[test]
fn a_declared_host_buffer_costs_only_the_pages_a_run_writes() {
    let server = CostServer::new(machine(), spec(1), ServerConfig::default()).expect("server");
    let warm = declared_host_program(64, 64);
    server.price(&warm).expect("a quote");
    server.submit("alice", &warm, vec![vec![1; 64]]).expect("a run");
    for words in [1u64 << 27, 1 << 31] {
        let program = declared_host_program(64, words);
        let fits = |r: Result<(), ServeError>| match r {
            Ok(()) => true,
            Err(ServeError::Sim(SimError::OutOfHostMemory { words: w })) => w == words,
            Err(_) => false,
        };
        let before = thread_minor_faults();
        let priced = server.price(&program).map(|_| ());
        let ran = server.submit("alice", &program, vec![vec![1; 64]]).map(|_| ());
        let faults = thread_minor_faults() - before;
        assert!(fits(priced.clone()) && fits(ran.clone()), "{words}: {priced:?} {ran:?}");
        // The output's tags (one word per 512) may come zero-filled by
        // hand: 512 pages at 2²⁷ words.  Its words alone are 2¹⁸ pages.
        assert!(faults < 4096, "{words} declared words faulted in {faults} pages");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// For any grid size, device count and client count N ≥ 4, N
    /// concurrent clients submitting the same program through the
    /// server observe exactly the solo report.
    #[test]
    fn any_concurrency_is_bit_identical(
        blocks in 1u64..48,
        devices in 1u32..5,
        clients in 4usize..8,
    ) {
        let machine = machine();
        let spec = spec(devices as usize);
        let config = SimConfig::default();
        let built = VecAdd::new(32 * blocks, blocks | 1)
            .build_sharded(&machine, devices)
            .expect("builds");
        let solo = run_cluster_program(&built.program, built.inputs.clone(), &machine, &spec, &config)
            .expect("solo run");

        let server = CostServer::new(machine, spec, ServerConfig::default()).expect("server");
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    let (server, built, solo) = (&server, &built, &solo);
                    scope.spawn(move || {
                        let tenant = format!("tenant-{}", c % 3);
                        let report = server
                            .submit(&tenant, &built.program, built.inputs.clone())
                            .expect("submission");
                        assert_identical(built, &report, solo);
                    })
                })
                .collect();
            for h in handles {
                h.join().expect("client thread");
            }
        });

        // And the analytic quote for this program stays within the
        // E-sweep tolerance of the solo observation.
        let quote = server.price(&built.program).expect("quote");
        let observed = solo.total_ms();
        prop_assert!(
            (quote.total_ms - observed).abs() / observed <= TOLERANCE,
            "quote {}ms vs observed {}ms", quote.total_ms, observed
        );
    }
}
