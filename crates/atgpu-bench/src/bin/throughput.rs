//! `cargo bench`-independent throughput harness and CI perf gate.
//!
//! Measures simulator throughput (blocks/second and wall time) for the
//! tracked workloads and writes machine-readable JSON so the perf
//! trajectory is recorded from PR 1 onward:
//!
//! ```text
//! cargo run --release -p atgpu-bench --bin throughput -- \
//!     [--out BENCH_7.json] [--fast] \
//!     [--compare BENCH_7.json] [--tolerance 0.85]
//! ```
//!
//! `--fast` runs one repetition per workload (CI smoke); the default
//! takes the best of five.  `--compare` turns the run into a
//! **regression gate**: after measuring, every workload recorded in the
//! baseline JSON is checked against the current run, and the process
//! exits nonzero if any workload's blocks/s drops below
//! `tolerance × baseline` (or disappears — see
//! [`atgpu_bench::gate`]).  Workloads new in the current run are
//! reported but not gated, so baselines can grow over time.
//!
//! Blocks/s are **host-normalized** before comparison: each workload's
//! engine throughput is divided by the *same run's* reference-interpreter
//! throughput on the same workload — the in-repo hardware yardstick,
//! whose code is frozen as the differential baseline — and that ratio is
//! gated against the baseline file's recorded ratio.  Raw blocks/s swing
//! with the recording host (CI runners differ by 2× and shared boxes
//! drift hour to hour, which this repo's own BENCH_*.json history shows
//! on untouched code), so an un-normalized gate would flake on machine
//! weather instead of catching regressions.  The normalized ratio itself
//! shifts across CPU generations, so the gate additionally divides each
//! workload's ratio by the clamped leave-one-out median of the fleet's
//! ratios (see [`atgpu_bench::gate`]) — host-wide shifts cancel,
//! relative per-workload regressions still trip.
//!
//! Cross-launch kernel-cache hit rates are reported per workload, and
//! the `relaunch_vecadd` pair measures the cache's effect directly: the
//! same repeated-launch program with the cache on (default) vs the
//! `SimConfig::cache` kill-switch off.

#![forbid(unsafe_code)]

use atgpu_algos::histogram::Histogram;
use atgpu_algos::ooc::OocVecAdd;
use atgpu_algos::reduce::{Reduce, ReduceVariant};
use atgpu_algos::stencil::Stencil;
use atgpu_algos::workload::BuiltProgram;
use atgpu_algos::{matmul::MatMul, vecadd::VecAdd, Workload};
use atgpu_bench::bench_config;
use atgpu_bench::gate;
use atgpu_model::ClusterSpec;
use atgpu_sim::{run_cluster_program, run_program, CacheStats, FaultEvent, FaultPlan, SimConfig};
use std::fmt::Write as _;
use std::time::Instant;

struct Measurement {
    name: &'static str,
    blocks: u64,
    secs_reference: f64,
    secs_engine: f64,
    /// Kernel-cache counters of the engine run.
    cache: CacheStats,
}

impl Measurement {
    fn engine_bps(&self) -> f64 {
        self.blocks as f64 / self.secs_engine
    }

    /// Host-normalized throughput: engine blocks/s in units of the same
    /// run's reference-interpreter blocks/s (the machine-independent
    /// number the gate compares).
    fn normalized(&self) -> f64 {
        self.secs_reference / self.secs_engine
    }

    fn gate_entry(&self) -> gate::Entry {
        gate::Entry {
            name: self.name.to_string(),
            engine_bps: self.engine_bps(),
            normalized: self.normalized(),
        }
    }
}

/// Total thread blocks launched by a program (plain and sharded).
fn program_blocks(built: &BuiltProgram) -> u64 {
    built
        .program
        .rounds
        .iter()
        .flat_map(|r| r.steps.iter())
        .filter_map(|s| match s {
            atgpu_ir::HostStep::Launch(k) => Some(k.blocks()),
            atgpu_ir::HostStep::LaunchSharded { kernel, .. } => Some(kernel.blocks()),
            _ => None,
        })
        .sum()
}

fn measure_built_with(
    built: &BuiltProgram,
    name: &'static str,
    reps: usize,
    engine_cfg: &SimConfig,
) -> Measurement {
    let cfg = bench_config();
    let blocks = program_blocks(built);
    let time_mode = |sim: &SimConfig| -> (f64, CacheStats) {
        let mut best = f64::INFINITY;
        let mut cache = CacheStats::default();
        for _ in 0..reps {
            let inputs = built.inputs.clone();
            let t = Instant::now();
            let r = run_program(&built.program, inputs, &cfg.machine, &cfg.spec, sim)
                .expect("simulation succeeds");
            let dt = t.elapsed().as_secs_f64();
            cache = r.device_stats.cache;
            std::hint::black_box(r);
            best = best.min(dt);
        }
        (best, cache)
    };
    let (engine, cache) = time_mode(engine_cfg);
    let (reference, _) = time_mode(&SimConfig { use_reference: true, ..engine_cfg.clone() });
    Measurement { name, blocks, secs_reference: reference, secs_engine: engine, cache }
}

fn measure_built(built: &BuiltProgram, name: &'static str, reps: usize) -> Measurement {
    measure_built_with(built, name, reps, &SimConfig::default())
}

fn measure(w: &dyn Workload, name: &'static str, reps: usize) -> Measurement {
    let cfg = bench_config();
    let built = w.build(&cfg.machine).expect("workload builds");
    measure_built(&built, name, reps)
}

/// Times a sharded vecadd launch on an N-device cluster (simulation
/// throughput of the multi-device layer, engine vs reference).
fn measure_cluster(n: u64, devices: u32, name: &'static str, reps: usize) -> Measurement {
    let cfg = bench_config();
    let w = VecAdd::new(n, 1);
    let built = w.build_sharded(&cfg.machine, devices).expect("sharded vecadd builds");
    let cluster = ClusterSpec::homogeneous(devices as usize, cfg.spec);
    measure_on_cluster(built, cluster, name, reps)
}

/// Times the halo-exchange stencil on an N-device cluster: every round
/// after the first trades boundary cells over the peer links, so this
/// tracks the `TransferPeer` path plus the multi-round sharded-launch
/// machinery under sustained peer traffic.
fn measure_stencil_halo(
    n: u64,
    devices: u32,
    rounds: u64,
    name: &'static str,
    reps: usize,
) -> Measurement {
    let cfg = bench_config();
    let w = Stencil::new(n, 1);
    let built = w.build_sharded(&cfg.machine, devices, rounds).expect("sharded stencil builds");
    let cluster = ClusterSpec::homogeneous(devices as usize, cfg.spec);
    measure_on_cluster(built, cluster, name, reps)
}

/// Times the partial-bin histogram on an N-device cluster: each device
/// accumulates its shard's per-block bin rows, peer-merges them to the
/// owner device and a single-shard merge kernel folds them — the
/// all-to-one gather pattern.
fn measure_histogram_merge(n: u64, devices: u32, name: &'static str, reps: usize) -> Measurement {
    let cfg = bench_config();
    let w = Histogram::new(n, cfg.machine.b, 1);
    let built = w.build_sharded(&cfg.machine, devices).expect("sharded histogram builds");
    let cluster = ClusterSpec::homogeneous(devices as usize, cfg.spec);
    measure_on_cluster(built, cluster, name, reps)
}

/// Times the **cost-planned** sharded vecadd on a link-asymmetric
/// 2-device cluster (identical GPUs, second host link 8x slower) — the
/// pipeline-planner workload: plan candidates are priced through the
/// cluster cost function at build time, then the planned program is
/// simulated end to end.
fn measure_cluster_planned(n: u64, name: &'static str, reps: usize) -> Measurement {
    let cfg = bench_config();
    let mut cluster = ClusterSpec::homogeneous(2, cfg.spec);
    cluster.host_links[1] = atgpu_model::LinkParams {
        alpha_ms: cluster.host_links[1].alpha_ms * 8.0,
        beta_ms_per_word: cluster.host_links[1].beta_ms_per_word * 8.0,
    };
    let w = VecAdd::new(n, 1);
    let built =
        w.build_sharded_planned(&cfg.machine, &cluster).expect("planned sharded vecadd builds");
    measure_on_cluster(built, cluster, name, reps)
}

/// Concurrent-client serving throughput: `clients` threads each submit
/// the same sharded vecadd `per_client` times through one shared
/// [`atgpu_serve::CostServer`] — admission queueing, occupancy packing
/// and shared-cluster execution included — engine vs reference
/// interpretation.  The shared per-device kernel cache makes every
/// submission after the first a cache hit, so this also tracks the
/// serving layer's warm-path overhead.
fn measure_serve(
    n: u64,
    clients: usize,
    per_client: usize,
    name: &'static str,
    reps: usize,
) -> Measurement {
    use atgpu_serve::{CostServer, ServerConfig};
    let cfg = bench_config();
    let devices = 2u32;
    let built = VecAdd::new(n, 1).build_sharded(&cfg.machine, devices).expect("sharded builds");
    let cluster = ClusterSpec::homogeneous(devices as usize, cfg.spec);
    let blocks = cfg.machine.blocks_for(n) * (clients * per_client) as u64;

    let time_mode = |sim: &SimConfig| -> (f64, CacheStats) {
        let mut best = f64::INFINITY;
        let mut cache = CacheStats::default();
        for _ in 0..reps {
            let server = CostServer::new(
                cfg.machine,
                cluster.clone(),
                ServerConfig { sim: sim.clone(), ..ServerConfig::default() },
            )
            .expect("server builds");
            let t = Instant::now();
            std::thread::scope(|scope| {
                for c in 0..clients {
                    let (server, built) = (&server, &built);
                    scope.spawn(move || {
                        let tenant = format!("client-{c}");
                        for _ in 0..per_client {
                            let r = server
                                .submit(&tenant, &built.program, built.inputs.clone())
                                .expect("submission succeeds");
                            std::hint::black_box(r);
                        }
                    });
                }
            });
            let dt = t.elapsed().as_secs_f64();
            // One more solo submission reads the shared devices'
            // cumulative cache counters for the whole drain.
            let r = server
                .submit("probe", &built.program, built.inputs.clone())
                .expect("probe submission succeeds");
            cache = r.device_stats_total().cache;
            best = best.min(dt);
        }
        (best, cache)
    };

    let (engine, cache) = time_mode(&SimConfig::default());
    let (reference, _) = time_mode(&SimConfig { use_reference: true, ..SimConfig::default() });
    Measurement { name, blocks, secs_reference: reference, secs_engine: engine, cache }
}

fn measure_on_cluster(
    built: BuiltProgram,
    cluster: ClusterSpec,
    name: &'static str,
    reps: usize,
) -> Measurement {
    let cfg = bench_config();
    let blocks = program_blocks(&built);

    let time_mode = |sim: &SimConfig| -> (f64, CacheStats) {
        let mut best = f64::INFINITY;
        let mut cache = CacheStats::default();
        for _ in 0..reps {
            let inputs = built.inputs.clone();
            let t = Instant::now();
            let r = run_cluster_program(&built.program, inputs, &cfg.machine, &cluster, sim)
                .expect("cluster simulation succeeds");
            let dt = t.elapsed().as_secs_f64();
            cache = r.device_stats_total().cache;
            std::hint::black_box(r);
            best = best.min(dt);
        }
        (best, cache)
    };

    let (engine, cache) = time_mode(&SimConfig::default());
    let (reference, _) = time_mode(&SimConfig { use_reference: true, ..SimConfig::default() });
    Measurement { name, blocks, secs_reference: reference, secs_engine: engine, cache }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = String::from("BENCH_7.json");
    let mut reps = 5usize;
    let mut baseline: Option<String> = None;
    let mut tolerance = 0.85f64;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                i += 1;
                out_path = args.get(i).expect("--out needs a path").clone();
            }
            "--compare" => {
                i += 1;
                baseline = Some(args.get(i).expect("--compare needs a baseline path").clone());
            }
            "--tolerance" => {
                i += 1;
                tolerance = args
                    .get(i)
                    .expect("--tolerance needs a value")
                    .parse()
                    .expect("--tolerance must be a number");
            }
            "--fast" => reps = 1,
            other => {
                eprintln!("unknown argument `{other}`");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    // A gate needs stable numbers: single-repetition timings on shared
    // hosts swing far past any sane tolerance, so --compare enforces a
    // best-of-3 minimum even under --fast.
    if baseline.is_some() {
        reps = reps.max(3);
    }

    let vecadd = VecAdd::new(200_000, 1);
    let matmul = MatMul::new(128, 1);
    let reduce = Reduce::new(1 << 16, 1);
    let reduce_seq = Reduce::with_variant(1 << 16, 1, ReduceVariant::SequentialAddressing);
    let ooc_streamed = OocVecAdd::new(1 << 18, 1 << 15, 1)
        .build_streamed(&bench_config().machine)
        .expect("streamed ooc builds");
    // The repeated-launch shape the cross-launch kernel cache exists
    // for: a small grid launched 400 times, so per-launch compilation
    // dominates unless cached.
    let relaunch = {
        let cfg = bench_config();
        VecAdd::new(8 * cfg.machine.b, 1)
            .build_relaunched(&cfg.machine, 400)
            .expect("relaunched vecadd builds")
    };
    // Static-verification smoke: every benched program must verify
    // sound before it is worth timing — a program with a proven
    // cross-block write race or out-of-bounds access would be
    // benchmarking nondeterminism.  Prints one `verify:` line per
    // program for the CI job summary.
    {
        let cfg = bench_config();
        let check = |name: &str, built: &BuiltProgram| {
            let report = atgpu_verify::verify_program(&built.program, cfg.machine.b);
            if let Some(why) = report.first_unsoundness() {
                eprintln!("verify: {name}: UNSOUND — {why}");
                std::process::exit(1);
            }
            println!(
                "verify: {name}: sound ({} launch(es), {})",
                report.launches.len(),
                if report.all_race_free() { "proven race-free" } else { "race unknown" }
            );
        };
        check("vecadd_200k", &vecadd.build(&cfg.machine).expect("vecadd builds"));
        check("matmul_128", &matmul.build(&cfg.machine).expect("matmul builds"));
        check("reduce_64k", &reduce.build(&cfg.machine).expect("reduce builds"));
        check("reduce_seq_64k", &reduce_seq.build(&cfg.machine).expect("reduce builds"));
        check(
            "vecadd_sharded_4dev",
            &VecAdd::new(200_000, 1).build_sharded(&cfg.machine, 4).expect("sharded builds"),
        );
        check(
            "stencil_halo_4dev",
            &Stencil::new(65_536, 1).build_sharded(&cfg.machine, 4, 8).expect("stencil builds"),
        );
        check(
            "histogram_merge_4dev",
            &Histogram::new(1 << 16, cfg.machine.b, 1)
                .build_sharded(&cfg.machine, 4)
                .expect("histogram builds"),
        );
        check("ooc_vecadd_streamed", &ooc_streamed);
        check("relaunch_vecadd", &relaunch);
    }

    // Named, re-runnable measurements: the gate re-measures regressed
    // entries instead of trusting one sample.
    type MeasureFn<'a> = Box<dyn Fn(usize) -> Measurement + 'a>;
    let benches: Vec<(&str, MeasureFn<'_>)> = vec![
        ("vecadd_200k", Box::new(|r| measure(&vecadd, "vecadd_200k", r))),
        ("matmul_128", Box::new(|r| measure(&matmul, "matmul_128", r))),
        ("reduce_64k", Box::new(|r| measure(&reduce, "reduce_64k", r))),
        ("reduce_seq_64k", Box::new(|r| measure(&reduce_seq, "reduce_seq_64k", r))),
        (
            "vecadd_sharded_1dev",
            Box::new(|r| measure_cluster(200_000, 1, "vecadd_sharded_1dev", r)),
        ),
        (
            "vecadd_sharded_4dev",
            Box::new(|r| measure_cluster(200_000, 4, "vecadd_sharded_4dev", r)),
        ),
        (
            "vecadd_planned_asym2dev",
            Box::new(|r| measure_cluster_planned(200_000, "vecadd_planned_asym2dev", r)),
        ),
        (
            "stencil_halo_4dev",
            Box::new(|r| measure_stencil_halo(65_536, 4, 8, "stencil_halo_4dev", r)),
        ),
        (
            "histogram_merge_4dev",
            Box::new(|r| measure_histogram_merge(1 << 16, 4, "histogram_merge_4dev", r)),
        ),
        (
            "ooc_vecadd_streamed",
            Box::new(|r| measure_built(&ooc_streamed, "ooc_vecadd_streamed", r)),
        ),
        (
            "serve_concurrent_8c",
            Box::new(|r| measure_serve(200_000, 8, 2, "serve_concurrent_8c", r)),
        ),
        ("relaunch_vecadd", Box::new(|r| measure_built(&relaunch, "relaunch_vecadd", r))),
        (
            "relaunch_vecadd_nocache",
            Box::new(|r| {
                measure_built_with(
                    &relaunch,
                    "relaunch_vecadd_nocache",
                    r,
                    &SimConfig { cache: false, ..SimConfig::default() },
                )
            }),
        ),
    ];
    let mut runs: Vec<Measurement> = benches.iter().map(|(_, b)| b(reps)).collect();

    let mut json = String::from("{\n  \"benchmarks\": [\n");
    for (i, m) in runs.iter().enumerate() {
        let bps_ref = m.blocks as f64 / m.secs_reference;
        let bps_eng = m.engine_bps();
        let speedup = m.secs_reference / m.secs_engine;
        println!(
            "{:<24} blocks={:<8} reference={:>9.2} blk/s  engine={:>9.2} blk/s  speedup={:.2}x  \
             cache {}H/{}M",
            m.name, m.blocks, bps_ref, bps_eng, speedup, m.cache.hits, m.cache.misses
        );
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"blocks\": {}, \
             \"reference_secs\": {:.6}, \"engine_secs\": {:.6}, \
             \"reference_blocks_per_sec\": {:.2}, \"engine_blocks_per_sec\": {:.2}, \
             \"speedup\": {:.3}, \"cache_hits\": {}, \"cache_misses\": {}}}{}",
            m.name,
            m.blocks,
            m.secs_reference,
            m.secs_engine,
            bps_ref,
            bps_eng,
            speedup,
            m.cache.hits,
            m.cache.misses,
            if i + 1 < runs.len() { "," } else { "" }
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write bench json");
    println!("wrote {out_path}");

    // Cache summary: overall hit rate plus the direct on/off comparison
    // on the repeated-launch workload (printed for the CI job summary).
    let (hits, misses) =
        runs.iter().fold((0u64, 0u64), |(h, m), r| (h + r.cache.hits, m + r.cache.misses));
    println!(
        "kernel-cache: {hits} hits / {misses} misses ({:.1}% hit rate across workloads)",
        100.0 * hits as f64 / (hits + misses).max(1) as f64
    );
    let on = runs.iter().find(|m| m.name == "relaunch_vecadd");
    let off = runs.iter().find(|m| m.name == "relaunch_vecadd_nocache");
    if let (Some(on), Some(off)) = (on, off) {
        println!(
            "kernel-cache speedup (relaunch_vecadd, cache on vs off): {:.2}x \
             ({:.0} vs {:.0} blk/s; hit rate {:.1}%)",
            on.engine_bps() / off.engine_bps(),
            on.engine_bps(),
            off.engine_bps(),
            100.0 * on.cache.hit_rate()
        );
    }

    // Fault-injection smoke: the 4-device sharded vecadd under a seeded
    // drop plan plus a device loss at the round start — retry, backoff
    // and recovery counters are printed for the CI job summary, and the
    // degraded run's answers are checked against the fault-free run.
    {
        let cfg = bench_config();
        let w = VecAdd::new(200_000, 1);
        let built = w.build_sharded(&cfg.machine, 4).expect("sharded vecadd builds");
        let cluster = ClusterSpec::homogeneous(4, cfg.spec);
        let run = |sim: &SimConfig| {
            run_cluster_program(&built.program, built.inputs.clone(), &cfg.machine, &cluster, sim)
                .expect("chaos smoke run succeeds")
        };
        let base = run(&SimConfig::default());
        let mut plan = FaultPlan::random(0xC11A05, 4, 1, 0.25);
        plan.events.retain(|e| !matches!(e, FaultEvent::DeviceDown { .. }));
        plan.push(FaultEvent::DeviceDown { device: 2, at_round: 0 });
        let degraded = run(&SimConfig { fault: plan, ..SimConfig::default() });
        assert_eq!(
            base.output(built.outputs[0]),
            degraded.output(built.outputs[0]),
            "fault injection changed answers"
        );
        let s = degraded.device_stats_total();
        println!(
            "fault-injection (vecadd_sharded_4dev, seeded drops + device-2 loss): \
             retries={} backoff={:.3}ms recoveries={} degraded-wall-clock={:.2}x \
             answers=bit-identical",
            s.retries,
            s.backoff_ms,
            s.recoveries,
            degraded.total_ms() / base.total_ms()
        );
    }

    if let Some(path) = baseline {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        let base = gate::parse_baseline(&text);
        assert!(!base.is_empty(), "no benchmarks found in {path}");
        let entries = |runs: &[Measurement]| -> Vec<gate::Entry> {
            runs.iter().map(Measurement::gate_entry).collect()
        };
        println!("\nperf gate vs {path} (tolerance {tolerance}, host-normalized blocks/s):");
        // A shared host's memory-bandwidth weather moves individual
        // samples past any sane tolerance, so a regression must
        // *reproduce*: entries that fail are re-measured (keeping their
        // best normalized result) up to two more times before the gate
        // fails — a real slowdown fails every retry.
        let mut failures = gate::failures(&entries(&runs), &base, tolerance);
        for attempt in 0..2 {
            if failures.is_empty() {
                break;
            }
            println!(
                "re-measuring {} regressed workload(s) (retry {})…",
                failures.len(),
                attempt + 1
            );
            for (name, b) in &benches {
                if !failures.iter().any(|f| f == name) {
                    continue;
                }
                let fresh = b(reps);
                let slot = runs.iter_mut().find(|m| m.name == fresh.name).expect("measured name");
                // The best-of rule of `gate::keep_best`, applied to the
                // full measurement.
                if fresh.normalized() > slot.normalized() {
                    *slot = fresh;
                }
            }
            failures = gate::failures(&entries(&runs), &base, tolerance);
        }
        if !failures.is_empty() {
            eprintln!(
                "{} workload(s) regressed below {tolerance}x baseline: {}",
                failures.len(),
                failures.join(", ")
            );
            std::process::exit(1);
        }
        println!("perf gate passed");
    }
}
