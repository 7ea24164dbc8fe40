//! The tracing cost contract, measured: with [`SimConfig::trace`] off a
//! run pays only an `Option` null test per operation (the default —
//! nothing observable); with it on, the report is **bit-identical**
//! (tracing observes the scheduler, never feeds back) and the host
//! wall-clock stays within a generous factor of the untraced run (span
//! recording is a pooled ring write, far off the simulation's critical
//! path).

use atgpu_algos::ooc::OocVecAdd;
use atgpu_algos::Workload;
use atgpu_exp::{ExpConfig, Scale};
use atgpu_sim::{run_program, SimConfig};
use std::time::{Duration, Instant};

#[test]
fn tracing_on_is_bit_identical_and_within_bench_noise() {
    let mut cfg = ExpConfig::standard(Scale::Quick);
    cfg.sim.noise = None;
    // 32 rounds of chunked vecadd: enough spans (~4 per round) to make
    // recording cost visible if it ever lands on the hot path.
    let w = OocVecAdd::new(1 << 16, 2048, 7);
    let built = w.build(&cfg.machine).unwrap();
    let off = cfg.sim.clone();
    let on = SimConfig { trace: true, ..off.clone() };

    let r_off =
        run_program(&built.program, built.inputs.clone(), &cfg.machine, &cfg.spec, &off).unwrap();
    let r_on =
        run_program(&built.program, built.inputs.clone(), &cfg.machine, &cfg.spec, &on).unwrap();

    // Bit-identity: outputs, every round observation, every counter.
    assert_eq!(r_off.output(built.outputs[0]), r_on.output(built.outputs[0]));
    assert_eq!(r_off.rounds, r_on.rounds);
    assert_eq!(r_off.device_stats, r_on.device_stats);
    assert!(r_off.trace.is_none(), "tracing must be opt-in");
    let trace = r_on.trace.as_ref().expect("traced run records spans");
    assert!(trace.spans.len() >= 4 * 32, "expected a span per op per round");
    assert_eq!(trace.dropped, 0);

    // Wall-clock: min-of-5 each way.  The bound is deliberately loose —
    // this is a smoke alarm for tracing landing on the hot path (e.g.
    // allocating per span), not a precision benchmark.
    let time = |sim: &SimConfig| -> Duration {
        (0..5)
            .map(|_| {
                let t0 = Instant::now();
                let r =
                    run_program(&built.program, built.inputs.clone(), &cfg.machine, &cfg.spec, sim)
                        .unwrap();
                std::hint::black_box(&r);
                t0.elapsed()
            })
            .min()
            .unwrap()
    };
    let t_off = time(&off);
    let t_on = time(&on);
    assert!(
        t_on <= t_off * 2 + Duration::from_millis(10),
        "tracing-on run {t_on:?} vs tracing-off {t_off:?} — recording is on the hot path"
    );
}
