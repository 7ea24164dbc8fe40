//! Measurement of `serve_mix`: the untraced run's fixed request cycle,
//! and the traced run's client phases and per-layer numbers.

use crate::layers::decompose;
use crate::measure::{
    disturbed_pct, peak_rss_mb, pipeline_layer_metrics, run_passes, set_call_costs,
    set_replay_metrics, set_sim_counts, setup_floor_s, write_trace, Floors, Options, Passes,
};
use crate::metrics::{MetricSet, RunResult, Tally};
use crate::pipeline::{Env, Item};
use crate::rosters::Scale;
use crate::serve::{
    self, request_cycle, run_client, run_clients, ClientStats, Request, Stop, World, CLIENTS,
};
use crate::spans::{self_sum_pct, Recorder};
use crate::stats::{iqr_pct, mean, median, percentile_checked, sorted};
use atgpu_sim::{run_cluster_program_on, SimConfig};
use std::time::{Duration, Instant};

/// Requests of the fixed single-client sequence whose simulated counters
/// must repeat exactly (time-bounded phases complete a varying number).
pub fn fixed_requests(scale: Scale) -> u64 {
    scale.pick(2000, 40)
}

/// Client threads of the traced run's loaded phases: [`CLIENTS`], never
/// more than the host's cores.
pub fn client_threads() -> usize {
    CLIENTS.min(std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// A set-up: programs, server, recorded answers and one untimed cycle
/// that fills the kernel caches and the three memos.
fn set_up(env: &Env, opts: &Options, tally: &mut Tally) -> Result<(World, f64), String> {
    let t = Instant::now();
    let world = serve::setup(env, opts.seed, opts.scale)?;
    let mut off = Recorder::new(false, t);
    let warm = Stop::After(request_cycle(&world, opts.seed, 0).len() as u64);
    add_clients(tally, &run_client(&world, 0, opts.seed, 0, warm, t, &mut off));
    let n = world.setup_failures.len() as u64;
    tally.add(n, n, world.setup_failures.iter().cloned());
    Ok((world, t.elapsed().as_secs_f64()))
}

/// Shortest phase of the traced run, seconds: long enough for the
/// throughput windows a phase must have.
const MIN_PHASE_S: f64 = 1.5;
/// Full throughput windows a traced phase must have.
const MIN_WINDOWS: usize = 4;

/// A traced phase runs for `share` of the requested seconds, and at least
/// [`MIN_PHASE_S`]; a smoke phase for a fixed, small request count.
fn phase(opts: &Options, share: f64) -> Stop {
    let seconds = (opts.seconds * share).max(MIN_PHASE_S);
    match opts.scale {
        Scale::Full => Stop::At(Instant::now() + Duration::from_secs_f64(seconds)),
        Scale::Smoke => Stop::After(fixed_requests(opts.scale)),
    }
}

/// Requests/s and simulated instructions/s of a traced phase, each
/// window's.  A measured phase without [`MIN_WINDOWS`] full windows
/// fails; a smoke phase is too short for windows and is one window as
/// long as its wall.
fn window_rates(st: &ClientStats, wall: f64, scale: Scale) -> Result<(Vec<f64>, Vec<f64>), String> {
    let (requests, instr) = st.window_rates();
    match scale {
        Scale::Full if requests.len() < MIN_WINDOWS => Err(format!(
            "{} full throughput windows are too few; measure for longer",
            requests.len()
        )),
        Scale::Full => Ok((requests, instr)),
        Scale::Smoke => {
            Ok((vec![st.requests as f64 / wall], vec![st.counts.instructions as f64 / wall]))
        }
    }
}

/// The submit programs as pipeline items, for the solo per-layer pass.
fn solo_items(world: &World) -> Vec<Item> {
    world
        .submits
        .iter()
        .map(|p| Item {
            name: p.built.program.name.clone(),
            built: p.built.clone(),
            expected: p.expected.clone(),
            cluster: world.spec.clone(),
            single: false,
            sim: SimConfig { device_threads: false, ..SimConfig::default() },
            race_free: p.race_free,
            priced: true,
        })
        .collect()
}

fn add_clients(tally: &mut Tally, st: &ClientStats) {
    tally.add(st.requests, st.failed, st.failures.iter().cloned());
}

/// Measures `serve_mix` and returns its metrics.
pub fn run_serve(opts: &Options) -> Result<RunResult, String> {
    let env = Env::standard();
    let mut tally = Tally::default();
    let metrics = if opts.trace {
        let (world, _) = set_up(&env, opts, &mut tally)?;
        traced(&env, opts, &world, &mut tally)?
    } else {
        untraced(&env, opts, &mut tally)?
    };
    Ok(tally.finish(metrics))
}

/// The untraced run: one client replays the seed's fixed cycle of
/// requests on this thread for the whole run (what-if specs are new in
/// every cycle, so the price memo keeps missing and evicting), and every
/// position of the cycle keeps its fastest sample.  Two concurrent
/// clients — the traced run's loaded phases — wait for each other
/// whenever the host takes a core away, which no statistic steadies.
fn untraced(env: &Env, opts: &Options, tally: &mut Tally) -> Result<MetricSet, String> {
    let epoch = Instant::now();
    let mut off = Recorder::new(false, epoch);
    let mut floors = Floors::default();
    let (mut setup_s, mut cycle_ms, mut cycles) = (Vec::new(), Vec::new(), 0u64);
    let mut last = None;
    for slice in 1..=opts.slices() {
        drop(last.take());
        let (world, secs) = set_up(env, opts, tally)?;
        setup_s.push(secs);
        let share = f64::from(slice) / f64::from(opts.slices());
        let deadline = epoch + Duration::from_secs_f64(opts.seconds * share);
        let kinds = request_cycle(&world, opts.seed, 0);
        let n = kinds.len() as u64;
        loop {
            cycles += 1;
            let t = Instant::now();
            let st = run_client(&world, 0, opts.seed, cycles, Stop::After(n), t, &mut off);
            cycle_ms.push(t.elapsed().as_secs_f64() * 1e3);
            add_clients(tally, &st);
            // Runs are the cycle's submits, quotes its prices, each numbered
            // in cycle order; a refusal counts only as a request.
            let (mut runs, mut quotes) = (0, 0);
            for (i, (&(call_us, request_us), kind)) in st.op_us.iter().zip(&kinds).enumerate() {
                floors.request_us.lower(i, request_us);
                match kind {
                    Request::Submit(_) => {
                        floors.run_ms.lower(runs, call_us / 1e3);
                        runs += 1;
                    }
                    Request::Racy(_) => {}
                    _ => {
                        floors.quote_us.lower(quotes, call_us);
                        quotes += 1;
                    }
                }
            }
            if Instant::now() >= deadline {
                break;
            }
        }
        last = Some(world);
    }
    let world = last.expect("at least one slice");
    let mut metrics = MetricSet::default();
    metrics.set("setup_s", setup_floor_s(&setup_s));
    floors.set_metrics(&mut metrics);
    metrics.set("peak_rss_mb", peak_rss_mb());
    metrics.set("model_err_pct", mean(&world.model_err_pct));
    let s = world.server.stats().price;
    eprintln!(
        "serve_mix: seed {} | 1 client, {} requests x {cycles} cycles | cycle floor {:.2} ms, \
         median {:.2} ms (disturbed {:.1} %) | last server: memo {} analytic {} simulated {} | \
         set-ups {setup_s:.3?} s",
        opts.seed,
        floors.request_us.values().len(),
        floors.cycle_ms(),
        median(&cycle_ms),
        disturbed_pct(&cycle_ms, floors.cycle_ms()),
        s.memo_hits,
        s.analytic,
        s.simulated,
    );
    Ok(metrics)
}

/// Every submit program run alone on the server's own (warm) cluster,
/// five times: all samples, and the sum of the per-program medians.
fn solo_runs(world: &World, tally: &mut Tally) -> (Vec<f64>, f64) {
    let sim = SimConfig { device_threads: false, ..SimConfig::default() };
    let (mut all_ms, mut pass_ms) = (Vec::new(), 0.0);
    for p in &world.submits {
        let samples: Vec<f64> = (0..5)
            .map(|_| {
                let inputs = p.built.inputs.clone();
                let t = Instant::now();
                let r =
                    run_cluster_program_on(world.server.cluster(), &p.built.program, inputs, &sim);
                tally.add(1, u64::from(r.is_err()), r.err().map(|e| format!("solo run: {e}")));
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        pass_ms += median(&samples);
        all_ms.extend(samples);
    }
    (all_ms, pass_ms)
}

fn traced(
    env: &Env,
    opts: &Options,
    world: &World,
    tally: &mut Tally,
) -> Result<MetricSet, String> {
    let clients = client_threads();
    let epoch = Instant::now();
    let mut off = Recorder::new(false, epoch);
    let mut rec = Recorder::new(true, epoch);
    // Phase A: one client, fixed request count — the exact counters and
    // the 1-client rate.  B: every client, untraced.  C: the same, traced.
    let n = fixed_requests(opts.scale);
    let (a, wall_a) = run_clients(world, 1, opts.seed, 1, Stop::After(n), &mut off);
    let (b, wall_b) = run_clients(world, clients, opts.seed, 2, phase(opts, 0.3), &mut off);
    let (c, wall_c) = run_clients(world, clients, opts.seed, 3, phase(opts, 0.3), &mut rec);
    for st in [&a, &b, &c] {
        add_clients(tally, st);
    }
    let (windows_b, instr_b) = window_rates(&b, wall_b, opts.scale)?;
    let windows_c = window_rates(&c, wall_c, opts.scale)?.0;
    let (rps_b, rps_c) = (median(&windows_b), median(&windows_c));
    // Phase A is too short for windows: the scaling figure compares
    // completed ÷ wall on both sides.
    let (rps_a, rps_b_wall) = (a.requests as f64 / wall_a, b.requests as f64 / wall_b);
    eprintln!(
        "serve_mix: traced | 1 client {rps_a:.0} req/s, {clients} clients {rps_b:.0} req/s, \
         traced {rps_c:.0} req/s | {} spans",
        rec.spans().len()
    );

    // A solo pipeline pass over the submit programs times, one by one, the
    // front-end and simulator calls the server makes internally.
    let mut metrics = MetricSet::default();
    let items = solo_items(world);
    let mut solo_rec = Recorder::new(true, epoch);
    let mut solo = Passes::default();
    run_passes(env, &items, Instant::now(), [(&mut solo_rec, &mut solo)]);
    tally.merge(&mut solo.tally);
    pipeline_layer_metrics(&mut metrics, &items, &solo, solo_rec.spans());
    let replay = decompose(env, &items, true);
    tally.add(items.len() as u64, replay.failures.len() as u64, replay.failures.iter().cloned());
    let (solo_ms, solo_pass_ms) = solo_runs(world, tally);
    set_replay_metrics(&mut metrics, &replay, solo_pass_ms);
    metrics.set("sim.run_ms", solo_pass_ms);
    set_call_costs(
        &mut metrics,
        env,
        world.shapes.iter().chain(&world.inexact).map(|p| &p.program),
    );

    metrics.set("serve.submit_overhead_us", 1e3 * (median(&c.submit_ms) - median(&solo_ms)));
    metrics.set("serve.price_memo_us", median(&c.memo_us));
    metrics.set("serve.price_analytic_us", median(&c.analytic_us));
    metrics.set("serve.price_sim_ms", median(&c.simulated_us) / 1e3);
    // A p99 is reported only with ten samples beyond it (0 otherwise).
    let p99 = |samples: Vec<f64>| percentile_checked(&sorted(samples), 0.99).unwrap_or(0.0);
    metrics.set("serve.submit_p99_ms", p99(c.submit_ms.clone()));
    metrics.set("serve.price_p99_us", p99(c.price_us()));
    metrics.set("serve.scaling_2c", rps_b_wall / rps_a);
    let s = world.server.stats();
    metrics.set("serve.memo_hits", s.price.memo_hits as f64);
    metrics.set("serve.analytic", s.price.analytic as f64);
    metrics.set("serve.simulated", s.price.simulated as f64);
    metrics.set("serve.fast_fraction", s.price.fast_fraction());
    metrics.set("serve.verify_checked", s.verify.checked as f64);
    metrics.set("serve.verify_memo_hits", s.verify.memo_hits as f64);
    metrics.set("serve.verify_rejected", s.verify.rejected as f64);
    metrics.set("serve.admitted", s.admission.admitted_total as f64);
    metrics.set("serve.queue_full", s.admission.rejected_total as f64);

    // Here the quote is compared with the *submitted* run.
    metrics.set("model.err_max_pct", world.model_err_pct.iter().copied().fold(0.0, f64::max));
    set_sim_counts(&mut metrics, &a.counts);
    metrics.set("sim.instr_per_s", median(&instr_b));
    metrics.set("algos.build_ms", world.times.build_ms);
    metrics.set("algos.expected_ms", world.times.expected_ms);
    metrics.set("algos.programs", (world.shapes.len() + world.inexact.len()) as f64);
    metrics.set("bench.trace_overhead_pct", 100.0 * (rps_b - rps_c) / rps_b);
    metrics.set("bench.passes", c.requests as f64);
    metrics.set("bench.pass_iqr_pct", iqr_pct(&windows_b));
    // Time per request of the median window against the fastest window.
    let best_b = windows_b.iter().copied().fold(0.0, f64::max);
    metrics.set("bench.disturbed_pct", 100.0 * (best_b / rps_b - 1.0));
    metrics.set("bench.generator_lag_us", c.generator_ns as f64 / 1e3 / c.requests.max(1) as f64);
    // Every client thread lives for the traced phase's wall time.
    metrics.set("bench.self_sum_pct", self_sum_pct(rec.spans(), clients as f64 * wall_c * 1e3));

    rec.absorb(solo_rec);
    write_trace(opts, rec.spans())?;
    Ok(metrics)
}
