//! Measurement of the three pipeline workloads: repeated set-up, the
//! timed pass loop, and the traced run's per-layer numbers.

use crate::layers::{call_costs, decompose, Decomposition};
use crate::metrics::{MetricSet, RunResult, Tally};
use crate::pipeline::{run_item, Env, Item, Outcome, SimCounts};
use crate::rosters::{self, Built, Scale};
use crate::spans::{self, Recorder};
use crate::stats::{iqr_pct, mean, median, quantile, sorted, Floor};
use atgpu_algos::AlgosError;
use atgpu_ir::Program;
use std::time::{Duration, Instant};

/// What the command line asked for.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name.
    pub workload: String,
    /// Seed of the generated inputs.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Roster sizing.
    pub scale: Scale,
}

impl Options {
    /// Equal slices an untraced run is cut into.  Each begins with a whole
    /// set-up, so the set-up samples are spread over the run like the
    /// request samples are, and a stretch of the run that a neighbour on
    /// the host slows down spoils some of them, not all.
    pub fn slices(&self) -> u32 {
        match self.scale {
            Scale::Full => 15,
            Scale::Smoke => 1,
        }
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The fastest observed time of every request of a workload's cycle (the
/// roster pass, or `serve_mix`'s fixed request sequence), by position in
/// the cycle.  This host is shared: a neighbour only ever adds time to a
/// sample, for seconds on end, so the fastest of a request's few hundred
/// samples is what the program itself costs, and medians over the same
/// samples move by a third between runs of the same code.
#[derive(Debug, Default)]
pub struct Floors {
    /// The whole request, microseconds.
    pub request_us: Floor,
    /// Run latency of the requests that execute a program, milliseconds.
    pub run_ms: Floor,
    /// Quote latency of the requests that price one, microseconds.
    pub quote_us: Floor,
}

impl Floors {
    /// Sets the timing metrics of the end-to-end table: requests per
    /// second of an undisturbed cycle, and the median and 90th percentile
    /// over the cycle's requests of their run and quote latencies.
    pub fn set_metrics(&self, metrics: &mut MetricSet) {
        let cycle_s = self.request_us.values().iter().sum::<f64>() / 1e6;
        metrics.set("req_per_s", self.request_us.values().len() as f64 / cycle_s);
        let run = sorted(self.run_ms.values().to_vec());
        metrics.set("run_p50_ms", quantile(&run, 0.5));
        metrics.set("run_p90_ms", quantile(&run, 0.9));
        let quote = sorted(self.quote_us.values().to_vec());
        metrics.set("quote_p50_us", quantile(&quote, 0.5));
        metrics.set("quote_p90_us", quantile(&quote, 0.9));
    }

    /// Milliseconds an undisturbed cycle takes.
    pub fn cycle_ms(&self) -> f64 {
        self.request_us.values().iter().sum::<f64>() / 1e3
    }
}

/// The set-up time a run reports, from its set-ups: the fastest, by the
/// same reasoning as [`Floors`].
pub fn setup_floor_s(setup_s: &[f64]) -> f64 {
    setup_s.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Builds the roster of a pipeline workload.
pub fn build_roster(env: &Env, opts: &Options) -> Result<Built, AlgosError> {
    match opts.workload.as_str() {
        "batch_compute" => rosters::batch_compute(env, opts.seed, opts.scale),
        "cluster_transfer" => rosters::cluster_transfer(env, opts.seed, opts.scale),
        _ => rosters::launch_storm(env, opts.seed, opts.scale),
    }
}

/// Everything the pass loop accumulates.
#[derive(Debug, Default)]
pub struct Passes {
    /// Wall time of each pass, milliseconds.
    pub pass_ms: Vec<f64>,
    /// The fastest request, run and quote of every roster program.
    pub floors: Floors,
    /// Run latencies by roster index.
    pub item_run_ms: Vec<Vec<f64>>,
    /// Outcomes of the first pass (counts repeat exactly afterwards).
    pub first: Vec<Outcome>,
    /// Requests attempted and failed.
    pub tally: Tally,
}

impl Passes {
    /// Model errors in percent of the first pass's programs that pass
    /// (`trusted`) or fail the trust gate.
    pub fn model_errs(&self, trusted: bool) -> Vec<f64> {
        let of_gate = self.first.iter().filter(|o| o.trusted == trusted);
        of_gate.filter_map(Outcome::model_err_pct).collect()
    }

    /// Exact-repeat simulated counters of one pass.
    pub fn counts(&self) -> SimCounts {
        let mut c = SimCounts::default();
        for o in &self.first {
            c.add(&o.counts);
        }
        c
    }

    fn absorb(&mut self, items: &[Item], outcomes: Vec<Outcome>, wall_ms: f64) {
        self.pass_ms.push(wall_ms);
        self.item_run_ms.resize(items.len(), Vec::new());
        for (i, o) in outcomes.iter().enumerate() {
            self.floors.request_us.lower(i, o.request_us);
            self.floors.run_ms.lower(i, o.run_ms);
            self.floors.quote_us.lower(i, o.quote_us);
            self.item_run_ms[i].push(o.run_ms);
            let mut why = o.failures.clone();
            // A host-speed change must leave every simulated counter alone:
            // a counter that moves between passes of one run is a failure.
            if self.first.get(i).is_some_and(|first| first.counts != o.counts) {
                why.push(format!("{}: simulated counters changed between passes", items[i].name));
            }
            self.tally.record(why);
        }
        if self.first.is_empty() {
            self.first = outcomes;
        }
    }
}

/// One pass: every roster program through the pipeline once.
pub fn run_pass(env: &Env, items: &[Item], rec: &mut Recorder, pass: u64) -> (Vec<Outcome>, f64) {
    let t = Instant::now();
    let root = rec.open("bench", "bench.pass");
    let outcomes = items
        .iter()
        .enumerate()
        .map(|(i, item)| {
            rec.set_request(pass << 32 | i as u64);
            run_item(env, item, rec)
        })
        .collect();
    rec.close(root);
    (outcomes, t.elapsed().as_secs_f64() * 1e3)
}

/// Runs passes until `deadline`, at least one.  With several recorders
/// every pass is run once under each in turn, so that the host's drift
/// falls on the traced and untraced passes alike.
pub fn run_passes<const N: usize>(
    env: &Env,
    items: &[Item],
    deadline: Instant,
    mut into: [(&mut Recorder, &mut Passes); N],
) {
    loop {
        for (rec, passes) in &mut into {
            let (outcomes, wall_ms) = run_pass(env, items, rec, passes.pass_ms.len() as u64);
            passes.absorb(items, outcomes, wall_ms);
        }
        if Instant::now() >= deadline {
            return;
        }
    }
}

/// A set-up: roster build plus the untimed warm-up pass (the first touch
/// of device memory is up to 5× slower than steady state).
fn set_up(env: &Env, opts: &Options, tally: &mut Tally) -> Result<(Built, f64), String> {
    let t = Instant::now();
    let built = build_roster(env, opts).map_err(|e| format!("roster build failed: {e}"))?;
    let mut warm = Passes::default();
    let mut off = Recorder::new(false, t);
    let (outcomes, wall_ms) = run_pass(env, &built.items, &mut off, 0);
    warm.absorb(&built.items, outcomes, wall_ms);
    tally.merge(&mut warm.tally);
    Ok((built, t.elapsed().as_secs_f64()))
}

/// Measures a pipeline workload and returns its metrics.
pub fn run_pipeline(opts: &Options) -> Result<RunResult, String> {
    let env = Env::standard();
    let mut tally = Tally::default();
    let mut metrics = MetricSet::default();
    let epoch = Instant::now();
    let mut off = Recorder::new(false, epoch);
    let mut plain = Passes::default();

    if !opts.trace {
        // The same seed builds the same roster in every slice, so the
        // floors and the exact-repeat check carry across the set-ups.
        let mut setup_s = Vec::new();
        let mut roster = None;
        for slice in 1..=opts.slices() {
            drop(roster.take());
            let (built, secs) = set_up(&env, opts, &mut tally)?;
            setup_s.push(secs);
            let share = f64::from(slice) / f64::from(opts.slices());
            let deadline = epoch + Duration::from_secs_f64(opts.seconds * share);
            run_passes(&env, &built.items, deadline, [(&mut off, &mut plain)]);
            roster = Some(built);
        }
        tally.merge(&mut plain.tally);
        metrics.set("setup_s", setup_floor_s(&setup_s));
        plain.floors.set_metrics(&mut metrics);
        metrics.set("peak_rss_mb", peak_rss_mb());
        metrics.set("model_err_pct", mean(&plain.model_errs(true)));
        let items = &roster.expect("at least one slice").items;
        report_human(opts, items, &plain, &setup_s);
        return Ok(tally.finish(metrics));
    }

    // The traced run alternates untraced and traced passes; the difference
    // of their medians is the tracing overhead.
    let (built, _) = set_up(&env, opts, &mut tally)?;
    let items = &built.items;
    let mut rec = Recorder::new(true, epoch);
    let mut traced = Passes::default();
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds * 0.8);
    run_passes(&env, items, deadline, [(&mut off, &mut plain), (&mut rec, &mut traced)]);
    tally.merge(&mut plain.tally);
    tally.merge(&mut traced.tally);
    let pass_s = median(&plain.pass_ms) / 1e3;
    let counts = plain.counts();
    let replay = decompose(&env, items, false);
    tally.add(items.len() as u64, replay.failures.len() as u64, replay.failures.iter().cloned());

    pipeline_layer_metrics(&mut metrics, items, &traced, rec.spans());
    set_replay_metrics(&mut metrics, &replay, serial_run_ms(&env, items));
    set_call_costs(&mut metrics, &env, items.iter().map(|i| &i.built.program));
    metrics.set("sim.instr_per_s", counts.instructions as f64 / pass_s);
    metrics.set("sim.trace_overhead_pct", sim_trace_overhead_pct(&env, items, &plain));
    metrics.set("algos.build_ms", built.times.build_ms);
    metrics.set("algos.expected_ms", built.times.expected_ms);
    metrics.set("algos.programs", items.len() as f64);
    let traced_pass_s = median(&traced.pass_ms) / 1e3;
    metrics.set("bench.trace_overhead_pct", 100.0 * (traced_pass_s - pass_s) / pass_s);
    metrics.set("bench.passes", traced.pass_ms.len() as f64);
    metrics.set("bench.pass_iqr_pct", iqr_pct(&plain.pass_ms));
    metrics.set("bench.disturbed_pct", disturbed_pct(&plain.pass_ms, plain.floors.cycle_ms()));
    set_sim_counts(&mut metrics, &counts);
    write_trace(opts, rec.spans())?;
    report_layers(opts, rec.spans(), &traced);
    Ok(tally.finish(metrics))
}

/// How much longer the median cycle took than an undisturbed one, in
/// percent: what the host's other tenants cost this run.
pub fn disturbed_pct(cycle_ms: &[f64], floor_ms: f64) -> f64 {
    100.0 * (median(cycle_ms) - floor_ms) / floor_ms
}

/// Writes `benchmark_trace.<workload>.json` into the working directory.
pub fn write_trace(opts: &Options, spans: &[spans::Span]) -> Result<(), String> {
    let path = format!("benchmark_trace.{}.json", opts.workload);
    spans::write_trace(&path, &opts.workload, spans)
        .map_err(|e| format!("cannot write {path}: {e}"))
}

/// The side replay's numbers; `serial_ms` is what its parts add up to.
pub fn set_replay_metrics(metrics: &mut MetricSet, d: &Decomposition, serial_ms: f64) {
    metrics.set("ir.host_steps", d.host_steps as f64);
    metrics.set("ir.kernels", d.kernels as f64);
    metrics.set("sim.compile_us", median(&d.compile_us));
    metrics.set("sim.kernel_ms", d.kernel_ms);
    if d.kernel_ms > 0.0 {
        metrics.set("sim.kernel_instr_per_s", d.kernel_instr as f64 / (d.kernel_ms / 1e3));
    }
    metrics.set("sim.shard_ms", d.shard_ms);
    metrics.set("sim.write_log_ms", d.write_log_ms);
    metrics.set("sim.xfer_in_ms", d.xfer_in_ms);
    metrics.set("sim.xfer_out_ms", d.xfer_out_ms);
    metrics.set("sim.peer_ms", d.peer_ms);
    metrics.set("sim.xfer_words_per_s", d.xfer_words as f64 / (d.xfer_ms() / 1e3));
    metrics.set("sim.serial_run_ms", serial_ms);
    metrics.set(
        "sim.driver_self_ms",
        serial_ms - d.kernel_ms - d.shard_ms - d.write_log_ms - d.xfer_ms(),
    );
    metrics.set("sim.engine_share", (d.kernel_ms + d.shard_ms) / serial_ms);
    metrics.set("sim.launch_cold_us", median(&d.launch_cold_us));
    metrics.set("sim.launch_warm_us", median(&d.launch_warm_us));
}

/// Calls that sit off the measured path on most workloads, timed over
/// the workload's own programs.
pub fn set_call_costs<'a>(
    metrics: &mut MetricSet,
    env: &Env,
    programs: impl Iterator<Item = &'a Program>,
) {
    let costs = call_costs(env, &programs.collect::<Vec<_>>());
    metrics.set("ir.cache_key_us", costs.cache_key_us);
    metrics.set("serve.program_key_us", costs.program_key_us);
    metrics.set("serve.admit_us", costs.admit_us);
    metrics.set("model.plan_ms", costs.plan_ms);
    metrics.set("model.chunk_solve_us", costs.chunk_solve_us);
}

/// The exact-repeat simulated counters of one pass.
pub fn set_sim_counts(metrics: &mut MetricSet, c: &SimCounts) {
    metrics.set("sim.instructions", c.instructions as f64);
    metrics.set("sim.cycles", c.cycles as f64);
    metrics.set("sim.global_txns", c.global_txns as f64);
    metrics.set("sim.stall_cycles", c.stall_cycles as f64);
    metrics.set("sim.bank_conflict_cycles", c.bank_conflict_cycles as f64);
    metrics.set("sim.blocks", c.blocks as f64);
    metrics.set("sim.total_ms", c.total_ms);
}

/// Per-layer metrics that come from the spans and outcomes of traced
/// pipeline passes (also used for `serve_mix`'s solo pipeline pass).
pub fn pipeline_layer_metrics(
    metrics: &mut MetricSet,
    items: &[Item],
    traced: &Passes,
    spans: &[spans::Span],
) {
    let passes = traced.pass_ms.len().max(1) as f64;
    let p50 = |name: &str| median(&spans::durations_us(spans, name));
    let per_pass = |name: &str| spans::total_ms(spans, name) / passes;
    metrics.set("ir.validate_us", p50("ir.validate"));
    metrics.set("verify.program_us", p50("verify.program"));
    metrics.set("verify.total_ms", per_pass("verify.program"));
    metrics.set("analyze.program_us", p50("analyze.program"));
    metrics.set("analyze.schedules_us", p50("analyze.schedules"));
    metrics.set("analyze.total_ms", per_pass("analyze.program") + per_pass("analyze.schedules"));
    metrics.set("model.cost_us", p50("model.cost"));
    metrics.set("sim.run_ms", per_pass("sim.run"));

    let first = &traced.first;
    let sum = |f: &dyn Fn(&Outcome) -> f64| first.iter().map(f).sum::<f64>();
    metrics.set("verify.launches", sum(&|o| o.launches as f64));
    metrics.set("verify.race_free", sum(&|o| o.race_free as f64));
    metrics.set("verify.unknown", sum(&|o| o.race_unknown as f64));
    metrics.set("verify.verdict_mismatch", sum(&|o| f64::from(u8::from(o.verdict_mismatch))));
    metrics.set(
        "analyze.exact_share",
        sum(&|o| f64::from(u8::from(o.trusted))) / first.len().max(1) as f64,
    );
    metrics.set("model.err_max_pct", traced.model_errs(true).into_iter().fold(0.0, f64::max));
    metrics.set("model.err_untrusted_pct", mean(&traced.model_errs(false)));
    let (hits, misses) = (sum(&|o| o.cache.hits as f64), sum(&|o| o.cache.misses as f64));
    metrics.set("sim.cache_hits", hits);
    metrics.set("sim.cache_misses", misses);
    metrics.set("sim.cache_hit_rate", hits / (hits + misses).max(1.0));
    metrics.set("sim.retries", sum(&|o| o.retries as f64));
    metrics.set("sim.recoveries", sum(&|o| o.recoveries as f64));

    let item_p50 = |pred: &dyn Fn(&Item) -> bool| -> f64 {
        items.iter().position(pred).map_or(0.0, |i| median(&traced.item_run_ms[i]))
    };
    metrics.set("sim.degraded_run_ms", item_p50(&|i| !i.sim.fault.is_empty()));
    let plain_vecadd = item_p50(&|i| i.single && i.name.starts_with("vecadd_"));
    if plain_vecadd > 0.0 {
        let sharded = item_p50(&|i| i.name.starts_with("vecadd_sharded_1dev"));
        metrics.set("sim.cluster_tax_1dev", sharded / plain_vecadd);
    }

    metrics.set("bench.self_sum_pct", spans::self_sum_pct(spans, traced.pass_ms.iter().sum()));
    let bench_self = spans::layer_self_ms(spans).get("bench").copied().unwrap_or(0.0);
    let requests = (first.len() as f64 * passes).max(1.0);
    metrics.set("bench.generator_lag_us", bench_self * 1e3 / requests);
}

/// What the side replay is comparable with: the fault-free programs'
/// runs (the rosters run shards one after another, as the replay does),
/// each program's median of three runs, summed.
pub fn serial_run_ms(env: &Env, items: &[Item]) -> f64 {
    let mut off = Recorder::new(false, Instant::now());
    items
        .iter()
        .filter(|item| item.sim.fault.is_empty())
        .map(|item| median(&[0; 3].map(|_| run_item(env, item, &mut off).run_ms)))
        .sum()
}

/// `SimConfig.trace` on vs off: one traced-simulator run of each program
/// against its untraced median.
fn sim_trace_overhead_pct(env: &Env, items: &[Item], plain: &Passes) -> f64 {
    let mut off = Recorder::new(false, Instant::now());
    let (mut with, mut without) = (0.0, 0.0);
    for (item, samples) in items.iter().zip(&plain.item_run_ms) {
        let mut traced = item.clone();
        traced.sim.trace = true;
        with += run_item(env, &traced, &mut off).run_ms;
        without += median(samples);
    }
    100.0 * (with - without) / without
}

fn report_human(opts: &Options, items: &[Item], plain: &Passes, setup_s: &[f64]) {
    let floor_ms = plain.floors.cycle_ms();
    eprintln!(
        "{}: seed {} | {} programs x {} passes | pass floor {floor_ms:.2} ms, median {:.2} ms \
         (disturbed {:.1} %) | set-ups {setup_s:.3?} s",
        opts.workload,
        opts.seed,
        items.len(),
        plain.pass_ms.len(),
        median(&plain.pass_ms),
        disturbed_pct(&plain.pass_ms, floor_ms),
    );
    if items.len() <= 16 {
        let floors = &plain.floors;
        for (i, (item, o)) in items.iter().zip(&plain.first).enumerate() {
            eprintln!(
                "  {:<34} run {:>8.3} ms (p50 {:>8.3}) | quote {:>7.1} us | instr {:>8} | model err {}",
                item.name,
                floors.run_ms.values()[i],
                median(&plain.item_run_ms[i]),
                floors.quote_us.values()[i],
                o.counts.instructions,
                match o.model_err_pct() {
                    Some(e) if o.trusted => format!("{e:.2} %"),
                    Some(e) => format!("{e:.2} % (untrusted)"),
                    None => "n/a".into(),
                }
            );
        }
    }
}

fn report_layers(opts: &Options, spans: &[spans::Span], traced: &Passes) {
    let wall: f64 = traced.pass_ms.iter().sum();
    eprintln!(
        "{}: traced {} passes, {} spans; self time by layer:",
        opts.workload,
        traced.pass_ms.len(),
        spans.len()
    );
    for (layer, ms) in spans::layer_self_ms(spans) {
        eprintln!("  {layer:<8} {ms:>10.1} ms  {:>5.1} %", 100.0 * ms / wall);
    }
}
