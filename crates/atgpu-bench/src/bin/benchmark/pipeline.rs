//! The program pipeline every non-serve workload sends its roster
//! through, one request per program per pass:
//! validate → verify → analyze → price → simulate → output check.
//!
//! Each stage is one call into a library crate's public function, wrapped
//! in a span when tracing; the *quote* latency covers the front-end
//! (validate through price), the *run* latency the simulation alone.

use crate::spans::Recorder;
use atgpu_algos::workload::BuiltProgram;
use atgpu_analyze::{analyze_cluster_program, stream_schedules};
use atgpu_ir::validate::validate_program;
use atgpu_ir::HBuf;
use atgpu_model::cost::cluster_cost_streamed;
use atgpu_model::{AtgpuMachine, ClusterSpec, GpuSpec};
use atgpu_sim::{
    run_cluster_program, run_program, CacheStats, HostData, KernelStats, SimConfig, SimError,
};
use atgpu_verify::{verify_program, RaceVerdict};
use std::time::Instant;

/// The abstract machine and simulated device every workload uses.
#[derive(Debug, Clone, Copy)]
pub struct Env {
    /// Analysis-side machine.
    pub machine: AtgpuMachine,
    /// Simulated device.
    pub spec: GpuSpec,
}

impl Env {
    /// GTX 650-like machine and device, as `throughput` and the paper's
    /// figures use.
    pub fn standard() -> Self {
        Self { machine: AtgpuMachine::gtx650_like(), spec: GpuSpec::gtx650_like() }
    }
}

/// One roster program with its oracle.
#[derive(Debug, Clone)]
pub struct Item {
    /// Roster name.
    pub name: String,
    /// Program and generated inputs.
    pub built: BuiltProgram,
    /// Host-reference contents of `built.outputs`.
    pub expected: Vec<Vec<i64>>,
    /// The cluster the program is priced and run on (one device for
    /// single-device programs).
    pub cluster: ClusterSpec,
    /// Run through `run_program` instead of `run_cluster_program`.
    pub single: bool,
    /// Simulator configuration (carries the fault plan of faulted items).
    pub sim: SimConfig,
    /// The roster's recorded verifier answer: every launch proven
    /// race-free (`false` = some launch is `Unknown`).
    pub race_free: bool,
    /// Whether the cost model's prediction applies (not under faults).
    pub priced: bool,
}

/// The simulated counters that must repeat exactly for a given seed: a
/// host-speed change must leave all of them identical.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimCounts {
    /// Lockstep instructions issued.
    pub instructions: u64,
    /// Device cycles, summed over launches and devices.
    pub cycles: u64,
    /// Coalesced global transactions.
    pub global_txns: u64,
    /// Cycles MPs idled waiting for memory.
    pub stall_cycles: u64,
    /// Issue cycles lost to bank conflicts.
    pub bank_conflict_cycles: u64,
    /// Thread blocks executed.
    pub blocks: u64,
    /// Simulated wall-clock, milliseconds.
    pub total_ms: f64,
}

impl SimCounts {
    /// Folds one launch's statistics in.
    pub fn add_kernel(&mut self, s: &KernelStats) {
        self.instructions += s.instructions;
        self.cycles += s.cycles;
        self.global_txns += s.global_txns;
        self.stall_cycles += s.stall_cycles;
        self.bank_conflict_cycles += s.bank_conflict_cycles;
        self.blocks += s.blocks;
    }

    /// Folds another set of counters in.
    pub fn add(&mut self, o: &SimCounts) {
        self.instructions += o.instructions;
        self.cycles += o.cycles;
        self.global_txns += o.global_txns;
        self.stall_cycles += o.stall_cycles;
        self.bank_conflict_cycles += o.bank_conflict_cycles;
        self.blocks += o.blocks;
        self.total_ms += o.total_ms;
    }
}

/// What one request through the pipeline produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// The whole request (quote, input copy, run, output check), microseconds.
    pub request_us: f64,
    /// Front-end latency (validate → price), microseconds.
    pub quote_us: f64,
    /// Simulation latency, milliseconds.
    pub run_ms: f64,
    /// Exact-repeat simulated counters of the run.
    pub counts: SimCounts,
    /// Kernel-cache counters after the run.
    pub cache: CacheStats,
    /// Transfer attempts retried under the fault plan.
    pub retries: u64,
    /// Dead-device takeovers.
    pub recoveries: u64,
    /// The cost model's prediction of `counts.total_ms`.
    pub predicted_ms: Option<f64>,
    /// Whether the analysis passed the trust gate
    /// (`io_exact && conflict_free`).
    pub trusted: bool,
    /// Launches the verifier looked at / proved race-free / left unknown.
    pub launches: usize,
    /// Launches proven race-free.
    pub race_free: usize,
    /// Launches with an undecided race verdict.
    pub race_unknown: usize,
    /// The verifier's verdict differed from the roster's recorded answer.
    pub verdict_mismatch: bool,
    /// Why the request failed; empty when every check passed.
    pub failures: Vec<String>,
}

impl Outcome {
    /// Relative model error in percent, when a prediction applies.
    pub fn model_err_pct(&self) -> Option<f64> {
        let obs = self.counts.total_ms;
        self.predicted_ms.filter(|_| obs > 0.0).map(|p| 100.0 * (p - obs).abs() / obs)
    }
}

/// Compares every predicted output buffer with its host reference, word
/// for word.
pub fn outputs_match<'a>(
    built: &BuiltProgram,
    expected: &[Vec<i64>],
    output: impl Fn(HBuf) -> &'a [i64],
) -> bool {
    built.outputs.len() == expected.len()
        && built.outputs.iter().zip(expected).all(|(h, exp)| output(*h) == exp.as_slice())
}

/// Sends one roster program through the whole pipeline.
pub fn run_item(env: &Env, item: &Item, rec: &mut Recorder) -> Outcome {
    let mut out = Outcome::default();
    let program = &item.built.program;
    let n = item.cluster.n_devices() as u32;
    let request = rec.open("bench", "bench.request");

    let t_quote = Instant::now();
    if let Err(e) = rec.span("ir", "ir.validate", || validate_program(program)) {
        out.failures.push(format!("{}: validate: {e}", item.name));
    }
    let verdict = rec.span("verify", "verify.program", || verify_program(program, env.machine.b));
    out.launches = verdict.launches.len();
    out.race_free = verdict.launches.iter().filter(|l| l.race == RaceVerdict::RaceFree).count();
    out.race_unknown = verdict.launches.iter().filter(|l| l.race == RaceVerdict::Unknown).count();
    out.verdict_mismatch = !verdict.is_sound() || verdict.all_race_free() != item.race_free;
    if out.verdict_mismatch {
        out.failures.push(format!(
            "{}: verifier said sound={} race_free={}, roster records sound race_free={}",
            item.name,
            verdict.is_sound(),
            verdict.all_race_free(),
            item.race_free
        ));
    }
    let analysis = rec
        .span("analyze", "analyze.program", || analyze_cluster_program(program, &env.machine, n));
    match analysis {
        Err(e) => out.failures.push(format!("{}: analyze: {e}", item.name)),
        Ok(a) => {
            out.trusted = a.io_exact && a.conflict_free;
            let scheds = rec.span("analyze", "analyze.schedules", || stream_schedules(program, n));
            let cost = rec.span("model", "model.cost", || {
                cluster_cost_streamed(&item.cluster, &env.machine, &a.per_device, &scheds, &a.peer)
            });
            match cost {
                Ok(c) if item.priced => out.predicted_ms = Some(c.total_ms),
                Ok(_) => {}
                Err(e) => out.failures.push(format!("{}: price: {e}", item.name)),
            }
        }
    }
    out.quote_us = t_quote.elapsed().as_secs_f64() * 1e6;

    let inputs = rec.span("bench", "bench.clone_inputs", || item.built.inputs.clone());
    let t_run = Instant::now();
    // Both drivers are reduced to the same facts: counters and host data.
    let ran = rec.span("sim", "sim.run", || -> Result<HostData, SimError> {
        if item.single {
            let r = run_program(program, inputs, &env.machine, &env.spec, &item.sim)?;
            for round in &r.rounds {
                out.counts.add_kernel(&round.kernel_stats);
                out.retries += round.retries;
            }
            out.counts.total_ms = r.total_ms();
            out.cache = r.device_stats.cache;
            Ok(r.host)
        } else {
            let r = run_cluster_program(program, inputs, &env.machine, &item.cluster, &item.sim)?;
            for dev in r.rounds.iter().flat_map(|round| &round.devices) {
                out.counts.add_kernel(&dev.kernel_stats);
            }
            out.counts.total_ms = r.total_ms();
            let stats = r.device_stats_total();
            (out.cache, out.retries, out.recoveries) =
                (stats.cache, stats.retries, stats.recoveries);
            Ok(r.host)
        }
    });
    out.run_ms = t_run.elapsed().as_secs_f64() * 1e3;
    match ran {
        Err(e) => out.failures.push(format!("{}: run: {e}", item.name)),
        Ok(host) => {
            let ok = rec.span("bench", "bench.check", || {
                outputs_match(&item.built, &item.expected, |h| host.buf(h))
            });
            if !ok {
                out.failures.push(format!("{}: output differs from host reference", item.name));
            }
        }
    }
    rec.close(request);
    out.request_us = t_quote.elapsed().as_secs_f64() * 1e6;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rosters::{cluster_transfer, Scale};
    use std::time::Instant;

    /// Every oracle is live: a corrupted host reference, a wrong recorded
    /// verdict and a changed answer each turn a passing request into a
    /// failed one.
    #[test]
    fn corrupted_expectations_fail_the_request() {
        let env = Env::standard();
        let mut roster = cluster_transfer(&env, 7, Scale::Smoke).expect("roster").items;
        let mut off = Recorder::new(false, Instant::now());
        for item in &roster {
            let o = run_item(&env, item, &mut off);
            assert!(o.failures.is_empty(), "{:?}", o.failures);
            assert!(o.counts.instructions > 0 && o.run_ms > 0.0 && o.quote_us > 0.0);
        }
        let faulted = roster.iter().find(|i| !i.sim.fault.is_empty()).expect("a faulted item");
        let o = run_item(&env, faulted, &mut off);
        assert!(o.recoveries > 0 && o.predicted_ms.is_none());

        roster[0].expected[0][3] += 1;
        assert_eq!(run_item(&env, &roster[0], &mut off).failures.len(), 1);
        roster[1].race_free = !roster[1].race_free;
        let o = run_item(&env, &roster[1], &mut off);
        assert!(o.verdict_mismatch && o.failures.len() == 1);
    }
}
