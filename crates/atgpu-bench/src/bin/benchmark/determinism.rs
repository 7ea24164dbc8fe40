//! `--check-determinism`: runs a workload's simulation twice from two
//! independent set-ups of the same seed and asserts that the exact-repeat
//! set — generated inputs, every simulated counter, `total_ms`, every
//! quote, and (through the output oracle both runs pass) the outputs — is
//! bit-identical.  Kernel-cache and memo counters are printed with
//! `"exact": false` on threaded workloads: they depend on the thread
//! schedule until the single-flight memo lands (ROADMAP P0), so no claim
//! may rest on them.

use crate::measure::{build_roster, run_pass, Options};
use crate::pipeline::{Env, Outcome, SimCounts};
use crate::serve::{self, run_clients, Stop};
use crate::serve_measure::{client_threads, fixed_requests};
use crate::spans::Recorder;
use std::fmt::Write as _;
use std::time::Instant;

/// One run's exact-repeat set, and the counters that are not in it.
struct Observed {
    /// Per-request simulated counters, in request order.
    counts: Vec<SimCounts>,
    /// `total_ms` bit patterns of every quote, in request order.
    quote_bits: Vec<u64>,
    /// Hash of the generated inputs.
    inputs: u64,
    /// Schedule-dependent counters: `(name, value)`.
    inexact: Vec<(&'static str, u64)>,
    /// Whether more than one thread ran.
    threaded: bool,
    failed: u64,
}

fn hash_words(h: &mut u64, words: &[i64]) {
    for w in words {
        *h = (*h ^ *w as u64).wrapping_mul(0x0000_0100_0000_01b3).rotate_left(23);
    }
}

fn observe_pipeline(env: &Env, opts: &Options) -> Result<Observed, String> {
    let built = build_roster(env, opts).map_err(|e| e.to_string())?;
    let mut inputs = 0xcbf2_9ce4_8422_2325;
    for item in &built.items {
        for buf in &item.built.inputs {
            hash_words(&mut inputs, buf);
        }
    }
    let mut off = Recorder::new(false, Instant::now());
    let (outcomes, _) = run_pass(env, &built.items, &mut off, 0);
    let sum = |f: &dyn Fn(&Outcome) -> u64| outcomes.iter().map(f).sum::<u64>();
    Ok(Observed {
        counts: outcomes.iter().map(|o| o.counts).collect(),
        quote_bits: outcomes.iter().filter_map(|o| o.predicted_ms).map(f64::to_bits).collect(),
        inputs,
        inexact: vec![
            ("sim.cache_hits", sum(&|o| o.cache.hits)),
            ("sim.cache_misses", sum(&|o| o.cache.misses)),
        ],
        threaded: built.items.iter().any(|i| i.sim.device_threads && i.cluster.n_devices() > 1),
        failed: sum(&|o| u64::from(!o.failures.is_empty())),
    })
}

fn observe_serve(env: &Env, opts: &Options) -> Result<Observed, String> {
    let world = serve::setup(env, opts.seed, opts.scale)?;
    let mut inputs = 0xcbf2_9ce4_8422_2325;
    for p in &world.submits {
        for buf in &p.built.inputs {
            hash_words(&mut inputs, buf);
        }
    }
    let mut off = Recorder::new(false, Instant::now());
    // The exact-repeat set comes from one client replaying a fixed
    // request sequence; the threaded burst only feeds the inexact set.
    let n = fixed_requests(opts.scale);
    let (solo, _) = run_clients(&world, 1, opts.seed, 1, Stop::After(n), &mut off);
    let clients = client_threads();
    let (burst, _) = run_clients(&world, clients, opts.seed, 2, Stop::After(n), &mut off);
    let s = world.server.stats();
    Ok(Observed {
        counts: vec![solo.counts],
        quote_bits: solo.quote_bits,
        inputs,
        inexact: vec![
            ("serve.memo_hits", s.price.memo_hits),
            ("serve.analytic", s.price.analytic),
            ("serve.simulated", s.price.simulated),
            ("serve.verify_checked", s.verify.checked),
            ("serve.verify_memo_hits", s.verify.memo_hits),
        ],
        threaded: clients > 1,
        failed: solo.failed + burst.failed + world.setup_failures.len() as u64,
    })
}

/// Runs the check; returns the result line and the failure count.
pub fn check(opts: &Options) -> Result<(String, u64), String> {
    let env = Env::standard();
    let observe = || match opts.workload.as_str() {
        "serve_mix" => observe_serve(&env, opts),
        _ => observe_pipeline(&env, opts),
    };
    let (first, second) = (observe()?, observe()?);
    let mut differences = Vec::new();
    if first.inputs != second.inputs {
        differences.push("generated inputs");
    }
    if first.counts != second.counts {
        differences.push("simulated counters");
    }
    if first.quote_bits != second.quote_bits {
        differences.push("quotes");
    }
    let identical = differences.is_empty();
    let failed = first.failed + second.failed + u64::from(!identical);

    let mut total = SimCounts::default();
    for c in &first.counts {
        total.add(c);
    }
    let mut line = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"identical\": {identical}, \"differences\": {:?}, \
         \"exact\": {{\"sim.instructions\": {}, \"sim.cycles\": {}, \"sim.global_txns\": {}, \
         \"sim.stall_cycles\": {}, \"sim.bank_conflict_cycles\": {}, \"sim.blocks\": {}, \
         \"sim.total_ms\": {}, \"quotes\": {}}}, \"counters\": {{",
        opts.workload,
        opts.seed,
        differences,
        total.instructions,
        total.cycles,
        total.global_txns,
        total.stall_cycles,
        total.bank_conflict_cycles,
        total.blocks,
        total.total_ms,
        first.quote_bits.len(),
    );
    for (i, ((name, a), (_, b))) in first.inexact.iter().zip(&second.inexact).enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{sep}\"{name}\": {{\"first\": {a}, \"second\": {b}, \"exact\": {}}}",
            !first.threaded
        );
    }
    line.push_str("}}");
    Ok((line, failed))
}
