//! The metric tables — every name, unit, direction and bound the
//! benchmark reports, mirrored by `BENCHMARK.json` (a unit test keeps the
//! two in step) — and the result line the driver reads.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; `None` for per-layer metrics.
    pub bound: Option<f64>,
    /// Definition, for `--list` and the README glossary.
    pub what: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
    what: &'static str,
) -> MetricDef {
    MetricDef { name, unit, better, bound: Some(bound), what }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    what: &'static str,
) -> MetricDef {
    MetricDef { name, unit, better, bound: None, what }
}

/// End-to-end metrics: what a user of the system sees.  Reported by the
/// untraced run, on every workload.  A *request* is one program through
/// validate → verify → analyze → price → simulate → check on the pipeline
/// workloads and one `CostServer` call on `serve_mix`; a *run* is the
/// execution part (`run_program`/`run_cluster_program`, or `submit`) and
/// a *quote* the pricing part (validate through cost, or `price*`).  A
/// workload is a fixed *cycle* of requests repeated for the whole run, and
/// every timing is taken from the fastest sample of each request of the
/// cycle (`measure::Floors` says why).
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", "lower", 0.25, "fastest of the run's fifteen set-ups, which are spread evenly over it: build programs, generate inputs, host references, server construction, one untimed warm-up cycle"),
    e2e("req_per_s", "1/s", "higher", 0.15, "requests of the cycle / sum of every request's fastest time: the rate of an undisturbed cycle"),
    e2e("run_p50_ms", "ms", "lower", 0.25, "median over the cycle's runs of each run's fastest latency"),
    e2e("run_p90_ms", "ms", "lower", 0.25, "90th percentile over the cycle's runs of each run's fastest latency"),
    e2e("quote_p50_us", "us", "lower", 0.25, "median over the cycle's quotes of each quote's fastest latency (serve_mix: the memo-hit price)"),
    e2e("quote_p90_us", "us", "lower", 0.25, "90th percentile over the cycle's quotes of each quote's fastest latency (serve_mix: the analytic cold price)"),
    e2e("peak_rss_mb", "MB", "lower", 0.1, "VmHWM from /proc/self/status when the measured phase ends"),
    e2e("model_err_pct", "%", "lower", 0.02, "mean |predicted - observed| / observed simulated total_ms over programs passing the trust gate (serve_mix: the server's quote vs the submitted run, every submit program once); exact for a roster, so any change is a change of model or simulator"),
];

/// Per-layer metrics (layers = crates), measured from outside by timing
/// public calls.  Reported by the traced run; a metric a workload does
/// not exercise reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    layer("ir.validate_us", "us", "lower", "p50 of validate_program"),
    layer("ir.cache_key_us", "us", "lower", "p50 of Kernel::cache_key over the roster's launches"),
    layer("ir.host_steps", "count", "lower", "host steps per pass"),
    layer("ir.kernels", "count", "lower", "kernel launches per pass"),
    layer("algos.build_ms", "ms", "lower", "time in Workload::build* during set-up"),
    layer("algos.expected_ms", "ms", "lower", "time in Workload::expected during set-up"),
    layer("algos.programs", "count", "higher", "programs in the roster"),
    layer("verify.program_us", "us", "lower", "p50 of verify_program"),
    layer("verify.total_ms", "ms", "lower", "verify_program time per pass"),
    layer("verify.launches", "count", "higher", "launches verified per pass"),
    layer("verify.race_free", "count", "higher", "launches proven race-free per pass"),
    layer("verify.unknown", "count", "lower", "launches with an undecided race verdict per pass"),
    layer("verify.verdict_mismatch", "count", "lower", "verdicts differing from the roster's recorded answer"),
    layer("analyze.program_us", "us", "lower", "p50 of analyze_cluster_program"),
    layer("analyze.schedules_us", "us", "lower", "p50 of stream_schedules"),
    layer("analyze.total_ms", "ms", "lower", "analyze_cluster_program + stream_schedules time per pass"),
    layer("analyze.exact_share", "ratio", "higher", "share of programs with io_exact && conflict_free (the analytic fast-path share)"),
    layer("model.cost_us", "us", "lower", "p50 of cluster_cost_streamed"),
    layer("model.plan_ms", "ms", "lower", "planned_shards (plan_cost over candidates) on the link-asymmetric 2-device profile"),
    layer("model.chunk_solve_us", "us", "lower", "solve_chunk_units over eight candidates"),
    layer("model.err_max_pct", "%", "lower", "largest error among the programs model_err_pct averages"),
    layer("model.err_untrusted_pct", "%", "lower", "mean error of programs failing the trust gate"),
    layer("sim.run_ms", "ms", "lower", "run_program/run_cluster_program (serve_mix: solo run_cluster_program_on) time per pass"),
    layer("sim.compile_us", "us", "lower", "p50 of CompiledKernel::compile per launch"),
    layer("sim.kernel_ms", "ms", "lower", "Device::run_kernel on pre-loaded memory per pass (block execution, single-device programs)"),
    layer("sim.instr_per_s", "1/s", "higher", "simulated lockstep instructions per pass / median untraced pass wall time (serve_mix: of the submitted runs of 2 clients, median over 250 ms windows)"),
    layer("sim.kernel_instr_per_s", "1/s", "higher", "instructions of those launches / sim.kernel_ms"),
    layer("sim.shard_ms", "ms", "lower", "Device::run_shard per pass (cluster programs)"),
    layer("sim.write_log_ms", "ms", "lower", "apply_write_log per pass"),
    layer("sim.xfer_in_ms", "ms", "lower", "TransferEngine::to_device per pass"),
    layer("sim.xfer_out_ms", "ms", "lower", "TransferEngine::to_host per pass"),
    layer("sim.peer_ms", "ms", "lower", "TransferEngine::peer per pass"),
    layer("sim.xfer_words_per_s", "1/s", "higher", "words moved / transfer time"),
    layer("sim.serial_run_ms", "ms", "lower", "the fault-free programs' run time per pass with per-device threads off (what the replayed parts add up to)"),
    layer("sim.driver_self_ms", "ms", "lower", "sim.serial_run_ms - kernel - shard - write_log - xfer: device/memory construction, step interpreter, timeline"),
    layer("sim.engine_share", "ratio", "lower", "(sim.kernel_ms + sim.shard_ms) / sim.serial_run_ms: block execution's share of the run"),
    layer("sim.cluster_tax_1dev", "ratio", "lower", "run time of vecadd_sharded_1dev / plain vecadd (cluster_transfer)"),
    layer("sim.launch_warm_us", "us", "lower", "p50 of a small launch on a device that has the kernel cached"),
    layer("sim.launch_cold_us", "us", "lower", "p50 of the same launch on a fresh device"),
    layer("sim.cache_hits", "count", "higher", "kernel-cache hits per pass"),
    layer("sim.cache_misses", "count", "lower", "kernel-cache misses per pass"),
    layer("sim.cache_hit_rate", "ratio", "higher", "hits / lookups"),
    layer("sim.degraded_run_ms", "ms", "lower", "p50 run time of the faulted program"),
    layer("sim.retries", "count", "lower", "transfer retries per pass under the fault plan"),
    layer("sim.recoveries", "count", "lower", "dead-device takeovers per pass"),
    layer("sim.trace_overhead_pct", "%", "lower", "run time with SimConfig.trace on vs off"),
    layer("sim.instructions", "count", "lower", "simulated: lockstep instructions per pass (exact repeat)"),
    layer("sim.cycles", "count", "lower", "simulated: device cycles per pass (exact repeat)"),
    layer("sim.global_txns", "count", "lower", "simulated: coalesced global transactions per pass (exact repeat)"),
    layer("sim.stall_cycles", "count", "lower", "simulated: memory stall cycles per pass (exact repeat)"),
    layer("sim.bank_conflict_cycles", "count", "lower", "simulated: bank-conflict cycles per pass (exact repeat)"),
    layer("sim.blocks", "count", "lower", "simulated: thread blocks per pass (exact repeat)"),
    layer("sim.total_ms", "ms", "lower", "simulated: total_ms per pass (exact repeat)"),
    layer("serve.program_key_us", "us", "lower", "p50 of program_key"),
    layer("serve.admit_us", "us", "lower", "p50 of an uncontended AdmissionQueue::admit + permit drop"),
    layer("serve.submit_overhead_us", "us", "lower", "submit p50 - solo run_cluster_program_on p50 over the same programs"),
    layer("serve.price_memo_us", "us", "lower", "p50 price latency answered PriceSource::Memo"),
    layer("serve.price_analytic_us", "us", "lower", "p50 price latency answered PriceSource::Analytic"),
    layer("serve.price_sim_ms", "ms", "lower", "p50 price latency answered PriceSource::Simulated"),
    layer("serve.submit_p99_ms", "ms", "lower", "99th percentile submit latency under 2 clients, with at least 10 samples beyond it (too noisy to gate)"),
    layer("serve.price_p99_us", "us", "lower", "99th percentile price latency under 2 clients, with at least 10 samples beyond it (too noisy to gate)"),
    layer("serve.scaling_2c", "ratio", "higher", "requests/s with 2 clients / with 1 client"),
    layer("serve.memo_hits", "count", "higher", "CostServer::stats().price.memo_hits"),
    layer("serve.analytic", "count", "higher", "CostServer::stats().price.analytic"),
    layer("serve.simulated", "count", "lower", "CostServer::stats().price.simulated"),
    layer("serve.fast_fraction", "ratio", "higher", "share of price queries answered without simulation"),
    layer("serve.verify_checked", "count", "higher", "CostServer::stats().verify.checked"),
    layer("serve.verify_memo_hits", "count", "higher", "CostServer::stats().verify.memo_hits"),
    layer("serve.verify_rejected", "count", "lower", "CostServer::stats().verify.rejected (the racy requests)"),
    layer("serve.admitted", "count", "higher", "CostServer::stats().admission.admitted_total"),
    layer("serve.queue_full", "count", "lower", "CostServer::stats().admission.rejected_total"),
    layer("bench.trace_overhead_pct", "%", "lower", "traced vs untraced median pass (serve_mix: requests/s)"),
    layer("bench.passes", "count", "higher", "measured passes (serve_mix: completed requests)"),
    layer("bench.pass_iqr_pct", "%", "lower", "quartile spread of the pass times over their median"),
    layer("bench.disturbed_pct", "%", "lower", "median pass time over the undisturbed pass (the sum of every program's fastest request), minus one (serve_mix: time per request of the median 250 ms window over the fastest window's): what the host's other tenants cost this run"),
    layer("bench.generator_lag_us", "us", "lower", "harness time per request outside library calls (input clone, reply check)"),
    layer("bench.self_sum_pct", "%", "lower", "|sum of span self times - traced wall| / traced wall"),
    layer("bench.failed_share", "ratio", "lower", "operations failed / attempted"),
];

/// The four workloads and why each exists.
pub const WORKLOADS: &[(&str, &str)] = &[
    ("batch_compute", "single-device compute-heavy programs: engine block execution is nearly all the work, so driver and serve changes must show nothing"),
    ("cluster_transfer", "small sharded programs beside staged iterations that move their whole state every round: copies, write-log merge and the cluster driver outweigh block execution; also under a fault plan"),
    ("launch_storm", "tiny grids: lowering, kernel-cache hits (relaunch) beside misses (small-n sweep), device construction and verify+analyze decide the time"),
    ("serve_mix", "one closed-loop client on a CostServer: hashing, memos, verify/analyze/cost and admission beside small submits on the same queue"),
];

/// Metric values by name.
#[derive(Debug, Default, Clone)]
pub struct MetricSet(BTreeMap<&'static str, f64>);

impl MetricSet {
    /// Records `value` under `name`, which must be in one of the tables.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "metric `{name}` is not declared"
        );
        self.0.insert(name, if value.is_finite() { value } else { 0.0 });
    }

    /// The recorded value (0 when the workload does not exercise it).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// Operations attempted and failed so far, with the reasons.
#[derive(Debug, Default)]
pub struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    /// Counts `attempted` more operations, `failed` of which failed.
    pub fn add(&mut self, attempted: u64, failed: u64, why: impl IntoIterator<Item = String>) {
        self.attempted += attempted;
        self.failed += failed;
        self.failures.extend(why);
    }

    /// Counts one operation, failed when `why` is not empty.
    pub fn record(&mut self, why: Vec<String>) {
        self.add(1, u64::from(!why.is_empty()), why);
    }

    /// Moves everything counted by `other` into `self`.
    pub fn merge(&mut self, other: &mut Tally) {
        let other = std::mem::take(other);
        self.add(other.attempted, other.failed, other.failures);
    }

    /// Prints the first few failures and closes the run.
    pub fn finish(self, mut metrics: MetricSet) -> RunResult {
        for why in self.failures.iter().take(8) {
            eprintln!("FAILED: {why}");
        }
        metrics.set("bench.failed_share", self.failed as f64 / self.attempted.max(1) as f64);
        RunResult { attempted: self.attempted, failed: self.failed, metrics }
    }
}

/// The final result of a run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// Metric values.
    pub metrics: MetricSet,
}

/// The one-line JSON object the driver reads: exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`, with every metric of `defs`.
pub fn result_line(r: &RunResult, defs: &[MetricDef]) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        r.failed == 0,
        r.attempted.max(1),
        r.failed
    );
    for (i, d) in defs.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            d.name,
            r.metrics.get(d.name),
            d.unit
        );
    }
    s.push_str("}}");
    s
}

/// `--list`: every metric with unit, direction, bound and definition.
pub fn list() -> String {
    let mut s = String::new();
    for (title, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let _ = writeln!(s, "{title}:");
        for d in defs {
            let bound = d.bound.map_or(String::new(), |b| format!(" bound {b}"));
            let _ =
                writeln!(s, "  {:<28} {:<6} {:<6}{bound}  {}", d.name, d.unit, d.better, d.what);
        }
    }
    let _ = writeln!(s, "workloads:");
    for (name, why) in WORKLOADS {
        let _ = writeln!(s, "  {name:<18} {why}");
    }
    s
}

#[cfg(test)]
pub mod tests {
    use super::*;

    /// A minimal JSON reader for the round-trip tests: objects, arrays,
    /// strings without escapes, numbers, booleans and null.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Json {
        Null,
        Bool(bool),
        Num(f64),
        Str(String),
        Arr(Vec<Json>),
        Obj(Vec<(String, Json)>),
    }

    impl Json {
        pub fn get(&self, key: &str) -> &Json {
            match self {
                Json::Obj(kv) => kv.iter().find(|(k, _)| k == key).map_or(&Json::Null, |(_, v)| v),
                _ => &Json::Null,
            }
        }
        pub fn keys(&self) -> Vec<&str> {
            match self {
                Json::Obj(kv) => kv.iter().map(|(k, _)| k.as_str()).collect(),
                _ => Vec::new(),
            }
        }
        pub fn str(&self) -> &str {
            match self {
                Json::Str(s) => s,
                _ => "",
            }
        }
        pub fn num(&self) -> f64 {
            match self {
                Json::Num(n) => *n,
                _ => f64::NAN,
            }
        }
    }

    pub fn parse(text: &str) -> Json {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let v = value(bytes, &mut pos);
        skip(bytes, &mut pos);
        assert_eq!(pos, bytes.len(), "trailing characters after JSON value");
        v
    }

    fn skip(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && b[*pos].is_ascii_whitespace() {
            *pos += 1;
        }
    }

    fn value(b: &[u8], pos: &mut usize) -> Json {
        skip(b, pos);
        match b[*pos] {
            b'{' => {
                *pos += 1;
                let mut kv = Vec::new();
                loop {
                    skip(b, pos);
                    if b[*pos] == b'}' {
                        *pos += 1;
                        return Json::Obj(kv);
                    }
                    let Json::Str(k) = value(b, pos) else { panic!("object key must be a string") };
                    skip(b, pos);
                    assert_eq!(b[*pos], b':');
                    *pos += 1;
                    kv.push((k, value(b, pos)));
                    skip(b, pos);
                    if b[*pos] == b',' {
                        *pos += 1;
                    }
                }
            }
            b'[' => {
                *pos += 1;
                let mut v = Vec::new();
                loop {
                    skip(b, pos);
                    if b[*pos] == b']' {
                        *pos += 1;
                        return Json::Arr(v);
                    }
                    v.push(value(b, pos));
                    skip(b, pos);
                    if b[*pos] == b',' {
                        *pos += 1;
                    }
                }
            }
            b'"' => {
                let start = *pos + 1;
                let end =
                    start + b[start..].iter().position(|&c| c == b'"').expect("closing quote");
                *pos = end + 1;
                Json::Str(String::from_utf8(b[start..end].to_vec()).expect("utf-8"))
            }
            _ => {
                let start = *pos;
                while *pos < b.len() && !matches!(b[*pos], b',' | b'}' | b']') {
                    *pos += 1;
                }
                match std::str::from_utf8(&b[start..*pos]).expect("utf-8").trim() {
                    "true" => Json::Bool(true),
                    "false" => Json::Bool(false),
                    "null" => Json::Null,
                    n => Json::Num(n.parse().expect("number")),
                }
            }
        }
    }

    /// The result line parses back to exactly the contract's keys and the
    /// values that went in, with all their digits.
    #[test]
    fn result_line_round_trips() {
        let mut metrics = MetricSet::default();
        metrics.set("setup_s", 0.812_734_501_2);
        metrics.set("req_per_s", 1234.5);
        let r = RunResult { attempted: 1000, failed: 0, metrics };
        let line = result_line(&r, END_TO_END);
        assert!(!line.contains('\n'));
        let json = parse(&line);
        assert_eq!(json.keys(), ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(json.get("correct"), &Json::Bool(true));
        assert_eq!(json.get("attempted").num(), 1000.0);
        let names: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
        assert_eq!(json.get("metrics").keys(), names);
        let setup = json.get("metrics").get("setup_s");
        assert_eq!(setup.keys(), ["value", "unit"]);
        assert_eq!(setup.get("value").num(), 0.812_734_501_2);
        assert_eq!(setup.get("unit").str(), "s");
        // A failure flips `correct`; a non-finite value never reaches the line.
        let mut bad = r.clone();
        bad.failed = 3;
        bad.metrics.set("run_p50_ms", f64::NAN);
        let json = parse(&result_line(&bad, END_TO_END));
        assert_eq!(json.get("correct"), &Json::Bool(false));
        assert_eq!(json.get("metrics").get("run_p50_ms").get("value").num(), 0.0);
    }

    /// The committed `BENCHMARK.json`, found from either manifest this
    /// file is built under (`atgpu-bench`'s or the benchmark's own).
    pub fn benchmark_json_text() -> String {
        let dir = env!("CARGO_MANIFEST_DIR");
        ["../..", "../../../../.."]
            .iter()
            .find_map(|up| std::fs::read_to_string(format!("{dir}/{up}/BENCHMARK.json")).ok())
            .expect("BENCHMARK.json at the repo root")
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "a metric name is used twice");
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|d| d.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(END_TO_END.iter().any(|d| (d.name, d.unit, d.better) == ("setup_s", "s", "lower")));
        assert!(WORKLOADS.iter().all(|(_, why)| why.len() <= 200));
    }
}
