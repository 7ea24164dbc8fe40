//! `serve_mix`: one `CostServer` on a 2-device cluster driven by a closed
//! loop — a client sends its next request only after the previous reply,
//! because `submit`/`price` are blocking library calls.  The measured run
//! has one client; the traced run adds phases with two client threads.
//!
//! A client repeats one seeded cycle of requests ([`request_cycle`]):
//! 60 % `price` on a hot set (memo hits), 16 % `price_what_if` on
//! never-repeated link-scaled specs (verify-memo hit, price-memo miss →
//! analyze + cost, FIFO eviction running), 5 % `price_what_if` of
//! non-exact programs on fresh specs (simulation fallback), 18 % `submit`
//! of small sharded programs with outputs checked, and a few requests for
//! a proven-racy program that must be refused with `ServeError::Unsound`.

use crate::pipeline::{outputs_match, Env, SimCounts};
use crate::rosters::{AlgosTimes, Scale};
use crate::spans::Recorder;
use atgpu_algos::bitonic::BitonicSort;
use atgpu_algos::dot::Dot;
use atgpu_algos::gemv::Gemv;
use atgpu_algos::matmul::MatMul;
use atgpu_algos::ooc::OocVecAdd;
use atgpu_algos::reduce::{Reduce, ReduceVariant};
use atgpu_algos::saxpy::Saxpy;
use atgpu_algos::scan::Scan;
use atgpu_algos::spmv::SpmvEll;
use atgpu_algos::stencil::Stencil;
use atgpu_algos::transpose::{Transpose, TransposeVariant};
use atgpu_algos::vecadd::VecAdd;
use atgpu_algos::workload::BuiltProgram;
use atgpu_algos::{AlgosError, Workload};
use atgpu_ir::{AddrExpr, KernelBuilder, Program, ProgramBuilder};
use atgpu_model::ClusterSpec;
use atgpu_serve::{CostServer, PriceSource, Quote, ServeError, ServerConfig};
use atgpu_sim::SimConfig;
use std::time::Instant;

/// Client threads of the traced run's loaded phases (= the 2 cores of the
/// sizing host; capped by `available_parallelism`).
pub const CLIENTS: usize = 2;
/// Devices of the served cluster.
const DEVICES: u32 = 2;
/// Length of a throughput window, milliseconds.
pub const WINDOW_MS: u64 = 250;

/// SplitMix64: the request streams' generator (the program under test
/// never sees it, only the requests it produces).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream seeded by `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// Next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// What a client asks the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    /// `price` of hot-set program `i` on the server's own cluster.
    PriceHot(usize),
    /// `price_what_if` of exact shape `i` on a never-repeated spec.
    WhatIf(usize),
    /// `price_what_if` of non-exact program `i` on a never-repeated spec.
    PriceSim(usize),
    /// `submit` of program `i`.
    Submit(usize),
    /// A proven-racy program: `submit` when the flag is set, else `price`.
    Racy(bool),
}

/// A program the clients submit, with its oracle.
#[derive(Debug)]
pub struct SubmitProg {
    /// Program and generated inputs.
    pub built: BuiltProgram,
    /// Host-reference outputs.
    pub expected: Vec<Vec<i64>>,
    /// The server's analytic quote, when the analysis is trusted.
    pub quote_ms: Option<f64>,
    /// The recorded verifier answer: every launch proven race-free.
    pub race_free: bool,
}

/// A priced program with the answer recorded at set-up.
#[derive(Debug)]
pub struct Priced {
    /// The program.
    pub program: Program,
    /// `total_ms` of the first quote on the server's own cluster.
    pub base_ms: f64,
}

/// The server, the programs and their recorded answers.
#[derive(Debug)]
pub struct World {
    /// The server under test.
    pub server: CostServer,
    /// The served cluster's spec (what-if specs scale its second link).
    pub spec: ClusterSpec,
    /// Hot set: exact programs whose `price` is a memo hit.
    pub hot: Vec<Priced>,
    /// Exact shapes for never-repeated what-if questions.
    pub shapes: Vec<Priced>,
    /// Non-exact programs whose price falls back to simulation.
    pub inexact: Vec<Priced>,
    /// Programs to execute.
    pub submits: Vec<SubmitProg>,
    /// The proven-racy program and its inputs.
    pub racy: (Program, Vec<Vec<i64>>),
    /// Time in `atgpu-algos` while building the programs.
    pub times: AlgosTimes,
    /// Model error in percent of every trusted submit program: its
    /// analytic quote against the first submitted run (both are exact).
    pub model_err_pct: Vec<f64>,
    /// Failures met while recording set-up answers.
    pub setup_failures: Vec<String>,
}

/// A kernel whose write stride (16) is below the block width (32), so
/// neighbouring blocks collide: the verifier proves it racy.
fn racy_program() -> (Program, Vec<Vec<i64>>) {
    let mut pb = ProgramBuilder::new("racy");
    let h = pb.host_input("A", 128);
    let o = pb.host_output("C", 128);
    let da = pb.device_alloc("a", 128);
    let dc = pb.device_alloc("c", 128);
    let mut kb = KernelBuilder::new("collide", 4, 32);
    kb.glb_to_shr(AddrExpr::lane(), da, AddrExpr::block() * 32 + AddrExpr::lane());
    kb.shr_to_glb(dc, AddrExpr::block() * 16 + AddrExpr::lane(), AddrExpr::lane());
    pb.begin_round();
    pb.transfer_in(h, da, 128);
    pb.launch(kb.build());
    pb.transfer_out(dc, o, 128);
    (pb.build().expect("validation does not check races"), vec![vec![0; 128]])
}

/// A built program, its host reference and its recorded race verdict.
type Candidate = (BuiltProgram, Vec<Vec<i64>>, bool);

#[derive(Default)]
struct Programs {
    exact: Vec<Candidate>,
    inexact: Vec<Candidate>,
    times: AlgosTimes,
}

impl Programs {
    /// Adds a program proven race-free by the verifier.
    fn add(
        &mut self,
        exact: bool,
        build: impl FnOnce() -> Result<BuiltProgram, AlgosError>,
        expected: impl FnOnce() -> Vec<Vec<i64>>,
    ) -> Result<(), AlgosError> {
        self.add_with(exact, true, build, expected)
    }

    fn add_with(
        &mut self,
        exact: bool,
        race_free: bool,
        build: impl FnOnce() -> Result<BuiltProgram, AlgosError>,
        expected: impl FnOnce() -> Vec<Vec<i64>>,
    ) -> Result<(), AlgosError> {
        let (built, exp) = self.times.build(build, expected)?;
        if exact { &mut self.exact } else { &mut self.inexact }.push((built, exp, race_free));
        Ok(())
    }
}

/// Builds the program shapes: seven exact families over several sizes
/// (≈ 40 shapes) and four small non-exact programs.
fn build_programs(env: &Env, seed: u64, scale: Scale) -> Result<Programs, AlgosError> {
    let m = env.machine;
    let mut p = Programs::default();
    let mut k = 0u64;
    let mut s = || {
        k += 1;
        seed.wrapping_mul(0x9E37_79B9).wrapping_add(5000 + k)
    };
    let sizes: &[u64] = match scale {
        Scale::Full => &[256, 512, 1024, 2048, 4096, 8192],
        Scale::Smoke => &[256],
    };
    for &n in sizes {
        let w = VecAdd::new(n, s());
        p.add(true, || w.build_sharded(&m, DEVICES), || w.expected())?;
        let w = Saxpy::new(n, 3, s());
        p.add(true, || w.build(&m), || w.expected())?;
        let w = Reduce::with_variant(n, s(), ReduceVariant::SequentialAddressing);
        p.add(true, || w.build_sharded(&m, DEVICES), || w.expected())?;
        let w = Dot::new(n, s());
        p.add(true, || w.build(&m), || w.expected())?;
        let w = Stencil::new(n, s());
        p.add(true, || w.build_sharded(&m, DEVICES, 4), || vec![w.iterated_reference(4)])?;
        let w = OocVecAdd::new(n, n / 4, s());
        p.add(true, || w.build_streamed(&m), || w.expected())?;
    }
    if scale == Scale::Full {
        let w = MatMul::new(64, s());
        p.add(true, || w.build_sharded(&m, DEVICES), || w.expected())?;
        for side in [32, 64] {
            let w = Transpose::new(side, s(), TransposeVariant::TiledPadded);
            p.add(true, || w.build(&m), || w.expected())?;
        }
    }
    let w = Gemv::new(32, s());
    p.add(false, || w.build(&m), || w.expected())?;
    let w = Scan::new(scale.pick(1024, 256), s());
    p.add(false, || w.build_sharded(&m, DEVICES), || w.expected())?;
    if scale == Scale::Full {
        let w = SpmvEll::new(512, 8, s());
        p.add(false, || w.build_sharded(&m, DEVICES), || w.expected())?;
        // Data-dependent addressing: the race verdict stays `Unknown`.
        let w = BitonicSort::new(128, s());
        p.add_with(false, false, || w.build(&m), || w.expected())?;
    }
    Ok(p)
}

/// Builds the world: programs, server, and the answers recorded from a
/// first quote of every priced program.
pub fn setup(env: &Env, seed: u64, scale: Scale) -> Result<World, String> {
    let progs = build_programs(env, seed, scale).map_err(|e| e.to_string())?;
    let spec = ClusterSpec::homogeneous(DEVICES as usize, env.spec);
    // The clients already occupy every core: per-device threads inside a
    // run would only oversubscribe.
    let config = ServerConfig {
        sim: SimConfig { device_threads: false, ..SimConfig::default() },
        ..ServerConfig::default()
    };
    let server = CostServer::new(env.machine, spec.clone(), config).map_err(|e| e.to_string())?;
    let mut failures = Vec::new();
    let mut first_quote = |name: &str, program: &Program, want: PriceSource| -> f64 {
        match server.price(program) {
            Ok(q) if q.source == want => q.total_ms,
            Ok(q) => {
                failures
                    .push(format!("{name}: first quote came from {:?}, not {want:?}", q.source));
                q.total_ms
            }
            Err(e) => {
                failures.push(format!("{name}: first quote failed: {e}"));
                0.0
            }
        }
    };

    let mut shapes = Vec::new();
    let mut submits = Vec::new();
    for (built, expected, race_free) in progs.exact {
        let base_ms = first_quote(&built.program.name, &built.program, PriceSource::Analytic);
        shapes.push(Priced { program: built.program.clone(), base_ms });
        submits.push(SubmitProg { built, expected, quote_ms: Some(base_ms), race_free });
    }
    let mut inexact = Vec::new();
    for (built, expected, race_free) in progs.inexact {
        let base_ms = first_quote(&built.program.name, &built.program, PriceSource::Simulated);
        inexact.push(Priced { program: built.program.clone(), base_ms });
        submits.push(SubmitProg { built, expected, quote_ms: None, race_free });
    }
    // Every program is submitted once: the recorded quote is compared with
    // the run it predicts, and the cluster's kernel caches are filled.
    let mut model_err_pct = Vec::new();
    for p in &submits {
        let name = &p.built.program.name;
        match server.submit("setup", &p.built.program, p.built.inputs.clone()) {
            Err(e) => failures.push(format!("{name}: first submit failed: {e}")),
            Ok(r) => {
                if !outputs_match(&p.built, &p.expected, |h| r.output(h)) {
                    failures.push(format!("{name}: first submit differs from host reference"));
                }
                let observed = r.total_ms();
                if let Some(q) = p.quote_ms.filter(|_| observed > 0.0) {
                    model_err_pct.push(100.0 * (q - observed).abs() / observed);
                }
            }
        }
    }
    // Hot set: every other exact shape, capped at 16 programs.
    let hot: Vec<Priced> = shapes
        .iter()
        .step_by(2)
        .take(16)
        .map(|p| Priced { program: p.program.clone(), base_ms: p.base_ms })
        .collect();
    Ok(World {
        server,
        spec,
        hot,
        shapes,
        inexact,
        submits,
        racy: racy_program(),
        times: progs.times,
        model_err_pct,
        setup_failures: failures,
    })
}

/// Times each program of a class comes up in a client's cycle.  With the
/// measured world (16 hot programs, 39 exact shapes, 4 non-exact programs,
/// 43 submit programs) the cycle is 480 requests: 60 % hot prices, 16 %
/// what-ifs, 5 % simulated prices, 18 % submits and 4 refusals.
const HOT_REPEATS: usize = 18;
const WHAT_IF_REPEATS: usize = 2;
const PRICE_SIM_REPEATS: usize = 6;
const SUBMIT_REPEATS: usize = 2;
/// Proven-racy requests of a cycle, submitted and priced in turn.
const RACY_REQUESTS: usize = 4;

/// The cycle of requests client `client` repeats under `seed`.  Every seed
/// and client asks for the same programs the same number of times — the
/// work of a cycle depends on the seed only through the generated inputs
/// — in an order of its own.
pub fn request_cycle(world: &World, seed: u64, client: usize) -> Vec<Request> {
    let class = |n: usize, repeats: usize, request: fn(usize) -> Request| {
        (0..n * repeats).map(move |k| request(k % n))
    };
    let mut cycle: Vec<Request> = class(world.hot.len(), HOT_REPEATS, Request::PriceHot)
        .chain(class(world.shapes.len(), WHAT_IF_REPEATS, Request::WhatIf))
        .chain(class(world.inexact.len(), PRICE_SIM_REPEATS, Request::PriceSim))
        .chain(class(world.submits.len(), SUBMIT_REPEATS, Request::Submit))
        .chain((0..RACY_REQUESTS).map(|k| Request::Racy(k % 2 == 0)))
        .collect();
    let mut rng = client_rng(seed, client);
    for i in (1..cycle.len()).rev() {
        cycle.swap(i, rng.below(i + 1));
    }
    cycle
}

fn client_rng(seed: u64, client: usize) -> Rng {
    Rng::new(seed.wrapping_mul(0xD134_2543_DE82_EF95).wrapping_add(client as u64 + 1))
}

/// A never-repeated what-if spec: the second host link scaled by a factor
/// unique to `(salt, client, idx)`, so its `spec_key` is always new.
fn fresh_spec(world: &World, salt: u64, client: usize, idx: u64) -> ClusterSpec {
    let unique = (salt << 34) | ((client as u64) << 32) | (idx & 0xFFFF_FFFF);
    let factor = 1.0 + (unique + 1) as f64 * (0.5f64).powi(44);
    let mut spec = world.spec.clone();
    spec.host_links[1] = spec.host_links[1].scaled(factor);
    spec
}

/// When a client stops.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// At a wall-clock deadline.
    At(Instant),
    /// After this many requests.
    After(u64),
}

/// What one client measured.
#[derive(Debug, Default)]
pub struct ClientStats {
    /// `submit` latencies, milliseconds.
    pub submit_ms: Vec<f64>,
    /// `price` latencies answered from the memo, microseconds.
    pub memo_us: Vec<f64>,
    /// `price_what_if` latencies answered analytically, microseconds.
    pub analytic_us: Vec<f64>,
    /// Price latencies answered by simulation, microseconds.
    pub simulated_us: Vec<f64>,
    /// Latencies of refused (racy) requests, microseconds.
    pub refused_us: Vec<f64>,
    /// Requests completed.
    pub requests: u64,
    /// Requests that failed a check.
    pub failed: u64,
    /// First few failure descriptions.
    pub failures: Vec<String>,
    /// Simulated counters of the submitted runs.
    pub counts: SimCounts,
    /// `total_ms` of every quote, in stream order — kept only for
    /// fixed-count streams (the determinism check compares them).
    pub quote_bits: Vec<u64>,
    /// `(server call, whole request)` microseconds of every request, in
    /// stream order — kept only for fixed-count streams (the measured
    /// cycle takes each position's fastest).
    pub op_us: Vec<(f64, f64)>,
    fixed: bool,
    /// Nanoseconds spent generating requests and checking replies.
    pub generator_ns: u64,
    /// `(requests completed, instructions simulated)` per
    /// [`WINDOW_MS`]-long window since the clients started.
    pub windows: Vec<(u64, u64)>,
}

impl ClientStats {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }

    /// Folds another client's measurements in.
    pub fn merge(&mut self, o: ClientStats) {
        self.submit_ms.extend(o.submit_ms);
        self.memo_us.extend(o.memo_us);
        self.analytic_us.extend(o.analytic_us);
        self.simulated_us.extend(o.simulated_us);
        self.refused_us.extend(o.refused_us);
        self.requests += o.requests;
        self.failed += o.failed;
        self.failures.extend(o.failures);
        self.counts.add(&o.counts);
        self.quote_bits.extend(o.quote_bits);
        self.op_us.extend(o.op_us);
        self.generator_ns += o.generator_ns;
        if self.windows.len() < o.windows.len() {
            self.windows.resize(o.windows.len(), (0, 0));
        }
        for (mine, theirs) in self.windows.iter_mut().zip(o.windows) {
            mine.0 += theirs.0;
            mine.1 += theirs.1;
        }
    }

    /// Requests/s and simulated instructions/s of every full window (the
    /// last, partial one is left out).
    pub fn window_rates(&self) -> (Vec<f64>, Vec<f64>) {
        let full = &self.windows[..self.windows.len().saturating_sub(1)];
        let per_s = 1e3 / WINDOW_MS as f64;
        full.iter().map(|w| (w.0 as f64 * per_s, w.1 as f64 * per_s)).unzip()
    }

    /// Every price latency (memo, analytic and simulated), microseconds.
    pub fn price_us(&self) -> Vec<f64> {
        [&self.memo_us[..], &self.analytic_us[..], &self.simulated_us[..]].concat()
    }
}

fn record_quote(
    st: &mut ClientStats,
    what: &str,
    reply: Result<Quote, ServeError>,
    us: f64,
    allowed: &[PriceSource],
    check_ms: impl Fn(f64) -> bool,
) {
    match reply {
        Err(e) => st.fail(format!("{what}: {e}")),
        Ok(q) => {
            match q.source {
                PriceSource::Memo => st.memo_us.push(us),
                PriceSource::Analytic => st.analytic_us.push(us),
                PriceSource::Simulated => st.simulated_us.push(us),
            }
            if st.fixed {
                st.quote_bits.push(q.total_ms.to_bits());
            }
            if !allowed.contains(&q.source) {
                st.fail(format!("{what}: answered from {:?}, expected {allowed:?}", q.source));
            } else if !check_ms(q.total_ms) {
                st.fail(format!("{what}: quote {} ms contradicts the recorded answer", q.total_ms));
            }
        }
    }
}

/// Runs one closed-loop client until `stop`.
pub fn run_client(
    world: &World,
    client: usize,
    seed: u64,
    salt: u64,
    stop: Stop,
    start: Instant,
    rec: &mut Recorder,
) -> ClientStats {
    let mut st = ClientStats { fixed: matches!(stop, Stop::After(_)), ..ClientStats::default() };
    let cycle = request_cycle(world, seed, client);
    let tenant = format!("t{client}");
    let server = &world.server;
    let mut idx = 0u64;
    // Everything a client does hangs under one root span, so the span self
    // times account for the thread's whole life.
    let root = rec.open("bench", "bench.client");
    loop {
        match stop {
            Stop::At(deadline) if Instant::now() >= deadline => break,
            Stop::After(n) if idx >= n => break,
            _ => {}
        }
        let t_gen = Instant::now();
        let instr_before = st.counts.instructions;
        let request = cycle[idx as usize % cycle.len()];
        rec.set_request((client as u64) << 40 | idx);
        let us = |t: Instant| t.elapsed().as_secs_f64() * 1e6;
        // Every arm yields the latency of its one server call.
        let call_us = match request {
            Request::PriceHot(i) => {
                let p = &world.hot[i];
                st.generator_ns += t_gen.elapsed().as_nanos() as u64;
                let t = Instant::now();
                let reply = rec.span("serve", "serve.price", || server.price(&p.program));
                let dt = us(t);
                // Evicted hot entries are recomputed analytically; both
                // paths must replay the recorded quote bit for bit.
                record_quote(
                    &mut st,
                    "price(hot)",
                    reply,
                    dt,
                    &[PriceSource::Memo, PriceSource::Analytic],
                    |ms| ms.to_bits() == p.base_ms.to_bits(),
                );
                dt
            }
            Request::WhatIf(i) | Request::PriceSim(i) => {
                let (p, what, want) = match request {
                    Request::WhatIf(_) => (&world.shapes[i], "what_if", PriceSource::Analytic),
                    _ => (&world.inexact[i], "price(sim)", PriceSource::Simulated),
                };
                let spec = fresh_spec(world, salt, client, idx);
                st.generator_ns += t_gen.elapsed().as_nanos() as u64;
                let t = Instant::now();
                let reply = rec.span("serve", "serve.price_what_if", || {
                    server.price_what_if(&p.program, &spec)
                });
                let dt = us(t);
                // A slower link never makes the program cheaper.
                record_quote(&mut st, what, reply, dt, &[want], |ms| {
                    ms >= p.base_ms && ms.is_finite()
                });
                dt
            }
            Request::Submit(i) => {
                let p = &world.submits[i];
                let inputs = p.built.inputs.clone();
                st.generator_ns += t_gen.elapsed().as_nanos() as u64;
                let t = Instant::now();
                let reply = rec.span("serve", "serve.submit", || {
                    server.submit(&tenant, &p.built.program, inputs)
                });
                let dt = us(t);
                st.submit_ms.push(dt / 1e3);
                let t_check = Instant::now();
                match reply {
                    Err(e) => st.fail(format!("submit({}): {e}", p.built.program.name)),
                    Ok(r) => {
                        for dev in r.rounds.iter().flat_map(|round| &round.devices) {
                            st.counts.add_kernel(&dev.kernel_stats);
                        }
                        st.counts.total_ms += r.total_ms();
                        if !outputs_match(&p.built, &p.expected, |h| r.output(h)) {
                            st.fail(format!(
                                "submit({}): output differs from host reference",
                                p.built.program.name
                            ));
                        }
                    }
                }
                st.generator_ns += t_check.elapsed().as_nanos() as u64;
                dt
            }
            Request::Racy(submit) => {
                let (program, inputs) = &world.racy;
                let inputs = inputs.clone();
                st.generator_ns += t_gen.elapsed().as_nanos() as u64;
                let t = Instant::now();
                let refused = rec.span("serve", "serve.refuse", || {
                    if submit {
                        matches!(
                            server.submit(&tenant, program, inputs),
                            Err(ServeError::Unsound { .. })
                        )
                    } else {
                        matches!(server.price(program), Err(ServeError::Unsound { .. }))
                    }
                });
                let dt = us(t);
                st.refused_us.push(dt);
                if !refused {
                    st.fail("racy program was not refused as unsound".into());
                }
                dt
            }
        };
        if st.fixed {
            st.op_us.push((call_us, us(t_gen)));
        }
        st.requests += 1;
        idx += 1;
        let window = (start.elapsed().as_millis() as u64 / WINDOW_MS) as usize;
        if st.windows.len() <= window {
            st.windows.resize(window + 1, (0, 0));
        }
        st.windows[window].0 += 1;
        st.windows[window].1 += st.counts.instructions - instr_before;
    }
    rec.close(root);
    st
}

/// Runs `clients` closed-loop clients concurrently until `stop`; returns
/// the merged measurements, the wall-clock seconds and the spans.
pub fn run_clients(
    world: &World,
    clients: usize,
    seed: u64,
    salt: u64,
    stop: Stop,
    rec: &mut Recorder,
) -> (ClientStats, f64) {
    let start = Instant::now();
    let mut results: Vec<(ClientStats, Recorder)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let mut rec = rec.fork();
                scope.spawn(move || {
                    let st = run_client(world, c, seed, salt, stop, start, &mut rec);
                    (st, rec)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let mut total = ClientStats::default();
    for (st, r) in results.drain(..) {
        total.merge(st);
        rec.absorb(r);
    }
    (total, wall)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The request cycle is a function of the seed alone, and every seed
    /// and client asks for the same programs, in another order.
    #[test]
    fn same_seed_same_requests_and_another_seed_differs() {
        let world = setup(&Env::standard(), 7, Scale::Smoke).expect("world");
        assert!(world.setup_failures.is_empty(), "{:?}", world.setup_failures);
        let a = request_cycle(&world, 7, 0);
        assert_eq!(a, request_cycle(&world, 7, 0));
        let key = |r: &Request| format!("{r:?}");
        for (seed, client) in [(8, 0), (7, 1)] {
            let mut b = request_cycle(&world, seed, client);
            assert_ne!(a, b, "seed {seed} client {client} draws its own order");
            let mut sorted_a = a.clone();
            sorted_a.sort_by_key(key);
            b.sort_by_key(key);
            assert_eq!(sorted_a, b, "seed {seed} client {client} asks for the same programs");
        }
        // The mix holds its shares, and the racy program comes round.
        let share = |f: &dyn Fn(&Request) -> bool| {
            a.iter().filter(|r| f(r)).count() as f64 / a.len() as f64
        };
        assert!((share(&|r| matches!(r, Request::PriceHot(_))) - 0.6).abs() < 0.08);
        assert!((share(&|r| matches!(r, Request::Submit(_))) - 0.2).abs() < 0.06);
        assert_eq!(a.iter().filter(|r| matches!(r, Request::Racy(_))).count(), RACY_REQUESTS);
    }

    /// Every what-if spec is new to the price memo.
    #[test]
    fn fresh_specs_never_repeat() {
        let world = setup(&Env::standard(), 7, Scale::Smoke).expect("world");
        let mut keys: Vec<u64> = (0..2)
            .flat_map(|salt| (0..2).map(move |client| (salt, client)))
            .flat_map(|(salt, client)| (0..50).map(move |idx| (salt, client, idx)))
            .map(|(salt, client, idx)| fresh_spec(&world, salt, client, idx).spec_key())
            .collect();
        keys.push(world.spec.spec_key());
        let n = keys.len();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), n);
    }

    /// A corrupted expectation or recorded quote shows up as a failure.
    #[test]
    fn corrupted_oracles_are_counted_as_failures() {
        let mut world = setup(&Env::standard(), 7, Scale::Smoke).expect("world");
        let mut off = Recorder::new(false, Instant::now());
        let clean = run_client(&world, 0, 7, 1, Stop::After(120), Instant::now(), &mut off);
        assert_eq!((clean.failed, clean.requests), (0, 120), "{:?}", clean.failures);
        for p in &mut world.submits {
            p.expected[0][0] ^= 1;
        }
        for p in &mut world.hot {
            p.base_ms += 1.0;
        }
        let bad = run_client(&world, 0, 7, 2, Stop::After(120), Instant::now(), &mut off);
        let wrong = bad.submit_ms.len() + bad.memo_us.len();
        assert!(bad.failed as usize >= wrong && wrong > 0, "{} of {wrong}", bad.failed);
    }
}
