//! Traced-run decomposition: the parts of a run that `run_program` /
//! `run_cluster_program` hide are timed from outside by replaying each
//! roster program on **side copies** through the simulator's public
//! building blocks (`TransferEngine`, `Device::run_kernel`,
//! `Device::run_shard`, `apply_write_log`, `CompiledKernel::compile`).
//! The replay's outputs are checked against the same oracle, so the
//! decomposition provably times the real work.  End-to-end metrics never
//! come from here.

use crate::pipeline::{outputs_match, Env, Item};
use crate::stats::median;
use atgpu_ir::{HostStep, Kernel, Program, Shard};
use atgpu_model::plan::solve_chunk_units;
use atgpu_model::ShardProfile;
use atgpu_serve::{program_key, AdmissionQueue};
use atgpu_sim::gmem::GlobalMemory;
use atgpu_sim::uop::CompiledKernel;
use atgpu_sim::warp::WriteRec;
use atgpu_sim::xfer::TransferEngine;
use atgpu_sim::{apply_write_log, planned_shards, Device, ExecMode, HostData};
use std::time::Instant;

/// Launches at or below this many blocks count as launch-overhead bound
/// and are probed cold (fresh device) and warm (cached).
const SMALL_LAUNCH_BLOCKS: u64 = 64;

/// Host time of one replayed pass, split by building block.
#[derive(Debug, Default, Clone)]
pub struct Decomposition {
    /// `Device::run_kernel` on pre-loaded memory (single-device programs).
    pub kernel_ms: f64,
    /// Instructions those launches issued.
    pub kernel_instr: u64,
    /// `Device::run_shard` (cluster programs).
    pub shard_ms: f64,
    /// `apply_write_log` after the shards.
    pub write_log_ms: f64,
    /// `TransferEngine::to_device`.
    pub xfer_in_ms: f64,
    /// `TransferEngine::to_host`.
    pub xfer_out_ms: f64,
    /// `TransferEngine::peer`.
    pub peer_ms: f64,
    /// Words moved by all three.
    pub xfer_words: u64,
    /// `CompiledKernel::compile` per launch, microseconds.
    pub compile_us: Vec<f64>,
    /// Small launches on a fresh device (kernel-cache miss), microseconds.
    pub launch_cold_us: Vec<f64>,
    /// The same launches repeated (kernel-cache hit), microseconds.
    pub launch_warm_us: Vec<f64>,
    /// Host steps interpreted.
    pub host_steps: u64,
    /// Kernel launches among them.
    pub kernels: u64,
    /// Programs whose replayed outputs differed from the oracle.
    pub failures: Vec<String>,
}

impl Decomposition {
    /// Milliseconds in all three transfer directions.
    pub fn xfer_ms(&self) -> f64 {
        self.xfer_in_ms + self.xfer_out_ms + self.peer_ms
    }
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn split_pair<T>(v: &mut [T], a: usize, b: usize) -> (&T, &mut T) {
    if a < b {
        let (lo, hi) = v.split_at_mut(b);
        (&lo[a], &mut hi[0])
    } else {
        let (lo, hi) = v.split_at_mut(a);
        (&hi[0], &mut lo[b])
    }
}

/// Times a small launch cold and warm without touching `gmem`
/// (`run_shard` defers its writes to a log that is dropped).
fn probe_launch(env: &Env, kernel: &Kernel, gmem: &GlobalMemory, d: &mut Decomposition) {
    let Ok(device) = Device::new(env.machine, env.spec) else { return };
    let range = (0, kernel.blocks());
    for slot in [&mut d.launch_cold_us, &mut d.launch_warm_us] {
        let mut log: Vec<WriteRec> = Vec::new();
        let t = Instant::now();
        let ran = device.run_shard(
            kernel,
            gmem,
            ExecMode::Sequential,
            atgpu_sim::EngineSel::MicroOp,
            range,
            &mut log,
        );
        if ran.is_ok() {
            slot.push(ms(t) * 1e3);
        }
    }
}

/// Replays one program step by step on side copies, timing each call.
fn replay(env: &Env, item: &Item, devices: &[Device], d: &mut Decomposition) -> Result<(), String> {
    let program: &Program = &item.built.program;
    let n = item.cluster.n_devices();
    let b = env.machine.b;
    let (bases, total) = program.buffer_layout(b);
    let mut gmems = (0..n)
        .map(|_| GlobalMemory::new(bases.clone(), total, b, env.machine.g))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let mut host_xfer: Vec<TransferEngine> =
        item.cluster.host_links.iter().map(|l| TransferEngine::with_link(l, None, 0)).collect();
    let host = HostData::new(program, item.built.inputs.clone()).map_err(|e| e.to_string())?;
    let mut host_bufs: Vec<Vec<i64>> =
        (0..program.host_bufs.len()).map(|i| host.buf(atgpu_ir::HBuf(i as u32)).to_vec()).collect();

    for step in program.rounds.iter().flat_map(|r| &r.steps) {
        d.host_steps += 1;
        match step {
            HostStep::TransferIn { host, host_off, dev, dev_off, words, device, .. } => {
                let src = &host_bufs[host.0 as usize][*host_off as usize..][..*words as usize];
                let t = Instant::now();
                host_xfer[*device as usize].to_device(
                    &mut gmems[*device as usize],
                    bases[dev.0 as usize] + dev_off,
                    src,
                );
                d.xfer_in_ms += ms(t);
                d.xfer_words += words;
            }
            HostStep::TransferOut { dev, dev_off, host, host_off, words, device, .. } => {
                let dst = &mut host_bufs[host.0 as usize][*host_off as usize..][..*words as usize];
                let t = Instant::now();
                host_xfer[*device as usize].to_host(
                    &gmems[*device as usize],
                    bases[dev.0 as usize] + dev_off,
                    dst,
                );
                d.xfer_out_ms += ms(t);
                d.xfer_words += words;
            }
            HostStep::TransferPeer { src, dst, buf, src_off, dst_off, words } => {
                let link = &item.cluster.peer_links[*src as usize][*dst as usize];
                let mut engine = TransferEngine::with_link(link, None, 0);
                let base = bases[buf.0 as usize];
                let (from, to) = split_pair(&mut gmems, *src as usize, *dst as usize);
                let t = Instant::now();
                engine.peer(from, base + src_off, to, base + dst_off, *words);
                d.peer_ms += ms(t);
                d.xfer_words += words;
            }
            HostStep::SyncStream { .. } | HostStep::SyncDevice { .. } => {}
            HostStep::Launch(kernel) if item.single => {
                launch_common(env, kernel, &bases, &gmems[0], d);
                let t = Instant::now();
                let stats = devices[0]
                    .run_kernel(kernel, &mut gmems[0], ExecMode::Sequential, false)
                    .map_err(|e| e.to_string())?;
                d.kernel_ms += ms(t);
                d.kernel_instr += stats.instructions;
            }
            HostStep::Launch(kernel) => {
                let whole = [Shard { device: 0, start: 0, end: kernel.blocks() }];
                launch_common(env, kernel, &bases, &gmems[0], d);
                run_shards(kernel, &whole, devices, &mut gmems, d)?;
            }
            HostStep::LaunchSharded { kernel, shards } => {
                launch_common(env, kernel, &bases, &gmems[0], d);
                run_shards(kernel, shards, devices, &mut gmems, d)?;
            }
        }
    }
    if !outputs_match(&item.built, &item.expected, |h| &host_bufs[h.0 as usize]) {
        return Err("replayed output differs from host reference".into());
    }
    Ok(())
}

/// Per-launch probes shared by every launch kind: lowering cost, and
/// cold/warm launch cost for small grids.
fn launch_common(
    env: &Env,
    kernel: &Kernel,
    bases: &[u64],
    gmem: &GlobalMemory,
    d: &mut Decomposition,
) {
    d.kernels += 1;
    let nregs = kernel.max_reg().map_or(1, |r| u32::from(r) + 1);
    let t = Instant::now();
    std::hint::black_box(CompiledKernel::compile(kernel, bases, env.machine.b as u32, nregs));
    d.compile_us.push(ms(t) * 1e3);
    if kernel.blocks() <= SMALL_LAUNCH_BLOCKS {
        probe_launch(env, kernel, gmem, d);
    }
}

fn run_shards(
    kernel: &Kernel,
    shards: &[Shard],
    devices: &[Device],
    gmems: &mut [GlobalMemory],
    d: &mut Decomposition,
) -> Result<(), String> {
    let mut logs: Vec<Vec<WriteRec>> = vec![Vec::new(); gmems.len()];
    for s in shards {
        let dev = s.device as usize;
        let t = Instant::now();
        devices[dev]
            .run_shard(
                kernel,
                &gmems[dev],
                ExecMode::Sequential,
                atgpu_sim::EngineSel::MicroOp,
                (s.start, s.end),
                &mut logs[dev],
            )
            .map_err(|e| e.to_string())?;
        d.shard_ms += ms(t);
    }
    for (gmem, log) in gmems.iter_mut().zip(logs) {
        let t = Instant::now();
        apply_write_log(kernel, gmem, log, false).map_err(|e| e.to_string())?;
        d.write_log_ms += ms(t);
    }
    Ok(())
}

/// Replays of each program; the median of each part is kept, as the run
/// the parts are compared with is a median too.
const REPLAYS: usize = 3;

impl Decomposition {
    /// Adds one program's replays: the median of every timed part, the
    /// counts of the first replay, and all per-launch samples.
    fn add_program(&mut self, reps: Vec<Decomposition>) {
        let med =
            |part: fn(&Decomposition) -> f64| median(&reps.iter().map(part).collect::<Vec<_>>());
        self.kernel_ms += med(|r| r.kernel_ms);
        self.shard_ms += med(|r| r.shard_ms);
        self.write_log_ms += med(|r| r.write_log_ms);
        self.xfer_in_ms += med(|r| r.xfer_in_ms);
        self.xfer_out_ms += med(|r| r.xfer_out_ms);
        self.peer_ms += med(|r| r.peer_ms);
        let first = &reps[0];
        self.kernel_instr += first.kernel_instr;
        self.xfer_words += first.xfer_words;
        self.host_steps += first.host_steps;
        self.kernels += first.kernels;
        for r in reps {
            self.compile_us.extend(r.compile_us);
            self.launch_cold_us.extend(r.launch_cold_us);
            self.launch_warm_us.extend(r.launch_warm_us);
        }
    }
}

/// Replays every fault-free roster program [`REPLAYS`] times, on devices
/// as cold or warm as the run it is compared with: `run_program` and
/// `run_cluster_program` build fresh devices per run (`warm = false`); a
/// server's devices already hold every kernel (`warm = true`: an
/// unrecorded first replay fills the kernel caches).
pub fn decompose(env: &Env, items: &[Item], warm: bool) -> Decomposition {
    let mut d = Decomposition::default();
    for item in items.iter().filter(|i| i.sim.fault.is_empty()) {
        let one = || -> Result<Decomposition, String> {
            let devices = item
                .cluster
                .devices
                .iter()
                .map(|s| Device::new(env.machine, *s))
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| e.to_string())?;
            let mut rep = Decomposition::default();
            if warm {
                replay(env, item, &devices, &mut Decomposition::default())?;
            }
            replay(env, item, &devices, &mut rep)?;
            Ok(rep)
        };
        match (0..REPLAYS).map(|_| one()).collect::<Result<Vec<_>, _>>() {
            Ok(reps) => d.add_program(reps),
            Err(e) => d.failures.push(format!("{}: {e}", item.name)),
        }
    }
    d
}

/// Medians of calls that sit off the measured path on most workloads.
#[derive(Debug, Default, Clone, Copy)]
pub struct CallCosts {
    /// `Kernel::cache_key`, microseconds.
    pub cache_key_us: f64,
    /// `atgpu_serve::program_key`, microseconds.
    pub program_key_us: f64,
    /// Uncontended `AdmissionQueue::admit` plus permit drop, microseconds.
    pub admit_us: f64,
    /// `planned_shards` on the link-asymmetric 2-device profile, ms.
    pub plan_ms: f64,
    /// `solve_chunk_units` over eight candidates, microseconds.
    pub chunk_solve_us: f64,
}

/// Times the off-path calls over the roster's programs.
pub fn call_costs(env: &Env, programs: &[&Program]) -> CallCosts {
    let us = |t: Instant| t.elapsed().as_secs_f64() * 1e6;
    let mut cache_key = Vec::new();
    let mut prog_key = Vec::new();
    for p in programs {
        let t = Instant::now();
        std::hint::black_box(program_key(p));
        prog_key.push(us(t));
        for step in p.rounds.iter().flat_map(|r| &r.steps) {
            if let HostStep::Launch(k) | HostStep::LaunchSharded { kernel: k, .. } = step {
                let t = Instant::now();
                std::hint::black_box(k.cache_key());
                cache_key.push(us(t));
            }
        }
    }
    let queue = AdmissionQueue::new(64, 64);
    let admit: Vec<f64> = (0..1000)
        .map(|_| {
            let t = Instant::now();
            drop(std::hint::black_box(queue.admit("probe", 8)));
            us(t)
        })
        .collect();
    let asym = crate::rosters::asym2(env);
    let profile = ShardProfile::streaming(env.machine.b);
    let units = 1 << 14;
    let plan: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(planned_shards(units, &asym, &env.machine, &profile));
            us(t) / 1e3
        })
        .collect();
    let candidates: Vec<u64> = (0..8).map(|i| 64 << i).collect();
    let chunk: Vec<f64> = (0..20)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(solve_chunk_units(
                &asym,
                &env.machine,
                &profile,
                &[units / 2, units / 2],
                &candidates,
            ));
            us(t)
        })
        .collect();
    CallCosts {
        cache_key_us: median(&cache_key),
        program_key_us: median(&prog_key),
        admit_us: median(&admit),
        plan_ms: median(&plan),
        chunk_solve_us: median(&chunk),
    }
}
