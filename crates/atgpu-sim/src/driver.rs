//! Runs whole multi-round programs: the simulated counterpart of the
//! paper's timed experiments.
//!
//! For each round the driver performs the inward `W` transfers, launches
//! the kernel on the device, performs the outward `W` transfers and
//! charges the synchronisation overhead — producing exactly the
//! decomposition the paper measures: **Total** running time vs **Kernel**
//! running time, with the transfer share `ΔE` in between.  The rounds
//! themselves run through the one run body ([`crate::cluster`], over the
//! step interpreter in `links.rs`): a lone device is the one-device
//! cluster, literally.  This module holds the configuration, the host
//! buffers, and the single-device view of a report — [`run_program`]
//! builds that cluster and converts.
//!
//! ## Streams
//!
//! Functional execution always follows host-step order; **streams affect
//! timing only**.  Every transfer/launch duration is scheduled through a
//! per-round [`atgpu_model::StreamTimeline`]: ops on one stream are serial, ops on
//! different streams overlap unless they share a hardware resource (one
//! DMA engine per direction, one compute engine), and
//! `SyncStream`/`SyncDevice` raise the floor.  A round's observed time is
//! the timeline's finish — the max over per-stream chains — plus `σ`.
//! Programs that keep everything on stream 0 time out exactly as before.

use crate::cluster::{run_cluster_program_on, Cluster, ClusterRoundObservation, ClusterSimReport};
use crate::device::KernelStats;
use crate::error::SimError;
use crate::fault::FaultPlan;
use crate::gmem::{self, Tagged, TaggedMut};
use crate::xfer::XferNoise;
use atgpu_ir::{HBuf, HostBufRole, Program};
use atgpu_model::{AtgpuMachine, ClusterSpec, GpuSpec};
use std::mem;

/// Simulation configuration.  Every field is **per-run**: it travels
/// with the call that names it and is read by nothing else — a
/// [`crate::Device`] or [`Cluster`] holds no settings.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Transfer-time jitter (None = deterministic); an amplitude
    /// outside a finite `0 ≤ ε < 1` is [`SimError::InvalidNoise`].
    pub noise: Option<XferNoise>,
    /// RNG seed for the jitter.
    pub seed: u64,
    /// Simulate a sharded launch's devices on scoped OS threads — the
    /// only host fan-out there is; a device itself never spawns.  Whole
    /// devices are dealt to at most one worker per host core
    /// ([`crate::cluster::host_parallelism`]) and never more workers than
    /// devices holding shards, each running its devices' shards in plan
    /// order (so a launch whose shards sit on one device, or a one-core
    /// host, runs on the caller's thread): no program or spec can make a
    /// launch start more threads than the host has cores.  Results and reported times are bit-identical
    /// either way — a worker writes through to the replicas of its own
    /// devices, which it alone holds for the launch; where a write log
    /// exists (a fault plan on several devices) shards only read their
    /// replica and the logs merge in block order; statistics are booked
    /// and a failure reported in plan order — so this only changes host
    /// wall-clock.  Defaults to on when the host has more than one CPU.
    pub device_threads: bool,
    /// Scheduled fault events ([`crate::fault`]).  The default empty
    /// plan is free: no injection hooks run, and the simulation is
    /// bit-identical (memory, stats, timing) to one without fault
    /// support at all.  A straggler or degraded-link factor that is not
    /// finite and positive is [`SimError::InvalidFaultPlan`].
    pub fault: FaultPlan,
    /// Watchdog budget in simulated device cycles per kernel launch of
    /// this run; a launch whose event clock passes the budget fails with
    /// [`SimError::Watchdog`].  `0` (the default) disables the watchdog.
    pub watchdog_cycles: u64,
    /// Record per-operation timeline spans ([`crate::trace`]).  Off (the
    /// default), no tracer exists and every hook is a single null test —
    /// the same gating idiom as the empty fault plan — and the reported
    /// rounds are bit-identical either way: tracing observes the
    /// scheduler's results, it never feeds back into them.  Spans land in
    /// a pool of [`crate::trace::DEFAULT_TRACE_CAPACITY`]; past it the
    /// oldest are evicted (and counted).
    pub trace: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            noise: None,
            seed: 0,
            device_threads: crate::cluster::host_parallelism() > 1,
            fault: FaultPlan::default(),
            watchdog_cycles: 0,
            trace: false,
        }
    }
}

/// Host-side buffers for a program run, each with the provenance tag of
/// every [`gmem::CHUNK_WORDS`]-word chunk (see [`crate::gmem`]): an input's
/// chunks are tagged as themselves, an output's as zeros.  In a run, an
/// output of at most the machine's `G` words comes from the spare list
/// and goes back to it when the data is dropped (see "Spare pages" in
/// [`crate::gmem`]); every other buffer goes back to the allocator.
#[derive(Debug)]
pub struct HostData {
    pub(crate) bufs: Vec<Vec<i64>>,
    tags: Vec<Vec<u64>>,
    /// Which buffers came from the spare list and go back to it.
    spare: Vec<bool>,
}

impl HostData {
    /// Builds host data for `program`, checking roles and sizes: one
    /// entry per declared host buffer, inputs supplied by the caller
    /// (in declaration order), outputs zero-filled.
    pub fn new(program: &Program, inputs: Vec<Vec<i64>>) -> Result<Self, SimError> {
        Self::with_spares(program, inputs, 0)
    }

    /// As [`HostData::new`], with every output of at most `keep` words
    /// taken from the spare list and given back when the data is dropped.
    /// A run passes its machine's `G`, which bounds every replica too.
    pub(crate) fn with_spares(
        program: &Program,
        inputs: Vec<Vec<i64>>,
        keep: u64,
    ) -> Result<Self, SimError> {
        let decls = &program.host_bufs;
        let mut host = Self {
            bufs: Vec::with_capacity(decls.len()),
            tags: Vec::with_capacity(decls.len()),
            spare: decls
                .iter()
                .map(|d| matches!(d.role, HostBufRole::Output) && d.words <= keep)
                .collect(),
        };
        let mut supplied = inputs.into_iter();
        for (h, decl) in decls.iter().enumerate() {
            let (words, tags) = match decl.role {
                HostBufRole::Input => {
                    let data = supplied.next().ok_or_else(|| SimError::HostDataMismatch {
                        reason: format!("missing input for host buffer `{}`", decl.name),
                    })?;
                    if data.len() as u64 != decl.words {
                        return Err(SimError::HostDataMismatch {
                            reason: format!(
                                "host buffer `{}` declared {} words, got {}",
                                decl.name,
                                decl.words,
                                data.len()
                            ),
                        });
                    }
                    let tags = (0..gmem::chunks(data.len())).map(|c| gmem::input_tag(h, c));
                    (data, tags.collect())
                }
                HostBufRole::Output => gmem::zeroed(decl.words, keep)?,
            };
            host.bufs.push(words);
            host.tags.push(tags);
        }
        if supplied.next().is_some() {
            return Err(SimError::HostDataMismatch {
                reason: "more inputs supplied than declared input buffers".into(),
            });
        }
        Ok(host)
    }

    /// A buffer's contents.
    pub fn buf(&self, id: atgpu_ir::HBuf) -> &[i64] {
        &self.bufs[id.0 as usize]
    }

    /// Buffer `id` as a copy source.
    pub(crate) fn tagged(&self, id: HBuf) -> Tagged<'_> {
        let h = id.0 as usize;
        Tagged::new(&self.bufs[h], &self.tags[h])
    }

    /// Buffer `id` as a copy destination.
    pub(crate) fn tagged_mut(&mut self, id: HBuf) -> TaggedMut<'_> {
        let h = id.0 as usize;
        TaggedMut::new(&mut self.bufs[h], &mut self.tags[h])
    }

    /// Whether buffer `id` holds `words` words at offset `off` — true of
    /// every transfer of a checked program.
    pub(crate) fn holds(&self, id: HBuf, off: u64, words: u64) -> bool {
        let len = self.bufs.get(id.0 as usize).map(|b| b.len() as u64);
        matches!((len, off.checked_add(words)), (Some(len), Some(end)) if end <= len)
    }
}

impl Clone for HostData {
    /// A copy whose buffers all go back to the allocator: none of them
    /// came from the spare list, so none may join it.
    fn clone(&self) -> Self {
        let spare = vec![false; self.bufs.len()];
        Self { bufs: self.bufs.clone(), tags: self.tags.clone(), spare }
    }
}

impl Drop for HostData {
    /// Hands the outputs' pages to the spare list.
    fn drop(&mut self) {
        for ((words, tags), _) in
            self.bufs.iter_mut().zip(&mut self.tags).zip(&self.spare).filter(|(_, &s)| s)
        {
            gmem::give_back(mem::take(words), mem::take(tags));
        }
    }
}

/// Observed times for one round, in milliseconds (the simulated analogue
/// of one timed iteration on the paper's testbed).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RoundObservation {
    /// Inward transfer time (serial component sum over all streams).
    pub xfer_in_ms: f64,
    /// Kernel execution time.
    pub kernel_ms: f64,
    /// Outward transfer time (serial component sum over all streams).
    pub xfer_out_ms: f64,
    /// Synchronisation overhead.
    pub sync_ms: f64,
    /// Stream-aware critical path through the round's transfers and
    /// kernel: the max over per-stream chains between sync points.
    /// Equals the component sum when everything runs on stream 0.
    pub stream_ms: f64,
    /// Kernel statistics (cycles, transactions, conflicts, …).
    pub kernel_stats: KernelStats,
    /// Transfer attempts this round that were dropped and re-run
    /// ([`crate::fault`]); 0 without an active fault plan.
    pub retries: u64,
    /// Exponential-backoff wait time accumulated this round, already
    /// included in the transfer times and the stream critical path.
    pub backoff_ms: f64,
}

impl RoundObservation {
    /// Total round time: the stream-aware critical path plus `σ`.
    pub fn total_ms(&self) -> f64 {
        self.stream_ms + self.sync_ms
    }

    /// The round's serial (no-overlap) time — what it would cost with
    /// every step on stream 0.
    pub fn serial_ms(&self) -> f64 {
        self.xfer_in_ms + self.kernel_ms + self.xfer_out_ms + self.sync_ms
    }
}

/// The result of simulating a program.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Per-round observations.
    pub rounds: Vec<RoundObservation>,
    /// Final host buffers (outputs filled in).
    pub host: HostData,
    /// Device-level counters after the run (kernel-cache hits/misses) —
    /// observability only, never part of round observations.
    pub device_stats: crate::device::DeviceStats,
    /// The run's timeline record when [`SimConfig::trace`] was on
    /// (`None` otherwise); export with [`crate::trace::chrome_trace_json`].
    pub trace: Option<crate::trace::Trace>,
}

impl SimReport {
    /// Total running time — the paper's "Total" series.
    pub fn total_ms(&self) -> f64 {
        self.rounds.iter().map(RoundObservation::total_ms).sum()
    }

    /// Kernel-only time — the paper's "Kernel" series.
    pub fn kernel_ms(&self) -> f64 {
        self.rounds.iter().map(|r| r.kernel_ms).sum()
    }

    /// Transfer time, both directions.
    pub fn transfer_ms(&self) -> f64 {
        self.rounds.iter().map(|r| r.xfer_in_ms + r.xfer_out_ms).sum()
    }

    /// Synchronisation time.
    pub fn sync_ms(&self) -> f64 {
        self.rounds.iter().map(|r| r.sync_ms).sum()
    }

    /// The serial (no-overlap) total — the same program's cost with every
    /// step on stream 0.  `serial_ms() / total_ms()` is the program's
    /// observed overlap speedup.
    pub fn serial_ms(&self) -> f64 {
        self.rounds.iter().map(RoundObservation::serial_ms).sum()
    }

    /// Observed proportion of time spent in transfer — the `ΔE` series of
    /// the paper's Figure 6.
    pub fn transfer_proportion(&self) -> f64 {
        let t = self.total_ms();
        if t <= 0.0 {
            0.0
        } else {
            self.transfer_ms() / t
        }
    }

    /// An output buffer's final contents.
    pub fn output(&self, id: atgpu_ir::HBuf) -> &[i64] {
        self.host.buf(id)
    }
}

impl SimReport {
    /// A one-device cluster's report, seen as the lone device's: every
    /// round is device 0's observation plus the round's `σ`.
    fn from_cluster(report: ClusterSimReport) -> Self {
        let ClusterSimReport { rounds, host, device_stats, trace } = report;
        let view = |round: &ClusterRoundObservation| {
            let obs = &round.devices[0];
            RoundObservation {
                xfer_in_ms: obs.xfer_in_ms,
                kernel_ms: obs.kernel_ms,
                xfer_out_ms: obs.xfer_out_ms,
                sync_ms: round.sync_ms,
                stream_ms: obs.stream_ms,
                kernel_stats: obs.kernel_stats,
                retries: obs.retries,
                backoff_ms: obs.backoff_ms,
            }
        };
        let rounds = rounds.iter().map(view).collect();
        Self { rounds, host, device_stats: device_stats[0], trace }
    }
}

/// Simulates `program` on a device built from `machine` + `spec`: the
/// cluster of that one device ([`ClusterSpec::homogeneous`]), run by the
/// run body every program run shares and reported from the device's
/// point of view.  A plain launch is the whole grid, a shard plan naming
/// only device 0 runs its shards back to back as on any cluster device,
/// and the device has no survivors: a scheduled death of device 0 is
/// immediately [`SimError::DeviceLost`].  Its host link's jitter is the
/// cluster's host link 0's, seeded by the one rule every run shares.
pub fn run_program(
    program: &Program,
    inputs: Vec<Vec<i64>>,
    machine: &AtgpuMachine,
    spec: &GpuSpec,
    config: &SimConfig,
) -> Result<SimReport, SimError> {
    let cluster = Cluster::new(*machine, ClusterSpec::homogeneous(1, *spec))?;
    run_cluster_program_on(&cluster, program, inputs, config).map(SimReport::from_cluster)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use crate::fault::FaultEvent;
    use atgpu_ir::{AddrExpr, AluOp, KernelBuilder, Operand, ProgramBuilder};

    fn machine() -> AtgpuMachine {
        AtgpuMachine::new(1 << 12, 4, 64, 1 << 16).unwrap()
    }

    fn spec() -> GpuSpec {
        GpuSpec {
            k_prime: 2,
            h_limit: 4,
            clock_cycles_per_ms: 1000.0,
            xfer_alpha_ms: 0.1,
            xfer_beta_ms_per_word: 0.001,
            sync_ms: 0.05,
            ..GpuSpec::gtx650_like()
        }
    }

    /// c = a + b, n words, b = 4.
    fn vecadd_program(n: u64) -> (Program, atgpu_ir::HBuf) {
        let b = 4i64;
        let mut pb = ProgramBuilder::new("vecadd");
        let ha = pb.host_input("A", n);
        let hb = pb.host_input("B", n);
        let hc = pb.host_output("C", n);
        let da = pb.device_alloc("a", n);
        let db = pb.device_alloc("b", n);
        let dc = pb.device_alloc("c", n);
        let mut kb = KernelBuilder::new("vecadd_kernel", n / 4, 12);
        let g = AddrExpr::block() * b + AddrExpr::lane();
        kb.glb_to_shr(AddrExpr::lane(), da, g.clone());
        kb.glb_to_shr(AddrExpr::lane() + b, db, g.clone());
        kb.ld_shr(0, AddrExpr::lane());
        kb.ld_shr(1, AddrExpr::lane() + b);
        kb.alu(AluOp::Add, 2, Operand::Reg(0), Operand::Reg(1));
        kb.st_shr(AddrExpr::lane() + 2 * b, Operand::Reg(2));
        kb.shr_to_glb(dc, g, AddrExpr::lane() + 2 * b);
        pb.begin_round();
        pb.transfer_in(ha, da, n);
        pb.transfer_in(hb, db, n);
        pb.launch(kb.build());
        pb.transfer_out(dc, hc, n);
        (pb.build().unwrap(), hc)
    }

    #[test]
    fn vecadd_end_to_end() {
        let n = 64u64;
        let (p, hc) = vecadd_program(n);
        let a: Vec<i64> = (0..n as i64).collect();
        let b: Vec<i64> = (0..n as i64).map(|x| 10 * x).collect();
        let report =
            run_program(&p, vec![a.clone(), b.clone()], &machine(), &spec(), &SimConfig::default())
                .unwrap();
        let c = report.output(hc);
        for i in 0..n as usize {
            assert_eq!(c[i], a[i] + b[i]);
        }
        // Time decomposition is sane.
        assert!(report.total_ms() > 0.0);
        assert!(report.kernel_ms() > 0.0);
        assert!(report.transfer_ms() > 0.0);
        let sum = report.kernel_ms() + report.transfer_ms() + report.sync_ms();
        assert!((report.total_ms() - sum).abs() < 1e-9);
        // Transfer proportion within [0, 1].
        let d = report.transfer_proportion();
        assert!((0.0..=1.0).contains(&d));
    }

    /// `run_program` is the one-device cluster seen from its device: one
    /// fixed case of the retired cross-driver property, as the test of
    /// the [`SimReport`] view.  Traced, under a plan that drops, degrades
    /// and straggles, with and without 2 % transfer jitter, every field of
    /// the report — outputs, each round's times and counters,
    /// `device_stats`, the span sequence — is the cluster report's.
    #[test]
    fn sim_report_is_the_one_device_cluster_seen_from_its_device() {
        let n = 64u64;
        let (p, hc) = vecadd_program(n);
        let fault = FaultPlan::random(4, 1, p.rounds.len(), 0.3);
        let has = |kind: fn(&FaultEvent) -> bool| fault.events.iter().any(kind);
        assert!(has(|e| matches!(e, FaultEvent::TransferDrop { .. })));
        assert!(has(|e| matches!(e, FaultEvent::LinkDegraded { .. })));
        assert!(has(|e| matches!(e, FaultEvent::Straggler { .. })));
        let data = || vec![(0..n as i64).collect(), (0..n as i64).rev().collect()];
        let cluster = ClusterSpec::homogeneous(1, spec());
        for noise in [None, Some(XferNoise { rel: 0.02 })] {
            let cfg =
                SimConfig { trace: true, fault: fault.clone(), noise, ..SimConfig::default() };
            let one = run_program(&p, data(), &machine(), &spec(), &cfg).unwrap();
            let clu = crate::run_cluster_program(&p, data(), &machine(), &cluster, &cfg).unwrap();

            assert_eq!(one.output(hc), vec![n as i64 - 1; n as usize]);
            assert_eq!(one.host.bufs, clu.host.bufs);
            assert_eq!(one.rounds.len(), clu.rounds.len());
            for (a, round) in one.rounds.iter().zip(&clu.rounds) {
                let [b] = &round.devices[..] else { panic!("one device per round") };
                assert_eq!(a.xfer_in_ms.to_bits(), b.xfer_in_ms.to_bits(), "{noise:?}");
                assert_eq!(a.kernel_ms.to_bits(), b.kernel_ms.to_bits());
                assert_eq!(a.xfer_out_ms.to_bits(), b.xfer_out_ms.to_bits(), "{noise:?}");
                assert_eq!(a.sync_ms.to_bits(), round.sync_ms.to_bits());
                assert_eq!(a.stream_ms.to_bits(), b.stream_ms.to_bits(), "{noise:?}");
                assert_eq!(a.kernel_stats, b.kernel_stats);
                assert_eq!(a.retries, b.retries);
                assert_eq!(a.backoff_ms.to_bits(), b.backoff_ms.to_bits());
                assert_eq!(b.peer_ms, 0.0);
                assert!(a.retries > 0 && a.backoff_ms > 0.0, "the drops must have been retried");
            }
            assert_eq!(one.total_ms().to_bits(), clu.total_ms().to_bits(), "{noise:?}");
            assert_eq!(one.device_stats, clu.device_stats[0]);
            assert_eq!(one.trace, clu.trace, "{noise:?}");
            assert!(one.trace.as_ref().is_some_and(|t| !t.spans.is_empty()));
        }
    }

    /// Regression: `run_program` never validated its spec, so in release
    /// builds `k_prime: 0` returned `Ok` with zero blocks run and an
    /// all-zero output buffer.  Through the one run body an invalid spec
    /// is the invalid one-device cluster.
    #[test]
    fn invalid_spec_is_rejected_not_simulated() {
        let (p, _) = vecadd_program(16);
        let bad = [
            GpuSpec { k_prime: 0, ..spec() },
            GpuSpec { clock_cycles_per_ms: 0.0, ..spec() },
            GpuSpec { clock_cycles_per_ms: -1.0, ..spec() },
            GpuSpec { xfer_beta_ms_per_word: -0.001, ..spec() },
        ];
        for spec in bad {
            let inputs = vec![vec![0; 16], vec![0; 16]];
            let r = run_program(&p, inputs, &machine(), &spec, &SimConfig::default());
            assert!(matches!(r, Err(SimError::InvalidCluster { .. })), "{spec:?}: {r:?}");
        }
    }

    #[test]
    fn transfer_costs_match_affine_model() {
        let n = 64u64;
        let (p, _) = vecadd_program(n);
        let report = run_program(
            &p,
            vec![vec![0; n as usize], vec![0; n as usize]],
            &machine(),
            &spec(),
            &SimConfig::default(),
        )
        .unwrap();
        let expect_in = 2.0 * (0.1 + 0.001 * n as f64);
        let expect_out = 0.1 + 0.001 * n as f64;
        let r = &report.rounds[0];
        assert!((r.xfer_in_ms - expect_in).abs() < 1e-9);
        assert!((r.xfer_out_ms - expect_out).abs() < 1e-9);
        assert_eq!(r.sync_ms, 0.05);
    }

    #[test]
    fn missing_input_rejected() {
        let (p, _) = vecadd_program(16);
        assert!(matches!(
            run_program(&p, vec![vec![0; 16]], &machine(), &spec(), &SimConfig::default()),
            Err(SimError::HostDataMismatch { .. })
        ));
    }

    #[test]
    fn wrong_sized_input_rejected() {
        let (p, _) = vecadd_program(16);
        assert!(run_program(
            &p,
            vec![vec![0; 15], vec![0; 16]],
            &machine(),
            &spec(),
            &SimConfig::default()
        )
        .is_err());
    }

    #[test]
    fn extra_input_rejected() {
        let (p, _) = vecadd_program(16);
        assert!(run_program(
            &p,
            vec![vec![0; 16], vec![0; 16], vec![0; 16]],
            &machine(),
            &spec(),
            &SimConfig::default()
        )
        .is_err());
    }

    #[test]
    fn oom_program_rejected() {
        let small = AtgpuMachine::new(1 << 12, 4, 64, 100).unwrap();
        let (p, _) = vecadd_program(64); // needs 192 words > 100
        assert!(matches!(
            run_program(&p, vec![vec![0; 64], vec![0; 64]], &small, &spec(), &SimConfig::default()),
            Err(SimError::OutOfGlobalMemory { .. })
        ));
    }

    /// Regression: a host output is zero-filled at the size the program
    /// declares, which validation does not bound.  2⁵⁰ words aborted the
    /// process ("memory allocation … failed") and `u64::MAX` words
    /// panicked (capacity overflow); a replica under a `G` that large
    /// went the same way.  Each is `SimError::OutOfHostMemory` now.
    #[test]
    fn a_buffer_the_host_cannot_hold_is_a_typed_error() {
        for words in [1u64 << 50, u64::MAX] {
            let mut pb = ProgramBuilder::new("declared");
            let (h, o) = (pb.host_input("A", 8), pb.host_output("B", words));
            let d = pb.device_alloc("a", 8);
            pb.begin_round();
            pb.transfer_in(h, d, 8);
            pb.transfer_out(d, o, 8);
            let p = pb.build().unwrap();
            let r = run_program(&p, vec![vec![1; 8]], &machine(), &spec(), &SimConfig::default());
            assert_eq!(r.unwrap_err(), SimError::OutOfHostMemory { words });
        }
        let huge = AtgpuMachine::new(1 << 12, 4, 64, 1 << 52).unwrap();
        let mut pb = ProgramBuilder::new("replica");
        let (h, d) = (pb.host_input("A", 8), pb.device_alloc("a", 1 << 50));
        pb.begin_round();
        pb.transfer_in(h, d, 8);
        let r = run_program(
            &pb.build().unwrap(),
            vec![vec![1; 8]],
            &huge,
            &spec(),
            &SimConfig::default(),
        );
        assert_eq!(r.unwrap_err(), SimError::OutOfHostMemory { words: 1 << 50 });
    }

    /// In a run only outputs of at most the machine's `G` words take part
    /// in the spare list; inputs, a clone's buffers and every buffer of
    /// standalone host data go back to the allocator.
    #[test]
    fn only_outputs_within_g_join_the_spare_list() {
        let mut pb = ProgramBuilder::new("outputs");
        let h = pb.host_input("A", 8);
        let (small, large) = (pb.host_output("S", 1 << 10), pb.host_output("L", 1 << 20));
        let d = pb.device_alloc("a", 8);
        pb.begin_round();
        pb.transfer_in(h, d, 8);
        pb.transfer_out(d, small, 8);
        pb.transfer_out(d, large, 8);
        let p = pb.build().unwrap();
        let host = HostData::with_spares(&p, vec![vec![1; 8]], 1 << 16).unwrap();
        assert_eq!(host.spare, [false, true, false]);
        assert_eq!(host.clone().spare, [false; 3]);
        assert_eq!(HostData::new(&p, vec![vec![1; 8]]).unwrap().spare, [false; 3]);
    }

    #[test]
    fn multi_round_accumulates() {
        // Round 1: in-transfer only; round 2: out-transfer only.
        let mut pb = ProgramBuilder::new("two");
        let h = pb.host_input("A", 8);
        let o = pb.host_output("B", 8);
        let d = pb.device_alloc("a", 8);
        pb.begin_round();
        pb.transfer_in(h, d, 8);
        pb.begin_round();
        pb.transfer_out(d, o, 8);
        let p = pb.build().unwrap();
        let report =
            run_program(&p, vec![(1..=8).collect()], &machine(), &spec(), &SimConfig::default())
                .unwrap();
        assert_eq!(report.rounds.len(), 2);
        assert_eq!(report.sync_ms(), 0.1);
        assert_eq!(report.output(o), &[1, 2, 3, 4, 5, 6, 7, 8]);
    }

    /// A hand-constructed program (bypassing `ProgramBuilder::build`)
    /// with an out-of-range stream id is rejected with the validator's
    /// error, not silently clamp-aliased onto the timeline's last slot.
    #[test]
    fn hand_constructed_out_of_range_stream_rejected() {
        let (mut p, _) = vecadd_program(16);
        for round in &mut p.edit().rounds {
            for step in &mut round.steps {
                if let atgpu_ir::HostStep::TransferIn { stream, .. } = step {
                    *stream = atgpu_ir::MAX_STREAMS + 1;
                }
            }
        }
        let error = p.check().unwrap_err();
        assert_eq!(
            error.to_string(),
            format!(
                "round 0: stream {} out of range (max {})",
                atgpu_ir::MAX_STREAMS + 1,
                atgpu_ir::MAX_STREAMS - 1
            )
        );
        assert_eq!(
            run_program(
                &p,
                vec![vec![0; 16], vec![0; 16]],
                &machine(),
                &spec(),
                &SimConfig::default()
            )
            .unwrap_err(),
            SimError::Invalid { error }
        );
    }

    /// Regression: the amplitude went straight into the jitter's range,
    /// so `ε = 50` gave negative transfer times, `ε = ∞` `NaN` ones
    /// (which `total_ms` then dropped) and `ε = NaN` silently meant no
    /// noise.  Both entry points refuse all of them.
    #[test]
    fn noise_outside_a_finite_unit_interval_is_refused() {
        let (p, _) = vecadd_program(16);
        let cluster = ClusterSpec::homogeneous(2, spec());
        let run = |rel: f64| {
            let cfg = SimConfig { noise: Some(XferNoise { rel }), ..SimConfig::default() };
            let data = || vec![vec![1; 16], vec![2; 16]];
            let one = run_program(&p, data(), &machine(), &spec(), &cfg);
            let two = crate::run_cluster_program(&p, data(), &machine(), &cluster, &cfg);
            (one, two.map(|r| r.total_ms()))
        };
        for rel in [50.0, 1.0, f64::INFINITY, f64::NAN, -0.1] {
            let (one, two) = run(rel);
            assert!(matches!(one, Err(SimError::InvalidNoise { .. })), "{rel}: {one:?}");
            assert!(matches!(two, Err(SimError::InvalidNoise { .. })), "{rel}: {two:?}");
        }
        for rel in [0.0, 0.5, 0.999] {
            let (one, two) = run(rel);
            let one = one.unwrap();
            assert!(one.rounds.iter().all(|r| r.xfer_in_ms > 0.0 && r.xfer_out_ms > 0.0), "{rel}");
            assert!(two.unwrap().is_finite(), "{rel}");
        }
    }

    /// Regression: fault-plan factors went unchecked into the timing, so
    /// a negative straggler factor booked a negative kernel time (and a
    /// trace span `validate_chrome_json` refuses), and `NaN` or `∞`
    /// poisoned the totals.  Both entry points refuse them before the
    /// run allocates anything; a factor `FaultPlan::random` draws runs.
    #[test]
    fn fault_factors_that_are_not_finite_and_positive_are_refused() {
        let (p, _) = vecadd_program(16);
        let cluster = ClusterSpec::homogeneous(2, spec());
        let run = |event: FaultEvent| {
            let mut fault = FaultPlan::new(0);
            fault.push(event);
            let cfg = SimConfig { fault, ..SimConfig::default() };
            let data = || vec![vec![1; 16], vec![2; 16]];
            let one = run_program(&p, data(), &machine(), &spec(), &cfg).map(|r| r.total_ms());
            let two = crate::run_cluster_program(&p, data(), &machine(), &cluster, &cfg);
            (one, two.map(|r| r.total_ms()))
        };
        let straggler = |clock_factor| FaultEvent::Straggler { device: 0, clock_factor };
        let degraded = |factor| FaultEvent::LinkDegraded {
            edge: crate::LinkEdge::Host(0),
            factor,
            from_round: 0,
            to_round: 1,
        };
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0, -1.0] {
            for event in [straggler(bad), degraded(bad)] {
                let (one, two) = run(event.clone());
                assert!(
                    matches!(one, Err(SimError::InvalidFaultPlan { .. })),
                    "{event:?}: {one:?}"
                );
                assert!(
                    matches!(two, Err(SimError::InvalidFaultPlan { .. })),
                    "{event:?}: {two:?}"
                );
            }
        }
        for good in [1.0, 2.5, 5.0] {
            for event in [straggler(good), degraded(good)] {
                let (one, two) = run(event.clone());
                assert!(one.unwrap() > 0.0 && two.unwrap() > 0.0, "{event:?}");
            }
        }
    }

    #[test]
    fn noisy_run_is_reproducible() {
        let n = 64u64;
        let (p, _) = vecadd_program(n);
        let cfg =
            SimConfig { noise: Some(XferNoise { rel: 0.05 }), seed: 7, ..SimConfig::default() };
        let inputs = || vec![vec![1i64; n as usize], vec![2i64; n as usize]];
        let r1 = run_program(&p, inputs(), &machine(), &spec(), &cfg).unwrap();
        let r2 = run_program(&p, inputs(), &machine(), &spec(), &cfg).unwrap();
        assert_eq!(r1.total_ms(), r2.total_ms());
        // And differs from the noiseless run.
        let r3 = run_program(&p, inputs(), &machine(), &spec(), &SimConfig::default()).unwrap();
        assert_ne!(r1.transfer_ms(), r3.transfer_ms());
    }
}
