//! The one host-step interpreter: [`run_rounds`] matches every
//! [`HostStep`] variant exactly once, and [`Links`] gives every step one
//! body.
//!
//! The paper's round has one shape — inward transfers, one launch,
//! outward transfers, `σ` — and one caller: the run body behind
//! [`crate::run_cluster_program_on`] (of which [`crate::run_program`] is
//! the one-device case), which passes in the launch.  [`Links`] owns
//! everything a step touches besides the memories:
//! the host and peer [`TransferEngine`]s, and a [`Ledger`] holding the
//! optional [`FaultState`] (liveness, write stamps, [`FaultRuntime`]), the
//! optional [`Tracer`], and the round's per-device timelines and
//! observations — the half a launch books into.  Inside a step body,
//! target redirection, the retry loop, journaling and span recording
//! are ordinary steps that degenerate to one null test each when there
//! is no fault state or no tracer: a fault-free untraced run never
//! journals, never builds a target list and never draws from the fault
//! runtime.
//!
//! A transfer step hands [`TransferEngine::transfer`] the tagged host
//! buffer or replica on each side, so the copy skips the chunks its
//! destination provably holds ([`crate::gmem`]) while the step is priced,
//! retried, journaled and traced for every word; the words actually
//! copied are booked per device ([`DeviceStats::copied_words`]: inward
//! and peer-in at the receiver, outward at the source).  The other
//! writes a step makes — the recovery replay of a dead device's words
//! and a peer copy folded onto one replica — go through
//! [`GlobalMemory::write`] and [`GlobalMemory::copy_within`], which mark
//! what they touch as changed.

use crate::cluster::{round_ms, DeviceRoundObservation};
use crate::device::{DeviceStats, KernelStats};
use crate::driver::HostData;
use crate::error::SimError;
use crate::fault::{FaultRuntime, LinkEdge};
use crate::gmem::{GlobalMemory, Tagged, TaggedMut};
use crate::trace::{SpanKind, Trace, Tracer, DEFAULT_TRACE_CAPACITY};
use crate::warp::WriteRec;
use crate::xfer::TransferEngine;
use crate::SimConfig;
use atgpu_ir::{DBuf, HostStep, Kernel, Program, Shard};
use atgpu_model::{LinkParams, StreamResource, StreamTimeline};
use std::ops::Range;

/// Disjoint `(&src, &mut dst)` borrows of two cluster memories.
fn two_mems(
    gmems: &mut [GlobalMemory],
    src: usize,
    dst: usize,
) -> (&GlobalMemory, &mut GlobalMemory) {
    debug_assert_ne!(src, dst);
    if src < dst {
        let (a, b) = gmems.split_at_mut(dst);
        (&a[src], &mut b[0])
    } else {
        let (a, b) = gmems.split_at_mut(src);
        (&b[0], &mut a[dst])
    }
}

/// Per-run fault bookkeeping: liveness, the per-word write stamps that
/// make every replica its own checkpoint, and the recovery counters.
/// Only constructed when the fault plan is non-empty — a faultless run
/// never journals and never branches here.
struct FaultState {
    rt: FaultRuntime,
    /// Liveness per device (deaths are permanent).
    alive: Vec<bool>,
    /// `stamps[d][a]`: the sequence number of the last journaled operation
    /// that wrote word `a` of device `d`'s replica; 0 = never written.  A
    /// dead device's replica is never written again, so the replica *is*
    /// the last-write map its stamps index — the checkpoint a dead device
    /// is recovered from (completed rounds are never re-executed), bounded
    /// by the memory size whatever the number of rounds.  Empty where
    /// nothing is journaled (see [`FaultState::journals`]).
    stamps: Vec<Vec<u64>>,
    /// The cluster-global operation counter: one tick per journaled
    /// upload, peer copy or launch merge per device.  Last-writer-wins
    /// only ever compares writes on *different* devices, and those are
    /// always different operations.
    seq: u64,
    /// Recoveries absorbed per device (one per death it survived).
    recoveries: Vec<u64>,
}

impl FaultState {
    /// State for `n` devices whose replicas hold `words` words each.
    fn new(rt: FaultRuntime, n: usize, words: u64) -> Self {
        let stamped = if n > 1 { words as usize } else { 0 };
        Self {
            rt,
            alive: vec![true; n],
            stamps: vec![vec![0; stamped]; n],
            seq: 0,
            recoveries: vec![0; n],
        }
    }

    /// Whether mutations are journaled at all: a lone device has no
    /// survivor that could ever replay its journal, so it keeps none.
    fn journals(&self) -> bool {
        self.alive.len() > 1
    }

    /// Opens one journaled operation on device `d`: its stamp, and the
    /// device's stamp row to store it in (`None` where nothing is
    /// journaled).
    fn journal_op(&mut self, d: usize) -> Option<(u64, &mut [u64])> {
        if !self.journals() {
            return None;
        }
        self.seq += 1;
        Some((self.seq, &mut self.stamps[d]))
    }

    /// Journals a contiguous write of `words` words at `addr` on device
    /// `d`.
    fn journal_words(&mut self, d: usize, addr: u64, words: usize) {
        if let Some((seq, stamps)) = self.journal_op(d) {
            stamps[addr as usize..][..words].fill(seq);
        }
    }

    /// The lowest-index survivor — the device redirected outputs and
    /// orphaned peer sources are served from.
    fn heir(&self) -> usize {
        self.alive.iter().position(|&a| a).unwrap_or(0)
    }
}

/// The façade every host step runs through (see the module docs): the
/// transfer engines, and the [`Ledger`] their transfers are booked in.
pub(crate) struct Links {
    host_xfer: Vec<TransferEngine>,
    /// `peer_xfer[src][dst]`; empty on a single-device system.
    peer_xfer: Vec<Vec<TransferEngine>>,
    ledger: Ledger,
}

/// Everything a step records into or consults besides the engines and
/// the memories — the part of [`Links`] a launch gets to see.
pub(crate) struct Ledger {
    /// Device clocks, for turning kernel cycles into milliseconds.
    clocks: Vec<f64>,
    /// `σ` — also the backoff unit of the retry loop.
    sync_ms: f64,
    fault: Option<FaultState>,
    tracer: Option<Tracer>,
    round: usize,
    devs: Vec<DeviceRoundObservation>,
    timelines: Vec<StreamTimeline>,
    /// Words each device's transfers physically copied
    /// ([`DeviceStats::copied_words`]).
    copied: Vec<u64>,
}

impl Ledger {
    /// Whether device `d` is alive (always, without a fault plan).
    pub(crate) fn alive(&self, d: usize) -> bool {
        self.fault.as_ref().is_none_or(|f| f.alive[d])
    }

    /// Per-device liveness, when a fault plan is active.
    pub(crate) fn liveness(&self) -> Option<&[bool]> {
        self.fault.as_ref().map(|f| &f.alive[..])
    }

    /// Whether a launch's writes will be read back by
    /// [`Ledger::journal_writes`]: under a fault plan, on a system with
    /// a possible survivor.  Only then can a shard be a takeover shard.
    pub(crate) fn journals(&self) -> bool {
        self.fault.as_ref().is_some_and(FaultState::journals)
    }

    /// The device that answers for `d`'s data: `d` itself, or the heir
    /// (the lowest-index survivor, which holds the recovered data) once
    /// `d` is dead.
    fn source(&self, d: usize) -> usize {
        match &self.fault {
            Some(f) if !f.alive[d] => f.heir(),
            _ => d,
        }
    }

    /// The devices a write aimed at `d` lands on: `d` itself, or every
    /// survivor once `d` is dead — any of them may later serve the data
    /// (takeover shards, redirected outputs, later recoveries).  Returned
    /// as a candidate range plus "filter by liveness", so no target list
    /// is ever allocated.
    fn targets(&self, d: usize) -> (Range<usize>, bool) {
        if self.alive(d) {
            (d..d + 1, false)
        } else {
            (0..self.devs.len(), true)
        }
    }

    /// Opens round `round`: fresh observations and timelines, then every
    /// death scheduled at its start.
    fn begin_round(
        &mut self,
        round: usize,
        gmems: &mut [GlobalMemory],
        host_xfer: &mut [TransferEngine],
    ) -> Result<(), SimError> {
        self.round = round;
        self.devs = vec![DeviceRoundObservation::default(); self.timelines.len()];
        self.timelines.fill(StreamTimeline::new());
        self.process_deaths(gmems, host_xfer)
    }

    /// Closes the round, yielding its per-device observations (and, when
    /// tracing, recording the round's start and faults in the trace).
    fn end_round(&mut self) -> Vec<DeviceRoundObservation> {
        for (obs, tl) in self.devs.iter_mut().zip(&self.timelines) {
            obs.stream_ms = tl.finish();
        }
        if let Some(tr) = self.tracer.as_mut() {
            tr.end_round(round_ms(self.sync_ms, &self.devs), &self.devs);
        }
        std::mem::take(&mut self.devs)
    }

    /// Runs one logical transfer on `edge`, billed to device `d`:
    /// `attempt` performs and prices the copy.  Under a fault plan it
    /// goes through the retry loop ([`FaultRuntime::transfer_segmented`]:
    /// drops, backoff, degradation), whose attempt and wait segments feed
    /// the tracer's segment buffer when one exists; without a plan it is
    /// `attempt()`.
    fn retried(&mut self, d: usize, edge: LinkEdge, mut attempt: impl FnMut() -> f64) -> f64 {
        let Some(f) = self.fault.as_mut() else { return attempt() };
        let (obs, tracer) = (&mut self.devs[d], &mut self.tracer);
        let on_seg = |start, end, backoff| {
            if let Some(tr) = tracer.as_mut() {
                tr.segs.push(start, end, backoff);
            }
        };
        let (retries, backoff_ms) = (&mut obs.retries, &mut obs.backoff_ms);
        f.rt.transfer_segmented(
            edge,
            self.round,
            self.sync_ms,
            retries,
            backoff_ms,
            attempt,
            on_seg,
        )
    }

    /// Schedules an operation of `ms` on device `d`'s timeline and, when
    /// tracing, records its span (`link` prices the prediction; `None`
    /// means "no prediction").
    #[allow(clippy::too_many_arguments)]
    fn place(
        &mut self,
        d: usize,
        stream: u32,
        resource: StreamResource,
        kind: SpanKind,
        words: u64,
        link: Option<LinkParams>,
        ms: f64,
    ) {
        let (t0, t1) = self.timelines[d].advance_spanned(stream, resource, ms);
        if let Some(tr) = self.tracer.as_mut() {
            let pred = link.map_or(-1.0, |l| l.cost_ms(1, words));
            tr.record(self.round, d as u32, resource, stream, kind, words, pred, t0, t1);
        }
    }

    /// `SyncStream` on `device` (a dead device has no timeline to hold).
    pub(crate) fn sync_stream(&mut self, device: u32, stream: u32) {
        if self.alive(device as usize) {
            self.timelines[device as usize].sync_stream(stream);
        }
    }

    /// `SyncDevice` on `device`.
    pub(crate) fn sync_device(&mut self, device: u32) {
        if self.alive(device as usize) {
            self.timelines[device as usize].sync_device();
        }
    }

    /// Books one finished kernel run of `blocks` blocks on device `d`:
    /// cycles become milliseconds on the device's clock (stretched when
    /// it is a straggler), the statistics fold into the round
    /// observation, and the run occupies the device's compute stream —
    /// runs on one device are back to back.
    pub(crate) fn kernel_done(&mut self, d: usize, blocks: u64, stats: &KernelStats) {
        let slow = self.fault.as_ref().map_or(1.0, |f| f.rt.clock_factor(d as u32));
        let ms = stats.cycles as f64 / self.clocks[d] * slow;
        let obs = &mut self.devs[d];
        obs.kernel_ms += ms;
        obs.kernel_stats.merge_serial(stats);
        self.place(d, 0, StreamResource::Compute, SpanKind::Kernel, blocks, None, ms);
    }

    /// Journals the merged write log a launch is about to apply on
    /// device `d`: one operation stamps every logged address (the values
    /// are the replica's once [`crate::device::apply_write_log`] has
    /// applied them in block order).
    pub(crate) fn journal_writes(&mut self, d: usize, log: &[WriteRec]) {
        if let Some((seq, stamps)) = self.fault.as_mut().and_then(|f| f.journal_op(d)) {
            for w in log {
                stamps[w.addr as usize] = seq;
            }
        }
    }

    /// Handles every death scheduled at the start of the round: marks
    /// the device dead, errors if nobody survives, and replays its
    /// replica onto each survivor — last-write-wins on the stamps, so a
    /// survivor keeps its own later writes and gains exactly the words
    /// where the dead device held the latest value.  Every survivor's
    /// memory is restored and its [`DeviceStats::recoveries`] counter
    /// bumped, but the one-time replay *transfer* is priced as a single
    /// inward transaction (`α + β·words`) on the **heir's** host link
    /// alone — the replay lands in exactly one device's round columns,
    /// never double-charged across survivors.
    fn process_deaths(
        &mut self,
        gmems: &mut [GlobalMemory],
        host_xfer: &mut [TransferEngine],
    ) -> Result<(), SimError> {
        let round = self.round;
        let n = self.devs.len();
        for d in 0..n {
            let Some(fs) = self.fault.as_mut() else { return Ok(()) };
            if !fs.alive[d] || fs.rt.down_at(d as u32) != Some(round) {
                continue;
            }
            fs.alive[d] = false;
            if !fs.alive.iter().any(|&a| a) {
                return Err(SimError::DeviceLost { device: d as u32, round });
            }
            let heir = fs.heir();
            let dead_stamps = std::mem::take(&mut fs.stamps[d]);
            let mut replayed = 0u64;
            for s in (0..n).filter(|&s| fs.alive[s]) {
                // The survivor now answers for the words it gains, so it
                // takes their stamps too: a later death of *this* device
                // replays them in turn.
                let (dead, own) = two_mems(gmems, d, s);
                let (dead, own_stamps) = (dead.words(), &mut fs.stamps[s]);
                let mut applied = 0u64;
                for (a, &dead_seq) in dead_stamps.iter().enumerate() {
                    if dead_seq > own_stamps[a] {
                        own.write(a as i64, dead[a]);
                        own_stamps[a] = dead_seq;
                        applied += 1;
                    }
                }
                if s == heir {
                    replayed = applied;
                }
                fs.recoveries[s] += 1;
            }
            let t = host_xfer[heir].replay_in(replayed);
            self.devs[heir].xfer_in_ms += t;
            let link = Some(host_xfer[heir].link());
            let (res, kind) = (StreamResource::HostToDevice, SpanKind::Replay);
            self.place(heir, 0, res, kind, replayed, link, t);
        }
        Ok(())
    }
}

impl Links {
    /// Links for a system of `host_xfer.len()` devices with replicas of
    /// `words` words; fault state and tracer exist only when `config`
    /// asks for them.
    pub(crate) fn new(
        host_xfer: Vec<TransferEngine>,
        peer_xfer: Vec<Vec<TransferEngine>>,
        clocks: Vec<f64>,
        sync_ms: f64,
        words: u64,
        config: &SimConfig,
    ) -> Self {
        let n = host_xfer.len();
        let ledger = Ledger {
            clocks,
            sync_ms,
            fault: FaultRuntime::new(&config.fault).map(|rt| FaultState::new(rt, n, words)),
            tracer: config.trace.then(|| Tracer::new(DEFAULT_TRACE_CAPACITY)),
            round: 0,
            devs: Vec::new(),
            timelines: vec![StreamTimeline::new(); n],
            copied: vec![0; n],
        };
        Self { host_xfer, peer_xfer, ledger }
    }

    /// Host → device: `words` words of `src` at `from` land at
    /// `dev[dev_off..]` on `device`.
    #[allow(clippy::too_many_arguments)]
    fn host_in(
        &mut self,
        gmems: &mut [GlobalMemory],
        device: u32,
        stream: u32,
        dev: DBuf,
        dev_off: u64,
        src: Tagged<'_>,
        from: u64,
        words: u64,
    ) -> Result<(), SimError> {
        let ledger = &mut self.ledger;
        let (targets, survivors_only) = ledger.targets(device as usize);
        for s in targets {
            if survivors_only && !ledger.alive(s) {
                continue;
            }
            let dst = gmems[s].span(dev.0, dev_off, words)?;
            let (xfer, gmem, mut copied) = (&mut self.host_xfer[s], &mut gmems[s], 0);
            let t = ledger.retried(s, LinkEdge::Host(s as u32), || {
                let (t, c) = xfer.transfer(src, from, &mut gmem.tagged_mut(), dst, words);
                copied += c;
                t
            });
            ledger.devs[s].xfer_in_ms += t;
            ledger.copied[s] += copied;
            if let Some(f) = ledger.fault.as_mut() {
                f.journal_words(s, dst, words as usize);
            }
            let (res, kind) = (StreamResource::HostToDevice, SpanKind::TransferIn);
            ledger.place(s, stream, res, kind, words, Some(xfer.link()), t);
        }
        Ok(())
    }

    /// Device → host: `words` words at `dev[dev_off..]` of `device` (or
    /// of the heir, over the heir's link, once `device` is dead) land in
    /// `dst` at `to`.
    #[allow(clippy::too_many_arguments)]
    fn host_out(
        &mut self,
        gmems: &[GlobalMemory],
        device: u32,
        stream: u32,
        dev: DBuf,
        dev_off: u64,
        mut dst: TaggedMut<'_>,
        to: u64,
        words: u64,
    ) -> Result<(), SimError> {
        let ledger = &mut self.ledger;
        let s = ledger.source(device as usize);
        let src = gmems[s].span(dev.0, dev_off, words)?;
        let (xfer, mut copied) = (&mut self.host_xfer[s], 0);
        let t = ledger.retried(s, LinkEdge::Host(s as u32), || {
            let (t, c) = xfer.transfer(gmems[s].tagged(), src, &mut dst, to, words);
            copied += c;
            t
        });
        ledger.devs[s].xfer_out_ms += t;
        ledger.copied[s] += copied;
        let (res, kind) = (StreamResource::DeviceToHost, SpanKind::TransferOut);
        ledger.place(s, stream, res, kind, words, Some(xfer.link()), t);
        Ok(())
    }

    /// Device → device over the directed peer link; the time is charged
    /// to both endpoints, whose peer engines the copy occupies.  A dead
    /// source is served by the heir and a dead destination is broadcast
    /// to every survivor; when redirection folds both endpoints onto one
    /// device the copy is local and free.
    #[allow(clippy::too_many_arguments)]
    fn peer(
        &mut self,
        gmems: &mut [GlobalMemory],
        src: u32,
        dst: u32,
        buf: DBuf,
        src_off: u64,
        dst_off: u64,
        words: u64,
    ) -> Result<(), SimError> {
        let ledger = &mut self.ledger;
        let sp = ledger.source(src as usize);
        let (receivers, survivors_only) = ledger.targets(dst as usize);
        // Every replica shares one layout, so one check covers them all.
        let from = gmems[sp].span(buf.0, src_off, words)?;
        let to = gmems[sp].span(buf.0, dst_off, words)?;
        for r in receivers {
            if survivors_only && !ledger.alive(r) {
                continue;
            }
            if r == sp {
                gmems[r].copy_within(from, to, words);
            } else {
                let (xfer, mut copied) = (&mut self.peer_xfer[sp][r], 0);
                let t = ledger.retried(r, LinkEdge::Peer(sp as u32, r as u32), || {
                    let (sm, dm) = two_mems(gmems, sp, r);
                    let (t, c) = xfer.transfer(sm.tagged(), from, &mut dm.tagged_mut(), to, words);
                    copied += c;
                    t
                });
                ledger.copied[r] += copied;
                // The receiver's span goes first: it carries the retry
                // and backoff segments, the source shows the fused copy.
                for d in [r, sp] {
                    ledger.devs[d].peer_ms += t;
                    let (res, kind) = (StreamResource::Peer, SpanKind::Peer);
                    ledger.place(d, 0, res, kind, words, Some(xfer.link()), t);
                }
            }
            if let Some(f) = ledger.fault.as_mut() {
                f.journal_words(r, to, words as usize);
            }
        }
        Ok(())
    }

    /// Ends the run: folds the rounds' retry/backoff totals, the copied
    /// words and the recovery counters into `device_stats`, and yields
    /// the trace with each device's final kernel-cache hits.
    pub(crate) fn finish(
        self,
        rounds: &[Vec<DeviceRoundObservation>],
        device_stats: &mut [DeviceStats],
    ) -> Option<Trace> {
        for round in rounds {
            for (st, obs) in device_stats.iter_mut().zip(round) {
                st.retries += obs.retries;
                st.backoff_ms += obs.backoff_ms;
            }
        }
        for (st, &c) in device_stats.iter_mut().zip(&self.ledger.copied) {
            st.copied_words = c;
        }
        if let Some(f) = &self.ledger.fault {
            for (st, &r) in device_stats.iter_mut().zip(&f.recoveries) {
                st.recoveries = r;
            }
        }
        let mut trace = self.ledger.tracer.map(Tracer::finish)?;
        trace.cache_hits = device_stats.iter().map(|s| s.cache.hits).collect();
        Some(trace)
    }
}

/// Interprets `program` round by round — the single place a [`HostStep`]
/// is matched.  `launch` runs one kernel over a shard plan against the
/// device memories and books it with [`Ledger::kernel_done`] (the
/// interpreter knows steps and links; devices live with its caller).
/// `program` has passed [`Program::check`], so every transfer's host
/// range lies in its buffer (a debug build asserts it) and its device
/// range in its buffer's slot.
pub(crate) fn run_rounds(
    program: &Program,
    host: &mut HostData,
    gmems: &mut [GlobalMemory],
    links: &mut Links,
    mut launch: impl FnMut(&Kernel, &[Shard], &mut [GlobalMemory], &mut Ledger) -> Result<(), SimError>,
) -> Result<Vec<Vec<DeviceRoundObservation>>, SimError> {
    let mut rounds = Vec::with_capacity(program.rounds.len());
    for (round_idx, round) in program.rounds.iter().enumerate() {
        links.ledger.begin_round(round_idx, gmems, &mut links.host_xfer)?;
        for step in &round.steps {
            match step {
                HostStep::TransferIn { host: h, host_off, dev, dev_off, words, device, stream } => {
                    debug_assert!(host.holds(*h, *host_off, *words));
                    let src = host.tagged(*h);
                    links
                        .host_in(gmems, *device, *stream, *dev, *dev_off, src, *host_off, *words)?;
                }
                HostStep::TransferOut {
                    dev,
                    dev_off,
                    host: h,
                    host_off,
                    words,
                    device,
                    stream,
                } => {
                    debug_assert!(host.holds(*h, *host_off, *words));
                    let dst = host.tagged_mut(*h);
                    links.host_out(
                        gmems, *device, *stream, *dev, *dev_off, dst, *host_off, *words,
                    )?;
                }
                HostStep::TransferPeer { src, dst, buf, src_off, dst_off, words } => {
                    links.peer(gmems, *src, *dst, *buf, *src_off, *dst_off, *words)?;
                }
                HostStep::SyncStream { device, stream } => {
                    links.ledger.sync_stream(*device, *stream);
                }
                HostStep::SyncDevice { device } => links.ledger.sync_device(*device),
                HostStep::Launch(_) | HostStep::LaunchSharded { .. } => {
                    if let Some((kernel, shards)) = step.launch() {
                        launch(kernel, &shards, gmems, &mut links.ledger)?;
                    }
                }
            }
        }
        rounds.push(links.ledger.end_round());
    }
    Ok(rounds)
}
