//! Host-level programs: device allocations, rounds, `W` transfers and
//! kernel launches.
//!
//! Execution of an ATGPU algorithm proceeds in rounds (§II): "A round
//! begins by the host transferring data to the device global memory.  The
//! kernel is then ran […].  The round ends with output data being
//! transferred from global memory to the host.  Synchronisation operations
//! occur, and the subsequent round commences."
//!
//! Each [`HostStep::TransferIn`]/[`HostStep::TransferOut`] is **one
//! transfer transaction** — it contributes 1 to `Îᵢ`/`Ôᵢ` and its word
//! count to `Iᵢ`/`Oᵢ`.  Splitting a logical copy across several steps is
//! how algorithms express chunked communication schemes (and pay `α` per
//! chunk, exactly the trade-off Boyer et al.'s function models).

use crate::error::IrError;
use crate::kernel::Kernel;
use std::fmt;
use std::sync::OnceLock;

/// Identifier of a device-global buffer (index into
/// [`ProgramBody::device_allocs`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DBuf(pub u32);

/// Identifier of a host buffer (index into [`ProgramBody::host_bufs`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HBuf(pub u32);

impl fmt::Display for DBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "d{}", self.0)
    }
}

impl fmt::Display for HBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "h{}", self.0)
    }
}

/// A device-global allocation, named for diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceAlloc {
    /// Buffer name (pseudocode uses lower-case names for global
    /// variables).
    pub name: String,
    /// Size in words.
    pub words: u64,
}

/// Role of a host buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostBufRole {
    /// Input: supplied by the caller, read by `TransferIn`.
    Input,
    /// Output: written by `TransferOut`, returned to the caller.
    Output,
}

/// A host buffer declaration (pseudocode uses capitalised names for host
/// variables).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostBufDecl {
    /// Buffer name.
    pub name: String,
    /// Size in words.
    pub words: u64,
    /// Input or output.
    pub role: HostBufRole,
}

/// One contiguous block range of a sharded launch, assigned to one
/// device: blocks `start..end` of the kernel's linear grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// Executing device index.
    pub device: u32,
    /// First block (inclusive).
    pub start: u64,
    /// One past the last block (exclusive).
    pub end: u64,
}

impl Shard {
    /// Number of blocks in the shard.
    #[inline]
    pub fn blocks(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// The slot a `words`-word device buffer takes in the canonical layout
/// ([`ProgramBody::buffer_layout`]): its size rounded up to whole
/// `block_words`-word blocks, saturating at `u64::MAX`.  Reads of a
/// buffer's own padding see deterministic zeros; only past its slot
/// could an access reach another buffer (the verifier's bounds limit).
pub fn padded_slot(words: u64, block_words: u64) -> u64 {
    let b = block_words.max(1);
    words.div_ceil(b).saturating_mul(b)
}

/// Blocks each device runs under `shards`, indexed by device.  The table
/// covers `max(n_devices, highest shard device + 1)` devices, so a plan
/// naming a device beyond `n_devices` widens the table instead of
/// indexing out of it.
pub fn shard_counts(shards: &[Shard], n_devices: usize) -> Vec<u64> {
    let n = shards.iter().map(|s| s.device as usize + 1).fold(n_devices, usize::max);
    let mut counts = vec![0u64; n];
    for s in shards {
        counts[s.device as usize] += s.blocks();
    }
    counts
}

/// The contiguous shard plan of per-device block counts — the inverse
/// of [`shard_counts`]: device `d` gets the block range after devices
/// `0..d`, zero-count devices are omitted (a zero-block shard would be
/// rejected by `LaunchSharded` validation as a non-partition).
pub fn counts_to_shards(counts: &[u64]) -> Vec<Shard> {
    let mut out = Vec::new();
    let mut cursor = 0u64;
    for (d, &len) in counts.iter().enumerate() {
        if len == 0 {
            continue;
        }
        out.push(Shard { device: d as u32, start: cursor, end: cursor + len });
        cursor += len;
    }
    out
}

/// The shard plan of one launch step (see [`HostStep::launch`]); derefs
/// to the shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardPlan<'a> {
    /// A plain [`HostStep::Launch`]: the whole grid, on device 0.
    Whole(Shard),
    /// A [`HostStep::LaunchSharded`]'s own plan.
    Split(&'a [Shard]),
}

impl std::ops::Deref for ShardPlan<'_> {
    type Target = [Shard];

    fn deref(&self) -> &[Shard] {
        match self {
            ShardPlan::Whole(shard) => std::slice::from_ref(shard),
            ShardPlan::Split(shards) => shards,
        }
    }
}

/// One step of a round, executed by the host in order.
///
/// Transfers carry a `device` index so a program can address a
/// multi-device system (every device holds a replica of the declared
/// buffer layout); single-device programs use device 0 throughout and
/// never notice.
///
/// ## Streams
///
/// Transfers additionally carry a **stream** id (< [`crate::MAX_STREAMS`]).
/// Streams are per-device timing queues: within one round, work on the
/// same stream of a device is serial, while work on different streams may
/// overlap in time (copy/compute overlap).  Kernel launches always run on
/// **stream 0**, the compute stream.  Streams never change *functional*
/// semantics — execution is defined by host-step order; only the round's
/// modelled duration is affected.  [`HostStep::SyncStream`] and
/// [`HostStep::SyncDevice`] insert ordering points, and every round
/// boundary is an implicit device-wide synchronisation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HostStep {
    /// `dev[dev_off..] W host[host_off..][..words]` — one host→device
    /// transfer transaction over `device`'s host link.
    TransferIn {
        /// Source host buffer.
        host: HBuf,
        /// Word offset into the host buffer.
        host_off: u64,
        /// Destination device buffer.
        dev: DBuf,
        /// Word offset into the device buffer.
        dev_off: u64,
        /// Words to copy.
        words: u64,
        /// Destination device index (0 on a single-device system).
        device: u32,
        /// Stream the transfer is enqueued on (0 = the default stream,
        /// serial with the kernel).
        stream: u32,
    },
    /// `host[host_off..] W dev[dev_off..][..words]` — one device→host
    /// transfer transaction over `device`'s host link.
    TransferOut {
        /// Source device buffer.
        dev: DBuf,
        /// Word offset into the device buffer.
        dev_off: u64,
        /// Destination host buffer.
        host: HBuf,
        /// Word offset into the host buffer.
        host_off: u64,
        /// Words to copy.
        words: u64,
        /// Source device index (0 on a single-device system).
        device: u32,
        /// Stream the transfer is enqueued on (0 = the default stream,
        /// serial with the kernel).
        stream: u32,
    },
    /// Block until everything previously enqueued on `stream` of `device`
    /// has completed: later steps of the round (on any stream of that
    /// device) start no earlier.  A sync on an idle stream is a no-op.
    SyncStream {
        /// Device whose stream is synchronised.
        device: u32,
        /// The stream to wait for.
        stream: u32,
    },
    /// Block until everything previously enqueued on **all** streams of
    /// `device` has completed (the per-round barrier every round ends
    /// with, made explicit mid-round).
    SyncDevice {
        /// Device to synchronise.
        device: u32,
    },
    /// One device→device transfer transaction over the directed peer
    /// link `src → dst`, copying a region of `buf`'s replica.
    TransferPeer {
        /// Source device index.
        src: u32,
        /// Destination device index.
        dst: u32,
        /// Device buffer whose replicas are involved.
        buf: DBuf,
        /// Word offset into the source replica.
        src_off: u64,
        /// Word offset into the destination replica.
        dst_off: u64,
        /// Words to copy.
        words: u64,
    },
    /// Launch the round's kernel.
    Launch(Kernel),
    /// Launch the round's kernel sharded across devices: the shards must
    /// partition the grid `0..kernel.blocks()` into disjoint ranges.
    LaunchSharded {
        /// The kernel, shared by every shard.
        kernel: Kernel,
        /// The shard plan.
        shards: Vec<Shard>,
    },
}

impl HostStep {
    /// The step as a launch, `(kernel, shard plan)`, if it is one.  One
    /// device is the one-shard case: a plain [`HostStep::Launch`] is the
    /// whole grid as a single shard on device 0, so consumers handle
    /// both launch variants in one arm.
    pub fn launch(&self) -> Option<(&Kernel, ShardPlan<'_>)> {
        match self {
            HostStep::Launch(k) => {
                Some((k, ShardPlan::Whole(Shard { device: 0, start: 0, end: k.blocks() })))
            }
            HostStep::LaunchSharded { kernel, shards } => Some((kernel, ShardPlan::Split(shards))),
            _ => None,
        }
    }
}

/// A round: inward transfers, at most one launch, outward transfers.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Round {
    /// The steps, in host order.
    pub steps: Vec<HostStep>,
}

impl Round {
    /// The round's launch as `(kernel, shard plan)` — see
    /// [`HostStep::launch`].
    pub fn launch(&self) -> Option<(&Kernel, ShardPlan<'_>)> {
        self.steps.iter().find_map(HostStep::launch)
    }

    /// The round's kernel, if it launches one (plain or sharded).
    pub fn kernel(&self) -> Option<&Kernel> {
        self.launch().map(|(k, _)| k)
    }

    /// The round's shard plan, if its launch is sharded.
    pub fn shards(&self) -> Option<&[Shard]> {
        self.steps.iter().find_map(|s| match s {
            HostStep::LaunchSharded { shards, .. } => Some(shards.as_slice()),
            _ => None,
        })
    }

    /// Peer-transfer `(words, transactions)` over all device↔device
    /// steps of the round.
    pub fn peer(&self) -> (u64, u64) {
        let mut words = 0;
        let mut txns = 0;
        for s in &self.steps {
            if let HostStep::TransferPeer { words: w, .. } = s {
                words += w;
                txns += 1;
            }
        }
        (words, txns)
    }

    /// Inward `(words, transactions)` = `(Iᵢ, Îᵢ)`.
    pub fn inward(&self) -> (u64, u64) {
        let mut words = 0;
        let mut txns = 0;
        for s in &self.steps {
            if let HostStep::TransferIn { words: w, .. } = s {
                words += w;
                txns += 1;
            }
        }
        (words, txns)
    }

    /// Outward `(words, transactions)` = `(Oᵢ, Ôᵢ)`.
    pub fn outward(&self) -> (u64, u64) {
        let mut words = 0;
        let mut txns = 0;
        for s in &self.steps {
            if let HostStep::TransferOut { words: w, .. } = s {
                words += w;
                txns += 1;
            }
        }
        (words, txns)
    }
}

/// A program's contents: the four fields every consumer reads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramBody {
    /// Program name.
    pub name: String,
    /// Device-global allocations (made once, before round 1 — matching
    /// how the paper's kernels `cudaMalloc` up front).
    pub device_allocs: Vec<DeviceAlloc>,
    /// Host buffers the program exchanges data with.
    pub host_bufs: Vec<HostBufDecl>,
    /// The rounds, in order.
    pub rounds: Vec<Round>,
}

/// A complete multi-round ATGPU program.
///
/// Its contents are a [`ProgramBody`], **read** through `Deref`
/// (`program.rounds`, `program.name`, …) and **changed** only through
/// [`Program::edit`].  Beside them a program carries two once-filled
/// slots: the **validation witness** [`Program::check`] keeps, so each
/// door that runs or prices a program calls `check` and validates it
/// once, and the digest a keyed hasher computed of it, tagged with that
/// hasher's tag ([`Program::keyed`]), so a server that keys every
/// request by a program's shape walks each program once.  Every change
/// to the contents goes through `edit`, which empties both slots, so
/// they always speak of the bytes they sit beside.
///
/// The slots are invisible otherwise: a clone carries them (the contents
/// are equal, so are their verdict and digest), equality compares
/// contents only, and `Debug` prints the contents alone, so a keyed
/// digest never leaves the program it was computed for.
#[derive(Clone)]
pub struct Program {
    body: ProgramBody,
    checked: OnceLock<()>,
    key: OnceLock<(u64, u64)>,
}

impl From<ProgramBody> for Program {
    /// An unchecked program: the first [`Program::check`] validates it.
    fn from(body: ProgramBody) -> Self {
        Program { body, checked: OnceLock::new(), key: OnceLock::new() }
    }
}

impl std::ops::Deref for Program {
    type Target = ProgramBody;

    fn deref(&self) -> &ProgramBody {
        &self.body
    }
}

impl PartialEq for Program {
    fn eq(&self, other: &Self) -> bool {
        self.body == other.body
    }
}

impl Eq for Program {}

impl fmt::Debug for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ProgramBody { name, device_allocs, host_bufs, rounds } = &self.body;
        f.debug_struct("Program")
            .field("name", name)
            .field("device_allocs", device_allocs)
            .field("host_bufs", host_bufs)
            .field("rounds", rounds)
            .finish()
    }
}

impl Program {
    /// The contents, to change.  Empties both slots and checks nothing, so
    /// an edited program may be one the builder would refuse: the next
    /// [`Program::check`], which every door that runs or prices a program
    /// calls, validates it afresh.
    pub fn edit(&mut self) -> &mut ProgramBody {
        self.checked = OnceLock::new();
        self.key = OnceLock::new();
        &mut self.body
    }

    /// Whether the program is one the model defines, by the one statement
    /// of it, [`validate_program`](crate::validate::validate_program).  A
    /// checked program (every built one) answers at once; otherwise it is
    /// validated, and the witness is kept if it passes.
    pub fn check(&self) -> Result<(), IrError> {
        if self.checked.get().is_none() {
            crate::validate::validate_program(self)?;
            let _ = self.checked.set(());
        }
        Ok(())
    }

    /// `digest(self)`, kept under `tag`.  The first caller to fill the
    /// empty slot wins; a later caller with the same tag gets the kept
    /// digest without calling `digest`, and one with another tag gets
    /// `digest(self)`, stored nowhere.  The slot is read only here, so a
    /// digest is answered only to a caller that names its tag.
    pub fn keyed(&self, tag: u64, digest: impl FnOnce(&ProgramBody) -> u64) -> u64 {
        match self.key.get() {
            Some(&(kept_tag, kept)) if kept_tag == tag => kept,
            Some(_) => digest(&self.body),
            None => {
                let fresh = digest(&self.body);
                // A racing caller may have filled the slot meanwhile: its
                // entry stays, and this caller's answer is still `fresh`.
                let _ = self.key.set((tag, fresh));
                fresh
            }
        }
    }
}

impl ProgramBody {
    /// Size lookup for a device buffer.
    pub fn device_buf_words(&self, buf: DBuf) -> Option<u64> {
        self.device_allocs.get(buf.0 as usize).map(|a| a.words)
    }

    /// Size lookup for a host buffer.
    pub fn host_buf_words(&self, buf: HBuf) -> Option<u64> {
        self.host_bufs.get(buf.0 as usize).map(|b| b.words)
    }

    /// Total words transferred in both directions, `Σᵢ (Iᵢ + Oᵢ)`.
    pub fn total_transfer_words(&self) -> u64 {
        self.rounds.iter().map(|r| r.inward().0 + r.outward().0).sum()
    }

    /// `R`, the number of rounds.
    pub fn num_rounds(&self) -> u64 {
        self.rounds.len() as u64
    }

    /// The highest device index any step addresses — the program needs a
    /// system of at least `max_device() + 1` devices.  Single-device
    /// programs return 0.
    pub fn max_device(&self) -> u32 {
        let mut max = 0u32;
        for round in &self.rounds {
            for step in &round.steps {
                match step {
                    HostStep::TransferIn { device, .. }
                    | HostStep::TransferOut { device, .. }
                    | HostStep::SyncStream { device, .. }
                    | HostStep::SyncDevice { device } => {
                        max = max.max(*device);
                    }
                    HostStep::TransferPeer { src, dst, .. } => max = max.max(*src).max(*dst),
                    HostStep::LaunchSharded { shards, .. } => {
                        for s in shards {
                            max = max.max(s.device);
                        }
                    }
                    HostStep::Launch(_) => {}
                }
            }
        }
        max
    }

    /// Whether any step uses a non-default stream or an explicit sync —
    /// i.e. whether the program can overlap at all.
    pub fn uses_streams(&self) -> bool {
        self.rounds.iter().flat_map(|r| r.steps.iter()).any(|s| match s {
            HostStep::TransferIn { stream, .. } | HostStep::TransferOut { stream, .. } => {
                *stream != 0
            }
            HostStep::SyncStream { .. } | HostStep::SyncDevice { .. } => true,
            _ => false,
        })
    }

    /// The program's serial **de-streamed form**: every transfer moved to
    /// stream 0 and every explicit sync dropped.  Functional semantics
    /// are defined by host-step order, so the de-streamed program is
    /// bit-identical in outputs — only its modelled time differs (no
    /// overlap).  The differential suite pins this down.
    pub fn destreamed(&self) -> Program {
        let mut p = self.clone();
        for round in &mut p.rounds {
            round.steps.retain(|s| {
                !matches!(s, HostStep::SyncStream { .. } | HostStep::SyncDevice { .. })
            });
            for step in &mut round.steps {
                match step {
                    HostStep::TransferIn { stream, .. } | HostStep::TransferOut { stream, .. } => {
                        *stream = 0;
                    }
                    _ => {}
                }
            }
        }
        p.into()
    }

    /// Canonical device-memory layout: buffers packed in declaration
    /// order, each in its [`padded_slot`] (so a buffer's coalescing
    /// behaviour never depends on its neighbours).  Both the analyser and
    /// the simulator use this layout, which is what makes the analyser's
    /// transaction counts comparable with the simulator's.
    ///
    /// Returns `(base_addresses, total_words)`.  The sum saturates: a
    /// declaration past 2⁶⁴ words totals `u64::MAX`, which no machine
    /// holds, so the simulator and the analyser refuse it as too large
    /// rather than lay it out wrapped.
    pub fn buffer_layout(&self, block_words: u64) -> (Vec<u64>, u64) {
        assert!(block_words > 0, "block size must be positive");
        let mut bases = Vec::with_capacity(self.device_allocs.len());
        let mut cursor = 0u64;
        for a in &self.device_allocs {
            bases.push(cursor);
            cursor = cursor.saturating_add(padded_slot(a.words, block_words));
        }
        (bases, cursor)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    fn xfer_in(words: u64) -> HostStep {
        HostStep::TransferIn {
            host: HBuf(0),
            host_off: 0,
            dev: DBuf(0),
            dev_off: 0,
            words,
            device: 0,
            stream: 0,
        }
    }

    fn xfer_out(words: u64) -> HostStep {
        HostStep::TransferOut {
            dev: DBuf(0),
            dev_off: 0,
            host: HBuf(0),
            host_off: 0,
            words,
            device: 0,
            stream: 0,
        }
    }

    #[test]
    fn peer_and_shard_helpers() {
        let peer = HostStep::TransferPeer {
            src: 0,
            dst: 2,
            buf: DBuf(0),
            src_off: 0,
            dst_off: 8,
            words: 16,
        };
        let r = Round { steps: vec![xfer_in(4), peer] };
        assert_eq!(r.peer(), (16, 1));
        assert_eq!(r.inward(), (4, 1));
        assert_eq!(Shard { device: 1, start: 4, end: 10 }.blocks(), 6);
        let p = ProgramBody {
            name: "p".into(),
            device_allocs: vec![DeviceAlloc { name: "a".into(), words: 64 }],
            host_bufs: vec![HostBufDecl { name: "A".into(), words: 64, role: HostBufRole::Input }],
            rounds: vec![r],
        };
        assert_eq!(p.max_device(), 2);
    }

    #[test]
    fn shard_counts_widen_past_the_device_count() {
        let plan = [Shard { device: 3, start: 0, end: 5 }, Shard { device: 0, start: 5, end: 7 }];
        assert_eq!(shard_counts(&plan, 2), vec![2, 0, 0, 5]);
        assert_eq!(shard_counts(&plan[1..], 2), vec![2, 0]);
        assert_eq!(shard_counts(&[], 0), Vec::<u64>::new());
    }

    #[test]
    fn a_plain_launch_is_the_whole_grid_on_device_0() {
        let k = crate::KernelBuilder::new("k", 6, 0).build();
        let plain = Round { steps: vec![xfer_in(4), HostStep::Launch(k.clone())] };
        let (kernel, shards) = plain.launch().unwrap();
        assert_eq!(kernel, &k);
        assert_eq!(&*shards, &[Shard { device: 0, start: 0, end: 6 }]);
        let plan =
            vec![Shard { device: 1, start: 0, end: 2 }, Shard { device: 0, start: 2, end: 6 }];
        let split =
            Round { steps: vec![HostStep::LaunchSharded { kernel: k, shards: plan.clone() }] };
        assert_eq!(&*split.launch().unwrap().1, &plan[..]);
        assert_eq!(split.shards(), Some(&plan[..]));
        assert!(xfer_in(1).launch().is_none());
    }

    #[test]
    fn round_counts_transfers() {
        let r = Round { steps: vec![xfer_in(10), xfer_in(20), xfer_out(5)] };
        assert_eq!(r.inward(), (30, 2));
        assert_eq!(r.outward(), (5, 1));
    }

    #[test]
    fn round_without_kernel() {
        let r = Round { steps: vec![xfer_in(1)] };
        assert!(r.kernel().is_none());
    }

    #[test]
    fn program_totals() {
        let p = ProgramBody {
            name: "p".into(),
            device_allocs: vec![
                DeviceAlloc { name: "a".into(), words: 100 },
                DeviceAlloc { name: "b".into(), words: 50 },
            ],
            host_bufs: vec![HostBufDecl { name: "A".into(), words: 100, role: HostBufRole::Input }],
            rounds: vec![Round { steps: vec![xfer_in(100)] }, Round { steps: vec![xfer_out(50)] }],
        };
        assert_eq!(p.total_transfer_words(), 150);
        assert_eq!(p.num_rounds(), 2);
        assert_eq!(p.device_buf_words(DBuf(1)), Some(50));
        assert_eq!(p.device_buf_words(DBuf(2)), None);
        assert_eq!(p.host_buf_words(HBuf(0)), Some(100));
        assert_eq!(p.host_buf_words(HBuf(1)), None);
    }

    #[test]
    fn ids_display() {
        assert_eq!(DBuf(3).to_string(), "d3");
        assert_eq!(HBuf(1).to_string(), "h1");
    }

    #[test]
    fn buffer_layout_aligns_to_blocks() {
        let p = ProgramBody {
            name: "p".into(),
            device_allocs: vec![
                DeviceAlloc { name: "a".into(), words: 33 }, // pads to 64
                DeviceAlloc { name: "b".into(), words: 32 }, // exact
                DeviceAlloc { name: "c".into(), words: 1 },  // pads to 32
            ],
            host_bufs: vec![],
            rounds: vec![Round::default()],
        };
        let (bases, total) = p.buffer_layout(32);
        assert_eq!(bases, vec![0, 64, 96]);
        assert_eq!(total, 128);
    }

    #[test]
    fn destreaming_strips_streams_and_syncs() {
        let mut streamed = xfer_in(4);
        if let HostStep::TransferIn { stream, .. } = &mut streamed {
            *stream = 2;
        }
        let r = Round {
            steps: vec![
                streamed,
                HostStep::SyncStream { device: 1, stream: 2 },
                HostStep::SyncDevice { device: 3 },
                xfer_out(4),
            ],
        };
        let p = ProgramBody {
            name: "p".into(),
            device_allocs: vec![DeviceAlloc { name: "a".into(), words: 64 }],
            host_bufs: vec![HostBufDecl { name: "A".into(), words: 64, role: HostBufRole::Input }],
            rounds: vec![r],
        };
        assert!(p.uses_streams());
        // Sync steps count toward the device requirement.
        assert_eq!(p.max_device(), 3);
        let d = p.destreamed();
        assert!(!d.uses_streams());
        assert_eq!(d.rounds[0].steps.len(), 2);
        assert_eq!(d.rounds[0].inward(), (4, 1));
        assert_eq!(d.rounds[0].outward(), (4, 1));
        // De-streaming is idempotent.
        assert_eq!(d.destreamed(), d);
    }

    #[test]
    fn buffer_layout_empty() {
        let p = ProgramBody {
            name: "p".into(),
            device_allocs: vec![],
            host_bufs: vec![],
            rounds: vec![Round::default()],
        };
        let (bases, total) = p.buffer_layout(32);
        assert!(bases.is_empty());
        assert_eq!(total, 0);
    }

    fn keyed_program() -> Program {
        ProgramBody {
            name: "p".into(),
            device_allocs: vec![DeviceAlloc { name: "a".into(), words: 64 }],
            host_bufs: vec![HostBufDecl { name: "A".into(), words: 64, role: HostBufRole::Input }],
            rounds: vec![Round { steps: vec![xfer_in(64)] }],
        }
        .into()
    }

    /// A program is shared between a server's client threads.
    const _: fn() = || {
        fn send_sync<T: Send + Sync>() {}
        send_sync::<Program>();
    };

    /// The first writer's digest answers its tag until an edit; another
    /// tag is computed afresh and stored nowhere.
    #[test]
    fn a_kept_key_answers_only_its_tag() {
        let calls = std::cell::Cell::new(0);
        let digest = |d: u64| {
            let calls = &calls;
            move |_: &ProgramBody| {
                calls.set(calls.get() + 1);
                d
            }
        };
        let p = keyed_program();
        assert_eq!(p.keyed(7, digest(42)), 42);
        assert_eq!(p.keyed(7, digest(0)), 42);
        assert_eq!(calls.get(), 1);
        assert_eq!(p.keyed(8, digest(9)), 9);
        assert_eq!(p.keyed(8, digest(10)), 10);
        assert_eq!(p.keyed(7, digest(0)), 42);
        assert_eq!(calls.get(), 3);
    }

    /// A clone carries the key and the witness, an edit empties them, and
    /// neither equality nor `Debug` sees them.
    #[test]
    fn a_clone_carries_the_key_and_an_edit_clears_it() {
        let unkeyed = keyed_program();
        let p = keyed_program();
        p.keyed(7, |_| 42);
        p.check().unwrap();
        let clone = p.clone();
        assert_eq!(clone.keyed(7, |_| 0), 42);
        assert!(clone.checked.get().is_some());
        assert_eq!(clone, unkeyed);
        for (keyed, plain) in [(&p, &unkeyed), (&clone, &unkeyed)] {
            assert_eq!(format!("{keyed:?}"), format!("{plain:?}"));
            assert_eq!(format!("{keyed:#?}"), format!("{plain:#?}"));
        }
        // `Debug` prints what the four-field struct printed.
        let body = format!("{:?}", *unkeyed).replacen("ProgramBody", "Program", 1);
        assert_eq!(format!("{unkeyed:?}"), body);

        let mut edited = p.clone();
        edited.edit();
        assert!(edited.checked.get().is_none());
        assert_eq!(edited.keyed(7, |_| 5), 5);
        assert_eq!(edited.keyed(7, |_| 6), 5);
        assert_eq!(p.keyed(7, |_| 0), 42);
        let mut changed = p.clone();
        let Some(HostStep::TransferIn { words, .. }) = changed.edit().rounds[0].steps.first_mut()
        else {
            panic!("round 0 opens with the upload");
        };
        *words = 32;
        assert_ne!(changed, p);
        assert_eq!(changed.keyed(7, |_| 1), 1);
    }

    /// The builder hands out a checked program and `From<ProgramBody>` an
    /// unchecked one; `check` keeps the witness only once validation
    /// passes, so an edit that breaks a program is refused and a later
    /// repair passes.
    #[test]
    fn check_keeps_a_witness_only_for_a_valid_program() {
        let mut pb = crate::ProgramBuilder::new("p");
        let (h, d) = (pb.host_input("A", 64), pb.device_alloc("a", 64));
        pb.begin_round();
        pb.transfer_in(h, d, 64);
        assert!(pb.build().unwrap().checked.get().is_some());
        let mut p = keyed_program();
        assert!(p.checked.get().is_none());
        for words in [64, 65, 32] {
            let Some(HostStep::TransferIn { words: w, .. }) = p.edit().rounds[0].steps.first_mut()
            else {
                panic!("round 0 opens with the upload");
            };
            *w = words;
            assert!(p.checked.get().is_none());
            let verdict = p.check();
            if words > 64 {
                assert!(matches!(verdict, Err(IrError::TransferOutOfBounds { end: 65, .. })));
            } else {
                assert_eq!(verdict, Ok(()));
            }
            assert_eq!(p.checked.get().is_some(), words <= 64);
        }
    }

    /// A slot or a total past 2⁶⁴ words saturates instead of wrapping.
    #[test]
    fn buffer_layout_saturates_past_u64() {
        assert_eq!(padded_slot(33, 32), 64);
        assert_eq!(padded_slot(u64::MAX, 32), u64::MAX);
        let cases = [(u64::MAX, [0, u64::MAX, u64::MAX]), (1 << 63, [0, 1 << 63, (1 << 63) + 128])];
        for (huge, want) in cases {
            let alloc = |words| DeviceAlloc { name: "d".into(), words };
            let p = ProgramBody {
                name: "p".into(),
                device_allocs: vec![alloc(huge), alloc(128), alloc(huge)],
                host_bufs: vec![],
                rounds: vec![Round::default()],
            };
            let (bases, total) = p.buffer_layout(32);
            assert_eq!(bases, want);
            assert_eq!(total, u64::MAX, "{huge}");
        }
    }
}
