//! Stream timelines — the copy/compute-overlap extension of the timing
//! model.
//!
//! The paper's cost function charges a round's transfers and kernel
//! **serially**: `T_I + kernel + T_O`.  Real GPUs hide transfer latency
//! behind compute with *streams*: operations on one stream are ordered,
//! operations on different streams may overlap — the mechanism CrystalGPU
//! exploits for transparent transfer/compute overlap.  This module models
//! it with a small list scheduler:
//!
//! * every operation belongs to a **stream** (an ordering queue chosen by
//!   the program) and occupies a **resource** (fixed by what the
//!   operation physically is);
//! * an operation starts at the maximum of its stream's ready time, its
//!   resource's ready time and the current sync *floor*, and runs for its
//!   serial duration;
//! * `SyncStream`/`SyncDevice` raise the floor (host-blocking joins);
//! * the round's duration is the time the last operation finishes — the
//!   **max over per-stream serial chains between sync points**.
//!
//! The resources encode what real hardware serialises regardless of
//! stream tags: one DMA engine per transfer direction and one compute
//! engine, so two H2D copies never overlap each other (they share a
//! link), while an H2D copy, a kernel and a D2H copy on three streams all
//! run concurrently.  A program that keeps everything on stream 0
//! degenerates to exactly the paper's serial sum.
//!
//! [`StreamTimeline`] is shared by the simulator (observed round times,
//! `atgpu-sim`) and the analytic cost core
//! ([`crate::cost::cluster_cost_streamed`]) so prediction and observation
//! use the same overlap semantics by construction.

// Every served quote and every simulated round schedules through here.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

/// Streams addressable per device, mirroring `atgpu_ir::MAX_STREAMS`
/// (this crate does not depend on atgpu-ir).  [`StreamTimeline`] clamps
/// larger ids to the last slot as a defensive bound — the IR validator
/// rejects them before any well-formed program gets here — so a corrupt
/// id can never drive an unbounded allocation.
pub const MAX_STREAMS: u32 = 8;

/// The hardware unit an operation occupies.  Operations on the same
/// resource serialise even when enqueued on different streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamResource {
    /// The host→device DMA engine (one per device).
    HostToDevice,
    /// The multiprocessors: kernel launches.
    Compute,
    /// The device→host DMA engine.
    DeviceToHost,
    /// A peer-link engine (device↔device copies).
    Peer,
}

impl StreamResource {
    #[inline]
    fn index(self) -> usize {
        self.lane() as usize
    }

    /// Stable lane number of this resource (H2D=0, Compute=1, D2H=2,
    /// Peer=3) — the `tid` a trace exporter files the resource's spans
    /// under.
    #[inline]
    pub fn lane(self) -> u8 {
        match self {
            StreamResource::HostToDevice => 0,
            StreamResource::Compute => 1,
            StreamResource::DeviceToHost => 2,
            StreamResource::Peer => 3,
        }
    }

    /// Short human-readable lane name, matching [`Self::lane`] order.
    pub fn lane_name(self) -> &'static str {
        match self {
            StreamResource::HostToDevice => "H2D",
            StreamResource::Compute => "Compute",
            StreamResource::DeviceToHost => "D2H",
            StreamResource::Peer => "Peer",
        }
    }
}

/// Per-round, per-device stream scheduler: tracks when each stream and
/// each resource becomes free, plus the host-sync floor.
///
/// Times are relative to the round start (every round boundary is an
/// implicit device-wide synchronisation).
#[derive(Debug, Clone, Default)]
pub struct StreamTimeline {
    /// Ready time of each stream, indexed by stream id (grown on demand).
    streams: Vec<f64>,
    /// Ready time of each [`StreamResource`].
    resources: [f64; 4],
    /// Sync floor: no operation starts earlier.
    floor: f64,
}

impl StreamTimeline {
    /// A fresh timeline at round start (everything idle at time 0).
    pub fn new() -> Self {
        Self::default()
    }

    fn stream_mut(&mut self, stream: u32) -> &mut f64 {
        let i = (stream.min(MAX_STREAMS - 1)) as usize;
        if i >= self.streams.len() {
            self.streams.resize(i + 1, 0.0);
        }
        &mut self.streams[i]
    }

    /// Schedules one operation of duration `dur` on `stream` occupying
    /// `res`; returns its `(start, end)` span.  The timeline tracer records
    /// exactly these spans, so tracing sees the times the scheduler uses.
    pub fn advance_spanned(&mut self, stream: u32, res: StreamResource, dur: f64) -> (f64, f64) {
        let floor = self.floor;
        let r = self.resources[res.index()];
        let s = self.stream_mut(stream);
        let start = s.max(r).max(floor);
        let end = start + dur;
        *s = end;
        self.resources[res.index()] = end;
        (start, end)
    }

    /// Host-blocking join on one stream: later operations (any stream)
    /// start no earlier than everything enqueued on `stream` so far.  A
    /// sync on an idle (or never-used) stream is a no-op (and allocates
    /// nothing).
    pub fn sync_stream(&mut self, stream: u32) {
        let i = (stream.min(MAX_STREAMS - 1)) as usize;
        let t = self.streams.get(i).copied().unwrap_or(0.0);
        self.floor = self.floor.max(t);
    }

    /// Host-blocking join on the whole device: later operations start no
    /// earlier than everything enqueued so far.
    pub fn sync_device(&mut self) {
        self.floor = self.finish();
    }

    /// The round's duration so far: when the last scheduled operation
    /// completes (or the floor, if a sync raised it past that).
    pub fn finish(&self) -> f64 {
        let s = self.streams.iter().copied().fold(self.floor, f64::max);
        self.resources.iter().copied().fold(s, f64::max)
    }
}

/// One schedule entry of a round, for the analytic streamed cost: the
/// stream placement and link traffic of every transfer, the kernel
/// launch, and explicit syncs — exactly the information
/// [`crate::cost::cluster_cost_streamed`] needs to price a round the way
/// the simulator times it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamItem {
    /// Host→device traffic on `stream`: `txns` transactions moving
    /// `words` in total (priced `txns·α + words·β` on the host link).
    TransferIn {
        /// Stream the copies are enqueued on.
        stream: u32,
        /// Transfer transactions `Î`.
        txns: u64,
        /// Words moved `I`.
        words: u64,
    },
    /// Device→host traffic on `stream`.
    TransferOut {
        /// Stream the copies are enqueued on.
        stream: u32,
        /// Transfer transactions `Ô`.
        txns: u64,
        /// Words moved `O`.
        words: u64,
    },
    /// The round's kernel launch (always stream 0, the compute stream);
    /// its duration is the cost function's kernel term.
    Kernel,
    /// Host-blocking join on one stream.
    SyncStream {
        /// The stream to wait for.
        stream: u32,
    },
    /// Host-blocking join on the whole device.
    SyncDevice,
}

/// A round's stream schedule: its [`StreamItem`]s in host order.  An
/// empty schedule means "serial": all traffic on stream 0 (derived from
/// the round's aggregate metrics), reproducing the paper's
/// `T_I + kernel + T_O` exactly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoundSchedule {
    /// The items, in the order the host enqueues them.
    pub items: Vec<StreamItem>,
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use StreamResource::*;

    #[test]
    fn single_stream_degenerates_to_serial_sum() {
        // Everything on stream 0: the paper's T_I + kernel + T_O.
        let mut t = StreamTimeline::new();
        t.advance_spanned(0, HostToDevice, 3.0);
        t.advance_spanned(0, Compute, 5.0);
        t.advance_spanned(0, DeviceToHost, 2.0);
        assert_eq!(t.finish(), 10.0);
    }

    #[test]
    fn two_streams_overlap_copy_and_compute() {
        // H2D of the next chunk (stream 1) hides behind this chunk's
        // kernel + D2H (stream 0).
        let mut t = StreamTimeline::new();
        t.advance_spanned(1, HostToDevice, 4.0);
        t.advance_spanned(0, Compute, 5.0);
        t.advance_spanned(0, DeviceToHost, 2.0);
        assert_eq!(t.finish(), 7.0);
    }

    #[test]
    fn same_resource_serialises_across_streams() {
        // Two H2D copies on different streams share the DMA engine.
        let mut t = StreamTimeline::new();
        t.advance_spanned(1, HostToDevice, 4.0);
        t.advance_spanned(2, HostToDevice, 4.0);
        assert_eq!(t.finish(), 8.0);
        // ... but opposite directions overlap.
        let mut t = StreamTimeline::new();
        t.advance_spanned(1, HostToDevice, 4.0);
        t.advance_spanned(2, DeviceToHost, 4.0);
        assert_eq!(t.finish(), 4.0);
    }

    #[test]
    fn empty_stream_sync_is_noop() {
        let mut t = StreamTimeline::new();
        t.advance_spanned(0, Compute, 5.0);
        t.sync_stream(3); // never used
        t.advance_spanned(1, HostToDevice, 1.0);
        assert_eq!(t.finish(), 5.0);
    }

    #[test]
    fn sync_heavy_schedule_is_fully_serial() {
        // A device sync after every operation removes all overlap.
        let mut t = StreamTimeline::new();
        for (s, r, d) in [(1, HostToDevice, 4.0), (0, Compute, 5.0), (2, DeviceToHost, 2.0)] {
            t.advance_spanned(s, r, d);
            t.sync_device();
        }
        assert_eq!(t.finish(), 11.0);
    }

    #[test]
    fn stream_sync_orders_later_work() {
        let mut t = StreamTimeline::new();
        t.advance_spanned(1, HostToDevice, 4.0);
        t.sync_stream(1);
        // The kernel now waits for the copy even on another stream.
        t.advance_spanned(0, Compute, 5.0);
        assert_eq!(t.finish(), 9.0);
    }

    #[test]
    fn zero_duration_operations_are_free() {
        let mut t = StreamTimeline::new();
        t.advance_spanned(0, Compute, 0.0);
        t.sync_device();
        assert_eq!(t.finish(), 0.0);
    }

    #[test]
    fn out_of_range_stream_ids_clamp_without_allocating() {
        // Defensive bound: a corrupt id must not drive a huge resize.
        let mut t = StreamTimeline::new();
        t.advance_spanned(u32::MAX, HostToDevice, 2.0);
        assert!(t.streams.len() <= MAX_STREAMS as usize);
        t.sync_stream(u32::MAX); // floor picks up the clamped slot
        t.advance_spanned(0, Compute, 1.0);
        assert_eq!(t.finish(), 3.0);
    }

    /// Pins the clamp's aliasing behaviour: stream ids `≥ MAX_STREAMS`
    /// all alias the **last** slot, identically in `advance_spanned` and
    /// `sync_stream`, so a future refactor cannot diverge the two (an
    /// `advance_spanned` clamping while `sync_stream` allocated — or vice versa —
    /// would silently un-order operations the clamp had chained).  No
    /// validated program reaches this: the IR validator bounds the ids of
    /// every program that passes `Program::check` (every door calls it),
    /// and `check_schedule_streams` those of a hand-built [`RoundSchedule`].
    #[test]
    fn clamp_aliases_advance_and_sync_identically() {
        // advance on MAX_STREAMS+1 and sync on MAX_STREAMS land on the
        // same slot: the sync must observe the advance.
        let mut t = StreamTimeline::new();
        t.advance_spanned(MAX_STREAMS + 1, HostToDevice, 4.0);
        t.sync_stream(MAX_STREAMS);
        t.advance_spanned(0, Compute, 1.0);
        assert_eq!(t.finish(), 5.0);

        // The clamped slot is the genuine last stream: work enqueued on
        // MAX_STREAMS−1 and on any id above it forms ONE serial chain.
        let mut t = StreamTimeline::new();
        t.advance_spanned(MAX_STREAMS - 1, HostToDevice, 2.0);
        t.advance_spanned(MAX_STREAMS + 5, DeviceToHost, 3.0); // aliased: same chain
        assert_eq!(t.finish(), 5.0);

        // And distinct out-of-range ids alias each other too.
        let mut t = StreamTimeline::new();
        t.advance_spanned(8, HostToDevice, 2.0);
        t.advance_spanned(9, HostToDevice, 2.0);
        t.sync_stream(u32::MAX);
        assert_eq!(t.floor, 4.0);
    }

    #[test]
    fn advance_returns_completion_time() {
        let mut t = StreamTimeline::new();
        assert_eq!(t.advance_spanned(0, Compute, 2.0).1, 2.0);
        assert_eq!(t.advance_spanned(1, HostToDevice, 3.0).1, 3.0);
        assert_eq!(t.advance_spanned(1, HostToDevice, 1.0), (3.0, 4.0));
    }
}
