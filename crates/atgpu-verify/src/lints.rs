//! Host-step dataflow lints.
//!
//! Advisory analyses over a program's rounds — wasteful or suspicious
//! transfer patterns that are *not* unsoundness (the differential
//! suites define functional correctness) but almost always indicate a
//! bug or a wasted PCIe round trip:
//!
//! * [`Lint::UseBeforeTransfer`] — a kernel reads a device buffer that
//!   no transfer or earlier kernel ever wrote: it computes on
//!   uninitialised memory;
//! * [`Lint::DeadTransferOut`] — a device→host transfer sources a
//!   buffer nothing ever wrote: it copies garbage;
//! * [`Lint::RedundantTransferIn`] — a transfer re-uploads exactly the
//!   bytes already resident (same source, same destination region, no
//!   intervening write to either side);
//! * [`Lint::MisPipelined`] — a `TransferIn` on a non-default stream
//!   overlaps, **in the same round and in the region the kernel
//!   statically reads** (each read's extent by the extent rule,
//!   [`atgpu_ir::affine::AffineAddr::corners`]), the launch it feeds,
//!   with no stream sync in between.  Streams only overlap timing, never reorder host-step
//!   semantics, so this is the documented mis-pipelining caveat
//!   promoted from prose to a checked lint.  Double-buffering schemes
//!   that prefetch a *different* region (the out-of-core workloads) do
//!   not trip it.

use atgpu_analyze::sites::{Access, Site, Space};
use atgpu_ir::{DBuf, HostStep, Kernel, Program};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// One host-dataflow finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Lint {
    /// Round `round`'s kernel reads `buf` before anything wrote it.
    UseBeforeTransfer {
        /// Round index.
        round: usize,
        /// Kernel name.
        kernel: String,
        /// The uninitialised buffer.
        buf: DBuf,
    },
    /// Round `round` transfers out of `buf`, which nothing ever wrote.
    DeadTransferOut {
        /// Round index.
        round: usize,
        /// The garbage source buffer.
        buf: DBuf,
    },
    /// Round `round` re-uploads bytes already resident in `buf`.
    RedundantTransferIn {
        /// Round index.
        round: usize,
        /// The destination buffer.
        buf: DBuf,
    },
    /// A streamed upload into `buf` overlaps the same round's kernel
    /// read of that region with no sync in between.
    MisPipelined {
        /// Round index.
        round: usize,
        /// Kernel name.
        kernel: String,
        /// The buffer being uploaded and concurrently read.
        buf: DBuf,
    },
}

impl fmt::Display for Lint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Lint::UseBeforeTransfer { round, kernel, buf } => write!(
                f,
                "round {round}: kernel `{kernel}` reads {buf} before any transfer or kernel wrote it"
            ),
            Lint::DeadTransferOut { round, buf } => {
                write!(f, "round {round}: transfer-out sources {buf}, which nothing ever wrote")
            }
            Lint::RedundantTransferIn { round, buf } => {
                write!(f, "round {round}: transfer-in re-uploads bytes already resident in {buf}")
            }
            Lint::MisPipelined { round, kernel, buf } => write!(
                f,
                "round {round}: streamed upload into {buf} overlaps kernel `{kernel}`'s read of \
                 the same region with no stream sync between them"
            ),
        }
    }
}

/// Static global-buffer footprint of one kernel: what the lints read of
/// a launch.  It depends on the kernel's structure and `b` alone, so a
/// launch of the previous launch's kernel reuses its footprint
/// ([`crate::verify_program`], [`atgpu_ir::Kernel::same_structure`]).
#[derive(Debug)]
pub struct KernelIo {
    /// Buffers read, with the statically-known extent of each read
    /// (`None` = data-dependent, treated as "anywhere").
    reads: Vec<(DBuf, Option<(i128, i128)>)>,
    /// Buffers written (by any site, static or not), each once.
    writes: Vec<DBuf>,
}

/// The footprint of kernel `k` from its already collected `sites`.
pub fn kernel_io(k: &Kernel, sites: &[Site], b: u64) -> KernelIo {
    let mut reads = Vec::new();
    let mut writes = Vec::new();
    for s in sites {
        if s.space != Space::Global {
            continue;
        }
        let Some(buf) = s.buf else { continue };
        if s.lane_mask == Some(0) || s.loop_counts.contains(&0) {
            continue;
        }
        match s.access {
            Access::Read => {
                let extent = s.extent(b, k.grid);
                reads.push((buf, extent.map(|[lo, hi]| (lo.addr, hi.addr))));
            }
            Access::Write if !writes.contains(&buf) => writes.push(buf),
            Access::Write => {}
        }
    }
    KernelIo { reads, writes }
}

fn overlaps(range: Option<(i128, i128)>, lo: i128, hi: i128) -> bool {
    match range {
        Some((a, b)) => a <= hi && lo <= b,
        None => true, // unknown read range: assume it may touch the region
    }
}

/// Signature of an upload, for redundancy detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct UploadSig {
    device: u32,
    host: u32,
    host_off: u64,
    dev_off: u64,
    words: u64,
}

/// A streamed upload still "in flight" within the round.
struct PendingUpload {
    device: u32,
    stream: u32,
    buf: DBuf,
    lo: i128,
    hi: i128,
}

/// Runs every host-dataflow lint over `program`; `launch_io` yields each
/// launch step's kernel footprint ([`kernel_io`]), in program order.
pub fn check_launches<'a>(
    program: &Program,
    launch_io: impl IntoIterator<Item = &'a KernelIo>,
) -> Vec<Lint> {
    let mut launch_io = launch_io.into_iter();
    let mut lints = Vec::new();
    // Coarse residency: has anything (transfer or kernel) written this
    // device buffer yet?  Replicas are tracked together — sharded
    // launches merge write logs across devices, so per-device tracking
    // would only manufacture false positives.
    let mut written: HashSet<DBuf> = HashSet::new();
    // Resident upload signatures per destination buffer, invalidated by
    // any write to the buffer or to the source host buffer.
    let mut resident: HashMap<DBuf, HashSet<UploadSig>> = HashMap::new();
    for (ri, round) in program.rounds.iter().enumerate() {
        let mut pending: Vec<PendingUpload> = Vec::new();
        for step in &round.steps {
            match step {
                HostStep::TransferIn { host, host_off, dev, dev_off, words, device, stream } => {
                    let sig = UploadSig {
                        device: *device,
                        host: host.0,
                        host_off: *host_off,
                        dev_off: *dev_off,
                        words: *words,
                    };
                    let sigs = resident.entry(*dev).or_default();
                    if !sigs.insert(sig) {
                        lints.push(Lint::RedundantTransferIn { round: ri, buf: *dev });
                    }
                    written.insert(*dev);
                    if *stream != 0 && *words > 0 {
                        pending.push(PendingUpload {
                            device: *device,
                            stream: *stream,
                            buf: *dev,
                            lo: i128::from(*dev_off),
                            hi: i128::from(*dev_off) + i128::from(*words) - 1,
                        });
                    }
                }
                HostStep::TransferOut { dev, host, .. } => {
                    if !written.contains(dev) {
                        lints.push(Lint::DeadTransferOut { round: ri, buf: *dev });
                    }
                    // The host buffer changed: uploads sourced from it
                    // are no longer trivially redundant.
                    for sigs in resident.values_mut() {
                        sigs.retain(|s| s.host != host.0);
                    }
                }
                HostStep::TransferPeer { buf, .. } => {
                    written.insert(*buf);
                    resident.remove(buf);
                }
                HostStep::SyncStream { device, stream } => {
                    pending.retain(|p| !(p.device == *device && p.stream == *stream));
                }
                HostStep::SyncDevice { device } => {
                    pending.retain(|p| p.device != *device);
                }
                HostStep::Launch(k) | HostStep::LaunchSharded { kernel: k, .. } => {
                    let devices: HashSet<u32> = match step {
                        HostStep::LaunchSharded { shards, .. } => {
                            shards.iter().map(|s| s.device).collect()
                        }
                        _ => std::iter::once(0).collect(),
                    };
                    let Some(io) = launch_io.next() else { continue };
                    let mut flagged: HashSet<DBuf> = HashSet::new();
                    for (buf, range) in &io.reads {
                        if !written.contains(buf) && flagged.insert(*buf) {
                            lints.push(Lint::UseBeforeTransfer {
                                round: ri,
                                kernel: k.name.clone(),
                                buf: *buf,
                            });
                        }
                        for p in &pending {
                            if p.buf == *buf
                                && devices.contains(&p.device)
                                && overlaps(*range, p.lo, p.hi)
                            {
                                lints.push(Lint::MisPipelined {
                                    round: ri,
                                    kernel: k.name.clone(),
                                    buf: *buf,
                                });
                            }
                        }
                    }
                    for buf in &io.writes {
                        written.insert(*buf);
                        resident.remove(buf);
                    }
                }
            }
        }
    }
    lints.dedup();
    lints
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing, clippy::panic)]
mod tests {
    use super::*;
    use atgpu_ir::{AddrExpr, KernelBuilder, ProgramBuilder};

    fn reader_kernel(buf: DBuf) -> Kernel {
        let mut kb = KernelBuilder::new("reader", 2, 32);
        kb.glb_to_shr(AddrExpr::lane(), buf, AddrExpr::block() * 32 + AddrExpr::lane());
        kb.build()
    }

    fn writer_kernel(buf: DBuf) -> Kernel {
        let mut kb = KernelBuilder::new("writer", 2, 32);
        kb.shr_to_glb(buf, AddrExpr::block() * 32 + AddrExpr::lane(), AddrExpr::lane());
        kb.build()
    }

    #[test]
    fn clean_round_trip_has_no_lints() {
        let mut pb = ProgramBuilder::new("p");
        let h = pb.host_input("A", 64);
        let o = pb.host_output("C", 64);
        let d = pb.device_alloc("a", 64);
        pb.transfer_in(h, d, 64);
        pb.launch(writer_kernel(d));
        pb.transfer_out(d, o, 64);
        let p = pb.build().unwrap();
        assert!(crate::verify_program(&p, 32).lints.is_empty());
    }

    #[test]
    fn use_before_transfer_flagged() {
        let mut pb = ProgramBuilder::new("p");
        let _h = pb.host_input("A", 64);
        let o = pb.host_output("C", 64);
        let d = pb.device_alloc("a", 64);
        let e = pb.device_alloc("b", 64);
        pb.launch(reader_kernel(d));
        pb.transfer_out(e, o, 64);
        let p = pb.build().unwrap();
        let lints = crate::verify_program(&p, 32).lints;
        assert!(lints
            .iter()
            .any(|l| matches!(l, Lint::UseBeforeTransfer { round: 0, buf, .. } if *buf == d)));
        assert!(lints
            .iter()
            .any(|l| matches!(l, Lint::DeadTransferOut { round: 0, buf } if *buf == e)));
    }

    #[test]
    fn redundant_reupload_flagged_and_invalidated_by_kernel_write() {
        let mut pb = ProgramBuilder::new("p");
        let h = pb.host_input("A", 64);
        let o = pb.host_output("C", 64);
        let d = pb.device_alloc("a", 64);
        pb.begin_round();
        pb.transfer_in(h, d, 64);
        pb.launch(reader_kernel(d));
        pb.begin_round();
        pb.transfer_in(h, d, 64); // nothing changed: redundant
        pb.launch(writer_kernel(d));
        pb.begin_round();
        pb.transfer_in(h, d, 64); // kernel rewrote d: NOT redundant
        pb.launch(reader_kernel(d));
        pb.transfer_out(d, o, 64);
        let p = pb.build().unwrap();
        let redundant: Vec<_> = crate::verify_program(&p, 32)
            .lints
            .into_iter()
            .filter(|l| matches!(l, Lint::RedundantTransferIn { .. }))
            .collect();
        assert_eq!(redundant, vec![Lint::RedundantTransferIn { round: 1, buf: d }]);
    }

    #[test]
    fn mispipelined_streamed_upload_flagged_and_sync_clears_it() {
        let build = |synced: bool, disjoint: bool| {
            let mut pb = ProgramBuilder::new("p");
            let h = pb.host_input("A", 128);
            let o = pb.host_output("C", 128);
            let d = pb.device_alloc("a", 128);
            pb.begin_round();
            // Warm the low half so the kernel's read is initialised.
            pb.transfer_in_at(h, 0, d, 0, 64);
            // Streamed upload: overlapping the read region, or prefetching
            // the disjoint high half.
            let off = if disjoint { 64 } else { 0 };
            pb.transfer_in_streamed(0, 1, h, off, d, off, 64);
            if synced {
                pb.sync_stream(0, 1);
            }
            pb.launch(reader_kernel(d)); // reads [0, 64)
            pb.transfer_out(d, o, 64);
            pb.build().unwrap()
        };
        let mis = |p: &Program| {
            crate::verify_program(p, 32)
                .lints
                .into_iter()
                .filter(|l| matches!(l, Lint::MisPipelined { .. }))
                .count()
        };
        assert_eq!(mis(&build(false, false)), 1, "unsynced overlapping upload");
        assert_eq!(mis(&build(true, false)), 0, "sync clears it");
        assert_eq!(mis(&build(false, true)), 0, "disjoint prefetch is the good pattern");
    }
}
