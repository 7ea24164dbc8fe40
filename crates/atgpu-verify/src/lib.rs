//! # atgpu-verify — static soundness verifier for ATGPU programs
//!
//! Every determinism guarantee the stack leans on — the block-order
//! write-log merge for sharded launches, degraded-mode journal replay,
//! the serve fast path — assumes kernels whose blocks
//! write disjoint global words and whose accesses stay inside their
//! allocations.  The dynamic differential suites *check* those
//! properties on sampled inputs; this crate **proves** them (or
//! produces a concrete counterexample) from the IR alone, exploiting
//! the fact that the model's addressing is affine.
//!
//! Four analyses over a validated [`atgpu_ir::Program`]:
//!
//! 1. **Affine bounds** ([`bounds`]) — the extent rule
//!    [`atgpu_ir::affine::AffineAddr::corners`] across blocks × active
//!    lanes × loop iterations against the program's allocations: both
//!    corners inside is the proof, the corner that escapes is the
//!    `(block, lane, iteration)` witness;
//! 2. **Cross-block write races** ([`race`]) — a bounded linear-
//!    Diophantine decision procedure ([`solve`]) over each pair of
//!    global write sites, with block distinctness encoded by relaxed
//!    split substitutions; `RaceFree` is proven, `Racy` carries a
//!    re-evaluated two-block witness, everything else is `Unknown`;
//! 3. **Host-step dataflow lints** ([`lints`]) — use-before-transfer,
//!    dead transfer-out, redundant re-upload, and region-aware
//!    mis-pipelining of streamed uploads;
//! 4. **Shared-memory hazards** ([`smem`]) — multi-lane non-uniform
//!    stores to one shared word, reusing the IR's access-shape
//!    classification.
//!
//! # Static verification
//!
//! [`verify_program`] runs everything and returns a [`VerifyReport`];
//! [`VerifyReport::is_sound`] gates admission (this is what
//! `atgpu-serve` consults before pricing or running a submission).  A
//! racy kernel is rejected with a two-block witness; fixing its write
//! stride makes the same program verify clean:
//!
//! ```
//! use atgpu_ir::{AddrExpr, KernelBuilder, ProgramBuilder};
//! use atgpu_verify::verify_program;
//!
//! fn demo(stride: i64) -> atgpu_ir::Program {
//!     let mut pb = ProgramBuilder::new("demo");
//!     let h = pb.host_input("A", 256);
//!     let o = pb.host_output("C", 256);
//!     let da = pb.device_alloc("a", 256);
//!     let dc = pb.device_alloc("c", 256);
//!     let mut kb = KernelBuilder::new("copy", 4, 32);
//!     kb.glb_to_shr(AddrExpr::lane(), da, AddrExpr::block() * 32 + AddrExpr::lane());
//!     kb.shr_to_glb(dc, AddrExpr::block() * stride + AddrExpr::lane(), AddrExpr::lane());
//!     pb.transfer_in(h, da, 256);
//!     pb.launch(kb.build());
//!     pb.transfer_out(dc, o, 256);
//!     pb.build().expect("structurally valid")
//! }
//!
//! // Write stride 16 < 32 lanes: neighbouring blocks overlap, and the
//! // result would depend on the shard plan's merge order.  Rejected,
//! // with a concrete two-block collision.
//! let racy = verify_program(&demo(16), 32);
//! assert!(!racy.is_sound());
//! let why = racy.first_unsoundness().expect("unsound");
//! assert!(why.to_string().contains("copy@instr#"));
//!
//! // Stride 32 tiles the output disjointly: proven race-free.
//! assert!(verify_program(&demo(32), 32).is_sound());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
// The verifier sits on the serve admission path: a panic inside it is a
// denial-of-service on the front-end, so panicking APIs are denied
// crate-wide (test modules opt back in locally).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::indexing_slicing)]

pub mod bounds;
pub mod lints;
pub mod race;
pub mod smem;
pub mod solve;

pub use bounds::{BoundsVerdict, OobWitness};
pub use lints::Lint;
pub use race::{RaceVerdict, RaceWitness};
pub use smem::SmemHazard;

use atgpu_ir::{HostStep, Kernel, Program};
use std::fmt;
use std::rc::Rc;

/// A proven out-of-bounds access in one launch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OobFinding {
    /// Instruction index (`kernel@instr#N`).
    pub instr: usize,
    /// The validated witness.
    pub witness: OobWitness,
}

/// Verification results for one kernel launch (one round).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaunchReport {
    /// Round index.
    pub round: usize,
    /// Kernel name.
    pub kernel: String,
    /// Cross-block write-race verdict.
    pub race: RaceVerdict,
    /// Proven out-of-bounds accesses.
    pub oob: Vec<OobFinding>,
    /// Access sites whose bounds could not be decided (data-dependent
    /// addressing) — informational, not unsound.
    pub bounds_unknown: usize,
    /// Shared-memory write hazards (definite ones are unsound-adjacent
    /// but deterministic per block; all are surfaced for tooling).
    pub smem: Vec<SmemHazard>,
}

/// Why a program failed verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Unsoundness {
    /// Two distinct blocks write the same global word: the result
    /// depends on the shard plan's merge order.
    Racy {
        /// Round index.
        round: usize,
        /// Kernel name.
        kernel: String,
        /// The validated two-block collision.
        witness: RaceWitness,
    },
    /// An access provably escapes its allocation.
    OutOfBounds {
        /// Round index.
        round: usize,
        /// Kernel name.
        kernel: String,
        /// Instruction index (`kernel@instr#N`).
        instr: usize,
        /// The validated witness.
        witness: OobWitness,
    },
}

impl fmt::Display for Unsoundness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Unsoundness::Racy { round, kernel, witness } => {
                let (ia, ba, la, ta) = (&witness.a.0, witness.a.1, witness.a.2, &witness.a.3);
                let (ib, bb, lb, tb) = (&witness.b.0, witness.b.1, witness.b.2, &witness.b.3);
                write!(
                    f,
                    "round {round}: kernel `{kernel}` has a cross-block write race on word \
                     {addr}: {kernel}@instr#{ia} (block ({},{}), lane {la}, iters {ta:?}) vs \
                     {kernel}@instr#{ib} (block ({},{}), lane {lb}, iters {tb:?})",
                    ba.0,
                    ba.1,
                    bb.0,
                    bb.1,
                    addr = witness.addr,
                )
            }
            Unsoundness::OutOfBounds { round, kernel, instr, witness } => write!(
                f,
                "round {round}: {kernel}@instr#{instr} accesses word {} of a {}-word \
                 allocation at block ({},{}), lane {}, iters {:?}",
                witness.addr,
                witness.limit,
                witness.block.0,
                witness.block.1,
                witness.lane,
                witness.loops,
            ),
        }
    }
}

/// Full verification report for a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyReport {
    /// Program name.
    pub program: String,
    /// Per-launch results, one per kernel round.
    pub launches: Vec<LaunchReport>,
    /// Host-dataflow lints (advisory).
    pub lints: Vec<Lint>,
}

impl VerifyReport {
    /// `true` when no launch is proven racy or out-of-bounds.
    /// `Unknown` race verdicts and undecided bounds are admissible —
    /// the dynamic differential suites own those — so this is the
    /// admission gate, not a proof of full soundness.
    pub fn is_sound(&self) -> bool {
        self.first_unsoundness().is_none()
    }

    /// `true` when every launch is *proven* race-free (no `Unknown`).
    pub fn all_race_free(&self) -> bool {
        self.launches.iter().all(|l| l.race == RaceVerdict::RaceFree)
    }

    /// The first proven defect, if any.
    pub fn first_unsoundness(&self) -> Option<Unsoundness> {
        for l in &self.launches {
            if let RaceVerdict::Racy(w) = &l.race {
                return Some(Unsoundness::Racy {
                    round: l.round,
                    kernel: l.kernel.clone(),
                    witness: w.clone(),
                });
            }
            if let Some(o) = l.oob.first() {
                return Some(Unsoundness::OutOfBounds {
                    round: l.round,
                    kernel: l.kernel.clone(),
                    instr: o.instr,
                    witness: o.witness.clone(),
                });
            }
        }
        None
    }
}

/// What the per-kernel analyses found in one kernel, with its global
/// footprint for the lints.
struct KernelFindings {
    io: lints::KernelIo,
    race: RaceVerdict,
    oob: Vec<OobFinding>,
    bounds_unknown: usize,
    smem: Vec<SmemHazard>,
}

impl KernelFindings {
    /// Collects `kernel`'s access sites once and runs every per-kernel
    /// analysis over that one walk.
    fn of(program: &Program, kernel: &Kernel, b: u64) -> Self {
        let sites = atgpu_analyze::sites::collect(kernel, b);
        let mut oob = Vec::new();
        let mut bounds_unknown = 0usize;
        for site in &sites {
            match bounds::check_site(program, kernel, site, b) {
                BoundsVerdict::InBounds => {}
                BoundsVerdict::Unknown => bounds_unknown += 1,
                BoundsVerdict::OutOfBounds(w) => {
                    oob.push(OobFinding { instr: site.instr, witness: w });
                }
            }
        }
        KernelFindings {
            io: lints::kernel_io(kernel, &sites, b),
            race: race::check_sites(kernel, &sites, b),
            smem: smem::check_sites(&sites, b),
            oob,
            bounds_unknown,
        }
    }
}

/// Verifies `program` for a machine with `b` lanes per block: race
/// check, bounds check and shared-memory hazards per launch, plus the
/// host-dataflow lints.
///
/// A launch's kernel has its access sites collected once, and the
/// bounds, race, shared-memory and footprint analyses all read that one
/// walk.  A launch of the previous launch's kernel reuses its findings,
/// by the rule stated at [`atgpu_ir::Kernel::same_structure`]: the
/// findings depend only on the kernel's structure, the program's
/// allocations and `b`, all fixed within one call.
///
/// The analyses assume a valid program: [`Program::check`] must pass
/// first (a built program has passed it).  A debug build asserts it.
pub fn verify_program(program: &Program, b: u64) -> VerifyReport {
    debug_assert_eq!(program.check(), Ok(()), "verify_program needs a checked program");
    let mut previous: Option<(&Kernel, Rc<KernelFindings>)> = None;
    // (round, kernel, findings) per launch step, in program order.
    let mut found = Vec::new();
    for (ri, round) in program.rounds.iter().enumerate() {
        for (kernel, _) in round.steps.iter().filter_map(HostStep::launch) {
            let findings = match &previous {
                Some((k, f)) if k.same_structure(kernel) => Rc::clone(f),
                _ => Rc::new(KernelFindings::of(program, kernel, b)),
            };
            previous = Some((kernel, Rc::clone(&findings)));
            found.push((ri, kernel, findings));
        }
    }
    VerifyReport {
        program: program.name.clone(),
        lints: lints::check_launches(program, found.iter().map(|(_, _, f)| &f.io)),
        launches: found
            .iter()
            .map(|(round, kernel, f)| LaunchReport {
                round: *round,
                kernel: kernel.name.clone(),
                race: f.race.clone(),
                oob: f.oob.clone(),
                bounds_unknown: f.bounds_unknown,
                smem: f.smem.clone(),
            })
            .collect(),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing, clippy::panic)]
mod tests {
    use super::*;
    use atgpu_ir::{AddrExpr, KernelBuilder, ProgramBuilder};

    fn slab_program(write_stride: i64, out_words: u64) -> Program {
        let mut pb = ProgramBuilder::new("p");
        let h = pb.host_input("A", 128);
        let o = pb.host_output("C", out_words);
        let da = pb.device_alloc("a", 128);
        let dc = pb.device_alloc("c", out_words);
        let mut kb = KernelBuilder::new("copy", 4, 32);
        kb.glb_to_shr(AddrExpr::lane(), da, AddrExpr::block() * 32 + AddrExpr::lane());
        kb.shr_to_glb(dc, AddrExpr::block() * write_stride + AddrExpr::lane(), AddrExpr::lane());
        pb.transfer_in(h, da, 128);
        pb.launch(kb.build());
        pb.transfer_out(dc, o, out_words);
        pb.build().unwrap()
    }

    #[test]
    fn sound_program_reports_clean() {
        let r = verify_program(&slab_program(32, 128), 32);
        assert!(r.is_sound());
        assert!(r.all_race_free());
        assert!(r.lints.is_empty());
        assert_eq!(r.launches.len(), 1);
        assert_eq!(r.launches[0].bounds_unknown, 0);
    }

    #[test]
    fn racy_program_rejected_with_located_witness() {
        let r = verify_program(&slab_program(16, 128), 32);
        assert!(!r.is_sound());
        let why = r.first_unsoundness().unwrap();
        assert!(matches!(why, Unsoundness::Racy { round: 0, .. }));
        let msg = why.to_string();
        assert!(msg.contains("copy@instr#1"), "witness names the write site: {msg}");
    }

    #[test]
    fn oob_program_rejected_with_located_witness() {
        // 4 blocks × stride 32 write [0, 128) into a 64-word buffer
        // (already block-aligned, so the padded slot is also 64 words).
        let r = verify_program(&slab_program(32, 64), 32);
        assert!(!r.is_sound());
        let why = r.first_unsoundness().unwrap();
        match &why {
            Unsoundness::OutOfBounds { instr: 1, witness, .. } => {
                assert_eq!(witness.limit, 64);
                assert!(witness.addr >= 64);
            }
            w => panic!("expected OOB at instr 1, got {w:?}"),
        }
        assert!(why.to_string().contains("copy@instr#1"));
    }

    #[test]
    fn repeated_kernel_rounds_are_memoized() {
        let mut pb = ProgramBuilder::new("p");
        let h = pb.host_input("A", 128);
        let o = pb.host_output("C", 128);
        let d = pb.device_alloc("a", 128);
        let mut kb = KernelBuilder::new("k", 4, 32);
        kb.glb_to_shr(AddrExpr::lane(), d, AddrExpr::block() * 32 + AddrExpr::lane());
        kb.shr_to_glb(d, AddrExpr::block() * 32 + AddrExpr::lane(), AddrExpr::lane());
        let k = kb.build();
        pb.begin_round();
        pb.transfer_in(h, d, 128);
        pb.launch(k.clone());
        for _ in 0..3 {
            pb.begin_round();
            pb.launch(k.clone());
        }
        pb.begin_round();
        pb.launch(k);
        pb.transfer_out(d, o, 128);
        let r = verify_program(&pb.build().unwrap(), 32);
        assert_eq!(r.launches.len(), 5);
        assert!(r.is_sound());
        // All five launches share the first launch's verdict.
        assert!(r.launches.iter().all(|l| l.race == RaceVerdict::RaceFree));
    }

    /// Reuse never crosses kernels: launches alternating between a clean
    /// kernel, a racy one and a renamed copy of the clean one each get
    /// their own kernel's findings under their own name.
    #[test]
    fn reused_findings_follow_the_kernel() {
        let mut pb = ProgramBuilder::new("p");
        let h = pb.host_input("A", 128);
        let d = pb.device_alloc("a", 128);
        let kernel = |name: &str, stride: i64| {
            let mut kb = KernelBuilder::new(name, 4, 32);
            kb.glb_to_shr(AddrExpr::lane(), d, AddrExpr::block() * 32 + AddrExpr::lane());
            kb.shr_to_glb(d, AddrExpr::block() * stride + AddrExpr::lane(), AddrExpr::lane());
            kb.build()
        };
        pb.begin_round();
        pb.transfer_in(h, d, 128);
        for k in [kernel("clean", 32), kernel("clean", 32), kernel("racy", 16), kernel("copy", 32)]
        {
            pb.begin_round();
            pb.launch(k);
        }
        let r = verify_program(&pb.build().unwrap(), 32);
        let seen: Vec<(&str, bool)> = r
            .launches
            .iter()
            .map(|l| (l.kernel.as_str(), l.race == RaceVerdict::RaceFree))
            .collect();
        assert_eq!(seen, [("clean", true), ("clean", true), ("racy", false), ("copy", true)]);
    }
}
