//! Access-site collection with stable instruction indices — what the
//! analyser's metrics and every verifier analysis (bounds, races,
//! shared-memory hazards, host lints) read.
//!
//! A consumer of `atgpu_ir::lanemask::walk`, the one walk over a kernel
//! body that the simulator's lowering also consumes, so both read the
//! same lane mask for every access.  Each access records
//!
//! * its **pre-order instruction index** — every [`Instr`] node in the
//!   body (including `Pred`/`Repeat` headers and `Sync`) consumes one
//!   index, children numbered after their parent.  This is the `N` of
//!   `kernel@instr#N` diagnostics, and `atgpu_ir::pretty` annotates the
//!   rendered pseudocode with the same numbers (`▷ #N`), so a verifier
//!   finding can be located in a printout by eye;
//! * its **direction** ([`Access::Read`]/[`Access::Write`]) from the
//!   accessed memory's point of view — `⇐` into shared is a global
//!   *read* plus a shared *write*, and so on;
//! * whether the written value is provably **uniform** across the
//!   active lanes (the shared-memory hazard check needs to distinguish
//!   a benign broadcast from lanes racing different values into one
//!   word).

use atgpu_ir::affine::{CompiledAddr, Corner};
use atgpu_ir::lanemask::{walk, At};
use atgpu_ir::{DBuf, Instr, Kernel};

/// Which memory an access touches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Space {
    /// Device-global memory (buffer-relative offsets).
    Global,
    /// The block's shared memory.
    Shared,
}

/// Access direction, from the accessed memory's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// The memory is read.
    Read,
    /// The memory is written.
    Write,
}

/// One memory access site in a kernel body.
#[derive(Debug, Clone)]
pub struct Site {
    /// Pre-order instruction index (`kernel@instr#N`).
    pub instr: usize,
    /// Memory space accessed.
    pub space: Space,
    /// Direction.
    pub access: Access,
    /// The per-lane address (buffer-relative for global sites).
    pub addr: CompiledAddr,
    /// For global sites, the buffer accessed.
    pub buf: Option<DBuf>,
    /// Trip counts of the enclosing loops, outermost first.
    pub loop_counts: Vec<u32>,
    /// Active-lane mask if the enclosing predicates folded to a
    /// constant; `None` means unknown (analyses over-approximate it to
    /// the full warp for proofs, and refuse witnesses).
    pub lane_mask: Option<u64>,
    /// For write sites: `true` when the stored value is provably the
    /// same in every active lane (a broadcast).  `false` means it *may*
    /// differ.  Reads always record `true`.
    pub uniform_value: bool,
}

impl Site {
    /// The site's lowest and highest address over a launch of `grid`
    /// blocks of `b` lanes, every loop iteration and the active lanes:
    /// [`atgpu_ir::affine::AffineAddr::corners`], with an unknown lane
    /// mask taken as every lane.  That is sound for a bound, but a corner
    /// found under an unknown mask is not known to run.  `None` for a
    /// non-affine address or where `corners` has none.
    pub fn extent(&self, b: u64, grid: (u64, u64)) -> Option<[Corner; 2]> {
        let mask = self.lane_mask.unwrap_or(u64::MAX);
        self.addr.as_affine()?.corners(mask, b, grid, &self.loop_counts)
    }
}

/// True when evaluating `addr` ignores the lane index (every lane reads
/// the same word).
fn lane_invariant(addr: &CompiledAddr) -> bool {
    addr.as_affine().map(|a| a.is_static() && a.lane == 0).unwrap_or(false)
}

/// Collects every access site of `kernel` for a machine with `b` lanes,
/// in program order (a `⇐` yields its global site, then its shared one).
pub fn collect(kernel: &Kernel, b: u64) -> Vec<Site> {
    let mut out = Vec::new();
    walk(&kernel.body, b.clamp(1, 64) as u32, &mut |at: &At<'_>, instr: &Instr| {
        let mut push = |space, access, addr: &CompiledAddr, buf, uniform_value| {
            out.push(Site {
                instr: at.instr,
                space,
                access,
                addr: addr.clone(),
                buf,
                loop_counts: at.loops.to_vec(),
                lane_mask: at.mask,
                uniform_value,
            });
        };
        match instr {
            Instr::GlbToShr { shared, global } => {
                push(Space::Global, Access::Read, &global.offset, Some(global.buf), true);
                let uniform = lane_invariant(&global.offset);
                push(Space::Shared, Access::Write, shared, None, uniform);
            }
            Instr::ShrToGlb { global, shared } => {
                let uniform = lane_invariant(shared);
                push(Space::Global, Access::Write, &global.offset, Some(global.buf), uniform);
                push(Space::Shared, Access::Read, shared, None, true);
            }
            Instr::LdShr { shared, .. } => push(Space::Shared, Access::Read, shared, None, true),
            Instr::StShr { shared, src } => {
                push(Space::Shared, Access::Write, shared, None, at.same_in_every_lane(*src));
            }
            _ => {}
        }
    });
    out
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use atgpu_ir::{AddrExpr, AluOp, DBuf, KernelBuilder, Operand, PredExpr};

    #[test]
    fn directions_and_indices_are_preorder() {
        let mut kb = KernelBuilder::new("k", 4, 64);
        let d = DBuf(0);
        // #0 ⇐ (global read + shared write)
        kb.glb_to_shr(AddrExpr::lane(), d, AddrExpr::block() * 32 + AddrExpr::lane());
        // #1 Repeat header, #2 LdShr, #3 if-header, #4 StShr
        kb.repeat(3, |kb| {
            kb.ld_shr(0, AddrExpr::lane());
            kb.when(PredExpr::Lt(Operand::Lane, Operand::Imm(4)), |kb| {
                kb.st_shr(AddrExpr::lane() + 32, Operand::Reg(0));
            });
        });
        // #5 ⇐ out (global write + shared read)
        kb.shr_to_glb(d, AddrExpr::block() * 32 + AddrExpr::lane(), AddrExpr::lane() + 32);
        let sites = collect(&kb.build(), 32);

        let tags: Vec<(usize, Space, Access)> =
            sites.iter().map(|s| (s.instr, s.space, s.access)).collect();
        assert_eq!(
            tags,
            vec![
                (0, Space::Global, Access::Read),
                (0, Space::Shared, Access::Write),
                (2, Space::Shared, Access::Read),
                (4, Space::Shared, Access::Write),
                (5, Space::Global, Access::Write),
                (5, Space::Shared, Access::Read),
            ]
        );
        // The predicated store sees the folded `j < 4` mask and the
        // loop count.
        let st = &sites[3];
        assert_eq!(st.lane_mask, Some(0b1111));
        assert_eq!(st.loop_counts, vec![3]);
    }

    #[test]
    fn uniform_value_detection() {
        let mut kb = KernelBuilder::new("k", 2, 64);
        let d = DBuf(0);
        kb.st_shr(AddrExpr::lane(), Operand::Imm(7)); // broadcast
        kb.st_shr(AddrExpr::lane(), Operand::Lane); // varies

        // A warp-uniform register (`1 << t`) stores one value.
        kb.repeat(2, |kb| {
            kb.alu(AluOp::Shl, 0, Operand::Imm(1), Operand::LoopVar(0));
            kb.st_shr(AddrExpr::lane(), Operand::Reg(0));
        });

        // Global write copying one shared word everywhere: uniform.
        kb.shr_to_glb(d, AddrExpr::block(), AddrExpr::c(3));
        // Global write copying per-lane shared words: varies.
        kb.shr_to_glb(d, AddrExpr::block() * 32 + AddrExpr::lane(), AddrExpr::lane());
        let sites = collect(&kb.build(), 32);
        let writes: Vec<bool> =
            sites.iter().filter(|s| s.access == Access::Write).map(|s| s.uniform_value).collect();
        assert_eq!(writes, vec![true, false, true, true, false]);
    }
}
