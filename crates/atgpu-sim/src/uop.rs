//! The flat micro-op program: `Kernel` IR lowered **once per launch**
//! into a linear instruction stream with precomputed per-site access
//! shapes.
//!
//! [`CompiledKernel::compile`] is a consumer of [`atgpu_ir::lanemask::walk`],
//! the one walk over a kernel body that the analyser's site collection
//! also consumes: it emits ops as the walk reports nodes and patches
//! jump targets as constructs close, keeping only a stack of the
//! constructs still open.  Every thread block then executes the same
//! flat `Vec<Uop>` with explicit jump offsets — no frame stack, no tree
//! traversal, no per-instruction allocation.  A zero-trip or empty loop
//! emits nothing.
//!
//! Compilation also classifies every memory access site
//! ([`Site`]/[`FastPath`]):
//!
//! * affine sites keep their address in evaluation form, global ones
//!   with the buffer base folded into the affine constant;
//! * unit-stride, broadcast and strided shapes are tagged so the executor
//!   moves whole rows — one bounds check at the lowest and highest active
//!   lane, then one gather or scatter pass — instead of evaluating and
//!   checking an address per lane, and costs the row by the closed forms
//!   of [`atgpu_ir::affine`] (blocks from the row's ends and stride, bank
//!   degree from its stride and span);
//! * **uniform-affine** shapes — `lane·c ± reg` over a register the
//!   walk proves warp-uniform ([`At::is_uniform`]: written
//!   under the full mask from immediates, block and loop indices and
//!   other uniform registers, like scan's `1 << t`) — are classified by
//!   their lane stride exactly as static ones: the register adds one
//!   offset to the whole warp, read once per access;
//! * **masked-affine** shapes — an affine stride under a compile-time
//!   active-lane mask — carry the mask, and shared ones their exact bank
//!   degree under it: a sparse mask (an interleaved reduction's
//!   `0x5555…`) would otherwise be scanned on every access.  Masks come
//!   from lane/immediate predicates *and* from predicates over lane-pure
//!   registers (constant-folded by the walk), which covers the
//!   shrinking partial-warp phases of tree reductions;
//! * everything else falls back to dynamic evaluation over fixed scratch
//!   buffers (still allocation-free).
//!
//! A site holds no table: lowering allocates nothing per site beyond the
//! [`Site`] itself, and an access's event is computed from its row as it
//! executes (see [`crate::engine`]).
//!
//! Lowering is on the path of every submitted kernel, so the module
//! denies the panicking calls.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use atgpu_ir::affine::{masked_conflict_degree, AffineAddr, CompiledAddr};
use atgpu_ir::lanemask::{walk, At, Visit};
use atgpu_ir::{AddrExpr, AluOp, Instr, Kernel, Operand, PredExpr, Reg, MAX_LOOP_DEPTH};

/// Index into [`CompiledKernel::sites`].  An instruction has at most two
/// sites, so a kernel body that fits in memory cannot exhaust it.
pub type SiteId = u32;

/// One flat micro-operation.  Control flow uses absolute program-counter
/// targets computed at compile time.
#[derive(Debug, Clone)]
pub enum Uop {
    /// `dst ← a op b` per active lane.
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination register.
        dst: Reg,
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
    },
    /// `dst ← src` per active lane.
    Mov {
        /// Destination register.
        dst: Reg,
        /// Source operand.
        src: Operand,
    },
    /// Register load from shared memory.
    LdShr {
        /// Destination register.
        dst: Reg,
        /// Shared-memory site.
        site: SiteId,
    },
    /// Operand store to shared memory.
    StShr {
        /// Shared-memory site.
        site: SiteId,
        /// Stored operand.
        src: Operand,
    },
    /// Warp-wide global→shared copy.
    GlbToShr {
        /// Shared-memory destination site.
        shared: SiteId,
        /// Global-memory source site.
        global: SiteId,
    },
    /// Warp-wide shared→global copy.
    ShrToGlb {
        /// Global-memory destination site.
        global: SiteId,
        /// Shared-memory source site.
        shared: SiteId,
    },
    /// Intra-block barrier (one issue slot).
    Sync,
    /// Divergence point.  The then-region starts at `pc + 1`; the
    /// else-region (if `else_start < join`) at `else_start`; `join` is
    /// the first op after the whole construct.
    Branch {
        /// Per-lane condition.
        pred: PredExpr,
        /// Compile-time then-mask for lane/immediate-only predicates
        /// (intersect with the parent mask at run time).
        const_then: Option<u64>,
        /// Start of the else-region (`== join` when there is none).
        else_start: u32,
        /// First op after the construct.
        join: u32,
    },
    /// End of a then-region: switch to the pending else arm or rejoin.
    ThenEnd {
        /// First op after the construct.
        join: u32,
    },
    /// End of an else-region: pop the arm and rejoin.
    ElseEnd,
    /// Loop entry: zero the iteration counter at `depth`.
    LoopStart {
        /// Loop nesting depth (index into the counter array).
        depth: u8,
    },
    /// Loop back-edge: bump the counter, jump to `body_start` while
    /// `counter < count`.
    LoopEnd {
        /// Loop nesting depth.
        depth: u8,
        /// Trip count (compile guarantees ≥ 1).
        count: u32,
        /// First op of the loop body.
        body_start: u32,
    },
}

/// Executor fast-path classification of a site's per-lane address.  The
/// first three are affine with a warp-uniform offset — static, or a
/// warp-uniform register's (see the module docs) — so lane `l` addresses
/// `offset + stride·l`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FastPath {
    /// Lane stride 1: the warp touches a contiguous word range.
    Unit,
    /// Lane stride 0: every lane addresses the same word.
    Broadcast,
    /// Another lane stride.
    Strided,
    /// Lane-varying register affine or non-affine tree: evaluate per lane.
    Dynamic,
}

/// The address of a [`Site`] in evaluation form.  Global sites fold the
/// buffer base into the affine constant; tree fallbacks keep it in
/// `Site::gbase`.
#[derive(Debug, Clone)]
pub enum SiteAddr {
    /// Affine fast form.
    Affine(AffineAddr),
    /// Interpreted tree fallback.
    Tree(AddrExpr),
}

/// One memory access site with its compile-time access shape.
#[derive(Debug, Clone)]
pub struct Site {
    /// Address in evaluation form.
    pub addr: SiteAddr,
    /// Fast-path classification.
    pub fast: FastPath,
    /// The **masked-affine** shape: the compile-time active-lane mask
    /// under which this site executes, when every enclosing divergence
    /// arm has a constant mask.  The runtime mask then always equals this
    /// value, so a shared site's conflict degree is baked at compile time
    /// even for partial-warp phases (e.g. the shrinking prefixes/strides
    /// of a tree reduction).
    pub mask: Option<u64>,
    /// Exact bank-conflict degree for [`Site::mask`] (shared sites, not
    /// [`FastPath::Dynamic`], compile-time mask).
    pub masked_degree: Option<u32>,
    /// Buffer base still to add at evaluation time (tree-form global
    /// sites only; affine sites have it folded into the base).
    pub gbase: i64,
}

impl Site {
    /// Affine view, if the site lowered to affine form.
    #[inline]
    pub fn as_affine(&self) -> Option<&AffineAddr> {
        match &self.addr {
            SiteAddr::Affine(a) => Some(a),
            SiteAddr::Tree(_) => None,
        }
    }
}

/// A kernel lowered to the flat micro-op form, shared (immutably) by all
/// block executors of one launch.
#[derive(Debug)]
pub struct CompiledKernel {
    /// The flat program.
    pub prog: Vec<Uop>,
    /// Memory-site table.
    pub sites: Vec<Site>,
    /// Kernel name (diagnostics).
    pub name: String,
    /// Launch grid `(gx, gy)`.
    pub grid: (u64, u64),
    /// Shared-memory words per block.
    pub shared_words: u64,
    /// Lanes per block.
    pub b: u32,
    /// Registers per lane.
    pub nregs: u32,
    /// Maximum divergence nesting depth (pre-sizes executor stacks).
    pub max_arm_depth: usize,
}

struct Compiler<'k> {
    prog: Vec<Uop>,
    sites: Vec<Site>,
    bases: &'k [u64],
    b: u32,
    /// Registers per lane: the caller's floor, raised past every
    /// register a node seen so far names.
    nregs: u32,
    max_arm_depth: usize,
    /// The `Pred`s and `Repeat`s the walk has open, innermost last.
    open: Vec<Open>,
}

/// A construct the lowering has entered and not yet closed.
enum Open {
    /// A zero-trip or empty loop, or anything inside one: statically
    /// dead, it emits nothing (as the reference runs nothing).
    Dead,
    /// A live loop, closed by its back-edge.
    Loop { depth: u8, body_start: u32 },
    /// A divergence point at `pc` and the end of its then-region, whose
    /// jump targets are patched as the arms close.
    Branch { pc: usize, then_end: usize },
}

impl CompiledKernel {
    /// Lowers `kernel` for a launch with the given device-buffer `bases`,
    /// `b` lanes and at least `nregs` registers per lane: the register
    /// file always holds every register the body names, counted by the
    /// lowering's own walk (so `nregs = 0` asks for exactly those).
    pub fn compile(kernel: &Kernel, bases: &[u64], b: u32, nregs: u32) -> Self {
        debug_assert!((1..=64).contains(&b));
        let mut c = Compiler {
            prog: Vec::with_capacity(kernel.size() * 2),
            sites: Vec::new(),
            bases,
            b,
            nregs,
            max_arm_depth: 0,
            open: Vec::new(),
        };
        walk(&kernel.body, b, &mut c);
        CompiledKernel {
            prog: c.prog,
            sites: c.sites,
            name: kernel.name.clone(),
            grid: kernel.grid,
            shared_words: kernel.shared_words,
            b,
            nregs: c.nregs.max(1),
            max_arm_depth: c.max_arm_depth,
        }
    }
}

impl Visit for Compiler<'_> {
    fn node(&mut self, at: &At<'_>, instr: &Instr) {
        if let Some(r) = instr.own_max_reg() {
            self.nregs = self.nregs.max(u32::from(r) + 1);
        }
        if matches!(self.open.last(), Some(Open::Dead)) {
            if matches!(instr, Instr::Pred { .. } | Instr::Repeat { .. }) {
                self.open.push(Open::Dead);
            }
            return;
        }
        match instr {
            Instr::Alu { op, dst, a, b } => {
                self.prog.push(Uop::Alu { op: *op, dst: *dst, a: *a, b: *b });
            }
            Instr::Mov { dst, src } => self.prog.push(Uop::Mov { dst: *dst, src: *src }),
            Instr::Sync => self.prog.push(Uop::Sync),
            Instr::LdShr { dst, shared } => {
                let site = self.add_site(at, shared, None);
                self.prog.push(Uop::LdShr { dst: *dst, site });
            }
            Instr::StShr { shared, src } => {
                let site = self.add_site(at, shared, None);
                self.prog.push(Uop::StShr { site, src: *src });
            }
            Instr::GlbToShr { shared, global } => {
                let s = self.add_site(at, shared, None);
                let g = self.add_site(at, &global.offset, Some(self.bases[global.buf.0 as usize]));
                self.prog.push(Uop::GlbToShr { shared: s, global: g });
            }
            Instr::ShrToGlb { global, shared } => {
                let s = self.add_site(at, shared, None);
                let g = self.add_site(at, &global.offset, Some(self.bases[global.buf.0 as usize]));
                self.prog.push(Uop::ShrToGlb { global: g, shared: s });
            }
            Instr::Repeat { count, body } if *count == 0 || body.is_empty() => {
                self.open.push(Open::Dead);
            }
            Instr::Repeat { .. } => {
                // Every enclosing loop is live, so the walk's loop stack
                // is the counter stack.
                let depth = at.loops.len() as u8;
                debug_assert!((depth as usize) < MAX_LOOP_DEPTH);
                self.prog.push(Uop::LoopStart { depth });
                self.open.push(Open::Loop { depth, body_start: self.prog.len() as u32 });
            }
            Instr::Pred { pred, .. } => {
                let arms = self.open.iter().filter(|o| matches!(o, Open::Branch { .. })).count();
                self.max_arm_depth = self.max_arm_depth.max(arms + 1);
                // Jump targets are known once the arms are lowered: they
                // are patched as the arms close.
                self.open.push(Open::Branch { pc: self.prog.len(), then_end: 0 });
                let const_then = at.folded;
                self.prog.push(Uop::Branch { pred: *pred, const_then, else_start: 0, join: 0 });
            }
        }
    }

    fn else_arm(&mut self, pred: &Instr) {
        let Some(Open::Branch { pc, then_end }) = self.open.last_mut() else { return };
        if matches!(pred, Instr::Pred { then_body, .. } if !then_body.is_empty()) {
            *then_end = self.prog.len();
            self.prog.push(Uop::ThenEnd { join: 0 });
        }
        // Without a then-region, the else-region (if any) starts right
        // after the branch.
        let start = self.prog.len() as u32;
        if let Uop::Branch { else_start, .. } = &mut self.prog[*pc] {
            *else_start = start;
        }
    }

    fn end(&mut self, node: &Instr) {
        match (self.open.pop(), node) {
            (Some(Open::Loop { depth, body_start }), Instr::Repeat { count, .. }) => {
                self.prog.push(Uop::LoopEnd { depth, count: *count, body_start });
            }
            (Some(Open::Branch { pc, then_end }), Instr::Pred { then_body, else_body, .. }) => {
                if !else_body.is_empty() {
                    self.prog.push(Uop::ElseEnd);
                }
                let end = self.prog.len() as u32;
                if !then_body.is_empty() {
                    self.prog[then_end] = Uop::ThenEnd { join: end };
                }
                if let Uop::Branch { join, .. } = &mut self.prog[pc] {
                    *join = end;
                }
            }
            _ => {}
        }
    }
}

impl Compiler<'_> {
    /// Builds the [`Site`] record for one address; `gbase` is `Some` for
    /// global sites.
    fn add_site(&mut self, at: &At<'_>, addr: &CompiledAddr, gbase: Option<u64>) -> SiteId {
        let b = u64::from(self.b);
        let mask_ctx = at.mask;
        let site = match addr {
            CompiledAddr::Affine(a) => {
                let folded_base = match gbase {
                    Some(g) => AffineAddr { base: a.base + g as i64, ..*a },
                    None => *a,
                };
                // A warp-uniform register adds the same offset to every
                // lane: the row's cost depends on its lane stride and
                // ends alone, as for a static address.
                let uniform = folded_base.reg.is_none_or(|(r, _)| at.is_uniform(r));
                let fast = match (uniform, folded_base.lane) {
                    (false, _) => FastPath::Dynamic,
                    (true, 1) => FastPath::Unit,
                    (true, 0) => FastPath::Broadcast,
                    (true, _) => FastPath::Strided,
                };
                let masked_degree = match (gbase, mask_ctx) {
                    (None, Some(m)) if uniform => {
                        Some(masked_conflict_degree(folded_base.lane, m, b) as u32)
                    }
                    _ => None,
                };
                Site {
                    addr: SiteAddr::Affine(folded_base),
                    fast,
                    mask: mask_ctx,
                    masked_degree,
                    gbase: 0,
                }
            }
            CompiledAddr::Tree(t) => Site {
                addr: SiteAddr::Tree(t.clone()),
                fast: FastPath::Dynamic,
                mask: mask_ctx,
                masked_degree: None,
                gbase: gbase.unwrap_or(0) as i64,
            },
        };
        self.sites.push(site);
        (self.sites.len() - 1) as SiteId
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use atgpu_ir::affine::masked_span_blocks;
    use atgpu_ir::{DBuf, KernelBuilder};

    const FULL: u64 = u64::MAX >> 32;

    fn compile(kernel: &Kernel) -> CompiledKernel {
        CompiledKernel::compile(kernel, &[0, 1024, 2048, 3072], 32, 0)
    }

    /// The lowering counts the registers every node names — a dead
    /// loop's and an address's included — as `Kernel::max_reg` does, and
    /// a caller's `nregs` is a floor.
    #[test]
    fn register_count_is_the_walks() {
        let mut kb = KernelBuilder::new("r", 1, 64);
        kb.ld_shr(2, AddrExpr::reg(5));
        kb.repeat(0, |kb| {
            kb.mov(9, Operand::Imm(1));
        });
        let k = kb.build();
        assert_eq!(k.max_reg(), Some(9));
        assert_eq!(compile(&k).nregs, 10);
        assert_eq!(CompiledKernel::compile(&k, &[0], 32, 12).nregs, 12);
        assert_eq!(compile(&KernelBuilder::new("e", 1, 0).build()).nregs, 1);
    }

    #[test]
    fn straight_line_lowers_one_to_one() {
        let mut kb = KernelBuilder::new("s", 1, 64);
        kb.mov(0, Operand::Imm(1));
        kb.ld_shr(1, AddrExpr::lane());
        kb.st_shr(AddrExpr::lane(), Operand::Reg(1));
        kb.sync();
        let c = compile(&kb.build());
        assert_eq!(c.prog.len(), 4);
        assert_eq!(c.sites.len(), 2);
    }

    #[test]
    fn loop_emits_start_and_backedge() {
        let mut kb = KernelBuilder::new("l", 1, 0);
        kb.repeat(3, |kb| {
            kb.mov(0, Operand::Imm(1));
        });
        let c = compile(&kb.build());
        // LoopStart, Mov, LoopEnd
        assert_eq!(c.prog.len(), 3);
        assert!(matches!(c.prog[0], Uop::LoopStart { depth: 0 }));
        assert!(matches!(c.prog[2], Uop::LoopEnd { depth: 0, count: 3, body_start: 1 }));
    }

    #[test]
    fn zero_trip_and_empty_loops_vanish() {
        let mut kb = KernelBuilder::new("z", 1, 0);
        kb.repeat(0, |kb| {
            kb.mov(0, Operand::Imm(1));
        });
        kb.repeat(5, |_| {});
        let c = compile(&kb.build());
        assert!(c.prog.is_empty());
    }

    #[test]
    fn branch_targets_point_past_regions() {
        let mut kb = KernelBuilder::new("p", 1, 0);
        kb.pred(
            PredExpr::Lt(Operand::Lane, Operand::Imm(2)),
            |kb| {
                kb.mov(0, Operand::Imm(1));
            },
            |kb| {
                kb.mov(0, Operand::Imm(2));
                kb.mov(1, Operand::Imm(3));
            },
        );
        kb.sync();
        let c = compile(&kb.build());
        // Branch, Mov, ThenEnd, Mov, Mov, ElseEnd, Sync
        assert_eq!(c.prog.len(), 7);
        let Uop::Branch { else_start, join, .. } = c.prog[0] else { panic!() };
        assert_eq!(else_start, 3);
        assert_eq!(join, 6);
        let Uop::ThenEnd { join } = c.prog[2] else { panic!() };
        assert_eq!(join, 6);
        assert_eq!(c.max_arm_depth, 1);
    }

    #[test]
    fn site_shapes_classified() {
        let mut kb = KernelBuilder::new("shapes", 4, 64);
        kb.glb_to_shr(AddrExpr::lane(), DBuf(0), AddrExpr::block() * 32 + AddrExpr::lane());
        kb.ld_shr(0, AddrExpr::c(7));
        kb.st_shr(AddrExpr::lane() * 2, Operand::Reg(0));
        kb.glb_to_shr(AddrExpr::lane(), DBuf(1), AddrExpr::reg(0));
        let c = compile(&kb.build());
        // Sites in creation order: shared(lane), global(i·32+j), shared(7),
        // shared(2j), shared(lane), global(reg).
        assert_eq!(c.sites[0].fast, FastPath::Unit);
        assert_eq!(c.sites[0].masked_degree, Some(1));
        assert_eq!(c.sites[1].fast, FastPath::Unit);
        // The executor counts a global row's blocks from its first
        // address and stride.
        let a = c.sites[1].as_affine().unwrap();
        assert_eq!(masked_span_blocks(a.base, a.lane, FULL, 32), 1, "aligned warp = 1 txn");
        assert_eq!(masked_span_blocks(a.base + 1, a.lane, FULL, 32), 2, "misaligned: 2 blocks");
        assert_eq!(c.sites[2].fast, FastPath::Broadcast);
        assert_eq!(c.sites[2].masked_degree, Some(1));
        assert_eq!(c.sites[3].fast, FastPath::Strided);
        assert_eq!(c.sites[3].masked_degree, Some(2));
        assert_eq!(c.sites[5].fast, FastPath::Dynamic);
        assert_eq!(c.sites[5].masked_degree, None);
    }

    #[test]
    fn global_base_folded_into_affine() {
        let mut kb = KernelBuilder::new("base", 2, 32);
        kb.glb_to_shr(AddrExpr::lane(), DBuf(2), AddrExpr::lane());
        let c = compile(&kb.build());
        let a = c.sites[1].as_affine().unwrap();
        assert_eq!(a.base, 2048);
    }

    #[test]
    fn lane_imm_predicates_get_constant_masks() {
        let mut kb = KernelBuilder::new("cm", 1, 0);
        kb.when(PredExpr::Lt(Operand::Lane, Operand::Imm(3)), |kb| {
            kb.mov(0, Operand::Imm(1));
        });
        kb.when(PredExpr::Lt(Operand::Block, Operand::Imm(1)), |kb| {
            kb.mov(0, Operand::Imm(2));
        });
        let c = compile(&kb.build());
        let masks: Vec<Option<u64>> = c
            .prog
            .iter()
            .filter_map(|op| match op {
                Uop::Branch { const_then, .. } => Some(*const_then),
                _ => None,
            })
            .collect();
        assert_eq!(masks, vec![Some(0b111), None]);
    }

    #[test]
    fn masked_affine_sites_get_static_shapes() {
        // A reduction-style phase: a strided store under a constant
        // partial mask.  The compiler must bake both the mask and the
        // exact conflict degree — no dynamic fallback.
        let mut kb = KernelBuilder::new("ma", 4, 64);
        kb.st_shr(AddrExpr::lane(), Operand::Lane);
        kb.when(PredExpr::Lt(Operand::Lane, Operand::Imm(16)), |kb| {
            kb.st_shr(AddrExpr::lane() * 2, Operand::Lane);
        });
        let c = compile(&kb.build());
        // Site 0: full-warp store.
        assert_eq!(c.sites[0].mask, Some(FULL));
        assert_eq!(c.sites[0].masked_degree, Some(1));
        // Site 1: stride 2 under mask 0..16 — 16 distinct addresses on 32
        // banks, every bank at most once: degree 1 (the full-warp degree
        // would be 2).
        assert_eq!(c.sites[1].mask, Some(0xFFFF));
        assert_eq!(c.sites[1].masked_degree, Some(1));
        assert_eq!(masked_conflict_degree(2, FULL, 32), 2);
    }

    #[test]
    fn lane_pure_register_predicate_folds_to_const_mask() {
        // The interleaved-reduction test `j mod 4 = 0` goes through a
        // register, but the register's value is a pure function of the
        // lane index — the compiler folds it to a constant mask.
        let mut kb = KernelBuilder::new("rem", 4, 64);
        kb.alu(AluOp::Rem, 2, Operand::Lane, Operand::Imm(4));
        kb.when(PredExpr::Eq(Operand::Reg(2), Operand::Imm(0)), |kb| {
            kb.ld_shr(3, AddrExpr::lane());
            kb.st_shr(AddrExpr::lane(), Operand::Reg(3));
        });
        let c = compile(&kb.build());
        let masks: Vec<Option<u64>> = c
            .prog
            .iter()
            .filter_map(|op| match op {
                Uop::Branch { const_then, .. } => Some(*const_then),
                _ => None,
            })
            .collect();
        assert_eq!(masks, vec![Some(0x1111_1111)], "every 4th of 32 lanes");
        // The sites inside the arm carry the folded mask.
        assert_eq!(c.sites[0].mask, Some(0x1111_1111));
        assert_eq!(c.sites[0].masked_degree, Some(1));
    }

    #[test]
    fn loop_written_register_is_not_lane_pure() {
        // r0 is rewritten each iteration *after* the predicate, so the
        // value at the test differs between iterations 1 and 2..n — the
        // compiler must not constant-fold it.
        let mut kb = KernelBuilder::new("lw", 2, 0);
        kb.mov(0, Operand::Imm(0));
        kb.repeat(3, |kb| {
            kb.when(PredExpr::Eq(Operand::Reg(0), Operand::Imm(0)), |kb| {
                kb.mov(1, Operand::Imm(1));
            });
            kb.mov(0, Operand::Imm(5));
        });
        let c = compile(&kb.build());
        let masks: Vec<Option<u64>> = c
            .prog
            .iter()
            .filter_map(|op| match op {
                Uop::Branch { const_then, .. } => Some(*const_then),
                _ => None,
            })
            .collect();
        assert_eq!(masks, vec![None], "loop-carried register must stay dynamic");
    }

    #[test]
    fn only_warp_uniform_register_offsets_take_the_affine_path() {
        let mut kb = KernelBuilder::new("u", 2, 64);
        kb.repeat(3, |kb| {
            // `1 << t`: the same in every lane.
            kb.alu(AluOp::Shl, 0, Operand::Imm(1), Operand::LoopVar(0));
            kb.ld_shr(1, AddrExpr::lane() - AddrExpr::reg(0) + 8);
            // `2·lane`: a value per lane.
            kb.alu(AluOp::Mul, 2, Operand::Lane, Operand::Imm(2));
            kb.ld_shr(3, AddrExpr::reg(2));
            // Written under a partial mask: the other lanes keep theirs.
            kb.when(PredExpr::Lt(Operand::Lane, Operand::Imm(4)), |kb| {
                kb.mov(4, Operand::Imm(5));
            });
            kb.ld_shr(5, AddrExpr::lane() * 2 + AddrExpr::reg(4));
        });
        let c = compile(&kb.build());
        let fast: Vec<FastPath> = c.sites.iter().map(|s| s.fast).collect();
        assert_eq!(fast, [FastPath::Unit, FastPath::Dynamic, FastPath::Dynamic]);
        assert_eq!(c.sites[0].masked_degree, Some(1));
        assert_eq!(c.sites[2].masked_degree, None);
    }

    #[test]
    fn one_lane_mask_makes_a_uniform_table_of_ones() {
        // The reduction's final `dst[i] ⇐ _s[0]` under `j = 0`: the
        // global base shifts with the block index (coefficient 1, not a
        // multiple of b), but a single active lane always makes exactly
        // one transaction, whatever the residue.
        let mut kb = KernelBuilder::new("one", 8, 32);
        kb.st_shr(AddrExpr::lane(), Operand::Block);
        kb.when(PredExpr::Eq(Operand::Lane, Operand::Imm(0)), |kb| {
            kb.shr_to_glb(DBuf(0), AddrExpr::block(), AddrExpr::c(0));
        });
        let c = compile(&kb.build());
        // Sites: shared(lane), then the copy's shared(0) and global(i).
        let gsite = &c.sites[2];
        assert_eq!((gsite.fast, gsite.mask), (FastPath::Broadcast, Some(1)));
        let a = gsite.as_affine().unwrap();
        assert!((0..32).all(|r| masked_span_blocks(r, a.lane, 1, 32) == 1));
    }
}
