//! The instruction set executed in lockstep by a multiprocessor's cores.
//!
//! Mapping to the paper's pseudocode:
//!
//! | Pseudocode | Instruction |
//! |---|---|
//! | `_x[e] ⇐ g[e′]` (global→shared) | [`Instr::GlbToShr`] |
//! | `g[e′] ⇐ _x[e]` (shared→global) | [`Instr::ShrToGlb`] |
//! | `r ← _x[e]` / `_x[e] ← r` | [`Instr::LdShr`] / [`Instr::StShr`] |
//! | arithmetic | [`Instr::Alu`] / [`Instr::Mov`] |
//! | single-conditional `if` | [`Instr::Pred`] |
//! | counted `for` | [`Instr::Repeat`] |
//!
//! Semantics the model prescribes and the simulator honours:
//!
//! * all `b` cores execute each instruction **in lockstep**;
//! * on divergence ([`Instr::Pred`]) **all paths are executed**, inactive
//!   lanes masked off — the time charge is the sum of both arms;
//! * cores may touch global memory only through shared memory
//!   (`⇐` stages data; there is deliberately no global↔register
//!   instruction);
//! * a global access instruction coalesces into as many transactions as
//!   there are distinct memory blocks among the lanes' addresses;
//! * a shared access instruction serialises by its worst bank conflict
//!   (the *model* assumes conflict-free; the *simulator* measures).

use crate::affine::CompiledAddr;
use crate::expr::{AddrExpr, Operand, PredExpr};
use crate::program::DBuf;
use crate::Reg;
use std::fmt;

/// Arithmetic/logic operations, applied per lane to two operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// `a + b` (wrapping).
    Add,
    /// `a - b` (wrapping).
    Sub,
    /// `a * b` (wrapping).
    Mul,
    /// `a / b`; division by zero yields 0 (defined for determinism —
    /// real CUDA leaves it undefined).
    Div,
    /// `a mod b`; modulo zero yields 0.
    Rem,
    /// `min(a, b)`.
    Min,
    /// `max(a, b)`.
    Max,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// `a << b` (shift amount masked to 0..63).
    Shl,
    /// Arithmetic `a >> b` (shift amount masked to 0..63).
    Shr,
    /// `(a < b) as i64`.
    SetLt,
    /// `(a == b) as i64`.
    SetEq,
}

impl AluOp {
    /// Applies the operation to two lane values.
    #[inline]
    pub fn apply(self, a: i64, b: i64) -> i64 {
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::Div => {
                if b == 0 {
                    0
                } else {
                    a.wrapping_div(b)
                }
            }
            AluOp::Rem => {
                if b == 0 {
                    0
                } else {
                    a.wrapping_rem(b)
                }
            }
            AluOp::Min => a.min(b),
            AluOp::Max => a.max(b),
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Shl => a.wrapping_shl(b as u32 & 63),
            AluOp::Shr => a.wrapping_shr(b as u32 & 63),
            AluOp::SetLt => i64::from(a < b),
            AluOp::SetEq => i64::from(a == b),
        }
    }

    /// Issue cycles the operation occupies on a multiprocessor.  Integer
    /// division and modulo have no dedicated hardware on GPUs and expand
    /// to long instruction sequences (tens of cycles); everything else
    /// single-issues.  Both the simulator's timing and the analyser's
    /// operation count (`tᵢ`) use this weight, so the model and the
    /// machine agree on what an "operation" costs.
    pub fn issue_cycles(self) -> u32 {
        match self {
            AluOp::Div | AluOp::Rem => 16,
            _ => 1,
        }
    }

    /// The operator glyph used by the pretty-printer.
    pub fn glyph(self) -> &'static str {
        match self {
            AluOp::Add => "+",
            AluOp::Sub => "-",
            AluOp::Mul => "·",
            AluOp::Div => "/",
            AluOp::Rem => "mod",
            AluOp::Min => "min",
            AluOp::Max => "max",
            AluOp::And => "and",
            AluOp::Or => "or",
            AluOp::Xor => "xor",
            AluOp::Shl => "<<",
            AluOp::Shr => ">>",
            AluOp::SetLt => "<?",
            AluOp::SetEq => "=?",
        }
    }
}

/// A reference into a named device-global buffer: `buf[offset]`, the
/// offset evaluated per lane.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GlobalRef {
    /// The device buffer.
    pub buf: DBuf,
    /// Per-lane word offset into the buffer.
    pub offset: CompiledAddr,
}

impl GlobalRef {
    /// Creates a reference, compiling the offset expression.
    pub fn new(buf: DBuf, offset: AddrExpr) -> Self {
        Self { buf, offset: CompiledAddr::compile(offset) }
    }
}

/// One lockstep instruction.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Instr {
    /// `dst ← a op b` on registers/immediates.
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
    /// `dst ← src` (move/broadcast of an operand into a register).
    Mov {
        /// Destination register.
        dst: Reg,
        /// Source operand.
        src: Operand,
    },
    /// `shared[saddr] ⇐ global[gref]` — each active lane copies one word
    /// from global to shared memory.  Coalesces by distinct memory block.
    GlbToShr {
        /// Per-lane shared-memory destination.
        shared: CompiledAddr,
        /// Per-lane global-memory source.
        global: GlobalRef,
    },
    /// `global[gref] ⇐ shared[saddr]` — each active lane copies one word
    /// from shared to global memory.
    ShrToGlb {
        /// Per-lane global-memory destination.
        global: GlobalRef,
        /// Per-lane shared-memory source.
        shared: CompiledAddr,
    },
    /// `dst ← shared[saddr]` — register load from shared memory.
    LdShr {
        /// Destination register.
        dst: Reg,
        /// Per-lane shared-memory source.
        shared: CompiledAddr,
    },
    /// `shared[saddr] ← src` — store an operand to shared memory.
    StShr {
        /// Per-lane shared-memory destination.
        shared: CompiledAddr,
        /// Value to store.
        src: Operand,
    },
    /// Single-conditional divergence: active lanes satisfying `pred` run
    /// `then_body`, the rest run `else_body`; the MP executes **both**
    /// arms back to back (the model's "if execution paths diverge, all
    /// paths are executed").
    Pred {
        /// The per-lane condition.
        pred: PredExpr,
        /// Taken arm.
        then_body: Vec<Instr>,
        /// Untaken arm (may be empty).
        else_body: Vec<Instr>,
    },
    /// A counted loop with a launch-time-constant trip count.  The body
    /// sees the iteration counter as `LoopVar(depth)`.
    Repeat {
        /// Trip count.
        count: u32,
        /// Loop body.
        body: Vec<Instr>,
    },
    /// Intra-block barrier.  With one warp per block it is a single
    /// lockstep operation; it is kept in the ISA because the model's
    /// pseudocode includes synchronisation and multi-warp extensions
    /// need it.
    Sync,
}

impl Instr {
    /// Convenience constructor: `GlbToShr` from expression trees.
    pub fn glb_to_shr(shared: AddrExpr, buf: DBuf, global_off: AddrExpr) -> Instr {
        Instr::GlbToShr {
            shared: CompiledAddr::compile(shared),
            global: GlobalRef::new(buf, global_off),
        }
    }

    /// Convenience constructor: `ShrToGlb` from expression trees.
    pub fn shr_to_glb(buf: DBuf, global_off: AddrExpr, shared: AddrExpr) -> Instr {
        Instr::ShrToGlb {
            global: GlobalRef::new(buf, global_off),
            shared: CompiledAddr::compile(shared),
        }
    }

    /// Convenience constructor: `LdShr` from an expression tree.
    pub fn ld_shr(dst: Reg, shared: AddrExpr) -> Instr {
        Instr::LdShr { dst, shared: CompiledAddr::compile(shared) }
    }

    /// Convenience constructor: `StShr` from an expression tree.
    pub fn st_shr(shared: AddrExpr, src: Operand) -> Instr {
        Instr::StShr { shared: CompiledAddr::compile(shared), src }
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Instr::Alu { op, dst, a, b } => write!(f, "r{dst} ← {a} {} {b}", op.glyph()),
            Instr::Mov { dst, src } => write!(f, "r{dst} ← {src}"),
            Instr::GlbToShr { shared, global } => {
                write!(f, "_s[{shared}] ⇐ d{}[{}]", global.buf.0, global.offset)
            }
            Instr::ShrToGlb { global, shared } => {
                write!(f, "d{}[{}] ⇐ _s[{shared}]", global.buf.0, global.offset)
            }
            Instr::LdShr { dst, shared } => write!(f, "r{dst} ← _s[{shared}]"),
            Instr::StShr { shared, src } => write!(f, "_s[{shared}] ← {src}"),
            Instr::Pred { pred, .. } => write!(f, "if {pred} then …"),
            Instr::Repeat { count, .. } => write!(f, "for t = 0 → {count} do …"),
            Instr::Sync => write!(f, "sync"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alu_add_wraps() {
        assert_eq!(AluOp::Add.apply(i64::MAX, 1), i64::MIN);
    }

    #[test]
    fn alu_div_by_zero_defined() {
        assert_eq!(AluOp::Div.apply(5, 0), 0);
        assert_eq!(AluOp::Rem.apply(5, 0), 0);
    }

    #[test]
    fn alu_div_rem() {
        assert_eq!(AluOp::Div.apply(17, 5), 3);
        assert_eq!(AluOp::Rem.apply(17, 5), 2);
    }

    #[test]
    fn alu_comparisons() {
        assert_eq!(AluOp::SetLt.apply(1, 2), 1);
        assert_eq!(AluOp::SetLt.apply(2, 2), 0);
        assert_eq!(AluOp::SetEq.apply(2, 2), 1);
    }

    #[test]
    fn alu_min_max() {
        assert_eq!(AluOp::Min.apply(-1, 3), -1);
        assert_eq!(AluOp::Max.apply(-1, 3), 3);
    }

    #[test]
    fn alu_shifts_mask_amount() {
        assert_eq!(AluOp::Shl.apply(1, 64), 1); // 64 & 63 == 0
        assert_eq!(AluOp::Shl.apply(1, 3), 8);
        assert_eq!(AluOp::Shr.apply(-8, 1), -4); // arithmetic shift
    }

    #[test]
    fn alu_bitwise() {
        assert_eq!(AluOp::And.apply(0b1100, 0b1010), 0b1000);
        assert_eq!(AluOp::Or.apply(0b1100, 0b1010), 0b1110);
        assert_eq!(AluOp::Xor.apply(0b1100, 0b1010), 0b0110);
    }

    #[test]
    fn instr_display_glb_to_shr() {
        let i =
            Instr::glb_to_shr(AddrExpr::lane(), DBuf(0), AddrExpr::block() * 32 + AddrExpr::lane());
        let s = i.to_string();
        assert!(s.contains('⇐'), "{s}");
        assert!(s.contains("d0"), "{s}");
    }

    #[test]
    fn instr_display_alu() {
        let i = Instr::Alu { op: AluOp::Add, dst: 2, a: Operand::Reg(0), b: Operand::Reg(1) };
        assert_eq!(i.to_string(), "r2 ← r0 + r1");
    }

    #[test]
    fn instr_display_affine_addr() {
        let i = Instr::ld_shr(0, AddrExpr::lane() * 2 + 5);
        let s = i.to_string();
        assert!(s.contains("2j"), "{s}");
        assert!(s.contains('5'), "{s}");
    }

    #[test]
    fn instr_display_zero_addr() {
        let i = Instr::ld_shr(0, AddrExpr::c(0));
        assert!(i.to_string().contains("_s[0]"));
    }
}
