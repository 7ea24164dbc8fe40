//! A kernel: the instruction body every thread block executes.
//!
//! Following the model, a kernel launch names `k` thread blocks; each runs
//! on one (virtual) multiprocessor with `b` lockstep cores and a private
//! shared memory of `shared_words ≤ M` words.  Blocks are distinguished
//! only by the `Block` index visible in expressions — the body is SPMD.

use crate::instr::Instr;
use crate::Reg;
use std::hash::{Hash, Hasher};

/// A kernel definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Kernel {
    /// Name for diagnostics and pseudocode rendering.
    pub name: String,
    /// The SPMD instruction body.
    pub body: Vec<Instr>,
    /// Launch grid `(gx, gy)`: `gx·gy` thread blocks.  A block's linear
    /// index `id` decomposes as `x = id mod gx`, `y = id / gx` — the
    /// values of the `Block`/`BlockY` operands.
    pub grid: (u64, u64),
    /// Shared-memory words `m` each block uses (drives occupancy
    /// `ℓ = min(⌊M/m⌋, H)` and is checked against `M`).
    pub shared_words: u64,
}

impl Kernel {
    /// Total thread blocks `k = gx·gy`, saturating at `u64::MAX`
    /// (validation refuses a grid whose product overflows).
    #[inline]
    pub fn blocks(&self) -> u64 {
        self.grid.0.saturating_mul(self.grid.1)
    }

    /// A stable **structural** hash of the kernel — the compile-relevant
    /// shape only: the instruction body, the launch grid and the
    /// shared-memory footprint.  The kernel *name* is deliberately
    /// excluded (it is a diagnostic label; two kernels differing only in
    /// name lower to identical programs), so renamed kernels share one
    /// cross-launch cache entry while any instruction, grid or
    /// shared-size mutation changes the key.
    ///
    /// The hash is [`Fnv1a`]'s word step over the `Hash` encoding of the
    /// body, one step per field: unkeyed (unlike `DefaultHasher`, which
    /// may be randomly seeded), so the same kernel hashes identically in
    /// every process of the same build.  The `Hash` encoding writes
    /// lengths and discriminants at native width, so keys are
    /// **per-platform** — fine for the in-process cache they address; do
    /// not persist them across heterogeneous machines.
    pub fn cache_key(&self) -> u64 {
        let mut h = Fnv1a::default();
        self.hash_structure(&mut h);
        h.finish()
    }

    /// Feeds the kernel's structure — everything [`Kernel::cache_key`]
    /// hashes, and never the name — to `state`, so a caller can key it
    /// with another hasher or hash it beside other launch parameters.
    pub fn hash_structure<H: Hasher>(&self, state: &mut H) {
        self.body.hash(state);
        self.grid.hash(state);
        self.shared_words.hash(state);
    }

    /// Whether `self` and `other` have the same structure: everything
    /// [`Kernel::cache_key`] hashes, compared exactly, and never the name.
    /// This is what confirms a hit on that key — a 64-bit [`Fnv1a`] is
    /// not collision-resistant, and every immediate is a free word.
    ///
    /// It is also the one identity a reuse *within a program* may use:
    /// the verifier, the analyser and the quote key each let a launch
    /// reuse their work on the previous launch when this holds, under
    /// the launch's own name, and keep nothing for a launch that does
    /// not follow directly.
    pub fn same_structure(&self, other: &Kernel) -> bool {
        self.grid == other.grid
            && self.shared_words == other.shared_words
            && self.body == other.body
    }

    /// Highest register index referenced anywhere in the body, if any.
    pub fn max_reg(&self) -> Option<Reg> {
        fn walk(body: &[Instr]) -> Option<Reg> {
            let mut max = None;
            for i in body {
                let inner = match i {
                    Instr::Pred { then_body, else_body, .. } => {
                        walk(then_body).max(walk(else_body))
                    }
                    Instr::Repeat { body, .. } => walk(body),
                    _ => None,
                };
                max = max.max(i.own_max_reg()).max(inner);
            }
            max
        }
        walk(&self.body)
    }

    /// Maximum loop nesting depth in the body.
    pub fn loop_depth(&self) -> usize {
        fn walk(body: &[Instr]) -> usize {
            body.iter()
                .map(|i| match i {
                    Instr::Repeat { body, .. } => 1 + walk(body),
                    Instr::Pred { then_body, else_body, .. } => {
                        walk(then_body).max(walk(else_body))
                    }
                    _ => 0,
                })
                .max()
                .unwrap_or(0)
        }
        walk(&self.body)
    }

    /// Number of instruction nodes (structural size, not trip-count
    /// weighted — the analyser computes the model's `tᵢ`).
    pub fn size(&self) -> usize {
        fn walk(body: &[Instr]) -> usize {
            body.iter()
                .map(|i| match i {
                    Instr::Repeat { body, .. } => 1 + walk(body),
                    Instr::Pred { then_body, else_body, .. } => {
                        1 + walk(then_body) + walk(else_body)
                    }
                    _ => 1,
                })
                .sum()
        }
        walk(&self.body)
    }
}

/// The structural hasher: FNV-1a's offset basis and prime, mixing one
/// 64-bit word per step, `h ← ((h ⊕ w)·P) rotl 23` — the step the repo
/// benchmark's determinism digest uses.  Every fixed-width `write_*`
/// folds its value as one word; `write(&[u8])` folds 8-byte
/// little-endian chunks, then the tail bytes as one word that carries
/// their count in its top byte; `finish` applies one multiply-xorshift
/// avalanche.  Each step is a bijection of the state for a fixed word
/// and of the word for a fixed state, and so is the avalanche: two
/// streams of one length that differ in one word never collide.  A fixed, unkeyed
/// function, so [`Kernel::cache_key`] is reproducible run to run.
/// Not collision-resistant: a key it computes names a question only
/// where a hit is confirmed, or where a collision costs nothing.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    #[inline(always)]
    fn mix(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01b3).rotate_left(23);
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv1a {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            if chunk.len() < 8 {
                w[7] = chunk.len() as u8;
            }
            self.mix(u64::from_le_bytes(w));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.mix(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.mix(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.mix(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.mix(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.mix(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        let h = (self.0 ^ self.0 >> 32).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        h ^ h >> 29
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{AddrExpr, Operand, PredExpr};
    use crate::instr::AluOp;
    use crate::program::DBuf;

    fn sample() -> Kernel {
        Kernel {
            name: "t".into(),
            body: vec![
                Instr::glb_to_shr(AddrExpr::lane(), DBuf(0), AddrExpr::lane()),
                Instr::Repeat {
                    count: 4,
                    body: vec![
                        Instr::ld_shr(5, AddrExpr::lane()),
                        Instr::Pred {
                            pred: PredExpr::Lt(Operand::Lane, Operand::Imm(2)),
                            then_body: vec![Instr::Alu {
                                op: AluOp::Add,
                                dst: 7,
                                a: Operand::Reg(5),
                                b: Operand::Imm(1),
                            }],
                            else_body: vec![],
                        },
                    ],
                },
                Instr::st_shr(AddrExpr::lane(), Operand::Reg(7)),
            ],
            grid: (2, 1),
            shared_words: 32,
        }
    }

    #[test]
    fn max_reg_traverses_structures() {
        assert_eq!(sample().max_reg(), Some(7));
    }

    #[test]
    fn max_reg_empty_kernel() {
        let k = Kernel { name: "e".into(), body: vec![], grid: (1, 1), shared_words: 0 };
        assert_eq!(k.max_reg(), None);
    }

    #[test]
    fn loop_depth_counts_nesting() {
        assert_eq!(sample().loop_depth(), 1);
        let k = Kernel {
            name: "n".into(),
            body: vec![Instr::Repeat {
                count: 2,
                body: vec![Instr::Repeat { count: 2, body: vec![Instr::Sync] }],
            }],
            grid: (1, 1),
            shared_words: 0,
        };
        assert_eq!(k.loop_depth(), 2);
    }

    #[test]
    fn size_counts_all_nodes() {
        // glb_to_shr + repeat + ld_shr + pred + alu + st_shr = 6
        assert_eq!(sample().size(), 6);
    }

    #[test]
    fn cache_key_ignores_name_but_sees_structure() {
        let k = sample();
        let mut renamed = k.clone();
        renamed.name = "totally-different".into();
        assert_eq!(k.cache_key(), renamed.cache_key(), "name must not affect the key");

        // Mutating one instruction changes the key.
        let mut mutated = k.clone();
        mutated.body[2] = Instr::st_shr(AddrExpr::lane(), Operand::Reg(6));
        assert_ne!(k.cache_key(), mutated.cache_key(), "instr mutation must change the key");

        // A mutation deep inside a nested body changes the key too.
        let mut deep = k.clone();
        if let Instr::Repeat { body, .. } = &mut deep.body[1] {
            if let Instr::Pred { then_body, .. } = &mut body[1] {
                then_body[0] =
                    Instr::Alu { op: AluOp::Sub, dst: 7, a: Operand::Reg(5), b: Operand::Imm(1) };
            }
        }
        assert_ne!(k.cache_key(), deep.cache_key(), "nested mutation must change the key");

        // Grid and shared footprint are part of the key.
        let mut regrid = k.clone();
        regrid.grid = (4, 1);
        assert_ne!(k.cache_key(), regrid.cache_key());
        let mut reshared = k.clone();
        reshared.shared_words = 64;
        assert_ne!(k.cache_key(), reshared.cache_key());

        // `same_structure` draws the same line, exactly.
        assert!(k.same_structure(&renamed));
        for other in [&mutated, &deep, &regrid, &reshared] {
            assert!(!k.same_structure(other));
        }
    }

    #[test]
    fn cache_key_is_deterministic() {
        // `Fnv1a` is unkeyed: the same kernel hashes identically in every
        // process of the same build (no per-process hasher seeding).
        let a = sample().cache_key();
        let b = sample().cache_key();
        assert_eq!(a, b);
    }

    fn hash(f: impl FnOnce(&mut Fnv1a)) -> u64 {
        let mut h = Fnv1a::default();
        f(&mut h);
        h.finish()
    }

    /// A byte slice is its 8-byte little-endian words, then one word for
    /// the tail that carries the tail's length, so a shorter tail of the
    /// same bytes is another stream.
    #[test]
    fn bytes_fold_as_words() {
        let v = 0x0123_4567_89ab_cdefu64;
        assert_eq!(hash(|h| h.write(&v.to_le_bytes())), hash(|h| h.write_u64(v)));
        let bytes: Vec<u8> = (1..=11).collect();
        let tail = u64::from_le_bytes([9, 10, 11, 0, 0, 0, 0, 3]);
        let words = hash(|h| {
            h.write_u64(u64::from_le_bytes([1, 2, 3, 4, 5, 6, 7, 8]));
            h.write_u64(tail);
        });
        assert_eq!(hash(|h| h.write(&bytes)), words);
        assert_ne!(hash(|h| h.write(&[1])), hash(|h| h.write(&[1, 0])));
        assert_ne!(hash(|h| h.write(&[])), hash(|h| h.write(&[0])));
    }

    /// Every fixed-width write is one step on the widened value.
    #[test]
    fn fixed_widths_fold_one_word() {
        let w = hash(|h| h.write_u64(200));
        assert_eq!(hash(|h| h.write_u8(200)), w);
        assert_eq!(hash(|h| h.write_u16(200)), w);
        assert_eq!(hash(|h| h.write_u32(200)), w);
        assert_eq!(hash(|h| h.write_usize(200)), w);
        assert_eq!(hash(|h| h.write_i64(-1)), hash(|h| h.write_u64(u64::MAX)));
        assert_ne!(hash(|h| h.write_u64(1)), hash(|h| h.write_u64(2)));
        let both = hash(|h| {
            h.write_u64(1);
            h.write_u64(2);
        });
        assert_ne!(both, hash(|h| h.write_u64(2)));
    }

    #[test]
    fn max_reg_sees_address_registers() {
        let k = Kernel {
            name: "a".into(),
            body: vec![Instr::ld_shr(0, AddrExpr::reg(9))],
            grid: (1, 1),
            shared_words: 1,
        };
        assert_eq!(k.max_reg(), Some(9));
    }
}
