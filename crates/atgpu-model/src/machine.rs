//! The abstract machine `ATGPU(p, b, M, G)`.
//!
//! From the paper (§II, *Architecture*):
//!
//! > Let `ATGPU(p, b, M, G)` be an instance of the model with `p` cores in
//! > total, `b` cores and shared memory of `M` words per MP, and global
//! > memory of `G` words. […] Therefore `k = p/b`. […] The shared memory of
//! > each `mpᵢ ∈ MP` is split into `b` memory banks, such that `b`
//! > successive words reside in distinct banks. […] The global memory is
//! > divided into memory blocks of `b` words.
//!
//! The global-memory bound `G` is the architectural addition ATGPU makes
//! over SWGPU and AGPU, which both assume unlimited global memory.

use crate::error::ModelError;

/// An instance `ATGPU(p, b, M, G)` of the abstract machine.
///
/// All quantities are in *words*, the model's indivisible memory unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AtgpuMachine {
    /// Total number of cores `p` on the device.
    pub p: u64,
    /// Cores per multiprocessor `b`.  Also the number of shared-memory banks
    /// per MP and the number of words per global-memory block — the model
    /// deliberately uses a single granularity for all three.
    pub b: u64,
    /// Shared memory per multiprocessor, `M` words.
    pub m: u64,
    /// Global memory size, `G` words (the ATGPU addition over prior models).
    pub g: u64,
}

impl AtgpuMachine {
    /// Creates a machine, validating the architectural constraints:
    /// `b ≥ 1`, `p ≥ b`, `p` divisible by `b`, `M ≥ b` (an MP must be able
    /// to hold at least one word per bank) and `G ≥ b` (global memory must
    /// hold at least one block).
    pub fn new(p: u64, b: u64, m: u64, g: u64) -> Result<Self, ModelError> {
        if b == 0 {
            return Err(ModelError::InvalidMachine {
                reason: "b = 0: an MP must have at least one core".into(),
            });
        }
        if p == 0 || !p.is_multiple_of(b) {
            return Err(ModelError::InvalidMachine {
                reason: format!("p = {p} must be a positive multiple of b = {b} (k = p/b)"),
            });
        }
        if m < b {
            return Err(ModelError::InvalidMachine {
                reason: format!("M = {m} must be at least b = {b} (one word per bank)"),
            });
        }
        if g < b {
            return Err(ModelError::InvalidMachine {
                reason: format!("G = {g} must be at least b = {b} (one memory block)"),
            });
        }
        Ok(Self { p, b, m, g })
    }

    /// Number of multiprocessors `k = p/b`.
    #[inline]
    pub fn k(&self) -> u64 {
        self.p / self.b
    }

    /// The global-memory block index holding word address `addr`.
    #[inline]
    pub fn block_of(&self, addr: u64) -> u64 {
        addr / self.b
    }

    /// The shared-memory bank holding shared word address `addr`
    /// (`b` successive words reside in distinct banks).
    #[inline]
    pub fn bank_of(&self, addr: u64) -> u64 {
        addr % self.b
    }

    /// Number of thread blocks needed to give every one of `n` data items
    /// its own core, `⌈n/b⌉` — the launch geometry used by all the paper's
    /// kernels.
    #[inline]
    pub fn blocks_for(&self, n: u64) -> u64 {
        n.div_ceil(self.b)
    }

    /// A machine with warp width and memory sizes resembling the paper's
    /// NVIDIA GTX 650 testbed: `b = 32` (warp width), `M = 12288` words
    /// (48 KiB of shared memory at 4-byte words), `G = 2²⁸` words (1 GiB).
    /// `p` is sized for 8192 MPs so that moderately sized problems can be
    /// analysed on a "perfect" machine without resizing.
    pub fn gtx650_like() -> Self {
        Self { p: 8192 * 32, b: 32, m: 12_288, g: 1 << 28 }
    }
}

impl std::fmt::Display for AtgpuMachine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ATGPU(p={}, b={}, M={}, G={}) [k={}]", self.p, self.b, self.m, self.g, self.k())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k_is_p_over_b() {
        let m = AtgpuMachine::new(128, 32, 1024, 1 << 20).unwrap();
        assert_eq!(m.k(), 4);
    }

    #[test]
    fn rejects_zero_b() {
        assert!(matches!(
            AtgpuMachine::new(128, 0, 1024, 1024),
            Err(ModelError::InvalidMachine { .. })
        ));
    }

    #[test]
    fn rejects_indivisible_p() {
        assert!(AtgpuMachine::new(100, 32, 1024, 1024).is_err());
    }

    #[test]
    fn rejects_zero_p() {
        assert!(AtgpuMachine::new(0, 32, 1024, 1024).is_err());
    }

    #[test]
    fn rejects_tiny_shared() {
        assert!(AtgpuMachine::new(64, 32, 16, 1024).is_err());
    }

    #[test]
    fn rejects_tiny_global() {
        assert!(AtgpuMachine::new(64, 32, 64, 8).is_err());
    }

    #[test]
    fn block_and_bank_mapping() {
        let m = AtgpuMachine::new(64, 32, 64, 4096).unwrap();
        assert_eq!(m.block_of(0), 0);
        assert_eq!(m.block_of(31), 0);
        assert_eq!(m.block_of(32), 1);
        assert_eq!(m.bank_of(0), 0);
        assert_eq!(m.bank_of(33), 1);
    }

    #[test]
    fn blocks_for_rounds_up() {
        let m = AtgpuMachine::new(64, 32, 64, 4096).unwrap();
        assert_eq!(m.blocks_for(1), 1);
        assert_eq!(m.blocks_for(32), 1);
        assert_eq!(m.blocks_for(33), 2);
        assert_eq!(m.blocks_for(0), 0);
    }

    #[test]
    fn gtx650_preset_is_valid() {
        let m = AtgpuMachine::gtx650_like();
        assert!(AtgpuMachine::new(m.p, m.b, m.m, m.g).is_ok());
        assert_eq!(m.b, 32);
    }

    #[test]
    fn display_contains_fields() {
        let m = AtgpuMachine::new(64, 32, 64, 4096).unwrap();
        let s = m.to_string();
        assert!(s.contains("b=32"));
        assert!(s.contains("k=2"));
    }
}
