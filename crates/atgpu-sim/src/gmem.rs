//! Device global memory: a bounded, block-structured word heap.
//!
//! The heap is sized to the program's padded buffer layout (not to `G`, so
//! simulating a 1 GiB-card machine does not allocate 1 GiB), but the `G`
//! limit is enforced at construction — the ATGPU addition over prior
//! models.

use crate::error::SimError;

/// Global memory with the canonical buffer layout applied.
#[derive(Debug)]
pub struct GlobalMemory {
    words: Vec<i64>,
    /// Base address of each device buffer.
    bases: Vec<u64>,
    /// Words per memory block (`b`).
    block_words: u64,
}

impl GlobalMemory {
    /// Builds the heap for a program's allocations.
    ///
    /// `layout` comes from [`atgpu_ir::Program::buffer_layout`]; `g_limit`
    /// is the machine's `G`.
    pub fn new(
        bases: Vec<u64>,
        total_words: u64,
        block_words: u64,
        g_limit: u64,
    ) -> Result<Self, SimError> {
        if total_words > g_limit {
            return Err(SimError::OutOfGlobalMemory { requested: total_words, available: g_limit });
        }
        Ok(Self { words: vec![0; total_words as usize], bases, block_words })
    }

    /// Total words allocated.
    #[inline]
    pub fn len(&self) -> u64 {
        self.words.len() as u64
    }

    /// True when nothing is allocated.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// The absolute start address of `words` words at offset `off` of
    /// device buffer `buf`, checked: an unknown buffer id or a range
    /// leaving the buffer's (block-padded) slot in the canonical layout
    /// is a typed error, so a transfer step can never index out of the
    /// heap.
    pub fn span(&self, buf: u32, off: u64, words: u64) -> Result<u64, SimError> {
        let i = buf as usize;
        let slot = self.bases.get(i).map(|&base| {
            let end = self.bases.get(i + 1).copied().unwrap_or(self.len());
            (base, end.saturating_sub(base))
        });
        match slot {
            Some((base, room)) if off.checked_add(words).is_some_and(|e| e <= room) => {
                Ok(base + off)
            }
            _ => Err(SimError::HostDataMismatch {
                reason: format!(
                    "transfer of {words} words at offset {off} leaves device buffer {buf}"
                ),
            }),
        }
    }

    /// Base address of every device buffer, in buffer order.
    #[inline]
    pub fn bases(&self) -> &[u64] {
        &self.bases
    }

    /// The memory block index of an absolute address.
    #[inline]
    pub fn block_of(&self, addr: u64) -> u64 {
        addr / self.block_words
    }

    /// Reads one word at an absolute address.
    #[inline]
    pub fn read(&self, addr: i64) -> Option<i64> {
        usize::try_from(addr).ok().and_then(|a| self.words.get(a)).copied()
    }

    /// Writes one word at an absolute address.
    #[inline]
    pub fn write(&mut self, addr: i64, value: i64) -> bool {
        match usize::try_from(addr).ok().and_then(|a| self.words.get_mut(a)) {
            Some(slot) => {
                *slot = value;
                true
            }
            None => false,
        }
    }

    /// Bulk copy into the heap (host→device transfer).
    pub fn copy_in(&mut self, dst: u64, data: &[i64]) {
        let d = dst as usize;
        self.words[d..d + data.len()].copy_from_slice(data);
    }

    /// Bulk copy out of the heap (device→host transfer).
    pub fn copy_out(&self, src: u64, out: &mut [i64]) {
        let s = src as usize;
        out.copy_from_slice(&self.words[s..s + out.len()]);
    }

    /// Raw view (tests, race detection, and the engine's contiguous fast
    /// paths).
    pub fn words(&self) -> &[i64] {
        &self.words
    }

    /// Mutable raw view (contiguous fast paths in the micro-op engine).
    pub fn words_mut(&mut self) -> &mut [i64] {
        &mut self.words
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn respects_g_limit() {
        assert!(GlobalMemory::new(vec![0], 100, 32, 99).is_err());
        assert!(GlobalMemory::new(vec![0], 100, 32, 100).is_ok());
    }

    #[test]
    fn read_write_roundtrip() {
        let mut g = GlobalMemory::new(vec![0], 64, 32, 1024).unwrap();
        assert!(g.write(5, 42));
        assert_eq!(g.read(5), Some(42));
        assert_eq!(g.read(6), Some(0)); // zero-initialised
    }

    #[test]
    fn out_of_bounds_rejected() {
        let mut g = GlobalMemory::new(vec![0], 64, 32, 1024).unwrap();
        assert_eq!(g.read(64), None);
        assert_eq!(g.read(-1), None);
        assert!(!g.write(64, 1));
        assert!(!g.write(-1, 1));
    }

    #[test]
    fn bulk_copies() {
        let mut g = GlobalMemory::new(vec![0, 32], 64, 32, 1024).unwrap();
        g.copy_in(32, &[1, 2, 3]);
        let mut out = vec![0; 3];
        g.copy_out(32, &mut out);
        assert_eq!(out, vec![1, 2, 3]);
        assert_eq!(g.bases(), [0, 32]);
    }

    #[test]
    fn block_mapping() {
        let g = GlobalMemory::new(vec![0], 64, 32, 1024).unwrap();
        assert_eq!(g.block_of(0), 0);
        assert_eq!(g.block_of(31), 0);
        assert_eq!(g.block_of(32), 1);
    }
}
