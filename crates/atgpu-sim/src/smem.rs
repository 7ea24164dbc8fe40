//! Per-block shared memory: `m` words across `b` banks.
//!
//! Word `w` lives in bank `w mod b` ("b successive words reside in
//! distinct banks").  The buffer is reused across blocks resident in the
//! same slot — and, in the micro-op engine, across launches — and cleared
//! (and sized to the block's kernel) on block start.

/// One thread block's shared memory.
#[derive(Debug, Clone)]
pub struct SharedMemory {
    words: Vec<i64>,
    banks: u64,
}

impl SharedMemory {
    /// Allocates `m` words over `b` banks.
    pub fn new(m: u64, b: u64) -> Self {
        Self { words: vec![0; m as usize], banks: b.max(1) }
    }

    /// Clears for the next resident block, sized to `m` words (keeps the
    /// allocation, and grows it only past its capacity — workhorse-buffer
    /// reuse on the hot path).
    pub fn reset(&mut self, m: u64) {
        self.words.clear();
        self.words.resize(m as usize, 0);
    }

    /// Words available.
    #[inline]
    pub fn len(&self) -> u64 {
        self.words.len() as u64
    }

    /// True when the block declared no shared memory.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// The bank holding word address `addr`.
    #[inline]
    pub fn bank_of(&self, addr: u64) -> u64 {
        addr % self.banks
    }

    /// Reads a word.
    #[inline]
    pub fn read(&self, addr: i64) -> Option<i64> {
        usize::try_from(addr).ok().and_then(|a| self.words.get(a)).copied()
    }

    /// Writes a word.
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

    /// The whole word array (contiguous fast paths in the micro-op
    /// engine).
    #[inline]
    pub fn words(&self) -> &[i64] {
        &self.words
    }

    /// Mutable view of the word array.
    #[inline]
    pub fn words_mut(&mut self) -> &mut [i64] {
        &mut self.words
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_and_reset() {
        let mut s = SharedMemory::new(8, 4);
        assert!(s.write(3, 9));
        assert_eq!(s.read(3), Some(9));
        s.reset(8);
        assert_eq!(s.read(3), Some(0));
        s.reset(2);
        assert_eq!((s.len(), s.read(3)), (2, None));
    }

    #[test]
    fn bounds_checked() {
        let mut s = SharedMemory::new(8, 4);
        assert_eq!(s.read(8), None);
        assert_eq!(s.read(-1), None);
        assert!(!s.write(8, 1));
    }

    #[test]
    fn bank_mapping_wraps() {
        let s = SharedMemory::new(8, 4);
        assert_eq!(s.bank_of(0), 0);
        assert_eq!(s.bank_of(5), 1);
        assert_eq!(s.bank_of(7), 3);
    }
}
