//! Device global memory: a bounded, block-structured word heap, and the
//! one copy rule every transfer goes through.
//!
//! The heap is sized to the program's padded buffer layout (not to `G`, so
//! simulating a 1 GiB-card machine does not allocate 1 GiB), but the `G`
//! limit is enforced at construction — the ATGPU addition over prior
//! models.
//!
//! # Provenance tags
//!
//! A transfer is priced `α + β·words` whether or not its words changed,
//! but a copy need not move words its destination provably holds already.
//! Every replica, and every host buffer ([`crate::HostData`]), therefore
//! carries one tag per [`CHUNK_WORDS`]-word chunk: [`ZEROS`] for a chunk
//! that is all zeros (a fresh replica or host output), the unmodified
//! chunk `c` of input buffer `h` (`(h + 1) << 32 | c`, tagged where the
//! inputs are taken), or [`DIRTY`] for anything else.  Two equal tags
//! other than [`DIRTY`] guarantee equal words.
//!
//! `copy` is the one copy rule — host→device, device→host and peer
//! copies all go through it.  A destination chunk the copy covers whole,
//! from exactly one whole source chunk, is skipped when the two tags are
//! equal and not [`DIRTY`], and otherwise copied and given the source's
//! tag; a partial or misaligned range is copied and its destination
//! chunks become [`DIRTY`].  An untagged slice (a caller's plain `&[i64]`)
//! is unknown provenance: every chunk of it is [`DIRTY`].  Every other
//! write — a kernel's store, [`GlobalMemory::write`], a same-replica
//! `GlobalMemory::copy_within` — marks the chunks it touches [`DIRTY`];
//! the heap's words are not lent out mutably anywhere else.  Tags change
//! no simulated number: the caller prices every word it was asked to
//! move.
//!
//! # Spare pages
//!
//! A run's memory outlives it as pages, never as state.  `zeroed` is
//! the one source of a replica's and a host output's words: dropping a
//! [`GlobalMemory`], or a [`crate::HostData`] with the outputs it took,
//! hands words and tags to one process-wide spare list instead of back to
//! the allocator, which would return the pages to the kernel and fault
//! them in afresh on the next run.  For `n` words, `zeroed` takes the
//! spare with the smallest capacity `≥ n` and re-zeroes only the chunks
//! whose tag is not [`ZEROS`]: every write path marks what it touches, so
//! the tags say which chunks a finished run changed (a debug build
//! asserts the whole buffer is zero).  When no spare holds `n` words the
//! largest is freed and a fresh buffer takes its place.  A fresh buffer
//! comes from the allocator zeroed and untouched, so a declared size
//! costs only the pages a run writes.  A buffer under one chunk has no
//! page to keep and is neither taken from nor given to the list.
//!
//! The bound needs no constant.  A fresh buffer is made while the list is
//! empty or in place of the largest spare, so the list never holds more
//! buffers than were live at once, nor a buffer larger than the largest
//! ever asked for.  Only buffers of at most the machine's `G` words take
//! part: a replica always fits (`G` bounds it), and a host output larger
//! than `G` is fresh and goes back to the allocator.  Nothing but words
//! crosses from one run to the next — a taken buffer is all zeros with
//! all tags [`ZEROS`], exactly a fresh one — so no result depends on what
//! ran before.  Buffers the caller allocated (a program's inputs, a
//! simulated quote's zero inputs from [`zero_words`]) go back to the
//! allocator.

use crate::error::SimError;
use std::mem;
use std::sync::{Mutex, PoisonError};

/// Words per provenance chunk: one 4 KB page of 8-byte words, and a
/// multiple of every block size `b ≤ 64`, so chunk boundaries fall on
/// block boundaries.
pub const CHUNK_WORDS: usize = 512;

/// The tag of a chunk whose contents are unknown: never equal to
/// anything, so such a chunk is always copied.
pub const DIRTY: u64 = u64::MAX;

/// The tag of an all-zero chunk.
pub const ZEROS: u64 = 0;

/// The tag of chunk `chunk` of input host buffer `buf`, unmodified.
pub(crate) fn input_tag(buf: usize, chunk: usize) -> u64 {
    ((buf as u64 + 1) << 32) | chunk as u64
}

/// Tags covering `words` words.
pub(crate) fn chunks(words: usize) -> usize {
    words.div_ceil(CHUNK_WORDS)
}

/// Words to copy from, with their chunks' provenance (`None`: unknown).
#[derive(Clone, Copy)]
pub(crate) struct Tagged<'a> {
    words: &'a [i64],
    tags: Option<&'a [u64]>,
}

impl<'a> Tagged<'a> {
    pub(crate) fn new(words: &'a [i64], tags: &'a [u64]) -> Self {
        debug_assert_eq!(tags.len(), chunks(words.len()));
        Self { words, tags: Some(tags) }
    }

    pub(crate) fn untagged(words: &'a [i64]) -> Self {
        Self { words, tags: None }
    }
}

/// Words to copy into, with their chunks' provenance (`None`: kept by
/// nobody, so nothing is skipped).
pub(crate) struct TaggedMut<'a> {
    words: &'a mut [i64],
    tags: Option<&'a mut [u64]>,
}

impl<'a> TaggedMut<'a> {
    pub(crate) fn new(words: &'a mut [i64], tags: &'a mut [u64]) -> Self {
        debug_assert_eq!(tags.len(), chunks(words.len()));
        Self { words, tags: Some(tags) }
    }

    pub(crate) fn untagged(words: &'a mut [i64]) -> Self {
        Self { words, tags: None }
    }
}

/// The copy rule (see the module docs): moves `n` words of `src` at `s`
/// to `dst` at `d`, destination chunk by destination chunk, and returns
/// the words it physically copied.  The ranges must lie inside both
/// sides.
pub(crate) fn copy(src: Tagged<'_>, s: usize, dst: &mut TaggedMut<'_>, d: usize, n: usize) -> u64 {
    let mut copied = 0;
    let mut i = 0;
    while i < n {
        let (at, from, c) = (d + i, s + i, (d + i) / CHUNK_WORDS);
        let chunk_end = ((c + 1) * CHUNK_WORDS).min(dst.words.len());
        let len = chunk_end.min(d + n) - at;
        let whole = at % CHUNK_WORDS == 0
            && at + len == chunk_end
            && from % CHUNK_WORDS == 0
            && len == (src.words.len() - from).min(CHUNK_WORDS);
        let tag = match src.tags {
            Some(tags) if whole => tags[from / CHUNK_WORDS],
            _ => DIRTY,
        };
        let (to, words) = (&mut dst.words[at..at + len], &src.words[from..from + len]);
        match dst.tags.as_deref_mut() {
            Some(tags) if tag != DIRTY && tags[c] == tag => {
                debug_assert_eq!(to, words, "equal tags {tag:#x} over different words");
            }
            tags => {
                to.copy_from_slice(words);
                copied += len as u64;
                if let Some(tags) = tags {
                    tags[c] = tag;
                }
            }
        }
        i += len;
    }
    copied
}

/// A word buffer with one provenance tag per chunk.
type Spare = (Vec<i64>, Vec<u64>);

/// Word buffers given back by finished runs (see "Spare pages" in the
/// module docs).
#[derive(Debug)]
struct Spares(Vec<Spare>);

impl Spares {
    /// The spare with the smallest capacity that holds `n` words.  `None`
    /// when none does or `n` is under one chunk.
    fn take(&mut self, n: usize) -> Option<Spare> {
        if n < CHUNK_WORDS {
            return None;
        }
        let caps = self.0.iter().enumerate().map(|(i, (words, _))| (words.capacity(), i));
        let (_, i) = caps.filter(|&(cap, _)| cap >= n).min()?;
        Some(self.0.swap_remove(i))
    }

    /// Removes the largest spare, which a fresh buffer of `n` words
    /// replaces.  `None` when the list is empty or `n` is under one chunk.
    fn evict(&mut self, n: usize) -> Option<Spare> {
        if n < CHUNK_WORDS {
            return None;
        }
        let caps = self.0.iter().enumerate().map(|(i, (words, _))| (words.capacity(), i));
        let (_, i) = caps.max()?;
        Some(self.0.swap_remove(i))
    }

    /// Keeps a buffer of at least one chunk; a smaller one is freed.
    fn give(&mut self, spare: Spare) {
        if spare.0.capacity() >= CHUNK_WORDS {
            self.0.push(spare);
        }
    }
}

/// The process-wide spare list.  Every update is one `push` or
/// `swap_remove`, so a lock poisoned by a panic elsewhere still guards a
/// valid list, and it is recovered rather than passed on (the list is
/// also taken from `Drop`, which must not panic).
static SPARES: Mutex<Spares> = Mutex::new(Spares(Vec::new()));

/// `n` zero words and their [`ZEROS`] tags.  A buffer of at most `keep`
/// words is taken from the spare list, and its owner gives it back with
/// [`give_back`]; a larger one is fresh and goes back to the allocator
/// (see "Spare pages" in the module docs).  A host that cannot hold `n`
/// words is [`SimError::OutOfHostMemory`], not an abort: `n` may be any
/// size a client declared.
pub(crate) fn zeroed(n: u64, keep: u64) -> Result<Spare, SimError> {
    let taken = usize::try_from(n).ok().and_then(|words| {
        if n <= keep {
            take_zeroed(&SPARES, words)
        } else {
            fresh(words).zip(fresh(chunks(words)))
        }
    });
    taken.ok_or(SimError::OutOfHostMemory { words: n })
}

/// `n` fresh zero words that never join the spare list: a simulated
/// quote's zero inputs, which the run hands back to the allocator.  A
/// host that cannot hold them is [`SimError::OutOfHostMemory`].
pub fn zero_words(n: u64) -> Result<Vec<i64>, SimError> {
    usize::try_from(n).ok().and_then(fresh).ok_or(SimError::OutOfHostMemory { words: n })
}

/// `n` zero values, or `None` when the host cannot hold them.  A
/// throwaway reservation checks the size without aborting; `vec!` of a
/// zero value then asks the allocator for zeroed memory, whose pages stay
/// untouched until written, so a declared size costs only the pages a
/// run writes.
fn fresh<T: Clone + Default>(n: usize) -> Option<Vec<T>> {
    Vec::<T>::new().try_reserve_exact(n).ok()?;
    Some(vec![T::default(); n])
}

/// `n` zero words and their tags from `spares`: the best-fitting spare,
/// re-zeroed by its tags, else a fresh buffer that replaces the largest
/// spare, so the list never holds more buffers than were live at once.
fn take_zeroed(spares: &Mutex<Spares>, n: usize) -> Option<Spare> {
    let lock = || spares.lock().unwrap_or_else(PoisonError::into_inner);
    let spare = lock().take(n);
    if let Some(spare) = spare {
        return Some(rezero(spare, n));
    }
    let fresh = fresh(n).zip(fresh(chunks(n)))?;
    // Freed once the lock is released.
    let evicted = lock().evict(n);
    drop(evicted);
    Some(fresh)
}

/// `spare`, whose capacity holds `n` words, made `n` zero words with
/// [`ZEROS`] tags: only its chunks not tagged [`ZEROS`] are cleared, and
/// words past its length are zero-filled.
fn rezero(spare: Spare, n: usize) -> Spare {
    let (mut words, mut tags) = spare;
    debug_assert!(words.capacity() >= n);
    words.truncate(n);
    for (chunk, &tag) in words.chunks_mut(CHUNK_WORDS).zip(&tags) {
        if tag != ZEROS {
            chunk.fill(0);
        }
    }
    words.resize(n, 0);
    tags.clear();
    tags.resize(chunks(n), ZEROS);
    debug_assert!(words.iter().all(|&w| w == 0), "a chunk tagged ZEROS holds a non-zero word");
    (words, tags)
}

/// Hands a buffer [`zeroed`] took from the spare list, and its tags, back
/// to it.
pub(crate) fn give_back(words: Vec<i64>, tags: Vec<u64>) {
    SPARES.lock().unwrap_or_else(PoisonError::into_inner).give((words, tags));
}

/// Global memory with the canonical buffer layout applied.
#[derive(Debug)]
pub struct GlobalMemory {
    words: Vec<i64>,
    /// One provenance tag per [`CHUNK_WORDS`] words.
    tags: Vec<u64>,
    /// Base address of each device buffer.
    bases: Vec<u64>,
    /// Words per memory block (`b`).
    block_words: u64,
}

impl GlobalMemory {
    /// Builds the heap for a program's allocations.
    ///
    /// `layout` comes from [`atgpu_ir::ProgramBody::buffer_layout`]; `g_limit`
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
        let (words, tags) = zeroed(total_words, g_limit)?;
        Ok(Self { words, tags, bases, block_words })
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

    /// Writes one word at an absolute address, marking its chunk
    /// [`DIRTY`].
    #[inline]
    pub fn write(&mut self, addr: i64, value: i64) -> bool {
        let Some(a) = usize::try_from(addr).ok().filter(|&a| a < self.words.len()) else {
            return false;
        };
        self.words[a] = value;
        self.tags[a / CHUNK_WORDS] = DIRTY;
        true
    }

    /// Bulk copy of an untagged slice into the heap: its chunks become
    /// [`DIRTY`].
    pub fn copy_in(&mut self, dst: u64, data: &[i64]) {
        copy(Tagged::untagged(data), 0, &mut self.tagged_mut(), dst as usize, data.len());
    }

    /// Bulk copy out of the heap into an untagged slice.
    pub fn copy_out(&self, src: u64, out: &mut [i64]) {
        let n = out.len();
        copy(self.tagged(), src as usize, &mut TaggedMut::untagged(out), 0, n);
    }

    /// Copies `words` words from `from` to `to` within this heap (a peer
    /// copy whose two endpoints are this replica); the destination's
    /// chunks become [`DIRTY`].
    pub(crate) fn copy_within(&mut self, from: u64, to: u64, words: u64) {
        let (from, to, n) = (from as usize, to as usize, words as usize);
        self.words.copy_within(from..from + n, to);
        self.mark(to as i64, (to + n) as i64 - 1);
    }

    /// The heap's words, lent for a store that writes only at absolute
    /// addresses `lo..=hi` (clamped to the heap): the chunks between
    /// them become [`DIRTY`] first.
    #[inline]
    pub(crate) fn store_words(&mut self, lo: i64, hi: i64) -> &mut [i64] {
        self.mark(lo, hi);
        &mut self.words
    }

    /// Marks the chunks holding addresses `lo..=hi` (clamped to the
    /// heap) [`DIRTY`].
    #[inline]
    fn mark(&mut self, lo: i64, hi: i64) {
        let last = self.words.len() as i64 - 1;
        let (lo, hi) = (lo.max(0), hi.min(last));
        if lo <= hi {
            self.tags[lo as usize / CHUNK_WORDS..=hi as usize / CHUNK_WORDS].fill(DIRTY);
        }
    }

    /// The heap as a copy source.
    pub(crate) fn tagged(&self) -> Tagged<'_> {
        Tagged::new(&self.words, &self.tags)
    }

    /// The heap as a copy destination.
    pub(crate) fn tagged_mut(&mut self) -> TaggedMut<'_> {
        TaggedMut::new(&mut self.words, &mut self.tags)
    }

    /// Raw view (tests, race detection, and the engine's contiguous fast
    /// paths).
    pub fn words(&self) -> &[i64] {
        &self.words
    }
}

impl Drop for GlobalMemory {
    /// Hands the heap's pages to the spare list.
    fn drop(&mut self) {
        give_back(mem::take(&mut self.words), mem::take(&mut self.tags));
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
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
        assert_eq!(g.tags, [ZEROS], "a refused write marks nothing");
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

    const C: usize = CHUNK_WORDS;

    /// A host-side buffer of `chunks` chunks plus `tail` words, tagged as
    /// input buffer 0.
    fn input(chunks_: usize, tail: usize) -> (Vec<i64>, Vec<u64>) {
        let words: Vec<i64> = (0..(chunks_ * C + tail) as i64).map(|w| w * 7 + 1).collect();
        let tags = (0..chunks(words.len())).map(|c| input_tag(0, c)).collect();
        (words, tags)
    }

    /// A heap of `n` words and the words one copy of `host` onto it moves.
    fn upload(
        g: &mut GlobalMemory,
        host: &(Vec<i64>, Vec<u64>),
        s: usize,
        d: usize,
        n: usize,
    ) -> u64 {
        copy(Tagged::new(&host.0, &host.1), s, &mut g.tagged_mut(), d, n)
    }

    #[test]
    fn an_aligned_copy_takes_the_source_tags_and_a_repeat_moves_nothing() {
        let host = input(3, 100);
        let n = host.0.len();
        let mut g = GlobalMemory::new(vec![0], n as u64, 4, 1 << 20).unwrap();
        assert_eq!(upload(&mut g, &host, 0, 0, n), n as u64);
        assert_eq!(g.tags, host.1, "every chunk, the partial last one too, is covered whole");
        assert_eq!(g.words(), host.0);
        assert_eq!(upload(&mut g, &host, 0, 0, n), 0, "the destination holds every chunk");
        // Out again into a fresh (all-zero) host buffer, twice.
        let (mut out, mut out_tags) = (vec![0; n], vec![ZEROS; chunks(n)]);
        let down = |g: &GlobalMemory, out: &mut Vec<i64>, tags: &mut Vec<u64>| {
            copy(g.tagged(), 0, &mut TaggedMut::new(out, tags), 0, n)
        };
        assert_eq!(down(&g, &mut out, &mut out_tags), n as u64);
        assert_eq!((&out, &out_tags), (&host.0, &host.1));
        assert_eq!(down(&g, &mut out, &mut out_tags), 0);
    }

    #[test]
    fn zero_chunks_are_held_by_a_fresh_heap() {
        let n = 2 * C;
        let (zeros, tags) = (vec![0; n], vec![ZEROS; 2]);
        let mut g = GlobalMemory::new(vec![0], n as u64, 4, 1 << 20).unwrap();
        assert_eq!(copy(Tagged::new(&zeros, &tags), 0, &mut g.tagged_mut(), 0, n), 0);
    }

    #[test]
    fn a_partial_or_misaligned_copy_moves_every_word_and_dirties_its_chunks() {
        let host = input(4, 0);
        let mut g = GlobalMemory::new(vec![0], 4 * C as u64, 4, 1 << 20).unwrap();
        // Misaligned destination: the source chunks are whole, but no
        // destination chunk receives exactly one of them.
        assert_eq!(upload(&mut g, &host, 0, 8, 2 * C), 2 * C as u64);
        assert_eq!(g.tags, [DIRTY, DIRTY, DIRTY, ZEROS]);
        assert_eq!(upload(&mut g, &host, 0, 8, 2 * C), 2 * C as u64, "DIRTY never matches");
        assert_eq!(&g.words()[8..8 + 2 * C], &host.0[..2 * C]);
        // Misaligned source onto an aligned destination chunk.
        let mut g = GlobalMemory::new(vec![0], 4 * C as u64, 4, 1 << 20).unwrap();
        assert_eq!(upload(&mut g, &host, 4, 0, C), C as u64);
        assert_eq!(g.tags, [DIRTY, ZEROS, ZEROS, ZEROS]);
        // A part of one chunk.
        let mut g = GlobalMemory::new(vec![0], 4 * C as u64, 4, 1 << 20).unwrap();
        assert_eq!(upload(&mut g, &host, C, C, 10), 10);
        assert_eq!(g.tags, [ZEROS, DIRTY, ZEROS, ZEROS]);
        // Aligned chunks of a longer copy keep their tags around it.
        assert_eq!(upload(&mut g, &host, 0, 0, 3 * C + 5), 3 * C as u64 + 5);
        assert_eq!(g.tags, [input_tag(0, 0), input_tag(0, 1), input_tag(0, 2), DIRTY]);
        assert_eq!(upload(&mut g, &host, 0, 0, 3 * C + 5), 5, "only the partial chunk moves");
    }

    #[test]
    fn untagged_slices_are_always_copied() {
        let data = vec![5i64; C];
        let mut g = GlobalMemory::new(vec![0], C as u64, 4, 1 << 20).unwrap();
        g.copy_in(0, &data);
        assert_eq!(g.tags, [DIRTY]);
        assert_eq!(copy(Tagged::untagged(&data), 0, &mut g.tagged_mut(), 0, C), C as u64);
        let mut out = vec![0; C];
        assert_eq!(copy(g.tagged(), 0, &mut TaggedMut::untagged(&mut out), 0, C), C as u64);
        assert_eq!(out, data);
    }

    /// Each write path marks exactly the chunks it touches, and the next
    /// copy moves exactly those again.
    #[test]
    fn every_write_path_dirties_exactly_its_chunks() {
        let host = input(4, 0);
        let n = 4 * C;
        let fresh = || {
            let mut g = GlobalMemory::new(vec![0], n as u64, 4, 1 << 20).unwrap();
            assert_eq!(upload(&mut g, &host, 0, 0, n), n as u64);
            g
        };
        let clean = |c: usize| input_tag(0, c);
        type Write = fn(&mut GlobalMemory);
        let cases: [(&str, Write, [bool; 4]); 5] = [
            ("write", |g| assert!(g.write(C as i64 + 3, -1)), [false, true, false, false]),
            (
                "store",
                |g| g.store_words(C as i64 - 1, 2 * C as i64)[C] = -1,
                [true, true, true, false],
            ),
            ("clamped store", |g| _ = g.store_words(-50, 5), [true, false, false, false]),
            ("copy_within", |g| g.copy_within(0, 3 * C as u64 + 1, 4), [false, false, false, true]),
            ("copy_in", |g| g.copy_in(2 * C as u64, &[9; C]), [false, false, true, false]),
        ];
        for (what, write, dirty) in cases {
            let mut g = fresh();
            write(&mut g);
            let expect: Vec<u64> =
                dirty.iter().enumerate().map(|(c, &d)| if d { DIRTY } else { clean(c) }).collect();
            assert_eq!(g.tags, expect, "{what}");
            let moved = dirty.iter().filter(|&&d| d).count() * C;
            assert_eq!(upload(&mut g, &host, 0, 0, n), moved as u64, "{what}: the next copy");
            assert_eq!(g.words(), host.0, "{what}: the copy restores the words");
            assert_eq!(g.tags, host.1, "{what}: and the tags");
        }
    }

    /// A buffer of `chunks_` chunks whose chunk `c` holds `c + 1` and is
    /// tagged as input chunk `c`: what a finished run hands back.
    fn used(chunks_: usize) -> Spare {
        let words = (0..chunks_ * C).map(|w| (w / C) as i64 + 1).collect();
        (words, (0..chunks_).map(|c| input_tag(0, c)).collect())
    }

    #[test]
    fn a_spare_is_the_best_fit_and_sub_page_buffers_skip_the_list() {
        let mut spares = Spares(vec![used(4), used(2), used(8)]);
        let cap = |s: &Spare| s.0.capacity() / C;
        assert_eq!(spares.take(3 * C).map(|s| cap(&s)), Some(4), "smallest that holds 3 chunks");
        assert!(spares.take(9 * C).is_none(), "none holds 9");
        assert!(spares.take(C - 1).is_none(), "a sub-page request takes nothing");
        assert!(spares.evict(C - 1).is_none(), "nor replaces anything");
        assert_eq!(spares.evict(9 * C).map(|s| cap(&s)), Some(8), "a fresh 9 replaces the largest");
        spares.give((vec![1; C - 1], vec![DIRTY]));
        assert_eq!(spares.0.len(), 1, "a sub-page buffer is not kept");
        assert_eq!(spares.take(C).map(|s| cap(&s)), Some(2));
        assert!(spares.take(C).is_none() && spares.evict(C).is_none(), "empty");
    }

    /// A spare comes back as `n` zero words tagged [`ZEROS`], whether `n`
    /// is below or at its length or past it within its capacity, its
    /// chunks tagged as changed or as zeros.
    #[test]
    fn a_spare_is_re_zeroed_by_its_tags() {
        for n in [C, 3 * C, 3 * C + 7, 4 * C] {
            let (words, tags) = rezero(used(4), n);
            assert_eq!((words.len(), tags.len()), (n, chunks(n)));
            assert!(words.iter().all(|&w| w == 0), "{n}");
            assert!(tags.iter().all(|&t| t == ZEROS), "{n}");
        }
        let (mut words, mut tags) = used(2);
        tags[1] = ZEROS;
        words[C..].fill(0);
        words[0] = 5;
        let (words, _) = rezero((words, tags), 2 * C);
        assert!(words.iter().all(|&w| w == 0));
        // Given back shorter than its capacity: the written words past
        // its length are zero-filled, not trusted.
        let (mut words, mut tags) = used(4);
        words.truncate(C + 3);
        tags.truncate(2);
        let (words, tags) = rezero((words, tags), 4 * C);
        assert_eq!((words, tags), (vec![0; 4 * C], vec![ZEROS; 4]));
        assert_eq!(fresh::<i64>(2 * C + 1), Some(vec![0; 2 * C + 1]));
    }

    /// The list's bound: over interleaved runs of different sizes, the
    /// spares and the live buffers together never outnumber the most
    /// buffers live at once, and no spare is larger than the largest
    /// asked for.
    #[test]
    fn interleaved_runs_never_keep_more_spares_than_were_live() {
        let spares = Mutex::new(Spares(Vec::new()));
        let count = || spares.lock().unwrap().0.len();
        let (mut most_live, mut largest) = (0, 0);
        let mut seed = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = |m: u64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed % m) as usize
        };
        for run in 0..200 {
            let sizes: Vec<usize> = (0..1 + next(6)).map(|_| next(12 * C as u64) + 1).collect();
            most_live = most_live.max(sizes.iter().filter(|&&n| n >= C).count());
            largest = largest.max(*sizes.iter().max().unwrap());
            let mut live = Vec::new();
            for &n in &sizes {
                let (mut words, mut tags) = take_zeroed(&spares, n).unwrap();
                assert!(words.iter().all(|&w| w == 0), "run {run}: {n} words");
                // The run writes some chunks, marking them as it must.
                for c in 0..tags.len() {
                    tags[c] = match next(3) {
                        0 => continue,
                        1 => DIRTY,
                        _ => input_tag(run, c),
                    };
                    words[c * C] = run as i64 + 1;
                }
                live.push((words, tags));
                let kept = live.iter().filter(|s| s.0.capacity() >= C).count();
                assert!(count() + kept <= most_live, "run {run}: {} spares", count());
            }
            for spare in live {
                spares.lock().unwrap().give(spare);
            }
            let spares = spares.lock().unwrap();
            assert!(spares.0.iter().all(|s| s.0.capacity() <= largest), "run {run}");
        }
    }

    /// A size the host cannot hold is a typed error, and leaves the list
    /// as it was.
    #[test]
    fn a_size_past_the_host_is_refused() {
        for words in [1 << 50, u64::MAX] {
            let refused = Err(SimError::OutOfHostMemory { words });
            assert_eq!(zeroed(words, u64::MAX), refused);
            assert_eq!(zeroed(words, 0), refused);
            assert_eq!(zero_words(words), refused.map(|(words, _)| words));
        }
        let spares = Mutex::new(Spares(vec![used(2)]));
        assert!(take_zeroed(&spares, 1 << 50).is_none());
        assert_eq!(spares.into_inner().unwrap().0, vec![used(2)], "the spare is kept untouched");
    }

    /// A peer copy reads the source's tags and never writes them.
    #[test]
    fn replica_to_replica_copies_follow_the_same_rule() {
        let host = input(2, 0);
        let mut a = GlobalMemory::new(vec![0], 2 * C as u64, 4, 1 << 20).unwrap();
        let mut b = GlobalMemory::new(vec![0], 2 * C as u64, 4, 1 << 20).unwrap();
        upload(&mut a, &host, 0, 0, 2 * C);
        assert!(a.write(0, 0));
        assert_eq!(copy(a.tagged(), 0, &mut b.tagged_mut(), 0, 2 * C), 2 * C as u64);
        assert_eq!(b.tags, [DIRTY, input_tag(0, 1)]);
        assert_eq!(a.tags, [DIRTY, input_tag(0, 1)]);
        assert_eq!(
            copy(a.tagged(), 0, &mut b.tagged_mut(), 0, 2 * C),
            C as u64,
            "DIRTY moves again"
        );
    }
}
