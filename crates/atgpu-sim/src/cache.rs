//! The cross-launch kernel cache: keyed compiled programs, reused across
//! launches the way real drivers cache PTX→SASS compilations.  An entry
//! is the compiled program and nothing else; what a hit saves is
//! lowering.
//!
//! ## Keying rule
//!
//! A cache entry is addressed by everything [`CompiledKernel::compile`]
//! reads:
//!
//! * the kernel's **structure** — instruction body, grid and shared
//!   footprint, with the name cleared (a diagnostic label: renamed
//!   kernels share an entry, any instruction mutation misses);
//! * the device-buffer **base addresses** (compilation folds them into
//!   affine sites and the coalescing transaction tables);
//! * the lane count `b` and register count `nregs`.
//!
//! A [`CacheKey`] holds all of it.  Its `Hash` reads only the 64-bit
//! structural hash [`atgpu_ir::Kernel::cache_key`]; its `Eq` compares the
//! structure, the complete base vector, `b` and `nregs`.  A 64-bit FNV-1a
//! is not collision-resistant (every immediate is eight free bytes), so
//! two kernels that collide on it take two entries — on a shared server
//! whose caches outlive requests, one tenant's compiled kernel never runs
//! for another's.  A lookup borrows the launch's kernel and bases instead
//! of building a key: a hit costs the hash and one structural comparison,
//! and only a miss copies the kernel into its entry's key.
//!
//! ## Invalidation and the bound
//!
//! Entries are only ever superseded, never mutated: a changed kernel or
//! layout produces a different key.  The per-device cache holds at most
//! [`DEFAULT_CACHE_CAPACITY`] entries for the device's whole life,
//! evicting the oldest insertion (FIFO) beyond that.  There is no
//! switch: a cold launch is a miss on a fresh [`crate::Device`], and a
//! hit returns the program a miss compiles (bit-identical memory,
//! statistics and events: `tests/cache_differential.rs`).
//!
//! ## Concurrency
//!
//! Each [`crate::Device`] owns its own cache, so threaded cluster
//! dispatch never contends across devices.  Within a device the cache is
//! a [`BoundedMemo`]: a hit takes the map's read lock only, and a miss
//! is **single-flight** — the entry's cell is inserted under the map
//! lock, one caller compiles (outside the map lock, so other keys never
//! wait), and concurrent launches of the same kernel wait for that
//! compile and count as hits.  The counters are therefore a function of
//! the launches made, never of how shard threads interleave.

use crate::memo::BoundedMemo;
use crate::uop::CompiledKernel;
use atgpu_ir::Kernel;
use std::borrow::Borrow;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Entry bound of every device's cache.
pub const DEFAULT_CACHE_CAPACITY: usize = 64;

/// The full lookup key of one compiled kernel (see module docs): hashed
/// by `kernel` alone, compared on everything.
#[derive(Debug, Clone)]
pub struct CacheKey {
    /// Structural kernel hash ([`Kernel::cache_key`]): all `Hash` reads.
    pub kernel: u64,
    /// The kernel with its name cleared: what `Eq` compares it by.
    pub structure: Arc<Kernel>,
    /// Device-buffer base addresses the compile folded in.
    pub bases: Box<[u64]>,
    /// Lanes per block.
    pub b: u32,
    /// Registers per lane.
    pub nregs: u32,
}

/// A key's parts, borrowed: what a stored [`CacheKey`] and a lookup
/// both present, so a lookup needs no owned key.
#[derive(Clone, Copy)]
struct KeyParts<'a> {
    hash: u64,
    kernel: &'a Kernel,
    bases: &'a [u64],
    b: u32,
    nregs: u32,
}

/// Something with [`KeyParts`] — the borrowed form of a [`CacheKey`].
trait Keyed {
    fn parts(&self) -> KeyParts<'_>;
}

impl Keyed for CacheKey {
    fn parts(&self) -> KeyParts<'_> {
        let (hash, kernel, bases, b, nregs) =
            (self.kernel, &*self.structure, &*self.bases, self.b, self.nregs);
        KeyParts { hash, kernel, bases, b, nregs }
    }
}

impl Keyed for KeyParts<'_> {
    fn parts(&self) -> KeyParts<'_> {
        *self
    }
}

impl Hash for dyn Keyed + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.parts().hash.hash(state);
    }
}

impl PartialEq for dyn Keyed + '_ {
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (self.parts(), other.parts());
        a.hash == b.hash
            && a.b == b.b
            && a.nregs == b.nregs
            && a.bases == b.bases
            && a.kernel.same_structure(b.kernel)
    }
}

impl Eq for dyn Keyed + '_ {}

impl<'a> Borrow<dyn Keyed + 'a> for CacheKey {
    fn borrow(&self) -> &(dyn Keyed + 'a) {
        self
    }
}

impl Hash for CacheKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (self as &dyn Keyed).hash(state);
    }
}

impl PartialEq for CacheKey {
    fn eq(&self, other: &Self) -> bool {
        (self as &dyn Keyed) == (other as &dyn Keyed)
    }
}

impl Eq for CacheKey {}

/// Cache observability counters, surfaced through
/// [`crate::device::DeviceStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Launches served from a cached compilation.
    pub hits: u64,
    /// Launches that compiled fresh and populated the cache.
    pub misses: u64,
    /// Entries currently resident.
    pub entries: usize,
}

impl CacheStats {
    /// Hits over total lookups (0 when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Folds another device's counters in (cluster-wide totals).
    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.entries += other.entries;
    }
}

/// The per-device keyed kernel cache.
#[derive(Debug)]
pub struct KernelCache {
    memo: BoundedMemo<CacheKey, Arc<CompiledKernel>>,
}

impl KernelCache {
    /// A cache bounded to `capacity` entries (at least one).
    pub fn new(capacity: usize) -> Self {
        Self { memo: BoundedMemo::new(capacity) }
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats { hits: self.memo.hits(), misses: self.memo.misses(), entries: self.memo.len() }
    }

    /// Looks up (or compiles and inserts) the compilation of `kernel`
    /// for the launch parameters `(bases, b, nregs)`.
    pub fn get_or_compile(
        &self,
        kernel: &Kernel,
        bases: &[u64],
        b: u32,
        nregs: u32,
    ) -> Arc<CompiledKernel> {
        let probe = KeyParts { hash: kernel.cache_key(), kernel, bases, b, nregs };
        if let Some(hit) = self.memo.get(&probe as &dyn Keyed) {
            return hit;
        }
        let structure = Kernel {
            name: String::new(),
            body: kernel.body.clone(),
            grid: kernel.grid,
            shared_words: kernel.shared_words,
        };
        let key = CacheKey {
            kernel: probe.hash,
            structure: Arc::new(structure),
            bases: bases.into(),
            b,
            nregs,
        };
        self.memo
            .get_or_compute(key, || Arc::new(CompiledKernel::compile(kernel, bases, b, nregs)))
            .0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atgpu_ir::{AddrExpr, DBuf, KernelBuilder, Operand};

    fn kernel(name: &str, imm: i64) -> Kernel {
        let mut kb = KernelBuilder::new(name, 4, 8);
        kb.glb_to_shr(AddrExpr::lane(), DBuf(0), AddrExpr::block() * 4 + AddrExpr::lane());
        kb.mov(0, Operand::Imm(imm));
        kb.build()
    }

    #[test]
    fn hit_returns_same_compilation() {
        let cache = KernelCache::new(8);
        let k = kernel("a", 1);
        let e1 = cache.get_or_compile(&k, &[0], 4, 1);
        let e2 = cache.get_or_compile(&k, &[0], 4, 1);
        assert!(Arc::ptr_eq(&e1, &e2));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert_eq!(s.hit_rate(), 0.5);
    }

    #[test]
    fn renamed_kernel_hits_mutated_kernel_misses() {
        let cache = KernelCache::new(8);
        let e1 = cache.get_or_compile(&kernel("a", 1), &[0], 4, 1);
        let e2 = cache.get_or_compile(&kernel("b", 1), &[0], 4, 1);
        assert!(Arc::ptr_eq(&e1, &e2), "name is not part of the key");
        let e3 = cache.get_or_compile(&kernel("a", 2), &[0], 4, 1);
        assert!(!Arc::ptr_eq(&e1, &e3), "instruction mutation must miss");
    }

    /// Two kernels whose 64-bit hashes collide are different keys: they
    /// hash alike, compare unequal and take two entries, and a lookup by
    /// either finds its own compilation.
    #[test]
    fn colliding_kernel_hashes_do_not_alias() {
        let cache = KernelCache::new(8);
        let (one, two) = (kernel("a", 1), kernel("a", 2));
        let key = |k: &Kernel| CacheKey {
            kernel: 0xC011_1DE5,
            structure: Arc::new(Kernel { name: String::new(), ..k.clone() }),
            bases: Box::new([0]),
            b: 4,
            nregs: 1,
        };
        assert_ne!(key(&one), key(&two));
        let compile = |k: &Kernel| Arc::new(CompiledKernel::compile(k, &[0], 4, 1));
        let (e1, hit1) = cache.memo.get_or_compute(key(&one), || compile(&one));
        let (e2, hit2) = cache.memo.get_or_compute(key(&two), || compile(&two));
        assert!(!hit1 && !hit2 && !Arc::ptr_eq(&e1, &e2));
        assert_eq!(cache.stats().entries, 2);
        for (k, entry) in [(&one, &e1), (&two, &e2)] {
            let probe = KeyParts { hash: 0xC011_1DE5, kernel: k, bases: &[0], b: 4, nregs: 1 };
            let found = cache.memo.get(&probe as &dyn Keyed).expect("resident");
            assert!(Arc::ptr_eq(&found, entry));
        }
    }

    #[test]
    fn launch_parameters_are_part_of_the_key() {
        let cache = KernelCache::new(8);
        let k = kernel("a", 1);
        let base = cache.get_or_compile(&k, &[0], 4, 1);
        for (bases, b, nregs) in [(&[8u64][..], 4, 1), (&[0][..], 8, 1), (&[0][..], 4, 2)] {
            let e = cache.get_or_compile(&k, bases, b, nregs);
            assert!(!Arc::ptr_eq(&base, &e), "bases/b/nregs must key separately");
        }
        assert_eq!(cache.stats().misses, 4);
        assert_eq!(cache.stats().hits, 0);
    }

    #[test]
    fn fifo_eviction_respects_capacity() {
        let cache = KernelCache::new(2);
        cache.get_or_compile(&kernel("a", 1), &[0], 4, 1);
        cache.get_or_compile(&kernel("a", 2), &[0], 4, 1);
        cache.get_or_compile(&kernel("a", 3), &[0], 4, 1); // evicts imm=1
        assert_eq!(cache.stats().entries, 2);
        cache.get_or_compile(&kernel("a", 1), &[0], 4, 1); // must re-miss
        assert_eq!(cache.stats().hits, 0);
        assert_eq!(cache.stats().misses, 4);
    }
}
