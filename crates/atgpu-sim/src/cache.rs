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
//! * the lane count `b` and register count `nregs` (a function of the
//!   structure: one more than its highest register).
//!
//! A [`CacheKey`] holds all of it.  Its `Hash` reads only the 64-bit
//! structural hash [`atgpu_ir::Kernel::cache_key`]; its `Eq` compares the
//! structure, the complete base vector, `b` and `nregs`.  A 64-bit FNV-1a
//! is not collision-resistant (every immediate is eight free bytes), so
//! two kernels that collide on it take two entries — on a shared server
//! whose caches outlive requests, one tenant's compiled kernel never runs
//! for another's.  A lookup borrows the launch's kernel and bases instead
//! of building a key: a hit costs the hash, the register walk and one
//! structural comparison, and only a miss copies the kernel into its
//! entry's key.
//!
//! ## The previous launch
//!
//! A relaunch is recognised before it is hashed.  A device hands every
//! lookup the key of its previous launch ([`KernelCache::get_or_compile`]'s
//! `last`) and gets this launch's key back in it.  When the launch has the
//! previous one's structure, bases and `b`, that key *is* this launch's —
//! its hash and `nregs` stand, and it probes the memo itself, so the
//! one structural comparison the launch pays is against the previous
//! kernel, and the memo's is a pointer comparison with the entry the key
//! came from.  Only a launch that differs from its predecessor pays the
//! FNV-1a pass and the register walk.  The memo is still asked on every
//! launch, once, exactly as before: the previous key only replaces the
//! way the probe is built, so hits, misses and FIFO residency are the
//! same function of the launch sequence — an evicted previous entry is
//! a miss that compiles and re-inserts, as any evicted entry is.
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

use crate::error::SimError;
use crate::memo::BoundedMemo;
use crate::uop::CompiledKernel;
use atgpu_ir::validate::validate_launch;
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
    pub bases: Arc<[u64]>,
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
            && (std::ptr::eq(a.kernel, b.kernel) || a.kernel.same_structure(b.kernel))
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

    /// Looks up (or validates, compiles and inserts) the compilation of
    /// `kernel` for a launch with device-buffer `bases` and `b` lanes.
    /// `last` is the key of the device's previous launch (`None` before
    /// its first) and holds this launch's key on return — see "The
    /// previous launch" in the module docs.
    ///
    /// A miss first checks [`validate_launch`] over the launch's buffers,
    /// and a kernel that fails it is [`SimError::InvalidKernel`] and is
    /// not cached.  Everything the check reads is part of the key, so a
    /// hit is a kernel that passed it.
    pub fn get_or_compile(
        &self,
        kernel: &Kernel,
        bases: &[u64],
        b: u32,
        last: &mut Option<CacheKey>,
    ) -> Result<Arc<CompiledKernel>, SimError> {
        let compile = |nregs| {
            validate_launch(kernel, bases.len())
                .map_err(|error| SimError::InvalidKernel { error })?;
            Ok(Arc::new(CompiledKernel::compile(kernel, bases, b, nregs)))
        };
        let relaunch = last.as_ref().filter(|key| {
            key.b == b && *key.bases == *bases && key.structure.same_structure(kernel)
        });
        if let Some(key) = relaunch {
            if let Some(hit) = self.memo.get(key as &dyn Keyed) {
                return Ok(hit);
            }
            let (key, nregs) = (key.clone(), key.nregs);
            return Ok(self.memo.get_or_try_compute(key, || compile(nregs))?.0);
        }
        let nregs = kernel.max_reg().map_or(1, |r| u32::from(r) + 1);
        let probe = KeyParts { hash: kernel.cache_key(), kernel, bases, b, nregs };
        if let Some((key, hit)) = self.memo.get_key_value(&probe as &dyn Keyed) {
            *last = Some(key);
            return Ok(hit);
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
        let compiled = self.memo.get_or_try_compute(key.clone(), || compile(nregs))?.0;
        *last = Some(key);
        Ok(compiled)
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

    /// A lookup with no previous launch: the hashing path.
    fn get(cache: &KernelCache, k: &Kernel, bases: &[u64], b: u32) -> Arc<CompiledKernel> {
        cache.get_or_compile(k, bases, b, &mut None).unwrap()
    }

    #[test]
    fn hit_returns_same_compilation() {
        let cache = KernelCache::new(8);
        let k = kernel("a", 1);
        let e1 = get(&cache, &k, &[0], 4);
        let e2 = get(&cache, &k, &[0], 4);
        assert!(Arc::ptr_eq(&e1, &e2));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert_eq!(s.hit_rate(), 0.5);
    }

    #[test]
    fn renamed_kernel_hits_mutated_kernel_misses() {
        let cache = KernelCache::new(8);
        let e1 = get(&cache, &kernel("a", 1), &[0], 4);
        let e2 = get(&cache, &kernel("b", 1), &[0], 4);
        assert!(Arc::ptr_eq(&e1, &e2), "name is not part of the key");
        let e3 = get(&cache, &kernel("a", 2), &[0], 4);
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
            bases: Arc::new([0]),
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
            let probe = KeyParts { nregs: 2, ..probe };
            assert!(cache.memo.get(&probe as &dyn Keyed).is_none(), "nregs is part of the key");
        }
    }

    /// Bases and `b` key separately — on the hashing path, and on the
    /// previous-launch path, whose key a launch with other bases or
    /// another `b` must not take for its own.
    #[test]
    fn launch_parameters_are_part_of_the_key() {
        let cache = KernelCache::new(8);
        let k = kernel("a", 1);
        let mut last = None;
        let base = cache.get_or_compile(&k, &[0], 4, &mut last).unwrap();
        for (bases, b) in [(&[8u64][..], 4), (&[0][..], 8)] {
            assert!(!Arc::ptr_eq(&base, &get(&cache, &k, bases, b)), "bases/b key separately");
            let mut previous = last.clone();
            let e = cache.get_or_compile(&k, bases, b, &mut previous).unwrap();
            assert!(!Arc::ptr_eq(&base, &e), "the previous launch's key is not this one's");
            assert_eq!(previous.map(|key| (key.bases.to_vec(), key.b)), Some((bases.to_vec(), b)));
        }
        assert_eq!((cache.stats().misses, cache.stats().hits), (3, 2));
    }

    /// A relaunch through the previous launch's key finds the same entry
    /// and counts exactly what the hashing path counts — including a
    /// miss, compile and re-insertion once FIFO has evicted that entry.
    #[test]
    fn the_previous_launch_counts_like_any_lookup() {
        let cache = KernelCache::new(2);
        let a = kernel("a", 1);
        let mut last = None;
        let first = cache.get_or_compile(&a, &[0], 4, &mut last).unwrap();
        let again = cache.get_or_compile(&kernel("renamed", 1), &[0], 4, &mut last).unwrap();
        assert!(Arc::ptr_eq(&first, &again));
        assert_eq!((cache.stats().hits, cache.stats().misses), (1, 1));

        get(&cache, &kernel("a", 2), &[0], 4);
        get(&cache, &kernel("a", 3), &[0], 4); // evicts imm = 1
        let back = cache.get_or_compile(&a, &[0], 4, &mut last).unwrap();
        assert!(!Arc::ptr_eq(&first, &back), "an evicted entry compiles again");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 4, 2));
        assert!(Arc::ptr_eq(&back, &get(&cache, &a, &[0], 4)), "and is resident again");
    }

    /// A kernel the validator refuses is an error, takes no entry and is
    /// no previous launch: the next lookup checks it again.
    #[test]
    fn a_refused_kernel_is_an_error_and_is_not_cached() {
        let cache = KernelCache::new(8);
        let mut kb = KernelBuilder::new("bad", 4, 8);
        kb.glb_to_shr(AddrExpr::lane(), DBuf(1), AddrExpr::lane());
        let bad = kb.build();
        let mut last = None;
        for _ in 0..2 {
            let err = cache.get_or_compile(&bad, &[0], 4, &mut last).unwrap_err();
            assert!(matches!(err, SimError::InvalidKernel { .. }), "{err}");
            assert!(last.is_none(), "a refused launch is no previous launch");
        }
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 0, 0));
        assert!(cache.get_or_compile(&bad, &[0, 64], 4, &mut last).is_ok(), "two buffers");
    }

    #[test]
    fn fifo_eviction_respects_capacity() {
        let cache = KernelCache::new(2);
        get(&cache, &kernel("a", 1), &[0], 4);
        get(&cache, &kernel("a", 2), &[0], 4);
        get(&cache, &kernel("a", 3), &[0], 4); // evicts imm=1
        assert_eq!(cache.stats().entries, 2);
        get(&cache, &kernel("a", 1), &[0], 4); // must re-miss
        assert_eq!(cache.stats().hits, 0);
        assert_eq!(cache.stats().misses, 4);
    }
}
