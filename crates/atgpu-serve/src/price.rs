//! What-if pricing: structural query keys and the bounded memo cache.
//!
//! A pricing query is identified **structurally**: the program's
//! compile-relevant shape (kernel structures, shard plans, transfer
//! tuples, stream tags) combined with the cluster's
//! [`words`](atgpu_model::ClusterSpec::words) and the abstract machine
//! shape, each keyed on its own and the two keys hashed together.  Names
//! are excluded everywhere — a renamed kernel or buffer prices
//! identically — mirroring the name-exclusion rule of the kernel cache.  Two queries with equal keys are the same question, so the
//! second is answered from the memo in nanoseconds.
//!
//! The memos trust their keys without confirming a hit, so the keys are
//! the server's own: SipHash under a key drawn once per server
//! (`Keys`), which a client never sees and so cannot steer two questions
//! onto.  [`program_key`] is the unkeyed FNV-1a of the same walk — a
//! stable name for a program's shape, which no memo is keyed by.
//!
//! A program's analysis — its [`CostInputs`], which read only the
//! program, the machine and the device count the program names — is kept
//! under the program's key in a memo bounded at
//! [`ANALYSIS_BUDGET_BYTES`], so a what-if on a new spec prices kept
//! inputs instead of analysing again.

use atgpu_analyze::CostInputs;
use atgpu_ir::{Fnv1a, HostBufRole, HostStep, Kernel, Program, ProgramBody};
use atgpu_model::{AtgpuMachine, ClusterSpec};
use atgpu_sim::BoundedMemo;
use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// How a price was produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PriceSource {
    /// Answered from the memo cache (a previous quote with this key).
    Memo,
    /// Computed by the analytic streamed cost model.
    Analytic,
    /// Computed by full simulation (the slow fallback): the cost of the
    /// program on **zero-filled inputs**.  Exact — bit-equal to a run on
    /// any inputs — when the program's addressing is data-independent;
    /// a program that indexes memory by value (bank conflicts and
    /// coalescing then follow the data) is quoted at its zero-input
    /// cost, which on the shipped roster is within 2 % of a run on the
    /// real inputs (`histogram` +1.70 %, `spmv` −0.17 % at
    /// `gtx650_like`).
    Simulated,
}

/// A priced query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quote {
    /// Predicted wall-clock of the program on the cluster (ms).
    pub total_ms: f64,
    /// How this answer was produced.
    pub source: PriceSource,
}

/// Pricing-path counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PriceStats {
    /// Queries answered from the memo.
    pub memo_hits: u64,
    /// Queries answered by the analytic cost model.
    pub analytic: u64,
    /// Queries that fell back to full simulation.
    pub simulated: u64,
    /// Quotes currently memoized.
    pub entries: usize,
}

impl PriceStats {
    /// Fraction of queries answered without running a simulation
    /// (memo hits + analytic answers over all queries).
    pub fn fast_fraction(&self) -> f64 {
        let total = self.memo_hits + self.analytic + self.simulated;
        if total == 0 {
            return 1.0;
        }
        (self.memo_hits + self.analytic) as f64 / total as f64
    }
}

/// The words of a program's cost-relevant shape, handed to `word` one
/// at a time: buffer sizes and roles, and per round each step's
/// discriminant, operands, device targets and stream tags; a launch
/// enters as `kernel_hash` of its kernel plus the shard plan.  Program,
/// kernel and buffer *names* are excluded.  A launch of the previous launch's
/// kernel reuses its hash, by the rule stated at
/// [`Kernel::same_structure`], so a relaunched kernel is hashed once.
fn shape(p: &ProgramBody, kernel_hash: impl Fn(&Kernel) -> u64, mut word: impl FnMut(u64)) {
    let mut previous: Option<(&Kernel, u64)> = None;
    let mut kernel_key = |k| match previous {
        Some((pk, key)) if Kernel::same_structure(pk, k) => key,
        _ => {
            let key = kernel_hash(k);
            previous = Some((k, key));
            key
        }
    };
    let mut put = |words: &[u64]| words.iter().for_each(|&w| word(w));
    put(&[p.device_allocs.len() as u64]);
    for a in &p.device_allocs {
        put(&[a.words]);
    }
    put(&[p.host_bufs.len() as u64]);
    for b in &p.host_bufs {
        put(&[b.words, matches!(b.role, HostBufRole::Input) as u64]);
    }
    put(&[p.rounds.len() as u64]);
    for round in &p.rounds {
        put(&[round.steps.len() as u64]);
        for step in &round.steps {
            match step {
                HostStep::TransferIn { host, host_off, dev, dev_off, words, device, stream } => {
                    let (device, stream) = (u64::from(*device), u64::from(*stream));
                    let (host, dev) = (host.0 as u64, dev.0 as u64);
                    put(&[0, host, *host_off, dev, *dev_off, *words, device, stream]);
                }
                HostStep::TransferOut { dev, dev_off, host, host_off, words, device, stream } => {
                    let (device, stream) = (u64::from(*device), u64::from(*stream));
                    let (host, dev) = (host.0 as u64, dev.0 as u64);
                    put(&[1, dev, *dev_off, host, *host_off, *words, device, stream]);
                }
                HostStep::TransferPeer { src, dst, buf, src_off, dst_off, words } => {
                    let (src, dst) = (u64::from(*src), u64::from(*dst));
                    put(&[2, src, dst, buf.0 as u64, *src_off, *dst_off, *words]);
                }
                HostStep::Launch(k) => put(&[3, kernel_key(k)]),
                HostStep::LaunchSharded { kernel, shards } => {
                    put(&[4, kernel_key(kernel), shards.len() as u64]);
                    for s in shards {
                        put(&[u64::from(s.device), s.start, s.end]);
                    }
                }
                HostStep::SyncStream { device, stream } => {
                    put(&[5, u64::from(*device), u64::from(*stream)])
                }
                HostStep::SyncDevice { device } => put(&[6, u64::from(*device)]),
            }
        }
    }
}

/// A stable structural hash of a program's cost-relevant shape: FNV-1a
/// over its words, kernels entering as their
/// [`cache_key`](atgpu_ir::Kernel::cache_key).  Program, kernel and
/// buffer *names* are excluded.  Unkeyed, so anyone can collide it:
/// the server's memos are keyed by `Keys` instead.
pub fn program_key(p: &Program) -> u64 {
    let mut h = Fnv1a::default();
    shape(p, Kernel::cache_key, |v| h.write(&v.to_le_bytes()));
    h.finish()
}

/// Bytes a [`Blocked`] hasher gathers before handing them on.
const BLOCK: usize = 256;

/// A hasher that hands `H` its byte stream a block at a time.  SipHash
/// digests the stream, not the way it is cut into `write`s, so the digest
/// is `H`'s over the same bytes — for one `write` per [`BLOCK`] bytes
/// instead of one per field, and no buffer that grows with the input.
struct Blocked<H> {
    inner: H,
    buf: [u8; BLOCK],
    len: usize,
}

impl<H: Hasher + Clone> Blocked<H> {
    fn new(inner: H) -> Self {
        Self { inner, buf: [0; BLOCK], len: 0 }
    }

    /// Appends a fixed-width field: a constant-size copy, no call.
    #[inline(always)]
    fn push<const N: usize>(&mut self, bytes: [u8; N]) {
        if self.len + N > BLOCK {
            self.inner.write(&self.buf[..self.len]);
            self.len = 0;
        }
        self.buf[self.len..self.len + N].copy_from_slice(&bytes);
        self.len += N;
    }
}

impl<H: Hasher + Clone> Hasher for Blocked<H> {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        if self.len + bytes.len() > BLOCK {
            self.inner.write(&self.buf[..self.len]);
            self.len = 0;
            if bytes.len() > BLOCK {
                self.inner.write(bytes);
                return;
            }
        }
        self.buf[self.len..self.len + bytes.len()].copy_from_slice(bytes);
        self.len += bytes.len();
    }

    // The fixed-width writes the `Hash` impls make, each the bytes the
    // default method would pass to `write`.
    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.push(i.to_ne_bytes());
    }
    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.push(i.to_ne_bytes());
    }
    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.push(i.to_ne_bytes());
    }
    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.push(i.to_ne_bytes());
    }
    #[inline]
    fn write_i64(&mut self, i: i64) {
        self.push(i.to_ne_bytes());
    }
    #[inline]
    fn write_isize(&mut self, i: isize) {
        self.push(i.to_ne_bytes());
    }

    fn finish(&self) -> u64 {
        let mut h = self.inner.clone();
        h.write(&self.buf[..self.len]);
        h.finish()
    }
}

/// The server's memo keys: SipHash under a key drawn once per server,
/// over the walk [`program_key`] hashes, each kernel entering as its
/// keyed [`Kernel::hash_structure`].  A client that never sees a key
/// cannot construct two questions that share one, so a memo hit needs
/// no confirmation; a key therefore never leaves the server.  A `Keys`
/// made outside a server draws its own key: it computes keys of the same
/// form (and at the same cost), never a server's.
///
/// A program's key is kept in the program ([`Program::keyed`]) under
/// `tag`, SipHash of nothing under the same key: as unguessable as the
/// key, so no client can plant a digest a server would take as its own.
/// Neither the tag nor the key is printed.
///
/// A quote's key has two levels: [`Keys::quote`] hashes the 16 bytes of
/// a program's key and a cluster's [`Keys::spec`].  Neither level grows
/// with the other's input, so a server that keeps its own cluster's key
/// answers a repeat quote for the same few hashes on 2 devices or 32.
pub struct Keys {
    state: RandomState,
    tag: u64,
}

impl Default for Keys {
    fn default() -> Self {
        let state = RandomState::new();
        let tag = state.build_hasher().finish();
        Self { state, tag }
    }
}

impl std::fmt::Debug for Keys {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Keys").finish_non_exhaustive()
    }
}

impl Keys {
    /// A hasher under this server's key, fed a block at a time.
    fn hasher(&self) -> Blocked<impl Hasher + Clone> {
        Blocked::new(self.state.build_hasher())
    }

    /// The verdict memo's and the analysis memo's key: the program's
    /// shape, in one pass over the bytes it hashes — once per program
    /// contents: later calls compare the program's kept tag.  This is the
    /// crate's one walk of a program under the key.
    pub fn program(&self, p: &Program) -> u64 {
        p.keyed(self.tag, |p| {
            let kernel_hash = |k: &Kernel| {
                let mut h = self.hasher();
                k.hash_structure(&mut h);
                h.finish()
            };
            let mut h = self.hasher();
            shape(p, kernel_hash, |v| h.write_u64(v));
            h.finish()
        })
    }

    /// A cluster's key: its [`words`](ClusterSpec::words) and the machine
    /// shape, in one pass.  A spec of `n` devices is `2 + 10n + 2n(n−1)`
    /// words, so a server keys its own cluster once, in
    /// [`CostServer::new`](crate::CostServer::new), and a what-if's spec
    /// per request.
    pub fn spec(&self, spec: &ClusterSpec, machine: &AtgpuMachine) -> u64 {
        let mut h = self.hasher();
        spec.words(|v| h.write_u64(v));
        for v in [machine.p, machine.b, machine.m, machine.g] {
            h.write_u64(v);
        }
        h.finish()
    }

    /// The quote memo's key: a program's [`Keys::program`] × a cluster's
    /// [`Keys::spec`] — 16 bytes, whatever the cluster's size.
    pub fn quote(&self, program: u64, spec: u64) -> u64 {
        let mut h = self.state.build_hasher();
        h.write_u64(program);
        h.write_u64(spec);
        h.finish()
    }
}

/// A bounded, thread-safe memo of priced queries.
///
/// A [`BoundedMemo`] — the bounded single-flight cache also under the
/// verdict memo and the simulator's kernel cache: a distinct query is
/// priced exactly once ([`quote_with`](Self::quote_with)), concurrent
/// askers of the same question wait for that price and count as memo
/// hits, and a pricing that fails caches nothing.
/// [`stats`](Self::stats) is a consistent-enough snapshot for
/// monitoring, not a transaction.
#[derive(Debug)]
pub struct PriceMemo {
    memo: BoundedMemo<u64, Quote>,
    analytic: AtomicU64,
    simulated: AtomicU64,
}

impl PriceMemo {
    /// A memo bounded at `capacity` quotes (at least 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            memo: BoundedMemo::new(capacity.max(1)),
            analytic: AtomicU64::new(0),
            simulated: AtomicU64::new(0),
        }
    }

    /// The quote for `key`: from the memo (re-labelled
    /// [`PriceSource::Memo`]) when this question was priced before,
    /// otherwise from `price`, whose answer is memoized and counted
    /// under its source.  A resident quote answers unconfirmed: `key`
    /// must be one a client cannot steer (see `Keys`).
    pub fn quote_with<E>(
        &self,
        key: u64,
        price: impl FnOnce() -> Result<Quote, E>,
    ) -> Result<Quote, E> {
        let (quote, hit) = self.memo.get_or_try_compute(
            key,
            |_| true,
            || {
                let quote = price()?;
                match quote.source {
                    PriceSource::Analytic => self.analytic.fetch_add(1, Ordering::Relaxed),
                    PriceSource::Simulated => self.simulated.fetch_add(1, Ordering::Relaxed),
                    PriceSource::Memo => 0, // memo hits are never re-priced
                };
                Ok(quote)
            },
        )?;
        Ok(if hit { Quote { source: PriceSource::Memo, ..quote } } else { quote })
    }

    /// Counter + occupancy snapshot.
    pub fn stats(&self) -> PriceStats {
        PriceStats {
            memo_hits: self.memo.hits(),
            analytic: self.analytic.load(Ordering::Relaxed),
            simulated: self.simulated.load(Ordering::Relaxed),
            entries: self.memo.len(),
        }
    }
}

/// Bytes of program analyses a server keeps: a what-if on a program whose
/// analysis is resident prices it without analysing again.  An entry
/// weighs its [`CostInputs::heap_bytes`] plus a fixed allowance for
/// itself and its memo slot; the oldest are evicted first.
pub const ANALYSIS_BUDGET_BYTES: usize = 8 << 20;

/// What an entry of the analysis memo costs beside its tables, rounded
/// up: the inputs themselves, the memo's map and queue slots and its
/// cell.
const ENTRY_BYTES: usize = std::mem::size_of::<CostInputs>() + 128;

/// A program's kept analysis: `None` when its quote is not analytic (the
/// analysis failed, or it is neither trusted nor saturated).
pub(crate) type Kept = Option<Arc<CostInputs>>;

/// The bounded memo of program analyses, keyed by a program's
/// `Keys::program`.
pub(crate) fn analysis_memo() -> BoundedMemo<u64, Kept> {
    BoundedMemo::weighted(ANALYSIS_BUDGET_BYTES, |kept| {
        ENTRY_BYTES + kept.as_ref().map_or(0, |inputs| inputs.heap_bytes())
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use atgpu_ir::Shard;
    use atgpu_ir::{AddrExpr, AluOp, DBuf, KernelBuilder, Operand, PredExpr, ProgramBuilder};
    use std::convert::Infallible;

    fn program(n: u64, kernel_name: &str) -> Program {
        let mut pb = ProgramBuilder::new("p");
        let h = pb.host_input("A", n);
        let d = pb.device_alloc("a", n);
        let mut kb = KernelBuilder::new(kernel_name, n / 32, 32);
        kb.glb_to_shr(AddrExpr::lane(), d, AddrExpr::block() * 32 + AddrExpr::lane());
        pb.begin_round();
        pb.transfer_in(h, d, n);
        pb.launch(kb.build());
        pb.build().unwrap()
    }

    #[test]
    fn program_key_ignores_names_but_sees_structure() {
        let a = program(64, "k");
        let renamed = program(64, "other_name");
        assert_eq!(program_key(&a), program_key(&renamed));
        let bigger = program(128, "k");
        assert_ne!(program_key(&a), program_key(&bigger));
    }

    #[test]
    fn quote_key_sees_spec_and_machine() {
        let keys = Keys::default();
        let p = keys.program(&program(64, "k"));
        let m = AtgpuMachine::new(1 << 16, 32, 12_288, 1 << 22).unwrap();
        let s2 = ClusterSpec::homogeneous(2, atgpu_model::GpuSpec::gtx650_like());
        let s4 = ClusterSpec::homogeneous(4, atgpu_model::GpuSpec::gtx650_like());
        let quote = |s, m| keys.quote(p, keys.spec(s, m));
        assert_ne!(quote(&s2, &m), quote(&s4, &m));
        let m2 = AtgpuMachine::new(1 << 16, 32, 12_288, 1 << 23).unwrap();
        assert_ne!(quote(&s2, &m), quote(&s2, &m2));
        // The unused peer-link diagonal is no part of a spec's key.
        let mut diagonal = s2.clone();
        diagonal.peer_links[1][1] = diagonal.peer_links[1][1].scaled(3.0);
        assert_eq!(keys.spec(&diagonal, &m), keys.spec(&s2, &m));
    }

    /// The quote key is SipHash, under the server's key, of its two words
    /// and nothing else: equal words key alike however they were made, and
    /// either word, or their order, changes it.
    #[test]
    fn quote_key_is_a_function_of_its_two_words() {
        let keys = Keys::default();
        let words = [0, 1, 2, u64::MAX, 0x9E37_79B9_7F4A_7C15];
        for program in words {
            for spec in words {
                let mut h = keys.state.build_hasher();
                h.write_u64(program);
                h.write_u64(spec);
                assert_eq!(keys.quote(program, spec), h.finish());
                if program != spec {
                    assert_ne!(keys.quote(program, spec), keys.quote(spec, program));
                }
                for other in words.into_iter().filter(|&w| w != spec) {
                    assert_ne!(keys.quote(program, spec), keys.quote(program, other));
                    assert_ne!(keys.quote(spec, program), keys.quote(other, program));
                }
            }
        }
        assert_ne!(keys.quote(1, 2), Keys::default().quote(1, 2), "a server's own");
    }

    /// A server's keys are its own: two servers key one program apart,
    /// neither key is the public [`program_key`], and a renamed program
    /// keys alike under one server.
    #[test]
    fn keys_are_per_server_and_ignore_names() {
        let (one, two) = (Keys::default(), Keys::default());
        let p = program(64, "k");
        assert_ne!(one.program(&p), two.program(&p));
        for keys in [&one, &two] {
            assert_ne!(keys.program(&p), program_key(&p));
            assert_eq!(keys.program(&p), keys.program(&program(64, "other_name")));
            assert_ne!(keys.program(&p), keys.program(&program(128, "k")));
        }
    }

    /// The keys as they were hashed before `Blocked`: one SipHash call per
    /// field.  Kept here only, as the oracle of the one-pass digest.
    fn streamed_program(keys: &Keys, p: &Program) -> u64 {
        let kernel_hash = |k: &Kernel| {
            let mut h = keys.state.build_hasher();
            k.hash_structure(&mut h);
            h.finish()
        };
        let mut h = keys.state.build_hasher();
        shape(p, kernel_hash, |v| h.write_u64(v));
        h.finish()
    }

    fn streamed_spec(keys: &Keys, spec: &ClusterSpec, m: &AtgpuMachine) -> u64 {
        let mut h = keys.state.build_hasher();
        spec.words(|v| h.write_u64(v));
        for v in [m.p, m.b, m.m, m.g] {
            h.write_u64(v);
        }
        h.finish()
    }

    /// Every roster workload under every plan cell keys alike fed a block
    /// at a time and field by field, and so do the clusters its plans
    /// run on: one device, the planned asymmetric pair and three devices.
    #[test]
    fn one_pass_keys_equal_the_streamed_keys_over_the_roster() {
        let keys = Keys::default();
        let (machine, gpu) =
            (atgpu_algos::workload::test_machine(), atgpu_algos::workload::test_spec());
        let cluster = atgpu_algos::roster::asym_pair(gpu);
        let mut programs = 0;
        for entry in atgpu_algos::roster::roster() {
            for (_, plan) in entry.plans(&machine, &cluster) {
                let p = entry.workload.build_plan(&machine, plan).unwrap().program;
                let key = keys.program(&p);
                assert_eq!(key, streamed_program(&keys, &p), "{}", entry.name);
                programs += 1;
            }
        }
        assert!(programs >= 50, "{programs} roster cells");
        let one = ClusterSpec::homogeneous(1, gpu);
        let three = ClusterSpec::homogeneous(3, gpu);
        for spec in [&one, &cluster, &three] {
            assert_eq!(keys.spec(spec, &machine), streamed_spec(&keys, spec, &machine));
        }
    }

    /// SplitMix64, for the random kernels below.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % n
        }

        fn operand(&mut self) -> Operand {
            match self.below(4) {
                0 => Operand::Reg(self.below(8) as u8),
                1 => Operand::Imm(self.below(1 << 40) as i64 - (1 << 39)),
                2 => Operand::Lane,
                _ => Operand::Block,
            }
        }

        fn addr(&mut self, depth: u32) -> AddrExpr {
            let leaf = |r: &mut Self| match r.below(5) {
                0 => AddrExpr::lane(),
                1 => AddrExpr::block(),
                2 => AddrExpr::c(r.below(1 << 20) as i64),
                3 => AddrExpr::loop_var(r.below(2) as u8),
                _ => AddrExpr::reg(r.below(8) as u8),
            };
            if depth == 0 || self.below(3) == 0 {
                return leaf(self);
            }
            let (a, b) = (self.addr(depth - 1), self.addr(depth - 1));
            match self.below(3) {
                0 => a + b,
                1 => a - b,
                _ => a * b,
            }
        }

        /// Up to `len` random instructions, nesting loops and guards
        /// `depth` deep.
        fn body(&mut self, kb: &mut KernelBuilder, len: u64, depth: u32) {
            let ops = [AluOp::Add, AluOp::Sub, AluOp::Mul, AluOp::Rem, AluOp::Xor, AluOp::Shl];
            for _ in 0..self.below(len) + 1 {
                match self.below(if depth == 0 { 6 } else { 8 }) {
                    0 => {
                        let op = ops[self.below(ops.len() as u64) as usize];
                        let (a, b) = (self.operand(), self.operand());
                        kb.alu(op, self.below(8) as u8, a, b);
                    }
                    1 => {
                        let src = self.operand();
                        kb.mov(self.below(8) as u8, src);
                    }
                    2 => {
                        let (shared, global) = (self.addr(2), self.addr(3));
                        kb.glb_to_shr(shared, DBuf(self.below(3) as u32), global);
                    }
                    3 => {
                        let (global, shared) = (self.addr(3), self.addr(2));
                        kb.shr_to_glb(DBuf(self.below(3) as u32), global, shared);
                    }
                    4 => {
                        let shared = self.addr(2);
                        kb.ld_shr(self.below(8) as u8, shared);
                    }
                    5 => {
                        kb.sync();
                    }
                    6 => {
                        let trips = self.below(5) as u32;
                        kb.repeat(trips, |kb| self.body(kb, len / 2, depth - 1));
                    }
                    _ => {
                        let pred = PredExpr::Lt(self.operand(), self.operand());
                        kb.when(pred, |kb| self.body(kb, len / 2, depth - 1));
                    }
                }
            }
        }
    }

    /// A program of random rounds over random kernels — relaunches and
    /// sharded launches included.  The kernels are not validated: a key
    /// hashes any shape.
    fn random_program(rng: &mut Rng) -> Program {
        let mut pb = ProgramBuilder::new(format!("random{}", rng.below(100)));
        let h = pb.host_input("A", 64);
        let d = pb.device_alloc("a", 64);
        let placeholder = KernelBuilder::new("k", 2, 0).build();
        for _ in 0..1 + rng.below(6) {
            pb.begin_round();
            pb.transfer_in_to(rng.below(3) as u32, h, rng.below(8), d, 0, 1 + rng.below(56));
            if rng.below(2) == 0 {
                pb.launch(placeholder.clone());
            } else {
                let shard = |device, start| Shard { device, start, end: start + 1 };
                pb.launch_sharded(placeholder.clone(), vec![shard(1, 0), shard(0, 1)]);
            }
        }
        let mut p = pb.build().unwrap();
        let mut kernel = None;
        for step in p.edit().rounds.iter_mut().flat_map(|r| &mut r.steps) {
            let (HostStep::Launch(k) | HostStep::LaunchSharded { kernel: k, .. }) = step else {
                continue;
            };
            if kernel.is_none() || rng.below(2) == 0 {
                let mut kb = KernelBuilder::new("k", 1 + rng.below(16), rng.below(256));
                rng.body(&mut kb, 12, 2);
                kernel = Some(kb.build());
            }
            *k = kernel.clone().unwrap();
        }
        p
    }

    /// A spec of `n` devices with every `GpuSpec` and link word drawn at
    /// random (the peer-link diagonal too, which no key reads).
    fn random_spec(rng: &mut Rng, n: usize) -> ClusterSpec {
        let float = |rng: &mut Rng| f64::from_bits(rng.below(u64::MAX));
        let mut spec = ClusterSpec::homogeneous(n, atgpu_model::GpuSpec::gtx650_like());
        for link in spec.host_links.iter_mut().chain(spec.peer_links.iter_mut().flatten()) {
            *link = atgpu_model::LinkParams { alpha_ms: float(rng), beta_ms_per_word: float(rng) };
        }
        spec.sync_ms = float(rng);
        for d in spec.devices.iter_mut() {
            d.clock_cycles_per_ms = float(rng);
            d.xfer_alpha_ms = float(rng);
            d.xfer_beta_ms_per_word = float(rng);
            d.sync_ms = float(rng);
            d.k_prime = rng.below(u64::MAX);
            d.h_limit = rng.below(u64::MAX);
            d.dram_latency_cycles = rng.below(u64::MAX);
            d.dram_issue_cycles = rng.below(u64::MAX);
        }
        spec
    }

    #[test]
    fn one_pass_keys_equal_the_streamed_keys_over_random_specs() {
        let mut rng = Rng(0x5EC5);
        for n in [1, 8, 32] {
            for _ in 0..10 {
                let keys = Keys::default();
                let spec = random_spec(&mut rng, n);
                let p = 32 * (1 + rng.below(1 << 15));
                let (m, g) = (32 + rng.below(1 << 16), 32 + rng.below(1 << 30));
                let machine = AtgpuMachine::new(p, 32, m, g).unwrap();
                assert_eq!(keys.spec(&spec, &machine), streamed_spec(&keys, &spec, &machine));
            }
        }
    }

    #[test]
    fn one_pass_keys_equal_the_streamed_keys_over_random_kernels() {
        let mut rng = Rng(0x5EED);
        for _ in 0..300 {
            let keys = Keys::default();
            let p = random_program(&mut rng);
            assert_eq!(keys.program(&p), streamed_program(&keys, &p));
        }
    }

    #[test]
    fn memo_bounds_and_relabels() {
        let memo = PriceMemo::new(2);
        let priced = std::cell::Cell::new(0);
        let ask = |key: u64| {
            let fresh = || {
                priced.set(priced.get() + 1);
                Ok::<_, Infallible>(Quote { total_ms: key as f64, source: PriceSource::Analytic })
            };
            memo.quote_with(key, fresh).unwrap()
        };
        for key in [1u64, 2, 3] {
            // Never asked before: priced, not served from the memo.
            assert_eq!(ask(key).source, PriceSource::Analytic);
        }
        let q = ask(3);
        assert_eq!(q.source, PriceSource::Memo);
        assert_eq!(q.total_ms, 3.0);
        let st = memo.stats();
        assert_eq!((st.analytic, st.memo_hits, st.entries), (3, 1, 2));
        // FIFO eviction dropped key 1: asking again prices again.
        assert_eq!(ask(1).source, PriceSource::Analytic);
        assert_eq!(priced.get(), 4);
    }
}
