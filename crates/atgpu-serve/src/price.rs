//! What-if pricing: structural query keys and the bounded memo cache.
//!
//! A pricing query is identified **structurally**: the program's
//! compile-relevant shape (kernel [`cache_key`]s, shard plans, transfer
//! tuples, stream tags) combined with the cluster's
//! [`spec_key`](atgpu_model::ClusterSpec::spec_key) and the abstract
//! machine shape.  Names are excluded everywhere — a renamed kernel or
//! buffer prices identically — mirroring the name-exclusion rule of the
//! kernel cache.  Two queries with equal keys are the same question, so
//! the second is answered from the memo in nanoseconds.
//!
//! [`cache_key`]: atgpu_ir::Kernel::cache_key

use atgpu_ir::{HostStep, Kernel, Program};
use atgpu_model::{AtgpuMachine, ClusterSpec};
use atgpu_sim::BoundedMemo;
use std::sync::atomic::{AtomicU64, Ordering};

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
    /// The structural query key (program × cluster × machine).
    pub key: u64,
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

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(h: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(FNV_PRIME);
    }
}

/// A stable structural hash of a program's cost-relevant shape: buffer
/// sizes and roles, and per round each step's discriminant, operands,
/// device targets and stream tags; kernels contribute their
/// [`cache_key`](atgpu_ir::Kernel::cache_key) plus the shard plan.
/// Program, kernel and buffer *names* are excluded.  A launch of the
/// previous launch's kernel reuses its hash, by the rule stated at
/// [`Kernel::same_structure`], so a relaunched kernel is hashed once.
pub fn program_key(p: &Program) -> u64 {
    let mut previous: Option<(&Kernel, u64)> = None;
    let mut kernel_key = |k| match previous {
        Some((pk, key)) if Kernel::same_structure(pk, k) => key,
        _ => {
            let key = Kernel::cache_key(k);
            previous = Some((k, key));
            key
        }
    };
    let mut h = FNV_OFFSET;
    fnv(&mut h, p.device_allocs.len() as u64);
    for a in &p.device_allocs {
        fnv(&mut h, a.words);
    }
    fnv(&mut h, p.host_bufs.len() as u64);
    for b in &p.host_bufs {
        fnv(&mut h, b.words);
        fnv(&mut h, matches!(b.role, atgpu_ir::HostBufRole::Input) as u64);
    }
    fnv(&mut h, p.rounds.len() as u64);
    for round in &p.rounds {
        fnv(&mut h, round.steps.len() as u64);
        for step in &round.steps {
            match step {
                HostStep::TransferIn { host, host_off, dev, dev_off, words, device, stream } => {
                    for v in [0, host.0 as u64, *host_off, dev.0 as u64, *dev_off, *words] {
                        fnv(&mut h, v);
                    }
                    fnv(&mut h, u64::from(*device));
                    fnv(&mut h, u64::from(*stream));
                }
                HostStep::TransferOut { dev, dev_off, host, host_off, words, device, stream } => {
                    for v in [1, dev.0 as u64, *dev_off, host.0 as u64, *host_off, *words] {
                        fnv(&mut h, v);
                    }
                    fnv(&mut h, u64::from(*device));
                    fnv(&mut h, u64::from(*stream));
                }
                HostStep::TransferPeer { src, dst, buf, src_off, dst_off, words } => {
                    for v in [2, u64::from(*src), u64::from(*dst), buf.0 as u64, *src_off, *dst_off]
                    {
                        fnv(&mut h, v);
                    }
                    fnv(&mut h, *words);
                }
                HostStep::Launch(k) => {
                    fnv(&mut h, 3);
                    fnv(&mut h, kernel_key(k));
                }
                HostStep::LaunchSharded { kernel, shards } => {
                    fnv(&mut h, 4);
                    fnv(&mut h, kernel_key(kernel));
                    fnv(&mut h, shards.len() as u64);
                    for s in shards {
                        fnv(&mut h, u64::from(s.device));
                        fnv(&mut h, s.start);
                        fnv(&mut h, s.end);
                    }
                }
                HostStep::SyncStream { device, stream } => {
                    fnv(&mut h, 5);
                    fnv(&mut h, u64::from(*device));
                    fnv(&mut h, u64::from(*stream));
                }
                HostStep::SyncDevice { device } => {
                    fnv(&mut h, 6);
                    fnv(&mut h, u64::from(*device));
                }
            }
        }
    }
    h
}

/// The full memo key: program shape × cluster spec × machine shape.
pub fn query_key(p: &Program, spec: &ClusterSpec, machine: &AtgpuMachine) -> u64 {
    query_key_from(program_key(p), spec, machine)
}

/// [`query_key`] from an already-computed [`program_key`] — the pricing
/// hot path hashes the program once and reuses the key for both the
/// soundness memo and the quote memo.
pub fn query_key_from(pkey: u64, spec: &ClusterSpec, machine: &AtgpuMachine) -> u64 {
    let mut h = FNV_OFFSET;
    fnv(&mut h, pkey);
    fnv(&mut h, spec.spec_key());
    for v in [machine.p, machine.b, machine.m, machine.g] {
        fnv(&mut h, v);
    }
    h
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
    /// under its source.
    pub fn quote_with<E>(
        &self,
        key: u64,
        price: impl FnOnce() -> Result<Quote, E>,
    ) -> Result<Quote, E> {
        let (quote, hit) = self.memo.get_or_try_compute(key, || {
            let quote = price()?;
            match quote.source {
                PriceSource::Analytic => self.analytic.fetch_add(1, Ordering::Relaxed),
                PriceSource::Simulated => self.simulated.fetch_add(1, Ordering::Relaxed),
                PriceSource::Memo => 0, // memo hits are never re-priced
            };
            Ok(quote)
        })?;
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

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use atgpu_ir::{AddrExpr, KernelBuilder, ProgramBuilder};
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
    fn query_key_sees_spec_and_machine() {
        let p = program(64, "k");
        let m = AtgpuMachine::new(1 << 16, 32, 12_288, 1 << 22).unwrap();
        let s2 = ClusterSpec::homogeneous(2, atgpu_model::GpuSpec::gtx650_like());
        let s4 = ClusterSpec::homogeneous(4, atgpu_model::GpuSpec::gtx650_like());
        assert_ne!(query_key(&p, &s2, &m), query_key(&p, &s4, &m));
        let m2 = AtgpuMachine::new(1 << 16, 32, 12_288, 1 << 23).unwrap();
        assert_ne!(query_key(&p, &s2, &m), query_key(&p, &s2, &m2));
    }

    #[test]
    fn memo_bounds_and_relabels() {
        let memo = PriceMemo::new(2);
        let priced = std::cell::Cell::new(0);
        let ask = |key: u64| {
            let fresh = || {
                priced.set(priced.get() + 1);
                Ok::<_, Infallible>(Quote {
                    total_ms: key as f64,
                    source: PriceSource::Analytic,
                    key,
                })
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
