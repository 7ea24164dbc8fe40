//! The admission-time soundness gate: memoized static-verifier
//! verdicts.
//!
//! Every [`submit`](crate::CostServer::submit) and every pricing query
//! first passes [`Program::check`](atgpu_ir::Program::check) and then the
//! static verifier ([`atgpu_verify::verify_program`], whose analyses
//! assume a checked program): a malformed program is refused
//! with [`ServeError::Invalid`](crate::ServeError), one with a *proven*
//! cross-block write race or out-of-bounds access with
//! [`ServeError::Unsound`](crate::ServeError), before either can touch
//! the shared cluster.  Verdicts are memoized by the server's keyed
//! hash of the program's structural shape — names excluded, the walk
//! [`program_key`](crate::price::program_key) hashes — so a tenant
//! re-submitting the same shape pays for verification once, and no
//! tenant can construct a program that takes another's verdict.
//!
//! The memo is a [`BoundedMemo`] — the same bounded single-flight cache
//! under the price memo and the simulator's kernel cache: each distinct
//! program shape is verified exactly once, and concurrent submissions
//! of one shape wait for that verdict and count as memo hits, so the
//! counters do not depend on how client threads interleave.
//!
//! A verdict is a function of the shape, but a refusal's diagnostic names
//! the program it was derived from — its kernels and buffers.  The memo
//! therefore keeps only *whether* a shape is refused, and a refused
//! asker's diagnostic is derived from the asker's own program: a refusal
//! never carries another tenant's names.  Refusals are the rare path, so
//! re-deriving one costs little.

use atgpu_ir::IrError;
use atgpu_sim::BoundedMemo;
use atgpu_verify::Unsoundness;
use std::sync::atomic::{AtomicU64, Ordering};

/// Why the soundness gate refuses a program.
#[derive(Debug, Clone, PartialEq)]
pub enum Refusal {
    /// The program is malformed: the validator's error.
    Invalid(IrError),
    /// The verifier proved a defect.
    Unsound(Unsoundness),
}

/// Soundness-gate counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VerifyStats {
    /// Gate checks performed (memo hits included).
    pub checked: u64,
    /// Checks answered from the memo.
    pub memo_hits: u64,
    /// Checks that refused the program as invalid or unsound.
    pub rejected: u64,
    /// Verdicts currently memoized.
    pub entries: usize,
}

/// A bounded, thread-safe memo of verify verdicts keyed by structural
/// program shape: whether the shape is refused, and nothing that names a
/// program.
#[derive(Debug)]
pub struct VerifyMemo {
    memo: BoundedMemo<u64, bool>,
    rejected: AtomicU64,
}

impl VerifyMemo {
    /// A memo bounded at `capacity` verdicts (at least 1).
    pub fn new(capacity: usize) -> Self {
        Self { memo: BoundedMemo::new(capacity.max(1)), rejected: AtomicU64::new(0) }
    }

    /// Gates one program: answers from the memo when its structural key
    /// has been verified before, otherwise runs `compute` and records
    /// the verdict.  Returns the reason for refused programs: `compute`'s
    /// own, run again on a refused memo hit, so that the reason names the
    /// asking program.  A resident verdict answers unconfirmed: `key`
    /// must be one a client cannot steer (the server's keyed hash).
    pub fn verdict(
        &self,
        key: u64,
        mut compute: impl FnMut() -> Option<Refusal>,
    ) -> Option<Refusal> {
        let mut fresh = None;
        let (refused, _) = self.memo.get_or_compute(
            key,
            |_| true,
            || {
                fresh = compute();
                fresh.is_some()
            },
        );
        let verdict = if refused { fresh.or_else(compute) } else { None };
        if verdict.is_some() {
            self.rejected.fetch_add(1, Ordering::Relaxed);
        }
        verdict
    }

    /// Counter + occupancy snapshot.
    pub fn stats(&self) -> VerifyStats {
        let memo_hits = self.memo.hits();
        VerifyStats {
            checked: memo_hits + self.memo.misses(),
            memo_hits,
            rejected: self.rejected.load(Ordering::Relaxed),
            entries: self.memo.len(),
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use atgpu_verify::bounds::OobWitness;

    fn defect(kernel: &str) -> Refusal {
        Refusal::Unsound(Unsoundness::OutOfBounds {
            round: 0,
            kernel: kernel.into(),
            instr: 1,
            witness: OobWitness { block: (0, 0), lane: 0, loops: vec![], addr: 64, limit: 64 },
        })
    }

    #[test]
    fn memoizes_and_counts() {
        let memo = VerifyMemo::new(8);
        let mut computed = 0;
        for _ in 0..3 {
            assert!(memo
                .verdict(7, || {
                    computed += 1;
                    None
                })
                .is_none());
        }
        assert_eq!(computed, 1, "sound verdict computed once, then memoized");
        assert!(memo.verdict(9, || Some(defect("k"))).is_some());
        // A refused memo hit answers the asker's own reason.
        assert_eq!(memo.verdict(9, || Some(defect("asker"))), Some(defect("asker")));
        let st = memo.stats();
        assert_eq!((st.checked, st.memo_hits, st.rejected, st.entries), (5, 3, 2, 2));
    }

    #[test]
    fn fifo_eviction_bounds_entries() {
        let memo = VerifyMemo::new(2);
        for key in 0..5u64 {
            memo.verdict(key, || None);
        }
        assert_eq!(memo.stats().entries, 2);
    }
}
