//! Shared-memory bank-conflict analysis.
//!
//! The model *assumes* bank conflicts do not occur ("as these are
//! difficult to analyse") — but our kernels might still have them, and the
//! simulator will charge for them.  This module statically bounds the
//! serialisation degree so experiments can quantify exactly how much the
//! conflict-free assumption costs (extension experiment E3).
//!
//! For an affine shared address with lane stride `cL` on `b` banks:
//!
//! * `cL = 0` — every lane reads the same word: hardware broadcasts,
//!   degree 1;
//! * otherwise the addresses are distinct and lanes `l₁, l₂` collide iff
//!   `cL·(l₁−l₂) ≡ 0 (mod b)`, giving `gcd(|cL|, b)` lanes per bank —
//!   the serialisation degree.
//!
//! Register-dependent addresses are data-dependent: the static bound is
//! the worst case `b`, reported as [`ConflictDegree::DataDependent`].

use atgpu_ir::affine::{run_conflict_degree, CompiledAddr};

/// Worst-case serialisation degree of one shared access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConflictDegree {
    /// Statically known degree (1 = conflict-free).
    Exact(u64),
    /// Depends on run-time register values; worst case is `b`.
    DataDependent,
}

impl ConflictDegree {
    /// Upper bound as a number, given `b` banks.
    pub fn bound(&self, b: u64) -> u64 {
        match self {
            ConflictDegree::Exact(d) => *d,
            ConflictDegree::DataDependent => b,
        }
    }

    /// Combines two degrees, keeping the worse.
    pub fn max(self, other: ConflictDegree, b: u64) -> ConflictDegree {
        match (self, other) {
            (ConflictDegree::DataDependent, _) | (_, ConflictDegree::DataDependent) => {
                ConflictDegree::DataDependent
            }
            (ConflictDegree::Exact(x), ConflictDegree::Exact(y)) => {
                ConflictDegree::Exact(x.max(y).min(b))
            }
        }
    }
}

/// Degree of one shared access site with `b` banks, for a full warp.
///
/// A static affine address is the model's bank rule,
/// [`atgpu_ir::affine::run_conflict_degree`], over `b` lanes — the rule
/// the simulator's executor applies to every shared row it moves.
/// Non-affine register-free shapes could in principle be enumerated, but
/// they are rare; the safe worst case is reported instead.
pub fn site_conflict_degree(addr: &CompiledAddr, b: u64) -> ConflictDegree {
    match addr.as_affine() {
        Some(a) if a.is_static() => ConflictDegree::Exact(run_conflict_degree(a.lane, b, b)),
        _ => ConflictDegree::DataDependent,
    }
}

/// Summary of a kernel's shared-memory conflict behaviour.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BankConflictReport {
    /// Worst degree over all shared access sites.
    pub worst: ConflictDegree,
    /// Number of shared access sites analysed.
    pub sites: usize,
    /// Whether the kernel satisfies the model's conflict-free assumption
    /// (statically: every site has exact degree 1).
    pub conflict_free: bool,
}

impl BankConflictReport {
    /// A report for a kernel with no shared accesses.
    pub fn empty() -> Self {
        Self { worst: ConflictDegree::Exact(1), sites: 0, conflict_free: true }
    }

    /// Folds one site into the report.
    pub fn add_site(&mut self, degree: ConflictDegree, b: u64) {
        self.sites += 1;
        self.worst = self.worst.max(degree, b);
        if !matches!(degree, ConflictDegree::Exact(1)) {
            self.conflict_free = false;
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use atgpu_ir::AddrExpr;

    fn degree(e: AddrExpr, b: u64) -> ConflictDegree {
        site_conflict_degree(&CompiledAddr::compile(e), b)
    }

    #[test]
    fn unit_stride_is_conflict_free() {
        assert_eq!(degree(AddrExpr::lane(), 32), ConflictDegree::Exact(1));
        assert_eq!(degree(AddrExpr::lane() + 7, 32), ConflictDegree::Exact(1));
    }

    #[test]
    fn broadcast_is_conflict_free() {
        assert_eq!(degree(AddrExpr::c(5), 32), ConflictDegree::Exact(1));
        assert_eq!(degree(AddrExpr::loop_var(0), 32), ConflictDegree::Exact(1));
    }

    #[test]
    fn stride_two_is_two_way() {
        assert_eq!(degree(AddrExpr::lane() * 2, 32), ConflictDegree::Exact(2));
    }

    #[test]
    fn odd_stride_is_conflict_free() {
        assert_eq!(degree(AddrExpr::lane() * 3, 32), ConflictDegree::Exact(1));
        assert_eq!(degree(AddrExpr::lane() * 31, 32), ConflictDegree::Exact(1));
    }

    #[test]
    fn stride_b_is_worst_case() {
        // Distinct addresses all in one bank.
        assert_eq!(degree(AddrExpr::lane() * 32, 32), ConflictDegree::Exact(32));
    }

    #[test]
    fn negative_stride_same_as_positive() {
        assert_eq!(degree(AddrExpr::c(100) - AddrExpr::lane() * 2, 32), ConflictDegree::Exact(2));
    }

    #[test]
    fn register_address_is_data_dependent() {
        assert_eq!(degree(AddrExpr::reg(0), 32), ConflictDegree::DataDependent);
        assert_eq!(degree(AddrExpr::reg(0), 32).bound(32), 32);
    }

    #[test]
    fn non_affine_is_data_dependent() {
        assert_eq!(degree(AddrExpr::lane() * AddrExpr::lane(), 32), ConflictDegree::DataDependent);
    }

    #[test]
    fn report_tracks_worst_site() {
        let mut r = BankConflictReport::empty();
        assert!(r.conflict_free);
        r.add_site(ConflictDegree::Exact(1), 32);
        assert!(r.conflict_free);
        r.add_site(ConflictDegree::Exact(4), 32);
        assert!(!r.conflict_free);
        assert_eq!(r.worst, ConflictDegree::Exact(4));
        r.add_site(ConflictDegree::DataDependent, 32);
        assert_eq!(r.worst, ConflictDegree::DataDependent);
        assert_eq!(r.sites, 3);
    }

    #[test]
    fn degree_max_combines() {
        let b = 32;
        assert_eq!(
            ConflictDegree::Exact(2).max(ConflictDegree::Exact(8), b),
            ConflictDegree::Exact(8)
        );
        assert_eq!(
            ConflictDegree::Exact(2).max(ConflictDegree::DataDependent, b),
            ConflictDegree::DataDependent
        );
    }
}
