//! Intra-block shared-memory write-hazard check.
//!
//! Two active lanes of one warp storing **different values to the same
//! shared word** in one instruction leave the word implementation-
//! defined; a broadcast of one value is benign (and idiomatic — the
//! scan kernel's owner-block pattern does exactly that).  The model's
//! block rule counts the words: with one-word blocks,
//! [`atgpu_ir::affine::masked_span_blocks`] is the number of distinct
//! words the active lanes address, and fewer words than lanes means two
//! lanes share one.
//!
//! * **Definite** hazard: static affine address whose active lanes
//!   address fewer words than there are lanes (a lane coefficient of 0),
//!   ≥ 2 known-active lanes, non-uniform stored value.  Reported as
//!   unsound.
//! * **Advisory** hazard: register-addressed or unknown-mask stores
//!   (the histogram private-row update is the canonical case).
//!   Surfaced for tooling but *not* an unsoundness — the dynamic
//!   differential suites own those.

use atgpu_analyze::sites::{Access, Site, Space};
use atgpu_ir::affine::masked_span_blocks;

/// One shared-memory write hazard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmemHazard {
    /// Instruction index (`kernel@instr#N`).
    pub instr: usize,
    /// `true`: proven multi-lane non-uniform store to one word.
    /// `false`: advisory only (data-dependent address or mask).
    pub definite: bool,
    /// Active lanes involved (full warp when the mask is unknown).
    pub lanes: u64,
}

/// Scans a kernel's shared write sites, as collected by
/// [`atgpu_analyze::sites::collect`], for hazards.
pub fn check_sites(sites: &[Site], b: u64) -> Vec<SmemHazard> {
    sites.iter().filter_map(|s| check_site(s, b)).collect()
}

fn check_site(site: &Site, b: u64) -> Option<SmemHazard> {
    if site.space != Space::Shared || site.access != Access::Write {
        return None;
    }
    if site.lane_mask == Some(0) || site.loop_counts.contains(&0) || site.uniform_value {
        return None;
    }
    let full = if b >= 64 { u64::MAX } else { (1u64 << b.max(1)) - 1 };
    let mask = site.lane_mask.unwrap_or(full);
    let active = mask.count_ones() as u64;
    if active < 2 {
        return None;
    }
    match site.addr.as_affine() {
        Some(a) if a.is_static() => {
            // Lanes sharing a word write different values; a non-zero
            // lane stride keeps every lane on its own word.
            let words = masked_span_blocks(a.base, a.lane, mask, 1);
            (words < active).then_some(SmemHazard {
                instr: site.instr,
                definite: site.lane_mask.is_some(),
                lanes: active,
            })
        }
        // Data-dependent shared scatter: advisory.
        _ => Some(SmemHazard { instr: site.instr, definite: false, lanes: active }),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing, clippy::panic)]
mod tests {
    use super::*;
    use atgpu_analyze::sites::collect;
    use atgpu_ir::{AddrExpr, KernelBuilder, Operand};

    #[test]
    fn per_lane_stores_are_clean() {
        let mut kb = KernelBuilder::new("k", 1, 32);
        kb.st_shr(AddrExpr::lane(), Operand::Lane);
        assert!(check_sites(&collect(&kb.build(), 32), 32).is_empty());
    }

    #[test]
    fn broadcast_store_is_clean() {
        // Every lane writes the same (lane-invariant) value to word 0.
        let mut kb = KernelBuilder::new("k", 1, 32);
        kb.st_shr(AddrExpr::c(0), Operand::Imm(42));
        assert!(check_sites(&collect(&kb.build(), 32), 32).is_empty());
    }

    #[test]
    fn colliding_nonuniform_store_is_definite() {
        let mut kb = KernelBuilder::new("k", 1, 32);
        kb.st_shr(AddrExpr::c(0), Operand::Lane);
        let hz = check_sites(&collect(&kb.build(), 32), 32);
        assert_eq!(hz.len(), 1);
        assert!(hz[0].definite);
        assert_eq!(hz[0].lanes, 32);
    }

    #[test]
    fn register_scatter_is_advisory() {
        let mut kb = KernelBuilder::new("k", 1, 64);
        kb.mov(0, Operand::Lane);
        kb.st_shr(AddrExpr::reg(0), Operand::Lane);
        let hz = check_sites(&collect(&kb.build(), 32), 32);
        assert_eq!(hz.len(), 1);
        assert!(!hz[0].definite);
    }
}
