//! Access sites with stable instruction indices: the analyser's
//! collector ([`atgpu_analyze::sites`]), which [`crate::verify_program`]
//! runs once per kernel and hands to every analysis.

pub use atgpu_analyze::sites::{collect, Access, Site, Space};

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing, clippy::panic)]
mod tests {
    use super::*;
    use atgpu_ir::{AddrExpr, DBuf, KernelBuilder, Operand, PredExpr};

    #[test]
    fn directions_and_indices_are_preorder() {
        let mut kb = KernelBuilder::new("k", 4, 64);
        let d = DBuf(0);
        // #0 ⇐ (global read + shared write)
        kb.glb_to_shr(AddrExpr::lane(), d, AddrExpr::block() * 32 + AddrExpr::lane());
        // #1 Repeat header, #2 LdShr, #3 if-header, #4 StShr
        kb.repeat(3, |kb| {
            kb.ld_shr(0, AddrExpr::lane());
            kb.when(PredExpr::Lt(Operand::Lane, Operand::Imm(4)), |kb| {
                kb.st_shr(AddrExpr::lane() + 32, Operand::Reg(0));
            });
        });
        // #5 ⇐ out (global write + shared read)
        kb.shr_to_glb(d, AddrExpr::block() * 32 + AddrExpr::lane(), AddrExpr::lane() + 32);
        let sites = collect(&kb.build(), 32);

        let tags: Vec<(usize, Space, Access)> =
            sites.iter().map(|s| (s.instr, s.space, s.access)).collect();
        assert_eq!(
            tags,
            vec![
                (0, Space::Global, Access::Read),
                (0, Space::Shared, Access::Write),
                (2, Space::Shared, Access::Read),
                (4, Space::Shared, Access::Write),
                (5, Space::Global, Access::Write),
                (5, Space::Shared, Access::Read),
            ]
        );
        // The predicated store sees the folded `j < 4` mask and the
        // loop count.
        let st = &sites[3];
        assert_eq!(st.lane_mask, Some(0b1111));
        assert_eq!(st.loop_counts, vec![3]);
    }

    #[test]
    fn uniform_value_detection() {
        let mut kb = KernelBuilder::new("k", 2, 64);
        let d = DBuf(0);
        kb.st_shr(AddrExpr::lane(), Operand::Imm(7)); // broadcast
        kb.st_shr(AddrExpr::lane(), Operand::Lane); // varies
                                                    // Global write copying one shared word everywhere: uniform.
        kb.shr_to_glb(d, AddrExpr::block(), AddrExpr::c(3));
        // Global write copying per-lane shared words: varies.
        kb.shr_to_glb(d, AddrExpr::block() * 32 + AddrExpr::lane(), AddrExpr::lane());
        let sites = collect(&kb.build(), 32);
        let writes: Vec<bool> =
            sites.iter().filter(|s| s.access == Access::Write).map(|s| s.uniform_value).collect();
        assert_eq!(writes, vec![true, false, true, false]);
    }
}
