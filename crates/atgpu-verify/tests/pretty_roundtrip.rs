//! The `kernel@instr#N` indices in verifier diagnostics and the `▷ #N`
//! annotations in `atgpu_ir::pretty` printouts are the same pre-order
//! numbering: every site the verifier reports can be found in the
//! rendered pseudocode by its index, and vice versa.

#![allow(clippy::unwrap_used, clippy::indexing_slicing, clippy::panic)]

use atgpu_analyze::sites::{collect, Access};
use atgpu_ir::pretty::render_kernel;
use atgpu_ir::{AddrExpr, KernelBuilder, Operand, PredExpr, ProgramBuilder};

#[test]
fn every_site_index_appears_in_the_printout() {
    let mut pb = ProgramBuilder::new("rt");
    let h = pb.host_input("A", 256);
    let d = pb.device_alloc("a", 256);
    let mut kb = KernelBuilder::new("k", 4, 64);
    kb.glb_to_shr(AddrExpr::lane(), d, AddrExpr::block() * 32 + AddrExpr::lane());
    kb.repeat(3, |kb| {
        kb.ld_shr(0, AddrExpr::lane());
        kb.when(PredExpr::Lt(Operand::Lane, Operand::Imm(8)), |kb| {
            kb.st_shr(AddrExpr::lane() + 32, Operand::Reg(0));
        });
        kb.sync();
    });
    kb.shr_to_glb(d, AddrExpr::block() * 32 + AddrExpr::lane(), AddrExpr::lane() + 32);
    let k = kb.build();
    pb.transfer_in(h, d, 256);
    pb.launch(k.clone());
    let p = pb.build().unwrap();

    let rendered = render_kernel(&k, &p);
    let sites = collect(&k, 32);
    assert!(!sites.is_empty());
    for site in &sites {
        let tag = format!("▷ #{}", site.instr);
        assert!(
            rendered.contains(&tag),
            "site index {} missing from printout:\n{rendered}",
            site.instr
        );
    }

    // And the numbering really is the shared pre-order walk: the final
    // store (global write) sits past the loop header (#1), its three
    // body instructions (#2–#4) and the sync (#5) — index 6 in both
    // worlds.
    let last_write = sites
        .iter()
        .filter(|s| s.buf.is_some() && matches!(s.access, Access::Write))
        .map(|s| s.instr)
        .max()
        .unwrap();
    assert_eq!(last_write, 6);
    assert!(rendered.contains("▷ #6"), "{rendered}");
}
