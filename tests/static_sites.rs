//! The invariant the one timing source rests on, roster-wide: every
//! memory site of these workloads' kernels lowers to the **static masked
//! path** — a static affine address under a compile-time active-lane
//! mask, moved as one row, with its bank-conflict degree baked at compile
//! time (shared) — so the executor's timing of such a site is a field
//! read (shared) or the block rule's closed form over the row (global),
//! never a per-lane scan.  A lowering change that pushes one of them onto
//! the dynamic fallback fails here by name instead of showing up as a
//! slower `batch_compute` — and so does one that pushes scan's or gemv's
//! register-stride sites off the uniform-affine path.

use atgpu::algos::reduce::{Reduce, ReduceVariant};
use atgpu::algos::roster::asym_pair;
use atgpu::algos::workload::{test_machine, test_spec, Plan};
use atgpu::algos::Workload;
use atgpu::ir::affine::masked_conflict_degree;
use atgpu::sim::uop::{CompiledKernel, FastPath, Site, SiteAddr, Uop};

/// The roster entries whose every kernel is wholly static (the other six
/// — scan, gemv, spmv, histogram, bitonic, ooc-reduce-device — address
/// through registers or diverge on loaded data by design).
const STATIC: [&str; 12] = [
    "vecadd",
    "saxpy",
    "reduce",
    "dot",
    "stencil",
    "stencil-iterated",
    "matmul",
    "transpose",
    "transpose-naive",
    "transpose-padded",
    "ooc-vecadd",
    "ooc-reduce-host",
];

#[test]
fn static_workloads_compile_to_the_static_masked_path() {
    let machine = test_machine();
    let asym = asym_pair(test_spec());
    let mut roster = atgpu::algos::roster();
    roster.retain(|e| STATIC.contains(&e.name));
    assert_eq!(roster.len(), STATIC.len(), "a static workload left the roster");
    let mut cells: Vec<(&str, &dyn Workload, &str, Plan<'_>)> = Vec::new();
    for e in &roster {
        for (plan_name, plan) in e.plans(&machine, &asym) {
            cells.push((e.name, &*e.workload, plan_name, plan));
        }
    }
    // The roster's reduce is the interleaved kernel; the sequential-
    // addressing variant's shrinking prefixes are the other masked shape.
    let sequential = Reduce::with_variant(2048, 0, ReduceVariant::SequentialAddressing);
    cells.push(("reduce-sequential", &sequential, "single", Plan::Single));

    let mut kernels = 0;
    for (name, workload, plan_name, plan) in cells {
        let built = workload.build_plan(&machine, plan).unwrap();
        let (bases, _) = built.program.buffer_layout(machine.b);
        for step in built.program.rounds.iter().flat_map(|r| &r.steps) {
            let Some((kernel, _)) = step.launch() else { continue };
            let cell = format!("{name}/{plan_name} kernel `{}`", kernel.name);
            let c = CompiledKernel::compile(kernel, &bases, machine.b as u32, 0);
            let b = machine.b;
            let check = |id: u32, global: bool| {
                let site: &Site = &c.sites[id as usize];
                let SiteAddr::Affine(a) = site.addr else {
                    panic!("{cell}: site {id} is not affine")
                };
                assert!(a.is_static(), "{cell}: site {id} is not static");
                assert_ne!(site.fast, FastPath::Dynamic, "{cell}: site {id} is costed per lane");
                let mask = site.mask.unwrap_or_else(|| panic!("{cell}: site {id} has no mask"));
                if global {
                    // One run of lanes: the executor's block count is the
                    // closed form, with no scan.
                    let run = mask >> mask.trailing_zeros();
                    assert_eq!(run & run.wrapping_add(1), 0, "{cell}: global site {id} has gaps");
                } else {
                    let degree = masked_conflict_degree(a.lane, mask, b) as u32;
                    assert_eq!(site.masked_degree, Some(degree), "{cell}: shared site {id}");
                }
            };
            for op in &c.prog {
                match op {
                    Uop::LdShr { site, .. } | Uop::StShr { site, .. } => check(*site, false),
                    Uop::GlbToShr { shared, global } | Uop::ShrToGlb { global, shared } => {
                        check(*shared, false);
                        check(*global, true);
                    }
                    _ => {}
                }
            }
            assert!(!c.sites.is_empty(), "{cell}: a kernel with no memory site");
            kernels += 1;
        }
    }
    assert!(kernels >= 28, "every launch of the twelve workloads: {kernels}");
}

/// Scan's `_s[j − s]` and gemv's `_s[j + s]` read through a register
/// holding the step's stride (`1 << t`, `(b/2) >> t`): the same value in
/// every lane, so the lowering puts those sites on the uniform-affine
/// path — classified and costed by the lane stride, moved as one row —
/// instead of the per-lane fallback.
#[test]
fn register_strides_lower_to_the_uniform_affine_path() {
    let machine = test_machine();
    let roster = atgpu::algos::roster();
    for name in ["scan", "gemv"] {
        let entry = roster.iter().find(|e| e.name == name).expect("a roster entry");
        let built = entry.workload.build_plan(&machine, Plan::Single).unwrap();
        let (bases, _) = built.program.buffer_layout(machine.b);
        let mut uniform = 0;
        for step in built.program.rounds.iter().flat_map(|r| &r.steps) {
            let Some((kernel, _)) = step.launch() else { continue };
            let c = CompiledKernel::compile(kernel, &bases, machine.b as u32, 0);
            for (id, site) in c.sites.iter().enumerate() {
                let SiteAddr::Affine(a) = site.addr else { continue };
                if a.reg.is_some() {
                    let at = format!("{name} `{}` site {id}", kernel.name);
                    assert_eq!(site.fast, FastPath::Unit, "{at}");
                    let mask = site.mask.unwrap_or(u64::MAX >> (64 - machine.b));
                    let degree = masked_conflict_degree(a.lane, mask, machine.b);
                    assert_eq!(degree, 1, "{at}");
                    assert!(site.masked_degree.is_none_or(|d| d == 1), "{at}");
                    uniform += 1;
                }
            }
        }
        assert!(uniform > 0, "{name} has no register-offset site");
    }
}
