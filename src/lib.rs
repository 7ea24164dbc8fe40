//! # atgpu — facade crate
//!
//! Re-exports the whole ATGPU workspace behind one dependency, so a
//! downstream user can `cargo add atgpu` and reach every subsystem:
//!
//! * [`model`] — the ATGPU analytical model (machines, metrics, cost
//!   functions, Table I); a device's cost parameters are derived from
//!   its `GpuSpec`, the one source of every model constant;
//! * [`ir`] — the kernel IR / pseudocode DSL with the paper's transfer
//!   operators;
//! * [`analyze`] — the static analyser deriving model metrics from IR;
//! * [`sim`] — the discrete-event GPU simulator (the "hardware"), built
//!   around a compile-then-execute pipeline: kernel IR is lowered once
//!   per launch into a flat micro-op program with precomputed access
//!   shapes (`atgpu::sim::uop`), executed allocation-free per block
//!   (`atgpu::sim::engine`), timing read from the per-site tables — the
//!   tree-walking reference interpreter remains available per launch via
//!   `EngineSel::Reference` for differential testing;
//! * [`algos`] — the evaluated workloads (vector addition, reduction,
//!   matrix multiplication, and the extension workloads);
//! * [`exp`] — the experiment harness regenerating the paper's tables and
//!   figures;
//! * [`serve`] — the multi-tenant cost-query service: a shared-cluster
//!   front-end with fair admission and memoized analytic what-if
//!   pricing, gated by the static verifier;
//! * [`verify`] — the static soundness verifier: affine bounds
//!   checking, cross-block write-race detection with concrete
//!   `kernel@instr#N` witnesses, shared-memory hazard checks and
//!   host-dataflow lints — all without running the program.
//!
//! For a guided tour of how these crates fit together — the full
//! pipeline walk (IR → analyze → model → sim → planner → fault/trace →
//! serve) and the crate dependency diagram — see `docs/ARCHITECTURE.md`
//! at the repository root.
//!
//! ## Quickstart
//!
//! ```
//! use atgpu::model::cost::{evaluate, CostModel};
//! use atgpu::model::{AtgpuMachine, GpuSpec};
//! use atgpu::algos::{vecadd::VecAdd, verify_on_sim, Workload};
//! use atgpu::analyze::analyze_cluster_program;
//! use atgpu::sim::SimConfig;
//!
//! // The abstract machine and a GTX 650-like device.
//! let machine = AtgpuMachine::gtx650_like();
//! let spec = GpuSpec::gtx650_like();
//!
//! // Analyse vector addition at n = 10_000 on the model …
//! let wl = VecAdd::new(10_000, /* seed */ 42);
//! let built = wl.build(&machine)?;
//! let analysis = analyze_cluster_program(&built.program, &machine, 1)?;
//! let metrics = analysis.lone_device()?;
//! let cost = evaluate(CostModel::GpuCost, &machine, &spec, metrics)?.total();
//! assert!(cost > 0.0);
//!
//! // … and observe it on the simulated device (verified against the
//! // host reference).
//! let report = verify_on_sim(&wl, &machine, &spec, &SimConfig::default())?;
//! assert!(report.total_ms() > report.kernel_ms());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

pub use atgpu_algos as algos;
pub use atgpu_analyze as analyze;
pub use atgpu_exp as exp;
pub use atgpu_ir as ir;
pub use atgpu_model as model;
pub use atgpu_serve as serve;
pub use atgpu_sim as sim;
pub use atgpu_verify as verify;
