//! The workload roster: one table every consumer that wants "all the
//! workloads" enumerates — `atgpu-exp --verify` and `pseudocode`, the
//! analysis and verifier pins, the roster × plan suite.

use crate::bitonic::BitonicSort;
use crate::dot::Dot;
use crate::gemv::Gemv;
use crate::histogram::Histogram;
use crate::matmul::MatMul;
use crate::ooc::{OocReduce, OocScheme, OocVecAdd};
use crate::reduce::Reduce;
use crate::saxpy::Saxpy;
use crate::scan::Scan;
use crate::spmv::SpmvEll;
use crate::stencil::{IteratedStencil, Stencil};
use crate::transpose::{Transpose, TransposeVariant};
use crate::vecadd::VecAdd;
use crate::workload::{Plan, Workload};
use atgpu_ir::Shard;
use atgpu_model::{AtgpuMachine, ClusterSpec, GpuSpec};

/// One roster row.
pub struct RosterEntry {
    /// Short unique name (`atgpu-exp pseudocode NAME`, verdict tables).
    pub name: &'static str,
    /// A small instance that builds on any `b = 32` machine.
    pub workload: Box<dyn Workload>,
    /// Whether `atgpu-verify` must *prove* every launch race-free.
    /// Data-dependent scatters (bitonic's compare-exchange, histogram's
    /// private-row update) stay `Unknown` by design — the differential
    /// suites own those.
    pub race_free: bool,
}

/// Every workload in the library, once per kernel variant and finishing
/// scheme.
pub fn roster() -> Vec<RosterEntry> {
    fn entry(name: &'static str, w: impl Workload + 'static, race_free: bool) -> RosterEntry {
        RosterEntry { name, workload: Box::new(w), race_free }
    }
    let transpose = |v| Transpose::new(64, 0, v);
    vec![
        entry("vecadd", VecAdd::new(1024, 0), true),
        entry("saxpy", Saxpy::new(1024, 3, 0), true),
        entry("reduce", Reduce::new(2048, 0), true),
        entry("dot", Dot::new(1024, 0), true),
        entry("scan", Scan::new(1024, 0), true),
        entry("stencil", Stencil::new(1024, 0), true),
        entry("stencil-iterated", IteratedStencil::new(Stencil::new(1024, 0), 4), true),
        entry("matmul", MatMul::new(64, 0), true),
        entry("transpose", transpose(TransposeVariant::Tiled), true),
        entry("transpose-naive", transpose(TransposeVariant::Naive), true),
        entry("transpose-padded", transpose(TransposeVariant::TiledPadded), true),
        entry("gemv", Gemv::new(64, 0), true),
        entry("spmv", SpmvEll::new(128, 3, 0), true),
        entry("histogram", Histogram::new(1024, 32, 0), false),
        entry("bitonic", BitonicSort::new(128, 0), false),
        entry("ooc-vecadd", OocVecAdd::new(4096, 1024, 0), true),
        entry("ooc-reduce-host", OocReduce::new(4096, 1024, 32, OocScheme::HostFinish, 0), true),
        entry(
            "ooc-reduce-device",
            OocReduce::new(4096, 1024, 32, OocScheme::DeviceFinish, 0),
            true,
        ),
    ]
}

/// The cluster the roster's [`Plan::Planned`] cells are resolved for:
/// two identical devices, the second behind an 8× slower host link —
/// the shape an even split is blind to.
pub fn asym_pair(spec: GpuSpec) -> ClusterSpec {
    let mut cluster = ClusterSpec::homogeneous(2, spec);
    cluster.host_links[1] = cluster.host_links[1].scaled(8.0);
    cluster
}

impl RosterEntry {
    /// The plan cells this entry is built under: [`Plan::Single`], and
    /// for a shardable workload an even split over one and over three
    /// devices, the cost-driven plan for `cluster` (see [`asym_pair`]), and an explicit
    /// uneven plan that lists devices 1, 0, 2 out of order.
    pub fn plans<'a>(
        &self,
        machine: &AtgpuMachine,
        cluster: &'a ClusterSpec,
    ) -> Vec<(&'static str, Plan<'a>)> {
        let Some(units) = self.workload.units(machine) else {
            return vec![("single", Plan::Single)];
        };
        // Devices 1, 0, 2 take [0, c), [c, c + 1), [c + 1, units); a
        // grid too small for three shards drops the empty ones.
        let c = (units / 3).max(1);
        let cuts = [0, c, c + 1, units].map(|x| x.min(units));
        let uneven = [1, 0, 2]
            .into_iter()
            .zip(cuts.windows(2))
            .filter(|(_, w)| w[0] < w[1])
            .map(|(device, w)| Shard { device, start: w[0], end: w[1] })
            .collect();
        vec![
            ("single", Plan::Single),
            ("even1", Plan::Even(1)),
            ("even3", Plan::Even(3)),
            ("planned", Plan::Planned(cluster)),
            ("explicit", Plan::Explicit(uneven)),
        ]
    }
}
