//! Bit-identity pin of what the public `atgpu-algos` builders emit:
//! `(program.name, atgpu_serve::program_key)` for every builder × the
//! argument sets the repo benchmark's rosters use (`--seed 1`, measured
//! sizes), plus the builders the benchmark does not reach.  The table in
//! `builder_pin.tsv` was generated at the commit before the workload ×
//! plan collapse; a refactor of the builders must leave every row as it
//! is, and a builder change never regenerates it.  (`program_key` covers
//! buffer sizes and roles, every step's operands, device and stream,
//! kernel bodies and grids, `Launch` vs `LaunchSharded` and the shard
//! plan; the program name is pinned beside it.)  The key is the one
//! structural hasher's, `atgpu_ir::Fnv1a`: a change of that hasher
//! regenerates the key column alone, with every row and name kept and
//! the rows that keyed alike still keying alike (it last moved when the
//! hasher went from a byte to a word per step).  To extend the table,
//! add the cell and paste its row from the failure message.

use atgpu::algos::bitonic::BitonicSort;
use atgpu::algos::dot::Dot;
use atgpu::algos::gemv::Gemv;
use atgpu::algos::histogram::Histogram;
use atgpu::algos::matmul::MatMul;
use atgpu::algos::ooc::{OocReduce, OocScheme, OocVecAdd};
use atgpu::algos::reduce::{Reduce, ReduceVariant};
use atgpu::algos::roster::asym_pair;
use atgpu::algos::saxpy::Saxpy;
use atgpu::algos::scan::Scan;
use atgpu::algos::spmv::SpmvEll;
use atgpu::algos::stencil::Stencil;
use atgpu::algos::transpose::{Transpose, TransposeVariant};
use atgpu::algos::vecadd::VecAdd;
use atgpu::algos::workload::BuiltProgram;
use atgpu::algos::{AlgosError, Plan, Workload};
use atgpu::ir::Shard;
use atgpu::model::{AtgpuMachine, ClusterSpec, GpuSpec};
use std::fmt::Write as _;

#[derive(Default)]
struct Cells(String);

impl Cells {
    fn add(&mut self, label: impl AsRef<str>, built: Result<BuiltProgram, AlgosError>) {
        let label = label.as_ref();
        let p = built.unwrap_or_else(|e| panic!("{label} must build: {e}")).program;
        let key = atgpu::serve::program_key(&p);
        writeln!(self.0, "{label}\t{}\t{key:016x}", p.name).expect("writing to a String");
    }
}

/// Devices 1, 0, 2 — out of order — over `[0, a)`, `[a, a + 1)`,
/// `[a + 1, units)`.
fn uneven(a: u64, units: u64) -> Plan<'static> {
    Plan::Explicit(vec![
        Shard { device: 1, start: 0, end: a },
        Shard { device: 0, start: a, end: a + 1 },
        Shard { device: 2, start: a + 1, end: units },
    ])
}

fn cells() -> String {
    let m = AtgpuMachine::gtx650_like();
    let spec = GpuSpec::gtx650_like();
    let asym = asym_pair(spec);
    let mixed = {
        let mut c = ClusterSpec::homogeneous(3, spec);
        c.devices[1] = GpuSpec::midrange_like();
        c.host_links[1] = c.devices[1].host_link();
        c
    };
    let mut t = Cells::default();
    let s = |k: u64| 0x9E37_79B9u64.wrapping_add(k);

    // batch_compute: single-device programs.
    t.add("batch/matmul_64", MatMul::new(64, s(1)).build(&m));
    t.add("batch/reduce_16k", Reduce::new(1 << 14, s(2)).build(&m));
    let seq = ReduceVariant::SequentialAddressing;
    t.add("batch/reduce_seq_16k", Reduce::with_variant(1 << 14, s(3), seq).build(&m));
    t.add("batch/bitonic_512", BitonicSort::new(512, s(4)).build(&m));
    t.add("batch/gemv_128", Gemv::new(128, s(5)).build(&m));
    for v in [TransposeVariant::Naive, TransposeVariant::Tiled, TransposeVariant::TiledPadded] {
        t.add(format!("batch/transpose_{v:?}_128"), Transpose::new(128, s(6), v).build(&m));
    }
    t.add("batch/scan_8k", Scan::new(1 << 13, s(8)).build(&m));
    t.add("batch/dot_16k", Dot::new(1 << 14, s(9)).build(&m));

    // cluster_transfer: sharded, planned and streamed programs.
    let n = 1u64 << 12;
    let vecadd = VecAdd::new(n, s(101));
    t.add("cluster/vecadd_4k", vecadd.build(&m));
    for devices in [1, 2, 4] {
        t.add(format!("cluster/vecadd_sharded_{devices}dev"), vecadd.build_sharded(&m, devices));
    }
    t.add("cluster/vecadd_planned_asym2", vecadd.build_sharded_planned(&m, &asym));
    t.add("cluster/vecadd_explicit", vecadd.build_plan(&m, uneven(40, 128)));
    let ooc = OocVecAdd::new(n, n / 8, s(102));
    t.add("cluster/ooc_streamed", ooc.build_streamed(&m));
    t.add("cluster/ooc_single", ooc.build(&m));
    for devices in [1, 3] {
        t.add(format!("cluster/ooc_sharded_{devices}dev"), ooc.build_sharded(&m, devices));
    }
    t.add("cluster/ooc_planned_chunk", ooc.build_planned(&m, &spec));
    let stencil = Stencil::new(1 << 11, s(103));
    t.add("cluster/stencil_single_shot", stencil.build(&m));
    t.add("cluster/stencil_iterated_r8", stencil.iterated(8).build(&m));
    for devices in [1, 4] {
        t.add(
            format!("cluster/stencil_halo_{devices}dev_r8"),
            stencil.build_sharded(&m, devices, 8),
        );
    }
    t.add("cluster/stencil_planned_r8", stencil.iterated(8).build_sharded_planned(&m, &mixed));
    t.add("cluster/stencil_explicit_r3", stencil.iterated(3).build_plan(&m, uneven(20, 64)));
    let scan = Scan::new(n / 2, s(104));
    t.add("cluster/scan_2k", scan.build(&m));
    for devices in [1, 4] {
        t.add(format!("cluster/scan_sharded_{devices}dev"), scan.build_sharded(&m, devices));
    }
    t.add("cluster/scan_planned", scan.build_sharded_planned(&m, &asym));
    t.add("cluster/scan_explicit", scan.build_plan(&m, uneven(20, 64)));
    let spmv = SpmvEll::new(1 << 10, 8, s(105));
    t.add("cluster/spmv_1k", spmv.build(&m));
    for devices in [1, 4] {
        t.add(format!("cluster/spmv_sharded_{devices}dev"), spmv.build_sharded(&m, devices));
    }
    t.add("cluster/spmv_planned", spmv.build_sharded_planned(&m, &asym));
    t.add("cluster/spmv_explicit", spmv.build_plan(&m, uneven(10, 32)));
    let hist = Histogram::new(1 << 8, m.b, s(106));
    t.add("cluster/histogram_256", hist.build(&m));
    for devices in [1, 4] {
        t.add(format!("cluster/histogram_merge_{devices}dev"), hist.build_sharded(&m, devices));
    }
    t.add("cluster/histogram_planned", hist.build_sharded_planned(&m, &asym));
    t.add("cluster/histogram_explicit", hist.build_plan(&m, uneven(2, 8)));

    // launch_storm: the relaunch program and the small-n sweep.
    t.add("storm/relaunch_400x8", VecAdd::new(8 * m.b, s(1000)).build_relaunched(&m, 400));
    t.add("storm/reduce_32k", Reduce::new(1 << 15, s(1100)).build(&m));
    for j in 1..=24 {
        let n = j * m.b;
        t.add(format!("storm/sweep_vecadd_{n}"), VecAdd::new(n, s(1200 + j)).build(&m));
        t.add(format!("storm/sweep_saxpy_{n}"), Saxpy::new(n, 3, s(1300 + j)).build(&m));
        t.add(format!("storm/sweep_dot_{n}"), Dot::new(n, s(1400 + j)).build(&m));
        t.add(format!("storm/sweep_reduce_{n}"), Reduce::new(n, s(1500 + j)).build(&m));
    }

    // serve_mix: two-device shapes over the size ladder.
    for n in [256u64, 512, 1024, 2048, 4096, 8192] {
        t.add(format!("serve/vecadd_{n}"), VecAdd::new(n, s(5001)).build_sharded(&m, 2));
        t.add(
            format!("serve/reduce_seq_{n}"),
            Reduce::with_variant(n, s(5003), seq).build_sharded(&m, 2),
        );
        t.add(format!("serve/stencil_{n}_r4"), Stencil::new(n, s(5005)).build_sharded(&m, 2, 4));
        t.add(
            format!("serve/ooc_streamed_{n}"),
            OocVecAdd::new(n, n / 4, s(5006)).build_streamed(&m),
        );
    }
    let matmul = MatMul::new(64, s(5007));
    t.add("serve/matmul_64_sharded", matmul.build_sharded(&m, 2));
    t.add("serve/gemv_32", Gemv::new(32, s(5010)).build(&m));
    t.add("serve/scan_1k_sharded", Scan::new(1024, s(5011)).build_sharded(&m, 2));
    t.add("serve/spmv_512_sharded", SpmvEll::new(512, 8, s(5012)).build_sharded(&m, 2));
    t.add("serve/bitonic_128", BitonicSort::new(128, s(5013)).build(&m));

    // Builders no benchmark roster reaches.
    let reduce = Reduce::new(1 << 13, s(7001));
    t.add("extra/reduce_sharded_3dev", reduce.build_sharded(&m, 3));
    t.add("extra/reduce_planned", reduce.build_sharded_planned(&m, &asym));
    t.add("extra/reduce_one_word", Reduce::new(1, s(7002)).build_sharded(&m, 2));
    let matmul = MatMul::new(256, s(7003));
    t.add("extra/matmul_256", matmul.build(&m));
    t.add("extra/matmul_sharded_3dev", matmul.build_sharded(&m, 3));
    t.add("extra/matmul_planned_mixed", matmul.build_sharded_planned(&m, &mixed));
    t.add("extra/matmul_explicit_rows", matmul.build_plan(&m, uneven(3, 8)));
    t.add("extra/matmul_streamed_2dev", matmul.build_sharded_streamed(&m, 2, 2));
    t.add(
        "extra/matmul_streamed_ragged",
        MatMul::new(96, s(7004)).build_sharded_streamed(&m, 2, 1),
    );
    t.add("extra/matmul_pipelined_asym", matmul.build_sharded_pipelined(&m, &asym));
    t.add("extra/matmul_pipelined_slow_links", {
        let mut slow = ClusterSpec::homogeneous(2, spec);
        for l in &mut slow.host_links {
            *l = l.scaled(8.0);
        }
        matmul.build_sharded_pipelined(&m, &slow)
    });
    for scheme in [OocScheme::HostFinish, OocScheme::DeviceFinish] {
        t.add(
            format!("extra/ooc_reduce_{scheme:?}"),
            OocReduce::new(8192, 1024, m.b, scheme, s(7005)).build(&m),
        );
    }
    t.0
}

#[test]
fn builders_emit_the_pinned_programs() {
    let actual = cells();
    let pinned = include_str!("builder_pin.tsv");
    if actual != pinned {
        for (a, p) in actual.lines().zip(pinned.lines()).filter(|(a, p)| a != p) {
            eprintln!("pinned: {p}\nactual: {a}\n");
        }
        panic!(
            "emitted programs differ from tests/builder_pin.tsv ({} vs {} rows); \
             the full actual table:\n{actual}",
            actual.lines().count(),
            pinned.lines().count()
        );
    }
}
