//! Tiled matrix multiplication — the paper's §IV-C workload (Figure 5).
//!
//! "We use a well known GPU method for matrix multiplication in shared
//! memory (introduced in the CUDA Programming Guide), modified for the
//! single warp per multiprocessor of our model."
//!
//! Launch geometry: a 2-D grid of `(n/b) × (n/b)` thread blocks; block
//! `(ix, iy)` computes the `b×b` output tile at tile-row `iy`, tile-column
//! `ix`.  Each of the `n/b` tile steps stages one `A` tile and one `B`
//! tile into shared memory (`b` coalesced row loads each), then each lane
//! `j` accumulates column `j` of the tile across all `b` rows.  The
//! accumulator strip lives in shared memory (`3b²` words total), relying
//! on the machine's zero-initialised shared memory.
//!
//! Paper analysis: 1 round, time `O(nb)`, I/O `O((n/b)²(n+b))`, global
//! `O(n²)`, shared `O(b²)`, transfer `O(α + βn²)` — compute dominates and
//! data transfer is negligible, the case where SWGPU already predicts
//! well.

use crate::error::AlgosError;
use crate::gen;
use crate::workload::{BuiltProgram, Placement, Plan, Workload};
use atgpu_ir::{AddrExpr, AluOp, KernelBuilder, Operand, ProgramBuilder, Shard};
use atgpu_model::{AlgoMetrics, AtgpuMachine, RoundMetrics, ShardProfile};

/// An `n×n` matrix-multiplication instance `C = A×B` (row-major).
#[derive(Debug, Clone)]
pub struct MatMul {
    n: u64,
    a: Vec<i64>,
    b: Vec<i64>,
}

impl MatMul {
    /// Random instance with side length `n`.
    pub fn new(n: u64, seed: u64) -> Self {
        Self {
            n,
            a: gen::matrix_entries(n * n, seed),
            b: gen::matrix_entries(n * n, seed.wrapping_add(1)),
        }
    }

    /// Instance from explicit row-major data.
    pub fn from_data(n: u64, a: Vec<i64>, b: Vec<i64>) -> Result<Self, AlgosError> {
        if a.len() as u64 != n * n || b.len() as u64 != n * n {
            return Err(AlgosError::InvalidSize { reason: format!("matrices must be {n}×{n}") });
        }
        Ok(Self { n, a, b })
    }

    /// Host reference: classic triple loop.
    pub fn host_reference(&self) -> Vec<i64> {
        let n = self.n as usize;
        let mut c = vec![0i64; n * n];
        for i in 0..n {
            for k in 0..n {
                let aik = self.a[i * n + k];
                if aik == 0 {
                    continue;
                }
                for j in 0..n {
                    c[i * n + j] += aik * self.b[k * n + j];
                }
            }
        }
        c
    }

    /// Validates the instance against the machine — `n` a positive
    /// multiple of `b`, `3b²` shared words available — and returns the
    /// tile rows `t = n/b`.
    fn check(&self, machine: &AtgpuMachine) -> Result<u64, AlgosError> {
        let n = self.n;
        let b = machine.b;
        if n == 0 || !n.is_multiple_of(b) {
            return Err(AlgosError::InvalidSize {
                reason: format!("matrix side {n} must be a positive multiple of b = {b}"),
            });
        }
        if machine.m < 3 * b * b {
            return Err(AlgosError::InvalidMachine {
                reason: format!(
                    "tiled matmul needs 3b² = {} shared words, machine has M = {}",
                    3 * b * b,
                    machine.m
                ),
            });
        }
        Ok(n / b)
    }

    /// Builds the **double-buffered streamed** sharded multiplication:
    /// C's tile rows are processed slab by slab — each round launches one
    /// slab of `devices · chunk_rows` tile rows, sharded contiguously
    /// over the devices — and every device uploads its share of slab
    /// `k + 1`'s `A` rows on **stream 1** while slab `k`'s kernel and `C`
    /// download run on **stream 0** (the classic copy/compute-overlap
    /// pipeline, on every device at once).  `B` is broadcast once in a
    /// prologue round.  Outputs are bit-identical to [`Self::build_sharded`]
    /// and to the serial de-streamed form.  The tile rows need **not**
    /// divide evenly: the final slab may be ragged (fewer than
    /// `devices · chunk_rows` rows), in which case its rows are
    /// re-apportioned evenly over the devices, so a device can even sit
    /// the ragged slab out entirely.
    pub fn build_sharded_streamed(
        &self,
        machine: &AtgpuMachine,
        devices: u32,
        chunk_rows: u64,
    ) -> Result<BuiltProgram, AlgosError> {
        let t = self.check(machine)?;
        let (n, b) = (self.n, machine.b);
        let devices = devices.max(1);
        let slab = u64::from(devices) * chunk_rows; // tile rows per full slab
        if chunk_rows == 0 {
            return Err(AlgosError::InvalidSize { reason: "chunk_rows must be positive".into() });
        }
        let slabs = t.div_ceil(slab);
        let nn = n * n;

        let mut pb = ProgramBuilder::new("matmul_sharded_streamed");
        let ha = pb.host_input("A", nn);
        let hb = pb.host_input("B", nn);
        let hc = pb.host_output("C", nn);
        let da = pb.device_alloc("a", nn);
        let db = pb.device_alloc("b", nn);
        let dc = pb.device_alloc("c", nn);

        // Slab k covers tile rows [k·slab, k·slab + slab_rows(k)); the
        // last slab may be ragged, and its rows are re-apportioned
        // evenly so no device is handed a phantom share.
        let slab_rows = |k: u64| slab.min(t - k * slab);
        let shares = (0..slabs)
            .map(|k| {
                Plan::Even(devices).resolve(Some(slab_rows(k)), machine, ShardProfile::default)
            })
            .collect::<Result<Vec<Placement>, _>>()?;
        let shares = |k: u64| shares[k as usize].shards();
        let upload = |pb: &mut ProgramBuilder, k: u64, stream: u32| {
            for s in shares(k) {
                let off = (k * slab + s.start) * b * n;
                pb.transfer_in_streamed(s.device, stream, ha, off, da, off, s.blocks() * b * n);
            }
        };

        // Prologue: broadcast B everywhere and upload slab 0's A shares.
        pb.begin_round();
        for d in 0..devices {
            pb.transfer_in_to(d, hb, 0, db, 0, nn);
        }
        upload(&mut pb, 0, 0);

        for k in 0..slabs {
            pb.begin_round();
            if k + 1 < slabs {
                // Next slab's A shares ride the copy stream.
                upload(&mut pb, k + 1, 1);
            }
            let kernel = tiled_band_kernel(
                format!("matmul_slab{k}"),
                n,
                b,
                slab_rows(k),
                k * slab,
                da,
                db,
                dc,
            );
            pb.launch_sharded(kernel, row_blocks(shares(k), t));
            for s in shares(k) {
                let off = (k * slab + s.start) * b * n;
                pb.transfer_out_streamed(s.device, 0, dc, off, hc, off, s.blocks() * b * n);
            }
        }

        Ok(BuiltProgram {
            program: pb.build()?,
            inputs: vec![self.a.clone(), self.b.clone()],
            outputs: vec![hc],
        })
    }

    /// [`Self::build_sharded_streamed`] with the slab chunking
    /// **automatically solved**: candidate `chunk_rows` (the divisors of
    /// each device's row share) are priced as double-buffered pipelines
    /// through [`atgpu_model::plan::solve_chunk_units`] — per-device
    /// `StreamTimeline`s, host links and wave factors all in the
    /// objective — and the cheapest modeled schedule is emitted.  The
    /// hand-written `build_sharded_streamed` keeps its explicit
    /// `chunk_rows` knob; this derives it.  The slab emission needs
    /// equal per-device shares, so the **even pipelined schedule is
    /// itself priced against the one-shot cost-planned apportionment**
    /// and the cheaper modeled program is emitted — on a link-asymmetric
    /// cluster the non-even one-shot plan usually wins (overlap cannot
    /// hide an 8x-slower upload), so pipelining never re-introduces the
    /// transfer blind spot the planner exists to close.  Ragged row
    /// counts are fine — the streamed emitter re-apportions the final
    /// short slab — so the only fallback left is the degenerate empty
    /// cluster or empty grid.
    pub fn build_sharded_pipelined(
        &self,
        machine: &AtgpuMachine,
        cluster: &atgpu_model::ClusterSpec,
    ) -> Result<BuiltProgram, AlgosError> {
        let b = machine.b.max(1);
        let t = self.n / b;
        let devices = cluster.n_devices() as u64;
        if devices == 0 || t == 0 {
            return self.build_sharded_planned(machine, cluster);
        }
        let profile = self.shard_profile(machine);
        let share = t.div_ceil(devices);
        let even = Plan::Even(devices as u32).resolve(Some(t), machine, || profile.clone())?;
        let even_counts = atgpu_ir::shard_counts(even.shards(), devices as usize);
        let candidates: Vec<u64> = (1..=share).filter(|c| share.is_multiple_of(*c)).collect();
        let chunk_rows = atgpu_model::plan::solve_chunk_units(
            cluster,
            machine,
            &profile,
            &even_counts,
            &candidates,
        );
        // Price the even pipelined schedule against the (possibly
        // non-even) one-shot planned apportionment.
        let piped =
            atgpu_model::plan::pipeline_cost(cluster, machine, &profile, &even_counts, chunk_rows);
        let planned = Plan::Planned(cluster).resolve(Some(t), machine, || profile.clone())?;
        let oneshot = atgpu_model::plan::plan_cost(
            cluster,
            machine,
            &profile,
            &atgpu_ir::shard_counts(planned.shards(), devices as usize),
        );
        match (piped, oneshot) {
            (Ok(p), Ok(o)) if p <= o => {
                self.build_sharded_streamed(machine, devices as u32, chunk_rows)
            }
            (Ok(_), Ok(_)) | (Err(_), _) => self.emit(machine, &planned),
            (_, Err(_)) => self.build_sharded_streamed(machine, devices as u32, chunk_rows),
        }
    }

    /// Lockstep time ops of our kernel encoding for side `n`, width `b`.
    pub fn time_ops(n: u64, b: u64) -> u64 {
        let t = n / b; // tile steps
                       // per step: 2b tile-load ops + b rows × (ld acc + b×(2 ld + mul + add) + st acc)
                       // plus the final b-row tile store.
        t * (2 * b + b * (2 + 4 * b)) + b
    }
}

/// Tile-row shards as linear block ranges: with `t` blocks per row, the
/// band `[y0, y1)` is the blocks `[y0·t, y1·t)`.
fn row_blocks(rows: &[Shard], t: u64) -> Vec<Shard> {
    rows.iter().map(|s| Shard { start: s.start * t, end: s.end * t, ..*s }).collect()
}

/// The tiled-matmul kernel for an `n×n` problem on width `b`, in
/// tile-row-band form: a `(n/b) × rows` grid of blocks with `3b²` shared
/// words computing C's tile rows `[row0, row0 + rows)` — `block_y` is the
/// row *within the band* and `row0` is baked into the global addresses.
/// `rows = n/b, row0 = 0` is the whole product; chunked (streamed) builds
/// launch one band per round.
#[allow(clippy::too_many_arguments)]
fn tiled_band_kernel(
    name: String,
    n: u64,
    b: u64,
    rows: u64,
    row0: u64,
    da: atgpu_ir::DBuf,
    db: atgpu_ir::DBuf,
    dc: atgpu_ir::DBuf,
) -> atgpu_ir::Kernel {
    let t = n / b; // tiles per side
    let bi = b as i64;
    let ni = n as i64;
    let row_off = (row0 * b * n) as i64; // word offset of the band in A and C
                                         // Shared layout: A tile [0, b²), B tile [b², 2b²), C acc [2b², 3b²).
    let sa = 0i64;
    let sb = (b * b) as i64;
    let sc = 2 * (b * b) as i64;
    let mut kb = KernelBuilder::new_2d(name, (t, rows), 3 * b * b);
    kb.repeat(t as u32, |kb| {
        // Stage A tile: row t1 of tile (iy, t0).
        kb.repeat(b as u32, |kb| {
            kb.glb_to_shr(
                AddrExpr::loop_var(1) * bi + AddrExpr::lane() + sa,
                da,
                (AddrExpr::block_y() * bi + AddrExpr::loop_var(1)) * ni
                    + AddrExpr::loop_var(0) * bi
                    + AddrExpr::lane()
                    + row_off,
            );
        });
        // Stage B tile: row t1 of tile (t0, ix).
        kb.repeat(b as u32, |kb| {
            kb.glb_to_shr(
                AddrExpr::loop_var(1) * bi + AddrExpr::lane() + sb,
                db,
                (AddrExpr::loop_var(0) * bi + AddrExpr::loop_var(1)) * ni
                    + AddrExpr::block() * bi
                    + AddrExpr::lane(),
            );
        });
        // Accumulate: lane j owns column j of the C tile.
        kb.repeat(b as u32, |kb| {
            // r0 ← _C[t1·b + j]
            kb.ld_shr(0, AddrExpr::loop_var(1) * bi + AddrExpr::lane() + sc);
            kb.repeat(b as u32, |kb| {
                // r1 ← _A[t1·b + t2] (broadcast), r2 ← _B[t2·b + j]
                kb.ld_shr(1, AddrExpr::loop_var(1) * bi + AddrExpr::loop_var(2) + sa);
                kb.ld_shr(2, AddrExpr::loop_var(2) * bi + AddrExpr::lane() + sb);
                kb.alu(AluOp::Mul, 3, Operand::Reg(1), Operand::Reg(2));
                kb.alu(AluOp::Add, 0, Operand::Reg(0), Operand::Reg(3));
            });
            kb.st_shr(AddrExpr::loop_var(1) * bi + AddrExpr::lane() + sc, Operand::Reg(0));
        });
    });
    // Write the C tile out, row by row.
    kb.repeat(b as u32, |kb| {
        kb.shr_to_glb(
            dc,
            (AddrExpr::block_y() * bi + AddrExpr::loop_var(0)) * ni
                + AddrExpr::block() * bi
                + AddrExpr::lane()
                + row_off,
            AddrExpr::loop_var(0) * bi + AddrExpr::lane() + sc,
        );
    });

    kb.build()
}

impl Workload for MatMul {
    fn name(&self) -> &'static str {
        "matmul"
    }

    fn size(&self) -> u64 {
        self.n
    }

    /// Tile rows: a row is a contiguous range of linear block indices
    /// (`id = iy·t + ix`), so a band of rows maps to one
    /// [`atgpu_ir::Shard`].
    fn units(&self, machine: &AtgpuMachine) -> Option<u64> {
        Some(self.n / machine.b.max(1))
    }

    /// The per-tile-row cost shape: one row is `t = n/b` thread blocks,
    /// `b·n` words of `A` in and `b·n` words of `C` out, with `B`
    /// broadcast to every participating device regardless of its share —
    /// so a mixed-generation cluster's fast devices get proportionally
    /// larger bands *and* a slow host link costs its device rows, both
    /// effects in one objective.
    fn shard_profile(&self, machine: &AtgpuMachine) -> ShardProfile {
        let n = self.n;
        let b = machine.b.max(1);
        let t = n / b;
        ShardProfile {
            time_ops: Self::time_ops(n, b),
            io_blocks_per_unit: t * (2 * n + b),
            inward_words_per_unit: b * n,
            inward_txns: 1,
            outward_words_per_unit: b * n,
            outward_txns: 1,
            broadcast_words: n * n,
            broadcast_txns: 1,
            shared_words: 3 * b * b,
            blocks_per_unit: t,
            ..ShardProfile::default()
        }
    }

    /// One round, sharded by tile row: each shard's device computes a
    /// contiguous band of C's tile rows.  `B` is broadcast to every
    /// participating device; each device receives only its band of `A`
    /// and returns its band of `C` (both contiguous in row-major order,
    /// so one transfer transaction each).
    fn emit(&self, machine: &AtgpuMachine, at: &Placement) -> Result<BuiltProgram, AlgosError> {
        let t = self.check(machine)?;
        let (n, b) = (self.n, machine.b);
        let nn = n * n;

        let mut pb = ProgramBuilder::new(at.name("matmul", "matmul_sharded"));
        let ha = pb.host_input("A", nn);
        let hb = pb.host_input("B", nn);
        let hc = pb.host_output("C", nn);
        let da = pb.device_alloc("a", nn);
        let db = pb.device_alloc("b", nn);
        let dc = pb.device_alloc("c", nn);

        // Row band [y0, y1) is the linear block range [y0·t, y1·t) and
        // the word range [y0·b·n, y1·b·n).
        let band = |s: &Shard| (s.start * b * n, s.blocks() * b * n);

        pb.begin_round();
        for s in at.shards() {
            let (off, words) = band(s);
            pb.transfer_in_to(s.device, ha, off, da, off, words); // a W A
            pb.transfer_in_to(s.device, hb, 0, db, 0, nn); // b W B, broadcast
        }
        let kernel = tiled_band_kernel("matmul_kernel".into(), n, b, t, 0, da, db, dc);
        at.launch_over(&mut pb, kernel, row_blocks(at.shards(), t));
        for s in at.shards() {
            let (off, words) = band(s);
            pb.transfer_out_from(s.device, dc, off, hc, off, words); // C W c
        }

        Ok(BuiltProgram {
            program: pb.build()?,
            inputs: vec![self.a.clone(), self.b.clone()],
            outputs: vec![hc],
        })
    }

    fn expected(&self) -> Vec<Vec<i64>> {
        vec![self.host_reference()]
    }

    fn closed_form(&self, machine: &AtgpuMachine) -> Option<AlgoMetrics> {
        let n = self.n;
        let b = machine.b;
        if !n.is_multiple_of(b) {
            return None;
        }
        let t = n / b;
        let k = t * t;
        Some(AlgoMetrics::new(vec![RoundMetrics {
            time: Self::time_ops(n, b),
            // Per block: t steps × 2b coalesced row loads + b row stores
            // = (n/b)²·(2n + b), the paper's I/O bound with constant 1.
            io_blocks: k * (2 * n + b),
            global_words: 3 * n * n,
            shared_words: 3 * b * b,
            inward_words: 2 * n * n,
            inward_txns: 2,
            outward_words: n * n,
            outward_txns: 1,
            blocks_launched: k,
        }]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{test_machine, test_spec, verify_on_sim};
    use atgpu_analyze::analyze_cluster_program;
    use atgpu_sim::SimConfig;

    #[test]
    fn analyzer_matches_closed_form() {
        let m = test_machine();
        for n in [32u64, 64, 96] {
            let w = MatMul::new(n, 11);
            let built = w.build(&m).unwrap();
            let analysis = analyze_cluster_program(&built.program, &m, 1).unwrap();
            assert_eq!(
                analysis.lone_device().unwrap(),
                &w.closed_form(&m).unwrap(),
                "closed form mismatch at n={n}"
            );
            assert!(analysis.io_exact, "matmul addressing should be exact");
            assert!(analysis.conflict_free, "tiled matmul should be conflict-free");
        }
    }

    #[test]
    fn io_matches_paper_formula() {
        let m = test_machine();
        let n = 128u64;
        let b = m.b;
        let w = MatMul::new(n, 1);
        let built = w.build(&m).unwrap();
        let a = analyze_cluster_program(&built.program, &m, 1).unwrap();
        assert_eq!(a.lone_device().unwrap().total_io_blocks(), (n / b) * (n / b) * (2 * n + b));
    }

    #[test]
    fn simulation_matches_host_reference() {
        let w = MatMul::new(64, 5);
        verify_on_sim(&w, &test_machine(), &test_spec(), &SimConfig::default()).unwrap();
    }

    #[test]
    fn identity_times_matrix() {
        let n = 32u64;
        let mut ident = vec![0i64; (n * n) as usize];
        for i in 0..n as usize {
            ident[i * n as usize + i] = 1;
        }
        let b = gen::matrix_entries(n * n, 3);
        let w = MatMul::from_data(n, ident, b.clone()).unwrap();
        let r = verify_on_sim(&w, &test_machine(), &test_spec(), &SimConfig::default()).unwrap();
        assert_eq!(r.output(atgpu_ir::HBuf(2)), &b[..]);
    }

    #[test]
    fn non_multiple_side_rejected() {
        assert!(MatMul::new(33, 0).build(&test_machine()).is_err());
        assert!(MatMul::new(0, 0).build(&test_machine()).is_err());
    }

    #[test]
    fn tiny_shared_memory_rejected() {
        let m = AtgpuMachine::new(1 << 10, 32, 1024, 1 << 22).unwrap(); // M < 3b²
        assert!(MatMul::new(32, 0).build(&m).is_err());
    }

    #[test]
    fn transfer_negligible_like_paper() {
        // Figure 5/6c: kernel time dominates; ΔE is small.
        let w = MatMul::new(96, 2);
        let r = verify_on_sim(
            &w,
            &test_machine(),
            &atgpu_model::GpuSpec::gtx650_like(),
            &SimConfig::default(),
        )
        .unwrap();
        assert!(
            r.transfer_proportion() < 0.4,
            "matmul ΔE {} unexpectedly high",
            r.transfer_proportion()
        );
    }

    #[test]
    fn sharded_build_verifies_on_clusters() {
        use crate::workload::verify_built_on_cluster;
        let m = test_machine();
        // 96/32 = 3 tile rows: exercises devices > rows (trailing devices
        // idle) and uneven bands.
        for devices in [1u32, 2, 3, 4] {
            let w = MatMul::new(96, 5);
            let built = w.build_sharded(&m, devices).unwrap();
            let cluster = atgpu_model::ClusterSpec::homogeneous(devices as usize, test_spec());
            verify_built_on_cluster(&built, &w.expected(), &m, &cluster, &SimConfig::default())
                .unwrap_or_else(|e| panic!("devices={devices}: {e}"));
        }
    }

    #[test]
    fn streamed_sharded_build_verifies_and_overlaps() {
        use crate::workload::verify_built_on_cluster;
        use atgpu_sim::run_cluster_program;
        let m = test_machine();
        // n = 256 -> t = 8 tile rows.
        let w = MatMul::new(256, 13);
        for (devices, chunk_rows) in [(1u32, 2u64), (2, 2), (4, 1)] {
            let built = w.build_sharded_streamed(&m, devices, chunk_rows).unwrap();
            assert!(built.program.uses_streams());
            let cluster = atgpu_model::ClusterSpec::homogeneous(devices as usize, test_spec());
            let streamed =
                verify_built_on_cluster(&built, &w.expected(), &m, &cluster, &SimConfig::default())
                    .unwrap_or_else(|e| panic!("devices={devices} chunk={chunk_rows}: {e}"));
            // The de-streamed serial form computes the same C, slower or
            // equal (per-round max-of-chains never exceeds the sum).
            let serial = run_cluster_program(
                &built.program.destreamed(),
                built.inputs.clone(),
                &m,
                &cluster,
                &SimConfig::default(),
            )
            .unwrap();
            assert_eq!(serial.output(built.outputs[0]), streamed.output(built.outputs[0]));
            assert!(
                streamed.total_ms() <= serial.total_ms() + 1e-9,
                "devices={devices}: streamed {} vs serial {}",
                streamed.total_ms(),
                serial.total_ms()
            );
        }
    }

    #[test]
    fn planned_sharding_verifies_on_mixed_cluster() {
        use crate::workload::verify_built_on_cluster;
        let m = test_machine();
        let w = MatMul::new(256, 3); // t = 8 tile rows
                                     // A genuinely faster device 1 (more MPs, faster clock and λ,
                                     // faster link — the E8 mixed pair): the cost-driven planner must
                                     // hand it the larger band.  (A bare `k_prime` bump is *not*
                                     // enough: the model's kernel term is dominated by `λ·q`, which
                                     // no MP count changes — pricing correctly shrugs there.)
        let mut cluster = atgpu_model::ClusterSpec::homogeneous(2, test_spec());
        cluster.devices[1] = atgpu_model::GpuSpec::midrange_like();
        cluster.host_links[1] = cluster.devices[1].host_link();
        let built = w.build_sharded_planned(&m, &cluster).unwrap();
        let report =
            verify_built_on_cluster(&built, &w.expected(), &m, &cluster, &SimConfig::default())
                .unwrap();
        // The fast device ran more blocks than the slow one.
        let blocks: Vec<u64> =
            report.rounds[0].devices.iter().map(|d| d.kernel_stats.blocks).collect();
        assert!(blocks[1] > blocks[0], "{blocks:?}");
    }

    /// The auto-chunked pipeline: the solver picks `chunk_rows`, the
    /// emitted program verifies on the cluster, overlaps no worse than
    /// its de-streamed serial form, and the non-dividing case falls back
    /// to the one-shot planned build.
    #[test]
    fn pipelined_build_solves_chunking_and_verifies() {
        use crate::workload::verify_built_on_cluster;
        use atgpu_sim::run_cluster_program;
        let m = test_machine();
        let w = MatMul::new(256, 13); // t = 8 tile rows
                                      // Slow host links make the per-slab A upload worth hiding (on
                                      // the default fast links the solver correctly judges overlap
                                      // not worth an extra σ per round and emits one slab).
        let mut cluster = atgpu_model::ClusterSpec::homogeneous(2, test_spec());
        for l in &mut cluster.host_links {
            l.alpha_ms *= 8.0;
            l.beta_ms_per_word *= 8.0;
        }
        let built = w.build_sharded_pipelined(&m, &cluster).unwrap();
        assert!(built.program.uses_streams());
        let streamed =
            verify_built_on_cluster(&built, &w.expected(), &m, &cluster, &SimConfig::default())
                .unwrap();
        let serial = run_cluster_program(
            &built.program.destreamed(),
            built.inputs.clone(),
            &m,
            &cluster,
            &SimConfig::default(),
        )
        .unwrap();
        assert_eq!(serial.output(built.outputs[0]), streamed.output(built.outputs[0]));
        assert!(
            streamed.total_ms() <= serial.total_ms() + 1e-9,
            "pipelined {} vs serial {}",
            streamed.total_ms(),
            serial.total_ms()
        );

        // t = 3 rows on 2 devices slabs raggedly now — no planned
        // fallback, and the emitted program still verifies.
        let w3 = MatMul::new(96, 5);
        let fb = w3.build_sharded_pipelined(&m, &cluster).unwrap();
        verify_built_on_cluster(&fb, &w3.expected(), &m, &cluster, &SimConfig::default()).unwrap();
    }

    #[test]
    fn streamed_sharded_handles_ragged_grids() {
        use crate::workload::verify_built_on_cluster;
        let m = test_machine();
        let w = MatMul::new(96, 7); // t = 3 tile rows
        assert!(w.build_sharded_streamed(&m, 1, 0).is_err(), "chunk_rows = 0 must be rejected");
        // 3 rows never divide by 2 or 4 — each case leaves a ragged
        // final slab (or a single short slab) whose rows re-apportion
        // over the devices, some of which may sit the slab out.
        for (devices, chunk) in [(2u32, 1u64), (1, 2), (4, 1)] {
            let built = w.build_sharded_streamed(&m, devices, chunk).unwrap();
            let cluster = atgpu_model::ClusterSpec::homogeneous(devices as usize, test_spec());
            verify_built_on_cluster(&built, &w.expected(), &m, &cluster, &SimConfig::default())
                .unwrap_or_else(|e| panic!("devices={devices} chunk={chunk}: {e}"));
        }
    }
}
