//! Matrix transpose — three kernel variants exposing coalescing and bank
//! conflicts, the access-pattern phenomena the ATGPU model (and its
//! conflict-free assumption) is about.
//!
//! * [`TransposeVariant::Naive`] — reads rows coalesced, writes columns
//!   directly: every warp write scatters over `b` memory blocks
//!   (`q = k·b·(1+b)` instead of `2k·b`);
//! * [`TransposeVariant::Tiled`] — stages a `b×b` tile in shared memory;
//!   global traffic is fully coalesced but the transposed shared read has
//!   stride `b` — a maximal `b`-way bank conflict;
//! * [`TransposeVariant::TiledPadded`] — the classic fix: a `b+1`-word
//!   row pitch makes the strided read conflict-free.
//!
//! All three compute the same function; the experiments compare their
//! I/O counts, conflict reports and simulated times (extension E3).

use crate::error::AlgosError;
use crate::gen;
use crate::workload::{BuiltProgram, Placement, Workload};
use atgpu_ir::{AddrExpr, KernelBuilder, ProgramBuilder};
use atgpu_model::{AlgoMetrics, AtgpuMachine, RoundMetrics};

/// Which transpose kernel to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransposeVariant {
    /// Direct column writes (uncoalesced).
    Naive,
    /// Shared-memory tile, stride-`b` shared reads (bank conflicts).
    Tiled,
    /// Shared-memory tile with padded pitch (conflict-free).
    TiledPadded,
}

impl TransposeVariant {
    /// Label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            TransposeVariant::Naive => "naive",
            TransposeVariant::Tiled => "tiled",
            TransposeVariant::TiledPadded => "tiled-padded",
        }
    }
}

/// An `n×n` transpose instance.
#[derive(Debug, Clone)]
pub struct Transpose {
    n: u64,
    data: Vec<i64>,
    variant: TransposeVariant,
}

impl Transpose {
    /// Random instance with side `n`.
    pub fn new(n: u64, seed: u64, variant: TransposeVariant) -> Self {
        Self { n, data: gen::small_ints(n * n, seed), variant }
    }

    /// Host reference.
    pub fn host_reference(&self) -> Vec<i64> {
        let n = self.n as usize;
        let mut out = vec![0i64; n * n];
        for r in 0..n {
            for c in 0..n {
                out[c * n + r] = self.data[r * n + c];
            }
        }
        out
    }

    /// The variant in use.
    pub fn variant(&self) -> TransposeVariant {
        self.variant
    }
}

impl Workload for Transpose {
    fn name(&self) -> &'static str {
        "transpose"
    }

    fn size(&self) -> u64 {
        self.n
    }

    fn emit(&self, machine: &AtgpuMachine, _: &Placement) -> Result<BuiltProgram, AlgosError> {
        let n = self.n;
        let b = machine.b;
        if n == 0 || !n.is_multiple_of(b) {
            return Err(AlgosError::InvalidSize {
                reason: format!("matrix side {n} must be a positive multiple of b = {b}"),
            });
        }
        let t = n / b;
        let nn = n * n;
        let bi = b as i64;
        let ni = n as i64;

        let mut pb = ProgramBuilder::new("transpose");
        let hin = pb.host_input("A", nn);
        let hout = pb.host_output("At", nn);
        let din = pb.device_alloc("a", nn);
        let dout = pb.device_alloc("at", nn);

        let kernel = match self.variant {
            TransposeVariant::Naive => {
                let mut kb = KernelBuilder::new_2d("transpose_naive", (t, t), b);
                kb.repeat(b as u32, |kb| {
                    // Row t0 of tile (ix, iy), read coalesced …
                    kb.glb_to_shr(
                        AddrExpr::lane(),
                        din,
                        (AddrExpr::block_y() * bi + AddrExpr::loop_var(0)) * ni
                            + AddrExpr::block() * bi
                            + AddrExpr::lane(),
                    );
                    // … written as a column: stride-n scatter, b txns.
                    kb.shr_to_glb(
                        dout,
                        (AddrExpr::block() * bi + AddrExpr::lane()) * ni
                            + AddrExpr::block_y() * bi
                            + AddrExpr::loop_var(0),
                        AddrExpr::lane(),
                    );
                });
                kb.build()
            }
            TransposeVariant::Tiled | TransposeVariant::TiledPadded => {
                let pitch = if self.variant == TransposeVariant::TiledPadded { bi + 1 } else { bi };
                let shared = b * (pitch as u64);
                let mut kb = KernelBuilder::new_2d(
                    if self.variant == TransposeVariant::TiledPadded {
                        "transpose_tiled_padded"
                    } else {
                        "transpose_tiled"
                    },
                    (t, t),
                    shared,
                );
                kb.repeat(b as u32, |kb| {
                    kb.glb_to_shr(
                        AddrExpr::loop_var(0) * pitch + AddrExpr::lane(),
                        din,
                        (AddrExpr::block_y() * bi + AddrExpr::loop_var(0)) * ni
                            + AddrExpr::block() * bi
                            + AddrExpr::lane(),
                    );
                });
                kb.repeat(b as u32, |kb| {
                    // Write row t0 of the transposed tile: coalesced
                    // global store, strided shared read.
                    kb.shr_to_glb(
                        dout,
                        (AddrExpr::block() * bi + AddrExpr::loop_var(0)) * ni
                            + AddrExpr::block_y() * bi
                            + AddrExpr::lane(),
                        AddrExpr::lane() * pitch + AddrExpr::loop_var(0),
                    );
                });
                kb.build()
            }
        };

        pb.begin_round();
        pb.transfer_in(hin, din, nn);
        pb.launch(kernel);
        pb.transfer_out(dout, hout, nn);

        Ok(BuiltProgram {
            program: pb.build()?,
            inputs: vec![self.data.clone()],
            outputs: vec![hout],
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
        let k = (n / b) * (n / b);
        let (time, io, shared) = match self.variant {
            TransposeVariant::Naive => (2 * b, k * b * (1 + b), b),
            TransposeVariant::Tiled => (2 * b, k * 2 * b, b * b),
            TransposeVariant::TiledPadded => (2 * b, k * 2 * b, b * (b + 1)),
        };
        Some(AlgoMetrics::new(vec![RoundMetrics {
            time,
            io_blocks: io,
            global_words: 2 * n * n,
            shared_words: shared,
            inward_words: n * n,
            inward_txns: 1,
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
    use atgpu_analyze::{analyze_cluster_program, ConflictDegree};
    use atgpu_sim::SimConfig;

    const VARIANTS: [TransposeVariant; 3] =
        [TransposeVariant::Naive, TransposeVariant::Tiled, TransposeVariant::TiledPadded];

    #[test]
    fn analyzer_matches_closed_form_all_variants() {
        let m = test_machine();
        for v in VARIANTS {
            let w = Transpose::new(64, 3, v);
            let built = w.build(&m).unwrap();
            assert_eq!(
                analyze_cluster_program(&built.program, &m, 1).unwrap().lone_device().unwrap(),
                &w.closed_form(&m).unwrap(),
                "mismatch for {v:?}"
            );
        }
    }

    #[test]
    fn simulation_matches_host_all_variants() {
        for v in VARIANTS {
            let w = Transpose::new(64, 9, v);
            verify_on_sim(&w, &test_machine(), &test_spec(), &SimConfig::default())
                .unwrap_or_else(|e| panic!("{v:?}: {e}"));
        }
    }

    #[test]
    fn naive_variant_blows_up_io() {
        let m = test_machine();
        let naive = Transpose::new(64, 1, TransposeVariant::Naive);
        let tiled = Transpose::new(64, 1, TransposeVariant::Tiled);
        let q_naive = analyze_cluster_program(&naive.build(&m).unwrap().program, &m, 1)
            .unwrap()
            .lone_device()
            .unwrap()
            .total_io_blocks();
        let q_tiled = analyze_cluster_program(&tiled.build(&m).unwrap().program, &m, 1)
            .unwrap()
            .lone_device()
            .unwrap()
            .total_io_blocks();
        // (1+b)/2 ≈ b/2 blow-up.
        assert!(q_naive > q_tiled * (m.b / 2));
    }

    #[test]
    fn tiled_variant_has_b_way_conflicts_padded_has_none() {
        let m = test_machine();
        let tiled = Transpose::new(64, 1, TransposeVariant::Tiled);
        let a = analyze_cluster_program(&tiled.build(&m).unwrap().program, &m, 1).unwrap();
        assert!(!a.conflict_free);
        let worst = a.kernels[0].as_ref().unwrap().bank.worst;
        assert_eq!(worst, ConflictDegree::Exact(m.b));

        let padded = Transpose::new(64, 1, TransposeVariant::TiledPadded);
        let a = analyze_cluster_program(&padded.build(&m).unwrap().program, &m, 1).unwrap();
        assert!(a.conflict_free);
    }

    #[test]
    fn simulated_times_order_padded_fastest_naive_slowest() {
        let m = test_machine();
        // On the GTX650-like memory system all variants are DRAM-bound and
        // conflicts hide under the memory bottleneck (just like on real
        // hardware).  A fast-DRAM device exposes the issue-side cost.
        let spec = atgpu_model::GpuSpec {
            k_prime: 2,
            h_limit: 8,
            dram_issue_cycles: 1,
            dram_latency_cycles: 100,
            ..atgpu_model::GpuSpec::gtx650_like()
        };
        let cfg = SimConfig::default();
        let mut cycles = Vec::new();
        let mut conflicts = Vec::new();
        for v in VARIANTS {
            let w = Transpose::new(128, 2, v);
            let r = verify_on_sim(&w, &m, &spec, &cfg).unwrap();
            cycles.push((v, r.rounds[0].kernel_stats.cycles));
            conflicts.push(r.rounds[0].kernel_stats.bank_conflict_cycles);
        }
        let naive = cycles[0].1;
        let tiled = cycles[1].1;
        let padded = cycles[2].1;
        assert!(padded < tiled, "padded {padded} should beat tiled {tiled}");
        assert!(padded < naive, "padded {padded} should beat naive {naive}");
        // Conflict accounting: only the tiled (unpadded) variant serialises.
        assert_eq!(conflicts[2], 0, "padded variant must be conflict-free");
        assert!(conflicts[1] > 0, "tiled variant must show measured conflicts");
    }

    #[test]
    fn non_multiple_side_rejected() {
        assert!(Transpose::new(33, 0, TransposeVariant::Tiled).build(&test_machine()).is_err());
    }
}
