//! Sparse matrix–vector multiplication (ELL format) — extension workload
//! with the canonical GPU gather pattern.
//!
//! The matrix is stored in ELLPACK layout, column-major: for slot
//! `t ∈ [0, K)` and row `r`, `cols[t·n + r]` and `vals[t·n + r]` hold the
//! row's `t`-th nonzero (padded rows repeat column `r` with value 0).
//! Slot arrays are read coalesced; the operand vector `x` is **gathered**
//! through data-dependent addresses — exactly analysable traffic for the
//! matrix, conservatively bounded traffic for the gather, both measured
//! precisely by the simulator.

use crate::error::AlgosError;
use crate::workload::{BuiltProgram, Placement, Workload};
use atgpu_ir::{AddrExpr, AluOp, Kernel, KernelBuilder, Operand, ProgramBuilder, Shard};
use atgpu_model::{AtgpuMachine, ShardProfile};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A sparse matrix in ELL format with its dense operand.
#[derive(Debug, Clone)]
pub struct SpmvEll {
    n: u64,
    k_slots: u64,
    /// Column indices, column-major `[t·n + r]`.
    cols: Vec<i64>,
    /// Values, column-major `[t·n + r]`.
    vals: Vec<i64>,
    x: Vec<i64>,
}

impl SpmvEll {
    /// Random instance: `n` rows, up to `k_slots` nonzeros per row.
    pub fn new(n: u64, k_slots: u64, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cols = vec![0i64; (n * k_slots) as usize];
        let mut vals = vec![0i64; (n * k_slots) as usize];
        for r in 0..n as usize {
            // Each row gets a random number of nonzeros; padding slots
            // self-reference with value zero (an in-range, harmless gather).
            let nnz = rng.gen_range(0..=k_slots) as usize;
            for t in 0..k_slots as usize {
                let idx = t * n as usize + r;
                if t < nnz {
                    cols[idx] = rng.gen_range(0..n as i64);
                    vals[idx] = rng.gen_range(-9..=9);
                } else {
                    cols[idx] = r as i64;
                    vals[idx] = 0;
                }
            }
        }
        let x: Vec<i64> = (0..n).map(|_| rng.gen_range(-9..=9)).collect();
        Self { n, k_slots, cols, vals, x }
    }

    /// Host reference.
    pub fn host_reference(&self) -> Vec<i64> {
        let n = self.n as usize;
        (0..n)
            .map(|r| {
                (0..self.k_slots as usize)
                    .map(|t| {
                        let idx = t * n + r;
                        self.vals[idx] * self.x[self.cols[idx] as usize]
                    })
                    .sum()
            })
            .collect()
    }

    fn check(&self, machine: &AtgpuMachine) -> Result<(u64, u64), AlgosError> {
        let n = self.n;
        let b = machine.b;
        if n == 0 || !n.is_multiple_of(b) {
            return Err(AlgosError::InvalidSize {
                reason: format!("row count {n} must be a positive multiple of b = {b}"),
            });
        }
        if self.k_slots == 0 {
            return Err(AlgosError::InvalidSize { reason: "K must be at least 1".into() });
        }
        Ok((n / b, b))
    }

    /// Effective slot count of each `b`-row band: the highest occupied
    /// slot across the band's rows, where a slot is occupied unless it
    /// holds the self-referencing zero pad `(col = r, val = 0)`.  Slots
    /// past the band's count contribute `0·x[r]` and need not be staged
    /// — the per-unit imbalance the sharded build and its profile feed
    /// to the planner.
    pub fn band_slots(&self, machine: &AtgpuMachine) -> Vec<u64> {
        let b = machine.b.max(1);
        let k = self.n / b;
        (0..k)
            .map(|u| {
                (u * b..(u + 1) * b)
                    .map(|r| {
                        (0..self.k_slots)
                            .rev()
                            .find(|&t| {
                                let idx = (t * self.n + r) as usize;
                                self.cols[idx] != r as i64 || self.vals[idx] != 0
                            })
                            .map_or(0, |t| t + 1)
                    })
                    .max()
                    .unwrap_or(0)
            })
            .collect()
    }

    /// Single-round cluster SpMV over a shard plan of the row bands:
    /// every shard's device receives the **full operand vector** (the
    /// gather may touch any of it), but the ELL slot arrays are staged
    /// only up to the shard's effective slot count — unstaged slots read
    /// the device's zero-initialised memory and contribute nothing,
    /// exactly like the host padding.  Each shard drains its own `y`
    /// slice.
    fn emit_sharded(
        &self,
        machine: &AtgpuMachine,
        shards: &[Shard],
    ) -> Result<BuiltProgram, AlgosError> {
        let (k, b) = self.check(machine)?;
        let n = self.n;
        let bands = self.band_slots(machine);

        let mut pb = ProgramBuilder::new("spmv-ell-sharded");
        let hc = pb.host_input("Cols", n * self.k_slots);
        let hv = pb.host_input("Vals", n * self.k_slots);
        let hx = pb.host_input("X", n);
        let hy = pb.host_output("Y", n);
        let dc = pb.device_alloc("cols", n * self.k_slots);
        let dv = pb.device_alloc("vals", n * self.k_slots);
        let dx = pb.device_alloc("x", n);
        let dy = pb.device_alloc("y", n);

        pb.begin_round();
        let mut x_staged: Vec<u32> = Vec::new();
        for s in shards {
            if !x_staged.contains(&s.device) {
                pb.transfer_in_to(s.device, hx, 0, dx, 0, n);
                x_staged.push(s.device);
            }
            let lo = s.start * b;
            let words = s.blocks() * b;
            let k_s = bands[s.start as usize..s.end as usize].iter().copied().max().unwrap_or(0);
            for t in 0..k_s {
                pb.transfer_in_to(s.device, hc, t * n + lo, dc, t * n + lo, words);
                pb.transfer_in_to(s.device, hv, t * n + lo, dv, t * n + lo, words);
            }
        }
        pb.launch_sharded(spmv_kernel(k, b, self.k_slots, dc, dv, dx, dy), shards.to_vec());
        for s in shards {
            let lo = s.start * b;
            pb.transfer_out_from(s.device, dy, lo, hy, lo, s.blocks() * b);
        }

        Ok(BuiltProgram {
            program: pb.build()?,
            inputs: vec![self.cols.clone(), self.vals.clone(), self.x.clone()],
            outputs: vec![hy],
        })
    }
}

/// The shared ELL kernel: slot-major loop staging `cols`/`vals`
/// coalesced, gathering `x` through the column register, accumulating in
/// a register.  Shared layout: col `[0,b)`, val `[b,2b)`, gathered x
/// `[2b,3b)`, y `[3b,4b)`.
fn spmv_kernel(
    k: u64,
    b: u64,
    k_slots: u64,
    dc: atgpu_ir::DBuf,
    dv: atgpu_ir::DBuf,
    dx: atgpu_ir::DBuf,
    dy: atgpu_ir::DBuf,
) -> Kernel {
    let bi = b as i64;
    let ni = (k * b) as i64;
    let mut kb = KernelBuilder::new("spmv_kernel", k, 4 * b);
    kb.mov(0, Operand::Imm(0));
    kb.repeat(k_slots as u32, |kb| {
        let slot = AddrExpr::loop_var(0) * ni + AddrExpr::block() * bi + AddrExpr::lane();
        kb.glb_to_shr(AddrExpr::lane(), dc, slot.clone());
        kb.glb_to_shr(AddrExpr::lane() + bi, dv, slot);
        kb.ld_shr(1, AddrExpr::lane()); // column index
        kb.glb_to_shr(AddrExpr::lane() + 2 * bi, dx, AddrExpr::reg(1)); // gather
        kb.ld_shr(2, AddrExpr::lane() + 2 * bi);
        kb.ld_shr(3, AddrExpr::lane() + bi);
        kb.alu(AluOp::Mul, 4, Operand::Reg(2), Operand::Reg(3));
        kb.alu(AluOp::Add, 0, Operand::Reg(0), Operand::Reg(4));
    });
    kb.st_shr(AddrExpr::lane() + 3 * bi, Operand::Reg(0));
    kb.shr_to_glb(dy, AddrExpr::block() * bi + AddrExpr::lane(), AddrExpr::lane() + 3 * bi);
    kb.build()
}

impl Workload for SpmvEll {
    fn name(&self) -> &'static str {
        "spmv-ell"
    }

    fn size(&self) -> u64 {
        self.n
    }

    /// `b`-row bands.
    fn units(&self, machine: &AtgpuMachine) -> Option<u64> {
        Some(self.n / machine.b.max(1))
    }

    /// The **row-imbalanced** cost shape of this instance: staging words
    /// vary per band (`2·b·K_u` for the band's effective slot count),
    /// the operand vector is broadcast to every participating device,
    /// and kernel time/IO follow the uniform `K`-slot loop.  The
    /// non-empty [`ShardProfile::unit_inward_words`] routes the planner
    /// onto its contiguous greedy-pack path — heavy bands cost more to
    /// feed, so devices behind slow host links receive lighter spans,
    /// not just fewer rows.
    fn shard_profile(&self, machine: &AtgpuMachine) -> ShardProfile {
        let b = machine.b.max(1);
        ShardProfile {
            time_ops: 3 + 8 * self.k_slots,
            io_blocks_per_unit: 3 * self.k_slots + 1,
            inward_txns: 2,
            outward_words_per_unit: b,
            outward_txns: 1,
            broadcast_words: self.n,
            broadcast_txns: 1,
            shared_words: 4 * b,
            unit_inward_words: self.band_slots(machine).iter().map(|&k_u| 2 * b * k_u).collect(),
            ..ShardProfile::default()
        }
    }

    /// Two bodies, not one: a single device stages the whole slot arrays
    /// in three transfers, while a shard stages slot by slot up to its
    /// bands' effective count.  A shared body would branch on which of
    /// the two it is emitting.
    fn emit(&self, machine: &AtgpuMachine, at: &Placement) -> Result<BuiltProgram, AlgosError> {
        if !at.is_single() {
            return self.emit_sharded(machine, at.shards());
        }
        let (k, b) = self.check(machine)?;
        let n = self.n;

        let mut pb = ProgramBuilder::new("spmv-ell");
        let hc = pb.host_input("Cols", n * self.k_slots);
        let hv = pb.host_input("Vals", n * self.k_slots);
        let hx = pb.host_input("X", n);
        let hy = pb.host_output("Y", n);
        let dc = pb.device_alloc("cols", n * self.k_slots);
        let dv = pb.device_alloc("vals", n * self.k_slots);
        let dx = pb.device_alloc("x", n);
        let dy = pb.device_alloc("y", n);

        pb.begin_round();
        pb.transfer_in(hc, dc, n * self.k_slots);
        pb.transfer_in(hv, dv, n * self.k_slots);
        pb.transfer_in(hx, dx, n);
        pb.launch(spmv_kernel(k, b, self.k_slots, dc, dv, dx, dy));
        pb.transfer_out(dy, hy, n);

        Ok(BuiltProgram {
            program: pb.build()?,
            inputs: vec![self.cols.clone(), self.vals.clone(), self.x.clone()],
            outputs: vec![hy],
        })
    }

    fn expected(&self) -> Vec<Vec<i64>> {
        vec![self.host_reference()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{test_machine, test_spec, verify_on_sim};
    use atgpu_analyze::analyze_cluster_program;
    use atgpu_sim::SimConfig;

    #[test]
    fn simulation_matches_host() {
        for (n, k) in [(32u64, 1u64), (128, 4), (1024, 8)] {
            let w = SpmvEll::new(n, k, n + k);
            verify_on_sim(&w, &test_machine(), &test_spec(), &SimConfig::default())
                .unwrap_or_else(|e| panic!("n={n} K={k}: {e}"));
        }
    }

    #[test]
    fn diagonal_matrix_scales_x() {
        let n = 64u64;
        let cols: Vec<i64> = (0..n as i64).collect();
        let vals = vec![3i64; n as usize];
        let x: Vec<i64> = (0..n as i64).collect();
        let w = SpmvEll { n, k_slots: 1, cols, vals, x: x.clone() };
        let r = verify_on_sim(&w, &test_machine(), &test_spec(), &SimConfig::default()).unwrap();
        let y = r.output(atgpu_ir::HBuf(3));
        for (i, &v) in y.iter().enumerate() {
            assert_eq!(v, 3 * i as i64);
        }
    }

    #[test]
    fn gather_makes_analysis_inexact_but_slot_traffic_exact() {
        let m = test_machine();
        let w = SpmvEll::new(256, 4, 1);
        let built = w.build(&m).unwrap();
        let a = analyze_cluster_program(&built.program, &m, 1).unwrap();
        assert!(!a.io_exact, "the x gather is data-dependent");
        // The conservative bound still dominates the simulator's count.
        let q_model = a.lone_device().unwrap().total_io_blocks();
        let r = verify_on_sim(&w, &m, &test_spec(), &SimConfig::default()).unwrap();
        let q_sim: u64 = r.rounds.iter().map(|x| x.kernel_stats.global_txns).sum();
        assert!(q_model >= q_sim, "bound {q_model} must dominate measured {q_sim}");
    }

    #[test]
    fn invalid_sizes_rejected() {
        assert!(SpmvEll::new(33, 2, 0).build(&test_machine()).is_err());
        assert!(SpmvEll::new(32, 0, 0).build(&test_machine()).is_err());
    }

    use crate::workload::verify_built_on_cluster;
    use atgpu_model::{ClusterSpec, LinkParams};

    fn cluster(n: usize) -> ClusterSpec {
        ClusterSpec::homogeneous(n, test_spec())
    }

    /// An instance whose first half is dense (all `K` slots real) and
    /// second half is empty — maximal band imbalance.
    fn lopsided(n: u64, k_slots: u64) -> SpmvEll {
        let mut w = SpmvEll::new(n, k_slots, 9);
        for r in 0..n as usize {
            for t in 0..k_slots as usize {
                let idx = t * n as usize + r;
                if r < n as usize / 2 {
                    w.cols[idx] = ((r + t) % n as usize) as i64;
                    w.vals[idx] = 1 + (t as i64 % 5);
                } else {
                    w.cols[idx] = r as i64;
                    w.vals[idx] = 0;
                }
            }
        }
        w
    }

    #[test]
    fn band_slots_sees_imbalance() {
        let m = test_machine();
        let w = lopsided(256, 4);
        let bands = w.band_slots(&m);
        let k = bands.len();
        assert!(bands[..k / 2].iter().all(|&s| s == 4));
        assert!(bands[k / 2..].iter().all(|&s| s == 0));
        let p = w.shard_profile(&m);
        assert_eq!(p.unit_inward_words.len(), k);
        assert_eq!(p.unit_inward_words[0], 2 * m.b * 4);
        assert_eq!(p.unit_inward_words[k - 1], 0);
    }

    #[test]
    fn sharded_matches_host() {
        let m = test_machine();
        for devices in [1u32, 2, 3, 4] {
            for w in [SpmvEll::new(256, 4, devices as u64), lopsided(256, 3)] {
                let built = w.build_sharded(&m, devices).unwrap();
                verify_built_on_cluster(
                    &built,
                    &[w.host_reference()],
                    &m,
                    &cluster(devices as usize),
                    &SimConfig::default(),
                )
                .unwrap_or_else(|e| panic!("devices={devices}: {e}"));
            }
        }
    }

    #[test]
    fn planned_sharding_packs_heavy_bands_off_slow_links() {
        let m = test_machine();
        let mut spec = cluster(2);
        // Device 1's host link is 8x slower: the greedy pack should hand
        // it a lighter span of the lopsided matrix, and the built plan
        // must still verify.
        spec.host_links[1] = LinkParams {
            alpha_ms: spec.host_links[1].alpha_ms * 8.0,
            beta_ms_per_word: spec.host_links[1].beta_ms_per_word * 8.0,
        };
        let w = lopsided(512, 6);
        let k = m.blocks_for(512);
        let shards = atgpu_sim::planned_shards(k, &spec, &m, &w.shard_profile(&m));
        let slow_words: u64 = shards
            .iter()
            .filter(|s| s.device == 1)
            .map(|s| {
                w.band_slots(&m)[s.start as usize..s.end as usize]
                    .iter()
                    .map(|&ku| 2 * m.b * ku)
                    .sum::<u64>()
            })
            .sum();
        let total: u64 = w.band_slots(&m).iter().map(|&ku| 2 * m.b * ku).sum();
        assert!(
            slow_words <= total / 2,
            "slow-link device staged {slow_words} of {total} matrix words"
        );
        let built = w.build_sharded_planned(&m, &spec).unwrap();
        verify_built_on_cluster(&built, &[w.host_reference()], &m, &spec, &SimConfig::default())
            .unwrap();
    }
}
