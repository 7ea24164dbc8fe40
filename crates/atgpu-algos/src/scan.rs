//! Inclusive prefix sum (scan) — extension workload with a three-round
//! hierarchical structure.
//!
//! 1. **Block scan** (`k` blocks): each block Hillis–Steele-scans its `b`
//!    words in shared memory, stores the scanned chunk and its block
//!    total.
//! 2. **Sums scan** (1 block): a single block walks the `k` block totals
//!    in chunks of `b`, scanning each and carrying the running total in
//!    shared memory — the sequential-carry pattern a single-warp machine
//!    needs.
//! 3. **Offset add** (`k` blocks): each block adds the scanned total of
//!    the preceding blocks to its chunk (block 0 is guarded by the
//!    model's single-conditional `if`).
//!
//! The Hillis–Steele steps are hazard-free under the model's lockstep
//! semantics: a load instruction completes for *all* lanes before the
//! following store issues.

use crate::error::AlgosError;
use crate::gen;
use crate::workload::{BuiltProgram, Placement, Workload};
use atgpu_ir::{AddrExpr, AluOp, KernelBuilder, Operand, PredExpr, ProgramBuilder, Shard};
use atgpu_model::{AlgoMetrics, AtgpuMachine, PeerProfile, RoundMetrics, ShardProfile};

/// An inclusive-scan instance.
#[derive(Debug, Clone)]
pub struct Scan {
    n: u64,
    data: Vec<i64>,
}

impl Scan {
    /// Random instance of size `n`.
    pub fn new(n: u64, seed: u64) -> Self {
        Self { n, data: gen::vec_in_range(n, -50, 50, seed) }
    }

    /// Instance from explicit data.
    pub fn from_data(data: Vec<i64>) -> Self {
        Self { n: data.len() as u64, data }
    }

    /// Host reference: running sums.
    pub fn host_reference(&self) -> Vec<i64> {
        self.data
            .iter()
            .scan(0i64, |acc, &x| {
                *acc += x;
                Some(*acc)
            })
            .collect()
    }

    /// Validates the instance against the machine and returns
    /// `(k, b, steps, t2)`.
    fn check(&self, machine: &AtgpuMachine) -> Result<(u64, u64, u32, u64), AlgosError> {
        if self.n == 0 {
            return Err(AlgosError::InvalidSize { reason: "empty input".into() });
        }
        if !machine.b.is_power_of_two() || machine.b < 2 {
            return Err(AlgosError::InvalidMachine {
                reason: format!("scan needs b to be a power of two ≥ 2, got {}", machine.b),
            });
        }
        let b = machine.b;
        let k = machine.blocks_for(self.n);
        Ok((k, b, b.trailing_zeros(), k.div_ceil(b)))
    }
}

/// Emits a Hillis–Steele inclusive scan over `_s[region + j]`; `steps`
/// iterations of `if s ≤ j then _s[j] += _s[j−s]` with `s = 2^t`.
fn emit_hillis_steele(kb: &mut KernelBuilder, region: i64, steps: u32) {
    kb.repeat(steps, |kb| {
        kb.alu(AluOp::Shl, 0, Operand::Imm(1), Operand::LoopVar(0));
        kb.when(PredExpr::Le(Operand::Reg(0), Operand::Lane), |kb| {
            kb.ld_shr(1, AddrExpr::lane() - AddrExpr::reg(0) + region);
            kb.ld_shr(2, AddrExpr::lane() + region);
            kb.alu(AluOp::Add, 1, Operand::Reg(1), Operand::Reg(2));
            kb.st_shr(AddrExpr::lane() + region, Operand::Reg(1));
        });
    });
}

/// Ops of one Hillis–Steele pass (used by the closed form).
fn hillis_steele_ops(steps: u64) -> u64 {
    steps * 6 // shl + pred + 4-op arm
}

/// Round-1 kernel: block-local scans into `dpart`, block totals into
/// `dsums`.
fn scan_blocks_kernel(
    k: u64,
    b: u64,
    steps: u32,
    din: atgpu_ir::DBuf,
    dpart: atgpu_ir::DBuf,
    dsums: atgpu_ir::DBuf,
) -> atgpu_ir::Kernel {
    let bi = b as i64;
    let mut kb = KernelBuilder::new("scan_blocks", k, b);
    kb.glb_to_shr(AddrExpr::lane(), din, AddrExpr::block() * bi + AddrExpr::lane());
    emit_hillis_steele(&mut kb, 0, steps);
    kb.shr_to_glb(dpart, AddrExpr::block() * bi + AddrExpr::lane(), AddrExpr::lane());
    kb.when(PredExpr::Eq(Operand::Lane, Operand::Imm(bi - 1)), |kb| {
        kb.shr_to_glb(dsums, AddrExpr::block(), AddrExpr::c(bi - 1));
    });
    kb.build()
}

/// Round-2 kernel: a single block scans the `k` block totals in chunks
/// of `b` with a sequential carry, rewriting `dsums` in place.
fn scan_sums_kernel(b: u64, steps: u32, t2: u64, dsums: atgpu_ir::DBuf) -> atgpu_ir::Kernel {
    let bi = b as i64;
    let mut kb = KernelBuilder::new("scan_sums", 1, b + 1);
    kb.repeat(t2 as u32, |kb| {
        kb.glb_to_shr(AddrExpr::lane(), dsums, AddrExpr::loop_var(0) * bi + AddrExpr::lane());
        // Inner Hillis–Steele: loop depth 1 inside this loop.
        kb.repeat(steps, |kb| {
            kb.alu(AluOp::Shl, 0, Operand::Imm(1), Operand::LoopVar(1));
            kb.when(PredExpr::Le(Operand::Reg(0), Operand::Lane), |kb| {
                kb.ld_shr(1, AddrExpr::lane() - AddrExpr::reg(0));
                kb.ld_shr(2, AddrExpr::lane());
                kb.alu(AluOp::Add, 1, Operand::Reg(1), Operand::Reg(2));
                kb.st_shr(AddrExpr::lane(), Operand::Reg(1));
            });
        });
        kb.ld_shr(3, AddrExpr::c(bi)); // carry
        kb.ld_shr(4, AddrExpr::lane());
        kb.alu(AluOp::Add, 4, Operand::Reg(4), Operand::Reg(3));
        kb.st_shr(AddrExpr::lane(), Operand::Reg(4));
        kb.shr_to_glb(dsums, AddrExpr::loop_var(0) * bi + AddrExpr::lane(), AddrExpr::lane());
        kb.when(PredExpr::Eq(Operand::Lane, Operand::Imm(bi - 1)), |kb| {
            kb.st_shr(AddrExpr::c(bi), Operand::Reg(4));
        });
    });
    kb.build()
}

/// Round-3 kernel: each block adds the scanned total of the preceding
/// blocks to its chunk.
fn scan_offsets_kernel(
    k: u64,
    b: u64,
    dpart: atgpu_ir::DBuf,
    dsums: atgpu_ir::DBuf,
    dout: atgpu_ir::DBuf,
) -> atgpu_ir::Kernel {
    let bi = b as i64;
    let mut kb = KernelBuilder::new("scan_offsets", k, b + 1);
    kb.glb_to_shr(AddrExpr::lane(), dpart, AddrExpr::block() * bi + AddrExpr::lane());
    kb.when(PredExpr::Lt(Operand::Imm(0), Operand::Block), |kb| {
        kb.glb_to_shr(AddrExpr::c(bi), dsums, AddrExpr::block() - 1);
    });
    kb.ld_shr(0, AddrExpr::lane());
    kb.ld_shr(1, AddrExpr::c(bi));
    kb.alu(AluOp::Add, 0, Operand::Reg(0), Operand::Reg(1));
    kb.st_shr(AddrExpr::lane(), Operand::Reg(0));
    kb.shr_to_glb(dout, AddrExpr::block() * bi + AddrExpr::lane(), AddrExpr::lane());
    kb.build()
}

impl Workload for Scan {
    fn name(&self) -> &'static str {
        "scan"
    }

    fn size(&self) -> u64 {
        self.n
    }

    fn units(&self, machine: &AtgpuMachine) -> Option<u64> {
        Some(machine.blocks_for(self.n))
    }

    /// The per-block cost shape of the scan: two `k`-block kernel rounds
    /// (block scan + offset fix-up; `time_ops` is their mean, the carry
    /// scan on device 0 is plan-invariant and left out), `b` words
    /// staged in and drained out per block, and one block total gathered
    /// to device 0 plus one scanned total scattered back per block — the
    /// all-to-one/one-to-all peer pair the planner prices on the
    /// directed matrix.
    fn shard_profile(&self, machine: &AtgpuMachine) -> ShardProfile {
        let b = machine.b.max(1);
        let steps = b.trailing_zeros() as u64;
        let hs = hillis_steele_ops(steps);
        let t1 = 1 + hs + 1 + 2; // round-1 kernel
        let t3 = 1 + 2 + 4 + 1; // round-3 kernel
        ShardProfile {
            time_ops: (t1 + t3).div_ceil(2),
            io_blocks_per_unit: 3,
            inward_words_per_unit: b,
            inward_txns: 1,
            outward_words_per_unit: b,
            outward_txns: 1,
            shared_words: b + 1,
            rounds: 2,
            peer: PeerProfile {
                merge_words_per_unit: 1,
                merge_txns: 1,
                scatter_words_per_unit: 1,
                scatter_txns: 1,
                owner: 0,
                ..PeerProfile::default()
            },
            ..ShardProfile::default()
        }
    }

    /// Multi-pass scan over a placement of the round-1 block grid:
    ///
    /// 1. each shard stages its slice and block-scans it on its own
    ///    device;
    /// 2. every shard off device 0 sends its block totals to device 0
    ///    over the peer links (the **all-to-one gather**), where the
    ///    single-block carry scan runs;
    /// 3. device 0 scatters each shard's scanned predecessor totals
    ///    back (**one-to-all fix-up**), every shard adds its offset and
    ///    drains its slice.
    ///
    /// Bit-identical under any placement: the carry scan sees exactly
    /// the same `dsums` words in the same order.
    fn emit(&self, machine: &AtgpuMachine, at: &Placement) -> Result<BuiltProgram, AlgosError> {
        let (k, b, steps, t2) = self.check(machine)?;
        let n = self.n;

        let mut pb = ProgramBuilder::new(at.name("scan", "scan-sharded"));
        let hin = pb.host_input("A", n);
        let hout = pb.host_output("Out", n);
        let din = pb.device_alloc("a", n);
        let dpart = pb.device_alloc("part", n);
        let dsums = pb.device_alloc("sums", k);
        let dout = pb.device_alloc("out", n);

        let slice = |s: &Shard| {
            let lo = s.start * b;
            (lo, (s.end * b).min(n) - lo)
        };

        // Round 1: stage slices, block-scan each shard on its device.
        pb.begin_round();
        for s in at.shards() {
            let (lo, words) = slice(s);
            pb.transfer_in_to(s.device, hin, lo, din, lo, words);
        }
        at.launch(&mut pb, scan_blocks_kernel(k, b, steps, din, dpart, dsums));

        // Round 2: gather block totals to device 0, carry-scan there.
        pb.begin_round();
        for s in at.shards() {
            if s.device != 0 {
                pb.transfer_peer(s.device, 0, dsums, s.start, s.start, s.blocks());
            }
        }
        at.launch_on_owner(&mut pb, scan_sums_kernel(b, steps, t2, dsums));

        // Round 3: scatter the scanned predecessor totals, add offsets,
        // drain each shard's slice.
        pb.begin_round();
        for s in at.shards() {
            if s.device == 0 {
                continue;
            }
            // Block `u > 0` reads `dsums[u − 1]`: the shard needs the
            // scanned totals `[start − 1, end − 1)` (clamped at 0).
            let lo = s.start.saturating_sub(1);
            let hi = s.end - 1;
            if hi > lo {
                pb.transfer_peer(0, s.device, dsums, lo, lo, hi - lo);
            }
        }
        at.launch(&mut pb, scan_offsets_kernel(k, b, dpart, dsums, dout));
        for s in at.shards() {
            let (lo, words) = slice(s);
            pb.transfer_out_from(s.device, dout, lo, hout, lo, words);
        }

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
        let k = machine.blocks_for(n);
        let steps = b.trailing_zeros() as u64;
        let t2 = k.div_ceil(b);
        let pad = |w: u64| w.div_ceil(b) * b;
        let global_words = 3 * pad(n) + pad(k);
        let hs = hillis_steele_ops(steps);
        Some(AlgoMetrics::new(vec![
            RoundMetrics {
                time: 1 + hs + 1 + 2, // load + scan + store + guarded sums store
                io_blocks: 3 * k,     // load + partial store + sums store (full-lane count)
                global_words,
                shared_words: b,
                inward_words: n,
                inward_txns: 1,
                outward_words: 0,
                outward_txns: 0,
                blocks_launched: k,
            },
            RoundMetrics {
                time: t2 * (1 + hs + 4 + 1 + 2), // load + scan + carry-add + store + guarded carry
                io_blocks: 2 * t2,
                global_words,
                shared_words: b + 1,
                inward_words: 0,
                inward_txns: 0,
                outward_words: 0,
                outward_txns: 0,
                blocks_launched: 1,
            },
            RoundMetrics {
                time: 1 + 2 + 4 + 1, // load + guarded offset load + add chain + store
                io_blocks: 3 * k,    // offset load counted for all k blocks (conservative)
                global_words,
                shared_words: b + 1,
                inward_words: 0,
                inward_txns: 0,
                outward_words: n,
                outward_txns: 1,
                blocks_launched: k,
            },
        ]))
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
        for n in [32u64, 1000, 4096, 4099] {
            let w = Scan::new(n, 3);
            let built = w.build(&m).unwrap();
            assert_eq!(
                analyze_cluster_program(&built.program, &m, 1).unwrap().lone_device().unwrap(),
                &w.closed_form(&m).unwrap(),
                "mismatch at n={n}"
            );
        }
    }

    #[test]
    fn simulation_matches_host() {
        for n in [1u64, 31, 32, 33, 1000, 2048, 4099] {
            let w = Scan::new(n, n);
            verify_on_sim(&w, &test_machine(), &test_spec(), &SimConfig::default())
                .unwrap_or_else(|e| panic!("n={n}: {e}"));
        }
    }

    #[test]
    fn all_ones_scan_is_identity_ramp() {
        let w = Scan::from_data(vec![1; 100]);
        let r = verify_on_sim(&w, &test_machine(), &test_spec(), &SimConfig::default()).unwrap();
        let out = r.output(atgpu_ir::HBuf(1));
        assert_eq!(out[0], 1);
        assert_eq!(out[99], 100);
    }

    #[test]
    fn empty_rejected() {
        assert!(Scan::from_data(vec![]).build(&test_machine()).is_err());
    }

    #[test]
    fn three_rounds() {
        let w = Scan::new(10_000, 0);
        let built = w.build(&test_machine()).unwrap();
        assert_eq!(built.program.num_rounds(), 3);
    }

    use crate::workload::{verify_built_on_cluster, Plan};
    use atgpu_model::{ClusterSpec, LinkParams};

    fn cluster(n: usize) -> ClusterSpec {
        ClusterSpec::homogeneous(n, test_spec())
    }

    #[test]
    fn sharded_gather_scatter_matches_host() {
        let m = test_machine();
        for devices in [1u32, 2, 3, 4] {
            for n in [200u64, 2048, 4099] {
                let w = Scan::new(n, n + devices as u64);
                let built = w.build_sharded(&m, devices).unwrap();
                verify_built_on_cluster(
                    &built,
                    &[w.host_reference()],
                    &m,
                    &cluster(devices as usize),
                    &SimConfig::default(),
                )
                .unwrap_or_else(|e| panic!("devices={devices} n={n}: {e}"));
            }
        }
    }

    #[test]
    fn planned_sharding_verifies_on_asymmetric_peer_cluster() {
        let m = test_machine();
        let mut spec = cluster(3);
        // The gather/scatter hub is device 0: make its peer edges to
        // device 2 expensive so the planner reshuffles, and the built
        // plan must still verify bit-identically.
        spec.peer_links[0][2] = LinkParams { alpha_ms: 4.0, beta_ms_per_word: 0.25 };
        spec.peer_links[2][0] = LinkParams { alpha_ms: 4.0, beta_ms_per_word: 0.25 };
        let w = Scan::new(5000, 17);
        let built = w.build_sharded_planned(&m, &spec).unwrap();
        verify_built_on_cluster(&built, &[w.host_reference()], &m, &spec, &SimConfig::default())
            .unwrap();
    }

    #[test]
    fn explicit_uneven_plan_matches_host() {
        let m = test_machine();
        let w = Scan::new(3000, 5);
        let k = m.blocks_for(3000);
        let shards = vec![
            Shard { device: 1, start: 0, end: 10 },
            Shard { device: 0, start: 10, end: 11 },
            Shard { device: 2, start: 11, end: k },
        ];
        let built = w.build_plan(&m, Plan::Explicit(shards)).unwrap();
        verify_built_on_cluster(
            &built,
            &[w.host_reference()],
            &m,
            &cluster(3),
            &SimConfig::default(),
        )
        .unwrap();
    }
}
