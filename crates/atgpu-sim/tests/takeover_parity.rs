//! Takeover parity: the blocks the simulator runs on each survivor after
//! a device loss are the ones [`atgpu_model::plan::takeover_units`] —
//! the rule `cluster_cost_degraded` is priced with — hands it, on top of
//! its own shard.  Random **heterogeneous** 2–4-device clusters (mixed MP
//! counts and clocks, asymmetric host and peer links), random uneven
//! shard plans, one `DeviceDown` at a random round.

use atgpu_ir::{
    counts_to_shards, AddrExpr, AluOp, HBuf, KernelBuilder, Operand, Program, ProgramBuilder,
};
use atgpu_model::{plan, ClusterSpec, GpuSpec};
use atgpu_sim::{run_cluster_program, FaultEvent, FaultPlan, SimConfig};
use common::{machine, Rng};
use proptest::prelude::*;

mod common;

/// The clock and link multipliers `rng.scale` draws from.
const SCALES: [f64; 5] = [0.25, 0.5, 1.0, 2.0, 4.0];

fn random_cluster(rng: &mut Rng) -> ClusterSpec {
    let n = 2 + rng.below(3) as usize;
    let device = |rng: &mut Rng| GpuSpec {
        k_prime: 1 + rng.below(6),
        h_limit: 4,
        clock_cycles_per_ms: 1000.0 * rng.scale(&SCALES),
        xfer_alpha_ms: 0.1 * rng.scale(&SCALES),
        xfer_beta_ms_per_word: 0.001 * rng.scale(&SCALES),
        sync_ms: 0.05,
        ..GpuSpec::gtx650_like()
    };
    let mut spec = ClusterSpec::homogeneous(n, device(rng));
    for d in 0..n {
        spec.devices[d] = device(rng);
        spec.host_links[d] = spec.devices[d].host_link();
        for s in (0..n).filter(|&s| s != d) {
            spec.peer_links[s][d] = spec.peer_links[s][d].scaled(rng.scale(&SCALES));
        }
    }
    spec
}

/// `rounds` independent slabs of vector addition, each sharded by
/// `counts` (blocks per device, some possibly zero).
fn slabbed_vecadd(counts: &[u64], rounds: u64, b: u64) -> (Program, HBuf) {
    let shards = counts_to_shards(counts);
    let slab_blocks: u64 = counts.iter().sum();
    let (slab, bi) = (slab_blocks * b, b as i64);
    let n = slab * rounds;
    let mut pb = ProgramBuilder::new("vecadd_slabbed");
    let ha = pb.host_input("A", n);
    let hb = pb.host_input("B", n);
    let hc = pb.host_output("C", n);
    let da = pb.device_alloc("a", n);
    let db = pb.device_alloc("b", n);
    let dc = pb.device_alloc("c", n);
    for r in 0..rounds {
        let off0 = r * slab;
        pb.begin_round();
        for s in &shards {
            let (off, words) = (off0 + s.start * b, s.blocks() * b);
            pb.transfer_in_to(s.device, ha, off, da, off, words);
            pb.transfer_in_to(s.device, hb, off, db, off, words);
        }
        let mut kb = KernelBuilder::new(format!("vecadd_slab{r}"), slab_blocks, 3 * b);
        let g = AddrExpr::block() * bi + AddrExpr::lane() + off0 as i64;
        kb.glb_to_shr(AddrExpr::lane(), da, g.clone());
        kb.glb_to_shr(AddrExpr::lane() + bi, db, g.clone());
        kb.ld_shr(0, AddrExpr::lane());
        kb.ld_shr(1, AddrExpr::lane() + bi);
        kb.alu(AluOp::Add, 2, Operand::Reg(0), Operand::Reg(1));
        kb.st_shr(AddrExpr::lane() + 2 * bi, Operand::Reg(2));
        kb.shr_to_glb(dc, g, AddrExpr::lane() + 2 * bi);
        pb.launch_sharded(kb.build(), shards.clone());
        for s in &shards {
            let (off, words) = (off0 + s.start * b, s.blocks() * b);
            pb.transfer_out_from(s.device, dc, off, hc, off, words);
        }
    }
    (pb.build().unwrap(), hc)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn survivors_run_their_shard_plus_the_model_takeover(seed in 0u64..1_000_000_000) {
        let mut rng = Rng(seed | 1);
        let machine = machine();
        let cluster = random_cluster(&mut rng);
        let n = cluster.n_devices();
        // An uneven plan; one device in four holds nothing.
        let mut own: Vec<u64> =
            (0..n).map(|_| if rng.below(4) == 0 { 0 } else { 1 + rng.below(24) }).collect();
        if own.iter().all(|&c| c == 0) {
            own[0] = 8;
        }
        let rounds = 2 + rng.below(3);
        let dead = rng.below(n as u64) as usize;
        let at_round = rng.below(rounds) as usize;

        let (program, hc) = slabbed_vecadd(&own, rounds, machine.b);
        let words = program.host_bufs[0].words as i64;
        let inputs = vec![(0..words).collect::<Vec<i64>>(), (0..words).map(|i| 3 * i + 1).collect()];
        let run = |fault: FaultPlan| {
            let sim = SimConfig { fault, ..SimConfig::default() };
            run_cluster_program(&program, inputs.clone(), &machine, &cluster, &sim).unwrap()
        };
        let base = run(FaultPlan::default());
        let mut fault = FaultPlan::new(seed);
        fault.push(FaultEvent::DeviceDown { device: dead as u32, at_round });
        let degraded = run(fault);
        prop_assert_eq!(degraded.output(hc), base.output(hc));

        let alive: Vec<bool> = (0..n).map(|d| d != dead).collect();
        let take = plan::takeover_units(&cluster, &machine, &alive, own[dead]);
        prop_assert_eq!(take.iter().sum::<u64>(), own[dead]);
        for (r, round) in degraded.rounds.iter().enumerate() {
            for d in 0..n {
                let expected = match (r >= at_round, d == dead) {
                    (false, _) => own[d],
                    (true, true) => 0,
                    (true, false) => own[d] + take[d],
                };
                prop_assert_eq!(
                    round.devices[d].kernel_stats.blocks, expected,
                    "round {} device {} (device {} dies at round {}, own {:?}, takeover {:?})",
                    r, d, dead, at_round, &own, &take
                );
            }
        }
    }
}
