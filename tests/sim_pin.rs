//! Bit-identity pin of the simulator's issue order: for every
//! `atgpu_algos::roster()` entry under `Plan::Single` and (where it
//! shards) `Plan::Even(3)`, on `gtx650_like` (`k′ = 2`, `ℓ ≤ 16`) and on a
//! `k′ = 5, H = 3` variant (odd MP count, non-power-of-two `ℓ`), every
//! [`KernelStats`] field of every launch — a round holds at most one, so
//! a `(round, device)` cell is one launch or one shard of it — and a hash
//! of the outputs.  `engine_differential` compares the two executors
//! *under the same scheduler* and the experiment goldens pin simulated
//! time mostly at `k′ = 2`; this table is what holds the schedule itself
//! still where a co-simulation tie-break bug would otherwise hide.  It
//! was generated at the commit before the issue loop was rebuilt (boxed
//! executors, keys in the tournament tree, run-to-horizon
//! co-simulation); a change meant only to speed the simulator up must
//! leave every row as it is (the `seq` column dates from when the table
//! also held a second execution mode's rows; it stays so the surviving
//! rows are byte for byte the generated ones).  On a mismatch the
//! failure message prints the actual table.
//!
//! The second test pins the watchdog's edge through `run_program`: a
//! budget of exactly the launch's `cycles` passes and one cycle less is
//! `SimError::Watchdog`.

use atgpu::algos::workload::Plan;
use atgpu::ir::{AddrExpr, AluOp, DBuf, Kernel, KernelBuilder, Operand, ProgramBuilder};
use atgpu::model::{AtgpuMachine, ClusterSpec, GpuSpec};
use atgpu::sim::{run_cluster_program, run_program, KernelStats, SimConfig, SimError};
use std::fmt::Write as _;

fn specs() -> [(&'static str, GpuSpec); 2] {
    let gtx = GpuSpec::gtx650_like();
    [("gtx650", gtx), ("k5h3", GpuSpec { k_prime: 5, h_limit: 3, ..gtx })]
}

fn fnv1a(words: impl Iterator<Item = i64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for byte in w.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn stats_row(s: &KernelStats) -> String {
    format!(
        "cycles={} instr={} compute={} shared={} global={} txns={} conflict={} stall={} \
         queue={} blocks={} occ={}",
        s.cycles,
        s.instructions,
        s.compute_instructions,
        s.shared_accesses,
        s.global_accesses,
        s.global_txns,
        s.bank_conflict_cycles,
        s.stall_cycles,
        s.dram_queue_cycles,
        s.blocks,
        s.occupancy
    )
}

fn cells() -> String {
    let machine = AtgpuMachine::gtx650_like();
    let mut out = String::new();
    for entry in atgpu::algos::roster() {
        let sharded = entry.workload.units(&machine).is_some();
        for (plan_name, devices) in [("single", None), ("even3", Some(3))] {
            if devices.is_some() && !sharded {
                continue;
            }
            let plan = devices.map_or(Plan::Single, Plan::Even);
            let cell = format!("{}/{plan_name}", entry.name);
            let built = entry
                .workload
                .build_plan(&machine, plan)
                .unwrap_or_else(|e| panic!("{cell} must build: {e}"));
            for (spec_name, spec) in specs() {
                let cluster = ClusterSpec::homogeneous(devices.unwrap_or(1) as usize, spec);
                let report = run_cluster_program(
                    &built.program,
                    built.inputs.clone(),
                    &machine,
                    &cluster,
                    &SimConfig::default(),
                )
                .unwrap_or_else(|e| panic!("{cell} on {spec_name}: {e}"));
                let row = format!("{cell}\t{spec_name}\tseq");
                for (r, round) in report.rounds.iter().enumerate() {
                    for (d, obs) in round.devices.iter().enumerate() {
                        if obs.kernel_stats != KernelStats::default() {
                            let stats = stats_row(&obs.kernel_stats);
                            writeln!(out, "{row}\tr{r}d{d}\t{stats}").expect("String write");
                        }
                    }
                }
                let words = built.outputs.iter().flat_map(|h| report.output(*h)).copied();
                writeln!(out, "{row}\tout\t{:016x}", fnv1a(words)).expect("String write");
            }
        }
    }
    out
}

#[test]
fn launch_statistics_match_the_pinned_table() {
    let actual = cells();
    let pinned = include_str!("sim_pin.tsv");
    assert!(
        actual == pinned,
        "simulated statistics differ from tests/sim_pin.tsv; actual table:\n{actual}"
    );
}

/// 23 blocks (not a multiple of either MP count) of two global copies
/// around a short divergent compute stretch: enough stalls that the last
/// retirement is a wake-up, not a back-to-back issue.
fn watchdog_kernel(b: i64) -> Kernel {
    let mut kb = KernelBuilder::new("watchdog_edge", 23, 2 * b as u64);
    let g = AddrExpr::block() * b + AddrExpr::lane();
    kb.glb_to_shr(AddrExpr::lane(), DBuf(0), g.clone());
    kb.ld_shr(0, AddrExpr::lane());
    kb.repeat(3, |kb| {
        kb.alu(AluOp::Add, 0, Operand::Reg(0), Operand::Block);
    });
    kb.st_shr(AddrExpr::lane() + b, Operand::Reg(0));
    kb.shr_to_glb(DBuf(1), g, AddrExpr::lane() + b);
    kb.build()
}

#[test]
fn watchdog_fires_one_cycle_short_of_the_launch_and_not_at_it() {
    let machine = AtgpuMachine::gtx650_like();
    let b = machine.b;
    let kernel = watchdog_kernel(b as i64);
    let words = kernel.blocks() * b;
    let mut pb = ProgramBuilder::new("watchdog_edge");
    pb.device_alloc("a", words);
    pb.device_alloc("o", words);
    pb.begin_round();
    pb.launch(kernel);
    let program = pb.build().unwrap();
    for (cell, spec) in specs() {
        let run = |watchdog_cycles: u64| {
            let config = SimConfig { watchdog_cycles, ..SimConfig::default() };
            run_program(&program, vec![], &machine, &spec, &config)
                .map(|report| report.rounds[0].kernel_stats)
        };
        let stats = run(0).unwrap();
        assert!(stats.cycles > 1 && stats.stall_cycles > 0, "{cell}: {stats:?}");

        assert_eq!(run(stats.cycles).as_ref().ok(), Some(&stats), "{cell}: budget = cycles");

        let short = run(stats.cycles - 1);
        assert!(
            matches!(short, Err(SimError::Watchdog { budget, .. }) if budget == stats.cycles - 1),
            "{cell}: budget = cycles - 1 gave {short:?}"
        );
    }
}
