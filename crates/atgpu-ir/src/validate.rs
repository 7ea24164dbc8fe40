//! Structural validation of kernels and programs.
//!
//! [`validate_kernel`] / [`validate_program`] check machine-independent
//! structure: register ranges, loop depth and scoping, the grid, buffer
//! references, transfer bounds, the model's round discipline (inward
//! transfers → one launch → outward transfers), and host-buffer
//! read/write roles.  [`validate_program`] is called by
//! [`Program::check`](crate::Program::check) alone: every door that runs
//! or prices a program calls `check`, which validates each program once
//! and keeps a witness, so no consumer re-states a rule of it.
//! [`validate_launch`] is what a bare kernel must satisfy to be lowered
//! and executed at all; the simulator checks it where a kernel enters
//! execution without a program (`Device::run_kernel`, a kernel-cache
//! miss).  The machine's limits are not checked here: `G`
//! against the padded buffer layout is the analyser's and the
//! simulator's, `M` against a kernel's shared words the analyser's and
//! the launch's (occupancy `ℓ = 0`).

use crate::error::IrError;
use crate::expr::Operand;
use crate::instr::Instr;
use crate::kernel::Kernel;
use crate::program::{HostBufRole, HostStep, Program};
use crate::{MAX_LOOP_DEPTH, MAX_REGS};

/// Validates one kernel: register range, loop depth, loop-variable
/// scoping, and a non-empty launch whose block count fits in a `u64`.
pub fn validate_kernel(k: &Kernel) -> Result<(), IrError> {
    check_kernel(k, usize::MAX)
}

/// [`validate_kernel`] for a launch over `buffers` device buffers: one
/// walk over the body, reporting in a fixed order — the grid, the highest
/// register, the deepest nesting, the first loop variable read outside
/// its loop, the first global access naming no launch buffer.
fn check_kernel(k: &Kernel, buffers: usize) -> Result<(), IrError> {
    if k.grid.0.checked_mul(k.grid.1).is_none() {
        return Err(IrError::GridOverflow { grid: k.grid, kernel: k.name.clone() });
    }
    if k.blocks() == 0 {
        return Err(IrError::ZeroBlocks { kernel: k.name.clone() });
    }
    let mut scan = Scan { buffers, ..Scan::default() };
    scan.body(&k.body, 0);
    if let Some(reg) = scan.max_reg.filter(|&r| r >= MAX_REGS) {
        return Err(IrError::RegisterOutOfRange { reg, kernel: k.name.clone() });
    }
    if scan.depth > MAX_LOOP_DEPTH {
        return Err(IrError::LoopTooDeep { depth: scan.depth, kernel: k.name.clone() });
    }
    if let Some((var, enclosing)) = scan.out_of_scope {
        return Err(IrError::LoopVarOutOfScope { var, enclosing, kernel: k.name.clone() });
    }
    match scan.unknown_buf {
        Some(buf) => Err(IrError::UnknownDeviceBuf { buf }),
        None => Ok(()),
    }
}

/// What one walk over a kernel body finds for [`check_kernel`].
#[derive(Default)]
struct Scan {
    /// Device buffers a global access may name.
    buffers: usize,
    /// Highest register any node names.
    max_reg: Option<crate::Reg>,
    /// Deepest loop nesting.
    depth: usize,
    /// The first loop variable read outside its loop, and how many loops
    /// enclosed the read.
    out_of_scope: Option<(u8, usize)>,
    /// The first buffer a global access names beyond `buffers`.
    unknown_buf: Option<u32>,
}

impl Scan {
    fn body(&mut self, body: &[Instr], depth: usize) {
        self.depth = self.depth.max(depth);
        for i in body {
            self.max_reg = self.max_reg.max(i.own_max_reg());
            match i {
                Instr::Alu { a, b, .. } => {
                    self.var(operand_loop_var(*a), depth);
                    self.var(operand_loop_var(*b), depth);
                }
                Instr::Mov { src, .. } => self.var(operand_loop_var(*src), depth),
                Instr::GlbToShr { shared, global } | Instr::ShrToGlb { global, shared } => {
                    self.var(shared.max_loop_var(), depth);
                    self.var(global.offset.max_loop_var(), depth);
                    if global.buf.0 as usize >= self.buffers && self.unknown_buf.is_none() {
                        self.unknown_buf = Some(global.buf.0);
                    }
                }
                Instr::LdShr { shared, .. } => self.var(shared.max_loop_var(), depth),
                Instr::StShr { shared, src } => {
                    self.var(shared.max_loop_var(), depth);
                    self.var(operand_loop_var(*src), depth);
                }
                Instr::Pred { pred, then_body, else_body } => {
                    let (a, b) = pred.operands();
                    self.var(operand_loop_var(a), depth);
                    self.var(operand_loop_var(b), depth);
                    self.body(then_body, depth);
                    self.body(else_body, depth);
                }
                Instr::Repeat { body, .. } => self.body(body, depth + 1),
                Instr::Sync => {}
            }
        }
    }

    /// Notes a read of loop variable `v` under `depth` enclosing loops.
    fn var(&mut self, v: Option<u8>, depth: usize) {
        match v {
            Some(d) if d as usize >= depth && self.out_of_scope.is_none() => {
                self.out_of_scope = Some((d, depth));
            }
            _ => {}
        }
    }
}

fn operand_loop_var(op: Operand) -> Option<u8> {
    match op {
        Operand::LoopVar(d) => Some(d),
        _ => None,
    }
}

/// Validates a whole program: every kernel, buffer references, transfer
/// bounds, round step discipline, and host buffer roles (inputs are
/// read-only; outputs must be written before being read).
pub fn validate_program(p: &Program) -> Result<(), IrError> {
    if p.rounds.is_empty() {
        return Err(IrError::EmptyProgram);
    }

    // Output buffers become readable once written.
    let mut host_written = vec![false; p.host_bufs.len()];

    for (ri, round) in p.rounds.iter().enumerate() {
        // Round discipline: in-transfers (phase 0) -> launch (1) -> out (2).
        let mut phase = 0u8;
        let mut launches = 0usize;
        for step in &round.steps {
            match step {
                HostStep::TransferIn { host, host_off, dev, dev_off, words, device: _, stream } => {
                    check_stream(*stream, ri)?;
                    if phase > 0 {
                        return Err(IrError::StepOrder {
                            round: ri,
                            reason: "host→device transfer after the kernel launch; the model \
                                     transfers inward only at the start of a round"
                                .into(),
                        });
                    }
                    let hb =
                        p.host_buf_words(*host).ok_or(IrError::UnknownHostBuf { buf: host.0 })?;
                    let db =
                        p.device_buf_words(*dev).ok_or(IrError::UnknownDeviceBuf { buf: dev.0 })?;
                    check_range("host", &p.host_bufs[host.0 as usize].name, *host_off, *words, hb)?;
                    check_range(
                        "device",
                        &p.device_allocs[dev.0 as usize].name,
                        *dev_off,
                        *words,
                        db,
                    )?;
                    let decl = &p.host_bufs[host.0 as usize];
                    if decl.role == HostBufRole::Output && !host_written[host.0 as usize] {
                        return Err(IrError::HostBufRole {
                            reason: format!(
                                "round {ri} reads host output buffer `{}` before any \
                                 device→host transfer wrote it",
                                decl.name
                            ),
                        });
                    }
                }
                HostStep::TransferPeer { src, dst, buf, src_off, dst_off, words } => {
                    // Peer copies may appear anywhere in the round (they
                    // distribute inputs before the launch or gather
                    // results after it) and do not advance the phase.
                    if src == dst {
                        return Err(IrError::StepOrder {
                            round: ri,
                            reason: format!("peer transfer from device {src} to itself"),
                        });
                    }
                    let db =
                        p.device_buf_words(*buf).ok_or(IrError::UnknownDeviceBuf { buf: buf.0 })?;
                    let name = &p.device_allocs[buf.0 as usize].name;
                    check_range("device", name, *src_off, *words, db)?;
                    check_range("device", name, *dst_off, *words, db)?;
                }
                HostStep::Launch(k) => {
                    check_launch(k, p, ri, &mut launches, &mut phase)?;
                }
                HostStep::LaunchSharded { kernel, shards } => {
                    check_shard_plan(kernel, shards, ri)?;
                    check_launch(kernel, p, ri, &mut launches, &mut phase)?;
                }
                HostStep::SyncStream { device: _, stream } => {
                    // Syncs are pure ordering points: they may appear
                    // anywhere in the round and do not advance the phase.
                    check_stream(*stream, ri)?;
                }
                HostStep::SyncDevice { .. } => {}
                HostStep::TransferOut {
                    dev,
                    dev_off,
                    host,
                    host_off,
                    words,
                    device: _,
                    stream,
                } => {
                    check_stream(*stream, ri)?;
                    phase = 2;
                    let hb =
                        p.host_buf_words(*host).ok_or(IrError::UnknownHostBuf { buf: host.0 })?;
                    let db =
                        p.device_buf_words(*dev).ok_or(IrError::UnknownDeviceBuf { buf: dev.0 })?;
                    check_range("host", &p.host_bufs[host.0 as usize].name, *host_off, *words, hb)?;
                    check_range(
                        "device",
                        &p.device_allocs[dev.0 as usize].name,
                        *dev_off,
                        *words,
                        db,
                    )?;
                    let decl = &p.host_bufs[host.0 as usize];
                    if decl.role == HostBufRole::Input {
                        return Err(IrError::HostBufRole {
                            reason: format!("round {ri} writes host input buffer `{}`", decl.name),
                        });
                    }
                    host_written[host.0 as usize] = true;
                }
            }
        }
    }
    Ok(())
}

/// Round-discipline and kernel checks shared by plain and sharded
/// launches: one launch per round, never after an outward transfer.
fn check_launch(
    k: &Kernel,
    p: &Program,
    round: usize,
    launches: &mut usize,
    phase: &mut u8,
) -> Result<(), IrError> {
    *launches += 1;
    if *launches > 1 {
        return Err(IrError::MultipleLaunches { round });
    }
    if *phase > 1 {
        return Err(IrError::StepOrder {
            round,
            reason: "kernel launch after a device→host transfer; the model \
                     transfers outward only at the end of a round"
                .into(),
        });
    }
    *phase = 1;
    validate_launch(k, p.device_allocs.len())
}

/// A shard plan must partition the grid `0..kernel.blocks()` into
/// non-empty disjoint ranges.  On failure the error carries the full
/// structured diagnosis from [`shard_plan_error`].
fn check_shard_plan(
    kernel: &Kernel,
    shards: &[crate::program::Shard],
    round: usize,
) -> Result<(), IrError> {
    match shard_plan_error(kernel.blocks(), shards) {
        None => Ok(()),
        Some(detail) => Err(IrError::BadShardPlan { kernel: kernel.name.clone(), round, detail }),
    }
}

/// Diagnoses a shard plan against a grid of `blocks` blocks.  Returns
/// `None` for an exact partition, otherwise the structured reason.
///
/// A boundary sweep over every shard edge computes the coverage depth
/// of each elementary segment, then classifies and coalesces them:
/// in-grid segments of depth 0 are *missing*, depth ≥ 2 *overlapping*,
/// and any claimed segment at or past `blocks` is *out of grid* — all
/// of them reported, not just the first.
pub fn shard_plan_error(
    blocks: u64,
    shards: &[crate::program::Shard],
) -> Option<crate::error::ShardPlanError> {
    use crate::error::ShardPlanError;
    if shards.is_empty() {
        return Some(ShardPlanError::NoShards);
    }
    let empty: Vec<(u32, u64, u64)> =
        shards.iter().filter(|s| s.end <= s.start).map(|s| (s.device, s.start, s.end)).collect();
    if !empty.is_empty() {
        return Some(ShardPlanError::EmptyShards { shards: empty });
    }
    // Coverage-depth sweep: +1 at each start, −1 at each end, evaluated
    // over the elementary segments between consecutive boundaries.
    let mut bounds: Vec<u64> = vec![0, blocks];
    for s in shards {
        bounds.push(s.start);
        bounds.push(s.end);
    }
    bounds.sort_unstable();
    bounds.dedup();
    let mut missing: Vec<(u64, u64)> = Vec::new();
    let mut overlapping: Vec<(u64, u64)> = Vec::new();
    let mut out_of_grid: Vec<(u64, u64)> = Vec::new();
    let extend = |list: &mut Vec<(u64, u64)>, lo: u64, hi: u64| match list.last_mut() {
        Some(last) if last.1 == lo => last.1 = hi,
        _ => list.push((lo, hi)),
    };
    for w in bounds.windows(2) {
        let (lo, hi) = (w[0], w[1]);
        let depth = shards.iter().filter(|s| s.start <= lo && lo < s.end).count();
        if lo >= blocks {
            if depth >= 1 {
                extend(&mut out_of_grid, lo, hi);
            }
        } else if depth == 0 {
            extend(&mut missing, lo, hi);
        } else if depth >= 2 {
            extend(&mut overlapping, lo, hi);
        }
    }
    if missing.is_empty() && overlapping.is_empty() && out_of_grid.is_empty() {
        None
    } else {
        Some(ShardPlanError::BadCoverage { blocks, missing, overlapping, out_of_grid })
    }
}

fn check_stream(stream: u32, round: usize) -> Result<(), IrError> {
    if stream >= crate::MAX_STREAMS {
        return Err(IrError::StreamOutOfRange { stream, round });
    }
    Ok(())
}

fn check_range(kind: &str, name: &str, off: u64, words: u64, size: u64) -> Result<(), IrError> {
    let end = off.checked_add(words).ok_or_else(|| IrError::TransferOutOfBounds {
        what: format!("{kind} {name}"),
        end: u64::MAX,
        size,
    })?;
    if end > size {
        return Err(IrError::TransferOutOfBounds { what: format!("{kind} {name}"), end, size });
    }
    Ok(())
}

/// Validates `k` for a launch over `buffers` device buffers:
/// [`validate_kernel`], and every global access names one of them.
pub fn validate_launch(k: &Kernel, buffers: usize) -> Result<(), IrError> {
    check_kernel(k, buffers)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use crate::builder::{KernelBuilder, ProgramBuilder};
    use crate::expr::{AddrExpr, PredExpr};
    use crate::instr::AluOp;

    fn trivial_kernel(blocks: u64) -> Kernel {
        KernelBuilder::new("k", blocks, 0).build()
    }

    #[test]
    fn zero_block_launch_rejected() {
        assert!(matches!(validate_kernel(&trivial_kernel(0)), Err(IrError::ZeroBlocks { .. })));
    }

    #[test]
    fn exact_partition_has_no_shard_plan_error() {
        use crate::program::Shard;
        let shards = vec![
            Shard { device: 1, start: 4, end: 8 },
            Shard { device: 0, start: 0, end: 4 }, // order does not matter
        ];
        assert_eq!(shard_plan_error(8, &shards), None);
    }

    #[test]
    fn no_shards_diagnosed() {
        assert_eq!(shard_plan_error(8, &[]), Some(crate::error::ShardPlanError::NoShards));
    }

    #[test]
    fn empty_shards_listed_with_devices() {
        use crate::error::ShardPlanError;
        use crate::program::Shard;
        let shards = vec![
            Shard { device: 0, start: 0, end: 4 },
            Shard { device: 1, start: 4, end: 4 },
            Shard { device: 2, start: 6, end: 5 },
        ];
        assert_eq!(
            shard_plan_error(8, &shards),
            Some(ShardPlanError::EmptyShards { shards: vec![(1, 4, 4), (2, 6, 5)] })
        );
    }

    #[test]
    fn coverage_errors_report_every_bad_range() {
        use crate::error::ShardPlanError;
        use crate::program::Shard;
        // Grid of 12: [0,3) covered once, [3,5) missing, [5,7) covered
        // once, [7,9) twice, [9,12) missing, and [12,14) past the grid.
        let shards = vec![
            Shard { device: 0, start: 0, end: 3 },
            Shard { device: 1, start: 5, end: 9 },
            Shard { device: 2, start: 7, end: 9 },
            Shard { device: 3, start: 12, end: 14 },
        ];
        match shard_plan_error(12, &shards) {
            Some(ShardPlanError::BadCoverage { blocks, missing, overlapping, out_of_grid }) => {
                assert_eq!(blocks, 12);
                assert_eq!(missing, vec![(3, 5), (9, 12)]);
                assert_eq!(overlapping, vec![(7, 9)]);
                assert_eq!(out_of_grid, vec![(12, 14)]);
            }
            other => panic!("expected BadCoverage, got {other:?}"),
        }
    }

    #[test]
    fn shard_straddling_the_grid_end_splits_into_out_of_grid() {
        use crate::error::ShardPlanError;
        use crate::program::Shard;
        // One shard covers the whole grid and three blocks past it.
        let shards = vec![Shard { device: 0, start: 0, end: 11 }];
        match shard_plan_error(8, &shards) {
            Some(ShardPlanError::BadCoverage { missing, overlapping, out_of_grid, .. }) => {
                assert!(missing.is_empty());
                assert!(overlapping.is_empty());
                assert_eq!(out_of_grid, vec![(8, 11)]);
            }
            other => panic!("expected BadCoverage, got {other:?}"),
        }
    }

    #[test]
    fn bad_shard_plan_error_names_kernel_and_round() {
        use crate::program::Shard;
        let mut pb = ProgramBuilder::new("p");
        let _ = pb.device_alloc("a", 64);
        pb.begin_round();
        pb.launch_sharded(
            KernelBuilder::new("k", 8, 0).build(),
            vec![Shard { device: 0, start: 0, end: 6 }],
        );
        let err = pb.build().unwrap_err();
        match &err {
            IrError::BadShardPlan { kernel, round: 0, detail } => {
                assert_eq!(kernel, "k");
                assert!(matches!(
                    detail,
                    crate::error::ShardPlanError::BadCoverage { missing, .. }
                        if missing == &vec![(6, 8)]
                ));
            }
            other => panic!("expected BadShardPlan, got {other:?}"),
        }
        let msg = err.to_string();
        assert!(msg.contains("uncovered: [6, 8)"), "{msg}");
    }

    #[test]
    fn register_out_of_range_rejected() {
        let mut kb = KernelBuilder::new("k", 1, 0);
        kb.mov(MAX_REGS, Operand::Imm(0));
        assert!(matches!(
            validate_kernel(&kb.build()),
            Err(IrError::RegisterOutOfRange { reg, .. }) if reg == MAX_REGS
        ));
    }

    /// One walk finds every fault and reports them in a fixed order:
    /// the highest register, then the deepest nesting, then the first
    /// out-of-scope loop variable in program order, then the first
    /// unknown buffer.
    #[test]
    fn faults_are_reported_in_a_fixed_order() {
        let build = |reg: bool, deep: bool, scope: bool| {
            let mut kb = KernelBuilder::new("k", 1, 8);
            if scope {
                kb.mov(0, Operand::LoopVar(2));
                kb.mov(0, Operand::LoopVar(1));
            }
            kb.glb_to_shr(AddrExpr::lane(), crate::DBuf(3), AddrExpr::lane());
            kb.glb_to_shr(AddrExpr::lane(), crate::DBuf(5), AddrExpr::lane());
            let depth = if deep { 6 } else { 1 };
            fn nest(kb: &mut KernelBuilder, left: usize, reg: bool) {
                if left == 0 {
                    kb.mov(if reg { MAX_REGS + 2 } else { 1 }, Operand::Imm(0));
                    return;
                }
                kb.repeat(1, |kb| nest(kb, left - 1, reg));
            }
            nest(&mut kb, depth, reg);
            if reg {
                kb.mov(MAX_REGS, Operand::Imm(0));
            }
            kb.build()
        };
        let err = |k: &Kernel| validate_launch(k, 2).unwrap_err();
        let max = MAX_REGS + 2;
        assert!(
            matches!(err(&build(true, true, true)), IrError::RegisterOutOfRange { reg, .. } if reg == max)
        );
        assert!(matches!(err(&build(false, true, true)), IrError::LoopTooDeep { depth: 6, .. }));
        assert!(matches!(
            err(&build(false, false, true)),
            IrError::LoopVarOutOfScope { var: 2, enclosing: 0, .. }
        ));
        assert!(matches!(err(&build(false, false, false)), IrError::UnknownDeviceBuf { buf: 3 }));
        assert!(validate_kernel(&build(false, false, false)).is_ok());
        assert!(validate_launch(&build(false, false, false), 6).is_ok());
    }

    #[test]
    fn loop_var_out_of_scope_rejected() {
        let mut kb = KernelBuilder::new("k", 1, 0);
        kb.mov(0, Operand::LoopVar(0)); // not inside any loop
        assert!(matches!(
            validate_kernel(&kb.build()),
            Err(IrError::LoopVarOutOfScope { var: 0, enclosing: 0, .. })
        ));
    }

    #[test]
    fn loop_var_in_scope_accepted() {
        let mut kb = KernelBuilder::new("k", 1, 0);
        kb.repeat(4, |kb| {
            kb.mov(0, Operand::LoopVar(0));
        });
        validate_kernel(&kb.build()).unwrap();
    }

    #[test]
    fn inner_loop_var_needs_inner_loop() {
        let mut kb = KernelBuilder::new("k", 1, 0);
        kb.repeat(4, |kb| {
            kb.mov(0, Operand::LoopVar(1)); // depth 1 not open
        });
        assert!(validate_kernel(&kb.build()).is_err());
    }

    #[test]
    fn loop_var_in_address_checked() {
        let mut kb = KernelBuilder::new("k", 1, 8);
        kb.ld_shr(0, AddrExpr::loop_var(0)); // outside loop
        assert!(validate_kernel(&kb.build()).is_err());
    }

    #[test]
    fn loop_var_in_pred_checked() {
        let mut kb = KernelBuilder::new("k", 1, 0);
        kb.when(PredExpr::Lt(Operand::LoopVar(0), Operand::Imm(1)), |_| {});
        assert!(validate_kernel(&kb.build()).is_err());
    }

    #[test]
    fn too_deep_nesting_rejected() {
        let mut kb = KernelBuilder::new("k", 1, 0);
        kb.repeat(1, |kb| {
            kb.repeat(1, |kb| {
                kb.repeat(1, |kb| {
                    kb.repeat(1, |kb| {
                        kb.repeat(1, |kb| {
                            kb.sync();
                        });
                    });
                });
            });
        });
        assert!(matches!(validate_kernel(&kb.build()), Err(IrError::LoopTooDeep { depth: 5, .. })));
    }

    fn valid_program() -> ProgramBuilder {
        let mut pb = ProgramBuilder::new("p");
        let h = pb.host_input("A", 64);
        let o = pb.host_output("C", 64);
        let d = pb.device_alloc("a", 64);
        pb.begin_round();
        pb.transfer_in(h, d, 64);
        pb.launch(trivial_kernel(1));
        pb.transfer_out(d, o, 64);
        pb.end_round();
        pb
    }

    #[test]
    fn valid_program_passes() {
        valid_program().build().unwrap();
    }

    #[test]
    fn empty_program_rejected() {
        assert!(matches!(ProgramBuilder::new("p").build(), Err(IrError::EmptyProgram)));
    }

    #[test]
    fn transfer_in_after_launch_rejected() {
        let mut pb = ProgramBuilder::new("p");
        let h = pb.host_input("A", 64);
        let d = pb.device_alloc("a", 64);
        pb.begin_round();
        pb.launch(trivial_kernel(1));
        pb.transfer_in(h, d, 64);
        assert!(matches!(pb.build(), Err(IrError::StepOrder { .. })));
    }

    #[test]
    fn launch_after_transfer_out_rejected() {
        let mut pb = ProgramBuilder::new("p");
        let o = pb.host_output("C", 64);
        let d = pb.device_alloc("a", 64);
        pb.begin_round();
        pb.transfer_out(d, o, 64);
        pb.launch(trivial_kernel(1));
        assert!(matches!(pb.build(), Err(IrError::StepOrder { .. })));
    }

    #[test]
    fn two_launches_rejected() {
        let mut pb = ProgramBuilder::new("p");
        let _ = pb.device_alloc("a", 64);
        pb.begin_round();
        pb.launch(trivial_kernel(1));
        pb.launch(trivial_kernel(1));
        assert!(matches!(pb.build(), Err(IrError::MultipleLaunches { round: 0 })));
    }

    #[test]
    fn transfer_overruns_device_buffer() {
        let mut pb = ProgramBuilder::new("p");
        let h = pb.host_input("A", 128);
        let d = pb.device_alloc("a", 64);
        pb.begin_round();
        pb.transfer_in(h, d, 128);
        assert!(matches!(pb.build(), Err(IrError::TransferOutOfBounds { .. })));
    }

    #[test]
    fn transfer_overruns_host_buffer() {
        let mut pb = ProgramBuilder::new("p");
        let h = pb.host_input("A", 32);
        let d = pb.device_alloc("a", 64);
        pb.begin_round();
        pb.transfer_in_at(h, 16, d, 0, 32); // 16+32 > 32
        assert!(matches!(pb.build(), Err(IrError::TransferOutOfBounds { .. })));
    }

    #[test]
    fn writing_input_buffer_rejected() {
        let mut pb = ProgramBuilder::new("p");
        let h = pb.host_input("A", 64);
        let d = pb.device_alloc("a", 64);
        pb.begin_round();
        pb.transfer_out(d, h, 64);
        assert!(matches!(pb.build(), Err(IrError::HostBufRole { .. })));
    }

    #[test]
    fn reading_unwritten_output_rejected() {
        let mut pb = ProgramBuilder::new("p");
        let o = pb.host_output("C", 64);
        let d = pb.device_alloc("a", 64);
        pb.begin_round();
        pb.transfer_in(o, d, 64);
        assert!(matches!(pb.build(), Err(IrError::HostBufRole { .. })));
    }

    #[test]
    fn output_readable_after_write() {
        // Round 1 writes C; round 2 may stage it back in (out-of-core
        // algorithms round-trip through the host like this).
        let mut pb = ProgramBuilder::new("p");
        let o = pb.host_output("C", 64);
        let d = pb.device_alloc("a", 64);
        pb.begin_round();
        pb.launch(trivial_kernel(1));
        pb.transfer_out(d, o, 64);
        pb.begin_round();
        pb.transfer_in(o, d, 64);
        pb.launch(trivial_kernel(1));
        pb.build().unwrap();
    }

    #[test]
    fn stream_out_of_range_rejected() {
        let mut pb = ProgramBuilder::new("p");
        let h = pb.host_input("A", 64);
        let d = pb.device_alloc("a", 64);
        pb.begin_round();
        pb.transfer_in_streamed(0, crate::MAX_STREAMS, h, 0, d, 0, 64);
        pb.launch(trivial_kernel(1));
        assert!(matches!(pb.build(), Err(IrError::StreamOutOfRange { .. })));

        let mut pb = ProgramBuilder::new("p");
        let _ = pb.device_alloc("a", 64);
        pb.begin_round();
        pb.sync_stream(0, crate::MAX_STREAMS + 3);
        pb.launch(trivial_kernel(1));
        assert!(matches!(pb.build(), Err(IrError::StreamOutOfRange { .. })));
    }

    #[test]
    fn streamed_round_with_syncs_validates() {
        // The double-buffering shape: next chunk's H2D on stream 1 before
        // this chunk's launch, syncs sprinkled anywhere.
        let mut pb = ProgramBuilder::new("p");
        let h = pb.host_input("A", 64);
        let o = pb.host_output("C", 64);
        let d = pb.device_alloc("a", 64);
        pb.begin_round();
        pb.transfer_in_streamed(0, 1, h, 0, d, 0, 32);
        pb.sync_stream(0, 1);
        pb.launch(trivial_kernel(1));
        pb.sync_device(0);
        pb.transfer_out_streamed(0, 0, d, 0, o, 0, 32);
        let p = pb.build().unwrap();
        assert!(p.uses_streams());
        // Its de-streamed form validates too.
        validate_program(&p.destreamed()).unwrap();
    }

    #[test]
    fn kernel_referencing_unknown_buffer_rejected() {
        let mut pb = ProgramBuilder::new("p");
        let _ = pb.device_alloc("a", 64);
        let mut kb = KernelBuilder::new("k", 1, 32);
        kb.glb_to_shr(AddrExpr::lane(), crate::program::DBuf(7), AddrExpr::lane());
        pb.begin_round();
        pb.launch(kb.build());
        assert!(matches!(pb.build(), Err(IrError::UnknownDeviceBuf { buf: 7 })));
    }

    #[test]
    fn alu_loop_var_checked_in_pred_arms() {
        let mut kb = KernelBuilder::new("k", 1, 0);
        kb.when(PredExpr::Lt(Operand::Lane, Operand::Imm(1)), |kb| {
            kb.alu(AluOp::Add, 0, Operand::LoopVar(0), Operand::Imm(1));
        });
        assert!(validate_kernel(&kb.build()).is_err());
    }
}
