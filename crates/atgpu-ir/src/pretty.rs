//! Renders programs back into the paper's pseudocode notation.
//!
//! The paper's conventions (§II, *Notation for Pseudocode*):
//!
//! * host variables are capitalised, global variables lower-case, shared
//!   variables prefixed with an underscore;
//! * `W` is host↔device transfer, `⇐` global↔shared access, `←` shared/
//!   register access;
//! * every kernel is wrapped in the parallel wrapper loop over
//!   `mpρ ∈ MP` and `cρ,ε ∈ Cρ`.

use crate::instr::Instr;
use crate::kernel::Kernel;
use crate::program::{HostBufRole, HostStep, Program};
use std::fmt::Write as _;

/// Line-numbered pseudocode emitter.
struct Renderer {
    out: String,
    line: usize,
}

impl Renderer {
    fn new() -> Self {
        Self { out: String::new(), line: 1 }
    }

    fn raw(&mut self, text: &str) {
        let _ = writeln!(self.out, "{text}");
    }

    fn emit(&mut self, indent: usize, text: &str) {
        let _ = writeln!(self.out, "{:3}: {:indent$}{text}", self.line, "", indent = indent * 2);
        self.line += 1;
    }

    /// Renders a kernel body.  `idx` is the stable pre-order
    /// instruction counter: every [`Instr`] node — including `if`/`for`
    /// headers and `sync` — consumes one index, children numbered after
    /// their parent, as [`crate::lanemask::walk`] numbers them.  The
    /// `▷ #N` annotations match the `kernel@instr#N` indices in verifier
    /// diagnostics, so a reported site can be located in the printout by
    /// eye.
    fn instrs(
        &mut self,
        body: &[Instr],
        p: &Program,
        indent: usize,
        loop_depth: usize,
        idx: &mut usize,
    ) {
        for i in body {
            let n = *idx;
            *idx += 1;
            match i {
                Instr::Pred { pred, then_body, else_body } => {
                    self.emit(indent, &format!("if {pred} then  ▷ #{n}"));
                    self.instrs(then_body, p, indent + 1, loop_depth, idx);
                    if !else_body.is_empty() {
                        self.emit(indent, "else");
                        self.instrs(else_body, p, indent + 1, loop_depth, idx);
                    }
                    self.emit(indent, "end if");
                }
                Instr::Repeat { count, body } => {
                    self.emit(indent, &format!("for t{loop_depth} = 0 → {count} do  ▷ #{n}"));
                    self.instrs(body, p, indent + 1, loop_depth + 1, idx);
                    self.emit(indent, "end for");
                }
                Instr::GlbToShr { shared, global } => {
                    let name = buf_name(p, global.buf.0);
                    self.emit(indent, &format!("_s[{shared}] ⇐ {name}[{}]  ▷ #{n}", global.offset));
                }
                Instr::ShrToGlb { global, shared } => {
                    let name = buf_name(p, global.buf.0);
                    self.emit(indent, &format!("{name}[{}] ⇐ _s[{shared}]  ▷ #{n}", global.offset));
                }
                other => self.emit(indent, &format!("{other}  ▷ #{n}")),
            }
        }
    }

    fn kernel(&mut self, k: &Kernel, p: &Program, indent: usize) {
        self.emit(
            indent,
            &format!(
                "for all mpρ ∈ MP[mp0, …, mp{}] in parallel do  ▷ {}",
                k.blocks().saturating_sub(1),
                k.name
            ),
        );
        self.emit(indent + 1, "for all cρ,ε ∈ Cρ in parallel do");
        let mut idx = 0;
        self.instrs(&k.body, p, indent + 2, 0, &mut idx);
        self.emit(indent + 1, "end for");
        self.emit(indent, "end for");
    }
}

/// Renders a whole program — header, transfers (`W`), wrapper loops and
/// kernel bodies — as paper-style pseudocode.
pub fn render_program(p: &Program) -> String {
    let mut r = Renderer::new();
    r.raw(&format!("Pseudocode {}", p.name));
    let inputs: Vec<String> = p
        .host_bufs
        .iter()
        .filter(|b| b.role == HostBufRole::Input)
        .map(|b| format!("{} ({} words)", b.name, b.words))
        .collect();
    let outputs: Vec<String> = p
        .host_bufs
        .iter()
        .filter(|b| b.role == HostBufRole::Output)
        .map(|b| format!("{} ({} words)", b.name, b.words))
        .collect();
    if !inputs.is_empty() {
        r.raw(&format!("Input: {}", inputs.join(", ")));
    }
    if !outputs.is_empty() {
        r.raw(&format!("Output: {}", outputs.join(", ")));
    }

    for (ri, round) in p.rounds.iter().enumerate() {
        if p.rounds.len() > 1 {
            r.raw(&format!("▷ Round {}", ri + 1));
        }
        for step in &round.steps {
            match step {
                HostStep::TransferIn { host, host_off, dev, dev_off, words, device, stream } => {
                    let h = &p.host_bufs[host.0 as usize].name;
                    let d = &p.device_allocs[dev.0 as usize].name;
                    let at = site_tag(*device, *stream);
                    let text = if *host_off == 0 && *dev_off == 0 {
                        format!("{d}{at} W {h}  ▷ transfer {words} words to device")
                    } else {
                        format!(
                            "{d}{at}[{dev_off}..] W {h}[{host_off}..]  ▷ transfer {words} words to device"
                        )
                    };
                    r.emit(0, &text);
                }
                HostStep::TransferOut { dev, dev_off, host, host_off, words, device, stream } => {
                    let h = &p.host_bufs[host.0 as usize].name;
                    let d = &p.device_allocs[dev.0 as usize].name;
                    let at = site_tag(*device, *stream);
                    let text = if *host_off == 0 && *dev_off == 0 {
                        format!("{h} W {d}{at}  ▷ transfer {words} words to host")
                    } else {
                        format!(
                            "{h}[{host_off}..] W {d}{at}[{dev_off}..]  ▷ transfer {words} words to host"
                        )
                    };
                    r.emit(0, &text);
                }
                HostStep::SyncStream { device, stream } => {
                    r.emit(0, &format!("sync stream s{stream}{}", site_tag(*device, 0)));
                }
                HostStep::SyncDevice { device } => {
                    r.emit(0, &format!("sync device{}", site_tag(*device, 0)));
                }
                HostStep::TransferPeer { src, dst, buf, src_off, dst_off, words } => {
                    let d = &p.device_allocs[buf.0 as usize].name;
                    r.emit(
                        0,
                        &format!(
                            "{d}@gpu{dst}[{dst_off}..] W {d}@gpu{src}[{src_off}..]  \
                             ▷ peer-transfer {words} words"
                        ),
                    );
                }
                HostStep::Launch(k) => r.kernel(k, p, 0),
                HostStep::LaunchSharded { kernel: k, shards } => {
                    let plan: Vec<String> = shards
                        .iter()
                        .map(|s| format!("gpu{}: i ∈ [{}, {})", s.device, s.start, s.end))
                        .collect();
                    r.emit(0, &format!("▷ sharded launch: {}", plan.join(", ")));
                    r.kernel(k, p, 0);
                }
            }
        }
    }
    r.out
}

/// Renders one kernel (with the wrapper loop) as pseudocode.
pub fn render_kernel(k: &Kernel, p: &Program) -> String {
    let mut r = Renderer::new();
    r.kernel(k, p, 0);
    r.out
}

/// Device/stream suffix for a transfer site: nothing for the default
/// device 0 / stream 0, `@gpu2`, `@s1`, or `@gpu2.s1`.
fn site_tag(device: u32, stream: u32) -> String {
    match (device, stream) {
        (0, 0) => String::new(),
        (d, 0) => format!("@gpu{d}"),
        (0, s) => format!("@s{s}"),
        (d, s) => format!("@gpu{d}.s{s}"),
    }
}

fn buf_name(p: &Program, id: u32) -> String {
    p.device_allocs.get(id as usize).map(|a| a.name.clone()).unwrap_or_else(|| format!("d{id}"))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use crate::builder::{KernelBuilder, ProgramBuilder};
    use crate::expr::{AddrExpr, Operand, PredExpr};
    use crate::instr::AluOp;

    fn vecadd_like() -> (Program, Kernel) {
        let mut pb = ProgramBuilder::new("vecadd");
        let ha = pb.host_input("A", 64);
        let hc = pb.host_output("C", 64);
        let da = pb.device_alloc("a", 64);
        let dc = pb.device_alloc("c", 64);
        let mut kb = KernelBuilder::new("vecadd_kernel", 2, 64);
        kb.glb_to_shr(AddrExpr::lane(), da, AddrExpr::block() * 32 + AddrExpr::lane());
        kb.ld_shr(0, AddrExpr::lane());
        kb.alu(AluOp::Add, 0, Operand::Reg(0), Operand::Imm(1));
        kb.st_shr(AddrExpr::lane() + 32, Operand::Reg(0));
        kb.shr_to_glb(dc, AddrExpr::block() * 32 + AddrExpr::lane(), AddrExpr::lane() + 32);
        let k = kb.build();
        pb.begin_round();
        pb.transfer_in(ha, da, 64);
        pb.launch(k.clone());
        pb.transfer_out(dc, hc, 64);
        let p = pb.build().unwrap();
        (p, k)
    }

    #[test]
    fn kernel_renders_wrapper_loop() {
        let (p, k) = vecadd_like();
        let s = render_kernel(&k, &p);
        assert!(s.contains("for all mpρ ∈ MP"), "{s}");
        assert!(s.contains("for all cρ,ε ∈ Cρ"), "{s}");
        assert!(s.contains("end for"), "{s}");
    }

    #[test]
    fn kernel_renders_transfer_operators() {
        let (p, k) = vecadd_like();
        let s = render_kernel(&k, &p);
        assert!(s.contains('⇐'), "{s}");
        assert!(s.contains('←'), "{s}");
        assert!(s.contains("a[32i + j]"), "{s}");
        assert!(s.contains("c[32i + j]"), "{s}");
    }

    #[test]
    fn program_renders_w_operator() {
        let (p, _) = vecadd_like();
        let s = render_program(&p);
        assert!(s.contains("a W A"), "{s}");
        assert!(s.contains("C W c"), "{s}");
    }

    #[test]
    fn program_lines_are_numbered() {
        let (p, _) = vecadd_like();
        let s = render_program(&p);
        assert!(s.contains("  1: "), "{s}");
        assert!(s.contains("  2: "), "{s}");
    }

    #[test]
    fn pred_renders_if_block() {
        let p = {
            let mut pb = ProgramBuilder::new("t");
            let _ = pb.device_alloc("a", 64);
            pb.begin_round();
            pb.launch(KernelBuilder::new("k", 1, 0).build());
            pb.build().unwrap()
        };
        let mut kb = KernelBuilder::new("k", 1, 32);
        kb.pred(
            PredExpr::Lt(Operand::Lane, Operand::Imm(16)),
            |kb| {
                kb.st_shr(AddrExpr::lane(), Operand::Imm(1));
            },
            |kb| {
                kb.st_shr(AddrExpr::lane(), Operand::Imm(0));
            },
        );
        let s = render_kernel(&kb.build(), &p);
        assert!(s.contains("if j < 16 then"), "{s}");
        assert!(s.contains("else"), "{s}");
        assert!(s.contains("end if"), "{s}");
    }

    #[test]
    fn repeat_renders_for_loop_with_depth_label() {
        let p = {
            let mut pb = ProgramBuilder::new("t");
            pb.begin_round();
            pb.launch(KernelBuilder::new("k", 1, 0).build());
            pb.build().unwrap()
        };
        let mut kb = KernelBuilder::new("k", 1, 0);
        kb.repeat(8, |kb| {
            kb.repeat(4, |kb| {
                kb.sync();
            });
        });
        let s = render_kernel(&kb.build(), &p);
        assert!(s.contains("for t0 = 0 → 8 do"), "{s}");
        assert!(s.contains("for t1 = 0 → 4 do"), "{s}");
    }

    #[test]
    fn instruction_indices_are_preorder() {
        let (p, _) = vecadd_like();
        let mut kb = KernelBuilder::new("k", 1, 64);
        kb.repeat(2, |kb| {
            // #1 inside the #0 for-header.
            kb.ld_shr(0, AddrExpr::lane());
        });
        kb.pred(
            PredExpr::Lt(Operand::Lane, Operand::Imm(16)),
            |kb| {
                kb.st_shr(AddrExpr::lane(), Operand::Imm(1)); // #3
            },
            |kb| {
                kb.sync(); // #4
            },
        );
        let s = render_kernel(&kb.build(), &p);
        assert!(s.contains("for t0 = 0 → 2 do  ▷ #0"), "{s}");
        assert!(s.contains("▷ #1"), "{s}");
        assert!(s.contains("if j < 16 then  ▷ #2"), "{s}");
        assert!(s.contains("▷ #3"), "{s}");
        assert!(s.contains("▷ #4"), "{s}");
    }

    #[test]
    fn multi_round_program_labels_rounds() {
        let mut pb = ProgramBuilder::new("r");
        let h = pb.host_input("A", 8);
        let d = pb.device_alloc("a", 8);
        pb.begin_round();
        pb.transfer_in(h, d, 8);
        pb.launch(KernelBuilder::new("k1", 1, 0).build());
        pb.begin_round();
        pb.launch(KernelBuilder::new("k2", 1, 0).build());
        let p = pb.build().unwrap();
        let s = render_program(&p);
        assert!(s.contains("Round 1"), "{s}");
        assert!(s.contains("Round 2"), "{s}");
    }

    #[test]
    fn streamed_steps_render_tags() {
        let mut pb = ProgramBuilder::new("dbuf");
        let h = pb.host_input("A", 64);
        let d = pb.device_alloc("a", 64);
        pb.begin_round();
        pb.transfer_in_streamed(0, 1, h, 0, d, 0, 64);
        pb.sync_stream(0, 1);
        pb.sync_device(2);
        pb.launch(KernelBuilder::new("k", 1, 0).build());
        let p = pb.build().unwrap();
        let s = render_program(&p);
        assert!(s.contains("a@s1 W A"), "{s}");
        assert!(s.contains("sync stream s1"), "{s}");
        assert!(s.contains("sync device@gpu2"), "{s}");
    }

    #[test]
    fn offset_transfers_render_ranges() {
        let mut pb = ProgramBuilder::new("chunked");
        let h = pb.host_input("A", 64);
        let d = pb.device_alloc("a", 32);
        pb.begin_round();
        pb.transfer_in_at(h, 32, d, 0, 32);
        pb.launch(KernelBuilder::new("k", 1, 0).build());
        let p = pb.build().unwrap();
        let s = render_program(&p);
        assert!(s.contains("a[0..] W A[32..]"), "{s}");
    }
}
