//! Fluent construction of kernels and programs.
//!
//! ```
//! use atgpu_ir::{AluOp, AddrExpr, KernelBuilder, Operand, ProgramBuilder};
//!
//! let b = 32i64;
//! let n = 1024u64;
//! let mut pb = ProgramBuilder::new("vecadd");
//! let ha = pb.host_input("A", n);
//! let hc = pb.host_output("C", n);
//! let da = pb.device_alloc("a", n);
//! let dc = pb.device_alloc("c", n);
//!
//! let mut kb = KernelBuilder::new("vecadd_kernel", n / 32, 2 * 32);
//! // _a[j] ⇐ a[i·b + j]
//! kb.glb_to_shr(AddrExpr::lane(), da, AddrExpr::block() * b + AddrExpr::lane());
//! // r0 ← _a[j]; r0 ← r0 + 1; _c[j] ← r0   (toy: c = a + 1)
//! kb.ld_shr(0, AddrExpr::lane());
//! kb.alu(AluOp::Add, 0, Operand::Reg(0), Operand::Imm(1));
//! kb.st_shr(AddrExpr::lane() + 32, Operand::Reg(0));
//! // c[i·b + j] ⇐ _c[j]
//! kb.shr_to_glb(dc, AddrExpr::block() * b + AddrExpr::lane(), AddrExpr::lane() + 32);
//!
//! pb.begin_round();
//! pb.transfer_in(ha, da, n);
//! pb.launch(kb.build());
//! pb.transfer_out(dc, hc, n);
//! pb.end_round();
//!
//! let program = pb.build().expect("valid program");
//! assert_eq!(program.num_rounds(), 1);
//! ```

use crate::error::IrError;
use crate::expr::{AddrExpr, Operand, PredExpr};
use crate::instr::{AluOp, Instr};
use crate::kernel::Kernel;
use crate::program::{
    DBuf, DeviceAlloc, HBuf, HostBufDecl, HostBufRole, HostStep, Program, ProgramBody, Round, Shard,
};
use crate::Reg;

/// Builds a [`Kernel`] instruction by instruction.
#[derive(Debug)]
pub struct KernelBuilder {
    name: String,
    grid: (u64, u64),
    shared_words: u64,
    /// The open body: the kernel's, or the `Repeat` / `Pred` arm whose
    /// closure is running (its enclosing bodies are saved around it).
    body: Vec<Instr>,
}

impl KernelBuilder {
    /// Starts a kernel named `name` launching `blocks` thread blocks in a
    /// 1-D grid, each using `shared_words` words of shared memory.
    pub fn new(name: impl Into<String>, blocks: u64, shared_words: u64) -> Self {
        Self::new_2d(name, (blocks, 1), shared_words)
    }

    /// Starts a kernel with a 2-D launch grid `(gx, gy)` — the natural
    /// geometry for tiled matrix kernels, where `Block` is the tile
    /// column and `BlockY` the tile row.
    pub fn new_2d(name: impl Into<String>, grid: (u64, u64), shared_words: u64) -> Self {
        Self { name: name.into(), grid, shared_words, body: Vec::new() }
    }

    fn push(&mut self, i: Instr) -> &mut Self {
        self.body.push(i);
        self
    }

    /// The body `build` emits, built in a fresh open body with the
    /// enclosing one saved around it.
    fn nested(&mut self, build: impl FnOnce(&mut Self)) -> Vec<Instr> {
        let enclosing = std::mem::take(&mut self.body);
        build(self);
        std::mem::replace(&mut self.body, enclosing)
    }

    /// `dst ← a op b`.
    pub fn alu(&mut self, op: AluOp, dst: Reg, a: Operand, b: Operand) -> &mut Self {
        self.push(Instr::Alu { op, dst, a, b })
    }

    /// `dst ← src`.
    pub fn mov(&mut self, dst: Reg, src: Operand) -> &mut Self {
        self.push(Instr::Mov { dst, src })
    }

    /// `_s[shared] ⇐ buf[global]` — global→shared, one word per lane.
    pub fn glb_to_shr(&mut self, shared: AddrExpr, buf: DBuf, global: AddrExpr) -> &mut Self {
        self.push(Instr::glb_to_shr(shared, buf, global))
    }

    /// `buf[global] ⇐ _s[shared]` — shared→global, one word per lane.
    pub fn shr_to_glb(&mut self, buf: DBuf, global: AddrExpr, shared: AddrExpr) -> &mut Self {
        self.push(Instr::shr_to_glb(buf, global, shared))
    }

    /// `dst ← _s[shared]`.
    pub fn ld_shr(&mut self, dst: Reg, shared: AddrExpr) -> &mut Self {
        self.push(Instr::ld_shr(dst, shared))
    }

    /// `_s[shared] ← src`.
    pub fn st_shr(&mut self, shared: AddrExpr, src: Operand) -> &mut Self {
        self.push(Instr::st_shr(shared, src))
    }

    /// Intra-block barrier.
    pub fn sync(&mut self) -> &mut Self {
        self.push(Instr::Sync)
    }

    /// A counted loop: `for t(depth) = 0 → count do body`.
    /// The body closure sees the same builder; the loop counter is
    /// available as `AddrExpr::loop_var(d)`/`Operand::LoopVar(d)` where
    /// `d` is the loop's nesting depth (0 for a top-level loop).
    pub fn repeat(&mut self, count: u32, body: impl FnOnce(&mut Self)) -> &mut Self {
        let body = self.nested(body);
        self.push(Instr::Repeat { count, body })
    }

    /// A single-conditional divergent region; the model executes both
    /// arms, masking inactive lanes.
    pub fn pred(
        &mut self,
        pred: PredExpr,
        then_body: impl FnOnce(&mut Self),
        else_body: impl FnOnce(&mut Self),
    ) -> &mut Self {
        let then_body = self.nested(then_body);
        let else_body = self.nested(else_body);
        self.push(Instr::Pred { pred, then_body, else_body })
    }

    /// Shorthand for a then-only conditional.
    pub fn when(&mut self, pred: PredExpr, then_body: impl FnOnce(&mut Self)) -> &mut Self {
        self.pred(pred, then_body, |_| {})
    }

    /// Finishes the kernel.
    pub fn build(self) -> Kernel {
        Kernel {
            name: self.name,
            body: self.body,
            grid: self.grid,
            shared_words: self.shared_words,
        }
    }
}

/// Builds a [`Program`]: buffers, rounds, transfers and launches.
#[derive(Debug)]
pub struct ProgramBuilder {
    name: String,
    device_allocs: Vec<DeviceAlloc>,
    host_bufs: Vec<HostBufDecl>,
    rounds: Vec<Round>,
    open_round: Option<Round>,
}

impl ProgramBuilder {
    /// Starts a program.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            device_allocs: Vec::new(),
            host_bufs: Vec::new(),
            rounds: Vec::new(),
            open_round: None,
        }
    }

    /// Declares a host input buffer (capitalised in pseudocode).
    pub fn host_input(&mut self, name: impl Into<String>, words: u64) -> HBuf {
        let id = HBuf(self.host_bufs.len() as u32);
        self.host_bufs.push(HostBufDecl { name: name.into(), words, role: HostBufRole::Input });
        id
    }

    /// Declares a host output buffer.
    pub fn host_output(&mut self, name: impl Into<String>, words: u64) -> HBuf {
        let id = HBuf(self.host_bufs.len() as u32);
        self.host_bufs.push(HostBufDecl { name: name.into(), words, role: HostBufRole::Output });
        id
    }

    /// Allocates a device-global buffer (lower-case in pseudocode).
    pub fn device_alloc(&mut self, name: impl Into<String>, words: u64) -> DBuf {
        let id = DBuf(self.device_allocs.len() as u32);
        self.device_allocs.push(DeviceAlloc { name: name.into(), words });
        id
    }

    /// Opens a new round.  Any previously open round is closed first.
    pub fn begin_round(&mut self) -> &mut Self {
        self.end_round();
        self.open_round = Some(Round::default());
        self
    }

    /// Closes the open round, if any.
    pub fn end_round(&mut self) -> &mut Self {
        if let Some(r) = self.open_round.take() {
            self.rounds.push(r);
        }
        self
    }

    fn round_mut(&mut self) -> &mut Round {
        self.open_round.get_or_insert_with(Round::default)
    }

    /// `dev W host` — full-buffer host→device transfer (one transaction).
    pub fn transfer_in(&mut self, host: HBuf, dev: DBuf, words: u64) -> &mut Self {
        self.transfer_in_at(host, 0, dev, 0, words)
    }

    /// Host→device transfer with offsets (one transaction).
    pub fn transfer_in_at(
        &mut self,
        host: HBuf,
        host_off: u64,
        dev: DBuf,
        dev_off: u64,
        words: u64,
    ) -> &mut Self {
        self.transfer_in_to(0, host, host_off, dev, dev_off, words)
    }

    /// Host→device transfer with offsets over a specific device's host
    /// link (one transaction).
    #[allow(clippy::too_many_arguments)]
    pub fn transfer_in_to(
        &mut self,
        device: u32,
        host: HBuf,
        host_off: u64,
        dev: DBuf,
        dev_off: u64,
        words: u64,
    ) -> &mut Self {
        self.transfer_in_streamed(device, 0, host, host_off, dev, dev_off, words)
    }

    /// Host→device transfer enqueued on `stream` of `device` (one
    /// transaction).  Work on different streams of one device may overlap
    /// in time; see [`HostStep`]'s stream semantics.
    #[allow(clippy::too_many_arguments)]
    pub fn transfer_in_streamed(
        &mut self,
        device: u32,
        stream: u32,
        host: HBuf,
        host_off: u64,
        dev: DBuf,
        dev_off: u64,
        words: u64,
    ) -> &mut Self {
        self.round_mut().steps.push(HostStep::TransferIn {
            host,
            host_off,
            dev,
            dev_off,
            words,
            device,
            stream,
        });
        self
    }

    /// `host W dev` — full-buffer device→host transfer (one transaction).
    pub fn transfer_out(&mut self, dev: DBuf, host: HBuf, words: u64) -> &mut Self {
        self.transfer_out_at(dev, 0, host, 0, words)
    }

    /// Device→host transfer with offsets (one transaction).
    pub fn transfer_out_at(
        &mut self,
        dev: DBuf,
        dev_off: u64,
        host: HBuf,
        host_off: u64,
        words: u64,
    ) -> &mut Self {
        self.transfer_out_from(0, dev, dev_off, host, host_off, words)
    }

    /// Device→host transfer with offsets over a specific device's host
    /// link (one transaction).
    #[allow(clippy::too_many_arguments)]
    pub fn transfer_out_from(
        &mut self,
        device: u32,
        dev: DBuf,
        dev_off: u64,
        host: HBuf,
        host_off: u64,
        words: u64,
    ) -> &mut Self {
        self.transfer_out_streamed(device, 0, dev, dev_off, host, host_off, words)
    }

    /// Device→host transfer enqueued on `stream` of `device` (one
    /// transaction).
    #[allow(clippy::too_many_arguments)]
    pub fn transfer_out_streamed(
        &mut self,
        device: u32,
        stream: u32,
        dev: DBuf,
        dev_off: u64,
        host: HBuf,
        host_off: u64,
        words: u64,
    ) -> &mut Self {
        self.round_mut().steps.push(HostStep::TransferOut {
            dev,
            dev_off,
            host,
            host_off,
            words,
            device,
            stream,
        });
        self
    }

    /// Waits for everything enqueued on `stream` of `device` so far this
    /// round; later steps start no earlier.
    pub fn sync_stream(&mut self, device: u32, stream: u32) -> &mut Self {
        self.round_mut().steps.push(HostStep::SyncStream { device, stream });
        self
    }

    /// Waits for all streams of `device` (an explicit mid-round device
    /// barrier; every round boundary is one implicitly).
    pub fn sync_device(&mut self, device: u32) -> &mut Self {
        self.round_mut().steps.push(HostStep::SyncDevice { device });
        self
    }

    /// Device→device transfer over the directed peer link `src → dst`
    /// (one transaction against `buf`'s replicas).
    #[allow(clippy::too_many_arguments)]
    pub fn transfer_peer(
        &mut self,
        src: u32,
        dst: u32,
        buf: DBuf,
        src_off: u64,
        dst_off: u64,
        words: u64,
    ) -> &mut Self {
        self.round_mut().steps.push(HostStep::TransferPeer {
            src,
            dst,
            buf,
            src_off,
            dst_off,
            words,
        });
        self
    }

    /// Launches the round's kernel.
    pub fn launch(&mut self, kernel: Kernel) -> &mut Self {
        self.round_mut().steps.push(HostStep::Launch(kernel));
        self
    }

    /// Launches the round's kernel sharded over devices by block range.
    pub fn launch_sharded(&mut self, kernel: Kernel, shards: Vec<Shard>) -> &mut Self {
        self.round_mut().steps.push(HostStep::LaunchSharded { kernel, shards });
        self
    }

    /// Closes any open round and validates the program structurally
    /// ([`Program::check`]): a built program is checked once and for all.
    pub fn build(mut self) -> Result<Program, IrError> {
        self.end_round();
        let p = Program::from(ProgramBody {
            name: self.name,
            device_allocs: self.device_allocs,
            host_bufs: self.host_bufs,
            rounds: self.rounds,
        });
        p.check()?;
        Ok(p)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn kernel_builder_nests_structures() {
        let mut kb = KernelBuilder::new("k", 4, 16);
        kb.mov(0, Operand::Imm(1));
        kb.repeat(3, |kb| {
            kb.alu(AluOp::Add, 0, Operand::Reg(0), Operand::LoopVar(0));
            kb.when(PredExpr::Lt(Operand::Lane, Operand::Imm(2)), |kb| {
                kb.st_shr(AddrExpr::lane(), Operand::Reg(0));
            });
        });
        let k = kb.build();
        assert_eq!(k.body.len(), 2);
        assert_eq!(k.loop_depth(), 1);
        assert_eq!(k.size(), 5);
    }

    #[test]
    fn program_builder_rounds() {
        let mut pb = ProgramBuilder::new("p");
        let h = pb.host_input("A", 64);
        let o = pb.host_output("C", 64);
        let d = pb.device_alloc("a", 64);
        pb.begin_round();
        pb.transfer_in(h, d, 64);
        pb.launch(KernelBuilder::new("k", 2, 32).build());
        pb.transfer_out(d, o, 64);
        pb.end_round();
        let p = pb.build().unwrap();
        assert_eq!(p.num_rounds(), 1);
        assert_eq!(p.rounds[0].inward(), (64, 1));
        assert_eq!(p.rounds[0].outward(), (64, 1));
    }

    #[test]
    fn build_closes_open_round() {
        let mut pb = ProgramBuilder::new("p");
        let h = pb.host_input("A", 8);
        let d = pb.device_alloc("a", 8);
        pb.begin_round();
        pb.transfer_in(h, d, 8);
        pb.launch(KernelBuilder::new("k", 1, 0).build());
        // no end_round()
        let p = pb.build().unwrap();
        assert_eq!(p.num_rounds(), 1);
    }

    #[test]
    fn steps_without_begin_round_open_one() {
        let mut pb = ProgramBuilder::new("p");
        let h = pb.host_input("A", 8);
        let d = pb.device_alloc("a", 8);
        pb.transfer_in(h, d, 8);
        pb.launch(KernelBuilder::new("k", 1, 0).build());
        let p = pb.build().unwrap();
        assert_eq!(p.num_rounds(), 1);
    }

    #[test]
    fn buffer_ids_are_sequential() {
        let mut pb = ProgramBuilder::new("p");
        assert_eq!(pb.host_input("A", 1), HBuf(0));
        assert_eq!(pb.host_output("B", 1), HBuf(1));
        assert_eq!(pb.device_alloc("a", 1), DBuf(0));
        assert_eq!(pb.device_alloc("b", 1), DBuf(1));
    }
}
