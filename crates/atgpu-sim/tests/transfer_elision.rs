//! A transfer moves only what its destination does not provably hold
//! (`atgpu_sim::gmem`'s copy rule), and every word is still priced.
//!
//! * **The pin.**  [`DeviceStats::copied_words`] of small scatter,
//!   broadcast and all-gather staged iterations, worked out by hand:
//!   round 0 moves everything, later rounds only the chunks a kernel
//!   dirtied.  A change that quietly stops skipping fails here.  A
//!   program whose device buffer sits off the chunk grid copies every
//!   word it transfers.
//! * **The property.**  Random multi-round cluster programs — aligned,
//!   misaligned and chunk-straddling ranges, a partial last chunk, peer
//!   copies, row and register-addressed stores — give exactly the host
//!   outputs of a plain-`Vec` interpretation of the same steps written
//!   below, with and without per-device threads, under transfer drops,
//!   and (for programs whose devices each own a slab) under the loss of
//!   a device, where peer copies fold onto one replica.

use atgpu_ir::{AddrExpr, AluOp, DBuf, HBuf, HostStep, Kernel, KernelBuilder, Operand, Program};
use atgpu_ir::{ProgramBuilder, Shard};
use atgpu_model::ClusterSpec;
use atgpu_sim::{
    even_shards, run_cluster_program, ClusterSimReport, FaultEvent, FaultPlan, SimConfig,
};
use common::{machine, spec, Rng};

mod common;

/// Words per provenance chunk.
const C: u64 = atgpu_sim::gmem::CHUNK_WORDS as u64;

/// How a staged iteration moves its state each round.
#[derive(Clone, Copy, PartialEq)]
enum Staging {
    /// Slab `d` up to device `d` and back down from it.
    Scatter,
    /// The whole state up to every device, slab `d` back down.
    Broadcast,
    /// Slab `d` up, every slab to every other device, the whole state
    /// down from device `round mod devices`.
    AllGather,
}

/// How a kernel addresses the words it bumps.
#[derive(Clone, Copy, Debug)]
enum Store {
    /// `block·stride + lane`: one row.
    Row,
    /// `block·stride + lane·⌊stride/b⌋`, computed into a register: the
    /// lanes spread over the stretch, across chunk edges where it is long.
    Reg,
}

impl Store {
    /// Distance between two lanes' words.
    fn step(self, b: u64, stride: u64) -> u64 {
        match self {
            Store::Row => 1,
            Store::Reg => stride / b,
        }
    }

    /// Offsets from `block·stride` of the words a block bumps.
    fn offsets(self, b: u64, stride: u64) -> impl Iterator<Item = u64> {
        let step = self.step(b, stride);
        (0..b).map(move |lane| lane * step)
    }
}

/// Adds 1 to `store`'s words of every `stride`-word stretch of `buf`, one
/// block per stretch.
fn bump_kernel(blocks: u64, b: u64, stride: u64, buf: DBuf, store: Store) -> Kernel {
    let mut kb = KernelBuilder::new("bump", blocks, b);
    let at = match store {
        Store::Row => AddrExpr::block() * stride as i64 + AddrExpr::lane(),
        Store::Reg => {
            kb.alu(AluOp::Mul, 1, Operand::Block, Operand::Imm(stride as i64));
            let step = store.step(b, stride) as i64;
            kb.alu(AluOp::Mul, 2, Operand::Lane, Operand::Imm(step));
            kb.alu(AluOp::Add, 1, Operand::Reg(1), Operand::Reg(2));
            AddrExpr::reg(1)
        }
    };
    kb.glb_to_shr(AddrExpr::lane(), buf, at.clone());
    kb.ld_shr(0, AddrExpr::lane());
    kb.alu(AluOp::Add, 0, Operand::Reg(0), Operand::Imm(1));
    kb.st_shr(AddrExpr::lane(), Operand::Reg(0));
    kb.shr_to_glb(buf, at, AddrExpr::lane());
    kb.build()
}

/// A staged iteration over an `n`-word state on `devices` devices: 4
/// blocks bump the first `b` words of each `n/4`-word stretch.  `pad`
/// words of another buffer sit before the state on the device.
fn staged(n: u64, devices: u32, rounds: u64, staging: Staging, pad: u64) -> Program {
    let (blocks, slab) = (4, n / u64::from(devices));
    let mut pb = ProgramBuilder::new("staged");
    let first = pb.host_input("A", n);
    let state = pb.host_output("C", n);
    if pad > 0 {
        pb.device_alloc("pad", pad);
    }
    let dev = pb.device_alloc("s", n);
    for round in 0..rounds {
        pb.begin_round();
        let from = if round == 0 { first } else { state };
        for d in 0..devices {
            let off = u64::from(d) * slab;
            match staging {
                Staging::Broadcast => pb.transfer_in_to(d, from, 0, dev, 0, n),
                _ => pb.transfer_in_to(d, from, off, dev, off, slab),
            };
        }
        let kernel = bump_kernel(blocks, machine().b, n / blocks, dev, Store::Row);
        pb.launch_sharded(kernel, even_shards(blocks, devices));
        if staging == Staging::AllGather {
            for src in 0..devices {
                let off = u64::from(src) * slab;
                for dst in (0..devices).filter(|&dst| dst != src) {
                    pb.transfer_peer(src, dst, dev, off, off, slab);
                }
            }
            pb.transfer_out_from((round % u64::from(devices)) as u32, dev, 0, state, 0, n);
        } else {
            for d in 0..devices {
                let off = u64::from(d) * slab;
                pb.transfer_out_from(d, dev, off, state, off, slab);
            }
        }
    }
    pb.build().unwrap()
}

/// Words each device's transfers carry, attributed as
/// [`atgpu_sim::DeviceStats::copied_words`] attributes copies: inward and
/// peer-in to the receiver, outward to the source.
fn transferred(program: &Program, devices: usize) -> Vec<u64> {
    let mut words = vec![0; devices];
    for step in program.rounds.iter().flat_map(|r| &r.steps) {
        match step {
            HostStep::TransferIn { device, words: w, .. }
            | HostStep::TransferOut { device, words: w, .. } => words[*device as usize] += w,
            HostStep::TransferPeer { dst, words: w, .. } => words[*dst as usize] += w,
            _ => {}
        }
    }
    words
}

fn run(
    program: &Program,
    inputs: Vec<Vec<i64>>,
    devices: usize,
    cfg: &SimConfig,
) -> ClusterSimReport {
    let cluster = ClusterSpec::homogeneous(devices, spec());
    run_cluster_program(program, inputs, &machine(), &cluster, cfg).unwrap()
}

fn copied(report: &ClusterSimReport) -> Vec<u64> {
    report.device_stats.iter().map(|s| s.copied_words).collect()
}

/// 4096 words (8 chunks) on 2 devices over 3 rounds; device 0's blocks
/// bump chunks 0 and 2, device 1's chunks 4 and 6, so each device's
/// 2048-word slab holds two chunks its kernel dirties every round.
#[test]
fn copied_words_are_pinned_for_staged_programs() {
    let (n, rounds) = (8 * C, 3);
    let data: Vec<i64> = (0..n as i64).map(|w| w % 97 - 40).collect();
    let cases = [
        // Round 0: 2048 in + 2048 out.  Rounds 1–2: the two dirty
        // chunks in and out again, 2·512 + 2·512.
        (Staging::Scatter, [4096 + 2 * 2048, 4096 + 2 * 2048]),
        // Round 0: 4096 in + 2048 out.  Rounds 1–2: the four chunks
        // both kernels dirtied come in (2048), the device's own two go
        // out (1024).
        (Staging::Broadcast, [6144 + 2 * 3072, 6144 + 2 * 3072]),
        // Round 0: 2048 in + 2048 peer-in each, and device 0 sends all
        // 4096 out.  Rounds 1–2: two dirty chunks in and two peer-in
        // each (the other two peer chunks are the input's, held since
        // round 0), and the sender of the round (1, then 0) sends the
        // four dirty chunks out (2048).
        (Staging::AllGather, [8192 + 2048 + 4096, 4096 + 4096 + 2048]),
    ];
    for (staging, expect) in cases {
        let program = staged(n, 2, rounds, staging, 0);
        for device_threads in [false, true] {
            let cfg = SimConfig { device_threads, ..SimConfig::default() };
            let report = run(&program, vec![data.clone()], 2, &cfg);
            assert_eq!(copied(&report), expect, "copied words, device_threads {device_threads}");
            let mut want = data.clone();
            for block in 0..4 {
                for w in &mut want[(block * n / 4) as usize..][..machine().b as usize] {
                    *w += rounds as i64;
                }
            }
            assert_eq!(report.host.buf(HBuf(1)), want, "outputs");
        }
        let all = transferred(&program, 2);
        assert!(expect.iter().zip(&all).all(|(c, t)| c < t), "{expect:?} vs {all:?}");
    }
    // Scatter transfers 3·4096 words per device, broadcast 3·6144.
    assert_eq!(transferred(&staged(n, 2, rounds, Staging::Scatter, 0), 2), [12288, 12288]);
    assert_eq!(transferred(&staged(n, 2, rounds, Staging::Broadcast, 0), 2), [18432, 18432]);
}

/// A device buffer `b` words past the chunk grid: no destination chunk
/// ever receives exactly one source chunk, so every transferred word is
/// copied — and the answers are the aligned program's.
#[test]
fn misaligned_offsets_copy_every_transferred_word() {
    let n = 8 * C;
    let data: Vec<i64> = (0..n as i64).map(|w| w * 3 - 1).collect();
    for staging in [Staging::Scatter, Staging::Broadcast, Staging::AllGather] {
        let program = staged(n, 2, 3, staging, machine().b);
        let report = run(&program, vec![data.clone()], 2, &SimConfig::default());
        assert_eq!(copied(&report), transferred(&program, 2));
        let aligned =
            run(&staged(n, 2, 3, staging, 0), vec![data.clone()], 2, &SimConfig::default());
        assert_eq!(report.host.buf(HBuf(1)), aligned.host.buf(HBuf(1)));
        for (r, a) in report.rounds.iter().zip(&aligned.rounds) {
            assert_eq!(r.total_ms().to_bits(), a.total_ms().to_bits(), "every word is priced");
        }
    }
}

// ---------------------------------------------------------------------
// The property: random programs against a plain-`Vec` interpretation.
// ---------------------------------------------------------------------

/// A generated program and what the model needs to interpret it.
struct Case {
    program: Program,
    devices: usize,
    /// Word offset of the state in every replica (the pad before it).
    base: u64,
    /// Words between two blocks' stretches.
    stride: u64,
    /// How each round's one launch stores.
    stores: Vec<Store>,
    /// Every device only ever touches its own slab: the loss of a device
    /// cannot change an answer.
    owned: bool,
}

/// An offset in `0..=free`: on the chunk grid, anywhere, or the last.
fn offset(rng: &mut Rng, free: u64) -> u64 {
    match rng.below(3) {
        0 => rng.below(free / C + 1) * C,
        1 => rng.below(free + 1),
        _ => free,
    }
}

/// A non-empty range of at most `room ≥ 1` words: whole chunks, any
/// length, a chunk and a few words (straddling an edge), or all of it —
/// at an [`offset`].
fn range(rng: &mut Rng, room: u64) -> (u64, u64) {
    let len = match rng.below(4) {
        0 => C * (1 + rng.below(2)),
        1 => 1 + rng.below(room),
        2 => C + rng.below(9),
        _ => room,
    }
    .min(room);
    (offset(rng, room - len), len)
}

/// A random program: `devices` devices, a state of `blocks·stride + tail`
/// words behind an optional pad, 2–4 rounds of transfers in, one bump
/// launch, peer copies and transfers out.  An *owned* program gives device
/// `d` the slab its shard's blocks bump and moves only that slab (split
/// at a random cut); a free one moves random ranges anywhere.
fn gen_case(rng: &mut Rng) -> Case {
    let b = machine().b;
    let devices = 2 + rng.below(2) as usize;
    let k = 1 + rng.below(3);
    let blocks = devices as u64 * k;
    let stride = [2 * b, 128, C, 700][rng.below(4) as usize];
    let tail = [0, 3, b, C + b][rng.below(4) as usize];
    let n = blocks * stride + tail;
    let pad = [0, 0, b, C][rng.below(4) as usize];
    let owned = rng.below(2) == 0;
    let rounds = 2 + rng.below(3);

    let mut pb = ProgramBuilder::new("elision_case");
    let (a, out) = (pb.host_input("A", n), pb.host_output("C", n));
    if pad > 0 {
        pb.device_alloc("pad", pad);
    }
    let dev = pb.device_alloc("s", n);
    let slab = |d: u64| (d * k * stride, k * stride);
    let mut stores = Vec::new();
    for round in 0..rounds {
        pb.begin_round();
        let from = |rng: &mut Rng| if round > 0 && rng.below(3) > 0 { out } else { a };
        let transfers = |rng: &mut Rng, (off, len): (u64, u64)| -> Vec<(u64, u64)> {
            let cut = rng.below(len + 1);
            [(off, cut), (off + cut, len - cut)].into_iter().filter(|r| r.1 > 0).collect()
        };
        if owned {
            for d in 0..devices as u32 {
                let src = from(rng);
                for (off, len) in transfers(rng, slab(u64::from(d))) {
                    pb.transfer_in_to(d, src, off, dev, off, len);
                }
            }
        } else {
            for _ in 0..1 + rng.below(4) {
                let (d, (host_off, len)) = (rng.below(devices as u64) as u32, range(rng, n));
                let dev_off = offset(rng, n - len);
                pb.transfer_in_to(d, from(rng), host_off, dev, dev_off, len);
            }
        }
        let store = if rng.below(2) == 0 { Store::Row } else { Store::Reg };
        stores.push(store);
        pb.launch_sharded(
            bump_kernel(blocks, b, stride, dev, store),
            even_shards(blocks, devices as u32),
        );
        for _ in 0..rng.below(3) {
            let src = rng.below(devices as u64) as u32;
            let dst = (src + 1 + rng.below(devices as u64 - 1) as u32) % devices as u32;
            let (src_off, len) = if owned { slab(u64::from(src)) } else { range(rng, n) };
            let dst_off = if owned { src_off } else { offset(rng, n - len) };
            pb.transfer_peer(src, dst, dev, src_off, dst_off, len);
        }
        if owned {
            for d in 0..devices as u32 {
                for (off, len) in transfers(rng, slab(u64::from(d))) {
                    pb.transfer_out_from(d, dev, off, out, off, len);
                }
            }
        } else {
            for _ in 0..1 + rng.below(3) {
                let (d, (dev_off, len)) = (rng.below(devices as u64) as u32, range(rng, n));
                let host_off = offset(rng, n - len);
                pb.transfer_out_from(d, dev, dev_off, out, host_off, len);
            }
        }
    }
    let base = pad.div_ceil(b) * b;
    Case { program: pb.build().unwrap(), devices, base, stride, stores, owned }
}

/// The plain interpretation: one `Vec` per replica and per host buffer,
/// every step in order, no provenance.
fn interpret(case: &Case, input: &[i64]) -> Vec<i64> {
    let b = machine().b;
    let words = case.program.buffer_layout(b).1 as usize;
    let mut devs = vec![vec![0i64; words]; case.devices];
    let mut host = [input.to_vec(), vec![0; input.len()]];
    let base = case.base as usize;
    for (round, steps) in case.program.rounds.iter().enumerate() {
        for step in &steps.steps {
            match step {
                HostStep::TransferIn { host: h, host_off, dev_off, words, device, .. } => {
                    let (s, d, w) = (*host_off as usize, base + *dev_off as usize, *words as usize);
                    devs[*device as usize][d..d + w].copy_from_slice(&host[h.0 as usize][s..s + w]);
                }
                HostStep::TransferOut { dev_off, host: h, host_off, words, device, .. } => {
                    let (s, d, w) = (base + *dev_off as usize, *host_off as usize, *words as usize);
                    host[h.0 as usize][d..d + w].copy_from_slice(&devs[*device as usize][s..s + w]);
                }
                HostStep::TransferPeer { src, dst, src_off, dst_off, words, .. } => {
                    let (s, d, w) =
                        (base + *src_off as usize, base + *dst_off as usize, *words as usize);
                    let from = devs[*src as usize][s..s + w].to_vec();
                    devs[*dst as usize][d..d + w].copy_from_slice(&from);
                }
                HostStep::LaunchSharded { shards, .. } => {
                    let stride = case.stride;
                    for Shard { device, start, end } in shards {
                        for block in *start..*end {
                            for off in case.stores[round].offsets(b, stride) {
                                devs[*device as usize][base + (block * stride + off) as usize] += 1;
                            }
                        }
                    }
                }
                other => panic!("the generator emits no {other:?}"),
            }
        }
    }
    let [_, out] = host;
    out
}

#[test]
fn random_programs_match_a_plain_interpretation() {
    let mut rng = Rng(0x5EED_E11D);
    let (mut owned_losses, mut drops) = (0, 0);
    for i in 0..160 {
        let case = gen_case(&mut rng);
        let n = case.program.host_bufs[0].words as i64;
        let input: Vec<i64> = (0..n).map(|w| (w * 31 + i) % 1009 - 500).collect();
        let want = interpret(&case, &input);
        let what = format!("case {i} ({} devices, owned {})", case.devices, case.owned);
        let rounds = case.program.rounds.len();

        let plain = run(
            &case.program,
            vec![input.clone()],
            case.devices,
            &SimConfig { device_threads: false, ..SimConfig::default() },
        );
        assert_eq!(plain.host.buf(HBuf(1)), want, "{what}: fault-free");
        let all = transferred(&case.program, case.devices);
        assert!(copied(&plain).iter().zip(&all).all(|(c, t)| c <= t), "{what}: copied ≤ moved");

        let threaded = run(
            &case.program,
            vec![input.clone()],
            case.devices,
            &SimConfig { device_threads: true, ..SimConfig::default() },
        );
        assert_eq!(threaded.host.buf(HBuf(1)), want, "{what}: device threads");
        assert_eq!(copied(&threaded), copied(&plain), "{what}: copies are schedule-free");

        let mut fault = FaultPlan::random(rng.next(), case.devices as u32, rounds, 0.4);
        fault.events.retain(|e| !matches!(e, FaultEvent::DeviceDown { .. }));
        drops += fault.events.iter().any(|e| matches!(e, FaultEvent::TransferDrop { .. })) as u32;
        let device_threads = rng.below(2) == 0;
        let cfg = SimConfig { fault: fault.clone(), device_threads, ..SimConfig::default() };
        let dropped = run(&case.program, vec![input.clone()], case.devices, &cfg);
        assert_eq!(dropped.host.buf(HBuf(1)), want, "{what}: transfer drops");

        if case.owned {
            let device = rng.below(case.devices as u64) as u32;
            fault.push(FaultEvent::DeviceDown {
                device,
                at_round: rng.below(rounds as u64) as usize,
            });
            let cfg = SimConfig { fault, device_threads, ..SimConfig::default() };
            let lost = run(&case.program, vec![input.clone()], case.devices, &cfg);
            assert_eq!(lost.host.buf(HBuf(1)), want, "{what}: device {device} lost");
            owned_losses += 1;
        }
    }
    assert!(owned_losses >= 40 && drops >= 40, "losses {owned_losses}, drop plans {drops}");
}
