//! Every fact `atgpu_ir::lanemask::walk` reports at a node — its mask,
//! its folded predicate, `is_uniform` of every register and
//! `same_in_every_lane` of every operand kind — equals a brute-force
//! oracle that keeps each register's value per lane and evaluates each
//! predicate lane by lane, on random kernels: every ALU op (division and
//! remainder by zero and `i64::MIN / −1` included), moves, loads, nested
//! predicates and loops (zero-trip ones included), at `b ∈ {1, 5, 32, 64}`.

use atgpu_ir::lanemask::{walk, At};
use atgpu_ir::{AddrExpr, AluOp, Instr, Operand, PredExpr, Reg};
use proptest::prelude::*;

/// Registers the kernels use: two in each 64-register word but the
/// third, and the last one.
const REGS: [Reg; 7] = [0, 1, 2, 63, 64, 130, 255];

const OPS: [AluOp; 14] = [
    AluOp::Add,
    AluOp::Sub,
    AluOp::Mul,
    AluOp::Div,
    AluOp::Rem,
    AluOp::Min,
    AluOp::Max,
    AluOp::And,
    AluOp::Or,
    AluOp::Xor,
    AluOp::Shl,
    AluOp::Shr,
    AluOp::SetLt,
    AluOp::SetEq,
];

/// The operands whose `same_in_every_lane` is compared at every node.
fn probes() -> impl Iterator<Item = Operand> {
    let fixed =
        [Operand::Imm(3), Operand::Lane, Operand::Block, Operand::BlockY, Operand::LoopVar(0)];
    fixed.into_iter().chain(REGS.iter().map(|&r| Operand::Reg(r)))
}

/// What one node reports.
#[derive(Debug, PartialEq)]
struct Facts {
    instr: usize,
    mask: Option<u64>,
    folded: Option<u64>,
    loops: Vec<u32>,
    uniform: Vec<bool>,
    same: Vec<bool>,
}

/// The walk's rules, restated over plain per-lane values.
struct Oracle {
    b: u32,
    full: u64,
    /// Each register's value in each lane, while it is lane-pure.
    vals: Vec<Option<Vec<i64>>>,
    uniform: Vec<bool>,
    loops: Vec<u32>,
    mask: Option<u64>,
    facts: Vec<Facts>,
}

impl Oracle {
    fn new(b: u32) -> Self {
        let full = if b == 64 { u64::MAX } else { (1 << b) - 1 };
        Self {
            b,
            full,
            vals: vec![None; 256],
            uniform: vec![false; 256],
            loops: Vec::new(),
            mask: Some(full),
            facts: Vec::new(),
        }
    }

    fn value(&self, op: Operand, lane: u32) -> Option<i64> {
        match op {
            Operand::Imm(v) => Some(v),
            Operand::Lane => Some(i64::from(lane)),
            Operand::Reg(r) => self.vals[r as usize].as_ref().map(|v| v[lane as usize]),
            _ => None,
        }
    }

    fn lanes(&self, op: Operand) -> Option<Vec<i64>> {
        (0..self.b).map(|l| self.value(op, l)).collect()
    }

    fn operand_uniform(&self, op: Operand) -> bool {
        match op {
            Operand::Lane => false,
            Operand::Reg(r) => self.uniform[r as usize],
            _ => true,
        }
    }

    fn same_in_every_lane(&self, op: Operand) -> bool {
        match op {
            Operand::Reg(r) => {
                let pure = &self.vals[r as usize];
                self.uniform[r as usize]
                    || pure.as_ref().is_some_and(|v| v.iter().all(|&x| x == v[0]))
            }
            _ => self.operand_uniform(op),
        }
    }

    /// The predicate evaluated lane by lane, when both operands are
    /// lane-pure.
    fn fold(&self, pred: &PredExpr) -> Option<u64> {
        let (a, b) = pred.operands();
        self.lanes(a)?;
        self.lanes(b)?;
        let mut mask = 0;
        for lane in 0..self.b {
            let mut read = |r: Reg| self.value(Operand::Reg(r), lane).unwrap_or(0);
            if pred.eval(i64::from(lane), (0, 0), &[], &mut read) {
                mask |= 1 << lane;
            }
        }
        Some(mask)
    }

    fn forget(&mut self, r: Reg) {
        self.vals[r as usize] = None;
        self.uniform[r as usize] = false;
    }

    fn forget_written(&mut self, body: &[Instr]) {
        for i in body {
            match i {
                Instr::Alu { dst, .. } | Instr::Mov { dst, .. } | Instr::LdShr { dst, .. } => {
                    self.forget(*dst)
                }
                Instr::Pred { then_body, else_body, .. } => {
                    self.forget_written(then_body);
                    self.forget_written(else_body);
                }
                Instr::Repeat { count, body } if *count > 0 => self.forget_written(body),
                _ => {}
            }
        }
    }

    fn body(&mut self, body: &[Instr]) {
        for instr in body {
            let folded = match instr {
                Instr::Pred { pred, .. } => self.fold(pred),
                _ => None,
            };
            self.facts.push(Facts {
                instr: self.facts.len(),
                mask: self.mask,
                folded,
                loops: self.loops.clone(),
                uniform: self.uniform.clone(),
                same: probes().map(|op| self.same_in_every_lane(op)).collect(),
            });
            let (full, runs) = (self.mask == Some(self.full), self.mask != Some(0));
            match instr {
                Instr::Alu { op, dst, a, b } if runs => {
                    let vals = match (full, self.lanes(*a), self.lanes(*b)) {
                        (true, Some(x), Some(y)) => {
                            Some(x.iter().zip(&y).map(|(&p, &q)| op.apply(p, q)).collect())
                        }
                        _ => None,
                    };
                    let uniform = full && self.operand_uniform(*a) && self.operand_uniform(*b);
                    self.vals[*dst as usize] = vals;
                    self.uniform[*dst as usize] = uniform;
                }
                Instr::Mov { dst, src } if runs => {
                    let vals = if full { self.lanes(*src) } else { None };
                    let uniform = full && self.operand_uniform(*src);
                    self.vals[*dst as usize] = vals;
                    self.uniform[*dst as usize] = uniform;
                }
                Instr::LdShr { dst, .. } if runs => self.forget(*dst),
                Instr::Pred { then_body, else_body, .. } => {
                    let parent = self.mask;
                    let (then_mask, else_mask) = match (parent, folded) {
                        (Some(0), _) => (Some(0), Some(0)),
                        (Some(p), Some(m)) => (Some(p & m), Some(p & !m & self.full)),
                        _ => (None, None),
                    };
                    self.mask = then_mask;
                    self.body(then_body);
                    self.mask = else_mask;
                    self.body(else_body);
                    self.mask = parent;
                }
                Instr::Repeat { count, body } => {
                    let parent = self.mask;
                    if *count == 0 {
                        self.mask = Some(0);
                    } else if runs {
                        self.forget_written(body);
                    }
                    self.loops.push(*count);
                    self.body(body);
                    self.loops.pop();
                    self.mask = parent;
                }
                _ => {}
            }
        }
    }
}

fn walked(body: &[Instr], b: u32) -> Vec<Facts> {
    let mut facts = Vec::new();
    walk(body, b, &mut |at: &At<'_>, _: &Instr| {
        facts.push(Facts {
            instr: at.instr,
            mask: at.mask,
            folded: at.folded,
            loops: at.loops.to_vec(),
            uniform: (0..=255).map(|r| at.is_uniform(r)).collect(),
            same: probes().map(|op| at.same_in_every_lane(op)).collect(),
        });
    });
    facts
}

fn reg() -> impl Strategy<Value = Reg> {
    (0..REGS.len()).prop_map(|i| REGS[i])
}

/// Immediates biased to the edges: zero divisors, `−1`, `i64::MIN`.
fn imm() -> impl Strategy<Value = i64> {
    prop_oneof![
        4 => -8i64..9,
        1 => 0i64..70,
        1 => Just(0),
        1 => Just(-1),
        1 => Just(i64::MIN),
        1 => Just(i64::MAX),
    ]
}

fn operand() -> impl Strategy<Value = Operand> {
    prop_oneof![
        3 => imm().prop_map(Operand::Imm),
        3 => Just(Operand::Lane),
        1 => Just(Operand::Block),
        1 => Just(Operand::BlockY),
        1 => (0u8..3).prop_map(Operand::LoopVar),
        6 => reg().prop_map(Operand::Reg),
    ]
}

fn pred() -> impl Strategy<Value = PredExpr> {
    (0..4, operand(), operand()).prop_map(|(kind, a, b)| match kind {
        0 => PredExpr::Lt(a, b),
        1 => PredExpr::Le(a, b),
        2 => PredExpr::Eq(a, b),
        _ => PredExpr::Ne(a, b),
    })
}

fn instr() -> impl Strategy<Value = Instr> {
    let leaf = prop_oneof![
        8 => (0..OPS.len(), reg(), operand(), operand())
            .prop_map(|(op, dst, a, b)| Instr::Alu { op: OPS[op], dst, a, b }),
        3 => (reg(), operand()).prop_map(|(dst, src)| Instr::Mov { dst, src }),
        1 => reg().prop_map(|dst| Instr::ld_shr(dst, AddrExpr::lane())),
        1 => operand().prop_map(|src| Instr::st_shr(AddrExpr::lane(), src)),
        1 => Just(Instr::Sync),
    ];
    leaf.prop_recursive(3, 48, 4, |inner| {
        prop_oneof![
            (
                pred(),
                prop::collection::vec(inner.clone(), 0..5),
                prop::collection::vec(inner.clone(), 0..3)
            )
                .prop_map(|(pred, then_body, else_body)| Instr::Pred {
                    pred,
                    then_body,
                    else_body
                }),
            (0u32..4, prop::collection::vec(inner, 0..5))
                .prop_map(|(count, body)| Instr::Repeat { count, body }),
        ]
    })
}

const LANES: [u32; 4] = [1, 5, 32, 64];

/// The walk's facts at every node of `body` against the oracle's.
fn check(body: &[Instr], b: u32) -> Result<(), TestCaseError> {
    let mut oracle = Oracle::new(b);
    oracle.body(body);
    let got = walked(body, b);
    prop_assert_eq!(got.len(), oracle.facts.len());
    for (got, want) in got.iter().zip(&oracle.facts) {
        prop_assert_eq!(got, want, "b = {}, body = {:?}", b, body);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(768))]

    #[test]
    fn walk_facts_equal_the_per_lane_oracle(
        body in prop::collection::vec(instr(), 1..14),
        b in 0..LANES.len(),
    ) {
        check(&body, LANES[b])?;
    }
}

/// Division and remainder at their edges, by immediates and through
/// lane-pure registers: by zero (an immediate, lane 0) and `i64::MIN /
/// −1`, each folded into a predicate.
#[test]
fn division_edges_equal_the_oracle() {
    let alu = |op, dst, a, b| Instr::Alu { op, dst, a, b };
    let (min, minus_one) = (Operand::Imm(i64::MIN), Operand::Imm(-1));
    let mut body = vec![
        Instr::Mov { dst: 0, src: min },
        Instr::Mov { dst: 1, src: minus_one },
        alu(AluOp::Sub, 2, Operand::Lane, Operand::Imm(1)),
    ];
    for op in [AluOp::Div, AluOp::Rem] {
        for (a, b) in [
            (min, minus_one),
            (Operand::Reg(0), Operand::Reg(1)),
            (Operand::Reg(0), Operand::Reg(2)),
            (Operand::Lane, Operand::Imm(0)),
            (Operand::Imm(7), Operand::Lane),
            (Operand::Reg(0), Operand::Lane),
        ] {
            body.push(alu(op, 3, a, b));
            body.push(Instr::Pred {
                pred: PredExpr::Eq(Operand::Reg(3), Operand::Imm(0)),
                then_body: vec![Instr::st_shr(AddrExpr::lane(), Operand::Reg(3))],
                else_body: vec![alu(AluOp::Min, 4, Operand::Reg(3), Operand::Lane)],
            });
        }
    }
    for b in LANES {
        if let Err(e) = check(&body, b) {
            panic!("{e}");
        }
    }
}

/// The generator reaches what the property is about: folded masks that
/// are neither empty nor full, registers lane-pure with every lane equal
/// but not warp-uniform, and zero-trip loops.
#[test]
fn the_generator_reaches_the_interesting_facts() {
    fn zero_trip_loops(body: &[Instr]) -> usize {
        body.iter()
            .map(|i| match i {
                Instr::Pred { then_body, else_body, .. } => {
                    zero_trip_loops(then_body) + zero_trip_loops(else_body)
                }
                Instr::Repeat { count, body } => usize::from(*count == 0) + zero_trip_loops(body),
                _ => 0,
            })
            .sum()
    }
    let mut rng = proptest::test_runner::TestRng::from_name("the_generator_reaches");
    let bodies = prop::collection::vec(instr(), 1..14);
    let (mut partial, mut equal_rows, mut zero_trip) = (0, 0, 0);
    for case in 0..768 {
        let body = bodies.generate(&mut rng);
        let b = LANES[case % LANES.len()];
        let full = if b == 64 { u64::MAX } else { (1 << b) - 1 };
        zero_trip += zero_trip_loops(&body);
        for f in walked(&body, b) {
            partial += usize::from(f.folded.is_some_and(|m| m != 0 && m != full));
            let regs = REGS.iter().zip(&f.same[5..]);
            equal_rows += regs.filter(|(&r, &same)| same && !f.uniform[r as usize]).count();
        }
    }
    assert!(partial > 50, "{partial} partial folded masks");
    assert!(equal_rows > 50, "{equal_rows} equal-lane rows that are not uniform");
    assert!(zero_trip > 50, "{zero_trip} zero-trip loops");
}
