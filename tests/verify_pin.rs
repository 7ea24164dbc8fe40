//! Verdict pin of the static verifier: for every `atgpu_algos::roster()`
//! entry × plan cell that `roster_plans` builds, one row per launch —
//! race verdict (with its witness when racy), proven out-of-bounds count,
//! undecided bounds sites, shared-memory hazards — and one row with the
//! program's host-dataflow lints.  The table in `verify_pin.tsv` was
//! generated before the race solver learned to project equal-coefficient
//! terms; a speed-up of the verifier must leave every row as it is,
//! except that an `unknown` race verdict may become `race_free` (a
//! sharper proof, never a weaker one).  On a mismatch the failure message
//! prints the actual table.

use atgpu::algos::roster::asym_pair;
use atgpu::algos::workload::{test_machine, test_spec};
use atgpu::verify::{verify_program, RaceVerdict};
use std::fmt::Write as _;

fn cells() -> String {
    let machine = test_machine();
    let asym = asym_pair(test_spec());
    let mut out = String::new();
    for entry in atgpu::algos::roster() {
        for (plan_name, plan) in entry.plans(&machine, &asym) {
            let cell = format!("{}/{plan_name}", entry.name);
            let built = entry
                .workload
                .build_plan(&machine, plan)
                .unwrap_or_else(|e| panic!("{cell} must build: {e}"));
            let report = verify_program(&built.program, machine.b);
            for l in &report.launches {
                let race = match &l.race {
                    RaceVerdict::RaceFree => "race_free".to_string(),
                    RaceVerdict::Unknown => "unknown".to_string(),
                    RaceVerdict::Racy(w) => format!("racy {w:?}"),
                };
                writeln!(
                    out,
                    "{cell}\tr{}\t{}\t{race}\toob={}\tbounds_unknown={}\tsmem={}",
                    l.round,
                    l.kernel,
                    l.oob.len(),
                    l.bounds_unknown,
                    l.smem.len()
                )
                .expect("String write");
            }
            let lints: Vec<String> = report.lints.iter().map(ToString::to_string).collect();
            writeln!(out, "{cell}\tlints=[{}]", lints.join("; ")).expect("String write");
        }
    }
    out
}

#[test]
fn verifier_verdicts_match_the_pinned_table() {
    let actual = cells();
    let pinned = include_str!("verify_pin.tsv");
    if actual != pinned {
        for (a, p) in actual.lines().zip(pinned.lines()).filter(|(a, p)| a != p) {
            eprintln!("pinned: {p}\nactual: {a}\n");
        }
        panic!(
            "verifier verdicts differ from tests/verify_pin.tsv ({} vs {} rows); \
             the full actual table:\n{actual}",
            actual.lines().count(),
            pinned.lines().count()
        );
    }
}
