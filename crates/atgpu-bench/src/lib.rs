//! # atgpu-bench — Criterion benchmark harness
//!
//! Two benchmark suites:
//!
//! * `benches/figures.rs` — one benchmark per paper artefact (Table I,
//!   Figures 3–6, the §IV-D summary): each measures the full
//!   analyse+cost+simulate pipeline at a representative sweep point and,
//!   on first run, prints the regenerated series so `cargo bench`
//!   doubles as a quick reproduction of every figure;
//! * `benches/engine.rs` — substrate microbenches: simulator instruction
//!   throughput (engine vs reference interpreter), the issue loop, the
//!   residue-class coalescing analyser, OLS fitting, and IR pretty
//!   printing.
//!
//! Shared helpers live here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use atgpu_exp::{ExpConfig, Scale};

/// The benchmark configuration: quick scale, deterministic (no transfer
/// jitter).
pub fn bench_config() -> ExpConfig {
    let mut cfg = ExpConfig::standard(Scale::Quick);
    cfg.sim.noise = None;
    cfg
}

pub mod gate {
    //! The perf-regression gate shared by the `throughput` binary and its
    //! unit tests: baseline parsing and the pass/fail decision, kept free
    //! of measurement so both halves are testable.
    //!
    //! A workload **fails** the gate when its host-normalized blocks/s
    //! drops below `tolerance × baseline`, *or when it is present in the
    //! baseline but missing from the current run* — a silently deleted
    //! benchmark must not pass as "no regression".
    //!
    //! ## Cross-host drift correction
    //!
    //! Normalizing by the same run's reference interpreter cancels most
    //! machine weather, but the engine-vs-reference ratio itself shifts
    //! across CPU generations (observed: a box where every workload's
    //! normalized value sat uniformly ~0.8x below a baseline recorded
    //! elsewhere, while raw engine blocks/s was 1.1–2.2x *above* it).
    //! The gate therefore divides each workload's ratio by the
    //! **leave-one-out median** of the other matched workloads' ratios —
    //! a uniform host-wide shift cancels, while a workload regressing
    //! *relative to the fleet* still trips.  The correction is clamped
    //! to [1/[`MAX_DRIFT`], 1] — so a genuine across-the-board
    //! regression larger than the clamp still fails, and an *upward*
    //! fleet shift (faster box, or a PR that sped most workloads up)
    //! never penalises a workload that merely held steady — and is
    //! skipped entirely when fewer than 3 peer workloads exist (no
    //! robust estimate).

    /// One workload's numbers (from a baseline file or the current run).
    #[derive(Debug, Clone, PartialEq)]
    pub struct Entry {
        /// Workload name.
        pub name: String,
        /// Raw engine throughput (reported, not gated).
        pub engine_bps: f64,
        /// Host-normalized throughput: engine blocks/s over the same
        /// run's reference-interpreter blocks/s — the gated number.
        pub normalized: f64,
    }

    /// Extracts entries from a baseline JSON previously written by the
    /// `throughput` binary.  The format is our own (flat, one benchmark
    /// object per line), so a targeted scan beats dragging in a JSON
    /// dependency the build doesn't have.
    pub fn parse_baseline(text: &str) -> Vec<Entry> {
        let mut out = Vec::new();
        for line in text.lines() {
            let Some(name) = field_str(line, "name") else { continue };
            let Some(engine_bps) = field_num(line, "engine_blocks_per_sec") else { continue };
            let Some(normalized) = field_num(line, "speedup") else { continue };
            out.push(Entry { name, engine_bps, normalized });
        }
        out
    }

    fn field_str(line: &str, key: &str) -> Option<String> {
        let pat = format!("\"{key}\": \"");
        let start = line.find(&pat)? + pat.len();
        let end = line[start..].find('"')? + start;
        Some(line[start..end].to_string())
    }

    /// Scans a flat benchmark line for a numeric field.
    pub fn field_num(line: &str, key: &str) -> Option<f64> {
        let pat = format!("\"{key}\": ");
        let start = line.find(&pat)? + pat.len();
        let rest = &line[start..];
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        rest[..end].trim().parse().ok()
    }

    /// The widest uniform host drift the gate forgives (see module docs).
    pub const MAX_DRIFT: f64 = 1.5;

    /// The leave-one-out drift correction for the workload at `skip`:
    /// the median of the **other** ratios, clamped to
    /// [1/[`MAX_DRIFT`], 1]; 1.0 with fewer than 3 peers.  The upper
    /// clamp at 1 matters: only *downward* host drift is forgiven — a
    /// fleet whose ratios rose (a faster box, or a PR that genuinely
    /// sped up most workloads) must never turn an untouched workload's
    /// steady 1.0x into a failure.
    fn drift_correction(ratios: &[f64], skip: usize) -> f64 {
        let mut peers: Vec<f64> = ratios
            .iter()
            .enumerate()
            .filter(|&(i, r)| i != skip && r.is_finite())
            .map(|(_, &r)| r)
            .collect();
        if peers.len() < 3 {
            return 1.0;
        }
        peers.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let mid = peers.len() / 2;
        let median =
            if peers.len() % 2 == 1 { peers[mid] } else { 0.5 * (peers[mid - 1] + peers[mid]) };
        median.clamp(1.0 / MAX_DRIFT, 1.0)
    }

    /// Gates `runs` against `baseline`: returns the names of regressed
    /// **or missing** workloads (empty = gate passes), printing one line
    /// per verdict.  Ratios are drift-corrected by the leave-one-out
    /// median (see module docs) before comparison against `tolerance`.
    /// Workloads new in the current run are reported but not gated, so
    /// baselines can grow over time.
    pub fn failures(runs: &[Entry], baseline: &[Entry], tolerance: f64) -> Vec<String> {
        // Raw ratios of the matched workloads, baseline order (NaN for
        // missing entries so indices line up with `baseline`).
        let ratios: Vec<f64> = baseline
            .iter()
            .map(|base| {
                runs.iter()
                    .find(|m| m.name == base.name)
                    .map(|m| m.normalized / base.normalized)
                    .unwrap_or(f64::NAN)
            })
            .collect();
        // The correction's deliberate blind spot: a *uniform* ratio drop
        // between `tolerance` and 1/MAX_DRIFT is indistinguishable from
        // host drift and passes per-workload.  Surface it loudly so a
        // genuine across-the-board regression cannot slip by unremarked.
        {
            let mut all: Vec<f64> = ratios.iter().copied().filter(|r| r.is_finite()).collect();
            all.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            if !all.is_empty() {
                let fleet = all[all.len() / 2];
                if fleet < tolerance {
                    println!(
                        "  WARN fleet median normalized ratio {fleet:.2}x is below tolerance \
                         {tolerance} — uniform host drift and a uniform code regression are \
                         indistinguishable here; compare raw blk/s against the baseline's \
                         recording box before trusting this gate"
                    );
                }
            }
        }
        let mut failures = Vec::new();
        for (i, base) in baseline.iter().enumerate() {
            match runs.iter().find(|m| m.name == base.name) {
                None => {
                    println!(
                        "  FAIL {:<24} missing from current run (baseline {:.0} blk/s)",
                        base.name, base.engine_bps
                    );
                    failures.push(base.name.clone());
                }
                Some(m) => {
                    let drift = drift_correction(&ratios, i);
                    let ratio = ratios[i] / drift;
                    let raw = m.engine_bps / base.engine_bps;
                    if ratio < tolerance {
                        println!(
                            "  FAIL {:<24} normalized {:.2} vs baseline {:.2} \
                             ({ratio:.2}x < {tolerance} after /{drift:.2} drift; \
                             raw blk/s {raw:.2}x)",
                            m.name, m.normalized, base.normalized
                        );
                        failures.push(base.name.clone());
                    } else {
                        println!(
                            "  ok   {:<24} normalized {:.2} vs baseline {:.2} \
                             ({ratio:.2}x after /{drift:.2} drift; raw blk/s {raw:.2}x)",
                            m.name, m.normalized, base.normalized
                        );
                    }
                }
            }
        }
        for m in runs {
            if !baseline.iter().any(|b| b.name == m.name) {
                println!("  new  {:<24} {:>12.0} blk/s (not gated)", m.name, m.engine_bps);
            }
        }
        failures
    }

    /// The re-measure-best-of rule: a retried workload keeps its **best**
    /// normalized result, so a one-off scheduling hiccup cannot fail the
    /// gate while a real slowdown fails every retry.
    pub fn keep_best(slot: &mut Entry, fresh: Entry) {
        if fresh.normalized > slot.normalized {
            *slot = fresh;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::gate::{failures, keep_best, parse_baseline, Entry};

    #[test]
    fn bench_config_is_deterministic() {
        assert!(super::bench_config().sim.noise.is_none());
    }

    fn e(name: &str, bps: f64, norm: f64) -> Entry {
        Entry { name: name.into(), engine_bps: bps, normalized: norm }
    }

    #[test]
    fn parse_baseline_reads_throughput_json() {
        let text = r#"{
  "benchmarks": [
    {"name": "vecadd", "blocks": 100, "reference_secs": 1.0, "engine_secs": 0.5, "reference_blocks_per_sec": 100.00, "engine_blocks_per_sec": 200.00, "speedup": 2.000},
    {"name": "matmul", "blocks": 10, "engine_blocks_per_sec": 50.00, "speedup": 1.500}
  ]
}"#;
        let b = parse_baseline(text);
        assert_eq!(b.len(), 2);
        assert_eq!(b[0], e("vecadd", 200.0, 2.0));
        assert_eq!(b[1], e("matmul", 50.0, 1.5));
    }

    /// The doc-comment promise "or disappears": a workload recorded in
    /// the baseline but absent from the current run must trip the gate.
    #[test]
    fn missing_workload_trips_the_gate() {
        let baseline = [e("vecadd", 200.0, 2.0), e("matmul", 50.0, 1.5)];
        let runs = [e("vecadd", 210.0, 2.1)];
        assert_eq!(failures(&runs, &baseline, 0.85), vec!["matmul".to_string()]);
        // And an empty run fails every baseline entry.
        assert_eq!(failures(&[], &baseline, 0.85).len(), 2);
    }

    #[test]
    fn regression_and_pass_thresholds() {
        let baseline = [e("vecadd", 200.0, 2.0)];
        // At exactly tolerance the gate passes (>= semantics).
        assert!(failures(&[e("vecadd", 10.0, 1.7)], &baseline, 0.85).is_empty());
        // Below tolerance it fails — normalized is gated, raw is not.
        assert_eq!(failures(&[e("vecadd", 500.0, 1.6)], &baseline, 0.85), vec!["vecadd"]);
        // New workloads are reported but never gated.
        assert!(failures(&[e("vecadd", 10.0, 2.0), e("new", 1.0, 0.1)], &baseline, 0.85).is_empty());
    }

    /// A uniform engine-vs-reference shift (a different CPU generation,
    /// not a regression: raw blocks/s may even be up) is cancelled by
    /// the leave-one-out median drift correction.
    #[test]
    fn uniform_host_drift_is_forgiven() {
        let baseline: Vec<Entry> = (0..5).map(|i| e(&format!("w{i}"), 100.0, 2.0)).collect();
        // All workloads at 0.8x normalized but faster raw throughput.
        let runs: Vec<Entry> = (0..5).map(|i| e(&format!("w{i}"), 150.0, 1.6)).collect();
        assert!(failures(&runs, &baseline, 0.85).is_empty());
    }

    /// A workload regressing *relative to the fleet* still fails even
    /// under host-wide drift — the correction is leave-one-out, so the
    /// regressed workload cannot drag the median down to excuse itself.
    #[test]
    fn relative_regression_fails_despite_drift() {
        let baseline: Vec<Entry> = (0..6).map(|i| e(&format!("w{i}"), 100.0, 2.0)).collect();
        let mut runs: Vec<Entry> = (0..6).map(|i| e(&format!("w{i}"), 150.0, 1.6)).collect();
        runs[0].normalized = 0.8; // 0.4x of baseline, fleet at 0.8x
        assert_eq!(failures(&runs, &baseline, 0.85), vec!["w0"]);
    }

    /// The clamp bounds the forgiveness: an across-the-board collapse
    /// beyond [`super::gate::MAX_DRIFT`] fails every workload — drift
    /// correction must not absorb a genuine global regression.
    #[test]
    fn across_the_board_collapse_still_fails() {
        let baseline: Vec<Entry> = (0..5).map(|i| e(&format!("w{i}"), 100.0, 2.0)).collect();
        let runs: Vec<Entry> = (0..5).map(|i| e(&format!("w{i}"), 50.0, 1.0)).collect();
        // 0.5x everywhere; correction clamps at 1/1.5 → 0.75x < 0.85.
        assert_eq!(failures(&runs, &baseline, 0.85).len(), 5);
    }

    /// An upward fleet shift (most workloads sped up by a PR, or a
    /// faster box) must never fail a workload that held steady at its
    /// baseline ratio: the correction is clamped at 1 from above.
    #[test]
    fn fleet_improvement_never_fails_untouched_workloads() {
        let baseline: Vec<Entry> = (0..10).map(|i| e(&format!("w{i}"), 100.0, 2.0)).collect();
        let mut runs: Vec<Entry> = (0..10).map(|i| e(&format!("w{i}"), 150.0, 2.5)).collect();
        runs[0].normalized = 2.0; // untouched: exactly its baseline
        assert!(failures(&runs, &baseline, 0.85).is_empty());
    }

    /// With fewer than 3 peer workloads there is no robust drift
    /// estimate and the raw ratio is gated — the pre-correction rule.
    #[test]
    fn small_fleets_gate_uncorrected() {
        let baseline = [e("a", 100.0, 2.0), e("b", 100.0, 2.0)];
        let runs = [e("a", 100.0, 1.6), e("b", 100.0, 1.6)];
        assert_eq!(failures(&runs, &baseline, 0.85).len(), 2);
    }

    /// The re-measure path keeps the best-of result: an improved retry
    /// replaces the slot, a worse one is discarded.
    #[test]
    fn keep_best_retains_maximum_normalized() {
        let baseline = [e("vecadd", 200.0, 2.0)];
        let mut slot = e("vecadd", 100.0, 1.2); // failing sample
        assert_eq!(failures(std::slice::from_ref(&slot), &baseline, 0.85), vec!["vecadd"]);
        keep_best(&mut slot, e("vecadd", 90.0, 1.1)); // worse retry: discarded
        assert_eq!(slot.normalized, 1.2);
        keep_best(&mut slot, e("vecadd", 180.0, 1.9)); // better retry: kept
        assert_eq!(slot.normalized, 1.9);
        assert!(failures(std::slice::from_ref(&slot), &baseline, 0.85).is_empty());
    }
}
