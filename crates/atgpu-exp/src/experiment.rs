//! An experiment is a value: one table row `(tag, label, runner)` whose
//! runner returns one [`Section`] — markdown, figures and the numbers the
//! markdown states, by name.
//!
//! The command line is derived from [`EXPERIMENTS`] (dispatch loop,
//! accepted commands, `--help`, per-experiment trace file names), and
//! the tests assert on [`Section::findings`] instead of re-parsing the
//! sentences rendered from them.

use crate::figures::ext;
use crate::runner::{ExpConfig, ExpError};
use crate::series::Figure;
use std::path::Path;

/// `yes` / `NO` — how every acceptance sentence renders a boolean.
pub fn yes_no(holds: bool) -> &'static str {
    if holds {
        "yes"
    } else {
        "NO"
    }
}

/// The named numbers an experiment measured, in the order it stated
/// them.  Recording returns the value (or its `yes`/`NO` rendering), so
/// a sentence is written *from* the finding it reports.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Findings(Vec<(String, f64)>);

impl Findings {
    /// Records `name = value` and hands `value` back for rendering.
    pub fn num(&mut self, name: impl Into<String>, value: f64) -> f64 {
        self.0.push((name.into(), value));
        value
    }

    /// Records a boolean finding (`1.0` / `0.0`) and renders it.
    pub fn flag(&mut self, name: impl Into<String>, holds: bool) -> &'static str {
        self.num(name, f64::from(u8::from(holds)));
        yes_no(holds)
    }

    /// The finding recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

/// What one experiment produced.
#[derive(Debug, Clone)]
pub struct Section {
    /// The section of `extensions.md`.
    pub markdown: String,
    /// Figures to chart and write beside it.
    pub figures: Vec<Figure>,
    /// The numbers the markdown states.
    pub findings: Findings,
}

impl Section {
    /// A section of prose and tables with its findings, no figures.
    pub fn new(markdown: String, findings: Findings) -> Self {
        Self { markdown, figures: Vec::new(), findings }
    }
}

/// An experiment's body: the configuration and, for the experiments that
/// re-run traced, where `--trace` wants the Chrome JSON written.
pub type Runner = fn(&ExpConfig, Option<&Path>) -> Result<Section, ExpError>;

/// One row of the experiment table: the command-line tag (also the trace
/// file's infix, `out.<tag>.json`), what the progress line and `--help`
/// call it, and the body.
pub type Experiment = (&'static str, &'static str, Runner);

/// Every extension experiment, in `extensions.md` order.
pub const EXPERIMENTS: [Experiment; 12] = [
    ("e1", "E1 out-of-core", |c, _| ext::e1_out_of_core(c)),
    ("e2", "E2 other GPUs", |c, _| ext::e2_other_gpus(c)),
    ("e3", "E3 bank conflicts", |c, _| ext::e3_bank_conflicts(c)),
    ("e4", "E4 occupancy", |c, _| ext::e4_occupancy(c)),
    ("e5", "E5 other problems", |c, _| ext::e5_other_problems(c)),
    ("e6", "E6 calibration", |c, _| ext::e6_calibration(c)),
    ("e7", "E7 multi-device sharding", |c, _| ext::e7_multi_device(c)),
    ("e8", "E8 streams + heterogeneous shards", |c, _| ext::e8_streams(c)),
    ("e10", "E10 cost-driven pipeline planner", ext::e10_pipeline_planner),
    ("e11", "E11 fault injection + degraded-mode replanning", ext::e11_fault_tolerance),
    ("e12", "E12 multi-tenant pricing service", |c, _| ext::e12_pricing_service(c)),
    ("e13", "E13 peer-aware shard planning", ext::e13_peer_aware_planner),
];

/// The paper's own artefacts, which share their sweeps and so stay
/// hand-dispatched in `main.rs`.
pub const PAPER_COMMANDS: [&str; 6] = ["table1", "fig3", "fig4", "fig5", "fig6", "summary"];

/// Every artefact command: the paper's, then the experiment tags.  `all`
/// selects them all.
pub fn commands() -> impl Iterator<Item = &'static str> {
    PAPER_COMMANDS.into_iter().chain(EXPERIMENTS.iter().map(|e| e.0))
}

/// The `--help` text, its command list generated from the tables.
pub fn usage() -> String {
    let commands: Vec<&str> = commands().collect();
    let experiments: String =
        EXPERIMENTS.iter().map(|(_, label, _)| format!("  {label}\n")).collect();
    format!(
        "atgpu-exp — regenerate the ATGPU paper's tables and figures

atgpu-exp [COMMANDS] [OPTIONS]

COMMANDS (any combination; default: all)
  {} all
  pseudocode NAME   print a workload's program in the paper's notation
                    (any `atgpu_algos::roster()` name)
  check-trace FILE...
                    validate Chrome trace_event JSON files written by
                    --trace; nonzero exit on the first invalid file

EXTENSION EXPERIMENTS
{experiments}
OPTIONS
  --verify       statically verify every workload roster × plan cell and
                 print a verdict table; nonzero exit on a proven defect
  --quick        small sweep sizes (seconds)
  --full         complete paper ranges (minutes)
  --out DIR      write CSV/DAT/JSON files (default: ./experiments)
  --no-noise     disable transfer jitter
  --trace PATH   write Chrome trace_event JSON from the experiments that
                 re-run traced (e10, e11, e13); PATH gets the tag inserted
                 before its extension (out.json -> out.e10.json)
",
        commands.join(" ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_are_unique_and_all_in_the_help() {
        let help = usage();
        let tags: Vec<&str> = commands().collect();
        for (i, tag) in tags.iter().enumerate() {
            assert!(!tags[..i].contains(tag), "duplicate command `{tag}`");
            assert!(help.contains(&format!(" {tag} ")), "`{tag}` missing from --help:\n{help}");
        }
        for (_, label, _) in EXPERIMENTS {
            assert!(help.contains(label), "`{label}` missing from --help:\n{help}");
        }
    }

    #[test]
    fn findings_render_what_they_record() {
        let mut f = Findings::default();
        assert_eq!(f.num("gap", 0.25), 0.25);
        assert_eq!((f.flag("ok", true), f.flag("bad", false)), ("yes", "NO"));
        assert_eq!((f.get("gap"), f.get("ok"), f.get("bad")), (Some(0.25), Some(1.0), Some(0.0)));
        assert_eq!(f.get("absent"), None);
    }
}
