//! # atgpu-exp — the experiment harness
//!
//! Regenerates **every table and figure** of the paper's evaluation
//! (§IV) against the simulated GTX 650-like device, plus the extension
//! experiments its future-work section calls for:
//!
//! | Runner | Paper artefact |
//! |---|---|
//! | [`figures::table1`] | Table I — model comparison |
//! | [`figures::fig3`] | Fig. 3a/3b/3c — vector addition |
//! | [`figures::fig4`] | Fig. 4a/4b/4c — reduction |
//! | [`figures::fig5`] | Fig. 5a/5b — matrix multiplication |
//! | [`figures::fig6`] | Fig. 6a/6b/6c — transfer proportions ΔE vs ΔT |
//! | [`figures::summary`] | §IV-D summary statistics |
//! | [`figures::ext`] | the twelve extension experiments (`e1`…`e13`, no `e9`), one row each of [`EXPERIMENTS`] |
//!
//! Each runner produces [`series::Figure`] data that the [`report`]
//! module renders as CSV / gnuplot / markdown files and the [`chart`]
//! module renders as ASCII plots for the terminal.
//!
//! An extension experiment is a value ([`experiment`]): a `(tag, label,
//! runner)` row whose runner returns one [`Section`] — its markdown, its
//! figures and the numbers the markdown states as named
//! [`Findings`](experiment::Findings).  The binary's dispatch loop,
//! accepted commands and `--help` are derived from the table; the tests
//! assert on the findings.  Inside the runners the paper's loop exists
//! once per side: `atgpu_analyze::predict` prices a program,
//! [`runner::observe`] simulates it, and [`runner::plan_sweep`] runs
//! both over clusters × workloads × shard plans.
//!
//! Every section is a function of the [`ExpConfig`]: the crate reads no
//! clock, so two runs write the same bytes and every section is pinned
//! under `tests/golden/`.  What the pipeline costs in host time is the
//! repo benchmark's to measure (`crates/atgpu-bench`), not this
//! harness's.
//!
//! The "observed" series are simulated observations — see DESIGN.md for
//! the hardware-substitution argument — and the "predicted" series are
//! the ATGPU/SWGPU cost functions evaluated on metrics derived from the
//! same IR by `atgpu-analyze`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod chart;
pub mod experiment;
pub mod figures;
pub mod report;
pub mod runner;
pub mod series;

pub use experiment::{Section, EXPERIMENTS};
pub use runner::{run_row, ExpConfig, ExpError, Scale, SweepRow};
pub use series::{Figure, Series};
