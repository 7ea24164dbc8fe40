//! Figure 5 — matrix multiplication: predicted and observed (the paper
//! has no normalised panel for this workload).

use crate::figures::{matmul_sizes, standard_panels};
use crate::runner::{run_row, ExpConfig, ExpError, SweepRow};
use crate::series::Figure;
use atgpu_algos::matmul::MatMul;

/// Runs the matrix-multiplication sweep (paper: `n = 32 … 1024`).
pub fn rows(cfg: &ExpConfig) -> Result<Vec<SweepRow>, ExpError> {
    matmul_sizes(cfg.scale).into_iter().map(|n| run_row(&MatMul::new(n, n), cfg)).collect()
}

/// Figures 5a, 5b from the sweep rows.
pub fn figures(rows: &[SweepRow]) -> Vec<Figure> {
    standard_panels(rows, 5, "matrix multiplication", false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Scale;

    #[test]
    fn quick_sweep_reproduces_paper_shape() {
        let cfg = ExpConfig::standard(Scale::Quick);
        let rows = rows(&cfg).unwrap();
        let last = rows.last().unwrap();
        // "There is little difference between the kernel running time and
        // the total running time": transfer share is small.
        assert!(last.delta_e < 0.35, "ΔE = {}", last.delta_e);
        // Kernel dominates the total.
        assert!(last.kernel_ms > 0.5 * last.total_ms);
        assert_eq!(figures(&rows).len(), 2);
    }
}
