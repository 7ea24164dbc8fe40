//! Figure 4 — reduction: predicted, observed and normalised.

use crate::figures::{reduce_sizes, standard_panels};
use crate::runner::{run_row, ExpConfig, ExpError, SweepRow};
use crate::series::Figure;
use atgpu_algos::reduce::Reduce;

/// Runs the reduction sweep (paper: `n = 2¹⁶ … 2²⁶`, 0/1 values).
pub fn rows(cfg: &ExpConfig) -> Result<Vec<SweepRow>, ExpError> {
    reduce_sizes(cfg.scale).into_iter().map(|n| run_row(&Reduce::new(n, n), cfg)).collect()
}

/// Figures 4a, 4b, 4c from the sweep rows.
pub fn figures(rows: &[SweepRow]) -> Vec<Figure> {
    standard_panels(rows, 4, "reduction", true)
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
        // Transfer matters but less than in vector addition: ΔE should be
        // positive yet clearly below the vecadd regime (~0.85).
        assert!(last.delta_e > 0.05 && last.delta_e < 0.8, "ΔE = {}", last.delta_e);
        // Total still exceeds kernel.
        assert!(last.total_ms > last.kernel_ms);
        assert_eq!(figures(&rows).len(), 3);
    }
}
