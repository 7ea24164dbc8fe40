//! Figure 3 — vector addition: predicted, observed and normalised.

use crate::figures::{standard_panels, vecadd_sizes};
use crate::runner::{run_row, ExpConfig, ExpError, SweepRow};
use crate::series::Figure;
use atgpu_algos::vecadd::VecAdd;

/// Runs the vector-addition sweep (paper: `n = 10⁶ … 10⁷`).
pub fn rows(cfg: &ExpConfig) -> Result<Vec<SweepRow>, ExpError> {
    vecadd_sizes(cfg.scale).into_iter().map(|n| run_row(&VecAdd::new(n, n), cfg)).collect()
}

/// Figures 3a, 3b, 3c from the sweep rows.
pub fn figures(rows: &[SweepRow]) -> Vec<Figure> {
    standard_panels(rows, 3, "vector addition", true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Scale;

    #[test]
    fn quick_sweep_reproduces_paper_shape() {
        let cfg = ExpConfig::standard(Scale::Quick);
        let rows = rows(&cfg).unwrap();
        assert_eq!(rows.len(), 5);
        // Total grows much faster than kernel (transfer dominance).
        let first = &rows[0];
        let last = rows.last().unwrap();
        assert!(last.total_ms > last.kernel_ms * 2.0, "{last:?}");
        // Monotone growth in n.
        assert!(last.total_ms > first.total_ms);
        assert!(last.atgpu_cost > first.atgpu_cost);
        // ATGPU grows faster than SWGPU (it sees the transfer).
        let atgpu_growth = last.atgpu_cost / first.atgpu_cost;
        let swgpu_growth = last.swgpu_cost / first.swgpu_cost;
        assert!(atgpu_growth > 0.0 && swgpu_growth > 0.0);
        let figs = figures(&rows);
        assert_eq!(figs.len(), 3);
    }
}
