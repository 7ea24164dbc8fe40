//! Figure and table runners, one per paper artefact.

pub mod ext;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod summary;
pub mod table1;

use crate::runner::{Scale, SweepRow};
use crate::series::{Figure, Series};

/// Builds the paper's standard panel triple from sweep rows:
/// `(a)` predicted (ATGPU vs SWGPU cost), `(b)` observed (Total vs
/// Kernel ms), and optionally `(c)` everything normalised together.
pub fn standard_panels(
    rows: &[SweepRow],
    fig_no: u8,
    workload: &str,
    with_normalized: bool,
) -> Vec<Figure> {
    let xs = |f: fn(&SweepRow) -> f64| -> Vec<(f64, f64)> {
        rows.iter().map(|r| (r.n as f64, f(r))).collect()
    };
    let atgpu = Series::new("ATGPU", xs(|r| r.atgpu_cost));
    let swgpu = Series::new("SWGPU", xs(|r| r.swgpu_cost));
    let total = Series::new("Total", xs(|r| r.total_ms));
    let kernel = Series::new("Kernel", xs(|r| r.kernel_ms));

    let a = Figure::new(
        format!("fig{fig_no}a"),
        format!("{workload}: predicted results"),
        "n",
        "cost (ms)",
        vec![atgpu.clone(), swgpu.clone()],
    );
    let b = Figure::new(
        format!("fig{fig_no}b"),
        format!("{workload}: observed results"),
        "n",
        "time (ms)",
        vec![total.clone(), kernel.clone()],
    );
    let mut out = vec![a, b];
    if with_normalized {
        let c = Figure::new(
            format!("fig{fig_no}c"),
            format!("{workload}: normalised results"),
            "n",
            "cost / time (0→1)",
            vec![atgpu.normalized(), swgpu.normalized(), total.normalized(), kernel.normalized()],
        );
        out.push(c);
    }
    out
}

/// Sweep sizes for the vector-addition figure.
pub fn vecadd_sizes(scale: Scale) -> Vec<u64> {
    match scale {
        Scale::Quick => (1..=5).map(|i| i * 20_000).collect(),
        Scale::Paper | Scale::Full => (1..=10).map(|i| i * 1_000_000).collect(),
    }
}

/// Sweep sizes for the reduction figure (paper: `n = 2^16 … 2^26`).
pub fn reduce_sizes(scale: Scale) -> Vec<u64> {
    match scale {
        Scale::Quick => (10..=14).map(|e| 1u64 << e).collect(),
        Scale::Paper => (16..=24).map(|e| 1u64 << e).collect(),
        Scale::Full => (16..=26).map(|e| 1u64 << e).collect(),
    }
}

/// Sweep sizes for the matrix-multiplication figure
/// (paper: `n = 32, 64, …, 1024`).
pub fn matmul_sizes(scale: Scale) -> Vec<u64> {
    match scale {
        Scale::Quick => vec![32, 64, 96, 128],
        Scale::Paper => vec![64, 128, 192, 256, 320, 384, 448, 512],
        Scale::Full => vec![64, 128, 256, 384, 512, 640, 768, 896, 1024],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<SweepRow> {
        (1..=3)
            .map(|i| SweepRow {
                n: i * 100,
                atgpu_cost: i as f64 * 2.0,
                swgpu_cost: i as f64,
                total_ms: i as f64 * 3.0,
                kernel_ms: i as f64 * 0.5,
                delta_e: 0.8,
                delta_t: 0.79,
            })
            .collect()
    }

    #[test]
    fn panels_have_paper_series() {
        let figs = standard_panels(&rows(), 3, "vecadd", true);
        assert_eq!(figs.len(), 3);
        assert_eq!(figs[0].id, "fig3a");
        assert_eq!(figs[0].series.len(), 2);
        assert_eq!(figs[1].series[0].label, "Total");
        assert_eq!(figs[2].series.len(), 4);
        // Normalised panel peaks at 1.
        assert_eq!(figs[2].series[0].points.last().map(|p| p.1), Some(1.0));
    }

    #[test]
    fn fig5_has_no_normalized_panel() {
        let figs = standard_panels(&rows(), 5, "matmul", false);
        assert_eq!(figs.len(), 2);
    }

    #[test]
    fn sizes_match_paper_ranges() {
        assert_eq!(vecadd_sizes(Scale::Paper).len(), 10);
        assert_eq!(*vecadd_sizes(Scale::Paper).last().unwrap(), 10_000_000);
        assert_eq!(*reduce_sizes(Scale::Full).last().unwrap(), 1 << 26);
        assert_eq!(*matmul_sizes(Scale::Full).last().unwrap(), 1024);
        assert!(matmul_sizes(Scale::Quick).iter().all(|n| n % 32 == 0));
    }
}
