//! Data series and figures.

/// One plotted series: a label and `(x, y)` points.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Legend label (e.g. "ATGPU", "Total").
    pub label: String,
    /// The points, in x order.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates a series.
    pub fn new(label: impl Into<String>, points: Vec<(f64, f64)>) -> Self {
        Self { label: label.into(), points }
    }

    /// Min–max normalises the y values onto `[0, 1]` — the paper's
    /// "normalised all data on a 0→1 scale" for its (c) panels.
    /// A constant series maps to all zeros.
    pub fn normalized(&self) -> Series {
        let ys: Vec<f64> = self.points.iter().map(|p| p.1).collect();
        let lo = ys.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = ys.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let span = hi - lo;
        Series {
            label: self.label.clone(),
            points: self
                .points
                .iter()
                .map(|&(x, y)| (x, if span > 0.0 { (y - lo) / span } else { 0.0 }))
                .collect(),
        }
    }
}

/// A figure: several series over a common x axis.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure {
    /// Identifier matching the paper ("fig3a", "fig6b", …).
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// X-axis label.
    pub xlabel: String,
    /// Y-axis label.
    pub ylabel: String,
    /// The series.
    pub series: Vec<Series>,
}

impl Figure {
    /// Creates a figure.
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        xlabel: impl Into<String>,
        ylabel: impl Into<String>,
        series: Vec<Series>,
    ) -> Self {
        Self {
            id: id.into(),
            title: title.into(),
            xlabel: xlabel.into(),
            ylabel: ylabel.into(),
            series,
        }
    }

    /// The figure with every series min–max normalised (a "(c)" panel).
    pub fn normalized(&self, id: impl Into<String>, title: impl Into<String>) -> Figure {
        Figure {
            id: id.into(),
            title: title.into(),
            xlabel: self.xlabel.clone(),
            ylabel: "normalised".into(),
            series: self.series.iter().map(Series::normalized).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_maps_to_unit_interval() {
        let s = Series::new("t", vec![(1.0, 10.0), (2.0, 20.0), (3.0, 30.0)]);
        let n = s.normalized();
        assert_eq!(n.points[0].1, 0.0);
        assert_eq!(n.points[1].1, 0.5);
        assert_eq!(n.points[2].1, 1.0);
        // x untouched.
        assert_eq!(n.points[2].0, 3.0);
    }

    #[test]
    fn normalize_constant_series() {
        let s = Series::new("t", vec![(1.0, 5.0), (2.0, 5.0)]);
        let n = s.normalized();
        assert!(n.points.iter().all(|p| p.1 == 0.0));
    }

    #[test]
    fn figure_normalized_keeps_labels() {
        let f = Figure::new(
            "fig3b",
            "observed",
            "n",
            "ms",
            vec![Series::new("Total", vec![(1.0, 1.0), (2.0, 3.0)])],
        );
        let n = f.normalized("fig3c", "normalised");
        assert_eq!(n.id, "fig3c");
        assert_eq!(n.series[0].label, "Total");
    }
}
