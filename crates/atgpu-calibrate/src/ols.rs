//! Ordinary least squares, built from scratch: simple lines.

/// A fitted line `y = intercept + slope·x` with its coefficient of
/// determination.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearFit {
    /// Intercept.
    pub intercept: f64,
    /// Slope.
    pub slope: f64,
    /// R² on the fitting data.
    pub r2: f64,
}

/// Fits `y = a + b·x` by least squares.  Needs at least two distinct `x`
/// values; returns `None` otherwise.
pub fn fit_line(xs: &[f64], ys: &[f64]) -> Option<LinearFit> {
    if xs.len() != ys.len() || xs.len() < 2 {
        return None;
    }
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let sxx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
    if sxx == 0.0 {
        return None;
    }
    let sxy: f64 = xs.iter().zip(ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let slope = sxy / sxx;
    let intercept = my - slope * mx;
    let ss_tot: f64 = ys.iter().map(|y| (y - my) * (y - my)).sum();
    let ss_res: f64 = xs
        .iter()
        .zip(ys)
        .map(|(x, y)| {
            let e = y - (intercept + slope * x);
            e * e
        })
        .sum();
    let r2 = if ss_tot == 0.0 { 1.0 } else { 1.0 - ss_res / ss_tot };
    Some(LinearFit { intercept, slope, r2 })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_line_recovered() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 + 2.0 * x).collect();
        let f = fit_line(&xs, &ys).unwrap();
        assert!((f.intercept - 3.0).abs() < 1e-12);
        assert!((f.slope - 2.0).abs() < 1e-12);
        assert!((f.r2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn noisy_line_fits_reasonably() {
        let xs: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, x)| 1.0 + 0.5 * x + if i % 2 == 0 { 0.1 } else { -0.1 })
            .collect();
        let f = fit_line(&xs, &ys).unwrap();
        assert!((f.slope - 0.5).abs() < 0.01);
        assert!(f.r2 > 0.99);
    }

    #[test]
    fn degenerate_inputs_rejected() {
        assert!(fit_line(&[1.0], &[2.0]).is_none());
        assert!(fit_line(&[2.0, 2.0], &[1.0, 3.0]).is_none()); // no x variance
        assert!(fit_line(&[1.0, 2.0], &[1.0]).is_none()); // length mismatch
    }

    #[test]
    fn constant_y_has_r2_one() {
        let f = fit_line(&[1.0, 2.0, 3.0], &[5.0, 5.0, 5.0]).unwrap();
        assert_eq!(f.slope, 0.0);
        assert_eq!(f.r2, 1.0);
    }
}
