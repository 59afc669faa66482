//! Pearson and Spearman correlation.
//!
//! Fig. 7b of the paper reports the correlation between the crowd's mean
//! `UserPerceivedPLT` and each automatic PLT metric across the 100-site
//! final timeline campaign (paper values: OnLoad 0.85, FirstVisualChange
//! 0.84, SpeedIndex 0.68, LastVisualChange 0.47). The paper does not name
//! the estimator; we provide Pearson (the conventional reading of an
//! unqualified "correlation") and Spearman as a robustness check, and the
//! bench harness reports both.

/// Pearson product-moment correlation coefficient of two paired samples.
///
/// Returns `None` when the samples differ in length, have fewer than two
/// points, or either has zero variance (the coefficient is undefined).
pub fn pearson(x: &[f64], y: &[f64]) -> Option<f64> {
    if x.len() != y.len() || x.len() < 2 {
        return None;
    }
    let n = x.len() as f64;
    // lint:allow(D6): one sequential sum in slice index order; the caller fixes the order
    let mx = x.iter().sum::<f64>() / n;
    // lint:allow(D6): one sequential sum in slice index order; the caller fixes the order
    let my = y.iter().sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (&a, &b) in x.iter().zip(y) {
        let dx = a - mx;
        let dy = b - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx == 0.0 || syy == 0.0 {
        return None;
    }
    Some(sxy / (sxx.sqrt() * syy.sqrt()))
}

/// Spearman rank correlation: Pearson correlation of the rank-transformed
/// samples, with tied values assigned the mean of their rank range
/// (fractional ranking). Same degenerate-input behaviour as [`pearson`].
pub fn spearman(x: &[f64], y: &[f64]) -> Option<f64> {
    if x.len() != y.len() || x.len() < 2 {
        return None;
    }
    pearson(&ranks(x), &ranks(y))
}

/// Fractional ranks of a sample (1-based; ties share the mean rank).
pub fn ranks(sample: &[f64]) -> Vec<f64> {
    let n = sample.len();
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&a, &b| sample[a].total_cmp(&sample[b]));
    let mut out = vec![0.0; n];
    let mut i = 0;
    while i < n {
        // Find the run of tied values starting at sorted position i.
        let mut j = i;
        while j + 1 < n && sample[idx[j + 1]] == sample[idx[i]] {
            j += 1;
        }
        // Mean of 1-based ranks i+1 ..= j+1.
        let mean_rank = (i + j + 2) as f64 / 2.0;
        for &k in &idx[i..=j] {
            out[k] = mean_rank;
        }
        i = j + 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_linear_correlation() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&x, &y).unwrap() - 1.0).abs() < 1e-12);
        let y_neg = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson(&x, &y_neg).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn known_pearson_value() {
        // Cross-checked with scipy.stats.pearsonr.
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y = [2.0, 1.0, 4.0, 3.0, 5.0];
        assert!((pearson(&x, &y).unwrap() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn degenerate_inputs() {
        assert!(pearson(&[1.0], &[2.0]).is_none());
        assert!(pearson(&[1.0, 2.0], &[3.0]).is_none());
        assert!(pearson(&[1.0, 1.0], &[1.0, 2.0]).is_none()); // zero variance
    }

    #[test]
    fn spearman_monotone_nonlinear_is_one() {
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y = [1.0, 8.0, 27.0, 64.0, 125.0]; // x^3: nonlinear but monotone
        assert!((spearman(&x, &y).unwrap() - 1.0).abs() < 1e-12);
        // Pearson of the same data is strictly below 1.
        assert!(pearson(&x, &y).unwrap() < 1.0);
    }

    #[test]
    fn ranks_handle_ties_fractionally() {
        assert_eq!(ranks(&[10.0, 20.0, 20.0, 30.0]), vec![1.0, 2.5, 2.5, 4.0]);
        assert_eq!(ranks(&[5.0, 5.0, 5.0]), vec![2.0, 2.0, 2.0]);
    }

    #[test]
    fn spearman_with_ties_matches_scipy() {
        // scipy.stats.spearmanr([1,2,2,3],[1,3,2,4]) ≈ 0.9486832980505138
        let x = [1.0, 2.0, 2.0, 3.0];
        let y = [1.0, 3.0, 2.0, 4.0];
        assert!((spearman(&x, &y).unwrap() - 0.948_683_298_050_513_8).abs() < 1e-9);
    }
}
