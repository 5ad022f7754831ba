//! Scalar estimators: running averages, blocking error analysis and an
//! autocorrelation-time estimate (the `tau_corr` entering the paper's DMC
//! efficiency `kappa = 1/(sigma^2 tau_corr T_MC)`).
#![expect(
    clippy::cast_precision_loss,
    reason = "blocking statistics run on f64 samples; block and sample counts convert exactly"
)]

/// Accumulates a weighted scalar time series in double precision.
#[derive(Clone, Debug, Default)]
pub struct ScalarEstimator {
    samples: Vec<f64>,
    weights: Vec<f64>,
}

impl ScalarEstimator {
    /// Empty estimator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one sample with weight `w`.
    pub fn push(&mut self, value: f64, w: f64) {
        self.samples.push(value);
        self.weights.push(w);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Weighted mean.
    pub fn mean(&self) -> f64 {
        let wsum: f64 = self.weights.iter().sum();
        if wsum == 0.0 {
            return 0.0;
        }
        self.samples
            .iter()
            .zip(&self.weights)
            .map(|(x, w)| x * w)
            .sum::<f64>()
            / wsum
    }

    /// Weighted variance of the samples.
    pub fn variance(&self) -> f64 {
        let m = self.mean();
        let wsum: f64 = self.weights.iter().sum();
        if wsum == 0.0 {
            return 0.0;
        }
        self.samples
            .iter()
            .zip(&self.weights)
            .map(|(x, w)| w * (x - m) * (x - m))
            .sum::<f64>()
            / wsum
    }

    /// Blocking analysis: returns `(mean, error_of_mean, tau_corr)` where
    /// `tau_corr` is the integrated autocorrelation estimate from the ratio
    /// of the plateau blocked variance to the naive variance.
    pub fn blocking(&self) -> (f64, f64, f64) {
        let n = self.samples.len();
        let mean = self.mean();
        if n < 4 {
            return (mean, f64::NAN, 1.0);
        }
        let naive_var = self.variance() / n as f64;
        // Successively pair-average; track the error estimate.
        let mut data: Vec<f64> = self.samples.clone();
        let mut best_err2: f64 = naive_var;
        while data.len() >= 4 {
            let m = data.len();
            let mu: f64 = data.iter().sum::<f64>() / m as f64;
            let var: f64 = data.iter().map(|x| (x - mu) * (x - mu)).sum::<f64>() / (m - 1) as f64;
            let err2 = var / m as f64;
            if err2 > best_err2 {
                best_err2 = err2;
            }
            data = data.chunks_exact(2).map(|c| 0.5 * (c[0] + c[1])).collect();
        }
        let err = best_err2.sqrt();
        let tau = if naive_var > 0.0 {
            (best_err2 / naive_var).max(1.0)
        } else {
            1.0
        };
        (mean, err, tau)
    }

    /// Raw samples view.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Every field, as the checkpoint codec writes it: samples, then the
    /// parallel weights. The destructuring names every field, so a field
    /// added here does not compile until the codec carries it.
    pub(crate) fn series(&self) -> (&[f64], &[f64]) {
        let Self { samples, weights } = self;
        (samples, weights)
    }

    /// Rebuilds an estimator from the two parallel series of
    /// [`Self::series`] (the checkpoint codec checks their lengths).
    pub(crate) fn from_series(samples: Vec<f64>, weights: Vec<f64>) -> Self {
        Self { samples, weights }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance_unweighted() {
        let mut e = ScalarEstimator::new();
        for x in [1.0, 2.0, 3.0, 4.0] {
            e.push(x, 1.0);
        }
        assert!((e.mean() - 2.5).abs() < 1e-15);
        assert!((e.variance() - 1.25).abs() < 1e-15);
        assert_eq!(e.len(), 4);
    }

    #[test]
    fn weighted_mean() {
        let mut e = ScalarEstimator::new();
        e.push(1.0, 3.0);
        e.push(5.0, 1.0);
        assert!((e.mean() - 2.0).abs() < 1e-15);
    }

    #[test]
    fn blocking_iid_tau_near_one() {
        // Deterministic pseudo-random IID series.
        let mut e = ScalarEstimator::new();
        let mut state = 12345u64;
        for _ in 0..4096 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            e.push(((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5, 1.0);
        }
        let (_, err, tau) = e.blocking();
        assert!(tau < 2.0, "tau = {tau}");
        assert!(err > 0.0 && err < 0.02);
    }

    #[test]
    fn blocking_correlated_tau_large() {
        // AR(1) with strong correlation.
        let mut e = ScalarEstimator::new();
        let mut state = 999u64;
        let mut x = 0.0f64;
        for _ in 0..8192 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let noise = ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5;
            x = 0.95 * x + noise;
            e.push(x, 1.0);
        }
        let (_, _, tau) = e.blocking();
        assert!(tau > 5.0, "tau = {tau}");
    }
}
